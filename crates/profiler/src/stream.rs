//! Streaming unit sources: the read side of the sink/source pair.
//!
//! A [`UnitStream`] yields sampling units in id order without promising that
//! the whole trace is in memory. The analysis pipeline's streaming path
//! (`simprof-core`) scans a stream once, accumulating feature sufficient
//! statistics and a sparse copy of the histograms it builds the reduced
//! matrix from. When that copy would outgrow the matrix it rewinds and
//! reads the stream a second time instead, so a stream must be
//! rewindable. [`MemStream`] adapts an
//! in-memory [`ProfileTrace`]; the `simprof-trace` crate provides the
//! on-disk chunked-file implementation.

use crate::trace::{ProfileTrace, SamplingUnit};

/// A rewindable, in-order source of sampling units.
pub trait UnitStream {
    /// Sampling-unit size in instructions (the trace header's value).
    fn unit_instrs(&self) -> u64;

    /// Snapshot period in instructions.
    fn snapshot_instrs(&self) -> u64;

    /// The core whose executor thread was profiled.
    fn core(&self) -> usize;

    /// Restarts the stream at the first unit.
    fn rewind(&mut self) -> Result<(), String>;

    /// Yields the next unit, or `None` at end of stream. The returned
    /// borrow is valid until the next call on the stream.
    fn next_unit(&mut self) -> Result<Option<&SamplingUnit>, String>;
}

/// A [`UnitStream`] over a borrowed in-memory trace.
#[derive(Debug)]
pub struct MemStream<'a> {
    trace: &'a ProfileTrace,
    pos: usize,
}

impl<'a> MemStream<'a> {
    /// Streams `trace`'s units from the start.
    pub fn new(trace: &'a ProfileTrace) -> Self {
        Self { trace, pos: 0 }
    }
}

impl UnitStream for MemStream<'_> {
    fn unit_instrs(&self) -> u64 {
        self.trace.unit_instrs
    }

    fn snapshot_instrs(&self) -> u64 {
        self.trace.snapshot_instrs
    }

    fn core(&self) -> usize {
        self.trace.core
    }

    fn rewind(&mut self) -> Result<(), String> {
        self.pos = 0;
        Ok(())
    }

    fn next_unit(&mut self) -> Result<Option<&SamplingUnit>, String> {
        let unit = self.trace.units.get(self.pos);
        if unit.is_some() {
            self.pos += 1;
        }
        Ok(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simprof_engine::MethodId;
    use simprof_sim::Counters;

    fn trace(n: u64) -> ProfileTrace {
        let units = (0..n)
            .map(|id| SamplingUnit {
                id,
                histogram: vec![(MethodId(0), 1)],
                snapshots: 1,
                counters: Counters { instructions: 10, cycles: 20, ..Default::default() },
                slices: Vec::new(),
                truncated: false,
                dropped_snapshots: 0,
            })
            .collect();
        ProfileTrace { unit_instrs: 10, snapshot_instrs: 1, core: 0, units }
    }

    #[test]
    fn mem_stream_yields_in_order_and_rewinds() {
        let t = trace(3);
        let mut s = MemStream::new(&t);
        assert_eq!(s.unit_instrs(), 10);
        let mut seen = Vec::new();
        while let Some(u) = s.next_unit().unwrap() {
            seen.push(u.id);
        }
        assert_eq!(seen, vec![0, 1, 2]);
        assert!(s.next_unit().unwrap().is_none(), "stays exhausted");
        s.rewind().unwrap();
        assert_eq!(s.next_unit().unwrap().unwrap().id, 0);
    }
}
