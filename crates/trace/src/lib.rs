//! The `.sptrc` chunked on-disk trace format (DESIGN.md §12, §14).
//!
//! The legacy persistence format (`simprof-cli`'s JSON `TraceBundle`) is one
//! monolithic blob: writing it needs the whole [`ProfileTrace`] in memory
//! and reading it parses everything before the first unit is usable. This
//! crate replaces that with a *streaming* format:
//!
//! * [`TraceWriter`] is a [`UnitSink`]: attach it to a `SamplingManager`
//!   and units are framed to disk in fixed-size chunks while the engine is
//!   still running. Peak memory is one chunk, not one trace.
//! * [`TraceReader`] is a [`UnitStream`]: the analysis pipeline in
//!   `simprof-core` reads units chunk by chunk, once (twice only for
//!   histograms wider than its top-K budget), without ever materializing
//!   the trace.
//! * [`TraceFooter`] carries the summary a consumer wants *before* (or
//!   without) scanning units — unit count, method universe, totals, the
//!   method registry — and is reachable by seeking to the file's tail.
//! * [`salvage_bytes`] / [`TraceReader::open_salvage`] recover every
//!   intact chunk from a crashed or corrupted file (see [`salvage`]), and
//!   [`chaos`] provides the seeded fault injection that keeps the
//!   recovery path honest.
//!
//! ## Layout
//!
//! The writer produces one layout, v3:
//!
//! ```text
//! [MAGIC: 8 bytes "SPTRC\x00v3"]
//! [frame 'H'] header: TraceMeta as compact JSON
//! [frame 'U']*       chunks: Vec<SamplingUnit> as compact JSON
//! [frame 'F'] footer: TraceFooter as compact JSON
//! [footer stored length: u32 LE] [MAGIC]            ← 12-byte trailer
//!
//! frame = [kind: u8] [codec: u8] [stored length: u32 LE] [stored bytes] [CRC32: u32 LE]
//! ```
//!
//! The length counts *stored* (post-codec) bytes and the CRC covers
//! everything before it in the frame (see [`crc32`](mod@crc32) —
//! implemented in-crate, IEEE polynomial). Codec ids and the in-crate LZ
//! codec live in [`codec`]; a frame whose payload does not shrink is
//! stored raw (codec 0), so a compressed trace is never larger
//! frame-by-frame than its raw form. [`TraceWriter::create`] stores every
//! frame raw, [`TraceWriter::create_compressed`] applies a codec. The
//! trailer lets a reader locate the footer from the end of the file in
//! three reads, without decoding anything first. Frame lengths are capped
//! at [`MAX_FRAME_LEN`]: the cap bounds reader allocation against corrupt
//! or hostile length fields, and doubles as the cheap rejection test
//! during salvage resync.
//!
//! Files from earlier releases stay readable and salvageable. The three
//! layouts differ only in the magic and in which optional frame fields
//! they carry; one private table lists them, and the reader, the footer
//! seek and salvage all take frame geometry from it:
//!
//! | layout | magic          | codec byte | CRC32 | written by         |
//! |--------|----------------|------------|-------|--------------------|
//! | v1     | `SPTRC\0v1`    | no         | no    | the first releases |
//! | v2     | `SPTRC\0v2`    | no         | yes   | earlier releases   |
//! | v3     | `SPTRC\0v3`    | yes        | yes   | this build         |
//!
//! The layout version lives in two places on purpose: the magic's suffix
//! (an incompatible layout change bumps it) and [`TraceFooter::version`]
//! (compatible schema evolution inside frames; readers require it to match
//! the magic's layout and reject versions newer than [`FORMAT_VERSION`]).
//! Unknown frame kinds are an error — the format has no optional frames.
//!
//! ## Durability
//!
//! Frames are committed as whole-buffer writes at an explicit offset
//! (seek + write), so a failed write can be retried idempotently: the
//! writer re-seeks and rewrites the same frame. [`RetryPolicy`] bounds
//! those retries with doubling backoff; when a write fails persistently
//! the error is latched, the sink reports itself unhealthy, and the
//! profiler falls back to memory-only collection instead of panicking
//! (DESIGN.md §14.4).

use std::fs::File;
use std::io::{BufReader, Cursor, Read, Seek, SeekFrom, Write};

use serde::{Deserialize, Serialize};

use simprof_engine::MethodRegistry;
use simprof_profiler::sink::UnitSink;
use simprof_profiler::stream::UnitStream;
use simprof_profiler::trace::{ProfileTrace, SamplingUnit};

pub mod chaos;
pub mod codec;
pub mod crc32;
mod layout;
pub mod salvage;

pub use chaos::{ChaosCounts, ChaosPlan, ChaosReader, ChaosWriter};
pub use codec::Codec;
pub use salvage::{salvage_bytes, Salvage, SalvageReport};

use layout::Layout;

/// The magic every file this build writes starts (and its trailer ends)
/// with; the `v3` suffix is the layout version.
pub const MAGIC: &[u8; 8] = layout::CURRENT.magic;

/// The layout version this build writes, and the newest it reads. Each
/// footer carries its own file's layout version (1, 2, or 3).
pub const FORMAT_VERSION: u32 = layout::CURRENT.version;

/// Units buffered per on-disk chunk by default. The chunk is the unit of
/// durability as well as of reader memory: a crash (or torn tail) loses at
/// most the units buffered since the last committed chunk frame, and
/// salvage recovers whole intact chunks. 32 keeps that loss window small
/// for real profiles (a few hundred units) while still amortizing one JSON
/// parse across a chunk; `TraceWriter::with_chunk_units` tunes it per file.
pub const DEFAULT_CHUNK_UNITS: usize = 32;

/// Hard cap on a frame's payload length (64 MiB). A corrupt or hostile
/// length field is rejected *before* any allocation happens.
pub const MAX_FRAME_LEN: usize = 64 << 20;

pub(crate) const FRAME_HEADER: u8 = b'H';
pub(crate) const FRAME_UNITS: u8 = b'U';
pub(crate) const FRAME_FOOTER: u8 = b'F';

const SALVAGE_HINT: &str = "recover readable units with `simprof trace-info --salvage <file>` \
     or rewrite with `simprof trace-repair <in> <out>`";

/// Trace provenance and profiler geometry, written as the header frame so
/// readers know the unit size before the first unit arrives.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Workload label (`wc_sp`, …).
    pub label: String,
    /// Seed the profiled run used.
    pub seed: u64,
    /// Scale preset name ("paper" / "tiny").
    pub scale: String,
    /// Sampling-unit size in instructions.
    pub unit_instrs: u64,
    /// Call-stack snapshot period in instructions.
    pub snapshot_instrs: u64,
    /// The core whose executor thread was profiled.
    pub core: usize,
}

/// Trace summary written as the final frame, locatable from the file tail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceFooter {
    /// Schema version (see [`FORMAT_VERSION`]); matches the file's layout
    /// version.
    pub version: u32,
    /// Number of sampling units in the file.
    pub unit_count: u64,
    /// Highest method id in any unit's histogram, plus one.
    pub method_universe: usize,
    /// Total instructions across all units.
    pub total_instrs: u64,
    /// Total cycles across all units.
    pub total_cycles: u64,
    /// Units whose profiled executor crashed mid-unit.
    pub truncated_units: u64,
    /// Call-stack snapshots dropped across all units.
    pub dropped_snapshots: u64,
    /// Method names/classes for the trace's method ids.
    pub registry: MethodRegistry,
}

/// True when the file at `path` claims to be a chunked trace: it opens
/// with the `SPTRC\0` prefix every magic shares, whatever the version, or
/// is cut short inside it. This is the sniff the CLI uses to auto-detect
/// the input format; [`TraceReader`] then names any problem precisely
/// (truncation, unknown version).
pub fn is_chunked(path: &str) -> bool {
    let mut head = Vec::with_capacity(8);
    match File::open(path) {
        Ok(f) => f.take(8).read_to_end(&mut head).is_ok() && layout::claims(&head),
        Err(_) => false,
    }
}

fn io_err(path: &str, what: &str, e: std::io::Error) -> String {
    format!("{what} {path}: {e}")
}

/// Bounded retry-with-backoff for transient sink I/O errors.
///
/// Each failed frame commit is retried up to `max_retries` times, sleeping
/// `backoff_ms << attempt` between attempts (shift capped at 6). Retries
/// are safe because frames are whole-buffer writes at an explicit offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries per failed I/O operation before giving up (latching the
    /// error and degrading to memory-only collection upstream).
    pub max_retries: u32,
    /// Base backoff in milliseconds; doubles per attempt. Zero disables
    /// sleeping (useful under deterministic test chaos).
    pub backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_retries: 3, backoff_ms: 1 }
    }
}

impl RetryPolicy {
    /// No retries: every I/O error is immediately fatal to the sink.
    pub fn none() -> Self {
        Self { max_retries: 0, backoff_ms: 0 }
    }
}

/// A streaming [`UnitSink`] that frames sampling units to a `Write + Seek`
/// stream (a file by default) in chunks.
///
/// Units are buffered until a chunk fills, then written as one `'U'` frame;
/// footer statistics accumulate incrementally, so nothing grows with trace
/// length except the file. Because [`UnitSink::accept`] cannot fail, I/O
/// errors are *latched* after the [`RetryPolicy`] is exhausted: the writer
/// goes inert, [`UnitSink::healthy`] turns false, and the stored error
/// surfaces from [`TraceWriter::finish`].
#[derive(Debug)]
pub struct TraceWriter<W: Write + Seek = File> {
    out: W,
    target: String,
    pos: u64,
    scratch: Vec<u8>,
    buf: Vec<SamplingUnit>,
    chunk_units: usize,
    retry: RetryPolicy,
    retries: u64,
    degraded: bool,
    unit_count: u64,
    method_universe: usize,
    total_instrs: u64,
    total_cycles: u64,
    truncated_units: u64,
    dropped_snapshots: u64,
    error: Option<String>,
    finished: bool,
    encoder: codec::Encoder,
}

impl TraceWriter<File> {
    /// Creates the file at `path` and writes the magic + header frame,
    /// storing every frame raw.
    pub fn create(path: &str, meta: &TraceMeta) -> Result<Self, String> {
        Self::create_compressed(path, meta, Codec::Raw)
    }

    /// Creates the file at `path`, encoding every frame under `codec`
    /// (with per-frame raw fallback — see [`codec`]).
    pub fn create_compressed(path: &str, meta: &TraceMeta, codec: Codec) -> Result<Self, String> {
        let file = File::create(path).map_err(|e| io_err(path, "create", e))?;
        Self::from_writer(file, path, meta, codec)
    }
}

impl TraceWriter<Cursor<Vec<u8>>> {
    /// An in-memory raw writer (backed by a `Cursor<Vec<u8>>`), for tests
    /// and chaos pipelines that never touch disk.
    pub fn in_memory(meta: &TraceMeta) -> Result<Self, String> {
        Self::from_writer(Cursor::new(Vec::new()), "<memory>", meta, Codec::Raw)
    }

    /// Unwraps the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.out.into_inner()
    }
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Starts a trace on an arbitrary `Write + Seek` stream (assumed to be
    /// positioned at offset 0), encoding frames under `codec`. `target`
    /// names the stream in errors and events.
    pub fn from_writer(
        out: W,
        target: &str,
        meta: &TraceMeta,
        codec: Codec,
    ) -> Result<Self, String> {
        let mut this = Self {
            out,
            target: target.to_owned(),
            pos: 0,
            scratch: Vec::new(),
            buf: Vec::new(),
            chunk_units: DEFAULT_CHUNK_UNITS,
            retry: RetryPolicy::default(),
            retries: 0,
            degraded: false,
            unit_count: 0,
            method_universe: 0,
            total_instrs: 0,
            total_cycles: 0,
            truncated_units: 0,
            dropped_snapshots: 0,
            error: None,
            finished: false,
            encoder: codec::Encoder::new(codec),
        };
        this.scratch.extend_from_slice(MAGIC);
        this.commit_scratch()?;
        let header =
            serde_json::to_string(meta).map_err(|e| format!("encode trace header: {e}"))?;
        this.write_frame(FRAME_HEADER, header.as_bytes())?;
        Ok(this)
    }

    /// Overrides the chunk size (units per `'U'` frame); `n` is clamped to
    /// at least 1.
    pub fn with_chunk_units(mut self, n: usize) -> Self {
        self.chunk_units = n.max(1);
        self
    }

    /// Overrides the transient-error retry policy (default: 3 retries,
    /// 1 ms doubling backoff).
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Units pushed so far.
    pub fn unit_count(&self) -> u64 {
        self.unit_count
    }

    /// The frame codec this writer applies.
    pub fn codec(&self) -> Codec {
        self.encoder.codec()
    }

    /// The latched I/O error, if writing has already failed.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// Transient-error retries performed so far (successful or not).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// True once an I/O operation exhausted its retries.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Unwraps the underlying stream (e.g. to recover a chaos wrapper's
    /// fault counts, or an in-memory cursor's bytes).
    pub fn into_writer(self) -> W {
        self.out
    }

    /// Buffers one unit, flushing a chunk frame when the buffer fills.
    pub fn push(&mut self, unit: &SamplingUnit) {
        if self.error.is_some() || self.finished {
            return;
        }
        self.unit_count += 1;
        for &(m, _) in &unit.histogram {
            self.method_universe = self.method_universe.max(m.index() + 1);
        }
        self.total_instrs += unit.counters.instructions;
        self.total_cycles += unit.counters.cycles;
        self.truncated_units += u64::from(unit.truncated);
        self.dropped_snapshots += u64::from(unit.dropped_snapshots);
        self.buf.push(unit.clone());
        if self.buf.len() >= self.chunk_units {
            self.flush_chunk();
        }
    }

    fn flush_chunk(&mut self) {
        if self.buf.is_empty() || self.error.is_some() {
            return;
        }
        let payload = match serde_json::to_string(&self.buf) {
            Ok(p) => p,
            Err(e) => {
                self.error = Some(format!("encode trace chunk: {e}"));
                return;
            }
        };
        self.buf.clear();
        if let Err(e) = self.write_frame(FRAME_UNITS, payload.as_bytes()) {
            self.error = Some(e);
        }
    }

    /// Frames `payload` into the scratch buffer — `[kind] [codec]
    /// [stored length] [stored bytes] [CRC32]` — and commits it. Returns
    /// the frame's *stored* payload length — what the trailer records for
    /// the footer frame.
    fn write_frame(&mut self, kind: u8, payload: &[u8]) -> Result<u32, String> {
        if payload.len() > MAX_FRAME_LEN {
            return Err(format!(
                "write {}: frame over the {} MiB cap (shrink the chunk size)",
                self.target,
                MAX_FRAME_LEN >> 20
            ));
        }
        // The codec byte and length are patched in once `encode` has
        // appended the stored bytes. Its per-frame raw fallback guarantees
        // the stored form never exceeds the (already capped) raw form.
        const HEAD: usize = 6;
        self.scratch.clear();
        self.scratch.extend_from_slice(&[kind, 0, 0, 0, 0, 0]);
        let codec_id = self.encoder.encode(payload, &mut self.scratch);
        self.scratch[1] = codec_id;
        let len = (self.scratch.len() - HEAD) as u32;
        self.scratch[2..HEAD].copy_from_slice(&len.to_le_bytes());
        let crc = crc32::crc32(&self.scratch);
        self.scratch.extend_from_slice(&crc.to_le_bytes());
        self.commit_scratch()?;
        Ok(len)
    }

    /// Writes the scratch buffer at the current logical offset, retrying
    /// per policy. Seek-then-write makes the retry idempotent: a partial
    /// write is simply overwritten from the frame's start.
    fn commit_scratch(&mut self) -> Result<(), String> {
        let scratch = std::mem::take(&mut self.scratch);
        let pos = self.pos;
        let res = self.retrying("write", |out| {
            out.seek(SeekFrom::Start(pos))?;
            out.write_all(&scratch)
        });
        if res.is_ok() {
            self.pos += scratch.len() as u64;
        }
        self.scratch = scratch;
        res
    }

    fn retrying<T>(
        &mut self,
        what: &str,
        mut op: impl FnMut(&mut W) -> std::io::Result<T>,
    ) -> Result<T, String> {
        let mut attempt = 0u32;
        loop {
            match op(&mut self.out) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if attempt >= self.retry.max_retries {
                        self.degraded = true;
                        simprof_obs::counter_add("sink.degraded", 1);
                        simprof_obs::sink_degraded(
                            &self.target,
                            u64::from(attempt),
                            &e.to_string(),
                        );
                        return Err(format!(
                            "{what} {}: {e} (gave up after {attempt} retries)",
                            self.target
                        ));
                    }
                    attempt += 1;
                    self.retries += 1;
                    simprof_obs::counter_add("sink.retries", 1);
                    simprof_obs::sink_retry(&self.target, u64::from(attempt), &e.to_string());
                    if self.retry.backoff_ms > 0 {
                        let shift = (attempt - 1).min(6);
                        std::thread::sleep(std::time::Duration::from_millis(
                            self.retry.backoff_ms << shift,
                        ));
                    }
                }
            }
        }
    }

    /// Flushes the tail chunk, writes the footer frame + trailer, and syncs
    /// the stream. Returns the footer it wrote. The registry arrives here —
    /// not at `create` — because methods are interned while the profiled
    /// job runs.
    ///
    /// Errors if writing already failed ([latched](TraceWriter::error)) or
    /// `finish` was already called.
    pub fn finish(&mut self, registry: &MethodRegistry) -> Result<TraceFooter, String> {
        if self.finished {
            return Err(format!("trace writer for {} already finished", self.target));
        }
        self.flush_chunk();
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        let footer = TraceFooter {
            version: FORMAT_VERSION,
            unit_count: self.unit_count,
            method_universe: self.method_universe,
            total_instrs: self.total_instrs,
            total_cycles: self.total_cycles,
            truncated_units: self.truncated_units,
            dropped_snapshots: self.dropped_snapshots,
            registry: registry.clone(),
        };
        let payload =
            serde_json::to_string(&footer).map_err(|e| format!("encode trace footer: {e}"))?;
        // The trailer records the footer's *stored* length so the tail
        // seek stays O(1) even when the footer frame is compressed.
        let stored_len = self.write_frame(FRAME_FOOTER, payload.as_bytes())?;
        self.scratch.clear();
        self.scratch.extend_from_slice(&stored_len.to_le_bytes());
        self.scratch.extend_from_slice(MAGIC);
        self.commit_scratch()?;
        self.retrying("flush", |out| out.flush())?;
        self.finished = true;
        Ok(footer)
    }
}

impl<W: Write + Seek + std::fmt::Debug> UnitSink for TraceWriter<W> {
    fn accept(&mut self, unit: &SamplingUnit) {
        self.push(unit);
    }

    fn finish(&mut self) {
        // Sink-path finish has no registry; only the buffered chunk is
        // flushed here. The owner still calls `TraceWriter::finish` with
        // the registry to seal the file.
        self.flush_chunk();
    }

    fn healthy(&self) -> bool {
        self.error.is_none()
    }
}

/// A streaming [`UnitStream`] over a chunked trace: holds one decoded
/// chunk at a time and rewinds by seeking back to the first unit frame.
/// Reads every layout (v1–v3), sniffed from the magic.
#[derive(Debug)]
pub struct TraceReader<R: Read + Seek = BufReader<File>> {
    file: R,
    path: String,
    meta: TraceMeta,
    layout: Layout,
    data_start: u64,
    frame: FrameBuf,
    chunk: Vec<SamplingUnit>,
    pos: usize,
    done: bool,
    /// Bitmask of codec ids observed in decoded frames (bit n = codec n).
    codecs_seen: u8,
    /// Stored (on-disk) payload bytes across frames decoded so far.
    stored_payload_bytes: u64,
    /// Decoded payload bytes across the same frames.
    raw_payload_bytes: u64,
}

impl TraceReader<BufReader<File>> {
    /// Opens `path`, validating the magic and reading the header frame.
    pub fn open(path: &str) -> Result<Self, String> {
        let file = File::open(path).map_err(|e| io_err(path, "open", e))?;
        Self::from_reader(BufReader::new(file), path)
    }

    /// Salvages `path` instead of opening it strictly: recovers every
    /// intact chunk from a truncated or corrupted trace. See
    /// [`salvage_bytes`] for the contract.
    pub fn open_salvage(path: &str) -> Result<Salvage, String> {
        let data = std::fs::read(path).map_err(|e| io_err(path, "read", e))?;
        salvage::salvage_bytes(&data, path)
    }
}

impl<R: Read + Seek> TraceReader<R> {
    /// Opens a trace on an arbitrary `Read + Seek` stream (positioned at
    /// offset 0). `path` names the stream in errors.
    pub fn from_reader(mut file: R, path: &str) -> Result<Self, String> {
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                format!("{path}: truncated trace (shorter than the 8-byte magic); {SALVAGE_HINT}")
            } else {
                io_err(path, "read", e)
            }
        })?;
        let layout = Layout::sniff(&magic).ok_or_else(|| {
            format!(
                "{path}: not a chunked simprof trace (bad magic {magic:?}; this build reads \
                 layouts v1 to v{FORMAT_VERSION})"
            )
        })?;
        let mut frame = FrameBuf::default();
        let head = frame.read(&mut file, path, layout)?;
        if head.kind != FRAME_HEADER {
            return Err(format!("{path}: expected header frame, found {:?}", head.kind as char));
        }
        let meta: TraceMeta = parse_payload(path, "header", head.payload)?;
        let (codecs_seen, stored_payload_bytes, raw_payload_bytes) =
            (1 << head.codec_id.min(7), head.stored_len, head.payload.len() as u64);
        let data_start = file.stream_position().map_err(|e| io_err(path, "seek", e))?;
        Ok(Self {
            file,
            path: path.to_owned(),
            meta,
            layout,
            data_start,
            frame,
            chunk: Vec::new(),
            pos: 0,
            done: false,
            codecs_seen,
            stored_payload_bytes,
            raw_payload_bytes,
        })
    }

    /// The header metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// The layout version sniffed from the magic (1, 2, or 3).
    pub fn layout_version(&self) -> u32 {
        self.layout.version
    }

    /// Names of the frame codecs observed so far (v1/v2 frames count as
    /// `raw`). Grows as frames are decoded — read the footer and stream
    /// the units first for full coverage.
    pub fn codecs_seen(&self) -> Vec<&'static str> {
        (0u8..8)
            .filter(|&id| self.codecs_seen & (1 << id) != 0)
            .filter_map(codec::codec_name)
            .collect()
    }

    /// `(stored, raw)` payload byte totals across the frames decoded so
    /// far — the compression accounting. Like [`codecs_seen`], the
    /// totals grow as frames are decoded: read the footer and stream the
    /// units first for full coverage. For v1/v2 files stored equals raw.
    ///
    /// [`codecs_seen`]: TraceReader::codecs_seen
    pub fn payload_bytes(&self) -> (u64, u64) {
        (self.stored_payload_bytes, self.raw_payload_bytes)
    }

    /// Reads the footer via the 12-byte trailer (seek from end), leaving
    /// the streaming position untouched.
    pub fn footer(&mut self) -> Result<TraceFooter, String> {
        let saved = self.file.stream_position().map_err(|e| io_err(&self.path, "seek", e))?;
        let result = self.read_footer_at_tail();
        self.file.seek(SeekFrom::Start(saved)).map_err(|e| io_err(&self.path, "seek", e))?;
        result
    }

    fn read_footer_at_tail(&mut self) -> Result<TraceFooter, String> {
        let path = self.path.clone();
        let file_len = self.file.seek(SeekFrom::End(0)).map_err(|e| io_err(&path, "seek", e))?;
        if file_len < 12 {
            return Err(format!(
                "{path}: truncated trace ({file_len} bytes; no room for the 12-byte trailer); \
                 {SALVAGE_HINT}"
            ));
        }
        self.file.seek(SeekFrom::End(-12)).map_err(|e| io_err(&path, "seek", e))?;
        let mut trailer = [0u8; 12];
        self.file.read_exact(&mut trailer).map_err(|e| io_err(&path, "read", e))?;
        if &trailer[4..12] != self.layout.magic {
            return Err(format!(
                "{path}: missing footer trailer (crash before finish, or truncation?); \
                 {SALVAGE_HINT}"
            ));
        }
        // The trailer's length is the footer frame's *stored* payload
        // length, so the seek arithmetic is exact even for compressed
        // footers: [kind][codec?][len][stored][crc?].
        let len = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]) as u64;
        let frame_len = (self.layout.head_len() + self.layout.crc_len()) as u64 + len;
        if len > MAX_FRAME_LEN as u64 || frame_len + 12 > file_len {
            return Err(format!(
                "{path}: corrupt trailer (footer length {len} does not fit the {file_len}-byte \
                 file); {SALVAGE_HINT}"
            ));
        }
        self.file
            .seek(SeekFrom::End(-12 - frame_len as i64))
            .map_err(|e| io_err(&path, "seek", e))?;
        let frame = self.frame.read(&mut self.file, &path, self.layout)?;
        self.codecs_seen |= 1 << frame.codec_id.min(7);
        self.stored_payload_bytes += frame.stored_len;
        self.raw_payload_bytes += frame.payload.len() as u64;
        if frame.kind != FRAME_FOOTER {
            return Err(format!(
                "{path}: corrupt footer frame (kind {:?}); {SALVAGE_HINT}",
                frame.kind as char
            ));
        }
        let footer: TraceFooter = parse_payload(&path, "footer", frame.payload)?;
        if footer.version > FORMAT_VERSION {
            return Err(format!(
                "{path}: trace schema version {} was written by a newer simprof (this build \
                 reads up to {FORMAT_VERSION})",
                footer.version
            ));
        }
        if footer.version != self.layout.version {
            return Err(format!(
                "{path}: footer schema version {} does not match the file's v{} layout; \
                 {SALVAGE_HINT}",
                footer.version, self.layout.version
            ));
        }
        Ok(footer)
    }

    /// Restarts streaming at the first unit.
    pub fn rewind(&mut self) -> Result<(), String> {
        self.file
            .seek(SeekFrom::Start(self.data_start))
            .map_err(|e| io_err(&self.path, "seek", e))?;
        self.chunk.clear();
        self.pos = 0;
        self.done = false;
        Ok(())
    }

    /// Yields the next unit, decoding the next chunk frame when the current
    /// one is exhausted. Same operation as the [`UnitStream`] impl, callable
    /// without the trait in scope.
    pub fn next_unit(&mut self) -> Result<Option<&SamplingUnit>, String> {
        if self.pos >= self.chunk.len() && !self.load_chunk()? {
            return Ok(None);
        }
        let unit = &self.chunk[self.pos];
        self.pos += 1;
        Ok(Some(unit))
    }

    /// Loads the next non-empty unit chunk; returns `false` at the footer.
    fn load_chunk(&mut self) -> Result<bool, String> {
        loop {
            if self.done {
                return Ok(false);
            }
            let frame = self.frame.read(&mut self.file, &self.path, self.layout)?;
            self.codecs_seen |= 1 << frame.codec_id.min(7);
            self.stored_payload_bytes += frame.stored_len;
            self.raw_payload_bytes += frame.payload.len() as u64;
            match frame.kind {
                FRAME_UNITS => {
                    // Parsed over the previous chunk, whose units (and
                    // their vectors) are reused; a failed parse leaves it
                    // empty, so no half-parsed unit is ever yielded.
                    let _span = simprof_obs::span!("trace.parse");
                    self.pos = 0;
                    let parsed =
                        parse_payload_into(&self.path, "chunk", frame.payload, &mut self.chunk);
                    if let Err(e) = parsed {
                        self.chunk.clear();
                        return Err(e);
                    }
                    if self.chunk.is_empty() {
                        continue;
                    }
                    return Ok(true);
                }
                FRAME_FOOTER => {
                    // The stream is read: its frame buffers are not needed
                    // until a rewind reads it again.
                    self.done = true;
                    self.frame = FrameBuf::default();
                    return Ok(false);
                }
                other => {
                    return Err(format!(
                        "{}: unknown frame kind {:?} mid-stream",
                        self.path, other as char
                    ));
                }
            }
        }
    }
}

impl<R: Read + Seek> UnitStream for TraceReader<R> {
    fn unit_instrs(&self) -> u64 {
        self.meta.unit_instrs
    }

    fn snapshot_instrs(&self) -> u64 {
        self.meta.snapshot_instrs
    }

    fn core(&self) -> usize {
        self.meta.core
    }

    fn rewind(&mut self) -> Result<(), String> {
        TraceReader::rewind(self)
    }

    fn next_unit(&mut self) -> Result<Option<&SamplingUnit>, String> {
        TraceReader::next_unit(self)
    }
}

/// Convenience for whole-trace consumers: materializes the file into a
/// [`ProfileTrace`] (one chunk in flight at a time) and returns the footer.
pub fn read_trace(path: &str) -> Result<(ProfileTrace, TraceFooter), String> {
    let mut reader = TraceReader::open(path)?;
    let footer = reader.footer()?;
    let mut units = Vec::new();
    while let Some(unit) = reader.next_unit()? {
        units.push(unit.clone());
    }
    let meta = reader.meta();
    let trace = ProfileTrace {
        unit_instrs: meta.unit_instrs,
        snapshot_instrs: meta.snapshot_instrs,
        core: meta.core,
        units,
    };
    Ok((trace, footer))
}

/// A reader's frame buffers, reused from frame to frame: the stored bytes
/// as read, and the inflated payload of an LZ frame. Each holds at most one
/// frame, so neither grows past [`MAX_FRAME_LEN`].
#[derive(Debug, Default)]
struct FrameBuf {
    stored: Vec<u8>,
    inflated: Vec<u8>,
}

/// One frame as [`FrameBuf::read`] decoded it.
struct Frame<'a> {
    kind: u8,
    /// [`codec::CODEC_RAW`] for layouts without a codec byte.
    codec_id: u8,
    /// What the frame's payload occupies on disk before decoding, so
    /// readers can account compression without re-encoding.
    stored_len: u64,
    /// The decoded payload: the stored bytes themselves for a raw frame.
    payload: &'a [u8],
}

impl FrameBuf {
    /// Reads and decodes the next frame. Validates the length against
    /// [`MAX_FRAME_LEN`] *before* allocating, verifies the frame's CRC32
    /// (when the layout has one) over the *stored* bytes, and only then
    /// decodes (span `trace.decompress`) — so a corrupt frame fails the
    /// checksum, not the decompressor.
    fn read<R: Read>(
        &mut self,
        file: &mut R,
        path: &str,
        layout: Layout,
    ) -> Result<Frame<'_>, String> {
        let mut head_buf = [0u8; 6];
        let head = &mut head_buf[..layout.head_len()];
        file.read_exact(head).map_err(|e| io_err(path, "read", e))?;
        let (kind, codec_id, len) = layout.parse_head(head);
        if len > MAX_FRAME_LEN {
            return Err(format!(
                "{path}: frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap (corrupt or \
                 hostile trace); {SALVAGE_HINT}"
            ));
        }
        // `read_exact` overwrites every byte kept, so only growth is zeroed.
        self.stored.resize(len, 0);
        file.read_exact(&mut self.stored).map_err(|e| io_err(path, "read", e))?;
        if layout.has_crc {
            let mut crc_bytes = [0u8; 4];
            file.read_exact(&mut crc_bytes).map_err(|e| io_err(path, "read", e))?;
            let expected = u32::from_le_bytes(crc_bytes);
            let mut hasher = crc32::Hasher::new();
            hasher.update(head);
            hasher.update(&self.stored);
            let actual = hasher.finalize();
            if actual != expected {
                return Err(format!(
                    "{path}: frame checksum mismatch (stored {expected:#010x}, computed \
                     {actual:#010x}); {SALVAGE_HINT}"
                ));
            }
        }
        let _span = simprof_obs::span!("trace.decompress");
        let payload = codec::decode(codec_id, &self.stored, MAX_FRAME_LEN, &mut self.inflated)
            .map_err(|e| format!("{path}: decode frame: {e}; {SALVAGE_HINT}"))?;
        Ok(Frame { kind, codec_id, stored_len: len as u64, payload })
    }
}

pub(crate) fn parse_payload<T: Deserialize>(
    path: &str,
    what: &str,
    payload: &[u8],
) -> Result<T, String> {
    serde_json::from_str(payload_text(path, what, payload)?)
        .map_err(|e| format!("{path}: parse {what} frame: {e}"))
}

/// [`parse_payload`] into `into`, reusing its allocations; `into` is
/// unspecified after an error.
fn parse_payload_into<T: Deserialize>(
    path: &str,
    what: &str,
    payload: &[u8],
    into: &mut T,
) -> Result<(), String> {
    serde_json::from_str_into(payload_text(path, what, payload)?, into)
        .map_err(|e| format!("{path}: parse {what} frame: {e}"))
}

fn payload_text<'a>(path: &str, what: &str, payload: &'a [u8]) -> Result<&'a str, String> {
    std::str::from_utf8(payload).map_err(|e| format!("{path}: {what} frame is not UTF-8: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simprof_engine::methods::OpClass;
    use simprof_engine::MethodId;
    use simprof_sim::Counters;

    fn unit(id: u64) -> SamplingUnit {
        SamplingUnit {
            id,
            histogram: vec![(MethodId((id % 5) as u32), 4), (MethodId(7), 2)],
            snapshots: 6,
            counters: Counters {
                instructions: 1000 + id,
                cycles: 1500 + 3 * id,
                ..Default::default()
            },
            slices: vec![(500, 700), (500 + id, 800)],
            truncated: id % 3 == 0,
            dropped_snapshots: (id % 4) as u32,
        }
    }

    fn meta() -> TraceMeta {
        TraceMeta {
            label: "wc_sp".into(),
            seed: 42,
            scale: "tiny".into(),
            unit_instrs: 1000,
            snapshot_instrs: 100,
            core: 0,
        }
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir().join(name).to_str().unwrap().to_owned()
    }

    /// Seals `n` units into in-memory trace bytes under `codec`.
    fn memory_trace(n: u64, chunk: usize, codec: Codec) -> Vec<u8> {
        let mut w = TraceWriter::from_writer(Cursor::new(Vec::new()), "<memory>", &meta(), codec)
            .unwrap()
            .with_chunk_units(chunk);
        for id in 0..n {
            w.push(&unit(id));
        }
        w.finish(&MethodRegistry::new()).unwrap();
        w.into_bytes()
    }

    #[test]
    fn deeply_nested_chunk_with_a_valid_crc_is_an_error_not_a_crash() {
        // A hostile chunk whose checksum is recomputed passes the CRC; the
        // JSON parser's depth cap must stop it, under both codecs. Bare
        // brackets fail at the second one (a unit is an object); under an
        // unknown key they reach the cap.
        let bare = "[".repeat(100_000);
        let in_unit = format!("[{{\"zz\":{bare}");
        for codec in [Codec::Raw, Codec::Lz] {
            for (hostile, too_deep) in [(&bare, false), (&in_unit, true)] {
                let mut w =
                    TraceWriter::from_writer(Cursor::new(Vec::new()), "<memory>", &meta(), codec)
                        .unwrap();
                w.write_frame(FRAME_UNITS, hostile.as_bytes()).unwrap();
                w.finish(&MethodRegistry::new()).unwrap();
                let mut r =
                    TraceReader::from_reader(Cursor::new(w.into_bytes()), "hostile").unwrap();
                let err = r.next_unit().unwrap_err();
                assert_eq!(err.contains("nesting deeper than"), too_deep, "{err}");
            }
        }
    }

    #[test]
    fn invalid_utf8_chunk_with_a_valid_crc_is_an_error_not_a_crash() {
        for codec in [Codec::Raw, Codec::Lz] {
            let mut w =
                TraceWriter::from_writer(Cursor::new(Vec::new()), "<memory>", &meta(), codec)
                    .unwrap();
            w.write_frame(FRAME_UNITS, b"[{\"id\":1,\"label\":\"\xff\xfe\"}]").unwrap();
            w.finish(&MethodRegistry::new()).unwrap();
            let mut r = TraceReader::from_reader(Cursor::new(w.into_bytes()), "hostile").unwrap();
            let err = r.next_unit().unwrap_err();
            assert!(err.contains("not UTF-8"), "{err}");
        }
    }

    #[test]
    fn writes_and_streams_back_across_chunk_boundaries() {
        let path = tmp("simprof_trace_chunks.sptrc");
        let mut reg = MethodRegistry::new();
        reg.intern("Mapper.map", OpClass::Map);
        let mut w = TraceWriter::create(&path, &meta()).unwrap().with_chunk_units(4);
        for id in 0..11 {
            w.push(&unit(id));
        }
        let footer = w.finish(&reg).unwrap();
        assert_eq!(footer.unit_count, 11);
        assert_eq!(footer.method_universe, 8);
        assert_eq!(footer.total_instrs, (0..11).map(|i| 1000 + i).sum::<u64>());
        assert_eq!(footer.truncated_units, 4);
        assert_eq!(footer.registry.len(), 1);

        assert!(is_chunked(&path));
        let mut r = TraceReader::open(&path).unwrap();
        assert_eq!(r.meta().label, "wc_sp");
        assert_eq!(r.layout_version(), FORMAT_VERSION);
        assert_eq!(r.footer().unwrap(), footer);
        let mut ids = Vec::new();
        while let Some(u) = r.next_unit().unwrap() {
            ids.push(u.id);
        }
        assert_eq!(ids, (0..11).collect::<Vec<u64>>());
        // Footer read mid-stream must not disturb the cursor.
        r.rewind().unwrap();
        let _ = r.next_unit().unwrap();
        let _ = r.footer().unwrap();
        assert_eq!(r.next_unit().unwrap().unwrap().id, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn read_trace_materializes_bit_identically() {
        let path = tmp("simprof_trace_materialize.sptrc");
        let expected: Vec<SamplingUnit> = (0..9).map(unit).collect();
        let mut w = TraceWriter::create(&path, &meta()).unwrap().with_chunk_units(2);
        for u in &expected {
            w.push(u);
        }
        w.finish(&MethodRegistry::new()).unwrap();
        let (trace, footer) = read_trace(&path).unwrap();
        assert_eq!(trace.units, expected);
        assert_eq!(trace.unit_instrs, 1000);
        assert_eq!(footer.unit_count, 9);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let path = tmp("simprof_trace_empty.sptrc");
        let mut w = TraceWriter::create(&path, &meta()).unwrap();
        let footer = w.finish(&MethodRegistry::new()).unwrap();
        assert_eq!(footer.unit_count, 0);
        assert_eq!(footer.version, FORMAT_VERSION);
        let (trace, _) = read_trace(&path).unwrap();
        assert!(trace.units.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn double_finish_rejected() {
        let path = tmp("simprof_trace_double_finish.sptrc");
        let mut w = TraceWriter::create(&path, &meta()).unwrap();
        w.finish(&MethodRegistry::new()).unwrap();
        assert!(w.finish(&MethodRegistry::new()).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_trace_files_rejected() {
        let path = tmp("simprof_trace_not_a_trace.json");
        std::fs::write(&path, "{\"version\":1}").unwrap();
        assert!(!is_chunked(&path));
        let err = TraceReader::open(&path).unwrap_err();
        assert!(err.contains("bad magic"), "{err}");
        assert!(!is_chunked("/nonexistent/simprof.sptrc"));
        // An unknown layout version is still claimed as a trace, so the
        // reader (not a JSON parser) reports it.
        std::fs::write(&path, b"SPTRC\0v9 and more").unwrap();
        assert!(is_chunked(&path));
        let err = TraceReader::open(&path).unwrap_err();
        assert!(err.contains("bad magic"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unfinished_file_has_no_footer() {
        let path = tmp("simprof_trace_unfinished.sptrc");
        let mut w = TraceWriter::create(&path, &meta()).unwrap().with_chunk_units(1);
        w.push(&unit(0));
        // Drop without finish: units are on disk, the trailer is not.
        drop(w);
        let mut r = TraceReader::open(&path).unwrap();
        let err = r.footer().unwrap_err();
        assert!(err.contains("trace-repair"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn v3_lz_trace_roundtrips_and_shrinks() {
        let raw = memory_trace(64, 8, Codec::Raw);
        let lz = memory_trace(64, 8, Codec::Lz);
        assert_eq!(&raw[..8], b"SPTRC\0v3");
        assert_eq!(&lz[..8], b"SPTRC\0v3");
        assert!(
            lz.len() < raw.len() * 3 / 4,
            "chunked JSON should compress well: raw {} vs lz {}",
            raw.len(),
            lz.len()
        );
        for bytes in [raw, lz] {
            let mut r = TraceReader::from_reader(Cursor::new(bytes), "<memory>").unwrap();
            assert_eq!(r.layout_version(), 3);
            let footer = r.footer().unwrap();
            assert_eq!(footer.version, 3);
            assert_eq!(footer.unit_count, 64);
            let mut ids = Vec::new();
            while let Some(u) = r.next_unit().unwrap() {
                ids.push(u.id);
            }
            assert_eq!(ids, (0..64).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn v3_writes_are_deterministic() {
        assert_eq!(memory_trace(32, 4, Codec::Lz), memory_trace(32, 4, Codec::Lz));
    }

    #[test]
    fn v3_reader_reports_codecs_seen() {
        let bytes = memory_trace(16, 4, Codec::Lz);
        let mut r = TraceReader::from_reader(Cursor::new(bytes), "<memory>").unwrap();
        let _ = r.footer().unwrap();
        while r.next_unit().unwrap().is_some() {}
        // Chunks compress (lz); the tiny header typically stores raw.
        assert!(r.codecs_seen().contains(&"lz"), "codecs: {:?}", r.codecs_seen());

        let bytes = include_bytes!("../tests/data/v2.sptrc");
        let mut r = TraceReader::from_reader(Cursor::new(bytes), "<memory>").unwrap();
        while r.next_unit().unwrap().is_some() {}
        assert_eq!(r.codecs_seen(), vec!["raw"], "v2 frames count as raw");
    }

    #[test]
    fn v3_file_roundtrips_through_create_compressed() {
        let path = tmp("simprof_trace_v3_file.sptrc");
        let mut reg = MethodRegistry::new();
        reg.intern("Mapper.map", OpClass::Map);
        let mut w =
            TraceWriter::create_compressed(&path, &meta(), Codec::Lz).unwrap().with_chunk_units(5);
        assert_eq!(w.codec(), Codec::Lz);
        for id in 0..23 {
            w.push(&unit(id));
        }
        let footer = w.finish(&reg).unwrap();
        assert!(is_chunked(&path));
        let (trace, read_footer) = read_trace(&path).unwrap();
        assert_eq!(read_footer, footer);
        assert_eq!(trace.units, (0..23).map(unit).collect::<Vec<_>>());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn v3_flipped_stored_byte_fails_the_checksum_not_the_decompressor() {
        let mut bytes = memory_trace(32, 8, Codec::Lz);
        let target = bytes.len() / 2;
        bytes[target] ^= 0x10;
        let mut r = TraceReader::from_reader(Cursor::new(bytes), "<memory>").unwrap();
        let mut err = None;
        loop {
            match r.next_unit() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        let err = err.expect("corrupted compressed frame must error");
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn in_memory_writer_roundtrips_through_from_reader() {
        let bytes = memory_trace(9, 4, Codec::Raw);
        assert_eq!(&bytes[..8], MAGIC);
        let mut r = TraceReader::from_reader(Cursor::new(bytes), "<memory>").unwrap();
        let footer = r.footer().unwrap();
        assert_eq!(footer.unit_count, 9);
        let mut ids = Vec::new();
        while let Some(u) = r.next_unit().unwrap() {
            ids.push(u.id);
        }
        assert_eq!(ids, (0..9).collect::<Vec<u64>>());
    }

    #[test]
    fn hostile_frame_length_is_capped_before_allocation() {
        // Magic + a frame claiming a ~4 GiB payload: must error on the
        // cap, not attempt the allocation.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&[FRAME_HEADER, codec::CODEC_RAW]);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = TraceReader::from_reader(Cursor::new(bytes), "<memory>").unwrap_err();
        assert!(err.contains("exceeds the"), "{err}");
        assert!(err.contains("cap"), "{err}");
    }

    #[test]
    fn flipped_payload_byte_fails_the_frame_checksum() {
        let mut bytes = memory_trace(6, 2, Codec::Raw);
        // Flip one bit inside the first unit chunk's JSON payload (the
        // header frame ends well before 120 bytes on this tiny meta).
        let target = bytes.len() / 2;
        bytes[target] ^= 0x01;
        let mut r = TraceReader::from_reader(Cursor::new(bytes), "<memory>").unwrap();
        let mut err = None;
        loop {
            match r.next_unit() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        let err = err.expect("corruption must surface as an error, not silent data");
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn short_files_get_truncation_errors_not_seek_errors() {
        let path = tmp("simprof_trace_short.sptrc");
        std::fs::write(&path, &MAGIC[..5]).unwrap();
        let err = TraceReader::open(&path).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        assert!(err.contains("--salvage"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn oversized_trailer_len_is_a_clear_corruption_error() {
        let path = tmp("simprof_trace_bad_trailer.sptrc");
        let mut bytes = memory_trace(3, 2, Codec::Raw);
        // Patch the trailer's footer-length field to exceed the file size.
        let n = bytes.len();
        bytes[n - 12..n - 8].copy_from_slice(&0x00FF_FFFFu32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mut r = TraceReader::open(&path).unwrap();
        let err = r.footer().unwrap_err();
        assert!(err.contains("corrupt trailer"), "{err}");
        assert!(err.contains("--salvage"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn transient_write_errors_are_retried_to_success() {
        // A 25 % write-error rate, then a storm of 15 % write errors, 20 %
        // short writes and 15 % flush errors. A short write followed by an
        // error leaves a partial frame behind; the retry must overwrite it
        // from the frame's start, so the surviving bytes are exactly the
        // fault-free bytes. The storm's seed makes the one flush `finish`
        // issues fail too.
        let errors = ChaosPlan { write_error_ppm: 250_000, ..ChaosPlan::none(11) };
        let storm = ChaosPlan {
            write_error_ppm: 150_000,
            short_write_ppm: 200_000,
            flush_error_ppm: 150_000,
            ..ChaosPlan::none(12)
        };
        for (plan, max_retries, units) in [(errors, 8, 10), (storm, 6, 60)] {
            let mut clean = TraceWriter::in_memory(&meta()).unwrap().with_chunk_units(2);
            for id in 0..units {
                clean.push(&unit(id));
            }
            clean.finish(&MethodRegistry::new()).unwrap();
            let clean = clean.into_bytes();

            let chaos = ChaosWriter::new(Cursor::new(Vec::new()), plan);
            let mut w = TraceWriter::from_writer(chaos, "<chaos>", &meta(), Codec::Raw)
                .unwrap()
                .with_chunk_units(2)
                .with_retry(RetryPolicy { max_retries, backoff_ms: 0 });
            for id in 0..units {
                w.push(&unit(id));
            }
            let footer = w.finish(&MethodRegistry::new()).unwrap();
            assert_eq!(footer.unit_count, units);
            assert!(w.retries() > 0, "chaos at {plan:?} should have forced retries");
            assert!(!w.degraded());
            assert!(w.error().is_none());
            let chaos = w.into_writer();
            let counts = chaos.counts();
            if plan == storm {
                assert!(counts.short_writes > 0 && counts.flush_errors > 0, "{counts:?}");
            }
            let bytes = chaos.into_inner().into_inner();
            assert!(bytes == clean, "retried write diverged from the fault-free bytes");
            // The surviving bytes are a perfectly valid trace.
            let mut r = TraceReader::from_reader(Cursor::new(bytes), "<chaos>").unwrap();
            assert_eq!(r.footer().unwrap().unit_count, units);
            let mut n = 0;
            while r.next_unit().unwrap().is_some() {
                n += 1;
            }
            assert_eq!(n, units);
        }
    }

    #[test]
    fn persistent_write_errors_latch_and_degrade() {
        let plan = ChaosPlan { write_error_ppm: 1_000_000, ..ChaosPlan::none(5) };
        let chaos = ChaosWriter::new(Cursor::new(Vec::new()), plan);
        let err = TraceWriter::from_writer(chaos, "<chaos>", &meta(), Codec::Raw)
            .expect_err("always-failing writer cannot even write the magic");
        assert!(err.contains("gave up after"), "{err}");
    }

    #[test]
    fn sink_path_latches_instead_of_panicking() {
        let plan = ChaosPlan { write_error_ppm: 1_000_000, ..ChaosPlan::none(5) };
        // Let construction succeed (no faults), then make every later
        // write fail: push must latch, not panic, and finish must report.
        let mut w = TraceWriter::in_memory(&meta())
            .unwrap()
            .with_chunk_units(1)
            .with_retry(RetryPolicy::none());
        // Swap in a chaos stream by rebuilding around the same bytes.
        let bytes = std::mem::replace(&mut w.out, Cursor::new(Vec::new())).into_inner();
        let pos = w.pos;
        let mut chaos = ChaosWriter::new(Cursor::new(bytes), plan);
        chaos.seek(SeekFrom::Start(pos)).unwrap();
        let mut w2 = TraceWriter {
            out: chaos,
            target: w.target.clone(),
            pos,
            scratch: Vec::new(),
            buf: Vec::new(),
            chunk_units: 1,
            retry: RetryPolicy::none(),
            retries: 0,
            degraded: false,
            unit_count: 0,
            method_universe: 0,
            total_instrs: 0,
            total_cycles: 0,
            truncated_units: 0,
            dropped_snapshots: 0,
            error: None,
            finished: false,
            encoder: codec::Encoder::new(Codec::Raw),
        };
        w2.push(&unit(0));
        assert!(w2.error().is_some());
        assert!(w2.degraded());
        assert!(!UnitSink::healthy(&w2));
        // Further pushes are inert, and finish surfaces the latched error.
        w2.push(&unit(1));
        assert_eq!(w2.unit_count(), 1);
        let err = w2.finish(&MethodRegistry::new()).unwrap_err();
        assert!(err.contains("gave up after"), "{err}");
    }
}
