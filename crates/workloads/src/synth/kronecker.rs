//! Kronecker graph synthesis (Leskovec et al., JMLR 2010 — the paper's
//! reference \[20\]) and the Table II input catalogue.
//!
//! A stochastic Kronecker graph is defined by a 2×2 initiator matrix
//! `[[a, b], [c, d]]` Kronecker-powered `scale` times; each edge is placed
//! by descending `scale` levels, choosing a quadrant at each level with
//! probability proportional to the initiator entries. Different initiators
//! produce different degree skew and community structure — which is exactly
//! how the paper synthesizes analogues of the SNAP graphs (Google, Facebook,
//! …, Road) for the input-sensitivity study.

use rand::RngExt;
use serde::{Deserialize, Serialize};

use simprof_stats::{seeded, split_seed};

/// The Table II inputs. `Google` is the training input; the rest are
/// reference inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GraphInput {
    /// Web graph (training input).
    Google,
    /// Social network.
    Facebook,
    /// Online communities.
    Flickr,
    /// Online encyclopedia links.
    Wikipedia,
    /// Computer-science bibliography (collaboration).
    Dblp,
    /// Web graph.
    Stanford,
    /// Product co-purchasing network.
    Amazon,
    /// Road network (near-uniform degrees).
    Road,
}

impl GraphInput {
    /// All inputs, training input first (Table II order).
    pub const ALL: [GraphInput; 8] = [
        GraphInput::Google,
        GraphInput::Facebook,
        GraphInput::Flickr,
        GraphInput::Wikipedia,
        GraphInput::Dblp,
        GraphInput::Stanford,
        GraphInput::Amazon,
        GraphInput::Road,
    ];

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            GraphInput::Google => "Google",
            GraphInput::Facebook => "Facebook",
            GraphInput::Flickr => "Flickr",
            GraphInput::Wikipedia => "Wikipedia",
            GraphInput::Dblp => "DBLP",
            GraphInput::Stanford => "Stanford",
            GraphInput::Amazon => "Amazon",
            GraphInput::Road => "Road",
        }
    }

    /// Kronecker initiator `[a, b, c, d]` fitted to each graph family's
    /// published connectivity character (heavy-tailed web/social graphs get
    /// skewed initiators; the road network is near-uniform).
    pub fn initiator(self) -> [f64; 4] {
        match self {
            GraphInput::Google => [0.83, 0.56, 0.46, 0.30],
            GraphInput::Facebook => [0.99, 0.53, 0.53, 0.21],
            GraphInput::Flickr => [0.99, 0.47, 0.49, 0.14],
            GraphInput::Wikipedia => [0.90, 0.60, 0.35, 0.20],
            GraphInput::Dblp => [0.98, 0.58, 0.58, 0.05],
            GraphInput::Stanford => [0.93, 0.58, 0.42, 0.20],
            GraphInput::Amazon => [0.95, 0.46, 0.46, 0.26],
            GraphInput::Road => [0.55, 0.45, 0.45, 0.55],
        }
    }

    /// Average out-degree multiplier relative to the configured base degree
    /// (social graphs are denser than road networks).
    pub fn degree_factor(self) -> f64 {
        match self {
            GraphInput::Facebook | GraphInput::Flickr => 1.6,
            GraphInput::Wikipedia => 1.3,
            GraphInput::Road => 0.4,
            _ => 1.0,
        }
    }
}

/// Kronecker graph generator.
#[derive(Debug, Clone, Copy)]
pub struct Kronecker {
    /// Initiator matrix `[a, b, c, d]`.
    pub initiator: [f64; 4],
    /// log2 of the vertex count.
    pub scale: u32,
    /// Number of edges to place.
    pub edges: usize,
}

/// A synthesized graph in CSR form (out-edges).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SynthGraph {
    /// Number of vertices.
    pub n: usize,
    /// CSR row offsets (`n + 1` entries).
    pub offsets: Vec<u32>,
    /// CSR column indices (edge targets).
    pub targets: Vec<u32>,
}

impl SynthGraph {
    /// Out-neighbours of `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Maximum out-degree (skew diagnostic).
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }
}

impl Kronecker {
    /// Builds a generator for one Table II input at the given scale/degree.
    pub fn for_input(input: GraphInput, scale: u32, base_degree: u32) -> Self {
        let n = 1usize << scale;
        let edges = ((n as f64) * base_degree as f64 * input.degree_factor()) as usize;
        Self { initiator: input.initiator(), scale, edges }
    }

    /// Samples the graph. Duplicate edges and self-loops are kept (they are
    /// part of the stochastic Kronecker model and harmless to the
    /// workloads); edges are sorted into CSR.
    pub fn generate(&self, seed: u64) -> SynthGraph {
        let n = 1usize << self.scale;
        let [a, b, c, d] = self.initiator;
        let total = (a + b + c + d).max(f64::MIN_POSITIVE);
        let (pa, pb, pc) = (a / total, b / total, c / total);
        // Quadrant thresholds: quadrant q (0 = a, 1 = b, 2 = c, 3 = d) is
        // the number of thresholds the draw reaches.
        let (t1, t2, t3) = (pa, pa + pb, pa + pb + pc);
        let mut rng = seeded(split_seed(seed, 0x6B40));

        // Edges packed as `u << 32 | v`, so sorting the packed words sorts by
        // `(u, v)`.
        let mut pairs: Vec<u64> = Vec::with_capacity(self.edges);
        for _ in 0..self.edges {
            let mut u = 0usize;
            let mut v = 0usize;
            for _ in 0..self.scale {
                let x: f64 = rng.random();
                let q = usize::from(x >= t1) + usize::from(x >= t2) + usize::from(x >= t3);
                u = (u << 1) | (q >> 1);
                v = (v << 1) | (q & 1);
            }
            pairs.push((u as u64) << 32 | v as u64);
        }
        pairs.sort_unstable();

        let mut offsets = vec![0u32; n + 1];
        for &e in &pairs {
            offsets[(e >> 32) as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let targets = pairs.into_iter().map(|e| e as u32).collect();
        SynthGraph { n, offsets, targets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_size() {
        let g = Kronecker::for_input(GraphInput::Google, 10, 8).generate(1);
        assert_eq!(g.n, 1024);
        assert_eq!(g.edge_count(), 1024 * 8);
        assert_eq!(*g.offsets.last().unwrap() as usize, g.targets.len());
    }

    #[test]
    fn csr_is_consistent() {
        let g = Kronecker::for_input(GraphInput::Dblp, 9, 6).generate(2);
        let total: usize = (0..g.n).map(|v| g.degree(v)).sum();
        assert_eq!(total, g.edge_count());
        for v in 0..g.n {
            for &t in g.neighbors(v) {
                assert!((t as usize) < g.n);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let k = Kronecker::for_input(GraphInput::Amazon, 9, 6);
        assert_eq!(k.generate(7).targets, k.generate(7).targets);
        assert_ne!(k.generate(7).targets, k.generate(8).targets);
    }

    #[test]
    fn skewed_initiators_give_skewed_degrees() {
        let web = Kronecker::for_input(GraphInput::Google, 12, 8).generate(3);
        let road = Kronecker::for_input(GraphInput::Road, 12, 8).generate(3);
        // Web graph: heavy-tailed degrees; road: near-uniform.
        let web_avg = web.edge_count() as f64 / web.n as f64;
        let road_avg = road.edge_count() as f64 / road.n as f64;
        assert!(
            web.max_degree() as f64 / web_avg > 4.0 * (road.max_degree() as f64 / road_avg),
            "web max/avg {} vs road {}",
            web.max_degree() as f64 / web_avg,
            road.max_degree() as f64 / road_avg
        );
    }

    #[test]
    fn degree_factors_change_density() {
        let fb = Kronecker::for_input(GraphInput::Facebook, 10, 8);
        let road = Kronecker::for_input(GraphInput::Road, 10, 8);
        assert!(fb.edges > road.edges);
    }

    #[test]
    fn all_inputs_have_distinct_initiators_or_density() {
        // No two inputs are identical in (initiator, degree factor).
        let sigs: Vec<([u8; 32], u64)> = GraphInput::ALL
            .iter()
            .map(|i| {
                let mut sig = [0u8; 32];
                for (j, v) in i.initiator().iter().enumerate() {
                    sig[j * 8..(j + 1) * 8].copy_from_slice(&v.to_le_bytes());
                }
                (sig, (i.degree_factor() * 1000.0) as u64)
            })
            .collect();
        let set: std::collections::HashSet<_> = sigs.iter().collect();
        assert_eq!(set.len(), GraphInput::ALL.len());
    }
}
