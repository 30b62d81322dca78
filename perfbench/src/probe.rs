//! The host-speed probe: a fixed kernel that belongs to the benchmark, not
//! to the program, timed next to every closed-loop round.
//!
//! On a shared host the speed a single core delivers to this program can
//! drift by more than 1.5× over minutes with other tenants' load, while the
//! code and its input stay the same. The probe's time drifts with it, so a
//! round's time divided by the probe's time measured just before it moves
//! far less with the host's phase, and still moves one for one with the
//! program's own cost: nothing in the probe calls into the program.
//!
//! The kernel is a pull-style PageRank (20 sweeps) over a fixed R-MAT
//! graph of 8,192 vertices and 131,072 edges. Its gather over a skewed
//! in-edge list is the kind of irregular, cache-resident work the
//! simulator does, and its time tracks the rounds' drift much more closely
//! than plain arithmetic or streaming loops do. It takes a few
//! milliseconds and never changes: neither `--seed` nor the program
//! reaches it.

use std::time::Instant;

use crate::workloads::{Rng, RANK_SKEW};

const VERTICES: usize = 8_192;
const EDGES: usize = 16 * VERTICES;
const SWEEPS: usize = 20;
const DAMPING: f64 = 0.85;
/// The probe graph's generator seed, fixed for every run.
const GRAPH_SEED: u64 = 0x5EED_9A7E;

/// The probe's graph, as in-edge lists (CSR by destination).
pub struct Probe {
    offsets: Vec<u32>,
    sources: Vec<u32>,
    inv_out: Vec<f64>,
    rank: Vec<f64>,
    next: Vec<f64>,
}

impl Probe {
    /// Builds the fixed probe graph.
    #[must_use]
    pub fn new() -> Self {
        let mut rng = Rng::new(GRAPH_SEED, 0);
        let (a, b, c) = RANK_SKEW;
        let bits = VERTICES.trailing_zeros();
        let edges: Vec<(u32, u32)> = (0..EDGES)
            .map(|_| {
                let (mut src, mut dst) = (0u32, 0u32);
                for _ in 0..bits {
                    let r = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    let (s, d) = if r < a {
                        (0, 0)
                    } else if r < a + b {
                        (0, 1)
                    } else if r < a + b + c {
                        (1, 0)
                    } else {
                        (1, 1)
                    };
                    src = src << 1 | s;
                    dst = dst << 1 | d;
                }
                (src, dst)
            })
            .collect();
        let mut out_degree = vec![0u32; VERTICES];
        let mut offsets = vec![0u32; VERTICES + 1];
        for &(s, d) in &edges {
            out_degree[s as usize] += 1;
            offsets[d as usize + 1] += 1;
        }
        for v in 0..VERTICES {
            offsets[v + 1] += offsets[v];
        }
        let mut fill = offsets.clone();
        let mut sources = vec![0u32; EDGES];
        for &(s, d) in &edges {
            sources[fill[d as usize] as usize] = s;
            fill[d as usize] += 1;
        }
        let inv_out = out_degree
            .iter()
            .map(|&d| if d == 0 { 0.0 } else { 1.0 / f64::from(d) })
            .collect();
        Probe {
            offsets,
            sources,
            inv_out,
            rank: vec![0.0; VERTICES],
            next: vec![0.0; VERTICES],
        }
    }

    /// Runs the kernel once and returns its host time in nanoseconds.
    pub fn run(&mut self) -> u64 {
        let t = Instant::now();
        let n = VERTICES as f64;
        self.rank.fill(1.0 / n);
        for _ in 0..SWEEPS {
            for (v, next) in self.next.iter_mut().enumerate() {
                let (lo, hi) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
                let sum: f64 = self.sources[lo..hi]
                    .iter()
                    .map(|&u| self.rank[u as usize] * self.inv_out[u as usize])
                    .sum();
                *next = (1.0 - DAMPING) / n + DAMPING * sum;
            }
            std::mem::swap(&mut self.rank, &mut self.next);
        }
        std::hint::black_box(&self.rank);
        u64::try_from(t.elapsed().as_nanos()).expect("a probe lasts under 584 years")
    }
}
