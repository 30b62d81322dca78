//! Frontier lanes: K ≤ 64 concurrent traversal queries packed as one
//! `u64` lane-mask per vertex.
//!
//! A [`LaneFrontier`] is the multi-query generalisation of
//! [`FrontierMask`]: bit `q` of vertex `v`'s lane word says query `q`'s
//! frontier holds `v`. The *union* of all lanes is maintained as a plain
//! [`FrontierMask`], so everything built on masks — `PlanSkeleton`
//! pruning, `Planner::plan_for_delta`, the disk `IoPlan` translation,
//! cluster sharding — applies unchanged to the union plan: one scan of
//! the planned edge stream advances all K queries, and per-query
//! attribution is recovered from the lane words
//! (see [`LaneCounters`](crate::metrics::LaneCounters)).
//!
//! Per-lane set-bit counts are maintained on every mutation, so
//! [`LaneFrontier::lane_len`] — the per-iteration per-query frontier
//! size the fused drivers report — is O(1), exactly like
//! [`FrontierMask::len`].

use crate::exec::mask::FrontierMask;

/// Maximum queries one [`LaneFrontier`] can carry — the width of the
/// per-vertex lane word.
pub const MAX_LANES: usize = 64;

/// K concurrent per-query frontiers packed as a `u64` lane word per
/// vertex, with a maintained [`FrontierMask`] union and O(1) per-lane
/// popcounts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneFrontier {
    /// Number of lanes (queries) in use; lane bits ≥ `k` are always zero.
    k: usize,
    /// One lane word per vertex (bit `q` = query `q` active here).
    words: Vec<u64>,
    /// Vertices whose lane word is nonzero.
    union: FrontierMask,
    /// Per-lane set-bit counts (maintained, never recounted).
    counts: Vec<u64>,
}

impl LaneFrontier {
    /// An all-inactive lane frontier over `n` vertices and `k` queries.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k ≤ 64`.
    #[must_use]
    pub fn new(n: usize, k: usize) -> Self {
        assert!(
            (1..=MAX_LANES).contains(&k),
            "lane count {k} outside 1..={MAX_LANES}"
        );
        LaneFrontier {
            k,
            words: vec![0; n],
            union: FrontierMask::new(n),
            counts: vec![0; k],
        }
    }

    /// A lane frontier with every lane active at every vertex (the WCC
    /// start state).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k ≤ 64`.
    #[must_use]
    pub fn full(n: usize, k: usize) -> Self {
        let mut lanes = LaneFrontier::new(n, k);
        let all = if k == MAX_LANES {
            u64::MAX
        } else {
            (1u64 << k) - 1
        };
        lanes.words.fill(all);
        lanes.union = FrontierMask::full(n);
        lanes.counts.fill(n as u64);
        lanes
    }

    /// Builds a lane frontier from per-query masks (test/spec use; the
    /// drivers build theirs incrementally).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ masks.len() ≤ 64` and every mask ranges over
    /// the same vertex count.
    #[must_use]
    pub fn from_masks(masks: &[FrontierMask]) -> Self {
        assert!(!masks.is_empty(), "at least one lane mask required");
        let n = masks[0].num_vertices();
        let mut lanes = LaneFrontier::new(n, masks.len());
        for (q, mask) in masks.iter().enumerate() {
            assert_eq!(
                mask.num_vertices(),
                n,
                "lane {q} ranges over {} vertices, lane 0 over {n}",
                mask.num_vertices()
            );
            for v in mask.iter() {
                lanes.set(q, v);
            }
        }
        lanes
    }

    /// Number of lanes (queries).
    #[must_use]
    pub fn num_lanes(&self) -> usize {
        self.k
    }

    /// Vertices the frontier ranges over.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.words.len()
    }

    /// The lane word of vertex `v`: bit `q` set iff query `q` is active
    /// at `v` (0 for `v` past the end).
    #[must_use]
    pub fn vertex_lanes(&self, v: usize) -> u64 {
        self.words.get(v).copied().unwrap_or(0)
    }

    /// Whether query `lane` is active at vertex `v`.
    #[must_use]
    pub fn get(&self, lane: usize, v: usize) -> bool {
        debug_assert!(lane < self.k);
        self.vertex_lanes(v) >> lane & 1 == 1
    }

    /// Activates vertex `v` in `lane`; returns whether the bit changed.
    ///
    /// # Panics
    ///
    /// Panics if `lane` or `v` is out of range.
    pub fn set(&mut self, lane: usize, v: usize) -> bool {
        assert!(lane < self.k, "lane {lane} out of range {}", self.k);
        let bit = 1u64 << lane;
        if self.words[v] & bit != 0 {
            return false;
        }
        if self.words[v] == 0 {
            self.union.set(v);
        }
        self.words[v] |= bit;
        self.counts[lane] += 1;
        true
    }

    /// Deactivates vertex `v` in `lane`; returns whether the bit changed.
    ///
    /// # Panics
    ///
    /// Panics if `lane` or `v` is out of range.
    pub fn clear(&mut self, lane: usize, v: usize) -> bool {
        assert!(lane < self.k, "lane {lane} out of range {}", self.k);
        let bit = 1u64 << lane;
        if self.words[v] & bit == 0 {
            return false;
        }
        self.words[v] &= !bit;
        if self.words[v] == 0 {
            self.union.clear(v);
        }
        self.counts[lane] -= 1;
        true
    }

    /// Splits the frontier for writers of disjoint vertex ranges: the lane
    /// words, to set bits in place, and a [`LaneTally`] that brings the
    /// union and per-lane counts up to date for each written range.
    pub(crate) fn split_words_mut(&mut self) -> (&mut [u64], LaneTally<'_>) {
        let tally = LaneTally {
            union: &mut self.union,
            counts: &mut self.counts,
        };
        (&mut self.words, tally)
    }

    /// ORs a lane word into vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `word` names lanes ≥ `k`.
    pub fn or_lanes(&mut self, v: usize, word: u64) {
        assert!(
            self.k == MAX_LANES || word >> self.k == 0,
            "lane word {word:#x} names lanes past {}",
            self.k
        );
        let fresh = word & !self.words[v];
        if fresh == 0 {
            return;
        }
        if self.words[v] == 0 {
            self.union.set(v);
        }
        self.words[v] |= fresh;
        let mut bits = fresh;
        while bits != 0 {
            let q = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.counts[q] += 1;
        }
    }

    /// Deactivates every lane at every vertex: one lane-word write per
    /// union vertex plus a fill of the union mask, so the traversal loop
    /// can reuse a spent frontier instead of reallocating `|V|` words.
    pub fn clear_all(&mut self) {
        for v in self.union.iter() {
            self.words[v] = 0;
        }
        self.union.clear_all();
        self.counts.fill(0);
    }

    /// Number of active vertices in `lane` — O(1), the maintained count.
    #[must_use]
    pub fn lane_len(&self, lane: usize) -> u64 {
        self.counts[lane]
    }

    /// Whether `lane`'s frontier is empty.
    #[must_use]
    pub fn lane_is_empty(&self, lane: usize) -> bool {
        self.counts[lane] == 0
    }

    /// Whether every lane is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.union.is_empty()
    }

    /// The union frontier: active wherever *any* lane is. This is what
    /// the fused drivers plan from — the union plan covers every lane's
    /// needs, so the whole pruning/disk/cluster machinery applies
    /// unchanged.
    #[must_use]
    pub fn union(&self) -> &FrontierMask {
        &self.union
    }

    /// Materialises one lane as a plain [`FrontierMask`] (attribution
    /// and test use; the scan paths read lane words directly).
    #[must_use]
    pub fn lane(&self, lane: usize) -> FrontierMask {
        let mut mask = FrontierMask::new(self.num_vertices());
        let bit = 1u64 << lane;
        for v in self.union.iter() {
            if self.words[v] & bit != 0 {
                mask.set(v);
            }
        }
        mask
    }
}

/// Union and per-lane count upkeep for lane words written in place
/// through [`LaneFrontier::split_words_mut`].
#[derive(Debug)]
pub(crate) struct LaneTally<'l> {
    union: &'l mut FrontierMask,
    counts: &'l mut [u64],
}

impl LaneTally<'_> {
    /// Records that the lane words of vertices `start ..` now read `words`
    /// and that `fresh[q]` of their lane-`q` bits were newly set. Writers
    /// may only set bits, never clear them.
    pub(crate) fn record(&mut self, start: usize, words: &[u64], fresh: &[u64]) {
        for (i, &word) in words.iter().enumerate() {
            if word != 0 {
                self.union.set(start + i);
            }
        }
        for (count, &f) in self.counts.iter_mut().zip(fresh) {
            *count += f;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_maintain_union_and_counts() {
        let mut lanes = LaneFrontier::new(100, 3);
        assert!(lanes.is_empty());
        assert!(lanes.set(0, 10));
        assert!(!lanes.set(0, 10), "re-set must report unchanged");
        assert!(lanes.set(2, 10));
        assert!(lanes.set(2, 99));
        assert_eq!(lanes.lane_len(0), 1);
        assert_eq!(lanes.lane_len(1), 0);
        assert_eq!(lanes.lane_len(2), 2);
        assert_eq!(lanes.vertex_lanes(10), 0b101);
        assert_eq!(lanes.union().len(), 2, "10 and 99");
        assert!(lanes.clear(0, 10));
        assert!(!lanes.clear(0, 10));
        assert!(lanes.union().get(10), "lane 2 still holds 10");
        assert!(lanes.clear(2, 10));
        assert!(!lanes.union().get(10));
        assert!(lanes.lane(2).get(99));
    }

    #[test]
    fn or_lanes_matches_bitwise_sets() {
        let mut a = LaneFrontier::new(50, 4);
        let mut b = LaneFrontier::new(50, 4);
        a.or_lanes(7, 0b1010);
        a.or_lanes(7, 0b0110);
        b.set(1, 7);
        b.set(3, 7);
        b.set(2, 7);
        assert_eq!(a, b);
        assert_eq!(a.lane_len(1), 1);
        assert_eq!(a.lane_len(2), 1);
    }

    #[test]
    fn in_place_words_with_tally_match_or_lanes() {
        let mut seeded = LaneFrontier::new(100, 3);
        seeded.set(1, 40);
        let mut expected = seeded.clone();
        for (v, word) in [(40, 0b011), (41, 0b100), (99, 0b001)] {
            expected.or_lanes(v, word);
        }
        let (words, mut tally) = seeded.split_words_mut();
        let range = &mut words[40..100];
        range[0] |= 0b011;
        range[1] |= 0b100;
        range[59] |= 0b001;
        tally.record(40, range, &[2, 0, 1]);
        assert_eq!(seeded, expected);
        assert_eq!(seeded.lane_len(0), 2);
        assert_eq!(seeded.union().len(), 3);
    }

    #[test]
    fn clear_all_equals_a_fresh_frontier() {
        let mut lanes = LaneFrontier::new(200, 3);
        lanes.set(0, 5);
        lanes.set(2, 5);
        lanes.set(1, 130);
        lanes.set(2, 199);
        lanes.clear_all();
        assert_eq!(lanes, LaneFrontier::new(200, 3));
        assert!(lanes.set(1, 130), "cleared bits can be set again");
        assert_eq!(lanes.lane_len(1), 1);
    }

    #[test]
    fn full_activates_every_lane_everywhere() {
        let lanes = LaneFrontier::full(65, MAX_LANES);
        assert_eq!(lanes.vertex_lanes(64), u64::MAX);
        assert_eq!(lanes.union().len(), 65);
        for q in 0..MAX_LANES {
            assert_eq!(lanes.lane_len(q), 65);
        }
    }

    #[test]
    fn from_masks_round_trips() {
        let mut m0 = FrontierMask::new(30);
        m0.set(3);
        m0.set(29);
        let mut m1 = FrontierMask::new(30);
        m1.set(3);
        let lanes = LaneFrontier::from_masks(&[m0.clone(), m1.clone()]);
        assert_eq!(lanes.lane(0), m0);
        assert_eq!(lanes.lane(1), m1);
        assert_eq!(lanes.union().len(), 2);
    }

    #[test]
    #[should_panic(expected = "lane count")]
    fn rejects_oversized_lane_counts() {
        let _ = LaneFrontier::new(10, 65);
    }
}
