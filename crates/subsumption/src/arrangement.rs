//! The shared per-node range arrangement.
//!
//! Event matching (Algorithm 5) asks one question per incoming reading and
//! per dimension: *which stored operators constrain this dimension with a
//! value range containing the reading's value?* The baseline answer is a
//! linear scan of the per-dimension inverted index — O(operators) per
//! reading, which dies at millions of subscriptions. [`RangeIndex`] answers
//! it in O(log n + matches): per dimension, a sorted boundary array over the
//! operators' `[lo, hi]` ranges augmented with subtree-max upper bounds (a
//! static interval tree over the sort order), rebuilt after control-plane
//! mutations.
//!
//! **Settle, then borrow.** Mutations only mark a dimension dirty;
//! [`RangeIndex::settle`] (`&mut`, O(1) when nothing changed) re-sorts and
//! re-augments the dirty dimensions, and [`RangeIndex::stab`] then answers
//! through `&self`, handing each hit to a visitor instead of allocating a
//! result. The data plane settles once per incoming frame and holds shared
//! borrows of the index — and of the operators its keys name — for the
//! whole frame.
//!
//! The index is an *accelerator*, not a semantics change: every query is
//! post-filtered through the same [`fsf_model::Predicate::matches`] the scan
//! uses, and the owners sort the survivors into key order — exactly the
//! order the inverted-index scan produces. [`MatchMode::LinearScan`] keeps
//! the scan alive as the differential oracle
//! (`tests/matching_equivalence.rs`).

use fsf_model::DimKey;
use std::collections::BTreeMap;

/// How a node answers the per-dimension candidate query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchMode {
    /// Scan the per-dimension inverted index and value-check every operator
    /// — O(operators with the dim) per reading. Retained as the
    /// differential-test oracle.
    LinearScan,
    /// Stab the shared range arrangement — O(log ops + matches) per
    /// reading. The production hot path.
    #[default]
    Arrangement,
}

/// One dimension's interval set: `(lo, hi, key)` triples sorted by
/// `(lo, hi, key)`, with `max_hi[i]` = the maximum `hi` in the subtree of
/// the implicit midpoint BST rooted at `i`. Mutations mark the set dirty;
/// [`RangeIndex::settle`] re-sorts and re-augments.
#[derive(Debug, Clone)]
struct DimIntervals<K> {
    items: Vec<(f64, f64, K)>,
    max_hi: Vec<f64>,
    dirty: bool,
}

impl<K: Ord> DimIntervals<K> {
    fn new() -> Self {
        DimIntervals {
            items: Vec::new(),
            max_hi: Vec::new(),
            dirty: false,
        }
    }

    fn rebuild(&mut self) {
        // The stable sort is run-adaptive: after a few inserts or removals
        // the array is one sorted run plus a short tail, merged in O(n).
        self.items.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then_with(|| a.1.total_cmp(&b.1))
                .then_with(|| a.2.cmp(&b.2))
        });
        self.max_hi.clear();
        self.max_hi.resize(self.items.len(), f64::NEG_INFINITY);
        self.augment(0, self.items.len());
        self.dirty = false;
    }

    /// Fill `max_hi[mid]` for the subtree over `[a, b)`; returns its max.
    fn augment(&mut self, a: usize, b: usize) -> f64 {
        if a >= b {
            return f64::NEG_INFINITY;
        }
        let mid = a + (b - a) / 2;
        let left = self.augment(a, mid);
        let right = self.augment(mid + 1, b);
        let m = self.items[mid].1.max(left).max(right);
        self.max_hi[mid] = m;
        m
    }

    /// Visit every key in `[a, b)` whose interval contains `v`.
    fn stab<'a>(&'a self, a: usize, b: usize, v: f64, visit: &mut impl FnMut(&'a K)) {
        if a >= b {
            return;
        }
        let mid = a + (b - a) / 2;
        if self.max_hi[mid] < v {
            return; // no interval in this subtree reaches v
        }
        let (lo, hi, ref key) = self.items[mid];
        if lo <= v {
            if v <= hi {
                visit(key);
            }
            self.stab(a, mid, v, visit);
            self.stab(mid + 1, b, v, visit);
        } else {
            // everything right of mid starts even later — prune it
            self.stab(a, mid, v, visit);
        }
    }
}

/// A per-dimension stabbing index over operator value ranges, generic in
/// the stored key type (the pub/sub family indexes its operator table's
/// `u32` slab slots, the multi-join engine its own `MjKey`).
#[derive(Debug, Clone)]
pub struct RangeIndex<K> {
    dims: BTreeMap<DimKey, DimIntervals<K>>,
    /// The dimensions mutated since the last [`RangeIndex::settle`], each
    /// once (its own flag says whether it is listed): empty on the data
    /// plane, which is what makes settling O(1) there, and short after a
    /// mutation however many dimensions exist.
    dirty: Vec<DimKey>,
}

impl<K: Ord> Default for RangeIndex<K> {
    fn default() -> Self {
        RangeIndex {
            dims: BTreeMap::new(),
            dirty: Vec::new(),
        }
    }
}

impl<K: Ord> RangeIndex<K> {
    /// Empty index.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `key`'s `[lo, hi]` range on `dim`.
    pub fn insert(&mut self, dim: DimKey, lo: f64, hi: f64, key: K) {
        let slot = self.dims.entry(dim).or_insert_with(DimIntervals::new);
        slot.items.push((lo, hi, key));
        if !std::mem::replace(&mut slot.dirty, true) {
            self.dirty.push(dim);
        }
    }

    /// Remove every entry of `key` on `dim` (retraction / unsubscribe /
    /// crash purge).
    pub fn remove(&mut self, dim: &DimKey, key: &K) {
        if let Some(slot) = self.dims.get_mut(dim) {
            slot.items.retain(|(_, _, k)| k != key);
            if slot.items.is_empty() {
                self.dims.remove(dim); // if listed as dirty, settle skips it
            } else if !std::mem::replace(&mut slot.dirty, true) {
                self.dirty.push(*dim);
            }
        }
    }

    /// Rebuild every dimension a mutation touched (a re-sort and a
    /// re-augmentation each). O(1) when nothing changed since the last
    /// call, so the data plane calls it unconditionally before it starts
    /// borrowing.
    pub fn settle(&mut self) {
        for dim in self.dirty.drain(..) {
            if let Some(slot) = self.dims.get_mut(&dim).filter(|s| s.dirty) {
                slot.rebuild();
            }
        }
    }

    /// Visit the keys whose range on `dim` contains `v`, in no particular
    /// order: `O(log n + matches)`, no allocation.
    ///
    /// # Panics
    /// If a mutation has not been [`settle`](Self::settle)d.
    pub fn stab<'a>(&'a self, dim: &DimKey, v: f64, mut visit: impl FnMut(&'a K)) {
        assert!(
            self.dirty.is_empty(),
            "settle() the index before stabbing it"
        );
        if let Some(slot) = self.dims.get(dim) {
            slot.stab(0, slot.items.len(), v, &mut visit);
        }
    }

    /// Total registered intervals, across dimensions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.dims.values().map(|s| s.items.len()).sum()
    }

    /// Is the index empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// Canonical content: `(dim, lo bits, hi bits, key)`, sorted. Two
    /// indexes with equal canonical content answer every stab identically,
    /// whatever mutation history produced them — the incremental-vs-rebuilt
    /// property checks compare exactly this.
    #[must_use]
    pub fn canonical_entries(&self) -> Vec<(DimKey, u64, u64, &K)> {
        let mut out: Vec<(DimKey, u64, u64, &K)> = self
            .dims
            .iter()
            .flat_map(|(d, s)| {
                s.items
                    .iter()
                    .map(move |(lo, hi, k)| (*d, lo.to_bits(), hi.to_bits(), k))
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Content equality, ignoring sort/augmentation state.
    #[must_use]
    pub fn same_entries(&self, other: &Self) -> bool {
        self.canonical_entries() == other.canonical_entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsf_model::SensorId;

    fn dim(d: u32) -> DimKey {
        DimKey::Sensor(SensorId(d))
    }

    /// Settle, stab, and sort the hits — what the index's owners do.
    fn stab(idx: &mut RangeIndex<u32>, d: &DimKey, v: f64) -> Vec<u32> {
        idx.settle();
        let mut out = Vec::new();
        idx.stab(d, v, |&k| out.push(k));
        out.sort_unstable();
        out
    }

    #[test]
    fn stab_finds_exactly_the_containing_intervals() {
        let mut idx: RangeIndex<u32> = RangeIndex::new();
        idx.insert(dim(1), 0.0, 10.0, 1);
        idx.insert(dim(1), 5.0, 15.0, 2);
        idx.insert(dim(1), 12.0, 20.0, 3);
        idx.insert(dim(2), 0.0, 100.0, 4); // other dim never answers
        assert_eq!(stab(&mut idx, &dim(1), 7.0), vec![1, 2]);
        assert_eq!(stab(&mut idx, &dim(1), 12.0), vec![2, 3]);
        assert_eq!(stab(&mut idx, &dim(1), 30.0), Vec::<u32>::new());
        assert_eq!(stab(&mut idx, &dim(3), 7.0), Vec::<u32>::new());
    }

    #[test]
    fn point_zero_width_and_unbounded_ranges() {
        let mut idx: RangeIndex<u32> = RangeIndex::new();
        idx.insert(dim(1), 5.0, 5.0, 1); // point range
        idx.insert(dim(1), f64::NEG_INFINITY, f64::INFINITY, 2);
        assert_eq!(stab(&mut idx, &dim(1), 5.0), vec![1, 2]);
        assert_eq!(stab(&mut idx, &dim(1), 5.0001), vec![2]);
    }

    #[test]
    fn remove_then_stab_matches_a_fresh_build() {
        let mut idx: RangeIndex<u32> = RangeIndex::new();
        for i in 0..50u32 {
            idx.insert(dim(1), f64::from(i), f64::from(i + 10), i);
        }
        // interleave stabs (forcing rebuilds) with removals
        assert!(!stab(&mut idx, &dim(1), 25.0).is_empty());
        for i in (0..50u32).step_by(3) {
            idx.remove(&dim(1), &i);
        }
        let mut fresh: RangeIndex<u32> = RangeIndex::new();
        for i in 0..50u32 {
            if i % 3 != 0 {
                fresh.insert(dim(1), f64::from(i), f64::from(i + 10), i);
            }
        }
        assert!(idx.same_entries(&fresh));
        for v in 0..60 {
            let v = f64::from(v) + 0.5;
            assert_eq!(
                stab(&mut idx, &dim(1), v),
                stab(&mut fresh, &dim(1), v),
                "v={v}"
            );
        }
    }

    #[test]
    fn stab_agrees_with_linear_scan_on_dense_overlaps() {
        // deterministic pseudo-random intervals, no external rng
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut idx: RangeIndex<u32> = RangeIndex::new();
        let mut plain: Vec<(f64, f64, u32)> = Vec::new();
        for i in 0..400u32 {
            let lo = (next() % 1000) as f64 / 10.0;
            let width = (next() % 200) as f64 / 10.0;
            idx.insert(dim(1), lo, lo + width, i);
            plain.push((lo, lo + width, i));
        }
        for probe in 0..200u64 {
            let v = (next() % 1200) as f64 / 10.0;
            let mut expected: Vec<u32> = plain
                .iter()
                .filter(|&&(lo, hi, _)| lo <= v && v <= hi)
                .map(|&(_, _, k)| k)
                .collect();
            expected.sort_unstable();
            assert_eq!(stab(&mut idx, &dim(1), v), expected, "probe {probe} v={v}");
        }
    }

    /// Inserts and removes piling up in every mix between settles — a few
    /// inserts, a bulk, removals of settled and of still-pending entries —
    /// against a plain scan.
    #[test]
    fn interleaved_mutations_agree_with_a_scan() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut idx: RangeIndex<u32> = RangeIndex::new();
        let mut plain: Vec<(f64, f64, u32)> = Vec::new();
        let mut fresh_key = 0u32;
        for round in 0..300 {
            let inserts = [0, 1, 3, 9][(next() % 4) as usize];
            for _ in 0..inserts {
                let lo = (next() % 500) as f64 / 10.0;
                let hi = lo + (next() % 100) as f64 / 10.0;
                idx.insert(dim(1), lo, hi, fresh_key);
                plain.push((lo, hi, fresh_key));
                fresh_key += 1;
            }
            for _ in 0..next() % 3 {
                if !plain.is_empty() {
                    // recent keys are likelier not settled yet
                    let back = (next() % 12) as usize;
                    let at = plain.len().saturating_sub(1 + back.min(plain.len() - 1));
                    let (_, _, key) = plain.swap_remove(at);
                    idx.remove(&dim(1), &key);
                }
            }
            if next() % 3 == 0 {
                continue; // let mutations pile up across rounds
            }
            let v = (next() % 600) as f64 / 10.0;
            let mut expected: Vec<u32> = plain
                .iter()
                .filter(|&&(lo, hi, _)| lo <= v && v <= hi)
                .map(|&(_, _, k)| k)
                .collect();
            expected.sort_unstable();
            assert_eq!(stab(&mut idx, &dim(1), v), expected, "round {round} v={v}");
        }
        let mut fresh: RangeIndex<u32> = RangeIndex::new();
        for &(lo, hi, k) in &plain {
            fresh.insert(dim(1), lo, hi, k);
        }
        assert!(idx.same_entries(&fresh));
    }
}
