//! The shared per-node range arrangement.
//!
//! Event matching (Algorithm 5) asks one question per incoming reading and
//! per dimension: *which stored operators constrain this dimension with a
//! value range containing the reading's value, in a region containing the
//! reading's location?* The baseline answer is a linear scan of the
//! per-dimension inverted index — O(operators) per reading, which dies at
//! millions of subscriptions. [`RangeIndex`] answers it by value and place:
//!
//! * **By value.** An interval set is a sorted boundary array over the
//!   entries' `[lo, hi]` ranges augmented with subtree-max upper bounds (a
//!   static interval tree over the sort order): O(log n + matches) per stab.
//! * **By place.** Every entry carries a *place*, the bounding rectangle of
//!   the operator's region ([`place`]), or none where the region cannot
//!   prune: on sensor dimensions (a sensor predicate ignores the region) and
//!   for [`Region::All`]. Per dimension, entries with the same bit-identical
//!   rectangle share one interval set, a *bucket*; unplaced entries keep the
//!   dimension's own set. A stab reads the unplaced set plus the buckets
//!   whose rectangle contains the reading's location, found by stabbing the
//!   buckets' x-extents with the same interval machinery and checking y —
//!   never by walking the bucket list. This is the grouping of query regions
//!   of Lee et al.'s tiered range processing: abstract subscriptions share a
//!   few station-group rectangles, so a reading skips every operator
//!   listening somewhere else before any of them is looked up.
//!
//! **Settle, then borrow.** Mutations only mark an interval set dirty;
//! [`RangeIndex::settle`] (`&mut`, O(1) when nothing changed) re-sorts and
//! re-augments the dirty sets, and [`RangeIndex::stab`] then answers
//! through `&self`, handing each hit to a visitor instead of allocating a
//! result. The data plane settles once per incoming frame and holds shared
//! borrows of the index — and of the operators its keys name — for the
//! whole frame.
//!
//! The index is an *accelerator*, not a semantics change: a place only
//! over-approximates its region (a disc's bounding square, edges included),
//! every hit is post-filtered through the same
//! [`fsf_model::Predicate::matches`] the scan uses, and the owners sort the
//! survivors into key order — exactly the order the inverted-index scan
//! produces. [`MatchMode::LinearScan`] keeps the scan alive as the
//! differential oracle (`tests/matching_equivalence.rs`).

use fsf_model::{DimKey, Point, Rect, Region};
use std::collections::BTreeMap;

/// How a node answers the per-dimension candidate query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchMode {
    /// Scan the per-dimension inverted index and value-check every operator
    /// — O(operators with the dim) per reading. Retained as the
    /// differential-test oracle.
    LinearScan,
    /// Stab the shared range arrangement by value and place —
    /// O(log ops + matches) per reading. The production hot path.
    #[default]
    Arrangement,
}

/// The place under which an operator's predicate on `dim` is filed: the
/// bounding rectangle of `region` on an attribute dimension — a `Rect` as
/// is, a `Circle` by its bounding square — and `None` on a sensor
/// dimension (where [`fsf_model::Predicate::applies_to`] ignores the
/// region) and for [`Region::All`].
///
/// A square is widened by a few ulps of its coordinates, so no rounding in
/// the disc's own distance test can accept a reading the square rejects; a
/// disc whose square is not finite stays unplaced.
#[must_use]
pub fn place(dim: &DimKey, region: &Region) -> Option<Rect> {
    match (dim, region) {
        (DimKey::Sensor(_), _) | (DimKey::Attr(_), Region::All) => None,
        (DimKey::Attr(_), Region::Rect(r)) => Some(*r),
        (DimKey::Attr(_), Region::Circle { center, radius }) => {
            let r = radius + 4.0 * f64::EPSILON * (center.x.abs() + center.y.abs() + radius);
            let square = Rect {
                min: Point::new(center.x - r, center.y - r),
                max: Point::new(center.x + r, center.y + r),
            };
            let corners = [square.min.x, square.min.y, square.max.x, square.max.y];
            (corners.iter().all(|c| c.is_finite()) && r >= 0.0).then_some(square)
        }
    }
}

/// One interval entry. `max_hi` is the maximum `hi` in the subtree of the
/// implicit midpoint BST (over the sorted entries) rooted at this entry.
#[derive(Debug, Clone)]
struct Interval<K> {
    lo: f64,
    hi: f64,
    max_hi: f64,
    key: K,
}

/// One interval set, sorted by `(lo, hi, key)` and augmented with subtree
/// maxima. Mutations mark the set dirty; [`RangeIndex::settle`] re-sorts and
/// re-augments.
#[derive(Debug, Clone)]
struct DimIntervals<K> {
    items: Vec<Interval<K>>,
    dirty: bool,
}

impl<K> DimIntervals<K> {
    fn new() -> Self {
        DimIntervals {
            items: Vec::new(),
            dirty: false,
        }
    }

    /// Re-augment the (sorted) entries and drop the spare capacity: a set
    /// only grows between settles, and the index holds many small ones.
    fn augment_all(&mut self) {
        self.augment(0, self.items.len());
        self.items.shrink_to_fit();
        self.dirty = false;
    }

    /// Fill `max_hi` for the subtree over `[a, b)`; returns its max.
    fn augment(&mut self, a: usize, b: usize) -> f64 {
        if a >= b {
            return f64::NEG_INFINITY;
        }
        let mid = a + (b - a) / 2;
        let left = self.augment(a, mid);
        let right = self.augment(mid + 1, b);
        let m = self.items[mid].hi.max(left).max(right);
        self.items[mid].max_hi = m;
        m
    }

    /// Visit every key whose interval contains `v`.
    fn stab<'a>(&'a self, v: f64, visit: &mut impl FnMut(&'a K)) {
        self.stab_in(0, self.items.len(), v, visit);
    }

    /// Visit every key in `[a, b)` whose interval contains `v`.
    fn stab_in<'a>(&'a self, a: usize, b: usize, v: f64, visit: &mut impl FnMut(&'a K)) {
        if a >= b {
            return;
        }
        let mid = a + (b - a) / 2;
        let item = &self.items[mid];
        if item.max_hi < v {
            return; // no interval in this subtree reaches v
        }
        if item.lo <= v {
            if v <= item.hi {
                visit(&item.key);
            }
            self.stab_in(a, mid, v, visit);
            self.stab_in(mid + 1, b, v, visit);
        } else {
            // everything right of mid starts even later — prune it
            self.stab_in(a, mid, v, visit);
        }
    }
}

impl<K: Ord> DimIntervals<K> {
    fn push(&mut self, lo: f64, hi: f64, key: K) {
        self.items.push(Interval {
            lo,
            hi,
            max_hi: hi,
            key,
        });
        self.dirty = true;
    }

    fn remove(&mut self, key: &K) {
        let before = self.items.len();
        self.items.retain(|i| i.key != *key);
        self.dirty |= self.items.len() != before;
    }

    fn settle(&mut self) {
        if self.dirty {
            // The stable sort is run-adaptive: after a few inserts or
            // removals the array is one sorted run plus a short tail,
            // merged in O(n).
            self.items.sort_by(|a, b| {
                a.lo.total_cmp(&b.lo)
                    .then_with(|| a.hi.total_cmp(&b.hi))
                    .then_with(|| a.key.cmp(&b.key))
            });
            self.augment_all();
        }
    }
}

/// The entries filed under one rectangle. The rectangle's x-extent is the
/// bucket's interval in [`DimEntries::placed`], its y-extent is here.
#[derive(Debug, Clone)]
struct Bucket<K> {
    min_y: f64,
    max_y: f64,
    set: DimIntervals<K>,
}

/// One dimension's entries: the unplaced set, and one bucket per distinct
/// rectangle.
#[derive(Debug, Clone)]
struct DimEntries<K> {
    unplaced: DimIntervals<K>,
    /// The buckets as an interval set over their x-extents, so a stab finds
    /// the ones whose x-extent holds the reading by the same tree walk.
    /// Kept sorted by `(min.x, max.x, min.y, max.y)` (`total_cmp`, which
    /// tells bit patterns apart) at every mutation, so a place finds its
    /// bucket by binary search; a mutation only re-augments.
    placed: DimIntervals<Bucket<K>>,
    /// Is this dimension on [`RangeIndex`]'s dirty list?
    listed: bool,
}

impl<K: Ord> DimEntries<K> {
    fn new() -> Self {
        DimEntries {
            unplaced: DimIntervals::new(),
            placed: DimIntervals::new(),
            listed: false,
        }
    }

    fn is_empty(&self) -> bool {
        self.unplaced.items.is_empty() && self.placed.items.is_empty()
    }

    fn find(&self, r: &Rect) -> Result<usize, usize> {
        self.placed.items.binary_search_by(|b| {
            b.lo.total_cmp(&r.min.x)
                .then_with(|| b.hi.total_cmp(&r.max.x))
                .then_with(|| b.key.min_y.total_cmp(&r.min.y))
                .then_with(|| b.key.max_y.total_cmp(&r.max.y))
        })
    }

    /// The set `place` files into, its bucket made on first use.
    fn set_for(&mut self, place: Option<Rect>) -> &mut DimIntervals<K> {
        let Some(r) = place else {
            return &mut self.unplaced;
        };
        let at = self.find(&r).unwrap_or_else(|at| {
            let (min_y, max_y, set) = (r.min.y, r.max.y, DimIntervals::new());
            let (lo, hi, key) = (r.min.x, r.max.x, Bucket { min_y, max_y, set });
            self.placed.items.insert(
                at,
                Interval {
                    lo,
                    hi,
                    max_hi: hi,
                    key,
                },
            );
            self.placed.dirty = true;
            at
        });
        &mut self.placed.items[at].key.set
    }

    fn remove(&mut self, place: Option<Rect>, key: &K) {
        let Some(r) = place else {
            self.unplaced.remove(key);
            return;
        };
        if let Ok(at) = self.find(&r) {
            let set = &mut self.placed.items[at].key.set;
            set.remove(key);
            if set.items.is_empty() {
                self.placed.items.remove(at);
                self.placed.dirty = true;
            }
        }
    }

    fn settle(&mut self) {
        self.unplaced.settle();
        for bucket in &mut self.placed.items {
            bucket.key.set.settle();
        }
        if self.placed.dirty {
            self.placed.augment_all();
        }
        self.listed = false;
    }

    fn stab<'a>(&'a self, v: f64, at: &Point, visit: &mut impl FnMut(&'a K)) {
        self.unplaced.stab(v, visit);
        self.placed.stab(at.x, &mut |bucket| {
            if bucket.min_y <= at.y && at.y <= bucket.max_y {
                bucket.set.stab(v, visit);
            }
        });
    }
}

/// One entry of [`RangeIndex::canonical_entries`]: `(dim, place bits,
/// lo bits, hi bits, key)`, the place as `[min.x, min.y, max.x, max.y]`.
pub type CanonicalEntry<'a, K> = (DimKey, Option<[u64; 4]>, u64, u64, &'a K);

/// A per-dimension stabbing index over operator value ranges and places,
/// generic in the stored key type (the pub/sub family indexes its operator
/// table's `u32` slab slots, the multi-join engine its own `MjKey`).
#[derive(Debug, Clone)]
pub struct RangeIndex<K> {
    dims: BTreeMap<DimKey, DimEntries<K>>,
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

    /// Register `key`'s `[lo, hi]` range on `dim`, filed under `place`
    /// (see [`place`]; `None` files it where every reading finds it).
    pub fn insert(&mut self, dim: DimKey, place: Option<Rect>, lo: f64, hi: f64, key: K) {
        let entries = self.dims.entry(dim).or_insert_with(DimEntries::new);
        entries.set_for(place).push(lo, hi, key);
        if !std::mem::replace(&mut entries.listed, true) {
            self.dirty.push(dim);
        }
    }

    /// Remove every entry of `key` filed on `dim` under `place` — the place
    /// it was inserted with (retraction / unsubscribe / crash purge). A
    /// bucket goes with its last entry.
    pub fn remove(&mut self, dim: &DimKey, place: Option<Rect>, key: &K) {
        let Some(entries) = self.dims.get_mut(dim) else {
            return;
        };
        entries.remove(place, key);
        if entries.is_empty() {
            self.dims.remove(dim); // if listed as dirty, settle skips it
        } else if !std::mem::replace(&mut entries.listed, true) {
            self.dirty.push(*dim);
        }
    }

    /// Rebuild every interval set a mutation touched (a re-sort and a
    /// re-augmentation each). O(1) when nothing changed since the last
    /// call, so the data plane calls it unconditionally before it starts
    /// borrowing.
    pub fn settle(&mut self) {
        for dim in self.dirty.drain(..) {
            if let Some(entries) = self.dims.get_mut(&dim).filter(|e| e.listed) {
                entries.settle();
            }
        }
    }

    /// Visit the keys whose range on `dim` contains `v` and whose place is
    /// none or contains `at`, in no particular order:
    /// `O(log n + matches)`, no allocation.
    ///
    /// # Panics
    /// If a mutation has not been [`settle`](Self::settle)d.
    pub fn stab<'a>(&'a self, dim: &DimKey, v: f64, at: &Point, mut visit: impl FnMut(&'a K)) {
        assert!(
            self.dirty.is_empty(),
            "settle() the index before stabbing it"
        );
        if let Some(entries) = self.dims.get(dim) {
            entries.stab(v, at, &mut visit);
        }
    }

    /// Total registered intervals, across dimensions and places.
    #[must_use]
    pub fn len(&self) -> usize {
        let entries = |e: &DimEntries<K>| {
            let placed: usize = e.placed.items.iter().map(|b| b.key.set.items.len()).sum();
            e.unplaced.items.len() + placed
        };
        self.dims.values().map(entries).sum()
    }

    /// Is the index empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// Canonical content: `(dim, place bits, lo bits, hi bits, key)`,
    /// sorted. Two indexes with equal canonical content answer every stab
    /// identically, whatever mutation history produced them — the
    /// incremental-vs-rebuilt property checks compare exactly this.
    #[must_use]
    pub fn canonical_entries(&self) -> Vec<CanonicalEntry<'_, K>> {
        let mut out = Vec::new();
        for (&d, e) in &self.dims {
            let placed = e.placed.items.iter().map(|b| {
                let place = [b.lo, b.key.min_y, b.hi, b.key.max_y].map(f64::to_bits);
                (Some(place), &b.key.set)
            });
            for (place, set) in std::iter::once((None, &e.unplaced)).chain(placed) {
                for i in &set.items {
                    out.push((d, place, i.lo.to_bits(), i.hi.to_bits(), &i.key));
                }
            }
        }
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
        idx.stab(d, v, &Point::new(0.0, 0.0), |&k| out.push(k));
        out.sort_unstable();
        out
    }

    #[test]
    fn stab_finds_exactly_the_containing_intervals() {
        let mut idx: RangeIndex<u32> = RangeIndex::new();
        idx.insert(dim(1), None, 0.0, 10.0, 1);
        idx.insert(dim(1), None, 5.0, 15.0, 2);
        idx.insert(dim(1), None, 12.0, 20.0, 3);
        idx.insert(dim(2), None, 0.0, 100.0, 4); // other dim never answers
        assert_eq!(stab(&mut idx, &dim(1), 7.0), vec![1, 2]);
        assert_eq!(stab(&mut idx, &dim(1), 12.0), vec![2, 3]);
        assert_eq!(stab(&mut idx, &dim(1), 30.0), Vec::<u32>::new());
        assert_eq!(stab(&mut idx, &dim(3), 7.0), Vec::<u32>::new());
    }

    #[test]
    fn point_zero_width_and_unbounded_ranges() {
        let mut idx: RangeIndex<u32> = RangeIndex::new();
        idx.insert(dim(1), None, 5.0, 5.0, 1); // point range
        idx.insert(dim(1), None, f64::NEG_INFINITY, f64::INFINITY, 2);
        assert_eq!(stab(&mut idx, &dim(1), 5.0), vec![1, 2]);
        assert_eq!(stab(&mut idx, &dim(1), 5.0001), vec![2]);
    }

    #[test]
    fn remove_then_stab_matches_a_fresh_build() {
        let mut idx: RangeIndex<u32> = RangeIndex::new();
        for i in 0..50u32 {
            idx.insert(dim(1), None, f64::from(i), f64::from(i + 10), i);
        }
        // interleave stabs (forcing rebuilds) with removals
        assert!(!stab(&mut idx, &dim(1), 25.0).is_empty());
        for i in (0..50u32).step_by(3) {
            idx.remove(&dim(1), None, &i);
        }
        let mut fresh: RangeIndex<u32> = RangeIndex::new();
        for i in 0..50u32 {
            if i % 3 != 0 {
                fresh.insert(dim(1), None, f64::from(i), f64::from(i + 10), i);
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
            idx.insert(dim(1), None, lo, lo + width, i);
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
                idx.insert(dim(1), None, lo, hi, fresh_key);
                plain.push((lo, hi, fresh_key));
                fresh_key += 1;
            }
            for _ in 0..next() % 3 {
                if !plain.is_empty() {
                    // recent keys are likelier not settled yet
                    let back = (next() % 12) as usize;
                    let at = plain.len().saturating_sub(1 + back.min(plain.len() - 1));
                    let (_, _, key) = plain.swap_remove(at);
                    idx.remove(&dim(1), None, &key);
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
            fresh.insert(dim(1), None, lo, hi, k);
        }
        assert!(idx.same_entries(&fresh));
    }

    fn attr(a: u16) -> DimKey {
        DimKey::Attr(fsf_model::AttrId(a))
    }

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    /// Settle, stab at `(x, y)`, and sort the hits.
    fn stab_at(idx: &mut RangeIndex<u32>, d: &DimKey, v: f64, x: f64, y: f64) -> Vec<u32> {
        idx.settle();
        let mut out = Vec::new();
        idx.stab(d, v, &Point::new(x, y), |&k| out.push(k));
        out.sort_unstable();
        out
    }

    fn buckets(idx: &RangeIndex<u32>, d: &DimKey) -> usize {
        idx.dims.get(d).map_or(0, |e| e.placed.items.len())
    }

    #[test]
    fn equal_rectangles_share_a_bucket_and_different_ones_do_not() {
        let mut idx: RangeIndex<u32> = RangeIndex::new();
        let a = rect(0.0, 0.0, 2.0, 2.0);
        for k in 0..5 {
            idx.insert(attr(1), Some(a), 0.0, 10.0, k);
        }
        assert_eq!(buckets(&idx, &attr(1)), 1);
        idx.insert(attr(1), Some(rect(0.0, 0.0, 2.0, 3.0)), 0.0, 10.0, 5);
        idx.insert(attr(1), None, 0.0, 10.0, 6);
        idx.insert(attr(2), Some(a), 0.0, 10.0, 7); // same rectangle, other dim
        assert_eq!(buckets(&idx, &attr(1)), 2);
        assert_eq!(buckets(&idx, &attr(2)), 1);
        assert_eq!(idx.len(), 8);
        // edges and corners are inside (inclusive), the unplaced entry is everywhere
        assert_eq!(
            stab_at(&mut idx, &attr(1), 5.0, 2.0, 2.0),
            vec![0, 1, 2, 3, 4, 5, 6]
        );
        assert_eq!(stab_at(&mut idx, &attr(1), 5.0, 1.0, 3.0), vec![5, 6]);
        assert_eq!(stab_at(&mut idx, &attr(1), 5.0, 2.5, 1.0), vec![6]);
        assert_eq!(
            stab_at(&mut idx, &attr(1), 11.0, 1.0, 1.0),
            Vec::<u32>::new()
        );
    }

    #[test]
    fn a_bucket_goes_with_its_last_entry_and_len_stays_exact() {
        let mut idx: RangeIndex<u32> = RangeIndex::new();
        let (a, b, c) = (
            rect(0.0, 0.0, 1.0, 1.0),
            rect(5.0, 5.0, 6.0, 6.0),
            rect(3.0, 0.0, 3.0, 0.0),
        );
        idx.insert(attr(1), Some(a), 0.0, 10.0, 1);
        idx.insert(attr(1), Some(a), 0.0, 10.0, 2);
        idx.insert(attr(1), Some(b), 0.0, 10.0, 3);
        idx.insert(attr(1), Some(c), 0.0, 10.0, 4); // point-sized
        assert_eq!((idx.len(), buckets(&idx, &attr(1))), (4, 3));
        assert_eq!(stab_at(&mut idx, &attr(1), 1.0, 3.0, 0.0), vec![4]);
        idx.remove(&attr(1), Some(a), &1);
        assert_eq!((idx.len(), buckets(&idx, &attr(1))), (3, 3));
        // the first bucket empties: the buckets after it move up a position
        idx.remove(&attr(1), Some(a), &2);
        assert_eq!((idx.len(), buckets(&idx, &attr(1))), (2, 2));
        assert_eq!(
            stab_at(&mut idx, &attr(1), 1.0, 0.5, 0.5),
            Vec::<u32>::new()
        );
        assert_eq!(stab_at(&mut idx, &attr(1), 1.0, 3.0, 0.0), vec![4]);
        assert_eq!(stab_at(&mut idx, &attr(1), 1.0, 6.0, 5.0), vec![3]);
        // removing under the wrong place removes nothing
        idx.remove(&attr(1), Some(a), &3);
        idx.remove(&attr(1), None, &3);
        assert_eq!(idx.len(), 2);
        idx.remove(&attr(1), Some(c), &4);
        idx.remove(&attr(1), Some(b), &3);
        assert_eq!((idx.len(), buckets(&idx, &attr(1))), (0, 0));
        assert!(idx.is_empty());
        // a bucket made again after its slot was dropped answers again
        idx.insert(attr(1), Some(b), 0.0, 10.0, 9);
        assert_eq!(stab_at(&mut idx, &attr(1), 1.0, 5.5, 5.5), vec![9]);
        assert!(!idx.is_empty());
    }

    #[test]
    fn canonical_entries_include_the_place() {
        let (a, b) = (rect(0.0, 0.0, 1.0, 1.0), rect(0.0, 0.0, 1.0, 2.0));
        let mut right: RangeIndex<u32> = RangeIndex::new();
        let mut wrong: RangeIndex<u32> = RangeIndex::new();
        let mut unplaced: RangeIndex<u32> = RangeIndex::new();
        right.insert(attr(1), Some(a), 0.0, 10.0, 1);
        wrong.insert(attr(1), Some(b), 0.0, 10.0, 1);
        unplaced.insert(attr(1), None, 0.0, 10.0, 1);
        assert!(!right.same_entries(&wrong));
        assert!(!right.same_entries(&unplaced));
        let mut again: RangeIndex<u32> = RangeIndex::new();
        again.insert(attr(1), Some(rect(0.0, 0.0, 1.0, 1.0)), 0.0, 10.0, 1);
        assert!(right.same_entries(&again));
    }

    #[test]
    #[should_panic(expected = "settle() the index before stabbing it")]
    fn an_unsettled_stab_panics() {
        let mut idx: RangeIndex<u32> = RangeIndex::new();
        idx.insert(attr(1), Some(rect(0.0, 0.0, 1.0, 1.0)), 0.0, 10.0, 1);
        idx.stab(&attr(1), 1.0, &Point::new(0.5, 0.5), |_| {});
    }

    #[test]
    fn places_prune_only_what_the_region_cannot_contain() {
        let circle = Region::Circle {
            center: Point::new(1.0, 1.0),
            radius: 1.0,
        };
        let square = place(&attr(1), &circle).expect("a finite disc is placed");
        assert!(square.contains(&Point::new(0.0, 1.0)) && square.contains(&Point::new(2.0, 2.0)));
        assert_eq!(place(&attr(1), &Region::All), None);
        let sensor = DimKey::Sensor(SensorId(1));
        assert_eq!(
            place(&sensor, &Region::Rect(rect(0.0, 0.0, 1.0, 1.0))),
            None
        );
        let unbounded = Region::Circle {
            center: Point::new(0.0, 0.0),
            radius: f64::INFINITY,
        };
        assert_eq!(place(&attr(1), &unbounded), None);
    }

    /// Random rectangles on a small lattice (overlapping, nested, shared and
    /// point-sized), probed on the lattice so readings sit on edges and
    /// corners, through inserts and removals, against a plain scan.
    #[test]
    fn placed_stabs_agree_with_a_scan() {
        let mut state = 0x51ab_7e11_c0de_2024u64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let mut idx: RangeIndex<u32> = RangeIndex::new();
        let mut plain: Vec<(Option<Rect>, f64, f64, u32)> = Vec::new();
        for round in 0..200u32 {
            let place = match next(4) {
                0 => None,
                _ => {
                    let (x, y) = (next(6) as f64, next(6) as f64);
                    Some(rect(x, y, x + next(3) as f64, y + next(3) as f64))
                }
            };
            let lo = next(10) as f64;
            let hi = lo + next(5) as f64;
            idx.insert(attr(1), place, lo, hi, round);
            plain.push((place, lo, hi, round));
            if next(3) == 0 {
                let (place, _, _, key) = plain.swap_remove(next(plain.len() as u64) as usize);
                idx.remove(&attr(1), place, &key);
            }
            let (v, x, y) = (next(15) as f64, next(9) as f64, next(9) as f64);
            let at = Point::new(x, y);
            let mut expected: Vec<u32> = plain
                .iter()
                .filter(|(p, lo, hi, _)| *lo <= v && v <= *hi && p.is_none_or(|r| r.contains(&at)))
                .map(|&(_, _, _, k)| k)
                .collect();
            expected.sort_unstable();
            assert_eq!(
                stab_at(&mut idx, &attr(1), v, x, y),
                expected,
                "round {round}"
            );
        }
        assert_eq!(idx.len(), plain.len());
        let mut fresh: RangeIndex<u32> = RangeIndex::new();
        for &(place, lo, hi, k) in &plain {
            fresh.insert(attr(1), place, lo, hi, k);
        }
        assert!(idx.same_entries(&fresh));
    }
}
