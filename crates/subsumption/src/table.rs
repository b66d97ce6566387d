//! Signature-grouped operator storage.
//!
//! Algorithm 2 compares a new subscription only against stored subscriptions
//! *over the same attribute set*; [`OperatorTable`] maintains exactly that
//! grouping. Every node keeps one table per neighbor (its `S_m`) plus one
//! for local users (`S_local`), split into covered/uncovered halves by the
//! node framework.
//!
//! Operators are interned in a slab: each lives once, in a `u32` slot that
//! is recycled through a free list, and every secondary structure — the
//! signature groups, the per-dimension inverted index that event processing
//! (Algorithm 5) uses to touch only operators referencing the incoming
//! event's sensor or attribute type, and the shared [`RangeIndex`]
//! arrangement over the operators' value ranges and places — stores slots,
//! not keys. Each predicate is filed under its [`place`]: the bounding
//! rectangle of the operator's region on an attribute dimension, nothing on
//! a sensor dimension or for `Region::All`. The per-reading candidate query
//! therefore costs O(log ops + matches) in [`MatchMode::Arrangement`],
//! visits only operators whose place holds the reading's location, and
//! hands out `&Operator` borrows straight from the slab: no key is cloned,
//! compared or looked up on the way.
//!
//! The data plane follows the arrangement's settle-then-borrow rule:
//! [`OperatorTable::settle`] once per frame (`&mut`, O(1) when no operator
//! came or went), then any number of [`OperatorTable::candidates`] queries
//! through `&self`.

use crate::arrangement::{place, MatchMode, RangeIndex};
use fsf_model::{DimKey, DimSignature, Event, Operator, OperatorKey};
use std::collections::BTreeMap;

/// Operators grouped by dimension signature, deduplicated by
/// [`OperatorKey`] (`(subscription, dims)` identity), with a per-dimension
/// inverted index and a shared range arrangement.
#[derive(Debug, Default, Clone)]
pub struct OperatorTable {
    slab: Vec<Option<Operator>>,
    free: Vec<u32>,
    by_key: BTreeMap<OperatorKey, u32>,
    by_sig: BTreeMap<DimSignature, Vec<u32>>,
    by_dim: BTreeMap<DimKey, Vec<u32>>,
    index: RangeIndex<u32>,
}

/// Drop `slot` from one secondary index entry, and the entry with its last
/// slot.
fn unlink<K: Ord>(map: &mut BTreeMap<K, Vec<u32>>, key: &K, slot: u32) {
    if let Some(slots) = map.get_mut(key) {
        slots.retain(|&s| s != slot);
        if slots.is_empty() {
            map.remove(key);
        }
    }
}

impl OperatorTable {
    /// Empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn op(&self, slot: u32) -> &Operator {
        self.slab[slot as usize]
            .as_ref()
            .expect("indexed slots are occupied")
    }

    /// Insert an operator. Returns `false` (and stores nothing) if an
    /// operator with the same `(subscription, dims)` identity is already
    /// present — re-deliveries along the unique tree path are idempotent.
    pub fn insert(&mut self, op: Operator) -> bool {
        let key = op.key();
        if self.by_key.contains_key(&key) {
            return false;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 operators")
        });
        for p in op.predicates() {
            self.by_dim.entry(p.key).or_default().push(slot);
            let (lo, hi) = (p.range.min(), p.range.max());
            self.index
                .insert(p.key, place(&p.key, op.region()), lo, hi, slot);
        }
        self.by_sig.entry(key.dims.clone()).or_default().push(slot);
        self.by_key.insert(key, slot);
        self.slab[slot as usize] = Some(op);
        true
    }

    /// The stored group sharing `sig` (possibly empty), in insertion order.
    #[must_use]
    pub fn group(&self, sig: &DimSignature) -> Vec<&Operator> {
        self.by_sig
            .get(sig)
            .map(|slots| slots.iter().map(|&s| self.op(s)).collect())
            .unwrap_or_default()
    }

    /// Operators that constrain dimension `dim` — the candidates that an
    /// event of that sensor/attribute could extend — in insertion order.
    pub fn ops_with_dim(&self, dim: &DimKey) -> impl Iterator<Item = &Operator> {
        self.by_dim
            .get(dim)
            .into_iter()
            .flat_map(|slots| slots.iter().map(|&s| self.op(s)))
    }

    /// Look up an operator by identity.
    #[must_use]
    pub fn get(&self, key: &OperatorKey) -> Option<&Operator> {
        self.by_key.get(key).map(|&s| self.op(s))
    }

    /// Remove an operator by identity, returning it if present. Supports
    /// explicit unsubscription ("subscriptions are expected to be valid
    /// until explicitly removed", §IV-B). The slot goes on the free list
    /// for the next insert.
    pub fn remove(&mut self, key: &OperatorKey) -> Option<Operator> {
        let slot = self.by_key.remove(key)?;
        let op = self.slab[slot as usize]
            .take()
            .expect("indexed slots are occupied");
        unlink(&mut self.by_sig, &key.dims, slot);
        for d in op.dims() {
            unlink(&mut self.by_dim, &d, slot);
            self.index.remove(&d, place(&d, op.region()), &slot);
        }
        self.free.push(slot);
        Some(op)
    }

    /// Rebuild what the control plane dirtied in the range arrangement.
    /// O(1) when no operator was inserted or removed since the last call;
    /// the data plane calls it once per frame, before it starts borrowing.
    pub fn settle(&mut self) {
        self.index.settle();
    }

    /// Append to `out` the candidate operators for `event` under `dim` —
    /// those whose predicate on `dim` matches the event — borrowed from the
    /// slab, in key order.
    ///
    /// Both modes answer the identical set in the identical order (the
    /// differential battery in `tests/matching_equivalence.rs` holds them to
    /// that): [`MatchMode::LinearScan`] walks the inverted index and
    /// value-checks every operator; [`MatchMode::Arrangement`] stabs the
    /// range index at the event's value and location and post-filters the
    /// hits through the same [`fsf_model::Predicate::matches`] check, so
    /// region and sensor/attribute constraints are enforced identically.
    /// Only the survivors are sorted, by `(subscription, dims)`.
    ///
    /// # Panics
    /// In [`MatchMode::Arrangement`], if an insert or remove has not been
    /// [`settle`](Self::settle)d.
    pub fn candidates<'a>(
        &'a self,
        mode: MatchMode,
        dim: &DimKey,
        event: &Event,
        out: &mut Vec<&'a Operator>,
    ) {
        let start = out.len();
        let offer = |&slot: &u32| {
            let op = self.op(slot);
            if op
                .predicate_for(dim)
                .is_some_and(|p| p.matches(event, op.region()))
            {
                out.push(op);
            }
        };
        match mode {
            MatchMode::LinearScan => self.by_dim.get(dim).into_iter().flatten().for_each(offer),
            MatchMode::Arrangement => self.index.stab(dim, event.value, &event.location, offer),
        }
        out[start..]
            .sort_unstable_by(|a, b| a.sub().cmp(&b.sub()).then_with(|| a.dims().cmp(b.dims())));
    }

    /// [`Self::candidates`], settled first and cloned out: the owned form
    /// for callers that query once and keep the result.
    pub fn candidates_for(
        &mut self,
        mode: MatchMode,
        dim: &DimKey,
        event: &Event,
    ) -> Vec<Operator> {
        self.settle();
        let mut out = Vec::new();
        self.candidates(mode, dim, event, &mut out);
        out.into_iter().cloned().collect()
    }

    /// Does the incrementally-maintained arrangement equal one rebuilt from
    /// scratch over the stored operators? Used by the rebuild property tests
    /// (retraction, mobility supersession, crash purge, slot reuse).
    #[must_use]
    pub fn arrangement_consistent(&self) -> bool {
        let mut fresh: RangeIndex<u32> = RangeIndex::new();
        for &slot in self.by_key.values() {
            let op = self.op(slot);
            for p in op.predicates() {
                fresh.insert(
                    p.key,
                    place(&p.key, op.region()),
                    p.range.min(),
                    p.range.max(),
                    slot,
                );
            }
        }
        self.index.same_entries(&fresh)
    }

    /// All operators originating from one subscription (a user subscription
    /// and/or its projections), by key order.
    #[must_use]
    pub fn keys_of_sub(&self, sub: fsf_model::SubId) -> Vec<OperatorKey> {
        self.by_key
            .keys()
            .filter(|k| k.sub == sub)
            .cloned()
            .collect()
    }

    /// Has this exact operator identity been stored?
    #[must_use]
    pub fn contains(&self, key: &OperatorKey) -> bool {
        self.by_key.contains_key(key)
    }

    /// All stored operators in key order — deterministic.
    pub fn iter(&self) -> impl Iterator<Item = &Operator> {
        self.by_key.values().map(|&s| self.op(s))
    }

    /// Number of stored operators.
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Is the table empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Number of distinct dimension signatures.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.by_sig.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsf_model::{SensorId, SubId, Subscription, ValueRange};

    fn op(id: u64, sensors: &[u32]) -> Operator {
        let s = Subscription::identified(
            SubId(id),
            sensors
                .iter()
                .map(|&d| (SensorId(d), ValueRange::new(0.0, 10.0))),
            30,
        )
        .unwrap();
        Operator::from_subscription(&s)
    }

    #[test]
    fn groups_by_signature() {
        let mut t = OperatorTable::new();
        assert!(t.insert(op(1, &[1, 2])));
        assert!(t.insert(op(2, &[1, 2])));
        assert!(t.insert(op(3, &[1, 3])));
        assert_eq!(t.len(), 3);
        assert_eq!(t.group_count(), 2);
        assert_eq!(t.group(&op(9, &[1, 2]).signature()).len(), 2);
        assert_eq!(t.group(&op(9, &[1, 3]).signature()).len(), 1);
        assert_eq!(t.group(&op(9, &[7]).signature()).len(), 0);
    }

    #[test]
    fn duplicate_identity_is_rejected() {
        let mut t = OperatorTable::new();
        assert!(t.insert(op(1, &[1, 2])));
        assert!(!t.insert(op(1, &[1, 2])), "same (sub, dims) identity");
        assert!(
            t.insert(op(1, &[1])),
            "same sub, different projection is new"
        );
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn dim_index_finds_referencing_operators() {
        use fsf_model::DimKey;
        let mut t = OperatorTable::new();
        t.insert(op(1, &[1, 2]));
        t.insert(op(2, &[2, 3]));
        t.insert(op(3, &[4]));
        let d2: Vec<u64> = t
            .ops_with_dim(&DimKey::Sensor(SensorId(2)))
            .map(|o| o.sub().0)
            .collect();
        assert_eq!(d2, vec![1, 2]);
        let d4: Vec<u64> = t
            .ops_with_dim(&DimKey::Sensor(SensorId(4)))
            .map(|o| o.sub().0)
            .collect();
        assert_eq!(d4, vec![3]);
        assert_eq!(t.ops_with_dim(&DimKey::Sensor(SensorId(9))).count(), 0);
    }

    #[test]
    fn get_and_contains_track_keys() {
        let mut t = OperatorTable::new();
        let o = op(1, &[1, 2]);
        assert!(!t.contains(&o.key()));
        assert!(t.get(&o.key()).is_none());
        t.insert(o.clone());
        assert!(t.contains(&o.key()));
        assert_eq!(t.get(&o.key()).unwrap().sub(), SubId(1));
        assert!(!t.is_empty());
    }

    #[test]
    fn remove_cleans_all_indexes() {
        use fsf_model::DimKey;
        let mut t = OperatorTable::new();
        let o1 = op(1, &[1, 2]);
        let o2 = op(2, &[1, 2]);
        t.insert(o1.clone());
        t.insert(o2.clone());
        assert_eq!(t.remove(&o1.key()).unwrap().sub(), SubId(1));
        assert!(t.remove(&o1.key()).is_none(), "second removal is a no-op");
        assert_eq!(t.len(), 1);
        assert_eq!(t.group(&o2.signature()).len(), 1);
        let hits: Vec<u64> = t
            .ops_with_dim(&DimKey::Sensor(SensorId(1)))
            .map(|o| o.sub().0)
            .collect();
        assert_eq!(hits, vec![2]);
        // removing the last member clears the signature group entirely
        t.remove(&o2.key());
        assert!(t.is_empty());
        assert_eq!(t.group_count(), 0);
        assert_eq!(t.ops_with_dim(&DimKey::Sensor(SensorId(1))).count(), 0);
    }

    #[test]
    fn keys_of_sub_finds_all_projections() {
        let mut t = OperatorTable::new();
        t.insert(op(1, &[1, 2]));
        t.insert(op(1, &[1]));
        t.insert(op(2, &[1]));
        assert_eq!(t.keys_of_sub(SubId(1)).len(), 2);
        assert_eq!(t.keys_of_sub(SubId(2)).len(), 1);
        assert!(t.keys_of_sub(SubId(9)).is_empty());
    }

    #[test]
    fn candidates_agree_across_modes_and_index_stays_consistent() {
        use fsf_model::{AttrId, DimKey, Event, EventId, Point, Timestamp};
        let mut t = OperatorTable::new();
        for i in 0..40u64 {
            let lo = (i % 10) as f64;
            let s = Subscription::identified(
                SubId(i),
                [(SensorId(1), ValueRange::new(lo, lo + 3.0))],
                30,
            )
            .unwrap();
            t.insert(Operator::from_subscription(&s));
        }
        let dim = DimKey::Sensor(SensorId(1));
        for v in 0..15 {
            let e = Event {
                id: EventId(1000 + v),
                sensor: SensorId(1),
                attr: AttrId(1),
                location: Point { x: 0.0, y: 0.0 },
                value: v as f64 + 0.5,
                timestamp: Timestamp(0),
            };
            let scan: Vec<OperatorKey> = t
                .candidates_for(crate::MatchMode::LinearScan, &dim, &e)
                .iter()
                .map(Operator::key)
                .collect();
            let arr: Vec<OperatorKey> = t
                .candidates_for(crate::MatchMode::Arrangement, &dim, &e)
                .iter()
                .map(Operator::key)
                .collect();
            assert_eq!(scan, arr, "v={v}");
        }
        assert!(t.arrangement_consistent());
        for i in (0..40u64).step_by(2) {
            for k in t.keys_of_sub(SubId(i)) {
                t.remove(&k);
            }
        }
        assert!(t.arrangement_consistent(), "after removals");
    }

    #[test]
    fn iteration_is_deterministic_key_order() {
        let mut t = OperatorTable::new();
        t.insert(op(3, &[5]));
        t.insert(op(1, &[1, 2]));
        t.insert(op(2, &[5]));
        let a: Vec<u64> = t.iter().map(|o| o.sub().0).collect();
        let b: Vec<u64> = t.iter().map(|o| o.sub().0).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }
}
