//! Per-origin operator storage for the multi-join engine.
//!
//! Keyed by [`MjKey`] in both halves so that explicit retraction
//! (unsubscribe / sensor churn) can remove individual identities and whole
//! subscriptions without rebuilding the store.

use super::ops::MjKey;
use fsf_model::{DimKey, Event, Operator, SubId};
use fsf_subsumption::{MatchMode, RangeIndex};
use std::collections::{BTreeMap, BTreeSet};

/// How a stored operator participates in event processing at *this* node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoredRole {
    /// A whole multi-join above the divergence node: pass-through result
    /// dissemination (any event matching one of its value filters flows on).
    MultiAbove,
    /// A whole multi-join *at* its divergence node: inert — its binary
    /// joins and simple filters do the work here.
    MultiSplit,
    /// A binary join, held at the multi-join's divergence node ("it acts in
    /// a way as the centralized server"): window-joins its main dimension
    /// against filtering events, forwards sanctioned mains.
    BinaryEval {
        /// The result dimension.
        main: DimKey,
    },
    /// A value-filter transport (per-neighbor subset of a multi-join's
    /// filters): forwards raw events matching any of its filters toward the
    /// divergence node — no correlation semantics.
    FilterTransport,
}

/// One stored operator.
#[derive(Debug, Clone)]
pub struct StoredMj {
    /// The value filters / correlation distances.
    pub op: Operator,
    /// Event-processing role at this node.
    pub role: StoredRole,
    /// Was this a whole user subscription registered locally? Only these
    /// are matched for delivery (final filtering happens against the whole
    /// multi-join, dropping binary-join false positives).
    pub is_user_sub: bool,
}

/// Per-origin storage: uncovered (active) and covered halves, with a
/// per-dimension index and a shared range arrangement over the uncovered
/// half (the covered half is only consulted for local user subscriptions
/// and stays a scan).
#[derive(Debug, Default, Clone)]
pub struct MjStore {
    uncovered: BTreeMap<MjKey, StoredMj>,
    covered: BTreeMap<MjKey, StoredMj>,
    dim_index: BTreeMap<DimKey, BTreeSet<MjKey>>,
    index: RangeIndex<MjKey>,
}

impl MjStore {
    /// Empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Has this operator identity been stored (covered or not)?
    #[must_use]
    pub fn contains(&self, key: &MjKey) -> bool {
        self.uncovered.contains_key(key) || self.covered.contains_key(key)
    }

    /// Store an active operator. Returns `false` on duplicate identity.
    pub fn insert_uncovered(&mut self, key: MjKey, stored: StoredMj) -> bool {
        if self.contains(&key) {
            return false;
        }
        for d in stored.op.dims() {
            self.dim_index.entry(d).or_default().insert(key.clone());
            if let Some(p) = stored.op.predicate_for(&d) {
                self.index
                    .insert(d, p.range.min(), p.range.max(), key.clone());
            }
        }
        self.uncovered.insert(key, stored);
        true
    }

    /// Store a covered (redundant) operator. Returns `false` on duplicate.
    pub fn insert_covered(&mut self, key: MjKey, stored: StoredMj) -> bool {
        if self.contains(&key) {
            return false;
        }
        self.covered.insert(key, stored);
        true
    }

    /// Rebuild what the control plane dirtied in the range arrangement —
    /// O(1) when clean; once per frame, before the data plane borrows.
    pub fn settle(&mut self) {
        self.index.settle();
    }

    /// Append to `out` the uncovered operators whose predicate on `dim`
    /// matches `event` — borrowed, in key order. Both modes answer the
    /// identical set in the identical order: [`MatchMode::LinearScan`]
    /// value-checks every operator the dimension index returns,
    /// [`MatchMode::Arrangement`] stabs the [`settle`](Self::settle)d range
    /// index and post-filters through the same predicate check.
    pub fn uncovered_matching<'a>(
        &'a self,
        mode: MatchMode,
        dim: &DimKey,
        event: &Event,
        out: &mut Vec<(&'a MjKey, &'a StoredMj)>,
    ) {
        let start = out.len();
        let offer = |key: &'a MjKey| {
            let s = &self.uncovered[key];
            if s.op
                .predicate_for(dim)
                .is_some_and(|p| p.matches(event, s.op.region()))
            {
                out.push((key, s));
            }
        };
        match mode {
            MatchMode::LinearScan => self
                .dim_index
                .get(dim)
                .into_iter()
                .flatten()
                .for_each(offer),
            MatchMode::Arrangement => self.index.stab(dim, event.value, offer),
        }
        out[start..].sort_unstable_by_key(|&(key, _)| key);
    }

    /// Does the incrementally-maintained arrangement equal one rebuilt from
    /// scratch over the uncovered half? (Rebuild property tests.)
    #[must_use]
    pub fn arrangement_consistent(&self) -> bool {
        let mut fresh: RangeIndex<MjKey> = RangeIndex::new();
        for (key, stored) in &self.uncovered {
            for d in stored.op.dims() {
                if let Some(p) = stored.op.predicate_for(&d) {
                    fresh.insert(d, p.range.min(), p.range.max(), key.clone());
                }
            }
        }
        self.index.same_entries(&fresh)
    }

    /// All uncovered operators, in key order.
    #[must_use]
    pub fn uncovered(&self) -> Vec<&StoredMj> {
        self.uncovered.values().collect()
    }

    /// Covered entries, with their keys (promotion re-checks).
    pub fn covered_entries(&self) -> impl Iterator<Item = (&MjKey, &StoredMj)> {
        self.covered.iter()
    }

    /// Uncovered entries, with their keys (crash-recovery re-splits).
    pub fn uncovered_entries(&self) -> impl Iterator<Item = (&MjKey, &StoredMj)> {
        self.uncovered.iter()
    }

    /// Remove one uncovered identity, maintaining the dimension index and
    /// the range arrangement (crash recovery demotes a `MultiAbove` whose
    /// forwarding target died so it can be re-processed as a fresh
    /// multi-join; [`MjStore::remove_sub`] removes through it too).
    pub fn remove_uncovered(&mut self, key: &MjKey) -> Option<StoredMj> {
        let stored = self.uncovered.remove(key)?;
        for d in stored.op.dims() {
            if let Some(set) = self.dim_index.get_mut(&d) {
                set.remove(key);
                if set.is_empty() {
                    self.dim_index.remove(&d);
                }
            }
            self.index.remove(&d, key);
        }
        Some(stored)
    }

    /// The distinct subscriptions with operators in either half — the
    /// units of whole-subscription removal.
    #[must_use]
    pub fn sub_ids(&self) -> Vec<SubId> {
        let set: BTreeSet<SubId> = self
            .uncovered
            .keys()
            .chain(self.covered.keys())
            .map(|k| k.sub)
            .collect();
        set.into_iter().collect()
    }

    /// Remove one covered identity (promotion path).
    pub fn remove_covered(&mut self, key: &MjKey) -> Option<StoredMj> {
        self.covered.remove(key)
    }

    /// Remove every operator (both halves) belonging to `sub` — the whole
    /// decomposition of one retracted subscription. Returns `true` if
    /// anything was removed.
    pub fn remove_sub(&mut self, sub: SubId) -> bool {
        let keys: Vec<MjKey> = self
            .uncovered
            .keys()
            .chain(self.covered.keys())
            .filter(|k| k.sub == sub)
            .cloned()
            .collect();
        for key in &keys {
            self.remove_uncovered(key);
            self.covered.remove(key);
        }
        !keys.is_empty()
    }

    /// The pairwise-filtering candidate group: uncovered operators with the
    /// same dimension signature and the same main (role-compatible).
    #[must_use]
    pub fn filter_group(&self, key: &MjKey) -> Vec<&Operator> {
        self.uncovered
            .values()
            .filter(|s| {
                let main = match s.role {
                    StoredRole::BinaryEval { main } => Some(main),
                    _ => None,
                };
                main == key.main && s.op.signature() == key.dims
            })
            .map(|s| &s.op)
            .collect()
    }

    /// Total stored operators.
    #[must_use]
    pub fn len(&self) -> usize {
        self.uncovered.len() + self.covered.len()
    }

    /// Is the store empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.uncovered.is_empty() && self.covered.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsf_model::{SensorId, SubId, Subscription, ValueRange};

    fn op(id: u64, sensors: &[u32], lo: f64, hi: f64) -> Operator {
        let s = Subscription::identified(
            SubId(id),
            sensors
                .iter()
                .map(|&d| (SensorId(d), ValueRange::new(lo, hi))),
            30,
        )
        .unwrap();
        Operator::from_subscription(&s)
    }

    fn key(o: &Operator, main: Option<DimKey>) -> MjKey {
        MjKey {
            sub: o.sub(),
            dims: o.signature(),
            main,
        }
    }

    /// Subscriptions of the uncovered operators the dimension index finds
    /// for an in-range reading of `sensor`.
    fn scan(s: &MjStore, sensor: u32) -> Vec<u64> {
        let e = Event {
            id: fsf_model::EventId(1),
            sensor: SensorId(sensor),
            attr: fsf_model::AttrId(0),
            location: fsf_model::Point::new(0.0, 0.0),
            value: 5.0,
            timestamp: fsf_model::Timestamp(0),
        };
        let mut out = Vec::new();
        s.uncovered_matching(
            MatchMode::LinearScan,
            &DimKey::Sensor(e.sensor),
            &e,
            &mut out,
        );
        out.iter().map(|(_, m)| m.op.sub().0).collect()
    }

    fn stored(o: &Operator, role: StoredRole) -> StoredMj {
        StoredMj {
            op: o.clone(),
            role,
            is_user_sub: false,
        }
    }

    #[test]
    fn insert_and_dedup() {
        let mut s = MjStore::new();
        let o = op(1, &[1, 2], 0.0, 10.0);
        assert!(s.insert_uncovered(key(&o, None), stored(&o, StoredRole::MultiAbove)));
        assert!(!s.insert_uncovered(key(&o, None), stored(&o, StoredRole::MultiAbove)));
        assert!(!s.insert_covered(key(&o, None), stored(&o, StoredRole::MultiAbove)));
        assert_eq!(s.len(), 1);
        assert!(s.contains(&key(&o, None)));
    }

    #[test]
    fn dim_index_over_uncovered_only() {
        let mut s = MjStore::new();
        let o1 = op(1, &[1, 2], 0.0, 10.0);
        let o2 = op(2, &[2, 3], 0.0, 10.0);
        let o3 = op(3, &[2], 0.0, 10.0);
        s.insert_uncovered(key(&o1, None), stored(&o1, StoredRole::MultiAbove));
        s.insert_uncovered(key(&o2, None), stored(&o2, StoredRole::MultiAbove));
        s.insert_covered(key(&o3, None), stored(&o3, StoredRole::FilterTransport));
        assert_eq!(scan(&s, 2), vec![1, 2], "covered ops are not matched");
    }

    #[test]
    fn filter_group_separates_binary_directions() {
        let mut s = MjStore::new();
        let b = op(1, &[1, 2], 0.0, 10.0);
        let dims: Vec<DimKey> = b.dims().collect();
        s.insert_uncovered(
            key(&b, Some(dims[0])),
            stored(&b, StoredRole::BinaryEval { main: dims[0] }),
        );
        let narrow = op(2, &[1, 2], 2.0, 8.0);
        let same_dir = key(&narrow, Some(dims[0]));
        let other_dir = key(&narrow, Some(dims[1]));
        assert_eq!(s.filter_group(&same_dir).len(), 1);
        assert_eq!(s.filter_group(&other_dir).len(), 0);
        // multis don't mix with binaries either
        assert_eq!(s.filter_group(&key(&narrow, None)).len(), 0);
    }

    #[test]
    fn remove_sub_clears_both_halves_and_the_dim_index() {
        let mut s = MjStore::new();
        let multi = op(1, &[1, 2], 0.0, 10.0);
        let dims: Vec<DimKey> = multi.dims().collect();
        s.insert_uncovered(key(&multi, None), stored(&multi, StoredRole::MultiSplit));
        s.insert_uncovered(
            key(&multi, Some(dims[0])),
            stored(&multi, StoredRole::BinaryEval { main: dims[0] }),
        );
        let other = op(2, &[1], 0.0, 10.0);
        s.insert_covered(
            key(&other, None),
            stored(&other, StoredRole::FilterTransport),
        );
        assert!(s.remove_sub(SubId(1)));
        assert!(!s.remove_sub(SubId(1)), "second removal is a no-op");
        assert_eq!(s.len(), 1, "only sub 2's covered entry remains");
        assert!(scan(&s, 1).is_empty(), "dim index cleaned");
        assert!(s.remove_sub(SubId(2)));
        assert!(s.is_empty());
    }
}
