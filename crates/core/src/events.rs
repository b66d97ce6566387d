//! The per-node event store `U` of Algorithm 5.
//!
//! "All received simple events are stored and indexed by their timestamps
//! (line 3), to facilitate time correlation. Furthermore, each event has a
//! corresponding array of flags (line 2: one flag per neighbor), tracking
//! whether it was forwarded to neighbors, to ensure that no data unit is
//! sent more than once to the same neighbor."
//!
//! Events are dropped once they can no longer time-correlate with future
//! events ("having a finite event validity reflects the expectation that,
//! after a given time, no further time-correlations will appear"); the
//! validity must exceed the largest `δt` in the system (§IV-B).
//!
//! Each event lives once, inline in the time index, next to its flags
//! ([`Stored`]). Correlating around an incoming event runs in *passes* —
//! local delivery, then each neighbor — through the node's [`Correlator`]:
//! **pass → envelope → reduced band → unchanged match**. The caller
//! announces the pass's candidate operators ([`Correlator::begin_pass`]);
//! they are folded into what any of them could match at all — per dimension
//! a predicate names, the hull of the value ranges and, where every region
//! on it is a rectangle, of the regions; one walk of the store's time range
//! per distinct `δt` keeps, in band order, the entries inside. Whatever it
//! drops fails every predicate of every operator of the pass, so
//! [`Correlator::correlate`] runs the same [`Matcher`] to the same
//! participants, `fresh` events, marks and frame order over a much shorter
//! slice. [`MatchMode::LinearScan`], the oracle, keeps the full band: every
//! arrangement-vs-scan battery checks the reduction.
//!
//! As the bands borrow the store, the passes only *record* their `sendTo`
//! marks and the handler applies them ([`EventStore::apply`]) after the
//! event's last pass. No pass can tell: each dedups under scopes no other
//! uses (a local subscription, or one carrying its neighbor `j`) and sees
//! recorded marks.

use fsf_model::{
    ComplexEvent, DimKey, Event, EventId, Matcher, Operator, OperatorKey, Rect, Region, SubId,
    Timestamp, ValueRange,
};
use fsf_network::NodeId;
use fsf_subsumption::MatchMode;
use std::collections::{BTreeMap, BTreeSet};

/// The granularity of the `sendTo` duplicate-suppression flags — the event
/// propagation axis of the paper's Table II.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum SentScope {
    /// Per-neighbor ("publish/subscribe forwarding"): a simple event crosses
    /// each link at most once, no matter how many operators want it —
    /// Filter-Split-Forward and the multi-join baseline.
    Link(NodeId),
    /// Per operator result stream: each operator's result set is forwarded
    /// independently, so overlapping operators re-send the same event —
    /// the naive and operator-placement baselines ("per subscription").
    LinkOp(NodeId, OperatorKey),
    /// Delivery bookkeeping for a local subscription (avoids re-delivering
    /// the same simple event to the same user subscription).
    LocalSub(SubId),
}

/// One stored simple event with its `sendTo` flags.
#[derive(Debug, Clone)]
pub struct Stored {
    event: Event,
    /// Few under per-link dedup (a neighbor or local subscription each):
    /// a scan beats a set.
    sent: Vec<SentScope>,
}

impl Stored {
    /// The event.
    #[must_use]
    pub fn event(&self) -> &Event {
        &self.event
    }

    /// Was the event already sent under `scope`?
    #[must_use]
    pub fn was_sent(&self, scope: &SentScope) -> bool {
        self.sent.contains(scope)
    }
}

impl AsRef<Event> for Stored {
    fn as_ref(&self) -> &Event {
        &self.event
    }
}

/// Timestamp-indexed store of unexpired simple events.
#[derive(Debug, Clone)]
pub struct EventStore {
    /// The events themselves, in insertion order within a timestamp.
    by_time: BTreeMap<Timestamp, Vec<Stored>>,
    by_id: BTreeMap<EventId, Timestamp>,
    validity: u64,
    max_seen: Timestamp,
}

impl EventStore {
    /// Create a store that retains events for `validity` time units past the
    /// newest timestamp observed. `validity` must exceed every operator's
    /// `δt` for correctness of late correlation.
    #[must_use]
    pub fn new(validity: u64) -> Self {
        assert!(validity > 0, "validity must be positive");
        EventStore {
            by_time: BTreeMap::new(),
            by_id: BTreeMap::new(),
            validity,
            max_seen: Timestamp::ZERO,
        }
    }

    /// The configured validity horizon.
    #[must_use]
    pub fn validity(&self) -> u64 {
        self.validity
    }

    /// Insert an event; returns `false` if this event id is already stored
    /// or has already expired relative to the newest seen timestamp.
    pub fn insert(&mut self, event: Event) -> bool {
        if event.timestamp.plus(self.validity) <= self.max_seen {
            return false; // too old to ever correlate
        }
        if self.by_id.contains_key(&event.id) {
            return false;
        }
        self.max_seen = self.max_seen.max(event.timestamp);
        self.by_id.insert(event.id, event.timestamp);
        // one reading per timestamp is common: start at one, not `Vec`'s four
        self.by_time
            .entry(event.timestamp)
            .or_insert_with(|| Vec::with_capacity(1))
            .push(Stored {
                event,
                sent: Vec::new(),
            });
        self.prune();
        true
    }

    /// Drop events older than the validity horizon.
    pub fn prune(&mut self) {
        let cutoff = self.max_seen.minus(self.validity);
        while let Some(oldest) = self.by_time.first_entry() {
            if *oldest.key() >= cutoff {
                break;
            }
            for stored in oldest.remove() {
                self.by_id.remove(&stored.event.id);
            }
        }
    }

    fn stored_in(&self, lo: Timestamp, hi: Timestamp) -> impl Iterator<Item = &Stored> {
        self.by_time.range(lo..=hi).flat_map(|(_, v)| v)
    }

    /// Events with timestamps in `[lo, hi]`, in timestamp order and, within
    /// a timestamp, in the order they were inserted.
    #[must_use]
    pub fn window(&self, lo: Timestamp, hi: Timestamp) -> Vec<&Event> {
        self.stored_in(lo, hi).map(Stored::event).collect()
    }

    /// All stored entries within strict `δt` of `t` — the complete
    /// candidate set for complex events containing an event at `t` — in
    /// timestamp, then insertion order. Outgoing frames list matched events
    /// in band order, so the neighbors' insertion order follows from it.
    fn band(&self, t: Timestamp, delta_t: u64) -> impl Iterator<Item = &Stored> {
        let reach = delta_t.saturating_sub(1);
        self.stored_in(t.minus(reach), t.plus(reach))
    }

    /// [`Self::band`], unfiltered, as a vector.
    #[must_use]
    pub fn correlation_band(&self, t: Timestamp, delta_t: u64) -> Vec<&Stored> {
        self.band(t, delta_t).collect()
    }

    fn stored(&self, id: EventId) -> Option<&Stored> {
        let t = self.by_id.get(&id)?;
        self.by_time[t].iter().find(|s| s.event.id == id)
    }

    /// Was the event already sent under `scope`?
    #[must_use]
    pub fn was_sent(&self, id: EventId, scope: &SentScope) -> bool {
        self.stored(id).is_some_and(|s| s.was_sent(scope))
    }

    /// Mark the event sent under `scope`. Unknown ids are ignored (the event
    /// may have expired between matching and marking — harmless).
    pub fn mark_sent(&mut self, id: EventId, scope: &SentScope) {
        let slot = self.by_id.get(&id).and_then(|t| self.by_time.get_mut(t));
        if let Some(stored) = slot.into_iter().flatten().find(|s| s.event.id == id) {
            if !stored.was_sent(scope) {
                stored.sent.push(scope.clone());
            }
        }
    }

    /// Apply, and clear, the marks a [`Correlator`] recorded.
    pub fn apply(&mut self, mut parked: Correlator<'static>) -> Correlator<'static> {
        let Marks { runs, ids } = &mut parked.marks;
        for (scope, run) in runs.drain(..) {
            for &id in &ids[run] {
                self.mark_sent(id, &scope);
            }
        }
        ids.clear();
        parked
    }

    /// Garbage-collect every stored event of a departed sensor (`SensorDown`
    /// retraction): its readings can never again participate in a
    /// correlation, so keeping them only leaks memory. Returns how many
    /// events were dropped.
    pub fn remove_sensor(&mut self, sensor: fsf_model::SensorId) -> usize {
        let before = self.by_id.len();
        let by_id = &mut self.by_id;
        self.by_time.retain(|_, slot| {
            slot.retain(|s| {
                let keep = s.event.sensor != sensor;
                if !keep {
                    by_id.remove(&s.event.id);
                }
                keep
            });
            !slot.is_empty()
        });
        before - self.by_id.len()
    }

    /// Fetch a stored event.
    #[must_use]
    pub fn get(&self, id: EventId) -> Option<&Event> {
        self.stored(id).map(Stored::event)
    }

    /// Is the event currently stored?
    #[must_use]
    pub fn contains(&self, id: EventId) -> bool {
        self.by_id.contains_key(&id)
    }

    /// Number of stored (unexpired) events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Is the store empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Newest timestamp observed (not necessarily still stored).
    #[must_use]
    pub fn max_seen(&self) -> Timestamp {
        self.max_seen
    }
}

/// The accumulating per-link outgoing frame of one batched matching round.
#[derive(Debug, Default)]
pub struct LinkFrame {
    /// The events to ship, deduplicated by id: one reaching the link via
    /// several triggering events travels once (the receiver would drop it).
    pub batch: Vec<Event>,
    ids: BTreeSet<EventId>,
    /// Charge units: one per [`Self::push`], duplicates included.
    pub units: u64,
}

impl LinkFrame {
    /// Add a matched event.
    pub fn push(&mut self, event: &Event) {
        self.units += 1;
        if self.ids.insert(event.id) {
            self.batch.push(*event);
        }
    }
}

/// `sendTo` marks recorded by a [`Correlator`], for [`EventStore::apply`]:
/// runs of `ids`, each under one scope (few, and short: a scan beats a map).
#[derive(Debug, Default)]
struct Marks {
    runs: Vec<(SentScope, std::ops::Range<usize>)>,
    ids: Vec<EventId>,
}

impl Marks {
    fn contains(&self, scope: &SentScope, id: EventId) -> bool {
        let mut runs = self.runs.iter().filter(|run| run.0 == *scope);
        runs.any(|run| self.ids[run.1.clone()].contains(&id))
    }

    fn record(&mut self, scope: SentScope, ids: impl IntoIterator<Item = EventId>) {
        let start = self.ids.len();
        self.ids.extend(ids);
        self.runs.push((scope, start..self.ids.len()));
    }
}

/// Everything the operators of one pass could match: per dimension any of
/// them names, the hull of its value ranges and — for an attribute
/// dimension whose operators are all `Rect`-bounded — of their regions.
#[derive(Debug, Default)]
struct Envelope {
    dims: Vec<(DimKey, ValueRange, Option<Rect>)>,
    /// Around every dimension's region hull, when each has one: most of a
    /// band fails this one test.
    rect: Option<Rect>,
}

impl Envelope {
    fn fold<'o>(&mut self, ops: impl IntoIterator<Item = &'o Operator>) {
        self.dims.clear();
        for op in ops {
            for p in op.predicates() {
                // sensors ignore the region (`Predicate::applies_to`); `All`, `Circle`: unbounded
                let area = match (p.key, op.region()) {
                    (DimKey::Attr(_), Region::Rect(r)) => Some(*r),
                    _ => None,
                };
                match self.dims.iter_mut().find(|d| d.0 == p.key) {
                    Some((_, range, hull)) => {
                        *range = range.hull(&p.range);
                        *hull = hull.zip(area).map(|(h, a)| h.hull(&a));
                    }
                    None => self.dims.push((p.key, p.range, area)),
                }
            }
        }
        let hulls = self.dims.iter().map(|d| d.2);
        self.rect = hulls.reduce(|a, b| Some(a?.hull(&b?))).flatten();
    }

    /// Could `e` match a predicate of the pass? The bounds are picked, never
    /// computed, from the operators': `false` means every predicate says so.
    fn admits(&self, e: &Event) -> bool {
        self.rect.is_none_or(|r| r.contains(&e.location))
            && self.dims.iter().any(|(key, range, hull)| {
                (*key == DimKey::Attr(e.attr) || *key == DimKey::Sensor(e.sensor))
                    && range.contains(e.value)
                    && hull.is_none_or(|h| h.contains(&e.location))
            })
    }

    fn covers(&self, op: &Operator) -> bool {
        let inside = |h: &Rect| matches!(op.region(), Region::Rect(r) if h.contains_rect(r));
        op.predicates().iter().all(|p| {
            let mut dims = self.dims.iter().filter(|d| d.0 == p.key);
            dims.any(|d| d.1.contains_range(&p.range) && d.2.as_ref().is_none_or(inside))
        })
    }
}

/// An emptied buffer's allocation, kept for elements of another lifetime:
/// the in-place `collect` hands it through (`tests/alloc_budget.rs` watches).
pub fn recycle<A, B>(mut buffer: Vec<A>) -> Vec<B> {
    buffer.clear();
    buffer.into_iter().map(|_| unreachable!()).collect()
}

/// The correlation half of Algorithm 5 (lines 10–14), shared by every
/// engine: pass → envelope → reduced band → [`Matcher::run`] → `sendTo`
/// dedup → mark. A node keeps one, parked ([`Self::park`]) between events so
/// its buffers are allocated once.
#[derive(Debug, Default)]
pub struct Correlator<'a> {
    envelope: Envelope,
    /// The current pass's bands, one per distinct `δt`; retired buffers.
    bands: Vec<(u64, Vec<&'a Stored>)>,
    spare: Vec<Vec<&'a Stored>>,
    matcher: Matcher,
    marks: Marks,
    /// Every participant of the last [`Self::correlate`] match.
    all: Vec<&'a Stored>,
    complex: ComplexEvent,
    /// Those not yet sent under its scope, in band order; the caller may
    /// thin them out before [`Self::mark_fresh`].
    pub fresh: Vec<&'a Stored>,
}

impl<'a> Correlator<'a> {
    /// Start a pass (local delivery, or one neighbor) around the event
    /// `store` took in at time `at`: `ops` are all the operators it will
    /// [`Self::correlate`]. Builds their bands, reduced to their envelope —
    /// or in full under [`MatchMode::LinearScan`], the oracle.
    pub fn begin_pass<'o>(
        &mut self,
        store: &'a EventStore,
        at: Timestamp,
        mode: MatchMode,
        ops: impl IntoIterator<Item = &'o Operator> + Clone,
    ) {
        self.envelope.fold(ops.clone());
        self.spare
            .extend(self.bands.drain(..).map(|(_, band)| band));
        let envelope = &self.envelope;
        let inside = |s: &&Stored| mode == MatchMode::LinearScan || envelope.admits(&s.event);
        for op in ops {
            let dt = op.delta_t();
            if self.bands.iter().all(|b| b.0 != dt) {
                let mut band = self.spare.pop().unwrap_or_default();
                band.clear();
                band.extend(store.band(at, dt).filter(inside));
                self.bands.push((dt, band));
            }
        }
    }

    /// Match `op` inside its `δt` band. On a match, [`Self::fresh`] holds
    /// the participants unsent under `scope()` — built only now, so an
    /// operator that does not match never pays for a scope owning heap data
    /// — and the scope comes back for [`Self::mark_fresh`].
    pub fn correlate(
        &mut self,
        op: &Operator,
        scope: impl FnOnce() -> SentScope,
    ) -> Option<SentScope> {
        debug_assert!(self.envelope.covers(op), "{op:?} is not of this pass");
        let band = &self.bands.iter().find(|b| b.0 == op.delta_t())?.1;
        let participants = self.matcher.run(band, op)?;
        let scope = scope();
        self.all.clear();
        self.fresh.clear();
        for &i in participants {
            let s = band[i];
            self.all.push(s);
            if !s.was_sent(&scope) && !self.marks.contains(&scope, s.event.id) {
                self.fresh.push(s);
            }
        }
        Some(scope)
    }

    /// Is `event` unsent under `scope`, counting the marks recorded here?
    #[must_use]
    pub fn unsent(&self, store: &EventStore, event: EventId, scope: &SentScope) -> bool {
        !store.was_sent(event, scope) && !self.marks.contains(scope, event)
    }

    /// Record `ids` as sent under `scope`.
    pub fn mark(&mut self, scope: SentScope, ids: impl IntoIterator<Item = EventId>) {
        self.marks.record(scope, ids);
    }

    /// Record what is left of [`Self::fresh`] as sent under `scope`.
    pub fn mark_fresh(&mut self, scope: SentScope) {
        let ids = self.fresh.iter().map(|s| s.event.id);
        self.marks.record(scope, ids);
    }

    /// Local delivery (Algorithm 5, `j == n`): the complex event `op` forms
    /// around the incoming event, if a participant is new to its subscription.
    pub fn deliver(&mut self, op: &Operator) -> Option<&ComplexEvent> {
        let scope = self.correlate(op, || SentScope::LocalSub(op.sub()))?;
        if self.fresh.is_empty() {
            return None;
        }
        self.mark_fresh(scope);
        self.complex.refill(self.all.iter().map(|s| s.event));
        Some(&self.complex)
    }

    /// Release the store, keeping the recorded marks for
    /// [`EventStore::apply`] and every buffer's allocation.
    #[must_use]
    pub fn park(self) -> Correlator<'static> {
        let (bands, spare) = (self.bands.into_iter(), self.spare.into_iter());
        Correlator {
            envelope: self.envelope,
            bands: bands.map(|(dt, band)| (dt, recycle(band))).collect(),
            spare: spare.map(recycle).collect(),
            matcher: self.matcher,
            marks: self.marks,
            all: recycle(self.all),
            complex: self.complex,
            fresh: recycle(self.fresh),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsf_model::{AttrId, Point, SensorId};

    fn ev(id: u64, t: u64) -> Event {
        Event {
            id: EventId(id),
            sensor: SensorId(1),
            attr: AttrId(0),
            location: Point::new(0.0, 0.0),
            value: 1.0,
            timestamp: Timestamp(t),
        }
    }

    #[test]
    fn insert_and_window() {
        let mut s = EventStore::new(100);
        assert!(s.insert(ev(1, 10)));
        assert!(s.insert(ev(2, 20)));
        assert!(s.insert(ev(3, 30)));
        assert!(!s.insert(ev(1, 10)), "duplicate id");
        let w = s.window(Timestamp(10), Timestamp(20));
        assert_eq!(w.iter().map(|e| e.id.0).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn expiry_drops_old_events() {
        let mut s = EventStore::new(50);
        s.insert(ev(1, 10));
        s.insert(ev(2, 30));
        assert_eq!(s.len(), 2);
        s.insert(ev(3, 100)); // cutoff becomes 50: drops t=10 and t=30
        assert_eq!(s.len(), 1);
        assert!(!s.contains(EventId(1)));
        assert!(!s.contains(EventId(2)));
        assert!(s.contains(EventId(3)));
    }

    #[test]
    fn stale_insert_is_rejected() {
        let mut s = EventStore::new(50);
        s.insert(ev(1, 100));
        assert!(!s.insert(ev(2, 10)), "older than validity horizon");
        assert!(s.insert(ev(3, 60)), "inside horizon is fine");
    }

    #[test]
    fn correlation_band_is_strictly_within_delta_t() {
        let mut s = EventStore::new(1000);
        for (i, t) in [(1, 70u64), (2, 71), (3, 100), (4, 129), (5, 130)] {
            s.insert(ev(i, t));
        }
        let band = s.correlation_band(Timestamp(100), 30);
        // [71, 129]: strictly-within-30 of 100
        assert_eq!(
            band.iter().map(|s| s.event().id.0).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn sent_flags_per_scope() {
        let mut s = EventStore::new(100);
        s.insert(ev(1, 10));
        let link = SentScope::Link(NodeId(3));
        let sub = SentScope::LocalSub(SubId(7));
        assert!(!s.was_sent(EventId(1), &link));
        s.mark_sent(EventId(1), &link);
        assert!(s.was_sent(EventId(1), &link));
        assert!(!s.was_sent(EventId(1), &SentScope::Link(NodeId(4))));
        assert!(!s.was_sent(EventId(1), &sub));
        s.mark_sent(EventId(1), &sub);
        assert!(s.was_sent(EventId(1), &sub));
        // marking unknown ids is a no-op
        s.mark_sent(EventId(99), &link);
        assert!(!s.was_sent(EventId(99), &SentScope::Link(NodeId(3))));
    }

    #[test]
    fn same_timestamp_events_coexist() {
        let mut s = EventStore::new(100);
        s.insert(ev(1, 10));
        s.insert(ev(2, 10));
        assert_eq!(s.window(Timestamp(10), Timestamp(10)).len(), 2);
    }

    /// Within a timestamp the store answers in *insertion* order, not id
    /// order: outgoing frames list matched events in band order, so this
    /// order is what the neighbors' stores inherit.
    #[test]
    fn same_timestamp_events_keep_insertion_order() {
        let mut s = EventStore::new(100);
        s.insert(ev(9, 10));
        s.insert(ev(4, 10));
        s.insert(ev(7, 5));
        let ids = |w: Vec<&Event>| w.iter().map(|e| e.id.0).collect::<Vec<_>>();
        assert_eq!(ids(s.window(Timestamp(0), Timestamp(20))), vec![7, 9, 4]);
        let band = s.correlation_band(Timestamp(10), 30);
        assert_eq!(ids(band.iter().map(|s| s.event()).collect()), vec![7, 9, 4]);
    }

    fn op_over_sensor_1(sub: u64, delta_t: u64) -> Operator {
        let s = fsf_model::Subscription::identified(
            SubId(sub),
            [(SensorId(1), fsf_model::ValueRange::new(0.0, 10.0))],
            delta_t,
        )
        .unwrap();
        Operator::from_subscription(&s)
    }

    #[test]
    fn correlator_dedups_against_stored_and_recorded_marks() {
        let mut s = EventStore::new(100);
        for (id, t) in [(1, 10), (2, 12), (3, 50)] {
            s.insert(ev(id, t));
        }
        let link = SentScope::Link(NodeId(3));
        s.mark_sent(EventId(1), &link);
        let op = op_over_sensor_1(7, 5);
        let ids = |v: &[&Stored]| v.iter().map(|s| s.event().id.0).collect::<Vec<_>>();

        let again = op_over_sensor_1(8, 5);
        let mut corr = Correlator::default();
        corr.begin_pass(&s, Timestamp(12), MatchMode::Arrangement, [&op, &again]);
        let scope = corr.correlate(&op, || link.clone()).unwrap();
        assert_eq!(ids(&corr.all), vec![1, 2], "t=50 is outside the band");
        assert_eq!(ids(&corr.fresh), vec![2], "1 carries a stored flag");
        corr.mark_fresh(scope);
        // a later operator of the same pass sees the recorded mark …
        assert!(!corr.unsent(&s, EventId(2), &link));
        corr.correlate(&again, || link.clone()).unwrap();
        assert!(corr.fresh.is_empty());
        // … another scope does not, and the store only learns at apply()
        let other = SentScope::Link(NodeId(4));
        corr.correlate(&again, || other.clone()).unwrap();
        assert_eq!(ids(&corr.fresh), vec![1, 2]);
        let parked = corr.park();
        assert!(!s.was_sent(EventId(2), &link));
        let parked = s.apply(parked);
        assert!(
            parked.marks.ids.is_empty(),
            "applied marks are not applied twice"
        );
        assert!(s.was_sent(EventId(2), &link));
        assert!(!s.was_sent(EventId(2), &other));
    }

    #[test]
    fn correlator_builds_nothing_for_a_non_match() {
        let mut s = EventStore::new(100);
        s.insert(ev(1, 10));
        let mut corr = Correlator::default();
        let two_dims = fsf_model::Subscription::identified(
            SubId(1),
            [
                (SensorId(1), fsf_model::ValueRange::new(0.0, 10.0)),
                (SensorId(2), fsf_model::ValueRange::new(0.0, 10.0)),
            ],
            5,
        )
        .unwrap();
        let op = Operator::from_subscription(&two_dims);
        corr.begin_pass(&s, Timestamp(10), MatchMode::Arrangement, [&op]);
        let scope = || -> SentScope { panic!("no match, no scope") };
        assert!(corr.correlate(&op, scope).is_none());
    }

    fn abstract_op(sub: u64, attrs: &[(u16, f64, f64)], region: Region) -> Operator {
        let filters = attrs
            .iter()
            .map(|&(a, lo, hi)| (AttrId(a), fsf_model::ValueRange::new(lo, hi)));
        let s = fsf_model::Subscription::abstract_over(SubId(sub), filters, region, 5, None);
        Operator::from_subscription(&s.unwrap())
    }

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    fn reading(sensor: u32, attr: u16, value: f64, x: f64, y: f64) -> Event {
        Event {
            sensor: SensorId(sensor),
            attr: AttrId(attr),
            value,
            location: Point::new(x, y),
            ..ev(1, 10)
        }
    }

    #[test]
    fn envelope_is_the_hull_of_ranges_and_rect_regions() {
        let a = abstract_op(
            1,
            &[(0, 0.0, 10.0), (1, 5.0, 6.0)],
            Region::Rect(rect(0., 0., 2., 2.)),
        );
        let b = abstract_op(2, &[(0, 20.0, 30.0)], Region::Rect(rect(5., 5., 6., 6.)));
        let mut env = Envelope::default();
        env.fold([&a, &b]);
        assert_eq!(env.rect, Some(rect(0., 0., 6., 6.)));
        assert!(env.covers(&a) && env.covers(&b));
        // inside the hull of both, though neither operator takes it
        assert!(env.admits(&reading(9, 0, 15.0, 4.0, 4.0)));
        // bounds and edges are inclusive, and -0.0 is 0.0
        assert!(env.admits(&reading(9, 0, 30.0, 6.0, -0.0)));
        assert!(env.admits(&reading(9, 0, -0.0, 0.0, 6.0)));
        assert!(!env.admits(&reading(9, 0, 30.1, 1.0, 1.0)), "value");
        assert!(!env.admits(&reading(9, 0, f64::NAN, 1.0, 1.0)), "NaN value");
        assert!(!env.admits(&reading(9, 0, 5.0, 6.1, 1.0)), "location");
        assert!(
            !env.admits(&reading(9, 2, 5.0, 1.0, 1.0)),
            "unnamed attribute"
        );
        // attribute 1 is only asked for inside a's region
        assert!(env.admits(&reading(9, 1, 5.5, 2.0, 2.0)));
        assert!(!env.admits(&reading(9, 1, 5.5, 5.5, 5.5)));
    }

    #[test]
    fn a_circle_or_all_unbounds_its_dimension_only() {
        let boxed = abstract_op(
            1,
            &[(0, 0.0, 10.0), (1, 0.0, 10.0)],
            Region::Rect(rect(0., 0., 2., 2.)),
        );
        let disc = Region::Circle {
            center: Point::new(1.0, 1.0),
            radius: 1.0,
        };
        for region in [Region::All, disc] {
            let open = abstract_op(2, &[(1, 0.0, 10.0)], region);
            let mut env = Envelope::default();
            env.fold([&boxed, &open]);
            assert_eq!(env.rect, None, "one unbounded dimension, no rectangle");
            assert!(env.covers(&boxed) && env.covers(&open));
            assert!(env.admits(&reading(9, 1, 5.0, 99.0, 99.0)), "{region:?}");
            assert!(!env.admits(&reading(9, 0, 5.0, 99.0, 99.0)), "still boxed");
        }
    }

    #[test]
    fn a_sensor_dimension_ignores_the_region() {
        let named = op_over_sensor_1(1, 5);
        let boxed = abstract_op(2, &[(0, 0.0, 10.0)], Region::Rect(rect(0., 0., 2., 2.)));
        let mut env = Envelope::default();
        env.fold([&named, &boxed]);
        assert_eq!(env.rect, None);
        assert!(env.admits(&reading(1, 7, 5.0, 99.0, 99.0)), "by sensor");
        assert!(
            !env.admits(&reading(1, 7, 11.0, 1.0, 1.0)),
            "sensor 1's range"
        );
        assert!(env.admits(&reading(2, 0, 5.0, 1.0, 1.0)), "by attribute");
        assert!(!env.admits(&reading(2, 0, 5.0, 99.0, 99.0)));
        // listening everywhere on attribute 0 was not announced
        let wide = abstract_op(3, &[(0, 0.0, 10.0)], Region::All);
        assert!(!env.covers(&wide), "not of this pass");
    }

    #[test]
    fn an_empty_pass_admits_nothing_and_correlates_nothing() {
        let mut s = EventStore::new(100);
        s.insert(ev(1, 10));
        let mut corr = Correlator::default();
        corr.begin_pass(
            &s,
            Timestamp(10),
            MatchMode::Arrangement,
            [&op_over_sensor_1(1, 5)],
        );
        corr.begin_pass(&s, Timestamp(10), MatchMode::Arrangement, []);
        assert!(corr.envelope.dims.is_empty() && corr.envelope.rect.is_none());
        assert!(!corr.envelope.admits(&ev(1, 10)));
        assert!(corr.bands.is_empty(), "no band is built");
    }

    /// The reduced band keeps band order and only what the envelope admits;
    /// the oracle mode keeps everything; parking keeps the buffers.
    #[test]
    fn a_pass_reduces_its_bands_unless_it_is_the_oracle() {
        let mut s = EventStore::new(100);
        let log = [(1, 1, 5.0), (2, 2, 5.0), (3, 1, 50.0), (4, 1, 6.0)];
        for (id, sensor, value) in log {
            s.insert(Event {
                sensor: SensorId(sensor),
                value,
                ..ev(id, 10 + id)
            });
        }
        let op = op_over_sensor_1(7, 5);
        let ids = |v: &[&Stored]| v.iter().map(|s| s.event().id.0).collect::<Vec<_>>();
        let mut corr = Correlator::default();
        corr.begin_pass(&s, Timestamp(12), MatchMode::LinearScan, [&op]);
        assert_eq!(ids(&corr.bands[0].1), vec![1, 2, 3, 4]);
        corr.begin_pass(&s, Timestamp(12), MatchMode::Arrangement, [&op]);
        assert_eq!(ids(&corr.bands[0].1), vec![1, 4]);
        corr.correlate(&op, || SentScope::Link(NodeId(3))).unwrap();
        assert_eq!(ids(&corr.all), vec![1, 4]);
        let parked = corr.park();
        assert!(parked.bands[0].1.is_empty() && parked.bands[0].1.capacity() >= 4);
        assert!(parked.all.is_empty() && parked.all.capacity() >= 2);
    }

    #[test]
    #[should_panic(expected = "validity")]
    fn zero_validity_rejected() {
        let _ = EventStore::new(0);
    }
}
