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
//! ([`Stored`]). A correlation band is a range walk borrowing those
//! entries; a [`Correlator`] builds it once per (incoming event, `δt`) for
//! local delivery and every neighbor pass to share. As the band borrows
//! the store, the passes only *record* their `sendTo` marks and the handler
//! applies them ([`EventStore::apply`]) after the event's last pass. No
//! pass can tell: each dedups under scopes no other uses (a local
//! subscription, or one carrying its neighbor `j`) and sees recorded marks.

use fsf_model::{ComplexEvent, Event, EventId, Matcher, Operator, OperatorKey, SubId, Timestamp};
use fsf_network::NodeId;
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
    #[must_use]
    pub fn correlation_band(&self, t: Timestamp, delta_t: u64) -> Vec<&Stored> {
        self.stored_in(
            t.minus(delta_t.saturating_sub(1)),
            t.plus(delta_t.saturating_sub(1)),
        )
        .collect()
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
    pub fn mark_sent(&mut self, id: EventId, scope: SentScope) {
        let slot = self.by_id.get(&id).and_then(|t| self.by_time.get_mut(t));
        if let Some(stored) = slot.into_iter().flatten().find(|s| s.event.id == id) {
            if !stored.was_sent(&scope) {
                stored.sent.push(scope);
            }
        }
    }

    /// Apply the marks a [`Correlator`] recorded.
    pub fn apply(&mut self, marks: Marks) {
        for (scope, ids) in marks {
            for id in ids {
                self.mark_sent(id, scope.clone());
            }
        }
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

/// `sendTo` marks recorded by a [`Correlator`], for [`EventStore::apply`].
pub type Marks = BTreeMap<SentScope, BTreeSet<EventId>>;

/// The correlation half of Algorithm 5 (lines 10–14) around one incoming
/// event, shared by every engine: band → [`fsf_model::complex_match`] →
/// `sendTo` dedup → mark. Holds one borrowed band per distinct `δt` asked
/// for and the marks recorded so far.
#[derive(Debug)]
pub struct Correlator<'a> {
    store: &'a EventStore,
    at: Timestamp,
    bands: Vec<(u64, Vec<&'a Stored>)>,
    matcher: Matcher,
    marks: Marks,
    /// Every participant of the last [`Self::correlate`] match.
    all: Vec<&'a Stored>,
    /// Those not yet sent under its scope, in band order; the caller may
    /// thin them out before [`Self::mark_fresh`].
    pub fresh: Vec<&'a Stored>,
}

impl<'a> Correlator<'a> {
    /// Correlate around an event stored at time `at`.
    #[must_use]
    pub fn new(store: &'a EventStore, at: Timestamp) -> Self {
        Correlator {
            store,
            at,
            bands: Vec::new(),
            matcher: Matcher::default(),
            marks: Marks::default(),
            all: Vec::new(),
            fresh: Vec::new(),
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
        let dt = op.delta_t();
        let built = self.bands.iter().position(|(d, _)| *d == dt);
        let i = built.unwrap_or_else(|| {
            let band = self.store.correlation_band(self.at, dt);
            self.bands.push((dt, band));
            self.bands.len() - 1
        });
        let band = &self.bands[i].1;
        let participants = self.matcher.run(band, op)?;
        let scope = scope();
        let recorded = self.marks.get(&scope);
        self.all.clear();
        self.fresh.clear();
        for &i in participants {
            let s = band[i];
            self.all.push(s);
            if !s.was_sent(&scope) && !recorded.is_some_and(|ids| ids.contains(&s.event.id)) {
                self.fresh.push(s);
            }
        }
        Some(scope)
    }

    /// Is `event` unsent under `scope`, counting the marks recorded here?
    #[must_use]
    pub fn unsent(&self, event: EventId, scope: &SentScope) -> bool {
        let recorded = self.marks.get(scope);
        !self.store.was_sent(event, scope) && !recorded.is_some_and(|ids| ids.contains(&event))
    }

    /// Record `ids` as sent under `scope`.
    pub fn mark(&mut self, scope: SentScope, ids: impl IntoIterator<Item = EventId>) {
        self.marks.entry(scope).or_default().extend(ids);
    }

    /// Record what is left of [`Self::fresh`] as sent under `scope`.
    pub fn mark_fresh(&mut self, scope: SentScope) {
        let ids = self.fresh.iter().map(|s| s.event.id);
        self.marks.entry(scope).or_default().extend(ids);
    }

    /// Local delivery (Algorithm 5, `j == n`): the complex event `op` forms
    /// around the incoming event, if a participant is new to its subscription.
    pub fn deliver(&mut self, op: &Operator) -> Option<ComplexEvent> {
        let scope = self.correlate(op, || SentScope::LocalSub(op.sub()))?;
        if self.fresh.is_empty() {
            return None;
        }
        self.mark_fresh(scope);
        let events = self.all.iter().map(|s| s.event).collect();
        Some(ComplexEvent::new(events))
    }

    /// The recorded marks, releasing the borrow of the store.
    #[must_use]
    pub fn finish(self) -> Marks {
        self.marks
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
        s.mark_sent(EventId(1), link.clone());
        assert!(s.was_sent(EventId(1), &link));
        assert!(!s.was_sent(EventId(1), &SentScope::Link(NodeId(4))));
        assert!(!s.was_sent(EventId(1), &sub));
        s.mark_sent(EventId(1), sub.clone());
        assert!(s.was_sent(EventId(1), &sub));
        // marking unknown ids is a no-op
        s.mark_sent(EventId(99), link);
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
        s.mark_sent(EventId(1), link.clone());
        let op = op_over_sensor_1(7, 5);
        let ids = |v: &[&Stored]| v.iter().map(|s| s.event().id.0).collect::<Vec<_>>();

        let mut corr = Correlator::new(&s, Timestamp(12));
        let scope = corr.correlate(&op, || link.clone()).unwrap();
        assert_eq!(ids(&corr.all), vec![1, 2], "t=50 is outside the band");
        assert_eq!(ids(&corr.fresh), vec![2], "1 carries a stored flag");
        corr.mark_fresh(scope);
        // a later operator of the same pass sees the recorded mark …
        assert!(!corr.unsent(EventId(2), &link));
        let again = op_over_sensor_1(8, 5);
        corr.correlate(&again, || link.clone()).unwrap();
        assert!(corr.fresh.is_empty());
        // … another scope does not, and the store only learns at apply()
        let other = SentScope::Link(NodeId(4));
        corr.correlate(&again, || other.clone()).unwrap();
        assert_eq!(ids(&corr.fresh), vec![1, 2]);
        let marks = corr.finish();
        assert!(!s.was_sent(EventId(2), &link));
        s.apply(marks);
        assert!(s.was_sent(EventId(2), &link));
        assert!(!s.was_sent(EventId(2), &other));
    }

    #[test]
    fn correlator_builds_nothing_for_a_non_match() {
        let mut s = EventStore::new(100);
        s.insert(ev(1, 10));
        let mut corr = Correlator::new(&s, Timestamp(10));
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
        let scope = || -> SentScope { panic!("no match, no scope") };
        assert!(corr.correlate(&op, scope).is_none());
    }

    #[test]
    #[should_panic(expected = "validity")]
    fn zero_validity_rejected() {
        let _ = EventStore::new(0);
    }
}
