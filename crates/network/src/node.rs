//! What every engine implements and what it sees of the network: the
//! [`NodeBehavior`] trait, the per-message [`Ctx`] handed to it, and the
//! [`DeliveryLog`] its deliveries land in (appended now, settled at the
//! end of the pump that recorded them). Everything *below* this seam —
//! queues, clocks, crashes, partitions — belongs to the
//! [`Simulator`](crate::Simulator) (or to `fsf-runtime`'s live hosts, which
//! drive the same trait through [`Ctx::external`]).

use crate::latency::LatencySummary;
use crate::topology::{NodeId, RegraftDelta, Topology};
use crate::traffic::ChargeKind;
use fsf_model::{ComplexEvent, EventId, SubId};
use std::collections::BTreeMap;

/// The node-logic trait implemented by every engine (FSF and the four
/// baselines).
pub trait NodeBehavior {
    /// The engine's wire message type.
    type Msg: Clone + std::fmt::Debug;

    /// Handle one message. `from == ctx.node()` signals a locally injected
    /// item (the paper's `n == m` case: a local user subscription, a local
    /// sensor reading, or a local sensor appearing).
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>);

    /// The topology changed around this node (a crashed neighbor's subtree
    /// was re-grafted). Nodes with precomputed routing state (e.g. the
    /// centralized baseline's next-hop table) refresh it here; the default
    /// is a no-op because the pub/sub family reads `ctx.neighbors()` fresh
    /// on every message. Always invoked immediately at the crash (stale
    /// next-hop tables would route into walls); the *recovery protocol*
    /// runs separately through [`Self::on_recover`], which may be deferred.
    fn on_topology_change(&mut self, _topology: &Topology) {}

    /// Run this node's part of the crash-recovery protocol for one
    /// `crash + regraft` event. Only the crashed node's former neighbors
    /// (the `delta`'s anchor and orphans) have anything to do: they purge
    /// per-origin state that referenced the corpse and exchange repairs
    /// across the new edges, where the regraft changed their next hops;
    /// every other node's routes are unchanged. Invoked through
    /// [`Simulator::run_recovery`](crate::Simulator::run_recovery) with a live [`Ctx`], so recovery traffic
    /// is scheduled on the virtual clock and races in-flight floods like
    /// any other message. The default is a no-op (test behaviours, plain
    /// relays).
    fn on_recover(&mut self, _delta: &RegraftDelta, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// A severed link to `peer` was healed: the partitions on each side of
    /// the cut diverged (floods dropped at the cut), so reconcile across
    /// the revived edge — re-offer advertisements/generations and re-split
    /// operators toward `peer`. Invoked through [`Simulator::heal_link`](crate::Simulator::heal_link)
    /// with a live [`Ctx`] on *both* endpoints, so reconciliation traffic
    /// rides the virtual clock like recovery traffic. Default is a no-op.
    fn on_link_up(&mut self, _peer: NodeId, _ctx: &mut Ctx<'_, Self::Msg>) {}
}

/// What a node may do while handling a message: send to neighbors, deliver
/// results to its local users, and read the virtual clock.
#[derive(Debug)]
pub struct Ctx<'a, M> {
    node: NodeId,
    neighbors: &'a [NodeId],
    now: u64,
    outbox: &'a mut Vec<(NodeId, M, ChargeKind, u64)>,
    deliveries: &'a mut DeliveryLog,
}

impl<'a, M> Ctx<'a, M> {
    /// Construct a context for an external executor (e.g. the threaded
    /// runtime in `fsf-runtime`) that drives [`NodeBehavior`] outside the
    /// simulator. The executor owns the outbox and delivery log and is
    /// responsible for dispatching/charging the drained sends; `now` is its
    /// notion of virtual time (0 for wall-clock executors without one).
    #[must_use]
    pub fn external(
        node: NodeId,
        neighbors: &'a [NodeId],
        now: u64,
        outbox: &'a mut Vec<(NodeId, M, ChargeKind, u64)>,
        deliveries: &'a mut DeliveryLog,
    ) -> Self {
        Ctx {
            node,
            neighbors,
            now,
            outbox,
            deliveries,
        }
    }

    /// The node executing.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's neighbors (sorted).
    #[must_use]
    pub fn neighbors(&self) -> &[NodeId] {
        self.neighbors
    }

    /// The virtual clock: the `deliver_at` of the message being handled.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Send `msg` to neighbor `to`, charging `units` of `kind` traffic on
    /// the link. Panics if `to` is not a neighbor — the system model only
    /// has local interaction.
    pub fn send(&mut self, to: NodeId, msg: M, kind: ChargeKind, units: u64) {
        assert!(
            self.neighbors.binary_search(&to).is_ok(),
            "{} is not a neighbor of {}",
            to,
            self.node
        );
        self.outbox.push((to, msg, kind, units));
    }

    /// Deliver a complex event to a local user's subscription.
    pub fn deliver(&mut self, sub: SubId, event: &ComplexEvent) {
        self.deliveries.record_at(sub, event, self.now);
    }
}

/// Results delivered to end users, as needed for the recall metric
/// (§VI-F): per subscription, the set of simple events that reached the
/// user inside at least one delivered complex event — plus, per delivery,
/// the virtual-time latency from reading injection to delivery.
///
/// **Append now, settle at the boundary.** [`Self::record_at`] only appends
/// `(sub, event)` units to an unsettled tail. [`Self::settle`] (`&mut`)
/// sorts and deduplicates the tail and folds each subscription's run into
/// that subscription's sorted id list. The simulator settles at the end of
/// every pump and every management-plane callback, and
/// [`Self::drain_into`] settles the log it fills, so every log an engine
/// hands out is settled. The readers ([`Self::delivered`],
/// [`Self::subs`], [`Self::total_event_units`], `==`) assert that it is: a
/// stale read panics instead of silently missing units. This is the
/// settle-then-borrow rule of `fsf_subsumption::RangeIndex`.
///
/// Equality compares the *delivered results* only (per-sub sets and the
/// delivery count), not the latency samples: two engines can deliver the
/// identical result sets at different speeds, and the equivalence tests
/// compare logs across engines.
#[derive(Debug, Clone, Default)]
pub struct DeliveryLog {
    /// Settled results: every subscription with a delivery and its
    /// delivered ids, both sorted and deduplicated.
    per_sub: Vec<(SubId, Vec<EventId>)>,
    /// Units recorded since the last [`Self::settle`].
    unsettled: Vec<(SubId, EventId)>,
    complex_deliveries: u64,
    /// Virtual injection time per simple event, registered by the engine
    /// wrapper when the reading enters the network.
    injected_at: BTreeMap<EventId, u64>,
    /// One sample per complex delivery whose constituents have a known
    /// injection time: delivery tick − injection tick of the *latest*
    /// injected constituent (the reading that completed the match).
    latencies: Vec<u64>,
    /// Deliveries recorded before any constituent's injection time was
    /// locally known: the live hosts' node tasks record into their own logs,
    /// which hold no registry; injections register on the management
    /// plane's log. Each entry is `(end, at)`, its constituents
    /// `pending_ids[previous end..end]`; it resolves into a latency sample
    /// when [`Self::drain_into`] moves it into the log holding the
    /// injection registry.
    pending: Vec<(usize, u64)>,
    pending_ids: Vec<EventId>,
}

impl PartialEq for DeliveryLog {
    fn eq(&self, other: &Self) -> bool {
        self.assert_settled();
        other.assert_settled();
        self.per_sub == other.per_sub && self.complex_deliveries == other.complex_deliveries
    }
}

impl Eq for DeliveryLog {}

impl DeliveryLog {
    /// Empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register the virtual time a simple event was injected at (enables
    /// latency accounting for deliveries containing it).
    pub fn note_injection(&mut self, event: EventId, at: u64) {
        self.injected_at.entry(event).or_insert(at);
    }

    /// Record one complex event delivered at virtual time `at`: its units
    /// join the unsettled tail until the next [`Self::settle`].
    pub fn record_at(&mut self, sub: SubId, event: &ComplexEvent, at: u64) {
        self.complex_deliveries += 1;
        let ids = event.events().iter().map(|e| e.id);
        self.unsettled.extend(ids.clone().map(|id| (sub, id)));
        self.sample(ids, at);
    }

    /// A latency sample for a delivery of `ids` at `at`, anchored at its
    /// latest registered constituent — or, with none registered here, a
    /// pending entry.
    fn sample(&mut self, ids: impl Iterator<Item = EventId> + Clone, at: u64) {
        let injected = ids
            .clone()
            .filter_map(|id| self.injected_at.get(&id).copied())
            .max();
        match injected {
            Some(injected) => self.latencies.push(at.saturating_sub(injected)),
            None => {
                self.pending_ids.extend(ids);
                self.pending.push((self.pending_ids.len(), at));
            }
        }
    }

    /// Fold the unsettled tail into the per-sub lists: one sort and dedup
    /// of the tail, then per subscription an append when its run starts
    /// after the last stored id (a sort + dedup otherwise). Subscriptions
    /// new to this settle are merged in with one pass.
    pub fn settle(&mut self) {
        if self.unsettled.is_empty() {
            return;
        }
        self.unsettled.sort_unstable();
        self.unsettled.dedup();
        let settled = self.per_sub.len();
        let mut at = 0;
        for run in self.unsettled.chunk_by(|a, b| a.0 == b.0) {
            let sub = run[0].0;
            let ids = run.iter().map(|&(_, id)| id);
            at += self.per_sub[at..settled].partition_point(|&(s, _)| s < sub);
            if at < settled && self.per_sub[at].0 == sub {
                let events = &mut self.per_sub[at].1;
                let appends = events.last().is_none_or(|&last| last < run[0].1);
                events.extend(ids);
                if !appends {
                    events.sort();
                    events.dedup();
                }
            } else {
                self.per_sub.push((sub, ids.collect()));
            }
        }
        if self.per_sub.len() > settled {
            self.per_sub.sort_by_key(|&(sub, _)| sub);
        }
        self.unsettled.clear();
    }

    fn assert_settled(&self) {
        assert!(
            self.unsettled.is_empty(),
            "settle() the delivery log before reading it"
        );
    }

    /// Simple events delivered for `sub`, sorted (empty if none).
    ///
    /// # Panics
    /// If the log holds unsettled units.
    #[must_use]
    pub fn delivered(&self, sub: SubId) -> &[EventId] {
        self.assert_settled();
        match self.per_sub.binary_search_by_key(&sub, |&(s, _)| s) {
            Ok(i) => &self.per_sub[i].1,
            Err(_) => &[],
        }
    }

    /// Number of `deliver` calls (complex events, duplicates included).
    #[must_use]
    pub fn complex_deliveries(&self) -> u64 {
        self.complex_deliveries
    }

    /// Raw delivery-latency samples (virtual ticks), in delivery order.
    #[must_use]
    pub fn latency_samples(&self) -> &[u64] {
        &self.latencies
    }

    /// p50/p95/max of the delivery latencies observed so far.
    #[must_use]
    pub fn latency_summary(&self) -> LatencySummary {
        LatencySummary::from_samples(&self.latencies)
    }

    /// Subscriptions with at least one delivery, ascending.
    ///
    /// # Panics
    /// If the log holds unsettled units.
    pub fn subs(&self) -> impl Iterator<Item = SubId> + '_ {
        self.assert_settled();
        self.per_sub.iter().map(|&(sub, _)| sub)
    }

    /// Total distinct (subscription, simple event) delivery pairs.
    ///
    /// # Panics
    /// If the log holds unsettled units.
    #[must_use]
    pub fn total_event_units(&self) -> u64 {
        self.assert_settled();
        self.per_sub.iter().map(|(_, ids)| ids.len() as u64).sum()
    }

    /// Move this log's *results* (per-sub sets, delivery count, latency
    /// samples, pending deliveries) into `target` and settle it, leaving
    /// injection times behind so future deliveries keep their latency
    /// anchor. Pending deliveries resolve against `target`'s registry on
    /// the way in; the ones it cannot anchor stay pending there. The
    /// results move, so draining the same log twice adds nothing. Every
    /// per-worker log folds through this: a shard's after every pump, a
    /// host node task's after every handler and again at the host's reads.
    pub fn drain_into(&mut self, target: &mut DeliveryLog) {
        target.complex_deliveries += std::mem::take(&mut self.complex_deliveries);
        for (sub, ids) in self.per_sub.drain(..) {
            target.unsettled.extend(ids.into_iter().map(|id| (sub, id)));
        }
        target.unsettled.append(&mut self.unsettled);
        target.latencies.append(&mut self.latencies);
        let mut start = 0;
        for (end, at) in self.pending.drain(..) {
            target.sample(self.pending_ids[start..end].iter().copied(), at);
            start = end;
        }
        self.pending_ids.clear();
        target.settle();
    }
}

/// The elements of sorted `a` that sorted `b` lacks, in order: set
/// difference over [`DeliveryLog::delivered`] slices. `a ⊆ b` exactly when
/// it is empty.
pub fn difference<'a, T: Ord>(a: &'a [T], b: &'a [T]) -> impl Iterator<Item = &'a T> + 'a {
    let mut b = b.iter().peekable();
    a.iter().filter(move |&x| {
        while b.next_if(|&y| y < x).is_some() {}
        b.peek() != Some(&x)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsf_model::{AttrId, Event, Point, SensorId, Timestamp};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn ev(id: u64) -> Event {
        ev_at(id, id)
    }

    fn ev_at(id: u64, ts: u64) -> Event {
        Event {
            id: EventId(id),
            sensor: SensorId(1),
            attr: AttrId(0),
            location: Point::new(0.0, 0.0),
            value: 0.0,
            timestamp: Timestamp(ts),
        }
    }

    #[test]
    fn delivery_log_tracks_distinct_simple_events() {
        let mut log = DeliveryLog::new();
        log.record_at(SubId(1), &ComplexEvent::new(vec![ev(1), ev(2)]), 0);
        log.record_at(SubId(1), &ComplexEvent::new(vec![ev(2), ev(3)]), 0);
        log.record_at(SubId(2), &ComplexEvent::new(vec![ev(1)]), 0);
        log.settle();
        assert_eq!(log.complex_deliveries(), 3);
        assert_eq!(
            log.delivered(SubId(1)),
            &[EventId(1), EventId(2), EventId(3)]
        );
        assert_eq!(log.delivered(SubId(2)).len(), 1);
        assert_eq!(log.delivered(SubId(9)).len(), 0);
        assert_eq!(log.total_event_units(), 4);
        assert_eq!(log.subs().count(), 2);
    }

    #[test]
    #[should_panic(expected = "settle() the delivery log")]
    fn reading_an_unsettled_log_panics() {
        let mut log = DeliveryLog::new();
        log.record_at(SubId(1), &ComplexEvent::new(vec![ev(1)]), 0);
        let _ = log.delivered(SubId(1));
    }

    #[test]
    fn delivery_latency_measures_injection_to_delivery() {
        let mut log = DeliveryLog::new();
        log.note_injection(EventId(1), 100);
        log.note_injection(EventId(2), 130);
        // the delivery at t=142 was completed by event 2 (injected 130)
        log.record_at(SubId(1), &ComplexEvent::new(vec![ev(1), ev(2)]), 142);
        assert_eq!(log.latency_samples(), &[12]);
        // a delivery with no known constituents contributes no sample
        log.record_at(SubId(1), &ComplexEvent::new(vec![ev(9)]), 500);
        assert_eq!(log.latency_samples().len(), 1);
        let s = log.latency_summary();
        assert_eq!((s.samples, s.p50, s.p95, s.max), (1, 12, 12, 12));
        // equality ignores timing: same results at different speeds compare
        // equal
        let mut other = DeliveryLog::new();
        other.record_at(SubId(1), &ComplexEvent::new(vec![ev(1), ev(2)]), 0);
        other.record_at(SubId(1), &ComplexEvent::new(vec![ev(9)]), 0);
        log.settle();
        other.settle();
        assert_eq!(log, other);
    }

    #[test]
    fn pending_latencies_resolve_when_drained_into_the_injection_registry() {
        // the live hosts' shape: injections register on the management
        // plane's log, deliveries record into a node task's own log that
        // drains into it
        let mut shared = DeliveryLog::new();
        shared.note_injection(EventId(1), 100);
        shared.note_injection(EventId(2), 130);
        let mut local = DeliveryLog::new();
        local.record_at(SubId(1), &ComplexEvent::new(vec![ev(1), ev(2)]), 142);
        assert!(local.latency_samples().is_empty(), "no local registry yet");
        local.drain_into(&mut shared);
        assert_eq!(shared.latency_samples(), &[12]);
        // a delivery whose constituents were never registered stays
        // sample-less even after the drain
        let mut stray = DeliveryLog::new();
        stray.record_at(SubId(1), &ComplexEvent::new(vec![ev(9)]), 500);
        stray.drain_into(&mut shared);
        assert_eq!(shared.latency_samples(), &[12]);
        assert_eq!(shared.complex_deliveries(), 2);
    }

    #[test]
    fn draining_the_same_host_log_twice_is_idempotent() {
        // a host node task's log drained twice (as after every handler)
        // must not double-count latency samples or deliveries
        let mut shared = DeliveryLog::new();
        shared.note_injection(EventId(1), 100);
        let mut local = DeliveryLog::new();
        local.record_at(SubId(1), &ComplexEvent::new(vec![ev(1)]), 110);
        local.record_at(SubId(1), &ComplexEvent::new(vec![ev(7)]), 120); // stays pending
        local.drain_into(&mut shared);
        assert_eq!(shared.complex_deliveries(), 2);
        assert_eq!(shared.latency_samples(), &[10]);
        // the drain moved the local results…
        assert_eq!(local.complex_deliveries(), 0);
        // …so a second drain of the same log changes nothing
        local.drain_into(&mut shared);
        assert_eq!(shared.complex_deliveries(), 2);
        assert_eq!(shared.latency_samples(), &[10]);
        assert_eq!(shared.delivered(SubId(1)).len(), 2);
        // the straggler resolves exactly once, in the first log it reaches
        // that registered its injection
        let mut cache = DeliveryLog::new();
        cache.note_injection(EventId(7), 115);
        shared.drain_into(&mut cache);
        assert_eq!(cache.latency_samples(), &[10, 5]);
        shared.drain_into(&mut cache);
        assert_eq!(cache.latency_samples(), &[10, 5], "resolution idempotent");
        assert_eq!(cache.complex_deliveries(), 2);
    }

    #[test]
    fn difference_walks_two_sorted_slices() {
        let ids = |v: &[u64]| v.iter().map(|&i| EventId(i)).collect::<Vec<_>>();
        let (a, b) = (ids(&[1, 3, 5, 7]), ids(&[0, 3, 4, 7, 9]));
        assert_eq!(difference(&a, &b).collect::<Vec<_>>(), [&a[0], &a[2]]);
        assert_eq!(difference(&b, &a).count(), 3);
        assert!(difference(&a[1..2], &b).next().is_none(), "{{3}} ⊆ b");
        assert!(difference(&[] as &[EventId], &a).next().is_none());
    }

    /// The naive log the columnar one replaced: one set per subscription,
    /// updated per unit, and pending deliveries kept as owned id lists.
    #[derive(Default)]
    struct Model {
        per_sub: BTreeMap<SubId, BTreeSet<EventId>>,
        complex_deliveries: u64,
        injected_at: BTreeMap<EventId, u64>,
        latencies: Vec<u64>,
        pending: Vec<(Vec<EventId>, u64)>,
    }

    impl Model {
        fn record_at(&mut self, sub: SubId, ids: Vec<EventId>, at: u64) {
            self.complex_deliveries += 1;
            self.per_sub.entry(sub).or_default().extend(&ids);
            self.sample(ids, at);
        }

        fn sample(&mut self, ids: Vec<EventId>, at: u64) {
            match ids.iter().filter_map(|id| self.injected_at.get(id)).max() {
                Some(&injected) => self.latencies.push(at.saturating_sub(injected)),
                None => self.pending.push((ids, at)),
            }
        }

        fn drain_into(&mut self, target: &mut Model) {
            target.complex_deliveries += std::mem::take(&mut self.complex_deliveries);
            for (sub, ids) in std::mem::take(&mut self.per_sub) {
                target.per_sub.entry(sub).or_default().extend(ids);
            }
            target.latencies.append(&mut self.latencies);
            for (ids, at) in std::mem::take(&mut self.pending) {
                target.sample(ids, at);
            }
        }
    }

    /// Everything a settled log reports matches the model, and the log
    /// equals `twin`, fed the same operations but settled after each one.
    fn check(log: &DeliveryLog, twin: &DeliveryLog, model: &Model, what: &str) {
        let subs: Vec<SubId> = model.per_sub.keys().copied().collect();
        assert_eq!(log.subs().collect::<Vec<_>>(), subs, "{what}: subs");
        for (&sub, ids) in &model.per_sub {
            let want: Vec<EventId> = ids.iter().copied().collect();
            assert_eq!(log.delivered(sub), want, "{what}: {sub:?}");
        }
        let units: usize = model.per_sub.values().map(BTreeSet::len).sum();
        assert_eq!(log.total_event_units(), units as u64, "{what}: units");
        assert_eq!(log.complex_deliveries(), model.complex_deliveries, "{what}");
        assert_eq!(log.latency_samples(), model.latencies, "{what}: latencies");
        assert!(log == twin, "{what}: != its eagerly settled twin");
    }

    /// `(xs[i], xs[1 - i])`.
    fn pair<T>([a, b]: &mut [T; 2], i: usize) -> (&mut T, &mut T) {
        if i == 0 {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Seeded interleavings of every mutation on two logs (a shared one
    /// and a per-task one), against the naive model: repeated units,
    /// ids arriving out of order, deliveries with unregistered
    /// constituents, settles at random points, a drain followed by a
    /// second drain of the same log, and drains either way.
    #[test]
    fn columnar_log_matches_the_naive_model_under_random_interleavings() {
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(0xDE11_0000 + seed);
            let mut logs = [DeliveryLog::new(), DeliveryLog::new()];
            let mut twins = [DeliveryLog::new(), DeliveryLog::new()];
            let mut models = [Model::default(), Model::default()];
            for step in 0..400 {
                let what = format!("seed {seed} step {step}");
                let i = rng.gen_range(0..2usize);
                let (j, mut settled) = (1 - i, None);
                match rng.gen_range(0..100u32) {
                    0..=11 => {
                        let (id, at) = (EventId(rng.gen_range(0..48)), rng.gen_range(0..500));
                        logs[i].note_injection(id, at);
                        twins[i].note_injection(id, at);
                        models[i].injected_at.entry(id).or_insert(at);
                    }
                    12..=79 => {
                        let sub = SubId(rng.gen_range(0..10));
                        let n = rng.gen_range(1..5);
                        let event = ComplexEvent::new(
                            (0..n)
                                .map(|_| ev_at(rng.gen_range(0..48), rng.gen_range(0..64)))
                                .collect(),
                        );
                        let at = rng.gen_range(0..800);
                        logs[i].record_at(sub, &event, at);
                        twins[i].record_at(sub, &event, at);
                        twins[i].settle();
                        models[i].record_at(sub, event.event_ids().collect(), at);
                    }
                    80..=89 => {
                        logs[i].settle();
                        settled = Some(i);
                    }
                    90..=95 => {
                        let (log, other) = pair(&mut logs, i);
                        let (twin, twin_other) = pair(&mut twins, i);
                        let (model, model_other) = pair(&mut models, i);
                        // twice: the second drain of a drained log is a no-op
                        for _ in 0..2 {
                            other.drain_into(log);
                            twin_other.drain_into(twin);
                            model_other.drain_into(model);
                            check(log, twin, model, &what);
                            check(other, twin_other, model_other, &what);
                        }
                    }
                    _ => {
                        let (log, other) = pair(&mut logs, i);
                        let (twin, twin_other) = pair(&mut twins, i);
                        let (model, model_other) = pair(&mut models, i);
                        log.drain_into(other);
                        twin.drain_into(twin_other);
                        model.drain_into(model_other);
                        settled = Some(j);
                    }
                }
                if let Some(k) = settled {
                    check(&logs[k], &twins[k], &models[k], &what);
                    if k == j {
                        check(&logs[i], &twins[i], &models[i], &what);
                    }
                }
            }
        }
    }
}
