//! What every engine implements and what it sees of the network: the
//! [`NodeBehavior`] trait, the per-message [`Ctx`] handed to it, and the
//! [`DeliveryLog`] its deliveries land in. Everything *below* this seam —
//! queues, clocks, crashes, partitions — belongs to the
//! [`Simulator`](crate::Simulator) (or to `fsf-runtime`'s live hosts, which
//! drive the same trait through [`Ctx::external`]).

use crate::latency::LatencySummary;
use crate::topology::{NodeId, RegraftDelta, Topology};
use crate::traffic::ChargeKind;
use fsf_model::{ComplexEvent, EventId, SubId};
use std::collections::{BTreeMap, BTreeSet};

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
    /// `crash + regraft` event: purge per-origin state that referenced the
    /// crashed neighbor, and (for nodes hosting data sources) re-flood
    /// advertisements over the re-grafted tree. Invoked through
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
/// Equality compares the *delivered results* only (`per_sub` sets and the
/// delivery count), not the latency samples: two engines can deliver the
/// identical result sets at different speeds, and the equivalence tests
/// compare logs across engines.
#[derive(Debug, Clone, Default)]
pub struct DeliveryLog {
    per_sub: BTreeMap<SubId, BTreeSet<EventId>>,
    complex_deliveries: u64,
    /// Virtual injection time per simple event, registered by the engine
    /// wrapper when the reading enters the network.
    injected_at: BTreeMap<EventId, u64>,
    /// One sample per complex delivery whose constituents have a known
    /// injection time: delivery tick − injection tick of the *latest*
    /// injected constituent (the reading that completed the match).
    latencies: Vec<u64>,
    /// Deliveries recorded before their constituents' injection times were
    /// locally known: the live hosts record into short-lived per-task logs
    /// while injections register on the shared log. Each entry resolves
    /// into a latency sample when [`DeliveryLog::merge`] (or the shards
    /// queue's drain) unites it with the injection registry.
    pending: Vec<(Vec<EventId>, u64)>,
}

impl PartialEq for DeliveryLog {
    fn eq(&self, other: &Self) -> bool {
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

    /// Record one delivered complex event, without timing (compat shortcut
    /// for executors with no virtual clock).
    pub fn record(&mut self, sub: SubId, event: &ComplexEvent) {
        self.record_at(sub, event, 0);
    }

    /// Record one complex event delivered at virtual time `at`.
    pub fn record_at(&mut self, sub: SubId, event: &ComplexEvent, at: u64) {
        self.complex_deliveries += 1;
        if let Some(injected) = event
            .event_ids()
            .filter_map(|id| self.injected_at.get(&id).copied())
            .max()
        {
            self.latencies.push(at.saturating_sub(injected));
        } else {
            self.pending.push((event.event_ids().collect(), at));
        }
        self.per_sub
            .entry(sub)
            .or_default()
            .extend(event.event_ids());
    }

    /// Simple events delivered for `sub` (empty set if none).
    #[must_use]
    pub fn delivered(&self, sub: SubId) -> &BTreeSet<EventId> {
        static EMPTY: BTreeSet<EventId> = BTreeSet::new();
        self.per_sub.get(&sub).unwrap_or(&EMPTY)
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

    /// Subscriptions with at least one delivery.
    pub fn subs(&self) -> impl Iterator<Item = SubId> + '_ {
        self.per_sub.keys().copied()
    }

    /// Total distinct (subscription, simple event) delivery pairs.
    #[must_use]
    pub fn total_event_units(&self) -> u64 {
        self.per_sub.values().map(|s| s.len() as u64).sum()
    }

    /// Move this log's *results* (per-sub sets, delivery count, latency
    /// samples) into `target`, leaving injection times behind so future
    /// deliveries keep their latency anchor. The shards queue drains
    /// per-shard logs into the merged log with this after every pump.
    pub(crate) fn drain_into(&mut self, target: &mut DeliveryLog) {
        target.complex_deliveries += self.complex_deliveries;
        self.complex_deliveries = 0;
        for (sub, events) in std::mem::take(&mut self.per_sub) {
            target.per_sub.entry(sub).or_default().extend(events);
        }
        target.latencies.append(&mut self.latencies);
        target.pending.append(&mut self.pending);
        target.resolve_pending();
    }

    /// Fold another log into this one (used by multi-executor runtimes).
    ///
    /// *Draining*: the other log's results — delivery count, per-sub sets,
    /// latency samples and pending entries — move out, so merging the same
    /// log twice is idempotent. (The old copying merge double-counted
    /// latency samples when a host log with overlapping pending sets was
    /// merged twice.) Only the injection registry stays behind in `other`:
    /// it is keyed/or-inserted, so re-merging it cannot double anything,
    /// and the source log keeps its latency anchor for later deliveries.
    pub fn merge(&mut self, other: &mut DeliveryLog) {
        for (&id, &at) in &other.injected_at {
            self.injected_at.entry(id).or_insert(at);
        }
        other.drain_into(self);
    }

    /// Convert pending deliveries whose constituents are now registered
    /// into latency samples; the rest stay pending for a later merge.
    fn resolve_pending(&mut self) {
        let mut unresolved = Vec::new();
        for (ids, at) in self.pending.drain(..) {
            match ids
                .iter()
                .filter_map(|id| self.injected_at.get(id).copied())
                .max()
            {
                Some(injected) => self.latencies.push(at.saturating_sub(injected)),
                None => unresolved.push((ids, at)),
            }
        }
        self.pending = unresolved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsf_model::{AttrId, Event, Point, SensorId, Timestamp};

    fn ev(id: u64) -> Event {
        Event {
            id: EventId(id),
            sensor: SensorId(1),
            attr: AttrId(0),
            location: Point::new(0.0, 0.0),
            value: 0.0,
            timestamp: Timestamp(id),
        }
    }

    #[test]
    fn delivery_log_tracks_distinct_simple_events() {
        let mut log = DeliveryLog::new();
        log.record(SubId(1), &ComplexEvent::new(vec![ev(1), ev(2)]));
        log.record(SubId(1), &ComplexEvent::new(vec![ev(2), ev(3)]));
        log.record(SubId(2), &ComplexEvent::new(vec![ev(1)]));
        assert_eq!(log.complex_deliveries(), 3);
        assert_eq!(log.delivered(SubId(1)).len(), 3);
        assert_eq!(log.delivered(SubId(2)).len(), 1);
        assert_eq!(log.delivered(SubId(9)).len(), 0);
        assert_eq!(log.total_event_units(), 4);
        assert_eq!(log.subs().count(), 2);
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
        other.record(SubId(1), &ComplexEvent::new(vec![ev(1), ev(2)]));
        other.record(SubId(1), &ComplexEvent::new(vec![ev(9)]));
        assert_eq!(log, other);
    }

    #[test]
    fn pending_latencies_resolve_when_merged_with_the_injection_registry() {
        // the live hosts' shape: injections register on the shared log,
        // deliveries record into a fresh per-task log that merges back
        let mut shared = DeliveryLog::new();
        shared.note_injection(EventId(1), 100);
        shared.note_injection(EventId(2), 130);
        let mut local = DeliveryLog::new();
        local.record_at(SubId(1), &ComplexEvent::new(vec![ev(1), ev(2)]), 142);
        assert!(local.latency_samples().is_empty(), "no local registry yet");
        shared.merge(&mut local);
        assert_eq!(shared.latency_samples(), &[12]);
        // a delivery whose constituents were never registered stays
        // sample-less even after the merge
        let mut stray = DeliveryLog::new();
        stray.record_at(SubId(1), &ComplexEvent::new(vec![ev(9)]), 500);
        shared.merge(&mut stray);
        assert_eq!(shared.latency_samples(), &[12]);
        assert_eq!(shared.complex_deliveries(), 2);
    }

    #[test]
    fn merging_the_same_host_log_twice_is_idempotent() {
        // regression: the copying merge double-counted latency samples and
        // deliveries when a host log was merged twice (its pending entries
        // overlapped with the already-resolved set)
        let mut shared = DeliveryLog::new();
        shared.note_injection(EventId(1), 100);
        let mut local = DeliveryLog::new();
        local.record_at(SubId(1), &ComplexEvent::new(vec![ev(1)]), 110);
        local.record_at(SubId(1), &ComplexEvent::new(vec![ev(7)]), 120); // stays pending
        shared.merge(&mut local);
        assert_eq!(shared.complex_deliveries(), 2);
        assert_eq!(shared.latency_samples(), &[10]);
        // the merge drained the local results…
        assert_eq!(local.complex_deliveries(), 0);
        // …so a second merge of the same log changes nothing
        shared.merge(&mut local);
        assert_eq!(shared.complex_deliveries(), 2);
        assert_eq!(shared.latency_samples(), &[10]);
        assert_eq!(shared.delivered(SubId(1)).len(), 2);
        // the straggler resolves exactly once when its injection registers
        shared.note_injection(EventId(7), 115);
        shared.resolve_pending();
        assert_eq!(shared.latency_samples(), &[10, 5]);
        shared.resolve_pending();
        assert_eq!(shared.latency_samples(), &[10, 5], "resolution idempotent");
    }
}
