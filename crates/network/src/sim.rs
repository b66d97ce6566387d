//! Deterministic discrete-event message simulator.
//!
//! The simulator processes messages from a timestamped priority queue: each
//! send is scheduled `LatencyModel::delay(from, to)` virtual ticks into the
//! future, and the queue pops in `(deliver_at, seq)` order, where `seq` is a
//! global monotone sequence number assigned at scheduling time.
//!
//! **Event-clock semantics.** The virtual clock [`Simulator::now`] only
//! moves forward, to the `deliver_at` of the message being processed (or to
//! the explicit horizon of [`Simulator::run_until`]). Nodes observe it
//! through [`Ctx::now`]. Virtual time is a *network* notion (message
//! propagation); the data-level `Timestamp`s carried inside events are a
//! separate axis (correlation windows) and are never reinterpreted.
//!
//! **Tie-breaking rule.** Messages due at the same tick are processed in
//! scheduling order (`seq` ascending). This makes the whole timeline a
//! deterministic function of the injection sequence and the latency model —
//! no hash-map iteration order, no randomness.
//!
//! **Zero-latency compat guarantee.** Under [`LatencyModel::Zero`] every
//! message is due immediately, so the `(deliver_at, seq)` order degenerates
//! to `seq` order — exactly the FIFO order of the pre-scheduler simulator.
//! `tests/fifo_compat.rs` holds this step-for-step, delivery-for-delivery
//! across 30 seeded workloads.
//!
//! The paper's metrics are traffic counts, which are latency-independent;
//! the scheduler adds the response-time axis (delivery latency percentiles
//! via [`DeliveryLog::latency_summary`]) and makes churn racing in-flight
//! floods simulable. Every behaviour implemented against [`NodeBehavior`]
//! also runs unmodified on real OS threads via `fsf-runtime`, which provides
//! the concurrency the paper's Xen testbed had; the simulator provides the
//! determinism the evaluation needs.

use crate::latency::{LatencyModel, LatencySummary};
use crate::topology::{NodeId, RegraftDelta, Topology, TopologyError};
use crate::traffic::{ChargeKind, TrafficStats};
use fsf_model::{ComplexEvent, EventId, SubId};
use fsf_telemetry::{flood_id, Noop, TelemetryEvent, TelemetrySink, TrafficClass};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

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
    /// [`Simulator::run_recovery`] with a live [`Ctx`], so recovery traffic
    /// is scheduled on the virtual clock and races in-flight floods like
    /// any other message. The default is a no-op (test behaviours, plain
    /// relays).
    fn on_recover(&mut self, _delta: &RegraftDelta, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// A severed link to `peer` was healed: the partitions on each side of
    /// the cut diverged (floods dropped at the cut), so reconcile across
    /// the revived edge — re-offer advertisements/generations and re-split
    /// operators toward `peer`. Invoked through [`Simulator::heal_link`]
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
    /// into a latency sample when [`DeliveryLog::merge`] (or the sharded
    /// drain) unites it with the injection registry.
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
    /// deliveries keep their latency anchor. The sharded simulator drains
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
        self.complex_deliveries += other.complex_deliveries;
        other.complex_deliveries = 0;
        for (sub, events) in std::mem::take(&mut other.per_sub) {
            self.per_sub.entry(sub).or_default().extend(events);
        }
        for (&id, &at) in &other.injected_at {
            self.injected_at.entry(id).or_insert(at);
        }
        self.latencies.append(&mut other.latencies);
        self.pending.append(&mut other.pending);
        self.resolve_pending();
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

/// What travels on a link: an application message, or one leg of the
/// liveness layer's heartbeat exchange. Pings and pongs ride the same
/// scheduler (latency, severed links, crash drops all apply — that is what
/// makes the suspicion signal honest) but are answered *below*
/// [`NodeBehavior`]: node logic never sees them.
#[derive(Debug, Clone)]
enum Payload<M> {
    App(M),
    Ping,
    Pong,
}

#[derive(Debug, Clone)]
struct Envelope<M> {
    from: NodeId,
    to: NodeId,
    /// Causality id: minted at injection, inherited by every send made
    /// while handling a message carrying it (see [`fsf_telemetry::flood_id`]).
    flood: u64,
    msg: Payload<M>,
}

/// Heartbeat failure-detector state (tentpole of the liveness layer). All
/// bookkeeping is *directed*: `(observer, peer)` — node `observer`'s view
/// of neighbor `peer`. Suspicion never mutates node or routing state; it
/// only feeds [`Simulator::take_confirmed_dead`], which the engine layer
/// intersects with actual crash deltas — a false suspicion (e.g. a live
/// node behind a severed link) therefore cannot cause route loss, and is
/// cleared the moment a pong gets through again.
#[derive(Debug)]
struct Liveness {
    period: u64,
    timeout: u64,
    /// Virtual time liveness was enabled: the freshness baseline for pairs
    /// that have never exchanged a pong.
    enabled_at: u64,
    /// Next beat tick: every live node pings every neighbor.
    next_beat: u64,
    /// `(observer, peer)` → virtual time of the last pong heard.
    last_seen: BTreeMap<(NodeId, NodeId), u64>,
    /// Directed suspicions currently active.
    suspected: BTreeSet<(NodeId, NodeId)>,
    /// Nodes every live neighbor currently suspects, not yet drained by
    /// [`Simulator::take_confirmed_dead`].
    confirmed: Vec<NodeId>,
    /// Everything ever confirmed (until a pong re-admits it) — keeps a
    /// dead node from being re-confirmed every beat.
    confirmed_ever: BTreeSet<NodeId>,
}

/// A scheduled envelope. Heap order: earliest `deliver_at` first, ties
/// broken by scheduling sequence (`seq` ascending) — the determinism rule.
#[derive(Debug, Clone)]
struct Scheduled<M> {
    deliver_at: u64,
    seq: u64,
    env: Envelope<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // reversed: BinaryHeap is a max-heap, we pop the earliest message
        (other.deliver_at, other.seq).cmp(&(self.deliver_at, self.seq))
    }
}

/// Deterministic discrete-event simulator over a tree of [`NodeBehavior`]
/// nodes. Defaults to [`LatencyModel::Zero`], which reproduces the classic
/// run-to-quiescence FIFO semantics exactly (see the module docs).
///
/// The `S` parameter is the telemetry sink; it defaults to
/// [`fsf_telemetry::Noop`], whose `ENABLED = false` lets every recording
/// site compile away — the disabled simulator is byte-for-byte the old one.
/// Build with [`Simulator::with_sink`] and a
/// [`fsf_telemetry::Recorder`] to capture the message lifecycle.
#[derive(Debug)]
pub struct Simulator<B: NodeBehavior, S: TelemetrySink = Noop> {
    topology: Topology,
    nodes: Vec<B>,
    queue: BinaryHeap<Scheduled<B::Msg>>,
    latency: LatencyModel,
    sink: S,
    /// Accumulated traffic counters.
    pub stats: TrafficStats,
    /// Accumulated end-user deliveries.
    pub deliveries: DeliveryLog,
    now: u64,
    next_seq: u64,
    steps: u64,
    scheduled_total: u64,
    queue_drops: u64,
    max_steps_per_run: u64,
    /// Downed nodes, mapped to the `next_seq` value at their crash: queued
    /// messages with a smaller seq were purge-counted at crash time and pop
    /// as silent tombstones; later seqs are charged-but-dropped arrivals.
    down: BTreeMap<NodeId, u64>,
    dropped_to_downed: u64,
    /// Queued-message count per destination node — the crash purge reads
    /// (and zeroes) one slot instead of rebuilding the whole heap.
    queued_to: Vec<u32>,
    /// Messages still in the heap whose drop was already accounted at a
    /// crash. Excluded from [`Self::queue_depth`]; discarded silently at pop.
    tombstones: u64,
    /// Messages dropped at the radio because their link was severed.
    dropped_severed: u64,
    /// Heartbeat failure detector, off by default (zero overhead when off).
    liveness: Option<Liveness>,
}

impl<B: NodeBehavior> Simulator<B> {
    /// Build a zero-latency simulator, constructing one node per topology
    /// id.
    pub fn new(topology: Topology, make_node: impl FnMut(NodeId, &Topology) -> B) -> Self {
        Self::with_latency(topology, LatencyModel::Zero, make_node)
    }

    /// Build a simulator with an explicit latency model.
    pub fn with_latency(
        topology: Topology,
        latency: LatencyModel,
        make_node: impl FnMut(NodeId, &Topology) -> B,
    ) -> Self {
        Self::with_sink(topology, latency, Noop, make_node)
    }
}

impl<B: NodeBehavior, S: TelemetrySink> Simulator<B, S> {
    /// Default per-run step budget; exceeding it panics (a forwarding loop
    /// would otherwise spin forever).
    pub const DEFAULT_MAX_STEPS: u64 = 200_000_000;

    /// Build a simulator with an explicit latency model and telemetry sink.
    pub fn with_sink(
        topology: Topology,
        latency: LatencyModel,
        sink: S,
        mut make_node: impl FnMut(NodeId, &Topology) -> B,
    ) -> Self {
        let nodes = topology
            .nodes()
            .map(|id| make_node(id, &topology))
            .collect();
        let queued_to = vec![0u32; topology.len()];
        Simulator {
            topology,
            nodes,
            queue: BinaryHeap::new(),
            latency,
            sink,
            stats: TrafficStats::new(),
            deliveries: DeliveryLog::new(),
            now: 0,
            next_seq: 0,
            steps: 0,
            scheduled_total: 0,
            queue_drops: 0,
            max_steps_per_run: Self::DEFAULT_MAX_STEPS,
            down: BTreeMap::new(),
            dropped_to_downed: 0,
            queued_to,
            tombstones: 0,
            dropped_severed: 0,
            liveness: None,
        }
    }

    // No mid-run latency-model setter on purpose: swapping to a faster
    // model while messages are in flight could let a later send overtake
    // an earlier one on the same link, breaking the per-link FIFO
    // invariant the retraction protocols rely on. Construct a new
    // simulator instead.

    /// Override the runaway-protection step budget.
    pub fn set_max_steps(&mut self, max: u64) {
        self.max_steps_per_run = max;
    }

    /// The topology being simulated.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Immutable access to a node's state (for inspection in tests).
    ///
    /// # Panics
    /// Panics with a named-id message on unknown node ids — churn plans make
    /// out-of-range ids a realistic mistake.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &B {
        let n = self.topology.len();
        self.nodes
            .get(id.0 as usize)
            .unwrap_or_else(|| panic!("unknown NodeId {id}: topology has {n} nodes (0..{n})"))
    }

    /// Mutable access to a node's state.
    ///
    /// # Panics
    /// Panics with a named-id message on unknown node ids (see [`Self::node`]).
    pub fn node_mut(&mut self, id: NodeId) -> &mut B {
        let n = self.topology.len();
        self.nodes
            .get_mut(id.0 as usize)
            .unwrap_or_else(|| panic!("unknown NodeId {id}: topology has {n} nodes (0..{n})"))
    }

    /// Is the node marked down (crashed)?
    #[must_use]
    pub fn is_down(&self, id: NodeId) -> bool {
        self.down.contains_key(&id)
    }

    /// Messages dropped because their destination was down — the simulator's
    /// fault-injection counter (covers injections at downed nodes, queued
    /// messages purged when their destination crashed, and in-flight
    /// messages arriving at a corpse).
    #[must_use]
    pub fn dropped_to_downed(&self) -> u64 {
        self.dropped_to_downed
    }

    /// Messages dropped at the sender's radio because the link they would
    /// cross is severed. Included in [`Self::dropped_from_queue`], so the
    /// conservation invariant stays exact across partitions.
    #[must_use]
    pub fn dropped_severed(&self) -> u64 {
        self.dropped_severed
    }

    /// Sever the link between two adjacent nodes (partition): from now on,
    /// traffic crossing it is dropped at the radio with conservation
    /// accounting. Messages already in flight on the link were on the wire
    /// before the cut and still arrive. Routing state is untouched — both
    /// halves keep serving whatever is reachable on their side.
    pub fn sever_link(&mut self, a: NodeId, b: NodeId) -> Result<(), TopologyError> {
        self.topology.sever_link(a, b)?;
        if S::ENABLED {
            self.sink.record(TelemetryEvent::LinkSevered {
                at: self.now,
                a: a.0,
                b: b.0,
            });
        }
        Ok(())
    }

    /// Heal a severed link and run [`NodeBehavior::on_link_up`] on both
    /// live endpoints with a live [`Ctx`]: the reconciliation traffic they
    /// emit (advertisement re-offers, generation repairs, operator
    /// re-splits) is charged and scheduled on the virtual clock. Healing a
    /// healthy link is a validated no-op.
    pub fn heal_link(&mut self, a: NodeId, b: NodeId) -> Result<(), TopologyError> {
        let was_severed = self.topology.is_severed(a, b);
        self.topology.heal_link(a, b)?;
        if !was_severed {
            return Ok(());
        }
        if S::ENABLED {
            self.sink.record(TelemetryEvent::LinkHealed {
                at: self.now,
                a: a.0,
                b: b.0,
            });
        }
        let mut outbox: Vec<(NodeId, B::Msg, ChargeKind, u64)> = Vec::new();
        for (node, peer) in [(a, b), (b, a)] {
            if self.down.contains_key(&node) {
                continue;
            }
            {
                let mut ctx = Ctx {
                    node,
                    neighbors: self.topology.neighbors(node),
                    now: self.now,
                    outbox: &mut outbox,
                    deliveries: &mut self.deliveries,
                };
                self.nodes[node.0 as usize].on_link_up(peer, &mut ctx);
            }
            for (to, msg, kind, units) in outbox.drain(..) {
                self.stats.charge(kind, node, to, units);
                let deliver_at = self.now + self.latency.delay(node, to);
                // reconciliation sends start fresh causal floods
                let flood = flood_id(0, self.next_seq);
                self.schedule(
                    node,
                    to,
                    Payload::App(msg),
                    deliver_at,
                    flood,
                    kind.traffic_class(),
                    units,
                );
            }
        }
        Ok(())
    }

    /// Enable the heartbeat failure detector: every `period` virtual ticks
    /// each live node pings every neighbor; a neighbor whose pong has not
    /// been heard for more than `timeout` ticks is suspected. A node all
    /// of whose live neighbors suspect it is reported through
    /// [`Self::take_confirmed_dead`]. Suspicion never mutates node state —
    /// false suspicions (live nodes behind a severed link) clear themselves
    /// when a pong next gets through.
    ///
    /// Pick `timeout ≥ period + 2 × max link delay` to avoid false
    /// suspicion on healthy links.
    pub fn set_liveness(&mut self, period: u64, timeout: u64) {
        assert!(period > 0, "heartbeat period must be positive");
        assert!(timeout > 0, "suspicion timeout must be positive");
        self.liveness = Some(Liveness {
            period,
            timeout,
            enabled_at: self.now,
            next_beat: self.now + period,
            last_seen: BTreeMap::new(),
            suspected: BTreeSet::new(),
            confirmed: Vec::new(),
            confirmed_ever: BTreeSet::new(),
        });
    }

    /// Currently active directed suspicions, `(observer, suspect)` sorted.
    #[must_use]
    pub fn suspicions(&self) -> Vec<(NodeId, NodeId)> {
        self.liveness
            .as_ref()
            .map(|lv| lv.suspected.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Drain the nodes newly confirmed dead by the failure detector (every
    /// live neighbor suspects them). The engine layer intersects these
    /// with its crash records before triggering recovery, so a falsely
    /// confirmed-but-alive node (a partitioned leaf) costs nothing.
    pub fn take_confirmed_dead(&mut self) -> Vec<NodeId> {
        self.liveness
            .as_mut()
            .map(|lv| std::mem::take(&mut lv.confirmed))
            .unwrap_or_default()
    }

    /// The virtual clock: the latest delivery tick processed (or horizon
    /// passed to [`Self::run_until`]). Never decreases.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Messages currently scheduled but not yet delivered. Tombstones —
    /// messages purged by a crash but physically still in the heap — are
    /// excluded: they are already accounted in [`Self::dropped_from_queue`].
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue.len() - self.tombstones as usize
    }

    /// Every envelope ever enqueued (injections at live nodes + sends).
    /// Together with [`Self::steps`], [`Self::dropped_from_queue`] and
    /// [`Self::queue_depth`] this forms the message-conservation invariant:
    /// `scheduled_total == steps + dropped_from_queue + queue_depth` holds
    /// at every pause point — nothing is lost or duplicated mid-flight.
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Enqueued messages that were dropped instead of processed (destination
    /// crashed while they were in flight, or already down at delivery).
    #[must_use]
    pub fn dropped_from_queue(&self) -> u64 {
        self.queue_drops
    }

    /// Crash a node: re-graft its orphaned neighbors onto `anchor` (see
    /// [`Topology::regraft`]), mark it down, drop every queued message
    /// addressed to it, and notify every surviving node of the new topology
    /// via [`NodeBehavior::on_topology_change`]. Messages later sent to the
    /// downed node are charged (they left the sender's radio) but dropped.
    ///
    /// Returns the [`RegraftDelta`] describing what moved — feed it to
    /// [`Self::run_recovery`] to run the crash-recovery protocol
    /// (immediately for auto-recovery, later for a deferred repair).
    pub fn crash_and_regraft(
        &mut self,
        crashed: NodeId,
        anchor: NodeId,
    ) -> Result<RegraftDelta, crate::topology::TopologyError> {
        if self.down.contains_key(&anchor) {
            // re-grafting survivors onto a corpse would black-hole them
            return Err(crate::topology::TopologyError::BadEdge(crashed.0, anchor.0));
        }
        let (topology, delta) = self.topology.regraft_with_delta(crashed, anchor)?;
        self.topology = topology;
        if !self.down.contains_key(&crashed) {
            // Tombstone purge: account every queued message to the corpse
            // now (one counter read), leave the envelopes in the heap, and
            // discard them silently at pop. O(1) against the old
            // take-and-rebuild of the whole heap.
            let purged = u64::from(self.queued_to[crashed.0 as usize]);
            self.queued_to[crashed.0 as usize] = 0;
            self.tombstones += purged;
            self.dropped_to_downed += purged;
            self.queue_drops += purged;
            self.down.insert(crashed, self.next_seq);
            if S::ENABLED && purged > 0 {
                self.sink.record(TelemetryEvent::Purged {
                    at: self.now,
                    node: crashed.0,
                    shard: 0,
                    count: purged,
                });
            }
        }
        for id in 0..self.nodes.len() {
            if !self.down.contains_key(&NodeId(id as u32)) {
                self.nodes[id].on_topology_change(&self.topology);
            }
        }
        Ok(delta)
    }

    /// Run the crash-recovery protocol for one regraft: every surviving
    /// node gets [`NodeBehavior::on_recover`] with a live [`Ctx`] at the
    /// current virtual time, and whatever it sends is charged and scheduled
    /// through the latency model — recovery traffic races in-flight floods
    /// exactly like any other message. Nodes are visited in id order, so
    /// the recovery timeline is deterministic. Does **not** flush: callers
    /// decide whether recovery drains before the next action.
    pub fn run_recovery(&mut self, delta: &RegraftDelta) {
        let mut outbox: Vec<(NodeId, B::Msg, ChargeKind, u64)> = Vec::new();
        for id in 0..self.nodes.len() {
            let node = NodeId(id as u32);
            if self.down.contains_key(&node) {
                continue;
            }
            let deliveries_before = self.deliveries.complex_deliveries();
            {
                let mut ctx = Ctx {
                    node,
                    neighbors: self.topology.neighbors(node),
                    now: self.now,
                    outbox: &mut outbox,
                    deliveries: &mut self.deliveries,
                };
                self.nodes[id].on_recover(delta, &mut ctx);
            }
            let sends = outbox.len() as u64;
            for (to, msg, kind, units) in outbox.drain(..) {
                self.stats.charge(kind, node, to, units);
                let deliver_at = self.now + self.latency.delay(node, to);
                // each recovery send starts a fresh causal flood: it was
                // not triggered by any in-flight message
                let flood = flood_id(0, self.next_seq);
                self.schedule(
                    node,
                    to,
                    Payload::App(msg),
                    deliver_at,
                    flood,
                    kind.traffic_class(),
                    units,
                );
            }
            if S::ENABLED {
                let deliveries = self.deliveries.complex_deliveries() - deliveries_before;
                if deliveries + sends > 0 {
                    self.sink.record(TelemetryEvent::Recovered {
                        at: self.now,
                        node: node.0,
                        shard: 0,
                        deliveries,
                        sends,
                    });
                }
            }
        }
    }

    /// Messages processed (handled by a live node) since construction.
    /// Drops to downed nodes are counted in [`Self::dropped_to_downed`],
    /// not here.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The runaway-protection panic message: the classic one-liner plus a
    /// telemetry snapshot (queue depth, hottest destination, and — when a
    /// recording sink is attached — the last lifecycle events), so a
    /// forwarding loop names its suspects instead of just dying.
    fn runaway_report(&self) -> String {
        let mut msg = format!(
            "simulator exceeded {} steps at virtual time {} with {} messages queued — \
             forwarding loop?",
            self.max_steps_per_run,
            self.now,
            self.queue.len()
        );
        if let Some((node, depth)) = self
            .queued_to
            .iter()
            .enumerate()
            .max_by_key(|&(_, &d)| d)
            .filter(|&(_, &d)| d > 0)
        {
            msg.push_str(&format!(
                "\n  hottest destination: n{node} ({depth} queued)"
            ));
        }
        if S::ENABLED {
            let recent = self.sink.recent(10);
            if !recent.is_empty() {
                msg.push_str("\n  last lifecycle events:");
                for ev in recent {
                    msg.push_str(&format!("\n    {ev:?}"));
                }
            }
        }
        msg
    }

    #[allow(clippy::too_many_arguments)] // one enqueue, fully described
    fn schedule(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: Payload<B::Msg>,
        deliver_at: u64,
        flood: u64,
        class: TrafficClass,
        units: u64,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        if S::ENABLED {
            self.sink.record(TelemetryEvent::Scheduled {
                at: self.now,
                deliver_at,
                from: from.0,
                to: to.0,
                shard: 0,
                flood,
                class,
                units,
            });
        }
        // A send across a severed link dies at the radio: charged by the
        // caller (it left the sender), accounted as a queue drop so the
        // conservation invariant stays exact, never enqueued.
        if from != to && self.topology.is_severed(from, to) {
            self.queue_drops += 1;
            self.dropped_severed += 1;
            if S::ENABLED {
                self.sink.record(TelemetryEvent::DroppedSevered {
                    at: self.now,
                    from: from.0,
                    to: to.0,
                    shard: 0,
                    flood,
                });
            }
            return;
        }
        self.queued_to[to.0 as usize] += 1;
        self.queue.push(Scheduled {
            deliver_at,
            seq,
            env: Envelope {
                from,
                to,
                flood,
                msg,
            },
        });
    }

    /// Inject a local item (sensor appearance, user subscription, sensor
    /// reading) at `node`, due immediately (at the current virtual time).
    /// The node sees `from == node`. Injections at a downed node are dropped
    /// (and counted) — its users and sensors died with it.
    pub fn inject(&mut self, node: NodeId, msg: B::Msg) {
        self.inject_at(node, msg, self.now);
    }

    /// Inject a local item scheduled for virtual time `at` (clamped to the
    /// present — the clock never runs backwards).
    pub fn inject_at(&mut self, node: NodeId, msg: B::Msg, at: u64) {
        if self.down.contains_key(&node) {
            self.dropped_to_downed += 1;
            return;
        }
        // every injection mints a fresh causal flood id
        let flood = flood_id(0, self.next_seq);
        self.schedule(
            node,
            node,
            Payload::App(msg),
            at.max(self.now),
            flood,
            TrafficClass::Inject,
            1,
        );
    }

    /// Process messages in `(deliver_at, seq)` order until `horizon` (if
    /// any) or quiescence, interleaving heartbeat beats (when liveness is
    /// enabled) at their scheduled ticks. Returns the number of messages
    /// handled. Beats fire whenever the clock would cross their tick —
    /// either because a queued message is due at or after it, or because an
    /// explicit horizon covers it; with an empty queue and no horizon the
    /// pump is quiescent and beats wait for time to be driven forward
    /// (`run_until`), so quiescence stays reachable.
    fn pump(&mut self, horizon: Option<u64>) -> u64 {
        let mut handled = 0u64;
        let mut popped = 0u64;
        let mut outbox: Vec<(NodeId, B::Msg, ChargeKind, u64)> = Vec::new();
        loop {
            let head_at = self.queue.peek().map(|s| s.deliver_at);
            if let Some(beat_at) = self.liveness.as_ref().map(|lv| lv.next_beat) {
                let beat_due = match head_at {
                    Some(h) => beat_at <= h,
                    None => horizon.is_some_and(|t| beat_at <= t),
                } && horizon.is_none_or(|t| beat_at <= t);
                if beat_due {
                    self.emit_beat(beat_at);
                    continue;
                }
            }
            let Some(h) = head_at else { break };
            if horizon.is_some_and(|t| h > t) {
                break;
            }
            let sch = self.queue.pop().expect("peeked");
            popped += 1;
            if popped > self.max_steps_per_run {
                panic!("{}", self.runaway_report());
            }
            if let Some(&cutoff) = self.down.get(&sch.env.to) {
                if sch.seq < cutoff {
                    // purge-counted (and removed from queued_to) at the
                    // crash; discard without touching the clock or the
                    // drop counters again
                    self.tombstones -= 1;
                    continue;
                }
                self.queued_to[sch.env.to.0 as usize] -= 1;
                self.now = self.now.max(sch.deliver_at);
                self.dropped_to_downed += 1;
                self.queue_drops += 1;
                if S::ENABLED {
                    self.sink.record(TelemetryEvent::DroppedDowned {
                        at: self.now,
                        to: sch.env.to.0,
                        shard: 0,
                        flood: sch.env.flood,
                    });
                }
                continue;
            }
            self.queued_to[sch.env.to.0 as usize] -= 1;
            self.now = self.now.max(sch.deliver_at);
            let env = sch.env;
            handled += 1;
            let node_idx = env.to.0 as usize;
            let msg = match env.msg {
                Payload::App(msg) => msg,
                Payload::Ping => {
                    // answered below the app layer: the node is alive, so
                    // a pong heads back (dying at the radio if the link
                    // was severed since the ping crossed)
                    self.stats.charge(ChargeKind::Liveness, env.to, env.from, 1);
                    let deliver_at = self.now + self.latency.delay(env.to, env.from);
                    if S::ENABLED {
                        self.sink.record(TelemetryEvent::Handled {
                            at: self.now,
                            from: env.from.0,
                            to: env.to.0,
                            shard: 0,
                            flood: env.flood,
                            deliveries: 0,
                        });
                    }
                    self.schedule(
                        env.to,
                        env.from,
                        Payload::Pong,
                        deliver_at,
                        env.flood,
                        TrafficClass::Liveness,
                        1,
                    );
                    continue;
                }
                Payload::Pong => {
                    if let Some(lv) = &mut self.liveness {
                        lv.last_seen.insert((env.to, env.from), sch.deliver_at);
                        if lv.suspected.remove(&(env.to, env.from)) && S::ENABLED {
                            self.sink.record(TelemetryEvent::SuspicionCleared {
                                at: self.now,
                                by: env.to.0,
                                node: env.from.0,
                            });
                        }
                        if !self.down.contains_key(&env.from) {
                            // a late answer re-admits a falsely confirmed
                            // node — no route was lost, nothing to repair
                            lv.confirmed_ever.remove(&env.from);
                        }
                    }
                    if S::ENABLED {
                        self.sink.record(TelemetryEvent::Handled {
                            at: self.now,
                            from: env.from.0,
                            to: env.to.0,
                            shard: 0,
                            flood: env.flood,
                            deliveries: 0,
                        });
                    }
                    continue;
                }
            };
            let deliveries_before = self.deliveries.complex_deliveries();
            {
                let mut ctx = Ctx {
                    node: env.to,
                    neighbors: self.topology.neighbors(env.to),
                    now: self.now,
                    outbox: &mut outbox,
                    deliveries: &mut self.deliveries,
                };
                self.nodes[node_idx].on_message(env.from, msg, &mut ctx);
            }
            if S::ENABLED {
                self.sink.record(TelemetryEvent::Handled {
                    at: self.now,
                    from: env.from.0,
                    to: env.to.0,
                    shard: 0,
                    flood: env.flood,
                    deliveries: self.deliveries.complex_deliveries() - deliveries_before,
                });
            }
            for (to, msg, kind, units) in outbox.drain(..) {
                self.stats.charge(kind, env.to, to, units);
                let deliver_at = self.now + self.latency.delay(env.to, to);
                // sends inherit the handled message's causal flood id
                self.schedule(
                    env.to,
                    to,
                    Payload::App(msg),
                    deliver_at,
                    env.flood,
                    kind.traffic_class(),
                    units,
                );
            }
        }
        if let Some(t) = horizon {
            self.now = self.now.max(t);
        }
        self.steps += handled;
        handled
    }

    /// Fire one heartbeat beat at tick `t`: every live node pings every
    /// neighbor (severed links eat the ping at the radio — that absence is
    /// the partition signal), then the suspicion sweep marks every
    /// `(observer, peer)` pair whose last pong is older than the timeout
    /// and confirms nodes all of whose live neighbors suspect them.
    fn emit_beat(&mut self, t: u64) {
        self.now = self.now.max(t);
        let n = self.topology.len() as u32;
        for a in (0..n).map(NodeId) {
            if self.down.contains_key(&a) {
                continue;
            }
            let neighbors: Vec<NodeId> = self.topology.neighbors(a).to_vec();
            for b in neighbors {
                self.stats.charge(ChargeKind::Liveness, a, b, 1);
                let deliver_at = self.now + self.latency.delay(a, b);
                let flood = flood_id(0, self.next_seq);
                self.schedule(
                    a,
                    b,
                    Payload::Ping,
                    deliver_at,
                    flood,
                    TrafficClass::Liveness,
                    1,
                );
            }
        }
        let lv = self
            .liveness
            .as_mut()
            .expect("beats only fire with liveness on");
        for a in (0..n).map(NodeId) {
            if self.down.contains_key(&a) {
                continue;
            }
            for &b in self.topology.neighbors(a) {
                let seen = lv.last_seen.get(&(a, b)).copied().unwrap_or(lv.enabled_at);
                if t.saturating_sub(seen) > lv.timeout && lv.suspected.insert((a, b)) && S::ENABLED
                {
                    self.sink.record(TelemetryEvent::Suspected {
                        at: t,
                        by: a.0,
                        node: b.0,
                    });
                }
            }
        }
        for x in (0..n).map(NodeId) {
            if lv.confirmed_ever.contains(&x) {
                continue;
            }
            let mut live_neighbors = 0usize;
            let all_suspect = self.topology.neighbors(x).iter().all(|&nb| {
                if self.down.contains_key(&nb) {
                    return true; // corpses cast no vote
                }
                live_neighbors += 1;
                lv.suspected.contains(&(nb, x))
            });
            if live_neighbors > 0 && all_suspect {
                lv.confirmed_ever.insert(x);
                lv.confirmed.push(x);
            }
        }
        lv.next_beat = t + lv.period;
    }

    /// Process queued messages until the network is quiescent, advancing
    /// the virtual clock through every scheduled delivery. Returns the
    /// number of messages handled by this call.
    pub fn run_to_quiescence(&mut self) -> u64 {
        self.pump(None)
    }

    /// Advance virtual time to `t`, delivering exactly the messages due at
    /// or before `t` and leaving later ones in flight. The clock ends at
    /// `max(now, t)` even if nothing was due.
    pub fn run_until(&mut self, t: u64) -> u64 {
        self.pump(Some(t))
    }

    /// Convenience: inject then run to quiescence.
    pub fn inject_and_run(&mut self, node: NodeId, msg: B::Msg) -> u64 {
        self.inject(node, msg);
        self.run_to_quiescence()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    /// A flooding test behaviour: every locally injected number floods the
    /// tree; nodes remember what they saw and when.
    #[derive(Debug, Default)]
    struct Flood {
        seen: Vec<u64>,
        seen_at: Vec<u64>,
    }

    impl NodeBehavior for Flood {
        type Msg = u64;
        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
            if self.seen.contains(&msg) {
                return;
            }
            self.seen.push(msg);
            self.seen_at.push(ctx.now());
            let me = ctx.node();
            let neighbors: Vec<NodeId> = ctx.neighbors().to_vec();
            for n in neighbors {
                if n != from || from == me {
                    ctx.send(n, msg, ChargeKind::Advertisement, 1);
                }
            }
        }
    }

    #[test]
    fn flood_reaches_every_node_once() {
        let topo = builders::balanced(15, 2);
        let mut sim = Simulator::new(topo, |_, _| Flood::default());
        sim.inject_and_run(NodeId(7), 42);
        for n in 0..15u32 {
            assert_eq!(sim.node(NodeId(n)).seen, vec![42], "node n{n}");
        }
        // a tree floods over exactly n-1 links (back-edges suppressed)
        assert_eq!(sim.stats.adv_msgs(), 14);
        // zero latency: the virtual clock never moved
        assert_eq!(sim.now(), 0);
    }

    #[test]
    fn quiescence_returns_processed_count() {
        let topo = builders::line(4);
        let mut sim = Simulator::new(topo, |_, _| Flood::default());
        let processed = sim.inject_and_run(NodeId(0), 1);
        // 1 local + 3 forwards
        assert_eq!(processed, 4);
        assert_eq!(sim.steps(), 4);
        assert_eq!(sim.run_to_quiescence(), 0, "already quiescent");
    }

    #[test]
    fn uniform_latency_advances_the_clock_by_distance() {
        // line 0-1-2-3, 5 ticks per hop: the flood front arrives at node k
        // at virtual time 5k
        let topo = builders::line(4);
        let mut sim = Simulator::with_latency(topo, LatencyModel::Uniform { hop: 5 }, |_, _| {
            Flood::default()
        });
        sim.inject_and_run(NodeId(0), 9);
        for k in 0..4u64 {
            assert_eq!(sim.node(NodeId(k as u32)).seen_at, vec![5 * k], "node {k}");
        }
        assert_eq!(sim.now(), 15);
    }

    #[test]
    fn per_link_weights_shape_the_timeline() {
        // star: hub 0, leaves 1..=3; the 0-2 link is slow
        let topo = builders::star(4);
        let model = LatencyModel::per_link(1, [(NodeId(0), NodeId(2), 10)]);
        let mut sim = Simulator::with_latency(topo, model, |_, _| Flood::default());
        sim.inject_and_run(NodeId(1), 5);
        assert_eq!(sim.node(NodeId(0)).seen_at, vec![1]);
        assert_eq!(sim.node(NodeId(3)).seen_at, vec![2]);
        assert_eq!(sim.node(NodeId(2)).seen_at, vec![11], "slow link");
    }

    #[test]
    fn run_until_pauses_mid_flight_without_loss_or_duplication() {
        // the satellite invariant: injecting during a paused in-flight
        // flood neither drops nor duplicates deliveries
        let topo = builders::balanced(15, 2);
        let mut sim = Simulator::with_latency(topo, LatencyModel::Uniform { hop: 3 }, |_, _| {
            Flood::default()
        });
        sim.inject(NodeId(0), 1);
        let first = sim.run_until(4); // root + its two children have seen it
        assert!(first >= 3, "partial advancement handled {first}");
        assert!(sim.queue_depth() > 0, "flood must still be in flight");
        assert_eq!(sim.now(), 4);
        // conservation invariant mid-flight: nothing lost, nothing invented
        assert_eq!(
            sim.scheduled_total(),
            sim.steps() + sim.dropped_from_queue() + sim.queue_depth() as u64
        );
        // inject a second flood while the first is paused in flight
        sim.inject(NodeId(14), 2);
        sim.run_to_quiescence();
        for n in 0..15u32 {
            let mut seen = sim.node(NodeId(n)).seen.clone();
            seen.sort_unstable();
            assert_eq!(seen, vec![1, 2], "node n{n} saw each flood exactly once");
        }
        assert_eq!(sim.stats.adv_msgs(), 2 * 14);
        assert_eq!(
            sim.scheduled_total(),
            sim.steps() + sim.dropped_from_queue() + sim.queue_depth() as u64
        );
    }

    #[test]
    fn run_until_advances_the_clock_even_when_idle() {
        let topo = builders::line(2);
        let mut sim = Simulator::new(topo, |_, _| Flood::default());
        assert_eq!(sim.run_until(100), 0);
        assert_eq!(sim.now(), 100);
        // a later injection is due at the advanced clock, and past times
        // clamp forward
        sim.inject_at(NodeId(0), 1, 50);
        sim.run_to_quiescence();
        assert_eq!(sim.node(NodeId(0)).seen_at, vec![100]);
    }

    #[test]
    fn zero_latency_is_fifo_ordered() {
        // two same-tick floods interleave in strict injection order: the
        // seq tie-break reproduces the legacy FIFO trace
        let topo = builders::line(3);
        let mut sim = Simulator::new(topo, |_, _| Flood::default());
        sim.inject(NodeId(0), 1);
        sim.inject(NodeId(2), 2);
        sim.run_to_quiescence();
        // node 1 hears 1 first (seq order), node 0/2 their local value first
        assert_eq!(sim.node(NodeId(1)).seen, vec![1, 2]);
        assert_eq!(sim.node(NodeId(0)).seen, vec![1, 2]);
        assert_eq!(sim.node(NodeId(2)).seen, vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "not a neighbor")]
    fn sending_to_non_neighbor_panics() {
        #[derive(Debug)]
        struct Bad;
        impl NodeBehavior for Bad {
            type Msg = ();
            fn on_message(&mut self, _: NodeId, _: (), ctx: &mut Ctx<'_, ()>) {
                ctx.send(NodeId(3), (), ChargeKind::Event, 1);
            }
        }
        let topo = builders::line(4);
        let mut sim = Simulator::new(topo, |_, _| Bad);
        sim.inject_and_run(NodeId(0), ());
    }

    #[derive(Debug)]
    struct PingPong;
    impl NodeBehavior for PingPong {
        type Msg = ();
        fn on_message(&mut self, from: NodeId, _: (), ctx: &mut Ctx<'_, ()>) {
            // bounce forever between the two nodes
            let to = if from == ctx.node() {
                ctx.neighbors()[0]
            } else {
                from
            };
            ctx.send(to, (), ChargeKind::Event, 1);
        }
    }

    #[test]
    #[should_panic(expected = "forwarding loop")]
    fn runaway_protection_trips() {
        let topo = builders::line(2);
        let mut sim = Simulator::new(topo, |_, _| PingPong);
        sim.set_max_steps(1000);
        sim.inject_and_run(NodeId(0), ());
    }

    #[test]
    fn runaway_panic_names_the_clock_and_queue_depth() {
        let topo = builders::line(2);
        let mut sim =
            Simulator::with_latency(topo, LatencyModel::Uniform { hop: 2 }, |_, _| PingPong);
        sim.set_max_steps(100);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.inject_and_run(NodeId(0), ());
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string panic payload");
        assert!(msg.contains("exceeded 100 steps"), "got: {msg}");
        assert!(msg.contains("at virtual time"), "got: {msg}");
        assert!(msg.contains("messages queued"), "got: {msg}");
    }

    #[test]
    fn unknown_node_id_panics_with_named_message() {
        let topo = builders::line(3);
        let sim = Simulator::new(topo, |_, _| Flood::default());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = sim.node(NodeId(7));
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string panic payload");
        assert!(msg.contains("unknown NodeId n7"), "got: {msg}");
        assert!(msg.contains("3 nodes"), "got: {msg}");
    }

    #[test]
    fn crashed_node_drops_traffic_but_survivors_reroute() {
        // star: hub 0, leaves 1..4 — crash the hub onto leaf 1
        let topo = builders::star(5);
        let mut sim = Simulator::new(topo, |_, _| Flood::default());
        sim.crash_and_regraft(NodeId(0), NodeId(1)).unwrap();
        assert!(sim.is_down(NodeId(0)));
        sim.inject_and_run(NodeId(2), 42);
        // the flood reaches every survivor via the new hub (leaf 1)…
        for n in [1u32, 2, 3, 4] {
            assert_eq!(sim.node(NodeId(n)).seen, vec![42], "node n{n}");
        }
        // …and the copy sent to the downed node is charged but dropped
        assert!(sim.node(NodeId(0)).seen.is_empty());
        assert!(sim.dropped_to_downed() >= 1);
        // injections at the corpse are swallowed
        let dropped = sim.dropped_to_downed();
        sim.inject_and_run(NodeId(0), 43);
        assert_eq!(sim.dropped_to_downed(), dropped + 1);
    }

    #[test]
    fn steps_count_handled_messages_not_drops() {
        // line 0-1-2: crash the far end, flood from 0. The copy addressed
        // to the corpse is dropped, not processed — steps must not count it.
        let topo = builders::line(3);
        let mut sim = Simulator::new(topo, |_, _| Flood::default());
        sim.crash_and_regraft(NodeId(2), NodeId(1)).unwrap();
        let processed = sim.inject_and_run(NodeId(0), 1);
        assert_eq!(processed, 2, "only n0 and n1 handled the flood");
        assert_eq!(sim.steps(), 2);
        assert_eq!(sim.dropped_to_downed(), 1);
        assert_eq!(sim.dropped_from_queue(), 1);
        assert_eq!(
            sim.scheduled_total(),
            sim.steps() + sim.dropped_from_queue() + sim.queue_depth() as u64
        );
    }

    #[test]
    fn regrafting_onto_a_downed_anchor_is_rejected() {
        // line 0-1-2-3: down node 1, then try to re-graft node 2's
        // survivors onto the corpse
        let topo = builders::line(4);
        let mut sim = Simulator::new(topo, |_, _| Flood::default());
        sim.crash_and_regraft(NodeId(1), NodeId(2)).unwrap();
        assert!(sim.crash_and_regraft(NodeId(2), NodeId(1)).is_err());
        // a live anchor still works
        sim.crash_and_regraft(NodeId(2), NodeId(3)).unwrap();
        sim.inject_and_run(NodeId(0), 7);
        assert_eq!(sim.node(NodeId(3)).seen, vec![7], "0 reaches 3 via regraft");
    }

    #[test]
    fn crash_purges_in_flight_messages_to_the_corpse() {
        // pause a flood mid-flight, crash a node the front hasn't reached
        let topo = builders::line(4);
        let mut sim = Simulator::with_latency(topo, LatencyModel::Uniform { hop: 4 }, |_, _| {
            Flood::default()
        });
        sim.inject(NodeId(0), 1);
        sim.run_until(5); // n0 at 0, n1 at 4; the 1→2 copy in flight for t=8
        assert_eq!(sim.queue_depth(), 1);
        sim.crash_and_regraft(NodeId(2), NodeId(1)).unwrap();
        assert_eq!(sim.queue_depth(), 0, "in-flight copy purged");
        assert_eq!(sim.dropped_from_queue(), 1);
        sim.run_to_quiescence();
        // the flood front died with the purged copy — n3 (re-grafted onto
        // n1) never hears it; re-flooding after a crash is the ROADMAP
        // recovery-protocol item, not the scheduler's job
        assert!(sim.node(NodeId(3)).seen.is_empty());
        assert_eq!(
            sim.scheduled_total(),
            sim.steps() + sim.dropped_from_queue() + sim.queue_depth() as u64
        );
    }

    /// A behaviour whose recovery action re-floods its own seen values —
    /// the skeleton of the advertisement re-flood protocol.
    #[derive(Debug, Default)]
    struct RecoverFlood {
        seen: Vec<u64>,
        seen_at: Vec<u64>,
        recoveries: Vec<RegraftDelta>,
    }

    impl NodeBehavior for RecoverFlood {
        type Msg = u64;
        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
            if self.seen.contains(&msg) {
                return;
            }
            self.seen.push(msg);
            self.seen_at.push(ctx.now());
            let me = ctx.node();
            for n in ctx.neighbors().to_vec() {
                if n != from || from == me {
                    ctx.send(n, msg, ChargeKind::Advertisement, 1);
                }
            }
        }
        fn on_recover(&mut self, delta: &RegraftDelta, ctx: &mut Ctx<'_, u64>) {
            self.recoveries.push(delta.clone());
            // re-flood everything this node originated (values == node id)
            let me = ctx.node();
            if self.seen.contains(&u64::from(me.0)) {
                for n in ctx.neighbors().to_vec() {
                    ctx.send(n, u64::from(me.0), ChargeKind::Recovery, 1);
                }
            }
        }
    }

    #[test]
    fn run_recovery_schedules_on_the_virtual_clock_and_charges_recovery() {
        // line 0-1-2-3, 2 ticks per hop; node 0 floods its value, then the
        // relay n1 crashes before the flood passes it
        let topo = builders::line(4);
        let mut sim = Simulator::with_latency(topo, LatencyModel::Uniform { hop: 2 }, |_, _| {
            RecoverFlood::default()
        });
        sim.inject(NodeId(0), 0);
        sim.run_until(1); // n0 handled it; the 0→1 copy is in flight
        let delta = sim.crash_and_regraft(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(delta.orphans, vec![NodeId(0)]);
        sim.run_recovery(&delta);
        // every survivor observed the delta exactly once…
        for n in [0u32, 2, 3] {
            assert_eq!(sim.node(NodeId(n)).recoveries, vec![delta.clone()]);
        }
        assert!(sim.node(NodeId(1)).recoveries.is_empty(), "corpse skipped");
        sim.run_to_quiescence();
        // …and n0's recovery re-flood reached the re-grafted survivors,
        // two hops away on the new tree, at recovery-time + 2 hops
        assert_eq!(sim.node(NodeId(2)).seen, vec![0]);
        assert_eq!(sim.node(NodeId(3)).seen, vec![0]);
        assert_eq!(sim.node(NodeId(2)).seen_at, vec![1 + 2]);
        assert_eq!(sim.node(NodeId(3)).seen_at, vec![1 + 4]);
        assert!(
            sim.stats.recovery_msgs() >= 1,
            "recovery traffic is charged"
        );
        assert_eq!(
            sim.scheduled_total(),
            sim.steps() + sim.dropped_from_queue() + sim.queue_depth() as u64
        );
    }

    #[test]
    fn delivery_log_tracks_distinct_simple_events() {
        use fsf_model::{AttrId, Event, Point, SensorId, Timestamp};
        let ev = |id: u64| Event {
            id: EventId(id),
            sensor: SensorId(1),
            attr: AttrId(0),
            location: Point::new(0.0, 0.0),
            value: 0.0,
            timestamp: Timestamp(id),
        };
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
        use fsf_model::{AttrId, Event, Point, SensorId, Timestamp};
        let ev = |id: u64| Event {
            id: EventId(id),
            sensor: SensorId(1),
            attr: AttrId(0),
            location: Point::new(0.0, 0.0),
            value: 0.0,
            timestamp: Timestamp(id),
        };
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
        use fsf_model::{AttrId, Event, Point, SensorId, Timestamp};
        let ev = |id: u64| Event {
            id: EventId(id),
            sensor: SensorId(1),
            attr: AttrId(0),
            location: Point::new(0.0, 0.0),
            value: 0.0,
            timestamp: Timestamp(id),
        };
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
        use fsf_model::{AttrId, Event, Point, SensorId, Timestamp};
        let ev = |id: u64| Event {
            id: EventId(id),
            sensor: SensorId(1),
            attr: AttrId(0),
            location: Point::new(0.0, 0.0),
            value: 0.0,
            timestamp: Timestamp(id),
        };
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

    #[test]
    fn severed_link_drops_are_conserved_and_heal_restores_delivery() {
        let topo = builders::line(4);
        let mut sim = Simulator::new(topo, |_, _| Flood::default());
        sim.sever_link(NodeId(1), NodeId(2)).unwrap();
        sim.inject_and_run(NodeId(0), 1);
        // the flood serves its own side and dies at the cut
        assert_eq!(sim.node(NodeId(1)).seen, vec![1]);
        assert!(sim.node(NodeId(2)).seen.is_empty());
        assert_eq!(sim.dropped_severed(), 1);
        assert_eq!(sim.dropped_from_queue(), 1);
        assert_eq!(
            sim.scheduled_total(),
            sim.steps() + sim.dropped_from_queue() + sim.queue_depth() as u64
        );
        // the far side keeps serving reachable traffic
        sim.inject_and_run(NodeId(3), 2);
        assert_eq!(sim.node(NodeId(2)).seen, vec![2]);
        assert_eq!(sim.node(NodeId(0)).seen, vec![1]);
        // heal: new traffic crosses again (the dropped floods stay dropped —
        // re-offering state is the on_link_up protocol, not the carrier's job)
        sim.heal_link(NodeId(1), NodeId(2)).unwrap();
        sim.inject_and_run(NodeId(0), 3);
        assert_eq!(sim.node(NodeId(3)).seen, vec![2, 3]);
        assert_eq!(
            sim.scheduled_total(),
            sim.steps() + sim.dropped_from_queue() + sim.queue_depth() as u64
        );
    }

    #[test]
    fn in_flight_messages_at_sever_time_still_arrive() {
        // queued-or-dropped semantics: a message on the wire when the link
        // is cut was already transmitted and arrives; sends after the cut die
        let topo = builders::line(3);
        let mut sim = Simulator::with_latency(topo, LatencyModel::Uniform { hop: 4 }, |_, _| {
            Flood::default()
        });
        sim.inject(NodeId(0), 1);
        sim.run_until(5); // the 1→2 copy is in flight, due at t=8
        sim.sever_link(NodeId(1), NodeId(2)).unwrap();
        sim.run_to_quiescence();
        assert_eq!(sim.node(NodeId(2)).seen, vec![1], "pre-cut copy arrives");
        assert_eq!(sim.dropped_severed(), 0);
    }

    /// Behaviour that records link-up reconciliation calls.
    #[derive(Debug, Default)]
    struct LinkUp {
        ups: Vec<NodeId>,
    }
    impl NodeBehavior for LinkUp {
        type Msg = u64;
        fn on_message(&mut self, _: NodeId, _: u64, _: &mut Ctx<'_, u64>) {}
        fn on_link_up(&mut self, peer: NodeId, ctx: &mut Ctx<'_, u64>) {
            self.ups.push(peer);
            ctx.send(peer, 99, ChargeKind::Recovery, 1);
        }
    }

    #[test]
    fn heal_runs_on_link_up_on_both_endpoints() {
        let topo = builders::line(3);
        let mut sim = Simulator::new(topo, |_, _| LinkUp::default());
        sim.sever_link(NodeId(0), NodeId(1)).unwrap();
        sim.heal_link(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(sim.node(NodeId(0)).ups, vec![NodeId(1)]);
        assert_eq!(sim.node(NodeId(1)).ups, vec![NodeId(0)]);
        assert!(sim.node(NodeId(2)).ups.is_empty());
        assert!(sim.stats.recovery_msgs() >= 2, "reconciliation is charged");
        // healing a healthy link does not re-run reconciliation
        sim.heal_link(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(sim.node(NodeId(0)).ups.len(), 1);
        sim.run_to_quiescence();
        assert_eq!(
            sim.scheduled_total(),
            sim.steps() + sim.dropped_from_queue() + sim.queue_depth() as u64
        );
    }

    #[test]
    fn heartbeats_confirm_a_crashed_node_and_clear_false_suspicion() {
        // line 0-1-2: enable liveness, crash n2, drive time past the
        // timeout — n1 (its only live neighbor) must confirm it dead
        let topo = builders::line(3);
        let mut sim = Simulator::new(topo, |_, _| Flood::default());
        sim.set_liveness(10, 25);
        sim.crash_and_regraft(NodeId(2), NodeId(1)).unwrap();
        sim.run_until(100);
        assert!(sim.suspicions().contains(&(NodeId(1), NodeId(2))));
        assert_eq!(sim.take_confirmed_dead(), vec![NodeId(2)]);
        assert!(sim.take_confirmed_dead().is_empty(), "drained once");
        // healthy pairs never suspected each other
        assert!(!sim.suspicions().contains(&(NodeId(0), NodeId(1))));
        // conservation holds with heartbeat traffic in the ledger
        assert_eq!(
            sim.scheduled_total(),
            sim.steps() + sim.dropped_from_queue() + sim.queue_depth() as u64
        );
        assert!(sim.stats.liveness_msgs() > 0, "heartbeats are charged");
    }

    #[test]
    fn false_suspicion_across_a_severed_link_clears_after_heal() {
        // partition a live leaf: its neighbor falsely confirms it dead;
        // after heal the next pong re-admits it with no state change
        let topo = builders::line(3);
        let mut sim = Simulator::new(topo, |_, _| Flood::default());
        sim.set_liveness(10, 25);
        sim.sever_link(NodeId(1), NodeId(2)).unwrap();
        sim.run_until(100);
        assert!(sim.suspicions().contains(&(NodeId(1), NodeId(2))));
        assert!(sim.suspicions().contains(&(NodeId(2), NodeId(1))));
        assert_eq!(
            sim.take_confirmed_dead(),
            vec![NodeId(2)],
            "a severed leaf is indistinguishable from a corpse — the engine \
             layer must intersect with real crash records"
        );
        sim.heal_link(NodeId(1), NodeId(2)).unwrap();
        sim.run_until(200);
        assert!(sim.suspicions().is_empty(), "pongs cleared both directions");
        assert!(sim.take_confirmed_dead().is_empty());
        // node state never changed: suspicion is observation, not mutation
        assert!(sim.node(NodeId(2)).seen.is_empty());
        assert_eq!(
            sim.scheduled_total(),
            sim.steps() + sim.dropped_from_queue() + sim.queue_depth() as u64
        );
    }
}
