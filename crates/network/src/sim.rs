//! Deterministic discrete-event message simulator.
//!
//! [`Simulator`] owns everything that sits below [`NodeBehavior`] and above
//! the queue — topology, latency model, virtual clock, downed set, sink,
//! step budget, the merged traffic and delivery ledgers — and implements
//! the management plane (inject, sever/heal, crash + purge, recovery) once.
//! What it schedules *on* is one of two queue disciplines, picked at
//! construction from the requested shard count:
//!
//! * the **heap** (`heap.rs`, 1 shard): one timestamped priority
//!   queue popped in `(deliver_at, seq)` order, where `seq` is a global
//!   monotone sequence number assigned at scheduling time — the
//!   determinism oracle;
//! * the **shards** ([`crate::shard`], more): per-subtree calendar queues
//!   advanced concurrently in conservative lookahead rounds, held
//!   event-for-event equal to the heap by `tests/sharded_equality.rs`.
//!
//! **Heartbeats.** The beat lives here, once for both disciplines: a pump
//! runs the queue up to the tick before the next beat, every live node
//! pings every neighbor through the queue's fresh-enqueue seam, and the
//! [`crate::liveness::Detector`] sweeps. On the shards the beat is a round
//! barrier, because the pump's horizon already stops every shard before it.
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

use crate::heap::Heap;
use crate::latency::LatencyModel;
use crate::liveness::Detector;
use crate::node::{Ctx, DeliveryLog, NodeBehavior};
use crate::shard::Shards;
use crate::topology::{NodeId, RegraftDelta, Topology, TopologyError};
use crate::traffic::{ChargeKind, TrafficStats};
use fsf_model::EventId;
use fsf_telemetry::{Noop, TelemetryEvent, TelemetrySink, TrafficClass};
use std::collections::BTreeSet;

/// The message-conservation ledger: `scheduled_total == steps +
/// queue_drops + queue depth` at every pause point.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counters {
    pub(crate) scheduled_total: u64,
    pub(crate) steps: u64,
    pub(crate) queue_drops: u64,
    /// Drops at a downed destination: injections, purges and arrivals (the
    /// latter two are also queue drops).
    pub(crate) dropped_to_downed: u64,
    /// Queue drops at a severed link's radio.
    pub(crate) dropped_severed: u64,
}

impl Counters {
    pub(crate) fn absorb(&mut self, other: Counters) {
        self.scheduled_total += other.scheduled_total;
        self.steps += other.steps;
        self.queue_drops += other.queue_drops;
        self.dropped_to_downed += other.dropped_to_downed;
        self.dropped_severed += other.dropped_severed;
    }
}

/// What travels on a link: an application message, or one leg of the
/// heartbeat exchange. Pings and pongs ride the queue like any message
/// (latency, severed links and crash drops all apply — that is what makes
/// the suspicion signal honest) but are answered below [`NodeBehavior`]:
/// node logic never sees them.
#[derive(Debug, Clone)]
pub(crate) enum Payload<M> {
    App(M),
    Ping,
    Pong,
}

/// What a queue discipline sees of the shared layer while it enqueues,
/// purges or pumps.
pub(crate) struct Net<'a, S> {
    pub(crate) topology: &'a Topology,
    pub(crate) latency: &'a LatencyModel,
    pub(crate) sink: &'a S,
    pub(crate) down: &'a BTreeSet<NodeId>,
    pub(crate) stats: &'a mut TrafficStats,
    pub(crate) deliveries: &'a mut DeliveryLog,
    pub(crate) counts: &'a mut Counters,
    pub(crate) now: &'a mut u64,
    pub(crate) liveness: Option<&'a mut Detector>,
}

impl<S: TelemetrySink> Net<'_, S> {
    /// Hand one pong, heard by `observer` from `peer` at `at`, to the
    /// failure detector, and record the suspicion it cleared.
    pub(crate) fn heard(&mut self, observer: NodeId, peer: NodeId, at: u64) {
        let Some(detector) = self.liveness.as_deref_mut() else {
            return;
        };
        if detector.heard(observer, peer, at, !self.down.contains(&peer)) && S::ENABLED {
            self.sink.record(TelemetryEvent::SuspicionCleared {
                at,
                by: observer.0,
                node: peer.0,
            });
        }
    }
}

/// The two queue disciplines (see the module docs).
#[derive(Debug)]
enum Queue<B: NodeBehavior, S: TelemetrySink> {
    Heap(Heap<B>),
    Shards(Shards<B, S>),
}

/// Deterministic discrete-event simulator over a tree of [`NodeBehavior`]
/// nodes. Defaults to [`LatencyModel::Zero`] on the heap, which reproduces
/// the classic run-to-quiescence FIFO semantics exactly (see the module
/// docs).
///
/// The `S` parameter is the telemetry sink; it defaults to
/// [`fsf_telemetry::Noop`], whose `ENABLED = false` lets every recording
/// site compile away — the disabled simulator is byte-for-byte the old one.
/// Build with [`Simulator::build_with_sink`] and a
/// [`fsf_telemetry::Recorder`] to capture the message lifecycle.
#[derive(Debug)]
pub struct Simulator<B: NodeBehavior, S: TelemetrySink = Noop> {
    topology: Topology,
    latency: LatencyModel,
    sink: S,
    /// Accumulated traffic counters.
    pub stats: TrafficStats,
    /// Accumulated end-user deliveries, settled at the end of every pump
    /// and management-plane callback.
    pub deliveries: DeliveryLog,
    now: u64,
    max_steps_per_run: u64,
    down: BTreeSet<NodeId>,
    counts: Counters,
    /// Heartbeat failure detector, off by default (zero overhead when off).
    liveness: Option<Detector>,
    queue: Queue<B, S>,
}

/// The pre-unification name of [`Simulator`], kept for `benchmark/`.
pub type Backend<B, S = Noop> = Simulator<B, S>;

impl<B: NodeBehavior + Send> Simulator<B>
where
    B::Msg: Send,
{
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
        Self::build(topology, latency, 1, make_node)
    }

    /// Build with `shards` requested: 1 selects the heap, more selects the
    /// shards discipline.
    pub fn build(
        topology: Topology,
        latency: LatencyModel,
        shards: usize,
        make_node: impl FnMut(NodeId, &Topology) -> B,
    ) -> Self {
        Self::build_with_sink(topology, latency, Noop, shards, make_node)
    }
}

impl<B: NodeBehavior + Send, S: TelemetrySink> Simulator<B, S>
where
    B::Msg: Send,
{
    /// Default per-run step budget; exceeding it panics (a forwarding loop
    /// would otherwise spin forever).
    pub const DEFAULT_MAX_STEPS: u64 = 200_000_000;

    /// Build with a telemetry sink and a requested shard count (see
    /// [`Simulator::build`]).
    pub fn build_with_sink(
        topology: Topology,
        latency: LatencyModel,
        sink: S,
        shards: usize,
        mut make_node: impl FnMut(NodeId, &Topology) -> B,
    ) -> Self {
        let queue = if shards <= 1 {
            let nodes = topology
                .nodes()
                .map(|id| make_node(id, &topology))
                .collect();
            Queue::Heap(Heap::new(nodes))
        } else {
            Queue::Shards(Shards::new(&topology, &latency, &sink, shards, make_node))
        };
        Simulator {
            topology,
            latency,
            sink,
            stats: TrafficStats::new(),
            deliveries: DeliveryLog::new(),
            now: 0,
            max_steps_per_run: Self::DEFAULT_MAX_STEPS,
            down: BTreeSet::new(),
            counts: Counters::default(),
            liveness: None,
            queue,
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

    /// Effective event-queue shard count: 1 on the heap, the plan's count
    /// (≤ the requested one) on the shards discipline.
    #[must_use]
    pub fn shards(&self) -> usize {
        match &self.queue {
            Queue::Heap(_) => 1,
            Queue::Shards(s) => s.plan.shards(),
        }
    }

    /// Panic with a named-id message on an unknown node id — churn plans
    /// make out-of-range ids a realistic mistake.
    fn check_id(&self, id: NodeId) {
        let n = self.topology.len();
        if id.0 as usize >= n {
            panic!("unknown NodeId {id}: topology has {n} nodes (0..{n})");
        }
    }

    /// Immutable access to a node's state (for inspection in tests).
    ///
    /// # Panics
    /// Panics with a named-id message on unknown node ids.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &B {
        self.check_id(id);
        match &self.queue {
            Queue::Heap(h) => &h.nodes[id.0 as usize],
            Queue::Shards(s) => s.node(id),
        }
    }

    /// Mutable access to a node's state.
    ///
    /// # Panics
    /// Panics with a named-id message on unknown node ids (see [`Self::node`]).
    pub fn node_mut(&mut self, id: NodeId) -> &mut B {
        self.check_id(id);
        self.queue.node_mut(id)
    }

    /// Is the node marked down (crashed)?
    #[must_use]
    pub fn is_down(&self, id: NodeId) -> bool {
        self.down.contains(&id)
    }

    /// The virtual clock: the latest delivery tick processed (or horizon
    /// passed to [`Self::run_until`]). Never decreases.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Register an injection time for latency accounting.
    pub fn note_injection(&mut self, event: EventId, at: u64) {
        self.deliveries.note_injection(event, at);
        if let Queue::Shards(s) = &mut self.queue {
            s.note_injection(event, at);
        }
    }

    /// Messages currently scheduled but not yet delivered (purged ones
    /// excluded: they are already in [`Self::dropped_from_queue`]).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        match &self.queue {
            Queue::Heap(h) => h.depth(),
            Queue::Shards(s) => s.queued(),
        }
    }

    /// Every envelope ever enqueued (injections at live nodes + sends).
    /// Together with [`Self::steps`], [`Self::dropped_from_queue`] and
    /// [`Self::queue_depth`] this forms the message-conservation invariant:
    /// `scheduled_total == steps + dropped_from_queue + queue_depth` holds
    /// at every pause point — nothing is lost or duplicated mid-flight.
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.counts.scheduled_total
    }

    /// Messages processed (handled by a live node) since construction.
    /// Drops to downed nodes are counted in [`Self::dropped_to_downed`],
    /// not here.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.counts.steps
    }

    /// Enqueued messages that were dropped instead of processed (destination
    /// crashed while they were in flight, or already down at delivery, or
    /// the link was severed at the radio).
    #[must_use]
    pub fn dropped_from_queue(&self) -> u64 {
        self.counts.queue_drops
    }

    /// Messages dropped because their destination was down — the simulator's
    /// fault-injection counter (covers injections at downed nodes, queued
    /// messages purged when their destination crashed, and in-flight
    /// messages arriving at a corpse).
    #[must_use]
    pub fn dropped_to_downed(&self) -> u64 {
        self.counts.dropped_to_downed
    }

    /// Messages dropped at the sender's radio because the link they would
    /// cross is severed. Included in [`Self::dropped_from_queue`], so the
    /// conservation invariant stays exact across partitions.
    #[must_use]
    pub fn dropped_severed(&self) -> u64 {
        self.counts.dropped_severed
    }

    /// The queue, and the rest of the simulator as the queue sees it.
    fn split(&mut self) -> (&mut Queue<B, S>, Net<'_, S>) {
        let net = Net {
            topology: &self.topology,
            latency: &self.latency,
            sink: &self.sink,
            down: &self.down,
            stats: &mut self.stats,
            deliveries: &mut self.deliveries,
            counts: &mut self.counts,
            now: &mut self.now,
            liveness: self.liveness.as_mut(),
        };
        (&mut self.queue, net)
    }

    /// Enqueue one management-plane send as a fresh causal flood. The
    /// caller has charged it; the queue applies the severed-at-the-radio
    /// rule.
    fn enqueue_fresh(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: Payload<B::Msg>,
        deliver_at: u64,
        class: TrafficClass,
        units: u64,
    ) {
        let (queue, mut net) = self.split();
        match queue {
            Queue::Heap(h) => h.schedule(&mut net, from, to, msg, deliver_at, None, class, units),
            Queue::Shards(s) => {
                s.schedule_external(&mut net, from, to, msg, deliver_at, class, units);
            }
        }
    }

    /// Run one management-plane callback on `node` with a live [`Ctx`] at
    /// the current virtual time, then charge and schedule whatever it sent
    /// through the latency model. Returns `(deliveries, sends)`.
    fn call_node(
        &mut self,
        node: NodeId,
        outbox: &mut Vec<(NodeId, B::Msg, ChargeKind, u64)>,
        call: impl FnOnce(&mut B, &mut Ctx<'_, B::Msg>),
    ) -> (u64, u64) {
        let deliveries_before = self.deliveries.complex_deliveries();
        {
            let mut ctx = Ctx::external(
                node,
                self.topology.neighbors(node),
                self.now,
                outbox,
                &mut self.deliveries,
            );
            call(self.queue.node_mut(node), &mut ctx);
        }
        self.deliveries.settle();
        let sends = outbox.len() as u64;
        for (to, msg, kind, units) in outbox.drain(..) {
            self.stats.charge(kind, node, to, units);
            let deliver_at = self.now + self.latency.delay(node, to);
            let msg = Payload::App(msg);
            self.enqueue_fresh(node, to, msg, deliver_at, kind.traffic_class(), units);
        }
        (
            self.deliveries.complex_deliveries() - deliveries_before,
            sends,
        )
    }

    /// The shards discipline's conservative windows depend on which links
    /// carry traffic: recompute them after every topology mutation, before
    /// anything is scheduled against the new topology.
    fn topology_changed(&mut self) {
        if let Queue::Shards(s) = &mut self.queue {
            s.rebuild_shard_graph(&self.topology, &self.latency);
        }
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
        self.topology_changed();
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
        self.topology_changed();
        let mut outbox = Vec::new();
        for (node, peer) in [(a, b), (b, a)] {
            if !self.down.contains(&node) {
                self.call_node(node, &mut outbox, |n, ctx| n.on_link_up(peer, ctx));
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
    /// suspicion on healthy links. The first beat fires one `period` from
    /// now.
    ///
    /// # Panics
    /// Panics when `period` or `timeout` is zero.
    pub fn set_liveness(&mut self, period: u64, timeout: u64) {
        self.liveness = Some(Detector::new(period, timeout, self.now));
    }

    /// Currently active directed suspicions, `(observer, suspect)` sorted.
    #[must_use]
    pub fn suspicions(&self) -> Vec<(NodeId, NodeId)> {
        self.liveness
            .as_ref()
            .map(Detector::suspicions)
            .unwrap_or_default()
    }

    /// Drain the nodes newly confirmed dead by the failure detector (every
    /// live neighbor suspects them). The engine layer intersects these
    /// with its crash records before triggering recovery, so a falsely
    /// confirmed-but-alive node (a partitioned leaf) costs nothing.
    pub fn take_confirmed_dead(&mut self) -> Vec<NodeId> {
        self.liveness
            .as_mut()
            .map(Detector::take_confirmed)
            .unwrap_or_default()
    }

    /// Fire one heartbeat at tick `t`: every live node pings every
    /// neighbor (a severed link eats the ping at the radio — that absence
    /// is the partition signal), then the detector sweeps.
    fn beat(&mut self, t: u64) {
        self.now = self.now.max(t);
        for a in (0..self.topology.len() as u32).map(NodeId) {
            if self.down.contains(&a) {
                continue;
            }
            for b in self.topology.neighbors(a).to_vec() {
                self.stats.charge(ChargeKind::Liveness, a, b, 1);
                let deliver_at = self.now + self.latency.delay(a, b);
                self.enqueue_fresh(a, b, Payload::Ping, deliver_at, TrafficClass::Liveness, 1);
            }
        }
        let detector = self
            .liveness
            .as_mut()
            .expect("beats fire only with liveness on");
        let raised = detector.sweep(t, &self.topology, |n| self.down.contains(&n));
        if S::ENABLED {
            for (by, node) in raised {
                self.sink.record(TelemetryEvent::Suspected {
                    at: t,
                    by: by.0,
                    node: node.0,
                });
            }
        }
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
    ) -> Result<RegraftDelta, TopologyError> {
        if self.down.contains(&anchor) {
            // re-grafting survivors onto a corpse would black-hole them
            return Err(TopologyError::BadEdge(crashed.0, anchor.0));
        }
        let (topology, delta) = self.topology.regraft_with_delta(crashed, anchor)?;
        self.topology = topology;
        if self.down.insert(crashed) {
            let (queue, mut net) = self.split();
            match queue {
                Queue::Heap(h) => h.tombstone(crashed, &mut net),
                Queue::Shards(s) => s.purge(crashed, &mut net),
            }
        }
        for id in (0..self.topology.len() as u32).map(NodeId) {
            if !self.down.contains(&id) {
                self.queue.node_mut(id).on_topology_change(&self.topology);
            }
        }
        self.topology_changed();
        Ok(delta)
    }

    /// Run the crash-recovery protocol for one regraft: every surviving
    /// node gets [`NodeBehavior::on_recover`] with a live [`Ctx`] at the
    /// current virtual time, and whatever it sends is charged and scheduled
    /// through the latency model — recovery traffic races in-flight floods
    /// exactly like any other message. Nodes are visited in id order, so
    /// the recovery timeline is deterministic across shard counts. Does
    /// **not** flush: callers decide whether recovery drains before the
    /// next action.
    pub fn run_recovery(&mut self, delta: &RegraftDelta) {
        let mut outbox = Vec::new();
        for node in (0..self.topology.len() as u32).map(NodeId) {
            if self.down.contains(&node) {
                continue;
            }
            let (deliveries, sends) =
                self.call_node(node, &mut outbox, |n, ctx| n.on_recover(delta, ctx));
            if S::ENABLED && deliveries + sends > 0 {
                self.sink.record(TelemetryEvent::Recovered {
                    at: self.now,
                    node: node.0,
                    shard: match &self.queue {
                        Queue::Heap(_) => 0,
                        Queue::Shards(s) => s.plan.shard_of(node) as u32,
                    },
                    deliveries,
                    sends,
                });
            }
        }
    }

    /// The runaway-protection panic message: the classic one-liner plus a
    /// snapshot of the active queue (per-shard depths, hottest destination)
    /// and — when a recording sink is attached — the last lifecycle events,
    /// so a forwarding loop names its suspects instead of just dying.
    fn runaway_report(&self) -> String {
        let mut msg = format!(
            "simulator exceeded {} steps at virtual time {} with {} messages queued — \
             forwarding loop?",
            self.max_steps_per_run,
            self.now,
            self.queue_depth()
        );
        let hottest = match &self.queue {
            Queue::Heap(h) => h.hottest(),
            Queue::Shards(s) => {
                msg.push_str(&format!("\n  queue depths: {}", s.depths()));
                s.scan_hottest()
            }
        };
        if let Some((node, depth)) = hottest {
            msg.push_str(&format!("\n  hottest destination: {node} ({depth} queued)"));
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
        if self.down.contains(&node) {
            self.counts.dropped_to_downed += 1;
            return;
        }
        let at = at.max(self.now);
        self.enqueue_fresh(node, node, Payload::App(msg), at, TrafficClass::Inject, 1);
    }

    /// Pump the active queue to `horizon` (if any) or quiescence, then
    /// settle the delivery log. Returns the number of messages handled.
    ///
    /// With liveness on, the queue runs in chunks that end just before the
    /// next beat. The beat fires when the horizon covers it, or, with no
    /// horizon, when messages are still queued: with an empty queue and no
    /// horizon the network is quiescent and beats wait for time to be
    /// driven forward ([`Self::run_until`]), so quiescence stays reachable.
    /// The chunk's internal horizon never moves the clock.
    ///
    /// # Panics
    /// Panics with [`Self::runaway_report`] when the pump would pop more
    /// than the step budget.
    fn pump(&mut self, horizon: Option<u64>) -> u64 {
        let mut budget = self.max_steps_per_run;
        let mut handled = 0;
        loop {
            let beat = self.liveness.as_ref().map(Detector::next_beat);
            let until = horizon.into_iter().chain(beat.map(|b| b - 1)).min();
            let (queue, net) = self.split();
            let (chunk, out_of_budget) = match queue {
                Queue::Heap(h) => h.pump(until, &mut budget, net),
                Queue::Shards(s) => s.run_rounds(until, &mut budget, net),
            };
            handled += chunk;
            self.deliveries.settle();
            if out_of_budget {
                panic!("{}", self.runaway_report());
            }
            match beat {
                Some(b) if horizon.map_or(self.queue_depth() > 0, |t| b <= t) => self.beat(b),
                _ => break,
            }
        }
        if let Some(t) = horizon {
            self.now = self.now.max(t);
        }
        handled
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

    /// The shards discipline's state, for tests of its internals.
    #[cfg(test)]
    pub(crate) fn shard_queue(&mut self) -> &mut Shards<B, S> {
        match &mut self.queue {
            Queue::Shards(s) => s,
            Queue::Heap(_) => panic!("built with one shard"),
        }
    }
}

impl<B: NodeBehavior + Send, S: TelemetrySink> Queue<B, S>
where
    B::Msg: Send,
{
    fn node_mut(&mut self, id: NodeId) -> &mut B {
        match self {
            Queue::Heap(h) => &mut h.nodes[id.0 as usize],
            Queue::Shards(s) => s.node_mut(id),
        }
    }
}
