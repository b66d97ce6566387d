//! The uniform engine facade the experiment driver runs against.

use crate::builder::EngineBuilder;
use fsf_model::{Advertisement, Event, SensorId, SubId, Subscription};
use fsf_network::{
    DeliveryLog, LatencySummary, NodeId, RegraftDelta, Topology, TopologyError, TrafficStats,
};
use std::collections::{BTreeMap, BTreeSet};

/// One node's residual state, as reported by [`EngineIntrospect::footprint`] — the
/// quantities a fully torn-down network must return to zero (churn leak
/// checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeFootprint {
    /// The node.
    pub node: NodeId,
    /// Stored advertisements (`DSA_*`).
    pub advertisements: usize,
    /// Stored operators, covered and uncovered, all origins.
    pub operators: usize,
    /// Unexpired stored simple events.
    pub stored_events: usize,
    /// Forwarding-route entries retraction messages would retrace.
    pub routes: usize,
}

impl NodeFootprint {
    /// No residual state at all?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.advertisements == 0
            && self.operators == 0
            && self.stored_events == 0
            && self.routes == 0
    }
}

/// Cumulative sensor-mobility accounting of one engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MobilityStats {
    /// Successful `move_sensor` calls (handoffs).
    pub moves: u64,
    /// `Move` re-advertisement messages network-wide (mirrors
    /// `stats().handoff_msgs()` — the protocol's handoff cost; the operator
    /// re-splits ride in the subscription class).
    pub handoff_msgs: u64,
}

impl MobilityStats {
    /// Mean handoff messages per move (0.0 before the first move).
    #[must_use]
    pub fn handoff_per_move(&self) -> f64 {
        if self.moves == 0 {
            0.0
        } else {
            self.handoff_msgs as f64 / self.moves as f64
        }
    }
}

/// Cumulative crash-recovery accounting of one engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Successful `crash_node` calls.
    pub crashes: u64,
    /// Crash events whose recovery protocol has run (equals `crashes` under
    /// auto-recovery; lags behind while recovery is deferred).
    pub recoveries: u64,
    /// Advertisement re-flood messages network-wide (mirrors
    /// `stats().recovery_msgs()` — the protocol's repair cost).
    pub repair_msgs: u64,
    /// Management-plane injections issued during recovery: retractions for
    /// state hosted on the corpse, plus the centralized baseline's
    /// re-registrations.
    pub control_injections: u64,
}

/// Engine-wrapper bookkeeping for the recovery management plane, shared by
/// both substrates and read by [`crate::Protocol`] when it plans repairs:
/// which node hosts which sensor / subscription (the deployment's
/// management view — node behaviors cannot tell a sensor hosted *on* the
/// corpse from one advertised *through* it), the tombstones of everything
/// that ever left, which crashes still await recovery, and the cumulative
/// counters.
#[derive(Debug)]
pub struct RecoveryPlane {
    pub(crate) auto: bool,
    pub(crate) pending: Vec<RegraftDelta>,
    pub(crate) crashes: u64,
    pub(crate) recoveries: u64,
    pub(crate) control_injections: u64,
    pub(crate) sensor_hosts: BTreeMap<SensorId, NodeId>,
    pub(crate) sub_hosts: BTreeMap<SubId, NodeId>,
    /// Advertisement generation per sensor: 0 at the first advertisement,
    /// bumped by every move. The management plane is the generation
    /// authority — the new host cannot derive it from its own (possibly
    /// stale, possibly still in-flight) advertisement picture.
    pub(crate) sensor_gens: BTreeMap<SensorId, u64>,
    /// Successful `move_sensor` calls.
    pub(crate) moves: u64,
    /// Tombstones: every sensor that ever departed — retracted by its user
    /// or dead in a crash. Recovery re-announces them at the crash
    /// frontier, because a retraction flood the crash severed in flight
    /// must be replayed; a re-announcement of a long-forgotten sensor is
    /// absorbed by the first node that no longer knows it, so the cost is
    /// proportional to actual staleness.
    pub(crate) dead_sensors: BTreeSet<SensorId>,
    /// Tombstoned subscriptions, for the centralized baseline (the pub/sub
    /// family's corpse purge retraces severed operator removals on its
    /// own; the centre needs the cancellation re-sent).
    pub(crate) dead_subs: BTreeSet<SubId>,
}

impl RecoveryPlane {
    pub(crate) fn new() -> Self {
        RecoveryPlane {
            auto: true,
            pending: Vec::new(),
            crashes: 0,
            recoveries: 0,
            control_injections: 0,
            sensor_hosts: BTreeMap::new(),
            sub_hosts: BTreeMap::new(),
            sensor_gens: BTreeMap::new(),
            moves: 0,
            dead_sensors: BTreeSet::new(),
            dead_subs: BTreeSet::new(),
        }
    }

    /// Record a sensor handoff: bump the advertisement generation, re-home
    /// the host entry, and (for a retired id re-appearing) lift the
    /// tombstone — the sensor is live again and must not be re-retracted
    /// by a later recovery's tombstone re-announcement. Returns the new
    /// generation the `Move` flood must carry.
    pub(crate) fn note_move(&mut self, sensor: SensorId, node: NodeId) -> u64 {
        self.moves += 1;
        self.sensor_hosts.insert(sensor, node);
        self.dead_sensors.remove(&sensor);
        let gen = self.sensor_gens.entry(sensor).or_insert(0);
        *gen += 1;
        *gen
    }

    /// Record a sensor retraction. A retraction is itself a **generation
    /// event**: the bump mirrors what the host node does when it processes
    /// `SensorDown` (retire the current generation), keeping the
    /// management plane the generation authority for tombstone
    /// re-announcements and later revivals.
    pub(crate) fn note_sensor_retracted(&mut self, sensor: SensorId) {
        self.sensor_hosts.remove(&sensor);
        self.dead_sensors.insert(sensor);
        let gen = self.sensor_gens.entry(sensor).or_insert(0);
        *gen += 1;
    }

    pub(crate) fn note_sub_retracted(&mut self, sub: SubId) {
        self.sub_hosts.remove(&sub);
        self.dead_subs.insert(sub);
    }

    /// Record a crash: state hosted on the corpse is dead (tombstoned)
    /// from the management plane's point of view immediately. Returns the
    /// delta to recover now (auto) or queues it (deferred).
    pub(crate) fn note_crash(&mut self, delta: RegraftDelta) -> Option<RegraftDelta> {
        self.crashes += 1;
        let corpse = delta.crashed;
        let dead_sensors: Vec<SensorId> = self
            .sensor_hosts
            .iter()
            .filter(|(_, &n)| n == corpse)
            .map(|(&s, _)| s)
            .collect();
        for s in dead_sensors {
            self.note_sensor_retracted(s);
        }
        let dead_subs: Vec<SubId> = self
            .sub_hosts
            .iter()
            .filter(|(_, &n)| n == corpse)
            .map(|(&s, _)| s)
            .collect();
        for s in dead_subs {
            self.note_sub_retracted(s);
        }
        if self.auto {
            Some(delta)
        } else {
            self.pending.push(delta);
            None
        }
    }

    /// Feed a failure detector's confirmations into the plane: a confirmed
    /// node whose crash is awaiting recovery has that crash's delta
    /// returned for recovery now; a false confirmation (no crash record —
    /// the node is alive behind a partition) matches nothing and is
    /// dropped on the floor, its late pong having re-admitted it.
    pub(crate) fn take_detected(&mut self, confirmed: &[NodeId]) -> Vec<RegraftDelta> {
        if confirmed.is_empty() {
            return Vec::new();
        }
        let (detected, pending) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(|d| confirmed.contains(&d.crashed));
        self.pending = pending;
        detected
    }

    /// Where to inject the tombstone re-announcements: the crash frontier
    /// — the anchor and the orphans, skipping any that are corpses
    /// themselves (cascading crashes). Every stale region left behind by a
    /// severed flood is rooted at one of these nodes.
    pub(crate) fn frontier(delta: &RegraftDelta, is_down: impl Fn(NodeId) -> bool) -> Vec<NodeId> {
        std::iter::once(delta.anchor)
            .chain(delta.orphans.iter().copied())
            .filter(|&n| !is_down(n))
            .collect()
    }

    pub(crate) fn stats(&self, repair_msgs: u64) -> RecoveryStats {
        RecoveryStats {
            crashes: self.crashes,
            recoveries: self.recoveries,
            repair_msgs,
            control_injections: self.control_injections,
        }
    }
}

/// The workload-facing **data plane** of an engine: inject items (and
/// retract them — §IV-B: state "is valid until explicitly removed") and
/// drain the network. One of the three facets composed by [`Engine`].
pub trait EngineData {
    /// Human-readable approach name (paper §VI naming).
    fn name(&self) -> &'static str;
    /// A sensor appears at `node` (advertises itself).
    fn inject_sensor(&mut self, node: NodeId, adv: Advertisement);
    /// A user registers a subscription at `node`.
    fn inject_subscription(&mut self, node: NodeId, sub: Subscription);
    /// A sensor at `node` publishes a reading.
    fn inject_event(&mut self, node: NodeId, event: Event);
    /// A node publishes one virtual-time tick's readings as a single delta
    /// batch. The default loops [`EngineData::inject_event`]; engines with
    /// a batched matching core override it to schedule one framed
    /// multi-event message, so link-level delivery batching starts at the
    /// source. Semantically equivalent to the loop either way — the
    /// batched-delivery equality tests hold engines to that.
    fn inject_events(&mut self, node: NodeId, events: Vec<Event>) {
        for e in events {
            self.inject_event(node, e);
        }
    }
    /// The user at `node` cancels subscription `sub`: every engine must
    /// withdraw the subscription's operator state along its forwarding
    /// paths (or, for the centralized baseline, at the centre).
    fn retract_subscription(&mut self, node: NodeId, sub: SubId);
    /// The sensor `sensor` hosted at `node` departs: retract its
    /// advertisement state and garbage-collect its stored readings.
    fn retract_sensor(&mut self, node: NodeId, sensor: SensorId);
    /// A **known** sensor id re-appears at `node` (sensor mobility): the
    /// new host floods a generation-tagged `Move` re-advertisement. Nodes
    /// re-home the advertisement origin, retract routing state along the
    /// old recorded path, and re-split uncovered operators toward the new
    /// path — covered operators stay covered, no delivery is duplicated,
    /// and the handoff opens a fresh correlation epoch for the sensor
    /// (its stored readings from the old location are dropped, exactly as
    /// the stationary twin's retire + fresh-id sequence would drop them).
    /// Works for a live sensor (handoff) and for a previously retracted id
    /// re-appearing (re-advertisement).
    fn move_sensor(&mut self, node: NodeId, adv: Advertisement);
    /// Process all queued messages to quiescence.
    fn flush(&mut self);
}

/// The **control plane** of an engine: churn (crashes, recovery) and
/// partial advancement of the virtual clock. One of the three
/// facets composed by [`Engine`].
pub trait EngineControl {
    /// Crash `node`: re-graft its orphaned neighbors onto `anchor` (which
    /// must be one of its neighbors) and mark it down — subsequent traffic
    /// to it is dropped. See [`fsf_network::Topology::regraft`].
    ///
    /// # Errors
    /// Fails if `anchor` is not a neighbor of `node`.
    fn crash_node(&mut self, node: NodeId, anchor: NodeId) -> Result<(), TopologyError>;
    /// Toggle automatic crash recovery (default **on**): when enabled,
    /// `crash_node` immediately runs the recovery protocol over the
    /// re-grafted tree (advertisement re-floods, operator re-forwards,
    /// management-plane retraction of corpse-hosted state); when disabled,
    /// crashes degrade the network — the pre-recovery behavior — until
    /// [`EngineControl::recover`] is called.
    fn set_auto_recover(&mut self, on: bool);
    /// Run the recovery protocol for every crash still pending (a no-op
    /// when auto-recovery already handled them). Schedules the recovery
    /// traffic on the virtual clock without flushing, so it races whatever
    /// is in flight — flush or `run_until` to drain it.
    fn recover(&mut self);
    /// Sever the link between the adjacent nodes `a` and `b` (network
    /// partition): the edge stays in the routing picture on both sides,
    /// but traffic over it dies at the sender's radio — charged, counted
    /// ([`EngineIntrospect::dropped_severed`]), never delivered — until
    /// [`EngineControl::heal_link`]. Messages already in flight across the
    /// link still arrive. Idempotent.
    ///
    /// # Errors
    /// Fails if `(a, b)` is not an edge of the topology.
    fn sever_link(&mut self, a: NodeId, b: NodeId) -> Result<(), TopologyError>;
    /// Heal a severed link and run the in-protocol reconciliation: both
    /// live endpoints get [`fsf_network::NodeBehavior::on_link_up`] —
    /// tombstones first, then generation-tagged advertisement repairs
    /// (highest generation wins), then a forced re-split of operator
    /// projections toward the peer, so state that diverged during the
    /// partition merges without route loss. The reconciliation traffic is
    /// scheduled, not drained — flush or `run_until` to finish the merge.
    /// A no-op on a link that is not severed.
    ///
    /// # Errors
    /// Fails if `(a, b)` is not an edge of the topology.
    fn heal_link(&mut self, a: NodeId, b: NodeId) -> Result<(), TopologyError>;
    /// Enable the in-protocol heartbeat failure detector: every `period`
    /// virtual ticks each live node pings its neighbors, a neighbor silent
    /// past `timeout` is suspected, and a node all of whose live neighbors
    /// suspect it is confirmed dead. Confirmations feed the recovery plane
    /// on the next `run_until`/`flush`: a confirmed node whose crash is
    /// still awaiting recovery (see [`EngineControl::set_auto_recover`])
    /// has that recovery applied in-protocol, without a management-plane
    /// [`EngineControl::recover`] call; a *false* confirmation (a live
    /// node behind a severed link or a long delay) matches no crash record
    /// and is ignored — its late pong re-admits it with no route loss.
    /// Pick `timeout ≥ period + 2 × the longest link delay` to avoid
    /// false suspicion on healthy links. Simulator deployments require the
    /// single-shard backend; the async host probes on management-plane
    /// ticks instead of the virtual clock.
    fn set_liveness(&mut self, period: u64, timeout: u64);
    /// Advance the virtual clock to `t`, delivering exactly the messages
    /// due at or before `t` and leaving later ones in flight (partial
    /// advancement — the timed churn replay interleaves actions with
    /// in-flight floods through this). Returns the number of messages
    /// handled. Free-running deployments (the async host) have no
    /// held-back future messages, so there `run_until` drains to
    /// quiescence like [`EngineData::flush`].
    fn run_until(&mut self, t: u64) -> u64;
}

/// The **read-only introspection** surface of an engine: cumulative
/// counters, residual state, clocks, and delivery records. One of the
/// three facets composed by [`Engine`].
pub trait EngineIntrospect {
    /// Cumulative mobility counters (moves and handoff message cost).
    fn mobility_stats(&self) -> MobilityStats;
    /// Cumulative crash/recovery counters.
    fn recovery_stats(&self) -> RecoveryStats;
    /// Per-node residual state (downed nodes excluded — they died with
    /// their state).
    fn footprint(&self) -> Vec<NodeFootprint>;
    /// The network's virtual clock (0 until a nonzero-latency message or
    /// `run_until` horizon advances it).
    fn now(&self) -> u64;
    /// Messages scheduled but not yet delivered (0 at quiescence).
    fn queue_depth(&self) -> usize;
    /// Delivery-latency percentiles observed so far (virtual ticks from
    /// reading injection to complex-event delivery).
    fn latency_summary(&self) -> LatencySummary;
    /// Accumulated traffic counters.
    fn stats(&self) -> &TrafficStats;
    /// Accumulated end-user deliveries.
    fn deliveries(&self) -> &DeliveryLog;
    /// Event-queue shard count of the underlying [`fsf_network::Simulator`]
    /// (1 = the heap discipline, the deterministic oracle; more = the
    /// effective count of its shards discipline), or the async host's
    /// worker count.
    fn shards(&self) -> usize;
    /// Messages delivered to node behaviors so far.
    fn steps(&self) -> u64;
    /// Messages ever scheduled on the network. Conservation invariant:
    /// `scheduled_total == steps + dropped_from_queue + queue_depth`.
    fn scheduled_total(&self) -> u64;
    /// Messages dropped from the queue without delivery (corpse-bound
    /// traffic purged at a crash, popped to a downed node, or dead at the
    /// radio of a severed link).
    fn dropped_from_queue(&self) -> u64;
    /// Messages dropped at a sender's radio because the link was severed
    /// (a subset of [`EngineIntrospect::dropped_from_queue`]; 0 unless
    /// [`EngineControl::sever_link`] was used).
    fn dropped_severed(&self) -> u64 {
        0
    }
    /// Active directed `(observer, suspect)` suspicions of the heartbeat
    /// failure detector, sorted (empty unless
    /// [`EngineControl::set_liveness`] was used).
    fn suspicions(&self) -> Vec<(NodeId, NodeId)> {
        Vec::new()
    }
}

/// A continuous-query engine under test — the umbrella over the three
/// facets ([`EngineData`] + [`EngineControl`] + [`EngineIntrospect`]).
///
/// Generic call sites keep bounding on `Engine` (or boxing `dyn Engine`)
/// and see every method; narrower call sites — a workload driver that must
/// not touch churn, a report generator that must not mutate — can bound on
/// a single facet. The blanket impl makes every type implementing all
/// three facets an `Engine` automatically.
pub trait Engine: EngineData + EngineControl + EngineIntrospect {}

impl<T: EngineData + EngineControl + EngineIntrospect + ?Sized> Engine for T {}

/// The five approaches of the paper's evaluation (§VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EngineKind {
    /// All subscriptions and events to the graph median; matching there.
    Centralized,
    /// No filtering, per-subscription result sets.
    Naive,
    /// Pairwise coverage sharing, per-subscription result sets.
    OperatorPlacement,
    /// Binary-join decomposition at divergence nodes, per-link dedup.
    MultiJoin,
    /// The paper's contribution: set filtering + split/forward + per-link
    /// publish/subscribe event propagation.
    FilterSplitForward,
}

impl EngineKind {
    /// All five, in the paper's presentation order.
    pub const ALL: [EngineKind; 5] = [
        EngineKind::Centralized,
        EngineKind::Naive,
        EngineKind::OperatorPlacement,
        EngineKind::MultiJoin,
        EngineKind::FilterSplitForward,
    ];

    /// The four distributed approaches (the small/large-scale figures omit
    /// the centralized baseline).
    pub const DISTRIBUTED: [EngineKind; 4] = [
        EngineKind::Naive,
        EngineKind::OperatorPlacement,
        EngineKind::MultiJoin,
        EngineKind::FilterSplitForward,
    ];

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Centralized => "Centralized",
            EngineKind::Naive => "Naive approach",
            EngineKind::OperatorPlacement => "Distributed operator placement",
            EngineKind::MultiJoin => "Distributed multi-join",
            EngineKind::FilterSplitForward => "Filter-Split-Forward",
        }
    }

    /// The paper's Table II row: (subscription filtering, subscription
    /// splitting, event propagation).
    #[must_use]
    pub fn table2_row(&self) -> (&'static str, &'static str, &'static str) {
        match self {
            EngineKind::Centralized => ("None", "None", "Full result sets"),
            EngineKind::Naive => ("None", "Simple", "Full result sets"),
            EngineKind::OperatorPlacement => ("Pair wise", "Simple", "Per subscription"),
            EngineKind::MultiJoin => ("Pair wise", "Binary joins", "Per neighbor"),
            EngineKind::FilterSplitForward => ("Set filtering", "Simple", "Per neighbor"),
        }
    }

    /// Start a fluent [`EngineBuilder`] over `topology` — the one
    /// construction path every deployment goes through:
    ///
    /// ```ignore
    /// let engine = EngineKind::FilterSplitForward
    ///     .builder(topology)
    ///     .latency(LatencyModel::Uniform { hop: 2 })
    ///     .deploy(Deploy::Async { workers: 4 })
    ///     .build();
    /// ```
    #[must_use]
    pub fn builder(&self, topology: Topology) -> EngineBuilder {
        EngineBuilder::new(*self, topology)
    }

    /// Build an engine instance over `topology` with instantaneous message
    /// delivery (the paper's run-to-quiescence evaluation setting).
    ///
    /// `event_validity` must exceed the workload's `δt`; `seed` feeds the
    /// probabilistic set filter (Filter-Split-Forward only).
    /// (Thin shim over [`EngineKind::builder`].)
    #[must_use]
    pub fn build(&self, topology: Topology, event_validity: u64, seed: u64) -> Box<dyn Engine> {
        self.builder(topology)
            .validity(event_validity)
            .seed(seed)
            .build()
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fsf_model::{AttrId, EventId, Point, SensorId, SubId, Timestamp, ValueRange};
    use fsf_network::{builders, LatencyModel};

    const DT: u64 = 30;

    pub(crate) fn adv(sensor: u32, attr: u16) -> Advertisement {
        Advertisement {
            sensor: SensorId(sensor),
            attr: AttrId(attr),
            location: Point::new(sensor as f64, 0.0),
        }
    }

    pub(crate) fn sub(id: u64, filters: &[(u32, f64, f64)]) -> Subscription {
        Subscription::identified(
            SubId(id),
            filters
                .iter()
                .map(|&(d, lo, hi)| (SensorId(d), ValueRange::new(lo, hi))),
            DT,
        )
        .unwrap()
    }

    pub(crate) fn ev(id: u64, sensor: u32, attr: u16, v: f64, t: u64) -> Event {
        Event {
            id: EventId(id),
            sensor: SensorId(sensor),
            attr: AttrId(attr),
            location: Point::new(sensor as f64, 0.0),
            value: v,
            timestamp: Timestamp(t),
        }
    }

    /// Drive all five engines through the same small join workload; all
    /// deterministic approaches must deliver the identical result set.
    #[test]
    fn all_engines_deliver_identical_results_on_a_join() {
        let mut per_engine = Vec::new();
        for kind in EngineKind::ALL {
            let mut e = kind.build(builders::balanced(9, 2), 2 * DT, 7);
            // sensors at leaves 5 and 6, user at leaf 8
            e.inject_sensor(NodeId(5), adv(1, 0));
            e.inject_sensor(NodeId(6), adv(2, 1));
            e.flush();
            e.inject_subscription(NodeId(8), sub(1, &[(1, 0.0, 10.0), (2, 0.0, 10.0)]));
            e.flush();
            for (i, (sensor, node, v, t)) in [
                (1u32, 5u32, 5.0, 1000u64),
                (2, 6, 5.0, 1010),
                (1, 5, 50.0, 1020), // out of range
                (2, 6, 5.0, 2000),  // out of window (no partner)
                (1, 5, 7.0, 2005),  // pairs with the previous one
            ]
            .into_iter()
            .enumerate()
            {
                let attr = sensor as u16 - 1;
                e.inject_event(NodeId(node), ev(100 + i as u64, sensor, attr, v, t));
                e.flush();
            }
            let delivered = e.deliveries().delivered(SubId(1)).to_vec();
            per_engine.push((kind.name(), delivered));
        }
        let reference = per_engine[0].1.clone();
        assert_eq!(reference.len(), 4, "two complete complex events");
        for (name, delivered) in &per_engine {
            assert_eq!(delivered, &reference, "{name} diverged");
        }
    }

    /// Traffic ordering on a workload with overlap: naive ≥ operator
    /// placement ≥ FSF for both loads; centralized has the lowest
    /// subscription load.
    #[test]
    fn traffic_ordering_matches_the_paper() {
        let run = |kind: EngineKind| {
            let mut e = kind.build(builders::balanced(9, 2), 2 * DT, 7);
            e.inject_sensor(NodeId(5), adv(1, 0));
            e.inject_sensor(NodeId(6), adv(2, 1));
            e.flush();
            // overlapping subscriptions from the same user node
            e.inject_subscription(NodeId(8), sub(1, &[(1, 0.0, 6.0), (2, 0.0, 10.0)]));
            e.inject_subscription(NodeId(8), sub(2, &[(1, 4.0, 10.0), (2, 0.0, 10.0)]));
            e.inject_subscription(NodeId(8), sub(3, &[(1, 1.0, 5.0), (2, 1.0, 9.0)]));
            e.flush();
            let mut eid = 0;
            for t in (1000..1600).step_by(40) {
                eid += 1;
                e.inject_event(NodeId(5), ev(eid, 1, 0, 5.0, t));
                eid += 1;
                e.inject_event(NodeId(6), ev(eid, 2, 1, 5.0, t + 5));
                e.flush();
            }
            (e.stats().sub_forwards(), e.stats().event_units())
        };
        let (sub_c, _ev_c) = run(EngineKind::Centralized);
        let (sub_n, ev_n) = run(EngineKind::Naive);
        let (sub_o, ev_o) = run(EngineKind::OperatorPlacement);
        let (sub_f, ev_f) = run(EngineKind::FilterSplitForward);
        assert!(
            sub_c <= sub_f,
            "centralized has the lowest subscription load"
        );
        assert!(
            sub_n >= sub_o,
            "naive ≥ operator placement: {sub_n} vs {sub_o}"
        );
        assert!(
            sub_o >= sub_f,
            "operator placement ≥ FSF: {sub_o} vs {sub_f}"
        );
        assert!(
            ev_n >= ev_o,
            "naive ≥ operator placement events: {ev_n} vs {ev_o}"
        );
        assert!(
            ev_o >= ev_f,
            "operator placement ≥ FSF events: {ev_o} vs {ev_f}"
        );
        assert!(ev_n > ev_f, "sanity: overlap makes naive strictly worse");
    }

    /// Latency wiring: under a uniform hop delay every engine delivers the
    /// same results as its zero-latency twin, reports a nonzero delivery
    /// latency, and its clock advances.
    #[test]
    fn latency_build_keeps_results_and_measures_delay() {
        for kind in EngineKind::ALL {
            let run = |latency: LatencyModel| {
                let mut e = kind
                    .builder(builders::balanced(9, 2))
                    .validity(2 * DT)
                    .seed(7)
                    .latency(latency)
                    .build();
                e.inject_sensor(NodeId(5), adv(1, 0));
                e.inject_sensor(NodeId(6), adv(2, 1));
                e.flush();
                e.inject_subscription(NodeId(8), sub(1, &[(1, 0.0, 10.0), (2, 0.0, 10.0)]));
                e.flush();
                e.inject_event(NodeId(5), ev(100, 1, 0, 5.0, 1000));
                e.flush();
                e.inject_event(NodeId(6), ev(101, 2, 1, 5.0, 1010));
                e.flush();
                (
                    e.deliveries().delivered(SubId(1)).to_vec(),
                    e.latency_summary(),
                    e.now(),
                )
            };
            let (zero_set, zero_lat, zero_now) = run(LatencyModel::Zero);
            let (slow_set, slow_lat, slow_now) = run(LatencyModel::Uniform { hop: 2 });
            assert_eq!(zero_set, slow_set, "{kind}: latency changed the results");
            assert_eq!(zero_set.len(), 2, "{kind}: the join completed");
            assert_eq!((zero_lat.max, zero_now), (0, 0), "{kind}");
            assert!(slow_lat.samples > 0, "{kind}: no latency samples");
            assert!(slow_lat.max > 0, "{kind}: delivery was instantaneous");
            assert!(slow_now > 0, "{kind}: the clock never moved");
            assert_eq!(kind.build(builders::line(3), 2 * DT, 7).queue_depth(), 0);
        }
    }

    /// The recovery acceptance smoke at the facade level: a relay crash
    /// with auto-recovery restores delivery for every engine, while the
    /// deferred mode stays degraded until `recover()` is called.
    #[test]
    fn crash_recovery_restores_delivery_for_every_engine() {
        for kind in EngineKind::ALL {
            for auto in [true, false] {
                // line: sensor n0 — n1 — n2 — n3 — n4(user); crash relay
                // n1. n2 is the median, so the centralized matcher survives.
                let mut e = kind.build(builders::line(5), 2 * DT, 7);
                e.set_auto_recover(auto);
                e.inject_sensor(NodeId(0), adv(1, 0));
                e.flush();
                e.inject_subscription(NodeId(4), sub(1, &[(1, 0.0, 10.0)]));
                e.flush();
                e.crash_node(NodeId(1), NodeId(2)).unwrap();
                e.flush();
                if !auto {
                    // degraded: the publisher's event dies at the hole
                    e.inject_event(NodeId(0), ev(100, 1, 0, 5.0, 1000));
                    e.flush();
                    if kind != EngineKind::Centralized {
                        assert_eq!(
                            e.deliveries().delivered(SubId(1)).len(),
                            0,
                            "{kind}: delivered through a dead relay without recovery"
                        );
                    }
                    assert_eq!(e.recovery_stats().recoveries, 0, "{kind}");
                    e.recover();
                    e.flush();
                }
                let stats = e.recovery_stats();
                assert_eq!(stats.crashes, 1, "{kind}");
                assert_eq!(stats.recoveries, 1, "{kind}");
                // post-recovery (new correlation epoch): delivery restored
                e.inject_event(NodeId(0), ev(101, 1, 0, 5.0, 2000));
                e.flush();
                assert!(
                    e.deliveries().delivered(SubId(1)).contains(&EventId(101)),
                    "{kind} (auto={auto}): recovery did not restore the path"
                );
                assert_eq!(e.queue_depth(), 0, "{kind}: not quiescent");
            }
        }
    }

    /// Crashing the node that hosts a sensor: the management plane declares
    /// it down, its traces are garbage-collected network-wide, and the
    /// survivors' teardown still comes back clean.
    #[test]
    fn crashing_a_station_retracts_its_sensor_everywhere() {
        for kind in EngineKind::ALL {
            let mut e = kind.build(builders::line(4), 2 * DT, 7);
            e.inject_sensor(NodeId(0), adv(1, 0));
            e.inject_sensor(NodeId(3), adv(2, 1));
            e.flush();
            e.inject_subscription(NodeId(2), sub(1, &[(1, 0.0, 10.0)]));
            e.inject_subscription(NodeId(2), sub(2, &[(2, 0.0, 10.0)]));
            e.flush();
            e.inject_event(NodeId(0), ev(100, 1, 0, 5.0, 1000));
            e.flush();
            // the station hosting sensor 1 crashes (with its past readings)
            e.crash_node(NodeId(0), NodeId(1)).unwrap();
            e.flush();
            assert!(e.recovery_stats().control_injections >= 1, "{kind}");
            // the surviving sensor still delivers…
            e.inject_event(NodeId(3), ev(101, 2, 1, 5.0, 2000));
            e.flush();
            assert!(
                e.deliveries().delivered(SubId(2)).contains(&EventId(101)),
                "{kind}: surviving sensor broken by the crash"
            );
            // …and retracting the survivors leaves no residue anywhere
            e.retract_subscription(NodeId(2), SubId(1));
            e.retract_subscription(NodeId(2), SubId(2));
            e.retract_sensor(NodeId(3), SensorId(2));
            e.flush();
            let leaked: Vec<_> = e
                .footprint()
                .into_iter()
                .filter(|f| !f.is_clean())
                .collect();
            assert!(
                leaked.is_empty(),
                "{kind}: residue after teardown: {leaked:?}"
            );
        }
    }

    /// The mobility acceptance smoke at the facade level: a sensor handoff
    /// re-routes delivery for every engine, bills the move, and the
    /// post-move teardown still comes back clean.
    #[test]
    fn sensor_move_rerouting_restores_delivery_for_every_engine() {
        for kind in EngineKind::ALL {
            // line: sensor n0 — n1 — n2 — n3 — n4(user); sensor 1 moves
            // from n0 to n3 (one hop from the user)
            let mut e = kind.build(builders::line(5), 2 * DT, 7);
            e.inject_sensor(NodeId(0), adv(1, 0));
            e.flush();
            e.inject_subscription(NodeId(4), sub(1, &[(1, 0.0, 10.0)]));
            e.flush();
            e.inject_event(NodeId(0), ev(100, 1, 0, 5.0, 1000));
            e.flush();
            assert!(
                e.deliveries().delivered(SubId(1)).contains(&EventId(100)),
                "{kind}: pre-move delivery broken"
            );
            e.move_sensor(NodeId(3), adv(1, 0));
            e.flush();
            let ms = e.mobility_stats();
            assert_eq!(ms.moves, 1, "{kind}");
            assert!(ms.handoff_msgs > 0, "{kind}: free handoff?");
            assert!(ms.handoff_per_move() > 0.0, "{kind}");
            // post-move (fresh correlation epoch): readings from the new
            // host reach the subscriber over the re-split path
            e.inject_event(NodeId(3), ev(101, 1, 0, 5.0, 2000));
            e.flush();
            assert!(
                e.deliveries().delivered(SubId(1)).contains(&EventId(101)),
                "{kind}: the move broke delivery"
            );
            // teardown addressed at the *new* host leaves no residue
            e.retract_subscription(NodeId(4), SubId(1));
            e.retract_sensor(NodeId(3), SensorId(1));
            e.flush();
            let leaked: Vec<_> = e
                .footprint()
                .into_iter()
                .filter(|f| !f.is_clean())
                .collect();
            assert!(
                leaked.is_empty(),
                "{kind}: residue after post-move teardown: {leaked:?}"
            );
        }
    }

    #[test]
    fn table2_matrix_is_complete() {
        assert_eq!(EngineKind::ALL.len(), 5);
        for kind in EngineKind::ALL {
            let (f, s, e) = kind.table2_row();
            assert!(!f.is_empty() && !s.is_empty() && !e.is_empty());
            assert!(!kind.name().is_empty());
        }
        assert_eq!(
            EngineKind::FilterSplitForward.table2_row(),
            ("Set filtering", "Simple", "Per neighbor")
        );
        assert_eq!(EngineKind::DISTRIBUTED.len(), 4);
    }
}
