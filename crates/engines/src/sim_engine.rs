//! The simulator deployment of the five engines: one wrapper over
//! [`fsf_network::Simulator`] (heap or shards queue, by shard count),
//! generic over the family's [`Protocol`] and an optional telemetry sink.

use crate::api::{
    adv_routes, AdvRoute, EngineControl, EngineData, EngineIntrospect, MobilityStats,
    NodeFootprint, RecoveryPlane, RecoveryStats,
};
use crate::protocol::Protocol;
use fsf_core::RepairCounts;
use fsf_model::{Advertisement, Event, SensorId, SubId, Subscription};
use fsf_network::{
    DeliveryLog, LatencyModel, LatencySummary, NodeId, RegraftDelta, Simulator, Topology,
    TopologyError, TrafficStats,
};
use fsf_telemetry::{Noop, TelemetryEvent, TelemetrySink};

/// An engine running its nodes on the deterministic discrete-event
/// simulator: virtual clock, partial advancement, event-queue sharding,
/// and — with a non-[`Noop`] sink — the full message lifecycle plus
/// engine-level operation spans.
pub struct SimEngine<P: Protocol, S: TelemetrySink = Noop> {
    proto: P,
    sim: Simulator<P::Node, S>,
    sink: S,
    recovery: RecoveryPlane,
}

impl<P: Protocol> SimEngine<P> {
    /// Zero latency, one shard, no telemetry — the paper's
    /// run-to-quiescence evaluation setting.
    #[must_use]
    pub fn new(topology: Topology, proto: P) -> Self {
        Self::with_sink(topology, LatencyModel::Zero, 1, Noop, proto)
    }
}

impl<P: Protocol, S: TelemetrySink> SimEngine<P, S> {
    /// Build with an explicit latency model, event-queue shard count
    /// (1 = the single-heap deterministic oracle) and telemetry sink.
    #[must_use]
    pub fn with_sink(
        topology: Topology,
        latency: LatencyModel,
        shards: usize,
        sink: S,
        proto: P,
    ) -> Self {
        let sim = Simulator::build_with_sink(topology, latency, sink.clone(), shards, |id, t| {
            proto.make_node(id, t)
        });
        SimEngine {
            proto,
            sim,
            sink,
            recovery: RecoveryPlane::new(),
        }
    }

    /// Access the underlying simulator (tests / inspection), whatever its
    /// shard count.
    #[must_use]
    pub fn simulator(&self) -> &Simulator<P::Node, S> {
        &self.sim
    }

    /// Record one engine-level span. High-volume data-plane injections are
    /// *not* spanned — they already appear in the message lifecycle as
    /// `Scheduled` events; the engine track carries the control-plane verbs
    /// and the flush windows where matching and forwarding happen.
    fn span(&self, op: &str, node: Option<NodeId>, start: u64, detail: impl FnOnce() -> String) {
        if S::ENABLED {
            self.sink.record(TelemetryEvent::EngineOp {
                op: op.to_string(),
                node: node.map(|n| n.0),
                start,
                end: self.sim.now(),
                detail: detail(),
            });
        }
    }

    /// Run one crash's recovery: the node-level protocol (purge + seam
    /// repair across the re-grafted edges), then the family's
    /// management-plane injections at the crash frontier.
    fn apply_recovery(&mut self, delta: &RegraftDelta) {
        let start = self.sim.now();
        self.sim.run_recovery(delta);
        let frontier = RecoveryPlane::frontier(delta, |n| self.sim.is_down(n));
        for (node, msg) in self.proto.recovery_injections(&self.recovery, &frontier) {
            self.sim.inject(node, msg);
            self.recovery.control_injections += 1;
        }
        self.recovery.recoveries += 1;
        self.span("recover", Some(delta.crashed), start, || {
            format!("frontier {}", frontier.len())
        });
    }

    /// Feed the heartbeat detector's confirmations into the recovery plane.
    fn drain_liveness(&mut self) {
        let confirmed = self.sim.take_confirmed_dead();
        for delta in self.recovery.take_detected(&confirmed) {
            self.apply_recovery(&delta);
        }
    }
}

impl<P: Protocol, S: TelemetrySink> EngineData for SimEngine<P, S> {
    fn name(&self) -> &'static str {
        self.proto.name()
    }
    fn inject_sensor(&mut self, node: NodeId, adv: Advertisement) {
        self.recovery.sensor_hosts.insert(adv.sensor, node);
        if let Some(msg) = self.proto.msg_sensor_up(adv) {
            self.sim.inject(node, msg);
        }
    }
    fn inject_subscription(&mut self, node: NodeId, sub: Subscription) {
        self.recovery.sub_hosts.insert(sub.id(), node);
        let msg = self.proto.msg_subscribe(node, sub);
        self.sim.inject(node, msg);
    }
    fn inject_event(&mut self, node: NodeId, event: Event) {
        self.sim.note_injection(event.id, self.sim.now());
        self.sim.inject(node, self.proto.msg_publish(event));
    }
    fn inject_events(&mut self, node: NodeId, events: Vec<Event>) {
        if events.is_empty() {
            return;
        }
        let now = self.sim.now();
        for e in &events {
            self.sim.note_injection(e.id, now);
        }
        // one framed injection where the family has one: the node processes
        // the frame in order and flushes one outgoing message per link for
        // the whole tick
        match self.proto.msg_events(events) {
            Ok(msg) => self.sim.inject(node, msg),
            Err(events) => {
                for e in events {
                    self.sim.inject(node, self.proto.msg_publish(e));
                }
            }
        }
    }
    fn retract_subscription(&mut self, node: NodeId, sub: SubId) {
        self.recovery.note_sub_retracted(sub);
        let msg = self.proto.msg_unsubscribe(sub);
        self.sim.inject(node, msg);
        self.span("retract-sub", Some(node), self.sim.now(), || {
            format!("{sub:?}")
        });
    }
    fn retract_sensor(&mut self, node: NodeId, sensor: SensorId) {
        self.recovery.note_sensor_retracted(sensor);
        self.sim.inject(node, self.proto.msg_sensor_down(sensor));
        self.span("retract-sensor", Some(node), self.sim.now(), || {
            format!("{sensor:?}")
        });
    }
    fn move_sensor(&mut self, node: NodeId, adv: Advertisement) {
        let gen = self.recovery.note_move(adv.sensor, node);
        self.sim.inject(node, self.proto.msg_move(adv, gen));
        self.span("move", Some(node), self.sim.now(), || {
            format!("{:?} gen {gen}", adv.sensor)
        });
    }
    fn flush(&mut self) {
        let start = self.sim.now();
        let before = self.sim.steps();
        self.sim.run_to_quiescence();
        self.drain_liveness();
        self.span("flush", None, start, || {
            format!("{} handled", self.sim.steps() - before)
        });
    }
}

impl<P: Protocol, S: TelemetrySink> EngineControl for SimEngine<P, S> {
    fn crash_node(&mut self, node: NodeId, anchor: NodeId) -> Result<(), TopologyError> {
        let start = self.sim.now();
        let delta = self.sim.crash_and_regraft(node, anchor)?;
        self.span("crash", Some(node), start, || {
            format!("anchor n{}, {} orphans", anchor.0, delta.orphans.len())
        });
        self.proto.on_crash(node);
        if let Some(delta) = self.recovery.note_crash(delta) {
            self.apply_recovery(&delta);
        }
        Ok(())
    }
    fn set_auto_recover(&mut self, on: bool) {
        self.recovery.auto = on;
    }
    fn recover(&mut self) {
        for delta in std::mem::take(&mut self.recovery.pending) {
            self.apply_recovery(&delta);
        }
    }
    fn sever_link(&mut self, a: NodeId, b: NodeId) -> Result<(), TopologyError> {
        self.sim.sever_link(a, b)?;
        self.span("sever", None, self.sim.now(), || {
            format!("n{} - n{}", a.0, b.0)
        });
        Ok(())
    }
    fn heal_link(&mut self, a: NodeId, b: NodeId) -> Result<(), TopologyError> {
        let start = self.sim.now();
        let was_severed = self.sim.topology().is_severed(a, b);
        self.sim.heal_link(a, b)?;
        if was_severed {
            for (node, msg) in self.proto.heal_injections(&self.recovery, (a, b)) {
                if self.sim.is_down(node) {
                    continue;
                }
                self.sim.inject(node, msg);
                self.recovery.control_injections += 1;
            }
        }
        self.span("heal", None, start, || format!("n{} - n{}", a.0, b.0));
        Ok(())
    }
    fn set_liveness(&mut self, period: u64, timeout: u64) {
        self.sim.set_liveness(period, timeout);
    }
    fn run_until(&mut self, t: u64) -> u64 {
        let handled = self.sim.run_until(t);
        self.drain_liveness();
        handled
    }
}

impl<P: Protocol, S: TelemetrySink> EngineIntrospect for SimEngine<P, S> {
    fn mobility_stats(&self) -> MobilityStats {
        MobilityStats {
            moves: self.recovery.moves,
            handoff_msgs: self.sim.stats.handoff_msgs(),
        }
    }
    fn recovery_stats(&self) -> RecoveryStats {
        // every node, corpses included: the simulator keeps their state
        let mut repairs = RepairCounts::default();
        for id in self.sim.topology().nodes() {
            if let Some(adverts) = P::adverts_of(self.sim.node(id)) {
                repairs += adverts.repair_counts();
            }
        }
        self.recovery.stats(self.sim.stats.recovery_msgs(), repairs)
    }
    fn advert_routes(&self) -> Vec<(NodeId, Vec<AdvRoute>)> {
        let live = self
            .sim
            .topology()
            .nodes()
            .filter(|&id| !self.sim.is_down(id));
        live.filter_map(|id| P::adverts_of(self.sim.node(id)).map(|a| (id, adv_routes(a))))
            .collect()
    }
    fn footprint(&self) -> Vec<NodeFootprint> {
        self.sim
            .topology()
            .nodes()
            .filter(|&id| !self.sim.is_down(id))
            .map(|id| P::footprint_of(self.sim.node(id), id))
            .collect()
    }
    fn now(&self) -> u64 {
        self.sim.now()
    }
    fn queue_depth(&self) -> usize {
        self.sim.queue_depth()
    }
    fn latency_summary(&self) -> LatencySummary {
        self.sim.deliveries.latency_summary()
    }
    fn stats(&self) -> &TrafficStats {
        &self.sim.stats
    }
    fn deliveries(&self) -> &DeliveryLog {
        &self.sim.deliveries
    }
    fn shards(&self) -> usize {
        self.sim.shards()
    }
    fn steps(&self) -> u64 {
        self.sim.steps()
    }
    fn scheduled_total(&self) -> u64 {
        self.sim.scheduled_total()
    }
    fn dropped_from_queue(&self) -> u64 {
        self.sim.dropped_from_queue()
    }
    fn dropped_severed(&self) -> u64 {
        self.sim.dropped_severed()
    }
    fn suspicions(&self) -> Vec<(NodeId, NodeId)> {
        self.sim.suspicions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CentralNode, CentralProto, MatchMode, MjNode, MjProto, PubSubProto};
    use fsf_core::{PubSubConfig, PubSubNode};
    use fsf_network::builders;
    use fsf_telemetry::Recorder;

    /// On the heap and on two shards: `simulator()` is the same typed
    /// accessor either way.
    fn assert_every_node_scans<P: Protocol>(
        proto: impl Fn() -> P,
        mode_of: fn(&P::Node) -> MatchMode,
    ) {
        for (shards, latency) in [
            (1, LatencyModel::Zero),
            (2, LatencyModel::Uniform { hop: 1 }),
        ] {
            let topology = builders::balanced(7, 2);
            let nodes: Vec<NodeId> = topology.nodes().collect();
            let e = SimEngine::with_sink(topology, latency, shards, Recorder::new(), proto());
            assert_eq!(e.shards(), shards);
            for id in nodes {
                let mode = mode_of(e.simulator().node(id));
                assert_eq!(mode, MatchMode::LinearScan, "{} at {id:?}", e.name());
            }
        }
    }

    /// A telemetry sink must not change which matcher the nodes run: the
    /// recorded constructors used to build multi-join and centralized
    /// nodes in their default mode whatever the caller asked for.
    #[test]
    fn match_mode_reaches_every_node_under_a_sink() {
        let scan = MatchMode::LinearScan;
        assert_every_node_scans(
            || PubSubProto::new("fsf", PubSubConfig::fsf(60, 7).with_match_mode(scan)),
            PubSubNode::match_mode,
        );
        assert_every_node_scans(|| MjProto::new(60, scan), MjNode::match_mode);
        assert_every_node_scans(
            || CentralProto::new(&builders::balanced(7, 2), 60, scan),
            CentralNode::match_mode,
        );
    }
}
