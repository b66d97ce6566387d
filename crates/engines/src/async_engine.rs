//! The production deployment of the five engines: every node an async
//! task (or dedicated thread) on [`fsf_runtime::NodeHost`], with bounded
//! mailboxes, backpressure, wire framing and per-link write batching.
//!
//! [`AsyncEngine`] implements the full [`crate::Engine`] facade (all three
//! facets), so a host-backed engine is a drop-in replacement for the
//! simulator-backed ones — the three-way equivalence battery holds all
//! deployments to the same [`DeliveryLog`]. The per-family differences
//! (message constructors, recovery protocol, footprint extraction) come
//! from the same [`Protocol`] impls the simulator engine runs.
//!
//! Differences inherent to a free-running deployment (vs the virtual
//! clock): `run_until` drains to quiescence — there is no held-back
//! future traffic to stop short of — and `stats()`/`deliveries()` return
//! the snapshot taken at the last `flush`/`run_until`/churn operation
//! (reading mid-flight state of a live network would race; flush first,
//! as every battery already does).

use crate::api::{
    adv_routes, AdvRoute, EngineControl, EngineData, EngineIntrospect, MobilityStats,
    NodeFootprint, RecoveryPlane, RecoveryStats,
};
use crate::protocol::Protocol;
use fsf_core::RepairCounts;
use fsf_model::{Advertisement, Event, SensorId, SubId, Subscription};
use fsf_network::{
    Ctx, DeliveryLog, LatencyModel, LatencySummary, NodeId, RegraftDelta, Topology, TopologyError,
    TrafficStats,
};
use fsf_runtime::{HostConfig, HostLedger, HostMode, NodeHost};

/// An engine running its nodes on the production [`NodeHost`].
pub(crate) struct AsyncEngine<P: Protocol> {
    proto: P,
    host: NodeHost<P::Node>,
    recovery: RecoveryPlane,
    /// Reported via [`EngineIntrospect::shards`]: executor workers, or 1
    /// in thread-per-node mode.
    workers: usize,
    stats_cache: TrafficStats,
    deliveries_cache: DeliveryLog,
}

impl<P: Protocol> AsyncEngine<P> {
    pub(crate) fn new(
        proto: P,
        topology: &Topology,
        latency: LatencyModel,
        mode: HostMode,
        mailbox: usize,
    ) -> Self {
        let config = HostConfig {
            mode,
            mailbox,
            latency,
        };
        let host = NodeHost::spawn(topology, &config, |id, t| proto.make_node(id, t));
        let workers = match mode {
            HostMode::ThreadPerNode => 1,
            HostMode::Executor { workers } => workers.max(1),
        };
        AsyncEngine {
            proto,
            host,
            recovery: RecoveryPlane::new(),
            workers,
            stats_cache: TrafficStats::new(),
            deliveries_cache: DeliveryLog::new(),
        }
    }

    fn refresh(&mut self) {
        self.stats_cache = self.host.stats();
        self.host.drain_deliveries_into(&mut self.deliveries_cache);
    }

    /// `read` applied to node `id` on its own task.
    fn read_node<T: Send + 'static>(
        &self,
        id: NodeId,
        read: impl FnOnce(&P::Node) -> T + Send + 'static,
    ) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let run = Box::new(move |node: &mut P::Node, _: &mut Ctx<'_, P::Msg>| {
            let _ = tx.send(read(node));
        });
        self.host.with_node(id, self.host.clock(), run);
        rx.recv().expect("with_node returns after the closure ran")
    }

    /// `read` applied to every live node on its own task, in node order.
    fn read_nodes<T: Send + 'static>(
        &self,
        read: impl Fn(&P::Node, NodeId) -> T + Clone + Send + 'static,
    ) -> Vec<T> {
        let ids = (0..self.host.topology().len() as u32).map(NodeId);
        ids.filter(|&id| !self.host.is_down(id))
            .map(|id| {
                let read = read.clone();
                self.read_node(id, move |node| read(node, id))
            })
            .collect()
    }

    fn repair_counts(&self) -> RepairCounts {
        let mut sum = self.recovery.corpse_repairs;
        for c in self.read_nodes(|node, _| P::adverts_of(node).map(|a| a.repair_counts())) {
            sum += c.unwrap_or_default();
        }
        sum
    }

    fn apply_recovery(&mut self, delta: &RegraftDelta) {
        let at = self.host.clock();
        self.host.run_recovery(delta, at);
        let frontier = RecoveryPlane::frontier(delta, |n| self.host.is_down(n));
        for (node, msg) in self.proto.recovery_injections(&self.recovery, &frontier) {
            self.host.inject(node, &msg, at);
            self.recovery.control_injections += 1;
        }
        self.recovery.recoveries += 1;
    }

    /// One probe round of the host's failure detector (a no-op with it
    /// off), its confirmations fed into the recovery plane, and the drain
    /// of whatever recovery traffic that started.
    fn drain_liveness(&mut self) {
        self.host.liveness_tick();
        let confirmed = self.host.take_confirmed_dead();
        let detected = self.recovery.take_detected(&confirmed);
        if detected.is_empty() {
            return;
        }
        for delta in detected {
            self.apply_recovery(&delta);
        }
        self.host.wait_quiescent();
    }
}

impl<P: Protocol> EngineData for AsyncEngine<P> {
    fn name(&self) -> &'static str {
        self.proto.name()
    }
    fn inject_sensor(&mut self, node: NodeId, adv: Advertisement) {
        self.recovery.sensor_hosts.insert(adv.sensor, node);
        if let Some(msg) = self.proto.msg_sensor_up(adv) {
            self.host.inject(node, &msg, self.host.clock());
        }
    }
    fn inject_subscription(&mut self, node: NodeId, sub: Subscription) {
        self.recovery.sub_hosts.insert(sub.id(), node);
        let msg = self.proto.msg_subscribe(node, sub);
        self.host.inject(node, &msg, self.host.clock());
    }
    fn inject_event(&mut self, node: NodeId, event: Event) {
        let at = self.host.clock();
        self.host.note_injection(event.id, at);
        self.host.inject(node, &self.proto.msg_publish(event), at);
    }
    fn inject_events(&mut self, node: NodeId, events: Vec<Event>) {
        if events.is_empty() {
            return;
        }
        let at = self.host.clock();
        for e in &events {
            self.host.note_injection(e.id, at);
        }
        match self.proto.msg_events(events) {
            Ok(msg) => self.host.inject(node, &msg, at),
            Err(events) => {
                for e in events {
                    self.host.inject(node, &self.proto.msg_publish(e), at);
                }
            }
        }
    }
    fn retract_subscription(&mut self, node: NodeId, sub: SubId) {
        self.recovery.note_sub_retracted(sub);
        let msg = self.proto.msg_unsubscribe(sub);
        self.host.inject(node, &msg, self.host.clock());
    }
    fn retract_sensor(&mut self, node: NodeId, sensor: SensorId) {
        self.recovery.note_sensor_retracted(sensor);
        self.host
            .inject(node, &self.proto.msg_sensor_down(sensor), self.host.clock());
    }
    fn move_sensor(&mut self, node: NodeId, adv: Advertisement) {
        let gen = self.recovery.note_move(adv.sensor, node);
        self.host
            .inject(node, &self.proto.msg_move(adv, gen), self.host.clock());
    }
    fn flush(&mut self) {
        self.host.wait_quiescent();
        self.drain_liveness();
        self.refresh();
    }
}

impl<P: Protocol> EngineControl for AsyncEngine<P> {
    fn crash_node(&mut self, node: NodeId, anchor: NodeId) -> Result<(), TopologyError> {
        // the host crashes at quiescence: in-flight traffic is drained, so
        // nothing queued-to-corpse needs purging (the simulator's purge
        // counters correspond to the host's dropped-at-the-wire ledger)
        self.host.wait_quiescent();
        // a corpse accepts no control traffic: read its repair counts now
        let corpse = if self.host.is_down(node) {
            RepairCounts::default()
        } else {
            self.read_node(node, |n| {
                P::adverts_of(n)
                    .map(|a| a.repair_counts())
                    .unwrap_or_default()
            })
        };
        let delta = self
            .host
            .crash_and_regraft(node, anchor, self.host.clock())?;
        self.recovery.corpse_repairs += corpse;
        self.proto.on_crash(node);
        if let Some(delta) = self.recovery.note_crash(delta) {
            self.apply_recovery(&delta);
        }
        self.refresh();
        Ok(())
    }
    fn set_auto_recover(&mut self, on: bool) {
        self.recovery.auto = on;
    }
    fn recover(&mut self) {
        for delta in std::mem::take(&mut self.recovery.pending) {
            self.apply_recovery(&delta);
        }
        self.refresh();
    }
    fn sever_link(&mut self, a: NodeId, b: NodeId) -> Result<(), TopologyError> {
        // sever at quiescence, like crashes: the cut applies to traffic
        // scheduled from here on, matching the simulator's schedule-time
        // drop semantics
        self.host.wait_quiescent();
        self.host.sever_link(a, b)?;
        self.refresh();
        Ok(())
    }
    fn heal_link(&mut self, a: NodeId, b: NodeId) -> Result<(), TopologyError> {
        self.host.wait_quiescent();
        let was_severed = self.host.topology().is_severed(a, b);
        let at = self.host.clock();
        self.host.heal_link(a, b, at)?;
        if was_severed {
            for (node, msg) in self.proto.heal_injections(&self.recovery, (a, b)) {
                if self.host.is_down(node) {
                    continue;
                }
                self.host.inject(node, &msg, at);
                self.recovery.control_injections += 1;
            }
        }
        self.refresh();
        Ok(())
    }
    fn set_liveness(&mut self, period: u64, timeout: u64) {
        self.host.set_liveness(period, timeout);
    }
    fn run_until(&mut self, _t: u64) -> u64 {
        // free-running: no future traffic is held back, so the horizon is
        // always "everything" — drain and report the handled delta
        let before = self.host.ledger().handled;
        self.host.wait_quiescent();
        self.drain_liveness();
        self.refresh();
        self.host.ledger().handled - before
    }
}

impl<P: Protocol> EngineIntrospect for AsyncEngine<P> {
    fn mobility_stats(&self) -> MobilityStats {
        MobilityStats {
            moves: self.recovery.moves,
            handoff_msgs: self.host.stats().handoff_msgs(),
        }
    }
    fn recovery_stats(&self) -> RecoveryStats {
        let repairs = self.repair_counts();
        self.recovery
            .stats(self.host.stats().recovery_msgs(), repairs)
    }
    fn footprint(&self) -> Vec<NodeFootprint> {
        self.read_nodes(|node, id| P::footprint_of(node, id))
    }
    fn advert_routes(&self) -> Vec<(NodeId, Vec<AdvRoute>)> {
        let read = |node: &P::Node, id| P::adverts_of(node).map(|a| (id, adv_routes(a)));
        self.read_nodes(read).into_iter().flatten().collect()
    }
    fn now(&self) -> u64 {
        self.host.clock()
    }
    fn queue_depth(&self) -> usize {
        self.host.queue_depth()
    }
    fn latency_summary(&self) -> LatencySummary {
        self.deliveries_cache.latency_summary()
    }
    fn stats(&self) -> &TrafficStats {
        &self.stats_cache
    }
    fn deliveries(&self) -> &DeliveryLog {
        &self.deliveries_cache
    }
    fn shards(&self) -> usize {
        self.workers
    }
    fn steps(&self) -> u64 {
        self.host.ledger().handled
    }
    fn scheduled_total(&self) -> u64 {
        self.host.ledger().scheduled
    }
    fn dropped_from_queue(&self) -> u64 {
        let ledger = self.host.ledger();
        ledger.dropped_to_downed + ledger.dropped_severed + ledger.dropped_malformed
    }
    fn dropped_severed(&self) -> u64 {
        self.host.ledger().dropped_severed
    }
    fn suspicions(&self) -> Vec<(NodeId, NodeId)> {
        self.host.suspicions()
    }
    fn node_ledgers(&self) -> Vec<HostLedger> {
        self.host.node_ledgers()
    }
}
