//! What the five approaches differ in, from the engine wrappers' point of
//! view: the node behavior, its message constructors, its residual-state
//! accessor, and the management-plane injections that complete a crash
//! recovery or a partition heal. Everything else — host registry,
//! tombstones, crash-frontier selection, liveness drain, flush — is the
//! same for all five and lives once per substrate
//! ([`crate::SimEngine`] on the simulator, the host-backed engine on
//! [`fsf_runtime::NodeHost`]).
//!
//! * pub/sub family and multi-join: recovery re-announces every tombstoned
//!   sensor (`AdvDown`) at the crash frontier — corpse-hosted sensors *and*
//!   earlier retractions whose flood the crash may have severed in flight;
//!   where the retraction already completed, the re-announcement is
//!   absorbed by the first node that no longer knows the sensor. Dead
//!   subscriptions need no injection: the purge at the corpse's former
//!   neighbors retraces their forwards. Heals reconcile in-protocol
//!   through [`fsf_network::NodeBehavior::on_link_up`].
//! * centralized: the next-hop tables are refreshed at the crash, so
//!   recovery and heal are pure management plane — retractions dropped in
//!   flight are re-sent toward the centre (completed ones are idempotent
//!   no-ops there) and every live subscription is re-registered at its
//!   home node (the centre dedups by key). A crashed centre is
//!   unrecoverable for this baseline by design.

use crate::api::{NodeFootprint, RecoveryPlane};
use crate::centralized::{CentralMsg, CentralNode};
use crate::multijoin::{MjMsg, MjNode};
use fsf_core::{AdvStore, PubSubConfig, PubSubMsg, PubSubNode};
use fsf_model::{Advertisement, Event, SensorId, SubId, Subscription};
use fsf_network::{NodeBehavior, NodeId, Topology};
use fsf_runtime::WireMsg;
use fsf_subsumption::MatchMode;
use std::collections::BTreeMap;

/// Per-family glue between the uniform [`crate::Engine`] facade and the
/// node behavior deployed on a substrate.
pub trait Protocol: Send + 'static {
    /// The node behavior deployed on every topology node.
    type Node: NodeBehavior<Msg = Self::Msg> + Send + 'static;
    /// The family's wire message enum.
    type Msg: WireMsg + Clone + std::fmt::Debug + Send + 'static;

    /// Human-readable approach name (paper §VI naming).
    fn name(&self) -> &'static str;
    /// Construct the behavior of node `id`.
    fn make_node(&self, id: NodeId, topo: &Topology) -> Self::Node;
    /// A sensor advertises itself; `None` when the family sends no
    /// advertisement (centralized).
    fn msg_sensor_up(&self, adv: Advertisement) -> Option<Self::Msg>;
    /// A user at `node` registers `sub`.
    fn msg_subscribe(&mut self, node: NodeId, sub: Subscription) -> Self::Msg;
    /// A sensor publishes one reading.
    fn msg_publish(&self, event: Event) -> Self::Msg;
    /// One tick's readings as a single framed message; `Err(events)` when
    /// the family has no multi-event frame (the engine falls back to
    /// per-event injection).
    fn msg_events(&self, events: Vec<Event>) -> Result<Self::Msg, Vec<Event>>;
    /// The user cancels `sub`.
    fn msg_unsubscribe(&mut self, sub: SubId) -> Self::Msg;
    /// `sensor` departs from its host node.
    fn msg_sensor_down(&self, sensor: SensorId) -> Self::Msg;
    /// A known sensor re-appears at a new host with generation `gen`.
    fn msg_move(&self, adv: Advertisement, gen: u64) -> Self::Msg;
    /// Residual-state counters of one node.
    fn footprint_of(node: &Self::Node, id: NodeId) -> NodeFootprint;
    /// The node's advertisement store; `None` for a family without one
    /// (centralized).
    fn adverts_of(_node: &Self::Node) -> Option<&AdvStore> {
        None
    }
    /// Engine-level bookkeeping at a crash (before recovery planning).
    fn on_crash(&mut self, _corpse: NodeId) {}
    /// The management-plane injections completing one crash's recovery;
    /// `frontier` is the live part of the crash frontier.
    fn recovery_injections(
        &self,
        plane: &RecoveryPlane,
        frontier: &[NodeId],
    ) -> Vec<(NodeId, Self::Msg)>;
    /// The management-plane injections completing one heal's
    /// reconciliation (engines skip targets that are down). Most families
    /// reconcile in-protocol and need none.
    fn heal_injections(
        &self,
        _plane: &RecoveryPlane,
        _endpoints: (NodeId, NodeId),
    ) -> Vec<(NodeId, Self::Msg)> {
        Vec::new()
    }
}

/// Every tombstoned sensor re-announced at every frontier node, tagged
/// with the generation the management plane retired it at.
fn tombstone_announcements<M>(
    plane: &RecoveryPlane,
    frontier: &[NodeId],
    adv_down: impl Fn(SensorId, u64) -> M,
) -> Vec<(NodeId, M)> {
    let mut out = Vec::new();
    for &sensor in &plane.dead_sensors {
        let gen = plane.sensor_gens.get(&sensor).copied().unwrap_or(1);
        for &node in frontier {
            out.push((node, adv_down(sensor, gen)));
        }
    }
    out
}

/// Proto for the `fsf-core` pub/sub family (naive, operator placement,
/// Filter-Split-Forward, and any ablation configuration).
pub struct PubSubProto {
    name: &'static str,
    config: PubSubConfig,
}

impl PubSubProto {
    /// A pub/sub-family engine named `name` running `config` on every node.
    #[must_use]
    pub fn new(name: &'static str, config: PubSubConfig) -> Self {
        PubSubProto { name, config }
    }
}

impl Protocol for PubSubProto {
    type Node = PubSubNode;
    type Msg = PubSubMsg;

    fn name(&self) -> &'static str {
        self.name
    }
    fn make_node(&self, id: NodeId, _topo: &Topology) -> PubSubNode {
        PubSubNode::new(id, self.config)
    }
    fn msg_sensor_up(&self, adv: Advertisement) -> Option<PubSubMsg> {
        Some(PubSubMsg::SensorUp(adv))
    }
    fn msg_subscribe(&mut self, _node: NodeId, sub: Subscription) -> PubSubMsg {
        PubSubMsg::Subscribe(sub)
    }
    fn msg_publish(&self, event: Event) -> PubSubMsg {
        PubSubMsg::Publish(event)
    }
    fn msg_events(&self, events: Vec<Event>) -> Result<PubSubMsg, Vec<Event>> {
        Ok(PubSubMsg::Events(events))
    }
    fn msg_unsubscribe(&mut self, sub: SubId) -> PubSubMsg {
        PubSubMsg::Unsubscribe(sub)
    }
    fn msg_sensor_down(&self, sensor: SensorId) -> PubSubMsg {
        PubSubMsg::SensorDown(sensor)
    }
    fn msg_move(&self, adv: Advertisement, gen: u64) -> PubSubMsg {
        PubSubMsg::Move(adv, gen)
    }
    fn footprint_of(node: &PubSubNode, id: NodeId) -> NodeFootprint {
        let st = node.storage_stats();
        NodeFootprint {
            node: id,
            advertisements: st.advertisements,
            operators: st.total_operators(),
            stored_events: st.stored_events,
            routes: st.forwarded_routes,
        }
    }
    fn adverts_of(node: &PubSubNode) -> Option<&AdvStore> {
        Some(node.adverts())
    }
    fn recovery_injections(
        &self,
        plane: &RecoveryPlane,
        frontier: &[NodeId],
    ) -> Vec<(NodeId, PubSubMsg)> {
        tombstone_announcements(plane, frontier, PubSubMsg::AdvDown)
    }
}

/// Proto for the multi-join baseline.
pub struct MjProto {
    event_validity: u64,
    mode: MatchMode,
}

impl MjProto {
    /// Multi-join nodes with the given event-store validity horizon and
    /// candidate-query implementation.
    #[must_use]
    pub fn new(event_validity: u64, mode: MatchMode) -> Self {
        MjProto {
            event_validity,
            mode,
        }
    }
}

impl Protocol for MjProto {
    type Node = MjNode;
    type Msg = MjMsg;

    fn name(&self) -> &'static str {
        "Distributed multi-join"
    }
    fn make_node(&self, id: NodeId, _topo: &Topology) -> MjNode {
        MjNode::with_mode(id, self.event_validity, self.mode)
    }
    fn msg_sensor_up(&self, adv: Advertisement) -> Option<MjMsg> {
        Some(MjMsg::SensorUp(adv))
    }
    fn msg_subscribe(&mut self, _node: NodeId, sub: Subscription) -> MjMsg {
        MjMsg::Subscribe(sub)
    }
    fn msg_publish(&self, event: Event) -> MjMsg {
        MjMsg::Publish(event)
    }
    fn msg_events(&self, events: Vec<Event>) -> Result<MjMsg, Vec<Event>> {
        Ok(MjMsg::Events(events))
    }
    fn msg_unsubscribe(&mut self, sub: SubId) -> MjMsg {
        MjMsg::Unsubscribe(sub)
    }
    fn msg_sensor_down(&self, sensor: SensorId) -> MjMsg {
        MjMsg::SensorDown(sensor)
    }
    fn msg_move(&self, adv: Advertisement, gen: u64) -> MjMsg {
        MjMsg::Move(adv, gen)
    }
    fn footprint_of(node: &MjNode, id: NodeId) -> NodeFootprint {
        let (advertisements, operators, stored_events, routes) = node.state_counts();
        NodeFootprint {
            node: id,
            advertisements,
            operators,
            stored_events,
            routes,
        }
    }
    fn adverts_of(node: &MjNode) -> Option<&AdvStore> {
        Some(node.adverts())
    }
    fn recovery_injections(
        &self,
        plane: &RecoveryPlane,
        frontier: &[NodeId],
    ) -> Vec<(NodeId, MjMsg)> {
        tombstone_announcements(plane, frontier, MjMsg::AdvDown)
    }
}

/// Proto for the centralized baseline; the centre is the graph median.
pub struct CentralProto {
    center: NodeId,
    event_validity: u64,
    mode: MatchMode,
    /// Live subscriptions with their bodies — the repair path re-registers
    /// them (registrations dropped in flight are restored).
    subscriptions: BTreeMap<SubId, (NodeId, Subscription)>,
}

impl CentralProto {
    /// Centralized matching at `topology`'s median, with the given
    /// event-store validity horizon and candidate-query implementation.
    #[must_use]
    pub fn new(topology: &Topology, event_validity: u64, mode: MatchMode) -> Self {
        CentralProto {
            center: topology.median(),
            event_validity,
            mode,
            subscriptions: BTreeMap::new(),
        }
    }

    /// Every tombstoned retraction re-sent toward the centre through `via`.
    fn retractions_via(&self, plane: &RecoveryPlane, via: NodeId) -> Vec<(NodeId, CentralMsg)> {
        let sensors = plane.dead_sensors.iter();
        let subs = plane.dead_subs.iter();
        sensors
            .map(|&s| (via, CentralMsg::SensorDownToCenter(s)))
            .chain(subs.map(|&s| (via, CentralMsg::UnsubToCenter(s))))
            .collect()
    }

    /// Every live subscription re-registered at its home node.
    fn reregistrations(&self) -> impl Iterator<Item = (NodeId, CentralMsg)> + '_ {
        self.subscriptions
            .values()
            .map(|(node, sub)| (*node, CentralMsg::Subscribe(sub.clone())))
    }
}

impl Protocol for CentralProto {
    type Node = CentralNode;
    type Msg = CentralMsg;

    fn name(&self) -> &'static str {
        "Centralized"
    }
    fn make_node(&self, id: NodeId, topo: &Topology) -> CentralNode {
        CentralNode::with_mode(id, topo, self.center, self.event_validity, self.mode)
    }
    fn msg_sensor_up(&self, _adv: Advertisement) -> Option<CentralMsg> {
        // no advertisements: sensors stream to the centre unconditionally;
        // the engine still records the host for crash garbage collection
        None
    }
    fn msg_subscribe(&mut self, node: NodeId, sub: Subscription) -> CentralMsg {
        self.subscriptions.insert(sub.id(), (node, sub.clone()));
        CentralMsg::Subscribe(sub)
    }
    fn msg_publish(&self, event: Event) -> CentralMsg {
        CentralMsg::Publish(event)
    }
    fn msg_events(&self, events: Vec<Event>) -> Result<CentralMsg, Vec<Event>> {
        Err(events)
    }
    fn msg_unsubscribe(&mut self, sub: SubId) -> CentralMsg {
        self.subscriptions.remove(&sub);
        CentralMsg::Unsubscribe(sub)
    }
    fn msg_sensor_down(&self, sensor: SensorId) -> CentralMsg {
        CentralMsg::SensorDown(sensor)
    }
    fn msg_move(&self, adv: Advertisement, _gen: u64) -> CentralMsg {
        // the centre's subscription table is location-independent, so the
        // handoff is the host re-home plus a fresh-epoch notice
        CentralMsg::Move(adv.sensor)
    }
    fn footprint_of(node: &CentralNode, id: NodeId) -> NodeFootprint {
        NodeFootprint {
            node: id,
            advertisements: 0, // the centralized scheme keeps none
            operators: node.registered_subs(),
            stored_events: node.stored_events(),
            routes: 0,
        }
    }
    fn on_crash(&mut self, corpse: NodeId) {
        self.subscriptions.retain(|_, (n, _)| *n != corpse);
    }
    fn recovery_injections(
        &self,
        plane: &RecoveryPlane,
        frontier: &[NodeId],
    ) -> Vec<(NodeId, CentralMsg)> {
        let mut out = match frontier.first() {
            Some(&via) => self.retractions_via(plane, via),
            None => Vec::new(),
        };
        out.extend(self.reregistrations());
        out
    }
    fn heal_injections(
        &self,
        plane: &RecoveryPlane,
        endpoints: (NodeId, NodeId),
    ) -> Vec<(NodeId, CentralMsg)> {
        // retractions through both heal endpoints (idempotent where they
        // already reached the centre), then the re-registrations that were
        // dropped at the severed radio
        let mut out = self.retractions_via(plane, endpoints.0);
        out.extend(self.retractions_via(plane, endpoints.1));
        out.extend(self.reregistrations());
        out
    }
}
