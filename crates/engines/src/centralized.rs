//! The centralized baseline (paper §VI, first bullet).
//!
//! "Using the network topology, all subscribers forward their subscription
//! queries on the shortest path to the central node (the node with the
//! minimum pairwise distance to all other nodes). Sensors send their events
//! in the same way to the central node which does the matching. Matching
//! events will be sent on the shortest path from the central node to the
//! owner of the matching subscription."
//!
//! Consequences the experiments show: the lowest subscription load of all
//! approaches (one path per subscription, no splitting), but an event load
//! with a large *fixed* component — every reading travels to the centre
//! whether or not anyone wants it — plus the result traffic back out.

use fsf_core::events::{recycle, Correlator, EventStore, SentScope};
use fsf_model::{ComplexEvent, DimKey, Event, Operator, SubId, Subscription};
use fsf_network::{ChargeKind, Ctx, NodeBehavior, NodeId, Topology};
use fsf_subsumption::{MatchMode, OperatorTable};
use std::collections::BTreeMap;

/// Wire messages of the centralized engine.
#[derive(Debug, Clone, PartialEq)]
pub enum CentralMsg {
    /// Local injection: a user registers a subscription at this node.
    Subscribe(Subscription),
    /// A subscription en route to the centre, remembering its owner's node.
    SubToCenter {
        /// The subscription.
        sub: Subscription,
        /// Node where the owning user lives (results are routed back here).
        user: NodeId,
    },
    /// Local injection: a sensor publishes a reading at this node.
    Publish(Event),
    /// A reading en route to the centre.
    EventToCenter(Event),
    /// Matched result events en route from the centre to a user.
    Results {
        /// Destination user node.
        user: NodeId,
        /// The matched subscription.
        sub: SubId,
        /// The newly matched simple events.
        events: Vec<Event>,
    },
    /// Local injection: a user cancels a subscription at this node.
    Unsubscribe(SubId),
    /// A cancellation en route to the centre, where the real removal
    /// happens (subscription table + owner entry).
    UnsubToCenter(SubId),
    /// Local injection: the sensor at this node departed.
    SensorDown(fsf_model::SensorId),
    /// A departure notice en route to the centre, which garbage-collects
    /// the departed sensor's stored events.
    SensorDownToCenter(fsf_model::SensorId),
    /// Local injection: a known sensor id re-appeared at this node (sensor
    /// mobility). The centralized baseline needs no re-routing — events
    /// stream to the centre from wherever they are published and the
    /// subscription table is location-independent — but the handoff still
    /// opens a fresh correlation epoch: the centre drops the moved
    /// sensor's stored readings, exactly as the stationary twin's
    /// retire-then-fresh-id sequence would.
    Move(fsf_model::SensorId),
    /// A mobility handoff notice en route to the centre.
    MoveToCenter(fsf_model::SensorId),
}

/// A node of the centralized engine: relays toward the centre / toward
/// users; the centre node additionally stores all subscriptions and runs
/// the matcher.
#[derive(Debug)]
pub struct CentralNode {
    id: NodeId,
    center: NodeId,
    /// `next_hop[d]` = neighbor on the unique path toward node `d`.
    next_hop: Vec<NodeId>,
    // --- centre-only state ---
    subs: OperatorTable,
    owners: BTreeMap<SubId, NodeId>,
    events: EventStore,
    match_mode: MatchMode,
    /// The matcher's buffers, parked empty between events (centre only).
    scratch: Option<Box<(Correlator<'static>, Vec<&'static Operator>)>>,
}

impl CentralNode {
    /// Build a node. `center` should be [`Topology::median`] for the paper's
    /// setup; `event_validity` as for the distributed engines.
    #[must_use]
    pub fn new(id: NodeId, topology: &Topology, center: NodeId, event_validity: u64) -> Self {
        Self::with_mode(id, topology, center, event_validity, MatchMode::default())
    }

    /// Build a node with an explicit candidate-query implementation for the
    /// centre matcher (the linear scan is the differential-test oracle).
    #[must_use]
    pub fn with_mode(
        id: NodeId,
        topology: &Topology,
        center: NodeId,
        event_validity: u64,
        match_mode: MatchMode,
    ) -> Self {
        CentralNode {
            id,
            center,
            next_hop: Self::compute_next_hops(id, topology),
            subs: OperatorTable::new(),
            owners: BTreeMap::new(),
            events: EventStore::new(event_validity),
            match_mode,
            scratch: None,
        }
    }

    /// The candidate-query implementation the centre matches with.
    #[must_use]
    pub fn match_mode(&self) -> MatchMode {
        self.match_mode
    }

    /// Does the centre's range arrangement equal one rebuilt from scratch?
    /// Trivially `true` away from the centre. (Rebuild property tests.)
    #[must_use]
    pub fn arrangements_consistent(&self) -> bool {
        self.subs.arrangement_consistent()
    }

    /// Full next-hop table: for each destination, the neighbor on the path.
    fn compute_next_hops(id: NodeId, topology: &Topology) -> Vec<NodeId> {
        let mut next_hop = vec![id; topology.len()];
        let parents = topology.parents_toward(id);
        for d in topology.nodes() {
            if d == id {
                continue;
            }
            // walk up from d toward self; the last node before self is the hop
            let mut cur = d;
            while let Some(p) = parents[cur.0 as usize] {
                if p == id {
                    break;
                }
                cur = p;
            }
            next_hop[d.0 as usize] = cur;
        }
        next_hop
    }

    /// Is this node the matching centre?
    #[must_use]
    pub fn is_center(&self) -> bool {
        self.id == self.center
    }

    /// Number of subscriptions registered at the centre (0 elsewhere).
    #[must_use]
    pub fn registered_subs(&self) -> usize {
        self.subs.len()
    }

    /// Number of events stored at the centre (0 elsewhere).
    #[must_use]
    pub fn stored_events(&self) -> usize {
        self.events.len()
    }

    fn hop_toward(&self, dest: NodeId) -> NodeId {
        self.next_hop[dest.0 as usize]
    }

    fn register_at_center(&mut self, sub: Subscription, user: NodeId) {
        let op = Operator::from_subscription(&sub);
        self.owners.insert(sub.id(), user);
        self.subs.insert(op);
    }

    /// The real removal path of the centralized baseline: drop the
    /// subscription's operator and owner entry at the centre. Idempotent.
    fn unregister_at_center(&mut self, sub: SubId) {
        for key in self.subs.keys_of_sub(sub) {
            self.subs.remove(&key);
        }
        self.owners.remove(&sub);
    }

    /// Forward a message one hop toward the centre, or run `at_center` here.
    fn toward_center(
        &mut self,
        kind: ChargeKind,
        make: impl FnOnce() -> CentralMsg,
        at_center: impl FnOnce(&mut Self),
        ctx: &mut Ctx<'_, CentralMsg>,
    ) {
        if self.is_center() {
            at_center(self);
        } else {
            let hop = self.hop_toward(self.center);
            ctx.send(hop, make(), kind, 1);
        }
    }

    /// Centre matching: store the event, find matching subscriptions, emit
    /// per-subscription result sets ("full result sets": one stream per
    /// subscription, deduplicated only within that stream).
    fn match_at_center(&mut self, event: Event, ctx: &mut Ctx<'_, CentralMsg>) {
        if !self.events.insert(event) {
            return;
        }
        self.subs.settle();
        let parked = self.scratch.as_deref_mut().map(std::mem::take);
        let (mut corr, mut candidates) = parked.unwrap_or_default();
        for d in [DimKey::Sensor(event.sensor), DimKey::Attr(event.attr)] {
            self.subs
                .candidates(self.match_mode, &d, &event, &mut candidates);
        }
        let pass = candidates.iter().copied(); // all in one
        corr.begin_pass(&self.events, event.timestamp, self.match_mode, pass);
        for &op in &candidates {
            let scope = || SentScope::LocalSub(op.sub());
            let Some(scope) = corr.correlate(op, scope) else {
                continue;
            };
            if corr.fresh.is_empty() {
                continue;
            }
            let new_events: Vec<Event> = corr.fresh.iter().map(|s| *s.event()).collect();
            corr.mark_fresh(scope);
            let user = self.owners[&op.sub()];
            if user == self.id {
                ctx.deliver(op.sub(), &ComplexEvent::new(new_events));
            } else {
                let units = new_events.len() as u64;
                let hop = self.hop_toward(user);
                ctx.send(
                    hop,
                    CentralMsg::Results {
                        user,
                        sub: op.sub(),
                        events: new_events,
                    },
                    ChargeKind::Event,
                    units,
                );
            }
        }
        let (corr, candidates) = (corr.park(), recycle(candidates));
        **self.scratch.get_or_insert_default() = (self.events.apply(corr), candidates);
    }
}

impl NodeBehavior for CentralNode {
    type Msg = CentralMsg;

    fn on_message(&mut self, from: NodeId, msg: CentralMsg, ctx: &mut Ctx<'_, CentralMsg>) {
        let _ = from;
        match msg {
            CentralMsg::Subscribe(sub) => {
                if self.is_center() {
                    self.register_at_center(sub, self.id);
                } else {
                    let hop = self.hop_toward(self.center);
                    let user = self.id;
                    ctx.send(
                        hop,
                        CentralMsg::SubToCenter { sub, user },
                        ChargeKind::Subscription,
                        1,
                    );
                }
            }
            CentralMsg::SubToCenter { sub, user } => {
                if self.is_center() {
                    self.register_at_center(sub, user);
                } else {
                    let hop = self.hop_toward(self.center);
                    ctx.send(
                        hop,
                        CentralMsg::SubToCenter { sub, user },
                        ChargeKind::Subscription,
                        1,
                    );
                }
            }
            CentralMsg::Publish(event) => {
                if self.is_center() {
                    self.match_at_center(event, ctx);
                } else {
                    let hop = self.hop_toward(self.center);
                    ctx.send(hop, CentralMsg::EventToCenter(event), ChargeKind::Event, 1);
                }
            }
            CentralMsg::EventToCenter(event) => {
                if self.is_center() {
                    self.match_at_center(event, ctx);
                } else {
                    let hop = self.hop_toward(self.center);
                    ctx.send(hop, CentralMsg::EventToCenter(event), ChargeKind::Event, 1);
                }
            }
            CentralMsg::Results { user, sub, events } => {
                if user == self.id {
                    ctx.deliver(sub, &ComplexEvent::new(events));
                } else {
                    let units = events.len() as u64;
                    let hop = self.hop_toward(user);
                    ctx.send(
                        hop,
                        CentralMsg::Results { user, sub, events },
                        ChargeKind::Event,
                        units,
                    );
                }
            }
            CentralMsg::Unsubscribe(sub) | CentralMsg::UnsubToCenter(sub) => {
                self.toward_center(
                    ChargeKind::Subscription,
                    || CentralMsg::UnsubToCenter(sub),
                    |n| n.unregister_at_center(sub),
                    ctx,
                );
            }
            CentralMsg::Move(sensor) | CentralMsg::MoveToCenter(sensor) => {
                // the handoff's only centre-side effect is the fresh
                // correlation epoch (event-store GC); charged in the
                // handoff class so the per-move cost is billed apart
                self.toward_center(
                    ChargeKind::Handoff,
                    || CentralMsg::MoveToCenter(sensor),
                    |n| {
                        n.events.remove_sensor(sensor);
                    },
                    ctx,
                );
            }
            CentralMsg::SensorDown(sensor) | CentralMsg::SensorDownToCenter(sensor) => {
                // control traffic, accounted like the distributed engines'
                // retraction floods (advertisement class, which the paper
                // excludes from the load comparison)
                self.toward_center(
                    ChargeKind::Advertisement,
                    || CentralMsg::SensorDownToCenter(sensor),
                    |n| {
                        n.events.remove_sensor(sensor);
                    },
                    ctx,
                );
            }
        }
    }

    fn on_topology_change(&mut self, topology: &Topology) {
        // a crashed neighbor's subtree was re-grafted: the precomputed
        // next-hop table is stale, rebuild it (the centre itself stays put)
        self.next_hop = Self::compute_next_hops(self.id, topology);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsf_model::{AttrId, EventId, Point, SensorId, Timestamp, ValueRange};
    use fsf_network::{builders, Simulator};

    const DT: u64 = 30;

    fn sub(id: u64, filters: &[(u32, f64, f64)]) -> Subscription {
        Subscription::identified(
            SubId(id),
            filters
                .iter()
                .map(|&(d, lo, hi)| (SensorId(d), ValueRange::new(lo, hi))),
            DT,
        )
        .unwrap()
    }

    fn ev(id: u64, sensor: u32, v: f64, t: u64) -> Event {
        Event {
            id: EventId(id),
            sensor: SensorId(sensor),
            attr: AttrId(0),
            location: Point::new(0.0, 0.0),
            value: v,
            timestamp: Timestamp(t),
        }
    }

    /// line 0–1–2–3–4, centre = 2
    fn line_sim() -> Simulator<CentralNode> {
        let topo = builders::line(5);
        let center = topo.median();
        assert_eq!(center, NodeId(2));
        Simulator::new(topo, move |id, t| CentralNode::new(id, t, center, 2 * DT))
    }

    #[test]
    fn subscription_travels_to_center_only() {
        let mut s = line_sim();
        s.inject_and_run(NodeId(0), CentralMsg::Subscribe(sub(1, &[(1, 0.0, 10.0)])));
        assert_eq!(s.stats.sub_forwards(), 2, "0→1→2");
        assert_eq!(s.node(NodeId(2)).registered_subs(), 1);
        assert_eq!(s.node(NodeId(1)).registered_subs(), 0);
    }

    #[test]
    fn every_event_pays_the_fixed_cost_to_center() {
        let mut s = line_sim();
        // no subscriptions at all — events still stream to the centre
        s.inject_and_run(NodeId(4), CentralMsg::Publish(ev(1, 1, 5.0, 100)));
        assert_eq!(s.stats.event_units(), 2, "4→3→2 even though nobody asked");
    }

    #[test]
    fn matching_results_return_to_subscriber() {
        let mut s = line_sim();
        s.inject_and_run(NodeId(0), CentralMsg::Subscribe(sub(1, &[(1, 0.0, 10.0)])));
        s.inject_and_run(NodeId(4), CentralMsg::Publish(ev(1, 1, 5.0, 100)));
        // 2 units in (4→2) + 2 units out (2→0)
        assert_eq!(s.stats.event_units(), 4);
        assert!(s.deliveries.delivered(SubId(1)).contains(&EventId(1)));
    }

    #[test]
    fn join_matching_happens_at_center() {
        let mut s = line_sim();
        s.inject_and_run(
            NodeId(0),
            CentralMsg::Subscribe(sub(1, &[(1, 0.0, 10.0), (2, 0.0, 10.0)])),
        );
        s.inject_and_run(NodeId(3), CentralMsg::Publish(ev(1, 1, 5.0, 100)));
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 0, "half a join");
        s.inject_and_run(NodeId(4), CentralMsg::Publish(ev(2, 2, 5.0, 110)));
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 2);
        // out-of-window third reading does not re-deliver
        s.inject_and_run(NodeId(4), CentralMsg::Publish(ev(3, 2, 5.0, 500)));
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 2);
    }

    #[test]
    fn per_subscription_result_streams_duplicate() {
        let mut s = line_sim();
        s.inject_and_run(NodeId(0), CentralMsg::Subscribe(sub(1, &[(1, 0.0, 6.0)])));
        s.inject_and_run(NodeId(0), CentralMsg::Subscribe(sub(2, &[(1, 4.0, 10.0)])));
        s.inject_and_run(NodeId(4), CentralMsg::Publish(ev(1, 1, 5.0, 100)));
        // in: 2 units; out: 2 streams × 2 hops = 4 units
        assert_eq!(s.stats.event_units(), 6);
    }

    #[test]
    fn user_at_center_gets_local_delivery() {
        let mut s = line_sim();
        s.inject_and_run(NodeId(2), CentralMsg::Subscribe(sub(1, &[(1, 0.0, 10.0)])));
        assert_eq!(s.stats.sub_forwards(), 0);
        s.inject_and_run(NodeId(4), CentralMsg::Publish(ev(1, 1, 5.0, 100)));
        assert_eq!(s.stats.event_units(), 2, "only the inbound leg");
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 1);
    }

    #[test]
    fn unsubscribe_removes_center_state_and_stops_results() {
        let mut s = line_sim();
        s.inject_and_run(NodeId(0), CentralMsg::Subscribe(sub(1, &[(1, 0.0, 10.0)])));
        assert_eq!(s.node(NodeId(2)).registered_subs(), 1);
        s.inject_and_run(NodeId(0), CentralMsg::Unsubscribe(SubId(1)));
        assert_eq!(s.node(NodeId(2)).registered_subs(), 0);
        // events still pay the inbound fixed cost, but no results flow back
        let before = s.stats.event_units();
        s.inject_and_run(NodeId(4), CentralMsg::Publish(ev(1, 1, 5.0, 100)));
        assert_eq!(s.stats.event_units() - before, 2, "inbound leg only");
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 0);
        // idempotent
        s.inject_and_run(NodeId(0), CentralMsg::Unsubscribe(SubId(1)));
        assert_eq!(s.node(NodeId(2)).registered_subs(), 0);
    }

    #[test]
    fn sensor_down_collects_the_centers_event_store() {
        let mut s = line_sim();
        s.inject_and_run(NodeId(4), CentralMsg::Publish(ev(1, 1, 5.0, 100)));
        s.inject_and_run(NodeId(4), CentralMsg::Publish(ev(2, 2, 5.0, 101)));
        assert_eq!(s.node(NodeId(2)).stored_events(), 2);
        s.inject_and_run(NodeId(4), CentralMsg::SensorDown(fsf_model::SensorId(1)));
        assert_eq!(s.node(NodeId(2)).stored_events(), 1, "s1's reading dropped");
        s.inject_and_run(NodeId(4), CentralMsg::SensorDown(fsf_model::SensorId(2)));
        assert_eq!(s.node(NodeId(2)).stored_events(), 0);
    }

    #[test]
    fn move_notice_opens_a_fresh_epoch_at_the_center() {
        let mut s = line_sim();
        s.inject_and_run(NodeId(4), CentralMsg::Publish(ev(1, 1, 5.0, 100)));
        s.inject_and_run(NodeId(4), CentralMsg::Publish(ev(2, 2, 5.0, 101)));
        assert_eq!(s.node(NodeId(2)).stored_events(), 2);
        s.inject_and_run(NodeId(0), CentralMsg::Move(fsf_model::SensorId(1)));
        assert_eq!(
            s.node(NodeId(2)).stored_events(),
            1,
            "the moved sensor's reading survived the handoff"
        );
        assert_eq!(s.stats.handoff_msgs(), 2, "notice travelled 0→1→2");
        // idempotent, and post-move readings store normally
        s.inject_and_run(NodeId(0), CentralMsg::Move(fsf_model::SensorId(1)));
        s.inject_and_run(NodeId(0), CentralMsg::Publish(ev(3, 1, 5.0, 130)));
        assert_eq!(s.node(NodeId(2)).stored_events(), 2);
    }

    #[test]
    fn results_are_deduped_within_a_stream() {
        let mut s = line_sim();
        s.inject_and_run(
            NodeId(0),
            CentralMsg::Subscribe(sub(1, &[(1, 0.0, 10.0), (2, 0.0, 10.0)])),
        );
        s.inject_and_run(NodeId(4), CentralMsg::Publish(ev(1, 1, 5.0, 100)));
        s.inject_and_run(NodeId(4), CentralMsg::Publish(ev(2, 2, 5.0, 101)));
        let base = s.stats.event_units();
        // a second sensor-2 reading in the same window matches again, but
        // only the new event goes out (1 in-unit ×2 hops + 1 out-unit ×2 hops)
        s.inject_and_run(NodeId(4), CentralMsg::Publish(ev(3, 2, 6.0, 102)));
        assert_eq!(s.stats.event_units() - base, 4);
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 3);
    }
}
