//! Sensor-mobility battery: a **known** sensor id re-appearing at a new
//! node (the generation-tagged `Move` re-advertisement protocol) must be
//! indistinguishable, delivery-for-delivery, from the equivalent
//! fresh-identity sequence.
//!
//! The oracle is the **stationary twin**: every `Move` is replaced by
//! "retire the old identity at its host, bring a fresh sensor id up at the
//! new node, migrate the subscriptions that reference it". A correct
//! mobility protocol makes the mobile plan and its twin produce the
//! *identical* [`DeliveryLog`] on every engine — same per-subscription
//! result sets *and* the same complex-delivery count, so full recall and
//! zero duplicated deliveries fail in one comparison (the mobility
//! analogue of the recovery battery's uncrashed twin).

use fsf::dynamics::{leaks, run_plan, ChurnAction, ChurnPlan, ChurnPlanConfig};
use fsf::network::{builders, difference, DeliveryLog, LatencyModel};
use fsf::prelude::*;

const VALIDITY: u64 = 60;

/// Ids handed to the twin's fresh identities — above anything the seeded
/// generator allocates.
const FRESH_BASE: u32 = 10_000;

fn mobile_plan(seed: u64) -> (Topology, ChurnPlan) {
    let topology = builders::balanced(31, 2);
    let plan = ChurnPlan::seeded(
        &topology,
        &ChurnPlanConfig {
            seed,
            churn_actions: 30,
            initial_sensors: 6,
            with_moves: true,
            min_moves: 3,
            ..ChurnPlanConfig::default()
        },
    );
    (topology, plan)
}

fn count_moves(plan: &ChurnPlan) -> usize {
    plan.actions
        .iter()
        .filter(|a| matches!(a, ChurnAction::Move { .. }))
        .count()
}

fn run(
    kind: EngineKind,
    topology: &Topology,
    latency: &LatencyModel,
    plan: &ChurnPlan,
) -> (DeliveryLog, Box<dyn Engine>) {
    let mut e = kind
        .builder(topology.clone())
        .validity(VALIDITY)
        .seed(42)
        .latency(latency.clone())
        .build();
    run_plan(e.as_mut(), plan);
    assert_eq!(e.queue_depth(), 0, "{kind}: not quiescent");
    (e.deliveries().clone(), e)
}

/// The acceptance run: ≥3 seeds × zero/nonzero latency × five engines.
/// Each engine's mobile run must equal its own stationary twin (full
/// recall, zero duplicate deliveries), the moves must be billed, and the
/// post-move teardown must leave every node empty in both worlds.
#[test]
fn stationary_twin_equality_holds_for_all_engines() {
    for seed in [0x40B1_1E01u64, 0x40B1_1E02, 0x40B1_1E03] {
        let (topology, plan) = mobile_plan(seed);
        let moves = count_moves(&plan);
        assert!(moves >= 3, "seed {seed:#x}: only {moves} moves generated");
        let mobile = plan.clone().with_teardown();
        let twin = plan.stationary_twin(FRESH_BASE).with_teardown();
        assert_eq!(count_moves(&twin), 0, "the twin must be move-free");
        for latency in [LatencyModel::Zero, LatencyModel::Uniform { hop: 1 }] {
            let mut delivered_any = false;
            for kind in EngineKind::ALL {
                let (mobile_log, mut mobile_engine) = run(kind, &topology, &latency, &mobile);
                let (twin_log, mut twin_engine) = run(kind, &topology, &latency, &twin);
                assert_eq!(
                    mobile_log, twin_log,
                    "seed {seed:#x} {latency:?}: {kind} diverged from its stationary twin \
                     (lost recall or duplicated deliveries)"
                );
                delivered_any |= mobile_log.total_event_units() > 0;
                let ms = mobile_engine.mobility_stats();
                assert_eq!(ms.moves, moves as u64, "{kind}: moves not billed");
                assert!(ms.handoff_msgs > 0, "{kind}: free handoff?");
                assert_eq!(
                    twin_engine.mobility_stats().moves,
                    0,
                    "{kind}: the twin moved"
                );
                for (name, engine) in [("mobile", &mut mobile_engine), ("twin", &mut twin_engine)] {
                    assert!(
                        leaks(engine.as_mut()).is_empty(),
                        "seed {seed:#x}: {kind} {name} teardown leaked: {:?}",
                        leaks(engine.as_mut())
                    );
                }
            }
            assert!(
                delivered_any,
                "seed {seed:#x} {latency:?}: the plans delivered nothing"
            );
        }
    }
}

/// Across engines, the mobile runs must also keep the standing equivalence
/// invariants: deterministic engines agree event-for-event, FSF stays a
/// subset of ground truth.
#[test]
fn mobile_runs_keep_cross_engine_equivalence() {
    let (topology, plan) = mobile_plan(0x40B1_1E01);
    let full = plan.clone().with_teardown();
    let subs: Vec<SubId> = plan
        .actions
        .iter()
        .filter_map(|a| match a {
            ChurnAction::Subscribe { sub, .. } => Some(sub.id()),
            _ => None,
        })
        .collect();
    assert!(!subs.is_empty());
    let logs: Vec<(EngineKind, DeliveryLog)> = EngineKind::ALL
        .iter()
        .map(|&kind| (kind, run(kind, &topology, &LatencyModel::Zero, &full).0))
        .collect();
    let (_, reference) = &logs[1]; // Naive: the exact baseline
    for &sub in &subs {
        let expected = reference.delivered(sub);
        for (kind, log) in &logs {
            if *kind == EngineKind::FilterSplitForward {
                assert!(
                    difference(log.delivered(sub), expected).next().is_none(),
                    "FSF outside ground truth for {sub:?}"
                );
            } else {
                assert_eq!(log.delivered(sub), expected, "{kind} diverged on {sub:?}");
            }
        }
    }
}

/// The race the tentpole names: a sensor moves while its **own original
/// advertisement flood** is still crossing the tree (`run_until` pause
/// under per-hop latency). The generation tag must let the `Move` flood
/// beat — and absorb — the original advert's stragglers: post-move
/// delivery works from the new host and nothing wedges.
#[test]
fn move_races_its_own_original_advert_flood() {
    for kind in EngineKind::ALL {
        // balanced(15): station at leaf 7 (under child 1), the move target
        // and user in the opposite subtree (under child 2)
        let mut e = kind
            .builder(builders::balanced(15, 2))
            .validity(VALIDITY)
            .seed(42)
            .latency(LatencyModel::Uniform { hop: 3 })
            .build();
        let adv = Advertisement {
            sensor: SensorId(1),
            attr: AttrId(0),
            location: Point::new(0.0, 0.0),
        };
        e.inject_sensor(NodeId(7), adv);
        e.run_until(4); // the advert flood is mid-tree
        if kind != EngineKind::Centralized {
            assert!(e.queue_depth() > 0, "{kind}: flood already drained");
        }
        // the known id re-appears at leaf 13 while its original flood is
        // still in flight: the Move flood races (and outruns) it
        e.move_sensor(NodeId(13), adv);
        e.flush();
        e.inject_subscription(
            NodeId(14),
            Subscription::identified(SubId(1), [(SensorId(1), ValueRange::new(0.0, 10.0))], 30)
                .unwrap(),
        );
        e.flush();
        e.inject_event(
            NodeId(13),
            Event {
                id: EventId(100),
                sensor: SensorId(1),
                attr: AttrId(0),
                location: Point::new(0.0, 0.0),
                value: 5.0,
                timestamp: Timestamp(1_000),
            },
        );
        e.flush();
        assert_eq!(e.queue_depth(), 0, "{kind}: not quiescent");
        assert!(
            e.deliveries().delivered(SubId(1)).contains(&EventId(100)),
            "{kind}: delivery lost in the move/advert race"
        );
        // a reading from the *old* host no longer routes as sensor 1's
        e.retract_subscription(NodeId(14), SubId(1));
        e.retract_sensor(NodeId(13), SensorId(1));
        e.flush();
        let leaked: Vec<_> = e
            .footprint()
            .into_iter()
            .filter(|f| !f.is_clean())
            .collect();
        assert!(
            leaked.is_empty(),
            "{kind}: racing move left residue: {leaked:?}"
        );
    }
}

/// The symmetric race: a **retraction straggler** crossing paths with a
/// newer `Move` flood. Retractions are generation events too — the host
/// retires its known generation and the `AdvDown` flood carries it — so a
/// straggler of the old retraction is absorbed wherever the revival's
/// `Move` already arrived, instead of wiping the new route network-wide,
/// and the revived sensor keeps delivering.
#[test]
fn retraction_straggler_cannot_wipe_a_revival() {
    for kind in EngineKind::ALL {
        // balanced(15): station at leaf 7, revival host and user in the
        // opposite subtree, per-hop latency so both floods are in flight
        let mut e = kind
            .builder(builders::balanced(15, 2))
            .validity(VALIDITY)
            .seed(42)
            .latency(LatencyModel::Uniform { hop: 3 })
            .build();
        let adv = Advertisement {
            sensor: SensorId(1),
            attr: AttrId(0),
            location: Point::new(0.0, 0.0),
        };
        e.inject_sensor(NodeId(7), adv);
        e.flush();
        e.inject_subscription(
            NodeId(14),
            Subscription::identified(SubId(1), [(SensorId(1), ValueRange::new(0.0, 10.0))], 30)
                .unwrap(),
        );
        e.flush();
        e.retract_sensor(NodeId(7), SensorId(1));
        e.run_until(e.now() + 4); // the retraction flood is mid-tree
                                  // the id revives at leaf 13 while the retraction is still in
                                  // flight: the Move flood must win on every node, in either order
        e.move_sensor(NodeId(13), adv);
        e.flush();
        e.inject_event(
            NodeId(13),
            Event {
                id: EventId(100),
                sensor: SensorId(1),
                attr: AttrId(0),
                location: Point::new(0.0, 0.0),
                value: 5.0,
                timestamp: Timestamp(5_000),
            },
        );
        e.flush();
        assert!(
            e.deliveries().delivered(SubId(1)).contains(&EventId(100)),
            "{kind}: the retraction straggler wiped the revival"
        );
        e.retract_subscription(NodeId(14), SubId(1));
        e.retract_sensor(NodeId(13), SensorId(1));
        e.flush();
        let leaked: Vec<_> = e
            .footprint()
            .into_iter()
            .filter(|f| !f.is_clean())
            .collect();
        assert!(
            leaked.is_empty(),
            "{kind}: the race left residue: {leaked:?}"
        );
    }
}

/// The same race at the node level, checked with the route-staleness
/// introspection of the pub/sub family: after the dust settles no node
/// holds a route entry its current advertisement picture would not
/// produce — the superseded-generation leak invariant under the race.
#[test]
fn racing_moves_leave_no_superseded_routes() {
    use fsf::core::PubSubConfig;
    use fsf::engines::{PubSubProto, SimEngine};
    use fsf::telemetry::Noop;
    for config in [
        PubSubConfig::naive(VALIDITY, 42),
        PubSubConfig::operator_placement(VALIDITY, 42),
        PubSubConfig::fsf(VALIDITY, 42),
    ] {
        let topology = builders::balanced(15, 2);
        let mut e = SimEngine::with_sink(
            topology.clone(),
            LatencyModel::Uniform { hop: 2 },
            1,
            Noop,
            PubSubProto::new("race", config),
        );
        let adv = Advertisement {
            sensor: SensorId(1),
            attr: AttrId(0),
            location: Point::new(0.0, 0.0),
        };
        e.inject_subscription(
            NodeId(14),
            Subscription::identified(SubId(1), [(SensorId(1), ValueRange::new(0.0, 10.0))], 30)
                .unwrap(),
        );
        e.flush();
        e.inject_sensor(NodeId(7), adv);
        e.run_until(3); // pause with the advert flood mid-tree
        e.move_sensor(NodeId(13), adv);
        e.run_until(5); // both floods in flight together
        e.move_sensor(NodeId(8), adv); // a second hop races the first
        e.flush();
        for node in topology.nodes() {
            assert_eq!(
                e.simulator().node(node).stale_routes(),
                Vec::<String>::new(),
                "node {node} kept superseded routing state"
            );
        }
        // delivery from the final host works
        e.inject_event(
            NodeId(8),
            Event {
                id: EventId(100),
                sensor: SensorId(1),
                attr: AttrId(0),
                location: Point::new(0.0, 0.0),
                value: 5.0,
                timestamp: Timestamp(1_000),
            },
        );
        e.flush();
        assert!(e.deliveries().delivered(SubId(1)).contains(&EventId(100)));
    }
}

/// A departed id returning at a new station (the re-advertisement case,
/// as opposed to the live handoff): the `Move` revives the id, routes
/// toward the new host, and the revived sensor's deliveries match a
/// fresh-id twin.
#[test]
fn departed_id_reappearing_matches_a_fresh_identity() {
    for kind in EngineKind::ALL {
        let topology = builders::line(5);
        let adv = |s: u32| Advertisement {
            sensor: SensorId(s),
            attr: AttrId(0),
            location: Point::new(0.0, 0.0),
        };
        let sub = |s: u32| {
            Subscription::identified(SubId(1), [(SensorId(s), ValueRange::new(0.0, 10.0))], 30)
                .unwrap()
        };
        let ev = |s: u32| Event {
            id: EventId(100),
            sensor: SensorId(s),
            attr: AttrId(0),
            location: Point::new(0.0, 0.0),
            value: 5.0,
            timestamp: Timestamp(5_000),
        };
        // mobile world: sensor 1 up at n0, subscribed to, down, then the
        // known id returns at n3 via Move — the sub's withdrawn routes
        // must re-split toward the revived advertisement
        let mut mobile = kind.build(topology.clone(), VALIDITY, 42);
        mobile.inject_sensor(NodeId(0), adv(1));
        mobile.flush();
        mobile.inject_subscription(NodeId(4), sub(1));
        mobile.flush();
        mobile.retract_sensor(NodeId(0), SensorId(1));
        mobile.flush();
        mobile.move_sensor(NodeId(3), adv(1));
        mobile.flush();
        mobile.inject_event(NodeId(3), ev(1));
        mobile.flush();
        // twin world: the returning station gets a fresh identity, and the
        // subscription follows it (the stationary-twin transformation:
        // fresh `SensorUp`, then cancel + re-register renamed)
        let mut twin = kind.build(topology, VALIDITY, 42);
        twin.inject_sensor(NodeId(0), adv(1));
        twin.flush();
        twin.inject_subscription(NodeId(4), sub(1));
        twin.flush();
        twin.retract_sensor(NodeId(0), SensorId(1));
        twin.flush();
        twin.inject_sensor(NodeId(3), adv(2));
        twin.flush();
        twin.retract_subscription(NodeId(4), SubId(1));
        twin.flush();
        twin.inject_subscription(NodeId(4), sub(2));
        twin.flush();
        twin.inject_event(NodeId(3), ev(2));
        twin.flush();
        assert_eq!(
            mobile.deliveries().delivered(SubId(1)),
            twin.deliveries().delivered(SubId(1)),
            "{kind}: a revived id routed differently from a fresh one"
        );
        assert!(
            mobile
                .deliveries()
                .delivered(SubId(1))
                .contains(&EventId(100)),
            "{kind}: the revived sensor never delivered"
        );
    }
}
