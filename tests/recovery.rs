//! Crash-recovery battery: after `crash_node` + regraft + recovery, recall
//! must return to 100% of the post-crash-reachable oracle for **all five
//! engines**, event-for-event, with no duplicate deliveries — under both
//! zero and nonzero latency, across seeded scenarios.
//!
//! The oracle is an uncrashed twin: the crashed relay hosts no state, so
//! the post-crash-reachable result set equals the never-crashed result
//! set, and `DeliveryLog` equality (per-subscription sets **and** the
//! complex-delivery count) proves both full recall and duplicate-freedom
//! in one comparison.
//!
//! The advertisement plane has its own oracle, independent of the
//! protocol: [`fsf::dynamics::RoutingTruth`] says where every live node
//! must file every live sensor on the current topology, and at which
//! generation. Seeded crash plans, cascades (a dead anchor, a dead orphan)
//! and deferred recovery are all held to it at quiescence, on the
//! simulator and on the async host, for both advertising families — and
//! an auto-recovered crash must apply exactly one repair per route the
//! regraft changed.

use fsf::dynamics::{leaks, run_plan_checked};
use fsf::network::{builders, difference, DeliveryLog, LatencyModel, Topology};
use fsf::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const VALIDITY: u64 = 60;
const DT: u64 = 30;

/// A deterministic crash scenario: sensors and subscribers on leaves, one
/// stateless interior relay to crash, and two publish batches separated by
/// a correlation epoch (so no window straddles the outage).
struct Scenario {
    topology: Topology,
    sensors: Vec<(NodeId, Advertisement)>,
    subs: Vec<(NodeId, Subscription)>,
    batch1: Vec<(NodeId, Event)>,
    batch2: Vec<(NodeId, Event)>,
    crash: NodeId,
    anchor: NodeId,
}

fn scenario(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let topology = builders::balanced(31, 2);
    let median = topology.median();
    let leaves: Vec<NodeId> = topology
        .nodes()
        .filter(|&n| topology.degree(n) == 1)
        .collect();

    let mut sensors = Vec::new();
    for i in 0..6u32 {
        // sensor 1 and subscriber 1 are pinned to opposite corners of the
        // tree so the crash always has a stateless relay to sever
        let node = if i == 0 {
            leaves[0]
        } else {
            *leaves.choose(&mut rng).expect("leaves")
        };
        sensors.push((
            node,
            Advertisement {
                sensor: SensorId(i + 1),
                attr: AttrId((i % 5) as u16),
                location: Point::new(f64::from(i), 0.0),
            },
        ));
    }

    let mut subs = Vec::new();
    for i in 0..5u64 {
        let node = if i == 0 {
            *leaves.last().expect("leaves")
        } else {
            *leaves.choose(&mut rng).expect("leaves")
        };
        let arity = if i == 0 { 1 } else { rng.gen_range(1..=2usize) };
        let mut pool: Vec<u32> = (1..=6).collect();
        pool.shuffle(&mut rng);
        let filters: Vec<(SensorId, ValueRange)> = pool[..arity]
            .iter()
            .map(|&s| {
                let lo = rng.gen_range(0.0..3.0);
                let hi = rng.gen_range(7.0..20.0);
                (
                    SensorId(if i == 0 { 1 } else { s }),
                    ValueRange::new(lo, hi),
                )
            })
            .collect();
        subs.push((
            node,
            Subscription::identified(SubId(i + 1), filters, DT).unwrap(),
        ));
    }

    // crash an interior relay on the path between sensor 1's host and
    // subscriber 1's node, so the outage demonstrably severs delivery;
    // never the median (the centralized matcher lives there), never a host
    let hosts: Vec<NodeId> = sensors
        .iter()
        .map(|(n, _)| *n)
        .chain(subs.iter().map(|(n, _)| *n))
        .collect();
    let path = topology.path(sensors[0].0, subs[0].0);
    let crash = path
        .iter()
        .copied()
        .find(|&n| topology.degree(n) > 1 && n != median && !hosts.contains(&n))
        .expect("a 31-node tree has a stateless relay on the path");
    let anchor = topology.neighbors(crash)[0];

    let mut batch1 = Vec::new();
    let mut batch2 = Vec::new();
    for (i, &(node, adv)) in sensors.iter().enumerate() {
        for (batch, base_t, base_id) in [(&mut batch1, 1_000u64, 100u64), (&mut batch2, 5_000, 200)]
        {
            batch.push((
                node,
                Event {
                    id: EventId(base_id + i as u64),
                    sensor: adv.sensor,
                    attr: adv.attr,
                    location: adv.location,
                    value: 5.0,
                    timestamp: Timestamp(base_t + 3 * i as u64),
                },
            ));
        }
    }

    Scenario {
        topology,
        sensors,
        subs,
        batch1,
        batch2,
        crash,
        anchor,
    }
}

/// Replay the scenario through one engine; `crash` controls whether the
/// relay dies (with auto-recovery) between the two batches.
fn run(kind: EngineKind, latency: &LatencyModel, sc: &Scenario, crash: bool) -> DeliveryLog {
    let mut e = kind
        .builder(sc.topology.clone())
        .validity(VALIDITY)
        .seed(42)
        .latency(latency.clone())
        .build();
    for &(node, adv) in &sc.sensors {
        e.inject_sensor(node, adv);
        e.flush();
    }
    for (node, sub) in &sc.subs {
        e.inject_subscription(*node, sub.clone());
        e.flush();
    }
    for &(node, ev) in &sc.batch1 {
        e.inject_event(node, ev);
        e.flush();
    }
    if crash {
        e.crash_node(sc.crash, sc.anchor).unwrap();
        e.flush();
        let stats = e.recovery_stats();
        assert_eq!((stats.crashes, stats.recoveries), (1, 1), "{kind}");
    }
    for &(node, ev) in &sc.batch2 {
        e.inject_event(node, ev);
        e.flush();
    }
    assert_eq!(e.queue_depth(), 0, "{kind}: not quiescent");
    e.deliveries().clone()
}

/// The acceptance run: ≥3 seeds × zero/nonzero latency × five engines.
/// Each engine's crashed-and-recovered run must equal its own uncrashed
/// twin (100% of the reachable oracle, no duplicates), and across engines
/// the deterministic four agree event-for-event while FSF stays a subset.
#[test]
fn recovery_restores_recall_to_the_reachable_oracle() {
    for seed in [0x5EED_0001u64, 0x5EED_0002, 0x5EED_0003] {
        let sc = scenario(seed);
        for latency in [LatencyModel::Zero, LatencyModel::Uniform { hop: 1 }] {
            let mut crashed_logs: Vec<(EngineKind, DeliveryLog)> = Vec::new();
            for kind in EngineKind::ALL {
                let twin = run(kind, &latency, &sc, false);
                let recovered = run(kind, &latency, &sc, true);
                assert_eq!(
                    recovered, twin,
                    "seed {seed:#x} {latency:?}: {kind} diverged from its uncrashed twin \
                     (lost recall or duplicated deliveries)"
                );
                crashed_logs.push((kind, recovered));
            }
            let (_, oracle) = &crashed_logs[1]; // Naive: the exact baseline
            assert!(
                oracle.total_event_units() > 0,
                "seed {seed:#x}: the scenario delivered nothing"
            );
            for (sub_node, sub) in &sc.subs {
                let _ = sub_node;
                let expected = oracle.delivered(sub.id());
                for (kind, log) in &crashed_logs {
                    if *kind == EngineKind::FilterSplitForward {
                        assert!(
                            difference(log.delivered(sub.id()), expected)
                                .next()
                                .is_none(),
                            "seed {seed:#x}: FSF outside ground truth for {:?}",
                            sub.id()
                        );
                    } else {
                        assert_eq!(
                            log.delivered(sub.id()),
                            expected,
                            "seed {seed:#x}: {kind} diverged on {:?}",
                            sub.id()
                        );
                    }
                }
            }
        }
    }
}

/// Without recovery the crash demonstrably severs delivery — the outage
/// the protocol exists for — and a later `recover()` repairs it.
#[test]
fn deferred_recovery_shows_the_outage_and_heals_it() {
    let sc = scenario(0x5EED_0001);
    for kind in EngineKind::ALL {
        let mut e = kind.build(sc.topology.clone(), VALIDITY, 42);
        e.set_auto_recover(false);
        for &(node, adv) in &sc.sensors {
            e.inject_sensor(node, adv);
            e.flush();
        }
        for (node, sub) in &sc.subs {
            e.inject_subscription(*node, sub.clone());
            e.flush();
        }
        e.crash_node(sc.crash, sc.anchor).unwrap();
        e.flush();
        // outage: sensor 1's reading cannot reach subscriber 1 through the
        // dead relay (the centralized baseline reroutes instantly — its
        // next-hop refresh is not deferrable — so it is exempt)
        let (node1, ev1) = sc.batch1[0];
        e.inject_event(node1, ev1);
        e.flush();
        if kind != EngineKind::Centralized {
            assert!(
                !e.deliveries().delivered(SubId(1)).contains(&ev1.id),
                "{kind}: delivered through a dead relay before recovery"
            );
        }
        assert_eq!(e.recovery_stats().recoveries, 0, "{kind}");
        e.recover();
        e.flush();
        assert_eq!(e.recovery_stats().recoveries, 1, "{kind}");
        // healed: the next epoch's reading arrives
        let (node2, ev2) = sc.batch2[0];
        e.inject_event(node2, ev2);
        e.flush();
        assert!(
            e.deliveries().delivered(SubId(1)).contains(&ev2.id),
            "{kind}: recovery did not restore the severed path"
        );
    }
}

/// Cascading crashes: the anchor of the first regraft later crashes too.
/// Recovery must keep re-establishing state over each successive tree.
#[test]
fn cascading_crashes_keep_recovering() {
    // line n0(sensor) — n1 — n2 — n3(median) — … — n6(user):
    // crash n1 onto n2, then n2 onto n3; the median n3 survives both
    for kind in EngineKind::ALL {
        let mut e = kind.build(builders::line(7), VALIDITY, 42);
        e.inject_sensor(
            NodeId(0),
            Advertisement {
                sensor: SensorId(1),
                attr: AttrId(0),
                location: Point::new(0.0, 0.0),
            },
        );
        e.flush();
        e.inject_subscription(
            NodeId(6),
            Subscription::identified(SubId(1), [(SensorId(1), ValueRange::new(0.0, 10.0))], DT)
                .unwrap(),
        );
        e.flush();
        e.crash_node(NodeId(1), NodeId(2)).unwrap();
        e.flush();
        e.crash_node(NodeId(2), NodeId(3)).unwrap();
        e.flush();
        assert_eq!(e.recovery_stats().crashes, 2, "{kind}");
        e.inject_event(
            NodeId(0),
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
        assert!(
            e.deliveries().delivered(SubId(1)).contains(&EventId(100)),
            "{kind}: cascading crashes defeated recovery"
        );
        assert_eq!(e.queue_depth(), 0, "{kind}");
    }
}

/// A sensor retraction whose `AdvDown` flood is severed mid-flight by the
/// crash: the recovery's tombstone re-announcement must replay it from the
/// crash frontier, or the nodes beyond the corpse keep the dead sensor's
/// advertisement forever.
#[test]
fn severed_retraction_flood_is_replayed_by_recovery() {
    for kind in [
        EngineKind::Naive,
        EngineKind::OperatorPlacement,
        EngineKind::MultiJoin,
        EngineKind::FilterSplitForward,
    ] {
        // line n0(station) — n1 — n2 — n3, two ticks per hop
        let mut e = kind
            .builder(builders::line(4))
            .validity(VALIDITY)
            .seed(42)
            .latency(LatencyModel::Uniform { hop: 2 })
            .build();
        e.inject_sensor(
            NodeId(0),
            Advertisement {
                sensor: SensorId(1),
                attr: AttrId(0),
                location: Point::new(0.0, 0.0),
            },
        );
        e.flush();
        e.retract_sensor(NodeId(0), SensorId(1));
        e.run_until(3); // n1 processed the retraction; the n1→n2 copy is in flight
        e.crash_node(NodeId(2), NodeId(3)).unwrap(); // purges the in-flight copy
        e.flush();
        let leaked: Vec<_> = e
            .footprint()
            .into_iter()
            .filter(|f| !f.is_clean())
            .collect();
        assert!(
            leaked.is_empty(),
            "{kind}: severed retraction left stale state: {leaked:?}"
        );
    }
}

/// Deferred recovery after a cascading crash: the first crash's anchor is
/// itself dead by the time `recover()` runs, so the tombstone
/// re-announcements must route around it (live frontier), not vanish into
/// the corpse.
#[test]
fn deferred_recovery_survives_a_dead_anchor() {
    for kind in EngineKind::ALL {
        // line(7), median n3: sensor hosted ON n1; crash n1 onto n2, then
        // n2 onto n3, and only then recover
        let mut e = kind.build(builders::line(7), VALIDITY, 42);
        e.set_auto_recover(false);
        e.inject_sensor(
            NodeId(1),
            Advertisement {
                sensor: SensorId(1),
                attr: AttrId(0),
                location: Point::new(0.0, 0.0),
            },
        );
        e.flush();
        e.crash_node(NodeId(1), NodeId(2)).unwrap();
        e.crash_node(NodeId(2), NodeId(3)).unwrap();
        e.recover();
        e.flush();
        let leaked: Vec<_> = e
            .footprint()
            .into_iter()
            .filter(|f| !f.is_clean())
            .collect();
        assert!(
            leaked.is_empty(),
            "{kind}: dead-anchor recovery left stale state: {leaked:?}"
        );
        assert_eq!(e.recovery_stats().recoveries, 2, "{kind}");
    }
}

/// The race the tentpole names: a crash + regraft while an advertisement
/// flood is paused mid-flight (`run_until`), with the recovery traffic
/// then racing the rest of the flood. Nothing may wedge, leak messages, or
/// fail to deliver once quiescent.
#[test]
fn regraft_under_paused_flood_races_recovery_traffic() {
    for kind in EngineKind::ALL {
        // balanced(15): root 0, children 1/2; station at leaf 7 (under 1),
        // user at leaf 14 (under 2). Crash the root's child n1 while the
        // advertisement flood from n7 is still crossing the tree.
        let mut e = kind
            .builder(builders::balanced(15, 2))
            .validity(VALIDITY)
            .seed(42)
            .latency(LatencyModel::Uniform { hop: 3 })
            .build();
        e.inject_sensor(
            NodeId(7),
            Advertisement {
                sensor: SensorId(1),
                attr: AttrId(0),
                location: Point::new(0.0, 0.0),
            },
        );
        e.run_until(4); // flood is mid-tree
        if kind != EngineKind::Centralized {
            assert!(e.queue_depth() > 0, "{kind}: flood already drained");
        }
        e.crash_node(NodeId(1), NodeId(0)).unwrap();
        // recovery traffic is now in flight *alongside* the surviving flood
        e.flush();
        e.inject_subscription(
            NodeId(14),
            Subscription::identified(SubId(1), [(SensorId(1), ValueRange::new(0.0, 10.0))], DT)
                .unwrap(),
        );
        e.flush();
        e.inject_event(
            NodeId(7),
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
            "{kind}: delivery lost in the crash/flood race"
        );
    }
}

/// The two advertising families (the other three engines share the
/// pub/sub node with FSF).
const FAMILIES: [EngineKind; 2] = [EngineKind::FilterSplitForward, EngineKind::MultiJoin];

/// Every deployment the routing truth is checked on: the simulator with
/// zero and with hop latency, and the async host.
fn deployments(kind: EngineKind, topology: &Topology) -> Vec<(String, Box<dyn Engine>)> {
    let base = || kind.builder(topology.clone()).validity(VALIDITY).seed(42);
    vec![
        (format!("{kind}/sim"), base().build()),
        (
            format!("{kind}/sim hop 1"),
            base().latency(LatencyModel::Uniform { hop: 1 }).build(),
        ),
        (
            format!("{kind}/async"),
            base().deploy(Deploy::Async { workers: 2 }).build(),
        ),
    ]
}

fn sensor(node: u32, id: u32) -> ChurnAction {
    ChurnAction::SensorUp {
        node: NodeId(node),
        adv: Advertisement {
            sensor: SensorId(id),
            attr: AttrId((id % 5) as u16),
            location: Point::new(f64::from(id), 0.0),
        },
    }
}

fn crash(node: u32, anchor: u32) -> ChurnAction {
    ChurnAction::Crash {
        node: NodeId(node),
        anchor: NodeId(anchor),
    }
}

/// Seeded interior-crash plans with moves (the churn battery's shape):
/// after every auto-recovered crash the advertisement picture is the
/// routing truth, and the repairs applied are exactly the routes the
/// regraft changed.
#[test]
fn seeded_crash_plans_meet_the_routing_truth_on_both_substrates() {
    let topology = builders::balanced(63, 2);
    for seed in [0x7207_0005u64, 0x7207_0008] {
        let plan = ChurnPlan::seeded(
            &topology,
            &ChurnPlanConfig {
                seed,
                churn_actions: 40,
                initial_sensors: 10,
                with_crashes: true,
                crash_interior: true,
                min_crashes: 2,
                with_moves: true,
                protected_nodes: vec![topology.median()],
                ..ChurnPlanConfig::default()
            },
        )
        .with_teardown();
        for kind in FAMILIES {
            for (label, mut e) in deployments(kind, &topology) {
                let done = run_plan_checked(e.as_mut(), &topology, &plan);
                assert!(
                    done.counted_crashes >= 2,
                    "seed {seed:#x} {label}: {done:?}"
                );
                assert!(done.routes > 0, "seed {seed:#x} {label}: nothing checked");
                let stats = e.recovery_stats();
                assert!(
                    stats.repairs_applied > 0 && stats.repairs_absorbed > 0,
                    "seed {seed:#x} {label}: {stats:?}"
                );
                assert!(
                    leaks(e.as_mut()).is_empty(),
                    "seed {seed:#x} {label}: leaked"
                );
            }
        }
    }
}

/// Cascades under auto-recovery: a crash whose orphan is a corpse left by
/// an earlier crash (the anchor offers into it; the offer dies at the
/// radio), then a crash of the anchor that had adopted everything.
#[test]
fn cascading_crashes_meet_the_routing_truth() {
    // balanced(15): root n0, children n1/n2; n1's children n3/n4; n3's
    // children n7/n8. Sensors on every leaf and on n2.
    let topology = builders::balanced(15, 2);
    let mut actions: Vec<ChurnAction> = (7..15).map(|n| sensor(n, n)).collect();
    actions.push(sensor(2, 2));
    actions.extend([
        crash(3, 1), // n7, n8 move onto n1; n3 is a leaf corpse on n1
        ChurnAction::Recover,
        crash(1, 0), // orphans: n3 (a corpse), n4, n7, n8
        ChurnAction::Recover,
        crash(0, 2), // the anchor of the last crash dies too
        ChurnAction::Recover,
    ]);
    let plan = ChurnPlan::scripted(actions);
    for kind in FAMILIES {
        for (label, mut e) in deployments(kind, &topology) {
            let done = run_plan_checked(e.as_mut(), &topology, &plan);
            assert_eq!(done.counted_crashes, 3, "{label}: {done:?}");
        }
    }
}

/// Deferred recovery over several regrafts: with auto-recovery off, the
/// crashes pile up — the first crash's anchor dies, then one of the
/// second crash's orphans — while sensors come, go and move over the
/// degraded tree; one `recover()` then runs every pending delta in crash
/// order, and the picture must be the truth at quiescence.
#[test]
fn deferred_recovery_of_cascading_crashes_meets_the_routing_truth() {
    let topology = builders::balanced(31, 2);
    let mut actions: Vec<ChurnAction> = (15..31).step_by(2).map(|n| sensor(n, n)).collect();
    actions.extend([
        sensor(5, 5),
        crash(1, 3), // n0, n4 onto n3
        crash(3, 0), // the anchor dies: n1 (corpse), n4, n7, n8 onto n0
        ChurnAction::SensorDown {
            node: NodeId(17),
            sensor: SensorId(17),
        },
        crash(2, 6), // n0, n5 onto n6
        ChurnAction::Move {
            node: NodeId(16),
            adv: Advertisement {
                sensor: SensorId(29),
                attr: AttrId(4),
                location: Point::new(29.0, 0.0),
            },
            from: NodeId(29),
        },
        crash(6, 13), // the last anchor dies: n2 (corpse), n0, n5, n14 onto n13
        sensor(4, 4),
        ChurnAction::Recover,
    ]);
    let plan = ChurnPlan::scripted(actions);
    for kind in FAMILIES {
        for (label, mut e) in deployments(kind, &topology) {
            e.set_auto_recover(false);
            let done = run_plan_checked(e.as_mut(), &topology, &plan);
            assert_eq!((done.points, done.counted_crashes), (1, 0), "{label}");
            assert_eq!(e.recovery_stats().recoveries, 4, "{label}");
        }
    }
}

/// A generated crash plan with every recovery deferred to the end: every
/// crash of the plan is pending when the one `recover()` runs.
#[test]
fn deferring_every_recovery_of_a_seeded_plan_meets_the_routing_truth() {
    let topology = builders::balanced(63, 2);
    let seeded = ChurnPlan::seeded(
        &topology,
        &ChurnPlanConfig {
            seed: 0x7207_00DE,
            churn_actions: 40,
            initial_sensors: 12,
            with_crashes: true,
            crash_interior: true,
            min_crashes: 3,
            with_moves: true,
            protected_nodes: vec![topology.median()],
            ..ChurnPlanConfig::default()
        },
    );
    let mut actions: Vec<ChurnAction> = seeded
        .actions
        .into_iter()
        .filter(|a| !matches!(a, ChurnAction::Recover))
        .collect();
    actions.push(ChurnAction::Recover);
    let plan = ChurnPlan::scripted(actions);
    let crashes = plan
        .actions
        .iter()
        .filter(|a| matches!(a, ChurnAction::Crash { .. }))
        .count() as u64;
    assert!(crashes >= 3, "only {crashes} crashes");
    for kind in FAMILIES {
        for (label, mut e) in deployments(kind, &topology) {
            e.set_auto_recover(false);
            let done = run_plan_checked(e.as_mut(), &topology, &plan);
            assert_eq!(done.points, 1, "{label}");
            assert_eq!(e.recovery_stats().recoveries, crashes, "{label}");
        }
    }
}

/// The repo benchmark's `churn_mix` plan shape — a balanced binary tree,
/// 24 initial sensors, interior crashes with recovery, moves, four
/// readings per action and full teardown — replayed through all five
/// engines, every advertising one held to the routing truth after each
/// recovery. Naive, operator placement and multi-join must deliver
/// exactly the centralized baseline's log (per-subscription units and the
/// complex count); FSF stays inside it; teardown leaves nothing behind.
fn assert_churn_shape_equivalence(nodes: usize, churn_actions: usize) {
    let topology = builders::balanced(nodes, 2);
    let plan = ChurnPlan::seeded(
        &topology,
        &ChurnPlanConfig {
            initial_sensors: 24,
            churn_actions,
            events_per_action: 4,
            with_crashes: true,
            crash_interior: true,
            with_moves: true,
            ..ChurnPlanConfig::default()
        },
    )
    .with_teardown();
    let subs: Vec<SubId> = plan
        .actions
        .iter()
        .filter_map(|a| match a {
            ChurnAction::Subscribe { sub, .. } => Some(sub.id()),
            _ => None,
        })
        .collect();
    let runs: Vec<(EngineKind, Box<dyn Engine>)> = EngineKind::ALL
        .iter()
        .map(|&kind| {
            let mut e = kind
                .builder(topology.clone())
                .validity(2 * ChurnPlanConfig::default().delta_t)
                .seed(42)
                .build();
            let done = run_plan_checked(e.as_mut(), &topology, &plan);
            if kind != EngineKind::Centralized {
                assert!(done.counted_crashes > 0, "{kind}: no crash was counted");
            }
            assert!(leaks(e.as_mut()).is_empty(), "{kind}: teardown leaked");
            (kind, e)
        })
        .collect();
    let (_, central) = &runs[0];
    let expected = central.deliveries();
    assert!(
        expected.total_event_units() > 0,
        "the plan delivered nothing"
    );
    for (kind, e) in &runs[1..] {
        let log = e.deliveries();
        eprintln!(
            "{nodes} nodes, {churn_actions} actions, {kind}: {} units, {} complex, {} recovery msgs",
            log.total_event_units(),
            log.complex_deliveries(),
            e.recovery_stats().repair_msgs
        );
        if *kind == EngineKind::FilterSplitForward {
            for &sub in &subs {
                assert!(
                    difference(log.delivered(sub), expected.delivered(sub))
                        .next()
                        .is_none(),
                    "FSF delivered outside ground truth for {sub:?}"
                );
            }
        } else {
            assert_eq!(
                log, expected,
                "{kind} diverged from the centralized baseline"
            );
        }
    }
}

/// A reduced `churn_mix` shape, fast enough for a debug build.
#[test]
fn churn_shape_keeps_five_engine_equivalence() {
    assert_churn_shape_equivalence(255, 300);
}

/// `churn_mix` at full size: 511 nodes, 1 200 actions. Optimised builds
/// only (the CI recovery job runs it); a debug build takes minutes.
#[cfg(not(debug_assertions))]
#[test]
fn churn_mix_scale_keeps_five_engine_equivalence() {
    assert_churn_shape_equivalence(511, 1_200);
}
