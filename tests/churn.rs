//! Churn integration: all five engines replay an identical seeded
//! `ChurnPlan`; deterministic engines must agree event-for-event on every
//! delivery, FSF must stay within its recall bands, and full teardown must
//! return every node to its post-bootstrap empty state. Plus fault
//! injection: a crashed node must degrade the network, not wedge it.

use fsf::dynamics::{
    assert_clean, leaks, run_plan, run_plan_checked, ChurnAction, ChurnPlan, ChurnPlanConfig,
};
use fsf::model::attrs;
use fsf::network::difference;
use fsf::prelude::*;

const VALIDITY: u64 = 60;

/// Replay one seeded plan through all five engines and assert the standing
/// churn invariants: deterministic engines agree event-for-event on every
/// delivery, FSF stays inside ground truth, teardown leaves every
/// surviving node empty, and after every crash recovery the advertising
/// engines hold the routing truth.
fn assert_five_engine_equivalence(topology: &Topology, plan: &ChurnPlan, label: &str) {
    let full = plan.clone().with_teardown();
    let subs: Vec<SubId> = plan
        .actions
        .iter()
        .filter_map(|a| match a {
            ChurnAction::Subscribe { sub, .. } => Some(sub.id()),
            _ => None,
        })
        .collect();
    assert!(
        !subs.is_empty(),
        "{label}: plan registered no subscriptions"
    );
    let mut engines: Vec<(EngineKind, Box<dyn Engine>)> = EngineKind::ALL
        .iter()
        .map(|&kind| {
            let mut e = kind
                .builder(topology.clone())
                .validity(VALIDITY)
                .seed(42)
                .build();
            run_plan_checked(e.as_mut(), topology, &full);
            (kind, e)
        })
        .collect();
    let (_, reference) = &engines[0];
    let mut total_ref = 0usize;
    for &sub in &subs {
        let expected = reference.deliveries().delivered(sub);
        total_ref += expected.len();
        for (kind, engine) in &engines[1..] {
            if *kind == EngineKind::FilterSplitForward {
                assert!(
                    difference(engine.deliveries().delivered(sub), expected)
                        .next()
                        .is_none(),
                    "{label}: FSF delivered outside ground truth for {sub:?}"
                );
            } else {
                assert_eq!(
                    engine.deliveries().delivered(sub),
                    expected,
                    "{label}: {kind} diverged on {sub:?}"
                );
            }
        }
    }
    assert!(total_ref > 0, "{label}: the plan produced no deliveries");
    for (kind, engine) in &mut engines {
        assert!(
            leaks(engine.as_mut()).is_empty(),
            "{label}: {kind} teardown leaked: {:?}",
            leaks(engine.as_mut())
        );
    }
}

fn acceptance_plan() -> (Topology, ChurnPlan) {
    let topology = fsf::network::builders::balanced(63, 2);
    let plan = ChurnPlan::seeded(
        &topology,
        &ChurnPlanConfig {
            seed: 0xD15E_A5ED,
            churn_actions: 50,
            initial_sensors: 10,
            ..ChurnPlanConfig::default()
        },
    );
    assert!(
        plan.churn_action_count() >= 50,
        "plan too small: {}",
        plan.churn_action_count()
    );
    (topology, plan)
}

/// The tentpole acceptance run: ≥ 50 churn actions on a ≥ 63-node tree,
/// identical for all five `EngineKind`s.
#[test]
fn all_five_engines_survive_an_identical_seeded_churn_plan() {
    let (topology, plan) = acceptance_plan();
    let full = plan.clone().with_teardown();
    let subs: Vec<SubId> = plan
        .actions
        .iter()
        .filter_map(|a| match a {
            ChurnAction::Subscribe { sub, .. } => Some(sub.id()),
            _ => None,
        })
        .collect();
    assert!(!subs.is_empty(), "plan registered no subscriptions");

    let mut engines: Vec<(EngineKind, Box<dyn Engine>)> = EngineKind::ALL
        .iter()
        .map(|&kind| {
            let mut e = kind
                .builder(topology.clone())
                .validity(VALIDITY)
                .seed(42)
                .build();
            run_plan(e.as_mut(), &full);
            (kind, e)
        })
        .collect();

    // deterministic engines agree event-for-event on every delivery
    let (_, reference) = &engines[0];
    let mut total_ref = 0usize;
    for &sub in &subs {
        let expected = reference.deliveries().delivered(sub);
        total_ref += expected.len();
        for (kind, engine) in &engines[1..] {
            if *kind == EngineKind::FilterSplitForward {
                // probabilistic filter: a subset of ground truth
                assert!(
                    difference(engine.deliveries().delivered(sub), expected)
                        .next()
                        .is_none(),
                    "FSF delivered outside ground truth for {sub:?}"
                );
            } else {
                assert_eq!(
                    engine.deliveries().delivered(sub),
                    expected,
                    "{kind} diverged on {sub:?}"
                );
            }
        }
    }
    assert!(total_ref > 0, "the plan produced no deliveries at all");

    // FSF recall stays within its existing bands
    let fsf_total = engines
        .iter()
        .find(|(k, _)| *k == EngineKind::FilterSplitForward)
        .map(|(_, e)| e.deliveries().total_event_units())
        .unwrap();
    let exact_total = reference.deliveries().total_event_units();
    let recall = fsf_total as f64 / exact_total as f64;
    assert!(recall > 0.8, "FSF recall collapsed under churn: {recall}");

    // full teardown leaves every node's filter/operator/event state empty
    for (kind, engine) in &mut engines {
        assert!(
            leaks(engine.as_mut()).is_empty(),
            "{kind}: teardown leaked: {:?}",
            leaks(engine.as_mut())
        );
    }
}

/// Applying the same retraction twice mid-plan changes nothing: the whole
/// retraction protocol is idempotent at quiescence.
#[test]
fn retractions_are_idempotent_mid_plan() {
    let (topology, plan) = acceptance_plan();
    for kind in EngineKind::DISTRIBUTED {
        let mut engine = kind
            .builder(topology.clone())
            .validity(VALIDITY)
            .seed(42)
            .build();
        run_plan(engine.as_mut(), &plan);
        for action in plan.teardown() {
            fsf::dynamics::apply_action(engine.as_mut(), &action);
            engine.flush();
            let stats = engine.stats().clone();
            let footprint = engine.footprint();
            fsf::dynamics::apply_action(engine.as_mut(), &action);
            engine.flush();
            assert_eq!(engine.stats(), &stats, "{kind}: {action:?} not idempotent");
            assert_eq!(engine.footprint(), footprint, "{kind}: state changed");
        }
        assert_clean(engine.as_mut());
    }
}

/// Fault injection with crashes enabled: stateless-leaf crashes re-graft
/// the tree, every engine keeps running, deterministic engines still agree,
/// and teardown still comes back clean.
#[test]
fn leaf_crashes_regraft_without_breaking_equivalence() {
    let topology = fsf::network::builders::balanced(63, 2);
    let plan = ChurnPlan::seeded(
        &topology,
        &ChurnPlanConfig {
            seed: 0xFA17_1A7E,
            churn_actions: 60,
            initial_sensors: 8,
            with_crashes: true,
            ..ChurnPlanConfig::default()
        },
    )
    .with_teardown();
    assert!(
        plan.actions
            .iter()
            .any(|a| matches!(a, ChurnAction::Crash { .. })),
        "plan contains no crash"
    );
    let mut delivered: Vec<(EngineKind, u64)> = Vec::new();
    for kind in EngineKind::ALL {
        let mut engine = kind
            .builder(topology.clone())
            .validity(VALIDITY)
            .seed(42)
            .build();
        run_plan(engine.as_mut(), &plan);
        delivered.push((kind, engine.deliveries().total_event_units()));
        assert_clean(engine.as_mut());
    }
    let exact: Vec<u64> = delivered
        .iter()
        .filter(|(k, _)| *k != EngineKind::FilterSplitForward)
        .map(|&(_, d)| d)
        .collect();
    assert!(
        exact.windows(2).all(|w| w[0] == w[1]),
        "deterministic engines diverged under crashes: {delivered:?}"
    );
}

/// Fault injection, interior edition, recovery *disabled*: crashing a
/// relay that carries live routing state degrades delivery (messages to it
/// are dropped) but must not wedge or panic any engine — the network keeps
/// running and later traffic still flushes to quiescence. (With recovery —
/// the default — recall returns instead; see `tests/recovery.rs`.)
#[test]
fn interior_crash_degrades_but_does_not_wedge() {
    // line: sensor n0 — n1 — n2 — user n3; crash relay n1 onto n2
    for kind in EngineKind::ALL {
        let topology = fsf::network::builders::line(4);
        let mut engine = kind.build(topology, VALIDITY, 42);
        engine.set_auto_recover(false);
        engine.inject_sensor(
            NodeId(0),
            Advertisement {
                sensor: SensorId(1),
                attr: attrs::AMBIENT_TEMP,
                location: Point::new(0.0, 0.0),
            },
        );
        engine.flush();
        let sub =
            Subscription::identified(SubId(1), [(SensorId(1), ValueRange::new(-5.0, 5.0))], 30)
                .unwrap();
        engine.inject_subscription(NodeId(3), sub);
        engine.flush();
        engine.crash_node(NodeId(1), NodeId(2)).unwrap();
        // the publisher's state still references the dead relay; the system
        // must absorb that (drops, not deadlock)
        engine.inject_event(
            NodeId(0),
            Event {
                id: EventId(100),
                sensor: SensorId(1),
                attr: attrs::AMBIENT_TEMP,
                location: Point::new(0.0, 0.0),
                value: 1.0,
                timestamp: Timestamp(1_000),
            },
        );
        engine.flush();
        // retraction through the re-grafted tree must not panic either
        engine.retract_subscription(NodeId(3), SubId(1));
        engine.retract_sensor(NodeId(0), SensorId(1));
        engine.flush();
    }
}

/// Interior crashes with the full `Crash`/`Recover` protocol: the seeded
/// generator now kills arbitrary relays (their hosted state dies with
/// them), and the five engines must *still* agree event-for-event through
/// crash → recover → churn interleavings, with clean teardown.
#[test]
fn interior_crashes_with_recovery_keep_five_engine_equivalence() {
    let topology = fsf::network::builders::balanced(63, 2);
    let plan = ChurnPlan::seeded(
        &topology,
        &ChurnPlanConfig {
            seed: 0x0C0_FFEE,
            churn_actions: 60,
            initial_sensors: 10,
            with_crashes: true,
            crash_interior: true,
            protected_nodes: vec![topology.median()],
            ..ChurnPlanConfig::default()
        },
    );
    let interior_crashes = plan
        .actions
        .iter()
        .filter(|a| matches!(a, ChurnAction::Crash { node, .. } if topology.degree(*node) > 1))
        .count();
    assert!(interior_crashes > 0, "plan crashed no interior node");
    assert_five_engine_equivalence(&topology, &plan, "interior-crash");
}

/// The **id-reusing generator mode**: seeded plans now re-host known
/// sensor ids (live handoffs and departed-id revivals via
/// [`ChurnAction::Move`]) — the restriction the pre-mobility generator was
/// designed around is gone. Each plan must keep the five-engine
/// equivalence + teardown battery *and* match its stationary twin
/// delivery-for-delivery on every engine. `FSF_MOBILITY_SWEEP=<n>` replays
/// `n` seeds (the nightly sweep); unset (the per-PR path), it covers a
/// single extra seed so the harness itself stays exercised.
#[test]
fn mobility_seed_sweep() {
    let sweep: u64 = std::env::var("FSF_MOBILITY_SWEEP")
        .ok()
        .map(|s| s.parse().expect("FSF_MOBILITY_SWEEP must be a count"))
        .unwrap_or(1);
    let topology = fsf::network::builders::balanced(63, 2);
    for i in 0..sweep {
        let seed = 0x0B11_0B11 + i;
        let plan = ChurnPlan::seeded(
            &topology,
            &ChurnPlanConfig {
                seed,
                churn_actions: 40,
                initial_sensors: 8,
                with_moves: true,
                min_moves: 4,
                ..ChurnPlanConfig::default()
            },
        );
        let moves = plan
            .actions
            .iter()
            .filter(|a| matches!(a, ChurnAction::Move { .. }))
            .count();
        assert!(moves >= 4, "seed {seed:#x}: only {moves} moves");
        let label = format!("mobility seed {seed:#x}");
        assert_five_engine_equivalence(&topology, &plan, &label);
        // stationary-twin equality: the mobile run is indistinguishable
        // from retire-old-id + fresh-id-at-the-new-node. Deterministic
        // engines must match delivery-for-delivery; the probabilistic FSF
        // filter draws different coverage decisions for the twin's renamed
        // ids, so it gets the usual recall band instead.
        let mobile = plan.clone().with_teardown();
        let twin = plan.stationary_twin(10_000).with_teardown();
        for kind in EngineKind::ALL {
            let mut m = kind
                .builder(topology.clone())
                .validity(VALIDITY)
                .seed(42)
                .build();
            run_plan(m.as_mut(), &mobile);
            let mut t = kind
                .builder(topology.clone())
                .validity(VALIDITY)
                .seed(42)
                .build();
            run_plan(t.as_mut(), &twin);
            if kind == EngineKind::FilterSplitForward {
                let (md, td) = (
                    m.deliveries().total_event_units() as f64,
                    t.deliveries().total_event_units() as f64,
                );
                if td == 0.0 {
                    assert_eq!(md, 0.0, "{label}: FSF delivered with a silent twin");
                } else {
                    let ratio = md / td;
                    assert!(
                        (0.8..=1.25).contains(&ratio),
                        "{label}: FSF mobile/twin recall ratio out of band: {ratio}"
                    );
                }
            } else {
                assert_eq!(
                    m.deliveries(),
                    t.deliveries(),
                    "{label}: {kind} diverged from its stationary twin"
                );
            }
        }
    }
}

/// The nightly seed sweep: `FSF_CHURN_SWEEP=<n>` replays `n` seeded
/// interior-crash churn plans through all five engines with the full
/// equivalence + teardown battery. Unset (the per-PR path), it covers a
/// single extra seed so the harness itself stays exercised.
#[test]
fn churn_seed_sweep() {
    let sweep: u64 = std::env::var("FSF_CHURN_SWEEP")
        .ok()
        .map(|s| s.parse().expect("FSF_CHURN_SWEEP must be a count"))
        .unwrap_or(1);
    let topology = fsf::network::builders::balanced(63, 2);
    for i in 0..sweep {
        let seed = 0x51_EE_B0_00 + i;
        let plan = ChurnPlan::seeded(
            &topology,
            &ChurnPlanConfig {
                seed,
                churn_actions: 40,
                initial_sensors: 8,
                with_crashes: true,
                crash_interior: true,
                protected_nodes: vec![topology.median()],
                ..ChurnPlanConfig::default()
            },
        );
        assert_five_engine_equivalence(&topology, &plan, &format!("sweep seed {seed:#x}"));
    }
}
