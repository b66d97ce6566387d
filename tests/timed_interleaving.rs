//! Timed-interleaving battery: the discrete-event scheduler under churn.
//!
//! All five engines replay one seeded **timed** churn plan with nonzero
//! message latency — actions fire on the virtual clock, floods genuinely
//! interleave, nothing is flushed per action — and must still agree
//! event-for-event at quiescence. Plus the sharpest race the
//! run-to-quiescence runner could never express: a `SensorDown` retraction
//! injected while its own advertisement flood is still in flight.
//!
//! CI runs this suite under a seed matrix: `FSF_TIMED_SEED=<n>` adds a
//! seed on top of the built-in ones.

use fsf::dynamics::{leaks, run_plan_timed, ChurnPlan, ChurnPlanConfig, TimedReplayConfig};
use fsf::model::attrs;
use fsf::network::{builders, difference, LatencyModel};
use fsf::prelude::*;

const VALIDITY: u64 = 60;

fn seeds() -> Vec<u64> {
    let mut seeds = vec![0xBEEF_0001, 0xBEEF_0002, 0xBEEF_0003];
    if let Ok(s) = std::env::var("FSF_TIMED_SEED") {
        seeds.push(s.parse().expect("FSF_TIMED_SEED must be a u64"));
    }
    seeds
}

/// The tentpole battery: a 63-node tree, ≥ 40 churn actions, one-tick hop
/// latency, no per-action flushes. Deterministic engines agree
/// event-for-event, FSF stays inside ground truth, teardown leaves every
/// node empty, and the clock really advanced.
#[test]
fn five_engines_agree_event_for_event_under_latency() {
    for seed in seeds() {
        let topology = builders::balanced(63, 2);
        let latency = LatencyModel::Uniform { hop: 1 };
        let plan = ChurnPlan::seeded(
            &topology,
            &ChurnPlanConfig {
                seed,
                churn_actions: 40,
                initial_sensors: 8,
                ..ChurnPlanConfig::default()
            },
        )
        .with_teardown();
        let timed = plan.timed(&TimedReplayConfig::drained(&topology, &latency));
        let subs: Vec<SubId> = plan
            .actions
            .iter()
            .filter_map(|a| match a {
                ChurnAction::Subscribe { sub, .. } => Some(sub.id()),
                _ => None,
            })
            .collect();
        assert!(!subs.is_empty(), "seed {seed:#x}: no subscriptions");

        let mut engines: Vec<(EngineKind, Box<dyn Engine>)> = EngineKind::ALL
            .iter()
            .map(|&kind| {
                let mut e = kind
                    .builder(topology.clone())
                    .validity(VALIDITY)
                    .seed(42)
                    .latency(latency.clone())
                    .build();
                let end = run_plan_timed(e.as_mut(), &timed);
                assert!(end >= timed.horizon(), "{kind}: clock stalled");
                assert_eq!(e.queue_depth(), 0, "{kind}: not quiescent");
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
                        "seed {seed:#x}: FSF delivered outside ground truth for {sub:?}"
                    );
                } else {
                    assert_eq!(
                        engine.deliveries().delivered(sub),
                        expected,
                        "seed {seed:#x}: {kind} diverged on {sub:?}"
                    );
                }
            }
        }
        assert!(total_ref > 0, "seed {seed:#x}: no deliveries at all");

        for (kind, engine) in &mut engines {
            assert!(
                leaks(engine.as_mut()).is_empty(),
                "seed {seed:#x}: {kind} teardown leaked: {:?}",
                leaks(engine.as_mut())
            );
            // nonzero latency: delivery took real virtual time
            let lat = engine.latency_summary();
            assert!(lat.samples > 0, "seed {seed:#x}: {kind} has no samples");
            assert!(lat.max >= lat.p95 && lat.p95 >= lat.p50, "{kind} ordering");
        }
    }
}

/// The recovery extension of the tentpole battery: seeded plans that crash
/// *interior* nodes (paired with `Recover`) replay timed under nonzero
/// latency — crashes purge in-flight messages, recovery floods race the
/// surviving traffic — and the five engines must still agree
/// event-for-event at quiescence, with clean teardown and recovery
/// actually charged.
#[test]
fn five_engines_agree_through_timed_crash_recover_interleavings() {
    for seed in seeds() {
        let topology = builders::balanced(63, 2);
        let latency = LatencyModel::Uniform { hop: 1 };
        let plan = ChurnPlan::seeded(
            &topology,
            &ChurnPlanConfig {
                seed,
                churn_actions: 40,
                initial_sensors: 8,
                with_crashes: true,
                crash_interior: true,
                protected_nodes: vec![topology.median()],
                min_crashes: 2,
                ..ChurnPlanConfig::default()
            },
        )
        .with_teardown();
        assert!(
            plan.actions
                .iter()
                .any(|a| matches!(a, ChurnAction::Crash { .. })),
            "seed {seed:#x}: plan contains no crash"
        );
        let timed = plan.timed(&TimedReplayConfig::drained(&topology, &latency));
        let subs: Vec<SubId> = plan
            .actions
            .iter()
            .filter_map(|a| match a {
                ChurnAction::Subscribe { sub, .. } => Some(sub.id()),
                _ => None,
            })
            .collect();

        let mut engines: Vec<(EngineKind, Box<dyn Engine>)> = EngineKind::ALL
            .iter()
            .map(|&kind| {
                let mut e = kind
                    .builder(topology.clone())
                    .validity(VALIDITY)
                    .seed(42)
                    .latency(latency.clone())
                    .build();
                run_plan_timed(e.as_mut(), &timed);
                assert_eq!(e.queue_depth(), 0, "{kind}: not quiescent");
                assert!(e.recovery_stats().recoveries > 0, "{kind}: no recovery ran");
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
                        "seed {seed:#x}: FSF outside ground truth for {sub:?}"
                    );
                } else {
                    assert_eq!(
                        engine.deliveries().delivered(sub),
                        expected,
                        "seed {seed:#x}: {kind} diverged on {sub:?} through crash/recover"
                    );
                }
            }
        }
        assert!(total_ref > 0, "seed {seed:#x}: no deliveries at all");
        for (kind, engine) in &mut engines {
            assert!(
                leaks(engine.as_mut()).is_empty(),
                "seed {seed:#x}: {kind} teardown leaked: {:?}",
                leaks(engine.as_mut())
            );
        }
    }
}

/// Per-link weighted latency (a slow backbone link) must not change the
/// delivered results either — only the timeline.
#[test]
fn weighted_links_shift_latency_not_results() {
    let topology = builders::balanced(31, 2);
    let uniform = LatencyModel::Uniform { hop: 1 };
    // make the two root links 6× slower than everything else
    let weighted = LatencyModel::per_link(
        1,
        [(NodeId(0), NodeId(1), 6u64), (NodeId(0), NodeId(2), 6u64)],
    );
    let plan = ChurnPlan::seeded(
        &topology,
        &ChurnPlanConfig {
            seed: 0x0005_10ED,
            churn_actions: 20,
            initial_sensors: 6,
            ..ChurnPlanConfig::default()
        },
    )
    .with_teardown();
    let mut results = Vec::new();
    for latency in [uniform, weighted] {
        let timed = plan.timed(&TimedReplayConfig::drained(&topology, &latency));
        let mut e = EngineKind::Naive
            .builder(topology.clone())
            .validity(VALIDITY)
            .seed(42)
            .latency(latency.clone())
            .build();
        run_plan_timed(e.as_mut(), &timed);
        results.push((
            e.deliveries().clone(),
            e.stats().clone(),
            e.latency_summary(),
        ));
    }
    assert_eq!(results[0].0, results[1].0, "results depend on link weights");
    // advertisement and operator traffic are timeline-independent (churn
    // gaps drain those floods); event traffic is not — which partners are
    // already stored when a reading arrives decides the result-set
    // bundling — so only the delivered results and the control planes are
    // compared
    assert_eq!(results[0].1.adv_msgs(), results[1].1.adv_msgs());
    assert_eq!(results[0].1.sub_forwards(), results[1].1.sub_forwards());
    assert!(
        results[1].2.max > results[0].2.max,
        "the slow backbone must show up in the latency tail: {:?} vs {:?}",
        results[1].2,
        results[0].2
    );
}

/// The race the issue names: a `SensorDown` retraction injected while its
/// own advertisement flood is still in flight. The retraction chases the
/// flood over the same links (constant per-link delay ⇒ per-link FIFO ⇒
/// it can never overtake) and must clean every trace of the
/// advertisement.
#[test]
fn sensor_down_races_its_own_advertisement_flood() {
    for kind in EngineKind::ALL {
        let topology = builders::balanced(15, 2);
        let mut e = kind
            .builder(topology)
            .validity(VALIDITY)
            .seed(42)
            .latency(LatencyModel::Uniform { hop: 3 })
            .build();
        e.inject_sensor(
            NodeId(7), // a leaf: the flood has the full tree ahead of it
            Advertisement {
                sensor: SensorId(1),
                attr: attrs::AMBIENT_TEMP,
                location: Point::new(0.0, 0.0),
            },
        );
        // deliver only the first two hops of the flood, then retract while
        // the rest is still in flight
        e.run_until(4);
        if kind != EngineKind::Centralized {
            assert!(
                e.queue_depth() > 0,
                "{kind}: advertisement flood already drained — the race is gone"
            );
        }
        e.retract_sensor(NodeId(7), SensorId(1));
        e.flush();
        assert_eq!(e.queue_depth(), 0, "{kind}: not quiescent");
        assert!(
            leaks(e.as_mut()).is_empty(),
            "{kind}: retraction lost the race: {:?}",
            leaks(e.as_mut())
        );
    }
}

/// Partial advancement at the engine level: pausing mid-flood and
/// injecting during the pause neither drops nor duplicates deliveries —
/// the paused run ends exactly where the unpaused run does.
#[test]
fn injecting_during_a_paused_flood_preserves_deliveries() {
    let adv = |sensor: u32, attr: u16| Advertisement {
        sensor: SensorId(sensor),
        attr: AttrId(attr),
        location: Point::new(0.0, 0.0),
    };
    let ev = |id: u64, sensor: u32, attr: u16, t: u64| Event {
        id: EventId(id),
        sensor: SensorId(sensor),
        attr: AttrId(attr),
        location: Point::new(0.0, 0.0),
        value: 5.0,
        timestamp: Timestamp(t),
    };
    for kind in EngineKind::ALL {
        let build = || {
            kind.builder(builders::balanced(15, 2))
                .validity(VALIDITY)
                .seed(42)
                .latency(LatencyModel::Uniform { hop: 2 })
                .build()
        };
        let sub = Subscription::identified(
            SubId(1),
            [
                (SensorId(1), ValueRange::new(0.0, 10.0)),
                (SensorId(2), ValueRange::new(0.0, 10.0)),
            ],
            30,
        )
        .unwrap();

        // paused run: both events injected while earlier floods are still
        // in flight
        let mut paused = build();
        paused.inject_sensor(NodeId(7), adv(1, 0));
        paused.inject_sensor(NodeId(11), adv(2, 1));
        paused.flush();
        paused.inject_subscription(NodeId(14), sub.clone());
        paused.flush();
        paused.inject_event(NodeId(7), ev(100, 1, 0, 1_000));
        let t = paused.now();
        paused.run_until(t + 3); // event flood is mid-tree…
        assert!(paused.queue_depth() > 0, "{kind}: nothing in flight");
        paused.inject_event(NodeId(11), ev(101, 2, 1, 1_005)); // …inject anyway
        paused.flush();

        // serialized twin: full flush between the two events
        let mut serial = build();
        serial.inject_sensor(NodeId(7), adv(1, 0));
        serial.inject_sensor(NodeId(11), adv(2, 1));
        serial.flush();
        serial.inject_subscription(NodeId(14), sub);
        serial.flush();
        serial.inject_event(NodeId(7), ev(100, 1, 0, 1_000));
        serial.flush();
        serial.inject_event(NodeId(11), ev(101, 2, 1, 1_005));
        serial.flush();

        assert_eq!(
            paused.deliveries(),
            serial.deliveries(),
            "{kind}: pause changed the delivered results"
        );
        assert_eq!(
            paused.deliveries().delivered(SubId(1)).len(),
            2,
            "{kind}: the join must complete"
        );
        assert_eq!(
            paused.stats(),
            serial.stats(),
            "{kind}: pause changed traffic"
        );
    }
}
