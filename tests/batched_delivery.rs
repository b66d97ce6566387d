//! Batched-delivery battery: the link-level delta frames and the
//! arrangement matching core replayed over the existing dynamics seed
//! matrices — churn, crash-recovery and mobility, each flushed and timed,
//! each at zero and nonzero latency — must deliver exactly what the
//! linear-scan oracle delivers. A post-plan reading burst then pits
//! event-at-a-time injection against one multi-event frame per link
//! ([`Engine::inject_events`]): the delivered logs and the unit ledger must
//! stay identical while the batched side spends no *more* scheduler steps.
//! Finally, a traced twin runs the batched path under a live
//! [`fsf::telemetry::Recorder`] and its trace must `reconcile()` with the
//! conservation counters.

use fsf::dynamics::{run_plan, run_plan_timed, TimedReplayConfig};
use fsf::network::builders;
use fsf::prelude::*;
use fsf::telemetry::Recorder;
use std::collections::BTreeMap;

const VALIDITY: u64 = 60;

fn seeds() -> Vec<u64> {
    vec![0xBA7C_0001, 0xBA7C_0002]
}

/// The three dynamics families, sized for a fast matrix (the dedicated
/// churn / recovery / mobility batteries cover the larger plans).
fn plan_families(topology: &Topology, seed: u64) -> Vec<(&'static str, ChurnPlan)> {
    let base = ChurnPlanConfig {
        seed,
        churn_actions: 12,
        initial_sensors: 6,
        ..ChurnPlanConfig::default()
    };
    vec![
        ("churn", ChurnPlan::seeded(topology, &base.clone())),
        (
            "crash-recover",
            ChurnPlan::seeded(
                topology,
                &ChurnPlanConfig {
                    with_crashes: true,
                    crash_interior: true,
                    protected_nodes: vec![topology.median()],
                    min_crashes: 1,
                    ..base.clone()
                },
            ),
        ),
        (
            "mobility",
            ChurnPlan::seeded(
                topology,
                &ChurnPlanConfig {
                    with_moves: true,
                    min_moves: 2,
                    ..base
                },
            ),
        ),
    ]
}

/// Replay the plan to find a sensor still advertised at a surviving node,
/// plus the first free event id / timestamp after the plan's own readings.
/// Returns `None` when every sensor has departed or every host crashed.
fn burst_site(plan: &ChurnPlan) -> Option<(NodeId, Advertisement, u64, u64)> {
    let mut live: BTreeMap<u32, (NodeId, Advertisement)> = BTreeMap::new();
    let mut crashed: Vec<NodeId> = Vec::new();
    let mut max_id = 0u64;
    let mut max_ts = 0u64;
    for action in &plan.actions {
        match action {
            ChurnAction::SensorUp { node, adv } | ChurnAction::Move { node, adv, .. } => {
                live.insert(adv.sensor.0, (*node, *adv));
            }
            ChurnAction::SensorDown { sensor, .. } => {
                live.remove(&sensor.0);
            }
            ChurnAction::Crash { node, .. } => crashed.push(*node),
            ChurnAction::Publish { event, .. } => {
                max_id = max_id.max(event.id.0);
                max_ts = max_ts.max(event.timestamp.0);
            }
            _ => {}
        }
    }
    live.values()
        .find(|(node, _)| !crashed.contains(node))
        .map(|(node, adv)| (*node, *adv, max_id + 1, max_ts + 1))
}

/// A burst of fresh readings from one surviving station: a single source,
/// so every node on the tree sees them in injection order under FIFO links
/// and the delivery grouping is schedule-independent.
fn burst(site: &(NodeId, Advertisement, u64, u64), n: u64) -> Vec<Event> {
    let (_, adv, first_id, first_ts) = site;
    (0..n)
        .map(|i| Event {
            id: EventId(first_id + i),
            sensor: adv.sensor,
            attr: adv.attr,
            location: adv.location,
            value: (i % 50) as f64,
            timestamp: Timestamp(first_ts + i),
        })
        .collect()
}

/// Flushed replay at both latencies: the arrangement twin must agree with
/// the scan oracle on deliveries, traffic, steps and clock — and after the
/// single-frame burst, on deliveries and the unit ledger, while spending
/// no more scheduler steps than the event-at-a-time oracle.
#[test]
fn flushed_matrices_agree_and_burst_frames_conserve_the_ledger() {
    for seed in seeds() {
        let topology = builders::balanced(31, 2);
        for latency in [LatencyModel::Zero, LatencyModel::Uniform { hop: 2 }] {
            for (family, plan) in plan_families(&topology, seed) {
                for kind in EngineKind::ALL {
                    let ctx = format!("seed {seed:#x} {kind}/{family}/{latency:?}");
                    let mut oracle = kind
                        .builder(topology.clone())
                        .validity(VALIDITY)
                        .seed(42)
                        .latency(latency.clone())
                        .match_mode(MatchMode::LinearScan)
                        .build();
                    run_plan(oracle.as_mut(), &plan);
                    let mut batched = kind
                        .builder(topology.clone())
                        .validity(VALIDITY)
                        .seed(42)
                        .latency(latency.clone())
                        .match_mode(MatchMode::Arrangement)
                        .build();
                    run_plan(batched.as_mut(), &plan);
                    assert_eq!(
                        oracle.deliveries(),
                        batched.deliveries(),
                        "{ctx}: delivery logs diverged under churn"
                    );
                    assert_eq!(
                        oracle.stats(),
                        batched.stats(),
                        "{ctx}: traffic ledgers diverged under churn"
                    );
                    assert_eq!(
                        oracle.steps(),
                        batched.steps(),
                        "{ctx}: step count diverged"
                    );
                    assert_eq!(oracle.now(), batched.now(), "{ctx}: clock diverged");

                    // the burst: event-at-a-time vs one delta frame
                    let Some(site) = burst_site(&plan) else {
                        continue;
                    };
                    let readings = burst(&site, 12);
                    let steps_before = (oracle.steps(), batched.steps());
                    for e in &readings {
                        oracle.inject_event(site.0, *e);
                        oracle.flush();
                    }
                    batched.inject_events(site.0, readings);
                    batched.flush();
                    assert_eq!(
                        oracle.deliveries(),
                        batched.deliveries(),
                        "{ctx}: delivery logs diverged after the burst"
                    );
                    assert_eq!(
                        oracle.stats().event_units(),
                        batched.stats().event_units(),
                        "{ctx}: the burst broke the unit ledger"
                    );
                    assert!(
                        batched.steps() - steps_before.1 <= oracle.steps() - steps_before.0,
                        "{ctx}: the framed burst spent more steps than event-at-a-time"
                    );
                }
            }
        }
    }
}

/// Timed replay (no per-action flush, actions race in-flight floods) at
/// both latencies: the arrangement twin must agree event-for-event with
/// the scan oracle at quiescence.
#[test]
fn timed_matrices_agree_at_quiescence() {
    for seed in seeds() {
        let topology = builders::balanced(31, 2);
        for latency in [LatencyModel::Zero, LatencyModel::Uniform { hop: 2 }] {
            for (family, plan) in plan_families(&topology, seed) {
                let timed = plan.timed(&TimedReplayConfig::drained(&topology, &latency));
                for kind in EngineKind::ALL {
                    let ctx = format!("seed {seed:#x} {kind}/{family}/{latency:?} timed");
                    let mut oracle = kind
                        .builder(topology.clone())
                        .validity(VALIDITY)
                        .seed(42)
                        .latency(latency.clone())
                        .match_mode(MatchMode::LinearScan)
                        .build();
                    let end_oracle = run_plan_timed(oracle.as_mut(), &timed);
                    let mut batched = kind
                        .builder(topology.clone())
                        .validity(VALIDITY)
                        .seed(42)
                        .latency(latency.clone())
                        .match_mode(MatchMode::Arrangement)
                        .build();
                    let end_batched = run_plan_timed(batched.as_mut(), &timed);
                    assert_eq!(
                        oracle.deliveries(),
                        batched.deliveries(),
                        "{ctx}: delivery logs diverged"
                    );
                    assert_eq!(
                        oracle.stats(),
                        batched.stats(),
                        "{ctx}: traffic ledgers diverged"
                    );
                    assert_eq!(end_oracle, end_batched, "{ctx}: quiescence time diverged");
                }
            }
        }
    }
}

/// The batched path under a live trace: replay each family on a recorded
/// engine (default = arrangement mode), push a multi-event frame through
/// `inject_events`, and the captured trace must reconcile with the
/// scheduler's conservation counters.
#[test]
fn batched_path_traces_reconcile() {
    let seed = seeds()[0];
    let topology = builders::balanced(31, 2);
    let latency = LatencyModel::Uniform { hop: 2 };
    for (family, plan) in plan_families(&topology, seed) {
        for kind in EngineKind::ALL {
            let ctx = format!("{kind}/{family}");
            let recorder = Recorder::new();
            let mut engine = kind
                .builder(topology.clone())
                .validity(VALIDITY)
                .seed(42)
                .latency(latency.clone())
                .sink(recorder.clone())
                .build();
            run_plan(engine.as_mut(), &plan);
            if let Some(site) = burst_site(&plan) {
                engine.inject_events(site.0, burst(&site, 12));
                engine.flush();
            }
            recorder
                .reconcile(
                    engine.scheduled_total(),
                    engine.steps(),
                    engine.dropped_from_queue(),
                    engine.deliveries().complex_deliveries(),
                )
                .unwrap_or_else(|e| panic!("{ctx}: batched trace does not reconcile:\n{e}"));
            assert!(!recorder.is_empty(), "{ctx}: nothing recorded");
        }
    }
}
