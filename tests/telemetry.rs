//! Telemetry battery: tracing a run must never change it, and what it
//! records must survive a round trip through every exporter.
//!
//! The zero-interference check replays the three dynamics plan families
//! (churn, crash + recovery, mobility) across the built-in seed matrix
//! through every engine twice — once with the statically-compiled-out
//! `Noop` sink and once with a live [`fsf::telemetry::Recorder`] — and
//! demands bit-identical [`fsf::network::DeliveryLog`]s and traffic
//! counters. The exporter checks feed one recorded run through JSONL
//! (lossless: events and counters rebuild exactly), Chrome trace-event
//! JSON (shape-validated, shards as tracks), and the text summary.

use fsf::dynamics::{leaks, run_plan, run_plan_timed_traced, ChurnPlan, ChurnPlanConfig};
use fsf::network::{builders, LatencyModel, Topology};
use fsf::prelude::*;
use fsf::telemetry::{Recorder, TelemetryEvent};

const VALIDITY: u64 = 60;

fn seeds() -> Vec<u64> {
    vec![0x7E1E_0001, 0x7E1E_0002, 0x7E1E_0003]
}

/// The three plan families of the dynamics batteries, sized for a fast
/// matrix (the sharded-equality battery covers the larger plans).
fn plan_families(topology: &Topology, seed: u64) -> Vec<(&'static str, ChurnPlan)> {
    let base = ChurnPlanConfig {
        seed,
        churn_actions: 12,
        initial_sensors: 6,
        ..ChurnPlanConfig::default()
    };
    vec![
        (
            "churn",
            ChurnPlan::seeded(topology, &base.clone()).with_teardown(),
        ),
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
            )
            .with_teardown(),
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
            )
            .with_teardown(),
        ),
    ]
}

/// Recording a run must be invisible to it: identical deliveries, traffic,
/// clock and step count, across every engine × family × seed — and the
/// recording itself must reconcile with the conservation counters.
#[test]
fn recording_changes_nothing_and_reconciles() {
    for seed in seeds() {
        let topology = builders::balanced(31, 2);
        let latency = LatencyModel::Uniform { hop: 2 };
        for (family, plan) in plan_families(&topology, seed) {
            for kind in EngineKind::ALL {
                let ctx = format!("seed {seed:#x} {kind}/{family}");
                let mut dark = kind
                    .builder(topology.clone())
                    .validity(VALIDITY)
                    .seed(42)
                    .latency(latency.clone())
                    .build();
                run_plan(dark.as_mut(), &plan);
                let recorder = Recorder::new();
                let mut lit = kind
                    .builder(topology.clone())
                    .validity(VALIDITY)
                    .seed(42)
                    .latency(latency.clone())
                    .sink(recorder.clone())
                    .build();
                run_plan(lit.as_mut(), &plan);
                assert_eq!(
                    lit.deliveries(),
                    dark.deliveries(),
                    "{ctx}: tracing changed the delivered log"
                );
                assert_eq!(
                    lit.stats(),
                    dark.stats(),
                    "{ctx}: tracing changed the traffic counters"
                );
                assert_eq!(lit.steps(), dark.steps(), "{ctx}: step count diverged");
                assert_eq!(lit.now(), dark.now(), "{ctx}: clock diverged");
                assert!(
                    leaks(lit.as_mut()).is_empty(),
                    "{ctx}: teardown leaked under tracing"
                );
                recorder
                    .reconcile(
                        lit.scheduled_total(),
                        lit.steps(),
                        lit.dropped_from_queue(),
                        lit.deliveries().complex_deliveries(),
                    )
                    .unwrap_or_else(|e| panic!("{ctx}: trace does not reconcile:\n{e}"));
                assert!(!recorder.is_empty(), "{ctx}: nothing recorded");
            }
        }
    }
}

/// One traced run shared by the exporter checks: FSF over a timed plan on
/// the 2-shard backend, so the trace has lifecycle events, shard rounds,
/// and engine spans all at once.
fn recorded_run() -> Recorder {
    let topology = builders::balanced(63, 2);
    let latency = LatencyModel::Uniform { hop: 2 };
    let plan = plan_families(&topology, 0x7E1E_0001).remove(1).1;
    let timed = plan.timed(&fsf::dynamics::TimedReplayConfig::drained(
        &topology, &latency,
    ));
    let recorder = Recorder::new();
    let mut engine = EngineKind::FilterSplitForward
        .builder(topology)
        .validity(VALIDITY)
        .seed(42)
        .latency(latency)
        .shards(2)
        .sink(recorder.clone())
        .build();
    run_plan_timed_traced(engine.as_mut(), &timed, &recorder);
    recorder
        .reconcile(
            engine.scheduled_total(),
            engine.steps(),
            engine.dropped_from_queue(),
            engine.deliveries().complex_deliveries(),
        )
        .expect("the sharded trace must reconcile");
    recorder
}

#[test]
fn jsonl_round_trip_is_lossless() {
    let recorder = recorded_run();
    let jsonl = recorder.to_jsonl();
    assert_eq!(jsonl.lines().count(), recorder.len());
    let rebuilt = Recorder::from_jsonl(&jsonl).expect("the export must parse back");
    assert_eq!(rebuilt.events(), recorder.events(), "events diverged");
    assert_eq!(rebuilt.counts(), recorder.counts(), "counters diverged");
    // and the rebuilt recorder re-exports byte-identically
    assert_eq!(rebuilt.to_jsonl(), jsonl);
}

#[test]
fn chrome_trace_export_validates_with_shards_as_tracks() {
    let recorder = recorded_run();
    let stats = fsf::telemetry::validate_chrome_trace(&recorder.to_chrome_trace())
        .expect("the Chrome trace must be well-formed");
    // two shards plus the engine-span track
    assert_eq!(stats.tracks, 3, "expected shard 0, shard 1 and the engine");
    assert!(stats.slices > 0, "no duration slices");
    assert!(stats.instants > 0, "no instant events");
    assert!(stats.metadata > 0, "no track-name metadata");
}

#[test]
fn top_summary_names_the_hot_spots() {
    let recorder = recorded_run();
    let top = recorder.top_summary(5);
    assert!(top.contains("hottest nodes"), "{top}");
    assert!(top.contains("hottest links"), "{top}");
    assert!(top.contains("hottest floods"), "{top}");
    assert!(top.contains("shard rounds"), "{top}");
}

#[test]
fn engine_spans_cover_the_control_plane_verbs() {
    let recorder = recorded_run();
    let ops: Vec<String> = recorder
        .events()
        .into_iter()
        .filter_map(|e| match e {
            TelemetryEvent::EngineOp { op, .. } => Some(op),
            _ => None,
        })
        .collect();
    // the crash-recover family must produce both halves of the fault arc,
    // plus the runner's per-action spans and the final drain
    for expected in ["crash", "recover", "publish", "drain"] {
        assert!(
            ops.iter().any(|o| o == expected),
            "no {expected:?} span in {ops:?}"
        );
    }
}
