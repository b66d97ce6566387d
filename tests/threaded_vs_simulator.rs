//! The live runtimes and the deterministic simulator must agree: same node
//! logic, same workload (replayed in lockstep), same traffic and deliveries.
//!
//! Two batteries live here:
//!
//! * the static checks — FSF and Naive on the threaded host, then every
//!   [`EngineKind`] under all three [`Deploy`] modes, on a static workload:
//!   the whole [`TrafficStats`] (per link, per kind) and the delivered units;
//! * the three-way battery — every [`EngineKind`] built through the
//!   [`EngineBuilder`] under all three [`Deploy`] modes (simulator,
//!   thread-per-node, async executor), replaying identical seeded churn /
//!   crash-recovery / mobility plans and asserting `DeliveryLog` equality.

use fsf::dynamics::{leaks, run_plan, ChurnAction, ChurnPlan, ChurnPlanConfig};
use fsf::network::{builders, DeliveryLog, TrafficStats};
use fsf::prelude::*;
use fsf::workload::{ScenarioConfig, Workload};

/// Replay the static workload through `kind` under `deploy` via the
/// [`Engine`] facade; returns the traffic and the delivered units.
fn run_static(w: &Workload, kind: EngineKind, deploy: Deploy) -> (TrafficStats, u64) {
    let mut engine = kind
        .builder(w.topology.clone())
        .validity(w.config.event_validity())
        .seed(42)
        .deploy(deploy)
        .build();
    for s in &w.sensors {
        engine.inject_sensor(s.node, s.advertisement());
        engine.flush();
    }
    for batch in &w.sub_batches {
        for (node, sub) in batch {
            engine.inject_subscription(*node, sub.clone());
            engine.flush();
        }
    }
    for rounds in &w.event_batches {
        for round in rounds {
            for (node, e) in round {
                engine.inject_event(*node, *e);
            }
            engine.flush();
        }
    }
    (
        engine.stats().clone(),
        engine.deliveries().total_event_units(),
    )
}

/// `kind` charges every link alike under each of `deploys` as on the
/// simulator, and delivers the same units. The complex-delivery count is
/// left out: on a static run the host's arrival order can change how many
/// complex events carry the same distinct units.
fn assert_static_alike(cfg: &ScenarioConfig, kind: EngineKind, deploys: &[Deploy]) {
    let w = Workload::generate(cfg);
    let (sim_stats, sim_units) = run_static(&w, kind, Deploy::Simulator);
    assert!(sim_units > 0, "{}/{kind}: delivered nothing", cfg.name);
    for &deploy in deploys {
        let (stats, units) = run_static(&w, kind, deploy);
        let ctx = format!("{}/{kind}/{deploy:?}", cfg.name);
        assert_eq!(stats, sim_stats, "{ctx}: traffic differs");
        assert_eq!(units, sim_units, "{ctx}: delivered units differ");
    }
}

#[test]
fn threaded_fsf_matches_simulator_exactly() {
    assert_static_alike(
        &ScenarioConfig::tiny(),
        EngineKind::FilterSplitForward,
        &[Deploy::Threaded],
    );
}

#[test]
fn threaded_naive_matches_simulator_exactly() {
    let mut cfg = ScenarioConfig::tiny();
    cfg.batches = 2;
    cfg.subs_per_batch = 5;
    assert_static_alike(&cfg, EngineKind::Naive, &[Deploy::Threaded]);
}

/// Every engine charges every link alike on both hosts as on the simulator.
#[test]
fn static_runs_charge_every_link_alike_on_every_deployment() {
    let mut small = ScenarioConfig::small_scale();
    small.batches = 1;
    small.rounds_per_batch = 10;
    for cfg in [ScenarioConfig::tiny(), small] {
        for kind in EngineKind::ALL {
            assert_static_alike(
                &cfg,
                kind,
                &[Deploy::Threaded, Deploy::Async { workers: 4 }],
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Three-way battery: simulator ≡ threaded ≡ async, per engine kind.
// ---------------------------------------------------------------------------

const VALIDITY: u64 = 60;

/// Built-in seed matrix; CI adds one more per job via `FSF_ASYNC_SEED`.
fn seeds() -> Vec<u64> {
    let mut seeds = vec![11, 23, 47];
    if let Ok(s) = std::env::var("FSF_ASYNC_SEED") {
        seeds.push(s.parse().expect("FSF_ASYNC_SEED must be a u64"));
    }
    seeds
}

/// Build one engine through the unified builder under the given deployment,
/// replay the plan (teardown included), and return its delivery log.
///
/// `run_plan` flushes after every action, so the live runtimes reach
/// quiescence between actions exactly where the simulator does — the replay
/// is lockstep by construction and the logs are directly comparable.
fn run_deployed(
    kind: EngineKind,
    topology: &Topology,
    plan: &ChurnPlan,
    deploy: Deploy,
    label: &str,
) -> DeliveryLog {
    let mut engine = kind
        .builder(topology.clone())
        .validity(VALIDITY)
        .seed(42)
        .deploy(deploy)
        .mailbox(8)
        .build();
    run_plan(engine.as_mut(), plan);
    engine.flush();
    if !matches!(deploy, Deploy::Simulator) {
        // The host ledger must reconcile at quiescence: everything scheduled
        // was either handled or accounted against a downed node.
        assert_eq!(
            engine.scheduled_total(),
            engine.steps() + engine.dropped_from_queue(),
            "{label}/{kind}/{deploy:?}: message conservation ledger does not reconcile"
        );
    }
    assert!(
        leaks(engine.as_mut()).is_empty(),
        "{label}/{kind}/{deploy:?}: teardown leaked state: {:?}",
        leaks(engine.as_mut())
    );
    engine.deliveries().clone()
}

/// Replay one plan through every engine kind under all three deployments and
/// assert the delivery logs are identical (`DeliveryLog` equality compares
/// delivered result sets and the delivery count, not latency samples).
fn assert_three_way(topology: &Topology, plan: &ChurnPlan, label: &str) {
    let full = plan.clone().with_teardown();
    let mut delivered_anything = false;
    for &kind in EngineKind::ALL.iter() {
        let sim = run_deployed(kind, topology, &full, Deploy::Simulator, label);
        let thr = run_deployed(kind, topology, &full, Deploy::Threaded, label);
        let asy = run_deployed(kind, topology, &full, Deploy::Async { workers: 4 }, label);
        assert_eq!(
            sim, thr,
            "{label}/{kind}: threaded deliveries diverge from the simulator"
        );
        assert_eq!(
            sim, asy,
            "{label}/{kind}: async deliveries diverge from the simulator"
        );
        delivered_anything |= sim.total_event_units() > 0;
    }
    assert!(
        delivered_anything,
        "{label}: the plan produced no deliveries"
    );
}

/// Plain churn: sensors up/down, subscribe/unsubscribe, steady publishes.
#[test]
fn three_way_equivalence_under_churn() {
    let topology = builders::balanced(31, 2);
    for seed in seeds() {
        let plan = ChurnPlan::seeded(
            &topology,
            &ChurnPlanConfig {
                seed,
                initial_sensors: 6,
                churn_actions: 14,
                events_per_action: 3,
                ..ChurnPlanConfig::default()
            },
        );
        assert_three_way(&topology, &plan, &format!("churn/seed{seed}"));
    }
}

/// Interior crashes with the recovery protocol: the re-grafted topology and
/// the recovery re-injections must leave all three runtimes in agreement.
#[test]
fn three_way_equivalence_under_crash_recovery() {
    let topology = builders::balanced(31, 2);
    for seed in seeds() {
        let plan = ChurnPlan::seeded(
            &topology,
            &ChurnPlanConfig {
                seed,
                initial_sensors: 6,
                churn_actions: 10,
                events_per_action: 3,
                with_crashes: true,
                crash_interior: true,
                min_crashes: 2,
                protected_nodes: vec![topology.median()],
                ..ChurnPlanConfig::default()
            },
        );
        let crashes = plan
            .actions
            .iter()
            .filter(|a| matches!(a, ChurnAction::Crash { .. }))
            .count();
        assert!(crashes >= 2, "crash plan for seed {seed} rolled no crashes");
        assert_three_way(&topology, &plan, &format!("crash/seed{seed}"));
    }
}

/// Sensor mobility: `Move` actions re-home advertisements mid-stream.
#[test]
fn three_way_equivalence_under_mobility() {
    let topology = builders::balanced(31, 2);
    for seed in seeds() {
        let plan = ChurnPlan::seeded(
            &topology,
            &ChurnPlanConfig {
                seed,
                initial_sensors: 6,
                churn_actions: 10,
                events_per_action: 3,
                with_moves: true,
                min_moves: 3,
                ..ChurnPlanConfig::default()
            },
        );
        let moves = plan
            .actions
            .iter()
            .filter(|a| matches!(a, ChurnAction::Move { .. }))
            .count();
        assert!(moves >= 3, "mobility plan for seed {seed} rolled no moves");
        assert_three_way(&topology, &plan, &format!("mobility/seed{seed}"));
    }
}
