//! Arrangement-rebuild property battery: every mutation that removes or
//! supersedes operators — `SensorDown` retraction, `Unsubscribe`, mobility
//! `Move` supersession, and crash-time `purge_crashed_origin` — must leave
//! each node's shared interval index *identical to one rebuilt from
//! scratch* over the operators the node still stores
//! (`arrangements_consistent()` compares canonical index entries against a
//! fresh rebuild).
//!
//! The battery replays seeded churn plans with crashes and moves enabled,
//! action by action, checking every live node's index after each step, on
//! all three node implementations (the PubSub family, multi-join, and the
//! centralized matcher).

use fsf::dynamics::apply_action;
use fsf::engines::{CentralProto, MjProto, PubSubProto, SimEngine};
use fsf::network::builders;
use fsf::prelude::*;

const VALIDITY: u64 = 60;

fn seeds() -> Vec<u64> {
    vec![0xA44A_0001, 0xA44A_0002, 0xA44A_0003]
}

/// A churn plan with every index-mutating action family enabled: sensor
/// departures, unsubscribes, interior crashes and sensor moves.
fn adversarial_plan(topology: &Topology, seed: u64) -> ChurnPlan {
    ChurnPlan::seeded(
        topology,
        &ChurnPlanConfig {
            seed,
            churn_actions: 16,
            initial_sensors: 6,
            with_crashes: true,
            crash_interior: true,
            protected_nodes: vec![topology.median()],
            min_crashes: 1,
            with_moves: true,
            min_moves: 2,
            ..ChurnPlanConfig::default()
        },
    )
    .with_teardown()
}

/// Assert the plan genuinely exercises retraction, supersession and crash.
fn assert_adversarial(plan: &ChurnPlan) {
    let has = |f: fn(&ChurnAction) -> bool| plan.actions.iter().any(f);
    assert!(
        has(|a| matches!(a, ChurnAction::SensorDown { .. })),
        "plan never retracts a sensor"
    );
    assert!(
        has(|a| matches!(a, ChurnAction::Unsubscribe { .. })),
        "plan never unsubscribes"
    );
    assert!(
        has(|a| matches!(a, ChurnAction::Move { .. })),
        "plan never moves a sensor"
    );
    assert!(
        has(|a| matches!(a, ChurnAction::Crash { .. })),
        "plan never crashes a node"
    );
}

/// Replay `plan` on `engine`, flushing after every action and running
/// `check` over the quiesced network each time.
fn replay_checked<E: Engine>(
    engine: &mut E,
    plan: &ChurnPlan,
    mut check: impl FnMut(&E, &ChurnAction),
) {
    for action in &plan.actions {
        apply_action(engine, action);
        engine.flush();
        check(engine, action);
    }
}

#[test]
fn pubsub_family_indexes_match_a_fresh_rebuild_after_every_action() {
    for seed in seeds() {
        let topology = builders::balanced(31, 2);
        let plan = adversarial_plan(&topology, seed);
        assert_adversarial(&plan);
        for config in [
            PubSubConfig::naive(VALIDITY, 42),
            PubSubConfig::operator_placement(VALIDITY, 42),
            PubSubConfig::fsf(VALIDITY, 42),
        ] {
            let mut e = SimEngine::new(topology.clone(), PubSubProto::new("battery", config));
            replay_checked(&mut e, &plan, |e, action| {
                let sim = e.simulator();
                for id in 0..topology.len() as u32 {
                    let node = NodeId(id);
                    if sim.is_down(node) {
                        continue;
                    }
                    assert!(
                        sim.node(node).arrangements_consistent(),
                        "seed {seed:#x}: stale index at {node:?} after {action:?}"
                    );
                }
            });
        }
    }
}

#[test]
fn multijoin_indexes_match_a_fresh_rebuild_after_every_action() {
    for seed in seeds() {
        let topology = builders::balanced(31, 2);
        let plan = adversarial_plan(&topology, seed);
        let mut e = SimEngine::new(
            topology.clone(),
            MjProto::new(VALIDITY, MatchMode::default()),
        );
        replay_checked(&mut e, &plan, |e, action| {
            let sim = e.simulator();
            for id in 0..topology.len() as u32 {
                let node = NodeId(id);
                if sim.is_down(node) {
                    continue;
                }
                assert!(
                    sim.node(node).arrangements_consistent(),
                    "seed {seed:#x}: stale multi-join index at {node:?} after {action:?}"
                );
            }
        });
    }
}

#[test]
fn centralized_index_matches_a_fresh_rebuild_after_every_action() {
    for seed in seeds() {
        let topology = builders::balanced(31, 2);
        let plan = adversarial_plan(&topology, seed);
        let mut e = SimEngine::new(
            topology.clone(),
            CentralProto::new(&topology, VALIDITY, MatchMode::default()),
        );
        replay_checked(&mut e, &plan, |e, action| {
            let sim = e.simulator();
            for id in 0..topology.len() as u32 {
                let node = NodeId(id);
                if sim.is_down(node) {
                    continue;
                }
                assert!(
                    sim.node(node).arrangements_consistent(),
                    "seed {seed:#x}: stale centre index at {node:?} after {action:?}"
                );
            }
        });
    }
}
