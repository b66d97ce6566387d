//! Churn rollout: a long-lived deployment under dynamics and crashes.
//!
//! A 63-node tree boots a dozen sensors, then lives through a seeded churn
//! plan — users come and go, sensors join and depart, and *interior relay
//! nodes crash* — while readings keep flowing. Every crash is followed by
//! the recovery protocol (advertisement repairs across the regraft seam,
//! operator re-forwards),
//! so recall survives the outages. At the end the deployment is fully torn
//! down and every surviving node is checked for leaked state (operators,
//! events, advertisements, routes).
//!
//! ```console
//! cargo run --release --example churn_rollout
//! ```

use fsf::dynamics::{leaks, run_plan, ChurnAction, ChurnPlan, ChurnPlanConfig};
use fsf::prelude::*;

fn main() {
    let topology = fsf::network::builders::balanced(63, 2);
    let config = ChurnPlanConfig {
        seed: 0xC0FF_EE42,
        initial_sensors: 12,
        churn_actions: 60,
        events_per_action: 4,
        with_crashes: true,
        crash_interior: true,
        // the centralized baseline cannot lose its matching centre
        protected_nodes: vec![topology.median()],
        ..ChurnPlanConfig::default()
    };
    let plan = ChurnPlan::seeded(&topology, &config);
    let mut ups = 0usize;
    let mut downs = 0usize;
    let mut subs = 0usize;
    let mut unsubs = 0usize;
    let mut crashes = 0usize;
    let mut recoveries = 0usize;
    let mut moves = 0usize;
    let mut readings = 0usize;
    let mut severs = 0usize;
    let mut heals = 0usize;
    for a in &plan.actions {
        match a {
            ChurnAction::SensorUp { .. } => ups += 1,
            ChurnAction::SensorDown { .. } => downs += 1,
            ChurnAction::Subscribe { .. } => subs += 1,
            ChurnAction::Unsubscribe { .. } => unsubs += 1,
            ChurnAction::Crash { .. } => crashes += 1,
            ChurnAction::Recover => recoveries += 1,
            ChurnAction::Move { .. } => moves += 1,
            ChurnAction::Publish { .. } => readings += 1,
            ChurnAction::Sever { .. } => severs += 1,
            ChurnAction::Heal { .. } => heals += 1,
        }
    }
    println!("== churn rollout over a {}-node tree ==", topology.len());
    println!(
        "plan: {} sensor-ups, {} sensor-downs, {} subscribes, {} unsubscribes, \
         {} crashes (+{} recoveries), {} moves, {} severs (+{} heals), {} readings\n",
        ups, downs, subs, unsubs, crashes, recoveries, moves, severs, heals, readings
    );

    println!(
        "{:<34} {:>9} {:>10} {:>10} {:>8} {:>9}",
        "approach", "sub load", "event load", "delivered", "repairs", "teardown"
    );
    for kind in EngineKind::ALL {
        let mut engine = kind.builder(topology.clone()).validity(60).seed(42).build();
        // live phase
        run_plan(engine.as_mut(), &plan);
        let delivered = engine.deliveries().total_event_units();
        // decommission: retract everything that is still alive
        run_plan(engine.as_mut(), &ChurnPlan::scripted(plan.teardown()));
        let leaked = leaks(engine.as_mut());
        println!(
            "{:<34} {:>9} {:>10} {:>10} {:>8} {:>9}",
            kind.name(),
            engine.stats().sub_forwards(),
            engine.stats().event_units(),
            delivered,
            engine.recovery_stats().repair_msgs,
            if leaked.is_empty() { "clean" } else { "LEAKED" },
        );
        assert!(leaked.is_empty(), "{kind}: leaked {leaked:?}");
        assert_eq!(
            engine.recovery_stats().crashes as usize,
            crashes,
            "{kind}: crash count mismatch"
        );
    }
    println!("\nevery engine survived the same churn-and-crash history and tore down clean.");
}
