//! Deployed runtimes behind the unified builder.
//!
//! The paper ran one JVM per Xen VM; here the same Filter-Split-Forward
//! engine runs three ways through one [`EngineBuilder`] chain — on the
//! deterministic simulator, with one OS thread per node, and as async
//! tasks on the bounded-mailbox executor — replaying an identical workload
//! and checking all three agree on traffic and deliveries.
//!
//! Each event round is flooded before the flush, so injections genuinely
//! race on the live runtimes. Under racing injections the *delivered
//! results* are confluent (same per-subscription event sets, same unit
//! counts) but how results group into complex events is
//! interleaving-sensitive — so this example compares the delivered sets,
//! while the lockstep three-way battery in `tests/threaded_vs_simulator.rs`
//! (one injection in flight at a time) holds the full `DeliveryLog` equal.
//!
//! Run with: `cargo run --release --example threaded_deployment`

use fsf::network::DeliveryLog;
use fsf::prelude::*;
use fsf::workload::{ScenarioConfig, Workload};
use std::collections::BTreeMap;

/// The confluent view of a delivery log: per-subscription delivered sets.
fn delivered_sets(log: &DeliveryLog) -> BTreeMap<SubId, Vec<EventId>> {
    log.subs().map(|s| (s, log.delivered(s).to_vec())).collect()
}

fn replay(workload: &Workload, deploy: Deploy) -> (u64, u64, DeliveryLog) {
    let mut engine = EngineKind::FilterSplitForward
        .builder(workload.topology.clone())
        .validity(workload.config.event_validity())
        .seed(42)
        .deploy(deploy)
        .build();
    for s in &workload.sensors {
        engine.inject_sensor(s.node, s.advertisement());
        engine.flush();
    }
    for batch in &workload.sub_batches {
        for (node, sub) in batch {
            engine.inject_subscription(*node, sub.clone());
            engine.flush();
        }
    }
    for rounds in &workload.event_batches {
        for round in rounds {
            for (node, e) in round {
                engine.inject_event(*node, *e);
            }
            engine.flush();
        }
    }
    (
        engine.stats().sub_forwards(),
        engine.stats().event_units(),
        engine.deliveries().clone(),
    )
}

fn main() {
    let config = ScenarioConfig::tiny();
    let workload = Workload::generate(&config);
    println!(
        "deploying {} nodes three ways ({} sensors, {} subscriptions)…",
        workload.topology.len(),
        workload.sensors.len(),
        workload.total_subs()
    );

    let sim = replay(&workload, Deploy::Simulator);
    let thr = replay(&workload, Deploy::Threaded);
    let asy = replay(&workload, Deploy::Async { workers: 4 });

    println!("\n                       simulator        threads          async");
    println!(
        "subscription load   {:>12} {:>14} {:>14}",
        sim.0, thr.0, asy.0
    );
    println!(
        "event load          {:>12} {:>14} {:>14}",
        sim.1, thr.1, asy.1
    );
    println!(
        "delivered units     {:>12} {:>14} {:>14}",
        sim.2.total_event_units(),
        thr.2.total_event_units(),
        asy.2.total_event_units()
    );

    assert_eq!(sim.0, thr.0);
    assert_eq!(sim.1, thr.1);
    assert_eq!(sim.0, asy.0);
    assert_eq!(sim.1, asy.1);
    assert_eq!(
        delivered_sets(&sim.2),
        delivered_sets(&thr.2),
        "threaded deliveries diverge"
    );
    assert_eq!(
        delivered_sets(&sim.2),
        delivered_sets(&asy.2),
        "async deliveries diverge"
    );
    assert_eq!(sim.2.total_event_units(), thr.2.total_event_units());
    assert_eq!(sim.2.total_event_units(), asy.2.total_event_units());
    println!("\nall three deployments agree on traffic and deliveries ✓");
}
