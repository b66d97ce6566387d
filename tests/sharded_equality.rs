//! Sharded-equality battery: the conservative-parallel backend against the
//! single-heap oracle, event-for-event.
//!
//! Every engine replays seeded churn / crash-recovery / mobility plans —
//! flushed and timed, zero and nonzero latency — once on the single-queue
//! simulator and once per multi-shard configuration. The delivered
//! [`fsf::network::DeliveryLog`]s must come out identical: shard count is
//! a performance knob, never a semantics knob. Every run is also checked
//! against the message-conservation invariant
//! `scheduled_total == steps + dropped_from_queue + queue_depth`.
//!
//! CI runs this suite under a seed matrix: `FSF_SHARD_SEED=<n>` adds a
//! seed on top of the built-in ones.

use fsf::dynamics::{
    leaks, run_plan, run_plan_timed, ChurnPlan, ChurnPlanConfig, PartitionPlanConfig,
    TimedReplayConfig,
};
use fsf::network::{builders, LatencyModel, Topology};
use fsf::prelude::*;

const VALIDITY: u64 = 60;
const SHARD_SWEEP: [usize; 2] = [2, 4];

fn seeds() -> Vec<u64> {
    let mut seeds = vec![0x5AAD_0001, 0x5AAD_0002, 0x5AAD_0003];
    if let Ok(s) = std::env::var("FSF_SHARD_SEED") {
        seeds.push(s.parse().expect("FSF_SHARD_SEED must be a u64"));
    }
    seeds
}

/// The three plan families of the dynamics batteries: plain churn,
/// interior crash + recovery, and id-reusing sensor mobility — all with a
/// full teardown so the leak check stays meaningful.
fn plan_families(topology: &Topology, seed: u64) -> Vec<(&'static str, ChurnPlan)> {
    let base = ChurnPlanConfig {
        seed,
        churn_actions: 25,
        initial_sensors: 8,
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
                    min_crashes: 2,
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

/// Per-link weights drawn from `seed`: about a third of the links cost 3
/// ticks, the rest 1, so hop counts × `min_hop()` under-estimate the real
/// distances the lookahead bound has to stay below.
fn weighted(topology: &Topology, seed: u64) -> LatencyModel {
    let mut links = Vec::new();
    for a in topology.nodes() {
        for &b in topology.neighbors(a) {
            let mut x = seed ^ (u64::from(a.0) << 32 | u64::from(b.0));
            // splitmix64's finaliser: a seeded, well-spread draw per link
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            if a < b && (x ^ (x >> 31)).is_multiple_of(3) {
                links.push((a, b, 3));
            }
        }
    }
    LatencyModel::per_link(1, links)
}

fn assert_conserved(e: &dyn Engine, ctx: &str) {
    assert_eq!(
        e.scheduled_total(),
        e.steps() + e.dropped_from_queue() + e.queue_depth() as u64,
        "{ctx}: conservation broke (scheduled {} != steps {} + dropped {} + queued {})",
        e.scheduled_total(),
        e.steps(),
        e.dropped_from_queue(),
        e.queue_depth(),
    );
}

/// Flushed replays (run-to-quiescence after every action) across both
/// latency regimes. Zero latency exercises the coalesced fallback — no
/// lookahead, one effective shard — and must still be a transparent no-op.
#[test]
fn sharded_backends_match_the_oracle_on_flushed_replays() {
    for seed in seeds() {
        let topology = builders::balanced(63, 2);
        for latency in [
            LatencyModel::Zero,
            LatencyModel::Uniform { hop: 2 },
            weighted(&topology, seed),
        ] {
            for (family, plan) in plan_families(&topology, seed) {
                for kind in EngineKind::ALL {
                    let mut oracle = kind
                        .builder(topology.clone())
                        .validity(VALIDITY)
                        .seed(42)
                        .latency(latency.clone())
                        .build();
                    run_plan(oracle.as_mut(), &plan);
                    assert_conserved(oracle.as_ref(), &format!("{kind}/{family}/oracle"));
                    for shards in SHARD_SWEEP {
                        let ctx =
                            format!("seed {seed:#x} {kind}/{family}/{latency:?}/{shards} shards");
                        let mut e = kind
                            .builder(topology.clone())
                            .validity(VALIDITY)
                            .seed(42)
                            .latency(latency.clone())
                            .shards(shards)
                            .build();
                        run_plan(e.as_mut(), &plan);
                        assert_eq!(
                            e.deliveries(),
                            oracle.deliveries(),
                            "{ctx}: delivered log diverged from the single-shard oracle"
                        );
                        // traffic equality is deterministic-engine-only: the
                        // set filter's per-node RNG draws depend on same-tick
                        // arrival order, which the cross-shard merge may
                        // permute inside one tick (delivered results are
                        // order-insensitive; coverage decisions are not)
                        if kind != EngineKind::FilterSplitForward {
                            assert_eq!(e.steps(), oracle.steps(), "{ctx}: step count diverged");
                            assert_eq!(e.now(), oracle.now(), "{ctx}: clock diverged");
                            assert_eq!(e.stats(), oracle.stats(), "{ctx}: traffic diverged");
                        }
                        assert_eq!(
                            e.deliveries().latency_samples().len(),
                            oracle.deliveries().latency_samples().len(),
                            "{ctx}: latency samples diverged"
                        );
                        assert_conserved(e.as_ref(), &ctx);
                        assert_eq!(e.queue_depth(), 0, "{ctx}: not quiescent");
                        assert!(
                            leaks(e.as_mut()).is_empty(),
                            "{ctx}: teardown leaked: {:?}",
                            leaks(e.as_mut())
                        );
                    }
                }
            }
        }
    }
}

/// Timed replays: actions fire on the virtual clock with per-hop latency,
/// floods genuinely propagate tick by tick, crashes purge in-flight
/// messages — the regime the conservative lookahead exists for.
#[test]
fn sharded_backends_match_the_oracle_on_timed_replays() {
    for seed in seeds() {
        let topology = builders::balanced(63, 2);
        for (regime, latency) in [
            ("timed", LatencyModel::Uniform { hop: 1 }),
            ("timed-weighted", weighted(&topology, seed)),
        ] {
            for (family, plan) in plan_families(&topology, seed) {
                let timed = plan.timed(&TimedReplayConfig::drained(&topology, &latency));
                for kind in EngineKind::ALL {
                    let mut oracle = kind
                        .builder(topology.clone())
                        .validity(VALIDITY)
                        .seed(42)
                        .latency(latency.clone())
                        .build();
                    run_plan_timed(oracle.as_mut(), &timed);
                    for shards in SHARD_SWEEP {
                        let ctx =
                            format!("seed {seed:#x} {kind}/{family}/{regime}/{shards} shards");
                        let mut e = kind
                            .builder(topology.clone())
                            .validity(VALIDITY)
                            .seed(42)
                            .latency(latency.clone())
                            .shards(shards)
                            .build();
                        let end = run_plan_timed(e.as_mut(), &timed);
                        assert!(end >= timed.horizon(), "{ctx}: clock stalled");
                        assert_eq!(
                            e.deliveries(),
                            oracle.deliveries(),
                            "{ctx}: delivered log diverged from the single-shard oracle"
                        );
                        // see the flushed battery: traffic equality holds for
                        // the deterministic engines; FSF's filter draws are
                        // same-tick-order-sensitive
                        if kind != EngineKind::FilterSplitForward {
                            assert_eq!(e.steps(), oracle.steps(), "{ctx}: step count diverged");
                            assert_eq!(e.stats(), oracle.stats(), "{ctx}: traffic diverged");
                        }
                        assert_eq!(
                            e.deliveries().latency_samples().len(),
                            oracle.deliveries().latency_samples().len(),
                            "{ctx}: latency samples diverged"
                        );
                        assert_conserved(e.as_ref(), &ctx);
                        assert_eq!(e.queue_depth(), 0, "{ctx}: not quiescent");
                    }
                }
            }
        }
    }
}

/// Telemetry self-verification across the same seed matrix: a recorded
/// replay's trace must re-derive the conservation ledger exactly —
/// `scheduled == scheduled_total`, `handled == steps`,
/// `dropped + purged == dropped_from_queue`, observed deliveries ==
/// `DeliveryLog` total — on both the single-heap oracle and the sharded
/// backends.
#[test]
fn recorded_traces_reconcile_across_the_seed_matrix() {
    for seed in seeds() {
        let topology = builders::balanced(63, 2);
        let latency = LatencyModel::Uniform { hop: 1 };
        for (family, plan) in plan_families(&topology, seed) {
            let timed = plan.timed(&TimedReplayConfig::drained(&topology, &latency));
            for kind in EngineKind::ALL {
                for shards in [1usize, 2, 4] {
                    let ctx = format!("seed {seed:#x} {kind}/{family}/{shards} shards");
                    let recorder = fsf::telemetry::Recorder::new();
                    let mut e = kind
                        .builder(topology.clone())
                        .validity(VALIDITY)
                        .seed(42)
                        .latency(latency.clone())
                        .shards(shards)
                        .sink(recorder.clone())
                        .build();
                    run_plan_timed(e.as_mut(), &timed);
                    assert_conserved(e.as_ref(), &ctx);
                    recorder
                        .reconcile(
                            e.scheduled_total(),
                            e.steps(),
                            e.dropped_from_queue(),
                            e.deliveries().complex_deliveries(),
                        )
                        .unwrap_or_else(|err| panic!("{ctx}: trace does not reconcile:\n{err}"));
                }
            }
        }
    }
}

/// `run_until` at the exact boundary of a scheduled delivery, across shard
/// counts at the engine level: the message due *at* `t` is delivered, the
/// one due after stays queued, and the conservation counters account for
/// the split — the satellite check of the partial-advancement contract.
#[test]
fn run_until_boundary_and_conservation_hold_across_shard_counts() {
    for shards in [1usize, 2, 4] {
        let topology = builders::balanced(63, 2);
        let mut e = EngineKind::Naive
            .builder(topology)
            .validity(VALIDITY)
            .seed(42)
            .latency(LatencyModel::Uniform { hop: 2 })
            .shards(shards)
            .build();
        // sensor on one deep leaf, subscriber on another: the forward path
        // crosses the root, so with hop = 2 deliveries land on even ticks
        e.inject_sensor(
            NodeId(35),
            Advertisement {
                sensor: SensorId(1),
                attr: AttrId(0),
                location: Point::new(0.0, 0.0),
            },
        );
        // stop exactly on the first hop's arrival tick: the advertisement
        // has reached the leaf's neighbor but gone no further
        let handled = e.run_until(2);
        assert!(handled > 0, "{shards} shards: nothing arrived at t=2");
        assert_eq!(e.now(), 2, "{shards} shards");
        assert!(e.queue_depth() > 0, "{shards} shards: flood finished early");
        assert_conserved(e.as_ref(), &format!("{shards} shards mid-flood"));
        // the rest of the flood drains to quiescence
        e.flush();
        assert_eq!(e.queue_depth(), 0, "{shards} shards");
        assert_conserved(e.as_ref(), &format!("{shards} shards at quiescence"));
        assert_eq!(
            e.scheduled_total(),
            e.steps(),
            "{shards} shards: at quiescence with no crashes every scheduled \
             message was delivered"
        );
    }
}

/// The drop side of the ledger, non-vacuously: a crash plan whose purge
/// demonstrably discards corpse-bound traffic and a partition plan whose
/// cut demonstrably kills messages at the radio must both reconcile
/// against the recorded trace — `dropped_downed + dropped_severed +
/// purged == dropped_from_queue`, term by term, on the single heap and on
/// every sharded backend. A purge the recorder never saw (or a severed
/// drop booked as a purge) fails here even though the engine's own
/// conservation sum still balances.
#[test]
fn crash_purges_and_severed_drops_reconcile_on_sharded_backends() {
    let topology = builders::balanced(63, 2);
    let latency = LatencyModel::Uniform { hop: 1 };
    let crash_plan = plan_families(&topology, 0x5AAD_0001)
        .into_iter()
        .find(|(family, _)| *family == "crash-recover")
        .expect("crash family")
        .1;
    let partition_plan = ChurnPlan::seeded_partition(
        &topology,
        &PartitionPlanConfig {
            seed: 0x5AAD_0001,
            ..PartitionPlanConfig::default()
        },
    )
    .with_teardown();
    for (family, plan, severed) in [
        ("crash-recover", &crash_plan, false),
        ("partition", &partition_plan, true),
    ] {
        let timed = plan.timed(&TimedReplayConfig::drained(&topology, &latency));
        let mut family_drops = 0u64;
        for kind in EngineKind::ALL {
            for (shards, heartbeat) in [1usize, 2, 4]
                .into_iter()
                .flat_map(|shards| [(shards, false), (shards, true)])
            {
                let ctx = format!("{kind}/{family}/{shards} shards/heartbeat {heartbeat}");
                let recorder = fsf::telemetry::Recorder::new();
                let mut builder = kind
                    .builder(topology.clone())
                    .validity(VALIDITY)
                    .seed(42)
                    .latency(latency.clone())
                    .shards(shards)
                    .sink(recorder.clone());
                if heartbeat {
                    // pings and pongs recorded from the shard workers, the
                    // ones that die at the cut and at corpses included; a
                    // beat every 50 ticks over the plans' ~2 000-tick
                    // timelines keeps the row to a few seconds in debug
                    builder = builder.heartbeat(50, 125);
                }
                let mut e = builder.build();
                run_plan_timed(e.as_mut(), &timed);
                if severed {
                    assert!(
                        e.dropped_severed() > 0,
                        "{ctx}: the cut carried traffic anyway"
                    );
                } else {
                    assert_eq!(e.dropped_severed(), 0, "{ctx}: no link was severed");
                }
                family_drops += e.dropped_from_queue();
                assert_conserved(e.as_ref(), &ctx);
                recorder
                    .reconcile(
                        e.scheduled_total(),
                        e.steps(),
                        e.dropped_from_queue(),
                        e.deliveries().complex_deliveries(),
                    )
                    .unwrap_or_else(|err| panic!("{ctx}: drop ledger does not reconcile:\n{err}"));
            }
        }
        assert!(
            family_drops > 0,
            "{family}: nothing was dropped anywhere — the reconcile is vacuous"
        );
    }
}
