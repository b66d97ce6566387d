//! Partition battery: sever a tree link, keep serving both halves, heal,
//! and reconcile — for **all five engines**, against the reachable-twin
//! oracle, across seeds, backends, and latency regimes.
//!
//! The oracle is [`ChurnPlan::connected_twin`] (the same plan with the
//! link never cut) restricted by [`ChurnPlan::partition_oracle`]:
//! subscriptions that stayed reachable from every sensor they reference
//! must receive *exactly* the twin's deliveries, and the cut-off ones may
//! lose only split-window readings — the heal reconciliation (tombstones
//! first, then generation-tagged repairs, then forced re-splits) must
//! restore post-heal delivery with no duplicates and no residue. Every
//! run is also checked against the message-conservation invariant with
//! the severed-drop term:
//! `scheduled_total == steps + dropped_from_queue + queue_depth`, with
//! `dropped_severed` a sub-account of the queue drops.

use fsf::dynamics::{
    leaks, run_plan, run_plan_checked, ChurnAction, ChurnPlan, PartitionPlanConfig,
};
use fsf::network::{builders, difference, LatencyModel};
use fsf::prelude::*;

const VALIDITY: u64 = 60;

fn seeds() -> Vec<u64> {
    let mut seeds = vec![0x9A97_0001, 0x9A97_0002, 0x9A97_0003];
    if let Ok(s) = std::env::var("FSF_PARTITION_SEED") {
        seeds.push(s.parse().expect("FSF_PARTITION_SEED must be a u64"));
    }
    seeds
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
    assert!(
        e.dropped_severed() <= e.dropped_from_queue(),
        "{ctx}: severed drops ({}) exceed total queue drops ({})",
        e.dropped_severed(),
        e.dropped_from_queue(),
    );
}

/// The acceptance run: ≥3 seeds × zero/nonzero latency × five engines.
/// Each engine's partitioned run is judged against its own never-severed
/// twin through the reachability oracle.
#[test]
fn partitioned_engines_serve_reachable_subs_and_reconcile_on_heal() {
    for seed in seeds() {
        let topology = builders::balanced(31, 2);
        let base = ChurnPlan::seeded_partition(
            &topology,
            &PartitionPlanConfig {
                seed,
                ..PartitionPlanConfig::default()
            },
        );
        let plan = base.clone().with_teardown();
        let twin_plan = base.connected_twin().with_teardown();
        for latency in [LatencyModel::Zero, LatencyModel::Uniform { hop: 1 }] {
            for kind in EngineKind::ALL {
                let ctx = format!("seed {seed:#x} {kind}/{latency:?}");
                let via = (kind == EngineKind::Centralized).then(|| topology.median());
                let oracle = base.partition_oracle_via(&topology, via);
                assert!(
                    !oracle.severed_subs.is_empty() && !oracle.connected_subs.is_empty(),
                    "{ctx}: the generator must aim subscriptions at both sides of the cut"
                );
                let mut p = kind
                    .builder(topology.clone())
                    .validity(VALIDITY)
                    .seed(42)
                    .latency(latency.clone())
                    .build();
                let checked = run_plan_checked(p.as_mut(), &topology, &plan);
                assert!(checked.points > 0, "{ctx}: no heal was checked");
                let mut t = kind
                    .builder(topology.clone())
                    .validity(VALIDITY)
                    .seed(42)
                    .latency(latency.clone())
                    .build();
                run_plan(t.as_mut(), &twin_plan);
                assert_conserved(p.as_ref(), &ctx);
                assert!(
                    p.dropped_severed() > 0,
                    "{ctx}: the cut carried traffic anyway"
                );
                assert_eq!(
                    t.dropped_severed(),
                    0,
                    "{ctx}: the twin has no severed links to drop at"
                );
                // both halves kept serving what they could reach, exactly
                for &sub in &oracle.connected_subs {
                    assert_eq!(
                        p.deliveries().delivered(sub),
                        t.deliveries().delivered(sub),
                        "{ctx}: connected sub {sub:?} diverged from the twin"
                    );
                }
                // the cut-off subs lost only split-window cross-cut
                // readings; post-heal reconciliation restored the route
                for &sub in &oracle.severed_subs {
                    let got = p.deliveries().delivered(sub);
                    let want = t.deliveries().delivered(sub);
                    assert!(
                        difference(got, want).next().is_none(),
                        "{ctx}: severed sub {sub:?} delivered events the twin never saw"
                    );
                    for missing in difference(want, got) {
                        assert!(
                            oracle.split_events.contains(missing),
                            "{ctx}: severed sub {sub:?} lost {missing:?}, which was \
                             published while the network was whole"
                        );
                    }
                }
                assert!(
                    leaks(p.as_mut()).is_empty(),
                    "{ctx}: teardown leaked after the heal merge: {:?}",
                    leaks(p.as_mut())
                );
            }
        }
    }
}

/// The sever/heal protocol is backend-independent: the sharded simulator
/// must produce the identical delivery log and severed-drop count as the
/// single-heap oracle over a partition plan.
#[test]
fn sharded_backends_agree_with_the_oracle_across_a_partition() {
    let topology = builders::balanced(63, 2);
    for seed in seeds() {
        let base = ChurnPlan::seeded_partition(
            &topology,
            &PartitionPlanConfig {
                seed,
                ..PartitionPlanConfig::default()
            },
        );
        let plan = base.with_teardown();
        for latency in [LatencyModel::Zero, LatencyModel::Uniform { hop: 2 }] {
            for kind in EngineKind::ALL {
                let mut oracle = kind
                    .builder(topology.clone())
                    .validity(VALIDITY)
                    .seed(42)
                    .latency(latency.clone())
                    .build();
                run_plan(oracle.as_mut(), &plan);
                for shards in [2, 4] {
                    let ctx = format!("seed {seed:#x} {kind}/{latency:?}/{shards} shards");
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
                    assert_eq!(
                        e.dropped_severed(),
                        oracle.dropped_severed(),
                        "{ctx}: severed-drop ledger diverged"
                    );
                    assert_conserved(e.as_ref(), &ctx);
                }
            }
        }
    }
}

/// The async node runtime speaks the same sever/heal protocol: a partition
/// plan replayed on the free-running host must deliver the simulator's
/// exact log (per-action flushes make the replay lockstep).
#[test]
fn async_runtime_agrees_with_the_simulator_across_a_partition() {
    let topology = builders::balanced(31, 2);
    for seed in seeds() {
        let plan = ChurnPlan::seeded_partition(
            &topology,
            &PartitionPlanConfig {
                seed,
                ..PartitionPlanConfig::default()
            },
        )
        .with_teardown();
        for kind in EngineKind::ALL {
            let ctx = format!("seed {seed:#x} {kind}/async");
            let mut sim = kind
                .builder(topology.clone())
                .validity(VALIDITY)
                .seed(42)
                .build();
            run_plan(sim.as_mut(), &plan);
            let mut asy = kind
                .builder(topology.clone())
                .validity(VALIDITY)
                .seed(42)
                .deploy(Deploy::Async { workers: 4 })
                .mailbox(8)
                .build();
            run_plan_checked(asy.as_mut(), &topology, &plan);
            assert_eq!(
                asy.deliveries(),
                sim.deliveries(),
                "{ctx}: async deliveries diverge from the simulator"
            );
            assert!(
                asy.dropped_severed() > 0,
                "{ctx}: the host radio must drop at the cut"
            );
            assert!(
                leaks(asy.as_mut()).is_empty(),
                "{ctx}: teardown leaked: {:?}",
                leaks(asy.as_mut())
            );
        }
    }
}

/// Generation reconciliation across a heal, scripted: a sensor moves
/// (generation bump) and another departs (tombstone) *while the network
/// is partitioned*. On heal, the stale half must adopt the highest
/// generation and keep the tombstone — post-heal readings flow to the
/// cross-cut subscriber, the departed id stays dead, and teardown finds
/// no superseded-generation residue.
#[test]
fn heal_reconciles_moves_and_tombstones_made_during_the_split() {
    let topo = builders::line(6); // 0-1-2-3-4-5, cut at (2,3)
    let adv = |s: u32| Advertisement {
        sensor: SensorId(s),
        attr: AttrId(0),
        location: Point::new(f64::from(s), 0.0),
    };
    let ev = |id: u64, s: u32, t: u64| Event {
        id: EventId(id),
        sensor: SensorId(s),
        attr: AttrId(0),
        location: Point::new(f64::from(s), 0.0),
        value: 5.0,
        timestamp: Timestamp(t),
    };
    let sub = |id: u64, s: u32| {
        Subscription::identified(SubId(id), [(SensorId(s), ValueRange::new(0.0, 10.0))], 30)
            .unwrap()
    };
    let plan = ChurnPlan::scripted(vec![
        ChurnAction::SensorUp {
            node: NodeId(0),
            adv: adv(1),
        },
        ChurnAction::SensorUp {
            node: NodeId(5),
            adv: adv(2),
        },
        // X on the far side of the cut from sensor 1, Y on its own side
        ChurnAction::Subscribe {
            node: NodeId(4),
            sub: sub(1, 1),
        },
        ChurnAction::Subscribe {
            node: NodeId(1),
            sub: sub(2, 1),
        },
        ChurnAction::Publish {
            node: NodeId(0),
            event: ev(100, 1, 1_000),
        },
        ChurnAction::Sever {
            a: NodeId(2),
            b: NodeId(3),
        },
        // split-window churn the far half cannot see: a reading, a
        // generation-bumping move, a reading from the new host, and the
        // other sensor's retraction (tombstone) on the far side
        ChurnAction::Publish {
            node: NodeId(0),
            event: ev(101, 1, 1_040),
        },
        ChurnAction::Move {
            node: NodeId(1),
            from: NodeId(0),
            adv: adv(1),
        },
        ChurnAction::Publish {
            node: NodeId(1),
            event: ev(102, 1, 1_080),
        },
        ChurnAction::SensorDown {
            node: NodeId(5),
            sensor: SensorId(2),
        },
        ChurnAction::Heal {
            a: NodeId(2),
            b: NodeId(3),
        },
        // post-heal: the reconciled route must carry the moved sensor's
        // readings all the way across the former cut
        ChurnAction::Publish {
            node: NodeId(1),
            event: ev(103, 1, 1_120),
        },
    ]);
    for kind in EngineKind::ALL {
        let mut e = kind.build(topo.clone(), VALIDITY, 42);
        run_plan_checked(e.as_mut(), &topo, &plan);
        let y = e.deliveries().delivered(SubId(2)).to_vec();
        for id in [100, 101, 102, 103] {
            assert!(
                y.contains(&EventId(id)),
                "{kind}: same-side sub lost event {id} (delivered: {y:?})"
            );
        }
        let x = e.deliveries().delivered(SubId(1)).to_vec();
        assert!(x.contains(&EventId(100)), "{kind}: pre-split delivery lost");
        assert!(
            x.contains(&EventId(103)),
            "{kind}: post-heal reading did not cross the healed link — the \
             move's generation was not reconciled (delivered: {x:?})"
        );
        assert!(
            !x.contains(&EventId(101)) && !x.contains(&EventId(102)),
            "{kind}: split-window readings crossed a severed link (delivered: {x:?})"
        );
        // the tombstone survived the merge and teardown leaves nothing
        let tail = ChurnPlan::scripted(plan.teardown());
        run_plan(e.as_mut(), &tail);
        assert!(
            leaks(e.as_mut()).is_empty(),
            "{kind}: superseded-generation or tombstone residue: {:?}",
            leaks(e.as_mut())
        );
    }
}
