//! The five named workloads. Each builder turns `(seed, size)` into a
//! [`Spec`]; the seed is the only source of randomness, and the program
//! under test only ever sees the generated steps.
//!
//! What the seed may change is deliberately narrow. A benchmark is accepted
//! on the spread of its metrics across seeds, so a seed must not change how
//! much work a run does: with everything drawn from the seed, ten seeds of
//! `steady_sim` spread 51 % in `events_per_s` and ten of `churn_mix` 33 % in
//! `msgs_per_delivered_unit` — the generator's variance, not the program's.
//! So the *structure* of each workload (topology, placement, subscriptions,
//! churn plan) is fixed by constants here, and the seed draws what averages
//! out over a run: reading values, replay order, which leaf of its slice a
//! station sits on.

use crate::script::{EngineCfg, Inject, Oracle, Spec, Step, Twin};
use fsf::dynamics::{ChurnAction, ChurnPlan, ChurnPlanConfig};
use fsf::engines::{Deploy, EngineKind, MatchMode};
use fsf::model::{
    Advertisement, AttrId, Event, EventId, Point, SensorId, SubId, Subscription, Timestamp,
    ValueRange,
};
use fsf::network::{builders, LatencyModel, NodeId};
use fsf::workload::{oracle, ScenarioConfig, Workload};
use std::time::Instant;

/// The workload names, in reporting order.
pub const NAMES: [&str; 5] = [
    "steady_sim",
    "steady_async",
    "match_heavy",
    "wide_sharded",
    "churn_mix",
];

/// Worker / shard threads: `min(4, nproc)`.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// How much of each workload one pass replays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Size {
    /// The measured size.
    Full,
    /// About a tenth, for `--quick` smoke runs (timings informational).
    Quick,
}

impl Size {
    fn pick(self, full: usize, quick: usize) -> usize {
        match self {
            Size::Full => full,
            Size::Quick => quick,
        }
    }
}

/// SplitMix64: the benchmark's own generator for the two hand-built
/// workloads (the other three seed the repo's generators).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

/// Seeds the probabilistic set filter (as `fsf_bench::ENGINE_SEED`).
const ENGINE_SEED: u64 = 42;

fn fsf_cfg(validity: u64, seed: u64) -> EngineCfg {
    EngineCfg {
        kind: EngineKind::FilterSplitForward,
        latency: LatencyModel::Zero,
        shards: 1,
        deploy: Deploy::Simulator,
        mode: MatchMode::Arrangement,
        validity,
        seed,
    }
}

/// Build the named workload.
pub fn build(name: &str, seed: u64, size: Size) -> Option<Spec> {
    Some(match name {
        "steady_sim" => steady("steady_sim", seed, size, false),
        "steady_async" => steady("steady_async", seed, size, true),
        "match_heavy" => match_heavy(seed, size),
        "wide_sharded" => wide_sharded(seed, size),
        "churn_mix" => churn_mix(seed, size),
        _ => return None,
    })
}

/// `steady_sim` / `steady_async`: the paper's medium-scale setting (100
/// nodes, 50 sensors, 600 standing abstract 5-attribute subscriptions,
/// δt = 30) replayed with the §VI-A protocol. The async variant sees
/// bit-identical inputs on the async host. The deployment and its
/// subscriptions are `medium_scale()`'s own; the seed decides the order in
/// which its pool of measurement rounds is replayed.
fn steady(name: &'static str, seed: u64, size: Size, on_host: bool) -> Spec {
    let mut config = ScenarioConfig::medium_scale();
    config.name = name.into();
    config.batches = 1;
    config.subs_per_batch = size.pick(600, 150);
    config.rounds_per_batch = size.pick(100, 20);
    let mut w = Workload::generate(&config);
    let mut order: Vec<usize> = (0..config.rounds_per_batch).collect();
    Rng(seed).shuffle(&mut order);
    let pool = std::mem::take(&mut w.event_batches[0]);
    w.event_batches[0] = order
        .iter()
        .enumerate()
        .map(|(slot, &from)| {
            // round `from` replayed in time slot `slot`
            let (to_t, from_t) = (
                slot as u64 * config.reading_interval,
                from as u64 * config.reading_interval,
            );
            pool[from]
                .iter()
                .map(|&(node, e)| {
                    let timestamp = Timestamp(e.timestamp.0 + to_t - from_t);
                    (node, Event { timestamp, ..e })
                })
                .collect()
        })
        .collect();

    let started = Instant::now();
    let expected_units = oracle::expected_units_per_batch(&w)[0];
    let oracle = Oracle {
        expected_units,
        seconds: started.elapsed().as_secs_f64(),
    };

    let mut setup = vec![Step {
        injects: w
            .sensors
            .iter()
            .map(|s| {
                Inject::Action(ChurnAction::SensorUp {
                    node: s.node,
                    adv: s.advertisement(),
                })
            })
            .collect(),
    }];
    setup.extend(w.sub_batches[0].iter().map(|(node, sub)| {
        Step::action(ChurnAction::Subscribe {
            node: *node,
            sub: sub.clone(),
        })
    }));
    let timed: Vec<Step> = w.event_batches[0].iter().map(|r| Step::round(r)).collect();

    let sim = fsf_cfg(config.event_validity(), ENGINE_SEED);
    let (cfg, exact_twin) = if on_host {
        let host = EngineCfg {
            deploy: Deploy::Async { workers: threads() },
            latency: LatencyModel::Uniform { hop: 1 },
            ..sim.clone()
        };
        let twin = Twin {
            what: "steady_sim (simulator deployment, same inputs)",
            cfg: sim,
        };
        (host, twin)
    } else {
        let twin = Twin {
            what: "MatchMode::LinearScan twin",
            cfg: EngineCfg {
                mode: MatchMode::LinearScan,
                ..sim.clone()
            },
        };
        (sim, twin)
    };
    Spec {
        name,
        topology: w.topology,
        cfg,
        setup,
        check_prefix: timed.len(),
        timed,
        exact_twin,
        oracle: Some(oracle),
        plan_gen_s: 0.0,
        min_recall: 0.99,
        expect_clean: false,
    }
}

/// `match_heavy`: a 3-node line, one sensor, thousands of standing
/// single-sensor operators two hops away, readings in 16-event delta
/// frames — the `ext7` shape, run long. No correlation join, no network to
/// speak of: `RangeIndex` stab and delivery dominate. The operator set is
/// fixed; the seed draws the readings.
fn match_heavy(seed: u64, size: Size) -> Spec {
    const FRAME: usize = 16;
    let mut rng = Rng(0x0E77);
    let (ops, frames) = (size.pick(10_000, 1_000), size.pick(6_000, 200));
    let adv = Advertisement {
        sensor: SensorId(1),
        attr: AttrId(0),
        location: Point::new(0.0, 0.0),
    };
    let mut setup = vec![Step::action(ChurnAction::SensorUp {
        node: NodeId(0),
        adv,
    })];
    setup.extend((0..ops).map(|i| {
        let lo = rng.unit() * 99.8;
        let sub = Subscription::identified(
            SubId(i as u64 + 1),
            [(SensorId(1), ValueRange::new(lo, lo + 0.2))],
            4,
        )
        .expect("single-sensor subscription");
        Step::action(ChurnAction::Subscribe {
            node: NodeId(2),
            sub,
        })
    }));
    let mut rng = Rng(seed);
    let timed: Vec<Step> = (0..frames)
        .map(|f| {
            let events = (0..FRAME)
                .map(|k| {
                    let i = (f * FRAME + k) as u64;
                    Event {
                        id: EventId(i + 1),
                        sensor: adv.sensor,
                        attr: adv.attr,
                        location: adv.location,
                        value: rng.unit() * 100.0,
                        timestamp: Timestamp(1_000 + i),
                    }
                })
                .collect();
            Step::frame(NodeId(0), events)
        })
        .collect();
    let cfg = fsf_cfg(64, ENGINE_SEED);
    Spec {
        name: "match_heavy",
        topology: builders::line(3),
        exact_twin: Twin {
            what: "MatchMode::LinearScan twin on a prefix",
            cfg: EngineCfg {
                mode: MatchMode::LinearScan,
                ..cfg.clone()
            },
        },
        cfg,
        setup,
        check_prefix: size.pick(32, 16),
        timed,
        oracle: None,
        plan_gen_s: 0.0,
        min_recall: 1.0,
        expect_clean: false,
    }
}

/// `wide_sharded`: a deep binary tree cut into `T` shards, 64 leaf sensors
/// each subscribed to from the diametrically opposite leaf (every path
/// crosses the root and the shard cut). A round is 64 readings; every 8th
/// round one sensor moves to its sibling leaf — a whole-tree flood. Sparse
/// rounds and dense floods on one scheduler.
fn wide_sharded(seed: u64, size: Size) -> Spec {
    const STATIONS: usize = 64;
    let mut rng = Rng(seed);
    let nodes = size.pick((1 << 15) - 1, (1 << 12) - 1);
    let rounds = size.pick(320, 24);
    let leaves = nodes.div_ceil(2);
    let first_leaf = nodes / 2;
    let leaf = |index: usize| NodeId((first_leaf + index % leaves) as u32);

    // station i: a sensor on one leaf of its 1/64th slice, its subscriber
    // half the leaf layer away
    let slice = leaves / STATIONS;
    let mut host: Vec<usize> = (0..STATIONS)
        .map(|i| i * slice + (rng.next() as usize % slice))
        .collect();
    let adv = |i: usize| Advertisement {
        sensor: SensorId(i as u32 + 1),
        attr: AttrId((i % 5) as u16),
        location: Point::new(i as f64, 0.0),
    };
    let mut setup: Vec<Step> = (0..STATIONS)
        .map(|i| {
            Step::action(ChurnAction::SensorUp {
                node: leaf(host[i]),
                adv: adv(i),
            })
        })
        .collect();
    setup.extend((0..STATIONS).map(|i| {
        let lo = rng.unit() * 40.0;
        let sub = Subscription::identified(
            SubId(i as u64 + 1),
            [(adv(i).sensor, ValueRange::new(lo, lo + 50.0))],
            30,
        )
        .expect("single-sensor subscription");
        Step::action(ChurnAction::Subscribe {
            node: leaf(host[i] + leaves / 2),
            sub,
        })
    }));

    let mut timed = Vec::with_capacity(rounds + rounds / 8);
    let mut next_event = 0u64;
    for r in 0..rounds {
        if r % 8 == 7 {
            let i = (r / 8) % STATIONS;
            let from = leaf(host[i]);
            host[i] ^= 1; // the sibling leaf
            timed.push(Step::action(ChurnAction::Move {
                node: leaf(host[i]),
                from,
                adv: adv(i),
            }));
        }
        let readings: Vec<(NodeId, Event)> = (0..STATIONS)
            .map(|i| {
                next_event += 1;
                let a = adv(i);
                let event = Event {
                    id: EventId(next_event),
                    sensor: a.sensor,
                    attr: a.attr,
                    location: a.location,
                    value: rng.unit() * 100.0,
                    timestamp: Timestamp(1_000 + 100 * r as u64),
                };
                (leaf(host[i]), event)
            })
            .collect();
        timed.push(Step::round(&readings));
    }

    let cfg = EngineCfg {
        latency: LatencyModel::Uniform { hop: 2 },
        shards: threads(),
        ..fsf_cfg(60, ENGINE_SEED)
    };
    Spec {
        name: "wide_sharded",
        topology: builders::balanced(nodes, 2),
        exact_twin: Twin {
            what: "single-shard twin on a prefix",
            cfg: EngineCfg {
                shards: 1,
                ..cfg.clone()
            },
        },
        cfg,
        setup,
        check_prefix: 20,
        timed,
        oracle: None,
        plan_gen_s: 0.0,
        min_recall: 1.0,
        expect_clean: false,
    }
}

/// `churn_mix`: writes beside reads. A churn plan with moves and interior
/// crashes over a 511-node tree, four readings after every action, full
/// teardown at the end, every action flushed to quiescence. The plan is the
/// generator's default-seed plan; the seed draws the readings' values.
fn churn_mix(seed: u64, size: Size) -> Spec {
    let topology = builders::balanced(511, 2);
    let config = ChurnPlanConfig {
        initial_sensors: 24,
        churn_actions: size.pick(1_200, 150),
        events_per_action: 4,
        with_crashes: true,
        crash_interior: true,
        with_moves: true,
        ..ChurnPlanConfig::default()
    };
    let started = Instant::now();
    let mut plan = ChurnPlan::seeded(&topology, &config).with_teardown();
    let plan_gen_s = started.elapsed().as_secs_f64();
    let mut rng = Rng(seed);
    for action in &mut plan.actions {
        if let ChurnAction::Publish { event, .. } = action {
            event.value = rng.unit() * config.value_span;
        }
    }
    let mut steps = plan.actions.into_iter().map(Step::action);
    let setup: Vec<Step> = steps.by_ref().take(config.initial_sensors).collect();
    let timed: Vec<Step> = steps.collect();
    let cfg = fsf_cfg(2 * config.delta_t, ENGINE_SEED);
    Spec {
        name: "churn_mix",
        topology,
        exact_twin: Twin {
            what: "MatchMode::LinearScan twin",
            cfg: EngineCfg {
                mode: MatchMode::LinearScan,
                ..cfg.clone()
            },
        },
        cfg,
        setup,
        check_prefix: timed.len(),
        timed,
        oracle: None,
        plan_gen_s,
        min_recall: 1.0,
        expect_clean: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_decides_the_inputs() {
        for name in NAMES {
            let a = build(name, 7, Size::Quick).unwrap();
            let b = build(name, 7, Size::Quick).unwrap();
            let c = build(name, 8, Size::Quick).unwrap();
            let dump = |s: &Spec| format!("{:?}{:?}", s.setup, s.timed);
            assert_eq!(dump(&a), dump(&b), "{name}: same seed, same inputs");
            assert_ne!(dump(&a), dump(&c), "{name}: another seed, other inputs");
            assert!(a.timed_readings() > 0 && a.subscriptions() > 0, "{name}");
        }
        assert!(build("nope", 1, Size::Quick).is_none());
    }
}
