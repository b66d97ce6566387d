//! The golden traffic ledger: what forwarding *costs*, pinned per engine
//! and per setting.
//!
//! The delivery-log oracles check what arrives; the paper's claims are
//! costs (subscription load, event load, recall — §VI, Figs. 4–12). Every
//! count here is exact per seed, so this test replays fixed workloads
//! through the engines and diffs one text line per measurement against
//! `tests/golden/ledger.txt`:
//!
//! * **static rows** — the four paper settings, shrunk to three batches,
//!   through `fsf_workload::driver` with the engines the figures use: one
//!   line per (setting, batch, engine) with subscription load, event load,
//!   delivered and expected units, and recall;
//! * **dynamic rows** — one seeded churn, interior crash + recover, move
//!   and partition plan (each with its teardown) on a 63-node tree through
//!   all five engines, plus the churn plan replayed timed over two ticks a
//!   hop: one line per (plan, engine) with the units of every charge
//!   class, the conservation counters, deliveries and latency percentiles.
//!
//! On top of the file, the paper's orderings are asserted at every static
//! point. A change that moves a count fails here even when every delivery
//! oracle stays green. If the change is intended, rerun with
//! `FSF_BLESS=1` to rewrite the file and explain every changed line.

use fsf::dynamics::{
    leaks, run_plan, run_plan_timed, ChurnPlan, ChurnPlanConfig, PartitionPlanConfig,
    TimedReplayConfig,
};
use fsf::engines::{Engine, EngineKind};
use fsf::network::{builders, ChargeKind, LatencyModel, Topology};
use fsf::workload::driver::run_kind;
use fsf::workload::{BatchPoint, ScenarioConfig, Workload};

/// The engine seed every figure uses (feeds FSF's set filter).
const ENGINE_SEED: u64 = 42;
const LEDGER: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/ledger.txt");

/// The engines a setting's figures compare: the medium setting adds the
/// centralized baseline (§VI-D).
fn kinds_for(config: &ScenarioConfig) -> &'static [EngineKind] {
    if config.name == ScenarioConfig::medium_scale().name {
        &EngineKind::ALL
    } else {
        &EngineKind::DISTRIBUTED
    }
}

/// Run the four paper settings at reduced volume; one line per (setting,
/// batch, engine). Asserts the paper's orderings at every point.
fn static_rows(out: &mut Vec<String>) {
    for mut config in ScenarioConfig::paper_settings() {
        config.batches = 3;
        config.subs_per_batch = 20;
        config.rounds_per_batch = 4;
        let workload = Workload::generate(&config);
        let runs: Vec<(EngineKind, Vec<BatchPoint>)> = kinds_for(&config)
            .iter()
            .map(|&kind| (kind, run_kind(&workload, kind, ENGINE_SEED).points))
            .collect();
        for batch in 0..config.batches {
            for (kind, points) in &runs {
                let p = &points[batch];
                out.push(format!(
                    "static {:<13} batch={batch} {:<9} sub_forwards={} event_units={} \
                     delivered={} expected={} recall={:.6}",
                    config.name,
                    tag(*kind),
                    p.sub_forwards,
                    p.event_units,
                    p.delivered_units,
                    p.expected_units,
                    p.recall
                ));
            }
            assert_paper_ordering(&config.name, batch, &runs);
        }
    }
}

fn assert_paper_ordering(setting: &str, batch: usize, runs: &[(EngineKind, Vec<BatchPoint>)]) {
    let at = |kind: EngineKind| {
        runs.iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, p)| &p[batch])
    };
    let get = |kind: EngineKind| at(kind).expect("every setting runs the distributed engines");
    let (naive, op, mj, fsf) = (
        get(EngineKind::Naive),
        get(EngineKind::OperatorPlacement),
        get(EngineKind::MultiJoin),
        get(EngineKind::FilterSplitForward),
    );
    let here = format!("{setting} batch {batch}");
    // subscription load (Figs. 4/6/8/10)
    assert!(
        naive.sub_forwards >= op.sub_forwards,
        "{here}: sub load naive < op"
    );
    assert!(
        op.sub_forwards >= fsf.sub_forwards,
        "{here}: sub load op < fsf"
    );
    assert!(
        mj.sub_forwards >= fsf.sub_forwards,
        "{here}: sub load mj < fsf"
    );
    if let Some(central) = at(EngineKind::Centralized) {
        assert!(
            central.sub_forwards <= fsf.sub_forwards,
            "{here}: sub load central > fsf"
        );
    }
    // event load (Figs. 5/7/9/11)
    assert!(
        naive.event_units >= op.event_units,
        "{here}: event load naive < op"
    );
    assert!(
        op.event_units >= fsf.event_units,
        "{here}: event load op < fsf"
    );
    assert!(
        mj.event_units >= fsf.event_units,
        "{here}: event load mj < fsf"
    );
    for (kind, points) in runs {
        let p = &points[batch];
        if batch > 0 {
            let prev = &points[batch - 1];
            assert!(
                p.sub_forwards >= prev.sub_forwards,
                "{here}: {kind} sub load fell"
            );
            assert!(
                p.event_units >= prev.event_units,
                "{here}: {kind} event load fell"
            );
        }
        // recall (Fig. 12): exact engines are exact, FSF is banded
        if *kind == EngineKind::FilterSplitForward {
            assert!(
                p.recall > 0.8 && p.recall <= 1.0,
                "{here}: FSF recall {}",
                p.recall
            );
        } else {
            assert!(p.recall == 1.0, "{here}: {kind} recall {}", p.recall);
        }
    }
}

/// The dynamic plans: name, plan (teardown included) and, for a timed
/// replay, its latency model.
fn dynamic_plans(topology: &Topology) -> Vec<(&'static str, ChurnPlan, Option<LatencyModel>)> {
    let base = ChurnPlanConfig {
        seed: 0x1ED6_E500,
        initial_sensors: 8,
        churn_actions: 40,
        events_per_action: 6,
        range_half_width: 35.0,
        ..ChurnPlanConfig::default()
    };
    let seeded = |config: ChurnPlanConfig| ChurnPlan::seeded(topology, &config).with_teardown();
    let churn = seeded(base.clone());
    let crash = seeded(ChurnPlanConfig {
        with_crashes: true,
        crash_interior: true,
        protected_nodes: vec![topology.median()],
        min_crashes: 1,
        ..base.clone()
    });
    let moves = seeded(ChurnPlanConfig {
        with_moves: true,
        min_moves: 4,
        ..base
    });
    let partition =
        ChurnPlan::seeded_partition(topology, &PartitionPlanConfig::default()).with_teardown();
    let timed = Some(LatencyModel::Uniform { hop: 2 });
    vec![
        ("churn", churn.clone(), None),
        ("crash", crash, None),
        ("move", moves, None),
        ("partition", partition, None),
        ("churn-timed", churn, timed),
    ]
}

/// Replay every dynamic plan through all five engines; one line per (plan,
/// engine). Asserts a clean teardown and a nonzero delivery on every line.
fn dynamic_rows(out: &mut Vec<String>) {
    let topology = builders::balanced(63, 2);
    let validity = 2 * ChurnPlanConfig::default().delta_t;
    for (name, plan, latency) in dynamic_plans(&topology) {
        for kind in EngineKind::ALL {
            let mut builder = kind
                .builder(topology.clone())
                .validity(validity)
                .seed(ENGINE_SEED);
            if let Some(latency) = &latency {
                builder = builder.latency(latency.clone());
            }
            let mut engine = builder.build();
            match &latency {
                Some(latency) => {
                    let timed = plan.timed(&TimedReplayConfig::drained(&topology, latency));
                    run_plan_timed(engine.as_mut(), &timed);
                }
                None => run_plan(engine.as_mut(), &plan),
            }
            let leaked = leaks(engine.as_ref());
            assert!(
                leaked.is_empty(),
                "{name}: {kind} teardown leaked: {leaked:?}"
            );
            assert!(
                engine.deliveries().total_event_units() > 0,
                "{name}: {kind} delivered nothing"
            );
            out.push(dynamic_line(name, kind, engine.as_ref()));
        }
    }
}

fn dynamic_line(plan: &str, kind: EngineKind, engine: &dyn Engine) -> String {
    let stats = engine.stats();
    let charges: Vec<String> = ChargeKind::ALL
        .iter()
        .map(|&c| format!("{}={}", format!("{c:?}").to_lowercase(), stats.by_kind(c)))
        .collect();
    let latency = engine.latency_summary();
    format!(
        "dynamic {plan:<11} {:<9} {} scheduled={} dropped={} delivered={} complex={} \
         latency_p50={} latency_p95={} latency_max={}",
        tag(kind),
        charges.join(" "),
        engine.scheduled_total(),
        engine.dropped_from_queue(),
        engine.deliveries().total_event_units(),
        engine.deliveries().complex_deliveries(),
        latency.p50,
        latency.p95,
        latency.max
    )
}

/// A short, space-free engine tag for the ledger's columns.
fn tag(kind: EngineKind) -> &'static str {
    match kind {
        EngineKind::Centralized => "central",
        EngineKind::Naive => "naive",
        EngineKind::OperatorPlacement => "op",
        EngineKind::MultiJoin => "multijoin",
        EngineKind::FilterSplitForward => "fsf",
    }
}

#[test]
fn traffic_matches_the_golden_ledger() {
    let mut lines = Vec::new();
    static_rows(&mut lines);
    dynamic_rows(&mut lines);
    let actual = lines.join("\n") + "\n";

    if std::env::var_os("FSF_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(LEDGER, &actual).expect("writing the golden ledger");
        return;
    }
    let expected = std::fs::read_to_string(LEDGER)
        .unwrap_or_else(|e| panic!("{LEDGER}: {e} (run with FSF_BLESS=1 to create it)"));
    if expected == actual {
        return;
    }
    let old: Vec<&str> = expected.lines().collect();
    let gone = old.iter().filter(|l| !lines.iter().any(|n| n == *l));
    let new = lines.iter().filter(|l| !old.contains(&l.as_str()));
    let mut diff = String::new();
    for l in gone {
        diff.push_str(&format!("- {l}\n"));
    }
    for l in new {
        diff.push_str(&format!("+ {l}\n"));
    }
    panic!(
        "traffic differs from the golden ledger ({LEDGER}):\n{diff}\
         if the change is intended, rerun with FSF_BLESS=1 and explain every changed line"
    );
}
