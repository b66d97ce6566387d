//! Nightly async soak: a 10k-node topology on the bounded-mailbox executor.
//!
//! ```text
//! soak [--nodes N] [--workers W] [--actions A] [--seed S]
//! ```
//!
//! Replays one seeded churn plan (teardown included) through two engines
//! built with `Deploy::Async`: the exact Naive baseline as ground truth and
//! Filter-Split-Forward as the candidate, and prints FSF's recall and
//! delivery-latency percentiles. Per engine it also names the three nodes
//! that handled the most frames and the three that parked most often, from
//! each node's own host ledger row.
//!
//! The binary fails (exit 1) when the conservation ledger of either engine
//! does not reconcile at quiescence, when teardown leaks state, when FSF
//! delivers outside the ground truth, or when its recall falls below
//! `MIN_RECALL` (0.8) — the soak is a stability check first, a recall check
//! second. An unknown argument exits 2.

use fsf_dynamics::{leaks, run_plan, ChurnAction, ChurnPlan, ChurnPlanConfig};
use fsf_engines::{Deploy, Engine, EngineKind};
use fsf_model::SubId;
use fsf_network::{builders, difference, LatencyModel};
use std::process::ExitCode;

const VALIDITY: u64 = 60;

/// The lowest FSF recall the soak accepts: the probabilistic set filter's
/// band, as in the static figures.
const MIN_RECALL: f64 = 0.8;

fn run_async(
    kind: EngineKind,
    topology: &fsf_network::Topology,
    plan: &ChurnPlan,
    workers: usize,
) -> Result<Box<dyn Engine>, String> {
    let mut engine = kind
        .builder(topology.clone())
        .validity(VALIDITY)
        .seed(42)
        .latency(LatencyModel::Uniform { hop: 2 })
        .deploy(Deploy::Async { workers })
        .build();
    run_plan(engine.as_mut(), plan);
    engine.flush();
    if engine.scheduled_total() != engine.steps() + engine.dropped_from_queue() {
        return Err(format!(
            "{}: conservation ledger does not reconcile ({} scheduled, {} handled, {} dropped)",
            kind.name(),
            engine.scheduled_total(),
            engine.steps(),
            engine.dropped_from_queue()
        ));
    }
    let leaked = leaks(engine.as_mut());
    if !leaked.is_empty() {
        return Err(format!("{}: teardown leaked: {leaked:?}", kind.name()));
    }
    let rows = engine.node_ledgers();
    println!(
        "{}: most frames handled {}; most parks {}",
        kind.name(),
        hottest(&rows, |row| row.handled),
        hottest(&rows, |row| row.parks)
    );
    Ok(engine)
}

/// The (at most) three rows with the highest nonzero `count`, as
/// `[n<id> <count>, …]`, ties in id order.
fn hottest<T>(rows: &[T], count: impl Fn(&T) -> u64) -> String {
    let mut ids: Vec<usize> = (0..rows.len()).filter(|&id| count(&rows[id]) > 0).collect();
    ids.sort_by_key(|&id| std::cmp::Reverse(count(&rows[id])));
    let row = |&id: &usize| format!("n{id} {}", count(&rows[id]));
    let top: Vec<String> = ids.iter().take(3).map(row).collect();
    format!("[{}]", top.join(", "))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut nodes = 10_000usize;
    let mut workers = 8usize;
    let mut actions = 30usize;
    let mut seed = 0x50A_C0DEu64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |what: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
                .clone()
        };
        match a.as_str() {
            "--nodes" => nodes = next("--nodes").parse().expect("--nodes needs an integer"),
            "--workers" => {
                workers = next("--workers")
                    .parse()
                    .expect("--workers needs an integer");
            }
            "--actions" => {
                actions = next("--actions")
                    .parse()
                    .expect("--actions needs an integer");
            }
            "--seed" => seed = next("--seed").parse().expect("--seed needs an integer"),
            other => {
                eprintln!("unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }

    let topology = builders::balanced(nodes, 4);
    let plan = ChurnPlan::seeded(
        &topology,
        &ChurnPlanConfig {
            seed,
            initial_sensors: 12,
            churn_actions: actions,
            events_per_action: 4,
            ..ChurnPlanConfig::default()
        },
    )
    .with_teardown();
    let subs: Vec<SubId> = plan
        .actions
        .iter()
        .filter_map(|a| match a {
            ChurnAction::Subscribe { sub, .. } => Some(sub.id()),
            _ => None,
        })
        .collect();
    println!(
        "soaking {} nodes on {} async workers: {} churn actions, {} subscriptions…",
        topology.len(),
        workers,
        plan.churn_action_count(),
        subs.len()
    );

    let truth = match run_async(EngineKind::Naive, &topology, &plan, workers) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let candidate = match run_async(EngineKind::FilterSplitForward, &topology, &plan, workers) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let (mut expected, mut hit) = (0usize, 0usize);
    for &sub in &subs {
        let truth_set = truth.deliveries().delivered(sub);
        let got = candidate.deliveries().delivered(sub);
        if difference(got, truth_set).next().is_some() {
            eprintln!("error: FSF delivered outside ground truth for {sub:?}");
            return ExitCode::FAILURE;
        }
        expected += truth_set.len();
        hit += got.len(); // got ⊆ truth_set
    }
    let recall = if expected == 0 {
        1.0
    } else {
        hit as f64 / expected as f64
    };
    let latency = candidate.latency_summary();
    println!(
        "recall {recall:.4} ({hit}/{expected} deliveries), latency p95 {} p99 {} over {} samples",
        latency.p95, latency.p99, latency.samples
    );
    if recall < MIN_RECALL {
        eprintln!("error: FSF recall {recall:.4} below {MIN_RECALL}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
