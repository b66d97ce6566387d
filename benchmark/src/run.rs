//! One run: one workload, one seed, in this process. Generates the inputs,
//! replays them in repeated passes (fresh engine each) for the time budget,
//! checks the outputs outside the timed phases, and — when traced — runs
//! the layer probes and writes the span trace.

use crate::layers::{self, Values};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::script::{run_pass, Counters, Pass, Spec, StepTime};
use crate::spans::{self, Tracer};
use crate::stats::{median, percentile, ratio};
use crate::workloads::{self, Size};
use fsf::dynamics::leaks;
use fsf::model::{EventId, SubId};
use fsf::network::DeliveryLog;
use std::collections::BTreeSet;

/// What the driver asked for.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    /// `(subscription, event)` units the exact twin delivered.
    pub attempted: u64,
    /// Units missing from or spurious in the workload's own deliveries.
    pub failed: u64,
    /// End-to-end metrics (tracing off) or per-layer metrics (traced).
    pub metrics: Vec<Value>,
}

impl RunResult {
    /// The one-line JSON object the driver reads.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Where traces and results go: `benchmark/out/`.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The per-pass numbers the metrics are medians of.
struct PassStats {
    setup_s: f64,
    build_s: f64,
    events_per_s: f64,
    round_ms: Vec<f64>,
    setup_ms: Vec<f64>,
    inject_s: f64,
    flush_s: f64,
}

impl PassStats {
    fn of(pass: &Pass, readings: u64) -> PassStats {
        let ms = |t: &[StepTime]| t.iter().map(|s| s.total_s * 1e3).collect::<Vec<f64>>();
        let timed_s = pass.timed_s();
        let inject_s: f64 = pass.timed.iter().map(|t| t.inject_s).sum();
        PassStats {
            setup_s: pass.setup_s(),
            build_s: pass.build_s,
            events_per_s: ratio(readings as f64, timed_s),
            round_ms: ms(&pass.timed),
            setup_ms: ms(&pass.setup),
            inject_s,
            flush_s: timed_s - inject_s,
        }
    }
}

/// Replay passes until `budget_s` of timed phase has been measured, at
/// least `min_passes` of them; returns the stats and the last pass.
fn passes(
    spec: &Spec,
    budget_s: f64,
    min_passes: usize,
    tracer: &mut Tracer,
) -> (Vec<PassStats>, Pass) {
    let readings = spec.timed_readings();
    let (mut stats, mut timed_s) = (Vec::new(), 0.0);
    loop {
        let pass = run_pass(spec, &spec.cfg, spec.timed.len(), tracer, None);
        timed_s += pass.timed_s();
        stats.push(PassStats::of(&pass, readings));
        if timed_s >= budget_s && stats.len() >= min_passes {
            return (stats, pass);
        }
    }
}

fn units(log: &DeliveryLog) -> BTreeSet<(SubId, EventId)> {
    log.subs()
        .flat_map(|sub| log.delivered(sub).iter().map(move |&e| (sub, e)))
        .collect()
}

/// The correctness gates, all outside the timed phases.
struct Verdict {
    attempted: u64,
    failed: u64,
    recall: f64,
    expected_units: u64,
    failures: Vec<String>,
}

fn verify(spec: &Spec, last: &Pass, tracer: &mut Tracer) -> Verdict {
    let mut failures = Vec::new();
    let counters = Counters::read(last.engine.as_ref());
    if !counters.conserved() {
        failures.push(format!(
            "conservation broke: scheduled {} != steps {} + dropped {} + queued {}",
            counters.scheduled_total,
            counters.steps,
            counters.dropped_from_queue,
            counters.queue_depth
        ));
    }
    if spec.expect_clean {
        let leaked = leaks(last.engine.as_ref());
        if !leaked.is_empty() {
            failures.push(format!("{} nodes hold state after teardown", leaked.len()));
        }
    }

    let mut off = Tracer::new(false);
    let twin = &spec.exact_twin;
    let (twin_pass, _) = tracer.span("benchmark.exact_twin", 0, || {
        run_pass(spec, &twin.cfg, spec.check_prefix, &mut off, None)
    });
    let reference = twin_pass.engine.deliveries();
    let (mine, theirs) = (units(&last.prefix_log), units(reference));
    let missing = theirs.difference(&mine).count() as u64;
    let spurious = mine.difference(&theirs).count() as u64;
    let attempted = theirs.len() as u64;
    if missing + spurious > 0 {
        failures.push(format!(
            "deliveries differ from the {}: {missing} missing, {spurious} spurious of {attempted}",
            twin.what
        ));
    }
    // two simulators are deterministic down to the complex-event count; on
    // the free-running host the interleaving decides how many complex
    // events carry the same units
    if spec.cfg.is_simulator() && last.prefix_log != *reference {
        failures.push(format!("DeliveryLog != the {}", twin.what));
    }
    if attempted == 0 {
        failures.push("the check prefix delivered nothing".into());
    }

    let (recall, expected_units) = if let Some(oracle) = &spec.oracle {
        (
            ratio(
                counters.delivered_units as f64,
                oracle.expected_units as f64,
            ),
            oracle.expected_units,
        )
    } else {
        (
            ratio((attempted - missing) as f64, attempted as f64),
            attempted,
        )
    };
    if recall < spec.min_recall {
        failures.push(format!("recall {recall:.4} < {}", spec.min_recall));
    }
    Verdict {
        attempted,
        failed: missing + spurious,
        recall,
        expected_units,
        failures,
    }
}

/// Which steps a class statistic pools.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Setup,
    Timed,
    Both,
}

/// Everything measured with tracing off: what both metric tables read.
struct Measured {
    spec: Spec,
    /// Median seconds of three generations, the oracle excluded.
    generate_s: f64,
    oracle_s: f64,
    stats: Vec<PassStats>,
    last: Pass,
    /// The last pass's counters at quiescence.
    end: Counters,
    rss_mb: f64,
}

impl Measured {
    /// The median over the passes of one per-pass number.
    fn per_pass(&self, f: impl Fn(&PassStats) -> f64) -> f64 {
        median(&self.stats.iter().map(f).collect::<Vec<_>>())
    }

    /// Pooled milliseconds, over the passes, of every step of `phase` whose
    /// label `keep`s.
    fn class_ms(&self, phase: Phase, keep: impl Fn(&str) -> bool) -> Vec<f64> {
        let mut out = Vec::new();
        for s in &self.stats {
            for (steps, ms, of) in [
                (&self.spec.setup, &s.setup_ms, Phase::Setup),
                (&self.spec.timed, &s.round_ms, Phase::Timed),
            ] {
                if phase != Phase::Both && phase != of {
                    continue;
                }
                out.extend(
                    steps
                        .iter()
                        .zip(ms)
                        .filter(|(step, _)| keep(step.label()))
                        .map(|(_, &ms)| ms),
                );
            }
        }
        out
    }
}

fn measure(args: &RunArgs, on: &mut Tracer) -> Result<Measured, String> {
    // inputs, generated three times: generation is part of set-up, and one
    // sample of a few milliseconds is not a measurement
    let (mut generate_s, mut oracle_s, mut spec) = (Vec::new(), Vec::new(), None);
    for _ in 0..3 {
        let (built, seconds) = on.span("workload.generate", 0, || {
            workloads::build(&args.workload, args.seed, args.size)
        });
        let built = built.ok_or_else(|| {
            format!(
                "unknown workload {:?} (one of {:?})",
                args.workload,
                workloads::NAMES
            )
        })?;
        let oracle = built.oracle.as_ref().map_or(0.0, |o| o.seconds);
        generate_s.push(seconds - oracle);
        oracle_s.push(oracle);
        spec.get_or_insert(built);
    }
    let spec = spec.expect("three generations");

    // a traced run keeps part of its time for the traced passes and probes
    let budget = if args.trace {
        0.6 * args.seconds
    } else {
        args.seconds
    };
    let open = on.enter("benchmark.untraced_passes", 0);
    let (stats, last) = passes(&spec, budget, 3, &mut Tracer::new(false));
    on.exit(open);
    Ok(Measured {
        generate_s: median(&generate_s),
        oracle_s: median(&oracle_s),
        rss_mb: peak_rss_mb(),
        end: Counters::read(last.engine.as_ref()),
        spec,
        stats,
        last,
    })
}

/// The end-to-end metrics, in `END_TO_END` order.
fn end_to_end(m: &Measured, recall: f64) -> Vec<Value> {
    let value = |name: &str| match name {
        "setup_s" => m.generate_s + m.per_pass(|s| s.setup_s),
        "events_per_s" => m.per_pass(|s| s.events_per_s),
        "round_ms_p50" => m.per_pass(|s| percentile(&s.round_ms, 50.0)),
        "round_ms_p95" => m.per_pass(|s| percentile(&s.round_ms, 95.0)),
        "msgs_per_delivered_unit" => ratio(m.end.event_units as f64, m.end.delivered_units as f64),
        "sub_forwards_per_sub" => ratio(m.end.sub_forwards as f64, m.spec.subscriptions() as f64),
        "recall" => recall,
        "peak_rss_mb" => m.rss_mb,
        other => unreachable!("no value for end-to-end metric {other}"),
    };
    END_TO_END
        .iter()
        .map(|e| Value {
            name: e.name,
            value: value(e.name),
            unit: e.unit,
        })
        .collect()
}

/// The per-layer values read off the untraced passes (the probes add the
/// rest).
fn pass_layer_values(m: &Measured, verdict: &Verdict, v: &mut Values) {
    let (spec, end) = (&m.spec, &m.end);
    v.insert("workload.generate_s", m.generate_s);
    v.insert("workload.oracle_s", m.oracle_s);
    v.insert("dynamics.plan_gen_s", spec.plan_gen_s);

    let timed_steps = (end.steps - m.last.after_setup.steps) as f64;
    let readings = spec.timed_readings() as f64;
    v.insert("core.stored_operators", end.stored_operators as f64);
    v.insert("network.steps_per_event", ratio(timed_steps, readings));
    v.insert(
        "network.dropped_share",
        ratio(end.dropped_from_queue as f64, end.scheduled_total as f64),
    );
    v.insert(
        "network.recovery_msgs_per_crash",
        ratio(end.recovery_msgs as f64, end.crashes as f64),
    );
    v.insert(
        "network.handoff_msgs_per_move",
        ratio(end.handoff_msgs as f64, end.moves as f64),
    );
    v.insert(
        "network.sparse_round_ms",
        median(&m.class_ms(Phase::Timed, |l| l == "publish")),
    );
    // the flood class: advertisement floods of the set-up and move floods of
    // the timed phase, as handler steps per second over the last pass
    let flood = |l: &str| l == "sensor_up" || l == "move";
    let (mut flood_handled, mut flood_s) = (0u64, 0.0);
    let last = &m.last;
    for (t, step) in (last.setup.iter().zip(&spec.setup)).chain(last.timed.iter().zip(&spec.timed))
    {
        if flood(step.label()) {
            flood_handled += t.handled;
            flood_s += t.total_s;
        }
    }
    v.insert(
        "network.flood_steps_per_s",
        ratio(flood_handled as f64, flood_s),
    );

    v.insert("engines.build_ms", m.per_pass(|s| s.build_s * 1e3));
    v.insert(
        "engines.inject_us_per_event",
        m.per_pass(|s| ratio(s.inject_s * 1e6, readings)),
    );
    v.insert(
        "engines.flush_us_per_round",
        m.per_pass(|s| ratio(s.flush_s * 1e6, s.round_ms.len() as f64)),
    );
    v.insert(
        "engines.round_ms_p99",
        m.per_pass(|s| percentile(&s.round_ms, 99.0)),
    );
    let registrations = m.class_ms(Phase::Setup, |l| l == "subscribe");
    v.insert("engines.sub_register_us_p50", median(&registrations) * 1e3);

    let control = m.class_ms(Phase::Both, |l| l != "publish");
    v.insert(
        "dynamics.control_actions_per_s",
        ratio(control.len() as f64, control.iter().sum::<f64>() / 1e3),
    );
    v.insert("dynamics.control_ms_p50", median(&control));
    v.insert("dynamics.control_ms_p95", percentile(&control, 95.0));
    for (name, label) in [
        ("dynamics.subscribe_ms_p50", "subscribe"),
        ("dynamics.unsubscribe_ms_p50", "unsubscribe"),
        ("dynamics.sensor_up_ms_p50", "sensor_up"),
        ("dynamics.sensor_down_ms_p50", "sensor_down"),
        ("dynamics.move_ms_p50", "move"),
        ("dynamics.crash_recover_ms_p50", "crash"),
    ] {
        v.insert(name, median(&m.class_ms(Phase::Timed, |l| l == label)));
    }

    v.insert("benchmark.passes", m.stats.len() as f64);
    v.insert("benchmark.timed_steps", spec.timed.len() as f64);
    v.insert("benchmark.timed_readings", readings);
    v.insert("benchmark.subscriptions", spec.subscriptions() as f64);
    v.insert("benchmark.expected_units", verdict.expected_units as f64);
    v.insert("benchmark.delivered_units", end.delivered_units as f64);
    v.insert("benchmark.threads", workloads::threads() as f64);
}

/// Close the run's own trace: check the self times add up to the traced
/// wall time, print the table, validate and write the Chrome trace.
fn finish_trace(
    name: &str,
    on: &Tracer,
    v: &mut Values,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let rows = spans::self_times(on.spans());
    let wall_ns = spans::root_ns(on.spans());
    let self_ns: u64 = rows.iter().map(|r| r.self_ns).sum();
    let coverage = ratio(self_ns as f64, wall_ns as f64);
    v.insert("benchmark.self_time_coverage", coverage);
    if (coverage - 1.0).abs() > 0.05 {
        failures.push(format!(
            "self times sum to {coverage:.3} of the traced wall time"
        ));
    }
    eprintln!(
        "-- {name} self-time table ({} spans, {:.3} s traced) --\n{}",
        on.spans().len(),
        wall_ns as f64 / 1e9,
        spans::render_self_times(&rows, wall_ns)
    );
    // the repo's validator scans strings in time quadratic in the document
    // (7 231 slices took 5.8 s), so it checks a bounded prefix rendered by
    // the same writer as the full file
    let sample = &on.spans()[..on.spans().len().min(2_000)];
    match fsf::telemetry::validate_chrome_trace(&spans::to_chrome_trace(sample)) {
        Ok(shape) => eprintln!("trace: first {} slices validated", shape.slices),
        Err(e) => failures.push(format!("invalid Chrome trace: {e}")),
    }
    let path = out_dir().join(format!("trace-{name}.json"));
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, spans::to_chrome_trace(on.spans())))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Run one workload once and report.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let mut on = Tracer::new(args.trace);
    let root = on.enter("benchmark.run", 0);
    let m = measure(args, &mut on)?;
    let open = on.enter("benchmark.verify", 0);
    let verdict = verify(&m.spec, &m.last, &mut on);
    on.exit(open);
    let mut failures = verdict.failures.clone();

    let metrics = if args.trace {
        let mut v = Values::new();
        // two traced passes: the trace, the self-time table, and what
        // recording spans costs
        let (traced, _) = passes(&m.spec, 0.0, 2, &mut on);
        let traced_eps = median(&traced.iter().map(|s| s.events_per_s).collect::<Vec<_>>());
        v.insert(
            "telemetry.trace_overhead_ratio",
            ratio(traced_eps, m.per_pass(|s| s.events_per_s)),
        );
        let quick = workloads::build(&args.workload, args.seed, Size::Quick)
            .expect("the workload built once already");
        if let Err(e) = layers::probe_all(&m.spec, &quick, &mut on, &mut v) {
            failures.push(format!("Recorder::reconcile: {e}"));
        }
        pass_layer_values(&m, &verdict, &mut v);
        on.exit(root);
        finish_trace(m.spec.name, &on, &mut v, &mut failures)?;
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| Value {
                name,
                value: *v
                    .get(name)
                    .unwrap_or_else(|| panic!("no value for per-layer metric {name}")),
                unit,
            })
            .collect()
    } else {
        end_to_end(&m, verdict.recall)
    };

    for f in &failures {
        eprintln!("GATE FAILED [{}]: {f}", m.spec.name);
    }
    Ok(RunResult {
        correct: failures.is_empty(),
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
    })
}
