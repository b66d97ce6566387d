//! The whole benchmark in one command: every workload in fresh child
//! processes, medians over the repeats, the optional traced pass and
//! repeat check, and `out/results.json`.

use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::run::out_dir;
use crate::stats::{median, ratio};
use crate::workloads::{self, NAMES};
use std::process::Command;

/// The `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 12;

/// What the command line asked of the suite.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    pub workload: Option<String>,
    pub seed: u64,
    pub runs: usize,
    pub trace: bool,
    pub quick: bool,
    pub check_repeat: bool,
}

/// One child run, parsed back from its last stdout line.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
}

/// Parse the one-line result object `RunResult::to_json` writes.
pub fn parse_result(line: &str) -> Option<ChildResult> {
    let scalar = |key: &str| {
        let rest = line.split_once(&format!("\"{key}\": "))?.1;
        Some(rest[..rest.find([',', '}'])?].trim())
    };
    let mut metrics = Vec::new();
    for entry in line.split_once("\"metrics\": {")?.1.split("\"}") {
        let Some(entry) = entry.trim_start_matches([',', ' ']).strip_prefix('"') else {
            break;
        };
        let (name, rest) = entry.split_once("\": {\"value\": ")?;
        let (value, unit) = rest.split_once(", \"unit\": \"")?;
        metrics.push((name.to_string(), value.parse().ok()?, unit.to_string()));
    }
    Some(ChildResult {
        correct: scalar("correct")?.parse().ok()?,
        attempted: scalar("attempted")?.parse().ok()?,
        failed: scalar("failed")?.parse().ok()?,
        metrics,
    })
}

/// Run one workload once in a fresh process of this same program.
fn child(args: &SuiteArgs, workload: &str, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seconds = if args.quick { 1 } else { RUN_SECONDS };
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    // stderr (gate failures, the self-time table) passes through
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parsed = stdout.lines().last().and_then(parse_result);
    match parsed {
        Some(r) if out.status.success() => Ok(r),
        _ => Err(format!(
            "{workload}: child exited with {} and no result",
            out.status
        )),
    }
}

/// One end-to-end metric of one workload over a set of runs.
#[derive(Debug, Clone)]
struct Row {
    workload: String,
    metric: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    samples: Vec<f64>,
}

impl Row {
    fn median(&self) -> f64 {
        median(&self.samples)
    }
    fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }
    fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
    /// `(max − min) / median` across the runs.
    fn spread(&self) -> f64 {
        ratio(self.max() - self.min(), self.median().abs())
    }
}

/// By what share of `base` is `now` worse (negative: better)?
pub fn worse_by(better: Better, base: f64, now: f64) -> f64 {
    match better {
        Better::Lower => ratio(now - base, base.abs()),
        Better::Higher => ratio(base - now, base.abs()),
    }
}

/// Per-workload correctness tallies of one set.
#[derive(Debug, Clone)]
struct Tally {
    workload: String,
    attempted: u64,
    failed: u64,
    correct: bool,
}

/// `--runs` children per workload; one row per workload × metric.
fn run_set(args: &SuiteArgs, names: &[&str]) -> Result<(Vec<Row>, Vec<Tally>), String> {
    let (mut rows, mut tallies) = (Vec::new(), Vec::new());
    for &workload in names {
        let results: Vec<ChildResult> = (0..args.runs)
            .map(|_| child(args, workload, false))
            .collect::<Result<_, _>>()?;
        tallies.push(Tally {
            workload: workload.to_string(),
            attempted: results.iter().map(|r| r.attempted).sum(),
            failed: results.iter().map(|r| r.failed).sum(),
            correct: results.iter().all(|r| r.correct),
        });
        for m in &END_TO_END {
            let samples = results
                .iter()
                .map(|r| {
                    r.metrics
                        .iter()
                        .find(|(name, ..)| name == m.name)
                        .map(|&(_, v, _)| v)
                        .ok_or_else(|| format!("{workload}: child did not report {}", m.name))
                })
                .collect::<Result<_, _>>()?;
            rows.push(Row {
                workload: workload.to_string(),
                metric: m.name,
                unit: m.unit,
                better: m.better,
                bound: m.bound,
                samples,
            });
        }
    }
    Ok((rows, tallies))
}

fn print_rows(rows: &[Row], informational: bool) {
    println!(
        "{:<13} {:<24} {:>6} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "unit", "median", "min", "max", "spread", "bound"
    );
    for r in rows {
        let flag = if informational {
            "informational"
        } else if r.spread() > r.bound {
            "unstable"
        } else {
            ""
        };
        println!(
            "{:<13} {:<24} {:>6} {:>14.4} {:>14.4} {:>14.4} {:>7.1}% {:>5.1}%  {flag}",
            r.workload,
            r.metric,
            r.unit,
            r.median(),
            r.min(),
            r.max(),
            100.0 * r.spread(),
            100.0 * r.bound
        );
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn floats(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(", "))
}

/// `out/results.json`: every number of the run, machine-readable.
fn results_json(
    args: &SuiteArgs,
    rows: &[Row],
    tallies: &[Tally],
    layers: &[(String, ChildResult)],
) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = format!(
        "{{\n  \"seed\": {},\n  \"runs\": {},\n  \"run_seconds\": {},\n  \"quick\": {},\n  \
         \"threads\": {},\n  \"nproc\": {nproc},\n  \"rustc\": \"{}\",\n  \"commit\": \"{}\",\n",
        args.seed,
        args.runs,
        if args.quick { 1 } else { RUN_SECONDS },
        args.quick,
        workloads::threads(),
        command_output("rustc", &["-V"]),
        command_output("git", &["rev-parse", "HEAD"]),
    );
    let workloads: Vec<String> = tallies
        .iter()
        .map(|t| {
            format!(
                "    {{\"workload\": \"{}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}}}",
                t.workload, t.correct, t.attempted, t.failed
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"workloads\": [\n{}\n  ],\n",
        workloads.join(",\n")
    ));
    let end_to_end: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"metric\": \"{}\", \"workload\": \"{}\", \"unit\": \"{}\", \
                 \"median\": {}, \"min\": {}, \"max\": {}, \"samples\": {}, \"bound\": {}, \
                 \"direction\": \"{}\"}}",
                r.metric,
                r.workload,
                r.unit,
                r.median(),
                r.min(),
                r.max(),
                floats(&r.samples),
                r.bound,
                r.better.as_str()
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"end_to_end\": [\n{}\n  ],\n",
        end_to_end.join(",\n")
    ));
    let per_layer: Vec<String> = layers
        .iter()
        .flat_map(|(workload, result)| {
            result.metrics.iter().map(move |(name, value, unit)| {
                let better = PER_LAYER
                    .iter()
                    .find(|(n, ..)| n == name)
                    .map_or("lower", |(_, _, b)| b.as_str());
                format!(
                    "    {{\"metric\": \"{name}\", \"workload\": \"{workload}\", \
                     \"unit\": \"{unit}\", \"value\": {value}, \"direction\": \"{better}\"}}"
                )
            })
        })
        .collect();
    out.push_str(&format!(
        "  \"per_layer\": [\n{}\n  ]\n}}\n",
        per_layer.join(",\n")
    ));
    out
}

/// Run the suite; `Ok(false)` when a gate or the repeat check failed.
pub fn suite(args: &SuiteArgs) -> Result<bool, String> {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![*NAMES
            .iter()
            .find(|n| *n == w)
            .ok_or_else(|| format!("unknown workload {w:?} (one of {NAMES:?})"))?],
        None => NAMES.to_vec(),
    };
    println!(
        "fsf-benchmark: seed {}, {} runs × {} s, T = {} threads{}",
        args.seed,
        args.runs,
        if args.quick { 1 } else { RUN_SECONDS },
        workloads::threads(),
        if args.quick {
            " — quick sizes: gates on, timings informational"
        } else {
            ""
        }
    );
    let (rows, tallies) = run_set(args, &names)?;
    print_rows(&rows, args.quick);
    let mut ok = true;
    for t in &tallies {
        println!(
            "{:<13} correct {} attempted {} failed {}",
            t.workload, t.correct, t.attempted, t.failed
        );
        ok &= t.correct;
    }

    let mut layers = Vec::new();
    if args.trace {
        for &workload in &names {
            let result = child(args, workload, true)?;
            println!("-- {workload}: per-layer metrics (one traced run) --");
            for (name, value, unit) in &result.metrics {
                println!("{name:<40} {value:>16.4} {unit}");
            }
            ok &= result.correct;
            layers.push((workload.to_string(), result));
        }
    }

    if args.check_repeat {
        println!("-- repeat check: a second set of the same code --");
        let (again, tallies) = run_set(args, &names)?;
        ok &= tallies.iter().all(|t| t.correct);
        for (a, b) in rows.iter().zip(&again) {
            let drift = worse_by(a.better, a.median(), b.median());
            let spread = a.spread().max(b.spread());
            let verdict = if drift.abs() > a.bound {
                ok &= args.quick; // quick timings are informational
                "DIFFERS"
            } else if spread > a.bound {
                "unstable"
            } else {
                "repeats"
            };
            println!(
                "{:<13} {:<24} {:>14.4} {:>14.4} {:>+7.1}% (bound {:.1}%, spread {:.1}%) {verdict}",
                a.workload,
                a.metric,
                a.median(),
                b.median(),
                100.0 * drift,
                100.0 * a.bound,
                100.0 * spread
            );
        }
    }

    let path = out_dir().join("results.json");
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, results_json(args, &rows, &tallies, &layers)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{RunResult, Value};

    #[test]
    fn the_result_line_round_trips() {
        let result = RunResult {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                Value {
                    name: "setup_s",
                    value: 0.123456789012,
                    unit: "s",
                },
                Value {
                    name: "events_per_s",
                    value: 1911.5,
                    unit: "1/s",
                },
            ],
        };
        let parsed = parse_result(&result.to_json()).expect("parses");
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (1234, 0));
        assert_eq!(
            parsed.metrics,
            vec![
                ("setup_s".to_string(), 0.123456789012, "s".to_string()),
                ("events_per_s".to_string(), 1911.5, "1/s".to_string()),
            ]
        );
        assert_eq!(parse_result("not a result"), None);
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(Better::Higher, 10.0, 12.0) < 0.0);
    }
}
