//! The repo benchmark: five named workloads over the Filter-Split-Forward
//! engine, end-to-end and per-layer metrics, one traced run. See
//! `README.md` beside this crate and `BENCHMARK.json` at the repo root.
//!
//! Two ways in:
//!
//! * `--workload W --seed S --seconds X --trace 0|1` — one run in this
//!   process; the last stdout line is the result object (the contract of
//!   `BENCHMARK.json`'s `command`);
//! * without `--seconds` — the suite: every workload (or `--workload W`)
//!   `--runs N` times in fresh child processes, medians, `--trace`,
//!   `--check-repeat`, `--quick`, and `out/results.json`.

mod layers;
mod metrics;
mod run;
mod script;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage: fsf-benchmark [--workload W] [--seed S] [--runs N] [--trace [0|1]] \
                     [--quick] [--check-repeat] [--seconds X]\n\
                     with --seconds: one run of --workload in this process, result object last\n\
                     without:        the suite, each run in a child process";

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    runs: Option<usize>,
    trace: bool,
    quick: bool,
    check_repeat: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s}: out of (0, 60]"));
                }
                cli.seconds = Some(s);
            }
            "--runs" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&n) {
                    return Err(format!("--runs {n}: out of 1..=100"));
                }
                cli.runs = Some(n);
            }
            // `--trace` alone turns tracing on; the driver says `--trace 0|1`
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => cli.quick = true,
            "--check-repeat" => cli.check_repeat = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seed = cli.seed.unwrap_or(1);
    let outcome = match cli.seconds {
        Some(seconds) => {
            let Some(workload) = cli.workload else {
                eprintln!("--seconds needs --workload\n{USAGE}");
                return ExitCode::from(2);
            };
            run::run(&run::RunArgs {
                workload,
                seed,
                seconds,
                trace: cli.trace,
                size: if cli.quick {
                    workloads::Size::Quick
                } else {
                    workloads::Size::Full
                },
            })
            .map(|result| {
                println!("{}", result.to_json());
                result.correct
            })
        }
        None => suite::suite(&suite::SuiteArgs {
            workload: cli.workload,
            seed,
            // one run per workload keeps the smoke mode under 30 s
            runs: cli.runs.unwrap_or(if cli.quick { 1 } else { 3 }),
            trace: cli.trace,
            quick: cli.quick,
            check_repeat: cli.check_repeat,
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
