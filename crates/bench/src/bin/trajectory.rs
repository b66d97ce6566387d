//! The benchmark trajectory: every `BENCH_<pr>.json` in a directory
//! (default `.`), in PR order — `trajectory [DIR]`.
//!
//! For each workload × end-to-end metric it prints every file's median and
//! each step's ratio to the file before; a step worse than the metric's own
//! `bound` (in its `direction`) is flagged `!`. A step where every
//! workload's `events_per_s` moved the same way, with the geometric mean of
//! their ratios past the bound, is marked `~` on those cells and named
//! below the table: the whole machine moved, and no single code change
//! explains a step like that. Each `end_to_end` record is one line, parsed
//! on its own. It reports and never gates: exit 0, or 2 on a bad argument
//! or an unreadable file.

use std::path::Path;
use std::process::ExitCode;

/// One `end_to_end` record.
#[derive(Debug, PartialEq)]
struct Record {
    workload: String,
    metric: String,
    median: f64,
    bound: f64,
    lower_is_better: bool,
}

/// The value of `"key": …` on one line: a string's contents or a bare number.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    match rest.strip_prefix('"') {
        Some(text) => text.split('"').next(),
        None => rest.split([',', '}']).next().map(str::trim),
    }
}

fn parse(line: &str) -> Option<Record> {
    Some(Record {
        workload: field(line, "workload")?.to_string(),
        metric: field(line, "metric")?.to_string(),
        median: field(line, "median")?.parse().ok()?,
        bound: field(line, "bound")?.parse().ok()?,
        lower_is_better: field(line, "direction")? == "lower",
    })
}

fn pr_of(path: &Path) -> Option<u32> {
    let name = path.file_name()?.to_str()?;
    let pr = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
    pr.parse().ok()
}

/// Every `BENCH_<pr>.json` in the one directory argument (default `.`), in
/// PR order, each with its records.
fn load(args: &[String]) -> Result<Vec<(u32, Vec<Record>)>, String> {
    let dir = match args {
        [] => ".",
        [dir] if !dir.starts_with('-') => dir,
        _ => return Err(format!("bad arguments {args:?}")),
    };
    let mut files = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
    for path in entries.flatten().map(|entry| entry.path()) {
        let Some(pr) = pr_of(&path) else { continue };
        let shown = path.display();
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{shown}: {e}"))?;
        let records: Vec<Record> = text.lines().filter_map(parse).collect();
        if records.is_empty() {
            return Err(format!("{shown}: no end_to_end records"));
        }
        files.push((pr, records));
    }
    files.sort_by_key(|&(pr, _)| pr);
    Ok(files)
}

/// The throughput metric a box-wide shift is read from.
const THROUGHPUT: &str = "events_per_s";

/// The steps (indices into `files`) at which every workload's throughput
/// moved the same way and the geometric mean of the ratios is past the
/// bound, each with that geometric mean. A workload's ratio is to the
/// latest earlier file that has it.
fn box_shifts(files: &[(u32, Vec<Record>)]) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    for (i, (_, records)) in files.iter().enumerate().skip(1) {
        let mut ratios = Vec::new();
        let mut bound = f64::INFINITY;
        for r in records.iter().filter(|r| r.metric == THROUGHPUT) {
            let earlier = files[..i].iter().rev().find_map(|(_, rs)| {
                rs.iter()
                    .find(|b| b.metric == THROUGHPUT && b.workload == r.workload)
            });
            if let Some(b) = earlier {
                ratios.push(r.median / b.median);
                bound = bound.min(r.bound);
            }
        }
        let same_way = ratios.iter().all(|&q| q > 1.0) || ratios.iter().all(|&q| q < 1.0);
        if ratios.len() < 2 || !same_way {
            continue;
        }
        let mean_log = ratios.iter().map(|q| q.ln()).sum::<f64>() / ratios.len() as f64;
        let geomean = mean_log.exp();
        if (geomean - 1.0).abs() > bound {
            out.push((i, geomean));
        }
    }
    out
}

/// One line per workload × metric, in first-seen order: each file's median,
/// then `×ratio` to the step before, `!` where that step is past the bound
/// and `~` on the throughput cells of a box-wide shift ([`box_shifts`]),
/// which are listed under the table.
fn report(files: &[(u32, Vec<Record>)]) -> String {
    let shifts = box_shifts(files);
    let mut keys: Vec<(&str, &str)> = Vec::new();
    for r in files.iter().flat_map(|(_, records)| records) {
        if !keys.contains(&(&r.workload, &r.metric)) {
            keys.push((&r.workload, &r.metric));
        }
    }
    let mut out = format!("{:<13} {:<22}", "workload", "metric");
    for (pr, _) in files {
        out += &format!("{:>20}", format!("#{pr}"));
    }
    out += "\n";
    for (workload, metric) in keys {
        out += &format!("{workload:<13} {metric:<22}");
        let mut before: Option<&Record> = None;
        for (i, (_, records)) in files.iter().enumerate() {
            let now = records
                .iter()
                .find(|r| r.workload == workload && r.metric == metric);
            let cell = match (before, now) {
                (_, None) => "-".to_string(),
                (None, Some(r)) => format!("{:.4}", r.median),
                (Some(b), Some(r)) => {
                    let worse = (r.median - b.median) / b.median.abs();
                    let worse = if r.lower_is_better { worse } else { -worse };
                    let flag = if worse > r.bound { "!" } else { " " };
                    let shifted = metric == THROUGHPUT && shifts.iter().any(|&(s, _)| s == i);
                    let shift = if shifted { "~" } else { "" };
                    format!("{:.4} ×{:.2}{flag}{shift}", r.median, r.median / b.median)
                }
            };
            out += &format!("{cell:>20}");
            before = now.or(before);
        }
        out += "\n";
    }
    for (i, geomean) in shifts {
        out += &format!(
            "~ #{}: every workload's {THROUGHPUT} moved the same way, geometric mean ×{geomean:.2} \
             — a box-wide shift, not one change's step\n",
            files[i].0
        );
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let loaded = load(&args).map_err(|e| eprintln!("trajectory: {e}\nusage: trajectory [DIR]"));
    let Ok(files) = loaded else {
        return ExitCode::from(2);
    };
    print!("{}", report(&files));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(metric: &str, median: f64, direction: &str) -> Record {
        let line = format!(
            "    {{\"metric\": \"{metric}\", \"workload\": \"steady_sim\", \"unit\": \"1/s\", \
             \"median\": {median}, \"min\": 1.0, \"samples\": [1.0, 2.0], \"bound\": 0.25, \
             \"direction\": \"{direction}\"}},"
        );
        parse(&line).expect("a record")
    }

    #[test]
    fn records_parse_and_steps_past_the_bound_are_flagged() {
        let r = line("events_per_s", 5441.9, "higher");
        assert!(r.median == 5441.9 && r.bound == 0.25 && !r.lower_is_better);
        assert!(parse("{\"workload\": \"steady_sim\", \"correct\": true}").is_none());
        let file = |tput, p50| vec![line("tput", tput, "higher"), line("p50", p50, "lower")];
        let steps = [(22, 100.0, 10.0), (26, 70.0, 11.0), (32, 140.0, 20.0)];
        let out = report(&steps.map(|(pr, tput, p50)| (pr, file(tput, p50))));
        let rows: Vec<&str> = out.lines().collect();
        assert!(rows[1].contains("70.0000 ×0.70!") && rows[1].contains("140.0000 ×2.00 "));
        assert!(rows[2].contains("11.0000 ×1.10 ") && rows[2].contains("20.0000 ×1.82!"));
        assert_eq!(pr_of(Path::new("x/BENCH_26.json")), Some(26));
        assert_eq!(pr_of(Path::new("BASELINE.json")), None);
        assert!(
            !out.contains('~'),
            "tput and p50 are one workload: no shift"
        );
    }

    fn tput(workload: &str, median: f64) -> Record {
        Record {
            workload: workload.to_string(),
            metric: THROUGHPUT.to_string(),
            median,
            bound: 0.25,
            lower_is_better: false,
        }
    }

    #[test]
    fn a_step_that_moves_every_workload_one_way_is_a_box_shift() {
        // the five workloads' `events_per_s` medians of BENCH_26.json and
        // BENCH_32.json: all down, geometric mean ≈ 0.69 — a loaded box
        let names = [
            "steady_sim",
            "steady_async",
            "match_heavy",
            "wide_sharded",
            "churn_mix",
        ];
        let pr26 = [5441.9, 8575.4, 101331.4, 10783.7, 6016.9];
        let pr32 = [4659.8, 7087.5, 62821.7, 6163.5, 3719.9];
        let file = |medians: [f64; 5]| names.iter().zip(medians).map(|(w, m)| tput(w, m)).collect();
        let files = vec![(26, file(pr26)), (32, file(pr32))];
        let shifts = box_shifts(&files);
        assert_eq!(shifts.len(), 1);
        assert_eq!(shifts[0].0, 1);
        assert!((shifts[0].1 - 0.69).abs() < 0.005, "{}", shifts[0].1);
        let out = report(&files);
        assert!(out.contains("3719.9000 ×0.62!~"), "{out}");
        assert!(
            out.contains("4659.8000 ×0.86 ~"),
            "the ! flags stay as they were"
        );
        assert!(out.contains("~ #32: every workload's events_per_s moved the same way"));
        // one workload the other way: not box-wide
        let mut mixed = pr32;
        mixed[2] = 110_000.0;
        assert!(box_shifts(&[(26, file(pr26)), (32, file(mixed))]).is_empty());
        // all one way but inside the bound: a small common drift
        let drift = pr26.map(|m| m * 0.9);
        assert!(box_shifts(&[(26, file(pr26)), (32, file(drift))]).is_empty());
    }
}
