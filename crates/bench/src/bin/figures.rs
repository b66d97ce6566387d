//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures [targets…] [--scale F]
//!
//! targets: all | table1 | table2 | fig4 fig5 … fig12 fig7b | abl1 abl2 abl3 abl4 | ext1
//! --scale F   : scale subscription/round volume by F in (0, 1] (default 1.0 = paper size)
//! ```
//!
//! An unknown target or a scale outside (0, 1] prints the usage line and
//! exits 2. Figure pairs share runs (fig4/fig5 are the same experiment's
//! two metrics), so asking for both costs one run.

use fsf_bench::figures::{figure12, run_scenario, table1, table2, FigureData};
use fsf_bench::{ablations, Figure};
use fsf_engines::EngineKind;
use fsf_workload::ScenarioConfig;
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: figures [all | table1 table2 fig4 … fig12 fig7b abl1 … abl4 ext1]… \
                     [--scale F in (0, 1]]";

/// Every target; `all` (or no target) means all of them.
const TARGETS: [&str; 17] = [
    "table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig7b", "fig8", "fig9", "fig10", "fig11",
    "fig12", "abl1", "abl2", "abl3", "abl4", "ext1",
];

/// What the command line asked for.
#[derive(Debug)]
struct Args {
    targets: BTreeSet<&'static str>,
    scale: f64,
}

/// Parse the arguments after the program name: every target must be known
/// and the scale must lie in (0, 1]. No target means `all`.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut targets = BTreeSet::new();
    let mut scale = 1.0f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--scale" {
            scale = it
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|s| *s > 0.0 && *s <= 1.0)
                .ok_or("--scale needs a number in (0, 1]")?;
        } else if a == "all" {
            targets.extend(TARGETS);
        } else {
            let t = TARGETS
                .iter()
                .find(|t| **t == a.as_str())
                .ok_or_else(|| format!("unknown target {a:?}"))?;
            targets.insert(*t);
        }
    }
    if targets.is_empty() {
        targets.extend(TARGETS);
    }
    Ok(Args { targets, scale })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { targets, scale } = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let want = |t: &str| targets.contains(t);
    let maybe_scale = |c: ScenarioConfig| if scale < 1.0 { c.scaled(scale) } else { c };

    println!("# paper-figure regeneration (scale = {scale})\n");
    if want("table1") {
        println!("{}", table1());
    }
    if want("table2") {
        println!("{}", table2());
    }

    let mut small: Option<FigureData> = None;
    let mut medium: Option<FigureData> = None;
    let mut large_net: Option<FigureData> = None;
    let mut large_src: Option<FigureData> = None;

    let run = |name: &str, cfg: ScenarioConfig, kinds: &[EngineKind]| -> FigureData {
        let t0 = Instant::now();
        let data = run_scenario(&cfg, kinds);
        eprintln!(
            "[{name}] ran {} engines in {:.1?}",
            kinds.len(),
            t0.elapsed()
        );
        data
    };

    if want("fig4") || want("fig5") || want("fig12") {
        let d = run(
            "small-scale",
            maybe_scale(ScenarioConfig::small_scale()),
            &EngineKind::DISTRIBUTED,
        );
        if want("fig4") {
            print_fig(d.subscription_load("fig4"));
        }
        if want("fig5") {
            print_fig(d.event_load("fig5"));
        }
        small = Some(d);
    }
    if want("fig6") || want("fig7") || want("fig12") {
        // the medium setting also includes the Centralized baseline (§VI-D)
        let d = run(
            "medium-scale",
            maybe_scale(ScenarioConfig::medium_scale()),
            &EngineKind::ALL,
        );
        if want("fig6") {
            print_fig(d.subscription_load("fig6"));
        }
        if want("fig7") {
            print_fig(d.event_load("fig7"));
        }
        medium = Some(d);
    }
    if want("fig7b") {
        let d = run(
            "medium-high-rate",
            maybe_scale(fsf_bench::figures::high_rate_config()),
            &EngineKind::ALL,
        );
        print_fig(d.event_load("fig7b"));
    }
    if want("fig8") || want("fig9") || want("fig12") {
        let d = run(
            "large-network",
            maybe_scale(ScenarioConfig::large_network()),
            &EngineKind::DISTRIBUTED,
        );
        if want("fig8") {
            print_fig(d.subscription_load("fig8"));
        }
        if want("fig9") {
            print_fig(d.event_load("fig9"));
        }
        large_net = Some(d);
    }
    if want("fig10") || want("fig11") || want("fig12") {
        let d = run(
            "large-sources",
            maybe_scale(ScenarioConfig::large_sources()),
            &EngineKind::DISTRIBUTED,
        );
        if want("fig10") {
            print_fig(d.subscription_load("fig10"));
        }
        if want("fig11") {
            print_fig(d.event_load("fig11"));
        }
        large_src = Some(d);
    }
    if want("fig12") {
        let datas: Vec<(&str, &FigureData)> = [
            ("Small scale", &small),
            ("Medium scale", &medium),
            ("Large scale #1", &large_net),
            ("Large scale #2", &large_src),
        ]
        .iter()
        .filter_map(|(l, d)| d.as_ref().map(|d| (*l, d)))
        .collect();
        print_fig(figure12(&datas));
    }

    // ablations run on a scaled medium setting unless the user scales
    // explicitly
    let abl_cfg = if scale < 1.0 {
        ScenarioConfig::medium_scale().scaled(scale)
    } else {
        ScenarioConfig::medium_scale().scaled(0.3)
    };
    if want("abl1") {
        let t0 = Instant::now();
        let (a, b) = ablations::abl1_error_probability(&abl_cfg);
        eprintln!("[abl1] {:.1?}", t0.elapsed());
        print_fig(a);
        print_fig(b);
    }
    if want("abl2") {
        let t0 = Instant::now();
        let f = ablations::abl2_filter_policy(&abl_cfg);
        eprintln!("[abl2] {:.1?}", t0.elapsed());
        print_fig(f);
    }
    if want("abl3") {
        let t0 = Instant::now();
        let f = ablations::abl3_dedup(&abl_cfg);
        eprintln!("[abl3] {:.1?}", t0.elapsed());
        print_fig(f);
    }
    if want("abl4") {
        let t0 = Instant::now();
        let f = ablations::abl4_arity(&abl_cfg);
        eprintln!("[abl4] {:.1?}", t0.elapsed());
        print_fig(f);
    }
    if want("ext1") {
        let t0 = Instant::now();
        let f = ablations::ext1_topk(&abl_cfg);
        eprintln!("[ext1] {:.1?}", t0.elapsed());
        print_fig(f);
    }
    ExitCode::SUCCESS
}

fn print_fig(f: Figure) {
    println!("{}", f.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn known_targets_and_scale_parse() {
        let a = parse(&["table1", "fig5", "--scale", "0.1"]).unwrap();
        assert_eq!(a.targets, BTreeSet::from(["table1", "fig5"]));
        assert_eq!(a.scale, 0.1);
        assert_eq!(parse(&["--scale", "1"]).unwrap().scale, 1.0);
    }

    #[test]
    fn no_target_or_all_means_every_target() {
        for args in [&[][..], &["all"], &["fig4", "all"]] {
            let a = parse(args).unwrap();
            assert_eq!(a.targets, BTreeSet::from(TARGETS), "{args:?}");
            assert_eq!(a.scale, 1.0);
        }
    }

    #[test]
    fn unknown_targets_are_rejected() {
        for stale in ["ext2", "ext8", "nosuch", "--json"] {
            let e = parse(&["table1", stale]).unwrap_err();
            assert!(e.contains(stale), "{e}");
        }
    }

    #[test]
    fn scales_outside_the_unit_interval_are_rejected() {
        for bad in ["0", "-0.5", "1.5", "NaN", "x"] {
            assert!(parse(&["fig4", "--scale", bad]).is_err(), "{bad}");
        }
        assert!(parse(&["fig4", "--scale"]).is_err(), "missing value");
    }
}
