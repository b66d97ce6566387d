//! Ablation studies for the design choices DESIGN.md calls out, plus the
//! §VII "future work" extension benchmark.

use crate::render::{Figure, Series};
use crate::ENGINE_SEED;
use fsf_core::{DedupMode, FilterPolicy, PubSubConfig, RankPolicy, SetFilterConfig};
use fsf_engines::{PubSubProto, SimEngine};
use fsf_workload::driver::run_engine;
use fsf_workload::{ExperimentResult, ScenarioConfig, Workload};

fn run_config(w: &Workload, name: &'static str, config: PubSubConfig) -> ExperimentResult {
    let mut engine = SimEngine::new(w.topology.clone(), PubSubProto::new(name, config));
    run_engine(w, &mut engine)
}

fn fsf_config(w: &Workload) -> PubSubConfig {
    PubSubConfig::fsf(w.config.event_validity(), ENGINE_SEED)
}

/// ABL-1 — the set filter's error-probability knob (§VI-F): traffic saved
/// vs recall lost, sweeping `ε` (with `γ = ε` for a one-dimensional knob).
#[must_use]
pub fn abl1_error_probability(config: &ScenarioConfig) -> (Figure, Figure) {
    let w = Workload::generate(config);
    let mut sub = Vec::new();
    let mut recall = Vec::new();
    for eps in [0.001, 0.02, 0.1, 0.3] {
        let mut c = fsf_config(&w);
        c.filter = FilterPolicy::SetFilter(SetFilterConfig {
            error_prob: eps,
            min_gap: eps,
        });
        let r = run_config(&w, "fsf", c);
        let label = format!("ε = {eps}");
        sub.push(Series {
            label: label.clone(),
            points: r
                .points
                .iter()
                .map(|p| (p.subs_injected, p.sub_forwards as f64))
                .collect(),
        });
        recall.push(Series {
            label,
            points: r
                .points
                .iter()
                .map(|p| (p.subs_injected, p.recall * 100.0))
                .collect(),
        });
    }
    (
        Figure {
            id: "abl1-subload".into(),
            title: format!(
                "set-filter error probability vs subscription load ({})",
                w.config.name
            ),
            y_label: "number of forwarded queries".into(),
            series: sub,
        },
        Figure {
            id: "abl1-recall".into(),
            title: format!("set-filter error probability vs recall ({})", w.config.name),
            y_label: "end user recall (%)".into(),
            series: recall,
        },
    )
}

/// ABL-2 — the filtering axis in isolation: the FSF node with no filtering,
/// pairwise coverage, and full set filtering (event machinery fixed).
#[must_use]
pub fn abl2_filter_policy(config: &ScenarioConfig) -> Figure {
    let w = Workload::generate(config);
    let mut series = Vec::new();
    for (label, policy) in [
        ("no filtering", FilterPolicy::None),
        ("pairwise", FilterPolicy::Pairwise),
        (
            "set filtering",
            FilterPolicy::SetFilter(SetFilterConfig::paper_default()),
        ),
    ] {
        let mut c = fsf_config(&w);
        c.filter = policy;
        let r = run_config(&w, "fsf-variant", c);
        series.push(Series {
            label: label.into(),
            points: r
                .points
                .iter()
                .map(|p| (p.subs_injected, p.sub_forwards as f64))
                .collect(),
        });
    }
    Figure {
        id: "abl2".into(),
        title: format!(
            "subscription filtering technique vs subscription load ({})",
            w.config.name
        ),
        y_label: "number of forwarded queries".into(),
        series,
    }
}

/// ABL-3 — the event-propagation axis in isolation: per-link
/// publish/subscribe dedup vs per-operator result streams (set filtering
/// fixed).
#[must_use]
pub fn abl3_dedup(config: &ScenarioConfig) -> Figure {
    let w = Workload::generate(config);
    let mut series = Vec::new();
    for (label, dedup) in [
        ("per-neighbor (pub/sub)", DedupMode::PerLink),
        ("per-subscription streams", DedupMode::PerOperator),
    ] {
        let mut c = fsf_config(&w);
        c.dedup = dedup;
        let r = run_config(&w, "fsf-variant", c);
        series.push(Series {
            label: label.into(),
            points: r
                .points
                .iter()
                .map(|p| (p.subs_injected, p.event_units as f64))
                .collect(),
        });
    }
    Figure {
        id: "abl3".into(),
        title: format!(
            "result-set dedup granularity vs event load ({})",
            w.config.name
        ),
        y_label: "number of forwarded data units".into(),
        series,
    }
}

/// ABL-4 — binary joins degrade with arity (§VI-C): multi-join vs FSF event
/// load as the number of attributes per subscription grows.
#[must_use]
pub fn abl4_arity(base: &ScenarioConfig) -> Figure {
    use fsf_engines::EngineKind;
    use fsf_workload::driver::run_kind;
    let mut mj = Vec::new();
    let mut fsf = Vec::new();
    let mut ratio = Vec::new();
    for k in 2..=5usize {
        let mut c = base.clone();
        c.min_attrs = k;
        c.max_attrs = k;
        c.name = format!("{}-k{k}", base.name);
        let w = Workload::generate(&c);
        let m = run_kind(&w, EngineKind::MultiJoin, ENGINE_SEED);
        let f = run_kind(&w, EngineKind::FilterSplitForward, ENGINE_SEED);
        let (me, fe) = (m.last().event_units as f64, f.last().event_units as f64);
        mj.push((k as u64, me));
        fsf.push((k as u64, fe));
        ratio.push((k as u64, if fe > 0.0 { me / fe } else { f64::NAN }));
    }
    Figure {
        id: "abl4".into(),
        title: "binary-join approximation quality vs subscription arity (x = attributes)".into(),
        y_label: "final forwarded data units (and multi-join/FSF ratio)".into(),
        series: vec![
            Series {
                label: "Distributed multi-join".into(),
                points: mj,
            },
            Series {
                label: "Filter-Split-Forward".into(),
                points: fsf,
            },
            Series {
                label: "multi-join ÷ FSF".into(),
                points: ratio,
            },
        ],
    }
}

/// EXT-1 — §VII outlook: top-k ranked event forwarding, traffic vs recall.
#[must_use]
pub fn ext1_topk(config: &ScenarioConfig) -> Figure {
    let w = Workload::generate(config);
    let mut events = Vec::new();
    let mut recall = Vec::new();
    for (x, rank) in [
        (1u64, RankPolicy::TopK(1)),
        (2, RankPolicy::TopK(2)),
        (4, RankPolicy::TopK(4)),
        (u64::from(u32::MAX), RankPolicy::All),
    ] {
        let mut c = fsf_config(&w);
        c.rank = rank;
        let r = run_config(&w, "fsf-topk", c);
        events.push((x, r.last().event_units as f64));
        recall.push((x, r.last().recall * 100.0));
    }
    Figure {
        id: "ext1".into(),
        title: format!(
            "top-k ranked event forwarding (§VII outlook) — x = k, {} (k = 4294967295 means ∞)",
            w.config.name
        ),
        y_label: "final forwarded data units / recall %".into(),
        series: vec![
            Series {
                label: "event load".into(),
                points: events,
            },
            Series {
                label: "recall (%)".into(),
                points: recall,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ScenarioConfig {
        ScenarioConfig::tiny()
    }

    #[test]
    fn abl1_more_samples_never_hurt_recall_ordering() {
        let (sub, recall) = abl1_error_probability(&cfg());
        assert_eq!(sub.series.len(), 4);
        assert_eq!(recall.series.len(), 4);
        // sloppier filters cannot *increase* subscription traffic
        let strict = sub.final_value("ε = 0.001").unwrap();
        let sloppy = sub.final_value("ε = 0.3").unwrap();
        assert!(sloppy <= strict, "sloppy {sloppy} vs strict {strict}");
    }

    #[test]
    fn abl2_filtering_strictly_orders_subscription_load() {
        let f = abl2_filter_policy(&cfg());
        let none = f.final_value("no filtering").unwrap();
        let pw = f.final_value("pairwise").unwrap();
        let set = f.final_value("set filtering").unwrap();
        assert!(none >= pw, "{none} vs {pw}");
        assert!(pw >= set, "{pw} vs {set}");
    }

    #[test]
    fn abl3_pubsub_dedup_reduces_event_load() {
        let f = abl3_dedup(&cfg());
        let perlink = f.final_value("per-neighbor (pub/sub)").unwrap();
        let perop = f.final_value("per-subscription streams").unwrap();
        assert!(perlink <= perop, "{perlink} vs {perop}");
    }

    #[test]
    fn ext1_capping_reduces_traffic() {
        let f = ext1_topk(&cfg());
        let series = &f.series[0].points;
        assert!(
            series[0].1 <= series.last().unwrap().1,
            "k=1 cannot exceed unlimited"
        );
    }
}
