//! Cross-engine integration: on identical workloads, all five approaches
//! must deliver semantically identical results (modulo FSF's configurable
//! recall), while their traffic obeys the paper's ordering.

use fsf::engines::EngineKind;
use fsf::model::SubId;
use fsf::network::difference;
use fsf::workload::driver::run_kind;
use fsf::workload::{ScenarioConfig, Workload};

fn workload() -> Workload {
    Workload::generate(&ScenarioConfig::tiny())
}

#[test]
fn deterministic_engines_agree_on_every_delivered_event() {
    let w = workload();
    let runs: Vec<_> = [
        EngineKind::Centralized,
        EngineKind::Naive,
        EngineKind::OperatorPlacement,
        EngineKind::MultiJoin,
    ]
    .into_iter()
    .map(|k| {
        let mut engine = k
            .builder(w.topology.clone())
            .validity(w.config.event_validity())
            .seed(42)
            .build();
        let r = fsf::workload::run_engine(&w, engine.as_mut());
        (k, engine, r)
    })
    .collect();

    // per-subscription delivered event sets must be identical across the
    // exact engines
    let reference = &runs[0].1;
    for sub_id in 0..w.total_subs() as u64 {
        let expected = reference.deliveries().delivered(SubId(sub_id));
        for (k, engine, _) in &runs[1..] {
            assert_eq!(
                engine.deliveries().delivered(SubId(sub_id)),
                expected,
                "{k} diverged on subscription {sub_id}"
            );
        }
    }
}

#[test]
fn fsf_deliveries_are_a_subset_of_ground_truth() {
    let w = workload();
    let mut exact = EngineKind::Naive
        .builder(w.topology.clone())
        .validity(w.config.event_validity())
        .seed(42)
        .build();
    fsf::workload::run_engine(&w, exact.as_mut());
    let mut fsf_engine = EngineKind::FilterSplitForward
        .builder(w.topology.clone())
        .validity(w.config.event_validity())
        .seed(42)
        .build();
    fsf::workload::run_engine(&w, fsf_engine.as_mut());

    for sub_id in 0..w.total_subs() as u64 {
        let truth = exact.deliveries().delivered(SubId(sub_id));
        let got = fsf_engine.deliveries().delivered(SubId(sub_id));
        assert!(
            difference(got, truth).next().is_none(),
            "FSF delivered events outside ground truth for s{sub_id}"
        );
    }
}

#[test]
fn paper_traffic_ordering_holds_on_the_tiny_setting() {
    let w = workload();
    let result = |k| run_kind(&w, k, 42);
    let centralized = result(EngineKind::Centralized);
    let naive = result(EngineKind::Naive);
    let op = result(EngineKind::OperatorPlacement);
    let mj = result(EngineKind::MultiJoin);
    let fsf_r = result(EngineKind::FilterSplitForward);

    // subscription load (paper Figs. 4/6): centralized lowest; naive highest;
    // FSF at or below pairwise approaches
    let (sc, sn, so, sm, sf) = (
        centralized.last().sub_forwards,
        naive.last().sub_forwards,
        op.last().sub_forwards,
        mj.last().sub_forwards,
        fsf_r.last().sub_forwards,
    );
    assert!(sc <= sf, "centralized {sc} must be lowest (fsf {sf})");
    assert!(sn >= so, "naive {sn} >= op {so}");
    assert!(so >= sf, "op {so} >= fsf {sf}");
    assert!(sm >= sf, "mj {sm} >= fsf {sf}");

    // event load (paper Figs. 5/7): naive highest among distributed; FSF
    // lowest overall
    let (en, eo, em, ef) = (
        naive.last().event_units,
        op.last().event_units,
        mj.last().event_units,
        fsf_r.last().event_units,
    );
    assert!(en >= eo, "naive {en} >= op {eo}");
    assert!(eo >= ef, "op {eo} >= fsf {ef}");
    assert!(em >= ef, "mj {em} >= fsf {ef}");
}

#[test]
fn recall_bands_match_the_paper() {
    let w = workload();
    for k in [
        EngineKind::Centralized,
        EngineKind::Naive,
        EngineKind::OperatorPlacement,
        EngineKind::MultiJoin,
    ] {
        let r = run_kind(&w, k, 42);
        assert!(
            (r.min_recall() - 1.0).abs() < 1e-12,
            "{k} is deterministic and must reach 100% recall, got {}",
            r.min_recall()
        );
    }
    let fsf_r = run_kind(&w, EngineKind::FilterSplitForward, 42);
    assert!(
        fsf_r.min_recall() > 0.80,
        "FSF recall collapsed: {}",
        fsf_r.min_recall()
    );
    assert!(fsf_r.min_recall() <= 1.0 + 1e-12);
}

#[test]
fn results_are_independent_of_engine_construction_order() {
    let w = workload();
    let a = run_kind(&w, EngineKind::MultiJoin, 42);
    let b = run_kind(&w, EngineKind::MultiJoin, 1234);
    // the multi-join engine has no randomness: seed must not matter
    assert_eq!(a.points, b.points);
}
