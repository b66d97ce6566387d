//! The `partition` experiment scenario: delivery behavior **during and
//! after a network split**.
//!
//! A seeded [`ChurnPlan::seeded_partition`] bootstraps sensors on both
//! sides of the tree edge that splits most evenly, registers
//! single-filter full-span subscriptions (half on their sensor's side,
//! half across the cut), publishes a pre-split window, severs the edge,
//! publishes through the partition, heals it, and publishes again. Every
//! engine replays the plan next to its [`ChurnPlan::connected_twin`] —
//! the world in which the link never went down — and is judged by the
//! reachability [`ChurnPlan::partition_oracle`]:
//!
//! * **connected subscriptions** (reachable from their sensor throughout)
//!   must receive *exactly* the twin's deliveries — both halves keep
//!   serving what they can reach;
//! * **severed subscriptions** may lose only split-window readings: after
//!   the heal reconciliation (tombstones, generation-tagged repairs,
//!   forced re-splits) post-heal publishes must flow again, with no
//!   duplicates and no residue;
//! * the **severed-drop ledger** must be exact: every message scheduled
//!   across the cut is charged, counted, and never delivered.
//!
//! The centralized baseline routes everything through the collection
//! point, so its oracle is [`ChurnPlan::partition_oracle_via`] the
//! topology median.

use fsf_dynamics::{leaks, run_plan, ChurnPlan, PartitionPlanConfig};
use fsf_engines::EngineKind;
use fsf_network::{builders, difference};

/// Parameters of the partition experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionConfig {
    /// Scenario name (reports).
    pub name: String,
    /// Network size: a balanced binary tree of this many nodes.
    pub total_nodes: usize,
    /// The partition-plan generator's parameters.
    pub plan: PartitionPlanConfig,
    /// Event-store validity horizon for the engines (must exceed the
    /// plan's `δt`).
    pub event_validity: u64,
    /// Engine seed (feeds the probabilistic set filter).
    pub engine_seed: u64,
}

impl PartitionConfig {
    /// The default partition setting: a 63-node balanced tree, 6 sensors,
    /// 8 subscriptions, 12 readings per window.
    #[must_use]
    pub fn paper_scale() -> Self {
        let plan = PartitionPlanConfig::default();
        PartitionConfig {
            name: "partition".into(),
            total_nodes: 63,
            event_validity: 2 * plan.delta_t,
            engine_seed: 42,
            plan,
        }
    }

    /// Scale down the traffic volume (quick CI/bench runs), keeping the
    /// network dimensions and the split structure intact.
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor <= 1.0, "factor in (0, 1]");
        let s = |v: usize| ((v as f64 * factor).round() as usize).max(4);
        self.plan.events_per_phase = s(self.plan.events_per_phase);
        self.plan.subscriptions = s(self.plan.subscriptions);
        self.name = format!("{}(x{factor})", self.name);
        self
    }
}

/// One engine's measurements over the partition scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionRow {
    /// The engine.
    pub engine: EngineKind,
    /// Messages dropped at a severed link (the cut's exact ledger).
    pub dropped_severed: u64,
    /// Distinct `(subscription, simple event)` pairs the partitioned run
    /// delivered.
    pub delivered_units: u64,
    /// The same for the never-partitioned twin.
    pub twin_units: u64,
    /// Did every oracle-connected subscription receive exactly the twin's
    /// deliveries?
    pub connected_equal: bool,
    /// Did every oracle-severed subscription lose *only* split-window
    /// readings (and gain nothing spurious)?
    pub lost_in_split_only: bool,
    /// Delivered units relative to the twin — the partition's recall
    /// price, paid entirely by cross-cut split-window traffic.
    pub recall_vs_twin: f64,
    /// Did the teardown suffix leave every node empty in both runs?
    pub teardown_clean: bool,
}

/// Run the partition scenario through all five engines, each against its
/// own never-partitioned twin.
#[must_use]
pub fn run_partition(config: &PartitionConfig) -> Vec<PartitionRow> {
    let topology = builders::balanced(config.total_nodes, 2);
    let base = ChurnPlan::seeded_partition(&topology, &config.plan);
    let plan = base.clone().with_teardown();
    let twin_plan = base.connected_twin().with_teardown();
    EngineKind::ALL
        .iter()
        .map(|&kind| {
            let via = (kind == EngineKind::Centralized).then(|| topology.median());
            let oracle = base.partition_oracle_via(&topology, via);
            let mut p = kind.build(topology.clone(), config.event_validity, config.engine_seed);
            run_plan(p.as_mut(), &plan);
            let mut t = kind.build(topology.clone(), config.event_validity, config.engine_seed);
            run_plan(t.as_mut(), &twin_plan);
            let delivered = p.deliveries().total_event_units();
            let twin_units = t.deliveries().total_event_units();
            let connected_equal = oracle
                .connected_subs
                .iter()
                .all(|&s| p.deliveries().delivered(s) == t.deliveries().delivered(s));
            let lost_in_split_only = oracle.severed_subs.iter().all(|&s| {
                let got = p.deliveries().delivered(s);
                let want = t.deliveries().delivered(s);
                difference(got, want).next().is_none()
                    && difference(want, got).all(|e| oracle.split_events.contains(e))
            });
            PartitionRow {
                engine: kind,
                dropped_severed: p.dropped_severed(),
                delivered_units: delivered,
                twin_units,
                connected_equal,
                lost_in_split_only,
                recall_vs_twin: match (twin_units, delivered) {
                    (0, 0) => 1.0,
                    (0, _) => 0.0,
                    _ => delivered as f64 / twin_units as f64,
                },
                teardown_clean: leaks(p.as_mut()).is_empty() && leaks(t.as_mut()).is_empty(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PartitionConfig {
        let mut c = PartitionConfig::paper_scale();
        c.total_nodes = 31;
        c.plan.events_per_phase = 8;
        c.plan.subscriptions = 6;
        c
    }

    #[test]
    fn every_engine_serves_its_reachable_half_and_reconciles_on_heal() {
        let rows = run_partition(&tiny());
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(
                row.dropped_severed > 0,
                "{}: the cut carried traffic anyway?",
                row.engine
            );
            assert!(
                row.connected_equal,
                "{}: connected subscriptions diverged from the twin",
                row.engine
            );
            assert!(
                row.lost_in_split_only,
                "{}: severed subscriptions lost non-split-window deliveries",
                row.engine
            );
            assert!(
                row.recall_vs_twin > 0.0 && row.recall_vs_twin <= 1.0,
                "{}: recall {} out of range",
                row.engine,
                row.recall_vs_twin
            );
            assert!(row.teardown_clean, "{}: teardown leaked", row.engine);
        }
        // at least one engine actually paid a recall price during the
        // split (the generator aims half its subscriptions across the cut)
        assert!(
            rows.iter().any(|r| r.recall_vs_twin < 1.0),
            "no engine lost anything — the cut did not bite"
        );
    }

    #[test]
    fn partition_runs_are_reproducible() {
        assert_eq!(run_partition(&tiny()), run_partition(&tiny()));
    }

    #[test]
    fn scaling_keeps_the_network_and_renames() {
        let c = PartitionConfig::paper_scale().scaled(0.5);
        assert_eq!(c.total_nodes, 63);
        assert_eq!(c.plan.events_per_phase, 6);
        assert!(c.name.contains("x0.5"));
    }
}
