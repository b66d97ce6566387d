//! The `timed` experiment scenario: delivery latency under the
//! discrete-event clock.
//!
//! The paper's evaluation measures traffic, which is timing-free; the
//! response-time axis the related continuous-query work measures (query
//! assignment under response-time constraints, mobile continuous-query
//! monitoring) needs real propagation delay. This scenario replays a
//! seeded churn plan **timed** — actions fire at their virtual timestamps
//! with no per-action flushes, floods genuinely interleave — through all
//! five engines over a network with per-hop latency, and reports the
//! delivery-latency distribution (p50/p95/max virtual ticks from reading
//! injection to complex-event delivery) alongside the delivered volume.

use fsf_dynamics::{run_plan_timed, ChurnPlan, ChurnPlanConfig, TimedReplayConfig};
use fsf_engines::EngineKind;
use fsf_network::{builders, LatencyModel, LatencySummary};

/// Parameters of the timed-latency experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedConfig {
    /// Scenario name (reports).
    pub name: String,
    /// Network size: a balanced binary tree of this many nodes.
    pub total_nodes: usize,
    /// The plan generator's parameters.
    pub plan: ChurnPlanConfig,
    /// Event-store validity horizon (must exceed the plan's `δt`).
    pub event_validity: u64,
    /// Engine seed (feeds the probabilistic set filter).
    pub engine_seed: u64,
    /// Message latency model (nonzero, or every latency reads 0).
    pub latency: LatencyModel,
}

impl TimedConfig {
    /// The default timed setting: the churn scenario's 127-node tree with
    /// one virtual tick per hop.
    #[must_use]
    pub fn paper_scale() -> Self {
        let plan = ChurnPlanConfig {
            seed: 0x7173_ED00,
            initial_sensors: 12,
            churn_actions: 60,
            events_per_action: 4,
            ..ChurnPlanConfig::default()
        };
        TimedConfig {
            name: "timed".into(),
            total_nodes: 127,
            event_validity: 2 * plan.delta_t,
            engine_seed: 42,
            latency: LatencyModel::Uniform { hop: 1 },
            plan,
        }
    }

    /// Scale down the churn volume (quick CI/bench runs), keeping network
    /// dimensions and latency intact.
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor <= 1.0, "factor in (0, 1]");
        let s = |v: usize| ((v as f64 * factor).round() as usize).max(1);
        self.plan.churn_actions = s(self.plan.churn_actions).max(10);
        self.plan.events_per_action = s(self.plan.events_per_action).max(3);
        self.name = format!("{}(x{factor})", self.name);
        self
    }
}

/// One engine's measurements over the timed scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedRow {
    /// The engine.
    pub engine: EngineKind,
    /// Distinct `(subscription, simple event)` pairs delivered.
    pub delivered_units: u64,
    /// Delivery-latency percentiles (virtual ticks).
    pub latency: LatencySummary,
    /// Virtual time at quiescence.
    pub final_clock: u64,
}

/// Run the timed scenario through all five engines (the centralized
/// baseline's round trip through the centre is the interesting latency
/// contrast).
#[must_use]
pub fn run_timed(config: &TimedConfig) -> Vec<TimedRow> {
    let topology = builders::balanced(config.total_nodes, 2);
    let plan = ChurnPlan::seeded(&topology, &config.plan).with_teardown();
    let timed = plan.timed(&TimedReplayConfig::drained(&topology, &config.latency));
    EngineKind::ALL
        .iter()
        .map(|&kind| {
            let mut engine = kind
                .builder(topology.clone())
                .validity(config.event_validity)
                .seed(config.engine_seed)
                .latency(config.latency.clone())
                .build();
            let final_clock = run_plan_timed(engine.as_mut(), &timed);
            TimedRow {
                engine: kind,
                delivered_units: engine.deliveries().total_event_units(),
                latency: engine.latency_summary(),
                final_clock,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TimedConfig {
        let mut c = TimedConfig::paper_scale();
        c.total_nodes = 31;
        c.plan.churn_actions = 12;
        c.plan.initial_sensors = 6;
        c
    }

    #[test]
    fn timed_rows_report_nonzero_latency_for_every_engine() {
        let rows = run_timed(&tiny());
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(row.delivered_units > 0, "{}: delivered nothing", row.engine);
            assert!(row.latency.samples > 0, "{}: no samples", row.engine);
            assert!(row.latency.max > 0, "{}: instantaneous?", row.engine);
            assert!(
                row.latency.p50 <= row.latency.p95 && row.latency.p95 <= row.latency.max,
                "{}: percentile ordering",
                row.engine
            );
            assert!(row.final_clock > 0);
        }
        // the centralized baseline routes everything through the centre:
        // its median latency cannot beat the distributed engines' best
        let central = rows
            .iter()
            .find(|r| r.engine == EngineKind::Centralized)
            .unwrap();
        let best_distributed_p50 = rows
            .iter()
            .filter(|r| r.engine != EngineKind::Centralized)
            .map(|r| r.latency.p50)
            .min()
            .unwrap();
        assert!(central.latency.p50 >= best_distributed_p50);
    }

    #[test]
    fn timed_runs_are_reproducible() {
        assert_eq!(run_timed(&tiny()), run_timed(&tiny()));
    }

    #[test]
    fn scaling_shrinks_the_plan_not_the_network() {
        let c = TimedConfig::paper_scale().scaled(0.5);
        assert_eq!(c.plan.churn_actions, 30);
        assert_eq!(c.total_nodes, 127);
        assert_eq!(c.latency, LatencyModel::Uniform { hop: 1 });
    }
}
