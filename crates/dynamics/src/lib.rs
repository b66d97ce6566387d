//! # fsf-dynamics
//!
//! The churn, retraction and fault-injection subsystem: everything the
//! static paper reproduction lacked about *change*. The paper's system
//! model (§IV-B) says subscriptions "are valid until explicitly removed"
//! and targets long-lived sensor deployments — so a faithful system must
//! survive sensors departing, users unsubscribing, and nodes crashing.
//!
//! * [`plan`] — [`ChurnPlan`]: a deterministic sequence of
//!   [`ChurnAction`]s (sensor up/down, subscribe/unsubscribe, publish,
//!   node crash, link sever/heal), either scripted by hand or generated
//!   from a seed over any topology, plus the teardown suffix that
//!   retracts everything that is still alive. Partition plans
//!   ([`ChurnPlan::seeded_partition`]) cut one tree edge, publish through
//!   the split, and heal; their never-partitioned
//!   [`ChurnPlan::connected_twin`] plus the reachability
//!   [`ChurnPlan::partition_oracle`] give an exact delivery oracle;
//! * [`runner`] — replays a plan through any [`fsf_engines::Engine`]
//!   (all five approaches speak the retraction protocol), either
//!   serialized (flush per action) or timed ([`run_plan_timed`]: actions
//!   fire at their [`TimedPlan`] virtual times while earlier floods are
//!   still in flight);
//! * [`invariants`] — leak checks: a fully torn-down network must return
//!   to its post-bootstrap state — no operators, no stored events, no
//!   advertisements, no forwarding routes on any surviving node;
//! * [`truth`] — the routing-truth oracle: from the actions alone, where
//!   every live node must file every live sensor's advertisement on the
//!   current topology, and at which generation.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod invariants;
pub mod plan;
pub mod runner;
pub mod truth;

pub use invariants::{assert_clean, leaks};
pub use plan::{
    ChurnAction, ChurnPlan, ChurnPlanConfig, PartitionOracle, PartitionPlanConfig, TimedAction,
    TimedPlan, TimedReplayConfig,
};
pub use runner::{apply_action, run_plan, run_plan_timed, run_plan_timed_traced, run_plan_traced};
pub use truth::{run_plan_checked, RoutingTruth, TruthChecks};
