//! # fsf-workload
//!
//! The experimental workload of the paper's evaluation (§VI-A), rebuilt
//! synthetically:
//!
//! * [`sensorscope`] — value processes for the five measurement types the
//!   paper selects from the SensorScope Grand St. Bernard 2007 deployment
//!   (ambient/surface temperature, relative humidity, wind speed/direction).
//!   The real traces are not redistributable; the processes reproduce the
//!   properties the algorithms depend on: stable per-stream medians and
//!   station-correlated timestamps (see DESIGN.md, substitution 1);
//! * [`pareto`] — the paper's subscription-range generator: "ranges …
//!   centered around the median values in the corresponding stream, with an
//!   offset drawn from a Pareto distribution with a skew factor of 1";
//! * [`scenario`] — the four experiment settings (small / medium /
//!   large-network / large-sources) with the paper's node, sensor, group and
//!   subscription-batch counts;
//! * [`workload`] — a fully precomputed, deterministic workload (topology,
//!   sensors, subscription batches, event batches) so that *every engine
//!   replays exactly the same inputs*, as the paper requires;
//! * [`oracle`] — ground-truth matching for the event-recall metric
//!   (§VI-F), computed engine-independently;
//! * [`driver`] — runs any [`fsf_engines::Engine`] over a workload and
//!   produces per-batch measurement points (subscription load, event load,
//!   recall);
//! * [`flood`] — [`RelayFlood`], a raw relay flood over the bare node
//!   substrate that measures the event queue alone.
//!
//! The dynamic scenarios (churn, crash recovery, mobility, partitions) are
//! [`fsf_dynamics::ChurnPlan`]s; their costs are pinned per engine by the
//! facade crate's golden ledger test (`tests/golden_ledger.rs`).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod driver;
pub mod flood;
pub mod oracle;
pub mod pareto;
pub mod results;
pub mod scenario;
pub mod sensorscope;
pub mod workload;

pub use driver::run_engine;
pub use flood::RelayFlood;
pub use results::{BatchPoint, ExperimentResult};
pub use scenario::ScenarioConfig;
pub use workload::Workload;
