//! # fsf-bench
//!
//! The harness that regenerates every table and figure of the paper's
//! evaluation (§VI), plus the ablations DESIGN.md calls out.
//!
//! * `cargo run --release -p fsf-bench --bin figures -- all` — full paper
//!   runs, printing one aligned table per figure (the series the paper
//!   plots);
//! * the `trace` binary records and reconciles one telemetry trace, and
//!   `soak` replays a churn plan on a 10k-node async deployment.
//!
//! All runs are deterministic (workload seeds live in the scenario configs;
//! engine seeds are fixed here). The facade crate's `tests/golden_ledger.rs`
//! pins the figures' counts at reduced scale; timing lives in the repo
//! benchmark (`benchmark/`).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod ablations;
pub mod figures;
pub mod render;

pub use figures::{run_scenario, FigureData};
pub use render::Figure;

/// The fixed engine seed used by every benchmark run (the probabilistic set
/// filter derives per-node seeds from it).
pub const ENGINE_SEED: u64 = 42;
