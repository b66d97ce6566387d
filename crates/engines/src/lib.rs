//! # fsf-engines
//!
//! The five approaches of the paper's evaluation (§VI, Table II), behind a
//! uniform [`Engine`] facade:
//!
//! | approach                    | filtering   | splitting    | events           |
//! |-----------------------------|-------------|--------------|------------------|
//! | [`EngineKind::Centralized`] | none        | none         | full result sets |
//! | [`EngineKind::Naive`]       | none        | simple       | full result sets |
//! | [`EngineKind::OperatorPlacement`] | pairwise | simple    | per subscription |
//! | [`EngineKind::MultiJoin`]   | pairwise    | binary joins | per neighbor     |
//! | [`EngineKind::FilterSplitForward`] | set filtering | simple | per neighbor |
//!
//! Naive, operator placement and Filter-Split-Forward are configurations of
//! `fsf-core`'s [`fsf_core::PubSubNode`]; the centralized and multi-join
//! approaches have structurally different propagation and are implemented
//! here ([`centralized`], [`multijoin`]).
//!
//! What differs per family from the wrappers' point of view is a
//! [`Protocol`] (three impls); the management plane around it exists once
//! per substrate: [`SimEngine`] on the simulator, a host-backed engine on
//! [`fsf_runtime::NodeHost`]. [`EngineBuilder`] picks one.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod api;
mod async_engine;
pub mod builder;
pub mod centralized;
pub mod multijoin;
pub mod protocol;
mod sim_engine;
pub mod wire;

pub use api::{
    AdvRoute, Engine, EngineControl, EngineData, EngineIntrospect, EngineKind, MobilityStats,
    NodeFootprint, RecoveryStats,
};
pub use builder::{ConfigError, Deploy, EngineBuilder};
pub use centralized::{CentralMsg, CentralNode};
pub use fsf_core::Origin;
pub use fsf_subsumption::MatchMode;
pub use multijoin::{MjMsg, MjNode};
pub use protocol::{CentralProto, MjProto, Protocol, PubSubProto};
pub use sim_engine::SimEngine;
