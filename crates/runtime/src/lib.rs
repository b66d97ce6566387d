//! # fsf-runtime
//!
//! Genuinely concurrent execution of the engines.
//!
//! The paper ran each node as a JVM on its own Xen VM; the deterministic
//! simulator in `fsf-network` reproduces the *metrics*, and this crate
//! reproduces the *execution model* — every [`fsf_network::NodeBehavior`]
//! implementation (Filter-Split-Forward, the baselines, or your own) runs
//! unmodified on real threads, with per-link message passing and no shared
//! node state. Integration tests verify that the hosted execution and the
//! simulator produce identical deliveries and traffic.
//!
//! [`host::NodeHost`] is the execution substrate: nodes as **async tasks**
//! on the vendored `miniloop` executor ([`HostMode::Executor`]) or one
//! dedicated OS thread each ([`HostMode::ThreadPerNode`]), **bounded
//! mailboxes** with park-don't-drop backpressure, the binary wire codec on
//! every link, per-link write batching, virtual-latency timestamps, and
//! churn support (crash/regraft/recover). A conservation ledger
//! (`scheduled == handled + dropped_to_downed`) reconciles at quiescence.
//!
//! [`codec`] provides the compact binary wire encoding ([`codec::WireMsg`])
//! for events, advertisements, subscriptions, operators, and the engines'
//! full message enums (what a real deployment would put on the sockets the
//! channels stand in for).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod codec;
pub mod host;

pub use codec::{WireMsg, WirePayload};
pub use host::{HostConfig, HostLedger, HostMode, NodeHost};
