//! # fsf-network
//!
//! The network substrate the paper's system runs on (§IV-B "System Model"):
//! processing nodes connected in an **acyclic graph**, exchanging
//! advertisements, subscriptions and events, with *network traffic* as the
//! metric of interest.
//!
//! The paper evaluated on a Xen cluster of 60–200 paravirtualised VMs; the
//! metrics it reports (subscription load = operators forwarded over links,
//! publication load = simple-event data units forwarded over links) are
//! properties of the algorithms and the topology, not of timing. This crate
//! therefore provides:
//!
//! * [`topology`] — validated tree topologies, unique-path routing, the
//!   graph median (the "central node with the minimum pairwise distance to
//!   all other nodes" used by the Centralized baseline), and builders
//!   including the SensorScope-style clustered layout of §VI-A;
//! * [`traffic`] — per-kind and per-link traffic accounting;
//! * [`latency`] — deterministic per-link message-latency models and
//!   delivery-latency summaries (p50/p95/max virtual ticks);
//! * [`node`] — the seam engines are written against: the
//!   [`NodeBehavior`] trait, the per-message [`Ctx`] (send, deliver,
//!   virtual clock) and the [`DeliveryLog`] — append now, settle at the
//!   `&mut` boundary, readers assert settled (the settle-then-borrow rule
//!   of `fsf_subsumption::RangeIndex`). The same trait is executed by
//!   real OS threads and async tasks in `fsf-runtime`, demonstrating the
//!   node logic under genuine concurrency;
//! * [`sim`] — the one deterministic **discrete-event** [`Simulator`]:
//!   everything below `NodeBehavior` and above the queue (virtual clock,
//!   partial advancement via [`Simulator::run_until`], inject, sever/heal,
//!   crash + purge, recovery, the conservation ledger), over one of two
//!   queue disciplines picked from the requested shard count;
//! * `heap` — the 1-shard discipline: a timestamped priority queue ordered
//!   by `(deliver_at, seq)`, whose zero-latency mode reproduces the legacy
//!   run-to-quiescence FIFO order exactly (see the `sim` module docs for
//!   the event-clock semantics, the tie-breaking rule, and the compat
//!   guarantee);
//! * [`shard`] — the many-shard discipline: a [`ShardPlan`] of connected
//!   subtrees, per-shard calendar queues, and conservative Chandy–Misra
//!   lookahead rounds that advance shards on worker threads while staying
//!   event-for-event equal to the heap;
//! * [`liveness`] — the heartbeat failure detector as one pure state
//!   machine (suspicion, unanimity of live neighbors, re-admission), driven
//!   by the simulator's beat on every shard count and by the async host's
//!   probe rounds.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod builders;
mod heap;
pub mod latency;
pub mod liveness;
pub mod node;
pub mod shard;
pub mod sim;
#[cfg(test)]
mod tests;
pub mod topology;
pub mod traffic;

pub use builders::ClusteredLayout;
pub use latency::{LatencyModel, LatencySummary};
pub use node::{difference, Ctx, DeliveryLog, NodeBehavior};
pub use shard::ShardPlan;
pub use sim::{Backend, Simulator};
pub use topology::{NodeId, RegraftDelta, Topology, TopologyError};
pub use traffic::{ChargeKind, TrafficStats};
