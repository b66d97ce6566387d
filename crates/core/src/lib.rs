//! # fsf-core
//!
//! The paper's contribution: **Filter-Split-Forward** processing of
//! continuous multi-join queries (paper §V), implemented as a configurable
//! publish/subscribe node ([`PubSubNode`]) on top of the `fsf-network`
//! substrate.
//!
//! One node type covers three of the paper's five approaches, because they
//! share the advertisement / subscription / event propagation skeleton
//! (Algorithms 1–5) and differ only along two axes of Table II:
//!
//! | approach            | subscription filtering | event propagation    |
//! |---------------------|------------------------|----------------------|
//! | Naive               | none                   | per-subscription     |
//! | Operator placement  | pairwise               | per-subscription     |
//! | Filter-Split-Forward| set filtering          | per-neighbor (dedup) |
//!
//! Both axes are [`PubSubConfig`] knobs ([`FilterPolicy`] and
//! [`DedupMode`]), which also gives the ablation studies for free. The
//! multi-join and centralized baselines have structurally different
//! propagation and live in `fsf-engines`.
//!
//! Module map:
//!
//! * [`msg`] — [`Msg`], the one message enum of every advertisement-flooding
//!   engine, generic over the operator it forwards and the key it withdraws
//!   by ([`PubSubMsg`] here, `MjMsg` in `fsf-engines`);
//! * [`store`] — per-neighbor state of Fig. 2: `DSA_m` advertisement stores
//!   and `S_m` subscription stores (covered/uncovered). [`AdvStore`] is
//!   also the advertisement plane: Algorithm 1's flood and the
//!   generation-ordered retraction, move, repair and heal handlers, written
//!   once for both engine families;
//! * [`events`] — the timestamp-indexed event store `U` with validity-based
//!   expiry and `sendTo` flags (per link, per operator-stream, or per local
//!   subscription), and the [`events::Correlator`] every engine matches
//!   through (pass → envelope → reduced band → match → dedup → mark, over
//!   bands borrowed from it);
//! * [`node`] — [`PubSubNode`]: Algorithms 1 (advertisement propagation),
//!   2–4 (filter / split / forward), 5 (event propagation and complex-event
//!   delivery);
//! * [`ranking`] — the §VII "future work" extension: rank candidate result
//!   events and forward only the top-k per link.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod events;
pub mod msg;
pub mod node;
pub mod ranking;
pub mod store;

pub use events::{EventStore, SentScope};
pub use msg::Msg;
pub use node::{DedupMode, PubSubConfig, PubSubMsg, PubSubNode, StorageStats};
pub use ranking::RankPolicy;
pub use store::{AdvStore, Origin, Resplit, SubStore};

// Re-export the policy types callers configure nodes with.
pub use fsf_subsumption::{FilterPolicy, SetFilterConfig};
