//! # fsf-subsumption
//!
//! Subscription subsumption machinery (paper §V-B and reference \[15\],
//! Ouksel et al., *Efficient Probabilistic Subsumption Checking for
//! Content-Based Publish/Subscribe Systems*, Middleware 2006).
//!
//! Three checkers, by increasing power:
//!
//! * [`pairwise::covers`] — exact single-operator coverage (`s ⊆ s'`), used
//!   by the *operator placement* and *multi-join* baselines;
//! * [`exact`] — an exact set-cover decision procedure over axis-aligned
//!   boxes (grid decomposition). Exponential in the dimension count, so it is
//!   used as a test oracle and for small operator groups only;
//! * [`monte_carlo`] — the probabilistic set-subsumption check with a
//!   configurable error probability, the reproduction of \[15\]. This is the
//!   *set filtering* of the Filter-Split-Forward engine (Algorithm 2). False
//!   positives ("covered" although a gap exists) are possible and translate
//!   into missed events (< 100% recall), exactly as the paper discusses in
//!   §VI-F.
//!
//! [`filter::SubscriptionFilter`] packages the three behind the policy knob
//! the engines use, and [`table::OperatorTable`] provides the
//! signature-grouped storage Algorithm 2 requires ("we compare only
//! subscriptions over the same attributes").
//!
//! The table is also the event path's candidate index: operators interned
//! in a slab, a [`RangeIndex`] over their value ranges and places storing
//! slab slots, and one rule for the data plane — *settle, then borrow*:
//! `settle()` after the control plane mutated (O(1) when it did not), then
//! any number of `&self` candidate queries that lend `&Operator`s out of
//! the slab ([`arrangement`] has the details).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod arrangement;
pub mod exact;
pub mod filter;
pub mod monte_carlo;
pub mod pairwise;
pub mod shape;
pub mod table;

pub use arrangement::{MatchMode, RangeIndex};
pub use filter::{FilterPolicy, SetFilterConfig, SubscriptionFilter};
pub use shape::{CoverShape, SamplePoint};
pub use table::OperatorTable;
