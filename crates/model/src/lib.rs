//! # fsf-model
//!
//! The query and data model from §IV of *Continuous Query Evaluation over
//! Distributed Sensor Networks* (Jurca et al., ICDE 2010).
//!
//! This crate is the shared vocabulary of the whole workspace:
//!
//! * sensors produce [`Event`]s `(a_d, p_d, v, t)` and announce themselves via
//!   [`Advertisement`]s `(a_d, p_d)`;
//! * users register [`Subscription`]s — either *identified* (range filters over
//!   explicitly named sensors) or *abstract* (range filters over attribute
//!   types bounded to a spatial [`Region`]), with a temporal correlation
//!   distance `δt` and an optional spatial correlation distance `δl`;
//! * subscriptions are split en route into [`Operator`]s (correlation
//!   operators), projections of a subscription onto a subset of its
//!   dimensions;
//! * [`matching`] implements the complex-event matching semantics
//!   (completeness, per-event filters, `t = max tᵢ`, `|t − tᵢ| < δt`, and the
//!   `δl` pairwise-distance condition for abstract subscriptions).
//!
//! Everything here is engine-agnostic: the network layer, the
//! Filter-Split-Forward engine, and all four baseline engines build on these
//! types.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod advertisement;
pub mod catalog;
pub mod error;
pub mod event;
pub mod filter;
pub mod ids;
pub mod location;
pub mod matching;
pub mod operator;
pub mod subscription;
pub mod time;
pub mod value;

pub use advertisement::Advertisement;
pub use catalog::{attrs, AttrCatalog};
pub use error::ModelError;
pub use event::{ComplexEvent, Event, EventId};
pub use filter::{DimKey, Predicate};
pub use ids::{AttrId, SensorId, SubId};
pub use location::{Point, Rect, Region};
pub use matching::{complex_match, MatchOutcome, Matcher};
pub use operator::{DimSignature, Operator, OperatorKey};
pub use subscription::{Subscription, SubscriptionKind};
pub use time::Timestamp;
pub use value::ValueRange;
