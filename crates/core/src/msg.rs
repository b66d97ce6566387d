//! The wire messages every advertisement-flooding engine speaks.
//!
//! The distributed approaches flood, retract, move and repair
//! advertisements by the same rules and differ only in what a subscription
//! becomes at a node. So one enum serves them all, generic over the
//! operator a node forwards (`O`) and the key it withdraws one by (`R`):
//! [`crate::PubSubMsg`] is `Msg<Operator, OperatorKey>`, and the
//! multi-join engine's `MjMsg` is `Msg<MjWireOp, SubId>`.

use fsf_model::{Advertisement, Event, SensorId, SubId, Subscription};

/// One message of an advertisement-flooding engine.
///
/// `SensorUp`, `SensorDown`, `Subscribe`, `Unsubscribe` and `Publish` are
/// *local injections* (the workload acting as local sensors/users); the
/// rest travel between nodes. The variant order is the wire tag order.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg<O, R> {
    /// A sensor appears at this node (Algorithm 1, lines 2–7).
    SensorUp(Advertisement),
    /// A flooded advertisement from a neighbor (Algorithm 1, lines 8–13).
    Adv(Advertisement),
    /// A local sensor departs: retract its advertisement, garbage-collect
    /// its stored events, and withdraw the operator projections that relied
    /// on it (the churn counterpart of `SensorUp`).
    SensorDown(SensorId),
    /// A flooded advertisement retraction from a neighbor — retraces the
    /// `Adv` flood with the same idempotence. The generation is the one the
    /// retraction *retired*: the retraction host bumps its known generation
    /// by one, so the flood is ordered against concurrent `Move` floods — a
    /// retraction straggler cannot wipe a route a newer `Move` established,
    /// and a `Move` straggler cannot resurrect a newer retraction.
    AdvDown(SensorId, u64),
    /// An advertisement repair (crash recovery's seam offer, a heal offer,
    /// or a relay of either), carrying the sensor's advertisement
    /// generation. Unlike `Adv`, a repair is **not** absorbed by the
    /// seen-set: it fills a hole, re-homes the advertisement's origin where
    /// the regraft changed the path toward the station (triggering the
    /// operator re-split toward the repaired direction) or raises the
    /// generation — and is relayed on only when it changed something, so it
    /// stops where the picture already agrees. The generation keeps repair
    /// and mobility floods ordered: a stale repair cannot resurrect a route
    /// superseded by a later `Move`, and a repair carrying a generation the
    /// node never saw replays the move it missed.
    AdvRepair(Advertisement, u64),
    /// A sensor-mobility handoff: a **known** sensor id re-appeared at a
    /// new host station, which floods this generation-tagged
    /// re-advertisement over the whole tree. Nodes whose path toward the
    /// sensor changed re-home the advertisement origin, retract routing
    /// state along the old recorded path, and re-split uncovered operators
    /// toward the new path; nodes whose path is unchanged keep everything
    /// pinned (only the uncovered frontier migrates). The generation makes
    /// the flood idempotent and lets it race — and beat — the sensor's own
    /// original advertisement flood.
    Move(Advertisement, u64),
    /// A local user registers a subscription (Algorithm 4, `n == m`).
    Subscribe(Subscription),
    /// An operator forwarded by a neighbor: a correlation operator's
    /// projection in pub/sub, a multi-join, binary join or value-filter
    /// transport in multi-join.
    Operator(O),
    /// A local user cancels a subscription ("subscriptions are expected to
    /// be valid until explicitly removed", §IV-B).
    Unsubscribe(SubId),
    /// An operator withdrawn by a neighbor: removals retrace the operator's
    /// forwarding paths. Pub/sub withdraws one projection by its key; the
    /// multi-join engine withdraws by subscription id, and one withdrawal
    /// removes the **whole** subscription's decomposition at the receiver.
    RemoveOperator(R),
    /// A local sensor publishes a reading (Algorithm 5, `n == m`).
    Publish(Event),
    /// Simple events forwarded by a neighbor. The charge units on the link
    /// may exceed `events.len()` under per-operator deduplication
    /// ([`crate::DedupMode::PerOperator`]), where the same event is billed
    /// once per operator stream.
    Events(Vec<Event>),
}
