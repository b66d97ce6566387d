//! Causal message tracing and run telemetry for the simulator stack.
//!
//! The simulator substrate accumulates *what* happened (`TrafficStats`,
//! `DeliveryLog`), but nothing explains *why* a number moved. This crate
//! adds the observability layer: a [`TelemetrySink`] trait threaded through
//! the simulators as a static type parameter — the [`Noop`] default
//! compiles every hook out of the hot path — and a [`Recorder`] that
//! captures three event families on the virtual clock:
//!
//! * **message lifecycle** — scheduled / handled / dropped-to-downed /
//!   purged, each tagged with a flood (causality) id so a whole
//!   advertisement or `Move` flood reconstructs as a trace tree;
//! * **shard-round profiles** — the lookahead bound each conservative
//!   round chose, events drained, cross-shard handoffs, and whether the
//!   shard was capped by a neighbor (the input for the threaded-rounds
//!   follow-on);
//! * **engine-level spans** — match / forward / re-split / retract /
//!   recover / move operations with their virtual-time extent.
//!
//! Exporters ([`Recorder::to_jsonl`], [`Recorder::to_chrome_trace`],
//! [`Recorder::top_summary`]) turn a recording into a structured log, a
//! Perfetto-openable Chrome trace, and a hottest-nodes/links/floods text
//! summary. The recording is *self-verifying*: [`Recorder::reconcile`]
//! checks the recorded counters against the simulator's own conservation
//! counters, which makes the telemetry layer a second conservation oracle.
//!
//! The crate is dependency-free and engine-agnostic: node ids are raw
//! `u32`s (the `fsf-network` layer owns the typed ids and converts at the
//! hook sites), so the dependency arrow points strictly upward.

#![deny(missing_docs)]

mod export;
mod json;

pub use export::{validate_chrome_trace, ChromeTraceStats};

use std::sync::{Arc, Mutex};

/// Bits of a flood id reserved for the minting shard's sequence counter;
/// the shard index lives above them.
pub const FLOOD_SEQ_BITS: u32 = 48;

/// Mint a flood (causality) id: the shard that observed the injection in
/// the high bits, its local sequence number in the low 48. Every message a
/// node sends while handling a message inherits the handled message's
/// flood id, so the full causal tree of an injection shares one id.
#[must_use]
pub fn flood_id(shard: u32, seq: u64) -> u64 {
    (u64::from(shard) << FLOOD_SEQ_BITS) | (seq & ((1u64 << FLOOD_SEQ_BITS) - 1))
}

/// The shard that minted a flood id.
#[must_use]
pub fn flood_shard(flood: u64) -> u32 {
    (flood >> FLOOD_SEQ_BITS) as u32
}

/// The minting shard's sequence number inside a flood id.
#[must_use]
pub fn flood_seq(flood: u64) -> u64 {
    flood & ((1u64 << FLOOD_SEQ_BITS) - 1)
}

/// Traffic class of a scheduled message — the telemetry-side mirror of the
/// network layer's `ChargeKind`, plus [`TrafficClass::Inject`] for locally
/// injected items (which cross no link and are charged to no class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TrafficClass {
    /// A locally injected item (sensor appearance, subscription, reading).
    Inject,
    /// Advertisement flooding.
    Advertisement,
    /// Subscription / operator forwards.
    Subscription,
    /// Simple-event data units.
    Event,
    /// Crash-recovery and heal repair traffic.
    Recovery,
    /// Sensor-mobility handoff traffic.
    Handoff,
    /// Heartbeat failure-detector traffic (ping/pong).
    Liveness,
}

impl TrafficClass {
    /// All classes, in wire order.
    pub const ALL: [TrafficClass; 7] = [
        TrafficClass::Inject,
        TrafficClass::Advertisement,
        TrafficClass::Subscription,
        TrafficClass::Event,
        TrafficClass::Recovery,
        TrafficClass::Handoff,
        TrafficClass::Liveness,
    ];

    /// Stable lowercase wire name (used by the JSONL exporter).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            TrafficClass::Inject => "inject",
            TrafficClass::Advertisement => "advertisement",
            TrafficClass::Subscription => "subscription",
            TrafficClass::Event => "event",
            TrafficClass::Recovery => "recovery",
            TrafficClass::Handoff => "handoff",
            TrafficClass::Liveness => "liveness",
        }
    }

    /// Inverse of [`Self::as_str`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.as_str() == s)
    }
}

impl std::fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded telemetry event. All timestamps are virtual-clock ticks;
/// node ids are raw topology indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryEvent {
    /// A message entered a simulator queue (injection or send).
    Scheduled {
        /// Virtual time the send happened.
        at: u64,
        /// Virtual time the message is due.
        deliver_at: u64,
        /// Sending node (equals `to` for injections).
        from: u32,
        /// Destination node.
        to: u32,
        /// Shard whose queue holds the message (0 on the single-heap
        /// backend).
        shard: u32,
        /// Causality id — see [`flood_id`].
        flood: u64,
        /// Traffic class charged for the send.
        class: TrafficClass,
        /// Units charged (event bundles cost their cardinality).
        units: u64,
    },
    /// A live node handled a message.
    Handled {
        /// Delivery tick (the virtual clock while handling).
        at: u64,
        /// Sending node.
        from: u32,
        /// Handling node.
        to: u32,
        /// Shard that processed the message.
        shard: u32,
        /// Causality id of the handled message.
        flood: u64,
        /// Complex-event deliveries the handler produced.
        deliveries: u64,
    },
    /// A message arrived at (or was addressed to) a downed node and was
    /// dropped at pop time.
    DroppedDowned {
        /// Virtual time of the drop.
        at: u64,
        /// The downed destination.
        to: u32,
        /// Shard that popped the message.
        shard: u32,
        /// Causality id of the dropped message.
        flood: u64,
    },
    /// A message died at the sender's radio because its link was severed.
    DroppedSevered {
        /// Virtual time of the drop.
        at: u64,
        /// Sending node.
        from: u32,
        /// Destination across the cut.
        to: u32,
        /// Shard that attempted the send.
        shard: u32,
        /// Causality id of the dropped message.
        flood: u64,
    },
    /// A link was severed (partition start).
    LinkSevered {
        /// Virtual time of the cut.
        at: u64,
        /// One endpoint.
        a: u32,
        /// The other endpoint.
        b: u32,
    },
    /// A severed link was healed (partition end); `on_link_up`
    /// reconciliation runs on both endpoints.
    LinkHealed {
        /// Virtual time of the heal.
        at: u64,
        /// One endpoint.
        a: u32,
        /// The other endpoint.
        b: u32,
    },
    /// The failure detector started suspecting a neighbor (no pong inside
    /// the timeout).
    Suspected {
        /// Virtual time of the suspicion sweep.
        at: u64,
        /// The observing node.
        by: u32,
        /// The suspected neighbor.
        node: u32,
    },
    /// A pong got through and cleared a standing suspicion — either the
    /// partition healed or a late answer won the race against the timeout.
    SuspicionCleared {
        /// Virtual time the pong arrived.
        at: u64,
        /// The observing node.
        by: u32,
        /// The re-admitted neighbor.
        node: u32,
    },
    /// A crash purged every queued message addressed to the corpse.
    Purged {
        /// Virtual time of the crash.
        at: u64,
        /// The crashed node.
        node: u32,
        /// Shard that owned the purged queue slots.
        shard: u32,
        /// Messages purged in one sweep.
        count: u64,
    },
    /// One surviving node ran its slice of the crash-recovery protocol.
    /// Only emitted for nodes that actually did something (sent or
    /// delivered), so recovery sweeps over large idle topologies stay
    /// cheap to record.
    Recovered {
        /// Virtual time recovery ran.
        at: u64,
        /// The recovering node.
        node: u32,
        /// Shard hosting the node.
        shard: u32,
        /// Complex-event deliveries produced during recovery.
        deliveries: u64,
        /// Messages the node sent during recovery.
        sends: u64,
    },
    /// One conservative round of one shard (sharded backend only).
    ShardRound {
        /// Shard index.
        shard: u32,
        /// Global round number (monotone across the run).
        round: u64,
        /// The shard's queue head when the round started.
        head: u64,
        /// The lookahead bound the round chose (`None` = unbounded: no
        /// neighbor constrains this shard, it may drain to the horizon).
        cap: Option<u64>,
        /// Whether the bound came from a neighbor's queue head (a stall
        /// candidate for the threaded-rounds follow-on) rather than from
        /// the caller's horizon.
        capped_by_neighbor: bool,
        /// Messages the shard handled or dropped this round.
        drained: u64,
        /// Cross-shard messages the shard emitted this round.
        handoffs: u64,
    },
    /// An engine-level operation span (match/forward/re-split/retract/
    /// recover/move), with its virtual-time extent.
    EngineOp {
        /// Operation name (stable lowercase: `inject_sensor`, `publish`,
        /// `move_sensor`, `recover`, …).
        op: String,
        /// The node the operation targeted, if any.
        node: Option<u32>,
        /// Virtual time the operation started.
        start: u64,
        /// Virtual time after the operation (and any flush) completed.
        end: u64,
        /// Free-form detail (ids involved, counts).
        detail: String,
    },
}

impl TelemetryEvent {
    /// Is this a message-lifecycle event (as opposed to a round profile or
    /// an engine span)?
    #[must_use]
    pub fn is_lifecycle(&self) -> bool {
        !matches!(
            self,
            TelemetryEvent::ShardRound { .. }
                | TelemetryEvent::EngineOp { .. }
                | TelemetryEvent::LinkSevered { .. }
                | TelemetryEvent::LinkHealed { .. }
                | TelemetryEvent::Suspected { .. }
                | TelemetryEvent::SuspicionCleared { .. }
        )
    }
}

/// Where simulator hooks report events. Implementations are cloned into
/// every shard worker, so they must be cheap to clone and thread-safe.
///
/// The hooks guard every call site with `if S::ENABLED { … }` on the
/// associated const, so with the [`Noop`] sink the branch — and the event
/// construction behind it — is statically dead and compiles out.
pub trait TelemetrySink: Clone + Send + Sync + 'static {
    /// Whether this sink records anything. Hook sites skip event
    /// construction entirely when `false`.
    const ENABLED: bool;

    /// Record one event.
    fn record(&self, event: TelemetryEvent);

    /// The last `n` message-lifecycle events, oldest first (for panic
    /// snapshots). Sinks without storage return nothing.
    fn recent(&self, _n: usize) -> Vec<TelemetryEvent> {
        Vec::new()
    }
}

/// The disabled sink: records nothing, costs nothing. This is the default
/// type parameter of every simulator, so existing code pays no overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Noop;

impl TelemetrySink for Noop {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&self, _event: TelemetryEvent) {}
}

/// Aggregate counters maintained by the [`Recorder`] as events arrive —
/// O(1) reads for [`Recorder::reconcile`] without replaying the log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryCounts {
    /// Messages that entered a queue ([`TelemetryEvent::Scheduled`]).
    pub scheduled: u64,
    /// Messages handled by a live node ([`TelemetryEvent::Handled`]).
    pub handled: u64,
    /// Messages dropped at pop because the destination was down.
    pub dropped_downed: u64,
    /// Messages dropped at the radio because their link was severed.
    pub dropped_severed: u64,
    /// Messages purged from queues by crashes (sum of purge counts).
    pub purged: u64,
    /// Complex-event deliveries observed (handler + recovery deliveries).
    pub user_deliveries: u64,
    /// Shard rounds profiled.
    pub shard_rounds: u64,
    /// Cross-shard handoffs (sum over rounds).
    pub handoffs: u64,
    /// Engine-operation spans recorded.
    pub engine_ops: u64,
}

#[derive(Debug, Default)]
struct RecorderInner {
    events: Vec<TelemetryEvent>,
    counts: TelemetryCounts,
}

/// The recording sink: stores every event and maintains
/// [`TelemetryCounts`]. Clones share one underlying store, so the same
/// recorder observes every shard of a sharded run.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Arc<Mutex<RecorderInner>>,
}

impl Recorder {
    /// A fresh, empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderInner> {
        // a panicking shard worker must not take the telemetry down with
        // it — the poisoned state is still the most recent recording
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of events recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().events.is_empty()
    }

    /// Snapshot of every recorded event, in arrival order.
    #[must_use]
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.lock().events.clone()
    }

    /// Snapshot of the aggregate counters.
    #[must_use]
    pub fn counts(&self) -> TelemetryCounts {
        self.lock().counts
    }

    /// Check the recording against the simulator's own conservation
    /// counters: every scheduled message must be accounted as handled,
    /// dropped, purged, or still queued, and every observed delivery must
    /// appear in the `DeliveryLog`. `Ok(())` means the telemetry layer
    /// independently re-derived the simulator's ledger — a second
    /// conservation oracle.
    ///
    /// # Errors
    /// Returns a message naming every counter that disagrees.
    pub fn reconcile(
        &self,
        scheduled_total: u64,
        steps: u64,
        dropped_from_queue: u64,
        complex_deliveries: u64,
    ) -> Result<(), String> {
        let c = self.counts();
        let mut errs = Vec::new();
        if c.scheduled != scheduled_total {
            errs.push(format!(
                "scheduled: recorded {} != simulator {scheduled_total}",
                c.scheduled
            ));
        }
        if c.handled != steps {
            errs.push(format!("handled: recorded {} != steps {steps}", c.handled));
        }
        if c.dropped_downed + c.dropped_severed + c.purged != dropped_from_queue {
            errs.push(format!(
                "drops: recorded {} downed + {} severed + {} purged != dropped_from_queue \
                 {dropped_from_queue}",
                c.dropped_downed, c.dropped_severed, c.purged
            ));
        }
        if c.user_deliveries != complex_deliveries {
            errs.push(format!(
                "deliveries: recorded {} != delivery log {complex_deliveries}",
                c.user_deliveries
            ));
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs.join("; "))
        }
    }
}

impl TelemetrySink for Recorder {
    const ENABLED: bool = true;

    fn record(&self, event: TelemetryEvent) {
        let mut inner = self.lock();
        let c = &mut inner.counts;
        match &event {
            TelemetryEvent::Scheduled { .. } => c.scheduled += 1,
            TelemetryEvent::Handled { deliveries, .. } => {
                c.handled += 1;
                c.user_deliveries += deliveries;
            }
            TelemetryEvent::DroppedDowned { .. } => c.dropped_downed += 1,
            TelemetryEvent::DroppedSevered { .. } => c.dropped_severed += 1,
            TelemetryEvent::Purged { count, .. } => c.purged += count,
            TelemetryEvent::Recovered { deliveries, .. } => c.user_deliveries += deliveries,
            TelemetryEvent::ShardRound { handoffs, .. } => {
                c.shard_rounds += 1;
                c.handoffs += handoffs;
            }
            TelemetryEvent::EngineOp { .. } => c.engine_ops += 1,
            TelemetryEvent::LinkSevered { .. }
            | TelemetryEvent::LinkHealed { .. }
            | TelemetryEvent::Suspected { .. }
            | TelemetryEvent::SuspicionCleared { .. } => {}
        }
        inner.events.push(event);
    }

    fn recent(&self, n: usize) -> Vec<TelemetryEvent> {
        let inner = self.lock();
        let mut tail: Vec<TelemetryEvent> = inner
            .events
            .iter()
            .rev()
            .filter(|e| e.is_lifecycle())
            .take(n)
            .cloned()
            .collect();
        tail.reverse();
        tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(at: u64, from: u32, to: u32, flood: u64) -> TelemetryEvent {
        TelemetryEvent::Scheduled {
            at,
            deliver_at: at + 2,
            from,
            to,
            shard: 0,
            flood,
            class: TrafficClass::Event,
            units: 1,
        }
    }

    #[test]
    fn flood_ids_round_trip_shard_and_seq() {
        let id = flood_id(3, 12345);
        assert_eq!(flood_shard(id), 3);
        assert_eq!(flood_seq(id), 12345);
        assert_eq!(flood_shard(flood_id(0, 7)), 0);
        assert_eq!(flood_seq(flood_id(0, 7)), 7);
    }

    #[test]
    fn traffic_class_names_round_trip() {
        for c in TrafficClass::ALL {
            assert_eq!(TrafficClass::parse(c.as_str()), Some(c));
        }
        assert_eq!(TrafficClass::parse("bogus"), None);
    }

    #[test]
    fn recorder_counts_follow_events() {
        let r = Recorder::new();
        r.record(sched(0, 1, 2, 9));
        r.record(TelemetryEvent::Handled {
            at: 2,
            from: 1,
            to: 2,
            shard: 0,
            flood: 9,
            deliveries: 3,
        });
        r.record(TelemetryEvent::Purged {
            at: 2,
            node: 5,
            shard: 1,
            count: 4,
        });
        r.record(TelemetryEvent::DroppedDowned {
            at: 3,
            to: 5,
            shard: 1,
            flood: 9,
        });
        let c = r.counts();
        assert_eq!(c.scheduled, 1);
        assert_eq!(c.handled, 1);
        assert_eq!(c.user_deliveries, 3);
        assert_eq!(c.purged, 4);
        assert_eq!(c.dropped_downed, 1);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn reconcile_accepts_matching_ledgers_and_names_mismatches() {
        let r = Recorder::new();
        r.record(sched(0, 1, 2, 9));
        r.record(sched(0, 2, 3, 9));
        r.record(TelemetryEvent::Handled {
            at: 2,
            from: 1,
            to: 2,
            shard: 0,
            flood: 9,
            deliveries: 1,
        });
        r.record(TelemetryEvent::DroppedDowned {
            at: 3,
            to: 3,
            shard: 0,
            flood: 9,
        });
        assert_eq!(r.reconcile(2, 1, 1, 1), Ok(()));
        let err = r.reconcile(3, 1, 1, 1).unwrap_err();
        assert!(err.contains("scheduled"), "got: {err}");
        let err = r.reconcile(2, 2, 0, 2).unwrap_err();
        assert!(err.contains("handled"), "got: {err}");
        assert!(err.contains("drops"), "got: {err}");
        assert!(err.contains("deliveries"), "got: {err}");
    }

    #[test]
    fn recent_returns_lifecycle_tail_oldest_first() {
        let r = Recorder::new();
        for i in 0..5 {
            r.record(sched(i, 0, 1, i));
        }
        r.record(TelemetryEvent::ShardRound {
            shard: 0,
            round: 0,
            head: 0,
            cap: None,
            capped_by_neighbor: false,
            drained: 5,
            handoffs: 0,
        });
        let tail = r.recent(3);
        assert_eq!(tail.len(), 3);
        // rounds are filtered out; the tail is the last three scheduled
        // events in arrival order
        assert_eq!(tail[0], sched(2, 0, 1, 2));
        assert_eq!(tail[2], sched(4, 0, 1, 4));
        // Noop has no storage
        assert!(Noop.recent(3).is_empty());
    }

    #[test]
    fn clones_share_one_store() {
        let r = Recorder::new();
        let clone = r.clone();
        clone.record(sched(0, 1, 2, 1));
        assert_eq!(r.len(), 1);
        assert_eq!(r.counts().scheduled, 1);
    }
}
