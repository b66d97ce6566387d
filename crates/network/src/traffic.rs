//! Traffic accounting — the paper's evaluation metrics (§VI-B).
//!
//! * **Subscription load** "increases every time an operator is forwarded to
//!   a neighboring node";
//! * **Publication load** counts forwarded result-set *data units* — we
//!   charge one unit per simple event crossing a link (a complex-event
//!   bundle of `k` simple events costs `k`);
//! * advertisement traffic is tracked but reported separately (the paper
//!   excludes it from the comparison since it is identical across the
//!   distributed approaches).
//!
//! Counters are stored as [`ChargeKind`]-indexed arrays — one slot per
//! class, both in the run totals and per directed link — so charging,
//! merging and whole-link sums are single loops instead of per-field
//! copies, and a new charge class is one enum variant away.

use crate::topology::NodeId;
use std::collections::BTreeMap;

/// What kind of traffic a message charge belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChargeKind {
    /// Data-source advertisement flooding (Algorithm 1).
    Advertisement,
    /// A subscription / correlation operator forward (Algorithms 3–4).
    Subscription,
    /// Simple-event data units (Algorithm 5 / result sets).
    Event,
    /// Crash-recovery control traffic (advertisement re-floods after a
    /// `crash + regraft`). Reported separately so the recovery protocol's
    /// cost is visible next to the paper's load metrics.
    Recovery,
    /// Sensor-mobility control traffic: the generation-tagged `Move`
    /// re-advertisement flood a station emits when a known sensor id
    /// re-appears at a new node. Reported separately so the per-move
    /// handoff bill is visible (the golden ledger's `handoff` column); the
    /// operator re-splits a move triggers stay in the `Subscription` class,
    /// like any forward.
    Handoff,
    /// Heartbeat failure-detector traffic (ping/pong). Reported separately
    /// so the liveness layer's standing cost is visible next to the
    /// paper's load metrics; zero whenever the detector is off.
    Liveness,
}

impl ChargeKind {
    /// Number of charge classes (the counter-array width).
    pub const COUNT: usize = 6;

    /// Every class, in counter-array order.
    pub const ALL: [ChargeKind; Self::COUNT] = [
        ChargeKind::Advertisement,
        ChargeKind::Subscription,
        ChargeKind::Event,
        ChargeKind::Recovery,
        ChargeKind::Handoff,
        ChargeKind::Liveness,
    ];

    /// This class's slot in a counter array.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The telemetry-side class of this charge (telemetry additionally has
    /// an `Inject` class for locally injected items, which cross no link
    /// and are never charged).
    #[must_use]
    pub fn traffic_class(self) -> fsf_telemetry::TrafficClass {
        use fsf_telemetry::TrafficClass;
        match self {
            ChargeKind::Advertisement => TrafficClass::Advertisement,
            ChargeKind::Subscription => TrafficClass::Subscription,
            ChargeKind::Event => TrafficClass::Event,
            ChargeKind::Recovery => TrafficClass::Recovery,
            ChargeKind::Handoff => TrafficClass::Handoff,
            ChargeKind::Liveness => TrafficClass::Liveness,
        }
    }
}

/// Per-link counters, one slot per [`ChargeKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkTraffic {
    by_kind: [u64; ChargeKind::COUNT],
}

impl LinkTraffic {
    /// Units of `kind` traffic over this directed link.
    #[must_use]
    pub fn by_kind(&self, kind: ChargeKind) -> u64 {
        self.by_kind[kind.index()]
    }

    /// Advertisement messages over this directed link.
    #[must_use]
    pub fn adv(&self) -> u64 {
        self.by_kind(ChargeKind::Advertisement)
    }

    /// Operators forwarded over this directed link.
    #[must_use]
    pub fn subs(&self) -> u64 {
        self.by_kind(ChargeKind::Subscription)
    }

    /// Simple-event units forwarded over this directed link.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.by_kind(ChargeKind::Event)
    }

    /// Recovery re-flood messages over this directed link.
    #[must_use]
    pub fn recovery(&self) -> u64 {
        self.by_kind(ChargeKind::Recovery)
    }

    /// Mobility handoff (`Move` re-advertisement) messages over this
    /// directed link.
    #[must_use]
    pub fn handoff(&self) -> u64 {
        self.by_kind(ChargeKind::Handoff)
    }

    /// Heartbeat ping/pong messages over this directed link.
    #[must_use]
    pub fn liveness(&self) -> u64 {
        self.by_kind(ChargeKind::Liveness)
    }

    /// Total units over this directed link, all classes together — the
    /// whole-link load the figures used to re-sum by hand.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.by_kind.iter().sum()
    }

    fn charge(&mut self, kind: ChargeKind, units: u64) {
        self.by_kind[kind.index()] += units;
    }

    fn merge(&mut self, other: &LinkTraffic) {
        for (slot, add) in self.by_kind.iter_mut().zip(other.by_kind) {
            *slot += add;
        }
    }
}

/// Aggregated traffic statistics of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficStats {
    /// Run totals, one slot per [`ChargeKind`].
    totals: [u64; ChargeKind::COUNT],
    /// Directed per-link breakdown.
    per_link: BTreeMap<(NodeId, NodeId), LinkTraffic>,
}

impl TrafficStats {
    /// Empty statistics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `units` of `kind` traffic on the directed link `from → to`.
    pub fn charge(&mut self, kind: ChargeKind, from: NodeId, to: NodeId, units: u64) {
        self.totals[kind.index()] += units;
        self.per_link
            .entry((from, to))
            .or_default()
            .charge(kind, units);
    }

    /// Total units charged to `kind` across the whole run.
    #[must_use]
    pub fn by_kind(&self, kind: ChargeKind) -> u64 {
        self.totals[kind.index()]
    }

    /// Total advertisement messages.
    #[must_use]
    pub fn adv_msgs(&self) -> u64 {
        self.by_kind(ChargeKind::Advertisement)
    }

    /// Total operator forwards — the paper's *subscription load*
    /// ("number of forwarded queries").
    #[must_use]
    pub fn sub_forwards(&self) -> u64 {
        self.by_kind(ChargeKind::Subscription)
    }

    /// Total simple-event units forwarded — the paper's *publication load*
    /// ("number of forwarded data units").
    #[must_use]
    pub fn event_units(&self) -> u64 {
        self.by_kind(ChargeKind::Event)
    }

    /// Total crash-recovery re-flood messages (excluded from the paper's
    /// load comparison, like advertisement traffic).
    #[must_use]
    pub fn recovery_msgs(&self) -> u64 {
        self.by_kind(ChargeKind::Recovery)
    }

    /// Total mobility handoff (`Move` re-advertisement) messages — the
    /// control cost of sensor re-advertisement re-routing, reported per
    /// move by `Engine::mobility_stats`.
    #[must_use]
    pub fn handoff_msgs(&self) -> u64 {
        self.by_kind(ChargeKind::Handoff)
    }

    /// Total heartbeat ping/pong messages — the failure detector's standing
    /// cost (zero with liveness off).
    #[must_use]
    pub fn liveness_msgs(&self) -> u64 {
        self.by_kind(ChargeKind::Liveness)
    }

    /// Per-link counters for a directed link.
    #[must_use]
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkTraffic {
        self.per_link.get(&(from, to)).copied().unwrap_or_default()
    }

    /// Iterate over all directed links with traffic.
    pub fn links(&self) -> impl Iterator<Item = (&(NodeId, NodeId), &LinkTraffic)> {
        self.per_link.iter()
    }

    /// Fold another run's statistics into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        for (slot, add) in self.totals.iter_mut().zip(other.totals) {
            *slot += add;
        }
        for (k, v) in &other.per_link {
            self.per_link.entry(*k).or_default().merge(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_by_kind() {
        let mut s = TrafficStats::new();
        s.charge(ChargeKind::Subscription, NodeId(0), NodeId(1), 1);
        s.charge(ChargeKind::Subscription, NodeId(0), NodeId(1), 1);
        s.charge(ChargeKind::Event, NodeId(1), NodeId(0), 3);
        s.charge(ChargeKind::Advertisement, NodeId(2), NodeId(1), 1);
        s.charge(ChargeKind::Handoff, NodeId(2), NodeId(1), 2);
        assert_eq!(s.sub_forwards(), 2);
        assert_eq!(s.event_units(), 3);
        assert_eq!(s.adv_msgs(), 1);
        assert_eq!(s.handoff_msgs(), 2);
        assert_eq!(s.link(NodeId(2), NodeId(1)).handoff(), 2);
        assert_eq!(s.link(NodeId(0), NodeId(1)).subs(), 2);
        assert_eq!(s.link(NodeId(1), NodeId(0)).events(), 3);
        assert_eq!(s.link(NodeId(1), NodeId(2)).adv(), 0, "links are directed");
    }

    #[test]
    fn by_kind_and_totals_agree() {
        let mut s = TrafficStats::new();
        for (i, kind) in ChargeKind::ALL.into_iter().enumerate() {
            s.charge(kind, NodeId(0), NodeId(1), (i + 1) as u64);
        }
        for (i, kind) in ChargeKind::ALL.into_iter().enumerate() {
            assert_eq!(s.by_kind(kind), (i + 1) as u64, "{kind:?}");
            assert_eq!(s.link(NodeId(0), NodeId(1)).by_kind(kind), (i + 1) as u64);
        }
        assert_eq!(s.link(NodeId(0), NodeId(1)).total(), 1 + 2 + 3 + 4 + 5 + 6);
        assert_eq!(s.link(NodeId(1), NodeId(0)).total(), 0);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = TrafficStats::new();
        a.charge(ChargeKind::Event, NodeId(0), NodeId(1), 5);
        let mut b = TrafficStats::new();
        b.charge(ChargeKind::Event, NodeId(0), NodeId(1), 7);
        b.charge(ChargeKind::Subscription, NodeId(1), NodeId(2), 1);
        a.merge(&b);
        assert_eq!(a.event_units(), 12);
        assert_eq!(a.sub_forwards(), 1);
        assert_eq!(a.link(NodeId(0), NodeId(1)).events(), 12);
        assert_eq!(a.links().count(), 2);
    }
}
