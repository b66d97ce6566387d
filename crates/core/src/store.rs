//! Per-node state tables — the data structures of the paper's Fig. 2.
//!
//! A node keeps, *per neighbor* `m` plus one "local" slot:
//!
//! * `DSA_m` — advertisements received from `m` ([`AdvStore`]);
//! * `S_m` — subscriptions/operators received from `m`, split into the
//!   uncovered set (candidates for forwarding and event matching) and the
//!   covered set (stored but redundant; Algorithm 4 lines 8–13).

use crate::msg::Msg;
use fsf_model::{Advertisement, SensorId};
use fsf_network::{ChargeKind, Ctx, NodeId};
use fsf_subsumption::OperatorTable;
use std::collections::{BTreeMap, BTreeSet};

/// Where a piece of state came from: a local user/sensor or a neighbor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Origin {
    /// Local sensors / local users at this node (`DSA_local`, `S_local`).
    Local,
    /// The neighbor the item was received from (`DSA_m`, `S_m`).
    Neighbor(NodeId),
}

impl std::fmt::Display for Origin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Origin::Local => write!(f, "local"),
            Origin::Neighbor(n) => write!(f, "{n}"),
        }
    }
}

/// Outcome of applying a generation-tagged re-advertisement (sensor
/// mobility) to an [`AdvStore`] — see [`AdvStore::apply_move`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvUpdate {
    /// The update's generation is not newer than what this node already
    /// knows: a stale or duplicate flood. Absorb it — a stale in-flight
    /// advertisement must never resurrect a superseded route.
    Stale,
    /// The sensor was unknown here; its advertisement was stored fresh
    /// under the new origin (the move flood outran, or replaced, the
    /// original advertisement flood).
    Inserted,
    /// The sensor was known and stays reachable through the same origin —
    /// only the generation (and the advertisement body) advanced. The
    /// route through this node is unchanged, so operators stay pinned.
    Refreshed,
    /// The sensor was known and its origin changed: the route through this
    /// node moved away from `old` — retract along the old direction and
    /// re-split toward the new one.
    Moved {
        /// The origin the advertisement was stored under before the move.
        old: Origin,
    },
}

/// The advertisement side of a node's state: one `DSA` list per origin,
/// plus a global seen-set to make flooding idempotent and a per-sensor
/// generation counter that orders re-advertisements (sensor mobility).
#[derive(Debug, Default, Clone)]
pub struct AdvStore {
    per_origin: BTreeMap<Origin, Vec<Advertisement>>,
    seen: BTreeSet<SensorId>,
    /// Advertisement generation per sensor: 0 for the original
    /// advertisement, bumped by every `Move` re-advertisement. Entries
    /// outlive [`AdvStore::remove`] as tombstones, so a stale flood that
    /// raced a retraction cannot re-insert a superseded advertisement.
    gens: BTreeMap<SensorId, u64>,
}

impl AdvStore {
    /// Empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a generation-0 advertisement from `origin`. Returns `false`
    /// if this sensor's advertisement was already known (duplicate
    /// flood/re-inject) **or** superseded by a later move generation (a
    /// stale original-advertisement flood arriving after its own `Move`),
    /// in which case nothing is stored and nothing should be re-forwarded.
    pub fn insert(&mut self, origin: Origin, adv: Advertisement) -> bool {
        if self.generation(adv.sensor) > 0 {
            return false; // a move superseded the original advertisement
        }
        if !self.seen.insert(adv.sensor) {
            return false;
        }
        self.per_origin.entry(origin).or_default().push(adv);
        true
    }

    /// The advertisement generation this node knows for `sensor` (0 for
    /// never-moved or unknown sensors; tombstoned generations survive
    /// retraction).
    #[must_use]
    pub fn generation(&self, sensor: SensorId) -> u64 {
        self.gens.get(&sensor).copied().unwrap_or(0)
    }

    /// Record that `sensor`'s advertisement is now at generation `gen`
    /// (monotone: lower generations are ignored). Used by repair floods
    /// that carry a newer generation than this node ever saw — e.g. when a
    /// crash purged the `Move` flood before it arrived.
    pub fn note_generation(&mut self, sensor: SensorId, gen: u64) {
        let g = self.gens.entry(sensor).or_insert(0);
        *g = (*g).max(gen);
    }

    /// Apply a generation-tagged `Move` re-advertisement: supersede the
    /// stored advertisement (origin **and** body — the sensor may have a
    /// new location) iff `gen` is strictly newer than the known
    /// generation. Unlike [`AdvStore::rehome`], a move re-homes local
    /// entries too: the sensor left its old host station.
    pub fn apply_move(&mut self, new_origin: Origin, adv: Advertisement, gen: u64) -> AdvUpdate {
        if gen <= self.generation(adv.sensor) {
            return AdvUpdate::Stale;
        }
        self.gens.insert(adv.sensor, gen);
        if self.seen.insert(adv.sensor) {
            self.per_origin.entry(new_origin).or_default().push(adv);
            return AdvUpdate::Inserted;
        }
        let old = self
            .per_origin
            .iter()
            .find_map(|(o, advs)| advs.iter().any(|a| a.sensor == adv.sensor).then_some(*o))
            .expect("seen sensors have a stored advertisement");
        let slot = self.per_origin.get_mut(&old).expect("found above");
        slot.retain(|a| a.sensor != adv.sensor);
        if slot.is_empty() {
            self.per_origin.remove(&old);
        }
        self.per_origin.entry(new_origin).or_default().push(adv);
        if old == new_origin {
            AdvUpdate::Refreshed
        } else {
            AdvUpdate::Moved { old }
        }
    }

    /// Apply a generation-tagged crash-repair re-advertisement: the shared
    /// ordering of [`AdvStore::apply_move`] and the repair semantics, in
    /// one place for every engine. A repair *newer* than the known
    /// generation is a move this node missed (the crash purged the `Move`
    /// flood) and gets the full move treatment; a stale repair changes
    /// nothing; at generation parity the repair re-homes the origin, fills
    /// a hole, or is absorbed by the retraction tombstone.
    pub fn apply_repair(&mut self, origin: Origin, adv: Advertisement, gen: u64) -> AdvUpdate {
        let known = self.generation(adv.sensor);
        if gen > known {
            return self.apply_move(origin, adv, gen);
        }
        if gen < known {
            return AdvUpdate::Stale;
        }
        match self.rehome(adv.sensor, origin) {
            None => {
                if self.insert(origin, adv) {
                    AdvUpdate::Inserted // unknown: fill the hole
                } else {
                    AdvUpdate::Stale // seen-set / generation tombstone
                }
            }
            Some(old) if old != origin && old != Origin::Local => AdvUpdate::Moved { old },
            Some(_) => AdvUpdate::Refreshed,
        }
    }

    /// Retract a sensor's advertisement (the sensor departed, §IV-B "valid
    /// until explicitly removed"). Returns the origin the advertisement was
    /// stored under, or `None` if the sensor was unknown — retraction
    /// flooding is idempotent, exactly like advertisement flooding.
    pub fn remove(&mut self, sensor: SensorId) -> Option<Origin> {
        if !self.seen.remove(&sensor) {
            return None;
        }
        let mut found = None;
        self.per_origin.retain(|origin, advs| {
            if advs.iter().any(|a| a.sensor == sensor) {
                advs.retain(|a| a.sensor != sensor);
                found = Some(*origin);
            }
            !advs.is_empty()
        });
        found
    }

    /// Re-home a known sensor's advertisement under `new_origin` — crash
    /// recovery repaired the tree and the sensor is now reached through a
    /// different neighbor. Returns the origin it was stored under before
    /// the move, or `None` if the sensor is unknown. Local advertisements
    /// never move: the hosting station's own entry is authoritative.
    pub fn rehome(&mut self, sensor: SensorId, new_origin: Origin) -> Option<Origin> {
        if !self.seen.contains(&sensor) {
            return None;
        }
        let (old, adv) = self
            .per_origin
            .iter()
            .find_map(|(o, advs)| advs.iter().find(|a| a.sensor == sensor).map(|a| (*o, *a)))
            .expect("seen sensors have a stored advertisement");
        if old == new_origin || old == Origin::Local {
            return Some(old);
        }
        let slot = self.per_origin.get_mut(&old).expect("found above");
        slot.retain(|a| a.sensor != sensor);
        if slot.is_empty() {
            self.per_origin.remove(&old);
        }
        self.per_origin.entry(new_origin).or_default().push(adv);
        Some(old)
    }

    /// The advertisements received from one origin (`DSA_m` / `DSA_local`).
    #[must_use]
    pub fn from_origin(&self, origin: Origin) -> &[Advertisement] {
        self.per_origin.get(&origin).map_or(&[], Vec::as_slice)
    }

    /// All known advertisements, origin-sorted (deterministic) — the node's
    /// whole view of the data-source space, used for the origin-node
    /// `matching_sources` check of Algorithm 3.
    pub fn all(&self) -> impl Iterator<Item = &Advertisement> {
        self.per_origin.values().flatten()
    }

    /// Has any advertisement of this sensor been seen?
    #[must_use]
    pub fn knows_sensor(&self, sensor: SensorId) -> bool {
        self.seen.contains(&sensor)
    }

    /// Total advertisements stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Is the store empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Origins with at least one advertisement.
    pub fn origins(&self) -> impl Iterator<Item = Origin> + '_ {
        self.per_origin.keys().copied()
    }

    /// Retraction tombstones: sensors whose advertisement was removed but
    /// whose generation entry survives to absorb stale floods, paired with
    /// the surviving generation. Partition healing re-floods these so a
    /// peer that missed the retraction drops its superseded route instead
    /// of resurrecting it.
    pub fn tombstones(&self) -> impl Iterator<Item = (SensorId, u64)> + '_ {
        self.gens
            .iter()
            .filter(|(s, _)| !self.seen.contains(s))
            .map(|(&s, &g)| (s, g))
    }
}

/// The at most two neighbors a re-homed advertisement asks a node to
/// re-split its operators toward: the old direction first (retract along
/// it), then the new one (forward along it).
pub type Resplit = [Option<NodeId>; 2];

/// Where a node re-splits after `update` stored an advertisement under
/// `new_origin`: away from a neighbor the route left, toward a neighbor it
/// now runs through. A refresh or an absorbed flood changes no route.
fn resplit_targets(update: AdvUpdate, new_origin: Origin) -> Resplit {
    let old = match update {
        AdvUpdate::Moved {
            old: Origin::Neighbor(o),
        } => Some(o),
        _ => None,
    };
    let new = match (update, new_origin) {
        (AdvUpdate::Moved { .. } | AdvUpdate::Inserted, Origin::Neighbor(n)) => Some(n),
        _ => None,
    };
    [old, new]
}

/// Send one unit of `msg` to every neighbor but `origin`.
fn flood<O, R>(
    ctx: &mut Ctx<'_, Msg<O, R>>,
    origin: Origin,
    kind: ChargeKind,
    msg: impl Fn() -> Msg<O, R>,
) {
    for &j in ctx.neighbors().to_vec().iter() {
        if Origin::Neighbor(j) != origin {
            ctx.send(j, msg(), kind, 1);
        }
    }
}

/// The advertisement plane: Algorithm 1 and its generation-ordered
/// retraction, mobility and repair floods, written once for every engine
/// family. Each handler updates the store and sends the flood; what a
/// family does with its operators afterwards (drop a departed sensor's
/// events, re-split toward a changed route) stays with the node.
impl AdvStore {
    /// Algorithm 1: store `adv` as received from `origin` and flood it to
    /// every other neighbor. A duplicate, or an original advertisement a
    /// `Move` already superseded, is absorbed — flooding is idempotent.
    pub fn advertise<O, R>(
        &mut self,
        origin: Origin,
        adv: Advertisement,
        ctx: &mut Ctx<'_, Msg<O, R>>,
    ) {
        if self.insert(origin, adv) {
            flood(ctx, origin, ChargeKind::Advertisement, || Msg::Adv(adv));
        }
    }

    /// Retract `sensor`'s advertisement and flood the retraction on. A
    /// retraction is itself a **generation event**: the local injection
    /// (`gen` = `None`) retires the host's known generation by bumping it,
    /// and the flood carries that number — so a retraction straggler
    /// arriving after a newer `Move` is absorbed instead of wiping the new
    /// route, and the tombstone left behind absorbs any older `Move`
    /// straggler. Returns the origin the advertisement was stored under,
    /// or `None` if the retraction was absorbed (superseded, or the sensor
    /// is unknown — retraction flooding is idempotent).
    pub fn retract<O, R>(
        &mut self,
        origin: Origin,
        sensor: SensorId,
        gen: Option<u64>,
        ctx: &mut Ctx<'_, Msg<O, R>>,
    ) -> Option<Origin> {
        let known = self.generation(sensor);
        let gen = gen.unwrap_or(known + 1);
        if gen < known {
            return None; // a newer Move superseded this retraction
        }
        let stored = self.remove(sensor)?;
        self.note_generation(sensor, gen);
        flood(ctx, origin, ChargeKind::Advertisement, || {
            Msg::AdvDown(sensor, gen)
        });
        Some(stored)
    }

    /// A generation-tagged `Move` re-advertisement arrived: supersede the
    /// stored advertisement ([`AdvStore::apply_move`]) and flood onward
    /// structurally — the generation check is the cross-flood terminator.
    /// Returns where to re-split, or `None` for a stale flood, which is
    /// absorbed: it cannot resurrect the old route.
    pub fn relocate<O, R>(
        &mut self,
        origin: Origin,
        adv: Advertisement,
        gen: u64,
        ctx: &mut Ctx<'_, Msg<O, R>>,
    ) -> Option<Resplit> {
        let update = self.apply_move(origin, adv, gen);
        if update == AdvUpdate::Stale {
            return None;
        }
        flood(ctx, origin, ChargeKind::Handoff, || Msg::Move(adv, gen));
        Some(resplit_targets(update, origin))
    }

    /// A crash-recovery re-flood arrived: fill the hole or re-home the
    /// origin if the repaired tree reaches the station through a different
    /// neighbor ([`AdvStore::apply_repair`]), and propagate the flood
    /// structurally. Returns where to re-split.
    pub fn repair<O, R>(
        &mut self,
        origin: Origin,
        adv: Advertisement,
        gen: u64,
        ctx: &mut Ctx<'_, Msg<O, R>>,
    ) -> Resplit {
        let update = self.apply_repair(origin, adv, gen);
        flood(ctx, origin, ChargeKind::Recovery, || {
            Msg::AdvRepair(adv, gen)
        });
        resplit_targets(update, origin)
    }

    /// Crash recovery, station side: re-flood every local advertisement to
    /// every neighbor over the re-grafted tree, at its known generation (a
    /// full re-flood; partial-state handoff is a recorded follow-on).
    pub fn reflood_local<O, R>(&self, ctx: &mut Ctx<'_, Msg<O, R>>) {
        for &adv in self.from_origin(Origin::Local) {
            let gen = self.generation(adv.sensor);
            flood(ctx, Origin::Local, ChargeKind::Recovery, || {
                Msg::AdvRepair(adv, gen)
            });
        }
    }

    /// A severed link to `peer` healed: push this half's advertisement
    /// picture across. Retraction tombstones go first, so a peer that
    /// missed an `AdvDown` retires the route instead of resurrecting it;
    /// then every advertisement this node reaches *not* through the peer
    /// is re-offered as a generation-tagged repair (highest generation wins
    /// at the receiver, exactly the crash-repair ordering). The peer runs
    /// the same hook, so the two repair floods converge the divergent
    /// halves.
    pub fn offer<O, R>(&self, peer: NodeId, ctx: &mut Ctx<'_, Msg<O, R>>) {
        for (sensor, gen) in self.tombstones() {
            ctx.send(peer, Msg::AdvDown(sensor, gen), ChargeKind::Recovery, 1);
        }
        for origin in self.origins().filter(|&o| o != Origin::Neighbor(peer)) {
            for &adv in self.from_origin(origin) {
                let gen = self.generation(adv.sensor);
                ctx.send(peer, Msg::AdvRepair(adv, gen), ChargeKind::Recovery, 1);
            }
        }
    }
}

/// The subscription side of one origin slot: uncovered and covered halves.
///
/// "Both covered and uncovered subscriptions must be stored: even though
/// only uncovered subscriptions are candidates for forwarding to neighbors,
/// all subscriptions define the correlation needs of the neighbors or local
/// users" (§V-B).
#[derive(Debug, Default, Clone)]
pub struct SubStore {
    /// `𝒮_uncovered`: drives forwarding and event matching toward this
    /// origin.
    pub uncovered: OperatorTable,
    /// `𝒮_covered`: redundant operators, kept for completeness/inspection
    /// (and, at the local slot, matched for delivery — local user
    /// subscriptions are served whether covered or not).
    pub covered: OperatorTable,
}

impl SubStore {
    /// Empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total operators in both halves.
    #[must_use]
    pub fn len(&self) -> usize {
        self.uncovered.len() + self.covered.len()
    }

    /// Is the store empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.uncovered.is_empty() && self.covered.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsf_model::{AttrId, Point};

    fn adv(sensor: u32) -> Advertisement {
        Advertisement {
            sensor: SensorId(sensor),
            attr: AttrId(0),
            location: Point::new(0.0, 0.0),
        }
    }

    #[test]
    fn adv_store_dedups_by_sensor() {
        let mut s = AdvStore::new();
        assert!(s.insert(Origin::Local, adv(1)));
        assert!(!s.insert(Origin::Local, adv(1)), "same sensor twice");
        assert!(
            !s.insert(Origin::Neighbor(NodeId(2)), adv(1)),
            "even from elsewhere"
        );
        assert!(s.insert(Origin::Neighbor(NodeId(2)), adv(2)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.from_origin(Origin::Local).len(), 1);
        assert_eq!(s.from_origin(Origin::Neighbor(NodeId(2))).len(), 1);
        assert_eq!(s.from_origin(Origin::Neighbor(NodeId(9))).len(), 0);
        assert!(s.knows_sensor(SensorId(1)));
        assert!(!s.knows_sensor(SensorId(9)));
        assert_eq!(s.all().count(), 2);
    }

    #[test]
    fn rehome_moves_between_origins_but_never_off_local() {
        let mut s = AdvStore::new();
        s.insert(Origin::Neighbor(NodeId(2)), adv(1));
        s.insert(Origin::Local, adv(7));
        // unknown sensors are reported, not invented
        assert_eq!(s.rehome(SensorId(9), Origin::Local), None);
        // a real move: origin slot changes, seen-set untouched
        assert_eq!(
            s.rehome(SensorId(1), Origin::Neighbor(NodeId(4))),
            Some(Origin::Neighbor(NodeId(2)))
        );
        assert_eq!(s.from_origin(Origin::Neighbor(NodeId(2))).len(), 0);
        assert_eq!(s.from_origin(Origin::Neighbor(NodeId(4))).len(), 1);
        assert!(s.knows_sensor(SensorId(1)));
        // idempotent when already home
        assert_eq!(
            s.rehome(SensorId(1), Origin::Neighbor(NodeId(4))),
            Some(Origin::Neighbor(NodeId(4)))
        );
        // the hosting station's own entry is pinned
        assert_eq!(
            s.rehome(SensorId(7), Origin::Neighbor(NodeId(4))),
            Some(Origin::Local)
        );
        assert_eq!(s.from_origin(Origin::Local).len(), 1);
    }

    #[test]
    fn apply_move_orders_by_generation() {
        let mut s = AdvStore::new();
        assert!(s.insert(Origin::Neighbor(NodeId(2)), adv(1)));
        assert_eq!(s.generation(SensorId(1)), 0);
        // a newer generation re-homes (even off Local — tested below)
        assert_eq!(
            s.apply_move(Origin::Neighbor(NodeId(4)), adv(1), 1),
            AdvUpdate::Moved {
                old: Origin::Neighbor(NodeId(2))
            }
        );
        assert_eq!(s.generation(SensorId(1)), 1);
        assert_eq!(s.from_origin(Origin::Neighbor(NodeId(2))).len(), 0);
        assert_eq!(s.from_origin(Origin::Neighbor(NodeId(4))).len(), 1);
        // the same generation again is a duplicate: absorbed
        assert_eq!(
            s.apply_move(Origin::Neighbor(NodeId(4)), adv(1), 1),
            AdvUpdate::Stale
        );
        // an older in-flight move cannot resurrect the old route
        assert_eq!(
            s.apply_move(Origin::Neighbor(NodeId(2)), adv(1), 0),
            AdvUpdate::Stale
        );
        // a newer move through the same origin only refreshes
        assert_eq!(
            s.apply_move(Origin::Neighbor(NodeId(4)), adv(1), 2),
            AdvUpdate::Refreshed
        );
        // an unknown sensor is inserted fresh (move flood outran the
        // original advertisement flood)
        assert_eq!(
            s.apply_move(Origin::Neighbor(NodeId(4)), adv(9), 1),
            AdvUpdate::Inserted
        );
        assert!(s.knows_sensor(SensorId(9)));
    }

    #[test]
    fn apply_move_rehomes_off_local_and_supersedes_stale_inserts() {
        let mut s = AdvStore::new();
        s.insert(Origin::Local, adv(7));
        // the sensor left this host: Local entries DO move (unlike rehome)
        assert_eq!(
            s.apply_move(Origin::Neighbor(NodeId(3)), adv(7), 1),
            AdvUpdate::Moved { old: Origin::Local }
        );
        assert_eq!(s.from_origin(Origin::Local).len(), 0);
        // a straggler generation-0 advertisement is absorbed…
        assert!(!s.insert(Origin::Local, adv(7)));
        // …even after retraction (the generation tombstone survives remove)
        assert_eq!(s.remove(SensorId(7)), Some(Origin::Neighbor(NodeId(3))));
        assert!(!s.knows_sensor(SensorId(7)));
        assert_eq!(s.generation(SensorId(7)), 1);
        assert!(!s.insert(Origin::Local, adv(7)), "tombstone ignored");
        // a newer move re-inserts the retracted-then-returned sensor
        assert_eq!(
            s.apply_move(Origin::Neighbor(NodeId(5)), adv(7), 2),
            AdvUpdate::Inserted
        );
        // note_generation is monotone
        s.note_generation(SensorId(7), 1);
        assert_eq!(s.generation(SensorId(7)), 2);
        s.note_generation(SensorId(7), 6);
        assert_eq!(s.generation(SensorId(7)), 6);
    }

    #[test]
    fn origin_ordering_puts_local_first() {
        let mut s = AdvStore::new();
        s.insert(Origin::Neighbor(NodeId(5)), adv(5));
        s.insert(Origin::Local, adv(1));
        let origins: Vec<Origin> = s.origins().collect();
        assert_eq!(origins, vec![Origin::Local, Origin::Neighbor(NodeId(5))]);
    }

    #[test]
    fn substore_counts_both_halves() {
        use fsf_model::{Operator, SubId, Subscription, ValueRange};
        let op = |id: u64| {
            Operator::from_subscription(
                &Subscription::identified(
                    SubId(id),
                    [(SensorId(1), ValueRange::new(0.0, 1.0))],
                    30,
                )
                .unwrap(),
            )
        };
        let mut s = SubStore::new();
        assert!(s.is_empty());
        s.uncovered.insert(op(1));
        s.covered.insert(op(2));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }
}
