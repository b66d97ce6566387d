//! The multi-join processing node.

use super::ops::{ring_pairs, MjKey, MjWireOp, WireKind};
use super::store::{MjStore, StoredMj, StoredRole};
use fsf_core::events::{recycle, Correlator, EventStore, LinkFrame, SentScope};
use fsf_core::{AdvStore, Msg, Origin, Resplit};
use fsf_model::{DimKey, Event, Operator};
use fsf_network::{ChargeKind, Ctx, NodeBehavior, NodeId};
use fsf_subsumption::{pairwise, MatchMode};
use std::collections::{BTreeMap, BTreeSet};

/// Wire messages of the multi-join engine: the shared [`Msg`] carrying
/// multi-join, binary-join and value-filter operators. Withdrawal is by
/// subscription: a local `Unsubscribe(sub)` and a neighbor's
/// `RemoveOperator(sub)` both remove the **whole** decomposition of `sub`
/// (multi, binary joins, filter transports), not one operator, and retrace
/// it along its forwarding paths.
pub type MjMsg = Msg<MjWireOp, fsf_model::SubId>;

/// A node of the distributed multi-join engine.
#[derive(Debug)]
pub struct MjNode {
    id: NodeId,
    adverts: AdvStore,
    stores: BTreeMap<Origin, MjStore>,
    events: EventStore,
    /// Operators already forwarded per neighbor — the sibling binary joins
    /// of one multi-join share simple filters, which must not be sent twice.
    forwarded: BTreeSet<(NodeId, MjKey)>,
    dropped_unanswerable: u64,
    match_mode: MatchMode,
    /// The match path's buffers, parked empty between events (none yet: `None`).
    scratch: Option<Box<(Correlator<'static>, Matched<'static>)>>,
}

/// One pass's candidates, borrowed from a settled [`MjStore`].
type Matched<'a> = Vec<(&'a MjKey, &'a StoredMj)>;

impl MjNode {
    /// Create a node. `event_validity` as for the other engines.
    #[must_use]
    pub fn new(id: NodeId, event_validity: u64) -> Self {
        Self::with_mode(id, event_validity, MatchMode::default())
    }

    /// Create a node with an explicit candidate-query implementation (the
    /// linear scan is kept alive as the differential-test oracle).
    #[must_use]
    pub fn with_mode(id: NodeId, event_validity: u64, match_mode: MatchMode) -> Self {
        MjNode {
            id,
            adverts: AdvStore::new(),
            stores: BTreeMap::new(),
            events: EventStore::new(event_validity),
            forwarded: BTreeSet::new(),
            dropped_unanswerable: 0,
            match_mode,
            scratch: None,
        }
    }

    /// The candidate-query implementation this node matches with.
    #[must_use]
    pub fn match_mode(&self) -> MatchMode {
        self.match_mode
    }

    /// Do all per-origin range arrangements equal ones rebuilt from scratch
    /// over the stored operators? (Rebuild property tests.)
    #[must_use]
    pub fn arrangements_consistent(&self) -> bool {
        self.stores.values().all(MjStore::arrangement_consistent)
    }

    /// The node id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The store for one origin, if any.
    #[must_use]
    pub fn store(&self, origin: Origin) -> Option<&MjStore> {
        self.stores.get(&origin)
    }

    /// The advertisement store.
    #[must_use]
    pub fn adverts(&self) -> &AdvStore {
        &self.adverts
    }

    /// Locally injected subscriptions dropped for missing sources.
    #[must_use]
    pub fn dropped_unanswerable(&self) -> u64 {
        self.dropped_unanswerable
    }

    /// `(advertisements, operators, stored events, forwarded entries)` —
    /// this node's residual state, for churn leak checks.
    #[must_use]
    pub fn state_counts(&self) -> (usize, usize, usize, usize) {
        (
            self.adverts.len(),
            self.stores.values().map(MjStore::len).sum(),
            self.events.len(),
            self.forwarded.len(),
        )
    }

    // ----- subscriptions -----

    fn send_op(&mut self, j: NodeId, wire: MjWireOp, ctx: &mut Ctx<'_, MjMsg>) {
        if self.forwarded.insert((j, wire.key())) {
            ctx.send(j, MjMsg::Operator(wire), ChargeKind::Subscription, 1);
        }
    }

    /// Neighbors (excluding `origin`) that advertise *all* the given dims.
    fn full_support_neighbors(
        &self,
        op: &Operator,
        origin: Origin,
        neighbors: &[NodeId],
    ) -> Vec<NodeId> {
        neighbors
            .iter()
            .copied()
            .filter(|&j| Origin::Neighbor(j) != origin)
            .filter(|&j| {
                let sup = op.supported_dims(self.adverts.from_origin(Origin::Neighbor(j)));
                sup.len() == op.arity()
            })
            .collect()
    }

    fn handle_operator(
        &mut self,
        origin: Origin,
        wire: MjWireOp,
        is_user_sub: bool,
        ctx: &mut Ctx<'_, MjMsg>,
    ) {
        let key = wire.key();
        if self.stores.entry(origin).or_default().contains(&key) {
            return;
        }
        // Pairwise coverage filtering, per (signature, main) group.
        let covered = {
            let group = self.stores[&origin].filter_group(&key);
            pairwise::covered_by_any(&wire.op, group)
        };
        if covered {
            // role is irrelevant for covered operators (never matched); keep
            // a conservative default for inspection.
            let role = match wire.kind {
                WireKind::Multi => StoredRole::MultiAbove,
                WireKind::Binary { main } => StoredRole::BinaryEval { main },
                WireKind::Filter => StoredRole::FilterTransport,
            };
            self.stores
                .get_mut(&origin)
                .expect("created")
                .insert_covered(
                    key,
                    StoredMj {
                        op: wire.op,
                        role,
                        is_user_sub,
                    },
                );
            return;
        }

        // Source check for locally registered subscriptions (Algorithm 3).
        if is_user_sub {
            let supported = wire.op.supported_dims(self.adverts.all());
            if supported.len() != wire.op.arity() {
                self.dropped_unanswerable += 1;
                return;
            }
        }

        let neighbors: Vec<NodeId> = ctx.neighbors().to_vec();
        match wire.kind {
            WireKind::Filter => {
                self.stores
                    .get_mut(&origin)
                    .expect("created")
                    .insert_uncovered(
                        key,
                        StoredMj {
                            op: wire.op.clone(),
                            role: StoredRole::FilterTransport,
                            is_user_sub,
                        },
                    );
                // forward the per-neighbor projections toward the sources
                self.split_into_filters(origin, &wire.op, ctx);
            }
            WireKind::Binary { main } => {
                // Binary joins are created at (and never leave) the
                // multi-join's divergence node — the paper's "it acts in a
                // way as the centralized server". They window-join here;
                // only their per-dimension simple filters travel on toward
                // the data sources.
                self.stores
                    .get_mut(&origin)
                    .expect("created")
                    .insert_uncovered(
                        key,
                        StoredMj {
                            op: wire.op.clone(),
                            role: StoredRole::BinaryEval { main },
                            is_user_sub,
                        },
                    );
                // raw streams are pulled by the multi-join's filter
                // transports (see `split_into_filters`)
            }
            WireKind::Multi => {
                let full = self.full_support_neighbors(&wire.op, origin, &neighbors);
                if full.is_empty() {
                    // First divergence node: split into binary joins
                    // ("it acts in a way as the centralized server").
                    self.stores
                        .get_mut(&origin)
                        .expect("created")
                        .insert_uncovered(
                            key,
                            StoredMj {
                                op: wire.op.clone(),
                                role: StoredRole::MultiSplit,
                                is_user_sub,
                            },
                        );
                    let dims: Vec<DimKey> = wire.op.dims().collect();
                    for (main, filter) in ring_pairs(&dims) {
                        let keep: BTreeSet<DimKey> = [main, filter].into_iter().collect();
                        let bop = wire.op.project(&keep).expect("dims are the op's own");
                        let bwire = MjWireOp::new(bop, WireKind::Binary { main });
                        self.handle_operator(origin, bwire, false, ctx);
                    }
                    // one filter transport per neighbor pulls the raw
                    // (value-filtered) streams to this node
                    self.split_into_filters(origin, &wire.op, ctx);
                } else {
                    self.stores
                        .get_mut(&origin)
                        .expect("created")
                        .insert_uncovered(
                            key,
                            StoredMj {
                                op: wire.op.clone(),
                                role: StoredRole::MultiAbove,
                                is_user_sub,
                            },
                        );
                    for j in full {
                        self.send_op(j, wire.clone(), ctx);
                    }
                }
            }
        }
    }

    // ----- explicit removal (unsubscribe / sensor churn) -----

    /// Withdraw every operator of `sub` stored from `origin` and retrace the
    /// forwards. The whole decomposition of one subscription carries the
    /// same `SubId` and, on a tree, reaches each node from exactly one
    /// origin, so whole-subscription removal is exact. Promotes covered
    /// operators that lost their cover.
    fn handle_remove_sub(
        &mut self,
        origin: Origin,
        sub: fsf_model::SubId,
        ctx: &mut Ctx<'_, MjMsg>,
    ) {
        let removed = self
            .stores
            .get_mut(&origin)
            .is_some_and(|s| s.remove_sub(sub));
        if !removed {
            return; // idempotent: unknown subscription, nothing to retrace
        }
        self.retrace_sub(sub, None, ctx);
        self.promote_uncovered(origin, ctx);
    }

    /// Retrace one subscription's forwards: withdraw it from every live
    /// neighbor its operators were sent to, except `skip` (a crashed
    /// neighbor, whose copies died with it), and forget the records.
    fn retrace_sub(
        &mut self,
        sub: fsf_model::SubId,
        skip: Option<NodeId>,
        ctx: &mut Ctx<'_, MjMsg>,
    ) {
        let mut notified: BTreeSet<NodeId> = BTreeSet::new();
        self.forwarded.retain(|(j, k)| {
            if k.sub == sub {
                notified.insert(*j);
            }
            k.sub != sub
        });
        for j in notified {
            if Some(j) != skip && ctx.neighbors().binary_search(&j).is_ok() {
                ctx.send(j, MjMsg::RemoveOperator(sub), ChargeKind::Subscription, 1);
            }
        }
    }

    /// Re-check the covered half of `origin`'s slot after a removal: any
    /// operator no longer pairwise-covered by the remaining uncovered set is
    /// promoted and re-processed as if newly received.
    fn promote_uncovered(&mut self, origin: Origin, ctx: &mut Ctx<'_, MjMsg>) {
        let Some(store) = self.stores.get(&origin) else {
            return;
        };
        let candidates: Vec<MjKey> = store.covered_entries().map(|(k, _)| k.clone()).collect();
        for key in candidates {
            let (still_covered, stored) = {
                let store = &self.stores[&origin];
                let Some(s) = store.covered_entries().find(|(k, _)| **k == key) else {
                    continue;
                };
                (
                    pairwise::covered_by_any(&s.1.op, store.filter_group(&key)),
                    s.1.clone(),
                )
            };
            if still_covered {
                continue;
            }
            self.stores
                .get_mut(&origin)
                .expect("slot exists")
                .remove_covered(&key);
            let kind = match stored.role {
                StoredRole::BinaryEval { main } => WireKind::Binary { main },
                StoredRole::FilterTransport => WireKind::Filter,
                StoredRole::MultiAbove | StoredRole::MultiSplit => WireKind::Multi,
            };
            let wire = MjWireOp::new(stored.op, kind);
            self.handle_operator(origin, wire, stored.is_user_sub, ctx);
        }
    }

    /// A sensor departed: retract its advertisement, retrace the flood
    /// ([`AdvStore::retract`]), and garbage-collect its stored readings.
    /// Operators referencing the departed sensor stay until their
    /// subscription is retracted — with the source gone they are inert, and
    /// whole-subscription removal does not depend on the advertisement
    /// picture.
    fn handle_sensor_down(
        &mut self,
        origin: Origin,
        sensor: fsf_model::SensorId,
        gen: Option<u64>,
        ctx: &mut Ctx<'_, MjMsg>,
    ) {
        if self.adverts.retract(origin, sensor, gen, ctx).is_some() {
            self.events.remove_sensor(sensor);
        }
    }

    // ----- crash recovery -----

    /// Purge every trace of a crashed neighbor: its whole interest slot
    /// (retracing each subscription's downstream forwards so the copies
    /// beyond this node are withdrawn too) and the forward records toward
    /// the corpse (those copies died with it). Advertisements learned via
    /// the corpse are kept for re-homing by the repair flood; the engine's
    /// management plane retracts the ones hosted on the corpse.
    fn purge_crashed_origin(&mut self, crashed: NodeId, ctx: &mut Ctx<'_, MjMsg>) {
        let origin = Origin::Neighbor(crashed);
        if let Some(store) = self.stores.remove(&origin) {
            for sub in store.sub_ids() {
                self.retrace_sub(sub, Some(crashed), ctx);
            }
        }
        self.forwarded.retain(|(j, _)| *j != crashed);
    }

    // ----- sensor mobility and crash repair -----

    /// Re-split toward the directions a `Move` or `AdvRepair` flood re-homed
    /// an advertisement between: the old direction first (demoting any
    /// `MultiAbove` whose fully-supporting neighbor lost the sensor — the
    /// divergence point migrates here), then the new path. `send_op`
    /// dedups, so intact forwards are never repeated.
    fn reroute(&mut self, toward: Resplit, ctx: &mut Ctx<'_, MjMsg>) {
        for j in toward.into_iter().flatten() {
            self.resplit_toward(j, ctx);
        }
    }

    /// Reconcile the stored decomposition with the data space behind `j`
    /// after it changed (crash repair or sensor mobility), in three steps:
    ///
    /// 1. **demote** any `MultiAbove` that lost its last fully-supporting
    ///    neighbor while every source is still reachable — this node
    ///    becomes the divergence point and re-processes it as a fresh
    ///    multi (splitting into binary joins + filter transports). An op
    ///    that lost a *source* is inert and stays pinned (the
    ///    `handle_sensor_down` rule), keeping its recorded forwards intact
    ///    for the eventual whole-subscription retrace;
    /// 2. compute the **desired** wire set toward `j`: per-neighbor filter
    ///    projections of transports and divergence filters, plus whole
    ///    multi-joins where `j` fully supports them;
    /// 3. **diff against the recorded forwards**: a subscription with a
    ///    recorded forward toward `j` that is no longer desired (the route
    ///    moved away) is withdrawn with a `RemoveOperator` retrace and re-sent
    ///    from the desired set; otherwise the missing forwards are simply
    ///    added (`send_op` dedups, so intact forwards are never repeated
    ///    and an unchanged picture sends nothing).
    fn resplit_toward(&mut self, j: NodeId, ctx: &mut Ctx<'_, MjMsg>) {
        self.resplit_toward_inner(j, ctx, false);
    }

    /// [`Self::resplit_toward`] with a `force` mode for partition healing:
    /// a forward recorded while the link was severed was dropped at the
    /// radio, so the sender-side dedup in [`Self::send_op`] would wrongly
    /// skip it. Forcing clears the record for every desired wire before
    /// re-sending; the receiver dedups by key, so intact copies cost one
    /// message each.
    fn resplit_toward_inner(&mut self, j: NodeId, ctx: &mut Ctx<'_, MjMsg>, force: bool) {
        if ctx.neighbors().binary_search(&j).is_err() {
            return;
        }
        let neighbors: Vec<NodeId> = ctx.neighbors().to_vec();
        let mut demote: Vec<(Origin, MjKey, StoredMj)> = Vec::new();
        for (&origin, store) in &self.stores {
            if origin == Origin::Neighbor(j) {
                continue;
            }
            for (key, s) in store.uncovered_entries() {
                if matches!(s.role, StoredRole::MultiAbove) {
                    let full = self.full_support_neighbors(&s.op, origin, &neighbors);
                    if full.is_empty()
                        && s.op.supported_dims(self.adverts.all()).len() == s.op.arity()
                    {
                        demote.push((origin, key.clone(), s.clone()));
                    }
                }
            }
        }
        for (origin, key, stored) in demote {
            self.stores
                .get_mut(&origin)
                .expect("slot seen above")
                .remove_uncovered(&key);
            self.handle_operator(
                origin,
                MjWireOp::new(stored.op, WireKind::Multi),
                stored.is_user_sub,
                ctx,
            );
        }
        let mut desired: BTreeMap<fsf_model::SubId, Vec<MjWireOp>> = BTreeMap::new();
        for (&origin, store) in &self.stores {
            if origin == Origin::Neighbor(j) {
                continue;
            }
            for (key, s) in store.uncovered_entries() {
                match s.role {
                    StoredRole::FilterTransport | StoredRole::MultiSplit => {
                        let sup =
                            s.op.supported_dims(self.adverts.from_origin(Origin::Neighbor(j)));
                        if let Some(proj) = s.op.project(&sup) {
                            desired
                                .entry(key.sub)
                                .or_default()
                                .push(MjWireOp::new(proj, WireKind::Filter));
                        }
                    }
                    StoredRole::MultiAbove => {
                        let full = self.full_support_neighbors(&s.op, origin, &neighbors);
                        if full.contains(&j) {
                            desired
                                .entry(key.sub)
                                .or_default()
                                .push(MjWireOp::new(s.op.clone(), WireKind::Multi));
                        }
                    }
                    StoredRole::BinaryEval { .. } => {} // binaries never travel
                }
            }
        }
        // withdraw subscriptions whose recorded forwards toward j are no
        // longer what the current picture would produce — only for subs
        // this node still stores away from j (foreign residue belongs to
        // the removal cascade, not to the resplit)
        let mut stale: Vec<fsf_model::SubId> = Vec::new();
        for (nj, key) in &self.forwarded {
            if *nj != j || stale.contains(&key.sub) {
                continue;
            }
            let wanted = desired
                .get(&key.sub)
                .is_some_and(|ops| ops.iter().any(|w| w.key() == *key));
            let stored_here = self.stores.iter().any(|(&o, s)| {
                o != Origin::Neighbor(j) && s.uncovered_entries().any(|(k, _)| k.sub == key.sub)
            });
            if !wanted && stored_here {
                stale.push(key.sub);
            }
        }
        for sub in stale {
            self.forwarded.retain(|(nj, k)| !(*nj == j && k.sub == sub));
            ctx.send(j, MjMsg::RemoveOperator(sub), ChargeKind::Subscription, 1);
        }
        for wires in desired.into_values() {
            for wire in wires {
                if force {
                    self.forwarded.remove(&(j, wire.key()));
                }
                self.send_op(j, wire, ctx);
            }
        }
    }

    /// Send the divergence node's value filters toward the data sources:
    /// one per-neighbor projection of the multi-join's filter set ("the
    /// natural splitting into simple operators, according to the network
    /// connections behind this node").
    fn split_into_filters(&mut self, origin: Origin, op: &Operator, ctx: &mut Ctx<'_, MjMsg>) {
        let neighbors: Vec<NodeId> = ctx.neighbors().to_vec();
        for &j in &neighbors {
            if Origin::Neighbor(j) == origin {
                continue;
            }
            let sup = op.supported_dims(self.adverts.from_origin(Origin::Neighbor(j)));
            if let Some(proj) = op.project(&sup) {
                self.send_op(j, MjWireOp::new(proj, WireKind::Filter), ctx);
            }
        }
    }

    // ----- events -----

    /// The batched incremental matching core (multi-join edition): one
    /// incoming frame is processed event-at-a-time in frame order — insert,
    /// local delivery, per-neighbor match — while the outgoing wire traffic
    /// accumulates per link and is flushed as one framed multi-event
    /// message per link per frame, charge units summed over the matches.
    fn handle_event_batch(&mut self, origin: Origin, events: Vec<Event>, ctx: &mut Ctx<'_, MjMsg>) {
        // settle, then borrow: the stabs below run on shared borrows
        for store in self.stores.values_mut() {
            store.settle();
        }
        let neighbors: Vec<NodeId> = ctx.neighbors().to_vec();
        let mut frames: BTreeMap<NodeId, LinkFrame> = BTreeMap::new();
        for event in events {
            if !self.events.insert(event) {
                continue;
            }
            // every pass records its `sendTo` marks in it
            let parked = self.scratch.as_deref_mut().map(std::mem::take);
            let (mut corr, mut matched) = parked.unwrap_or_default();
            self.deliver_locally(&event, &mut corr, &mut matched, ctx);
            for &j in &neighbors {
                if Origin::Neighbor(j) == origin {
                    continue;
                }
                self.collect_forward(j, &event, &mut corr, &mut matched, &mut frames);
            }
            let (corr, matched) = (corr.park(), recycle(matched));
            **self.scratch.get_or_insert_default() = (self.events.apply(corr), matched);
        }
        for (j, frame) in frames {
            if !frame.batch.is_empty() {
                let units = frame.batch.len() as u64;
                ctx.send(j, MjMsg::Events(frame.batch), ChargeKind::Event, units);
            }
        }
    }

    /// Fill `matched` with the uncovered operators of `origin` whose value
    /// filter on the event's sensor or attribute-type dimension matches it.
    fn matching<'a>(&'a self, origin: Origin, event: &Event, matched: &mut Matched<'a>) {
        matched.clear();
        if let Some(store) = self.stores.get(&origin) {
            for d in [DimKey::Sensor(event.sensor), DimKey::Attr(event.attr)] {
                store.uncovered_matching(self.match_mode, &d, event, matched);
            }
        }
    }

    /// Final filtering at the user: whole-subscription window matching, so
    /// binary-join false positives are dropped here and never delivered.
    fn deliver_locally<'a>(
        &'a self,
        event: &Event,
        corr: &mut Correlator<'a>,
        matched: &mut Matched<'a>,
        ctx: &mut Ctx<'_, MjMsg>,
    ) {
        let Some(store) = self.stores.get(&Origin::Local) else {
            return;
        };
        self.matching(Origin::Local, event, matched);
        // covered user subscriptions are still served (they ride on their
        // coverer's streams); consulted only here, that half stays a scan
        matched.extend(
            store
                .covered_entries()
                .filter(|(_, s)| s.op.matches_simple(event)),
        );
        matched.retain(|(_, s)| s.is_user_sub);
        let pass = matched.iter().map(|(_, s)| &s.op);
        corr.begin_pass(&self.events, event.timestamp, self.match_mode, pass);
        for (_, s) in matched.iter() {
            if let Some(complex) = corr.deliver(&s.op) {
                ctx.deliver(s.op.sub(), complex);
            }
        }
    }

    /// The per-neighbor half of event processing for one event,
    /// accumulating into the per-link frame [`Self::handle_event_batch`]
    /// flushes. Match semantics and `sendTo` marks as the unbatched sender's.
    fn collect_forward<'a>(
        &'a self,
        j: NodeId,
        event: &Event,
        corr: &mut Correlator<'a>,
        matched: &mut Matched<'a>,
        frames: &mut BTreeMap<NodeId, LinkFrame>,
    ) {
        // Which stored events should flow to j because of this arrival?
        self.matching(Origin::Neighbor(j), event, matched);
        if matched.is_empty() {
            return;
        }
        // only the binary joins correlate
        let joins = |m: &&(&MjKey, &StoredMj)| matches!(m.1.role, StoredRole::BinaryEval { .. });
        let pass = matched.iter().filter(joins).map(|m| &m.1.op);
        corr.begin_pass(&self.events, event.timestamp, self.match_mode, pass);
        let link = SentScope::Link(j);
        let frame = frames.entry(j).or_default();
        for (_, s) in matched.iter() {
            match s.role {
                StoredRole::MultiSplit => {} // inert: binaries act here
                StoredRole::FilterTransport | StoredRole::MultiAbove => {
                    // pass-through result dissemination: value filters only,
                    // no window re-evaluation (this is what lets binary-join
                    // false positives travel to the user)
                    if corr.unsent(&self.events, event.id, &link) {
                        frame.push(event);
                        corr.mark(link.clone(), [event.id]);
                    }
                }
                StoredRole::BinaryEval { main } => {
                    let Some(scope) = corr.correlate(&s.op, || link.clone()) else {
                        continue;
                    };
                    let main = s.op.predicate_for(&main);
                    corr.fresh
                        .retain(|f| main.is_some_and(|p| p.matches(f.event(), s.op.region())));
                    corr.fresh.iter().for_each(|f| frame.push(f.event()));
                    corr.mark_fresh(scope);
                }
            }
        }
    }
}

impl NodeBehavior for MjNode {
    type Msg = MjMsg;

    fn on_message(&mut self, from: NodeId, msg: MjMsg, ctx: &mut Ctx<'_, MjMsg>) {
        let origin = if from == ctx.node() {
            Origin::Local
        } else {
            Origin::Neighbor(from)
        };
        match msg {
            MjMsg::SensorUp(adv) => self.adverts.advertise(Origin::Local, adv, ctx),
            MjMsg::Adv(adv) => self.adverts.advertise(origin, adv, ctx),
            MjMsg::SensorDown(sensor) => self.handle_sensor_down(Origin::Local, sensor, None, ctx),
            MjMsg::AdvDown(sensor, gen) => self.handle_sensor_down(origin, sensor, Some(gen), ctx),
            MjMsg::AdvRepair(adv, gen) => {
                let toward = self.adverts.repair(origin, adv, gen, ctx);
                self.reroute(toward, ctx);
            }
            MjMsg::Move(adv, gen) => {
                if let Some(toward) = self.adverts.relocate(origin, adv, gen, ctx) {
                    // fresh correlation epoch for the moved sensor (stationary-
                    // twin rule: the retire-at-old-host twin drops these too)
                    self.events.remove_sensor(adv.sensor);
                    self.reroute(toward, ctx);
                }
            }
            MjMsg::Unsubscribe(sub) => self.handle_remove_sub(Origin::Local, sub, ctx),
            MjMsg::RemoveOperator(sub) => self.handle_remove_sub(origin, sub, ctx),
            MjMsg::Subscribe(sub) => {
                let arity = sub.arity();
                let op = Operator::from_subscription(&sub);
                let kind = if arity == 1 {
                    WireKind::Filter
                } else {
                    WireKind::Multi
                };
                self.handle_operator(Origin::Local, MjWireOp::new(op, kind), true, ctx);
            }
            MjMsg::Operator(wire) => self.handle_operator(origin, wire, false, ctx),
            MjMsg::Publish(event) => self.handle_event_batch(Origin::Local, vec![event], ctx),
            MjMsg::Events(events) => self.handle_event_batch(origin, events, ctx),
        }
    }

    /// Crash recovery, multi-join edition: the crashed node's former
    /// neighbors purge the corpse's slot (with downstream retraction) and
    /// offer each other their live advertisement picture across the new
    /// edges ([`AdvStore::seam_offer`]); the repairs that change a route
    /// drive the decomposition re-forward.
    fn on_recover(&mut self, delta: &fsf_network::RegraftDelta, ctx: &mut Ctx<'_, MjMsg>) {
        if delta.was_neighbor(self.id) {
            self.purge_crashed_origin(delta.crashed, ctx);
            self.adverts.seam_offer(delta, ctx);
        }
    }

    /// A severed link healed: offer this half's advertisement picture
    /// across ([`AdvStore::offer`]) and force-re-forward the stored
    /// decomposition toward the peer, clearing the sender-side dedup
    /// records that were poisoned by radio-dropped forwards.
    fn on_link_up(&mut self, peer: NodeId, ctx: &mut Ctx<'_, MjMsg>) {
        self.adverts.offer(peer, ctx);
        self.resplit_toward_inner(peer, ctx, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsf_model::{
        Advertisement, AttrId, EventId, Point, SensorId, SubId, Subscription, Timestamp, ValueRange,
    };
    use fsf_network::{builders, Simulator, Topology};

    const DT: u64 = 30;

    fn adv(sensor: u32, attr: u16) -> Advertisement {
        Advertisement {
            sensor: SensorId(sensor),
            attr: AttrId(attr),
            location: Point::new(sensor as f64, 0.0),
        }
    }

    fn sub(id: u64, filters: &[(u32, f64, f64)]) -> Subscription {
        Subscription::identified(
            SubId(id),
            filters
                .iter()
                .map(|&(d, lo, hi)| (SensorId(d), ValueRange::new(lo, hi))),
            DT,
        )
        .unwrap()
    }

    fn ev(id: u64, sensor: u32, attr: u16, v: f64, t: u64) -> Event {
        Event {
            id: EventId(id),
            sensor: SensorId(sensor),
            attr: AttrId(attr),
            location: Point::new(sensor as f64, 0.0),
            value: v,
            timestamp: Timestamp(t),
        }
    }

    /// Star with centre 0; sensors 1,2,3 at leaves 1,2,3; user at leaf 4.
    fn star_sim() -> Simulator<MjNode> {
        let topo = builders::star(5);
        let mut s = Simulator::new(topo, |id, _| MjNode::new(id, 2 * DT));
        s.inject_and_run(NodeId(1), MjMsg::SensorUp(adv(1, 0)));
        s.inject_and_run(NodeId(2), MjMsg::SensorUp(adv(2, 1)));
        s.inject_and_run(NodeId(3), MjMsg::SensorUp(adv(3, 2)));
        s
    }

    #[test]
    fn three_way_join_splits_into_binaries_at_divergence() {
        let mut s = star_sim();
        s.inject_and_run(
            NodeId(4),
            MjMsg::Subscribe(sub(1, &[(1, 0.0, 10.0), (2, 0.0, 10.0), (3, 0.0, 10.0)])),
        );
        // user→hub: 1 multi; hub: 3 binaries eval here, 3 simple filters out
        assert_eq!(s.stats.sub_forwards(), 1 + 3);
        let hub = s
            .node(NodeId(0))
            .store(Origin::Neighbor(NodeId(4)))
            .unwrap();
        let evals = hub
            .uncovered()
            .iter()
            .filter(|m| matches!(m.role, StoredRole::BinaryEval { .. }))
            .count();
        assert_eq!(evals, 3);
        // sensor nodes got their simple filters
        let leaf = s
            .node(NodeId(1))
            .store(Origin::Neighbor(NodeId(0)))
            .unwrap();
        assert_eq!(leaf.uncovered().len(), 1);
        assert!(matches!(
            leaf.uncovered()[0].role,
            StoredRole::FilterTransport
        ));
    }

    #[test]
    fn true_complex_event_is_fully_delivered() {
        let mut s = star_sim();
        s.inject_and_run(
            NodeId(4),
            MjMsg::Subscribe(sub(1, &[(1, 0.0, 10.0), (2, 0.0, 10.0), (3, 0.0, 10.0)])),
        );
        s.inject_and_run(NodeId(1), MjMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        s.inject_and_run(NodeId(2), MjMsg::Publish(ev(101, 2, 1, 5.0, 1005)));
        s.inject_and_run(NodeId(3), MjMsg::Publish(ev(102, 3, 2, 5.0, 1010)));
        let d = s.deliveries.delivered(SubId(1));
        assert_eq!(d.len(), 3, "all three constituents reach the user");
    }

    #[test]
    fn false_positives_travel_to_user_but_are_not_delivered() {
        let mut s = star_sim();
        s.inject_and_run(
            NodeId(4),
            MjMsg::Subscribe(sub(1, &[(1, 0.0, 10.0), (2, 0.0, 10.0), (3, 0.0, 10.0)])),
        );
        // only sensors 1 and 2 fire: binary (1|2) sanctions the sensor-1
        // event → false positive flows to the user; full join never matches.
        s.inject_and_run(NodeId(1), MjMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        s.inject_and_run(NodeId(2), MjMsg::Publish(ev(101, 2, 1, 5.0, 1005)));
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 0, "no delivery");
        // raw events to hub: 1+1; sanctioned FP hub→user: ≥1
        let fp_units = s.stats.link(NodeId(0), NodeId(4)).events();
        assert!(
            fp_units >= 1,
            "false positive crossed toward the user: {fp_units}"
        );
    }

    #[test]
    fn two_way_join_has_no_false_positives() {
        let mut s = star_sim();
        s.inject_and_run(
            NodeId(4),
            MjMsg::Subscribe(sub(1, &[(1, 0.0, 10.0), (2, 0.0, 10.0)])),
        );
        s.inject_and_run(NodeId(1), MjMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        // lone event: no partner → nothing to the user
        assert_eq!(s.stats.link(NodeId(0), NodeId(4)).events(), 0);
        s.inject_and_run(NodeId(2), MjMsg::Publish(ev(101, 2, 1, 5.0, 1005)));
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 2);
        assert_eq!(s.stats.link(NodeId(0), NodeId(4)).events(), 2);
    }

    #[test]
    fn events_are_deduped_per_link_across_overlapping_subs() {
        let mut s = star_sim();
        s.inject_and_run(
            NodeId(4),
            MjMsg::Subscribe(sub(1, &[(1, 0.0, 6.0), (2, 0.0, 10.0)])),
        );
        s.inject_and_run(
            NodeId(4),
            MjMsg::Subscribe(sub(2, &[(1, 4.0, 10.0), (2, 0.0, 10.0)])),
        );
        s.inject_and_run(NodeId(1), MjMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        s.inject_and_run(NodeId(2), MjMsg::Publish(ev(101, 2, 1, 5.0, 1005)));
        // hub→user link carries each event once despite two matching subs
        assert_eq!(s.stats.link(NodeId(0), NodeId(4)).events(), 2);
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 2);
        assert_eq!(s.deliveries.delivered(SubId(2)).len(), 2);
    }

    #[test]
    fn covered_binary_joins_are_filtered() {
        let mut s = star_sim();
        s.inject_and_run(
            NodeId(4),
            MjMsg::Subscribe(sub(1, &[(1, 0.0, 10.0), (2, 0.0, 10.0)])),
        );
        let before = s.stats.sub_forwards();
        // narrower multi-join over the same dims: covered pairwise at the
        // user node already — no further forwards at all
        s.inject_and_run(
            NodeId(4),
            MjMsg::Subscribe(sub(2, &[(1, 2.0, 8.0), (2, 2.0, 8.0)])),
        );
        assert_eq!(s.stats.sub_forwards(), before);
        // …and still served
        s.inject_and_run(NodeId(1), MjMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        s.inject_and_run(NodeId(2), MjMsg::Publish(ev(101, 2, 1, 5.0, 1005)));
        assert_eq!(s.deliveries.delivered(SubId(2)).len(), 2);
    }

    #[test]
    fn pre_divergence_path_carries_whole_multijoin() {
        // line: user(0) — 1 — 2(hub) — 3(sensor1), plus 4(sensor2) on hub
        let topo = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (2, 4)]).unwrap();
        let mut s = Simulator::new(topo, |id, _| MjNode::new(id, 2 * DT));
        s.inject_and_run(NodeId(3), MjMsg::SensorUp(adv(1, 0)));
        s.inject_and_run(NodeId(4), MjMsg::SensorUp(adv(2, 1)));
        s.inject_and_run(
            NodeId(0),
            MjMsg::Subscribe(sub(1, &[(1, 0.0, 10.0), (2, 0.0, 10.0)])),
        );
        // 0→1 and 1→2 carry the whole multi (2 forwards); at 2 it splits:
        // two binaries eval at 2, simple filters 2→3 and 2→4 (2 forwards)
        assert_eq!(s.stats.sub_forwards(), 4);
        let n1 = s
            .node(NodeId(1))
            .store(Origin::Neighbor(NodeId(0)))
            .unwrap();
        assert!(matches!(n1.uncovered()[0].role, StoredRole::MultiAbove));
        let hub = s
            .node(NodeId(2))
            .store(Origin::Neighbor(NodeId(1)))
            .unwrap();
        assert!(hub
            .uncovered()
            .iter()
            .any(|m| matches!(m.role, StoredRole::MultiSplit)));
        // events complete end-to-end through the pass-through segment
        s.inject_and_run(NodeId(3), MjMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        s.inject_and_run(NodeId(4), MjMsg::Publish(ev(101, 2, 1, 5.0, 1005)));
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 2);
    }

    #[test]
    fn move_migrates_the_join_point_with_multiabove_demotion() {
        // line: user(0) — 1 — 2(hub) — 3(sensor1), plus 4(sensor2) on hub
        let topo = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (2, 4)]).unwrap();
        let mut s = Simulator::new(topo, |id, _| MjNode::new(id, 2 * DT));
        s.inject_and_run(NodeId(3), MjMsg::SensorUp(adv(1, 0)));
        s.inject_and_run(NodeId(4), MjMsg::SensorUp(adv(2, 1)));
        s.inject_and_run(
            NodeId(0),
            MjMsg::Subscribe(sub(1, &[(1, 0.0, 10.0), (2, 0.0, 10.0)])),
        );
        let n1 = s
            .node(NodeId(1))
            .store(Origin::Neighbor(NodeId(0)))
            .unwrap();
        assert!(matches!(n1.uncovered()[0].role, StoredRole::MultiAbove));
        // sensor 1 moves onto the relay n1: no neighbor of n1 fully
        // supports the multi any more, so the stored MultiAbove demotes —
        // n1 becomes the divergence node and splits the join locally
        s.inject_and_run(NodeId(1), MjMsg::Move(adv(1, 0), 1));
        assert_eq!(
            s.node(NodeId(1)).adverts().from_origin(Origin::Local).len(),
            1
        );
        let n1 = s
            .node(NodeId(1))
            .store(Origin::Neighbor(NodeId(0)))
            .unwrap();
        assert!(
            n1.uncovered()
                .iter()
                .any(|m| matches!(m.role, StoredRole::MultiSplit)),
            "MultiAbove was not demoted when the join point moved"
        );
        assert!(n1
            .uncovered()
            .iter()
            .any(|m| matches!(m.role, StoredRole::BinaryEval { .. })));
        // both constituents reach the user through the migrated join point
        s.inject_and_run(NodeId(1), MjMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        s.inject_and_run(NodeId(4), MjMsg::Publish(ev(101, 2, 1, 5.0, 1005)));
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 2);
    }

    #[test]
    fn single_attribute_subscription_behaves_like_simple_filter() {
        let mut s = star_sim();
        s.inject_and_run(NodeId(4), MjMsg::Subscribe(sub(1, &[(1, 0.0, 10.0)])));
        assert_eq!(s.stats.sub_forwards(), 2, "user→hub, hub→sensor");
        s.inject_and_run(NodeId(1), MjMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 1);
        s.inject_and_run(NodeId(1), MjMsg::Publish(ev(101, 1, 0, 50.0, 1001)));
        assert_eq!(
            s.deliveries.delivered(SubId(1)).len(),
            1,
            "out of range filtered at source"
        );
    }

    #[test]
    fn unsubscribe_withdraws_the_whole_decomposition() {
        let mut s = star_sim();
        s.inject_and_run(
            NodeId(4),
            MjMsg::Subscribe(sub(1, &[(1, 0.0, 10.0), (2, 0.0, 10.0), (3, 0.0, 10.0)])),
        );
        s.inject_and_run(NodeId(4), MjMsg::Unsubscribe(SubId(1)));
        for n in 0..5u32 {
            let (_, ops, _, fwd) = s.node(NodeId(n)).state_counts();
            assert_eq!(ops, 0, "n{n} leaked operators");
            assert_eq!(fwd, 0, "n{n} leaked forward entries");
        }
        // further readings go nowhere
        let before = s.stats.event_units();
        s.inject_and_run(NodeId(1), MjMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        s.inject_and_run(NodeId(2), MjMsg::Publish(ev(101, 2, 1, 5.0, 1005)));
        assert_eq!(s.stats.event_units(), before);
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 0);
        // idempotent
        let stats = s.stats.clone();
        s.inject_and_run(NodeId(4), MjMsg::Unsubscribe(SubId(1)));
        assert_eq!(s.stats, stats);
    }

    #[test]
    fn unsubscribing_the_coverer_promotes_the_covered_multijoin() {
        let mut s = star_sim();
        s.inject_and_run(
            NodeId(4),
            MjMsg::Subscribe(sub(1, &[(1, 0.0, 10.0), (2, 0.0, 10.0)])),
        );
        // narrower multi over the same dims: covered at the user node
        s.inject_and_run(
            NodeId(4),
            MjMsg::Subscribe(sub(2, &[(1, 2.0, 8.0), (2, 2.0, 8.0)])),
        );
        s.inject_and_run(NodeId(4), MjMsg::Unsubscribe(SubId(1)));
        // s2 was promoted and re-forwarded; it is now served directly
        s.inject_and_run(NodeId(1), MjMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        s.inject_and_run(NodeId(2), MjMsg::Publish(ev(101, 2, 1, 5.0, 1005)));
        assert_eq!(s.deliveries.delivered(SubId(2)).len(), 2);
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 0, "s1 is gone");
    }

    #[test]
    fn sensor_down_retracts_adverts_and_collects_events() {
        let mut s = star_sim();
        s.inject_and_run(
            NodeId(4),
            MjMsg::Subscribe(sub(1, &[(1, 0.0, 10.0), (2, 0.0, 10.0)])),
        );
        s.inject_and_run(NodeId(1), MjMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        s.inject_and_run(NodeId(1), MjMsg::SensorDown(SensorId(1)));
        for n in 0..5u32 {
            let node = s.node(NodeId(n));
            assert!(!node.adverts().knows_sensor(SensorId(1)), "n{n} advert");
        }
        // the departed sensor's stored reading is gone everywhere, so a late
        // partner cannot resurrect the join
        s.inject_and_run(NodeId(2), MjMsg::Publish(ev(101, 2, 1, 5.0, 1005)));
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 0);
        // idempotent
        let stats = s.stats.clone();
        s.inject_and_run(NodeId(1), MjMsg::SensorDown(SensorId(1)));
        assert_eq!(s.stats, stats);
    }

    #[test]
    fn resubscription_after_removal_is_fresh() {
        let mut s = star_sim();
        let subscription = sub(1, &[(1, 0.0, 10.0), (2, 0.0, 10.0)]);
        s.inject_and_run(NodeId(4), MjMsg::Subscribe(subscription.clone()));
        s.inject_and_run(NodeId(4), MjMsg::Unsubscribe(SubId(1)));
        s.inject_and_run(NodeId(4), MjMsg::Subscribe(subscription));
        s.inject_and_run(NodeId(1), MjMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        s.inject_and_run(NodeId(2), MjMsg::Publish(ev(101, 2, 1, 5.0, 1005)));
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 2);
    }

    #[test]
    fn unanswerable_subscription_dropped() {
        let mut s = star_sim();
        s.inject_and_run(
            NodeId(4),
            MjMsg::Subscribe(sub(1, &[(1, 0.0, 10.0), (99, 0.0, 1.0)])),
        );
        assert_eq!(s.stats.sub_forwards(), 0);
        assert_eq!(s.node(NodeId(4)).dropped_unanswerable(), 1);
    }
}
