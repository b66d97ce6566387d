//! The publish/subscribe processing node — Algorithms 1–5 of the paper.
//!
//! [`PubSubNode`] implements the full Filter-Split-Forward pipeline:
//!
//! * **Advertisement propagation** (Algorithm 1): flooding with per-sensor
//!   idempotence, storing `DSA_m` per origin — the advertisement plane on
//!   [`AdvStore`], shared with the multi-join engine;
//! * **Subscription propagation** (Algorithms 2–4): filter the incoming
//!   operator against the same-origin, same-signature uncovered set
//!   (`filter(s, 𝒮)` — policy-configurable), then *split and forward*:
//!   project the operator onto each neighbor's advertised data space and
//!   forward the projections along the reverse advertisement paths;
//! * **Event propagation** (Algorithm 5): store events in the
//!   timestamp-indexed store, reassemble complex events inside the `δt`
//!   correlation band, deliver to local subscriptions, and forward matching
//!   simple events to the neighbors whose operators matched — deduplicated
//!   per link (Filter-Split-Forward) or per operator stream (the baselines'
//!   "per subscription" result sets).

use crate::events::{recycle, Correlator, EventStore, LinkFrame, SentScope};
use crate::msg::Msg;
use crate::ranking::RankPolicy;
use crate::store::{AdvStore, Origin, Resplit, SubStore};
use fsf_model::{DimKey, Event, Operator};
use fsf_network::{ChargeKind, Ctx, NodeBehavior, NodeId};
use fsf_subsumption::{FilterPolicy, MatchMode, SubscriptionFilter};
use std::collections::BTreeMap;

/// Result-set duplicate suppression granularity (Table II, "Event
/// propagation" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DedupMode {
    /// "Per neighbor": each simple event crosses a link at most once —
    /// the publish/subscribe forwarding of Filter-Split-Forward.
    #[default]
    PerLink,
    /// "Per subscription": each operator's result set is an independent
    /// stream; overlapping operators duplicate events on shared links —
    /// the naive and operator-placement baselines.
    PerOperator,
}

/// Node configuration: the two Table II axes plus bookkeeping knobs.
#[derive(Debug, Clone, Copy)]
pub struct PubSubConfig {
    /// Subscription filtering technique (Algorithm 2 policy).
    pub filter: FilterPolicy,
    /// Result duplicate-suppression granularity.
    pub dedup: DedupMode,
    /// Event-store validity horizon; must exceed the largest `δt` of any
    /// subscription in the system (§IV-B).
    pub event_validity: u64,
    /// Base RNG seed; each node derives its filter seed from this and its id.
    pub seed: u64,
    /// Optional top-k ranked forwarding (§VII extension).
    pub rank: RankPolicy,
    /// Candidate-query implementation: the shared range arrangement
    /// (default) or the linear inverted-index scan kept as the
    /// differential-test oracle.
    pub match_mode: MatchMode,
}

impl PubSubConfig {
    /// Filter-Split-Forward with the paper-default probabilistic set filter.
    #[must_use]
    pub fn fsf(event_validity: u64, seed: u64) -> Self {
        PubSubConfig {
            filter: FilterPolicy::SetFilter(fsf_subsumption::SetFilterConfig::paper_default()),
            dedup: DedupMode::PerLink,
            event_validity,
            seed,
            rank: RankPolicy::All,
            match_mode: MatchMode::default(),
        }
    }

    /// The naive baseline: no filtering, per-subscription result sets.
    #[must_use]
    pub fn naive(event_validity: u64, seed: u64) -> Self {
        PubSubConfig {
            filter: FilterPolicy::None,
            dedup: DedupMode::PerOperator,
            event_validity,
            seed,
            rank: RankPolicy::All,
            match_mode: MatchMode::default(),
        }
    }

    /// The distributed operator-placement baseline: pairwise coverage,
    /// per-subscription result sets.
    #[must_use]
    pub fn operator_placement(event_validity: u64, seed: u64) -> Self {
        PubSubConfig {
            filter: FilterPolicy::Pairwise,
            dedup: DedupMode::PerOperator,
            event_validity,
            seed,
            rank: RankPolicy::All,
            match_mode: MatchMode::default(),
        }
    }

    /// Same configuration, different candidate-query implementation.
    #[must_use]
    pub fn with_match_mode(mut self, mode: MatchMode) -> Self {
        self.match_mode = mode;
        self
    }
}

/// Wire messages of the pub/sub engines: the shared [`Msg`] carrying
/// correlation operators, withdrawn one projection at a time by key.
pub type PubSubMsg = Msg<Operator, fsf_model::OperatorKey>;

/// A node's storage footprint (the paper's Fig. 2 data structures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorageStats {
    /// Advertisements across all `DSA_*` stores.
    pub advertisements: usize,
    /// Active (uncovered) operators across all `S_*` stores.
    pub uncovered_operators: usize,
    /// Redundant (covered) operators across all `S_*` stores.
    pub covered_operators: usize,
    /// Unexpired simple events in `U`.
    pub stored_events: usize,
    /// Origin slots with subscription state (local + neighbors).
    pub origins: usize,
    /// Forwarded-projection route entries (the reverse paths removal
    /// messages retrace).
    pub forwarded_routes: usize,
}

impl StorageStats {
    /// Total operators (uncovered + covered).
    #[must_use]
    pub fn total_operators(&self) -> usize {
        self.uncovered_operators + self.covered_operators
    }
}

/// A publish/subscribe processing node (Fig. 2 state + Algorithms 1–5).
#[derive(Debug)]
pub struct PubSubNode {
    id: NodeId,
    config: PubSubConfig,
    adverts: AdvStore,
    subs: BTreeMap<Origin, SubStore>,
    filter: SubscriptionFilter,
    events: EventStore,
    /// Exactly which projection was forwarded where, per stored uncovered
    /// operator: `(origin, parent key) → {neighbor → projected key}`. This
    /// is the routing state that removal messages retrace — recorded at
    /// send time so retraction stays correct even after the advertisement
    /// picture changed (sensor churn).
    routes: BTreeMap<(Origin, fsf_model::OperatorKey), BTreeMap<NodeId, fsf_model::OperatorKey>>,
    dropped_unanswerable: u64,
    /// The match path's buffers, parked empty between events: allocated
    /// once, at the first (most nodes of a wide tree never see one).
    scratch: Option<Box<(Correlator<'static>, Vec<&'static Operator>)>>,
}

impl PubSubNode {
    /// Create a node.
    #[must_use]
    pub fn new(id: NodeId, config: PubSubConfig) -> Self {
        // Mix the node id into the filter seed so nodes draw independent
        // Monte-Carlo samples while staying deterministic per (seed, id).
        let filter_seed =
            config.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(id.0) + 1));
        PubSubNode {
            id,
            config,
            adverts: AdvStore::new(),
            subs: BTreeMap::new(),
            filter: SubscriptionFilter::new(config.filter, filter_seed),
            events: EventStore::new(config.event_validity),
            routes: BTreeMap::new(),
            dropped_unanswerable: 0,
            scratch: None,
        }
    }

    /// The node id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The candidate-query implementation this node matches with.
    #[must_use]
    pub fn match_mode(&self) -> MatchMode {
        self.config.match_mode
    }

    /// The advertisement store (`DSA_*`), for inspection.
    #[must_use]
    pub fn adverts(&self) -> &AdvStore {
        &self.adverts
    }

    /// The subscription store for one origin (`S_local` / `S_m`), if any.
    #[must_use]
    pub fn subs(&self, origin: Origin) -> Option<&SubStore> {
        self.subs.get(&origin)
    }

    /// The event store `U`, for inspection.
    #[must_use]
    pub fn events(&self) -> &EventStore {
        &self.events
    }

    /// Locally injected subscriptions dropped because some dimension had no
    /// matching data source (Algorithm 3, line 3).
    #[must_use]
    pub fn dropped_unanswerable(&self) -> u64 {
        self.dropped_unanswerable
    }

    /// Total operators stored across all origins (uncovered + covered).
    #[must_use]
    pub fn stored_operator_count(&self) -> usize {
        self.subs.values().map(SubStore::len).sum()
    }

    /// Snapshot of this node's storage footprint — the quantities the
    /// paper's Fig. 2 / §V discuss ("the gain in memory space … can be
    /// immediately observed").
    #[must_use]
    pub fn storage_stats(&self) -> StorageStats {
        StorageStats {
            advertisements: self.adverts.len(),
            uncovered_operators: self.subs.values().map(|s| s.uncovered.len()).sum(),
            covered_operators: self.subs.values().map(|s| s.covered.len()).sum(),
            stored_events: self.events.len(),
            origins: self.subs.len(),
            forwarded_routes: self.routes.values().map(BTreeMap::len).sum(),
        }
    }

    /// Do all of this node's range arrangements (every origin, covered and
    /// uncovered halves) equal ones rebuilt from scratch over the stored
    /// operators? The rebuild property the churn/mobility/crash tests hold
    /// every node to.
    #[must_use]
    pub fn arrangements_consistent(&self) -> bool {
        self.subs
            .values()
            .all(|s| s.uncovered.arrangement_consistent() && s.covered.arrangement_consistent())
    }

    /// Mobility leak check: recorded route entries whose projection no
    /// longer matches what the *current* advertisement picture would
    /// produce — i.e. routing state left behind by a superseded
    /// advertisement generation. A quiescent network must report none on
    /// any node: after every move, `resplit_toward` must have reconciled
    /// each recorded route with the re-homed advertisement origins.
    #[must_use]
    pub fn stale_routes(&self) -> Vec<String> {
        let mut out = Vec::new();
        for ((origin, key), targets) in &self.routes {
            let Some(op) = self.subs.get(origin).and_then(|s| s.uncovered.get(key)) else {
                out.push(format!("route for missing operator {key:?} from {origin}"));
                continue;
            };
            for (j, projected) in targets {
                let dims = op.supported_dims(self.adverts.from_origin(Origin::Neighbor(*j)));
                match op.project(&dims) {
                    Some(p) if p.key() == *projected => {}
                    desired => out.push(format!(
                        "stale route {key:?} from {origin} toward {j}: recorded {projected:?}, \
                         desired {:?}",
                        desired.map(|p| p.key())
                    )),
                }
            }
        }
        out
    }

    // ----- Algorithms 2–4: filter, split, forward -----

    fn handle_operator(&mut self, origin: Origin, op: Operator, ctx: &mut Ctx<'_, PubSubMsg>) {
        let key = op.key();
        {
            let store = self.subs.entry(origin).or_default();
            if store.uncovered.contains(&key) || store.covered.contains(&key) {
                return; // idempotent re-delivery
            }
        }
        // Algorithm 4 line 8: filter against the same-origin uncovered set.
        let covered = {
            let store = &self.subs[&origin];
            let group = store.uncovered.group(&op.signature());
            self.filter.is_covered(&op, &group)
        };
        let store = self.subs.get_mut(&origin).expect("created above");
        if covered {
            store.covered.insert(op);
            return;
        }
        store.uncovered.insert(op.clone());
        self.split_and_forward(origin, &op, ctx);
    }

    /// Algorithm 3: drop locally-injected subscriptions with absent sources,
    /// then forward the per-neighbor projections of `op` along the reverse
    /// advertisement paths.
    fn split_and_forward(&mut self, origin: Origin, op: &Operator, ctx: &mut Ctx<'_, PubSubMsg>) {
        if origin == Origin::Local {
            // matching_sources: every dimension needs at least one known
            // advertisement, otherwise the subscription cannot match events.
            let supported = op.supported_dims(self.adverts.all());
            if supported.len() != op.arity() {
                self.dropped_unanswerable += 1;
                return;
            }
        }
        for &j in ctx.neighbors().to_vec().iter() {
            if Origin::Neighbor(j) == origin {
                continue;
            }
            let dims = op.supported_dims(self.adverts.from_origin(Origin::Neighbor(j)));
            if let Some(projected) = op.project(&dims) {
                self.routes
                    .entry((origin, op.key()))
                    .or_default()
                    .insert(j, projected.key());
                ctx.send(
                    j,
                    PubSubMsg::Operator(projected),
                    ChargeKind::Subscription,
                    1,
                );
            }
        }
    }

    // ----- explicit removal (§IV-B: state is valid until removed) -----

    /// A local user cancels a subscription: withdraw every stored operator
    /// of that subscription from the local slot and retrace the removals.
    fn handle_unsubscribe(&mut self, sub: fsf_model::SubId, ctx: &mut Ctx<'_, PubSubMsg>) {
        let Some(store) = self.subs.get_mut(&Origin::Local) else {
            return;
        };
        let keys: Vec<_> = store
            .uncovered
            .keys_of_sub(sub)
            .into_iter()
            .chain(store.covered.keys_of_sub(sub))
            .collect();
        for key in keys {
            self.handle_remove(Origin::Local, &key, ctx);
        }
    }

    /// Remove one operator identity from `origin`'s slot. If it was active
    /// (uncovered), (a) forward the removal along the exact projections it
    /// was originally forwarded on (the recorded routes — correct even if
    /// the advertisement picture changed since), and (b) re-evaluate covered
    /// same-signature operators of this origin — whatever is no longer
    /// covered by the remaining set is promoted and forwarded as if newly
    /// received.
    fn handle_remove(
        &mut self,
        origin: Origin,
        key: &fsf_model::OperatorKey,
        ctx: &mut Ctx<'_, PubSubMsg>,
    ) {
        let Some(store) = self.subs.get_mut(&origin) else {
            return;
        };
        if store.covered.remove(key).is_some() {
            return; // covered operators were never forwarded
        }
        let Some(op) = store.uncovered.remove(key) else {
            return;
        };

        // (a) retrace the recorded forwarding paths with removal messages
        self.retrace(origin, key.clone(), None, ctx);

        // (b) promote covered operators that lost their cover
        let candidates: Vec<fsf_model::OperatorKey> = self.subs[&origin]
            .covered
            .group(&op.signature())
            .iter()
            .map(|c| c.key())
            .collect();
        for ckey in candidates {
            let still_covered = {
                let store = &self.subs[&origin];
                let Some(c) = store.covered.get(&ckey) else {
                    continue;
                };
                let group = store.uncovered.group(&c.signature());
                self.filter.is_covered(c, &group)
            };
            if !still_covered {
                let store = self.subs.get_mut(&origin).expect("exists");
                let c = store.covered.remove(&ckey).expect("checked above");
                store.uncovered.insert(c.clone());
                self.split_and_forward(origin, &c, ctx);
            }
        }
    }

    /// Withdraw one uncovered operator's recorded projections: a removal
    /// message along every recorded route, except toward `skip` (a crashed
    /// neighbor, whose copy died with it). A target that is no longer a
    /// neighbor crashed out of the topology, so its copy is unreachable
    /// (and dead with it).
    fn retrace(
        &mut self,
        origin: Origin,
        key: fsf_model::OperatorKey,
        skip: Option<NodeId>,
        ctx: &mut Ctx<'_, PubSubMsg>,
    ) {
        for (j, projected) in self.routes.remove(&(origin, key)).into_iter().flatten() {
            if Some(j) != skip && ctx.neighbors().binary_search(&j).is_ok() {
                let msg = PubSubMsg::RemoveOperator(projected);
                ctx.send(j, msg, ChargeKind::Subscription, 1);
            }
        }
    }

    // ----- sensor departure (churn counterpart of Algorithm 1) -----

    /// A sensor departed: retract its advertisement and retrace the flood
    /// ([`AdvStore::retract`]), drop its stored events, and withdraw (or
    /// narrow) the operator projections that were routed over the
    /// retracting advertisement path.
    fn handle_sensor_down(
        &mut self,
        origin: Origin,
        sensor: fsf_model::SensorId,
        gen: Option<u64>,
        ctx: &mut Ctx<'_, PubSubMsg>,
    ) {
        let Some(adv_origin) = self.adverts.retract(origin, sensor, gen, ctx) else {
            return;
        };
        self.events.remove_sensor(sensor);
        if let Origin::Neighbor(j) = adv_origin {
            self.resplit_toward(j, ctx);
        }
    }

    /// Reconcile every projection toward `j` with the current advertisement
    /// picture behind `j` — the shared repair step of retraction *and*
    /// crash recovery. For each stored uncovered operator (any origin except
    /// `j` itself) the desired projection onto `j`'s data space is compared
    /// with the recorded route: unchanged projections are left alone
    /// (idempotence — nothing is re-sent), changed ones are replaced
    /// (withdraw old, forward new), vanished ones are withdrawn, and
    /// operators that previously had nothing to send toward `j` but now
    /// project onto its repaired data space are forwarded fresh.
    fn resplit_toward(&mut self, j: NodeId, ctx: &mut Ctx<'_, PubSubMsg>) {
        self.resplit_toward_inner(j, ctx, false);
    }

    /// [`Self::resplit_toward`] with a `force` mode for partition healing:
    /// projections whose recorded route already matches the desired one are
    /// normally skipped (idempotence), but a route recorded during a
    /// partition was dropped at the severed radio — the downstream copy
    /// never existed. Forcing re-sends every desired projection; the
    /// receiver dedups by key, so a copy that did arrive costs one message.
    fn resplit_toward_inner(&mut self, j: NodeId, ctx: &mut Ctx<'_, PubSubMsg>, force: bool) {
        if ctx.neighbors().binary_search(&j).is_err() {
            return; // j crashed out of the topology — nothing to reconcile
        }
        type Update = (
            (Origin, fsf_model::OperatorKey),
            Option<fsf_model::OperatorKey>,
            Option<Operator>,
        );
        let behind_j = self.adverts.from_origin(Origin::Neighbor(j));
        let mut updates: Vec<Update> = Vec::new();
        for (&origin, store) in &self.subs {
            if origin == Origin::Neighbor(j) {
                continue; // never forward interest back toward its origin
            }
            for parent in store.uncovered.iter() {
                let key = parent.key();
                let recorded = self
                    .routes
                    .get(&(origin, key.clone()))
                    .and_then(|t| t.get(&j))
                    .cloned();
                let dims = parent.supported_dims(behind_j);
                let desired = parent.project(&dims);
                match (&desired, &recorded) {
                    (None, None) => {}
                    (Some(p), Some(k)) if p.key() == *k => {
                        if force {
                            // re-send without a withdrawal: same key, the
                            // peer either dedups or finally receives it
                            updates.push(((origin, key), None, desired));
                        }
                    }
                    _ => updates.push(((origin, key), recorded, desired)),
                }
            }
        }
        for (route_key, old_key, desired) in updates {
            if let Some(old) = old_key {
                ctx.send(
                    j,
                    PubSubMsg::RemoveOperator(old),
                    ChargeKind::Subscription,
                    1,
                );
            }
            match desired {
                Some(p) => {
                    self.routes.entry(route_key).or_default().insert(j, p.key());
                    ctx.send(j, PubSubMsg::Operator(p), ChargeKind::Subscription, 1);
                }
                None => {
                    if let Some(targets) = self.routes.get_mut(&route_key) {
                        targets.remove(&j);
                        if targets.is_empty() {
                            self.routes.remove(&route_key);
                        }
                    }
                }
            }
        }
    }

    // ----- sensor mobility and crash repair -----

    /// Re-split toward the directions a `Move` or `AdvRepair` flood re-homed
    /// an advertisement between: retract along the old recorded direction
    /// (if it is a live link), then forward along the new one. Covered
    /// operators stay covered — [`Self::resplit_toward`] only reconciles the
    /// uncovered set's projections — and unchanged projections are never
    /// re-sent, so the migration is idempotent.
    fn reroute(&mut self, toward: Resplit, ctx: &mut Ctx<'_, PubSubMsg>) {
        for j in toward.into_iter().flatten() {
            self.resplit_toward(j, ctx);
        }
    }

    /// Purge every trace of a crashed neighbor: its interest slot (covered
    /// operators die silently — they were never forwarded; uncovered ones
    /// retrace their recorded routes so the downstream copies are
    /// withdrawn too) and the projections this node had routed *to* the
    /// corpse (those copies died with it — dropped without messages).
    /// Advertisements learned via the corpse are kept: live stations
    /// re-home them through the repair flood, and the engine's management
    /// plane retracts the ones hosted on the corpse.
    fn purge_crashed_origin(&mut self, crashed: NodeId, ctx: &mut Ctx<'_, PubSubMsg>) {
        let origin = Origin::Neighbor(crashed);
        if let Some(store) = self.subs.remove(&origin) {
            for parent in store.uncovered.iter() {
                self.retrace(origin, parent.key(), Some(crashed), ctx);
            }
        }
        self.routes.retain(|_, targets| {
            targets.remove(&crashed);
            !targets.is_empty()
        });
    }

    // ----- Algorithm 5: event propagation -----

    /// The batched incremental matching core. One incoming frame (a
    /// neighbor's `Events` batch, or a `Publish` as a frame of one) is
    /// processed event-at-a-time *semantically* — insert, local delivery,
    /// per-neighbor match, in frame order, exactly as the unbatched loop did
    /// — but the outgoing wire traffic is accumulated per link and flushed
    /// as **one** framed multi-event message per link per frame. Charge
    /// units (the conservation ledger) are summed over the constituent
    /// matches, so `TrafficStats` event-unit accounting is unchanged; only
    /// the message count shrinks.
    fn handle_event_batch(
        &mut self,
        origin: Origin,
        events: Vec<Event>,
        ctx: &mut Ctx<'_, PubSubMsg>,
    ) {
        // Settle, then borrow: no operator comes or goes during a frame.
        for store in self.subs.values_mut() {
            store.uncovered.settle();
            store.covered.settle();
        }
        let neighbors: Vec<NodeId> = ctx.neighbors().to_vec();
        let mut frames: BTreeMap<NodeId, LinkFrame> = BTreeMap::new();
        for event in events {
            if !self.events.insert(event) {
                continue; // duplicate or expired — nothing new can match
            }
            // every pass records its `sendTo` marks in it
            let parked = self.scratch.as_deref_mut().map(std::mem::take);
            let (mut corr, mut ops) = parked.unwrap_or_default();
            // Local delivery first (j == n) — from *all* local subscriptions,
            // covered or not (Algorithm 5 line 9: "S = S_local") — then each
            // neighbor but the sender (j ∈ neighbor(n) ∖ {m}), in order.
            self.begin_pass(Origin::Local, &event, &mut corr, &mut ops);
            for op in &ops {
                if let Some(complex) = corr.deliver(op) {
                    ctx.deliver(op.sub(), complex);
                }
            }
            for &j in &neighbors {
                if Origin::Neighbor(j) == origin {
                    continue;
                }
                self.collect_forward(j, &event, &mut corr, &mut ops, &mut frames);
            }
            let (corr, ops) = (corr.park(), recycle(ops));
            **self.scratch.get_or_insert_default() = (self.events.apply(corr), ops);
        }
        for (j, frame) in frames {
            if !frame.batch.is_empty() {
                ctx.send(
                    j,
                    PubSubMsg::Events(frame.batch),
                    ChargeKind::Event,
                    frame.units,
                );
            }
        }
    }

    /// Start `origin`'s pass over `event`: fill `ops` from the settled tables
    /// with its operators that could involve the event (the candidate query on
    /// its sensor and attribute-type dimensions) and announce them to `corr`.
    fn begin_pass<'a>(
        &'a self,
        origin: Origin,
        event: &Event,
        corr: &mut Correlator<'a>,
        ops: &mut Vec<&'a Operator>,
    ) {
        ops.clear();
        let Some(store) = self.subs.get(&origin) else {
            return;
        };
        let dims = [DimKey::Sensor(event.sensor), DimKey::Attr(event.attr)];
        let tables = [&store.uncovered, &store.covered];
        for table in &tables[..1 + usize::from(origin == Origin::Local)] {
            for d in &dims {
                table.candidates(self.config.match_mode, d, event, ops);
            }
        }
        let mode = self.config.match_mode;
        corr.begin_pass(&self.events, event.timestamp, mode, ops.iter().copied());
    }

    /// The per-neighbor half of Algorithm 5 for one event, accumulating
    /// into the per-link frame that [`Self::handle_event_batch`] flushes
    /// once the incoming frame is processed. Match semantics, `sendTo` dedup
    /// marks and charge units are exactly the unbatched sender's.
    fn collect_forward<'a>(
        &'a self,
        j: NodeId,
        event: &Event,
        corr: &mut Correlator<'a>,
        ops: &mut Vec<&'a Operator>,
        frames: &mut BTreeMap<NodeId, LinkFrame>,
    ) {
        self.begin_pass(Origin::Neighbor(j), event, corr, ops);
        if ops.is_empty() {
            return;
        }
        let frame = frames.entry(j).or_default();
        for op in ops.iter() {
            let scope = || match self.config.dedup {
                DedupMode::PerLink => SentScope::Link(j),
                DedupMode::PerOperator => SentScope::LinkOp(j, op.key()),
            };
            let Some(scope) = corr.correlate(op, scope) else {
                continue;
            };
            self.config.rank.select(&mut corr.fresh);
            if !corr.fresh.is_empty() {
                corr.fresh.iter().for_each(|s| frame.push(s.event()));
                corr.mark_fresh(scope);
            }
        }
    }
}

impl NodeBehavior for PubSubNode {
    type Msg = PubSubMsg;

    fn on_message(&mut self, from: NodeId, msg: PubSubMsg, ctx: &mut Ctx<'_, PubSubMsg>) {
        let origin = if from == ctx.node() {
            Origin::Local
        } else {
            Origin::Neighbor(from)
        };
        match msg {
            PubSubMsg::SensorUp(adv) => {
                debug_assert_eq!(origin, Origin::Local, "SensorUp is a local injection");
                self.adverts.advertise(Origin::Local, adv, ctx);
            }
            PubSubMsg::Adv(adv) => self.adverts.advertise(origin, adv, ctx),
            PubSubMsg::SensorDown(sensor) => {
                debug_assert_eq!(origin, Origin::Local, "SensorDown is a local injection");
                self.handle_sensor_down(Origin::Local, sensor, None, ctx);
            }
            PubSubMsg::AdvDown(sensor, gen) => {
                self.handle_sensor_down(origin, sensor, Some(gen), ctx);
            }
            PubSubMsg::AdvRepair(adv, gen) => {
                let toward = self.adverts.repair(origin, adv, gen, ctx);
                self.reroute(toward, ctx);
            }
            PubSubMsg::Move(adv, gen) => {
                if let Some(toward) = self.adverts.relocate(origin, adv, gen, ctx) {
                    // A handoff opens a fresh correlation epoch for the
                    // sensor: its readings from the old location are dropped
                    // exactly as a retraction would drop them, so a moved run
                    // stores the same events as its stationary twin (retire
                    // at the old host, fresh id at the new one) and no
                    // correlation window straddles the move.
                    self.events.remove_sensor(adv.sensor);
                    self.reroute(toward, ctx);
                }
            }
            PubSubMsg::Subscribe(sub) => {
                debug_assert_eq!(origin, Origin::Local, "Subscribe is a local injection");
                self.handle_operator(Origin::Local, Operator::from_subscription(&sub), ctx);
            }
            PubSubMsg::Operator(op) => self.handle_operator(origin, op, ctx),
            PubSubMsg::Unsubscribe(sub) => {
                debug_assert_eq!(origin, Origin::Local, "Unsubscribe is a local injection");
                self.handle_unsubscribe(sub, ctx);
            }
            PubSubMsg::RemoveOperator(key) => self.handle_remove(origin, &key, ctx),
            PubSubMsg::Publish(event) => self.handle_event_batch(Origin::Local, vec![event], ctx),
            PubSubMsg::Events(events) => self.handle_event_batch(origin, events, ctx),
        }
    }

    /// The crash-recovery protocol, node-local part: nodes adjacent to the
    /// crash purge the corpse's per-origin state, and every station
    /// re-floods its local advertisements ([`AdvStore::reflood_local`]).
    /// The repair floods re-home stale origins and drive the operator
    /// re-split, so subscriber-side projections that had been routed
    /// through the dead node are re-established — idempotently, because
    /// unchanged projections are never re-sent and operator delivery dedups
    /// by key.
    fn on_recover(&mut self, delta: &fsf_network::RegraftDelta, ctx: &mut Ctx<'_, PubSubMsg>) {
        if delta.was_neighbor(self.id) {
            self.purge_crashed_origin(delta.crashed, ctx);
        }
        self.adverts.reflood_local(ctx);
    }

    /// A severed link healed: offer this half's advertisement picture
    /// across ([`AdvStore::offer`]), then force a re-split toward the peer,
    /// which re-sends operator projections whose recorded routes were
    /// dropped at the severed radio.
    fn on_link_up(&mut self, peer: NodeId, ctx: &mut Ctx<'_, PubSubMsg>) {
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
    use fsf_network::{builders, Simulator};

    const DT: u64 = 30;

    fn sim(n: usize, config: PubSubConfig) -> Simulator<PubSubNode> {
        Simulator::new(builders::line(n), |id, _| PubSubNode::new(id, config))
    }

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

    /// line: n0 (sensor 1) — n1 — n2 — n3 (user)
    fn setup_single_sensor(config: PubSubConfig) -> Simulator<PubSubNode> {
        let mut s = sim(4, config);
        s.inject_and_run(NodeId(0), PubSubMsg::SensorUp(adv(1, 0)));
        s
    }

    #[test]
    fn advertisement_floods_and_is_stored_per_origin() {
        let s = setup_single_sensor(PubSubConfig::fsf(2 * DT, 1));
        assert_eq!(s.stats.adv_msgs(), 3);
        assert!(s.node(NodeId(3)).adverts().knows_sensor(SensorId(1)));
        assert_eq!(
            s.node(NodeId(2))
                .adverts()
                .from_origin(Origin::Neighbor(NodeId(1)))
                .len(),
            1
        );
        assert_eq!(
            s.node(NodeId(0)).adverts().from_origin(Origin::Local).len(),
            1
        );
    }

    #[test]
    fn subscription_follows_reverse_advertisement_path() {
        let mut s = setup_single_sensor(PubSubConfig::fsf(2 * DT, 1));
        s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(1, &[(1, 0.0, 10.0)])));
        // forwarded over 3 links toward the sensor
        assert_eq!(s.stats.sub_forwards(), 3);
        // stored at every hop, uncovered
        assert_eq!(
            s.node(NodeId(3))
                .subs(Origin::Local)
                .unwrap()
                .uncovered
                .len(),
            1
        );
        assert_eq!(
            s.node(NodeId(0))
                .subs(Origin::Neighbor(NodeId(1)))
                .unwrap()
                .uncovered
                .len(),
            1
        );
    }

    #[test]
    fn unanswerable_subscription_is_dropped_at_origin() {
        let mut s = setup_single_sensor(PubSubConfig::fsf(2 * DT, 1));
        s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(1, &[(99, 0.0, 10.0)])));
        assert_eq!(s.stats.sub_forwards(), 0, "no sources — nothing forwarded");
        assert_eq!(s.node(NodeId(3)).dropped_unanswerable(), 1);
        // partially answerable is also unanswerable (completeness!)
        s.inject_and_run(
            NodeId(3),
            PubSubMsg::Subscribe(sub(2, &[(1, 0.0, 10.0), (99, 0.0, 10.0)])),
        );
        assert_eq!(s.stats.sub_forwards(), 0);
        assert_eq!(s.node(NodeId(3)).dropped_unanswerable(), 2);
    }

    #[test]
    fn matching_event_travels_to_subscriber() {
        let mut s = setup_single_sensor(PubSubConfig::fsf(2 * DT, 1));
        s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(1, &[(1, 0.0, 10.0)])));
        s.inject_and_run(NodeId(0), PubSubMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        assert_eq!(s.stats.event_units(), 3, "3 hops");
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 1);
        assert!(s.deliveries.delivered(SubId(1)).contains(&EventId(100)));
    }

    #[test]
    fn non_matching_event_is_filtered_at_the_source() {
        let mut s = setup_single_sensor(PubSubConfig::fsf(2 * DT, 1));
        s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(1, &[(1, 0.0, 10.0)])));
        s.inject_and_run(NodeId(0), PubSubMsg::Publish(ev(100, 1, 0, 55.0, 1000)));
        assert_eq!(
            s.stats.event_units(),
            0,
            "out-of-range events never leave the sensor node"
        );
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 0);
    }

    #[test]
    fn event_without_subscription_goes_nowhere() {
        let mut s = setup_single_sensor(PubSubConfig::fsf(2 * DT, 1));
        s.inject_and_run(NodeId(0), PubSubMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        assert_eq!(s.stats.event_units(), 0);
    }

    /// Two sensors on opposite ends, user in the middle: n0(s1) — n1 — n2(user) — n3 — n4(s2)
    fn setup_join() -> Simulator<PubSubNode> {
        let mut s = sim(5, PubSubConfig::fsf(2 * DT, 1));
        s.inject_and_run(NodeId(0), PubSubMsg::SensorUp(adv(1, 0)));
        s.inject_and_run(NodeId(4), PubSubMsg::SensorUp(adv(2, 1)));
        s.inject_and_run(
            NodeId(2),
            PubSubMsg::Subscribe(sub(1, &[(1, 0.0, 10.0), (2, 0.0, 10.0)])),
        );
        s
    }

    #[test]
    fn join_subscription_splits_at_divergence() {
        let s = setup_join();
        // whole op travels nowhere as a whole: at n2 the advertisement paths
        // diverge, so simple operators go left and right (2+2 links = 4)
        assert_eq!(s.stats.sub_forwards(), 4);
        let left = s
            .node(NodeId(1))
            .subs(Origin::Neighbor(NodeId(2)))
            .unwrap()
            .uncovered
            .group(&Operator::from_subscription(&sub(9, &[(1, 0.0, 10.0)])).signature());
        assert_eq!(left.len(), 1);
        assert!(left[0].is_simple());
    }

    #[test]
    fn complex_event_assembles_at_divergence_node() {
        let mut s = setup_join();
        // sensor 1 fires; no correlation partner yet → travels to n2 (the
        // simple operator pulls it) but not beyond… actually it must reach
        // n2 where the join waits; it is 2 hops.
        s.inject_and_run(NodeId(0), PubSubMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        let after_first = s.stats.event_units();
        assert_eq!(after_first, 2, "left event reaches the join node and waits");
        assert_eq!(
            s.deliveries.delivered(SubId(1)).len(),
            0,
            "incomplete: no delivery"
        );
        // partner arrives within δt → complex event completes at n2
        s.inject_and_run(NodeId(4), PubSubMsg::Publish(ev(101, 2, 1, 5.0, 1010)));
        assert_eq!(
            s.stats.event_units() - after_first,
            2,
            "right event: 2 hops to n2"
        );
        let delivered = s.deliveries.delivered(SubId(1));
        assert_eq!(delivered.len(), 2, "both simple events delivered");
        // out-of-window partner does not re-deliver old event
        s.inject_and_run(NodeId(4), PubSubMsg::Publish(ev(102, 2, 1, 5.0, 2000)));
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 2);
    }

    #[test]
    fn per_link_dedup_sends_event_once_for_overlapping_subs() {
        let mut s = setup_single_sensor(PubSubConfig::fsf(2 * DT, 1));
        // two overlapping (but not covering) subscriptions from the same user node
        s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(1, &[(1, 0.0, 6.0)])));
        s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(2, &[(1, 4.0, 10.0)])));
        s.inject_and_run(NodeId(0), PubSubMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        // value 5 matches both, but FSF forwards it once per link: 3 units
        assert_eq!(s.stats.event_units(), 3);
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 1);
        assert_eq!(s.deliveries.delivered(SubId(2)).len(), 1);
    }

    #[test]
    fn per_operator_mode_duplicates_overlapping_result_sets() {
        let mut s = setup_single_sensor(PubSubConfig::naive(2 * DT, 1));
        s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(1, &[(1, 0.0, 6.0)])));
        s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(2, &[(1, 4.0, 10.0)])));
        s.inject_and_run(NodeId(0), PubSubMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        // two independent result streams over 3 links each
        assert_eq!(s.stats.event_units(), 6);
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 1);
        assert_eq!(s.deliveries.delivered(SubId(2)).len(), 1);
    }

    #[test]
    fn pairwise_coverage_stops_covered_subscription() {
        let mut s = setup_single_sensor(PubSubConfig::operator_placement(2 * DT, 1));
        s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(1, &[(1, 0.0, 10.0)])));
        let before = s.stats.sub_forwards();
        s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(2, &[(1, 2.0, 8.0)])));
        assert_eq!(
            s.stats.sub_forwards(),
            before,
            "covered sub adds no traffic"
        );
        // it is stored covered at the user node
        assert_eq!(
            s.node(NodeId(3)).subs(Origin::Local).unwrap().covered.len(),
            1
        );
        // …and its user still gets deliveries via the covering stream
        s.inject_and_run(NodeId(0), PubSubMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        assert_eq!(s.deliveries.delivered(SubId(2)).len(), 1);
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 1);
    }

    #[test]
    fn set_filter_catches_union_coverage_where_pairwise_does_not() {
        let run = |config: PubSubConfig| {
            let mut s = setup_single_sensor(config);
            s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(1, &[(1, 0.0, 6.0)])));
            s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(2, &[(1, 4.0, 10.0)])));
            let before = s.stats.sub_forwards();
            s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(3, &[(1, 2.0, 8.0)])));
            (s.stats.sub_forwards() - before, s)
        };
        let (fsf_added, mut s_fsf) = run(PubSubConfig::fsf(2 * DT, 1));
        let (pw_added, _) = run(PubSubConfig::operator_placement(2 * DT, 1));
        assert_eq!(fsf_added, 0, "set filter: [2,8] ⊆ [0,6] ∪ [4,10]");
        assert_eq!(pw_added, 3, "pairwise cannot see the union");
        // delivery for the set-covered subscription still works
        s_fsf.inject_and_run(NodeId(0), PubSubMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        assert_eq!(s_fsf.deliveries.delivered(SubId(3)).len(), 1);
    }

    #[test]
    fn top_k_ranking_caps_forwarded_events() {
        let mut cfg = PubSubConfig::fsf(2 * DT, 1);
        cfg.rank = RankPolicy::TopK(1);
        let mut s = sim(2, cfg);
        s.inject_and_run(NodeId(0), PubSubMsg::SensorUp(adv(1, 0)));
        s.inject_and_run(NodeId(1), PubSubMsg::Subscribe(sub(1, &[(1, 0.0, 10.0)])));
        // burst of three same-window readings; each arrival forwards at most
        // one *new* event (the newest), so the oldest is suppressed until it
        // expires
        s.inject(NodeId(0), PubSubMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        s.inject(NodeId(0), PubSubMsg::Publish(ev(101, 1, 0, 5.0, 1001)));
        s.inject(NodeId(0), PubSubMsg::Publish(ev(102, 1, 0, 5.0, 1002)));
        s.run_to_quiescence();
        assert!(s.stats.event_units() <= 3);
        assert!(!s.deliveries.delivered(SubId(1)).is_empty());
    }

    #[test]
    fn storage_stats_reflect_fig2_state() {
        let mut s = setup_single_sensor(PubSubConfig::fsf(2 * DT, 1));
        s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(1, &[(1, 0.0, 10.0)])));
        s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(2, &[(1, 2.0, 8.0)])));
        s.inject_and_run(NodeId(0), PubSubMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        let user = s.node(NodeId(3)).storage_stats();
        assert_eq!(user.advertisements, 1);
        assert_eq!(user.uncovered_operators, 1, "s2 is covered by s1");
        assert_eq!(user.covered_operators, 1);
        assert_eq!(user.total_operators(), 2);
        assert_eq!(user.origins, 1, "only the local slot");
        assert!(user.stored_events >= 1, "the delivered event is retained");
        let relay = s.node(NodeId(1)).storage_stats();
        assert_eq!(
            relay.total_operators(),
            1,
            "only the uncovered s1 travelled"
        );
    }

    #[test]
    fn unsubscribe_stops_event_flow_and_cleans_stores() {
        let mut s = setup_single_sensor(PubSubConfig::fsf(2 * DT, 1));
        s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(1, &[(1, 0.0, 10.0)])));
        s.inject_and_run(NodeId(0), PubSubMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 1);

        s.inject_and_run(NodeId(3), PubSubMsg::Unsubscribe(SubId(1)));
        // the removal retraced the 3 forwarding hops
        assert_eq!(
            s.node(NodeId(0))
                .subs(Origin::Neighbor(NodeId(1)))
                .unwrap()
                .len(),
            0
        );
        assert_eq!(s.node(NodeId(3)).subs(Origin::Local).unwrap().len(), 0);
        // further events go nowhere
        let before = s.stats.event_units();
        s.inject_and_run(NodeId(0), PubSubMsg::Publish(ev(101, 1, 0, 5.0, 2000)));
        assert_eq!(s.stats.event_units(), before);
        assert_eq!(
            s.deliveries.delivered(SubId(1)).len(),
            1,
            "no new deliveries"
        );
    }

    #[test]
    fn unsubscribing_the_coverer_promotes_the_covered_subscription() {
        let mut s = setup_single_sensor(PubSubConfig::fsf(2 * DT, 1));
        s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(1, &[(1, 0.0, 10.0)])));
        s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(2, &[(1, 2.0, 8.0)])));
        // s2 is covered at the user node — never forwarded
        assert_eq!(
            s.node(NodeId(3)).subs(Origin::Local).unwrap().covered.len(),
            1
        );
        let before = s.stats.sub_forwards();

        s.inject_and_run(NodeId(3), PubSubMsg::Unsubscribe(SubId(1)));
        // s2 lost its cover: promoted and forwarded toward the sensor
        assert_eq!(
            s.node(NodeId(3)).subs(Origin::Local).unwrap().covered.len(),
            0
        );
        assert_eq!(
            s.node(NodeId(3))
                .subs(Origin::Local)
                .unwrap()
                .uncovered
                .len(),
            1
        );
        assert!(s.stats.sub_forwards() > before, "promotion re-forwards s2");
        // and s2 is now served directly
        s.inject_and_run(NodeId(0), PubSubMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        assert_eq!(s.deliveries.delivered(SubId(2)).len(), 1);
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 0, "s1 is gone");
    }

    #[test]
    fn unsubscribe_unknown_or_twice_is_a_noop() {
        let mut s = setup_single_sensor(PubSubConfig::fsf(2 * DT, 1));
        s.inject_and_run(NodeId(3), PubSubMsg::Unsubscribe(SubId(9)));
        s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(1, &[(1, 0.0, 10.0)])));
        s.inject_and_run(NodeId(3), PubSubMsg::Unsubscribe(SubId(1)));
        let stats = s.stats.clone();
        s.inject_and_run(NodeId(3), PubSubMsg::Unsubscribe(SubId(1)));
        assert_eq!(s.stats, stats, "second unsubscribe changes nothing");
    }

    #[test]
    fn resubscription_after_removal_works() {
        let mut s = setup_single_sensor(PubSubConfig::fsf(2 * DT, 1));
        s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(1, &[(1, 0.0, 10.0)])));
        s.inject_and_run(NodeId(3), PubSubMsg::Unsubscribe(SubId(1)));
        s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(1, &[(1, 0.0, 10.0)])));
        s.inject_and_run(NodeId(0), PubSubMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 1);
    }

    #[test]
    fn removal_of_join_subscription_cleans_both_branches() {
        let mut s = setup_join();
        assert!(s
            .node(NodeId(1))
            .subs(Origin::Neighbor(NodeId(2)))
            .is_some());
        s.inject_and_run(NodeId(2), PubSubMsg::Unsubscribe(SubId(1)));
        for n in [0u32, 1, 3, 4] {
            let store =
                s.node(NodeId(n))
                    .subs(Origin::Neighbor(NodeId(if n < 2 { n + 1 } else { n - 1 })));
            assert_eq!(
                store.map_or(0, |st| st.len()),
                0,
                "node n{n} still holds operators"
            );
        }
        let before = s.stats.event_units();
        s.inject_and_run(NodeId(0), PubSubMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        s.inject_and_run(NodeId(4), PubSubMsg::Publish(ev(101, 2, 1, 5.0, 1010)));
        assert_eq!(
            s.stats.event_units(),
            before,
            "no event moves after removal"
        );
    }

    #[test]
    fn sensor_down_retraces_the_flood_and_collects_garbage() {
        let mut s = setup_single_sensor(PubSubConfig::fsf(2 * DT, 1));
        s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(1, &[(1, 0.0, 10.0)])));
        s.inject_and_run(NodeId(0), PubSubMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        let adv_before = s.stats.adv_msgs();
        s.inject_and_run(NodeId(0), PubSubMsg::SensorDown(SensorId(1)));
        // the retraction retraces the 3 flood links
        assert_eq!(s.stats.adv_msgs(), adv_before + 3);
        for n in 0..4u32 {
            let node = s.node(NodeId(n));
            assert!(!node.adverts().knows_sensor(SensorId(1)), "n{n} advert");
            assert_eq!(node.events().len(), 0, "n{n} events not collected");
        }
        // the subscription's projections were withdrawn along the path…
        for n in 0..3u32 {
            let st = s.node(NodeId(n)).storage_stats();
            assert_eq!(st.total_operators(), 0, "n{n} leaked operators");
            assert_eq!(st.forwarded_routes, 0, "n{n} leaked routes");
        }
        // …while the user's own subscription is retained (it outlives the
        // sensor; only its forwarding state is gone)
        assert_eq!(s.node(NodeId(3)).storage_stats().total_operators(), 1);
    }

    #[test]
    fn sensor_down_is_idempotent() {
        let mut s = setup_single_sensor(PubSubConfig::fsf(2 * DT, 1));
        s.inject_and_run(NodeId(0), PubSubMsg::SensorDown(SensorId(1)));
        let stats = s.stats.clone();
        s.inject_and_run(NodeId(0), PubSubMsg::SensorDown(SensorId(1)));
        assert_eq!(s.stats, stats, "second retraction changes nothing");
    }

    #[test]
    fn sensor_down_narrows_shared_projections_so_survivors_keep_flowing() {
        // two sensors on the same branch: n0(s1) — n1(s2) — n2 — n3(user)
        let mut s = sim(4, PubSubConfig::fsf(2 * DT, 1));
        s.inject_and_run(NodeId(0), PubSubMsg::SensorUp(adv(1, 0)));
        s.inject_and_run(NodeId(1), PubSubMsg::SensorUp(adv(2, 1)));
        s.inject_and_run(
            NodeId(3),
            PubSubMsg::Subscribe(sub(1, &[(1, 0.0, 10.0), (2, 0.0, 10.0)])),
        );
        s.inject_and_run(NodeId(0), PubSubMsg::SensorDown(SensorId(1)));
        // the join can no longer complete, but s2 events still reach the
        // join point: the projection toward the branch was narrowed, not
        // dropped wholesale
        s.inject_and_run(NodeId(1), PubSubMsg::Publish(ev(100, 2, 1, 5.0, 1000)));
        assert!(
            s.node(NodeId(3)).events().contains(EventId(100)),
            "surviving sensor's events stopped flowing after the retraction"
        );
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 0, "join incomplete");
    }

    #[test]
    fn full_teardown_returns_every_node_to_empty() {
        let mut s = setup_join();
        s.inject_and_run(NodeId(0), PubSubMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        s.inject_and_run(NodeId(4), PubSubMsg::Publish(ev(101, 2, 1, 5.0, 1010)));
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 2);
        // tear everything down: subscription first, then both sensors
        s.inject_and_run(NodeId(2), PubSubMsg::Unsubscribe(SubId(1)));
        s.inject_and_run(NodeId(0), PubSubMsg::SensorDown(SensorId(1)));
        s.inject_and_run(NodeId(4), PubSubMsg::SensorDown(SensorId(2)));
        for n in 0..5u32 {
            let st = s.node(NodeId(n)).storage_stats();
            assert_eq!(st.advertisements, 0, "n{n} advertisements leaked");
            assert_eq!(st.total_operators(), 0, "n{n} operators leaked");
            assert_eq!(st.stored_events, 0, "n{n} events leaked");
            assert_eq!(st.forwarded_routes, 0, "n{n} routes leaked");
        }
    }

    #[test]
    fn unsubscribe_after_sensor_down_still_cleans_the_whole_path() {
        // retraction order inverted: sensor first, then the subscription —
        // the recorded routes (not the advert picture) drive the retrace
        let mut s = setup_single_sensor(PubSubConfig::fsf(2 * DT, 1));
        s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(1, &[(1, 0.0, 10.0)])));
        s.inject_and_run(NodeId(0), PubSubMsg::SensorDown(SensorId(1)));
        s.inject_and_run(NodeId(3), PubSubMsg::Unsubscribe(SubId(1)));
        for n in 0..4u32 {
            let st = s.node(NodeId(n)).storage_stats();
            assert_eq!(st.total_operators(), 0, "n{n} operators leaked");
            assert_eq!(st.forwarded_routes, 0, "n{n} routes leaked");
        }
    }

    #[test]
    fn crash_recovery_restores_the_reverse_path() {
        // line: n0(sensor) — n1 — n2 — n3(user); crash the relay n1 onto
        // n2. The regraft attaches n0 directly to n2; recovery must re-home
        // the advertisement, withdraw-and-re-forward the operator over the
        // new edge, and events must flow again.
        let mut s = setup_single_sensor(PubSubConfig::fsf(2 * DT, 1));
        s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(1, &[(1, 0.0, 10.0)])));
        let delta = s.crash_and_regraft(NodeId(1), NodeId(2)).unwrap();
        s.run_recovery(&delta);
        s.run_to_quiescence();
        assert!(s.stats.recovery_msgs() > 0, "re-flood was charged");
        // the anchor re-homed the advert onto the re-grafted edge…
        assert_eq!(
            s.node(NodeId(2))
                .adverts()
                .from_origin(Origin::Neighbor(NodeId(0)))
                .len(),
            1
        );
        // …and the orphaned station received the operator over it
        assert_eq!(
            s.node(NodeId(0))
                .subs(Origin::Neighbor(NodeId(2)))
                .unwrap()
                .uncovered
                .len(),
            1
        );
        // the purged slot for the corpse is gone on both sides
        assert!(s
            .node(NodeId(0))
            .subs(Origin::Neighbor(NodeId(1)))
            .is_none());
        s.inject_and_run(NodeId(0), PubSubMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 1);
        // full teardown over the repaired tree still leaves no residue
        s.inject_and_run(NodeId(3), PubSubMsg::Unsubscribe(SubId(1)));
        s.inject_and_run(NodeId(0), PubSubMsg::SensorDown(SensorId(1)));
        for n in [0u32, 2, 3] {
            let st = s.node(NodeId(n)).storage_stats();
            assert_eq!(st.total_operators(), 0, "n{n} leaked operators");
            assert_eq!(st.forwarded_routes, 0, "n{n} leaked routes");
            assert_eq!(st.advertisements, 0, "n{n} leaked advertisements");
        }
    }

    #[test]
    fn adv_repair_is_idempotent_on_an_intact_tree() {
        // with no crash at all, a repair flood must change nothing but the
        // recovery counters: same stores, same routes, no re-forwards
        let mut s = setup_single_sensor(PubSubConfig::fsf(2 * DT, 1));
        s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(1, &[(1, 0.0, 10.0)])));
        let subs_before = s.stats.sub_forwards();
        s.inject_and_run(NodeId(0), PubSubMsg::AdvRepair(adv(1, 0), 0));
        assert_eq!(s.stats.sub_forwards(), subs_before, "no operator re-sent");
        assert_eq!(s.stats.recovery_msgs(), 3, "repair traversed the 3 links");
        s.inject_and_run(NodeId(0), PubSubMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 1);
    }

    #[test]
    fn move_rehomes_the_advert_and_reroutes_the_operator() {
        // line n0(sensor) — n1 — n2 — n3(user); sensor 1 moves to n2.
        let mut s = setup_single_sensor(PubSubConfig::fsf(2 * DT, 1));
        s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(1, &[(1, 0.0, 10.0)])));
        s.inject_and_run(NodeId(2), PubSubMsg::Move(adv(1, 0), 1));
        assert_eq!(
            s.stats.handoff_msgs(),
            3,
            "move flood traversed the 3 links"
        );
        // the new host owns the advert locally; the old host reaches it via n1
        assert_eq!(
            s.node(NodeId(2)).adverts().from_origin(Origin::Local).len(),
            1
        );
        assert_eq!(
            s.node(NodeId(0))
                .adverts()
                .from_origin(Origin::Neighbor(NodeId(1)))
                .len(),
            1
        );
        assert_eq!(s.node(NodeId(0)).adverts().generation(SensorId(1)), 1);
        // the old path's operator projections were withdrawn…
        for n in [0u32, 1] {
            assert_eq!(
                s.node(NodeId(n)).storage_stats().total_operators(),
                0,
                "n{n} kept a superseded operator"
            );
        }
        // …and no node holds a route for the superseded generation
        for n in 0..4u32 {
            assert_eq!(
                s.node(NodeId(n)).stale_routes(),
                Vec::<String>::new(),
                "n{n}"
            );
        }
        // readings from the new host reach the subscriber (1 hop now)
        let before = s.stats.event_units();
        s.inject_and_run(NodeId(2), PubSubMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        assert_eq!(s.stats.event_units() - before, 1);
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 1);
    }

    #[test]
    fn stale_floods_cannot_resurrect_a_superseded_route() {
        let mut s = setup_single_sensor(PubSubConfig::fsf(2 * DT, 1));
        s.inject_and_run(NodeId(3), PubSubMsg::Subscribe(sub(1, &[(1, 0.0, 10.0)])));
        s.inject_and_run(NodeId(2), PubSubMsg::Move(adv(1, 0), 1));
        let stats = s.stats.clone();
        // re-delivering the same move generation changes nothing
        s.inject_and_run(NodeId(2), PubSubMsg::Move(adv(1, 0), 1));
        assert_eq!(s.stats, stats, "duplicate move not absorbed");
        // a straggler of the original advertisement flood is absorbed too
        s.inject_and_run(NodeId(0), PubSubMsg::Adv(adv(1, 0)));
        assert_eq!(
            s.node(NodeId(1))
                .adverts()
                .from_origin(Origin::Neighbor(NodeId(2)))
                .len(),
            1,
            "stale Adv re-homed the moved sensor"
        );
        // …as is a stale repair flood carrying the old generation
        s.inject_and_run(NodeId(0), PubSubMsg::AdvRepair(adv(1, 0), 0));
        assert_eq!(
            s.node(NodeId(1))
                .adverts()
                .from_origin(Origin::Neighbor(NodeId(2)))
                .len(),
            1,
            "stale AdvRepair re-homed the moved sensor"
        );
        // a move back to the original host is a fresh generation: it works,
        // and doing it twice is idempotent
        s.inject_and_run(NodeId(0), PubSubMsg::Move(adv(1, 0), 2));
        assert_eq!(
            s.node(NodeId(0)).adverts().from_origin(Origin::Local).len(),
            1
        );
        let stats = s.stats.clone();
        s.inject_and_run(NodeId(0), PubSubMsg::Move(adv(1, 0), 2));
        assert_eq!(s.stats, stats);
        s.inject_and_run(NodeId(0), PubSubMsg::Publish(ev(101, 1, 0, 5.0, 2000)));
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 1);
    }

    #[test]
    fn move_drops_the_sensors_stored_readings_like_a_retraction() {
        // handoff = fresh correlation epoch: a pre-move reading must not
        // complete a join with a post-move partner (stationary-twin rule)
        let mut s = sim(4, PubSubConfig::fsf(2 * DT, 1));
        s.inject_and_run(NodeId(0), PubSubMsg::SensorUp(adv(1, 0)));
        s.inject_and_run(NodeId(1), PubSubMsg::SensorUp(adv(2, 1)));
        s.inject_and_run(
            NodeId(3),
            PubSubMsg::Subscribe(sub(1, &[(1, 0.0, 10.0), (2, 0.0, 10.0)])),
        );
        s.inject_and_run(NodeId(0), PubSubMsg::Publish(ev(100, 1, 0, 5.0, 1000)));
        s.inject_and_run(NodeId(2), PubSubMsg::Move(adv(1, 0), 1));
        for n in 0..4u32 {
            assert!(
                !s.node(NodeId(n)).events().contains(EventId(100)),
                "n{n} kept the moved sensor's pre-move reading"
            );
        }
        s.inject_and_run(NodeId(1), PubSubMsg::Publish(ev(101, 2, 1, 5.0, 1010)));
        assert_eq!(
            s.deliveries.delivered(SubId(1)).len(),
            0,
            "a pre-move reading completed a join across the handoff"
        );
        // a fresh post-move pair joins normally over the new path
        s.inject_and_run(NodeId(2), PubSubMsg::Publish(ev(102, 1, 0, 5.0, 1020)));
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 2);
    }

    #[test]
    fn fig3_table1_scenario_end_to_end() {
        // Topology of the paper's Fig. 3:
        //        n6(user) — n5 — n4 — n1(sensor a)
        //                    |     └— n2(sensor b)
        //                    └— n3(sensor c)
        // ids: 0=n6 1=n5 2=n4 3=n1 4=n2 5=n3
        let topo = fsf_network::Topology::from_edges(6, &[(0, 1), (1, 2), (2, 3), (2, 4), (1, 5)])
            .unwrap();
        let mut s = Simulator::new(topo, |id, _| {
            PubSubNode::new(id, PubSubConfig::fsf(2 * DT, 7))
        });
        s.inject_and_run(NodeId(3), PubSubMsg::SensorUp(adv(1, 0))); // sensor a
        s.inject_and_run(NodeId(4), PubSubMsg::SensorUp(adv(2, 1))); // sensor b
        s.inject_and_run(NodeId(5), PubSubMsg::SensorUp(adv(3, 2))); // sensor c

        // Table I subscriptions, all at n6 (node 0)
        let s1 = sub(1, &[(1, 50.0, 80.0), (2, 10.0, 30.0)]);
        let s2 = sub(2, &[(2, 20.0, 40.0), (3, 2.0, 20.0)]);
        let s3 = sub(3, &[(1, 55.0, 75.0), (2, 15.0, 35.0), (3, 5.0, 15.0)]);
        s.inject_and_run(NodeId(0), PubSubMsg::Subscribe(s1));
        s.inject_and_run(NodeId(0), PubSubMsg::Subscribe(s2));
        let before_s3 = s.stats.sub_forwards();
        s.inject_and_run(NodeId(0), PubSubMsg::Subscribe(s3));
        let s3_forwards = s.stats.sub_forwards() - before_s3;
        // s3's parts die where covering operators reside: fa,3 at n1, fb,3
        // at n2 (set cover by fb,1 ∪ fb,2!), fc,3 at n3 (or earlier).
        // It must not add traffic beyond the paths to those nodes (5 hops:
        // n6→n5, n5→n4 (ab), n4→n1, n4→n2, n5→n3).
        assert!(s3_forwards <= 5, "s3 added {s3_forwards} forwards");

        // events matching all three subscriptions
        s.inject_and_run(NodeId(3), PubSubMsg::Publish(ev(100, 1, 0, 60.0, 1000))); // a=60
        s.inject_and_run(NodeId(4), PubSubMsg::Publish(ev(101, 2, 1, 25.0, 1005))); // b=25
        s.inject_and_run(NodeId(5), PubSubMsg::Publish(ev(102, 3, 2, 10.0, 1010))); // c=10
                                                                                    // s1 = (a,b), s2 = (b,c), s3 = (a,b,c) must all be served
        assert_eq!(s.deliveries.delivered(SubId(1)).len(), 2);
        assert_eq!(s.deliveries.delivered(SubId(2)).len(), 2);
        assert_eq!(
            s.deliveries.delivered(SubId(3)).len(),
            3,
            "subsumed s3 still delivered"
        );
    }
}
