//! Sharded conservative-parallel discrete-event simulation.
//!
//! The single-queue [`Simulator`] drains every message through one global
//! `BinaryHeap` on one thread — the hard ceiling on topology size. This
//! module partitions the tree into connected subtree **shards**, gives each
//! shard its own calendar queue, and advances shards concurrently under a
//! classic Chandy–Misra conservative protocol:
//!
//! * **Lookahead rule.** Per round, each shard `s` exposes the timestamp of
//!   its earliest queued event (`head(s)`, ∞ if idle). A lower bound on
//!   anything shard `s` may still *emit toward* a neighbor is computed by
//!   relaxing `lb(s) = min(head(s), min over adjacent r of lb(r) + L(r,s))`
//!   to a fixpoint, where `L(r,s)` is the minimum latency of any link
//!   crossing between the two shards. Shard `s` may then safely process
//!   every event strictly below `cap(s) = min over adjacent r of
//!   lb(r) + L(r,s)` — no message can arrive into `s` earlier than that.
//!   This is the null-message bound computed centrally per round instead of
//!   being gossiped: with every link costing ≥ 1 tick, the shard holding
//!   the globally earliest event always has `cap > head`, so every round
//!   makes progress.
//! * **Determinism guarantee.** Within a shard, events are processed in
//!   `(deliver_at, origin_shard, seq)` order with a per-shard monotone
//!   `seq`; cross-shard handoffs are routed at the round barrier in shard-id
//!   order. The schedule is a pure function of the injection sequence, the
//!   topology, and the latency model — independent of thread timing — and
//!   the equality gate (`tests/sharded_equality.rs`) holds the resulting
//!   [`DeliveryLog`]s event-for-event identical to the single-queue
//!   simulator across the churn/mobility/recovery batteries.
//! * **Coalesced fallback.** Conservative windows require every link to
//!   cost at least one tick. When `LatencyModel::min_hop() == 0` (or one
//!   shard is requested, or the partitioner cannot cut the tree), the whole
//!   topology becomes a single shard and the calendar queue replays the
//!   exact `(deliver_at, seq)` order of the single-queue simulator.
//!
//! [`Backend`] wraps either simulator behind one API; the engine layer
//! picks one at build time from the requested shard count.

use crate::latency::{LatencyModel, LatencySummary};
use crate::sim::{Ctx, DeliveryLog, NodeBehavior, Simulator};
use crate::topology::{NodeId, RegraftDelta, Topology, TopologyError};
use crate::traffic::{ChargeKind, TrafficStats};
use fsf_model::EventId;
use fsf_telemetry::{flood_id, Noop, TelemetryEvent, TelemetrySink, TrafficClass};
use std::collections::{BTreeMap, BTreeSet};

/// A partition of a topology's nodes into connected subtree shards.
///
/// Built by carving maximal subtrees of at least `⅞·n/k` nodes off a BFS
/// tree rooted at node 0, deepest-first, until `k − 1` shards are cut; the
/// remainder (always containing the root) becomes the last shard. On
/// degenerate shapes (stars) fewer effective shards than requested may
/// result — the plan reports the effective count.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    assignment: Vec<u32>,
    shards: usize,
}

impl ShardPlan {
    /// Everything in one shard (the coalesced mode).
    #[must_use]
    pub fn single(n: usize) -> Self {
        ShardPlan {
            assignment: vec![0; n],
            shards: 1,
        }
    }

    /// Carve `shards` connected subtree shards out of `topology`.
    /// Deterministic: a pure function of the topology and the requested
    /// count.
    #[must_use]
    pub fn partition(topology: &Topology, shards: usize) -> Self {
        let n = topology.len();
        if shards <= 1 || n <= 1 {
            return Self::single(n);
        }
        let root = NodeId(0);
        let order = topology.bfs_order(root);
        let parents = topology.parents_toward(root);
        let mut size = vec![1u64; n];
        for &v in order.iter().rev() {
            if let Some(p) = parents[v.0 as usize] {
                size[p.0 as usize] += size[v.0 as usize];
            }
        }
        // Threshold at ⅞ of an even split: tolerates the off-by-a-few
        // subtree sizes of balanced trees (an exact n/k threshold misses a
        // root child of size n/k − 1 and collapses to one shard).
        let target = 1.max(7 * n as u64 / (8 * shards as u64));
        const UNASSIGNED: u32 = u32::MAX;
        let mut assignment = vec![UNASSIGNED; n];
        let mut next_shard = 0u32;
        let mut stack = Vec::new();
        for &v in order.iter().rev() {
            if next_shard as usize >= shards - 1 {
                break;
            }
            if v == root || size[v.0 as usize] < target {
                continue;
            }
            // carve the residual subtree under v
            let carved = size[v.0 as usize];
            stack.push(v);
            while let Some(u) = stack.pop() {
                assignment[u.0 as usize] = next_shard;
                for &w in topology.neighbors(u) {
                    if parents[w.0 as usize] == Some(u) && assignment[w.0 as usize] == UNASSIGNED {
                        stack.push(w);
                    }
                }
            }
            size[v.0 as usize] = 0;
            let mut a = parents[v.0 as usize];
            while let Some(p) = a {
                size[p.0 as usize] -= carved;
                a = parents[p.0 as usize];
            }
            next_shard += 1;
        }
        for slot in &mut assignment {
            if *slot == UNASSIGNED {
                *slot = next_shard;
            }
        }
        ShardPlan {
            assignment,
            shards: next_shard as usize + 1,
        }
    }

    /// Effective number of shards (≤ the requested count).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Which shard a node lives in.
    #[must_use]
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.assignment[node.0 as usize] as usize
    }

    /// Node count per shard.
    #[must_use]
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.shards];
        for &s in &self.assignment {
            sizes[s as usize] += 1;
        }
        sizes
    }
}

/// One scheduled envelope in a shard calendar. Ordered within a tick bucket
/// by `(origin, seq)` — the deterministic cross-shard merge key.
#[derive(Debug, Clone)]
struct Entry<M> {
    origin: u32,
    seq: u64,
    from: NodeId,
    to: NodeId,
    /// Causality id (see [`fsf_telemetry::flood_id`]): minted at injection,
    /// inherited by every downstream send.
    flood: u64,
    msg: M,
}

/// Per-shard state: the nodes it owns, its calendar queue, and its private
/// counters (drained into the merged totals after every pump).
#[derive(Debug)]
struct ShardState<B: NodeBehavior, S: TelemetrySink> {
    id: usize,
    sink: S,
    nodes: Vec<B>,
    /// Calendar queue: tick → bucket of entries. Buckets are sorted by
    /// `(origin, seq)` at drain time; same-tick sends made while draining
    /// land in a fresh bucket picked up by the next loop iteration, which
    /// preserves seq order (new seqs are always larger).
    calendar: BTreeMap<u64, Vec<Entry<B::Msg>>>,
    queued: usize,
    next_seq: u64,
    scheduled_total: u64,
    steps: u64,
    queue_drops: u64,
    dropped_to_downed: u64,
    dropped_severed: u64,
    /// Highest tick this shard has processed (drops included).
    last_tick: u64,
    stats: TrafficStats,
    deliveries: DeliveryLog,
    /// Cross-shard sends produced this round: `(deliver_at, dest_shard,
    /// entry)`, routed at the round barrier in shard-id order.
    outgoing: Vec<(u64, usize, Entry<B::Msg>)>,
}

impl<B: NodeBehavior, S: TelemetrySink> ShardState<B, S> {
    fn new(id: usize, sink: S) -> Self {
        ShardState {
            id,
            sink,
            nodes: Vec::new(),
            calendar: BTreeMap::new(),
            queued: 0,
            next_seq: 0,
            scheduled_total: 0,
            steps: 0,
            queue_drops: 0,
            dropped_to_downed: 0,
            dropped_severed: 0,
            last_tick: 0,
            stats: TrafficStats::new(),
            deliveries: DeliveryLog::new(),
            outgoing: Vec::new(),
        }
    }

    fn head(&self) -> Option<u64> {
        self.calendar.first_key_value().map(|(&t, _)| t)
    }

    fn push(&mut self, at: u64, entry: Entry<B::Msg>) {
        self.calendar.entry(at).or_default().push(entry);
        self.queued += 1;
    }

    /// Process every queued event strictly below `cap`, in
    /// `(deliver_at, origin, seq)` order. Returns `(handled, popped)`.
    #[allow(clippy::too_many_arguments)]
    fn advance(
        &mut self,
        cap: u64,
        budget: u64,
        topology: &Topology,
        latency: &LatencyModel,
        plan: &ShardPlan,
        node_slot: &[u32],
        down: &BTreeSet<NodeId>,
    ) -> (u64, u64) {
        let mut handled = 0u64;
        let mut popped = 0u64;
        let mut outbox: Vec<(NodeId, B::Msg, ChargeKind, u64)> = Vec::new();
        while let Some(t) = self.head() {
            if t >= cap {
                break;
            }
            let mut bucket = self.calendar.remove(&t).expect("peeked head");
            self.queued -= bucket.len();
            bucket.sort_by_key(|e| (e.origin, e.seq));
            self.last_tick = t;
            for entry in bucket {
                popped += 1;
                if popped > budget {
                    let mut msg = format!(
                        "simulator exceeded {} steps at virtual time {} with {} messages \
                         queued — forwarding loop? (shard {})",
                        budget, t, self.queued, self.id
                    );
                    if S::ENABLED {
                        for ev in self.sink.recent(10) {
                            msg.push_str(&format!("\n    {ev:?}"));
                        }
                    }
                    panic!("{msg}");
                }
                if down.contains(&entry.to) {
                    self.queue_drops += 1;
                    self.dropped_to_downed += 1;
                    if S::ENABLED {
                        self.sink.record(TelemetryEvent::DroppedDowned {
                            at: t,
                            to: entry.to.0,
                            shard: self.id as u32,
                            flood: entry.flood,
                        });
                    }
                    continue;
                }
                handled += 1;
                let slot = node_slot[entry.to.0 as usize] as usize;
                let deliveries_before = self.deliveries.complex_deliveries();
                {
                    let mut ctx = Ctx::external(
                        entry.to,
                        topology.neighbors(entry.to),
                        t,
                        &mut outbox,
                        &mut self.deliveries,
                    );
                    self.nodes[slot].on_message(entry.from, entry.msg, &mut ctx);
                }
                if S::ENABLED {
                    self.sink.record(TelemetryEvent::Handled {
                        at: t,
                        from: entry.from.0,
                        to: entry.to.0,
                        shard: self.id as u32,
                        flood: entry.flood,
                        deliveries: self.deliveries.complex_deliveries() - deliveries_before,
                    });
                }
                for (to, msg, kind, units) in outbox.drain(..) {
                    self.stats.charge(kind, entry.to, to, units);
                    let at = t + latency.delay(entry.to, to);
                    let e = Entry {
                        origin: self.id as u32,
                        seq: self.next_seq,
                        from: entry.to,
                        to,
                        flood: entry.flood,
                        msg,
                    };
                    self.next_seq += 1;
                    self.scheduled_total += 1;
                    let dest = plan.shard_of(to);
                    if S::ENABLED {
                        self.sink.record(TelemetryEvent::Scheduled {
                            at: t,
                            deliver_at: at,
                            from: entry.to.0,
                            to: to.0,
                            shard: dest as u32,
                            flood: entry.flood,
                            class: kind.traffic_class(),
                            units,
                        });
                    }
                    // Severed links drop at the sender's radio, at schedule
                    // time — same rule as the single simulator, so the drop
                    // decision never depends on when a shard pops the entry.
                    if entry.to != to && topology.is_severed(entry.to, to) {
                        self.queue_drops += 1;
                        self.dropped_severed += 1;
                        if S::ENABLED {
                            self.sink.record(TelemetryEvent::DroppedSevered {
                                at: t,
                                from: entry.to.0,
                                to: to.0,
                                shard: self.id as u32,
                                flood: entry.flood,
                            });
                        }
                        continue;
                    }
                    if dest == self.id {
                        self.push(at, e);
                    } else {
                        self.outgoing.push((at, dest, e));
                    }
                }
            }
        }
        self.steps += handled;
        (handled, popped)
    }
}

/// Sharded conservative-parallel counterpart of [`Simulator`]: the same
/// deterministic semantics, executed over per-subtree calendar queues that
/// advance concurrently within conservative lookahead windows. See the
/// module docs for the protocol.
#[derive(Debug)]
pub struct ShardedSimulator<B: NodeBehavior + Send, S: TelemetrySink = Noop>
where
    B::Msg: Send,
{
    topology: Topology,
    latency: LatencyModel,
    plan: ShardPlan,
    /// Global node id → index within its shard's `nodes` vector.
    node_slot: Vec<u32>,
    shards: Vec<ShardState<B, S>>,
    sink: S,
    /// Completed conservative rounds (the `round` stamp of
    /// [`TelemetryEvent::ShardRound`] profiles).
    rounds: u64,
    /// Shard adjacency with the minimum latency of any crossing link —
    /// the `L(r,s)` of the lookahead rule. Rebuilt on regraft.
    shard_graph: Vec<Vec<(usize, u64)>>,
    merged_stats: TrafficStats,
    merged_deliveries: DeliveryLog,
    now: u64,
    max_steps_per_run: u64,
    down: BTreeSet<NodeId>,
    /// Injections swallowed at downed nodes (per-shard drops are counted
    /// in the shard states).
    injection_drops: u64,
    workers: usize,
}

impl<B: NodeBehavior + Send> ShardedSimulator<B>
where
    B::Msg: Send,
{
    /// Build with an explicit latency model, partitioning into (at most)
    /// `shards` subtree shards. Zero-capable latency models force the
    /// coalesced single-shard plan (see the module docs).
    pub fn with_latency(
        topology: Topology,
        latency: LatencyModel,
        shards: usize,
        make_node: impl FnMut(NodeId, &Topology) -> B,
    ) -> Self {
        Self::with_sink(topology, latency, Noop, shards, make_node)
    }
}

impl<B: NodeBehavior + Send, S: TelemetrySink> ShardedSimulator<B, S>
where
    B::Msg: Send,
{
    /// Build with an explicit latency model and telemetry sink (see
    /// [`Self::with_latency`]). Every shard records into a clone of `sink`;
    /// a [`fsf_telemetry::Recorder`] shares one store across clones.
    pub fn with_sink(
        topology: Topology,
        latency: LatencyModel,
        sink: S,
        shards: usize,
        mut make_node: impl FnMut(NodeId, &Topology) -> B,
    ) -> Self {
        let plan = if latency.min_hop() == 0 {
            ShardPlan::single(topology.len())
        } else {
            ShardPlan::partition(&topology, shards)
        };
        let mut shards: Vec<ShardState<B, S>> = (0..plan.shards())
            .map(|id| ShardState::new(id, sink.clone()))
            .collect();
        let mut node_slot = vec![0u32; topology.len()];
        for id in topology.nodes() {
            let s = plan.shard_of(id);
            node_slot[id.0 as usize] = shards[s].nodes.len() as u32;
            shards[s].nodes.push(make_node(id, &topology));
        }
        let workers = Self::default_workers(plan.shards());
        let mut sim = ShardedSimulator {
            shard_graph: Vec::new(),
            topology,
            latency,
            plan,
            node_slot,
            shards,
            sink,
            rounds: 0,
            merged_stats: TrafficStats::new(),
            merged_deliveries: DeliveryLog::new(),
            now: 0,
            max_steps_per_run: Simulator::<B>::DEFAULT_MAX_STEPS,
            down: BTreeSet::new(),
            injection_drops: 0,
            workers,
        };
        sim.rebuild_shard_graph();
        sim
    }

    fn default_workers(shards: usize) -> usize {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        shards.min(cores)
    }

    fn rebuild_shard_graph(&mut self) {
        let s = self.plan.shards();
        let mut min_link: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for u in self.topology.nodes() {
            let su = self.plan.shard_of(u);
            for &v in self.topology.neighbors(u) {
                if v <= u {
                    continue;
                }
                // a severed link carries no messages, so it must not lower
                // the conservative lookahead bound (and a heal must widen
                // it again — callers rebuild after every mutation)
                if self.topology.is_severed(u, v) {
                    continue;
                }
                let sv = self.plan.shard_of(v);
                if su == sv {
                    continue;
                }
                let d = self.latency.delay(u, v);
                let key = (su.min(sv), su.max(sv));
                min_link
                    .entry(key)
                    .and_modify(|cur| *cur = (*cur).min(d))
                    .or_insert(d);
            }
        }
        let mut graph = vec![Vec::new(); s];
        for (&(a, b), &d) in &min_link {
            graph[a].push((b, d));
            graph[b].push((a, d));
        }
        self.shard_graph = graph;
    }

    /// Per-round conservative caps: `cap(s) = min over adjacent r of
    /// lb(r) + L(r,s)`, with `lb` the relaxed earliest-emission bounds (see
    /// the module docs), clamped to `horizon + 1`. The second element of
    /// each pair is the cap's provenance: `true` when a neighbor's bound is
    /// the binding constraint (rather than the horizon clamp or an
    /// unconstrained `u64::MAX`) — the profiling signal for how often the
    /// conservative window, not the workload, limits a shard's round.
    fn round_caps(&self, heads: &[Option<u64>], horizon: Option<u64>) -> Vec<(u64, bool)> {
        let s = self.shards.len();
        let mut lb: Vec<u64> = heads.iter().map(|h| h.unwrap_or(u64::MAX)).collect();
        loop {
            let mut changed = false;
            for a in 0..s {
                if lb[a] == u64::MAX {
                    continue;
                }
                for &(b, l) in &self.shard_graph[a] {
                    let cand = lb[a].saturating_add(l);
                    if cand < lb[b] {
                        lb[b] = cand;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        (0..s)
            .map(|a| {
                let neighbor_cap = self.shard_graph[a]
                    .iter()
                    .map(|&(b, l)| lb[b].saturating_add(l))
                    .min()
                    .unwrap_or(u64::MAX);
                let mut cap = neighbor_cap;
                let mut by_neighbor = neighbor_cap != u64::MAX;
                if let Some(t) = horizon {
                    let h = t.saturating_add(1);
                    if h <= cap {
                        cap = h;
                        by_neighbor = false;
                    }
                }
                (cap, by_neighbor)
            })
            .collect()
    }

    /// Override the worker-thread count (defaults to
    /// `min(shards, available cores)`; 1 runs shards inline on the calling
    /// thread, which is fastest on single-core hosts).
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Override the runaway-protection step budget.
    pub fn set_max_steps(&mut self, max: u64) {
        self.max_steps_per_run = max;
    }

    /// The active shard plan.
    #[must_use]
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The topology being simulated.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Immutable access to a node's state.
    ///
    /// # Panics
    /// Panics with a named-id message on unknown node ids.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &B {
        let n = self.topology.len();
        if id.0 as usize >= n {
            panic!("unknown NodeId {id}: topology has {n} nodes (0..{n})");
        }
        &self.shards[self.plan.shard_of(id)].nodes[self.node_slot[id.0 as usize] as usize]
    }

    /// Mutable access to a node's state.
    ///
    /// # Panics
    /// Panics with a named-id message on unknown node ids.
    pub fn node_mut(&mut self, id: NodeId) -> &mut B {
        let n = self.topology.len();
        if id.0 as usize >= n {
            panic!("unknown NodeId {id}: topology has {n} nodes (0..{n})");
        }
        &mut self.shards[self.plan.shard_of(id)].nodes[self.node_slot[id.0 as usize] as usize]
    }

    /// Is the node marked down (crashed)?
    #[must_use]
    pub fn is_down(&self, id: NodeId) -> bool {
        self.down.contains(&id)
    }

    /// The virtual clock (see [`Simulator::now`]).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Messages currently scheduled but not yet delivered, over all shards.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queued).sum()
    }

    /// Every envelope ever enqueued (see [`Simulator::scheduled_total`];
    /// the same conservation invariant holds per pause point).
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.shards.iter().map(|s| s.scheduled_total).sum()
    }

    /// Enqueued messages dropped instead of processed.
    #[must_use]
    pub fn dropped_from_queue(&self) -> u64 {
        self.shards.iter().map(|s| s.queue_drops).sum()
    }

    /// Messages dropped because their destination was down, injections
    /// included.
    #[must_use]
    pub fn dropped_to_downed(&self) -> u64 {
        self.injection_drops + self.shards.iter().map(|s| s.dropped_to_downed).sum::<u64>()
    }

    /// Messages dropped at the sender's radio because the link was severed.
    #[must_use]
    pub fn dropped_severed(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped_severed).sum()
    }

    /// Sever the link between two adjacent nodes (see
    /// [`Simulator::sever_link`]). The shard lookahead graph is rebuilt
    /// immediately: a severed crossing link no longer bounds the
    /// conservative window.
    pub fn sever_link(&mut self, a: NodeId, b: NodeId) -> Result<(), TopologyError> {
        self.topology.sever_link(a, b)?;
        if S::ENABLED {
            self.sink.record(TelemetryEvent::LinkSevered {
                at: self.now,
                a: a.0,
                b: b.0,
            });
        }
        self.rebuild_shard_graph();
        Ok(())
    }

    /// Heal a severed link (see [`Simulator::heal_link`]). The lookahead
    /// fixpoint is recomputed before any reconciliation traffic is
    /// scheduled: the re-enabled link may lower the conservative bound, and
    /// running a round against the stale graph would overshoot
    /// `run_until`'s boundary.
    pub fn heal_link(&mut self, a: NodeId, b: NodeId) -> Result<(), TopologyError> {
        let was_severed = self.topology.is_severed(a, b);
        self.topology.heal_link(a, b)?;
        if !was_severed {
            return Ok(());
        }
        if S::ENABLED {
            self.sink.record(TelemetryEvent::LinkHealed {
                at: self.now,
                a: a.0,
                b: b.0,
            });
        }
        self.rebuild_shard_graph();
        let now = self.now;
        let mut outbox: Vec<(NodeId, B::Msg, ChargeKind, u64)> = Vec::new();
        for (node, peer) in [(a, b), (b, a)] {
            if self.down.contains(&node) {
                continue;
            }
            let s = self.plan.shard_of(node);
            let slot = self.node_slot[node.0 as usize] as usize;
            {
                let shard = &mut self.shards[s];
                let mut ctx = Ctx::external(
                    node,
                    self.topology.neighbors(node),
                    now,
                    &mut outbox,
                    &mut shard.deliveries,
                );
                shard.nodes[slot].on_link_up(peer, &mut ctx);
            }
            for (to, msg, kind, units) in outbox.drain(..) {
                self.schedule_external(s, node, to, msg, kind, units);
            }
        }
        self.refresh_merged();
        Ok(())
    }

    /// Charge and schedule one send made outside the pump (recovery or
    /// link-up reconciliation), minting a fresh causal flood in the sender
    /// shard's sequence space. Honors the severed-at-the-radio drop rule.
    fn schedule_external(
        &mut self,
        s: usize,
        from: NodeId,
        to: NodeId,
        msg: B::Msg,
        kind: ChargeKind,
        units: u64,
    ) {
        let now = self.now;
        let at = now + self.latency.delay(from, to);
        let sender = &mut self.shards[s];
        sender.stats.charge(kind, from, to, units);
        let flood = flood_id(s as u32, sender.next_seq);
        let entry = Entry {
            origin: s as u32,
            seq: sender.next_seq,
            from,
            to,
            flood,
            msg,
        };
        sender.next_seq += 1;
        sender.scheduled_total += 1;
        let dest = self.plan.shard_of(to);
        if S::ENABLED {
            self.sink.record(TelemetryEvent::Scheduled {
                at: now,
                deliver_at: at,
                from: from.0,
                to: to.0,
                shard: dest as u32,
                flood,
                class: kind.traffic_class(),
                units,
            });
        }
        if from != to && self.topology.is_severed(from, to) {
            let sender = &mut self.shards[s];
            sender.queue_drops += 1;
            sender.dropped_severed += 1;
            if S::ENABLED {
                self.sink.record(TelemetryEvent::DroppedSevered {
                    at: now,
                    from: from.0,
                    to: to.0,
                    shard: s as u32,
                    flood,
                });
            }
            return;
        }
        self.shards[dest].push(at, entry);
    }

    /// Messages processed by live nodes since construction.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.shards.iter().map(|s| s.steps).sum()
    }

    /// Accumulated traffic counters, merged over shards.
    #[must_use]
    pub fn stats(&self) -> &TrafficStats {
        &self.merged_stats
    }

    /// Mutable access to the merged counters (engine wrappers charge
    /// management-plane traffic directly).
    pub fn stats_mut(&mut self) -> &mut TrafficStats {
        &mut self.merged_stats
    }

    /// Accumulated end-user deliveries, merged over shards.
    #[must_use]
    pub fn deliveries(&self) -> &DeliveryLog {
        &self.merged_deliveries
    }

    /// Delivery-latency percentiles over the merged log.
    #[must_use]
    pub fn latency_summary(&self) -> LatencySummary {
        self.merged_deliveries.latency_summary()
    }

    /// Register an injection time for latency accounting. Broadcast to
    /// every shard log so deliveries anchor wherever the subscriber lives.
    pub fn note_injection(&mut self, event: EventId, at: u64) {
        for shard in &mut self.shards {
            shard.deliveries.note_injection(event, at);
        }
        self.merged_deliveries.note_injection(event, at);
    }

    /// Inject a local item at `node`, due at the current virtual time.
    pub fn inject(&mut self, node: NodeId, msg: B::Msg) {
        self.inject_at(node, msg, self.now);
    }

    /// Inject a local item scheduled for virtual time `at` (clamped to the
    /// present). Injections at downed nodes are dropped and counted.
    pub fn inject_at(&mut self, node: NodeId, msg: B::Msg, at: u64) {
        if self.down.contains(&node) {
            self.injection_drops += 1;
            return;
        }
        let s = self.plan.shard_of(node);
        let shard = &mut self.shards[s];
        // every injection mints a fresh causal flood id in its shard's
        // sequence space
        let flood = flood_id(s as u32, shard.next_seq);
        let entry = Entry {
            origin: s as u32,
            seq: shard.next_seq,
            from: node,
            to: node,
            flood,
            msg,
        };
        shard.next_seq += 1;
        shard.scheduled_total += 1;
        let deliver_at = at.max(self.now);
        if S::ENABLED {
            self.sink.record(TelemetryEvent::Scheduled {
                at: self.now,
                deliver_at,
                from: node.0,
                to: node.0,
                shard: s as u32,
                flood,
                class: TrafficClass::Inject,
                units: 1,
            });
        }
        shard.push(deliver_at, entry);
    }

    /// Crash a node (see [`Simulator::crash_and_regraft`]): the purge only
    /// touches the corpse's shard calendar, in place.
    pub fn crash_and_regraft(
        &mut self,
        crashed: NodeId,
        anchor: NodeId,
    ) -> Result<RegraftDelta, TopologyError> {
        if self.down.contains(&anchor) {
            return Err(TopologyError::BadEdge(crashed.0, anchor.0));
        }
        let (topology, delta) = self.topology.regraft_with_delta(crashed, anchor)?;
        self.topology = topology;
        if self.down.insert(crashed) {
            // Purge corpse-bound entries from EVERY shard, not just the
            // corpse's own: cross-shard routing normally lands them in
            // `shard_of(crashed)`, but entries parked in another shard's
            // calendar or outgoing buffer would otherwise survive as stale
            // tombstones and skew the conservation ledger.
            for shard in &mut self.shards {
                let mut purged = 0u64;
                shard.calendar.retain(|_, bucket| {
                    let before = bucket.len();
                    bucket.retain(|e| e.to != crashed);
                    purged += (before - bucket.len()) as u64;
                    !bucket.is_empty()
                });
                shard.queued -= purged as usize;
                // outgoing entries were scheduled but never pushed, so they
                // are absent from `queued` — drop-count them all the same
                let before = shard.outgoing.len();
                shard.outgoing.retain(|(_, _, e)| e.to != crashed);
                let total = purged + (before - shard.outgoing.len()) as u64;
                shard.queue_drops += total;
                shard.dropped_to_downed += total;
                if S::ENABLED && total > 0 {
                    self.sink.record(TelemetryEvent::Purged {
                        at: self.now,
                        node: crashed.0,
                        shard: shard.id as u32,
                        count: total,
                    });
                }
            }
        }
        for id in 0..self.node_slot.len() {
            let node = NodeId(id as u32);
            if !self.down.contains(&node) {
                let slot = self.node_slot[id] as usize;
                self.shards[self.plan.shard_of(node)].nodes[slot]
                    .on_topology_change(&self.topology);
            }
        }
        self.rebuild_shard_graph();
        Ok(delta)
    }

    /// Run the crash-recovery protocol (see [`Simulator::run_recovery`]):
    /// nodes are visited in global id order, so the recovery timeline stays
    /// deterministic across shard counts.
    pub fn run_recovery(&mut self, delta: &RegraftDelta) {
        let now = self.now;
        let mut outbox: Vec<(NodeId, B::Msg, ChargeKind, u64)> = Vec::new();
        for id in 0..self.node_slot.len() {
            let node = NodeId(id as u32);
            if self.down.contains(&node) {
                continue;
            }
            let s = self.plan.shard_of(node);
            let slot = self.node_slot[id] as usize;
            let deliveries_before = self.shards[s].deliveries.complex_deliveries();
            {
                let shard = &mut self.shards[s];
                let mut ctx = Ctx::external(
                    node,
                    self.topology.neighbors(node),
                    now,
                    &mut outbox,
                    &mut shard.deliveries,
                );
                shard.nodes[slot].on_recover(delta, &mut ctx);
            }
            let sends = outbox.len() as u64;
            for (to, msg, kind, units) in outbox.drain(..) {
                // each recovery send starts a fresh causal flood: it was
                // not triggered by any in-flight message
                self.schedule_external(s, node, to, msg, kind, units);
            }
            if S::ENABLED {
                let deliveries = self.shards[s].deliveries.complex_deliveries() - deliveries_before;
                if deliveries + sends > 0 {
                    self.sink.record(TelemetryEvent::Recovered {
                        at: now,
                        node: node.0,
                        shard: s as u32,
                        deliveries,
                        sends,
                    });
                }
            }
        }
        self.refresh_merged();
    }

    fn refresh_merged(&mut self) {
        let merged_stats = &mut self.merged_stats;
        let merged_deliveries = &mut self.merged_deliveries;
        for shard in &mut self.shards {
            let stats = std::mem::take(&mut shard.stats);
            merged_stats.merge(&stats);
            shard.deliveries.drain_into(merged_deliveries);
        }
    }

    /// The runaway-protection panic message: the classic one-liner plus a
    /// telemetry snapshot (per-shard queue depths, hottest destination,
    /// and — when a recording sink is attached — the last lifecycle
    /// events).
    fn runaway_report(&self) -> String {
        let mut msg = format!(
            "simulator exceeded {} steps at virtual time {} with {} messages queued \
             — forwarding loop?",
            self.max_steps_per_run,
            self.now,
            self.queue_depth()
        );
        let depths: Vec<String> = self
            .shards
            .iter()
            .map(|s| format!("shard {}: {}", s.id, s.queued))
            .collect();
        msg.push_str(&format!("\n  queue depths: {}", depths.join(", ")));
        let mut queued_to: BTreeMap<NodeId, u64> = BTreeMap::new();
        for shard in &self.shards {
            for bucket in shard.calendar.values() {
                for e in bucket {
                    *queued_to.entry(e.to).or_default() += 1;
                }
            }
        }
        if let Some((node, depth)) = queued_to.into_iter().max_by_key(|&(_, d)| d) {
            msg.push_str(&format!("\n  hottest destination: {node} ({depth} queued)"));
        }
        if S::ENABLED {
            let recent = self.sink.recent(10);
            if !recent.is_empty() {
                msg.push_str("\n  last lifecycle events:");
                for ev in recent {
                    msg.push_str(&format!("\n    {ev:?}"));
                }
            }
        }
        msg
    }

    /// Round-based conservative pump (see the module docs). Returns the
    /// number of messages handled.
    fn pump(&mut self, horizon: Option<u64>) -> u64 {
        let mut total_handled = 0u64;
        let mut total_popped = 0u64;
        loop {
            let heads: Vec<Option<u64>> = self.shards.iter().map(ShardState::head).collect();
            let Some(gmin) = heads.iter().flatten().copied().min() else {
                break;
            };
            if horizon.is_some_and(|t| gmin > t) {
                break;
            }
            let caps = self.round_caps(&heads, horizon);
            let budget = self.max_steps_per_run - total_popped;
            // Boolean bitmap, not a membership list: the threaded branch
            // below checks every shard index against it, and a
            // `Vec::contains` scan there is O(shards²) per round.
            let runnable: Vec<bool> = (0..self.shards.len())
                .map(|s| heads[s].is_some_and(|h| h < caps[s].0))
                .collect();
            let runnable_count = runnable.iter().filter(|&&r| r).count();
            debug_assert!(runnable_count > 0, "the gmin shard always runs");
            let mut round_handled = 0u64;
            let mut round_popped = 0u64;
            // per-shard popped counts, for the ShardRound profiles
            let mut drained = vec![0u64; self.shards.len()];
            {
                let shards = &mut self.shards;
                let topology = &self.topology;
                let latency = &self.latency;
                let plan = &self.plan;
                let node_slot = &self.node_slot;
                let down = &self.down;
                if self.workers > 1 && runnable_count > 1 {
                    std::thread::scope(|sc| {
                        let mut handles = Vec::with_capacity(runnable_count);
                        for (idx, shard) in shards.iter_mut().enumerate() {
                            if !runnable[idx] {
                                continue;
                            }
                            let cap = caps[idx].0;
                            handles.push((
                                idx,
                                sc.spawn(move || {
                                    shard.advance(
                                        cap, budget, topology, latency, plan, node_slot, down,
                                    )
                                }),
                            ));
                        }
                        for (idx, h) in handles {
                            let (hd, pp) =
                                h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
                            round_handled += hd;
                            round_popped += pp;
                            drained[idx] = pp;
                        }
                    });
                } else {
                    for idx in (0..shards.len()).filter(|&s| runnable[s]) {
                        let (hd, pp) = shards[idx].advance(
                            caps[idx].0,
                            budget,
                            topology,
                            latency,
                            plan,
                            node_slot,
                            down,
                        );
                        round_handled += hd;
                        round_popped += pp;
                        drained[idx] = pp;
                    }
                }
            }
            total_handled += round_handled;
            total_popped += round_popped;
            if S::ENABLED {
                // one profile per shard that had work queued this round —
                // stalled shards (blocked by a neighbor's bound) show up
                // with drained = 0, which is exactly the interesting case
                for s in 0..self.shards.len() {
                    let Some(head) = heads[s] else { continue };
                    let (cap, by_neighbor) = caps[s];
                    self.sink.record(TelemetryEvent::ShardRound {
                        shard: s as u32,
                        round: self.rounds,
                        head,
                        cap: (cap != u64::MAX).then_some(cap),
                        capped_by_neighbor: by_neighbor,
                        drained: drained[s],
                        handoffs: self.shards[s].outgoing.len() as u64,
                    });
                }
            }
            self.rounds += 1;
            if total_popped > self.max_steps_per_run {
                panic!("{}", self.runaway_report());
            }
            // Route cross-shard handoffs at the barrier, in shard-id order:
            // the destination bucket sort key (origin, seq) makes arrival
            // order irrelevant, but routing deterministically keeps even
            // debug traces reproducible.
            for s in 0..self.shards.len() {
                let outgoing = std::mem::take(&mut self.shards[s].outgoing);
                for (at, dest, entry) in outgoing {
                    self.shards[dest].push(at, entry);
                }
            }
        }
        if let Some(t) = horizon {
            self.now = self.now.max(t);
        }
        for s in &self.shards {
            self.now = self.now.max(s.last_tick);
        }
        self.refresh_merged();
        total_handled
    }

    /// Process queued messages until the network is quiescent.
    pub fn run_to_quiescence(&mut self) -> u64 {
        self.pump(None)
    }

    /// Advance virtual time to `t`, delivering exactly the messages due at
    /// or before `t` (see [`Simulator::run_until`]).
    pub fn run_until(&mut self, t: u64) -> u64 {
        self.pump(Some(t))
    }

    /// Convenience: inject then run to quiescence.
    pub fn inject_and_run(&mut self, node: NodeId, msg: B::Msg) -> u64 {
        self.inject(node, msg);
        self.run_to_quiescence()
    }
}

/// One simulator behind one API: the single-queue oracle or the sharded
/// conservative-parallel engine, chosen per run. Engines hold a `Backend`
/// and never care which is active; `tests/sharded_equality.rs` gates the
/// sharded mode on event-for-event [`DeliveryLog`] equality with the
/// single mode.
#[derive(Debug)]
pub enum Backend<B: NodeBehavior + Send, S: TelemetrySink = Noop>
where
    B::Msg: Send,
{
    /// The original single-heap [`Simulator`] — the determinism oracle.
    Single(Simulator<B, S>),
    /// The sharded conservative-parallel simulator.
    Sharded(ShardedSimulator<B, S>),
}

impl<B: NodeBehavior + Send> Backend<B>
where
    B::Msg: Send,
{
    /// Build with `shards` requested: 1 selects the single-queue oracle,
    /// more selects the sharded engine.
    pub fn build(
        topology: Topology,
        latency: LatencyModel,
        shards: usize,
        make_node: impl FnMut(NodeId, &Topology) -> B,
    ) -> Self {
        Self::build_with_sink(topology, latency, Noop, shards, make_node)
    }
}

impl<B: NodeBehavior + Send, S: TelemetrySink> Backend<B, S>
where
    B::Msg: Send,
{
    /// Build with a telemetry sink (see [`Backend::build`]).
    pub fn build_with_sink(
        topology: Topology,
        latency: LatencyModel,
        sink: S,
        shards: usize,
        make_node: impl FnMut(NodeId, &Topology) -> B,
    ) -> Self {
        if shards <= 1 {
            Backend::Single(Simulator::with_sink(topology, latency, sink, make_node))
        } else {
            Backend::Sharded(ShardedSimulator::with_sink(
                topology, latency, sink, shards, make_node,
            ))
        }
    }

    /// Requested-or-effective shard count of the active backend.
    #[must_use]
    pub fn shards(&self) -> usize {
        match self {
            Backend::Single(_) => 1,
            Backend::Sharded(s) => s.plan().shards(),
        }
    }

    /// The single-queue simulator, when active.
    ///
    /// # Panics
    /// Panics if the sharded backend is active — callers needing raw
    /// simulator access (examples, probes) run single-shard.
    #[must_use]
    pub fn as_single(&self) -> &Simulator<B, S> {
        match self {
            Backend::Single(sim) => sim,
            Backend::Sharded(_) => {
                panic!("raw simulator access requires the single-shard backend")
            }
        }
    }

    /// See [`Simulator::topology`].
    #[must_use]
    pub fn topology(&self) -> &Topology {
        match self {
            Backend::Single(s) => s.topology(),
            Backend::Sharded(s) => s.topology(),
        }
    }

    /// See [`Simulator::node`].
    #[must_use]
    pub fn node(&self, id: NodeId) -> &B {
        match self {
            Backend::Single(s) => s.node(id),
            Backend::Sharded(s) => s.node(id),
        }
    }

    /// See [`Simulator::node_mut`].
    pub fn node_mut(&mut self, id: NodeId) -> &mut B {
        match self {
            Backend::Single(s) => s.node_mut(id),
            Backend::Sharded(s) => s.node_mut(id),
        }
    }

    /// See [`Simulator::is_down`].
    #[must_use]
    pub fn is_down(&self, id: NodeId) -> bool {
        match self {
            Backend::Single(s) => s.is_down(id),
            Backend::Sharded(s) => s.is_down(id),
        }
    }

    /// See [`Simulator::now`].
    #[must_use]
    pub fn now(&self) -> u64 {
        match self {
            Backend::Single(s) => s.now(),
            Backend::Sharded(s) => s.now(),
        }
    }

    /// See [`Simulator::queue_depth`].
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        match self {
            Backend::Single(s) => s.queue_depth(),
            Backend::Sharded(s) => s.queue_depth(),
        }
    }

    /// See [`Simulator::steps`].
    #[must_use]
    pub fn steps(&self) -> u64 {
        match self {
            Backend::Single(s) => s.steps(),
            Backend::Sharded(s) => s.steps(),
        }
    }

    /// See [`Simulator::scheduled_total`].
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        match self {
            Backend::Single(s) => s.scheduled_total(),
            Backend::Sharded(s) => s.scheduled_total(),
        }
    }

    /// See [`Simulator::dropped_from_queue`].
    #[must_use]
    pub fn dropped_from_queue(&self) -> u64 {
        match self {
            Backend::Single(s) => s.dropped_from_queue(),
            Backend::Sharded(s) => s.dropped_from_queue(),
        }
    }

    /// See [`Simulator::dropped_to_downed`].
    #[must_use]
    pub fn dropped_to_downed(&self) -> u64 {
        match self {
            Backend::Single(s) => s.dropped_to_downed(),
            Backend::Sharded(s) => s.dropped_to_downed(),
        }
    }

    /// Accumulated traffic counters.
    #[must_use]
    pub fn stats(&self) -> &TrafficStats {
        match self {
            Backend::Single(s) => &s.stats,
            Backend::Sharded(s) => s.stats(),
        }
    }

    /// Mutable counters (engine wrappers charge management-plane traffic).
    pub fn stats_mut(&mut self) -> &mut TrafficStats {
        match self {
            Backend::Single(s) => &mut s.stats,
            Backend::Sharded(s) => s.stats_mut(),
        }
    }

    /// Accumulated end-user deliveries.
    #[must_use]
    pub fn deliveries(&self) -> &DeliveryLog {
        match self {
            Backend::Single(s) => &s.deliveries,
            Backend::Sharded(s) => s.deliveries(),
        }
    }

    /// Register an injection time for latency accounting.
    pub fn note_injection(&mut self, event: EventId, at: u64) {
        match self {
            Backend::Single(s) => s.deliveries.note_injection(event, at),
            Backend::Sharded(s) => s.note_injection(event, at),
        }
    }

    /// See [`Simulator::inject`].
    pub fn inject(&mut self, node: NodeId, msg: B::Msg) {
        match self {
            Backend::Single(s) => s.inject(node, msg),
            Backend::Sharded(s) => s.inject(node, msg),
        }
    }

    /// See [`Simulator::inject_at`].
    pub fn inject_at(&mut self, node: NodeId, msg: B::Msg, at: u64) {
        match self {
            Backend::Single(s) => s.inject_at(node, msg, at),
            Backend::Sharded(s) => s.inject_at(node, msg, at),
        }
    }

    /// See [`Simulator::dropped_severed`].
    #[must_use]
    pub fn dropped_severed(&self) -> u64 {
        match self {
            Backend::Single(s) => s.dropped_severed(),
            Backend::Sharded(s) => s.dropped_severed(),
        }
    }

    /// See [`Simulator::sever_link`].
    pub fn sever_link(&mut self, a: NodeId, b: NodeId) -> Result<(), TopologyError> {
        match self {
            Backend::Single(s) => s.sever_link(a, b),
            Backend::Sharded(s) => s.sever_link(a, b),
        }
    }

    /// See [`Simulator::heal_link`].
    pub fn heal_link(&mut self, a: NodeId, b: NodeId) -> Result<(), TopologyError> {
        match self {
            Backend::Single(s) => s.heal_link(a, b),
            Backend::Sharded(s) => s.heal_link(a, b),
        }
    }

    /// See [`Simulator::set_liveness`].
    ///
    /// # Panics
    /// Panics on the sharded backend — the heartbeat detector runs on the
    /// single-queue simulator only (the beat emitter is a global-clock
    /// construct; a sharded port is a ROADMAP follow-on).
    pub fn set_liveness(&mut self, period: u64, timeout: u64) {
        match self {
            Backend::Single(s) => s.set_liveness(period, timeout),
            Backend::Sharded(_) => {
                panic!("heartbeat liveness requires the single-shard backend")
            }
        }
    }

    /// See [`Simulator::suspicions`]. Empty on the sharded backend.
    #[must_use]
    pub fn suspicions(&self) -> Vec<(NodeId, NodeId)> {
        match self {
            Backend::Single(s) => s.suspicions(),
            Backend::Sharded(_) => Vec::new(),
        }
    }

    /// See [`Simulator::take_confirmed_dead`]. Empty on the sharded
    /// backend.
    pub fn take_confirmed_dead(&mut self) -> Vec<NodeId> {
        match self {
            Backend::Single(s) => s.take_confirmed_dead(),
            Backend::Sharded(_) => Vec::new(),
        }
    }

    /// See [`Simulator::crash_and_regraft`].
    pub fn crash_and_regraft(
        &mut self,
        crashed: NodeId,
        anchor: NodeId,
    ) -> Result<RegraftDelta, TopologyError> {
        match self {
            Backend::Single(s) => s.crash_and_regraft(crashed, anchor),
            Backend::Sharded(s) => s.crash_and_regraft(crashed, anchor),
        }
    }

    /// See [`Simulator::run_recovery`].
    pub fn run_recovery(&mut self, delta: &RegraftDelta) {
        match self {
            Backend::Single(s) => s.run_recovery(delta),
            Backend::Sharded(s) => s.run_recovery(delta),
        }
    }

    /// See [`Simulator::run_to_quiescence`].
    pub fn run_to_quiescence(&mut self) -> u64 {
        match self {
            Backend::Single(s) => s.run_to_quiescence(),
            Backend::Sharded(s) => s.run_to_quiescence(),
        }
    }

    /// See [`Simulator::run_until`].
    pub fn run_until(&mut self, t: u64) -> u64 {
        match self {
            Backend::Single(s) => s.run_until(t),
            Backend::Sharded(s) => s.run_until(t),
        }
    }

    /// See [`Simulator::set_max_steps`].
    pub fn set_max_steps(&mut self, max: u64) {
        match self {
            Backend::Single(s) => s.set_max_steps(max),
            Backend::Sharded(s) => s.set_max_steps(max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    /// The flooding test behaviour from the `sim` tests.
    #[derive(Debug, Default)]
    struct Flood {
        seen: Vec<u64>,
        seen_at: Vec<u64>,
    }

    impl NodeBehavior for Flood {
        type Msg = u64;
        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
            if self.seen.contains(&msg) {
                return;
            }
            self.seen.push(msg);
            self.seen_at.push(ctx.now());
            let me = ctx.node();
            for n in ctx.neighbors().to_vec() {
                if n != from || from == me {
                    ctx.send(n, msg, ChargeKind::Advertisement, 1);
                }
            }
        }
    }

    fn sharded(n: usize, hop: u64, shards: usize) -> ShardedSimulator<Flood> {
        ShardedSimulator::with_latency(
            builders::balanced(n, 2),
            LatencyModel::Uniform { hop },
            shards,
            |_, _| Flood::default(),
        )
    }

    #[test]
    fn partitioner_carves_connected_balanced_shards() {
        let topo = builders::balanced(127, 2);
        let plan = ShardPlan::partition(&topo, 4);
        assert_eq!(plan.shards(), 4);
        let sizes = plan.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 127);
        assert!(
            sizes.iter().all(|&s| s >= 16),
            "no degenerate shard: {sizes:?}"
        );
        // each shard is connected: BFS within the shard from its first
        // member must reach every member
        for s in 0..plan.shards() {
            let members: Vec<NodeId> = topo.nodes().filter(|&n| plan.shard_of(n) == s).collect();
            let mut seen = std::collections::BTreeSet::new();
            let mut stack = vec![members[0]];
            seen.insert(members[0]);
            while let Some(u) = stack.pop() {
                for &v in topo.neighbors(u) {
                    if plan.shard_of(v) == s && seen.insert(v) {
                        stack.push(v);
                    }
                }
            }
            assert_eq!(seen.len(), members.len(), "shard {s} is connected");
        }
    }

    #[test]
    fn star_collapses_to_one_effective_shard() {
        let plan = ShardPlan::partition(&builders::star(100), 4);
        assert_eq!(plan.shards(), 1, "no subtree is big enough to carve");
    }

    #[test]
    fn zero_latency_forces_the_coalesced_plan() {
        let sim = ShardedSimulator::with_latency(
            builders::balanced(31, 2),
            LatencyModel::Zero,
            4,
            |_, _| Flood::default(),
        );
        assert_eq!(sim.plan().shards(), 1);
    }

    #[test]
    fn sharded_flood_matches_single_sim_timing_and_traffic() {
        for shards in [1, 2, 4] {
            let mut sharded = sharded(63, 3, shards);
            let mut single = Simulator::with_latency(
                builders::balanced(63, 2),
                LatencyModel::Uniform { hop: 3 },
                |_, _| Flood::default(),
            );
            sharded.inject_and_run(NodeId(17), 7);
            single.inject_and_run(NodeId(17), 7);
            for n in 0..63u32 {
                assert_eq!(
                    sharded.node(NodeId(n)).seen_at,
                    single.node(NodeId(n)).seen_at,
                    "node n{n} at {shards} shards"
                );
            }
            assert_eq!(sharded.now(), single.now());
            assert_eq!(sharded.steps(), single.steps());
            assert_eq!(sharded.stats().adv_msgs(), single.stats.adv_msgs());
        }
    }

    #[test]
    fn run_until_stops_at_the_exact_event_boundary_across_shard_counts() {
        for shards in [1, 2, 4] {
            let mut sim = sharded(31, 5, shards);
            sim.inject(NodeId(0), 1);
            // the root's children hear the flood at exactly t=5
            let before = sim.run_until(4);
            assert_eq!(before, 1, "{shards} shards: only the root by t=4");
            let at = sim.run_until(5);
            assert_eq!(at, 2, "{shards} shards: both children exactly at t=5");
            assert_eq!(sim.now(), 5);
            sim.run_to_quiescence();
            assert_eq!(
                sim.scheduled_total(),
                sim.steps() + sim.dropped_from_queue() + sim.queue_depth() as u64,
                "{shards} shards: conservation at quiescence"
            );
        }
    }

    #[test]
    fn conservation_holds_at_every_pause_across_shard_counts() {
        for shards in [1, 2, 4, 8] {
            let mut sim = sharded(127, 2, shards);
            sim.inject(NodeId(3), 1);
            sim.inject_at(NodeId(77), 2, 4);
            for t in [1, 3, 6, 9, 50] {
                sim.run_until(t);
                assert_eq!(
                    sim.scheduled_total(),
                    sim.steps() + sim.dropped_from_queue() + sim.queue_depth() as u64,
                    "{shards} shards at t={t}"
                );
            }
        }
    }

    #[test]
    fn crash_purge_stays_in_place_and_conserves_messages() {
        for shards in [1, 2, 4] {
            let mut sim = sharded(63, 4, shards);
            sim.inject(NodeId(0), 1);
            sim.run_until(5); // front is between depth 1 and depth 2
            let depth_before = sim.queue_depth();
            assert!(depth_before > 0);
            // n5 (depth 2, child of n2) hears the flood at t=8 — not yet
            sim.crash_and_regraft(NodeId(5), NodeId(2)).unwrap();
            assert!(sim.is_down(NodeId(5)));
            sim.run_to_quiescence();
            assert!(sim.node(NodeId(5)).seen.is_empty(), "corpse heard nothing");
            assert_eq!(
                sim.scheduled_total(),
                sim.steps() + sim.dropped_from_queue() + sim.queue_depth() as u64,
                "{shards} shards"
            );
        }
    }

    #[test]
    fn severed_links_drop_with_conservation_across_shard_counts() {
        for shards in [1, 2, 4] {
            let mut sim = sharded(63, 4, shards);
            sim.sever_link(NodeId(0), NodeId(2)).unwrap();
            sim.inject_and_run(NodeId(0), 1);
            assert!(
                sim.node(NodeId(2)).seen.is_empty(),
                "{shards} shards: right subtree unreachable"
            );
            assert!(!sim.node(NodeId(1)).seen.is_empty());
            assert!(sim.dropped_severed() > 0);
            assert_eq!(
                sim.scheduled_total(),
                sim.steps() + sim.dropped_from_queue() + sim.queue_depth() as u64,
                "{shards} shards: conservation across severed drops"
            );
            // heal: the next flood reaches the formerly cut-off subtree
            sim.heal_link(NodeId(0), NodeId(2)).unwrap();
            sim.inject_and_run(NodeId(0), 2);
            assert_eq!(sim.node(NodeId(2)).seen, vec![2], "{shards} shards");
        }
    }

    #[test]
    fn sharded_severed_flood_matches_single_sim() {
        for shards in [2, 4] {
            let mut sharded = sharded(63, 3, shards);
            let mut single = Simulator::with_latency(
                builders::balanced(63, 2),
                LatencyModel::Uniform { hop: 3 },
                |_, _| Flood::default(),
            );
            sharded.sever_link(NodeId(1), NodeId(3)).unwrap();
            single.sever_link(NodeId(1), NodeId(3)).unwrap();
            sharded.inject_and_run(NodeId(17), 7);
            single.inject_and_run(NodeId(17), 7);
            for n in 0..63u32 {
                assert_eq!(
                    sharded.node(NodeId(n)).seen_at,
                    single.node(NodeId(n)).seen_at,
                    "node n{n} at {shards} shards"
                );
            }
            assert_eq!(sharded.dropped_severed(), single.dropped_severed());
            assert_eq!(sharded.steps(), single.steps());
        }
    }

    #[test]
    fn run_until_boundary_is_exact_across_a_sever_heal_interleaving() {
        // The S4 hazard: a heal re-enables a link whose latency lowers the
        // conservative bound — the fixpoint must be recomputed before the
        // next round, or run_until(t) pops events past t.
        for shards in [1, 2, 4] {
            let mut sim = sharded(31, 5, shards);
            // drops happen at schedule time, so cut before the root sends
            sim.sever_link(NodeId(0), NodeId(1)).unwrap();
            sim.inject(NodeId(0), 1);
            sim.run_until(4);
            // left child never hears flood 1; right child does at t=5
            let at = sim.run_until(5);
            assert_eq!(at, 1, "{shards} shards: only the right child at t=5");
            sim.run_to_quiescence(); // flush flood 1 through the right half
            assert!(sim.node(NodeId(1)).seen.is_empty());
            let resume = sim.now();
            sim.heal_link(NodeId(0), NodeId(1)).unwrap();
            sim.inject_at(NodeId(0), 2, resume + 1);
            // flood 2 reaches both children at exactly resume + 6
            let before = sim.run_until(resume + 5);
            assert_eq!(before, 1, "{shards} shards: only the root before that");
            assert_eq!(sim.now(), resume + 5, "{shards} shards: clock at horizon");
            let at_boundary = sim.run_until(resume + 6);
            assert_eq!(
                at_boundary, 2,
                "{shards} shards: both children exactly at the boundary"
            );
            sim.run_to_quiescence();
            assert_eq!(sim.node(NodeId(1)).seen, vec![2], "{shards} shards");
            assert_eq!(
                sim.scheduled_total(),
                sim.steps() + sim.dropped_from_queue() + sim.queue_depth() as u64,
                "{shards} shards: conservation after sever/heal"
            );
        }
    }

    #[test]
    fn cross_shard_crash_purge_reconciles_every_calendar() {
        // S2: corpse-bound entries must vanish from every shard's calendar
        // and outgoing buffer at purge time, with exact drop accounting.
        for shards in [2, 4] {
            let mut sim = sharded(63, 4, shards);
            sim.inject(NodeId(0), 1);
            sim.run_until(5);
            sim.crash_and_regraft(NodeId(5), NodeId(2)).unwrap();
            for shard in &sim.shards {
                for bucket in shard.calendar.values() {
                    assert!(
                        bucket.iter().all(|e| e.to != NodeId(5)),
                        "{shards} shards: no stale corpse-bound entries"
                    );
                }
                assert!(shard.outgoing.is_empty());
            }
            sim.run_to_quiescence();
            assert_eq!(
                sim.scheduled_total(),
                sim.steps() + sim.dropped_from_queue() + sim.queue_depth() as u64,
                "{shards} shards"
            );
        }
    }

    #[test]
    fn worker_threads_produce_the_identical_schedule() {
        let mut inline = sharded(127, 2, 4);
        inline.set_workers(1);
        let mut threaded = sharded(127, 2, 4);
        threaded.set_workers(4);
        for sim in [&mut inline, &mut threaded] {
            sim.inject(NodeId(9), 1);
            sim.inject_at(NodeId(100), 2, 3);
            sim.run_to_quiescence();
        }
        for n in 0..127u32 {
            assert_eq!(
                inline.node(NodeId(n)).seen_at,
                threaded.node(NodeId(n)).seen_at,
                "node n{n}"
            );
        }
        assert_eq!(inline.steps(), threaded.steps());
    }

    #[test]
    fn backend_build_selects_the_simulator_by_shard_count() {
        for shards in [1, 4] {
            let mut backend: Backend<Flood> = Backend::build(
                builders::balanced(31, 2),
                LatencyModel::Uniform { hop: 1 },
                shards,
                |_, _| Flood::default(),
            );
            assert_eq!(backend.shards(), shards);
            backend.inject(NodeId(0), 5);
            backend.run_to_quiescence();
            assert_eq!(backend.node(NodeId(30)).seen, vec![5]);
        }
    }

    #[test]
    #[should_panic(expected = "forwarding loop")]
    fn sharded_runaway_protection_trips() {
        #[derive(Debug)]
        struct PingPong;
        impl NodeBehavior for PingPong {
            type Msg = ();
            fn on_message(&mut self, from: NodeId, _: (), ctx: &mut Ctx<'_, ()>) {
                let to = if from == ctx.node() {
                    ctx.neighbors()[0]
                } else {
                    from
                };
                ctx.send(to, (), ChargeKind::Event, 1);
            }
        }
        let mut sim = ShardedSimulator::with_latency(
            builders::line(8),
            LatencyModel::Uniform { hop: 1 },
            2,
            |_, _| PingPong,
        );
        sim.set_max_steps(500);
        sim.inject_and_run(NodeId(0), ());
    }
}
