//! The *shards* queue discipline: conservative-parallel rounds over
//! per-subtree calendar queues.
//!
//! The heap discipline drains every message through one global
//! `BinaryHeap` on one thread — the hard ceiling on topology size. This
//! module partitions the tree into connected subtree **shards**, gives each
//! shard its own calendar queue, and advances shards concurrently under a
//! classic Chandy–Misra conservative protocol:
//!
//! * **Lookahead rule.** A node's *exit distance* `exit(v)` is `min_hop() ×`
//!   the hops from `v` to the nearest node of its own shard with a live
//!   link into another shard, counted over live same-shard links (0 on the
//!   border, ∞ where no border is reachable). A message queued for `v` at
//!   tick `t`, and everything it causes inside the shard, reaches a border
//!   node no earlier than `t + exit(v)`, because every hop costs at least
//!   `min_hop()`. Per round, each shard `s` exposes `emit(s)`, the minimum
//!   of `t + exit` over its queued entries (∞ if none can cross); each
//!   calendar bucket keeps its entries' minimum `exit`, so this is a short
//!   walk from the head. A lower bound on anything shard `s` may still
//!   *emit toward* a neighbor is computed by relaxing `lb(s) = min(emit(s),
//!   min over adjacent r of lb(r) + L(r,s))` to a fixpoint, where `L(r,s)`
//!   is the minimum latency of any link crossing between the two shards.
//!   A relayed bound gets no distance credit: what crosses from `r` lands
//!   on a border node of `s`, which may pass it on into a third shard at
//!   once. Shard `s` may then safely process every event strictly below
//!   `cap(s) = min over adjacent r of lb(r) + L(r,s)` — no message can
//!   arrive into `s` earlier than that, and the barrier asserts it. This is
//!   the Chandy–Misra null-message bound computed centrally per round
//!   instead of being gossiped, crediting the hops a message must take
//!   before it can cross. Those hops are a pure function of the topology
//!   and the latency model, so the schedule still is too. With every link
//!   costing ≥ 1 tick, the shard holding the globally earliest event always
//!   has `cap > head`, so every round makes progress.
//! * **Threads.** A round's runnable shards are dealt, in id order, to at
//!   most `min(shards, available cores)` threads. The calling thread
//!   advances the stripe holding the lowest id and spawns one scoped
//!   thread per other stripe.
//! * **Determinism guarantee.** Within a shard, events are processed in
//!   `(deliver_at, origin_shard, seq)` order with a per-shard monotone
//!   `seq`; cross-shard handoffs are routed at the round barrier in shard-id
//!   order. The schedule is a pure function of the injection sequence, the
//!   topology, and the latency model — independent of thread timing — and
//!   the equality gate (`tests/sharded_equality.rs`) holds the resulting
//!   [`DeliveryLog`]s event-for-event identical to the heap discipline's
//!   across the churn/mobility/recovery batteries.
//! * **Coalesced fallback.** Conservative windows require every link to
//!   cost at least one tick. When `LatencyModel::min_hop() == 0` (or the
//!   partitioner cannot cut the tree), the whole topology becomes a single
//!   shard and the calendar queue replays the exact `(deliver_at, seq)`
//!   order of the heap.
//!
//! Everything above the queue — clock, downed set, sever/heal, crash,
//! recovery, injection, the merged ledger — lives once in
//! [`Simulator`](crate::Simulator), which picks this discipline when more
//! than one shard is requested.

use crate::latency::LatencyModel;
use crate::node::{Ctx, DeliveryLog, NodeBehavior};
use crate::sim::{Counters, Net, Payload};
use crate::topology::{NodeId, Topology};
use crate::traffic::{ChargeKind, TrafficStats};
use fsf_model::EventId;
use fsf_telemetry::{flood_id, TelemetryEvent, TelemetrySink, TrafficClass};
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
    msg: Payload<M>,
}

/// One calendar tick's entries, with the smallest exit distance (see
/// `Shards::exit`) of any entry pushed into it — a lower bound that stays
/// valid as entries leave.
#[derive(Debug)]
struct Bucket<M> {
    entries: Vec<Entry<M>>,
    min_exit: u64,
}

impl<M> Default for Bucket<M> {
    fn default() -> Self {
        Bucket {
            entries: Vec::new(),
            min_exit: u64::MAX,
        }
    }
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
    calendar: BTreeMap<u64, Bucket<B::Msg>>,
    queued: usize,
    next_seq: u64,
    counts: Counters,
    /// Highest tick this shard has processed (drops included).
    last_tick: u64,
    /// The cap this shard last advanced to in the current pump: every
    /// handoff routed into it must land at or above it (the causality
    /// guard at the barrier).
    cap: u64,
    stats: TrafficStats,
    deliveries: DeliveryLog,
    /// Cross-shard sends produced this round: `(deliver_at, dest_shard,
    /// entry)`, routed at the round barrier in shard-id order.
    outgoing: Vec<(u64, usize, Entry<B::Msg>)>,
    /// Pongs heard this pump, `(observer, peer, at)`, handed to the
    /// failure detector when the pump ends.
    heard: Vec<(NodeId, NodeId, u64)>,
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
            counts: Counters::default(),
            last_tick: 0,
            cap: 0,
            stats: TrafficStats::new(),
            deliveries: DeliveryLog::new(),
            outgoing: Vec::new(),
            heard: Vec::new(),
        }
    }

    fn head(&self) -> Option<u64> {
        self.calendar.first_key_value().map(|(&t, _)| t)
    }

    fn push(&mut self, at: u64, entry: Entry<B::Msg>, exit: u64) {
        let bucket = self.calendar.entry(at).or_default();
        bucket.min_exit = bucket.min_exit.min(exit);
        bucket.entries.push(entry);
        self.queued += 1;
    }

    /// The earliest tick at which anything queued here, or anything it
    /// causes inside the shard, can be handled on a border node:
    /// `min(t + exit)` over the queued entries, ∞ if none can. Buckets at
    /// or past the best bound so far cannot lower it, so the walk stops
    /// after at most `max exit / min_hop()` buckets.
    fn emit(&self) -> u64 {
        let mut best = u64::MAX;
        for (&t, bucket) in &self.calendar {
            if t >= best {
                break;
            }
            best = best.min(t.saturating_add(bucket.min_exit));
        }
        best
    }

    /// Process every queued event strictly below `cap`, in
    /// `(deliver_at, origin, seq)` order, stopping early once `budget`
    /// entries were popped. Returns `(handled, popped)`.
    #[allow(clippy::too_many_arguments)]
    fn advance(
        &mut self,
        cap: u64,
        budget: u64,
        topology: &Topology,
        latency: &LatencyModel,
        plan: &ShardPlan,
        node_slot: &[u32],
        exit: &[u64],
        down: &BTreeSet<NodeId>,
    ) -> (u64, u64) {
        self.cap = cap;
        let mut handled = 0u64;
        let mut popped = 0u64;
        let mut outbox: Vec<(NodeId, B::Msg, ChargeKind, u64)> = Vec::new();
        'drain: while let Some(t) = self.head() {
            if t >= cap {
                break;
            }
            let Bucket {
                mut entries,
                min_exit,
            } = self.calendar.remove(&t).expect("peeked head");
            self.queued -= entries.len();
            entries.sort_by_key(|e| (e.origin, e.seq));
            self.last_tick = t;
            let mut bucket = entries.into_iter();
            while let Some(entry) = bucket.next() {
                if popped == budget {
                    // out of budget: the rest of the bucket goes back, so
                    // the runaway report reads exact depths
                    let rest = self.calendar.entry(t).or_default();
                    rest.min_exit = rest.min_exit.min(min_exit);
                    let before = rest.entries.len();
                    rest.entries.push(entry);
                    rest.entries.extend(bucket);
                    self.queued += rest.entries.len() - before;
                    break 'drain;
                }
                popped += 1;
                if down.contains(&entry.to) {
                    self.counts.queue_drops += 1;
                    self.counts.dropped_to_downed += 1;
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
                let deliveries_before = self.deliveries.complex_deliveries();
                // a ping is answered below the app layer — the node is
                // alive, so a pong heads back — and a pong is heard
                let pong = match entry.msg {
                    Payload::App(msg) => {
                        let slot = node_slot[entry.to.0 as usize] as usize;
                        let mut ctx = Ctx::external(
                            entry.to,
                            topology.neighbors(entry.to),
                            t,
                            &mut outbox,
                            &mut self.deliveries,
                        );
                        self.nodes[slot].on_message(entry.from, msg, &mut ctx);
                        None
                    }
                    Payload::Ping => Some((entry.from, Payload::Pong, ChargeKind::Liveness, 1)),
                    Payload::Pong => {
                        self.heard.push((entry.to, entry.from, t));
                        None
                    }
                };
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
                let sends = outbox
                    .drain(..)
                    .map(|(to, m, kind, u)| (to, Payload::App(m), kind, u));
                for (to, msg, kind, units) in pong.into_iter().chain(sends) {
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
                    self.counts.scheduled_total += 1;
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
                    // time — same rule as the heap, so the drop decision
                    // never depends on when a shard pops the entry.
                    if entry.to != to && topology.is_severed(entry.to, to) {
                        self.counts.queue_drops += 1;
                        self.counts.dropped_severed += 1;
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
                        self.push(at, e, exit[to.0 as usize]);
                    } else {
                        self.outgoing.push((at, dest, e));
                    }
                }
            }
        }
        self.counts.steps += handled;
        (handled, popped)
    }
}

/// The shards discipline's state: the plan, the per-shard calendars with
/// the nodes they own, and the lookahead graph between them.
#[derive(Debug)]
pub(crate) struct Shards<B: NodeBehavior, S: TelemetrySink> {
    pub(crate) plan: ShardPlan,
    /// Global node id → index within its shard's `nodes` vector.
    node_slot: Vec<u32>,
    shards: Vec<ShardState<B, S>>,
    /// Completed conservative rounds (the `round` stamp of
    /// [`TelemetryEvent::ShardRound`] profiles).
    rounds: u64,
    /// Shard adjacency with the minimum latency of any crossing link —
    /// the `L(r,s)` of the lookahead rule. Rebuilt on every topology
    /// mutation.
    shard_graph: Vec<Vec<(usize, u64)>>,
    /// Per node: `min_hop() ×` the hops from it to the nearest node of its
    /// own shard with a live link into another shard, over live same-shard
    /// links; 0 on the border, ∞ where no border is reachable. Rebuilt with
    /// `shard_graph`.
    exit: Vec<u64>,
    /// Threads per round, the calling thread included: `min(shards,
    /// available cores)`. Each advances a fixed, id-ordered stripe of the
    /// runnable shards; 1 runs every shard on the calling thread.
    workers: usize,
}

impl<B: NodeBehavior + Send, S: TelemetrySink> Shards<B, S>
where
    B::Msg: Send,
{
    /// Partition into (at most) `shards` subtree shards and build every
    /// node straight into its shard. Zero-capable latency models force the
    /// coalesced single-shard plan (see the module docs). Every shard
    /// records into a clone of `sink`; a [`fsf_telemetry::Recorder`] shares
    /// one store across clones.
    pub(crate) fn new(
        topology: &Topology,
        latency: &LatencyModel,
        sink: &S,
        shards: usize,
        mut make_node: impl FnMut(NodeId, &Topology) -> B,
    ) -> Self {
        let plan = if latency.min_hop() == 0 {
            ShardPlan::single(topology.len())
        } else {
            ShardPlan::partition(topology, shards)
        };
        let mut shards: Vec<ShardState<B, S>> = (0..plan.shards())
            .map(|id| ShardState::new(id, sink.clone()))
            .collect();
        let mut node_slot = vec![0u32; topology.len()];
        for id in topology.nodes() {
            let s = plan.shard_of(id);
            node_slot[id.0 as usize] = shards[s].nodes.len() as u32;
            shards[s].nodes.push(make_node(id, topology));
        }
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let mut queue = Shards {
            workers: plan.shards().min(cores),
            plan,
            node_slot,
            shards,
            rounds: 0,
            shard_graph: Vec::new(),
            exit: Vec::new(),
        };
        queue.rebuild_shard_graph(topology, latency);
        queue
    }

    /// Recompute the lookahead graph and the exit distances, and refresh
    /// every queued bucket's `min_exit` against them. Must run after every
    /// topology mutation and *before* anything is scheduled against the
    /// new topology: a healed or re-grafted link may lower the
    /// conservative bound, and a round against the stale graph would
    /// overshoot `run_until`'s boundary.
    pub(crate) fn rebuild_shard_graph(&mut self, topology: &Topology, latency: &LatencyModel) {
        let s = self.plan.shards();
        let mut min_link: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        // multi-source BFS from the border over live same-shard links
        let mut hops = vec![u64::MAX; topology.len()];
        let mut frontier = std::collections::VecDeque::new();
        for u in topology.nodes() {
            let su = self.plan.shard_of(u);
            for &v in topology.neighbors(u) {
                if v <= u {
                    continue;
                }
                // a severed link carries no messages, so it must not lower
                // the conservative lookahead bound
                if topology.is_severed(u, v) {
                    continue;
                }
                let sv = self.plan.shard_of(v);
                if su == sv {
                    continue;
                }
                for border in [u, v] {
                    if hops[border.0 as usize] != 0 {
                        hops[border.0 as usize] = 0;
                        frontier.push_back(border);
                    }
                }
                let d = latency.delay(u, v);
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
        while let Some(u) = frontier.pop_front() {
            let next = hops[u.0 as usize] + 1;
            for &v in topology.neighbors(u) {
                if hops[v.0 as usize] == u64::MAX
                    && self.plan.shard_of(v) == self.plan.shard_of(u)
                    && !topology.is_severed(u, v)
                {
                    hops[v.0 as usize] = next;
                    frontier.push_back(v);
                }
            }
        }
        let min_hop = latency.min_hop();
        self.exit = hops
            .into_iter()
            .map(|h| if h == u64::MAX { h } else { h * min_hop })
            .collect();
        for shard in &mut self.shards {
            for bucket in shard.calendar.values_mut() {
                bucket.min_exit = bucket
                    .entries
                    .iter()
                    .map(|e| self.exit[e.to.0 as usize])
                    .min()
                    .unwrap_or(u64::MAX);
            }
        }
    }

    /// Per-round conservative caps: `cap(s) = min over adjacent r of
    /// lb(r) + L(r,s)`, with `lb` the earliest-emission bounds `emits`
    /// relaxed over the shard graph (see the module docs), clamped to
    /// `horizon + 1`. The second element of each pair is the cap's
    /// provenance: `true` when a neighbor's bound is the binding constraint
    /// (rather than the horizon clamp or an unconstrained `u64::MAX`) — the
    /// profiling signal for how often the conservative window, not the
    /// workload, limits a shard's round.
    fn round_caps(&self, emits: &[u64], horizon: Option<u64>) -> Vec<(u64, bool)> {
        let s = self.shards.len();
        let mut lb = emits.to_vec();
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

    /// Thread-timing determinism hook: override the per-round worker count.
    #[cfg(test)]
    pub(crate) fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Completed conservative rounds, for the scheduler table.
    #[cfg(test)]
    pub(crate) fn rounds(&self) -> u64 {
        self.rounds
    }

    pub(crate) fn node(&self, id: NodeId) -> &B {
        &self.shards[self.plan.shard_of(id)].nodes[self.node_slot[id.0 as usize] as usize]
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut B {
        &mut self.shards[self.plan.shard_of(id)].nodes[self.node_slot[id.0 as usize] as usize]
    }

    /// Messages currently scheduled but not yet delivered, over all shards.
    pub(crate) fn queued(&self) -> usize {
        self.shards.iter().map(|s| s.queued).sum()
    }

    /// Broadcast an injection time to every shard log, so deliveries anchor
    /// wherever the subscriber lives.
    pub(crate) fn note_injection(&mut self, event: EventId, at: u64) {
        for shard in &mut self.shards {
            shard.deliveries.note_injection(event, at);
        }
    }

    /// Enqueue one send made outside the rounds (injection, recovery,
    /// link-up reconciliation, heartbeat ping), minting a fresh causal flood
    /// in the sender shard's sequence space. Honors the severed-at-the-radio
    /// drop rule.
    #[allow(clippy::too_many_arguments)] // one enqueue, fully described
    pub(crate) fn schedule_external(
        &mut self,
        net: &mut Net<'_, S>,
        from: NodeId,
        to: NodeId,
        msg: Payload<B::Msg>,
        deliver_at: u64,
        class: TrafficClass,
        units: u64,
    ) {
        let s = self.plan.shard_of(from);
        let sender = &mut self.shards[s];
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
        net.counts.scheduled_total += 1;
        let dest = self.plan.shard_of(to);
        if S::ENABLED {
            net.sink.record(TelemetryEvent::Scheduled {
                at: *net.now,
                deliver_at,
                from: from.0,
                to: to.0,
                shard: dest as u32,
                flood,
                class,
                units,
            });
        }
        if from != to && net.topology.is_severed(from, to) {
            net.counts.queue_drops += 1;
            net.counts.dropped_severed += 1;
            if S::ENABLED {
                net.sink.record(TelemetryEvent::DroppedSevered {
                    at: *net.now,
                    from: from.0,
                    to: to.0,
                    shard: s as u32,
                    flood,
                });
            }
            return;
        }
        self.shards[dest].push(deliver_at, entry, self.exit[to.0 as usize]);
    }

    /// Purge corpse-bound entries from EVERY shard, not just the corpse's
    /// own: cross-shard routing normally lands them in `shard_of(crashed)`,
    /// but entries parked in another shard's calendar or outgoing buffer
    /// would otherwise survive as stale tombstones and skew the
    /// conservation ledger.
    pub(crate) fn purge(&mut self, crashed: NodeId, net: &mut Net<'_, S>) {
        for shard in &mut self.shards {
            let mut purged = 0u64;
            shard.calendar.retain(|_, bucket| {
                let before = bucket.entries.len();
                bucket.entries.retain(|e| e.to != crashed);
                purged += (before - bucket.entries.len()) as u64;
                !bucket.entries.is_empty()
            });
            shard.queued -= purged as usize;
            // outgoing entries were scheduled but never pushed, so they
            // are absent from `queued` — drop-count them all the same
            let before = shard.outgoing.len();
            shard.outgoing.retain(|(_, _, e)| e.to != crashed);
            let total = purged + (before - shard.outgoing.len()) as u64;
            net.counts.queue_drops += total;
            net.counts.dropped_to_downed += total;
            if S::ENABLED && total > 0 {
                net.sink.record(TelemetryEvent::Purged {
                    at: *net.now,
                    node: crashed.0,
                    shard: shard.id as u32,
                    count: total,
                });
            }
        }
    }

    /// Per-shard queue depths, for the runaway report.
    pub(crate) fn depths(&self) -> String {
        let depths: Vec<String> = self
            .shards
            .iter()
            .map(|s| format!("shard {}: {}", s.id, s.queued))
            .collect();
        depths.join(", ")
    }

    /// The destination with the most queued messages (runaway report).
    pub(crate) fn scan_hottest(&self) -> Option<(NodeId, u64)> {
        let mut queued_to: BTreeMap<NodeId, u64> = BTreeMap::new();
        for shard in &self.shards {
            for bucket in shard.calendar.values() {
                for e in &bucket.entries {
                    *queued_to.entry(e.to).or_default() += 1;
                }
            }
        }
        queued_to.into_iter().max_by_key(|&(_, d)| d)
    }

    /// Round-based conservative pump (see the module docs), popping at
    /// most `budget` entries (decremented in place). Returns the number of
    /// messages handled, and whether it stopped because the next round
    /// would exceed the budget.
    pub(crate) fn run_rounds(
        &mut self,
        horizon: Option<u64>,
        budget: &mut u64,
        mut net: Net<'_, S>,
    ) -> (u64, bool) {
        let mut total_handled = 0u64;
        let mut out_of_budget = false;
        // A cap promises nothing beyond the pump it was computed in: what
        // is scheduled between pumps starts at the clock, which every
        // shard has already reached.
        for shard in &mut self.shards {
            shard.cap = 0;
        }
        loop {
            let heads: Vec<Option<u64>> = self.shards.iter().map(ShardState::head).collect();
            let Some(gmin) = heads.iter().flatten().copied().min() else {
                break;
            };
            if horizon.is_some_and(|t| gmin > t) {
                break;
            }
            if *budget == 0 {
                // at the barrier: every handoff is routed, depths are exact
                out_of_budget = true;
                break;
            }
            let emits: Vec<u64> = self.shards.iter().map(ShardState::emit).collect();
            let caps = self.round_caps(&emits, horizon);
            let left = *budget;
            let runnable: Vec<bool> = (0..self.shards.len())
                .map(|s| heads[s].is_some_and(|h| h < caps[s].0))
                .collect();
            let runnable_count = runnable.iter().filter(|&&r| r).count();
            debug_assert!(runnable_count > 0, "the gmin shard always runs");
            // Stripe k holds the k-th, (k + threads)-th, … runnable shard
            // in id order; the calling thread takes stripe 0, which holds
            // the lowest id, and one spawned thread takes each other stripe.
            let threads = self.workers.min(runnable_count);
            let mut stripes: Vec<Vec<(usize, &mut ShardState<B, S>)>> =
                (0..threads).map(|_| Vec::new()).collect();
            let shards = self.shards.iter_mut().enumerate();
            for (k, (idx, shard)) in shards.filter(|&(idx, _)| runnable[idx]).enumerate() {
                stripes[k % threads].push((idx, shard));
            }
            let topology = net.topology;
            let latency = net.latency;
            let plan = &self.plan;
            let node_slot = &self.node_slot;
            let exit = &self.exit;
            let down = net.down;
            let caps = &caps;
            let advance = |stripe: Vec<(usize, &mut ShardState<B, S>)>| -> Vec<(usize, u64, u64)> {
                stripe
                    .into_iter()
                    .map(|(idx, shard)| {
                        let (handled, popped) = shard.advance(
                            caps[idx].0,
                            left,
                            topology,
                            latency,
                            plan,
                            node_slot,
                            exit,
                            down,
                        );
                        (idx, handled, popped)
                    })
                    .collect()
            };
            let mut stripes = stripes.into_iter();
            let own = stripes.next().expect("at least one runnable shard");
            // a round with one thread skips the scope: most sparse rounds
            // have one runnable shard, and there the scope cost measurably
            let advanced = if threads == 1 {
                advance(own)
            } else {
                let advance = &advance;
                std::thread::scope(|sc| {
                    let spawned: Vec<_> = stripes
                        .map(|stripe| sc.spawn(move || advance(stripe)))
                        .collect();
                    let mut advanced = advance(own);
                    for h in spawned {
                        advanced.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
                    }
                    advanced
                })
            };
            let mut round_handled = 0u64;
            let mut round_popped = 0u64;
            // per-shard popped counts, for the ShardRound profiles
            let mut drained = vec![0u64; self.shards.len()];
            for (idx, handled, popped) in advanced {
                round_handled += handled;
                round_popped += popped;
                drained[idx] = popped;
            }
            total_handled += round_handled;
            // every runnable shard may pop up to the whole remaining budget
            *budget = budget.saturating_sub(round_popped);
            if S::ENABLED {
                // one profile per shard that had work queued this round —
                // stalled shards (blocked by a neighbor's bound) show up
                // with drained = 0, which is exactly the interesting case
                for s in 0..self.shards.len() {
                    let Some(head) = heads[s] else { continue };
                    let (cap, by_neighbor) = caps[s];
                    net.sink.record(TelemetryEvent::ShardRound {
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
            // Route cross-shard handoffs at the barrier, in shard-id order:
            // the destination bucket sort key (origin, seq) makes arrival
            // order irrelevant, but routing deterministically keeps even
            // debug traces reproducible. The causality guard: a handoff
            // below its destination's cap would land in that shard's past,
            // so the lookahead bound was wrong.
            for s in 0..self.shards.len() {
                let outgoing = std::mem::take(&mut self.shards[s].outgoing);
                for (at, dest, entry) in outgoing {
                    let cap = self.shards[dest].cap;
                    assert!(
                        at >= cap,
                        "causality: shard {s} handed shard {dest} an entry at tick {at}, \
                         below the cap {cap} it already advanced to"
                    );
                    let exit = self.exit[entry.to.0 as usize];
                    self.shards[dest].push(at, entry, exit);
                }
            }
        }
        // drain the per-shard clocks, counters, logs and heard pongs into
        // the merged ones
        for shard in &mut self.shards {
            *net.now = (*net.now).max(shard.last_tick);
            net.stats.merge(&std::mem::take(&mut shard.stats));
            shard.deliveries.drain_into(net.deliveries);
            net.counts.absorb(std::mem::take(&mut shard.counts));
            for (observer, peer, at) in shard.heard.drain(..) {
                net.heard(observer, peer, at);
            }
        }
        (total_handled, out_of_budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::tests::{assert_conserved, flood_sim, tree};

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
        let sim = flood_sim(builders::balanced(31, 2), LatencyModel::Zero, 4);
        assert_eq!(sim.shards(), 1);
    }

    #[test]
    fn cross_shard_crash_purge_reconciles_every_calendar() {
        // corpse-bound entries must vanish from every shard's calendar
        // and outgoing buffer at purge time, with exact drop accounting.
        for shards in [2, 4] {
            let mut sim = tree(63, 4, shards);
            sim.inject(NodeId(0), 1);
            sim.run_until(5);
            sim.crash_and_regraft(NodeId(5), NodeId(2)).unwrap();
            for shard in &sim.shard_queue().shards {
                for bucket in shard.calendar.values() {
                    assert!(
                        bucket.entries.iter().all(|e| e.to != NodeId(5)),
                        "{shards} shards: no stale corpse-bound entries"
                    );
                }
                assert!(shard.outgoing.is_empty());
            }
            sim.run_to_quiescence();
            assert_conserved(&sim, &format!("at {shards} shards"));
        }
    }

    #[test]
    fn worker_threads_produce_the_identical_schedule() {
        let run = |workers: usize| {
            let mut sim = tree(127, 2, 4);
            sim.shard_queue().set_workers(workers);
            sim.inject(NodeId(9), 1);
            sim.inject_at(NodeId(100), 2, 3);
            sim.run_to_quiescence();
            sim
        };
        let inline = run(1);
        // 2 and 3 threads stripe 4 shards unevenly; 4 gives each its own
        for workers in [1, 2, 3, 4] {
            let threaded = run(workers);
            for n in 0..127u32 {
                assert_eq!(
                    inline.node(NodeId(n)).seen_at,
                    threaded.node(NodeId(n)).seen_at,
                    "node n{n}"
                );
            }
            assert_eq!(inline.steps(), threaded.steps());
        }
    }
}
