//! The *heap* queue discipline: one global `BinaryHeap` popped in
//! `(deliver_at, seq)` order on the calling thread, and crash purges by
//! tombstone. This is the single-shard [`Simulator`](crate::Simulator) —
//! the determinism oracle the shards discipline is held equal to.

use crate::node::{Ctx, NodeBehavior};
use crate::sim::{Net, Payload};
use crate::topology::NodeId;
use crate::traffic::ChargeKind;
use fsf_telemetry::{flood_id, TelemetryEvent, TelemetrySink, TrafficClass};
use std::collections::{BTreeMap, BinaryHeap};

#[derive(Debug, Clone)]
struct Envelope<M> {
    from: NodeId,
    to: NodeId,
    /// Causality id: minted at injection, inherited by every send made
    /// while handling a message carrying it (see [`fsf_telemetry::flood_id`]).
    flood: u64,
    msg: Payload<M>,
}

/// A scheduled envelope. Heap order: earliest `deliver_at` first, ties
/// broken by scheduling sequence (`seq` ascending) — the determinism rule.
#[derive(Debug, Clone)]
struct Scheduled<M> {
    deliver_at: u64,
    seq: u64,
    env: Envelope<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // reversed: BinaryHeap is a max-heap, we pop the earliest message
        (other.deliver_at, other.seq).cmp(&(self.deliver_at, self.seq))
    }
}

/// The heap discipline's state: the nodes, the queue, and what its purge
/// needs to remember.
#[derive(Debug)]
pub(crate) struct Heap<B: NodeBehavior> {
    pub(crate) nodes: Vec<B>,
    queue: BinaryHeap<Scheduled<B::Msg>>,
    next_seq: u64,
    /// Downed nodes, mapped to the `next_seq` value at their crash: queued
    /// messages with a smaller seq were purge-counted at crash time and pop
    /// as silent tombstones; later seqs are charged-but-dropped arrivals.
    down: BTreeMap<NodeId, u64>,
    /// Queued-message count per destination node — the crash purge reads
    /// (and zeroes) one slot instead of rebuilding the whole heap.
    queued_to: Vec<u32>,
    /// Messages still in the heap whose drop was already accounted at a
    /// crash. Excluded from [`Self::depth`]; discarded silently at pop.
    tombstones: u64,
}

impl<B: NodeBehavior> Heap<B> {
    pub(crate) fn new(nodes: Vec<B>) -> Self {
        let queued_to = vec![0u32; nodes.len()];
        Heap {
            nodes,
            queue: BinaryHeap::new(),
            next_seq: 0,
            down: BTreeMap::new(),
            queued_to,
            tombstones: 0,
        }
    }

    /// Messages scheduled but not yet delivered. Tombstones — purged by a
    /// crash but physically still in the heap — are excluded: they are
    /// already accounted as queue drops.
    pub(crate) fn depth(&self) -> usize {
        self.queue.len() - self.tombstones as usize
    }

    /// The live destination with the most queued messages (runaway report).
    pub(crate) fn hottest(&self) -> Option<(NodeId, u64)> {
        self.queued_to
            .iter()
            .enumerate()
            .max_by_key(|&(_, &d)| d)
            .filter(|&(_, &d)| d > 0)
            .map(|(node, &d)| (NodeId(node as u32), u64::from(d)))
    }

    /// Tombstone purge: account every queued message to the corpse now
    /// (one counter read), leave the envelopes in the heap, and discard
    /// them silently at pop. O(1) against a take-and-rebuild of the heap.
    pub(crate) fn tombstone<S: TelemetrySink>(&mut self, crashed: NodeId, net: &mut Net<'_, S>) {
        let purged = u64::from(self.queued_to[crashed.0 as usize]);
        self.queued_to[crashed.0 as usize] = 0;
        self.tombstones += purged;
        net.counts.dropped_to_downed += purged;
        net.counts.queue_drops += purged;
        self.down.insert(crashed, self.next_seq);
        if S::ENABLED && purged > 0 {
            net.sink.record(TelemetryEvent::Purged {
                at: *net.now,
                node: crashed.0,
                shard: 0,
                count: purged,
            });
        }
    }

    /// Enqueue one send. A send made while handling a message inherits
    /// its causal `flood` id; a management-plane send (injection, recovery,
    /// link-up reconciliation, heartbeat ping) passes `None` and starts a
    /// fresh flood — no in-flight message triggered it.
    #[allow(clippy::too_many_arguments)] // one enqueue, fully described
    pub(crate) fn schedule<S: TelemetrySink>(
        &mut self,
        net: &mut Net<'_, S>,
        from: NodeId,
        to: NodeId,
        msg: Payload<B::Msg>,
        deliver_at: u64,
        flood: Option<u64>,
        class: TrafficClass,
        units: u64,
    ) {
        let flood = flood.unwrap_or_else(|| flood_id(0, self.next_seq));
        let seq = self.next_seq;
        self.next_seq += 1;
        net.counts.scheduled_total += 1;
        if S::ENABLED {
            net.sink.record(TelemetryEvent::Scheduled {
                at: *net.now,
                deliver_at,
                from: from.0,
                to: to.0,
                shard: 0,
                flood,
                class,
                units,
            });
        }
        // A send across a severed link dies at the radio: charged by the
        // caller (it left the sender), accounted as a queue drop so the
        // conservation invariant stays exact, never enqueued.
        if from != to && net.topology.is_severed(from, to) {
            net.counts.queue_drops += 1;
            net.counts.dropped_severed += 1;
            if S::ENABLED {
                net.sink.record(TelemetryEvent::DroppedSevered {
                    at: *net.now,
                    from: from.0,
                    to: to.0,
                    shard: 0,
                    flood,
                });
            }
            return;
        }
        self.queued_to[to.0 as usize] += 1;
        self.queue.push(Scheduled {
            deliver_at,
            seq,
            env: Envelope {
                from,
                to,
                flood,
                msg,
            },
        });
    }

    /// Process messages in `(deliver_at, seq)` order until `horizon` (if
    /// any) or quiescence, popping at most `budget` entries (decremented in
    /// place). Pings are answered and pongs handed to the failure detector
    /// here, below the app layer. Returns the number of messages handled,
    /// and whether the pump stopped because the next pop would exceed the
    /// budget.
    pub(crate) fn pump<S: TelemetrySink>(
        &mut self,
        horizon: Option<u64>,
        budget: &mut u64,
        mut net: Net<'_, S>,
    ) -> (u64, bool) {
        let mut handled = 0u64;
        let mut out_of_budget = false;
        let mut outbox: Vec<(NodeId, B::Msg, ChargeKind, u64)> = Vec::new();
        while let Some(h) = self.queue.peek().map(|s| s.deliver_at) {
            if horizon.is_some_and(|t| h > t) {
                break;
            }
            if *budget == 0 {
                // checked before the pop, so the message that would have
                // exceeded the budget is still queued when the report reads
                // the depth
                out_of_budget = true;
                break;
            }
            let sch = self.queue.pop().expect("peeked");
            *budget -= 1;
            if let Some(&cutoff) = self.down.get(&sch.env.to) {
                if sch.seq < cutoff {
                    // purge-counted (and removed from queued_to) at the
                    // crash; discard without touching the clock or the
                    // drop counters again
                    self.tombstones -= 1;
                    continue;
                }
                self.queued_to[sch.env.to.0 as usize] -= 1;
                *net.now = (*net.now).max(sch.deliver_at);
                net.counts.dropped_to_downed += 1;
                net.counts.queue_drops += 1;
                if S::ENABLED {
                    net.sink.record(TelemetryEvent::DroppedDowned {
                        at: *net.now,
                        to: sch.env.to.0,
                        shard: 0,
                        flood: sch.env.flood,
                    });
                }
                continue;
            }
            self.queued_to[sch.env.to.0 as usize] -= 1;
            *net.now = (*net.now).max(sch.deliver_at);
            let env = sch.env;
            handled += 1;
            let deliveries_before = net.deliveries.complex_deliveries();
            // a ping is answered below the app layer — the node is alive,
            // so a pong heads back (dying at the radio if the link was
            // severed since the ping crossed) — and a pong is heard
            let pong = match env.msg {
                Payload::App(msg) => {
                    let mut ctx = Ctx::external(
                        env.to,
                        net.topology.neighbors(env.to),
                        *net.now,
                        &mut outbox,
                        net.deliveries,
                    );
                    self.nodes[env.to.0 as usize].on_message(env.from, msg, &mut ctx);
                    None
                }
                Payload::Ping => Some((env.from, Payload::Pong, ChargeKind::Liveness, 1)),
                Payload::Pong => {
                    net.heard(env.to, env.from, sch.deliver_at);
                    None
                }
            };
            if S::ENABLED {
                net.sink.record(TelemetryEvent::Handled {
                    at: *net.now,
                    from: env.from.0,
                    to: env.to.0,
                    shard: 0,
                    flood: env.flood,
                    deliveries: net.deliveries.complex_deliveries() - deliveries_before,
                });
            }
            let sends = outbox
                .drain(..)
                .map(|(to, m, kind, u)| (to, Payload::App(m), kind, u));
            for (to, msg, kind, units) in pong.into_iter().chain(sends) {
                net.stats.charge(kind, env.to, to, units);
                let deliver_at = *net.now + net.latency.delay(env.to, to);
                // sends inherit the handled message's causal flood id
                self.schedule(
                    &mut net,
                    env.to,
                    to,
                    msg,
                    deliver_at,
                    Some(env.flood),
                    kind.traffic_class(),
                    units,
                );
            }
        }
        net.counts.steps += handled;
        (handled, out_of_budget)
    }
}
