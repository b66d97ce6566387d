//! The *heap* queue discipline: one global `BinaryHeap` popped in
//! `(deliver_at, seq)` order on the calling thread, crash purges by
//! tombstone, and the heartbeat failure detector interleaved with the
//! message stream. This is the single-shard [`Simulator`](crate::Simulator)
//! — the determinism oracle the shards discipline is held equal to.

use crate::node::{Ctx, NodeBehavior};
use crate::sim::Net;
use crate::topology::NodeId;
use crate::traffic::ChargeKind;
use fsf_telemetry::{flood_id, TelemetryEvent, TelemetrySink, TrafficClass};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// What travels on a link: an application message, or one leg of the
/// liveness layer's heartbeat exchange. Pings and pongs ride the same
/// scheduler (latency, severed links, crash drops all apply — that is what
/// makes the suspicion signal honest) but are answered *below*
/// [`NodeBehavior`]: node logic never sees them.
#[derive(Debug, Clone)]
enum Payload<M> {
    App(M),
    Ping,
    Pong,
}

#[derive(Debug, Clone)]
struct Envelope<M> {
    from: NodeId,
    to: NodeId,
    /// Causality id: minted at injection, inherited by every send made
    /// while handling a message carrying it (see [`fsf_telemetry::flood_id`]).
    flood: u64,
    msg: Payload<M>,
}

/// Heartbeat failure-detector state. All bookkeeping is *directed*:
/// `(observer, peer)` — node `observer`'s view of neighbor `peer`.
/// Suspicion never mutates node or routing state; it only feeds
/// [`Heap::take_confirmed_dead`], which the engine layer intersects with
/// actual crash deltas — a false suspicion (e.g. a live node behind a
/// severed link) therefore cannot cause route loss, and is cleared the
/// moment a pong gets through again.
#[derive(Debug)]
struct Liveness {
    period: u64,
    timeout: u64,
    /// Virtual time liveness was enabled: the freshness baseline for pairs
    /// that have never exchanged a pong.
    enabled_at: u64,
    /// Next beat tick: every live node pings every neighbor.
    next_beat: u64,
    /// `(observer, peer)` → virtual time of the last pong heard.
    last_seen: BTreeMap<(NodeId, NodeId), u64>,
    /// Directed suspicions currently active.
    suspected: BTreeSet<(NodeId, NodeId)>,
    /// Nodes every live neighbor currently suspects, not yet drained by
    /// [`Heap::take_confirmed_dead`].
    confirmed: Vec<NodeId>,
    /// Everything ever confirmed (until a pong re-admits it) — keeps a
    /// dead node from being re-confirmed every beat.
    confirmed_ever: BTreeSet<NodeId>,
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
/// and its failure detector need to remember.
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
    /// Heartbeat failure detector, off by default (zero overhead when off).
    liveness: Option<Liveness>,
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
            liveness: None,
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

    /// See [`Simulator::set_liveness`](crate::Simulator::set_liveness).
    pub(crate) fn set_liveness(&mut self, period: u64, timeout: u64, now: u64) {
        assert!(period > 0, "heartbeat period must be positive");
        assert!(timeout > 0, "suspicion timeout must be positive");
        self.liveness = Some(Liveness {
            period,
            timeout,
            enabled_at: now,
            next_beat: now + period,
            last_seen: BTreeMap::new(),
            suspected: BTreeSet::new(),
            confirmed: Vec::new(),
            confirmed_ever: BTreeSet::new(),
        });
    }

    pub(crate) fn suspicions(&self) -> Vec<(NodeId, NodeId)> {
        self.liveness
            .as_ref()
            .map(|lv| lv.suspected.iter().copied().collect())
            .unwrap_or_default()
    }

    pub(crate) fn take_confirmed_dead(&mut self) -> Vec<NodeId> {
        self.liveness
            .as_mut()
            .map(|lv| std::mem::take(&mut lv.confirmed))
            .unwrap_or_default()
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

    /// Enqueue one management-plane send (injection, recovery, link-up
    /// reconciliation): it starts a fresh causal flood — no in-flight
    /// message triggered it.
    #[allow(clippy::too_many_arguments)] // one enqueue, fully described
    pub(crate) fn schedule_fresh<S: TelemetrySink>(
        &mut self,
        net: &mut Net<'_, S>,
        from: NodeId,
        to: NodeId,
        msg: B::Msg,
        deliver_at: u64,
        class: TrafficClass,
        units: u64,
    ) {
        let flood = flood_id(0, self.next_seq);
        self.schedule(
            net,
            from,
            to,
            Payload::App(msg),
            deliver_at,
            flood,
            class,
            units,
        );
    }

    #[allow(clippy::too_many_arguments)] // one enqueue, fully described
    fn schedule<S: TelemetrySink>(
        &mut self,
        net: &mut Net<'_, S>,
        from: NodeId,
        to: NodeId,
        msg: Payload<B::Msg>,
        deliver_at: u64,
        flood: u64,
        class: TrafficClass,
        units: u64,
    ) {
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
    /// any) or quiescence, interleaving heartbeat beats (when liveness is
    /// enabled) at their scheduled ticks. Returns the number of messages
    /// handled, and whether the pump stopped because the next pop would
    /// exceed `budget`. Beats fire whenever the clock would cross their
    /// tick — either because a queued message is due at or after it, or
    /// because an explicit horizon covers it; with an empty queue and no
    /// horizon the pump is quiescent and beats wait for time to be driven
    /// forward (`run_until`), so quiescence stays reachable.
    pub(crate) fn pump<S: TelemetrySink>(
        &mut self,
        horizon: Option<u64>,
        budget: u64,
        mut net: Net<'_, S>,
    ) -> (u64, bool) {
        let mut handled = 0u64;
        let mut popped = 0u64;
        let mut out_of_budget = false;
        let mut outbox: Vec<(NodeId, B::Msg, ChargeKind, u64)> = Vec::new();
        loop {
            let head_at = self.queue.peek().map(|s| s.deliver_at);
            if let Some(beat_at) = self.liveness.as_ref().map(|lv| lv.next_beat) {
                let beat_due = match head_at {
                    Some(h) => beat_at <= h,
                    None => horizon.is_some_and(|t| beat_at <= t),
                } && horizon.is_none_or(|t| beat_at <= t);
                if beat_due {
                    self.emit_beat(beat_at, &mut net);
                    continue;
                }
            }
            let Some(h) = head_at else { break };
            if horizon.is_some_and(|t| h > t) {
                break;
            }
            if popped == budget {
                // checked before the pop, so the message that would have
                // exceeded the budget is still queued when the report reads
                // the depth
                out_of_budget = true;
                break;
            }
            let sch = self.queue.pop().expect("peeked");
            popped += 1;
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
            let node_idx = env.to.0 as usize;
            let msg = match env.msg {
                Payload::App(msg) => msg,
                Payload::Ping => {
                    // answered below the app layer: the node is alive, so
                    // a pong heads back (dying at the radio if the link
                    // was severed since the ping crossed)
                    net.stats.charge(ChargeKind::Liveness, env.to, env.from, 1);
                    let deliver_at = *net.now + net.latency.delay(env.to, env.from);
                    if S::ENABLED {
                        net.sink.record(TelemetryEvent::Handled {
                            at: *net.now,
                            from: env.from.0,
                            to: env.to.0,
                            shard: 0,
                            flood: env.flood,
                            deliveries: 0,
                        });
                    }
                    self.schedule(
                        &mut net,
                        env.to,
                        env.from,
                        Payload::Pong,
                        deliver_at,
                        env.flood,
                        TrafficClass::Liveness,
                        1,
                    );
                    continue;
                }
                Payload::Pong => {
                    if let Some(lv) = &mut self.liveness {
                        lv.last_seen.insert((env.to, env.from), sch.deliver_at);
                        if lv.suspected.remove(&(env.to, env.from)) && S::ENABLED {
                            net.sink.record(TelemetryEvent::SuspicionCleared {
                                at: *net.now,
                                by: env.to.0,
                                node: env.from.0,
                            });
                        }
                        if !self.down.contains_key(&env.from) {
                            // a late answer re-admits a falsely confirmed
                            // node — no route was lost, nothing to repair
                            lv.confirmed_ever.remove(&env.from);
                        }
                    }
                    if S::ENABLED {
                        net.sink.record(TelemetryEvent::Handled {
                            at: *net.now,
                            from: env.from.0,
                            to: env.to.0,
                            shard: 0,
                            flood: env.flood,
                            deliveries: 0,
                        });
                    }
                    continue;
                }
            };
            let deliveries_before = net.deliveries.complex_deliveries();
            {
                let mut ctx = Ctx::external(
                    env.to,
                    net.topology.neighbors(env.to),
                    *net.now,
                    &mut outbox,
                    net.deliveries,
                );
                self.nodes[node_idx].on_message(env.from, msg, &mut ctx);
            }
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
            for (to, msg, kind, units) in outbox.drain(..) {
                net.stats.charge(kind, env.to, to, units);
                let deliver_at = *net.now + net.latency.delay(env.to, to);
                // sends inherit the handled message's causal flood id
                self.schedule(
                    &mut net,
                    env.to,
                    to,
                    Payload::App(msg),
                    deliver_at,
                    env.flood,
                    kind.traffic_class(),
                    units,
                );
            }
        }
        net.counts.steps += handled;
        (handled, out_of_budget)
    }

    /// Fire one heartbeat beat at tick `t`: every live node pings every
    /// neighbor (severed links eat the ping at the radio — that absence is
    /// the partition signal), then the suspicion sweep marks every
    /// `(observer, peer)` pair whose last pong is older than the timeout
    /// and confirms nodes all of whose live neighbors suspect them.
    fn emit_beat<S: TelemetrySink>(&mut self, t: u64, net: &mut Net<'_, S>) {
        *net.now = (*net.now).max(t);
        let n = net.topology.len() as u32;
        for a in (0..n).map(NodeId) {
            if self.down.contains_key(&a) {
                continue;
            }
            let neighbors: Vec<NodeId> = net.topology.neighbors(a).to_vec();
            for b in neighbors {
                net.stats.charge(ChargeKind::Liveness, a, b, 1);
                let deliver_at = *net.now + net.latency.delay(a, b);
                let flood = flood_id(0, self.next_seq);
                self.schedule(
                    net,
                    a,
                    b,
                    Payload::Ping,
                    deliver_at,
                    flood,
                    TrafficClass::Liveness,
                    1,
                );
            }
        }
        let lv = self
            .liveness
            .as_mut()
            .expect("beats only fire with liveness on");
        for a in (0..n).map(NodeId) {
            if self.down.contains_key(&a) {
                continue;
            }
            for &b in net.topology.neighbors(a) {
                let seen = lv.last_seen.get(&(a, b)).copied().unwrap_or(lv.enabled_at);
                if t.saturating_sub(seen) > lv.timeout && lv.suspected.insert((a, b)) && S::ENABLED
                {
                    net.sink.record(TelemetryEvent::Suspected {
                        at: t,
                        by: a.0,
                        node: b.0,
                    });
                }
            }
        }
        for x in (0..n).map(NodeId) {
            if lv.confirmed_ever.contains(&x) {
                continue;
            }
            let mut live_neighbors = 0usize;
            let all_suspect = net.topology.neighbors(x).iter().all(|&nb| {
                if self.down.contains_key(&nb) {
                    return true; // corpses cast no vote
                }
                live_neighbors += 1;
                lv.suspected.contains(&(nb, x))
            });
            if live_neighbors > 0 && all_suspect {
                lv.confirmed_ever.insert(x);
                lv.confirmed.push(x);
            }
        }
        lv.next_beat = t + lv.period;
    }
}

#[cfg(test)]
mod tests {
    use crate::tests::{assert_conserved, flood_sim};
    use crate::{builders, LatencyModel, NodeId};

    #[test]
    fn heartbeats_confirm_a_crashed_node_and_clear_false_suspicion() {
        // line 0-1-2: enable liveness, crash n2, drive time past the
        // timeout — n1 (its only live neighbor) must confirm it dead
        let mut sim = flood_sim(builders::line(3), LatencyModel::Zero, 1);
        sim.set_liveness(10, 25);
        sim.crash_and_regraft(NodeId(2), NodeId(1)).unwrap();
        sim.run_until(100);
        assert!(sim.suspicions().contains(&(NodeId(1), NodeId(2))));
        assert_eq!(sim.take_confirmed_dead(), vec![NodeId(2)]);
        assert!(sim.take_confirmed_dead().is_empty(), "drained once");
        // healthy pairs never suspected each other
        assert!(!sim.suspicions().contains(&(NodeId(0), NodeId(1))));
        assert_conserved(&sim, "with heartbeat traffic in the ledger");
        assert!(sim.stats.liveness_msgs() > 0, "heartbeats are charged");
    }

    #[test]
    fn false_suspicion_across_a_severed_link_clears_after_heal() {
        // partition a live leaf: its neighbor falsely confirms it dead;
        // after heal the next pong re-admits it with no state change
        let mut sim = flood_sim(builders::line(3), LatencyModel::Zero, 1);
        sim.set_liveness(10, 25);
        sim.sever_link(NodeId(1), NodeId(2)).unwrap();
        sim.run_until(100);
        assert!(sim.suspicions().contains(&(NodeId(1), NodeId(2))));
        assert!(sim.suspicions().contains(&(NodeId(2), NodeId(1))));
        assert_eq!(
            sim.take_confirmed_dead(),
            vec![NodeId(2)],
            "a severed leaf is indistinguishable from a corpse — the engine \
             layer must intersect with real crash records"
        );
        sim.heal_link(NodeId(1), NodeId(2)).unwrap();
        sim.run_until(200);
        assert!(sim.suspicions().is_empty(), "pongs cleared both directions");
        assert!(sim.take_confirmed_dead().is_empty());
        // suspicion is observation, not mutation: the only thing n2 ever
        // heard is its peer's link-up offer
        assert_eq!(sim.node(NodeId(2)).seen, vec![2001]);
        assert_conserved(&sim, "with heartbeat traffic in the ledger");
    }

    #[test]
    #[should_panic(expected = "requires the single-shard backend")]
    fn heartbeats_are_refused_on_the_shards_discipline() {
        flood_sim(builders::balanced(7, 2), LatencyModel::Zero, 2).set_liveness(10, 25);
    }
}
