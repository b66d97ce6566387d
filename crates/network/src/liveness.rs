//! The heartbeat failure detector, written once for every substrate.
//!
//! [`Detector`] is a pure state machine: it takes no clock, no queue, no
//! lock and no sink. Each substrate drives it with two calls — [`Detector::heard`]
//! when a pong (or a successful probe) gets through, and [`Detector::sweep`]
//! once per beat — and supplies the time `at` on its own axis: the
//! simulator's virtual clock, or the host's probe rounds of `period` units.
//!
//! All bookkeeping is *directed*: `(observer, peer)` is node `observer`'s
//! view of neighbor `peer`. The rules:
//!
//! * a pair is suspected at a sweep when `at − last heard > timeout`; a pair
//!   never heard counts from the time the detector was enabled;
//! * a node is confirmed dead when it has at least one live neighbor and
//!   every live neighbor suspects it (corpses cast no vote);
//! * a pong from a live peer clears the observer's suspicion and re-admits a
//!   confirmed peer, which can then be confirmed again.
//!
//! Suspicion never mutates node or routing state; it only feeds
//! [`Detector::take_confirmed`], which the engine layer intersects with its
//! crash records — a false confirmation (a live leaf behind a severed link)
//! therefore costs nothing, and a later pong re-admits it.

use crate::topology::{NodeId, Topology};
use std::collections::{BTreeMap, BTreeSet};

/// Heartbeat failure-detector state — see the module docs.
#[derive(Debug, Clone)]
pub struct Detector {
    period: u64,
    timeout: u64,
    /// When the detector was enabled: the freshness baseline for pairs
    /// that have never been heard.
    enabled_at: u64,
    /// The next beat: every live node pings every neighbor, then a sweep.
    next_beat: u64,
    /// `(observer, peer)` → the latest time a pong was heard.
    last_heard: BTreeMap<(NodeId, NodeId), u64>,
    /// Directed suspicions currently active.
    suspected: BTreeSet<(NodeId, NodeId)>,
    /// Confirmations not yet drained by [`Self::take_confirmed`].
    confirmed: Vec<NodeId>,
    /// Everything confirmed and not re-admitted since — keeps a dead node
    /// from being re-confirmed every beat.
    confirmed_ever: BTreeSet<NodeId>,
}

impl Detector {
    /// A detector enabled at `now`, beating every `period` with the given
    /// suspicion `timeout`.
    ///
    /// # Panics
    /// Panics when `period` or `timeout` is zero.
    #[must_use]
    pub fn new(period: u64, timeout: u64, now: u64) -> Self {
        assert!(period > 0, "heartbeat period must be positive");
        assert!(timeout > 0, "suspicion timeout must be positive");
        Detector {
            period,
            timeout,
            enabled_at: now,
            next_beat: now + period,
            last_heard: BTreeMap::new(),
            suspected: BTreeSet::new(),
            confirmed: Vec::new(),
            confirmed_ever: BTreeSet::new(),
        }
    }

    /// When the next beat is due; every [`Self::sweep`] moves it one
    /// period past the sweep's time.
    #[must_use]
    pub fn next_beat(&self) -> u64 {
        self.next_beat
    }

    /// `observer` heard a pong from `peer` at `at`. Keeps the latest time
    /// per pair, so the order in which a batch of pongs is applied cannot
    /// change what the next sweep sees. A live peer is re-admitted if it
    /// was confirmed. Returns whether a standing suspicion was cleared.
    pub fn heard(&mut self, observer: NodeId, peer: NodeId, at: u64, peer_live: bool) -> bool {
        let last = self.last_heard.entry((observer, peer)).or_insert(at);
        *last = (*last).max(at);
        if peer_live {
            // a late answer re-admits a falsely confirmed node — no route
            // was lost, nothing to repair
            self.confirmed_ever.remove(&peer);
        }
        self.suspected.remove(&(observer, peer))
    }

    /// The beat's sweep at `at`: suspect every live observer's neighbor not
    /// heard for more than the timeout, then confirm every node all of
    /// whose live neighbors suspect it (drain those with
    /// [`Self::take_confirmed`]). Returns the `(observer, peer)`
    /// suspicions this sweep raised.
    pub fn sweep(
        &mut self,
        at: u64,
        topology: &Topology,
        is_down: impl Fn(NodeId) -> bool,
    ) -> Vec<(NodeId, NodeId)> {
        let mut raised = Vec::new();
        for a in topology.nodes().filter(|&a| !is_down(a)) {
            for &b in topology.neighbors(a) {
                let heard = self.last_heard.get(&(a, b)).copied();
                if at.saturating_sub(heard.unwrap_or(self.enabled_at)) > self.timeout
                    && self.suspected.insert((a, b))
                {
                    raised.push((a, b));
                }
            }
        }
        for x in topology.nodes() {
            if self.confirmed_ever.contains(&x) {
                continue;
            }
            let mut live_neighbors = 0usize;
            let all_suspect = topology.neighbors(x).iter().all(|&nb| {
                if is_down(nb) {
                    return true; // corpses cast no vote
                }
                live_neighbors += 1;
                self.suspected.contains(&(nb, x))
            });
            if live_neighbors > 0 && all_suspect {
                self.confirmed_ever.insert(x);
                self.confirmed.push(x);
            }
        }
        self.next_beat = at + self.period;
        raised
    }

    /// Currently active directed suspicions, `(observer, suspect)` sorted.
    #[must_use]
    pub fn suspicions(&self) -> Vec<(NodeId, NodeId)> {
        self.suspected.iter().copied().collect()
    }

    /// Drain the nodes confirmed dead since the last call.
    pub fn take_confirmed(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.confirmed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::topology::NodeId as N;

    #[test]
    fn elapsed_equal_to_the_timeout_does_not_suspect() {
        let topo = builders::line(2);
        let mut d = Detector::new(10, 20, 0);
        d.heard(N(0), N(1), 5, true);
        d.heard(N(1), N(0), 5, true);
        assert!(d.sweep(25, &topo, |_| false).is_empty());
        assert_eq!(d.next_beat(), 35);
        let raised = d.sweep(26, &topo, |_| false);
        assert_eq!(raised, vec![(N(0), N(1)), (N(1), N(0))]);
        // never-heard pairs count from the enable time
        let mut fresh = Detector::new(10, 20, 100);
        assert!(fresh.sweep(120, &topo, |_| false).is_empty());
        assert_eq!(fresh.sweep(121, &topo, |_| false).len(), 2);
    }

    #[test]
    fn corpses_cast_no_vote_and_a_node_without_live_neighbors_stays_unconfirmed() {
        // star: hub 0, leaves 1..=3; leaf 3 is down
        let topo = builders::star(4);
        let down = |n: NodeId| n == N(3);
        let mut d = Detector::new(10, 5, 0);
        for leaf in [1, 2] {
            d.heard(N(leaf), N(0), 10, true);
            d.heard(N(0), N(leaf), 10, true);
        }
        // the hub keeps hearing both live leaves; leaf 1 alone suspects
        // the hub, and leaf 2 still vouches for it
        for (observer, peer) in [(0, 1), (0, 2), (2, 0)] {
            d.heard(N(observer), N(peer), 20, true);
        }
        assert_eq!(d.sweep(20, &topo, down), vec![(N(0), N(3)), (N(1), N(0))]);
        assert_eq!(d.take_confirmed(), vec![N(3)], "the hub's vote is enough");
        // once leaf 2 falls silent too, the hub is confirmed: the corpse
        // at leaf 3 casts no vote
        for leaf in [1, 2] {
            d.heard(N(0), N(leaf), 30, true);
        }
        assert_eq!(d.sweep(30, &topo, down), vec![(N(2), N(0))]);
        assert_eq!(d.take_confirmed(), vec![N(0)]);
        // a node whose only neighbor is a corpse is never confirmed
        let pair = builders::line(2);
        let mut lone = Detector::new(10, 5, 0);
        assert_eq!(lone.sweep(100, &pair, |n| n == N(1)), vec![(N(0), N(1))]);
        assert_eq!(
            lone.take_confirmed(),
            vec![N(1)],
            "n0's only neighbor is dead: no one can vote on n0"
        );
    }

    #[test]
    fn confirmations_drain_once() {
        let topo = builders::line(3);
        let mut d = Detector::new(10, 25, 0);
        for t in [10, 20, 30, 40] {
            d.heard(N(0), N(1), t, true);
            d.heard(N(1), N(0), t, true);
            d.sweep(t, &topo, |n| n == N(2));
        }
        assert_eq!(d.take_confirmed(), vec![N(2)]);
        assert!(d.take_confirmed().is_empty(), "drained once");
        d.sweep(50, &topo, |n| n == N(2));
        assert!(d.take_confirmed().is_empty(), "latched: never re-confirmed");
    }

    #[test]
    fn a_pong_readmits_the_peer_which_can_be_confirmed_again() {
        let topo = builders::line(2);
        let mut d = Detector::new(10, 15, 0);
        d.sweep(20, &topo, |_| false);
        assert_eq!(d.take_confirmed(), vec![N(0), N(1)]);
        assert!(d.heard(N(0), N(1), 25, true), "the suspicion cleared");
        assert!(!d.heard(N(0), N(1), 25, true), "nothing left to clear");
        assert_eq!(d.suspicions(), vec![(N(1), N(0))]);
        d.sweep(30, &topo, |_| false);
        assert!(d.take_confirmed().is_empty(), "n1 was heard at 25");
        // silent again: n1 is confirmed a second time
        d.sweep(41, &topo, |_| false);
        assert_eq!(d.take_confirmed(), vec![N(1)]);
        // a late pong from a corpse clears the suspicion but re-admits
        // nothing: the corpse is not confirmed again
        assert!(d.heard(N(0), N(1), 45, false));
        d.sweep(61, &topo, |n| n == N(1));
        assert!(d.take_confirmed().is_empty());
    }

    #[test]
    fn out_of_order_pongs_keep_the_latest_time() {
        let topo = builders::line(2);
        let mut d = Detector::new(10, 20, 0);
        d.heard(N(0), N(1), 30, true);
        d.heard(N(0), N(1), 12, true);
        assert_eq!(
            d.sweep(45, &topo, |_| false),
            vec![(N(1), N(0))],
            "n0 heard n1 at 30, not 12"
        );
    }
}
