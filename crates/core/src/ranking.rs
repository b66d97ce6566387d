//! Top-k ranked event forwarding — the paper's §VII outlook implemented.
//!
//! "As future work, we will have a look at ranking batches of events, for
//! more efficient event propagation, focusing only on the top-ranked items.
//! This is in particular interesting for subscription queries posed by users
//! with large numbers of matching events."
//!
//! [`RankPolicy::TopK`] caps, per processed event and per outgoing link, how
//! many newly-matching result events are forwarded, preferring the freshest
//! measurements. Capped-out events are *not* marked as sent, so they may
//! still be forwarded by a later matching round; if no such round happens
//! they are dropped — trading recall for traffic, which the `ext1` benchmark
//! quantifies.

use fsf_model::Event;

/// How a node ranks and caps result events per forwarding round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankPolicy {
    /// Forward every newly-matching event (the paper's main algorithms).
    #[default]
    All,
    /// Forward at most `k` events per (incoming event, link) round, ranked
    /// by recency (newest timestamp first, larger id breaking ties).
    TopK(usize),
}

impl RankPolicy {
    /// Apply the policy in place: sort candidates by rank and truncate.
    ///
    /// The input is the batch of *new* (not-yet-sent) matching events for
    /// one link; what is left is what actually gets forwarded/marked.
    pub fn select<E: AsRef<Event>>(&self, candidates: &mut Vec<E>) {
        if let RankPolicy::TopK(k) = *self {
            let rank = |e: &E| std::cmp::Reverse((e.as_ref().timestamp, e.as_ref().id));
            candidates.sort_by_key(rank);
            candidates.truncate(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsf_model::{AttrId, EventId, Point, SensorId, Timestamp};

    fn select(policy: RankPolicy, mut batch: Vec<Event>) -> Vec<Event> {
        policy.select(&mut batch);
        batch
    }

    fn ev(id: u64, t: u64) -> Event {
        Event {
            id: EventId(id),
            sensor: SensorId(1),
            attr: AttrId(0),
            location: Point::new(0.0, 0.0),
            value: 0.0,
            timestamp: Timestamp(t),
        }
    }

    #[test]
    fn all_policy_keeps_everything_in_order() {
        let batch = vec![ev(1, 10), ev(2, 30), ev(3, 20)];
        let out = select(RankPolicy::All, batch.clone());
        assert_eq!(out, batch);
    }

    #[test]
    fn topk_keeps_newest() {
        let out = select(RankPolicy::TopK(2), vec![ev(1, 10), ev(2, 30), ev(3, 20)]);
        assert_eq!(out.iter().map(|e| e.id.0).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn topk_breaks_timestamp_ties_by_id() {
        let out = select(RankPolicy::TopK(1), vec![ev(1, 10), ev(5, 10), ev(3, 10)]);
        assert_eq!(out[0].id.0, 5);
    }

    #[test]
    fn topk_zero_drops_all_and_oversized_k_keeps_all() {
        assert!(select(RankPolicy::TopK(0), vec![ev(1, 10)]).is_empty());
        assert_eq!(
            select(RankPolicy::TopK(10), vec![ev(1, 10), ev(2, 20)]).len(),
            2
        );
    }
}
