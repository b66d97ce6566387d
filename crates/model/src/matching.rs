//! Complex-event matching semantics (paper §IV-A).
//!
//! A complex event `E = {e_1, …, e_n}` matches a subscription `s` at time `t`
//! iff:
//!
//! 1. **Completeness** — one simple event per dimension (sensor for
//!    identified, attribute type for abstract subscriptions);
//! 2. each simple event matches the subscription's filter for its dimension;
//! 3. `t = max_i t_i`;
//! 4. `|t − t_i| < δt` for all `i`; and, for abstract subscriptions,
//! 5. `max_{i,j} |p_i − p_j| < δl`.
//!
//! Conditions 3+4 are equivalent to *pairwise* time proximity: every pair of
//! chosen events is strictly within `δt` of each other. Likewise 5 is a
//! pairwise location constraint. [`complex_match`] exploits this.

use crate::{Event, Operator};

/// The outcome of matching a set of candidate events against an operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchOutcome {
    /// Indices (into the input slice) of all events that participate in at
    /// least one valid complex event — the `X_k` of Algorithm 5 line 12.
    /// Sorted ascending, deduplicated.
    pub participants: Vec<usize>,
}

/// Match `events` against `op`, returning every event that participates in
/// at least one complex event satisfying the paper's conditions, or `None`
/// if no complete match exists.
///
/// The input may span any amount of time: windowing (`δt`) and, where
/// present, the spatial correlation distance (`δl`) are enforced here. This
/// makes the function usable both inside Algorithm 5's sliding-window loop
/// (where the caller passes a pre-windowed slice) and as a ground-truth
/// oracle over a whole event log. The slice may hold events, references to
/// them, or anything that lends one (a node's stored event-store entries),
/// so the hot path matches over its borrowed band without copying it.
#[must_use]
pub fn complex_match<E: AsRef<Event>>(events: &[E], op: &Operator) -> Option<MatchOutcome> {
    let mut matcher = Matcher::default();
    matcher.run(events, op)?;
    Some(MatchOutcome {
        participants: matcher.participants,
    })
}

/// The working memory of [`complex_match`], reusable: a caller matching
/// operator after operator ([`Matcher::run`]) allocates only while these
/// buffers grow.
#[derive(Debug, Default)]
pub struct Matcher {
    /// (timestamp, input-index, dim-slot), sorted by time for windowing.
    cands: Vec<(u64, usize, usize)>,
    /// Candidates per dimension slot.
    counts: Vec<usize>,
    /// Inclusive candidate-index ranges of the fully covered windows.
    ranges: Vec<(usize, usize)>,
    participants: Vec<usize>,
}

impl Matcher {
    /// [`complex_match`] into this matcher's buffers: the participants'
    /// indices into `events`, sorted ascending and deduplicated.
    pub fn run<E: AsRef<Event>>(&mut self, events: &[E], op: &Operator) -> Option<&[usize]> {
        // Predicates are sorted by unique dimension, so a predicate's
        // position is its dimension slot.
        let preds = op.predicates();
        if preds.is_empty() {
            return None;
        }

        // An event can only ever belong to one dimension (a sensor has one
        // attribute; dims are unique), so each event appears at most once.
        self.cands.clear();
        self.cands.reserve(events.len());
        self.counts.clear();
        self.counts.resize(preds.len(), 0);
        for (i, e) in events.iter().enumerate() {
            let e = e.as_ref();
            if let Some(slot) = preds.iter().position(|p| p.matches(e, op.region())) {
                self.cands.push((e.timestamp.0, i, slot));
                self.counts[slot] += 1;
            }
        }
        if self.counts.contains(&0) {
            return None;
        }
        self.cands.sort_unstable();

        self.participants.clear();
        match op.delta_l() {
            None => self.match_time_only(op.delta_t()),
            Some(dl) => match_time_and_space(
                events,
                &self.cands,
                preds.len(),
                op.delta_t(),
                dl,
                &mut self.participants,
            ),
        }
        if self.participants.is_empty() {
            return None;
        }
        self.participants.sort_unstable();
        self.participants.dedup();
        Some(&self.participants)
    }

    /// δl = ∞ fast path: slide a window of span `< δt` over the time-sorted
    /// candidates; whenever the window covers all dimensions, every event
    /// inside participates (any per-dimension choice from the window is a
    /// valid complex event). Marked windows are collected as index ranges
    /// and merged, keeping the whole procedure `O(n log n)`.
    fn match_time_only(&mut self, delta_t: u64) {
        let Matcher {
            cands,
            counts,
            ranges,
            participants,
        } = self;
        counts.fill(0);
        ranges.clear();
        let mut covered = 0usize;
        let mut lo = 0usize;
        for hi in 0..cands.len() {
            let slot = cands[hi].2;
            if counts[slot] == 0 {
                covered += 1;
            }
            counts[slot] += 1;
            // strict: |t_max - t_i| < δt  ⇒  keep t_hi - t_lo <= δt - 1
            while cands[hi].0 - cands[lo].0 >= delta_t {
                let s = cands[lo].2;
                counts[s] -= 1;
                if counts[s] == 0 {
                    covered -= 1;
                }
                lo += 1;
            }
            if covered == counts.len() {
                match ranges.last_mut() {
                    Some((_, e)) if lo <= *e + 1 => *e = hi,
                    _ => ranges.push((lo, hi)),
                }
            }
        }
        for &(s, e) in ranges.iter() {
            participants.extend(cands[s..=e].iter().map(|c| c.1));
        }
    }
}

/// Finite-δl path: for each candidate event, decide by backtracking whether
/// a complete selection containing it exists (pairwise time *and* location
/// constraints). Exponential in the worst case but bounded by
/// `MAX_BACKTRACK_STEPS`; δl-constrained subscriptions are rare and their
/// per-window candidate sets small.
fn match_time_and_space<E: AsRef<Event>>(
    events: &[E],
    cands: &[(u64, usize, usize)],
    ndims: usize,
    delta_t: u64,
    delta_l: f64,
    participants: &mut Vec<usize>,
) {
    const MAX_BACKTRACK_STEPS: usize = 1 << 20;

    let mut per_dim: Vec<Vec<usize>> = vec![Vec::new(); ndims]; // input indices
    for &(_, idx, slot) in cands {
        per_dim[slot].push(idx);
    }

    let compatible = |a: usize, b: usize| -> bool {
        let (ea, eb) = (events[a].as_ref(), events[b].as_ref());
        ea.timestamp.abs_diff(eb.timestamp) < delta_t
            && ea.location.distance(&eb.location) < delta_l
    };

    #[allow(clippy::too_many_arguments)] // recursive backtracking state
    fn search(
        per_dim: &[Vec<usize>],
        chosen: &mut Vec<usize>,
        slot: usize,
        fixed_slot: usize,
        fixed_idx: usize,
        steps: &mut usize,
        budget: usize,
        compatible: &dyn Fn(usize, usize) -> bool,
    ) -> bool {
        if *steps >= budget {
            return false;
        }
        *steps += 1;
        if slot == per_dim.len() {
            return true;
        }
        let options: &[usize] = if slot == fixed_slot {
            std::slice::from_ref(&fixed_idx)
        } else {
            &per_dim[slot]
        };
        for &cand in options {
            if chosen.iter().all(|&c| compatible(c, cand)) {
                chosen.push(cand);
                if search(
                    per_dim,
                    chosen,
                    slot + 1,
                    fixed_slot,
                    fixed_idx,
                    steps,
                    budget,
                    compatible,
                ) {
                    chosen.pop();
                    return true;
                }
                chosen.pop();
            }
        }
        false
    }

    let mut steps = 0usize;
    for (slot, members) in per_dim.iter().enumerate() {
        for &idx in members {
            let mut chosen = Vec::with_capacity(ndims);
            if search(
                &per_dim,
                &mut chosen,
                0,
                slot,
                idx,
                &mut steps,
                MAX_BACKTRACK_STEPS,
                &compatible,
            ) {
                participants.push(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        AttrId, EventId, Point, Rect, Region, SensorId, SubId, Subscription, Timestamp, ValueRange,
    };

    fn ev(id: u64, sensor: u32, attr: u16, v: f64, t: u64, x: f64) -> Event {
        Event {
            id: EventId(id),
            sensor: SensorId(sensor),
            attr: AttrId(attr),
            location: Point::new(x, 0.0),
            value: v,
            timestamp: Timestamp(t),
        }
    }

    fn op_ab(delta_t: u64) -> Operator {
        let s = Subscription::identified(
            SubId(1),
            [
                (SensorId(1), ValueRange::new(0.0, 10.0)),
                (SensorId(2), ValueRange::new(0.0, 10.0)),
            ],
            delta_t,
        )
        .unwrap();
        Operator::from_subscription(&s)
    }

    #[test]
    fn incomplete_dimension_fails() {
        let e1 = ev(1, 1, 0, 5.0, 100, 0.0);
        let op = op_ab(30);
        assert!(complex_match(&[&e1], &op).is_none());
    }

    #[test]
    fn complete_within_window_matches() {
        let e1 = ev(1, 1, 0, 5.0, 100, 0.0);
        let e2 = ev(2, 2, 0, 5.0, 110, 0.0);
        let op = op_ab(30);
        let m = complex_match(&[&e1, &e2], &op).unwrap();
        assert_eq!(m.participants, vec![0, 1]);
    }

    #[test]
    fn window_boundary_is_strict() {
        // |t - t_i| < δt: span of exactly δt must NOT match
        let e1 = ev(1, 1, 0, 5.0, 100, 0.0);
        let e2 = ev(2, 2, 0, 5.0, 130, 0.0);
        let op = op_ab(30);
        assert!(
            complex_match(&[&e1, &e2], &op).is_none(),
            "span == δt is out"
        );
        let e3 = ev(3, 2, 0, 5.0, 129, 0.0);
        assert!(
            complex_match(&[&e1, &e3], &op).is_some(),
            "span == δt-1 is in"
        );
    }

    #[test]
    fn value_filter_excludes_events() {
        let e1 = ev(1, 1, 0, 50.0, 100, 0.0); // out of range
        let e2 = ev(2, 2, 0, 5.0, 101, 0.0);
        let op = op_ab(30);
        assert!(complex_match(&[&e1, &e2], &op).is_none());
    }

    #[test]
    fn participants_exclude_out_of_window_extras() {
        // two matching windows separated by a gap; the lone middle event of
        // sensor 1 has no partner in range
        let op = op_ab(10);
        let events = [
            ev(1, 1, 0, 5.0, 100, 0.0),
            ev(2, 2, 0, 5.0, 105, 0.0),
            ev(3, 1, 0, 5.0, 200, 0.0), // isolated
            ev(4, 1, 0, 5.0, 300, 0.0),
            ev(5, 2, 0, 5.0, 301, 0.0),
        ];
        let refs: Vec<&Event> = events.iter().collect();
        let m = complex_match(&refs, &op).unwrap();
        assert_eq!(m.participants, vec![0, 1, 3, 4]);
    }

    #[test]
    fn multiple_candidates_per_dim_all_participate() {
        let op = op_ab(30);
        let events = [
            ev(1, 1, 0, 5.0, 100, 0.0),
            ev(2, 1, 0, 6.0, 105, 0.0),
            ev(3, 2, 0, 5.0, 110, 0.0),
        ];
        let refs: Vec<&Event> = events.iter().collect();
        let m = complex_match(&refs, &op).unwrap();
        assert_eq!(m.participants, vec![0, 1, 2]);
    }

    #[test]
    fn abstract_matching_with_delta_l() {
        // two attrs; events for attr 1 at x=0 and x=100, event for attr 2 at x=5.
        // δl = 20 admits only the x=0 partner.
        let region = Region::Rect(Rect::new(
            Point::new(-1000.0, -10.0),
            Point::new(1000.0, 10.0),
        ));
        let s = Subscription::abstract_over(
            SubId(1),
            [
                (AttrId(0), ValueRange::new(0.0, 10.0)),
                (AttrId(1), ValueRange::new(0.0, 10.0)),
            ],
            region,
            30,
            Some(20.0),
        )
        .unwrap();
        let op = Operator::from_subscription(&s);
        let events = [
            ev(1, 1, 0, 5.0, 100, 0.0),
            ev(2, 2, 0, 5.0, 100, 100.0),
            ev(3, 3, 1, 5.0, 105, 5.0),
        ];
        let refs: Vec<&Event> = events.iter().collect();
        let m = complex_match(&refs, &op).unwrap();
        assert_eq!(
            m.participants,
            vec![0, 2],
            "far-away attr-0 event excluded by δl"
        );
    }

    #[test]
    fn delta_l_unsatisfiable_fails() {
        let region = Region::All;
        let s = Subscription::abstract_over(
            SubId(1),
            [
                (AttrId(0), ValueRange::new(0.0, 10.0)),
                (AttrId(1), ValueRange::new(0.0, 10.0)),
            ],
            region,
            30,
            Some(5.0),
        )
        .unwrap();
        let op = Operator::from_subscription(&s);
        let events = [ev(1, 1, 0, 5.0, 100, 0.0), ev(2, 2, 1, 5.0, 100, 100.0)];
        let refs: Vec<&Event> = events.iter().collect();
        assert!(complex_match(&refs, &op).is_none());
    }

    #[test]
    fn oracle_use_whole_log() {
        // complex_match over an unwindowed log finds all participating events
        let op = op_ab(10);
        let mut events = Vec::new();
        let mut id = 0;
        for t in (0..100).step_by(7) {
            id += 1;
            events.push(ev(id, 1, 0, 5.0, t, 0.0));
            id += 1;
            events.push(ev(id, 2, 0, 5.0, t + 3, 0.0));
        }
        let refs: Vec<&Event> = events.iter().collect();
        let m = complex_match(&refs, &op).unwrap();
        // every reading pairs with its +3 partner (3 < 10)
        assert_eq!(m.participants.len(), events.len());
    }
}
