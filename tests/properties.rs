//! Property-based tests over the core data structures and invariants.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these run each property over many seeded-random cases drawn from the
//! vendored [`rand`] shim — fully deterministic, one distinct seed per case.

use fsf::model::{
    complex_match, AttrId, Event, EventId, Operator, Point, SensorId, SubId, Subscription,
    Timestamp, ValueRange,
};
use fsf::network::{builders, NodeId, Topology};
use fsf::subsumption::exact::{is_covered as exact_cover, HyperBox};
use fsf::subsumption::monte_carlo;
use fsf::subsumption::pairwise;
use fsf::subsumption::CoverShape;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------- generators ----------

fn gen_range(rng: &mut StdRng) -> ValueRange {
    let lo = rng.gen_range(-100.0..100.0);
    let w = rng.gen_range(0.0..80.0);
    ValueRange::new(lo, lo + w)
}

fn gen_op(rng: &mut StdRng, max_arity: usize) -> Operator {
    let arity = rng.gen_range(1..=max_arity);
    let filters: Vec<(SensorId, ValueRange)> = (0..arity)
        .map(|i| (SensorId(i as u32), gen_range(rng)))
        .collect();
    Operator::from_subscription(&Subscription::identified(SubId(1), filters, 30).unwrap())
}

fn gen_events(rng: &mut StdRng, n: usize, sensors: u32) -> Vec<Event> {
    let count = rng.gen_range(1..=n);
    (0..count)
        .map(|i| {
            let sensor = rng.gen_range(0..sensors);
            Event {
                id: EventId(i as u64),
                sensor: SensorId(sensor),
                attr: AttrId(sensor as u16),
                location: Point::new(0.0, 0.0),
                value: rng.gen_range(-100.0..100.0),
                timestamp: Timestamp(1_000 + rng.gen_range(0u64..300)),
            }
        })
        .collect()
}

/// Run `body` once per case, each with its own deterministic generator.
/// `salt` decorrelates tests that share a generator-call prefix.
fn cases(salt: u64, n: u64, mut body: impl FnMut(&mut StdRng)) {
    for case in 0..n {
        let mut rng = StdRng::seed_from_u64(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case);
        body(&mut rng);
    }
}

// ---------- value ranges ----------

#[test]
fn range_contains_its_endpoints_and_center() {
    cases(0, 256, |rng| {
        let r = gen_range(rng);
        assert!(r.contains(r.min()));
        assert!(r.contains(r.max()));
        assert!(r.contains(r.center()));
    });
}

#[test]
fn range_intersection_is_commutative_and_contained() {
    cases(1, 256, |rng| {
        let a = gen_range(rng);
        let b = gen_range(rng);
        let ab = a.intersection(&b);
        let ba = b.intersection(&a);
        assert_eq!(ab, ba);
        if let Some(i) = ab {
            assert!(a.contains_range(&i));
            assert!(b.contains_range(&i));
        } else {
            assert!(!a.intersects(&b));
        }
    });
}

#[test]
fn containment_is_transitive() {
    cases(2, 256, |rng| {
        let a = gen_range(rng);
        let b = gen_range(rng);
        let c = gen_range(rng);
        if a.contains_range(&b) && b.contains_range(&c) {
            assert!(a.contains_range(&c));
        }
    });
}

// ---------- matching ----------

/// Every participant returned by complex_match satisfies the operator's
/// value filter for its dimension.
#[test]
fn participants_always_match_their_filter() {
    cases(3, 128, |rng| {
        let op = gen_op(rng, 3);
        let events = gen_events(rng, 24, 3);
        let refs: Vec<&Event> = events.iter().collect();
        if let Some(m) = complex_match(&refs, &op) {
            for &i in &m.participants {
                assert!(
                    op.matches_simple(refs[i]),
                    "participant {i} fails the filter"
                );
            }
        }
    });
}

/// Adding more events never removes participants (monotonicity).
#[test]
fn matching_is_monotone_in_the_event_set() {
    cases(4, 128, |rng| {
        let op = gen_op(rng, 3);
        let events = gen_events(rng, 20, 3);
        let extra = gen_events(rng, 6, 3);
        let refs: Vec<&Event> = events.iter().collect();
        let before: Vec<EventId> = complex_match(&refs, &op)
            .map(|m| m.participants.iter().map(|&i| refs[i].id).collect())
            .unwrap_or_default();
        // re-id the extra events to avoid collisions
        let extra: Vec<Event> = extra
            .into_iter()
            .enumerate()
            .map(|(i, mut e)| {
                e.id = EventId(1_000 + i as u64);
                e
            })
            .collect();
        let mut all = events.clone();
        all.extend(extra);
        let all_refs: Vec<&Event> = all.iter().collect();
        let after: Vec<EventId> = complex_match(&all_refs, &op)
            .map(|m| m.participants.iter().map(|&i| all_refs[i].id).collect())
            .unwrap_or_default();
        for id in before {
            assert!(after.contains(&id), "participant {id:?} vanished");
        }
    });
}

/// Participants of any match lie within strict δt of some co-participant
/// set covering all dimensions (weak window check: participant events
/// must have a complete dimension cover within ±δt).
#[test]
fn participants_have_complete_windows() {
    cases(5, 128, |rng| {
        let op = gen_op(rng, 3);
        let events = gen_events(rng, 24, 3);
        let refs: Vec<&Event> = events.iter().collect();
        if let Some(m) = complex_match(&refs, &op) {
            let dims: Vec<_> = op.dims().collect();
            for &i in &m.participants {
                let t = refs[i].timestamp;
                for d in &dims {
                    let found = refs.iter().any(|e| {
                        e.timestamp.abs_diff(t) < op.delta_t()
                            && op
                                .predicate_for(d)
                                .is_some_and(|p| p.matches(e, op.region()))
                    });
                    assert!(found, "no {d} partner within δt of participant {i}");
                }
            }
        }
    });
}

// ---------- subsumption ----------

/// Pairwise coverage implies exact box cover implies Monte-Carlo cover.
#[test]
fn coverage_checkers_form_a_hierarchy() {
    cases(6, 96, |rng| {
        let target = gen_op(rng, 2);
        let wide = gen_op(rng, 2);
        if wide.signature() != target.signature() {
            return;
        }
        let pw = pairwise::covers(&wide, &target);
        let tb = HyperBox::from_operator(&target).unwrap();
        let wb = HyperBox::from_operator(&wide).unwrap();
        let exact = exact_cover(&tb, std::slice::from_ref(&wb)).unwrap();
        assert!(
            !pw || exact,
            "pairwise cover not confirmed by exact checker"
        );
        if exact {
            let ts = CoverShape::from_operator(&target);
            let ws = CoverShape::from_operator(&wide);
            let mut mc_rng = StdRng::seed_from_u64(7);
            assert!(
                monte_carlo::is_covered(&ts, &[ws], 200, &mut mc_rng),
                "MC denied a true single cover"
            );
        }
    });
}

/// The exact checker agrees with random point sampling: if covered, no
/// sampled point of the target escapes the union.
#[test]
fn exact_cover_means_no_escaping_points() {
    cases(7, 96, |rng| {
        let target = gen_op(rng, 2);
        let members: Vec<Operator> = (0..rng.gen_range(1..4)).map(|_| gen_op(rng, 2)).collect();
        let same_sig: Vec<&Operator> = members
            .iter()
            .filter(|m| m.signature() == target.signature())
            .collect();
        if same_sig.is_empty() {
            return;
        }
        let tb = HyperBox::from_operator(&target).unwrap();
        let mb: Vec<HyperBox> = same_sig
            .iter()
            .map(|m| HyperBox::from_operator(m).unwrap())
            .collect();
        if exact_cover(&tb, &mb).unwrap() {
            let ts = CoverShape::from_operator(&target);
            let shapes: Vec<CoverShape> = same_sig
                .iter()
                .map(|m| CoverShape::from_operator(m))
                .collect();
            let mut mc_rng = StdRng::seed_from_u64(11);
            for _ in 0..200 {
                let p = ts.sample(&mut mc_rng).unwrap();
                assert!(
                    shapes.iter().any(|s| s.contains(&p)),
                    "sampled point escaped a supposedly-covered target"
                );
            }
        }
    });
}

/// Coverage is preserved by projection: if wide covers narrow on the
/// full signature, each shared projection also covers.
#[test]
fn coverage_survives_projection() {
    cases(8, 96, |rng| {
        let narrow = gen_op(rng, 3);
        let grow = rng.gen_range(0.0..20.0);
        // build a genuinely covering wide operator
        let filters: Vec<(SensorId, ValueRange)> = narrow
            .predicates()
            .iter()
            .map(|p| {
                let fsf::model::DimKey::Sensor(d) = p.key else {
                    unreachable!()
                };
                (
                    d,
                    ValueRange::new(p.range.min() - grow, p.range.max() + grow),
                )
            })
            .collect();
        let wide =
            Operator::from_subscription(&Subscription::identified(SubId(2), filters, 30).unwrap());
        assert!(pairwise::covers(&wide, &narrow));
        let dims: Vec<_> = narrow.dims().collect();
        for keep_n in 1..=dims.len() {
            let keep: std::collections::BTreeSet<_> = dims.iter().take(keep_n).copied().collect();
            let (pw, pn) = (wide.project(&keep).unwrap(), narrow.project(&keep).unwrap());
            assert!(pairwise::covers(&pw, &pn), "projection broke coverage");
        }
    });
}

// ---------- topology ----------

#[test]
fn random_tree_paths_are_valid_and_symmetric() {
    cases(9, 64, |rng| {
        let n = rng.gen_range(2usize..60);
        let a_raw = rng.gen_range(0u32..60);
        let b_raw = rng.gen_range(0u32..60);
        let t = builders::random_tree(n, rng);
        let a = NodeId(a_raw % n as u32);
        let b = NodeId(b_raw % n as u32);
        let path = t.path(a, b);
        assert_eq!(*path.first().unwrap(), a);
        assert_eq!(*path.last().unwrap(), b);
        for w in path.windows(2) {
            assert!(t.neighbors(w[0]).contains(&w[1]), "path uses a non-edge");
        }
        assert_eq!(t.distance(a, b), t.distance(b, a));
        // unique nodes on a tree path
        let mut dedup = path.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), path.len());
    });
}

#[test]
fn regraft_properties_over_random_trees() {
    cases(21, 64, |rng| {
        let n = rng.gen_range(3usize..48);
        let t = builders::random_tree(n, rng);
        let crashed = NodeId(rng.gen_range(0u32..n as u32));
        let nbrs = t.neighbors(crashed).to_vec();
        let anchor = nbrs[rng.gen_range(0..nbrs.len())];
        let (r, delta) = t.regraft_with_delta(crashed, anchor).unwrap();
        // same node set; the corpse hangs off the anchor as a leaf
        assert_eq!(r.len(), t.len());
        assert_eq!(r.neighbors(crashed), &[anchor]);
        // the delta's orphans all re-anchored
        for o in &delta.orphans {
            assert!(r.neighbors(anchor).contains(o), "orphan not re-anchored");
        }
        // every survivor stays reachable without traversing the corpse
        let d = r.distances_from(anchor);
        for v in r.nodes() {
            assert_ne!(d[v.0 as usize], usize::MAX, "regraft disconnected {v}");
        }
        for _ in 0..8 {
            let a = NodeId(rng.gen_range(0u32..n as u32));
            let b = NodeId(rng.gen_range(0u32..n as u32));
            if a == crashed || b == crashed {
                continue;
            }
            assert!(
                !r.path(a, b).contains(&crashed),
                "survivor path crosses the corpse"
            );
        }
        // cascading crash: the regraft target itself crashes next — the
        // first corpse is among its orphans and must re-anchor again
        let next = r
            .neighbors(anchor)
            .iter()
            .copied()
            .find(|&x| x != crashed)
            .expect("n >= 3 leaves the anchor a live neighbor");
        let r2 = r.regraft(anchor, next).unwrap();
        assert_eq!(r2.neighbors(anchor), &[next]);
        let d2 = r2.distances_from(next);
        for v in r2.nodes() {
            assert_ne!(d2[v.0 as usize], usize::MAX, "cascade disconnected {v}");
        }
        for _ in 0..8 {
            let a = NodeId(rng.gen_range(0u32..n as u32));
            let b = NodeId(rng.gen_range(0u32..n as u32));
            if [a, b].iter().any(|&x| x == crashed || x == anchor) {
                continue;
            }
            let path = r2.path(a, b);
            assert!(
                !path.contains(&crashed) && !path.contains(&anchor),
                "survivor path crosses a corpse after the cascade"
            );
        }
    });
}

#[test]
fn regrafting_the_roots_child_rehangs_its_subtrees_on_the_root() {
    // balanced(15): root 0 with children 1, 2; node 1's subtrees re-hang
    // directly on the root when 1 crashes onto it
    let t = builders::balanced(15, 2);
    let (r, delta) = t.regraft_with_delta(NodeId(1), NodeId(0)).unwrap();
    assert_eq!(delta.orphans, vec![NodeId(3), NodeId(4)]);
    assert_eq!(
        r.neighbors(NodeId(0)),
        &[NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
    );
    for a in r.nodes() {
        for b in r.nodes() {
            if a == NodeId(1) || b == NodeId(1) || a == b {
                continue;
            }
            assert!(
                !r.path(a, b).contains(&NodeId(1)),
                "{a}→{b} uses the corpse"
            );
        }
    }
}

#[test]
fn median_minimises_total_distance() {
    cases(10, 64, |rng| {
        let n = rng.gen_range(2usize..40);
        let t = builders::random_tree(n, rng);
        let median = t.median();
        let cost = |v: NodeId| t.distances_from(v).iter().sum::<usize>();
        let best = cost(median);
        for v in t.nodes() {
            assert!(best <= cost(v), "median {median} beaten by {v}");
        }
    });
}

#[test]
fn parents_toward_root_shorten_distance() {
    cases(11, 64, |rng| {
        let n = rng.gen_range(2usize..40);
        let root_raw = rng.gen_range(0u32..40);
        let t = builders::random_tree(n, rng);
        let root = NodeId(root_raw % n as u32);
        let parents = t.parents_toward(root);
        for v in t.nodes() {
            if v == root {
                assert_eq!(parents[v.0 as usize], None);
            } else {
                let p = parents[v.0 as usize].unwrap();
                assert_eq!(t.distance(p, root) + 1, t.distance(v, root));
            }
        }
    });
}

// ---------- event store ----------

#[test]
fn event_store_window_equals_brute_force() {
    cases(12, 64, |rng| {
        use fsf::core::events::EventStore;
        let events = gen_events(rng, 40, 5);
        let lo = rng.gen_range(900u64..1400);
        let width = rng.gen_range(0u64..200);
        let mut store = EventStore::new(1 << 30);
        let mut inserted: Vec<Event> = Vec::new();
        for e in &events {
            if store.insert(*e) {
                inserted.push(*e);
            }
        }
        let hi = lo + width;
        let got: Vec<EventId> = store
            .window(Timestamp(lo), Timestamp(hi))
            .iter()
            .map(|e| e.id)
            .collect();
        let mut want: Vec<EventId> = inserted
            .iter()
            .filter(|e| e.timestamp.0 >= lo && e.timestamp.0 <= hi)
            .map(|e| e.id)
            .collect();
        want.sort_by_key(|id| {
            let e = inserted.iter().find(|e| e.id == *id).unwrap();
            (e.timestamp, e.id)
        });
        assert_eq!(got, want);
    });
}

#[test]
fn event_store_expiry_keeps_only_the_validity_horizon() {
    cases(13, 64, |rng| {
        use fsf::core::events::EventStore;
        let times: Vec<u64> = (0..rng.gen_range(1..50))
            .map(|_| rng.gen_range(0u64..10_000))
            .collect();
        let mut store = EventStore::new(100);
        let mut max_seen = 0u64;
        for (i, t) in times.iter().enumerate() {
            store.insert(Event {
                id: EventId(i as u64),
                sensor: SensorId(0),
                attr: AttrId(0),
                location: Point::new(0.0, 0.0),
                value: 0.0,
                timestamp: Timestamp(*t),
            });
            max_seen = max_seen.max(*t);
        }
        let cutoff = max_seen.saturating_sub(100);
        for e in store.window(Timestamp(0), Timestamp(u64::MAX)) {
            assert!(e.timestamp.0 >= cutoff, "expired event survived");
        }
    });
}

/// The event store against a naive `Vec` model, operation by operation:
/// inserts (fresh, duplicate, stale), validity expiry, `remove_sensor`,
/// `mark_sent` / `was_sent`, and the correlation band's contents *and
/// order* (timestamp, then insertion).
#[test]
fn event_store_matches_a_naive_vec_model() {
    use fsf::core::events::{EventStore, SentScope};

    struct Model {
        /// (event, scopes it was marked under), in insertion order.
        entries: Vec<(Event, Vec<SentScope>)>,
        validity: u64,
        max_seen: u64,
    }
    impl Model {
        fn insert(&mut self, e: Event) -> bool {
            if e.timestamp.0 + self.validity <= self.max_seen
                || self.entries.iter().any(|(x, _)| x.id == e.id)
            {
                return false;
            }
            self.max_seen = self.max_seen.max(e.timestamp.0);
            self.entries.push((e, Vec::new()));
            let cutoff = self.max_seen.saturating_sub(self.validity);
            self.entries.retain(|(x, _)| x.timestamp.0 >= cutoff);
            true
        }
        fn band(&self, t: u64, delta_t: u64) -> Vec<EventId> {
            let reach = delta_t.saturating_sub(1);
            let mut hits: Vec<&Event> = self
                .entries
                .iter()
                .map(|(e, _)| e)
                .filter(|e| e.timestamp.0 >= t.saturating_sub(reach) && e.timestamp.0 <= t + reach)
                .collect();
            hits.sort_by_key(|e| e.timestamp); // stable: insertion order within a timestamp
            hits.iter().map(|e| e.id).collect()
        }
    }

    cases(14, 48, |rng| {
        let validity = rng.gen_range(20u64..120);
        let mut store = EventStore::new(validity);
        let mut model = Model {
            entries: Vec::new(),
            validity,
            max_seen: 0,
        };
        let scopes = [
            SentScope::Link(NodeId(1)),
            SentScope::Link(NodeId(2)),
            SentScope::LocalSub(SubId(7)),
        ];
        let mut clock = 1_000u64;
        for step in 0..400u64 {
            match rng.gen_range(0..10) {
                0..=5 => {
                    // mostly forward in time, ids descending within a burst
                    // and sometimes reused, so neither order nor freshness
                    // comes for free
                    clock += rng.gen_range(0u64..4);
                    let back = rng.gen_range(0u64..(2 * validity));
                    let e = Event {
                        id: EventId(if rng.gen_bool(0.1) {
                            rng.gen_range(0..step + 1)
                        } else {
                            10_000 - step
                        }),
                        sensor: SensorId(rng.gen_range(0..5)),
                        attr: AttrId(0),
                        location: Point::new(0.0, 0.0),
                        value: 0.0,
                        timestamp: Timestamp(if rng.gen_bool(0.2) {
                            clock.saturating_sub(back)
                        } else {
                            clock
                        }),
                    };
                    assert_eq!(store.insert(e), model.insert(e), "insert {e:?}");
                }
                6 => {
                    let sensor = SensorId(rng.gen_range(0..5));
                    let before = model.entries.len();
                    model.entries.retain(|(e, _)| e.sensor != sensor);
                    assert_eq!(store.remove_sensor(sensor), before - model.entries.len());
                }
                7 | 8 => {
                    if !model.entries.is_empty() {
                        let at = rng.gen_range(0..model.entries.len());
                        let scope = scopes[rng.gen_range(0..scopes.len())].clone();
                        let (e, sent) = &mut model.entries[at];
                        store.mark_sent(e.id, &scope);
                        if !sent.contains(&scope) {
                            sent.push(scope);
                        }
                    }
                    // an unknown id is ignored
                    store.mark_sent(EventId(u64::MAX), &scopes[0]);
                }
                _ => {
                    let t = clock.saturating_sub(rng.gen_range(0u64..validity));
                    let delta_t = rng.gen_range(1u64..validity);
                    let got: Vec<EventId> = store
                        .correlation_band(Timestamp(t), delta_t)
                        .iter()
                        .map(|s| s.event().id)
                        .collect();
                    assert_eq!(got, model.band(t, delta_t), "band at {t} ± {delta_t}");
                }
            }
            assert_eq!(store.len(), model.entries.len());
            for (e, sent) in &model.entries {
                assert_eq!(store.get(e.id), Some(e));
                for scope in &scopes {
                    assert_eq!(store.was_sent(e.id, scope), sent.contains(scope));
                }
            }
        }
        let all: Vec<EventId> = store
            .window(Timestamp(0), Timestamp(u64::MAX))
            .iter()
            .map(|e| e.id)
            .collect();
        assert_eq!(all, model.band(0, u64::MAX));
    });
}

// ---------- churn interleavings ----------

/// A small random deployment driven through the `Engine` facade: `n`-node
/// random tree, two sensors, a pool of subscriptions over them.
fn churn_setup(
    rng: &mut StdRng,
    kind: fsf::engines::EngineKind,
) -> (Box<dyn fsf::engines::Engine>, Vec<NodeId>) {
    use fsf::model::{Advertisement, AttrId, Point};
    let n = rng.gen_range(4usize..24);
    let topo = builders::random_tree(n, rng);
    let nodes: Vec<NodeId> = topo.nodes().collect();
    let mut engine = kind.build(topo, 60, 7);
    for s in [1u32, 2] {
        let host = nodes[rng.gen_range(0..nodes.len())];
        engine.inject_sensor(
            host,
            Advertisement {
                sensor: SensorId(s),
                attr: AttrId(s as u16),
                location: Point::new(0.0, 0.0),
            },
        );
        engine.flush();
    }
    (engine, nodes)
}

fn churn_sub(rng: &mut StdRng, id: u64) -> Subscription {
    let arity = rng.gen_range(1..=2usize);
    let filters: Vec<(SensorId, ValueRange)> = (1..=arity as u32)
        .map(|s| {
            let lo = rng.gen_range(-50.0..30.0);
            (
                SensorId(s),
                ValueRange::new(lo, lo + rng.gen_range(10.0..60.0)),
            )
        })
        .collect();
    Subscription::identified(SubId(id), filters, 30).unwrap()
}

/// Unsubscribe and sensor-down are idempotent at quiescence: replaying the
/// same retraction changes neither traffic nor any node's state footprint
/// (distributed engines; the centralized baseline re-pays relay transit by
/// design, like its blind event streaming).
#[test]
fn retraction_is_idempotent_across_random_interleavings() {
    use fsf::model::{AttrId, Point};
    cases(14, 24, |rng| {
        for kind in fsf::engines::EngineKind::DISTRIBUTED {
            let (mut engine, nodes) = churn_setup(rng, kind);
            let user = nodes[rng.gen_range(0..nodes.len())];
            engine.inject_subscription(user, churn_sub(rng, 1));
            engine.flush();
            let publisher = nodes[rng.gen_range(0..nodes.len())];
            engine.inject_event(
                publisher,
                Event {
                    id: EventId(100),
                    sensor: SensorId(1),
                    attr: AttrId(1),
                    location: Point::new(0.0, 0.0),
                    value: 0.0,
                    timestamp: Timestamp(1_000),
                },
            );
            engine.flush();
            // one of the two retractions, drawn at random, applied twice
            let retract = |e: &mut dyn fsf::engines::Engine, which: bool| {
                if which {
                    e.retract_subscription(user, SubId(1));
                } else {
                    e.retract_sensor(publisher, SensorId(1));
                }
            };
            let which = rng.gen::<bool>();
            retract(engine.as_mut(), which);
            engine.flush();
            let stats = engine.stats().clone();
            let footprint = engine.footprint();
            retract(engine.as_mut(), which);
            engine.flush();
            assert_eq!(engine.stats(), &stats, "{kind}: traffic changed");
            assert_eq!(engine.footprint(), footprint, "{kind}: state changed");
        }
    });
}

/// Re-subscribing after a retraction behaves like a fresh subscription:
/// an engine that went subscribe → unsubscribe → subscribe delivers exactly
/// what an engine that only saw the final subscribe delivers (events in a
/// fresh epoch, > δt after the churn).
#[test]
fn resubscription_after_retraction_behaves_like_fresh() {
    use fsf::model::{AttrId, Point};
    cases(15, 16, |rng| {
        for kind in fsf::engines::EngineKind::ALL {
            let seed_state = rng.gen::<u64>();
            let build = || {
                let mut r = StdRng::seed_from_u64(seed_state);
                let (e, nodes) = churn_setup(&mut r, kind);
                let user = nodes[r.gen_range(0..nodes.len())];
                let publisher = nodes[r.gen_range(0..nodes.len())];
                let sub = churn_sub(&mut r, 1);
                (e, user, publisher, sub)
            };
            let (mut churned, user, publisher, sub) = build();
            churned.inject_subscription(user, sub.clone());
            churned.flush();
            churned.retract_subscription(user, SubId(1));
            churned.flush();
            churned.inject_subscription(user, sub);
            churned.flush();
            let (mut fresh, _, _, sub2) = build();
            fresh.inject_subscription(user, sub2);
            fresh.flush();
            for (i, t) in [(0u64, 5_000u64), (1, 5_010), (2, 5_020)] {
                for (s, engine) in [(1u32, &mut churned), (1, &mut fresh)] {
                    engine.inject_event(
                        publisher,
                        Event {
                            id: EventId(200 + i),
                            sensor: SensorId(s),
                            attr: AttrId(s as u16),
                            location: Point::new(0.0, 0.0),
                            value: 10.0,
                            timestamp: Timestamp(t),
                        },
                    );
                    engine.flush();
                }
            }
            assert_eq!(
                churned.deliveries().delivered(SubId(1)),
                fresh.deliveries().delivered(SubId(1)),
                "{kind}: resubscription is not fresh"
            );
        }
    });
}

// ---------- sensor mobility ----------

/// After N random moves of the deployed sensors, the network holds **no
/// route entry for a superseded advertisement generation**: every node's
/// recorded projections match what its current advertisement picture would
/// produce, and every node agrees on each sensor's final generation.
#[test]
fn random_moves_leave_no_superseded_generation_routes() {
    use fsf::core::PubSubConfig;
    use fsf::engines::{EngineData, PubSubProto, SimEngine};
    use fsf::model::{Advertisement, AttrId, Point};
    cases(22, 16, |rng| {
        let n = rng.gen_range(4usize..24);
        let topo = builders::random_tree(n, rng);
        let nodes: Vec<NodeId> = topo.nodes().collect();
        let setup = rng.gen::<u64>();
        for config in [
            PubSubConfig::naive(60, 7),
            PubSubConfig::operator_placement(60, 7),
            PubSubConfig::fsf(60, 7),
        ] {
            let mut r = StdRng::seed_from_u64(setup);
            let mut e = SimEngine::new(topo.clone(), PubSubProto::new("prop-mobility", config));
            let adv = |s: u32| Advertisement {
                sensor: SensorId(s),
                attr: AttrId(s as u16),
                location: Point::new(0.0, 0.0),
            };
            for s in [1u32, 2] {
                e.inject_sensor(nodes[r.gen_range(0..nodes.len())], adv(s));
                e.flush();
            }
            e.inject_subscription(nodes[r.gen_range(0..nodes.len())], churn_sub(&mut r, 1));
            e.flush();
            let mut gens = [0u64; 2];
            for _ in 0..r.gen_range(1usize..8) {
                let s = r.gen_range(0u32..2);
                e.move_sensor(nodes[r.gen_range(0..nodes.len())], adv(s + 1));
                e.flush();
                gens[s as usize] += 1;
            }
            for &v in &nodes {
                let node = e.simulator().node(v);
                assert_eq!(
                    node.stale_routes(),
                    Vec::<String>::new(),
                    "node {v} kept superseded routing state"
                );
                for s in [0usize, 1] {
                    assert_eq!(
                        node.adverts().generation(SensorId(s as u32 + 1)),
                        gens[s],
                        "node {v} disagrees on sensor {}'s generation",
                        s + 1
                    );
                }
            }
        }
    });
}

/// A sensor that moves away and back is home again: the round trip
/// restores the node-state footprint of the never-moved deployment, and
/// repeating the homecoming move is a state no-op (only the flood is
/// re-billed). Holds for every engine.
#[test]
fn move_back_to_the_original_host_is_idempotent() {
    use fsf::model::{Advertisement, AttrId, Point};
    cases(23, 12, |rng| {
        for kind in fsf::engines::EngineKind::ALL {
            let n = rng.gen_range(4usize..20);
            let topo = builders::random_tree(n, rng);
            let nodes: Vec<NodeId> = topo.nodes().collect();
            let home = nodes[rng.gen_range(0..nodes.len())];
            // the round trip must genuinely leave home, or the case tests
            // nothing about the away-and-back reroute
            let away = loop {
                let v = nodes[rng.gen_range(0..nodes.len())];
                if v != home {
                    break v;
                }
            };
            let user = nodes[rng.gen_range(0..nodes.len())];
            let adv = Advertisement {
                sensor: SensorId(1),
                attr: AttrId(1),
                location: Point::new(0.0, 0.0),
            };
            let mut e = kind.build(topo, 60, 7);
            e.inject_sensor(home, adv);
            e.flush();
            e.inject_subscription(
                user,
                Subscription::identified(SubId(1), [(SensorId(1), ValueRange::new(0.0, 10.0))], 30)
                    .unwrap(),
            );
            e.flush();
            let resting = e.footprint();
            e.move_sensor(away, adv);
            e.flush();
            e.move_sensor(home, adv);
            e.flush();
            assert_eq!(
                e.footprint(),
                resting,
                "{kind}: the round trip did not come home"
            );
            e.move_sensor(home, adv);
            e.flush();
            assert_eq!(
                e.footprint(),
                resting,
                "{kind}: repeated move changed state"
            );
            e.inject_event(
                home,
                Event {
                    id: EventId(100),
                    sensor: SensorId(1),
                    attr: AttrId(1),
                    location: Point::new(0.0, 0.0),
                    value: 5.0,
                    timestamp: Timestamp(1_000),
                },
            );
            e.flush();
            assert!(
                e.deliveries().delivered(SubId(1)).contains(&EventId(100)),
                "{kind}: the homecoming sensor no longer delivers"
            );
        }
    });
}

// ---------- workload determinism ----------

#[test]
fn topology_from_edges_round_trips_through_paths() {
    // spot check: clustered layouts produce valid trees whose sensor chains
    // route through their gateways
    let mut rng = StdRng::seed_from_u64(3);
    let layout = builders::clustered(4, 5, 40, &mut rng);
    let t: &Topology = &layout.topology;
    for (g, members) in layout.sensor_nodes.iter().enumerate() {
        for &m in members {
            let path = t.path(m, layout.gateways[g]);
            assert!(path.len() <= 6, "chain member too far from its gateway");
        }
    }
}
