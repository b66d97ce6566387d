//! Matching-core differential battery: the shared per-node arrangement
//! (interval index) against the retained linear scan, which stays alive as
//! the oracle (`MatchMode::LinearScan`).
//!
//! Three layers:
//!
//! * band level — random event stores × random pass operator sets: a
//!   [`Correlator`] pass over its envelope-reduced bands against the same
//!   pass over the full bands (`LinearScan` does not reduce) and against the
//!   flat [`complex_match`] of each operator alone;
//! * table level — random operator sets stabbed directly through
//!   [`fsf::subsumption::OperatorTable::candidates_for`] in both modes must
//!   return the *same operators in the same order*, also after operators
//!   were removed and others took over their slab slots; the multi-join
//!   engine's `MjStore` is held to the same rows, over identified operators
//!   and over a regional family whose operators the arrangement files by
//!   place (shared, overlapping, nested and point-sized rectangles, discs,
//!   `All`), probed on edges, corners and outside every region;
//! * engine level — ≥ 30 seeded cases of random operator sets (overlapping,
//!   nested, point and zero-width ranges) × reading streams, replayed on
//!   all five engines twice: the event-at-a-time linear-scan oracle vs the
//!   batched arrangement path, asserting per-subscription match-set and
//!   full [`DeliveryLog`] equality; and a regional (`Rect`) abstract
//!   workload, where a pass's envelope has a spatial hull to get wrong.

use fsf::core::events::{Correlator, Stored};
use fsf::core::{EventStore, SentScope};
use fsf::engines::multijoin::{MjKey, MjStore, StoredMj, StoredRole};
use fsf::model::{complex_match, DimKey, Rect, Region};
use fsf::network::builders;
use fsf::prelude::*;
use fsf::subsumption::OperatorTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VALIDITY: u64 = 60;
const CASES: u64 = 32;

/// A range from one of the adversarial families the arrangement must get
/// right: wide overlapping boxes, narrow slivers, ranges nested inside a
/// wider one, and point / zero-width ranges sitting exactly on stream
/// values (the stream below emits integer values, so `[v, v]` can match).
fn gen_range(rng: &mut StdRng, case: usize) -> ValueRange {
    match case % 4 {
        0 => {
            // wide, mutually overlapping
            let lo = rng.gen_range(0.0..60.0);
            ValueRange::new(lo, lo + rng.gen_range(20.0..40.0))
        }
        1 => {
            // narrow sliver
            let lo = rng.gen_range(0.0..98.0);
            ValueRange::new(lo, lo + rng.gen_range(0.1..2.0))
        }
        2 => {
            // nested strictly inside a wide band
            let lo = 20.0 + rng.gen_range(0.0..30.0);
            ValueRange::new(lo, lo + rng.gen_range(1.0..10.0))
        }
        _ => {
            // point / zero-width on the integer lattice of the stream
            let v = rng.gen_range(0..=100) as f64;
            ValueRange::new(v, v)
        }
    }
}

fn gen_subscriptions(rng: &mut StdRng, n: usize, sensors: u32) -> Vec<Subscription> {
    (0..n)
        .map(|i| {
            let arity = rng.gen_range(1..=2usize);
            let mut picked: Vec<u32> = Vec::new();
            while picked.len() < arity {
                let s = rng.gen_range(0..sensors);
                if !picked.contains(&s) {
                    picked.push(s);
                }
            }
            let filters: Vec<(SensorId, ValueRange)> = picked
                .into_iter()
                .enumerate()
                .map(|(j, s)| (SensorId(s + 1), gen_range(rng, i + j)))
                .collect();
            Subscription::identified(SubId(i as u64 + 1), filters, rng.gen_range(2..=6))
                .expect("well-formed subscription")
        })
        .collect()
}

fn gen_stream(rng: &mut StdRng, n: usize, sensors: u32) -> Vec<Event> {
    (0..n)
        .map(|i| {
            let s = rng.gen_range(0..sensors);
            Event {
                id: EventId(i as u64 + 1),
                sensor: SensorId(s + 1),
                attr: AttrId(s as u16),
                location: Point::new(s as f64, 0.0),
                // integer lattice so point ranges genuinely hit
                value: rng.gen_range(0..=100) as f64,
                timestamp: Timestamp(1_000 + i as u64),
            }
        })
        .collect()
}

/// One table-level case: 24 operators to load, 12 latecomers, and every
/// dimension any of them constrains.
fn gen_table_case(rng: &mut StdRng) -> (Vec<Operator>, Vec<Operator>, Vec<DimKey>) {
    let subs = gen_subscriptions(rng, 36, 3);
    let mut ops: Vec<Operator> = subs.iter().map(Operator::from_subscription).collect();
    let mut dims: Vec<DimKey> = Vec::new();
    for d in ops.iter().flat_map(Operator::dims) {
        if !dims.contains(&d) {
            dims.push(d);
        }
    }
    let late = ops.split_off(24);
    (ops, late, dims)
}

/// The rectangle many regional operators share bit-for-bit (one bucket).
const SHARED: (f64, f64, f64, f64) = (1.0, 1.0, 4.0, 3.0);

/// A region of the regional table family: the shared rectangle, an
/// overlapping one, one nested inside the shared one, a point-sized one, a
/// disc, or the whole domain. Every coordinate sits on the half-integer
/// lattice the readings below are drawn from, so readings land on edges and
/// corners.
fn gen_region(rng: &mut StdRng) -> Region {
    let half = |rng: &mut StdRng, hi: u32| f64::from(rng.gen_range(0..=hi)) / 2.0;
    let (x0, y0, x1, y1) = SHARED;
    match rng.gen_range(0..8) {
        0..=2 => Region::Rect(Rect::new(Point::new(x0, y0), Point::new(x1, y1))),
        3 => {
            let corner = Point::new(half(rng, 10), half(rng, 10));
            let far = Point::new(corner.x + half(rng, 6), corner.y + half(rng, 6));
            Region::Rect(Rect::new(corner, far))
        }
        4 => {
            let corner = Point::new(x0 + half(rng, 4), y0 + half(rng, 2));
            let far = Point::new(corner.x + half(rng, 2), corner.y + half(rng, 2));
            Region::Rect(Rect::new(corner, far))
        }
        5 => {
            let p = Point::new(half(rng, 12), half(rng, 12));
            Region::Rect(Rect::new(p, p))
        }
        6 => Region::Circle {
            center: Point::new(half(rng, 12), half(rng, 12)),
            radius: f64::from(rng.gen_range(1..=3u32)),
        },
        _ => Region::All,
    }
}

/// One regional table-level case: 36 operators — abstract ones over one or
/// two of three attribute types in [`gen_region`]'s regions, and a few
/// identified ones over sensor dimensions — split 24 / 12 as
/// [`gen_table_case`] splits them.
fn gen_regional_case(rng: &mut StdRng) -> (Vec<Operator>, Vec<Operator>, Vec<DimKey>) {
    let mut ops: Vec<Operator> = (0..36u64)
        .map(|i| {
            let sub = SubId(i + 1);
            if rng.gen_range(0..6) == 0 {
                let filters = [(SensorId(rng.gen_range(1..=3)), lattice_range(rng))];
                let named = Subscription::identified(sub, filters, 4).expect("one sensor");
                return Operator::from_subscription(&named);
            }
            let first = rng.gen_range(0..3u16);
            let attrs = if rng.gen_bool(0.5) {
                vec![first]
            } else {
                vec![first, (first + 1) % 3]
            };
            let filters: Vec<_> = attrs
                .iter()
                .map(|&a| (AttrId(a), lattice_range(rng)))
                .collect();
            let region = gen_region(rng);
            let s = Subscription::abstract_over(sub, filters, region, 4, None);
            Operator::from_subscription(&s.expect("distinct attributes"))
        })
        .collect();
    let mut dims: Vec<DimKey> = Vec::new();
    for d in ops.iter().flat_map(Operator::dims) {
        if !dims.contains(&d) {
            dims.push(d);
        }
    }
    let late = ops.split_off(24);
    (ops, late, dims)
}

/// Readings for the regional family: on the half-integer lattice (edges,
/// corners and point regions get hit), on the shared rectangle's corners
/// and edges, or outside every region.
fn gen_regional_stream(rng: &mut StdRng) -> Vec<Event> {
    let (x0, y0, x1, y1) = SHARED;
    (0..40u64)
        .map(|i| {
            let location = match rng.gen_range(0..6) {
                0 => [(x0, y0), (x1, y1), (x0, y1), (x1, y0)][rng.gen_range(0..4usize)],
                1 => [(x0, 2.0), (x1, 1.5), (2.5, y0), (3.0, y1)][rng.gen_range(0..4usize)],
                2 => (-50.0, 80.0),
                _ => (
                    f64::from(rng.gen_range(-1..=13)) / 2.0,
                    f64::from(rng.gen_range(-1..=13)) / 2.0,
                ),
            };
            let sensor = rng.gen_range(0..3u32);
            Event {
                id: EventId(i + 1),
                sensor: SensorId(sensor + 1),
                attr: AttrId(rng.gen_range(0..3)),
                location: Point::new(location.0, location.1),
                value: lattice_value(rng),
                timestamp: Timestamp(1_000 + i),
            }
        })
        .collect()
}

/// A table-level family: how a case is drawn, and the readings that probe
/// it. Identified operators over sensor dimensions come first (their seeds
/// are the ones the battery always had); the regional family follows.
type Family = (
    fn(&mut StdRng) -> (Vec<Operator>, Vec<Operator>, Vec<DimKey>),
    fn(&mut StdRng) -> Vec<Event>,
);

const FAMILIES: [Family; 2] = [
    (gen_table_case, |rng| gen_stream(rng, 40, 3)),
    (gen_regional_case, gen_regional_stream),
];

/// Every `(family, case)` pair, family by family.
fn family_cases() -> impl Iterator<Item = (u64, u64)> {
    (0..FAMILIES.len() as u64).flat_map(|family| (0..CASES).map(move |case| (family, case)))
}

/// The rows every table-level case is probed in: freshly loaded; a third of
/// the operators removed; the latecomers — first, so they and not the
/// returning operators take the freed slots — and half of the removed ones
/// inserted again.
const ROWS: [&str; 3] = ["loaded", "after removals", "after reinsertion"];

/// Table level: both candidate-query modes agree operator-for-operator —
/// including order — on every stab, across random operator sets and probes,
/// in every row.
#[test]
fn table_candidates_agree_across_modes_on_random_sets() {
    let mut regional_hits = 0;
    for (family, case) in family_cases() {
        let (gen_case, gen_probes) = FAMILIES[family as usize];
        let mut rng = StdRng::seed_from_u64(0x7AB1E ^ (case * 0x9E37_79B9) ^ (family << 40));
        let mut table = OperatorTable::new();
        let (loaded, late, dims) = gen_case(&mut rng);
        for op in &loaded {
            table.insert(op.clone());
        }
        for row in ROWS {
            match row {
                "after removals" => {
                    for op in loaded.iter().step_by(3) {
                        assert!(table.remove(&op.key()).is_some());
                    }
                }
                "after reinsertion" => {
                    for op in late.iter().chain(loaded.iter().step_by(6)) {
                        assert!(table.insert(op.clone()));
                    }
                }
                _ => {}
            }
            assert!(table.arrangement_consistent(), "case {case}: stale index");
            for event in gen_probes(&mut rng) {
                for dim in &dims {
                    let scan = table.candidates_for(MatchMode::LinearScan, dim, &event);
                    let arr = table.candidates_for(MatchMode::Arrangement, dim, &event);
                    regional_hits += usize::from(family == 1) * scan.len();
                    let scan_keys: Vec<_> = scan.iter().map(Operator::key).collect();
                    let arr_keys: Vec<_> = arr.iter().map(Operator::key).collect();
                    assert_eq!(
                        scan_keys, arr_keys,
                        "case {case}: candidate sets (or order) diverged on {dim:?} at {}",
                        event.value
                    );
                }
            }
        }
    }
    assert!(
        regional_hits > 1_000,
        "regional rows barely hit: {regional_hits}"
    );
}

/// The same rows for the multi-join engine's per-origin store.
#[test]
fn mj_store_candidates_agree_across_modes_on_random_sets() {
    let key = |op: &Operator| MjKey {
        sub: op.sub(),
        dims: op.signature(),
        main: None,
    };
    let stored = |op: &Operator| StoredMj {
        op: op.clone(),
        role: StoredRole::FilterTransport,
        is_user_sub: false,
    };
    for (family, case) in family_cases() {
        let (gen_case, gen_probes) = FAMILIES[family as usize];
        let mut rng = StdRng::seed_from_u64(0x7AB1E ^ (case * 0x9E37_79B9) ^ (family << 40));
        let mut store = MjStore::new();
        let (loaded, late, dims) = gen_case(&mut rng);
        for op in &loaded {
            store.insert_uncovered(key(op), stored(op));
        }
        for row in ROWS {
            match row {
                "after removals" => {
                    for op in loaded.iter().step_by(3) {
                        assert!(store.remove_uncovered(&key(op)).is_some());
                    }
                }
                "after reinsertion" => {
                    for op in late.iter().chain(loaded.iter().step_by(6)) {
                        assert!(store.insert_uncovered(key(op), stored(op)));
                    }
                }
                _ => {}
            }
            assert!(
                store.arrangement_consistent(),
                "case {case} {row}: stale index"
            );
            store.settle();
            for event in gen_probes(&mut rng) {
                for dim in &dims {
                    let (mut scan, mut arr) = (Vec::new(), Vec::new());
                    store.uncovered_matching(MatchMode::LinearScan, dim, &event, &mut scan);
                    store.uncovered_matching(MatchMode::Arrangement, dim, &event, &mut arr);
                    let scan_keys: Vec<_> = scan.iter().map(|(k, _)| *k).collect();
                    let arr_keys: Vec<_> = arr.iter().map(|(k, _)| *k).collect();
                    assert_eq!(
                        scan_keys, arr_keys,
                        "case {case} {row}: candidate sets (or order) diverged on {dim:?} at {}",
                        event.value
                    );
                }
            }
        }
    }
}

/// Engine level: the batched arrangement path delivers exactly what the
/// event-at-a-time linear-scan oracle delivers, per subscription, on all
/// five engines, across ≥ 30 seeded adversarial cases.
#[test]
fn five_engines_match_the_scan_oracle_across_seeds() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5CA1E ^ (case * 0x9E37_79B9));
        let topology = match case % 3 {
            0 => builders::line(8),
            1 => builders::star(9),
            _ => builders::balanced(15, 2),
        };
        let n = topology.len() as u32;
        let sensors = 3u32;
        // one hosting station for every sensor: on a tree this pins each
        // node's arrival order to the injection order, so the oracle and
        // the batched run see identical per-node event sequences and the
        // correlation deliveries group identically (with multiple hosts,
        // flush cadence alone can legally regroup complex deliveries)
        let host = NodeId(rng.gen_range(0..n));
        let stations: Vec<(NodeId, Advertisement)> = (0..sensors)
            .map(|s| {
                (
                    host,
                    Advertisement {
                        sensor: SensorId(s + 1),
                        attr: AttrId(s as u16),
                        location: Point::new(s as f64, 0.0),
                    },
                )
            })
            .collect();
        let subs = gen_subscriptions(&mut rng, 16, sensors);
        let sub_nodes: Vec<NodeId> = subs.iter().map(|_| NodeId(rng.gen_range(0..n))).collect();
        let stream = gen_stream(&mut rng, 48, sensors);

        for kind in EngineKind::ALL {
            let ctx = format!("case {case} / {kind}");
            let load = |mode: MatchMode| -> Box<dyn Engine> {
                let mut e = kind
                    .builder(topology.clone())
                    .validity(VALIDITY)
                    .seed(42)
                    .latency(LatencyModel::Zero)
                    .match_mode(mode)
                    .build();
                for (node, adv) in &stations {
                    e.inject_sensor(*node, *adv);
                }
                e.flush();
                for (sub, node) in subs.iter().zip(&sub_nodes) {
                    e.inject_subscription(*node, sub.clone());
                }
                e.flush();
                e
            };

            // oracle: linear scan, one Publish per reading
            let mut oracle = load(MatchMode::LinearScan);
            for event in &stream {
                let host = stations[(event.sensor.0 - 1) as usize].0;
                oracle.inject_event(host, *event);
                oracle.flush();
            }

            // candidate: arrangement, readings in per-tick delta frames
            let mut batched = load(MatchMode::Arrangement);
            for chunk in stream.chunks(6) {
                // group the frame's readings by hosting station
                let mut by_host: Vec<(NodeId, Vec<Event>)> = Vec::new();
                for e in chunk {
                    let h = stations[(e.sensor.0 - 1) as usize].0;
                    match by_host.iter_mut().find(|(node, _)| *node == h) {
                        Some((_, batch)) => batch.push(*e),
                        None => by_host.push((h, vec![*e])),
                    }
                }
                for (node, batch) in by_host {
                    batched.inject_events(node, batch);
                }
                batched.flush();
            }

            for sub in &subs {
                assert_eq!(
                    oracle.deliveries().delivered(sub.id()),
                    batched.deliveries().delivered(sub.id()),
                    "{ctx}: match set diverged for {:?}",
                    sub.id()
                );
            }
            assert_eq!(
                oracle.deliveries(),
                batched.deliveries(),
                "{ctx}: delivery logs diverged"
            );
        }
    }
}

/// A value on the lattice every range bound below is drawn from, so readings
/// sit exactly on range bounds and hull edges; now and then `-0.0` (equal to
/// the bound `0.0`) or NaN (inside no range).
fn lattice_value(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..24) {
        0 => -0.0,
        1 => f64::NAN,
        _ => rng.gen_range(0..=10) as f64,
    }
}

fn lattice_range(rng: &mut StdRng) -> ValueRange {
    let (a, b) = (rng.gen_range(0..=10u32), rng.gen_range(0..=10u32));
    ValueRange::new(a.min(b) as f64, a.max(b) as f64)
}

/// One operator of a pass: abstract over one to three attribute types inside
/// a `Rect`, `Circle` or `All` region (finite δl now and then), or identified
/// over one or two sensors; δt differs between the operators of one pass.
fn gen_pass_operator(rng: &mut StdRng, sub: u64) -> Operator {
    let delta_t = [2, 4, 7][rng.gen_range(0..3usize)];
    let mut dims: Vec<u32> = Vec::new();
    while dims.len() < rng.gen_range(1..=3) {
        let d = rng.gen_range(0..4u32);
        if !dims.contains(&d) {
            dims.push(d);
        }
    }
    let shape = rng.gen_range(0..5);
    if shape == 4 {
        let filters = dims.iter().take(2);
        let filters = filters.map(|&d| (SensorId(d + 1), lattice_range(rng)));
        let named = Subscription::identified(SubId(sub), filters.collect::<Vec<_>>(), delta_t);
        return Operator::from_subscription(&named.expect("distinct sensors"));
    }
    let corner = Point::new(rng.gen_range(0..6) as f64, rng.gen_range(0..6) as f64);
    let region = match shape {
        0 | 1 => {
            let (w, h) = (rng.gen_range(0..5) as f64, rng.gen_range(0..5) as f64);
            Region::Rect(Rect::new(corner, Point::new(corner.x + w, corner.y + h)))
        }
        2 => Region::Circle {
            center: corner,
            radius: rng.gen_range(1..5) as f64,
        },
        _ => Region::All,
    };
    let delta_l = rng.gen_bool(0.25).then(|| rng.gen_range(2..8) as f64);
    let filters = dims.iter().map(|&d| (AttrId(d as u16), lattice_range(rng)));
    let filters = filters.collect::<Vec<_>>();
    let s = Subscription::abstract_over(SubId(sub), filters, region, delta_t, delta_l);
    Operator::from_subscription(&s.expect("distinct attributes"))
}

/// Band level: whatever a pass's envelope drops from a band, no operator of
/// the pass could have matched — so the reduced pass finds the same
/// participants, in the same order, and the same `fresh` ones under stored
/// and recorded `sendTo` marks, as the unreduced (`LinearScan`) pass; and a
/// pass of one operator finds that operator's flat `complex_match`.
#[test]
fn reduced_bands_match_what_full_bands_match() {
    let ids = |v: &[&Stored]| v.iter().map(|s| s.event().id).collect::<Vec<_>>();
    let (mut matches, mut misses) = (0, 0);
    for case in 0..4 * CASES {
        let mut rng = StdRng::seed_from_u64(0xBA2D ^ (case * 0x9E37_79B9));
        let mut store = EventStore::new(VALIDITY);
        let link = SentScope::Link(NodeId(1));
        for i in 0..rng.gen_range(20..70u64) {
            let sensor = rng.gen_range(0..8u32);
            let mut location = Point::new(rng.gen_range(0..=10) as f64, (sensor % 5) as f64);
            if rng.gen_range(0..40) == 0 {
                location.x = f64::NAN;
            }
            store.insert(Event {
                id: EventId(i + 1),
                sensor: SensorId(sensor + 1),
                attr: AttrId((sensor % 4) as u16),
                location,
                value: lattice_value(&mut rng),
                timestamp: Timestamp(1_000 + rng.gen_range(0..12u64)),
            });
            if rng.gen_bool(0.3) {
                store.mark_sent(EventId(i + 1), &link);
            }
        }
        let pass: Vec<Operator> = (0..rng.gen_range(1..=6))
            .map(|i| gen_pass_operator(&mut rng, i))
            .collect();
        let at = Timestamp(1_000 + rng.gen_range(0..12u64));

        let (mut reduced, mut full) = (Correlator::default(), Correlator::default());
        reduced.begin_pass(&store, at, MatchMode::Arrangement, &pass);
        full.begin_pass(&store, at, MatchMode::LinearScan, &pass);
        for (i, op) in pass.iter().enumerate() {
            let ctx = format!("case {case}, operator {i} of {}: {op:?}", pass.len());
            let band = store.correlation_band(at, op.delta_t());
            let flat: Option<Vec<EventId>> = complex_match(&band, op)
                .map(|m| m.participants.iter().map(|&p| band[p].event().id).collect());
            match &flat {
                Some(_) => matches += 1,
                None => misses += 1,
            }
            // every participant: nothing is marked under the operator's own
            // scope — in the pass, and in a pass of this operator alone
            let own = SentScope::LocalSub(SubId(i as u64));
            let mut alone = Correlator::default();
            alone.begin_pass(&store, at, MatchMode::Arrangement, [op]);
            for (what, corr) in [("pass", &mut reduced), ("alone", &mut alone)] {
                let matched = corr.correlate(op, || own.clone()).map(|_| ids(&corr.fresh));
                assert_eq!(matched, flat, "{ctx}: {what} vs the flat match");
            }
            // the fresh ones: stored marks, and those the operators before
            // this one recorded
            let r = reduced.correlate(op, || link.clone());
            let f = full.correlate(op, || link.clone());
            assert_eq!(r, f, "{ctx}");
            assert_eq!(ids(&reduced.fresh), ids(&full.fresh), "{ctx}: fresh");
            if let (Some(r), Some(f)) = (r, f) {
                reduced.mark_fresh(r);
                full.mark_fresh(f);
            }
        }
    }
    assert!(
        matches > 100 && misses > 100,
        "one-sided cases: {matches} matches, {misses} misses"
    );
}

/// Engine level, regional: abstract subscriptions over overlapping `Rect`
/// regions, so the operators of one pass differ in *where* they listen and
/// the pass's envelope carries a spatial hull. All three node families
/// (`PubSubNode` under its three configurations, `MjNode`, `CentralNode`)
/// must deliver under the reduced bands exactly what the unreduced oracle
/// delivers, fed at the same cadence.
#[test]
fn five_engines_match_the_scan_oracle_on_a_regional_workload() {
    for case in 0..CASES / 4 {
        let mut rng = StdRng::seed_from_u64(0x2EC7 ^ (case * 0x9E37_79B9));
        let topology = builders::balanced(15, 2);
        let n = topology.len() as u32;
        // sensor s at (s, s mod 3), alternating between two attribute types
        let stations: Vec<(NodeId, Advertisement)> = (0..10u32)
            .map(|s| {
                let adv = Advertisement {
                    sensor: SensorId(s + 1),
                    attr: AttrId((s % 2) as u16),
                    location: Point::new(s as f64, (s % 3) as f64),
                };
                (NodeId(rng.gen_range(0..n)), adv)
            })
            .collect();
        // a window of at least two neighbouring sensors: both types inside
        let subs: Vec<(NodeId, Subscription)> = (0..20u64)
            .map(|i| {
                let x0 = rng.gen_range(0..8) as f64;
                let x1 = x0 + rng.gen_range(1..4) as f64;
                let region = Region::Rect(Rect::new(Point::new(x0, 0.0), Point::new(x1, 2.0)));
                let filters = (0..2).map(|a| {
                    let lo = rng.gen_range(0..50) as f64;
                    (
                        AttrId(a),
                        ValueRange::new(lo, lo + rng.gen_range(20..50) as f64),
                    )
                });
                let filters = filters.collect::<Vec<_>>();
                let delta_l = (i % 5 == 0).then_some(2.5);
                let sub = Subscription::abstract_over(SubId(i + 1), filters, region, 6, delta_l);
                (
                    NodeId(rng.gen_range(0..n)),
                    sub.expect("two attribute types"),
                )
            })
            .collect();
        let stream: Vec<Event> = (0..120u64)
            .map(|i| {
                let (_, adv) = stations[rng.gen_range(0..stations.len())];
                Event {
                    id: EventId(i + 1),
                    sensor: adv.sensor,
                    attr: adv.attr,
                    location: adv.location,
                    value: rng.gen_range(0..=100) as f64,
                    timestamp: Timestamp(1_000 + i / 2),
                }
            })
            .collect();

        for kind in EngineKind::ALL {
            let run = |mode: MatchMode| -> Box<dyn Engine> {
                let mut e = kind
                    .builder(topology.clone())
                    .validity(VALIDITY)
                    .seed(42)
                    .latency(LatencyModel::Zero)
                    .match_mode(mode)
                    .build();
                for (node, adv) in &stations {
                    e.inject_sensor(*node, *adv);
                }
                e.flush();
                for (node, sub) in &subs {
                    e.inject_subscription(*node, sub.clone());
                }
                e.flush();
                for chunk in stream.chunks(4) {
                    for event in chunk {
                        let host = stations[(event.sensor.0 - 1) as usize].0;
                        e.inject_event(host, *event);
                    }
                    e.flush();
                }
                e
            };
            let (oracle, reduced) = (run(MatchMode::LinearScan), run(MatchMode::Arrangement));
            let units = oracle.deliveries().total_event_units();
            eprintln!("{units}");
            assert!(units > 50, "case {case} / {kind}: only {units} units");
            assert_eq!(
                oracle.deliveries(),
                reduced.deliveries(),
                "case {case} / {kind}: delivery logs diverged"
            );
        }
    }
}
