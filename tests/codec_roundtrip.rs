//! Wire-codec round-trip battery: every variant of all three engine
//! message enums — [`PubSubMsg`], [`MjMsg`], [`CentralMsg`] — must survive
//! `to_frame` → `from_frame` bit-exactly under seeded random payloads,
//! including multi-event frames; truncated frames, unknown tags and
//! trailing garbage must be rejected, and per-link coalescing must merge
//! exactly the frames the batching contract says it merges.

use fsf::engines::multijoin::{MjWireOp, WireKind};
use fsf::engines::{CentralMsg, MjMsg};
use fsf::model::{
    DimKey, DimSignature, Operator, OperatorKey, Point, Rect, Region, SubscriptionKind,
};
use fsf::prelude::*;
use fsf::runtime::WireMsg;
use rand::{rngs::StdRng, Rng, SeedableRng};

const ROUNDS: usize = 25;

fn rand_point(rng: &mut StdRng) -> Point {
    Point::new(rng.gen_range(-500.0..500.0), rng.gen_range(-500.0..500.0))
}

fn rand_event(rng: &mut StdRng) -> Event {
    Event {
        id: EventId(rng.gen_range(0..u64::MAX / 2)),
        sensor: SensorId(rng.gen_range(0..10_000)),
        attr: AttrId(rng.gen_range(0..1_000)),
        location: rand_point(rng),
        value: rng.gen_range(-1_000.0..1_000.0),
        timestamp: Timestamp(rng.gen_range(0..1_000_000)),
    }
}

fn rand_events(rng: &mut StdRng, max: usize) -> Vec<Event> {
    let n = rng.gen_range(0..=max);
    (0..n).map(|_| rand_event(rng)).collect()
}

fn rand_adv(rng: &mut StdRng) -> Advertisement {
    Advertisement {
        sensor: SensorId(rng.gen_range(0..10_000)),
        attr: AttrId(rng.gen_range(0..1_000)),
        location: rand_point(rng),
    }
}

fn rand_range(rng: &mut StdRng) -> ValueRange {
    let a = rng.gen_range(-100.0..100.0);
    let b = rng.gen_range(-100.0..100.0);
    ValueRange::new(a.min(b), a.max(b))
}

fn rand_region(rng: &mut StdRng) -> Region {
    match rng.gen_range(0..3u32) {
        0 => Region::All,
        1 => {
            let p = rand_point(rng);
            let q = Point::new(
                p.x + rng.gen_range(0.0..50.0),
                p.y + rng.gen_range(0.0..50.0),
            );
            Region::Rect(Rect::new(p, q))
        }
        _ => Region::Circle {
            center: rand_point(rng),
            radius: rng.gen_range(0.1..100.0),
        },
    }
}

/// A random subscription of either flavour, 1–4 unique dimensions.
fn rand_sub(rng: &mut StdRng) -> Subscription {
    let id = SubId(rng.gen_range(0..u64::MAX / 2));
    let arity = rng.gen_range(1..=4usize);
    let delta_t = rng.gen_range(1..300u64);
    let base = rng.gen_range(0..1_000u32);
    if rng.gen_bool(0.5) {
        let dims = (0..arity).map(|i| (SensorId(base + i as u32), rand_range(rng)));
        let dims: Vec<_> = dims.collect();
        Subscription::identified(id, dims, delta_t).expect("valid identified sub")
    } else {
        let dims: Vec<_> = (0..arity)
            .map(|i| (AttrId(base as u16 + i as u16), rand_range(rng)))
            .collect();
        let delta_l = if rng.gen_bool(0.5) {
            Some(rng.gen_range(0.1..200.0))
        } else {
            None
        };
        Subscription::abstract_over(id, dims, rand_region(rng), delta_t, delta_l)
            .expect("valid abstract sub")
    }
}

fn rand_operator(rng: &mut StdRng) -> Operator {
    Operator::from_subscription(&rand_sub(rng))
}

fn rand_operator_key(rng: &mut StdRng) -> OperatorKey {
    let sub = rand_sub(rng);
    OperatorKey {
        sub: sub.id(),
        dims: DimSignature::new(sub.predicates().iter().map(|p| p.key).collect()),
    }
}

fn rand_mj_op(rng: &mut StdRng) -> MjWireOp {
    let op = rand_operator(rng);
    let kind = match rng.gen_range(0..3u32) {
        0 => WireKind::Multi,
        1 => {
            let main = op.predicates()[0].key;
            WireKind::Binary { main }
        }
        _ => WireKind::Filter,
    };
    MjWireOp { op, kind }
}

/// All twelve [`PubSubMsg`] variants with random payloads.
fn pubsub_variants(rng: &mut StdRng) -> Vec<PubSubMsg> {
    vec![
        PubSubMsg::SensorUp(rand_adv(rng)),
        PubSubMsg::Adv(rand_adv(rng)),
        PubSubMsg::SensorDown(SensorId(rng.gen_range(0..10_000))),
        PubSubMsg::AdvDown(SensorId(rng.gen_range(0..10_000)), rng.gen_range(0..100)),
        PubSubMsg::AdvRepair(rand_adv(rng), rng.gen_range(0..100)),
        PubSubMsg::Move(rand_adv(rng), rng.gen_range(0..100)),
        PubSubMsg::Subscribe(rand_sub(rng)),
        PubSubMsg::Operator(rand_operator(rng)),
        PubSubMsg::Unsubscribe(SubId(rng.gen_range(0..u64::MAX / 2))),
        PubSubMsg::RemoveOperator(rand_operator_key(rng)),
        PubSubMsg::Publish(rand_event(rng)),
        PubSubMsg::Events(rand_events(rng, 8)),
    ]
}

/// All twelve [`MjMsg`] variants with random payloads.
fn mj_variants(rng: &mut StdRng) -> Vec<MjMsg> {
    vec![
        MjMsg::SensorUp(rand_adv(rng)),
        MjMsg::Adv(rand_adv(rng)),
        MjMsg::SensorDown(SensorId(rng.gen_range(0..10_000))),
        MjMsg::AdvDown(SensorId(rng.gen_range(0..10_000)), rng.gen_range(0..100)),
        MjMsg::AdvRepair(rand_adv(rng), rng.gen_range(0..100)),
        MjMsg::Move(rand_adv(rng), rng.gen_range(0..100)),
        MjMsg::Subscribe(rand_sub(rng)),
        MjMsg::Unsubscribe(SubId(rng.gen_range(0..u64::MAX / 2))),
        MjMsg::Operator(rand_mj_op(rng)),
        MjMsg::RemoveOperator(SubId(rng.gen_range(0..u64::MAX / 2))),
        MjMsg::Publish(rand_event(rng)),
        MjMsg::Events(rand_events(rng, 8)),
    ]
}

/// All eleven [`CentralMsg`] variants with random payloads.
fn central_variants(rng: &mut StdRng) -> Vec<CentralMsg> {
    vec![
        CentralMsg::Subscribe(rand_sub(rng)),
        CentralMsg::SubToCenter {
            sub: rand_sub(rng),
            user: NodeId(rng.gen_range(0..4_096)),
        },
        CentralMsg::Publish(rand_event(rng)),
        CentralMsg::EventToCenter(rand_event(rng)),
        CentralMsg::Results {
            user: NodeId(rng.gen_range(0..4_096)),
            sub: SubId(rng.gen_range(0..u64::MAX / 2)),
            events: rand_events(rng, 8),
        },
        CentralMsg::Unsubscribe(SubId(rng.gen_range(0..u64::MAX / 2))),
        CentralMsg::UnsubToCenter(SubId(rng.gen_range(0..u64::MAX / 2))),
        CentralMsg::SensorDown(SensorId(rng.gen_range(0..10_000))),
        CentralMsg::SensorDownToCenter(SensorId(rng.gen_range(0..10_000))),
        CentralMsg::Move(SensorId(rng.gen_range(0..10_000))),
        CentralMsg::MoveToCenter(SensorId(rng.gen_range(0..10_000))),
    ]
}

/// Frame round-trip plus the malformed-input gauntlet for one message.
fn check_frame<M: WireMsg + Clone + PartialEq + std::fmt::Debug>(msg: &M) {
    let frame = msg.to_frame();
    assert!(!frame.is_empty(), "empty frame for {msg:?}");
    assert_eq!(
        M::from_frame(frame.clone()).as_ref(),
        Some(msg),
        "round-trip mismatch"
    );
    // Trailing garbage is rejected — a frame is exactly one message.
    let mut padded = frame.as_slice().to_vec();
    padded.push(0xAB);
    assert_eq!(
        M::from_frame(bytes::Bytes::from(padded)),
        None,
        "trailing byte accepted for {msg:?}"
    );
    // Every truncation is rejected (never panics, never half-decodes into
    // a *different* valid message of the same length budget).
    for cut in 0..frame.len() {
        assert_eq!(
            M::from_frame(frame.slice(..cut)),
            None,
            "truncated frame (len {cut}) accepted for {msg:?}"
        );
    }
}

#[test]
fn pubsub_frames_roundtrip_every_variant() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_C001);
    for _ in 0..ROUNDS {
        for msg in pubsub_variants(&mut rng) {
            check_frame(&msg);
        }
    }
}

#[test]
fn mj_frames_roundtrip_every_variant() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_C002);
    for _ in 0..ROUNDS {
        for msg in mj_variants(&mut rng) {
            check_frame(&msg);
        }
    }
}

#[test]
fn central_frames_roundtrip_every_variant() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_C003);
    for _ in 0..ROUNDS {
        for msg in central_variants(&mut rng) {
            check_frame(&msg);
        }
    }
}

#[test]
fn unknown_tags_are_rejected() {
    // Tag bytes past each enum's last variant must decode to `None`.
    for tag in [12u8, 42, 0xFF] {
        let frame = bytes::Bytes::from(vec![tag]);
        assert_eq!(PubSubMsg::from_frame(frame.clone()), None);
        assert_eq!(MjMsg::from_frame(frame.clone()), None);
    }
    for tag in [11u8, 42, 0xFF] {
        assert_eq!(CentralMsg::from_frame(bytes::Bytes::from(vec![tag])), None);
    }
    assert_eq!(PubSubMsg::from_frame(bytes::Bytes::new()), None);
    assert_eq!(MjMsg::from_frame(bytes::Bytes::new()), None);
    assert_eq!(CentralMsg::from_frame(bytes::Bytes::new()), None);
}

#[test]
fn multi_event_frames_roundtrip_at_size() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_C004);
    let events: Vec<Event> = (0..200).map(|_| rand_event(&mut rng)).collect();
    check_frame(&PubSubMsg::Events(events.clone()));
    check_frame(&MjMsg::Events(events.clone()));
    check_frame(&CentralMsg::Results {
        user: NodeId(3),
        sub: SubId(9),
        events,
    });
}

#[test]
fn coalescing_merges_exactly_the_batchable_frames() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_C005);
    let (a, b) = (rand_event(&mut rng), rand_event(&mut rng));

    // Events ⊕ Events concatenates, preserving order.
    let mut lhs = MjMsg::Events(vec![a]);
    assert!(lhs.coalesce(MjMsg::Events(vec![b])).is_ok());
    assert_eq!(lhs, MjMsg::Events(vec![a, b]));

    let mut lhs = PubSubMsg::Events(vec![a]);
    assert!(lhs.coalesce(PubSubMsg::Events(vec![b])).is_ok());
    assert_eq!(lhs, PubSubMsg::Events(vec![a, b]));

    // Results merge only for the same (user, sub) destination stream.
    let mut lhs = CentralMsg::Results {
        user: NodeId(1),
        sub: SubId(5),
        events: vec![a],
    };
    assert!(lhs
        .coalesce(CentralMsg::Results {
            user: NodeId(1),
            sub: SubId(5),
            events: vec![b],
        })
        .is_ok());
    assert_eq!(
        lhs,
        CentralMsg::Results {
            user: NodeId(1),
            sub: SubId(5),
            events: vec![a, b],
        }
    );
    let refused = lhs.coalesce(CentralMsg::Results {
        user: NodeId(2),
        sub: SubId(5),
        events: vec![b],
    });
    assert!(refused.is_err(), "Results for another user merged");

    // Non-batchable frames keep their own FIFO slot.
    let mut lhs = MjMsg::Publish(a);
    assert!(lhs.coalesce(MjMsg::Publish(b)).is_err());
    let mut lhs = PubSubMsg::Events(vec![a]);
    assert!(lhs.coalesce(PubSubMsg::Publish(b)).is_err());
}

/// Operators decode through `Operator::from_subscription`, so the
/// round-trip must preserve the full query body (kind, region, δt, δl).
#[test]
fn operator_bodies_survive_both_subscription_flavours() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_C006);
    let mut saw = (false, false);
    for _ in 0..50 {
        let op = rand_operator(&mut rng);
        match op.kind() {
            SubscriptionKind::Identified => saw.0 = true,
            SubscriptionKind::Abstract => saw.1 = true,
        }
        assert!(op
            .predicates()
            .iter()
            .all(|p| matches!(p.key, DimKey::Sensor(_) | DimKey::Attr(_))));
        check_frame(&PubSubMsg::Operator(op));
    }
    assert!(saw.0 && saw.1, "seed never produced one of the flavours");
}

fn hex(frame: &[u8]) -> String {
    frame.iter().map(|b| format!("{b:02x}")).collect()
}

/// One fixed [`PubSubMsg`] per variant, in tag order.
fn pinned_pubsub_frames() -> Vec<PubSubMsg> {
    let adv = Advertisement {
        sensor: SensorId(7),
        attr: AttrId(3),
        location: Point::new(1.5, -2.0),
    };
    let sub = Subscription::identified(SubId(9), [(SensorId(7), ValueRange::new(-1.0, 2.5))], 30)
        .expect("valid identified sub");
    let region = Region::Rect(Rect::new(Point::new(0.0, 0.0), Point::new(4.0, 8.0)));
    let abstract_sub = Subscription::abstract_over(
        SubId(10),
        [(AttrId(3), ValueRange::new(0.0, 1.0))],
        region,
        60,
        Some(5.0),
    )
    .expect("valid abstract sub");
    let op = Operator::from_subscription(&abstract_sub);
    let event = |id: u64| Event {
        id: EventId(id),
        sensor: SensorId(7),
        attr: AttrId(3),
        location: Point::new(1.5, -2.0),
        value: 0.5,
        timestamp: Timestamp(1_000 + id),
    };
    vec![
        PubSubMsg::SensorUp(adv),
        PubSubMsg::Adv(adv),
        PubSubMsg::SensorDown(SensorId(7)),
        PubSubMsg::AdvDown(SensorId(7), 2),
        PubSubMsg::AdvRepair(adv, 3),
        PubSubMsg::Move(adv, 4),
        PubSubMsg::Subscribe(sub),
        PubSubMsg::Operator(op.clone()),
        PubSubMsg::Unsubscribe(SubId(9)),
        PubSubMsg::RemoveOperator(op.key()),
        PubSubMsg::Publish(event(1)),
        PubSubMsg::Events(vec![event(1), event(2)]),
    ]
}

/// The pub/sub wire format, byte for byte: one fixed frame per variant.
/// Round-trips cannot see a reordered tag table or a re-laid-out payload;
/// this can. The host's byte counts rest on these frames.
#[test]
fn pubsub_frames_are_pinned_byte_for_byte() {
    let got: Vec<String> = pinned_pubsub_frames()
        .iter()
        .map(|m| hex(m.to_frame().as_slice()))
        .collect();
    let want = [
        "000000000700033ff8000000000000c000000000000000",
        "010000000700033ff8000000000000c000000000000000",
        "0200000007",
        "03000000070000000000000002",
        "040000000700033ff8000000000000c0000000000000000000000000000003",
        "050000000700033ff8000000000000c0000000000000000000000000000004",
        "0600000000000000090000010000000007bff0000000000000400400000000000000000000000000001e00",
        "07000000000000000a01000101000300000000000000003ff0000000000000010000000000000000000000000000000040100000000000004020000000000000000000000000003c014014000000000000",
        "080000000000000009",
        "09000000000000000a0001010003",
        "0a00000000000000010000000700033ff8000000000000c0000000000000003fe000000000000000000000000003e9",
        "0b0000000200000000000000010000000700033ff8000000000000c0000000000000003fe000000000000000000000000003e900000000000000020000000700033ff8000000000000c0000000000000003fe000000000000000000000000003ea",
    ];
    assert_eq!(got.len(), want.len(), "one frame per variant");
    for (tag, (got, want)) in got.iter().zip(want).enumerate() {
        assert_eq!(got, want, "tag {tag} frame changed");
    }
}
