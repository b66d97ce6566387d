//! Binary wire encoding for the data-plane message payloads.
//!
//! The threaded runtime's channels stand in for sockets; this codec is what
//! a real deployment would put on them. Fixed-width big-endian fields, no
//! self-description — both ends share the schema, as they would in the
//! paper's homogeneous middleware.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use fsf_core::Msg;
use fsf_model::{
    Advertisement, AttrId, DimKey, DimSignature, Event, EventId, Operator, OperatorKey, Point,
    Rect, Region, SensorId, SubId, Subscription, SubscriptionKind, Timestamp, ValueRange,
};

/// A message type with a binary wire form, plus the per-link write-batching
/// hook the async host's send path uses.
///
/// Every link message of the async deployment passes through
/// [`WireMsg::to_frame`] on the sending side and [`WireMsg::from_frame`] on
/// the receiving side — the channels carry opaque byte frames, exactly as a
/// socket would.
pub trait WireMsg: Sized {
    /// Append this message's wire form to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Decode one message, consuming its bytes; `None` on a short or
    /// malformed buffer.
    fn decode(buf: &mut Bytes) -> Option<Self>;

    /// Try to absorb `other` into `self` for per-link write batching
    /// (e.g. two adjacent `Events` frames bound for the same peer merge
    /// into one). Non-coalescible pairs hand `other` back unchanged; that
    /// is the default, so control messages never merge.
    ///
    /// # Errors
    /// Returns `other` untouched when the pair cannot merge.
    fn coalesce(&mut self, other: Self) -> Result<(), Self> {
        Err(other)
    }

    /// Encode into a standalone frame.
    #[must_use]
    fn to_frame(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Decode a frame produced by [`WireMsg::to_frame`]; `None` if the
    /// frame is malformed or has trailing garbage.
    #[must_use]
    fn from_frame(mut frame: Bytes) -> Option<Self> {
        let msg = Self::decode(&mut frame)?;
        if frame.remaining() > 0 {
            return None;
        }
        Some(msg)
    }
}

/// Encoded size of an [`Event`] in bytes.
pub const EVENT_WIRE_SIZE: usize = 8 + 4 + 2 + 8 + 8 + 8 + 8;

/// Encoded size of an [`Advertisement`] in bytes.
pub const ADV_WIRE_SIZE: usize = 4 + 2 + 8 + 8;

/// Append an event's wire form to `buf`.
pub fn encode_event(e: &Event, buf: &mut BytesMut) {
    buf.reserve(EVENT_WIRE_SIZE);
    buf.put_u64(e.id.0);
    buf.put_u32(e.sensor.0);
    buf.put_u16(e.attr.0);
    buf.put_f64(e.location.x);
    buf.put_f64(e.location.y);
    buf.put_f64(e.value);
    buf.put_u64(e.timestamp.0);
}

/// Decode one event; `None` if the buffer is too short.
pub fn decode_event(buf: &mut Bytes) -> Option<Event> {
    if buf.remaining() < EVENT_WIRE_SIZE {
        return None;
    }
    Some(Event {
        id: EventId(buf.get_u64()),
        sensor: SensorId(buf.get_u32()),
        attr: AttrId(buf.get_u16()),
        location: Point::new(buf.get_f64(), buf.get_f64()),
        value: buf.get_f64(),
        timestamp: Timestamp(buf.get_u64()),
    })
}

/// Append an advertisement's wire form to `buf`.
pub fn encode_advertisement(a: &Advertisement, buf: &mut BytesMut) {
    buf.reserve(ADV_WIRE_SIZE);
    buf.put_u32(a.sensor.0);
    buf.put_u16(a.attr.0);
    buf.put_f64(a.location.x);
    buf.put_f64(a.location.y);
}

/// Decode one advertisement; `None` if the buffer is too short.
pub fn decode_advertisement(buf: &mut Bytes) -> Option<Advertisement> {
    if buf.remaining() < ADV_WIRE_SIZE {
        return None;
    }
    Some(Advertisement {
        sensor: SensorId(buf.get_u32()),
        attr: AttrId(buf.get_u16()),
        location: Point::new(buf.get_f64(), buf.get_f64()),
    })
}

/// Encode a batch of events (length-prefixed), the payload of an
/// `Events(…)` link message.
#[must_use]
pub fn encode_event_batch(events: &[Event]) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + events.len() * EVENT_WIRE_SIZE);
    buf.put_u32(events.len() as u32);
    for e in events {
        encode_event(e, &mut buf);
    }
    buf.freeze()
}

/// Decode a batch encoded by [`encode_event_batch`].
#[must_use]
pub fn decode_event_batch(mut buf: Bytes) -> Option<Vec<Event>> {
    if buf.remaining() < 4 {
        return None;
    }
    let n = buf.get_u32() as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(decode_event(&mut buf)?);
    }
    Some(out)
}

/// Append a subscription dimension key (1 tag byte + the id).
pub fn encode_dim_key(key: &DimKey, buf: &mut BytesMut) {
    match key {
        DimKey::Sensor(d) => {
            buf.put_u8(0);
            buf.put_u32(d.0);
        }
        DimKey::Attr(a) => {
            buf.put_u8(1);
            buf.put_u16(a.0);
        }
    }
}

/// Decode one dimension key.
pub fn decode_dim_key(buf: &mut Bytes) -> Option<DimKey> {
    if buf.remaining() < 1 {
        return None;
    }
    match buf.get_u8() {
        0 if buf.remaining() >= 4 => Some(DimKey::Sensor(SensorId(buf.get_u32()))),
        1 if buf.remaining() >= 2 => Some(DimKey::Attr(AttrId(buf.get_u16()))),
        _ => None,
    }
}

/// Append a value range (min, max as `f64`).
pub fn encode_value_range(range: &ValueRange, buf: &mut BytesMut) {
    buf.put_f64(range.min());
    buf.put_f64(range.max());
}

/// Decode one value range.
pub fn decode_value_range(buf: &mut Bytes) -> Option<ValueRange> {
    if buf.remaining() < 16 {
        return None;
    }
    let (min, max) = (buf.get_f64(), buf.get_f64());
    ValueRange::try_new(min, max).ok()
}

/// Append a region (1 tag byte + its geometry).
pub fn encode_region(region: &Region, buf: &mut BytesMut) {
    match region {
        Region::All => buf.put_u8(0),
        Region::Rect(r) => {
            buf.put_u8(1);
            buf.put_f64(r.min.x);
            buf.put_f64(r.min.y);
            buf.put_f64(r.max.x);
            buf.put_f64(r.max.y);
        }
        Region::Circle { center, radius } => {
            buf.put_u8(2);
            buf.put_f64(center.x);
            buf.put_f64(center.y);
            buf.put_f64(*radius);
        }
    }
}

/// Decode one region.
pub fn decode_region(buf: &mut Bytes) -> Option<Region> {
    if buf.remaining() < 1 {
        return None;
    }
    match buf.get_u8() {
        0 => Some(Region::All),
        1 if buf.remaining() >= 32 => {
            let min = Point::new(buf.get_f64(), buf.get_f64());
            let max = Point::new(buf.get_f64(), buf.get_f64());
            if min.x.is_finite() && min.y.is_finite() && min.x <= max.x && min.y <= max.y {
                Some(Region::Rect(Rect::new(min, max)))
            } else {
                None
            }
        }
        2 if buf.remaining() >= 24 => Some(Region::Circle {
            center: Point::new(buf.get_f64(), buf.get_f64()),
            radius: buf.get_f64(),
        }),
        _ => None,
    }
}

fn encode_opt_f64(v: Option<f64>, buf: &mut BytesMut) {
    match v {
        None => buf.put_u8(0),
        Some(x) => {
            buf.put_u8(1);
            buf.put_f64(x);
        }
    }
}

fn decode_opt_f64(buf: &mut Bytes) -> Option<Option<f64>> {
    if buf.remaining() < 1 {
        return None;
    }
    match buf.get_u8() {
        0 => Some(None),
        1 if buf.remaining() >= 8 => Some(Some(buf.get_f64())),
        _ => None,
    }
}

/// The shared wire body of subscriptions and operators: `(id, kind,
/// predicates, region, δt, δl)`. Operators are projections of
/// subscriptions, so both sides reconstruct through the [`Subscription`]
/// constructors — the decode re-validates everything the constructors
/// validate.
fn encode_query_body(
    id: SubId,
    kind: SubscriptionKind,
    predicates: &[fsf_model::Predicate],
    region: &Region,
    delta_t: u64,
    delta_l: Option<f64>,
    buf: &mut BytesMut,
) {
    buf.put_u64(id.0);
    buf.put_u8(match kind {
        SubscriptionKind::Identified => 0,
        SubscriptionKind::Abstract => 1,
    });
    buf.put_u16(predicates.len() as u16);
    for p in predicates {
        encode_dim_key(&p.key, buf);
        encode_value_range(&p.range, buf);
    }
    encode_region(region, buf);
    buf.put_u64(delta_t);
    encode_opt_f64(delta_l, buf);
}

fn decode_query_body(buf: &mut Bytes) -> Option<Subscription> {
    if buf.remaining() < 11 {
        return None;
    }
    let id = SubId(buf.get_u64());
    let kind = buf.get_u8();
    let n = buf.get_u16() as usize;
    let mut keys = Vec::with_capacity(n);
    for _ in 0..n {
        let key = decode_dim_key(buf)?;
        let range = decode_value_range(buf)?;
        keys.push((key, range));
    }
    let region = decode_region(buf)?;
    if buf.remaining() < 8 {
        return None;
    }
    let delta_t = buf.get_u64();
    let delta_l = decode_opt_f64(buf)?;
    match kind {
        0 => {
            let filters: Option<Vec<(SensorId, ValueRange)>> = keys
                .into_iter()
                .map(|(k, r)| match k {
                    DimKey::Sensor(d) => Some((d, r)),
                    DimKey::Attr(_) => None,
                })
                .collect();
            Subscription::identified(id, filters?, delta_t).ok()
        }
        1 => {
            let filters: Option<Vec<(AttrId, ValueRange)>> = keys
                .into_iter()
                .map(|(k, r)| match k {
                    DimKey::Attr(a) => Some((a, r)),
                    DimKey::Sensor(_) => None,
                })
                .collect();
            Subscription::abstract_over(id, filters?, region, delta_t, delta_l).ok()
        }
        _ => None,
    }
}

/// Append a subscription's wire form.
pub fn encode_subscription(sub: &Subscription, buf: &mut BytesMut) {
    encode_query_body(
        sub.id(),
        sub.kind(),
        sub.predicates(),
        sub.region(),
        sub.delta_t(),
        sub.delta_l(),
        buf,
    );
}

/// Decode one subscription.
pub fn decode_subscription(buf: &mut Bytes) -> Option<Subscription> {
    decode_query_body(buf)
}

/// Append a length-prefixed event vector (the body of an `Events` frame).
pub fn encode_events(events: &[Event], buf: &mut BytesMut) {
    buf.put_u32(events.len() as u32);
    for e in events {
        encode_event(e, buf);
    }
}

/// Decode a length-prefixed event vector.
pub fn decode_events(buf: &mut Bytes) -> Option<Vec<Event>> {
    if buf.remaining() < 4 {
        return None;
    }
    let n = buf.get_u32() as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        out.push(decode_event(buf)?);
    }
    Some(out)
}

/// A payload a [`Msg`] carries in its `Operator` and `RemoveOperator`
/// variants: what each engine family forwards, and the key it withdraws
/// it by. Encoding as in [`WireMsg`], without the framing.
pub trait WirePayload: Sized {
    /// Append this payload's wire form to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Decode one payload, consuming its bytes; `None` on a short or
    /// malformed buffer.
    fn decode(buf: &mut Bytes) -> Option<Self>;
}

/// An operator has the same body as a subscription — it is a projection
/// of one, and carries the identical fields.
impl WirePayload for Operator {
    fn encode(&self, buf: &mut BytesMut) {
        encode_query_body(
            self.sub(),
            self.kind(),
            self.predicates(),
            self.region(),
            self.delta_t(),
            self.delta_l(),
            buf,
        );
    }

    fn decode(buf: &mut Bytes) -> Option<Self> {
        decode_query_body(buf).map(|sub| Operator::from_subscription(&sub))
    }
}

/// An operator key: the subscription id and the dimension signature.
impl WirePayload for OperatorKey {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64(self.sub.0);
        buf.put_u16(self.dims.dims().len() as u16);
        for d in self.dims.dims() {
            encode_dim_key(d, buf);
        }
    }

    fn decode(buf: &mut Bytes) -> Option<Self> {
        if buf.remaining() < 10 {
            return None;
        }
        let sub = SubId(buf.get_u64());
        let n = buf.get_u16() as usize;
        let mut dims = Vec::with_capacity(n);
        for _ in 0..n {
            dims.push(decode_dim_key(buf)?);
        }
        Some(OperatorKey {
            sub,
            dims: DimSignature::new(dims),
        })
    }
}

impl WirePayload for SubId {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64(self.0);
    }

    fn decode(buf: &mut Bytes) -> Option<Self> {
        (buf.remaining() >= 8).then(|| SubId(buf.get_u64()))
    }
}

/// Decode an advertisement followed by its generation.
fn decode_generation_tagged(buf: &mut Bytes) -> Option<(Advertisement, u64)> {
    let adv = decode_advertisement(buf)?;
    (buf.remaining() >= 8).then(|| (adv, buf.get_u64()))
}

/// One encoding for every engine family's [`Msg`]: a one-byte variant tag
/// (the variant's position) followed by the payload in the primitive
/// encodings above. [`PubSubMsg`](fsf_core::PubSubMsg) and the multi-join
/// engine's messages differ only in their [`WirePayload`]s.
impl<O: WirePayload, R: WirePayload> WireMsg for Msg<O, R> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Msg::SensorUp(a) => {
                buf.put_u8(0);
                encode_advertisement(a, buf);
            }
            Msg::Adv(a) => {
                buf.put_u8(1);
                encode_advertisement(a, buf);
            }
            Msg::SensorDown(d) => {
                buf.put_u8(2);
                buf.put_u32(d.0);
            }
            Msg::AdvDown(d, gen) => {
                buf.put_u8(3);
                buf.put_u32(d.0);
                buf.put_u64(*gen);
            }
            Msg::AdvRepair(a, gen) => {
                buf.put_u8(4);
                encode_advertisement(a, buf);
                buf.put_u64(*gen);
            }
            Msg::Move(a, gen) => {
                buf.put_u8(5);
                encode_advertisement(a, buf);
                buf.put_u64(*gen);
            }
            Msg::Subscribe(s) => {
                buf.put_u8(6);
                encode_subscription(s, buf);
            }
            Msg::Operator(op) => {
                buf.put_u8(7);
                op.encode(buf);
            }
            Msg::Unsubscribe(s) => {
                buf.put_u8(8);
                s.encode(buf);
            }
            Msg::RemoveOperator(k) => {
                buf.put_u8(9);
                k.encode(buf);
            }
            Msg::Publish(e) => {
                buf.put_u8(10);
                encode_event(e, buf);
            }
            Msg::Events(es) => {
                buf.put_u8(11);
                encode_events(es, buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Option<Self> {
        if buf.remaining() < 1 {
            return None;
        }
        Some(match buf.get_u8() {
            0 => Msg::SensorUp(decode_advertisement(buf)?),
            1 => Msg::Adv(decode_advertisement(buf)?),
            2 => {
                if buf.remaining() < 4 {
                    return None;
                }
                Msg::SensorDown(SensorId(buf.get_u32()))
            }
            3 => {
                if buf.remaining() < 12 {
                    return None;
                }
                Msg::AdvDown(SensorId(buf.get_u32()), buf.get_u64())
            }
            4 => {
                let (a, gen) = decode_generation_tagged(buf)?;
                Msg::AdvRepair(a, gen)
            }
            5 => {
                let (a, gen) = decode_generation_tagged(buf)?;
                Msg::Move(a, gen)
            }
            6 => Msg::Subscribe(decode_subscription(buf)?),
            7 => Msg::Operator(O::decode(buf)?),
            8 => Msg::Unsubscribe(SubId::decode(buf)?),
            9 => Msg::RemoveOperator(R::decode(buf)?),
            10 => Msg::Publish(decode_event(buf)?),
            11 => Msg::Events(decode_events(buf)?),
            _ => return None,
        })
    }

    fn coalesce(&mut self, other: Self) -> Result<(), Self> {
        match (self, other) {
            (Msg::Events(mine), Msg::Events(more)) => {
                mine.extend(more);
                Ok(())
            }
            (_, other) => Err(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64) -> Event {
        Event {
            id: EventId(id),
            sensor: SensorId(7),
            attr: AttrId(3),
            location: Point::new(1.5, -2.5),
            value: 21.25,
            timestamp: Timestamp(123_456),
        }
    }

    #[test]
    fn event_roundtrip() {
        let e = ev(42);
        let mut buf = BytesMut::new();
        encode_event(&e, &mut buf);
        assert_eq!(buf.len(), EVENT_WIRE_SIZE);
        let mut bytes = buf.freeze();
        assert_eq!(decode_event(&mut bytes), Some(e));
        assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn advertisement_roundtrip() {
        let a = Advertisement {
            sensor: SensorId(9),
            attr: AttrId(1),
            location: Point::new(0.0, 4.25),
        };
        let mut buf = BytesMut::new();
        encode_advertisement(&a, &mut buf);
        assert_eq!(buf.len(), ADV_WIRE_SIZE);
        let mut bytes = buf.freeze();
        assert_eq!(decode_advertisement(&mut bytes), Some(a));
    }

    #[test]
    fn batch_roundtrip() {
        let events: Vec<Event> = (0..5).map(ev).collect();
        let encoded = encode_event_batch(&events);
        assert_eq!(encoded.len(), 4 + 5 * EVENT_WIRE_SIZE);
        assert_eq!(decode_event_batch(encoded), Some(events));
    }

    #[test]
    fn truncated_input_is_rejected() {
        let e = ev(1);
        let mut buf = BytesMut::new();
        encode_event(&e, &mut buf);
        let mut short = buf.freeze().slice(..EVENT_WIRE_SIZE - 1);
        assert_eq!(decode_event(&mut short), None);

        let batch = encode_event_batch(&[e]);
        assert_eq!(decode_event_batch(batch.slice(..batch.len() - 2)), None);
        assert_eq!(decode_event_batch(Bytes::new()), None);
    }

    #[test]
    fn empty_batch_roundtrip() {
        assert_eq!(decode_event_batch(encode_event_batch(&[])), Some(vec![]));
    }
}
