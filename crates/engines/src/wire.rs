//! Binary wire encodings for the two message families implemented in this
//! crate, so every engine can run on the production
//! [`fsf_runtime::NodeHost`] with real frames on every link.
//!
//! The multi-join engine speaks the shared [`fsf_core::Msg`], whose one
//! encoding lives with the codec in `fsf-runtime`; this module adds only
//! its operator payload ([`MjWireOp`]). [`CentralMsg`] (centralized) has
//! its own enum, encoded in the same style: a one-byte variant tag
//! followed by the payload in the codec's primitive encodings. Decoding is
//! strict: unknown tags and trailing bytes are rejected (`None`), and the
//! round-trip battery in `tests/codec_roundtrip.rs` exercises every
//! variant of all three message types.
//!
//! Per-link write batching merges adjacent event frames: two `Events` runs
//! concatenate, and two [`CentralMsg::Results`] frames for the same
//! `(user, sub)` concatenate — everything else keeps its own frame (and
//! its FIFO slot on the link).

use crate::centralized::CentralMsg;
use crate::multijoin::{MjWireOp, WireKind};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use fsf_model::{Operator, SensorId, SubId};
use fsf_network::NodeId;
use fsf_runtime::codec::{
    decode_dim_key, decode_event, decode_events, decode_subscription, encode_dim_key, encode_event,
    encode_events, encode_subscription,
};
use fsf_runtime::{WireMsg, WirePayload};

/// A multi-join operator travels with its decomposition role.
impl WirePayload for MjWireOp {
    fn encode(&self, buf: &mut BytesMut) {
        self.op.encode(buf);
        match self.kind {
            WireKind::Multi => buf.put_u8(0),
            WireKind::Binary { main } => {
                buf.put_u8(1);
                encode_dim_key(&main, buf);
            }
            WireKind::Filter => buf.put_u8(2),
        }
    }

    fn decode(buf: &mut Bytes) -> Option<Self> {
        let op = Operator::decode(buf)?;
        if buf.remaining() < 1 {
            return None;
        }
        let kind = match buf.get_u8() {
            0 => WireKind::Multi,
            1 => WireKind::Binary {
                main: decode_dim_key(buf)?,
            },
            2 => WireKind::Filter,
            _ => return None,
        };
        Some(MjWireOp { op, kind })
    }
}

impl WireMsg for CentralMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            CentralMsg::Subscribe(sub) => {
                buf.put_u8(0);
                encode_subscription(sub, buf);
            }
            CentralMsg::SubToCenter { sub, user } => {
                buf.put_u8(1);
                buf.put_u32(user.0);
                encode_subscription(sub, buf);
            }
            CentralMsg::Publish(event) => {
                buf.put_u8(2);
                encode_event(event, buf);
            }
            CentralMsg::EventToCenter(event) => {
                buf.put_u8(3);
                encode_event(event, buf);
            }
            CentralMsg::Results { user, sub, events } => {
                buf.put_u8(4);
                buf.put_u32(user.0);
                buf.put_u64(sub.0);
                encode_events(events, buf);
            }
            CentralMsg::Unsubscribe(sub) => {
                buf.put_u8(5);
                buf.put_u64(sub.0);
            }
            CentralMsg::UnsubToCenter(sub) => {
                buf.put_u8(6);
                buf.put_u64(sub.0);
            }
            CentralMsg::SensorDown(sensor) => {
                buf.put_u8(7);
                buf.put_u32(sensor.0);
            }
            CentralMsg::SensorDownToCenter(sensor) => {
                buf.put_u8(8);
                buf.put_u32(sensor.0);
            }
            CentralMsg::Move(sensor) => {
                buf.put_u8(9);
                buf.put_u32(sensor.0);
            }
            CentralMsg::MoveToCenter(sensor) => {
                buf.put_u8(10);
                buf.put_u32(sensor.0);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Option<Self> {
        if buf.remaining() < 1 {
            return None;
        }
        let tag = buf.get_u8();
        Some(match tag {
            0 => CentralMsg::Subscribe(decode_subscription(buf)?),
            1 => {
                if buf.remaining() < 4 {
                    return None;
                }
                let user = NodeId(buf.get_u32());
                CentralMsg::SubToCenter {
                    sub: decode_subscription(buf)?,
                    user,
                }
            }
            2 => CentralMsg::Publish(decode_event(buf)?),
            3 => CentralMsg::EventToCenter(decode_event(buf)?),
            4 => {
                if buf.remaining() < 12 {
                    return None;
                }
                let user = NodeId(buf.get_u32());
                let sub = SubId(buf.get_u64());
                CentralMsg::Results {
                    user,
                    sub,
                    events: decode_events(buf)?,
                }
            }
            5 | 6 => {
                if buf.remaining() < 8 {
                    return None;
                }
                let sub = SubId(buf.get_u64());
                if tag == 5 {
                    CentralMsg::Unsubscribe(sub)
                } else {
                    CentralMsg::UnsubToCenter(sub)
                }
            }
            7..=10 => {
                if buf.remaining() < 4 {
                    return None;
                }
                let sensor = SensorId(buf.get_u32());
                match tag {
                    7 => CentralMsg::SensorDown(sensor),
                    8 => CentralMsg::SensorDownToCenter(sensor),
                    9 => CentralMsg::Move(sensor),
                    _ => CentralMsg::MoveToCenter(sensor),
                }
            }
            _ => return None,
        })
    }

    fn coalesce(&mut self, other: Self) -> Result<(), Self> {
        match (self, other) {
            (
                CentralMsg::Results { user, sub, events },
                CentralMsg::Results {
                    user: other_user,
                    sub: other_sub,
                    events: other_events,
                },
            ) if *user == other_user && *sub == other_sub => {
                events.extend(other_events);
                Ok(())
            }
            (_, other) => Err(other),
        }
    }
}
