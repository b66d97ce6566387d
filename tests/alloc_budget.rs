//! Allocation budget of the match path: one relay `PubSubNode`, driven by
//! hand through [`Ctx::external`], holds several hundred operators for two
//! neighbors and a few local users and is fed `Events` frames from a third.
//! The heap allocations the node makes per handled event — candidate query,
//! correlation bands, complex matching, dedup marks, outgoing frames,
//! deliveries — are counted by this binary's own `#[global_allocator]` and
//! held to what the match path spends with its buffers (correlator bands,
//! matcher, marks, candidate list, the delivered complex event) parked in
//! the node between events, plus a quarter. Every subscription here listens
//! everywhere (`Region::All`) on 3 of 8 attribute types, so a pass's
//! envelope drops next to nothing from a band: this guards what the
//! reduction costs, not what it saves.

use fsf::core::{PubSubConfig, PubSubMsg, PubSubNode};
use fsf::model::{
    Advertisement, AttrId, Event, EventId, Operator, Point, Region, SensorId, SubId, Subscription,
    Timestamp, ValueRange,
};
use fsf::network::{ChargeKind, Ctx, DeliveryLog, NodeBehavior, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Heap allocations per handled event of this exact scenario, measured by
/// this test with the delivery log settled after every frame: 5.4 — what
/// is left is the stored events and their `sendTo` flags, the outgoing
/// frames and the log's amortised growth — plus 25 % headroom. (619.6 when
/// every stab result and band was cloned, commit f75b3be; 48.3 when they
/// were borrowed but the buffers rebuilt per event, fad69de; 13.7 with one
/// `BTreeSet` insert per delivered unit, d0e02fd.)
const ALLOCS_PER_EVENT_BUDGET: f64 = 6.75;

thread_local! {
    /// `Some(n)`: this thread is being metered and has allocated `n` times.
    /// Per thread, so the test harness's own threads are not counted.
    static METER: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the meter is a
// `const`-initialised `Cell` thread-local, which neither allocates nor has a
// destructor, so touching it from inside the allocator cannot recurse.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        METER.with(|m| m.set(m.get().map(|n| n + 1)));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        METER.with(|m| m.set(m.get().map(|n| n + 1)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn metered(f: impl FnOnce()) -> u64 {
    METER.with(|m| m.set(Some(0)));
    f();
    METER.with(|m| m.replace(None)).expect("metering was on")
}

const SENSORS: u32 = 40;
const ATTRS: u16 = 8;
const OPERATORS: u64 = 600;
const FRAMES: usize = 96;
const FRAME_LEN: usize = 16;

struct Relay {
    node: PubSubNode,
    neighbors: Vec<NodeId>,
    outbox: Vec<(NodeId, PubSubMsg, ChargeKind, u64)>,
    log: DeliveryLog,
}

impl Relay {
    fn handle(&mut self, from: u32, msg: PubSubMsg, now: u64) {
        self.outbox.clear();
        let mut ctx = Ctx::external(
            NodeId(0),
            &self.neighbors,
            now,
            &mut self.outbox,
            &mut self.log,
        );
        self.node.on_message(NodeId(from), msg, &mut ctx);
    }
}

#[test]
fn the_match_path_stays_inside_its_allocation_budget() {
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let mut relay = Relay {
        node: PubSubNode::new(NodeId(0), PubSubConfig::fsf(60, 7)),
        neighbors: vec![NodeId(1), NodeId(2), NodeId(3)],
        outbox: Vec::new(),
        log: DeliveryLog::new(),
    };
    // every sensor lives behind neighbor 1 …
    for s in 0..SENSORS {
        let adv = Advertisement {
            sensor: SensorId(s),
            attr: AttrId((s % u32::from(ATTRS)) as u16),
            location: Point::new(f64::from(s), 0.0),
        };
        relay.handle(1, PubSubMsg::Adv(adv), 0);
    }
    // … and the interest comes from neighbors 2 and 3 and from local users
    for i in 0..OPERATORS {
        let first = rng.gen_range(0..ATTRS);
        let filters = (0..3).map(|k| {
            let lo = rng.gen_range(0.0..60.0);
            (AttrId((first + k) % ATTRS), ValueRange::new(lo, lo + 40.0))
        });
        let sub = Subscription::abstract_over(SubId(i), filters, Region::All, 30, None)
            .expect("three distinct attributes");
        match i % 8 {
            0 => relay.handle(0, PubSubMsg::Subscribe(sub), 0),
            n => relay.handle(
                2 + (n % 2) as u32,
                PubSubMsg::Operator(Operator::from_subscription(&sub)),
                0,
            ),
        }
    }
    let stored = relay.node.stored_operator_count();
    assert!(stored >= 500, "only {stored} operators stored");

    let frames: Vec<Vec<Event>> = (0..FRAMES)
        .map(|f| {
            (0..FRAME_LEN)
                .map(|k| {
                    let n = (f * FRAME_LEN + k) as u64;
                    let sensor = rng.gen_range(0..SENSORS);
                    Event {
                        id: EventId(n),
                        sensor: SensorId(sensor),
                        attr: AttrId((sensor % u32::from(ATTRS)) as u16),
                        location: Point::new(f64::from(sensor), 0.0),
                        value: rng.gen_range(0.0..100.0),
                        timestamp: Timestamp(1_000 + n),
                    }
                })
                .collect()
        })
        .collect();

    let (mut forwarded, mut delivered) = (0u64, 0usize);
    let allocations = metered(|| {
        for frame in frames {
            let now = frame.last().map_or(0, |e| e.timestamp.0);
            relay.handle(1, PubSubMsg::Events(frame), now);
            // the simulator settles its delivery log at the end of a pump
            relay.log.settle();
            forwarded += relay.outbox.iter().map(|(.., units)| units).sum::<u64>();
        }
        delivered = relay.log.total_event_units() as usize;
    });
    assert!(
        forwarded > 1_000 && delivered > 1_000,
        "the scenario must exercise forwarding ({forwarded} units) and delivery ({delivered})"
    );

    let per_event = allocations as f64 / (FRAMES * FRAME_LEN) as f64;
    eprintln!("{per_event:.1} heap allocations per handled event ({stored} operators stored)");
    assert!(
        per_event <= ALLOCS_PER_EVENT_BUDGET,
        "{per_event:.1} allocations per handled event; the budget is {ALLOCS_PER_EVENT_BUDGET}"
    );
}
