//! Bounded-mailbox robustness: a flood through capacity-1 mailboxes must
//! park senders (explicit backpressure) rather than drop frames, the
//! conservation ledger must reconcile at quiescence
//! (`scheduled == handled + dropped_to_downed`), and none of it may
//! deadlock — every scenario runs under a watchdog timeout.

use fsf::model::attrs;
use fsf::network::builders;
use fsf::prelude::*;
use fsf::runtime::{HostConfig, HostMode, NodeHost};
use std::time::Duration;

const FLOOD: u64 = 300;
const WATCHDOG: Duration = Duration::from_secs(120);

/// Run `work` on its own thread; panic if it has not finished within
/// [`WATCHDOG`] (a parked sender that never wakes would otherwise hang the
/// suite instead of failing it).
fn with_watchdog<T: Send + 'static>(label: &str, work: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(work());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(out) => out,
        Err(_) => panic!("{label}: wedged under backpressure (watchdog expired)"),
    }
}

fn adv(sensor: u32) -> Advertisement {
    Advertisement {
        sensor: SensorId(sensor),
        attr: attrs::AMBIENT_TEMP,
        location: Point::new(0.0, 0.0),
    }
}

fn reading(id: u64, sensor: u32) -> Event {
    Event {
        id: EventId(id),
        sensor: SensorId(sensor),
        attr: attrs::AMBIENT_TEMP,
        location: Point::new(0.0, 0.0),
        value: 1.0,
        timestamp: Timestamp(id),
    }
}

/// Flood a deep line of capacity-1 mailboxes end to end: one sensor at the
/// head, one matching subscription at the tail, `FLOOD` readings injected
/// back to back with no intermediate flush. Returns the engine's ledger
/// counters and delivered set size.
fn flood_through(deploy: Deploy) -> (u64, u64, u64, usize) {
    let topology = builders::line(10);
    let tail = NodeId(9);
    let mut engine = EngineKind::Naive
        .builder(topology)
        .validity(10_000)
        .seed(7)
        .deploy(deploy)
        .mailbox(1)
        .build();
    engine.inject_sensor(NodeId(0), adv(1));
    engine.flush();
    engine.inject_subscription(
        tail,
        Subscription::identified(SubId(1), [(SensorId(1), ValueRange::new(0.0, 2.0))], 5_000)
            .expect("valid subscription"),
    );
    engine.flush();
    for i in 0..FLOOD {
        engine.inject_event(NodeId(0), reading(i, 1));
    }
    engine.flush();
    (
        engine.scheduled_total(),
        engine.steps(),
        engine.dropped_from_queue(),
        engine.deliveries().delivered(SubId(1)).len(),
    )
}

/// The async engine under flood: nothing dropped, ledger reconciles, every
/// reading delivered — for both live deployments.
#[test]
fn flooded_engine_parks_but_delivers_everything() {
    for deploy in [Deploy::Threaded, Deploy::Async { workers: 2 }] {
        let label = format!("{deploy:?}");
        let (scheduled, handled, dropped, delivered) =
            with_watchdog(&label, move || flood_through(deploy));
        assert_eq!(dropped, 0, "{label}: frames dropped under backpressure");
        assert_eq!(
            scheduled,
            handled + dropped,
            "{label}: conservation ledger does not reconcile"
        );
        assert_eq!(
            delivered, FLOOD as usize,
            "{label}: flood deliveries incomplete"
        );
    }
}

/// Host-level check with a real engine message type, in both host modes:
/// capacity-1 mailboxes under an event flood must record sender parks (the
/// backpressure path actually ran) and still lose nothing.
#[test]
fn capacity_one_mailboxes_record_parks_not_drops() {
    for mode in [HostMode::ThreadPerNode, HostMode::Executor { workers: 2 }] {
        let label = format!("host flood {mode:?}");
        let ledger = with_watchdog(&label, move || {
            let topology = builders::line(6);
            let config = PubSubConfig::naive(10_000, 7);
            let host: NodeHost<PubSubNode> = NodeHost::spawn(
                &topology,
                &HostConfig {
                    mode,
                    mailbox: 1,
                    latency: LatencyModel::Zero,
                },
                |id, _| PubSubNode::new(id, config),
            );
            host.inject(NodeId(0), &PubSubMsg::SensorUp(adv(1)), 0);
            host.wait_quiescent();
            let sub = Subscription::identified(
                SubId(1),
                [(SensorId(1), ValueRange::new(0.0, 2.0))],
                5_000,
            )
            .expect("valid subscription");
            host.inject(NodeId(5), &PubSubMsg::Subscribe(sub), 0);
            host.wait_quiescent();
            for i in 0..FLOOD {
                host.inject(NodeId(0), &PubSubMsg::Publish(reading(i, 1)), i);
            }
            host.wait_quiescent();
            let ledger = host.ledger();
            let (_, deliveries) = host.shutdown();
            assert_eq!(
                deliveries.delivered(SubId(1)).len(),
                FLOOD as usize,
                "{mode:?}: flood deliveries incomplete"
            );
            ledger
        });
        assert!(ledger.parks > 0, "{label}: flood never parked a sender");
        assert_eq!(
            ledger.dropped_to_downed, 0,
            "{label}: frames dropped with no node down"
        );
        assert_eq!(
            ledger.scheduled,
            ledger.handled + ledger.dropped_to_downed,
            "{label}: conservation ledger does not reconcile"
        );
    }
}

/// Crashing a node mid-stream must account every in-flight frame to the
/// downed node rather than wedging a parked sender: the ledger still
/// reconciles, with a non-zero `dropped_to_downed` share.
#[test]
fn crash_under_flood_reconciles_via_dropped_to_downed() {
    let (scheduled, handled, dropped) = with_watchdog("crash flood", || {
        let topology = builders::line(8);
        let mut engine = EngineKind::Naive
            .builder(topology)
            .validity(10_000)
            .seed(7)
            .deploy(Deploy::Async { workers: 2 })
            .mailbox(1)
            .build();
        engine.inject_sensor(NodeId(0), adv(1));
        engine.flush();
        engine.inject_subscription(
            NodeId(7),
            Subscription::identified(SubId(1), [(SensorId(1), ValueRange::new(0.0, 2.0))], 5_000)
                .expect("valid subscription"),
        );
        engine.flush();
        for i in 0..FLOOD / 2 {
            engine.inject_event(NodeId(0), reading(i, 1));
        }
        engine.crash_node(NodeId(4), NodeId(3)).expect("crash");
        for i in FLOOD / 2..FLOOD {
            engine.inject_event(NodeId(0), reading(i, 1));
        }
        engine.flush();
        // Injections into the downed node itself are the directly observable
        // dropped-to-downed path.
        engine.inject_event(NodeId(4), reading(FLOOD + 1, 1));
        engine.flush();
        (
            engine.scheduled_total(),
            engine.steps(),
            engine.dropped_from_queue(),
        )
    });
    assert!(dropped > 0, "corpse injection not accounted as dropped");
    assert_eq!(
        scheduled,
        handled + dropped,
        "conservation ledger does not reconcile across a crash"
    );
}
