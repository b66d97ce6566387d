//! Heartbeat failure-detector battery: the in-protocol detector
//! (`EngineBuilder::heartbeat`) must drive the same recovery the
//! management plane would — and must **not** kill nodes that are merely
//! slow or briefly unreachable.
//!
//! Two properties:
//!
//! * **liveness-driven recovery** — with auto-recovery off and the
//!   detector on, a crashed relay is suspected by every live neighbor,
//!   confirmed dead on the virtual clock, and its pending recovery is
//!   applied in-protocol; the resulting `DeliveryLog` equals the
//!   management-plane `recover()` twin event-for-event, across the crash
//!   matrix (seeds × latency models × all five engines × 1, 2 and 4
//!   shards), and every sharded run equals its 1-shard run;
//! * **no false executions** — severing a link starves one observer of
//!   pongs and raises a directed suspicion, but confirmation requires
//!   *unanimity* among live neighbors, and the far neighbor still
//!   vouches; on heal the late pong re-admits the suspect with zero
//!   recoveries and no route loss, again on every shard count.
//!
//! A third test holds the substrates to one beat count: the heap, the
//! shards and the async host's probe rounds confirm a crash on the same
//! beat, because they all run one `fsf::network::liveness::Detector`.
//!
//! CI runs this suite under a seed matrix: `FSF_PARTITION_SEED=<n>` adds a
//! seed to the crash matrix on top of the built-in ones.

use fsf::engines::RecoveryStats;
use fsf::network::{builders, DeliveryLog, LatencyModel, Topology};
use fsf::prelude::*;
use fsf::runtime::{HostConfig, HostMode, NodeHost};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const VALIDITY: u64 = 60;
const DT: u64 = 30;
/// Ping period and suspicion timeout in virtual ticks. The timeout obeys
/// the `period + 2 × max link delay` rule for both latency models used
/// here, so healthy links never produce suspicions.
const PERIOD: u64 = 10;
const TIMEOUT: u64 = 25;
/// Clock horizon that comfortably covers suspicion + confirmation.
const DETECT: u64 = 8 * TIMEOUT;
/// Simulator shard counts: the heap, and the shards discipline at two
/// sizes (zero latency coalesces the latter to one calendar).
const SHARDS: [usize; 3] = [1, 2, 4];

fn seeds() -> Vec<u64> {
    let mut seeds = vec![0x5EED_0001, 0x5EED_0002, 0x5EED_0003];
    if let Ok(s) = std::env::var("FSF_PARTITION_SEED") {
        seeds.push(s.parse().expect("FSF_PARTITION_SEED must be a u64"));
    }
    seeds
}

/// What the detector left behind in one run, besides its deliveries: held
/// equal across shard counts.
#[derive(Debug, Clone, PartialEq)]
struct Detection {
    suspicions: Vec<(NodeId, NodeId)>,
    recovery: RecoveryStats,
    heartbeat_msgs: u64,
    steps: u64,
}

fn detection(e: &dyn Engine) -> Detection {
    Detection {
        suspicions: e.suspicions(),
        recovery: e.recovery_stats(),
        heartbeat_msgs: e.stats().liveness_msgs(),
        steps: e.steps(),
    }
}

/// The PR 4 crash scenario, restated: sensors and subscribers on leaves,
/// one stateless interior relay to crash, two publish batches separated
/// by a correlation epoch.
struct Scenario {
    topology: Topology,
    sensors: Vec<(NodeId, Advertisement)>,
    subs: Vec<(NodeId, Subscription)>,
    batch1: Vec<(NodeId, Event)>,
    batch2: Vec<(NodeId, Event)>,
    crash: NodeId,
    anchor: NodeId,
}

fn scenario(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let topology = builders::balanced(31, 2);
    let median = topology.median();
    let leaves: Vec<NodeId> = topology
        .nodes()
        .filter(|&n| topology.degree(n) == 1)
        .collect();

    let mut sensors = Vec::new();
    for i in 0..6u32 {
        let node = if i == 0 {
            leaves[0]
        } else {
            *leaves.choose(&mut rng).expect("leaves")
        };
        sensors.push((
            node,
            Advertisement {
                sensor: SensorId(i + 1),
                attr: AttrId((i % 5) as u16),
                location: Point::new(f64::from(i), 0.0),
            },
        ));
    }

    let mut subs = Vec::new();
    for i in 0..5u64 {
        let node = if i == 0 {
            *leaves.last().expect("leaves")
        } else {
            *leaves.choose(&mut rng).expect("leaves")
        };
        let arity = if i == 0 { 1 } else { rng.gen_range(1..=2usize) };
        let mut pool: Vec<u32> = (1..=6).collect();
        pool.shuffle(&mut rng);
        let filters: Vec<(SensorId, ValueRange)> = pool[..arity]
            .iter()
            .map(|&s| {
                let lo = rng.gen_range(0.0..3.0);
                let hi = rng.gen_range(7.0..20.0);
                (
                    SensorId(if i == 0 { 1 } else { s }),
                    ValueRange::new(lo, hi),
                )
            })
            .collect();
        subs.push((
            node,
            Subscription::identified(SubId(i + 1), filters, DT).unwrap(),
        ));
    }

    let hosts: Vec<NodeId> = sensors
        .iter()
        .map(|(n, _)| *n)
        .chain(subs.iter().map(|(n, _)| *n))
        .collect();
    let path = topology.path(sensors[0].0, subs[0].0);
    let crash = path
        .iter()
        .copied()
        .find(|&n| topology.degree(n) > 1 && n != median && !hosts.contains(&n))
        .expect("a 31-node tree has a stateless relay on the path");
    let anchor = topology.neighbors(crash)[0];

    let mut batch1 = Vec::new();
    let mut batch2 = Vec::new();
    for (i, &(node, adv)) in sensors.iter().enumerate() {
        for (batch, base_t, base_id) in [(&mut batch1, 1_000u64, 100u64), (&mut batch2, 5_000, 200)]
        {
            batch.push((
                node,
                Event {
                    id: EventId(base_id + i as u64),
                    sensor: adv.sensor,
                    attr: adv.attr,
                    location: adv.location,
                    value: 5.0,
                    timestamp: Timestamp(base_t + 3 * i as u64),
                },
            ));
        }
    }

    Scenario {
        topology,
        sensors,
        subs,
        batch1,
        batch2,
        crash,
        anchor,
    }
}

/// Replay the crash scenario with auto-recovery off and the heartbeat
/// detector on. `in_protocol` selects who heals the outage: the detector
/// (run the clock until the confirmation lands) or the management plane
/// (an explicit `recover()` call, with the same clock advancement so both
/// runs share a timeline).
fn run_detected(
    kind: EngineKind,
    latency: &LatencyModel,
    shards: usize,
    sc: &Scenario,
    in_protocol: bool,
) -> (DeliveryLog, Detection) {
    let mut e = kind
        .builder(sc.topology.clone())
        .validity(VALIDITY)
        .seed(42)
        .latency(latency.clone())
        .shards(shards)
        .heartbeat(PERIOD, TIMEOUT)
        .build();
    e.set_auto_recover(false);
    for &(node, adv) in &sc.sensors {
        e.inject_sensor(node, adv);
        e.flush();
    }
    for (node, sub) in &sc.subs {
        e.inject_subscription(*node, sub.clone());
        e.flush();
    }
    for &(node, ev) in &sc.batch1 {
        e.inject_event(node, ev);
        e.flush();
    }
    e.crash_node(sc.crash, sc.anchor).unwrap();
    e.flush();
    assert_eq!(
        e.recovery_stats().recoveries,
        0,
        "{kind}: recovery ran before anyone detected the crash"
    );
    if !in_protocol {
        e.recover();
        e.flush();
    }
    // same horizon for both runs: the detector needs it to confirm; the
    // management twin just keeps heartbeating over an already-healed tree.
    // The confirmation's repair flood is scheduled, not drained (the same
    // convention as `heal_link`) — flush before judging the route.
    e.run_until(e.now() + DETECT);
    e.flush();
    let stats = e.recovery_stats();
    assert_eq!(
        (stats.crashes, stats.recoveries),
        (1, 1),
        "{kind} ({}): the outage was not healed",
        if in_protocol {
            "detector"
        } else {
            "management"
        }
    );
    assert!(
        e.suspicions()
            .iter()
            .all(|&(_, suspect)| suspect == sc.crash),
        "{kind}: healthy nodes under suspicion: {:?}",
        e.suspicions()
    );
    for &(node, ev) in &sc.batch2 {
        e.inject_event(node, ev);
        e.flush();
    }
    (e.deliveries().clone(), detection(e.as_ref()))
}

/// The acceptance matrix: liveness-driven recovery reproduces the
/// management-plane recovery `DeliveryLog` event-for-event — 3 seeds ×
/// zero/nonzero latency × all five engines × 1, 2 and 4 shards, zero
/// false-suspicion divergence — and every sharded run's log and detector
/// state equal its 1-shard run's.
#[test]
fn the_detector_heals_the_crash_exactly_like_the_management_plane() {
    for seed in seeds() {
        let sc = scenario(seed);
        for latency in [LatencyModel::Zero, LatencyModel::Uniform { hop: 1 }] {
            let mut oracle = None;
            // every kind's 1-shard run comes first and is its oracle
            for (kind, shards) in EngineKind::ALL
                .into_iter()
                .flat_map(|kind| SHARDS.map(|shards| (kind, shards)))
            {
                let (managed, _) = run_detected(kind, &latency, shards, &sc, false);
                let run = run_detected(kind, &latency, shards, &sc, true);
                if shards == 1 {
                    oracle = Some(run.clone());
                }
                assert_eq!(
                    Some(&run),
                    oracle.as_ref(),
                    "seed {seed:#x} {latency:?}: {kind} at {shards} shards diverged from 1 shard"
                );
                let detected = run.0;
                assert_eq!(
                    detected, managed,
                    "seed {seed:#x} {latency:?}: {kind}'s in-protocol recovery diverged \
                     from the management plane"
                );
                assert!(
                    managed.total_event_units() > 0,
                    "seed {seed:#x} {kind}: the scenario delivered nothing"
                );
            }
        }
    }
}

/// S5 — the false-suspicion race: a severed link starves one observer of
/// pongs, but confirmation requires unanimity among live neighbors and
/// the far neighbor still vouches, so the suspect is never executed. The
/// heal's late pong re-admits it: suspicions drain, zero recoveries run,
/// and the route serves the next reading with no loss.
#[test]
fn a_slow_link_raises_suspicion_but_never_an_execution() {
    let topo = builders::line(6); // 0-1-2-3-4-5, flaky link (2,3)
    let adv = Advertisement {
        sensor: SensorId(1),
        attr: AttrId(0),
        location: Point::new(0.0, 0.0),
    };
    let ev = |id: u64, t: u64| Event {
        id: EventId(id),
        sensor: SensorId(1),
        attr: AttrId(0),
        location: Point::new(0.0, 0.0),
        value: 5.0,
        timestamp: Timestamp(t),
    };
    let sub = Subscription::identified(SubId(1), [(SensorId(1), ValueRange::new(0.0, 10.0))], DT)
        .unwrap();
    for latency in [LatencyModel::Zero, LatencyModel::Uniform { hop: 1 }] {
        let mut oracle = None;
        // every kind's 1-shard run comes first and is its oracle
        for (kind, shards) in EngineKind::ALL
            .into_iter()
            .flat_map(|kind| SHARDS.map(|shards| (kind, shards)))
        {
            let ctx = format!("{kind}/{latency:?}/{shards} shards");
            let build = || {
                kind.builder(topo.clone())
                    .validity(VALIDITY)
                    .seed(42)
                    .latency(latency.clone())
                    .shards(shards)
                    .heartbeat(PERIOD, TIMEOUT)
                    .build()
            };
            let mut e = build();
            e.set_auto_recover(false); // a false execution would stay visible
            e.inject_sensor(NodeId(0), adv);
            e.flush();
            e.inject_subscription(NodeId(5), sub.clone());
            e.flush();
            e.inject_event(NodeId(0), ev(100, 1_000));
            e.flush();
            e.run_until(e.now() + DETECT);
            assert!(
                e.suspicions().is_empty(),
                "{ctx}: healthy links must not breed suspicion: {:?}",
                e.suspicions()
            );

            e.sever_link(NodeId(2), NodeId(3)).unwrap();
            e.run_until(e.now() + DETECT);
            let suspicions = e.suspicions();
            assert!(
                suspicions
                    .iter()
                    .any(|&(o, s)| (o, s) == (NodeId(2), NodeId(3))
                        || (o, s) == (NodeId(3), NodeId(2))),
                "{ctx}: the starved observers never suspected across the cut: {suspicions:?}"
            );
            assert!(
                suspicions
                    .iter()
                    .all(|&(o, s)| (o.0 == 2 || o.0 == 3) && (s.0 == 2 || s.0 == 3)),
                "{ctx}: suspicion leaked past the cut's endpoints: {suspicions:?}"
            );
            // node 2 still pongs to node 1, node 3 to node 4 — unanimity
            // fails, nobody is executed, no recovery runs
            assert_eq!(
                e.recovery_stats().recoveries,
                0,
                "{ctx}: a live node was executed on a one-observer suspicion"
            );

            e.heal_link(NodeId(2), NodeId(3)).unwrap();
            e.run_until(e.now() + DETECT);
            assert!(
                e.suspicions().is_empty(),
                "{ctx}: the late pong did not re-admit the suspect: {:?}",
                e.suspicions()
            );
            assert_eq!(e.recovery_stats().recoveries, 0, "{ctx}");
            e.inject_event(NodeId(0), ev(101, 2_000));
            e.flush();

            // route intact: the same deliveries as a twin whose link never
            // wobbled (driven over the same clock so heartbeats align)
            let mut t = build();
            t.set_auto_recover(false);
            t.inject_sensor(NodeId(0), adv);
            t.flush();
            t.inject_subscription(NodeId(5), sub.clone());
            t.flush();
            t.inject_event(NodeId(0), ev(100, 1_000));
            t.flush();
            for _ in 0..3 {
                t.run_until(t.now() + DETECT);
            }
            t.inject_event(NodeId(0), ev(101, 2_000));
            t.flush();
            assert_eq!(
                e.deliveries(),
                t.deliveries(),
                "{ctx}: the suspicion episode cost deliveries"
            );
            let run = (e.deliveries().clone(), detection(e.as_ref()));
            if shards == 1 {
                oracle = Some(run.clone());
            }
            assert_eq!(Some(&run), oracle.as_ref(), "{ctx}: diverged from 1 shard");
        }
    }
}

/// The first beat index (of 10) at which `beat` drains a confirmation,
/// which must be n2's alone.
fn first_confirmation(mut beat: impl FnMut(u64) -> Vec<NodeId>) -> Option<u64> {
    (1..=10u64).find(|&k| {
        let confirmed = beat(k);
        assert!(
            confirmed.is_empty() || confirmed == [NodeId(2)],
            "{confirmed:?}"
        );
        !confirmed.is_empty()
    })
}

/// One beat count for every substrate: on `line(3)` with n2 crashed, the
/// heap (zero latency), the shards discipline (2 shards, one tick per hop)
/// and the async host's probe rounds confirm n2 on the same beat — also
/// when the timeout is a whole number of periods, where `elapsed > timeout`
/// decides.
#[test]
fn every_substrate_confirms_a_crash_on_the_same_beat() {
    let topo = builders::line(3);
    let config = PubSubConfig::fsf(VALIDITY, 42);
    for (period, timeout) in [(10, 25), (10, 20)] {
        let ctx = format!("heartbeat({period}, {timeout})");
        let mut rows = Vec::new();
        for (latency, shards) in [
            (LatencyModel::Zero, 1),
            (LatencyModel::Uniform { hop: 1 }, 2),
        ] {
            let mut sim = Simulator::build(topo.clone(), latency, shards, |id, _| {
                PubSubNode::new(id, config)
            });
            assert_eq!(sim.shards(), shards, "{ctx}");
            sim.set_liveness(period, timeout);
            sim.crash_and_regraft(NodeId(2), NodeId(1)).unwrap();
            rows.push(first_confirmation(|k| {
                sim.run_until(k * period);
                sim.take_confirmed_dead()
            }));
        }
        let host: NodeHost<PubSubNode> = NodeHost::spawn(
            &topo,
            &HostConfig {
                mode: HostMode::Executor { workers: 1 },
                mailbox: 8,
                latency: LatencyModel::Zero,
            },
            |id, _| PubSubNode::new(id, config),
        );
        host.set_liveness(period, timeout);
        host.crash_and_regraft(NodeId(2), NodeId(1), 0).unwrap();
        rows.push(first_confirmation(|_| {
            host.liveness_tick();
            host.take_confirmed_dead()
        }));
        host.shutdown();
        assert_eq!(rows, [Some(3); 3], "{ctx}: heap, shards, host");
    }
}
