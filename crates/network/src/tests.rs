//! Scheduler unit tests, as one table over shard counts: every case runs
//! on the heap (1) and on the shards discipline (2, 4), and the
//! management-plane script is additionally held equal to its 1-shard run.

use crate::{
    builders, Backend, ChargeKind, Ctx, DeliveryLog, LatencyModel, NodeBehavior, NodeId,
    RegraftDelta, Simulator, TrafficStats,
};
use fsf_model::{AttrId, ComplexEvent, Event, EventId, Point, SensorId, SubId, Timestamp};

const SHARDS: [usize; 3] = [1, 2, 4];

/// A flooding test behaviour: every locally injected number floods the
/// tree; nodes remember what they saw and when, and deliver each first
/// sighting to their local user. Its recovery action re-floods what it
/// originated (the skeleton of the advertisement re-flood protocol); its
/// link-up action offers the peer a fresh value.
#[derive(Debug, Default)]
pub(crate) struct Flood {
    pub(crate) seen: Vec<u64>,
    pub(crate) seen_at: Vec<u64>,
    originated: Vec<u64>,
    recoveries: Vec<RegraftDelta>,
    ups: Vec<NodeId>,
}

impl NodeBehavior for Flood {
    type Msg = u64;
    fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        if self.seen.contains(&msg) {
            return;
        }
        self.seen.push(msg);
        self.seen_at.push(ctx.now());
        let me = ctx.node();
        if from == me {
            self.originated.push(msg);
        }
        ctx.deliver(
            SubId(u64::from(me.0)),
            &ComplexEvent::new(vec![Event {
                id: EventId(msg),
                sensor: SensorId(1),
                attr: AttrId(0),
                location: Point::new(0.0, 0.0),
                value: 0.0,
                timestamp: Timestamp(msg),
            }]),
        );
        for n in ctx.neighbors().to_vec() {
            if n != from || from == me {
                ctx.send(n, msg, ChargeKind::Advertisement, 1);
            }
        }
    }
    fn on_recover(&mut self, delta: &RegraftDelta, ctx: &mut Ctx<'_, u64>) {
        self.recoveries.push(delta.clone());
        for &value in &self.originated {
            for n in ctx.neighbors().to_vec() {
                ctx.send(n, value, ChargeKind::Recovery, 1);
            }
        }
    }
    fn on_link_up(&mut self, peer: NodeId, ctx: &mut Ctx<'_, u64>) {
        self.ups.push(peer);
        ctx.send(
            peer,
            2000 + u64::from(ctx.node().0),
            ChargeKind::Recovery,
            1,
        );
    }
}

/// Bounces one message between two nodes forever.
#[derive(Debug)]
struct PingPong;
impl NodeBehavior for PingPong {
    type Msg = ();
    fn on_message(&mut self, from: NodeId, _: (), ctx: &mut Ctx<'_, ()>) {
        let to = if from == ctx.node() {
            ctx.neighbors()[0]
        } else {
            from
        };
        ctx.send(to, (), ChargeKind::Event, 1);
    }
}

pub(crate) fn flood_sim(
    topology: crate::Topology,
    latency: LatencyModel,
    shards: usize,
) -> Simulator<Flood> {
    Simulator::build(topology, latency, shards, |_, _| Flood::default())
}

/// A 2-ary tree of `n` nodes, `hop` ticks per link.
pub(crate) fn tree(n: usize, hop: u64, shards: usize) -> Simulator<Flood> {
    flood_sim(
        builders::balanced(n, 2),
        LatencyModel::Uniform { hop },
        shards,
    )
}

#[track_caller]
pub(crate) fn assert_conserved<B: NodeBehavior + Send>(sim: &Simulator<B>, what: &str)
where
    B::Msg: Send,
{
    assert_eq!(
        sim.scheduled_total(),
        sim.steps() + sim.dropped_from_queue() + sim.queue_depth() as u64,
        "conservation {what}"
    );
}

fn panic_message(run: impl FnOnce()) -> String {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_err();
    err.downcast_ref::<String>()
        .expect("string panic payload")
        .clone()
}

#[test]
fn build_selects_the_queue_by_shard_count() {
    for shards in [1, 4] {
        // through the alias and argument order `benchmark/` compiles against
        let mut net: Backend<Flood> = Backend::build(
            builders::balanced(31, 2),
            LatencyModel::Uniform { hop: 1 },
            shards,
            |_, _| Flood::default(),
        );
        assert_eq!(net.shards(), shards);
        net.inject(NodeId(0), 5);
        net.run_to_quiescence();
        assert_eq!(net.node(NodeId(30)).seen, vec![5]);
    }
}

#[test]
fn flood_reaches_every_node_once() {
    for shards in SHARDS {
        // zero latency: more than one shard coalesces to one calendar
        let mut sim = flood_sim(builders::balanced(15, 2), LatencyModel::Zero, shards);
        sim.inject_and_run(NodeId(7), 42);
        for n in 0..15u32 {
            assert_eq!(sim.node(NodeId(n)).seen, vec![42], "node n{n}");
        }
        // a tree floods over exactly n-1 links (back-edges suppressed)
        assert_eq!(sim.stats.adv_msgs(), 14);
        // zero latency: the virtual clock never moved
        assert_eq!(sim.now(), 0);
    }
}

#[test]
fn quiescence_returns_processed_count() {
    for shards in SHARDS {
        let mut sim = flood_sim(builders::line(4), LatencyModel::Zero, shards);
        let processed = sim.inject_and_run(NodeId(0), 1);
        // 1 local + 3 forwards
        assert_eq!(processed, 4);
        assert_eq!(sim.steps(), 4);
        assert_eq!(sim.run_to_quiescence(), 0, "already quiescent");
    }
}

#[test]
fn uniform_latency_advances_the_clock_by_distance() {
    // line 0-1-2-3, 5 ticks per hop: the flood front arrives at node k
    // at virtual time 5k
    for shards in SHARDS {
        let mut sim = flood_sim(builders::line(4), LatencyModel::Uniform { hop: 5 }, shards);
        sim.inject_and_run(NodeId(0), 9);
        for k in 0..4u64 {
            assert_eq!(sim.node(NodeId(k as u32)).seen_at, vec![5 * k], "node {k}");
        }
        assert_eq!(sim.now(), 15);
    }
}

#[test]
fn per_link_weights_shape_the_timeline() {
    // star: hub 0, leaves 1..=3; the 0-2 link is slow
    for shards in SHARDS {
        let model = LatencyModel::per_link(1, [(NodeId(0), NodeId(2), 10)]);
        let mut sim = flood_sim(builders::star(4), model, shards);
        sim.inject_and_run(NodeId(1), 5);
        assert_eq!(sim.node(NodeId(0)).seen_at, vec![1]);
        assert_eq!(sim.node(NodeId(3)).seen_at, vec![2]);
        assert_eq!(sim.node(NodeId(2)).seen_at, vec![11], "slow link");
    }
}

#[test]
fn run_until_pauses_mid_flight_without_loss_or_duplication() {
    // injecting during a paused in-flight flood neither drops nor
    // duplicates deliveries
    for shards in SHARDS {
        let mut sim = tree(15, 3, shards);
        sim.inject(NodeId(0), 1);
        let first = sim.run_until(4); // root + its two children have seen it
        assert!(first >= 3, "partial advancement handled {first}");
        assert!(sim.queue_depth() > 0, "flood must still be in flight");
        assert_eq!(sim.now(), 4);
        assert_conserved(&sim, "mid-flight");
        // inject a second flood while the first is paused in flight
        sim.inject(NodeId(14), 2);
        sim.run_to_quiescence();
        for n in 0..15u32 {
            let mut seen = sim.node(NodeId(n)).seen.clone();
            seen.sort_unstable();
            assert_eq!(seen, vec![1, 2], "node n{n} saw each flood exactly once");
        }
        assert_eq!(sim.stats.adv_msgs(), 2 * 14);
        assert_conserved(&sim, "at quiescence");
    }
}

#[test]
fn run_until_advances_the_clock_even_when_idle() {
    for shards in SHARDS {
        let mut sim = flood_sim(builders::line(2), LatencyModel::Zero, shards);
        assert_eq!(sim.run_until(100), 0);
        assert_eq!(sim.now(), 100);
        // a later injection is due at the advanced clock, and past times
        // clamp forward
        sim.inject_at(NodeId(0), 1, 50);
        sim.run_to_quiescence();
        assert_eq!(sim.node(NodeId(0)).seen_at, vec![100]);
    }
}

#[test]
fn run_until_stops_at_the_exact_event_boundary() {
    for shards in SHARDS {
        let mut sim = tree(31, 5, shards);
        sim.inject(NodeId(0), 1);
        // the root's children hear the flood at exactly t=5
        let before = sim.run_until(4);
        assert_eq!(before, 1, "{shards} shards: only the root by t=4");
        let at = sim.run_until(5);
        assert_eq!(at, 2, "{shards} shards: both children exactly at t=5");
        assert_eq!(sim.now(), 5);
        sim.run_to_quiescence();
        assert_conserved(&sim, "at quiescence");
    }
}

#[test]
fn conservation_holds_at_every_pause() {
    for shards in [1, 2, 4, 8] {
        let mut sim = tree(127, 2, shards);
        sim.inject(NodeId(3), 1);
        sim.inject_at(NodeId(77), 2, 4);
        for t in [1, 3, 6, 9, 50] {
            sim.run_until(t);
            assert_conserved(&sim, &format!("{shards} shards at t={t}"));
        }
    }
}

#[test]
fn zero_latency_is_fifo_ordered() {
    // two same-tick floods interleave in strict injection order: the
    // seq tie-break reproduces the legacy FIFO trace
    for shards in SHARDS {
        let mut sim = flood_sim(builders::line(3), LatencyModel::Zero, shards);
        sim.inject(NodeId(0), 1);
        sim.inject(NodeId(2), 2);
        sim.run_to_quiescence();
        // node 1 hears 1 first (seq order), node 0/2 their local value first
        assert_eq!(sim.node(NodeId(1)).seen, vec![1, 2]);
        assert_eq!(sim.node(NodeId(0)).seen, vec![1, 2]);
        assert_eq!(sim.node(NodeId(2)).seen, vec![2, 1]);
    }
}

#[test]
#[should_panic(expected = "not a neighbor")]
fn sending_to_non_neighbor_panics() {
    #[derive(Debug)]
    struct Bad;
    impl NodeBehavior for Bad {
        type Msg = ();
        fn on_message(&mut self, _: NodeId, _: (), ctx: &mut Ctx<'_, ()>) {
            ctx.send(NodeId(3), (), ChargeKind::Event, 1);
        }
    }
    let mut sim = Simulator::new(builders::line(4), |_, _| Bad);
    sim.inject_and_run(NodeId(0), ());
}

#[test]
fn runaway_protection_names_the_clock_and_queue_depth() {
    for shards in SHARDS {
        let mut sim = Simulator::build(
            builders::line(8),
            LatencyModel::Uniform { hop: 2 },
            shards,
            |_, _| PingPong,
        );
        sim.set_max_steps(100);
        let msg = panic_message(|| {
            sim.inject_and_run(NodeId(0), ());
        });
        assert!(msg.contains("exceeded 100 steps"), "got: {msg}");
        assert!(msg.contains("at virtual time"), "got: {msg}");
        assert!(msg.contains("with 1 messages queued"), "got: {msg}");
        assert!(msg.contains("forwarding loop"), "got: {msg}");
        assert!(msg.contains("hottest destination: n"), "got: {msg}");
        assert_eq!(msg.contains("queue depths: shard 0"), shards > 1, "{msg}");
    }
}

#[test]
fn runaway_report_depth_excludes_purged_messages() {
    // regression: the heap printed its physical length, tombstones of a
    // crash included, and panicked before crediting the handled steps
    for shards in SHARDS {
        let mut sim = tree(63, 4, shards);
        sim.inject(NodeId(0), 1);
        sim.run_until(5); // copies to n3..n6 in flight, due t=8
        sim.crash_and_regraft(NodeId(5), NodeId(2)).unwrap();
        assert_eq!(sim.dropped_from_queue(), 1, "the copy to n5 was purged");
        sim.set_max_steps(2);
        let msg = panic_message(|| {
            sim.run_to_quiescence();
        });
        let depth = sim.scheduled_total() - sim.steps() - sim.dropped_from_queue();
        assert!(depth > 0, "{shards} shards: traffic still in flight");
        assert!(
            msg.contains(&format!("with {depth} messages queued")),
            "{shards} shards: identity says {depth}, got: {msg}"
        );
        assert_conserved(&sim, &format!("after the trip at {shards} shards"));
    }
}

#[test]
fn unknown_node_id_panics_with_named_message() {
    for shards in SHARDS {
        let mut sim = tree(7, 1, shards);
        for msg in [
            panic_message(|| {
                let _ = sim.node(NodeId(7));
            }),
            panic_message(|| {
                let _ = sim.node_mut(NodeId(7));
            }),
        ] {
            assert!(msg.contains("unknown NodeId n7"), "got: {msg}");
            assert!(msg.contains("7 nodes"), "got: {msg}");
        }
    }
}

#[test]
fn crashed_node_drops_traffic_but_survivors_reroute() {
    // star: hub 0, leaves 1..4 — crash the hub onto leaf 1
    for shards in SHARDS {
        let mut sim = flood_sim(builders::star(5), LatencyModel::Zero, shards);
        sim.crash_and_regraft(NodeId(0), NodeId(1)).unwrap();
        assert!(sim.is_down(NodeId(0)));
        sim.inject_and_run(NodeId(2), 42);
        // the flood reaches every survivor via the new hub (leaf 1)…
        for n in [1u32, 2, 3, 4] {
            assert_eq!(sim.node(NodeId(n)).seen, vec![42], "node n{n}");
        }
        // …and the copy sent to the downed node is charged but dropped
        assert!(sim.node(NodeId(0)).seen.is_empty());
        assert!(sim.dropped_to_downed() >= 1);
        // injections at the corpse are swallowed, outside the queue ledger
        let (dropped, scheduled) = (sim.dropped_to_downed(), sim.scheduled_total());
        sim.inject_and_run(NodeId(0), 43);
        assert_eq!(sim.dropped_to_downed(), dropped + 1);
        assert_eq!(sim.scheduled_total(), scheduled);
        assert_conserved(&sim, "after an injection at a corpse");
    }
}

#[test]
fn steps_count_handled_messages_not_drops() {
    // line 0-1-2: crash the far end, flood from 0. The copy addressed
    // to the corpse is dropped, not processed — steps must not count it.
    for shards in SHARDS {
        let mut sim = flood_sim(builders::line(3), LatencyModel::Zero, shards);
        sim.crash_and_regraft(NodeId(2), NodeId(1)).unwrap();
        let processed = sim.inject_and_run(NodeId(0), 1);
        assert_eq!(processed, 2, "only n0 and n1 handled the flood");
        assert_eq!(sim.steps(), 2);
        assert_eq!(sim.dropped_to_downed(), 1);
        assert_eq!(sim.dropped_from_queue(), 1);
        assert_conserved(&sim, "with an arrival at a corpse");
    }
}

#[test]
fn regrafting_onto_a_downed_anchor_is_rejected() {
    // line 0-1-2-3: down node 1, then try to re-graft node 2's
    // survivors onto the corpse
    for shards in SHARDS {
        let mut sim = flood_sim(builders::line(4), LatencyModel::Zero, shards);
        sim.crash_and_regraft(NodeId(1), NodeId(2)).unwrap();
        assert!(sim.crash_and_regraft(NodeId(2), NodeId(1)).is_err());
        // a live anchor still works
        sim.crash_and_regraft(NodeId(2), NodeId(3)).unwrap();
        sim.inject_and_run(NodeId(0), 7);
        assert_eq!(sim.node(NodeId(3)).seen, vec![7], "0 reaches 3 via regraft");
    }
}

#[test]
fn crash_purges_in_flight_messages_to_the_corpse() {
    // pause a flood mid-flight, crash a node the front hasn't reached
    for shards in SHARDS {
        let mut sim = tree(63, 4, shards);
        sim.inject(NodeId(0), 1);
        sim.run_until(5); // n0 at 0, n1/n2 at 4; copies to n3..n6 due t=8
        assert_eq!(sim.queue_depth(), 4);
        sim.crash_and_regraft(NodeId(5), NodeId(2)).unwrap();
        assert!(sim.is_down(NodeId(5)));
        assert_eq!(sim.queue_depth(), 3, "in-flight copy purged");
        assert_eq!(sim.dropped_from_queue(), 1);
        assert_conserved(&sim, "right after the purge");
        sim.run_to_quiescence();
        assert!(sim.node(NodeId(5)).seen.is_empty(), "corpse heard nothing");
        // the flood front died with the purged copy — n5's children
        // (re-grafted onto n2) never hear it; re-flooding after a crash is
        // the recovery protocol's job, not the scheduler's
        assert!(sim.node(NodeId(11)).seen.is_empty());
        assert_conserved(&sim, &format!("at {shards} shards"));
    }
}

#[test]
fn run_recovery_schedules_on_the_virtual_clock_and_charges_recovery() {
    // line 0-1-2-3, 2 ticks per hop; node 0 floods its value, then the
    // relay n1 crashes before the flood passes it
    for shards in SHARDS {
        let mut sim = flood_sim(builders::line(4), LatencyModel::Uniform { hop: 2 }, shards);
        sim.inject(NodeId(0), 0);
        sim.run_until(1); // n0 handled it; the 0→1 copy is in flight
        let delta = sim.crash_and_regraft(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(delta.orphans, vec![NodeId(0)]);
        sim.run_recovery(&delta);
        // every survivor observed the delta exactly once…
        for n in [0u32, 2, 3] {
            assert_eq!(sim.node(NodeId(n)).recoveries, vec![delta.clone()]);
        }
        assert!(sim.node(NodeId(1)).recoveries.is_empty(), "corpse skipped");
        assert_conserved(&sim, "with recovery traffic in flight");
        sim.run_to_quiescence();
        // …and n0's recovery re-flood reached the re-grafted survivors,
        // two hops away on the new tree, at recovery-time + 2 hops
        assert_eq!(sim.node(NodeId(2)).seen, vec![0]);
        assert_eq!(sim.node(NodeId(3)).seen, vec![0]);
        assert_eq!(sim.node(NodeId(2)).seen_at, vec![1 + 2]);
        assert_eq!(sim.node(NodeId(3)).seen_at, vec![1 + 4]);
        assert!(
            sim.stats.recovery_msgs() >= 1,
            "recovery traffic is charged"
        );
        assert_conserved(&sim, "after recovery");
    }
}

#[test]
fn severed_link_drops_are_conserved_and_heal_restores_delivery() {
    for shards in SHARDS {
        let mut sim = tree(63, 4, shards);
        sim.sever_link(NodeId(0), NodeId(2)).unwrap();
        sim.inject_and_run(NodeId(0), 1);
        // the flood serves its own side and dies at the cut
        assert_eq!(sim.node(NodeId(1)).seen, vec![1]);
        assert!(sim.node(NodeId(2)).seen.is_empty(), "{shards} shards");
        assert_eq!(sim.dropped_severed(), 1);
        assert_eq!(sim.dropped_from_queue(), 1);
        assert_conserved(&sim, "across severed drops");
        // the far side keeps serving reachable traffic
        sim.inject_and_run(NodeId(6), 2);
        assert_eq!(sim.node(NodeId(2)).seen, vec![2]);
        assert_eq!(sim.node(NodeId(0)).seen, vec![1]);
        // heal: new traffic crosses again (the dropped floods stay dropped —
        // re-offering state is the on_link_up protocol, not the carrier's job)
        sim.heal_link(NodeId(0), NodeId(2)).unwrap();
        sim.inject_and_run(NodeId(0), 3);
        assert!(sim.node(NodeId(6)).seen.contains(&3), "{shards} shards");
        assert!(!sim.node(NodeId(6)).seen.contains(&1));
        assert_conserved(&sim, "after the heal");
    }
}

#[test]
fn in_flight_messages_at_sever_time_still_arrive() {
    // queued-or-dropped semantics: a message on the wire when the link
    // is cut was already transmitted and arrives; sends after the cut die
    for shards in SHARDS {
        let mut sim = flood_sim(builders::line(3), LatencyModel::Uniform { hop: 4 }, shards);
        sim.inject(NodeId(0), 1);
        sim.run_until(5); // the 1→2 copy is in flight, due at t=8
        sim.sever_link(NodeId(1), NodeId(2)).unwrap();
        sim.run_to_quiescence();
        assert_eq!(sim.node(NodeId(2)).seen, vec![1], "pre-cut copy arrives");
        assert_eq!(sim.dropped_severed(), 0);
    }
}

#[test]
fn heal_runs_on_link_up_on_both_endpoints() {
    for shards in SHARDS {
        let mut sim = tree(7, 1, shards);
        sim.sever_link(NodeId(0), NodeId(1)).unwrap();
        sim.heal_link(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(sim.node(NodeId(0)).ups, vec![NodeId(1)]);
        assert_eq!(sim.node(NodeId(1)).ups, vec![NodeId(0)]);
        assert!(sim.node(NodeId(2)).ups.is_empty());
        assert_eq!(sim.stats.recovery_msgs(), 2, "reconciliation is charged");
        assert_conserved(&sim, "with reconciliation traffic in flight");
        // healing a healthy link does not re-run reconciliation
        sim.heal_link(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(sim.node(NodeId(0)).ups.len(), 1);
        // a downed endpoint is skipped, its live peer still reconciles
        sim.sever_link(NodeId(2), NodeId(6)).unwrap();
        sim.crash_and_regraft(NodeId(6), NodeId(2)).unwrap();
        sim.heal_link(NodeId(2), NodeId(6)).unwrap();
        assert_eq!(sim.node(NodeId(2)).ups, vec![NodeId(6)]);
        assert!(sim.node(NodeId(6)).ups.is_empty());
        sim.run_to_quiescence();
        assert_conserved(&sim, "after reconciliation");
    }
}

#[test]
fn run_until_boundary_is_exact_across_a_sever_heal_interleaving() {
    // A heal re-enables a link whose latency lowers the conservative
    // bound — the lookahead must be recomputed before the next round, or
    // run_until(t) pops events past t.
    for shards in SHARDS {
        let mut sim = tree(31, 5, shards);
        // drops happen at schedule time, so cut before the root sends
        sim.sever_link(NodeId(0), NodeId(1)).unwrap();
        sim.inject(NodeId(0), 1);
        sim.run_until(4);
        // left child never hears flood 1; right child does at t=5
        let at = sim.run_until(5);
        assert_eq!(at, 1, "{shards} shards: only the right child at t=5");
        sim.run_to_quiescence(); // flush flood 1 through the right half
        assert!(sim.node(NodeId(1)).seen.is_empty());
        let resume = sim.now();
        sim.heal_link(NodeId(0), NodeId(1)).unwrap();
        sim.run_to_quiescence(); // the link-up offers cross and flood out
        let resume = resume.max(sim.now());
        sim.inject_at(NodeId(0), 2, resume + 1);
        // flood 2 reaches both children at exactly resume + 6
        let before = sim.run_until(resume + 5);
        assert_eq!(before, 1, "{shards} shards: only the root before that");
        assert_eq!(sim.now(), resume + 5, "{shards} shards: clock at horizon");
        let at_boundary = sim.run_until(resume + 6);
        assert_eq!(
            at_boundary, 2,
            "{shards} shards: both children exactly at the boundary"
        );
        sim.run_to_quiescence();
        assert!(sim.node(NodeId(1)).seen.contains(&2), "{shards} shards");
        assert_conserved(&sim, "after sever/heal");
    }
}

/// What one run of the management-plane script leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    stats: TrafficStats,
    deliveries: DeliveryLog,
    latencies: Vec<u64>,
    seen_at: Vec<Vec<u64>>,
    now: u64,
    ledger: [u64; 5],
}

/// Every management-plane verb once, with traffic in flight around each,
/// checking the conservation identity after every one of them.
fn management_plane_script(shards: usize) -> Outcome {
    let mut sim = tree(63, 3, shards);
    let step = |sim: &Simulator<Flood>, verb: &str| {
        assert_conserved(sim, &format!("after {verb} at {shards} shards"));
    };
    sim.note_injection(EventId(1), 0);
    sim.inject(NodeId(17), 1);
    sim.run_until(7);
    step(&sim, "a paused flood");
    // crash + purge with the front mid-tree, then a swallowed injection
    let delta = sim.crash_and_regraft(NodeId(5), NodeId(2)).unwrap();
    step(&sim, "crash + purge");
    let scheduled = sim.scheduled_total();
    sim.inject(NodeId(5), 9);
    assert_eq!(sim.scheduled_total(), scheduled, "never enqueued");
    step(&sim, "an injection at a downed node");
    sim.run_recovery(&delta);
    step(&sim, "run_recovery");
    sim.run_until(12);
    step(&sim, "recovery racing the flood");
    // partition under load: a second flood starts, the cut lands mid-flight
    sim.note_injection(EventId(2), sim.now());
    sim.inject(NodeId(40), 2);
    sim.run_until(15);
    sim.sever_link(NodeId(1), NodeId(3)).unwrap();
    step(&sim, "sever");
    sim.run_to_quiescence();
    assert!(sim.dropped_severed() > 0, "the cut ate part of flood 2");
    step(&sim, "draining against the cut");
    sim.heal_link(NodeId(1), NodeId(3)).unwrap();
    step(&sim, "heal + on_link_up");
    sim.run_to_quiescence();
    step(&sim, "reconciliation");
    assert_eq!(sim.queue_depth(), 0);
    // management-plane deliveries land in the merged log directly, pumped
    // ones drain shard by shard: same samples, shard-major order
    let mut latencies = sim.deliveries.latency_samples().to_vec();
    latencies.sort_unstable();
    Outcome {
        latencies,
        seen_at: (0..63)
            .map(|n| sim.node(NodeId(n)).seen_at.clone())
            .collect(),
        now: sim.now(),
        ledger: [
            sim.scheduled_total(),
            sim.steps(),
            sim.dropped_from_queue(),
            sim.dropped_to_downed(),
            sim.dropped_severed(),
        ],
        stats: sim.stats,
        deliveries: sim.deliveries,
    }
}

#[test]
fn management_plane_verbs_conserve_and_match_the_one_shard_run() {
    let oracle = management_plane_script(1);
    assert!(
        oracle.deliveries.complex_deliveries() > 63,
        "users were served"
    );
    assert!(oracle.stats.recovery_msgs() > 0);
    for shards in [2, 4] {
        assert_eq!(management_plane_script(shards), oracle, "{shards} shards");
    }
}

/// Run a heartbeat `script` on `line(3)` at every shard count under both
/// latency models (zero latency coalesces to one calendar; one tick per hop
/// really splits the line), and hold each run's suspicions, the
/// confirmations the script drained, its steps and its heartbeat traffic
/// equal to the 1-shard run's.
fn heartbeat_rows(script: impl Fn(&mut Simulator<Flood>, &str) -> Vec<NodeId>) {
    for latency in [LatencyModel::Zero, LatencyModel::Uniform { hop: 1 }] {
        let mut oracle = None;
        for shards in SHARDS {
            let ctx = format!("{latency:?} at {shards} shards");
            let mut sim = flood_sim(builders::line(3), latency.clone(), shards);
            sim.set_liveness(10, 25);
            let confirmed = script(&mut sim, &ctx);
            assert_conserved(&sim, &format!("{ctx} with heartbeat traffic in the ledger"));
            assert!(
                sim.stats.liveness_msgs() > 0,
                "{ctx}: heartbeats are charged"
            );
            let run = (
                sim.suspicions(),
                confirmed,
                sim.steps(),
                sim.stats.liveness_msgs(),
            );
            assert_eq!(&run, oracle.get_or_insert_with(|| run.clone()), "{ctx}");
        }
    }
}

#[test]
fn heartbeats_confirm_a_crashed_node_and_clear_false_suspicion() {
    // enable liveness, crash n2, drive time past the timeout — n1 (its
    // only live neighbor) must confirm it dead
    heartbeat_rows(|sim, ctx| {
        sim.crash_and_regraft(NodeId(2), NodeId(1)).unwrap();
        sim.run_until(100);
        assert!(sim.suspicions().contains(&(NodeId(1), NodeId(2))), "{ctx}");
        let confirmed = sim.take_confirmed_dead();
        assert_eq!(confirmed, vec![NodeId(2)], "{ctx}");
        assert!(sim.take_confirmed_dead().is_empty(), "{ctx}: drained once");
        // healthy pairs never suspected each other
        assert!(!sim.suspicions().contains(&(NodeId(0), NodeId(1))), "{ctx}");
        confirmed
    });
}

#[test]
fn false_suspicion_across_a_severed_link_clears_after_heal() {
    // partition a live leaf: its neighbor falsely confirms it dead; after
    // heal the next pong re-admits it with no state change
    heartbeat_rows(|sim, ctx| {
        sim.sever_link(NodeId(1), NodeId(2)).unwrap();
        sim.run_until(100);
        assert!(sim.suspicions().contains(&(NodeId(1), NodeId(2))), "{ctx}");
        assert!(sim.suspicions().contains(&(NodeId(2), NodeId(1))), "{ctx}");
        let confirmed = sim.take_confirmed_dead();
        assert_eq!(
            confirmed,
            vec![NodeId(2)],
            "{ctx}: a severed leaf is indistinguishable from a corpse — the \
             engine layer must intersect with real crash records"
        );
        sim.heal_link(NodeId(1), NodeId(2)).unwrap();
        sim.run_until(200);
        assert!(
            sim.suspicions().is_empty(),
            "{ctx}: pongs cleared both directions"
        );
        assert!(sim.take_confirmed_dead().is_empty(), "{ctx}");
        // suspicion is observation, not mutation: the only thing n2 ever
        // heard is its peer's link-up offer
        assert_eq!(sim.node(NodeId(2)).seen, vec![2001], "{ctx}");
        confirmed
    });
}

#[test]
fn heartbeats_run_on_the_shards_discipline() {
    // a healthy tree really split across shards: beats ride the round
    // barrier, no link is ever suspected, and the clock only moves with
    // the horizon
    for shards in SHARDS {
        let mut sim = tree(31, 1, shards);
        assert_eq!(sim.shards(), shards);
        sim.set_liveness(10, 25);
        sim.inject(NodeId(0), 1);
        sim.run_to_quiescence();
        assert_eq!(sim.now(), 4, "{shards} shards: the flood's last hop");
        sim.run_until(100);
        assert_eq!(sim.now(), 100);
        assert!(sim.suspicions().is_empty(), "{shards} shards");
        assert!(sim.take_confirmed_dead().is_empty(), "{shards} shards");
        // ten beats ping both ways over 30 links; the last beat's pings
        // are still in flight at the horizon, so nine beats' pongs
        assert_eq!(
            sim.stats.liveness_msgs(),
            (10 + 9) * 2 * 30,
            "{shards} shards"
        );
        assert_conserved(&sim, &format!("{shards} shards"));
    }
}

#[test]
fn a_flood_down_a_long_line_runs_in_few_rounds() {
    // 256 nodes cut into 144 + 112; the flood starts at node 0, 143 hops
    // from the cut. Each round's cap credits the hops the flood still
    // has to walk before it can cross, so the count is a pure function of
    // the line and the hop latency.
    let mut sim = flood_sim(builders::line(256), LatencyModel::Uniform { hop: 1 }, 2);
    assert_eq!(sim.shards(), 2);
    sim.inject(NodeId(0), 7);
    sim.run_to_quiescence();
    assert_eq!(sim.node(NodeId(255)).seen_at, vec![255]);
    let rounds = sim.shard_queue().rounds();
    assert_eq!(rounds, 7);
    // the head-only bound let a shard advance two ticks a round: 128 rounds
    assert!(2 * rounds <= 128);
}
