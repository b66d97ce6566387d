//! Per-layer probes: calls into one crate's public functions, timed from
//! here, on inputs harvested from the workload being run. Each probe does a
//! fixed, small amount of work, so a traced run stays inside its time cap.
//! A metric that does not apply to a workload reads 0.

use crate::script::{run_pass, Counters, EngineCfg, Inject, Spec, Step};
use crate::spans::Tracer;
use crate::stats::ratio;
use crate::workloads::threads;
use fsf::core::{EventStore, PubSubConfig, PubSubMsg, PubSubNode};
use fsf::dynamics::ChurnAction;
use fsf::engines::{EngineKind, MatchMode};
use fsf::model::{Advertisement, DimKey, Event, Operator};
use fsf::network::{
    builders, Backend, ChargeKind, Ctx, DeliveryLog, LatencyModel, NodeBehavior, NodeId, Simulator,
    Topology,
};
use fsf::runtime::{HostConfig, HostLedger, HostMode, NodeHost, WireMsg};
use fsf::subsumption::{FilterPolicy, OperatorTable, SetFilterConfig, SubscriptionFilter};
use fsf::telemetry::{Recorder, TelemetryEvent};
use fsf::workload::RelayFlood;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Metric name → value, filled by the probes.
pub type Values = BTreeMap<&'static str, f64>;

/// The workload's own operators, readings, frames and advertisements.
struct Harvest {
    ops: Vec<Operator>,
    readings: Vec<Event>,
    /// The readings of one timed step, as one `Events` frame each.
    frames: Vec<Vec<Event>>,
    adverts: Vec<(NodeId, Advertisement)>,
    delta_t: u64,
}

impl Harvest {
    fn of(spec: &Spec) -> Harvest {
        let mut h = Harvest {
            ops: Vec::new(),
            readings: Vec::new(),
            frames: Vec::new(),
            adverts: Vec::new(),
            delta_t: 1,
        };
        for step in spec.setup.iter().chain(&spec.timed) {
            let mut frame = Vec::new();
            for inject in &step.injects {
                match inject {
                    Inject::Action(ChurnAction::Subscribe { sub, .. }) => {
                        h.delta_t = h.delta_t.max(sub.delta_t());
                        h.ops.push(Operator::from_subscription(sub));
                    }
                    Inject::Action(ChurnAction::SensorUp { node, adv }) => {
                        h.adverts.push((*node, *adv));
                    }
                    Inject::Action(ChurnAction::Publish { event, .. }) => frame.push(*event),
                    Inject::Frame(_, events) => frame.extend(events),
                    Inject::Action(_) => {}
                }
            }
            if !frame.is_empty() && h.frames.len() < 256 {
                h.readings.extend(&frame);
                h.frames.push(frame);
            }
        }
        h.ops.truncate(10_000);
        h.readings.truncate(4_096);
        h
    }
}

fn ns_per(elapsed: std::time::Duration, n: usize) -> f64 {
    ratio(elapsed.as_nanos() as f64, n as f64)
}

/// Run every probe; `tracer` gets one span per probe. The probes that
/// replay the workload through another backend or engine use `quick`, its
/// `--quick`-size edition from the same seed (a `Recorder` keeps every
/// message's lifecycle in memory). Returns the `Recorder` reconciliation
/// verdict.
pub fn probe_all(
    spec: &Spec,
    quick: &Spec,
    tracer: &mut Tracer,
    out: &mut Values,
) -> Result<(), String> {
    let h = Harvest::of(spec);
    tracer.span("subsumption.table_probe", 0, || table_probe(&h, out));
    tracer.span("subsumption.filter_probe", 0, || {
        filter_probe(&h, spec.cfg.seed, out)
    });
    tracer.span("core.store_probe", 0, || {
        store_probe(&h, spec.cfg.validity, out)
    });
    tracer.span("core.handler_probe", 0, || {
        handler_probe(&h, &spec.cfg, out)
    });
    tracer.span("network.flood_probe", 0, || flood_probe(out));
    tracer.span("runtime.codec_probe", 0, || codec_probe(&h, out));
    tracer.span("runtime.host_flood_probe", 0, || {
        host_flood_probe(spec, &h, out)
    });
    tracer.span("engines.bare_replay_probe", 0, || {
        bare_replay_probe(quick, out)
    });
    tracer.span("engines.baselines_probe", 0, || baselines_probe(quick, out));
    tracer
        .span("telemetry.recorder_probe", 0, || recorder_probe(quick, out))
        .0
}

/// `OperatorTable` loaded with the workload's operators: candidate queries
/// in both match modes over the workload's readings, and the control-plane
/// side (insert, remove, the lazy rebuild the next stab pays for).
fn table_probe(h: &Harvest, out: &mut Values) {
    let mut table = OperatorTable::new();
    let started = Instant::now();
    for op in &h.ops {
        table.insert(op.clone());
    }
    out.insert(
        "subsumption.insert_ns",
        ns_per(started.elapsed(), h.ops.len()),
    );

    let dims = |e: &Event| [DimKey::Sensor(e.sensor), DimKey::Attr(e.attr)];
    let readings = &h.readings[..h.readings.len().min(2_048)];
    if let Some(e) = readings.first() {
        black_box(table.candidates_for(MatchMode::Arrangement, &dims(e)[0], e));
        // rebuild
    }
    let (mut stabs, mut candidates) = (0usize, 0usize);
    let started = Instant::now();
    for e in readings {
        for d in dims(e) {
            candidates += black_box(table.candidates_for(MatchMode::Arrangement, &d, e)).len();
            stabs += 1;
        }
    }
    out.insert("subsumption.stab_ns", ns_per(started.elapsed(), stabs));
    out.insert(
        "subsumption.candidates_per_stab",
        ratio(candidates as f64, stabs as f64),
    );

    let scanned = &readings[..readings.len().min(256)];
    let started = Instant::now();
    for e in scanned {
        for d in dims(e) {
            black_box(table.candidates_for(MatchMode::LinearScan, &d, e));
        }
    }
    out.insert(
        "subsumption.scan_ns",
        ns_per(started.elapsed(), 2 * scanned.len()),
    );

    let (mut remove, mut rebuild) = (std::time::Duration::ZERO, std::time::Duration::ZERO);
    let victims: Vec<&Operator> = h.ops.iter().step_by((h.ops.len() / 64).max(1)).collect();
    for (op, e) in victims.iter().zip(readings.iter().cycle()) {
        let t = Instant::now();
        black_box(table.remove(&op.key()));
        remove += t.elapsed();
        let t = Instant::now();
        black_box(table.candidates_for(MatchMode::Arrangement, &dims(e)[0], e));
        rebuild += t.elapsed();
        table.insert((*op).clone());
    }
    out.insert("subsumption.remove_ns", ns_per(remove, victims.len()));
    out.insert(
        "subsumption.rebuild_stab_ns",
        ns_per(rebuild, victims.len()),
    );
}

/// Algorithm 2 over the workload's operators in registration order: each
/// is offered against the uncovered operators of its signature so far.
fn filter_probe(h: &Harvest, seed: u64, out: &mut Values) {
    let mut filter = SubscriptionFilter::new(
        FilterPolicy::SetFilter(SetFilterConfig::paper_default()),
        seed,
    );
    let mut uncovered = OperatorTable::new();
    let offered = &h.ops[..h.ops.len().min(1_000)];
    let mut covered = 0usize;
    let started = Instant::now();
    for op in offered {
        if filter.is_covered(op, &uncovered.group(&op.signature())) {
            covered += 1;
        } else {
            uncovered.insert(op.clone());
        }
    }
    out.insert(
        "subsumption.set_filter_ns",
        ns_per(started.elapsed(), offered.len()),
    );
    out.insert(
        "subsumption.covered_ratio",
        ratio(covered as f64, offered.len() as f64),
    );
}

/// `EventStore` fed the workload's readings: insertion (with expiry) and
/// the correlation-band query the join runs per reading.
fn store_probe(h: &Harvest, validity: u64, out: &mut Values) {
    let mut store = EventStore::new(validity);
    let started = Instant::now();
    for e in &h.readings {
        black_box(store.insert(*e));
    }
    out.insert(
        "core.event_store_insert_ns",
        ns_per(started.elapsed(), h.readings.len()),
    );
    let probes = &h.readings[h.readings.len().saturating_sub(512)..];
    let mut in_band = 0usize;
    let started = Instant::now();
    for e in probes {
        in_band += black_box(store.correlation_band(e.timestamp, h.delta_t)).len();
    }
    out.insert(
        "core.correlation_band_ns",
        ns_per(started.elapsed(), probes.len()),
    );
    out.insert(
        "core.window_events",
        ratio(in_band as f64, probes.len() as f64),
    );
}

/// Drive one `PubSubNode` by hand through `Ctx::external`.
struct Bench {
    node: PubSubNode,
    neighbors: Vec<NodeId>,
    outbox: Vec<(NodeId, PubSubMsg, ChargeKind, u64)>,
    log: DeliveryLog,
}

impl Bench {
    fn new(cfg: &EngineCfg, neighbors: &[u32]) -> Bench {
        Bench {
            node: PubSubNode::new(NodeId(0), PubSubConfig::fsf(cfg.validity, cfg.seed)),
            neighbors: neighbors.iter().map(|&n| NodeId(n)).collect(),
            outbox: Vec::new(),
            log: DeliveryLog::new(),
        }
    }

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

/// The node handler alone: a gateway holding every workload operator for
/// its local users is fed the workload's `Events` frames from its one
/// neighbour; a relay between two neighbours is fed the operators.
fn handler_probe(h: &Harvest, cfg: &EngineCfg, out: &mut Values) {
    let mut gateway = Bench::new(cfg, &[1]);
    for (_, adv) in &h.adverts {
        gateway.handle(1, PubSubMsg::Adv(*adv), 0);
    }
    for op in &h.ops {
        gateway.handle(0, PubSubMsg::Operator(op.clone()), 0);
    }
    let frames = &h.frames[..h.frames.len().min(128)];
    let events: usize = frames.iter().map(Vec::len).sum();
    let started = Instant::now();
    for frame in frames {
        let now = frame.last().map_or(0, |e| e.timestamp.0);
        gateway.handle(1, PubSubMsg::Events(frame.clone()), now);
    }
    let elapsed = started.elapsed();
    out.insert(
        "core.handler_us_per_frame",
        ns_per(elapsed, frames.len()) / 1e3,
    );
    out.insert("core.handler_us_per_event", ns_per(elapsed, events) / 1e3);

    let mut relay = Bench::new(cfg, &[1, 2]);
    for (_, adv) in &h.adverts {
        relay.handle(1, PubSubMsg::Adv(*adv), 0);
    }
    let forwarded = &h.ops[..h.ops.len().min(1_000)];
    let started = Instant::now();
    for op in forwarded {
        relay.handle(2, PubSubMsg::Operator(op.clone()), 0);
    }
    out.insert(
        "core.operator_handler_us",
        ns_per(started.elapsed(), forwarded.len()) / 1e3,
    );
}

/// The scheduler alone: a relay flood (every message fans out over the
/// whole tree) on the single heap and on `T` shards.
fn flood_probe(out: &mut Values) {
    let run = |shards: usize| {
        let mut net = Backend::build(
            builders::balanced((1 << 13) - 1, 2),
            LatencyModel::Uniform { hop: 2 },
            shards,
            |_, _| RelayFlood::default(),
        );
        for f in 0..16u64 {
            net.inject(NodeId((f * 511) as u32), f);
        }
        let started = Instant::now();
        net.run_to_quiescence();
        ratio(net.steps() as f64, started.elapsed().as_secs_f64())
    };
    let (single, sharded) = (run(1), run(threads()));
    out.insert("network.sim_steps_per_s", single);
    out.insert("network.shard_steps_per_s", sharded);
    out.insert("network.shard_speedup", ratio(sharded, single));
}

/// The wire codec on the workload's `Events` frames.
fn codec_probe(h: &Harvest, out: &mut Values) {
    let msgs: Vec<PubSubMsg> = h
        .frames
        .iter()
        .map(|f| PubSubMsg::Events(f.clone()))
        .collect();
    let events: usize = h.frames.iter().map(Vec::len).sum();
    let started = Instant::now();
    let frames: Vec<_> = msgs.iter().map(|m| black_box(m.to_frame())).collect();
    out.insert(
        "runtime.encode_ns_per_frame",
        ns_per(started.elapsed(), msgs.len()),
    );
    let bytes: usize = frames.iter().map(|f| f.len()).sum();
    out.insert(
        "runtime.frame_bytes_per_event",
        ratio(bytes as f64, events as f64),
    );
    let started = Instant::now();
    for frame in &frames {
        black_box(PubSubMsg::from_frame(frame.clone()));
    }
    out.insert(
        "runtime.decode_ns_per_frame",
        ns_per(started.elapsed(), frames.len()),
    );
    // adjacent frames bound for one peer merge pairwise
    let pairs: Vec<(PubSubMsg, PubSubMsg)> = msgs
        .chunks_exact(2)
        .map(|p| (p[0].clone(), p[1].clone()))
        .collect();
    let n = pairs.len();
    let started = Instant::now();
    for (mut a, b) in pairs {
        black_box(a.coalesce(b).is_ok());
    }
    out.insert("runtime.coalesce_ns", ns_per(started.elapsed(), n));
}

fn spawn_host(topology: &Topology, cfg: &EngineCfg) -> NodeHost<PubSubNode> {
    let config = HostConfig {
        mode: HostMode::Executor { workers: threads() },
        mailbox: 64,
        latency: LatencyModel::Uniform { hop: 1 },
    };
    let node_cfg = PubSubConfig::fsf(cfg.validity, cfg.seed);
    NodeHost::spawn(topology, &config, |id, _| PubSubNode::new(id, node_cfg))
}

/// Advertisement floods through a bare `NodeHost`: every hop pays encode,
/// mailbox send, executor wake and decode, and the handler does almost
/// nothing.
fn host_flood_probe(spec: &Spec, h: &Harvest, out: &mut Values) {
    let big = builders::balanced((1 << 11) - 1, 2);
    let topology = if spec.topology.len() <= big.len() {
        &spec.topology
    } else {
        &big
    };
    let host = spawn_host(topology, &spec.cfg);
    let started = Instant::now();
    for (i, (_, adv)) in h.adverts.iter().take(32).enumerate() {
        let node = NodeId((i * 37 % topology.len()) as u32);
        host.inject(node, &PubSubMsg::SensorUp(*adv), 0);
    }
    host.wait_quiescent();
    let elapsed = started.elapsed().as_secs_f64();
    out.insert(
        "runtime.host_msgs_per_s",
        ratio(host.ledger().handled as f64, elapsed),
    );
    host.shutdown();
}

/// What a bare backend needs to replay a step.
trait BareNet {
    fn put(&mut self, node: NodeId, msg: PubSubMsg);
    fn note(&mut self, event: &Event);
    fn drain(&mut self);
}

impl BareNet for Simulator<PubSubNode> {
    fn put(&mut self, node: NodeId, msg: PubSubMsg) {
        self.inject(node, msg);
    }
    fn note(&mut self, event: &Event) {
        let now = self.now();
        self.deliveries.note_injection(event.id, now);
    }
    fn drain(&mut self) {
        self.run_to_quiescence();
    }
}

impl BareNet for NodeHost<PubSubNode> {
    fn put(&mut self, node: NodeId, msg: PubSubMsg) {
        self.inject(node, &msg, self.clock());
    }
    fn note(&mut self, event: &Event) {
        self.note_injection(event.id, self.clock());
    }
    fn drain(&mut self) {
        self.wait_quiescent();
    }
}

/// The step as raw node messages, or `None` when it needs the engine's
/// management plane (moves, crashes, links).
fn raw_messages(step: &Step) -> Option<Vec<(NodeId, PubSubMsg)>> {
    step.injects
        .iter()
        .map(|inject| {
            Some(match inject {
                Inject::Frame(node, events) => (*node, PubSubMsg::Events(events.clone())),
                Inject::Action(a) => match a {
                    ChurnAction::SensorUp { node, adv } => (*node, PubSubMsg::SensorUp(*adv)),
                    ChurnAction::SensorDown { node, sensor } => {
                        (*node, PubSubMsg::SensorDown(*sensor))
                    }
                    ChurnAction::Subscribe { node, sub } => {
                        (*node, PubSubMsg::Subscribe(sub.clone()))
                    }
                    ChurnAction::Unsubscribe { node, sub } => (*node, PubSubMsg::Unsubscribe(*sub)),
                    ChurnAction::Publish { node, event } => (*node, PubSubMsg::Publish(*event)),
                    _ => return None,
                },
            })
        })
        .collect()
}

/// Seconds a bare backend takes for the timed part of `steps`.
fn bare_replay(net: &mut dyn BareNet, setup: &[Step], timed: &[Step]) -> f64 {
    let mut run = |steps: &[Step]| {
        for step in steps {
            for (node, msg) in raw_messages(step).expect("prefix was checked") {
                match &msg {
                    PubSubMsg::Publish(e) => net.note(e),
                    PubSubMsg::Events(events) => events.iter().for_each(|e| net.note(e)),
                    _ => {}
                }
                net.put(node, msg);
            }
            net.drain();
        }
    };
    run(setup);
    let started = Instant::now();
    run(timed);
    started.elapsed().as_secs_f64()
}

/// The timed steps up to the first one that needs the engine's management
/// plane (at most 40): what a bare backend can replay.
fn plain_prefix(spec: &Spec) -> &[Step] {
    let n = spec
        .timed
        .iter()
        .take(40)
        .take_while(|s| raw_messages(s).is_some())
        .count();
    &spec.timed[..n]
}

/// The workload's configuration on the simulator (the async workload's
/// simulator twin): what telemetry sinks and the other engines support.
fn simulator_cfg(spec: &Spec) -> EngineCfg {
    if spec.cfg.is_simulator() {
        spec.cfg.clone()
    } else {
        spec.exact_twin.cfg.clone()
    }
}

/// The same messages through the engine facade, a bare `Simulator` and a
/// bare `NodeHost`: what the wrapper costs, what the host costs, and the
/// host's ledger for the prefix. Reads 0 when fewer than four timed steps
/// precede the first move or crash.
fn bare_replay_probe(quick: &Spec, out: &mut Values) {
    let prefix = plain_prefix(quick);
    let plain_setup = quick.setup.iter().all(|s| raw_messages(s).is_some());
    if prefix.len() < 4 || !plain_setup {
        for name in [
            "engines.wrapper_overhead_ratio",
            "runtime.host_overhead_ratio",
            "runtime.parks",
            "runtime.wire_frames",
            "runtime.wire_bytes_per_event",
            "runtime.coalesced_share",
        ] {
            out.insert(name, 0.0);
        }
        return;
    }
    let cfg = EngineCfg {
        shards: 1,
        latency: LatencyModel::Zero,
        ..simulator_cfg(quick)
    };
    let node_cfg = PubSubConfig::fsf(cfg.validity, cfg.seed);
    let mut sim = Simulator::new(quick.topology.clone(), |id, _| {
        PubSubNode::new(id, node_cfg)
    });
    let bare_s = bare_replay(&mut sim, &quick.setup, prefix);
    let mut off = Tracer::new(false);
    let engine_s = run_pass(quick, &cfg, prefix.len(), &mut off, None).timed_s();
    out.insert("engines.wrapper_overhead_ratio", ratio(engine_s, bare_s));

    let mut host = spawn_host(&quick.topology, &cfg);
    bare_replay(&mut host, &quick.setup, &[]);
    let before: HostLedger = host.ledger();
    let host_s = bare_replay(&mut host, &[], prefix);
    let ledger = host.ledger();
    host.shutdown();
    let readings: u64 = prefix.iter().map(Step::readings).sum();
    let frames = ledger.wire_frames - before.wire_frames;
    let absorbed = ledger.coalesced_frames - before.coalesced_frames;
    out.insert("runtime.host_overhead_ratio", ratio(host_s, bare_s));
    out.insert("runtime.parks", (ledger.parks - before.parks) as f64);
    out.insert("runtime.wire_frames", frames as f64);
    out.insert(
        "runtime.wire_bytes_per_event",
        ratio(
            (ledger.wire_bytes - before.wire_bytes) as f64,
            readings as f64,
        ),
    );
    out.insert(
        "runtime.coalesced_share",
        ratio(absorbed as f64, (frames + absorbed) as f64),
    );
}

/// The paper's two headlines against the baselines, same inputs: event
/// units Filter-Split-Forward forwards as a share of the distributed
/// multi-join's, and units it delivers as a share of the exact naive
/// engine's (what the probabilistic set filter loses).
fn baselines_probe(quick: &Spec, out: &mut Values) {
    let run = |kind: EngineKind| {
        let cfg = EngineCfg {
            kind,
            ..simulator_cfg(quick)
        };
        let mut off = Tracer::new(false);
        let pass = run_pass(quick, &cfg, quick.timed.len(), &mut off, None);
        Counters::read(pass.engine.as_ref())
    };
    let fsf = run(EngineKind::FilterSplitForward);
    out.insert(
        "engines.event_units_vs_multijoin",
        ratio(
            fsf.event_units as f64,
            run(EngineKind::MultiJoin).event_units as f64,
        ),
    );
    out.insert(
        "engines.recall_vs_naive",
        ratio(
            fsf.delivered_units as f64,
            run(EngineKind::Naive).delivered_units as f64,
        ),
    );
}

/// The existing `Recorder` sink: what it costs, how much it records, how
/// long the JSONL export takes, what its shard-round profiles say — and
/// whether its counts reconcile with the simulator's ledger.
fn recorder_probe(quick: &Spec, out: &mut Values) -> Result<(), String> {
    let cfg = simulator_cfg(quick);
    let mut off = Tracer::new(false);
    let dark = run_pass(quick, &cfg, quick.timed.len(), &mut off, None);
    let recorder = Recorder::new();
    let lit = run_pass(quick, &cfg, quick.timed.len(), &mut off, Some(&recorder));
    out.insert(
        "telemetry.recorder_overhead_ratio",
        ratio(lit.timed_s(), dark.timed_s()),
    );
    out.insert("telemetry.events_recorded", recorder.len() as f64);
    let started = Instant::now();
    black_box(recorder.to_jsonl());
    out.insert(
        "telemetry.export_jsonl_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );

    let (mut rounds, mut drained, mut capped) = (0u64, 0u64, 0u64);
    for event in recorder.events() {
        if let TelemetryEvent::ShardRound {
            drained: d,
            capped_by_neighbor,
            ..
        } = event
        {
            rounds += 1;
            drained += d;
            capped += u64::from(capped_by_neighbor);
        }
    }
    out.insert("network.shard_rounds", rounds as f64);
    out.insert(
        "network.shard_drained_per_round",
        ratio(drained as f64, rounds as f64),
    );
    out.insert(
        "network.shard_neighbor_capped_share",
        ratio(capped as f64, rounds as f64),
    );

    let c = Counters::read(lit.engine.as_ref());
    recorder.reconcile(
        c.scheduled_total,
        c.steps,
        c.dropped_from_queue,
        c.complex_deliveries,
    )
}
