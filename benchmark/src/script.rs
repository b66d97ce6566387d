//! A workload as data: a topology, an engine configuration, and two lists of
//! steps (set-up and timed). One step is a handful of injections followed by
//! one `flush()` to quiescence — the closed loop of `fsf_workload::driver`,
//! one client, a round at a time. Everything here is generic over the five
//! workloads; `workloads.rs` only builds [`Spec`]s.

use crate::spans::Tracer;
use fsf::dynamics::{apply_action, ChurnAction};
use fsf::engines::{Deploy, Engine, EngineKind, MatchMode};
use fsf::model::Event;
use fsf::network::{DeliveryLog, LatencyModel, NodeId, Topology};
use fsf::telemetry::Recorder;

/// One injection (no flush).
#[derive(Debug, Clone)]
pub enum Inject {
    /// Anything `fsf_dynamics::apply_action` can apply.
    Action(ChurnAction),
    /// One framed multi-event injection (`Engine::inject_events`).
    Frame(NodeId, Vec<Event>),
}

/// Injections followed by one flush: the unit of latency (a "round").
#[derive(Debug, Clone)]
pub struct Step {
    pub injects: Vec<Inject>,
}

impl Step {
    pub fn action(a: ChurnAction) -> Step {
        Step {
            injects: vec![Inject::Action(a)],
        }
    }

    /// One measurement round: every reading injected, then one flush.
    pub fn round(readings: &[(NodeId, Event)]) -> Step {
        Step {
            injects: readings
                .iter()
                .map(|&(node, event)| Inject::Action(ChurnAction::Publish { node, event }))
                .collect(),
        }
    }

    pub fn frame(node: NodeId, events: Vec<Event>) -> Step {
        Step {
            injects: vec![Inject::Frame(node, events)],
        }
    }

    /// Readings this step publishes.
    pub fn readings(&self) -> u64 {
        self.injects
            .iter()
            .map(|i| match i {
                Inject::Action(ChurnAction::Publish { .. }) => 1,
                Inject::Action(_) => 0,
                Inject::Frame(_, events) => events.len() as u64,
            })
            .sum()
    }

    /// The step's class: `publish` for data-plane steps, otherwise the
    /// control verb of its first non-publish action.
    pub fn label(&self) -> &'static str {
        self.injects
            .iter()
            .find_map(|i| match i {
                Inject::Action(ChurnAction::Publish { .. }) | Inject::Frame(..) => None,
                Inject::Action(ChurnAction::SensorUp { .. }) => Some("sensor_up"),
                Inject::Action(ChurnAction::SensorDown { .. }) => Some("sensor_down"),
                Inject::Action(ChurnAction::Move { .. }) => Some("move"),
                Inject::Action(ChurnAction::Subscribe { .. }) => Some("subscribe"),
                Inject::Action(ChurnAction::Unsubscribe { .. }) => Some("unsubscribe"),
                Inject::Action(ChurnAction::Crash { .. }) => Some("crash"),
                Inject::Action(ChurnAction::Recover) => Some("recover"),
                Inject::Action(ChurnAction::Sever { .. }) => Some("sever"),
                Inject::Action(ChurnAction::Heal { .. }) => Some("heal"),
            })
            .unwrap_or("publish")
    }

    pub fn is_control(&self) -> bool {
        self.label() != "publish"
    }

    fn subscriptions(&self) -> u64 {
        self.injects
            .iter()
            .filter(|i| matches!(i, Inject::Action(ChurnAction::Subscribe { .. })))
            .count() as u64
    }
}

/// Everything `EngineKind::builder(..)` is told.
#[derive(Debug, Clone)]
pub struct EngineCfg {
    pub kind: EngineKind,
    pub latency: LatencyModel,
    pub shards: usize,
    pub deploy: Deploy,
    pub mode: MatchMode,
    pub validity: u64,
    pub seed: u64,
}

impl EngineCfg {
    pub fn build(&self, topology: &Topology, sink: Option<&Recorder>) -> Box<dyn Engine> {
        let mut b = self
            .kind
            .builder(topology.clone())
            .validity(self.validity)
            .seed(self.seed)
            .latency(self.latency.clone())
            .shards(self.shards)
            .match_mode(self.mode)
            .deploy(self.deploy)
            .mailbox(64);
        if let Some(recorder) = sink {
            b = b.sink(recorder.clone());
        }
        b.build()
    }

    pub fn is_simulator(&self) -> bool {
        self.deploy == Deploy::Simulator
    }
}

/// A reference run the workload's deliveries are compared with.
#[derive(Debug, Clone)]
pub struct Twin {
    pub what: &'static str,
    pub cfg: EngineCfg,
}

/// One workload, fully generated.
pub struct Spec {
    pub name: &'static str,
    pub topology: Topology,
    pub cfg: EngineCfg,
    /// Advertisement floods and standing-subscription registration.
    pub setup: Vec<Step>,
    /// The measured steps.
    pub timed: Vec<Step>,
    /// Timed steps the twins replay (the whole list when `timed.len()`).
    pub check_prefix: usize,
    /// Must deliver the identical `DeliveryLog` over the prefix.
    pub exact_twin: Twin,
    /// Independently computed expected units over the whole run: `recall`'s
    /// denominator. Without one the exact twin's units are (and `recall` is
    /// 1.0 by the equality gate).
    pub oracle: Option<Oracle>,
    /// Seconds `ChurnPlan::seeded` took (`dynamics.plan_gen_s`; 0 without a
    /// churn plan).
    pub plan_gen_s: f64,
    /// The gate on `recall`.
    pub min_recall: f64,
    /// Must every surviving node be empty after the last timed step?
    pub expect_clean: bool,
}

/// Ground truth for `recall`: what a perfect engine would have delivered.
pub struct Oracle {
    pub expected_units: u64,
    /// Seconds the oracle took to compute (`workload.oracle_s`).
    pub seconds: f64,
}

impl Spec {
    pub fn timed_readings(&self) -> u64 {
        self.timed.iter().map(Step::readings).sum()
    }

    pub fn subscriptions(&self) -> u64 {
        self.setup
            .iter()
            .chain(&self.timed)
            .map(Step::subscriptions)
            .sum()
    }
}

/// Counters read off an engine at quiescence.
#[derive(Debug, Clone)]
pub struct Counters {
    pub event_units: u64,
    pub sub_forwards: u64,
    pub delivered_units: u64,
    pub complex_deliveries: u64,
    pub steps: u64,
    pub scheduled_total: u64,
    pub dropped_from_queue: u64,
    pub queue_depth: u64,
    pub recovery_msgs: u64,
    pub crashes: u64,
    pub handoff_msgs: u64,
    pub moves: u64,
    pub stored_operators: u64,
}

impl Counters {
    pub fn read(engine: &dyn Engine) -> Counters {
        let (recovery, mobility) = (engine.recovery_stats(), engine.mobility_stats());
        Counters {
            event_units: engine.stats().event_units(),
            sub_forwards: engine.stats().sub_forwards(),
            delivered_units: engine.deliveries().total_event_units(),
            complex_deliveries: engine.deliveries().complex_deliveries(),
            steps: engine.steps(),
            scheduled_total: engine.scheduled_total(),
            dropped_from_queue: engine.dropped_from_queue(),
            queue_depth: engine.queue_depth() as u64,
            recovery_msgs: recovery.repair_msgs,
            crashes: recovery.crashes,
            handoff_msgs: mobility.handoff_msgs,
            moves: mobility.moves,
            stored_operators: engine.footprint().iter().map(|f| f.operators as u64).sum(),
        }
    }

    /// `scheduled_total == steps + dropped_from_queue + queue_depth`.
    pub fn conserved(&self) -> bool {
        self.scheduled_total == self.steps + self.dropped_from_queue + self.queue_depth
    }
}

/// What one replayed step cost.
#[derive(Debug, Clone, Copy)]
pub struct StepTime {
    /// Inject-to-quiescence seconds.
    pub total_s: f64,
    /// The injection share of it.
    pub inject_s: f64,
    /// Messages node handlers processed for it (read outside the timing).
    pub handled: u64,
}

/// Replay `steps` on `engine`, one flush per step, timing each.
pub fn replay(
    engine: &mut dyn Engine,
    steps: &[Step],
    tracer: &mut Tracer,
    first_round: u32,
) -> Vec<StepTime> {
    let mut times = Vec::with_capacity(steps.len());
    for (i, step) in steps.iter().enumerate() {
        let round = first_round + i as u32;
        let before = engine.steps();
        let span_name = if step.is_control() {
            "dynamics.apply"
        } else {
            "engines.inject"
        };
        let whole = tracer.enter("engines.round", round);
        let inject = tracer.enter(span_name, round);
        for inj in &step.injects {
            match inj {
                Inject::Action(a) => apply_action(engine, a),
                Inject::Frame(node, events) => engine.inject_events(*node, events.clone()),
            }
        }
        let inject_s = tracer.exit(inject);
        tracer.span("engines.flush", round, || engine.flush());
        let total_s = tracer.exit(whole);
        times.push(StepTime {
            total_s,
            inject_s,
            handled: engine.steps() - before,
        });
    }
    times
}

/// One pass: a fresh engine, the set-up steps, the timed steps.
pub struct Pass {
    pub engine: Box<dyn Engine>,
    pub build_s: f64,
    pub setup: Vec<StepTime>,
    pub timed: Vec<StepTime>,
    /// Engine counters after set-up (the timed phase's deltas start here).
    pub after_setup: Counters,
    /// The delivery log after `check_prefix` timed steps.
    pub prefix_log: DeliveryLog,
}

impl Pass {
    /// Build + every set-up step.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.setup.iter().map(|t| t.total_s).sum::<f64>()
    }

    /// Every timed step, inject to quiescence.
    pub fn timed_s(&self) -> f64 {
        self.timed.iter().map(|t| t.total_s).sum()
    }
}

/// Run one pass of `spec` under `cfg` (the workload's own configuration or
/// a twin's), replaying only the first `timed_steps` timed steps.
pub fn run_pass(
    spec: &Spec,
    cfg: &EngineCfg,
    timed_steps: usize,
    tracer: &mut Tracer,
    sink: Option<&Recorder>,
) -> Pass {
    let whole = tracer.enter("benchmark.pass", 0);
    let (mut engine, build_s) = tracer.span("engines.build", 0, || cfg.build(&spec.topology, sink));
    let open = tracer.enter("benchmark.setup", 0);
    let setup = replay(engine.as_mut(), &spec.setup, tracer, 0);
    tracer.exit(open);
    let after_setup = Counters::read(engine.as_ref());

    let open = tracer.enter("benchmark.timed", 0);
    let prefix = spec.check_prefix.min(timed_steps);
    let mut timed = replay(engine.as_mut(), &spec.timed[..prefix], tracer, 1);
    let prefix_log = engine.deliveries().clone();
    timed.extend(replay(
        engine.as_mut(),
        &spec.timed[prefix..timed_steps],
        tracer,
        1 + prefix as u32,
    ));
    tracer.exit(open);
    tracer.exit(whole);
    Pass {
        engine,
        build_s,
        setup,
        timed,
        after_setup,
        prefix_log,
    }
}
