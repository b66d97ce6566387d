//! The determinism regression net for the discrete-event scheduler
//! refactor: under `LatencyModel::Zero` the heap-based simulator must be
//! **step-for-step and delivery-for-delivery identical** to the
//! pre-refactor FIFO simulator.
//!
//! The reference implementation lives right here: a `VecDeque` executor
//! that drives the very same `PubSubNode` behaviour through
//! `Ctx::external` with the exact processing loop the old simulator had.
//! Thirty seeded churn workloads replay through both; the per-message
//! processing trace, the delivery log, the traffic counters, and the step
//! counts must all agree exactly.

use fsf::dynamics::{ChurnAction, ChurnPlan, ChurnPlanConfig};
use fsf::network::{builders, ChargeKind, Ctx, DeliveryLog, NodeBehavior, Simulator, Topology};
use fsf::prelude::*;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Who processed what, in order: `(processing node, sender)`.
type Trace = Arc<Mutex<Vec<(NodeId, NodeId)>>>;

/// The pre-refactor simulator, verbatim: one global FIFO, pop from the
/// front, push sends to the back, run to quiescence.
struct RefFifo {
    topology: Topology,
    nodes: Vec<PubSubNode>,
    queue: VecDeque<(NodeId, NodeId, PubSubMsg)>,
    stats: TrafficStats,
    deliveries: DeliveryLog,
    steps: u64,
    trace: Vec<(NodeId, NodeId)>,
}

use fsf::network::TrafficStats;

impl RefFifo {
    fn new(topology: Topology, config: PubSubConfig) -> Self {
        let nodes = topology
            .nodes()
            .map(|id| PubSubNode::new(id, config))
            .collect();
        RefFifo {
            topology,
            nodes,
            queue: VecDeque::new(),
            stats: TrafficStats::new(),
            deliveries: DeliveryLog::new(),
            steps: 0,
            trace: Vec::new(),
        }
    }

    fn inject_and_run(&mut self, node: NodeId, msg: PubSubMsg) {
        self.queue.push_back((node, node, msg));
        let mut outbox: Vec<(NodeId, PubSubMsg, ChargeKind, u64)> = Vec::new();
        while let Some((from, to, msg)) = self.queue.pop_front() {
            self.steps += 1;
            self.trace.push((to, from));
            {
                let mut ctx = Ctx::external(
                    to,
                    self.topology.neighbors(to),
                    0,
                    &mut outbox,
                    &mut self.deliveries,
                );
                self.nodes[to.0 as usize].on_message(from, msg, &mut ctx);
            }
            for (next, m, kind, units) in outbox.drain(..) {
                self.stats.charge(kind, to, next, units);
                self.queue.push_back((to, next, m));
            }
        }
        self.deliveries.settle();
    }
}

/// Tracing wrapper so the heap simulator records the same trace the
/// reference executor keeps inline.
#[derive(Debug)]
struct Traced {
    inner: PubSubNode,
    trace: Trace,
}

impl NodeBehavior for Traced {
    type Msg = PubSubMsg;
    fn on_message(&mut self, from: NodeId, msg: PubSubMsg, ctx: &mut Ctx<'_, PubSubMsg>) {
        self.trace.lock().unwrap().push((ctx.node(), from));
        self.inner.on_message(from, msg, ctx);
    }
}

fn as_msg(action: &ChurnAction) -> (NodeId, PubSubMsg) {
    match action {
        ChurnAction::SensorUp { node, adv } => (*node, PubSubMsg::SensorUp(*adv)),
        ChurnAction::SensorDown { node, sensor } => (*node, PubSubMsg::SensorDown(*sensor)),
        ChurnAction::Subscribe { node, sub } => (*node, PubSubMsg::Subscribe(sub.clone())),
        ChurnAction::Unsubscribe { node, sub } => (*node, PubSubMsg::Unsubscribe(*sub)),
        ChurnAction::Publish { node, event } => (*node, PubSubMsg::Publish(*event)),
        ChurnAction::Crash { .. }
        | ChurnAction::Recover
        | ChurnAction::Move { .. }
        | ChurnAction::Sever { .. }
        | ChurnAction::Heal { .. } => {
            unreachable!("compat plans are churn-free beyond pub/sub traffic")
        }
    }
}

/// 30 seeded workloads, step-for-step: the zero-latency heap simulator is
/// indistinguishable from the legacy FIFO across trace, deliveries,
/// traffic, and step counts. Alternating seeds exercise both the exact
/// naive configuration and the probabilistic Filter-Split-Forward one.
#[test]
fn zero_latency_mode_is_identical_to_the_legacy_fifo_on_30_seeds() {
    // nightly CI widens the sweep: FSF_FIFO_SEEDS=<n> replays n seeds
    let seed_count: u64 = std::env::var("FSF_FIFO_SEEDS")
        .ok()
        .map(|s| s.parse().expect("FSF_FIFO_SEEDS must be a count"))
        .unwrap_or(30);
    for i in 0..seed_count {
        let seed = 0xF1F0_0000 + i;
        let config = if i % 2 == 0 {
            PubSubConfig::fsf(60, 42)
        } else {
            PubSubConfig::naive(60, 42)
        };
        let topology = builders::balanced(31, 2);
        let plan = ChurnPlan::seeded(
            &topology,
            &ChurnPlanConfig {
                seed,
                churn_actions: 10,
                initial_sensors: 6,
                events_per_action: 3,
                ..ChurnPlanConfig::default()
            },
        )
        .with_teardown();

        let mut reference = RefFifo::new(topology.clone(), config);
        let trace: Trace = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulator::new(topology, |id, _| Traced {
            inner: PubSubNode::new(id, config),
            trace: Arc::clone(&trace),
        });

        for action in &plan.actions {
            let (node, msg) = as_msg(action);
            reference.inject_and_run(node, msg.clone());
            sim.inject_and_run(node, msg);
        }

        assert_eq!(
            *trace.lock().unwrap(),
            reference.trace,
            "seed {seed:#x}: processing order diverged from the FIFO"
        );
        assert_eq!(
            sim.steps(),
            reference.steps,
            "seed {seed:#x}: step counts diverged"
        );
        assert_eq!(
            sim.deliveries, reference.deliveries,
            "seed {seed:#x}: deliveries diverged"
        );
        assert_eq!(
            sim.stats, reference.stats,
            "seed {seed:#x}: traffic diverged"
        );
        // both ended quiescent with a never-moving clock
        assert_eq!(sim.queue_depth(), 0);
        assert_eq!(sim.now(), 0, "zero latency must not advance the clock");
    }
}
