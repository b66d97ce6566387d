//! Replay churn plans through any engine — serialized (flush after every
//! action) or timed (actions fire on the virtual clock while earlier
//! floods are still in flight).

use crate::plan::{ChurnAction, ChurnPlan, TimedPlan};
use fsf_engines::Engine;
use fsf_telemetry::{Recorder, TelemetryEvent, TelemetrySink};

/// Short label for an action's telemetry span.
fn action_label(action: &ChurnAction) -> &'static str {
    match action {
        ChurnAction::SensorUp { .. } => "sensor-up",
        ChurnAction::SensorDown { .. } => "sensor-down",
        ChurnAction::Subscribe { .. } => "subscribe",
        ChurnAction::Unsubscribe { .. } => "unsubscribe",
        ChurnAction::Publish { .. } => "publish",
        ChurnAction::Crash { .. } => "crash-action",
        ChurnAction::Move { .. } => "move-action",
        ChurnAction::Recover => "recover-action",
        ChurnAction::Sever { .. } => "sever-link",
        ChurnAction::Heal { .. } => "heal-link",
    }
}

/// The target node of an action, where one exists.
fn action_node(action: &ChurnAction) -> Option<u32> {
    match action {
        ChurnAction::SensorUp { node, .. }
        | ChurnAction::SensorDown { node, .. }
        | ChurnAction::Subscribe { node, .. }
        | ChurnAction::Unsubscribe { node, .. }
        | ChurnAction::Publish { node, .. }
        | ChurnAction::Crash { node, .. }
        | ChurnAction::Move { node, .. } => Some(node.0),
        // a link action has two endpoints; the engine's own span carries
        // both, so the action-level span names neither
        ChurnAction::Recover | ChurnAction::Sever { .. } | ChurnAction::Heal { .. } => None,
    }
}

/// Apply one action to an engine (without flushing).
pub fn apply_action(engine: &mut dyn Engine, action: &ChurnAction) {
    match action {
        ChurnAction::SensorUp { node, adv } => engine.inject_sensor(*node, *adv),
        ChurnAction::SensorDown { node, sensor } => engine.retract_sensor(*node, *sensor),
        ChurnAction::Subscribe { node, sub } => engine.inject_subscription(*node, sub.clone()),
        ChurnAction::Unsubscribe { node, sub } => engine.retract_subscription(*node, *sub),
        ChurnAction::Publish { node, event } => engine.inject_event(*node, *event),
        ChurnAction::Crash { node, anchor } => {
            engine
                .crash_node(*node, *anchor)
                .expect("plan crashes are anchored on a neighbor");
        }
        ChurnAction::Move { node, adv, .. } => engine.move_sensor(*node, *adv),
        ChurnAction::Recover => engine.recover(),
        ChurnAction::Sever { a, b } => {
            engine
                .sever_link(*a, *b)
                .expect("plan severs an existing edge");
        }
        ChurnAction::Heal { a, b } => {
            engine
                .heal_link(*a, *b)
                .expect("plan heals an existing edge");
        }
    }
}

/// Replay a whole plan, flushing the network to quiescence after every
/// action so all engines observe the same serialized history (the paper's
/// requirement that every approach sees identical inputs, extended to
/// churn).
pub fn run_plan(engine: &mut dyn Engine, plan: &ChurnPlan) {
    for action in &plan.actions {
        apply_action(engine, action);
        engine.flush();
    }
}

/// Replay a timed plan on the virtual clock: advance the network to each
/// action's scheduled time (delivering exactly the messages due by then —
/// **no** per-action flush), apply the action, and finally run the
/// remaining in-flight messages to quiescence. Returns the virtual time at
/// quiescence.
///
/// With a nonzero latency model this is the setting the run-to-quiescence
/// runner cannot express: a retraction injected while its own
/// advertisement flood is still in flight, operators racing event floods,
/// crashes purging in-flight messages.
pub fn run_plan_timed(engine: &mut dyn Engine, plan: &TimedPlan) -> u64 {
    for timed in &plan.actions {
        engine.run_until(timed.at);
        apply_action(engine, &timed.action);
    }
    engine.flush();
    engine.now()
}

/// [`run_plan`], recording one engine-level span per action into `sink`
/// covering the action *and* the flush to quiescence it triggers — the
/// window in which its matching, forwarding and re-splitting happen. Use
/// with an engine built with [`fsf_engines::EngineBuilder::sink`] on a
/// clone of `sink` so the spans land in the same trace as the message
/// lifecycle.
pub fn run_plan_traced(engine: &mut dyn Engine, plan: &ChurnPlan, sink: &Recorder) {
    for action in &plan.actions {
        let start = engine.now();
        apply_action(engine, action);
        engine.flush();
        sink.record(TelemetryEvent::EngineOp {
            op: action_label(action).to_string(),
            node: action_node(action),
            start,
            end: engine.now(),
            detail: String::new(),
        });
    }
}

/// [`run_plan_timed`], recording one engine-level span per action into
/// `sink`: the span opens when the clock reaches the action's scheduled
/// time and closes after the action is applied (in-flight floods keep
/// running — the final flush gets its own `drain` span). Returns the
/// virtual time at quiescence.
pub fn run_plan_timed_traced(engine: &mut dyn Engine, plan: &TimedPlan, sink: &Recorder) -> u64 {
    for timed in &plan.actions {
        engine.run_until(timed.at);
        let start = engine.now();
        apply_action(engine, &timed.action);
        sink.record(TelemetryEvent::EngineOp {
            op: action_label(&timed.action).to_string(),
            node: action_node(&timed.action),
            start,
            end: engine.now(),
            detail: String::new(),
        });
    }
    let start = engine.now();
    engine.flush();
    sink.record(TelemetryEvent::EngineOp {
        op: "drain".to_string(),
        node: None,
        start,
        end: engine.now(),
        detail: String::new(),
    });
    engine.now()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ChurnPlanConfig;
    use fsf_engines::EngineKind;
    use fsf_network::builders;

    #[test]
    fn every_engine_survives_a_seeded_plan() {
        let topo = builders::balanced(31, 2);
        let plan = ChurnPlan::seeded(
            &topo,
            &ChurnPlanConfig {
                churn_actions: 20,
                ..ChurnPlanConfig::default()
            },
        );
        for kind in EngineKind::ALL {
            let mut engine = kind.build(topo.clone(), 60, 42);
            run_plan(engine.as_mut(), &plan);
            assert!(engine.stats().adv_msgs() > 0, "{kind}: nothing happened");
        }
    }

    #[test]
    fn timed_replay_in_zero_latency_matches_the_serialized_runner() {
        use crate::plan::TimedReplayConfig;
        use fsf_network::LatencyModel;
        let topo = builders::balanced(31, 2);
        let plan = ChurnPlan::seeded(
            &topo,
            &ChurnPlanConfig {
                churn_actions: 15,
                ..ChurnPlanConfig::default()
            },
        )
        .with_teardown();
        let timed = plan.timed(&TimedReplayConfig::drained(&topo, &LatencyModel::Zero));
        for kind in EngineKind::ALL {
            let mut serialized = kind.build(topo.clone(), 60, 42);
            run_plan(serialized.as_mut(), &plan);
            let mut scheduled = kind.build(topo.clone(), 60, 42);
            let end = run_plan_timed(scheduled.as_mut(), &timed);
            assert!(end >= timed.horizon());
            assert_eq!(scheduled.queue_depth(), 0, "{kind}: not quiescent");
            assert_eq!(
                scheduled.deliveries(),
                serialized.deliveries(),
                "{kind}: timed replay diverged"
            );
            assert_eq!(
                scheduled.stats(),
                serialized.stats(),
                "{kind}: traffic diverged"
            );
        }
    }
}
