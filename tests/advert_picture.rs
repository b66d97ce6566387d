//! Both engine families hold the same advertisement picture.
//!
//! The pub/sub nodes and the multi-join nodes flood, retract, move and
//! repair advertisements by the same rules (Algorithm 1 plus generation
//! ordering); they differ only in what a subscription becomes at a node.
//! So after every action of a seeded churn, crash + recover and move plan
//! (the golden ledger's plans), every live node must hold the same
//! advertisement state under both families: the same advertisements per
//! origin, the same generation for every known sensor and the same
//! retraction tombstones. The ledger compares counts only; this compares
//! state.

use fsf::core::{AdvStore, Origin};
use fsf::dynamics::apply_action;
use fsf::engines::{MjProto, PubSubProto, SimEngine};
use fsf::network::builders;
use fsf::prelude::*;

/// The seed the ledger's engines use (feeds FSF's set filter).
const ENGINE_SEED: u64 = 42;

/// One node's advertisement state, in a comparable form.
#[derive(Debug, PartialEq)]
struct Picture {
    per_origin: Vec<(Origin, Vec<Advertisement>)>,
    generations: Vec<(SensorId, u64)>,
    tombstones: Vec<(SensorId, u64)>,
}

fn picture(adverts: &AdvStore) -> Picture {
    let per_origin: Vec<(Origin, Vec<Advertisement>)> = adverts
        .origins()
        .map(|o| {
            let mut advs = adverts.from_origin(o).to_vec();
            advs.sort_by_key(|a| a.sensor);
            (o, advs)
        })
        .collect();
    let mut generations: Vec<(SensorId, u64)> = adverts
        .all()
        .map(|a| (a.sensor, adverts.generation(a.sensor)))
        .collect();
    generations.sort();
    Picture {
        per_origin,
        generations,
        tombstones: adverts.tombstones().collect(),
    }
}

/// The golden ledger's churn, crash + recover and move plans.
fn plans(topology: &Topology) -> Vec<(&'static str, ChurnPlan)> {
    let base = ChurnPlanConfig {
        seed: 0x1ED6_E500,
        initial_sensors: 8,
        churn_actions: 40,
        events_per_action: 6,
        range_half_width: 35.0,
        ..ChurnPlanConfig::default()
    };
    let seeded = |config: ChurnPlanConfig| ChurnPlan::seeded(topology, &config).with_teardown();
    vec![
        ("churn", seeded(base.clone())),
        (
            "crash",
            seeded(ChurnPlanConfig {
                with_crashes: true,
                crash_interior: true,
                protected_nodes: vec![topology.median()],
                min_crashes: 1,
                ..base.clone()
            }),
        ),
        (
            "move",
            seeded(ChurnPlanConfig {
                with_moves: true,
                min_moves: 4,
                ..base
            }),
        ),
    ]
}

#[test]
fn pubsub_and_multijoin_hold_the_same_advert_picture_after_every_action() {
    let topology = builders::balanced(63, 2);
    let validity = 2 * ChurnPlanConfig::default().delta_t;
    for (name, plan) in plans(&topology) {
        let has = |f: fn(&ChurnAction) -> bool| plan.actions.iter().any(f);
        assert!(has(|a| matches!(a, ChurnAction::SensorDown { .. })));
        match name {
            "crash" => assert!(has(|a| matches!(a, ChurnAction::Recover))),
            "move" => assert!(has(|a| matches!(a, ChurnAction::Move { .. }))),
            _ => {}
        }
        let config = PubSubConfig::fsf(validity, ENGINE_SEED);
        let mut pubsub = SimEngine::new(topology.clone(), PubSubProto::new("fsf", config));
        let mut mj = SimEngine::new(
            topology.clone(),
            MjProto::new(validity, MatchMode::default()),
        );
        let mut adverts_seen = 0;
        for (step, action) in plan.actions.iter().enumerate() {
            apply_action(&mut pubsub, action);
            pubsub.flush();
            apply_action(&mut mj, action);
            mj.flush();
            let (ps, ms) = (pubsub.simulator(), mj.simulator());
            for node in topology.nodes() {
                assert_eq!(ps.is_down(node), ms.is_down(node), "{name} step {step}");
                if ps.is_down(node) {
                    continue;
                }
                let (p, m) = (ps.node(node).adverts(), ms.node(node).adverts());
                adverts_seen += p.len();
                assert_eq!(
                    picture(p),
                    picture(m),
                    "{name} step {step}: advert pictures diverge at {node:?} after {action:?}"
                );
            }
        }
        assert!(adverts_seen > 0, "{name}: no node ever held an advert");
    }
}
