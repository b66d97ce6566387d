//! The routing-truth oracle: where every live node *must* file every live
//! sensor's advertisement, computed from the actions alone.
//!
//! [`RoutingTruth`] replays a plan's actions on its own copy of the
//! topology — regrafts, cuts and heals included — and tracks which node
//! hosts each live sensor at which generation, by the management plane's
//! rules: a move or a retraction retires the current generation, and a
//! crash retracts whatever the corpse hosted. It never looks at protocol
//! state. At quiescence, every live node that can reach a live sensor's
//! host must hold the sensor filed under `Origin::Local` at the host and
//! under the next hop toward the host anywhere else, at the sensor's
//! latest generation; with no link severed, no live node may hold a sensor
//! that is not live. [`RoutingTruth::check`] holds an engine's
//! [`fsf_engines::EngineIntrospect::advert_routes`] to that.

use crate::plan::{ChurnAction, ChurnPlan};
use crate::runner::apply_action;
use fsf_engines::{Engine, Origin};
use fsf_model::SensorId;
use fsf_network::{NodeId, Topology};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Ground truth of the advertisement plane, kept by observing actions.
#[derive(Debug, Clone)]
pub struct RoutingTruth {
    topology: Topology,
    down: BTreeSet<NodeId>,
    hosts: BTreeMap<SensorId, NodeId>,
    gens: BTreeMap<SensorId, u64>,
}

impl RoutingTruth {
    /// Truth for a fresh deployment on `topology`: no sensors, no crashes.
    #[must_use]
    pub fn new(topology: &Topology) -> Self {
        RoutingTruth {
            topology: topology.clone(),
            down: BTreeSet::new(),
            hosts: BTreeMap::new(),
            gens: BTreeMap::new(),
        }
    }

    /// Account for one action, applied to the engine alongside.
    ///
    /// # Panics
    /// Panics on a crash, sever or heal the topology rejects (the engine
    /// rejects it too).
    pub fn observe(&mut self, action: &ChurnAction) {
        match action {
            ChurnAction::SensorUp { node, adv } => {
                self.hosts.insert(adv.sensor, *node);
            }
            ChurnAction::SensorDown { sensor, .. } => self.retire(*sensor),
            ChurnAction::Move { node, adv, .. } => {
                self.hosts.insert(adv.sensor, *node);
                *self.gens.entry(adv.sensor).or_insert(0) += 1;
            }
            ChurnAction::Crash { node, anchor } => {
                self.topology = self.topology.regraft(*node, *anchor).expect("valid crash");
                self.down.insert(*node);
                let hosted: Vec<SensorId> = self
                    .hosts
                    .iter()
                    .filter(|&(_, h)| h == node)
                    .map(|(&s, _)| s)
                    .collect();
                hosted.into_iter().for_each(|s| self.retire(s));
            }
            ChurnAction::Sever { a, b } => self.topology.sever_link(*a, *b).expect("valid sever"),
            ChurnAction::Heal { a, b } => self.topology.heal_link(*a, *b).expect("valid heal"),
            ChurnAction::Subscribe { .. }
            | ChurnAction::Unsubscribe { .. }
            | ChurnAction::Publish { .. }
            | ChurnAction::Recover => {}
        }
    }

    fn retire(&mut self, sensor: SensorId) {
        self.hosts.remove(&sensor);
        *self.gens.entry(sensor).or_insert(0) += 1;
    }

    /// Where every live node must file every live sensor it can reach:
    /// `(node, sensor) → origin`. One breadth-first search per sensor,
    /// from its host across healthy links; the parent of a node in that
    /// search is its next hop toward the host.
    #[must_use]
    pub fn routes(&self) -> BTreeMap<(NodeId, SensorId), Origin> {
        let mut out = BTreeMap::new();
        for (&sensor, &host) in &self.hosts {
            if self.down.contains(&host) {
                continue;
            }
            out.insert((host, sensor), Origin::Local);
            let mut seen = BTreeSet::from([host]);
            let mut queue = VecDeque::from([host]);
            while let Some(at) = queue.pop_front() {
                for &next in self.topology.neighbors(at) {
                    if self.down.contains(&next)
                        || self.topology.is_severed(at, next)
                        || !seen.insert(next)
                    {
                        continue;
                    }
                    out.insert((next, sensor), Origin::Neighbor(at));
                    queue.push_back(next);
                }
            }
        }
        out
    }

    /// Hold `engine`'s advertisement picture to the truth: every expected
    /// route present under the right origin at the sensor's latest
    /// generation, and — with no link severed — nothing held for a sensor
    /// that is not live. Returns the number of routes checked (0 for a
    /// family without advertisements).
    ///
    /// # Errors
    /// The first few disagreements, one per line.
    pub fn check(&self, engine: &dyn Engine) -> Result<usize, String> {
        let held = engine.advert_routes();
        if held.is_empty() {
            return Ok(0);
        }
        let expected = self.routes();
        let whole = !self.topology.has_severed_links();
        let mut errors = Vec::new();
        let mut checked = 0;
        for (node, routes) in &held {
            let by_sensor: BTreeMap<SensorId, (Origin, u64)> = routes
                .iter()
                .map(|r| (r.sensor, (r.origin, r.gen)))
                .collect();
            for (&sensor, &host) in &self.hosts {
                let Some(&origin) = expected.get(&(*node, sensor)) else {
                    continue; // the host is down or across a cut
                };
                checked += 1;
                let want = (origin, self.gens.get(&sensor).copied().unwrap_or(0));
                match by_sensor.get(&sensor) {
                    Some(&got) if got == want => {}
                    got => errors.push(format!(
                        "{node} holds {sensor:?} (host {host}) as {got:?}, expected {want:?}"
                    )),
                }
            }
            if whole {
                let dead = by_sensor.keys().filter(|s| !self.hosts.contains_key(s));
                for sensor in dead {
                    errors.push(format!("{node} still holds the dead {sensor:?}"));
                }
            }
        }
        if errors.is_empty() {
            Ok(checked)
        } else {
            let shown = errors.len().min(8);
            Err(format!(
                "{}: {} routing errors, first {shown}:\n  {}",
                engine.name(),
                errors.len(),
                errors[..shown].join("\n  ")
            ))
        }
    }
}

/// What [`run_plan_checked`] verified.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TruthChecks {
    /// Quiescent points held to the truth (recoveries and heals).
    pub points: usize,
    /// Routes checked over all of them.
    pub routes: usize,
    /// Auto-recovered crashes whose applied repairs were counted against
    /// the routes the regraft changed.
    pub counted_crashes: usize,
}

/// [`crate::run_plan`] over an engine deployed on `topology`, holding it
/// to the [`RoutingTruth`] at quiescence after every recovery and every
/// heal. A crash that recovered on its own (auto-recovery) is checked at
/// once, and the repairs it applied must number exactly the (live node,
/// live sensor) routes whose next hop the regraft changed: one applied
/// repair per changed route, none anywhere else. A deferred crash is
/// checked at its `Recover`.
///
/// # Panics
/// Panics with the oracle's report at the first disagreement.
pub fn run_plan_checked(
    engine: &mut dyn Engine,
    topology: &Topology,
    plan: &ChurnPlan,
) -> TruthChecks {
    let mut truth = RoutingTruth::new(topology);
    let mut done = TruthChecks::default();
    for (step, action) in plan.actions.iter().enumerate() {
        let before = matches!(action, ChurnAction::Crash { .. })
            .then(|| (truth.routes(), engine.recovery_stats()));
        apply_action(engine, action);
        engine.flush();
        truth.observe(action);
        let recovered = match (&before, action) {
            (Some((_, stats)), _) => engine.recovery_stats().recoveries > stats.recoveries,
            (None, ChurnAction::Recover | ChurnAction::Heal { .. }) => true,
            _ => false,
        };
        if !recovered {
            continue;
        }
        let at = |what: String| format!("step {step} ({action:?}): {what}");
        let checked = truth.check(engine).unwrap_or_else(|e| panic!("{}", at(e)));
        done.routes += checked;
        done.points += 1;
        // a family without advertisements has no repairs to count
        let Some((routes, stats)) = before.filter(|_| checked > 0) else {
            continue;
        };
        let changed = truth
            .routes()
            .iter()
            .filter(|(key, origin)| routes.get(key).is_some_and(|o| o != *origin))
            .count() as u64;
        let applied = engine.recovery_stats().repairs_applied - stats.repairs_applied;
        let what = "repairs applied vs routes the regraft changed";
        assert_eq!(
            applied,
            changed,
            "{}",
            at(format!("{}: {what}", engine.name()))
        );
        done.counted_crashes += 1;
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsf_model::{Advertisement, AttrId, Point};
    use fsf_network::builders;

    fn up(node: u32, sensor: u32) -> ChurnAction {
        ChurnAction::SensorUp {
            node: NodeId(node),
            adv: Advertisement {
                sensor: SensorId(sensor),
                attr: AttrId(0),
                location: Point::new(0.0, 0.0),
            },
        }
    }

    #[test]
    fn routes_follow_regrafts_cuts_and_crashed_hosts() {
        // line n0 — n1 — n2 — n3; sensor 1 on n0, sensor 2 on n2
        let mut t = RoutingTruth::new(&builders::line(4));
        t.observe(&up(0, 1));
        t.observe(&up(2, 2));
        let r = t.routes();
        assert_eq!(r[&(NodeId(0), SensorId(1))], Origin::Local);
        assert_eq!(r[&(NodeId(3), SensorId(1))], Origin::Neighbor(NodeId(2)));
        // crash n1 onto n2: n0 now reaches sensor 2 directly through n2
        t.observe(&ChurnAction::Crash {
            node: NodeId(1),
            anchor: NodeId(2),
        });
        let r = t.routes();
        assert_eq!(r[&(NodeId(0), SensorId(2))], Origin::Neighbor(NodeId(2)));
        assert!(!r.contains_key(&(NodeId(1), SensorId(2))), "corpse");
        // crash the host of sensor 2: it is retired, generation bumped
        t.observe(&ChurnAction::Crash {
            node: NodeId(2),
            anchor: NodeId(3),
        });
        assert!(!t.routes().keys().any(|&(_, s)| s == SensorId(2)));
        assert_eq!(t.gens[&SensorId(2)], 1);
        // a cut hides the host from the far side until the heal
        t.observe(&ChurnAction::Sever {
            a: NodeId(0),
            b: NodeId(3),
        });
        assert!(!t.routes().contains_key(&(NodeId(3), SensorId(1))));
        t.observe(&ChurnAction::Heal {
            a: NodeId(0),
            b: NodeId(3),
        });
        assert_eq!(
            t.routes()[&(NodeId(3), SensorId(1))],
            Origin::Neighbor(NodeId(0))
        );
    }
}
