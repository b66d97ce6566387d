//! Churn plans: deterministic action sequences over a topology.

use fsf_model::{
    Advertisement, AttrId, Event, EventId, Point, SensorId, SubId, Subscription, Timestamp,
    ValueRange,
};
use fsf_network::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// One dynamic event in the life of a deployment.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnAction {
    /// A sensor appears at `node` and floods its advertisement.
    SensorUp {
        /// Hosting node.
        node: NodeId,
        /// The advertisement it floods.
        adv: Advertisement,
    },
    /// The sensor at `node` departs; its advertisement is retracted.
    SensorDown {
        /// Hosting node.
        node: NodeId,
        /// The departing sensor.
        sensor: SensorId,
    },
    /// A **known** sensor id re-appears at `node` (sensor mobility): the
    /// new host floods a generation-tagged `Move` re-advertisement and
    /// uncovered operators re-split toward the new path. Works for a live
    /// sensor (handoff from `from`) and for a previously departed id
    /// returning at a new station.
    Move {
        /// The new hosting node.
        node: NodeId,
        /// The node that hosted the sensor before the move (bookkeeping:
        /// the stationary-twin transformation retires the old identity
        /// here).
        from: NodeId,
        /// The advertisement the new host floods (same sensor id; the
        /// location may change with the station).
        adv: Advertisement,
    },
    /// A user at `node` registers a subscription.
    Subscribe {
        /// The user's node.
        node: NodeId,
        /// The subscription.
        sub: Subscription,
    },
    /// The user at `node` cancels a subscription.
    Unsubscribe {
        /// The user's node.
        node: NodeId,
        /// The cancelled subscription.
        sub: SubId,
    },
    /// A sensor at `node` publishes a reading.
    Publish {
        /// Hosting node.
        node: NodeId,
        /// The reading.
        event: Event,
    },
    /// `node` crashes; its orphaned neighbors re-graft onto `anchor`.
    Crash {
        /// The crashing node.
        node: NodeId,
        /// The neighbor adopting the orphaned subtree.
        anchor: NodeId,
    },
    /// Run the crash-recovery protocol for every crash still pending —
    /// the management-plane half of the `Crash`/`Recover` pair. A no-op
    /// for engines left in auto-recovery mode (they recovered at the
    /// crash); the pair makes the outage window explicit for engines
    /// driven with auto-recovery off.
    Recover,
    /// The link between `a` and `b` goes down: messages scheduled across
    /// it die at the sender's radio (charged and counted, never
    /// delivered) until the link heals. Severing a tree edge partitions
    /// the deployment; both halves keep serving the subscriptions they
    /// can still reach.
    Sever {
        /// One endpoint of the cut link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The severed link between `a` and `b` comes back: both endpoints
    /// run the reconciliation handshake (tombstones first, then
    /// generation-tagged re-advertisements, then forced re-splits) so
    /// state that diverged during the partition merges.
    Heal {
        /// One endpoint of the restored link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
}

impl ChurnAction {
    /// Is this a churn action proper (state change), as opposed to a
    /// `Publish` (steady-state data traffic between churn events)?
    #[must_use]
    pub fn is_churn(&self) -> bool {
        !matches!(self, ChurnAction::Publish { .. })
    }
}

/// Parameters of the seeded churn-plan generator.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnPlanConfig {
    /// Master seed; the same `(topology, config)` pair always yields the
    /// same plan.
    pub seed: u64,
    /// Sensors brought up before any churn begins (the bootstrap phase).
    pub initial_sensors: usize,
    /// Number of churn actions proper (sensor up/down, subscribe,
    /// unsubscribe, crash) to generate.
    pub churn_actions: usize,
    /// Readings published after every churn action (steady-state traffic
    /// that exercises the mutated state).
    pub events_per_action: usize,
    /// Maximum dimensions per generated subscription.
    pub max_arity: usize,
    /// Temporal correlation distance `δt` of generated subscriptions.
    pub delta_t: u64,
    /// Value domain: readings are uniform in `[0, value_span)`.
    pub value_span: f64,
    /// Base half-width of subscription ranges (scaled ×\[0.5, 1.5)).
    pub range_half_width: f64,
    /// Seconds the clock advances per published reading.
    pub reading_interval: u64,
    /// Also generate node crashes. Without [`Self::crash_interior`], only
    /// stateless leaf nodes are crashed (nodes hosting no live sensor or
    /// subscription) — the equivalence-preserving generator that predates
    /// the recovery protocol, kept behind this flag pair.
    pub with_crashes: bool,
    /// Lift the stateless-leaf restriction: crash arbitrary interior nodes
    /// (their hosted sensors and subscriptions die with them) and emit the
    /// `Crash`/`Recover` action pair. The generator tracks the re-grafted
    /// topology so later crash anchors stay valid, and jumps the data clock
    /// by `δt` at every crash so no correlation window straddles an outage
    /// (the epoch argument of the `Subscribe` jump, applied to crashes).
    pub crash_interior: bool,
    /// Nodes the generator never crashes (e.g. the topology median, which
    /// the centralized baseline cannot lose).
    pub protected_nodes: Vec<NodeId>,
    /// Guarantee at least this many crashes in interior mode: the dice may
    /// roll none in a short plan, and crash-battery tests need the fault
    /// they are testing to actually occur. Extra `Crash`/`Recover` pairs
    /// (with their publish tails) are appended until the floor is met.
    pub min_crashes: usize,
    /// Generate sensor moves — the **id-reusing** generator mode. A move
    /// picks a live sensor and re-hosts it on a different node (handoff),
    /// or revives a previously departed id at a new station
    /// (re-advertisement); either way the sensor id is *reused*, the
    /// restriction the pre-mobility generator was designed around. Every
    /// move jumps the data clock by `δt` so no correlation window
    /// straddles the handoff's fresh epoch.
    pub with_moves: bool,
    /// Guarantee at least this many moves when [`Self::with_moves`] is on
    /// (mobility batteries need the handoff they are testing to occur).
    /// Extra moves (with their publish tails) are appended until the
    /// floor is met.
    pub min_moves: usize,
}

impl Default for ChurnPlanConfig {
    fn default() -> Self {
        ChurnPlanConfig {
            seed: 0xC0FF_EE00,
            initial_sensors: 8,
            churn_actions: 50,
            events_per_action: 4,
            max_arity: 3,
            delta_t: 30,
            value_span: 100.0,
            range_half_width: 25.0,
            reading_interval: 7,
            with_crashes: false,
            crash_interior: false,
            protected_nodes: Vec::new(),
            min_crashes: 0,
            with_moves: false,
            min_moves: 0,
        }
    }
}

/// Parameters of the seeded partition-plan generator
/// ([`ChurnPlan::seeded_partition`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionPlanConfig {
    /// Master seed; the same `(topology, config)` pair always yields the
    /// same plan.
    pub seed: u64,
    /// Sensors brought up before the split (alternating sides of the cut,
    /// so both halves keep publishing while partitioned). At least 2.
    pub sensors: usize,
    /// Single-filter subscriptions registered before the split (even ids
    /// on their sensor's side of the cut, odd ids across it).
    pub subscriptions: usize,
    /// Readings published in each of the three windows (pre-split, split,
    /// post-heal).
    pub events_per_phase: usize,
    /// Temporal correlation distance `δt` of generated subscriptions.
    pub delta_t: u64,
    /// Value domain: readings are uniform in `[0, value_span)`, and every
    /// subscription's range spans it entirely (full recall by design —
    /// the oracle is pure reachability).
    pub value_span: f64,
    /// Seconds the clock advances per published reading.
    pub reading_interval: u64,
}

impl Default for PartitionPlanConfig {
    fn default() -> Self {
        PartitionPlanConfig {
            seed: 0x5EA5_1DE5,
            sensors: 6,
            subscriptions: 8,
            events_per_phase: 12,
            delta_t: 30,
            value_span: 100.0,
            reading_interval: 7,
        }
    }
}

/// What [`ChurnPlan::partition_oracle`] computed: the subscription and
/// event classification the reachable-twin battery compares against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionOracle {
    /// Subscriptions that stayed reachable from every sensor they
    /// reference through every severed window: the partitioned run must
    /// deliver *exactly* what the never-partitioned twin delivers to
    /// these.
    pub connected_subs: Vec<SubId>,
    /// Subscriptions cut off from at least one referenced sensor while a
    /// link was down: they lose (only) split-window readings from across
    /// the cut.
    pub severed_subs: Vec<SubId>,
    /// Events published while at least one link was severed — the only
    /// deliveries a severed subscription may be missing.
    pub split_events: Vec<EventId>,
}

/// A deterministic sequence of churn actions over one topology.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChurnPlan {
    /// The actions, in execution order.
    pub actions: Vec<ChurnAction>,
}

impl ChurnPlan {
    /// How many flood-drain gaps a crash or recovery gets in a timed
    /// schedule: the recovery cascade spans up to three tree traversals
    /// (advertisement repair, operator re-forward, event re-send), plus
    /// slack.
    pub const RECOVERY_GAP_FACTOR: u64 = 4;

    /// A hand-scripted plan.
    #[must_use]
    pub fn scripted(actions: Vec<ChurnAction>) -> Self {
        ChurnPlan { actions }
    }

    /// Number of churn actions proper (excluding `Publish`).
    #[must_use]
    pub fn churn_action_count(&self) -> usize {
        self.actions.iter().filter(|a| a.is_churn()).count()
    }

    /// Generate a seeded-random plan over `topology`.
    ///
    /// Invariants the generator maintains so that the deterministic engines
    /// stay delivery-equivalent under the plan:
    /// * readings only come from sensors that are currently up;
    /// * subscriptions only reference sensors that are up at registration
    ///   time (so no engine drops them as unanswerable) and use fresh ids;
    /// * the clock jumps by `δt` at every registration, so "continuous
    ///   queries deliver future events" is unambiguous: without the jump
    ///   the centralized baseline would retroactively serve in-window
    ///   pre-registration events out of its central store — events the
    ///   distributed engines never routed (the static workload's
    ///   batch-epoch separation, applied per subscription);
    /// * sensor ids **are reused** when [`ChurnPlanConfig::with_moves`] is
    ///   on: a known id re-appears at a new node as a [`ChurnAction::Move`]
    ///   (live handoff or departed-id revival), and the engines' `Move`
    ///   re-advertisement protocol re-splits uncovered operators toward
    ///   the new path. Fresh `SensorUp` ids stay unique — reuse always
    ///   goes through the generation-tagged move protocol, and each move
    ///   jumps the data clock by `δt` (handoffs open a fresh correlation
    ///   epoch);
    /// * crashes (if enabled) hit stateless leaves, or — with
    ///   [`ChurnPlanConfig::crash_interior`] — arbitrary unprotected nodes,
    ///   in which case every `Crash` is paired with a `Recover`, the hosted
    ///   state dies with the node, and the data clock jumps `δt` so no
    ///   correlation window straddles the outage.
    #[must_use]
    pub fn seeded(topology: &Topology, config: &ChurnPlanConfig) -> Self {
        assert!(topology.len() >= 2, "churn needs at least two nodes");
        let mut g = Generator {
            rng: StdRng::seed_from_u64(config.seed),
            config: config.clone(),
            actions: Vec::new(),
            clock: 1_000,
            next_sensor: 0,
            next_sub: 0,
            next_event: 0,
            up: BTreeMap::new(),
            departed: BTreeMap::new(),
            active: BTreeMap::new(),
            crashed: Vec::new(),
            hosted_ever: Vec::new(),
            nodes: topology.nodes().collect(),
            topo: topology.clone(),
        };
        for _ in 0..config.initial_sensors.max(1) {
            g.sensor_up();
        }
        let mut emitted = 0usize;
        while emitted < config.churn_actions {
            if !g.step() {
                continue;
            }
            emitted += 1;
            for _ in 0..config.events_per_action {
                g.publish();
            }
        }
        if config.with_crashes && config.crash_interior {
            let mut crashes = g
                .actions
                .iter()
                .filter(|a| matches!(a, ChurnAction::Crash { .. }))
                .count();
            let mut attempts = 0;
            while crashes < config.min_crashes && attempts < 64 {
                attempts += 1;
                if g.crash_interior() {
                    crashes += 1;
                    for _ in 0..config.events_per_action {
                        g.publish();
                    }
                }
            }
        }
        if config.with_moves {
            let mut moves = g
                .actions
                .iter()
                .filter(|a| matches!(a, ChurnAction::Move { .. }))
                .count();
            let mut attempts = 0;
            while moves < config.min_moves && attempts < 64 {
                attempts += 1;
                if g.move_sensor() {
                    moves += 1;
                    for _ in 0..config.events_per_action {
                        g.publish();
                    }
                }
            }
        }
        ChurnPlan { actions: g.actions }
    }

    /// The **stationary twin** of a mobile plan: every [`ChurnAction::Move`]
    /// is replaced by the equivalent fresh-identity sequence — retire the
    /// old identity at its current host (live handoffs only), bring a
    /// *fresh* sensor id up at the new node, and migrate every live
    /// subscription that references the moved sensor by cancelling and
    /// re-registering it with the dimension renamed. All later references
    /// (publishes, subscriptions, further moves, retractions) are renamed
    /// accordingly; event ids, values and timestamps are untouched.
    ///
    /// A correct mobility protocol makes the mobile plan and its twin
    /// produce the **identical** [`fsf_network::DeliveryLog`] on every
    /// engine: same per-subscription result sets *and* the same delivery
    /// count — full recall with zero duplicated deliveries, in one
    /// comparison (the mobility analogue of the recovery battery's
    /// uncrashed twin).
    ///
    /// `fresh_base` must exceed every sensor id the plan uses. Exactness
    /// precondition: when a subscription is migrated, the *other* sensors
    /// it references are up — otherwise the twin's re-registration is
    /// dropped as unanswerable by the distributed engines while the mobile
    /// plan keeps the original registration alive.
    #[must_use]
    pub fn stationary_twin(&self, fresh_base: u32) -> ChurnPlan {
        let mut alias: BTreeMap<SensorId, SensorId> = BTreeMap::new();
        let mut next_fresh = fresh_base;
        let mut up: BTreeSet<SensorId> = BTreeSet::new();
        let mut live_subs: BTreeMap<SubId, (NodeId, Subscription)> = BTreeMap::new();
        let mut out: Vec<ChurnAction> = Vec::new();
        let renamed = |sub: &Subscription, alias: &BTreeMap<SensorId, SensorId>| -> Subscription {
            let filters: Vec<(SensorId, ValueRange)> = sub
                .predicates()
                .iter()
                .map(|p| {
                    let fsf_model::DimKey::Sensor(s) = p.key else {
                        panic!("stationary twins need identified subscriptions")
                    };
                    (*alias.get(&s).unwrap_or(&s), p.range)
                })
                .collect();
            Subscription::identified(sub.id(), filters, sub.delta_t())
                .expect("renaming preserves validity")
        };
        for action in &self.actions {
            match action {
                ChurnAction::Move { node, from, adv } => {
                    let old = *alias.get(&adv.sensor).unwrap_or(&adv.sensor);
                    if up.contains(&adv.sensor) {
                        out.push(ChurnAction::SensorDown {
                            node: *from,
                            sensor: old,
                        });
                    }
                    let fresh = SensorId(next_fresh);
                    next_fresh += 1;
                    alias.insert(adv.sensor, fresh);
                    up.insert(adv.sensor);
                    out.push(ChurnAction::SensorUp {
                        node: *node,
                        adv: Advertisement {
                            sensor: fresh,
                            ..*adv
                        },
                    });
                    // live subscriptions referencing the moved sensor follow
                    // it to the fresh identity: cancel + re-register renamed
                    for (id, (sub_node, body)) in &live_subs {
                        if body
                            .dims()
                            .any(|d| d == fsf_model::DimKey::Sensor(adv.sensor))
                        {
                            out.push(ChurnAction::Unsubscribe {
                                node: *sub_node,
                                sub: *id,
                            });
                            out.push(ChurnAction::Subscribe {
                                node: *sub_node,
                                sub: renamed(body, &alias),
                            });
                        }
                    }
                }
                ChurnAction::SensorUp { node, adv } => {
                    up.insert(adv.sensor);
                    out.push(ChurnAction::SensorUp {
                        node: *node,
                        adv: Advertisement {
                            sensor: *alias.get(&adv.sensor).unwrap_or(&adv.sensor),
                            ..*adv
                        },
                    });
                }
                ChurnAction::SensorDown { node, sensor } => {
                    up.remove(sensor);
                    out.push(ChurnAction::SensorDown {
                        node: *node,
                        sensor: *alias.get(sensor).unwrap_or(sensor),
                    });
                }
                ChurnAction::Subscribe { node, sub } => {
                    live_subs.insert(sub.id(), (*node, sub.clone()));
                    out.push(ChurnAction::Subscribe {
                        node: *node,
                        sub: renamed(sub, &alias),
                    });
                }
                ChurnAction::Unsubscribe { sub, .. } => {
                    live_subs.remove(sub);
                    out.push(action.clone());
                }
                ChurnAction::Publish { node, event } => {
                    let mut e = *event;
                    e.sensor = *alias.get(&event.sensor).unwrap_or(&event.sensor);
                    out.push(ChurnAction::Publish {
                        node: *node,
                        event: e,
                    });
                }
                ChurnAction::Crash { node, .. } => {
                    // state hosted on the corpse dies in both worlds
                    live_subs.retain(|_, (n, _)| n != node);
                    out.push(action.clone());
                }
                ChurnAction::Recover | ChurnAction::Sever { .. } | ChurnAction::Heal { .. } => {
                    out.push(action.clone())
                }
            }
        }
        ChurnPlan { actions: out }
    }

    /// The teardown suffix: heal every link that is still severed (so the
    /// retraction floods can reach the whole tree again), unsubscribe
    /// every subscription that is still active, then retract every sensor
    /// that is still up — in that order, so operator retraction happens
    /// while its forwarding state is still addressable. State hosted on
    /// crashed nodes died with them and is skipped.
    #[must_use]
    pub fn teardown(&self) -> Vec<ChurnAction> {
        let mut up: BTreeMap<SensorId, NodeId> = BTreeMap::new();
        let mut active: BTreeMap<SubId, NodeId> = BTreeMap::new();
        let mut crashed: Vec<NodeId> = Vec::new();
        let mut severed: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        for a in &self.actions {
            match a {
                ChurnAction::SensorUp { node, adv } => {
                    up.insert(adv.sensor, *node);
                }
                ChurnAction::SensorDown { sensor, .. } => {
                    up.remove(sensor);
                }
                ChurnAction::Move { node, adv, .. } => {
                    up.insert(adv.sensor, *node);
                }
                ChurnAction::Subscribe { node, sub } => {
                    active.insert(sub.id(), *node);
                }
                ChurnAction::Unsubscribe { sub, .. } => {
                    active.remove(sub);
                }
                ChurnAction::Crash { node, .. } => crashed.push(*node),
                ChurnAction::Sever { a, b } => {
                    severed.insert((*a.min(b), *a.max(b)));
                }
                ChurnAction::Heal { a, b } => {
                    severed.remove(&(*a.min(b), *a.max(b)));
                }
                ChurnAction::Recover | ChurnAction::Publish { .. } => {}
            }
        }
        let mut out = Vec::with_capacity(severed.len() + active.len() + up.len());
        for (a, b) in severed {
            out.push(ChurnAction::Heal { a, b });
        }
        for (sub, node) in active {
            if !crashed.contains(&node) {
                out.push(ChurnAction::Unsubscribe { node, sub });
            }
        }
        for (sensor, node) in up {
            if !crashed.contains(&node) {
                out.push(ChurnAction::SensorDown { node, sensor });
            }
        }
        out
    }

    /// This plan followed by its own teardown.
    #[must_use]
    pub fn with_teardown(mut self) -> Self {
        let mut tail = self.teardown();
        self.actions.append(&mut tail);
        self
    }

    /// Generate a seeded partition plan: bootstrap sensors on both sides
    /// of a chosen tree edge, register single-filter selection
    /// subscriptions (a mix of same-side and cross-cut pairs), publish a
    /// pre-split window, [`ChurnAction::Sever`] the edge, publish through
    /// the partition, [`ChurnAction::Heal`] it, and publish a post-heal
    /// window.
    ///
    /// The cut edge is the one splitting the tree most evenly (seeded
    /// tie-break), so both halves are substantial. Subscriptions use
    /// full-span value ranges, which makes the delivery oracle exact:
    /// a reading reaches a subscription iff a route exists from the
    /// sensor's host to the subscription's node at publish time — the
    /// property [`Self::partition_oracle`] computes and the reachable-twin
    /// battery checks against [`Self::connected_twin`].
    #[must_use]
    pub fn seeded_partition(topology: &Topology, config: &PartitionPlanConfig) -> Self {
        assert!(topology.len() >= 4, "a partition needs two halves");
        assert!(config.sensors >= 2, "both halves need a sensor");
        let mut rng = StdRng::seed_from_u64(config.seed);
        // the cut: the tree edge whose removal splits most evenly
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for n in topology.nodes() {
            for &m in topology.neighbors(n) {
                if n.0 < m.0 {
                    edges.push((n, m));
                }
            }
        }
        let balance = |&(a, b): &(NodeId, NodeId)| {
            let mut t = topology.clone();
            t.sever_link(a, b).expect("enumerated edge");
            let labels = t.components();
            let small = labels
                .iter()
                .filter(|&&l| l == labels[a.0 as usize])
                .count();
            small.min(topology.len() - small)
        };
        let best = edges.iter().map(balance).max().expect("tree has edges");
        let candidates: Vec<(NodeId, NodeId)> =
            edges.into_iter().filter(|e| balance(e) == best).collect();
        let &cut = candidates.choose(&mut rng).expect("non-empty");
        let mut split = topology.clone();
        split.sever_link(cut.0, cut.1).expect("chosen edge exists");
        let labels = split.components();
        let side_a: Vec<NodeId> = topology
            .nodes()
            .filter(|n| labels[n.0 as usize] == labels[cut.0 .0 as usize])
            .collect();
        let side_b: Vec<NodeId> = topology
            .nodes()
            .filter(|n| labels[n.0 as usize] != labels[cut.0 .0 as usize])
            .collect();

        let mut actions = Vec::new();
        let mut clock = 1_000u64;
        // sensors alternate sides so each half keeps publishing while cut
        let mut hosts: Vec<(SensorId, NodeId, AttrId)> = Vec::new();
        for i in 0..config.sensors {
            let side = if i % 2 == 0 { &side_a } else { &side_b };
            let node = *side.choose(&mut rng).expect("non-empty side");
            let sensor = SensorId(i as u32);
            let attr = AttrId((i % 5) as u16);
            hosts.push((sensor, node, attr));
            actions.push(ChurnAction::SensorUp {
                node,
                adv: Advertisement {
                    sensor,
                    attr,
                    location: Point::new(f64::from(sensor.0), 0.0),
                },
            });
        }
        // single-filter full-span subscriptions: even ids land on their
        // sensor's own side (they keep delivering through the split), odd
        // ids on the far side (the split cuts them off)
        for i in 0..config.subscriptions.max(2) {
            let &(sensor, host, _) = hosts.choose(&mut rng).expect("sensors exist");
            let host_in_a = side_a.contains(&host);
            let same_side = i % 2 == 0;
            let side = if host_in_a == same_side {
                &side_a
            } else {
                &side_b
            };
            let node = *side.choose(&mut rng).expect("non-empty side");
            let sub = Subscription::identified(
                SubId(i as u64),
                vec![(sensor, ValueRange::new(0.0, config.value_span))],
                config.delta_t,
            )
            .expect("single full-span filter is valid");
            clock += config.delta_t;
            actions.push(ChurnAction::Subscribe { node, sub });
        }
        let mut next_event = 0u64;
        let mut publish_window =
            |actions: &mut Vec<ChurnAction>, clock: &mut u64, rng: &mut StdRng| {
                for _ in 0..config.events_per_phase {
                    let &(sensor, node, attr) = hosts.choose(rng).expect("sensors exist");
                    *clock += config.reading_interval;
                    actions.push(ChurnAction::Publish {
                        node,
                        event: Event {
                            id: EventId(next_event),
                            sensor,
                            attr,
                            location: Point::new(f64::from(sensor.0), 0.0),
                            value: rng.gen_range(0.0..config.value_span),
                            timestamp: Timestamp(*clock),
                        },
                    });
                    next_event += 1;
                }
            };
        publish_window(&mut actions, &mut clock, &mut rng);
        // correlation epoch around the outage, as for crashes and moves
        clock += config.delta_t;
        actions.push(ChurnAction::Sever { a: cut.0, b: cut.1 });
        publish_window(&mut actions, &mut clock, &mut rng);
        clock += config.delta_t;
        actions.push(ChurnAction::Heal { a: cut.0, b: cut.1 });
        publish_window(&mut actions, &mut clock, &mut rng);
        ChurnPlan { actions }
    }

    /// The **connected twin** of a partition plan: the same actions with
    /// every [`ChurnAction::Sever`] and [`ChurnAction::Heal`] removed —
    /// the world in which the link never went down. Restricted to the
    /// subscription/event pairs that stayed connected through every split
    /// (see [`Self::partition_oracle`]), a correct partition protocol
    /// makes the partitioned run and this twin produce identical
    /// [`fsf_network::DeliveryLog`] entries.
    #[must_use]
    pub fn connected_twin(&self) -> ChurnPlan {
        ChurnPlan {
            actions: self
                .actions
                .iter()
                .filter(|a| !matches!(a, ChurnAction::Sever { .. } | ChurnAction::Heal { .. }))
                .cloned()
                .collect(),
        }
    }

    /// Replay this plan over `topology` (tracking severs, heals, and
    /// regrafts) and classify its subscriptions and events for the
    /// reachable-twin comparison: which subscriptions stayed connected to
    /// every sensor they reference through every severed window, and
    /// which events were published while any link was down.
    ///
    /// Connectivity is direct sensor-host-to-subscription-node tree
    /// reachability — right for every engine that routes along the tree
    /// path. For the centralized baseline use
    /// [`Self::partition_oracle_via`] with the collection hub.
    #[must_use]
    pub fn partition_oracle(&self, topology: &Topology) -> PartitionOracle {
        self.partition_oracle_via(topology, None)
    }

    /// [`Self::partition_oracle`] with an optional routing hub: when `via`
    /// is set, a sensor reaches a subscription only if both can reach the
    /// hub — the centralized baseline's star routing, where every reading
    /// and result transits the collection point regardless of where the
    /// two endpoints sit.
    #[must_use]
    pub fn partition_oracle_via(
        &self,
        topology: &Topology,
        via: Option<NodeId>,
    ) -> PartitionOracle {
        let mut topo = topology.clone();
        let mut hosts: BTreeMap<SensorId, NodeId> = BTreeMap::new();
        let mut live: BTreeMap<SubId, (NodeId, Vec<SensorId>)> = BTreeMap::new();
        let mut all: BTreeSet<SubId> = BTreeSet::new();
        let mut severed_subs: BTreeSet<SubId> = BTreeSet::new();
        let mut split_events: Vec<EventId> = Vec::new();
        let routed = move |topo: &Topology, from: NodeId, to: NodeId| match via {
            Some(hub) => topo.reachable(from, hub) && topo.reachable(hub, to),
            None => topo.reachable(from, to),
        };
        let cut_off = |topo: &Topology,
                       hosts: &BTreeMap<SensorId, NodeId>,
                       node: NodeId,
                       sensors: &[SensorId]| {
            sensors
                .iter()
                .any(|s| hosts.get(s).is_some_and(|&host| !routed(topo, host, node)))
        };
        for action in &self.actions {
            match action {
                ChurnAction::SensorUp { node, adv } | ChurnAction::Move { node, adv, .. } => {
                    hosts.insert(adv.sensor, *node);
                }
                ChurnAction::SensorDown { sensor, .. } => {
                    hosts.remove(sensor);
                }
                ChurnAction::Subscribe { node, sub } => {
                    let sensors: Vec<SensorId> = sub
                        .dims()
                        .map(|d| {
                            let fsf_model::DimKey::Sensor(s) = d else {
                                panic!("partition oracles need identified subscriptions")
                            };
                            s
                        })
                        .collect();
                    all.insert(sub.id());
                    if topo.has_severed_links() && cut_off(&topo, &hosts, *node, &sensors) {
                        severed_subs.insert(sub.id());
                    }
                    live.insert(sub.id(), (*node, sensors));
                }
                ChurnAction::Unsubscribe { sub, .. } => {
                    live.remove(sub);
                }
                ChurnAction::Sever { a, b } => {
                    topo.sever_link(*a, *b).expect("plan severs a live edge");
                    for (id, (node, sensors)) in &live {
                        if cut_off(&topo, &hosts, *node, sensors) {
                            severed_subs.insert(*id);
                        }
                    }
                }
                ChurnAction::Heal { a, b } => {
                    topo.heal_link(*a, *b).expect("plan heals a severed edge");
                }
                ChurnAction::Publish { event, .. } => {
                    if topo.has_severed_links() {
                        split_events.push(event.id);
                    }
                }
                ChurnAction::Crash { node, anchor } => {
                    topo = topo
                        .regraft(*node, *anchor)
                        .expect("plan crashes are anchored on a neighbor");
                }
                ChurnAction::Recover => {}
            }
        }
        PartitionOracle {
            connected_subs: all.difference(&severed_subs).copied().collect(),
            severed_subs: severed_subs.into_iter().collect(),
            split_events,
        }
    }

    /// Schedule this plan on the virtual clock: assign every action the
    /// virtual time at which the timed runner applies it, **without**
    /// flushing between actions (floods genuinely interleave).
    ///
    /// The schedule replays the generator's data clock — a `Publish` fires
    /// at its reading's own timestamp, a `Subscribe` advances the clock by
    /// the subscription's `δt` (the registration-epoch jump) — and adds
    /// `config.churn_gap` ticks of virtual time in front of every churn
    /// action proper. The gap is the *flood-drain margin*: sized at or
    /// above `diameter × max-hop-latency` it guarantees the floods of the
    /// preceding actions have drained before state changes, which keeps the
    /// five engines delivery-equivalent (their transient disagreement
    /// windows never overlap a state change). Event floods still race each
    /// other — readings are only `reading_interval` apart — and retraction
    /// floods still chase their own advertisement floods, so the
    /// interleaving is real where it is semantically allowed.
    #[must_use]
    pub fn timed(&self, config: &TimedReplayConfig) -> TimedPlan {
        let mut data_clock = config.initial_clock;
        let mut offset = 0u64;
        let mut actions = Vec::with_capacity(self.actions.len());
        for action in &self.actions {
            let at = match action {
                ChurnAction::Publish { event, .. } => {
                    data_clock = data_clock.max(event.timestamp.0);
                    data_clock + offset
                }
                ChurnAction::Subscribe { sub, .. } => {
                    offset += config.churn_gap;
                    let at = data_clock + offset;
                    data_clock += sub.delta_t();
                    at
                }
                // crashes, recoveries, moves, severs and heals leave a
                // widened margin *behind* them: each is a cascade (adv/move
                // flood → operator re-split → downstream re-forwards; a
                // heal's reconciliation handshake is the same shape), so
                // whatever follows must wait several flood-drain gaps
                ChurnAction::Crash { .. }
                | ChurnAction::Recover
                | ChurnAction::Move { .. }
                | ChurnAction::Sever { .. }
                | ChurnAction::Heal { .. } => {
                    offset += config.churn_gap;
                    let at = data_clock + offset;
                    offset += config.churn_gap * (Self::RECOVERY_GAP_FACTOR - 1);
                    at
                }
                _ => {
                    offset += config.churn_gap;
                    data_clock + offset
                }
            };
            actions.push(TimedAction {
                at,
                action: action.clone(),
            });
        }
        TimedPlan { actions }
    }
}

/// Parameters of [`ChurnPlan::timed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedReplayConfig {
    /// Virtual time of the first action (matches the seeded generator's
    /// initial data clock so publish times line up).
    pub initial_clock: u64,
    /// Extra virtual ticks inserted before every churn action proper (see
    /// [`ChurnPlan::timed`]). Zero means state changes race the floods of
    /// the immediately preceding actions.
    pub churn_gap: u64,
}

impl Default for TimedReplayConfig {
    fn default() -> Self {
        TimedReplayConfig {
            initial_clock: 1_000,
            churn_gap: 0,
        }
    }
}

impl TimedReplayConfig {
    /// A config whose churn gap safely drains any flood on `topology`
    /// under `latency`: tree diameter × the model's worst hop delay, plus
    /// one tick of slack.
    #[must_use]
    pub fn drained(topology: &Topology, latency: &fsf_network::LatencyModel) -> Self {
        TimedReplayConfig {
            initial_clock: 1_000,
            churn_gap: topology.diameter() as u64 * latency.max_hop() + 1,
        }
    }
}

/// One churn action scheduled at a virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedAction {
    /// Virtual time the runner applies the action at.
    pub at: u64,
    /// The action.
    pub action: ChurnAction,
}

/// A churn plan scheduled on the virtual clock (non-decreasing times).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimedPlan {
    /// The scheduled actions, in execution (= time) order.
    pub actions: Vec<TimedAction>,
}

impl TimedPlan {
    /// Virtual time of the last action (0 for an empty plan).
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.actions.last().map_or(0, |a| a.at)
    }
}

/// Bookkeeping of the seeded generator (see [`ChurnPlan::seeded`]).
struct Generator {
    rng: StdRng,
    config: ChurnPlanConfig,
    actions: Vec<ChurnAction>,
    clock: u64,
    next_sensor: u32,
    next_sub: u64,
    next_event: u64,
    up: BTreeMap<SensorId, (NodeId, AttrId)>,
    /// Departed sensors (via `SensorDown`, not crashes) — the candidates
    /// for id-reusing re-appearance moves.
    departed: BTreeMap<SensorId, (NodeId, AttrId)>,
    active: BTreeMap<SubId, NodeId>,
    crashed: Vec<NodeId>,
    /// Nodes that hosted a sensor or subscription at some point (excluded
    /// from crashing in leaf mode: their state must stay addressable for
    /// teardown).
    hosted_ever: Vec<NodeId>,
    nodes: Vec<NodeId>,
    /// The topology as it evolves under regrafts — later crash anchors
    /// must be neighbors in the *current* tree, not the original one.
    topo: Topology,
}

impl Generator {
    fn pick_node(&mut self) -> NodeId {
        loop {
            let n = *self
                .nodes
                .choose(&mut self.rng)
                .expect("non-empty topology");
            if !self.crashed.contains(&n) {
                return n;
            }
        }
    }

    fn sensor_up(&mut self) {
        let node = self.pick_node();
        let sensor = SensorId(self.next_sensor);
        let attr = AttrId((self.next_sensor % 5) as u16);
        self.next_sensor += 1;
        self.hosted_ever.push(node);
        self.up.insert(sensor, (node, attr));
        self.actions.push(ChurnAction::SensorUp {
            node,
            adv: Advertisement {
                sensor,
                attr,
                location: Point::new(f64::from(sensor.0), 0.0),
            },
        });
    }

    fn publish(&mut self) {
        let sensors: Vec<(SensorId, NodeId, AttrId)> =
            self.up.iter().map(|(&s, &(n, a))| (s, n, a)).collect();
        let Some(&(sensor, node, attr)) = sensors.choose(&mut self.rng) else {
            return;
        };
        self.clock += self.config.reading_interval;
        let event = Event {
            id: EventId(self.next_event),
            sensor,
            attr,
            location: Point::new(f64::from(sensor.0), 0.0),
            value: self.rng.gen_range(0.0..self.config.value_span),
            timestamp: Timestamp(self.clock),
        };
        self.next_event += 1;
        self.actions.push(ChurnAction::Publish { node, event });
    }

    /// Re-host a sensor id (the id-reusing action): a live sensor hands
    /// off to a different node, or a departed id returns at a new station.
    /// Jumps the data clock by `δt` — handoffs open a fresh correlation
    /// epoch, so no window straddles the move. Returns `false` when no
    /// candidate (sensor, destination) pair exists.
    fn move_sensor(&mut self) -> bool {
        let pool: Vec<(SensorId, NodeId, AttrId, bool)> = self
            .up
            .iter()
            .map(|(&s, &(n, a))| (s, n, a, true))
            .chain(self.departed.iter().map(|(&s, &(n, a))| (s, n, a, false)))
            .collect();
        let Some(&(sensor, from, attr, was_up)) = pool.choose(&mut self.rng) else {
            return false;
        };
        let destinations: Vec<NodeId> = self
            .nodes
            .iter()
            .copied()
            .filter(|&n| n != from && !self.crashed.contains(&n))
            .collect();
        let Some(&to) = destinations.choose(&mut self.rng) else {
            return false;
        };
        if !was_up {
            self.departed.remove(&sensor);
        }
        self.up.insert(sensor, (to, attr));
        self.hosted_ever.push(to);
        self.clock += self.config.delta_t;
        self.actions.push(ChurnAction::Move {
            node: to,
            from,
            adv: Advertisement {
                sensor,
                attr,
                location: Point::new(f64::from(sensor.0), 0.0),
            },
        });
        true
    }

    /// Crash an arbitrary live node: its hosted state dies, the tracked
    /// topology regrafts, the clock jumps a correlation epoch, and the
    /// `Crash`/`Recover` pair is emitted. Returns `false` when no eligible
    /// candidate exists (everything protected, or the crash would take the
    /// last live sensor down).
    fn crash_interior(&mut self) -> bool {
        let candidates: Vec<NodeId> = self
            .nodes
            .iter()
            .copied()
            .filter(|&n| {
                !self.crashed.contains(&n)
                    && !self.config.protected_nodes.contains(&n)
                    && self
                        .topo
                        .neighbors(n)
                        .iter()
                        .any(|a| !self.crashed.contains(a))
                    // keep at least one sensor alive so publishes continue
                    && self.up.values().any(|&(host, _)| host != n)
            })
            .collect();
        let Some(&node) = candidates.choose(&mut self.rng) else {
            return false;
        };
        let anchor = *self
            .topo
            .neighbors(node)
            .iter()
            .find(|a| !self.crashed.contains(a))
            .expect("filtered for a live neighbor");
        self.topo = self
            .topo
            .regraft(node, anchor)
            .expect("anchor is a current neighbor");
        self.crashed.push(node);
        self.up.retain(|_, &mut (host, _)| host != node);
        self.active.retain(|_, &mut host| host != node);
        // correlation epoch around the outage: pre-crash readings must not
        // be able to complete joins with post-recovery ones, or the five
        // engines' transient disagreement during the outage would leak
        // into the delivered results
        self.clock += self.config.delta_t;
        self.actions.push(ChurnAction::Crash { node, anchor });
        self.actions.push(ChurnAction::Recover);
        true
    }

    /// One churn action; returns `false` if the rolled action was not
    /// applicable in the current state (caller re-rolls).
    fn step(&mut self) -> bool {
        let roll = self.rng.gen_range(0u32..100);
        match roll {
            // subscribe — the bread-and-butter action
            0..=34 => {
                if self.up.is_empty() {
                    return false;
                }
                let arity = self
                    .rng
                    .gen_range(1..=self.config.max_arity.min(self.up.len()));
                let mut pool: Vec<SensorId> = self.up.keys().copied().collect();
                pool.shuffle(&mut self.rng);
                let filters: Vec<(SensorId, ValueRange)> = pool[..arity]
                    .iter()
                    .map(|&s| {
                        let half = self.config.range_half_width * self.rng.gen_range(0.5..1.5);
                        let hi_center = (self.config.value_span - half).max(half + 0.1);
                        let center = self.rng.gen_range(half..hi_center);
                        (s, ValueRange::new(center - half, center + half))
                    })
                    .collect();
                let node = self.pick_node();
                let sub =
                    Subscription::identified(SubId(self.next_sub), filters, self.config.delta_t)
                        .expect("generated subscription is valid");
                // registration epoch: pre-registration events must not be
                // able to correlate with post-registration ones (see the
                // generator invariants on `ChurnPlan::seeded`)
                self.clock += self.config.delta_t;
                self.active.insert(SubId(self.next_sub), node);
                self.next_sub += 1;
                self.hosted_ever.push(node);
                self.actions.push(ChurnAction::Subscribe { node, sub });
                true
            }
            // unsubscribe an active subscription
            35..=54 => {
                let subs: Vec<(SubId, NodeId)> =
                    self.active.iter().map(|(&s, &n)| (s, n)).collect();
                let Some(&(sub, node)) = subs.choose(&mut self.rng) else {
                    return false;
                };
                self.active.remove(&sub);
                self.actions.push(ChurnAction::Unsubscribe { node, sub });
                true
            }
            // a brand-new sensor joins
            55..=69 => {
                self.sensor_up();
                true
            }
            // a sensor departs (keep at least one up)
            70..=84 => {
                if self.up.len() <= 1 {
                    return false;
                }
                let sensors: Vec<(SensorId, NodeId, AttrId)> =
                    self.up.iter().map(|(&s, &(n, a))| (s, n, a)).collect();
                let &(sensor, node, attr) = sensors.choose(&mut self.rng).expect("non-empty");
                self.up.remove(&sensor);
                self.departed.insert(sensor, (node, attr));
                self.actions.push(ChurnAction::SensorDown { node, sensor });
                true
            }
            // sensor mobility / fault injection share the top of the roll
            // table; the split only exists when moves are enabled, so plans
            // generated without them replay byte-identically
            _ => {
                if self.config.with_moves && (!self.config.with_crashes || roll < 93) {
                    return self.move_sensor();
                }
                if !self.config.with_crashes {
                    return false;
                }
                if self.config.crash_interior {
                    return self.crash_interior();
                }
                // equivalence-preserving mode: stateless leaves only (a
                // leaf regraft changes no surviving path, and a stateless
                // corpse takes no state with it)
                let candidate = self.nodes.iter().copied().find(|&n| {
                    self.topo.degree(n) == 1
                        && !self.crashed.contains(&n)
                        && !self.hosted_ever.contains(&n)
                        && !self.config.protected_nodes.contains(&n)
                        && !self.crashed.contains(&self.topo.neighbors(n)[0])
                });
                let Some(node) = candidate else {
                    return false;
                };
                let anchor = self.topo.neighbors(node)[0];
                self.crashed.push(node);
                self.actions.push(ChurnAction::Crash { node, anchor });
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsf_network::builders;

    #[test]
    fn seeded_plans_are_deterministic() {
        let topo = builders::balanced(31, 2);
        let cfg = ChurnPlanConfig::default();
        let a = ChurnPlan::seeded(&topo, &cfg);
        let b = ChurnPlan::seeded(&topo, &cfg);
        assert_eq!(a, b);
        let mut other = cfg.clone();
        other.seed ^= 1;
        assert_ne!(a, ChurnPlan::seeded(&topo, &other));
    }

    #[test]
    fn seeded_plan_hits_the_requested_churn_volume() {
        let topo = builders::balanced(63, 2);
        let cfg = ChurnPlanConfig {
            churn_actions: 50,
            ..ChurnPlanConfig::default()
        };
        let plan = ChurnPlan::seeded(&topo, &cfg);
        // bootstrap sensors count as churn actions too
        assert!(plan.churn_action_count() >= 50 + cfg.initial_sensors);
        // publishes interleave
        assert!(plan.actions.iter().any(|a| !a.is_churn()));
    }

    #[test]
    fn generator_never_publishes_from_a_downed_sensor() {
        let topo = builders::balanced(63, 2);
        let plan = ChurnPlan::seeded(
            &topo,
            &ChurnPlanConfig {
                churn_actions: 120,
                ..ChurnPlanConfig::default()
            },
        );
        let mut up: Vec<SensorId> = Vec::new();
        for a in &plan.actions {
            match a {
                ChurnAction::SensorUp { adv, .. } => {
                    assert!(!up.contains(&adv.sensor), "fresh SensorUp over a live id");
                    up.push(adv.sensor);
                }
                // id reuse is legal — it goes through the move protocol
                ChurnAction::Move { adv, .. } if !up.contains(&adv.sensor) => {
                    up.push(adv.sensor);
                }
                ChurnAction::Move { .. } => {}
                ChurnAction::SensorDown { sensor, .. } => {
                    up.retain(|s| s != sensor);
                }
                ChurnAction::Publish { event, .. } => {
                    assert!(up.contains(&event.sensor), "reading from a ghost");
                }
                ChurnAction::Subscribe { sub, .. } => {
                    for d in sub.dims() {
                        let fsf_model::DimKey::Sensor(s) = d else {
                            panic!("identified subscriptions only")
                        };
                        assert!(up.contains(&s), "subscription over a ghost sensor");
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn timed_schedule_is_monotone_and_fires_publishes_at_their_timestamps() {
        let topo = builders::balanced(31, 2);
        let plan = ChurnPlan::seeded(&topo, &ChurnPlanConfig::default()).with_teardown();
        let cfg = TimedReplayConfig {
            initial_clock: 1_000,
            churn_gap: 11,
        };
        let timed = plan.timed(&cfg);
        assert_eq!(timed.actions.len(), plan.actions.len());
        // non-decreasing virtual times
        assert!(
            timed.actions.windows(2).all(|w| w[0].at <= w[1].at),
            "schedule not monotone"
        );
        assert_eq!(timed.horizon(), timed.actions.last().unwrap().at);
        // every publish fires at its reading's own timestamp plus the
        // accumulated churn-gap offset — never before the reading exists
        let mut gaps = 0u64;
        for t in &timed.actions {
            if t.action.is_churn() {
                gaps += cfg.churn_gap;
            }
            if let ChurnAction::Publish { event, .. } = &t.action {
                assert_eq!(t.at, event.timestamp.0 + gaps, "publish off schedule");
            }
        }
        // churn actions are strictly separated from their predecessor
        for w in timed.actions.windows(2) {
            if w[1].action.is_churn() {
                assert!(w[1].at >= w[0].at + cfg.churn_gap, "gap not applied");
            }
        }
    }

    #[test]
    fn drained_config_scales_with_topology_and_latency() {
        use fsf_network::LatencyModel;
        let topo = builders::line(8); // diameter 7
        let cfg = TimedReplayConfig::drained(&topo, &LatencyModel::Uniform { hop: 3 });
        assert_eq!(cfg.churn_gap, 7 * 3 + 1);
        let zero = TimedReplayConfig::drained(&topo, &LatencyModel::Zero);
        assert_eq!(zero.churn_gap, 1);
        assert_eq!(TimedReplayConfig::default().churn_gap, 0);
    }

    #[test]
    fn teardown_retracts_exactly_the_survivors() {
        let topo = builders::balanced(31, 2);
        let plan = ChurnPlan::seeded(&topo, &ChurnPlanConfig::default());
        let tail = plan.teardown();
        // after appending the teardown, a second teardown is empty
        let full = plan.with_teardown();
        assert!(!tail.is_empty());
        assert!(full.teardown().is_empty(), "teardown is exhaustive");
    }

    #[test]
    fn interior_crashes_pair_with_recovery_and_keep_invariants() {
        let topo = builders::balanced(63, 2);
        let median = topo.median();
        let plan = ChurnPlan::seeded(
            &topo,
            &ChurnPlanConfig {
                with_crashes: true,
                crash_interior: true,
                protected_nodes: vec![median],
                churn_actions: 150,
                ..ChurnPlanConfig::default()
            },
        );
        // every crash is immediately followed by its Recover twin
        let mut crashes: Vec<(NodeId, NodeId)> = Vec::new();
        for (i, a) in plan.actions.iter().enumerate() {
            if let ChurnAction::Crash { node, anchor } = a {
                crashes.push((*node, *anchor));
                assert_eq!(
                    plan.actions.get(i + 1),
                    Some(&ChurnAction::Recover),
                    "crash without a paired recover"
                );
            }
        }
        assert!(!crashes.is_empty(), "150 actions should include crashes");
        assert!(
            crashes.iter().any(|&(n, _)| topo.degree(n) > 1),
            "interior mode should crash non-leaves: {crashes:?}"
        );
        // the protected median survives, and every anchor is a live
        // neighbor in the *evolving* tree — replay the regrafts to check
        let mut topo_now = topo.clone();
        for &(node, anchor) in &crashes {
            assert_ne!(node, median, "protected node crashed");
            topo_now = topo_now
                .regraft(node, anchor)
                .expect("anchor must be a current neighbor");
        }
        // dead state stays dead: no publishes from crashed-host sensors,
        // no new subscriptions over them, no activity on crashed nodes
        let mut crashed: Vec<NodeId> = Vec::new();
        let mut up: BTreeMap<SensorId, NodeId> = BTreeMap::new();
        for a in &plan.actions {
            match a {
                ChurnAction::SensorUp { node, adv } => {
                    assert!(!crashed.contains(node), "sensor on a corpse");
                    up.insert(adv.sensor, *node);
                }
                ChurnAction::SensorDown { sensor, .. } => {
                    up.remove(sensor);
                }
                ChurnAction::Move { node, adv, .. } => {
                    assert!(!crashed.contains(node), "sensor moved onto a corpse");
                    up.insert(adv.sensor, *node);
                }
                ChurnAction::Crash { node, .. } => {
                    crashed.push(*node);
                    up.retain(|_, host| host != node);
                }
                ChurnAction::Publish { node, event } => {
                    assert!(up.contains_key(&event.sensor), "reading from a ghost");
                    assert!(!crashed.contains(node), "reading from a corpse");
                }
                ChurnAction::Subscribe { node, sub } => {
                    assert!(!crashed.contains(node), "subscription on a corpse");
                    for d in sub.dims() {
                        let fsf_model::DimKey::Sensor(s) = d else {
                            panic!("identified subscriptions only")
                        };
                        assert!(up.contains_key(&s), "subscription over a dead sensor");
                    }
                }
                ChurnAction::Unsubscribe { .. }
                | ChurnAction::Recover
                | ChurnAction::Sever { .. }
                | ChurnAction::Heal { .. } => {}
            }
        }
    }

    #[test]
    fn timed_schedule_gives_crashes_the_recovery_margin() {
        let topo = builders::balanced(31, 2);
        let plan = ChurnPlan::seeded(
            &topo,
            &ChurnPlanConfig {
                with_crashes: true,
                crash_interior: true,
                protected_nodes: vec![topo.median()],
                churn_actions: 60,
                ..ChurnPlanConfig::default()
            },
        );
        let cfg = TimedReplayConfig {
            initial_clock: 1_000,
            churn_gap: 5,
        };
        let timed = plan.timed(&cfg);
        assert!(
            timed.actions.windows(2).all(|w| w[0].at <= w[1].at),
            "schedule not monotone"
        );
        // the settle margin sits *behind* a crash/recover: whatever comes
        // next waits RECOVERY_GAP_FACTOR flood-drain gaps for the repair
        // cascade, while the crash itself only needs the ordinary gap
        let margin = cfg.churn_gap * ChurnPlan::RECOVERY_GAP_FACTOR;
        let mut saw_crash = false;
        for (i, t) in timed.actions.iter().enumerate() {
            if matches!(t.action, ChurnAction::Crash { .. } | ChurnAction::Recover) {
                saw_crash = true;
                if let Some(next) = timed.actions.get(i + 1) {
                    assert!(
                        next.at >= t.at + margin,
                        "action after crash/recover at {} lacks the {margin}-tick settle margin",
                        t.at
                    );
                }
            }
        }
        assert!(saw_crash);
    }

    #[test]
    fn partition_plans_cut_one_edge_publish_through_it_and_heal() {
        let topo = builders::balanced(31, 2);
        let cfg = PartitionPlanConfig::default();
        let plan = ChurnPlan::seeded_partition(&topo, &cfg);
        assert_eq!(plan, ChurnPlan::seeded_partition(&topo, &cfg));
        let severs: Vec<&ChurnAction> = plan
            .actions
            .iter()
            .filter(|a| matches!(a, ChurnAction::Sever { .. }))
            .collect();
        let heals: Vec<&ChurnAction> = plan
            .actions
            .iter()
            .filter(|a| matches!(a, ChurnAction::Heal { .. }))
            .collect();
        assert_eq!(severs.len(), 1);
        assert_eq!(heals.len(), 1);
        let ChurnAction::Sever { a, b } = severs[0] else {
            unreachable!()
        };
        assert!(topo.neighbors(*a).contains(b), "cut must be a tree edge");
        assert_eq!(heals[0], &ChurnAction::Heal { a: *a, b: *b });
        // the cut splits evenly enough that both halves are substantial
        let mut split = topo.clone();
        split.sever_link(*a, *b).unwrap();
        let labels = split.components();
        let side = labels.iter().filter(|&&l| l == labels[0]).count();
        assert!(side.min(topo.len() - side) >= topo.len() / 3);
        // each half hosts a sensor, so both keep publishing while cut
        let mut sides_hosting: BTreeSet<u32> = BTreeSet::new();
        for action in &plan.actions {
            if let ChurnAction::SensorUp { node, .. } = action {
                sides_hosting.insert(labels[node.0 as usize]);
            }
        }
        assert_eq!(sides_hosting.len(), 2, "sensors must straddle the cut");
        // every publish window is non-empty
        let sever_at = plan
            .actions
            .iter()
            .position(|x| matches!(x, ChurnAction::Sever { .. }))
            .unwrap();
        let heal_at = plan
            .actions
            .iter()
            .position(|x| matches!(x, ChurnAction::Heal { .. }))
            .unwrap();
        let publishes = |range: &[ChurnAction]| {
            range
                .iter()
                .filter(|x| matches!(x, ChurnAction::Publish { .. }))
                .count()
        };
        assert_eq!(publishes(&plan.actions[..sever_at]), cfg.events_per_phase);
        assert_eq!(
            publishes(&plan.actions[sever_at..heal_at]),
            cfg.events_per_phase
        );
        assert_eq!(publishes(&plan.actions[heal_at..]), cfg.events_per_phase);
    }

    #[test]
    fn the_connected_twin_drops_exactly_the_link_actions() {
        let topo = builders::balanced(31, 2);
        let plan = ChurnPlan::seeded_partition(&topo, &PartitionPlanConfig::default());
        let twin = plan.connected_twin();
        assert_eq!(twin.actions.len(), plan.actions.len() - 2);
        assert!(twin
            .actions
            .iter()
            .all(|a| !matches!(a, ChurnAction::Sever { .. } | ChurnAction::Heal { .. })));
        // everything else survives in order
        let kept: Vec<&ChurnAction> = plan
            .actions
            .iter()
            .filter(|a| !matches!(a, ChurnAction::Sever { .. } | ChurnAction::Heal { .. }))
            .collect();
        assert!(twin.actions.iter().zip(kept).all(|(t, k)| t == k));
    }

    #[test]
    fn the_partition_oracle_classifies_by_reachability_across_the_cut() {
        let topo = builders::balanced(31, 2);
        let plan = ChurnPlan::seeded_partition(&topo, &PartitionPlanConfig::default());
        let oracle = plan.partition_oracle(&topo);
        // the generator aims half its subscriptions across the cut
        assert!(!oracle.connected_subs.is_empty(), "no same-side subs");
        assert!(!oracle.severed_subs.is_empty(), "no cross-cut subs");
        assert!(!oracle.split_events.is_empty(), "no split-window events");
        // recompute one classification by hand: a severed sub's node must
        // be unreachable from its sensor's host in the cut topology
        let ChurnAction::Sever { a, b } = *plan
            .actions
            .iter()
            .find(|x| matches!(x, ChurnAction::Sever { .. }))
            .unwrap()
        else {
            unreachable!()
        };
        let mut split = topo.clone();
        split.sever_link(a, b).unwrap();
        let mut hosts: BTreeMap<SensorId, NodeId> = BTreeMap::new();
        for action in &plan.actions {
            match action {
                ChurnAction::SensorUp { node, adv } => {
                    hosts.insert(adv.sensor, *node);
                }
                ChurnAction::Subscribe { node, sub } => {
                    let fsf_model::DimKey::Sensor(s) = sub.dims().next().unwrap() else {
                        panic!("identified")
                    };
                    let expected_cut = !split.reachable(hosts[&s], *node);
                    assert_eq!(
                        oracle.severed_subs.contains(&sub.id()),
                        expected_cut,
                        "sub {:?} misclassified",
                        sub.id()
                    );
                }
                _ => {}
            }
        }
        // the teardown of a still-severed plan heals first
        let truncated = ChurnPlan {
            actions: plan
                .actions
                .iter()
                .take_while(|x| !matches!(x, ChurnAction::Heal { .. }))
                .cloned()
                .collect(),
        };
        assert_eq!(
            truncated.teardown().first(),
            Some(&ChurnAction::Heal { a, b }),
            "teardown must restore connectivity before retracting"
        );
    }

    #[test]
    fn crashes_only_hit_stateless_leaves() {
        let topo = builders::balanced(63, 2);
        let plan = ChurnPlan::seeded(
            &topo,
            &ChurnPlanConfig {
                with_crashes: true,
                churn_actions: 200,
                ..ChurnPlanConfig::default()
            },
        );
        let crashes: Vec<&ChurnAction> = plan
            .actions
            .iter()
            .filter(|a| matches!(a, ChurnAction::Crash { .. }))
            .collect();
        assert!(!crashes.is_empty(), "200 actions should include a crash");
        for c in crashes {
            let ChurnAction::Crash { node, anchor } = c else {
                unreachable!()
            };
            assert_eq!(topo.degree(*node), 1, "only leaves crash");
            assert_eq!(topo.neighbors(*node)[0], *anchor);
            for a in &plan.actions {
                match a {
                    ChurnAction::SensorUp { node: n, .. }
                    | ChurnAction::Subscribe { node: n, .. }
                    | ChurnAction::Publish { node: n, .. } => {
                        assert_ne!(n, node, "crashed node hosted state");
                    }
                    _ => {}
                }
            }
        }
    }
}
