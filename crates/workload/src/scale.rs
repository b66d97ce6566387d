//! The `scale` experiment scenario: scheduler throughput as the network
//! grows toward a million nodes, with the sharded backend checked
//! event-for-event against the single-queue oracle.
//!
//! Two workloads run per shard count:
//!
//! * a **raw relay flood** over the bare [`NodeBehavior`] substrate — every
//!   message fans out across the whole tree, so the run is bounded by the
//!   event-queue data structure itself (the quantity the sharded backend's
//!   per-shard calendar queues exist to speed up), not by engine logic;
//! * a **station workload** on the Filter-Split-Forward engine — co-located
//!   sensor/subscriber pairs with single-sensor subscriptions, whose
//!   [`fsf_network::DeliveryLog`] must come out identical to the
//!   single-shard run (the determinism gate at the engine level).
//!
//! Throughput numbers (`events_per_sec`) are wall-clock and therefore
//! machine-dependent; everything else in a [`ScaleRow`] is deterministic.

use fsf_engines::{Engine, EngineKind};
use fsf_model::{
    Advertisement, AttrId, Event, EventId, Point, SensorId, SubId, Subscription, Timestamp,
    ValueRange,
};
use fsf_network::{builders, ChargeKind, Ctx, LatencyModel, NodeBehavior, NodeId, Simulator};
use std::time::Instant;

/// Parameters of the scale experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleConfig {
    /// Scenario name (reports).
    pub name: String,
    /// Network size: a balanced **binary** tree of this many nodes
    /// (branching 2 keeps subtree sizes near powers of two, so the
    /// partitioner can carve every requested shard count).
    pub total_nodes: usize,
    /// Distinct flood messages injected for the raw relay-flood run,
    /// origins spread over the tree.
    pub floods: usize,
    /// Sensor/subscriber stations for the engine-level run (0 skips the
    /// engine run — the raw flood still measures the scheduler).
    pub stations: usize,
    /// Readings each station's sensor publishes.
    pub events_per_station: usize,
    /// Temporal correlation distance of the subscriptions.
    pub delta_t: u64,
    /// Uniform per-hop delay (must be ≥ 1: zero latency has no lookahead
    /// and coalesces the sharded backend to one effective shard).
    pub hop_latency: u64,
    /// Engine seed (feeds the probabilistic set filter).
    pub engine_seed: u64,
    /// Shard counts to sweep; 1 is the single-heap oracle baseline.
    pub shard_counts: Vec<usize>,
}

impl ScaleConfig {
    /// The default scale setting: a 131 071-node binary tree (the ≥100k
    /// point of the throughput figure), shard sweep 1/2/4/8.
    #[must_use]
    pub fn paper_scale() -> Self {
        ScaleConfig {
            name: "scale".into(),
            total_nodes: (1 << 17) - 1,
            floods: 8,
            stations: 16,
            events_per_station: 4,
            delta_t: 30,
            hop_latency: 2,
            engine_seed: 42,
            shard_counts: vec![1, 2, 4, 8],
        }
    }

    /// A quick variant for CI and tests: 4 095 nodes, shard sweep 1/2/4.
    #[must_use]
    pub fn quick() -> Self {
        ScaleConfig {
            name: "scale-quick".into(),
            total_nodes: (1 << 12) - 1,
            floods: 4,
            stations: 8,
            events_per_station: 3,
            delta_t: 30,
            hop_latency: 2,
            engine_seed: 42,
            shard_counts: vec![1, 2, 4],
        }
    }

    /// Resize the network, keeping the workload shape.
    #[must_use]
    pub fn with_nodes(mut self, total_nodes: usize) -> Self {
        assert!(total_nodes >= 3);
        self.total_nodes = total_nodes;
        self
    }

    /// Scale down the workload volume (quick CI/bench runs), keeping the
    /// network dimensions intact.
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor <= 1.0, "factor in (0, 1]");
        let s = |v: usize| ((v as f64 * factor).round() as usize).max(2);
        self.floods = s(self.floods);
        self.stations = s(self.stations);
        self.events_per_station = s(self.events_per_station);
        self.name = format!("{}(x{factor})", self.name);
        self
    }
}

/// One shard count's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleRow {
    /// Network size the row ran at.
    pub nodes: usize,
    /// Requested shard count.
    pub shards: usize,
    /// Shards the partitioner actually carved (≤ requested; 1 when the
    /// tree has no subtree big enough to cut).
    pub effective_shards: usize,
    /// Messages the raw relay flood delivered (identical across shard
    /// counts — the determinism gate at the substrate level).
    pub flood_steps: u64,
    /// Raw-flood scheduler throughput, messages per wall-clock second.
    pub flood_events_per_sec: f64,
    /// Engine-level event-phase throughput (0.0 when `stations == 0`).
    pub engine_events_per_sec: f64,
    /// Did the engine run deliver the identical [`fsf_network::DeliveryLog`]
    /// as the single-shard oracle run? (Trivially true at 1 shard and when
    /// the engine run is skipped.)
    pub equal_to_single: bool,
    /// Did `scheduled_total == steps + dropped_from_queue + queue_depth`
    /// hold at quiescence for both runs?
    pub conserved: bool,
}

/// The relay-flood behavior: re-broadcast every first sighting of a
/// message id to all other neighbors. On a tree each node handles each
/// flood exactly once, so a run's step count is `floods × nodes` — all
/// wall-clock variation is the scheduler's.
#[derive(Debug, Default)]
pub struct RelayFlood {
    /// Message ids seen, in arrival order.
    pub seen: Vec<u64>,
}

impl NodeBehavior for RelayFlood {
    type Msg = u64;
    fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        if self.seen.contains(&msg) {
            return;
        }
        self.seen.push(msg);
        let me = ctx.node();
        for n in ctx.neighbors().to_vec() {
            if n != from || from == me {
                ctx.send(n, msg, ChargeKind::Event, 1);
            }
        }
    }
}

/// Run the raw relay flood at `shards` shards; returns the row's flood
/// fields plus the conservation verdict.
fn flood_run(config: &ScaleConfig, shards: usize) -> (usize, u64, f64, bool) {
    let topology = builders::balanced(config.total_nodes, 2);
    let latency = LatencyModel::Uniform {
        hop: config.hop_latency,
    };
    let mut net = Simulator::build(topology, latency, shards, |_, _| RelayFlood::default());
    let effective = net.shards();
    // origins spread over the id space so every shard sees local traffic
    for f in 0..config.floods {
        let origin = (f * config.total_nodes) / config.floods;
        net.inject(NodeId(origin as u32), f as u64);
    }
    let start = Instant::now();
    net.run_to_quiescence();
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let steps = net.steps();
    let conserved =
        net.scheduled_total() == steps + net.dropped_from_queue() + net.queue_depth() as u64;
    (effective, steps, steps as f64 / elapsed, conserved)
}

/// The station workload: sensor `i` on a deep node, its subscriber one hop
/// up, a single-sensor full-range subscription between them. Returns the
/// event-phase throughput and the engine for inspection.
fn station_run(config: &ScaleConfig, shards: usize) -> (f64, bool, Box<dyn Engine>) {
    let topology = builders::balanced(config.total_nodes, 2);
    let latency = LatencyModel::Uniform {
        hop: config.hop_latency,
    };
    let mut e = EngineKind::FilterSplitForward
        .builder(topology)
        .validity(2 * config.delta_t)
        .seed(config.engine_seed)
        .latency(latency)
        .shards(shards)
        .build();
    // stations on the leaf layer (the back half of the id space), evenly
    // spread so each carved subtree hosts some
    let half = config.total_nodes / 2;
    let station_node = |i: usize| half + (i * half) / config.stations.max(1);
    for i in 0..config.stations {
        let node = NodeId(station_node(i) as u32);
        e.inject_sensor(
            node,
            Advertisement {
                sensor: SensorId(i as u32 + 1),
                attr: AttrId((i % 5) as u16),
                location: Point::new(i as f64, 0.0),
            },
        );
    }
    e.flush();
    for i in 0..config.stations {
        // the subscriber sits one hop toward the root
        let parent = NodeId((station_node(i) - 1) as u32 / 2);
        let sub = Subscription::identified(
            SubId(i as u64 + 1),
            [(SensorId(i as u32 + 1), ValueRange::new(0.0, 100.0))],
            config.delta_t,
        )
        .expect("single-sensor subscription");
        e.inject_subscription(parent, sub);
    }
    e.flush();
    let steps_before = e.steps();
    let start = Instant::now();
    let mut next_event = 0u64;
    for j in 0..config.events_per_station {
        for i in 0..config.stations {
            let node = NodeId(station_node(i) as u32);
            next_event += 1;
            e.inject_event(
                node,
                Event {
                    id: EventId(next_event),
                    sensor: SensorId(i as u32 + 1),
                    attr: AttrId((i % 5) as u16),
                    location: Point::new(i as f64, 0.0),
                    value: 50.0,
                    timestamp: Timestamp(1_000 + (j as u64) * 4 * config.delta_t),
                },
            );
        }
        e.flush();
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let conserved =
        e.scheduled_total() == e.steps() + e.dropped_from_queue() + e.queue_depth() as u64;
    ((e.steps() - steps_before) as f64 / elapsed, conserved, e)
}

/// Run the scale scenario: the shard sweep of `config.shard_counts`, each
/// shard count measured on the raw flood and (when `stations > 0`) on the
/// Filter-Split-Forward engine, gated against the single-shard oracle.
#[must_use]
pub fn run_scale(config: &ScaleConfig) -> Vec<ScaleRow> {
    // the oracle baseline: always computed at 1 shard, even when the sweep
    // doesn't list it
    let oracle_deliveries = if config.stations > 0 {
        let (_, _, e) = station_run(config, 1);
        Some(e.deliveries().clone())
    } else {
        None
    };
    let (_, oracle_steps, _, oracle_conserved) = flood_run(config, 1);

    config
        .shard_counts
        .iter()
        .map(|&shards| {
            let (effective, steps, flood_eps, flood_conserved) = flood_run(config, shards);
            let (engine_eps, engine_conserved, equal) = match &oracle_deliveries {
                Some(oracle) => {
                    let (eps, conserved, e) = station_run(config, shards);
                    (eps, conserved, e.deliveries() == oracle)
                }
                None => (0.0, true, true),
            };
            ScaleRow {
                nodes: config.total_nodes,
                shards,
                effective_shards: effective,
                flood_steps: steps,
                flood_events_per_sec: flood_eps,
                engine_events_per_sec: engine_eps,
                equal_to_single: equal && steps == oracle_steps,
                conserved: flood_conserved && engine_conserved && oracle_conserved,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScaleConfig {
        let mut c = ScaleConfig::quick();
        c.total_nodes = 511;
        c.floods = 3;
        c.stations = 4;
        c.events_per_station = 2;
        c
    }

    #[test]
    fn scale_rows_are_deterministic_and_conserved() {
        let rows = run_scale(&tiny());
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.nodes, 511);
            // a tree flood handles each message exactly once per node
            assert_eq!(row.flood_steps, 3 * 511, "shards={}", row.shards);
            assert!(row.conserved, "conservation broke at {} shards", row.shards);
            assert!(
                row.equal_to_single,
                "shards={} diverged from the oracle",
                row.shards
            );
            assert!(row.flood_events_per_sec > 0.0);
            assert!(row.engine_events_per_sec > 0.0);
        }
        // the partitioner actually carved the multi-shard rows
        assert_eq!(rows[0].effective_shards, 1);
        assert!(rows[1].effective_shards > 1, "{rows:?}");
        assert!(rows[2].effective_shards > 1, "{rows:?}");
    }

    #[test]
    fn skipping_stations_still_measures_the_flood() {
        let mut c = tiny();
        c.stations = 0;
        let rows = run_scale(&c);
        assert!(rows.iter().all(|r| r.engine_events_per_sec == 0.0));
        assert!(rows.iter().all(|r| r.equal_to_single && r.conserved));
    }

    #[test]
    fn scaling_shrinks_the_workload_not_the_network() {
        let c = ScaleConfig::paper_scale().scaled(0.5);
        assert_eq!(c.total_nodes, (1 << 17) - 1);
        assert_eq!(c.floods, 4);
        assert_eq!(c.stations, 8);
    }
}
