//! A raw relay flood over the bare [`NodeBehavior`] substrate: every
//! message fans out across the whole tree, so a run is bounded by the
//! event queue itself, not by engine logic. The benchmark's scheduler
//! probes drive it on the single heap and on the sharded queue.

use fsf_network::{ChargeKind, Ctx, NodeBehavior, NodeId};

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

#[cfg(test)]
mod tests {
    use super::*;
    use fsf_network::{builders, LatencyModel, Simulator};

    #[test]
    fn a_tree_flood_handles_each_message_once_per_node_at_any_shard_count() {
        let nodes = 511;
        for shards in [1, 2, 4] {
            let topology = builders::balanced(nodes, 2);
            let latency = LatencyModel::Uniform { hop: 2 };
            let mut net = Simulator::build(topology, latency, shards, |_, _| RelayFlood::default());
            for f in 0..3u64 {
                net.inject(NodeId((f as usize * nodes / 3) as u32), f);
            }
            net.run_to_quiescence();
            assert_eq!(net.steps(), 3 * nodes as u64, "shards={shards}");
            assert_eq!(
                net.scheduled_total(),
                net.steps() + net.dropped_from_queue(),
                "shards={shards}: conservation"
            );
            if shards > 1 {
                assert!(net.shards() > 1, "the partitioner never carved");
            }
        }
    }
}
