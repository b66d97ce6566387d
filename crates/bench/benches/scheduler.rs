//! Criterion micro-benchmarks of the discrete-event scheduler itself: the
//! single-heap push/pop path against the sharded calendar queues, the
//! cross-shard handoff cost at a subtree boundary, and the channel
//! primitive the threaded runtime hands messages over.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fsf_network::{builders, LatencyModel, NodeId, Simulator};
use fsf_telemetry::Recorder;
use fsf_workload::RelayFlood;
use std::hint::black_box;

/// Full flood to quiescence: every node handles every flood once, so the
/// run is dominated by scheduler pushes and pops — `shards = 1` exercises
/// the global `BinaryHeap`, more exercise the per-shard calendars.
fn bench_flood_to_quiescence(c: &mut Criterion) {
    let mut g = c.benchmark_group("flood_to_quiescence");
    g.sample_size(10);
    for nodes in [4_095usize, 32_767] {
        for shards in [1usize, 2, 4] {
            g.bench_with_input(
                BenchmarkId::new(format!("{shards}shard"), nodes),
                &nodes,
                |b, &n| {
                    b.iter(|| {
                        let mut net = Simulator::build(
                            builders::balanced(n, 2),
                            LatencyModel::Uniform { hop: 2 },
                            shards,
                            |_, _| RelayFlood::default(),
                        );
                        for f in 0..4u64 {
                            net.inject(NodeId((f as usize * n / 4) as u32), f);
                        }
                        black_box(net.run_to_quiescence())
                    });
                },
            );
        }
    }
    g.finish();
}

/// Cross-shard handoff: a flood injected at one edge of a 2-shard tree
/// must cross the shard boundary, so every round pays the lookahead
/// fixpoint and the outgoing-routing barrier. Comparing against the same
/// topology at 1 shard isolates the handoff overhead.
fn bench_cross_shard_handoff(c: &mut Criterion) {
    let mut g = c.benchmark_group("cross_shard_handoff");
    g.sample_size(10);
    let n = 8_191usize;
    for shards in [1usize, 2] {
        g.bench_with_input(BenchmarkId::new("edge_flood", shards), &shards, |b, &s| {
            b.iter(|| {
                let mut net = Simulator::build(
                    builders::balanced(n, 2),
                    LatencyModel::Uniform { hop: 1 },
                    s,
                    |_, _| RelayFlood::default(),
                );
                // deepest leaf: the flood climbs to the root and back down
                // into every other subtree — maximal boundary crossings
                net.inject(NodeId((n - 1) as u32), 1);
                black_box(net.run_to_quiescence())
            });
        });
    }
    g.finish();
}

/// Telemetry overhead: the same flood-to-quiescence run with the sink
/// disabled (`Noop`, statically compiled out — the baseline every other
/// benchmark pays) and with a live [`Recorder`] capturing the full message
/// lifecycle. The `noop` and plain scheduler numbers must agree within
/// noise (the zero-overhead claim); `recorder` shows the real cost of
/// tracing a run.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_overhead");
    g.sample_size(10);
    let n = 8_191usize;
    g.bench_function("noop", |b| {
        b.iter(|| {
            let mut net = Simulator::build(
                builders::balanced(n, 2),
                LatencyModel::Uniform { hop: 2 },
                1,
                |_, _| RelayFlood::default(),
            );
            for f in 0..4u64 {
                net.inject(NodeId((f as usize * n / 4) as u32), f);
            }
            black_box(net.run_to_quiescence())
        });
    });
    g.bench_function("recorder", |b| {
        b.iter(|| {
            let recorder = Recorder::new();
            let mut net = Simulator::build_with_sink(
                builders::balanced(n, 2),
                LatencyModel::Uniform { hop: 2 },
                recorder.clone(),
                1,
                |_, _| RelayFlood::default(),
            );
            for f in 0..4u64 {
                net.inject(NodeId((f as usize * n / 4) as u32), f);
            }
            let steps = net.run_to_quiescence();
            black_box((steps, recorder.len()))
        });
    });
    g.finish();
}

/// The channel the threaded runtime moves envelopes over (vendored
/// crossbeam, an mpsc wrapper): ping a batch through and drain it.
fn bench_channel_handoff(c: &mut Criterion) {
    let mut g = c.benchmark_group("channel_handoff");
    for batch in [64usize, 1_024] {
        g.bench_with_input(BenchmarkId::new("send_drain", batch), &batch, |b, &n| {
            let (tx, rx) = crossbeam::channel::unbounded::<u64>();
            b.iter(|| {
                for i in 0..n as u64 {
                    tx.send(i).unwrap();
                }
                let mut sum = 0u64;
                for _ in 0..n {
                    sum += rx.recv().unwrap();
                }
                black_box(sum)
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_flood_to_quiescence,
    bench_cross_shard_handoff,
    bench_telemetry_overhead,
    bench_channel_handoff
);
criterion_main!(benches);
