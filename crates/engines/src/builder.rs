//! Fluent construction of every engine family on every deployment — the
//! one path from an [`EngineKind`] and its knobs to a `Box<dyn Engine>`.

use crate::api::{Engine, EngineKind};
use crate::async_engine::AsyncEngine;
use crate::protocol::{CentralProto, MjProto, Protocol, PubSubProto};
use crate::sim_engine::SimEngine;
use fsf_core::PubSubConfig;
use fsf_network::{LatencyModel, Topology};
use fsf_runtime::HostMode;
use fsf_subsumption::MatchMode;
use fsf_telemetry::{Noop, Recorder};

/// Where an engine's nodes execute — the deployment axis of
/// [`EngineBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deploy {
    /// The deterministic discrete-event simulator (default): virtual
    /// clock, partial advancement, event-queue sharding, telemetry sinks.
    Simulator,
    /// The production host with one OS thread per node: bounded mailboxes,
    /// backpressure, wire framing, per-link write batching.
    Threaded,
    /// The production host with nodes as async tasks multiplexed on the
    /// vendored `miniloop` executor.
    Async {
        /// Executor worker threads (clamped to at least 1).
        workers: usize,
    },
}

/// A knob combination [`EngineBuilder`] cannot build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// A telemetry sink on a host deployment.
    SinkOnHost,
    /// `shards > 1` on a host deployment. It stays an error because there
    /// is nothing for it to mean: host workers are sized by
    /// [`Deploy::Async`]'s `workers`, and the host has no calendar queue to
    /// shard.
    ShardsOnHost,
    /// A heartbeat with a zero period or a zero suspicion timeout.
    ZeroHeartbeat,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ConfigError::SinkOnHost => {
                "run telemetry requires Deploy::Simulator (the host's nodes run concurrently; \
                 the virtual-clock lifecycle trace is a simulator feature)"
            }
            ConfigError::ShardsOnHost => {
                "event-queue sharding is a simulator knob; size the host with \
                 Deploy::Async { workers } instead"
            }
            ConfigError::ZeroHeartbeat => {
                "the heartbeat period and suspicion timeout must both be positive"
            }
        })
    }
}

impl std::error::Error for ConfigError {}

/// Fluent construction for every engine family, deployment, and knob:
///
/// ```ignore
/// let engine = EngineKind::FilterSplitForward
///     .builder(topology)
///     .validity(1_000)
///     .seed(42)
///     .latency(LatencyModel::Uniform { hop: 2 })
///     .match_mode(MatchMode::Arrangement)
///     .deploy(Deploy::Async { workers: 4 })
///     .build();
/// ```
///
/// Knob interactions: [`EngineBuilder::shards`] and
/// [`EngineBuilder::sink`] are simulator features, and a heartbeat needs a
/// positive period and timeout ([`EngineBuilder::try_build`] returns the
/// [`ConfigError`]; [`EngineBuilder::build`] panics with it);
/// [`EngineBuilder::mailbox`] only affects host deployments.
pub struct EngineBuilder {
    kind: EngineKind,
    topology: Topology,
    event_validity: u64,
    seed: u64,
    latency: LatencyModel,
    shards: usize,
    mode: MatchMode,
    sink: Option<Recorder>,
    deploy: Deploy,
    mailbox: usize,
    heartbeat: Option<(u64, u64)>,
}

impl EngineBuilder {
    /// Defaults: validity 1000, seed 7, zero latency, one shard, default
    /// match mode, no sink, simulator deployment, 64-frame mailboxes, no
    /// heartbeat failure detector.
    #[must_use]
    pub fn new(kind: EngineKind, topology: Topology) -> Self {
        EngineBuilder {
            kind,
            topology,
            event_validity: 1_000,
            seed: 7,
            latency: LatencyModel::Zero,
            shards: 1,
            mode: MatchMode::default(),
            sink: None,
            deploy: Deploy::Simulator,
            mailbox: 64,
            heartbeat: None,
        }
    }

    /// Event-store validity horizon; must exceed the workload's largest
    /// `δt` (§IV-B).
    #[must_use]
    pub fn validity(mut self, event_validity: u64) -> Self {
        self.event_validity = event_validity;
        self
    }

    /// Base RNG seed for the probabilistic set filter
    /// (Filter-Split-Forward only).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Per-link message latency model (virtual ticks).
    #[must_use]
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Event-queue shard count (simulator deployments only; 1 = the
    /// single-heap deterministic oracle). The sharded backend delivers the
    /// same [`fsf_network::DeliveryLog`] as the oracle — shard count is a
    /// performance knob, not a semantics knob — and a zero-latency network
    /// has no lookahead, so it coalesces back to one effective shard.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Candidate-query implementation ([`MatchMode::LinearScan`] is the
    /// differential-test oracle).
    #[must_use]
    pub fn match_mode(mut self, mode: MatchMode) -> Self {
        self.mode = mode;
        self
    }

    /// Record full run telemetry into `recorder` (simulator deployments
    /// only; the engine holds clones sharing the same store): every
    /// message lifecycle event, shard-round profile and engine-level
    /// operation span, on the virtual clock. Use [`Recorder::reconcile`]
    /// after a run to check the trace against the simulator's own
    /// conservation counters, or the `fsf-telemetry` exporters to write
    /// JSONL / Chrome trace JSON.
    #[must_use]
    pub fn sink(mut self, recorder: Recorder) -> Self {
        self.sink = Some(recorder);
        self
    }

    /// Where the nodes execute (default [`Deploy::Simulator`]).
    #[must_use]
    pub fn deploy(mut self, deploy: Deploy) -> Self {
        self.deploy = deploy;
        self
    }

    /// Bounded mailbox capacity per node, in wire frames (host
    /// deployments only; senders park when a mailbox is full).
    #[must_use]
    pub fn mailbox(mut self, frames: usize) -> Self {
        self.mailbox = frames;
        self
    }

    /// Enable the in-protocol heartbeat failure detector with the given
    /// ping period and suspicion timeout, both in virtual ticks — see
    /// [`crate::EngineControl::set_liveness`]. It runs on every simulator
    /// shard count; host deployments probe on management-plane ticks
    /// instead. Both values must be positive.
    #[must_use]
    pub fn heartbeat(mut self, period: u64, timeout: u64) -> Self {
        self.heartbeat = Some((period, timeout));
        self
    }

    /// Is this knob combination buildable?
    fn check(&self) -> Result<(), ConfigError> {
        let on_host = self.deploy != Deploy::Simulator;
        if on_host && self.sink.is_some() {
            Err(ConfigError::SinkOnHost)
        } else if on_host && self.shards > 1 {
            Err(ConfigError::ShardsOnHost)
        } else if matches!(self.heartbeat, Some((0, _) | (_, 0))) {
            Err(ConfigError::ZeroHeartbeat)
        } else {
            Ok(())
        }
    }

    /// Construct the engine.
    ///
    /// # Errors
    /// Fails on a knob combination no deployment supports.
    pub fn try_build(self) -> Result<Box<dyn Engine>, ConfigError> {
        self.check()?;
        let (kind, validity, seed, mode) = (self.kind, self.event_validity, self.seed, self.mode);
        let pubsub =
            |config: PubSubConfig| PubSubProto::new(kind.name(), config.with_match_mode(mode));
        Ok(match kind {
            EngineKind::Centralized => {
                let proto = CentralProto::new(&self.topology, validity, mode);
                self.deploy_proto(proto)
            }
            EngineKind::MultiJoin => self.deploy_proto(MjProto::new(validity, mode)),
            EngineKind::Naive => self.deploy_proto(pubsub(PubSubConfig::naive(validity, seed))),
            EngineKind::OperatorPlacement => {
                self.deploy_proto(pubsub(PubSubConfig::operator_placement(validity, seed)))
            }
            EngineKind::FilterSplitForward => {
                self.deploy_proto(pubsub(PubSubConfig::fsf(validity, seed)))
            }
        })
    }

    /// Construct the engine.
    ///
    /// # Panics
    /// Panics with the [`ConfigError`] where [`Self::try_build`] fails.
    #[must_use]
    pub fn build(self) -> Box<dyn Engine> {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Put `proto` on the chosen substrate (configuration already checked).
    fn deploy_proto<P: Protocol>(self, proto: P) -> Box<dyn Engine> {
        let host_mode = match self.deploy {
            Deploy::Simulator => None,
            Deploy::Threaded => Some(HostMode::ThreadPerNode),
            Deploy::Async { workers } => Some(HostMode::Executor {
                workers: workers.max(1),
            }),
        };
        let (topology, latency, shards) = (self.topology, self.latency, self.shards);
        let mut engine: Box<dyn Engine> = match (host_mode, self.sink) {
            (Some(mode), _) => Box::new(AsyncEngine::new(
                proto,
                &topology,
                latency,
                mode,
                self.mailbox.max(1),
            )),
            (None, Some(recorder)) => Box::new(SimEngine::with_sink(
                topology, latency, shards, recorder, proto,
            )),
            (None, None) => Box::new(SimEngine::with_sink(topology, latency, shards, Noop, proto)),
        };
        if let Some((period, timeout)) = self.heartbeat {
            engine.set_liveness(period, timeout);
        }
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::tests::{adv, ev, sub};
    use fsf_model::{EventId, SubId};
    use fsf_network::{builders, NodeId};

    /// Sensor up, subscribe, publish, flush: did the reading arrive?
    fn smoke_delivers(mut e: Box<dyn Engine>) -> bool {
        e.inject_sensor(NodeId(3), adv(1, 0));
        e.flush();
        e.inject_subscription(NodeId(6), sub(1, &[(1, 0.0, 10.0)]));
        e.flush();
        e.inject_event(NodeId(3), ev(100, 1, 0, 5.0, 1_000));
        e.flush();
        e.deliveries().delivered(SubId(1)).contains(&EventId(100))
    }

    /// Every knob combination either builds an engine that works or is the
    /// `ConfigError` naming a rule the combination breaks; none panics.
    #[test]
    fn every_configuration_builds_and_delivers_or_is_a_config_error() {
        let deploys = [
            Deploy::Simulator,
            Deploy::Threaded,
            Deploy::Async { workers: 2 },
        ];
        let (mut built, mut rejected) = (0, 0);
        for kind in EngineKind::ALL {
            for deploy in deploys {
                for cell in 0..16u8 {
                    let shards = 1 + usize::from(cell & 1);
                    let (sink, heartbeat) = (cell & 2 != 0, cell & 4 != 0);
                    let mode =
                        [MatchMode::Arrangement, MatchMode::LinearScan][usize::from(cell >> 3)];
                    let ctx = format!(
                        "{kind} {deploy:?} shards {shards} sink {sink} hb {heartbeat} {mode:?}"
                    );
                    let mut b = kind
                        .builder(builders::balanced(7, 2))
                        .latency(LatencyModel::Uniform { hop: 1 })
                        .deploy(deploy)
                        .shards(shards)
                        .match_mode(mode);
                    if sink {
                        b = b.sink(Recorder::new());
                    }
                    if heartbeat {
                        b = b.heartbeat(4, 12);
                    }
                    let on_host = deploy != Deploy::Simulator;
                    // `ShardsOnHost` is the one rule left that no future
                    // feature removes: host workers are sized by
                    // `Deploy::Async { workers }`, and the host has no
                    // calendar queue to shard
                    let broken: Vec<ConfigError> = [
                        (on_host && sink, ConfigError::SinkOnHost),
                        (on_host && shards > 1, ConfigError::ShardsOnHost),
                    ]
                    .into_iter()
                    .filter_map(|(breaks, rule)| breaks.then_some(rule))
                    .collect();
                    match b.try_build() {
                        Ok(engine) => {
                            assert!(broken.is_empty(), "{ctx}: built despite {broken:?}");
                            assert!(smoke_delivers(engine), "{ctx}: nothing delivered");
                            built += 1;
                        }
                        Err(e) => {
                            assert!(broken.contains(&e), "{ctx}: {e:?} not in {broken:?}");
                            assert!(!e.to_string().is_empty());
                            rejected += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(built + rejected, 5 * 3 * 16);
        assert_eq!(
            built,
            5 * (16 + 2 * 4),
            "of 16 cells: all 16 on the simulator, 4 on each host"
        );
    }

    /// A zero heartbeat period or timeout is a `ConfigError` on every
    /// deployment, never a panic inside `try_build`.
    #[test]
    fn a_zero_heartbeat_is_a_config_error() {
        let deploys = [
            Deploy::Simulator,
            Deploy::Threaded,
            Deploy::Async { workers: 2 },
        ];
        for deploy in deploys {
            for (period, timeout) in [(0, 12), (4, 0)] {
                let built = EngineKind::FilterSplitForward
                    .builder(builders::balanced(7, 2))
                    .deploy(deploy)
                    .heartbeat(period, timeout)
                    .try_build();
                assert_eq!(
                    built.err(),
                    Some(ConfigError::ZeroHeartbeat),
                    "{deploy:?} heartbeat({period}, {timeout})"
                );
            }
        }
    }
}
