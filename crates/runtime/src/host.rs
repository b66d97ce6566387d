//! The production node host: every topology node runs as an asynchronous
//! task (or a dedicated thread) with a **bounded mailbox**, explicit
//! backpressure, and the binary [`crate::codec`] on every link.
//!
//! This is the deployment-shaped counterpart of the discrete-event
//! simulator in `fsf-network`:
//!
//! * **Bounded mailboxes.** Each node owns one bounded channel (the wire's
//!   receive buffer). A sender facing a full mailbox *parks* — nothing is
//!   ever dropped — and every park is counted in the [`HostLedger`].
//! * **Deadlock-free backpressure.** Before parking on a full peer, a node
//!   drains its *own* mailbox into a local staging queue (the application
//!   reading the socket so the kernel buffer frees). A node parked on a
//!   full peer therefore always has an empty mailbox of its own, so a
//!   cycle of mutually-full mailboxes cannot form.
//! * **Wire framing.** Every link message and injection crosses its
//!   channel as an encoded [`crate::codec::WireMsg`] frame and is decoded
//!   on arrival — the channels carry bytes, exactly as sockets would.
//! * **Per-link write batching.** Within one handler's outbox, adjacent
//!   frames bound for the same peer are coalesced through
//!   [`crate::codec::WireMsg::coalesce`] (`Events` runs merge into one
//!   frame; control messages never merge, preserving per-link FIFO).
//!   Traffic is charged per original message, so [`TrafficStats`] stays
//!   comparable; the sender's ledger row counts the saved frames.
//! * **Virtual timestamps.** Packets carry a logical `at`; each hop adds
//!   the [`LatencyModel`] delay, so delivery latencies remain measurable
//!   against the timed simulator's reference timeline even though
//!   execution itself is free-running.
//! * **Churn.** The topology lives behind a shared snapshot;
//!   [`NodeHost::crash_and_regraft`] re-grafts it, marks the corpse down
//!   (subsequent traffic to it is counted `dropped_to_downed`), and
//!   broadcasts [`NodeBehavior::on_topology_change`];
//!   [`NodeHost::run_recovery`] runs the survivors' recovery protocol.
//!
//! * **Partitions.** [`NodeHost::sever_link`] marks a link severed in the
//!   shared topology snapshot: frames bound across the cut die at the
//!   sender's radio — charged, counted `dropped_severed`, never delivered.
//!   [`NodeHost::heal_link`] re-enables the link and runs
//!   [`NodeBehavior::on_link_up`] on both live endpoints so divergent
//!   state reconciles in-protocol.
//! * **Liveness.** The free-running host has no virtual clock to ride, so
//!   the simulator's failure detector ([`fsf_network::liveness::Detector`],
//!   the same rules) runs on management-plane ticks:
//!   [`NodeHost::liveness_tick`] is one probe round `period` units after
//!   the last, in which every live node hears each neighbor that is up and
//!   not cut off.
//!
//! **Books per node, folded at the read.** Each node task keeps its own
//! traffic, deliveries and [`HostLedger`] row, and moves them into its own
//! slot at the end of every handler. The management plane's slot holds the
//! injection registry and what [`NodeHost::inject`] counts. Every read
//! folds the slots, as the sharded simulator folds its shards at the round
//! barrier: traffic and deliveries move into the management slot, and the
//! ledger rows are summed ([`NodeHost::node_ledgers`] reads them one by
//! one).
//!
//! The conservation ledger reconciles at quiescence:
//! `scheduled == handled + dropped_to_downed + dropped_severed +
//! dropped_malformed` — backpressure parks senders instead of dropping, a
//! frame that does not decode is counted and skipped, and the robustness
//! battery holds the host to it.

use crate::codec::WireMsg;
use bytes::Bytes;
use fsf_model::EventId;
use fsf_network::liveness::Detector;
use fsf_network::{
    ChargeKind, Ctx, DeliveryLog, LatencyModel, NodeBehavior, NodeId, RegraftDelta, Topology,
    TopologyError, TrafficStats,
};
use miniloop::sync::mpsc;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard};
use std::task::{Context, Poll};

/// How the node bodies execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostMode {
    /// One dedicated OS thread per node, each driving the node task with
    /// [`miniloop::block_on`] — the paper's one-JVM-per-Xen-VM shape.
    ThreadPerNode,
    /// All nodes multiplexed as tasks on a [`miniloop::Runtime`] with the
    /// given number of worker threads — the service deployment shape.
    Executor {
        /// Executor worker threads (clamped to at least 1).
        workers: usize,
    },
}

/// Host construction knobs.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Execution mode (threads vs executor tasks).
    pub mode: HostMode,
    /// Bounded mailbox capacity per node, in wire frames (clamped ≥ 1).
    pub mailbox: usize,
    /// Per-link delay added to packet timestamps (virtual ticks — the
    /// host's execution is free-running; the timestamps keep the delivery
    /// latency measurements aligned with the timed simulator).
    pub latency: LatencyModel,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            mode: HostMode::Executor { workers: 4 },
            mailbox: 64,
            latency: LatencyModel::Zero,
        }
    }
}

/// The host's conservation ledger, all counters cumulative.
///
/// At quiescence `scheduled == handled + dropped_to_downed +
/// dropped_severed + dropped_malformed`: every frame accepted by the host
/// is either delivered to a behavior or accounted to a downed node, a
/// severed link or a failed decode — backpressure parks senders, it never
/// drops silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostLedger {
    /// Frames accepted by the host (injections + link sends).
    pub scheduled: u64,
    /// Frames delivered to a node behavior.
    pub handled: u64,
    /// Frames addressed to a downed node (charged, then dropped at the
    /// wire — the corpse cannot receive).
    pub dropped_to_downed: u64,
    /// Frames that died at the sender's radio because the link was
    /// severed (charged, never delivered).
    pub dropped_severed: u64,
    /// Frames that reached a node but did not decode (dropped by the
    /// receiver, which keeps serving the frames after it).
    pub dropped_malformed: u64,
    /// Times a sender parked on a full mailbox (backpressure events).
    pub parks: u64,
    /// Encoded frames that actually crossed a link (after batching).
    pub wire_frames: u64,
    /// Bytes across all links (after batching).
    pub wire_bytes: u64,
    /// Original messages absorbed into a neighboring frame by per-link
    /// write batching (each saved one wire frame).
    pub coalesced_frames: u64,
}

impl std::ops::AddAssign for HostLedger {
    fn add_assign(&mut self, row: HostLedger) {
        self.scheduled += row.scheduled;
        self.handled += row.handled;
        self.dropped_to_downed += row.dropped_to_downed;
        self.dropped_severed += row.dropped_severed;
        self.dropped_malformed += row.dropped_malformed;
        self.parks += row.parks;
        self.wire_frames += row.wire_frames;
        self.wire_bytes += row.wire_bytes;
        self.coalesced_frames += row.coalesced_frames;
    }
}

/// A control closure executed on a node's own task with a live [`Ctx`]
/// (sends it makes are charged and delivered like any message).
pub type ControlFn<B> =
    Box<dyn FnOnce(&mut B, &mut Ctx<'_, <B as NodeBehavior>::Msg>) + Send + 'static>;

enum Packet<B: NodeBehavior> {
    /// An encoded message frame (injection or link traffic).
    Wire {
        from: NodeId,
        at: u64,
        frame: Bytes,
    },
    /// A management-plane closure, acknowledged after its outbox flushed.
    Ctl {
        run: ControlFn<B>,
        at: u64,
        ack: std::sync::mpsc::Sender<()>,
    },
    Stop,
}

/// One worker's books: the traffic it charged, what it delivered and its
/// ledger row.
#[derive(Default)]
struct Books {
    stats: TrafficStats,
    deliveries: DeliveryLog,
    ledger: HostLedger,
}

impl Books {
    /// Move these books into `slot`. The guard lives for this call only, so
    /// it is never held across an `.await`.
    fn publish(&mut self, slot: &Mutex<Books>) {
        let mut slot = slot.lock();
        slot.stats.merge(&std::mem::take(&mut self.stats));
        self.deliveries.drain_into(&mut slot.deliveries);
        slot.ledger += std::mem::take(&mut self.ledger);
    }
}

struct HostShared {
    /// One slot per node, in id order. A node task locks only its own.
    slots: Vec<Mutex<Books>>,
    /// The management plane's slot: the injection registry, what `inject`
    /// counts, and the traffic and deliveries folded out of `slots`.
    management: Mutex<Books>,
    /// Messages injected or sent but not yet fully processed; 0 ⇒ quiescent.
    /// `SeqCst`: this is the quiescence proof — a handler registers its
    /// sends and publishes its books before its decrement, so a zero read
    /// sees all of them.
    pending: AtomicI64,
    topology: Mutex<Arc<Topology>>,
    /// Release/Acquire: a task that reads a node down also reads the
    /// regrafted topology stored before it.
    down: Vec<AtomicBool>,
    latency: LatencyModel,
    /// High-water logical packet timestamp observed by any handler.
    /// `Relaxed`: each bump precedes its handler's `pending` decrement, so
    /// a read after [`NodeHost::wait_quiescent`]'s `SeqCst` load sees it.
    clock: AtomicU64,
    liveness: Mutex<Option<Detector>>,
}

impl HostShared {
    fn topology(&self) -> Arc<Topology> {
        Arc::clone(&self.topology.lock())
    }

    fn is_down(&self, node: NodeId) -> bool {
        self.down[node.0 as usize].load(Ordering::Acquire)
    }
}

enum Running {
    Threads(Vec<std::thread::JoinHandle<()>>),
    Executor {
        // field order = drop order: join handles die before the runtime
        tasks: Vec<miniloop::JoinHandle<()>>,
        rt: miniloop::Runtime,
    },
}

/// A deployed network of node behaviors — see the module docs.
pub struct NodeHost<B>
where
    B: NodeBehavior + Send + 'static,
    B::Msg: WireMsg + Send + 'static,
{
    txs: Vec<mpsc::Sender<Packet<B>>>,
    shared: Arc<HostShared>,
    running: Option<Running>,
}

impl<B> NodeHost<B>
where
    B: NodeBehavior + Send + 'static,
    B::Msg: WireMsg + Send + 'static,
{
    /// Deploy one node per topology entry. `make_node` builds each node's
    /// behavior on the calling thread.
    #[must_use]
    pub fn spawn(
        topology: &Topology,
        config: &HostConfig,
        mut make_node: impl FnMut(NodeId, &Topology) -> B,
    ) -> Self {
        let n = topology.len();
        let shared = Arc::new(HostShared {
            slots: (0..n).map(|_| Mutex::default()).collect(),
            management: Mutex::default(),
            pending: AtomicI64::new(0),
            topology: Mutex::new(Arc::new(topology.clone())),
            down: (0..n).map(|_| AtomicBool::new(false)).collect(),
            latency: config.latency.clone(),
            clock: AtomicU64::new(0),
            liveness: Mutex::new(None),
        });
        let (txs, rxs): (Vec<_>, Vec<_>) =
            (0..n).map(|_| mpsc::channel(config.mailbox.max(1))).unzip();
        let txs_shared = Arc::new(txs.clone());
        let tasks = rxs.into_iter().enumerate().map(|(idx, rx)| {
            let id = NodeId(idx as u32);
            NodeTask {
                id,
                node: make_node(id, topology),
                rx,
                txs: Arc::clone(&txs_shared),
                shared: Arc::clone(&shared),
                staging: VecDeque::new(),
                outbox: Vec::new(),
                books: Books::default(),
            }
        });
        let running = match config.mode {
            HostMode::ThreadPerNode => Running::Threads(
                tasks
                    .map(|task| {
                        std::thread::Builder::new()
                            .name(format!("fsf-node-{}", task.id.0))
                            .spawn(move || miniloop::block_on(task.run()))
                            .expect("spawn node thread")
                    })
                    .collect(),
            ),
            HostMode::Executor { workers } => {
                let rt = miniloop::Builder::new_multi_thread()
                    .worker_threads(workers)
                    .build();
                let tasks = tasks.map(|task| rt.spawn(task.run())).collect();
                Running::Executor { tasks, rt }
            }
        };
        NodeHost {
            txs,
            shared,
            running: Some(running),
        }
    }

    /// Inject a local item at `node` with logical timestamp `at` (the node
    /// sees `from == node`). Injections at a downed node are accounted
    /// `dropped_to_downed`, mirroring the simulator. Backpressure applies:
    /// a full mailbox parks the *calling thread* until the node drains.
    pub fn inject(&self, node: NodeId, msg: &B::Msg, at: u64) {
        let mut books = self.shared.management.lock();
        books.ledger.scheduled += 1;
        if self.shared.is_down(node) {
            books.ledger.dropped_to_downed += 1;
            return;
        }
        drop(books);
        let frame = msg.to_frame();
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        let sent = self.txs[node.0 as usize].blocking_send(Packet::Wire {
            from: node,
            at,
            frame,
        });
        assert!(sent.is_ok(), "inject into a stopped node task");
    }

    /// Record an event injection time in the management plane's delivery
    /// log, the one holding the injection registry (feeds the latency
    /// percentiles).
    pub fn note_injection(&self, event: EventId, at: u64) {
        self.shared
            .management
            .lock()
            .deliveries
            .note_injection(event, at);
    }

    /// Block until no message is queued or being processed anywhere.
    pub fn wait_quiescent(&self) {
        while self.shared.pending.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
    }

    /// Crash `node` at quiescence: re-graft its orphans onto `anchor`,
    /// mark it down, and broadcast the new topology to every survivor
    /// ([`NodeBehavior::on_topology_change`] on each node's own task).
    ///
    /// # Errors
    /// Fails if `anchor` is downed or not a neighbor of `node`.
    pub fn crash_and_regraft(
        &self,
        node: NodeId,
        anchor: NodeId,
        at: u64,
    ) -> Result<RegraftDelta, TopologyError> {
        if self.shared.is_down(anchor) {
            return Err(TopologyError::BadEdge(node.0, anchor.0));
        }
        let (new_topology, delta) = {
            let mut topo = self.shared.topology.lock();
            let (t, delta) = topo.regraft_with_delta(node, anchor)?;
            *topo = Arc::new(t);
            (Arc::clone(&topo), delta)
        };
        self.shared.down[node.0 as usize].store(true, Ordering::Release);
        // every survivor refreshes routing state against the new snapshot
        for id in self.live_nodes() {
            let topo = Arc::clone(&new_topology);
            self.with_node(
                id,
                at,
                Box::new(move |node, _ctx| node.on_topology_change(&topo)),
            );
        }
        Ok(delta)
    }

    /// Run the crash-recovery protocol for one regraft: every surviving
    /// node gets [`NodeBehavior::on_recover`] on its own task, in id
    /// order, with a live [`Ctx`] — its repair sends are charged and
    /// delivered like any traffic (flush afterwards to drain them).
    pub fn run_recovery(&self, delta: &RegraftDelta, at: u64) {
        for id in self.live_nodes() {
            let delta = delta.clone();
            self.with_node(
                id,
                at,
                Box::new(move |node, ctx| node.on_recover(&delta, ctx)),
            );
        }
    }

    /// Execute a control closure on `id`'s own task and block until it —
    /// and the flush of any sends it made — completed.
    ///
    /// # Panics
    /// Panics if `id` is downed (corpses accept no management traffic).
    pub fn with_node(&self, id: NodeId, at: u64, run: ControlFn<B>) {
        assert!(
            !self.shared.is_down(id),
            "control message to downed node n{}",
            id.0
        );
        let (ack, acked) = std::sync::mpsc::channel();
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        let sent = self.txs[id.0 as usize].blocking_send(Packet::Ctl { run, at, ack });
        assert!(sent.is_ok(), "control message to a stopped node task");
        acked.recv().expect("node task alive for ack");
    }

    /// The nodes not marked down, in id order.
    fn live_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let ids = (0..self.txs.len() as u32).map(NodeId);
        ids.filter(|&id| !self.shared.is_down(id))
    }

    /// Sever the link between the adjacent nodes `a` and `b`: frames
    /// bound across the cut die at the sender's radio from now on —
    /// charged, counted `dropped_severed`, never delivered. Frames already
    /// in a mailbox still arrive. Idempotent.
    ///
    /// # Errors
    /// Fails if `(a, b)` is not an edge of the topology.
    pub fn sever_link(&self, a: NodeId, b: NodeId) -> Result<(), TopologyError> {
        let mut topo = self.shared.topology.lock();
        let mut t = (**topo).clone();
        t.sever_link(a, b)?;
        *topo = Arc::new(t);
        Ok(())
    }

    /// Heal a severed link and run [`NodeBehavior::on_link_up`] on both
    /// live endpoints (each on its own task, with a live [`Ctx`] — the
    /// reconciliation sends are charged and delivered like any traffic;
    /// flush afterwards to drain them). A no-op on a link that was not
    /// severed.
    ///
    /// # Errors
    /// Fails if `(a, b)` is not an edge of the topology.
    pub fn heal_link(&self, a: NodeId, b: NodeId, at: u64) -> Result<(), TopologyError> {
        let was_severed = {
            let mut topo = self.shared.topology.lock();
            let was = topo.is_severed(a, b);
            let mut t = (**topo).clone();
            t.heal_link(a, b)?;
            *topo = Arc::new(t);
            was
        };
        if !was_severed {
            return Ok(());
        }
        for (node, peer) in [(a, b), (b, a)] {
            if self.shared.is_down(node) {
                continue;
            }
            self.with_node(node, at, Box::new(move |n, ctx| n.on_link_up(peer, ctx)));
        }
        Ok(())
    }

    /// Enable the failure detector, probing on [`Self::liveness_tick`]
    /// rounds of `period` units each: a neighbor unheard for more than
    /// `timeout` units is suspected.
    ///
    /// # Panics
    /// Panics when `period` or `timeout` is zero.
    pub fn set_liveness(&self, period: u64, timeout: u64) {
        *self.shared.liveness.lock() = Some(Detector::new(period, timeout, 0));
    }

    /// One probe round of the failure detector (a no-op until
    /// [`Self::set_liveness`]), at the detector's next beat. The
    /// free-running host has no virtual clock for heartbeats to ride, so
    /// the management loop drives rounds explicitly: each live node hears
    /// each neighbor unless the simulator's ping would die at a radio —
    /// the peer is down or the link is severed — and then the detector
    /// sweeps (read confirmations with [`Self::take_confirmed_dead`]).
    pub fn liveness_tick(&self) {
        let mut guard = self.shared.liveness.lock();
        let Some(detector) = guard.as_mut() else {
            return;
        };
        let topo = self.shared.topology();
        let at = detector.next_beat();
        for a in topo.nodes().filter(|&a| !self.shared.is_down(a)) {
            for &b in topo.neighbors(a) {
                if !self.shared.is_down(b) && !topo.is_severed(a, b) {
                    detector.heard(a, b, at, true);
                }
            }
        }
        detector.sweep(at, &topo, |n| self.shared.is_down(n));
    }

    /// Active directed `(observer, suspect)` suspicions, sorted.
    #[must_use]
    pub fn suspicions(&self) -> Vec<(NodeId, NodeId)> {
        self.shared
            .liveness
            .lock()
            .as_ref()
            .map(Detector::suspicions)
            .unwrap_or_default()
    }

    /// Drain the nodes newly confirmed dead by the failure detector (each
    /// node appears once per confirmation; a successful probe re-admits a
    /// falsely confirmed node so it can be re-confirmed later).
    pub fn take_confirmed_dead(&self) -> Vec<NodeId> {
        self.shared
            .liveness
            .lock()
            .as_mut()
            .map(Detector::take_confirmed)
            .unwrap_or_default()
    }

    /// Is the node marked down?
    #[must_use]
    pub fn is_down(&self, node: NodeId) -> bool {
        self.shared.is_down(node)
    }

    /// The current topology snapshot.
    #[must_use]
    pub fn topology(&self) -> Arc<Topology> {
        self.shared.topology()
    }

    /// Snapshot of the accumulated traffic counters.
    #[must_use]
    pub fn stats(&self) -> TrafficStats {
        self.fold().stats.clone()
    }

    /// Move the deliveries made since the last call into `target` (see
    /// [`DeliveryLog::drain_into`]); the injection registry stays here.
    pub fn drain_deliveries_into(&self, target: &mut DeliveryLog) {
        self.fold().deliveries.drain_into(target);
    }

    /// Every node's traffic and deliveries moved into the management
    /// plane's slot (pending latencies resolve against its injection
    /// registry on the way); the ledger rows stay per node.
    fn fold(&self) -> MutexGuard<'_, Books> {
        let mut books = self.shared.management.lock();
        for slot in &self.shared.slots {
            let mut slot = slot.lock();
            books.stats.merge(&std::mem::take(&mut slot.stats));
            slot.deliveries.drain_into(&mut books.deliveries);
        }
        books
    }

    /// Snapshot of the conservation ledger: every node's row plus the
    /// management plane's.
    #[must_use]
    pub fn ledger(&self) -> HostLedger {
        let mut ledger = self.shared.management.lock().ledger;
        for slot in &self.shared.slots {
            ledger += slot.lock().ledger;
        }
        ledger
    }

    /// Each node's own ledger row, in id order: what it handled, sent,
    /// batched, parked on and dropped. Injections count in the management
    /// plane's row, which [`Self::ledger`] adds to these.
    #[must_use]
    pub fn node_ledgers(&self) -> Vec<HostLedger> {
        let slots = self.shared.slots.iter();
        slots.map(|slot| slot.lock().ledger).collect()
    }

    /// Messages accepted but not yet fully processed (0 at quiescence).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared.pending.load(Ordering::SeqCst).max(0) as usize
    }

    /// High-water logical packet timestamp any handler has observed.
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.shared.clock.load(Ordering::Relaxed)
    }

    /// Stop every node (including idle corpses) and return the final
    /// aggregates.
    pub fn shutdown(mut self) -> (TrafficStats, DeliveryLog) {
        self.wait_quiescent();
        self.stop_and_join();
        let books = std::mem::take(&mut *self.fold());
        (books.stats, books.deliveries)
    }

    fn stop_and_join(&mut self) {
        let Some(running) = self.running.take() else {
            return;
        };
        for tx in &self.txs {
            let _ = tx.blocking_send(Packet::Stop);
        }
        match running {
            Running::Threads(handles) => {
                for h in handles {
                    h.join().expect("node thread panicked");
                }
            }
            Running::Executor { tasks, rt } => {
                for t in tasks {
                    t.join();
                }
                rt.shutdown();
            }
        }
    }
}

impl<B> Drop for NodeHost<B>
where
    B: NodeBehavior + Send + 'static,
    B::Msg: WireMsg + Send + 'static,
{
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// What every node runs, identical across both host modes.
struct NodeTask<B: NodeBehavior> {
    id: NodeId,
    node: B,
    rx: mpsc::Receiver<Packet<B>>,
    txs: Arc<Vec<mpsc::Sender<Packet<B>>>>,
    shared: Arc<HostShared>,
    /// Packets drained out of the mailbox while this node was itself parked
    /// on a full peer (see [`SendLinked`]); processed before new arrivals,
    /// preserving per-link FIFO.
    staging: VecDeque<Packet<B>>,
    outbox: Vec<(NodeId, B::Msg, ChargeKind, u64)>,
    /// Moved into this node's slot at the end of every handler.
    books: Books,
}

impl<B: NodeBehavior> NodeTask<B>
where
    B::Msg: WireMsg,
{
    async fn run(mut self) {
        loop {
            let pkt = match self.staging.pop_front() {
                Some(p) => p,
                None => match self.rx.recv().await {
                    Some(p) => p,
                    None => break,
                },
            };
            let (at, ack) = match pkt {
                Packet::Stop => break,
                Packet::Ctl { run, at, ack } => {
                    self.handle(at, run);
                    (at, Some(ack))
                }
                Packet::Wire { from, at, frame } => {
                    if let Some(msg) = B::Msg::from_frame(frame) {
                        self.shared.clock.fetch_max(at, Ordering::Relaxed);
                        self.handle(at, |node, ctx| node.on_message(from, msg, ctx));
                        self.books.ledger.handled += 1;
                    } else {
                        self.books.ledger.dropped_malformed += 1;
                    }
                    (at, None)
                }
            };
            self.flush(at).await;
            self.books.publish(&self.shared.slots[self.id.0 as usize]);
            // decrement only after our own sends were registered and our
            // books published, so the pending count can never dip to zero
            // early
            self.shared.pending.fetch_sub(1, Ordering::SeqCst);
            if let Some(ack) = ack {
                let _ = ack.send(());
            }
        }
    }

    /// Run one handler body with a live [`Ctx`] on the current topology.
    fn handle(&mut self, at: u64, body: impl FnOnce(&mut B, &mut Ctx<'_, B::Msg>)) {
        let topo = self.shared.topology();
        let (id, outbox, deliveries) = (self.id, &mut self.outbox, &mut self.books.deliveries);
        body(
            &mut self.node,
            &mut Ctx::external(id, topo.neighbors(id), at, outbox, deliveries),
        );
    }

    /// Charge, batch, encode and send one handler's outbox.
    async fn flush(&mut self, at: u64) {
        if self.outbox.is_empty() {
            return;
        }
        let (id, books) = (self.id, &mut self.books);
        // traffic is charged per original message, before batching — the
        // counters stay comparable with the simulator's
        for (to, _, kind, units) in &self.outbox {
            books.stats.charge(*kind, id, *to, *units);
        }
        // per-link write batching: only *adjacent* frames to the same peer
        // may merge, so a control message between two Events runs keeps its
        // FIFO position on the link
        let mut wire: Vec<(NodeId, B::Msg)> = Vec::with_capacity(self.outbox.len());
        for (to, msg, _, _) in self.outbox.drain(..) {
            if let Some((last_to, last_msg)) = wire.last_mut() {
                if *last_to == to {
                    match last_msg.coalesce(msg) {
                        Ok(()) => books.ledger.coalesced_frames += 1,
                        Err(back) => wire.push((to, back)),
                    }
                    continue;
                }
            }
            wire.push((to, msg));
        }
        let topo = self.shared.topology();
        for (to, msg) in wire {
            books.ledger.scheduled += 1;
            if self.shared.is_down(to) {
                // charged above, dropped at the wire: the corpse cannot receive
                books.ledger.dropped_to_downed += 1;
                continue;
            }
            if topo.is_severed(id, to) {
                // charged above, died at the radio: the cut carries nothing
                books.ledger.dropped_severed += 1;
                continue;
            }
            let frame = msg.to_frame();
            books.ledger.wire_frames += 1;
            books.ledger.wire_bytes += frame.len() as u64;
            self.shared.pending.fetch_add(1, Ordering::SeqCst);
            let deliver_at = at + self.shared.latency.delay(id, to);
            SendLinked {
                tx: &self.txs[to.0 as usize],
                rx: &mut self.rx,
                staging: &mut self.staging,
                parks: Some(&mut books.ledger.parks),
                item: Some(Packet::Wire {
                    from: id,
                    at: deliver_at,
                    frame,
                }),
            }
            .await;
        }
    }
}

/// Send one packet with drain-before-park backpressure.
///
/// On a full peer mailbox the future first drains this node's *own*
/// mailbox into the staging queue (freeing slots wakes senders parked on
/// us), then parks registered on **both** the peer's capacity and our own
/// mailbox — whichever fires re-polls. A parked node therefore always has
/// an empty mailbox, which makes a cycle of mutually-blocked senders
/// impossible.
struct SendLinked<'a, B: NodeBehavior> {
    tx: &'a mpsc::Sender<Packet<B>>,
    rx: &'a mut mpsc::Receiver<Packet<B>>,
    staging: &'a mut VecDeque<Packet<B>>,
    /// The sending task's own park counter, taken at the first park: one
    /// send parks at most once.
    parks: Option<&'a mut u64>,
    item: Option<Packet<B>>,
}

impl<B: NodeBehavior> Future for SendLinked<'_, B> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        loop {
            let item = this
                .item
                .take()
                .expect("SendLinked polled after completion");
            match this.tx.try_send(item) {
                Ok(()) => return Poll::Ready(()),
                Err(mpsc::TrySendError::Closed(_)) => {
                    panic!("send to a stopped node task (host shut down mid-run?)")
                }
                Err(mpsc::TrySendError::Full(back)) => this.item = Some(back),
            }
            // Drain our own mailbox: frees slots (waking senders parked on
            // us) and, once empty, registers our waker for new arrivals.
            let mut drained = false;
            while let Poll::Ready(Some(p)) = this.rx.poll_recv(cx) {
                this.staging.push_back(p);
                drained = true;
            }
            if drained {
                // capacity may have opened anywhere in the cycle — retry
                continue;
            }
            match this.tx.poll_ready(cx) {
                Poll::Ready(_) => continue, // a slot freed while we drained
                Poll::Pending => {
                    if let Some(parks) = this.parks.take() {
                        *parks += 1;
                    }
                    return Poll::Pending;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsf_network::builders;

    /// Flooding behavior over the `u64` test message. `u64` gets a tiny
    /// wire form locally.
    #[derive(Debug, Default)]
    struct Flood {
        seen: Vec<u64>,
    }

    impl NodeBehavior for Flood {
        type Msg = u64;
        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
            if self.seen.contains(&msg) {
                return;
            }
            self.seen.push(msg);
            let me = ctx.node();
            for n in ctx.neighbors().to_vec() {
                if n != from || from == me {
                    ctx.send(n, msg, ChargeKind::Advertisement, 1);
                }
            }
        }
    }

    impl WireMsg for u64 {
        fn encode(&self, buf: &mut bytes::BytesMut) {
            use bytes::BufMut;
            buf.put_u64(*self);
        }
        fn decode(buf: &mut Bytes) -> Option<Self> {
            use bytes::Buf;
            if buf.remaining() < 8 {
                return None;
            }
            Some(buf.get_u64())
        }
    }

    fn modes() -> [HostMode; 2] {
        [HostMode::ThreadPerNode, HostMode::Executor { workers: 3 }]
    }

    #[test]
    fn flood_matches_simulator_traffic_in_both_modes() {
        for mode in modes() {
            let topo = builders::balanced(31, 2);
            let config = HostConfig {
                mode,
                mailbox: 4,
                latency: LatencyModel::Zero,
            };
            let host = NodeHost::spawn(&topo, &config, |_, _| Flood::default());
            host.inject(NodeId(0), &7, 0);
            host.wait_quiescent();
            host.inject(NodeId(30), &8, 0);
            host.wait_quiescent();
            let ledger = host.ledger();
            assert_eq!(
                ledger.scheduled,
                ledger.handled + ledger.dropped_to_downed,
                "{mode:?}: ledger must reconcile at quiescence"
            );
            let (stats, _) = host.shutdown();
            assert_eq!(
                stats.adv_msgs(),
                2 * 30,
                "{mode:?}: each flood crosses every link once"
            );
        }
    }

    #[test]
    fn tiny_mailboxes_park_but_never_drop() {
        for mode in modes() {
            let topo = builders::balanced(15, 2);
            let config = HostConfig {
                mode,
                mailbox: 1, // worst case: every concurrent send contends
                latency: LatencyModel::Zero,
            };
            let host = NodeHost::spawn(&topo, &config, |_, _| Flood::default());
            for i in 0..50u64 {
                host.inject(NodeId((i % 15) as u32), &(1000 + i), 0);
            }
            host.wait_quiescent();
            let ledger = host.ledger();
            assert_eq!(ledger.scheduled, ledger.handled, "{mode:?}: no drops");
            let (stats, _) = host.shutdown();
            assert_eq!(stats.adv_msgs(), 50 * 14, "{mode:?}");
        }
    }

    #[test]
    fn node_rows_and_the_management_row_sum_to_the_ledger() {
        for mode in modes() {
            let topo = builders::balanced(15, 2);
            let config = HostConfig {
                mode,
                mailbox: 1,
                latency: LatencyModel::Zero,
            };
            let host = NodeHost::spawn(&topo, &config, |_, _| Flood::default());
            for i in 0..20u64 {
                host.inject(NodeId((i % 15) as u32), &(100 + i), 0);
            }
            host.wait_quiescent();
            host.crash_and_regraft(NodeId(14), NodeId(6), 0).unwrap();
            host.inject(NodeId(14), &999, 0);
            host.inject(NodeId(0), &1000, 0);
            host.wait_quiescent();
            let rows = host.node_ledgers();
            assert_eq!(rows.len(), 15, "{mode:?}: one row per node");
            let mut sum = host.shared.management.lock().ledger;
            assert_eq!(sum.scheduled, 22, "{mode:?}: injections count once");
            assert_eq!(sum.dropped_to_downed, 1, "{mode:?}: the corpse's");
            for row in &rows {
                sum += *row;
            }
            assert_eq!(sum, host.ledger(), "{mode:?}");
            // each flood reaches all 15 nodes before the crash and the
            // 14 survivors after it; the corpse's leaf parent still sends
            // it the last flood, which dies at the wire
            let handled: u64 = rows.iter().map(|r| r.handled).sum();
            assert_eq!(handled, 20 * 15 + 14, "{mode:?}");
            assert_eq!(rows[14].handled, 20, "{mode:?}: one frame per flood");
            assert_eq!(rows[6].dropped_to_downed, 1, "{mode:?}: n6 to the corpse");
        }
    }

    #[test]
    fn crash_marks_down_and_accounts_dropped_traffic() {
        let topo = builders::line(4);
        let config = HostConfig {
            mode: HostMode::Executor { workers: 2 },
            mailbox: 8,
            latency: LatencyModel::Zero,
        };
        let host = NodeHost::spawn(&topo, &config, |_, _| Flood::default());
        host.inject(NodeId(0), &1, 0);
        host.wait_quiescent();
        let delta = host.crash_and_regraft(NodeId(3), NodeId(2), 0).unwrap();
        assert_eq!(delta.crashed, NodeId(3));
        assert!(host.is_down(NodeId(3)));
        // a fresh flood: n2 still forwards toward the corpse (it remains a
        // leaf neighbor), and that frame is dropped at the wire
        host.inject(NodeId(0), &2, 0);
        host.wait_quiescent();
        let ledger = host.ledger();
        assert!(ledger.dropped_to_downed > 0, "corpse traffic not accounted");
        assert_eq!(ledger.scheduled, ledger.handled + ledger.dropped_to_downed);
        // injections at the corpse are dropped, not delivered
        host.inject(NodeId(3), &9, 0);
        host.wait_quiescent();
        let after = host.ledger();
        assert_eq!(after.dropped_to_downed, ledger.dropped_to_downed + 1);
    }

    #[test]
    fn malformed_frames_are_counted_drops_and_the_node_keeps_serving() {
        for mode in modes() {
            let topo = builders::line(4);
            let config = HostConfig {
                mode,
                mailbox: 8,
                latency: LatencyModel::Zero,
            };
            let host = NodeHost::spawn(&topo, &config, |_, _| Flood::default());
            // straight into n1's mailbox, accounted the way `inject` is: a
            // frame cut short, and one with bytes past the message
            for frame in [&[0x01, 0x02, 0x03][..], &[0xEE; 13][..]] {
                host.shared.management.lock().ledger.scheduled += 1;
                host.shared.pending.fetch_add(1, Ordering::SeqCst);
                let sent = host.txs[1].blocking_send(Packet::Wire {
                    from: NodeId(1),
                    at: 0,
                    frame: Bytes::from(frame.to_vec()),
                });
                assert!(sent.is_ok(), "{mode:?}: n1 is running");
            }
            host.inject(NodeId(1), &5, 0);
            host.wait_quiescent();
            let ledger = host.ledger();
            assert_eq!(ledger.dropped_malformed, 2, "{mode:?}");
            assert_eq!(
                ledger.scheduled,
                ledger.handled
                    + ledger.dropped_to_downed
                    + ledger.dropped_severed
                    + ledger.dropped_malformed,
                "{mode:?}: ledger must reconcile at quiescence"
            );
            let (stats, _) = host.shutdown();
            assert_eq!(
                stats.adv_msgs(),
                3,
                "{mode:?}: n1's flood still crossed every link"
            );
        }
    }

    #[test]
    fn severed_links_drop_at_the_radio_until_healed() {
        let topo = builders::line(3);
        let config = HostConfig {
            mode: HostMode::Executor { workers: 2 },
            mailbox: 8,
            latency: LatencyModel::Zero,
        };
        let host = NodeHost::spawn(&topo, &config, |_, _| Flood::default());
        host.sever_link(NodeId(1), NodeId(2)).unwrap();
        host.inject(NodeId(0), &1, 0);
        host.wait_quiescent();
        let ledger = host.ledger();
        assert_eq!(ledger.dropped_severed, 1, "n1's forward died at the radio");
        assert_eq!(
            ledger.scheduled,
            ledger.handled + ledger.dropped_to_downed + ledger.dropped_severed,
            "conservation with radio deaths accounted"
        );
        host.heal_link(NodeId(1), NodeId(2), 0).unwrap();
        host.inject(NodeId(0), &2, 0);
        host.wait_quiescent();
        let after = host.ledger();
        assert_eq!(after.dropped_severed, 1, "no new radio deaths after heal");
        assert_eq!(
            after.scheduled,
            after.handled + after.dropped_to_downed + after.dropped_severed
        );
        let (stats, _) = host.shutdown();
        // flood 1: n0→n1 delivered, n1→n2 charged then cut; flood 2: both hops
        assert_eq!(stats.adv_msgs(), 4);
    }

    #[test]
    fn probe_liveness_confirms_only_unanimous_suspicion_and_readmits() {
        let topo = builders::line(3);
        let config = HostConfig {
            mode: HostMode::Executor { workers: 2 },
            mailbox: 8,
            latency: LatencyModel::Zero,
        };
        let host = NodeHost::spawn(&topo, &config, |_, _| Flood::default());
        host.set_liveness(10, 25); // threshold: 3 missed rounds
        host.liveness_tick();
        assert!(host.suspicions().is_empty(), "healthy links never suspect");
        // partition n1|n2: both sides suspect across the cut, but only n2
        // (whose every live neighbor suspects it) is confirmed — n0 still
        // vouches for n1
        host.sever_link(NodeId(1), NodeId(2)).unwrap();
        for _ in 0..3 {
            host.liveness_tick();
        }
        assert_eq!(
            host.suspicions(),
            vec![(NodeId(1), NodeId(2)), (NodeId(2), NodeId(1))]
        );
        assert_eq!(host.take_confirmed_dead(), vec![NodeId(2)]);
        // the heal's successful probe clears suspicion and re-admits the
        // falsely confirmed node
        host.heal_link(NodeId(1), NodeId(2), 0).unwrap();
        host.liveness_tick();
        assert!(host.suspicions().is_empty());
        assert!(host.take_confirmed_dead().is_empty());
        // a real crash is re-confirmable after the re-admission
        host.crash_and_regraft(NodeId(2), NodeId(1), 0).unwrap();
        for _ in 0..3 {
            host.liveness_tick();
        }
        assert_eq!(host.take_confirmed_dead(), vec![NodeId(2)]);
    }

    #[test]
    fn latency_timestamps_advance_the_logical_clock() {
        let topo = builders::line(3);
        let config = HostConfig {
            mode: HostMode::Executor { workers: 2 },
            mailbox: 8,
            latency: LatencyModel::Uniform { hop: 5 },
        };
        let host = NodeHost::spawn(&topo, &config, |_, _| Flood::default());
        host.inject(NodeId(0), &1, 100);
        host.wait_quiescent();
        // two hops away, the packet carries 100 + 2·5
        assert_eq!(host.clock(), 110);
    }
}
