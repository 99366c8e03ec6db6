//! The thread-per-core server loop, now behind the transport seam.
//!
//! Topology: `workers` OS threads, each *owning* a disjoint set of shards
//! (worker `w` owns every shard `s` with `s % workers == w` — ownership
//! never moves, so shards need no locks of their own). Clients talk to
//! workers through the wire protocol over a pluggable
//! [`Transport`](crate::transport::Transport): in-process mailboxes by
//! default, a real TCP or Unix-domain socket with
//! [`ServiceBuilder::transport`], and optionally the seeded fault injector
//! wrapped around either ([`ServiceBuilder::fault`]). The worker loop
//! decodes whatever arrives with the same incremental
//! [`FrameDecoder`](crate::FrameDecoder) regardless of the transport —
//! bytes are bytes.
//!
//! Every request takes one path, the worker's drain handler: decode the
//! drain (one blob, or up to 64 under group commit), admit each frame
//! (seeded-kill tick, dedup against the window and the drain itself,
//! undecodable payloads answered with a typed reject), commit the fresh
//! frames one key group at a time with [`Shard::apply_batch`], reply.
//! `group_commit` sets only the drain width and the shards' apply mode;
//! [`Recovery`] sets only the shards' word space, what a kill answers,
//! and what a respawn does.
//!
//! The fault-tolerant plane layers four mechanisms over that skeleton:
//!
//! * **Lossy transport** — the [`Faulty`](crate::fault::Faulty) wrapper
//!   drops / duplicates / reorders / corrupts / delays / disconnects
//!   frames between the client handles and the inner transport.
//! * **Client reliability** — [`ServiceClient::call`] carries a hard
//!   deadline and (under a lossy [`RetryPolicy`]) retransmits with bounded
//!   exponential backoff and seeded jitter, reusing the request's
//!   `(client, seq)` identity; a dropped connection is reconnected and the
//!   request retransmitted.
//! * **Server exactly-once** — each worker keeps a bounded per-client
//!   dedup window mapping `(client, seq)` to the cached encoded response;
//!   a retransmit of an already-applied request is answered from cache
//!   (`service.dedup_hit`), never re-applied.
//! * **Supervision & shedding** — a seeded [`KillPlan`] panics workers
//!   mid-run and the supervisor loop respawns them per the configured
//!   [`Recovery`] mode; bounded inboxes shed load at the high watermark
//!   with a typed `Busy` outcome instead of queueing without bound.
//!
//! Observability follows the repo's single-writer lane discipline with
//! `workers + clients + 1` lanes: worker `w` writes lane `w`
//! (`service.route`, `service.queue_depth`, `service.dedup_hit`,
//! `service.respawn`, `service.unavailable`, `service.batch_size`,
//! `service.bad_payload`), client `c` writes lane
//! `workers + c` (`service.retry`, `service.shed`, `service.stale_reply`,
//! `service.garbled`), the `service.inject.*` counters are written on the
//! lane of the fault lane they damage (serialized by that lane's lock),
//! and the socket plane (`service.accept`, `service.conn_drop`,
//! `service.read_syscall`, `service.partial_frame`) writes the final lane
//! `workers + clients` under its own guard. `service.shard_imbalance` is
//! recorded once at shutdown, after every worker has joined.

use crate::client::ServiceClient;
use crate::fault::{FaultProfile, Faulty, InjectObs};
use crate::retry::RetryPolicy;
use crate::route::{Routing, ShardMap};
use crate::shard::{DurableShard, Shard};
use crate::socket::{Socket, SocketObs};
use crate::supervise::{KillPlan, KillState, Recovery};
use crate::transport::{Delivery, InProcess, RecvOutcome, Transport, TransportConfig};
use crate::wire::{
    control_frame, response_frame, Frame, FrameDecoder, WireCodec, KIND_REJECT, KIND_REQUEST,
    KIND_UNAVAILABLE,
};
use sbu_core::CellPayload;
use sbu_mem::{DataMem, DurableMem, OwnedMem};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Per-shard totals reported after shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// The shard's index.
    pub shard: usize,
    /// Operations the shard applied.
    pub ops: u64,
    /// Distinct keys the shard materialized.
    pub keys: usize,
}

/// Instruments for the service layer (worker lanes `0..workers`, client
/// lanes `workers..workers+clients`, transport lane `workers+clients`).
pub(crate) struct ServiceObs {
    pub(crate) route: sbu_obs::Counter,
    pub(crate) queue_depth: sbu_obs::Histogram,
    pub(crate) shard_imbalance: sbu_obs::Histogram,
    pub(crate) retry: sbu_obs::Counter,
    pub(crate) shed: sbu_obs::Counter,
    pub(crate) stale: sbu_obs::Counter,
    pub(crate) garbled: sbu_obs::Counter,
    pub(crate) dedup_hit: sbu_obs::Counter,
    pub(crate) respawn: sbu_obs::Counter,
    pub(crate) unavailable: sbu_obs::Counter,
    /// Commands committed per batched apply (group-commit drain only);
    /// recorded once per key-group on the owning worker's lane.
    pub(crate) batch_size: sbu_obs::Histogram,
    /// Frames a worker refused at admission: an undecodable request
    /// (answered `KIND_REJECT`) or a frame that is not a request (dropped).
    pub(crate) bad_payload: sbu_obs::Counter,
}

impl ServiceObs {
    fn register(registry: &sbu_obs::Registry) -> Self {
        Self {
            route: registry.counter("service.route"),
            queue_depth: registry.histogram("service.queue_depth"),
            shard_imbalance: registry.histogram("service.shard_imbalance"),
            retry: registry.counter("service.retry"),
            shed: registry.counter("service.shed"),
            stale: registry.counter("service.stale_reply"),
            garbled: registry.counter("service.garbled"),
            dedup_hit: registry.counter("service.dedup_hit"),
            respawn: registry.counter("service.respawn"),
            unavailable: registry.counter("service.unavailable"),
            batch_size: registry.histogram("service.batch_size"),
            bad_payload: registry.counter("service.bad_payload"),
        }
    }
}

/// Builder for a [`Service`]: topology, routing, transport, and the
/// fault-tolerance knobs as typed setters. Mirrors the
/// `Universal::builder` convention — start from
/// [`Service::builder(shards)`](Service::builder), chain setters, finish
/// with [`build`](Self::build).
pub struct ServiceBuilder<S: WireCodec> {
    shards: usize,
    workers: usize,
    clients: usize,
    routing: Routing,
    transport: TransportConfig,
    fault: Option<FaultProfile>,
    kill: Option<KillPlan>,
    recovery: Recovery,
    mailbox_capacity: usize,
    dedup_window: usize,
    group_commit: bool,
    retry: RetryPolicy,
    seed: u64,
    _spec: std::marker::PhantomData<fn() -> S>,
}

impl<S> ServiceBuilder<S>
where
    S: WireCodec + Send + Sync + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
{
    /// Number of worker threads (default 1). Shard `s` is owned by worker
    /// `s % workers`.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Number of client handles to pre-build (default 1); see
    /// [`Service::client`].
    pub fn clients(mut self, clients: usize) -> Self {
        self.clients = clients;
        self
    }

    /// How keys map to shards (default [`Routing::Hash`]).
    pub fn routing(mut self, routing: Routing) -> Self {
        self.routing = routing;
        self
    }

    /// Which transport carries the frames (default
    /// [`TransportConfig::InProcess`]). `Tcp`/`Unix` bind a real listener;
    /// the service's client handles dial it like any remote peer would.
    pub fn transport(mut self, transport: TransportConfig) -> Self {
        self.transport = transport;
        self
    }

    /// Inject seeded transport faults per `profile` (wrapped around
    /// whichever transport is configured). A profile with any loss-shaped
    /// rate requires a retry policy with an attempt timeout.
    pub fn fault(mut self, profile: FaultProfile) -> Self {
        self.fault = Some(profile);
        self
    }

    /// Kill workers on a seeded schedule (supervision torture).
    pub fn kill(mut self, plan: KillPlan) -> Self {
        self.kill = Some(plan);
        self
    }

    /// What survives a worker kill (default [`Recovery::Volatile`]).
    pub fn recovery(mut self, recovery: Recovery) -> Self {
        self.recovery = recovery;
        self
    }

    /// Inbox high watermark (default 0 = unbounded); pushes beyond it are
    /// shed with a typed `Busy`.
    pub fn mailbox_capacity(mut self, capacity: usize) -> Self {
        self.mailbox_capacity = capacity;
        self
    }

    /// Per-client dedup window size (default 64); see the exactly-once
    /// notes on [`Service`].
    pub fn dedup_window(mut self, window: usize) -> Self {
        self.dedup_window = window;
        self
    }

    /// Batch same-key frames of one drain into a single apply
    /// (default off).
    pub fn group_commit(mut self, on: bool) -> Self {
        self.group_commit = on;
        self
    }

    /// Client-side deadline/retransmission policy (default
    /// [`RetryPolicy::patient`]).
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Seed for every fault-plane RNG (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Boot the server: build the (empty) shards, start the transport and
    /// the supervised worker loops, and pre-connect the client handles.
    /// Keys materialize lazily as clones of `template`.
    pub fn build(self, template: S) -> Service<S> {
        assert!(self.workers >= 1, "at least one worker");
        assert!(self.clients >= 1, "at least one client slot");
        if let Some(f) = self.fault {
            let lossy = f.drop > 0.0 || f.delay > 0.0 || f.corrupt > 0.0 || f.disconnect > 0.0;
            assert!(
                !lossy || self.retry.attempt_timeout.is_some(),
                "a loss-shaped fault profile requires a RetryPolicy with an attempt timeout \
                 (e.g. RetryPolicy::lossy())"
            );
        }
        let map = ShardMap::new(self.shards).with_routing(self.routing);
        let transport_lane = self.workers + self.clients;
        let registry = sbu_obs::Registry::new(transport_lane + 1);
        let obs = Arc::new(ServiceObs::register(&registry));
        // The socket-plane instruments register unconditionally so every
        // transport reports the same (deterministic) instrument set; they
        // stay zero off-socket.
        let socket_obs = Arc::new(SocketObs::register(&registry, transport_lane));
        let inject = InjectObs::register(&registry);

        let inner: Arc<dyn Transport> = match &self.transport {
            TransportConfig::InProcess => Arc::new(InProcess::new(
                self.workers,
                self.clients,
                self.mailbox_capacity,
            )),
            TransportConfig::Tcp(addr) => Arc::new(
                Socket::tcp(addr, map, self.workers, self.mailbox_capacity, socket_obs)
                    .unwrap_or_else(|e| panic!("bind tcp listener on {addr}: {e}")),
            ),
            TransportConfig::Unix(path) => Arc::new(
                Socket::unix(path, map, self.workers, self.mailbox_capacity, socket_obs)
                    .unwrap_or_else(|e| panic!("bind unix listener on {}: {e}", path.display())),
            ),
        };
        let transport: Arc<dyn Transport> = match self.fault.filter(|f| !f.is_none()) {
            Some(profile) => Arc::new(Faulty::new(
                inner,
                profile,
                self.seed,
                self.workers,
                self.clients,
                inject,
            )),
            None => inner,
        };

        // Each worker reports once its shards are allocated, and `build`
        // returns only after every report: glibc binds a thread to a malloc
        // arena at its first allocation, so a client thread allocating
        // before a fresh worker could take the arena a previous service's
        // worker freed, leaving that arena resident beside a new one.
        let (started_tx, started) = std::sync::mpsc::channel::<()>();
        let workers: Vec<_> = (0..self.workers)
            .map(|w| {
                let ctx = WorkerCtx {
                    w,
                    workers: self.workers,
                    shard_ids: (w..self.shards).step_by(self.workers).collect(),
                    template: template.clone(),
                    map,
                    recovery: self.recovery,
                    kill: self.kill,
                    dedup_window: self.dedup_window.max(1),
                    seed: self.seed,
                    group_commit: self.group_commit,
                };
                let transport = Arc::clone(&transport);
                let obs = Arc::clone(&obs);
                let started = started_tx.clone();
                let thread = std::thread::Builder::new().name(format!("sbu-service-worker-{w}"));
                // The recovery mode picks the shards' word space, once.
                match self.recovery {
                    Recovery::Volatile => thread.spawn(move || {
                        Worker::<S, OwnedMem<_>>::new(ctx)
                            .started(started)
                            .supervise(&*transport, &obs)
                    }),
                    Recovery::Durable => thread.spawn(move || {
                        Worker::<S, DurableMem<_>>::new(ctx)
                            .started(started)
                            .supervise(&*transport, &obs)
                    }),
                }
                .expect("spawn worker")
            })
            .collect();
        drop(started_tx);
        for _ in 0..workers.len() {
            // Every sender is gone short of a report: a worker died in
            // `Worker::new`. Stop the rest rather than leave them parked.
            if started.recv().is_err() {
                transport.shutdown();
                panic!("a service worker died before its shards were built");
            }
        }

        let clients = (0..self.clients)
            .map(|c| {
                ServiceClient::new(
                    c as u32,
                    map,
                    self.workers,
                    self.retry,
                    self.seed,
                    Arc::clone(&obs),
                    Arc::clone(&transport).connect(c as u32),
                )
            })
            .collect();

        let endpoint = transport.endpoint();
        Service {
            map,
            transport,
            clients,
            registry,
            obs,
            workers,
            endpoint,
        }
    }
}

/// The sharded object-space runtime: shards of per-key [`sbu_core::Universal`]
/// instances behind a wire protocol, a pluggable transport, and a pool of
/// supervised worker threads.
///
/// ```
/// use sbu_service::{Service, ServiceClient};
/// use sbu_spec::specs::{CounterOp, CounterSpec};
///
/// let mut svc = Service::builder(4).workers(2).build(CounterSpec::new());
/// let client = svc.client(0);
/// assert_eq!(client.call(42, &CounterOp::Inc).unwrap(), 1);
/// assert_eq!(client.call(42, &CounterOp::Read).unwrap(), 1);
/// assert_eq!(client.call(7, &CounterOp::Read).unwrap(), 0); // different key, fresh object
/// let stats = svc.shutdown();
/// assert_eq!(stats.iter().map(|s| s.ops).sum::<u64>(), 3);
/// ```
pub struct Service<S: WireCodec> {
    map: ShardMap,
    transport: Arc<dyn Transport>,
    clients: Vec<ServiceClient<S>>,
    registry: sbu_obs::Registry,
    obs: Arc<ServiceObs>,
    workers: Vec<JoinHandle<Vec<ShardStats>>>,
    endpoint: Option<String>,
}

/// Everything a worker thread needs, bundled for the spawn closure.
struct WorkerCtx<S: WireCodec> {
    w: usize,
    workers: usize,
    shard_ids: Vec<usize>,
    template: S,
    map: ShardMap,
    recovery: Recovery,
    kill: Option<KillPlan>,
    dedup_window: usize,
    seed: u64,
    group_commit: bool,
}

impl<S> Service<S>
where
    S: WireCodec + Send + Sync + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
{
    /// Start configuring a service over `shards` shards (power of two);
    /// finish with [`ServiceBuilder::build`].
    pub fn builder(shards: usize) -> ServiceBuilder<S> {
        ServiceBuilder {
            shards,
            workers: 1,
            clients: 1,
            routing: Routing::Hash,
            transport: TransportConfig::InProcess,
            fault: None,
            kill: None,
            recovery: Recovery::Volatile,
            mailbox_capacity: 0,
            dedup_window: 64,
            group_commit: false,
            retry: RetryPolicy::patient(),
            seed: 0,
            _spec: std::marker::PhantomData,
        }
    }

    /// The router in force.
    pub fn shard_map(&self) -> ShardMap {
        self.map
    }

    /// The typed handle for client `id` (`0..clients`). Each concurrent
    /// caller should use its own handle — a handle serializes its own
    /// calls.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn client(&self, id: usize) -> &ServiceClient<S> {
        &self.clients[id]
    }

    /// How many client handles were built.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// The endpoint string (`tcp://…` / `unix://…`) remote peers can dial,
    /// when the transport has one ([`TransportConfig::Tcp`] reports the
    /// actually-bound address, so `tcp://127.0.0.1:0` works).
    pub fn endpoint(&self) -> Option<&str> {
        self.endpoint.as_deref()
    }

    /// Snapshot the service instruments (`service.route`,
    /// `service.queue_depth`, the retry/shed/inject family, the socket
    /// plane; `service.shard_imbalance` appears once
    /// [`shutdown`](Self::shutdown) has run).
    pub fn obs_snapshot(&self) -> sbu_obs::Snapshot {
        self.registry.snapshot()
    }

    /// Stop the transport and the workers, join them, record
    /// `service.shard_imbalance`, and return per-shard totals (sorted by
    /// shard index). Idempotent; a second call returns an empty vec.
    pub fn shutdown(&mut self) -> Vec<ShardStats> {
        self.transport.shutdown();
        let mut stats: Vec<ShardStats> = self
            .workers
            .drain(..)
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect();
        stats.sort_by_key(|s| s.shard);
        // Workers are gone: recording on lane 0 is single-threaded now.
        for s in &stats {
            self.obs.shard_imbalance.record(0, s.ops);
        }
        stats
    }
}

impl<S: WireCodec> Drop for Service<S> {
    fn drop(&mut self) {
        // `shutdown` drains `workers`; this path only fires on an
        // abandoned service (e.g. a panicking test) — stop and detach.
        self.transport.shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// A worker's shard word space — the one choice [`Recovery`] makes, at
/// spawn — and what a respawn after a seeded kill does to it.
trait WorkerMem<S: WireCodec>: DataMem<CellPayload<S>> + Sized {
    /// Build the worker's (empty) shards.
    fn shards(ctx: &WorkerCtx<S>) -> Vec<Shard<S, Self>>;

    /// Restore the worker's state after a seeded kill.
    fn respawn(worker: &mut Worker<S, Self>);
}

impl<S> WorkerMem<S> for OwnedMem<CellPayload<S>>
where
    S: WireCodec + Send + Sync,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
{
    fn shards(ctx: &WorkerCtx<S>) -> Vec<Shard<S, Self>> {
        ctx.shard_ids
            .iter()
            .map(|&s| Shard::new(s, ctx.template.clone()).group_commit(ctx.group_commit))
            .collect()
    }

    /// The worker's memory died with it: fresh shards, empty dedup window.
    /// (The killed drain was answered `Unavailable` before the panic.)
    fn respawn(worker: &mut Worker<S, Self>) {
        worker.shards = Self::shards(&worker.ctx);
        worker.dedup.clear();
    }
}

impl<S> WorkerMem<S> for DurableMem<OwnedMem<CellPayload<S>>>
where
    S: WireCodec + Send + Sync,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
{
    fn shards(ctx: &WorkerCtx<S>) -> Vec<DurableShard<S>> {
        ctx.shard_ids
            .iter()
            .map(|&s| Shard::durable(s, ctx.template.clone()))
            .collect()
    }

    /// Real crash–restart: resolve persists, wipe volatile registers,
    /// replay per-key recovery. The dedup window models a persisted
    /// response log and survives, keeping exactly-once across the crash.
    fn respawn(worker: &mut Worker<S, Self>) {
        for shard in &mut worker.shards {
            let violations = shard.crash_recover();
            assert!(
                violations.is_empty(),
                "durability violations on respawn: {violations:?}"
            );
        }
    }
}

/// The panic payload of a seeded kill — the supervisor recognizes it and
/// respawns; any *other* panic is a real bug and is propagated.
struct SeededKill;

/// One worker thread: its fixed context plus the state that survives
/// respawns (held outside the `catch_unwind` boundary).
struct Worker<S: WireCodec, M> {
    ctx: WorkerCtx<S>,
    shards: Vec<Shard<S, M>>,
    /// `(client → (seq → cached encoded response))`, bounded per client.
    dedup: HashMap<u32, BTreeMap<u64, Vec<u8>>>,
    dec: FrameDecoder,
    kill: Option<KillState>,
    scratch: Scratch<S>,
}

/// The drain handler's buffers, cleared (never freed) per drain so a
/// width-1 drain allocates nothing of its own.
struct Scratch<S: WireCodec> {
    /// The drain's frames, in arrival order.
    frames: Vec<Frame>,
    /// Admitted but not yet answered frames (fresh and deferred), in
    /// arrival order — what a kill must answer or requeue.
    admitted: Vec<usize>,
    /// Frames to commit: `(group, frame, op)`.
    fresh: Vec<(usize, usize, S::Op)>,
    /// Retransmits of a fresh frame in the same drain; answered from the
    /// dedup window once their original commits.
    deferred: Vec<usize>,
    /// `(key, frames)` per group, in first-seen key order.
    groups: Vec<(u64, usize)>,
    /// Fresh frames and their ops laid out group by group.
    order: Vec<usize>,
    ops: Vec<S::Op>,
    resps: Vec<S::Resp>,
}

impl<S, M> Worker<S, M>
where
    S: WireCodec + Send + Sync,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    M: WorkerMem<S>,
{
    fn new(ctx: WorkerCtx<S>) -> Self {
        Self {
            shards: M::shards(&ctx),
            dedup: HashMap::new(),
            dec: FrameDecoder::new(),
            kill: ctx.kill.map(|plan| KillState::new(plan, ctx.seed, ctx.w)),
            scratch: Scratch {
                frames: Vec::new(),
                admitted: Vec::new(),
                fresh: Vec::new(),
                deferred: Vec::new(),
                groups: Vec::new(),
                order: Vec::new(),
                ops: Vec::new(),
                resps: Vec::new(),
            },
            ctx,
        }
    }

    /// Tell `build` this worker's shards exist.
    fn started(self, started: std::sync::mpsc::Sender<()>) -> Self {
        // Fails only if `build` already gave up on a sibling worker.
        let _ = started.send(());
        self
    }

    /// The supervisor: serve, and when a seeded kill unwinds the loop,
    /// recover per the recovery mode and serve again. Returns the shard
    /// totals once the transport stops.
    fn supervise(mut self, transport: &dyn Transport, obs: &ServiceObs) -> Vec<ShardStats> {
        while let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.serve(transport, obs))) {
            if payload.downcast_ref::<SeededKill>().is_none() {
                std::panic::resume_unwind(payload); // a real bug
            }
            obs.respawn.incr(self.ctx.w);
            self.dec.reset();
            M::respawn(&mut self);
            if let Some(kill) = &mut self.kill {
                kill.redraw();
            }
        }
        self.shards
            .iter()
            .map(|s| ShardStats {
                shard: s.id(),
                ops: s.ops(),
                keys: s.keys(),
            })
            .collect()
    }

    /// Drain the transport, one [`handle_drain`](Self::handle_drain) per
    /// receive, until it stops.
    fn serve(&mut self, transport: &dyn Transport, obs: &ServiceObs) {
        // Drain width: group commit takes up to 64 queued blobs per
        // receive, so queue depth becomes batch size; otherwise one blob.
        let max = if self.ctx.group_commit { 64 } else { 1 };
        while let RecvOutcome::Batch { blobs, depth } = transport.recv_requests(self.ctx.w, max) {
            obs.queue_depth.record(self.ctx.w, depth);
            self.handle_drain(&blobs, transport, obs);
        }
    }

    /// The one request path: decode a drain, admit each frame, then commit
    /// the fresh frames one key group at a time and reply.
    ///
    /// * **Decode**: a blob whose length prefix is impossible
    ///   ([`WireError::BadLength`](crate::wire::WireError::BadLength)) leaves
    ///   no frame boundary to resync on, so the decoder drops what it holds
    ///   and the drain goes on with the next blob; the blob counts as
    ///   `service.bad_payload` and its senders retransmit.
    /// * **Admission**, frame by frame: a frame that is not a request is
    ///   dropped; the seeded-kill hook ticks; a retransmit is answered from
    ///   the dedup window, or — if its original is earlier in this drain —
    ///   deferred until that commits; an undecodable request is answered
    ///   `KIND_REJECT`. Both refusals count as `service.bad_payload`.
    /// * **Commit**: fresh frames grouped by key in first-seen order, each
    ///   group one [`Shard::apply_batch`] (one list append under group
    ///   commit, per-command applies otherwise); replies in arrival order
    ///   per key, then the deferred retransmits from the window. The window
    ///   is evicted once, after every reply, so an in-drain retransmit is
    ///   always answered from it, whatever `dedup_window` is.
    ///
    /// Nothing is applied until admission finishes, so a kill answers every
    /// admitted-but-unapplied frame at once: volatile replies `Unavailable`
    /// (the clients retry against the respawned worker), durable requeues
    /// them in arrival order ahead of any buffered bytes. Never silently
    /// lost, never double-applied.
    fn handle_drain(&mut self, blobs: &[Vec<u8>], transport: &dyn Transport, obs: &ServiceObs) {
        let Worker {
            ctx,
            shards,
            dedup,
            dec,
            kill,
            scratch,
        } = self;
        let w = ctx.w;
        let Scratch {
            frames,
            admitted,
            fresh,
            deferred,
            groups,
            order,
            ops,
            resps,
        } = scratch;
        // A seeded kill unwinds mid-drain, so clear on entry, not after use.
        frames.clear();
        admitted.clear();
        fresh.clear();
        deferred.clear();
        groups.clear();
        order.clear();
        ops.clear();

        for bytes in blobs {
            dec.push(bytes);
            loop {
                match dec.next_frame() {
                    Ok(Some(frame)) => frames.push(frame),
                    Ok(None) => break,
                    // A corrupted request: the checksum caught it and the
                    // decoder skipped it. The sender's retransmission is the
                    // recovery path.
                    Err(err) if err.is_recoverable() => continue,
                    Err(_) => {
                        obs.bad_payload.incr(w);
                        dec.reset();
                        break;
                    }
                }
            }
        }

        for (i, frame) in frames.iter().enumerate() {
            if frame.kind != KIND_REQUEST {
                obs.bad_payload.incr(w);
                continue;
            }
            if kill.as_mut().is_some_and(KillState::fires) {
                let rest = (i..frames.len()).filter(|&j| frames[j].kind == KIND_REQUEST);
                match ctx.recovery {
                    Recovery::Volatile => {
                        for j in admitted.iter().copied().chain(rest) {
                            obs.unavailable.incr(w);
                            let reply = control_frame(&frames[j], KIND_UNAVAILABLE).to_bytes();
                            transport.send_reply(frames[j].client, Delivery::Intact(reply));
                        }
                    }
                    Recovery::Durable => {
                        let buffered = dec.take_buffered();
                        if !buffered.is_empty() {
                            transport.requeue_front(w, buffered);
                        }
                        for j in rest.rev().chain(admitted.iter().rev().copied()) {
                            transport.requeue_front(w, frames[j].to_bytes());
                        }
                    }
                }
                std::panic::panic_any(SeededKill);
            }
            if let Some(cached) = dedup.get(&frame.client).and_then(|win| win.get(&frame.seq)) {
                obs.dedup_hit.incr(w);
                transport.send_reply(frame.client, Delivery::Intact(cached.clone()));
            } else if admitted
                .iter()
                .any(|&j| frames[j].client == frame.client && frames[j].seq == frame.seq)
            {
                obs.dedup_hit.incr(w);
                admitted.push(i);
                deferred.push(i);
            } else {
                match S::decode_op(&frame.payload) {
                    Ok(op) => {
                        let g = match groups.iter().position(|&(key, _)| key == frame.key) {
                            Some(g) => g,
                            None => {
                                groups.push((frame.key, 0));
                                groups.len() - 1
                            }
                        };
                        groups[g].1 += 1;
                        admitted.push(i);
                        fresh.push((g, i, op));
                    }
                    Err(_) => {
                        obs.bad_payload.incr(w);
                        let reply = control_frame(frame, KIND_REJECT).to_bytes();
                        transport.send_reply(frame.client, Delivery::Intact(reply));
                    }
                }
            }
        }

        // Lay the fresh frames out group by group (arrival order within each
        // group), so every group's ops are one contiguous slice.
        fresh.sort_unstable_by_key(|&(g, i, _)| (g, i));
        for (_, i, op) in fresh.drain(..) {
            order.push(i);
            ops.push(op);
        }
        let mut start = 0;
        for &(key, len) in groups.iter() {
            let members = start..start + len;
            start += len;
            let shard_id = ctx.map.shard_of(key);
            debug_assert_eq!(shard_id % ctx.workers, w, "request routed to wrong worker");
            // Worker w owns shards w, w + workers, w + 2·workers, … in order.
            let idx = (shard_id - w) / ctx.workers;
            if ctx.group_commit {
                obs.batch_size.record(w, len as u64);
            }
            resps.clear();
            shards[idx].apply_batch_into(key, &ops[members.clone()], resps);
            for (&i, resp) in order[members].iter().zip(resps.iter()) {
                let frame = &frames[i];
                obs.route.incr(w);
                let reply = response_frame::<S>(frame, resp).to_bytes();
                let window = dedup.entry(frame.client).or_default();
                window.insert(frame.seq, reply.clone());
                transport.send_reply(frame.client, Delivery::Intact(reply));
            }
        }
        for &i in deferred.iter() {
            let frame = &frames[i];
            let cached = dedup
                .get(&frame.client)
                .and_then(|win| win.get(&frame.seq))
                .expect("a deferred retransmit's original committed in this drain");
            transport.send_reply(frame.client, Delivery::Intact(cached.clone()));
        }
        for &i in order.iter() {
            if let Some(window) = dedup.get_mut(&frames[i].client) {
                while window.len() > ctx.dedup_window {
                    window.pop_first();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::ServiceError;
    use crate::transport::ConnEvent;
    use crate::wire::{request_frame, WireError};
    use sbu_spec::specs::{CounterOp, CounterSpec, JamWordOp, JamWordResp, JamWordSpec};

    #[test]
    fn build_waits_for_its_workers_and_back_to_back_services_shut_down() {
        for round in 0..50 {
            let mut svc = Service::builder(8)
                .workers(4)
                .clients(2)
                .build(CounterSpec::new());
            let stats = svc.shutdown();
            let shards: Vec<usize> = stats.iter().map(|s| s.shard).collect();
            assert_eq!(shards, (0..8).collect::<Vec<_>>(), "round {round}");
        }
    }

    /// A counter whose clone panics on a service worker thread, so a
    /// worker dies building its shards.
    #[derive(Debug, PartialEq)]
    struct NoWorkerClone(CounterSpec);

    impl Clone for NoWorkerClone {
        fn clone(&self) -> Self {
            let name = std::thread::current().name().unwrap_or("").to_owned();
            assert!(!name.starts_with("sbu-service-worker"), "clone on {name}");
            NoWorkerClone(self.0)
        }
    }

    impl sbu_spec::SequentialSpec for NoWorkerClone {
        type Op = CounterOp;
        type Resp = u64;

        fn apply(&mut self, op: &CounterOp) -> u64 {
            self.0.apply(op)
        }
    }

    impl WireCodec for NoWorkerClone {
        fn encode_op(op: &CounterOp, out: &mut Vec<u8>) {
            CounterSpec::encode_op(op, out)
        }
        fn decode_op(bytes: &[u8]) -> Result<CounterOp, WireError> {
            CounterSpec::decode_op(bytes)
        }
        fn encode_resp(resp: &u64, out: &mut Vec<u8>) {
            CounterSpec::encode_resp(resp, out)
        }
        fn decode_resp(bytes: &[u8]) -> Result<u64, WireError> {
            CounterSpec::decode_resp(bytes)
        }
    }

    #[test]
    #[should_panic(expected = "a service worker died before its shards were built")]
    fn build_panics_instead_of_hanging_when_a_worker_dies_starting() {
        Service::builder(4)
            .workers(2)
            .build(NoWorkerClone(CounterSpec::new()));
    }

    #[test]
    fn in_drain_retransmit_is_answered_from_the_window_whatever_its_size() {
        // One drain: A/0, A/1 and a retransmit of A/0, all on one key, with
        // a one-entry window. Eviction waits for the end of the drain, so
        // the retransmit is answered from the window, never re-applied.
        let ctx = WorkerCtx {
            w: 0,
            workers: 1,
            shard_ids: vec![0],
            template: CounterSpec::new(),
            map: ShardMap::new(1),
            recovery: Recovery::Volatile,
            kill: None,
            dedup_window: 1,
            seed: 0,
            group_commit: true,
        };
        let mut worker = Worker::<CounterSpec, OwnedMem<_>>::new(ctx);
        let transport = Arc::new(InProcess::new(1, 1, 0));
        let obs = ServiceObs::register(&sbu_obs::Registry::new(2));
        let a = |seq| request_frame::<CounterSpec>(0, seq, 5, &CounterOp::Inc).to_bytes();
        worker.handle_drain(&[a(0), a(1), a(0)], &*transport, &obs);
        assert_eq!(worker.shards[0].apply(5, &CounterOp::Read), 2);

        let mut conn = Arc::clone(&transport).connect(0);
        let until = std::time::Instant::now() + std::time::Duration::from_secs(1);
        let replies: Vec<(u64, u64)> = (0..3)
            .map(|_| match conn.recv_until(until) {
                ConnEvent::Frame(f) => (f.seq, CounterSpec::decode_resp(&f.payload).unwrap()),
                other => panic!("expected a reply, got {other:?}"),
            })
            .collect();
        assert_eq!(replies, vec![(0, 1), (1, 2), (0, 1)]);
        assert_eq!(worker.dedup[&0].len(), 1, "evicted down to the window");
    }

    #[test]
    fn counter_service_end_to_end() {
        let mut svc = Service::builder(8)
            .workers(3)
            .clients(4)
            .build(CounterSpec::new());
        // 4 client threads hammer 32 keys; per-key totals must be exact.
        std::thread::scope(|scope| {
            for client in 0..4usize {
                let svc = &svc;
                scope.spawn(move || {
                    for round in 0..25 {
                        for key in 0..32 {
                            let got = svc.client(client).call(key, &CounterOp::Inc).unwrap();
                            assert!(got >= 1, "round {round}: inc returned {got}");
                        }
                    }
                });
            }
        });
        for key in 0..32 {
            assert_eq!(
                svc.client(0).call(key, &CounterOp::Read).unwrap(),
                100,
                "key {key}"
            );
        }
        let stats = svc.shutdown();
        assert_eq!(stats.len(), 8);
        // 4 clients × 25 rounds × 32 keys + 32 reads.
        assert_eq!(stats.iter().map(|s| s.ops).sum::<u64>(), 4 * 25 * 32 + 32);
        assert_eq!(stats.iter().map(|s| s.keys).sum::<usize>(), 32);
    }

    #[test]
    fn jam_word_sticks_across_clients() {
        let mut svc = Service::builder(2)
            .workers(2)
            .clients(8)
            .build(JamWordSpec::new());
        // 8 clients race to jam the same key; exactly one value must win
        // and every response must report that same value.
        let winners: Vec<u64> = std::thread::scope(|scope| {
            (0..8usize)
                .map(|client| {
                    let svc = &svc;
                    scope.spawn(move || {
                        match svc
                            .client(client)
                            .call(99, &JamWordOp::Jam(client as u64 + 1))
                            .unwrap()
                        {
                            JamWordResp::Jam { value, .. } => value,
                            other => panic!("unexpected response {other:?}"),
                        }
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let first = winners[0];
        assert!(winners.iter().all(|&v| v == first), "winners: {winners:?}");
        assert_eq!(
            svc.client(0).call(99, &JamWordOp::Read).unwrap(),
            JamWordResp::Value(Some(first))
        );
        svc.shutdown();
    }

    #[test]
    fn shutdown_reports_imbalance_histogram() {
        let mut svc = Service::builder(4).workers(2).build(CounterSpec::new());
        for key in 0..64 {
            svc.client(0).call(key, &CounterOp::Inc).unwrap();
        }
        let route = svc.obs_snapshot().counter("service.route");
        let stats = svc.shutdown();
        assert_eq!(stats.iter().map(|s| s.ops).sum::<u64>(), 64);
        // With obs compiled in the route counter saw every request; the
        // disabled sinks legitimately read zero.
        if cfg!(feature = "obs") {
            assert_eq!(route, 64);
        }
    }

    #[test]
    fn lossy_transport_converges_with_exact_counts() {
        // The fault plane, in miniature: heavy drop/dup/reorder/corrupt on
        // every lane, and the counter still ends exactly right because
        // retransmissions are deduped server-side.
        let mut svc = Service::builder(4)
            .workers(2)
            .clients(3)
            .fault(FaultProfile::lossy())
            .retry(RetryPolicy::lossy())
            .seed(7)
            .build(CounterSpec::new());
        let per_client = 40u64;
        std::thread::scope(|scope| {
            for client in 0..3usize {
                let svc = &svc;
                scope.spawn(move || {
                    for i in 0..per_client {
                        svc.client(client)
                            .call(i % 8, &CounterOp::Inc)
                            .unwrap_or_else(|e| panic!("client {client} op {i}: {e}"));
                    }
                });
            }
        });
        let total: u64 = (0..8)
            .map(|key| svc.client(0).call(key, &CounterOp::Read).unwrap())
            .sum();
        assert_eq!(
            total,
            3 * per_client,
            "acked increments must all count once"
        );
        let snap = svc.obs_snapshot();
        svc.shutdown();
        if cfg!(feature = "obs") {
            assert!(
                snap.counter("service.inject.drop") > 0,
                "10% drop over ≥120 ops must fire"
            );
            assert!(
                snap.counter("service.retry") > 0,
                "drops must force retransmissions"
            );
        }
    }

    #[test]
    fn bounded_mailbox_sheds_with_busy_replies() {
        // One worker, capacity 2, and the worker is slow to drain because
        // we flood from the submitting side before waiting on anything.
        // Every request must end in exactly one outcome — a reply, or a
        // typed Busy if its resends stay shed until the deadline.
        let mut svc = Service::builder(1)
            .mailbox_capacity(2)
            .build(CounterSpec::new());
        let client = svc.client(0);
        let posts = 64u64;
        let pending: Vec<_> = (0..posts)
            .map(|i| client.submit(0, &CounterOp::Add(1 + (i % 3))))
            .collect();
        let deadline = std::time::Instant::now() + client.retry().deadline;
        let mut ok = 0u64;
        let mut busy = 0u64;
        for p in pending {
            match p.wait(deadline) {
                Ok(_) => ok += 1,
                Err(e) if e.is_busy() => busy += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(ok + busy, posts, "exactly one outcome per request");
        let applied = client.call(1, &CounterOp::Read).unwrap(); // other key: 0
        assert_eq!(applied, 0);
        let stats = svc.shutdown();
        // Only the acked requests were applied (plus the read).
        assert_eq!(stats[0].ops, ok + 1);
        // `busy` is zero whenever the resends got through before the
        // deadline; the 1:1 accounting above is the contract under test.
    }

    #[test]
    fn rejected_request_surfaces_as_a_final_wire_error() {
        // A frame under client 0's identity, seq 0, whose payload is no
        // counter op, reaches the worker ahead of the client's own seq 0:
        // the worker answers it KIND_REJECT, and the client's wait for
        // seq 0 claims that reply as a non-retryable wire error.
        let mut svc = Service::builder(1).build(CounterSpec::new());
        let bad = Frame {
            kind: KIND_REQUEST,
            client: 0,
            seq: 0,
            key: 1,
            payload: vec![0xEE; 5],
        };
        let mut raw = Arc::clone(&svc.transport).connect(0);
        raw.send(0, Delivery::Intact(bad.to_bytes()));
        let err = svc.client(0).call(1, &CounterOp::Inc).unwrap_err();
        assert!(
            matches!(err, ServiceError::Wire(WireError::Payload(_))) && !err.is_retryable(),
            "{err}"
        );
        let snap = svc.obs_snapshot();
        svc.shutdown();
        if cfg!(feature = "obs") {
            assert_eq!(snap.counter("service.bad_payload"), 1);
        }
    }

    #[test]
    fn impossible_length_prefix_is_dropped_and_the_worker_keeps_serving() {
        // A blob whose length prefix (3) is shorter than any frame header
        // leaves the decoder no boundary to resync on. The worker drops it,
        // counts it, and serves the next honest call.
        let mut svc = Service::builder(1)
            .retry(RetryPolicy::patient().with_deadline(std::time::Duration::from_secs(5)))
            .build(CounterSpec::new());
        let mut raw = Arc::clone(&svc.transport).connect(0);
        raw.send(0, Delivery::Intact(vec![3, 0, 0, 0, 0xEE, 0xEE, 0xEE]));
        assert_eq!(svc.client(0).call(1, &CounterOp::Inc).unwrap(), 1);
        let snap = svc.obs_snapshot();
        let stats = svc.shutdown();
        assert_eq!(stats[0].ops, 1);
        if cfg!(feature = "obs") {
            assert_eq!(snap.counter("service.bad_payload"), 1);
        }
    }

    #[test]
    fn call_surfaces_busy_when_saturated_past_deadline() {
        // Capacity 1 and a stopped-ish worker: fill the inbox, then a call
        // with a tiny deadline must come back Busy, not hang.
        let svc = Service::builder(1)
            .clients(2)
            .mailbox_capacity(1)
            .retry(RetryPolicy::patient().with_deadline(std::time::Duration::from_millis(50)))
            .build(CounterSpec::new());
        // Client 1 floods without draining so the single slot stays busy
        // often; client 0's call may still succeed if the worker drains in
        // time, so only assert the *type* of failure when one happens.
        for _ in 0..512 {
            let _ = svc.client(1).submit(0, &CounterOp::Inc);
        }
        match svc.client(0).call(0, &CounterOp::Inc) {
            Ok(_) => {}
            Err(e) => assert!(
                e.is_busy() || matches!(e, ServiceError::Deadline { .. }),
                "unexpected error class: {e}"
            ),
        }
    }

    #[test]
    fn volatile_kills_surface_unavailable_and_retries_absorb_them() {
        let mut svc = Service::builder(2)
            .kill(KillPlan::every(8))
            .recovery(Recovery::Volatile)
            .seed(3)
            .build(CounterSpec::new());
        // Every call must succeed: kills produce typed Unavailable control
        // frames that the retry loop absorbs by retransmitting.
        for i in 0..100u64 {
            svc.client(0)
                .call(i % 4, &CounterOp::Inc)
                .unwrap_or_else(|e| panic!("op {i}: {e}"));
        }
        let snap = svc.obs_snapshot();
        svc.shutdown();
        if cfg!(feature = "obs") {
            assert!(snap.counter("service.respawn") > 0, "kills must fire");
            assert_eq!(
                snap.counter("service.respawn"),
                snap.counter("service.unavailable"),
                "each volatile kill answers exactly its in-flight request"
            );
            assert!(snap.counter("service.retry") > 0);
        }
    }

    #[test]
    fn durable_kills_lose_no_acked_operations() {
        let mut svc = Service::builder(2)
            .kill(KillPlan::every(8))
            .recovery(Recovery::Durable)
            .seed(5)
            .build(CounterSpec::new());
        let n = 100u64;
        for i in 0..n {
            svc.client(0)
                .call(i % 4, &CounterOp::Inc)
                .unwrap_or_else(|e| panic!("op {i}: {e}"));
        }
        let total: u64 = (0..4)
            .map(|key| svc.client(0).call(key, &CounterOp::Read).unwrap())
            .sum();
        assert_eq!(total, n, "durable recovery must preserve every acked op");
        let snap = svc.obs_snapshot();
        svc.shutdown();
        if cfg!(feature = "obs") {
            assert!(snap.counter("service.respawn") > 0, "kills must fire");
            // Durable kills requeue the in-flight frame: the client never
            // even notices, so no Unavailable and no client retries.
            assert_eq!(snap.counter("service.unavailable"), 0);
        }
    }

    #[test]
    fn group_commit_drains_hot_key_pileups_into_batches() {
        let svc = Service::builder(2)
            .workers(1) // one worker so hot-key frames pile up in one inbox
            .clients(8)
            .group_commit(true)
            .build(CounterSpec::new());
        // 8 closed-loop clients hammer one hot key; the drain turns the
        // pile-up into multi-command batches, and totals stay exact.
        let mut sent = 0u64;
        let burst = || {
            std::thread::scope(|scope| {
                for client in 0..8usize {
                    let svc = &svc;
                    scope.spawn(move || {
                        for i in 0..25u64 {
                            let got = svc.client(client).call(5, &CounterOp::Inc).unwrap();
                            assert!(got >= 1, "op {i}: inc returned {got}");
                        }
                    });
                }
            });
            200u64
        };
        sent += burst();
        if cfg!(feature = "obs") {
            // Timing decides how full each drain is, so insist on at least
            // one multi-command batch with a bounded number of extra bursts
            // (in practice the first burst is full of them).
            let mut tries = 0;
            while svc
                .obs_snapshot()
                .histogram("service.batch_size")
                .expect("registered")
                .max
                < 2
            {
                tries += 1;
                assert!(tries <= 20, "no multi-command batch after 20 bursts");
                sent += burst();
            }
        }
        assert_eq!(svc.client(0).call(5, &CounterOp::Read).unwrap(), sent);
        let snap = svc.obs_snapshot();
        let mut svc = svc;
        let stats = svc.shutdown();
        assert_eq!(stats.iter().map(|s| s.ops).sum::<u64>(), sent + 1);
        if cfg!(feature = "obs") {
            let h = snap.histogram("service.batch_size").expect("registered");
            assert_eq!(h.sum, sent + 1, "every command flows through a batch");
            assert_eq!(snap.counter("service.route"), sent + 1);
        }
    }

    #[test]
    fn group_commit_survives_lossy_transport_with_exact_counts() {
        // Drops, duplicates, reordering, and corruption in batched mode:
        // retransmissions land in later drains, so the batch path's dedup
        // screening (window hits *and* in-batch duplicates) must keep
        // acked increments counting exactly once.
        let mut svc = Service::builder(2)
            .workers(1)
            .clients(4)
            .group_commit(true)
            .fault(FaultProfile::lossy())
            .retry(RetryPolicy::lossy())
            .seed(11)
            .build(CounterSpec::new());
        let per_client = 30u64;
        std::thread::scope(|scope| {
            for client in 0..4usize {
                let svc = &svc;
                scope.spawn(move || {
                    for i in 0..per_client {
                        svc.client(client)
                            .call(i % 4, &CounterOp::Inc)
                            .unwrap_or_else(|e| panic!("client {client} op {i}: {e}"));
                    }
                });
            }
        });
        let total: u64 = (0..4)
            .map(|key| svc.client(0).call(key, &CounterOp::Read).unwrap())
            .sum();
        assert_eq!(total, 4 * per_client, "acked increments must count once");
        let snap = svc.obs_snapshot();
        svc.shutdown();
        if cfg!(feature = "obs") {
            assert!(
                snap.counter("service.retry") > 0,
                "drops must force retries"
            );
        }
    }

    #[test]
    fn group_commit_volatile_kills_answer_the_whole_drain() {
        // A kill mid-batch must answer *every* admitted-but-unapplied
        // frame Unavailable (nothing was applied yet), so the clients'
        // retry loops absorb it and every call still succeeds. Volatile
        // recovery wipes state, so no total is asserted — the contract
        // under test is no-silent-loss, same as the per-command kill test.
        let mut svc = Service::builder(2)
            .workers(1)
            .clients(4)
            .group_commit(true)
            .kill(KillPlan::every(40))
            .recovery(Recovery::Volatile)
            .seed(11)
            .build(CounterSpec::new());
        std::thread::scope(|scope| {
            for client in 0..4usize {
                let svc = &svc;
                scope.spawn(move || {
                    for i in 0..50u64 {
                        svc.client(client)
                            .call(i % 4, &CounterOp::Inc)
                            .unwrap_or_else(|e| panic!("client {client} op {i}: {e}"));
                    }
                });
            }
        });
        let snap = svc.obs_snapshot();
        svc.shutdown();
        if cfg!(feature = "obs") {
            assert!(snap.counter("service.respawn") > 0, "kills must fire");
            // A killed drain answers every unapplied frame, so unlike the
            // per-command path the count can exceed the respawn count —
            // but never trail it.
            assert!(
                snap.counter("service.unavailable") >= snap.counter("service.respawn"),
                "each kill answers at least its first in-flight request"
            );
        }
    }
}
