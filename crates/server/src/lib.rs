//! `fcds-server`: a fault-tolerant network tier in front of the
//! concurrent sketch engine.
//!
//! Thread-per-connection over `std::net` (no async runtime — the build
//! environment is offline and the engine's hot path is synchronous
//! anyway), speaking the length-prefixed [`frame`] protocol whose
//! payloads are the sketch wire envelopes plus a raw batch-ingest
//! frame. Robustness is the design center:
//!
//! * **Deadlines** — every connection has a mid-frame read deadline and
//!   a write timeout, so a stalled or severed peer can hold a thread
//!   for at most one frame.
//! * **Backpressure** — ingest flows through bounded per-worker queues;
//!   a full queue sheds the batch with an explicit
//!   [`frame::NackCode::Overload`] NACK, never a silent drop.
//! * **Circuit breaking** — each ingest worker is guarded by a
//!   closed/open/half-open [`breaker::CircuitBreaker`]; a worker that
//!   keeps failing is taken out of rotation and probed after a
//!   cooldown.
//! * **Panic isolation** — connection threads and ingest workers run
//!   under `catch_unwind`; a poisoned request can kill at most the
//!   thread it is on, and a dead worker trips its breaker instead of
//!   wedging the engine. A dead *propagator* (the engine-level fault)
//!   surfaces as `FlushError` from the worker's writer and is handled
//!   the same way.
//! * **Graceful drain** — [`ServerHandle::shutdown`] stops admitting
//!   ingest, drains the queues, flushes every writer, quiesces every
//!   engine (republishing images), then closes the listener and joins
//!   every thread, returning a [`DrainReport`].
//!
//! # Multi-stream service (FCF1 v2)
//!
//! One server hosts many named streams, each a [`fcds_core::engine::
//! StreamEngine`] of any sketch family, looked up through the
//! [`registry`](StreamInfo) by the stream key carried on v2 frames
//! ([`frame::FLAG_STREAM`]). Streams are created on first ingest or
//! merge with the frame's declared family, are isolated from each other
//! (private workers, queues and breakers per stream), and can be
//! retired at runtime ([`ServerHandle::retire_stream`]). v1 frames
//! (flags 0) are sugar over built-in streams: ingest and family-0
//! queries go to the [`DEFAULT_STREAM`] Θ stream, and v1 merges and
//! queries of wire families 1–4 go to [`THETA_MERGE_STREAM`],
//! [`HLL_MERGE_STREAM`], [`QUANTILES_MERGE_STREAM`] and
//! [`FREQUENCY_MERGE_STREAM`], each created on the first accepted v1
//! merge of its family. v1 merges are therefore checkpointed and
//! replicated like any other stream state.
//!
//! Every stream has two image roles. **Own** is the live engine image
//! plus every accumulated image (accepted non-REPLACE merges and the
//! boot-recovered snapshot image); **replica** is the newest image per
//! REPLACE source. Queries fan in own ∪ replica; the checkpointer and
//! the replica pusher both carry own.
//!
//! **Replica sync**: configure [`ServerConfig::replica_peer`] and the
//! server periodically fans each stream's own images into one and ships
//! it to the peer as a v2 REPLACE merge ([`frame::FLAG_REPLACE`]) keyed
//! by [`ServerConfig::replica_source_id`]. The peer stores the newest
//! image per source and fans it in at query time with the multiway
//! merge kernels, so two servers ingesting disjoint substreams converge
//! on the union within one sync period. Replacement — not accumulation
//! — is what keeps periodic re-pushes idempotent for the families whose
//! merges are not (Quantiles concat, Misra–Gries counter addition).

pub mod breaker;
pub mod checksum;
pub mod client;
pub mod frame;
pub mod persist;
pub mod recover;
mod registry;

pub use breaker::{BreakerState, CircuitBreaker};
pub use client::{Client, Reply};
pub use frame::{FrameType, NackCode};
pub use persist::{DirStore, FsyncPolicy, SnapshotStore};
pub use recover::{RecoverError, RecoveryOutcome, SnapshotRecord};
pub use registry::StreamInfo;

use crate::frame::{
    check_payload, encode_frame, encode_nack_payload, parse_header, split_stream_prefix, Frame,
    HeaderError, FLAG_REPLACE, FLAG_STREAM, FRAME_HEADER_LEN,
};
use crate::registry::{
    build_engine, fan_in, Answer, CreateError, FanInError, Registry, StreamState, Want, WorkerExit,
    WorkerHandle,
};
use bytes::Bytes;
use fcds_core::engine::EngineWriter;
use fcds_sketches::wire::{
    peek, HllWireView, LadderWireView, MgWireView, SketchFamily, ThetaWireView,
};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked socket reads and idle loops wake up to check the
/// shutdown/drain flags. Deadlines are enforced at this granularity.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// The key of the built-in Θ stream behind v1 ingest and family-0
/// queries. Always present; cannot be retired.
pub const DEFAULT_STREAM: &[u8] = b"default";

/// The key of the built-in stream behind v1 Θ merges and family-1
/// queries, created on the first accepted v1 Θ merge.
pub const THETA_MERGE_STREAM: &[u8] = b"v1-theta";
/// The key of the built-in stream behind v1 HLL merges and family-2
/// queries, created on the first accepted v1 HLL merge.
pub const HLL_MERGE_STREAM: &[u8] = b"v1-hll";
/// The key of the built-in stream behind v1 Quantiles merges and
/// family-3 queries, created on the first accepted v1 Quantiles merge.
pub const QUANTILES_MERGE_STREAM: &[u8] = b"v1-quantiles";
/// The key of the built-in stream behind v1 Misra–Gries merges and
/// family-4 queries, created on the first accepted v1 Misra–Gries merge.
pub const FREQUENCY_MERGE_STREAM: &[u8] = b"v1-frequency";

/// The built-in stream behind v1 merges of `family`.
fn v1_merge_stream(family: SketchFamily) -> &'static [u8] {
    match family {
        SketchFamily::Theta => THETA_MERGE_STREAM,
        SketchFamily::Hll => HLL_MERGE_STREAM,
        SketchFamily::Quantiles => QUANTILES_MERGE_STREAM,
        SketchFamily::Frequency => FREQUENCY_MERGE_STREAM,
    }
}

/// The built-in stream a v1 query's family byte names: 0 is the
/// default Θ stream, 1–4 the per-family merge streams.
fn v1_query_stream(code: u8) -> Option<(&'static [u8], SketchFamily)> {
    match code {
        0 => Some((DEFAULT_STREAM, SketchFamily::Theta)),
        _ => SketchFamily::from_code(code).map(|f| (v1_merge_stream(f), f)),
    }
}

/// Server configuration. `Default` is sized for a small host (the 1-CPU
/// CI container): two ingest workers, 64-deep queues, 1 MiB frames.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks a free port (see
    /// [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Number of ingest worker threads, each owning one engine writer.
    pub ingest_workers: usize,
    /// Bound of each worker's ingest queue, in batches. A full queue
    /// sheds with [`NackCode::Overload`].
    pub queue_depth: usize,
    /// Maximum accepted frame payload, bytes. Larger declarations are
    /// NACKed ([`NackCode::PayloadTooLarge`]) and the connection closed.
    pub max_frame_payload: u32,
    /// Mid-frame read deadline: once a frame's first byte arrives, the
    /// rest must arrive within this window or the connection is closed
    /// (with a best-effort [`NackCode::Timeout`] NACK).
    pub frame_deadline: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// `lg_k` of the live Θ engine.
    pub lg_k: u8,
    /// Consecutive failures that open a worker's circuit breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects before admitting a half-open
    /// probe.
    pub breaker_cooldown: Duration,
    /// Maximum accumulated merge images per stream, and maximum replica
    /// sources per stream; beyond it, merges shed with
    /// [`NackCode::Overload`].
    pub merge_store_cap: usize,
    /// Fault-injection hook for the robustness suite: an ingest worker
    /// that sees this item value panics, exercising panic isolation and
    /// the breaker over a real connection. `None` in production.
    pub fault_panic_on: Option<u64>,
    /// Ingest worker threads per *non-default* stream (the default
    /// stream uses [`Self::ingest_workers`]).
    pub stream_workers: usize,
    /// Maximum simultaneously registered streams (including the default
    /// stream); creation beyond it NACKs with [`NackCode::Overload`].
    pub max_streams: usize,
    /// Replica peer address (`host:port`). `Some` turns on the
    /// background pusher: every [`Self::replica_interval`] the server
    /// ships each stream's live wire image to the peer as a v2 REPLACE
    /// merge under [`Self::replica_source_id`].
    pub replica_peer: Option<String>,
    /// Push period of the replica pusher.
    pub replica_interval: Duration,
    /// This server's replica source id — the slot its pushes replace on
    /// the peer. Two peers pushing to each other must use distinct ids.
    pub replica_source_id: u64,
    /// Snapshot directory for the durability tier. `Some` turns on the
    /// background checkpointer (bounded loss ≤ one
    /// [`Self::snapshot_interval`] of acked ingest per stream) and
    /// boot-time recovery of every valid snapshot found there. `None`
    /// (the default) keeps the pre-PR-10 in-memory-only behaviour.
    pub data_dir: Option<String>,
    /// Checkpoint period of the durability tier — the bounded-loss
    /// window.
    pub snapshot_interval: Duration,
    /// When snapshot bytes are fsynced (see [`FsyncPolicy`]).
    pub fsync_policy: FsyncPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ingest_workers: 2,
            queue_depth: 64,
            max_frame_payload: 1 << 20,
            frame_deadline: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            lg_k: 12,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(250),
            merge_store_cap: 1024,
            fault_panic_on: None,
            stream_workers: 1,
            max_streams: 64,
            replica_peer: None,
            replica_interval: Duration::from_millis(250),
            replica_source_id: 1,
            data_dir: None,
            snapshot_interval: Duration::from_millis(250),
            fsync_policy: FsyncPolicy::Interval,
        }
    }
}

/// Monotone server counters (all `Relaxed` — diagnostics, not
/// synchronisation).
#[derive(Debug, Default)]
struct Stats {
    conns_opened: AtomicU64,
    conns_closed: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    nacks: AtomicU64,
    sheds: AtomicU64,
    ingest_batches: AtomicU64,
    ingest_items: AtomicU64,
    merges_accepted: AtomicU64,
    worker_panics: AtomicU64,
    conn_panics: AtomicU64,
    flush_errors: AtomicU64,
    read_timeouts: AtomicU64,
    streams_created: AtomicU64,
    streams_retired: AtomicU64,
    replica_pushes: AtomicU64,
    replica_push_errors: AtomicU64,
    snapshots_written: AtomicU64,
    snapshot_errors: AtomicU64,
    streams_recovered: AtomicU64,
    records_quarantined: AtomicU64,
}

/// A point-in-time copy of the server's diagnostic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub conns_opened: u64,
    /// Connections that have finished (closed or errored).
    pub conns_closed: u64,
    /// Frames successfully decoded from clients.
    pub frames_in: u64,
    /// Frames written to clients.
    pub frames_out: u64,
    /// NACK frames sent (every rejected request produces exactly one).
    pub nacks: u64,
    /// Ingest batches shed on full queues.
    pub sheds: u64,
    /// Ingest batches accepted into worker queues.
    pub ingest_batches: u64,
    /// Stream items ingested into the live engine.
    pub ingest_items: u64,
    /// Wire images accepted by `Merge` frames (v1 and v2, accumulated
    /// or replica).
    pub merges_accepted: u64,
    /// Ingest-worker panics isolated (each kills one worker, trips its
    /// breaker, and takes nothing else down).
    pub worker_panics: u64,
    /// Connection-thread panics isolated.
    pub conn_panics: u64,
    /// Writer flushes that failed with a typed `FlushError`.
    pub flush_errors: u64,
    /// Connections closed for blowing the mid-frame read deadline.
    pub read_timeouts: u64,
    /// Streams created (create-on-first-ingest/merge plus the default
    /// stream).
    pub streams_created: u64,
    /// Streams retired at runtime.
    pub streams_retired: u64,
    /// Replica images successfully pushed (acked by the peer).
    pub replica_pushes: u64,
    /// Replica pushes that failed (connect/write error or peer NACK).
    pub replica_push_errors: u64,
    /// Snapshot records committed by the checkpointer.
    pub snapshots_written: u64,
    /// Checkpointer write/merge/fsync failures (counted, never fatal).
    pub snapshot_errors: u64,
    /// Streams re-registered from valid snapshots at boot.
    pub streams_recovered: u64,
    /// Snapshot records that failed validation at boot and were
    /// quarantined.
    pub records_quarantined: u64,
    /// State of the replica-peer circuit breaker (`None` when no peer
    /// is configured).
    pub replica_breaker: Option<BreakerState>,
}

impl Stats {
    fn snapshot(&self, replica_breaker: Option<BreakerState>) -> StatsSnapshot {
        StatsSnapshot {
            conns_opened: self.conns_opened.load(Ordering::Relaxed),
            conns_closed: self.conns_closed.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            nacks: self.nacks.load(Ordering::Relaxed),
            sheds: self.sheds.load(Ordering::Relaxed),
            ingest_batches: self.ingest_batches.load(Ordering::Relaxed),
            ingest_items: self.ingest_items.load(Ordering::Relaxed),
            merges_accepted: self.merges_accepted.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            conn_panics: self.conn_panics.load(Ordering::Relaxed),
            flush_errors: self.flush_errors.load(Ordering::Relaxed),
            read_timeouts: self.read_timeouts.load(Ordering::Relaxed),
            streams_created: self.streams_created.load(Ordering::Relaxed),
            streams_retired: self.streams_retired.load(Ordering::Relaxed),
            replica_pushes: self.replica_pushes.load(Ordering::Relaxed),
            replica_push_errors: self.replica_push_errors.load(Ordering::Relaxed),
            snapshots_written: self.snapshots_written.load(Ordering::Relaxed),
            snapshot_errors: self.snapshot_errors.load(Ordering::Relaxed),
            streams_recovered: self.streams_recovered.load(Ordering::Relaxed),
            records_quarantined: self.records_quarantined.load(Ordering::Relaxed),
            replica_breaker,
        }
    }
}

/// Run-state flags shared by every thread of the server.
#[derive(Debug, Default)]
struct Control {
    /// Stop admitting ingest/merge work (queries still served).
    draining: AtomicBool,
    /// Tear everything down: listener, connections, workers.
    shutdown: AtomicBool,
    /// A client sent a `Shutdown` frame; the embedder (e.g. the binary)
    /// polls this and calls [`ServerHandle::shutdown`].
    drain_requested: AtomicBool,
    /// Stops the background checkpointer ahead of the drain path's
    /// final checkpoint pass, so exactly one writer touches the store
    /// during teardown.
    checkpoint_stop: AtomicBool,
}

/// Everything a connection thread needs.
struct ServerCtx {
    cfg: ServerConfig,
    ctl: Control,
    stats: Stats,
    registry: Registry,
    /// The snapshot store of the durability tier (`None` when
    /// persistence is off).
    persist: Option<Arc<dyn SnapshotStore>>,
    /// Circuit breaker guarding the replica peer link (`None` when no
    /// peer is configured).
    replica_breaker: Option<Arc<CircuitBreaker>>,
    /// Worker-exit counts from streams retired before the drain, folded
    /// into the final [`DrainReport`].
    retired_flushed: AtomicUsize,
    retired_flush_failed: AtomicUsize,
    retired_panicked: AtomicUsize,
}

impl ServerCtx {
    /// The built-in v1 stream. Present from [`serve`] until drain.
    fn default_stream(&self) -> Option<Arc<StreamState>> {
        self.registry.get(DEFAULT_STREAM)
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        self.stats
            .snapshot(self.replica_breaker.as_ref().map(|b| b.state()))
    }
}

/// Why [`serve`] could not start. Startup is all-or-nothing: on any
/// variant every thread spawned so far has been joined and every
/// stream drained — a spawn failure can never leak a half-started
/// server.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// Binding (or inspecting) the listener failed.
    Bind(io::Error),
    /// The built-in default stream could not be created.
    DefaultStream(String),
    /// Opening the snapshot directory failed.
    Store(io::Error),
    /// The boot-time snapshot scan failed outright (individual bad
    /// records never cause this — they are quarantined).
    Recover(String),
    /// A server thread could not be spawned.
    Spawn {
        /// Which thread (`"accept loop"`, `"replica pusher"`,
        /// `"checkpointer"`).
        what: &'static str,
        /// The OS error.
        source: io::Error,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(e) => write!(f, "bind listener: {e}"),
            ServeError::DefaultStream(e) => write!(f, "create default stream: {e}"),
            ServeError::Store(e) => write!(f, "open snapshot directory: {e}"),
            ServeError::Recover(e) => write!(f, "recover snapshots: {e}"),
            ServeError::Spawn { what, source } => write!(f, "spawn {what}: {source}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Bind(e) | ServeError::Store(e) | ServeError::Spawn { source: e, .. } => {
                Some(e)
            }
            ServeError::DefaultStream(_) | ServeError::Recover(_) => None,
        }
    }
}

impl From<ServeError> for io::Error {
    fn from(e: ServeError) -> io::Error {
        match e {
            ServeError::Bind(e) | ServeError::Store(e) => e,
            other => io::Error::other(other.to_string()),
        }
    }
}

/// The running server: owns the accept loop, the stream registry (and
/// every stream's worker threads), the optional replica pusher and the
/// optional checkpointer. Obtain via [`serve`]; stop via
/// [`Self::shutdown`] (or drop, which performs an abrupt but still
/// joined teardown).
pub struct ServerHandle {
    ctx: Arc<ServerCtx>,
    addr: SocketAddr,
    accept_join: Option<JoinHandle<()>>,
    pusher_join: Option<JoinHandle<()>>,
    checkpoint_join: Option<JoinHandle<()>>,
    conn_joins: Arc<Mutex<Vec<JoinHandle<()>>>>,
    recovery: Option<RecoveryOutcome>,
    drained: bool,
}

/// Outcome of a graceful drain: how cleanly the server went down.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct DrainReport {
    /// Workers whose queues drained and writers flushed cleanly.
    pub workers_flushed: usize,
    /// Workers whose final flush failed with a typed error.
    pub workers_flush_failed: usize,
    /// Workers that had died by panic before or during the drain.
    pub workers_panicked: usize,
    /// Threads that could not be joined (must be 0 — anything else is a
    /// leak).
    pub leaked_threads: usize,
    /// Final counter snapshot.
    pub stats: StatsSnapshot,
    /// Final estimate of the live engine after quiesce.
    pub final_estimate: f64,
}

/// Spawns a fully-wired stream: builds the engine for `family`, starts
/// `workers_n` worker threads each owning one engine writer, and
/// returns the state ready to insert into the registry.
fn spawn_stream(
    ctx: &Arc<ServerCtx>,
    key: &[u8],
    family: SketchFamily,
    workers_n: usize,
) -> Result<Arc<StreamState>, String> {
    let workers_n = workers_n.max(1);
    let engine = build_engine(family, ctx.cfg.lg_k, workers_n)?;
    let mut handles = Vec::with_capacity(workers_n);
    let mut rxs: Vec<Receiver<Vec<u64>>> = Vec::with_capacity(workers_n);
    for _ in 0..workers_n {
        let (tx, rx) = sync_channel::<Vec<u64>>(ctx.cfg.queue_depth.max(1));
        handles.push(WorkerHandle {
            tx,
            breaker: Arc::new(CircuitBreaker::new(
                ctx.cfg.breaker_threshold.max(1),
                ctx.cfg.breaker_cooldown,
            )),
            dead: Arc::new(AtomicBool::new(false)),
        });
        rxs.push(rx);
    }
    let state = Arc::new(StreamState {
        key: key.to_vec(),
        family,
        engine,
        workers: handles,
        worker_joins: Mutex::new(Vec::with_capacity(workers_n)),
        next_worker: AtomicUsize::new(0),
        retired: AtomicBool::new(false),
        items: AtomicU64::new(0),
        replicas: Mutex::new(std::collections::HashMap::new()),
        accumulated: Mutex::new(Vec::new()),
        persisted_seq: AtomicU64::new(0),
        snapshot_dirty: AtomicBool::new(false),
    });
    let mut joins = Vec::with_capacity(workers_n);
    for (i, rx) in rxs.into_iter().enumerate() {
        let ctx = Arc::clone(ctx);
        let state2 = Arc::clone(&state);
        let writer = state.engine.writer();
        joins.push(
            std::thread::Builder::new()
                .name(format!("fcds-stream-worker-{i}"))
                .spawn(move || stream_worker(ctx, state2, i, writer, rx))
                .map_err(|e| format!("spawn stream worker: {e}"))?,
        );
    }
    *state.worker_joins.lock().unwrap_or_else(|e| e.into_inner()) = joins;
    ctx.stats.streams_created.fetch_add(1, Ordering::Relaxed);
    Ok(state)
}

/// Starts the server: binds the listener, spins up the default Θ stream
/// and its ingest workers, recovers every valid snapshot from
/// [`ServerConfig::data_dir`] (when set) **before accepting traffic**,
/// then starts the checkpointer/replica-pusher background threads and
/// the accept loop.
///
/// # Errors
///
/// Every startup failure — bind, engine build, snapshot-scan I/O,
/// thread spawn — is a typed [`ServeError`]; nothing on this path
/// panics, and on error every thread spawned so far has been joined.
pub fn serve(cfg: ServerConfig) -> Result<ServerHandle, ServeError> {
    let snapshot_store: Option<Arc<dyn SnapshotStore>> = match &cfg.data_dir {
        Some(dir) => Some(Arc::new(DirStore::new(dir).map_err(ServeError::Store)?)),
        None => None,
    };
    serve_with_store(cfg, snapshot_store)
}

/// [`serve`] with an explicit [`SnapshotStore`] (fault-injection tests
/// substitute stores that fail with ENOSPC, short writes or fsync
/// errors). `Some` enables the durability tier regardless of
/// [`ServerConfig::data_dir`].
pub fn serve_with_store(
    cfg: ServerConfig,
    snapshot_store: Option<Arc<dyn SnapshotStore>>,
) -> Result<ServerHandle, ServeError> {
    let listener = TcpListener::bind(&cfg.addr).map_err(ServeError::Bind)?;
    let addr = listener.local_addr().map_err(ServeError::Bind)?;
    listener.set_nonblocking(true).map_err(ServeError::Bind)?;

    let max_streams = cfg.max_streams.max(1);
    let replica_breaker = cfg.replica_peer.as_ref().map(|_| {
        Arc::new(CircuitBreaker::new(
            cfg.breaker_threshold.max(1),
            cfg.breaker_cooldown,
        ))
    });
    let ctx = Arc::new(ServerCtx {
        cfg,
        ctl: Control::default(),
        stats: Stats::default(),
        registry: Registry::new(max_streams),
        persist: snapshot_store,
        replica_breaker,
        retired_flushed: AtomicUsize::new(0),
        retired_flush_failed: AtomicUsize::new(0),
        retired_panicked: AtomicUsize::new(0),
    });

    // Joins all streams and any already-running background threads so
    // a failed startup never leaks a thread.
    let abort_start = |ctx: &Arc<ServerCtx>, joins: Vec<JoinHandle<()>>| {
        ctx.ctl.draining.store(true, Ordering::Release);
        ctx.ctl.shutdown.store(true, Ordering::Release);
        for state in ctx.registry.drain_all() {
            state.retired.store(true, Ordering::Release);
            let _ = state.join_workers();
        }
        for j in joins {
            let _ = j.join();
        }
    };

    let default_workers = ctx.cfg.ingest_workers.max(1);
    if let Err(e) = ctx
        .registry
        .get_or_create(DEFAULT_STREAM, SketchFamily::Theta, || {
            spawn_stream(&ctx, DEFAULT_STREAM, SketchFamily::Theta, default_workers)
        })
    {
        abort_start(&ctx, Vec::new());
        return Err(ServeError::DefaultStream(format!("{e:?}")));
    }

    // Recover before anything can observe the registry: by the time the
    // accept loop exists, every valid snapshot is a live stream.
    let recovery = match ctx.persist.clone() {
        Some(snap_store) => match recover::recover_streams(&ctx, &*snap_store) {
            Ok(outcome) => Some(outcome),
            Err(e) => {
                abort_start(&ctx, Vec::new());
                return Err(ServeError::Recover(e));
            }
        },
        None => None,
    };

    let spawn_named = |name: &str, f: Box<dyn FnOnce() + Send>| {
        std::thread::Builder::new().name(name.to_string()).spawn(f)
    };

    let checkpoint_join = match ctx.persist.clone() {
        Some(snap_store) => {
            let ctx2 = Arc::clone(&ctx);
            match spawn_named(
                "fcds-checkpoint",
                Box::new(move || persist::checkpointer(ctx2, snap_store)),
            ) {
                Ok(j) => Some(j),
                Err(source) => {
                    abort_start(&ctx, Vec::new());
                    return Err(ServeError::Spawn {
                        what: "checkpointer",
                        source,
                    });
                }
            }
        }
        None => None,
    };

    let pusher_join = match ctx.cfg.replica_peer.clone() {
        Some(peer) => {
            let ctx2 = Arc::clone(&ctx);
            match spawn_named(
                "fcds-replica-push",
                Box::new(move || replica_pusher(ctx2, peer)),
            ) {
                Ok(j) => Some(j),
                Err(source) => {
                    let joins = checkpoint_join.into_iter().collect();
                    abort_start(&ctx, joins);
                    return Err(ServeError::Spawn {
                        what: "replica pusher",
                        source,
                    });
                }
            }
        }
        None => None,
    };

    let conn_joins: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let accept_join = {
        let ctx2 = Arc::clone(&ctx);
        let conn_joins2 = Arc::clone(&conn_joins);
        match spawn_named(
            "fcds-accept",
            Box::new(move || accept_loop(listener, ctx2, conn_joins2)),
        ) {
            Ok(j) => j,
            Err(source) => {
                let joins = checkpoint_join.into_iter().chain(pusher_join).collect();
                abort_start(&ctx, joins);
                return Err(ServeError::Spawn {
                    what: "accept loop",
                    source,
                });
            }
        }
    };

    Ok(ServerHandle {
        ctx,
        addr,
        accept_join: Some(accept_join),
        pusher_join,
        checkpoint_join,
        conn_joins,
        recovery,
        drained: false,
    })
}

impl ServerHandle {
    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.ctx.stats_snapshot()
    }

    /// What boot-time recovery did (`None` when persistence is off).
    pub fn recovery_outcome(&self) -> Option<&RecoveryOutcome> {
        self.recovery.as_ref()
    }

    /// Whether any stream lost an ingest worker (panic or dead
    /// propagator) — degraded but still serving.
    pub fn is_degraded(&self) -> bool {
        self.ctx
            .registry
            .list()
            .iter()
            .any(|s| s.workers.iter().any(|w| w.dead.load(Ordering::Acquire)))
    }

    /// Whether some client requested a drain with a `Shutdown` frame.
    pub fn drain_requested(&self) -> bool {
        self.ctx.ctl.drain_requested.load(Ordering::Acquire)
    }

    /// Estimate of the default stream's live Θ engine (concurrent query
    /// path).
    pub fn live_estimate(&self) -> f64 {
        self.ctx
            .default_stream()
            .and_then(|s| s.engine.estimate())
            .unwrap_or(0.0)
    }

    /// Every live stream: key, family, items ingested, durability lag.
    pub fn list_streams(&self) -> Vec<StreamInfo> {
        self.ctx
            .registry
            .list()
            .iter()
            .map(|s| {
                let items = s.items.load(Ordering::Relaxed);
                let last_persisted_seq = s.persisted_seq.load(Ordering::Relaxed);
                StreamInfo {
                    key: s.key.clone(),
                    family: s.family,
                    items,
                    last_persisted_seq,
                    snapshot_lag: items.saturating_sub(last_persisted_seq),
                }
            })
            .collect()
    }

    /// Retires a stream: removes it from the registry, drains and joins
    /// its workers, and quiesces its engine. Returns `false` for the
    /// default stream (not retirable) or an unknown key. A later v2
    /// ingest/merge under the same key creates a fresh stream.
    pub fn retire_stream(&self, key: &[u8]) -> bool {
        if key == DEFAULT_STREAM {
            return false;
        }
        let Some(state) = self.ctx.registry.retire(key) else {
            return false;
        };
        state.retired.store(true, Ordering::Release);
        let (flushed, failed, panicked, _leaked) = state.join_workers();
        self.ctx
            .retired_flushed
            .fetch_add(flushed, Ordering::Relaxed);
        self.ctx
            .retired_flush_failed
            .fetch_add(failed, Ordering::Relaxed);
        self.ctx
            .retired_panicked
            .fetch_add(panicked, Ordering::Relaxed);
        state.engine.quiesce();
        // Retirement is permanent: drop the snapshot too, so a restart
        // cannot resurrect the retired stream.
        if let Some(store) = &self.ctx.persist {
            let _ = store.remove(&persist::snapshot_file_name(key));
        }
        self.ctx
            .stats
            .streams_retired
            .fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Gracefully drains and stops the server:
    ///
    /// 1. stop admitting ingest/merge (`Draining` NACKs from here on);
    /// 2. let workers drain their queues and flush their writers;
    /// 3. quiesce the engine (merges every hand-off, republishes
    ///    images);
    /// 4. close the listener and every connection, joining all threads.
    pub fn shutdown(mut self) -> DrainReport {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> DrainReport {
        self.drained = true;
        self.ctx.ctl.draining.store(true, Ordering::Release);

        // Hand snapshot writing over to this thread: stop and join the
        // checkpointer *before* the final post-quiesce checkpoints, so
        // a stale concurrent round can never overwrite a final record.
        self.ctx.ctl.checkpoint_stop.store(true, Ordering::Release);
        let mut leaked_threads = 0usize;
        if let Some(j) = self.checkpoint_join.take() {
            if j.join().is_err() {
                leaked_threads += 1;
            }
        }

        // Carry over worker exits from streams retired before the
        // drain, then drain every remaining stream.
        let mut workers_flushed = self.ctx.retired_flushed.load(Ordering::Relaxed);
        let mut workers_flush_failed = self.ctx.retired_flush_failed.load(Ordering::Relaxed);
        let mut workers_panicked = self.ctx.retired_panicked.load(Ordering::Relaxed);
        let mut final_estimate = 0.0f64;
        let mut wrote_final_snapshot = false;
        for state in self.ctx.registry.drain_all() {
            state.retired.store(true, Ordering::Release);
            let (flushed, failed, panicked, leaked) = state.join_workers();
            workers_flushed += flushed;
            workers_flush_failed += failed;
            workers_panicked += panicked;
            leaked_threads += leaked;
            // Writers are flushed (or dead); merge what is in flight
            // and republish every shard image.
            state.engine.quiesce();
            if state.key == DEFAULT_STREAM {
                // Fan in like a query so boot-recovered state counts.
                final_estimate =
                    match fan_in(state.family, Want::Estimate, &state.own_and_replica()) {
                        Ok(Answer::Estimate(v)) => v,
                        _ => state.engine.estimate().unwrap_or(0.0),
                    };
            }
            // Final checkpoint after quiesce: a *graceful* shutdown is
            // zero-loss, the bounded-loss window applies to crashes
            // only.
            if let Some(store) = &self.ctx.persist {
                let fsync_file = self.ctx.cfg.fsync_policy == FsyncPolicy::Always;
                match persist::checkpoint_stream(&state, &**store, fsync_file) {
                    Ok(true) => {
                        wrote_final_snapshot = true;
                        self.ctx
                            .stats
                            .snapshots_written
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(false) => {}
                    Err(_) => {
                        self.ctx
                            .stats
                            .snapshot_errors
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        if wrote_final_snapshot && self.ctx.cfg.fsync_policy != FsyncPolicy::Never {
            if let Some(store) = &self.ctx.persist {
                if store.sync_dir().is_err() {
                    self.ctx
                        .stats
                        .snapshot_errors
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        self.ctx.ctl.shutdown.store(true, Ordering::Release);
        if let Some(j) = self.pusher_join.take() {
            if j.join().is_err() {
                leaked_threads += 1;
            }
        }
        if let Some(j) = self.accept_join.take() {
            if j.join().is_err() {
                leaked_threads += 1;
            }
        }
        let joins = {
            let mut g = self.conn_joins.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *g)
        };
        for j in joins {
            if j.join().is_err() {
                leaked_threads += 1;
            }
        }

        DrainReport {
            workers_flushed,
            workers_flush_failed,
            workers_panicked,
            leaked_threads,
            stats: self.ctx.stats_snapshot(),
            final_estimate,
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.drained {
            let _ = self.shutdown_inner();
        }
    }
}

/// The per-stream ingest worker: drains its bounded queue into its
/// engine writer (family-generic through [`EngineWriter`]). Runs under
/// `catch_unwind`; a panic (injected faults, engine bugs) kills only
/// this worker, trips its breaker, and marks it dead so dispatch routes
/// around it — workers of *other* streams are untouched, which is the
/// per-stream isolation property the registry suite asserts.
fn stream_worker(
    ctx: Arc<ServerCtx>,
    state: Arc<StreamState>,
    index: usize,
    writer: Box<dyn EngineWriter>,
    rx: Receiver<Vec<u64>>,
) -> WorkerExit {
    let me = state.workers[index].clone();
    let exit = catch_unwind(AssertUnwindSafe(|| {
        stream_worker_impl(&ctx, &state, &me, writer, &rx)
    }));
    match exit {
        Ok(e) => e,
        Err(_) => {
            me.dead.store(true, Ordering::Release);
            me.breaker.trip();
            ctx.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            WorkerExit::Panicked
        }
    }
}

fn stream_worker_impl(
    ctx: &ServerCtx,
    state: &StreamState,
    me: &WorkerHandle,
    mut writer: Box<dyn EngineWriter>,
    rx: &Receiver<Vec<u64>>,
) -> WorkerExit {
    loop {
        match rx.recv_timeout(POLL_INTERVAL) {
            Ok(batch) => {
                if let Some(poison) = ctx.cfg.fault_panic_on {
                    if batch.contains(&poison) {
                        panic!("injected fault: poisoned ingest item {poison}");
                    }
                }
                let n = batch.len() as u64;
                writer.ingest_batch(&batch);
                // Flush after each batch, so the batch is handed to the
                // engine instead of waiting in the writer's local buffer
                // and a flush failure surfaces promptly instead of only
                // at drain.
                match writer.flush() {
                    Ok(()) => {
                        ctx.stats.ingest_items.fetch_add(n, Ordering::Relaxed);
                        state.items.fetch_add(n, Ordering::Relaxed);
                        me.breaker.record_success();
                    }
                    Err(_e) => {
                        ctx.stats.flush_errors.fetch_add(1, Ordering::Relaxed);
                        me.dead.store(true, Ordering::Release);
                        me.breaker.trip();
                        return WorkerExit::FlushFailed;
                    }
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if ctx.ctl.draining.load(Ordering::Acquire)
                    || ctx.ctl.shutdown.load(Ordering::Acquire)
                    || state.retired.load(Ordering::Acquire)
                {
                    // Dispatch stopped admitting before the flag was
                    // set, so an empty poll during a drain/retire means
                    // the queue is finally dry: flush and exit.
                    return match writer.flush() {
                        Ok(()) => WorkerExit::Flushed,
                        Err(_) => {
                            ctx.stats.flush_errors.fetch_add(1, Ordering::Relaxed);
                            me.dead.store(true, Ordering::Release);
                            me.breaker.trip();
                            WorkerExit::FlushFailed
                        }
                    };
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                // All senders gone (server handle dropped mid-teardown).
                return match writer.flush() {
                    Ok(()) => WorkerExit::Flushed,
                    Err(_) => WorkerExit::FlushFailed,
                };
            }
        }
    }
}

/// Advances a xorshift64 state and scales `base` by a ±25% jitter
/// factor. Hand-rolled so the server crate stays dependency-free; the
/// point of the jitter is only to de-synchronise retry storms from
/// many pushers against one recovering peer.
fn jittered(rng: &mut u64, base: Duration) -> Duration {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    let frac = (*rng >> 40) as f64 / (1u64 << 24) as f64; // uniform [0, 1)
    base.mul_f64(0.75 + 0.5 * frac)
}

/// The background replica pusher: every `replica_interval`, fan each
/// stream's own images into one (live engine plus accumulated merges
/// and the boot-recovered image, so the peer sees the same answer
/// before and after this server restarts) and ship it to the peer as a
/// v2 REPLACE merge under this server's source id.
///
/// The peer link is guarded by the server-wide circuit breaker:
/// transport failures (connect/write/read errors) count toward opening
/// it, and while it is open the pusher backs off exponentially — the
/// delay doubles per failed round up to 16× `replica_interval`, with
/// ±25% jitter — instead of hammering a dead peer at full interval.
/// A successful round closes the breaker and resets the delay. Typed
/// peer NACKs (draining, at capacity) are counted as push errors but
/// keep the connection and the breaker closed: the peer is alive and
/// framing is intact. The pusher never takes the server down.
fn replica_pusher(ctx: Arc<ServerCtx>, peer: String) {
    let breaker = ctx
        .replica_breaker
        .clone()
        .unwrap_or_else(|| Arc::new(CircuitBreaker::new(1, ctx.cfg.breaker_cooldown)));
    let mut rng = ctx
        .cfg
        .replica_source_id
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        | 1;
    let base = ctx.cfg.replica_interval;
    let backoff_cap = base.saturating_mul(16);
    let mut delay = base;
    let mut client: Option<Client> = None;
    let mut next_push = Instant::now() + base;
    loop {
        if ctx.ctl.shutdown.load(Ordering::Acquire) {
            return;
        }
        std::thread::sleep(POLL_INTERVAL);
        if Instant::now() < next_push {
            continue;
        }
        if !breaker.allow() {
            // Open breaker (cooldown not yet elapsed): re-check after
            // the current backoff delay instead of busy-probing.
            next_push = Instant::now() + jittered(&mut rng, delay);
            continue;
        }
        let mut transport_failed = false;
        if client.is_none() {
            client = Client::connect(peer.as_str(), ctx.cfg.write_timeout).ok();
            if client.is_none() {
                ctx.stats
                    .replica_push_errors
                    .fetch_add(1, Ordering::Relaxed);
                transport_failed = true;
            }
        }
        if let Some(c) = client.as_mut() {
            for state in ctx.registry.list() {
                let Ok(image) = state.own_image() else {
                    ctx.stats
                        .replica_push_errors
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                };
                let pushed = c.merge_stream_from(
                    state.family,
                    &state.key,
                    ctx.cfg.replica_source_id,
                    &image,
                );
                match pushed {
                    Ok(Reply::Ack { .. }) => {
                        ctx.stats.replica_pushes.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(_) => {
                        // Typed NACK (peer draining, at capacity…):
                        // count and keep the connection — framing is
                        // intact and the peer is demonstrably alive.
                        ctx.stats
                            .replica_push_errors
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        ctx.stats
                            .replica_push_errors
                            .fetch_add(1, Ordering::Relaxed);
                        client = None; // reconnect after backoff
                        transport_failed = true;
                        break;
                    }
                }
            }
        }
        if transport_failed {
            breaker.record_failure();
            delay = (delay * 2).min(backoff_cap);
            next_push = Instant::now() + jittered(&mut rng, delay);
        } else {
            breaker.record_success();
            delay = base;
            next_push = Instant::now() + base;
        }
    }
}

/// Accepts connections until shutdown; each connection gets its own
/// thread wrapped in `catch_unwind`.
fn accept_loop(
    listener: TcpListener,
    ctx: Arc<ServerCtx>,
    conn_joins: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut conn_id = 0u64;
    loop {
        if ctx.ctl.shutdown.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                conn_id += 1;
                ctx.stats.conns_opened.fetch_add(1, Ordering::Relaxed);
                let ctx2 = Arc::clone(&ctx);
                let spawned = std::thread::Builder::new()
                    .name(format!("fcds-conn-{conn_id}"))
                    .spawn(move || {
                        let ctx3 = Arc::clone(&ctx2);
                        let r = catch_unwind(AssertUnwindSafe(move || {
                            handle_connection(stream, &ctx2);
                        }));
                        if r.is_err() {
                            ctx3.stats.conn_panics.fetch_add(1, Ordering::Relaxed);
                        }
                        ctx3.stats.conns_closed.fetch_add(1, Ordering::Relaxed);
                    });
                match spawned {
                    Ok(handle) => {
                        let mut joins = conn_joins.lock().unwrap_or_else(|e| e.into_inner());
                        // Reap finished threads so the vec stays bounded
                        // by the number of *live* connections.
                        joins.retain(|j| !j.is_finished());
                        joins.push(handle);
                    }
                    Err(_) => {
                        // Out of threads: shed this connection (the
                        // socket closes on drop) and keep accepting —
                        // resource exhaustion must not kill the server.
                        ctx.stats.conns_closed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => {
                // Transient accept errors (aborted handshakes) — retry.
                std::thread::sleep(POLL_INTERVAL);
            }
        }
    }
}

/// What the frame reader produced.
enum ReadEvent {
    /// A validated frame.
    Frame(Frame),
    /// A protocol violation; NACK with `err`'s code and close if
    /// `err.closes_connection()`.
    Bad { seq: u16, err: HeaderError },
    /// The peer closed (or the server is shutting down) — exit quietly.
    Closed,
    /// Mid-frame deadline blown: best-effort Timeout NACK, then close.
    TimedOut { seq: u16 },
}

/// Reads exactly `buf.len()` bytes, polling the shutdown flag and
/// enforcing `deadline` (set by the caller once a frame has started).
fn read_exact_ctl(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: &mut Option<Instant>,
    ctx: &ServerCtx,
) -> io::Result<ReadProgress> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Ok(ReadProgress::Closed),
            Ok(n) => {
                filled += n;
                if deadline.is_none() {
                    *deadline = Some(Instant::now() + ctx.cfg.frame_deadline);
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if ctx.ctl.shutdown.load(Ordering::Acquire) {
                    return Ok(ReadProgress::Closed);
                }
                if let Some(d) = *deadline {
                    if Instant::now() >= d {
                        return Ok(ReadProgress::TimedOut);
                    }
                }
                if filled == 0 {
                    // Idle between frames: not an error, keep polling.
                    return Ok(ReadProgress::Idle);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadProgress::Done)
}

enum ReadProgress {
    Done,
    Idle,
    Closed,
    TimedOut,
}

/// Reads one frame (or classifies why one could not be read).
fn read_frame(stream: &mut TcpStream, ctx: &ServerCtx) -> io::Result<ReadEvent> {
    let mut header_bytes = [0u8; FRAME_HEADER_LEN];
    let mut deadline: Option<Instant> = None;
    // Header: loop on Idle (no frame started yet).
    loop {
        match read_exact_ctl(stream, &mut header_bytes, &mut deadline, ctx)? {
            ReadProgress::Done => break,
            ReadProgress::Idle => continue,
            ReadProgress::Closed => return Ok(ReadEvent::Closed),
            ReadProgress::TimedOut => return Ok(ReadEvent::TimedOut { seq: 0 }),
        }
    }
    // Sequence number for NACKs even when validation fails (only
    // meaningful if the magic matched; 0 otherwise).
    let raw_seq = u16::from_le_bytes(header_bytes[6..8].try_into().expect("2 bytes"));
    let header = match parse_header(&header_bytes, ctx.cfg.max_frame_payload, true) {
        Ok(h) => h,
        Err(err) => {
            let seq = if matches!(err, HeaderError::BadMagic { .. }) {
                0
            } else {
                raw_seq
            };
            // For keep-open violations (unknown type, bad flags) the
            // framing is intact: skim the declared payload so the next
            // frame starts at a boundary. The declared length is still
            // capped before we trust it.
            if !err.closes_connection() {
                let declared = u32::from_le_bytes(header_bytes[8..12].try_into().expect("4 bytes"));
                if declared > ctx.cfg.max_frame_payload {
                    return Ok(ReadEvent::Bad {
                        seq,
                        err: HeaderError::PayloadTooLarge {
                            declared,
                            cap: ctx.cfg.max_frame_payload,
                        },
                    });
                }
                let mut discard = vec![0u8; declared as usize];
                loop {
                    match read_exact_ctl(stream, &mut discard, &mut deadline, ctx)? {
                        ReadProgress::Done => break,
                        ReadProgress::Idle => continue,
                        ReadProgress::Closed => return Ok(ReadEvent::Closed),
                        ReadProgress::TimedOut => return Ok(ReadEvent::TimedOut { seq }),
                    }
                }
            }
            return Ok(ReadEvent::Bad { seq, err });
        }
    };
    let mut payload = vec![0u8; header.payload_len as usize];
    loop {
        match read_exact_ctl(stream, &mut payload, &mut deadline, ctx)? {
            ReadProgress::Done => break,
            ReadProgress::Idle => continue,
            ReadProgress::Closed => return Ok(ReadEvent::Closed),
            ReadProgress::TimedOut => return Ok(ReadEvent::TimedOut { seq: header.seq }),
        }
    }
    if let Err(err) = check_payload(&header, &payload) {
        return Ok(ReadEvent::Bad {
            seq: header.seq,
            err,
        });
    }
    Ok(ReadEvent::Frame(Frame {
        ftype: header.ftype,
        flags: header.flags,
        seq: header.seq,
        payload,
    }))
}

/// One response frame to write back.
struct Response {
    ftype: FrameType,
    seq: u16,
    payload: Vec<u8>,
    /// Close the connection after writing.
    close: bool,
}

impl Response {
    fn ack(seq: u16) -> Response {
        Response {
            ftype: FrameType::Ack,
            seq,
            payload: Vec::new(),
            close: false,
        }
    }

    fn nack(seq: u16, code: NackCode, detail: &str, close: bool) -> Response {
        Response {
            ftype: FrameType::Nack,
            seq,
            payload: encode_nack_payload(code, detail),
            close,
        }
    }
}

/// Serves one connection until close/shutdown/fatal error.
fn handle_connection(mut stream: TcpStream, ctx: &Arc<ServerCtx>) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(ctx.cfg.write_timeout));
    let _ = stream.set_nodelay(true);
    loop {
        let event = match read_frame(&mut stream, ctx) {
            Ok(e) => e,
            Err(_) => return, // hard I/O error: nothing sane to send
        };
        let response = match event {
            ReadEvent::Closed => return,
            ReadEvent::TimedOut { seq } => {
                ctx.stats.read_timeouts.fetch_add(1, Ordering::Relaxed);
                Response::nack(
                    seq,
                    NackCode::Timeout,
                    "mid-frame read deadline blown",
                    true,
                )
            }
            ReadEvent::Bad { seq, err } => Response::nack(
                seq,
                err.nack_code(),
                &err.to_string(),
                err.closes_connection(),
            ),
            ReadEvent::Frame(frame) => {
                ctx.stats.frames_in.fetch_add(1, Ordering::Relaxed);
                dispatch_frame(frame, ctx)
            }
        };
        let close = response.close;
        if write_response(&mut stream, ctx, response).is_err() || close {
            return;
        }
    }
}

fn write_response(stream: &mut TcpStream, ctx: &ServerCtx, r: Response) -> io::Result<()> {
    if r.ftype == FrameType::Nack {
        ctx.stats.nacks.fetch_add(1, Ordering::Relaxed);
    }
    let bytes = encode_frame(r.ftype, r.seq, &r.payload);
    stream.write_all(&bytes)?;
    ctx.stats.frames_out.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// Routes one validated frame to its handler and produces the response.
fn dispatch_frame(frame: Frame, ctx: &Arc<ServerCtx>) -> Response {
    match frame.ftype {
        FrameType::Ping => Response {
            ftype: FrameType::Pong,
            seq: frame.seq,
            payload: Vec::new(),
            close: false,
        },
        FrameType::Ingest => handle_ingest(frame, ctx),
        FrameType::Merge => handle_merge(frame, ctx),
        FrameType::Query => handle_query(frame, ctx),
        FrameType::Shutdown => {
            ctx.ctl.drain_requested.store(true, Ordering::Release);
            ctx.ctl.draining.store(true, Ordering::Release);
            Response::ack(frame.seq)
        }
        // parse_header's direction check makes these unreachable, but
        // route them to a typed error rather than a panic if it ever
        // regresses.
        _ => Response::nack(
            frame.seq,
            NackCode::Malformed,
            "server-side frame type",
            false,
        ),
    }
}

/// Resolves a stream key against the registry. `create` is true for
/// ingest/merge (create-on-first-use) and false for queries
/// ([`NackCode::UnknownStream`] instead).
fn resolve_stream(
    ctx: &Arc<ServerCtx>,
    seq: u16,
    key: &[u8],
    family: SketchFamily,
    create: bool,
) -> Result<Arc<StreamState>, Response> {
    let mismatch = |expected: SketchFamily| {
        Response::nack(
            seq,
            NackCode::FamilyMismatch,
            &format!(
                "stream was created as {}, frame declared {}",
                expected.name(),
                family.name()
            ),
            false,
        )
    };
    if create {
        let workers = ctx.cfg.stream_workers.max(1);
        match ctx
            .registry
            .get_or_create(key, family, || spawn_stream(ctx, key, family, workers))
        {
            Ok((stream, _created)) => Ok(stream),
            Err(CreateError::FamilyMismatch { expected }) => Err(mismatch(expected)),
            Err(CreateError::AtCapacity) => Err(Response::nack(
                seq,
                NackCode::Overload,
                "stream registry at capacity; retire a stream first",
                false,
            )),
            Err(CreateError::Build(e)) => Err(Response::nack(seq, NackCode::Internal, &e, false)),
        }
    } else {
        match ctx.registry.get(key) {
            Some(stream) if stream.family == family => Ok(stream),
            Some(stream) => Err(mismatch(stream.family)),
            None => Err(Response::nack(
                seq,
                NackCode::UnknownStream,
                "no such stream (queries never create streams)",
                false,
            )),
        }
    }
}

fn handle_ingest(frame: Frame, ctx: &Arc<ServerCtx>) -> Response {
    if ctx.ctl.draining.load(Ordering::Acquire) {
        return Response::nack(frame.seq, NackCode::Draining, "server is draining", false);
    }
    let (stream, body) = if frame.flags & FLAG_STREAM != 0 {
        match split_stream_prefix(&frame.payload, false) {
            Ok((prefix, body)) => {
                match resolve_stream(ctx, frame.seq, prefix.key, prefix.family, true) {
                    Ok(stream) => (stream, body),
                    Err(nack) => return nack,
                }
            }
            Err(e) => return Response::nack(frame.seq, NackCode::Malformed, &e.to_string(), false),
        }
    } else {
        match ctx.default_stream() {
            Some(stream) => (stream, frame.payload.as_slice()),
            None => {
                return Response::nack(
                    frame.seq,
                    NackCode::Internal,
                    "default stream missing",
                    false,
                )
            }
        }
    };
    if !body.len().is_multiple_of(8) {
        return Response::nack(
            frame.seq,
            NackCode::Malformed,
            "ingest payload must be a whole number of u64 items",
            false,
        );
    }
    let items: Vec<u64> = body
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    if items.is_empty() {
        return Response::ack(frame.seq);
    }
    ingest_into(&stream, items, ctx, frame.seq)
}

/// Routes one batch into `stream`'s workers: round-robin over live
/// workers with closed breakers; a full queue records a breaker failure
/// and tries the next. Failure NACKs are scoped to this stream — other
/// streams' workers and breakers are never consulted.
fn ingest_into(stream: &StreamState, items: Vec<u64>, ctx: &ServerCtx, seq: u16) -> Response {
    let n = stream.workers.len();
    let start = stream.next_worker.fetch_add(1, Ordering::Relaxed);
    let mut batch = items;
    let mut saw_full = false;
    let mut saw_open = false;
    for i in 0..n {
        let w = &stream.workers[(start + i) % n];
        if w.dead.load(Ordering::Acquire) {
            continue;
        }
        if !w.breaker.allow() {
            saw_open = true;
            continue;
        }
        match w.tx.try_send(batch) {
            Ok(()) => {
                ctx.stats.ingest_batches.fetch_add(1, Ordering::Relaxed);
                return Response::ack(seq);
            }
            Err(TrySendError::Full(b)) => {
                w.breaker.record_failure();
                saw_full = true;
                batch = b;
            }
            Err(TrySendError::Disconnected(b)) => {
                // Worker gone without marking dead (shouldn't happen,
                // but never wedge on it).
                w.dead.store(true, Ordering::Release);
                w.breaker.trip();
                batch = b;
            }
        }
    }
    ctx.stats.sheds.fetch_add(1, Ordering::Relaxed);
    if saw_full {
        Response::nack(
            seq,
            NackCode::Overload,
            "all ingest queues full; back off and retry",
            false,
        )
    } else if saw_open {
        Response::nack(
            seq,
            NackCode::BreakerOpen,
            "ingest breakers open; retry after cooldown",
            false,
        )
    } else {
        Response::nack(seq, NackCode::Internal, "no live ingest backend", false)
    }
}

/// The gate for merges and for snapshot-embedded images at recovery.
/// Pre-screens the envelope with the capped peek (never size anything
/// from an unvalidated declared length), then parses it with the
/// family's zero-copy view and runs the view's item check. That is the
/// family's owned decoder minus materialisation, so an image passes
/// exactly when its decoder accepts it, and every stored image is one
/// the query fan-in accepts. The Θ/HLL item scan runs once per image,
/// at merge or at recovery; the query path only has the fan-in
/// kernels' own fused check.
pub(crate) fn validate_envelope(payload: &[u8], cap: u32) -> Result<SketchFamily, String> {
    let peeked = peek(payload, cap as u64).map_err(|e| e.to_string())?;
    match peeked.family {
        SketchFamily::Theta => ThetaWireView::parse(payload).and_then(|v| v.validate()),
        SketchFamily::Hll => HllWireView::parse(payload).and_then(|v| v.validate()),
        SketchFamily::Quantiles => LadderWireView::<u64>::parse(payload).map(|_| ()),
        SketchFamily::Frequency => MgWireView::<u64>::parse(payload).map(|_| ()),
    }
    .map_err(|e| e.to_string())?;
    Ok(peeked.family)
}

fn handle_merge(frame: Frame, ctx: &Arc<ServerCtx>) -> Response {
    if ctx.ctl.draining.load(Ordering::Acquire) {
        return Response::nack(frame.seq, NackCode::Draining, "server is draining", false);
    }
    let (prefix, body) = if frame.flags & FLAG_STREAM != 0 {
        match split_stream_prefix(&frame.payload, frame.flags & FLAG_REPLACE != 0) {
            Ok((prefix, body)) => (Some(prefix), body),
            Err(e) => return Response::nack(frame.seq, NackCode::Malformed, &e.to_string(), false),
        }
    } else {
        (None, frame.payload.as_slice())
    };
    // Validate before resolving: a rejected merge must never create a
    // stream (and its worker threads) under a fresh key.
    let family = match validate_envelope(body, ctx.cfg.max_frame_payload) {
        Ok(f) => f,
        Err(e) => return Response::nack(frame.seq, NackCode::Wire, &e, false),
    };
    // v1 merges are sugar over the family's built-in merge stream.
    let (key, source) = match &prefix {
        Some(p) if p.family != family => {
            return Response::nack(
                frame.seq,
                NackCode::FamilyMismatch,
                &format!(
                    "envelope is {}, stream is {}",
                    family.name(),
                    p.family.name()
                ),
                false,
            )
        }
        Some(p) => (p.key, p.source),
        None => (v1_merge_stream(family), None),
    };
    // Create-on-first-merge: a replica push materialises the stream on
    // the receiving peer before any local ingest.
    let stream = match resolve_stream(ctx, frame.seq, key, family, true) {
        Ok(stream) => stream,
        Err(nack) => return nack,
    };
    let image = Bytes::from(body.to_vec());
    if let Some(source) = source {
        // Replace-by-source: idempotent under periodic re-push.
        let mut replicas = stream.replicas.lock().unwrap_or_else(|e| e.into_inner());
        if !replicas.contains_key(&source) && replicas.len() >= ctx.cfg.merge_store_cap {
            return Response::nack(
                frame.seq,
                NackCode::Overload,
                "replica slots at capacity for this stream",
                false,
            );
        }
        replicas.insert(source, image);
    } else {
        let mut accumulated = stream.accumulated.lock().unwrap_or_else(|e| e.into_inner());
        if accumulated.len() >= ctx.cfg.merge_store_cap {
            return Response::nack(
                frame.seq,
                NackCode::Overload,
                "accumulated merges at capacity for this stream",
                false,
            );
        }
        accumulated.push(image);
        // Accumulated images are own state: make the checkpointer
        // rewrite the snapshot even if `items` is unchanged. (Replica
        // slots are not: their source re-pushes them within one
        // replica_interval.)
        stream.snapshot_dirty.store(true, Ordering::Release);
    }
    ctx.stats.merges_accepted.fetch_add(1, Ordering::Relaxed);
    Response::ack(frame.seq)
}

/// Serves a query: fans `images` in with [`fan_in`] and encodes the
/// answer (or its typed NACK).
fn answer_query(seq: u16, family: SketchFamily, kind: u8, images: &[Bytes]) -> Response {
    let want = match kind {
        0 => Want::Estimate,
        1 => Want::Image,
        _ => return Response::nack(seq, NackCode::Malformed, "unknown query kind", false),
    };
    let (ftype, payload) = match fan_in(family, want, images) {
        Ok(Answer::Estimate(value)) => {
            (FrameType::Estimate, value.to_bits().to_le_bytes().to_vec())
        }
        Ok(Answer::Image(bytes)) => (FrameType::Image, bytes.as_ref().to_vec()),
        Err(FanInError::Unsupported) => {
            return Response::nack(
                seq,
                NackCode::Unsupported,
                "quantiles/frequency families have no scalar estimate; query the image",
                false,
            )
        }
        Err(FanInError::Wire(e)) => {
            return Response::nack(seq, NackCode::Wire, &e.to_string(), false)
        }
    };
    Response {
        ftype,
        seq,
        payload,
        close: false,
    }
}

fn handle_query(frame: Frame, ctx: &Arc<ServerCtx>) -> Response {
    let malformed = |detail: &str| Response::nack(frame.seq, NackCode::Malformed, detail, false);
    if frame.flags & FLAG_STREAM != 0 {
        let (prefix, body) = match split_stream_prefix(&frame.payload, false) {
            Ok(split) => split,
            Err(e) => return malformed(&e.to_string()),
        };
        let stream = match resolve_stream(ctx, frame.seq, prefix.key, prefix.family, false) {
            Ok(stream) => stream,
            Err(nack) => return nack,
        };
        // Same 2-byte selector as v1; the family byte is redundant with
        // the prefix and ignored.
        let [kind, _family] = body else {
            return malformed("query payload must be [kind, family]");
        };
        return answer_query(frame.seq, stream.family, *kind, &stream.own_and_replica());
    }
    let [kind, code] = frame.payload[..] else {
        return malformed("query payload must be [kind, family]");
    };
    let Some((key, family)) = v1_query_stream(code) else {
        return malformed("unknown query kind or family");
    };
    // A built-in merge stream that does not exist yet has no images: the
    // fan-in answers with the kernels' typed "no images" Wire NACK.
    let images = match ctx.registry.get(key) {
        Some(stream) if stream.family == family => stream.own_and_replica(),
        _ => Vec::new(),
    };
    answer_query(frame.seq, family, kind, &images)
}

#[cfg(test)]
mod tests {
    use super::validate_envelope;
    use fcds_sketches::frequency::MisraGriesSketch;
    use fcds_sketches::hll::HllSketch;
    use fcds_sketches::quantiles::{QuantilesLadder, QuantilesSketch};
    use fcds_sketches::theta::{CompactThetaSketch, QuickSelectThetaSketch};
    use fcds_sketches::wire::{encode_theta_unsorted, peek, SketchFamily, WireDecode, WireEncode};

    /// Whether the owned decoder of the family `image` claims accepts it.
    fn decodes(image: &[u8]) -> bool {
        match peek(image, u64::MAX).map(|p| p.family) {
            Ok(SketchFamily::Theta) => CompactThetaSketch::from_wire_bytes(image).is_ok(),
            Ok(SketchFamily::Hll) => HllSketch::from_wire_bytes(image).is_ok(),
            Ok(SketchFamily::Quantiles) => QuantilesLadder::<u64>::from_wire_bytes(image).is_ok(),
            Ok(SketchFamily::Frequency) => MisraGriesSketch::<u64>::from_wire_bytes(image).is_ok(),
            Err(_) => false,
        }
    }

    /// The merge and recovery gate stores only what the family's decoder
    /// accepts, and refuses nothing it accepts: one image per family
    /// (plus Θ's insertion-order form) through every single-byte
    /// mutation.
    #[test]
    fn gate_accepts_a_mutated_image_exactly_when_its_decoder_does() {
        let mut theta = QuickSelectThetaSketch::new(4, 1).unwrap();
        let mut hll = HllSketch::new(4, 1).unwrap();
        let mut quantiles = QuantilesSketch::<u64>::with_seed(4, 1).unwrap();
        let mut mg = MisraGriesSketch::<u64>::new(4).unwrap();
        for i in 0..100u64 {
            theta.update(i);
            hll.update(i);
            quantiles.update(i);
            mg.update(i % 6);
        }
        let images = [
            theta.compact().to_wire_bytes(),
            encode_theta_unsorted(&theta),
            hll.to_wire_bytes(),
            quantiles.ladder().to_wire_bytes(),
            mg.to_wire_bytes(),
        ];
        for image in &images {
            assert!(validate_envelope(image, u32::MAX).is_ok());
            let mut mutated = image.to_vec();
            for off in 0..image.len() {
                for delta in 1..=u8::MAX {
                    mutated[off] = image[off].wrapping_add(delta);
                    assert_eq!(
                        validate_envelope(&mutated, u32::MAX).is_ok(),
                        decodes(&mutated),
                        "byte {off} of a {:?} image, +{delta}",
                        peek(image, u64::MAX).map(|p| p.family),
                    );
                }
                mutated[off] = image[off];
            }
        }
    }
}
