//! The per-key stream registry: the map from opaque stream keys to
//! running [`StreamEngine`]s, plus each stream's private ingest
//! workers, its two image roles, and [`fan_in`], the one family
//! dispatch every merged answer goes through.
//!
//! Lifecycle contract (documented in the README and exercised by the
//! `registry_streams` suite):
//!
//! * **Create on first ingest or merge** — a v2 `Ingest` or `Merge`
//!   frame for an unknown key creates the stream with the frame's
//!   declared family; a merge only once its envelope has validated, so
//!   a rejected merge never leaves a stream behind. Queries never
//!   create ([`NackCode::UnknownStream`] instead), so a typo'd read
//!   cannot materialise an empty stream.
//! * **Family is fixed at creation** — later frames declaring a
//!   different family are rejected with
//!   [`NackCode::FamilyMismatch`] and leave the stream untouched.
//! * **Isolation** — every stream owns its worker threads, queues and
//!   circuit breakers; a poisoned batch or open breaker on one stream
//!   can never shed or NACK another stream's traffic.
//! * **Retire** — removes the key, drains and joins the stream's
//!   workers, quiesces the engine. A subsequent ingest/merge under the
//!   same key creates a *fresh* stream (any family).
//!
//! Image roles: a stream's **own** images are its live engine image
//! plus every accumulated image (accepted non-REPLACE merges and the
//! boot-recovered snapshot image); its **replica** images are the
//! newest image per REPLACE source. Queries fan in own ∪ replica;
//! checkpoints and replica pushes carry own alone, so a peer's slot
//! never echoes back and a snapshot never double-counts a peer.
//!
//! [`NackCode::UnknownStream`]: crate::frame::NackCode::UnknownStream
//! [`NackCode::FamilyMismatch`]: crate::frame::NackCode::FamilyMismatch

use crate::breaker::CircuitBreaker;
use bytes::Bytes;
use fcds_core::engine::{
    EngineBuilder, FrequencyFamily, HllFamily, QuantilesFamily, StreamEngine, ThetaFamily,
};
use fcds_core::PropagationBackendKind;
use fcds_sketches::theta::{ThetaRead, THETA_MAX};
use fcds_sketches::wire::{
    hll_multiway_merge, ladder_multiway_concat, mg_multiway_merge, theta_multiway_union,
    HllWireView, LadderWireView, MgWireView, SketchFamily, ThetaWireView, WireEncode, WireHeader,
};
use fcds_sketches::WireError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Per-worker dispatch handle, cloned into every connection thread.
#[derive(Clone)]
pub(crate) struct WorkerHandle {
    pub(crate) tx: SyncSender<Vec<u64>>,
    pub(crate) breaker: Arc<CircuitBreaker>,
    pub(crate) dead: Arc<AtomicBool>,
}

/// What a worker reports when it exits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkerExit {
    /// Queue drained and writer flushed cleanly.
    Flushed,
    /// Writer flush failed (typed engine error, already counted).
    FlushFailed,
    /// The worker panicked (isolated; breaker tripped).
    Panicked,
}

/// One registered stream: a running engine plus everything the server
/// scopes to it (workers, breakers, accumulated and replica images).
pub(crate) struct StreamState {
    pub(crate) key: Vec<u8>,
    pub(crate) family: SketchFamily,
    pub(crate) engine: Box<dyn StreamEngine>,
    pub(crate) workers: Vec<WorkerHandle>,
    pub(crate) worker_joins: Mutex<Vec<JoinHandle<WorkerExit>>>,
    pub(crate) next_worker: AtomicUsize,
    /// Set by retire/drain; workers exit once their queue is dry.
    pub(crate) retired: AtomicBool,
    /// Items ingested into this stream's engine (diagnostics).
    pub(crate) items: AtomicU64,
    /// Replica role: the latest image pushed by each replica source id.
    /// Replacement (not accumulation) is what makes periodic pushes
    /// idempotent for the non-idempotent families (Quantiles concat,
    /// Misra–Gries counter addition).
    pub(crate) replicas: Mutex<HashMap<u64, Bytes>>,
    /// Own role besides the live engine: every accepted non-REPLACE
    /// merge and the boot-recovered snapshot image, bounded by
    /// `merge_store_cap`.
    pub(crate) accumulated: Mutex<Vec<Bytes>>,
    /// [`Self::items`] as of the last durable snapshot (0 = never
    /// persisted). `items - persisted_seq` is the stream's snapshot lag:
    /// the ingest a crash right now would lose.
    pub(crate) persisted_seq: AtomicU64,
    /// Set when an accepted merge changes the own role so the
    /// checkpointer rewrites the snapshot even though `items` did not
    /// move.
    pub(crate) snapshot_dirty: AtomicBool,
}

impl StreamState {
    /// The own role: the live engine image followed by every
    /// accumulated image. Never empty — the live image is always there.
    pub(crate) fn own(&self) -> Vec<Bytes> {
        let mut v = vec![self.engine.wire_image()];
        let accumulated = self.accumulated.lock().unwrap_or_else(|e| e.into_inner());
        v.extend(accumulated.iter().cloned());
        v
    }

    /// What a query fans in: own ∪ replica.
    pub(crate) fn own_and_replica(&self) -> Vec<Bytes> {
        let mut v = self.own();
        let replicas = self.replicas.lock().unwrap_or_else(|e| e.into_inner());
        v.extend(replicas.values().cloned());
        v
    }

    /// The own role fanned into one image: what a checkpoint writes and
    /// the replica pusher ships. A lone live image passes through as-is.
    pub(crate) fn own_image(&self) -> Result<Bytes, WireError> {
        let mut images = self.own();
        if images.len() == 1 {
            return Ok(images.pop().expect("one image"));
        }
        match fan_in(self.family, Want::Image, &images) {
            Ok(Answer::Image(image)) => Ok(image),
            Ok(Answer::Estimate(_)) => unreachable!("an image fan-in answers with an image"),
            Err(FanInError::Wire(e)) => Err(e),
            Err(FanInError::Unsupported) => unreachable!("every family has an image"),
        }
    }

    /// Joins every worker thread, returning
    /// `(flushed, flush_failed, panicked, leaked)` counts. Callers set
    /// [`Self::retired`] (or the server-wide draining flag) first so
    /// the workers actually exit.
    pub(crate) fn join_workers(&self) -> (usize, usize, usize, usize) {
        let joins = {
            let mut g = self.worker_joins.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *g)
        };
        let (mut flushed, mut failed, mut panicked, mut leaked) = (0, 0, 0, 0);
        for j in joins {
            match j.join() {
                Ok(WorkerExit::Flushed) => flushed += 1,
                Ok(WorkerExit::FlushFailed) => failed += 1,
                Ok(WorkerExit::Panicked) => panicked += 1,
                Err(_) => leaked += 1, // catch_unwind means this can't happen
            }
        }
        (flushed, failed, panicked, leaked)
    }
}

/// A public, copyable description of one live stream
/// ([`crate::ServerHandle::list_streams`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct StreamInfo {
    /// The stream key.
    pub key: Vec<u8>,
    /// The family the stream was created with.
    pub family: SketchFamily,
    /// Items ingested into the stream so far.
    pub items: u64,
    /// [`Self::items`] as of the stream's last durable snapshot (0 when
    /// never persisted or persistence is off).
    pub last_persisted_seq: u64,
    /// `items - last_persisted_seq`: the acked ingest a crash right now
    /// would lose. Bounded by one `snapshot_interval` of traffic while
    /// the checkpointer is healthy.
    pub snapshot_lag: u64,
}

/// Why [`Registry::get_or_create`] refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CreateError {
    /// The key exists with a different family.
    FamilyMismatch {
        /// The family the stream was created with.
        expected: SketchFamily,
    },
    /// The registry holds `max_streams` streams already.
    AtCapacity,
    /// Engine construction failed (invalid config).
    Build(String),
}

/// The concurrent key → stream map. One mutex over the map: lookups
/// and creates are short (engine construction happens inside the lock
/// exactly once per key, which is also what makes concurrent
/// create-on-first-ingest of the same key race-free).
pub(crate) struct Registry {
    streams: Mutex<HashMap<Vec<u8>, Arc<StreamState>>>,
    max_streams: usize,
}

impl Registry {
    pub(crate) fn new(max_streams: usize) -> Self {
        Registry {
            streams: Mutex::new(HashMap::new()),
            max_streams: max_streams.max(1),
        }
    }

    pub(crate) fn get(&self, key: &[u8]) -> Option<Arc<StreamState>> {
        self.streams
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .cloned()
    }

    /// Looks up `key`, creating it with `make` if absent. Returns the
    /// stream and whether this call created it.
    pub(crate) fn get_or_create(
        &self,
        key: &[u8],
        family: SketchFamily,
        make: impl FnOnce() -> Result<Arc<StreamState>, String>,
    ) -> Result<(Arc<StreamState>, bool), CreateError> {
        let mut map = self.streams.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(existing) = map.get(key) {
            if existing.family != family {
                return Err(CreateError::FamilyMismatch {
                    expected: existing.family,
                });
            }
            return Ok((Arc::clone(existing), false));
        }
        if map.len() >= self.max_streams {
            return Err(CreateError::AtCapacity);
        }
        let state = make().map_err(CreateError::Build)?;
        map.insert(key.to_vec(), Arc::clone(&state));
        Ok((state, true))
    }

    /// Removes `key` from the map and returns its state for the caller
    /// to drain. `None` if the key was not registered.
    pub(crate) fn retire(&self, key: &[u8]) -> Option<Arc<StreamState>> {
        self.streams
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(key)
    }

    /// Snapshot of every live stream.
    pub(crate) fn list(&self) -> Vec<Arc<StreamState>> {
        self.streams
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect()
    }

    /// Removes and returns every stream (graceful drain).
    pub(crate) fn drain_all(&self) -> Vec<Arc<StreamState>> {
        self.streams
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain()
            .map(|(_, s)| s)
            .collect()
    }
}

/// The per-family engine factory: maps a wire family code onto the
/// unified [`EngineBuilder`], sharing the server's `writers` across
/// families. Θ takes the configured `lg_k`; the other families run at
/// their documented defaults. Every engine propagates writer-assisted:
/// the stream's ingest workers drain their own hand-offs, so a stream
/// costs no propagator threads.
pub(crate) fn build_engine(
    family: SketchFamily,
    lg_k: u8,
    writers: usize,
) -> Result<Box<dyn StreamEngine>, String> {
    let writers = writers.max(1);
    let backend = PropagationBackendKind::WriterAssisted;
    let built = match family {
        SketchFamily::Theta => EngineBuilder::<ThetaFamily>::new()
            .accuracy(lg_k as usize)
            .writers(writers)
            .backend(backend)
            .build_boxed(),
        SketchFamily::Hll => EngineBuilder::<HllFamily>::new()
            .writers(writers)
            .backend(backend)
            .build_boxed(),
        SketchFamily::Quantiles => EngineBuilder::<QuantilesFamily<u64>>::new()
            .writers(writers)
            .backend(backend)
            .build_boxed(),
        SketchFamily::Frequency => EngineBuilder::<FrequencyFamily<u64>>::new()
            .writers(writers)
            .backend(backend)
            .build_boxed(),
    };
    built.map_err(|e| e.to_string())
}

/// What a fan-in is asked for (a query's `kind` byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Want {
    /// The scalar estimate (Θ and HLL only).
    Estimate,
    /// The merged wire image.
    Image,
}

/// A fan-in's answer.
pub(crate) enum Answer {
    Estimate(f64),
    Image(Bytes),
}

/// Why a fan-in produced no answer.
pub(crate) enum FanInError {
    /// Quantiles and Misra–Gries have no scalar estimate.
    Unsupported,
    /// A kernel rejected the image set (seed or `k` mismatch, or no
    /// images at all).
    Wire(WireError),
}

impl From<WireError> for FanInError {
    fn from(e: WireError) -> Self {
        FanInError::Wire(e)
    }
}

/// The one family dispatch: fans `images` in with `family`'s multiway
/// kernel and answers `want`. Query, checkpoint, replica push and the
/// drain's final estimate all come through here.
///
/// Empty images — those summarising zero items — are left out: an
/// empty image is every family's merge identity, so leaving it out
/// never changes an answer, and it keeps a merge-only stream's empty
/// live engine (hash seed 9001) from clashing with merged images built
/// under another seed. If every image is empty the first one alone
/// answers.
pub(crate) fn fan_in(
    family: SketchFamily,
    want: Want,
    images: &[Bytes],
) -> Result<Answer, FanInError> {
    let mut set: Vec<&Bytes> = images.iter().filter(|i| !is_empty_image(i)).collect();
    if set.is_empty() {
        set.extend(images.first());
    }
    Ok(match (want, family) {
        (Want::Estimate, SketchFamily::Theta) => {
            Answer::Estimate(theta_multiway_union(&set)?.estimate())
        }
        (Want::Estimate, SketchFamily::Hll) => {
            Answer::Estimate(hll_multiway_merge(&set)?.estimate())
        }
        (Want::Estimate, _) => return Err(FanInError::Unsupported),
        (Want::Image, SketchFamily::Theta) => {
            Answer::Image(theta_multiway_union(&set)?.to_wire_bytes())
        }
        (Want::Image, SketchFamily::Hll) => {
            Answer::Image(hll_multiway_merge(&set)?.to_wire_bytes())
        }
        (Want::Image, SketchFamily::Quantiles) => {
            Answer::Image(ladder_multiway_concat::<u64, _>(&set)?.to_wire_bytes())
        }
        (Want::Image, SketchFamily::Frequency) => {
            Answer::Image(mg_multiway_merge::<u64, _>(&set)?.to_wire_bytes())
        }
    })
}

/// Whether `image` summarises zero items: Θ with θ = 1 and nothing
/// retained, HLL with every register 0, Quantiles/Misra–Gries with
/// n = 0. An image that fails to parse is not empty — the kernel
/// reports it.
fn is_empty_image(image: &[u8]) -> bool {
    let Ok((header, payload)) = WireHeader::parse(image) else {
        return false;
    };
    match header.family {
        SketchFamily::Theta => {
            ThetaWireView::parse(image).is_ok_and(|v| v.is_empty() && v.theta() == THETA_MAX)
        }
        SketchFamily::Hll => {
            HllWireView::parse(image).is_ok_and(|v| v.registers().iter().all(|&r| r == 0))
        }
        // n = 0 retains nothing, so only the fixed fields remain; the
        // length test spares every non-empty image a full parse.
        SketchFamily::Quantiles => {
            payload.len() == LADDER_FIXED_LEN
                && LadderWireView::<u64>::parse(image).is_ok_and(|v| v.n() == 0)
        }
        SketchFamily::Frequency => {
            payload.len() == MG_FIXED_LEN
                && MgWireView::<u64>::parse(image).is_ok_and(|v| v.n() == 0)
        }
    }
}

/// Payload bytes of an n = 0 Quantiles ladder: `n`, run count, pad.
const LADDER_FIXED_LEN: usize = 16;
/// Payload bytes of an n = 0 Misra–Gries image: `k`, `n`, error, count.
const MG_FIXED_LEN: usize = 32;
