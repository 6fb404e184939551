//! `fcds-load`: rate-controlled load generator and fault-injection
//! harness for `fcds-server`.
//!
//! The harness runs writer workers (batched ingest through the frame
//! protocol) and concurrent query workers (live-engine estimates)
//! against a server, recording latency histograms and a typed error
//! taxonomy. In fault mode the ingest path is routed through a
//! [`FaultProxy`] that can delay, truncate, bit-flip, or sever the
//! stream mid-frame, or disconnect outright — the fault classes a
//! long-lived TCP ingest tier actually meets — and the harness measures
//! how long the server takes to recover baseline throughput after each
//! fault clears.
//!
//! The binary emits `BENCH_serve.json` with the acceptance ratios and
//! thresholds `bench_gate` enforces (see `fcds_bench::gate`'s `SERVE_*`
//! constants).

use fcds_server::client::{Client, Reply};
use fcds_server::frame::NackCode;
use fcds_server::{serve, ServerConfig};
use fcds_sketches::hash::DEFAULT_SEED;
use fcds_sketches::theta::QuickSelectThetaSketch;
use fcds_sketches::wire::{LadderWireView, MgWireView, SketchFamily, WireEncode};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Histogram bucket layout: log2 major buckets × 16 linear minor
/// buckets, covering the full `u64` nanosecond range with ≤ 6.25%
/// relative resolution per bucket.
const HIST_MINORS: usize = 16;
const HIST_BUCKETS: usize = 64 * HIST_MINORS;

/// A latency histogram with logarithmic major buckets and 16 linear
/// minor buckets each — constant memory, no allocation on record, good
/// enough resolution for p50/p99 at any scale.
#[derive(Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0u64; HIST_BUCKETS],
            count: 0,
            max_ns: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < HIST_MINORS as u64 {
            return ns as usize;
        }
        let major = 63 - ns.leading_zeros() as usize;
        let minor = ((ns >> (major - 4)) & 0xF) as usize;
        major * HIST_MINORS + minor
    }

    /// Lower bound of the bucket at `idx` (the value reported for
    /// quantiles that land in it).
    fn bucket_floor(idx: usize) -> u64 {
        let major = idx / HIST_MINORS;
        let minor = (idx % HIST_MINORS) as u64;
        if major < 4 {
            // Sub-16ns values land in buckets [0, 16) directly.
            return (major * HIST_MINORS) as u64 + minor;
        }
        (1u64 << major) | (minor << (major - 4))
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        let ns = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// The value at quantile `q` ∈ [0, 1], in nanoseconds (0 when
    /// empty). Reported as the floor of the containing bucket.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_floor(idx);
            }
        }
        self.max_ns
    }

    /// Maximum recorded sample, ns.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }
}

/// Counts of every failure outcome the workers observed, keyed by the
/// protocol's own taxonomy. `other_nacks` catches codes added later
/// (the counter vector is sized for today's twelve, through
/// `UnknownStream` and `FamilyMismatch`).
#[derive(Debug, Default)]
pub struct ErrorTaxonomy {
    nack_counts: [AtomicU64; 12],
    other_nacks: AtomicU64,
    /// Transport-level failures (resets, EOF, timeouts) — typed at the
    /// I/O layer rather than the protocol layer.
    io_errors: AtomicU64,
    /// Reconnections the workers performed after a transport failure.
    reconnects: AtomicU64,
}

impl ErrorTaxonomy {
    fn nack_slot(code: NackCode) -> usize {
        (code as u16 as usize) - 1
    }

    /// Records a NACK.
    pub fn record_nack(&self, code: NackCode) {
        let slot = Self::nack_slot(code);
        match self.nack_counts.get(slot) {
            Some(c) => c.fetch_add(1, Ordering::Relaxed),
            None => self.other_nacks.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Records a transport-level failure.
    pub fn record_io_error(&self) {
        self.io_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a reconnect.
    pub fn record_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Count for one NACK code.
    pub fn nacks(&self, code: NackCode) -> u64 {
        self.nack_counts[Self::nack_slot(code)].load(Ordering::Relaxed)
    }

    /// Total typed failures (NACKs of any code + transport errors).
    pub fn total_typed(&self) -> u64 {
        let nacks: u64 = self
            .nack_counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum();
        nacks + self.other_nacks.load(Ordering::Relaxed) + self.io_errors.load(Ordering::Relaxed)
    }

    /// Transport-level failure count.
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// Reconnect count.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// `(name, count)` rows for every nonzero counter.
    pub fn rows(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for (i, c) in self.nack_counts.iter().enumerate() {
            let n = c.load(Ordering::Relaxed);
            if n > 0 {
                let code = NackCode::from_code((i + 1) as u16).expect("slot maps to code");
                out.push((format!("nack_{code:?}").to_lowercase(), n));
            }
        }
        let other = self.other_nacks.load(Ordering::Relaxed);
        if other > 0 {
            out.push(("nack_other".to_string(), other));
        }
        let io = self.io_errors();
        if io > 0 {
            out.push(("io_error".to_string(), io));
        }
        out
    }
}

/// The fault classes the proxy can inject on the client→server path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FaultMode {
    /// Pass-through.
    Off = 0,
    /// Hold each forwarded chunk for 100 ms (stalls frames mid-flight,
    /// driving the server's read deadline).
    Delay = 1,
    /// Drop the second half of each chunk (desynchronises the frame
    /// stream — the server sees garbage at the next boundary).
    Truncate = 2,
    /// Flip one bit per chunk (drives the payload checksum).
    Corrupt = 3,
    /// Forward half a chunk, then kill the connection (mid-frame
    /// disconnect).
    Sever = 4,
    /// Kill the connection before forwarding anything.
    Disconnect = 5,
}

impl FaultMode {
    /// All injectable (non-`Off`) modes, in the order the harness
    /// drills them.
    pub const ALL: [FaultMode; 5] = [
        FaultMode::Delay,
        FaultMode::Truncate,
        FaultMode::Corrupt,
        FaultMode::Sever,
        FaultMode::Disconnect,
    ];

    fn from_u8(v: u8) -> FaultMode {
        match v {
            1 => FaultMode::Delay,
            2 => FaultMode::Truncate,
            3 => FaultMode::Corrupt,
            4 => FaultMode::Sever,
            5 => FaultMode::Disconnect,
            _ => FaultMode::Off,
        }
    }

    /// Harness label for this mode.
    pub fn name(self) -> &'static str {
        match self {
            FaultMode::Off => "off",
            FaultMode::Delay => "delay",
            FaultMode::Truncate => "truncate",
            FaultMode::Corrupt => "corrupt",
            FaultMode::Sever => "sever",
            FaultMode::Disconnect => "disconnect",
        }
    }
}

/// A TCP proxy that forwards client connections to an upstream server
/// and injects the currently selected [`FaultMode`] into the
/// client→server byte stream. Server→client bytes always pass through
/// clean: the faults under test are ingest-path faults.
pub struct FaultProxy {
    addr: SocketAddr,
    mode: Arc<AtomicU8>,
    stop: Arc<AtomicBool>,
    accept_join: Option<std::thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Starts a proxy in front of `upstream`.
    ///
    /// # Errors
    ///
    /// Propagates listener bind errors.
    pub fn start(upstream: SocketAddr) -> std::io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let mode = Arc::new(AtomicU8::new(FaultMode::Off as u8));
        let stop = Arc::new(AtomicBool::new(false));
        let accept_join = {
            let mode = Arc::clone(&mode);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("fault-proxy".to_string())
                .spawn(move || proxy_accept_loop(listener, upstream, &mode, &stop))
                .expect("spawn proxy")
        };
        Ok(FaultProxy {
            addr,
            mode,
            stop,
            accept_join: Some(accept_join),
        })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Selects the fault injected into subsequent traffic.
    pub fn set_mode(&self, mode: FaultMode) {
        self.mode.store(mode as u8, Ordering::Release);
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(j) = self.accept_join.take() {
            let _ = j.join();
        }
    }
}

fn proxy_accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    mode: &Arc<AtomicU8>,
    stop: &Arc<AtomicBool>,
) {
    let mut pumps: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((client, _)) => {
                let Ok(server) = TcpStream::connect(upstream) else {
                    continue;
                };
                let (Ok(client2), Ok(server2)) = (client.try_clone(), server.try_clone()) else {
                    continue;
                };
                pumps.retain(|j| !j.is_finished());
                let mode_c2s = Arc::clone(mode);
                let stop_c2s = Arc::clone(stop);
                pumps.push(
                    std::thread::Builder::new()
                        .name("proxy-c2s".to_string())
                        .spawn(move || pump_with_faults(client, server, &mode_c2s, &stop_c2s))
                        .expect("spawn pump"),
                );
                let stop_s2c = Arc::clone(stop);
                pumps.push(
                    std::thread::Builder::new()
                        .name("proxy-s2c".to_string())
                        .spawn(move || pump_clean(server2, client2, &stop_s2c))
                        .expect("spawn pump"),
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    for j in pumps {
        let _ = j.join();
    }
}

/// Client→server pump, applying the current fault mode chunk by chunk.
fn pump_with_faults(mut from: TcpStream, mut to: TcpStream, mode: &AtomicU8, stop: &AtomicBool) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(25)));
    let mut buf = [0u8; 16 * 1024];
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        };
        match FaultMode::from_u8(mode.load(Ordering::Acquire)) {
            FaultMode::Off => {
                if to.write_all(&buf[..n]).is_err() {
                    return;
                }
            }
            FaultMode::Delay => {
                std::thread::sleep(Duration::from_millis(100));
                if to.write_all(&buf[..n]).is_err() {
                    return;
                }
            }
            FaultMode::Truncate => {
                // Drop the tail; later bytes arrive misaligned, so the
                // server sees a desynchronised stream.
                if to.write_all(&buf[..n.div_ceil(2)]).is_err() {
                    return;
                }
            }
            FaultMode::Corrupt => {
                let mut corrupted = buf[..n].to_vec();
                // Deterministically flip one bit past the header so the
                // checksum (not the magic) catches it.
                let idx = if n > 20 { 20 } else { n - 1 };
                corrupted[idx] ^= 0x10;
                if to.write_all(&corrupted).is_err() {
                    return;
                }
            }
            FaultMode::Sever => {
                let _ = to.write_all(&buf[..n.div_ceil(2)]);
                return; // drops both ends of this connection
            }
            FaultMode::Disconnect => {
                return;
            }
        }
    }
}

/// Server→client pump: always clean.
fn pump_clean(mut from: TcpStream, mut to: TcpStream, stop: &AtomicBool) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(25)));
    let mut buf = [0u8; 16 * 1024];
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        match from.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Ingest writer workers (each its own connection through the
    /// proxy).
    pub writers: usize,
    /// Concurrent query workers (connected directly to the server).
    pub queriers: usize,
    /// Items per ingest batch.
    pub batch_size: usize,
    /// Target aggregate ingest rate in items/s; 0 = unthrottled.
    pub rate_items_per_s: u64,
    /// Baseline measurement window.
    pub baseline: Duration,
    /// How long each fault stays injected.
    pub fault_hold: Duration,
    /// Maximum time to wait for post-fault recovery.
    pub recovery_timeout: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            writers: 2,
            queriers: 1,
            batch_size: 512,
            rate_items_per_s: 0,
            baseline: Duration::from_millis(1500),
            fault_hold: Duration::from_millis(300),
            recovery_timeout: Duration::from_secs(5),
        }
    }
}

/// Width of one throughput sample bucket.
pub const SAMPLE_BUCKET: Duration = Duration::from_millis(50);

/// Outcome of one fault-injection phase.
#[derive(Debug, Clone)]
pub struct FaultPhase {
    /// The injected fault class.
    pub mode: FaultMode,
    /// Time from clearing the fault to the first 50 ms bucket at ≥ 50%
    /// of baseline throughput (`None` = never recovered in time).
    pub recovery: Option<Duration>,
    /// Whether the server answered a clean request after the phase.
    pub survived: bool,
}

/// Everything one scenario run measured.
pub struct ScenarioReport {
    /// Baseline ingest throughput, items/s.
    pub ingest_items_per_s: f64,
    /// Baseline batch-ACK round-trip latency.
    pub ingest_latency: LatencyHistogram,
    /// Concurrent query latency (live-engine estimates during the
    /// baseline window).
    pub query_latency: LatencyHistogram,
    /// The error taxonomy across the whole run.
    pub taxonomy: ErrorTaxonomy,
    /// One entry per injected fault class.
    pub phases: Vec<FaultPhase>,
    /// Total items ACKed across the run.
    pub items_acked: u64,
    /// Requests that failed without any typed signal (must be 0; this
    /// is the silent-drop detector).
    pub untyped_failures: u64,
    /// Final live-engine estimate over distinct items acked.
    pub estimate_ratio: f64,
}

struct WriterShared {
    stop: AtomicBool,
    items_acked: AtomicU64,
    batches_acked: AtomicU64,
    untyped_failures: AtomicU64,
    taxonomy: ErrorTaxonomy,
    ingest_hist: Mutex<LatencyHistogram>,
    query_hist: Mutex<LatencyHistogram>,
}

fn writer_loop(
    shared: &WriterShared,
    proxy_addr: SocketAddr,
    writer_index: usize,
    cfg: &LoadConfig,
) {
    let mut next_item: u64 = (writer_index as u64) << 40;
    let mut client: Option<Client> = None;
    let per_writer_rate = if cfg.rate_items_per_s == 0 {
        0
    } else {
        (cfg.rate_items_per_s / cfg.writers as u64).max(1)
    };
    let mut window_start = Instant::now();
    let mut window_items = 0u64;
    while !shared.stop.load(Ordering::Acquire) {
        // Rate control: simple windowed pacing, good to a few percent.
        if per_writer_rate > 0 {
            let elapsed = window_start.elapsed().as_secs_f64();
            if elapsed >= 1.0 {
                window_start = Instant::now();
                window_items = 0;
            } else if window_items >= (per_writer_rate as f64 * elapsed.max(0.01)) as u64 {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
        }
        let c = match client.as_mut() {
            Some(c) => c,
            None => match Client::connect(proxy_addr, Duration::from_secs(2)) {
                Ok(c) => {
                    shared.taxonomy.record_reconnect();
                    client.insert(c)
                }
                Err(_) => {
                    shared.taxonomy.record_io_error();
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                }
            },
        };
        let batch: Vec<u64> = (next_item..next_item + cfg.batch_size as u64).collect();
        let sent = Instant::now();
        match c.ingest(&batch) {
            Ok(Reply::Ack { .. }) => {
                next_item += cfg.batch_size as u64;
                window_items += cfg.batch_size as u64;
                shared
                    .items_acked
                    .fetch_add(cfg.batch_size as u64, Ordering::Relaxed);
                shared.batches_acked.fetch_add(1, Ordering::Relaxed);
                shared
                    .ingest_hist
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .record(sent.elapsed());
            }
            Ok(Reply::Nack { code, .. }) => {
                // Typed rejection: the batch was shed, not lost
                // silently. Back off, then re-send the same range.
                shared.taxonomy.record_nack(code);
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(_) => {
                shared.untyped_failures.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                // Transport failure: typed at the I/O layer. The batch
                // outcome is unknown, so re-send the same range — Θ
                // dedups, which is exactly why the protocol can retry
                // without a dedup layer.
                shared.taxonomy.record_io_error();
                client = None;
            }
        }
    }
}

fn query_loop(shared: &WriterShared, server_addr: SocketAddr) {
    let mut client: Option<Client> = None;
    while !shared.stop.load(Ordering::Acquire) {
        let c = match client.as_mut() {
            Some(c) => c,
            None => match Client::connect(server_addr, Duration::from_secs(2)) {
                Ok(c) => client.insert(c),
                Err(_) => {
                    shared.taxonomy.record_io_error();
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                }
            },
        };
        let sent = Instant::now();
        match c.query_estimate(0) {
            Ok(Reply::Estimate { .. }) => {
                shared
                    .query_hist
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .record(sent.elapsed());
            }
            Ok(Reply::Nack { code, .. }) => shared.taxonomy.record_nack(code),
            Ok(_) => {
                shared.untyped_failures.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                shared.taxonomy.record_io_error();
                client = None;
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Runs the full scenario — baseline, then every fault class with
/// recovery measurement — against the server at `server_addr`, routing
/// ingest through a fresh [`FaultProxy`].
///
/// # Errors
///
/// Propagates proxy bind errors.
pub fn run_scenario(server_addr: SocketAddr, cfg: &LoadConfig) -> std::io::Result<ScenarioReport> {
    let proxy = FaultProxy::start(server_addr)?;
    let proxy_addr = proxy.local_addr();
    let shared = Arc::new(WriterShared {
        stop: AtomicBool::new(false),
        items_acked: AtomicU64::new(0),
        batches_acked: AtomicU64::new(0),
        untyped_failures: AtomicU64::new(0),
        taxonomy: ErrorTaxonomy::default(),
        ingest_hist: Mutex::new(LatencyHistogram::new()),
        query_hist: Mutex::new(LatencyHistogram::new()),
    });

    let mut joins = Vec::new();
    for w in 0..cfg.writers {
        let shared = Arc::clone(&shared);
        let cfg = cfg.clone();
        joins.push(
            std::thread::Builder::new()
                .name(format!("load-writer-{w}"))
                .spawn(move || writer_loop(&shared, proxy_addr, w, &cfg))
                .expect("spawn writer"),
        );
    }
    for q in 0..cfg.queriers {
        let shared = Arc::clone(&shared);
        joins.push(
            std::thread::Builder::new()
                .name(format!("load-query-{q}"))
                .spawn(move || query_loop(&shared, server_addr))
                .expect("spawn querier"),
        );
    }

    // Phase 1: baseline.
    let baseline_start_items = shared.items_acked.load(Ordering::Relaxed);
    let baseline_started = Instant::now();
    std::thread::sleep(cfg.baseline);
    let baseline_elapsed = baseline_started.elapsed();
    let baseline_items = shared.items_acked.load(Ordering::Relaxed) - baseline_start_items;
    let ingest_items_per_s = baseline_items as f64 / baseline_elapsed.as_secs_f64();
    let baseline_bucket_items = ingest_items_per_s * SAMPLE_BUCKET.as_secs_f64();

    // Phase 2: fault classes, one at a time, with recovery measurement.
    let mut phases = Vec::new();
    for mode in FaultMode::ALL {
        proxy.set_mode(mode);
        std::thread::sleep(cfg.fault_hold);
        proxy.set_mode(FaultMode::Off);
        let cleared = Instant::now();

        // Recovery: first 50 ms bucket back at ≥ 50% of baseline rate.
        let mut recovery = None;
        let mut last = shared.items_acked.load(Ordering::Relaxed);
        while cleared.elapsed() < cfg.recovery_timeout {
            std::thread::sleep(SAMPLE_BUCKET);
            let now = shared.items_acked.load(Ordering::Relaxed);
            if (now - last) as f64 >= baseline_bucket_items * 0.5 {
                recovery = Some(cleared.elapsed());
                break;
            }
            last = now;
        }

        // Survival probe: a clean request on a fresh direct connection.
        let survived = Client::connect(server_addr, Duration::from_secs(2))
            .and_then(|mut c| c.ping())
            .map(|r| matches!(r, Reply::Pong { .. }))
            .unwrap_or(false);
        phases.push(FaultPhase {
            mode,
            recovery,
            survived,
        });
    }

    shared.stop.store(true, Ordering::Release);
    for j in joins {
        let _ = j.join();
    }
    drop(proxy);

    // Final consistency probe: the live estimate should account for the
    // acked distinct items (writers re-send on unknown outcomes, and Θ
    // dedups, so the acked distinct set is a subset of what was sent).
    let items_acked = shared.items_acked.load(Ordering::Relaxed);
    let estimate = Client::connect(server_addr, Duration::from_secs(2))
        .and_then(|mut c| c.query_estimate(0))
        .ok()
        .and_then(|r| match r {
            Reply::Estimate { value, .. } => Some(value),
            _ => None,
        })
        .unwrap_or(0.0);
    let estimate_ratio = if items_acked == 0 {
        0.0
    } else {
        estimate / items_acked as f64
    };

    let shared = Arc::try_unwrap(shared).ok().expect("workers joined");
    Ok(ScenarioReport {
        ingest_items_per_s,
        ingest_latency: shared
            .ingest_hist
            .into_inner()
            .unwrap_or_else(|e| e.into_inner()),
        query_latency: shared
            .query_hist
            .into_inner()
            .unwrap_or_else(|e| e.into_inner()),
        taxonomy: shared.taxonomy,
        phases,
        items_acked,
        untyped_failures: shared.untyped_failures.load(Ordering::Relaxed),
        estimate_ratio,
    })
}

/// The four wire families, in the order multi-stream drills assign
/// them to streams (stream `i` gets `FAMILIES[i % 4]`).
pub const FAMILIES: [SketchFamily; 4] = [
    SketchFamily::Theta,
    SketchFamily::Hll,
    SketchFamily::Quantiles,
    SketchFamily::Frequency,
];

/// A Θ image under the default seed whose last two hashes are swapped
/// while the sorted flag stays set: a sound envelope with invalid items.
fn unsorted_theta_image() -> Vec<u8> {
    let mut sketch = QuickSelectThetaSketch::new(10, DEFAULT_SEED).expect("valid lg_k");
    for i in 0..1_000u64 {
        sketch.update(i);
    }
    let mut image = sketch.compact().to_wire_bytes().to_vec();
    let len = image.len();
    for b in 0..8 {
        image.swap(len - 16 + b, len - 8 + b);
    }
    image
}

/// The poison item the multi-stream drill plants (the in-process
/// server is started with `fault_panic_on` set to this value).
const POISON_ITEM: u64 = u64::MAX;

/// Multi-stream drill parameters.
#[derive(Debug, Clone)]
pub struct MultiStreamConfig {
    /// Named streams to host (round-robin across all four families;
    /// the acceptance floor is 8).
    pub streams: usize,
    /// Items per v2 ingest batch.
    pub batch_size: usize,
    /// Measurement window for the round-robin ingest/query load.
    pub window: Duration,
    /// Target aggregate ingest rate in items/s, split evenly across
    /// the per-stream writers; 0 = unthrottled. The default keeps 2×
    /// headroom over the gate floor while leaving the scheduler room
    /// for the concurrent query latency measurement (one writer thread
    /// per stream plus each stream's workers oversubscribe a small CI
    /// container when unthrottled).
    pub rate_items_per_s: u64,
}

impl Default for MultiStreamConfig {
    fn default() -> Self {
        MultiStreamConfig {
            streams: 8,
            batch_size: 512,
            window: Duration::from_millis(1500),
            rate_items_per_s: 2_000_000,
        }
    }
}

/// Everything the multi-stream drill measured.
pub struct MultiStreamReport {
    /// Streams hosted (excluding the server's default stream).
    pub streams: usize,
    /// Aggregate v2 ingest throughput across all streams, items/s.
    pub ingest_items_per_s: f64,
    /// v2 batch-ACK round-trip latency across all streams.
    pub ingest_latency: LatencyHistogram,
    /// v2 stream-addressed estimate-query latency (Θ/HLL streams).
    /// Image queries on the Quantiles/Frequency streams are exercised
    /// concurrently but not recorded here: they are bulk exports whose
    /// cost scales with stream size, not latency-path queries.
    pub query_latency: LatencyHistogram,
    /// The typed error taxonomy across the drill, including the
    /// provoked `UnknownStream` and `FamilyMismatch` NACKs and the
    /// poisoned stream's failures.
    pub taxonomy: ErrorTaxonomy,
    /// Items ACKed across all streams.
    pub items_acked: u64,
    /// Replies fitting no contract (must be 0).
    pub untyped_failures: u64,
    /// Fraction of healthy-stream requests ACKed *after* one stream was
    /// poisoned — the isolation metric; the gate requires 1.0.
    pub isolation: f64,
    /// Streams whose fanned-in count converged on their acked count
    /// (within the family's error envelope; excludes the poisoned
    /// stream).
    pub streams_converged: usize,
    /// Threads the in-process server leaked on drain (must be 0).
    pub leaked_threads: usize,
}

/// One stream's identity within a drill.
fn drill_key(prefix: &str, i: usize) -> Vec<u8> {
    format!("{prefix}-{i}").into_bytes()
}

/// The stream's observed count through its family's natural v2 query:
/// the estimate for Θ/HLL, the image's exact item count for Q/F.
/// `None` while the stream is unknown or the reply is a NACK.
fn stream_count(c: &mut Client, family: SketchFamily, key: &[u8]) -> std::io::Result<Option<f64>> {
    match family {
        SketchFamily::Theta | SketchFamily::Hll => {
            Ok(match c.query_stream_estimate(family, key)? {
                Reply::Estimate { value, .. } => Some(value),
                _ => None,
            })
        }
        SketchFamily::Quantiles => Ok(match c.query_stream_image(family, key)? {
            Reply::Image { bytes, .. } => LadderWireView::<u64>::parse(&bytes)
                .ok()
                .map(|v| v.n() as f64),
            _ => None,
        }),
        SketchFamily::Frequency => Ok(match c.query_stream_image(family, key)? {
            Reply::Image { bytes, .. } => {
                MgWireView::<u64>::parse(&bytes).ok().map(|v| v.n() as f64)
            }
            _ => None,
        }),
    }
}

fn stream_writer_loop(
    shared: &WriterShared,
    addr: SocketAddr,
    family: SketchFamily,
    key: &[u8],
    batch_size: usize,
    rate_items_per_s: u64,
    stream_acked: &AtomicU64,
) {
    let mut next_item: u64 = 0;
    let mut client: Option<Client> = None;
    let mut window_start = Instant::now();
    let mut window_items = 0u64;
    while !shared.stop.load(Ordering::Acquire) {
        // Same windowed pacing as the single-stream writer loop.
        if rate_items_per_s > 0 {
            let elapsed = window_start.elapsed().as_secs_f64();
            if elapsed >= 1.0 {
                window_start = Instant::now();
                window_items = 0;
            } else if window_items >= (rate_items_per_s as f64 * elapsed.max(0.01)) as u64 {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
        }
        let c = match client.as_mut() {
            Some(c) => c,
            None => match Client::connect(addr, Duration::from_secs(2)) {
                Ok(c) => {
                    shared.taxonomy.record_reconnect();
                    client.insert(c)
                }
                Err(_) => {
                    shared.taxonomy.record_io_error();
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                }
            },
        };
        let batch: Vec<u64> = (next_item..next_item + batch_size as u64).collect();
        let sent = Instant::now();
        match c.ingest_stream(family, key, &batch) {
            Ok(Reply::Ack { .. }) => {
                next_item += batch_size as u64;
                window_items += batch_size as u64;
                stream_acked.fetch_add(batch_size as u64, Ordering::Relaxed);
                shared
                    .items_acked
                    .fetch_add(batch_size as u64, Ordering::Relaxed);
                shared
                    .ingest_hist
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .record(sent.elapsed());
            }
            Ok(Reply::Nack { code, .. }) => {
                shared.taxonomy.record_nack(code);
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(_) => {
                shared.untyped_failures.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                shared.taxonomy.record_io_error();
                client = None;
            }
        }
    }
}

fn stream_query_loop(shared: &WriterShared, addr: SocketAddr, streams: usize, prefix: &str) {
    let mut client: Option<Client> = None;
    let mut i = 0usize;
    while !shared.stop.load(Ordering::Acquire) {
        let c = match client.as_mut() {
            Some(c) => c,
            None => match Client::connect(addr, Duration::from_secs(2)) {
                Ok(c) => client.insert(c),
                Err(_) => {
                    shared.taxonomy.record_io_error();
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                }
            },
        };
        let family = FAMILIES[i % 4];
        let key = drill_key(prefix, i);
        i = (i + 1) % streams;
        // Only the Θ/HLL estimate queries feed the gated latency
        // histogram — they are the latency-path operation the p99
        // threshold models. Image queries on the Quantiles/Frequency
        // streams are still issued every round to exercise their fan-in
        // path, but they are bulk exports whose size grows with the
        // stream (megabytes under this unthrottled load), not
        // fixed-cost queries.
        let measured = matches!(family, SketchFamily::Theta | SketchFamily::Hll);
        let sent = Instant::now();
        match stream_count(c, family, &key) {
            Ok(Some(_)) => {
                if measured {
                    shared
                        .query_hist
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .record(sent.elapsed());
                }
            }
            // NACKs (e.g. UnknownStream before the writer's first
            // batch) are typed and expected during warm-up; the writer
            // loop records its own. Skip the latency sample.
            Ok(None) => {}
            Err(_) => {
                shared.taxonomy.record_io_error();
                client = None;
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Runs the multi-stream drill: an in-process server hosts
/// `cfg.streams` named streams round-robined across all four families,
/// one writer connection per stream plus a round-robin querier, for
/// `cfg.window`. Afterwards the drill provokes the stream-addressed
/// NACKs (`UnknownStream`, `FamilyMismatch`), poisons the last
/// stream's single worker, and measures isolation: the fraction of
/// healthy-stream requests still ACKed while the poisoned stream is
/// dead.
///
/// # Errors
///
/// Propagates server-start and probe-connection I/O errors.
///
/// # Panics
///
/// Panics if a drill worker thread panics.
pub fn run_multistream(cfg: &MultiStreamConfig) -> std::io::Result<MultiStreamReport> {
    let streams = cfg.streams.max(1);
    let server = serve(ServerConfig {
        fault_panic_on: Some(POISON_ITEM),
        stream_workers: 1,
        max_streams: (streams + 8).max(64),
        ..ServerConfig::default()
    })?;
    let addr = server.local_addr();

    let shared = Arc::new(WriterShared {
        stop: AtomicBool::new(false),
        items_acked: AtomicU64::new(0),
        batches_acked: AtomicU64::new(0),
        untyped_failures: AtomicU64::new(0),
        taxonomy: ErrorTaxonomy::default(),
        ingest_hist: Mutex::new(LatencyHistogram::new()),
        query_hist: Mutex::new(LatencyHistogram::new()),
    });
    let per_stream_acked: Arc<Vec<AtomicU64>> =
        Arc::new((0..streams).map(|_| AtomicU64::new(0)).collect());

    let mut joins = Vec::new();
    for i in 0..streams {
        let shared = Arc::clone(&shared);
        let acked = Arc::clone(&per_stream_acked);
        let batch_size = cfg.batch_size;
        let per_writer_rate = if cfg.rate_items_per_s == 0 {
            0
        } else {
            (cfg.rate_items_per_s / streams as u64).max(1)
        };
        joins.push(
            std::thread::Builder::new()
                .name(format!("mstream-writer-{i}"))
                .spawn(move || {
                    stream_writer_loop(
                        &shared,
                        addr,
                        FAMILIES[i % 4],
                        &drill_key("load", i),
                        batch_size,
                        per_writer_rate,
                        &acked[i],
                    );
                })
                .expect("spawn stream writer"),
        );
    }
    {
        let shared = Arc::clone(&shared);
        joins.push(
            std::thread::Builder::new()
                .name("mstream-query".to_string())
                .spawn(move || stream_query_loop(&shared, addr, streams, "load"))
                .expect("spawn stream querier"),
        );
    }

    let started = Instant::now();
    std::thread::sleep(cfg.window);
    shared.stop.store(true, Ordering::Release);
    for j in joins {
        j.join().expect("drill worker panicked");
    }
    let elapsed = started.elapsed();
    let items_acked = shared.items_acked.load(Ordering::Relaxed);
    let ingest_items_per_s = items_acked as f64 / elapsed.as_secs_f64();

    let mut probe = Client::connect(addr, Duration::from_secs(2))?;

    // Provoke the stream-addressed NACKs so typed coverage includes the
    // new taxonomy rows. A query on an absent key must not create it;
    // re-declaring stream 0 (Θ) as HLL must be refused.
    match probe.query_stream_estimate(SketchFamily::Theta, b"load-missing")? {
        Reply::Nack { code, .. } if code == NackCode::UnknownStream => {
            shared.taxonomy.record_nack(code);
        }
        other => panic!("query of absent stream: {other:?}"),
    }
    match probe.ingest_stream(SketchFamily::Hll, &drill_key("load", 0), &[1])? {
        Reply::Nack { code, .. } if code == NackCode::FamilyMismatch => {
            shared.taxonomy.record_nack(code);
        }
        other => panic!("family re-declaration: {other:?}"),
    }
    // A Θ merge whose envelope is sound but whose hashes are out of
    // order must be refused, not stored: a stored one would make every
    // later query of stream 0 fail, which the convergence check below
    // would then catch.
    match probe.merge_stream(
        SketchFamily::Theta,
        &drill_key("load", 0),
        &unsorted_theta_image(),
    )? {
        Reply::Nack { code, .. } if code == NackCode::Wire => {
            shared.taxonomy.record_nack(code);
        }
        other => panic!("item-invalid merge: {other:?}"),
    }

    // Convergence: each stream's fanned-in count vs. its acked count.
    let mut streams_converged = 0;
    for i in 0..streams {
        let acked = per_stream_acked[i].load(Ordering::Relaxed) as f64;
        if acked == 0.0 {
            continue;
        }
        let mut ok = false;
        for _ in 0..100 {
            if let Some(got) = stream_count(&mut probe, FAMILIES[i % 4], &drill_key("load", i))? {
                if (got - acked).abs() / acked <= 0.1 {
                    ok = true;
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        if ok {
            streams_converged += 1;
        }
    }

    // Poison the last stream (single worker dies on the planted item),
    // wait for its ingest path to fail typed, then measure isolation:
    // every other stream must still ACK everything.
    let victim = streams - 1;
    let victim_key = drill_key("load", victim);
    let _ = probe.ingest_stream(FAMILIES[victim % 4], &victim_key, &[POISON_ITEM])?;
    let mut victim_dead = false;
    for _ in 0..200 {
        match probe.ingest_stream(FAMILIES[victim % 4], &victim_key, &[1, 2, 3])? {
            Reply::Nack { code, .. } => {
                shared.taxonomy.record_nack(code);
                victim_dead = true;
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let (mut healthy_attempts, mut healthy_acks) = (0u64, 0u64);
    if streams > 1 {
        for i in 0..victim {
            for _ in 0..10 {
                healthy_attempts += 1;
                match probe.ingest_stream(FAMILIES[i % 4], &drill_key("load", i), &[7])? {
                    Reply::Ack { .. } => healthy_acks += 1,
                    Reply::Nack { code, .. } => shared.taxonomy.record_nack(code),
                    _ => {
                        shared.untyped_failures.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }
    let isolation = if !victim_dead {
        // The poison never landed (e.g. zero-length window): isolation
        // was not exercised, report it as failed rather than vacuous.
        0.0
    } else if healthy_attempts == 0 {
        1.0
    } else {
        healthy_acks as f64 / healthy_attempts as f64
    };

    drop(probe);
    let drain = server.shutdown();
    let shared = Arc::try_unwrap(shared).ok().expect("workers joined");
    Ok(MultiStreamReport {
        streams,
        ingest_items_per_s,
        ingest_latency: shared
            .ingest_hist
            .into_inner()
            .unwrap_or_else(|e| e.into_inner()),
        query_latency: shared
            .query_hist
            .into_inner()
            .unwrap_or_else(|e| e.into_inner()),
        taxonomy: shared.taxonomy,
        items_acked,
        untyped_failures: shared.untyped_failures.load(Ordering::Relaxed),
        isolation,
        streams_converged,
        leaked_threads: drain.leaked_threads,
    })
}

/// Replica-sync drill parameters.
#[derive(Debug, Clone)]
pub struct SyncConfig {
    /// Streams to replicate (round-robin families; the gate floor
    /// is 4 — one per family).
    pub streams: usize,
    /// Distinct items ingested into each stream on the source server.
    pub items_per_stream: u64,
    /// The source server's replica push period.
    pub sync_period: Duration,
    /// How long to wait for the peer to converge before giving up.
    pub timeout: Duration,
}

impl Default for SyncConfig {
    fn default() -> Self {
        SyncConfig {
            streams: 4,
            items_per_stream: 20_000,
            sync_period: Duration::from_millis(100),
            timeout: Duration::from_secs(10),
        }
    }
}

/// Outcome of the two-server replica-sync drill.
pub struct SyncReport {
    /// Streams replicated.
    pub streams: usize,
    /// Streams whose peer-side count converged within tolerance.
    pub converged: usize,
    /// Worst peer-side relative error across converged streams (1.0
    /// for streams that never converged).
    pub worst_relative_error: f64,
    /// Time from the last source-side ACK until every stream had
    /// converged on the peer (`None` if any stream timed out).
    pub convergence: Option<Duration>,
    /// Replica pushes the source's background pusher delivered.
    pub pushes: u64,
    /// Leaked threads across both servers' drains (must be 0).
    pub leaked_threads: usize,
}

/// Runs the replica-sync drill: two in-process servers, A configured to
/// push every stream's wire image to B each `sync_period`. The drill
/// ingests `items_per_stream` distinct items into each of A's streams,
/// then polls B's stream-addressed queries until every stream's count
/// lands within the family's error envelope (8% for the probabilistic
/// Θ/HLL estimates, exact item counts for Quantiles/Frequency images).
///
/// # Errors
///
/// Propagates server-start and probe I/O errors.
///
/// # Panics
///
/// Panics if source-side ingest is NACKed (nothing contends in this
/// drill).
pub fn run_sync_drill(cfg: &SyncConfig) -> std::io::Result<SyncReport> {
    let streams = cfg.streams.max(1);
    let peer = serve(ServerConfig::default())?;
    let source = serve(ServerConfig {
        replica_peer: Some(peer.local_addr().to_string()),
        replica_interval: cfg.sync_period,
        replica_source_id: 1,
        ..ServerConfig::default()
    })?;

    let mut ca = Client::connect(source.local_addr(), Duration::from_secs(5))?;
    for i in 0..streams {
        let family = FAMILIES[i % 4];
        let key = drill_key("sync", i);
        let base = i as u64 * cfg.items_per_stream;
        let items: Vec<u64> = (base..base + cfg.items_per_stream).collect();
        for chunk in items.chunks(512) {
            match ca.ingest_stream(family, &key, chunk)? {
                Reply::Ack { .. } => {}
                other => panic!("sync drill source ingest: {other:?}"),
            }
        }
    }
    // Wait for the source's own workers to drain so the pushed images
    // carry the full stream before we start the convergence clock.
    for i in 0..streams {
        let expect = cfg.items_per_stream as f64;
        let deadline = Instant::now() + cfg.timeout;
        loop {
            if let Some(got) = stream_count(&mut ca, FAMILIES[i % 4], &drill_key("sync", i))? {
                if (got - expect).abs() / expect <= 0.08 {
                    break;
                }
            }
            assert!(
                Instant::now() < deadline,
                "source stream {i} never absorbed its items"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    let clock_start = Instant::now();
    let mut cb = Client::connect(peer.local_addr(), Duration::from_secs(5))?;
    let mut converged = 0usize;
    let mut worst_relerr = 0.0f64;
    let mut all_converged_at = None;
    for i in 0..streams {
        let family = FAMILIES[i % 4];
        let key = drill_key("sync", i);
        let expect = cfg.items_per_stream as f64;
        let deadline = clock_start + cfg.timeout;
        let mut stream_relerr = 1.0f64;
        while Instant::now() < deadline {
            // Queries on B return UnknownStream until A's first push
            // creates the stream (create-on-first-merge).
            if let Some(got) = stream_count(&mut cb, family, &key)? {
                let relerr = (got - expect).abs() / expect;
                stream_relerr = relerr;
                if relerr <= 0.08 {
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        if stream_relerr <= 0.08 {
            converged += 1;
            all_converged_at = Some(clock_start.elapsed());
        }
        worst_relerr = worst_relerr.max(stream_relerr);
    }

    let drain_source = source.shutdown();
    let drain_peer = peer.shutdown();
    Ok(SyncReport {
        streams,
        converged,
        worst_relative_error: worst_relerr,
        convergence: if converged == streams {
            all_converged_at
        } else {
            None
        },
        pushes: drain_source.stats.replica_pushes,
        leaked_threads: drain_source.leaked_threads + drain_peer.leaked_threads,
    })
}

/// Locates the `fcds-server` binary for the crash drill: the
/// `FCDS_SERVER_BIN` env var if set, else a sibling of the current
/// executable (covers `target/{profile}/` for the `fcds-load` binary
/// and `target/{profile}/deps/` for integration tests).
pub fn find_server_bin() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("FCDS_SERVER_BIN") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Some(p);
        }
    }
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?.to_path_buf();
    for _ in 0..2 {
        for name in ["fcds-server", "fcds-server.exe"] {
            let cand = dir.join(name);
            if cand.is_file() {
                return Some(cand);
            }
        }
        dir = dir.parent()?.to_path_buf();
    }
    None
}

/// Crash-drill parameters.
#[derive(Debug, Clone)]
pub struct CrashDrillConfig {
    /// Streams to host (round-robin families; the gate floor is 8 —
    /// two per family).
    pub streams: usize,
    /// Distinct items ingested (and verified durable) into each stream
    /// before the kill.
    pub items_per_stream: u64,
    /// The server's checkpoint period — the documented bounded-loss
    /// window.
    pub snapshot_interval: Duration,
    /// How long to keep ingesting small churn batches (the traffic
    /// inside the loss window) before the SIGKILL. Spanning several
    /// snapshot intervals makes the kill land mid-checkpoint.
    pub churn: Duration,
    /// Items per churn batch. Kept small relative to
    /// `items_per_stream` so the recovered count stays inside the
    /// documented relative-error window.
    pub churn_batch: usize,
    /// How long the restarted server gets to answer for every stream.
    pub recovery_timeout: Duration,
    /// Server binary override (`None` = [`find_server_bin`]).
    pub server_bin: Option<PathBuf>,
}

impl Default for CrashDrillConfig {
    fn default() -> Self {
        CrashDrillConfig {
            streams: 8,
            items_per_stream: 20_000,
            snapshot_interval: Duration::from_millis(150),
            churn: Duration::from_millis(450),
            churn_batch: 32,
            recovery_timeout: Duration::from_secs(10),
            server_bin: None,
        }
    }
}

/// Outcome of the kill-drill.
pub struct CrashDrillReport {
    /// Streams the drill ingested into before the kill.
    pub streams: usize,
    /// Streams answering their family's v2 query after the restart.
    pub recovered_streams: usize,
    /// Time from restarting the process until every stream answered
    /// (`None` if any stream timed out) — includes process startup and
    /// the boot-time snapshot scan.
    pub recovery: Option<Duration>,
    /// Worst per-stream relative error of the recovered count vs the
    /// pre-kill durable oracle (`items_per_stream`), across all
    /// streams. Churn ingested inside the loss window may legitimately
    /// surface, so the bound is churn fraction + the probabilistic
    /// families' estimate envelope.
    pub worst_relative_error: f64,
    /// Worst relative error per family (Θ, HLL, Quantiles, Frequency).
    pub family_relerr: [f64; 4],
    /// Whether the planted CRC-invalid record was served after restart
    /// (must be 0 — corrupt records are quarantined, never trusted).
    pub corrupt_accepted: usize,
    /// `.quarantine` files found in the data dir after restart (the
    /// drill plants two invalid records, so ≥ 2).
    pub quarantined: usize,
    /// Churn items ACKed inside the loss window (context for the
    /// relative-error bound).
    pub churn_items: u64,
    /// Typed errors met while driving the drill.
    pub taxonomy: ErrorTaxonomy,
}

/// Monotone suffix for drill data dirs, so drills in one process
/// (binary run + tests) never collide.
static CRASH_DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Spawns a real `fcds-server` process on a free port with the
/// durability tier pointed at `dir`, and parses the listening address
/// off its stdout (printed only after recovery completes, so the
/// returned address is immediately queryable).
fn spawn_server_process(
    bin: &Path,
    dir: &Path,
    snapshot_interval: Duration,
) -> std::io::Result<(Child, SocketAddr)> {
    use std::io::BufRead as _;
    let mut child = Command::new(bin)
        .arg("--addr=127.0.0.1:0")
        .arg(format!("--data-dir={}", dir.display()))
        .arg(format!("--snapshot-ms={}", snapshot_interval.as_millis()))
        .arg("--fsync=interval")
        // Safety net: a drill that dies without killing its child must
        // not leave an orphan server running forever.
        .arg("--secs=120")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut reader = std::io::BufReader::new(stdout);
    let mut addr = None;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break; // EOF: the child died before listening
        }
        if let Some(rest) = line.trim().strip_prefix("fcds-server listening on ") {
            addr = rest.parse::<SocketAddr>().ok();
            break;
        }
    }
    // Keep draining stdout so the child can never block on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    match addr {
        Some(a) => Ok((child, a)),
        None => {
            let _ = child.kill();
            let _ = child.wait();
            Err(std::io::Error::other(
                "fcds-server process exited before reporting its listening address",
            ))
        }
    }
}

fn connect_retry(addr: SocketAddr, deadline: Instant) -> std::io::Result<Client> {
    loop {
        match Client::connect(addr, Duration::from_secs(5)) {
            Ok(c) => return Ok(c),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Ingests one chunk, retrying typed back-pressure NACKs (recorded in
/// the taxonomy) until acked or the deadline passes.
fn ingest_acked(
    c: &mut Client,
    taxonomy: &ErrorTaxonomy,
    family: SketchFamily,
    key: &[u8],
    chunk: &[u64],
) -> std::io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match c.ingest_stream(family, key, chunk)? {
            Reply::Ack { .. } => return Ok(()),
            Reply::Nack { code, .. } => {
                taxonomy.record_nack(code);
                if Instant::now() >= deadline {
                    return Err(std::io::Error::other(format!(
                        "drill ingest NACKed past deadline: {code:?}"
                    )));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            other => {
                return Err(std::io::Error::other(format!(
                    "unexpected ingest reply: {other:?}"
                )))
            }
        }
    }
}

/// Runs the kill-drill against a **real server process**:
///
/// 1. spawn `fcds-server` with a data dir and a short
///    `snapshot_interval`;
/// 2. ingest `items_per_stream` distinct items into each of `streams`
///    streams (round-robin across all four families) and wait until
///    every stream's on-disk snapshot provably covers that base (the
///    records are decoded with the server's own
///    [`fcds_server::recover::decode_record`] and their sequence
///    checked);
/// 3. keep ingesting small churn batches across several checkpoint
///    intervals, then SIGKILL the process mid-flight;
/// 4. plant two invalid snapshot records in the data dir (pure garbage
///    and a structurally valid record whose CRC is wrong);
/// 5. restart the server on the same dir and measure: time until every
///    stream answers, per-family relative error vs the durable oracle,
///    whether the corrupt record was served (it must NACK
///    `UnknownStream`), and how many files were quarantined.
///
/// # Errors
///
/// Propagates process-spawn and probe I/O errors; fails with a typed
/// error when the `fcds-server` binary cannot be found (build it with
/// `cargo build -p fcds-server` or set `FCDS_SERVER_BIN`).
pub fn run_crash_drill(cfg: &CrashDrillConfig) -> std::io::Result<CrashDrillReport> {
    use fcds_server::persist::{encode_record, snapshot_file_name};
    use fcds_server::recover::decode_record;

    let bin = cfg
        .server_bin
        .clone()
        .or_else(find_server_bin)
        .ok_or_else(|| {
            std::io::Error::other(
                "fcds-server binary not found; run `cargo build -p fcds-server` \
                 or set FCDS_SERVER_BIN",
            )
        })?;
    let streams = cfg.streams.max(1);
    let dir = std::env::temp_dir().join(format!(
        "fcds-crash-{}-{}",
        std::process::id(),
        CRASH_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let taxonomy = ErrorTaxonomy::default();

    // Phase 1: base ingest into a fresh server.
    let (mut child, addr) = spawn_server_process(&bin, &dir, cfg.snapshot_interval)?;
    let drill = (|| -> std::io::Result<CrashDrillReport> {
        let mut c = connect_retry(addr, Instant::now() + Duration::from_secs(5))?;
        for i in 0..streams {
            let family = FAMILIES[i % 4];
            let key = drill_key("crash", i);
            let base = i as u64 * cfg.items_per_stream;
            let items: Vec<u64> = (base..base + cfg.items_per_stream).collect();
            for chunk in items.chunks(512) {
                ingest_acked(&mut c, &taxonomy, family, &key, chunk)?;
            }
        }
        // Wait until every stream absorbed its base (worker queues can
        // lag the ACKs), then until every on-disk snapshot covers it —
        // that makes `items_per_stream` a *durable* oracle the
        // post-crash assertions may rely on.
        let absorb_deadline = Instant::now() + Duration::from_secs(30);
        for i in 0..streams {
            let expect = cfg.items_per_stream as f64;
            loop {
                if let Some(got) = stream_count(&mut c, FAMILIES[i % 4], &drill_key("crash", i))? {
                    if (got - expect).abs() / expect <= 0.08 {
                        break;
                    }
                }
                if Instant::now() >= absorb_deadline {
                    return Err(std::io::Error::other(format!(
                        "stream {i} never absorbed its base ingest"
                    )));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        let durable_deadline = Instant::now() + Duration::from_secs(30);
        for i in 0..streams {
            let path = dir.join(snapshot_file_name(&drill_key("crash", i)));
            loop {
                // Reads race benignly with the checkpointer's atomic
                // rename: we see the old record or the new one, and a
                // stale read just means another poll.
                let covered = std::fs::read(&path)
                    .ok()
                    .and_then(|bytes| decode_record(&bytes).ok())
                    .is_some_and(|rec| rec.seq >= cfg.items_per_stream);
                if covered {
                    break;
                }
                if Instant::now() >= durable_deadline {
                    return Err(std::io::Error::other(format!(
                        "stream {i}'s snapshot never covered its base ingest"
                    )));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }

        // Phase 2: churn inside the loss window, then SIGKILL. The
        // churn spans several checkpoint intervals, so the kill lands
        // while snapshots are actively being rewritten.
        let mut churn_items = 0u64;
        let mut churn_next = (streams as u64) * cfg.items_per_stream;
        let churn_until = Instant::now() + cfg.churn;
        'churn: while Instant::now() < churn_until {
            for i in 0..streams {
                let family = FAMILIES[i % 4];
                let key = drill_key("crash", i);
                let batch: Vec<u64> = (churn_next..churn_next + cfg.churn_batch as u64).collect();
                churn_next += cfg.churn_batch as u64;
                ingest_acked(&mut c, &taxonomy, family, &key, &batch)?;
                churn_items += cfg.churn_batch as u64;
                if Instant::now() >= churn_until {
                    break 'churn;
                }
            }
            // Paced, not flat-out: the churn models a trickle inside
            // the loss window, and everything the last pre-kill
            // checkpoint captured legitimately surfaces in the
            // recovered counts — unthrottled loopback churn would dwarf
            // the oracle and turn the relative-error bound meaningless.
            std::thread::sleep(Duration::from_millis(10));
        }
        child.kill()?; // SIGKILL: no drain, no final checkpoint
        child.wait()?;

        // Phase 3: plant invalid records. (a) pure garbage under a
        // plausible name; (b) a structurally valid record for a key the
        // drill never ingested, with its CRC corrupted — accepting it
        // would materialise stream "crash-corrupt".
        std::fs::write(dir.join("s-00.snap"), b"definitely not a snapshot")?;
        let corrupt_key = b"crash-corrupt".to_vec();
        let donor = std::fs::read(dir.join(snapshot_file_name(&drill_key("crash", 0))))?;
        let donor_rec = decode_record(&donor)
            .map_err(|e| std::io::Error::other(format!("donor snapshot invalid: {e}")))?;
        let mut forged = encode_record(
            donor_rec.family,
            &corrupt_key,
            donor_rec.seq,
            &donor_rec.image,
        );
        forged[24] ^= 0xFF; // flip a CRC byte
        std::fs::write(dir.join(snapshot_file_name(&corrupt_key)), &forged)?;

        // Phase 4: restart on the same dir and measure recovery.
        let restart_started = Instant::now();
        let (child2, addr2) = spawn_server_process(&bin, &dir, cfg.snapshot_interval)?;
        let mut child2 = child2;
        let outcome = (|| -> std::io::Result<CrashDrillReport> {
            let recovery_deadline = restart_started + cfg.recovery_timeout;
            let mut probe = connect_retry(addr2, recovery_deadline)?;
            let mut recovered_streams = 0usize;
            let mut worst_relerr = 0.0f64;
            let mut family_relerr = [0.0f64; 4];
            for i in 0..streams {
                let family = FAMILIES[i % 4];
                let key = drill_key("crash", i);
                let expect = cfg.items_per_stream as f64;
                let mut answered = false;
                while Instant::now() < recovery_deadline {
                    if let Some(got) = stream_count(&mut probe, family, &key)? {
                        let relerr = (got - expect).abs() / expect;
                        worst_relerr = worst_relerr.max(relerr);
                        family_relerr[i % 4] = family_relerr[i % 4].max(relerr);
                        answered = true;
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                if answered {
                    recovered_streams += 1;
                } else {
                    worst_relerr = 1.0;
                    family_relerr[i % 4] = 1.0;
                }
            }
            let recovery = (recovered_streams == streams).then(|| restart_started.elapsed());

            // The forged record must have been quarantined, never
            // served: its stream may not exist.
            let corrupt_accepted =
                match probe.query_stream_estimate(SketchFamily::Theta, &corrupt_key)? {
                    Reply::Nack {
                        code: NackCode::UnknownStream,
                        ..
                    } => 0,
                    _ => 1,
                };
            let quarantined = std::fs::read_dir(&dir)?
                .filter_map(|e| e.ok())
                .filter(|e| {
                    e.file_name()
                        .to_string_lossy()
                        .ends_with(fcds_server::persist::QUARANTINE_SUFFIX)
                })
                .count();

            let _ = probe.request_shutdown();
            Ok(CrashDrillReport {
                streams,
                recovered_streams,
                recovery,
                worst_relative_error: worst_relerr,
                family_relerr,
                corrupt_accepted,
                quarantined,
                churn_items,
                taxonomy: ErrorTaxonomy::default(), // replaced by caller below
            })
        })();
        // Always reap the restarted process, drill outcome or not.
        let drain_deadline = Instant::now() + Duration::from_secs(15);
        loop {
            match child2.try_wait()? {
                Some(_) => break,
                None if Instant::now() >= drain_deadline => {
                    let _ = child2.kill();
                    let _ = child2.wait();
                    break;
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        outcome
    })();
    // Never leave the phase-1 process running on an early error.
    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
    drill.map(|mut report| {
        report.taxonomy = taxonomy;
        report
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_samples() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        let p50 = h.quantile_ns(0.50);
        let p99 = h.quantile_ns(0.99);
        // Bucket resolution is 1/16: accept ±10%.
        assert!(
            (450_000..=550_000).contains(&p50),
            "p50 {p50} should be near 500µs"
        );
        assert!(
            (900_000..=1_050_000).contains(&p99),
            "p99 {p99} should be near 990µs"
        );
        assert!(p50 <= p99);
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn histogram_handles_empty_and_extremes() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile_ns(0.5), 0);
        h.record(Duration::from_nanos(0));
        h.record(Duration::from_secs(3600));
        assert_eq!(h.count(), 2);
        assert!(h.quantile_ns(0.0) <= h.quantile_ns(1.0));
        assert!(h.max_ns() >= 3_600_000_000_000);
    }

    #[test]
    fn histogram_merge_sums_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(20));
        b.record(Duration::from_micros(30));
        a.merge(&b);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn taxonomy_counts_by_code() {
        let t = ErrorTaxonomy::default();
        t.record_nack(NackCode::Overload);
        t.record_nack(NackCode::Overload);
        t.record_nack(NackCode::Checksum);
        t.record_io_error();
        assert_eq!(t.nacks(NackCode::Overload), 2);
        assert_eq!(t.nacks(NackCode::Checksum), 1);
        assert_eq!(t.total_typed(), 4);
        let rows = t.rows();
        assert!(rows.iter().any(|(n, c)| n == "nack_overload" && *c == 2));
        assert!(rows.iter().any(|(n, c)| n == "io_error" && *c == 1));
    }

    #[test]
    fn taxonomy_covers_stream_nack_codes() {
        let t = ErrorTaxonomy::default();
        t.record_nack(NackCode::UnknownStream);
        t.record_nack(NackCode::FamilyMismatch);
        assert_eq!(t.nacks(NackCode::UnknownStream), 1);
        assert_eq!(t.nacks(NackCode::FamilyMismatch), 1);
        assert_eq!(t.other_nacks.load(Ordering::Relaxed), 0);
        let rows = t.rows();
        assert!(rows
            .iter()
            .any(|(n, c)| n == "nack_unknownstream" && *c == 1));
        assert!(rows
            .iter()
            .any(|(n, c)| n == "nack_familymismatch" && *c == 1));
    }

    #[test]
    fn fault_mode_roundtrip() {
        for m in FaultMode::ALL {
            assert_eq!(FaultMode::from_u8(m as u8), m);
            assert_ne!(m.name(), "off");
        }
        assert_eq!(FaultMode::from_u8(0), FaultMode::Off);
        assert_eq!(FaultMode::from_u8(99), FaultMode::Off);
    }
}
