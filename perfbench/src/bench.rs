//! One benchmark run of one workload: set up a server process several
//! times (timing each set-up), drive the timed window, drain, check the
//! answers against the oracle, and — when traced — build the ledger.

use crate::drive::{image_n, run_querier, run_writer, Conn, Cursor, QuerierOut, Shared, WriterOut};
use crate::gen::Generator;
use crate::ledger::{self, Entry};
use crate::oracle::{envelope, Oracle};
use crate::server::{seed_data_dir, DrainCounters, Launch, Server};
use crate::stats::{median, quantile_ns, value_quantile, Summary};
use fcds_load::LatencyHistogram;
use fcds_server::client::Reply;
use fcds_sketches::wire::SketchFamily;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Server launches per run; `setup_s` is their median.
pub const SETUP_TRIALS: usize = 9;

/// Run options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server_bin: PathBuf,
    /// Scratch directory for data dirs and the ledger's store.
    pub work_dir: PathBuf,
}

/// The end-to-end view of one window (or of the whole run).
#[derive(Debug, Clone, Default)]
pub struct E2e {
    pub setup_s: f64,
    pub setup_samples: Vec<f64>,
    pub ingest_mitems_s: f64,
    pub achieved_over_offered: f64,
    pub ack: Summary,
    pub query: Summary,
    pub freshness: Summary,
    /// How late the generator sent, writer and querier together.
    pub late: Summary,
    pub by_family: Vec<(&'static str, Summary)>,
    pub attempted: u64,
    pub failed: u64,
    /// Median of the server's `VmRSS`, sampled every 200 ms.
    pub rss_mib: f64,
    /// The server's peak resident set (`VmHWM`).
    pub peak_rss_mib: f64,
    /// Server CPU seconds per wall second over the timed window.
    pub server_cpu_util: f64,
    /// Server CPU time per acked item over the timed window (queries,
    /// merges and checkpoints included), ns.
    pub server_cpu_ns_per_item: f64,
    /// Share of the host's CPU time the hypervisor stole during the
    /// window (`/proc/stat`); high values mark a run taken while the
    /// host was contended.
    pub host_steal_frac: f64,
}

/// The end-to-end metrics `BENCHMARK.json` gates on; the others are
/// reported beside them. On the 2-vCPU VM this was tuned on, ten runs of
/// one workload spread (interquartile range over median) by 0.3–13 in
/// the open-loop latency percentiles, where idle-vCPU wake-up latency
/// follows the host's load, and by up to 0.53 in closed-loop capacity
/// and 0.30 in server CPU per item, which track the hypervisor's steal
/// time (0–30% between runs): all above the largest usable bound.
pub const GATED: [&str; 3] = ["setup_s", "ops_ok_frac", "server_rss_mib"];

impl E2e {
    /// `(name, value, unit)` of every end-to-end metric.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("setup_s", self.setup_s, "s"),
            ("ingest_mitems_s", self.ingest_mitems_s, "Mitems/s"),
            ("ingest_ack_ms_p50", self.ack.slice_p50, "ms"),
            ("ingest_ack_ms_p99", self.ack.slice_p99, "ms"),
            ("query_ms_p50", self.query.slice_p50, "ms"),
            ("query_ms_p99", self.query.slice_p99, "ms"),
            ("freshness_ms_p50", self.freshness.slice_p50, "ms"),
            ("freshness_ms_p99", self.freshness.slice_p99, "ms"),
            (
                "ops_ok_frac",
                1.0 - self.failed as f64 / self.attempted.max(1) as f64,
                "frac",
            ),
            ("server_cpu_util", self.server_cpu_util, "cpu-s/s"),
            ("server_cpu_ns_per_item", self.server_cpu_ns_per_item, "ns"),
            ("server_rss_mib", self.rss_mib, "MiB"),
        ]
    }
}

/// Everything one run produced.
pub struct Outcome {
    pub e2e: E2e,
    /// Traced runs: the untraced and traced halves of the window.
    pub halves: Option<(E2e, E2e)>,
    pub ledger: Vec<Entry>,
    pub checks: Vec<String>,
    pub correct: bool,
    pub drain: DrainCounters,
    pub taxonomy: Vec<(String, u64)>,
}

struct Window {
    w: WriterOut,
    q: QuerierOut,
    rss: Vec<f64>,
    /// Server CPU seconds used during the window.
    cpu_s: f64,
    steal_frac: f64,
    t0: Instant,
    end: Instant,
}

impl Window {
    fn e2e(&self, offered_rate: Option<f64>, batch: usize) -> E2e {
        let elapsed = self
            .w
            .last_ack
            .map_or(self.end - self.t0, |l| l - self.t0)
            .as_secs_f64();
        let achieved = match offered_rate {
            Some(_) => self.w.items_acked as f64 / self.w.items_due.max(1) as f64,
            None => {
                let ok = self.w.batches_sent - self.w.failed.min(self.w.batches_sent);
                ok as f64 / self.w.batches_sent.max(1) as f64
            }
        };
        // Closed loop: the median over 1 s slices of acked items, so a
        // host stall in part of the window moves one slice, not the
        // capacity. Open loop: acked over elapsed, which equals the
        // offered rate unless a backlog grows.
        let ingest_mitems_s = match offered_rate {
            Some(_) => self.w.items_acked as f64 / elapsed / 1e6,
            None => self.w.ack.median_rate() * batch as f64 / 1e6,
        };
        E2e {
            ingest_mitems_s,
            host_steal_frac: self.steal_frac,
            server_cpu_util: self.cpu_s / (self.end - self.t0).as_secs_f64(),
            server_cpu_ns_per_item: self.cpu_s * 1e9 / self.w.items_acked.max(1) as f64,
            achieved_over_offered: achieved,
            ack: Summary::of_windowed(&self.w.ack),
            query: Summary::of_windowed(&self.q.query),
            freshness: Summary::of_windowed(&self.q.freshness),
            late: {
                let mut late = self.w.late.clone();
                late.merge(&self.q.late);
                Summary::of_ms(&late)
            },
            by_family: self
                .q
                .by_family
                .iter()
                .enumerate()
                .filter(|(_, h)| h.count() > 0)
                .map(|(i, h)| {
                    let f = SketchFamily::from_code(i as u8 + 1).expect("family code");
                    (f.name(), Summary::of_ms(h))
                })
                .collect(),
            attempted: self.w.batches_sent + self.w.merges_sent + self.q.sent,
            failed: self.w.failed + self.q.failed,
            ..E2e::default()
        }
    }
}

/// A launched server with the generator's two connections and its
/// position in the workload's sequences.
struct Live<'a> {
    server: Server,
    sh: &'a Shared,
    oracle: Oracle,
    cur: Cursor,
    wconn: Conn,
    qconn: Conn,
}

impl Live<'_> {
    /// Drives writer and querier for `secs`; this thread samples the
    /// server's resident set meanwhile.
    fn window(&mut self, secs: f64, trace: bool) -> Window {
        let t0 = Instant::now() + Duration::from_millis(5);
        let end = t0 + Duration::from_secs_f64(secs);
        let (mut wc, mut qc) = (self.cur, self.cur);
        let mut rss = Vec::new();
        let cpu0 = self.server.cpu_seconds();
        let steal0 = steal_ticks();
        let Live {
            server,
            sh,
            oracle,
            wconn,
            qconn,
            ..
        } = self;
        let (w, q) = std::thread::scope(|sc| {
            let wh = sc.spawn(|| run_writer(sh, wconn, oracle, &mut wc, t0, end, trace));
            let qh = sc.spawn(|| run_querier(sh, qconn, &mut qc, t0, end));
            while !(wh.is_finished() && qh.is_finished()) {
                std::thread::sleep(Duration::from_millis(200));
                rss.extend(server.rss_mib());
            }
            (
                wh.join().expect("writer thread"),
                qh.join().expect("querier thread"),
            )
        });
        self.cur = Cursor {
            batch: wc.batch,
            push: wc.push,
            query: qc.query,
        };
        let cpu_s = cpu0
            .zip(self.server.cpu_seconds())
            .map_or(0.0, |(a, b)| b - a);
        let steal_frac = steal0
            .zip(steal_ticks())
            .map_or(0.0, |((s0, t0), (s1, t1))| {
                (s1 - s0) as f64 / (t1 - t0).max(1) as f64
            });
        Window {
            w,
            q,
            rss,
            cpu_s,
            steal_frac,
            t0,
            end,
        }
    }
}

/// `(steal, total)` CPU ticks of the whole host so far, from the
/// aggregate `cpu` line of `/proc/stat`.
fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    // (guest time is already inside user and nice).
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Merges, returning how many were not acked.
fn push_images(
    conn: &mut Conn,
    sh: &Shared,
    images: &[Vec<Vec<u8>>],
    replace: bool,
) -> std::io::Result<u64> {
    let mut failed = 0;
    for (s, imgs) in images.iter().enumerate() {
        let st = &sh.gen.spec.streams[s];
        for (r, img) in imgs.iter().enumerate() {
            let source = replace.then_some(r as u64 + 1);
            if !matches!(
                conn.merge(st.family, st.key.as_bytes(), source, img)?,
                Reply::Ack { .. }
            ) {
                failed += 1;
            }
        }
    }
    Ok(failed)
}

/// Polls `stream` until its answer matches the oracle or `patience`
/// runs out; returns a failure description, if any.
fn check_stream(
    conn: &mut Conn,
    sh: &Shared,
    oracle: &Oracle,
    s: usize,
    patience: Duration,
) -> std::io::Result<Option<String>> {
    let st = &sh.gen.spec.streams[s];
    let acked = sh.acked[s].load(std::sync::atomic::Ordering::SeqCst);
    let deadline = Instant::now() + patience;
    loop {
        let verdict = match st.family {
            SketchFamily::Theta | SketchFamily::Hll => {
                let exact = oracle.distinct(s, acked) as f64;
                match conn.query(st.family, st.key.as_bytes(), 0)? {
                    Reply::Estimate { value, .. } => {
                        let err = (value - exact).abs() / exact.max(1.0);
                        (err > envelope(st.family)).then(|| {
                            format!(
                                "{}: estimate {value:.0} vs exact {exact} (rel err {err:.4})",
                                st.key
                            )
                        })
                    }
                    other => Some(format!("{}: estimate query answered {other:?}", st.key)),
                }
            }
            SketchFamily::Quantiles | SketchFamily::Frequency => {
                let want = sh.fixed_n[s] + acked;
                match conn.query(st.family, st.key.as_bytes(), 1)? {
                    Reply::Image { bytes, .. } => match image_n(st.family, &bytes) {
                        Some(n) if n != want => {
                            Some(format!("{}: n = {n}, acked + fixed = {want}", st.key))
                        }
                        Some(_) if st.family == SketchFamily::Frequency => {
                            match oracle.missing_heavy_hitters(&sh.gen, s, &bytes) {
                                Some(0) => None,
                                Some(m) => Some(format!(
                                    "{}: {m} heavy hitters above n/(k+1) missing",
                                    st.key
                                )),
                                None => Some(format!("{}: unparseable Misra–Gries image", st.key)),
                            }
                        }
                        Some(_) => None,
                        None => Some(format!("{}: unparseable image", st.key)),
                    },
                    other => Some(format!("{}: image query answered {other:?}", st.key)),
                }
            }
        };
        match verdict {
            None => return Ok(None),
            Some(v) if Instant::now() >= deadline => return Ok(Some(v)),
            Some(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Runs one workload once.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let spec = crate::workload::spec(&opts.workload)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    let io = |what: &'static str| move |e: std::io::Error| format!("{what}: {e}");
    let gen = Generator::new(spec, opts.seed);
    let spec = gen.spec.clone();
    let preload = gen.preload_images();
    let replicas = gen.replica_images();
    let records = gen.snapshot_records();
    let fixed_n = vec![
        ((spec.preload + spec.replicas + usize::from(spec.snapshots)) * spec.image_items)
            as u64;
        spec.streams.len()
    ];
    let sh = Shared::new(gen.clone(), fixed_n, replicas.clone());
    let oracle = Oracle::new(&gen);
    std::fs::create_dir_all(&opts.work_dir).map_err(io("work dir"))?;

    // Set-up, several times: launch (boot recovery included), connect,
    // preload merges and the first replica push.
    let mut setup_samples = Vec::new();
    let mut setup_ops = 0u64;
    let mut setup_failed = 0u64;
    let mut checks = Vec::new();
    let mut live = None;
    for trial in 0..SETUP_TRIALS {
        let data_dir = spec
            .snapshots
            .then(|| opts.work_dir.join(format!("data-{trial}")));
        if let Some(d) = &data_dir {
            seed_data_dir(d, &records).map_err(io("seed data dir"))?;
        }
        let launch = Launch {
            bin: opts.server_bin.clone(),
            data_dir,
            max_secs: opts.seconds as u64 + 90,
        };
        let t = Instant::now();
        let server = Server::launch(&launch).map_err(io("launch fcds-server"))?;
        let mut wconn = Conn::connect(server.addr).map_err(io("connect writer"))?;
        let qconn = Conn::connect(server.addr).map_err(io("connect querier"))?;
        // Streams are created on first ingest or merge; an empty batch
        // creates one, so no query ever meets an unknown stream.
        for st in &spec.streams {
            let created = wconn
                .ingest(st.family, st.key.as_bytes(), &[], false)
                .map_err(io("create stream"))?;
            setup_failed += u64::from(!matches!(created.0, Reply::Ack { .. }));
        }
        setup_failed += push_images(&mut wconn, &sh, &preload, false).map_err(io("preload"))?;
        setup_failed +=
            push_images(&mut wconn, &sh, &replicas, true).map_err(io("replica push"))?;
        setup_samples.push(t.elapsed().as_secs_f64());
        setup_ops += (spec.streams.len() * (1 + spec.preload + spec.replicas)) as u64;
        if spec.snapshots {
            setup_ops += 1;
            if server.recovered != Some(spec.streams.len()) {
                setup_failed += 1;
                checks.push(format!(
                    "boot recovery: {:?} of {} streams recovered",
                    server.recovered,
                    spec.streams.len()
                ));
            }
        }
        if trial + 1 < SETUP_TRIALS {
            drop((wconn, qconn));
            server.shutdown().map_err(io("set-up trial shutdown"))?;
        } else {
            live = Some((server, wconn, qconn));
        }
    }
    let (server, wconn, qconn) = live.expect("at least one set-up trial");
    let mut live = Live {
        server,
        sh: &sh,
        oracle,
        cur: Cursor::default(),
        wconn,
        qconn,
    };

    // Warm-up: the same traffic, untimed, so allocator pools, socket
    // buffers and sketch structures settle before the window opens.
    // Its operations still count as attempted (and failed, if so).
    let warm_ops = live
        .window(spec.warmup_s, false)
        .e2e(spec.ingest_rate, spec.batch);
    // The timed window. A traced run splits it into an untraced and a
    // traced half on the same server; their difference is the tracing
    // overhead.
    let windows: Vec<Window> = if opts.trace {
        let half = opts.seconds / 2.0;
        vec![live.window(half, false), live.window(half, true)]
    } else {
        vec![live.window(opts.seconds, false)]
    };
    let Live {
        server,
        oracle,
        mut wconn,
        mut qconn,
        ..
    } = live;

    let mut ping = LatencyHistogram::new();
    if opts.trace {
        for _ in 0..2000 {
            let t = Instant::now();
            if matches!(wconn.ping(), Ok(Reply::Pong { .. })) {
                ping.record(t.elapsed());
            }
        }
    }

    // Drain and check every stream against the oracle.
    let mut check_failed = 0u64;
    for s in 0..spec.streams.len() {
        if let Some(f) = check_stream(&mut qconn, &sh, &oracle, s, Duration::from_secs(10))
            .map_err(io("check"))?
        {
            check_failed += 1;
            checks.push(f);
        }
    }
    let peak_rss_mib = server.peak_rss_mib().unwrap_or(0.0);
    drop((wconn, qconn));
    let drain = server.shutdown().map_err(io("shutdown"))?;

    // End-to-end metrics over every window.
    let mut all = Window {
        w: WriterOut::default(),
        q: QuerierOut::default(),
        rss: Vec::new(),
        cpu_s: 0.0,
        steal_frac: windows.iter().map(|w| w.steal_frac).sum::<f64>() / windows.len() as f64,
        t0: windows[0].t0,
        end: windows[windows.len() - 1].end,
    };
    for w in &windows {
        merge_window(&mut all, w);
    }
    let mut e2e = all.e2e(spec.ingest_rate, spec.batch);
    if opts.trace {
        // Rates over the whole run, not over two windows and a gap.
        let secs: f64 = windows
            .iter()
            .map(|w| {
                w.w.last_ack
                    .map_or(w.end - w.t0, |l| l - w.t0)
                    .as_secs_f64()
            })
            .sum();
        if spec.ingest_rate.is_some() {
            e2e.ingest_mitems_s = all.w.items_acked as f64 / secs / 1e6;
        }
        let window_secs: f64 = windows.iter().map(|w| (w.end - w.t0).as_secs_f64()).sum();
        e2e.server_cpu_util = all.cpu_s / window_secs;
    }
    e2e.setup_s = median(&setup_samples);
    e2e.setup_samples = setup_samples;
    e2e.attempted += setup_ops + warm_ops.attempted + spec.streams.len() as u64;
    e2e.failed += setup_failed + warm_ops.failed + check_failed;
    let rss_mib = median(&all.rss);
    e2e.rss_mib = rss_mib;
    e2e.peak_rss_mib = peak_rss_mib;
    let halves = opts.trace.then(|| {
        let mut a = windows[0].e2e(spec.ingest_rate, spec.batch);
        let mut b = windows[1].e2e(spec.ingest_rate, spec.batch);
        for h in [&mut a, &mut b] {
            h.setup_s = e2e.setup_s;
            h.rss_mib = rss_mib;
            h.peak_rss_mib = peak_rss_mib;
        }
        (a, b)
    });

    let mut ledger = Vec::new();
    if opts.trace {
        let traced = &windows[1];
        ledger = served_entries(&spec, traced, &all, &ping, &drain);
        let inputs = ledger::Inputs {
            gen: &gen,
            preload: &preload,
            replicas: &replicas,
            records: &records,
        };
        let layers = ledger::replay(&inputs, &opts.work_dir);
        let validate = layers
            .iter()
            .find(|e| e.name == "frame.validate_ns_per_item")
            .map_or(0.0, |e| e.value);
        let encode_per_item = ledger
            .iter()
            .find(|e| e.name == "client.encode_ns_per_item")
            .map_or(0.0, |e| e.value);
        let ack_per_item = quantile_ns(&traced.w.ack.all, 0.5).unwrap_or(0.0) / spec.batch as f64;
        ledger.push(Entry {
            name: "served.unattributed_ns_per_item".into(),
            value: ack_per_item - encode_per_item - validate,
            unit: "ns",
            moves: "ingest_mitems_s on theta_ingest",
        });
        ledger.extend(layers);
        let (written, errors) = if spec.snapshots {
            durable_replay(opts, &gen, &records)?
        } else {
            (0, 0)
        };
        ledger.push(Entry {
            name: "server.snapshots_written".into(),
            value: written as f64,
            unit: "count",
            moves: "ingest_ack_ms_p99 on durable_mix",
        });
        ledger.push(Entry {
            name: "server.snapshot_errors".into(),
            value: errors as f64,
            unit: "count",
            moves: "ops_ok_frac on durable_mix",
        });
    }
    let _ = std::fs::remove_dir_all(&opts.work_dir);

    Ok(Outcome {
        correct: e2e.failed == 0,
        e2e,
        halves,
        ledger,
        checks,
        drain,
        taxonomy: sh.taxonomy.rows(),
    })
}

fn merge_window(all: &mut Window, w: &Window) {
    all.rss.extend_from_slice(&w.rss);
    all.cpu_s += w.cpu_s;
    all.w.ack.absorb(&w.w.ack);
    all.w.late.merge(&w.w.late);
    all.w.encode.merge(&w.w.encode);
    all.w.await_reply.merge(&w.w.await_reply);
    all.w.batches_sent += w.w.batches_sent;
    all.w.items_acked += w.w.items_acked;
    all.w.merges_sent += w.w.merges_sent;
    all.w.failed += w.w.failed;
    all.w.items_due += w.w.items_due;
    all.w.last_ack = w.w.last_ack.or(all.w.last_ack);
    all.q.query.absorb(&w.q.query);
    all.q.late.merge(&w.q.late);
    all.q.freshness.absorb(&w.q.freshness);
    for (a, b) in all.q.by_family.iter_mut().zip(&w.q.by_family) {
        a.merge(b);
    }
    all.q.stale.extend_from_slice(&w.q.stale);
    all.q.sent += w.q.sent;
    all.q.failed += w.q.failed;
}

/// Ledger entries measured on the served run itself: client spans of
/// the traced half, staleness, the server's drain counters and the
/// generator's own timeliness.
fn served_entries(
    spec: &crate::workload::Spec,
    traced: &Window,
    all: &Window,
    ping: &LatencyHistogram,
    drain: &DrainCounters,
) -> Vec<Entry> {
    let us = |h: &LatencyHistogram, q: f64| quantile_ns(h, q).unwrap_or(0.0) / 1e3;
    let e = |name: &str, value: f64, unit: &'static str, moves: &'static str| Entry {
        name: name.into(),
        value,
        unit,
        moves,
    };
    let mut stale = all.q.stale.clone();
    stale.sort_by(f64::total_cmp);
    // Ingest frames the server dispatched: accepted plus shed batches.
    let ingest_frames = (drain.batches + drain.sheds).max(1) as f64;
    let mut late = all.w.late.clone();
    late.merge(&all.q.late);
    let achieved = all.e2e(spec.ingest_rate, spec.batch).achieved_over_offered;
    vec![
        e(
            "client.ping_us_p50",
            us(ping, 0.5),
            "us",
            "ingest_ack_ms_p50 on durable_mix",
        ),
        e(
            "client.encode_us_p50",
            us(&traced.w.encode, 0.5),
            "us",
            "ingest_ack_ms_p50 on durable_mix",
        ),
        e(
            "client.encode_ns_per_item",
            us(&traced.w.encode, 0.5) * 1e3 / spec.batch as f64,
            "ns",
            "ingest_ack_ms_p50 on theta_ingest",
        ),
        e(
            "client.await_reply_us_p50",
            us(&traced.w.await_reply, 0.5),
            "us",
            "ingest_ack_ms_p50 on durable_mix",
        ),
        e(
            "client.await_reply_us_p99",
            us(&traced.w.await_reply, 0.99),
            "us",
            "ingest_ack_ms_p99 on durable_mix",
        ),
        e(
            "served.stale_items_p99",
            value_quantile(&stale, 0.99),
            "items",
            "freshness_ms_p99 on durable_mix",
        ),
        e(
            "server.shed_frac",
            drain.sheds as f64 / ingest_frames,
            "frac",
            "ops_ok_frac, ingest_mitems_s on theta_ingest",
        ),
        e(
            "server.nack_frac",
            drain.nacks as f64 / ingest_frames,
            "frac",
            "ops_ok_frac",
        ),
        e(
            "loadgen.late_ms_p99",
            us(&late, 0.99) / 1e3,
            "ms",
            "validates the run",
        ),
        e(
            "loadgen.achieved_over_offered",
            achieved,
            "frac",
            "validates the run",
        ),
    ]
}

/// Replays the durable workload for one second against an in-process
/// `fcds_server::serve` on a freshly seeded data dir, and returns the
/// drain report's snapshot counters (the binary does not print them).
fn durable_replay(
    opts: &Opts,
    gen: &Generator,
    records: &[(String, Vec<u8>)],
) -> Result<(u64, u64), String> {
    use fcds_server::{serve, FsyncPolicy, ServerConfig};
    let dir = opts.work_dir.join("data-replay");
    seed_data_dir(&dir, records).map_err(|e| format!("seed replay dir: {e}"))?;
    let handle = serve(ServerConfig {
        data_dir: Some(dir.display().to_string()),
        snapshot_interval: Duration::from_millis(100),
        fsync_policy: FsyncPolicy::Interval,
        queue_depth: crate::server::QUEUE_DEPTH,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("in-process server: {e}"))?;
    let sh = Shared::new(gen.clone(), vec![0; gen.spec.streams.len()], Vec::new());
    let mut oracle = Oracle::new(gen);
    let mut conn = Conn::connect(handle.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let t0 = Instant::now();
    let mut cur = Cursor::default();
    run_writer(
        &sh,
        &mut conn,
        &mut oracle,
        &mut cur,
        t0,
        t0 + Duration::from_secs(1),
        false,
    );
    drop(conn);
    let report = handle.shutdown();
    Ok((report.stats.snapshots_written, report.stats.snapshot_errors))
}
