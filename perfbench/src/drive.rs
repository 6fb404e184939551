//! The load generator: one writer connection and one querier
//! connection, each driven by its own thread.
//!
//! Open-loop requests are timed from the moment they were *due*, not
//! from when they were sent, so a stall inflates the latency of every
//! request queued behind it (no coordinated omission); how late the
//! generator itself ran is reported separately. A closed-loop writer's
//! request is due when the previous ack arrives.

use crate::gen::Generator;
use crate::oracle::Oracle;
use crate::stats::Windowed;
use fcds_load::{ErrorTaxonomy, LatencyHistogram};
use fcds_server::client::{Client, Reply};
use fcds_server::frame::{
    encode_frame_flags, encode_stream_prefix, FrameType, FLAG_REPLACE, FLAG_STREAM,
};
use fcds_sketches::wire::{LadderWireView, MgWireView, SketchFamily};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client-side spans of one request.
#[derive(Debug, Clone, Copy)]
pub struct Spans {
    /// `encode_stream_prefix` + `encode_frame_flags` (items to bytes
    /// included, as `Client::ingest_stream` does it).
    pub encode: Duration,
    /// `send_raw` + `read_reply`: the frame leaving until its reply is
    /// decoded.
    pub await_reply: Duration,
}

/// One frame-protocol connection, sending through the library's own
/// encoders and `Client::send_raw` / `Client::read_reply`, so each
/// step can be timed on its own.
pub struct Conn {
    client: Client,
    seq: u16,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        Ok(Conn {
            client: Client::connect(addr, Duration::from_secs(10))?,
            seq: 1,
        })
    }

    /// Sends one v2 frame whose body `body` writes, and reads its
    /// reply. Spans are taken only when `trace` is set.
    pub fn exchange(
        &mut self,
        ftype: FrameType,
        family: SketchFamily,
        key: &[u8],
        source: Option<u64>,
        body: impl FnOnce() -> Vec<u8>,
        trace: bool,
    ) -> io::Result<(Reply, Option<Spans>)> {
        let t0 = trace.then(Instant::now);
        let flags = if source.is_some() {
            FLAG_STREAM | FLAG_REPLACE
        } else {
            FLAG_STREAM
        };
        let payload = encode_stream_prefix(family, key, source, &body());
        let seq = self.seq;
        self.seq = self.seq.wrapping_add(1);
        let frame = encode_frame_flags(ftype, flags, seq, &payload);
        let t1 = trace.then(Instant::now);
        self.client.send_raw(&frame)?;
        let reply = self.client.read_reply()?;
        let spans = t0.zip(t1).map(|(t0, t1)| Spans {
            encode: t1 - t0,
            await_reply: t1.elapsed(),
        });
        if reply.seq() != seq {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply seq {} for request {seq}", reply.seq()),
            ));
        }
        Ok((reply, spans))
    }

    pub fn ingest(
        &mut self,
        family: SketchFamily,
        key: &[u8],
        items: &[u64],
        trace: bool,
    ) -> io::Result<(Reply, Option<Spans>)> {
        let body = || items.iter().flat_map(|x| x.to_le_bytes()).collect();
        self.exchange(FrameType::Ingest, family, key, None, body, trace)
    }

    pub fn merge(
        &mut self,
        family: SketchFamily,
        key: &[u8],
        source: Option<u64>,
        image: &[u8],
    ) -> io::Result<Reply> {
        let body = || image.to_vec();
        Ok(self
            .exchange(FrameType::Merge, family, key, source, body, false)?
            .0)
    }

    pub fn query(&mut self, family: SketchFamily, key: &[u8], kind: u8) -> io::Result<Reply> {
        let body = || vec![kind, family.code()];
        Ok(self
            .exchange(FrameType::Query, family, key, None, body, false)?
            .0)
    }

    pub fn ping(&mut self) -> io::Result<Reply> {
        self.client.ping()
    }
}

/// State the writer and querier threads share.
pub struct Shared {
    pub gen: Generator,
    /// Items acked per stream.
    pub acked: Vec<AtomicU64>,
    /// Per stream: `(cumulative items offered, due time)` of each
    /// batch, appended before the batch is sent.
    pub offered: Vec<Mutex<Vec<(u64, Instant)>>>,
    /// Per stream: the `n` that preload, replica and recovered images
    /// contribute to Quantiles/Frequency answers.
    pub fixed_n: Vec<u64>,
    /// Replica images re-pushed each period, `[stream][source]`.
    pub replica_images: Vec<Vec<Vec<u8>>>,
    pub taxonomy: ErrorTaxonomy,
}

impl Shared {
    pub fn new(gen: Generator, fixed_n: Vec<u64>, replica_images: Vec<Vec<Vec<u8>>>) -> Shared {
        let n = gen.spec.streams.len();
        Shared {
            gen,
            acked: (0..n).map(|_| AtomicU64::new(0)).collect(),
            offered: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            fixed_n,
            replica_images,
            taxonomy: ErrorTaxonomy::default(),
        }
    }

    /// Due time of the batch whose cumulative offered count on
    /// `stream` first reaches `n`.
    fn due_of(&self, stream: usize, n: u64) -> Option<Instant> {
        let log = self.offered[stream].lock().expect("offered log lock");
        let i = log.partition_point(|&(cum, _)| cum < n);
        log.get(i).map(|&(_, due)| due)
    }

    /// Records a failed operation's typed cause.
    fn fail(&self, r: Result<&Reply, &io::Error>) {
        match r {
            Ok(Reply::Nack { code, .. }) => self.taxonomy.record_nack(*code),
            _ => self.taxonomy.record_io_error(),
        }
    }
}

/// Where a window starts in the workload's deterministic sequences.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cursor {
    pub batch: u64,
    /// Replica pushes sent.
    pub push: u64,
    pub query: u64,
}

/// What the writer measured in one window.
#[derive(Default)]
pub struct WriterOut {
    pub ack: Windowed,
    pub late: LatencyHistogram,
    pub encode: LatencyHistogram,
    pub await_reply: LatencyHistogram,
    pub batches_sent: u64,
    pub items_acked: u64,
    pub merges_sent: u64,
    pub failed: u64,
    /// Items due inside the window (open loop only).
    pub items_due: u64,
    pub last_ack: Option<Instant>,
}

/// What the querier measured in one window.
#[derive(Default)]
pub struct QuerierOut {
    pub query: Windowed,
    pub late: LatencyHistogram,
    pub freshness: Windowed,
    /// Query latency per family code (1–4), to place the mix's p50
    /// and p99 inside one family's latency mode.
    pub by_family: [LatencyHistogram; 4],
    /// Items acked before the query was sent minus the `n` it saw.
    pub stale: Vec<f64>,
    pub sent: u64,
    pub failed: u64,
}

/// Asks for 1 ns timer slack on the calling thread. The default 50 µs
/// slack lets every open-loop sleep overshoot its due time by tens of
/// microseconds, which would be charged to the server.
fn tight_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        use std::os::raw::{c_int, c_ulong};
        extern "C" {
            fn prctl(option: c_int, ...) -> c_int;
        }
        const PR_SET_TIMERSLACK: c_int = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
        // changes the calling thread's timer slack; no memory is passed.
        // A failure leaves the default slack, which is harmless.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
        }
    }
}

fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Drives the writer for one window `[t0, end)`: ingest batches
/// (closed loop, or open loop at the workload's rate) interleaved with
/// the periodic replica re-pushes.
pub fn run_writer(
    sh: &Shared,
    conn: &mut Conn,
    oracle: &mut Oracle,
    cur: &mut Cursor,
    t0: Instant,
    end: Instant,
    trace: bool,
) -> WriterOut {
    tight_timer_slack();
    let spec = &sh.gen.spec;
    let secs = (end - t0).as_secs_f64();
    let mut out = WriterOut {
        ack: Windowed::new(t0, secs, 1.0),
        ..WriterOut::default()
    };
    let mut items = Vec::with_capacity(spec.batch);
    let mut ranks = Vec::with_capacity(spec.batch);
    let interval = spec
        .ingest_rate
        .map(|r| Duration::from_secs_f64(spec.batch as f64 / r));
    let first_batch = cur.batch;
    let first_push = cur.push;
    // Each replica source re-pushes once per period; the pushes of all
    // streams' sources are spread evenly over the period rather than
    // sent as one burst.
    let sources: Vec<(usize, usize)> = (0..sh.replica_images.len())
        .flat_map(|s| (0..sh.replica_images[s].len()).map(move |r| (s, r)))
        .collect();
    let push_every =
        (!sources.is_empty()).then(|| spec.replica_period.div_f64(sources.len() as f64));
    let mut dead = false;
    loop {
        let batch_due = interval.map(|iv| t0 + iv.mul_f64((cur.batch - first_batch) as f64));
        let push_due = push_every.map(|pe| t0 + pe.mul_f64((cur.push - first_push + 1) as f64));
        let now = Instant::now();
        if dead || now >= end {
            break;
        }
        if let Some(pd) = push_due.filter(|&pd| pd < end && batch_due.is_none_or(|bd| pd <= bd)) {
            wait_until(pd);
            out.late.record(pd.elapsed());
            let (s, r) = sources[(cur.push % sources.len() as u64) as usize];
            let st = &spec.streams[s];
            out.merges_sent += 1;
            let img = &sh.replica_images[s][r];
            match conn.merge(st.family, st.key.as_bytes(), Some(r as u64 + 1), img) {
                Ok(Reply::Ack { .. }) => {}
                Ok(other) => {
                    sh.fail(Ok(&other));
                    out.failed += 1;
                }
                Err(e) => {
                    sh.fail(Err(&e));
                    out.failed += 1;
                    dead = true;
                }
            }
            cur.push += 1;
            continue;
        }
        if batch_due.is_some_and(|bd| bd >= end) {
            break;
        }
        let s = sh.gen.batch_stream(cur.batch);
        let st = &spec.streams[s];
        if sh.gen.is_zipf() {
            sh.gen.batch_ranks(cur.batch, &mut ranks);
            items.clear();
            items.extend(ranks.iter().map(|&r| sh.gen.zipf_item(r)));
        } else {
            sh.gen.batch_into(cur.batch, &mut items);
        }
        let due = match batch_due {
            Some(bd) => {
                wait_until(bd);
                out.late.record(bd.elapsed());
                out.items_due += items.len() as u64;
                bd
            }
            None => Instant::now(),
        };
        {
            let mut log = sh.offered[s].lock().expect("offered log lock");
            let cum = log.last().map_or(0, |l| l.0) + items.len() as u64;
            log.push((cum, due));
        }
        out.batches_sent += 1;
        match conn.ingest(st.family, st.key.as_bytes(), &items, trace) {
            Ok((Reply::Ack { .. }, spans)) => {
                let now = Instant::now();
                out.ack.record(due, now - due);
                out.last_ack = Some(now);
                out.items_acked += items.len() as u64;
                oracle.observe(s, &ranks);
                sh.acked[s].fetch_add(items.len() as u64, Ordering::SeqCst);
                if let Some(sp) = spans {
                    out.encode.record(sp.encode);
                    out.await_reply.record(sp.await_reply);
                }
            }
            Ok((other, _)) => {
                sh.fail(Ok(&other));
                out.failed += 1;
            }
            Err(e) => {
                sh.fail(Err(&e));
                out.failed += 1;
                dead = true;
            }
        }
        cur.batch += 1;
    }
    out
}

/// The `n` a Quantiles/Frequency image reports, or `None` if the bytes
/// do not parse as the stream's family.
pub fn image_n(family: SketchFamily, bytes: &[u8]) -> Option<u64> {
    match family {
        SketchFamily::Quantiles => LadderWireView::<u64>::parse(bytes).ok().map(|v| v.n()),
        SketchFamily::Frequency => MgWireView::<u64>::parse(bytes).ok().map(|v| v.n()),
        _ => None,
    }
}

/// Drives the querier for one window: open-loop queries at the
/// workload's rate; Quantiles/Frequency answers also yield freshness.
pub fn run_querier(
    sh: &Shared,
    conn: &mut Conn,
    cur: &mut Cursor,
    t0: Instant,
    end: Instant,
) -> QuerierOut {
    tight_timer_slack();
    let spec = &sh.gen.spec;
    let secs = (end - t0).as_secs_f64();
    // Slices hold about 100 samples, and never less than a second.
    let fresh_share: f64 = spec
        .query_mix
        .iter()
        .filter(|m| matches!(m.0, SketchFamily::Quantiles | SketchFamily::Frequency))
        .map(|m| m.1)
        .sum::<f64>()
        / spec.query_mix.iter().map(|m| m.1).sum::<f64>();
    let slice = |rate: f64| (100.0 / rate).max(1.0);
    let mut out = QuerierOut {
        query: Windowed::new(t0, secs, slice(spec.query_rate)),
        freshness: Windowed::new(t0, secs, slice(spec.query_rate * fresh_share)),
        ..QuerierOut::default()
    };
    let interval = Duration::from_secs_f64(1.0 / spec.query_rate);
    let first = cur.query;
    loop {
        let due = t0 + interval.mul_f64((cur.query - first) as f64);
        if due >= end || Instant::now() >= end {
            break;
        }
        let (s, kind) = sh.gen.query(cur.query);
        cur.query += 1;
        let st = &spec.streams[s];
        wait_until(due);
        out.late.record(due.elapsed());
        let acked_before = sh.acked[s].load(Ordering::SeqCst);
        out.sent += 1;
        let reply = conn.query(st.family, st.key.as_bytes(), kind);
        let replied = Instant::now();
        let ok = match &reply {
            Ok(Reply::Estimate { value, .. }) => value.is_finite() && *value >= 0.0,
            Ok(Reply::Image { bytes, .. }) => match image_n(st.family, bytes) {
                Some(n) => {
                    let live = n.saturating_sub(sh.fixed_n[s]);
                    out.stale.push(acked_before as f64 - live as f64);
                    if live == 0 {
                        true
                    } else if let Some(d) = sh.due_of(s, live) {
                        out.freshness.record(due, replied - d);
                        true
                    } else {
                        false // more items than were ever offered
                    }
                }
                None => false,
            },
            _ => false,
        };
        if ok {
            out.query.record(due, replied - due);
            out.by_family[st.family.code() as usize - 1].record(replied - due);
        } else {
            match &reply {
                Ok(r) => sh.fail(Ok(r)),
                Err(e) => sh.fail(Err(e)),
            }
            out.failed += 1;
            if reply.is_err() {
                break;
            }
        }
    }
    out
}
