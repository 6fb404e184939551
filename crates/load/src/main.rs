//! `fcds-load` binary: drive an `fcds-server` (in-process by default)
//! through the baseline + fault-injection scenario and emit
//! `BENCH_serve.json` for the CI bench gate.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p fcds-load [--out=DIR] [--addr=HOST:PORT]
//!     [--writers=N] [--queriers=N] [--batch=N] [--rate=ITEMS_PER_S]
//!     [--baseline-ms=N] [--fault-hold-ms=N] [--streams=N]
//!     [--sync-period-ms=N] [--snapshot-ms=N] [--full]
//! ```
//!
//! Without `--addr` the harness starts its own server in-process (the
//! CI mode: one command, no orchestration); with it, the harness
//! targets an already-running server. After the fault scenario the
//! harness always runs the multi-stream drill (`--streams` named
//! streams round-robined over all four families, FCF1 v2 framing,
//! default 8), the two-server replica-sync drill (`--sync-period-ms`
//! push period), and the crash drill (a real `fcds-server` process
//! with `--snapshot-ms` checkpoints, SIGKILLed mid-checkpoint and
//! restarted against its data dir). Last, it times the frame and
//! snapshot checksum (`crc32c`) against its portable path. `--full`
//! lengthens every window for lower-variance numbers.

use fcds_bench::gate::{
    DURABILITY_CORRUPT_ACCEPTED_MAX, DURABILITY_RECOVERY_S_MAX, DURABILITY_RELERR_MAX,
    DURABILITY_STREAMS_RECOVERED_MIN, SERVE_CHECKSUM_DISPATCHED_OVER_PORTABLE_MIN,
    SERVE_FAULT_CLASSES_SURVIVED_MIN, SERVE_INGEST_MITEMS_PER_S_MIN,
    SERVE_MULTISTREAM_INGEST_MITEMS_PER_S_MIN, SERVE_MULTISTREAM_ISOLATION_MIN,
    SERVE_MULTISTREAM_QUERY_P99_MS_MAX, SERVE_MULTISTREAM_TYPED_COVERAGE_MIN,
    SERVE_QUERY_P99_MS_MAX, SERVE_RECOVERY_MS_MAX, SERVE_TYPED_ERROR_COVERAGE_MIN,
    SYNC_CONVERGENCE_RELERR_MAX, SYNC_CONVERGENCE_STREAMS_MIN,
};
use fcds_bench::report::{HarnessArgs, Table};
use fcds_load::{
    run_crash_drill, run_multistream, run_scenario, run_sync_drill, CrashDrillConfig,
    CrashDrillReport, LoadConfig, MultiStreamConfig, MultiStreamReport, ScenarioReport, SyncConfig,
    SyncReport, FAMILIES,
};
use fcds_server::checksum::{crc32c, crc32c_portable};
use fcds_server::frame::NackCode;
use fcds_server::{serve, ServerConfig};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn ms(ns: u64) -> f64 {
    ns as f64 / 1.0e6
}

/// The frame and snapshot checksum on its own: the dispatched
/// `crc32c` and the portable path, timed alternately over the same
/// 1 MiB buffer. Returns the dispatched path's throughput in GB/s and
/// its speed over the portable path, both from per-side medians.
fn measure_checksum() -> (f64, f64) {
    const LEN: usize = 1 << 20;
    const ROUNDS: usize = 21;
    let buf: Vec<u8> = (0..LEN as u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
        .collect();
    let time = |f: fn(&[&[u8]]) -> u32| {
        let t = Instant::now();
        black_box(f(&[black_box(&buf)]));
        t.elapsed().as_secs_f64()
    };
    let (mut dispatched, mut portable) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        dispatched.push(time(crc32c));
        portable.push(time(crc32c_portable));
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (d, p) = (median(&mut dispatched), median(&mut portable));
    (LEN as f64 / d / 1e9, p / d)
}

fn main() {
    let args = HarnessArgs::parse_with_out_default(".");

    let mut cfg = LoadConfig::default();
    if let Some(w) = args.get("writers").and_then(|v| v.parse().ok()) {
        cfg.writers = w;
    }
    if let Some(q) = args.get("queriers").and_then(|v| v.parse().ok()) {
        cfg.queriers = q;
    }
    if let Some(b) = args.get("batch").and_then(|v| v.parse().ok()) {
        cfg.batch_size = b;
    }
    if let Some(r) = args.get("rate").and_then(|v| v.parse().ok()) {
        cfg.rate_items_per_s = r;
    }
    if let Some(b) = args.get("baseline-ms").and_then(|v| v.parse().ok()) {
        cfg.baseline = Duration::from_millis(b);
    }
    if let Some(h) = args.get("fault-hold-ms").and_then(|v| v.parse().ok()) {
        cfg.fault_hold = Duration::from_millis(h);
    }
    if args.full {
        cfg.baseline = Duration::from_secs(5);
        cfg.fault_hold = Duration::from_millis(750);
    }

    let mut ms_cfg = MultiStreamConfig::default();
    if let Some(s) = args.get("streams").and_then(|v| v.parse().ok()) {
        ms_cfg.streams = s;
    }
    ms_cfg.batch_size = cfg.batch_size;
    let mut sync_cfg = SyncConfig::default();
    if let Some(p) = args.get("sync-period-ms").and_then(|v| v.parse().ok()) {
        sync_cfg.sync_period = Duration::from_millis(p);
    }
    let mut crash_cfg = CrashDrillConfig::default();
    if let Some(ms) = args.get("snapshot-ms").and_then(|v| v.parse().ok()) {
        crash_cfg.snapshot_interval = Duration::from_millis(std::cmp::max(ms, 1));
        crash_cfg.churn = Duration::from_millis(std::cmp::max(ms, 1) * 3);
    }
    if args.full {
        ms_cfg.window = Duration::from_secs(4);
        sync_cfg.items_per_stream = 100_000;
        crash_cfg.items_per_stream = 50_000;
    }

    // In-process server unless the caller points at a running one.
    let (server, addr) = match args.get("addr") {
        Some(a) => (None, a.parse().expect("--addr must be HOST:PORT")),
        None => {
            let handle = serve(ServerConfig::default()).expect("start in-process server");
            let addr = handle.local_addr();
            (Some(handle), addr)
        }
    };

    println!(
        "fcds-load: {} writers × {}-item batches, {} queriers, target {} ({})",
        cfg.writers,
        cfg.batch_size,
        cfg.queriers,
        addr,
        if cfg.rate_items_per_s == 0 {
            "unthrottled".to_string()
        } else {
            format!("{} items/s", cfg.rate_items_per_s)
        }
    );

    let report = run_scenario(addr, &cfg).expect("run scenario");
    print_report(&report);

    println!(
        "multi-stream drill: {} streams × 4 families, {:.1}s window",
        ms_cfg.streams,
        ms_cfg.window.as_secs_f64()
    );
    let ms_report = run_multistream(&ms_cfg).expect("run multi-stream drill");
    print_multistream(&ms_report);

    println!(
        "replica-sync drill: {} streams, {} ms sync period",
        sync_cfg.streams,
        sync_cfg.sync_period.as_millis()
    );
    let sync_report = run_sync_drill(&sync_cfg).expect("run sync drill");
    print_sync(&sync_report);

    println!(
        "crash drill: {} streams × {} items, {} ms snapshots, SIGKILL mid-checkpoint",
        crash_cfg.streams,
        crash_cfg.items_per_stream,
        crash_cfg.snapshot_interval.as_millis()
    );
    let crash_report = run_crash_drill(&crash_cfg).expect("run crash drill");
    print_crash(&crash_report);

    let checksum = measure_checksum();
    println!(
        "checksum: crc32c {:.2} GB/s, {:.2}x the portable path",
        checksum.0, checksum.1
    );

    let json = render_json(
        &report,
        &cfg,
        &ms_report,
        &sync_report,
        &crash_report,
        checksum,
    );
    std::fs::create_dir_all(&args.out_dir).expect("create out dir");
    let path = format!("{}/BENCH_serve.json", args.out_dir);
    std::fs::write(&path, &json).expect("write BENCH_serve.json");
    println!("wrote {path}");

    if let Some(handle) = server {
        let drain = handle.shutdown();
        println!(
            "server drained: {} items, {} sheds, {} nacks, {} leaked threads",
            drain.stats.ingest_items, drain.stats.sheds, drain.stats.nacks, drain.leaked_threads
        );
        assert_eq!(drain.leaked_threads, 0, "drain must join every thread");
    }
}

fn print_report(r: &ScenarioReport) {
    println!(
        "baseline: {:.2} M items/s ingest ({} items acked total)",
        r.ingest_items_per_s / 1.0e6,
        r.items_acked
    );
    println!(
        "ingest batch RTT: p50 {:.3} ms, p99 {:.3} ms ({} batches)",
        ms(r.ingest_latency.quantile_ns(0.50)),
        ms(r.ingest_latency.quantile_ns(0.99)),
        r.ingest_latency.count()
    );
    println!(
        "query latency:    p50 {:.3} ms, p99 {:.3} ms ({} queries)",
        ms(r.query_latency.quantile_ns(0.50)),
        ms(r.query_latency.quantile_ns(0.99)),
        r.query_latency.count()
    );

    let mut t = Table::new(&["fault", "recovery_ms", "survived"]);
    for p in &r.phases {
        t.row(&[
            p.mode.name().to_string(),
            p.recovery
                .map(|d| format!("{:.0}", d.as_secs_f64() * 1e3))
                .unwrap_or_else(|| "TIMEOUT".to_string()),
            p.survived.to_string(),
        ]);
    }
    println!("{}", t.render());

    println!("error taxonomy:");
    for (name, count) in r.taxonomy.rows() {
        println!("  {name:<24} {count}");
    }
    println!(
        "  reconnects               {}\n  untyped failures         {}",
        r.taxonomy.reconnects(),
        r.untyped_failures
    );
    println!("estimate/acked ratio: {:.4}", r.estimate_ratio);
}

fn print_multistream(r: &MultiStreamReport) {
    println!(
        "  {:.2} M items/s aggregate ingest ({} items across {} streams)",
        r.ingest_items_per_s / 1.0e6,
        r.items_acked,
        r.streams
    );
    println!(
        "  stream ingest RTT p99 {:.3} ms, stream query p99 {:.3} ms",
        ms(r.ingest_latency.quantile_ns(0.99)),
        ms(r.query_latency.quantile_ns(0.99))
    );
    println!(
        "  isolation {:.2}, {} / {} streams converged, untyped failures {}",
        r.isolation, r.streams_converged, r.streams, r.untyped_failures
    );
    for (name, count) in r.taxonomy.rows() {
        println!("    {name:<24} {count}");
    }
}

fn print_sync(r: &SyncReport) {
    println!(
        "  {} / {} streams converged, worst relative error {:.4}, {} pushes{}",
        r.converged,
        r.streams,
        r.worst_relative_error,
        r.pushes,
        r.convergence
            .map(|d| format!(", converged in {:.0} ms", d.as_secs_f64() * 1e3))
            .unwrap_or_default()
    );
}

fn print_crash(r: &CrashDrillReport) {
    println!(
        "  {} / {} streams recovered{}, {} churn items inside the loss window",
        r.recovered_streams,
        r.streams,
        r.recovery
            .map(|d| format!(" in {:.0} ms", d.as_secs_f64() * 1e3))
            .unwrap_or_else(|| " (TIMEOUT)".to_string()),
        r.churn_items
    );
    println!(
        "  worst relative error {:.4} ({})",
        r.worst_relative_error,
        r.family_relerr
            .iter()
            .enumerate()
            .map(|(i, e)| format!("{} {:.4}", FAMILIES[i].name(), e))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "  corrupt records accepted {}, quarantined files {}",
        r.corrupt_accepted, r.quarantined
    );
    for (name, count) in r.taxonomy.rows() {
        println!("    {name:<24} {count}");
    }
}

fn render_json(
    r: &ScenarioReport,
    cfg: &LoadConfig,
    msr: &MultiStreamReport,
    sync: &SyncReport,
    crash: &CrashDrillReport,
    (checksum_gbps, checksum_ratio): (f64, f64),
) -> String {
    let survived = r.phases.iter().filter(|p| p.survived).count();
    let worst_recovery_ms = r
        .phases
        .iter()
        .map(|p| {
            p.recovery
                .map(|d| d.as_secs_f64() * 1e3)
                // An unrecovered phase counts as an hour, far past any
                // sane gate: it must trip the max, not vanish from it.
                .unwrap_or(3_600_000.0)
        })
        .fold(0.0f64, f64::max);
    // Typed coverage: every failure the harness saw carried a type (a
    // NACK code or a transport error). `untyped_failures` counts
    // protocol replies fitting no contract — the silent-drop detector.
    let typed_coverage = if r.untyped_failures == 0 { 1.0 } else { 0.0 };
    // Multi-stream typed coverage additionally requires the drill to
    // have provoked (and typed) both v2 taxonomy rows.
    let ms_typed = if msr.untyped_failures == 0
        && msr.taxonomy.nacks(NackCode::UnknownStream) > 0
        && msr.taxonomy.nacks(NackCode::FamilyMismatch) > 0
    {
        1.0
    } else {
        0.0
    };

    let mut rows = String::new();
    for (i, p) in r.phases.iter().enumerate() {
        let _ = write!(
            rows,
            "    {{\"fault\": \"{}\", \"recovery_ms\": {:.1}, \"survived\": {}}}{}",
            p.mode.name(),
            p.recovery.map(|d| d.as_secs_f64() * 1e3).unwrap_or(-1.0),
            p.survived,
            if i + 1 < r.phases.len() { ",\n" } else { "\n" }
        );
    }
    let tax_rows = r.taxonomy.rows();
    let mut taxonomy = String::new();
    for (i, (name, count)) in tax_rows.iter().enumerate() {
        let _ = write!(
            taxonomy,
            "    \"{name}\": {count}{}",
            if i + 1 < tax_rows.len() { ",\n" } else { "\n" }
        );
    }
    if tax_rows.is_empty() {
        taxonomy.push('\n');
    }

    format!(
        "{{\n  \
         \"schema\": \"fcds-bench-serve-v1\",\n  \
         \"config\": {{\"writers\": {writers}, \"queriers\": {queriers}, \
         \"batch_size\": {batch}, \"rate_items_per_s\": {rate}, \
         \"baseline_ms\": {baseline_ms}, \"fault_hold_ms\": {hold_ms}}},\n  \
         \"ingest\": {{\"items_per_s\": {ips:.1}, \"items_acked\": {acked}, \
         \"batch_p50_ms\": {bp50:.4}, \"batch_p99_ms\": {bp99:.4}}},\n  \
         \"query\": {{\"p50_ms\": {qp50:.4}, \"p99_ms\": {qp99:.4}, \
         \"count\": {qcount}}},\n  \
         \"faults\": [\n{rows}  ],\n  \
         \"taxonomy\": {{\n{taxonomy}  }},\n  \
         \"reconnects\": {reconnects},\n  \
         \"estimate_over_acked\": {est:.4},\n  \
         \"multistream\": {{\"streams\": {ms_streams}, \
         \"items_per_s\": {ms_ips:.1}, \"items_acked\": {ms_acked}, \
         \"query_p99_ms\": {ms_qp99:.4}, \"isolation\": {ms_iso:.4}, \
         \"streams_converged\": {ms_conv}}},\n  \
         \"sync\": {{\"streams\": {sy_streams}, \
         \"converged\": {sy_conv}, \"worst_relerr\": {sy_err:.4}, \
         \"convergence_ms\": {sy_ms:.1}, \"pushes\": {sy_pushes}}},\n  \
         \"crash\": {{\"streams\": {cr_streams}, \
         \"recovered_streams\": {cr_recovered}, \
         \"recovery_s\": {cr_recovery:.4}, \
         \"worst_relerr\": {cr_err:.4}, \
         \"corrupt_accepted\": {cr_corrupt}, \
         \"quarantined\": {cr_quarantined}, \
         \"churn_items\": {cr_churn}}},\n  \
         \"acceptance\": {{\n    \
         \"ingest_mitems_per_s\": {accept_ips:.4},\n    \
         \"query_p99_ms\": {qp99:.4},\n    \
         \"typed_error_coverage\": {typed:.1},\n    \
         \"fault_classes_survived\": {survived}.0,\n    \
         \"worst_recovery_ms\": {worst:.1},\n    \
         \"multistream_ingest_mitems_per_s\": {ms_accept_ips:.4},\n    \
         \"multistream_query_p99_ms\": {ms_qp99:.4},\n    \
         \"multistream_isolation\": {ms_iso:.4},\n    \
         \"multistream_typed_coverage\": {ms_typed:.1},\n    \
         \"sync_convergence_streams\": {sy_conv}.0,\n    \
         \"sync_convergence_relerr\": {sy_err:.4},\n    \
         \"durability_recovery_s\": {cr_recovery:.4},\n    \
         \"durability_streams_recovered\": {cr_recovered}.0,\n    \
         \"durability_relerr\": {cr_err:.4},\n    \
         \"durability_corrupt_accepted\": {cr_corrupt}.0,\n    \
         \"checksum_gb_per_s\": {checksum_gbps:.3},\n    \
         \"checksum_dispatched_over_portable\": {checksum_ratio:.3}\n  }},\n  \
         \"thresholds\": {{\n    \
         \"ingest_mitems_per_s_min\": {thr_ips},\n    \
         \"query_p99_ms_max\": {thr_p99},\n    \
         \"typed_error_coverage_min\": {thr_typed},\n    \
         \"fault_classes_survived_min\": {thr_survived},\n    \
         \"worst_recovery_ms_max\": {thr_recovery},\n    \
         \"multistream_ingest_mitems_per_s_min\": {thr_ms_ips},\n    \
         \"multistream_query_p99_ms_max\": {thr_ms_p99},\n    \
         \"multistream_isolation_min\": {thr_ms_iso},\n    \
         \"multistream_typed_coverage_min\": {thr_ms_typed},\n    \
         \"sync_convergence_streams_min\": {thr_sy_streams},\n    \
         \"sync_convergence_relerr_max\": {thr_sy_err},\n    \
         \"durability_recovery_s_max\": {thr_cr_recovery},\n    \
         \"durability_streams_recovered_min\": {thr_cr_streams},\n    \
         \"durability_relerr_max\": {thr_cr_err},\n    \
         \"durability_corrupt_accepted_max\": {thr_cr_corrupt},\n    \
         \"checksum_dispatched_over_portable_min\": {thr_checksum}\n  }}\n}}\n",
        writers = cfg.writers,
        queriers = cfg.queriers,
        batch = cfg.batch_size,
        rate = cfg.rate_items_per_s,
        baseline_ms = cfg.baseline.as_millis(),
        hold_ms = cfg.fault_hold.as_millis(),
        ips = r.ingest_items_per_s,
        acked = r.items_acked,
        bp50 = ms(r.ingest_latency.quantile_ns(0.50)),
        bp99 = ms(r.ingest_latency.quantile_ns(0.99)),
        qp50 = ms(r.query_latency.quantile_ns(0.50)),
        qp99 = ms(r.query_latency.quantile_ns(0.99)),
        qcount = r.query_latency.count(),
        reconnects = r.taxonomy.reconnects(),
        est = r.estimate_ratio,
        accept_ips = r.ingest_items_per_s / 1.0e6,
        typed = typed_coverage,
        survived = survived,
        worst = worst_recovery_ms,
        ms_streams = msr.streams,
        ms_ips = msr.ingest_items_per_s,
        ms_acked = msr.items_acked,
        ms_qp99 = ms(msr.query_latency.quantile_ns(0.99)),
        ms_iso = msr.isolation,
        ms_conv = msr.streams_converged,
        ms_accept_ips = msr.ingest_items_per_s / 1.0e6,
        ms_typed = ms_typed,
        sy_streams = sync.streams,
        sy_conv = sync.converged,
        sy_err = sync.worst_relative_error,
        sy_ms = sync
            .convergence
            .map(|d| d.as_secs_f64() * 1e3)
            .unwrap_or(-1.0),
        sy_pushes = sync.pushes,
        cr_streams = crash.streams,
        cr_recovered = crash.recovered_streams,
        // An unrecovered drill counts as an hour, far past any sane
        // gate: it must trip the max, not vanish from it.
        cr_recovery = crash.recovery.map(|d| d.as_secs_f64()).unwrap_or(3_600.0),
        cr_err = crash.worst_relative_error,
        cr_corrupt = crash.corrupt_accepted,
        cr_quarantined = crash.quarantined,
        cr_churn = crash.churn_items,
        thr_ips = SERVE_INGEST_MITEMS_PER_S_MIN,
        thr_p99 = SERVE_QUERY_P99_MS_MAX,
        thr_typed = SERVE_TYPED_ERROR_COVERAGE_MIN,
        thr_survived = SERVE_FAULT_CLASSES_SURVIVED_MIN,
        thr_recovery = SERVE_RECOVERY_MS_MAX,
        thr_ms_ips = SERVE_MULTISTREAM_INGEST_MITEMS_PER_S_MIN,
        thr_ms_p99 = SERVE_MULTISTREAM_QUERY_P99_MS_MAX,
        thr_ms_iso = SERVE_MULTISTREAM_ISOLATION_MIN,
        thr_ms_typed = SERVE_MULTISTREAM_TYPED_COVERAGE_MIN,
        thr_sy_streams = SYNC_CONVERGENCE_STREAMS_MIN,
        thr_sy_err = SYNC_CONVERGENCE_RELERR_MAX,
        thr_cr_recovery = DURABILITY_RECOVERY_S_MAX,
        thr_cr_streams = DURABILITY_STREAMS_RECOVERED_MIN,
        thr_cr_err = DURABILITY_RELERR_MAX,
        thr_cr_corrupt = DURABILITY_CORRUPT_ACCEPTED_MAX,
        thr_checksum = SERVE_CHECKSUM_DISPATCHED_OVER_PORTABLE_MIN,
    )
}
