//! `perfbench`: runs one workload once against a separately launched
//! `fcds-server` and prints a report whose last line is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`).
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --server-bin PATH --work-dir DIR [--rustc STR] [--commit STR]
//! ```

use fcds_perfbench::bench::{self, E2e, Opts, Outcome};
use fcds_perfbench::stats::reliable_percentile;
use fcds_perfbench::workload;
use std::fmt::Write as _;
use std::path::PathBuf;

fn arg(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn host() -> Vec<(&'static str, String)> {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("cpu", cpu),
        (
            "kernel",
            read("/proc/sys/kernel/osrelease").trim().to_string(),
        ),
    ]
}

fn print_e2e(e: &E2e, spec: &workload::Spec) {
    let mode = match spec.ingest_rate {
        Some(r) => format!("open loop, offered {:.3} Mitems/s", r / 1e6),
        None => "closed loop: capacity".into(),
    };
    if !e.setup_samples.is_empty() {
        let samples: Vec<f64> = e
            .setup_samples
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect();
        println!(
            "  setup_s            {:.4} s  median of {} set-ups {samples:?}",
            e.setup_s,
            samples.len()
        );
    }
    println!(
        "  ingest_mitems_s    {:.4} Mitems/s  ({mode}; achieved/offered {:.4})",
        e.ingest_mitems_s, e.achieved_over_offered
    );
    println!("  ingest_ack_ms      {}", e.ack);
    println!("  query_ms           {}", e.query);
    for (f, q) in &e.by_family {
        println!("    {f:<16} {q}");
    }
    println!("  freshness_ms       {}", e.freshness);
    println!(
        "  ops_failed_frac    {:.6}  ({} failed of {} attempted: ingest, merge, query and checks)",
        e.failed as f64 / e.attempted.max(1) as f64,
        e.failed,
        e.attempted
    );
    println!(
        "  server_rss_mib     {:.2} MiB (median VmRSS over the window; peak VmHWM {:.2} MiB)",
        e.rss_mib, e.peak_rss_mib
    );
    println!(
        "  server_cpu         {:.4} CPU-s/s, {:.2} ns per acked item (utime + stime of the server over the window)",
        e.server_cpu_util, e.server_cpu_ns_per_item
    );
    println!("  generator late ms  {}", e.late);
    println!(
        "  host_steal_frac    {:.4} (CPU time the hypervisor stole during the window)",
        e.host_steal_frac
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let need = |flag: &str| {
        arg(&args, flag).unwrap_or_else(|| {
            eprintln!("perfbench: missing {flag}");
            std::process::exit(2)
        })
    };
    let opts = Opts {
        workload: need("--workload"),
        seed: need("--seed").parse().unwrap_or_else(|_| {
            eprintln!("perfbench: --seed must be an integer");
            std::process::exit(2)
        }),
        seconds: need("--seconds").parse().unwrap_or_else(|_| {
            eprintln!("perfbench: --seconds must be a number");
            std::process::exit(2)
        }),
        trace: need("--trace") == "1",
        server_bin: PathBuf::from(need("--server-bin")),
        work_dir: PathBuf::from(need("--work-dir")),
    };
    let Some(spec) = workload::spec(&opts.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (known: {:?})",
            opts.workload,
            workload::NAMES
        );
        std::process::exit(2);
    };
    let out: Outcome = match bench::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "== {} seed={} seconds={} trace={} — {}",
        spec.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        spec.why
    );
    print_e2e(&out.e2e, &spec);
    for c in &out.checks {
        println!("  CHECK FAILED: {c}");
    }
    for (name, n) in &out.taxonomy {
        println!("  error {name}: {n}");
    }
    println!(
        "  server drain: {} items in {} batches, {} sheds, {} nacks",
        out.drain.items, out.drain.batches, out.drain.sheds, out.drain.nacks
    );
    let mut deltas = Vec::new();
    if let Some((untraced, traced)) = &out.halves {
        println!("-- untraced half");
        print_e2e(untraced, &spec);
        println!("-- traced half");
        print_e2e(traced, &spec);
        println!("-- tracing overhead (traced − untraced)");
        for ((name, a, unit), (_, b, _)) in untraced.metrics().iter().zip(traced.metrics()) {
            if *name != "setup_s" && *name != "server_rss_mib" {
                println!("  {name:<20} {:+.4} {unit}", b - a);
                deltas.push((*name, b - a));
            }
        }
        println!("-- per-layer ledger ({})", spec.name);
        for e in &out.ledger {
            println!(
                "  {:<36} {:>14.4} {:<6} → {}",
                e.name, e.value, e.unit, e.moves
            );
        }
        let ledger_value = |name: &str| {
            out.ledger
                .iter()
                .find(|e| e.name == name)
                .map_or(0.0, |e| e.value)
        };
        let ack_ms = traced.ack.p50;
        let overhead = deltas
            .iter()
            .find(|d| d.0 == "ingest_ack_ms_p50")
            .map_or(0.0, |d| d.1);
        println!(
            "-- ack path per item: client.encode {:.2} ns + frame.validate {:.2} ns + served.unattributed {:.2} ns \
             = ack p50 {:.2} ns/item; tracing overhead on ingest_ack_ms_p50 {:+.4} ms of {:.4} ms",
            ledger_value("client.encode_ns_per_item"),
            ledger_value("frame.validate_ns_per_item"),
            ledger_value("served.unattributed_ns_per_item"),
            ack_ms * 1e6 / spec.batch as f64,
            overhead,
            ack_ms
        );
    }

    let mut meta = String::from("{");
    let _ = write!(
        meta,
        "\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{}",
        json_str(spec.name),
        opts.seed,
        json_num(opts.seconds),
        u8::from(opts.trace)
    );
    for (k, v) in host() {
        let _ = write!(meta, ",{}:{}", json_str(k), json_str(&v));
    }
    for flag in ["--rustc", "--commit"] {
        let _ = write!(
            meta,
            ",{}:{}",
            json_str(&flag[2..]),
            json_str(&arg(&args, flag).unwrap_or_else(|| "unknown".into()))
        );
    }
    let _ = write!(
        meta,
        ",\"params\":{{\"streams\":{},\"batch\":{},\"ingest_rate\":{},\"query_rate\":{},\"preload\":{},\"replicas\":{},\"image_items\":{},\"snapshots\":{},\"setup_trials\":{},\"warmup_s\":{},\"queue_depth\":{}}}",
        json_str(&fcds_perfbench::gen::stream_names(&spec.streams)),
        spec.batch,
        spec.ingest_rate.map_or("null".into(), json_num),
        json_num(spec.query_rate),
        spec.preload,
        spec.replicas,
        spec.image_items,
        spec.snapshots,
        bench::SETUP_TRIALS,
        json_num(spec.warmup_s),
        fcds_perfbench::server::QUEUE_DEPTH
    );
    let counts = [
        ("ingest_ack", out.e2e.ack.count),
        ("query", out.e2e.query.count),
        ("freshness", out.e2e.freshness.count),
    ];
    meta.push_str(",\"samples\":{");
    for (i, (k, n)) in counts.iter().enumerate() {
        let _ = write!(
            meta,
            "{}{}:{{\"count\":{n},\"reliable_to_percentile\":{}}}",
            if i > 0 { "," } else { "" },
            json_str(k),
            json_num(reliable_percentile(*n))
        );
    }
    meta.push_str("},\"end_to_end\":{");
    for (i, (k, v, u)) in out.e2e.metrics().iter().enumerate() {
        let _ = write!(
            meta,
            "{}{}:{{\"value\":{},\"unit\":{}}}",
            if i > 0 { "," } else { "" },
            json_str(k),
            json_num(*v),
            json_str(u)
        );
    }
    let _ = write!(
        meta,
        "}},\"host_steal_frac\":{}",
        json_num(out.e2e.host_steal_frac)
    );
    meta.push_str(",\"tracing_overhead\":{");
    for (i, (k, d)) in deltas.iter().enumerate() {
        let _ = write!(
            meta,
            "{}{}:{}",
            if i > 0 { "," } else { "" },
            json_str(k),
            json_num(*d)
        );
    }
    meta.push_str("}}");
    println!("meta {meta}");

    let metrics: Vec<(String, f64, &str)> = if opts.trace {
        out.ledger
            .iter()
            .map(|e| (e.name.clone(), e.value, e.unit))
            .collect()
    } else {
        out.e2e
            .metrics()
            .into_iter()
            .filter(|(n, _, _)| bench::GATED.contains(n))
            .map(|(n, v, u)| (n.to_string(), v, u))
            .collect()
    };
    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        out.correct, out.e2e.attempted, out.e2e.failed
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let _ = write!(
            line,
            "{}{}:{{\"value\":{},\"unit\":{}}}",
            if i > 0 { "," } else { "" },
            json_str(name),
            json_num(*v),
            json_str(unit)
        );
    }
    line.push_str("}}");
    println!("{line}");
}
