//! The three workloads of record and their parameters.

use fcds_sketches::wire::SketchFamily;
use std::time::Duration;

/// How ingest items are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Items {
    /// Every item of the run is new (splitmix64 of a counter).
    Distinct,
    /// Zipf(`s`) over `keys` keys.
    Zipf { keys: u64, s: f64 },
}

/// One stream the workload addresses with v2 frames.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    pub key: String,
    pub family: SketchFamily,
}

/// Everything that defines a workload's traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub streams: Vec<StreamSpec>,
    /// Items per ingest batch.
    pub batch: usize,
    /// Stream of batch `i` is `ingest_pattern[i % len]`.
    pub ingest_pattern: Vec<usize>,
    /// Offered items per second; `None` runs the writer closed-loop.
    pub ingest_rate: Option<f64>,
    pub items: Items,
    /// Open-loop queries per second.
    pub query_rate: f64,
    /// Query weight per family; each query picks one of the family's
    /// streams uniformly.
    pub query_mix: Vec<(SketchFamily, f64)>,
    /// Accumulating preload merges per stream, sent during setup.
    pub preload: usize,
    /// REPLACE replica sources per stream, re-pushed every
    /// `replica_period` during the timed phase.
    pub replicas: usize,
    pub replica_period: Duration,
    /// Items behind each preload, replica and snapshot image.
    pub image_items: usize,
    /// Pre-seed one snapshot record per stream and run the server with
    /// `--data-dir`, `--snapshot-ms=100`, `--fsync=interval`.
    pub snapshots: bool,
    /// Untimed traffic between set-up and the timed window, seconds.
    pub warmup_s: f64,
}

const FAMILIES: [SketchFamily; 4] = [
    SketchFamily::Theta,
    SketchFamily::Hll,
    SketchFamily::Quantiles,
    SketchFamily::Frequency,
];

fn family_streams(prefix: &str, per_family: usize) -> Vec<StreamSpec> {
    (0..per_family * 4)
        .map(|i| {
            let family = FAMILIES[i % 4];
            StreamSpec {
                key: format!("{prefix}/{}-{}", family.name(), i / 4),
                family,
            }
        })
        .collect()
}

/// The workload names, in the order `all` runs them.
pub const NAMES: [&str; 3] = ["theta_ingest", "fanin_query", "durable_mix"];

/// The spec of a named workload.
pub fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        // The paper's write-only Figure 1 stream: the server's built-in
        // Θ stream (`default`, two engine writers) fed closed-loop with
        // distinct items, so after warm-up the Θ prefilter drops nearly
        // every update and the served per-item path is what the ack
        // waits for. A Misra–Gries probe stream takes one batch in 64:
        // its image reports an exact `n`, which is what freshness is
        // measured on, and at that share its one worker stays well
        // ahead of the closed-loop writer.
        "theta_ingest" => Spec {
            name: "theta_ingest",
            why: "closed-loop 4096-item batches of distinct items into one Θ stream",
            streams: vec![
                StreamSpec {
                    key: "default".into(),
                    family: SketchFamily::Theta,
                },
                StreamSpec {
                    key: "theta_ingest/probe".into(),
                    family: SketchFamily::Frequency,
                },
            ],
            batch: 4096,
            ingest_pattern: [vec![0; 63], vec![1]].concat(),
            ingest_rate: None,
            items: Items::Distinct,
            query_rate: 300.0,
            query_mix: vec![(SketchFamily::Theta, 2.0), (SketchFamily::Frequency, 1.0)],
            preload: 0,
            replicas: 0,
            replica_period: Duration::from_millis(500),
            image_items: 0,
            snapshots: false,
            warmup_s: 3.0,
        },
        // Query fan-in: every query merges the live image with P = 32
        // pushed and R = 4 replica images; ingest is light in items but
        // sent as 128-item batches, so requests come every 640 µs: with
        // longer idle gaps the VM's vCPU wake-up latency, not the
        // server, sets the ack latency.
        "fanin_query" => Spec {
            name: "fanin_query",
            why: "8 streams, each query fans in 37 images; light open-loop ingest",
            streams: family_streams("fanin_query", 2),
            batch: 128,
            ingest_pattern: (0..8).collect(),
            ingest_rate: Some(200_000.0),
            items: Items::Distinct,
            query_rate: 100.0,
            query_mix: vec![
                (SketchFamily::Hll, 0.2),
                (SketchFamily::Frequency, 0.2),
                (SketchFamily::Theta, 0.4),
                (SketchFamily::Quantiles, 0.2),
            ],
            preload: 32,
            replicas: 4,
            replica_period: Duration::from_millis(500),
            image_items: 20_000,
            snapshots: false,
            warmup_s: 3.0,
        },
        // Per-batch costs: small batches over 16 single-worker streams
        // with skewed keys, while the checkpointer snapshots every
        // 100 ms; boot recovery of 16 records lands in setup.
        "durable_mix" => Spec {
            name: "durable_mix",
            why: "16 durable streams, 256-item Zipf batches, snapshots every 100 ms",
            streams: family_streams("durable_mix", 4),
            batch: 256,
            ingest_pattern: (0..16).collect(),
            ingest_rate: Some(400_000.0),
            items: Items::Zipf {
                keys: 1 << 20,
                s: 1.1,
            },
            query_rate: 100.0,
            query_mix: vec![
                (SketchFamily::Theta, 0.25),
                (SketchFamily::Hll, 0.25),
                (SketchFamily::Quantiles, 0.25),
                (SketchFamily::Frequency, 0.25),
            ],
            preload: 0,
            replicas: 0,
            replica_period: Duration::from_millis(500),
            image_items: 50_000,
            snapshots: true,
            // Ack latency keeps falling for ~10 s after boot recovery
            // while the checkpointer and the engines settle.
            warmup_s: 10.0,
        },
        _ => return None,
    })
}
