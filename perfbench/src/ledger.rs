//! The per-layer ledger: replays a workload's generated inputs through
//! the public functions of each layer, in process, timing each call
//! from here. Layers: `frame` (encode, checksum, validate, prefix
//! split), `hash`, `engine` (writer ingest + flush, image publication),
//! `wire` (validation, multiway fan-in, encode) and `persist` /
//! `recover` (snapshot records on the real filesystem).

use crate::gen::{build_engine, Generator};
use crate::stats::{median, quantile_ns};
use fcds_load::LatencyHistogram;
use fcds_server::frame::{
    check_payload, encode_frame_flags, encode_stream_prefix, fnv1a32, parse_header,
    split_stream_prefix, FrameType, FLAG_STREAM, FRAME_HEADER_LEN,
};
use fcds_server::persist::{encode_record, snapshot_file_name, DirStore, SnapshotStore};
use fcds_server::recover::decode_record;
use fcds_sketches::hash::{murmur3_64_u64, DEFAULT_SEED};
use fcds_sketches::wire::{
    hll_multiway_merge, ladder_multiway_concat, mg_multiway_merge, peek, theta_multiway_union,
    HllWireView, LadderWireView, MgWireView, SketchFamily, ThetaWireView, WireEncode,
};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One ledger line.
#[derive(Debug, Clone)]
pub struct Entry {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// The end-to-end metric (and workload) this layer should move.
    pub moves: &'static str,
}

/// Items the replay pushes through each per-item layer.
const REPLAY_ITEMS: usize = 1 << 20;
/// Repetitions of each timed pass; the ledger reports their median.
const REPS: usize = 5;

const FAMILIES: [SketchFamily; 4] = [
    SketchFamily::Theta,
    SketchFamily::Hll,
    SketchFamily::Quantiles,
    SketchFamily::Frequency,
];

fn fam(f: SketchFamily) -> &'static str {
    match f {
        SketchFamily::Theta => "theta",
        SketchFamily::Hll => "hll",
        SketchFamily::Quantiles => "quantiles",
        SketchFamily::Frequency => "frequency",
    }
}

/// Median wall time of `REPS` runs of `f`, ns.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Everything the replay needs from the run's generated inputs.
pub struct Inputs<'a> {
    pub gen: &'a Generator,
    pub preload: &'a [Vec<Vec<u8>>],
    pub replicas: &'a [Vec<Vec<u8>>],
    pub records: &'a [(String, Vec<u8>)],
}

impl Inputs<'_> {
    /// The exact image set a query on the first stream of `family`
    /// fans in, with `live` as the stream's live engine image.
    fn image_set(&self, family: SketchFamily, live: Vec<u8>) -> Vec<Vec<u8>> {
        let spec = &self.gen.spec;
        let s = spec.streams.iter().position(|st| st.family == family);
        let mut set = vec![live];
        if let Some(s) = s {
            if let Some((_, rec)) = self.records.get(s) {
                let rec = decode_record(rec).expect("generated records decode");
                set.push(rec.image.to_vec());
            }
            set.extend(self.replicas.get(s).into_iter().flatten().cloned());
            set.extend(self.preload.get(s).into_iter().flatten().cloned());
        }
        set
    }
}

fn fan_in(family: SketchFamily, images: &[Vec<u8>]) -> Vec<u8> {
    let bytes = match family {
        SketchFamily::Theta => theta_multiway_union(images).map(|s| s.to_wire_bytes()),
        SketchFamily::Hll => hll_multiway_merge(images).map(|s| s.to_wire_bytes()),
        SketchFamily::Quantiles => {
            ladder_multiway_concat::<u64, _>(images).map(|s| s.to_wire_bytes())
        }
        SketchFamily::Frequency => mg_multiway_merge::<u64, _>(images).map(|s| s.to_wire_bytes()),
    };
    bytes.expect("generated images fan in").to_vec()
}

/// Fan-in only (the merge, without encoding the result), as a query
/// for an estimate pays it.
fn fan_in_only(family: SketchFamily, images: &[Vec<u8>]) {
    match family {
        SketchFamily::Theta => drop(black_box(theta_multiway_union(images))),
        SketchFamily::Hll => drop(black_box(hll_multiway_merge(images))),
        SketchFamily::Quantiles => drop(black_box(ladder_multiway_concat::<u64, _>(images))),
        SketchFamily::Frequency => drop(black_box(mg_multiway_merge::<u64, _>(images))),
    }
}

fn validate(image: &[u8]) {
    let p = peek(image, 1 << 20).expect("generated image peeks");
    let ok = match p.family {
        SketchFamily::Theta => ThetaWireView::parse(image).is_ok(),
        SketchFamily::Hll => HllWireView::parse(image).is_ok(),
        SketchFamily::Quantiles => LadderWireView::<u64>::parse(image).is_ok(),
        SketchFamily::Frequency => MgWireView::<u64>::parse(image).is_ok(),
    };
    assert!(black_box(ok), "generated image validates");
}

/// Replays the workload through every layer and returns the ledger.
pub fn replay(inp: &Inputs<'_>, scratch: &Path) -> Vec<Entry> {
    let gen = inp.gen;
    let spec = &gen.spec;
    let mut out = Vec::new();
    let mut push = |name: String, value: f64, unit: &'static str, moves: &'static str| {
        out.push(Entry {
            name,
            value,
            unit,
            moves,
        })
    };

    // The workload's own batches.
    let n_batches = REPLAY_ITEMS.div_ceil(spec.batch) as u64;
    let batches: Vec<(usize, Vec<u64>)> = (0..n_batches)
        .map(|i| {
            let mut b = Vec::new();
            gen.batch_into(i, &mut b);
            (gen.batch_stream(i), b)
        })
        .collect();
    let items = (n_batches as usize * spec.batch) as f64;

    // frame: client encode, checksum, server-side validate and split.
    let encode = |i: usize, (s, b): &(usize, Vec<u64>)| {
        let st = &spec.streams[*s];
        let body: Vec<u8> = b.iter().flat_map(|x| x.to_le_bytes()).collect();
        let payload = encode_stream_prefix(st.family, st.key.as_bytes(), None, &body);
        encode_frame_flags(FrameType::Ingest, FLAG_STREAM, i as u16, &payload)
    };
    let enc_ns = time_ns(|| {
        for (i, b) in batches.iter().enumerate() {
            black_box(encode(i, b));
        }
    });
    push(
        "frame.encode_ns_per_item".into(),
        enc_ns / items,
        "ns",
        "ingest_ack_ms_p50 on theta_ingest",
    );
    let frames: Vec<Vec<u8>> = batches
        .iter()
        .enumerate()
        .map(|(i, b)| encode(i, b))
        .collect();
    let payload_bytes: usize = frames.iter().map(|f| f.len() - FRAME_HEADER_LEN).sum();
    let sum_ns = time_ns(|| {
        for f in &frames {
            black_box(fnv1a32(&f[FRAME_HEADER_LEN..]));
        }
    });
    push(
        "frame.checksum_ns_per_byte".into(),
        sum_ns / payload_bytes as f64,
        "ns",
        "ingest_mitems_s on theta_ingest",
    );
    let val_ns = time_ns(|| {
        for f in &frames {
            let h: &[u8; FRAME_HEADER_LEN] = f[..FRAME_HEADER_LEN].try_into().expect("header");
            let p = parse_header(h, 1 << 20, true).expect("generated frame parses");
            check_payload(&p, &f[FRAME_HEADER_LEN..]).expect("generated frame checks");
        }
    });
    push(
        "frame.validate_ns_per_item".into(),
        val_ns / items,
        "ns",
        "ingest_ack_ms_p50 on theta_ingest",
    );
    let split_ns = time_ns(|| {
        for f in &frames {
            black_box(split_stream_prefix(&f[FRAME_HEADER_LEN..], false).expect("prefix splits"));
        }
    });
    push(
        "frame.prefix_split_ns".into(),
        split_ns / frames.len() as f64,
        "ns",
        "ingest_ack_ms_p50 on durable_mix",
    );

    // hash: what Θ and HLL writers do to every item.
    let hash_ns = time_ns(|| {
        let mut acc = 0u64;
        for (_, b) in &batches {
            for &x in b {
                acc ^= murmur3_64_u64(x, DEFAULT_SEED);
            }
        }
        black_box(acc);
    });
    push(
        "hash.ns_per_item".into(),
        hash_ns / items,
        "ns",
        "freshness_ms_p50 on durable_mix",
    );

    // engine, then wire on each family's exact image set.
    let mut encode_us = Vec::new();
    let mut image_bytes = Vec::new();
    let mut validate_us = Vec::new();
    let mut images_per_query = 0usize;
    for family in FAMILIES {
        let f = fam(family);
        let engine = build_engine(family);
        let mut w = engine.writer();
        let t = Instant::now();
        for (_, b) in &batches {
            w.ingest_batch(b);
            w.flush().expect("in-process engine flushes");
        }
        let ingest_ns = t.elapsed().as_nanos() as f64;
        drop(w);
        engine.quiesce();
        push(
            format!("engine.{f}.ingest_ns_per_item"),
            ingest_ns / items,
            "ns",
            "freshness_ms_p50 on durable_mix",
        );
        if family == SketchFamily::Theta {
            let filtered = engine.stats().filtered_updates as f64;
            push(
                "engine.theta.filtered_frac".into(),
                filtered / items,
                "frac",
                "ingest_mitems_s on theta_ingest (predicted unchanged)",
            );
        }
        let img_ns = time_ns(|| drop(black_box(engine.wire_image())));
        push(
            format!("engine.{f}.wire_image_us"),
            img_ns / 1e3,
            "us",
            "query_ms_p50 on fanin_query",
        );

        let set = inp.image_set(family, engine.wire_image().to_vec());
        images_per_query = images_per_query.max(set.len());
        let fan_ns = time_ns(|| fan_in_only(family, &set));
        push(
            format!("wire.fanin.{f}_us"),
            fan_ns / 1e3,
            "us",
            "query_ms_p50 on fanin_query",
        );
        for img in &set {
            validate_us.push(time_ns(|| validate(img)) / 1e3);
        }
        let weight: f64 = spec
            .query_mix
            .iter()
            .filter(|m| m.0 == family)
            .map(|m| m.1)
            .sum();
        if weight > 0.0 && matches!(family, SketchFamily::Quantiles | SketchFamily::Frequency) {
            let merged = fan_in(family, &set);
            let enc = match family {
                SketchFamily::Quantiles => {
                    let s = ladder_multiway_concat::<u64, _>(&set).expect("fan-in");
                    time_ns(|| drop(black_box(s.to_wire_bytes())))
                }
                _ => {
                    let s = mg_multiway_merge::<u64, _>(&set).expect("fan-in");
                    time_ns(|| drop(black_box(s.to_wire_bytes())))
                }
            };
            encode_us.push(enc / 1e3);
            image_bytes.push(merged.len() as f64);
        }
    }
    push(
        "wire.fanin.images_per_query".into(),
        images_per_query as f64,
        "count",
        "query_ms_p99 on fanin_query",
    );
    push(
        "wire.encode_us".into(),
        median(&encode_us),
        "us",
        "query_ms_p50 on fanin_query",
    );
    push(
        "wire.image_bytes_p50".into(),
        median(&image_bytes),
        "bytes",
        "query_ms_p50 on fanin_query",
    );
    push(
        "wire.validate_us".into(),
        median(&validate_us),
        "us",
        "setup_s on fanin_query",
    );

    // persist / recover: the workload's own records (or, without a
    // durability tier, records of each family's fanned-in image).
    let records: Vec<Vec<u8>> = if inp.records.is_empty() {
        spec.streams
            .iter()
            .map(|st| {
                let live = Generator::image(st.family, &batches[0].1);
                let img = fan_in(st.family, &inp.image_set(st.family, live));
                encode_record(st.family, st.key.as_bytes(), 1, &img)
            })
            .collect()
    } else {
        inp.records.iter().map(|(_, r)| r.clone()).collect()
    };
    let rec_bytes: usize = records.iter().map(Vec::len).sum();
    let decoded: Vec<_> = records
        .iter()
        .map(|r| decode_record(r).expect("generated record decodes"))
        .collect();
    let enc_ns = time_ns(|| {
        for r in &decoded {
            black_box(encode_record(r.family, &r.key, r.seq, &r.image));
        }
    });
    push(
        "persist.record_ns_per_byte".into(),
        enc_ns / rec_bytes as f64,
        "ns",
        "setup_s on durable_mix",
    );
    let store = DirStore::new(scratch.join("ledger-store")).expect("scratch store");
    let mut put = LatencyHistogram::new();
    for round in 0..(256 / decoded.len()).max(8) as u64 {
        for r in &decoded {
            let bytes = encode_record(r.family, &r.key, r.seq + round, &r.image);
            let t = Instant::now();
            store
                .put(&snapshot_file_name(&r.key), &bytes, false)
                .expect("snapshot put on the scratch store");
            put.record(t.elapsed());
        }
        store.sync_dir().expect("scratch dir sync");
    }
    let q = |q| quantile_ns(&put, q).unwrap_or(0.0) / 1e6;
    push(
        "persist.put_ms_p50".into(),
        q(0.5),
        "ms",
        "ingest_ack_ms_p99 on durable_mix",
    );
    push(
        "persist.put_ms_p99".into(),
        q(0.99),
        "ms",
        "ingest_ack_ms_p99 on durable_mix",
    );
    let dec_ns = time_ns(|| {
        for r in &records {
            black_box(decode_record(r).expect("record decodes"));
        }
    });
    push(
        "recover.decode_ns_per_byte".into(),
        dec_ns / rec_bytes as f64,
        "ns",
        "setup_s on durable_mix",
    );
    let _ = std::fs::remove_dir_all(scratch.join("ledger-store"));
    out
}
