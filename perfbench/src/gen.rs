//! The seeded input generator. Every input a run sends — ingest
//! batches, query choices, preload and replica images, snapshot
//! records — is a pure function of the workload and the `--seed`
//! argument, so two runs with one seed offer the server byte-identical
//! traffic.

use crate::workload::{Items, Spec, StreamSpec};
use fcds_core::engine::{
    EngineBuilder, FrequencyFamily, HllFamily, QuantilesFamily, StreamEngine, ThetaFamily,
};
use fcds_core::PropagationBackendKind;
use fcds_sketches::frequency::MisraGriesSketch;
use fcds_sketches::wire::{MgWireView, SketchFamily, WireEncode};

/// The splitmix64 finaliser: a bijection on `u64`, so distinct inputs
/// give distinct items — the generator's exact distinct-count oracle
/// rests on that.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// splitmix64: a small, fast, seedable stream of `u64`s.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream determined entirely by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// A uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(`s`) over ranks `1..=n` by rejection-inversion (Hörmann and
/// Derflinger, 1996): O(1) per sample with no table, so the writer can
/// draw a 256-item batch in a few microseconds.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: f64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    threshold: f64,
}

impl Zipf {
    /// A sampler over `1..=n` with exponent `s` (`s > 0`, `s != 1`).
    pub fn new(n: u64, s: f64) -> Self {
        assert!(
            n >= 1 && s > 0.0 && (s - 1.0).abs() > 1e-9,
            "Zipf needs n ≥ 1, s > 0, s ≠ 1"
        );
        let mut z = Zipf {
            n: n as f64,
            s,
            h_x1: 0.0,
            h_n: 0.0,
            threshold: 0.0,
        };
        z.h_x1 = z.h(1.5) - 1.0;
        z.h_n = z.h(z.n + 0.5);
        z.threshold = 2.0 - z.h_inv(z.h(2.5) - 2f64.powf(-s));
        z
    }

    fn h(&self, x: f64) -> f64 {
        ((1.0 - self.s) * x.ln()).exp_m1() / (1.0 - self.s)
    }

    fn h_inv(&self, x: f64) -> f64 {
        ((x * (1.0 - self.s)).ln_1p() / (1.0 - self.s)).exp()
    }

    /// One rank in `1..=n`.
    pub fn sample(&self, rng: &mut SplitMix) -> u64 {
        loop {
            let u = self.h_n + rng.next_f64() * (self.h_x1 - self.h_n);
            let x = self.h_inv(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n);
            if k - x <= self.threshold || u >= self.h(k + 0.5) - (-self.s * k.ln()).exp() {
                return k as u64;
            }
        }
    }
}

/// Domain tags keep the item sets of live ingest, preload images,
/// replica images and snapshot records disjoint.
const TAG_LIVE: u64 = 1;
const TAG_PRELOAD: u64 = 2;
const TAG_REPLICA: u64 = 3;
const TAG_SNAPSHOT: u64 = 4;
const TAG_ZIPF_KEY: u64 = 5;

/// The seeded inputs of one workload run.
#[derive(Debug, Clone)]
pub struct Generator {
    pub spec: Spec,
    base: u64,
    zipf: Option<Zipf>,
}

impl Generator {
    /// The generator for `spec` under `seed`.
    pub fn new(spec: Spec, seed: u64) -> Self {
        let zipf = match spec.items {
            Items::Distinct => None,
            Items::Zipf { keys, s } => Some(Zipf::new(keys, s)),
        };
        Generator {
            base: mix(seed ^ 0x005e_ed0f_fcd5),
            spec,
            zipf,
        }
    }

    /// Whether ingest items are Zipf-distributed keys.
    pub fn is_zipf(&self) -> bool {
        self.zipf.is_some()
    }

    /// A distinct item: `mix` is a bijection and `(tag, a, i)` never
    /// repeat inside one run, so these never collide.
    fn distinct(&self, tag: u64, a: u64, i: u64) -> u64 {
        mix(self.base.wrapping_add((tag << 56) | (a << 40) | i))
    }

    /// The item a Zipf rank stands for (rank 1 is the hottest key).
    pub fn zipf_item(&self, rank: u64) -> u64 {
        mix(self.base.wrapping_add((TAG_ZIPF_KEY << 56) | rank))
    }

    /// Which stream ingest batch `i` goes to.
    pub fn batch_stream(&self, i: u64) -> usize {
        let p = &self.spec.ingest_pattern;
        p[(i % p.len() as u64) as usize]
    }

    /// Fills `out` with ingest batch `i`. Distinct workloads number
    /// items by batch, so every item of the run is new; Zipf workloads
    /// draw ranks from a per-batch stream, so batch `i` is the same
    /// whatever order batches are made in.
    pub fn batch_into(&self, i: u64, out: &mut Vec<u64>) {
        out.clear();
        let b = self.spec.batch as u64;
        match &self.zipf {
            None => out.extend((0..b).map(|j| self.distinct(TAG_LIVE, 0, i * b + j))),
            Some(z) => {
                let mut rng = SplitMix::new(mix(self.base ^ mix(i.wrapping_add(1))));
                out.extend((0..b).map(|_| self.zipf_item(z.sample(&mut rng))));
            }
        }
    }

    /// Zipf ranks behind batch `i` (the oracle counts keys by rank).
    pub fn batch_ranks(&self, i: u64, out: &mut Vec<u64>) {
        out.clear();
        if let Some(z) = &self.zipf {
            let mut rng = SplitMix::new(mix(self.base ^ mix(i.wrapping_add(1))));
            out.extend((0..self.spec.batch).map(|_| z.sample(&mut rng)));
        }
    }

    /// The stream and kind of query `j` (kind 0 = estimate, 1 = image):
    /// a family drawn from the workload's weighted mix, then one of its
    /// streams uniformly.
    pub fn query(&self, j: u64) -> (usize, u8) {
        let mix_w = &self.spec.query_mix;
        let total: f64 = mix_w.iter().map(|m| m.1).sum();
        let mut rng = SplitMix::new(mix(self.base ^ mix(j ^ 0xa11ce)));
        let mut pick = rng.next_f64() * total;
        let mut family = mix_w[mix_w.len() - 1].0;
        for &(f, w) in mix_w {
            if pick < w {
                family = f;
                break;
            }
            pick -= w;
        }
        let members: Vec<usize> = (0..self.spec.streams.len())
            .filter(|&s| self.spec.streams[s].family == family)
            .collect();
        let s = members[(rng.next_u64() % members.len() as u64) as usize];
        let kind = match family {
            SketchFamily::Theta | SketchFamily::Hll => 0,
            SketchFamily::Quantiles | SketchFamily::Frequency => 1,
        };
        (s, kind)
    }

    fn image_items(&self, tag: u64, stream: usize, slot: u64) -> Vec<u64> {
        let n = self.spec.image_items as u64;
        let a = (stream as u64) << 8 | slot;
        (0..n).map(|i| self.distinct(tag, a, i)).collect()
    }

    /// Items behind preload image `p` of `stream` (accumulating merges).
    pub fn preload_items(&self, stream: usize, p: usize) -> Vec<u64> {
        self.image_items(TAG_PRELOAD, stream, p as u64)
    }

    /// Items behind replica source `r` of `stream` (REPLACE merges).
    pub fn replica_items(&self, stream: usize, r: usize) -> Vec<u64> {
        self.image_items(TAG_REPLICA, stream, r as u64)
    }

    /// Zipf ranks behind `stream`'s pre-seeded snapshot record (the
    /// same key space the live ingest draws from, so recovered and
    /// live keys overlap the way a restarted stream's do).
    pub fn snapshot_ranks(&self, stream: usize) -> Vec<u64> {
        let z = self
            .zipf
            .as_ref()
            .expect("snapshot records are drawn from a Zipf workload");
        let mut rng = SplitMix::new(mix(self.base ^ (TAG_SNAPSHOT << 56) ^ stream as u64));
        (0..self.spec.image_items)
            .map(|_| z.sample(&mut rng))
            .collect()
    }

    /// Builds `family`'s wire image of `items` with the server's own
    /// engine configuration, so every image merges with live state.
    ///
    /// Misra–Gries images come from the sequential sketch with the
    /// engine's `k`: the concurrent engine's merges break count ties in
    /// hash-map order, so its image of one input differs from run to
    /// run, and the generator's inputs must not.
    pub fn image(family: SketchFamily, items: &[u64]) -> Vec<u8> {
        if family == SketchFamily::Frequency {
            let engine_image = build_engine(family).wire_image();
            let k = MgWireView::<u64>::parse(&engine_image)
                .expect("the engine's own image parses")
                .k();
            let mut mg = MisraGriesSketch::<u64>::new(k as usize).expect("engine k is valid");
            items.iter().for_each(|&x| mg.update(x));
            return mg.to_wire_bytes().to_vec();
        }
        let engine = build_engine(family);
        let mut w = engine.writer();
        for chunk in items.chunks(4096) {
            w.ingest_batch(chunk);
        }
        w.flush()
            .expect("fresh in-process engine cannot lose its propagator");
        drop(w);
        engine.quiesce();
        engine.wire_image().to_vec()
    }

    /// Every preload image, `[stream][p]`.
    pub fn preload_images(&self) -> Vec<Vec<Vec<u8>>> {
        let spec = &self.spec;
        (0..spec.streams.len())
            .map(|s| {
                (0..spec.preload)
                    .map(|p| Self::image(spec.streams[s].family, &self.preload_items(s, p)))
                    .collect()
            })
            .collect()
    }

    /// Every replica image, `[stream][r]`.
    pub fn replica_images(&self) -> Vec<Vec<Vec<u8>>> {
        let spec = &self.spec;
        (0..spec.streams.len())
            .map(|s| {
                (0..spec.replicas)
                    .map(|r| Self::image(spec.streams[s].family, &self.replica_items(s, r)))
                    .collect()
            })
            .collect()
    }

    /// Every pre-seeded snapshot record (`persist::encode_record`
    /// bytes) with its file name, one per stream.
    pub fn snapshot_records(&self) -> Vec<(String, Vec<u8>)> {
        use fcds_server::persist::{encode_record, snapshot_file_name};
        if !self.spec.snapshots {
            return Vec::new();
        }
        self.spec
            .streams
            .iter()
            .enumerate()
            .map(|(s, st)| {
                let items: Vec<u64> = self
                    .snapshot_ranks(s)
                    .into_iter()
                    .map(|r| self.zipf_item(r))
                    .collect();
                let image = Self::image(st.family, &items);
                let record =
                    encode_record(st.family, st.key.as_bytes(), items.len() as u64, &image);
                (snapshot_file_name(st.key.as_bytes()), record)
            })
            .collect()
    }

    /// A digest of every input the first `batches` ingest batches and
    /// `queries` queries would send, plus all images and records: the
    /// determinism test compares these across seeds.
    pub fn digest(&self, batches: u64, queries: u64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| h = mix(h ^ x);
        let mut buf = Vec::new();
        for i in 0..batches {
            self.batch_into(i, &mut buf);
            eat(self.batch_stream(i) as u64);
            buf.iter().for_each(|&x| eat(x));
        }
        for j in 0..queries {
            let (s, k) = self.query(j);
            eat(s as u64);
            eat(k as u64);
        }
        let bytes = |h: &mut dyn FnMut(u64), b: &[u8]| {
            h(b.len() as u64);
            b.chunks(8).for_each(|c| {
                let mut w = [0u8; 8];
                w[..c.len()].copy_from_slice(c);
                h(u64::from_le_bytes(w));
            });
        };
        for imgs in self.preload_images().iter().chain(&self.replica_images()) {
            imgs.iter().for_each(|b| bytes(&mut eat, b));
        }
        for (name, rec) in self.snapshot_records() {
            bytes(&mut eat, name.as_bytes());
            bytes(&mut eat, &rec);
        }
        h
    }
}

/// An engine configured the way `fcds-server` builds a non-default
/// stream (`lg_k` 12, one writer, writer-assisted propagation).
pub fn build_engine(family: SketchFamily) -> Box<dyn StreamEngine> {
    let backend = PropagationBackendKind::WriterAssisted;
    match family {
        SketchFamily::Theta => EngineBuilder::<ThetaFamily>::new()
            .accuracy(12)
            .backend(backend)
            .build_boxed(),
        SketchFamily::Hll => EngineBuilder::<HllFamily>::new()
            .backend(backend)
            .build_boxed(),
        SketchFamily::Quantiles => EngineBuilder::<QuantilesFamily<u64>>::new()
            .backend(backend)
            .build_boxed(),
        SketchFamily::Frequency => EngineBuilder::<FrequencyFamily<u64>>::new()
            .backend(backend)
            .build_boxed(),
    }
    .expect("the server's engine configuration is valid")
}

/// The stream keys of a spec, for display.
pub fn stream_names(streams: &[StreamSpec]) -> String {
    streams
        .iter()
        .map(|s| format!("{}:{}", s.key, s.family.name()))
        .collect::<Vec<_>>()
        .join(",")
}
