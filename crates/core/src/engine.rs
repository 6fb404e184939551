//! The family-generic engine seam: one trait surface over all four
//! concurrent sketches, plus the one builder that constructs them.
//!
//! The multi-stream service hosts many engines of mixed families behind
//! per-key routing, and the code doing that routing must not care which
//! family a stream is — so this module defines:
//!
//! * [`WireImage`] — the one-method trait every concurrent sketch
//!   implements to export its mergeable wire envelope
//!   (`fcds_sketches::wire`). Replica sync and registry code call it
//!   family-generically; the fan-in kernels on the receiving side do
//!   the family dispatch from the envelope's own header.
//! * [`EngineWriter`] / [`StreamEngine`] — the object-safe pair the
//!   server's per-stream workers are written against: a `StreamEngine`
//!   is a running engine ingesting `u64` stream items (the service's
//!   item type; Θ/HLL hash them, Quantiles/Misra–Gries take them as
//!   values), and each worker thread owns one `EngineWriter` obtained
//!   from it.
//! * [`Family`] + [`EngineBuilder`] — the one construction entry: the
//!   shared [`ConcurrencyConfig`] knobs (writers, shards, backend,
//!   error budget…) are set once on `EngineBuilder<F>` for any family
//!   `F`, with one family-interpreted [`accuracy`](EngineBuilder::accuracy)
//!   knob. Each [`Family::build`] constructs the family's global sketch
//!   and starts it with [`ConcurrentSketch::start`].

use crate::config::{ConcurrencyConfig, PropagationBackendKind};
use crate::frequency::{ConcurrentFrequencySketch, FrequencyGlobal, FrequencyWriter};
use crate::hll::{ConcurrentHllSketch, HllGlobal, HllWriter};
use crate::quantiles::{ConcurrentQuantilesSketch, QuantilesGlobal, QuantilesWriter};
use crate::runtime::{ConcurrentSketch, EngineStats, FlushError};
use crate::theta::{ConcurrentThetaSketch, ThetaGlobal, ThetaWriter};
use bytes::Bytes;
use fcds_sketches::error::{Result, SketchError};
use fcds_sketches::hash::DEFAULT_SEED;
use fcds_sketches::wire::SketchFamily;
use std::marker::PhantomData;

/// Export of a sketch's mergeable state as a versioned wire envelope.
///
/// Every concurrent sketch implements this; the envelope's header
/// carries the family code, so a consumer can stay family-generic and
/// let `fcds_sketches::wire::peek` plus the multiway fan-in kernels do
/// the dispatch. Replica sync is exactly this: a timer calling
/// `wire_image()` on each stream's own engine and shipping the bytes to
/// the peer, which keeps the newest image per source as a replica.
pub trait WireImage {
    /// Serialises the current published state into one wire envelope.
    fn wire_image(&self) -> Bytes;
}

/// A per-thread ingest handle for a [`StreamEngine`], object-safe so a
/// server worker can own "a writer" without knowing the family.
///
/// Items are `u64` stream elements: Θ and HLL hash them, Quantiles and
/// Misra–Gries treat them as values. Buffered updates become durable at
/// [`flush`](Self::flush); a failed flush is the engine-level fault
/// signal (dead propagator) and the writer should be retired.
pub trait EngineWriter: Send {
    /// Buffers (and opportunistically propagates) a batch of items.
    fn ingest_batch(&mut self, items: &[u64]);
    /// Makes all buffered updates durable.
    ///
    /// # Errors
    ///
    /// [`FlushError`] when the engine's propagation service died; the
    /// writer is permanently broken and must be discarded.
    fn flush(&mut self) -> std::result::Result<(), FlushError>;
}

/// An object-safe running concurrent sketch, the unit the server's
/// stream registry maps keys onto.
///
/// The five capabilities are exactly what the service needs per stream:
/// spawn writers (ingest-batch + flush via [`EngineWriter`]), export a
/// mergeable image ([`WireImage`], a supertrait), serve a scalar
/// estimate where the family has one, quiesce at drain, and report
/// engine-level drain statistics.
///
/// # Examples
///
/// Code that must not care about the family holds engines as
/// `Box<dyn StreamEngine>`, built with [`EngineBuilder::build_boxed`]:
///
/// ```
/// use fcds_core::engine::{EngineBuilder, QuantilesFamily, StreamEngine, ThetaFamily};
///
/// let engines: Vec<Box<dyn StreamEngine>> = vec![
///     EngineBuilder::<ThetaFamily>::new().build_boxed().unwrap(),
///     EngineBuilder::<QuantilesFamily>::new().build_boxed().unwrap(),
/// ];
/// let items: Vec<u64> = (0..1_000).collect();
/// for engine in &engines {
///     let mut w = engine.writer();
///     w.ingest_batch(&items);
///     w.flush().unwrap();
///     engine.quiesce();
///     assert!(!engine.wire_image().is_empty());
/// }
/// assert_eq!(engines[0].estimate(), Some(1_000.0));
/// assert_eq!(engines[1].estimate(), None);
/// ```
pub trait StreamEngine: WireImage + Send + Sync {
    /// The wire family this engine speaks.
    fn family(&self) -> SketchFamily;
    /// Registers a new update thread.
    fn writer(&self) -> Box<dyn EngineWriter>;
    /// The scalar estimate, for families that define one (Θ and HLL
    /// distinct counts); `None` for Quantiles/Misra–Gries, whose
    /// queries go through the wire image.
    fn estimate(&self) -> Option<f64>;
    /// Merges every handed-off buffer and republishes images.
    fn quiesce(&self);
    /// Engine-level diagnostic counters (merges, hand-offs, eager
    /// updates…), reported at drain.
    fn stats(&self) -> EngineStats;
}

impl EngineWriter for ThetaWriter {
    fn ingest_batch(&mut self, items: &[u64]) {
        self.update_batch(items);
    }

    fn flush(&mut self) -> std::result::Result<(), FlushError> {
        ThetaWriter::flush(self)
    }
}

impl EngineWriter for HllWriter {
    fn ingest_batch(&mut self, items: &[u64]) {
        self.update_batch(items);
    }

    fn flush(&mut self) -> std::result::Result<(), FlushError> {
        HllWriter::flush(self)
    }
}

impl EngineWriter for QuantilesWriter<u64> {
    fn ingest_batch(&mut self, items: &[u64]) {
        self.update_batch(items);
    }

    fn flush(&mut self) -> std::result::Result<(), FlushError> {
        QuantilesWriter::flush(self)
    }
}

impl EngineWriter for FrequencyWriter<u64> {
    fn ingest_batch(&mut self, items: &[u64]) {
        self.update_batch(items);
    }

    fn flush(&mut self) -> std::result::Result<(), FlushError> {
        FrequencyWriter::flush(self)
    }
}

impl StreamEngine for ConcurrentThetaSketch {
    fn family(&self) -> SketchFamily {
        SketchFamily::Theta
    }

    fn writer(&self) -> Box<dyn EngineWriter> {
        Box::new(ConcurrentThetaSketch::writer(self))
    }

    fn estimate(&self) -> Option<f64> {
        Some(ConcurrentThetaSketch::estimate(self))
    }

    fn quiesce(&self) {
        ConcurrentThetaSketch::quiesce(self);
    }

    fn stats(&self) -> EngineStats {
        ConcurrentThetaSketch::stats(self)
    }
}

impl StreamEngine for ConcurrentHllSketch {
    fn family(&self) -> SketchFamily {
        SketchFamily::Hll
    }

    fn writer(&self) -> Box<dyn EngineWriter> {
        Box::new(ConcurrentHllSketch::writer(self))
    }

    fn estimate(&self) -> Option<f64> {
        Some(ConcurrentHllSketch::estimate(self))
    }

    fn quiesce(&self) {
        ConcurrentHllSketch::quiesce(self);
    }

    fn stats(&self) -> EngineStats {
        ConcurrentHllSketch::stats(self)
    }
}

impl StreamEngine for ConcurrentQuantilesSketch<u64> {
    fn family(&self) -> SketchFamily {
        SketchFamily::Quantiles
    }

    fn writer(&self) -> Box<dyn EngineWriter> {
        Box::new(ConcurrentQuantilesSketch::writer(self))
    }

    fn estimate(&self) -> Option<f64> {
        None
    }

    fn quiesce(&self) {
        ConcurrentQuantilesSketch::quiesce(self);
    }

    fn stats(&self) -> EngineStats {
        ConcurrentQuantilesSketch::stats(self)
    }
}

impl StreamEngine for ConcurrentFrequencySketch<u64> {
    fn family(&self) -> SketchFamily {
        SketchFamily::Frequency
    }

    fn writer(&self) -> Box<dyn EngineWriter> {
        Box::new(ConcurrentFrequencySketch::writer(self))
    }

    fn estimate(&self) -> Option<f64> {
        None
    }

    fn quiesce(&self) {
        ConcurrentFrequencySketch::quiesce(self);
    }

    fn stats(&self) -> EngineStats {
        ConcurrentFrequencySketch::stats(self)
    }
}

/// A sketch family [`EngineBuilder`] can construct: the associated
/// engine type, the wire family code, and how the one `accuracy` knob
/// maps onto the family's sizing parameter.
pub trait Family {
    /// The concurrent sketch this family builds.
    type Engine;
    /// The wire-format family code of [`Self::Engine`]'s images.
    const FAMILY: SketchFamily;
    /// Default for [`EngineBuilder::accuracy`].
    const DEFAULT_ACCURACY: usize;
    /// Builds and starts an engine.
    ///
    /// # Errors
    ///
    /// Invalid accuracy parameter or [`ConcurrencyConfig`] (surfaced
    /// from the underlying sketch constructor).
    fn build(accuracy: usize, seed: u64, config: ConcurrencyConfig) -> Result<Self::Engine>;
}

/// Narrows a log-size `accuracy` (Θ's `lg_k`, HLL's `lg_m`) to `u8`;
/// the sketch constructor then checks its own range.
fn accuracy_u8(accuracy: usize) -> Result<u8> {
    u8::try_from(accuracy)
        .map_err(|_| SketchError::invalid("accuracy", format!("must fit in u8, got {accuracy}")))
}

/// Θ family marker: `accuracy` is `lg_k`, `seed` the hash seed.
#[derive(Debug, Clone, Copy)]
pub struct ThetaFamily;

impl Family for ThetaFamily {
    type Engine = ConcurrentThetaSketch;
    const FAMILY: SketchFamily = SketchFamily::Theta;
    const DEFAULT_ACCURACY: usize = 12;

    fn build(accuracy: usize, seed: u64, config: ConcurrencyConfig) -> Result<Self::Engine> {
        let lg_k = accuracy_u8(accuracy)?;
        let inner = ConcurrentSketch::start(ThetaGlobal::new(lg_k, seed)?, config)?;
        Ok(ConcurrentThetaSketch { inner, lg_k, seed })
    }
}

/// HLL family marker: `accuracy` is `lg_m`, `seed` the hash seed.
#[derive(Debug, Clone, Copy)]
pub struct HllFamily;

impl Family for HllFamily {
    type Engine = ConcurrentHllSketch;
    const FAMILY: SketchFamily = SketchFamily::Hll;
    const DEFAULT_ACCURACY: usize = 12;

    fn build(accuracy: usize, seed: u64, config: ConcurrencyConfig) -> Result<Self::Engine> {
        let global = HllGlobal::new(accuracy_u8(accuracy)?, seed)?;
        let inner = ConcurrentSketch::start(global, config)?;
        Ok(ConcurrentHllSketch { inner, seed })
    }
}

/// Quantiles family marker: `accuracy` is the sketch parameter `k`,
/// `seed` seeds the de-randomisation oracle. Generic over the item
/// type; the service instantiates `T = u64`.
#[derive(Debug, Clone, Copy)]
pub struct QuantilesFamily<T = u64>(PhantomData<T>);

impl<T: Ord + Clone + Send + Sync + 'static> Family for QuantilesFamily<T> {
    type Engine = ConcurrentQuantilesSketch<T>;
    const FAMILY: SketchFamily = SketchFamily::Quantiles;
    const DEFAULT_ACCURACY: usize = 128;

    fn build(accuracy: usize, seed: u64, config: ConcurrencyConfig) -> Result<Self::Engine> {
        let inner = ConcurrentSketch::start(QuantilesGlobal::new(accuracy, seed)?, config)?;
        Ok(ConcurrentQuantilesSketch::wrap(inner, accuracy))
    }
}

/// Misra–Gries family marker: `accuracy` is the counter budget `k`;
/// `seed` is unused (the sketch is deterministic). Generic over the
/// item type; the service instantiates `T = u64`.
#[derive(Debug, Clone, Copy)]
pub struct FrequencyFamily<T = u64>(PhantomData<T>);

impl<T: Eq + std::hash::Hash + Clone + Send + Sync + 'static> Family for FrequencyFamily<T> {
    type Engine = ConcurrentFrequencySketch<T>;
    const FAMILY: SketchFamily = SketchFamily::Frequency;
    const DEFAULT_ACCURACY: usize = 64;

    fn build(accuracy: usize, _seed: u64, config: ConcurrencyConfig) -> Result<Self::Engine> {
        let inner = ConcurrentSketch::start(FrequencyGlobal::new(accuracy)?, config)?;
        Ok(ConcurrentFrequencySketch { inner, k: accuracy })
    }
}

/// The unified builder: one entry point for all four families, sharing
/// the [`ConcurrencyConfig`] knobs instead of duplicating them per
/// family.
///
/// # Examples
///
/// ```
/// use fcds_core::engine::{EngineBuilder, HllFamily, ThetaFamily};
///
/// // Same concurrency shape, two families — set the shared knobs once
/// // per engine, vary only the family parameter.
/// let theta = EngineBuilder::<ThetaFamily>::new()
///     .accuracy(12) // lg_k
///     .writers(2)
///     .build()
///     .unwrap();
/// let hll = EngineBuilder::<HllFamily>::new()
///     .accuracy(12) // lg_m
///     .writers(2)
///     .build()
///     .unwrap();
/// let (mut tw, mut hw) = (theta.writer(), hll.writer());
/// for i in 0..50_000u64 {
///     tw.update(i);
///     hw.update(i);
/// }
/// tw.flush().unwrap();
/// hw.flush().unwrap();
/// theta.quiesce();
/// hll.quiesce();
/// assert!((theta.estimate() - 50_000.0).abs() / 50_000.0 < 0.05);
/// assert!((hll.estimate() - 50_000.0).abs() / 50_000.0 < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder<F: Family> {
    accuracy: usize,
    seed: u64,
    config: ConcurrencyConfig,
    _family: PhantomData<F>,
}

impl<F: Family> Default for EngineBuilder<F> {
    fn default() -> Self {
        EngineBuilder {
            accuracy: F::DEFAULT_ACCURACY,
            seed: DEFAULT_SEED,
            config: ConcurrencyConfig::default(),
            _family: PhantomData,
        }
    }
}

impl<F: Family> EngineBuilder<F> {
    /// Starts from the family's defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the family's accuracy parameter: `lg_k` (Θ), `lg_m` (HLL),
    /// or `k` (Quantiles, Misra–Gries).
    pub fn accuracy(mut self, accuracy: usize) -> Self {
        self.accuracy = accuracy;
        self
    }

    /// Sets the seed: the hash seed (Θ, HLL), the oracle seed
    /// (Quantiles); ignored by the deterministic Misra–Gries.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the expected number of update threads `N`.
    pub fn writers(mut self, writers: usize) -> Self {
        self.config.writers = writers;
        self
    }

    /// Sets the maximum relative error attributable to concurrency
    /// (`e`, §7.1). `1.0` disables the eager phase.
    pub fn max_concurrency_error(mut self, e: f64) -> Self {
        self.config.max_concurrency_error = e;
        self
    }

    /// Caps the local buffer size `b`.
    pub fn max_buffer_size(mut self, b: u64) -> Self {
        self.config.max_buffer_size = b;
        self
    }

    /// Selects `OptParSketch` (true, default) or the unoptimised
    /// `ParSketch` (false).
    pub fn double_buffering(mut self, enabled: bool) -> Self {
        self.config.double_buffering = enabled;
        self
    }

    /// Splits the global sketch into `K` shards: writers are
    /// round-robined onto shards and queries merge the shard views
    /// losslessly. `r = 2Nb` is unchanged.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Selects the propagation backend.
    pub fn backend(mut self, backend: PropagationBackendKind) -> Self {
        self.config.backend = backend;
        self
    }

    /// Publishes each shard's mergeable image only on every `m`-th
    /// merge (default 1; see [`ConcurrencyConfig::image_every`]). Θ and
    /// HLL skip image publication in between; Quantiles publishes its
    /// ladder on every merge, so there the knob adds no staleness, though
    /// `query_relaxation` still reports the conservative bound.
    pub fn image_every(mut self, m: u64) -> Self {
        self.config.image_every = m;
        self
    }

    /// Ablation: disables the pre-filter hint. Benchmarking only.
    pub fn disable_prefilter(mut self, disabled: bool) -> Self {
        self.config.disable_prefilter = disabled;
        self
    }

    /// Overrides the full concurrency configuration.
    pub fn config(mut self, config: ConcurrencyConfig) -> Self {
        self.config = config;
        self
    }

    /// Builds and starts the engine.
    ///
    /// # Errors
    ///
    /// Invalid accuracy parameter or concurrency configuration.
    pub fn build(self) -> Result<F::Engine> {
        F::build(self.accuracy, self.seed, self.config)
    }

    /// Builds and starts the engine behind the object-safe
    /// [`StreamEngine`] interface — what the server's stream registry
    /// stores.
    ///
    /// # Errors
    ///
    /// Same as [`Self::build`].
    pub fn build_boxed(self) -> Result<Box<dyn StreamEngine>>
    where
        F::Engine: StreamEngine + 'static,
    {
        Ok(Box::new(self.build()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(engine: &dyn StreamEngine, items: std::ops::Range<u64>) {
        let batch: Vec<u64> = items.collect();
        let mut w = engine.writer();
        w.ingest_batch(&batch);
        w.flush().unwrap();
        engine.quiesce();
    }

    #[test]
    fn all_four_families_build_behind_the_object_safe_trait() {
        let engines: Vec<Box<dyn StreamEngine>> = vec![
            EngineBuilder::<ThetaFamily>::new().build_boxed().unwrap(),
            EngineBuilder::<HllFamily>::new().build_boxed().unwrap(),
            EngineBuilder::<QuantilesFamily>::new()
                .build_boxed()
                .unwrap(),
            EngineBuilder::<FrequencyFamily>::new()
                .build_boxed()
                .unwrap(),
        ];
        let expected = [
            SketchFamily::Theta,
            SketchFamily::Hll,
            SketchFamily::Quantiles,
            SketchFamily::Frequency,
        ];
        for (engine, fam) in engines.iter().zip(expected) {
            assert_eq!(engine.family(), fam);
            drive(engine.as_ref(), 0..10_000);
            // Every family exports a decodable image of its own family.
            let img = engine.wire_image();
            let peeked = fcds_sketches::wire::peek(&img, u64::MAX).unwrap();
            assert_eq!(peeked.family, fam);
            // Scalar estimates exist exactly for the counting families.
            match fam {
                SketchFamily::Theta | SketchFamily::Hll => {
                    let est = engine.estimate().expect("counting family");
                    assert!((est - 10_000.0).abs() / 10_000.0 < 0.1);
                }
                _ => assert!(engine.estimate().is_none()),
            }
            // Drain stats flow through the trait.
            assert!(engine.stats().handoffs + engine.stats().eager_updates > 0);
        }
    }

    #[test]
    fn shared_knobs_apply_to_every_family() {
        // A config error (shards > writers) must surface identically
        // through the unified builder for any family.
        assert!(EngineBuilder::<ThetaFamily>::new()
            .writers(1)
            .shards(4)
            .build()
            .is_err());
        assert!(EngineBuilder::<QuantilesFamily>::new()
            .writers(1)
            .shards(4)
            .build()
            .is_err());

        // Every shared knob reaches the engine of every family. In the
        // first config `e` sets `b`, in the second `max_buffer_size` caps
        // it; `shards` and `image_every` show in the query bound.
        fn knobs<F: Family>(e: f64, max_b: u64) -> F::Engine {
            EngineBuilder::<F>::new()
                .writers(4)
                .shards(2)
                .max_buffer_size(max_b)
                .max_concurrency_error(e)
                .image_every(3)
                .build()
                .unwrap()
        }
        for (e, max_b) in [(0.1, 64), (1.0, 8)] {
            let config = ConcurrencyConfig {
                writers: 4,
                shards: 2,
                max_buffer_size: max_b,
                max_concurrency_error: e,
                image_every: 3,
                ..ConcurrencyConfig::default()
            };
            let r = config.relaxation();
            let qr = config.query_relaxation();
            assert!(qr > r, "image_every must widen the query bound");
            let theta = knobs::<ThetaFamily>(e, max_b);
            assert_eq!((theta.relaxation(), theta.query_relaxation()), (r, qr));
            let quantiles = knobs::<QuantilesFamily>(e, max_b);
            assert_eq!(
                (quantiles.relaxation(), quantiles.query_relaxation()),
                (r, qr)
            );
            assert_eq!(knobs::<HllFamily>(e, max_b).relaxation(), r);
            assert_eq!(knobs::<FrequencyFamily>(e, max_b).relaxation(), r);
        }
    }

    #[test]
    fn out_of_range_log_accuracy_is_an_error() {
        // `as u8` would wrap these onto valid sizes (268 → lg_k 12,
        // 266 → lg_m 10).
        for err in [
            EngineBuilder::<ThetaFamily>::new()
                .accuracy(268)
                .build()
                .map(|_| ()),
            EngineBuilder::<HllFamily>::new()
                .accuracy(266)
                .build()
                .map(|_| ()),
        ] {
            assert!(matches!(
                err,
                Err(SketchError::InvalidParameter {
                    name: "accuracy",
                    ..
                })
            ));
        }
    }
}
