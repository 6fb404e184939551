//! The generator's exact oracle and the end-of-run correctness check.
//!
//! Distinct workloads never repeat an item, so their exact distinct
//! count is the number of items acked plus the items behind the fixed
//! images. Zipf workloads keep, per stream, the set of keys seen and —
//! for Misra–Gries streams — each key's exact count.

use crate::gen::Generator;
use fcds_sketches::wire::{MgWireView, SketchFamily};

/// Relative error envelope of a distinct-count answer: five standard
/// errors of the server's sketch (Θ with k = 2^12: 1/√k; HLL with
/// 2^12 registers: 1.04/√m).
pub fn envelope(family: SketchFamily) -> f64 {
    match family {
        SketchFamily::Theta => 5.0 / 64.0,
        SketchFamily::Hll => 5.0 * 1.04 / 64.0,
        _ => 0.0,
    }
}

enum Keys {
    /// Items never repeat: distinct = fixed + acked.
    Distinct { fixed: u64 },
    /// Zipf ranks seen (bitset over `1..=keys`) and, for Misra–Gries
    /// streams, per-rank counts.
    Zipf {
        seen: Vec<u64>,
        counts: Option<Vec<u32>>,
    },
}

/// Exact per-stream ground truth, updated by the writer on every ack.
pub struct Oracle {
    keys: Vec<Keys>,
}

impl Oracle {
    /// The oracle before any live ingest: preload, replica and
    /// snapshot images already counted.
    pub fn new(gen: &Generator) -> Oracle {
        let spec = &gen.spec;
        let keys = spec
            .streams
            .iter()
            .enumerate()
            .map(|(s, st)| match spec.items {
                crate::workload::Items::Distinct => Keys::Distinct {
                    fixed: ((spec.preload + spec.replicas) * spec.image_items) as u64,
                },
                crate::workload::Items::Zipf { keys, .. } => {
                    let mut k = Keys::Zipf {
                        seen: vec![0u64; (keys as usize + 1).div_ceil(64)],
                        counts: (st.family == SketchFamily::Frequency)
                            .then(|| vec![0u32; keys as usize + 1]),
                    };
                    if spec.snapshots {
                        k.observe(&gen.snapshot_ranks(s));
                    }
                    k
                }
            })
            .collect();
        Oracle { keys }
    }

    /// Counts an acked batch's Zipf ranks (a no-op for distinct items).
    pub fn observe(&mut self, stream: usize, ranks: &[u64]) {
        self.keys[stream].observe(ranks);
    }

    /// Exact distinct items in `stream`, given `acked` live items.
    pub fn distinct(&self, stream: usize, acked: u64) -> u64 {
        match &self.keys[stream] {
            Keys::Distinct { fixed } => fixed + acked,
            Keys::Zipf { seen, .. } => seen.iter().map(|w| w.count_ones() as u64).sum(),
        }
    }

    /// Checks a Misra–Gries image: every key whose exact count exceeds
    /// `n / (k + 1)` must hold a counter. Returns the missing count.
    pub fn missing_heavy_hitters(
        &self,
        gen: &Generator,
        stream: usize,
        image: &[u8],
    ) -> Option<u64> {
        let view = MgWireView::<u64>::parse(image).ok()?;
        let threshold = view.n() / (view.k() + 1);
        let present: std::collections::HashSet<u64> = view.entries().map(|(k, _)| k).collect();
        Some(match &self.keys[stream] {
            // Every item occurs once, so none exceeds n/(k+1) once n > k
            // (preload and warm-up alone put n far above k).
            Keys::Distinct { .. } => 0,
            Keys::Zipf { counts, .. } => counts
                .as_ref()?
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c as u64 > threshold)
                .filter(|&(r, _)| !present.contains(&gen.zipf_item(r as u64)))
                .count() as u64,
        })
    }
}

impl Keys {
    fn observe(&mut self, ranks: &[u64]) {
        if let Keys::Zipf { seen, counts } = self {
            for &r in ranks {
                seen[(r / 64) as usize] |= 1 << (r % 64);
                if let Some(c) = counts {
                    c[r as usize] += 1;
                }
            }
        }
    }
}
