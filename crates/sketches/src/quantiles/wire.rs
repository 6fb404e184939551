//! Wire form of the *updatable* Quantiles sketch.
//!
//! The unified [`crate::wire`] module owns the envelope (16-byte header)
//! and the merge-tier *ladder* image; this module serialises the full
//! updatable sketch state — level array keyed by `k`, base buffer,
//! min/max — so a deserialised sketch can keep ingesting. Both forms
//! share the Quantiles family code and are told apart by
//! [`FLAG_QUANTILES_UPDATABLE`] (set here, clear for ladders).
//!
//! Payload layout (little-endian, after the envelope header):
//! `k(u32) | base_len(u32) | n(u64) | level_bitmap(u64) |
//!  min | max | base items… | full-level buffers (ascending level)…`
//! with `min`/`max` present iff the stream is non-empty
//! ([`FLAG_QUANTILES_NONEMPTY`]).

use super::sketch::QuantilesSketch;
use crate::error::{Result, WireError};
use crate::oracle::Oracle;
use crate::wire::view::family_check;
pub use crate::wire::WireItem;
use crate::wire::{SketchFamily, WireHeader, FLAG_QUANTILES_NONEMPTY, FLAG_QUANTILES_UPDATABLE};
use bytes::{Buf, Bytes, BytesMut};

const UPDATABLE_FIXED: u64 = 24;

/// See [`crate::wire`]: the updatable form shares the Quantiles family
/// envelope, distinguished by [`FLAG_QUANTILES_UPDATABLE`].
impl<T: Ord + Clone + WireItem> crate::wire::WireSketch for QuantilesSketch<T> {
    const FAMILY: SketchFamily = SketchFamily::Quantiles;
}

impl<T: Ord + Clone + WireItem> crate::wire::WireEncode for QuantilesSketch<T> {
    fn wire_flags(&self) -> u8 {
        let nonempty = if self.n() > 0 {
            FLAG_QUANTILES_NONEMPTY
        } else {
            0
        };
        FLAG_QUANTILES_UPDATABLE | nonempty
    }

    fn wire_item_width(&self) -> u8 {
        T::WIDTH as u8
    }

    fn encode_payload(&self, buf: &mut BytesMut) {
        use bytes::BufMut;
        let (k, n, base, levels, min, max) = self.wire_parts();
        buf.put_u32_le(k as u32);
        buf.put_u32_le(base.len() as u32);
        buf.put_u64_le(n);
        let mut bitmap = 0u64;
        for (i, level) in levels.iter().enumerate() {
            if !level.is_empty() {
                bitmap |= 1 << i;
            }
        }
        buf.put_u64_le(bitmap);
        if n > 0 {
            min.expect("non-empty sketch has min").write_to(buf);
            max.expect("non-empty sketch has max").write_to(buf);
        }
        for item in base {
            item.write_to(buf);
        }
        for level in levels.iter().filter(|l| !l.is_empty()) {
            for item in level.iter() {
                item.write_to(buf);
            }
        }
    }

    fn payload_size_hint(&self) -> Option<usize> {
        let (_, n, base, levels, _, _) = self.wire_parts();
        let min_max = if n > 0 { 2 * T::WIDTH } else { 0 };
        let level_items: usize = levels.iter().map(|l| l.len()).sum();
        Some(UPDATABLE_FIXED as usize + min_max + (base.len() + level_items) * T::WIDTH)
    }
}

impl<T: Ord + Clone + WireItem> QuantilesSketch<T> {
    /// Serialises the full updatable state into the unified wire format
    /// (Quantiles family, [`FLAG_QUANTILES_UPDATABLE`] set).
    pub fn to_bytes(&self) -> Bytes {
        crate::wire::WireEncode::to_wire_bytes(self)
    }

    /// Deserialises a sketch produced by [`Self::to_bytes`], attaching a
    /// fresh oracle for future compactions.
    ///
    /// # Errors
    ///
    /// Returns the [`WireError`] folded into
    /// [`crate::error::SketchError`] on structural damage (bad
    /// magic/version, truncation, level buffers of the wrong size, or a
    /// weight mismatch against `n`).
    pub fn from_bytes(data: &[u8], oracle: impl Oracle + 'static) -> Result<Self> {
        Ok(Self::decode_updatable(data, oracle)?)
    }

    fn decode_updatable(
        data: &[u8],
        oracle: impl Oracle + 'static,
    ) -> std::result::Result<Self, WireError> {
        let (header, mut payload) = WireHeader::parse(data)?;
        family_check(&header, SketchFamily::Quantiles)?;
        if header.flags & FLAG_QUANTILES_UPDATABLE == 0 {
            return Err(WireError::invariant(
                "quantiles flags",
                "image is a ladder, not an updatable sketch \
                 (use QuantilesLadder::from_wire_bytes)",
            ));
        }
        if header.item_width as usize != T::WIDTH {
            return Err(WireError::ItemWidth {
                expected: T::WIDTH as u8,
                found: header.item_width,
            });
        }
        if (payload.len() as u64) < UPDATABLE_FIXED {
            return Err(WireError::Truncated {
                context: "quantiles payload",
                needed: UPDATABLE_FIXED as usize,
                have: payload.len(),
            });
        }
        let k = payload.get_u32_le() as usize;
        let base_len = payload.get_u32_le() as usize;
        let n = payload.get_u64_le();
        let bitmap = payload.get_u64_le();
        if k < 2 {
            return Err(WireError::invariant("quantiles k", "k < 2"));
        }
        if base_len >= 2 * k {
            return Err(WireError::invariant(
                "quantiles base",
                format!("base buffer of {base_len} items at k = {k}"),
            ));
        }
        let non_empty = header.flags & FLAG_QUANTILES_NONEMPTY != 0;
        if non_empty != (n > 0) {
            return Err(WireError::invariant(
                "quantiles flags",
                "non-empty flag inconsistent with n",
            ));
        }

        let levels_count = 64 - bitmap.leading_zeros() as usize;
        let full_levels = bitmap.count_ones() as u64;
        // k ≤ 2^32 and ≤ 64 full levels: no overflow in u64.
        let need_items = base_len as u64 + full_levels * k as u64 + if non_empty { 2 } else { 0 };
        if UPDATABLE_FIXED + need_items * T::WIDTH as u64 != header.payload_len {
            return Err(WireError::invariant(
                "quantiles size",
                format!(
                    "structure needs {} payload bytes, header carries {}",
                    UPDATABLE_FIXED + need_items * T::WIDTH as u64,
                    header.payload_len
                ),
            ));
        }

        let (min, max) = if non_empty {
            let min = T::read_from(&mut payload);
            let max = T::read_from(&mut payload);
            if min > max {
                return Err(WireError::invariant("quantiles min/max", "min above max"));
            }
            (Some(min), Some(max))
        } else {
            (None, None)
        };
        let in_range = |item: &T| match (&min, &max) {
            (Some(lo), Some(hi)) => item >= lo && item <= hi,
            _ => false,
        };
        let base: Vec<T> = (0..base_len).map(|_| T::read_from(&mut payload)).collect();
        if !base.iter().all(in_range) {
            return Err(WireError::invariant(
                "quantiles base",
                "base item outside [min, max]",
            ));
        }
        let mut levels: Vec<Vec<T>> = Vec::with_capacity(levels_count);
        for i in 0..levels_count {
            if bitmap & (1 << i) != 0 {
                let buf: Vec<T> = (0..k).map(|_| T::read_from(&mut payload)).collect();
                if buf.windows(2).any(|w| w[0] > w[1]) {
                    return Err(WireError::invariant(
                        "quantiles level",
                        format!("level {i} not sorted"),
                    ));
                }
                if ![buf.first(), buf.last()]
                    .into_iter()
                    .flatten()
                    .all(in_range)
                {
                    return Err(WireError::invariant(
                        "quantiles level",
                        format!("level {i} item outside [min, max]"),
                    ));
                }
                levels.push(buf);
            } else {
                levels.push(Vec::new());
            }
        }

        // Weight invariant: n must equal the summed buffer weight.
        let mut total = base_len as u64;
        for (i, level) in levels.iter().enumerate() {
            total += (level.len() as u64) << (i + 1);
        }
        if total != n {
            return Err(WireError::invariant(
                "quantiles weight",
                format!("buffers carry {total}, header says {n}"),
            ));
        }

        QuantilesSketch::from_wire_parts(k, n, base, levels, min, max, oracle)
            .map_err(|e| WireError::invariant("quantiles parts", e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::DeterministicOracle;
    use crate::quantiles::TotalF64;

    fn filled(k: usize, n: u64) -> QuantilesSketch<u64> {
        let mut q = QuantilesSketch::with_seed(k, 9).unwrap();
        for i in 0..n {
            q.update(i);
        }
        q
    }

    #[test]
    fn round_trip_preserves_queries() {
        for n in [0u64, 1, 100, 255, 256, 10_000] {
            let q = filled(128, n);
            let bytes = q.to_bytes();
            let back =
                QuantilesSketch::<u64>::from_bytes(&bytes, DeterministicOracle::new(1)).unwrap();
            assert_eq!(back.n(), n);
            assert!(back.check_weight_invariant());
            for phi in [0.0, 0.25, 0.5, 0.75, 1.0] {
                assert_eq!(back.quantile(phi), q.quantile(phi), "n={n} phi={phi}");
            }
        }
    }

    #[test]
    fn round_trip_is_byte_identical() {
        for n in [0u64, 1, 4_096, 10_000] {
            let q = filled(64, n);
            let bytes = q.to_bytes();
            let back =
                QuantilesSketch::<u64>::from_bytes(&bytes, DeterministicOracle::new(1)).unwrap();
            assert_eq!(back.to_bytes(), bytes, "n={n}");
        }
    }

    #[test]
    fn round_trip_total_f64() {
        let mut q = QuantilesSketch::<TotalF64>::with_seed(64, 3).unwrap();
        for i in 0..5_000 {
            q.update(TotalF64(i as f64 * 0.5));
        }
        let back =
            QuantilesSketch::<TotalF64>::from_bytes(&q.to_bytes(), DeterministicOracle::new(2))
                .unwrap();
        assert_eq!(back.quantile(0.5), q.quantile(0.5));
        assert_eq!(back.min_item(), q.min_item());
        assert_eq!(back.max_item(), q.max_item());
    }

    #[test]
    fn deserialised_sketch_keeps_ingesting() {
        let q = filled(32, 1_000);
        let mut back =
            QuantilesSketch::<u64>::from_bytes(&q.to_bytes(), DeterministicOracle::new(5)).unwrap();
        for i in 1_000..20_000 {
            back.update(i);
        }
        assert!(back.check_weight_invariant());
        let med = back.quantile(0.5).unwrap();
        assert!((med as f64 - 10_000.0).abs() < 2_000.0, "median {med}");
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut b = filled(16, 100).to_bytes().to_vec();
        b[0] ^= 0xFF;
        assert!(QuantilesSketch::<u64>::from_bytes(&b, DeterministicOracle::new(0)).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let b = filled(16, 1_000).to_bytes();
        assert!(
            QuantilesSketch::<u64>::from_bytes(&b[..b.len() - 3], DeterministicOracle::new(0))
                .is_err()
        );
        assert!(QuantilesSketch::<u64>::from_bytes(&b[..10], DeterministicOracle::new(0)).is_err());
    }

    #[test]
    fn weight_mismatch_rejected() {
        let mut b = filled(16, 1_000).to_bytes().to_vec();
        // Corrupt n: envelope (16) + k/base_len (8) puts n at offset 24.
        b[24] ^= 0x01;
        assert!(QuantilesSketch::<u64>::from_bytes(&b, DeterministicOracle::new(0)).is_err());
    }

    #[test]
    fn unsorted_level_rejected() {
        let q = filled(16, 1_000); // guarantees at least one full level
        let mut b = q.to_bytes().to_vec();
        // Levels are the tail of the payload; swap the last two items,
        // which belong to the highest level and are sorted.
        let len = b.len();
        for i in 0..8 {
            b.swap(len - 16 + i, len - 8 + i);
        }
        assert!(QuantilesSketch::<u64>::from_bytes(&b, DeterministicOracle::new(0)).is_err());
    }
}
