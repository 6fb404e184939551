//! HyperLogLog distinct-count sketch.
//!
//! The paper's artifact appendix lists HLL among the evaluated algorithms
//! and §8 points to "other sketches" as future work for the concurrent
//! framework; we implement a standard HLL (Flajolet et al. 2007 estimator
//! with the linear-counting small-range correction of HLL++) so that
//! `fcds-core` can demonstrate the framework's genericity on a third,
//! structurally different sketch (register maxima instead of sample sets).
//!
//! Registers are plain `u8` values; merging is register-wise max, which is
//! exactly the commutative, idempotent merge the composable-sketch
//! interface needs.

use crate::error::{Result, SketchError};
use crate::hash::Hashable;

#[cfg(test)]
mod wire;

/// Minimum `lg_m` (number of registers = 2^lg_m ≥ 16).
pub const MIN_LG_M: u8 = 4;
/// Maximum `lg_m` (2²¹ registers = 2 MiB of state).
pub const MAX_LG_M: u8 = 21;

/// HyperLogLog sketch with `m = 2^lg_m` one-byte registers.
///
/// # Examples
///
/// ```
/// use fcds_sketches::hll::HllSketch;
///
/// let mut h = HllSketch::new(12, 9001).unwrap(); // 4096 registers
/// for i in 0..500_000u64 {
///     h.update(i);
/// }
/// let est = h.estimate();
/// assert!((est - 500_000.0).abs() / 500_000.0 < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HllSketch {
    lg_m: u8,
    seed: u64,
    registers: Vec<u8>,
}

impl HllSketch {
    /// Creates an empty HLL sketch with `2^lg_m` registers and the given
    /// hash seed.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidParameter`] if `lg_m` is outside
    /// `MIN_LG_M..=MAX_LG_M`.
    pub fn new(lg_m: u8, seed: u64) -> Result<Self> {
        if !(MIN_LG_M..=MAX_LG_M).contains(&lg_m) {
            return Err(SketchError::invalid(
                "lg_m",
                format!("must be in {MIN_LG_M}..={MAX_LG_M}, got {lg_m}"),
            ));
        }
        Ok(HllSketch {
            lg_m,
            seed,
            registers: vec![0; 1 << lg_m],
        })
    }

    /// The number of registers `m`.
    pub fn m(&self) -> usize {
        1 << self.lg_m
    }

    /// The configured `lg_m`.
    pub fn lg_m(&self) -> u8 {
        self.lg_m
    }

    /// The hash seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Read-only view of the registers (used by snapshots and merges).
    pub fn registers(&self) -> &[u8] {
        &self.registers
    }

    /// Mutable register access for deserialisation (crate-internal).
    pub(crate) fn registers_mut(&mut self) -> &mut [u8] {
        &mut self.registers
    }

    /// Processes one stream item.
    #[inline]
    pub fn update<T: Hashable>(&mut self, item: T) {
        self.update_hash(item.hash_with_seed(self.seed));
    }

    /// Processes a pre-hashed item; returns `true` iff a register grew.
    #[inline]
    pub fn update_hash(&mut self, hash: u64) -> bool {
        let idx = (hash >> (64 - self.lg_m)) as usize;
        // Rank of the first 1-bit in the remaining (64 − lg_m) bits.
        let tail = hash << self.lg_m;
        let rho = if tail == 0 {
            (64 - self.lg_m as u32) + 1
        } else {
            tail.leading_zeros() + 1
        } as u8;
        if rho > self.registers[idx] {
            self.registers[idx] = rho;
            true
        } else {
            false
        }
    }

    /// Distinct-count estimate: the HLL harmonic-mean estimator with the
    /// linear-counting correction for small cardinalities.
    pub fn estimate(&self) -> f64 {
        estimate_from_registers(&self.registers)
    }

    /// Merges another HLL sketch into this one (register-wise max).
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::Incompatible`] if `lg_m` or the seed differ.
    pub fn merge(&mut self, other: &HllSketch) -> Result<()> {
        if other.lg_m != self.lg_m {
            return Err(SketchError::incompatible(format!(
                "lg_m mismatch: {} vs {}",
                self.lg_m, other.lg_m
            )));
        }
        if other.seed != self.seed {
            return Err(SketchError::incompatible(format!(
                "hash seed mismatch: {} vs {}",
                self.seed, other.seed
            )));
        }
        for (a, &b) in self.registers.iter_mut().zip(other.registers.iter()) {
            if b > *a {
                *a = b;
            }
        }
        Ok(())
    }

    /// Resets all registers to zero.
    pub fn clear(&mut self) {
        self.registers.iter_mut().for_each(|r| *r = 0);
    }

    /// Returns `true` if no item has ever been retained.
    pub fn is_empty(&self) -> bool {
        self.registers.iter().all(|&r| r == 0)
    }

    /// The theoretical relative standard error of HLL: `1.04/√m`.
    pub fn rse(&self) -> f64 {
        1.04 / (self.m() as f64).sqrt()
    }
}

/// The HLL harmonic-mean estimator with the linear-counting correction,
/// computed over a bare register array (`m = registers.len()`, which must
/// be a power of two). This is `HllSketch::estimate` without the sketch:
/// the wire fan-in kernel estimates straight off its borrowed
/// accumulator, never materialising an owned sketch.
pub fn estimate_from_registers(registers: &[u8]) -> f64 {
    let m = registers.len() as f64;
    let alpha = match registers.len() {
        16 => 0.673,
        32 => 0.697,
        64 => 0.709,
        m => 0.7213 / (1.0 + 1.079 / m as f64),
    };
    let sum: f64 = registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
    let raw = alpha * m * m / sum;
    let zeros = registers.iter().filter(|&&r| r == 0).count();
    if raw <= 2.5 * m && zeros > 0 {
        // Linear counting is more accurate in the small range.
        m * (m / zeros as f64).ln()
    } else {
        raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range_lg_m() {
        assert!(HllSketch::new(3, 0).is_err());
        assert!(HllSketch::new(22, 0).is_err());
        assert!(HllSketch::new(4, 0).is_ok());
    }

    #[test]
    fn empty_estimates_zero() {
        let h = HllSketch::new(10, 0).unwrap();
        assert!(h.is_empty());
        assert_eq!(h.estimate(), 0.0);
    }

    #[test]
    fn small_range_is_nearly_exact() {
        // Linear counting regime.
        let mut h = HllSketch::new(12, 1).unwrap();
        for i in 0..100u64 {
            h.update(i);
        }
        let est = h.estimate();
        assert!((est - 100.0).abs() < 5.0, "est = {est}");
    }

    #[test]
    fn duplicates_do_not_grow_estimate() {
        let mut h = HllSketch::new(10, 1).unwrap();
        for _ in 0..100 {
            for i in 0..50u64 {
                h.update(i);
            }
        }
        let est = h.estimate();
        assert!((est - 50.0).abs() < 5.0, "est = {est}");
    }

    #[test]
    fn large_range_within_rse() {
        let mut h = HllSketch::new(12, 42).unwrap();
        let n = 1_000_000u64;
        for i in 0..n {
            h.update(i);
        }
        let rel = (h.estimate() - n as f64).abs() / n as f64;
        assert!(rel < 5.0 * h.rse(), "relative error {rel}");
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HllSketch::new(11, 7).unwrap();
        let mut b = HllSketch::new(11, 7).unwrap();
        let mut whole = HllSketch::new(11, 7).unwrap();
        for i in 0..200_000u64 {
            whole.update(i);
            if i < 120_000 {
                a.update(i);
            }
            if i >= 80_000 {
                b.update(i);
            }
        }
        a.merge(&b).unwrap();
        // Register-wise max of sub-streams == registers of the union.
        assert_eq!(a, whole);
    }

    #[test]
    fn merge_rejects_mismatches() {
        let mut a = HllSketch::new(10, 1).unwrap();
        let b = HllSketch::new(11, 1).unwrap();
        assert!(a.merge(&b).is_err());
        let c = HllSketch::new(10, 2).unwrap();
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn merge_is_idempotent() {
        let mut a = HllSketch::new(10, 1).unwrap();
        for i in 0..10_000u64 {
            a.update(i);
        }
        let before = a.clone();
        let copy = a.clone();
        a.merge(&copy).unwrap();
        assert_eq!(a, before);
    }

    #[test]
    fn clear_resets() {
        let mut h = HllSketch::new(10, 1).unwrap();
        for i in 0..1000u64 {
            h.update(i);
        }
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.estimate(), 0.0);
    }

    #[test]
    fn rho_uses_post_index_bits() {
        // A hash of all-zeros after the index bits must yield the maximum
        // rho rather than panicking or wrapping.
        let mut h = HllSketch::new(4, 0).unwrap();
        assert!(h.update_hash(0));
        assert_eq!(h.registers()[0], 61); // 64-4+1
    }
}
