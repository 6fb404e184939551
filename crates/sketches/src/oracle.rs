//! The de-randomisation oracle of §4.
//!
//! Sketches are randomised objects and therefore have no sequential
//! specification to relax. The paper resolves this by "capturing their
//! randomness in an external oracle; given the oracle's output, the
//! sketches behave deterministically" (§4). Concretely:
//!
//! * the Θ and HLL sketches take their **hash seed** as an explicit
//!   construction parameter (the seed selects the hash function,
//!   i.e., all "coin flips" at once), so they need no oracle;
//! * the Quantiles sketch draws **one coin flip per compaction** from
//!   the oracle to choose between keeping the even- or odd-indexed
//!   survivors.
//!
//! Fixing the oracle yields the deterministic object whose sequential
//! histories form `SeqSketch`, the specification that Definition 2's
//! r-relaxation and the checker in `fcds-relaxation` are defined against.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Source of all randomness a sketch consumes.
///
/// Implementations must be deterministic functions of their construction
/// parameters so that replaying an oracle replays the sketch behaviour
/// exactly — this is what turns a randomised sketch into a deterministic
/// object with a sequential specification (§4).
pub trait Oracle: Send + Sync {
    /// Draws one fair coin flip.
    fn flip(&mut self) -> bool;
}

/// A pseudo-random oracle seeded explicitly: deterministic given its seed,
/// which is exactly the de-randomisation device the paper's model needs.
///
/// # Examples
///
/// ```
/// use fcds_sketches::oracle::{DeterministicOracle, Oracle};
///
/// let mut a = DeterministicOracle::new(7);
/// let mut b = DeterministicOracle::new(7);
/// assert_eq!(a.flip(), b.flip());
/// ```
#[derive(Debug, Clone)]
pub struct DeterministicOracle {
    rng: SmallRng,
}

impl DeterministicOracle {
    /// Creates an oracle whose entire output stream is a function of
    /// `seed`.
    pub fn new(seed: u64) -> Self {
        DeterministicOracle {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Oracle for DeterministicOracle {
    fn flip(&mut self) -> bool {
        self.rng.random()
    }
}

/// An oracle backed by the operating system's entropy source; used in
/// production where de-randomisation is not needed.
#[derive(Debug)]
pub struct EntropyOracle {
    rng: SmallRng,
}

impl EntropyOracle {
    /// Creates an oracle seeded from OS entropy.
    pub fn new() -> Self {
        EntropyOracle {
            rng: SmallRng::from_os_rng(),
        }
    }
}

impl Default for EntropyOracle {
    fn default() -> Self {
        Self::new()
    }
}

impl Oracle for EntropyOracle {
    fn flip(&mut self) -> bool {
        self.rng.random()
    }
}

/// An oracle that replays a pre-recorded script of outputs. Used by the
/// relaxation checker and by tests that need full control over every coin.
///
/// When the script runs out the oracle falls back to a deterministic PRNG
/// (so tests may script only the prefix they care about).
#[derive(Debug, Clone)]
pub struct ScriptedOracle {
    coins: VecDeque<bool>,
    fallback: SmallRng,
}

impl ScriptedOracle {
    /// Creates a scripted oracle from an explicit coin sequence.
    pub fn new(coins: impl Into<VecDeque<bool>>) -> Self {
        ScriptedOracle {
            coins: coins.into(),
            fallback: SmallRng::seed_from_u64(0xFCD5),
        }
    }

    /// Number of scripted coins not yet consumed.
    pub fn coins_remaining(&self) -> usize {
        self.coins.len()
    }
}

impl Oracle for ScriptedOracle {
    fn flip(&mut self) -> bool {
        self.coins
            .pop_front()
            .unwrap_or_else(|| self.fallback.random())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_oracle_replays() {
        let mut a = DeterministicOracle::new(123);
        let mut b = DeterministicOracle::new(123);
        let fa: Vec<bool> = (0..64).map(|_| a.flip()).collect();
        let fb: Vec<bool> = (0..64).map(|_| b.flip()).collect();
        assert_eq!(fa, fb);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DeterministicOracle::new(1);
        let mut b = DeterministicOracle::new(2);
        let fa: Vec<bool> = (0..64).map(|_| a.flip()).collect();
        let fb: Vec<bool> = (0..64).map(|_| b.flip()).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn scripted_oracle_replays_script_then_falls_back() {
        let mut o = ScriptedOracle::new(vec![true, false, true]);
        assert!(o.flip());
        assert!(!o.flip());
        assert!(o.flip());
        assert_eq!(o.coins_remaining(), 0);
        // Fallback keeps producing coins without panicking.
        let _ = o.flip();
    }

    #[test]
    fn coins_are_roughly_fair() {
        let mut o = DeterministicOracle::new(7);
        let heads = (0..10_000).filter(|_| o.flip()).count();
        assert!((4_500..5_500).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn entropy_oracle_is_usable() {
        let mut o = EntropyOracle::new();
        let _ = o.flip();
    }
}
