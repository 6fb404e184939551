//! CRC-32C (Castagnoli): the one checksum of the FCF1 frame protocol
//! and of snapshot records.
//!
//! Reflected polynomial `0x82F63B78`, initial value and final xor
//! `0xFFFF_FFFF` — the parameters of iSCSI (RFC 3720 §B.4), whose test
//! vectors the unit tests check. Like any CRC of degree 32 with a
//! non-zero constant term it detects every error burst of 32 bits or
//! less, and every single-bit flip.
//!
//! [`crc32c`] runs the SSE4.2 `crc32` instruction 8 bytes at a time on
//! x86_64 processors that have it (detected at run time) and a portable
//! slicing-by-8 table loop everywhere else. Both produce identical
//! output; which one runs is decided by the processor alone.

/// The reflected Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 tables, built at compile time. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight lookups advance the state by
/// eight bytes at once.
const TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32C over the concatenation of `parts`, on the fastest path the
/// processor supports.
pub fn crc32c(parts: &[&[u8]]) -> u32 {
    crc32c_hardware(parts).unwrap_or_else(|| crc32c_portable(parts))
}

/// The SSE4.2 path, or `None` when this processor lacks the
/// instruction.
#[cfg(target_arch = "x86_64")]
fn crc32c_hardware(parts: &[&[u8]]) -> Option<u32> {
    if !std::is_x86_feature_detected!("sse4.2") {
        return None;
    }
    let mut state = !0u32;
    for part in parts {
        // SAFETY: `feed_sse42` only needs SSE4.2, which the detection
        // just above confirmed on this processor.
        state = unsafe { feed_sse42(state, part) };
    }
    Some(!state)
}

/// No hardware path off x86_64.
#[cfg(not(target_arch = "x86_64"))]
fn crc32c_hardware(_parts: &[&[u8]]) -> Option<u32> {
    None
}

/// CRC-32C over the concatenation of `parts` with the portable table
/// loop only. [`crc32c`] falls back to it on processors without the
/// hardware instruction; it is public so benchmarks can measure what
/// the hardware path buys.
pub fn crc32c_portable(parts: &[&[u8]]) -> u32 {
    !parts
        .iter()
        .fold(!0u32, |state, part| feed_portable(state, part))
}

/// Slicing-by-8: one table lookup per byte, eight independent lookups
/// per 8-byte step instead of a serial chain of eight.
fn feed_portable(mut state: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ state;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        state = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        state = TABLES[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Advances a running (pre-inversion) CRC-32C state over `data` with
/// the SSE4.2 `crc32` instruction, 8 bytes per step.
///
/// # Safety
///
/// The processor must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn feed_sse42(state: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut chunks = data.chunks_exact(8);
    let mut wide = u64::from(state);
    for c in &mut chunks {
        let word = u64::from_le_bytes(c.try_into().expect("chunks_exact(8) yields 8 bytes"));
        wide = _mm_crc32_u64(wide, word);
    }
    // The instruction keeps the 32-bit CRC in the low half.
    let mut state = wide as u32;
    for &b in chunks.remainder() {
        state = _mm_crc32_u8(state, b);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic filler bytes (xorshift64).
    fn filler(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed as u8
            })
            .collect()
    }

    #[test]
    fn known_answers_on_both_paths() {
        let ascending: Vec<u8> = (0x00..=0x1F).collect();
        let descending: Vec<u8> = (0x00..=0x1F).rev().collect();
        let vectors: [(&[u8], u32); 5] = [
            (b"123456789", 0xE306_9283),
            // RFC 3720 §B.4.
            (&[0x00; 32], 0x8A91_36AA),
            (&[0xFF; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
        ];
        for (input, want) in vectors {
            assert_eq!(crc32c_portable(&[input]), want, "portable {input:02x?}");
            assert_eq!(crc32c(&[input]), want, "dispatched {input:02x?}");
            if let Some(hw) = crc32c_hardware(&[input]) {
                assert_eq!(hw, want, "sse4.2 {input:02x?}");
            }
        }
        assert_eq!(crc32c(&[]), 0);
        assert_eq!(crc32c(&[b""]), 0);
    }

    #[test]
    fn hardware_matches_portable_at_every_length_and_alignment() {
        let buf = filler(256 + 8, 0x9E37_79B9_7F4A_7C15);
        for offset in 0..8 {
            for len in 0..=256 {
                let data = &buf[offset..offset + len];
                let want = crc32c_portable(&[data]);
                assert_eq!(crc32c(&[data]), want, "offset {offset} len {len}");
                if let Some(hw) = crc32c_hardware(&[data]) {
                    assert_eq!(hw, want, "offset {offset} len {len}");
                }
            }
        }
        let big = filler(1 << 20, 42);
        let want = crc32c_portable(&[&big]);
        assert_eq!(crc32c(&[&big]), want);
        if let Some(hw) = crc32c_hardware(&[&big]) {
            assert_eq!(hw, want);
        }
    }

    #[test]
    fn parts_concatenate_at_every_split_point() {
        let buf = filler(64, 7);
        let whole = crc32c(&[&buf]);
        assert_eq!(crc32c_portable(&[&buf]), whole);
        for split in 0..=buf.len() {
            let (a, b) = buf.split_at(split);
            assert_eq!(crc32c(&[a, b]), whole, "split at {split}");
            assert_eq!(crc32c_portable(&[a, b]), whole, "split at {split}");
        }
    }
}
