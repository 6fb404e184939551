//! Round-trip and corruption tests for HLL's wire family. The codec
//! itself lives in the unified [`crate::wire`] module: a 16-byte
//! envelope header followed by
//! `lg_m(u8) | pad(7×u8) | seed(u64) | 2^lg_m register bytes`.

#[cfg(test)]
mod tests {
    use crate::hll::HllSketch;
    use crate::wire::{WireDecode, WireEncode};

    #[test]
    fn round_trip() {
        let mut h = HllSketch::new(10, 77).unwrap();
        for i in 0..50_000u64 {
            h.update(i);
        }
        let bytes = h.to_wire_bytes();
        // 16-byte envelope + 16-byte fixed payload + 2^10 registers.
        assert_eq!(bytes.len(), 16 + 16 + 1024);
        let back = HllSketch::from_wire_bytes(&bytes).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.estimate(), h.estimate());
    }

    #[test]
    fn empty_round_trip() {
        let h = HllSketch::new(4, 0).unwrap();
        let back = HllSketch::from_wire_bytes(&h.to_wire_bytes()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut b = HllSketch::new(4, 0).unwrap().to_wire_bytes().to_vec();
        b[0] ^= 0xFF;
        assert!(HllSketch::from_wire_bytes(&b).is_err());
    }

    #[test]
    fn truncated_rejected() {
        let b = HllSketch::new(6, 0).unwrap().to_wire_bytes();
        assert!(HllSketch::from_wire_bytes(&b[..b.len() - 1]).is_err());
        assert!(HllSketch::from_wire_bytes(&b[..8]).is_err());
    }

    #[test]
    fn out_of_range_register_rejected() {
        let mut b = HllSketch::new(4, 0).unwrap().to_wire_bytes().to_vec();
        // First register: 16-byte envelope + lg_m/pad/seed (16 bytes).
        b[32] = 62; // max rank for lg_m = 4 is 61
        assert!(HllSketch::from_wire_bytes(&b).is_err());
    }

    #[test]
    fn deserialised_sketch_keeps_ingesting() {
        let mut h = HllSketch::new(10, 5).unwrap();
        for i in 0..10_000u64 {
            h.update(i);
        }
        let mut back = HllSketch::from_wire_bytes(&h.to_wire_bytes()).unwrap();
        for i in 10_000..20_000u64 {
            back.update(i);
            h.update(i);
        }
        assert_eq!(back, h);
    }
}
