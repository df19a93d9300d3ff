//! Content digests for flow streams and part files.
//!
//! [`records_digest`] and [`DigestSink`] compute the same FNV-1a64 value
//! over a record sequence — one from a slice, one streaming — so a live
//! synthesis run can be fingerprinted in O(1) memory and later compared
//! against a part replay without materializing either side.
//!
//! The record digest is FNV-1a64 over a fixed little-endian serialization
//! of each record (the layout is spelled out on `fold_record`). Folding
//! a zero byte is `h = (h ^ 0) * P = h * P`, so a field's high zero bytes
//! are folded as one multiply by a precomputed `P^k` instead of `k`
//! serial xor-multiplies. The value is bit-identical to the byte-wise
//! fold; the tests keep that fold as an oracle.
//!
//! [`part_checksum`] is the separate integrity check of a part file: a
//! word-at-a-time hash with four independent multiply lanes, so it runs
//! at memory speed rather than FNV's one multiply per byte.

use crate::part::{addr_bits, icmp_pack, proto_code, scope_code};
use flowmon::{FlowRecord, FlowSink};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `PRIME_POW[k] = FNV_PRIME^k`: folding `k` zero bytes is one multiply.
const PRIME_POW: [u64; 17] = prime_powers();

const fn prime_powers() -> [u64; 17] {
    let mut pow = [1u64; 17];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
}

/// FNV-1a64 over a byte slice.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold the low `width` little-endian bytes of `v` (`v` must fit in
/// them): one xor-multiply per significant byte, the last of which also
/// carries the high zero bytes (`* P^(1 + zeros)`).
#[inline(always)]
fn fold_le(mut h: u64, mut v: u64, width: usize) -> u64 {
    let significant = (71 - v.leading_zeros() as usize) / 8;
    if significant == 0 {
        return h.wrapping_mul(PRIME_POW[width]);
    }
    for _ in 1..significant {
        h = (h ^ (v & 0xff)).wrapping_mul(FNV_PRIME);
        v >>= 8;
    }
    (h ^ v).wrapping_mul(PRIME_POW[width - significant + 1])
}

/// Fold the 16 little-endian bytes of `v`.
#[inline(always)]
fn fold_u128(h: u64, v: u128) -> u64 {
    let (lo, hi) = (v as u64, (v >> 64) as u64);
    if hi == 0 {
        fold_le(h, lo, 16)
    } else {
        fold_le(fold_le(h, lo, 8), hi, 8)
    }
}

/// Fold one record's serialization, field by field, all little-endian:
/// `proto u8 · src_tag u8 · src u128 · dst_tag u8 · dst u128 · sport u16 ·
/// dport u16 · icmp u64 · start u64 · end u64 · bytes_orig u64 ·
/// bytes_reply u64 · packets_orig u64 · packets_reply u64 · scope u8`,
/// with the part format's value codes for the enums, address families
/// and packed ICMP metadata.
fn fold_record(h: &mut u64, r: &FlowRecord) {
    let (src_tag, src_bits) = addr_bits(r.key.src);
    let (dst_tag, dst_bits) = addr_bits(r.key.dst);
    let mut x = fold_le(*h, proto_code(r.key.proto), 1);
    x = fold_le(x, src_tag, 1);
    x = fold_u128(x, src_bits);
    x = fold_le(x, dst_tag, 1);
    x = fold_u128(x, dst_bits);
    x = fold_le(x, u64::from(r.key.sport), 2);
    x = fold_le(x, u64::from(r.key.dport), 2);
    x = fold_le(x, icmp_pack(r.key.icmp), 8);
    x = fold_le(x, r.start, 8);
    x = fold_le(x, r.end, 8);
    x = fold_le(x, r.bytes_orig, 8);
    x = fold_le(x, r.bytes_reply, 8);
    x = fold_le(x, r.packets_orig, 8);
    x = fold_le(x, r.packets_reply, 8);
    *h = fold_le(x, scope_code(r.scope), 1);
}

/// Odd multipliers for the four [`part_checksum`] lanes and the final mix.
const LANE_MUL: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x27d4_eb2f_1656_67c5,
];

#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

#[inline(always)]
fn lane_step(acc: u64, w: u64, mul: u64) -> u64 {
    (acc ^ w).wrapping_mul(mul).rotate_left(29)
}

/// Integrity checksum of a part file's bytes.
///
/// Four lanes each absorb every fourth 64-bit little-endian word with an
/// xor–multiply–rotate step; the lanes are independent, so the multiplies
/// overlap. Every step is a bijection of the lane state for a fixed word,
/// so any change confined to one lane always changes that lane's final
/// value, and the final fold (also bijective per lane, seeded with the
/// length) always carries it to the result. Any change within one lane —
/// every single-byte flip — is therefore always detected; other damage
/// escapes with probability about 2^-64. Not cryptographic.
#[must_use]
pub(crate) fn part_checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET, !FNV_OFFSET, FNV_PRIME, !FNV_PRIME];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = lane_step(*lane, word(&block[i * 8..i * 8 + 8]), LANE_MUL[i]);
        }
    }
    for (i, tail) in blocks.remainder().chunks(8).enumerate() {
        lanes[i] = lane_step(lanes[i], word(tail), LANE_MUL[i]);
    }
    let mut h = bytes.len() as u64;
    for (i, lane) in lanes.iter().enumerate() {
        h = lane_step(h, *lane, LANE_MUL[(i + 1) % 4]);
    }
    h ^= h >> 32;
    h = h.wrapping_mul(LANE_MUL[0]);
    h ^ (h >> 29)
}

/// Order-sensitive digest of a record sequence. Equal sequences — and only
/// equal sequences, up to hash collisions — produce equal digests.
#[must_use]
pub fn records_digest(records: &[FlowRecord]) -> u64 {
    let mut h = FNV_OFFSET;
    for r in records {
        fold_record(&mut h, r);
    }
    h
}

/// A [`FlowSink`] that fingerprints the stream in O(1) memory.
///
/// `DigestSink` fed a stream reports the same digest as
/// [`records_digest`] over the equivalent `Vec` — the bridge between
/// spill-scale runs (no `Vec` exists) and in-memory verification.
#[derive(Debug, Clone)]
pub struct DigestSink {
    hash: u64,
    count: u64,
}

impl DigestSink {
    /// A fresh digest over the empty stream.
    #[must_use]
    pub fn new() -> DigestSink {
        DigestSink {
            hash: FNV_OFFSET,
            count: 0,
        }
    }

    /// The digest of everything accepted so far.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.hash
    }

    /// Number of records accepted.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl Default for DigestSink {
    fn default() -> Self {
        DigestSink::new()
    }
}

impl FlowSink for DigestSink {
    fn accept(&mut self, record: &FlowRecord) {
        fold_record(&mut self.hash, record);
        self.count += 1;
    }

    fn accept_batch(&mut self, records: &[FlowRecord]) {
        let mut h = self.hash;
        for r in records {
            fold_record(&mut h, r);
        }
        self.hash = h;
        self.count += records.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmon::{FlowKey, Scope};

    fn rec(i: u64) -> FlowRecord {
        FlowRecord {
            key: FlowKey::tcp(
                "10.1.2.3".parse().unwrap(),
                (i % 65_536) as u16,
                "203.0.113.9".parse().unwrap(),
                443,
            ),
            start: i * 100,
            end: i * 100 + 5,
            bytes_orig: i,
            bytes_reply: i * 3,
            packets_orig: 1,
            packets_reply: 2,
            scope: Scope::External,
        }
    }

    #[test]
    fn sink_matches_slice_digest() {
        let records: Vec<_> = (0..500).map(rec).collect();
        let mut sink = DigestSink::new();
        sink.accept_batch(&records);
        assert_eq!(sink.digest(), records_digest(&records));
        assert_eq!(sink.count(), 500);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = vec![rec(1), rec(2)];
        let b = vec![rec(2), rec(1)];
        assert_ne!(records_digest(&a), records_digest(&b));
    }

    #[test]
    fn empty_stream_digest_is_offset_basis() {
        assert_eq!(records_digest(&[]), DigestSink::new().digest());
    }

    #[test]
    fn zero_run_fold_equals_byte_fold() {
        for v in [0u64, 1, 0xff, 0x100, 0xdead_beef, u64::MAX, 1 << 63] {
            for width in 8..=16 {
                let mut bytes = v.to_le_bytes().to_vec();
                bytes.resize(width, 0);
                let fast = fold_le(FNV_OFFSET, v, width);
                assert_eq!(fast, fnv1a64(&bytes), "v {v:#x} width {width}");
            }
        }
        for v in [
            0u128,
            1,
            u128::from(u64::MAX),
            u128::from(u64::MAX) + 1,
            u128::MAX,
        ] {
            assert_eq!(fold_u128(FNV_OFFSET, v), fnv1a64(&v.to_le_bytes()));
        }
    }

    #[test]
    fn part_checksum_detects_every_single_byte_flip() {
        let bytes: Vec<u8> = (0..103u32).map(|i| (i * 37 % 251) as u8).collect();
        let base = part_checksum(&bytes);
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut bad = bytes.clone();
                bad[i] ^= flip;
                assert_ne!(part_checksum(&bad), base, "byte {i} ^ {flip:#x}");
            }
        }
        for len in 0..bytes.len() {
            assert_ne!(part_checksum(&bytes[..len]), base, "truncated to {len}");
        }
        // A trailing zero byte is not the same as no byte.
        assert_ne!(part_checksum(&[1, 2, 3]), part_checksum(&[1, 2, 3, 0]));
    }
}
