//! Longest-prefix-match tables: a sorted prefix map as the mutable
//! authority, answered by the frozen multibit trie of
//! [`multibit`](crate::multibit).
//!
//! [`LpmTable`] (used as [`Lpm4`]/[`Lpm6`]) is the one LPM engine behind the
//! BGP RIB (`bgpsim::Rib`), cloud attribution (`core::cloud`), the
//! residence router's LAN and NAT64 scoping (`flowmon`) and per-prefix path
//! overrides (`netsim`). The map owns the prefix set; the lookup engine
//! lives in a [`OnceLock`], is built on the first lookup after a change and
//! is dropped by every `insert`/`remove`. The lock is `Sync`, so fan-out
//! workers sharing one `&` table race safely: exactly one builds, the rest
//! wait for it. An empty table answers `None` without building. See the
//! crate docs for the architecture and rebuild costs.
//!
//! ```
//! use iputil::{Lpm4, Prefix4};
//! let mut rib: Lpm4<&str> = Lpm4::new();
//! rib.insert("10.0.0.0/8".parse().unwrap(), "ten");
//! rib.insert("10.9.0.0/16".parse().unwrap(), "ten-nine");
//! let (p, v) = rib.longest_match("10.9.4.4".parse().unwrap()).unwrap();
//! assert_eq!((p.to_string().as_str(), *v), ("10.9.0.0/16", "ten-nine"));
//! // A removal is visible to the very next lookup.
//! rib.remove("10.9.0.0/16".parse().unwrap());
//! let (p, _) = rib.longest_match("10.9.4.4".parse().unwrap()).unwrap();
//! assert_eq!(p, "10.0.0.0/8".parse::<Prefix4>().unwrap());
//! ```

use crate::multibit::FrozenLpm;
use crate::prefix::{Prefix4, Prefix6};
use std::collections::BTreeMap;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::sync::OnceLock;

/// Key types of an [`LpmTable`]: fixed-width big-endian bit strings, tied
/// to the address and prefix types of their family.
pub trait Bits: Copy + Eq + Ord + std::fmt::Debug {
    /// Width of the key in bits (32 for IPv4, 128 for IPv6).
    const WIDTH: u8;

    /// Stride of the frozen engine's direct root table
    /// (root slots = `2^ROOT_BITS`).
    const ROOT_BITS: u8 = 16;

    /// The address type whose bits this key holds.
    type Addr: Copy;

    /// The CIDR prefix type of this family.
    type Prefix: Copy;

    /// The key of an address.
    fn from_addr(addr: Self::Addr) -> Self;

    /// A canonical prefix as `(key, plen)`.
    fn split_prefix(prefix: Self::Prefix) -> (Self, u8);

    /// The prefix of length `len` covering `addr`.
    fn join_prefix(addr: Self::Addr, len: u8) -> Self::Prefix;

    /// Zero out everything past the first `len` bits.
    fn truncate(self, len: u8) -> Self;

    /// The top [`Bits::ROOT_BITS`] bits, as a root-table index.
    fn root_slot(self) -> usize;

    /// Number of leading bits shared with `other` (capped at `WIDTH`).
    fn common_prefix_len(self, other: Self) -> u8;

    /// XOR-fold the key to 64 bits (batched-lookup memo hashing).
    fn fold_u64(self) -> u64;

    /// The `stride` bits starting `depth` bits from the most-significant
    /// end, as an index (`depth + stride` must not exceed `WIDTH`). The
    /// frozen multibit engine walks the address in these chunks.
    fn chunk(self, depth: u8, stride: u8) -> usize;

    /// The `count` (1..=64) bits starting `depth` bits from the
    /// most-significant end, right-aligned in a `u64` (`depth + count` must
    /// not exceed `WIDTH`). Used by the frozen engine's path-compressed
    /// nodes to verify a skipped bit run in one compare.
    fn bits_at(self, depth: u8, count: u8) -> u64;
}

impl Bits for u32 {
    const WIDTH: u8 = 32;
    type Addr = Ipv4Addr;
    type Prefix = Prefix4;

    fn from_addr(addr: Ipv4Addr) -> u32 {
        crate::v4_to_u32(addr)
    }

    fn split_prefix(prefix: Prefix4) -> (u32, u8) {
        (prefix.bits(), prefix.len())
    }

    fn join_prefix(addr: Ipv4Addr, len: u8) -> Prefix4 {
        Prefix4::new(addr, len)
    }

    fn truncate(self, len: u8) -> u32 {
        self & crate::prefix::mask32(len)
    }

    fn root_slot(self) -> usize {
        (self >> (32 - Self::ROOT_BITS)) as usize
    }

    fn common_prefix_len(self, other: u32) -> u8 {
        (self ^ other).leading_zeros().min(32) as u8
    }

    fn fold_u64(self) -> u64 {
        self as u64
    }

    fn chunk(self, depth: u8, stride: u8) -> usize {
        debug_assert!(depth + stride <= 32);
        (self >> (32 - depth - stride)) as usize & ((1 << stride) - 1)
    }

    fn bits_at(self, depth: u8, count: u8) -> u64 {
        debug_assert!(count >= 1 && depth + count <= 32);
        (self >> (32 - depth - count)) as u64 & (u64::MAX >> (64 - count))
    }
}

impl Bits for u128 {
    const WIDTH: u8 = 128;
    type Addr = Ipv6Addr;
    type Prefix = Prefix6;

    fn from_addr(addr: Ipv6Addr) -> u128 {
        crate::v6_to_u128(addr)
    }

    fn split_prefix(prefix: Prefix6) -> (u128, u8) {
        (prefix.bits(), prefix.len())
    }

    fn join_prefix(addr: Ipv6Addr, len: u8) -> Prefix6 {
        Prefix6::new(addr, len)
    }

    fn truncate(self, len: u8) -> u128 {
        self & crate::prefix::mask128(len)
    }

    fn root_slot(self) -> usize {
        (self >> (128 - Self::ROOT_BITS)) as usize
    }

    fn common_prefix_len(self, other: u128) -> u8 {
        (self ^ other).leading_zeros().min(128) as u8
    }

    fn fold_u64(self) -> u64 {
        (self >> 64) as u64 ^ self as u64
    }

    fn chunk(self, depth: u8, stride: u8) -> usize {
        debug_assert!(depth + stride <= 128);
        (self >> (128 - depth - stride)) as usize & ((1 << stride) - 1)
    }

    fn bits_at(self, depth: u8, count: u8) -> u64 {
        debug_assert!((1..=64).contains(&count) && depth + count <= 128);
        (self >> (128 - depth - count)) as u64 & (u64::MAX >> (64 - count))
    }
}

/// A longest-prefix-match table: prefixes of one family mapped to values.
/// See the [module docs](self) for the authority/engine split.
#[derive(Debug, Clone)]
pub struct LpmTable<K: Bits, V> {
    map: BTreeMap<(K, u8), V>,
    /// The lookup engine for the current `map`; reset by every mutation.
    frozen: OnceLock<FrozenLpm<K, V>>,
}

/// Longest-prefix-match table for IPv4.
pub type Lpm4<V> = LpmTable<u32, V>;

/// Longest-prefix-match table for IPv6.
pub type Lpm6<V> = LpmTable<u128, V>;

impl<K: Bits, V> Default for LpmTable<K, V> {
    fn default() -> Self {
        LpmTable::new()
    }
}

impl<K: Bits, V> LpmTable<K, V> {
    /// Create an empty table.
    pub fn new() -> LpmTable<K, V> {
        LpmTable {
            map: BTreeMap::new(),
            frozen: OnceLock::new(),
        }
    }

    /// Insert a prefix, returning any previous value for the exact prefix.
    pub fn insert(&mut self, prefix: K::Prefix, value: V) -> Option<V> {
        self.frozen.take();
        self.map.insert(K::split_prefix(prefix), value)
    }

    /// Remove an exact prefix, returning its value.
    pub fn remove(&mut self, prefix: K::Prefix) -> Option<V> {
        let removed = self.map.remove(&K::split_prefix(prefix));
        if removed.is_some() {
            self.frozen.take();
        }
        removed
    }

    /// Exact-match lookup of a stored prefix.
    pub fn get(&self, prefix: K::Prefix) -> Option<&V> {
        self.map.get(&K::split_prefix(prefix))
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl<K: Bits, V: Clone> LpmTable<K, V> {
    /// The engine for the current contents, built on first use; `None` for
    /// an empty table.
    fn engine(&self) -> Option<&FrozenLpm<K, V>> {
        if self.map.is_empty() {
            return None;
        }
        Some(self.frozen.get_or_init(|| FrozenLpm::build(&self.map)))
    }

    /// Most specific stored prefix covering `addr`, with its value.
    pub fn longest_match(&self, addr: K::Addr) -> Option<(K::Prefix, &V)> {
        let (len, v) = self.engine()?.longest_match(K::from_addr(addr))?;
        Some((K::join_prefix(addr, len), v))
    }

    /// Batched [`LpmTable::longest_match`] preserving input order: a
    /// duplicate memo in front, interleaved prefetching walks behind it
    /// (see [`multibit`](crate::multibit)).
    pub fn longest_match_many(&self, addrs: &[K::Addr]) -> Vec<Option<(K::Prefix, &V)>> {
        let Some(engine) = self.engine() else {
            return vec![None; addrs.len()];
        };
        let keys: Vec<K> = addrs.iter().map(|&a| K::from_addr(a)).collect();
        engine
            .longest_match_many(&keys)
            .into_iter()
            .zip(addrs)
            .map(|(r, &a)| r.map(|(len, v)| (K::join_prefix(a, len), v)))
            .collect()
    }

    /// Batched value-only lookup: [`LpmTable::longest_match_many`] without
    /// materialising the matched prefix — the slim path attribution
    /// pipelines run on.
    pub fn values_many(&self, addrs: &[K::Addr]) -> Vec<Option<&V>> {
        let Some(engine) = self.engine() else {
            return vec![None; addrs.len()];
        };
        let keys: Vec<K> = addrs.iter().map(|&a| K::from_addr(a)).collect();
        engine.values_many(&keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p4(bits: u32, len: u8) -> Prefix4 {
        Prefix4::new(Ipv4Addr::from(bits), len)
    }

    fn m4<V: Copy>(t: &Lpm4<V>, addr: u32) -> Option<(u8, V)> {
        t.longest_match(Ipv4Addr::from(addr))
            .map(|(p, v)| (p.len(), *v))
    }

    #[test]
    fn lpm_basic() {
        let mut t: Lpm4<&str> = Lpm4::new();
        assert!(t.is_empty());
        t.insert(p4(0x0a00_0000, 8), "ten");
        t.insert(p4(0x0a14_0000, 16), "ten-twenty");
        t.insert(p4(0, 0), "default");
        assert_eq!(t.len(), 3);
        assert_eq!(m4(&t, 0x0a14_0505), Some((16, "ten-twenty")));
        assert_eq!(m4(&t, 0x0a01_0101), Some((8, "ten")));
        assert_eq!(m4(&t, 0xc0a8_0101), Some((0, "default")));
    }

    #[test]
    fn lpm_no_default_misses() {
        let mut t: Lpm4<u8> = Lpm4::new();
        assert_eq!(m4(&t, 0xc000_0300), None, "empty table");
        t.insert(p4(0xc000_0200, 24), 1);
        assert_eq!(m4(&t, 0xc000_0300), None);
        assert_eq!(m4(&t, 0xc000_02ff), Some((24, 1)));
    }

    #[test]
    fn insert_replaces() {
        let mut t: Lpm4<u8> = Lpm4::new();
        assert_eq!(t.insert(p4(0x0a00_0000, 8), 1), None);
        assert_eq!(m4(&t, 0x0a00_0001), Some((8, 1)));
        assert_eq!(t.insert(p4(0x0a00_0000, 8), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(p4(0x0a00_0000, 8)), Some(&2));
        // The replacement is visible to the next lookup.
        assert_eq!(m4(&t, 0x0a00_0001), Some((8, 2)));
        assert_eq!(t.insert(p4(0x0a14_0000, 24), 5), None);
        assert_eq!(t.insert(p4(0x0a14_0000, 24), 6), Some(5));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn remove_works() {
        let mut t: Lpm4<u8> = Lpm4::new();
        t.insert(p4(0x0a00_0000, 8), 1);
        t.insert(p4(0x0a14_0000, 16), 2);
        assert_eq!(m4(&t, 0x0a14_0101), Some((16, 2)));
        assert_eq!(t.remove(p4(0x0a14_0000, 16)), Some(2));
        assert_eq!(t.remove(p4(0x0a14_0000, 16)), None);
        assert_eq!(t.len(), 1);
        assert_eq!(m4(&t, 0x0a14_0101), Some((8, 1)));
    }

    #[test]
    fn remove_short_recomputes_fallback() {
        let mut t: Lpm4<u8> = Lpm4::new();
        t.insert(p4(0x0a00_0000, 8), 1);
        t.insert(p4(0x0a00_0000, 12), 2); // deeper short prefix shadows /8
        assert_eq!(m4(&t, 0x0a01_0101), Some((12, 2)));
        assert_eq!(t.remove(p4(0x0a00_0000, 12)), Some(2));
        // The /8 must become visible again on the uncovered addresses.
        assert_eq!(m4(&t, 0x0a01_0101), Some((8, 1)));
        assert_eq!(t.remove(p4(0x0a00_0000, 8)), Some(1));
        assert_eq!(m4(&t, 0x0a01_0101), None);
        assert!(t.is_empty());
    }

    #[test]
    fn key_is_truncated_on_insert() {
        let mut t: Lpm4<u8> = Lpm4::new();
        t.insert(p4(0x0a01_0203, 8), 9); // host bits ignored
        assert_eq!(t.get(p4(0x0a00_0000, 8)), Some(&9));
        assert_eq!(t.remove(p4(0x0aff_ffff, 8)), Some(9));
    }

    #[test]
    fn root_stride_boundary_lengths() {
        // Lengths at ROOT_BITS-1, ROOT_BITS and ROOT_BITS+1 must coexist.
        let mut t: Lpm4<u8> = Lpm4::new();
        t.insert(p4(0x0a14_0000, 15), 15);
        t.insert(p4(0x0a14_0000, 16), 16);
        t.insert(p4(0x0a14_8000, 17), 17);
        assert_eq!(m4(&t, 0x0a14_8001), Some((17, 17)));
        assert_eq!(m4(&t, 0x0a14_0001), Some((16, 16)));
        assert_eq!(m4(&t, 0x0a15_0001), Some((15, 15)));
        assert_eq!(t.get(p4(0x0a14_0000, 15)), Some(&15));
        assert_eq!(t.get(p4(0x0a14_0000, 16)), Some(&16));
        assert_eq!(t.get(p4(0x0a14_8000, 17)), Some(&17));
    }

    #[test]
    fn split_at_divergence_point() {
        // Two /24s sharing 20 bits; a later /20 ancestor must cover the gap
        // between them without shadowing either.
        let mut t: Lpm4<u8> = Lpm4::new();
        t.insert(p4(0x0a14_1000, 24), 1);
        t.insert(p4(0x0a14_1800, 24), 2);
        assert_eq!(m4(&t, 0x0a14_10ff), Some((24, 1)));
        assert_eq!(m4(&t, 0x0a14_18ff), Some((24, 2)));
        assert_eq!(m4(&t, 0x0a14_1fff), None);
        t.insert(p4(0x0a14_1000, 20), 3);
        assert_eq!(m4(&t, 0x0a14_1fff), Some((20, 3)));
        assert_eq!(m4(&t, 0x0a14_10ff), Some((24, 1)));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn ancestor_inserted_after_descendant() {
        let mut t: Lpm4<u8> = Lpm4::new();
        t.insert(p4(0xc0a8_0100, 24), 1);
        assert_eq!(m4(&t, 0xc0a8_2001), None);
        t.insert(p4(0xc0a8_0000, 18), 2); // ancestor arrives second
        assert_eq!(m4(&t, 0xc0a8_0101), Some((24, 1)));
        assert_eq!(m4(&t, 0xc0a8_2001), Some((18, 2)));
        assert_eq!(t.get(p4(0xc0a8_0000, 18)), Some(&2));
    }

    #[test]
    fn lpm4_wrapper() {
        let mut t: Lpm4<&str> = Lpm4::new();
        t.insert("10.0.0.0/8".parse().unwrap(), "big");
        t.insert("10.9.0.0/16".parse().unwrap(), "small");
        let (p, v) = t.longest_match("10.9.4.4".parse().unwrap()).unwrap();
        assert_eq!(p.to_string(), "10.9.0.0/16");
        assert_eq!(*v, "small");
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove("10.9.0.0/16".parse().unwrap()), Some("small"));
        let (p, _) = t.longest_match("10.9.4.4".parse().unwrap()).unwrap();
        assert_eq!(p.to_string(), "10.0.0.0/8");
    }

    #[test]
    fn lpm6_wrapper() {
        let mut t: Lpm6<u32> = Lpm6::new();
        t.insert("2001:db8::/32".parse().unwrap(), 1);
        t.insert("2001:db8:ff::/48".parse().unwrap(), 2);
        let (p, v) = t.longest_match("2001:db8:ff::1".parse().unwrap()).unwrap();
        assert_eq!(p.len(), 48);
        assert_eq!(*v, 2);
        assert!(t.longest_match("2002::1".parse().unwrap()).is_none());
    }

    #[test]
    fn full_length_host_routes() {
        let mut t: Lpm4<u8> = Lpm4::new();
        t.insert(p4(0xc0a8_0101, 32), 7);
        assert_eq!(m4(&t, 0xc0a8_0101), Some((32, 7)));
        assert_eq!(m4(&t, 0xc0a8_0102), None);
        let mut t6: Lpm6<u8> = Lpm6::new();
        let a: Ipv6Addr = "2001:db8::1".parse().unwrap();
        t6.insert(Prefix6::new(a, 128), 9);
        let (p, v) = t6.longest_match(a).unwrap();
        assert_eq!((p.len(), *v), (128, 9));
    }

    #[test]
    fn longest_match_many_preserves_order_and_dedupes() {
        let mut t: Lpm4<u8> = Lpm4::new();
        let addrs: Vec<Ipv4Addr> = ["10.9.0.1", "172.16.0.1", "10.1.2.3", "10.9.0.1"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        assert_eq!(t.longest_match_many(&addrs), vec![None; 4], "empty table");
        t.insert("10.0.0.0/8".parse().unwrap(), 1);
        t.insert("10.9.0.0/16".parse().unwrap(), 2);
        let got = t.longest_match_many(&addrs);
        assert_eq!(got.len(), 4);
        assert_eq!(got[0].map(|(p, v)| (p.len(), *v)), Some((16, 2)));
        assert_eq!(got[1], None);
        assert_eq!(got[2].map(|(p, v)| (p.len(), *v)), Some((8, 1)));
        assert_eq!(got[3].map(|(p, v)| (p.len(), *v)), Some((16, 2)));
        // Batched must agree with one-at-a-time on every input.
        let values = t.values_many(&addrs);
        for (i, &a) in addrs.iter().enumerate() {
            let want = t.longest_match(a).map(|(p, v)| (p, *v));
            assert_eq!(got[i].map(|(p, v)| (p, *v)), want);
            assert_eq!(values[i].copied(), want.map(|(_, v)| v));
        }
    }

    #[test]
    fn common_prefix_and_slots() {
        assert_eq!(0xffff_0000u32.common_prefix_len(0xffff_ffff), 16);
        assert_eq!(0u32.common_prefix_len(0), 32);
        assert_eq!(0x0a14_0000u32.root_slot(), 0x0a14);
        assert_eq!(
            crate::v6_to_u128("2001:db8::".parse().unwrap()).root_slot(),
            0x2001
        );
    }
}
