//! Property-based tests for iputil: LPM tables against a linear-scan
//! oracle, anonymizer prefix preservation, prefix algebra invariants.

use iputil::anon::{Anonymizer, AnonymizerConfig};
use iputil::multibit::{MEMO_BYPASS, SMALL_MAX};
use iputil::prefix::{mask128, mask32, Prefix4, Prefix6};
use iputil::{Bits, Lpm4, Lpm6, LpmTable};
use proptest::prelude::*;
use std::fmt::Debug;
use std::net::{Ipv4Addr, Ipv6Addr};

fn arb_prefix4() -> impl Strategy<Value = Prefix4> {
    (any::<u32>(), 0u8..=32).prop_map(|(bits, len)| Prefix4::new(Ipv4Addr::from(bits), len))
}

fn arb_prefix6() -> impl Strategy<Value = Prefix6> {
    (any::<u128>(), 0u8..=128).prop_map(|(bits, len)| Prefix6::new(Ipv6Addr::from(bits), len))
}

proptest! {
    /// The table's longest match must agree with a brute-force linear scan.
    #[test]
    fn lpm_matches_linear_scan(
        prefixes in proptest::collection::vec(arb_prefix4(), 1..40),
        addrs in proptest::collection::vec(any::<u32>(), 1..40),
    ) {
        let mut trie: Lpm4<usize> = Lpm4::new();
        for (i, p) in prefixes.iter().enumerate() {
            trie.insert(*p, i);
        }
        for addr_bits in addrs {
            let addr = Ipv4Addr::from(addr_bits);
            let expect = prefixes
                .iter()
                .enumerate()
                .filter(|(_, p)| p.contains(addr))
                .max_by_key(|(i, p)| (p.len(), *i)); // later insert wins ties (same prefix replaced)
            let got = trie.longest_match(addr);
            match (expect, got) {
                (None, None) => {}
                (Some((_, p)), Some((gp, _))) => {
                    prop_assert_eq!(p.len(), gp.len(), "match length differs for {}", addr);
                    // The matched prefix must actually contain the address.
                    prop_assert!(gp.contains(addr));
                }
                (e, g) => prop_assert!(false, "mismatch for {}: {:?} vs {:?}", addr, e, g),
            }
        }
    }

    /// Inserting then removing every prefix leaves the table empty for
    /// queries.
    #[test]
    fn trie_remove_all(prefixes in proptest::collection::vec(arb_prefix4(), 1..30)) {
        let mut trie: Lpm4<u8> = Lpm4::new();
        for p in &prefixes {
            trie.insert(*p, 0);
        }
        for p in &prefixes {
            trie.remove(*p);
        }
        prop_assert_eq!(trie.len(), 0);
        for p in &prefixes {
            prop_assert!(trie.longest_match(p.network()).is_none());
        }
    }

    /// Anonymization preserves the length of the longest shared prefix of any
    /// two IPv4 addresses, bit for bit.
    #[test]
    fn anon_preserves_prefix_v4(a in any::<u32>(), b in any::<u32>(), key in any::<[u8; 16]>()) {
        let anon = Anonymizer::new(key, AnonymizerConfig::full());
        let (a, b) = (Ipv4Addr::from(a), Ipv4Addr::from(b));
        let (a2, b2) = (anon.anon_v4(a), anon.anon_v4(b));
        let before = (u32::from(a) ^ u32::from(b)).leading_zeros();
        let after = (u32::from(a2) ^ u32::from(b2)).leading_zeros();
        prop_assert_eq!(before, after);
    }

    /// Same property for IPv6 with the paper configuration: the kept /64 is
    /// identical and the scrambled half still preserves shared prefixes.
    #[test]
    fn anon_preserves_prefix_v6_paper(a in any::<u128>(), b in any::<u128>(), key in any::<[u8; 16]>()) {
        let anon = Anonymizer::new(key, AnonymizerConfig::paper());
        let (a, b) = (Ipv6Addr::from(a), Ipv6Addr::from(b));
        let (a2, b2) = (anon.anon_v6(a), anon.anon_v6(b));
        prop_assert_eq!(u128::from(a2) >> 64, u128::from(a) >> 64);
        prop_assert_eq!(u128::from(b2) >> 64, u128::from(b) >> 64);
        let before = (u128::from(a) ^ u128::from(b)).leading_zeros();
        let after = (u128::from(a2) ^ u128::from(b2)).leading_zeros();
        prop_assert_eq!(before, after);
    }

    /// Prefix textual round-trip.
    #[test]
    fn prefix4_display_parse_roundtrip(p in arb_prefix4()) {
        let s = p.to_string();
        let q: Prefix4 = s.parse().unwrap();
        prop_assert_eq!(p, q);
    }

    /// Prefix textual round-trip (IPv6).
    #[test]
    fn prefix6_display_parse_roundtrip(p in arb_prefix6()) {
        let s = p.to_string();
        let q: Prefix6 = s.parse().unwrap();
        prop_assert_eq!(p, q);
    }

    /// `covers` is consistent with `contains` on the subnet's network address
    /// and is a partial order (reflexive, antisymmetric on distinct lengths).
    #[test]
    fn covers_consistency(a in arb_prefix4(), b in arb_prefix4()) {
        prop_assert!(a.covers(a));
        if a.covers(b) {
            prop_assert!(a.contains(b.network()));
            prop_assert!(a.len() <= b.len());
        }
        if a.covers(b) && b.covers(a) {
            prop_assert_eq!(a, b);
        }
    }

    /// Subnetting then asking for the host keeps addresses inside the parent.
    #[test]
    fn subnets_stay_inside_parent(
        bits in any::<u32>(),
        plen in 0u8..=24,
        extra in 0u8..=8,
        idx in any::<u64>(),
        host in any::<u64>(),
    ) {
        let parent = Prefix4::new(Ipv4Addr::from(bits), plen);
        let sublen = plen + extra;
        let idx = idx % (1u64 << extra);
        let sub = parent.subnet(sublen, idx).unwrap();
        prop_assert!(parent.covers(sub));
        let host = host % sub.size();
        let h = sub.host(host).unwrap();
        prop_assert!(sub.contains(h));
        prop_assert!(parent.contains(h));
    }

    /// Every inserted IPv6 prefix is found again by exact-match `get`.
    #[test]
    fn trie_u128_exact(prefixes in proptest::collection::vec(arb_prefix6(), 1..20)) {
        let mut t: Lpm6<usize> = Lpm6::new();
        for (i, p) in prefixes.iter().enumerate() {
            t.insert(*p, i);
        }
        for p in &prefixes {
            prop_assert!(t.get(*p).is_some());
        }
    }

    /// IPv6: the table's longest match must agree with a brute-force
    /// linear scan (observational equivalence against a naive reference).
    /// Addresses are biased toward stored prefixes so hits are exercised,
    /// not just misses.
    #[test]
    fn lpm6_matches_linear_scan(
        prefixes in proptest::collection::vec(arb_prefix6(), 1..40),
        addrs in proptest::collection::vec((any::<u128>(), 0usize..40, any::<bool>()), 1..40),
    ) {
        let mut trie: Lpm6<usize> = Lpm6::new();
        for (i, p) in prefixes.iter().enumerate() {
            trie.insert(*p, i);
        }
        for (bits, pick, inside) in addrs {
            // Half the probes land inside a stored prefix (low bits random).
            let addr = if inside {
                let p = prefixes[pick % prefixes.len()];
                let host_bits = if p.len() == 128 { 0 } else { bits & !iputil::prefix::mask128(p.len()) };
                Ipv6Addr::from(p.bits() | host_bits)
            } else {
                Ipv6Addr::from(bits)
            };
            let expect = prefixes
                .iter()
                .filter(|p| p.contains(addr))
                .map(|p| p.len())
                .max();
            let got = trie.longest_match(addr);
            match (expect, got) {
                (None, None) => {}
                (Some(len), Some((gp, _))) => {
                    prop_assert_eq!(len, gp.len(), "match length differs for {}", addr);
                    prop_assert!(gp.contains(addr));
                }
                (e, g) => prop_assert!(false, "mismatch for {}: {:?} vs {:?}", addr, e, g),
            }
        }
    }

    /// Batched lookup must be observationally identical to one-at-a-time
    /// lookup, for both families, including duplicates and misses.
    #[test]
    fn batched_agrees_with_single(
        prefixes4 in proptest::collection::vec(arb_prefix4(), 1..30),
        prefixes6 in proptest::collection::vec(arb_prefix6(), 1..30),
        addrs in proptest::collection::vec((any::<u32>(), any::<u128>()), 1..50),
    ) {
        let mut t4: Lpm4<usize> = Lpm4::new();
        for (i, p) in prefixes4.iter().enumerate() {
            t4.insert(*p, i);
        }
        let mut t6: Lpm6<usize> = Lpm6::new();
        for (i, p) in prefixes6.iter().enumerate() {
            t6.insert(*p, i);
        }
        // Duplicate every address so the dedup path is exercised.
        let mut a4: Vec<Ipv4Addr> = addrs.iter().map(|&(b, _)| Ipv4Addr::from(b)).collect();
        a4.extend(addrs.iter().map(|&(b, _)| Ipv4Addr::from(b)));
        let mut a6: Vec<Ipv6Addr> = addrs.iter().map(|&(_, b)| Ipv6Addr::from(b)).collect();
        a6.extend(addrs.iter().map(|&(_, b)| Ipv6Addr::from(b)));

        let batch4 = t4.longest_match_many(&a4);
        for (i, &a) in a4.iter().enumerate() {
            prop_assert_eq!(
                batch4[i].map(|(p, v)| (p, *v)),
                t4.longest_match(a).map(|(p, v)| (p, *v))
            );
        }
        let batch6 = t6.longest_match_many(&a6);
        for (i, &a) in a6.iter().enumerate() {
            prop_assert_eq!(
                batch6[i].map(|(p, v)| (p, *v)),
                t6.longest_match(a).map(|(p, v)| (p, *v))
            );
        }
    }

    /// Inserting then removing every IPv6 prefix leaves the table empty for
    /// queries (the v4 twin of `trie_remove_all` above).
    #[test]
    fn trie6_remove_all(prefixes in proptest::collection::vec(arb_prefix6(), 1..30)) {
        let mut trie: Lpm6<u8> = Lpm6::new();
        for p in &prefixes {
            trie.insert(*p, 0);
        }
        for p in &prefixes {
            trie.remove(*p);
        }
        prop_assert_eq!(trie.len(), 0);
        for p in &prefixes {
            prop_assert!(trie.longest_match(p.network()).is_none());
        }
    }

    /// Interleaved inserts and removes leave the table equivalent to a
    /// fresh build of the surviving prefix set: same stored prefixes and
    /// values, and identical longest-match behaviour (the lookup engine is
    /// a pure function of the map, not of its history).
    #[test]
    fn lpm4_interleaved_ops_structurally_equal_fresh_build(
        ops in proptest::collection::vec(
            ((any::<u32>(), 16u8..=32), any::<bool>(), any::<u32>()),
            1..80,
        ),
        probes in proptest::collection::vec(any::<u32>(), 1..30),
    ) {
        // 16 fixed anchors keep both tables out of the small linear-scan
        // repr so the comparison exercises the root-table paths.
        let anchors: Vec<Prefix4> = (0..16u32)
            .map(|i| Prefix4::new(Ipv4Addr::from(0xb000_0000 + (i << 20)), 16))
            .collect();
        let mut churned: Lpm4<u32> = Lpm4::new();
        let mut reference: std::collections::HashMap<Prefix4, u32> =
            std::collections::HashMap::new();
        for a in &anchors {
            churned.insert(*a, 0);
            reference.insert(*a, 0);
        }
        for ((bits, len), is_insert, val) in ops {
            let p = Prefix4::new(Ipv4Addr::from(bits), len);
            if is_insert {
                prop_assert_eq!(churned.insert(p, val), reference.insert(p, val));
            } else {
                prop_assert_eq!(churned.remove(p), reference.remove(&p));
            }
        }
        // Fresh build of the surviving set (insertion order is irrelevant
        // to the sorted map).
        let mut fresh: Lpm4<u32> = Lpm4::new();
        for (p, v) in &reference {
            fresh.insert(*p, *v);
        }
        prop_assert_eq!(churned.len(), fresh.len());
        for (p, v) in &reference {
            prop_assert_eq!(churned.get(*p), Some(v));
        }
        for bits in probes {
            let addr = Ipv4Addr::from(bits);
            prop_assert_eq!(
                churned.longest_match(addr).map(|(p, v)| (p, *v)),
                fresh.longest_match(addr).map(|(p, v)| (p, *v))
            );
        }
    }

    /// IPv6 twin of the structural-equivalence property.
    #[test]
    fn lpm6_interleaved_ops_structurally_equal_fresh_build(
        ops in proptest::collection::vec(
            ((any::<u128>(), 16u8..=64), any::<bool>(), any::<u32>()),
            1..60,
        ),
        probes in proptest::collection::vec(any::<u128>(), 1..20),
    ) {
        let anchors: Vec<Prefix6> = (0..16u128)
            .map(|i| Prefix6::new(Ipv6Addr::from(0xfd00u128 << 112 | i << 96), 32))
            .collect();
        let mut churned: Lpm6<u32> = Lpm6::new();
        let mut reference: std::collections::HashMap<Prefix6, u32> =
            std::collections::HashMap::new();
        for a in &anchors {
            churned.insert(*a, 0);
            reference.insert(*a, 0);
        }
        for ((bits, len), is_insert, val) in ops {
            let p = Prefix6::new(Ipv6Addr::from(bits), len);
            if is_insert {
                prop_assert_eq!(churned.insert(p, val), reference.insert(p, val));
            } else {
                prop_assert_eq!(churned.remove(p), reference.remove(&p));
            }
        }
        let mut fresh: Lpm6<u32> = Lpm6::new();
        for (p, v) in &reference {
            fresh.insert(*p, *v);
        }
        prop_assert_eq!(churned.len(), fresh.len());
        for (p, v) in &reference {
            prop_assert_eq!(churned.get(*p), Some(v));
        }
        for bits in probes {
            let addr = Ipv6Addr::from(bits);
            prop_assert_eq!(
                churned.longest_match(addr).map(|(p, v)| (p, *v)),
                fresh.longest_match(addr).map(|(p, v)| (p, *v))
            );
        }
    }

    /// The frozen multibit engine behind an IPv4 table must answer exactly
    /// like a map-based reference (the role the radix trie once played) —
    /// scalar and batched, hits and misses — across interleaved
    /// insert/remove sequences. Short prefixes and the default route are
    /// force-included so the leaf-pushing and root-spanning paths are
    /// always exercised.
    #[test]
    fn frozen4_differential_vs_trie(
        ops in proptest::collection::vec(
            ((any::<u32>(), 0u8..=32), any::<bool>(), any::<u32>()),
            1..60,
        ),
        default_route in any::<bool>(),
        short in (any::<u32>(), 1u8..=8),
        probes in proptest::collection::vec(any::<u32>(), 1..40),
        freeze_at in 0usize..60,
    ) {
        fn reference_lpm(
            reference: &std::collections::HashMap<Prefix4, u32>,
            addr: Ipv4Addr,
        ) -> Option<(Prefix4, u32)> {
            reference
                .iter()
                .filter(|(p, _)| p.contains(addr))
                .max_by_key(|(p, _)| p.len())
                .map(|(p, v)| (*p, *v))
        }
        let mut table: Lpm4<u32> = Lpm4::new();
        let mut reference: std::collections::HashMap<Prefix4, u32> =
            std::collections::HashMap::new();
        if default_route {
            table.insert(Prefix4::new(Ipv4Addr::from(0), 0), 424242);
            reference.insert(Prefix4::new(Ipv4Addr::from(0), 0), 424242);
        }
        table.insert(Prefix4::new(Ipv4Addr::from(short.0), short.1), 434343);
        reference.insert(Prefix4::new(Ipv4Addr::from(short.0), short.1), 434343);
        // Churn up to a mid-sequence point, build the engine and snapshot
        // the table, keep churning: the live table must reflect every op,
        // the snapshot must still answer for its own contents.
        let split = freeze_at.min(ops.len());
        for &((bits, len), is_insert, val) in &ops[..split] {
            let p = Prefix4::new(Ipv4Addr::from(bits), len);
            if is_insert { table.insert(p, val); reference.insert(p, val); }
            else { table.remove(p); reference.remove(&p); }
        }
        let _ = table.longest_match(Ipv4Addr::from(0));
        let mid_table = table.clone();
        let mid_reference = reference.clone();
        for &((bits, len), is_insert, val) in &ops[split..] {
            let p = Prefix4::new(Ipv4Addr::from(bits), len);
            if is_insert { table.insert(p, val); reference.insert(p, val); }
            else { table.remove(p); reference.remove(&p); }
        }
        prop_assert_eq!(table.len(), reference.len());
        // Fresh insertion of the surviving set gives the same answers (the
        // engine is a pure function of the contents, not of history).
        let mut fresh: Lpm4<u32> = Lpm4::new();
        for (p, v) in &reference {
            fresh.insert(*p, *v);
        }
        let addrs: Vec<Ipv4Addr> = probes.iter().map(|&b| Ipv4Addr::from(b)).collect();
        let batch = table.longest_match_many(&addrs);
        let values = table.values_many(&addrs);
        let mid_batch = mid_table.longest_match_many(&addrs);
        for (i, &a) in addrs.iter().enumerate() {
            let want = reference_lpm(&reference, a);
            prop_assert_eq!(table.longest_match(a).map(|(p, v)| (p, *v)), want, "scalar {}", a);
            prop_assert_eq!(batch[i].map(|(p, v)| (p, *v)), want, "batched {}", a);
            prop_assert_eq!(values[i].copied(), want.map(|(_, v)| v), "values {}", a);
            prop_assert_eq!(
                fresh.longest_match(a).map(|(p, v)| (p, *v)),
                want,
                "fresh-build {}", a
            );
            prop_assert_eq!(
                mid_batch[i].map(|(p, v)| (p, *v)),
                reference_lpm(&mid_reference, a),
                "mid-churn snapshot {}", a
            );
        }
    }
}

/// The linear-scan oracle the LPM tables are checked against: the stored
/// prefixes in a `Vec`, every lookup a scan over all of them.
struct Oracle<K: Bits>(Vec<(K::Prefix, u32)>);

impl<K: Bits> Oracle<K>
where
    K::Prefix: PartialEq,
{
    fn insert(&mut self, prefix: K::Prefix, value: u32) -> Option<u32> {
        match self.0.iter_mut().find(|(p, _)| *p == prefix) {
            Some(entry) => Some(std::mem::replace(&mut entry.1, value)),
            None => {
                self.0.push((prefix, value));
                None
            }
        }
    }

    fn remove(&mut self, prefix: K::Prefix) -> Option<u32> {
        let i = self.0.iter().position(|(p, _)| *p == prefix)?;
        Some(self.0.remove(i).1)
    }

    fn longest_match(&self, addr: K::Addr) -> Option<(K::Prefix, u32)> {
        let key = K::from_addr(addr);
        self.0
            .iter()
            .filter_map(|&(p, v)| {
                let (bits, len) = K::split_prefix(p);
                (key.truncate(len) == bits).then_some((len, v))
            })
            .max_by_key(|&(len, _)| len)
            .map(|(len, v)| (K::join_prefix(addr, len), v))
    }
}

/// Every lookup path of `table` must answer like the oracle: scalar
/// lookups on the head of `probes`, and with `batches` also
/// `longest_match_many`/`values_many` over all of `probes` (long and
/// duplicate-poor, so the memo bypasses itself) and over a duplicate-heavy
/// batch (served by the memo).
fn assert_agrees<K: Bits>(
    table: &LpmTable<K, u32>,
    oracle: &Oracle<K>,
    probes: &[K::Addr],
    batches: bool,
) where
    K::Prefix: PartialEq + Debug,
    K::Addr: Debug,
{
    assert_eq!(table.len(), oracle.0.len());
    let scalar = if batches { probes.len() } else { 24 };
    for &a in probes.iter().take(scalar) {
        let got = table.longest_match(a).map(|(p, v)| (p, *v));
        assert_eq!(got, oracle.longest_match(a), "scalar {a:?}");
    }
    if !batches {
        return;
    }
    let dup: Vec<K::Addr> = probes.iter().take(4).cycle().take(600).copied().collect();
    for batch in [probes, &dup] {
        let many = table.longest_match_many(batch);
        let values = table.values_many(batch);
        for (i, &a) in batch.iter().enumerate() {
            let want = oracle.longest_match(a);
            assert_eq!(many[i].map(|(p, v)| (p, *v)), want, "batched {a:?}");
            assert_eq!(values[i].copied(), want.map(|(_, v)| v), "values {a:?}");
        }
    }
}

/// Grow a table from empty past [`SMALL_MAX`], churn it (replace or remove
/// stored prefixes), then drain it back to empty, checking it against the
/// oracle after every mutation so each lookup follows an invalidation and
/// runs on a fresh lazy build.
fn grow_churn_drain<K: Bits>(
    grow: &[(K::Prefix, u32)],
    churn: &[(usize, bool, u32)],
    probes: impl Fn(&Oracle<K>) -> Vec<K::Addr>,
) where
    K::Prefix: PartialEq + Debug,
    K::Addr: Debug,
{
    let mut table: LpmTable<K, u32> = LpmTable::new();
    let mut oracle: Oracle<K> = Oracle(Vec::new());
    assert_agrees(&table, &oracle, &probes(&oracle), true);
    let mut step = 0usize;
    let mut check = |table: &LpmTable<K, u32>, oracle: &Oracle<K>| {
        step += 1;
        assert_agrees(table, oracle, &probes(oracle), step.is_multiple_of(8));
    };
    for &(p, v) in grow {
        assert_eq!(table.insert(p, v), oracle.insert(p, v), "insert {p:?}");
        check(&table, &oracle);
    }
    assert!(
        table.len() > SMALL_MAX,
        "grow phase must leave the small repr"
    );
    assert_agrees(&table, &oracle, &probes(&oracle), true);
    for &(pick, replace, v) in churn {
        let Some(&(p, _)) = oracle.0.get(pick % oracle.0.len().max(1)) else {
            break;
        };
        if replace {
            assert_eq!(table.insert(p, v), oracle.insert(p, v), "replace {p:?}");
        } else {
            assert_eq!(table.remove(p), oracle.remove(p), "remove {p:?}");
        }
        check(&table, &oracle);
    }
    while let Some(&(p, _)) = oracle.0.last() {
        assert_eq!(table.remove(p), oracle.remove(p), "drain {p:?}");
        check(&table, &oracle);
    }
    assert!(table.is_empty());
    assert_agrees(&table, &oracle, &probes(&oracle), true);
}

/// A prefix length: half the draws are the boundary lengths (/0, the
/// root-stride neighbours /15–/17, /32 and the host route), half uniform.
fn arb_len(width: u8) -> impl Strategy<Value = u8> {
    (0usize..12, 0u8..=width)
        .prop_map(move |(pick, any)| [0, 15, 16, 17, 32, width].get(pick).copied().unwrap_or(any))
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// More probes than the memo's probe window, alternating random addresses
/// with addresses inside stored prefixes (so hits are exercised too).
fn probe_count() -> usize {
    MEMO_BYPASS.0 + 64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// IPv4: inserts, replacements and removals interleaved with lookups
    /// match the linear-scan oracle on every lookup path, across the
    /// small/table repr boundary in both directions.
    #[test]
    fn lpm4_interleaved_ops_match_reference(
        grow in proptest::collection::vec((any::<u32>(), arb_len(32), any::<u32>()), 24..48),
        churn in proptest::collection::vec((any::<usize>(), any::<bool>(), any::<u32>()), 1..40),
        seed in any::<u64>(),
    ) {
        let grow: Vec<(Prefix4, u32)> = grow
            .into_iter()
            .map(|(bits, len, v)| (Prefix4::new(Ipv4Addr::from(bits), len), v))
            .collect();
        grow_churn_drain::<u32>(&grow, &churn, |oracle| {
            let mut rng = seed;
            (0..probe_count())
                .map(|i| {
                    let noise = splitmix(&mut rng) as u32;
                    match oracle.0.get(i / 2 % oracle.0.len().max(1)) {
                        Some((p, _)) if i % 2 == 1 => {
                            Ipv4Addr::from(p.bits() | (noise & !mask32(p.len())))
                        }
                        _ => Ipv4Addr::from(noise),
                    }
                })
                .collect()
        });
    }

    /// IPv6 twin: the 128-bit key exercises multi-level stride chains,
    /// path-compressed skips and the uniform-node encoding far more deeply.
    #[test]
    fn lpm6_interleaved_ops_match_reference(
        grow in proptest::collection::vec((any::<u128>(), arb_len(128), any::<u32>()), 24..48),
        churn in proptest::collection::vec((any::<usize>(), any::<bool>(), any::<u32>()), 1..40),
        seed in any::<u64>(),
    ) {
        let grow: Vec<(Prefix6, u32)> = grow
            .into_iter()
            .map(|(bits, len, v)| (Prefix6::new(Ipv6Addr::from(bits), len), v))
            .collect();
        grow_churn_drain::<u128>(&grow, &churn, |oracle| {
            let mut rng = seed;
            (0..probe_count())
                .map(|i| {
                    let noise = (splitmix(&mut rng) as u128) << 64 | splitmix(&mut rng) as u128;
                    match oracle.0.get(i / 2 % oracle.0.len().max(1)) {
                        Some((p, _)) if i % 2 == 1 => {
                            Ipv6Addr::from(p.bits() | (noise & !mask128(p.len())))
                        }
                        _ => Ipv6Addr::from(noise),
                    }
                })
                .collect()
        });
    }
}
