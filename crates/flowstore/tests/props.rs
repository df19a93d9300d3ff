//! Property tests for the flow store: codec round-trip identity over the
//! full value domain, part encode/decode identity for arbitrary records,
//! compaction equivalence, footer min/max consistency, corruption
//! resistance of sealed parts, and the record digest pinned against a
//! byte-wise FNV-1a oracle and a golden value.

use flowmon::FlowSink;
use flowmon::{FlowKey, FlowRecord, IcmpMeta, Proto, Scope};
use flowstore::codec::{
    decode_delta, decode_delta2, decode_dict, decode_rle, decode_varint, encode_delta,
    encode_delta2, encode_dict, encode_rle, encode_varint,
};
use flowstore::{
    part_bytes, part_file_name, read_part, records_digest, write_part, DigestSink, PartSet,
    PartWriter,
};
use proptest::prelude::*;
use std::net::IpAddr;

fn arb_record() -> impl Strategy<Value = FlowRecord> {
    (
        (any::<u8>(), any::<bool>(), any::<u128>(), any::<u128>()),
        (
            any::<u16>(),
            any::<u16>(),
            any::<u8>(),
            any::<u8>(),
            any::<u16>(),
        ),
        (any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        any::<bool>(),
    )
        .prop_map(
            |(
                (proto_sel, v6, src_bits, dst_bits),
                (sport, dport, icmp_type, icmp_code, icmp_id),
                (start, end),
                (bytes_orig, bytes_reply, packets_orig, packets_reply),
                internal,
            )| {
                let proto = match proto_sel % 3 {
                    0 => Proto::Tcp,
                    1 => Proto::Udp,
                    _ => Proto::Icmp,
                };
                let addr = |bits: u128| -> IpAddr {
                    if v6 {
                        IpAddr::V6(std::net::Ipv6Addr::from(bits))
                    } else {
                        IpAddr::V4(std::net::Ipv4Addr::from(bits as u32))
                    }
                };
                let icmp = (proto == Proto::Icmp).then_some(IcmpMeta {
                    icmp_type,
                    icmp_code,
                    icmp_id,
                });
                FlowRecord {
                    key: FlowKey {
                        proto,
                        src: addr(src_bits),
                        dst: addr(dst_bits),
                        sport,
                        dport,
                        icmp,
                    },
                    start,
                    end,
                    bytes_orig,
                    bytes_reply,
                    packets_orig,
                    packets_reply,
                    scope: if internal {
                        Scope::Internal
                    } else {
                        Scope::External
                    },
                }
            },
        )
}

fn arb_records() -> impl Strategy<Value = Vec<FlowRecord>> {
    proptest::collection::vec(arb_record(), 0..80)
}

/// Records whose numeric fields span every byte width: each value is
/// shifted right by a random amount, so high zero bytes (the digest's
/// folded fast path) and full-width values both occur.
fn arb_narrow_record() -> impl Strategy<Value = FlowRecord> {
    (arb_record(), any::<u64>()).prop_map(|(mut r, shifts)| {
        let shift = |k: u32| ((shifts >> (k * 6)) % 64) as u32;
        let narrow_addr = |a: IpAddr, k: u32| match a {
            IpAddr::V4(v4) => IpAddr::V4((u32::from(v4) >> (shift(k) % 32)).into()),
            IpAddr::V6(v6) => IpAddr::V6((u128::from(v6) >> (2 * shift(k))).into()),
        };
        r.key.src = narrow_addr(r.key.src, 0);
        r.key.dst = narrow_addr(r.key.dst, 1);
        r.key.sport >>= shift(2) % 16;
        r.start >>= shift(3);
        r.end >>= shift(4);
        r.bytes_orig >>= shift(5);
        r.bytes_reply >>= shift(6);
        r.packets_orig >>= shift(7);
        r.packets_reply >>= shift(8);
        r
    })
}

/// The record digest's definition, byte by byte: FNV-1a64 over each
/// record's little-endian serialization, exactly as `flowstore` first
/// shipped it. `records_digest` and `DigestSink` must match it bit for
/// bit, whatever shortcuts they take.
fn oracle_digest(records: &[FlowRecord]) -> u64 {
    let mut bytes = Vec::new();
    for r in records {
        let addr = |a: IpAddr| -> (u8, u128) {
            match a {
                IpAddr::V4(v4) => (0, u128::from(u32::from(v4))),
                IpAddr::V6(v6) => (1, u128::from(v6)),
            }
        };
        let (src_tag, src_bits) = addr(r.key.src);
        let (dst_tag, dst_bits) = addr(r.key.dst);
        let icmp = r.key.icmp.map_or(0u64, |m| {
            (1u64 << 32)
                | (u64::from(m.icmp_type) << 24)
                | (u64::from(m.icmp_code) << 16)
                | u64::from(m.icmp_id)
        });
        bytes.push(match r.key.proto {
            Proto::Tcp => 0,
            Proto::Udp => 1,
            Proto::Icmp => 2,
        });
        bytes.push(src_tag);
        bytes.extend_from_slice(&src_bits.to_le_bytes());
        bytes.push(dst_tag);
        bytes.extend_from_slice(&dst_bits.to_le_bytes());
        bytes.extend_from_slice(&r.key.sport.to_le_bytes());
        bytes.extend_from_slice(&r.key.dport.to_le_bytes());
        for v in [
            icmp,
            r.start,
            r.end,
            r.bytes_orig,
            r.bytes_reply,
            r.packets_orig,
            r.packets_reply,
        ] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.push(match r.scope {
            Scope::External => 0,
            Scope::Internal => 1,
        });
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A fixed mixed v4/v6/ICMP record set for the golden digest.
fn golden_records() -> Vec<FlowRecord> {
    let tcp = FlowRecord {
        key: FlowKey::tcp(
            "192.0.2.10".parse().unwrap(),
            51_234,
            "2001:db8::443".parse().unwrap(),
            443,
        ),
        start: 86_400_000_000 * 7 + 12_345,
        end: 86_400_000_000 * 7 + 912_345,
        bytes_orig: 1_500,
        bytes_reply: 3_000_000,
        packets_orig: 12,
        packets_reply: 2_100,
        scope: Scope::External,
    };
    let udp = FlowRecord {
        key: FlowKey::udp(
            "2001:db8:ffff:1::2".parse().unwrap(),
            5_353,
            "ff02::fb".parse().unwrap(),
            5_353,
        ),
        start: 0,
        end: u64::MAX,
        bytes_orig: 0,
        bytes_reply: 1 << 56,
        packets_orig: 1,
        packets_reply: 0,
        scope: Scope::Internal,
    };
    let icmp = FlowRecord {
        key: FlowKey::icmp(
            "10.0.0.1".parse().unwrap(),
            "8.8.8.8".parse().unwrap(),
            IcmpMeta {
                icmp_type: 8,
                icmp_code: 0,
                icmp_id: 0xbeef,
            },
        ),
        start: 255,
        end: 256,
        bytes_orig: 84,
        bytes_reply: 84,
        packets_orig: 1,
        packets_reply: 1,
        scope: Scope::External,
    };
    vec![tcp, udp, icmp, tcp]
}

/// `records_digest` is pinned: `million-subs` prints it as
/// `stream_digest`, so any change to its value changes a report.
#[test]
fn records_digest_golden_value() {
    let records = golden_records();
    assert_eq!(
        format!("{:016x}", records_digest(&records)),
        "a1cdaac0ed4d30e1"
    );
    assert_eq!(records_digest(&records), oracle_digest(&records));
}

/// Every single-byte flip and every truncation of one real sealed part
/// is an `Err` from `read_part` — never a panic, never a wrong answer.
#[test]
fn every_flip_and_truncation_of_a_part_is_an_error() {
    let dir = std::env::temp_dir().join("flowstore-prop-damage-all");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("case.fsp");
    let bytes = part_bytes(1, 2, 3, &golden_records());
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x5a;
        std::fs::write(&path, &bad).unwrap();
        assert!(read_part(&path).is_err(), "flip at {i}");
        std::fs::write(&path, &bytes[..i]).unwrap();
        assert!(read_part(&path).is_err(), "truncated to {i}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    /// Varint codec: decode(encode(xs)) == xs over the full u64 domain.
    #[test]
    fn varint_round_trip(xs in proptest::collection::vec(any::<u64>(), 0..200)) {
        prop_assert_eq!(decode_varint(&encode_varint(&xs), xs.len()).unwrap(), xs);
    }

    /// Delta codec: lossless for arbitrary (unsorted, wrapping) values.
    #[test]
    fn delta_round_trip(xs in proptest::collection::vec(any::<u64>(), 0..200)) {
        prop_assert_eq!(decode_delta(&encode_delta(&xs), xs.len()).unwrap(), xs);
    }

    /// Delta-of-delta codec: lossless for arbitrary values.
    #[test]
    fn delta2_round_trip(xs in proptest::collection::vec(any::<u64>(), 0..200)) {
        prop_assert_eq!(decode_delta2(&encode_delta2(&xs), xs.len()).unwrap(), xs);
    }

    /// Run-length codec: lossless, including degenerate run shapes.
    #[test]
    fn rle_round_trip(xs in proptest::collection::vec(0u64..4, 0..300)) {
        prop_assert_eq!(decode_rle(&encode_rle(&xs), xs.len()).unwrap(), xs);
    }

    /// Dictionary codec: lossless over u128 values with repeats.
    #[test]
    fn dict_round_trip(xs in proptest::collection::vec(any::<u128>(), 0..120)) {
        prop_assert_eq!(decode_dict(&encode_dict(&xs), xs.len()).unwrap(), xs);
    }

    /// A full part round-trips arbitrary records exactly (written via the
    /// file path, re-read with digest verification).
    #[test]
    fn part_round_trip(records in arb_records(), stream in any::<u64>(), day in any::<u64>()) {
        let dir = std::env::temp_dir().join("flowstore-prop-part");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("case.fsp");
        write_part(&path, stream, day, 0, &records).unwrap();
        let (footer, decoded) = flowstore::read_part(&path).unwrap();
        prop_assert_eq!(footer.rows as usize, records.len());
        prop_assert_eq!(&decoded, &records);
        prop_assert_eq!(records_digest(&decoded), records_digest(&records));
    }

    /// Part encoding is a pure function of (identity, rows).
    #[test]
    fn part_bytes_deterministic(records in arb_records()) {
        prop_assert_eq!(part_bytes(3, 9, 1, &records), part_bytes(3, 9, 1, &records));
    }

    /// A writer reused across parts writes each exactly as a fresh one
    /// would: nothing from one part leaks into the next.
    #[test]
    fn reused_writer_is_pure(
        parts in proptest::collection::vec(
            proptest::collection::vec(arb_narrow_record(), 0..80),
            1..5,
        ),
    ) {
        let mut writer = PartWriter::new();
        for (seq, records) in parts.iter().enumerate() {
            prop_assert_eq!(
                writer.part_bytes(3, 9, seq as u32, records),
                part_bytes(3, 9, seq as u32, records)
            );
        }
    }

    /// Compacting K parts produces byte-identical output to writing the
    /// concatenated rows as one part directly.
    #[test]
    fn compaction_equals_one_big_part(records in arb_records(), k in 1usize..6) {
        let dir = std::env::temp_dir().join("flowstore-prop-compact");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let chunk = (records.len() / k).max(1);
        let mut metas = Vec::new();
        for (seq, rows) in records.chunks(chunk).enumerate() {
            let seq = seq as u32;
            metas.push(write_part(dir.join(part_file_name(0, 0, seq)), 0, 0, seq, rows).unwrap());
        }
        let compacted = PartSet::from_metas(metas)
            .compact(dir.join("compacted.fsp"), 0, 0, 0)
            .unwrap();
        let direct = dir.join("direct.fsp");
        write_part(&direct, 0, 0, 0, &records).unwrap();
        prop_assert_eq!(
            std::fs::read(&compacted.path).unwrap(),
            std::fs::read(&direct).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The streaming digest and the slice digest both equal the byte-wise
    /// oracle for arbitrary records of every field width.
    #[test]
    fn digest_matches_bytewise_oracle(records in proptest::collection::vec(arb_narrow_record(), 0..40)) {
        let mut sink = DigestSink::new();
        sink.accept_batch(&records[..records.len() / 2]);
        for r in &records[records.len() / 2..] {
            sink.accept(r);
        }
        let expect = oracle_digest(&records);
        prop_assert_eq!(records_digest(&records), expect);
        prop_assert_eq!(sink.digest(), expect);
        prop_assert_eq!(sink.count(), records.len() as u64);
    }

    /// Flipping any byte of a real sealed part (to any other value) or
    /// truncating it anywhere makes `read_part` return `Err`; it never
    /// panics or aborts. Half the cases repeat one source address so the
    /// dictionary codec is exercised as well as plain bits.
    #[test]
    fn damaged_part_is_an_error(
        records in proptest::collection::vec(arb_narrow_record(), 1..60),
        at in any::<u64>(),
        flip in 1u8..=255,
        repeat_src in any::<bool>(),
    ) {
        let mut records = records;
        if repeat_src {
            let src = records[0].key.src;
            for r in &mut records {
                r.key.src = src;
            }
        }
        let dir = std::env::temp_dir().join("flowstore-prop-damage");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("case.fsp");
        let bytes = part_bytes(4, 5, 6, &records);
        let at = (at % bytes.len() as u64) as usize;

        let mut flipped = bytes.clone();
        flipped[at] ^= flip;
        std::fs::write(&path, &flipped).unwrap();
        prop_assert!(read_part(&path).is_err(), "flip {:#x} at {}", flip, at);

        std::fs::write(&path, &bytes[..at]).unwrap();
        prop_assert!(read_part(&path).is_err(), "truncated to {}", at);

        std::fs::write(&path, &bytes).unwrap();
        prop_assert_eq!(read_part(&path).unwrap().1, records);
        std::fs::remove_file(&path).ok();
    }

    /// Footer min/max matches the semantic min/max of the decoded values
    /// for every numeric column (addresses compare by raw bit value).
    #[test]
    fn footer_minmax_consistent(records in arb_records()) {
        let dir = std::env::temp_dir().join("flowstore-prop-minmax");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("case.fsp");
        write_part(&path, 0, 0, 0, &records).unwrap();
        let (footer, _) = flowstore::read_part(&path).unwrap();

        let minmax = |vals: Vec<u128>| -> (u128, u128) {
            (
                vals.iter().min().copied().unwrap_or(0),
                vals.iter().max().copied().unwrap_or(0),
            )
        };
        let addr_bits = |a: IpAddr| -> u128 {
            match a {
                IpAddr::V4(v4) => u128::from(u32::from(v4)),
                IpAddr::V6(v6) => u128::from(v6),
            }
        };
        let cases: Vec<(usize, Vec<u128>)> = vec![
            (1, records.iter().map(|r| addr_bits(r.key.src)).collect()),
            (2, records.iter().map(|r| addr_bits(r.key.dst)).collect()),
            (3, records.iter().map(|r| u128::from(r.key.sport)).collect()),
            (4, records.iter().map(|r| u128::from(r.key.dport)).collect()),
            (6, records.iter().map(|r| u128::from(r.start)).collect()),
            (7, records.iter().map(|r| u128::from(r.end)).collect()),
            (8, records.iter().map(|r| u128::from(r.bytes_orig)).collect()),
            (9, records.iter().map(|r| u128::from(r.bytes_reply)).collect()),
            (10, records.iter().map(|r| u128::from(r.packets_orig)).collect()),
            (11, records.iter().map(|r| u128::from(r.packets_reply)).collect()),
        ];
        for (col, vals) in cases {
            let (min, max) = minmax(vals);
            prop_assert_eq!(footer.columns[col].min, min, "col {} min", col);
            prop_assert_eq!(footer.columns[col].max, max, "col {} max", col);
        }
    }
}
