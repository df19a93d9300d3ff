//! The on-disk part format, `FSPART2`: one sorted immutable day-part per
//! file.
//!
//! ```text
//! +----------------------+  offset 0
//! | magic  "FSPART2\0"   |  8 bytes
//! +----------------------+  column region (offsets in the footer are
//! | column 0 bytes       |  relative to the start of this region)
//! | column 1 bytes       |
//! | ...                  |
//! | column 12 bytes      |
//! +----------------------+
//! | footer               |  fixed-width little-endian:
//! |   stream u64         |    producer stream id
//! |   day    u64         |    day index (start / flowmon::DAY)
//! |   seq    u32         |    sequence within (stream, day)
//! |   rows   u64         |    row count
//! |   ncols  u32         |    = 13
//! |   per column:        |    codec u8 · offset u64 · len u64 ·
//! |     ... x 13         |    raw_bytes u64 · min u128 · max u128
//! +----------------------+
//! | footer_len u32       |  byte length of the footer
//! | checksum   u64       |  part checksum of every byte above
//! | tail magic "FSP2"    |  4 bytes
//! +----------------------+
//! ```
//!
//! One column per [`FlowRecord`] field; codecs per column:
//!
//! | # | column        | codec                                        | raw width |
//! |---|---------------|----------------------------------------------|-----------|
//! | 0 | proto         | run-length                                   | 1         |
//! | 1 | src           | family RLE + u128 dictionary, or + plain bits| 17        |
//! | 2 | dst           | family RLE + u128 dictionary, or + plain bits| 17        |
//! | 3 | sport         | zigzag delta varint, or plain varint         | 2         |
//! | 4 | dport         | zigzag delta varint, or plain varint         | 2         |
//! | 5 | icmp          | packed u64, run-length                       | 5         |
//! | 6 | start         | delta-of-delta varint                        | 8         |
//! | 7 | end           | varint of `end - start`                      | 8         |
//! | 8 | bytes_orig    | varint                                       | 8         |
//! | 9 | bytes_reply   | varint                                       | 8         |
//! | 10| packets_orig  | varint                                       | 8         |
//! | 11| packets_reply | varint                                       | 8         |
//! | 12| scope         | run-length                                   | 1         |
//!
//! Where a column has two codecs, the writer encodes both and keeps the
//! one with fewer bytes (ties go to the first); the footer's per-column
//! [`Codec`] tag records the choice. Plain address bits are 4
//! little-endian bytes per v4 row and 16 per v6 row, which wins once most
//! addresses in a part are distinct; the writer stops building a
//! dictionary as soon as it provably cannot win.
//!
//! **Determinism contract.** A sealed part's bytes are a pure function of
//! `(stream, day, seq, rows)`: codecs use first-appearance dictionaries and
//! wrapping deltas, never ambient state, so the same record slice always
//! produces the same file and decoding always reproduces the exact records.
//!
//! **Integrity.** The checksum covers the magic, columns, footer and
//! footer length, and is verified on every read before the footer is
//! trusted. The row count is further bounded by the `end` column's length
//! (every row stores at least one byte there) before anything is sized
//! from it, so no footer value can force a large allocation. An `FSPART1`
//! file or a foreign file is rejected with [`Error::Format`].

use crate::codec::{
    get_uvarint, put_uvarint, Delta2Cursor, Delta2Encoder, DeltaCursor, DeltaEncoder, DictCursor,
    DictEncoder, RleCursor, RleEncoder, VarintCursor,
};
use crate::digest::part_checksum;
use crate::error::{Error, Result};
use flowmon::{FlowKey, FlowRecord, IcmpMeta, Proto, Scope};
use std::net::IpAddr;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"FSPART2\0";
const TAIL_MAGIC: &[u8; 4] = b"FSP2";
/// Trailer: footer length (u32), checksum (u64), tail magic.
const TRAILER_LEN: usize = 4 + 8 + TAIL_MAGIC.len();
/// Footer: identity and row count, then one fixed-width entry per column.
const FOOTER_LEN: usize = 8 + 8 + 4 + 8 + 4 + COLUMNS * (1 + 8 + 8 + 8 + 16 + 16);

/// Number of columns in a part (one per [`FlowRecord`] field).
pub const COLUMNS: usize = 13;

/// Column names, in on-disk order. Used for telemetry and debugging.
pub const COLUMN_NAMES: [&str; COLUMNS] = [
    "proto",
    "src",
    "dst",
    "sport",
    "dport",
    "icmp",
    "start",
    "end",
    "bytes_orig",
    "bytes_reply",
    "packets_orig",
    "packets_reply",
    "scope",
];

/// Natural (uncompressed) width in bytes of each column's values.
const RAW_WIDTHS: [u64; COLUMNS] = [1, 17, 17, 2, 2, 5, 8, 8, 8, 8, 8, 8, 1];

/// Per-column counter names for compressed bytes, in column order.
/// Static so `obs` counters avoid per-seal string allocation.
pub(crate) const COL_BYTES_COUNTERS: [&str; COLUMNS] = [
    "flowstore.col.proto.bytes",
    "flowstore.col.src.bytes",
    "flowstore.col.dst.bytes",
    "flowstore.col.sport.bytes",
    "flowstore.col.dport.bytes",
    "flowstore.col.icmp.bytes",
    "flowstore.col.start.bytes",
    "flowstore.col.end.bytes",
    "flowstore.col.bytes_orig.bytes",
    "flowstore.col.bytes_reply.bytes",
    "flowstore.col.packets_orig.bytes",
    "flowstore.col.packets_reply.bytes",
    "flowstore.col.scope.bytes",
];

/// Per-column counter names for raw (pre-compression) bytes.
pub(crate) const COL_RAW_COUNTERS: [&str; COLUMNS] = [
    "flowstore.col.proto.raw",
    "flowstore.col.src.raw",
    "flowstore.col.dst.raw",
    "flowstore.col.sport.raw",
    "flowstore.col.dport.raw",
    "flowstore.col.icmp.raw",
    "flowstore.col.start.raw",
    "flowstore.col.end.raw",
    "flowstore.col.bytes_orig.raw",
    "flowstore.col.bytes_reply.raw",
    "flowstore.col.packets_orig.raw",
    "flowstore.col.packets_reply.raw",
    "flowstore.col.scope.raw",
];

/// How a column's bytes are encoded; recorded per column in the footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Run-length `(len, value)` varint pairs.
    Rle,
    /// One LEB128 varint per row.
    Varint,
    /// Zigzag delta varints (first value raw).
    Delta,
    /// Delta-of-delta varints.
    Delta2,
    /// Family tags (run-length) + first-appearance `u128` dictionary.
    AddrDict,
    /// Family tags (run-length) + plain little-endian bits, 4 bytes per
    /// v4 row and 16 per v6 row.
    AddrPlain,
}

impl Codec {
    const ALL: [Codec; 6] = [
        Codec::Rle,
        Codec::Varint,
        Codec::Delta,
        Codec::Delta2,
        Codec::AddrDict,
        Codec::AddrPlain,
    ];

    /// The footer byte for this codec.
    fn tag(self) -> u8 {
        self as u8
    }

    /// The codec a footer byte names, if any.
    fn from_tag(tag: u8) -> Option<Codec> {
        Codec::ALL.get(usize::from(tag)).copied()
    }
}

/// The codecs each column may use; the writer prefers the first on ties.
const COLUMN_CODECS: [&[Codec]; COLUMNS] = [
    &[Codec::Rle],
    &[Codec::AddrDict, Codec::AddrPlain],
    &[Codec::AddrDict, Codec::AddrPlain],
    &[Codec::Delta, Codec::Varint],
    &[Codec::Delta, Codec::Varint],
    &[Codec::Rle],
    &[Codec::Delta2],
    &[Codec::Varint],
    &[Codec::Varint],
    &[Codec::Varint],
    &[Codec::Varint],
    &[Codec::Varint],
    &[Codec::Rle],
];

/// Index of the `end` column, whose length bounds the row count.
const END_COLUMN: usize = 7;

/// Footer metadata for one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnMeta {
    /// How the column is encoded.
    pub codec: Codec,
    /// Byte offset of the column within the column region.
    pub offset: u64,
    /// Encoded byte length.
    pub len: u64,
    /// Uncompressed size (`rows * natural width`).
    pub raw_bytes: u64,
    /// Minimum semantic value (integer mapping; addresses as raw bits).
    /// Zero when the part is empty.
    pub min: u128,
    /// Maximum semantic value. Zero when the part is empty.
    pub max: u128,
}

/// The decoded footer of a part file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Footer {
    /// Producer stream id (shard or residence group).
    pub stream: u64,
    /// Day index of every row in the part.
    pub day: u64,
    /// Sequence number within `(stream, day)`.
    pub seq: u32,
    /// Row count.
    pub rows: u64,
    /// Per-column metadata, in [`COLUMN_NAMES`] order.
    pub columns: Vec<ColumnMeta>,
}

/// Identity and summary of a sealed part on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartMeta {
    /// Path of the part file.
    pub path: PathBuf,
    /// Producer stream id.
    pub stream: u64,
    /// Day index.
    pub day: u64,
    /// Sequence within `(stream, day)`.
    pub seq: u32,
    /// Row count.
    pub rows: u64,
    /// Total encoded column bytes.
    pub stored_bytes: u64,
    /// Total uncompressed column bytes.
    pub raw_bytes: u64,
}

impl PartMeta {
    /// Canonical replay order: `(day, stream, seq)`. Day-major replay
    /// matches the day-major emission order of every producer, so merged
    /// replay reproduces the original stream byte-identically.
    pub fn canonical_key(&self) -> (u64, u64, u32) {
        (self.day, self.stream, self.seq)
    }
}

/// Canonical file name for a part: `part-s{stream}-d{day}-q{seq}.fsp`.
pub fn part_file_name(stream: u64, day: u64, seq: u32) -> String {
    format!("part-s{stream:08}-d{day:08}-q{seq:04}.fsp")
}

/// Parse a [`part_file_name`]; `None` for foreign files.
pub fn parse_part_file_name(name: &str) -> Option<(u64, u64, u32)> {
    let rest = name.strip_prefix("part-s")?.strip_suffix(".fsp")?;
    let (stream, rest) = rest.split_once("-d")?;
    let (day, seq) = rest.split_once("-q")?;
    Some((stream.parse().ok()?, day.parse().ok()?, seq.parse().ok()?))
}

pub(crate) fn proto_code(p: Proto) -> u64 {
    match p {
        Proto::Tcp => 0,
        Proto::Udp => 1,
        Proto::Icmp => 2,
    }
}

fn proto_from(code: u64) -> Result<Proto> {
    match code {
        0 => Ok(Proto::Tcp),
        1 => Ok(Proto::Udp),
        2 => Ok(Proto::Icmp),
        _ => Err(Error::corrupt("unknown proto code")),
    }
}

pub(crate) fn scope_code(s: Scope) -> u64 {
    match s {
        Scope::External => 0,
        Scope::Internal => 1,
    }
}

fn scope_from(code: u64) -> Result<Scope> {
    match code {
        0 => Ok(Scope::External),
        1 => Ok(Scope::Internal),
        _ => Err(Error::corrupt("unknown scope code")),
    }
}

/// `(family_tag, bits)` for an address: v4 → `(0, u32 bits)`, v6 → `(1, u128 bits)`.
pub(crate) fn addr_bits(a: IpAddr) -> (u64, u128) {
    match a {
        IpAddr::V4(v4) => (0, u128::from(u32::from(v4))),
        IpAddr::V6(v6) => (1, u128::from(v6)),
    }
}

fn addr_from(tag: u64, bits: u128) -> Result<IpAddr> {
    match tag {
        0 => {
            let v = u32::try_from(bits).map_err(|_| Error::corrupt("v4 address overflow"))?;
            Ok(IpAddr::V4(std::net::Ipv4Addr::from(v)))
        }
        1 => Ok(IpAddr::V6(std::net::Ipv6Addr::from(bits))),
        _ => Err(Error::corrupt("unknown address family tag")),
    }
}

pub(crate) fn icmp_pack(m: Option<IcmpMeta>) -> u64 {
    match m {
        None => 0,
        Some(m) => {
            (1u64 << 32)
                | (u64::from(m.icmp_type) << 24)
                | (u64::from(m.icmp_code) << 16)
                | u64::from(m.icmp_id)
        }
    }
}

fn icmp_unpack(v: u64) -> Result<Option<IcmpMeta>> {
    if v == 0 {
        return Ok(None);
    }
    if v >> 32 != 1 {
        return Err(Error::corrupt("bad icmp packing"));
    }
    Ok(Some(IcmpMeta {
        icmp_type: ((v >> 24) & 0xff) as u8,
        icmp_code: ((v >> 16) & 0xff) as u8,
        icmp_id: (v & 0xffff) as u16,
    }))
}

/// Running min/max of one column.
#[derive(Debug, Clone, Copy)]
struct Bounds {
    min: u128,
    max: u128,
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds::EMPTY
    }
}

impl Bounds {
    const EMPTY: Bounds = Bounds {
        min: u128::MAX,
        max: 0,
    };

    #[inline]
    fn add(&mut self, v: u128) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// `(min, max)`, or `(0, 0)` for an empty column.
    fn get(self) -> (u128, u128) {
        if self.min > self.max {
            (0, 0)
        } else {
            (self.min, self.max)
        }
    }
}

/// Address column writer: family tags as a length-prefixed run-length
/// stream, then the address bits as plain fixed-width bytes or as a
/// dictionary, whichever is smaller.
#[derive(Debug, Default)]
struct AddrEncoder {
    tags: Vec<u8>,
    tag_rle: RleEncoder,
    plain: Vec<u8>,
    dict: DictEncoder,
    /// False once the dictionary provably cannot beat plain bits.
    dict_live: bool,
}

impl AddrEncoder {
    /// Start a new column, reusing the previous column's allocations.
    fn reset(&mut self) {
        self.tags.clear();
        self.tag_rle = RleEncoder::default();
        self.plain.clear();
        self.dict.clear();
        self.dict_live = true;
    }

    #[inline]
    fn push(&mut self, a: IpAddr) -> u128 {
        let (tag, bits) = addr_bits(a);
        self.tag_rle.push(&mut self.tags, tag);
        match a {
            IpAddr::V4(v4) => self.plain.extend_from_slice(&u32::from(v4).to_le_bytes()),
            IpAddr::V6(v6) => self.plain.extend_from_slice(&u128::from(v6).to_le_bytes()),
        }
        bits
    }

    /// Build the dictionary over the column's addresses, after every
    /// [`AddrEncoder::push`], stopping as soon as it provably cannot beat
    /// the plain bits: every row still to come adds at least one code
    /// byte. That changes no choice; it only stops paying for a
    /// dictionary that would lose anyway, as on mostly-distinct
    /// destination columns. This runs as its own loop rather than inside
    /// the per-record pass: back-to-back table probes overlap their cache
    /// misses, where probes spread between the other columns' work wait
    /// for each other.
    fn build_dict(&mut self, addrs: impl ExactSizeIterator<Item = IpAddr>) {
        let mut rows_left = addrs.len();
        for a in addrs {
            self.dict.push(addr_bits(a).1);
            rows_left -= 1;
            if self.dict.encoded_len() + rows_left > self.plain.len() {
                self.dict_live = false;
                return;
            }
        }
    }

    fn finish(&mut self, out: &mut Vec<u8>) -> Codec {
        self.tag_rle.finish(&mut self.tags);
        put_uvarint(out, self.tags.len() as u64);
        out.extend_from_slice(&self.tags);
        if self.dict_live && self.dict.encoded_len() <= self.plain.len() {
            self.dict.finish(out);
            Codec::AddrDict
        } else {
            out.extend_from_slice(&self.plain);
            Codec::AddrPlain
        }
    }
}

/// Port column writer: zigzag delta and plain varint side by side;
/// [`PortEncoder::finish`] keeps the smaller.
#[derive(Debug, Default)]
struct PortEncoder {
    delta: Vec<u8>,
    delta_enc: DeltaEncoder,
    plain: Vec<u8>,
}

impl PortEncoder {
    fn reset(&mut self) {
        self.delta.clear();
        self.delta_enc = DeltaEncoder::default();
        self.plain.clear();
    }

    #[inline]
    fn push(&mut self, port: u16) {
        self.delta_enc.push(&mut self.delta, u64::from(port));
        put_uvarint(&mut self.plain, u64::from(port));
    }

    fn finish(&mut self, out: &mut Vec<u8>) -> Codec {
        if self.plain.len() < self.delta.len() {
            out.extend_from_slice(&self.plain);
            Codec::Varint
        } else {
            out.extend_from_slice(&self.delta);
            Codec::Delta
        }
    }
}

/// One encoder per column, fed one record at a time. A [`PartWriter`]
/// keeps one from part to part, so its buffers and dictionary tables are
/// allocated once per writer rather than once per part.
#[derive(Debug, Default)]
struct ColumnEncoders {
    rows: u64,
    /// Buffers of the single-codec columns (indices 1–4 stay empty: the
    /// address and port writers own theirs).
    bufs: [Vec<u8>; COLUMNS],
    bounds: [Bounds; COLUMNS],
    proto: RleEncoder,
    src: AddrEncoder,
    dst: AddrEncoder,
    sport: PortEncoder,
    dport: PortEncoder,
    icmp: RleEncoder,
    start: Delta2Encoder,
    scope: RleEncoder,
}

impl ColumnEncoders {
    /// Append the column region for `records` to `out`: one pass over the
    /// records for every column, then one per address dictionary.
    fn encode(&mut self, out: &mut Vec<u8>, records: &[FlowRecord]) -> Vec<ColumnMeta> {
        self.reset();
        for r in records {
            self.push(r);
        }
        self.src.build_dict(records.iter().map(|r| r.key.src));
        self.dst.build_dict(records.iter().map(|r| r.key.dst));
        self.finish(out)
    }

    /// Start a new part, reusing the previous part's allocations.
    fn reset(&mut self) {
        self.rows = 0;
        for buf in &mut self.bufs {
            buf.clear();
        }
        self.bounds = [Bounds::EMPTY; COLUMNS];
        self.proto = RleEncoder::default();
        self.src.reset();
        self.dst.reset();
        self.sport.reset();
        self.dport.reset();
        self.icmp = RleEncoder::default();
        self.start = Delta2Encoder::default();
        self.scope = RleEncoder::default();
    }

    #[inline]
    fn push(&mut self, r: &FlowRecord) {
        let (b, m) = (&mut self.bufs, &mut self.bounds);
        let proto = proto_code(r.key.proto);
        self.proto.push(&mut b[0], proto);
        m[0].add(u128::from(proto));
        m[1].add(self.src.push(r.key.src));
        m[2].add(self.dst.push(r.key.dst));
        self.sport.push(r.key.sport);
        m[3].add(u128::from(r.key.sport));
        self.dport.push(r.key.dport);
        m[4].add(u128::from(r.key.dport));
        let icmp = icmp_pack(r.key.icmp);
        self.icmp.push(&mut b[5], icmp);
        m[5].add(u128::from(icmp));
        self.start.push(&mut b[6], r.start);
        m[6].add(u128::from(r.start));
        put_uvarint(&mut b[7], r.end.wrapping_sub(r.start));
        m[7].add(u128::from(r.end));
        for (i, v) in [
            (8, r.bytes_orig),
            (9, r.bytes_reply),
            (10, r.packets_orig),
            (11, r.packets_reply),
        ] {
            put_uvarint(&mut b[i], v);
            m[i].add(u128::from(v));
        }
        let scope = scope_code(r.scope);
        self.scope.push(&mut b[12], scope);
        m[12].add(u128::from(scope));
        self.rows += 1;
    }

    /// Append every column to `out`, in order, and describe each with
    /// offsets relative to where the region starts in `out`. Reserves
    /// room for the footer and trailer too, so `out` grows only once.
    fn finish(&mut self, out: &mut Vec<u8>) -> Vec<ColumnMeta> {
        self.proto.finish(&mut self.bufs[0]);
        self.icmp.finish(&mut self.bufs[5]);
        self.scope.finish(&mut self.bufs[12]);
        // Each two-codec column ends up no longer than its plain
        // (address) or delta (port) candidate.
        let columns_max: usize = self.bufs.iter().map(Vec::len).sum::<usize>()
            + [&self.src, &self.dst]
                .iter()
                .map(|a| 10 + a.tags.len() + a.plain.len())
                .sum::<usize>()
            + self.sport.delta.len()
            + self.dport.delta.len();
        out.reserve(columns_max + FOOTER_LEN + TRAILER_LEN);
        let region_start = out.len();
        let mut metas = Vec::with_capacity(COLUMNS);
        for i in 0..COLUMNS {
            let offset = out.len();
            let codec = match i {
                1 => self.src.finish(out),
                2 => self.dst.finish(out),
                3 => self.sport.finish(out),
                4 => self.dport.finish(out),
                _ => {
                    out.extend_from_slice(&self.bufs[i]);
                    COLUMN_CODECS[i][0]
                }
            };
            let (min, max) = self.bounds[i].get();
            metas.push(ColumnMeta {
                codec,
                offset: (offset - region_start) as u64,
                len: (out.len() - offset) as u64,
                raw_bytes: RAW_WIDTHS[i] * self.rows,
                min,
                max,
            });
        }
        metas
    }
}

/// Encode records into the column region plus per-column metadata.
/// Pure: bytes depend only on the record slice.
#[must_use]
pub fn encode_columns(records: &[FlowRecord]) -> (Vec<u8>, Vec<ColumnMeta>) {
    let mut region = Vec::new();
    let columns = ColumnEncoders::default().encode(&mut region, records);
    (region, columns)
}

/// Reads an address column written by [`AddrEncoder`].
enum AddrCursor<'a> {
    Dict(RleCursor<'a>, DictCursor<'a>),
    Plain(RleCursor<'a>, &'a [u8], usize),
}

impl<'a> AddrCursor<'a> {
    fn new(buf: &'a [u8], codec: Codec, rows: usize) -> Result<AddrCursor<'a>> {
        let mut pos = 0usize;
        let rle_len = get_uvarint(buf, &mut pos)?;
        let rle_end = usize::try_from(rle_len)
            .ok()
            .and_then(|len| pos.checked_add(len))
            .filter(|&e| e <= buf.len())
            .ok_or_else(|| Error::corrupt("address tag length out of range"))?;
        let tags = RleCursor::new(&buf[pos..rle_end]);
        let bits = &buf[rle_end..];
        match codec {
            Codec::AddrDict => Ok(AddrCursor::Dict(tags, DictCursor::new(bits, rows)?)),
            Codec::AddrPlain => Ok(AddrCursor::Plain(tags, bits, 0)),
            _ => Err(Error::corrupt("address column with a non-address codec")),
        }
    }

    #[inline]
    fn next_addr(&mut self) -> Result<IpAddr> {
        match self {
            AddrCursor::Dict(tags, dict) => {
                let tag = tags.next_value()?;
                addr_from(tag, dict.next_value()?)
            }
            AddrCursor::Plain(tags, buf, pos) => match tags.next_value()? {
                0 => take(buf, pos).map(|b| IpAddr::V4(u32::from_le_bytes(b).into())),
                1 => take(buf, pos).map(|b| IpAddr::V6(u128::from_le_bytes(b).into())),
                _ => Err(Error::corrupt("unknown address family tag")),
            },
        }
    }

    fn finish(&self) -> Result<()> {
        match self {
            AddrCursor::Dict(tags, dict) => {
                tags.finish()?;
                dict.finish()
            }
            AddrCursor::Plain(tags, buf, pos) => {
                tags.finish()?;
                if *pos == buf.len() {
                    Ok(())
                } else {
                    Err(Error::corrupt("trailing bytes after column"))
                }
            }
        }
    }
}

/// Reads a port column written by [`PortEncoder`].
enum PortCursor<'a> {
    Delta(DeltaCursor<'a>),
    Plain(VarintCursor<'a>),
}

impl<'a> PortCursor<'a> {
    fn new(buf: &'a [u8], codec: Codec) -> Result<PortCursor<'a>> {
        match codec {
            Codec::Delta => Ok(PortCursor::Delta(DeltaCursor::new(buf))),
            Codec::Varint => Ok(PortCursor::Plain(VarintCursor::new(buf))),
            _ => Err(Error::corrupt("port column with a non-port codec")),
        }
    }

    #[inline]
    fn next_port(&mut self) -> Result<u16> {
        let v = match self {
            PortCursor::Delta(c) => c.next_value()?,
            PortCursor::Plain(c) => c.next_value()?,
        };
        u16::try_from(v).map_err(|_| Error::corrupt("port out of range"))
    }

    fn finish(&self) -> Result<()> {
        match self {
            PortCursor::Delta(c) => c.finish(),
            PortCursor::Plain(c) => c.finish(),
        }
    }
}

/// Decode the column region back into records. Exact inverse of
/// [`encode_columns`] for any record slice: one cursor per column, each
/// record built directly from the cursors.
pub fn decode_columns(region: &[u8], footer: &Footer) -> Result<Vec<FlowRecord>> {
    if footer.columns.len() != COLUMNS {
        return Err(Error::corrupt("wrong column count"));
    }
    // Every row stores at least one varint byte in the `end` column, so
    // its length bounds the row count before anything is sized from it.
    if footer.rows > footer.columns[END_COLUMN].len {
        return Err(Error::corrupt("row count exceeds the end column"));
    }
    let rows = usize::try_from(footer.rows).map_err(|_| Error::corrupt("row count overflow"))?;
    let col = |i: usize| -> Result<(&[u8], Codec)> {
        let m = &footer.columns[i];
        if !COLUMN_CODECS[i].contains(&m.codec) {
            return Err(Error::corrupt(format!(
                "column {} cannot use codec {:?}",
                COLUMN_NAMES[i], m.codec
            )));
        }
        let start = usize::try_from(m.offset).map_err(|_| Error::corrupt("offset overflow"))?;
        let len = usize::try_from(m.len).map_err(|_| Error::corrupt("length overflow"))?;
        let end = start
            .checked_add(len)
            .filter(|&e| e <= region.len())
            .ok_or_else(|| Error::corrupt("column out of range"))?;
        Ok((&region[start..end], m.codec))
    };

    let mut proto = RleCursor::new(col(0)?.0);
    let (buf, codec) = col(1)?;
    let mut src = AddrCursor::new(buf, codec, rows)?;
    let (buf, codec) = col(2)?;
    let mut dst = AddrCursor::new(buf, codec, rows)?;
    let (buf, codec) = col(3)?;
    let mut sport = PortCursor::new(buf, codec)?;
    let (buf, codec) = col(4)?;
    let mut dport = PortCursor::new(buf, codec)?;
    let mut icmp = RleCursor::new(col(5)?.0);
    let mut start = Delta2Cursor::new(col(6)?.0);
    let mut end_rel = VarintCursor::new(col(7)?.0);
    let mut bytes_orig = VarintCursor::new(col(8)?.0);
    let mut bytes_reply = VarintCursor::new(col(9)?.0);
    let mut packets_orig = VarintCursor::new(col(10)?.0);
    let mut packets_reply = VarintCursor::new(col(11)?.0);
    let mut scope = RleCursor::new(col(12)?.0);

    let mut out = Vec::with_capacity(rows);
    for _ in 0..rows {
        let key = FlowKey {
            proto: proto_from(proto.next_value()?)?,
            src: src.next_addr()?,
            dst: dst.next_addr()?,
            sport: sport.next_port()?,
            dport: dport.next_port()?,
            icmp: icmp_unpack(icmp.next_value()?)?,
        };
        let start = start.next_value()?;
        out.push(FlowRecord {
            key,
            start,
            end: start.wrapping_add(end_rel.next_value()?),
            bytes_orig: bytes_orig.next_value()?,
            bytes_reply: bytes_reply.next_value()?,
            packets_orig: packets_orig.next_value()?,
            packets_reply: packets_reply.next_value()?,
            scope: scope_from(scope.next_value()?)?,
        });
    }
    proto.finish()?;
    src.finish()?;
    dst.finish()?;
    sport.finish()?;
    dport.finish()?;
    icmp.finish()?;
    start.finish()?;
    for c in [
        &end_rel,
        &bytes_orig,
        &bytes_reply,
        &packets_orig,
        &packets_reply,
    ] {
        c.finish()?;
    }
    scope.finish()?;
    Ok(out)
}

fn put_u64_le(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32_le(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u128_le(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn take<const N: usize>(buf: &[u8], pos: &mut usize) -> Result<[u8; N]> {
    let end = pos
        .checked_add(N)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| Error::corrupt("truncated field"))?;
    let mut arr = [0u8; N];
    arr.copy_from_slice(&buf[*pos..end]);
    *pos = end;
    Ok(arr)
}

fn encode_footer_into(out: &mut Vec<u8>, footer: &Footer) {
    put_u64_le(out, footer.stream);
    put_u64_le(out, footer.day);
    put_u32_le(out, footer.seq);
    put_u64_le(out, footer.rows);
    put_u32_le(out, footer.columns.len() as u32);
    for c in &footer.columns {
        out.push(c.codec.tag());
        put_u64_le(out, c.offset);
        put_u64_le(out, c.len);
        put_u64_le(out, c.raw_bytes);
        put_u128_le(out, c.min);
        put_u128_le(out, c.max);
    }
}

fn decode_footer(buf: &[u8]) -> Result<Footer> {
    let mut pos = 0usize;
    let stream = u64::from_le_bytes(take::<8>(buf, &mut pos)?);
    let day = u64::from_le_bytes(take::<8>(buf, &mut pos)?);
    let seq = u32::from_le_bytes(take::<4>(buf, &mut pos)?);
    let rows = u64::from_le_bytes(take::<8>(buf, &mut pos)?);
    let ncols = u32::from_le_bytes(take::<4>(buf, &mut pos)?) as usize;
    if ncols != COLUMNS {
        return Err(Error::corrupt("unexpected column count"));
    }
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let [tag] = take::<1>(buf, &mut pos)?;
        columns.push(ColumnMeta {
            codec: Codec::from_tag(tag).ok_or_else(|| Error::corrupt("unknown codec tag"))?,
            offset: u64::from_le_bytes(take::<8>(buf, &mut pos)?),
            len: u64::from_le_bytes(take::<8>(buf, &mut pos)?),
            raw_bytes: u64::from_le_bytes(take::<8>(buf, &mut pos)?),
            min: u128::from_le_bytes(take::<16>(buf, &mut pos)?),
            max: u128::from_le_bytes(take::<16>(buf, &mut pos)?),
        });
    }
    if pos != buf.len() {
        return Err(Error::corrupt("trailing bytes after footer"));
    }
    Ok(Footer {
        stream,
        day,
        seq,
        rows,
        columns,
    })
}

/// Writes parts, keeping its column encoders' buffers and dictionary
/// tables from one part to the next. [`write_part`] and [`part_bytes`]
/// are one-off writers; a stream of parts (a [`crate::SpillSink`], a
/// sharded spill loop) should hold one of these instead.
#[derive(Debug, Default)]
pub struct PartWriter {
    encoders: ColumnEncoders,
}

impl PartWriter {
    /// A writer with nothing allocated yet.
    #[must_use]
    pub fn new() -> PartWriter {
        PartWriter::default()
    }

    /// Serialize a complete part to bytes. Pure: output depends only on
    /// the arguments, so two writers given the same rows produce
    /// identical files.
    pub fn part_bytes(
        &mut self,
        stream: u64,
        day: u64,
        seq: u32,
        records: &[FlowRecord],
    ) -> Vec<u8> {
        self.build(stream, day, seq, records).0
    }

    fn build(
        &mut self,
        stream: u64,
        day: u64,
        seq: u32,
        records: &[FlowRecord],
    ) -> (Vec<u8>, Footer) {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        let columns = self.encoders.encode(&mut out, records);
        let footer = Footer {
            stream,
            day,
            seq,
            rows: records.len() as u64,
            columns,
        };
        let footer_start = out.len();
        encode_footer_into(&mut out, &footer);
        let footer_len = (out.len() - footer_start) as u32;
        put_u32_le(&mut out, footer_len);
        let checksum = part_checksum(&out);
        put_u64_le(&mut out, checksum);
        out.extend_from_slice(TAIL_MAGIC);
        (out, footer)
    }

    /// Write a sealed part file and record its telemetry (parts sealed,
    /// rows, raw/stored bytes overall and per column — all
    /// layout-invariant: they depend only on the spilled stream, not the
    /// thread schedule).
    pub fn write(
        &mut self,
        path: impl AsRef<Path>,
        stream: u64,
        day: u64,
        seq: u32,
        records: &[FlowRecord],
    ) -> Result<PartMeta> {
        let path = path.as_ref();
        let (out, footer) = self.build(stream, day, seq, records);
        std::fs::write(path, &out).map_err(|e| Error::io(path, e))?;

        let stored: u64 = footer.columns.iter().map(|c| c.len).sum();
        let raw: u64 = footer.columns.iter().map(|c| c.raw_bytes).sum();
        obs::counter_add("flowstore.parts_sealed", 1);
        obs::counter_add("flowstore.rows_sealed", footer.rows);
        obs::counter_add("flowstore.bytes_stored", stored);
        obs::counter_add("flowstore.bytes_raw", raw);
        for (i, c) in footer.columns.iter().enumerate() {
            obs::counter_add(COL_BYTES_COUNTERS[i], c.len);
            obs::counter_add(COL_RAW_COUNTERS[i], c.raw_bytes);
        }
        Ok(PartMeta {
            path: path.to_path_buf(),
            stream,
            day,
            seq,
            rows: footer.rows,
            stored_bytes: stored,
            raw_bytes: raw,
        })
    }
}

/// Serialize a complete part to bytes with a one-off [`PartWriter`].
#[must_use]
pub fn part_bytes(stream: u64, day: u64, seq: u32, records: &[FlowRecord]) -> Vec<u8> {
    PartWriter::new().part_bytes(stream, day, seq, records)
}

/// Write a sealed part file with a one-off [`PartWriter`].
pub fn write_part(
    path: impl AsRef<Path>,
    stream: u64,
    day: u64,
    seq: u32,
    records: &[FlowRecord],
) -> Result<PartMeta> {
    PartWriter::new().write(path, stream, day, seq, records)
}

/// Verify a part's framing and checksum and split it into its footer and
/// column region.
fn open_part<'a>(bytes: &'a [u8], path: &Path) -> Result<(Footer, &'a [u8])> {
    let Some(magic) = bytes.first_chunk::<8>() else {
        return Err(Error::corrupt(format!("truncated part {}", path.display())));
    };
    if magic != MAGIC {
        return Err(Error::Format {
            path: path.to_path_buf(),
            magic: *magic,
        });
    }
    let Some(trailer) = bytes
        .len()
        .checked_sub(TRAILER_LEN)
        .filter(|&t| t >= MAGIC.len())
    else {
        return Err(Error::corrupt(format!("truncated part {}", path.display())));
    };
    let mut pos = trailer;
    let footer_len = u32::from_le_bytes(take(bytes, &mut pos)?) as usize;
    let checksum = u64::from_le_bytes(take(bytes, &mut pos)?);
    if &bytes[pos..] != TAIL_MAGIC {
        return Err(Error::corrupt(format!("bad tail in {}", path.display())));
    }
    if part_checksum(&bytes[..trailer + 4]) != checksum {
        return Err(Error::corrupt(format!(
            "checksum mismatch in {}",
            path.display()
        )));
    }
    let footer_start = trailer
        .checked_sub(footer_len)
        .filter(|&s| s >= MAGIC.len())
        .ok_or_else(|| Error::corrupt("footer length out of range"))?;
    let footer = decode_footer(&bytes[footer_start..trailer])?;
    Ok((footer, &bytes[MAGIC.len()..footer_start]))
}

/// Read and fully decode a part file, verifying magic, checksum and
/// structure. Any damage is an `Err`, never a panic or an oversized
/// allocation.
pub fn read_part(path: impl AsRef<Path>) -> Result<(Footer, Vec<FlowRecord>)> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| Error::io(path, e))?;
    let (footer, region) = open_part(&bytes, path)?;
    let records = decode_columns(region, &footer)?;
    Ok((footer, records))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<FlowRecord> {
        let mut out = Vec::new();
        for i in 0..200u64 {
            out.push(FlowRecord {
                key: FlowKey::tcp(
                    IpAddr::V4(std::net::Ipv4Addr::from(0x0a00_0000 + i as u32 % 7)),
                    (40_000 + i % 100) as u16,
                    IpAddr::V6(std::net::Ipv6Addr::from(
                        0x2001_0db8 << 96 | u128::from(i % 5),
                    )),
                    443,
                ),
                start: 86_400_000_000 * 3 + i * 1000,
                end: 86_400_000_000 * 3 + i * 1000 + 77,
                bytes_orig: i * 31,
                bytes_reply: i * 997,
                packets_orig: i,
                packets_reply: i * 2,
                scope: if i % 9 == 0 {
                    Scope::Internal
                } else {
                    Scope::External
                },
            });
        }
        out[5].key = FlowKey::icmp(
            "10.0.0.1".parse().unwrap(),
            "8.8.8.8".parse().unwrap(),
            IcmpMeta {
                icmp_type: 8,
                icmp_code: 0,
                icmp_id: 9,
            },
        );
        out
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("flowstore-part-{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Byte offset of the footer within a part's bytes.
    fn footer_start(bytes: &[u8]) -> usize {
        let t = bytes.len() - TRAILER_LEN;
        t - u32::from_le_bytes(bytes[t..t + 4].try_into().unwrap()) as usize
    }

    /// Re-seal `bytes` after an edit, so only the structural checks stand
    /// between the edit and the decoder.
    fn reseal(bytes: &mut [u8]) {
        let t = bytes.len() - TRAILER_LEN;
        let sum = part_checksum(&bytes[..t + 4]);
        bytes[t + 4..t + 12].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn columns_round_trip() {
        let records = sample_records();
        let (region, columns) = encode_columns(&records);
        let footer = Footer {
            stream: 1,
            day: 3,
            seq: 0,
            rows: records.len() as u64,
            columns,
        };
        assert_eq!(decode_columns(&region, &footer).unwrap(), records);
    }

    #[test]
    fn file_round_trip_and_digest_check() {
        let dir = temp_dir("round-trip");
        let path = dir.join(part_file_name(7, 3, 0));
        let records = sample_records();
        let meta = write_part(&path, 7, 3, 0, &records).unwrap();
        assert_eq!(meta.rows, records.len() as u64);
        let (footer, decoded) = read_part(&path).unwrap();
        assert_eq!(footer.stream, 7);
        assert_eq!(footer.day, 3);
        assert_eq!(decoded, records);

        // Flip a byte in the column region, then in the footer: the
        // checksum must catch both.
        let bytes = std::fs::read(&path).unwrap();
        for at in [MAGIC.len(), footer_start(&bytes) + 20] {
            let mut bad_bytes = bytes.clone();
            bad_bytes[at] ^= 0xff;
            let bad = dir.join("corrupt.fsp");
            std::fs::write(&bad, &bad_bytes).unwrap();
            let err = read_part(&bad).unwrap_err().to_string();
            assert!(err.contains("checksum mismatch"), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn forged_row_count_is_rejected_without_allocating() {
        let dir = temp_dir("forged-rows");
        let mut bytes = part_bytes(7, 3, 0, &sample_records());
        let rows_at = footer_start(&bytes) + 20;
        bytes[rows_at..rows_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        reseal(&mut bytes);
        let path = dir.join("forged.fsp");
        std::fs::write(&path, &bytes).unwrap();
        let err = read_part(&path).unwrap_err().to_string();
        assert!(err.contains("row count exceeds"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn old_and_foreign_magic_are_format_errors() {
        let dir = temp_dir("magic");
        let mut bytes = part_bytes(0, 0, 0, &sample_records());
        for (magic, needle) in [(b"FSPART1\0", "FSPART1"), (b"NOTAPART", "NOTAPART")] {
            bytes[..8].copy_from_slice(magic);
            let path = dir.join("old.fsp");
            std::fs::write(&path, &bytes).unwrap();
            let err = read_part(&path).unwrap_err();
            assert!(matches!(err, Error::Format { .. }), "{err:?}");
            assert!(err.to_string().contains(needle), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn codecs_chosen_by_encoded_size() {
        let mut records = sample_records();
        let (_, cols) = encode_columns(&records);
        // Few distinct sources: the dictionary pays. Near-sequential
        // source ports: delta pays.
        assert_eq!(cols[1].codec, Codec::AddrDict);
        assert_eq!(cols[3].codec, Codec::Delta);
        // Constant destination port: delta and varint tie, delta wins.
        assert_eq!(cols[4].codec, Codec::Delta);

        // All-distinct destinations and jumpy ports flip both choices.
        for (i, r) in records.iter_mut().enumerate() {
            r.key.dst = IpAddr::V6(std::net::Ipv6Addr::from(
                0x2001_0db8_u128 << 96 | (i as u128) << 40,
            ));
            r.key.sport = if i % 2 == 0 { 100 } else { 60_000 };
        }
        let (region, cols) = encode_columns(&records);
        assert_eq!(cols[2].codec, Codec::AddrPlain);
        assert_eq!(cols[3].codec, Codec::Varint);
        let footer = Footer {
            stream: 0,
            day: 0,
            seq: 0,
            rows: records.len() as u64,
            columns: cols,
        };
        assert_eq!(decode_columns(&region, &footer).unwrap(), records);
    }

    #[test]
    fn wrong_codec_for_column_is_corrupt() {
        let records = sample_records();
        let (region, mut columns) = encode_columns(&records);
        columns[6].codec = Codec::Varint;
        let footer = Footer {
            stream: 0,
            day: 0,
            seq: 0,
            rows: records.len() as u64,
            columns,
        };
        assert!(decode_columns(&region, &footer).is_err());
    }

    #[test]
    fn file_name_round_trips() {
        let name = part_file_name(12, 345, 6);
        assert_eq!(parse_part_file_name(&name), Some((12, 345, 6)));
        assert_eq!(parse_part_file_name("other.fsp"), None);
        assert_eq!(parse_part_file_name("part-s1-d2-q3.txt"), None);
    }

    #[test]
    fn empty_part_round_trips() {
        let dir = temp_dir("empty");
        let path = dir.join(part_file_name(0, 0, 0));
        write_part(&path, 0, 0, 0, &[]).unwrap();
        let (footer, decoded) = read_part(&path).unwrap();
        assert_eq!(footer.rows, 0);
        assert!(decoded.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn footer_len_matches_encoding() {
        let (_, columns) = encode_columns(&sample_records());
        let footer = Footer {
            stream: 1,
            day: 2,
            seq: 3,
            rows: 200,
            columns,
        };
        let mut out = Vec::new();
        encode_footer_into(&mut out, &footer);
        assert_eq!(out.len(), FOOTER_LEN);
    }

    #[test]
    fn writer_is_deterministic() {
        let records = sample_records();
        assert_eq!(part_bytes(1, 3, 0, &records), part_bytes(1, 3, 0, &records));
    }

    #[test]
    fn reused_writer_matches_fresh_writers() {
        let a = sample_records();
        let mut b = sample_records();
        b.reverse();
        b.truncate(77);
        let mut writer = PartWriter::new();
        for (seq, records) in [&a, &b, &Vec::new(), &a].into_iter().enumerate() {
            let seq = seq as u32;
            assert_eq!(
                writer.part_bytes(1, 3, seq, records),
                part_bytes(1, 3, seq, records)
            );
        }
    }
}
