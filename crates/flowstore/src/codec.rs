//! Per-column lightweight compression codecs.
//!
//! Each codec is a streaming pair: an encoder that appends one value at a
//! time to a column buffer, and a cursor that reads one value at a time
//! back. The part writer drives one encoder per column in a single pass
//! over the records, and the part reader drives one cursor per column to
//! rebuild each record directly, so neither side materializes per-column
//! value vectors. The slice functions (`encode_*` / `decode_*`) wrap the
//! same encoders and cursors.
//!
//! `decode(encode(xs), xs.len()) == xs` for **all** inputs (wrapping
//! arithmetic makes the delta families lossless over the full `u64`
//! range). Encoders never consult ambient state, so a part's bytes are a
//! function of its rows alone — the foundation of the byte-identical
//! replay contract.
//!
//! Codecs:
//! - [`encode_varint`] — plain LEB128, for byte/packet counters.
//! - [`encode_delta`] — zigzag delta-of-previous, for sorted-ish ports.
//! - [`encode_delta2`] — delta-of-delta, for near-monotone timestamps.
//! - [`encode_rle`] — run-length `(len, value)` pairs, for enum columns.
//! - [`encode_dict`] — first-appearance-order dictionary over `u128`
//!   values with a varint code stream, for address columns.

use crate::error::{Error, Result};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Append a LEB128 unsigned varint.
#[inline]
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read a LEB128 unsigned varint, advancing `pos`.
#[inline]
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    // Fast path: most column values fit one byte.
    if let Some(&b) = buf.get(*pos) {
        if b < 0x80 {
            *pos += 1;
            return Ok(u64::from(b));
        }
    }
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&b) = buf.get(*pos) else {
            return Err(Error::corrupt("varint truncated"));
        };
        *pos += 1;
        if shift >= 64 {
            return Err(Error::corrupt("varint overlong"));
        }
        v |= u64::from(b & 0x7f)
            .checked_shl(shift)
            .ok_or_else(|| Error::corrupt("varint overflow"))?;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zigzag-map a signed delta onto an unsigned varint-friendly value.
#[must_use]
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[must_use]
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a `u128` as two varints (low 64 bits then high 64 bits).
pub fn put_u128(out: &mut Vec<u8>, v: u128) {
    put_uvarint(out, v as u64);
    put_uvarint(out, (v >> 64) as u64);
}

/// Read a `u128` written by [`put_u128`].
pub fn get_u128(buf: &[u8], pos: &mut usize) -> Result<u128> {
    let lo = get_uvarint(buf, pos)?;
    let hi = get_uvarint(buf, pos)?;
    Ok(u128::from(lo) | (u128::from(hi) << 64))
}

/// Byte length of `v` as a LEB128 varint.
#[must_use]
fn uvarint_len(v: u64) -> usize {
    (70 - (v | 1).leading_zeros() as usize) / 7
}

/// Zigzag delta encoder: the first value raw, then zigzag of the wrapping
/// difference from the previous value.
///
/// Wrapping subtraction keeps the codec lossless for arbitrary `u64`s —
/// the difference is reinterpreted as `i64`, which is a bijection.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaEncoder {
    prev: Option<u64>,
}

impl DeltaEncoder {
    /// Append `v` to `out`.
    #[inline]
    pub(crate) fn push(&mut self, out: &mut Vec<u8>, v: u64) {
        match self.prev {
            None => put_uvarint(out, v),
            Some(prev) => put_uvarint(out, zigzag(v.wrapping_sub(prev) as i64)),
        }
        self.prev = Some(v);
    }
}

/// Delta-of-delta encoder for near-monotone timestamps: the first value
/// raw, the second as a zigzag delta, then zigzag of the change in delta.
#[derive(Debug, Clone, Default)]
pub(crate) struct Delta2Encoder {
    seen: u8,
    prev: u64,
    prev_delta: i64,
}

impl Delta2Encoder {
    /// Append `v` to `out`.
    #[inline]
    pub(crate) fn push(&mut self, out: &mut Vec<u8>, v: u64) {
        let delta = v.wrapping_sub(self.prev) as i64;
        match self.seen {
            0 => put_uvarint(out, v),
            1 => put_uvarint(out, zigzag(delta)),
            _ => put_uvarint(out, zigzag(delta.wrapping_sub(self.prev_delta))),
        }
        self.seen = self.seen.saturating_add(1);
        self.prev = v;
        self.prev_delta = delta;
    }
}

/// Run-length encoder: `(run_length, value)` varint pairs. A run is
/// written when it ends, so call [`RleEncoder::finish`] after the last
/// value.
#[derive(Debug, Clone, Default)]
pub(crate) struct RleEncoder {
    value: u64,
    len: u64,
}

impl RleEncoder {
    /// Append `v` to the current run, or flush the run to `out` and start
    /// a new one.
    #[inline]
    pub(crate) fn push(&mut self, out: &mut Vec<u8>, v: u64) {
        if self.len > 0 && v == self.value {
            self.len += 1;
        } else {
            self.finish(out);
            self.value = v;
            self.len = 1;
        }
    }

    /// Flush the pending run, if any.
    pub(crate) fn finish(&mut self, out: &mut Vec<u8>) {
        if self.len > 0 {
            put_uvarint(out, self.len);
            put_uvarint(out, self.value);
            self.len = 0;
        }
    }
}

/// Fixed, seedless hasher for the dictionary's lookup table: a folded
/// 64×64→128 multiply of the two halves of the key, cheaper than the
/// default SipHash on address keys. The table is only ever probed, never
/// iterated, so its order cannot reach the output; keys crafted to
/// collide could slow an encode but not change its bytes.
#[derive(Debug, Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        let a = (v as u64) ^ 0x243f_6a88_85a3_08d3;
        let b = ((v >> 64) as u64) ^ 0x1319_8a2e_0370_7344;
        let m = u128::from(a).wrapping_mul(u128::from(b));
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// First-appearance dictionary encoder over `u128` values. The encoded
/// column is the entry count, each entry via [`put_u128`] in order of
/// first appearance, then one varint code per row. First-appearance order
/// makes the encoding a pure function of the value sequence.
#[derive(Debug, Default)]
pub(crate) struct DictEncoder {
    codes: HashMap<u128, u64, BuildHasherDefault<AddrHasher>>,
    entries: Vec<u8>,
    stream: Vec<u8>,
}

impl DictEncoder {
    /// Append one row.
    #[inline]
    pub(crate) fn push(&mut self, v: u128) {
        let next = self.codes.len() as u64;
        let entries = &mut self.entries;
        let code = *self.codes.entry(v).or_insert_with(|| {
            put_u128(entries, v);
            next
        });
        put_uvarint(&mut self.stream, code);
    }

    /// Forget every row, keeping the allocations for the next column.
    pub(crate) fn clear(&mut self) {
        self.codes.clear();
        self.entries.clear();
        self.stream.clear();
    }

    /// Exact byte length [`DictEncoder::finish`] will append.
    #[must_use]
    pub(crate) fn encoded_len(&self) -> usize {
        uvarint_len(self.codes.len() as u64) + self.entries.len() + self.stream.len()
    }

    /// Append the encoded column to `out`.
    pub(crate) fn finish(&self, out: &mut Vec<u8>) {
        put_uvarint(out, self.codes.len() as u64);
        out.extend_from_slice(&self.entries);
        out.extend_from_slice(&self.stream);
    }
}

/// Reads a plain varint stream one value at a time.
#[derive(Debug, Clone)]
pub(crate) struct VarintCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> VarintCursor<'a> {
    /// A cursor at the start of `buf`.
    #[must_use]
    pub(crate) fn new(buf: &'a [u8]) -> VarintCursor<'a> {
        VarintCursor { buf, pos: 0 }
    }

    /// The next value.
    #[inline]
    pub(crate) fn next_value(&mut self) -> Result<u64> {
        get_uvarint(self.buf, &mut self.pos)
    }

    /// Error unless every byte was consumed.
    pub(crate) fn finish(&self) -> Result<()> {
        expect_consumed(self.buf, self.pos)
    }
}

/// Reads a [`DeltaEncoder`] stream.
#[derive(Debug, Clone)]
pub(crate) struct DeltaCursor<'a> {
    varints: VarintCursor<'a>,
    prev: Option<u64>,
}

impl<'a> DeltaCursor<'a> {
    /// A cursor at the start of `buf`.
    #[must_use]
    pub(crate) fn new(buf: &'a [u8]) -> DeltaCursor<'a> {
        DeltaCursor {
            varints: VarintCursor::new(buf),
            prev: None,
        }
    }

    /// The next value.
    #[inline]
    pub(crate) fn next_value(&mut self) -> Result<u64> {
        let raw = self.varints.next_value()?;
        let v = match self.prev {
            None => raw,
            Some(prev) => prev.wrapping_add(unzigzag(raw) as u64),
        };
        self.prev = Some(v);
        Ok(v)
    }

    /// Error unless every byte was consumed.
    pub(crate) fn finish(&self) -> Result<()> {
        self.varints.finish()
    }
}

/// Reads a [`Delta2Encoder`] stream.
#[derive(Debug, Clone)]
pub(crate) struct Delta2Cursor<'a> {
    varints: VarintCursor<'a>,
    seen: u8,
    prev: u64,
    prev_delta: i64,
}

impl<'a> Delta2Cursor<'a> {
    /// A cursor at the start of `buf`.
    #[must_use]
    pub(crate) fn new(buf: &'a [u8]) -> Delta2Cursor<'a> {
        Delta2Cursor {
            varints: VarintCursor::new(buf),
            seen: 0,
            prev: 0,
            prev_delta: 0,
        }
    }

    /// The next value.
    #[inline]
    pub(crate) fn next_value(&mut self) -> Result<u64> {
        let raw = self.varints.next_value()?;
        let delta = match self.seen {
            0 => raw as i64,
            1 => unzigzag(raw),
            _ => self.prev_delta.wrapping_add(unzigzag(raw)),
        };
        let v = if self.seen == 0 {
            raw
        } else {
            self.prev.wrapping_add(delta as u64)
        };
        self.seen = self.seen.saturating_add(1);
        self.prev = v;
        self.prev_delta = delta;
        Ok(v)
    }

    /// Error unless every byte was consumed.
    pub(crate) fn finish(&self) -> Result<()> {
        self.varints.finish()
    }
}

/// Reads an [`RleEncoder`] stream.
#[derive(Debug, Clone)]
pub(crate) struct RleCursor<'a> {
    varints: VarintCursor<'a>,
    left: u64,
    value: u64,
}

impl<'a> RleCursor<'a> {
    /// A cursor at the start of `buf`.
    #[must_use]
    pub(crate) fn new(buf: &'a [u8]) -> RleCursor<'a> {
        RleCursor {
            varints: VarintCursor::new(buf),
            left: 0,
            value: 0,
        }
    }

    /// The next value.
    #[inline]
    pub(crate) fn next_value(&mut self) -> Result<u64> {
        if self.left == 0 {
            self.left = self.varints.next_value()?;
            self.value = self.varints.next_value()?;
            if self.left == 0 {
                return Err(Error::corrupt("empty rle run"));
            }
        }
        self.left -= 1;
        Ok(self.value)
    }

    /// Error unless every byte was consumed and the last run is used up.
    pub(crate) fn finish(&self) -> Result<()> {
        if self.left != 0 {
            return Err(Error::corrupt("rle run exceeds row count"));
        }
        self.varints.finish()
    }
}

/// Reads a [`DictEncoder`] stream.
#[derive(Debug, Clone)]
pub(crate) struct DictCursor<'a> {
    dict: Vec<u128>,
    codes: VarintCursor<'a>,
}

impl<'a> DictCursor<'a> {
    /// Parse the dictionary of a `rows`-row column. The dictionary is
    /// allocated for at most `rows` entries, and each entry takes at
    /// least two bytes, so a corrupt count cannot force a large
    /// allocation.
    pub(crate) fn new(buf: &'a [u8], rows: usize) -> Result<DictCursor<'a>> {
        let mut pos = 0usize;
        let dict_len = get_uvarint(buf, &mut pos)?;
        if rows == 0 && dict_len != 0 {
            return Err(Error::corrupt("dictionary for empty column"));
        }
        let cap = usize::try_from(dict_len)
            .unwrap_or(usize::MAX)
            .min(rows)
            .min(buf.len() / 2);
        let mut dict = Vec::with_capacity(cap);
        for _ in 0..dict_len {
            dict.push(get_u128(buf, &mut pos)?);
        }
        Ok(DictCursor {
            dict,
            codes: VarintCursor {
                buf: &buf[pos..],
                pos: 0,
            },
        })
    }

    /// The next value.
    #[inline]
    pub(crate) fn next_value(&mut self) -> Result<u128> {
        let code = self.codes.next_value()?;
        usize::try_from(code)
            .ok()
            .and_then(|c| self.dict.get(c))
            .copied()
            .ok_or_else(|| Error::corrupt("dictionary code out of range"))
    }

    /// Error unless every byte was consumed.
    pub(crate) fn finish(&self) -> Result<()> {
        self.codes.finish()
    }
}

/// Drain `rows` values from a cursor into a vector, sized by what the
/// buffer can actually hold rather than by the (untrusted) row count.
fn collect<T>(rows: usize, buf_len: usize, mut next: impl FnMut() -> Result<T>) -> Result<Vec<T>> {
    let mut out = Vec::with_capacity(rows.min(buf_len));
    for _ in 0..rows {
        out.push(next()?);
    }
    Ok(out)
}

/// Plain varint stream: one LEB128 value per row.
#[must_use]
pub fn encode_varint(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len());
    for &v in values {
        put_uvarint(&mut out, v);
    }
    out
}

/// Decode [`encode_varint`].
pub fn decode_varint(buf: &[u8], rows: usize) -> Result<Vec<u64>> {
    let mut c = VarintCursor::new(buf);
    let out = collect(rows, buf.len(), || c.next_value())?;
    c.finish()?;
    Ok(out)
}

/// Delta stream: the first value raw, then zigzag of the wrapping
/// difference from the previous value.
#[must_use]
pub fn encode_delta(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len());
    let mut enc = DeltaEncoder::default();
    for &v in values {
        enc.push(&mut out, v);
    }
    out
}

/// Decode [`encode_delta`].
pub fn decode_delta(buf: &[u8], rows: usize) -> Result<Vec<u64>> {
    let mut c = DeltaCursor::new(buf);
    let out = collect(rows, buf.len(), || c.next_value())?;
    c.finish()?;
    Ok(out)
}

/// Delta-of-delta stream: the first value raw, the second as a zigzag
/// delta, then zigzag of the change in delta.
#[must_use]
pub fn encode_delta2(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len());
    let mut enc = Delta2Encoder::default();
    for &v in values {
        enc.push(&mut out, v);
    }
    out
}

/// Decode [`encode_delta2`].
pub fn decode_delta2(buf: &[u8], rows: usize) -> Result<Vec<u64>> {
    let mut c = Delta2Cursor::new(buf);
    let out = collect(rows, buf.len(), || c.next_value())?;
    c.finish()?;
    Ok(out)
}

/// Run-length stream: `(run_length, value)` varint pairs.
#[must_use]
pub fn encode_rle(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut enc = RleEncoder::default();
    for &v in values {
        enc.push(&mut out, v);
    }
    enc.finish(&mut out);
    out
}

/// Decode [`encode_rle`].
pub fn decode_rle(buf: &[u8], rows: usize) -> Result<Vec<u64>> {
    let mut c = RleCursor::new(buf);
    // Runs compress, so the buffer length does not bound the row count.
    let out = collect(rows, rows.min(1 << 16), || c.next_value())?;
    c.finish()?;
    Ok(out)
}

/// Dictionary stream over `u128` values: the entry count, each entry via
/// [`put_u128`] in order of first appearance, then one varint code per
/// row.
#[must_use]
pub fn encode_dict(values: &[u128]) -> Vec<u8> {
    let mut enc = DictEncoder::default();
    for &v in values {
        enc.push(v);
    }
    let mut out = Vec::with_capacity(enc.encoded_len());
    enc.finish(&mut out);
    out
}

/// Decode [`encode_dict`].
pub fn decode_dict(buf: &[u8], rows: usize) -> Result<Vec<u128>> {
    let mut c = DictCursor::new(buf, rows)?;
    let out = collect(rows, buf.len(), || c.next_value())?;
    c.finish()?;
    Ok(out)
}

fn expect_consumed(buf: &[u8], pos: usize) -> Result<()> {
    if pos == buf.len() {
        Ok(())
    } else {
        Err(Error::corrupt("trailing bytes after column"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_extremes() {
        let xs = vec![0, 1, 127, 128, u64::MAX, u64::MAX - 1, 1 << 63];
        let enc = encode_varint(&xs);
        assert_eq!(decode_varint(&enc, xs.len()).ok(), Some(xs));
    }

    #[test]
    fn varint_round_trips_every_width() {
        let mut widths = vec![0u64];
        for k in 1..=9 {
            widths.push((1u64 << (7 * k)) - 1);
            widths.push(1u64 << (7 * k));
        }
        widths.push(u64::MAX);
        for v in widths {
            // At the buffer's end and followed by more bytes.
            for pad in [0usize, 9] {
                let mut buf = encode_varint(&[v]);
                let len = buf.len();
                buf.resize(len + pad, 0);
                let mut pos = 0;
                assert_eq!(
                    get_uvarint(&buf, &mut pos).ok(),
                    Some(v),
                    "{v:#x} pad {pad}"
                );
                assert_eq!(pos, len, "{v:#x} pad {pad}");
            }
        }
    }

    #[test]
    fn varint_len_matches_encoding() {
        for v in [0, 1, 127, 128, 16_383, 16_384, u64::MAX >> 1, u64::MAX] {
            assert_eq!(uvarint_len(v), encode_varint(&[v]).len(), "{v}");
        }
    }

    #[test]
    fn delta_round_trips_wrapping() {
        let xs = vec![u64::MAX, 0, 5, 3, u64::MAX, u64::MAX / 2];
        let enc = encode_delta(&xs);
        assert_eq!(decode_delta(&enc, xs.len()).ok(), Some(xs));
    }

    #[test]
    fn delta2_round_trips_wrapping() {
        let xs = vec![10, 20, 30, 25, u64::MAX, 0, 0, 7];
        let enc = encode_delta2(&xs);
        assert_eq!(decode_delta2(&enc, xs.len()).ok(), Some(xs));
    }

    #[test]
    fn rle_round_trips_and_compresses_runs() {
        let xs = vec![4u64; 1000];
        let enc = encode_rle(&xs);
        assert!(enc.len() < 8);
        assert_eq!(decode_rle(&enc, xs.len()).ok(), Some(xs));
    }

    #[test]
    fn dict_round_trips_first_appearance_order() {
        let xs = vec![9u128, 7, 9, u128::MAX, 7, 0];
        let enc = encode_dict(&xs);
        assert_eq!(decode_dict(&enc, xs.len()).ok(), Some(xs));
        // Entries in first-appearance order: 9, 7, MAX, 0; codes 0 1 0 2 1 3.
        assert_eq!(enc[0], 4);
        assert_eq!(&enc[enc.len() - 6..], &[0, 1, 0, 2, 1, 3]);
    }

    #[test]
    fn empty_columns_round_trip() {
        assert_eq!(decode_varint(&encode_varint(&[]), 0).ok(), Some(vec![]));
        assert_eq!(decode_delta(&encode_delta(&[]), 0).ok(), Some(vec![]));
        assert_eq!(decode_delta2(&encode_delta2(&[]), 0).ok(), Some(vec![]));
        assert_eq!(decode_rle(&encode_rle(&[]), 0).ok(), Some(vec![]));
        assert_eq!(decode_dict(&encode_dict(&[]), 0).ok(), Some(vec![]));
    }

    #[test]
    fn corrupt_inputs_error_not_panic() {
        assert!(decode_varint(&[0x80], 1).is_err());
        assert!(decode_rle(&[2, 1, 9, 9], 1).is_err());
        assert!(decode_rle(&[0, 1], 1).is_err());
        assert!(decode_dict(&encode_varint(&[1]), 1).is_err());
        // A huge dictionary count or row count must not allocate up front.
        assert!(decode_dict(&encode_varint(&[u64::MAX]), 1 << 40).is_err());
    }
}
