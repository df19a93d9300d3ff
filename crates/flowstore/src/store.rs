//! [`PartSet`]: an ordered collection of sealed parts, with merged replay
//! and compaction.
//!
//! Replay order is canonical — `(day, stream, seq)` — which matches the
//! day-major emission order of every producer in the workspace: the
//! single-stream residence/long-tail synthesizers (one stream, days
//! ascending) and the sharded subscriber synthesizer (for each day, shards
//! ascending). Replaying a `PartSet` through `flowmon::CollectSink`
//! therefore reproduces the original in-memory `Vec<FlowRecord>` exactly;
//! the tier-1 tests assert this by digest.

use crate::digest::DigestSink;
use crate::error::{Error, Result};
use crate::part::{parse_part_file_name, read_part, write_part, PartMeta};
use flowmon::{FlowRecord, FlowSink};
use std::path::Path;

/// Remove `dir` with everything in it, if present, and create it empty —
/// the start of every spill run, so no earlier run's parts are replayed.
pub fn fresh_dir(dir: impl AsRef<Path>) -> Result<()> {
    let dir = dir.as_ref();
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| Error::io(dir, e))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| Error::io(dir, e))
}

/// Summary of a completed replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayStats {
    /// Parts read.
    pub parts: u64,
    /// Rows delivered.
    pub rows: u64,
}

/// An ordered set of sealed parts.
#[derive(Debug, Clone, Default)]
pub struct PartSet {
    parts: Vec<PartMeta>,
}

impl PartSet {
    /// Scan `dir` for part files (`part-s*-d*-q*.fsp`), ordering them
    /// canonically. Foreign files are ignored; identity comes from the
    /// file name and is re-verified against the footer on read.
    pub fn open(dir: impl AsRef<Path>) -> Result<PartSet> {
        let dir = dir.as_ref();
        let entries = std::fs::read_dir(dir).map_err(|e| Error::io(dir, e))?;
        let mut parts = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| Error::io(dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else {
                continue;
            };
            let Some((stream, day, seq)) = parse_part_file_name(name) else {
                continue;
            };
            parts.push(PartMeta {
                path: entry.path(),
                stream,
                day,
                seq,
                // Rows/bytes are summary fields; filled from the footer
                // lazily on read. Zero until then.
                rows: 0,
                stored_bytes: 0,
                raw_bytes: 0,
            });
        }
        Ok(PartSet::from_metas(parts))
    }

    /// Build a set from known metas (e.g. the return of
    /// [`crate::SpillSink::finish`]), sorting canonically.
    #[must_use]
    pub fn from_metas(mut parts: Vec<PartMeta>) -> PartSet {
        parts.sort_by_key(PartMeta::canonical_key);
        PartSet { parts }
    }

    /// The parts, in canonical `(day, stream, seq)` order.
    #[must_use]
    pub fn parts(&self) -> &[PartMeta] {
        &self.parts
    }

    /// Number of parts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True when the set holds no parts.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Replay every part, in canonical order, into `sink`. Each part is
    /// checksum-verified on read and delivered as one `accept_batch` call
    /// (batch boundaries are part boundaries). Peak memory is one decoded
    /// part.
    pub fn replay_into<S: FlowSink>(&self, sink: &mut S) -> Result<ReplayStats> {
        let mut stats = ReplayStats { parts: 0, rows: 0 };
        for meta in &self.parts {
            let (footer, records) = read_part(&meta.path)?;
            if (footer.stream, footer.day, footer.seq) != (meta.stream, meta.day, meta.seq) {
                return Err(Error::corrupt(format!(
                    "part identity mismatch: file {} says (s{}, d{}, q{})",
                    meta.path.display(),
                    footer.stream,
                    footer.day,
                    footer.seq
                )));
            }
            sink.accept_batch(&records);
            stats.parts += 1;
            stats.rows += footer.rows;
        }
        obs::counter_add("flowstore.replay.parts", stats.parts);
        obs::counter_add("flowstore.replay.rows", stats.rows);
        Ok(stats)
    }

    /// [`PartSet::replay_into`] `sink`, digesting the replay on the side,
    /// and fail with [`Error::Diverged`] unless it reproduces the stream
    /// `live` digested — the runtime proof that the parts are the stream.
    pub fn replay_verified<S: FlowSink>(
        &self,
        live: &DigestSink,
        sink: &mut S,
    ) -> Result<ReplayStats> {
        let mut replayed = DigestSink::new();
        let stats = self.replay_into(&mut (sink, &mut replayed))?;
        if (replayed.digest(), replayed.count()) != (live.digest(), live.count()) {
            return Err(Error::Diverged {
                live: live.digest(),
                live_rows: live.count(),
                replayed: replayed.digest(),
                replayed_rows: replayed.count(),
            });
        }
        Ok(stats)
    }

    /// Compact every part in the set into one part at `path`, preserving
    /// canonical row order. The compacted part is byte-identical to a part
    /// written directly from the concatenated rows (the proptests assert
    /// this), so compaction never perturbs replay. Returns the new meta;
    /// the input parts are left in place for the caller to retire.
    pub fn compact(
        &self,
        path: impl AsRef<Path>,
        stream: u64,
        day: u64,
        seq: u32,
    ) -> Result<PartMeta> {
        let mut rows: Vec<FlowRecord> = Vec::new();
        for meta in &self.parts {
            let (_, records) = read_part(&meta.path)?;
            rows.extend_from_slice(&records);
        }
        write_part(path, stream, day, seq, &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::part::part_file_name;
    use flowmon::{CollectSink, FlowKey, Scope, DAY};

    fn rec(day: u64, stream: u64, i: u64) -> FlowRecord {
        FlowRecord {
            key: FlowKey::tcp(
                std::net::IpAddr::V4(std::net::Ipv4Addr::from(
                    0x0a00_0000 + (stream as u32) * 256 + i as u32,
                )),
                40_000,
                "198.51.100.1".parse().unwrap(),
                443,
            ),
            start: day * DAY + stream * 100 + i,
            end: day * DAY + stream * 100 + i + 1,
            bytes_orig: i,
            bytes_reply: i,
            packets_orig: 1,
            packets_reply: 1,
            scope: Scope::External,
        }
    }

    #[test]
    fn open_orders_canonically_and_replays() {
        let dir = std::env::temp_dir().join("flowstore-store-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        // Write parts out of order: (day 1, stream 0), (day 0, stream 1),
        // (day 0, stream 0). Canonical replay is day-major.
        let mut expect = Vec::new();
        for (day, stream) in [(0u64, 0u64), (0, 1), (1, 0)] {
            let rows: Vec<_> = (0..10).map(|i| rec(day, stream, i)).collect();
            expect.extend_from_slice(&rows);
            write_part(
                dir.join(part_file_name(stream, day, 0)),
                stream,
                day,
                0,
                &rows,
            )
            .unwrap();
        }
        std::fs::write(dir.join("notes.txt"), b"ignored").unwrap();

        let set = PartSet::open(&dir).unwrap();
        assert_eq!(set.len(), 3);
        let mut collect = CollectSink::new();
        let stats = set.replay_into(&mut collect).unwrap();
        assert_eq!(stats.rows, 30);
        assert_eq!(collect.into_records(), expect);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_verified_accepts_the_stream_and_rejects_another() {
        let dir = std::env::temp_dir().join("flowstore-verified-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let rows: Vec<_> = (0..20).map(|i| rec(0, 0, i)).collect();
        let meta = write_part(dir.join(part_file_name(0, 0, 0)), 0, 0, 0, &rows).unwrap();
        let set = PartSet::from_metas(vec![meta]);

        let mut live = DigestSink::new();
        live.accept_batch(&rows);
        let mut collect = CollectSink::new();
        let stats = set.replay_verified(&live, &mut collect).unwrap();
        assert_eq!(stats.rows, 20);
        assert_eq!(collect.into_records(), rows);

        let mut other = DigestSink::new();
        other.accept_batch(&rows[1..]);
        let err = set.replay_verified(&other, &mut CollectSink::new());
        assert!(matches!(
            err,
            Err(Error::Diverged {
                live_rows: 19,
                replayed_rows: 20,
                ..
            })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_equals_direct_write() {
        let dir = std::env::temp_dir().join("flowstore-compact-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        let mut all = Vec::new();
        let mut metas = Vec::new();
        for seq in 0..4u32 {
            let rows: Vec<_> = (0..25)
                .map(|i| rec(2, 5, u64::from(seq) * 100 + i))
                .collect();
            all.extend_from_slice(&rows);
            metas.push(write_part(dir.join(part_file_name(5, 2, seq)), 5, 2, seq, &rows).unwrap());
        }
        let set = PartSet::from_metas(metas);
        let compacted = set.compact(dir.join("compacted.fsp"), 5, 2, 0).unwrap();
        assert_eq!(compacted.rows, 100);

        let direct = dir.join("direct.fsp");
        write_part(&direct, 5, 2, 0, &all).unwrap();
        assert_eq!(
            std::fs::read(&compacted.path).unwrap(),
            std::fs::read(&direct).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
