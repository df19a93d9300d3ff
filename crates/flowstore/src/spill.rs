//! [`SpillSink`]: a [`FlowSink`] that seals sorted immutable day-parts.
//!
//! The producer contract (records of one day arrive contiguously, days
//! ascending) means a day boundary in the stream is a seal point: the
//! buffered rows become one immutable part file and the buffer restarts.
//! Peak memory is therefore one in-flight day of one stream, regardless
//! of `--days`.
//!
//! `FlowSink::accept` cannot return errors, so the first I/O failure is
//! latched and surfaced by [`SpillSink::finish`]; subsequent records are
//! dropped (the run is already lost — determinism of the error beats
//! partial output).

use crate::error::{Error, Result};
use crate::part::{part_file_name, PartMeta, PartWriter};
use flowmon::{day_of, FlowRecord, FlowSink};
use std::path::PathBuf;

/// Spills a record stream into day-parts under a directory.
#[derive(Debug)]
pub struct SpillSink {
    dir: PathBuf,
    stream: u64,
    buf: Vec<FlowRecord>,
    cur_day: Option<u64>,
    /// Next sequence number per day — a day revisited after a seal (a
    /// producer-contract violation, but one that must not lose data) gets
    /// a fresh part file instead of overwriting the earlier one.
    next_seq: std::collections::BTreeMap<u64, u32>,
    sealed: Vec<PartMeta>,
    writer: PartWriter,
    error: Option<Error>,
}

impl SpillSink {
    /// Create a spill sink writing parts for `stream` under `dir`
    /// (created if missing).
    pub fn new(dir: impl Into<PathBuf>, stream: u64) -> Result<SpillSink> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| Error::io(&dir, e))?;
        Ok(SpillSink {
            dir,
            stream,
            buf: Vec::new(),
            cur_day: None,
            next_seq: std::collections::BTreeMap::new(),
            sealed: Vec::new(),
            writer: PartWriter::new(),
            error: None,
        })
    }

    fn seal(&mut self) {
        let Some(day) = self.cur_day else {
            return;
        };
        if self.error.is_some() {
            self.buf.clear();
            return;
        }
        let seq_slot = self.next_seq.entry(day).or_insert(0);
        let seq = *seq_slot;
        *seq_slot += 1;
        let path = self.dir.join(part_file_name(self.stream, day, seq));
        match self.writer.write(&path, self.stream, day, seq, &self.buf) {
            Ok(meta) => self.sealed.push(meta),
            Err(e) => self.error = Some(e),
        }
        self.buf.clear();
    }

    /// Seal the in-flight day (if any) and return every part written, or
    /// the first error the sink hit.
    pub fn finish(mut self) -> Result<Vec<PartMeta>> {
        self.seal();
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(std::mem::take(&mut self.sealed)),
        }
    }

    /// Parts sealed so far (excludes the in-flight buffer).
    #[must_use]
    pub fn sealed(&self) -> &[PartMeta] {
        &self.sealed
    }
}

impl FlowSink for SpillSink {
    fn accept(&mut self, record: &FlowRecord) {
        let day = day_of(record.start);
        match self.cur_day {
            Some(d) if d == day => {}
            Some(_) => {
                self.seal();
                self.cur_day = Some(day);
            }
            None => self.cur_day = Some(day),
        }
        self.buf.push(*record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PartSet;
    use flowmon::{CollectSink, FlowKey, Scope, DAY};

    fn rec(day: u64, i: u64) -> FlowRecord {
        FlowRecord {
            key: FlowKey::udp(
                "10.9.9.9".parse().unwrap(),
                (1000 + i % 100) as u16,
                "2001:db8::77".parse().unwrap(),
                53,
            ),
            start: day * DAY + i * 11,
            end: day * DAY + i * 11 + 3,
            bytes_orig: i,
            bytes_reply: 2 * i,
            packets_orig: 1,
            packets_reply: 1,
            scope: Scope::External,
        }
    }

    #[test]
    fn seals_one_part_per_day_and_replays_exactly() {
        let dir = std::env::temp_dir().join("flowstore-spill-test");
        std::fs::remove_dir_all(&dir).ok();
        let mut records = Vec::new();
        for day in 0..3u64 {
            for i in 0..50 {
                records.push(rec(day, i));
            }
        }
        let mut sink = SpillSink::new(&dir, 0).unwrap();
        sink.accept_batch(&records);
        let parts = sink.finish().unwrap();
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|p| p.rows == 50));

        let mut collect = CollectSink::new();
        PartSet::from_metas(parts)
            .replay_into(&mut collect)
            .unwrap();
        assert_eq!(collect.into_records(), records);
        std::fs::remove_dir_all(&dir).ok();
    }
}
