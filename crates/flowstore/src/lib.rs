//! # flowstore — a spillable, deterministic, columnar flow store
//!
//! `CollectSink` fidelity without `CollectSink` memory: sinks write the
//! record stream into sorted immutable **day-parts** (one file per
//! `(stream, day, seq)`, one compressed column per [`flowmon::FlowRecord`]
//! field) and replay them **byte-identically** later. Million-subscriber
//! worlds spill each in-flight day-part as it completes, so peak RSS is
//! bounded by one day-part per worker instead of the whole run.
//!
//! ## Part layout
//!
//! ```text
//! file: part-s{stream:08}-d{day:08}-q{seq:04}.fsp
//!
//! +-------------+-----------------------+--------+------------+----------+------+
//! | magic (8 B) | column region         | footer | footer len | checksum | tail |
//! |  FSPART2\0  | 13 compressed columns |        |   (u32 LE) | (u64 LE) | FSP2 |
//! +-------------+-----------------------+--------+------------+----------+------+
//! ```
//!
//! The footer records the part identity `(stream, day, seq)`, the row
//! count and per-column `{codec, offset, len, raw_bytes, min, max}`. The
//! checksum covers every byte before it — columns and footer — and is
//! verified on every read. Codecs: delta-of-delta for timestamps, zigzag
//! delta or plain varint for ports, first-appearance dictionaries or
//! plain bits for addresses, run-length for enum columns, varint for
//! counters; two-codec columns keep the smaller per part (see [`part`]
//! for the full column table).
//!
//! ## Determinism contract
//!
//! * A sealed part's bytes are a **pure function** of its identity and
//!   rows — no wall clock, no ambient RNG, no hash-order iteration.
//! * [`SpillSink`] seals at day boundaries of the producer stream, so the
//!   set of parts a run writes depends only on `(sites, seed, days)`,
//!   never on the thread layout.
//! * [`PartSet::replay_into`] delivers parts in canonical
//!   `(day, stream, seq)` order — the emission order of every producer —
//!   so replay through `flowmon::CollectSink` reproduces the in-memory
//!   `Vec<FlowRecord>` exactly. [`PartSet::replay_verified`] proves it at
//!   run time: it digests the replay ([`DigestSink`]) and fails with
//!   [`Error::Diverged`] unless it matches the live stream's digest.
//! * Compacting K parts yields the same bytes as writing their
//!   concatenated rows as one part.
//!
//! ## Quick start
//!
//! ```
//! use flowmon::{CollectSink, FlowSink};
//! use flowstore::{records_digest, PartSet, SpillSink};
//!
//! let dir = std::env::temp_dir().join("flowstore-doc");
//! let mut spill = SpillSink::new(&dir, 0)?;
//! // ... feed spill through any synthesis path (it is a FlowSink) ...
//! let parts = spill.finish()?;
//!
//! let mut collect = CollectSink::new();
//! PartSet::from_metas(parts).replay_into(&mut collect)?;
//! let replayed = collect.into_records();
//! assert_eq!(records_digest(&replayed), records_digest(&[]));
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), flowstore::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod digest;
mod error;
pub mod part;
mod spill;
mod store;

pub use digest::{fnv1a64, records_digest, DigestSink};
pub use error::{Error, Result};
pub use part::{
    parse_part_file_name, part_bytes, part_file_name, read_part, write_part, Codec, ColumnMeta,
    Footer, PartMeta, PartWriter, COLUMNS, COLUMN_NAMES,
};
pub use spill::SpillSink;
pub use store::{fresh_dir, PartSet, ReplayStats};
