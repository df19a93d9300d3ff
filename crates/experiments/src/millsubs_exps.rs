//! `million-subs`: the adoption-tier table over a million-subscriber
//! population — the paper's per-subscriber adoption view (§5) pushed to
//! provider scale without provider-scale memory.
//!
//! The producer is [`trafficgen::subs`]: the lazy subscriber model walks
//! in `(day, shard)` tasks, each a pure function of `(seed, day, shard)`,
//! fanned out over the work-stealing pool. The spill path writes each
//! task's records as one sealed [`flowstore`] day-part and replays the
//! part set in canonical order — so peak RSS is bounded by one in-flight
//! day-part per worker, not the run length, and the replay digest must
//! equal the live stream's digest byte for byte. The report is identical
//! with and without `--spill` — the registry tests assert it.

use crate::report::Report;
use crate::session::Session;
use flowmon::sink::FlowSink;
use flowmon::FlowRecord;
use ipv6view_core::report::TextTable;
use obs::par::fan_out_ordered;
use serde::Serialize;
use std::path::PathBuf;
use trafficgen::{
    shard_day_records, shard_tasks, subscriber_of_src, synthesize_subscribers_into,
    SubscriberTrafficConfig,
};
use worldgen::{World, WorldConfig};

/// Inputs of one `million-subs` run (all deterministic knobs explicit so
/// tests can shrink them).
#[derive(Debug, Clone)]
pub struct MillionSubsParams {
    /// World seed (the subscriber population and tail derive from it).
    pub seed: u64,
    /// Subscriber population size.
    pub subscribers: usize,
    /// Days of synthesized traffic. Peak memory is independent of this.
    pub days: u32,
    /// Worker threads over the `(day, shard)` task list (output-invariant).
    pub threads: usize,
    /// When set, stream through sealed columnar day-parts under
    /// `<dir>/million-subs` instead of memory (digest-verified replay).
    pub spill: Option<PathBuf>,
}

/// One adoption tier of the subscriber population.
#[derive(Debug, Clone, Serialize)]
pub struct TierRow {
    /// Tier label (`inactive`, `v4-only`, `(0, 0.2)`, …).
    pub tier: String,
    /// Subscribers in the tier.
    pub subscribers: u64,
    /// Share of the population.
    pub share: f64,
}

/// The exportable dataset: run parameters, stream fingerprint and the
/// adoption-tier table.
#[derive(Debug, Clone, Serialize)]
pub struct MillionSubsReport {
    /// Population size.
    pub subscribers: usize,
    /// Days synthesized.
    pub days: u32,
    /// Flow records streamed.
    pub flows: u64,
    /// FNV-1a digest of the emitted stream (spill replays must match it).
    pub stream_digest: String,
    /// Adoption tiers over the whole population.
    pub tiers: Vec<TierRow>,
    /// IPv6 share of all subscriber bytes.
    pub v6_byte_share: f64,
}

/// Per-subscriber `[total bytes, v6 bytes]` totals — the only per-stream
/// state of the run, O(subscribers) and independent of `days`.
struct SubscriberAgg {
    totals: Vec<[u64; 2]>,
    flows: u64,
}

impl SubscriberAgg {
    fn new(subscribers: usize) -> SubscriberAgg {
        SubscriberAgg {
            totals: vec![[0, 0]; subscribers],
            flows: 0,
        }
    }
}

impl FlowSink for SubscriberAgg {
    fn accept(&mut self, record: &FlowRecord) {
        self.flows += 1;
        if let Some(i) = subscriber_of_src(record.key.src) {
            if let Some(t) = self.totals.get_mut(i) {
                let bytes = record.total_bytes();
                t[0] += bytes;
                if record.key.src.is_ipv6() {
                    t[1] += bytes;
                }
            }
        }
    }
}

/// Bucket the per-subscriber totals into the paper's adoption tiers.
fn tier_rows(totals: &[[u64; 2]]) -> Vec<TierRow> {
    let mut counts = [0u64; 6];
    for t in totals {
        let idx = if t[0] == 0 {
            0 // inactive
        } else if t[1] == 0 {
            1 // v4-only
        } else if t[1] == t[0] {
            5 // v6-only
        } else {
            let f = t[1] as f64 / t[0] as f64;
            if f < 0.2 {
                2
            } else if f < 0.8 {
                3
            } else {
                4
            }
        };
        counts[idx] += 1;
    }
    let labels = [
        "inactive",
        "v4-only",
        "(0, 0.2)",
        "[0.2, 0.8)",
        "[0.8, 1)",
        "v6-only",
    ];
    let total = totals.len().max(1) as f64;
    labels
        .iter()
        .zip(counts)
        .map(|(label, n)| TierRow {
            tier: label.to_string(),
            subscribers: n,
            share: n as f64 / total,
        })
        .collect()
}

/// Run the subscriber pipeline — in memory, or spilled through sealed
/// day-parts when `params.spill` is set — and build the report.
pub fn million_subs_report(params: &MillionSubsParams) -> MillionSubsReport {
    let world = World::generate(
        &WorldConfig {
            seed: params.seed,
            num_sites: 200,
            ..WorldConfig::small()
        }
        .with_long_tail((params.subscribers / 100).clamp(1_000, 10_000))
        .with_subscribers(params.subscribers),
    );
    let cfg = SubscriberTrafficConfig {
        seed: params.seed ^ 0x6d69_6c73_7562, // "milsub"
        num_days: params.days,
        threads: params.threads.max(1),
        ..SubscriberTrafficConfig::default()
    };
    let mut agg = SubscriberAgg::new(params.subscribers);
    let digest = match &params.spill {
        None => {
            let mut digest = flowstore::DigestSink::new();
            synthesize_subscribers_into(&world, &cfg, &mut (&mut agg, &mut digest));
            digest
        }
        Some(spill) => spill_run(&world, &cfg, &mut agg, &spill.join("million-subs")),
    };
    let v6_byte_share = {
        let (total, v6) = agg
            .totals
            .iter()
            .fold((0u64, 0u64), |(t, v), x| (t + x[0], v + x[1]));
        v6 as f64 / total.max(1) as f64
    };
    MillionSubsReport {
        subscribers: params.subscribers,
        days: params.days,
        flows: agg.flows,
        stream_digest: format!("{:#018x}", digest.digest()),
        tiers: tier_rows(&agg.totals),
        v6_byte_share,
    }
}

/// The spill path: every `(day, shard)` task becomes one sealed day-part,
/// written in canonical order as workers finish; the aggregator is fed by
/// the **replay**, and the replay digest must match the live stream's.
/// Peak RSS is one in-flight day-part per worker.
fn spill_run(
    world: &World,
    cfg: &SubscriberTrafficConfig,
    agg: &mut SubscriberAgg,
    dir: &std::path::Path,
) -> flowstore::DigestSink {
    if let Err(e) = flowstore::fresh_dir(dir) {
        panic!("clearing spill dir: {e}");
    }
    let tasks = shard_tasks(world, cfg);
    let mut live = flowstore::DigestSink::new();
    let mut writer = flowstore::PartWriter::new();
    let mut metas = Vec::with_capacity(tasks.len());
    // Same ordered fan-out as the in-memory path: at most 2 × threads tasks
    // in flight, flushed (digested + written) in canonical day-major order.
    fan_out_ordered(
        tasks,
        cfg.threads,
        |_, (day, shard)| (day, shard, shard_day_records(world, cfg, day, shard)),
        |_, (day, shard, records)| {
            live.accept_batch(&records);
            let path = dir.join(flowstore::part_file_name(shard as u64, day as u64, 0));
            match writer.write(&path, shard as u64, day as u64, 0, &records) {
                Ok(meta) => metas.push(meta),
                Err(e) => panic!("writing part {}: {e}", path.display()),
            }
        },
    );
    obs::info!(
        "[repro] million-subs spilled {} parts to {}",
        metas.len(),
        dir.display()
    );
    // Replay feeds the aggregator: the report is a function of the parts
    // on disk, and the digests prove the parts are the stream.
    let stats = match flowstore::PartSet::from_metas(metas).replay_verified(&live, agg) {
        Ok(s) => s,
        Err(e) => panic!("replaying spilled parts: {e}"),
    };
    obs::debug!(
        "[repro] million-subs spill verified: {} parts, {} rows, digest {:#018x}",
        stats.parts,
        stats.rows,
        live.digest(),
    );
    live
}

/// Serialize a report as the exportable dataset (stable field order; same
/// seed ⇒ byte-identical output at any thread count, spilled or not).
pub fn million_subs_json(report: &MillionSubsReport) -> String {
    match serde_json::to_string_pretty(report) {
        Ok(s) => s,
        Err(e) => panic!("serializing million-subs report: {e}"),
    }
}

/// Build the `million-subs` scenario report from explicit params.
fn million_subs_report_for(params: &MillionSubsParams) -> Report {
    let mut r = Report::new("million-subs");
    r.heading("Million subscribers — adoption tiers over a provider-scale population");
    let t0 = std::time::Instant::now(); // tidy:allow(wall-clock): elapsed time feeds the obs::info diagnostic below, never the Report
    let report = million_subs_report(params);
    obs::info!(
        "[repro] streamed {} flows from {} subscribers over {} days in {}{}",
        report.flows,
        report.subscribers,
        report.days,
        crate::session::fmt_elapsed(t0.elapsed()),
        if params.spill.is_some() {
            " (spilled through columnar day-parts)"
        } else {
            ""
        },
    );
    r.line(format!(
        "{} subscribers, {} days, {} flows, stream digest {}",
        report.subscribers, report.days, report.flows, report.stream_digest
    ));
    let mut t = TextTable::new(vec!["tier", "subscribers", "share"]);
    for row in &report.tiers {
        t.row(vec![
            row.tier.clone(),
            row.subscribers.to_string(),
            format!("{:.4}", row.share),
        ]);
    }
    r.table(t);
    r.line(format!(
        "IPv6 carries {:.1}% of all subscriber bytes; adoption is non-binary \n\
         at provider scale — most active subscribers sit strictly inside (0, 1)",
        report.v6_byte_share * 100.0
    ));
    r.dataset("million_subs.json", million_subs_json(&report));
    r
}

/// `million-subs`: stream a provider-scale subscriber population through
/// the adoption-tier pipeline. `--sites` doubles as the scale knob
/// (50 subscribers per site; the paper-scale run targets 1M+), and
/// `--spill DIR` bounds peak RSS to one in-flight day-part per worker.
pub fn million_subs(s: &mut Session) -> Report {
    let threads = s.config.threads.unwrap_or_else(obs::par::default_threads);
    let params = MillionSubsParams {
        seed: s.world.config.seed,
        subscribers: s.world.web.sites.len() * 50,
        days: s.config.days.min(5),
        threads,
        spill: s.config.spill.clone(),
    };
    million_subs_report_for(&params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmon::sink::CollectSink;

    fn params(threads: usize, spill: Option<PathBuf>) -> MillionSubsParams {
        MillionSubsParams {
            seed: 77,
            subscribers: 10_000,
            days: 2,
            threads,
            spill,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("millsubs-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn spill_replay_reproduces_the_in_memory_stream_exactly() {
        let p = params(2, None);
        let world = World::generate(
            &WorldConfig {
                seed: p.seed,
                num_sites: 200,
                ..WorldConfig::small()
            }
            .with_long_tail(1_000)
            .with_subscribers(p.subscribers),
        );
        let cfg = SubscriberTrafficConfig {
            seed: p.seed ^ 0x6d69_6c73_7562,
            num_days: p.days,
            threads: 2,
            ..SubscriberTrafficConfig::default()
        };
        let mut in_memory = CollectSink::new();
        synthesize_subscribers_into(&world, &cfg, &mut in_memory);

        let dir = temp_dir("replay");
        let mut agg = SubscriberAgg::new(p.subscribers);
        spill_run(&world, &cfg, &mut agg, &dir.join("million-subs"));
        let parts = flowstore::PartSet::open(dir.join("million-subs")).expect("open parts");
        let mut replayed = CollectSink::new();
        parts.replay_into(&mut replayed).expect("replay");
        assert_eq!(in_memory.records, replayed.records);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn report_is_byte_identical_spilled_or_not_at_any_thread_count() {
        let dir = temp_dir("report");
        let a = million_subs_json(&million_subs_report(&params(1, None)));
        let b = million_subs_json(&million_subs_report(&params(4, None)));
        assert_eq!(a, b, "thread count must not change the report");
        let c = million_subs_json(&million_subs_report(&params(3, Some(dir.clone()))));
        assert_eq!(a, c, "spilling must not change the report");
        assert!(a.contains("\"stream_digest\""));
        let d = million_subs_json(&million_subs_report(&MillionSubsParams {
            seed: 78,
            ..params(1, None)
        }));
        assert_ne!(a, d, "a different seed produces a different dataset");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn tiers_cover_the_population_and_adoption_is_non_binary() {
        let r = million_subs_report(&params(2, None));
        assert_eq!(r.subscribers, 10_000);
        let counted: u64 = r.tiers.iter().map(|t| t.subscribers).sum();
        assert_eq!(counted, 10_000, "tiers must partition the population");
        assert!(r.flows > 0);
        assert!(r.v6_byte_share > 0.0 && r.v6_byte_share < 1.0);
        // The non-binary picture at provider scale: v4-only subscribers,
        // mid-range dual-stack and near-full adopters all present.
        let by_name = |name: &str| {
            r.tiers
                .iter()
                .find(|t| t.tier == name)
                .map(|t| t.subscribers)
                .unwrap_or(0)
        };
        assert!(by_name("v4-only") > 0);
        assert!(by_name("[0.2, 0.8)") > 0);
        assert!(by_name("[0.8, 1)") + by_name("v6-only") > 0);
    }
}
