//! Streaming traffic synthesis over the long-tail AS population: the
//! producer behind the `repro as-fractions` experiment.
//!
//! Unlike residence synthesis — five rich behavioural profiles over ~40
//! head ASes — the long-tail generator models an aggregation-point view of
//! traffic towards a routing-table-scale AS population
//! ([`worldgen::longtail::LongTail`], typically ~100k ASes): each record
//! picks a destination AS Zipf-weighted, a prefix and host inside that
//! AS's announced space, a family split by the AS's IPv6 share (with
//! per-day jitter, so daily fractions move like the paper's Fig 1), and a
//! lognormal size. Records are pushed straight into the caller's
//! [`FlowSink`] — with a dense per-AS aggregator the whole run holds
//! O(ASes) state however many days are simulated, which is the experiment's
//! memory contract.
//!
//! The determinism contract matches residence synthesis: every day derives
//! its own RNG from `(seed, day)` and is emitted in ascending day order, so
//! output is byte-identical at any `threads` count (day workers buffer and
//! flush in order, exactly like [`crate::synth`]'s day fan-out).

use crate::synth::SportAlloc;
use flowmon::sink::{CollectSink, FlowSink};
use flowmon::{FlowKey, FlowRecord, Scope};
use obs::par::fan_out_ordered;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::IpAddr;
use worldgen::World;

const HOUR_US: u64 = 3_600_000_000;
const DAY_US: u64 = 24 * HOUR_US;

/// Configuration of a long-tail synthesis run.
#[derive(Debug, Clone)]
pub struct LongTailTrafficConfig {
    /// Master seed (per-day RNGs derive from it).
    pub seed: u64,
    /// Days to simulate. Peak memory is independent of this: day workers
    /// buffer at most 2 × `threads` days, aggregators hold O(ASes).
    pub num_days: u32,
    /// Flow records per simulated day.
    pub flows_per_day: usize,
    /// Day-level worker threads (1 = sequential; output identical at any
    /// count).
    pub threads: usize,
}

impl Default for LongTailTrafficConfig {
    fn default() -> Self {
        LongTailTrafficConfig {
            seed: 0x0100_7a11_a5e5,
            num_days: 3,
            flows_per_day: 200_000,
            threads: 1,
        }
    }
}

/// Synthesize one day of long-tail traffic into `sink`. Pure function of
/// `(config.seed, day)` plus the world.
fn synthesize_day<S: FlowSink>(
    world: &World,
    config: &LongTailTrafficConfig,
    day: u32,
    sink: &mut S,
) {
    let tail = &world.long_tail;
    assert!(!tail.is_empty(), "long-tail synthesis needs a tailed world");
    let mut rng = SmallRng::seed_from_u64(
        config
            .seed
            .wrapping_add((day as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f)),
    );
    let day_base = day as u64 * DAY_US;
    let mut sports = SportAlloc::new(10_000, day_base);
    // Aggregation-point source addresses (the monitor sits upstream of the
    // access network, so source identity is collapsed — the analyses only
    // read destination attribution and family).
    let src4: IpAddr = "100.64.255.1".parse().expect("static");
    let src6: IpAddr = "2a00:ffff::1".parse().expect("static");
    // Per-day IPv6 mood: a mild global multiplier so daily per-AS
    // fractions vary day to day without drifting the long-run mean.
    let day_jitter = 0.85 + 0.3 * rng.gen::<f64>();
    // Hour-by-hour emission (like residence synthesis): flow starts are
    // then near-monotone, which keeps the port allocator's skip-scan O(1)
    // — uniform starts across the whole day would make every early-morning
    // allocation scan past the previous lap's still-busy horizons.
    let per_hour = config.flows_per_day / 24;
    let remainder = config.flows_per_day % 24;
    // One hour of records is built up and handed over as a single
    // `accept_batch` run: attribution sinks resolve the whole run through
    // the batched LPM path. The hour boundaries are a pure function of
    // `flows_per_day` (see `hour_batches`), so the parallel fan-out below
    // reconstructs the exact same runs and every memo/bypass decision —
    // and with it every obs counter — is thread-layout-invariant.
    let mut hour_buf: Vec<FlowRecord> = Vec::with_capacity(per_hour + 1);
    for hour in 0..24u64 {
        let n = per_hour + usize::from((hour as usize) < remainder);
        let hour_base = day_base + hour * HOUR_US;
        for _ in 0..n {
            let asx = &tail.ases[tail.sample_index(&mut rng)];
            let p_v6 = (asx.v6_share * day_jitter).clamp(0.0, 1.0);
            let v6 = !asx.v6.is_empty() && rng.gen::<f64>() < p_v6;
            let dst = if v6 {
                let p = &asx.v6[rng.gen_range(0..asx.v6.len())];
                IpAddr::V6(
                    p.host(1 + rng.gen_range(0..1_000) as u128)
                        .expect("host fits"),
                )
            } else {
                let p = &asx.v4[rng.gen_range(0..asx.v4.len())];
                IpAddr::V4(p.host(1 + rng.gen_range(0..250)).expect("host fits"))
            };
            let start = hour_base + rng.gen_range(0..HOUR_US);
            let duration = rng.gen_range(1..600) as u64 * 1_000_000;
            let sport = sports.alloc(start, start + duration);
            // Lognormal size, median 100 kB: a Box–Muller normal in the
            // exponent gives real mass on both sides of the median with a
            // heavy upper tail, clamped to a sane record range.
            let u1: f64 = rng.gen::<f64>().max(1e-12);
            let u2: f64 = rng.gen();
            let n = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let bytes = (100_000.0 * (1.3 * n).exp2()).clamp(200.0, 4e8) as u64;
            let key = if rng.gen::<f64>() < 0.1 {
                FlowKey::udp(if v6 { src6 } else { src4 }, sport, dst, 443)
            } else {
                FlowKey::tcp(if v6 { src6 } else { src4 }, sport, dst, 443)
            };
            hour_buf.push(FlowRecord {
                key,
                start,
                end: start + duration,
                bytes_orig: bytes / 20,
                bytes_reply: bytes,
                packets_orig: 1 + bytes / 30_000,
                packets_reply: 1 + bytes / 1_400,
                scope: Scope::External,
            });
        }
        sink.accept_batch(&hour_buf);
        hour_buf.clear();
    }
}

/// The per-hour batch sizes one synthesized day delivers: `flows_per_day`
/// spread over 24 hours, the remainder front-loaded — the same arithmetic
/// `synthesize_day` emits with, shared so the parallel flush can split a
/// buffered day back into identical `accept_batch` runs.
fn hour_batches(flows_per_day: usize) -> impl Iterator<Item = usize> {
    let per_hour = flows_per_day / 24;
    let remainder = flows_per_day % 24;
    (0..24usize).map(move |hour| per_hour + usize::from(hour < remainder))
}

/// Synthesize the whole run into `sink`: days ascending, records within a
/// day in generation order, byte-identical at any `config.threads` — the
/// same producer contract as residence synthesis, so every [`FlowSink`]
/// composes unchanged.
pub fn synthesize_long_tail_into<S: FlowSink>(
    world: &World,
    config: &LongTailTrafficConfig,
    sink: &mut S,
) {
    if config.threads.max(1) == 1 {
        for day in 0..config.num_days {
            synthesize_day(world, config, day, sink);
        }
        return;
    }
    // Day fan-out (see `synth::run_days`): at most 2 × `threads` buffered
    // days in flight, flushed in day order, so peak memory is O(window ×
    // day records) and the emitted sequence matches the sequential path
    // exactly.
    fan_out_ordered(
        (0..config.num_days).collect(),
        config.threads,
        |_, day| {
            let mut buf = CollectSink::new();
            synthesize_day(world, config, day, &mut buf);
            buf.into_records()
        },
        |_, records| {
            // Re-deliver in the exact hour runs the sequential path emits,
            // so batched sinks see identical `accept_batch` boundaries (and
            // identical memo counters) at any thread count.
            let mut off = 0;
            for n in hour_batches(config.flows_per_day) {
                sink.accept_batch(&records[off..off + n]);
                off += n;
            }
            debug_assert_eq!(off, records.len());
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmon::sink::NullSink;
    use worldgen::WorldConfig;

    fn tailed_world() -> World {
        World::generate(
            &WorldConfig {
                num_sites: 200,
                ..WorldConfig::small()
            }
            .with_long_tail(1_000),
        )
    }

    #[test]
    fn deterministic_and_thread_invariant() {
        let world = tailed_world();
        let cfg = LongTailTrafficConfig {
            num_days: 4,
            flows_per_day: 3_000,
            threads: 1,
            ..LongTailTrafficConfig::default()
        };
        let mut seq = CollectSink::new();
        synthesize_long_tail_into(&world, &cfg, &mut seq);
        assert_eq!(seq.records.len(), 4 * 3_000);
        let mut par = CollectSink::new();
        synthesize_long_tail_into(
            &world,
            &LongTailTrafficConfig {
                threads: 3,
                ..cfg.clone()
            },
            &mut par,
        );
        assert_eq!(seq.records, par.records, "day fan-out changed the stream");
        // Days ascend (the producer contract aggregators rely on).
        let mut last_day = 0;
        for r in &seq.records {
            let day = r.start / DAY_US;
            assert!(day >= last_day);
            last_day = day;
        }
    }

    #[test]
    fn covers_the_tail_with_both_families() {
        let world = tailed_world();
        let cfg = LongTailTrafficConfig {
            num_days: 2,
            flows_per_day: 20_000,
            ..LongTailTrafficConfig::default()
        };
        let mut sink = (CollectSink::new(), NullSink::default());
        synthesize_long_tail_into(&world, &cfg, &mut sink);
        let records = sink.0.records;
        let v6 = records
            .iter()
            .filter(|r| matches!(r.key.dst, IpAddr::V6(_)))
            .count();
        assert!(v6 > 1_000, "v6 records {v6}");
        assert!(
            records.len() - v6 > 1_000,
            "v4 records {}",
            records.len() - v6
        );
        // Every destination attributes to a long-tail AS.
        let mut distinct = std::collections::BTreeSet::new();
        for r in &records {
            let asn = world.rib.origin_of(r.key.dst).expect("attributable");
            assert!(asn.0 >= worldgen::longtail::LONG_TAIL_ASN_BASE);
            distinct.insert(asn.0);
        }
        // Zipf sampling still reaches deep into the tail.
        assert!(distinct.len() > 400, "distinct ASes {}", distinct.len());
    }
}
