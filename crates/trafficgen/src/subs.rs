//! Streaming traffic synthesis over million-subscriber populations: the
//! producer behind the `repro million-subs` experiment.
//!
//! The population is the lazy [`worldgen::subs::Subscribers`] model —
//! profiles derive on demand from the subscriber index — and synthesis
//! walks it in **shards** (fixed-size index ranges). The canonical task
//! list is day-major: `(day 0, shard 0), (day 0, shard 1), …, (day 1,
//! shard 0), …`; each `(day, shard)` task is a pure function of
//! `(seed, day, shard)`, which is exactly the contract the work-stealing
//! [`obs::par::fan_out_ordered`] needs — completion order is irrelevant, the
//! emitted stream is byte-identical at any thread count.
//!
//! Each task's records are delivered as **one** `accept_batch` run. That
//! batch shape is what the spill path preserves: one sealed day-part per
//! `(day, shard)` task, replayed in canonical `(day, shard)` order, is
//! indistinguishable — batch boundaries included — from the in-memory
//! stream.

use flowmon::sink::FlowSink;
use flowmon::{FlowKey, FlowRecord, Scope};
use obs::par::fan_out_ordered;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use worldgen::World;

const HOUR_US: u64 = 3_600_000_000;
const DAY_US: u64 = 24 * HOUR_US;

/// Subscriber source address space:
/// v4 `10.0.0.0/8` (up to 16.7M subscribers), v6 `2a0c::/16` (subscriber
/// index in the low bits). Both are disjoint from every worldgen
/// destination range (clouds `24.0.0.0/6`/`2600::/13`, client services
/// `100.64.0.0/10`/`2a00::/16`, long tail `128.0.0.0/2`/`3000::/4`), so
/// replayed parts stay attributable.
const SRC4_BASE: u32 = 0x0a00_0000;
const SRC6_BASE: u128 = 0x2a0c << 112;

/// Configuration of a subscriber-population synthesis run.
#[derive(Debug, Clone)]
pub struct SubscriberTrafficConfig {
    /// Master seed (per-(day, shard) RNGs derive from it).
    pub seed: u64,
    /// Days to simulate. Peak memory is independent of this.
    pub num_days: u32,
    /// Subscribers per shard (one shard = one task = one day-part).
    pub shard_size: usize,
    /// Mean flows per subscriber-day (scaled by the subscriber's volume
    /// weight).
    pub flows_per_subscriber_day: f64,
    /// Worker threads over the task list (1 = sequential; output identical
    /// at any count).
    pub threads: usize,
}

impl Default for SubscriberTrafficConfig {
    fn default() -> Self {
        SubscriberTrafficConfig {
            seed: 0x5ab5_c21b_e12d,
            num_days: 2,
            shard_size: 4_096,
            flows_per_subscriber_day: 3.0,
            threads: 1,
        }
    }
}

/// The canonical day-major task list: every `(day, shard)` pair, days
/// ascending, shards ascending within a day.
pub fn shard_tasks(world: &World, config: &SubscriberTrafficConfig) -> Vec<(u32, usize)> {
    let shards = world.subscribers.count.div_ceil(config.shard_size.max(1));
    (0..config.num_days)
        .flat_map(|day| (0..shards).map(move |shard| (day, shard)))
        .collect()
}

/// The subscriber's source address for one flow family.
pub fn subscriber_src(i: usize, v6: bool) -> IpAddr {
    if v6 {
        IpAddr::V6(Ipv6Addr::from(SRC6_BASE | i as u128))
    } else {
        IpAddr::V4(Ipv4Addr::from(SRC4_BASE | (i as u32 & 0x00ff_ffff)))
    }
}

/// Recover the subscriber index from a source address written by
/// [`subscriber_src`]; `None` for foreign addresses.
pub fn subscriber_of_src(addr: IpAddr) -> Option<usize> {
    match addr {
        IpAddr::V4(a) => {
            let bits = u32::from(a);
            (bits & 0xff00_0000 == SRC4_BASE).then_some((bits & 0x00ff_ffff) as usize)
        }
        IpAddr::V6(a) => {
            let bits = u128::from(a);
            (bits >> 112 == 0x2a0c).then_some((bits & 0xffff_ffff_ffff) as usize)
        }
    }
}

/// Knuth's Poisson sampler, capped — per-subscriber flow counts are small.
fn poisson(rng: &mut SmallRng, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda.min(30.0)).exp();
    let mut n = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p < l || n >= 64 {
            return n;
        }
        n += 1;
    }
}

/// The records of one `(day, shard)` task, in emission order. Pure
/// function of `(config.seed, day, shard)` plus the world — the
/// work-stealing contract.
pub fn shard_day_records(
    world: &World,
    config: &SubscriberTrafficConfig,
    day: u32,
    shard: usize,
) -> Vec<FlowRecord> {
    let subs = &world.subscribers;
    let tail = &world.long_tail;
    assert!(
        !tail.is_empty(),
        "subscriber synthesis needs a tailed world (with_long_tail)"
    );
    let lo = shard * config.shard_size;
    let hi = (lo + config.shard_size).min(subs.count);
    let mut rng = SmallRng::seed_from_u64(
        config
            .seed
            .wrapping_add((u64::from(day) + 1).wrapping_mul(0xa076_1d64_78bd_642f))
            .wrapping_add((shard as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
    );
    let day_base = u64::from(day) * DAY_US;
    let mut out = Vec::with_capacity(((hi - lo) as f64 * config.flows_per_subscriber_day) as usize);
    for i in lo..hi {
        let profile = subs.profile(i);
        let n = poisson(
            &mut rng,
            config.flows_per_subscriber_day * profile.volume_weight,
        );
        for _ in 0..n {
            let asx = &tail.ases[tail.sample_index(&mut rng)];
            let v6 =
                profile.dual_stack && !asx.v6.is_empty() && rng.gen::<f64>() < profile.v6_affinity;
            // Tail v6 prefixes dwarf the draw range and the v4 index folds
            // into the prefix size, so both lookups are total and the
            // fallbacks unreachable.
            let dst = if v6 {
                let p = &asx.v6[rng.gen_range(0..asx.v6.len())];
                let h = 1 + rng.gen_range(0..1_000) as u128;
                IpAddr::V6(p.host(h).unwrap_or(Ipv6Addr::LOCALHOST))
            } else {
                let p = &asx.v4[rng.gen_range(0..asx.v4.len())];
                let h = (1 + rng.gen_range(0..250)) % p.size();
                IpAddr::V4(p.host(h).unwrap_or(Ipv4Addr::LOCALHOST))
            };
            let start = day_base + rng.gen_range(0..DAY_US);
            let duration = u64::from(rng.gen_range(1..600u32)) * 1_000_000;
            let sport = rng.gen_range(10_000..60_000u16);
            // Lognormal-ish size, scaled by the subscriber's volume weight.
            let u1: f64 = rng.gen::<f64>().max(1e-12);
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let bytes =
                (40_000.0 * profile.volume_weight * (1.2 * z).exp2()).clamp(200.0, 4e8) as u64;
            let src = subscriber_src(i, v6);
            let key = if rng.gen::<f64>() < 0.1 {
                FlowKey::udp(src, sport, dst, 443)
            } else {
                FlowKey::tcp(src, sport, dst, 443)
            };
            out.push(FlowRecord {
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
    }
    out
}

/// Synthesize the whole run into `sink` in canonical order: days
/// ascending, shards ascending within a day, one `accept_batch` run per
/// `(day, shard)` task. Byte-identical at any `config.threads` — tasks go
/// through the ordered work-stealing fan-out and are flushed in task
/// order, so peak memory is O(2 × threads) shard-days, not O(run).
pub fn synthesize_subscribers_into<S: FlowSink>(
    world: &World,
    config: &SubscriberTrafficConfig,
    sink: &mut S,
) {
    fan_out_ordered(
        shard_tasks(world, config),
        config.threads,
        |_, (day, shard)| shard_day_records(world, config, day, shard),
        |_, records| sink.accept_batch(&records),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmon::sink::CollectSink;
    use worldgen::WorldConfig;

    fn subscriber_world(subs: usize) -> World {
        World::generate(
            &WorldConfig {
                num_sites: 200,
                ..WorldConfig::small()
            }
            .with_long_tail(1_000)
            .with_subscribers(subs),
        )
    }

    #[test]
    fn shard_day_is_pure() {
        let world = subscriber_world(10_000);
        let cfg = SubscriberTrafficConfig::default();
        assert_eq!(
            shard_day_records(&world, &cfg, 1, 2),
            shard_day_records(&world, &cfg, 1, 2)
        );
        assert_ne!(
            shard_day_records(&world, &cfg, 0, 0),
            shard_day_records(&world, &cfg, 1, 0)
        );
    }

    #[test]
    fn thread_invariant_and_canonically_ordered() {
        let world = subscriber_world(10_000);
        let cfg = SubscriberTrafficConfig {
            num_days: 3,
            threads: 1,
            ..SubscriberTrafficConfig::default()
        };
        let mut seq = CollectSink::new();
        synthesize_subscribers_into(&world, &cfg, &mut seq);
        assert!(!seq.records.is_empty());
        for threads in [3, 8] {
            let mut par = CollectSink::new();
            synthesize_subscribers_into(
                &world,
                &SubscriberTrafficConfig {
                    threads,
                    ..cfg.clone()
                },
                &mut par,
            );
            assert_eq!(seq.records, par.records, "fan-out changed the stream");
        }
        // Days ascend — the FlowSink producer contract.
        let mut last_day = 0;
        for r in &seq.records {
            let day = r.start / DAY_US;
            assert!(day >= last_day);
            last_day = day;
        }
    }

    #[test]
    fn src_addresses_round_trip_subscriber_indices() {
        for i in [0usize, 1, 4_095, 999_999] {
            assert_eq!(subscriber_of_src(subscriber_src(i, false)), Some(i));
            assert_eq!(subscriber_of_src(subscriber_src(i, true)), Some(i));
        }
        assert_eq!(subscriber_of_src("24.0.0.1".parse().unwrap()), None);
        assert_eq!(subscriber_of_src("3000::1".parse().unwrap()), None);
    }

    #[test]
    fn population_is_covered_with_mixed_adoption() {
        let world = subscriber_world(8_192);
        let cfg = SubscriberTrafficConfig {
            num_days: 2,
            ..SubscriberTrafficConfig::default()
        };
        let mut sink = CollectSink::new();
        synthesize_subscribers_into(&world, &cfg, &mut sink);
        let mut seen = std::collections::BTreeSet::new();
        let mut v6 = 0usize;
        for r in &sink.records {
            seen.insert(subscriber_of_src(r.key.src).expect("subscriber src"));
            if matches!(r.key.src, IpAddr::V6(_)) {
                v6 += 1;
            }
        }
        assert!(seen.len() > 7_000, "subscribers seen {}", seen.len());
        assert!(v6 > 1_000, "v6 flows {v6}");
        assert!(sink.records.len() - v6 > 1_000);
    }
}
