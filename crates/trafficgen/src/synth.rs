//! The traffic synthesizer: profiles × diurnal activity × Happy Eyeballs →
//! flow records, streamed into a [`FlowSink`].
//!
//! Synthesis is organized around *days*: each (residence, day) pair derives
//! its own RNG stream from the master seed, so days are mutually independent
//! and can run on any number of worker threads with byte-identical output
//! (the same determinism contract `synthesize_all` gives across residences).
//! Per-residence state that must be stable across days (LAN addressing, the
//! device population) comes from a residence-level stream seeded without a
//! day component.
//!
//! Records are *pushed*, not materialized: every completed flow goes
//! straight into the caller's [`FlowSink`] in a deterministic order —
//! records of one (residence, day) contiguously and in emission order, days
//! ascending. [`synthesize_residence`] wraps the streaming core with a
//! [`CollectSink`], reproducing the historical `Vec<FlowRecord>` dataset
//! byte-for-byte; aggregate sinks run the same synthesis in O(aggregator)
//! memory however many days are simulated.
//!
//! Residences whose [`ResidenceProfile::access_tech`] is not native
//! dual-stack route their legacy traffic through the world's transition
//! plant: IPv6-only lines resolve through DNS64 and reach IPv4-only
//! services via the NAT64 gateway (flows towards the RFC 6052 prefix),
//! 464XLAT lines additionally push v4-literal application traffic through
//! the CLAT, and DS-Lite lines tunnel IPv4 to an AFTR whose NAT44 binding
//! table — like the NAT64's — can run out of ports under load. Those
//! gateways come in two deployments: the historical *day-local* instances
//! (one per residence-day), and the shared
//! provider gateway of [`crate::provider`], which defers binding admission
//! to a pool persisted across days and residences.

use crate::profile::ResidenceProfile;
use dnssim::{Name, ResolveAddrs, Resolver};
use faults::{DayPathFault, FaultPlan, FaultyResolver, PoolTarget, DNS_STREAM, FLOW_DROP_STREAM};
use flowmon::sink::{CollectSink, FlowSink};
use flowmon::{DropCause, DropCounters, FlowKey, FlowRecord, RouterMonitor, TranslationMap};
use happyeyeballs::{HappyEyeballs, HappyEyeballsConfig};
use iputil::prefix::{Prefix4, Prefix6};
use iputil::Family;
use netsim::{Network, PathProfile, MILLIS};
use obs::par::{fan_out, fan_out_ordered};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use transition::{AccessTech, Aftr, Dns64, GatewayConfig, GatewayStats, Nat64Gateway};
use worldgen::clientsvc::{ClientServiceRuntime, ServiceKind};
use worldgen::World;

/// Microseconds per hour / day (local aliases to keep formulas readable).
const HOUR_US: u64 = 3_600_000_000;
const DAY_US: u64 = 24 * HOUR_US;

/// Share of a 464XLAT line's traffic from IPv4-literal applications that
/// bypasses DNS64 and goes through the CLAT even when the service has
/// native IPv6 (RFC 7849 puts such apps in the low single digits; the CLAT
/// exists exactly for them).
const CLAT_LITERAL_SHARE: f64 = 0.05;

/// Traffic synthesis configuration.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Master seed (per-(residence, day) RNGs derive from it).
    pub seed: u64,
    /// Days to simulate (the paper observes ~273: Nov 2024 – Aug 2025).
    pub num_days: u32,
    /// Flow/byte sampling factor: recorded flows ≈ real flows × scale. The
    /// paper's 110M-flow residences are impractical (and pointless) to
    /// materialize; fractions are scale-invariant and absolute totals are
    /// rescaled by 1/scale in reports.
    pub scale: f64,
    /// Probability that a winning IPv6 connection leaves a losing IPv4
    /// SYN-flow in the log (Happy Eyeballs both-families effect).
    pub he_both_flow_rate: f64,
    /// Happy Eyeballs parameters for the per-(day, service) health race.
    pub he: HappyEyeballsConfig,
    /// Worker threads fanning residences out in [`synthesize_all`]
    /// (1 = sequential). Output is identical at any thread count.
    pub threads: usize,
    /// Worker threads fanning *days* out inside one residence
    /// (1 = sequential). Days derive independent RNGs from
    /// `(seed, residence, day)`, so output is identical at any thread
    /// count; combined with `threads` the two levels multiply. With more
    /// than one day worker each day buffers before flushing to the sink in
    /// day order, so peak memory grows by O(in-flight days), not O(run).
    pub day_threads: usize,
    /// Binding-table limits of the NAT64/AFTR gateways serving translated
    /// residences (shrink to provoke the exhaustion scenario).
    pub gateway: GatewayConfig,
    /// Scheduled failure timeline ([`faults`] crate). The default empty
    /// plan draws no randomness and leaves output byte-identical to a run
    /// without the fault plane; a non-empty plan perturbs only what it
    /// schedules, from dedicated `(fault, residence, day)` RNG streams.
    pub faults: FaultPlan,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            seed: 0x7e51de9ce,
            num_days: 273,
            scale: 1.0 / 1000.0,
            he_both_flow_rate: 0.13,
            he: HappyEyeballsConfig::default(),
            threads: obs::par::default_threads(),
            day_threads: 1,
            gateway: GatewayConfig::default(),
            faults: FaultPlan::default(),
        }
    }
}

impl TrafficConfig {
    /// A fast configuration for tests/examples: 60 days at 1/2000 scale.
    pub fn fast() -> TrafficConfig {
        TrafficConfig {
            num_days: 60,
            scale: 1.0 / 2000.0,
            ..TrafficConfig::default()
        }
    }
}

/// The synthesized dataset of one residence (the materializing API:
/// [`ResidenceSummary`] plus every flow record, collected via
/// [`CollectSink`]).
#[derive(Debug)]
pub struct ResidenceDataset {
    /// The generating profile.
    pub profile: ResidenceProfile,
    /// All flow records (external + internal), in generation order.
    pub flows: Vec<FlowRecord>,
    /// The sampling factor that produced `flows`.
    pub scale: f64,
    /// Days simulated.
    pub num_days: u32,
    /// Binding-table counters of the residence's translator (NAT64 for the
    /// IPv6-only techs, the AFTR's NAT44 for DS-Lite); `None` on lines that
    /// use no stateful gateway.
    pub gateway: Option<GatewayStats>,
    /// Flows lost to the fault plane, by cause (all-zero without a plan).
    pub drops: DropCounters,
}

/// What a streaming synthesis returns: everything [`ResidenceDataset`]
/// carries except the records themselves (those went to the sink).
#[derive(Debug, Clone)]
pub struct ResidenceSummary {
    /// The generating profile.
    pub profile: ResidenceProfile,
    /// The sampling factor of the emitted stream.
    pub scale: f64,
    /// Days simulated.
    pub num_days: u32,
    /// Day-local gateway counters (`None` on lines without a stateful
    /// gateway, and always `None` under a shared provider gateway — the
    /// provider holds the pool then).
    pub gateway: Option<GatewayStats>,
    /// Flows lost to the fault plane, by cause (all-zero without a plan).
    pub drops: DropCounters,
}

/// Diurnal activity weight for human traffic: near-zero overnight, a
/// morning shoulder and an evening peak rising to midnight (the paper's
/// Fig 2 daily component).
fn human_hour_weight(hour: u32, weekday: u32) -> f64 {
    let base = match hour {
        0 => 0.55,
        1..=5 => 0.08,
        6..=8 => 0.35,
        9..=11 => 0.50, // mid-morning secondary peak
        12..=15 => 0.40,
        16..=18 => 0.70,
        19..=21 => 1.00,
        22..=23 => 0.95,
        _ => unreachable!(),
    };
    // Weak weekly pattern: slightly more daytime use on weekends.
    let weekend = weekday == 5 || weekday == 6;
    if weekend && (9..=18).contains(&hour) {
        base * 1.15
    } else {
        base
    }
}

/// Residence-level RNG seed (devices, addressing — stable across days).
fn residence_seed(seed: u64, residence_index: u64) -> u64 {
    seed.wrapping_add(residence_index.wrapping_mul(0x9e3779b97f4a7c15))
}

/// Day-level RNG seed: a second independent stream per (residence, day).
fn day_seed(seed: u64, residence_index: u64, day: u32) -> u64 {
    residence_seed(seed, residence_index)
        .wrapping_add((day as u64 + 1).wrapping_mul(0xd134_2543_de82_ef95))
}

/// Synthesize every paper residence, fanning residences out over
/// `config.threads` scoped worker threads.
pub fn synthesize_all(world: &World, config: &TrafficConfig) -> Vec<ResidenceDataset> {
    synthesize_profiles(world, crate::profile::paper_residences(), config)
}

/// Synthesize an arbitrary cohort of residences (the transition-technology
/// cohort, ablations), fanning residences out over `config.threads` and
/// materializing every record.
///
/// Residence `i` derives all randomness from `(seed, i)` and, inside,
/// `(seed, i, day)` alone, so output is byte-identical at any combination
/// of `threads` and `day_threads`.
pub fn synthesize_profiles(
    world: &World,
    profiles: Vec<ResidenceProfile>,
    config: &TrafficConfig,
) -> Vec<ResidenceDataset> {
    let _span = obs::span!("synthesize");
    fan_out(profiles, config.threads, |i, p| {
        synthesize_residence(world, p, config, i as u64)
    })
}

/// Streaming cohort synthesis: every residence gets its own sink (built by
/// `make_sink` from the residence's index and profile) and streams into it
/// while residences fan out over `config.threads`. Returns summaries and
/// the filled sinks in input order.
///
/// This is the paper-scale entry point: with aggregator sinks the whole run
/// completes in O(residences × aggregator) memory — no flow record outlives
/// its push.
pub fn synthesize_profiles_with<S, F>(
    world: &World,
    profiles: Vec<ResidenceProfile>,
    config: &TrafficConfig,
    make_sink: F,
) -> Vec<(ResidenceSummary, S)>
where
    S: FlowSink + Send,
    F: Fn(usize, &ResidenceProfile) -> S + Sync,
{
    let _span = obs::span!("synthesize");
    fan_out(profiles, config.threads, |i, profile| {
        let mut sink = make_sink(i, &profile);
        let summary = synthesize_residence_into(world, profile, config, i as u64, &mut sink);
        (summary, sink)
    })
}

/// Per-residence state stable across days: LAN addressing, the device
/// population and the calibrated service weights. Built once per residence
/// from the residence-level RNG stream, then shared read-only by every day
/// worker (and, in provider mode, across the whole run).
pub(crate) struct ResidenceSetup {
    pub(crate) profile: ResidenceProfile,
    pub(crate) devices: Vec<Device>,
    pub(crate) base_weights: Vec<f64>,
    pub(crate) residence_factor: f64,
    pub(crate) dual_share: f64,
    pub(crate) lan4: Prefix4,
    pub(crate) lan6: Prefix6,
    pub(crate) residence_index: u64,
}

impl ResidenceSetup {
    pub(crate) fn build(
        world: &World,
        config: &TrafficConfig,
        profile: ResidenceProfile,
        residence_index: u64,
    ) -> ResidenceSetup {
        obs::counter_add("synth.residence_streams", 1);
        let mut rng = SmallRng::seed_from_u64(residence_seed(config.seed, residence_index));
        let services = &world.client_services;

        // LAN addressing: 192.168.<idx>.0/24 and a delegated /56 for the
        // first 255 residences (the historical scheme, preserved so small
        // cohorts stay byte-identical); larger cohorts — ISP-scale CGN
        // studies — spill into 10.0.0.0/8 and deeper 2001:db8::/32
        // subnets. The world allocates public space from 24.0.0.0/6,
        // 100.64.0.0/10 and 198.18.0.0/15, so neither LAN pool collides
        // with a service or translator address.
        assert!(
            residence_index < 65_000,
            "residence_index {residence_index} exceeds the LAN addressing plan (max 64999)"
        );
        let (lan4, lan6): (Prefix4, Prefix6) = if residence_index < 255 {
            (
                format!("192.168.{}.0/24", residence_index + 1)
                    .parse()
                    .expect("valid LAN prefix"),
                format!("2001:db8:{:x}00::/56", residence_index + 1)
                    .parse()
                    .expect("valid LAN prefix"),
            )
        } else {
            let i = residence_index - 255;
            (
                format!("10.{}.{}.0/24", i >> 8, i & 0xff)
                    .parse()
                    .expect("valid LAN prefix"),
                // Subnet id at the /56 boundary (bits 72..96). Small
                // residences sit at multiples of 2^88, i.e. subnet ids
                // that are multiples of 0x10000 at this scale — first
                // possible collision at index 65535, above the assert.
                Prefix6::new(
                    std::net::Ipv6Addr::from(
                        (0x2001_0db8u128 << 96) | ((residence_index as u128 + 1) << 72),
                    ),
                    56,
                ),
            )
        };

        // Devices: ~3 per resident; some broken-v6 at Residence C.
        let n_devices = (profile.residents * 3).clamp(2, 24);
        let devices: Vec<Device> = (0..n_devices)
            .map(|i| Device {
                v4: lan4.host(10 + i as u64).expect("device fits"),
                v6: lan6.host(0x10 + i as u128).expect("device fits"),
                dual_stack: rng.gen::<f64>() >= profile.broken_v6_share,
            })
            .collect();

        // Base per-service weights (global × residence boosts).
        let base_weights: Vec<f64> = services
            .iter()
            .map(|s| {
                let boost = profile
                    .mix_boosts
                    .iter()
                    .find(|(k, _)| *k == s.service.key)
                    .map(|(_, b)| *b)
                    .unwrap_or(1.0);
                s.service.weight * boost
            })
            .collect();

        // Residence factor: scales every service's IPv6 propensity so the
        // volume-weighted mix hits the residence target (the mechanism that
        // caps per-AS fractions at Residence C).
        let mix_v6: f64 = {
            let num: f64 = services
                .iter()
                .zip(&base_weights)
                .map(|(s, w)| w * s.service.v6_share)
                .sum();
            let den: f64 = base_weights.iter().sum();
            num / den
        };
        let dual_share = devices.iter().filter(|d| d.dual_stack).count() as f64 / n_devices as f64;
        let residence_factor = profile.target_ext_v6_bytes / (mix_v6 * dual_share).max(1e-9);

        ResidenceSetup {
            profile,
            devices,
            base_weights,
            residence_factor,
            dual_share,
            lan4,
            lan6,
            residence_index,
        }
    }
}

/// Read-only view a day worker gets: the world, the run configuration and
/// the residence's stable setup.
pub(crate) struct ResidenceCtx<'a> {
    pub(crate) world: &'a World,
    pub(crate) config: &'a TrafficConfig,
    pub(crate) setup: &'a ResidenceSetup,
}

/// How a day's translated traffic meets its stateful gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GatewayMode {
    /// The historical model: a fresh NAT64/AFTR per (residence, day);
    /// exhausted pools drop flows at emission time.
    Local,
    /// Shared provider gateway ([`crate::provider`]): addresses are mapped
    /// statelessly here and *admission* happens later, when the provider
    /// replays the day's stream against its persistent pool.
    Provider,
}

/// Synthesize one residence's dataset, materializing every record
/// (streaming core + [`CollectSink`]).
pub fn synthesize_residence(
    world: &World,
    profile: ResidenceProfile,
    config: &TrafficConfig,
    residence_index: u64,
) -> ResidenceDataset {
    let mut sink = CollectSink::new();
    let summary = synthesize_residence_into(world, profile, config, residence_index, &mut sink);
    ResidenceDataset {
        profile: summary.profile,
        flows: sink.into_records(),
        scale: summary.scale,
        num_days: summary.num_days,
        gateway: summary.gateway,
        drops: summary.drops,
    }
}

/// Synthesize one residence, streaming every record into `sink`.
///
/// Emission order is deterministic — days ascending, records within a day
/// in generation order — and independent of `config.day_threads` (day
/// workers buffer their day and flush in order). A [`CollectSink`] here
/// reproduces [`synthesize_residence`]'s `flows` byte-for-byte.
pub fn synthesize_residence_into<S: FlowSink>(
    world: &World,
    profile: ResidenceProfile,
    config: &TrafficConfig,
    residence_index: u64,
    sink: &mut S,
) -> ResidenceSummary {
    let _span = obs::span!("residence", residence = residence_index);
    let setup = ResidenceSetup::build(world, config, profile, residence_index);
    let ctx = ResidenceCtx {
        world,
        config,
        setup: &setup,
    };
    let (gateway, drops) = run_days(&ctx, GatewayMode::Local, sink);
    ResidenceSummary {
        profile: setup.profile,
        scale: config.scale,
        num_days: config.num_days,
        gateway,
        drops,
    }
}

/// Drive every day of one residence into `sink`, sequentially or over
/// `day_threads` workers (buffered, flushed in day order).
pub(crate) fn run_days<S: FlowSink>(
    ctx: &ResidenceCtx<'_>,
    mode: GatewayMode,
    sink: &mut S,
) -> (Option<GatewayStats>, DropCounters) {
    let config = ctx.config;
    let mut gateway: Option<GatewayStats> = None;
    let mut drops = DropCounters::default();
    let absorb = |gateway: &mut Option<GatewayStats>, stats: Option<GatewayStats>| {
        if let Some(stats) = stats {
            gateway
                .get_or_insert_with(GatewayStats::default)
                .absorb(stats);
        }
    };
    if config.day_threads.max(1) == 1 {
        // Fully streaming: a day's records go straight to the sink.
        for day in 0..config.num_days {
            let (stats, day_drops) = synthesize_day_into(ctx, day, mode, sink);
            absorb(&mut gateway, stats);
            drops.absorb(day_drops);
        }
    } else {
        // Day fan-out: each worker buffers its day, and the ordered fan-out
        // flushes the buffers to the sink in day order with at most
        // 2 × `day_threads` days in flight, so the record sequence is
        // identical to the sequential path and peak memory is bounded by
        // the window, not the run (day seeds are window-oblivious, so the
        // split cannot affect output).
        fan_out_ordered(
            (0..config.num_days).collect(),
            config.day_threads,
            |_, day| {
                let mut buf = CollectSink::new();
                let outcome = synthesize_day_into(ctx, day, mode, &mut buf);
                (buf.into_records(), outcome)
            },
            |_, (records, (stats, day_drops))| {
                for r in &records {
                    sink.accept(r);
                }
                absorb(&mut gateway, stats);
                drops.absorb(day_drops);
            },
        );
    }
    (gateway, drops)
}

/// Ephemeral source-port allocator for one (residence, day).
///
/// The historical allocator was a bare cursor (`sport.wrapping_add(1)
/// .max(1024)`) over the 1024..=65535 ring. Within its first lap that
/// issues distinct ports, but past 64 512 flows the cursor laps and blindly
/// reissues a port that an earlier long-lived flow (streaming sessions run
/// up to 1.5 h) may still hold — two distinct flows to the same service
/// then share a 5-tuple and silently merge in any conntrack-style
/// [`flowmon::FlowTable`]. This allocator keeps the identical cursor
/// sequence (so every run that never laps stays byte-identical to the
/// historical output) but records each issued port's busy horizon and
/// skips ports whose previous flow is still alive at allocation time.
///
/// Horizons are stored in 2-second ticks relative to the day start
/// (`⌈end/2s⌉`, conservative), so the whole table is one 128 KB `Vec<u16>`
/// per day worker.
pub struct SportAlloc {
    cursor: u16,
    day_base_us: u64,
    /// Per-port busy horizon in day-relative 2-second ticks; port `p` is
    /// free for a flow starting at tick `t` when `busy_until[p] <= t`.
    busy_until: Vec<u16>,
}

/// Tick width of the [`SportAlloc`] busy table.
const SPORT_TICK_US: u64 = 2_000_000;

impl SportAlloc {
    /// A fresh allocator whose first issued port is `start + 1` (the
    /// historical cursor seed is 10 000).
    pub fn new(start: u16, day_base_us: u64) -> SportAlloc {
        SportAlloc {
            cursor: start,
            day_base_us,
            busy_until: vec![0; 65_536],
        }
    }

    fn tick(&self, us: u64) -> u64 {
        us.saturating_sub(self.day_base_us) / SPORT_TICK_US
    }

    /// Allocate a source port for a flow spanning `[start_us, end_us]`
    /// (absolute timestamps). Skips ports still held by an earlier flow;
    /// when every port is held (> 64 512 simultaneously live flows) the
    /// cursor port is reissued — a genuine collision no 16-bit port space
    /// can avoid.
    pub fn alloc(&mut self, start_us: u64, end_us: u64) -> u16 {
        let start_tick = self.tick(start_us);
        let end_tick = (self.tick(end_us) + 1).min(u16::MAX as u64) as u16;
        let ring = 65_535u32 - 1_024 + 1;
        for _ in 0..ring {
            self.cursor = if self.cursor == 65_535 {
                1_024
            } else {
                (self.cursor + 1).max(1_024)
            };
            if u64::from(self.busy_until[self.cursor as usize]) <= start_tick {
                break;
            }
        }
        let p = self.cursor;
        let slot = &mut self.busy_until[p as usize];
        *slot = (*slot).max(end_tick);
        p
    }

    /// A side-channel port for a companion flow — the Happy-Eyeballs
    /// losing IPv4 attempt that rides alongside a just-allocated flow.
    /// Starts at the historical `cursor + 7` offset (ahead of the cursor,
    /// so a run that never laps gets the exact pre-fix port) and skips
    /// ports still held at `start_us`, so the residue can no longer share
    /// a 5-tuple with a live long-lived flow after a lap.
    ///
    /// The chosen port is deliberately *not* recorded in the busy table:
    /// marking it would perturb the main cursor's skip decisions seven
    /// allocations later and break the non-lapping byte-identity
    /// contract. The unmarked ~2-second residue is therefore the one
    /// remaining window in which a later allocation can reuse its port.
    pub fn companion_port(&self, start_us: u64) -> u16 {
        let start_tick = self.tick(start_us);
        let mut p = self.cursor.wrapping_add(7).max(1_024);
        // Bounded scan: residue collisions are rare even post-lap; on a
        // pathological all-busy day fall through to the last candidate.
        for _ in 0..64 {
            if u64::from(self.busy_until[p as usize]) <= start_tick {
                break;
            }
            p = if p == 65_535 {
                1_024
            } else {
                (p + 1).max(1_024)
            };
        }
        p
    }
}

/// Mutable per-day machinery: RNG, router, port counter, the output sink
/// and (for translated access technologies in [`GatewayMode::Local`]) the
/// stateful gateways.
///
/// Local-mode gateways are instantiated per day — the price of day
/// independence (and thus day-level parallelism). This is an
/// *approximation*: bindings still held at midnight are dropped instead of
/// carrying into the next day, so for binding timeouts that are a
/// meaningful fraction of a day (the exhaustion experiments use 30–60
/// minutes) the pool pressure in the first timeout-window of each day is
/// understated and reported rejection rates are a lower bound. At the
/// default two-minute timeout the effect is negligible; the shared
/// cross-day pool is exactly what [`crate::provider`] adds.
struct DayRun<'a, S: FlowSink> {
    ctx: &'a ResidenceCtx<'a>,
    rng: SmallRng,
    router: RouterMonitor,
    sports: SportAlloc,
    mode: GatewayMode,
    nat64: Option<Nat64Gateway>,
    aftr: Option<Aftr>,
    faults: Option<DayFaults>,
    drops: DropCounters,
    sink: &'a mut S,
}

/// The fault plane's per-day machinery, built only for a non-empty plan
/// (rule 1 of the [`faults`] determinism contract: an empty plan draws
/// nothing). Flow-drop decisions come from a dedicated stream keyed by
/// `(residence, day)`, so they are layout-invariant like everything else.
struct DayFaults {
    rng: SmallRng,
    path: Vec<DayPathFault>,
}

impl DayFaults {
    /// Is this flow eaten by an injected path drop? At most one draw per
    /// matching degradation, in plan order.
    fn drops_flow(&mut self, family_v6: bool, day: u32, hour: u32) -> bool {
        let family = if family_v6 { Family::V6 } else { Family::V4 };
        for f in &self.path {
            if f.drop_rate > 0.0
                && f.family == family
                && f.window.covers(day, hour)
                && self.rng.gen::<f64>() < f.drop_rate
            {
                return true;
            }
        }
        false
    }
}

impl<S: FlowSink> DayRun<'_, S> {
    /// Classify, finalize and push one record to the sink (the streaming
    /// replacement for buffering in the router's flow table).
    fn emit(&mut self, key: FlowKey, start: u64, end: u64, bytes_orig: u64, bytes_reply: u64) {
        // The single logical emission point: day-buffered layouts replay
        // these records into the outer sink mechanically, so counting the
        // replay too would double-count and break layout invariance.
        obs::counter_add("synth.flows_emitted", 1);
        obs::hist_record("synth.flow_bytes", bytes_orig + bytes_reply);
        obs::hist_record("synth.flow_duration_ms", (end - start) / 1_000);
        let record = self
            .router
            .observe(key, start, end, bytes_orig, bytes_reply);
        self.sink.accept(&record);
    }

    /// Emit one external service flow of `bytes` total volume. Returns
    /// `false` when the flow was refused (gateway exhausted / no path).
    #[allow(clippy::too_many_arguments)]
    fn emit_external(
        &mut self,
        svc: &ClientServiceRuntime,
        family_v6: bool,
        bytes: u64,
        day: u32,
        hour: u32,
    ) -> bool {
        let tech = self.ctx.setup.profile.access_tech;
        let mode = self.mode;
        let nat64_prefix = self.ctx.world.transition.nat64_prefix;
        // Injected path drops decide *before* any synthesis-RNG draw, so a
        // dropped flow consumes nothing from the day stream and every
        // surviving flow's randomness is untouched by the fault plane.
        if let Some(faults) = self.faults.as_mut() {
            if faults.drops_flow(family_v6, day, hour) {
                self.drops.record(DropCause::PathLoss);
                return false;
            }
        }
        let rng = &mut self.rng;
        let devices = &self.ctx.setup.devices;
        let start = day as u64 * DAY_US + hour as u64 * HOUR_US + rng.gen_range(0..HOUR_US);
        let duration = match svc.service.kind {
            ServiceKind::Streaming | ServiceKind::LiveVideo => {
                rng.gen_range(600..3600) as u64 * 1_000_000
            }
            ServiceKind::VideoConf => rng.gen_range(900..5400) as u64 * 1_000_000,
            ServiceKind::Download => rng.gen_range(60..900) as u64 * 1_000_000,
            _ => rng.gen_range(1..120) as u64 * 1_000_000,
        };
        let sport = self.sports.alloc(start, start + duration);

        let (src, dst, src_v4) = if family_v6 {
            // Native IPv6 flow. On dual-stack/DS-Lite lines this needs a
            // device with working WAN IPv6; on an IPv6-only wire every
            // device is v6-provisioned by definition (the bucket can only
            // carry bytes there anyway — `dual_share` gates p_v6 on the
            // other techs), so any device serves and the loop below cannot
            // spin on an all-broken population.
            let device = if tech.v6_only_wire() {
                &devices[rng.gen_range(0..devices.len())]
            } else {
                loop {
                    let d = &devices[rng.gen_range(0..devices.len())];
                    if d.dual_stack {
                        break d;
                    }
                }
            };
            let dst = svc.v6[rng.gen_range(0..svc.v6.len())];
            (IpAddr::V6(device.v6), dst, Some(device.v4))
        } else {
            let device = &devices[rng.gen_range(0..devices.len())];
            let IpAddr::V4(dst4) = svc.v4[rng.gen_range(0..svc.v4.len())] else {
                unreachable!("service v4 pool holds IPv4 addresses");
            };
            match tech {
                AccessTech::Ipv6OnlyNat64 | AccessTech::Xlat464 => {
                    // Legacy traffic crosses the wire as IPv6 towards the
                    // RFC 6052 mapping of the true destination; each flow
                    // consumes a NAT64 binding (locally here, or at the
                    // shared provider during its replay).
                    let dst6 = match mode {
                        GatewayMode::Local => {
                            // A scheduled outage rejects before the pool is
                            // even consulted (pure window check, no RNG).
                            if self
                                .ctx
                                .config
                                .faults
                                .gateway_down(PoolTarget::Nat64, day, hour)
                            {
                                self.drops.record(DropCause::GatewayOutage);
                                return false;
                            }
                            let gw = self.nat64.as_mut().expect("v6-only line has a NAT64");
                            match gw.translate(dst4, start, start + duration) {
                                Ok(d) => d,
                                Err(_) => {
                                    // pool exhausted: flow dropped
                                    self.drops.record(DropCause::PoolExhausted);
                                    return false;
                                }
                            }
                        }
                        GatewayMode::Provider => nat64_prefix.embed(dst4),
                    };
                    (IpAddr::V6(device.v6), IpAddr::V6(dst6), None)
                }
                AccessTech::DsLite => {
                    // Inner IPv4 flow over the softwire; the AFTR's NAT44
                    // must grant a binding (unless an outage rejects first).
                    if mode == GatewayMode::Local {
                        if self
                            .ctx
                            .config
                            .faults
                            .gateway_down(PoolTarget::Aftr, day, hour)
                        {
                            self.drops.record(DropCause::GatewayOutage);
                            return false;
                        }
                        if self
                            .aftr
                            .as_mut()
                            .expect("DS-Lite line has an AFTR")
                            .admit(start, start + duration)
                            .is_err()
                        {
                            self.drops.record(DropCause::PoolExhausted);
                            return false;
                        }
                    }
                    (IpAddr::V4(device.v4), IpAddr::V4(dst4), None)
                }
                _ => (IpAddr::V4(device.v4), IpAddr::V4(dst4), None),
            }
        };

        let proto_udp = matches!(
            svc.service.kind,
            ServiceKind::VideoConf | ServiceKind::Gaming
        ) || self.rng.gen::<f64>() < 0.05;
        let key = if proto_udp {
            FlowKey::udp(src, sport, dst, 443)
        } else {
            FlowKey::tcp(src, sport, dst, 443)
        };
        // Download-heavy: most bytes flow from the server.
        self.emit(key, start, start + duration, bytes / 20, bytes);

        // Happy Eyeballs residue: on lines with an IPv4 socket (native or
        // DS-Lite) a winning IPv6 connection can leave the losing IPv4
        // attempt as a tiny flow.
        if family_v6
            && matches!(tech, AccessTech::NativeDualStack | AccessTech::DsLite)
            && self.rng.gen::<f64>() < self.ctx.config.he_both_flow_rate
        {
            let residue_ok = match tech {
                AccessTech::DsLite => match self.mode {
                    GatewayMode::Local => {
                        !self
                            .ctx
                            .config
                            .faults
                            .gateway_down(PoolTarget::Aftr, day, hour)
                            && self
                                .aftr
                                .as_mut()
                                .expect("DS-Lite line has an AFTR")
                                .admit(start, start + 2_000_000)
                                .is_ok()
                    }
                    GatewayMode::Provider => true,
                },
                _ => true,
            };
            if residue_ok {
                // The residue is the *same host's* losing IPv4 attempt, so
                // it must originate from the device that won over v6.
                let src4 = src_v4.expect("v6 emission recorded its device");
                let v4dst = svc.v4[self.rng.gen_range(0..svc.v4.len())];
                let k = FlowKey::tcp(
                    IpAddr::V4(src4),
                    self.sports.companion_port(start),
                    v4dst,
                    443,
                );
                self.emit(k, start, start + 2_000_000, 300, 300);
            }
        }
        true
    }
}

/// Synthesize one day of one residence into `sink`. Pure function of
/// `(config.seed, residence_index, day)` plus the world; returns the
/// day-local gateway counters when the technology and mode use one, plus
/// the day's fault-plane casualties (all-zero under an empty plan).
pub(crate) fn synthesize_day_into<S: FlowSink>(
    ctx: &ResidenceCtx<'_>,
    day: u32,
    mode: GatewayMode,
    sink: &mut S,
) -> (Option<GatewayStats>, DropCounters) {
    let _span = obs::span!("day", day = day);
    let config = ctx.config;
    let setup = ctx.setup;
    let profile = &setup.profile;
    let tech = profile.access_tech;
    let services = &ctx.world.client_services;
    let resolver = Resolver::new(&ctx.world.client_zone);
    let nat64_prefix = ctx.world.transition.nat64_prefix;
    let dns64 = Dns64::new(resolver, nat64_prefix);
    let he = HappyEyeballs::new(config.he);
    let plan = &config.faults;
    // Scheduled pool shrink: the day-local gateways are built with today's
    // effective capacity (restored automatically on uncovered days).
    let gateway_config = if plan.is_empty() {
        config.gateway
    } else {
        GatewayConfig {
            capacity: plan.pool_capacity(config.gateway.capacity, day),
            ..config.gateway
        }
    };

    obs::counter_add("synth.day_streams", 1);
    let mut rng = SmallRng::seed_from_u64(day_seed(config.seed, setup.residence_index, day));

    let mut router = RouterMonitor::new(vec![setup.lan4], vec![setup.lan6]);
    let mut xlat = TranslationMap::new();
    if tech.v6_only_wire() {
        xlat.add_nat64_prefix(nat64_prefix.prefix());
    }
    xlat.set_dslite_b4(tech == AccessTech::DsLite);
    router.set_translation_map(xlat);

    let weekday = day % 7;
    let absent = profile.absences.iter().any(|&(a, b)| day >= a && day <= b);

    // Per-day network health. On a v6-outage day a line whose IPv4 also
    // rides IPv6 (v6-only, DS-Lite) loses everything.
    let outage = rng.gen::<f64>() < profile.v6_outage_day_rate;
    let total_outage = outage && (tech.v6_only_wire() || tech == AccessTech::DsLite);
    let base_ms = 18 + rng.gen_range(0..20);
    let mut net = Network::dual_stack_ms(base_ms);
    match tech {
        AccessTech::NativeDualStack => {
            if profile.v6_tunnel {
                net.set_family_default(
                    Family::V6,
                    PathProfile {
                        rtt: (60 + rng.gen_range(0..30)) * MILLIS,
                        loss: 0.002,
                        reachable: true,
                    },
                );
            }
        }
        AccessTech::V4Only => net.set_family_default(Family::V6, PathProfile::unreachable()),
        AccessTech::Ipv6OnlyNat64 | AccessTech::Xlat464 => {
            // No IPv4 on the wire at all; translated destinations pay the
            // gateway detour.
            net.set_family_default(Family::V4, PathProfile::unreachable());
            net.set_prefix6(
                nat64_prefix.prefix(),
                PathProfile {
                    rtt: (base_ms + 8) * MILLIS,
                    loss: 0.0,
                    reachable: true,
                },
            );
        }
        AccessTech::DsLite => {
            // IPv4 rides the softwire: a couple of ms of AFTR detour.
            net.set_family_default(
                Family::V4,
                PathProfile {
                    rtt: (base_ms + 6) * MILLIS,
                    loss: 0.0,
                    reachable: true,
                },
            );
        }
    }
    if outage {
        net.set_family_default(Family::V6, PathProfile::unreachable());
        if total_outage {
            net.set_family_default(Family::V4, PathProfile::unreachable());
        }
    }

    // Scheduled path degradation: stack extra latency/loss onto today's
    // family default (the unspecified address reads it back — no prefix
    // route covers 0.0.0.0/::). Unreachable families stay unreachable;
    // windows narrower than the day still degrade the whole day's races,
    // matching the day-granular health model. Pure arithmetic, no RNG.
    if !plan.is_empty() {
        for f in plan.path_for_day(day) {
            let probe = match f.family {
                Family::V4 => IpAddr::V4(Ipv4Addr::UNSPECIFIED),
                Family::V6 => IpAddr::V6(Ipv6Addr::UNSPECIFIED),
            };
            let cur = net.path_to(probe);
            if cur.reachable && (f.extra_rtt_ms > 0 || f.loss > 0.0) {
                net.set_family_default(
                    f.family,
                    PathProfile {
                        rtt: cur.rtt + f.extra_rtt_ms * MILLIS,
                        loss: (cur.loss + f.loss).min(1.0),
                        reachable: true,
                    },
                );
            }
        }
    }

    // Injected DNS bursts wrap today's resolver (the DNS64 view on v6-only
    // wires, the plain stub elsewhere) for the health races. Built only
    // when bursts cover the day — rule 1 of the determinism contract: an
    // empty plan constructs nothing and draws nothing.
    let dns_bursts = if plan.is_empty() {
        Vec::new()
    } else {
        plan.dns_for_day(day)
    };
    let faulty: Option<FaultyResolver<&dyn ResolveAddrs>> = (!dns_bursts.is_empty()).then(|| {
        let inner: &dyn ResolveAddrs = if tech.v6_only_wire() {
            &dns64
        } else {
            &resolver
        };
        FaultyResolver::new(
            inner,
            dns_bursts,
            plan.stream(DNS_STREAM, setup.residence_index, day),
        )
    });
    let mut day_drops = DropCounters::default();

    // One Happy Eyeballs race per service per day decides whether IPv6 (or,
    // behind DNS64, the translated path) is usable towards that service.
    let v6_usable: Vec<bool> = services
        .iter()
        .map(|s| match tech {
            AccessTech::V4Only => false,
            AccessTech::Ipv6OnlyNat64 | AccessTech::Xlat464 => {
                if total_outage {
                    return false;
                }
                let fqdn = Name::new(&format!("edge0.{}", s.service.domain));
                let race = match &faulty {
                    Some(f) => he.connect(&net, f, &mut rng, &fqdn, 0),
                    None => he.connect(&net, &dns64, &mut rng, &fqdn, 0),
                };
                let usable = race.winning_family() == Some(Family::V6);
                if !usable && faulty.is_some() {
                    // On a v6-only wire a lost race blacks the service out
                    // for the day; under an active burst, attribute it.
                    day_drops.record(DropCause::DnsFailure);
                }
                usable
            }
            _ => {
                if s.v6.is_empty() {
                    return false;
                }
                let fqdn = Name::new(&format!("edge0.{}", s.service.domain));
                let race = match &faulty {
                    Some(f) => he.connect(&net, f, &mut rng, &fqdn, 0),
                    None => he.connect(&net, &resolver, &mut rng, &fqdn, 0),
                };
                race.winning_family() == Some(Family::V6)
            }
        })
        .collect();

    // Per-day service mix jitter (lognormal), plus event days.
    let mut day_weights: Vec<f64> = setup
        .base_weights
        .iter()
        .zip(services.iter())
        .map(|(w, s)| {
            let jitter = lognormal(&mut rng, 1.0, profile.day_mix_sigma);
            let absence_damp = if absent && s.service.kind.human_driven() {
                0.03
            } else {
                1.0
            };
            w * jitter * absence_damp
        })
        .collect();
    let mut day_gb = profile.daily_external_gb * lognormal(&mut rng, 1.0, 0.35);
    if absent {
        day_gb *= 0.25; // only background traffic remains
    }
    for ev in profile.events {
        if rng.gen::<f64>() < ev.probability {
            if let Some(idx) = services.iter().position(|s| s.service.key == ev.service) {
                let extra_gb = ev.gb_mean * lognormal(&mut rng, 1.0, 0.4);
                let wsum: f64 = day_weights.iter().sum();
                // Make the event service dominate the (enlarged) day.
                day_weights[idx] += wsum * (extra_gb / day_gb.max(0.01));
                day_gb += extra_gb;
            }
        }
    }
    let weight_sum: f64 = day_weights.iter().sum();

    let mut run = DayRun {
        ctx,
        rng,
        router,
        sports: SportAlloc::new(10_000, day as u64 * DAY_US),
        mode,
        nat64: (mode == GatewayMode::Local && tech.v6_only_wire())
            .then(|| Nat64Gateway::new(nat64_prefix, gateway_config)),
        aftr: (mode == GatewayMode::Local && tech == AccessTech::DsLite)
            .then(|| Aftr::new(gateway_config)),
        faults: (!plan.is_empty()).then(|| DayFaults {
            rng: plan.stream(FLOW_DROP_STREAM, setup.residence_index, day),
            path: plan.path_for_day(day),
        }),
        drops: day_drops,
        sink,
    };

    // Byte/flow-mass accumulators per (service, family bucket): hours whose
    // sampled flow expectation is below one record carry their bytes
    // forward within the day instead of dropping them (dropping would bias
    // fractions against big-flow services, which are disproportionately the
    // IPv6-heavy streamers). Flushed at day end so days stay independent.
    let mut pending_bytes = vec![[0.0f64; 2]; services.len()];
    let mut pending_flows = vec![[0.0f64; 2]; services.len()];

    for hour in 0..24u32 {
        for (si, svc) in services.iter().enumerate() {
            // A v6-only line with no usable path today drops the service's
            // traffic entirely (nothing can leave the residence).
            if tech.v6_only_wire() && !v6_usable[si] {
                continue;
            }
            if total_outage {
                continue;
            }
            let hour_w = if svc.service.kind.human_driven() {
                human_hour_weight(hour, weekday)
            } else {
                1.0
            };
            // Normalize the hour profile so a day's weights integrate
            // to ~1 across 24 hours (human weights sum to ~12.7).
            let hour_norm = if svc.service.kind.human_driven() {
                12.7
            } else {
                24.0
            };
            let svc_hour_bytes =
                day_gb * 1e9 * (day_weights[si] / weight_sum) * (hour_w / hour_norm);
            let mean_flow = svc.service.kind.mean_flow_bytes();
            // Deterministic byte split. On native/DS-Lite lines the IPv6
            // share of this hour's bytes is fixed by the service's
            // propensity, the residence factor, today's Happy Eyeballs
            // outcome and the dual-stack device share. On IPv6-only lines
            // everything leaves as IPv6 and the split is native-v6 vs
            // translated: traffic to services without native AAAA rides the
            // NAT64 (the "false" bucket), as does the CLAT literal share on
            // 464XLAT. Sampling only decides how many flow *records* carry
            // those bytes, so byte fractions stay tight even at aggressive
            // sampling scales.
            let p_v6 = match tech {
                AccessTech::V4Only => 0.0,
                AccessTech::Ipv6OnlyNat64 => {
                    if svc.v6.is_empty() {
                        0.0
                    } else {
                        1.0
                    }
                }
                AccessTech::Xlat464 => {
                    if svc.v6.is_empty() {
                        0.0
                    } else {
                        1.0 - CLAT_LITERAL_SHARE
                    }
                }
                _ => {
                    if v6_usable[si] {
                        (svc.service.v6_share * setup.residence_factor).min(0.98) * setup.dual_share
                    } else {
                        0.0
                    }
                }
            };
            for (family_v6, bytes_real) in [
                (true, svc_hour_bytes * p_v6),
                (false, svc_hour_bytes * (1.0 - p_v6)),
            ] {
                let fam = family_v6 as usize;
                pending_bytes[si][fam] += bytes_real * config.scale;
                pending_flows[si][fam] += (bytes_real / mean_flow) * config.scale;
                let n_rec = poisson(&mut run.rng, pending_flows[si][fam]);
                if n_rec == 0 {
                    continue;
                }
                let bytes_sampled = pending_bytes[si][fam];
                pending_bytes[si][fam] = 0.0;
                pending_flows[si][fam] = 0.0;
                // Distribute the hour's sampled bytes over the records
                // with lognormal weights (realistic sizes, exact total).
                let weights: Vec<f64> = (0..n_rec)
                    .map(|_| lognormal(&mut run.rng, 1.0, 0.9))
                    .collect();
                let wsum: f64 = weights.iter().sum();
                for w in weights {
                    let bytes = ((bytes_sampled * w / wsum).max(200.0)) as u64;
                    run.emit_external(svc, family_v6, bytes, day, hour);
                }
            }
        }

        // ICMP probes: CPE keepalives and user pings — the monitor
        // tracks ICMP by type/code/id exactly like conntrack (§3.1).
        if !total_outage {
            let n_icmp = poisson(&mut run.rng, 6.0 * config.scale.min(1.0) * 50.0);
            for _ in 0..n_icmp {
                let device = &setup.devices[run.rng.gen_range(0..setup.devices.len())];
                let svc = &services[run.rng.gen_range(0..services.len())];
                let use_v6 = match tech {
                    AccessTech::V4Only => false,
                    AccessTech::Ipv6OnlyNat64 | AccessTech::Xlat464 => true,
                    _ => device.dual_stack && !svc.v6.is_empty() && run.rng.gen::<f64>() < 0.5,
                };
                let start =
                    day as u64 * DAY_US + hour as u64 * HOUR_US + run.rng.gen_range(0..HOUR_US);
                let (src, dst) = if use_v6 {
                    let dst = if svc.v6.is_empty() {
                        // v6-only line pinging a v4-only service: the probe
                        // rides the translator like any other flow — an
                        // ICMP-ID binding, subject to the same pool.
                        let IpAddr::V4(d4) = svc.v4[run.rng.gen_range(0..svc.v4.len())] else {
                            unreachable!("service v4 pool holds IPv4 addresses");
                        };
                        match run.mode {
                            GatewayMode::Local => {
                                if run
                                    .ctx
                                    .config
                                    .faults
                                    .gateway_down(PoolTarget::Nat64, day, hour)
                                {
                                    run.drops.record(DropCause::GatewayOutage);
                                    continue;
                                }
                                let gw = run.nat64.as_mut().expect("v6-only line has a NAT64");
                                match gw.translate(d4, start, start + 1_000_000) {
                                    Ok(d6) => IpAddr::V6(d6),
                                    Err(_) => {
                                        // pool exhausted: probe lost
                                        run.drops.record(DropCause::PoolExhausted);
                                        continue;
                                    }
                                }
                            }
                            GatewayMode::Provider => IpAddr::V6(nat64_prefix.embed(d4)),
                        }
                    } else {
                        svc.v6[run.rng.gen_range(0..svc.v6.len())]
                    };
                    (IpAddr::V6(device.v6), dst)
                } else {
                    // DS-Lite: the tunneled v4 probe needs an AFTR binding
                    // like any other softwire flow.
                    if tech == AccessTech::DsLite && run.mode == GatewayMode::Local {
                        if run
                            .ctx
                            .config
                            .faults
                            .gateway_down(PoolTarget::Aftr, day, hour)
                        {
                            run.drops.record(DropCause::GatewayOutage);
                            continue;
                        }
                        let aftr = run.aftr.as_mut().expect("DS-Lite line has an AFTR");
                        if aftr.admit(start, start + 1_000_000).is_err() {
                            run.drops.record(DropCause::PoolExhausted);
                            continue;
                        }
                    }
                    (
                        IpAddr::V4(device.v4),
                        svc.v4[run.rng.gen_range(0..svc.v4.len())],
                    )
                };
                let key = FlowKey::icmp(
                    src,
                    dst,
                    flowmon::IcmpMeta {
                        icmp_type: 8,
                        icmp_code: 0,
                        icmp_id: run.rng.gen(),
                    },
                );
                run.emit(key, start, start + 1_000_000, 64 * 4, 64 * 4);
            }
        }

        // Internal traffic: many tiny discovery flows plus occasional
        // bulk transfers between devices. Link-local/ULA IPv6 works
        // whatever the access technology — which is why the paper finds
        // internal and external fractions uncorrelated.
        let int_bytes_hour =
            profile.daily_external_gb * 1e9 * profile.internal_byte_fraction / 24.0;
        // Mean internal flow ≈ 11 kB: mostly tiny discovery chatter with
        // 2% bulk transfers around 300 kB.
        let n_int = poisson(&mut run.rng, int_bytes_hour / 11_000.0 * config.scale);
        for _ in 0..n_int {
            let a = &setup.devices[run.rng.gen_range(0..setup.devices.len())];
            let b = &setup.devices[run.rng.gen_range(0..setup.devices.len())];
            let use_v6 = run.rng.gen::<f64>() < profile.internal_v6_share;
            let bulk = run.rng.gen::<f64>() < 0.02;
            let bytes = if bulk {
                lognormal(&mut run.rng, 300_000.0, 1.0) as u64
            } else {
                run.rng.gen_range(120..2_500)
            };
            let start = day as u64 * DAY_US + hour as u64 * HOUR_US + run.rng.gen_range(0..HOUR_US);
            let sport = run.sports.alloc(start, start + 1_000_000);
            let (src, dst) = if use_v6 {
                (IpAddr::V6(a.v6), IpAddr::V6(b.v6))
            } else {
                (IpAddr::V4(a.v4), IpAddr::V4(b.v4))
            };
            let key = FlowKey::udp(src, sport, dst, 5353);
            run.emit(key, start, start + 1_000_000, bytes, bytes / 4);
        }
    }

    // Day-end flush: days are independent, so residual byte mass cannot
    // carry over. An importance-weighted Bernoulli draw keeps the flush
    // unbiased in *both* moments the analyses read: the residue is emitted
    // with probability p = min(1, expected flows) and its bytes scaled by
    // 1/p, so E[flows] ≈ pending_flows and E[bytes] = pending_bytes
    // exactly — low-volume (service, family) buckets keep their long-run
    // byte share instead of losing it at every midnight.
    for (si, svc) in services.iter().enumerate() {
        for fam in 0..2 {
            let p = pending_flows[si][fam].min(1.0);
            if p > 0.0 && pending_bytes[si][fam] >= 1.0 && run.rng.gen::<f64>() < p {
                let bytes = (pending_bytes[si][fam] / p) as u64;
                run.emit_external(svc, fam == 1, bytes, day, 23);
            }
        }
    }

    let stats = run
        .nat64
        .as_ref()
        .map(|g| g.stats())
        .or_else(|| run.aftr.as_ref().map(|a| a.stats()));
    if let Some(s) = &stats {
        // Day-local gateways: one high-water sample per (residence, day) —
        // a pure function of the day's deterministic offer stream.
        obs::hist_record("gateway.pool_day_peak", s.peak_active as u64);
        obs::gauge_max("gateway.pool_peak_active", s.peak_active as u64);
    }
    (stats, run.drops)
}

pub(crate) struct Device {
    pub(crate) v4: Ipv4Addr,
    pub(crate) v6: Ipv6Addr,
    pub(crate) dual_stack: bool,
}

fn lognormal<R: Rng + ?Sized>(rng: &mut R, median: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    let n = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (median.ln() + sigma * n).exp()
}

fn poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    if mean > 50.0 {
        // Normal approximation for large means.
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen();
        let n = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        return (mean + mean.sqrt() * n).round().max(0.0) as usize;
    }
    let l = (-mean).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmon::Scope;
    use worldgen::WorldConfig;

    fn dataset() -> ResidenceDataset {
        let world = World::generate(&WorldConfig::small());
        let profiles = crate::profile::paper_residences();
        synthesize_residence(&world, profiles[0].clone(), &TrafficConfig::fast(), 0)
    }

    #[test]
    fn produces_flows_with_both_scopes_and_families() {
        let ds = dataset();
        assert!(ds.flows.len() > 1_000, "got {} flows", ds.flows.len());
        let ext = ds
            .flows
            .iter()
            .filter(|f| f.scope == Scope::External)
            .count();
        let int = ds
            .flows
            .iter()
            .filter(|f| f.scope == Scope::Internal)
            .count();
        assert!(ext > 0 && int > 0);
        let v6 = ds.flows.iter().filter(|f| f.family() == Family::V6).count();
        let v4 = ds.flows.iter().filter(|f| f.family() == Family::V4).count();
        assert!(v6 > 0 && v4 > 0);
        assert!(ds.gateway.is_none(), "dual-stack line uses no gateway");
    }

    #[test]
    fn external_v6_byte_fraction_near_target() {
        let ds = dataset();
        let (mut v6b, mut tot) = (0f64, 0f64);
        for f in ds.flows.iter().filter(|f| f.scope == Scope::External) {
            let b = f.total_bytes() as f64;
            tot += b;
            if f.family() == Family::V6 {
                v6b += b;
            }
        }
        let frac = v6b / tot;
        let target = ds.profile.target_ext_v6_bytes;
        assert!(
            (frac - target).abs() < 0.15,
            "v6 byte fraction {frac:.3} vs target {target:.3}"
        );
    }

    #[test]
    fn diurnal_pattern_present() {
        // Needs a dense sample: at very sparse scales the byte-conserving
        // carryover smears hours (bytes from a quiet hour ride the next
        // emitted flow).
        let world = World::generate(&WorldConfig::small());
        let profiles = crate::profile::paper_residences();
        let cfg = TrafficConfig {
            num_days: 14,
            scale: 1.0 / 100.0,
            ..TrafficConfig::fast()
        };
        let ds = synthesize_residence(&world, profiles[0].clone(), &cfg, 0);
        // External bytes by hour-of-day: evening must beat pre-dawn.
        let mut by_hour = [0u64; 24];
        for f in ds.flows.iter().filter(|f| f.scope == Scope::External) {
            let hour = (f.start % DAY_US) / HOUR_US;
            by_hour[hour as usize] += f.total_bytes();
        }
        let night: u64 = (1..=5).map(|h| by_hour[h]).sum();
        let evening: u64 = (19..=23).map(|h| by_hour[h]).sum();
        assert!(
            evening > night * 5 / 2,
            "evening {evening} vs night {night}"
        );
    }

    #[test]
    fn absence_days_dip() {
        let world = World::generate(&WorldConfig::small());
        let profiles = crate::profile::paper_residences();
        let cfg = TrafficConfig {
            num_days: 150,
            ..TrafficConfig::fast()
        };
        let ds = synthesize_residence(&world, profiles[0].clone(), &cfg, 0);
        let mut by_day = vec![0u64; 150];
        for f in ds.flows.iter().filter(|f| f.scope == Scope::External) {
            by_day[(f.start / DAY_US) as usize] += f.total_bytes();
        }
        let absent_avg: f64 = (135..=138).map(|d| by_day[d] as f64).sum::<f64>() / 4.0;
        let normal_avg: f64 = (100..130).map(|d| by_day[d] as f64).sum::<f64>() / 30.0;
        assert!(
            absent_avg < normal_avg * 0.6,
            "absence {absent_avg:.0} vs normal {normal_avg:.0}"
        );
    }

    #[test]
    fn he_residue_flows_exist() {
        let ds = dataset();
        // Tiny v4 TCP flows (~600 bytes total) are the HE losing attempts.
        let residue = ds
            .flows
            .iter()
            .filter(|f| {
                f.family() == Family::V4 && f.scope == Scope::External && f.total_bytes() == 600
            })
            .count();
        assert!(residue > 10, "expected HE residue flows, got {residue}");
    }

    #[test]
    fn deterministic() {
        let world = World::generate(&WorldConfig::small());
        let profiles = crate::profile::paper_residences();
        let a = synthesize_residence(&world, profiles[1].clone(), &TrafficConfig::fast(), 1);
        let b = synthesize_residence(&world, profiles[1].clone(), &TrafficConfig::fast(), 1);
        assert_eq!(a.flows.len(), b.flows.len());
        assert_eq!(a.flows.first(), b.flows.first());
        assert_eq!(a.flows.last(), b.flows.last());
    }

    #[test]
    fn synthesize_all_identical_at_any_thread_count() {
        let world = World::generate(&WorldConfig::small());
        let cfg = TrafficConfig {
            num_days: 20,
            ..TrafficConfig::fast()
        };
        let seq = synthesize_all(
            &world,
            &TrafficConfig {
                threads: 1,
                ..cfg.clone()
            },
        );
        let par = synthesize_all(
            &world,
            &TrafficConfig {
                threads: 4,
                ..cfg.clone()
            },
        );
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.profile.key, b.profile.key);
            assert_eq!(a.flows, b.flows, "residence {} differs", a.profile.key);
        }
    }

    #[test]
    fn residence_identical_at_any_day_thread_count() {
        let world = World::generate(&WorldConfig::small());
        let profiles = crate::profile::paper_residences();
        let cfg = TrafficConfig {
            num_days: 20,
            ..TrafficConfig::fast()
        };
        let seq = synthesize_residence(
            &world,
            profiles[0].clone(),
            &TrafficConfig {
                day_threads: 1,
                ..cfg.clone()
            },
            0,
        );
        let par = synthesize_residence(
            &world,
            profiles[0].clone(),
            &TrafficConfig {
                day_threads: 5,
                ..cfg.clone()
            },
            0,
        );
        assert_eq!(seq.flows, par.flows, "day-parallel output differs");
        // And a translated residence (gateway state is per-day, so its
        // stats must agree too).
        let cohort = crate::profile::transition_residences();
        let nat64 = cohort
            .iter()
            .find(|p| p.access_tech == AccessTech::Ipv6OnlyNat64)
            .unwrap();
        let s1 = synthesize_residence(
            &world,
            nat64.clone(),
            &TrafficConfig {
                day_threads: 1,
                ..cfg.clone()
            },
            2,
        );
        let s4 = synthesize_residence(
            &world,
            nat64.clone(),
            &TrafficConfig {
                day_threads: 4,
                ..cfg.clone()
            },
            2,
        );
        assert_eq!(s1.flows, s4.flows);
        let (g1, g4) = (s1.gateway.unwrap(), s4.gateway.unwrap());
        assert_eq!(g1.granted, g4.granted);
        assert_eq!(g1.rejected, g4.rejected);
        assert_eq!(g1.peak_active, g4.peak_active);
    }

    #[test]
    fn v6only_line_emits_only_v6_external_flows() {
        let world = World::generate(&WorldConfig::small());
        let cohort = crate::profile::transition_residences();
        let nat64 = cohort
            .iter()
            .find(|p| p.access_tech == AccessTech::Ipv6OnlyNat64)
            .unwrap();
        let ds = synthesize_residence(&world, nat64.clone(), &TrafficConfig::fast(), 2);
        let prefix = world.transition.nat64_prefix;
        let mut translated = 0usize;
        let mut native = 0usize;
        for f in ds.flows.iter().filter(|f| f.scope == Scope::External) {
            assert_eq!(
                f.family(),
                Family::V6,
                "nothing leaves a v6-only line as IPv4: {:?}",
                f.key
            );
            match f.key.dst {
                IpAddr::V6(d) if prefix.contains(d) => translated += 1,
                _ => native += 1,
            }
        }
        assert!(translated > 0, "v4-only services must ride the NAT64");
        assert!(native > 0, "dual-stack services stay native");
        let gw = ds.gateway.expect("NAT64 line reports gateway stats");
        assert_eq!(
            gw.granted, translated as u64,
            "every translated flow — TCP, UDP and ICMP alike — holds a binding"
        );
    }

    #[test]
    fn dslite_line_keeps_v4_flows_and_uses_aftr() {
        let world = World::generate(&WorldConfig::small());
        let cohort = crate::profile::transition_residences();
        let dslite = cohort
            .iter()
            .find(|p| p.access_tech == AccessTech::DsLite)
            .unwrap();
        let ds = synthesize_residence(&world, dslite.clone(), &TrafficConfig::fast(), 4);
        let ext_v4 = ds
            .flows
            .iter()
            .filter(|f| f.scope == Scope::External && f.family() == Family::V4)
            .count();
        assert!(ext_v4 > 0, "tunneled IPv4 still appears as IPv4 flows");
        let gw = ds.gateway.expect("AFTR stats present");
        assert!(gw.granted > 0);
    }

    #[test]
    fn nat64_pool_exhaustion_rejects_flows() {
        let world = World::generate(&WorldConfig::small());
        let cohort = crate::profile::transition_residences();
        let nat64 = cohort
            .iter()
            .find(|p| p.access_tech == AccessTech::Ipv6OnlyNat64)
            .unwrap();
        let tiny_pool = TrafficConfig {
            num_days: 20,
            gateway: GatewayConfig {
                capacity: 2,
                binding_timeout: 3_600_000_000, // one hour: bindings pile up
            },
            ..TrafficConfig::fast()
        };
        let ds = synthesize_residence(&world, nat64.clone(), &tiny_pool, 2);
        let gw = ds.gateway.expect("gateway stats");
        assert!(gw.rejected > 0, "a 2-binding pool must exhaust");
        assert_eq!(gw.peak_active, 2);
        let roomy = TrafficConfig {
            num_days: 20,
            ..TrafficConfig::fast()
        };
        let ok = synthesize_residence(&world, nat64.clone(), &roomy, 2)
            .gateway
            .expect("gateway stats");
        assert!(
            ok.rejection_rate() < gw.rejection_rate(),
            "default pool rejects less than the tiny pool"
        );
    }

    #[test]
    fn large_residence_indices_get_distinct_lans() {
        // ISP-scale cohorts pass the 255-residence boundary of the
        // historical 192.168.<idx> scheme; the spill plan must keep
        // producing valid, mutually distinct LANs (regression: index 255+
        // used to panic on an unparseable prefix).
        let world = World::generate(&WorldConfig::small());
        let profile = crate::profile::isp_cohort(1).remove(0);
        let cfg = TrafficConfig {
            num_days: 3,
            scale: 1.0 / 100.0, // dense enough that internal flows appear
            ..TrafficConfig::fast()
        };
        let mut lans = std::collections::BTreeSet::new();
        for idx in [0u64, 254, 255, 256, 511, 4_000] {
            let setup = ResidenceSetup::build(&world, &cfg, profile.clone(), idx);
            assert!(
                lans.insert((setup.lan4.to_string(), setup.lan6.to_string())),
                "index {idx} reuses a LAN"
            );
        }
        // And a past-the-boundary residence synthesizes end to end with
        // internal (LAN↔LAN) traffic still scoped correctly.
        let ds = synthesize_residence(&world, profile, &cfg, 300);
        assert!(ds.flows.iter().any(|f| f.scope == Scope::Internal));
        assert!(ds.flows.iter().any(|f| f.scope == Scope::External));
    }

    #[test]
    fn sport_alloc_skips_ports_held_across_a_wrap() {
        // Regression: the historical cursor reissued a port after one lap
        // of the 1024..=65535 ring even when the earlier flow on that port
        // was still alive, merging two distinct flows' 5-tuples.
        let ring = 65_535 - 1_024 + 1; // 64 512 ports
        let mut a = SportAlloc::new(10_000, 0);
        // A long-lived flow holds the first issued port for two hours.
        let first = a.alloc(0, 2 * HOUR_US);
        assert_eq!(first, 10_001, "cursor sequence must match the old seed");
        // 64 511 short flows lap the rest of the ring.
        let mut seen = std::collections::BTreeSet::new();
        seen.insert(first);
        for i in 0..(ring - 1) as u64 {
            let start = 10_000_000 + i;
            let p = a.alloc(start, start + 1);
            assert!(p >= 1_024);
            assert!(seen.insert(p), "port {p} reissued within the first lap");
        }
        // The wrap: the next allocation lands while `first`'s flow is still
        // alive — it must skip 10_001 (the old allocator reissued it).
        let p = a.alloc(HOUR_US, HOUR_US + 1);
        assert_ne!(p, first, "in-use port reissued after wrap");
        assert_eq!(p, 10_002, "first *free* port after the held one");
        // Once the long flow has ended its port is reusable again.
        let mut b = SportAlloc::new(10_000, 0);
        b.alloc(0, 1); // short flow on 10_001
        for i in 0..(ring - 1) as u64 {
            b.alloc(10_000_000 + i, 10_000_000 + i + 1);
        }
        assert_eq!(b.alloc(3 * HOUR_US, 3 * HOUR_US + 1), 10_001);
    }

    #[test]
    fn companion_port_keeps_offset_but_skips_live_holders() {
        let mut a = SportAlloc::new(10_000, 0);
        let sport = a.alloc(0, 1_000_000);
        // First lap, nothing ahead of the cursor is busy: the historical
        // `sport + 7` offset is preserved exactly.
        assert_eq!(a.companion_port(0), sport + 7);
        // Simulate the post-lap state the fix targets: the offset port is
        // still held by a long-lived flow from the previous lap. The
        // companion must skip past it instead of sharing the 5-tuple.
        a.busy_until[(sport + 7) as usize] = (3 * HOUR_US / SPORT_TICK_US + 1) as u16;
        let companion = a.companion_port(2 * HOUR_US);
        assert_ne!(companion, sport + 7, "companion shared a live port");
        assert_eq!(companion, sport + 8, "first free port past the holder");
        // Once the holder's flow has ended, the offset is reusable.
        assert_eq!(a.companion_port(4 * HOUR_US), sport + 7);
    }

    #[test]
    fn sport_alloc_first_lap_matches_historical_cursor() {
        // Byte-identity guarantee: before any wrap the sequence is exactly
        // the old `wrapping_add(1).max(1024)` cursor.
        let mut a = SportAlloc::new(10_000, 0);
        let mut old = 10_000u16;
        for i in 0..60_000u64 {
            old = old.wrapping_add(1).max(1024);
            assert_eq!(a.alloc(i, i + 1), old);
        }
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_no_plan() {
        // Rule 1 of the faults determinism contract: a seeded-but-empty
        // plan perturbs nothing, at every day-thread layout.
        let world = World::generate(&WorldConfig::small());
        let cohort = crate::profile::transition_residences();
        let nat64 = cohort
            .iter()
            .find(|p| p.access_tech == AccessTech::Ipv6OnlyNat64)
            .unwrap();
        let base_cfg = TrafficConfig {
            num_days: 12,
            ..TrafficConfig::fast()
        };
        let base = synthesize_residence(&world, nat64.clone(), &base_cfg, 2);
        for day_threads in [1usize, 4] {
            let cfg = TrafficConfig {
                faults: faults::FaultPlan::new(0xdead_beef),
                day_threads,
                ..base_cfg.clone()
            };
            let ds = synthesize_residence(&world, nat64.clone(), &cfg, 2);
            assert_eq!(
                ds.flows, base.flows,
                "empty plan perturbed output at day_threads={day_threads}"
            );
            assert!(ds.drops.is_empty(), "empty plan cannot drop flows");
        }
    }

    fn stress_plan() -> faults::FaultPlan {
        use faults::{DnsFailure, Window};
        faults::FaultPlan::new(0xfa17)
            .dns_burst(DnsFailure::ServFail, 0.7, Window::days(2, 4))
            .gateway_outage(PoolTarget::Both, Window::new(5, 6, 8, 20))
            .pool_shrink(0.05, Window::days(7, 8))
            .path_degrade(Family::V6, 80, 0.2, 0.3, Window::days(9, 11))
    }

    #[test]
    fn fault_plan_output_is_layout_invariant_and_differs_from_clean() {
        // Rules 2–3: a scheduled plan changes what it schedules, from
        // dedicated streams, identically at every layout.
        let world = World::generate(&WorldConfig::small());
        let cohort = crate::profile::transition_residences();
        let nat64 = cohort
            .iter()
            .find(|p| p.access_tech == AccessTech::Ipv6OnlyNat64)
            .unwrap();
        let cfg = |day_threads: usize| TrafficConfig {
            num_days: 14,
            faults: stress_plan(),
            day_threads,
            ..TrafficConfig::fast()
        };
        let a = synthesize_residence(&world, nat64.clone(), &cfg(1), 2);
        let b = synthesize_residence(&world, nat64.clone(), &cfg(5), 2);
        assert_eq!(a.flows, b.flows, "faulted output differs across layouts");
        assert_eq!(a.drops, b.drops);
        assert!(
            a.drops.get(DropCause::GatewayOutage) > 0,
            "outage window must reject flows: {:?}",
            a.drops
        );
        assert!(
            a.drops.get(DropCause::PathLoss) > 0,
            "drop_rate must eat established flows: {:?}",
            a.drops
        );
        assert!(
            a.drops.get(DropCause::DnsFailure) > 0,
            "a 70% SERVFAIL burst must lose some races: {:?}",
            a.drops
        );
        let clean = synthesize_residence(
            &world,
            nat64.clone(),
            &TrafficConfig {
                num_days: 14,
                ..TrafficConfig::fast()
            },
            2,
        );
        assert_ne!(a.flows, clean.flows, "the stress plan must leave a mark");
    }

    #[test]
    fn pool_shrink_days_reject_more_than_clean_days() {
        let world = World::generate(&WorldConfig::small());
        let cohort = crate::profile::transition_residences();
        let nat64 = cohort
            .iter()
            .find(|p| p.access_tech == AccessTech::Ipv6OnlyNat64)
            .unwrap();
        let cfg = TrafficConfig {
            num_days: 20,
            gateway: GatewayConfig {
                capacity: 40,
                binding_timeout: 3_600_000_000, // one hour: bindings pile up
            },
            faults: faults::FaultPlan::new(1).pool_shrink(0.05, faults::Window::days(5, 15)),
            ..TrafficConfig::fast()
        };
        let shrunk = synthesize_residence(&world, nat64.clone(), &cfg, 2);
        let clean = synthesize_residence(
            &world,
            nat64.clone(),
            &TrafficConfig {
                faults: faults::FaultPlan::default(),
                ..cfg.clone()
            },
            2,
        );
        let (gs, gc) = (shrunk.gateway.unwrap(), clean.gateway.unwrap());
        assert!(
            gs.rejected > gc.rejected,
            "a 2-binding shrink window must out-reject the 40-binding pool ({} vs {})",
            gs.rejected,
            gc.rejected
        );
        assert!(shrunk.drops.get(DropCause::PoolExhausted) > 0);
    }

    #[test]
    fn streaming_collect_sink_matches_materialized() {
        let world = World::generate(&WorldConfig::small());
        let profiles = crate::profile::paper_residences();
        let cfg = TrafficConfig {
            num_days: 15,
            ..TrafficConfig::fast()
        };
        let ds = synthesize_residence(&world, profiles[2].clone(), &cfg, 2);
        let mut sink = CollectSink::new();
        let summary = synthesize_residence_into(&world, profiles[2].clone(), &cfg, 2, &mut sink);
        assert_eq!(sink.records, ds.flows);
        assert_eq!(summary.num_days, ds.num_days);
        assert_eq!(summary.profile.key, ds.profile.key);
    }

    #[test]
    fn streaming_aggregates_match_recomputed() {
        use flowmon::sink::{drain_into, ScopeFamilyAgg};
        let world = World::generate(&WorldConfig::small());
        let profiles = crate::profile::paper_residences();
        let cfg = TrafficConfig {
            num_days: 12,
            ..TrafficConfig::fast()
        };
        let mut streamed = ScopeFamilyAgg::new(cfg.num_days);
        synthesize_residence_into(&world, profiles[0].clone(), &cfg, 0, &mut streamed);
        let ds = synthesize_residence(&world, profiles[0].clone(), &cfg, 0);
        let mut recomputed = ScopeFamilyAgg::new(cfg.num_days);
        drain_into(&ds.flows, &mut recomputed);
        assert_eq!(streamed, recomputed);
        assert!(streamed.overall(Scope::External).total_flows() > 0);
    }
}
