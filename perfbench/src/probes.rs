//! The traced run.
//!
//! One pass of the workload runs with the `obs` plane on. The benchmark
//! times every call it makes into the library: `Session::new`, the session
//! caches it fills before the scenarios read them (the crawl on the server
//! path, the streaming and hourly passes on the client path), and each
//! scenario. Those calls partition the pass, so what they leave of the
//! traced wall is unattributed time.
//!
//! After the pass, the counters the `obs` plane kept are read, and the
//! layers' public functions are called directly on the same session, each
//! timed on its own. These probes say what the coarse calls spend inside a
//! layer; they run outside the traced wall, so they do not count towards
//! it. A layer the workload does not exercise is not probed and reports
//! nothing.

use crate::json::Obj;
use crate::{peak_rss_kib, run_scenario, scenarios_json, ScenarioRun, Workload};
use ipv6view::bgpsim::{Registry, Rib};
use ipv6view::core::classify::ClassCounts;
use ipv6view::core::client::{daily_fraction_series, AsAgg, Metric};
use ipv6view::core::cloud::{default_groups, hosted_fqdns, pairwise_comparison};
use ipv6view::core::influence::{InfluenceReport, TypeHeatmap};
use ipv6view::core::seasonal;
use ipv6view::dnssim::ZoneDb;
use ipv6view::experiments::transition_exps::cgn_sweep_rows;
use ipv6view::experiments::{RunConfig, Session};
use ipv6view::flowmon::sink::NullSink;
use ipv6view::flowstore::{DigestSink, PartSet, SpillSink};
use ipv6view::obs::MetricsReport;
use ipv6view::trafficgen::{
    paper_residences, synthesize_long_tail_into, synthesize_profiles_with,
    synthesize_subscribers_into, LongTailTrafficConfig, SubscriberTrafficConfig, TrafficConfig,
};
use ipv6view::webmodel::namegen::NameGenerator;
use ipv6view::worldgen::clientsvc::register_client_services;
use ipv6view::worldgen::longtail::register_long_tail;
use ipv6view::worldgen::web::generate_web;
use ipv6view::worldgen::{Calibration, CloudRuntime, World, WorldConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Named measurements in insertion order.
#[derive(Default)]
struct Table(Vec<(String, f64)>);

impl Table {
    fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    /// Run `f`, record its wall time under `name`, return its result.
    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        self.put(name, t0.elapsed().as_secs_f64());
        out
    }

    fn json(&self) -> String {
        let mut o = Obj::new();
        for (name, value) in &self.0 {
            o.num(name, *value);
        }
        o.finish()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub fn trace(workload: Workload, config: RunConfig, scratch: &Path) -> String {
    let config = config.metrics(true);
    let mut top = Table::default();

    let t0 = Instant::now();
    let mut session = top.time("worldgen.generate_s", || Session::new(config));
    if workload.is_server() {
        top.time("crawlsim.crawl_s", || {
            session.latest_crawl();
        });
    } else {
        top.time("experiments.streamed_s", || {
            session.streamed();
        });
        top.time("experiments.hourly_s", || {
            session.hourly_aggs();
        });
    }
    let runs: Vec<ScenarioRun> = workload
        .scenarios()
        .iter()
        .map(|name| run_scenario(&mut session, name))
        .collect();
    let wall_s = t0.elapsed().as_secs_f64();
    for run in &runs {
        top.put(&format!("experiments.{}_s", run.name), run.secs);
    }
    let metrics = session.metrics();
    ipv6view::obs::set_enabled(false);

    let mut counts = counts(workload, &session, &metrics, &runs);
    let mut probes = Table::default();
    probes.put("iputil.freeze_s", span_secs(&metrics, "lpm-compile"));
    if workload.is_server() {
        server_probes(&mut session, &mut probes);
    } else {
        let spill_dir = match workload {
            Workload::ClientSpill => Some(scratch.join("probe-spill")),
            _ => None,
        };
        client_probes(&mut session, &mut probes, &mut counts, spill_dir);
    }

    let mut o = Obj::new();
    o.num("wall_s", wall_s)
        .raw("top", &top.json())
        .raw("probes", &probes.json())
        .raw("counts", &counts.json())
        .int("peak_rss_kib", peak_rss_kib())
        .raw("scenarios", &scenarios_json(&runs));
    o.finish()
}

/// Total seconds of every span whose path ends in `name`.
fn span_secs(metrics: &MetricsReport, name: &str) -> f64 {
    let ns: u64 = metrics
        .spans
        .iter()
        .filter(|s| s.path == name || s.path.ends_with(&format!("/{name}")))
        .map(|s| s.total_ns)
        .sum();
    ns as f64 / 1e9
}

/// Counts and ratios the traced pass left in the `obs` plane and session.
fn counts(
    workload: Workload,
    session: &Session,
    metrics: &MetricsReport,
    runs: &[ScenarioRun],
) -> Table {
    let c = |name: &str| metrics.counter(name).unwrap_or(0);
    let mut t = Table::default();
    let world = &session.world;
    t.put(
        "worldgen.zone_names",
        world.zone(world.latest_epoch()).name_count() as f64,
    );
    let (sites, failed) = if workload.is_server() {
        let crawl = session.crawl_ref(world.latest_epoch());
        let failed = crawl.sites.iter().filter(|s| s.outcome.is_err()).count();
        (crawl.sites.len() as u64, failed as u64)
    } else {
        (0, 0)
    };
    t.put("crawlsim.sites", sites as f64);
    t.put("crawlsim.failed_share", ratio(failed, sites));
    t.put("dnssim.queries", c("dns.queries") as f64);
    t.put("happyeyeballs.races", c("he.races") as f64);
    t.put(
        "happyeyeballs.v4_win_share",
        ratio(c("he.v4_wins"), c("he.races")),
    );
    let bulk: u64 = runs.iter().filter_map(|r| r.flows).sum();
    t.put("trafficgen.flows", (c("synth.flows_emitted") + bulk) as f64);
    t.put("iputil.frozen_lookups", c("lpm.frozen_lookups") as f64);
    t.put(
        "iputil.memo_hit_ratio",
        ratio(c("lpm.memo_hits"), c("lpm.frozen_lookups")),
    );
    t.put(
        "iputil.frozen_bytes",
        metrics.gauge("lpm.frozen_bytes").unwrap_or(0) as f64,
    );
    t.put("transition.gateway_offers", c("gateway.offers") as f64);
    t.put(
        "transition.rejected_share",
        ratio(
            c("gateway.rejected") + c("gateway.rejected_outage"),
            c("gateway.offers"),
        ),
    );
    t.put("flowstore.parts", c("flowstore.parts_sealed") as f64);
    t.put(
        "flowstore.bytes_written",
        c("flowstore.bytes_stored") as f64,
    );
    t.put(
        "flowstore.bytes_per_row",
        ratio(c("flowstore.bytes_stored"), c("flowstore.rows_sealed")),
    );
    t
}

/// Time world generation's public builders one by one, in the order
/// `World::generate` calls them, plus each long tail the workload registers.
fn worldgen_probes(probes: &mut Table, seed: u64, sites: usize, tails: &[usize]) {
    let cal = Calibration::default();
    let mut registry = Registry::new();
    let mut rib = Rib::new();
    let mut clouds = probes.time("worldgen.clouds_s", || {
        CloudRuntime::build(
            &mut registry,
            &mut rib,
            "24.0.0.0/6".parse().expect("static prefix"),
            "2600::/13".parse().expect("static prefix"),
            cal.top_cloud_share,
            cal.service_cname_rate,
        )
    });
    probes.time("worldgen.clientsvc_s", || {
        register_client_services(
            &mut registry,
            &mut rib,
            &mut ZoneDb::new(),
            "100.64.0.0/10".parse().expect("static prefix"),
            "2a00::/16".parse().expect("static prefix"),
        )
    });
    let t0 = Instant::now();
    for &count in tails {
        std::hint::black_box(register_long_tail(
            &mut Registry::new(),
            &mut Rib::new(),
            seed,
            count,
        ));
    }
    probes.put("worldgen.longtail_s", t0.elapsed().as_secs_f64());
    probes.time("worldgen.web_s", || {
        let mut rng = SmallRng::seed_from_u64(seed);
        generate_web(
            &mut rng,
            &cal,
            sites,
            3,
            &mut NameGenerator::new(),
            &mut clouds,
        )
    });
}

fn server_probes(session: &mut Session, probes: &mut Table) {
    let (seed, sites) = (session.config.seed, session.config.sites);
    worldgen_probes(probes, seed, sites, &[]);
    let epoch = session.world.latest_epoch();
    session.crawl(epoch);
    let world = &session.world;
    let crawl = session.crawl_ref(epoch);
    let hosted = probes.time("core.hosted_fqdns_s", || {
        hosted_fqdns(crawl, &world.rib, &world.registry)
    });
    probes.time("core.influence_s", || {
        InfluenceReport::compute(crawl, &world.psl)
    });
    probes.time("core.pairwise_s", || {
        pairwise_comparison(&hosted, &world.psl, &default_groups(), 2)
    });
    probes.time("core.heatmap_s", || {
        TypeHeatmap::compute(crawl, &world.psl, 20)
    });
    probes.time("core.class_counts_s", || ClassCounts::from_report(crawl));
}

/// Inputs of the `as-fractions` scenario at this session's scale.
fn long_tail_inputs(session: &Session) -> (WorldConfig, LongTailTrafficConfig) {
    let (seed, ases) = (session.config.seed, session.config.sites);
    let world = WorldConfig {
        seed,
        num_sites: 200,
        ..WorldConfig::small()
    }
    .with_long_tail(ases);
    let traffic = LongTailTrafficConfig {
        seed: seed ^ 0x6173_6672_6163,
        num_days: session.config.days.min(30),
        flows_per_day: (ases * 10).clamp(20_000, 600_000),
        threads: session.config.threads.unwrap_or(1),
    };
    (world, traffic)
}

/// Inputs of the `million-subs` scenario at this session's scale.
fn subscriber_inputs(session: &Session) -> (WorldConfig, SubscriberTrafficConfig) {
    let seed = session.config.seed;
    let subscribers = session.config.sites * 50;
    let world = WorldConfig {
        seed,
        num_sites: 200,
        ..WorldConfig::small()
    }
    .with_long_tail((subscribers / 100).clamp(1_000, 10_000))
    .with_subscribers(subscribers);
    let traffic = SubscriberTrafficConfig {
        seed: seed ^ 0x6d69_6c73_7562,
        num_days: session.config.days.min(5),
        threads: session.config.threads.unwrap_or(1),
        ..SubscriberTrafficConfig::default()
    };
    (world, traffic)
}

fn client_probes(
    session: &mut Session,
    probes: &mut Table,
    counts: &mut Table,
    spill_dir: Option<PathBuf>,
) {
    // The pass filled these caches; MSTL reads them.
    let hourly_aggs = session.hourly_aggs().to_vec();
    let analyses = session.client_analyses().to_vec();
    let session = &*session;
    let world = &session.world;
    let (tail_world_cfg, tail_cfg) = long_tail_inputs(session);
    let (subs_world_cfg, subs_cfg) = subscriber_inputs(session);
    worldgen_probes(
        probes,
        session.config.seed,
        session.config.sites,
        &[tail_world_cfg.long_tail_ases, subs_world_cfg.long_tail_ases],
    );

    // Synthesis alone: every stream into a counting sink.
    let base = session.traffic_config();
    probes.time("trafficgen.residences_s", || {
        synthesize_profiles_with(world, paper_residences(), &base, |_, _| NullSink::default())
    });
    let hourly = TrafficConfig {
        num_days: session.config.days.min(63),
        scale: 1.0 / 20.0,
        ..base.clone()
    };
    probes.time("trafficgen.hourly_s", || {
        synthesize_profiles_with(world, paper_residences(), &hourly, |_, _| {
            NullSink::default()
        })
    });
    probes.time("trafficgen.isp_s", || {
        cgn_sweep_rows(
            session,
            12,
            session.config.days.min(12),
            &[32, 64, 128, 256, 512],
        )
    });

    // The long-tail stream: synthesis alone, then into the per-AS
    // aggregator; the difference is attribution.
    let tail_world = World::generate(&tail_world_cfg);
    let longtail_s = probes.time("trafficgen.longtail_s", || {
        let t0 = Instant::now();
        synthesize_long_tail_into(&tail_world, &tail_cfg, &mut NullSink::default());
        t0.elapsed().as_secs_f64()
    });
    let agg_s = {
        let t0 = Instant::now();
        let mut agg = AsAgg::new(&tail_world.rib, &tail_world.registry);
        synthesize_long_tail_into(&tail_world, &tail_cfg, &mut agg);
        std::hint::black_box(agg.observed_as_count());
        t0.elapsed().as_secs_f64()
    };
    probes.put("core.as_agg_s", agg_s - longtail_s);

    let subs_world = World::generate(&subs_world_cfg);
    probes.time("trafficgen.subs_s", || {
        let mut sink = NullSink::default();
        synthesize_subscribers_into(&subs_world, &subs_cfg, &mut sink);
        sink
    });
    drop(subs_world);

    probes.time("mstl.decompose_s", || {
        let mut fits = 0usize;
        if let Some((_, agg)) = hourly_aggs.iter().find(|(k, _)| *k == 'A') {
            for metric in [Metric::Bytes, Metric::Flows] {
                fits += usize::from(seasonal::decompose_hourly(&agg.series(metric)).is_ok());
            }
        }
        for key in ['B', 'C'] {
            if let Some(a) = analyses.iter().find(|a| a.key == key) {
                fits += usize::from(seasonal::decompose_daily(&daily_fraction_series(a)).is_ok());
            }
        }
        fits
    });

    if let Some(dir) = spill_dir {
        flowstore_probes(probes, counts, &tail_world, &tail_cfg, longtail_s, &dir);
    }
}

/// Spill the long-tail stream to sealed day-parts and replay them into a
/// digest: write cost is the tee's time beyond synthesis alone.
fn flowstore_probes(
    probes: &mut Table,
    counts: &mut Table,
    world: &World,
    cfg: &LongTailTrafficConfig,
    synth_s: f64,
    dir: &Path,
) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("clearing the probe spill directory");
    }
    let t0 = Instant::now();
    let mut spill = SpillSink::new(dir, 0).expect("opening the probe spill sink");
    let mut live = DigestSink::new();
    synthesize_long_tail_into(world, cfg, &mut (&mut live, &mut spill));
    let metas = spill.finish().expect("sealing probe spill parts");
    probes.put("flowstore.write_s", t0.elapsed().as_secs_f64() - synth_s);
    let mut replayed = DigestSink::new();
    let stats = probes.time("flowstore.replay_s", || {
        PartSet::from_metas(metas).replay_into(&mut replayed)
    });
    let ok = stats.is_ok() && replayed.digest() == live.digest();
    counts.put("flowstore.probe_replay_ok", f64::from(u8::from(ok)));
    std::fs::remove_dir_all(dir).expect("removing the probe spill directory");
}
