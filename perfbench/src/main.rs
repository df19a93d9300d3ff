//! Worker of the end-to-end benchmark (`perfbench/run.py` drives it).
//!
//! Each invocation runs one piece of one workload in this process and prints
//! a single JSON object on stdout, so every measured run is its own process
//! and its peak resident set is its own:
//!
//! ```text
//! perfbench pass  <workload> <seed> <threads> <scratch-dir>   untraced end-to-end pass
//! perfbench setup <workload> <seed> <threads> <scratch-dir> <count>
//!                                                             `Session::new`, <count> times
//! perfbench trace <workload> <seed> <threads> <scratch-dir>   traced pass + layer probes
//! ```
//!
//! A pass runs from `Session::new` to the last scenario report serialized.
//! Every report is digested (FNV-1a over its JSON); a scenario that panics
//! or reports under the wrong name is counted as failed, never aborts the
//! pass. The traced pass enables the `obs` plane, times each call the
//! benchmark makes into the library, and then times the layers' public
//! functions directly (see `probes.rs`); it adds no instrumentation inside
//! the program. Untraced passes and setup samples run a machine-speed
//! sensor beside them (see `speed.rs`) and report its probe rate.

#![forbid(unsafe_code)]

mod json;
mod probes;
mod speed;

use ipv6view::experiments::{find, RunConfig, Session};
use json::Obj;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The paper's server and cloud path, crawled once at full scale.
const SERVER_SCENARIOS: &[&str] = &[
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig18",
    "table2",
    "table3",
    "ablation-firstparty",
    "ablation-policy",
];

/// Every flow-derived client scenario (no crawl).
const CLIENT_SCENARIOS: &[&str] = &[
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "transition",
    "nat64-exhaustion",
    "cgn-sweep",
    "faults-sweep",
    "adoption-under-stress",
    "as-fractions",
    "million-subs",
];

/// Scenarios whose datasets state how many flow records they streamed: the
/// bulk of client-side synthesis, and the client workloads' work items.
const BULK_FLOW_SCENARIOS: &[&str] = &["as-fractions", "million-subs"];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 100k sites, one day: world generation, one crawl, server analyses.
    Server100k,
    /// 20k sites, 273 days: every client scenario in memory.
    ClientMem,
    /// `ClientMem` with flow streams spilled to disk and replayed.
    ClientSpill,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "server-100k" => Some(Workload::Server100k),
            "client-mem" => Some(Workload::ClientMem),
            "client-spill" => Some(Workload::ClientSpill),
            _ => None,
        }
    }

    fn scenarios(self) -> &'static [&'static str] {
        match self {
            Workload::Server100k => SERVER_SCENARIOS,
            Workload::ClientMem | Workload::ClientSpill => CLIENT_SCENARIOS,
        }
    }

    fn is_server(self) -> bool {
        self == Workload::Server100k
    }

    fn config(self, seed: u64, threads: usize, scratch: &Path) -> RunConfig {
        let base = match self {
            Workload::Server100k => RunConfig::default().sites(100_000).days(1),
            Workload::ClientMem => RunConfig::default().sites(20_000).days(273),
            Workload::ClientSpill => RunConfig::default()
                .sites(20_000)
                .days(273)
                .spill(scratch.join("spill")),
        };
        base.seed(seed).threads(threads)
    }
}

/// One scenario's outcome within a pass.
struct ScenarioRun {
    name: &'static str,
    secs: f64,
    digest: Option<u64>,
    error: Option<String>,
    /// Flow records streamed, for the bulk-flow scenarios.
    flows: Option<u64>,
}

/// Run one scenario, catching panics, and digest its serialized report.
fn run_scenario(session: &mut Session, name: &'static str) -> ScenarioRun {
    let t0 = Instant::now();
    let outcome = match find(name) {
        None => Err(format!("scenario {name} is not registered")),
        Some(scenario) => catch_unwind(AssertUnwindSafe(|| scenario.run(session)))
            .map_err(|payload| panic_message(payload.as_ref())),
    };
    let (digest, error, flows) = match outcome {
        Err(e) => (None, Some(e), None),
        Ok(report) if report.scenario != name => (
            None,
            Some(format!("report names {} instead", report.scenario)),
            None,
        ),
        Ok(report) => match serde_json::to_string(&report) {
            Err(e) => (None, Some(format!("serializing report: {e}")), None),
            Ok(text) => (
                Some(ipv6view::flowstore::fnv1a64(text.as_bytes())),
                None,
                BULK_FLOW_SCENARIOS
                    .contains(&name)
                    .then(|| dataset_flows(&report))
                    .flatten(),
            ),
        },
    };
    ScenarioRun {
        name,
        secs: t0.elapsed().as_secs_f64(),
        digest,
        error,
        flows,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload");
    format!("panicked: {text}")
}

/// Flow records a scenario's exported dataset says it streamed.
fn dataset_flows(report: &ipv6view::experiments::Report) -> Option<u64> {
    report.elements.iter().find_map(|e| match e {
        ipv6view::experiments::Element::Dataset(d) => serde_json::from_str(&d.json)
            .ok()
            .and_then(|v| v.get("flows").and_then(|f| f.as_u64())),
        _ => None,
    })
}

/// Peak resident set of this process in KiB (`VmHWM`), 0 where unknown.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")
                    .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

/// Work items of a pass: sites crawled and analysed on the server path,
/// flow records of the bulk streams (as-fractions, million-subs) on the
/// client path. Both are fixed per seed.
fn work_items(workload: Workload, session: &Session, runs: &[ScenarioRun]) -> u64 {
    if workload.is_server() {
        session.world.web.sites.len() as u64
    } else {
        runs.iter().filter_map(|r| r.flows).sum()
    }
}

fn scenarios_json(runs: &[ScenarioRun]) -> String {
    let items: Vec<String> = runs
        .iter()
        .map(|r| {
            let mut o = Obj::new();
            o.str("name", r.name).num("secs", r.secs);
            if let Some(d) = r.digest {
                o.str("digest", &format!("{d:016x}"));
            }
            if let Some(e) = &r.error {
                o.str("error", e);
            }
            o.finish()
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn pass(workload: Workload, config: RunConfig) -> String {
    let sensor = speed::Sensor::start();
    let begin = sensor.now();
    let t0 = Instant::now();
    let mut session = Session::new(config);
    let setup_s = t0.elapsed().as_secs_f64();
    let setup_end = sensor.now();
    let runs: Vec<ScenarioRun> = workload
        .scenarios()
        .iter()
        .map(|name| run_scenario(&mut session, name))
        .collect();
    let wall_s = t0.elapsed().as_secs_f64();
    let end = sensor.now();
    let samples = sensor.finish();
    let mut o = Obj::new();
    o.num("setup_s", setup_s)
        .num("wall_s", wall_s)
        .num("setup_rate", speed::rate(&samples, begin, setup_end))
        .num("wall_rate", speed::rate(&samples, begin, end))
        .int("probes", samples.len() as u64)
        .int("items", work_items(workload, &session, &runs))
        .int("peak_rss_kib", peak_rss_kib())
        .raw("scenarios", &scenarios_json(&runs));
    o.finish()
}

/// `count` `Session::new` samples, each with the probe rate while it ran.
fn setup(config: RunConfig, count: usize) -> String {
    let sensor = speed::Sensor::start();
    let mut windows = Vec::new();
    let mut setup_s = Vec::new();
    for _ in 0..count {
        let begin = sensor.now();
        let t0 = Instant::now();
        let session = Session::new(config.clone());
        setup_s.push(t0.elapsed().as_secs_f64());
        windows.push((begin, sensor.now()));
        drop(session);
    }
    let samples = sensor.finish();
    let rates: Vec<f64> = windows
        .iter()
        .map(|&(from, to)| speed::rate(&samples, from, to))
        .collect();
    let mut o = Obj::new();
    o.raw("setup_s", &floats(&setup_s))
        .raw("setup_rate", &floats(&rates));
    o.finish()
}

fn floats(xs: &[f64]) -> String {
    let items: Vec<String> = xs
        .iter()
        .map(|x| {
            if x.is_finite() {
                format!("{x:?}")
            } else {
                "null".to_string()
            }
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn usage() -> ! {
    println!("usage: perfbench <pass|trace> <server-100k|client-mem|client-spill> <seed> <threads> <scratch-dir>");
    println!("       perfbench setup <workload> <seed> <threads> <scratch-dir> <count>");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() != 5 && !(args.len() == 6 && args[0] == "setup") {
        usage();
    }
    let Some(workload) = Workload::parse(&args[1]) else {
        usage()
    };
    let (Ok(seed), Ok(threads)) = (args[2].parse::<u64>(), args[3].parse::<usize>()) else {
        usage()
    };
    let scratch = PathBuf::from(&args[4]);
    let config = workload.config(seed, threads.max(1), &scratch);
    let line = match args[0].as_str() {
        "pass" => pass(workload, config),
        "setup" => {
            let count = match args.get(5).map_or(Ok(1), |n| n.parse::<usize>()) {
                Ok(n) if n > 0 => n,
                _ => usage(),
            };
            setup(config, count)
        }
        "trace" => probes::trace(workload, config, &scratch),
        _ => usage(),
    };
    println!("{line}");
}
