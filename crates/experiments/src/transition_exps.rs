//! Transition-technology scenarios (new scenarios beyond the paper):
//! the access-technology cohort, NAT64 pool exhaustion, and the
//! provider-shared CGN pool-size sweep.
//!
//! The cohort and sweep scenarios attach their exportable datasets to the
//! [`Report`] they return; `repro export` writes the same datasets from a
//! deliberately shrunk run ([`transition_export_report`],
//! [`cgn_sweep_export_report`]) so the published files stay deterministic
//! and cheap at any `--days`.

use crate::report::Report;
use crate::session::Session;
use ipv6view_core::report::{render_cdf, TextTable};
use ipv6view_core::tiers::{analyze_transition_agg, residence_translation_map, TransitionAnalysis};
use netstats::Ecdf;
use serde::Serialize;
use trafficgen::{
    isp_cohort, synthesize_isps, synthesize_profiles_with, transition_residences, IspSpec,
    TrafficConfig,
};
use transition::GatewayConfig;

/// Synthesize the five-technology cohort and grade each line, streaming
/// every residence through a translation aggregator (no record is
/// materialized). Deterministic in `(world seed, days)`; the cohort seed
/// derives from the world seed so `--seed` reruns are independent end to
/// end.
pub fn cohort_analyses(s: &Session, days: u32) -> Vec<TransitionAnalysis> {
    let cfg = TrafficConfig {
        seed: s.world.config.seed ^ 0x786c_6174, // "xlat"
        num_days: days,
        ..s.traffic_config()
    };
    let nat64 = s.world.transition.nat64_prefix.prefix();
    let results = synthesize_profiles_with(&s.world, transition_residences(), &cfg, |_, p| {
        flowmon::sink::TranslationAgg::new(residence_translation_map(p.access_tech, nat64))
    });
    results
        .iter()
        .map(|(summary, agg)| {
            analyze_transition_agg(
                summary.profile.key,
                summary.profile.access_tech,
                summary.scale,
                agg,
                summary.gateway,
            )
        })
        .collect()
}

/// Serialize cohort analyses as the exportable transition dataset (stable
/// field order; same seed ⇒ byte-identical output).
pub fn cohort_json(analyses: &[TransitionAnalysis]) -> String {
    serde_json::to_string_pretty(analyses).expect("serializable")
}

/// Build the `transition` report over a cohort run of `days` days.
fn transition_report_for_days(s: &Session, days: u32) -> Report {
    let mut r = Report::new("transition");
    r.heading("Transition — translated vs native traffic by access technology");
    let analyses = cohort_analyses(s, days);
    let mut t = TextTable::new(vec![
        "Res",
        "Access tech",
        "GB",
        "native v6",
        "translated",
        "tunneled v4",
        "native v4",
        "xlat flows",
        "gw grant/rej",
        "tier",
    ]);
    for a in &analyses {
        t.row(vec![
            a.key.to_string(),
            a.tech.clone(),
            format!("{:.0}", a.total_gb),
            format!("{:.3}", a.native_v6_bytes),
            format!("{:.3}", a.translated_bytes),
            format!("{:.3}", a.tunneled_v4_bytes),
            format!("{:.3}", a.native_v4_bytes),
            format!("{:.3}", a.translated_flows),
            a.gateway
                .map(|g| format!("{}/{}", g.granted, g.rejected))
                .unwrap_or_else(|| "-".into()),
            a.tier.label().to_string(),
        ]);
    }
    r.table(t);
    r.line(format!(
        "(identical demand on every line: the translated share is the byte mass the\n\
         binary view misattributes — v6-only lines carry IPv4-only services' bytes\n\
         as IPv6 flows towards {}, and DS-Lite hides native-looking v4 in a tunnel)",
        s.world.transition.nat64_prefix
    ));
    r.dataset("transition_report.json", cohort_json(&analyses));
    r
}

/// `transition`: translated vs native traffic share per access technology,
/// over an identical-demand residence cohort (IPv6-only, 464XLAT, DS-Lite,
/// dual-stack and v4-only lines).
pub fn transition_report(s: &mut Session) -> Report {
    let days = s.config.days.min(60);
    transition_report_for_days(s, days)
}

/// The export-scale `transition` report (30-day cap, matching the
/// published dataset's parameters).
pub fn transition_export_report(s: &mut Session) -> Report {
    let days = s.config.days.min(30);
    transition_report_for_days(s, days)
}

/// `nat64-exhaustion`: fix the cohort's IPv6-only line, sweep the gateway's
/// binding capacity, and report grant/reject dynamics under load.
pub fn nat64_exhaustion(s: &mut Session) -> Report {
    let mut r = Report::new("nat64-exhaustion");
    r.heading("NAT64 — binding-pool exhaustion under residential load");
    let profile = transition_residences()
        .into_iter()
        .find(|p| p.access_tech == transition::AccessTech::Ipv6OnlyNat64)
        .expect("cohort has a NAT64 line");
    let days = s.config.days.min(15);
    let mut t = TextTable::new(vec![
        "capacity",
        "granted",
        "rejected",
        "reject rate",
        "peak active",
    ]);
    for capacity in [2usize, 4, 8, 16, 64] {
        let cfg = TrafficConfig {
            seed: s.world.config.seed ^ 0x6e61_7436, // "nat6"
            num_days: days,
            // Dense sampling: each record stands for ~50 real flows, so the
            // binding table sees per-subscriber concurrency a CGN actually
            // carries, not the 1/1000 shadow of it.
            scale: 1.0 / 50.0,
            gateway: GatewayConfig {
                capacity,
                // A generous CGN-style binding lifetime keeps pressure on
                // the pool (the exhaustion regime the trade-off studies
                // warn about).
                binding_timeout: 1_800 * 1_000_000,
            },
            ..s.traffic_config()
        };
        let ds = trafficgen::synthesize_residence(&s.world, profile.clone(), &cfg, 0);
        let gw = ds.gateway.expect("NAT64 line reports stats");
        t.row(vec![
            capacity.to_string(),
            gw.granted.to_string(),
            gw.rejected.to_string(),
            format!("{:.3}", gw.rejection_rate()),
            gw.peak_active.to_string(),
        ]);
    }
    r.table(t);
    r.line(
        "(every flow rejected here is a connection failure the subscriber sees;\n\
              sizing the pool is the deployment cost NAT64 trades for IPv6-only access)",
    );
    r
}

/// One row of the provider-shared CGN sweep: a pool size and what the
/// shared gateway did with the cohort's whole-run demand.
#[derive(Debug, Clone, Serialize)]
pub struct CgnSweepRow {
    /// Bindings per shared pool (NAT64 and AFTR each).
    pub capacity: usize,
    /// Translated/tunneled records offered over the run.
    pub offered: u64,
    /// Bindings granted.
    pub granted: u64,
    /// Records rejected (connection failures subscribers saw).
    pub rejected: u64,
    /// Overall rejection rate.
    pub rejection_rate: f64,
    /// Peak simultaneous bindings (larger pool).
    pub peak_active: usize,
    /// Per-day rejection rates, day order — the CDF input.
    pub daily_rejection_rates: Vec<f64>,
}

/// Run the pool-size sweep: one ISP (shared, cross-day gateway) per
/// capacity, identical subscriber demand, fanned out via the shared
/// [`obs::par::fan_out`] machinery inside [`synthesize_isps`].
/// Deterministic in `(world seed, days, subscribers)` and invariant to
/// `--threads` / `--day-threads`.
pub fn cgn_sweep_rows(
    s: &Session,
    subscribers: usize,
    days: u32,
    capacities: &[usize],
) -> Vec<CgnSweepRow> {
    let cfg = TrafficConfig {
        seed: s.world.config.seed ^ 0x6367_6e73, // "cgns"
        num_days: days,
        // Dense sampling, as in the exhaustion experiment: the shared pool
        // must see CGN-realistic per-subscriber concurrency.
        scale: 1.0 / 50.0,
        ..s.traffic_config()
    };
    let specs: Vec<IspSpec> = capacities
        .iter()
        .map(|&capacity| IspSpec {
            name: format!("pool-{capacity}"),
            profiles: isp_cohort(subscribers),
            gateway: GatewayConfig {
                capacity,
                // Two-hour bindings: the long-timeout CGN regime where
                // cross-midnight persistence actually bites (day-local
                // gateways under-reject most here).
                binding_timeout: 7_200 * 1_000_000,
            },
        })
        .collect();
    synthesize_isps(&s.world, specs, &cfg)
        .into_iter()
        .map(|run| {
            let offered = run.daily.iter().map(|d| d.offered).sum();
            CgnSweepRow {
                capacity: run.gateway_config.capacity,
                offered,
                granted: run.gateway.granted,
                rejected: run.gateway.rejected,
                rejection_rate: run.gateway.rejection_rate(),
                peak_active: run.gateway.peak_active,
                daily_rejection_rates: run.daily.iter().map(|d| d.rejection_rate()).collect(),
            }
        })
        .collect()
}

/// Serialize sweep rows as the exportable dataset (stable field order;
/// same seed ⇒ byte-identical output).
pub fn cgn_sweep_json(rows: &[CgnSweepRow]) -> String {
    serde_json::to_string_pretty(rows).expect("serializable")
}

/// Build the `cgn-sweep` report for one cohort/pool-size grid.
fn cgn_sweep_report_with(
    s: &Session,
    subscribers: usize,
    days: u32,
    capacities: &[usize],
) -> Report {
    let mut r = Report::new("cgn-sweep");
    r.heading("CGN sweep — shared provider gateway: pool size vs rejection rate");
    let rows = cgn_sweep_rows(s, subscribers, days, capacities);
    let mut t = TextTable::new(vec![
        "capacity",
        "offered",
        "granted",
        "rejected",
        "reject rate",
        "peak active",
    ]);
    for row in &rows {
        t.row(vec![
            row.capacity.to_string(),
            row.offered.to_string(),
            row.granted.to_string(),
            row.rejected.to_string(),
            format!("{:.3}", row.rejection_rate),
            row.peak_active.to_string(),
        ]);
    }
    r.table(t);
    for row in &rows {
        if row.daily_rejection_rates.iter().any(|&x| x > 0.0) {
            r.raw(render_cdf(
                &format!("daily rejection rate, pool {}", row.capacity),
                &Ecdf::new(row.daily_rejection_rates.clone()),
                5,
            ));
        }
    }
    r.line(format!(
        "({} subscribers share each pool; unlike the per-residence lower bound,\n\
         bindings persist across midnight, so long CGN timeouts keep yesterday's\n\
         ports occupied — the sizing curve a provider actually faces)",
        subscribers
    ));
    r.dataset("cgn_sweep.json", cgn_sweep_json(&rows));
    r
}

/// `cgn-sweep`: provider-shared CGN sizing — one gateway per pool size
/// serving a whole subscriber cohort, bindings persisted across days, and
/// the per-day rejection-rate CDF each pool size implies.
pub fn cgn_sweep(s: &mut Session) -> Report {
    let days = s.config.days.min(12);
    cgn_sweep_report_with(s, 12, days, &[32, 64, 128, 256, 512])
}

/// The export-scale `cgn-sweep` report (small deterministic cohort,
/// matching the published dataset's parameters).
pub fn cgn_sweep_export_report(s: &mut Session) -> Report {
    let days = s.config.days.min(8);
    cgn_sweep_report_with(s, 6, days, &[32, 128, 512])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::RunConfig;

    fn session(seed: u64) -> Session {
        Session::new(RunConfig::default().sites(400).seed(seed).days(10))
    }

    #[test]
    fn cohort_export_is_byte_identical_across_runs() {
        let s = session(77);
        let a = cohort_json(&cohort_analyses(&s, 10));
        let b = cohort_json(&cohort_analyses(&s, 10));
        assert_eq!(a, b, "same seed must export byte-identical JSON");
        assert!(a.contains("\"tech\""));
        // A different seed produces a different dataset.
        let s2 = session(78);
        let c = cohort_json(&cohort_analyses(&s2, 10));
        assert_ne!(a, c);
    }

    #[test]
    fn cohort_covers_all_five_techs() {
        let s = session(77);
        let analyses = cohort_analyses(&s, 8);
        let techs: Vec<&str> = analyses.iter().map(|a| a.tech.as_str()).collect();
        assert_eq!(
            techs,
            vec![
                "dual-stack",
                "v4-only",
                "v6only+nat64",
                "464xlat",
                "ds-lite"
            ]
        );
        // The headline number: v6-only lines carry a real translated share.
        let nat64 = &analyses[2];
        assert!(nat64.translated_bytes > 0.02);
    }

    #[test]
    fn cgn_sweep_export_is_byte_identical_and_monotone() {
        let s = Session::new(RunConfig::default().sites(400).seed(77).days(6));
        let rows = cgn_sweep_rows(&s, 4, 4, &[16, 256, 100_000]);
        let a = cgn_sweep_json(&rows);
        let b = cgn_sweep_json(&cgn_sweep_rows(&s, 4, 4, &[16, 256, 100_000]));
        assert_eq!(a, b, "same seed must export byte-identical JSON");
        // Identical demand across pool sizes; rejection falls as the pool
        // grows and a practically-unbounded pool rejects nothing.
        assert_eq!(rows[0].offered, rows[1].offered);
        assert_eq!(rows[1].offered, rows[2].offered);
        assert!(rows[0].rejection_rate >= rows[1].rejection_rate);
        assert!(rows[1].rejection_rate >= rows[2].rejection_rate);
        assert_eq!(rows[2].rejected, 0);
        assert!(
            rows[0].rejected > 0,
            "a 16-binding pool under 4 subscribers × dense load must reject"
        );
        assert_eq!(rows[0].daily_rejection_rates.len(), 4);
    }

    #[test]
    fn run_and_export_reports_attach_the_datasets() {
        let mut s = Session::new(RunConfig::default().sites(400).seed(77).days(4));
        let run = transition_report(&mut s);
        let names: Vec<&str> = run.datasets().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["transition_report.json"]);
        // At days ≤ 30 the run and export datasets coincide (same cap).
        let export = transition_export_report(&mut s);
        assert_eq!(
            run.datasets().next().unwrap().json,
            export.datasets().next().unwrap().json
        );
        let sweep = cgn_sweep_export_report(&mut s);
        assert_eq!(sweep.datasets().next().unwrap().name, "cgn_sweep.json");
        assert!(sweep
            .datasets()
            .next()
            .unwrap()
            .json
            .contains("\"capacity\""));
    }
}
