//! # crawlsim — an OpenWPM-style crawler over the synthetic web
//!
//! §4.1 of the paper: for every top-list site, a browser loads the main
//! page (following all HTTP redirects), records every embedded resource
//! request with its DNS results and connection addresses, then clicks up to
//! five random links within the same eTLD+1 and records those pages too.
//!
//! This crate reproduces that pipeline over a [`worldgen::World`]:
//!
//! * DNS failures split `NXDOMAIN` from SERVFAIL/timeout ("other" loading
//!   failures), TLS and HTTP failures come from the epoch's server
//!   behaviour map;
//! * the main-page connection runs a real RFC 8305 Happy Eyeballs race on a
//!   per-load network whose IPv6 path is occasionally degraded — which is
//!   where the paper's "Browser Used IPv4" ~1-in-10 row comes from;
//! * redirect chains are followed with a hop limit, and a final landing
//!   outside the listed domain's eTLD+1 is flagged (the paper's "Unknown
//!   Primary Domain" row);
//! * every resource fetch records A/AAAA presence, the CNAME chain (used
//!   later for cloud service identification) and both resolved addresses
//!   (used for BGP attribution).
//!
//! Crawling is deterministic *and* parallel: the sites go through the
//! suite's one work-stealing fan-out ([`obs::par::fan_out`]) over
//! [`CrawlConfig::threads`] workers, and each site derives its own RNG from
//! `(seed, rank)`, so results are identical regardless of thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dnssim::{LookupOutcome, Name, Resolver};
use happyeyeballs::{HappyEyeballs, HappyEyeballsConfig};
use iputil::Family;
use netsim::{Network, PathProfile, MILLIS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::net::IpAddr;
use webmodel::resource::ResourceType;
use worldgen::web::HttpFailure;
use worldgen::World;

/// Why a site failed to load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum PageFailure {
    /// The listed domain does not resolve at all.
    NxDomain,
    /// DNS SERVFAIL somewhere on the lookup path.
    DnsError,
    /// DNS or connection timeout.
    Timeout,
    /// TLS negotiation failed.
    Tls,
    /// HTTP-level failure (5xx on the main page).
    Http,
    /// Redirect chain exceeded the hop limit.
    RedirectLoop,
}

/// One fetched (deduplicated) resource.
#[derive(Debug, Clone, Serialize)]
pub struct ResourceFetch {
    /// The FQDN the browser requested.
    pub fqdn: Name,
    /// Request type.
    pub rtype: ResourceType,
    /// Same eTLD+1 as the site?
    pub first_party: bool,
    /// Has an `A` record (following CNAMEs).
    pub has_a: bool,
    /// Has an `AAAA` record (following CNAMEs).
    pub has_aaaa: bool,
    /// The family the browser actually used for this fetch.
    pub used: Option<Family>,
    /// CNAME chain observed during resolution (query name first).
    pub chain: Vec<Name>,
    /// A resolved IPv4 address, if any.
    pub v4_addr: Option<IpAddr>,
    /// A resolved IPv6 address, if any.
    pub v6_addr: Option<IpAddr>,
}

/// A successfully crawled site.
#[derive(Debug, Clone, Serialize)]
pub struct CrawlSuccess {
    /// Final FQDN after redirects.
    pub final_fqdn: Name,
    /// Did the redirect chain leave the listed domain's eTLD+1?
    pub offsite_landing: bool,
    /// Main page has an `A` record.
    pub main_has_a: bool,
    /// Main page has an `AAAA` record.
    pub main_has_aaaa: bool,
    /// A resolved IPv4 address of the main page, if any.
    pub main_v4_addr: Option<IpAddr>,
    /// A resolved IPv6 address of the main page, if any.
    pub main_v6_addr: Option<IpAddr>,
    /// CNAME chain observed resolving the main page.
    pub main_chain: Vec<Name>,
    /// Family the browser used to fetch the main page.
    pub main_used: Family,
    /// Whether *any* fetch (main page or resource) used IPv4.
    pub any_v4_used: bool,
    /// Page indices visited (0 = main page, then clicked links).
    pub visited_pages: Vec<usize>,
    /// Deduplicated resource fetches across visited pages.
    pub resources: Vec<ResourceFetch>,
}

/// Crawl outcome for one site.
#[derive(Debug, Clone, Serialize)]
pub struct SiteCrawl {
    /// 1-based top-list rank.
    pub rank: usize,
    /// The listed domain.
    pub domain: Name,
    /// Success or failure.
    pub outcome: Result<CrawlSuccess, PageFailure>,
}

/// A full crawl of one epoch.
#[derive(Debug)]
pub struct CrawlReport {
    /// Epoch label ("Jul 2025").
    pub epoch_label: String,
    /// Epoch index crawled.
    pub epoch: usize,
    /// Per-site results in rank order.
    pub sites: Vec<SiteCrawl>,
}

/// Crawler configuration.
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Seed mixed with each site's rank for per-site determinism.
    pub seed: u64,
    /// Number of same-site links to click (paper: 5).
    pub link_clicks: usize,
    /// Set false for the Bajpai-style main-page-only ablation.
    pub click_links: bool,
    /// Probability that a page-load's IPv6 path is degraded enough for IPv4
    /// to win the Happy Eyeballs race (calibrated to Fig 5's
    /// "Browser Used IPv4" ≈ 11.6%).
    pub v6_degraded_rate: f64,
    /// Happy Eyeballs parameters.
    pub he: HappyEyeballsConfig,
    /// Number of worker threads (1 = sequential; results are identical
    /// either way). Defaults to [`obs::par::default_threads`].
    pub threads: usize,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            seed: 0xc4a71,
            link_clicks: 5,
            click_links: true,
            v6_degraded_rate: 0.116,
            he: HappyEyeballsConfig::default(),
            threads: obs::par::default_threads(),
        }
    }
}

/// Maximum redirect hops before declaring a loop.
const MAX_REDIRECTS: usize = 5;

/// Crawl one epoch of the world: every site, fanned out over
/// `config.threads` workers, in rank order.
pub fn crawl_epoch(world: &World, epoch: usize, config: &CrawlConfig) -> CrawlReport {
    let state = &world.web.epochs[epoch];
    let sites = (0..world.web.sites.len()).collect();
    CrawlReport {
        epoch_label: state.label.clone(),
        epoch,
        sites: obs::par::fan_out(sites, config.threads, |_, i| {
            crawl_site(world, state, i, config)
        }),
    }
}

/// Crawl a single site (by 0-based index) against an epoch state.
fn crawl_site(
    world: &World,
    state: &worldgen::web::EpochState,
    index: usize,
    config: &CrawlConfig,
) -> SiteCrawl {
    let site = &world.web.sites[index];
    let mut rng =
        SmallRng::seed_from_u64(config.seed ^ (site.rank as u64).wrapping_mul(0x9e3779b97f4a7c15));
    let resolver = Resolver::new(&state.zone);

    // --- Follow HTTP redirects from the listed domain. ---
    let mut current = site.domain.clone();
    let mut hops = 0;
    let final_fqdn = loop {
        match state.redirects.get(&current) {
            Some(next) if hops < MAX_REDIRECTS => {
                // The redirecting server itself must resolve.
                if let Some(fail) = resolution_failure(&resolver, &current) {
                    return SiteCrawl {
                        rank: site.rank,
                        domain: site.domain.clone(),
                        outcome: Err(fail),
                    };
                }
                current = next.clone();
                hops += 1;
            }
            Some(_) => {
                return SiteCrawl {
                    rank: site.rank,
                    domain: site.domain.clone(),
                    outcome: Err(PageFailure::RedirectLoop),
                }
            }
            None => break current,
        }
    };

    // --- Resolve the final page name. ---
    if let Some(fail) = resolution_failure(&resolver, &final_fqdn) {
        return SiteCrawl {
            rank: site.rank,
            domain: site.domain.clone(),
            outcome: Err(fail),
        };
    }
    let (main_has_a, main_v4_addr, main_chain_a) = probe(&resolver, &final_fqdn, Family::V4);
    let (main_has_aaaa, main_v6_addr, main_chain_aaaa) = probe(&resolver, &final_fqdn, Family::V6);
    let main_chain = if main_chain_aaaa.len() > main_chain_a.len() {
        main_chain_aaaa
    } else {
        main_chain_a
    };

    // --- Server-side TLS/HTTP failures. ---
    match state.http_failures.get(&final_fqdn) {
        Some(HttpFailure::Tls) => {
            return SiteCrawl {
                rank: site.rank,
                domain: site.domain.clone(),
                outcome: Err(PageFailure::Tls),
            }
        }
        Some(HttpFailure::Http5xx) => {
            return SiteCrawl {
                rank: site.rank,
                domain: site.domain.clone(),
                outcome: Err(PageFailure::Http),
            }
        }
        None => {}
    }

    // --- Happy Eyeballs race for the page load. ---
    // Build this load's network: occasionally the IPv6 path is degraded
    // (congestion, broken tunnel, lossy peering) and IPv4 wins.
    let mut net = Network::dual_stack_ms(20 + rng.gen_range(0..25));
    let degraded = rng.gen::<f64>() < config.v6_degraded_rate;
    if degraded {
        net.set_family_default(
            Family::V6,
            PathProfile {
                rtt: (450 + rng.gen_range(0..400)) * MILLIS,
                loss: 0.2,
                reachable: true,
            },
        );
    }
    let he = HappyEyeballs::new(config.he);
    let race = he.connect(&net, &resolver, &mut rng, &final_fqdn, 0);
    let main_used = match race.winning_family() {
        Some(f) => f,
        None => {
            // Both families resolved but nothing connected: count as timeout.
            return SiteCrawl {
                rank: site.rank,
                domain: site.domain.clone(),
                outcome: Err(PageFailure::Timeout),
            };
        }
    };

    // --- Page selection: main page plus up to five random link clicks. ---
    let mut visited = vec![0usize];
    if config.click_links {
        let mut links = site.pages[0].links.clone();
        // Fisher-Yates shuffle, then take the first `link_clicks`.
        for i in (1..links.len()).rev() {
            let j = rng.gen_range(0..=i);
            links.swap(i, j);
        }
        visited.extend(links.into_iter().take(config.link_clicks));
    }

    // --- Resource fetches (deduplicated by FQDN). ---
    // The site's own registrable domain, split once for every comparison.
    let site_key = world.psl.site_key(&site.domain);
    let mut resources = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut any_v4_used = main_used == Family::V4;
    for &pi in &visited {
        for r in &site.pages[pi].resources {
            if !seen.insert(r.fqdn.clone()) {
                continue;
            }
            let (has_a, v4_addr, chain_a) = probe(&resolver, &r.fqdn, Family::V4);
            let (has_aaaa, v6_addr, chain_aaaa) = probe(&resolver, &r.fqdn, Family::V6);
            let chain = if chain_aaaa.len() > chain_a.len() {
                chain_aaaa
            } else {
                chain_a
            };
            // Fetch family: resources ride the same network conditions as
            // the page load — IPv6 when available and not degraded.
            let used = if has_aaaa && main_used == Family::V6 {
                Some(Family::V6)
            } else if has_a {
                Some(Family::V4)
            } else if has_aaaa {
                Some(Family::V6)
            } else {
                None
            };
            if used == Some(Family::V4) {
                any_v4_used = true;
            }
            resources.push(ResourceFetch {
                fqdn: r.fqdn.clone(),
                rtype: r.rtype,
                first_party: world.psl.same_site_as(site_key, &r.fqdn),
                has_a,
                has_aaaa,
                used,
                chain,
                v4_addr,
                v6_addr,
            });
        }
    }

    let offsite_landing = !world.psl.same_site_as(site_key, &final_fqdn);
    SiteCrawl {
        rank: site.rank,
        domain: site.domain.clone(),
        outcome: Ok(CrawlSuccess {
            final_fqdn,
            offsite_landing,
            main_has_a,
            main_has_aaaa,
            main_v4_addr,
            main_v6_addr,
            main_chain,
            main_used,
            any_v4_used,
            visited_pages: visited,
            resources,
        }),
    }
}

/// Resolve a name in both families and map hard failures.
fn resolution_failure(resolver: &Resolver<'_>, name: &Name) -> Option<PageFailure> {
    let v4 = resolver.resolve(name, Family::V4);
    let v6 = resolver.resolve(name, Family::V6);
    match (&v4, &v6) {
        (LookupOutcome::NxDomain, LookupOutcome::NxDomain) => Some(PageFailure::NxDomain),
        (LookupOutcome::ServFail, _) | (_, LookupOutcome::ServFail) => Some(PageFailure::DnsError),
        (LookupOutcome::Timeout, _) | (_, LookupOutcome::Timeout) => Some(PageFailure::Timeout),
        _ => {
            if v4.is_success() || v6.is_success() {
                None
            } else {
                Some(PageFailure::NxDomain)
            }
        }
    }
}

/// Probe one family: presence, an address, and the CNAME chain.
fn probe(
    resolver: &Resolver<'_>,
    name: &Name,
    family: Family,
) -> (bool, Option<IpAddr>, Vec<Name>) {
    match resolver.resolve(name, family) {
        LookupOutcome::Answers(a) => {
            let addr = a.addresses.first().copied();
            (true, addr, a.chain)
        }
        LookupOutcome::NoData { chain, .. } => (false, None, chain),
        _ => (false, None, vec![name.clone()]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use worldgen::web::GenClass;
    use worldgen::WorldConfig;

    fn world() -> World {
        World::generate(&WorldConfig::small())
    }

    #[test]
    fn crawl_matches_ground_truth_classes() {
        let w = world();
        let e = w.latest_epoch();
        let report = crawl_epoch(&w, e, &CrawlConfig::default());
        assert_eq!(report.sites.len(), w.web.sites.len());

        let mut agree = 0;
        let mut total = 0;
        for (crawl, truth) in report.sites.iter().zip(&w.web.truth) {
            total += 1;
            let t = truth.by_epoch[e];
            match (&crawl.outcome, t) {
                (Err(PageFailure::NxDomain), GenClass::NxDomain) => agree += 1,
                (Err(_), GenClass::OtherFailure) => agree += 1,
                (Ok(s), GenClass::V4Only) if !s.main_has_aaaa => agree += 1,
                (Ok(s), GenClass::Partial | GenClass::Full) if s.main_has_aaaa => agree += 1,
                (Ok(s), GenClass::UnknownPrimary) if s.offsite_landing => agree += 1,
                _ => {}
            }
        }
        let rate = agree as f64 / total as f64;
        assert!(rate > 0.97, "crawl/truth agreement {rate}");
    }

    #[test]
    fn deterministic_and_thread_count_independent() {
        // 1 003 sites is a multiple of none of the thread counts, so every
        // layout leaves some worker a ragged share.
        let w = World::generate(&WorldConfig {
            num_sites: 1_003,
            ..WorldConfig::small()
        });
        let e = w.latest_epoch();
        let crawl_json = |threads: usize| -> Vec<String> {
            let report = crawl_epoch(
                &w,
                e,
                &CrawlConfig {
                    threads,
                    ..CrawlConfig::default()
                },
            );
            report
                .sites
                .iter()
                .map(|s| serde_json::to_string(s).expect("SiteCrawl serializes"))
                .collect()
        };
        let seq = crawl_json(1);
        assert_eq!(seq.len(), 1_003);
        for threads in [2, 3, 7] {
            let par = crawl_json(threads);
            assert_eq!(seq.len(), par.len());
            for (rank, (a, b)) in seq.iter().zip(&par).enumerate() {
                assert_eq!(a, b, "site {rank} differs at {threads} threads");
            }
        }
    }

    #[test]
    fn v4_win_rate_is_calibrated() {
        let w = world();
        let e = w.latest_epoch();
        let report = crawl_epoch(&w, e, &CrawlConfig::default());
        let mut v6_capable = 0;
        let mut used_v4 = 0;
        for s in &report.sites {
            if let Ok(ok) = &s.outcome {
                if ok.main_has_aaaa {
                    v6_capable += 1;
                    if ok.main_used == Family::V4 {
                        used_v4 += 1;
                    }
                }
            }
        }
        let rate = used_v4 as f64 / v6_capable as f64;
        assert!(
            (0.05..0.20).contains(&rate),
            "main-page v4 win rate {rate} ({used_v4}/{v6_capable})"
        );
    }

    #[test]
    fn main_page_only_finds_fewer_resources() {
        let w = world();
        let e = w.latest_epoch();
        let full = crawl_epoch(&w, e, &CrawlConfig::default());
        let main_only = crawl_epoch(
            &w,
            e,
            &CrawlConfig {
                click_links: false,
                ..CrawlConfig::default()
            },
        );
        let count = |r: &CrawlReport| {
            r.sites
                .iter()
                .filter_map(|s| s.outcome.as_ref().ok())
                .map(|s| s.resources.len())
                .sum::<usize>()
        };
        assert!(
            count(&main_only) < count(&full),
            "clicking links must surface more resources"
        );
    }

    #[test]
    fn failures_are_classified() {
        let w = world();
        let e = w.latest_epoch();
        let report = crawl_epoch(&w, e, &CrawlConfig::default());
        let mut kinds = std::collections::HashSet::new();
        for s in &report.sites {
            if let Err(f) = &s.outcome {
                kinds.insert(*f);
            }
        }
        assert!(kinds.contains(&PageFailure::NxDomain));
        // At least two distinct "other" failure kinds observed.
        assert!(
            kinds.len() >= 3,
            "expected a diverse failure mix, got {kinds:?}"
        );
    }

    #[test]
    fn resource_chains_support_service_identification() {
        let w = world();
        let e = w.latest_epoch();
        let report = crawl_epoch(&w, e, &CrawlConfig::default());
        let catalog = cloudmodel::catalog::ServiceCatalog::paper();
        let mut identified = 0;
        for s in report.sites.iter().filter_map(|s| s.outcome.as_ref().ok()) {
            for r in &s.resources {
                if catalog.identify(&r.chain).is_some() {
                    identified += 1;
                }
            }
        }
        assert!(identified > 50, "only {identified} service chains found");
    }
}
