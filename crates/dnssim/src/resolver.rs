//! The stub resolver: CNAME chains, failure semantics, reverse queries.

use crate::name::Name;
use crate::record::RecordData;
use crate::zone::{FailureMode, ZoneDb};
use iputil::Family;
use std::net::IpAddr;

/// Maximum CNAME chain length before the resolver declares a loop
/// (real resolvers use similar small limits).
pub const MAX_CNAME_DEPTH: usize = 8;

/// Outcome of an address resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupOutcome {
    /// Got at least one address.
    Answers(AddrAnswer),
    /// The final name does not exist at all.
    NxDomain,
    /// The name exists but has no records of the requested family
    /// (NODATA in DNS terms — *the* signal for "IPv4-only domain").
    NoData {
        /// The end of the CNAME chain that was followed.
        final_name: Name,
        /// The chain of names traversed, starting with the query name.
        chain: Vec<Name>,
    },
    /// Server failure (injected, or a CNAME loop).
    ServFail,
    /// Query timed out (injected).
    Timeout,
}

impl LookupOutcome {
    /// The resolved addresses, if any.
    pub fn addresses(&self) -> &[IpAddr] {
        match self {
            LookupOutcome::Answers(a) => &a.addresses,
            _ => &[],
        }
    }

    /// True when the lookup produced at least one address.
    pub fn is_success(&self) -> bool {
        matches!(self, LookupOutcome::Answers(_))
    }
}

/// A successful address answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrAnswer {
    /// Resolved addresses (all of the requested family).
    pub addresses: Vec<IpAddr>,
    /// The CNAME chain traversed, starting with the query name and ending
    /// with the name owning the address records.
    pub chain: Vec<Name>,
}

impl AddrAnswer {
    /// The name that actually owned the address records.
    pub fn final_name(&self) -> &Name {
        self.chain.last().expect("chain always has the query name")
    }
}

/// Outcome of a chainless address resolution ([`Resolver::resolve_addrs`]).
///
/// The lightweight sibling of [`LookupOutcome`]: same failure semantics, no
/// CNAME-chain `Vec<Name>` allocation. Callers that never read the chain
/// (the Happy Eyeballs race runs twice per page load and once per
/// (day, service) pair in traffic synthesis) use this on the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddrsOutcome {
    /// Got at least one address.
    Answers(Vec<IpAddr>),
    /// The final name does not exist at all.
    NxDomain,
    /// The name exists but has no records of the requested family.
    NoData,
    /// Server failure (injected, or a CNAME chain that never terminates).
    ServFail,
    /// Query timed out (injected).
    Timeout,
}

impl AddrsOutcome {
    /// The resolved addresses, if any.
    pub fn addresses(&self) -> &[IpAddr] {
        match self {
            AddrsOutcome::Answers(addrs) => addrs,
            _ => &[],
        }
    }

    /// True when the lookup produced at least one address.
    pub fn is_success(&self) -> bool {
        matches!(self, AddrsOutcome::Answers(_))
    }
}

/// Timing and retry parameters of a stub resolver.
///
/// Historically the "a timed-out query takes 5 s to come back" constant was
/// hard-coded inside the Happy Eyeballs race; moving it here gives fault
/// schedules and Happy Eyeballs a single shared source of truth. The default
/// reproduces the historical behaviour exactly: a 5 s timeout and a single
/// attempt (no retries).
///
/// All durations are microseconds, matching the `netsim`/`flowmon` clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolverConfig {
    /// How long a [`AddrsOutcome::Timeout`] answer takes to "arrive".
    pub timeout: u64,
    /// Total query attempts (1 = no retries, the historical behaviour).
    /// Only failure-aware resolvers (the fault plane's retrying wrapper)
    /// make more than one attempt; the default timed path reports the
    /// outcome of a single query.
    pub attempts: u32,
    /// Delay before the first retry; doubles on each further retry
    /// (exponential backoff).
    pub backoff_base: u64,
    /// Upper bound on the deterministic jitter a retrying resolver may add
    /// to each backoff delay.
    pub backoff_jitter: u64,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        ResolverConfig {
            timeout: 5_000_000,
            attempts: 1,
            backoff_base: 250_000,
            backoff_jitter: 50_000,
        }
    }
}

/// Anything that can resolve a name to addresses of one family.
///
/// The plain [`Resolver`] implements this over a [`ZoneDb`]; translation
/// layers (a DNS64 recursive resolver synthesizing `AAAA` answers from `A`
/// records) implement it by wrapping another resolver. Consumers that only
/// need addresses — Happy Eyeballs, traffic synthesis — take
/// `&impl ResolveAddrs` so they work unchanged behind any resolution path.
pub trait ResolveAddrs {
    /// Resolve `name` to addresses of `family` (chainless fast path).
    fn resolve_addrs(&self, name: &Name, family: Family) -> AddrsOutcome;

    /// Resolve `name` and report how long the answer took to arrive.
    ///
    /// `base_latency` is the round-trip a healthy answer takes; a
    /// [`AddrsOutcome::Timeout`] instead takes [`ResolverConfig::timeout`].
    /// The default implementation performs a single query; failure-aware
    /// wrappers (the fault plane's retrying resolver) override this to model
    /// bounded retries with backoff, accumulating the elapsed time.
    fn resolve_addrs_timed(
        &self,
        name: &Name,
        family: Family,
        base_latency: u64,
        config: &ResolverConfig,
    ) -> (AddrsOutcome, u64) {
        let outcome = self.resolve_addrs(name, family);
        let latency = match outcome {
            AddrsOutcome::Timeout => config.timeout,
            _ => base_latency,
        };
        (outcome, latency)
    }
}

impl<T: ResolveAddrs + ?Sized> ResolveAddrs for &T {
    fn resolve_addrs(&self, name: &Name, family: Family) -> AddrsOutcome {
        (**self).resolve_addrs(name, family)
    }

    fn resolve_addrs_timed(
        &self,
        name: &Name,
        family: Family,
        base_latency: u64,
        config: &ResolverConfig,
    ) -> (AddrsOutcome, u64) {
        (**self).resolve_addrs_timed(name, family, base_latency, config)
    }
}

/// What one resolution step found at a name.
enum Hop<'a> {
    Failed(FailureMode),
    Alias(&'a Name),
    Answers(Vec<IpAddr>),
    NoData,
    NxDomain,
}

/// A stub resolver over a [`ZoneDb`].
#[derive(Debug, Clone, Copy)]
pub struct Resolver<'a> {
    db: &'a ZoneDb,
}

impl ResolveAddrs for Resolver<'_> {
    fn resolve_addrs(&self, name: &Name, family: Family) -> AddrsOutcome {
        Resolver::resolve_addrs(self, name, family)
    }
}

impl<'a> Resolver<'a> {
    /// Create a resolver reading from `db`.
    pub fn new(db: &'a ZoneDb) -> Resolver<'a> {
        Resolver { db }
    }

    /// Resolve `name` to addresses of `family`, following CNAME chains.
    pub fn resolve(&self, name: &Name, family: Family) -> LookupOutcome {
        obs::counter_add("dns.queries", 1);
        let mut chain = vec![name.clone()];
        let mut current = name;
        for _ in 0..=MAX_CNAME_DEPTH {
            match self.hop(current, family) {
                Hop::Failed(FailureMode::ServFail) => return LookupOutcome::ServFail,
                Hop::Failed(FailureMode::Timeout) => return LookupOutcome::Timeout,
                Hop::Alias(target) => {
                    if chain.contains(target) {
                        return LookupOutcome::ServFail; // loop
                    }
                    chain.push(target.clone());
                    current = target;
                }
                Hop::Answers(addresses) => {
                    return LookupOutcome::Answers(AddrAnswer { addresses, chain })
                }
                Hop::NoData => {
                    return LookupOutcome::NoData {
                        final_name: current.clone(),
                        chain,
                    }
                }
                Hop::NxDomain => return LookupOutcome::NxDomain,
            }
        }
        LookupOutcome::ServFail // chain too deep
    }

    /// Resolve `name` to addresses of `family` without materializing the
    /// CNAME chain — the allocation-free fast path for callers that only
    /// need addresses (Happy Eyeballs, traffic synthesis).
    ///
    /// Failure semantics are identical to [`Resolver::resolve`]: CNAME
    /// loops surface as [`AddrsOutcome::ServFail`] via the depth limit
    /// (a loop can never terminate within [`MAX_CNAME_DEPTH`]).
    pub fn resolve_addrs(&self, name: &Name, family: Family) -> AddrsOutcome {
        obs::counter_add("dns.queries", 1);
        let outcome = self.resolve_addrs_inner(name, family);
        match outcome {
            AddrsOutcome::ServFail => obs::counter_add("dns.servfail", 1),
            AddrsOutcome::Timeout => obs::counter_add("dns.timeout", 1),
            _ => {}
        }
        outcome
    }

    fn resolve_addrs_inner(&self, name: &Name, family: Family) -> AddrsOutcome {
        let mut current = name;
        for _ in 0..=MAX_CNAME_DEPTH {
            match self.hop(current, family) {
                Hop::Failed(FailureMode::ServFail) => return AddrsOutcome::ServFail,
                Hop::Failed(FailureMode::Timeout) => return AddrsOutcome::Timeout,
                Hop::Alias(target) => current = target,
                Hop::Answers(addresses) => return AddrsOutcome::Answers(addresses),
                Hop::NoData => return AddrsOutcome::NoData,
                Hop::NxDomain => return AddrsOutcome::NxDomain,
            }
        }
        AddrsOutcome::ServFail // chain too deep or looping
    }

    /// One resolution step at `name`: one failure check, then one probe of
    /// the zone for the name's records. An injected failure wins, then a
    /// CNAME (which takes precedence over other data at a name), then the
    /// addresses of `family`.
    fn hop(&self, name: &Name, family: Family) -> Hop<'a> {
        if let Some(mode) = self.db.failure_for(name) {
            return Hop::Failed(mode);
        }
        let Some(records) = self.db.records(name) else {
            return Hop::NxDomain;
        };
        if let Some(target) = records.iter().find_map(|r| match r {
            RecordData::Cname(t) => Some(t),
            _ => None,
        }) {
            return Hop::Alias(target);
        }
        let addresses: Vec<IpAddr> = records
            .iter()
            .filter_map(|r| match (r, family) {
                (RecordData::A(a), Family::V4) => Some(IpAddr::V4(*a)),
                (RecordData::Aaaa(a), Family::V6) => Some(IpAddr::V6(*a)),
                _ => None,
            })
            .collect();
        if addresses.is_empty() {
            Hop::NoData
        } else {
            Hop::Answers(addresses)
        }
    }

    /// Does the name (following CNAMEs) have any address of this family?
    pub fn has_family(&self, name: &Name, family: Family) -> bool {
        self.resolve_addrs(name, family).is_success()
    }

    /// Follow the CNAME chain without resolving addresses; returns every
    /// name traversed including the query name. Used by the cloud service
    /// identifier (He et al. style CNAME analysis).
    pub fn cname_chain(&self, name: &Name) -> Vec<Name> {
        let mut chain = vec![name.clone()];
        let mut current = name.clone();
        for _ in 0..MAX_CNAME_DEPTH {
            match self.db.cname_target(&current) {
                Some(target) if !chain.contains(&target) => {
                    chain.push(target.clone());
                    current = target;
                }
                _ => break,
            }
        }
        chain
    }

    /// Reverse (PTR) lookup.
    pub fn reverse(&self, addr: IpAddr) -> Option<Name> {
        self.db.reverse_lookup(addr).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> ZoneDb {
        let mut db = ZoneDb::new();
        db.add_a("dual.test".into(), "192.0.2.1".parse().unwrap());
        db.add_aaaa("dual.test".into(), "2001:db8::1".parse().unwrap());
        db.add_a("v4only.test".into(), "192.0.2.2".parse().unwrap());
        db.add_aaaa("v6only.test".into(), "2001:db8::2".parse().unwrap());
        db.add_cname("www.dual.test".into(), "dual.test".into());
        db.add_cname("cdn.site.test".into(), "edge.cloud.test".into());
        db.add_cname("edge.cloud.test".into(), "pop.cloud.test".into());
        db.add_a("pop.cloud.test".into(), "203.0.113.5".parse().unwrap());
        db
    }

    #[test]
    fn resolves_both_families() {
        let db = db();
        let r = Resolver::new(&db);
        let v4 = r.resolve(&"dual.test".into(), Family::V4);
        let v6 = r.resolve(&"dual.test".into(), Family::V6);
        assert_eq!(v4.addresses(), ["192.0.2.1".parse::<IpAddr>().unwrap()]);
        assert_eq!(v6.addresses(), ["2001:db8::1".parse::<IpAddr>().unwrap()]);
    }

    #[test]
    fn nodata_vs_nxdomain() {
        let db = db();
        let r = Resolver::new(&db);
        match r.resolve(&"v4only.test".into(), Family::V6) {
            LookupOutcome::NoData { final_name, .. } => {
                assert_eq!(final_name.as_str(), "v4only.test")
            }
            other => panic!("expected NoData, got {other:?}"),
        }
        assert_eq!(
            r.resolve(&"missing.test".into(), Family::V4),
            LookupOutcome::NxDomain
        );
    }

    #[test]
    fn follows_cname_chain() {
        let db = db();
        let r = Resolver::new(&db);
        match r.resolve(&"cdn.site.test".into(), Family::V4) {
            LookupOutcome::Answers(a) => {
                assert_eq!(a.addresses, ["203.0.113.5".parse::<IpAddr>().unwrap()]);
                let chain: Vec<&str> = a.chain.iter().map(|n| n.as_str()).collect();
                assert_eq!(
                    chain,
                    vec!["cdn.site.test", "edge.cloud.test", "pop.cloud.test"]
                );
                assert_eq!(a.final_name().as_str(), "pop.cloud.test");
            }
            other => panic!("expected answers, got {other:?}"),
        }
    }

    #[test]
    fn cname_loop_is_servfail() {
        let mut db = ZoneDb::new();
        db.add_cname("a.test".into(), "b.test".into());
        db.add_cname("b.test".into(), "a.test".into());
        let r = Resolver::new(&db);
        assert_eq!(
            r.resolve(&"a.test".into(), Family::V4),
            LookupOutcome::ServFail
        );
    }

    #[test]
    fn deep_chain_is_servfail() {
        let mut db = ZoneDb::new();
        for i in 0..12 {
            db.add_cname(
                format!("n{i}.test").into(),
                format!("n{}.test", i + 1).into(),
            );
        }
        let r = Resolver::new(&db);
        assert_eq!(
            r.resolve(&"n0.test".into(), Family::V4),
            LookupOutcome::ServFail
        );
    }

    #[test]
    fn injected_failures_surface() {
        let mut db = db();
        db.inject_failure("dual.test".into(), FailureMode::Timeout);
        let r = Resolver::new(&db);
        assert_eq!(
            r.resolve(&"dual.test".into(), Family::V4),
            LookupOutcome::Timeout
        );
        // Failure on a CNAME target also propagates.
        let mut db2 = ZoneDb::new();
        db2.add_cname("x.test".into(), "y.test".into());
        db2.inject_failure("y.test".into(), FailureMode::ServFail);
        let r2 = Resolver::new(&db2);
        assert_eq!(
            r2.resolve(&"x.test".into(), Family::V4),
            LookupOutcome::ServFail
        );
    }

    #[test]
    fn has_family_and_chain_helpers() {
        let db = db();
        let r = Resolver::new(&db);
        assert!(r.has_family(&"dual.test".into(), Family::V6));
        assert!(!r.has_family(&"v4only.test".into(), Family::V6));
        assert!(r.has_family(&"v6only.test".into(), Family::V6));
        assert!(!r.has_family(&"v6only.test".into(), Family::V4));
        let chain = r.cname_chain(&"cdn.site.test".into());
        assert_eq!(chain.len(), 3);
        let no_chain = r.cname_chain(&"dual.test".into());
        assert_eq!(no_chain.len(), 1);
    }

    #[test]
    fn resolve_addrs_agrees_with_resolve() {
        let mut db = db();
        db.add_cname("loop-a.test".into(), "loop-b.test".into());
        db.add_cname("loop-b.test".into(), "loop-a.test".into());
        db.inject_failure("broken.test".into(), FailureMode::ServFail);
        db.inject_failure("slow.test".into(), FailureMode::Timeout);
        let r = Resolver::new(&db);
        let names = [
            "dual.test",
            "v4only.test",
            "v6only.test",
            "www.dual.test",
            "cdn.site.test",
            "missing.test",
            "loop-a.test",
            "broken.test",
            "slow.test",
        ];
        for name in names {
            for family in [Family::V4, Family::V6] {
                let full = r.resolve(&name.into(), family);
                let fast = r.resolve_addrs(&name.into(), family);
                assert_eq!(full.addresses(), fast.addresses(), "{name} {family}");
                assert_eq!(full.is_success(), fast.is_success(), "{name} {family}");
                // Failure kinds line up variant-for-variant.
                let same_kind = matches!(
                    (&full, &fast),
                    (LookupOutcome::Answers(_), AddrsOutcome::Answers(_))
                        | (LookupOutcome::NxDomain, AddrsOutcome::NxDomain)
                        | (LookupOutcome::NoData { .. }, AddrsOutcome::NoData)
                        | (LookupOutcome::ServFail, AddrsOutcome::ServFail)
                        | (LookupOutcome::Timeout, AddrsOutcome::Timeout)
                );
                assert!(same_kind, "{name} {family}: {full:?} vs {fast:?}");
            }
        }
    }

    #[test]
    fn timed_default_single_query_uses_config_timeout() {
        let mut db = db();
        db.inject_failure("slow.test".into(), FailureMode::Timeout);
        let r = Resolver::new(&db);
        let cfg = ResolverConfig::default();
        let (ok, lat) = r.resolve_addrs_timed(&"dual.test".into(), Family::V4, 20_000, &cfg);
        assert!(ok.is_success());
        assert_eq!(lat, 20_000, "healthy answers arrive at base latency");
        let (to, lat) = r.resolve_addrs_timed(&"slow.test".into(), Family::V4, 20_000, &cfg);
        assert_eq!(to, AddrsOutcome::Timeout);
        assert_eq!(
            lat, cfg.timeout,
            "timeouts arrive after the configured timeout"
        );
        let short = ResolverConfig {
            timeout: 123,
            ..ResolverConfig::default()
        };
        let (_, lat) = r.resolve_addrs_timed(&"slow.test".into(), Family::V4, 20_000, &short);
        assert_eq!(lat, 123);
    }

    #[test]
    fn reverse_queries() {
        let mut db = db();
        db.map_reverse("203.0.113.5".parse().unwrap(), "pop.cloud.test".into());
        let r = Resolver::new(&db);
        assert_eq!(
            r.reverse("203.0.113.5".parse().unwrap()).unwrap().as_str(),
            "pop.cloud.test"
        );
        assert!(r.reverse("203.0.113.6".parse().unwrap()).is_none());
    }
}
