//! Differential test: [`Resolver::resolve`] and [`Resolver::resolve_addrs`]
//! against a reference built from the zone's per-question accessors
//! (`failure_for`, `cname_target`, `lookup`, `exists`), probed one at a
//! time at every hop, over random zones with long CNAME chains, loops,
//! injected failures at any hop, NoData and NXDOMAIN answers.

use dnssim::resolver::{AddrAnswer, AddrsOutcome, MAX_CNAME_DEPTH};
use dnssim::{FailureMode, LookupOutcome, Name, QueryType, RecordData, Resolver, ZoneDb};
use iputil::Family;
use proptest::prelude::*;
use std::net::IpAddr;
use std::sync::Mutex;

/// The obs plane is process-global: tests that count queries serialize.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn qtype(family: Family) -> QueryType {
    match family {
        Family::V4 => QueryType::A,
        Family::V6 => QueryType::Aaaa,
    }
}

fn addresses(db: &ZoneDb, name: &Name, family: Family) -> Vec<IpAddr> {
    db.lookup(name, qtype(family))
        .into_iter()
        .filter_map(|r| match r {
            RecordData::A(a) => Some(IpAddr::V4(a)),
            RecordData::Aaaa(a) => Some(IpAddr::V6(a)),
            _ => None,
        })
        .collect()
}

fn reference_resolve(db: &ZoneDb, name: &Name, family: Family) -> LookupOutcome {
    let mut chain = vec![name.clone()];
    let mut current = name.clone();
    for _ in 0..=MAX_CNAME_DEPTH {
        if let Some(mode) = db.failure_for(&current) {
            return match mode {
                FailureMode::ServFail => LookupOutcome::ServFail,
                FailureMode::Timeout => LookupOutcome::Timeout,
            };
        }
        if let Some(target) = db.cname_target(&current) {
            if chain.contains(&target) {
                return LookupOutcome::ServFail;
            }
            chain.push(target.clone());
            current = target;
            continue;
        }
        let answers = addresses(db, &current, family);
        if !answers.is_empty() {
            return LookupOutcome::Answers(AddrAnswer {
                addresses: answers,
                chain,
            });
        }
        return if db.exists(&current) {
            LookupOutcome::NoData {
                final_name: current,
                chain,
            }
        } else {
            LookupOutcome::NxDomain
        };
    }
    LookupOutcome::ServFail
}

fn reference_resolve_addrs(db: &ZoneDb, name: &Name, family: Family) -> AddrsOutcome {
    let mut current = name.clone();
    for _ in 0..=MAX_CNAME_DEPTH {
        if let Some(mode) = db.failure_for(&current) {
            return match mode {
                FailureMode::ServFail => AddrsOutcome::ServFail,
                FailureMode::Timeout => AddrsOutcome::Timeout,
            };
        }
        if let Some(target) = db.cname_target(&current) {
            current = target;
            continue;
        }
        let answers = addresses(db, &current, family);
        if !answers.is_empty() {
            return AddrsOutcome::Answers(answers);
        }
        return if db.exists(&current) {
            AddrsOutcome::NoData
        } else {
            AddrsOutcome::NxDomain
        };
    }
    AddrsOutcome::ServFail
}

fn name(i: u8) -> Name {
    Name::new(&format!("n{i}.ref.test"))
}

/// A random zone plus every name worth querying. Names `n0..n39` carry
/// random A/AAAA/TXT records; one CNAME chain of 0–14 hops runs through
/// `n0, n1, ...` (so it ends before, at, or past `MAX_CNAME_DEPTH`); extra
/// random CNAMEs add loops and merges; failures land on random names,
/// chain hops included. `n40..n44` never own a record (NXDOMAIN).
fn arb_zone() -> impl Strategy<Value = (ZoneDb, Vec<Name>)> {
    (
        proptest::collection::vec((0u8..40, 0u8..4, any::<bool>()), 0..40),
        0u8..15,
        proptest::collection::vec((0u8..40, 0u8..45), 0..10),
        proptest::collection::vec((0u8..45, any::<bool>()), 0..5),
    )
        .prop_map(|(hosts, chain_len, cnames, failures)| {
            let mut db = ZoneDb::new();
            for (i, kind, txt) in hosts {
                let n = name(i);
                if kind & 1 == 1 {
                    db.add_a(n.clone(), std::net::Ipv4Addr::new(192, 0, 2, i));
                    db.add_a(n.clone(), std::net::Ipv4Addr::new(198, 51, 100, i));
                }
                if kind & 2 == 2 {
                    db.add_aaaa(n.clone(), format!("2001:db8::{i:x}").parse().unwrap());
                }
                if txt {
                    // Owns a record but no address: NoData in both families.
                    db.add(n, RecordData::Txt(format!("t{i}")));
                }
            }
            for hop in 0..chain_len {
                db.add_cname(name(hop), name(hop + 1));
            }
            for (from, to) in cnames {
                if from != to {
                    db.add_cname(name(from), name(to));
                }
            }
            for (i, servfail) in failures {
                let mode = if servfail {
                    FailureMode::ServFail
                } else {
                    FailureMode::Timeout
                };
                db.inject_failure(name(i), mode);
            }
            (db, (0..45).map(name).collect())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn resolver_matches_per_question_reference((db, names) in arb_zone()) {
        let r = Resolver::new(&db);
        for n in &names {
            for family in [Family::V4, Family::V6] {
                prop_assert_eq!(r.resolve(n, family), reference_resolve(&db, n, family));
                prop_assert_eq!(
                    r.resolve_addrs(n, family),
                    reference_resolve_addrs(&db, n, family)
                );
            }
        }
    }
}

/// The reference sees every outcome the generator is meant to produce, so
/// the differential test above is not vacuous.
#[test]
fn generator_covers_every_outcome() {
    let mut seen = [false; 7];
    let mut rng = proptest::TestRng::from_name("generator_covers_every_outcome");
    for _ in 0..400 {
        let (db, names) = arb_zone().gen_value(&mut rng);
        for n in &names {
            for family in [Family::V4, Family::V6] {
                let slot = match reference_resolve(&db, n, family) {
                    LookupOutcome::Answers(a) if a.chain.len() > 1 => 0,
                    LookupOutcome::Answers(_) => 1,
                    LookupOutcome::NoData { .. } => 2,
                    LookupOutcome::NxDomain => 3,
                    LookupOutcome::ServFail => 4,
                    LookupOutcome::Timeout => 5,
                };
                seen[slot] = true;
            }
            // A loop-free chain longer than the depth limit: ServFail
            // with no failure injected on the way.
            let chain = Resolver::new(&db).cname_chain(n);
            let last = chain.last().expect("chain has the query name");
            let too_deep = chain.len() == MAX_CNAME_DEPTH + 1
                && db.cname_target(last).is_some_and(|t| !chain.contains(&t))
                && chain.iter().all(|c| db.failure_for(c).is_none());
            if too_deep {
                assert_eq!(
                    reference_resolve(&db, n, Family::V4),
                    LookupOutcome::ServFail
                );
                seen[6] = true;
            }
        }
    }
    assert_eq!(seen, [true; 7], "outcomes seen: {seen:?}");
}

/// Each query counts once in `dns.queries`, however many hops it takes.
#[test]
fn every_query_counts_once() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut rng = proptest::TestRng::from_name("every_query_counts_once");
    let (db, names) = arb_zone().gen_value(&mut rng);
    let r = Resolver::new(&db);
    obs::set_enabled(true);
    obs::reset();
    for n in &names {
        r.resolve(n, Family::V4);
        r.resolve_addrs(n, Family::V6);
    }
    let queries = obs::snapshot().counter("dns.queries");
    obs::set_enabled(false);
    assert_eq!(queries, Some(2 * names.len() as u64));
}
