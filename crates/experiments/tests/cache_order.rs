//! The server-side session caches (crawl, influence analysis, hosted-FQDN
//! attribution) are pure functions of the world: a scenario's report must
//! not depend on which scenario filled a cache first. Each server scenario
//! run on a fresh session must equal the same scenario run last on a
//! shared session, after every other server scenario in reverse order.

use experiments::{find, RunConfig, Session};

/// The server and cloud scenarios, all reading the latest crawl's caches.
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

fn config() -> RunConfig {
    RunConfig::default().sites(300).seed(77).days(1)
}

fn run(session: &mut Session, name: &str) -> String {
    find(name)
        .unwrap_or_else(|| panic!("{name} is not registered"))
        .run(session)
        .to_json()
}

#[test]
fn server_reports_do_not_depend_on_cache_fill_order() {
    for &name in SERVER_SCENARIOS {
        let fresh = run(&mut Session::new(config()), name);
        let mut shared = Session::new(config());
        for &other in SERVER_SCENARIOS.iter().rev().filter(|&&o| o != name) {
            run(&mut shared, other);
        }
        assert_eq!(
            run(&mut shared, name),
            fresh,
            "{name}: report differs once the other server scenarios filled the caches"
        );
    }
}
