//! Differential test: [`Psl`]'s one-pass suffix split against the
//! label-join reference it replaced, which builds every candidate suffix as
//! a joined `String` and probes the rule sets with it.

use dnssim::Name;
use proptest::prelude::*;
use std::collections::HashSet;
use webmodel::psl::{Psl, BUILTIN_RULES};

/// The label-join algorithm: every candidate suffix is joined into a
/// `String` and looked up in the rule sets.
struct Reference {
    exact: HashSet<String>,
    wildcard: HashSet<String>,
    exception: HashSet<String>,
}

impl Reference {
    fn new<'a, I: IntoIterator<Item = &'a str>>(rules: I) -> Reference {
        let mut psl = Reference {
            exact: HashSet::new(),
            wildcard: HashSet::new(),
            exception: HashSet::new(),
        };
        for rule in rules {
            let rule = rule.trim().to_ascii_lowercase();
            if rule.is_empty() {
                continue;
            }
            if let Some(rest) = rule.strip_prefix('!') {
                psl.exception.insert(rest.to_string());
            } else if let Some(rest) = rule.strip_prefix("*.") {
                psl.wildcard.insert(rest.to_string());
            } else {
                psl.exact.insert(rule);
            }
        }
        psl
    }

    fn suffix_label_count(&self, name: &Name) -> usize {
        let labels: Vec<&str> = name.labels().collect();
        let n = labels.len();
        let mut best = 1;
        for start in 0..n {
            let candidate = labels[start..].join(".");
            if self.exception.contains(&candidate) {
                return n - start - 1;
            }
            if self.exact.contains(&candidate) {
                best = best.max(n - start);
            }
            if start + 1 < n {
                let tail = labels[start + 1..].join(".");
                if self.wildcard.contains(&tail) {
                    best = best.max(n - start);
                }
            }
        }
        best
    }

    fn public_suffix(&self, name: &Name) -> Name {
        name.suffix(self.suffix_label_count(name))
    }

    fn etld_plus_one(&self, name: &Name) -> Option<Name> {
        let count = self.suffix_label_count(name);
        if name.label_count() <= count {
            return None;
        }
        Some(name.suffix(count + 1))
    }

    fn same_site(&self, a: &Name, b: &Name) -> bool {
        match (self.etld_plus_one(a), self.etld_plus_one(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }
}

/// Labels from a small vocabulary so rules match often; `""` makes an
/// empty label (a leading dot or `..`).
fn arb_label() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("a"),
        Just("b"),
        Just("www"),
        Just("com"),
        Just("co"),
        Just("uk"),
        Just("net"),
        Just("il"),
        Just("ck"),
        Just("hosted"),
        Just("eu"),
        Just("test"),
        Just("unknowntld"),
        Just(""),
    ]
    .prop_map(str::to_string)
}

/// Names of 1–20 labels, some with empty labels.
fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 1..21).prop_map(|labels| Name::new(&labels.join(".")))
}

/// Custom rule lists: exact, wildcard and exception rules over the same
/// vocabulary, including rules with empty labels (which match nothing).
fn arb_rules() -> impl Strategy<Value = Vec<String>> {
    let rule = (
        prop_oneof![Just(""), Just("*."), Just("!")],
        proptest::collection::vec(arb_label(), 1..4),
    )
        .prop_map(|(prefix, labels)| format!("{prefix}{}", labels.join(".")));
    proptest::collection::vec(rule, 0..12)
}

fn assert_agree(psl: &Psl, reference: &Reference, a: &Name, b: &Name) {
    for name in [a, b] {
        assert_eq!(
            psl.public_suffix(name),
            reference.public_suffix(name),
            "public_suffix({name:?})"
        );
        assert_eq!(
            psl.etld_plus_one(name),
            reference.etld_plus_one(name),
            "etld_plus_one({name:?})"
        );
    }
    assert_eq!(
        psl.same_site(a, b),
        reference.same_site(a, b),
        "same_site({a:?}, {b:?})"
    );
    assert_eq!(psl.same_site(a, a), reference.same_site(a, a));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn builtin_rules_agree_with_reference(a in arb_name(), b in arb_name()) {
        let reference = Reference::new(BUILTIN_RULES.iter().copied());
        assert_agree(&Psl::builtin(), &reference, &a, &b);
    }

    #[test]
    fn custom_rules_agree_with_reference(
        rules in arb_rules(),
        a in arb_name(),
        b in arb_name(),
    ) {
        let psl = Psl::new(rules.iter().map(String::as_str));
        let reference = Reference::new(rules.iter().map(String::as_str));
        assert_agree(&psl, &reference, &a, &b);
    }
}

#[test]
fn edge_names_agree_with_reference() {
    let rule_lists: [&[&str]; 5] = [
        BUILTIN_RULES,
        &["com", "co.uk", "*.ck", "!www.ck"],
        &["a.com", "*.a.com", "!b.a.com", "*.hosted.test", "test"],
        &["a..com", ".com", "*.", "!", "com.", "*..ck", "ck"],
        &[],
    ];
    let names = [
        "",
        "com",
        "a.com",
        ".a.com",
        "a..com",
        "x.a..com",
        "x.co..uk",
        "..co.uk",
        "www.ck",
        "foo.www.ck",
        "shop.site.whatever.ck",
        "ck",
        "b.a.com",
        "x.b.a.com",
        "c.a.com",
        "y.eu.hosted.test",
        "unknowntld",
        "foo.bar.unknowntld",
        ".",
        "..",
        "a.b.c.d.e.f.g.h.i.j",
    ];
    for rules in rule_lists {
        let psl = Psl::new(rules.iter().copied());
        let reference = Reference::new(rules.iter().copied());
        for a in names {
            for b in names {
                assert_agree(&psl, &reference, &Name::new(a), &Name::new(b));
            }
        }
    }
}
