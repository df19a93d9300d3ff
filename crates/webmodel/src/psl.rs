//! Public Suffix List matching and eTLD+1 extraction.
//!
//! Implements the [publicsuffix.org](https://publicsuffix.org) algorithm:
//! exact rules, wildcard rules (`*.ck`), and exception rules (`!www.ck`).
//! The longest matching rule wins; exception rules beat everything; names
//! with no matching rule fall back to the implicit `*` rule (the TLD is the
//! public suffix).
//!
//! The embedded rule set covers the common ICANN suffixes appearing in the
//! paper's domain tables (appendix D includes `net.il`, `com.au`, `com.br`,
//! `co.uk`-style names) plus the reserved `test`/`example` TLDs used by the
//! synthetic world.

use dnssim::Name;
use std::borrow::Borrow;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// Built-in ICANN-style suffix rules (subset sufficient for the suite):
/// the rule list [`Psl::builtin`] compiles.
pub const BUILTIN_RULES: &[&str] = &[
    // Generic TLDs.
    "com",
    "net",
    "org",
    "io",
    "info",
    "biz",
    "dev",
    "app",
    "edu",
    "gov",
    "mil",
    "int",
    "cloud",
    "online",
    "site",
    "store",
    "tech",
    "xyz",
    "top",
    "club",
    "tv",
    "me",
    "cc",
    "us",
    "eu",
    // Reserved for testing/documentation (RFC 2606) — the synthetic world
    // lives here.
    "test",
    "example",
    "invalid",
    "localhost",
    // Country codes with common second-level registrations.
    "uk",
    "co.uk",
    "org.uk",
    "ac.uk",
    "gov.uk",
    "au",
    "com.au",
    "net.au",
    "org.au",
    "br",
    "com.br",
    "net.br",
    "jp",
    "co.jp",
    "ne.jp",
    "or.jp",
    "cn",
    "com.cn",
    "net.cn",
    "in",
    "co.in",
    "net.in",
    "il",
    "co.il",
    "net.il",
    "nz",
    "co.nz",
    "net.nz",
    "za",
    "co.za",
    "kr",
    "co.kr",
    "tw",
    "com.tw",
    "hk",
    "com.hk",
    "sg",
    "com.sg",
    "th",
    "co.th",
    "my",
    "com.my",
    "mx",
    "com.mx",
    "ar",
    "com.ar",
    "vn",
    "com.vn",
    "id",
    "co.id",
    "ph",
    "com.ph",
    "tr",
    "com.tr",
    "ru",
    "de",
    "fr",
    "nl",
    "es",
    "it",
    "pl",
    "se",
    "no",
    "fi",
    "dk",
    "gr",
    "pt",
    "hu",
    "be",
    "at",
    "ch",
    "cz",
    "ro",
    "sk",
    "ca",
    "ie",
    "lu",
    // Wildcard + exception examples from the PSL spec (kept for fidelity and
    // exercised by tests).
    "*.ck",
    "!www.ck",
];

/// A compiled Public Suffix List.
#[derive(Debug, Clone)]
pub struct Psl {
    exact: RuleSet,
    wildcard: RuleSet,  // stored without the "*." prefix
    exception: RuleSet, // stored without the "!" prefix
    /// Labels in the longest stored rule: no longer suffix can match one.
    max_labels: usize,
}

type RuleSet = HashSet<Rule>;

/// The non-empty labels of `s`, left to right — [`Name::labels`]'s view.
fn labels(s: &str) -> impl Iterator<Item = &str> {
    s.split('.').filter(|l| !l.is_empty())
}

/// A dotted string seen as its sequence of non-empty labels. The rule sets
/// hash and compare through this view, so a name's suffix slice probes them
/// directly — `a..com` finds the rule `a.com`, as [`Name::labels`] reads it.
trait Labels {
    fn text(&self) -> &str;
}

impl Labels for &str {
    fn text(&self) -> &str {
        self
    }
}

impl Hash for dyn Labels + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for label in labels(self.text()) {
            label.hash(state);
        }
    }
}

impl PartialEq for dyn Labels + '_ {
    fn eq(&self, other: &Self) -> bool {
        labels(self.text()).eq(labels(other.text()))
    }
}

impl Eq for dyn Labels + '_ {}

/// One compiled rule body (never with an empty label). It hashes and
/// compares through the label view, so `Borrow<dyn Labels>` lookups agree.
#[derive(Debug, Clone)]
struct Rule(Box<str>);

impl Labels for Rule {
    fn text(&self) -> &str {
        &self.0
    }
}

impl<'a> Borrow<dyn Labels + 'a> for Rule {
    fn borrow(&self) -> &(dyn Labels + 'a) {
        self
    }
}

impl Hash for Rule {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn Labels).hash(state);
    }
}

impl PartialEq for Rule {
    fn eq(&self, other: &Rule) -> bool {
        (self as &dyn Labels) == (other as &dyn Labels)
    }
}

impl Eq for Rule {}

/// The last labels of a name from one label boundary on, spelled exactly as
/// [`Name::suffix`] spells them.
#[derive(Debug, Clone, Copy)]
enum Spelling<'a> {
    /// The text as it stands: the whole name, or a proper suffix without
    /// empty labels.
    Verbatim(&'a str),
    /// A proper suffix with empty labels: its labels joined by dots.
    Joined(&'a str),
}

impl<'a> Spelling<'a> {
    /// The suffix of `s` starting at byte `at` (a label start, or the end of
    /// `s` for the empty suffix); `None` means every label.
    fn of(s: &'a str, at: Option<usize>) -> Spelling<'a> {
        match at {
            Some(at) if s[..at].bytes().any(|b| b != b'.') => {
                let tail = &s[at..];
                if tail.contains("..") || tail.ends_with('.') {
                    Spelling::Joined(tail)
                } else {
                    Spelling::Verbatim(tail)
                }
            }
            _ => Spelling::Verbatim(s),
        }
    }

    /// The bytes of the spelling.
    fn bytes(self) -> impl Iterator<Item = u8> + 'a {
        let (verbatim, joined) = match self {
            Spelling::Verbatim(text) => (Some(text), None),
            Spelling::Joined(tail) => (None, Some(tail)),
        };
        let pieces = joined
            .into_iter()
            .flat_map(|tail| labels(tail).enumerate())
            .flat_map(|(i, label)| [if i == 0 { "" } else { "." }, label]);
        verbatim.into_iter().chain(pieces).flat_map(str::bytes)
    }

    fn to_name(self) -> Name {
        match self {
            Spelling::Verbatim(text) => Name::new(text),
            Spelling::Joined(tail) => Name::new(&labels(tail).collect::<Vec<_>>().join(".")),
        }
    }
}

impl PartialEq for Spelling<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Spelling::Verbatim(a), Spelling::Verbatim(b)) => a == b,
            _ => self.bytes().eq(other.bytes()),
        }
    }
}

impl Eq for Spelling<'_> {}

/// A name's registrable domain (eTLD+1), borrowed from the name. Two keys
/// are equal exactly when [`Psl::etld_plus_one`] returns equal names, so a
/// caller comparing many names against one site splits the site once —
/// see [`Psl::same_site_as`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteKey<'a>(Spelling<'a>);

/// Where a name's public suffix and its eTLD+1 start: byte offsets of a
/// label start, `None` when the name has too few labels.
struct Split {
    suffix_at: Option<usize>,
    site_at: Option<usize>,
}

/// Byte offsets of `s`'s non-empty labels, rightmost label first.
fn label_starts_rev(s: &str) -> impl Iterator<Item = usize> + '_ {
    let mut end = s.len();
    std::iter::from_fn(move || {
        end = s[..end].trim_end_matches('.').len();
        if end == 0 {
            return None;
        }
        let start = s[..end].rfind('.').map_or(0, |dot| dot + 1);
        end = start;
        Some(start)
    })
}

impl Psl {
    /// Compile a rule list (PSL syntax: one rule per string).
    pub fn new<'a, I: IntoIterator<Item = &'a str>>(rules: I) -> Psl {
        let mut psl = Psl {
            exact: RuleSet::default(),
            wildcard: RuleSet::default(),
            exception: RuleSet::default(),
            max_labels: 0,
        };
        for rule in rules {
            let rule = rule.trim().to_ascii_lowercase();
            if rule.is_empty() {
                continue;
            }
            let (set, body) = if let Some(rest) = rule.strip_prefix('!') {
                (&mut psl.exception, rest)
            } else if let Some(rest) = rule.strip_prefix("*.") {
                (&mut psl.wildcard, rest)
            } else {
                (&mut psl.exact, rule.as_str())
            };
            // A body with an empty label never equals a name's labels.
            if body.split('.').any(str::is_empty) {
                continue;
            }
            psl.max_labels = psl.max_labels.max(body.split('.').count());
            set.insert(Rule(body.into()));
        }
        psl
    }

    /// The built-in rule set.
    pub fn builtin() -> Psl {
        Psl::new(BUILTIN_RULES.iter().copied())
    }

    /// Find the public suffix and the eTLD+1 in one right-to-left pass over
    /// the name's label-boundary suffixes, probing each rule set with the
    /// suffix slice itself. The longest match wins, the longest exception
    /// beats every match, and the implicit `*` rule makes the TLD a public
    /// suffix when nothing matches.
    fn split(&self, s: &str) -> Split {
        let contains = |set: &RuleSet, tail: &str| set.contains(&tail as &dyn Labels);
        let mut count = 1; // labels in the public suffix: the implicit "*" rule
        let mut excepted = false;
        let (mut suffix_at, mut site_at) = (None, None);
        let mut prev = s.len(); // start of the suffix one label shorter
        for (k, at) in (1..).zip(label_starts_rev(s)) {
            if k > self.max_labels + 1 && k > count + 1 {
                break;
            }
            if k <= self.max_labels && contains(&self.exception, &s[at..]) {
                // An exception rule's public suffix is the rule minus its
                // leftmost label.
                excepted = true;
                count = k - 1;
                suffix_at = Some(prev);
            } else if !excepted
                && k > count
                && ((k <= self.max_labels && contains(&self.exact, &s[at..]))
                    // Wildcard rule "*.X" matches "<label>.X".
                    || contains(&self.wildcard, &s[prev..]))
            {
                count = k;
                site_at = None;
            }
            if k == count {
                suffix_at = Some(at);
            } else if k == count + 1 {
                site_at = Some(at);
            }
            prev = at;
        }
        Split { suffix_at, site_at }
    }

    /// The public suffix of `name` (e.g. `co.uk` for `www.example.co.uk`).
    pub fn public_suffix(&self, name: &Name) -> Name {
        let split = self.split(name.as_str());
        // Without a label left of it, the suffix is the whole name.
        let at = split.site_at.and(split.suffix_at);
        Spelling::of(name.as_str(), at).to_name()
    }

    /// The registrable domain (eTLD+1): the public suffix plus one label.
    /// `None` when the name *is* a public suffix (or shorter).
    pub fn etld_plus_one(&self, name: &Name) -> Option<Name> {
        self.site_key(name).map(|key| key.0.to_name())
    }

    /// The eTLD+1 of `name` as a borrowed key, without allocating. `None`
    /// when the name has no registrable domain.
    pub fn site_key<'a>(&self, name: &'a Name) -> Option<SiteKey<'a>> {
        let at = self.split(name.as_str()).site_at?;
        Some(SiteKey(Spelling::of(name.as_str(), Some(at))))
    }

    /// Are two names part of the same registrable domain? Names that lack a
    /// registrable domain (bare suffixes) never match anything.
    pub fn same_site(&self, a: &Name, b: &Name) -> bool {
        self.same_site_as(self.site_key(a), b)
    }

    /// [`Psl::same_site`] against a site already split with
    /// [`Psl::site_key`].
    pub fn same_site_as(&self, site: Option<SiteKey<'_>>, name: &Name) -> bool {
        site.is_some_and(|site| self.site_key(name) == Some(site))
    }
}

impl Default for Psl {
    fn default() -> Self {
        Psl::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn psl() -> Psl {
        Psl::builtin()
    }

    #[test]
    fn simple_tld() {
        let p = psl();
        assert_eq!(p.public_suffix(&"www.example.com".into()).as_str(), "com");
        assert_eq!(
            p.etld_plus_one(&"www.example.com".into()).unwrap().as_str(),
            "example.com"
        );
        assert_eq!(
            p.etld_plus_one(&"a.b.c.example.com".into())
                .unwrap()
                .as_str(),
            "example.com"
        );
    }

    #[test]
    fn second_level_suffixes() {
        let p = psl();
        assert_eq!(
            p.public_suffix(&"www.example.co.uk".into()).as_str(),
            "co.uk"
        );
        assert_eq!(
            p.etld_plus_one(&"www.example.co.uk".into())
                .unwrap()
                .as_str(),
            "example.co.uk"
        );
        // The paper's appendix D has netvision.net.il.
        assert_eq!(
            p.etld_plus_one(&"dialup.netvision.net.il".into())
                .unwrap()
                .as_str(),
            "netvision.net.il"
        );
    }

    #[test]
    fn bare_suffix_has_no_etld_plus_one() {
        let p = psl();
        assert_eq!(p.etld_plus_one(&"com".into()), None);
        assert_eq!(p.etld_plus_one(&"co.uk".into()), None);
    }

    #[test]
    fn unknown_tld_falls_back_to_star_rule() {
        let p = psl();
        assert_eq!(
            p.public_suffix(&"foo.bar.unknowntld".into()).as_str(),
            "unknowntld"
        );
        assert_eq!(
            p.etld_plus_one(&"foo.bar.unknowntld".into())
                .unwrap()
                .as_str(),
            "bar.unknowntld"
        );
    }

    #[test]
    fn wildcard_and_exception_rules() {
        let p = psl();
        // *.ck: every <label>.ck is a public suffix...
        assert_eq!(
            p.etld_plus_one(&"shop.site.whatever.ck".into())
                .unwrap()
                .as_str(),
            "site.whatever.ck"
        );
        // ...except www.ck (exception rule), which is registrable itself.
        assert_eq!(
            p.etld_plus_one(&"www.ck".into()).unwrap().as_str(),
            "www.ck"
        );
        assert_eq!(
            p.etld_plus_one(&"foo.www.ck".into()).unwrap().as_str(),
            "www.ck"
        );
    }

    #[test]
    fn same_site_relation() {
        let p = psl();
        assert!(p.same_site(&"a.example.com".into(), &"b.example.com".into()));
        assert!(p.same_site(&"example.com".into(), &"cdn.example.com".into()));
        assert!(!p.same_site(&"a.example.com".into(), &"a.example.org".into()));
        assert!(!p.same_site(&"a.foo.co.uk".into(), &"a.bar.co.uk".into()));
        assert!(!p.same_site(&"com".into(), &"com".into()));
    }

    #[test]
    fn custom_rules() {
        let p = Psl::new(["platform.test", "*.hosted.test"]);
        assert_eq!(
            p.etld_plus_one(&"tenant1.platform.test".into())
                .unwrap()
                .as_str(),
            "tenant1.platform.test"
        );
        assert_eq!(
            p.etld_plus_one(&"x.y.eu.hosted.test".into())
                .unwrap()
                .as_str(),
            "y.eu.hosted.test"
        );
    }
}
