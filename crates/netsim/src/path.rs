//! Per-destination path properties.
//!
//! A [`Network`] answers one question: what does the path from this vantage
//! point to a given destination address look like? Destinations can be
//! configured individually (exact address), by covering prefix, or fall back
//! to per-family defaults. Prefix entries let the world generator give a
//! whole AS a latency/loss profile in one call.

use crate::Time;
use iputil::prefix::{Prefix4, Prefix6};
use iputil::{Lpm4, Lpm6};
use std::collections::HashMap;
use std::net::IpAddr;

/// The properties of one network path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathProfile {
    /// Round-trip time in microseconds.
    pub rtt: Time,
    /// Probability that a single packet (SYN) is lost, in `[0, 1]`.
    pub loss: f64,
    /// Hard reachability: `false` models a black-holed path (e.g. broken
    /// CPE IPv6, the paper's Residence C conjecture) where every packet is
    /// dropped regardless of `loss`.
    pub reachable: bool,
}

impl PathProfile {
    /// A healthy path with the given RTT in milliseconds and no loss.
    pub fn healthy_ms(rtt_ms: u64) -> PathProfile {
        PathProfile {
            rtt: rtt_ms * crate::MILLIS,
            loss: 0.0,
            reachable: true,
        }
    }

    /// A black-holed path: packets vanish.
    pub fn unreachable() -> PathProfile {
        PathProfile {
            rtt: 0,
            loss: 1.0,
            reachable: false,
        }
    }

    /// Validate invariants (loss in range, rtt sane).
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.loss) {
            return Err(format!("loss {} outside [0,1]", self.loss));
        }
        Ok(())
    }
}

impl Default for PathProfile {
    fn default() -> Self {
        PathProfile::healthy_ms(30)
    }
}

/// The view of the network from one vantage point (e.g. a residence router
/// or a crawler machine).
#[derive(Debug, Clone)]
pub struct Network {
    exact: HashMap<IpAddr, PathProfile>,
    by_prefix4: Lpm4<PathProfile>,
    by_prefix6: Lpm6<PathProfile>,
    v4_default: PathProfile,
    v6_default: PathProfile,
}

impl Network {
    /// A network where every destination gets the family default profile.
    pub fn new(v4_default: PathProfile, v6_default: PathProfile) -> Network {
        v4_default.validate().expect("valid v4 default");
        v6_default.validate().expect("valid v6 default");
        Network {
            exact: HashMap::new(),
            by_prefix4: Lpm4::new(),
            by_prefix6: Lpm6::new(),
            v4_default,
            v6_default,
        }
    }

    /// A dual-stack network with identical healthy defaults.
    pub fn dual_stack_ms(rtt_ms: u64) -> Network {
        Network::new(
            PathProfile::healthy_ms(rtt_ms),
            PathProfile::healthy_ms(rtt_ms),
        )
    }

    /// Override the path to one exact destination address.
    pub fn set_path(&mut self, dst: IpAddr, profile: PathProfile) {
        profile.validate().expect("valid profile");
        self.exact.insert(dst, profile);
    }

    /// Override the path for every address in an IPv4 prefix.
    pub fn set_prefix4(&mut self, prefix: Prefix4, profile: PathProfile) {
        profile.validate().expect("valid profile");
        self.by_prefix4.insert(prefix, profile);
    }

    /// Override the path for every address in an IPv6 prefix.
    pub fn set_prefix6(&mut self, prefix: Prefix6, profile: PathProfile) {
        profile.validate().expect("valid profile");
        self.by_prefix6.insert(prefix, profile);
    }

    /// Replace the per-family default profile.
    pub fn set_family_default(&mut self, family: iputil::Family, profile: PathProfile) {
        profile.validate().expect("valid profile");
        match family {
            iputil::Family::V4 => self.v4_default = profile,
            iputil::Family::V6 => self.v6_default = profile,
        }
    }

    /// Resolve the path profile for a destination: exact match, then longest
    /// covering prefix, then the family default.
    pub fn path_to(&self, dst: IpAddr) -> PathProfile {
        if let Some(p) = self.exact.get(&dst) {
            return *p;
        }
        match dst {
            IpAddr::V4(a) => self
                .by_prefix4
                .longest_match(a)
                .map(|(_, p)| *p)
                .unwrap_or(self.v4_default),
            IpAddr::V6(a) => self
                .by_prefix6
                .longest_match(a)
                .map(|(_, p)| *p)
                .unwrap_or(self.v6_default),
        }
    }
}

impl Default for Network {
    fn default() -> Self {
        Network::dual_stack_ms(30)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_apply_per_family() {
        let net = Network::new(PathProfile::healthy_ms(20), PathProfile::healthy_ms(18));
        assert_eq!(
            net.path_to("192.0.2.1".parse().unwrap()).rtt,
            20 * crate::MILLIS
        );
        assert_eq!(
            net.path_to("2001:db8::1".parse().unwrap()).rtt,
            18 * crate::MILLIS
        );
    }

    #[test]
    fn exact_beats_prefix_beats_default() {
        let mut net = Network::dual_stack_ms(30);
        net.set_prefix4(
            "198.51.100.0/24".parse().unwrap(),
            PathProfile::healthy_ms(80),
        );
        net.set_path("198.51.100.7".parse().unwrap(), PathProfile::healthy_ms(5));
        assert_eq!(
            net.path_to("198.51.100.7".parse().unwrap()).rtt,
            5 * crate::MILLIS
        );
        assert_eq!(
            net.path_to("198.51.100.8".parse().unwrap()).rtt,
            80 * crate::MILLIS
        );
        assert_eq!(
            net.path_to("198.51.101.8".parse().unwrap()).rtt,
            30 * crate::MILLIS
        );
    }

    #[test]
    fn longest_prefix_wins() {
        let mut net = Network::dual_stack_ms(30);
        net.set_prefix6(
            "2001:db8::/32".parse().unwrap(),
            PathProfile::healthy_ms(50),
        );
        net.set_prefix6(
            "2001:db8:1::/48".parse().unwrap(),
            PathProfile::healthy_ms(9),
        );
        assert_eq!(
            net.path_to("2001:db8:1::5".parse().unwrap()).rtt,
            9 * crate::MILLIS
        );
        assert_eq!(
            net.path_to("2001:db8:2::5".parse().unwrap()).rtt,
            50 * crate::MILLIS
        );
    }

    #[test]
    fn broken_v6_family() {
        let mut net = Network::dual_stack_ms(30);
        net.set_family_default(iputil::Family::V6, PathProfile::unreachable());
        assert!(!net.path_to("2001:db8::1".parse().unwrap()).reachable);
        assert!(net.path_to("192.0.2.1".parse().unwrap()).reachable);
    }

    #[test]
    #[should_panic(expected = "loss")]
    fn rejects_invalid_loss() {
        let mut net = Network::dual_stack_ms(10);
        net.set_path(
            "192.0.2.1".parse().unwrap(),
            PathProfile {
                rtt: 0,
                loss: 1.5,
                reachable: true,
            },
        );
    }
}
