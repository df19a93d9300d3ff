//! The router-side monitor: scope classification plus the flow table.

use crate::flow::{FlowKey, FlowRecord, Scope};
use crate::table::FlowTable;
use crate::xlat::{Translation, TranslationMap};
use crate::Timestamp;
use iputil::prefix::{Prefix4, Prefix6};
use iputil::{Lpm4, Lpm6};
use std::net::IpAddr;

/// A residence router running the flow monitor.
///
/// Configured with the LAN prefixes of the residence (the RFC1918 v4 LAN and
/// the delegated IPv6 prefix); every flow is classified as
/// [`Scope::Internal`] when *both* endpoints are inside the LAN, otherwise
/// [`Scope::External`] — the exact split reported per-residence in Table 1.
///
/// Scoping runs once per injected flow against LAN sets that never change
/// over a monitor's lifetime, so the tables build their lookup engine once,
/// on the first flow. A handful of LAN prefixes builds to the linear-scan
/// representation: no `2^16` root tables per residence.
#[derive(Debug, Clone)]
pub struct RouterMonitor {
    lan4: Lpm4<()>,
    lan6: Lpm6<()>,
    xlat: TranslationMap,
    table: FlowTable,
}

impl RouterMonitor {
    /// Create a monitor for a residence with the given LAN prefixes.
    pub fn new(lan4: Vec<Prefix4>, lan6: Vec<Prefix6>) -> RouterMonitor {
        let mut lan4_lpm = Lpm4::new();
        for p in lan4 {
            lan4_lpm.insert(p, ());
        }
        let mut lan6_lpm = Lpm6::new();
        for p in lan6 {
            lan6_lpm.insert(p, ());
        }
        RouterMonitor {
            lan4: lan4_lpm,
            lan6: lan6_lpm,
            xlat: TranslationMap::new(),
            table: FlowTable::new(),
        }
    }

    /// Install the translation knowledge this router classifies against
    /// (NAT64 prefixes; whether external v4 rides a DS-Lite softwire).
    pub fn set_translation_map(&mut self, xlat: TranslationMap) {
        self.xlat = xlat;
    }

    /// Translation provenance of a flow: native, NAT64-translated, or
    /// DS-Lite tunneled. Purely address-derived — usable on live keys and on
    /// drained records alike.
    pub fn translation_of(&self, key: &FlowKey) -> Translation {
        self.xlat.classify(key, self.scope_of(key.src, key.dst))
    }

    /// Is an address inside this residence's LAN?
    pub fn is_lan(&self, addr: IpAddr) -> bool {
        match addr {
            IpAddr::V4(a) => self.lan4.longest_match(a).is_some(),
            IpAddr::V6(a) => self.lan6.longest_match(a).is_some(),
        }
    }

    /// Scope of a flow between two endpoints.
    pub fn scope_of(&self, src: IpAddr, dst: IpAddr) -> Scope {
        if self.is_lan(src) && self.is_lan(dst) {
            Scope::Internal
        } else {
            Scope::External
        }
    }

    /// Conntrack `NEW` with automatic scoping.
    pub fn on_new(&mut self, key: FlowKey, ts: Timestamp) {
        let scope = self.scope_of(key.src, key.dst);
        self.table.on_new(key, ts, scope);
    }

    /// Access the underlying table (packet accounting, destroy, eviction).
    pub fn table(&mut self) -> &mut FlowTable {
        &mut self.table
    }

    /// Build the completed record `inject` would log — scope classification
    /// plus the packet estimate — without buffering it. The streaming
    /// pipeline observes flows this way and pushes them straight into a
    /// [`crate::sink::FlowSink`]; `inject` remains for call sites that
    /// want the table to hold the record until [`RouterMonitor::drain`].
    pub fn observe(
        &self,
        key: FlowKey,
        start: Timestamp,
        end: Timestamp,
        bytes_orig: u64,
        bytes_reply: u64,
    ) -> FlowRecord {
        debug_assert!(end >= start);
        let scope = self.scope_of(key.src, key.dst);
        // Packet counts estimated from bytes at a nominal 1200 B/packet,
        // minimum 1 — the analyses only use byte and flow counts.
        let pkts = |b: u64| (b / 1200).max(1);
        FlowRecord {
            key,
            start,
            end,
            bytes_orig,
            bytes_reply,
            packets_orig: pkts(bytes_orig),
            packets_reply: pkts(bytes_reply),
            scope,
        }
    }

    /// Inject a whole flow with automatic scoping (synthesis fast path).
    pub fn inject(
        &mut self,
        key: FlowKey,
        start: Timestamp,
        end: Timestamp,
        bytes_orig: u64,
        bytes_reply: u64,
    ) {
        let r = self.observe(key, start, end, bytes_orig, bytes_reply);
        self.table.inject(
            r.key,
            r.start,
            r.end,
            r.bytes_orig,
            r.bytes_reply,
            r.packets_orig,
            r.packets_reply,
            r.scope,
        );
    }

    /// Drain completed flow records.
    pub fn drain(&mut self) -> Vec<FlowRecord> {
        self.table.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router() -> RouterMonitor {
        RouterMonitor::new(
            vec!["192.168.1.0/24".parse().unwrap()],
            vec!["2001:db8:1000::/56".parse().unwrap()],
        )
    }

    #[test]
    fn scoping() {
        let r = router();
        let lan: IpAddr = "192.168.1.5".parse().unwrap();
        let lan2: IpAddr = "192.168.1.6".parse().unwrap();
        let wan: IpAddr = "203.0.113.9".parse().unwrap();
        assert_eq!(r.scope_of(lan, lan2), Scope::Internal);
        assert_eq!(r.scope_of(lan, wan), Scope::External);
        assert_eq!(r.scope_of(wan, lan), Scope::External);

        let lan6: IpAddr = "2001:db8:1000:1::5".parse().unwrap();
        let wan6: IpAddr = "2001:db8:9999::1".parse().unwrap();
        assert_eq!(r.scope_of(lan6, lan6), Scope::Internal);
        assert_eq!(r.scope_of(lan6, wan6), Scope::External);
    }

    #[test]
    fn inject_applies_scope_and_packets() {
        let mut r = router();
        let key = FlowKey::tcp(
            "192.168.1.5".parse().unwrap(),
            40000,
            "192.168.1.6".parse().unwrap(),
            445,
        );
        r.inject(key, 0, 100, 2400, 120_000);
        let recs = r.drain();
        assert_eq!(recs[0].scope, Scope::Internal);
        assert_eq!(recs[0].packets_orig, 2);
        assert_eq!(recs[0].packets_reply, 100);
    }

    #[test]
    fn translation_classification_through_router() {
        let mut r = router();
        let mut xlat = TranslationMap::new();
        xlat.add_nat64_prefix("64:ff9b::/96".parse().unwrap());
        r.set_translation_map(xlat);
        let translated = FlowKey::tcp(
            "2001:db8:1000::5".parse().unwrap(),
            40000,
            "64:ff9b::c633:6407".parse().unwrap(),
            443,
        );
        assert_eq!(r.translation_of(&translated), Translation::Nat64);
        let native = FlowKey::tcp(
            "2001:db8:1000::5".parse().unwrap(),
            40001,
            "2600::1".parse().unwrap(),
            443,
        );
        assert_eq!(r.translation_of(&native), Translation::Native);
    }

    #[test]
    fn event_path_with_scope() {
        let mut r = router();
        let key = FlowKey::udp(
            "192.168.1.5".parse().unwrap(),
            5000,
            "8.8.8.8".parse().unwrap(),
            53,
        );
        r.on_new(key, 10);
        r.table()
            .on_packet(&key, 20, crate::flow::Direction::Original, 64);
        r.table().on_destroy(&key, 30);
        let recs = r.drain();
        assert_eq!(recs[0].scope, Scope::External);
        assert_eq!(recs[0].bytes_orig, 64);
    }
}
