//! # trafficgen — residential traffic synthesis
//!
//! The paper's client-side dataset (§3) is nine months of conntrack flow
//! logs from five Los Angeles residences. This crate synthesizes the
//! equivalent: per-residence, per-day, per-hour traffic over the
//! [`worldgen`] client-service catalog, shaped by
//!
//! * **human diurnal activity** — evening peaks, a weak weekly pattern, and
//!   absences (Residence A's spring break) during which only background
//!   (machine-generated, IPv4-heavier) traffic continues — the mechanism
//!   behind Fig 2's decomposition;
//! * **per-day service-mix jitter** — heavy-download and streaming days
//!   swing the daily IPv6 byte fraction exactly like Fig 1's long tails
//!   (Valve/Netflix days push IPv6 up; Twitch/Zoom days pull it down);
//! * **Happy Eyeballs** — a real RFC 8305 race per (day, service) decides
//!   whether IPv6 is usable that day, and winning-but-contested races leave
//!   losing-family SYN flows in the log, which is why flow fractions are
//!   noisier than byte fractions in the paper;
//! * **per-residence quirks** — Residence B reaches IPv6 through a tunnel,
//!   Residence C has devices with broken IPv6 (capping every service's
//!   fraction, §3.4), Residences D/E have partial visibility and rare
//!   massive IPv4 download days (the paper's E: 6.6% overall vs 45.9%
//!   daily-mean IPv6).
//!
//! Everything is recorded through the real [`flowmon`] router monitor, so
//! the analysis layer consumes exactly what the paper's pipeline consumed:
//! anonymizable flow records with byte counts and timestamps. Records are
//! *streamed* — synthesis pushes each completed flow into a caller-chosen
//! [`flowmon::FlowSink`] ([`synth::synthesize_profiles_with`]), so
//! paper-scale runs aggregate in place instead of materializing months of
//! records; [`provider`] layers the ISP-shared CGN gateway over the same
//! stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod longtail;
pub mod profile;
pub mod provider;
pub mod subs;
pub mod synth;

pub use longtail::{synthesize_long_tail_into, LongTailTrafficConfig};
pub use profile::{
    isp_cohort, paper_residences, transition_residences, EventDayProfile, ResidenceProfile,
};
pub use provider::{synthesize_isp, synthesize_isps, IspRun, IspSpec, SubscriberStats};
pub use subs::{
    shard_day_records, shard_tasks, subscriber_of_src, subscriber_src, synthesize_subscribers_into,
    SubscriberTrafficConfig,
};
pub use synth::{
    synthesize_all, synthesize_profiles, synthesize_profiles_with, synthesize_residence,
    synthesize_residence_into, ResidenceDataset, ResidenceSummary, SportAlloc, TrafficConfig,
};
