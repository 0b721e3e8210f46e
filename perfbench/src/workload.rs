//! The workloads and the one place every proxy and server configuration
//! is built.

use bep_core::ProxyConfig;
use bep_scenario::{derive, Family, GeneratedApp, TrafficConfig};
use bep_server::ServerConfig;

/// Fleet seed the populations hang off (the one the fleet soaks use).
/// Populations are part of a workload's definition; `--seed` picks the
/// traffic.
pub const FLEET_SEED: u64 = 1307;

/// Seed of the warm-up op stream. Every run warms up on the same
/// statements, so `setup_s` does not depend on `--seed`.
pub const WARM_SEED: u64 = 0x5741_524d;

/// Ids for rows the warm-up creates start here, above any id the timed
/// stream (from `FRESH_ID_BASE`) can reach.
pub const WARM_FRESH_BASE: i64 = bep_scenario::FRESH_ID_BASE + 1_000_000_000_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Generated app family.
    pub family: Family,
    /// Users the population seeds.
    pub users: u64,
    /// Whether the proxy enforces mutation policies.
    pub enforce_writes: bool,
    /// Share of traffic ops that are raw write probes.
    pub write_probe_fraction: f64,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "social",
        family: Family::Social,
        users: 20_000,
        enforce_writes: false,
        write_probe_fraction: 0.0,
    },
    Workload {
        name: "review",
        family: Family::Review,
        users: 5_000,
        enforce_writes: false,
        write_probe_fraction: 0.0,
    },
    Workload {
        name: "store-writes",
        family: Family::Store,
        users: 20_000,
        enforce_writes: true,
        write_probe_fraction: 0.25,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The generated app, at the fleet seed's family-local seed.
    pub fn app(&self) -> GeneratedApp {
        let index = Family::ALL
            .iter()
            .position(|f| *f == self.family)
            .expect("every family is in the fleet");
        GeneratedApp::new(self.family, derive(FLEET_SEED, index as u64), self.users)
    }

    /// The traffic mix the client draws from.
    pub fn traffic(&self) -> TrafficConfig {
        TrafficConfig {
            write_probe_fraction: self.write_probe_fraction,
            ..TrafficConfig::default()
        }
    }

    /// Proxy and server configuration: the shipped defaults, except write
    /// enforcement where the workload asks for it and span collection in
    /// the traced run.
    pub fn configs(&self, traced: bool) -> (ProxyConfig, ServerConfig) {
        let proxy = ProxyConfig {
            enforce_writes: self.enforce_writes,
            spans: traced,
            ..ProxyConfig::default()
        };
        (proxy, ServerConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_match_the_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(crate::stats::valid_metric_name(w.name));
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(
                manifest.contains(&format!("\"name\": \"{}\"", w.name)),
                "{} missing from BENCHMARK.json",
                w.name
            );
        }
    }

    #[test]
    fn only_write_enforcement_and_spans_leave_the_defaults() {
        let d = ProxyConfig::default();
        for w in WORKLOADS {
            for traced in [false, true] {
                let (p, s) = w.configs(traced);
                assert_eq!(p.spans, traced);
                assert_eq!(p.enforce_writes, w.enforce_writes);
                assert_eq!(
                    format!(
                        "{:?}",
                        ProxyConfig {
                            spans: d.spans,
                            enforce_writes: d.enforce_writes,
                            ..p
                        }
                    ),
                    format!("{d:?}")
                );
                assert_eq!(format!("{s:?}"), format!("{:?}", ServerConfig::default()));
            }
        }
    }
}
