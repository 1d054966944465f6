//! The metrics the benchmark reports, and the result line it prints.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::provenance::Provenance;

/// End-to-end metrics `(name, unit)`, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("model_err_pct", "%"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("desim.polls", "count"),
    ("desim.host_ns_per_poll", "ns"),
    ("desim.timers_purged", "count"),
    ("desim.timer_ns", "ns"),
    ("desim.chan_msg_ns", "ns"),
    ("desim.share", "ratio"),
    ("net.packets_tx", "count"),
    ("net.packet_ns", "ns"),
    ("net.goodput", "ratio"),
    ("net.stalls", "count"),
    ("net.drops", "count"),
    ("net.share", "ratio"),
    ("net.route_hit_ratio", "ratio"),
    ("net.route_src_computed", "count"),
    ("net.route_src_ms", "ms"),
    ("net.route_bytes", "bytes"),
    ("net.route_share", "ratio"),
    ("sched.quanta", "count"),
    ("hostsim.quantum_ns", "ns"),
    ("hostsim.share", "ratio"),
    ("vsock.sends", "count"),
    ("middleware.vsock_msg_ns", "ns"),
    ("middleware.share", "ratio"),
    ("mpi.collectives", "count"),
    ("mpi.allreduce_ns_4r", "ns"),
    ("mpi.allreduce_ns_1024r", "ns"),
    ("mpi.share", "ratio"),
    ("core.builds", "count"),
    ("core.build_ms", "ms"),
    ("gis.records", "count"),
    ("gis.search_us", "us"),
    ("core.share", "ratio"),
    ("obs.overhead_ratio", "ratio"),
    ("obs.spans", "count"),
    ("shard.epoch_ns", "ns"),
    ("shard.pool_speedup", "ratio"),
    ("vt.cpu_share", "ratio"),
    ("vt.net_share", "ratio"),
    ("vt.coll_share", "ratio"),
    ("model.max_err_pct", "%"),
    ("layers.predicted_s", "s"),
    ("layers.measured_s", "s"),
    ("layers.unexplained_share", "ratio"),
];

/// True for names made of `[A-Za-z0-9_.-]`, starting with a letter or
/// digit, at most 64 long.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// One reported value.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The result line: the last line the benchmark prints.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct Summary {
    /// True when no operation failed a check.
    pub correct: bool,
    /// Operations (emulation runs) attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Every metric of the run's set, by name.
    pub metrics: BTreeMap<String, Metric>,
}

/// A result with its provenance, as written by `--out`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Record {
    /// Where the result came from.
    pub provenance: Provenance,
    /// The result itself.
    pub summary: Summary,
}

/// Collects the values of one metric set, refusing undeclared names.
pub struct Metrics {
    declared: &'static [(&'static str, &'static str)],
    values: BTreeMap<String, Metric>,
}

impl Metrics {
    /// An empty collection for the end-to-end (`trace == false`) or the
    /// per-layer set.
    pub fn new(trace: bool) -> Self {
        Metrics {
            declared: if trace { PER_LAYER } else { END_TO_END },
            values: BTreeMap::new(),
        }
    }

    /// Set a declared metric.
    ///
    /// # Panics
    /// Panics on an undeclared name: the declared lists are the contract.
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(valid_name(name), "{name}");
        let (_, unit) = self
            .declared
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.values.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        );
    }

    /// Declared metrics that were never set or are not finite.
    pub fn missing(&self) -> Vec<&'static str> {
        self.declared
            .iter()
            .filter(|(n, _)| !self.values.get(*n).is_some_and(|m| m.value.is_finite()))
            .map(|(n, _)| *n)
            .collect()
    }

    /// The collected values.
    pub fn into_map(self) -> BTreeMap<String, Metric> {
        self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
    }

    #[test]
    fn name_check_rejects_bad_names() {
        assert!(valid_name("net.route_src_ms"));
        assert!(valid_name("9lives-x"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    /// The lists above and `BENCHMARK.json` at the repository root name
    /// the same metrics with the same units.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        #[derive(Deserialize)]
        struct Entry {
            name: String,
            unit: String,
        }
        #[derive(Deserialize)]
        struct Bench {
            end_to_end: Vec<Entry>,
            per_layer: Vec<Entry>,
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let bench: Bench = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let pairs = |v: &[Entry]| -> Vec<(String, String)> {
            v.iter().map(|e| (e.name.clone(), e.unit.clone())).collect()
        };
        let declared = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs(&bench.end_to_end), declared(END_TO_END));
        assert_eq!(pairs(&bench.per_layer), declared(PER_LAYER));
    }

    #[test]
    fn metrics_report_what_is_missing() {
        let mut m = Metrics::new(false);
        m.set("wall_s", 1.5);
        m.set("setup_s", f64::NAN);
        assert_eq!(m.missing(), vec!["setup_s", "peak_rss_mb", "model_err_pct"]);
    }

    #[test]
    fn summary_line_has_the_contract_keys_in_order() {
        let mut m = Metrics::new(false);
        m.set("wall_s", 1.25);
        let s = Summary {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: m.into_map(),
        };
        let line = serde_json::to_string(&s).expect("serializes");
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":1.25,"unit":"s"}}}"#
        );
    }
}
