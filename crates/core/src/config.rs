//! Virtual Grid configuration.
//!
//! A [`GridConfig`] is the complete, serializable description of one
//! virtual Grid experiment: the physical (emulation) hosts, the virtual
//! hosts and their mapping, the virtual network topology, and the
//! simulation-rate policy. It corresponds to the paper's "network
//! configuration files" plus the GIS virtual-resource records that the
//! MicroGrid reads at startup (§2.4.2, Fig 3).

use mgrid_desim::time::SimDuration;
use mgrid_faults::FaultPlan;
use mgrid_hostsim::{PhysicalHostSpec, VirtualHostSpec};
use serde::{Deserialize, Serialize};

/// How the global simulation rate is chosen (paper §2.3).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum RatePolicy {
    /// The maximum feasible rate times a safety factor in `(0, 1]`.
    Auto {
        /// Fraction of the feasible bound actually used.
        safety: f64,
    },
    /// A fixed rate (must not exceed the feasible bound).
    Fixed(f64),
}

impl Default for RatePolicy {
    fn default() -> Self {
        RatePolicy::Auto { safety: 0.95 }
    }
}

/// One virtual host and its mapping.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct VirtualHostConfig {
    /// The host's virtual specification.
    pub spec: VirtualHostSpec,
    /// Name of the physical host carrying it.
    pub mapped_to: String,
}

/// A duplex link between two named nodes (virtual hosts or routers).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LinkConfig {
    /// One end (virtual host or router name).
    pub a: String,
    /// The other end.
    pub b: String,
    /// Bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// FIFO queue capacity in bytes (`None` = default 512 KB).
    pub queue_bytes: Option<u64>,
}

/// The virtual network: routers plus links among named nodes.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Router names (virtual hosts are nodes implicitly).
    pub routers: Vec<String>,
    /// Duplex links.
    pub links: Vec<LinkConfig>,
}

/// A complete virtual Grid description.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GridConfig {
    /// Configuration name (the GIS `Configuration_Name` attribute).
    pub name: String,
    /// Emulation-cluster hosts.
    pub physical_hosts: Vec<PhysicalHostSpec>,
    /// Virtual hosts and their mappings.
    pub virtual_hosts: Vec<VirtualHostConfig>,
    /// The virtual network.
    pub network: NetworkConfig,
    /// Simulation-rate policy.
    pub rate: RatePolicy,
    /// MicroGrid scheduler quantum (paper default 10 ms; Fig 11 sweeps it).
    pub quantum: SimDuration,
    /// Seed for every stochastic model component.
    pub seed: u64,
    /// Scripted fault scenario injected while the grid runs (`None` = no
    /// faults). Ignored on baseline grids: the physical-grid condition has
    /// no fault injector to compare against.
    pub faults: Option<FaultPlan>,
    /// Parsed but ignored: every grid runs in one simulation. The field
    /// stays so that configs written with a `"shards"` key, and code
    /// that builds a `GridConfig` literal with it, keep working.
    pub shards: Option<usize>,
}

/// Configuration validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A virtual host maps to an unknown physical host.
    UnknownPhysicalHost(String),
    /// A link endpoint names no virtual host or router.
    UnknownNode(String),
    /// Duplicate name.
    DuplicateName(String),
    /// A fixed rate exceeds the feasible bound.
    InfeasibleRate {
        /// Requested rate.
        requested: String,
        /// Feasible bound.
        feasible: String,
    },
    /// A host (physical or virtual) declares a non-positive CPU speed,
    /// which would make the coordinator's `C_p / sum(demand)` bound
    /// meaningless (zero demand divides to infinity).
    NonPositiveSpeed(String),
    /// A fault-plan event is malformed: bad parameters or a reference to
    /// a name the grid does not define.
    InvalidFault(String),
    /// A link has a non-finite or non-positive bandwidth, or joins a node
    /// to itself.
    InvalidLink(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::UnknownPhysicalHost(h) => write!(f, "unknown physical host {h:?}"),
            ConfigError::UnknownNode(n) => write!(f, "unknown network node {n:?}"),
            ConfigError::DuplicateName(n) => write!(f, "duplicate name {n:?}"),
            ConfigError::InfeasibleRate {
                requested,
                feasible,
            } => write!(f, "rate {requested} exceeds feasible bound {feasible}"),
            ConfigError::NonPositiveSpeed(h) => {
                write!(f, "host {h:?} declares a non-positive CPU speed")
            }
            ConfigError::InvalidFault(why) => write!(f, "invalid fault plan: {why}"),
            ConfigError::InvalidLink(why) => write!(f, "invalid link: {why}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl GridConfig {
    /// Check referential integrity (names resolve, no duplicates, speeds
    /// positive), that every link has a finite positive bandwidth and two
    /// distinct ends, and, when a fault plan is present, that every fault
    /// has sound parameters and targets a name the grid defines.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let mut seen = mgrid_desim::FxHashSet::default();
        for p in &self.physical_hosts {
            if !seen.insert(p.name.clone()) {
                return Err(ConfigError::DuplicateName(p.name.clone()));
            }
            if p.speed_mops.is_nan() || p.speed_mops <= 0.0 {
                return Err(ConfigError::NonPositiveSpeed(p.name.clone()));
            }
        }
        let mut nodes = mgrid_desim::FxHashSet::default();
        let mut vhosts = mgrid_desim::FxHashSet::default();
        for v in &self.virtual_hosts {
            if !seen.insert(v.spec.name.clone()) || !nodes.insert(v.spec.name.clone()) {
                return Err(ConfigError::DuplicateName(v.spec.name.clone()));
            }
            vhosts.insert(v.spec.name.clone());
            if !self.physical_hosts.iter().any(|p| p.name == v.mapped_to) {
                return Err(ConfigError::UnknownPhysicalHost(v.mapped_to.clone()));
            }
            if v.spec.speed_mops.is_nan() || v.spec.speed_mops <= 0.0 {
                return Err(ConfigError::NonPositiveSpeed(v.spec.name.clone()));
            }
        }
        for r in &self.network.routers {
            if !seen.insert(r.clone()) || !nodes.insert(r.clone()) {
                return Err(ConfigError::DuplicateName(r.clone()));
            }
        }
        for l in &self.network.links {
            for end in [&l.a, &l.b] {
                if !nodes.contains(end) {
                    return Err(ConfigError::UnknownNode(end.clone()));
                }
            }
            if !l.bandwidth_bps.is_finite() || l.bandwidth_bps <= 0.0 {
                return Err(ConfigError::InvalidLink(format!(
                    "{}-{} bandwidth {} b/s is not a finite positive number",
                    l.a, l.b, l.bandwidth_bps
                )));
            }
            if l.a == l.b {
                return Err(ConfigError::InvalidLink(format!(
                    "{}-{} joins a node to itself",
                    l.a, l.b
                )));
            }
        }
        if let Some(plan) = &self.faults {
            plan.check_params().map_err(ConfigError::InvalidFault)?;
            for ev in &plan.events {
                for name in ev.kind.node_refs() {
                    let known = if ev.kind.is_host_fault() {
                        vhosts.contains(name)
                    } else {
                        nodes.contains(name)
                    };
                    if !known {
                        return Err(ConfigError::InvalidFault(format!(
                            "{} targets unknown node {name:?}",
                            ev.kind.name()
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Names of all virtual hosts, in configuration order.
    pub fn virtual_host_names(&self) -> Vec<String> {
        self.virtual_hosts
            .iter()
            .map(|v| v.spec.name.clone())
            .collect()
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serializes")
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GridConfig {
        GridConfig {
            name: "Test_Configuration".into(),
            physical_hosts: vec![PhysicalHostSpec::new("phys0", 533.0, 1 << 30)],
            virtual_hosts: vec![VirtualHostConfig {
                spec: VirtualHostSpec::new("vm0", 100.0, 1 << 27),
                mapped_to: "phys0".into(),
            }],
            network: NetworkConfig {
                routers: vec!["r0".into()],
                links: vec![LinkConfig {
                    a: "vm0".into(),
                    b: "r0".into(),
                    bandwidth_bps: 100e6,
                    delay: SimDuration::from_micros(50),
                    queue_bytes: None,
                }],
            },
            rate: RatePolicy::default(),
            quantum: SimDuration::from_millis(10),
            seed: 1,
            faults: None,
            shards: None,
        }
    }

    #[test]
    fn valid_config_passes() {
        assert_eq!(sample().validate(), Ok(()));
    }

    #[test]
    fn unknown_mapping_rejected() {
        let mut c = sample();
        c.virtual_hosts[0].mapped_to = "ghost".into();
        assert!(matches!(
            c.validate(),
            Err(ConfigError::UnknownPhysicalHost(_))
        ));
    }

    #[test]
    fn unknown_link_endpoint_rejected() {
        let mut c = sample();
        c.network.links[0].b = "nowhere".into();
        assert!(matches!(c.validate(), Err(ConfigError::UnknownNode(_))));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut c = sample();
        c.network.routers.push("vm0".into());
        assert!(matches!(c.validate(), Err(ConfigError::DuplicateName(_))));
    }

    #[test]
    fn nonpositive_speed_rejected() {
        let mut c = sample();
        c.virtual_hosts[0].spec.speed_mops = 0.0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::NonPositiveSpeed("vm0".into()))
        );
        let mut c = sample();
        c.physical_hosts[0].speed_mops = -1.0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::NonPositiveSpeed("phys0".into()))
        );
    }

    #[test]
    fn invalid_link_rejected() {
        for bw in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let mut c = sample();
            c.network.links[0].bandwidth_bps = bw;
            assert!(
                matches!(c.validate(), Err(ConfigError::InvalidLink(_))),
                "bandwidth {bw} accepted"
            );
        }
        let mut c = sample();
        c.network.links[0].b = "vm0".into();
        assert!(matches!(c.validate(), Err(ConfigError::InvalidLink(_))));
    }

    #[test]
    fn build_returns_invalid_link_instead_of_panicking() {
        let mut zero_bw = crate::presets::alpha_cluster();
        zero_bw.network.links[0].bandwidth_bps = 0.0;
        let mut self_link = crate::presets::alpha_cluster();
        let a = self_link.network.links[0].a.clone();
        self_link.network.links[0].b = a;
        for c in [zero_bw, self_link] {
            let mut sim = mgrid_desim::Simulation::new(1);
            let (grid, baseline) = sim.block_on(async move {
                (
                    crate::VirtualGrid::build(c.clone()).err(),
                    crate::VirtualGrid::build_baseline(c).err(),
                )
            });
            assert!(matches!(grid, Some(ConfigError::InvalidLink(_))));
            assert!(matches!(baseline, Some(ConfigError::InvalidLink(_))));
        }
    }

    #[test]
    fn fault_plan_bad_params_rejected() {
        use mgrid_faults::{FaultKind, FaultPlan};
        let mut c = sample();
        c.faults = Some(FaultPlan::new().at(
            SimDuration::from_secs(1),
            FaultKind::LinkLoss {
                a: "vm0".into(),
                b: "r0".into(),
                per_mille: 1500,
            },
        ));
        assert!(matches!(c.validate(), Err(ConfigError::InvalidFault(_))));
    }

    #[test]
    fn fault_targeting_unknown_node_rejected() {
        use mgrid_faults::{FaultKind, FaultPlan};
        let mut c = sample();
        c.faults = Some(FaultPlan::new().at(
            SimDuration::from_secs(1),
            FaultKind::LinkDown {
                a: "vm0".into(),
                b: "ghost".into(),
            },
        ));
        assert!(matches!(c.validate(), Err(ConfigError::InvalidFault(_))));
    }

    #[test]
    fn host_fault_must_target_a_virtual_host() {
        use mgrid_faults::{FaultKind, FaultPlan};
        // Routers are network nodes but not hosts: crashing one is a
        // config error, not a silent no-op.
        let mut c = sample();
        c.faults = Some(FaultPlan::new().at(
            SimDuration::from_secs(1),
            FaultKind::HostCrash { host: "r0".into() },
        ));
        assert!(matches!(c.validate(), Err(ConfigError::InvalidFault(_))));
        let mut ok = sample();
        ok.faults = Some(FaultPlan::new().at(
            SimDuration::from_secs(1),
            FaultKind::HostCrash { host: "vm0".into() },
        ));
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn json_roundtrip() {
        let c = sample();
        let json = c.to_json();
        let back = GridConfig::from_json(&json).unwrap();
        assert_eq!(back.name, c.name);
        assert_eq!(back.virtual_hosts.len(), 1);
        assert_eq!(back.network.links[0].bandwidth_bps, 100e6);
    }
}
