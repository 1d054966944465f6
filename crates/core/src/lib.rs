//! # microgrid — run Grid applications on arbitrary virtual Grid resources
//!
//! A Rust reproduction of *"The MicroGrid: a Scientific Tool for Modeling
//! Computational Grids"* (Song, Liu, Jakobsen, Bhagwan, Zhang, Taura,
//! Chien — SC2000): an emulation framework in which unmodified Grid
//! applications run on **virtual hosts** with configurable CPU speed and
//! memory, joined by a **simulated network**, while a global coordinator
//! keeps every resource at a coherent simulation rate and applications
//! observe **virtual time**.
//!
//! ```
//! use microgrid::{presets, VirtualGrid};
//! use mgrid_desim::Simulation;
//!
//! let mut sim = Simulation::new(1);
//! let rate = sim.block_on(async {
//!     let grid = VirtualGrid::build(presets::alpha_cluster()).unwrap();
//!     grid.rate()
//! });
//! assert!((rate - 0.9).abs() < 1e-9);
//! ```
//!
//! The crate wires together the substrate crates:
//! [`mgrid_desim`] (deterministic engine), [`mgrid_hostsim`] (CPU/OS/
//! memory models), [`mgrid_netsim`] (NSE-like network), [`mgrid_gis`]
//! (information service), [`mgrid_middleware`] (virtualization +
//! gatekeeper), [`mgrid_mpi`] and [`mgrid_apps`] (workloads).

#![warn(missing_docs)]

pub mod config;
pub mod coordinator;
pub mod grid;
pub mod presets;
pub mod report;

pub use config::{
    ConfigError, GridConfig, LinkConfig, NetworkConfig, RatePolicy, VirtualHostConfig,
};
pub use coordinator::{plan_rate, RatePlan};
pub use grid::VirtualGrid;
pub use report::{ComparisonRow, Report, Series};

// Re-export the substrate crates so downstream users need one dependency.
pub use mgrid_apps as apps;
pub use mgrid_desim as desim;
pub use mgrid_faults as faults;
pub use mgrid_gis as gis;
pub use mgrid_hostsim as hostsim;
pub use mgrid_middleware as middleware;
pub use mgrid_mpi as mpi;
pub use mgrid_netsim as netsim;

#[cfg(test)]
mod tests {
    use super::*;
    use mgrid_apps::npb::{self, NpbBenchmark, NpbClass, NpbResult};
    use mgrid_desim::Simulation;
    use mgrid_mpi::MpiParams;

    #[test]
    fn grid_builds_and_publishes_gis_records() {
        let mut sim = Simulation::new(3);
        sim.block_on(async {
            let grid = VirtualGrid::build(presets::alpha_cluster()).unwrap();
            assert_eq!(grid.host_names().len(), 4);
            let gis = grid.gis();
            let gis = gis.borrow();
            let hosts = gis.search_all(&gis::virtualization::virtual_hosts_filter("Alpha_Cluster"));
            assert_eq!(hosts.len(), 4);
            let rec = hosts[0];
            assert_eq!(rec.get("Is_Virtual_Resource"), Some("Yes"));
            assert!(rec.get("Mapped_Physical_Resource").is_some());
            assert_eq!(rec.get_f64("CpuSpeed"), Some(presets::ALPHA_MOPS));
        });
    }

    #[test]
    fn baseline_is_unpaced() {
        let mut sim = Simulation::new(4);
        sim.block_on(async {
            let grid = VirtualGrid::build_baseline(presets::alpha_cluster()).unwrap();
            assert!(grid.is_baseline());
            assert_eq!(grid.rate(), 1.0);
            let ctx = grid.spawn_process("alpha0", "probe").unwrap();
            let t0 = mgrid_desim::now();
            ctx.compute_mops(presets::ALPHA_MOPS).await; // 1 CPU-second
            let wall = (mgrid_desim::now() - t0).as_secs_f64();
            // Exact up to the 5us context-switch cost of the OS model.
            assert!((wall - 1.0).abs() < 1e-4, "wall {wall}");
        });
    }

    #[test]
    fn microgrid_paces_to_rate() {
        let mut sim = Simulation::new(5);
        sim.block_on(async {
            let grid = VirtualGrid::build(presets::fig17_cluster()).unwrap();
            assert_eq!(grid.rate(), 0.04);
            let ctx = grid.spawn_process("alpha0", "probe").unwrap();
            let t0 = mgrid_desim::now();
            // 1 virtual CPU-second at rate 0.04 => ~25 physical seconds.
            ctx.compute_mops(presets::ALPHA_MOPS).await;
            let wall = (mgrid_desim::now() - t0).as_secs_f64();
            assert!((wall - 25.0).abs() < 1.5, "wall {wall}");
            // And the virtual clock reports ~1 second.
            let virt = ctx.gettimeofday().as_secs_f64();
            assert!((virt - 1.0).abs() < 0.1, "virtual {virt}");
        });
    }

    /// Dynamic virtual time: a mid-run rate change keeps virtual time
    /// continuous and retunes the pacing.
    #[test]
    fn dynamic_rate_change() {
        let mut sim = Simulation::new(8);
        sim.block_on(async {
            let mut config = presets::alpha_cluster();
            config.rate = RatePolicy::Fixed(0.5);
            let grid = VirtualGrid::build(config).unwrap();
            let ctx = grid.spawn_process("alpha0", "probe").unwrap();
            // 0.5 virtual CPU-seconds at rate 0.5: ~1 s wall.
            let t0 = mgrid_desim::now();
            ctx.compute_mops(presets::ALPHA_MOPS / 2.0).await;
            let wall_first = (mgrid_desim::now() - t0).as_secs_f64();
            assert!((wall_first - 1.0).abs() < 0.15, "first {wall_first}");
            let v_mid = ctx.gettimeofday();
            // Slow the whole grid down to rate 0.1 (dynamic virtual time).
            grid.set_rate(0.1);
            let t1 = mgrid_desim::now();
            ctx.compute_mops(presets::ALPHA_MOPS / 10.0).await; // 0.1 virtual s
            let wall_second = (mgrid_desim::now() - t1).as_secs_f64();
            assert!((wall_second - 1.0).abs() < 0.2, "second {wall_second}");
            // Virtual time stayed continuous and advanced ~0.1 s.
            let v_end = ctx.gettimeofday();
            let dv = v_end.saturating_since(v_mid).as_secs_f64();
            assert!((dv - 0.1).abs() < 0.03, "virtual delta {dv}");
        });
    }

    /// The headline validation property (Fig 10/11): MicroGrid virtual
    /// time tracks the physical baseline within a few percent.
    #[test]
    fn microgrid_matches_baseline_on_mg_class_s() {
        fn run(baseline: bool) -> NpbResult {
            let mut sim = Simulation::new(6);
            let results = sim.block_on(async move {
                let config = presets::alpha_cluster();
                let grid = if baseline {
                    VirtualGrid::build_baseline(config).unwrap()
                } else {
                    VirtualGrid::build(config).unwrap()
                };
                grid.mpirun_all(MpiParams::default(), |comm| {
                    Box::pin(npb::run(NpbBenchmark::MG, comm, NpbClass::S, None))
                        as std::pin::Pin<Box<dyn std::future::Future<Output = NpbResult>>>
                })
                .await
            });
            results.into_iter().next().unwrap()
        }
        let phys = run(true);
        let mgrid = run(false);
        assert!(phys.verified && mgrid.verified);
        let err = (mgrid.virtual_seconds - phys.virtual_seconds).abs() / phys.virtual_seconds;
        assert!(
            err < 0.10,
            "MG-S mismatch {:.1}%: phys {:.3}s vs mgrid {:.3}s",
            err * 100.0,
            phys.virtual_seconds,
            mgrid.virtual_seconds
        );
    }
}
