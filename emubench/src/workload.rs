//! The three seeded workloads and the emulation runner.
//!
//! A workload is an ordered list of [`Emulation`]s. Each emulation is one
//! NPB job on one freshly built virtual Grid, driven through the public
//! `microgrid` API exactly as an experimenter would: `VirtualGrid::build`
//! (or `build_baseline`), `mpirun_all`, `apps::npb::run`.

use std::future::Future;
use std::pin::Pin;
use std::time::Instant;

use microgrid::apps::npb::{self, NpbBenchmark, NpbClass, NpbResult};
use microgrid::desim::time::SimDuration;
use microgrid::desim::{SimTime, Simulation, SpanSnapshot};
use microgrid::hostsim::{PhysicalHostSpec, VirtualHostSpec};
use microgrid::mpi::MpiParams;
use microgrid::presets::{self, ALPHA_MOPS};
use microgrid::{
    GridConfig, LinkConfig, NetworkConfig, RatePolicy, VirtualGrid, VirtualHostConfig,
};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig 10 shape: NPB class A EP/BT/LU/MG/IS on the 4-host Alpha
    /// LAN, each in physical and MicroGrid mode.
    LanNpb,
    /// Fig 12 shape: NPB class A LU and MG on the 1 Mb/s, 50 ms star at
    /// 1x and 8x CPU, MicroGrid mode.
    WanCpu,
    /// A seeded 1,024-host ring-of-sites grid running NPB MG class S.
    BigGrid,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::LanNpb, Workload::WanCpu, Workload::BigGrid];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LanNpb => "lan-npb",
            Workload::WanCpu => "wan-cpu",
            Workload::BigGrid => "big-grid",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Which side of a fidelity comparison an emulation runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The "physical grid": virtual specs as real machines, no pacing.
    Physical,
    /// The MicroGrid proper: paced virtual hosts, rate-scaled clock.
    MicroGrid,
}

/// One emulation: one NPB job on one freshly built grid.
#[derive(Clone, Debug)]
pub struct Emulation {
    /// Human label, e.g. `"LU/A micro 8x"`.
    pub label: String,
    /// The grid, with its seed already set.
    pub config: GridConfig,
    /// Physical baseline or MicroGrid.
    pub mode: Mode,
    /// The NPB kernel.
    pub bench: NpbBenchmark,
    /// Problem class.
    pub class: NpbClass,
    /// Seed of the `Simulation` driving this emulation.
    pub sim_seed: u64,
}

/// SplitMix64: the benchmark's own seed expander. Every generated input
/// is a pure function of the `--seed` argument.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Sites on the `big-grid` backbone ring.
pub const BIG_SITES: usize = 32;
/// Hosts behind each `big-grid` site router.
pub const BIG_HOSTS_PER_SITE: usize = 32;

/// Generate the `big-grid` configuration for `seed`: `BIG_SITES` site
/// routers joined in a 1 Gb/s ring whose per-hop delays (1-10 ms) are
/// drawn from the seed, each serving `BIG_HOSTS_PER_SITE` Alpha-class
/// hosts on 100 Mb/s, 50 us access links. Every virtual host has its own
/// emulation host, so the rate is the Alpha cluster's fixed 0.9.
pub fn big_grid(seed: u64) -> GridConfig {
    let mut state = seed ^ 0xb16_6e1d;
    let mut physical_hosts = Vec::with_capacity(BIG_SITES * BIG_HOSTS_PER_SITE);
    let mut virtual_hosts = Vec::with_capacity(BIG_SITES * BIG_HOSTS_PER_SITE);
    let mut routers = Vec::with_capacity(BIG_SITES);
    let mut links = Vec::with_capacity(BIG_SITES * (BIG_HOSTS_PER_SITE + 1));
    for s in 0..BIG_SITES {
        routers.push(format!("site{s}"));
    }
    for s in 0..BIG_SITES {
        let delay_us = 1_000 + splitmix(&mut state) % 9_001;
        links.push(LinkConfig {
            a: routers[s].clone(),
            b: routers[(s + 1) % BIG_SITES].clone(),
            bandwidth_bps: 1e9,
            delay: SimDuration::from_micros(delay_us),
            queue_bytes: None,
        });
    }
    for (s, router) in routers.iter().enumerate() {
        for h in 0..BIG_HOSTS_PER_SITE {
            let name = format!("s{s}h{h}");
            let phys = format!("emu-{s}-{h}");
            physical_hosts.push(PhysicalHostSpec::new(phys.clone(), ALPHA_MOPS, 1 << 30));
            virtual_hosts.push(VirtualHostConfig {
                spec: VirtualHostSpec::new(name.clone(), ALPHA_MOPS, 1 << 30),
                mapped_to: phys,
            });
            links.push(LinkConfig {
                a: name,
                b: router.clone(),
                bandwidth_bps: 100e6,
                delay: SimDuration::from_micros(50),
                queue_bytes: None,
            });
        }
    }
    GridConfig {
        name: "Big_Grid".into(),
        physical_hosts,
        virtual_hosts,
        network: NetworkConfig { routers, links },
        rate: RatePolicy::Fixed(0.9),
        quantum: SimDuration::from_millis(10),
        seed: splitmix(&mut state),
        faults: None,
        shards: None,
    }
}

/// Give a preset its seed: the grid seed and the `Simulation` seed are
/// both drawn from the benchmark seed.
fn seeded(mut config: GridConfig, state: &mut u64) -> (GridConfig, u64) {
    config.seed = splitmix(state);
    (config, splitmix(state))
}

/// The emulations of `workload` under `seed`, in run order. Within a
/// workload a comparison pair shares its grid seed, so the physical and
/// MicroGrid sides see the same inputs.
pub fn emulations(workload: Workload, seed: u64) -> Vec<Emulation> {
    let mut state = seed;
    let mut out = Vec::new();
    match workload {
        Workload::LanNpb => {
            for bench in NpbBenchmark::all() {
                let (config, sim_seed) = seeded(presets::alpha_cluster(), &mut state);
                for mode in [Mode::Physical, Mode::MicroGrid] {
                    out.push(Emulation {
                        label: format!("{}/A {}", bench.name(), mode_name(mode)),
                        config: config.clone(),
                        mode,
                        bench,
                        class: NpbClass::A,
                        sim_seed,
                    });
                }
            }
        }
        Workload::WanCpu => {
            for bench in [NpbBenchmark::LU, NpbBenchmark::MG] {
                for mult in [1.0, 8.0] {
                    let (config, sim_seed) = seeded(presets::cpu_scaled_cluster(mult), &mut state);
                    out.push(Emulation {
                        label: format!("{}/A micro {mult}x", bench.name()),
                        config,
                        mode: Mode::MicroGrid,
                        bench,
                        class: NpbClass::A,
                        sim_seed,
                    });
                }
            }
        }
        Workload::BigGrid => {
            let config = big_grid(seed);
            out.push(Emulation {
                label: "MG/S micro 1024 hosts".into(),
                config,
                mode: Mode::MicroGrid,
                bench: NpbBenchmark::MG,
                class: NpbClass::S,
                sim_seed: splitmix(&mut state),
            });
        }
    }
    out
}

/// Seed replicas in the fidelity reference.
pub const REFERENCE_REPLICAS: u64 = 4;

/// The fidelity reference of workloads that have no physical side of
/// their own: the Fig 10 pairs at class S on the Alpha LAN, in
/// [`REFERENCE_REPLICAS`] replicas seeded from the workload's seed.
pub fn fidelity_reference(seed: u64) -> Vec<Emulation> {
    let mut state = seed ^ 0x5ca1_ab1e;
    let mut emus = Vec::new();
    for r in 0..REFERENCE_REPLICAS {
        for mut e in emulations(Workload::LanNpb, splitmix(&mut state)) {
            e.class = NpbClass::S;
            e.label = format!("{} #{r}", e.label.replace("/A", "/S"));
            emus.push(e);
        }
    }
    emus
}

/// The paper's Fig 10 bound on |MicroGrid - physical| / physical:
/// IS, LU and MG within 2%, EP and BT within 4%.
pub fn fig10_bound(bench: NpbBenchmark) -> f64 {
    match bench {
        NpbBenchmark::EP | NpbBenchmark::BT => 0.04,
        _ => 0.02,
    }
}

/// `"phys"` or `"micro"`.
pub fn mode_name(mode: Mode) -> &'static str {
    match mode {
        Mode::Physical => "phys",
        Mode::MicroGrid => "micro",
    }
}

/// Build the grid of `config` in `mode` (inside a running simulation).
pub fn build_grid(config: GridConfig, mode: Mode) -> VirtualGrid {
    let built = match mode {
        Mode::Physical => VirtualGrid::build_baseline(config),
        Mode::MicroGrid => VirtualGrid::build(config),
    };
    built.expect("generated configs validate")
}

/// What one emulation produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Rank 0's result.
    pub result: NpbResult,
    /// True when every rank's kernel verified.
    pub all_verified: bool,
    /// Host seconds for the whole emulation (build + run).
    pub wall_s: f64,
    /// Host seconds per [`CHUNK`] of simulated time, in order. A seed's
    /// chunks hold the same work on every repetition.
    pub chunks: Vec<f64>,
    /// Executor polls.
    pub polls: u64,
    /// The simulation's counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Route-cache bytes resident when the job ended.
    pub route_bytes: u64,
    /// Spans recorded, when spans were enabled.
    pub spans: Option<SpanSnapshot>,
    /// Host instants: start, build start, build end, end.
    pub times: [Instant; 4],
}

impl Outcome {
    /// Look up one counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }
}

type NpbFuture = Pin<Box<dyn Future<Output = NpbResult>>>;

/// Simulated time between the host-time readings of [`Outcome::chunks`].
pub const CHUNK: SimDuration = SimDuration::from_millis(100);

/// Run one emulation to completion. With `spans` the program's own span
/// store records the run (the traced run's virtual-time attribution).
pub fn run_emulation(e: &Emulation, spans: bool) -> Outcome {
    let mut sim = Simulation::new(e.sim_seed);
    if spans {
        sim.obs().enable_spans();
    }
    let (config, mode, bench, class) = (e.config.clone(), e.mode, e.bench, e.class);
    let t0 = Instant::now();
    let job = sim.spawn(async move {
        let tb0 = Instant::now();
        let grid = build_grid(config, mode);
        let tb1 = Instant::now();
        let results = grid
            .mpirun_all(MpiParams::default(), move |comm| {
                Box::pin(npb::run(bench, comm, class, None)) as NpbFuture
            })
            .await;
        let route_bytes = grid.network().topology().route_bytes_resident() as u64;
        (results, [tb0, tb1], route_bytes)
    });
    let mut chunks = Vec::new();
    let mut until = SimTime::ZERO;
    while !job.is_finished() {
        assert!(
            sim.next_event_time().is_some(),
            "emulation ran out of events (deadlock)"
        );
        until += CHUNK;
        let t = Instant::now();
        sim.run_until_or(until, || job.is_finished());
        chunks.push(t.elapsed().as_secs_f64());
    }
    let t1 = Instant::now();
    let (results, [tb0, tb1], route_bytes) = job.try_take().expect("job finished");
    let all_verified = results.iter().all(|r| r.verified);
    let mut counters = sim.obs().metrics().snapshot().counters;
    counters.sort();
    Outcome {
        result: results.into_iter().next().expect("rank 0 result"),
        all_verified,
        wall_s: (t1 - t0).as_secs_f64(),
        chunks,
        polls: sim.poll_count(),
        counters,
        route_bytes,
        spans: spans.then(|| sim.obs().spans().snapshot()),
        times: [t0, tb0, tb1, t1],
    }
}

/// Host seconds to build every grid of `emus` once (a fresh simulation
/// per build, as each emulation has).
pub fn time_builds(emus: &[Emulation]) -> f64 {
    emus.iter()
        .map(|e| {
            let mut sim = Simulation::new(e.sim_seed);
            let (config, mode) = (e.config.clone(), e.mode);
            sim.block_on(async move {
                let t = Instant::now();
                let grid = build_grid(config, mode);
                let s = t.elapsed().as_secs_f64();
                drop(grid);
                s
            })
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_grid_is_deterministic_and_valid() {
        for seed in [1u64, 2, 7, 42, 0xdead_beef] {
            let a = big_grid(seed);
            let b = big_grid(seed);
            assert_eq!(a.to_json(), b.to_json(), "seed {seed}");
            assert_eq!(a.validate(), Ok(()), "seed {seed}");
            assert_eq!(a.virtual_hosts.len(), BIG_SITES * BIG_HOSTS_PER_SITE);
            assert_eq!(a.network.routers.len(), BIG_SITES);
        }
        assert_ne!(big_grid(1).to_json(), big_grid(2).to_json());
    }

    #[test]
    fn big_grid_delays_stay_in_range() {
        let c = big_grid(9);
        for l in c.network.links.iter().take(BIG_SITES) {
            let us = l.delay.as_micros();
            assert!((1_000..=10_000).contains(&us), "{us}");
        }
    }

    #[test]
    fn emulations_follow_the_seed() {
        for w in Workload::ALL {
            let a = emulations(w, 5);
            let b = emulations(w, 5);
            let c = emulations(w, 6);
            let seeds = |v: &[Emulation]| -> Vec<(u64, u64)> {
                v.iter().map(|e| (e.config.seed, e.sim_seed)).collect()
            };
            assert_eq!(seeds(&a), seeds(&b));
            assert_ne!(seeds(&a), seeds(&c));
        }
    }

    #[test]
    fn workload_names_roundtrip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
