//! Shared drivers for the figure regenerators.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;

use microgrid::apps::npb::{self, NpbBenchmark, NpbClass, NpbResult, NpbSensors};
use microgrid::apps::{Autopilot, WaveToyConfig, WaveToyResult};
use microgrid::desim::time::SimDuration;
use microgrid::desim::{MetricsSnapshot, Simulation};
use microgrid::mpi::MpiParams;
use microgrid::{GridConfig, VirtualGrid};

thread_local! {
    /// Metrics accumulated across every simulation this thread has driven
    /// since the last [`take_metrics`] call.
    static ACCUM: RefCell<MetricsSnapshot> = RefCell::new(MetricsSnapshot::default());
    /// Scenarios submitted through [`run_scenarios`] since the last
    /// [`take_scenario_count`] call — the perf harness records this per
    /// figure so `BENCH_core.json` shows how much within-figure
    /// parallelism each `par` entry actually had to work with.
    static SCENARIOS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Fold one finished simulation's metrics into the thread accumulator.
fn note_run(sim: &Simulation) {
    let snap = sim.obs().metrics().snapshot();
    if !snap.is_empty() {
        ACCUM.with(|a| a.borrow_mut().merge(&snap));
    }
}

/// Take (and reset) the metrics accumulated over all runs since the last
/// call — one figure's worth when called once per figure.
pub fn take_metrics() -> MetricsSnapshot {
    ACCUM.with(|a| std::mem::take(&mut *a.borrow_mut()))
}

/// Which side of a comparison to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// "Physical grid": direct hosts, identity clock.
    Physical,
    /// The MicroGrid: paced hosts, rate-scaled clock.
    MicroGrid,
}

impl Mode {
    /// Both sides, physical first.
    pub fn both() -> [Mode; 2] {
        [Mode::Physical, Mode::MicroGrid]
    }
}

fn build(config: GridConfig, mode: Mode) -> VirtualGrid {
    match mode {
        Mode::Physical => VirtualGrid::build_baseline(config).expect("valid config"),
        Mode::MicroGrid => VirtualGrid::build(config).expect("valid config"),
    }
}

/// Run one NPB benchmark on `config` in `mode`; returns rank 0's result.
pub fn run_npb(config: GridConfig, mode: Mode, bench: NpbBenchmark, class: NpbClass) -> NpbResult {
    run_npb_on_hosts(config, mode, bench, class, None)
}

/// As [`run_npb`], with an explicit host subset (e.g. the 2+2 vBNS
/// placement uses all four hosts, but callers may restrict).
pub fn run_npb_on_hosts(
    config: GridConfig,
    mode: Mode,
    bench: NpbBenchmark,
    class: NpbClass,
    hosts: Option<Vec<String>>,
) -> NpbResult {
    let mut sim = Simulation::new(config.seed ^ 0x5eed);
    apply_profile(&sim);
    let results = sim.block_on(async move {
        let grid = build(config, mode);
        let hosts = hosts.unwrap_or_else(|| grid.host_names());
        grid.mpirun(&hosts, MpiParams::default(), move |comm| {
            Box::pin(npb::run(bench, comm, class, None)) as Pin<Box<dyn Future<Output = NpbResult>>>
        })
        .await
    });
    note_run(&sim);
    results.into_iter().next().expect("rank 0 result")
}

/// Run an NPB benchmark with Autopilot sensors attached to rank 0 and a
/// 1-virtual-second sampling period; returns (result, counter trace).
pub fn run_npb_with_sensors(
    config: GridConfig,
    mode: Mode,
    bench: NpbBenchmark,
    class: NpbClass,
    trace_horizon: SimDuration,
) -> (NpbResult, Vec<(f64, f64)>) {
    let mut sim = Simulation::new(config.seed ^ 0xaa);
    apply_profile(&sim);
    let out = sim.block_on(async move {
        let grid = build(config, mode);
        let ap = Autopilot::new();
        let counter = ap.sensor("counter");
        ap.start_sampling(grid.clock(), SimDuration::from_secs(1), trace_horizon);
        let hosts = grid.host_names();
        let results = grid
            .mpirun(&hosts, MpiParams::default(), move |comm| {
                let sensors = if comm.rank() == 0 {
                    Some(NpbSensors {
                        counter: counter.clone(),
                    })
                } else {
                    None
                };
                Box::pin(npb::run(bench, comm, class, sensors))
                    as Pin<Box<dyn Future<Output = NpbResult>>>
            })
            .await;
        let result = results.into_iter().next().expect("rank 0 result");
        (result, ap.trace("counter"))
    });
    note_run(&sim);
    out
}

/// Run CACTUS WaveToy; returns rank 0's result.
pub fn run_wavetoy(config: GridConfig, mode: Mode, wt: WaveToyConfig) -> WaveToyResult {
    let mut sim = Simulation::new(config.seed ^ 0xcac);
    apply_profile(&sim);
    let results = sim.block_on(async move {
        let grid = build(config, mode);
        let hosts = grid.host_names();
        grid.mpirun(&hosts, MpiParams::default(), move |comm| {
            Box::pin(microgrid::apps::wavetoy::run(comm, wt, None))
                as Pin<Box<dyn Future<Output = WaveToyResult>>>
        })
        .await
    });
    note_run(&sim);
    results.into_iter().next().expect("rank 0 result")
}

/// Fast mode shrinks long experiments (set `MGRID_FAST=1`).
pub fn fast_mode() -> bool {
    std::env::var("MGRID_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Profile mode (`MGRID_PROFILE=1`): every simulation driven by this
/// module records causal spans. The results are unchanged — spans are
/// pure observation — so the perf harness uses this to measure the
/// tracing-on vs tracing-off overhead of the span layer.
pub fn profile_mode() -> bool {
    std::env::var("MGRID_PROFILE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Apply [`profile_mode`] to a fresh simulation.
fn apply_profile(sim: &Simulation) {
    if profile_mode() {
        sim.obs().enable_spans();
    }
}

/// Worker threads for parallel figure regeneration: `MGRID_REPRO_THREADS`
/// if set (minimum 1), otherwise the machine's available parallelism.
pub fn repro_threads() -> usize {
    if let Ok(v) = std::env::var("MGRID_REPRO_THREADS") {
        return v.parse::<usize>().ok().filter(|&n| n >= 1).unwrap_or(1);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Scenario-pool worker count for within-figure parallelism:
/// `MGRID_SHARDS` if set (minimum 1), otherwise 1 — every scenario in
/// order on the calling thread. See `docs/PARALLEL.md` for tuning
/// guidance.
pub fn shard_count() -> usize {
    std::env::var("MGRID_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// A type-erased independent scenario of one figure.
pub type Scenario<R> = Box<dyn FnOnce() -> R + Send>;

/// Run one figure's independent scenarios on the scenario pool
/// ([`mgrid_desim::shard::run_jobs`] via the `microgrid` re-export),
/// honouring [`shard_count`].
///
/// Results come back in submission order and each scenario is a
/// self-contained deterministic simulation, so the figure is
/// byte-identical at every worker count. Per-scenario metrics are captured
/// on the worker that ran the scenario and folded into this thread's
/// accumulator; [`MetricsSnapshot::merge`] is commutative and
/// associative, so the merged figure snapshot is also worker-invariant.
pub fn run_scenarios<R: Send + 'static>(jobs: Vec<Scenario<R>>) -> Vec<R> {
    SCENARIOS.with(|c| c.set(c.get() + jobs.len()));
    let shards = shard_count();
    if shards <= 1 || jobs.len() <= 1 {
        // Sequential path: exactly the historical loop, metrics flow
        // straight into this thread's accumulator via `note_run`.
        return jobs.into_iter().map(|j| j()).collect();
    }
    let wrapped: Vec<_> = jobs
        .into_iter()
        .map(|j| {
            Box::new(move || {
                let r = j();
                (r, take_metrics())
            }) as Box<dyn FnOnce() -> (R, MetricsSnapshot) + Send>
        })
        .collect();
    let mut out = Vec::with_capacity(wrapped.len());
    for (r, snap) in microgrid::desim::shard::run_jobs(shards, wrapped) {
        if !snap.is_empty() {
            ACCUM.with(|a| a.borrow_mut().merge(&snap));
        }
        out.push(r);
    }
    out
}

/// Take (and reset) the number of scenarios submitted through
/// [`run_scenarios`] on this thread since the last call.
pub fn take_scenario_count() -> usize {
    SCENARIOS.with(|c| c.replace(0))
}

/// Class A normally, class S in fast mode.
pub fn class_for_run() -> NpbClass {
    if fast_mode() {
        NpbClass::S
    } else {
        NpbClass::A
    }
}

/// Mean and standard deviation of a sample.
pub fn mean_stddev(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_stddev_basic() {
        let (m, s) = mean_stddev(&[1.0, 2.0, 3.0, 4.0]);
        assert!((m - 2.5).abs() < 1e-12);
        assert!((s - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(mean_stddev(&[]), (0.0, 0.0));
    }

    #[test]
    fn npb_runner_runs_both_modes() {
        for mode in Mode::both() {
            let r = run_npb(
                microgrid::presets::alpha_cluster(),
                mode,
                NpbBenchmark::IS,
                NpbClass::S,
            );
            assert!(r.verified, "{mode:?}: {r:?}");
        }
    }
}
