//! `mgrid` — run Grid workloads on virtual Grids from the command line.
//!
//! ```text
//! mgrid presets                          # list built-in configurations
//! mgrid dump alpha_cluster > grid.json   # write a preset's JSON
//! mgrid validate grid.json               # check a configuration
//! mgrid rate grid.json                   # show the coordinator's plan
//! mgrid run grid.json MG S               # NPB MG class S on the MicroGrid
//! mgrid run grid.json MG S --baseline    # ... on the physical baseline
//! mgrid run grid.json wavetoy 50         # CACTUS WaveToy, 50^3 grid
//! mgrid run grid.json MG S --trace-out trace.jsonl    # + JSON-lines trace
//! mgrid run grid.json MG S --profile-out trace.json   # + Perfetto export
//! ```
//!
//! Every `run` prints a per-category metrics summary (scheduler quanta,
//! network traffic, vsocket and MPI activity) after the result line.
//! Either output option below turns on the span store — the one
//! per-occurrence recorder — and adds `trace.spans` plus per-kind
//! `trace.events.<cat>.<name>` tallies of it to the summary.
//!
//! `--trace-out <path>` writes every recorded span and mark as one JSON
//! object per line once the run ends.
//!
//! `--profile-out <path>` prints the virtual-time profiler attribution
//! table and the critical-path report, then writes a Chrome trace-event
//! JSON file loadable at <https://ui.perfetto.dev> (see
//! `docs/OBSERVABILITY.md`).
//!
//! A run is one [`Simulation::block_on`] on the calling thread.

use std::collections::BTreeMap;
use std::future::Future;
use std::io::Write as _;
use std::pin::Pin;

use microgrid::apps::npb::{self, NpbBenchmark, NpbClass, NpbResult};
use microgrid::apps::wavetoy::{self, WaveToyConfig, WaveToyResult};
use microgrid::desim::metrics::MetricsSnapshot;
use microgrid::desim::obs::Obs;
use microgrid::desim::{perfetto, profile, Simulation, SpanSnapshot};
use microgrid::mpi::MpiParams;
use microgrid::{plan_rate, presets, GridConfig, VirtualGrid};

fn preset_by_name(name: &str) -> Option<GridConfig> {
    match name {
        "alpha_cluster" => Some(presets::alpha_cluster()),
        "alpha_cluster_shared" => Some(presets::alpha_cluster_shared()),
        "hpvm_cluster" => Some(presets::hpvm_cluster()),
        "vbns_oc12" => Some(presets::vbns_grid(622e6)),
        "vbns_oc3" => Some(presets::vbns_grid(155e6)),
        "vbns_10mbps" => Some(presets::vbns_grid(10e6)),
        "fig17_cluster" => Some(presets::fig17_cluster()),
        _ => None,
    }
}

const PRESETS: &[&str] = &[
    "alpha_cluster",
    "alpha_cluster_shared",
    "hpvm_cluster",
    "vbns_oc12",
    "vbns_oc3",
    "vbns_10mbps",
    "fig17_cluster",
];

fn load_config(path_or_preset: &str) -> GridConfig {
    if let Some(c) = preset_by_name(path_or_preset) {
        return c;
    }
    let text = std::fs::read_to_string(path_or_preset).unwrap_or_else(|e| {
        eprintln!("cannot read {path_or_preset}: {e}");
        std::process::exit(2);
    });
    GridConfig::from_json(&text).unwrap_or_else(|e| {
        eprintln!("invalid configuration {path_or_preset}: {e}");
        std::process::exit(2);
    })
}

fn usage() -> ! {
    eprintln!(
        "usage: mgrid <command>\n\
         \x20 presets\n\
         \x20 dump <preset>\n\
         \x20 validate <config.json|preset>\n\
         \x20 rate <config.json|preset>\n\
         \x20 run <config.json|preset> <EP|BT|LU|MG|IS|CG|FT|SP> <S|A> [--baseline]\n\
         \x20 run <config.json|preset> wavetoy <grid-edge> [--baseline]\n\
         \x20 run options: --trace-out <path> --profile-out <path>"
    );
    std::process::exit(2);
}

/// Observability options of `mgrid run`.
struct ObsOpts {
    trace_out: Option<String>,
    profile_out: Option<String>,
}

impl ObsOpts {
    /// Whether the run records spans (either output needs them).
    fn spans(&self) -> bool {
        self.trace_out.is_some() || self.profile_out.is_some()
    }
}

/// Strip `--trace-out`/`--profile-out` from `args`, returning the rest.
fn parse_obs_opts(args: &[String]) -> (Vec<String>, ObsOpts) {
    let mut rest = Vec::new();
    let mut opts = ObsOpts {
        trace_out: None,
        profile_out: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace-out" => {
                let Some(path) = args.get(i + 1) else { usage() };
                opts.trace_out = Some(path.clone());
                i += 2;
            }
            "--profile-out" => {
                let Some(path) = args.get(i + 1) else { usage() };
                opts.profile_out = Some(path.clone());
                i += 2;
            }
            _ => {
                rest.push(args[i].clone());
                i += 1;
            }
        }
    }
    (rest, opts)
}

/// Everything the observability layer recorded, snapshotted at the
/// instant the root workload completed.
struct ObsCapture {
    metrics: MetricsSnapshot,
    spans: SpanSnapshot,
}

/// Snapshot the observability layer. Called as the root workload's
/// final act, while still inside the simulation, so nothing daemons
/// record after the root completes can reach the capture. `tally`
/// adds the `trace.*` counters of the span snapshot to the metrics.
fn capture_obs(obs: &Obs, tally: bool) -> ObsCapture {
    let spans = obs.spans().snapshot();
    if tally {
        let m = obs.metrics();
        m.count("trace.spans", spans.spans.len() as u64);
        if spans.dropped > 0 {
            m.count("trace.spans_dropped", spans.dropped);
        }
        let mut kinds: BTreeMap<(&str, &str), u64> = BTreeMap::new();
        for s in &spans.spans {
            *kinds.entry((s.cat.name(), s.name)).or_default() += 1;
        }
        for ((cat, name), n) in kinds {
            m.count(&format!("trace.events.{cat}.{name}"), n);
        }
    }
    ObsCapture {
        metrics: obs.metrics().snapshot(),
        spans,
    }
}

/// Run `work` as the root task of a fresh simulation under the
/// observability options. Returns the workload results and the
/// observability capture taken at root completion.
fn execute<R: 'static>(
    seed: u64,
    opts: &ObsOpts,
    work: impl Future<Output = Vec<R>> + 'static,
) -> (Vec<R>, ObsCapture) {
    let mut sim = Simulation::new(seed);
    let obs = sim.obs().clone();
    let spans = opts.spans();
    if spans {
        obs.enable_spans();
    }
    sim.block_on(async move {
        let results = work.await;
        (results, capture_obs(&obs, spans))
    })
}

/// Write the span snapshot as JSON lines to `path`.
fn write_trace(spans: &SpanSnapshot, path: &str) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    spans.write_json_lines(&mut w)?;
    w.flush()
}

/// After a run: write the JSON-lines trace, print the profiler
/// attribution and critical-path tables plus write the Perfetto export
/// (when profiling), and print the metrics summary.
fn report_run(capture: &ObsCapture, opts: &ObsOpts) {
    if let Some(path) = &opts.trace_out {
        if let Err(e) = write_trace(&capture.spans, path) {
            eprintln!("cannot write trace to {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "trace: {} spans and marks written to {path}",
            capture.spans.spans.len()
        );
    }
    if let Some(path) = &opts.profile_out {
        let prof = profile::Profile::from_snapshot(&capture.spans);
        println!("-- profile --");
        print!("{}", prof.to_table());
        let cp = profile::critical_path(&capture.spans);
        println!("-- critical path --");
        print!("{}", cp.to_table());
        let json = perfetto::export(&capture.spans);
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write profile to {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "profile: {} spans, {} flows written to {path}",
            capture.spans.spans.len(),
            capture.spans.flows.len()
        );
    }
    if !capture.metrics.is_empty() {
        println!("-- metrics --");
        print!("{}", capture.metrics.to_table());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("presets") => {
            for p in PRESETS {
                println!("{p}");
            }
        }
        Some("dump") => {
            let name = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let Some(c) = preset_by_name(name) else {
                eprintln!("unknown preset {name:?} (try `mgrid presets`)");
                std::process::exit(2);
            };
            println!("{}", c.to_json());
        }
        Some("validate") => {
            let config = load_config(args.get(1).map(String::as_str).unwrap_or_else(|| usage()));
            match config.validate() {
                Ok(()) => println!(
                    "ok: {} ({} virtual hosts)",
                    config.name,
                    config.virtual_hosts.len()
                ),
                Err(e) => {
                    eprintln!("invalid: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some("rate") => {
            let config = load_config(args.get(1).map(String::as_str).unwrap_or_else(|| usage()));
            match plan_rate(&config) {
                Ok(plan) => {
                    println!("feasible rate bound: {:.4}", plan.feasible);
                    println!("chosen rate:         {:.4}", plan.chosen);
                    for (host, bound) in &plan.cpu_bounds {
                        println!("  {host}: <= {bound:.4}");
                    }
                }
                Err(e) => {
                    eprintln!("infeasible: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some("run") => run_cmd(&args[1..]),
        _ => usage(),
    }
}

fn run_cmd(args: &[String]) {
    let (args, obs_opts) = parse_obs_opts(args);
    if args.len() < 2 {
        usage();
    }
    let config = load_config(&args[0]);
    let seed = config.seed;
    let baseline = args.iter().any(|a| a == "--baseline");
    let app = args[1].to_ascii_uppercase();
    let mode = if baseline {
        "physical baseline"
    } else {
        "MicroGrid"
    };
    println!("running {app} on '{}' ({mode})", config.name);

    if app == "WAVETOY" {
        let edge: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(50);
        let wt = WaveToyConfig {
            grid_edge: edge,
            steps: 100,
        };
        let (results, capture) = execute(seed, &obs_opts, async move {
            let grid = build(config, baseline);
            grid.mpirun_all(MpiParams::default(), move |comm| {
                Box::pin(wavetoy::run(comm, wt, None))
                    as Pin<Box<dyn Future<Output = WaveToyResult>>>
            })
            .await
        });
        let r = &results[0];
        println!(
            "wavetoy {}^3: {:.3} virtual s, energy drift {:.4}, verified {}",
            r.grid_edge, r.virtual_seconds, r.energy_drift, r.verified
        );
        report_run(&capture, &obs_opts);
        return;
    }

    let bench = match app.as_str() {
        "EP" => NpbBenchmark::EP,
        "BT" => NpbBenchmark::BT,
        "LU" => NpbBenchmark::LU,
        "MG" => NpbBenchmark::MG,
        "IS" => NpbBenchmark::IS,
        "CG" => NpbBenchmark::CG,
        "FT" => NpbBenchmark::FT,
        "SP" => NpbBenchmark::SP,
        other => {
            eprintln!("unknown application {other:?}");
            std::process::exit(2);
        }
    };
    let class = match args.get(2).map(String::as_str) {
        Some("A") | Some("a") => NpbClass::A,
        _ => NpbClass::S,
    };
    let (results, capture) = execute(seed, &obs_opts, async move {
        let grid = build(config, baseline);
        grid.mpirun_all(MpiParams::default(), move |comm| {
            Box::pin(npb::run(bench, comm, class, None)) as Pin<Box<dyn Future<Output = NpbResult>>>
        })
        .await
    });
    let r = &results[0];
    println!(
        "{} class {}: {:.3} virtual s on {} ranks, verified {}",
        r.benchmark,
        r.class.name(),
        r.virtual_seconds,
        r.ranks,
        r.verified
    );
    report_run(&capture, &obs_opts);
}

fn build(config: GridConfig, baseline: bool) -> VirtualGrid {
    let result = if baseline {
        VirtualGrid::build_baseline(config)
    } else {
        VirtualGrid::build(config)
    };
    result.unwrap_or_else(|e| {
        eprintln!("cannot build grid: {e}");
        std::process::exit(1);
    })
}
