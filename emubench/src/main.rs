//! `emubench` — the seeded end-to-end and per-layer benchmark of the
//! MicroGrid emulator.
//!
//! ```text
//! emubench --workload lan-npb --seed 1 --seconds 25 --trace 0   # end-to-end metrics
//! emubench --workload lan-npb --seed 1 --seconds 25 --trace 1   # per-layer metrics + layer table
//! emubench ... --out result.json                                 # also save result + provenance
//! emubench --compare a.json b.json                               # same-machine comparison only
//! ```
//!
//! The last line printed is the result: `{"correct", "attempted",
//! "failed", "metrics"}`. See `README.md` beside this crate.

mod calib;
mod layers;
mod probes;
mod provenance;
mod report;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use microgrid::desim::profile::Profile;
use microgrid::desim::shard::{default_workers, run_jobs};
use microgrid::presets;

use layers::{LayerCost, Table};
use provenance::{comparable, fnv1a, Provenance};
use report::{Metrics, Record, Summary};
use spans::Spans;
use stats::{chunked_seconds, median};
use workload::{
    emulations, fidelity_reference, fig10_bound, run_emulation, time_builds, Emulation, Mode,
    Outcome, Workload,
};

/// Command-line options of a measuring run.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    "usage: emubench --workload lan-npb|wan-cpu|big-grid --seed N --seconds S --trace 0|1 \
     [--out FILE]\n       emubench --compare A.json B.json"
        .into()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if !["--workload", "--seed", "--seconds", "--trace", "--out"].contains(&flag.as_str()) {
            return Err(format!("unknown flag {flag}"));
        }
        kv.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = Workload::parse(get("--workload")?)
        .ok_or_else(|| format!("unknown workload {:?}", kv["--workload"]))?;
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s >= 1.0)
        .ok_or("--seconds must be a number >= 1")?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out: kv.get("--out").map(PathBuf::from),
    })
}

/// The bookkeeping of operations (emulation runs) and their checks.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    /// First outcome of each emulation label, to check repeats against.
    first: BTreeMap<String, Outcome>,
}

impl Ledger {
    fn fail(&mut self, why: String) {
        eprintln!("check failed: {why}");
        self.failed += 1;
    }

    /// Run one emulation as an operation and apply the per-run checks:
    /// it completes, every rank verifies, and it repeats the first run of
    /// the same emulation exactly (virtual seconds, checksum, counters).
    fn run(&mut self, e: &Emulation, spans: bool) -> Option<Outcome> {
        self.attempted += 1;
        let Ok(o) = catch_unwind(AssertUnwindSafe(|| run_emulation(e, spans))) else {
            self.fail(format!("{} panicked", e.label));
            return None;
        };
        if !o.all_verified {
            self.fail(format!("{} did not verify", e.label));
            return None;
        }
        if let Some(first) = self.first.get(&e.label) {
            if !same_simulation(first, &o) {
                self.fail(format!(
                    "{} differs from its first run: {} vs {} virtual s",
                    e.label, o.result.virtual_seconds, first.result.virtual_seconds
                ));
                return None;
            }
        } else {
            let first = Outcome {
                chunks: Vec::new(),
                ..o.clone()
            };
            self.first.insert(e.label.clone(), first);
        }
        Some(o)
    }

    /// The relative model error of a physical/MicroGrid pair, failing the
    /// MicroGrid operation when it exceeds the paper's Fig 10 bound.
    fn pair_error(&mut self, phys: &Emulation, micro: &Emulation) -> Option<f64> {
        let p = self.first.get(&phys.label)?.result.virtual_seconds;
        let m = self.first.get(&micro.label)?.result.virtual_seconds;
        let err = (m - p).abs() / p;
        let bound = fig10_bound(micro.bench);
        if err > bound {
            self.fail(format!(
                "{}: model error {:.2}% exceeds the Fig 10 bound {:.0}%",
                micro.label,
                err * 100.0,
                bound * 100.0
            ));
        }
        Some(err)
    }
}

/// Identical simulated results: virtual seconds, checksum and counters.
fn same_simulation(a: &Outcome, b: &Outcome) -> bool {
    a.result.virtual_seconds.to_bits() == b.result.virtual_seconds.to_bits()
        && a.result.checksum.to_bits() == b.result.checksum.to_bits()
        && a.counters == b.counters
        && a.polls == b.polls
}

/// The physical/MicroGrid pairs of a list of emulations.
fn pairs(emus: &[Emulation]) -> Vec<(&Emulation, &Emulation)> {
    emus.iter()
        .zip(emus.iter().skip(1))
        .filter(|(p, m)| {
            p.mode == Mode::Physical
                && m.mode == Mode::MicroGrid
                && p.bench == m.bench
                && p.config.seed == m.config.seed
        })
        .collect()
}

/// Run the fidelity pairs of `emus` (those not run yet) and return
/// `(mean, max)` relative model error in percent.
fn model_error(ledger: &mut Ledger, emus: &[Emulation]) -> (f64, f64) {
    let mut errs = Vec::new();
    for (p, m) in pairs(emus) {
        for e in [p, m] {
            if !ledger.first.contains_key(&e.label) {
                ledger.run(e, false);
            }
        }
        if let Some(err) = ledger.pair_error(p, m) {
            errs.push(err * 100.0);
        }
    }
    if errs.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let mean = errs.iter().sum::<f64>() / errs.len() as f64;
    (mean, errs.iter().cloned().fold(0.0, f64::max))
}

/// The workload's own pairs, or the Fig 10 class S reference when it has
/// no physical side.
fn fidelity_emulations(seed: u64, emus: &[Emulation]) -> Vec<Emulation> {
    if pairs(emus).is_empty() {
        fidelity_reference(seed)
    } else {
        emus.to_vec()
    }
}

/// Median host seconds to build every grid of the workload once, over
/// at least 9 repetitions and at least one second.
fn setup_seconds(emus: &[Emulation]) -> f64 {
    let t = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 9 || t.elapsed().as_secs_f64() < 1.0 {
        samples.push(time_builds(emus));
    }
    median(&samples)
}

/// [`setup_seconds`] at the calibration's reference speed.
fn setup_seconds_calibrated(emus: &[Emulation]) -> f64 {
    let before = calib::median_pass(5);
    let s = setup_seconds(emus);
    calib::normalize(s, (before + calib::median_pass(5)) / 2.0)
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The untraced run: set-up, then a closed loop over the workload's
/// emulations for `seconds`, then the fidelity check.
fn run_untraced(args: &Args, emus: &[Emulation], ledger: &mut Ledger) -> Metrics {
    let setup_s = setup_seconds_calibrated(emus);
    let start = Instant::now();
    // Per emulation: raw seconds of its last run, and each repetition's
    // calibrated chunk seconds.
    let mut samples: Vec<(Option<f64>, Vec<Vec<f32>>)> = vec![(None, Vec::new()); emus.len()];
    let mut cal = calib::Calibrator::new();
    for i in 0.. {
        let (last, reps) = &mut samples[i % emus.len()];
        if last.is_some_and(|s| start.elapsed().as_secs_f64() + s > args.seconds) {
            break;
        }
        let outcome = ledger.run(&emus[i % emus.len()], false);
        let factor = cal.factor();
        // A failed emulation was counted by the ledger and adds no sample.
        let Some(o) = outcome else {
            *last = Some(0.0);
            continue;
        };
        *last = Some(o.wall_s);
        reps.push(o.chunks.iter().map(|c| (c * factor) as f32).collect());
    }
    let wall_s: f64 = samples.iter().map(|(_, reps)| chunked_seconds(reps)).sum();
    let (err_mean, _) = model_error(ledger, &fidelity_emulations(args.seed, emus));
    let mut m = Metrics::new(false);
    m.set("wall_s", wall_s);
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("model_err_pct", err_mean);
    m
}

/// Sum of one counter over outcomes.
fn total(outcomes: &[Outcome], name: &str) -> f64 {
    outcomes.iter().map(|o| o.counter(name) as f64).sum()
}

/// The traced run: every emulation once untraced and once with the
/// program's span store on (results must match), the scenario pool, the
/// unit-cost probes, and the layer cost table.
fn run_traced(args: &Args, emus: &[Emulation], ledger: &mut Ledger, sp: &mut Spans) -> Metrics {
    let root = sp.open(format!("workload {}", args.workload.name()), None);

    let (setup_s, _) = sp.time("setup", Some(root), || setup_seconds(emus));

    let mut plain: Vec<Outcome> = Vec::new();
    let mut traced_wall = 0.0;
    let (mut spans_recorded, mut cpu_ns, mut net_ns, mut coll_ns, mut vt_ns) = (0, 0, 0, 0, 0);
    for e in emus {
        let Some(o) = ledger.run(e, false) else {
            continue;
        };
        let [t0, b0, b1, t1] = o.times;
        let id = sp.record(format!("emulation {}", e.label), Some(root), t0, t1);
        sp.record("build", Some(id), b0, b1);
        if let Some(t) = ledger.run(e, true) {
            let [t0, b0, b1, t1] = t.times;
            let id = sp.record(format!("emulation.traced {}", e.label), Some(root), t0, t1);
            sp.record("build", Some(id), b0, b1);
            traced_wall += t.wall_s;
            let snap = t.spans.as_ref().expect("spans were enabled");
            spans_recorded += snap.spans.len();
            let profile = Profile::from_snapshot(snap);
            for lane in &profile.lanes {
                cpu_ns += lane.cpu_ns;
                net_ns += lane.net_ns;
                coll_ns += lane.coll_ns;
                vt_ns += lane.total_ns();
            }
        }
        plain.push(o);
    }
    let measured_s: f64 = plain.iter().map(|o| o.wall_s).sum();

    // The workload's scenarios through the job pool, on every core.
    let pool_speedup = if emus.len() > 1 {
        let jobs: Vec<_> = emus
            .iter()
            .cloned()
            .map(|e| move || run_emulation(&e, false).result.virtual_seconds.to_bits())
            .collect();
        let (bits, id) = sp.time("pool", Some(root), || run_jobs(default_workers(), jobs));
        let serial: Vec<u64> = emus
            .iter()
            .filter_map(|e| ledger.first.get(&e.label))
            .map(|o| o.result.virtual_seconds.to_bits())
            .collect();
        ledger.attempted += bits.len() as u64;
        if bits != serial {
            ledger.fail("pooled scenarios differ from the serial runs".into());
        }
        let s = &sp.spans()[id];
        measured_s / ((s.end_ns - s.start_ns) as f64 * 1e-9)
    } else {
        // One scenario: the pool runs it inline.
        1.0
    };

    let fid = fidelity_emulations(args.seed, emus);
    let ((_, err_max), _) = sp.time("fidelity", Some(root), || model_error(ledger, &fid));

    // Unit-cost probes.
    let probe = sp.open("probes", Some(root));
    let p = Some(probe);
    let (timer_ns, _) = sp.time("probe desim.timer", p, probes::timer_ns);
    let (chan_ns, _) = sp.time("probe desim.chan", p, probes::chan_msg_ns);
    let (packet_ns, _) = sp.time("probe net.packet", p, || probes::packet_ns(timer_ns));
    let (quantum_ns, _) = sp.time("probe hostsim.quantum", p, || probes::quantum_ns(timer_ns));
    let mut lan = presets::alpha_cluster();
    lan.seed = args.seed;
    let (vsock_ns, _) = sp.time("probe middleware.vsock", p, || {
        probes::vsock_msg_ns(&lan, timer_ns, packet_ns)
    });
    let lower = probes::Lower {
        timer_ns,
        packet_ns,
        vsock_ns,
    };
    let (allreduce_4, _) = sp.time("probe mpi.allreduce 4", p, || {
        probes::allreduce_ns(&lan, lower)
    });
    let (allreduce_1024, _) = sp.time("probe mpi.allreduce 1024", p, || {
        probes::allreduce_ns(&workload::big_grid(args.seed), lower)
    });
    let (grid, _) = sp.time("probe route+gis", p, || probes::grid_probe(&emus[0].config));
    let (epoch_ns, _) = sp.time("probe shard.epoch", p, probes::epoch_ns);
    sp.close(probe);

    // The layer cost table.
    let ranks = emus[0].config.virtual_hosts.len();
    let allreduce_ns = if ranks > 64 {
        allreduce_1024
    } else {
        allreduce_4
    };
    let build_ns = setup_s * 1e9 / emus.len() as f64;
    let costs = vec![
        LayerCost {
            layer: "desim",
            unit: "polls",
            count: plain.iter().map(|o| o.polls as f64).sum(),
            unit_ns: timer_ns,
        },
        LayerCost {
            layer: "netsim",
            unit: "packets",
            count: total(&plain, "net.packets_tx"),
            unit_ns: packet_ns,
        },
        LayerCost {
            layer: "routing",
            unit: "sources",
            count: total(&plain, "net.route_src_computed"),
            unit_ns: grid.route_src_ms * 1e6,
        },
        LayerCost {
            layer: "hostsim",
            unit: "quanta",
            count: total(&plain, "sched.quanta"),
            unit_ns: quantum_ns,
        },
        LayerCost {
            layer: "middleware",
            unit: "messages",
            count: total(&plain, "vsock.sends"),
            unit_ns: vsock_ns,
        },
        LayerCost {
            layer: "mpi",
            unit: "rank-colls",
            count: total(&plain, "mpi.collectives"),
            unit_ns: allreduce_ns / ranks as f64,
        },
        LayerCost {
            layer: "core+gis",
            unit: "builds",
            count: emus.len() as f64,
            unit_ns: build_ns,
        },
    ];
    let table = Table::new(costs, measured_s);
    print!("{}", table.render(args.workload.name()));
    sp.close(root);

    let share = |layer: &str| {
        table
            .rows
            .iter()
            .find(|r| r.cost.layer == layer)
            .map_or(f64::NAN, |r| r.share)
    };
    let polls: f64 = plain.iter().map(|o| o.polls as f64).sum();
    let hits = total(&plain, "net.route_cache_hits");
    let misses = total(&plain, "net.route_cache_misses");
    let mut m = Metrics::new(true);
    m.set("desim.polls", polls);
    m.set("desim.host_ns_per_poll", measured_s * 1e9 / polls);
    m.set("desim.timers_purged", total(&plain, "desim.timers_purged"));
    m.set("desim.timer_ns", timer_ns);
    m.set("desim.chan_msg_ns", chan_ns);
    m.set("desim.share", share("desim"));
    m.set("net.packets_tx", total(&plain, "net.packets_tx"));
    m.set("net.packet_ns", packet_ns);
    m.set(
        "net.goodput",
        total(&plain, "vsock.bytes_sent") / total(&plain, "net.bytes_tx"),
    );
    m.set("net.stalls", total(&plain, "net.stalls"));
    m.set("net.drops", total(&plain, "net.drops"));
    m.set("net.share", share("netsim"));
    m.set("net.route_hit_ratio", hits / (hits + misses));
    m.set(
        "net.route_src_computed",
        total(&plain, "net.route_src_computed"),
    );
    m.set("net.route_src_ms", grid.route_src_ms);
    m.set(
        "net.route_bytes",
        plain
            .iter()
            .map(|o| o.route_bytes as f64)
            .fold(0.0, f64::max),
    );
    m.set("net.route_share", share("routing"));
    m.set("sched.quanta", total(&plain, "sched.quanta"));
    m.set("hostsim.quantum_ns", quantum_ns);
    m.set("hostsim.share", share("hostsim"));
    m.set("vsock.sends", total(&plain, "vsock.sends"));
    m.set("middleware.vsock_msg_ns", vsock_ns);
    m.set("middleware.share", share("middleware"));
    m.set("mpi.collectives", total(&plain, "mpi.collectives"));
    m.set("mpi.allreduce_ns_4r", allreduce_4);
    m.set("mpi.allreduce_ns_1024r", allreduce_1024);
    m.set("mpi.share", share("mpi"));
    m.set("core.builds", emus.len() as f64);
    m.set("core.build_ms", build_ns * 1e-6);
    m.set("gis.records", grid.gis_records);
    m.set("gis.search_us", grid.gis_search_us);
    m.set("core.share", share("core+gis"));
    m.set("obs.overhead_ratio", traced_wall / measured_s);
    m.set("obs.spans", spans_recorded as f64);
    m.set("shard.epoch_ns", epoch_ns);
    m.set("shard.pool_speedup", pool_speedup);
    m.set("vt.cpu_share", cpu_ns as f64 / vt_ns as f64);
    m.set("vt.net_share", net_ns as f64 / vt_ns as f64);
    m.set("vt.coll_share", coll_ns as f64 / vt_ns as f64);
    m.set("model.max_err_pct", err_max);
    m.set("layers.predicted_s", table.predicted_s);
    m.set("layers.measured_s", table.measured_s);
    m.set("layers.unexplained_share", table.unexplained_share);
    m
}

/// `emubench --compare A B`: print B/A per metric, refusing results from
/// different machines, workloads or metric sets.
fn compare(a: &str, b: &str) -> Result<(), String> {
    let load = |p: &str| -> Result<Record, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    let (pa, pb) = (&a.provenance, &b.provenance);
    comparable(pa, pb)?;
    println!(
        "{}: {} (seed {}) -> {} (seed {}), machine {}",
        pa.workload, pa.git_rev, pa.seed, pb.git_rev, pb.seed, pa.fingerprint
    );
    for (name, ma) in &a.summary.metrics {
        if let Some(mb) = b.summary.metrics.get(name) {
            println!(
                "{name:<28} {:>14.6} {:>14.6} {:<6} x{:.4}",
                ma.value,
                mb.value,
                ma.unit,
                mb.value / ma.value
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.as_slice() {
            [_, a, b] => match compare(a, b) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("emubench: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("emubench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let emus = emulations(args.workload, args.seed);
    let mut digests: Vec<String> = Vec::new();
    for e in &emus {
        let d = format!("{:016x}", fnv1a(e.config.to_json().as_bytes()));
        if !digests.iter().any(|x| x.ends_with(&d)) {
            digests.push(format!("{}={d}", e.config.name));
        }
    }
    let provenance = Provenance::here(args.workload.name(), args.seed, args.trace, digests);

    let mut ledger = Ledger::default();
    let metrics = if args.trace {
        let mut sp = Spans::new();
        let m = run_traced(&args, &emus, &mut ledger, &mut sp);
        let path = PathBuf::from(format!(
            ".emubench/spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = sp.write_jsonl(&path) {
            eprintln!("emubench: cannot write spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("spans: {} written to {}", sp.spans().len(), path.display());
        m
    } else {
        run_untraced(&args, &emus, &mut ledger)
    };

    let missing = metrics.missing();
    if !missing.is_empty() {
        ledger.fail(format!("metrics not measured: {}", missing.join(", ")));
    }
    let summary = Summary {
        correct: ledger.failed == 0,
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics: metrics.into_map(),
    };
    let record = Record {
        provenance,
        summary,
    };
    if let Some(path) = &args.out {
        let text = serde_json::to_string_pretty(&record).expect("record serializes");
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("emubench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!(
        "provenance {}",
        serde_json::to_string(&record.provenance).expect("provenance serializes")
    );
    println!(
        "{}",
        serde_json::to_string(&record.summary).expect("summary serializes")
    );
    ExitCode::SUCCESS
}
