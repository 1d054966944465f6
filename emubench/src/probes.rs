//! Unit-cost probes: small, fixed programs timed around public calls into
//! one layer each. A probe's *self* cost subtracts the lower layers' work
//! it also did (its polls, packets and messages, counted by the
//! simulation itself) at their own probed unit costs.

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::time::Instant;

use microgrid::desim::channel::channel;
use microgrid::desim::shard::{run_sharded_stats, Import, ShardHandle, ShardPlan, ShardRun};
use microgrid::desim::time::SimDuration;
use microgrid::desim::vclock::VirtualClock;
use microgrid::desim::{now, sleep, sleep_until, spawn, SimRng, Simulation};
use microgrid::gis::virtualization::virtual_hosts_filter;
use microgrid::hostsim::{MGridScheduler, OsKernel, OsParams, SchedulerParams};
use microgrid::mpi::MpiParams;
use microgrid::netsim::{LinkSpec, NetParams, Network, Payload, TopologyBuilder};
use microgrid::GridConfig;

use crate::stats::median;
use crate::workload::{build_grid, Mode};

/// Repetitions of each probe; the median is reported.
const REPS: usize = 5;

/// What the simulation counted while a probe ran.
#[derive(Clone, Copy, Debug, Default)]
pub struct Work {
    /// Host nanoseconds.
    pub wall_ns: f64,
    /// Executor polls.
    pub polls: f64,
    /// Packets transmitted.
    pub packets: f64,
    /// Virtual-socket sends.
    pub vsock: f64,
    /// Scheduler quanta granted.
    pub quanta: f64,
}

impl Work {
    fn of(sim: &Simulation, wall_ns: f64) -> Work {
        let m = sim.obs().metrics();
        Work {
            wall_ns,
            polls: sim.poll_count() as f64,
            packets: m.counter("net.packets_tx") as f64,
            vsock: m.counter("vsock.sends") as f64,
            quanta: m.counter("sched.quanta") as f64,
        }
    }

    fn minus(self, o: Work) -> Work {
        Work {
            wall_ns: self.wall_ns - o.wall_ns,
            polls: self.polls - o.polls,
            packets: self.packets - o.packets,
            vsock: self.vsock - o.vsock,
            quanta: self.quanta - o.quanta,
        }
    }
}

/// Self cost per unit: `(total_ns - sum(count * unit_ns of lower
/// layers)) / units`, floored at zero.
pub fn self_unit_ns(total_ns: f64, lower: &[(f64, f64)], units: f64) -> f64 {
    let lower_ns: f64 = lower.iter().map(|(count, unit)| count * unit).sum();
    ((total_ns - lower_ns) / units.max(1.0)).max(0.0)
}

/// Median over [`REPS`] runs of a probe that returns its cost per unit.
fn per_unit(mut probe: impl FnMut() -> f64) -> f64 {
    median(&(0..REPS).map(|_| probe()).collect::<Vec<_>>())
}

/// desim: host ns per timer event (one sleep = one timer + one poll) on
/// an otherwise empty executor.
pub fn timer_ns() -> f64 {
    per_unit(|| {
        let n = 100_000u64;
        let mut sim = Simulation::new(1);
        sim.spawn(async move {
            for i in 0..n {
                sleep(SimDuration::from_nanos(i % 97 + 1)).await;
            }
        });
        let t = Instant::now();
        sim.run();
        t.elapsed().as_nanos() as f64 / sim.poll_count() as f64
    })
}

/// desim: host ns per message through an unbounded channel.
pub fn chan_msg_ns() -> f64 {
    per_unit(|| {
        let n = 100_000u64;
        let mut sim = Simulation::new(1);
        sim.spawn(async move {
            let (tx, rx) = channel();
            spawn(async move {
                for i in 0..n {
                    tx.send(i).await.expect("receiver alive");
                }
            });
            let mut sum = 0u64;
            while let Ok(v) = rx.recv().await {
                sum += v;
            }
            assert_eq!(sum, n * (n - 1) / 2);
        });
        let t = Instant::now();
        sim.run();
        t.elapsed().as_nanos() as f64 / n as f64
    })
}

/// netsim: self host ns per packet of a one-hop bulk transfer.
pub fn packet_ns(timer_ns: f64) -> f64 {
    per_unit(|| {
        let mut sim = Simulation::new(3);
        let t = Instant::now();
        sim.block_on(async move {
            let mut tb = TopologyBuilder::new();
            let a = tb.host("a");
            let z = tb.host("z");
            tb.link(a, z, LinkSpec::fast_ethernet());
            let net = Network::new(tb.build(), VirtualClock::identity(), NetParams::default());
            let rx = net.endpoint(z).bind(1);
            let ep = net.endpoint(a);
            spawn(async move {
                ep.send(z, 1, 1, 8_000_000, Payload::empty())
                    .await
                    .expect("one-hop send succeeds");
            });
            rx.recv().await.expect("message delivered");
        });
        let w = Work::of(&sim, t.elapsed().as_nanos() as f64);
        self_unit_ns(w.wall_ns, &[(w.polls, timer_ns)], w.packets)
    })
}

/// hostsim: self host ns per quantum of the MicroGrid scheduler daemon
/// driving one job through `run_cpu`.
pub fn quantum_ns(timer_ns: f64) -> f64 {
    per_unit(|| {
        let mut sim = Simulation::new(5);
        let t = Instant::now();
        sim.block_on(async move {
            let kernel = OsKernel::new(OsParams::default(), SimRng::new(79));
            let sched = MGridScheduler::start(&kernel, SchedulerParams::default());
            let job = kernel.spawn_process("probe");
            sched.add_job(job.clone(), 0.9);
            job.run_cpu(SimDuration::from_secs(100)).await;
        });
        let w = Work::of(&sim, t.elapsed().as_nanos() as f64);
        self_unit_ns(w.wall_ns, &[(w.polls, timer_ns)], w.quanta)
    })
}

/// Run `body(k)` for `k = lo` and `k = hi` and return the difference:
/// the cost of `hi - lo` extra iterations with set-up and teardown
/// cancelled out.
fn differential(mut body: impl FnMut(usize) -> Work, lo: usize, hi: usize) -> Work {
    let a = body(lo);
    let b = body(hi);
    b.minus(a)
}

/// middleware: self host ns per virtual-socket message (a 64-byte
/// `send_to` and its `recv` between two Alpha-cluster hosts), net of its
/// packets and polls.
pub fn vsock_msg_ns(config: &GridConfig, timer_ns: f64, packet_ns: f64) -> f64 {
    let run = |k: usize| {
        let mut sim = Simulation::new(config.seed);
        let config = config.clone();
        let t = Instant::now();
        sim.block_on(async move {
            let grid = build_grid(config, Mode::Physical);
            let hosts = grid.host_names();
            let tx = grid.spawn_process(&hosts[0], "probe-tx").expect("memory");
            let rx = grid.spawn_process(&hosts[1], "probe-rx").expect("memory");
            let tx_sock = tx.bind(7000);
            let rx_sock = rx.bind(7001);
            let dst = hosts[1].clone();
            let sender = spawn(async move {
                for _ in 0..k {
                    tx_sock
                        .send_to(&dst, 7001, 64, Payload::empty())
                        .await
                        .expect("LAN send succeeds");
                }
            });
            for _ in 0..k {
                rx_sock.recv().await.expect("message arrives");
            }
            sender.await;
        });
        Work::of(&sim, t.elapsed().as_nanos() as f64)
    };
    per_unit(|| {
        let d = differential(run, 500, 2_500);
        self_unit_ns(
            d.wall_ns,
            &[(d.polls, timer_ns), (d.packets, packet_ns)],
            d.vsock,
        )
    })
}

/// The lower-layer unit costs an MPI probe is net of.
#[derive(Clone, Copy, Debug)]
pub struct Lower {
    /// desim ns per poll.
    pub timer_ns: f64,
    /// netsim ns per packet.
    pub packet_ns: f64,
    /// middleware ns per message.
    pub vsock_ns: f64,
}

/// mpi: self host ns per whole `allreduce` over every host of `config`
/// (physical mode), net of its messages, packets and polls.
pub fn allreduce_ns(config: &GridConfig, lower: Lower) -> f64 {
    type Body = Pin<Box<dyn Future<Output = ()>>>;
    let run = |k: usize| {
        let mut sim = Simulation::new(config.seed);
        let config = config.clone();
        let t = Instant::now();
        sim.block_on(async move {
            let grid = build_grid(config, Mode::Physical);
            grid.mpirun_all(MpiParams::default(), move |comm| {
                Box::pin(async move {
                    for i in 0..k {
                        let sum = comm
                            .allreduce(i as f64, 8, |a: &f64, b: &f64| a + b)
                            .await
                            .expect("allreduce succeeds");
                        assert_eq!(sum, (i * comm.size()) as f64);
                    }
                }) as Body
            })
            .await;
        });
        Work::of(&sim, t.elapsed().as_nanos() as f64)
    };
    let reps = if config.virtual_hosts.len() > 64 {
        3
    } else {
        REPS
    };
    let (lo, hi) = if config.virtual_hosts.len() > 64 {
        (2, 6)
    } else {
        (20, 220)
    };
    median(
        &(0..reps)
            .map(|_| {
                let d = differential(run, lo, hi);
                self_unit_ns(
                    d.wall_ns,
                    &[
                        (d.polls, lower.timer_ns),
                        (d.packets, lower.packet_ns),
                        (d.vsock, lower.vsock_ns),
                    ],
                    (hi - lo) as f64,
                )
            })
            .collect::<Vec<_>>(),
    )
}

/// Routing and GIS costs measured on one freshly built grid.
#[derive(Clone, Copy, Debug)]
pub struct GridProbe {
    /// Host ms per cold route source (`Topology::warm_routes_from`).
    pub route_src_ms: f64,
    /// Records the grid published into its GIS.
    pub gis_records: f64,
    /// Host us per GIS search for the grid's virtual hosts.
    pub gis_search_us: f64,
}

/// Warm every route source of a fresh `config` grid and search its GIS.
pub fn grid_probe(config: &GridConfig) -> GridProbe {
    let samples: Vec<GridProbe> = (0..REPS)
        .map(|_| {
            let mut sim = Simulation::new(config.seed);
            let config = config.clone();
            sim.block_on(async move {
                let filter = virtual_hosts_filter(&config.name);
                let grid = build_grid(config, Mode::MicroGrid);
                let topo = grid.network().topology();
                let t = Instant::now();
                for node in 0..topo.node_count() {
                    topo.warm_routes_from(microgrid::netsim::NodeId(node));
                }
                let route_src_ms = t.elapsed().as_secs_f64() * 1e3 / topo.node_count() as f64;
                let gis = grid.gis();
                let gis = gis.borrow();
                let searches = 200;
                let t = Instant::now();
                for _ in 0..searches {
                    let found = gis.search_all(&filter).len();
                    assert_eq!(found, grid.host_names().len());
                }
                GridProbe {
                    route_src_ms,
                    gis_records: gis.len() as f64,
                    gis_search_us: t.elapsed().as_secs_f64() * 1e6 / searches as f64,
                }
            })
        })
        .collect();
    GridProbe {
        route_src_ms: median(&samples.iter().map(|p| p.route_src_ms).collect::<Vec<_>>()),
        gis_records: samples[0].gis_records,
        gis_search_us: median(&samples.iter().map(|p| p.gis_search_us).collect::<Vec<_>>()),
    }
}

/// shard: host ns per barrier round of the 2-shard conservative engine,
/// from a ping-pong where every round carries one cross-shard hop.
pub fn epoch_ns() -> f64 {
    per_unit(|| {
        const HOPS: u64 = 400;
        let la = SimDuration::from_micros(10);
        let plan = ShardPlan::connected(2, la);
        let factories: Vec<_> = (0..2usize)
            .map(|s| {
                Box::new(move |h: ShardHandle<u64>| {
                    let sim = Simulation::new(11);
                    let done = Rc::new(Cell::new(false));
                    let root = sim.spawn({
                        let h = h.clone();
                        async move {
                            if s == 0 {
                                h.export(1, now() + la, 0);
                            }
                        }
                    });
                    let done2 = done.clone();
                    ShardRun {
                        sim,
                        deliver: Box::new(move |sim, imp: Import<u64>| {
                            let h = h.clone();
                            let done = done2.clone();
                            sim.spawn(async move {
                                sleep_until(imp.time).await;
                                if imp.msg + 1 < HOPS {
                                    h.export(1 - h.shard_id(), now() + la, imp.msg + 1);
                                } else {
                                    done.set(true);
                                }
                            });
                        }),
                        root_done: Box::new(move || root.is_finished() && done.get()),
                        advise: None,
                        finish: Box::new(|_| ()),
                    }
                }) as Box<dyn FnOnce(ShardHandle<u64>) -> ShardRun<u64, ()> + Send>
            })
            .collect();
        let t = Instant::now();
        let (_, stats) = run_sharded_stats(plan, factories);
        t.elapsed().as_nanos() as f64 / stats.epochs.max(1) as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_cost_subtracts_lower_layers() {
        // 1,000 ns over 10 units, of which 20 polls at 10 ns and 5
        // packets at 40 ns belong to lower layers.
        let unit = self_unit_ns(1_000.0, &[(20.0, 10.0), (5.0, 40.0)], 10.0);
        assert!((unit - 60.0).abs() < 1e-9, "{unit}");
        // Lower layers explaining more than the total floor at zero.
        assert_eq!(self_unit_ns(100.0, &[(20.0, 10.0)], 10.0), 0.0);
    }
}
