//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use microgrid::desim::time::{SimDuration, SimTime};
use microgrid::desim::vclock::VirtualClock;
use microgrid::desim::{sleep, Simulation};
use microgrid::gis::{Dn, Filter, Record};
use microgrid::netsim::{LinkSpec, NodeId, Topology, TopologyBuilder};

proptest! {
    /// SimTime/SimDuration arithmetic: (t + d) - t == d for all in-range
    /// values.
    #[test]
    fn time_add_sub_roundtrip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(t);
        let d = SimDuration::from_nanos(d);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!((t + d) - d, t);
    }

    /// Duration scaling: mul then div by the same factor is near-identity
    /// (up to rounding of the intermediate nanosecond value).
    #[test]
    fn duration_scale_roundtrip(ns in 1u64..1_000_000_000_000u64, f in 0.01f64..100.0) {
        let d = SimDuration::from_nanos(ns);
        let back = d.mul_f64(f).div_f64(f);
        let err = (back.as_nanos() as i128 - ns as i128).unsigned_abs();
        // One nanosecond of rounding per operation, scaled by 1/f when
        // dividing back.
        let bound = 2 + (1.0 / f).ceil() as u128;
        prop_assert!(err <= bound, "ns={ns} f={f} back={} err={err}", back.as_nanos());
    }
}

proptest! {
    /// The virtual clock is monotone for any positive rate schedule.
    #[test]
    fn vclock_monotone(
        rates in prop::collection::vec(0.01f64..50.0, 1..6),
        probes in prop::collection::vec(0u64..100_000_000_000u64, 1..20),
    ) {
        let clock = VirtualClock::new(rates[0]);
        for (i, r) in rates.iter().enumerate().skip(1) {
            clock.set_rate(SimTime::from_secs_f64(i as f64 * 5.0), *r);
        }
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        let mut prev = SimTime::ZERO;
        for p in sorted {
            let v = clock.virtual_at(SimTime::from_nanos(p));
            prop_assert!(v >= prev);
            prev = v;
        }
    }

    /// DN parse/display round-trips for simple identifiers.
    #[test]
    fn dn_roundtrip(parts in prop::collection::vec("[a-z]{1,8}", 1..5)) {
        let s: Vec<String> = parts.iter().enumerate()
            .map(|(i, p)| format!("ou{i}={p}"))
            .collect();
        let text = s.join(", ");
        let dn = Dn::parse(&text).unwrap();
        prop_assert_eq!(Dn::parse(&dn.to_string()).unwrap(), dn);
    }

    /// De Morgan: !(a & b) == (!a | !b) over arbitrary records.
    #[test]
    fn filter_de_morgan(
        attrs in prop::collection::vec(("[a-d]", "[x-z]{1,3}"), 0..6),
        a_attr in "[a-d]", a_val in "[x-z]{1,3}",
        b_attr in "[a-d]", b_val in "[x-z]{1,3}",
    ) {
        let mut rec = Record::new(Dn::parse("o=test").unwrap());
        for (k, v) in &attrs {
            rec.add(k, v.clone());
        }
        let a = Filter::eq(&a_attr, a_val);
        let b = Filter::eq(&b_attr, b_val);
        let lhs = Filter::not(Filter::and([a.clone(), b.clone()]));
        let rhs = Filter::or([Filter::not(a), Filter::not(b)]);
        prop_assert_eq!(lhs.matches(&rec), rhs.matches(&rec));
    }

    /// Routing: on random connected topologies every host pair routes,
    /// hop-by-hop next-hops agree with the full route, and the path delay
    /// equals the sum of link delays.
    #[test]
    fn routing_consistency(
        n_hosts in 2usize..6,
        extra_edges in prop::collection::vec((0usize..8, 0usize..8, 1u64..60), 0..8),
    ) {
        let mut b = TopologyBuilder::new();
        let hosts: Vec<NodeId> = (0..n_hosts).map(|i| b.host(format!("h{i}"))).collect();
        let routers: Vec<NodeId> = (0..3).map(|i| b.router(format!("r{i}"))).collect();
        let all: Vec<NodeId> = hosts.iter().chain(&routers).copied().collect();
        // A spanning chain guarantees connectivity.
        for w in all.windows(2) {
            b.link(w[0], w[1], LinkSpec::new(1e8, SimDuration::from_millis(1)));
        }
        for (x, y, ms) in extra_edges {
            let a = all[x % all.len()];
            let c = all[y % all.len()];
            if a != c {
                b.link(a, c, LinkSpec::new(1e8, SimDuration::from_millis(ms)));
            }
        }
        let topo = b.build();
        for &s in &hosts {
            for &d in &hosts {
                if s == d { continue; }
                let route = topo.route(s, d).expect("connected");
                prop_assert_eq!(topo.next_hop(s, d), Some(route[0]));
                let sum = route.iter()
                    .map(|l| topo.link_spec(*l).delay)
                    .fold(SimDuration::ZERO, |a, b| a + b);
                prop_assert_eq!(topo.path_delay(s, d), Some(sum));
            }
        }
    }

    /// The demand-driven route cache is byte-identical to an eager
    /// all-pairs computation and to an independent reference.
    ///
    /// Random graphs with every link at the same delay (so equal-cost
    /// ties abound): (a) each cached route is optimal under the
    /// lexicographic `(delay, hops)` cost of an independent
    /// Floyd–Warshall; (b) the full first-hop tables of a lazily queried
    /// topology, an eagerly warmed one (`warm_all_routes`, the old
    /// all-pairs behaviour), and a second same-spec build queried in
    /// reverse order are all identical — tie-breaks depend only on the
    /// topology, never on query order or cache state.
    #[test]
    fn route_cache_matches_reference_all_pairs(
        n_hosts in 2usize..6,
        extra_edges in prop::collection::vec((0usize..9, 0usize..9), 0..10),
    ) {
        let delay = SimDuration::from_millis(1);
        let n = n_hosts + 3;
        // Spanning chain plus random extras, all the same delay.
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        for &(x, y) in &extra_edges {
            let (a, c) = (x % n, y % n);
            if a != c {
                edges.push((a, c));
            }
        }
        let build = || {
            let mut b = TopologyBuilder::new();
            let all: Vec<NodeId> = (0..n)
                .map(|i| if i < n_hosts { b.host(format!("h{i}")) } else { b.router(format!("r{i}")) })
                .collect();
            for &(a, c) in &edges {
                b.link(all[a], all[c], LinkSpec::new(1e8, delay));
            }
            b.build()
        };

        // Independent reference: Floyd–Warshall over (delay_ns, hops).
        let inf = (u64::MAX, u32::MAX);
        let mut dist = vec![vec![inf; n]; n];
        for (d, row) in dist.iter_mut().enumerate() {
            row[d] = (0, 0);
        }
        for &(a, c) in &edges {
            let w = (delay.as_nanos(), 1u32);
            dist[a][c] = dist[a][c].min(w);
            dist[c][a] = dist[c][a].min(w);
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    if dist[i][k] != inf && dist[k][j] != inf {
                        let via = (dist[i][k].0 + dist[k][j].0, dist[i][k].1 + dist[k][j].1);
                        dist[i][j] = dist[i][j].min(via);
                    }
                }
            }
        }

        let lazy = build();
        for (s, dist_s) in dist.iter().enumerate() {
            for (d, &ref_sd) in dist_s.iter().enumerate() {
                if s == d { continue; }
                let route = lazy.route(NodeId(s), NodeId(d));
                if ref_sd == inf {
                    prop_assert_eq!(route, None);
                    continue;
                }
                let route = route.expect("reference says reachable");
                prop_assert_eq!(route.len() as u32, ref_sd.1, "hop count optimal");
                let sum: u64 = route.iter().map(|l| lazy.link_spec(*l).delay.as_nanos()).sum();
                prop_assert_eq!(sum, ref_sd.0, "delay optimal");
            }
        }

        let table = |t: &Topology, pairs: &[(usize, usize)]| -> Vec<Option<microgrid::netsim::LinkId>> {
            pairs.iter().map(|&(s, d)| t.next_hop(NodeId(s), NodeId(d))).collect()
        };
        let pairs: Vec<(usize, usize)> =
            (0..n).flat_map(|s| (0..n).map(move |d| (s, d))).filter(|(s, d)| s != d).collect();
        let mut reversed = pairs.clone();
        reversed.reverse();

        let eager = build();
        eager.warm_all_routes();
        prop_assert_eq!(eager.routed_sources(), n);
        prop_assert_eq!(table(&eager, &pairs), table(&lazy, &pairs), "eager == lazy");

        let second = build();
        let mut from_rev: Vec<_> = table(&second, &reversed);
        from_rev.reverse();
        prop_assert_eq!(from_rev, table(&lazy, &pairs), "query order irrelevant");
    }

    /// The executor delivers timers in order for arbitrary delay sets.
    #[test]
    fn executor_fires_in_time_order(delays in prop::collection::vec(0u64..1_000_000u64, 1..40)) {
        let mut sim = Simulation::new(5);
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        for d in delays {
            let log = log.clone();
            sim.spawn(async move {
                sleep(SimDuration::from_nanos(d)).await;
                log.borrow_mut().push(d);
            });
        }
        sim.run_to_completion();
        let fired = log.borrow().clone();
        let mut sorted = fired.clone();
        sorted.sort_unstable();
        prop_assert_eq!(fired, sorted);
    }
}

/// Double-run determinism backstop: one full figure scenario (an NPB
/// kernel on the alpha-cluster MicroGrid), executed twice from the same
/// seed, must produce byte-identical serialized metrics snapshots. This
/// is the end-to-end check behind the invariants `mgrid-lint` enforces
/// statically (docs/LINTS.md): no wall clock, no entropy-seeded hashers,
/// no ambient randomness, no OS threads in the simulation core.
#[test]
fn same_seed_runs_are_byte_identical() {
    use microgrid::apps::npb::{self, NpbBenchmark, NpbClass, NpbResult};
    use microgrid::mpi::MpiParams;
    use microgrid::{presets, VirtualGrid};
    use std::future::Future;
    use std::pin::Pin;

    fn metrics_digest(seed: u64) -> String {
        let mut sim = Simulation::new(seed);
        let results = sim.block_on(async move {
            let mut config = presets::alpha_cluster();
            config.seed = seed;
            let grid = VirtualGrid::build(config).expect("build");
            grid.mpirun_all(MpiParams::default(), move |comm| {
                Box::pin(npb::run(NpbBenchmark::IS, comm, NpbClass::S, None))
                    as Pin<Box<dyn Future<Output = NpbResult>>>
            })
            .await
        });
        for r in &results {
            assert!(r.verified, "{} failed verification: {r:?}", r.benchmark);
        }
        let snapshot = sim.obs().metrics().snapshot();
        assert!(!snapshot.is_empty(), "scenario recorded no metrics");
        serde_json::to_string(&snapshot).expect("snapshot serializes")
    }

    let first = metrics_digest(42);
    let second = metrics_digest(42);
    assert_eq!(first, second, "same-seed runs diverged");

    // A different seed must actually change the digest, proving the
    // comparison above is sensitive to the stochastic model state and
    // not vacuously equal.
    let other = metrics_digest(43);
    assert_ne!(first, other, "seed does not reach the metrics");
}

/// Sharded-engine backstop for the figure pipeline: the same set of
/// independent scenarios run (a) inline on this thread, (b) through the
/// job pool with one worker, and (c) through the job pool with four
/// workers must produce byte-identical serialized results and metrics,
/// in submission order. This is the property `MGRID_SHARDS` relies on
/// (docs/PARALLEL.md): shard count moves only the wall clock, never a
/// byte of output.
#[test]
fn sharded_job_pool_is_byte_identical_to_sequential() {
    use microgrid::apps::npb::{self, NpbBenchmark, NpbClass, NpbResult};
    use microgrid::desim::shard::run_jobs;
    use microgrid::mpi::MpiParams;
    use microgrid::{presets, VirtualGrid};
    use std::future::Future;
    use std::pin::Pin;

    fn scenario(seed: u64, bench: NpbBenchmark) -> String {
        let mut sim = Simulation::new(seed);
        let results = sim.block_on(async move {
            let mut config = presets::alpha_cluster();
            config.seed = seed;
            let grid = VirtualGrid::build(config).expect("build");
            grid.mpirun_all(MpiParams::default(), move |comm| {
                Box::pin(npb::run(bench, comm, NpbClass::S, None))
                    as Pin<Box<dyn Future<Output = NpbResult>>>
            })
            .await
        });
        let snapshot = sim.obs().metrics().snapshot();
        assert!(!snapshot.is_empty(), "scenario recorded no metrics");
        format!(
            "{results:?}|{}",
            serde_json::to_string(&snapshot).expect("snapshot serializes")
        )
    }

    const CASES: [(u64, NpbBenchmark); 6] = [
        (7, NpbBenchmark::IS),
        (7, NpbBenchmark::EP),
        (11, NpbBenchmark::MG),
        (13, NpbBenchmark::IS),
        (17, NpbBenchmark::EP),
        (19, NpbBenchmark::MG),
    ];

    let jobs = || -> Vec<Box<dyn FnOnce() -> String + Send>> {
        CASES
            .iter()
            .map(|&(seed, bench)| {
                Box::new(move || scenario(seed, bench)) as Box<dyn FnOnce() -> String + Send>
            })
            .collect()
    };

    let inline: Vec<String> = CASES.iter().map(|&(s, b)| scenario(s, b)).collect();
    let one_worker = run_jobs(1, jobs());
    let four_workers = run_jobs(4, jobs());

    assert_eq!(inline, one_worker, "one-worker pool diverged from inline");
    assert_eq!(
        inline, four_workers,
        "four-worker pool diverged from inline"
    );

    // Sensitivity check: every scenario digest is distinct, so the
    // equalities above compare real per-scenario output, not a shared
    // constant.
    let distinct: std::collections::BTreeSet<&String> = inline.iter().collect();
    assert_eq!(distinct.len(), CASES.len(), "scenario digests collide");
}
