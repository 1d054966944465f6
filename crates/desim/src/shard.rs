//! Worker pools for parallel simulation.
//!
//! This is the **one sanctioned parallel runtime** of the simulation core:
//! everything else in `mgrid-desim` is single-threaded by construction
//! (and mgrid-lint's MG005 enforces that). It offers two entry points:
//!
//! * [`run_jobs`] — the scenario pool. Each job is a whole, independent
//!   [`Simulation`]; jobs are claimed from a lock-free ticket counter and
//!   results come back in submission order, so output never depends on
//!   the worker count. The bench layer's `run_scenarios` drives every
//!   figure's independent runs through it under `MGRID_SHARDS`.
//! * [`run_sharded`] — a conservative barrier-epoch engine for *connected*
//!   logical processes (shards). Every shard owns one `Simulation`,
//!   created on its worker thread and never migrated. Shards exchange
//!   timestamped messages through per-`(src, dst)` double-buffered
//!   exchange cells (`crate::exchange`); a message exported at virtual
//!   time `t` must arrive no earlier than `t + lookahead`. Each barrier
//!   round all-reduces every shard's earliest possible activity and
//!   gives each shard its own **horizon** — the earliest instant any
//!   chain of cross-shard messages could still reach it — so empty
//!   virtual time costs one round and a shard with nothing before its
//!   horizon parks without touching its executor. Imports merge into
//!   each shard sorted by `(time, from_shard, seq)`, which makes the run
//!   independent of thread scheduling. No figure or CLI path splits a
//!   grid across shards; the engine's only in-tree callers are the
//!   barrier-round cost probes of `emubench` and `perf`.
//!
//! With `shards = 1` the engine runs entirely inline on the calling
//! thread — no threads, no barriers, no mailboxes — and is the same event
//! loop as [`Simulation::run`].
//!
//! See `docs/PARALLEL.md` for the scenario pool, the horizon fixpoint and
//! the memory-ordering invariants.

use std::cell::{Cell, RefCell};
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;

use crate::exchange::{ExchangeCell, SlotVec};
use crate::executor::Simulation;
use crate::time::{SimDuration, SimTime};

/// How the shards of a plan may communicate.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    shards: usize,
    lookahead: SimDuration,
}

impl ShardPlan {
    /// A plan for `shards` logical processes that exchange messages with
    /// the given conservative lookahead (the minimum virtual latency any
    /// cross-shard message experiences).
    ///
    /// # Panics
    /// Panics if `shards` is zero or `lookahead` is zero — a zero
    /// lookahead admits no safe epoch window and the engine cannot make
    /// progress.
    pub fn connected(shards: usize, lookahead: SimDuration) -> Self {
        assert!(shards > 0, "a plan needs at least one shard");
        assert!(
            !lookahead.is_zero(),
            "conservative sharding requires a strictly positive lookahead"
        );
        ShardPlan { shards, lookahead }
    }
}

/// A timestamped cross-shard message, as seen by the receiving shard.
#[derive(Debug)]
pub struct Import<M> {
    /// Virtual arrival time (the instant the receiver must act on it).
    pub time: SimTime,
    /// Originating shard.
    pub from: usize,
    /// FIFO sequence number on the `(from, to)` mailbox edge.
    pub seq: u64,
    /// The message itself.
    pub msg: M,
}

// Imports merge through a min-heap ordered by (time, from, seq): the
// deterministic tie-break the whole engine's repeatability rests on.
impl<M> PartialEq for Import<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.from, self.seq) == (other.time, other.from, other.seq)
    }
}
impl<M> Eq for Import<M> {}
impl<M> PartialOrd for Import<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Import<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.from, self.seq).cmp(&(other.time, other.from, other.seq))
    }
}

struct Export<M> {
    to: usize,
    import: Import<M>,
}

/// A shard's capability to publish messages to its peers.
///
/// Cheap to clone; hand clones to the simulation tasks that sit on the
/// shard boundary (e.g. netsim's cross-shard link pumps). Exports are
/// buffered locally and shipped at the next epoch barrier, preserving
/// per-edge FIFO order.
pub struct ShardHandle<M> {
    shard_id: usize,
    shards: usize,
    lookahead: SimDuration,
    outbox: Rc<RefCell<Vec<Export<M>>>>,
    /// Per-destination FIFO sequence counters.
    seqs: Rc<Vec<Cell<u64>>>,
}

impl<M> Clone for ShardHandle<M> {
    fn clone(&self) -> Self {
        ShardHandle {
            shard_id: self.shard_id,
            shards: self.shards,
            lookahead: self.lookahead,
            outbox: self.outbox.clone(),
            seqs: self.seqs.clone(),
        }
    }
}

impl<M> ShardHandle<M> {
    fn new(shard_id: usize, plan: &ShardPlan) -> Self {
        ShardHandle {
            shard_id,
            shards: plan.shards,
            lookahead: plan.lookahead,
            outbox: Rc::new(RefCell::new(Vec::new())),
            seqs: Rc::new((0..plan.shards).map(|_| Cell::new(0)).collect()),
        }
    }

    /// This shard's index, `0..shards`.
    pub fn shard_id(&self) -> usize {
        self.shard_id
    }

    /// Total number of shards in the run.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Export `msg` to shard `to`, arriving at virtual time `time`.
    ///
    /// Must be called from inside this shard's simulation (it reads the
    /// simulation clock to check the lookahead contract).
    ///
    /// # Panics
    /// Panics if `time` violates the plan's lookahead — i.e. the message
    /// would arrive inside an epoch window a peer may currently be
    /// executing, which would break determinism.
    pub fn export(&self, to: usize, time: SimTime, msg: M) {
        assert!(to < self.shards, "export to unknown shard {to}");
        assert_ne!(to, self.shard_id, "a shard cannot export to itself");
        let now = crate::executor::now();
        let la_ns = self.lookahead.as_nanos();
        assert!(
            time.as_nanos() >= now.as_nanos().saturating_add(la_ns),
            "lookahead violation: export from shard {} at {now} arriving {time} \
             before the shard-{to} lookahead ({la_ns} ns) elapses",
            self.shard_id,
        );
        let seq = self.seqs[to].get();
        self.seqs[to].set(seq + 1);
        self.outbox.borrow_mut().push(Export {
            to,
            import: Import {
                time,
                from: self.shard_id,
                seq,
                msg,
            },
        });
    }

    fn drain(&self) -> Vec<Export<M>> {
        std::mem::take(&mut self.outbox.borrow_mut())
    }
}

/// Delivery hook of a [`ShardRun`]: applies one import to the shard's
/// simulation.
pub type DeliverFn<M> = Box<dyn FnMut(&mut Simulation, Import<M>)>;

/// Adaptive-lookahead hook of a [`ShardRun`]: consulted once per barrier
/// round with the shard's current virtual time.
pub type LookaheadFn = Box<dyn Fn(SimTime) -> LookaheadAdvice>;

/// Adaptive lookahead advice, published by a shard at each barrier round.
///
/// The static lookahead of a [`ShardPlan`] is a worst-case bound over
/// the whole run. A shard that knows its exports are currently slower
/// can widen everyone's epoch windows by promising a larger bound on
/// its own future exports.
#[derive(Clone, Copy, Debug, Default)]
pub struct LookaheadAdvice {
    /// A lower bound on `arrival − send` for every export this shard
    /// will make while the advice is valid. `None` claims nothing
    /// beyond the plan's static lookahead (always safe); use
    /// `Some(SimDuration::MAX)` for "cannot export at all right now".
    pub out_lookahead: Option<SimDuration>,
    /// Earliest virtual instant at which the claim may stop holding.
    /// `None` means the claim holds forever. The engine never lets any
    /// shard's window cross the earliest published floor, so advice is
    /// always re-sampled before it could go stale.
    pub valid_until: Option<SimTime>,
}

/// What a shard factory hands back to the engine: the simulation to
/// drive, plus the hooks the epoch loop needs.
pub struct ShardRun<M, R> {
    /// The shard's simulation, created on the worker thread.
    pub sim: Simulation,
    /// Called at each barrier for every import addressed to this shard,
    /// in `(time, from, seq)` order. Typical implementations spawn a task
    /// that sleeps until `import.time` and then applies the message.
    pub deliver: DeliverFn<M>,
    /// True once the shard's root work is complete. When every shard
    /// reports done the run ends at the next barrier (mirroring
    /// [`Simulation::block_on`], which stops at root completion).
    pub root_done: Box<dyn Fn() -> bool>,
    /// Optional adaptive-lookahead hook; `None` publishes neutral advice
    /// (the static plan lookahead, always valid).
    pub advise: Option<LookaheadFn>,
    /// Extracts the shard's result after the final epoch.
    pub finish: Box<dyn FnOnce(Simulation) -> R>,
}

/// Per-shard state owned by a worker thread.
struct ShardState<M, R> {
    handle: ShardHandle<M>,
    run: Option<ShardRun<M, R>>,
    /// Imports received but not yet deliverable (arrival beyond the
    /// current horizon), kept as a min-heap on `(time, from, seq)`.
    pending: BinaryHeap<std::cmp::Reverse<Import<M>>>,
}

impl<M, R> ShardState<M, R> {
    /// Earliest local activity: next simulation event or pending import.
    fn local_min(&self) -> Option<SimTime> {
        let sim_next = self.run.as_ref().and_then(|r| r.sim.next_event_time());
        let imp_next = self.pending.peek().map(|std::cmp::Reverse(i)| i.time);
        match (sim_next, imp_next) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Deliver every pending import with `time < horizon`, sorted.
    fn deliver_until(&mut self, horizon: SimTime) {
        let run = self.run.as_mut().expect("shard already finished");
        while let Some(std::cmp::Reverse(head)) = self.pending.peek() {
            if head.time >= horizon {
                break;
            }
            let std::cmp::Reverse(imp) = self.pending.pop().unwrap();
            (run.deliver)(&mut run.sim, imp);
        }
    }
}

/// Shared cross-worker coordination state for one run.
///
/// Everything is exchanged through parity-banked atomics: each round a
/// worker *stores* into the bank selected by the round's parity before
/// the (single) barrier, then every worker *loads* the whole bank after
/// it. The barrier provides the happens-before edge; alternating parity
/// keeps one round's stores from racing the previous round's loads, so
/// no locks are needed anywhere.
struct Exchange<M> {
    barrier: Barrier,
    /// `cells[src * shards + dst]`: the double-banked mailbox of each
    /// directed shard pair.
    cells: Vec<ExchangeCell<Import<M>>>,
    /// Per bank, per shard: local minimum next-event time (nanos,
    /// `u64::MAX` = quiescent).
    mins: [Vec<AtomicU64>; 2],
    /// Per bank, per shard: root completion.
    done: [Vec<AtomicBool>; 2],
    /// Per bank, per shard: advice lookahead in nanos (`0` = no claim
    /// beyond the static plan).
    out_la: [Vec<AtomicU64>; 2],
    /// Per bank, per shard: advice validity floor in nanos
    /// (`u64::MAX` = unbounded).
    floor: [Vec<AtomicU64>; 2],
    /// Set when a worker panicked mid-round; peers drain out at their
    /// next barrier instead of waiting forever.
    failed: AtomicBool,
    /// Barrier rounds executed (every worker counts the same number;
    /// `fetch_max` makes the aggregation order-free).
    epochs: AtomicU64,
    /// Shard-windows that executed events / were idle-parked.
    windows_run: AtomicU64,
    windows_idle: AtomicU64,
}

impl<M> Exchange<M> {
    fn new(shards: usize, workers: usize) -> Self {
        let bank_u64 = || -> [Vec<AtomicU64>; 2] {
            std::array::from_fn(|_| (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect())
        };
        Exchange {
            barrier: Barrier::new(workers),
            cells: (0..shards * shards).map(|_| ExchangeCell::new()).collect(),
            mins: bank_u64(),
            done: std::array::from_fn(|_| (0..shards).map(|_| AtomicBool::new(false)).collect()),
            out_la: bank_u64(),
            floor: bank_u64(),
            failed: AtomicBool::new(false),
            epochs: AtomicU64::new(0),
            windows_run: AtomicU64::new(0),
            windows_idle: AtomicU64::new(0),
        }
    }
}

/// Where a sharded run spent its barrier rounds; see
/// [`run_sharded_stats`]. The perf harness uses this to report
/// epochs/sec and per-epoch barrier overhead.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Barrier rounds executed (one global all-reduce each). Zero for
    /// the inline single-shard path.
    pub epochs: u64,
    /// Shard-windows that actually executed events.
    pub windows_run: u64,
    /// Shard-windows skipped because the shard had nothing before its
    /// horizon: the shard parked on the barrier without its executor
    /// being polled at all.
    pub windows_idle: u64,
}

/// One round's outcome, identical on every worker.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Verdict {
    /// Per-shard horizons (nanos): shard `d` may deliver and execute
    /// strictly below `horizons[d]`.
    Run(Vec<u64>),
    /// Every root completed, or the whole system is quiescent.
    Stop,
}

/// Derive one round's verdict from the published bank.
///
/// `act[s]` starts as shard `s`'s earliest possible activity — its
/// local minimum (`mins`) or the earliest import already in flight to
/// it this round (`arrivals`) — and is relaxed to the fixpoint of
///
/// ```text
/// act[d] = min(act[d], min over s≠d of act[s] + L(s))
/// ```
///
/// where `L(s)` is the plan's lookahead widened by `s`'s adaptive
/// advice. The fixpoint accounts for *transitive* wake-ups: an
/// idle shard is bounded not at infinity but at the cheapest chain of
/// cross-shard messages that could still reach it. Shard `d`'s horizon
/// then excludes `d`'s own activity — its own events cannot produce
/// incoming messages except through a peer, which the fixpoint already
/// prices in. This is what lets a busy shard run far ahead of idle
/// peers instead of everyone marching in lookahead-sized steps, and it
/// strictly dominates the fixed-stride rule (for two shards it yields
/// `m + 2L` instead of `m + L`).
///
/// Every window is finally clamped at the earliest advice-validity
/// floor `C`: advice is re-published each round, so no shard may rely
/// on a claim past the instant it could expire. When `C` is at or below
/// the global minimum `m`, the one-nanosecond window `[m, m+1)` is used
/// instead — always safe, because arrivals carry at least the static
/// lookahead (≥ 1 ns) past their send time, and it guarantees progress.
fn compute_verdict(
    plan: &ShardPlan,
    mins: &[u64],
    arrivals: &[u64],
    done: &[bool],
    out_la: &[u64],
    floors: &[u64],
) -> Verdict {
    if done.iter().all(|&d| d) {
        return Verdict::Stop;
    }
    let n = mins.len();
    let mut act: Vec<u64> = mins.iter().zip(arrivals).map(|(&m, &a)| m.min(a)).collect();
    let m = act.iter().copied().min().unwrap_or(u64::MAX);
    if m == u64::MAX {
        // Quiescent with roots unfinished: a distributed deadlock. Stop
        // and let the caller's `finish` hooks observe the blocked state,
        // exactly as `Simulation::run` leaves blocked tasks pending.
        return Verdict::Stop;
    }
    // Both the static bound and the advice are lower bounds on
    // arrival − send, so their max is one too.
    let la = plan.lookahead.as_nanos();
    let l_eff = |s: usize| la.max(out_la[s]);
    // Relax to the fixpoint; n sweeps suffice (a lowering chain visits
    // each shard at most once — going around a cycle only adds latency).
    for _ in 0..n {
        let mut changed = false;
        for d in 0..n {
            for s in 0..n {
                if s == d {
                    continue;
                }
                let via = act[s].saturating_add(l_eff(s));
                if via < act[d] {
                    act[d] = via;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let c = floors.iter().copied().min().unwrap_or(u64::MAX);
    let clamp = if c <= m { m.saturating_add(1) } else { c };
    let horizons = (0..n)
        .map(|d| {
            let h = (0..n)
                .filter(|&s| s != d)
                .map(|s| act[s].saturating_add(l_eff(s)))
                .min()
                .unwrap_or(u64::MAX);
            h.min(clamp)
        })
        .collect();
    Verdict::Run(horizons)
}

/// Run a sharded simulation to completion and return every shard's
/// result, in shard order.
///
/// `factories[s]` is invoked on shard `s`'s worker thread with that
/// shard's [`ShardHandle`]; it builds the shard's [`Simulation`] (which
/// must be created inside the factory — simulations are pinned to the
/// thread that creates them) and returns the [`ShardRun`] hooks.
///
/// With a single shard the run is executed inline on the calling thread
/// with no synchronization at all; the event sequence is identical to
/// `Simulation::block_on` on the same workload.
///
/// # Examples
/// Two logical processes exchanging timestamped ticks across a 10 ms
/// lookahead edge — the result is independent of worker scheduling:
/// ```
/// use mgrid_desim::shard::{run_sharded, ShardPlan, ShardRun};
/// use mgrid_desim::time::{SimDuration, SimTime};
/// use mgrid_desim::Simulation;
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// let plan = ShardPlan::connected(2, SimDuration::from_millis(10));
/// let out = run_sharded(plan, (0..2).map(|s| {
///     Box::new(move |h: mgrid_desim::shard::ShardHandle<u64>| {
///         let sim = Simulation::new(1);
///         let seen = Rc::new(RefCell::new(Vec::new()));
///         let root = sim.spawn({
///             let h = h.clone();
///             async move {
///                 // Tell the peer at t=0; it hears us 10 ms later.
///                 h.export(1 - s, SimTime::from_nanos(10_000_000), s as u64);
///             }
///         });
///         let seen2 = seen.clone();
///         let seen3 = seen.clone();
///         ShardRun {
///             sim,
///             deliver: Box::new(move |sim, imp| {
///                 let seen = seen2.clone();
///                 sim.spawn(async move {
///                     mgrid_desim::sleep_until(imp.time).await;
///                     seen.borrow_mut().push(imp.msg);
///                 });
///             }),
///             // Done once we sent our tick *and* heard the peer's.
///             root_done: Box::new(move || {
///                 root.is_finished() && !seen3.borrow().is_empty()
///             }),
///             advise: None,
///             finish: Box::new(move |_sim| seen.borrow().clone()),
///         }
///     }) as Box<dyn FnOnce(_) -> _ + Send>
/// }).collect());
/// assert_eq!(out, vec![vec![1u64], vec![0]]);
/// ```
pub fn run_sharded<M, R, F>(plan: ShardPlan, factories: Vec<F>) -> Vec<R>
where
    M: Send + 'static,
    R: Send + 'static,
    F: FnOnce(ShardHandle<M>) -> ShardRun<M, R> + Send + 'static,
{
    run_sharded_stats(plan, factories).0
}

/// [`run_sharded`], additionally returning the engine's [`EpochStats`]
/// (barrier rounds, executed vs. idle-parked shard-windows).
pub fn run_sharded_stats<M, R, F>(plan: ShardPlan, factories: Vec<F>) -> (Vec<R>, EpochStats)
where
    M: Send + 'static,
    R: Send + 'static,
    F: FnOnce(ShardHandle<M>) -> ShardRun<M, R> + Send + 'static,
{
    assert_eq!(
        factories.len(),
        plan.shards,
        "one factory per shard required"
    );
    if plan.shards == 1 {
        // Inline sequential path: byte-identical to Simulation::block_on.
        let handle = ShardHandle::new(0, &plan);
        let factory = factories.into_iter().next().unwrap();
        let mut run = factory(handle);
        let done = run.root_done;
        run.sim.run_until_or(SimTime::MAX, &*done);
        return (vec![(run.finish)(run.sim)], EpochStats::default());
    }

    let workers = plan.shards.min(default_workers().max(1));
    let exchange = Exchange::<M>::new(plan.shards, workers);

    // Hand each worker its statically-assigned factories (shard s runs
    // on worker s % workers, forever — simulations cannot migrate).
    let mut per_worker: Vec<Vec<(usize, F)>> = (0..workers).map(|_| Vec::new()).collect();
    for (s, f) in factories.into_iter().enumerate() {
        per_worker[s % workers].push((s, f));
    }

    let results: SlotVec<R> = SlotVec::new(plan.shards);
    std::thread::scope(|scope| {
        for assigned in per_worker {
            let exchange = &exchange;
            let results = &results;
            let plan = plan.clone();
            scope.spawn(move || {
                // The epoch rounds run under catch_unwind so a panicking
                // worker can release its peers. Invariant: when any
                // worker panics inside `worker_rounds`, every live peer
                // still has at least one barrier wait ahead of it — the
                // round verdict is computed identically everywhere, and
                // nothing between a Stop verdict and loop exit can
                // panic — so the panicked worker contributes exactly one
                // drain wait, after which every peer observes `failed`
                // and drains out instead of blocking forever.
                let rounds = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    worker_rounds(assigned, &plan, exchange)
                }));
                match rounds {
                    Ok(None) => {} // a peer failed; its panic propagates
                    Ok(Some(shards)) => {
                        for (s, mut st) in shards {
                            let run = st.run.take().expect("shard already finished");
                            let out = (run.finish)(run.sim);
                            // SAFETY: shard indices are statically
                            // partitioned across workers, so this thread
                            // is the only writer of slot `s`; the scope
                            // join below publishes the write before the
                            // collecting thread reads it.
                            unsafe { results.put(s, out) };
                        }
                    }
                    Err(p) => {
                        // ORDERING: Release publishes the abort flag;
                        // paired with the Acquire load every worker does
                        // right after the epoch barrier. No payload
                        // beyond the flag itself crosses here, so
                        // SeqCst's total order would buy nothing.
                        exchange.failed.store(true, Ordering::Release);
                        exchange.barrier.wait();
                        std::panic::resume_unwind(p);
                    }
                }
            });
        }
    });
    let stats = EpochStats {
        // ORDERING: Relaxed — read after `thread::scope` joins every
        // worker, which synchronizes all their writes; these are plain
        // post-mortem counters, not a publication edge.
        epochs: exchange.epochs.load(Ordering::Relaxed),
        // ORDERING: Relaxed — same join-synchronized read as above.
        windows_run: exchange.windows_run.load(Ordering::Relaxed),
        // ORDERING: Relaxed — same join-synchronized read as above.
        windows_idle: exchange.windows_idle.load(Ordering::Relaxed),
    };
    let out = results
        .into_inner()
        .into_iter()
        .map(|r| r.expect("shard produced no result"))
        .collect();
    (out, stats)
}

/// Run the event-driven epoch rounds for one worker's shards. Returns
/// the shard states for finishing, or `None` if a peer worker failed.
fn worker_rounds<M, R, F>(
    assigned: Vec<(usize, F)>,
    plan: &ShardPlan,
    exchange: &Exchange<M>,
) -> Option<Vec<(usize, ShardState<M, R>)>>
where
    M: Send + 'static,
    R: Send + 'static,
    F: FnOnce(ShardHandle<M>) -> ShardRun<M, R> + Send + 'static,
{
    let n = plan.shards;
    // Build this worker's shards locally (pinning their simulations to
    // this thread), in ascending shard order.
    let mut shards: Vec<(usize, ShardState<M, R>)> = assigned
        .into_iter()
        .map(|(s, f)| {
            let handle = ShardHandle::new(s, plan);
            let run = f(handle.clone());
            (
                s,
                ShardState {
                    handle,
                    run: Some(run),
                    pending: BinaryHeap::new(),
                },
            )
        })
        .collect();
    // Reusable per-destination export buffers, one set per owned shard.
    let mut scratch: Vec<Vec<Vec<Import<M>>>> = shards
        .iter()
        .map(|_| (0..n).map(|_| Vec::new()).collect())
        .collect();

    let mut rounds: u64 = 0;
    let (mut wrun, mut widle) = (0u64, 0u64);
    loop {
        let parity = (rounds % 2) as usize;
        rounds += 1;
        // Publish this round's bank: per owned shard, exports grouped
        // per destination (timestamp stored even when the batch is
        // empty, so in-flight messages are never invisible to the
        // termination check), local minimum, completion, and advice.
        for ((s, st), bufs) in shards.iter_mut().zip(&mut scratch) {
            for export in st.handle.drain() {
                bufs[export.to].push(export.import);
            }
            for (d, buf) in bufs.iter_mut().enumerate() {
                if d == *s {
                    continue;
                }
                let min_time = buf.iter().map(|i| i.time.as_nanos()).min();
                exchange.cells[*s * n + d].publish(
                    parity,
                    std::mem::take(buf),
                    min_time.unwrap_or(u64::MAX),
                );
            }
            let run = st.run.as_ref().expect("shard already finished");
            let local = st.local_min().map_or(u64::MAX, SimTime::as_nanos);
            // ORDERING: Release on the whole verdict bank (`mins`,
            // `done`, `out_la`, `floor`); paired with the Acquire loads
            // in the bank read below the barrier. The barrier already
            // synchronizes same-epoch readers — Release covers the
            // next-parity writer that overwrites the slot one epoch
            // later without an intervening barrier on that slot.
            exchange.mins[parity][*s].store(local, Ordering::Release);
            // ORDERING: Release — see `mins` above.
            exchange.done[parity][*s].store((run.root_done)(), Ordering::Release);
            let advice = run
                .advise
                .as_ref()
                .map(|f| f(run.sim.now()))
                .unwrap_or_default();
            // ORDERING: Release — see `mins` above.
            exchange.out_la[parity][*s].store(
                advice.out_lookahead.map_or(0, SimDuration::as_nanos),
                Ordering::Release,
            );
            // ORDERING: Release — see `mins` above.
            exchange.floor[parity][*s].store(
                advice.valid_until.map_or(u64::MAX, SimTime::as_nanos),
                Ordering::Release,
            );
        }
        exchange.barrier.wait();
        // ORDERING: Acquire pairs with the Release store in the worker
        // panic path; the barrier already orders the epoch's writes, the
        // Acquire only covers a store racing the barrier itself.
        if exchange.failed.load(Ordering::Acquire) {
            return None;
        }

        // Read the whole bank and derive the verdict. Every worker sees
        // identical values — all stores happened before the barrier, and
        // nobody writes this bank again until after the *next* barrier —
        // so every worker computes the same verdict with no further
        // coordination (and a Stop exits all workers together).
        let read = |v: &[AtomicU64]| -> Vec<u64> {
            // ORDERING: Acquire pairs with the Release stores into the
            // verdict bank above (the closure binding hides the field
            // name from the static pairing audit).
            v.iter().map(|a| a.load(Ordering::Acquire)).collect()
        };
        let mins = read(&exchange.mins[parity]);
        let out_la = read(&exchange.out_la[parity]);
        let floors = read(&exchange.floor[parity]);
        let done: Vec<bool> = exchange.done[parity]
            .iter()
            // ORDERING: Acquire — same verdict-bank pairing as `read`.
            .map(|a| a.load(Ordering::Acquire))
            .collect();
        let arrivals: Vec<u64> = (0..n)
            .map(|d| {
                (0..n)
                    .map(|s| exchange.cells[s * n + d].min_time(parity))
                    .min()
                    .unwrap_or(u64::MAX)
            })
            .collect();
        match compute_verdict(plan, &mins, &arrivals, &done, &out_la, &floors) {
            Verdict::Stop => break,
            Verdict::Run(horizons) => {
                for (d, st) in &mut shards {
                    // Absorb every import published to this shard (the
                    // banks must be empty again before their next use).
                    for s in 0..n {
                        if let Some(batch) = exchange.cells[s * n + *d].take(parity) {
                            for imp in batch {
                                st.pending.push(std::cmp::Reverse(imp));
                            }
                        }
                    }
                    let horizon_ns = horizons[*d];
                    let local = st.local_min().map_or(u64::MAX, SimTime::as_nanos);
                    if local >= horizon_ns {
                        // Idle park: nothing before the horizon — leave
                        // the executor untouched.
                        widle += 1;
                        continue;
                    }
                    wrun += 1;
                    st.deliver_until(SimTime::from_nanos(horizon_ns));
                    let run = st.run.as_mut().expect("shard already finished");
                    run.sim
                        .run_until(SimTime::from_nanos(horizon_ns.saturating_sub(1)));
                }
            }
        }
    }
    // ORDERING: Relaxed — statistics counters; the collecting thread
    // reads them only after `thread::scope` joins this worker, and the
    // RMWs themselves are atomic regardless of ordering.
    exchange.epochs.fetch_max(rounds, Ordering::Relaxed);
    // ORDERING: Relaxed — see `epochs` above.
    exchange.windows_run.fetch_add(wrun, Ordering::Relaxed);
    // ORDERING: Relaxed — see `epochs` above.
    exchange.windows_idle.fetch_add(widle, Ordering::Relaxed);
    Some(shards)
}

/// Run independent jobs on a worker pool and return their results in
/// submission order.
///
/// Jobs are claimed dynamically (a lock-free ticket counter) for load
/// balance; since they are mutually independent and individually
/// deterministic, placement cannot affect any result.
///
/// The pool is clamped to the machine's available parallelism:
/// oversubscribing adds scheduler churn without any win (it showed up
/// as a parallel *regression* on single-core runners). `workers <= 1`
/// — requested or after clamping — runs every job inline on the calling
/// thread, in order, byte-identical to a plain sequential loop.
pub fn run_jobs<R, F>(workers: usize, jobs: Vec<F>) -> Vec<R>
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    let n = jobs.len();
    let workers = workers.min(n).min(default_workers().max(1));
    if workers <= 1 || n <= 1 {
        return jobs.into_iter().map(|j| j()).collect();
    }
    let jobs = SlotVec::from_values(jobs);
    let next = AtomicUsize::new(0);
    let results: SlotVec<R> = SlotVec::new(n);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // ORDERING: Relaxed — the ticket only needs atomicity
                // of the claim; the job closures were published by
                // `SlotVec::from_values` before the threads spawned, and
                // results are published by the scope join.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // SAFETY: the fetch_add above hands index `i` to exactly
                // one worker, so this thread is the sole owner of job and
                // result slot `i`; the scope join publishes the result
                // writes to the collecting thread below.
                let job = unsafe { jobs.take(i) }.expect("job claimed twice");
                let out = job();
                // SAFETY: as above — slot `i` is owned by this worker.
                unsafe { results.put(i, out) };
            });
        }
    });
    results
        .into_inner()
        .into_iter()
        .map(|r| r.expect("job produced no result"))
        .collect()
}

/// The machine's available parallelism (1 if it cannot be determined).
/// [`run_jobs`] and [`run_sharded`] clamp their pools to this.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sleep_until;

    /// A ping-pong workload: `shards` LPs arranged in a ring, each
    /// forwarding a counter to its right neighbour with 5 ms latency
    /// until the counter reaches `rounds`. Returns, per shard, the list
    /// of (arrival_ns, value) pairs it observed.
    fn ring(shards: usize, rounds: u64) -> Vec<Vec<(u64, u64)>> {
        let la = SimDuration::from_millis(5);
        let factories: Vec<_> = (0..shards)
            .map(|_| {
                Box::new(move |h: ShardHandle<u64>| {
                    let sim = Simulation::new(9);
                    let log: Rc<RefCell<Vec<(u64, u64)>>> = Rc::new(RefCell::new(Vec::new()));
                    let done = Rc::new(Cell::new(false));
                    // Shard 0 kicks the ring off.
                    let root = sim.spawn({
                        let h = h.clone();
                        async move {
                            if h.shard_id() == 0 && rounds > 0 {
                                h.export(1 % h.shards(), crate::executor::now() + la, 0);
                            }
                        }
                    });
                    let deliver_log = log.clone();
                    let done2 = done.clone();
                    let finish_log = log.clone();
                    ShardRun {
                        sim,
                        deliver: Box::new(move |sim, imp: Import<u64>| {
                            let h = h.clone();
                            let log = deliver_log.clone();
                            let done = done2.clone();
                            sim.spawn(async move {
                                sleep_until(imp.time).await;
                                log.borrow_mut().push((imp.time.as_nanos(), imp.msg));
                                let next = imp.msg + 1;
                                if next < rounds {
                                    let to = (h.shard_id() + 1) % h.shards();
                                    h.export(to, crate::executor::now() + la, next);
                                } else {
                                    done.set(true);
                                }
                            });
                        }),
                        root_done: Box::new(move || {
                            // The ring terminates when the last hop landed
                            // anywhere; each shard is "done" once its own
                            // root ran and no message of its is pending.
                            root.is_finished() && done.get()
                        }),
                        advise: None,
                        finish: Box::new(move |_| finish_log.borrow().clone()),
                    }
                })
                    as Box<dyn FnOnce(ShardHandle<u64>) -> ShardRun<u64, Vec<(u64, u64)>> + Send>
            })
            .collect();
        run_sharded(ShardPlan::connected(shards, la), factories)
    }

    #[test]
    fn two_shard_ring_is_deterministic() {
        let a = ring(2, 6);
        let b = ring(2, 6);
        assert_eq!(a, b);
        // 6 hops at 5 ms each, alternating shards.
        let all: Vec<_> = {
            let mut v: Vec<_> = a.iter().flatten().copied().collect();
            v.sort_unstable();
            v
        };
        assert_eq!(all.len(), 6);
        assert_eq!(all[0], (5_000_000, 0));
        assert_eq!(all[5], (30_000_000, 5));
    }

    #[test]
    fn shard_counts_agree_on_the_merged_event_log() {
        // The merged (time, value) log must be identical for 2, 3, and 4
        // shards — the engine's core guarantee.
        let merged = |shards: usize| -> Vec<(u64, u64)> {
            let mut v: Vec<_> = ring(shards, 12).iter().flatten().copied().collect();
            v.sort_unstable();
            v
        };
        let two = merged(2);
        assert_eq!(two, merged(3));
        assert_eq!(two, merged(4));
    }

    #[test]
    fn idle_gap_is_crossed_in_a_constant_number_of_epochs() {
        // Two shards, 1 ms lookahead, no messages at all: shard 0 sleeps
        // 10 s, shard 1 sleeps 10 µs. A fixed-stride engine needs ~10 000
        // lookahead-sized epochs to march the floor to 10 s; the
        // event-driven engine must jump there in a handful of rounds,
        // parking shard 0 while shard 1's window runs.
        let plan = ShardPlan::connected(2, SimDuration::from_millis(1));
        let factories: Vec<_> = (0..2)
            .map(|s| {
                Box::new(move |_h: ShardHandle<()>| {
                    let sim = Simulation::new(1);
                    let root = sim.spawn(async move {
                        if s == 0 {
                            crate::sleep(SimDuration::from_secs(10)).await;
                        } else {
                            crate::sleep(SimDuration::from_micros(10)).await;
                        }
                    });
                    ShardRun {
                        sim,
                        deliver: Box::new(|_, _| unreachable!("no messages")),
                        root_done: Box::new(move || root.is_finished()),
                        advise: None,
                        finish: Box::new(|sim| sim.now().as_nanos()),
                    }
                }) as Box<dyn FnOnce(ShardHandle<()>) -> ShardRun<(), u64> + Send>
            })
            .collect();
        let (out, stats) = run_sharded_stats(plan, factories);
        assert_eq!(out[0], 10_000_000_000);
        assert!(
            stats.epochs <= 6,
            "event-driven engine must jump the idle gap, took {} epochs",
            stats.epochs
        );
        assert!(
            stats.windows_idle >= 1,
            "shard 0 should have parked at least once"
        );
    }

    #[test]
    fn verdict_lets_the_busy_shard_run_past_idle_peers() {
        let plan = ShardPlan::connected(2, SimDuration::from_nanos(100));
        let v = compute_verdict(
            &plan,
            &[10, u64::MAX],
            &[u64::MAX; 2],
            &[false; 2],
            &[0; 2],
            &[u64::MAX; 2],
        );
        // Shard 1 is idle but can be woken by shard 0 no earlier than
        // 110; shard 0 therefore runs to 110 + 100 = 210 — double the
        // fixed-stride window m + L.
        assert_eq!(v, Verdict::Run(vec![210, 110]));
    }

    #[test]
    fn verdict_counts_in_flight_arrivals() {
        let plan = ShardPlan::connected(2, SimDuration::from_nanos(100));
        // Both executors quiescent, but an import published this round
        // reaches shard 1 at t=40: not a deadlock.
        let v = compute_verdict(
            &plan,
            &[u64::MAX; 2],
            &[u64::MAX, 40],
            &[false; 2],
            &[0; 2],
            &[u64::MAX; 2],
        );
        assert_eq!(v, Verdict::Run(vec![140, 240]));
    }

    #[test]
    fn verdict_stops_on_completion_and_on_deadlock() {
        let plan = ShardPlan::connected(2, SimDuration::from_nanos(100));
        let all_done = compute_verdict(
            &plan,
            &[5, 5],
            &[u64::MAX; 2],
            &[true, true],
            &[0; 2],
            &[u64::MAX; 2],
        );
        assert_eq!(all_done, Verdict::Stop);
        let deadlock = compute_verdict(
            &plan,
            &[u64::MAX; 2],
            &[u64::MAX; 2],
            &[false, true],
            &[0; 2],
            &[u64::MAX; 2],
        );
        assert_eq!(deadlock, Verdict::Stop);
    }

    #[test]
    fn verdict_clamps_at_the_advice_floor() {
        let plan = ShardPlan::connected(2, SimDuration::from_nanos(100));
        // Shard 0 promises 10 µs of lookahead, valid until t = 500.
        let v = compute_verdict(
            &plan,
            &[10, 400],
            &[u64::MAX; 2],
            &[false; 2],
            &[10_000, 0],
            &[500, u64::MAX],
        );
        assert_eq!(v, Verdict::Run(vec![500, 500]));
        // A floor at or below the global minimum degrades to the safe
        // one-nanosecond window, never to a stalled one.
        let v = compute_verdict(
            &plan,
            &[10, 400],
            &[u64::MAX; 2],
            &[false; 2],
            &[10_000, 0],
            &[10, u64::MAX],
        );
        assert_eq!(v, Verdict::Run(vec![11, 11]));
    }

    #[test]
    fn single_shard_runs_inline_without_threads() {
        let plan = ShardPlan::connected(1, SimDuration::from_millis(1));
        let tid = std::thread::current().id();
        let out = run_sharded::<(), _, _>(
            plan,
            vec![Box::new(move |_h: ShardHandle<()>| {
                assert_eq!(std::thread::current().id(), tid);
                let sim = Simulation::new(3);
                let root = sim.spawn(async {
                    crate::sleep(SimDuration::from_millis(2)).await;
                });
                ShardRun {
                    sim,
                    deliver: Box::new(|_, _| unreachable!("no peers")),
                    root_done: Box::new(move || root.is_finished()),
                    advise: None,
                    finish: Box::new(|sim| sim.now().as_millis()),
                }
            })
                as Box<
                    dyn FnOnce(ShardHandle<()>) -> ShardRun<(), u64> + Send,
                >],
        );
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn lookahead_violation_panics() {
        let plan = ShardPlan::connected(2, SimDuration::from_millis(50));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_sharded::<u8, _, _>(
                plan,
                (0..2)
                    .map(|s| {
                        Box::new(move |h: ShardHandle<u8>| {
                            let sim = Simulation::new(1);
                            let root = sim.spawn({
                                let h = h.clone();
                                async move {
                                    if s == 0 {
                                        // Arrives in 1 ms — inside the 50 ms
                                        // lookahead: must panic.
                                        h.export(1, SimTime::from_nanos(1_000_000), 1);
                                    }
                                }
                            });
                            ShardRun {
                                sim,
                                deliver: Box::new(|_, _| {}),
                                root_done: Box::new(move || root.is_finished()),
                                advise: None,
                                finish: Box::new(|_| ()),
                            }
                        })
                            as Box<dyn FnOnce(ShardHandle<u8>) -> ShardRun<u8, ()> + Send>
                    })
                    .collect(),
            )
        }));
        assert!(caught.is_err(), "lookahead violation must panic");
    }

    #[test]
    fn run_jobs_preserves_submission_order() {
        let jobs: Vec<_> = (0..17)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> i32 + Send>)
            .collect();
        let serial: Vec<_> = (0..17).map(|i| i * i).collect();
        assert_eq!(run_jobs(1, jobs), serial);
        let jobs: Vec<_> = (0..17)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> i32 + Send>)
            .collect();
        assert_eq!(run_jobs(4, jobs), serial);
    }
}
