//! The single-threaded deterministic async executor.
//!
//! Tasks are ordinary Rust futures. Time only advances when every runnable
//! task has been polled to a blocked state; the executor then pops the
//! earliest timer from the event queue and jumps the clock to it. Events at
//! equal instants are ordered by registration sequence number, so a given
//! program + seed always produces the same trace.
//!
//! The executor is deliberately `!Send`: a simulation lives on one thread
//! and uses `Rc`/`RefCell` internally. Parallelism across *simulations*
//! (e.g. the parallel figure regeneration in `mgrid-bench`) is still
//! possible because each `Simulation` is self-contained.
//!
//! ## Storage layout (hot-path design)
//!
//! Everything per-event is slab-indexed rather than hash-mapped:
//!
//! * **Tasks** live in a generation-tagged slab (`Vec<TaskSlot>` + free
//!   list). A [`TaskId`] packs `slot | generation`, so a stale wake for a
//!   completed task is rejected by a generation compare instead of a hash
//!   probe, and spawn/complete never allocate map nodes.
//! * **Task wakers** are created once per task and cached in its slot;
//!   a poll moves the cached waker out of the slot and back afterwards,
//!   so polling touches no reference count.
//! * **Timers** live in a generation-tagged slab addressed by a private
//!   `TimerHandle`, and an indexed binary heap orders them by
//!   `(deadline, registration seq)`. Each slot records its heap position,
//!   so cancelling removes the entry at once (O(log n)) and the heap
//!   holds only live timers. A timer armed with the waker of the task
//!   being polled stores that task's [`TaskId`]: firing it pushes the id
//!   onto the ready queue, exactly what the task's waker would do,
//!   without keeping a waker clone. Any other waker is stored as is, and
//!   re-arming skips the store when the target is unchanged.
//! * The **ready queue** is a plain `VecDeque` behind an owner-thread
//!   assertion instead of a `Mutex`: wakers are nominally `Send + Sync`,
//!   but every task of a `!Send` simulation runs on the thread that owns
//!   it, so the queue is never actually shared. The assertion compares
//!   against a thread id cached in a thread-local and turns any future
//!   violation of that invariant into a panic rather than a race.

use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, RawWakerVTable, Wake, Waker};
use std::thread::ThreadId;

use crate::obs::Obs;
use crate::rng::{SharedRng, SimRng};
use crate::time::{SimDuration, SimTime};

/// Identifier of a spawned task: a slab slot in the low 32 bits and the
/// slot's generation in the high 32 bits. Identifiers are unique within a
/// simulation for its whole lifetime; comparing ids from different
/// simulations is meaningless.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TaskId(u64);

impl TaskId {
    fn new(slot: u32, gen: u32) -> Self {
        TaskId((u64::from(gen) << 32) | u64::from(slot))
    }
    fn slot(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }
    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

type BoxedFuture = Pin<Box<dyn Future<Output = ()>>>;

/// The executor's run queue, shared with every task waker.
///
/// Wakers must be `Send + Sync` by contract, but a simulation is `!Send`
/// and all of its tasks run on the owning thread, so the queue is never
/// actually accessed concurrently. Instead of paying an uncontended
/// `Mutex` lock/unlock on every wake and every poll, accesses assert the
/// owner thread and then use the queue directly; a waker smuggled to
/// another thread panics instead of racing.
struct ReadyQueue {
    owner: ThreadId,
    queue: UnsafeCell<VecDeque<TaskId>>,
}

// SAFETY: all accesses go through `with`, which panics unless running on
// the thread that created the queue, so the UnsafeCell contents are only
// ever touched single-threaded even if the owning Arc moves threads.
unsafe impl Send for ReadyQueue {}
// SAFETY: same invariant as Send — shared references only reach the
// queue through `with`'s owner-thread assertion, so there is never a
// concurrent access for Sync to make unsound.
unsafe impl Sync for ReadyQueue {}

thread_local! {
    /// This thread's id. `std::thread::current()` clones the thread's
    /// handle on every call, too slow for a check made on each wake and
    /// poll.
    static THREAD_ID: ThreadId = std::thread::current().id();
}

impl ReadyQueue {
    fn new() -> Arc<Self> {
        Arc::new(ReadyQueue {
            owner: THREAD_ID.with(|id| *id),
            queue: UnsafeCell::new(VecDeque::with_capacity(64)),
        })
    }

    #[inline]
    fn with<R>(&self, f: impl FnOnce(&mut VecDeque<TaskId>) -> R) -> R {
        assert_eq!(
            THREAD_ID.with(|id| *id),
            self.owner,
            "simulation waker used off the simulation's own thread"
        );
        // SAFETY: single-threaded by the assertion above; the executor
        // never re-enters `with` from inside `f` (pushes and pops are
        // leaf operations).
        f(unsafe { &mut *self.queue.get() })
    }

    #[inline]
    fn push(&self, id: TaskId) {
        self.with(|q| q.push_back(id));
    }

    #[inline]
    fn pop(&self) -> Option<TaskId> {
        self.with(|q| q.pop_front())
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.with(|q| q.is_empty())
    }
}

struct TaskWaker {
    id: TaskId,
    ready: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.push(self.id);
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.ready.push(self.id);
    }
}

/// One slab slot of the task table.
struct TaskSlot {
    /// Bumped every time the slot is recycled; a wake whose id carries a
    /// stale generation is ignored.
    gen: u32,
    /// `None` while the slot is free or the task is being polled.
    fut: Option<BoxedFuture>,
    /// Waker created on first poll and reused for every later poll.
    waker: Option<Waker>,
    daemon: bool,
    live: bool,
}

/// Opaque handle to a registered timer, used to re-arm or cancel it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TimerHandle {
    slot: u32,
    gen: u32,
}

/// What a firing timer wakes.
enum TimerTarget {
    /// The task that armed the timer from its own poll. Firing pushes the
    /// id onto the ready queue, which is all its `TaskWaker` would do.
    Task(TaskId),
    /// Any other waker, e.g. one a combinator or test built itself.
    Waker(Waker),
}

/// The task being polled, identified by its waker's raw parts so a timer
/// can tell whether it was armed with that task's own waker.
#[derive(Clone, Copy)]
struct PollingTask {
    id: TaskId,
    data: *const (),
    vtable: &'static RawWakerVTable,
}

/// Slab slot of one timer.
struct TimerSlot {
    /// Bumped whenever the timer fires or is cancelled, so a handle to an
    /// earlier timer in this slot is recognised as stale.
    gen: u32,
    /// Index of this timer's entry in `TimerQueue::heap` while armed.
    pos: u32,
    /// `None` while the slot is free.
    target: Option<TimerTarget>,
}

#[derive(Clone, Copy)]
struct HeapEntry {
    at: SimTime,
    /// Global registration sequence: the determinism tie-break for timers
    /// at the same instant.
    seq: u64,
    slot: u32,
}

impl HeapEntry {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Pending timers: a min-heap on `(at, seq)` whose entries are exactly the
/// armed timers, plus the slab that maps each timer to its heap position.
struct TimerQueue {
    heap: Vec<HeapEntry>,
    slots: Vec<TimerSlot>,
    free: Vec<u32>,
    next_seq: u64,
}

impl TimerQueue {
    fn new() -> Self {
        TimerQueue {
            heap: Vec::with_capacity(64),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    fn peek(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.at)
    }

    fn insert(&mut self, at: SimTime, target: TimerTarget) -> TimerHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        let pos = u32::try_from(self.heap.len()).expect("timer heap exhausted");
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                debug_assert!(s.target.is_none());
                s.pos = pos;
                s.target = Some(target);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("timer slab exhausted");
                self.slots.push(TimerSlot {
                    gen: 0,
                    pos,
                    target: Some(target),
                });
                slot
            }
        };
        self.heap.push(HeapEntry { at, seq, slot });
        self.sift_up(pos as usize);
        TimerHandle {
            slot,
            gen: self.slots[slot as usize].gen,
        }
    }

    /// The armed timer `handle` names, or `None` once it fired or was
    /// cancelled (and its slot perhaps reused).
    fn live(&mut self, handle: TimerHandle) -> Option<&mut TimerSlot> {
        let s = &mut self.slots[handle.slot as usize];
        (s.gen == handle.gen).then_some(s)
    }

    /// Remove the earliest timer if it is due at `at`, freeing its slot.
    fn pop_due(&mut self, at: SimTime) -> Option<TimerTarget> {
        let slot = match self.heap.first() {
            Some(e) if e.at == at => e.slot,
            _ => return None,
        };
        self.remove(0);
        Some(self.release(slot))
    }

    fn cancel(&mut self, handle: TimerHandle) {
        let Some(s) = self.live(handle) else {
            return;
        };
        let pos = s.pos as usize;
        self.remove(pos);
        self.release(handle.slot);
    }

    fn release(&mut self, slot: u32) -> TimerTarget {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
        s.target.take().expect("armed timer has a target")
    }

    fn remove(&mut self, pos: usize) {
        let last = self.heap.pop().expect("removing from an empty timer heap");
        if pos == self.heap.len() {
            return;
        }
        self.heap[pos] = last;
        if pos > 0 && last.key() < self.heap[(pos - 1) / 2].key() {
            self.sift_up(pos);
        } else {
            self.sift_down(pos);
        }
    }

    /// Write `e` at `pos` and record the position in its slot.
    fn place(&mut self, pos: usize, e: HeapEntry) {
        self.slots[e.slot as usize].pos = pos as u32;
        self.heap[pos] = e;
    }

    fn sift_up(&mut self, mut pos: usize) {
        let e = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let p = self.heap[parent];
            if p.key() < e.key() {
                break;
            }
            self.place(pos, p);
            pos = parent;
        }
        self.place(pos, e);
    }

    fn sift_down(&mut self, mut pos: usize) {
        let e = self.heap[pos];
        let len = self.heap.len();
        loop {
            let mut child = 2 * pos + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.heap[child + 1].key() < self.heap[child].key() {
                child += 1;
            }
            let c = self.heap[child];
            if e.key() < c.key() {
                break;
            }
            self.place(pos, c);
            pos = child;
        }
        self.place(pos, e);
    }
}

pub(crate) struct SimInner {
    now: Cell<SimTime>,
    tasks: RefCell<Vec<TaskSlot>>,
    task_free: RefCell<Vec<u32>>,
    /// Non-daemon tasks spawned and not yet completed.
    live_count: Cell<usize>,
    ready: Arc<ReadyQueue>,
    /// Set for the duration of each task poll.
    polling: Cell<Option<PollingTask>>,
    timers: RefCell<TimerQueue>,
    rng: SharedRng,
    polls: Cell<u64>,
    obs: Obs,
}

thread_local! {
    static CURRENT: RefCell<Option<Rc<SimInner>>> = const { RefCell::new(None) };
}

fn with_current<R>(f: impl FnOnce(&Rc<SimInner>) -> R) -> R {
    CURRENT.with(|c| {
        let borrow = c.borrow();
        let inner = borrow
            .as_ref()
            .expect("not inside a Simulation context (call via Simulation::run or block_on)");
        f(inner)
    })
}

/// Like [`with_current`], but a no-op returning `None` outside a
/// simulation context. The observability free functions use this so
/// instrumented code stays callable from plain unit tests.
pub(crate) fn try_with_current<R>(f: impl FnOnce(&Rc<SimInner>) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_ref().map(f))
}

/// The simulation driver.
///
/// ```
/// use mgrid_desim::{Simulation, time::SimDuration};
///
/// let mut sim = Simulation::new(42);
/// sim.spawn(async {
///     mgrid_desim::sleep(SimDuration::from_millis(5)).await;
/// });
/// let end = sim.run();
/// assert_eq!(end.as_millis(), 5);
/// ```
pub struct Simulation {
    inner: Rc<SimInner>,
}

impl Simulation {
    /// Create a simulation whose RNG streams derive from `seed`.
    pub fn new(seed: u64) -> Self {
        Simulation {
            inner: Rc::new(SimInner {
                now: Cell::new(SimTime::ZERO),
                tasks: RefCell::new(Vec::new()),
                task_free: RefCell::new(Vec::new()),
                live_count: Cell::new(0),
                ready: ReadyQueue::new(),
                polling: Cell::new(None),
                timers: RefCell::new(TimerQueue::new()),
                rng: SharedRng::new(seed),
                polls: Cell::new(0),
                obs: Obs::new(),
            }),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.inner.now.get()
    }

    /// This simulation's observability surface (spans + metrics).
    ///
    /// Spans start disabled; call [`Obs::enable_spans`] to record spans
    /// and marks. Metrics are always collected.
    pub fn obs(&self) -> &Obs {
        &self.inner.obs
    }

    /// Spawn a root task. May also be called from inside tasks through the
    /// free function [`spawn`].
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.inner.spawn_future(fut, false)
    }

    /// Shared deterministic RNG for this simulation.
    pub fn rng(&self) -> SharedRng {
        self.inner.rng.clone()
    }

    /// Total number of task polls performed (engine throughput metric).
    pub fn poll_count(&self) -> u64 {
        self.inner.polls.get()
    }

    /// Number of non-daemon tasks that have been spawned but not yet
    /// completed. Daemon tasks (see [`spawn_daemon`]) are infrastructure
    /// loops expected to outlive the workload and are not counted.
    pub fn live_tasks(&self) -> usize {
        self.inner.live_count.get()
    }

    /// Run until no runnable tasks and no pending timers remain.
    ///
    /// Returns the final simulation time. Tasks that are still blocked on
    /// external wakeups (e.g. a channel nobody will ever write to) are left
    /// pending; check [`Simulation::live_tasks`] to detect deadlock.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    /// Run until the event queue is exhausted or the next event would occur
    /// after `deadline`. The clock is left at `min(deadline, final time)`.
    ///
    /// # Examples
    /// ```
    /// use mgrid_desim::time::{SimDuration, SimTime};
    /// use mgrid_desim::Simulation;
    ///
    /// let mut sim = Simulation::new(7);
    /// sim.spawn(async {
    ///     mgrid_desim::sleep(SimDuration::from_millis(30)).await;
    /// });
    /// // The deadline caps the clock; the sleeper is still pending.
    /// let t = sim.run_until(SimTime::from_nanos(10_000_000));
    /// assert_eq!(t.as_millis(), 10);
    /// assert_eq!(sim.live_tasks(), 1);
    /// assert_eq!(sim.run().as_millis(), 30);
    /// ```
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.run_core(deadline, || false)
    }

    /// Like [`Simulation::run_until`], but also stop as soon as `stop()`
    /// returns true (checked between event batches). The sharded engine
    /// ([`crate::shard`]) uses this to end a logical process's final epoch
    /// the moment every shard's root future has completed.
    pub fn run_until_or(&mut self, deadline: SimTime, stop: impl Fn() -> bool) -> SimTime {
        self.run_core(deadline, stop)
    }

    /// The virtual time of the next pending event: `now` when a task is
    /// already runnable, otherwise the earliest timer deadline, otherwise
    /// `None` (the simulation is quiescent until an external wakeup).
    ///
    /// Conservative parallel runs use this as a shard's contribution to
    /// the global lower-bound-on-timestamp computation.
    pub fn next_event_time(&self) -> Option<SimTime> {
        if !self.inner.ready.is_empty() {
            Some(self.inner.now.get())
        } else {
            self.inner.peek_timer()
        }
    }

    /// The core loop: run until quiescence, the deadline, or `stop()`
    /// returning true (checked between event batches).
    fn run_core(&mut self, deadline: SimTime, stop: impl Fn() -> bool) -> SimTime {
        let _guard = ContextGuard::enter(self.inner.clone());
        loop {
            // Phase 1: poll every ready task until quiescent.
            while let Some(id) = self.inner.ready.pop() {
                self.inner.poll_task(id);
            }
            if stop() {
                break;
            }
            // Phase 2: advance to the earliest timer.
            let Some(entry_at) = self.inner.peek_timer() else {
                break;
            };
            if entry_at > deadline {
                self.inner.now.set(deadline);
                break;
            }
            self.inner.advance_to(entry_at);
        }
        self.inner.now.get()
    }

    /// Run the simulation to completion and panic if any task is still
    /// blocked at the end — the standard harness for tests, where a blocked
    /// task means a deadlock bug.
    pub fn run_to_completion(&mut self) -> SimTime {
        let t = self.run();
        let live = self.live_tasks();
        assert!(
            live == 0,
            "simulation ended with {live} blocked task(s) at {t}"
        );
        t
    }

    /// Convenience: spawn `fut` and run until it completes, then return its
    /// output. The simulation stops as soon as the root task finishes, so
    /// perpetual daemon tasks (schedulers, network pumps) do not prevent
    /// termination.
    ///
    /// # Panics
    /// Panics if the simulation runs out of events before `fut` completes.
    pub fn block_on<F>(&mut self, fut: F) -> F::Output
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let handle = self.spawn(fut);
        let state = handle.state.clone();
        self.run_core(SimTime::MAX, || state.borrow().result.is_some());
        handle
            .try_take()
            .expect("block_on: root task did not complete (deadlock?)")
    }
}

impl SimInner {
    pub(crate) fn now(&self) -> SimTime {
        self.now.get()
    }

    pub(crate) fn obs(&self) -> &Obs {
        &self.obs
    }

    fn spawn_future<F>(self: &Rc<Self>, fut: F, daemon: bool) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let state = Rc::new(RefCell::new(JoinState {
            result: None,
            waker: None,
        }));
        let state2 = state.clone();
        let wrapped: BoxedFuture = Box::pin(async move {
            let out = fut.await;
            let mut s = state2.borrow_mut();
            s.result = Some(out);
            if let Some(w) = s.waker.take() {
                w.wake();
            }
        });
        let id = {
            let mut tasks = self.tasks.borrow_mut();
            match self.task_free.borrow_mut().pop() {
                Some(slot) => {
                    let s = &mut tasks[slot as usize];
                    debug_assert!(s.fut.is_none() && !s.live);
                    s.fut = Some(wrapped);
                    s.daemon = daemon;
                    s.live = true;
                    TaskId::new(slot, s.gen)
                }
                None => {
                    let slot = u32::try_from(tasks.len()).expect("task slab exhausted");
                    tasks.push(TaskSlot {
                        gen: 0,
                        fut: Some(wrapped),
                        waker: None,
                        daemon,
                        live: true,
                    });
                    TaskId::new(slot, 0)
                }
            }
        };
        if !daemon {
            self.live_count.set(self.live_count.get() + 1);
        }
        self.ready.push(id);
        JoinHandle { state }
    }

    fn poll_task(self: &Rc<Self>, id: TaskId) {
        // Take the future and waker out so the task may spawn/wake
        // reentrantly; both go back into the slot if the task stays pending.
        let (mut fut, waker) = {
            let mut tasks = self.tasks.borrow_mut();
            let Some(slot) = tasks.get_mut(id.slot()) else {
                return;
            };
            if slot.gen != id.gen() {
                return; // stale wake for a recycled slot
            }
            let Some(fut) = slot.fut.take() else {
                return; // completed (or mid-poll); spurious wake
            };
            let waker = slot.waker.take().unwrap_or_else(|| {
                Waker::from(Arc::new(TaskWaker {
                    id,
                    ready: self.ready.clone(),
                }))
            });
            (fut, waker)
        };
        let mut cx = Context::from_waker(&waker);
        self.polls.set(self.polls.get() + 1);
        self.polling.set(Some(PollingTask {
            id,
            data: waker.data(),
            vtable: waker.vtable(),
        }));
        let poll = fut.as_mut().poll(&mut cx);
        self.polling.set(None);
        match poll {
            Poll::Ready(()) => {
                // Run the future's destructors before re-borrowing the
                // task table: dropping captured state may re-enter the
                // executor (cancel timers, wake tasks, even spawn).
                drop(fut);
                let mut tasks = self.tasks.borrow_mut();
                let slot = &mut tasks[id.slot()];
                if !slot.daemon {
                    self.live_count.set(self.live_count.get() - 1);
                }
                slot.gen = slot.gen.wrapping_add(1);
                slot.daemon = false;
                slot.live = false;
                self.task_free.borrow_mut().push(id.slot() as u32);
            }
            Poll::Pending => {
                let mut tasks = self.tasks.borrow_mut();
                let slot = &mut tasks[id.slot()];
                slot.fut = Some(fut);
                slot.waker = Some(waker);
            }
        }
    }

    fn peek_timer(&self) -> Option<SimTime> {
        self.timers.borrow().peek()
    }

    /// Jump the clock to `at` and fire every timer scheduled for that
    /// instant (in registration order).
    fn advance_to(&self, at: SimTime) {
        debug_assert!(at >= self.now.get(), "time went backwards");
        self.now.set(at);
        loop {
            // End the borrow before waking: a foreign waker may re-enter.
            let target = self.timers.borrow_mut().pop_due(at);
            match target {
                Some(TimerTarget::Task(id)) => self.ready.push(id),
                Some(TimerTarget::Waker(w)) => w.wake(),
                None => break,
            }
        }
    }

    /// The id of the task being polled if `waker` is that task's own.
    fn polling_task_of(&self, waker: &Waker) -> Option<TaskId> {
        self.polling
            .get()
            .filter(|p| waker.data() == p.data && std::ptr::eq(waker.vtable(), p.vtable))
            .map(|p| p.id)
    }

    fn target_for(&self, waker: &Waker) -> TimerTarget {
        match self.polling_task_of(waker) {
            Some(id) => TimerTarget::Task(id),
            None => TimerTarget::Waker(waker.clone()),
        }
    }

    pub(crate) fn register_timer(&self, at: SimTime, waker: &Waker) -> TimerHandle {
        let target = self.target_for(waker);
        self.timers.borrow_mut().insert(at, target)
    }

    pub(crate) fn update_timer_waker(&self, handle: TimerHandle, waker: &Waker) {
        let mut timers = self.timers.borrow_mut();
        let Some(s) = timers.live(handle) else {
            return;
        };
        match &mut s.target {
            Some(TimerTarget::Task(id)) if self.polling_task_of(waker) == Some(*id) => {}
            Some(TimerTarget::Waker(w)) if w.will_wake(waker) => {}
            target => *target = Some(self.target_for(waker)),
        }
    }

    pub(crate) fn cancel_timer(&self, handle: TimerHandle) {
        self.timers.borrow_mut().cancel(handle);
    }
}

struct ContextGuard {
    prev: Option<Rc<SimInner>>,
}

impl ContextGuard {
    fn enter(inner: Rc<SimInner>) -> Self {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(inner));
        ContextGuard { prev }
    }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            *c.borrow_mut() = self.prev.take();
        });
    }
}

struct JoinState<T> {
    result: Option<T>,
    waker: Option<Waker>,
}

/// Handle to a spawned task's result.
///
/// Awaiting the handle yields the task's output. The handle may also be
/// inspected after the simulation finishes with [`JoinHandle::try_take`].
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// Take the result if the task has completed.
    pub fn try_take(&self) -> Option<T> {
        self.state.borrow_mut().result.take()
    }

    /// True if the task has completed (and the result not yet taken).
    pub fn is_finished(&self) -> bool {
        self.state.borrow().result.is_some()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut s = self.state.borrow_mut();
        if let Some(v) = s.result.take() {
            Poll::Ready(v)
        } else {
            s.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// Free functions usable from inside tasks
// ---------------------------------------------------------------------------

/// Current simulation time (inside a running simulation).
pub fn now() -> SimTime {
    with_current(|s| s.now.get())
}

/// Spawn a task from inside the simulation.
pub fn spawn<F>(fut: F) -> JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    with_current(|s| s.spawn_future(fut, false))
}

/// Spawn an infrastructure task (scheduler driver, network pump, …) that is
/// expected to run forever. Daemon tasks are excluded from
/// [`Simulation::live_tasks`], so [`Simulation::run_to_completion`] does not
/// treat them as deadlocks.
pub fn spawn_daemon<F>(fut: F) -> JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    with_current(|s| s.spawn_future(fut, true))
}

/// Run a closure with the simulation's shared RNG.
pub fn with_rng<R>(f: impl FnOnce(&mut SimRng) -> R) -> R {
    with_current(|s| s.rng.with(f))
}

/// Fork an independent RNG stream from the simulation's root RNG.
pub fn fork_rng() -> SimRng {
    with_current(|s| s.rng.fork())
}

/// Sleep for a span of simulated physical time.
pub fn sleep(d: SimDuration) -> Sleep {
    Sleep {
        at: None,
        duration: d,
        timer: None,
    }
}

/// Sleep until an absolute instant.
pub fn sleep_until(at: SimTime) -> Sleep {
    Sleep {
        at: Some(at),
        duration: SimDuration::ZERO,
        timer: None,
    }
}

/// Future returned by [`sleep`] / [`sleep_until`].
pub struct Sleep {
    at: Option<SimTime>,
    duration: SimDuration,
    timer: Option<TimerHandle>,
}

impl Future for Sleep {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        with_current(|s| {
            let at = match this.at {
                Some(at) => at,
                None => {
                    let at = s.now.get() + this.duration;
                    this.at = Some(at);
                    at
                }
            };
            if s.now.get() >= at {
                if let Some(handle) = this.timer.take() {
                    s.cancel_timer(handle);
                }
                Poll::Ready(())
            } else {
                match this.timer {
                    Some(handle) => s.update_timer_waker(handle, cx.waker()),
                    None => this.timer = Some(s.register_timer(at, cx.waker())),
                }
                Poll::Pending
            }
        })
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(handle) = self.timer.take() {
            // Best-effort: outside a context (sim already dropped) there is
            // nothing to cancel.
            CURRENT.with(|c| {
                if let Some(inner) = c.borrow().as_ref() {
                    inner.cancel_timer(handle);
                }
            });
        }
    }
}

/// Yield to other runnable tasks at the same instant.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn empty_simulation_finishes_at_zero() {
        let mut sim = Simulation::new(0);
        assert_eq!(sim.run(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_clock() {
        let mut sim = Simulation::new(0);
        sim.spawn(async {
            sleep(SimDuration::from_millis(10)).await;
            assert_eq!(now().as_millis(), 10);
            sleep(SimDuration::from_millis(5)).await;
            assert_eq!(now().as_millis(), 15);
        });
        assert_eq!(sim.run_to_completion().as_millis(), 15);
    }

    #[test]
    fn tasks_interleave_in_time_order() {
        let mut sim = Simulation::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        for (name, delay) in [("a", 30u64), ("b", 10), ("c", 20)] {
            let log = log.clone();
            sim.spawn(async move {
                sleep(SimDuration::from_millis(delay)).await;
                log.borrow_mut().push(name);
            });
        }
        sim.run_to_completion();
        assert_eq!(*log.borrow(), vec!["b", "c", "a"]);
    }

    #[test]
    fn same_instant_fires_in_registration_order() {
        let mut sim = Simulation::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5 {
            let log = log.clone();
            sim.spawn(async move {
                sleep(SimDuration::from_millis(7)).await;
                log.borrow_mut().push(i);
            });
        }
        sim.run_to_completion();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nested_spawn_and_join() {
        let mut sim = Simulation::new(0);
        let out = sim.block_on(async {
            let h = spawn(async {
                sleep(SimDuration::from_micros(100)).await;
                41
            });
            h.await + 1
        });
        assert_eq!(out, 42);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(0);
        let flag = Rc::new(Cell::new(false));
        let f2 = flag.clone();
        sim.spawn(async move {
            sleep(SimDuration::from_secs(10)).await;
            f2.set(true);
        });
        let t = sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(t, SimTime::from_secs_f64(1.0));
        assert!(!flag.get());
        assert_eq!(sim.live_tasks(), 1);
        sim.run();
        assert!(flag.get());
    }

    #[test]
    fn yield_now_interleaves() {
        let mut sim = Simulation::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in ["x", "y"] {
            let log = log.clone();
            sim.spawn(async move {
                for i in 0..3 {
                    log.borrow_mut().push((name, i));
                    yield_now().await;
                }
            });
        }
        sim.run_to_completion();
        let l = log.borrow();
        // Alternating because both are re-queued after each yield.
        assert_eq!(l[0], ("x", 0));
        assert_eq!(l[1], ("y", 0));
        assert_eq!(l[2], ("x", 1));
        assert_eq!(l[3], ("y", 1));
    }

    #[test]
    fn deadlocked_task_is_reported() {
        let mut sim = Simulation::new(0);
        sim.spawn(async {
            std::future::pending::<()>().await;
        });
        sim.run();
        assert_eq!(sim.live_tasks(), 1);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn trace(seed: u64) -> Vec<u64> {
            let mut sim = Simulation::new(seed);
            let log = Rc::new(RefCell::new(Vec::new()));
            for _ in 0..10 {
                let log = log.clone();
                sim.spawn(async move {
                    let d = with_rng(|r| r.range(1, 1000));
                    sleep(SimDuration::from_micros(d)).await;
                    log.borrow_mut().push(now().as_nanos());
                });
            }
            sim.run_to_completion();
            let v = log.borrow().clone();
            v
        }
        assert_eq!(trace(99), trace(99));
        assert_ne!(trace(99), trace(100));
    }

    #[test]
    fn join_handle_try_take() {
        let mut sim = Simulation::new(0);
        let h = sim.spawn(async { "done" });
        assert!(!h.is_finished());
        sim.run();
        assert!(h.is_finished());
        assert_eq!(h.try_take(), Some("done"));
        assert_eq!(h.try_take(), None);
    }

    #[test]
    fn sleep_zero_completes_immediately() {
        let mut sim = Simulation::new(0);
        sim.spawn(async {
            sleep(SimDuration::ZERO).await;
            assert_eq!(now(), SimTime::ZERO);
        });
        sim.run_to_completion();
    }

    #[test]
    fn many_tasks_scale() {
        let mut sim = Simulation::new(0);
        let counter = Rc::new(Cell::new(0u32));
        for i in 0..1000 {
            let c = counter.clone();
            sim.spawn(async move {
                sleep(SimDuration::from_nanos(i)).await;
                c.set(c.get() + 1);
            });
        }
        sim.run_to_completion();
        assert_eq!(counter.get(), 1000);
    }

    #[test]
    fn task_slots_are_recycled() {
        let mut sim = Simulation::new(0);
        sim.spawn(async {
            for _ in 0..100 {
                let h = spawn(async {
                    sleep(SimDuration::from_nanos(1)).await;
                });
                h.await;
            }
        });
        sim.run_to_completion();
        // One slot for the root task, one recycled slot for the children.
        assert!(sim.inner.tasks.borrow().len() <= 3);
    }

    #[test]
    fn stale_wakes_do_not_poll_recycled_slots() {
        // A waker kept alive past its task's completion must not wake
        // whatever task is recycled into the same slot.
        use std::task::Waker;
        let mut sim = Simulation::new(0);
        let stale: Rc<RefCell<Option<Waker>>> = Rc::new(RefCell::new(None));
        let s2 = stale.clone();
        sim.spawn(async move {
            // Capture this task's waker, then finish.
            std::future::poll_fn(move |cx| {
                *s2.borrow_mut() = Some(cx.waker().clone());
                Poll::Ready(())
            })
            .await;
        });
        sim.run();
        let polls_before = sim.poll_count();
        // Recycle the slot with a long-lived task, then fire the stale waker.
        let done = Rc::new(Cell::new(false));
        let d2 = done.clone();
        sim.spawn(async move {
            sleep(SimDuration::from_millis(1)).await;
            d2.set(true);
        });
        stale.borrow().as_ref().unwrap().wake_by_ref();
        sim.run();
        assert!(done.get());
        // The stale wake costs no task poll (generation mismatch): the
        // recycled sleeper is polled once to arm its timer and once when
        // the timer fires.
        assert_eq!(sim.poll_count() - polls_before, 2);
    }

    #[test]
    fn timer_slots_are_recycled() {
        let mut sim = Simulation::new(0);
        sim.spawn(async {
            for _ in 0..1000 {
                sleep(SimDuration::from_nanos(7)).await;
            }
        });
        sim.run_to_completion();
        assert!(sim.inner.timers.borrow().slots.len() <= 4);
    }

    #[test]
    fn cancelled_timers_do_not_mask_the_next_event() {
        let mut sim = Simulation::new(1);
        sim.spawn(async {
            // Register a 1 ms timer, then cancel it by dropping the
            // sleep; only the 9 ms sleep below remains live.
            let mut early = Some(Box::pin(sleep(SimDuration::from_millis(1))));
            std::future::poll_fn(move |cx| {
                let _ = early.as_mut().unwrap().as_mut().poll(cx);
                early.take();
                Poll::Ready(())
            })
            .await;
            sleep(SimDuration::from_millis(9)).await;
        });
        sim.run_until(SimTime::ZERO);
        // The stale 1 ms entry must be invisible: the sharded engine's
        // lower-bound all-reduce relies on this being a live deadline.
        assert_eq!(sim.next_event_time(), Some(SimTime::from_nanos(9_000_000)));
        assert_eq!(sim.run().as_millis(), 9);
    }

    #[test]
    fn cancelled_timers_leave_the_queue_at_once() {
        let mut sim = Simulation::new(2);
        sim.spawn(async {
            sleep(SimDuration::from_secs(500)).await;
        });
        sim.spawn(async {
            // Arm 256 timers on both sides of the live one, then cancel
            // them all by drop.
            let mut sleeps: Vec<_> = (0..256u64)
                .map(|i| Box::pin(sleep(SimDuration::from_secs(100 + 2 * i))))
                .collect();
            std::future::poll_fn(move |cx| {
                for s in &mut sleeps {
                    let _ = s.as_mut().poll(cx);
                }
                sleeps.clear();
                Poll::Ready(())
            })
            .await;
        });
        sim.run_until(SimTime::ZERO);
        let live = SimTime::from_nanos(500_000_000_000);
        let timers = sim.inner.timers.borrow();
        assert_eq!(timers.heap.len(), 1, "only the live timer stays queued");
        assert_eq!(timers.heap[0].at, live);
        drop(timers);
        assert_eq!(sim.next_event_time(), Some(live));
        assert_eq!(sim.run(), live);
    }

    /// A waker that appends its label to a shared log when woken.
    struct LabelWaker {
        label: u64,
        log: Arc<std::sync::Mutex<Vec<u64>>>,
    }

    impl Wake for LabelWaker {
        fn wake(self: Arc<Self>) {
            self.wake_by_ref();
        }
        fn wake_by_ref(self: &Arc<Self>) {
            self.log.lock().expect("log poisoned").push(self.label);
        }
    }

    fn drain(log: &std::sync::Mutex<Vec<u64>>) -> Vec<u64> {
        std::mem::take(&mut *log.lock().expect("log poisoned"))
    }

    #[test]
    fn timer_polled_under_a_foreign_waker_wakes_that_waker() {
        let mut sim = Simulation::new(0);
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let foreign = Waker::from(Arc::new(LabelWaker {
            label: 7,
            log: log.clone(),
        }));
        let log2 = log.clone();
        sim.spawn(async move {
            let mut timer = Box::pin(sleep(SimDuration::from_millis(1)));
            std::future::poll_fn(|_cx| {
                let mut cx = Context::from_waker(&foreign);
                assert!(timer.as_mut().poll(&mut cx).is_pending());
                Poll::Ready(())
            })
            .await;
            sleep(SimDuration::from_millis(2)).await;
            // The timer fired through the foreign waker, not this task's.
            assert_eq!(drain(&log2), [7]);
            assert!(timer
                .as_mut()
                .poll(&mut Context::from_waker(&foreign))
                .is_ready());
        });
        sim.run_to_completion();
        assert!(drain(&log).is_empty());
    }

    #[test]
    fn task_waker_woken_off_thread_panics() {
        let mut sim = Simulation::new(0);
        let captured: Rc<RefCell<Option<Waker>>> = Rc::new(RefCell::new(None));
        let c2 = captured.clone();
        sim.spawn(async move {
            std::future::poll_fn(move |cx| {
                *c2.borrow_mut() = Some(cx.waker().clone());
                Poll::Ready(())
            })
            .await;
        });
        sim.run();
        let waker = captured.borrow_mut().take().unwrap();
        // mgrid-lint: allow(MG005) the test needs a second OS thread to wake from
        let err = std::thread::spawn(move || waker.wake())
            .join()
            .expect_err("an off-thread wake must panic");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(
            msg.contains("simulation waker used off the simulation's own thread"),
            "unexpected panic message: {msg}"
        );
    }

    #[test]
    fn stale_timer_handles_are_inert() {
        let mut sim = Simulation::new(0);
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let waker = |label| {
            Waker::from(Arc::new(LabelWaker {
                label,
                log: log.clone(),
            }))
        };
        let t = SimTime::from_nanos;
        let a = sim.inner.register_timer(t(10), &waker(1));
        sim.run_until(t(10));
        assert_eq!(drain(&log), [1]);
        // Cancelling (or re-arming) a timer that already fired is a no-op.
        sim.inner.cancel_timer(a);
        sim.inner.update_timer_waker(a, &waker(9));
        // The next timer reuses the slot; the old handle must not touch it.
        let b = sim.inner.register_timer(t(20), &waker(2));
        assert_eq!(b.slot, a.slot);
        sim.inner.cancel_timer(a);
        sim.inner.update_timer_waker(a, &waker(9));
        assert_eq!(sim.next_event_time(), Some(t(20)));
        sim.run();
        assert_eq!(drain(&log), [2]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]
        /// The indexed timer heap fires, re-arms and cancels exactly like a
        /// naive ordered map keyed by `(deadline, registration seq)`.
        /// Handles stay in the pick list after their timer fired or was
        /// cancelled, so stale and recycled-slot handles are exercised too.
        #[test]
        fn timer_queue_matches_ordered_map_reference(
            ops in proptest::prop::collection::vec((0u8..6, 0usize..1024, 1u64..1000), 1..200),
        ) {
            let mut sim = Simulation::new(0);
            let log = Arc::new(std::sync::Mutex::new(Vec::new()));
            let mut wakers: Vec<Waker> = Vec::new();
            let new_waker = |wakers: &mut Vec<Waker>| {
                let label = wakers.len() as u64;
                wakers.push(Waker::from(Arc::new(LabelWaker { label, log: log.clone() })));
                label
            };
            let mut reference: std::collections::BTreeMap<(SimTime, u64), u64> =
                std::collections::BTreeMap::new();
            let mut handles: Vec<(TimerHandle, (SimTime, u64))> = Vec::new();
            let mut seq = 0;
            for (op, pick, delay) in ops {
                match op {
                    // Half the ops register, so the heap grows deep.
                    0..=2 => {
                        let at = sim.now() + SimDuration::from_nanos(delay);
                        let label = new_waker(&mut wakers);
                        let h = sim.inner.register_timer(at, &wakers[label as usize]);
                        reference.insert((at, seq), label);
                        handles.push((h, (at, seq)));
                        seq += 1;
                    }
                    3 if !handles.is_empty() => {
                        let (h, key) = handles[pick % handles.len()];
                        // Odd picks re-arm with the waker already stored.
                        let label = match reference.get(&key) {
                            Some(&label) if pick % 2 == 1 => label,
                            _ => new_waker(&mut wakers),
                        };
                        sim.inner.update_timer_waker(h, &wakers[label as usize]);
                        if let Some(v) = reference.get_mut(&key) {
                            *v = label;
                        }
                    }
                    4 if !handles.is_empty() => {
                        let (h, key) = handles[pick % handles.len()];
                        sim.inner.cancel_timer(h);
                        reference.remove(&key);
                    }
                    _ => {
                        if let Some(&(at, _)) = reference.keys().next() {
                            sim.run_until(at);
                            let due: Vec<_> = reference.keys().take_while(|k| k.0 == at).copied().collect();
                            let expect: Vec<u64> =
                                due.iter().map(|k| reference.remove(k).unwrap()).collect();
                            proptest::prop_assert_eq!(drain(&log), expect);
                        }
                    }
                }
                proptest::prop_assert_eq!(sim.next_event_time(), reference.keys().next().map(|k| k.0));
            }
            sim.run();
            let rest: Vec<u64> = reference.values().copied().collect();
            proptest::prop_assert_eq!(drain(&log), rest);
        }
    }
}
