//! Single-threaded, virtual-time async executor.
//!
//! Tasks are ordinary Rust futures. Every simulation primitive (delays,
//! charged memory accesses, park/unpark) suspends the task and schedules an
//! event in a binary heap ordered by `(virtual_time, sequence)`; the run loop
//! pops events and polls the corresponding task. Because there is exactly one
//! host thread, a task's poll executes atomically with respect to all other
//! tasks — the simulation primitives rely on this for race-free wakeup
//! registration (see `cell.rs`).

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use crate::cache::{CacheModel, LatencyModel, LineId};
use crate::rng::SplitMix64;
use crate::sched::{SchedAction, SchedController, SchedSite};
use crate::topology::{CpuId, SocketId, Topology};

/// Identifier of a simulated task.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub u32);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Event {
    time: u64,
    seq: u64,
    task: TaskId,
}

impl Event {
    /// `(time, seq)` as one integer: heap sifts compare events by one
    /// 128-bit comparison instead of a branch per field.
    fn key(&self) -> u128 {
        u128::from(self.time) << 64 | u128::from(self.seq)
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct TaskSlot {
    future: Option<Pin<Box<dyn Future<Output = ()>>>>,
    cpu: CpuId,
    parked: bool,
    unpark_token: bool,
    done: bool,
}

pub(crate) struct Shared {
    now: Cell<u64>,
    seq: Cell<u64>,
    heap: RefCell<BinaryHeap<Reverse<Event>>>,
    tasks: RefCell<Vec<TaskSlot>>,
    pub(crate) cache: RefCell<CacheModel>,
    /// The cache model's latency constants, readable without borrowing it.
    lat: LatencyModel,
    topo: Topology,
    rng: RefCell<SplitMix64>,
    events_processed: Cell<u64>,
    /// Events a [`Delay`] delivered to itself without the heap.
    in_place: Cell<u64>,
    /// Deadline of the `run_until` call in progress; tasks are only ever
    /// polled from inside one.
    deadline: Cell<u64>,
    trace_hash: Cell<u64>,
    next_obj_id: Cell<u64>,
    trace_log: RefCell<Option<Vec<(u64, u32)>>>,
    /// Per-CPU "descheduled until" times (the double-scheduling model:
    /// a hypervisor may take a vCPU away; events for tasks pinned there
    /// are deferred to the end of the window).
    offline_until: RefCell<Vec<u64>>,
    /// Scratch buffer for draining watcher lists without allocating: it is
    /// swapped against a line's watcher vector on every wake, so buffers
    /// (and their capacity) circulate instead of being freed and regrown
    /// on each store/RMW (see [`TaskCtx::wake_watchers`]).
    wake_scratch: RefCell<Vec<TaskId>>,
    /// Schedule-exploration controller consulted at every
    /// [`TaskCtx::sched_point`]. `None` (the default) makes every schedule
    /// point a strict no-op: no event, no randomness, no virtual time.
    sched: RefCell<Option<Rc<SchedController>>>,
}

impl Shared {
    pub(crate) fn schedule(&self, task: TaskId, at: u64) {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        self.heap.borrow_mut().push(Reverse(Event {
            time: at,
            seq,
            task,
        }));
    }

    pub(crate) fn now(&self) -> u64 {
        self.now.get()
    }

    /// Delivers the event `(time, task)`: everything the run observes of an
    /// event other than the poll itself. The run loop and the in-place
    /// route both come through here, so they cannot drift apart.
    fn begin_event(&self, time: u64, task: TaskId) {
        debug_assert!(time >= self.now.get(), "time went backwards");
        self.now.set(time);
        self.events_processed.set(self.events_processed.get() + 1);
        let mixed = self
            .trace_hash
            .get()
            .wrapping_mul(0x100_0000_01b3)
            .rotate_left(17)
            .wrapping_add(time ^ u64::from(task.0) << 32);
        self.trace_hash.set(mixed);
        if let Some(log) = self.trace_log.borrow_mut().as_mut() {
            log.push((time, task.0));
        }
    }

    /// Delivers `task`'s own wake-up at `at` without the heap when it is
    /// provably the next event the run loop would pop and hand back to it:
    /// no queued event is due at or before `at` (an equal-time one holds a
    /// lower sequence number and goes first), `at` is within the deadline
    /// of the `run_until` in progress, and `cpu` is not descheduled at
    /// `at`. Tasks are linear `async` chains, so no other task can run
    /// between the `Pending` this replaces and that pop; returning `Ready`
    /// here is the same run. Returns whether the event was delivered.
    fn deliver_in_place(&self, task: TaskId, cpu: CpuId, at: u64) -> bool {
        if at > self.deadline.get() {
            return false;
        }
        if let Some(Reverse(top)) = self.heap.borrow().peek() {
            if top.time <= at {
                return false;
            }
        }
        if self.offline_until.borrow()[cpu.0 as usize] > at {
            return false;
        }
        self.begin_event(at, task);
        self.in_place.set(self.in_place.get() + 1);
        true
    }
}

/// Aggregate results of a simulation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Virtual time at which the run loop stopped.
    pub final_time_ns: u64,
    /// Number of events the executor processed.
    pub events: u64,
    /// How many of `events` were delivered in place, without the heap: a
    /// timer that was provably the next event completed inside the poll
    /// that set it. Depends on how the run was sliced into `run_until`
    /// calls; no other field does.
    pub in_place: u64,
    /// Tasks that ran to completion.
    pub tasks_completed: usize,
    /// Tasks still suspended when the heap drained (parked or watching a
    /// line that was never written again) — a non-empty list usually means
    /// a deadlock or a forgotten wakeup in the workload.
    pub stuck_tasks: Vec<TaskId>,
    /// Modeled memory-system counters: loads, stores, line transfers.
    pub loads: u64,
    /// Modeled stores (including the write half of RMWs).
    pub stores: u64,
    /// Cache-line transfers between sockets or from memory.
    pub transfers: u64,
    /// Order-sensitive hash of the processed event sequence; equal seeds
    /// and workloads must produce equal hashes (determinism check).
    pub trace_hash: u64,
}

/// Configures and creates a [`Sim`].
///
/// # Examples
///
/// ```
/// use ksim::SimBuilder;
///
/// let sim = SimBuilder::new().seed(42).build();
/// assert_eq!(sim.topology().num_cpus(), 80);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SimBuilder {
    latency: LatencyModel,
    seed: u64,
}

impl SimBuilder {
    /// Creates a builder with default latencies and seed 0. Every
    /// simulator models the paper's 8×10 machine.
    pub fn new() -> Self {
        SimBuilder {
            latency: LatencyModel::default(),
            seed: 0,
        }
    }

    /// Sets the latency constants of the cache model.
    pub fn latency(mut self, l: LatencyModel) -> Self {
        self.latency = l;
        self
    }

    /// Sets the seed for all simulation randomness.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Builds the simulator.
    pub fn build(self) -> Sim {
        let topology = Topology::paper_machine();
        Sim {
            shared: Rc::new(Shared {
                now: Cell::new(0),
                seq: Cell::new(0),
                // Pre-size for one in-flight event per CPU (the steady
                // state of a saturated machine) so early pushes don't
                // regrow the heap's backing buffer.
                heap: RefCell::new(BinaryHeap::with_capacity(topology.num_cpus() as usize * 2)),
                tasks: RefCell::new(Vec::new()),
                cache: RefCell::new(CacheModel::new(self.latency)),
                lat: self.latency,
                topo: topology,
                rng: RefCell::new(SplitMix64::new(self.seed)),
                events_processed: Cell::new(0),
                in_place: Cell::new(0),
                deadline: Cell::new(0),
                trace_hash: Cell::new(0xcbf2_9ce4_8422_2325),
                next_obj_id: Cell::new(1),
                trace_log: RefCell::new(None),
                offline_until: RefCell::new(vec![0; topology.num_cpus() as usize]),
                wake_scratch: RefCell::new(Vec::new()),
                sched: RefCell::new(None),
            }),
        }
    }
}

impl Default for SimBuilder {
    fn default() -> Self {
        SimBuilder::new()
    }
}

/// The discrete-event simulator.
///
/// Cloning is cheap (reference-counted); all clones drive the same machine.
#[derive(Clone)]
pub struct Sim {
    pub(crate) shared: Rc<Shared>,
}

impl Sim {
    /// The machine shape this simulator models.
    pub fn topology(&self) -> Topology {
        self.shared.topo
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> u64 {
        self.shared.now()
    }

    /// Spawns a task pinned to `cpu`; it becomes runnable at the current
    /// virtual time.
    ///
    /// The closure receives the task's [`TaskCtx`] and returns its future.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is outside the topology.
    pub fn spawn_on<F, Fut>(&self, cpu: CpuId, f: F) -> TaskId
    where
        F: FnOnce(TaskCtx) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        let socket = self.shared.topo.socket_of(cpu);
        let id = TaskId(self.shared.tasks.borrow().len() as u32);
        let ctx = TaskCtx {
            shared: Rc::clone(&self.shared),
            id,
            cpu,
            socket,
        };
        let future: Pin<Box<dyn Future<Output = ()>>> = Box::pin(f(ctx));
        self.shared.tasks.borrow_mut().push(TaskSlot {
            future: Some(future),
            cpu,
            parked: false,
            unpark_token: false,
            done: false,
        });
        self.shared.schedule(id, self.shared.now());
        id
    }

    /// Runs until no events remain, returning run statistics.
    pub fn run(&self) -> SimStats {
        self.run_until(u64::MAX)
    }

    /// Runs until the event heap is empty or virtual time would exceed
    /// `deadline_ns`.
    pub fn run_until(&self, deadline_ns: u64) -> SimStats {
        let waker = noop_waker();
        let mut cx = Context::from_waker(&waker);
        let sh = &*self.shared;
        sh.deadline.set(deadline_ns);
        loop {
            let ev = match sh.heap.borrow_mut().peek_mut() {
                Some(top) if top.0.time <= deadline_ns => PeekMut::pop(top).0,
                // Later events stay queued for a later `run_until`.
                _ => break,
            };
            let idx = ev.task.0 as usize;
            // Take the future out so the poll can re-borrow the task table.
            let mut fut = {
                let mut tasks = sh.tasks.borrow_mut();
                let slot = &mut tasks[idx];
                // A task on a preempted vCPU cannot run: defer its event to
                // the end of the offline window.
                let until = sh.offline_until.borrow()[slot.cpu.0 as usize];
                if until > ev.time {
                    sh.schedule(ev.task, until);
                    continue;
                }
                sh.begin_event(ev.time, ev.task);
                if slot.done {
                    continue;
                }
                match slot.future.take() {
                    Some(f) => f,
                    // Torn down: its events are delivered to nobody.
                    None => continue,
                }
            };
            let done = fut.as_mut().poll(&mut cx).is_ready();
            let mut tasks = sh.tasks.borrow_mut();
            if done {
                tasks[idx].done = true;
            } else {
                tasks[idx].future = Some(fut);
            }
        }
        self.stats()
    }

    /// Statistics of the run so far.
    pub fn stats(&self) -> SimStats {
        let (loads, stores, transfers) = self.shared.cache.borrow().counters();
        let tasks = self.shared.tasks.borrow();
        let stuck = tasks
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.done)
            .map(|(i, _)| TaskId(i as u32))
            .collect();
        SimStats {
            final_time_ns: self.shared.now(),
            events: self.shared.events_processed.get(),
            in_place: self.shared.in_place.get(),
            tasks_completed: tasks.iter().filter(|s| s.done).count(),
            stuck_tasks: stuck,
            loads,
            stores,
            transfers,
            trace_hash: self.shared.trace_hash.get(),
        }
    }

    /// Ends the simulation: drops the futures of the tasks that never
    /// finished, and with them everything they captured. Such a future
    /// holds its [`TaskCtx`], which holds the simulator, which holds the
    /// task table: a run that ends with stuck tasks is a reference cycle
    /// that dropping every `Sim` handle does not free. Call it once the
    /// final [`SimStats`] are taken; the stuck tasks stay reported as
    /// stuck, and events still queued for them are delivered to nobody.
    pub fn teardown(&self) {
        let unfinished: Vec<_> = self
            .shared
            .tasks
            .borrow_mut()
            .iter_mut()
            .filter_map(|slot| slot.future.take())
            .collect();
        // Dropped here, outside the borrow: a captured value's `Drop` may
        // call back into the simulator.
        drop(unfinished);
    }

    /// Allocates a fresh cache line (used by `SimWord`/`SimCell`).
    pub(crate) fn alloc_line(&self) -> LineId {
        self.shared.cache.borrow_mut().alloc_line()
    }

    /// Deschedules a virtual CPU until `until_ns` (the paper's §3.1.1
    /// "double scheduling" context: the hypervisor preempts a vCPU, and
    /// whatever task runs there — lock holder or next-in-line waiter —
    /// stops making progress until the window ends).
    pub fn preempt_cpu(&self, cpu: CpuId, until_ns: u64) {
        let mut off = self.shared.offline_until.borrow_mut();
        let slot = &mut off[cpu.0 as usize];
        *slot = (*slot).max(until_ns);
    }

    /// Whether `cpu` is running (not inside a preemption window) at the
    /// current virtual time.
    pub fn cpu_online(&self, cpu: CpuId) -> bool {
        self.shared.offline_until.borrow()[cpu.0 as usize] <= self.shared.now()
    }

    /// Enables capture of the full `(time, task)` event sequence, for
    /// debugging determinism issues. Expensive; off by default.
    pub fn capture_trace(&self, on: bool) {
        *self.shared.trace_log.borrow_mut() = if on { Some(Vec::new()) } else { None };
    }

    /// The captured event sequence, if capture was enabled: a borrowed
    /// view — no copy is made. Empty when capture is off.
    ///
    /// The returned guard borrows the log; drop it before resuming the
    /// simulation (running while it is held would panic on the interior
    /// borrow). To keep the data across further simulation, use
    /// [`Sim::take_trace`].
    pub fn trace(&self) -> std::cell::Ref<'_, [(u64, u32)]> {
        std::cell::Ref::map(self.shared.trace_log.borrow(), |log| {
            log.as_deref().unwrap_or(&[])
        })
    }

    /// Moves the captured event sequence out, leaving capture enabled
    /// with a fresh empty log. Returns an empty vector if capture was
    /// never enabled.
    pub fn take_trace(&self) -> Vec<(u64, u32)> {
        self.shared
            .trace_log
            .borrow_mut()
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Allocates a per-simulation object id (lock identities); determinism
    /// requires these to be scoped to the simulation, never process-global.
    pub fn alloc_id(&self) -> u64 {
        let id = self.shared.next_obj_id.get();
        self.shared.next_obj_id.set(id + 1);
        id
    }

    /// Installs (or, with `None`, removes) the schedule-exploration
    /// controller. While installed, every [`TaskCtx::sched_point`] in the
    /// workload consults its strategy, which may delay or preempt the
    /// arriving task to steer the interleaving.
    pub fn set_sched_hook(&self, controller: Option<Rc<SchedController>>) {
        *self.shared.sched.borrow_mut() = controller;
    }
}

/// Per-task handle passed to every spawned task.
///
/// All simulation primitives — delays, parking, charged memory accesses —
/// go through this context so that costs are attributed to the right CPU and
/// socket.
#[derive(Clone)]
pub struct TaskCtx {
    pub(crate) shared: Rc<Shared>,
    id: TaskId,
    cpu: CpuId,
    socket: SocketId,
}

impl TaskCtx {
    /// This task's identifier.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The virtual CPU this task is pinned to.
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }

    /// The socket (NUMA node) of this task's CPU.
    pub fn socket(&self) -> SocketId {
        self.socket
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> u64 {
        self.shared.now()
    }

    /// The latency constants of the machine this task runs on.
    pub fn latency(&self) -> LatencyModel {
        self.shared.lat
    }

    /// Deterministic pseudo-random 64-bit value.
    pub fn rng_u64(&self) -> u64 {
        self.shared.rng.borrow_mut().next_u64()
    }

    /// Suspends this task for `ns` nanoseconds of virtual time.
    ///
    /// Models computation (critical-section work, backoff) without burning
    /// host CPU. `advance(0)` completes immediately without suspension.
    pub fn advance(&self, ns: u64) -> Delay<'_> {
        Delay {
            ctx: self,
            ns,
            armed: false,
        }
    }

    /// Parks this task until another task calls [`TaskCtx::unpark`] on it.
    ///
    /// Follows `std::thread::park` token semantics: an `unpark` that arrives
    /// before the `park` makes the `park` return immediately. Spurious
    /// wake-ups are possible; callers must re-check their condition.
    pub fn park(&self) -> Park<'_> {
        Park {
            ctx: self,
            armed: false,
        }
    }

    /// Makes `target` runnable again after the scheduler wake-up latency.
    ///
    /// Charges nothing to the caller; callers that want to model the cost of
    /// the wake-up syscall should `advance` explicitly.
    pub fn unpark(&self, target: TaskId) {
        let mut tasks = self.shared.tasks.borrow_mut();
        let slot = &mut tasks[target.0 as usize];
        if slot.done {
            return;
        }
        if slot.parked {
            slot.parked = false;
            drop(tasks);
            self.shared
                .schedule(target, self.shared.now() + self.shared.lat.wake_latency);
        } else {
            slot.unpark_token = true;
        }
    }

    /// Suspends until any event is delivered to this task (used by
    /// `SimCell::wait_while` after registering a line watcher).
    pub(crate) fn suspend(&self) -> Suspend {
        Suspend { armed: false }
    }

    /// Schedules a (possibly spurious) wake-up for this task at `at_ns`.
    pub(crate) fn schedule_self_at(&self, at_ns: u64) {
        self.shared.schedule(self.id, at_ns.max(self.shared.now()));
    }

    /// Registers this task to be woken when `line` is next written.
    pub(crate) fn watch_line(&self, line: LineId) {
        self.shared.cache.borrow_mut().watch(line, self.id);
    }

    /// Deregisters this task from `line`'s watcher list.
    pub(crate) fn unwatch_line(&self, line: LineId) {
        self.shared.cache.borrow_mut().unwatch(line, self.id);
    }

    /// Wakes every current watcher of `line` after the given per-wake
    /// cost.
    ///
    /// The watcher list is drained by swapping it against the executor's
    /// scratch buffer, so the steady state allocates nothing: the line
    /// inherits an empty vector that retains capacity from a previous
    /// cycle, and the drained buffer becomes the next scratch.
    pub(crate) fn wake_watchers(&self, line: LineId, cost: u64) {
        let mut scratch = self.shared.wake_scratch.take();
        self.shared
            .cache
            .borrow_mut()
            .swap_watchers(line, &mut scratch);
        let now = self.shared.now();
        for w in scratch.drain(..) {
            self.shared.schedule(w, now + cost);
        }
        *self.shared.wake_scratch.borrow_mut() = scratch;
    }

    /// A schedule point: lets an installed [`SchedController`] perturb the
    /// interleaving here (delay this task, or take its vCPU offline for a
    /// window). With no controller installed this completes immediately
    /// without charging time, consuming randomness or scheduling an event,
    /// so instrumented algorithms behave bit-identically in normal runs.
    pub async fn sched_point(&self, site: SchedSite, lock_id: u64) {
        let controller = match self.shared.sched.borrow().as_ref() {
            Some(c) => Rc::clone(c),
            None => return,
        };
        let action = controller.on_point(
            site,
            self.id,
            self.cpu.0,
            self.socket.0,
            lock_id,
            self.shared.now(),
        );
        match action {
            SchedAction::Proceed => {}
            SchedAction::Delay(ns) => self.advance(ns).await,
            SchedAction::Preempt(ns) => {
                // Take this task's vCPU offline; our own resume event is
                // deferred past the window by the run loop, like every
                // other event pinned there.
                let until = self.shared.now() + ns;
                {
                    let mut off = self.shared.offline_until.borrow_mut();
                    let slot = &mut off[self.cpu.0 as usize];
                    *slot = (*slot).max(until);
                }
                self.advance(1).await;
            }
        }
    }
}

/// Future returned by [`TaskCtx::advance`].
pub struct Delay<'a> {
    ctx: &'a TaskCtx,
    ns: u64,
    armed: bool,
}

impl Future for Delay<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.ns == 0 {
            return Poll::Ready(());
        }
        let ctx = self.ctx;
        if !self.armed {
            let at = ctx.shared.now() + self.ns;
            if ctx.shared.deliver_in_place(ctx.id, ctx.cpu, at) {
                return Poll::Ready(());
            }
            self.armed = true;
            ctx.shared.schedule(ctx.id, at);
            // Remember the deadline so spurious polls stay pending.
            self.ns = at;
            Poll::Pending
        } else if ctx.shared.now() >= self.ns {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

/// Future returned by [`TaskCtx::park`].
pub struct Park<'a> {
    ctx: &'a TaskCtx,
    armed: bool,
}

impl Future for Park<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let mut tasks = self.ctx.shared.tasks.borrow_mut();
        let slot = &mut tasks[self.ctx.id.0 as usize];
        if slot.unpark_token {
            slot.unpark_token = false;
            slot.parked = false;
            return Poll::Ready(());
        }
        if !self.armed {
            slot.parked = true;
            drop(tasks);
            self.armed = true;
            Poll::Pending
        } else if slot.parked {
            // Spurious poll while still parked.
            Poll::Pending
        } else {
            Poll::Ready(())
        }
    }
}

/// Future that completes on the next event delivered to the task.
pub(crate) struct Suspend {
    armed: bool,
}

impl Future for Suspend {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if !self.armed {
            self.armed = true;
            Poll::Pending
        } else {
            Poll::Ready(())
        }
    }
}

fn noop_waker() -> Waker {
    const VTABLE: RawWakerVTable = RawWakerVTable::new(
        |_| RawWaker::new(std::ptr::null(), &VTABLE),
        |_| {},
        |_| {},
        |_| {},
    );
    // SAFETY: the vtable functions are all no-ops and the data pointer is
    // never dereferenced, so every `RawWaker` contract holds trivially.
    unsafe { Waker::from_raw(RawWaker::new(std::ptr::null(), &VTABLE)) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_advance_virtual_time() {
        let sim = SimBuilder::new().build();
        sim.spawn_on(CpuId(0), |t| async move {
            t.advance(100).await;
            t.advance(250).await;
        });
        let stats = sim.run();
        assert_eq!(stats.final_time_ns, 350);
        assert_eq!(stats.tasks_completed, 1);
        assert!(stats.stuck_tasks.is_empty());
    }

    #[test]
    fn tasks_interleave_by_virtual_time() {
        let sim = SimBuilder::new().build();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (cpu, delay) in [(0u32, 300u64), (1, 100), (2, 200)] {
            let order = Rc::clone(&order);
            sim.spawn_on(CpuId(cpu), move |t| async move {
                t.advance(delay).await;
                order.borrow_mut().push(delay);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![100, 200, 300]);
    }

    #[test]
    fn park_unpark_roundtrip() {
        let sim = SimBuilder::new().build();
        let flag = Rc::new(Cell::new(false));
        let f2 = Rc::clone(&flag);
        let sleeper = sim.spawn_on(CpuId(0), move |t| async move {
            t.park().await;
            f2.set(true);
        });
        sim.spawn_on(CpuId(1), move |t| async move {
            t.advance(1_000).await;
            t.unpark(sleeper);
        });
        let stats = sim.run();
        assert!(flag.get());
        // Wakee resumed at 1000 + wake_latency.
        assert_eq!(
            stats.final_time_ns,
            1_000 + LatencyModel::default().wake_latency
        );
    }

    #[test]
    fn unpark_before_park_is_not_lost() {
        let sim = SimBuilder::new().build();
        let done = Rc::new(Cell::new(false));
        let d = Rc::clone(&done);
        let target = sim.spawn_on(CpuId(0), move |t| async move {
            // Park only after the unpark has been issued.
            t.advance(5_000).await;
            t.park().await;
            d.set(true);
        });
        sim.spawn_on(CpuId(1), move |t| async move {
            t.unpark(target);
        });
        let stats = sim.run();
        assert!(done.get());
        assert!(stats.stuck_tasks.is_empty());
    }

    #[test]
    fn stuck_parked_task_is_reported() {
        let sim = SimBuilder::new().build();
        sim.spawn_on(CpuId(0), |t| async move {
            t.park().await;
        });
        let stats = sim.run();
        assert_eq!(stats.stuck_tasks, vec![TaskId(0)]);
        assert_eq!(stats.tasks_completed, 0);
    }

    #[test]
    fn run_until_stops_at_deadline_and_resumes() {
        let sim = SimBuilder::new().build();
        let steps = Rc::new(Cell::new(0u32));
        let s = Rc::clone(&steps);
        sim.spawn_on(CpuId(0), move |t| async move {
            for _ in 0..10 {
                t.advance(100).await;
                s.set(s.get() + 1);
            }
        });
        sim.run_until(450);
        assert_eq!(steps.get(), 4);
        let stats = sim.run();
        assert_eq!(steps.get(), 10);
        assert_eq!(stats.final_time_ns, 1_000);
    }

    #[test]
    fn preempted_cpu_defers_its_tasks() {
        let sim = SimBuilder::new().build();
        let done_at = Rc::new(Cell::new(0u64));
        let d = Rc::clone(&done_at);
        sim.spawn_on(CpuId(3), move |t| async move {
            t.advance(100).await;
            d.set(t.now());
        });
        sim.preempt_cpu(CpuId(3), 50_000);
        assert!(!sim.cpu_online(CpuId(3)));
        assert!(sim.cpu_online(CpuId(4)));
        let stats = sim.run();
        // The task could not start until the window ended.
        assert_eq!(done_at.get(), 50_100);
        assert!(stats.stuck_tasks.is_empty());
        assert!(sim.cpu_online(CpuId(3)), "window over");
    }

    #[test]
    fn preemption_does_not_affect_other_cpus() {
        let sim = SimBuilder::new().build();
        sim.preempt_cpu(CpuId(0), 10_000);
        let done_at = Rc::new(Cell::new(0u64));
        let d = Rc::clone(&done_at);
        sim.spawn_on(CpuId(1), move |t| async move {
            t.advance(100).await;
            d.set(t.now());
        });
        sim.run();
        assert_eq!(done_at.get(), 100);
    }

    #[test]
    fn identical_seeds_produce_identical_trace_hash() {
        let run = |seed| {
            let sim = SimBuilder::new().seed(seed).build();
            for cpu in 0..8u32 {
                sim.spawn_on(CpuId(cpu), move |t| async move {
                    for _ in 0..50 {
                        let jitter = t.rng_u64() % 97;
                        t.advance(10 + jitter).await;
                    }
                });
            }
            sim.run()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b);
        assert_ne!(a.trace_hash, c.trace_hash);
    }

    #[test]
    fn trace_capture_is_borrowed_and_takeable() {
        let sim = SimBuilder::new().build();
        sim.capture_trace(true);
        sim.spawn_on(CpuId(0), |t| async move {
            t.advance(10).await;
            t.advance(20).await;
        });
        let stats = sim.run();
        // The borrowed view sees every processed event without copying.
        assert_eq!(sim.trace().len() as u64, stats.events);
        assert_eq!(sim.trace().last(), Some(&(30, 0)));
        // Taking moves the log out but leaves capture enabled.
        let log = sim.take_trace();
        assert_eq!(log.len() as u64, stats.events);
        assert!(sim.trace().is_empty());
        sim.spawn_on(CpuId(1), |t| async move {
            t.advance(5).await;
        });
        sim.run();
        assert!(!sim.trace().is_empty(), "capture stays on after take");
    }

    #[test]
    fn lone_timer_is_delivered_in_place_and_traced() {
        let sim = SimBuilder::new().build();
        sim.capture_trace(true);
        sim.spawn_on(CpuId(0), |t| async move {
            t.advance(10).await;
            t.advance(20).await;
        });
        let stats = sim.run();
        // The spawn event comes off the heap; with nothing else queued,
        // each timer is the next event and completes inside that poll.
        assert_eq!((stats.events, stats.in_place), (3, 2));
        assert_eq!(*sim.trace(), [(0, 0), (10, 0), (30, 0)]);
    }

    #[test]
    fn equal_time_queued_event_goes_before_an_in_place_candidate() {
        let sim = SimBuilder::new().build();
        let order = Rc::new(RefCell::new(Vec::new()));
        for cpu in 0..2u32 {
            let order = Rc::clone(&order);
            sim.spawn_on(CpuId(cpu), move |t| async move {
                t.advance(100).await;
                order.borrow_mut().push((t.now(), cpu));
                t.advance(50).await;
                order.borrow_mut().push((t.now(), cpu));
            });
        }
        let stats = sim.run();
        // Task 1 asks for t=100 while task 0's wake-up at t=100 is queued
        // with a lower sequence number: the tie is task 0's, so task 1 goes
        // through the heap behind it. The same again at t=150.
        assert_eq!(*order.borrow(), [(100, 0), (100, 1), (150, 0), (150, 1)]);
        assert_eq!((stats.events, stats.in_place), (6, 0));
    }

    #[test]
    fn timer_past_the_deadline_waits_for_the_next_run_until() {
        let sim = SimBuilder::new().build();
        sim.spawn_on(CpuId(0), |t| async move {
            for _ in 0..10 {
                t.advance(100).await;
            }
        });
        let first = sim.run_until(450);
        // t=500 is past the deadline: it is queued, not delivered.
        assert_eq!(
            (first.final_time_ns, first.events, first.in_place),
            (400, 5, 4)
        );
        let stats = sim.run();
        assert_eq!(
            (stats.final_time_ns, stats.events, stats.in_place),
            (1_000, 11, 9)
        );
        assert_eq!(stats.tasks_completed, 1);
    }

    #[test]
    fn timer_inside_an_offline_window_is_still_deferred() {
        let sim = SimBuilder::new().build();
        let done_at = Rc::new(Cell::new(0u64));
        let (d, s) = (Rc::clone(&done_at), sim.clone());
        sim.spawn_on(CpuId(3), move |t| async move {
            s.preempt_cpu(CpuId(3), 10_000);
            t.advance(100).await;
            d.set(t.now());
        });
        let stats = sim.run();
        assert_eq!(done_at.get(), 10_000);
        assert_eq!(stats.in_place, 0);
    }

    #[test]
    fn teardown_frees_what_stuck_tasks_captured() {
        let sim = SimBuilder::new().build();
        let captured = Rc::new(());
        let weak = Rc::downgrade(&captured);
        let s = sim.clone();
        sim.spawn_on(CpuId(0), move |t| async move {
            let _held = (captured, s);
            t.park().await;
        });
        let stats = sim.run();
        assert_eq!(stats.stuck_tasks, vec![TaskId(0)]);
        assert!(
            weak.upgrade().is_some(),
            "the stuck future owns its captures"
        );
        sim.teardown();
        assert!(weak.upgrade().is_none());
        // Still reported, and running on is harmless.
        assert_eq!(sim.run().stuck_tasks, vec![TaskId(0)]);
        let shared = Rc::downgrade(&sim.shared);
        drop(sim);
        assert!(shared.upgrade().is_none(), "the simulator itself is freed");
    }

    #[test]
    fn trace_is_empty_when_capture_disabled() {
        let sim = SimBuilder::new().build();
        sim.spawn_on(CpuId(0), |t| async move {
            t.advance(10).await;
        });
        sim.run();
        assert!(sim.trace().is_empty());
        assert!(sim.take_trace().is_empty());
    }
}
