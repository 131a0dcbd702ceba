//! The persistent worker pool every sweep runs on: threads spawned once,
//! surviving across waves, sweeps, and requests.
//!
//! Spawning threads per parallel phase (what
//! [`ScopedPool`](super::executor::ScopedPool), the test reference, does)
//! costs tens of microseconds per scatter, and a sweep scatters at least
//! three times per wave. [`PersistentPool`] moves provisioning out of the
//! hot path: workers are created in [`PersistentPool::new`] and parked on
//! a condvar; each
//! [`scatter`](super::executor::WorkerPool::scatter) publishes one *job*
//! (an atomic task cursor plus a completion counter), wakes the workers,
//! participates from the calling thread, and returns when the counter says
//! every task ran. Which worker runs which task is — as the [`WorkerPool`]
//! contract requires — irrelevant: the executor stitches by task index, so
//! sweeps through a `PersistentPool` are **bit-identical** to `ScopedPool`
//! sweeps at every thread budget.
//!
//! A task that panics — on a worker or on the caller's seat — is caught,
//! counted as finished, and re-raised on the caller once every other task
//! has run and the job is retired, the way `thread::scope` reports a
//! panicking scoped thread. The pool stays usable afterwards.
//!
//! Scatters are serialized by an internal gate (one job slot, one worker
//! set); concurrent callers — e.g. two server connections sweeping
//! different scenarios — queue rather than oversubscribe the budget.
//! Nested scatters from inside a task would deadlock on that gate; the
//! executor never does this.
//!
//! ## The hot wait
//!
//! A sweep scatters three times per wave, and between two scatters the
//! caller runs the wave's sequential resolve and commit alone — about
//! 110 µs per 128-point wave on a 2-vCPU host. A worker that parks in that
//! gap pays a park and a wake, tens of µs, at every scatter. So both ends
//! poll before they park, for at most `HOT_WAIT` (200 µs):
//!
//! - a worker that finished a job polls an atomic mirror of the job epoch
//!   (`spin_loop`, with a `yield_now` every few polls) for the next job,
//!   and only then parks on the condvar;
//! - the scattering caller, its own seat drained, polls the job's
//!   completion counter before it parks on `done`;
//! - publishing a job and finishing one notify a condvar only when someone
//!   is parked on it;
//! - shutdown ends a polling worker as it ends a parked one: the poll
//!   watches the shutdown flag too.
//!
//! Each wait counts once in `jigsaw_pool_waits_total{side, how}`
//! (`side="worker"|"caller"`, `how="spun"|"parked"`), the way
//! `jigsaw_conn_waits_total` counts a connection's frame waits. A budget of
//! one thread spawns no workers and never waits, so the server's default
//! `threads: 1` is untouched; between sweeps the workers park after one
//! budget.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::executor::WorkerPool;

/// The borrowed task closure, erased to a raw pointer so parked worker
/// threads (which are `'static`) can carry it.
///
/// # Safety
///
/// The pointee is only ever dereferenced in [`drain`], and only after a
/// task index `t < n_tasks` has been claimed from the job's cursor. Every
/// such index is claimed exactly once and counted finished only after
/// `run(t)` has returned *or unwound* (the call is wrapped in
/// `catch_unwind`), and `scatter` neither returns nor resumes a task's
/// panic until the completion counter says all `n_tasks` tasks have
/// finished — so every dereference happens-before `scatter` leaves, i.e.
/// strictly inside the closure's real lifetime. A worker that holds a clone
/// of an already-finished job finds the cursor exhausted and never touches
/// the pointer.
#[derive(Clone, Copy)]
struct TaskFn(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls are fine) and the pointer is
// only dereferenced within the window described on [`TaskFn`].
unsafe impl Send for TaskFn {}
unsafe impl Sync for TaskFn {}

/// One scatter's work order, shared between the caller and the workers.
#[derive(Clone)]
struct Job {
    run: TaskFn,
    /// Next task index to claim (claims past `n_tasks` are no-ops).
    cursor: Arc<AtomicUsize>,
    /// Tasks that have *finished* running.
    finished: Arc<AtomicUsize>,
    n_tasks: usize,
    /// Seats taken by pool workers; beyond `seat_limit` a worker re-parks
    /// without touching the job (enforces the scatter's thread budget).
    seats: Arc<AtomicUsize>,
    seat_limit: usize,
    /// The first panic payload a task raised, re-raised on the caller.
    panic: Arc<Mutex<Option<Box<dyn Any + Send>>>>,
}

/// How long a worker polls for the next job, and the scattering caller for
/// its job's last task, before parking. Sized to cover a wave's sequential
/// resolve and commit (≈ 112 µs per 128-point wave on a 2-vCPU host, from
/// 13.4 ms and 4.2 ms over `sweep_reuse`'s 157 waves), so a sweep's
/// workers stay awake across the scatters of a wave and park between
/// sweeps.
const HOT_WAIT: Duration = Duration::from_micros(200);

/// Polls between two looks at the clock; each such look also yields.
const POLLS_PER_YIELD: u32 = 64;

/// Poll `ready` for at most `budget`: `true` as soon as it holds, `false`
/// once the budget is spent.
fn poll(budget: Duration, ready: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    let mut polls = 0u32;
    loop {
        if ready() {
            return true;
        }
        polls += 1;
        if polls.is_multiple_of(POLLS_PER_YIELD) {
            if start.elapsed() >= budget {
                return false;
            }
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

#[derive(Default)]
struct PoolState {
    /// Bumped once per published job; workers use it to tell a fresh job
    /// from the one they already served.
    epoch: u64,
    job: Option<Job>,
    /// Worker threads that have started (the constructor's startup barrier,
    /// which is what makes [`PersistentPool::spawned_workers`] exact).
    started: usize,
    shutdown: bool,
    /// Workers parked on `work` (a publisher notifies only when some are).
    parked_workers: usize,
    /// The scattering caller is parked on `done` (the last task's finisher
    /// notifies only then).
    caller_parked: bool,
}

#[derive(Default)]
struct Shared {
    state: Mutex<PoolState>,
    /// Workers park here between jobs.
    work: Condvar,
    /// The scattering caller parks here until the job completes (also used
    /// once at construction for the startup barrier).
    done: Condvar,
    /// Mirror of `state.epoch`, written under the lock, that polling
    /// workers read without it.
    epoch: AtomicU64,
    /// Mirror of `state.shutdown`, so shutdown ends a polling worker.
    shutdown: AtomicBool,
}

/// A [`WorkerPool`] whose worker threads are spawned **once** — at
/// construction — and survive across waves, sweeps, and requests, parked on
/// a condvar between jobs.
///
/// `PersistentPool::new(threads)` spawns `threads - 1` workers; the thread
/// calling `scatter` always participates as the final seat, so a budget-`t`
/// scatter runs on at most `t` concurrent threads exactly like
/// [`ScopedPool`](super::executor::ScopedPool) — and, because the executor
/// stitches by task index, with bit-identical results. Scatters with a
/// smaller budget than the pool simply seat fewer workers.
///
/// Dropping the pool parks no one: workers are flagged down, woken, and
/// joined.
pub struct PersistentPool {
    shared: Arc<Shared>,
    /// Serializes scatters: one job slot, one worker set.
    gate: Mutex<()>,
    workers: Vec<JoinHandle<()>>,
    /// Threads ever created by this pool — stays at `workers.len()` for the
    /// pool's whole lifetime (the property the reuse tests pin).
    spawn_count: usize,
}

impl PersistentPool {
    /// Spawn a pool for a thread budget of `threads` (`threads - 1` parked
    /// workers plus the scattering caller). Budgets of 0 or 1 spawn no
    /// workers; every scatter then runs inline on the caller.
    ///
    /// Returns once every worker thread has actually started, so
    /// [`Self::spawned_workers`] is exact from the moment of construction.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared::default());
        let n_workers = threads.saturating_sub(1);
        let workers: Vec<JoinHandle<()>> = (0..n_workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        // Startup barrier: wait until all workers are inside their loop.
        let mut st = shared.state.lock().expect("pool state poisoned");
        while st.started < n_workers {
            st = shared.done.wait(st).expect("pool state poisoned");
        }
        drop(st);
        pool_obs().workers.add(n_workers as i64);
        PersistentPool { shared, gate: Mutex::new(()), workers, spawn_count: n_workers }
    }

    /// Total worker threads this pool has ever spawned. Constant for the
    /// pool's lifetime (`threads - 1` from [`Self::new`]): scatters reuse
    /// workers, they never create threads.
    pub fn spawned_workers(&self) -> usize {
        self.spawn_count
    }
}

impl std::fmt::Debug for PersistentPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentPool").field("workers", &self.workers.len()).finish()
    }
}

/// Handles to the pool's global instruments (see `jigsaw_obs`);
/// registered once, lock-free to update, purely observational.
struct PoolObs {
    worker_spun: jigsaw_obs::Counter,
    worker_parked: jigsaw_obs::Counter,
    caller_spun: jigsaw_obs::Counter,
    caller_parked: jigsaw_obs::Counter,
    scatters: jigsaw_obs::Counter,
    tasks: jigsaw_obs::Histogram,
    workers: jigsaw_obs::Gauge,
}

fn pool_obs() -> &'static PoolObs {
    static OBS: std::sync::OnceLock<PoolObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        let g = jigsaw_obs::global();
        let waits =
            |side, how| g.counter("jigsaw_pool_waits_total", &[("side", side), ("how", how)]);
        PoolObs {
            worker_spun: waits("worker", "spun"),
            worker_parked: waits("worker", "parked"),
            caller_spun: waits("caller", "spun"),
            caller_parked: waits("caller", "parked"),
            scatters: g.counter("jigsaw_pool_scatters_total", &[]),
            tasks: g.histogram("jigsaw_pool_tasks_per_scatter", &[]),
            workers: g.gauge("jigsaw_pool_workers", &[]),
        }
    })
}

fn worker_loop(shared: &Shared) {
    // Announce startup (releases the constructor's barrier).
    {
        let mut st = shared.state.lock().expect("pool state poisoned");
        st.started += 1;
        shared.done.notify_all();
    }
    let mut seen_epoch = 0u64;
    loop {
        // One wait per job: spun if the next job (or shutdown) showed up
        // within the budget, parked otherwise — however often the condvar
        // wakes before it does.
        let spun = poll(HOT_WAIT, || {
            shared.epoch.load(Ordering::Acquire) != seen_epoch
                || shared.shutdown.load(Ordering::Acquire)
        });
        let obs = pool_obs();
        if spun { &obs.worker_spun } else { &obs.worker_parked }.inc();
        let job = {
            let mut st = shared.state.lock().expect("pool state poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    // The job may already be retired (scatter finished
                    // before this worker looked); then wait again.
                    if let Some(job) = st.job.clone() {
                        break Some(job);
                    }
                    break None;
                }
                st.parked_workers += 1;
                st = shared.work.wait(st).expect("pool state poisoned");
                st.parked_workers -= 1;
            }
        };
        if let Some(job) = job {
            if job.seats.fetch_add(1, Ordering::AcqRel) < job.seat_limit {
                drain(&job, shared);
            }
        }
    }
}

/// Claim and run tasks off the job's cursor until it is exhausted,
/// signalling the completion condvar when the last task finishes. A
/// panicking task still counts as finished; its payload (the first one) is
/// parked on the job for the caller to re-raise.
fn drain(job: &Job, shared: &Shared) {
    loop {
        let t = job.cursor.fetch_add(1, Ordering::Relaxed);
        if t >= job.n_tasks {
            return;
        }
        // SAFETY: `t < n_tasks` is claimed and not yet counted finished, so
        // `scatter` is still waiting and the closure is alive; see
        // [`TaskFn`].
        let run = unsafe { &*job.run.0 };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(t))) {
            job.panic.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(payload);
        }
        if job.finished.fetch_add(1, Ordering::AcqRel) + 1 == job.n_tasks {
            // Read the caller's parked flag under the lock, so the wakeup
            // cannot slip between its counter check and its wait; a
            // polling caller sees the counter without one.
            let caller_parked = shared.state.lock().expect("pool state poisoned").caller_parked;
            if caller_parked {
                shared.done.notify_all();
            }
        }
    }
}

impl WorkerPool for PersistentPool {
    fn scatter(&self, threads: usize, n_tasks: usize, run: &(dyn Fn(usize) + Sync)) {
        // Inline fast path: nothing to parallelize (this also covers the
        // zero-task scatter — no job is published, no worker wakes).
        if threads <= 1 || n_tasks <= 1 || self.workers.is_empty() {
            for t in 0..n_tasks {
                run(t);
            }
            return;
        }
        // Held across the whole job and released before any re-raise, so
        // a task's panic never poisons it.
        let gate = self.gate.lock().expect("pool gate poisoned");
        let obs = pool_obs();
        obs.scatters.inc();
        obs.tasks.record(n_tasks as u64);
        // SAFETY: pure lifetime erasure (`&'a dyn …` → `&'static dyn …`) so
        // the borrow can ride in the `'static` job slot. The pointer is
        // retired from that slot before this function — and with it the real
        // borrow — ends; see [`TaskFn`] for the full argument.
        let run_erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(run) };
        let job = Job {
            run: TaskFn(run_erased as *const _),
            cursor: Arc::new(AtomicUsize::new(0)),
            finished: Arc::new(AtomicUsize::new(0)),
            n_tasks,
            seats: Arc::new(AtomicUsize::new(0)),
            // The caller takes one seat itself.
            seat_limit: threads - 1,
            panic: Arc::new(Mutex::new(None)),
        };
        let parked_workers = {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            st.epoch += 1;
            st.job = Some(job.clone());
            self.shared.epoch.store(st.epoch, Ordering::Release);
            st.parked_workers
        };
        // Polling workers see the epoch; only parked ones need the condvar.
        if parked_workers > 0 {
            self.shared.work.notify_all();
        }
        // Participate from the calling thread, then wait out the stragglers:
        // poll first, park only past the budget.
        drain(&job, &self.shared);
        let all_done = || job.finished.load(Ordering::Acquire) == n_tasks;
        let spun = poll(HOT_WAIT, all_done);
        if spun { &obs.caller_spun } else { &obs.caller_parked }.inc();
        let mut st = self.shared.state.lock().expect("pool state poisoned");
        while !all_done() {
            st.caller_parked = true;
            st = self.shared.done.wait(st).expect("pool state poisoned");
            st.caller_parked = false;
        }
        // Retire the job before `run`'s borrow ends: after this, no worker
        // can clone the erased pointer (and clones taken earlier find the
        // cursor exhausted).
        st.job = None;
        drop(st);
        drop(gate);
        let panic = job.panic.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for PersistentPool {
    fn drop(&mut self) {
        pool_obs().workers.add(-(self.spawn_count as i64));
        self.shared.state.lock().expect("pool state poisoned").shutdown = true;
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::ShardedBasisStore;
    use crate::config::JigsawConfig;
    use crate::mapping::AffineFamily;
    use crate::optimizer::{executor::ScopedPool, SweepResult, SweepRunner};
    use jigsaw_blackbox::models::{Demand, SynthBasis};
    use jigsaw_blackbox::{ParamDecl, ParamSpace};
    use jigsaw_pdb::{BlackBoxSim, Simulation};
    use jigsaw_prng::SeedSet;
    use std::collections::HashSet;

    #[test]
    fn scatter_runs_every_task_exactly_once() {
        let pool = PersistentPool::new(4);
        for n_tasks in [0usize, 1, 2, 7, 64, 1000] {
            let hits: Vec<AtomicUsize> = (0..n_tasks).map(|_| AtomicUsize::new(0)).collect();
            pool.scatter(4, n_tasks, &|t| {
                hits[t].fetch_add(1, Ordering::SeqCst);
            });
            for (t, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), 1, "task {t} of {n_tasks}");
            }
        }
    }

    #[test]
    fn zero_task_scatter_is_a_clean_no_op_and_drop_parks_cleanly() {
        let pool = PersistentPool::new(4);
        assert_eq!(pool.spawned_workers(), 3);
        // A zero-task scatter must neither run anything nor wedge a worker.
        pool.scatter(4, 0, &|_| panic!("no tasks to run"));
        // Workers are still parked and reusable afterwards…
        let ran = AtomicUsize::new(0);
        pool.scatter(4, 16, &|_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 16);
        assert_eq!(pool.spawned_workers(), 3, "reuse, not respawn");
        // …and drop joins them without hanging.
        drop(pool);
    }

    #[test]
    fn budget_one_runs_inline() {
        let pool = PersistentPool::new(1);
        assert_eq!(pool.spawned_workers(), 0);
        let main = std::thread::current().id();
        pool.scatter(1, 8, &|_| assert_eq!(std::thread::current().id(), main));
    }

    #[test]
    fn seat_limit_caps_concurrency_below_pool_size() {
        // An 8-thread pool given budget-2 scatters must run at most 2
        // tasks concurrently (1 worker + the caller).
        let pool = PersistentPool::new(8);
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (live2, peak2) = (Arc::clone(&live), Arc::clone(&peak));
        pool.scatter(2, 64, &move |_| {
            let now = live2.fetch_add(1, Ordering::SeqCst) + 1;
            peak2.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            live2.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "peak {}", peak.load(Ordering::SeqCst));
    }

    /// Block until `n` workers are parked on the condvar — past their hot
    /// wait. A liveness wait, not a timing assertion: it only bounds how
    /// long a wedged pool may hang the test.
    fn wait_until_parked(pool: &PersistentPool, n: usize) {
        for _ in 0..20_000 {
            if pool.shared.state.lock().unwrap().parked_workers == n {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("workers never parked");
    }

    #[test]
    fn a_scatter_after_an_idle_gap_longer_than_the_hot_wait_runs_every_task_once() {
        let pool = PersistentPool::new(3);
        for round in 0..4 {
            std::thread::sleep(2 * HOT_WAIT);
            wait_until_parked(&pool, 2);
            let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
            pool.scatter(3, hits.len(), &|t| {
                hits[t].fetch_add(1, Ordering::SeqCst);
            });
            for (t, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), 1, "round {round} task {t}");
            }
        }
    }

    #[test]
    fn dropping_a_pool_whose_workers_poll_joins_them() {
        // Right after a scatter the workers are inside their hot wait (or
        // just past it); drop must end them either way, and join.
        for _ in 0..20 {
            let pool = PersistentPool::new(4);
            let ran = AtomicUsize::new(0);
            pool.scatter(4, 32, &|_| {
                ran.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(ran.load(Ordering::SeqCst), 32);
            drop(pool);
        }
    }

    #[test]
    fn scatters_past_the_hot_wait_park_and_wake_correctly() {
        // Alternate scatters that find their workers polling (back to
        // back) with scatters that find them parked (after an idle gap):
        // every task runs once, and parked workers wake and serve.
        let pool = PersistentPool::new(3);
        for round in 0..6 {
            if round % 2 == 1 {
                wait_until_parked(&pool, 2);
            }
            let ids = Mutex::new(HashSet::new());
            let hits: Vec<AtomicUsize> = (0..48).map(|_| AtomicUsize::new(0)).collect();
            for _ in 0..3 {
                hits.iter().for_each(|h| h.store(0, Ordering::SeqCst));
                pool.scatter(3, hits.len(), &|t| {
                    hits[t].fetch_add(1, Ordering::SeqCst);
                    ids.lock().unwrap().insert(std::thread::current().id());
                    std::thread::sleep(std::time::Duration::from_micros(100));
                });
                assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1), "round {round}");
            }
            assert!(ids.into_inner().unwrap().len() > 1, "round {round}: no worker served");
        }
        assert_eq!(pool.spawned_workers(), 2);
    }

    fn demand_sim() -> BlackBoxSim {
        let space = ParamSpace::new(vec![
            ParamDecl::range("week", 0, 24, 1),
            ParamDecl::set("feature", vec![5, 12]),
        ]);
        BlackBoxSim::new(Arc::new(Demand::paper()), space, SeedSet::new(2024))
    }

    fn synth_sim(n_bases: usize) -> BlackBoxSim {
        let space = ParamSpace::new(vec![ParamDecl::range("p", 0, 48, 1)]);
        BlackBoxSim::new(Arc::new(SynthBasis::new(n_bases)), space, SeedSet::new(7))
    }

    fn cfg(threads: usize) -> JigsawConfig {
        JigsawConfig::paper().with_n_samples(120).with_threads(threads)
    }

    fn assert_identical(a: &SweepResult, b: &SweepResult, what: &str) {
        assert_eq!(a.points.len(), b.points.len(), "{what}: point count");
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x, y, "{what}: point {} diverged", x.point_idx);
        }
        assert_eq!(a.stats.counters(), b.stats.counters(), "{what}: counters");
    }

    /// Sweep `sim` on `pool`, returning the result plus the store's exact
    /// snapshot bytes — the strongest equality we can ask for.
    fn sweep_bytes(
        sim: &dyn jigsaw_pdb::Simulation,
        threads: usize,
        pool: Arc<dyn WorkerPool>,
    ) -> (SweepResult, Vec<u8>) {
        let c = cfg(threads);
        let mut stores = ShardedBasisStore::new(sim.columns().len(), &c, Arc::new(AffineFamily));
        let r = SweepRunner::new(c.clone()).pool(pool).store(&mut stores).run(sim).unwrap();
        let bytes = stores.to_snapshot_bytes(&c, "affine").unwrap();
        (r, bytes)
    }

    #[test]
    fn sweeps_are_bit_identical_to_scoped_pool() {
        for (name, sim) in [
            ("Demand", demand_sim()),
            ("SynthBasis(1)", synth_sim(1)),
            ("SynthBasis(4)", synth_sim(4)),
        ] {
            for threads in [1usize, 4] {
                let (scoped, scoped_bytes) = sweep_bytes(&sim, threads, Arc::new(ScopedPool));
                let (persist, persist_bytes) =
                    sweep_bytes(&sim, threads, Arc::new(PersistentPool::new(threads)));
                let what = format!("{name} threads={threads}");
                assert_identical(&scoped, &persist, &what);
                assert_eq!(scoped_bytes, persist_bytes, "{what}: snapshot bytes diverged");
            }
        }
    }

    #[test]
    fn workers_survive_across_consecutive_sweeps() {
        let sim = demand_sim();
        let pool = Arc::new(PersistentPool::new(4));
        assert_eq!(pool.spawned_workers(), 3, "workers spawned once, at construction");
        let c = cfg(4);
        let mut stores = ShardedBasisStore::new(sim.columns().len(), &c, Arc::new(AffineFamily));
        let mut runner = SweepRunner::new(c.clone())
            .pool(pool.clone() as Arc<dyn WorkerPool>)
            .store(&mut stores);
        let cold = runner.run(&sim).unwrap();
        assert!(cold.stats.full_simulations > 0);
        let warm = runner.run(&sim).unwrap();
        assert_eq!(warm.stats.warm_hits, warm.stats.points, "second sweep rides warm bases");
        // The whole point of the pool: two sweeps, zero new thread spawns.
        assert_eq!(pool.spawned_workers(), 3, "sweeps must reuse workers, never respawn");
    }

    #[test]
    fn tasks_run_on_reused_worker_threads() {
        let pool = PersistentPool::new(4);
        let grab = || {
            let ids = Mutex::new(HashSet::new());
            pool.scatter(4, 256, &|_| {
                ids.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_micros(20));
            });
            ids.into_inner().unwrap()
        };
        let first = grab();
        let second = grab();
        assert!(first.len() > 1, "scatter actually fanned out");
        // Every thread of the second scatter already served the first (the
        // caller plus parked workers) — nothing was spawned in between.
        assert!(second.is_subset(&first), "workers were reused, not respawned");
        assert_eq!(pool.spawned_workers(), 3);
    }

    #[test]
    fn a_task_panic_reaches_the_caller_after_every_task_ran() {
        let pool = PersistentPool::new(4);
        let n_tasks = 64;
        let hits: Vec<AtomicUsize> = (0..n_tasks).map(|_| AtomicUsize::new(0)).collect();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scatter(4, n_tasks, &|t| {
                hits[t].fetch_add(1, Ordering::SeqCst);
                if t % 5 == 2 {
                    panic!("deliberate panic in task {t}");
                }
            })
        }));
        let payload = caught.expect_err("a task's panic must unwind out of scatter");
        let message = jigsaw_pdb::worlds::panic_message(payload);
        assert!(message.starts_with("deliberate panic in task "), "{message}");
        // Panicking or not, every task ran, and ran once.
        for (t, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "task {t}");
        }
        // No worker died and nothing is poisoned: the same workers finish
        // the next scatter.
        let ran = AtomicUsize::new(0);
        pool.scatter(4, n_tasks, &|_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), n_tasks);
        assert_eq!(pool.spawned_workers(), 3);
    }
}
