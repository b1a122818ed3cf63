//! # minato-exec — one worker pool for the loader's pipeline stages
//!
//! One pool of worker threads serves the stages of a loader pipeline.
//! Each stage is a **role** — an implementation of [`RoleStep`] that
//! performs one bounded unit of work per call.
//!
//! Every role owns a static slice of the pool (`RoleSpec::threads`, in
//! registration order). A thread steps its home role until a step
//! reports the role exhausted, then leaves the pool; it never serves
//! another role. How a role divides its work among its threads is
//! decided inside its step: the loader registers one role whose step
//! claims fast tickets while fewer than `max_workers` of its threads are
//! claiming, and resumes deferred samples otherwise.
//!
//! `finish` runs exactly once, after the role is exhausted and the last
//! thread of its slice has left — the natural place for close-cascade
//! duties. Every thread of the slice counts as an occupant from before
//! the pool starts until it exits, so `finish` cannot run while a thread
//! of the slice is still to take its first step. The other threads of
//! the slice keep stepping until each sees `Exhausted` too (or
//! shutdown), so `step` must keep returning [`StepOutcome::Exhausted`]
//! once it has.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// What one call to [`RoleStep::step`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Work was done.
    Progress,
    /// No work was available (the role's source is open but empty); the
    /// step waited internally, boundedly, before returning.
    Idle,
    /// The role can never produce work again (source closed and
    /// drained, or shutdown observed). The thread leaves the pool; the
    /// last thread of the slice to leave runs [`RoleStep::finish`].
    Exhausted,
}

/// One pipeline stage run by the threads of its slice.
///
/// A step must be *bounded*: claim one chunk of work, process it, and
/// return. Long blocking waits belong inside the step only when bounded
/// (e.g. a 25 ms wait for a deferred sample): between steps a worker
/// observes shutdown.
pub trait RoleStep: Send + Sync {
    /// Perform one bounded unit of work.
    fn step(&self) -> StepOutcome;

    /// Final flush/close duties; called exactly once after the role is
    /// exhausted and the last thread of its slice has left.
    fn finish(&self) {}
}

/// A role registration: the step body plus its slice of the pool.
pub struct RoleSpec {
    /// Display name (e.g. `"worker"`).
    pub name: String,
    /// The step body.
    pub step: Arc<dyn RoleStep>,
    /// Inert: nothing reads it. It stays only because `benchmark/`'s
    /// executor probe builds this struct literally.
    pub budget: usize,
    /// Width of the role's home slice: the pool threads that serve
    /// this role, and only it.
    pub threads: usize,
    /// Inert, like `budget`: every thread of the slice steps the role.
    pub max_concurrency: Option<usize>,
}

/// Executor pool configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Pool size. Its threads are named `minato-exec-{id}`.
    pub threads: usize,
}

impl ExecConfig {
    /// A pool of `threads` workers whose roles own fixed home slices.
    pub fn fixed(threads: usize) -> ExecConfig {
        ExecConfig { threads }
    }
}

struct RoleState {
    name: String,
    /// The step body until the pool is spawned; then only the slice's
    /// threads hold it, so a step holding the handle (the loader's
    /// runtime does) is not kept alive by it.
    step: Mutex<Option<Arc<dyn RoleStep>>>,
    threads: usize,
    /// Threads of the slice not yet gone: set to the slice width before
    /// the pool starts, decremented by each thread as it exits.
    occupancy: AtomicUsize,
    steps: AtomicU64,
    exhausted: AtomicBool,
}

impl RoleState {
    fn snapshot(&self) -> RoleStatsSnapshot {
        RoleStatsSnapshot {
            name: self.name.clone(),
            occupancy: self.occupancy.load(Ordering::Relaxed),
            steps: self.steps.load(Ordering::Relaxed),
            exhausted: self.exhausted.load(Ordering::Acquire),
        }
    }

    /// One thread of the slice leaves; the last one out of an exhausted
    /// role runs `finish`.
    fn leave(&self, step: &dyn RoleStep) {
        if self.occupancy.fetch_sub(1, Ordering::AcqRel) == 1
            && self.exhausted.load(Ordering::Acquire)
        {
            step.finish();
        }
    }
}

/// Point-in-time view of one role.
#[derive(Debug, Clone)]
pub struct RoleStatsSnapshot {
    /// The role's display name.
    pub name: String,
    /// Threads of the role's slice still in the pool.
    pub occupancy: usize,
    /// Total steps that made progress.
    pub steps: u64,
    /// Whether a step has reported the role exhausted.
    pub exhausted: bool,
}

/// Point-in-time view of the executor.
#[derive(Debug, Clone)]
pub struct ExecStats {
    /// Pool size.
    pub threads: usize,
    /// Per-role counters.
    pub roles: Vec<RoleStatsSnapshot>,
    /// Always 0: no thread moves between roles. It stays only because
    /// `benchmark/` reads it.
    pub role_switches: u64,
    /// Always 0, like `role_switches`.
    pub steals: u64,
}

impl ExecStats {
    /// The snapshot for the role named `name`, if present.
    pub fn role(&self, name: &str) -> Option<&RoleStatsSnapshot> {
        self.roles.iter().find(|r| r.name == name)
    }
}

struct Shared {
    cfg: ExecConfig,
    roles: Mutex<Vec<Arc<RoleState>>>,
    shutdown: AtomicBool,
    spawned: AtomicBool,
}

/// Cloneable control handle: register roles, then [`ExecHandle::spawn`]
/// the pool; read stats and signal shutdown from any clone.
#[derive(Clone)]
pub struct ExecHandle {
    shared: Arc<Shared>,
}

impl ExecHandle {
    /// Creates the control handle for a (not yet spawned) pool.
    pub fn new(cfg: ExecConfig) -> ExecHandle {
        ExecHandle {
            shared: Arc::new(Shared {
                cfg,
                roles: Mutex::new(Vec::new()),
                shutdown: AtomicBool::new(false),
                spawned: AtomicBool::new(false),
            }),
        }
    }

    /// Pool configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.shared.cfg
    }

    /// Registers roles, whose slices take the pool threads in
    /// registration order. Panics once the pool has been spawned.
    pub fn register(&self, specs: Vec<RoleSpec>) {
        assert!(
            !self.shared.spawned.load(Ordering::Acquire),
            "roles must be registered before the pool is spawned"
        );
        let roles = specs.into_iter().map(|s| {
            Arc::new(RoleState {
                name: s.name,
                step: Mutex::new(Some(s.step)),
                threads: s.threads,
                occupancy: AtomicUsize::new(0),
                steps: AtomicU64::new(0),
                exhausted: AtomicBool::new(false),
            })
        });
        self.shared.roles.lock().extend(roles);
    }

    /// Spawns the pool threads, each bound to the role whose slice
    /// covers it; panics if called twice. If a thread cannot be spawned,
    /// those already running are shut down and joined.
    pub fn spawn(&self) -> std::io::Result<Executor> {
        assert!(
            !self.shared.spawned.swap(true, Ordering::AcqRel),
            "executor pool already spawned"
        );
        let mut homes = Vec::with_capacity(self.shared.cfg.threads);
        for r in self.shared.roles.lock().iter() {
            let width = r.threads.min(self.shared.cfg.threads - homes.len());
            // Counted before any thread starts: see the module docs.
            r.occupancy.store(width, Ordering::Release);
            if let Some(step) = r.step.lock().take() {
                homes.extend((0..width).map(|_| (Arc::clone(r), Arc::clone(&step))));
            }
        }
        let mut pool = Executor {
            handles: Vec::with_capacity(homes.len()),
        };
        for (id, (role, step)) in homes.into_iter().enumerate() {
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("minato-exec-{id}"))
                .spawn(move || worker_loop(&shared, &role, &*step))
                .inspect_err(|_| self.shutdown())?;
            pool.handles.push(handle);
        }
        Ok(pool)
    }

    /// Signals full pool shutdown: workers exit at their next safe
    /// point without draining.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
    }

    /// Snapshot of every registered role.
    pub fn stats(&self) -> ExecStats {
        let roles = self.shared.roles.lock();
        ExecStats {
            threads: self.shared.cfg.threads,
            roles: roles.iter().map(|r| r.snapshot()).collect(),
            role_switches: 0,
            steals: 0,
        }
    }
}

/// Owns the pool threads. [`Executor::join`] (or drop) joins them;
/// workers exit on [`ExecHandle::shutdown`] or when their role is
/// exhausted.
pub struct Executor {
    handles: Vec<JoinHandle<()>>,
}

impl Executor {
    /// Joins every pool thread (idempotent). Worker panics are
    /// contained: a panicked worker's damage is already recorded by its
    /// role; joining must not propagate into the caller's drop path.
    pub fn join(&mut self) {
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.join();
    }
}

/// Body of a pool thread: steps `role` until it is exhausted or the
/// pool shuts down, then leaves it.
fn worker_loop(shared: &Shared, role: &RoleState, step: &dyn RoleStep) {
    while !shared.shutdown.load(Ordering::Acquire) {
        match step.step() {
            StepOutcome::Progress => {
                role.steps.fetch_add(1, Ordering::Relaxed);
            }
            StepOutcome::Idle => {} // The step waited internally.
            StepOutcome::Exhausted => {
                role.exhausted.store(true, Ordering::Release);
                break;
            }
        }
    }
    role.leave(step);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A role that counts down `work` steps, then reports exhausted.
    struct CountdownRole {
        left: AtomicUsize,
        done: AtomicUsize,
        finishes: AtomicUsize,
    }

    impl CountdownRole {
        fn new(work: usize) -> Arc<CountdownRole> {
            Arc::new(CountdownRole {
                left: AtomicUsize::new(work),
                done: AtomicUsize::new(0),
                finishes: AtomicUsize::new(0),
            })
        }
    }

    impl RoleStep for CountdownRole {
        fn step(&self) -> StepOutcome {
            if self
                .left
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1))
                .is_err()
            {
                return StepOutcome::Exhausted;
            }
            self.done.fetch_add(1, Ordering::Relaxed);
            StepOutcome::Progress
        }

        fn finish(&self) {
            self.finishes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records the most threads ever inside `step` at once, and which
    /// threads stepped it.
    struct ExclusiveRole {
        inside: AtomicUsize,
        max_seen: AtomicUsize,
        left: AtomicUsize,
        stepped_by: Mutex<Vec<std::thread::ThreadId>>,
    }

    impl ExclusiveRole {
        fn new(work: usize) -> Arc<ExclusiveRole> {
            Arc::new(ExclusiveRole {
                inside: AtomicUsize::new(0),
                max_seen: AtomicUsize::new(0),
                left: AtomicUsize::new(work),
                stepped_by: Mutex::new(Vec::new()),
            })
        }
    }

    impl RoleStep for ExclusiveRole {
        fn step(&self) -> StepOutcome {
            let me = std::thread::current().id();
            let mut stepped_by = self.stepped_by.lock();
            if !stepped_by.contains(&me) {
                stepped_by.push(me);
            }
            drop(stepped_by);
            let now = self.inside.fetch_add(1, Ordering::AcqRel) + 1;
            self.max_seen.fetch_max(now, Ordering::AcqRel);
            std::thread::sleep(Duration::from_micros(200));
            self.inside.fetch_sub(1, Ordering::AcqRel);
            if self
                .left
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1))
                == Err(0)
            {
                return StepOutcome::Exhausted;
            }
            StepOutcome::Progress
        }
    }

    fn spec(name: &str, step: Arc<dyn RoleStep>, threads: usize) -> RoleSpec {
        RoleSpec {
            name: name.into(),
            step,
            budget: threads,
            threads,
            max_concurrency: None,
        }
    }

    #[test]
    fn fixed_pool_drains_roles_and_exits() {
        let a = CountdownRole::new(100);
        let b = CountdownRole::new(50);
        let h = ExecHandle::new(ExecConfig::fixed(3));
        h.register(vec![spec("a", a.clone(), 2), spec("b", b.clone(), 1)]);
        let mut pool = h.spawn().unwrap();
        pool.join();
        assert_eq!(a.done.load(Ordering::Relaxed), 100);
        assert_eq!(b.done.load(Ordering::Relaxed), 50);
        assert_eq!(a.finishes.load(Ordering::Relaxed), 1, "finish runs once");
        assert_eq!(b.finishes.load(Ordering::Relaxed), 1);
        let stats = h.stats();
        assert!(stats.role("a").unwrap().exhausted);
        assert_eq!(stats.role("a").unwrap().occupancy, 0, "{stats:?}");
        assert_eq!(stats.role("a").unwrap().steps, 100);
    }

    /// A thread whose home role is exhausted leaves the pool: the live
    /// role is stepped by its own thread alone, however long it runs.
    #[test]
    fn a_thread_whose_home_role_is_exhausted_leaves_the_pool() {
        let a = CountdownRole::new(0);
        let b = ExclusiveRole::new(50);
        let h = ExecHandle::new(ExecConfig::fixed(2));
        h.register(vec![spec("a", a.clone(), 1), spec("b", b.clone(), 1)]);
        let mut pool = h.spawn().unwrap();
        pool.join();
        assert_eq!(b.left.load(Ordering::Relaxed), 0);
        assert_eq!(b.stepped_by.lock().len(), 1, "a second thread joined");
        assert_eq!(a.finishes.load(Ordering::Relaxed), 1);
        let stats = h.stats();
        assert_eq!((stats.role_switches, stats.steals), (0, 0), "{stats:?}");
    }

    /// The single-lane role is staffed by its own worker only, so the
    /// worker whose role is exhausted at its first step never steps it.
    #[test]
    fn fixed_drain_cannot_displace_the_owner_of_a_capped_role() {
        let a = CountdownRole::new(0);
        let x = ExclusiveRole::new(50);
        let h = ExecHandle::new(ExecConfig::fixed(2));
        h.register(vec![
            spec("a", a.clone(), 1),
            RoleSpec {
                max_concurrency: Some(1),
                ..spec("exclusive", x.clone(), 1)
            },
        ]);
        let mut pool = h.spawn().unwrap();
        pool.join();
        assert_eq!(x.left.load(Ordering::Relaxed), 0);
        assert_eq!(x.max_seen.load(Ordering::Relaxed), 1, "cap was breached");
        assert_eq!(h.stats().role_switches, 0, "{:?}", h.stats());
    }

    /// Exhausted at every step; the first step taken waits 20 ms, and
    /// `finish` records how many steps were taken and are running.
    struct SlowFirstRole {
        taken: AtomicUsize,
        inside: AtomicUsize,
        at_finish: Mutex<Vec<(usize, usize)>>,
    }

    impl RoleStep for SlowFirstRole {
        fn step(&self) -> StepOutcome {
            self.inside.fetch_add(1, Ordering::AcqRel);
            if self.taken.fetch_add(1, Ordering::AcqRel) == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            self.inside.fetch_sub(1, Ordering::AcqRel);
            StepOutcome::Exhausted
        }

        fn finish(&self) {
            let seen = (
                self.taken.load(Ordering::Acquire),
                self.inside.load(Ordering::Acquire),
            );
            self.at_finish.lock().push(seen);
        }
    }

    /// `finish` waits for every thread of the slice: each has taken its
    /// step and none is inside one, however the threads are scheduled.
    #[test]
    fn finish_runs_after_every_thread_of_the_slice_has_left() {
        for _ in 0..20 {
            let role = Arc::new(SlowFirstRole {
                taken: AtomicUsize::new(0),
                inside: AtomicUsize::new(0),
                at_finish: Mutex::new(Vec::new()),
            });
            let h = ExecHandle::new(ExecConfig::fixed(3));
            h.register(vec![spec("a", role.clone(), 3)]);
            let mut pool = h.spawn().unwrap();
            pool.join();
            assert_eq!(*role.at_finish.lock(), [(3, 0)], "finish runs once, last");
            assert_eq!(h.stats().role("a").unwrap().occupancy, 0);
        }
    }

    /// Work arrives in bursts the test releases; between bursts a step
    /// waits 100 µs and reports `Idle`.
    struct BurstRole {
        avail: AtomicUsize,
        done: AtomicUsize,
        closed: AtomicBool,
        /// Threads that have returned `Idle` since the test last cleared
        /// the set.
        idled: Mutex<Vec<std::thread::ThreadId>>,
    }

    impl RoleStep for BurstRole {
        fn step(&self) -> StepOutcome {
            if self
                .avail
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1))
                .is_ok()
            {
                self.done.fetch_add(1, Ordering::AcqRel);
                return StepOutcome::Progress;
            }
            if self.closed.load(Ordering::Acquire) {
                return StepOutcome::Exhausted;
            }
            std::thread::sleep(Duration::from_micros(100));
            let me = std::thread::current().id();
            let mut idled = self.idled.lock();
            if !idled.contains(&me) {
                idled.push(me);
            }
            StepOutcome::Idle
        }
    }

    /// Spins until `cond` holds; fails after 10 s instead of hanging.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "{what}");
            std::thread::yield_now();
        }
    }

    /// Only `Exhausted` ends a thread's stepping: after idle steps
    /// between bursts, every thread of the slice is still there to take
    /// the next burst.
    #[test]
    fn an_idle_step_keeps_the_thread_on_its_role() {
        const THREADS: usize = 2;
        const BURSTS: usize = 4;
        let role = Arc::new(BurstRole {
            avail: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            idled: Mutex::new(Vec::new()),
        });
        let h = ExecHandle::new(ExecConfig::fixed(THREADS));
        h.register(vec![spec("bursts", role.clone(), THREADS)]);
        let mut pool = h.spawn().unwrap();
        for burst in 1..=BURSTS {
            role.avail.store(50, Ordering::Release);
            wait_until("burst never drained", || {
                role.done.load(Ordering::Acquire) == 50 * burst
            });
            role.idled.lock().clear();
            wait_until("a thread left between bursts", || {
                role.idled.lock().len() == THREADS
            });
            assert_eq!(h.stats().role("bursts").unwrap().occupancy, THREADS);
        }
        role.closed.store(true, Ordering::Release);
        pool.join();
        let stats = h.stats();
        let bursts = stats.role("bursts").unwrap();
        assert_eq!((bursts.steps, bursts.occupancy), (50 * BURSTS as u64, 0));
        assert_eq!(stats.role_switches, 0);
    }

    /// Holds the pool's own handle, as the loader's runtime does, and
    /// counts its drop.
    struct HoldsHandle {
        _handle: ExecHandle,
        dropped: Arc<AtomicUsize>,
    }

    impl Drop for HoldsHandle {
        fn drop(&mut self) {
            self.dropped.fetch_add(1, Ordering::SeqCst);
        }
    }

    impl RoleStep for HoldsHandle {
        fn step(&self) -> StepOutcome {
            StepOutcome::Exhausted
        }
    }

    /// The handle owns no step once the pool is spawned: a step that
    /// holds the handle is freed when its threads have exited and its
    /// other owners are gone.
    #[test]
    fn a_step_holding_the_handle_is_freed_after_its_threads_exit() {
        let dropped = Arc::new(AtomicUsize::new(0));
        let h = ExecHandle::new(ExecConfig::fixed(2));
        let step = Arc::new(HoldsHandle {
            _handle: h.clone(),
            dropped: Arc::clone(&dropped),
        });
        h.register(vec![spec("a", step, 2)]);
        let mut pool = h.spawn().unwrap();
        pool.join();
        assert!(h.stats().role("a").unwrap().exhausted);
        drop(h);
        assert_eq!(dropped.load(Ordering::SeqCst), 1, "the step leaked");
    }

    #[test]
    fn shutdown_stops_workers_without_draining() {
        let a = CountdownRole::new(usize::MAX); // Endless work.
        let h = ExecHandle::new(ExecConfig::fixed(2));
        h.register(vec![spec("a", a.clone(), 2)]);
        let mut pool = h.spawn().unwrap();
        std::thread::sleep(Duration::from_millis(10));
        h.shutdown();
        pool.join(); // Must return promptly.
        assert!(a.done.load(Ordering::Relaxed) < usize::MAX);
        assert_eq!(a.finishes.load(Ordering::Relaxed), 0, "not exhausted");
    }
}
