//! # minato-exec — one worker pool for the loader's pipeline stages
//!
//! One pool of worker threads serves every stage of a loader pipeline.
//! Each stage is a **role** — an implementation of [`RoleStep`] that
//! performs one bounded unit of work per call (a ticket chunk, one
//! slow resume, one batch-assembly pass).
//!
//! Every role owns a static slice of the pool (`RoleSpec::threads`, in
//! registration order). A worker runs in two phases:
//!
//! 1. **Home role.** While its home role is live the worker never leaves
//!    it, and parks when its rank within the role exceeds the role's
//!    **budget** — the gate a scheduler moves at runtime (loader workers
//!    under an active limit, dedicated slow/batch workers).
//! 2. **Drain.** Once the home role is exhausted the worker *bids* for
//!    the roles still live instead of exiting, preferring the role with
//!    the largest budget deficit and *stealing* into roles at/over budget
//!    when nothing else has work — so a backlog left in a later stage is
//!    finished by the whole pool rather than by that stage's own slice.
//!    A thread no role's slice covers starts here.
//!
//! Per-role occupancy, steal, and role-switch counters make the drain
//! observable ([`ExecStats`]).
//!
//! ## Lifecycle of a role
//!
//! ```text
//!          bid/claim            step() -> Progress | Idle
//!  [idle] ----------> [leased] ---------------------------.
//!    ^                    |                               |
//!    |   lease ends       | step() -> Exhausted           |
//!    '--------------------+<------------------------------'
//!                         v
//!                    [exhausted] --(last occupant leaves)--> finish()
//! ```
//!
//! `finish` runs exactly once, after the role is exhausted and its last
//! occupant has left — the natural place for close-cascade duties
//! (closing the queues the role fed). A step may still be invoked
//! concurrently with or after `finish` in rare races (a worker that
//! claimed the role just before it was marked exhausted); implementations
//! must tolerate that by returning [`StepOutcome::Exhausted`].

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// What one call to [`RoleStep::step`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Work was done.
    Progress,
    /// No work is available right now (the role's source is open but
    /// empty). A draining worker bids for the next live role.
    Idle,
    /// The role can never produce work again (source closed and
    /// drained, or shutdown observed). The executor marks the role
    /// exhausted and calls [`RoleStep::finish`] once the last occupant
    /// leaves.
    Exhausted,
}

/// One pipeline stage runnable by any pool worker.
///
/// A step must be *bounded*: claim one chunk of work, process it, and
/// return. Long blocking waits belong inside the step only when bounded
/// (e.g. a 1 ms starvation wait): between steps a worker observes
/// shutdown and budget changes, and a draining worker re-bids.
pub trait RoleStep: Send + Sync {
    /// Perform one bounded unit of work.
    fn step(&self) -> StepOutcome;

    /// Final flush/close duties; called exactly once after the role is
    /// exhausted and its last occupant has left (see the module docs
    /// for the rare step-after-finish race implementations must
    /// tolerate).
    fn finish(&self) {}
}

/// A role registration: the step body plus its scheduling parameters.
pub struct RoleSpec {
    /// Display name (`"fast"`, `"slow"`, `"batch"`, ...).
    pub name: String,
    /// The step body.
    pub step: Arc<dyn RoleStep>,
    /// Initial budget: how many workers the scheduler wants in this
    /// role. Updated at runtime via [`ExecHandle::set_budget`].
    pub budget: usize,
    /// Width of the role's home slice: the pool threads that serve
    /// this role, and only it, while it is live.
    pub threads: usize,
    /// Hard cap on concurrent occupants, independent of budget — e.g. a
    /// batch role with N assembly lanes caps at N. `None` = unlimited.
    pub max_concurrency: Option<usize>,
}

/// Executor pool configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Pool size.
    pub threads: usize,
    /// Bounded park when a worker finds no runnable work. Budget
    /// changes, a finishing role, and shutdown wake parked workers
    /// immediately; the timeout only bounds the latency of work
    /// arriving through a queue.
    pub idle_wait: Duration,
    /// Thread-name prefix (`"{prefix}-{id}"`).
    pub name_prefix: String,
}

impl ExecConfig {
    /// A pool of `threads` workers whose roles own fixed home slices.
    pub fn fixed(threads: usize) -> ExecConfig {
        ExecConfig {
            threads,
            idle_wait: Duration::from_millis(1),
            name_prefix: "minato-exec".into(),
        }
    }
}

/// Stable identifier of a registered role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RoleId(u64);

struct RoleState {
    id: RoleId,
    name: String,
    step: Arc<dyn RoleStep>,
    budget: AtomicUsize,
    max_concurrency: usize,
    fixed_threads: usize,
    occupancy: AtomicUsize,
    steps: AtomicU64,
    steals: AtomicU64,
    switches_in: AtomicU64,
    exhausted: AtomicBool,
    finished: AtomicBool,
}

impl RoleState {
    fn is_finished(&self) -> bool {
        self.finished.load(Ordering::Acquire)
    }

    fn snapshot(&self) -> RoleStatsSnapshot {
        RoleStatsSnapshot {
            name: self.name.clone(),
            budget: self.budget.load(Ordering::Relaxed),
            occupancy: self.occupancy.load(Ordering::Relaxed),
            steps: self.steps.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            switches_in: self.switches_in.load(Ordering::Relaxed),
            exhausted: self.exhausted.load(Ordering::Acquire),
        }
    }
}

/// Point-in-time view of one role's scheduling state.
#[derive(Debug, Clone)]
pub struct RoleStatsSnapshot {
    /// The role's display name.
    pub name: String,
    /// Current budget (scheduler target).
    pub budget: usize,
    /// Workers currently leased to the role.
    pub occupancy: usize,
    /// Total steps that made progress.
    pub steps: u64,
    /// Progressing leases claimed at/over budget (work stolen into the
    /// role).
    pub steals: u64,
    /// Times a worker switched into this role from a different one.
    pub switches_in: u64,
    /// Whether the role can ever produce work again.
    pub exhausted: bool,
}

/// Point-in-time view of the executor.
#[derive(Debug, Clone)]
pub struct ExecStats {
    /// Pool size.
    pub threads: usize,
    /// Per-role counters.
    pub roles: Vec<RoleStatsSnapshot>,
    /// Total cross-role moves by any worker.
    pub role_switches: u64,
    /// Total progressing leases claimed at/over budget.
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
    next_role_id: AtomicU64,
    shutdown: AtomicBool,
    spawned: AtomicBool,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    total_switches: AtomicU64,
    total_steals: AtomicU64,
    /// Invoked (outside any lock) each time a worker switches into a
    /// role it was not running; set once, first setter wins.
    switch_observer: OnceLock<Arc<dyn Fn(RoleId) + Send + Sync>>,
}

impl Shared {
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn park(&self, wait: Duration) {
        let mut g = self.idle_lock.lock();
        // Re-check under the lock: a wake between the caller's check and
        // this wait must not be lost.
        if self.is_shutdown() {
            return;
        }
        self.idle_cv.wait_for(&mut g, wait);
    }

    fn wake_all(&self) {
        let _g = self.idle_lock.lock();
        self.idle_cv.notify_all();
    }

    /// Takes an occupant slot in `role` and returns the occupancy found,
    /// or `None` when the role is at its concurrency cap.
    fn try_enter(&self, role: &RoleState) -> Option<usize> {
        let prev_occ = role.occupancy.fetch_add(1, Ordering::AcqRel);
        if prev_occ >= role.max_concurrency {
            // Back off through `leave_role`, not a bare decrement: the
            // real occupant may have marked the role exhausted and
            // already left, which makes this claimer the last occupant
            // — and thus responsible for `finish`.
            self.leave_role(role);
            return None;
        }
        Some(prev_occ)
    }

    /// Decrement `role`'s occupancy; the last occupant of an exhausted
    /// role runs `finish` exactly once.
    fn leave_role(&self, role: &RoleState) {
        if role.occupancy.fetch_sub(1, Ordering::AcqRel) == 1
            && role.exhausted.load(Ordering::Acquire)
            && role
                .finished
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            role.step.finish();
            self.wake_all();
        }
    }
}

/// Cloneable control handle: register roles, adjust budgets, read
/// stats, signal shutdown.
///
/// Create the handle first, hand clones to whatever needs control
/// (runtime state, monitors), then [`ExecHandle::spawn`] the pool once
/// the roles are registered.
#[derive(Clone)]
pub struct ExecHandle {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ExecHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecHandle")
            .field("threads", &self.shared.cfg.threads)
            .finish()
    }
}

impl ExecHandle {
    /// Creates the control handle for a (not yet spawned) pool.
    pub fn new(cfg: ExecConfig) -> ExecHandle {
        ExecHandle {
            shared: Arc::new(Shared {
                cfg,
                roles: Mutex::new(Vec::new()),
                next_role_id: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                spawned: AtomicBool::new(false),
                idle_lock: Mutex::new(()),
                idle_cv: Condvar::new(),
                total_switches: AtomicU64::new(0),
                total_steals: AtomicU64::new(0),
                switch_observer: OnceLock::new(),
            }),
        }
    }

    /// Pool configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.shared.cfg
    }

    /// Registers roles and returns their ids in spec order. Workers
    /// bind to the registered roles' slices when they start.
    ///
    /// # Panics
    ///
    /// Panics if the pool has already been spawned.
    pub fn register(&self, specs: Vec<RoleSpec>) -> Vec<RoleId> {
        assert!(
            !self.shared.spawned.load(Ordering::Acquire),
            "roles must be registered before the pool is spawned"
        );
        let mut roles = self.shared.roles.lock();
        specs
            .into_iter()
            .map(|s| {
                let id = RoleId(self.shared.next_role_id.fetch_add(1, Ordering::Relaxed));
                roles.push(Arc::new(RoleState {
                    id,
                    name: s.name,
                    step: s.step,
                    budget: AtomicUsize::new(s.budget),
                    max_concurrency: s.max_concurrency.unwrap_or(usize::MAX),
                    fixed_threads: s.threads,
                    occupancy: AtomicUsize::new(0),
                    steps: AtomicU64::new(0),
                    steals: AtomicU64::new(0),
                    switches_in: AtomicU64::new(0),
                    exhausted: AtomicBool::new(false),
                    finished: AtomicBool::new(false),
                }));
                id
            })
            .collect()
    }

    /// Spawns the pool threads. Call once, after registering the roles.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn spawn(&self) -> std::io::Result<Executor> {
        assert!(
            !self.shared.spawned.swap(true, Ordering::AcqRel),
            "executor pool already spawned"
        );
        let mut handles = Vec::with_capacity(self.shared.cfg.threads);
        for id in 0..self.shared.cfg.threads {
            let shared = Arc::clone(&self.shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("{}-{id}", self.shared.cfg.name_prefix))
                    .spawn(move || worker_loop(&shared, id))?,
            );
        }
        Ok(Executor { handles })
    }

    /// Sets `role`'s budget and wakes parked workers so the change
    /// takes effect at once.
    pub fn set_budget(&self, role: RoleId, n: usize) {
        if let Some(r) = self.find(role) {
            r.budget.store(n, Ordering::Release);
        }
        self.shared.wake_all();
    }

    /// Installs a callback invoked each time a worker switches into a
    /// role it was not previously running (the moves of the drain
    /// phase). Called from worker
    /// threads outside any executor lock, so it must be cheap and
    /// non-blocking. First setter wins; later calls are ignored.
    pub fn set_switch_observer(&self, f: Arc<dyn Fn(RoleId) + Send + Sync>) {
        let _ = self.shared.switch_observer.set(f);
    }

    /// `role`'s current budget (0 if unknown).
    pub fn budget(&self, role: RoleId) -> usize {
        self.find(role)
            .map(|r| r.budget.load(Ordering::Acquire))
            .unwrap_or(0)
    }

    /// Signals full pool shutdown: workers exit at their next safe
    /// point without draining.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake_all();
    }

    /// Snapshot of every registered role.
    pub fn stats(&self) -> ExecStats {
        let roles = self.shared.roles.lock();
        ExecStats {
            threads: self.shared.cfg.threads,
            roles: roles.iter().map(|r| r.snapshot()).collect(),
            role_switches: self.shared.total_switches.load(Ordering::Relaxed),
            steals: self.shared.total_steals.load(Ordering::Relaxed),
        }
    }

    fn find(&self, id: RoleId) -> Option<Arc<RoleState>> {
        self.shared
            .roles
            .lock()
            .iter()
            .find(|r| r.id == id)
            .cloned()
    }
}

/// Owns the pool threads. [`Executor::join`] (or drop) joins them;
/// workers exit on [`ExecHandle::shutdown`] or when every role has
/// finished.
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

/// Body of pool thread `id`.
///
/// **Home phase.** The thread is bound to the role owning its slot (spec
/// order, `RoleSpec::threads` wide) and stays there while that role is
/// live. A thread whose rank within the role exceeds the budget parks
/// until the budget rises — the classic scaling gate that parks the
/// highest ranks first.
///
/// **Drain phase.** Once the home role is exhausted the thread (parked
/// ranks included) bids for the roles still live, so the tail of a run is
/// finished by the whole pool: between steps it prefers the role with the
/// largest budget deficit and steals into at-budget roles when nothing
/// else has work. It exits when every role has finished.
fn worker_loop(shared: &Shared, id: usize) {
    let roles: Vec<Arc<RoleState>> = shared.roles.lock().clone();
    let mut base = 0usize;
    let mut home = None;
    for r in &roles {
        if id < base + r.fixed_threads {
            home = Some((r, id - base));
            break;
        }
        base += r.fixed_threads;
    }
    if let Some((role, rank)) = home {
        while !shared.is_shutdown() {
            if role.exhausted.load(Ordering::Acquire) || role.is_finished() {
                break;
            }
            if rank >= role.budget.load(Ordering::Acquire) {
                // Parked by the scheduler; budget raises wake us.
                shared.park(Duration::from_millis(50));
                continue;
            }
            if shared.try_enter(role).is_none() {
                // Workers drained from other roles hold every slot.
                shared.park(shared.cfg.idle_wait);
                continue;
            }
            let out = role.step.step();
            match out {
                StepOutcome::Progress => {
                    role.steps.fetch_add(1, Ordering::Relaxed);
                }
                StepOutcome::Idle => {} // The step waited internally.
                StepOutcome::Exhausted => {
                    role.exhausted.store(true, Ordering::Release);
                }
            }
            shared.leave_role(role);
            if out == StepOutcome::Exhausted {
                break;
            }
        }
    }
    let mut current: Option<RoleId> = None;
    while !shared.is_shutdown() {
        // A drained worker leaves alone the capped roles whose own
        // threads already fill the cap (the batch lanes): it could add
        // no capacity there, only take a lane from its owner.
        let mut live: Vec<&Arc<RoleState>> = roles
            .iter()
            .filter(|r| {
                !r.exhausted.load(Ordering::Acquire)
                    && !r.is_finished()
                    && r.fixed_threads < r.max_concurrency
            })
            .collect();
        if live.is_empty() {
            if roles.iter().all(|r| r.is_finished()) {
                break;
            }
            shared.park(shared.cfg.idle_wait);
            continue;
        }
        // Largest deficit first; the current role wins ties so a steady
        // worker does not ping-pong between equally-starved roles.
        live.sort_by_key(|r| {
            let deficit = r
                .budget
                .load(Ordering::Relaxed)
                .saturating_sub(r.occupancy.load(Ordering::Relaxed));
            (std::cmp::Reverse(deficit), current != Some(r.id))
        });
        let mut progressed = false;
        for role in live {
            if shared.is_shutdown() {
                break;
            }
            let budget = role.budget.load(Ordering::Acquire);
            let Some(prev_occ) = shared.try_enter(role) else {
                continue;
            };
            let out = role.step.step();
            if out == StepOutcome::Exhausted {
                role.exhausted.store(true, Ordering::Release);
            }
            shared.leave_role(role);
            if out == StepOutcome::Progress {
                role.steps.fetch_add(1, Ordering::Relaxed);
                if current != Some(role.id) {
                    role.switches_in.fetch_add(1, Ordering::Relaxed);
                    shared.total_switches.fetch_add(1, Ordering::Relaxed);
                    if let Some(obs) = shared.switch_observer.get() {
                        obs(role.id);
                    }
                }
                if prev_occ >= budget {
                    role.steals.fetch_add(1, Ordering::Relaxed);
                    shared.total_steals.fetch_add(1, Ordering::Relaxed);
                }
                current = Some(role.id);
                progressed = true;
                break;
            }
        }
        if !progressed {
            shared.park(shared.cfg.idle_wait);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A role that counts down `work` steps, then reports exhausted.
    struct CountdownRole {
        left: AtomicUsize,
        done: AtomicUsize,
        finishes: AtomicUsize,
        step_cost: Duration,
    }

    impl CountdownRole {
        fn new(work: usize) -> Arc<CountdownRole> {
            Self::with_cost(work, Duration::ZERO)
        }

        fn with_cost(work: usize, step_cost: Duration) -> Arc<CountdownRole> {
            Arc::new(CountdownRole {
                left: AtomicUsize::new(work),
                done: AtomicUsize::new(0),
                finishes: AtomicUsize::new(0),
                step_cost,
            })
        }
    }

    impl RoleStep for CountdownRole {
        fn step(&self) -> StepOutcome {
            let mut cur = self.left.load(Ordering::Acquire);
            loop {
                if cur == 0 {
                    return StepOutcome::Exhausted;
                }
                match self
                    .left
                    .compare_exchange(cur, cur - 1, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => {
                        if !self.step_cost.is_zero() {
                            std::thread::sleep(self.step_cost);
                        }
                        self.done.fetch_add(1, Ordering::Relaxed);
                        return StepOutcome::Progress;
                    }
                    Err(now) => cur = now,
                }
            }
        }

        fn finish(&self) {
            self.finishes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A countdown whose steps take their unit, then hold it until two
    /// threads are inside `step` together — so a second worker joining
    /// the role is both proven and guaranteed a unit of its own. The
    /// wait is bounded, so a pool that never sends one fails the
    /// caller's `max_inside` assertion instead of hanging.
    struct RendezvousRole {
        work: Arc<CountdownRole>,
        inside: AtomicUsize,
        max_inside: AtomicUsize,
    }

    impl RendezvousRole {
        fn new(work: usize) -> Arc<RendezvousRole> {
            Arc::new(RendezvousRole {
                work: CountdownRole::new(work),
                inside: AtomicUsize::new(0),
                max_inside: AtomicUsize::new(0),
            })
        }
    }

    impl RoleStep for RendezvousRole {
        fn step(&self) -> StepOutcome {
            let now = self.inside.fetch_add(1, Ordering::AcqRel) + 1;
            self.max_inside.fetch_max(now, Ordering::AcqRel);
            let out = self.work.step();
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while self.max_inside.load(Ordering::Acquire) < 2
                && std::time::Instant::now() < deadline
            {
                std::thread::yield_now();
            }
            self.inside.fetch_sub(1, Ordering::AcqRel);
            out
        }

        fn finish(&self) {
            self.work.finish();
        }
    }

    /// Records the most threads ever inside `step` at once.
    struct ExclusiveRole {
        inside: AtomicUsize,
        max_seen: AtomicUsize,
        left: AtomicUsize,
    }

    impl ExclusiveRole {
        fn new(work: usize) -> Arc<ExclusiveRole> {
            Arc::new(ExclusiveRole {
                inside: AtomicUsize::new(0),
                max_seen: AtomicUsize::new(0),
                left: AtomicUsize::new(work),
            })
        }
    }

    impl RoleStep for ExclusiveRole {
        fn step(&self) -> StepOutcome {
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

    fn spec(name: &str, step: Arc<dyn RoleStep>, budget: usize, threads: usize) -> RoleSpec {
        RoleSpec {
            name: name.into(),
            step,
            budget,
            threads,
            max_concurrency: None,
        }
    }

    #[test]
    fn fixed_pool_drains_roles_and_exits() {
        let a = CountdownRole::new(100);
        let b = CountdownRole::new(50);
        let h = ExecHandle::new(ExecConfig::fixed(3));
        h.register(vec![spec("a", a.clone(), 2, 2), spec("b", b.clone(), 1, 1)]);
        let mut pool = h.spawn().unwrap();
        pool.join();
        assert_eq!(a.done.load(Ordering::Relaxed), 100);
        assert_eq!(b.done.load(Ordering::Relaxed), 50);
        assert_eq!(a.finishes.load(Ordering::Relaxed), 1, "finish runs once");
        assert_eq!(b.finishes.load(Ordering::Relaxed), 1);
        assert!(h.stats().role("a").unwrap().exhausted);
    }

    #[test]
    fn fixed_worker_joins_live_role_once_its_home_role_is_exhausted() {
        // "a" is exhausted at its first step; "b"'s steps complete only
        // with a second thread inside, which can only be "a"'s worker.
        let a = CountdownRole::new(0);
        let b = RendezvousRole::new(50);
        let h = ExecHandle::new(ExecConfig::fixed(2));
        h.register(vec![spec("a", a.clone(), 1, 1), spec("b", b.clone(), 1, 1)]);
        let mut pool = h.spawn().unwrap();
        pool.join();
        assert_eq!(b.max_inside.load(Ordering::Relaxed), 2, "nobody helped");
        assert_eq!(b.work.done.load(Ordering::Relaxed), 50);
        assert_eq!(a.finishes.load(Ordering::Relaxed), 1, "finish runs once");
        assert_eq!(b.work.finishes.load(Ordering::Relaxed), 1);
        let stats = h.stats();
        assert!(stats.role("b").unwrap().switches_in >= 1, "{stats:?}");
        assert_eq!(stats.role("a").unwrap().switches_in, 0);
    }

    #[test]
    fn fixed_drain_respects_max_concurrency() {
        // Three drained workers bid for a single-lane role that has no
        // thread of its own; the cap keeps `step` single-occupant
        // throughout.
        let a = CountdownRole::new(0);
        let x = ExclusiveRole::new(200);
        let h = ExecHandle::new(ExecConfig::fixed(3));
        h.register(vec![
            spec("a", a.clone(), 3, 3),
            RoleSpec {
                max_concurrency: Some(1),
                ..spec("exclusive", x.clone(), 1, 0)
            },
        ]);
        let mut pool = h.spawn().unwrap();
        pool.join();
        assert_eq!(x.left.load(Ordering::Relaxed), 0, "nobody ran the role");
        assert_eq!(x.max_seen.load(Ordering::Relaxed), 1, "cap was breached");
    }

    #[test]
    fn fixed_drain_cannot_displace_the_owner_of_a_capped_role() {
        // The single-lane role is staffed to its cap by its own worker,
        // so the drained worker never bids there.
        let a = CountdownRole::new(0);
        let x = ExclusiveRole::new(50);
        let h = ExecHandle::new(ExecConfig::fixed(2));
        h.register(vec![
            spec("a", a.clone(), 1, 1),
            RoleSpec {
                max_concurrency: Some(1),
                ..spec("exclusive", x.clone(), 1, 1)
            },
        ]);
        let mut pool = h.spawn().unwrap();
        pool.join();
        assert_eq!(x.left.load(Ordering::Relaxed), 0);
        assert_eq!(x.max_seen.load(Ordering::Relaxed), 1, "cap was breached");
        assert_eq!(h.stats().role_switches, 0, "{:?}", h.stats());
    }

    #[test]
    fn fixed_worker_parked_by_budget_joins_the_drain() {
        // Budget 1 parks "a"'s rank 1 from the start. "b" has no home
        // thread and needs two threads inside at once, so it completes
        // only if the parked worker joins the drain as well.
        let a = CountdownRole::new(10);
        let b = RendezvousRole::new(50);
        let h = ExecHandle::new(ExecConfig::fixed(2));
        h.register(vec![spec("a", a.clone(), 1, 2), spec("b", b.clone(), 1, 0)]);
        let mut pool = h.spawn().unwrap();
        pool.join();
        assert_eq!(a.done.load(Ordering::Relaxed), 10);
        assert_eq!(
            b.max_inside.load(Ordering::Relaxed),
            2,
            "parked rank never left"
        );
        assert_eq!(b.work.done.load(Ordering::Relaxed), 50);
        assert_eq!(b.work.finishes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn fixed_budget_parks_high_ranks() {
        // Budget 0: both "a" threads park; the role makes no progress
        // until the budget rises.
        let a = CountdownRole::new(64);
        let h = ExecHandle::new(ExecConfig::fixed(2));
        let ids = h.register(vec![spec("a", a.clone(), 0, 2)]);
        let mut pool = h.spawn().unwrap();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(a.done.load(Ordering::Relaxed), 0, "budget 0 must park");
        h.set_budget(ids[0], 2);
        pool.join();
        assert_eq!(a.done.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn drained_workers_steal_into_busy_role() {
        // Role "big" has far more work than its budget of 1 warrants;
        // the other workers' home role drains instantly, so they steal.
        let big = CountdownRole::with_cost(400, Duration::from_micros(200));
        let small = CountdownRole::new(1);
        let h = ExecHandle::new(ExecConfig::fixed(4));
        h.register(vec![
            spec("small", small.clone(), 3, 3),
            spec("big", big.clone(), 1, 1),
        ]);
        let mut pool = h.spawn().unwrap();
        pool.join();
        assert_eq!(big.done.load(Ordering::Relaxed), 400);
        let stats = h.stats();
        let b = stats.role("big").unwrap();
        assert!(
            b.steals > 0,
            "workers over budget must have stolen into the busy role: {stats:?}"
        );
        assert!(stats.role_switches > 0);
    }

    #[test]
    fn max_concurrency_caps_occupancy() {
        // A role capped at 1 occupant though its home slice is 4 wide:
        // concurrent steps would double-count; the cap makes `step`
        // effectively single-threaded.
        let role = ExclusiveRole::new(200);
        let h = ExecHandle::new(ExecConfig::fixed(4));
        h.register(vec![RoleSpec {
            name: "exclusive".into(),
            step: role.clone(),
            budget: 4,
            threads: 4,
            max_concurrency: Some(1),
        }]);
        let mut pool = h.spawn().unwrap();
        pool.join();
        assert_eq!(role.left.load(Ordering::Relaxed), 0, "nobody ran the role");
        assert_eq!(
            role.max_seen.load(Ordering::Relaxed),
            1,
            "cap must keep the role single-occupant"
        );
    }

    #[test]
    fn shutdown_stops_workers_without_draining() {
        let a = CountdownRole::new(usize::MAX); // Endless work.
        let h = ExecHandle::new(ExecConfig::fixed(2));
        h.register(vec![spec("a", a.clone(), 2, 2)]);
        let mut pool = h.spawn().unwrap();
        std::thread::sleep(Duration::from_millis(10));
        h.shutdown();
        pool.join(); // Must return promptly.
        assert!(a.done.load(Ordering::Relaxed) < usize::MAX);
    }

    /// Spins until `cond` holds; fails after 10 s instead of hanging.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "{what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn budget_readback_and_unknown_roles() {
        let h = ExecHandle::new(ExecConfig::fixed(1));
        let ids = h.register(vec![spec("a", CountdownRole::new(0), 5, 0)]);
        assert_eq!(h.budget(ids[0]), 5);
        h.set_budget(ids[0], 9);
        assert_eq!(h.budget(ids[0]), 9);
        assert_eq!(h.budget(RoleId(999)), 0);
    }

    /// Work arrives in bursts the test releases; between bursts every
    /// step is `Idle`, so the pool's workers park.
    struct BurstRole {
        avail: AtomicUsize,
        done: AtomicUsize,
        closed: AtomicBool,
        /// Threads that have returned `Idle` since the test last cleared
        /// the set — the proof that a worker parked between bursts.
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
            let me = std::thread::current().id();
            let mut idled = self.idled.lock();
            if !idled.contains(&me) {
                idled.push(me);
            }
            StepOutcome::Idle
        }
    }

    /// A switch is a move to a *different* role: a draining worker that
    /// parks idle and comes back to the role it was running has not
    /// switched.
    #[test]
    fn reentering_the_same_role_after_an_idle_park_is_not_a_switch() {
        const THREADS: usize = 2;
        const BURSTS: usize = 4;
        let role = Arc::new(BurstRole {
            avail: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            idled: Mutex::new(Vec::new()),
        });
        // Both workers' home role is exhausted at its first step, which
        // leaves "only" as the one role their drain can bid for.
        let home = CountdownRole::new(0);
        let h = ExecHandle::new(ExecConfig::fixed(THREADS));
        h.register(vec![
            spec("home", home, THREADS, THREADS),
            spec("only", role.clone(), THREADS, 0),
        ]);
        let mut pool = h.spawn().unwrap();
        for burst in 1..=BURSTS {
            role.avail.store(50, Ordering::Release);
            wait_until("burst never drained", || {
                role.done.load(Ordering::Acquire) == 50 * burst
            });
            role.idled.lock().clear();
            wait_until("a worker never idled between bursts", || {
                role.idled.lock().len() == THREADS
            });
        }
        role.closed.store(true, Ordering::Release);
        pool.join();
        let switches = h.stats().role_switches;
        assert!(
            (1..=THREADS as u64).contains(&switches),
            "each worker enters the only live role once, however often it parks: {switches}"
        );
    }
}
