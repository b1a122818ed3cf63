//! What the harness reads from the operating system: process CPU time,
//! `/proc` counters, the environment fingerprint, and heap-allocation
//! counts. Linux only, like the `/proc` files it reads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Pass-through wrapper over the system allocator that counts
/// allocations and requested bytes (a local copy, so the benchmark does
/// not depend on `minato-bench`).
pub struct CountingAlloc;

// SAFETY: every operation is forwarded to `System` unchanged; the
// counter updates are relaxed atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's layout is forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's layout is forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: ptr/layout/new_size come straight from the caller, who
        // upholds `GlobalAlloc::realloc`'s preconditions.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr was produced by this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, requested bytes)` since process start.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    )
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of the whole process, in nanoseconds.
///
/// `/proc/self/stat` counts in 10 ms ticks, which is a fifth of what a
/// sleep-based repetition burns in total; the process CPU clock reads
/// the scheduler's own nanosecond accounting instead.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) and the clock id is a constant
    // the kernel defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Value of the `key:` line of a `/proc` status-style file.
fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.trim_start().strip_prefix(':'))
        .map(str::trim)
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            let kb: f64 = field(&s, "VmHWM")?
                .split_whitespace()
                .next()?
                .parse()
                .ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// Live threads of this process.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// `some avg10` of `/proc/pressure/cpu`: the share of the last ten
/// seconds in which some runnable task waited for a CPU. `-1` when the
/// kernel has no pressure accounting.
pub fn cpu_pressure_avg10() -> f64 {
    read("/proc/pressure/cpu")
        .and_then(|s| {
            let some = s.lines().find(|l| l.starts_with("some"))?;
            let v = some
                .split_whitespace()
                .find_map(|w| w.strip_prefix("avg10="))?;
            v.parse().ok()
        })
        .unwrap_or(-1.0)
}

/// `(stolen, total)` clock ticks of all CPUs since boot, from the first
/// line of `/proc/stat`. Stolen ticks are the ones the host ran something
/// else in while this machine wanted to run: on a shared box they, not
/// the pressure figure (which the loader's own threads raise), tell a
/// contended run from a quiet one. `(0, 0)` when unreadable.
pub fn cpu_ticks() -> (u64, u64) {
    let ticks: Vec<u64> = read("/proc/stat")
        .and_then(|s| {
            let line = s.lines().next()?.strip_prefix("cpu")?.to_string();
            Some(
                line.split_whitespace()
                    .filter_map(|t| t.parse().ok())
                    .collect(),
            )
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal; the guest columns
    // after them are already counted in user and nice.
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// Share of the ticks between two [`cpu_ticks`] readings that were stolen.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// The benchmark package's own directory (where `out/` goes).
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn git_sha(repo: &Path) -> Option<String> {
    let head = std::fs::read_to_string(repo.join(".git/HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(repo.join(".git").join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(repo.join(".git/packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
}

/// Where and on what a result was measured, so a run on another machine
/// or a contended one is recognisable after the fact.
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub git_sha: String,
    pub queue_core: String,
}

impl Fingerprint {
    pub fn capture() -> Fingerprint {
        let cpu_model = read("/proc/cpuinfo")
            .and_then(|s| field(&s, "model name").map(str::to_string))
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let repo = package_dir().join("..");
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model,
            kernel: read("/proc/sys/kernel/osrelease")
                .map_or_else(|| "unknown".into(), |s| s.trim().to_string()),
            rustc,
            // The driver's checkout is not a git repository.
            git_sha: git_sha(&repo).unwrap_or_else(|| "unknown".into()),
            queue_core: format!(
                "{:?}",
                minato_core::queue::QueueCore::default().from_env_or()
            ),
        }
    }
}
