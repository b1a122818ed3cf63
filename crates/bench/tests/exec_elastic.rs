//! Acceptance gate for the `exec_elastic` ablation: at equal thread
//! count, the fixed-role and role-fluid executors must stay within the
//! parity band ([`EXEC_ELASTIC_PARITY`]) of each other on the balanced
//! workload and on the phase-shifting slow-heavy one. Wall times are
//! taken best-of-3 per arm, with 15 ms of absolute slack, to shield the
//! ratios from scheduler noise on shared CI machines.

use minato_bench::ablations::{exec_elastic_run, EXEC_ELASTIC_PARITY};

fn best_of_3(elastic: bool, phase_shift: bool) -> f64 {
    (0..3)
        .map(|_| exec_elastic_run(elastic, phase_shift).wall_ms)
        .fold(f64::INFINITY, f64::min)
}

fn assert_parity(phase_shift: bool) {
    let fixed = best_of_3(false, phase_shift);
    let elastic = best_of_3(true, phase_shift);
    assert!(
        fixed >= EXEC_ELASTIC_PARITY.start() * elastic - 15.0
            && fixed <= EXEC_ELASTIC_PARITY.end() * elastic + 15.0,
        "fixed {fixed:.0} ms vs elastic {elastic:.0} ms left the parity band \
         {EXEC_ELASTIC_PARITY:?} (phase_shift = {phase_shift})"
    );
}

/// When the fixed split is right-sized, role fluidity must neither cost
/// nor buy throughput.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock ratio is a release-mode gate (CI exec_elastic smoke)"
)]
fn role_fluid_matches_fixed_on_balanced_workload() {
    assert_parity(false);
}

/// When the bottleneck moves to the slow stage mid-run, the elastic
/// pool migrates as the backlog builds and the fixed pool at drain;
/// the fixed pool must not fall back to finishing the backlog on its
/// one slow worker.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock ratio is a release-mode gate (CI exec_elastic smoke)"
)]
fn role_fluid_matches_fixed_on_phase_shifting_workload() {
    assert_parity(true);
}

/// Functional half of the gate, runs in every build: both arms deliver
/// the full sample set; the elastic arm demonstrably migrated capacity
/// (role switches recorded, slow budget grew past its fixed share); the
/// fixed arm's workers move only once their home role is exhausted.
#[test]
fn both_arms_deliver_and_elastic_migrates() {
    // Of the 3 fast + 1 slow + 1 batch threads only the fast ones have
    // a live role left to join once their own is exhausted (the slow
    // role; the batch lane is staffed), and each joins it once.
    const FAST_THREADS: u64 = 3;
    let fixed = exec_elastic_run(false, true);
    let elastic = exec_elastic_run(true, true);
    assert_eq!(fixed.delivered, elastic.delivered);
    assert_eq!(
        fixed.switches_before_drain, 0,
        "a fixed worker left a live home role: {fixed:?}"
    );
    assert!(
        fixed.role_switches <= FAST_THREADS,
        "fixed workers kept migrating after the drain: {fixed:?}"
    );
    assert!(
        elastic.role_switches > 0,
        "role-fluid arm recorded no switches"
    );
    assert!(
        elastic.peak_slow_budget > 1,
        "slow budget never grew past the fixed share: {elastic:?}"
    );
}
