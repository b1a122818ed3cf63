//! Fault-injection hooks and fault accounting.
//!
//! Production loaders meet panicking transforms, corrupt samples, and
//! wedged consumers; this module gives the chaos suite a deterministic
//! way to *cause* those failures inside the worker hot paths and gives
//! operators exact counts of what the loader survived. A
//! [`FaultInjector`] installed via
//! [`MinatoLoaderBuilder::fault_injector`](crate::loader::MinatoLoaderBuilder::fault_injector)
//! is consulted once per sample execution on both the fast and slow
//! paths; a failing sample is quarantined on its first failure and the
//! loader keeps delivering, surfacing the tally as
//! [`LoaderStats::faults`](crate::stats::LoaderStats).

/// Where in the pipeline a fault decision is being made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Load and deadline-bearing run in a claim (`WorkerStep::claim`).
    Fast,
    /// Background completion of a deferred sample (`complete_one`), by
    /// a resuming step or a claiming worker helping.
    Slow,
}

/// What the injector wants to happen to this sample execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultAction {
    /// Run the sample normally.
    #[default]
    None,
    /// Panic mid-execution, as a buggy transform would.
    Panic,
    /// Fail cleanly with a transform error, as a corrupt sample would.
    Poison,
}

/// Deterministic fault oracle consulted by worker steps.
///
/// Implementations must be cheap and thread-safe: `decide` runs on the
/// sample hot path. Returning [`FaultAction::None`] (the only sensible
/// production behavior) costs one dynamic call.
pub trait FaultInjector: Send + Sync + 'static {
    /// Decides the fate of the execution of sample `index` (ticket
    /// sequence number `seq`) at `site`.
    fn decide(&self, site: FaultSite, index: usize, seq: u64) -> FaultAction;
}

/// Counts of faults the loader absorbed, snapshot into
/// [`LoaderStats`](crate::stats::LoaderStats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Sample executions that panicked (caught and contained).
    pub panics: u64,
    /// Sample executions that failed with an error (dataset or
    /// transform), including injector-poisoned samples.
    pub poisoned: u64,
    /// Samples removed from the delivery stream entirely — the sum of
    /// quarantine decisions across both failure kinds.
    pub quarantined: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_action_is_none() {
        assert_eq!(FaultAction::default(), FaultAction::None);
    }

    #[test]
    fn stats_default_is_zero() {
        let s = FaultStats::default();
        assert_eq!(s.panics + s.poisoned + s.quarantined, 0);
    }
}
