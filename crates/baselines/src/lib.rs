//! The baseline data loader the paper compares MinatoLoader against
//! (§2.1).
//!
//! * [`torch`] — PyTorch-DataLoader semantics: pre-determined batches,
//!   per-worker whole-batch fetch, strict in-order delivery bounded by a
//!   prefetch factor (the head-of-line-blocking design of Figure 1a).
//!
//! DALI (transforms offloaded to the GPU that training shares) and
//! Pecan (AutoOrder's deflationary-first reordering) are modelled in the
//! simulator (`minato-sim::policy`), as is the size-based classification
//! heuristic of §3.2/Figure 3a.

pub mod torch;

pub use torch::{TorchConfig, TorchIter, TorchLoader};
