//! # commalloc-net
//!
//! Interconnect models for the `commalloc` allocation-strategy simulator.
//!
//! The paper evaluates allocators with ProcSimity, a simulator that "models
//! communication at the flit level, allowing it to measure how network
//! contention affects machine throughput". This crate rebuilds that substrate
//! at three fidelity levels that share the same mesh, x-y routing and
//! traffic descriptions (see DESIGN.md for the substitution rationale):
//!
//! * [`flit::FlitNetwork`] — a cycle-driven wormhole simulator: messages are
//!   worms of flits that acquire the directed links of their x-y route one
//!   per cycle and block behind each other. Used for microbenchmarks
//!   (Figure 1) and for validating the coarser models.
//! * [`msglevel::MessageLevelNetwork`] — an event-driven store-and-forward
//!   approximation where every link is a FIFO server; useful middle ground
//!   when whole-trace flit simulation is infeasible.
//! * [`fluid::FluidNetwork`] — a contention-rate ("fluid") model: each
//!   running job is described by its expected per-link demand and the model
//!   computes max-min fair message rates under per-link capacities. This is
//!   the model the trace-driven experiments (Figures 7, 8, 11) use.
//!   [`fluid::ProportionalShareModel`] is a simpler non-max-min variant kept
//!   as an ablation of the fairness discipline itself.
//!
//! Traffic descriptions are built with [`traffic::JobTraffic`], which maps a
//! job's rank-level communication pattern onto the physical processors of its
//! allocation and pre-computes per-link demands and the average message
//! distance (the metric of the paper's Figure 10).

pub mod flit;
pub mod fluid;
pub mod latency;
pub mod link;
pub mod msglevel;
pub mod traffic;

/// Rejects duplicate message ids up front: delivery reports are keyed by id,
/// so a duplicate would make the report ambiguous and mask a caller bug
/// (previously swallowed by an `unwrap_or(usize::MAX)` sort key). Strictly
/// increasing ids (what the placement scorer sends) are unique without a
/// set; anything else is checked against one.
pub(crate) fn assert_unique_ids(ids: impl Iterator<Item = u64> + Clone) {
    let mut pairs = ids.clone().zip(ids.clone().skip(1));
    if pairs.all(|(a, b)| a < b) {
        return;
    }
    let mut seen = std::collections::HashSet::new();
    for id in ids {
        assert!(seen.insert(id), "duplicate message id {id}");
    }
}

pub use fluid::{FluidNetwork, ProportionalShareModel, RateModel, ZeroContentionModel};
pub use link::{LinkId, LinkTable};
pub use traffic::JobTraffic;

#[cfg(test)]
mod tests {
    use super::assert_unique_ids;

    #[test]
    fn unique_ids_pass_in_any_order() {
        assert_unique_ids([0u64, 1, 5, 9].into_iter());
        assert_unique_ids([9u64, 5, 1, 0].into_iter());
        assert_unique_ids(std::iter::empty());
    }

    #[test]
    fn a_duplicate_panics_wherever_it_sits() {
        for ids in [
            vec![3u64, 3],
            vec![1, 2, 3, 2],
            vec![4, 1, 4],
            vec![0, 1, 1, 2],
        ] {
            let caught = std::panic::catch_unwind(|| assert_unique_ids(ids.iter().copied()));
            assert!(caught.is_err(), "{ids:?} must be rejected");
        }
    }
}
