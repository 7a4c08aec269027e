//! Concrete confirmation of generated ground truth.
//!
//! Each seeded bug carries a witness schedule chosen at generation
//! time; replaying it through the oracle interpreter proves the bug is
//! *executably* reachable, not merely intended. The differential
//! harness calls [`confirm_ground_truth`] before trusting a workload's
//! truth labels — a generator regression that breaks a pattern (wrong
//! publication order, accidental join) shows up here as a failed
//! replay, instead of silently skewing precision numbers.

use canary_detect::MemoryModel;
use canary_ir::Program;
use canary_oracle::{replay_under, ReplayResult};

use crate::generator::{SeededBug, Workload};

/// Replays one seeded bug's schedule through the SC oracle.
pub fn confirm_seeded(prog: &Program, bug: &SeededBug) -> ReplayResult {
    confirm_seeded_under(prog, MemoryModel::Sc, bug)
}

/// Replays one seeded bug's schedule under an explicit memory model —
/// weak-memory litmus seeds only confirm on the store-buffer machine.
pub fn confirm_seeded_under(prog: &Program, model: MemoryModel, bug: &SeededBug) -> ReplayResult {
    replay_under(
        prog,
        model,
        bug.kind,
        bug.source,
        bug.sink,
        &bug.schedule,
        &[],
    )
}

/// Replays every SC-visible seeded bug of a workload and returns the
/// ones that did **not** fire, with the replay outcome explaining why.
/// An empty result means the ground truth is executably confirmed.
pub fn confirm_ground_truth(w: &Workload) -> Vec<(SeededBug, ReplayResult)> {
    confirm_ground_truth_under(w, MemoryModel::Sc)
}

/// [`confirm_ground_truth`] under an explicit memory model: replays
/// every seeded bug *visible under that model* (a store-buffering seed
/// has no SC witness to confirm, so SC skips it) and returns the
/// unconfirmed ones.
pub fn confirm_ground_truth_under(
    w: &Workload,
    model: MemoryModel,
) -> Vec<(SeededBug, ReplayResult)> {
    w.truth
        .seeded
        .iter()
        .filter(|b| b.visible_under(model))
        .map(|b| (b.clone(), confirm_seeded_under(&w.prog, model, b)))
        .filter(|(_, r)| !r.confirmed())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;
    use crate::spec::WorkloadSpec;
    use canary_detect::BugKind;

    #[test]
    fn small_workload_truth_is_executable() {
        let w = generate(&WorkloadSpec::small(5));
        assert!(!w.truth.seeded.is_empty());
        let failures = confirm_ground_truth(&w);
        assert!(failures.is_empty(), "unconfirmed: {failures:?}");
    }

    #[test]
    fn lean_workload_seeds_all_four_checkers() {
        let w = generate(&WorkloadSpec::lean(3));
        let kinds: std::collections::BTreeSet<BugKind> =
            w.truth.seeded.iter().map(|b| b.kind).collect();
        assert_eq!(kinds.len(), 4, "{kinds:?}");
        let failures = confirm_ground_truth(&w);
        assert!(failures.is_empty(), "unconfirmed: {failures:?}");
    }

    #[test]
    fn lock_workload_truth_is_executable() {
        let w = generate(&WorkloadSpec::lean_locks(7));
        let kinds: std::collections::BTreeSet<BugKind> =
            w.truth.seeded.iter().map(|b| b.kind).collect();
        assert!(kinds.contains(&BugKind::DoubleLock), "{kinds:?}");
        assert!(kinds.contains(&BugKind::ConflictLock), "{kinds:?}");
        let failures = confirm_ground_truth(&w);
        assert!(failures.is_empty(), "unconfirmed: {failures:?}");
    }

    #[test]
    fn litmus_workload_truth_is_executable_under_its_models() {
        // Odd seed: SB (TSO+PSO), MP (PSO) and one ordinary SC UAF.
        let w = generate(&WorkloadSpec::litmus(1));
        assert_eq!(w.truth.seeded.len(), 3, "{:?}", w.truth.seeded);
        for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
            let failures = confirm_ground_truth_under(&w, model);
            assert!(failures.is_empty(), "{model:?}: {failures:?}");
        }
        // The weak seeds are invisible to SC: the SC pass must have
        // skipped them rather than vacuously confirmed them.
        let sc_visible = w
            .truth
            .seeded
            .iter()
            .filter(|b| b.visible_under(MemoryModel::Sc))
            .count();
        assert_eq!(sc_visible, 1);
    }

    #[test]
    fn corrupted_schedule_is_rejected() {
        let w = generate(&WorkloadSpec::lean(4));
        let mut bug = w.truth.seeded[0].clone();
        // Claiming the wrong sink must not confirm.
        bug.sink = bug.source;
        assert!(!confirm_seeded(&w.prog, &bug).confirmed());
    }
}
