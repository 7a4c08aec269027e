//! # canary-workloads
//!
//! Deterministic synthetic concurrent programs standing in for the
//! paper's twenty open-source subjects (§7, Tbl. 1). See `DESIGN.md`
//! for the substitution argument; in short, the evaluation's claims are
//! *relative* (scalability ordering, timeout onsets, report volumes),
//! so a generator whose programs have the same structural ingredients —
//! escaping heap traffic, fork/join concurrency, branch-correlated
//! accesses, seeded true bugs and benign look-alikes — exercises the
//! same code paths in Canary and in the baselines.
//!
//! # Examples
//!
//! ```
//! use canary_workloads::{generate, WorkloadSpec};
//!
//! let w = generate(&WorkloadSpec::small(7));
//! w.prog.validate()?;
//! assert_eq!(w.truth.uaf_bugs.len(), 2);
//! # Ok::<(), canary_ir::ValidationError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod confirm;
pub mod generator;
pub mod spec;

pub use confirm::{
    confirm_ground_truth, confirm_ground_truth_under, confirm_seeded, confirm_seeded_under,
};
pub use generator::{evaluate, generate, Eval, GroundTruth, SeededBug, Workload};
pub use spec::{table1_suite, SubjectRow, SuiteScale, WorkloadSpec, TABLE1_SUBJECTS};

#[cfg(test)]
mod tests {
    use super::*;
    use canary_ir::Label;

    #[test]
    fn generated_program_validates() {
        let w = generate(&WorkloadSpec::small(1));
        w.prog.validate().unwrap();
        assert!(w.prog.stmt_count() >= 250);
        assert!(w.prog.threads.len() > 3);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&WorkloadSpec::small(42));
        let b = generate(&WorkloadSpec::small(42));
        assert_eq!(a.prog, b.prog);
        assert_eq!(a.truth.uaf_bugs, b.truth.uaf_bugs);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&WorkloadSpec::small(1));
        let b = generate(&WorkloadSpec::small(2));
        assert_ne!(a.prog, b.prog);
    }

    #[test]
    fn ground_truth_labels_point_at_free_and_deref() {
        let w = generate(&WorkloadSpec::small(3));
        for &(free, deref) in &w.truth.uaf_bugs {
            assert!(matches!(w.prog.inst(free), canary_ir::Inst::Free { .. }));
            assert!(matches!(w.prog.inst(deref), canary_ir::Inst::Deref { .. }));
        }
        for &(free, deref) in &w.truth.benign {
            assert!(matches!(w.prog.inst(free), canary_ir::Inst::Free { .. }));
            assert!(matches!(w.prog.inst(deref), canary_ir::Inst::Deref { .. }));
        }
    }

    #[test]
    fn target_size_roughly_met() {
        let spec = WorkloadSpec {
            target_stmts: 2000,
            ..WorkloadSpec::small(9)
        };
        let w = generate(&spec);
        let n = w.prog.stmt_count();
        assert!((1500..=4000).contains(&n), "{n}");
    }

    #[test]
    fn evaluate_scores_reports() {
        let truth = GroundTruth {
            uaf_bugs: vec![(Label::new(1), Label::new(2))],
            benign: vec![(Label::new(3), Label::new(4))],
            infeasible_patterns: 1,
            seeded: Vec::new(),
        };
        let eval = evaluate(
            &truth,
            &[
                (Label::new(1), Label::new(2)), // TP
                (Label::new(3), Label::new(4)), // FP (benign)
                (Label::new(9), Label::new(9)), // FP (noise)
                (Label::new(1), Label::new(2)), // duplicate TP → not counted twice
            ],
        );
        assert_eq!(eval.true_positives, 1);
        // The duplicate TP is ignored; the two non-matching reports are
        // false positives.
        assert_eq!(eval.false_positives, 2);
        assert_eq!(eval.missed, 0);
        assert!((eval.fp_rate() - 200.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn fp_rate_zero_when_no_reports() {
        let eval = Eval::default();
        assert_eq!(eval.fp_rate(), 0.0);
    }

    #[test]
    fn handshake_patterns_are_fp_only_without_sync_constraints() {
        use canary_core::{Canary, CanaryConfig};
        use canary_detect::{BugKind, DetectOptions};

        let spec = WorkloadSpec {
            true_bugs: 0,
            benign_patterns: 0,
            contradiction_patterns: 0,
            handshake_patterns: 2,
            ..WorkloadSpec::small(17)
        };
        let w = generate(&spec);
        let mk = |sync: bool| {
            Canary::with_config(CanaryConfig {
                checkers: vec![BugKind::UseAfterFree],
                detect: DetectOptions {
                    inter_thread_only: true,
                    sync_constraints: sync,
                    ..DetectOptions::default()
                },
                ..CanaryConfig::default()
            })
        };
        let with_sync = mk(true).analyze(&w.prog);
        assert!(
            with_sync.reports.is_empty(),
            "wait/notify order refutes the handshake frees: {:?}",
            with_sync.reports
        );
        let without_sync = mk(false).analyze(&w.prog);
        assert_eq!(
            without_sync.reports.len(),
            2,
            "without §9 constraints each handshake is a false positive"
        );
    }

    #[test]
    fn canary_finds_exactly_the_seeded_bugs_plus_benign() {
        use canary_core::{Canary, CanaryConfig};
        use canary_detect::{BugKind, DetectOptions};

        let w = generate(&WorkloadSpec::small(11));
        let config = CanaryConfig {
            checkers: vec![BugKind::UseAfterFree],
            detect: DetectOptions {
                inter_thread_only: true,
                ..DetectOptions::default()
            },
            ..CanaryConfig::default()
        };
        let outcome = Canary::with_config(config).analyze(&w.prog);
        let pairs: Vec<(Label, Label)> =
            outcome.reports.iter().map(|r| (r.source, r.sink)).collect();
        let eval = evaluate(&w.truth, &pairs);
        assert_eq!(eval.missed, 0, "all seeded bugs found: {pairs:?}");
        assert_eq!(eval.true_positives, w.truth.uaf_bugs.len(), "{pairs:?}");
        // The only false positives are the benign patterns; every
        // contradiction/join-ordered pattern is refuted.
        assert_eq!(
            eval.false_positives,
            w.truth.benign.len(),
            "reports: {pairs:?}, truth: {:?}",
            w.truth
        );
    }
}
