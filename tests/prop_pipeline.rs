//! Property-based end-to-end tests: random workload specifications and
//! random straight-line programs through the full pipeline.

use proptest::prelude::*;

use canary::{Canary, CanaryConfig};
use canary_detect::{BugKind, DetectOptions};
use canary_ir::Label;
use canary_workloads::{evaluate, generate, WorkloadSpec};

fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (
        0u64..1000,
        200usize..800,
        1usize..4,
        1usize..5,
        0usize..3,
        0usize..2,
        0usize..3,
        0usize..2,
    )
        .prop_map(
            |(seed, stmts, threads, cells, bugs, benign, contra, hs)| WorkloadSpec {
                name: format!("prop-{seed}"),
                seed,
                target_stmts: stmts,
                threads,
                shared_cells: cells,
                true_bugs: bugs,
                benign_patterns: benign,
                contradiction_patterns: contra,
                handshake_patterns: hs,
                order_fp_patterns: hs,
                double_free: 0,
                null_deref: 0,
                leak: 0,
                double_lock: 0,
                conflict_lock: 0,
                sb_patterns: 0,
                mp_patterns: 0,
                lb_patterns: 0,
                family_fanout: 0,
                hard_family_ratio: 0.0,
                filler: true,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_programs_always_validate(spec in spec_strategy()) {
        let w = generate(&spec);
        prop_assert!(w.prog.validate().is_ok());
        prop_assert_eq!(w.truth.uaf_bugs.len(), spec.true_bugs);
        prop_assert_eq!(w.truth.benign.len(), spec.benign_patterns);
    }

    #[test]
    fn pipeline_total_recall_and_bounded_fp(spec in spec_strategy()) {
        let w = generate(&spec);
        let canary = Canary::with_config(CanaryConfig {
            checkers: vec![BugKind::UseAfterFree],
            detect: DetectOptions {
                inter_thread_only: true,
                ..DetectOptions::default()
            },
            ..CanaryConfig::default()
        });
        let outcome = canary.analyze(&w.prog);
        let pairs: Vec<(Label, Label)> =
            outcome.reports.iter().map(|r| (r.source, r.sink)).collect();
        let eval = evaluate(&w.truth, &pairs);
        prop_assert_eq!(eval.missed, 0, "missed seeded bugs: {:?}", pairs);
        // Reports are exactly: seeded bugs + benign patterns. The
        // contradiction patterns never surface.
        prop_assert_eq!(eval.false_positives, w.truth.benign.len());
    }

    #[test]
    fn analysis_is_deterministic(spec in spec_strategy()) {
        let w = generate(&spec);
        let canary = Canary::new();
        let a = canary.analyze(&w.prog);
        let b = canary.analyze(&w.prog);
        let pa: Vec<_> = a.reports.iter().map(|r| (r.kind, r.source, r.sink)).collect();
        let pb: Vec<_> = b.reports.iter().map(|r| (r.kind, r.source, r.sink)).collect();
        prop_assert_eq!(pa, pb);
    }

    #[test]
    fn parallel_solving_matches_sequential(spec in spec_strategy()) {
        let w = generate(&spec);
        let mk = |threads: usize| {
            Canary::with_config(CanaryConfig {
                checkers: vec![BugKind::UseAfterFree],
                detect: DetectOptions {
                    solver: canary::smt::SolverOptions {
                        num_threads: threads,
                        ..canary::smt::SolverOptions::default()
                    },
                    ..DetectOptions::default()
                },
                ..CanaryConfig::default()
            })
        };
        let seq: Vec<_> = mk(1)
            .analyze(&w.prog)
            .reports
            .iter()
            .map(|r| (r.kind, r.source, r.sink))
            .collect();
        let par: Vec<_> = mk(4)
            .analyze(&w.prog)
            .reports
            .iter()
            .map(|r| (r.kind, r.source, r.sink))
            .collect();
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn mhp_toggle_never_changes_reports(spec in spec_strategy()) {
        // MHP pruning is an optimization: the SMT order constraints
        // refute the same pairs, so final reports must be identical,
        // and pruning never adds an interference edge.
        let w = generate(&spec);
        let (with, with_edges) = uaf_pairs_and_edges(&w.prog, true);
        let (without, without_edges) = uaf_pairs_and_edges(&w.prog, false);
        prop_assert_eq!(with, without);
        prop_assert!(with_edges <= without_edges, "{} > {}", with_edges, without_edges);
    }
}

/// The use-after-free findings as (source, sink) pairs, and the number
/// of interference edges Alg. 2 added, with MHP pruning on or off.
fn uaf_pairs_and_edges(prog: &canary_ir::Program, mhp: bool) -> (Vec<(Label, Label)>, usize) {
    let outcome = Canary::with_config(CanaryConfig {
        checkers: vec![BugKind::UseAfterFree],
        interference: canary_interference::InterferenceOptions {
            use_mhp: mhp,
            ..canary_interference::InterferenceOptions::default()
        },
        ..CanaryConfig::default()
    })
    .analyze(prog);
    let pairs = outcome.reports.iter().map(|r| (r.source, r.sink)).collect();
    (pairs, outcome.metrics.interference_edges)
}

#[test]
fn mhp_pruning_removes_interference_edges_on_the_ablation_subject() {
    // The fixed MHP ablation subject (§6): here pruning must remove
    // edges, not merely never add them.
    let w = generate(&WorkloadSpec {
        target_stmts: 1200,
        ..WorkloadSpec::small(0xAB1A)
    });
    let (with, with_edges) = uaf_pairs_and_edges(&w.prog, true);
    let (without, without_edges) = uaf_pairs_and_edges(&w.prog, false);
    assert_eq!(with, without);
    assert!(
        with_edges < without_edges,
        "{with_edges} vs {without_edges}"
    );
}
