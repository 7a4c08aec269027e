//! Cross-tool invariants on generated workloads: the precision and
//! recall ordering the paper's evaluation (§7.2) rests on.

use std::time::Duration;

use canary::{Canary, CanaryConfig};
use canary_baselines::{fsam, saber, Budgeted, Deadline};
use canary_detect::{BugKind, DetectOptions};
use canary_ir::Label;
use canary_workloads::{evaluate, generate, Workload, WorkloadSpec};

fn canary_pairs(w: &Workload) -> Vec<(Label, Label)> {
    let canary = Canary::with_config(CanaryConfig {
        checkers: vec![BugKind::UseAfterFree],
        detect: DetectOptions {
            inter_thread_only: true,
            ..DetectOptions::default()
        },
        ..CanaryConfig::default()
    });
    canary
        .analyze(&w.prog)
        .reports
        .iter()
        .map(|r| (r.source, r.sink))
        .collect()
}

fn saber_pairs(w: &Workload) -> Vec<(Label, Label)> {
    match saber::check_uaf(&w.prog, Deadline::after(Duration::from_secs(120))) {
        Budgeted::Done(rs) => rs.iter().map(|r| (r.source, r.sink)).collect(),
        Budgeted::TimedOut => panic!("small workload should not time out"),
    }
}

fn fsam_pairs(w: &Workload) -> Vec<(Label, Label)> {
    match fsam::check_uaf(&w.prog, Deadline::after(Duration::from_secs(120))) {
        Budgeted::Done(rs) => rs.iter().map(|r| (r.source, r.sink)).collect(),
        Budgeted::TimedOut => panic!("small workload should not time out"),
    }
}

#[test]
fn canary_full_recall_on_seeded_bugs() {
    for seed in [1u64, 2, 3, 4, 5] {
        let w = generate(&WorkloadSpec::small(seed));
        let eval = evaluate(&w.truth, &canary_pairs(&w));
        assert_eq!(eval.missed, 0, "seed {seed}: all seeded bugs found");
        assert_eq!(eval.true_positives, w.truth.uaf_bugs.len(), "seed {seed}");
    }
}

#[test]
fn canary_fp_are_exactly_the_benign_patterns() {
    for seed in [10u64, 20, 30] {
        let w = generate(&WorkloadSpec::small(seed));
        let pairs = canary_pairs(&w);
        let eval = evaluate(&w.truth, &pairs);
        assert_eq!(
            eval.false_positives,
            w.truth.benign.len(),
            "seed {seed}: reports {pairs:?}"
        );
        for fp in pairs.iter().filter(|p| !w.truth.uaf_bugs.contains(p)) {
            assert!(
                w.truth.benign.contains(fp),
                "seed {seed}: unexplained FP {fp:?}"
            );
        }
    }
}

#[test]
fn baselines_report_supersets_of_truth_volume() {
    let w = generate(&WorkloadSpec::small(7));
    let canary_n = canary_pairs(&w).len();
    let saber_n = saber_pairs(&w).len();
    let fsam_n = fsam_pairs(&w).len();
    assert!(saber_n >= canary_n, "saber {saber_n} >= canary {canary_n}");
    assert!(fsam_n >= canary_n, "fsam {fsam_n} >= canary {canary_n}");
    // The baselines still find every seeded bug (they over-report, they
    // do not under-report).
    let se = evaluate(&w.truth, &saber_pairs(&w));
    assert_eq!(se.missed, 0);
}

#[test]
fn baseline_fp_rate_dominates_canary() {
    let w = generate(&WorkloadSpec::small(13));
    let ce = evaluate(&w.truth, &canary_pairs(&w));
    let se = evaluate(&w.truth, &saber_pairs(&w));
    let fe = evaluate(&w.truth, &fsam_pairs(&w));
    assert!(se.fp_rate() >= ce.fp_rate(), "{se:?} vs {ce:?}");
    assert!(fe.fp_rate() >= ce.fp_rate(), "{fe:?} vs {ce:?}");
}

#[test]
fn contradiction_patterns_split_the_tools() {
    // A workload that is all infeasible patterns: Canary reports
    // nothing, the baselines report every pattern.
    let spec = WorkloadSpec {
        true_bugs: 0,
        benign_patterns: 0,
        contradiction_patterns: 4,
        ..WorkloadSpec::small(99)
    };
    let w = generate(&spec);
    assert!(canary_pairs(&w).is_empty());
    assert!(!saber_pairs(&w).is_empty());
}

#[test]
fn vfg_sizes_scale_down_for_canary() {
    // Canary's sparse guarded VFG stays smaller than the exhaustive
    // unguarded product on conflation-heavy inputs.
    let spec = WorkloadSpec {
        target_stmts: 1200,
        ..WorkloadSpec::small(21)
    };
    let w = generate(&spec);
    let canary = Canary::new();
    let (_pool, df, _ir, _cg, _ts, _m) = canary.build_vfg(&w.prog);
    let saber = saber::build_vfg(&w.prog, Deadline::after(Duration::from_secs(120)))
        .expect_done("fits budget");
    assert!(
        df.vfg.edge_count() <= saber.vfg.edge_count(),
        "canary {} <= saber {}",
        df.vfg.edge_count(),
        saber.vfg.edge_count()
    );
}
