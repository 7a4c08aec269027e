//! Soundness envelope of lock-sharpened MHP: the sharpening may only
//! delete interference edges that a killing store inside the same
//! critical section makes unobservable, so
//!
//! * on **lock-free** programs it must be a strict no-op — same
//!   reports, same refutations, zero `mhp_lock_pruned`, for random
//!   generated workloads (property-tested) and the embedded corpus;
//! * on **lock-guarded** subjects it must actually fire
//!   (`mhp_lock_pruned > 0`) without changing the confirmed findings.

use canary::{AnalysisOutcome, Canary, CanaryConfig};
use canary_workloads::{generate, WorkloadSpec};
use proptest::prelude::*;

fn with_sharpening(on: bool) -> Canary {
    let mut config = CanaryConfig::default();
    config.interference.lock_sharpen = on;
    Canary::with_config(config)
}

/// A finding as `(kind, source, sink)`.
type Finding = (String, u32, u32);

/// Everything a sharpening-induced change would show up in.
fn signature(outcome: &AnalysisOutcome) -> (Vec<Finding>, Vec<Finding>, usize) {
    (
        outcome
            .reports
            .iter()
            .map(|r| (r.kind.to_string(), r.source.0, r.sink.0))
            .collect(),
        outcome
            .refuted
            .iter()
            .map(|r| (r.kind.to_string(), r.source.0, r.sink.0))
            .collect(),
        outcome.metrics.interference_edges,
    )
}

fn lock_free_spec(seed: u64, stmts: usize, threads: usize, bugs: usize) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("sharpen-eq-{seed}"),
        seed,
        target_stmts: stmts,
        threads,
        shared_cells: 2,
        true_bugs: bugs,
        benign_patterns: 1,
        contradiction_patterns: 1,
        handshake_patterns: 1,
        order_fp_patterns: 1,
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
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random lock-free workloads: sharpening on vs off is outcome-
    /// identical and never counts a pruned pair.
    #[test]
    fn lock_free_workloads_are_sharpening_invariant(
        seed in 0u64..1000,
        stmts in 200usize..500,
        threads in 1usize..4,
        bugs in 0usize..3,
    ) {
        let w = generate(&lock_free_spec(seed, stmts, threads, bugs));
        let on = with_sharpening(true).analyze(&w.prog);
        let off = with_sharpening(false).analyze(&w.prog);
        prop_assert_eq!(on.metrics.mhp_lock_pruned, 0, "lock-free: nothing to prune");
        prop_assert_eq!(off.metrics.mhp_lock_pruned, 0);
        prop_assert_eq!(signature(&on), signature(&off));
    }
}

/// A lock-guarded subject where a killing store inside the writer's
/// critical section shadows the first store before the unlock: the
/// sharpening fires, and firing changes no finding.
#[test]
fn lock_guarded_subject_prunes_without_changing_findings() {
    let src = "fn main() {
                   mu = alloc m; cell = alloc c;
                   init = alloc i; *cell = init;
                   fork t w(mu, cell);
                   lock mu;
                   x = *cell; use x;
                   unlock mu;
               }
               fn w(lk, slot) {
                   lock lk;
                   v = alloc o1; *slot = v;
                   u = alloc o2; *slot = u;
                   unlock lk;
               }";
    let on = with_sharpening(true).analyze_source(src).unwrap();
    let off = with_sharpening(false).analyze_source(src).unwrap();
    assert!(
        on.metrics.mhp_lock_pruned > 0,
        "sharpening must fire on the shadowed store"
    );
    assert_eq!(off.metrics.mhp_lock_pruned, 0);
    assert!(
        on.metrics.interference_edges < off.metrics.interference_edges,
        "pruning must remove at least one edge ({} vs {})",
        on.metrics.interference_edges,
        off.metrics.interference_edges
    );
    let reports = |o: &AnalysisOutcome| -> Vec<(String, u32, u32)> {
        o.reports
            .iter()
            .map(|r| (r.kind.to_string(), r.source.0, r.sink.0))
            .collect()
    };
    assert_eq!(
        reports(&on),
        reports(&off),
        "sharpening must not change findings"
    );
}

/// The seeded lock corpora stay sharpening-invariant too: the guarded
/// patterns carry no shadowed store, so the counter stays zero and the
/// findings agree.
#[test]
fn lock_seeded_workloads_keep_findings_under_sharpening() {
    for seed in [5, 6] {
        let w = generate(&WorkloadSpec::lean_locks(seed));
        let on = with_sharpening(true).analyze(&w.prog);
        let off = with_sharpening(false).analyze(&w.prog);
        let reports = |o: &AnalysisOutcome| -> Vec<(String, u32, u32)> {
            o.reports
                .iter()
                .map(|r| (r.kind.to_string(), r.source.0, r.sink.0))
                .collect()
        };
        assert_eq!(reports(&on), reports(&off), "seed {seed}");
    }
}
