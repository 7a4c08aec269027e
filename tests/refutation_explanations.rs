//! Tests for refutation diagnostics: when `explain_refutations` is on,
//! every dismissed candidate carries a deletion-minimal core naming the
//! constraints that killed it.

use canary::{Canary, CanaryConfig};
use canary_detect::{BugKind, DetectOptions};
use canary_smt::SolverStrategy;

fn analyze_with_strategy(src: &str, strategy: SolverStrategy) -> canary::AnalysisOutcome {
    let mut config = CanaryConfig {
        checkers: vec![BugKind::UseAfterFree],
        detect: DetectOptions {
            explain_refutations: true,
            ..DetectOptions::default()
        },
        ..CanaryConfig::default()
    };
    config.detect.solver.strategy = strategy;
    Canary::with_config(config)
        .analyze_source(src)
        .expect("parses")
}

fn analyze(src: &str) -> canary::AnalysisOutcome {
    analyze_with_strategy(src, SolverStrategy::Incremental)
}

#[test]
fn fig2_refutation_blames_the_guards() {
    let outcome = analyze(
        r#"
        fn main(a) {
            x = alloc o1;
            *x = a;
            fork t thread1(x);
            if (theta1) { c = *x; use c; }
        }
        fn thread1(y) {
            b = alloc o2;
            if (!theta1) { *y = b; free b; }
        }
        "#,
    );
    assert!(outcome.reports.is_empty());
    assert_eq!(outcome.refuted.len(), 1, "{:?}", outcome.refuted);
    let core_text = outcome.refuted[0].core.join(" ");
    assert!(
        core_text.contains("fold to false at construction"),
        "{core_text}"
    );
}

#[test]
fn join_refutation_folds_at_construction() {
    // The source→sink order contradiction is syntactic (complementary
    // order atoms), so the construction-time prefilter catches it.
    let outcome = analyze(
        "fn main() { p = alloc o; fork t w(p); join t; free p; }
         fn w(q) { use q; }",
    );
    assert!(outcome.reports.is_empty());
    assert_eq!(outcome.refuted.len(), 1, "{:?}", outcome.refuted);
}

#[test]
fn overwrite_refutation_core_contains_order_atoms() {
    // The freed value is overwritten before the reader thread starts;
    // the refutation needs the no-overwrite disjunction of Eq. 2 and
    // only falls to the solver, so the core names real order atoms.
    let outcome = analyze(
        "fn main() {
             cell = alloc c;
             v = alloc o;
             *cell = v;
             free v;
             g = alloc o2;
             *cell = g;
             fork t w(cell);
         }
         fn w(s) { x = *s; use x; }",
    );
    assert!(outcome.reports.is_empty(), "{:?}", outcome.reports);
    assert!(!outcome.refuted.is_empty(), "refuted candidate expected");
    let refuted = &outcome.refuted[0];
    let text = refuted.core.join(" ");
    assert!(text.contains('O'), "order atoms expected in core: {text}");
    // Deletion-minimal: far smaller than the fully grounded Φ_all.
    assert!(refuted.core.len() <= 6, "{:?}", refuted.core);
}

#[test]
fn confirmed_bugs_are_not_listed_as_refuted() {
    let outcome = analyze(
        "fn main() { p = alloc o; fork t w(p); free p; }
         fn w(q) { use q; }",
    );
    assert_eq!(outcome.reports.len(), 1);
    assert!(
        outcome
            .refuted
            .iter()
            .all(|r| (r.source, r.sink) != (outcome.reports[0].source, outcome.reports[0].sink)),
        "a confirmed pair must not also be refuted"
    );
}

/// The program whose refutation only falls to the solver (so the core
/// comes from deletion minimization, not the construction-time fold).
const SOLVER_REFUTED: &str = "fn main() {
     cell = alloc c;
     v = alloc o;
     *cell = v;
     free v;
     g = alloc o2;
     *cell = g;
     fork t w(cell);
 }
 fn w(s) { x = *s; use x; }";

#[test]
fn incremental_strategy_cores_match_fresh() {
    // `--explain` under `--solver-strategy incremental` must produce
    // the same deletion-minimal cores as a fresh solver per query:
    // core extraction always re-solves the minimized subset, so shared
    // family state cannot leak into the explanation.
    let fresh = analyze_with_strategy(SOLVER_REFUTED, SolverStrategy::Fresh);
    let incr = analyze_with_strategy(SOLVER_REFUTED, SolverStrategy::Incremental);
    assert!(!fresh.refuted.is_empty(), "refuted candidate expected");
    assert_eq!(fresh.refuted.len(), incr.refuted.len());
    for (f, i) in fresh.refuted.iter().zip(&incr.refuted) {
        assert_eq!((f.source, f.sink, f.kind), (i.source, i.sink, i.kind));
        assert_eq!(f.core, i.core, "cores diverge between strategies");
    }
}

#[test]
fn incremental_cores_are_deletion_minimal() {
    // Dropping any single member of the reported core must make the
    // remaining conjunction satisfiable — i.e. the core as printed is
    // irreducible, under the strategy that reuses solver state.
    let outcome = analyze_with_strategy(SOLVER_REFUTED, SolverStrategy::Incremental);
    assert!(!outcome.refuted.is_empty());
    let core = &outcome.refuted[0].core;
    assert!(!core.is_empty());
    // A minimal core never repeats a constraint.
    let mut sorted = core.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(
        sorted.len(),
        core.len(),
        "duplicate constraints in {core:?}"
    );
    // And stays far below the fully grounded formula.
    assert!(core.len() <= 6, "{core:?}");
}

#[test]
fn explanations_off_by_default() {
    let outcome = Canary::new()
        .analyze_source(
            "fn main() { p = alloc o; fork t w(p); join t; free p; }
             fn w(q) { use q; }",
        )
        .unwrap();
    assert!(outcome.refuted.is_empty());
}
