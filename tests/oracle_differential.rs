//! Differential testing of the static pipeline against the concrete
//! oracle, in both directions:
//!
//! * **Precision** — every report the pipeline emits carries a witness
//!   schedule; replaying it must concretely fire the claimed bug at
//!   the claimed source/sink pair. A report whose schedule does not
//!   replay would be exactly the "plausible but wrong" false positive
//!   class §7 discusses.
//! * **Bounded soundness** — on lean (filler-free) workloads the
//!   oracle exhaustively enumerates every interleaving and branch
//!   valuation; each concretely reachable bug must appear among the
//!   static reports, and each seeded bug must be concretely reachable.
//!
//! The 16-seed corpus below is fixed (ci.sh runs it serially and with
//! `CANARY_TEST_THREADS=2`): bits 0–3 of the seed choose which of the
//! four checkers gets a seeded bug, so the corpus walks every subset.

use std::collections::HashSet;

use canary::{Canary, CanaryConfig};
use canary_detect::BugKind;
use canary_ir::parse;
use canary_oracle::{explore, EnumLimits};
use canary_workloads::{confirm_ground_truth, generate, WorkloadSpec};
use proptest::prelude::*;

/// One corpus member: seed bits select the checker mix.
fn lean_variant(seed: u64) -> WorkloadSpec {
    let mut s = WorkloadSpec::lean(seed);
    s.true_bugs = (seed & 1) as usize;
    s.double_free = ((seed >> 1) & 1) as usize;
    s.null_deref = ((seed >> 2) & 1) as usize;
    s.leak = ((seed >> 3) & 1) as usize;
    // Every member keeps one refutation pattern of each flavour so the
    // soundness direction also certifies absences.
    s.contradiction_patterns = 1;
    s.handshake_patterns = 1;
    s.order_fp_patterns = 1;
    s
}

/// The fixed corpus referenced by ci.sh.
fn corpus() -> Vec<WorkloadSpec> {
    (0..16).map(lean_variant).collect()
}

/// One lock-corpus member: bits 0–2 choose double-lock /
/// conflict-lock / UAF seeding, so the corpus walks every mix of
/// lock-discipline and value-flow bugs.
fn lock_variant(seed: u64) -> WorkloadSpec {
    let mut s = WorkloadSpec::lean_locks(seed);
    s.double_lock = (seed & 1) as usize;
    s.conflict_lock = ((seed >> 1) & 1) as usize;
    s.true_bugs = ((seed >> 2) & 1) as usize;
    s
}

/// The fixed lock corpus referenced by ci.sh.
fn lock_corpus() -> Vec<WorkloadSpec> {
    (0..8).map(lock_variant).collect()
}

fn verified_canary() -> Canary {
    Canary::with_config(CanaryConfig {
        verify_witnesses: true,
        ..CanaryConfig::default()
    })
}

#[test]
fn precision_every_report_schedule_replays() {
    for spec in corpus() {
        let w = generate(&spec);
        let outcome = verified_canary().analyze(&w.prog);
        assert_eq!(
            outcome.witness_replays.len(),
            outcome.reports.len(),
            "{}: one replay per report",
            spec.name
        );
        for (r, replay) in outcome.reports.iter().zip(&outcome.witness_replays) {
            assert!(
                replay.confirmed(),
                "{}: report {r:?} failed to replay: {replay:?}",
                spec.name
            );
        }
        assert_eq!(
            outcome.metrics.witnesses_confirmed, outcome.metrics.witnesses_checked,
            "{}",
            spec.name
        );
    }
}

#[test]
fn bounded_soundness_every_concrete_hit_is_reported() {
    for spec in corpus() {
        let w = generate(&spec);
        let e = explore(&w.prog, EnumLimits::default());
        assert!(
            e.complete,
            "{}: enumeration must exhaust the space",
            spec.name
        );
        let outcome = Canary::new().analyze(&w.prog);
        let reported: HashSet<(BugKind, canary_ir::Label, canary_ir::Label)> = outcome
            .reports
            .iter()
            .map(|r| (r.kind, r.source, r.sink))
            .collect();
        for hit in &e.hits {
            assert!(
                reported.contains(hit),
                "{}: concrete bug {hit:?} missed by the static analysis ({reported:?})",
                spec.name
            );
        }
        // The other half of the sandwich: everything seeded is
        // concretely reachable, so the truth labels are not vacuous.
        for bug in &w.truth.seeded {
            assert!(
                e.hits.contains(&(bug.kind, bug.source, bug.sink)),
                "{}: seeded {bug:?} unreachable in enumeration",
                spec.name
            );
        }
    }
}

#[test]
fn lock_precision_every_witness_replays() {
    // Deadlock witnesses replay to a blocked waits-for cycle, double-
    // lock witnesses to a concrete re-acquisition; both go through the
    // same per-report verification path as the value-flow checkers.
    for spec in lock_corpus() {
        let w = generate(&spec);
        let outcome = verified_canary().analyze(&w.prog);
        assert_eq!(
            outcome.witness_replays.len(),
            outcome.reports.len(),
            "{}: one replay per report",
            spec.name
        );
        for (r, replay) in outcome.reports.iter().zip(&outcome.witness_replays) {
            assert!(
                replay.confirmed(),
                "{}: report {r:?} failed to replay: {replay:?}",
                spec.name
            );
        }
    }
}

#[test]
fn lock_bounded_soundness_no_seeded_lock_bug_missed() {
    for spec in lock_corpus() {
        let w = generate(&spec);
        let e = explore(&w.prog, EnumLimits::default());
        assert!(
            e.complete,
            "{}: enumeration must exhaust the space",
            spec.name
        );
        let outcome = Canary::new().analyze(&w.prog);
        let reported: HashSet<(BugKind, canary_ir::Label, canary_ir::Label)> = outcome
            .reports
            .iter()
            .map(|r| (r.kind, r.source, r.sink))
            .collect();
        for hit in &e.hits {
            assert!(
                reported.contains(hit),
                "{}: concrete bug {hit:?} missed by the static analysis ({reported:?})",
                spec.name
            );
        }
        for bug in &w.truth.seeded {
            assert!(
                e.hits.contains(&(bug.kind, bug.source, bug.sink)),
                "{}: seeded {bug:?} unreachable in enumeration",
                spec.name
            );
            assert!(
                reported.contains(&(bug.kind, bug.source, bug.sink)),
                "{}: seeded {bug:?} unreported ({reported:?})",
                spec.name
            );
        }
    }
}

#[test]
fn deadlock_report_is_certified_by_exhaustive_enumeration() {
    // Opposite acquisition orders across two threads: the static
    // report, its replayed witness (ending in a blocked cycle) and the
    // enumerated deadlock leaf all agree on the same (source, sink).
    let src = "fn main() {
                   a = alloc ma; b = alloc mb;
                   fork t w(a, b);
                   lock a; lock b; unlock b; unlock a;
                   join t;
               }
               fn w(x, y) { lock y; lock x; unlock x; unlock y; }";
    let prog = parse(src).unwrap();
    prog.validate().unwrap();
    let outcome = verified_canary().analyze(&prog);
    let locks: Vec<_> = outcome
        .reports
        .iter()
        .filter(|r| r.kind == BugKind::ConflictLock)
        .collect();
    assert_eq!(locks.len(), 1, "{:?}", outcome.reports);
    let r = locks[0];
    assert!(
        outcome.witness_replays.iter().all(|rep| rep.confirmed()),
        "{:?}",
        outcome.witness_replays
    );
    let e = explore(&prog, EnumLimits::default());
    assert!(e.complete);
    assert!(
        e.hits.contains(&(BugKind::ConflictLock, r.source, r.sink)),
        "static report {:?} not among concrete deadlocks {:?}",
        (r.source, r.sink),
        e.hits
    );
    // The safe variant — same orders serialized by the join — is
    // certified clean in both worlds.
    let safe = parse(
        "fn main() {
             a = alloc ma; b = alloc mb;
             fork t w(a, b);
             join t;
             lock a; lock b; unlock b; unlock a;
         }
         fn w(x, y) { lock y; lock x; unlock x; unlock y; }",
    )
    .unwrap();
    let clean = Canary::new().analyze(&safe);
    assert!(clean.reports.is_empty(), "{:?}", clean.reports);
    let e2 = explore(&safe, EnumLimits::default());
    assert!(e2.complete);
    assert!(e2.hits.is_empty(), "{:?}", e2.hits);
}

#[test]
fn double_lock_report_is_certified_by_exhaustive_enumeration() {
    let src = "fn main() { m = alloc mu; n = m; lock m; lock n; unlock n; }";
    let prog = parse(src).unwrap();
    prog.validate().unwrap();
    let outcome = verified_canary().analyze(&prog);
    assert_eq!(outcome.reports.len(), 1, "{:?}", outcome.reports);
    let r = &outcome.reports[0];
    assert_eq!(r.kind, BugKind::DoubleLock);
    assert!(
        outcome.witness_replays[0].confirmed(),
        "{:?}",
        outcome.witness_replays
    );
    let e = explore(&prog, EnumLimits::default());
    assert!(e.complete);
    assert!(
        e.hits.contains(&(BugKind::DoubleLock, r.source, r.sink)),
        "{:?} vs {:?}",
        (r.source, r.sink),
        e.hits
    );
}

#[test]
fn ground_truth_schedules_confirm_across_corpus() {
    for spec in corpus().into_iter().chain(lock_corpus()) {
        let w = generate(&spec);
        let unconfirmed = confirm_ground_truth(&w);
        assert!(unconfirmed.is_empty(), "{}: {unconfirmed:?}", spec.name);
    }
}

#[test]
fn fig2_refutation_is_certified_by_exhaustive_enumeration() {
    // The Fig. 2 contradictory-guard pattern: the free happens under
    // ¬θ, the use under θ. Canary refutes it via the guard encoding;
    // the oracle certifies the refutation concretely — no interleaving
    // under either valuation of θ fires the pair.
    let src = r#"
        fn main() {
            x = alloc o1;
            v = alloc o2;
            *x = v;
            fork t thread1(x);
            if (theta1) { c = *x; use c; }
        }
        fn thread1(y) {
            if (!theta1) { b = *y; free b; }
        }
    "#;
    let prog = parse(src).unwrap();
    prog.validate().unwrap();
    let outcome = Canary::new().analyze(&prog);
    assert!(outcome.reports.is_empty(), "{:?}", outcome.reports);
    let e = explore(&prog, EnumLimits::default());
    assert!(e.complete);
    assert!(e.hits.is_empty(), "{:?}", e.hits);
    assert!(e.refutes(
        BugKind::UseAfterFree,
        prog.free_sites()[0],
        prog.deref_sites()[0]
    ));
}

#[test]
fn handshake_refutation_is_certified_by_exhaustive_enumeration() {
    // Wait/notify orders the use before the free (§9). The static
    // refutation again coincides with concrete ground truth.
    let src = "fn main() {
                   cell = alloc c; v = alloc o; *cell = v;
                   cv = alloc w;
                   fork t u(cell, cv);
                   wait cv;
                   free v;
               }
               fn u(slot, sig) { x = *slot; use x; notify sig; }";
    let prog = parse(src).unwrap();
    prog.validate().unwrap();
    let outcome = Canary::new().analyze(&prog);
    assert!(outcome.reports.is_empty(), "{:?}", outcome.reports);
    let e = explore(&prog, EnumLimits::default());
    assert!(e.complete);
    assert!(e.hits.is_empty(), "{:?}", e.hits);
    assert!(e.refutes(
        BugKind::UseAfterFree,
        prog.free_sites()[0],
        prog.deref_sites()[0]
    ));
    // Dropping the wait makes the same pair concretely reachable — the
    // certification is not vacuous.
    let racy = parse(
        "fn main() {
             cell = alloc c; v = alloc o; *cell = v;
             cv = alloc w;
             fork t u(cell, cv);
             free v;
         }
         fn u(slot, sig) { x = *slot; use x; notify sig; }",
    )
    .unwrap();
    let e2 = explore(&racy, EnumLimits::default());
    assert!(e2.complete);
    assert!(!e2.refutes(
        BugKind::UseAfterFree,
        racy.free_sites()[0],
        racy.deref_sites()[0]
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random corpus members beyond the fixed 16: ground truth always
    /// replays and the pipeline's reports always replay.
    #[test]
    fn random_lean_specs_stay_differentially_clean(seed in 0u64..4096) {
        let w = generate(&lean_variant(seed));
        let unconfirmed = confirm_ground_truth(&w);
        prop_assert!(unconfirmed.is_empty(), "{unconfirmed:?}");
        let outcome = verified_canary().analyze(&w.prog);
        for (r, replay) in outcome.reports.iter().zip(&outcome.witness_replays) {
            prop_assert!(replay.confirmed(), "{r:?}: {replay:?}");
        }
    }
}
