//! A scenario matrix across all four checkers: each cell pairs a buggy
//! program with its closest safe variant, so every report the engine
//! emits is balanced by a refutation the engine must also get right.

use canary::{Canary, CanaryConfig};
use canary_detect::{BugKind, DetectOptions};

fn reports(src: &str, kind: BugKind) -> usize {
    let canary = Canary::with_config(CanaryConfig {
        checkers: vec![kind],
        ..CanaryConfig::default()
    });
    canary
        .analyze_source(src)
        .expect("test program parses")
        .reports
        .len()
}

mod use_after_free {
    use super::*;

    #[test]
    fn racy_fork_reported() {
        let src = "fn main() { p = alloc o; fork t w(p); free p; }
                   fn w(q) { use q; }";
        assert_eq!(reports(src, BugKind::UseAfterFree), 1);
    }

    #[test]
    fn join_protected_safe() {
        let src = "fn main() { p = alloc o; fork t w(p); join t; free p; }
                   fn w(q) { use q; }";
        assert_eq!(reports(src, BugKind::UseAfterFree), 0);
    }

    #[test]
    fn free_through_heap_alias_reported() {
        // The freed pointer travels through shared memory before the use.
        let src = "fn main() {
                       cell = alloc c; v = alloc o; *cell = v;
                       fork t w(cell);
                       free v;
                   }
                   fn w(slot) { x = *slot; use x; }";
        assert_eq!(reports(src, BugKind::UseAfterFree), 1);
    }

    #[test]
    fn overwritten_before_load_safe() {
        // A fresh value strongly overwrites the cell before the only load.
        let src = "fn main() {
                       cell = alloc c; v = alloc o; *cell = v;
                       free v;
                       w2 = alloc o2; *cell = w2;
                       x = *cell; use x;
                   }";
        assert_eq!(reports(src, BugKind::UseAfterFree), 0);
    }

    #[test]
    fn disjunctive_alias_guards_keep_recall() {
        // The store reaches the cell through either of two aliases,
        // one per branch arm; the free fires in the ¬c1 arm. The
        // pointed-to-by guard must be the *disjunction* over both arms
        // (c1 ∨ ¬c1 = true), or the ¬c1 path would be wrongly refuted.
        let src = "fn main() {
                       cell = alloc c; v = alloc o;
                       if (c1) { p = cell; *p = v; }
                       else { q = cell; *q = v; }
                       fork t w(cell);
                       if (!c1) { free v; }
                   }
                   fn w(s) { x = *s; use x; }";
        assert_eq!(reports(src, BugKind::UseAfterFree), 1);
    }

    #[test]
    fn contradictory_guards_safe() {
        let src = "fn main() {
                       cell = alloc c; v = alloc o; *cell = v;
                       fork t w(cell);
                       if (g1) { free v; }
                   }
                   fn w(slot) { if (!g1) { x = *slot; use x; } }";
        assert_eq!(reports(src, BugKind::UseAfterFree), 0);
    }

    #[test]
    fn guard_on_sink_as_first_statement_is_honored() {
        // The victim's dereference is its function's *first* statement
        // and guarded by ¬shutdown; the free is guarded by shutdown.
        // The sink's path condition must reach the constraint even
        // though the parameter anchor and the sink node coincide.
        let src = "fn main() {
                       v = alloc o;
                       fork t w(v);
                       if (shutdown) { free v; }
                   }
                   fn w(q) { if (!shutdown) { use q; } }";
        assert_eq!(reports(src, BugKind::UseAfterFree), 0);
    }

    #[test]
    fn same_polarity_guards_reported() {
        let src = "fn main() {
                       cell = alloc c; v = alloc o; *cell = v;
                       fork t w(cell);
                       if (g1) { free v; }
                   }
                   fn w(slot) { if (g1) { x = *slot; use x; } }";
        assert_eq!(reports(src, BugKind::UseAfterFree), 1);
    }
}

mod double_free {
    use super::*;

    #[test]
    fn two_threads_reported() {
        let src = "fn main() { p = alloc o; fork t w(p); free p; }
                   fn w(q) { free q; }";
        assert_eq!(reports(src, BugKind::DoubleFree), 1);
    }

    #[test]
    fn branch_exclusive_safe() {
        let src = "fn main() { p = alloc o; if (c) { free p; } else { q = p; free q; } }";
        assert_eq!(reports(src, BugKind::DoubleFree), 0);
    }

    #[test]
    fn sequential_same_pointer_reported() {
        let src = "fn main() { p = alloc o; q = p; free p; free q; }";
        assert_eq!(reports(src, BugKind::DoubleFree), 1);
    }

    #[test]
    fn distinct_objects_safe() {
        let src = "fn main() { p = alloc o1; q = alloc o2; free p; free q; }";
        assert_eq!(reports(src, BugKind::DoubleFree), 0);
    }
}

mod null_deref {
    use super::*;

    #[test]
    fn cross_thread_sentinel_reported() {
        let src = "fn main() {
                       q = alloc slot; m = alloc msg; *q = m;
                       fork t w(q);
                       n = null; *q = n;
                   }
                   fn w(s) { x = *s; use x; }";
        assert_eq!(reports(src, BugKind::NullDeref), 1);
    }

    #[test]
    fn overwritten_null_safe() {
        let src = "fn main() {
                       q = alloc slot;
                       n = null; *q = n;
                       m = alloc msg; *q = m;
                       x = *q; use x;
                   }";
        assert_eq!(reports(src, BugKind::NullDeref), 0);
    }

    #[test]
    fn direct_null_use_reported() {
        let src = "fn main() { n = null; use n; }";
        assert_eq!(reports(src, BugKind::NullDeref), 1);
    }

    #[test]
    fn guarded_null_publication_safe() {
        let src = "fn main() {
                       q = alloc slot; m = alloc msg; *q = m;
                       fork t w(q);
                       if (down) { n = null; *q = n; }
                   }
                   fn w(s) { if (!down) { x = *s; use x; } }";
        assert_eq!(reports(src, BugKind::NullDeref), 0);
    }
}

mod data_leak {
    use super::*;

    #[test]
    fn cross_thread_leak_reported() {
        let src = "fn main() {
                       q = alloc slot; s = taint; *q = s;
                       fork t w(q);
                   }
                   fn w(c) { x = *c; sink x; }";
        assert_eq!(reports(src, BugKind::DataLeak), 1);
    }

    #[test]
    fn clean_value_safe() {
        let src = "fn main() {
                       q = alloc slot; v = alloc pub_data; *q = v;
                       fork t w(q);
                   }
                   fn w(c) { x = *c; sink x; }";
        assert_eq!(reports(src, BugKind::DataLeak), 0);
    }

    #[test]
    fn leak_through_copy_chain_reported() {
        let src = "fn main() { s = taint; a = s; b = a; sink b; }";
        assert_eq!(reports(src, BugKind::DataLeak), 1);
    }

    #[test]
    fn overwritten_secret_safe() {
        let src = "fn main() {
                       q = alloc slot; s = taint; *q = s;
                       v = alloc pub_data; *q = v;
                       x = *q; sink x;
                   }";
        assert_eq!(reports(src, BugKind::DataLeak), 0);
    }
}

mod double_lock {
    use super::*;

    #[test]
    fn reacquisition_through_alias_reported() {
        let src = "fn main() { m = alloc mu; n = m; lock m; lock n; unlock n; }";
        assert_eq!(reports(src, BugKind::DoubleLock), 1);
    }

    #[test]
    fn unlock_between_acquisitions_safe() {
        let src = "fn main() { m = alloc mu; lock m; unlock m; lock m; unlock m; }";
        assert_eq!(reports(src, BugKind::DoubleLock), 0);
    }

    #[test]
    fn distinct_mutexes_safe() {
        let src = "fn main() { a = alloc ma; b = alloc mb; lock a; lock b; unlock b; unlock a; }";
        assert_eq!(reports(src, BugKind::DoubleLock), 0);
    }

    #[test]
    fn cross_thread_contention_safe() {
        // The parent holds the mutex across the fork while the child
        // acquires it: contention blocks, it does not re-acquire.
        let src = "fn main() { m = alloc mu; lock m; fork t w(m); unlock m; join t; }
                   fn w(n) { lock n; unlock n; }";
        assert_eq!(reports(src, BugKind::DoubleLock), 0);
    }
}

mod conflict_lock {
    use super::*;

    #[test]
    fn opposite_acquisition_orders_reported() {
        let src = "fn main() {
                       a = alloc ma; b = alloc mb;
                       fork t w(a, b);
                       lock a; lock b; unlock b; unlock a;
                       join t;
                   }
                   fn w(x, y) { lock y; lock x; unlock x; unlock y; }";
        assert_eq!(reports(src, BugKind::ConflictLock), 1);
    }

    #[test]
    fn consistent_acquisition_orders_safe() {
        let src = "fn main() {
                       a = alloc ma; b = alloc mb;
                       fork t w(a, b);
                       lock a; lock b; unlock b; unlock a;
                       join t;
                   }
                   fn w(x, y) { lock x; lock y; unlock y; unlock x; }";
        assert_eq!(reports(src, BugKind::ConflictLock), 0);
    }

    #[test]
    fn join_serialized_orders_safe() {
        let src = "fn main() {
                       a = alloc ma; b = alloc mb;
                       fork t w(a, b);
                       join t;
                       lock a; lock b; unlock b; unlock a;
                   }
                   fn w(x, y) { lock y; lock x; unlock x; unlock y; }";
        assert_eq!(reports(src, BugKind::ConflictLock), 0);
    }

    #[test]
    fn gate_lock_safe() {
        // A common outer gate mutex serializes both acquisition
        // sequences, so the opposite inner orders cannot interleave.
        let src = "fn main() {
                       g = alloc mg; a = alloc ma; b = alloc mb;
                       fork t w(g, a, b);
                       lock g; lock a; lock b; unlock b; unlock a; unlock g;
                       join t;
                   }
                   fn w(h, x, y) { lock h; lock y; lock x; unlock x; unlock y; unlock h; }";
        assert_eq!(reports(src, BugKind::ConflictLock), 0);
    }
}

mod generated_lock_workloads {
    use super::*;
    use canary_workloads::{confirm_ground_truth, generate, WorkloadSpec};

    /// Lock corpora: the engine's lock findings are *exactly* the
    /// seeded set — every seeded double-lock / deadlock reported, no
    /// lock report beyond them.
    #[test]
    fn seeded_lock_bugs_are_the_exact_finding_set() {
        for seed in [11, 12, 13] {
            let w = generate(&WorkloadSpec::lean_locks(seed));
            let unconfirmed = confirm_ground_truth(&w);
            assert!(unconfirmed.is_empty(), "seed {seed}: {unconfirmed:?}");
            let outcome = Canary::new().analyze(&w.prog);
            let found: std::collections::BTreeSet<_> = outcome
                .reports
                .iter()
                .filter(|r| matches!(r.kind, BugKind::DoubleLock | BugKind::ConflictLock))
                .map(|r| (r.kind, r.source, r.sink))
                .collect();
            let seeded: std::collections::BTreeSet<_> = w
                .truth
                .seeded
                .iter()
                .filter(|b| matches!(b.kind, BugKind::DoubleLock | BugKind::ConflictLock))
                .map(|b| (b.kind, b.source, b.sink))
                .collect();
            assert_eq!(seeded.len(), 2, "seed {seed}: both lock kinds seeded");
            assert_eq!(found, seeded, "seed {seed}");
        }
    }

    /// Zero false positives on lock-free corpora: programs without a
    /// single lock statement never produce a lock-discipline report.
    #[test]
    fn lock_free_corpora_stay_clean() {
        for seed in [1, 2, 3] {
            let w = generate(&WorkloadSpec::lean(seed));
            let outcome = Canary::new().analyze(&w.prog);
            let lock_reports: Vec<_> = outcome
                .reports
                .iter()
                .filter(|r| matches!(r.kind, BugKind::DoubleLock | BugKind::ConflictLock))
                .collect();
            assert!(lock_reports.is_empty(), "seed {seed}: {lock_reports:?}");
        }
    }

    /// The lock knobs compose with the full (filler) generator.
    #[test]
    fn seeded_lock_patterns_survive_filler() {
        let spec = WorkloadSpec {
            double_lock: 1,
            conflict_lock: 1,
            ..WorkloadSpec::small(29)
        };
        let w = generate(&spec);
        let unconfirmed = confirm_ground_truth(&w);
        assert!(unconfirmed.is_empty(), "{unconfirmed:?}");
        let outcome = Canary::new().analyze(&w.prog);
        let found: std::collections::HashSet<_> = outcome
            .reports
            .iter()
            .map(|r| (r.kind, r.source, r.sink))
            .collect();
        for bug in &w.truth.seeded {
            assert!(
                found.contains(&(bug.kind, bug.source, bug.sink)),
                "seeded {bug:?} not in reports {found:?}"
            );
        }
    }
}

mod generated_workloads {
    use super::*;
    use canary_workloads::{confirm_ground_truth, generate, WorkloadSpec};

    /// Lean workloads seed one bug per checker; the oracle confirms each
    /// schedule and the engine must report each (kind, source, sink).
    #[test]
    fn all_four_seeded_checkers_are_detected_and_confirmed() {
        for seed in [1, 2, 3] {
            let w = generate(&WorkloadSpec::lean(seed));
            let unconfirmed = confirm_ground_truth(&w);
            assert!(unconfirmed.is_empty(), "seed {seed}: {unconfirmed:?}");
            let outcome = Canary::new().analyze(&w.prog);
            let found: std::collections::HashSet<_> = outcome
                .reports
                .iter()
                .map(|r| (r.kind, r.source, r.sink))
                .collect();
            for bug in &w.truth.seeded {
                assert!(
                    found.contains(&(bug.kind, bug.source, bug.sink)),
                    "seed {seed}: seeded {bug:?} not in reports {found:?}"
                );
            }
            let kinds: std::collections::HashSet<_> =
                w.truth.seeded.iter().map(|b| b.kind).collect();
            assert_eq!(kinds.len(), 4, "lean spec must cover all checkers");
        }
    }

    /// The knobs also compose with the full (filler) generator: seeded
    /// double-free / null-deref / leak patterns survive inside a large
    /// program and stay oracle-confirmable.
    #[test]
    fn seeded_patterns_survive_filler() {
        let spec = WorkloadSpec {
            double_free: 1,
            null_deref: 1,
            leak: 1,
            ..WorkloadSpec::small(23)
        };
        let w = generate(&spec);
        let unconfirmed = confirm_ground_truth(&w);
        assert!(unconfirmed.is_empty(), "{unconfirmed:?}");
        let outcome = Canary::new().analyze(&w.prog);
        let found: std::collections::HashSet<_> = outcome
            .reports
            .iter()
            .map(|r| (r.kind, r.source, r.sink))
            .collect();
        for bug in &w.truth.seeded {
            assert!(
                found.contains(&(bug.kind, bug.source, bug.sink)),
                "seeded {bug:?} not in reports {found:?}"
            );
        }
    }
}

mod memory_model_sweep {
    use super::*;
    use canary_detect::MemoryModel;
    use canary_ir::Label;
    use canary_workloads::{generate, WorkloadSpec};
    use std::collections::BTreeSet;

    fn triples_under(
        prog: &canary_ir::Program,
        model: MemoryModel,
    ) -> BTreeSet<(BugKind, Label, Label)> {
        let canary = Canary::with_config(CanaryConfig {
            detect: DetectOptions {
                memory_model: model,
                ..DetectOptions::default()
            },
            ..CanaryConfig::default()
        });
        canary
            .analyze(prog)
            .reports
            .iter()
            .map(|r| (r.kind, r.source, r.sink))
            .collect()
    }

    /// Weakening the memory model only removes program-order
    /// constraints, so on the seeded corpora every SC finding — across
    /// all six checkers — persists under TSO, and every TSO finding
    /// persists under PSO.
    #[test]
    fn sc_findings_persist_under_weaker_models() {
        for spec in [
            WorkloadSpec::lean(1),
            WorkloadSpec::lean(2),
            WorkloadSpec::lean(3),
            WorkloadSpec::lean_locks(11),
            WorkloadSpec::lean_locks(12),
        ] {
            let w = generate(&spec);
            let sc = triples_under(&w.prog, MemoryModel::Sc);
            let tso = triples_under(&w.prog, MemoryModel::Tso);
            let pso = triples_under(&w.prog, MemoryModel::Pso);
            assert!(!sc.is_empty(), "{}: corpus seeds bugs", spec.name);
            assert!(
                sc.is_subset(&tso),
                "{}: TSO lost SC findings {:?}",
                spec.name,
                sc.difference(&tso)
            );
            assert!(
                tso.is_subset(&pso),
                "{}: PSO lost TSO findings {:?}",
                spec.name,
                tso.difference(&pso)
            );
        }
    }

    /// Lock-discipline checking reasons about acquisition order, not
    /// memory visibility: the DoubleLock / ConflictLock finding sets
    /// must be identical under all three models.
    #[test]
    fn lock_discipline_findings_are_model_insensitive() {
        for seed in [11, 12, 13] {
            let w = generate(&WorkloadSpec::lean_locks(seed));
            let lock_only = |model| -> BTreeSet<(BugKind, Label, Label)> {
                triples_under(&w.prog, model)
                    .into_iter()
                    .filter(|(k, _, _)| matches!(k, BugKind::DoubleLock | BugKind::ConflictLock))
                    .collect()
            };
            let sc = lock_only(MemoryModel::Sc);
            assert!(!sc.is_empty(), "seed {seed}: lock bugs seeded");
            assert_eq!(sc, lock_only(MemoryModel::Tso), "seed {seed}");
            assert_eq!(sc, lock_only(MemoryModel::Pso), "seed {seed}");
        }
    }
}

mod config_behaviour {
    use super::*;

    #[test]
    fn inter_thread_only_suppresses_sequential() {
        let canary = Canary::with_config(CanaryConfig {
            checkers: vec![BugKind::UseAfterFree],
            detect: DetectOptions {
                inter_thread_only: true,
                ..DetectOptions::default()
            },
            ..CanaryConfig::default()
        });
        let seq = canary
            .analyze_source("fn main() { p = alloc o; free p; use p; }")
            .unwrap();
        assert!(seq.reports.is_empty());
        let conc = canary
            .analyze_source(
                "fn main() { p = alloc o; fork t w(p); free p; }
                 fn w(q) { use q; }",
            )
            .unwrap();
        assert_eq!(conc.reports.len(), 1);
    }

    #[test]
    fn all_four_checkers_fire_on_one_program() {
        let src = "fn main() {
                       p = alloc o; q = p;
                       fork t w(p);
                       free p;
                       free q;
                       n = null; use n;
                       s = taint; sink s;
                   }
                   fn w(x) { use x; }";
        let outcome = Canary::new().analyze_source(src).unwrap();
        let kinds: std::collections::HashSet<_> = outcome.reports.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&BugKind::UseAfterFree), "{kinds:?}");
        assert!(kinds.contains(&BugKind::DoubleFree), "{kinds:?}");
        assert!(kinds.contains(&BugKind::NullDeref), "{kinds:?}");
        assert!(kinds.contains(&BugKind::DataLeak), "{kinds:?}");
    }

    #[test]
    fn all_six_checkers_fire_on_one_program() {
        let src = "fn main() {
                       p = alloc o; q = p;
                       fork t w(p);
                       free p;
                       free q;
                       n = null; use n;
                       s = taint; sink s;
                       m = alloc mu; lock m; lock m; unlock m;
                       a = alloc ma; b = alloc mb;
                       fork t2 v(a, b);
                       lock a; lock b; unlock b; unlock a;
                   }
                   fn w(x) { use x; }
                   fn v(x, y) { lock y; lock x; unlock x; unlock y; }";
        let outcome = Canary::new().analyze_source(src).unwrap();
        let kinds: std::collections::HashSet<_> = outcome.reports.iter().map(|r| r.kind).collect();
        for kind in [
            BugKind::UseAfterFree,
            BugKind::DoubleFree,
            BugKind::NullDeref,
            BugKind::DataLeak,
            BugKind::DoubleLock,
            BugKind::ConflictLock,
        ] {
            assert!(kinds.contains(&kind), "missing {kind}: {kinds:?}");
        }
    }
}
