//! # canary-detect
//!
//! Guarded reachability detection (§5): concurrency bugs as source-sink
//! problems over the interference-aware value-flow graph. A finding is
//! reported only when the SMT solver proves the aggregated constraints
//! `Φ_all = Φ_guards ∧ Φ_po` (Eq. 5) satisfiable — i.e. some
//! sequentially consistent interleaving realizes the value flow.
//!
//! Four checkers share one engine:
//!
//! | kind | source | sink |
//! |---|---|---|
//! | use-after-free | `free p` | `use q` |
//! | double-free | `free p` | another `free q` |
//! | null-dereference | `p = null` | `use q` |
//! | data-leak | `p = taint` | `sink q` |
//!
//! The §9 extension (lock/unlock mutual exclusion, wait/notify order)
//! plugs additional `Φ_po` conjuncts in via [`SyncModel`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod constraints;
pub mod detector;
pub mod path;
pub mod provenance;
pub mod report;
pub mod schedule;
pub mod sync;

pub use audit::{AuditLayer, AuditLog, AuditRecord, AuditSummary, Disposition};
pub use detector::{
    check_all_kinds, check_kind, check_kind_traced, DetectContext, DetectOptions, DetectStats,
    MemoryModel, QueryProfile, RefutedCandidate,
};
pub use path::{
    enumerate_paths, enumerate_paths_budgeted, enumerate_paths_pruned, PathLimits, PathTruncation,
    SinkReach, VfPath,
};
pub use provenance::{
    edge_kind_name, EscapeFact, Fingerprint, MhpFact, ModelSlice, ProvEdge, ProvNode, Provenance,
};
pub use report::{dedup_reports, BugKind, BugReport};
pub use schedule::complete_schedule;
pub use sync::{LockRegion, SyncModel};

#[cfg(test)]
mod tests {
    use canary_ir::{parse, CallGraph, MhpAnalysis, Program, ThreadStructure};
    use canary_smt::TermPool;

    use crate::detector::{check_kind, DetectContext, DetectOptions, DetectStats};
    use crate::report::{BugKind, BugReport};

    fn detect(src: &str, kind: BugKind) -> Vec<BugReport> {
        detect_opts(src, kind, &DetectOptions::default())
    }

    fn detect_opts(src: &str, kind: BugKind, opts: &DetectOptions) -> Vec<BugReport> {
        let prog: Program = parse(src).unwrap();
        prog.validate().unwrap();
        let cg = CallGraph::build(&prog);
        let ts = ThreadStructure::compute(&prog, &cg);
        let mhp = MhpAnalysis::new(&prog, &cg, &ts);
        let mut pool = TermPool::new();
        let mut df = canary_dataflow::run(&prog, &cg, &mut pool);
        canary_interference::run(
            &prog,
            &ts,
            &mhp,
            &mut df,
            &mut pool,
            &canary_interference::InterferenceOptions::default(),
        );
        let ctx = DetectContext::new(&prog, &ts, &mhp, &df, opts);
        let mut stats = DetectStats::default();
        check_kind(&ctx, &mut pool, kind, opts, &mut stats)
    }

    const FIG2_BUGFREE: &str = r#"
        fn main(a) {
            x = alloc o1;
            *x = a;
            fork t thread1(x);
            if (theta1) {
                c = *x;
                use c;
            }
        }
        fn thread1(y) {
            b = alloc o2;
            if (!theta1) {
                *y = b;
                free b;
            }
        }
    "#;

    #[test]
    fn fig2_false_positive_is_refuted() {
        // The paper's flagship example: contradictory path conditions
        // make the inter-thread UAF infeasible — no report.
        let reports = detect(FIG2_BUGFREE, BugKind::UseAfterFree);
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn fig2_variant_without_contradiction_is_reported() {
        // Drop the conflicting conditions: the bug becomes real.
        let src = r#"
            fn main(a) {
                x = alloc o1;
                *x = a;
                fork t thread1(x);
                c = *x;
                use c;
            }
            fn thread1(y) {
                b = alloc o2;
                *y = b;
                free b;
            }
        "#;
        let reports = detect(src, BugKind::UseAfterFree);
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert!(reports[0].inter_thread);
    }

    #[test]
    fn sequential_uaf_detected() {
        let reports = detect(
            "fn main() { p = alloc o; free p; use p; }",
            BugKind::UseAfterFree,
        );
        assert_eq!(reports.len(), 1);
        assert!(!reports[0].inter_thread);
    }

    #[test]
    fn use_before_free_not_reported() {
        let reports = detect(
            "fn main() { p = alloc o; use p; free p; }",
            BugKind::UseAfterFree,
        );
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn free_after_join_use_not_reported() {
        // The child uses the pointer, the parent frees it only after
        // joining: the order constraints refute the UAF.
        let reports = detect(
            "fn main() { p = alloc o; fork t w(p); join t; free p; }
             fn w(q) { use q; }",
            BugKind::UseAfterFree,
        );
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn free_racing_child_use_is_reported() {
        // Without the join, free and use race: report.
        let reports = detect(
            "fn main() { p = alloc o; fork t w(p); free p; }
             fn w(q) { use q; }",
            BugKind::UseAfterFree,
        );
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert!(reports[0].inter_thread);
    }

    #[test]
    fn double_free_across_threads_detected() {
        let reports = detect(
            "fn main() { p = alloc o; fork t w(p); free p; }
             fn w(q) { free q; }",
            BugKind::DoubleFree,
        );
        assert_eq!(reports.len(), 1, "{reports:?}");
    }

    #[test]
    fn single_free_is_not_double() {
        let reports = detect("fn main() { p = alloc o; free p; }", BugKind::DoubleFree);
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn exclusive_branch_frees_are_not_double() {
        let reports = detect(
            "fn main() { p = alloc o; if (c) { free p; } else { q = p; free q; } }",
            BugKind::DoubleFree,
        );
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn null_deref_through_shared_memory() {
        let reports = detect(
            "fn main() {
                cell = alloc c;
                v = alloc o;
                *cell = v;
                fork t w(cell);
                y = *cell;
                use y;
             }
             fn w(slot) {
                n = null;
                *slot = n;
             }",
            BugKind::NullDeref,
        );
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert!(reports[0].inter_thread);
    }

    #[test]
    fn null_overwritten_before_use_not_reported() {
        // Sequential: null stored, then overwritten by a valid pointer
        // (strong update), then loaded: no null-deref.
        let reports = detect(
            "fn main() {
                cell = alloc c;
                n = null;
                *cell = n;
                v = alloc o;
                *cell = v;
                y = *cell;
                use y;
             }",
            BugKind::NullDeref,
        );
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn taint_leak_across_threads() {
        let reports = detect(
            "fn main() {
                cell = alloc c;
                s = taint;
                *cell = s;
                fork t w(cell);
             }
             fn w(slot) {
                y = *slot;
                sink y;
             }",
            BugKind::DataLeak,
        );
        assert_eq!(reports.len(), 1, "{reports:?}");
    }

    #[test]
    fn untainted_sink_is_clean() {
        let reports = detect("fn main() { v = alloc o; sink v; }", BugKind::DataLeak);
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn inter_thread_only_filters_sequential_findings() {
        let opts = DetectOptions {
            inter_thread_only: true,
            ..DetectOptions::default()
        };
        let reports = detect_opts(
            "fn main() { p = alloc o; free p; use p; }",
            BugKind::UseAfterFree,
            &opts,
        );
        assert!(reports.is_empty());
    }

    #[test]
    fn lock_protected_flow_still_reported_when_feasible() {
        // Locks serialize the two sections but either order remains
        // possible, so the UAF stays feasible and must be reported.
        let reports = detect(
            "fn main() {
                m = alloc mu;
                p = alloc o;
                fork t w(p, m);
                lock m;
                free p;
                unlock m;
             }
             fn w(q, mu2) {
                lock mu2;
                use q;
                unlock mu2;
             }",
            BugKind::UseAfterFree,
        );
        assert_eq!(reports.len(), 1, "{reports:?}");
    }

    #[test]
    fn inter_thread_report_carries_full_provenance() {
        let src = r#"
            fn main(a) {
                x = alloc o1;
                *x = a;
                fork t thread1(x);
                c = *x;
                use c;
            }
            fn thread1(y) {
                b = alloc o2;
                *y = b;
                free b;
            }
        "#;
        let reports = detect(src, BugKind::UseAfterFree);
        assert_eq!(reports.len(), 1, "{reports:?}");
        let prov = reports[0].provenance.as_ref().expect("provenance captured");
        assert_eq!(prov.nodes.len(), reports[0].path.len());
        assert_eq!(prov.edges.len(), prov.nodes.len() - 1);
        // The cross-thread step must be licensed by an escape fact and
        // have its MHP consultation recorded.
        let licensed: Vec<_> = prov.edges.iter().filter(|e| e.escape.is_some()).collect();
        assert!(!licensed.is_empty(), "{prov:?}");
        assert!(licensed
            .iter()
            .all(|e| e.escape.as_ref().unwrap().alloc_site.is_some()));
        assert_eq!(prov.mhp.len(), licensed.len());
        assert!(prov.mhp.iter().any(|m| m.parallel));
        // The confirmed finding carries the satisfying model slice,
        // consistent with the report's own schedule and guards.
        let model = prov
            .model
            .as_ref()
            .expect("sat candidate has a model slice");
        assert_eq!(model.schedule, reports[0].schedule);
        assert_eq!(model.guards, reports[0].guards);
        assert!(!model.order.is_empty());
        // Exports don't panic and mention the licensed object.
        let dot = prov.to_dot("uaf");
        assert!(dot.contains("via escaped"));
        let json = serde_json::to_string(&prov.to_json()).unwrap();
        assert!(json.contains("\"escape\""));
    }

    #[test]
    fn sequential_report_provenance_has_no_licensed_edges() {
        let reports = detect(
            "fn main() { p = alloc o; free p; use p; }",
            BugKind::UseAfterFree,
        );
        let prov = reports[0].provenance.as_ref().unwrap();
        assert!(prov.edges.iter().all(|e| e.escape.is_none()));
        assert!(prov.mhp.is_empty());
        assert!(prov.model.is_some());
    }

    #[test]
    fn double_lock_reacquisition_detected() {
        let reports = detect(
            "fn main() { m = alloc mu; n = m; lock m; lock n; unlock n; }",
            BugKind::DoubleLock,
        );
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert!(!reports[0].inter_thread);
        let prov = reports[0].provenance.as_ref().expect("lock provenance");
        assert_eq!(prov.nodes.len(), 2);
        assert!(prov.edges[0].guard.contains("held"));
    }

    #[test]
    fn unlock_between_acquisitions_is_not_double_lock() {
        let reports = detect(
            "fn main() { m = alloc mu; lock m; unlock m; lock m; unlock m; }",
            BugKind::DoubleLock,
        );
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn cross_thread_contention_is_not_double_lock() {
        // The parent holds the mutex across the fork while the child
        // acquires it: contention, not re-acquisition.
        let reports = detect(
            "fn main() { m = alloc mu; lock m; fork t w(m); unlock m; join t; }
             fn w(n) { lock n; unlock n; }",
            BugKind::DoubleLock,
        );
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn conflicting_lock_orders_detected() {
        let reports = detect(
            "fn main() {
                a = alloc ma; b = alloc mb;
                fork t w(a, b);
                lock a; lock b; unlock b; unlock a;
                join t;
             }
             fn w(x, y) { lock y; lock x; unlock x; unlock y; }",
            BugKind::ConflictLock,
        );
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert!(reports[0].inter_thread);
        // Source/sink are the extreme blocked (inner) acquisitions.
        assert!(reports[0].source < reports[0].sink);
        let prov = reports[0].provenance.as_ref().expect("cycle provenance");
        assert_eq!(prov.nodes.len(), 4);
        assert!(prov.mhp.iter().all(|m| m.parallel));
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let reports = detect(
            "fn main() {
                a = alloc ma; b = alloc mb;
                fork t w(a, b);
                lock a; lock b; unlock b; unlock a;
                join t;
             }
             fn w(x, y) { lock x; lock y; unlock y; unlock x; }",
            BugKind::ConflictLock,
        );
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn join_serialized_lock_orders_are_clean() {
        // Opposite orders, but the parent only locks after joining the
        // child: no interleaving blocks.
        let reports = detect(
            "fn main() {
                a = alloc ma; b = alloc mb;
                fork t w(a, b);
                join t;
                lock a; lock b; unlock b; unlock a;
             }
             fn w(x, y) { lock y; lock x; unlock x; unlock y; }",
            BugKind::ConflictLock,
        );
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn gate_lock_suppresses_conflict_report() {
        // Both acquisition sequences run under a common gate mutex, so
        // the opposite inner orders can never interleave into a cycle.
        let reports = detect(
            "fn main() {
                g = alloc mg; a = alloc ma; b = alloc mb;
                fork t w(g, a, b);
                lock g; lock a; lock b; unlock b; unlock a; unlock g;
                join t;
             }
             fn w(h, x, y) { lock h; lock y; lock x; unlock x; unlock y; unlock h; }",
            BugKind::ConflictLock,
        );
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn report_paths_are_rendered() {
        let reports = detect(
            "fn main() { p = alloc o; free p; use p; }",
            BugKind::UseAfterFree,
        );
        assert!(!reports[0].path.is_empty());
        assert!(reports[0].constraint.contains("O"));
    }
}
