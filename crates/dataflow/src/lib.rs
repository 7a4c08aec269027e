//! # canary-dataflow
//!
//! Algorithm 1 of the Canary paper: the intra-thread, thread-modular
//! data-dependence analysis. It walks each function once in bottom-up
//! thread-call-graph order, computing
//!
//! * guarded, flow-sensitive points-to facts (strong updates on
//!   singletons — Alg. 1 lines 15–18);
//! * intra-thread value-flow edges, direct (Fig. 6 rows 1–2) and
//!   indirect store→load (Fig. 6 row 3), each annotated with its guard;
//! * procedural transfer functions ([`FuncSummary`]) exposing points-to
//!   side effects through formal parameters;
//! * the statement path conditions `φ` ([`PathConditions`]).
//!
//! Its output bootstraps the interference-dependence analysis (Alg. 2,
//! crate `canary-interference`).
//!
//! # Examples
//!
//! ```
//! use canary_ir::{parse, CallGraph};
//! use canary_smt::TermPool;
//!
//! let prog = parse(
//!     "fn main() { x = alloc o; p = alloc cell; *p = x; y = *p; use y; }",
//! )?;
//! let cg = CallGraph::build(&prog);
//! let mut pool = TermPool::new();
//! let result = canary_dataflow::run(&prog, &cg, &mut pool);
//! // The store→load indirect flow appears as a DataDep edge.
//! assert!(result
//!     .vfg
//!     .edges()
//!     .iter()
//!     .any(|e| e.kind == canary_vfg::EdgeKind::DataDep));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod locks;
pub mod pathcond;
pub mod symbols;

pub use analysis::{
    run, run_traced, run_with, DataflowResult, FuncProfile, FuncSummary, LoadSite, ParamLoad,
    StoreSite,
};
pub use locks::{LockModel, LockRegion, LockSite};
pub use pathcond::{cond_term, PathConditions};
pub use symbols::{insert_guarded, CellSet, Guarded, MemKey, MemVal, PtsSet, Sym};

#[cfg(test)]
mod tests {
    use canary_ir::{parse, CallGraph, Inst, Program};
    use canary_smt::TermPool;
    use canary_vfg::{EdgeKind, NodeKind};

    use crate::analysis::DataflowResult;
    use crate::symbols::Sym;

    fn analyze(src: &str) -> (Program, TermPool, DataflowResult) {
        let prog = parse(src).unwrap();
        prog.validate().unwrap();
        let cg = CallGraph::build(&prog);
        let mut pool = TermPool::new();
        let r = crate::run(&prog, &cg, &mut pool);
        (prog, pool, r)
    }

    fn pts_objs(prog: &Program, r: &DataflowResult, func: &str, var: &str) -> Vec<String> {
        let f = prog.func_by_name(func).unwrap();
        let v = prog.var_by_name(f, var).unwrap();
        let mut out: Vec<String> = r.pgtop[v.index()]
            .iter()
            .filter_map(|e| match e.value {
                Sym::Obj(o) => Some(prog.obj_name(o).to_string()),
                _ => None,
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn alloc_gives_points_to() {
        let (prog, _pool, r) = analyze("fn main() { p = alloc o1; use p; }");
        assert_eq!(pts_objs(&prog, &r, "main", "p"), vec!["o1"]);
    }

    #[test]
    fn copy_propagates_points_to() {
        let (prog, _pool, r) = analyze("fn main() { p = alloc o1; q = p; use q; }");
        assert_eq!(pts_objs(&prog, &r, "main", "q"), vec!["o1"]);
    }

    #[test]
    fn load_reads_stored_value() {
        let (prog, _pool, r) = analyze(
            "fn main() { x = alloc o1; cell = alloc c; *cell = x; y = *cell; use y; }",
        );
        assert_eq!(pts_objs(&prog, &r, "main", "y"), vec!["o1"]);
        // And the VFG has the indirect store→load edge.
        assert!(r
            .vfg
            .edges()
            .iter()
            .any(|e| e.kind == EdgeKind::DataDep));
    }

    #[test]
    fn strong_update_kills_previous_store() {
        let (prog, pool, r) = analyze(
            "fn main() {
                a = alloc oa; b = alloc ob; cell = alloc c;
                *cell = a;
                *cell = b;
                y = *cell;
                use y;
             }",
        );
        // cell's address set is a singleton, so the second store strongly
        // updates: y points only to ob.
        assert_eq!(pts_objs(&prog, &r, "main", "y"), vec!["ob"]);
        let _ = pool;
    }

    #[test]
    fn weak_update_keeps_older_value_visible() {
        let (prog, _pool, r) = analyze(
            "fn main() {
                a = alloc oa; b = alloc ob;
                c1 = alloc cell1; c2 = alloc cell2;
                if (t) { p = c1; } else { p = c2; }
                q = c1;
                *q = a;
                *p = b;
                y = *q;
                use y;
             }",
        );
        // The second store's address is not a singleton, so it is weak:
        // y must still possibly see `a`.
        let objs = pts_objs(&prog, &r, "main", "y");
        assert!(objs.contains(&"oa".to_string()), "{objs:?}");
    }

    #[test]
    fn guards_reflect_branch_conditions() {
        let (prog, mut pool, r) = analyze(
            "fn main() {
                a = alloc oa; b = alloc ob; cell = alloc c;
                if (t) { *cell = a; } else { *cell = b; }
                y = *cell;
                use y;
             }",
        );
        let f = prog.func_by_name("main").unwrap();
        let y = prog.var_by_name(f, "y").unwrap();
        let entries = &r.pgtop[y.index()];
        // Two guarded entries whose guards are complementary.
        assert_eq!(entries.len(), 2, "{entries:?}");
        let both = pool.and2(entries[0].guard, entries[1].guard);
        assert_eq!(both, pool.ff());
    }

    #[test]
    fn call_return_flows_object() {
        let (prog, _pool, r) = analyze(
            "fn mk() { p = alloc o1; return p; }
             fn main() { q = call mk(); use q; }",
        );
        assert_eq!(pts_objs(&prog, &r, "main", "q"), vec!["o1"]);
    }

    #[test]
    fn callee_store_visible_to_caller_load() {
        let (prog, _pool, r) = analyze(
            "fn init(slot) { v = alloc inner; *slot = v; }
             fn main() { cell = alloc c; call init(cell); y = *cell; use y; }",
        );
        assert_eq!(pts_objs(&prog, &r, "main", "y"), vec!["inner"]);
        // VFG edge from the callee store to the caller load.
        let store_label = prog
            .labels()
            .find(|&l| matches!(prog.inst(l), Inst::Store { .. }))
            .unwrap();
        let edge = r.vfg.edges().iter().any(|e| {
            e.kind == EdgeKind::DataDep
                && matches!(r.vfg.kind(e.from), NodeKind::Def { label, .. } if label == store_label)
        });
        assert!(edge, "expected DataDep edge anchored at the callee store");
    }

    #[test]
    fn caller_store_visible_to_callee_load() {
        let (prog, _pool, r) = analyze(
            "fn reader(slot) { y = *slot; use y; }
             fn main() { cell = alloc c; v = alloc inner; *cell = v; call reader(cell); }",
        );
        let reader = prog.func_by_name("reader").unwrap();
        let y = prog.var_by_name(reader, "y").unwrap();
        // Symbolically y = DerefParam(0); the caller-side connection is
        // the DataDep VFG edge from main's store to reader's load.
        assert!(r.pgtop[y.index()]
            .iter()
            .any(|e| e.value == Sym::DerefParam(0)));
        let store_label = prog
            .labels()
            .find(|&l| matches!(prog.inst(l), Inst::Store { .. }))
            .unwrap();
        let load_label = prog
            .labels()
            .find(|&l| matches!(prog.inst(l), Inst::Load { .. }))
            .unwrap();
        let edge = r.vfg.edges().iter().any(|e| {
            e.kind == EdgeKind::DataDep
                && matches!(r.vfg.kind(e.from), NodeKind::Def { label, .. } if label == store_label)
                && matches!(r.vfg.kind(e.to), NodeKind::Def { label, .. } if label == load_label)
        });
        assert!(edge, "expected store→load edge across the call boundary");
    }

    #[test]
    fn null_flows_through_memory() {
        let (prog, _pool, r) = analyze(
            "fn main() { cell = alloc c; n = null; *cell = n; y = *cell; use y; }",
        );
        let f = prog.func_by_name("main").unwrap();
        let y = prog.var_by_name(f, "y").unwrap();
        assert!(r.pgtop[y.index()].iter().any(|e| e.value == Sym::Null));
    }

    #[test]
    fn fork_args_bind_but_no_summary_applies() {
        let (prog, _pool, r) = analyze(
            "fn w(slot) { v = alloc inner; *slot = v; }
             fn main() { cell = alloc c; fork t w(cell); y = *cell; use y; }",
        );
        // No intra-thread flow from w's store to main's load: that is
        // interference, Alg. 2's job.
        assert_eq!(pts_objs(&prog, &r, "main", "y"), Vec::<String>::new());
        // But the direct arg→param edge exists (value enters the thread).
        let w = prog.func_by_name("w").unwrap();
        let slot = prog.var_by_name(w, "slot").unwrap();
        let slot_anchor = r.def_site[slot.index()].unwrap();
        let has_param_edge = r.vfg.edges().iter().any(|e| {
            matches!(r.vfg.kind(e.to), NodeKind::Def { var, label } if var == slot && label == slot_anchor)
        });
        assert!(has_param_edge);
    }

    #[test]
    fn stores_and_loads_are_inventoried() {
        let (_prog, _pool, r) = analyze(
            "fn main() { cell = alloc c; v = alloc o; *cell = v; y = *cell; use y; }",
        );
        assert_eq!(r.stores.len(), 1);
        assert_eq!(r.loads.len(), 1);
    }

    #[test]
    fn object_node_feeds_pointer_def() {
        let (prog, _pool, r) = analyze("fn main() { p = alloc o1; use p; }");
        let alloc_label = prog.labels().next().unwrap();
        let has = r.vfg.edges().iter().any(|e| {
            matches!(r.vfg.kind(e.from), NodeKind::Object { label, .. } if label == alloc_label)
        });
        assert!(has);
    }
}
