//! A Saber-style baseline (Sui, Ye, Xue — ISSTA 2012).
//!
//! Saber performs an Andersen-style, flow-insensitive, *exhaustive*
//! inclusion points-to analysis and builds a full-sparse value-flow
//! graph from it (§7.1: it "can trivially model the thread
//! interference" because flow-insensitivity ignores ordering entirely).
//! Precision class: path-insensitive and order-insensitive — the Fig. 2
//! false positive is always reported.
//!
//! The inclusion solver is the classic worklist formulation with cubic
//! worst-case behaviour; combined with the exhaustive store×load VFG
//! product this reproduces the cost profile Fig. 7 shows.

use std::collections::HashSet;

use canary_ir::{Inst, ObjId, Program, VarId};
use canary_vfg::Vfg;

use crate::common::{
    build_unguarded_vfg, check_uaf_unguarded, BaselineReport, Budgeted, Deadline, PointsTo,
};

/// Result of a Saber run.
#[derive(Debug)]
pub struct SaberResult {
    /// The exhaustive points-to facts.
    pub pts: PointsTo,
    /// The unguarded VFG.
    pub vfg: Vfg,
}

/// Runs the Andersen-style inclusion solver to fixpoint.
pub fn solve_andersen(prog: &Program, deadline: Deadline) -> Budgeted<PointsTo> {
    let mut pts = PointsTo::for_program(prog);
    // Copy edges var→var gathered once; complex (load/store/call)
    // constraints re-evaluated every round — deliberately the naive
    // exhaustive formulation.
    let mut copy_edges: Vec<(VarId, VarId)> = Vec::new(); // src → dst
    for l in prog.labels() {
        match prog.inst(l) {
            Inst::Alloc { dst, obj } => {
                pts.var_pts[dst.index()].insert(*obj);
            }
            Inst::Copy { dst, src } | Inst::Un { dst, src, .. } => {
                copy_edges.push((*src, *dst));
            }
            Inst::Bin { dst, lhs, rhs, .. } => {
                copy_edges.push((*lhs, *dst));
                copy_edges.push((*rhs, *dst));
            }
            Inst::Call { dsts, callee, args } => {
                call_copy_edges(prog, callee, args, dsts, &mut copy_edges);
            }
            Inst::Fork { entry, args, .. } => {
                call_copy_edges(prog, entry, args, &[], &mut copy_edges);
            }
            _ => {}
        }
    }
    loop {
        if deadline.expired() {
            return Budgeted::TimedOut;
        }
        let mut changed = false;
        for &(src, dst) in &copy_edges {
            let add: Vec<ObjId> = pts.var_pts[src.index()]
                .difference(&pts.var_pts[dst.index()])
                .copied()
                .collect();
            if !add.is_empty() {
                changed = true;
                pts.var_pts[dst.index()].extend(add);
            }
        }
        for l in prog.labels() {
            match prog.inst(l) {
                Inst::Store { addr, src } => {
                    let objs: Vec<ObjId> = pts.var_pts[addr.index()].iter().copied().collect();
                    let vals: HashSet<ObjId> = pts.var_pts[src.index()].clone();
                    for o in objs {
                        let add: Vec<ObjId> =
                            vals.difference(&pts.cell_pts[o.index()]).copied().collect();
                        if !add.is_empty() {
                            changed = true;
                            pts.cell_pts[o.index()].extend(add);
                        }
                    }
                }
                Inst::Load { dst, addr } => {
                    let objs: Vec<ObjId> = pts.var_pts[addr.index()].iter().copied().collect();
                    for o in objs {
                        let add: Vec<ObjId> = pts.cell_pts[o.index()]
                            .difference(&pts.var_pts[dst.index()])
                            .copied()
                            .collect();
                        if !add.is_empty() {
                            changed = true;
                            pts.var_pts[dst.index()].extend(add);
                        }
                    }
                }
                _ => {}
            }
        }
        if !changed {
            break;
        }
    }
    pts.refresh_bytes();
    Budgeted::Done(pts)
}

/// Adds argument/parameter and return/destination copy constraints for
/// a call or fork site; indirect callees conservatively match every
/// function of the right arity (flow-insensitive resolution).
fn call_copy_edges(
    prog: &Program,
    callee: &canary_ir::Callee,
    args: &[VarId],
    dsts: &[VarId],
    copy_edges: &mut Vec<(VarId, VarId)>,
) {
    let targets: Vec<canary_ir::FuncId> = match callee {
        canary_ir::Callee::Direct(f) => vec![*f],
        canary_ir::Callee::Indirect(_) => prog
            .funcs
            .iter()
            .filter(|f| f.params.len() == args.len())
            .map(|f| f.id)
            .collect(),
    };
    for t in targets {
        let func = prog.func(t);
        for (i, &a) in args.iter().enumerate() {
            if let Some(&p) = func.params.get(i) {
                copy_edges.push((a, p));
            }
        }
        for fl in func.labels() {
            if let Inst::Return { vals } = prog.inst(fl) {
                for (k, &d) in dsts.iter().enumerate() {
                    if let Some(&rv) = vals.get(k) {
                        copy_edges.push((rv, d));
                    }
                }
            }
        }
    }
}

/// Builds the Saber VFG (exhaustive points-to + unguarded graph).
pub fn build_vfg(prog: &Program, deadline: Deadline) -> Budgeted<SaberResult> {
    let pts = match solve_andersen(prog, deadline) {
        Budgeted::Done(p) => p,
        Budgeted::TimedOut => return Budgeted::TimedOut,
    };
    match build_unguarded_vfg(prog, &pts, deadline, &|_, _| true) {
        Budgeted::Done(vfg) => Budgeted::Done(SaberResult { pts, vfg }),
        Budgeted::TimedOut => Budgeted::TimedOut,
    }
}

/// Full Saber run: VFG + unguarded use-after-free checking.
pub fn check_uaf(prog: &Program, deadline: Deadline) -> Budgeted<Vec<BaselineReport>> {
    match build_vfg(prog, deadline) {
        Budgeted::Done(r) => check_uaf_unguarded(prog, &r.vfg, deadline),
        Budgeted::TimedOut => Budgeted::TimedOut,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_ir::parse;

    #[test]
    fn andersen_resolves_copies_and_memory() {
        let prog = parse(
            "fn main() { x = alloc o1; cell = alloc c; *cell = x; y = *cell; q = y; use q; }",
        )
        .unwrap();
        let pts = solve_andersen(&prog, Deadline::none()).expect_done("no deadline");
        let main = prog.func_by_name("main").unwrap();
        let q = prog.var_by_name(main, "q").unwrap();
        let o1 = prog.obj_by_name("o1").unwrap();
        assert!(pts.var_pts[q.index()].contains(&o1));
    }

    #[test]
    fn flow_insensitive_merges_both_stores() {
        // Unlike Alg. 1's strong update, Andersen keeps both.
        let prog = parse(
            "fn main() { a = alloc oa; b = alloc ob; cell = alloc c; *cell = a; *cell = b; y = *cell; use y; }",
        )
        .unwrap();
        let pts = solve_andersen(&prog, Deadline::none()).expect_done("no deadline");
        let main = prog.func_by_name("main").unwrap();
        let y = prog.var_by_name(main, "y").unwrap();
        assert_eq!(pts.var_pts[y.index()].len(), 2);
    }

    #[test]
    fn reports_fig2_false_positive() {
        // The defining precision gap: Saber reports the bug-free Fig. 2
        // program.
        let prog = parse(
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
        )
        .unwrap();
        let reports = check_uaf(&prog, Deadline::none()).expect_done("no deadline");
        assert!(
            !reports.is_empty(),
            "path-insensitive baseline must report the FP"
        );
    }

    #[test]
    fn reports_order_insensitive_use_before_free() {
        // Even `use p; free p;` is flagged — no order reasoning at all.
        let prog = parse("fn main() { p = alloc o; use p; free p; }").unwrap();
        let reports = check_uaf(&prog, Deadline::none()).expect_done("no deadline");
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn timeout_propagates() {
        let prog = parse("fn main() { p = alloc o; free p; use p; }").unwrap();
        let d = Deadline::after(std::time::Duration::from_nanos(0));
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(check_uaf(&prog, d).timed_out());
    }
}
