//! Per-block path conditions.
//!
//! Every statement `ℓ` carries a guard `φ` — the condition under which
//! control reaches it from its function's entry (the `ℓ, φ : S` pairs in
//! Fig. 6 and Alg. 1). Bounded CFGs are DAGs, so one topological pass
//! computes `cond(B) = ⋁_{P → B} cond(P) ∧ branch(P → B)` exactly.
//!
//! Condition atoms map 1:1 onto SMT Boolean atoms: `CondId(i)` becomes
//! `bool_atom(i)`, so branches in different threads that test the same
//! named `θ` stay correlated (the Fig. 2 refutation depends on it).

use canary_ir::{CondExpr, FuncId, Label, Program, Terminator};
use canary_smt::{TermId, TermPool};

/// Lowers a branch condition literal to a term.
pub fn cond_term(pool: &mut TermPool, c: CondExpr) -> TermId {
    match c {
        CondExpr::True => pool.tt(),
        CondExpr::False => pool.ff(),
        CondExpr::Atom { cond, negated } => {
            let atom = pool.bool_atom(cond.0);
            if negated {
                pool.not(atom)
            } else {
                atom
            }
        }
    }
}

/// Path conditions for every statement of a program, indexed by label.
#[derive(Debug)]
pub struct PathConditions {
    per_label: Vec<TermId>,
}

impl PathConditions {
    /// Computes all statement guards.
    pub fn compute(prog: &Program, pool: &mut TermPool) -> Self {
        let mut per_label = vec![pool.tt(); prog.stmt_count()];
        for f in 0..prog.funcs.len() {
            Self::compute_func(prog, FuncId::new(f as u32), pool, &mut per_label);
        }
        PathConditions { per_label }
    }

    fn compute_func(prog: &Program, f: FuncId, pool: &mut TermPool, per_label: &mut [TermId]) {
        let func = prog.func(f);
        let mut block_cond = vec![pool.ff(); func.blocks.len()];
        block_cond[func.entry.index()] = pool.tt();
        for blk in func.reverse_post_order() {
            let cond = block_cond[blk.index()];
            for &l in &func.block(blk).stmts {
                per_label[l.index()] = cond;
            }
            match &func.block(blk).term {
                Terminator::Goto(next) => {
                    let merged = pool.or2(block_cond[next.index()], cond);
                    block_cond[next.index()] = merged;
                }
                Terminator::Branch {
                    cond: c,
                    then_blk,
                    else_blk,
                } => {
                    let ct = cond_term(pool, *c);
                    let taken = pool.and2(cond, ct);
                    let merged = pool.or2(block_cond[then_blk.index()], taken);
                    block_cond[then_blk.index()] = merged;
                    let nct = pool.not(ct);
                    let not_taken = pool.and2(cond, nct);
                    let merged = pool.or2(block_cond[else_blk.index()], not_taken);
                    block_cond[else_blk.index()] = merged;
                }
                Terminator::Exit => {}
            }
        }
    }

    /// The guard `φ` of the statement at `l`.
    #[inline]
    pub fn guard(&self, l: Label) -> TermId {
        self.per_label[l.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_ir::parse;
    use canary_smt::{check, SolverOptions};

    fn sat(pool: &TermPool, t: TermId) -> bool {
        check(pool, t, &SolverOptions::default()).is_sat()
    }

    #[test]
    fn straightline_guards_are_true() {
        let prog = parse("fn main() { p = alloc o; free p; }").unwrap();
        let mut pool = TermPool::new();
        let pc = PathConditions::compute(&prog, &mut pool);
        for l in prog.labels() {
            assert_eq!(pc.guard(l), pool.tt());
        }
    }

    #[test]
    fn branch_arms_get_literal_guards() {
        let prog = parse("fn main() { p = alloc o; if (c) { free p; } else { use p; } }").unwrap();
        let mut pool = TermPool::new();
        let pc = PathConditions::compute(&prog, &mut pool);
        let free = prog.free_sites()[0];
        let deref = prog.deref_sites()[0];
        let gf = pc.guard(free);
        let gd = pc.guard(deref);
        // Guards of opposite arms contradict.
        let both = pool.and2(gf, gd);
        assert_eq!(both, pool.ff());
        assert!(sat(&pool, gf));
        assert!(sat(&pool, gd));
    }

    #[test]
    fn join_block_guard_recovers_true() {
        let prog = parse("fn main() { if (c) { skip; } else { skip; } p = alloc o; }").unwrap();
        let mut pool = TermPool::new();
        let pc = PathConditions::compute(&prog, &mut pool);
        // The statement after the diamond is unconditioned: c ∨ ¬c = true.
        let alloc = prog
            .labels()
            .find(|&l| matches!(prog.inst(l), canary_ir::Inst::Alloc { .. }))
            .unwrap();
        assert_eq!(pc.guard(alloc), pool.tt());
    }

    #[test]
    fn nested_branches_conjoin() {
        let prog = parse("fn main() { p = alloc o; if (a) { if (b) { free p; } } }").unwrap();
        let mut pool = TermPool::new();
        let pc = PathConditions::compute(&prog, &mut pool);
        let g = pc.guard(prog.free_sites()[0]);
        let a = pool.bool_atom(prog.cond_by_name("a").unwrap().0);
        let b = pool.bool_atom(prog.cond_by_name("b").unwrap().0);
        let expected = pool.and2(a, b);
        assert_eq!(g, expected);
    }

    #[test]
    fn same_atom_across_functions_is_shared() {
        let prog = parse(
            "fn main() { p = alloc o; if (t1) { free p; } }
             fn w(q) { if (!t1) { use q; } }",
        )
        .unwrap();
        let mut pool = TermPool::new();
        let pc = PathConditions::compute(&prog, &mut pool);
        let gf = pc.guard(prog.free_sites()[0]);
        let gd = pc.guard(prog.deref_sites()[0]);
        let both = pool.and2(gf, gd);
        assert_eq!(both, pool.ff(), "θ ∧ ¬θ must fold to false");
    }

    #[test]
    fn false_branch_is_unreachable() {
        let prog = parse("fn main() { if (false) { p = alloc o; use p; } }").unwrap();
        let mut pool = TermPool::new();
        let pc = PathConditions::compute(&prog, &mut pool);
        let deref = prog.deref_sites()[0];
        assert_eq!(pc.guard(deref), pool.ff());
    }
}
