//! Unsat-core extraction by deletion-based minimization.
//!
//! For a refuted source-sink candidate, the interesting question is
//! *which* constraints killed it — the contradictory branch guards of
//! Fig. 2, a fork/join order, a lock handshake. Given an unsatisfiable
//! conjunction, [`minimal_core`] deletes conjuncts while the remainder
//! stays unsatisfiable, yielding a minimal explanation (w.r.t. single
//! deletions).

use crate::solver::{check, fresh_solver, solve_lazily, SolverOptions};
use crate::term::{TermId, TermPool};

/// A deletion-minimal unsatisfiable subset of `t`'s top-level
/// conjuncts. Returns `None` when `t` is satisfiable.
///
/// The result is minimal with respect to removing any *single* element
/// — the standard deletion-based core, quadratic in the number of
/// conjuncts with one solver call each.
pub fn minimal_core(pool: &TermPool, t: TermId, opts: &SolverOptions) -> Option<Vec<TermId>> {
    if check(pool, t, opts).is_sat() {
        return None;
    }
    let mut core = pool.conjuncts_of(t);
    let mut i = 0;
    while i < core.len() {
        let mut trial = core.clone();
        trial.remove(i);
        if !check_conjunction(pool, &trial) {
            core.remove(i);
        } else {
            i += 1;
        }
    }
    Some(core)
}

/// Whether the conjunction of `parts` is satisfiable, without mutating
/// the pool (each part is encoded as its own asserted root).
pub fn check_conjunction(pool: &TermPool, parts: &[TermId]) -> bool {
    let (mut sat, enc) = fresh_solver(pool, parts);
    solve_lazily(&mut sat, &enc, &[], None, &mut 0).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (TermPool, SolverOptions) {
        (TermPool::new(), SolverOptions::default())
    }

    #[test]
    fn sat_input_has_no_core() {
        let (mut pool, opts) = setup();
        let a = pool.bool_atom(0);
        assert!(minimal_core(&pool, a, &opts).is_none());
    }

    #[test]
    fn contradictory_pair_is_the_whole_core() {
        let (mut pool, opts) = setup();
        let a = pool.bool_atom(0);
        let b = pool.bool_atom(1);
        let c = pool.bool_atom(2);
        let na = pool.not(a);
        // a ∧ ¬a ∧ b ∧ c — only {a, ¬a} is needed... but the pool folds
        // literal complements at construction; hide them in disjunctions.
        let d1 = pool.or2(a, b);
        let nb = pool.not(b);
        let d2 = pool.and2(na, nb);
        let f = pool.and([d1, d2, c]);
        let core = minimal_core(&pool, f, &opts).expect("unsat");
        // c is irrelevant and must be deleted.
        assert!(!core.contains(&c), "{core:?}");
        assert!(core.len() >= 2);
    }

    #[test]
    fn order_cycle_core_excludes_unrelated_orders() {
        let (mut pool, opts) = setup();
        let o12 = pool.order_lt(1, 2);
        let o23 = pool.order_lt(2, 3);
        let o31 = pool.order_lt(3, 1);
        let unrelated = pool.order_lt(10, 11);
        let f = pool.and([o12, o23, o31, unrelated]);
        let core = minimal_core(&pool, f, &opts).expect("unsat");
        assert!(!core.contains(&unrelated), "{core:?}");
        assert_eq!(core.len(), 3);
    }

    #[test]
    fn core_stays_unsat() {
        let (mut pool, opts) = setup();
        let o12 = pool.order_lt(1, 2);
        let o21 = pool.order_lt(2, 1);
        let x = pool.bool_atom(5);
        let f = pool.and([o12, o21, x]);
        // o21 = ¬o12 folds to false at construction; the whole term is ff.
        if f == pool.ff() {
            let core = minimal_core(&pool, f, &opts).expect("unsat");
            assert_eq!(core, vec![pool.ff()]);
        }
    }

    #[test]
    fn check_conjunction_matches_check() {
        let (mut pool, opts) = setup();
        let a = pool.bool_atom(0);
        let o = pool.order_lt(1, 2);
        let ao = pool.and2(a, o);
        assert!(check_conjunction(&pool, &[a, o]));
        assert!(check(&pool, ao, &opts).is_sat());
        let na = pool.not(a);
        assert!(!check_conjunction(&pool, &[a, na]));
    }
}
