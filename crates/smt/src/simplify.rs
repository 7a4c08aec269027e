//! Lightweight semi-decision procedures (§5.2, optimization 1).
//!
//! During guard construction Canary filters out conditions "having any
//! apparent contradictions" without invoking the full solver. These
//! checks are sound but incomplete: [`obviously_false`] never
//! misclassifies a satisfiable term, it merely fails to notice some
//! unsatisfiable ones (which the CDCL(T) solver then handles).

use crate::term::{Node, TermId, TermPool};
use crate::theory::orders_consistent;

/// Whether `t` is recognizably unsatisfiable by cheap syntactic means:
///
/// * it is the constant `false` (the pool's constructors already fold
///   complementary Boolean literal pairs into `false`);
/// * its top-level conjunction asserts order literals that form a cycle.
pub fn obviously_false(pool: &TermPool, t: TermId) -> bool {
    if t == pool.ff() {
        return true;
    }
    // Collect order literals conjoined at the top level.
    let lits = pool.conjuncts_of(t);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for l in lits {
        match pool.node(l) {
            Node::Order(a, b) => edges.push((*a, *b)),
            Node::Not(inner) => {
                if let Node::Order(a, b) = pool.node(*inner) {
                    edges.push((*b, *a));
                }
            }
            _ => {}
        }
    }
    if edges.len() >= 2 || edges.iter().any(|&(a, b)| a == b) {
        return !orders_consistent(&edges);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_false_is_obvious() {
        let mut p = TermPool::new();
        let a = p.bool_atom(0);
        let na = p.not(a);
        let contradiction = p.and2(a, na);
        assert!(obviously_false(&p, contradiction));
        assert!(obviously_false(&p, p.ff()));
    }

    #[test]
    fn order_cycle_is_obvious() {
        let mut p = TermPool::new();
        let o12 = p.order_lt(1, 2);
        let o23 = p.order_lt(2, 3);
        let o31 = p.order_lt(3, 1);
        let cyc = p.and([o12, o23, o31]);
        assert!(obviously_false(&p, cyc));
    }

    #[test]
    fn order_two_cycle_via_negation_is_obvious() {
        let mut p = TermPool::new();
        let o12 = p.order_lt(1, 2);
        let o21 = p.order_lt(2, 1);
        // and() already folds x ∧ ¬x since o21 = ¬o12.
        let cyc = p.and2(o12, o21);
        assert!(obviously_false(&p, cyc));
    }

    #[test]
    fn consistent_chain_is_not_flagged() {
        let mut p = TermPool::new();
        let o12 = p.order_lt(1, 2);
        let o23 = p.order_lt(2, 3);
        let t = p.and2(o12, o23);
        assert!(!obviously_false(&p, t));
    }

    #[test]
    fn satisfiable_boolean_mix_is_not_flagged() {
        let mut p = TermPool::new();
        let a = p.bool_atom(0);
        let b = p.bool_atom(1);
        let nb = p.not(b);
        let t = p.and([a, nb]);
        assert!(!obviously_false(&p, t));
    }

    #[test]
    fn disjunction_is_never_prefiltered() {
        // Incomplete by design: (o12 ∧ o21) ∨ false is unsat but hides
        // the cycle under an Or — the prefilter must pass it through.
        let mut p = TermPool::new();
        let a = p.bool_atom(0);
        let na = p.not(a);
        let c1 = p.and2(a, na); // folds to false
        let o12 = p.order_lt(1, 2);
        let t = p.or2(c1, o12);
        assert!(!obviously_false(&p, t));
    }
}
