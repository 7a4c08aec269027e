//! Tseitin conversion from [`TermPool`] terms to CNF over SAT variables.
//!
//! Each distinct atom (Boolean or order) gets one SAT variable; internal
//! gates get auxiliary variables. The [`Encoding`] remembers which SAT
//! variable carries which order atom so the CDCL(T) loop can extract the
//! oriented edges from a propositional model.

use rustc_hash::FxHashMap;

use crate::sat::{Lit, SatSolver, Var};
use crate::term::{EventId, Node, TermId, TermPool};

/// The atom ↔ SAT-variable mapping produced by [`encode`].
#[derive(Debug, Default)]
pub struct Encoding {
    /// Boolean atom index → SAT var.
    pub bool_vars: FxHashMap<u32, Var>,
    /// Normalized order atom `(a, b)` (with `a < b`) → SAT var. The var
    /// being *false* asserts the reversed order `b < a` (total order
    /// over distinct events).
    pub order_vars: FxHashMap<(EventId, EventId), Var>,
    /// Gate variable per term, memoized across roots.
    gate: FxHashMap<TermId, Lit>,
}

impl Encoding {
    /// The order atoms in a propositional model, oriented by the model.
    /// Returns `(from, to, var)` triples, sorted by edge for
    /// determinism (the backing map iterates in hash order, which
    /// would otherwise leak into theory-lemma and witness extraction).
    pub fn oriented_edges(&self, model: &[bool]) -> Vec<(EventId, EventId, Var)> {
        let mut out = Vec::with_capacity(self.order_vars.len());
        for (&(a, b), &v) in &self.order_vars {
            if model[v.index()] {
                out.push((a, b, v));
            } else {
                out.push((b, a, v));
            }
        }
        out.sort_unstable();
        out
    }

    /// The Boolean-atom assignment in a propositional model, as sorted
    /// `(atom index, value)` pairs.
    pub fn bool_assignment(&self, model: &[bool]) -> Vec<(u32, bool)> {
        let mut out: Vec<(u32, bool)> = self
            .bool_vars
            .iter()
            .map(|(&atom, &v)| (atom, model[v.index()]))
            .collect();
        out.sort_unstable();
        out
    }
}

/// Encodes `root` into `solver`, asserting it true. Returns the literal
/// representing the root (already asserted).
///
/// Call repeatedly with the same `Encoding` to conjoin several roots
/// into one solver (shared atoms unify automatically).
pub fn encode(pool: &TermPool, root: TermId, solver: &mut SatSolver, enc: &mut Encoding) -> Lit {
    let lit = gate_of(pool, root, solver, enc);
    solver.add_clause(&[lit]);
    lit
}

/// Encodes `t` under an *activation literal*: asserts `act → t`, so the
/// constraint is inert (trivially satisfiable by `¬act`) until `act` is
/// passed as an assumption. This is how the query-family solver keeps
/// one persistent solver per family: the shared conjunct prefix is
/// asserted outright, each member's delta conjuncts are gated, and a
/// member's query is one `solve_with_assumptions` call over its
/// activation literals — learned clauses stay valid across members
/// because the gating clause itself is part of the clause set.
pub fn encode_gated(
    pool: &TermPool,
    t: TermId,
    solver: &mut SatSolver,
    enc: &mut Encoding,
    act: Lit,
) -> Lit {
    let g = gate_of(pool, t, solver, enc);
    solver.add_clause(&[act.negate(), g]);
    g
}

/// Returns a literal equisatisfiably representing `t` (without
/// asserting it).
pub fn gate_of(pool: &TermPool, t: TermId, solver: &mut SatSolver, enc: &mut Encoding) -> Lit {
    if let Some(&l) = enc.gate.get(&t) {
        return l;
    }
    let lit = match pool.node(t) {
        Node::True => {
            let v = solver.new_var();
            solver.add_clause(&[Lit::pos(v)]);
            Lit::pos(v)
        }
        Node::False => {
            let v = solver.new_var();
            solver.add_clause(&[Lit::neg(v)]);
            Lit::pos(v)
        }
        Node::BoolAtom(i) => {
            let i = *i;
            let v = *enc.bool_vars.entry(i).or_insert_with(|| solver.new_var());
            Lit::pos(v)
        }
        Node::Order(a, b) => {
            let key = (*a, *b);
            let v = *enc
                .order_vars
                .entry(key)
                .or_insert_with(|| solver.new_var());
            Lit::pos(v)
        }
        Node::Not(inner) => {
            let inner = *inner;
            gate_of(pool, inner, solver, enc).negate()
        }
        Node::And(parts) => {
            let parts = parts.clone();
            let lits: Vec<Lit> = parts
                .iter()
                .map(|&p| gate_of(pool, p, solver, enc))
                .collect();
            let g = Lit::pos(solver.new_var());
            // g → l_i
            for &l in &lits {
                solver.add_clause(&[g.negate(), l]);
            }
            // (∧ l_i) → g
            let mut clause: Vec<Lit> = lits.iter().map(|l| l.negate()).collect();
            clause.push(g);
            solver.add_clause(&clause);
            g
        }
        Node::Or(parts) => {
            let parts = parts.clone();
            let lits: Vec<Lit> = parts
                .iter()
                .map(|&p| gate_of(pool, p, solver, enc))
                .collect();
            let g = Lit::pos(solver.new_var());
            // l_i → g
            for &l in &lits {
                solver.add_clause(&[l.negate(), g]);
            }
            // g → (∨ l_i)
            let mut clause: Vec<Lit> = lits.clone();
            clause.push(g.negate());
            solver.add_clause(&clause);
            g
        }
    };
    enc.gate.insert(t, lit);
    lit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatResult;

    #[test]
    fn atom_assertion_is_sat_with_atom_true() {
        let mut pool = TermPool::new();
        let a = pool.bool_atom(0);
        let mut s = SatSolver::new();
        let mut enc = Encoding::default();
        encode(&pool, a, &mut s, &mut enc);
        match s.solve() {
            SatResult::Sat(m) => {
                let v = enc.bool_vars[&0];
                assert!(m[v.index()]);
            }
            SatResult::Unsat => panic!("expected sat"),
        }
    }

    #[test]
    fn contradiction_is_unsat() {
        let mut pool = TermPool::new();
        let a = pool.bool_atom(0);
        let na = pool.not(a);
        let mut s = SatSolver::new();
        let mut enc = Encoding::default();
        // Conjoin two roots sharing the atom.
        encode(&pool, a, &mut s, &mut enc);
        encode(&pool, na, &mut s, &mut enc);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn or_requires_one_branch() {
        let mut pool = TermPool::new();
        let a = pool.bool_atom(0);
        let b = pool.bool_atom(1);
        let na = pool.not(a);
        let nb = pool.not(b);
        let or = pool.or2(a, b);
        let mut s = SatSolver::new();
        let mut enc = Encoding::default();
        encode(&pool, or, &mut s, &mut enc);
        encode(&pool, na, &mut s, &mut enc);
        encode(&pool, nb, &mut s, &mut enc);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn nested_formula_roundtrip_model() {
        // (a ∨ b) ∧ (¬a ∨ c) ∧ ¬c  ⇒ model must have b, ¬a, ¬c.
        let mut pool = TermPool::new();
        let a = pool.bool_atom(0);
        let b = pool.bool_atom(1);
        let c = pool.bool_atom(2);
        let na = pool.not(a);
        let nc = pool.not(c);
        let f1 = pool.or2(a, b);
        let f2 = pool.or2(na, c);
        let all = pool.and([f1, f2, nc]);
        let mut s = SatSolver::new();
        let mut enc = Encoding::default();
        encode(&pool, all, &mut s, &mut enc);
        match s.solve() {
            SatResult::Sat(m) => {
                assert!(!m[enc.bool_vars[&0].index()]);
                assert!(m[enc.bool_vars[&1].index()]);
                assert!(!m[enc.bool_vars[&2].index()]);
            }
            SatResult::Unsat => panic!("expected sat"),
        }
    }

    #[test]
    fn oriented_edges_follow_model() {
        let mut pool = TermPool::new();
        let o12 = pool.order_lt(1, 2);
        let o21 = pool.order_lt(2, 1); // = ¬o12
        let mut s = SatSolver::new();
        let mut enc = Encoding::default();
        encode(&pool, o21, &mut s, &mut enc);
        let _ = o12;
        match s.solve() {
            SatResult::Sat(m) => {
                let edges = enc.oriented_edges(&m);
                assert_eq!(edges.len(), 1);
                assert_eq!((edges[0].0, edges[0].1), (2, 1));
            }
            SatResult::Unsat => panic!("expected sat"),
        }
    }
}
