//! Constraint aggregation: `Φ_all = Φ_guards ∧ Φ_po` (Eq. 5).
//!
//! Guards are conjoined along the path (Eq. 3); the partial-order
//! constraints `Φ_po` (Eq. 4) are generated *lazily*, at checking time,
//! over the set of execution events the query mentions — the path
//! labels, the source and sink, and every event named by an order atom
//! inside the aggregated guards (the competing stores of Eq. 2). The
//! program order `<P` — control flow plus fork/join semantics, as
//! decided by [`OrderGraph`] — is restricted to those events and to the
//! pairs the memory model keeps. Only the *covering* pairs of that kept
//! relation get an order atom: a pair that a chain of two or more kept
//! pairs already orders is left out, because the order theory closes
//! the atoms it is given transitively.

use std::collections::BTreeSet;

use canary_ir::{Label, OrderGraph};
use canary_smt::{TermId, TermPool};

/// Builds `Φ_po` over the given events (Eq. 4, extended to ground every
/// event the guards mention).
pub fn partial_order_constraints(
    pool: &mut TermPool,
    og: &OrderGraph<'_>,
    events: &BTreeSet<Label>,
) -> TermId {
    partial_order_constraints_with(pool, og, events, &|_, _| true)
}

/// `Φ_po` with a *retention policy*: the §9 relaxed-memory extension
/// drops the program-order constraints a weaker memory model does not
/// enforce (TSO: store→load to different locations; PSO: additionally
/// store→store). `keep(a, b)` decides whether the ordered pair `a <P b`
/// belongs to the kept relation K.
///
/// One order atom is emitted per covering pair of K (its transitive
/// reduction), in event order. Every total order satisfying the
/// covering pairs satisfies their transitive closure, which contains K,
/// so the result is equisatisfiable with one atom per pair of K under
/// any conjoined constraint. Should K have a cycle, it is emitted whole.
pub fn partial_order_constraints_with(
    pool: &mut TermPool,
    og: &OrderGraph<'_>,
    events: &BTreeSet<Label>,
    keep: &dyn Fn(Label, Label) -> bool,
) -> TermId {
    let evs: Vec<Label> = events.iter().copied().collect();
    let mut kept: Vec<(usize, usize)> = Vec::new();
    for i in 0..evs.len() {
        for j in (i + 1)..evs.len() {
            let (a, b) = (evs[i], evs[j]);
            if og.happens_before(a, b) {
                if keep(a, b) {
                    kept.push((i, j));
                }
            } else if og.happens_before(b, a) && keep(b, a) {
                kept.push((j, i));
            }
        }
    }
    let covering = covering_mask(evs.len(), &kept);
    let parts: Vec<TermId> = kept
        .iter()
        .zip(covering)
        .filter(|&(_, c)| c)
        .map(|(&(a, b), _)| pool.order_lt(evs[a].0, evs[b].0))
        .collect();
    pool.and(parts)
}

/// For a relation `edges` over `0..n`, marks each edge that is a
/// covering pair: no path of two or more edges joins its ends. Walks a
/// topological order backwards with one reachability bitset per node,
/// so the cost is O(n·|edges|/64). A cyclic relation has no unique
/// reduction; every edge is marked then.
fn covering_mask(n: usize, edges: &[(usize, usize)]) -> Vec<bool> {
    let mut succs: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for (e, &(a, b)) in edges.iter().enumerate() {
        succs[a].push((b, e));
        indeg[b] += 1;
    }
    let mut topo: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    let mut next = 0;
    while next < topo.len() {
        let v = topo[next];
        next += 1;
        for &(w, _) in &succs[v] {
            indeg[w] -= 1;
            if indeg[w] == 0 {
                topo.push(w);
            }
        }
    }
    if topo.len() < n {
        return vec![true; edges.len()];
    }
    let words = n.div_ceil(64);
    // reach[v]: nodes reachable from v over one or more edges.
    let mut reach = vec![0u64; n * words];
    let mut covering = vec![false; edges.len()];
    let mut far = vec![0u64; words];
    for &v in topo.iter().rev() {
        // Nodes reachable from v over two or more edges. Each
        // successor's own bit joins once its edge is classified, which
        // leaves reach[v] behind.
        far.fill(0);
        for &(w, _) in &succs[v] {
            for (f, r) in far.iter_mut().zip(&reach[w * words..(w + 1) * words]) {
                *f |= r;
            }
        }
        for &(w, e) in &succs[v] {
            covering[e] = far[w / 64] & (1 << (w % 64)) == 0;
            far[w / 64] |= 1 << (w % 64);
        }
        reach[v * words..(v + 1) * words].copy_from_slice(&far);
    }
    covering
}

/// Collects every execution event a constraint term mentions through
/// its order atoms.
pub fn events_of(pool: &TermPool, t: TermId) -> BTreeSet<Label> {
    let mut out = BTreeSet::new();
    for (a, b) in pool.atoms_of(t).orders {
        out.insert(Label(a));
        out.insert(Label(b));
    }
    out
}

/// Assembles `Φ_all` for one source-sink query:
/// `Φ_guards(π) ∧ Φ_src ∧ Φ_extra ∧ Φ_po(events)`.
pub fn assemble(
    pool: &mut TermPool,
    og: &OrderGraph<'_>,
    path_guards: &[TermId],
    path_labels: &[Label],
    extra: &[TermId],
) -> TermId {
    assemble_with(
        pool,
        og,
        path_guards,
        path_labels,
        extra,
        &|_, _| true,
        &no_sync,
    )
}

/// The synchronization step of a query without `Φ_sync`.
pub fn no_sync(pool: &mut TermPool, _: &mut BTreeSet<Label>) -> TermId {
    pool.tt()
}

/// [`assemble`] with an explicit program-order retention policy and a
/// synchronization step: `sync` receives the query's event set, returns
/// the §9 constraints `Φ_sync` and adds every event they mention to the
/// set. `Φ_po` is grounded once, over the final set, and the result is
/// `Φ_guards ∧ Φ_extra ∧ Φ_sync ∧ Φ_po`.
pub fn assemble_with(
    pool: &mut TermPool,
    og: &OrderGraph<'_>,
    path_guards: &[TermId],
    path_labels: &[Label],
    extra: &[TermId],
    keep: &dyn Fn(Label, Label) -> bool,
    sync: &dyn Fn(&mut TermPool, &mut BTreeSet<Label>) -> TermId,
) -> TermId {
    let mut conj: Vec<TermId> = path_guards.to_vec();
    conj.extend_from_slice(extra);
    let guards = pool.and(conj);
    if guards == pool.ff() {
        return guards;
    }
    let mut events = events_of(pool, guards);
    events.extend(path_labels.iter().copied());
    let sc = sync(pool, &mut events);
    let po = partial_order_constraints_with(pool, og, &events, keep);
    pool.and([guards, sc, po])
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_ir::{parse, CallGraph};
    use canary_smt::{check, SolverOptions};

    #[test]
    fn po_orders_straightline_labels() {
        let prog = parse("fn main() { p = alloc o; free p; use p; }").unwrap();
        let cg = CallGraph::build(&prog);
        let og = OrderGraph::build(&prog, &cg);
        let mut pool = TermPool::new();
        let events: BTreeSet<Label> = prog.labels().collect();
        let po = partial_order_constraints(&mut pool, &og, &events);
        // Adding the reversed order of two straightline statements must
        // contradict Φ_po.
        let rev = pool.order_lt(2, 1);
        let t = pool.and2(po, rev);
        assert_eq!(t, pool.ff());
    }

    #[test]
    fn covering_mask_drops_transitive_pairs() {
        // 0 < 1 < 2 plus the implied 0 < 2, and an unrelated 3 < 2.
        let edges = [(0, 1), (0, 2), (1, 2), (3, 2)];
        assert_eq!(covering_mask(4, &edges), [true, false, true, true]);
    }

    #[test]
    fn cyclic_kept_relation_is_emitted_unchanged() {
        let edges = [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3)];
        assert_eq!(covering_mask(4, &edges), [true; 5]);
    }

    #[test]
    fn events_of_reads_order_atoms() {
        let mut pool = TermPool::new();
        let o = pool.order_lt(3, 7);
        let b = pool.bool_atom(0);
        let t = pool.and2(o, b);
        let evs = events_of(&pool, t);
        assert!(evs.contains(&Label(3)));
        assert!(evs.contains(&Label(7)));
        assert_eq!(evs.len(), 2);
    }

    #[test]
    fn assemble_grounds_guard_events() {
        // A guard that orders l2 before l1 while program order says
        // l1 < l2 must assemble to an unsatisfiable constraint.
        let prog = parse("fn main() { p = alloc o; free p; use p; }").unwrap();
        let cg = CallGraph::build(&prog);
        let og = OrderGraph::build(&prog, &cg);
        let mut pool = TermPool::new();
        let bad = pool.order_lt(2, 1); // "use before free"
        let all = assemble(&mut pool, &og, &[bad], &[], &[]);
        assert!(!check(&pool, all, &SolverOptions::default()).is_sat());
    }

    #[test]
    fn assemble_keeps_feasible_constraints_sat() {
        let prog = parse("fn main() { p = alloc o; free p; use p; }").unwrap();
        let cg = CallGraph::build(&prog);
        let og = OrderGraph::build(&prog, &cg);
        let mut pool = TermPool::new();
        let fine = pool.order_lt(1, 2);
        let all = assemble(&mut pool, &og, &[fine], &[], &[]);
        assert!(check(&pool, all, &SolverOptions::default()).is_sat());
    }

    #[test]
    fn transitive_cycle_through_program_order_detected() {
        // Guards say O_use < O_alloc (label 2 < label 0); program order
        // says 0 < 1 < 2; the theory must find the cycle.
        let prog = parse("fn main() { p = alloc o; free p; use p; }").unwrap();
        let cg = CallGraph::build(&prog);
        let og = OrderGraph::build(&prog, &cg);
        let mut pool = TermPool::new();
        let back = pool.order_lt(2, 0);
        let all = assemble(&mut pool, &og, &[back], &[], &[]);
        assert!(!check(&pool, all, &SolverOptions::default()).is_sat());
    }
}
