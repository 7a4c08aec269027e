//! The strict partial-order theory.
//!
//! Canary's order atoms `O_a < O_b` range over execution events that a
//! sequentially consistent run totally orders (§3.1): an assignment of
//! truth values to order atoms is theory-consistent iff orienting every
//! atom accordingly yields an **acyclic** directed graph over events
//! (an acyclic relation always extends to the total order sequential
//! consistency demands).
//!
//! The checker finds a cycle among the asserted edges with an iterative
//! DFS and reports the participating atoms as a conflict — the negation
//! of that set is the theory lemma CDCL(T) learns.

use rustc_hash::FxHashMap;

use crate::term::EventId;

/// One oriented order edge plus the atom assignment that produced it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct OrderEdge {
    /// Source event (executes first).
    pub from: EventId,
    /// Destination event (executes later).
    pub to: EventId,
    /// Index of the atom (as numbered by the caller) asserting the edge.
    pub atom: usize,
}

/// Result of a theory consistency check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TheoryResult {
    /// The asserted orders extend to a total order.
    Consistent,
    /// A cycle exists; the payload lists the atom indices on it.
    Conflict(Vec<usize>),
}

/// Checks whether a set of oriented order edges is acyclic.
///
/// `edges` carry caller-side atom indices so conflicts can be turned
/// into clauses over the SAT encoding.
pub fn check_orders(edges: &[OrderEdge]) -> TheoryResult {
    // Compact the event space.
    let mut index: FxHashMap<EventId, usize> = FxHashMap::default();
    for e in edges {
        let next = index.len();
        index.entry(e.from).or_insert(next);
        let next = index.len();
        index.entry(e.to).or_insert(next);
    }
    let n = index.len();
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // (dst, atom)
    for e in edges {
        adj[index[&e.from]].push((index[&e.to], e.atom));
    }

    // Iterative DFS with colors; record the edge stack to extract the
    // cycle's atoms when a back edge closes it.
    let mut color = vec![0u8; n]; // 0 white, 1 gray, 2 black
    let mut parent_edge: Vec<Option<(usize, usize)>> = vec![None; n]; // (pred node, atom)
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = 1;
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            if *idx < adj[node].len() {
                let (next, atom) = adj[node][*idx];
                *idx += 1;
                match color[next] {
                    0 => {
                        color[next] = 1;
                        parent_edge[next] = Some((node, atom));
                        stack.push((next, 0));
                    }
                    1 => {
                        // Back edge `node → next` closes a cycle: walk
                        // parents from `node` back to `next`.
                        let mut atoms = vec![atom];
                        let mut cur = node;
                        while cur != next {
                            let (pred, a) =
                                parent_edge[cur].expect("gray node has a parent on the DFS path");
                            atoms.push(a);
                            cur = pred;
                        }
                        atoms.sort_unstable();
                        atoms.dedup();
                        return TheoryResult::Conflict(atoms);
                    }
                    _ => {}
                }
            } else {
                color[node] = 2;
                stack.pop();
            }
        }
    }
    TheoryResult::Consistent
}

/// Convenience for tests and the brute-force oracle: whether a set of
/// `(from, to)` pairs is acyclic.
pub fn orders_consistent(pairs: &[(EventId, EventId)]) -> bool {
    let edges: Vec<OrderEdge> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(from, to))| OrderEdge { from, to, atom: i })
        .collect();
    matches!(check_orders(&edges), TheoryResult::Consistent)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(pairs: &[(u32, u32)]) -> Vec<OrderEdge> {
        pairs
            .iter()
            .enumerate()
            .map(|(i, &(from, to))| OrderEdge { from, to, atom: i })
            .collect()
    }

    #[test]
    fn empty_is_consistent() {
        assert_eq!(check_orders(&[]), TheoryResult::Consistent);
    }

    #[test]
    fn chain_is_consistent() {
        assert_eq!(
            check_orders(&edges(&[(1, 2), (2, 3), (1, 3)])),
            TheoryResult::Consistent
        );
    }

    #[test]
    fn two_cycle_detected() {
        match check_orders(&edges(&[(1, 2), (2, 1)])) {
            TheoryResult::Conflict(atoms) => assert_eq!(atoms, vec![0, 1]),
            TheoryResult::Consistent => panic!("expected conflict"),
        }
    }

    #[test]
    fn three_cycle_detected_with_exact_atoms() {
        // Extra consistent edge (atom 3) must not appear in the core.
        match check_orders(&edges(&[(1, 2), (2, 3), (3, 1), (1, 4)])) {
            TheoryResult::Conflict(atoms) => assert_eq!(atoms, vec![0, 1, 2]),
            TheoryResult::Consistent => panic!("expected conflict"),
        }
    }

    #[test]
    fn self_loop_is_a_conflict() {
        match check_orders(&edges(&[(5, 5)])) {
            TheoryResult::Conflict(atoms) => assert_eq!(atoms, vec![0]),
            TheoryResult::Consistent => panic!("expected conflict"),
        }
    }

    #[test]
    fn diamond_is_consistent() {
        assert!(orders_consistent(&[(1, 2), (1, 3), (2, 4), (3, 4)]));
    }

    #[test]
    fn disconnected_components_checked_independently() {
        assert!(!orders_consistent(&[(1, 2), (10, 11), (11, 10)]));
    }
}
