//! Brute-force differential for the strict partial-order theory.
//!
//! The theory checker says a set of oriented order edges is consistent
//! iff it is acyclic. Sequential consistency's ground truth is
//! different on its face: the edges must embed into some *total* order
//! of the events. For ≤ 6 events the totality side is enumerable — try
//! all permutations — so the two definitions can be compared verdict
//! for verdict, exhaustively on small event universes and
//! property-based beyond.

use canary_smt::theory::{check_orders, OrderEdge, TheoryResult};
use proptest::prelude::*;

/// Ground truth: does some permutation of the events place every edge
/// source before its destination?
fn embeds_in_total_order(edges: &[(u32, u32)]) -> bool {
    let mut events: Vec<u32> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
    events.sort_unstable();
    events.dedup();
    let n = events.len();
    assert!(n <= 6, "brute force is factorial; keep universes tiny");
    let mut perm: Vec<usize> = (0..n).collect();
    loop {
        let pos = |e: u32| {
            let i = events.binary_search(&e).expect("event interned");
            perm.iter().position(|&p| p == i).expect("permutation")
        };
        if edges.iter().all(|&(a, b)| pos(a) < pos(b)) {
            return true;
        }
        if !next_permutation(&mut perm) {
            return false;
        }
    }
}

/// Steps `perm` to its lexicographic successor; false after the last.
fn next_permutation(perm: &mut [usize]) -> bool {
    let n = perm.len();
    if n < 2 {
        return false;
    }
    let Some(i) = (0..n - 1).rev().find(|&i| perm[i] < perm[i + 1]) else {
        return false;
    };
    let j = (i + 1..n)
        .rev()
        .find(|&j| perm[j] > perm[i])
        .expect("exists");
    perm.swap(i, j);
    perm[i + 1..].reverse();
    true
}

fn as_edges(pairs: &[(u32, u32)]) -> Vec<OrderEdge> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, &(from, to))| OrderEdge { from, to, atom: i })
        .collect()
}

/// Compares the checker against brute force on one edge set and, on
/// conflicts, checks the reported core is itself cyclic.
fn check_against_brute(pairs: &[(u32, u32)]) {
    let truth = embeds_in_total_order(pairs);
    match check_orders(&as_edges(pairs)) {
        TheoryResult::Consistent => {
            assert!(
                truth,
                "checker said consistent, brute force disagrees: {pairs:?}"
            );
        }
        TheoryResult::Conflict(atoms) => {
            assert!(
                !truth,
                "checker said conflict, brute force disagrees: {pairs:?}"
            );
            let core: Vec<(u32, u32)> = atoms.iter().map(|&i| pairs[i]).collect();
            assert!(
                !embeds_in_total_order(&core),
                "conflict core {core:?} is not actually cyclic ({pairs:?})"
            );
        }
    }
}

/// All 2^6 subsets of the oriented pairs over 3 events.
#[test]
fn exhaustive_three_events() {
    let universe: Vec<(u32, u32)> = (0..3u32)
        .flat_map(|a| (0..3u32).filter(move |&b| b != a).map(move |b| (a, b)))
        .collect();
    assert_eq!(universe.len(), 6);
    for mask in 0u32..(1 << universe.len()) {
        let pairs: Vec<(u32, u32)> = universe
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask & (1 << i) != 0)
            .map(|(_, &p)| p)
            .collect();
        check_against_brute(&pairs);
    }
}

/// All 2^12 subsets of the oriented pairs over 4 events.
#[test]
fn exhaustive_four_events() {
    let universe: Vec<(u32, u32)> = (0..4u32)
        .flat_map(|a| (0..4u32).filter(move |&b| b != a).map(move |b| (a, b)))
        .collect();
    assert_eq!(universe.len(), 12);
    for mask in 0u32..(1 << universe.len()) {
        let pairs: Vec<(u32, u32)> = universe
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask & (1 << i) != 0)
            .map(|(_, &p)| p)
            .collect();
        check_against_brute(&pairs);
    }
}

/// Self-loops can never embed in a strict total order.
#[test]
fn self_loops_always_conflict() {
    for e in 0..6u32 {
        let pairs = [(e, e)];
        assert!(!embeds_in_total_order(&pairs));
        assert!(matches!(
            check_orders(&as_edges(&pairs)),
            TheoryResult::Conflict(_)
        ));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random edge multisets over up to 6 events: the checker's verdict
    /// must match the ∃-permutation brute force, and any conflict core
    /// must itself be cyclic.
    #[test]
    fn random_edge_sets_match_brute_force(
        pairs in proptest::collection::vec((0u32..6, 0u32..6), 0..14)
    ) {
        check_against_brute(&pairs);
    }
}
