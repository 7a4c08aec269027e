//! Brute-force differential for lock-order cycle mining.
//!
//! The conflict-lock checker layers a lock-order graph over the strict
//! partial-order theory: nodes are lock alias classes, an edge a→b
//! records "holds a while acquiring b", and a deadlock candidate is a
//! directed cycle. The detector mines *every* cycle by iterating
//! `check_orders` and deleting each reported conflict core. Ground
//! truth is the ∃-permutation definition, enumerable for small class
//! universes: a set of acquisition edges is deadlock-free iff some
//! total acquisition order places every held class before the class it
//! acquires.

use canary_smt::theory::{check_orders, OrderEdge, TheoryResult};
use proptest::prelude::*;

/// Ground truth: does some permutation of the lock classes place every
/// edge's held class before its acquired class?
fn embeds_in_total_order(edges: &[(u32, u32)]) -> bool {
    let mut classes: Vec<u32> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
    classes.sort_unstable();
    classes.dedup();
    let n = classes.len();
    assert!(n <= 6, "brute force is factorial; keep universes tiny");
    let mut perm: Vec<usize> = (0..n).collect();
    loop {
        let pos = |e: u32| {
            let i = classes.binary_search(&e).expect("class interned");
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

/// Mirrors the detector's mining loop: ask the theory for a conflict
/// core, record it as one cycle, delete its atoms, repeat until the
/// remaining acquisition graph is consistent.
fn mine_cycles(pairs: &[(u32, u32)]) -> Vec<Vec<(u32, u32)>> {
    let mut edges: Vec<OrderEdge> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(from, to))| OrderEdge { from, to, atom: i })
        .collect();
    let mut cycles = Vec::new();
    loop {
        match check_orders(&edges) {
            TheoryResult::Consistent => return cycles,
            TheoryResult::Conflict(atoms) => {
                cycles.push(atoms.iter().map(|&a| pairs[a]).collect());
                edges.retain(|e| !atoms.contains(&e.atom));
            }
        }
    }
}

/// One edge set against brute force: cycles are mined iff no total
/// acquisition order exists, every mined cycle is itself un-embeddable,
/// and the graph minus all mined cycles is deadlock-free.
fn check_against_brute(pairs: &[(u32, u32)]) {
    let truth = embeds_in_total_order(pairs);
    let cycles = mine_cycles(pairs);
    assert_eq!(
        cycles.is_empty(),
        truth,
        "mining disagrees with ∃-permutation ground truth: {pairs:?} -> {cycles:?}"
    );
    let mut mined: Vec<(u32, u32)> = Vec::new();
    for cycle in &cycles {
        assert!(
            !embeds_in_total_order(cycle),
            "mined cycle {cycle:?} embeds in a total order ({pairs:?})"
        );
        mined.extend_from_slice(cycle);
    }
    // Deleting every mined cycle leaves a deadlock-free graph. Stated
    // over distinct edges — duplicates share one atom's fate only in
    // the mined-pair view, not in the per-atom loop above.
    let mut distinct = pairs.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() == pairs.len() {
        let residue: Vec<(u32, u32)> = pairs
            .iter()
            .filter(|p| !mined.contains(p))
            .copied()
            .collect();
        assert!(
            embeds_in_total_order(&residue),
            "after deleting mined cycles the graph must be deadlock-free: \
             {pairs:?} minus {mined:?} leaves {residue:?}"
        );
    }
}

/// All 2^6 acquisition-edge subsets over 3 lock classes.
#[test]
fn exhaustive_three_classes() {
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

/// All 2^12 acquisition-edge subsets over 4 lock classes.
#[test]
fn exhaustive_four_classes() {
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

/// The classic two-thread shape: a→b from one thread, b→a from the
/// other, mined as exactly one two-edge cycle.
#[test]
fn ab_ba_is_one_cycle() {
    let cycles = mine_cycles(&[(0, 1), (1, 0)]);
    assert_eq!(cycles.len(), 1);
    assert_eq!(cycles[0].len(), 2);
}

/// Self-acquisition (a→a, the double-lock shape at class granularity)
/// can never embed and is mined as a singleton cycle.
#[test]
fn self_acquisition_always_mined() {
    for c in 0..6u32 {
        let cycles = mine_cycles(&[(c, c)]);
        assert_eq!(cycles.len(), 1, "class {c}");
        assert_eq!(cycles[0], vec![(c, c)], "class {c}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random acquisition multigraphs over up to 6 classes: mining and
    /// the ∃-permutation brute force agree on deadlock-freedom, and
    /// every mined cycle is genuinely cyclic.
    #[test]
    fn random_acquisition_graphs_match_brute_force(
        pairs in proptest::collection::vec((0u32..6, 0u32..6), 0..14)
    ) {
        check_against_brute(&pairs);
    }
}
