//! The program-order constraints `Φ_po` (Eq. 4) carry one order atom
//! per covering pair of the kept order, not one per ordered pair. These
//! tests pin that reduction: it must be equisatisfiable with the
//! all-pairs encoding under any conjoined order literals and any
//! retention policy, and it must actually be the transitive reduction.

use std::collections::BTreeSet;

use proptest::prelude::*;

use canary_detect::constraints::{partial_order_constraints, partial_order_constraints_with};
use canary_ir::{parse, CallGraph, Label, OrderGraph, Program};
use canary_smt::{check, SolverOptions, TermId, TermPool};
use canary_workloads::{generate, WorkloadSpec};

/// SplitMix64: a small deterministic stream for subsets, masks and
/// probes drawn from one sampled seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn subject(shape: usize, seed: u64) -> Program {
    match shape {
        0 => generate(&WorkloadSpec::lean(seed)).prog,
        1 => generate(&WorkloadSpec::lean_locks(seed)).prog,
        2 => generate(&WorkloadSpec::litmus(seed)).prog,
        _ => canary_bench::family_subject(3, 8, 2),
    }
}

/// The all-pairs encoding: one atom for every ordered pair the policy
/// keeps, decided straight from `OrderGraph::happens_before`.
fn all_kept_pairs(
    pool: &mut TermPool,
    og: &OrderGraph<'_>,
    events: &BTreeSet<Label>,
    keep: &dyn Fn(Label, Label) -> bool,
) -> TermId {
    let evs: Vec<Label> = events.iter().copied().collect();
    let mut parts = Vec::new();
    for (i, &a) in evs.iter().enumerate() {
        for &b in &evs[i + 1..] {
            if og.happens_before(a, b) {
                if keep(a, b) {
                    parts.push(pool.order_lt(a.0, b.0));
                }
            } else if og.happens_before(b, a) && keep(b, a) {
                parts.push(pool.order_lt(b.0, a.0));
            }
        }
    }
    pool.and(parts)
}

fn sat(pool: &TermPool, t: TermId) -> bool {
    check(pool, t, &SolverOptions::default()).is_sat()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn covering_pairs_are_equisatisfiable_with_all_kept_pairs(
        seed in 0u64..16,
        shape in 0usize..4,
        draw in any::<u64>(),
    ) {
        let prog = subject(shape, seed);
        let cg = CallGraph::build(&prog);
        let og = OrderGraph::build(&prog, &cg);
        let labels: Vec<Label> = prog.labels().collect();
        let mut rng = Mix(draw);
        for _ in 0..32 {
            let size = 2 + rng.below(labels.len().min(24) - 1);
            let events: BTreeSet<Label> =
                (0..size).map(|_| labels[rng.below(labels.len())]).collect();
            // A random retention policy: each ordered pair is dropped
            // with probability 1/4, decided by a hash of the pair.
            let mask = rng.next();
            let keep = move |a: Label, b: Label| {
                !Mix(mask ^ ((u64::from(a.0) << 32) | u64::from(b.0)))
                    .next()
                    .is_multiple_of(4)
            };
            let evs: Vec<Label> = events.iter().copied().collect();
            let mut pool = TermPool::new();
            let all = all_kept_pairs(&mut pool, &og, &events, &keep);
            let po = partial_order_constraints_with(&mut pool, &og, &events, &keep);
            let probe: Vec<TermId> = (0..1 + rng.below(3))
                .map(|_| {
                    let (a, b) = (evs[rng.below(evs.len())], evs[rng.below(evs.len())]);
                    if a == b {
                        pool.tt()
                    } else {
                        pool.order_lt(a.0, b.0)
                    }
                })
                .collect();
            let probe = pool.and(probe);
            let with_all = pool.and2(all, probe);
            let with_po = pool.and2(po, probe);
            prop_assert_eq!(sat(&pool, with_all), sat(&pool, with_po));
            prop_assert!(
                pool.atoms_of(po).orders.len() <= pool.atoms_of(all).orders.len()
            );
        }
    }
}

#[test]
fn straight_line_chain_grounds_to_its_adjacent_pairs() {
    let k = 12;
    let mut src = String::from("fn main() { p = alloc o;");
    for _ in 1..k {
        src.push_str(" use p;");
    }
    src.push_str(" }");
    let prog = parse(&src).unwrap();
    let cg = CallGraph::build(&prog);
    let og = OrderGraph::build(&prog, &cg);
    let events: BTreeSet<Label> = prog.labels().collect();
    assert_eq!(events.len(), k);
    let mut pool = TermPool::new();
    let po = partial_order_constraints(&mut pool, &og, &events);
    let orders = pool.atoms_of(po).orders;
    let adjacent: Vec<(u32, u32)> = (0..k as u32 - 1).map(|i| (i, i + 1)).collect();
    assert_eq!(orders, adjacent);
}

#[test]
fn dropped_pair_is_ordered_only_through_a_kept_chain() {
    let prog = parse("fn main() { p = alloc o; free p; use p; }").unwrap();
    let cg = CallGraph::build(&prog);
    let og = OrderGraph::build(&prog, &cg);
    let events: BTreeSet<Label> = prog.labels().collect();
    let (l0, l1, l2) = (Label(0), Label(1), Label(2));

    // Dropping l0 < l2 leaves the chain l0 < l1 < l2, which still
    // orders the dropped pair.
    let mut pool = TermPool::new();
    let po = partial_order_constraints_with(&mut pool, &og, &events, &|a, b| (a, b) != (l0, l2));
    assert_eq!(pool.atoms_of(po).orders, [(0, 1), (1, 2)]);
    let reversed = pool.order_lt(2, 0);
    let t = pool.and2(po, reversed);
    assert!(!sat(&pool, t));

    // Dropping l0 < l1 leaves no chain between them: they may run in
    // either order, while both stay before l2.
    let mut pool = TermPool::new();
    let po = partial_order_constraints_with(&mut pool, &og, &events, &|a, b| (a, b) != (l0, l1));
    assert_eq!(pool.atoms_of(po).orders, [(0, 2), (1, 2)]);
    for (a, b) in [(0, 1), (1, 0)] {
        let probe = pool.order_lt(a, b);
        let t = pool.and2(po, probe);
        assert!(sat(&pool, t), "l{a} < l{b} must stay open");
    }
}
