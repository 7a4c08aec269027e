//! Property-based tests: the CDCL(T) solver against a brute-force
//! oracle that enumerates Boolean assignments × total orders of events.

use proptest::prelude::*;

use canary_smt::{check, SmtResult, SolverOptions, SolverStats, TermId, TermPool};

const N_BOOLS: u32 = 4;
const N_EVENTS: u32 = 4;

/// A serializable formula shape proptest can generate; converted into a
/// pooled term afterwards.
#[derive(Clone, Debug)]
enum Shape {
    T,
    F,
    B(u32),
    O(u32, u32),
    Not(Box<Shape>),
    And(Vec<Shape>),
    Or(Vec<Shape>),
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    let leaf = prop_oneof![
        Just(Shape::T),
        Just(Shape::F),
        (0..N_BOOLS).prop_map(Shape::B),
        ((0..N_EVENTS), (0..N_EVENTS)).prop_map(|(a, b)| Shape::O(a, b)),
    ];
    leaf.prop_recursive(4, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(|s| Shape::Not(Box::new(s))),
            prop::collection::vec(inner.clone(), 1..4).prop_map(Shape::And),
            prop::collection::vec(inner, 1..4).prop_map(Shape::Or),
        ]
    })
}

fn build(pool: &mut TermPool, s: &Shape) -> TermId {
    match s {
        Shape::T => pool.tt(),
        Shape::F => pool.ff(),
        Shape::B(i) => pool.bool_atom(*i),
        Shape::O(a, b) => pool.order_lt(*a, *b),
        Shape::Not(x) => {
            let inner = build(pool, x);
            pool.not(inner)
        }
        Shape::And(xs) => {
            let parts: Vec<TermId> = xs.iter().map(|x| build(pool, x)).collect();
            pool.and(parts)
        }
        Shape::Or(xs) => {
            let parts: Vec<TermId> = xs.iter().map(|x| build(pool, x)).collect();
            pool.or(parts)
        }
    }
}

/// Brute force: exists a Boolean assignment and a permutation of events
/// satisfying the formula?
fn brute_force_sat(pool: &TermPool, t: TermId) -> bool {
    let perms = permutations(N_EVENTS as usize);
    for bools in 0..(1u32 << N_BOOLS) {
        let bval = |i: u32| bools >> i & 1 == 1;
        for perm in &perms {
            // position[e] = rank of event e in the total order
            let oval = |a: u32, b: u32| perm[a as usize] < perm[b as usize];
            if pool.eval(t, &bval, &oval) {
                return true;
            }
        }
    }
    false
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn go(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
        if k == items.len() {
            // invert: position of event e
            let mut pos = vec![0; items.len()];
            for (rank, &e) in items.iter().enumerate() {
                pos[e] = rank;
            }
            out.push(pos);
            return;
        }
        for i in k..items.len() {
            items.swap(k, i);
            go(items, k + 1, out);
            items.swap(k, i);
        }
    }
    let mut items: Vec<usize> = (0..n).collect();
    let mut out = Vec::new();
    go(&mut items, 0, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cdclt_matches_brute_force(shape in shape_strategy()) {
        let mut pool = TermPool::new();
        let t = build(&mut pool, &shape);
        let expected = brute_force_sat(&pool, t);
        let stats = SolverStats::default();
        let got = check(&pool, t, &SolverOptions::default(), &stats);
        prop_assert_eq!(got.is_sat(), expected, "term: {}", pool.render(t));
    }

    #[test]
    fn prefilter_is_sound(shape in shape_strategy()) {
        // With the prefilter off, results must be identical.
        let mut pool = TermPool::new();
        let t = build(&mut pool, &shape);
        let stats = SolverStats::default();
        let with = check(&pool, t, &SolverOptions::default(), &stats);
        let without = check(
            &pool,
            t,
            &SolverOptions { prefilter: false, ..SolverOptions::default() },
            &stats,
        );
        prop_assert_eq!(with, without);
    }

    #[test]
    fn negation_flips_at_least_one_direction(shape in shape_strategy()) {
        // t and ¬t cannot both be unsat.
        let mut pool = TermPool::new();
        let t = build(&mut pool, &shape);
        let nt = pool.not(t);
        let stats = SolverStats::default();
        let rt = check(&pool, t, &SolverOptions::default(), &stats);
        let rnt = check(&pool, nt, &SolverOptions::default(), &stats);
        prop_assert!(
            rt == SmtResult::Sat || rnt == SmtResult::Sat,
            "both t and not t unsat: {}",
            pool.render(t)
        );
    }

    #[test]
    fn conjunction_with_true_is_identity(shape in shape_strategy()) {
        let mut pool = TermPool::new();
        let t = build(&mut pool, &shape);
        let tt = pool.tt();
        let t2 = pool.and2(t, tt);
        prop_assert_eq!(t, t2);
    }
}
