//! Property-based tests: the CDCL(T) solver against a brute-force
//! oracle that enumerates Boolean assignments × total orders of events.

use proptest::prelude::*;

use canary_smt::{
    check, check_all_grouped, check_conjunction, check_witness_model, QueryCache, SmtResult,
    SolverOptions, SolverStrategy, TermId, TermPool,
};

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

    /// Every caller of the lazy CDCL(T) loop against the oracle: the
    /// prefiltered [`check`], the witness extractor (whose model must
    /// satisfy the term), the conjunct-wise [`check_conjunction`], and a
    /// query family `[t, ¬t, t ∧ cycle]` solved incrementally on one
    /// persistent solver with theory scopes per member.
    #[test]
    fn cdclt_matches_brute_force(shape in shape_strategy()) {
        let mut pool = TermPool::new();
        let t = build(&mut pool, &shape);
        let nt = pool.not(t);
        let expected = brute_force_sat(&pool, t);
        let got = check(&pool, t, &SolverOptions::default());
        prop_assert_eq!(got.is_sat(), expected, "term: {}", pool.render(t));

        let witness = check_witness_model(&pool, t);
        prop_assert_eq!(witness.is_some(), expected, "witness of {}", pool.render(t));
        if let Some(w) = witness {
            let bval = |i: u32| w.bools.binary_search(&(i, true)).is_ok();
            let rank = |e: u32| {
                w.events
                    .iter()
                    .position(|&x| x == e)
                    .expect("the witness orders every event of an order atom")
            };
            let oval = |a: u32, b: u32| rank(a) < rank(b);
            prop_assert!(pool.eval(t, &bval, &oval), "witness falsifies {}", pool.render(t));
        }

        let conj = check_conjunction(&pool, &pool.conjuncts_of(t));
        prop_assert_eq!(conj, expected, "conjuncts of {}", pool.render(t));

        // No generated term needs the order theory for its verdict, so
        // the family also gets `t` closed by an order cycle: only the
        // member's scoped theory check can refute that one.
        let o01 = pool.order_lt(0, 1);
        let o12 = pool.order_lt(1, 2);
        let o20 = pool.order_lt(2, 0);
        let cyclic = pool.and([t, o01, o12, o20]);
        let opts = SolverOptions {
            prefilter: false,
            strategy: SolverStrategy::Incremental,
            ..SolverOptions::default()
        };
        let family = check_all_grouped(
            &pool,
            &[t, nt, cyclic],
            &[0, 0, 0],
            &opts,
            &mut QueryCache::new(),
        );
        let verdicts: Vec<bool> = family.outcomes.iter().map(|o| o.result.is_sat()).collect();
        prop_assert_eq!(
            verdicts,
            vec![expected, brute_force_sat(&pool, nt), false],
            "family [t, not t, t and a cycle] of {}",
            pool.render(t)
        );
    }

    #[test]
    fn prefilter_is_sound(shape in shape_strategy()) {
        // With the prefilter off, results must be identical.
        let mut pool = TermPool::new();
        let t = build(&mut pool, &shape);
        let with = check(&pool, t, &SolverOptions::default());
        let without = check(
            &pool,
            t,
            &SolverOptions { prefilter: false, ..SolverOptions::default() },
        );
        prop_assert_eq!(with, without);
    }

    #[test]
    fn negation_flips_at_least_one_direction(shape in shape_strategy()) {
        // t and ¬t cannot both be unsat.
        let mut pool = TermPool::new();
        let t = build(&mut pool, &shape);
        let nt = pool.not(t);
        let rt = check(&pool, t, &SolverOptions::default());
        let rnt = check(&pool, nt, &SolverOptions::default());
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
