//! SAT-level property tests: the CDCL core against a reference DPLL on
//! random CNF instances, plus invariants of the incremental interface.

use proptest::prelude::*;

use canary_smt::{Lit, SatResult, SatSolver, Var};

type Cnf = Vec<Vec<i32>>;

fn cnf_strategy(max_vars: i32) -> impl Strategy<Value = Cnf> {
    let lit = (1..=max_vars).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]);
    let clause = prop::collection::vec(lit, 1..4);
    prop::collection::vec(clause, 0..24)
}

fn to_lits(clause: &[i32]) -> Vec<Lit> {
    clause
        .iter()
        .map(|&x| {
            let v = Var(x.unsigned_abs() - 1);
            if x > 0 {
                Lit::pos(v)
            } else {
                Lit::neg(v)
            }
        })
        .collect()
}

fn solver_for(n_vars: i32, cnf: &Cnf) -> SatSolver {
    let mut s = SatSolver::new();
    for _ in 0..n_vars {
        s.new_var();
    }
    for c in cnf {
        s.add_clause(&to_lits(c));
    }
    s
}

/// Reference: brute-force enumeration (≤ 2^10 assignments).
fn brute_force(n_vars: i32, cnf: &Cnf) -> bool {
    for bits in 0..(1u32 << n_vars) {
        let val = |x: i32| -> bool {
            let v = x.unsigned_abs() - 1;
            let b = bits >> v & 1 == 1;
            if x > 0 {
                b
            } else {
                !b
            }
        };
        if cnf.iter().all(|c| c.iter().any(|&l| val(l))) {
            return true;
        }
    }
    false
}

const N: i32 = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cdcl_matches_brute_force(cnf in cnf_strategy(N)) {
        let mut s = solver_for(N, &cnf);
        let expected = brute_force(N, &cnf);
        prop_assert_eq!(s.solve().is_sat(), expected, "{:?}", cnf);
    }

    #[test]
    fn models_satisfy_every_clause(cnf in cnf_strategy(N)) {
        let mut s = solver_for(N, &cnf);
        if let SatResult::Sat(model) = s.solve() {
            for c in &cnf {
                prop_assert!(
                    c.iter().any(|&x| {
                        let v = (x.unsigned_abs() - 1) as usize;
                        (x > 0) == model[v]
                    }),
                    "violated clause {:?} under {:?}",
                    c,
                    model
                );
            }
        }
    }

    #[test]
    fn solving_is_repeatable(cnf in cnf_strategy(N)) {
        let mut s = solver_for(N, &cnf);
        let a = s.solve().is_sat();
        let b = s.solve().is_sat();
        prop_assert_eq!(a, b, "second solve must agree");
    }

    #[test]
    fn incremental_equals_batch(cnf in cnf_strategy(N)) {
        // Adding clauses one by one with interleaved solves must end at
        // the same verdict as adding them all up front.
        let mut batch = solver_for(N, &cnf);
        let expected = batch.solve().is_sat();
        let mut inc = SatSolver::new();
        for _ in 0..N {
            inc.new_var();
        }
        let mut alive = true;
        for c in &cnf {
            alive = inc.add_clause(&to_lits(c)) && alive;
            let _ = inc.solve();
        }
        prop_assert_eq!(inc.solve().is_sat(), expected);
        let _ = alive;
    }

    #[test]
    fn assumptions_imply_unconditional_sat(cnf in cnf_strategy(N), seed in 0u32..256) {
        // If the formula is SAT under assumptions, it is SAT without them.
        let mut s = solver_for(N, &cnf);
        let assumptions: Vec<Lit> = (0..3)
            .map(|i| {
                let v = Var((seed >> (2 * i)) % N as u32);
                Lit::new(v, seed >> (6 + i) & 1 == 1)
            })
            .collect();
        let under = s.solve_with_assumptions(&assumptions).is_sat();
        let free = s.solve().is_sat();
        if under {
            prop_assert!(free, "assumption-SAT implies SAT");
        }
    }

    #[test]
    fn unsat_stays_unsat_under_more_clauses(cnf in cnf_strategy(N), extra in cnf_strategy(N)) {
        let mut s = solver_for(N, &cnf);
        if s.solve().is_sat() {
            return Ok(());
        }
        for c in &extra {
            s.add_clause(&to_lits(c));
        }
        prop_assert!(!s.solve().is_sat(), "UNSAT is monotone under strengthening");
    }
}
