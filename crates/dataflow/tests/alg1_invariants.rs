//! Property-based invariants of Algorithm 1 over generated workloads:
//! the inventory matches the program, definition anchors are correct,
//! and every guarded points-to entry is satisfiable on its own.

use proptest::prelude::*;

use canary_ir::{CallGraph, Inst, VarId};
use canary_smt::{check, SolverOptions, SolverStats, TermPool};
use canary_workloads::{generate, WorkloadSpec};

fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (0u64..400, 150usize..450, 1usize..4, 1usize..4).prop_map(|(seed, stmts, threads, cells)| {
        WorkloadSpec {
            name: format!("alg1-{seed}"),
            seed,
            target_stmts: stmts,
            threads,
            shared_cells: cells,
            true_bugs: 1,
            benign_patterns: 1,
            contradiction_patterns: 1,
            handshake_patterns: 1,
            order_fp_patterns: 1,
            double_free: 0,
            null_deref: 0,
            leak: 0,
            double_lock: 0,
            conflict_lock: 0,
            sb_patterns: 0,
            mp_patterns: 0,
            lb_patterns: 0,
            family_fanout: 0,
            hard_family_ratio: 0.0,
            filler: true,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn store_load_inventory_matches_program(spec in spec_strategy()) {
        let w = generate(&spec);
        let cg = CallGraph::build(&w.prog);
        let mut pool = TermPool::new();
        let df = canary_dataflow::run(&w.prog, &cg, &mut pool);
        let n_stores = w
            .prog
            .labels()
            .filter(|&l| matches!(w.prog.inst(l), Inst::Store { .. }))
            .count();
        let n_loads = w
            .prog
            .labels()
            .filter(|&l| matches!(w.prog.inst(l), Inst::Load { .. }))
            .count();
        prop_assert_eq!(df.stores.len(), n_stores);
        prop_assert_eq!(df.loads.len(), n_loads);
        // Every inventoried site points back at the right instruction.
        for s in &df.stores {
            let ok = matches!(
                w.prog.inst(s.label),
                Inst::Store { addr, src } if *addr == s.addr && *src == s.src
            );
            prop_assert!(ok, "store site mismatch at {}", s.label);
        }
        for l in &df.loads {
            let ok = matches!(
                w.prog.inst(l.label),
                Inst::Load { dst, addr } if *dst == l.dst && *addr == l.addr
            );
            prop_assert!(ok, "load site mismatch at {}", l.label);
        }
    }

    #[test]
    fn def_sites_anchor_at_definitions_or_param_entries(spec in spec_strategy()) {
        let w = generate(&spec);
        let cg = CallGraph::build(&w.prog);
        let mut pool = TermPool::new();
        let df = canary_dataflow::run(&w.prog, &cg, &mut pool);
        for (vi, anchor) in df.def_site.iter().enumerate() {
            let Some(l) = anchor else { continue };
            let v = VarId::new(vi as u32);
            let inst = w.prog.inst(*l);
            let is_def = inst.def() == Some(v);
            let func = w.prog.func_of(*l);
            let is_param_anchor = w.prog.func(func).params.contains(&v)
                && w.prog.func(func).labels().next() == Some(*l);
            prop_assert!(
                is_def || is_param_anchor,
                "anchor {l} of {v} is neither its def nor a param entry"
            );
        }
    }

    #[test]
    fn points_to_guards_are_individually_satisfiable(spec in spec_strategy()) {
        // insert_guarded drops false entries; anything surviving must be
        // satisfiable (or the entry could never hold and pollutes Pted).
        let w = generate(&spec);
        let cg = CallGraph::build(&w.prog);
        let mut pool = TermPool::new();
        let df = canary_dataflow::run(&w.prog, &cg, &mut pool);
        let opts = SolverOptions::default();
        let stats = SolverStats::default();
        let mut checked = 0;
        for set in &df.pgtop {
            for e in set {
                prop_assert!(
                    check(&pool, e.guard, &opts, &stats).is_sat(),
                    "unsatisfiable points-to guard"
                );
                checked += 1;
                if checked > 400 {
                    return Ok(()); // bound solver work per case
                }
            }
        }
    }

    #[test]
    fn path_conditions_of_reachable_code_are_satisfiable(spec in spec_strategy()) {
        let w = generate(&spec);
        let cg = CallGraph::build(&w.prog);
        let mut pool = TermPool::new();
        let df = canary_dataflow::run(&w.prog, &cg, &mut pool);
        let opts = SolverOptions::default();
        let stats = SolverStats::default();
        for (i, l) in w.prog.labels().enumerate() {
            if i % 7 != 0 {
                continue; // sample
            }
            let g = df.path_conds.guard(l);
            prop_assert!(
                check(&pool, g, &opts, &stats).is_sat(),
                "generated statements are all reachable, guard must be sat"
            );
        }
    }
}
