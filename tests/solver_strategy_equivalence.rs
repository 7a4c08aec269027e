//! The solver-strategy equivalence contract: `--solver-strategy
//! incremental` (query families, UNSAT-core subsumption, memoization)
//! must be a pure optimization — identical reports, an identical
//! sat/unsat verdict for every query, and identical `--json` output
//! once the fields a strategy is *allowed* to change are normalized
//! away: wall times, and the CDCL work counters (decisions, conflicts,
//! propagations, learned clauses, theory lemmas), which necessarily
//! differ when solver state is reused across queries.
//!
//! Layers:
//!
//! 1. a property test (16 cases) over random `canary-workloads`
//!    programs comparing full outcomes fresh vs incremental, at one
//!    and at four solver threads;
//! 2. the same comparison on the benchmark's two query-family
//!    subjects, which also bounds the incremental CDCL work;
//! 3. a CLI-level `--json` comparison on a concrete program.

use canary::{AnalysisOutcome, Canary, CanaryConfig};
use canary_smt::SolverStrategy;
use canary_workloads::{generate, WorkloadSpec};
use proptest::prelude::*;

fn with_strategy(strategy: SolverStrategy, solver_threads: usize) -> Canary {
    let mut config = CanaryConfig::default();
    config.detect.solver.strategy = strategy;
    config.detect.solver.num_threads = solver_threads;
    config.detect.explain_refutations = true;
    Canary::with_config(config)
}

/// Canonical JSON for everything a solving strategy must NOT change:
/// reports (with witness schedules), refutation cores, per-query
/// verdicts, and the strategy-invariant counters (`queries`,
/// `prefiltered`, `confirmed`, `candidate_paths`).
fn canonical_json(outcome: &AnalysisOutcome) -> String {
    let reports: Vec<serde_json::Value> = outcome
        .reports
        .iter()
        .map(|r| {
            serde_json::json!({
                "kind": r.kind.to_string(),
                "source": r.source.0,
                "sink": r.sink.0,
                "inter_thread": r.inter_thread,
                "path": r.path,
                "constraint": r.constraint,
                "schedule": r.schedule.iter().map(|l| l.0).collect::<Vec<u32>>(),
                "guards": r.guards.iter().map(|&(c, v)| format!("c{}={v}", c.0)).collect::<Vec<String>>(),
            })
        })
        .collect();
    let verdicts: Vec<serde_json::Value> = outcome
        .metrics
        .query_profiles
        .iter()
        .map(|p| {
            serde_json::json!({
                "kind": p.kind.to_string(),
                "source": p.source.0,
                "sink": p.sink.0,
                "path_len": p.path_len,
                "sat": p.sat,
                "prefiltered": p.stats.prefiltered,
            })
        })
        .collect();
    let m = &outcome.metrics;
    let doc = serde_json::json!({
        "reports": reports,
        "verdicts": verdicts,
        "refuted": outcome.refuted.iter().map(|r| {
            serde_json::json!({
                "kind": r.kind.to_string(),
                "source": r.source.0,
                "sink": r.sink.0,
                "core": r.core,
            })
        }).collect::<Vec<_>>(),
        "candidate_paths": m.detect.candidate_paths,
        "queries": m.detect.queries,
        "confirmed": m.detect.confirmed,
        "prefiltered": m.detect.prefiltered,
    });
    serde_json::to_string_pretty(&doc).expect("valid json")
}

fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (
        0u64..1000,
        150usize..500,
        1usize..4,
        1usize..5,
        0usize..3,
        0usize..3,
        0usize..3,
        0usize..2,
    )
        .prop_map(
            |(seed, stmts, threads, cells, bugs, benign, contra, df)| WorkloadSpec {
                name: format!("strat-eq-{seed}"),
                seed,
                target_stmts: stmts,
                threads,
                shared_cells: cells,
                true_bugs: bugs,
                benign_patterns: benign,
                contradiction_patterns: contra,
                handshake_patterns: 1,
                order_fp_patterns: 1,
                double_free: df,
                null_deref: 1,
                leak: 0,
                double_lock: 0,
                conflict_lock: 0,
                sb_patterns: 0,
                mp_patterns: 0,
                lb_patterns: 0,
                family_fanout: 0,
                hard_family_ratio: 0.0,
                filler: true,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn incremental_matches_fresh_on_random_workloads(spec in spec_strategy()) {
        let w = generate(&spec);
        let fresh = with_strategy(SolverStrategy::Fresh, 1).analyze(&w.prog);
        let incr = with_strategy(SolverStrategy::Incremental, 1).analyze(&w.prog);
        prop_assert_eq!(canonical_json(&fresh), canonical_json(&incr));
        // The incremental strategy stays deterministic under parallel
        // family solving, and equivalent to fresh there too.
        let incr_par = with_strategy(SolverStrategy::Incremental, 4).analyze(&w.prog);
        prop_assert_eq!(canonical_json(&incr), canonical_json(&incr_par));
    }
}

#[test]
fn incremental_saves_solver_work_on_query_family_subjects() {
    // The two query-family subjects of the `hard-families` benchmark
    // workload: every member is refuted through the same lock and
    // handshake disjunctions, so the incremental back-end must reach
    // the fresh verdicts with at most 70% of its CDCL work.
    for (sources, stores, locks) in [(4, 10, 6), (6, 16, 4)] {
        let prog = canary_bench::family_subject(sources, stores, locks);
        let fresh = with_strategy(SolverStrategy::Fresh, 1).analyze(&prog);
        let incremental = with_strategy(SolverStrategy::Incremental, 1).analyze(&prog);
        assert_eq!(canonical_json(&fresh), canonical_json(&incremental));
        let work = |o: &AnalysisOutcome| o.metrics.detect.decisions + o.metrics.detect.conflicts;
        assert!(
            10 * work(&incremental) <= 7 * work(&fresh),
            "family_subject({sources}, {stores}, {locks}): incremental {} vs fresh {}",
            work(&incremental),
            work(&fresh)
        );
    }
}

/// Byte-level check on a concrete program via the CLI: `--json` output
/// must agree across strategies after normalizing wall-time fields and
/// the per-strategy solver work counters.
#[test]
fn cli_json_agrees_across_strategies_modulo_timing() {
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/fig2_variant.cir");
    let run = |strategy: &str| -> serde_json::Value {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_canary"))
            .arg(&src)
            .arg("--json")
            .arg("--solver-strategy")
            .arg(strategy)
            .output()
            .expect("run canary");
        serde_json::from_slice(&out.stdout).expect("valid json")
    };
    fn null_out(rec: &mut serde_json::Value, keys: &[&str]) {
        let serde_json::Value::Object(map) = rec else {
            panic!("expected object, got {rec:?}");
        };
        for key in keys {
            map.insert((*key).to_string(), serde_json::Value::Null);
        }
    }
    let normalize = |mut doc: serde_json::Value| -> serde_json::Value {
        let serde_json::Value::Object(top) = &mut doc else {
            panic!("expected object document");
        };
        let m = top.get_mut("metrics").expect("metrics block");
        null_out(m, &["strategy"]);
        let serde_json::Value::Object(m) = m else {
            unreachable!()
        };
        if let Some(registry) = m.get_mut("registry") {
            // Cross-strategy comparison: zero the volatile families and
            // the strategy-sensitive `canary_solver_*` work counters.
            canary_trace::metrics::normalize_registry_json(registry, true);
        }
        if let Some(serde_json::Value::Array(qs)) = m.get_mut("hot_queries") {
            for q in qs.iter_mut() {
                null_out(
                    q,
                    &[
                        "wall_ms",
                        "decisions",
                        "conflicts",
                        "propagations",
                        "learned",
                        "theory_lemmas",
                        "memo_hit",
                        "core_subsumed",
                        "incremental",
                    ],
                );
            }
            // The hot-query table is ranked by CDCL work, which a
            // strategy may legitimately change; compare as a set.
            qs.sort_by_key(|q| serde_json::to_string(q).unwrap());
        }
        if let Some(serde_json::Value::Array(fs)) = m.get_mut("hot_functions") {
            for f in fs {
                null_out(f, &["wall_ms"]);
            }
        }
        doc
    };
    let fresh = run("fresh");
    let incr = run("incremental");
    assert_eq!(
        fresh["metrics"]["strategy"], "fresh",
        "strategy flag reaches the metrics block"
    );
    assert_eq!(incr["metrics"]["strategy"], "incremental");
    assert_eq!(
        serde_json::to_string_pretty(&normalize(fresh)).unwrap(),
        serde_json::to_string_pretty(&normalize(incr)).unwrap(),
        "--json differs across strategies beyond timing + work counters"
    );
}
