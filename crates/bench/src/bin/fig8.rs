//! Regenerates **Fig. 8** of the paper: Canary's end-to-end scalability
//! for bug hunting — time and memory versus program size, with the
//! least-squares linear fits and R² statistics the paper reports
//! (time ≈ 0.0326·x + 25.4 min, R² = 0.83; memory ≈ 0.0193·x + 18.3 GB,
//! R² = 0.78 on the authors' testbed; the *shape* — near-linear growth
//! with R² around 0.8 — is the reproduced claim).
//!
//! Knobs: `CANARY_BENCH_STMTS_PER_KLOC` (default 8).

use canary_bench::{
    attribution_report, env_f64, linear_fit, phase_breakdown, render_table, run_canary_uaf_profiled,
};
use canary_workloads::{generate, table1_suite, SuiteScale};

fn main() {
    let scale = SuiteScale {
        stmts_per_kloc: env_f64("CANARY_BENCH_STMTS_PER_KLOC", 8.0),
        ..SuiteScale::default()
    };
    println!("# Fig. 8 — Canary bug-hunting scalability (full pipeline)\n");

    let mut rows = Vec::new();
    let mut time_pts: Vec<(f64, f64)> = Vec::new();
    let mut mem_pts: Vec<(f64, f64)> = Vec::new();
    let mut largest: Option<(String, usize, canary_core::Metrics)> = None;
    for spec in table1_suite(scale) {
        let w = generate(&spec);
        let (time, bytes, eval, metrics) = run_canary_uaf_profiled(&w);
        let x = w.prog.stmt_count() as f64;
        let t_ms = time.as_secs_f64() * 1000.0;
        let mem_mib = bytes as f64 / (1024.0 * 1024.0);
        time_pts.push((x, t_ms));
        mem_pts.push((x, mem_mib));
        rows.push(vec![
            spec.name.clone(),
            format!("{}", w.prog.stmt_count()),
            format!("{t_ms:.1}"),
            format!("{mem_mib:.2}"),
            format!("{}", eval.true_positives),
            format!("{}", eval.false_positives),
        ]);
        eprintln!("  done: {}", spec.name);
        let stmts = w.prog.stmt_count();
        if largest.as_ref().is_none_or(|(_, n, _)| *n < stmts) {
            largest = Some((spec.name.clone(), stmts, metrics));
        }
    }
    println!(
        "{}",
        render_table(
            &["subject", "stmts", "time(ms)", "mem(MiB)", "TP", "FP"],
            &rows
        )
    );

    let tf = linear_fit(&time_pts);
    let mf = linear_fit(&mem_pts);
    println!("## Fits (cf. Fig. 8: near-linear, R² ≈ 0.8)");
    println!(
        "time(ms) ≈ {:.5}·stmts + {:.2}   R² = {:.3}",
        tf.a, tf.b, tf.r2
    );
    println!(
        "mem(MiB) ≈ {:.6}·stmts + {:.3}   R² = {:.3}",
        mf.a, mf.b, mf.r2
    );
    let shape_holds = tf.r2 > 0.6 && mf.r2 > 0.6 && tf.a > 0.0 && mf.a > 0.0;
    println!(
        "shape check (positive slope, R² > 0.6 for both): {}",
        if shape_holds { "PASS" } else { "FAIL" }
    );

    // Drill-down on the largest subject: per-phase time split and the
    // hottest functions/SMT queries from the attribution profiles.
    if let Some((name, _stmts, m)) = largest {
        println!("\n## Pipeline breakdown — {name} (largest subject)");
        println!(
            "{}",
            render_table(
                &["phase", "wall(ms)", "tasks", "share(%)"],
                &phase_breakdown(&m)
            )
        );
        print!("{}", attribution_report(&m, 5));
    }

    // Solver-strategy ablation on a query-family-heavy subject: how
    // much of the detect phase the incremental back-end (shared-prefix
    // solving + UNSAT-core subsumption + memoization) recovers over
    // solving every query fresh.
    println!("\n## Solver-strategy ablation (query-family subject)");
    let fam = canary_bench::family_subject(4, 10, 6);
    let mut rows = Vec::new();
    for (label, strategy) in [
        ("fresh", canary_smt::SolverStrategy::Fresh),
        ("incremental", canary_smt::SolverStrategy::Incremental),
    ] {
        let mut cfg = canary_core::CanaryConfig::default();
        cfg.detect.solver.strategy = strategy;
        let outcome = canary_core::Canary::with_config(cfg).analyze(&fam);
        let d = &outcome.metrics.detect;
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", outcome.metrics.t_detect.as_secs_f64() * 1e3),
            format!("{}", d.queries),
            format!("{}", d.decisions),
            format!("{}", d.conflicts),
            format!("{}", d.theory_lemmas),
            format!("{}", d.memo_hits + d.core_subsumed),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "strategy",
                "detect(ms)",
                "queries",
                "decisions",
                "conflicts",
                "lemmas",
                "reused"
            ],
            &rows
        )
    );
}
