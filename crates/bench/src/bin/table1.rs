//! Regenerates **Tbl. 1** of the paper: per-subject bug-hunting results
//! for the inter-thread use-after-free checker — Saber and Fsam report
//! volumes and FP rates versus Canary's #FP/#Reports — plus the summary
//! row (paper: Canary 15 reports / 26.67 % FP; Saber ≈9.9k and Fsam
//! ≈586 warnings at ≈100 % FP; NA where the 12-hour budget ran out).
//!
//! Knobs: `CANARY_BENCH_STMTS_PER_KLOC` (default 8),
//! `CANARY_BENCH_TIMEOUT_SECS` (default 60).

use std::time::Duration;

use canary_bench::{env_f64, render_table, run_baseline_uaf, run_canary_uaf, BaselineTool};
use canary_workloads::{generate, table1_suite, SuiteScale};

fn main() {
    let scale = SuiteScale {
        stmts_per_kloc: env_f64("CANARY_BENCH_STMTS_PER_KLOC", 8.0),
        ..SuiteScale::default()
    };
    let budget = Duration::from_secs_f64(env_f64("CANARY_BENCH_TIMEOUT_SECS", 60.0));
    println!(
        "# Tbl. 1 — inter-thread use-after-free hunting (timeout {}s)\n",
        budget.as_secs()
    );

    let mut rows = Vec::new();
    let mut canary_reports_total = 0usize;
    let mut canary_fp_total = 0usize;
    let mut canary_missed = 0usize;
    let mut saber_total = 0usize;
    let mut fsam_total = 0usize;
    for (i, spec) in table1_suite(scale).into_iter().enumerate() {
        let w = generate(&spec);
        let (_t, _b, canary) = run_canary_uaf(&w);
        let saber = run_baseline_uaf(&w, budget, BaselineTool::Saber);
        let fsam = run_baseline_uaf(&w, budget, BaselineTool::Fsam);
        let canary_n = canary.true_positives + canary.false_positives;
        canary_reports_total += canary_n;
        canary_fp_total += canary.false_positives;
        canary_missed += canary.missed;
        let fmt_baseline = |r: &Option<(usize, canary_workloads::Eval)>| -> (String, String) {
            match r {
                Some((n, eval)) => (format!("{:.2}%", eval.fp_rate()), format!("{n}")),
                None => ("NA".into(), "NA".into()),
            }
        };
        if let Some((n, _)) = &saber {
            saber_total += n;
        }
        if let Some((n, _)) = &fsam {
            fsam_total += n;
        }
        let (saber_fp, saber_n) = fmt_baseline(&saber);
        let (fsam_fp, fsam_n) = fmt_baseline(&fsam);
        rows.push(vec![
            format!("{}. {}", i + 1, spec.name),
            format!("{}", w.prog.stmt_count()),
            saber_fp,
            saber_n,
            fsam_fp,
            fsam_n,
            format!("{}", canary.false_positives),
            format!("{canary_n}"),
        ]);
        eprintln!("  done: {}", spec.name);
    }
    println!(
        "{}",
        render_table(
            &[
                "project",
                "stmts",
                "saber-FPrate",
                "saber-#Rep",
                "fsam-FPrate",
                "fsam-#Rep",
                "canary-#FP",
                "canary-#Rep",
            ],
            &rows
        )
    );
    let fp_rate = if canary_reports_total == 0 {
        0.0
    } else {
        canary_fp_total as f64 / canary_reports_total as f64 * 100.0
    };
    println!("## Summary (cf. Tbl. 1 / §7.2)");
    println!(
        "Canary: {canary_reports_total} reports, {canary_fp_total} FP \
         ({fp_rate:.2}% FP rate; paper: 15 reports, 26.67%), {canary_missed} seeded bugs missed"
    );
    println!("Saber:  {saber_total} warnings on finished subjects (paper: ~9.9k overall)");
    println!("Fsam:   {fsam_total} warnings on finished subjects (paper: ~586 overall)");

    // Self-check of the Tbl. 1 shape claims.
    let canary_matches_paper =
        canary_reports_total == 15 && canary_fp_total == 4 && canary_missed == 0;
    let volume_ordering = saber_total >= fsam_total && fsam_total >= canary_reports_total;
    println!(
        "shape check (Canary 15 reports / 4 FP / 0 missed; Saber ≥ Fsam ≥ Canary \
         report volume): {}",
        if canary_matches_paper && volume_ordering {
            "PASS"
        } else {
            "FAIL"
        }
    );
}
