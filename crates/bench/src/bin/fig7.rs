//! Regenerates **Fig. 7** of the paper: time (7a) and memory (7b) for
//! building the value-flow graph — Saber vs. Fsam vs. Canary — over the
//! twenty Tbl. 1 subjects ordered by program size, plus the headline
//! speedup summary of §7.1 ("on average >15×/180× faster, at most
//! >70×/>500×").
//!
//! Scaling knobs (environment):
//! * `CANARY_BENCH_STMTS_PER_KLOC` (default 8) — subject size scale;
//! * `CANARY_BENCH_TIMEOUT_SECS` (default 60) — the per-tool budget
//!   standing in for the paper's 12-hour limit.

use std::time::Duration;

use canary_bench::{
    attribution_report, env_f64, measure_canary_vfg, measure_front_end, measure_fsam_vfg,
    measure_saber_vfg, phase_breakdown, render_table, Measurement,
};
use canary_workloads::{generate, table1_suite, SuiteScale};

fn main() {
    let scale = SuiteScale {
        stmts_per_kloc: env_f64("CANARY_BENCH_STMTS_PER_KLOC", 8.0),
        ..SuiteScale::default()
    };
    let budget = Duration::from_secs_f64(env_f64("CANARY_BENCH_TIMEOUT_SECS", 60.0));
    println!(
        "# Fig. 7 — VFG construction: Saber vs Fsam vs Canary \
         (timeout {}s, {} stmts/KLoC)\n",
        budget.as_secs(),
        scale.stmts_per_kloc
    );

    let mut rows = Vec::new();
    let mut speedup_saber: Vec<f64> = Vec::new();
    let mut speedup_fsam: Vec<f64> = Vec::new();
    let mut saber_timeouts = 0;
    let mut fsam_timeouts = 0;
    let mut largest: Option<(String, canary_workloads::Workload)> = None;

    for (i, spec) in table1_suite(scale).into_iter().enumerate() {
        let w = generate(&spec);
        let canary = measure_canary_vfg(&w);
        let saber = measure_saber_vfg(&w, budget);
        let fsam = measure_fsam_vfg(&w, budget);
        if let (Some(ct), Some(st)) = (canary.time(), saber.time()) {
            speedup_saber.push(st.as_secs_f64() / ct.as_secs_f64().max(1e-9));
        }
        if let (Some(ct), Some(ft)) = (canary.time(), fsam.time()) {
            speedup_fsam.push(ft.as_secs_f64() / ct.as_secs_f64().max(1e-9));
        }
        if matches!(saber, Measurement::TimedOut) {
            saber_timeouts += 1;
        }
        if matches!(fsam, Measurement::TimedOut) {
            fsam_timeouts += 1;
        }
        rows.push(vec![
            format!("{}", i + 1),
            spec.name.clone(),
            format!("{}", w.prog.stmt_count()),
            saber.time_cell(),
            fsam.time_cell(),
            canary.time_cell(),
            saber.mem_cell(),
            fsam.mem_cell(),
            canary.mem_cell(),
        ]);
        eprintln!("  done: {}", spec.name);
        let bigger = largest
            .as_ref()
            .is_none_or(|(_, l)| l.prog.stmt_count() < w.prog.stmt_count());
        if bigger {
            largest = Some((spec.name.clone(), w));
        }
    }

    println!(
        "{}",
        render_table(
            &[
                "#", "subject", "stmts", "saber-t(s)", "fsam-t(s)", "canary-t(s)",
                "saber-MiB", "fsam-MiB", "canary-MiB",
            ],
            &rows,
        )
    );

    let avg = |v: &[f64]| -> f64 {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let max = |v: &[f64]| v.iter().copied().fold(0.0f64, f64::max);
    println!("## Summary (cf. §7.1)");
    println!(
        "Canary vs Saber: avg {:.1}x faster, max {:.1}x (on subjects Saber finished); \
         Saber timed out on {saber_timeouts}/20",
        avg(&speedup_saber),
        max(&speedup_saber)
    );
    println!(
        "Canary vs Fsam:  avg {:.1}x faster, max {:.1}x (on subjects Fsam finished); \
         Fsam timed out on {fsam_timeouts}/20",
        avg(&speedup_fsam),
        max(&speedup_fsam)
    );
    println!("Canary finished all 20 subjects.");

    // Self-check of the Fig. 7 shape claims.
    let canary_all = rows.iter().all(|r| r[5] != "NA");
    let baselines_struggle = saber_timeouts + fsam_timeouts > 0
        || (max(&speedup_saber) > 5.0 && max(&speedup_fsam) > 5.0);
    let fsam_never_outlasts_saber = fsam_timeouts >= saber_timeouts;
    println!(
        "shape check (Canary finishes all / baselines time out or trail badly / \
         Fsam dies no later than Saber): {}",
        if canary_all && baselines_struggle && fsam_never_outlasts_saber {
            "PASS"
        } else {
            "FAIL"
        }
    );

    // Drill-down on the largest subject: where Canary's front-end time
    // goes (phases) and which functions dominate Alg. 1.
    if let Some((name, w)) = largest {
        let m = measure_front_end(&w);
        println!("\n## Front-end breakdown — {name} (largest subject)");
        println!(
            "{}",
            render_table(&["phase", "wall(ms)", "tasks", "share(%)"], &phase_breakdown(&m))
        );
        print!("{}", attribution_report(&m, 5));
    }
}
