//! Scans a slice of the synthetic Tbl. 1 suite with Canary and the two
//! baselines, printing a miniature of the paper's precision comparison
//! (§7.2). Demonstrates the `canary-workloads` generator API and the
//! ground-truth scoring.
//!
//! ```sh
//! cargo run --release --example suite_scan
//! ```

use std::time::Duration;

use canary::{Canary, CanaryConfig};
use canary_baselines::{saber, Budgeted, Deadline};
use canary_detect::{BugKind, DetectOptions};
use canary_ir::Label;
use canary_workloads::{evaluate, generate, table1_suite, SuiteScale};

fn main() {
    let scale = SuiteScale {
        stmts_per_kloc: 1.5,
        min_stmts: 200,
        max_stmts: 4000,
    };
    let canary = Canary::with_config(CanaryConfig {
        checkers: vec![BugKind::UseAfterFree],
        detect: DetectOptions {
            inter_thread_only: true,
            ..DetectOptions::default()
        },
        ..CanaryConfig::default()
    });

    println!("subject        stmts  canary(TP/FP/miss)  saber(#rep, FP%)");
    println!("------------------------------------------------------------");
    for spec in table1_suite(scale).into_iter().take(8) {
        let w = generate(&spec);
        let outcome = canary.analyze(&w.prog);
        let pairs: Vec<(Label, Label)> =
            outcome.reports.iter().map(|r| (r.source, r.sink)).collect();
        let ce = evaluate(&w.truth, &pairs);
        let saber_cell = match saber::check_uaf(&w.prog, Deadline::after(Duration::from_secs(20))) {
            Budgeted::Done(rs) => {
                let se = evaluate(
                    &w.truth,
                    &rs.iter().map(|r| (r.source, r.sink)).collect::<Vec<_>>(),
                );
                format!("{:>4}  {:>6.1}%", rs.len(), se.fp_rate())
            }
            Budgeted::TimedOut => "  NA      NA".to_string(),
        };
        println!(
            "{:<13} {:>6}        {}/{}/{}        {}",
            spec.name,
            w.prog.stmt_count(),
            ce.true_positives,
            ce.false_positives,
            ce.missed,
            saber_cell,
        );
    }
    println!("\n(Canary reports the seeded bugs plus only the benign-pattern");
    println!(" false positives; the unguarded baseline reports every");
    println!(" graph-reachable pair.)");
}
