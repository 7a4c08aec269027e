//! # canary-bench
//!
//! Shared harness utilities for regenerating the paper's evaluation
//! artifacts (Fig. 7, Fig. 8, Tbl. 1): timed tool drivers over the
//! synthetic suite, least-squares fitting for the Fig. 8 scalability
//! curves, and plain-text table rendering.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::time::{Duration, Instant};

use canary_baselines::{fsam, saber, Budgeted, Deadline};
use canary_core::{Canary, CanaryConfig};
use canary_detect::{BugKind, DetectOptions};
use canary_ir::Label;
use canary_workloads::{evaluate, Eval, Workload};

/// One tool's measurement on one subject.
#[derive(Clone, Copy, Debug)]
pub enum Measurement {
    /// Completed: wall time and approximate peak bytes.
    Done {
        /// Wall-clock time.
        time: Duration,
        /// Approximate resident bytes of the analysis structures.
        bytes: usize,
    },
    /// Exceeded the budget (an `NA` cell).
    TimedOut,
}

impl Measurement {
    /// Renders seconds or `NA`.
    pub fn time_cell(&self) -> String {
        match self {
            Measurement::Done { time, .. } => format!("{:.2}", time.as_secs_f64()),
            Measurement::TimedOut => "NA".into(),
        }
    }

    /// Renders mebibytes or `NA`.
    pub fn mem_cell(&self) -> String {
        match self {
            Measurement::Done { bytes, .. } => {
                format!("{:.2}", *bytes as f64 / (1024.0 * 1024.0))
            }
            Measurement::TimedOut => "NA".into(),
        }
    }

    /// The time when finished.
    pub fn time(&self) -> Option<Duration> {
        match self {
            Measurement::Done { time, .. } => Some(*time),
            Measurement::TimedOut => None,
        }
    }
}

/// Canary's VFG construction (Alg. 1 + Alg. 2), timed.
pub fn measure_canary_vfg(w: &Workload) -> Measurement {
    let canary = Canary::new();
    let t0 = Instant::now();
    let (pool, _df, _ir, _cg, _ts, metrics) = canary.build_vfg(&w.prog);
    let time = t0.elapsed();
    // Guards live in the term pool; count them into the footprint.
    let bytes = metrics.vfg_bytes + pool.len() * 48;
    Measurement::Done { time, bytes }
}

/// Saber's VFG construction under a budget.
pub fn measure_saber_vfg(w: &Workload, budget: Duration) -> Measurement {
    let t0 = Instant::now();
    match saber::build_vfg(&w.prog, Deadline::after(budget)) {
        Budgeted::Done(r) => Measurement::Done {
            time: t0.elapsed(),
            bytes: r.pts.bytes + r.vfg.approx_bytes(),
        },
        Budgeted::TimedOut => Measurement::TimedOut,
    }
}

/// Fsam's VFG construction under a budget.
pub fn measure_fsam_vfg(w: &Workload, budget: Duration) -> Measurement {
    let t0 = Instant::now();
    match fsam::solve(&w.prog, Deadline::after(budget)) {
        Budgeted::Done(r) => Measurement::Done {
            time: t0.elapsed(),
            bytes: r.pts.bytes + r.state_bytes + r.vfg.approx_bytes(),
        },
        Budgeted::TimedOut => Measurement::TimedOut,
    }
}

/// The inter-thread-UAF configuration used throughout §7.2.
pub fn uaf_config() -> CanaryConfig {
    CanaryConfig {
        checkers: vec![BugKind::UseAfterFree],
        detect: DetectOptions {
            inter_thread_only: true,
            ..DetectOptions::default()
        },
        ..CanaryConfig::default()
    }
}

/// The VFG front-end (Alg. 1 + Alg. 2) on one subject, returning the
/// per-phase metrics.
pub fn measure_front_end(w: &Workload) -> canary_core::Metrics {
    let canary = Canary::with_config(uaf_config());
    let (_pool, _df, _ir, _cg, _ts, metrics) = canary.build_vfg(&w.prog);
    metrics
}

/// Canary's full pipeline on one subject: (time, bytes, eval).
pub fn run_canary_uaf(w: &Workload) -> (Duration, usize, Eval) {
    let (time, bytes, eval, _metrics) = run_canary_uaf_profiled(w);
    (time, bytes, eval)
}

/// [`run_canary_uaf`] keeping the full per-run [`canary_core::Metrics`]
/// — including the per-function and per-query attribution profiles —
/// for the Fig. 7/8 drill-down tables.
pub fn run_canary_uaf_profiled(w: &Workload) -> (Duration, usize, Eval, canary_core::Metrics) {
    let canary = Canary::with_config(uaf_config());
    let t0 = Instant::now();
    let outcome = canary.analyze(&w.prog);
    let time = t0.elapsed();
    let pairs: Vec<(Label, Label)> = outcome.reports.iter().map(|r| (r.source, r.sink)).collect();
    let eval = evaluate(&w.truth, &pairs);
    let bytes = outcome.metrics.vfg_bytes + outcome.metrics.term_count * 48;
    (time, bytes, eval, outcome.metrics)
}

/// Per-phase wall/task breakdown rows for [`render_table`] — the
/// "where does the time go" companion to Fig. 7a/8. Columns: phase,
/// wall(ms), tasks, share(%).
pub fn phase_breakdown(m: &canary_core::Metrics) -> Vec<Vec<String>> {
    let total = m.t_total().as_secs_f64().max(1e-9);
    let row = |name: &str, wall: Duration, tasks: String| {
        vec![
            name.to_string(),
            format!("{:.2}", wall.as_secs_f64() * 1e3),
            tasks,
            format!("{:.1}", 100.0 * wall.as_secs_f64() / total),
        ]
    };
    vec![
        row(
            "alg1 dataflow",
            m.t_dataflow,
            format!("{}", m.dataflow_tasks),
        ),
        row(
            "alg2 interference",
            m.t_interference,
            format!("{}", m.interference_tasks),
        ),
        row("detect+smt", m.t_detect, format!("{}", m.detect.queries)),
    ]
}

/// Renders the hottest-functions / hottest-queries attribution tables
/// from a run's profiles (empty string when no profiles were
/// collected). The ranking is deterministic — see
/// [`canary_core::Metrics::hottest_queries`].
pub fn attribution_report(m: &canary_core::Metrics, k: usize) -> String {
    let mut out = String::new();
    let funcs = m.hottest_functions(k);
    if !funcs.is_empty() {
        let rows: Vec<Vec<String>> = funcs
            .iter()
            .map(|p| {
                vec![
                    p.name.clone(),
                    format!("{}", p.stmt_visits),
                    format!("{}", p.summary_cells),
                    format!("{}", p.stores + p.loads),
                    format!("{:.2}", p.wall.as_secs_f64() * 1e3),
                ]
            })
            .collect();
        out.push_str("hottest functions (Alg. 1):\n");
        out.push_str(&render_table(
            &[
                "function",
                "stmt-visits",
                "summary-cells",
                "mem-sites",
                "wall(ms)",
            ],
            &rows,
        ));
    }
    let queries = m.hottest_queries(k);
    if !queries.is_empty() {
        let rows: Vec<Vec<String>> = queries
            .iter()
            .map(|p| {
                vec![
                    format!("{}", p.kind),
                    format!("{}->{}", p.source.0, p.sink.0),
                    format!("{}", p.path_len),
                    format!("{}", p.bool_atoms + p.order_atoms),
                    format!("{}", p.stats.decisions),
                    format!("{}", p.stats.conflicts),
                    if p.stats.prefiltered {
                        "prefilter".into()
                    } else if p.sat {
                        "sat".into()
                    } else {
                        "unsat".into()
                    },
                    format!("{:.2}", p.wall.as_secs_f64() * 1e3),
                ]
            })
            .collect();
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str("hottest SMT queries (§5):\n");
        out.push_str(&render_table(
            &[
                "kind",
                "src->sink",
                "path",
                "atoms",
                "decisions",
                "conflicts",
                "result",
                "wall(ms)",
            ],
            &rows,
        ));
    }
    out
}

/// A baseline's full UAF run: `None` on timeout.
pub fn run_baseline_uaf(
    w: &Workload,
    budget: Duration,
    tool: BaselineTool,
) -> Option<(usize, Eval)> {
    let deadline = Deadline::after(budget);
    let reports = match tool {
        BaselineTool::Saber => saber::check_uaf(&w.prog, deadline),
        BaselineTool::Fsam => fsam::check_uaf(&w.prog, deadline),
    };
    match reports {
        Budgeted::Done(rs) => {
            let pairs: Vec<(Label, Label)> = rs.iter().map(|r| (r.source, r.sink)).collect();
            Some((pairs.len(), evaluate(&w.truth, &pairs)))
        }
        Budgeted::TimedOut => None,
    }
}

/// Which baseline to drive.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BaselineTool {
    /// Flow-insensitive exhaustive (ISSTA 2012).
    Saber,
    /// Flow-sensitive multithreaded (CGO 2016).
    Fsam,
}

/// Least-squares linear fit `y ≈ a·x + b` with the coefficient of
/// determination R² — the Fig. 8 statistic.
#[derive(Clone, Copy, Debug)]
pub struct LinearFit {
    /// Slope.
    pub a: f64,
    /// Intercept.
    pub b: f64,
    /// Coefficient of determination.
    pub r2: f64,
}

/// Fits `y ≈ a·x + b`.
///
/// # Panics
///
/// Panics if fewer than two points are supplied.
pub fn linear_fit(points: &[(f64, f64)]) -> LinearFit {
    assert!(points.len() >= 2, "need at least two points to fit");
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    let a = if denom.abs() < f64::EPSILON {
        0.0
    } else {
        (n * sxy - sx * sy) / denom
    };
    let b = (sy - a * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = points.iter().map(|p| (p.1 - (a * p.0 + b)).powi(2)).sum();
    let r2 = if ss_tot.abs() < f64::EPSILON {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    LinearFit { a, b, r2 }
}

/// Renders an aligned plain-text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let hdr: Vec<String> = headers.iter().map(|s| (*s).to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// A query-family-heavy subject for the incremental-solver benchmarks:
/// per source, `stores` *guarded* stores publish a pointer into one
/// cell (one value-flow path — and so one query-family member — each),
/// the free and the use sit inside `locks` nested critical sections
/// (mutual-exclusion disjunctions shared by every member), and a
/// two-notify handshake makes the whole family unsatisfiable *through
/// the disjunctions* — invisible to the unit-cycle prefilter, so every
/// member needs real CDCL(T) search.
///
/// Under the fresh strategy each member replays that search from
/// scratch; the incremental back-end refutes the shared prefix once
/// and discharges the rest of the family by UNSAT-core subsumption.
/// This is the shape the paper's query clustering targets: many
/// candidate paths per source whose refutation has one common reason.
pub fn family_subject(sources: usize, stores: usize, locks: usize) -> canary_ir::Program {
    use std::fmt::Write as _;
    let mut s = String::from("fn main() {\n");
    for i in 0..sources {
        let _ = writeln!(s, "  c{i} = alloc d{i};\n  p{i} = alloc o{i};");
        for r in 0..locks {
            let _ = writeln!(s, "  m{i}x{r} = alloc mu{i}x{r};");
        }
        for k in 0..stores {
            let _ = writeln!(s, "  if (g{i}x{k}) {{ *c{i} = p{i}; }}");
        }
        let mlist: String = (0..locks).map(|r| format!(", m{i}x{r}")).collect();
        let _ = writeln!(s, "  cv{i} = alloc v{i};");
        let _ = writeln!(s, "  fork t{i} w{i}(c{i}, cv{i}{mlist});");
        let _ = writeln!(s, "  wait cv{i};");
        for r in 0..locks {
            let _ = writeln!(s, "  lock m{i}x{r};");
        }
        let _ = writeln!(s, "  free p{i};");
        for r in (0..locks).rev() {
            let _ = writeln!(s, "  unlock m{i}x{r};");
        }
    }
    s.push_str("}\n");
    for i in 0..sources {
        let llist: String = (0..locks).map(|r| format!(", l{r}")).collect();
        let _ = writeln!(s, "fn w{i}(a, cv{llist}) {{");
        s.push_str("  x = *a;\n");
        for r in 0..locks {
            let _ = writeln!(s, "  lock l{r};");
        }
        s.push_str("  use x;\n");
        for r in (0..locks).rev() {
            let _ = writeln!(s, "  unlock l{r};");
        }
        s.push_str("  notify cv;\n  notify cv;\n}\n");
    }
    let prog = canary_ir::parse(&s).expect("family subject parses");
    prog.validate().expect("family subject validates");
    prog
}

/// Reads a scaling knob from the environment with a default, so the
/// figure binaries adapt to slow machines:
/// `CANARY_BENCH_STMTS_PER_KLOC`, `CANARY_BENCH_TIMEOUT_SECS`.
pub fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_recovers_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10)
            .map(|i| (f64::from(i), 3.0 * f64::from(i) + 2.0))
            .collect();
        let fit = linear_fit(&pts);
        assert!((fit.a - 3.0).abs() < 1e-9);
        assert!((fit.b - 2.0).abs() < 1e-9);
        assert!((fit.r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_r2_degrades_with_noise() {
        let pts = vec![(0.0, 0.0), (1.0, 10.0), (2.0, 0.0), (3.0, 10.0)];
        let fit = linear_fit(&pts);
        assert!(fit.r2 < 0.9);
    }

    #[test]
    fn render_table_aligns_columns() {
        let t = render_table(
            &["name", "time"],
            &[
                vec!["a".into(), "1.00".into()],
                vec!["longer".into(), "NA".into()],
            ],
        );
        assert!(t.contains("name"));
        assert!(t.contains("NA"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn measurement_cells() {
        let m = Measurement::Done {
            time: Duration::from_millis(1500),
            bytes: 2 * 1024 * 1024,
        };
        assert_eq!(m.time_cell(), "1.50");
        assert_eq!(m.mem_cell(), "2.00");
        assert_eq!(Measurement::TimedOut.time_cell(), "NA");
        assert!(m.time().is_some());
        assert!(Measurement::TimedOut.time().is_none());
    }

    #[test]
    fn tools_agree_on_tiny_workload() {
        use canary_workloads::{generate, WorkloadSpec};
        let w = generate(&WorkloadSpec::small(5));
        let c = measure_canary_vfg(&w);
        assert!(c.time().is_some());
        let s = measure_saber_vfg(&w, Duration::from_secs(30));
        assert!(s.time().is_some());
        let f = measure_fsam_vfg(&w, Duration::from_secs(30));
        assert!(f.time().is_some());
    }

    #[test]
    fn canary_uaf_run_finds_seeded_bugs() {
        use canary_workloads::{generate, WorkloadSpec};
        let w = generate(&WorkloadSpec::small(6));
        let (_t, bytes, eval) = run_canary_uaf(&w);
        assert!(bytes > 0);
        assert_eq!(eval.missed, 0);
    }

    #[test]
    fn baseline_uaf_reports_more_than_canary() {
        use canary_workloads::{generate, WorkloadSpec};
        let w = generate(&WorkloadSpec::small(8));
        let (_t, _b, canary_eval) = run_canary_uaf(&w);
        let (saber_reports, saber_eval) =
            run_baseline_uaf(&w, Duration::from_secs(60), BaselineTool::Saber)
                .expect("small subject fits the budget");
        let canary_total = canary_eval.true_positives + canary_eval.false_positives;
        assert!(
            saber_reports >= canary_total,
            "saber {saber_reports} vs canary {canary_total}"
        );
        assert!(saber_eval.fp_rate() >= canary_eval.fp_rate());
    }
}
