//! One subject through the public `Canary` facade, from input to the
//! artifacts its workload asks for — the unit `verdict_s` sums.

use std::hint::black_box;
use std::time::{Duration, Instant};

use canary_core::Metrics;
use canary_detect::BugReport;
use canary_ir::Program;
use canary_report::RunManifest;

use crate::workloads::{Input, Subject};

/// What one subject's verdict cost and produced.
pub struct Verdict {
    /// Input to last artifact.
    pub total: Duration,
    /// The `Canary::analyze` share of `total`.
    pub analyze: Duration,
    /// The program the reports refer to, when it was parsed from text.
    pub parsed: Option<Program>,
    pub reports: Vec<BugReport>,
}

/// Runs one subject: parse and validate (`.cir` text only),
/// `Canary::analyze`, the serialized SARIF document, and with
/// `full_artifacts` the audit JSONL and OpenMetrics exports (the
/// witness replay runs inside `analyze` via `verify_witnesses`).
pub fn run(s: &Subject, manifest: &RunManifest, full_artifacts: bool) -> Result<Verdict, String> {
    let t0 = Instant::now();
    let parsed = match &s.input {
        Input::Text(text) => {
            let prog =
                canary_ir::parse_with(text, &s.canary.config().parse).map_err(|e| e.to_string())?;
            prog.validate().map_err(|e| e.to_string())?;
            Some(prog)
        }
        Input::Program(_) => None,
    };
    let prog = s.program(parsed.as_ref());
    let t1 = Instant::now();
    let outcome = s.canary.analyze(black_box(prog));
    let analyze = t1.elapsed();
    let m = &outcome.metrics;
    let manifest = with_timings(manifest, m);
    let sarif = canary_report::sarif_document(prog, &outcome.reports, &manifest);
    black_box(serde_json::to_string_pretty(&sarif).expect("SARIF is valid JSON"));
    if full_artifacts {
        black_box(m.audit.to_jsonl());
        black_box(m.to_registry().to_openmetrics());
    }
    let total = t0.elapsed();
    Ok(Verdict {
        total,
        analyze,
        parsed,
        reports: outcome.reports,
    })
}

/// `manifest` with the run's phase timings, as the CLI records them.
pub fn with_timings(manifest: &RunManifest, m: &Metrics) -> RunManifest {
    let mut manifest = manifest.clone();
    manifest.timings_ms = vec![
        ("dataflow".into(), m.t_dataflow.as_secs_f64() * 1e3),
        ("interference".into(), m.t_interference.as_secs_f64() * 1e3),
        ("detect".into(), m.t_detect.as_secs_f64() * 1e3),
    ];
    manifest
}

/// A canonical rendering of a subject's findings: two runs found the
/// same bugs with the same witnesses iff their renderings are equal.
pub fn findings(reports: &[BugReport]) -> String {
    reports
        .iter()
        .map(|r| {
            format!(
                "{} {}->{} inter={} path={:?} schedule={:?} guards={:?}\n",
                r.kind, r.source.0, r.sink.0, r.inter_thread, r.path, r.schedule, r.guards
            )
        })
        .collect()
}
