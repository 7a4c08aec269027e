//! The repository benchmark: time to verdict, memory and correctness
//! for one workload per process.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload scale-sweep --seed 0 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` times every subject through the `Canary` facade and
//! prints the end-to-end metrics; `--trace 1` runs the same subjects
//! through the layers' public entry points with spans around each call
//! and prints the per-layer metrics, writing a Chrome trace next to
//! them. Either way every verdict is checked against answers the
//! analyzer did not produce, and the last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod layers;
mod pass;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use canary_report::RunManifest;
use canary_trace::Tracer;

use crate::layers::Totals;
use crate::workloads::{Input, Subject, Workload};

/// Set-ups per `--trace 0` run — at least this many, and more until
/// `SETUP_SECONDS` have gone into them; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const SETUP_SECONDS: f64 = 5.0;
/// Passes measured even when one pass outlasts `--seconds`.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `f`, turning a panic into an error so one subject cannot end
/// the run.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

/// A workload ready to measure: subjects, their digests and SARIF
/// manifests, and what the warm-up pass established about each.
struct Prepared {
    w: Workload,
    digests: Vec<String>,
    manifests: Vec<RunManifest>,
    /// Findings of the warm-up pass, which later passes must repeat.
    reference: Vec<Option<String>>,
    /// Why each subject's verdict is wrong (empty when it is right).
    wrong: Vec<Vec<String>>,
    setup_s: Vec<f64>,
}

/// Generates the inputs and runs a warm-up pass (timed as set-up, not
/// as a verdict), at least `reps` times and until `seconds` have gone
/// into it; each set-up's time excludes only the digests.
fn setup(args: &Args, reps: usize, seconds: f64) -> Result<Prepared, String> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut last = None;
    while setup_s.len() < reps.max(1) || setup_s.iter().sum::<f64>() < seconds {
        drop(last.take());
        let t = Instant::now();
        let w = workloads::build(&args.workload, args.seed)?;
        let generate = t.elapsed();
        let digests: Vec<String> = w.subjects.iter().map(workloads::digest).collect();
        let manifests: Vec<RunManifest> = w
            .subjects
            .iter()
            .zip(&digests)
            .map(|(s, d)| workloads::manifest(s, d))
            .collect();
        let t = Instant::now();
        let warm: Vec<_> = w
            .subjects
            .iter()
            .zip(&manifests)
            .map(|(s, m)| guarded(|| pass::run(s, m, w.full_artifacts)))
            .collect();
        setup_s.push((generate + t.elapsed()).as_secs_f64());
        last = Some((w, digests, manifests, warm));
    }
    let (w, digests, manifests, warm) = last.expect("at least one set-up");
    let mut reference = Vec::new();
    let mut wrong = Vec::new();
    for (s, v) in w.subjects.iter().zip(warm) {
        match v {
            Ok(v) => {
                wrong.push(workloads::judge(
                    s,
                    s.program(v.parsed.as_ref()),
                    &v.reports,
                ));
                reference.push(Some(pass::findings(&v.reports)));
            }
            Err(e) => {
                wrong.push(vec![e]);
                reference.push(None);
            }
        }
    }
    Ok(Prepared {
        w,
        digests,
        manifests,
        reference,
        wrong,
        setup_s,
    })
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// The `p` quantile by linear interpolation at rank `p·(n+1)`, the
/// method of Python's `statistics.quantiles`.
fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let h = (p * (s.len() + 1) as f64).clamp(1.0, s.len() as f64);
    let lo = h.floor() as usize;
    let hi = lo.min(s.len() - 1);
    s[lo - 1] + (h - lo as f64) * (s[hi] - s[lo - 1])
}

/// Correctness tally over every verdict the measured passes produced.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// First reason each failing subject was wrong, by subject index.
    reasons: BTreeMap<usize, String>,
}

impl Tally {
    fn record(&mut self, p: &Prepared, i: usize, outcome: Result<String, String>) {
        self.attempted += 1;
        let reason = match outcome {
            _ if !p.wrong[i].is_empty() => Some(p.wrong[i].join("; ")),
            Err(e) => Some(e),
            Ok(f) if p.reference[i].as_deref() != Some(f.as_str()) => {
                Some("findings differ from the warm-up pass".to_string())
            }
            Ok(_) => None,
        };
        if let Some(r) = reason {
            self.failed += 1;
            self.reasons.entry(i).or_insert(r);
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let p = if args.trace {
        setup(args, 1, 0.0)?
    } else {
        setup(args, MIN_SETUPS, SETUP_SECONDS)?
    };
    let stmts: usize = p.w.subjects.iter().map(stmt_count).sum();
    let digest = canary_report::content_hash(p.digests.join("\n").as_bytes());
    eprintln!(
        "perfbench: workload {} seed {}: {} subjects, {stmts} statements, input digest {digest}",
        p.w.name,
        args.seed,
        p.w.subjects.len()
    );
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let m = if args.trace {
        measure_traced(args, &p, deadline)?
    } else {
        measure(&p, deadline)
    };
    let tally = &m.tally;
    for (i, r) in &tally.reasons {
        eprintln!("perfbench: wrong verdict on {}: {r}", p.w.subjects[*i].name);
    }
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    eprintln!(
        "perfbench: {} passes, {} subject verdicts timed, {} failed (failed_frac {failed_frac})",
        m.passes, m.samples, tally.failed
    );
    write_details(args, &p, &digest, &m)?;
    let body: Vec<String> = m
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    ))
}

fn stmt_count(s: &Subject) -> usize {
    match &s.input {
        Input::Program(p) => p.stmt_count(),
        Input::Text(t) => canary_ir::parse(t).map_or(0, |p| p.stmt_count()),
    }
}

type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// What a run measured.
struct Measured {
    tally: Tally,
    /// Metric name to value and unit.
    metrics: Metrics,
    passes: usize,
    /// Subject verdicts timed.
    samples: usize,
    /// Per-subject verdict times in milliseconds (untraced runs only).
    subject_ms: Vec<Vec<f64>>,
    /// Each pass's `verdict_s` (untraced runs only).
    pass_s: Vec<f64>,
}

/// The untraced run: whole passes over every subject through the
/// facade until `deadline`, then the end-to-end metrics.
fn measure(p: &Prepared, deadline: Instant) -> Measured {
    let mut tally = Tally::default();
    let (mut verdict_s, mut analyze_s) = (Vec::new(), Vec::new());
    let mut subject_ms = vec![Vec::new(); p.w.subjects.len()];
    while verdict_s.len() < MIN_PASSES || Instant::now() < deadline {
        let (mut verdict, mut analyze) = (0.0, 0.0);
        for (i, s) in p.w.subjects.iter().enumerate() {
            let v = guarded(|| pass::run(s, &p.manifests[i], p.w.full_artifacts));
            let findings = v.map(|v| {
                verdict += v.total.as_secs_f64();
                analyze += v.analyze.as_secs_f64();
                subject_ms[i].push(v.total.as_secs_f64() * 1e3);
                pass::findings(&v.reports)
            });
            tally.record(p, i, findings);
        }
        verdict_s.push(verdict);
        analyze_s.push(analyze);
    }
    // A subject's time to verdict is its median over the passes; the
    // percentiles are taken across subjects, since percentiles of the
    // pooled samples fall on the edge between two subjects' groups and
    // read an extreme sample of one of them.
    let per_subject: Vec<f64> = subject_ms
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| median(v))
        .collect();
    let metrics = Metrics::from([
        ("setup_s", (median(&p.setup_s), "s")),
        ("verdict_s", (median(&verdict_s), "s")),
        ("analyze_s", (median(&analyze_s), "s")),
        ("verdict_p50_ms", (percentile(&per_subject, 0.5), "ms")),
        ("verdict_p90_ms", (percentile(&per_subject, 0.9), "ms")),
        (
            "peak_rss_mib",
            (
                canary_trace::metrics::peak_rss_bytes() as f64 / (1024.0 * 1024.0),
                "MiB",
            ),
        ),
    ]);
    Measured {
        tally,
        metrics,
        passes: verdict_s.len(),
        samples: subject_ms.iter().map(Vec::len).sum(),
        subject_ms,
        pass_s: verdict_s,
    }
}

/// Every per-layer time metric: self time of the spans of that name,
/// summed over subjects, median over passes.
const SPAN_METRICS: [&str; 20] = [
    "ir.parse_s",
    "ir.validate_s",
    "ir.callgraph_s",
    "ir.threads_s",
    "ir.mhp_s",
    "dataflow.alg1_s",
    "interference.alg2_s",
    "detect.context_s",
    "detect.uaf_s",
    "detect.double_free_s",
    "detect.null_deref_s",
    "detect.data_leak_s",
    "detect.double_lock_s",
    "detect.conflict_lock_s",
    "detect.dedup_s",
    "report.sarif_s",
    "trace.openmetrics_s",
    "detect.audit_jsonl_s",
    "oracle.replay_s",
    layers::ANALYZE_SPAN,
];

/// The traced run: each pass analyzes every subject twice — through
/// the facade (untraced, timed as a whole) and composed from the
/// layers' entry points with a span around each call — in alternating
/// order, aborts if the two disagree, and exports the artifacts inside
/// spans. Ends with the per-layer metrics and a Chrome trace of the
/// last pass.
fn measure_traced(args: &Args, p: &Prepared, deadline: Instant) -> Result<Measured, String> {
    let mut tally = Tally::default();
    let mut times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut counts = Totals::new();
    let mut last = None;
    let mut passes = 0;
    while passes < MIN_PASSES || Instant::now() < deadline {
        let tracer = Tracer::enabled();
        counts = Totals::new();
        let (mut untraced, mut busy) = (Duration::ZERO, Duration::ZERO);
        for (i, s) in p.w.subjects.iter().enumerate() {
            let key = i as u64;
            let facade_first = passes % 2 == 0;
            let r = guarded(|| {
                traced_subject(
                    s,
                    &p.manifests[i],
                    p.w.full_artifacts,
                    &tracer,
                    key,
                    facade_first,
                    &mut counts,
                )
            });
            let findings = match r {
                Ok(t) if t.facade != t.composed => {
                    return Err(format!(
                        "traced run's findings differ from Canary::analyze on {}:\n{}\nvs\n{}",
                        s.name, t.composed, t.facade
                    ));
                }
                Ok(t) => {
                    untraced += t.untraced;
                    busy += t.busy;
                    Ok(t.facade)
                }
                Err(e) => Err(e),
            };
            tally.record(p, i, findings);
        }
        let (selfs, traced_analyze) = layers::self_times(&tracer.events());
        for name in SPAN_METRICS {
            times
                .entry(name)
                .or_default()
                .push(selfs.get(name).copied().unwrap_or(0.0));
        }
        times
            .entry("smt.busy_s")
            .or_default()
            .push(busy.as_secs_f64());
        times
            .entry("trace.traced_analyze_s")
            .or_default()
            .push(traced_analyze);
        times
            .entry("trace.untraced_analyze_s")
            .or_default()
            .push(untraced.as_secs_f64());
        passes += 1;
        last = Some(tracer);
    }
    let chrome = last.expect("at least one pass").export_chrome();
    let path = out_dir()?.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    std::fs::write(&path, chrome).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "perfbench: Chrome trace of the last pass in {}",
        path.display()
    );

    let mut metrics = Metrics::new();
    for (name, v) in &times {
        if *name != layers::ANALYZE_SPAN {
            metrics.insert(name, (median(v), "s"));
        }
    }
    let c = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    for (name, v) in &counts {
        metrics.insert(
            name,
            (
                *v,
                if name.ends_with("bytes") {
                    "bytes"
                } else {
                    "count"
                },
            ),
        );
    }
    let ratios = [
        (
            "interference.edge_yield",
            ratio(
                c("interference.edges"),
                c("interference.edges") + c("interference.pruned_pairs"),
            ),
        ),
        (
            "detect.confirm_ratio",
            ratio(c("detect.confirmed"), c("detect.queries")),
        ),
        (
            "smt.reuse_ratio",
            ratio(
                c("smt.memo_hits") + c("smt.core_subsumed"),
                c("detect.queries"),
            ),
        ),
    ];
    for (name, v) in ratios {
        metrics.insert(name, (v, "ratio"));
    }
    Ok(Measured {
        samples: tally.attempted as usize,
        tally,
        metrics,
        passes,
        subject_ms: Vec::new(),
        pass_s: Vec::new(),
    })
}

/// One subject of a traced pass.
struct Traced {
    facade: String,
    composed: String,
    untraced: Duration,
    busy: Duration,
}

fn traced_subject(
    s: &Subject,
    manifest: &RunManifest,
    full_artifacts: bool,
    tracer: &Tracer,
    key: u64,
    facade_first: bool,
    counts: &mut Totals,
) -> Result<Traced, String> {
    use layers::timed;
    // Every stage opens its span even where the workload skips it (as
    // `layers::analyze` does for the witness replay), so a skipped layer
    // reads as the near-zero cost of skipping it.
    let config = s.canary.config();
    let parsed = timed(tracer, key, "ir.parse_s", || match &s.input {
        Input::Text(t) => canary_ir::parse_with(t, &config.parse)
            .map(Some)
            .map_err(|e| e.to_string()),
        Input::Program(_) => Ok(None),
    })?;
    timed(tracer, key, "ir.validate_s", || {
        parsed.as_ref().map_or(Ok(()), |p| p.validate())
    })
    .map_err(|e| e.to_string())?;
    let prog = s.program(parsed.as_ref());
    let facade = || {
        let t = Instant::now();
        let outcome = s.canary.analyze(prog);
        (outcome, t.elapsed())
    };
    let ((outcome, untraced), (reports, busy)) = if facade_first {
        let f = facade();
        (f, layers::analyze(prog, config, tracer, key, counts))
    } else {
        let c = layers::analyze(prog, config, tracer, key, counts);
        (facade(), c)
    };
    let manifest = pass::with_timings(manifest, &outcome.metrics);
    let sarif = timed(tracer, key, "report.sarif_s", || {
        let doc = canary_report::sarif_document(prog, &outcome.reports, &manifest);
        serde_json::to_string_pretty(&doc).expect("SARIF is valid JSON")
    });
    *counts.entry("report.sarif_bytes").or_default() += sarif.len() as f64;
    let m = &outcome.metrics;
    timed(tracer, key, "detect.audit_jsonl_s", || {
        full_artifacts.then(|| m.audit.to_jsonl())
    });
    timed(tracer, key, "trace.openmetrics_s", || {
        full_artifacts.then(|| m.to_registry().to_openmetrics())
    });
    Ok(Traced {
        facade: pass::findings(&outcome.reports),
        composed: pass::findings(&reports),
        untraced,
        busy,
    })
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Writes what the run measured and on which inputs next to the
/// result line: subjects with statement counts, memory models and
/// input digests, the configuration, sample counts and failures.
fn write_details(args: &Args, p: &Prepared, digest: &str, m: &Measured) -> Result<(), String> {
    use serde_json::json;
    let subjects: Vec<_> =
        p.w.subjects
            .iter()
            .zip(&p.digests)
            .enumerate()
            .map(|(i, (s, d))| {
                json!({
                    "name": s.name,
                    "statements": stmt_count(s),
                    "memory_model": workloads::model_name(s.model()),
                    "digest": d,
                    "verdict_ms_median": m.subject_ms.get(i).map(|v| median(v)),
                })
            })
            .collect();
    let metrics: BTreeMap<String, f64> = m
        .metrics
        .iter()
        .map(|(k, (v, _))| (k.to_string(), *v))
        .collect();
    let reasons: BTreeMap<String, &str> = m
        .tally
        .reasons
        .iter()
        .map(|(i, r)| (p.w.subjects[*i].name.clone(), r.as_str()))
        .collect();
    let doc = json!({
        "workload": p.w.name,
        "seed": args.seed,
        "trace": args.trace,
        "threads": workloads::THREADS,
        "artifacts": if p.w.full_artifacts {
            json!(["sarif", "audit_jsonl", "openmetrics", "witness_replay"])
        } else {
            json!(["sarif"])
        },
        "input_digest": digest,
        "subjects": subjects,
        "passes": m.passes,
        "verdict_samples": m.samples,
        "attempted": m.tally.attempted,
        "failed": m.tally.failed,
        "wrong": reasons,
        "setup_s_samples": p.setup_s,
        "verdict_s_passes": m.pass_s,
        "metrics": metrics,
    });
    let path = out_dir()?.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let text = serde_json::to_string_pretty(&doc).expect("details are valid JSON");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}
