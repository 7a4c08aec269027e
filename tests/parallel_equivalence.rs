//! The pipeline-wide determinism contract: `Canary::analyze` must
//! produce identical output — reports, VFG shape, term counts — for
//! every worker count, and repeated parallel runs must be byte-stable.
//!
//! Two layers:
//!
//! 1. a property test over random `canary-workloads` programs, with
//!    hard query families, comparing the full outcome — including the
//!    whole deterministic solver-counter block (`DetectStats`) — at
//!    `threads = 1` vs `threads = 4`;
//! 2. a regression sweep over every concrete program embedded in
//!    `tests/paper_examples.rs` and `examples/*.rs` (extracted from
//!    their raw-string literals), each run three times at `threads = 8`
//!    and once serially, comparing canonical report JSON byte-for-byte.
//!
//! Timing fields are excluded from the comparison — wall time is the
//! one thing threads are allowed to change.

use canary::{AnalysisOutcome, Canary, CanaryConfig};
use proptest::prelude::*;

use canary_workloads::{generate, WorkloadSpec};

fn with_threads(threads: usize) -> Canary {
    Canary::with_config(CanaryConfig {
        threads,
        ..CanaryConfig::default()
    })
}

/// Canonical JSON for everything in an outcome that must not depend on
/// the worker count. Vendored serde_json renders object keys sorted, so
/// equal values mean equal bytes.
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
            })
        })
        .collect();
    let m = &outcome.metrics;
    let doc = serde_json::json!({
        "reports": reports,
        "metrics": {
            "statements": m.stmt_count,
            "threads": m.thread_count,
            "vfg_nodes": m.vfg_nodes,
            "vfg_edges": m.vfg_edges,
            "interference_edges": m.interference_edges,
            "escaped_objects": m.escaped_objects,
            "vfg_bytes": m.vfg_bytes,
            "term_count": m.term_count,
            "candidate_paths": m.detect.candidate_paths,
            "smt_queries": m.detect.queries,
            "dataflow_tasks": m.dataflow_tasks,
            "interference_tasks": m.interference_tasks,
            "detect": format!("{:?}", m.detect),
        },
        "refuted": outcome.refuted.iter().map(|r| {
            serde_json::json!({
                "kind": r.kind.to_string(),
                "source": r.source.0,
                "sink": r.sink.0,
                "core": r.core,
            })
        }).collect::<Vec<_>>(),
    });
    serde_json::to_string_pretty(&doc).expect("valid json")
}

fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (
        0u64..1000,
        200usize..600,
        1usize..4,
        1usize..5,
        0usize..3,
        0usize..2,
        0usize..3,
        0usize..6,
    )
        .prop_map(
            |(seed, stmts, threads, cells, bugs, benign, contra, fanout)| WorkloadSpec {
                name: format!("par-eq-{seed}"),
                seed,
                target_stmts: stmts,
                threads,
                shared_cells: cells,
                true_bugs: bugs,
                benign_patterns: benign,
                contradiction_patterns: contra,
                handshake_patterns: 1,
                order_fp_patterns: 1,
                double_free: 0,
                null_deref: 0,
                leak: 0,
                double_lock: 1,
                conflict_lock: 1,
                sb_patterns: 0,
                mp_patterns: 0,
                lb_patterns: 0,
                family_fanout: fanout,
                hard_family_ratio: 0.75,
                filler: true,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn analyze_is_identical_for_1_and_4_threads(spec in spec_strategy()) {
        let w = generate(&spec);
        let serial = with_threads(1).analyze(&w.prog);
        let parallel = with_threads(4).analyze(&w.prog);
        prop_assert_eq!(canonical_json(&serial), canonical_json(&parallel));
    }
}

/// Extracts every raw-string literal (`r#"…"#`) from a Rust source file
/// and keeps those that parse and validate as bounded programs.
fn embedded_programs(path: &std::path::Path) -> Vec<String> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut programs = Vec::new();
    let mut rest = text.as_str();
    while let Some(start) = rest.find("r#\"") {
        let body_on = &rest[start + 3..];
        let Some(end) = body_on.find("\"#") else {
            break;
        };
        let candidate = &body_on[..end];
        if let Ok(prog) = canary_ir::parse(candidate) {
            if prog.validate().is_ok() {
                programs.push(candidate.to_string());
            }
        }
        rest = &body_on[end + 2..];
    }
    programs
}

/// Every concrete program shipped in the repo's test and example files.
fn corpus() -> Vec<(String, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![root.join("tests/paper_examples.rs")];
    let mut examples: Vec<_> = std::fs::read_dir(root.join("examples"))
        .expect("examples dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    examples.sort();
    files.extend(examples);
    let mut out = Vec::new();
    for f in &files {
        let name = f.file_name().unwrap().to_string_lossy().into_owned();
        for (i, src) in embedded_programs(f).into_iter().enumerate() {
            out.push((format!("{name}#{i}"), src));
        }
    }
    out
}

#[test]
fn corpus_reports_are_byte_identical_across_threads_and_runs() {
    let corpus = corpus();
    assert!(
        corpus.len() >= 8,
        "expected a non-trivial embedded-program corpus, found {}",
        corpus.len()
    );
    for (name, src) in &corpus {
        let baseline = canonical_json(
            &with_threads(1)
                .analyze_source(src)
                .unwrap_or_else(|e| panic!("{name}: {e}")),
        );
        // Three repeated parallel runs: catches both thread-count
        // sensitivity and run-to-run scheduling nondeterminism.
        for round in 0..3 {
            let par = canonical_json(&with_threads(8).analyze_source(src).unwrap());
            assert_eq!(
                baseline, par,
                "{name}: threads=8 run {round} diverged from serial"
            );
        }
    }
}
