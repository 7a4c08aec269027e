//! The report-determinism contract: every interchange artifact the
//! observability layer produces — the SARIF 2.1.0 document, the
//! provenance DAG (JSON and DOT), the stable fingerprints and the
//! run-to-run diff — must be byte-identical for any `--threads` value
//! and either `--solver-strategy`. The only tolerated difference is
//! the run manifest itself (`invocations[0].properties`), which
//! legitimately records the knobs being varied plus nondeterministic
//! phase wall times.
//!
//! Layers:
//!
//! 1. a property test over random `canary-workloads` programs
//!    comparing the full SARIF document, every report's provenance
//!    JSON + DOT, and the pairwise diff across four front-end /
//!    solver-strategy combinations;
//! 2. byte-level CLI checks on `examples/fig2_variant.cir`, including
//!    the Fig. 2 witness as a thread-aware codeFlow;
//! 3. baseline classification: an injected bug is `new`, a removed
//!    one is `fixed`, and unchanged corpora diff clean;
//! 4. a dedup regression: fingerprint-equal reports collapse to the
//!    shortest witness before emission.

mod common;

use canary::{Canary, CanaryConfig};
use canary_detect::MemoryModel;
use canary_report::{diff_sarif, sarif_document, RunManifest};
use canary_smt::SolverStrategy;
use canary_workloads::{generate, WorkloadSpec};
use proptest::prelude::*;
use serde_json::Value;

fn configured(threads: usize, strategy: SolverStrategy, model: MemoryModel) -> Canary {
    let mut config = CanaryConfig {
        threads,
        ..CanaryConfig::default()
    };
    config.detect.solver.strategy = strategy;
    config.detect.memory_model = model;
    Canary::with_config(config)
}

/// A fixed manifest so library-level byte comparisons exercise the
/// document body, not the (legitimately varying) invocation block.
fn fixed_manifest(file: &str) -> RunManifest {
    RunManifest {
        file: file.to_string(),
        corpus_hash: "0000000000000000".to_string(),
        strategy: "fresh".to_string(),
        threads: 1,
        config: vec![("checkers".into(), "all".into())],
        canary_version: "0.0.0-fixed".to_string(),
        rustc_version: "rustc 0.0.0-fixed".to_string(),
        timings_ms: vec![],
    }
}

/// Renders the three artifacts under test for one configuration:
/// the pretty-printed SARIF document and, per report, the provenance
/// DAG as JSON and DOT.
fn artifacts(
    prog: &canary_ir::Program,
    outcome: &canary::AnalysisOutcome,
) -> (String, String, String) {
    let manifest = fixed_manifest("workload.cir");
    let sarif = serde_json::to_string_pretty(&sarif_document(prog, &outcome.reports, &manifest))
        .expect("valid json");
    let mut prov_json = String::new();
    let mut prov_dot = String::new();
    for r in &outcome.reports {
        let p = r
            .provenance
            .as_ref()
            .expect("every report carries provenance");
        prov_json.push_str(&serde_json::to_string_pretty(&p.to_json()).expect("valid json"));
        prov_json.push('\n');
        prov_dot.push_str(&p.to_dot(&format!("{}", r.kind)));
        prov_dot.push('\n');
    }
    (sarif, prov_json, prov_dot)
}

fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (
        0u64..1000,
        120usize..300,
        1usize..4,
        1usize..4,
        0usize..3,
        0usize..2,
        0usize..2,
        0usize..2,
    )
        .prop_map(
            |(seed, stmts, threads, cells, bugs, df, sb, mp)| WorkloadSpec {
                name: format!("report-det-{seed}"),
                seed,
                target_stmts: stmts,
                threads,
                shared_cells: cells,
                true_bugs: bugs,
                benign_patterns: 1,
                contradiction_patterns: 1,
                handshake_patterns: 1,
                order_fp_patterns: 0,
                double_free: df,
                null_deref: 1,
                leak: 0,
                double_lock: 1,
                conflict_lock: 1,
                sb_patterns: sb,
                mp_patterns: mp,
                lb_patterns: 0,
                family_fanout: 0,
                hard_family_ratio: 0.0,
                filler: true,
            },
        )
}

/// The `canary/v1` fingerprints of a rendered SARIF document.
fn fingerprints(doc: &Value) -> std::collections::BTreeSet<String> {
    doc["runs"][0]["results"]
        .as_array()
        .expect("results array")
        .iter()
        .map(|r| {
            r["partialFingerprints"]["canary/v1"]
                .as_str()
                .expect("canary/v1 fingerprint")
                .to_string()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn report_artifacts_identical_across_threads_and_strategy(spec in spec_strategy()) {
        let w = generate(&spec);
        let combos = [
            (1, SolverStrategy::Fresh),
            (4, SolverStrategy::Fresh),
            (1, SolverStrategy::Incremental),
            (4, SolverStrategy::Incremental),
        ];
        // Per memory model: every artifact byte-identical across the
        // front-end / solver combos, and same-corpus runs diff clean.
        let mut model_fps: Vec<std::collections::BTreeSet<String>> = Vec::new();
        for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
            let mut rendered: Vec<(String, String, String)> = Vec::new();
            let mut docs: Vec<Value> = Vec::new();
            for (threads, strategy) in combos {
                let outcome = configured(threads, strategy, model).analyze(&w.prog);
                let prog = outcome.analyzed_program.as_ref().unwrap_or(&w.prog);
                rendered.push(artifacts(prog, &outcome));
                let manifest = fixed_manifest("workload.cir");
                let doc = serde_json::to_value(&sarif_document(prog, &outcome.reports, &manifest));
                docs.push(doc.expect("valid json"));
            }
            for (i, r) in rendered.iter().enumerate().skip(1) {
                prop_assert_eq!(&rendered[0].0, &r.0, "SARIF differs in combo {} under {:?}", i, model);
                prop_assert_eq!(&rendered[0].1, &r.1, "provenance JSON differs in combo {} under {:?}", i, model);
                prop_assert_eq!(&rendered[0].2, &r.2, "provenance DOT differs in combo {} under {:?}", i, model);
            }
            // Any two runs of the same corpus diff clean: nothing new,
            // nothing fixed, every finding persisting.
            for cur in docs.iter().skip(1) {
                let d = diff_sarif(&docs[0], cur).expect("well-formed SARIF");
                prop_assert!(d.new.is_empty() && d.fixed.is_empty(), "{:?} under {:?}", d, model);
            }
            model_fps.push(fingerprints(&docs[0]));
        }
        // Cross-model stability: weakening the model only adds
        // findings, and the SC-visible ones keep their fingerprints
        // (so a baseline recorded under SC diffs clean under TSO/PSO).
        let [sc, tso, pso] = &model_fps[..] else { unreachable!() };
        prop_assert!(sc.is_subset(tso), "TSO lost SC fingerprints: {:?}", sc.difference(tso));
        prop_assert!(sc.is_subset(pso), "PSO lost SC fingerprints: {:?}", sc.difference(pso));
    }
}

// ---------------------------------------------------------------------------
// CLI-level byte identity and the Fig. 2 codeFlow.
// ---------------------------------------------------------------------------

fn fig2_variant() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/fig2_variant.cir")
}

fn run_sarif(path: &std::path::Path, extra: &[&str]) -> Value {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_canary"))
        .arg(path)
        .args(["--format", "sarif"])
        .args(extra)
        .output()
        .expect("run canary");
    serde_json::from_slice(&out.stdout).expect("valid json")
}

/// Blanks the run manifest: the invocation properties record the
/// *actual* strategy/threads/wall-times, which are exactly the knobs
/// this test varies. Everything else must match byte-for-byte.
fn normalize_manifest(mut doc: Value) -> String {
    {
        let Value::Object(top) = &mut doc else {
            panic!("expected object document")
        };
        let Some(Value::Array(runs)) = top.get_mut("runs") else {
            panic!("expected runs array")
        };
        let Some(Value::Object(run)) = runs.get_mut(0) else {
            panic!("expected run object")
        };
        let Some(Value::Array(invs)) = run.get_mut("invocations") else {
            panic!("expected invocations array")
        };
        let Some(Value::Object(inv)) = invs.get_mut(0) else {
            panic!("expected invocation object")
        };
        inv.insert("properties".to_string(), Value::Null);
    }
    serde_json::to_string_pretty(&doc).expect("valid json")
}

#[test]
fn cli_sarif_is_byte_identical_across_threads_and_strategy() {
    let path = fig2_variant();
    let base = normalize_manifest(run_sarif(&path, &[]));
    for extra in [
        &["--threads", "4"][..],
        &["--solver-strategy", "fresh"][..],
        &["--threads", "4", "--solver-strategy", "fresh"][..],
        &["--solver-strategy", "incremental"][..],
    ] {
        let doc = normalize_manifest(run_sarif(&path, extra));
        assert_eq!(base, doc, "SARIF differs under {extra:?}");
    }
}

/// The byte-identity contract holds under the weak models too: for a
/// fixed `--memory-model`, varying `--threads` and
/// `--solver-strategy` must not change a byte outside the manifest.
#[test]
fn cli_sarif_is_byte_identical_under_weak_models() {
    let path = fig2_variant();
    for model in ["tso", "pso"] {
        let base = normalize_manifest(run_sarif(&path, &["--memory-model", model]));
        for extra in [
            &["--threads", "4"][..],
            &["--solver-strategy", "incremental"][..],
            &["--threads", "4", "--solver-strategy", "incremental"][..],
        ] {
            let mut args = vec!["--memory-model", model];
            args.extend_from_slice(extra);
            let doc = normalize_manifest(run_sarif(&path, &args));
            assert_eq!(base, doc, "SARIF differs under {model} with {extra:?}");
        }
    }
}

/// SC-visible findings keep their fingerprints when the analysis runs
/// under a weaker model: a baseline recorded under SC must diff clean
/// when re-checked under TSO or PSO.
#[test]
fn cli_fingerprints_of_sc_findings_are_model_invariant() {
    let path = fig2_variant();
    let fps = |model: &str| fingerprints(&run_sarif(&path, &["--memory-model", model]));
    let sc = fps("sc");
    assert!(!sc.is_empty(), "fig2 variant reports under SC");
    for model in ["tso", "pso"] {
        let weak = fps(model);
        assert!(
            sc.is_subset(&weak),
            "{model} lost SC fingerprints: {:?}",
            sc.difference(&weak)
        );
    }
}

#[test]
fn fig2_variant_sarif_codeflow_reproduces_the_witness() {
    let doc = run_sarif(&fig2_variant(), &[]);
    assert_eq!(doc["version"], "2.1.0");
    assert!(
        doc["$schema"]
            .as_str()
            .unwrap()
            .contains("sarif-schema-2.1.0"),
        "{:?}",
        doc["$schema"]
    );
    let results = doc["runs"][0]["results"].as_array().unwrap();
    assert_eq!(results.len(), 1, "one UAF on the racy Fig. 2 variant");
    let r = &results[0];
    assert_eq!(r["ruleId"], "canary/use-after-free");
    let fp = r["partialFingerprints"]["canary/v1"].as_str().unwrap();
    assert_eq!(fp.len(), 16, "16-hex-digit fingerprint: {fp}");
    // One threadFlow per static thread; the fork appears in both the
    // forking and the forked flow (a flow-join point), and the global
    // executionOrder reconstructs the witness interleaving.
    let flows = r["codeFlows"][0]["threadFlows"].as_array().unwrap();
    assert_eq!(flows.len(), 2, "main + forked thread");
    let ids: Vec<&str> = flows.iter().map(|f| f["id"].as_str().unwrap()).collect();
    assert_eq!(ids, ["t0", "t1"]);
    let texts: Vec<Vec<String>> = flows
        .iter()
        .map(|f| {
            f["locations"]
                .as_array()
                .unwrap()
                .iter()
                .map(|l| {
                    l["location"]["message"]["text"]
                        .as_str()
                        .unwrap()
                        .to_string()
                })
                .collect()
        })
        .collect();
    assert!(
        texts[0]
            .iter()
            .any(|t| t.contains("fork") && t.contains("[forks t1]")),
        "{texts:?}"
    );
    assert!(
        texts[1]
            .iter()
            .any(|t| t.contains("[thread t1 starts here]")),
        "{texts:?}"
    );
    assert!(texts[1].iter().any(|t| t.contains("free b")), "{texts:?}");
    assert!(texts[0].iter().any(|t| t.contains("use c")), "{texts:?}");
    // executionOrder values are unique, 1-based, and the free precedes
    // the use in the witness interleaving despite living in another
    // thread's flow.
    let mut orders: Vec<(i64, String)> = flows
        .iter()
        .flat_map(|f| f["locations"].as_array().unwrap())
        .map(|l| {
            (
                l["executionOrder"].as_i64().unwrap(),
                l["location"]["message"]["text"]
                    .as_str()
                    .unwrap()
                    .to_string(),
            )
        })
        .collect();
    orders.sort();
    let free_pos = orders
        .iter()
        .position(|(_, t)| t.contains("free b"))
        .unwrap();
    let use_pos = orders
        .iter()
        .position(|(_, t)| t.contains("use c"))
        .unwrap();
    assert!(
        free_pos < use_pos,
        "witness order: free before use: {orders:?}"
    );
    // Provenance rides along under properties: licensed interference
    // edges carry the escaped object and the MHP facts consulted.
    let prov = &r["properties"]["provenance"];
    assert!(!prov["edges"].as_array().unwrap().is_empty());
    assert!(
        prov["edges"]
            .as_array()
            .unwrap()
            .iter()
            .any(|e| e["kind"] == "interference" && !e["escape"].is_null()),
        "{prov:?}"
    );
    assert!(!prov["mhp"].as_array().unwrap().is_empty(), "{prov:?}");
    assert!(!prov["model"].is_null(), "satisfying model slice attached");
}

// ---------------------------------------------------------------------------
// Baseline classification: injected bug is new, removed bug is fixed.
// ---------------------------------------------------------------------------

const ONE_BUG: &str = "fn main() { p = alloc o; fork t w(p); free p; }\nfn w(q) { use q; }\n";
const OTHER_BUG: &str = "fn main() { s = alloc o2; fork t r(s); free s; }\nfn r(h) { use h; }\n";

fn temp(name: &str, src: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("canary-report-determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, src).unwrap();
    path
}

fn canary_bin() -> std::process::Command {
    std::process::Command::new(env!("CARGO_BIN_EXE_canary"))
}

#[test]
fn baseline_diff_classifies_injected_and_removed_bugs() {
    let a = temp("one_bug.cir", ONE_BUG);
    let b = temp("other_bug.cir", OTHER_BUG);
    let a_sarif = temp("one_bug.sarif", "");
    let b_sarif = temp("other_bug.sarif", "");
    for (src, out) in [(&a, &a_sarif), (&b, &b_sarif)] {
        let st = canary_bin()
            .arg(src)
            .args(["--sarif-out", out.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(st.status.code(), Some(1), "both corpora have one bug");
    }
    // b vs baseline a: a's finding is fixed, b's is new -> exit 1.
    let out = canary_bin()
        .arg("diff")
        .arg(&a_sarif)
        .arg(&b_sarif)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "new finding gates the exit code"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[new]"), "{stdout}");
    assert!(stdout.contains("[fixed]"), "{stdout}");
    assert!(stdout.contains("1 new, 1 fixed, 0 persisting"), "{stdout}");
    // Unchanged corpus against its own baseline: exit 0, all persisting.
    let out = canary_bin()
        .arg(&a)
        .args(["--baseline", a_sarif.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "no new findings on unchanged corpus"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 new, 0 fixed, 1 persisting"), "{stdout}");
    // The same corpus against the other baseline flips to exit 1.
    let out = canary_bin()
        .arg(&b)
        .args(["--baseline", a_sarif.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "injected bug classified as new");
}

#[test]
fn fingerprints_are_stable_under_line_shifts() {
    // The same bug with unrelated statements spliced above it: every
    // label moves, the fingerprint must not.
    let shifted = "fn main() { z1 = alloc filler; z2 = alloc filler2; \
                   p = alloc o; fork t w(p); free p; }\nfn w(q) { use q; }\n";
    let run = |src: &str, name: &str| -> String {
        let path = temp(name, src);
        let out = canary_bin().arg(&path).arg("--json").output().unwrap();
        let doc: Value = serde_json::from_slice(&out.stdout).unwrap();
        doc["reports"][0]["fingerprint"]
            .as_str()
            .unwrap()
            .to_string()
    };
    assert_eq!(
        run(ONE_BUG, "stable_base.cir"),
        run(shifted, "stable_shifted.cir"),
        "fingerprint must survive label renumbering"
    );
}

#[test]
fn lock_fingerprints_are_stable_under_line_shifts() {
    // Same discipline bugs with filler spliced above them: every label
    // moves, the fingerprints must not. Covers both lock checkers.
    let run = |src: &str, name: &str, checkers: &str| -> Vec<String> {
        let path = temp(name, src);
        let out = canary_bin()
            .arg(&path)
            .args(["--checkers", checkers, "--json"])
            .output()
            .unwrap();
        let doc: Value = serde_json::from_slice(&out.stdout).unwrap();
        doc["reports"]
            .as_array()
            .unwrap()
            .iter()
            .map(|r| r["fingerprint"].as_str().unwrap().to_string())
            .collect()
    };
    let dl_base = "fn main() { m = alloc mu; lock m; lock m; unlock m; }";
    let dl_shifted = "fn main() { z1 = alloc filler; z2 = alloc filler2; \
                      m = alloc mu; lock m; lock m; unlock m; }";
    let dl_a = run(dl_base, "dl_base.cir", "doublelock");
    let dl_b = run(dl_shifted, "dl_shifted.cir", "doublelock");
    assert_eq!(dl_a.len(), 1, "{dl_a:?}");
    assert_eq!(
        dl_a, dl_b,
        "double-lock fingerprint must survive label renumbering"
    );
    let cl_base = "fn main() { a = alloc ma; b = alloc mb; fork t w(a, b); \
                   lock a; lock b; unlock b; unlock a; }\n\
                   fn w(x, y) { lock y; lock x; unlock x; unlock y; }";
    let cl_shifted = "fn main() { z1 = alloc filler; z2 = alloc filler2; \
                      a = alloc ma; b = alloc mb; fork t w(a, b); \
                      lock a; lock b; unlock b; unlock a; }\n\
                      fn w(x, y) { lock y; lock x; unlock x; unlock y; }";
    let cl_a = run(cl_base, "cl_base.cir", "conflictlock");
    let cl_b = run(cl_shifted, "cl_shifted.cir", "conflictlock");
    assert_eq!(cl_a.len(), 1, "{cl_a:?}");
    assert_eq!(
        cl_a, cl_b,
        "conflict-lock fingerprint must survive label renumbering"
    );
}

// ---------------------------------------------------------------------------
// Metrics-registry determinism: the OpenMetrics export and the `metrics`
// JSON registry block obey the same contract as the SARIF document —
// byte-identical across `--threads` values once the volatile families
// (wall clock, RSS) are normalized, and byte-identical across solver
// strategies once the strategy-sensitive `canary_solver_*` families
// are normalized too (the incremental back-end legitimately does less
// CDCL work — that is PR 4's whole point).
// ---------------------------------------------------------------------------

use canary_trace::metrics::{normalize_openmetrics, normalize_registry_json};

/// Renders both telemetry artifacts for one configuration.
fn telemetry(
    prog: &canary_ir::Program,
    threads: usize,
    strategy: SolverStrategy,
) -> (String, Value) {
    let outcome = configured(threads, strategy, MemoryModel::Sc).analyze(prog);
    let registry = outcome.metrics.to_registry();
    (registry.to_openmetrics(), registry.to_json())
}

fn normalized_json(mut doc: Value, cross_strategy: bool) -> String {
    normalize_registry_json(&mut doc, cross_strategy);
    serde_json::to_string_pretty(&doc).expect("valid json")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn metrics_registry_identical_across_threads_and_strategy(spec in spec_strategy()) {
        let w = generate(&spec);
        let (om_1f, js_1f) = telemetry(&w.prog, 1, SolverStrategy::Fresh);
        let (om_4f, js_4f) = telemetry(&w.prog, 4, SolverStrategy::Fresh);
        let (om_1i, js_1i) = telemetry(&w.prog, 1, SolverStrategy::Incremental);
        let (om_4i, js_4i) = telemetry(&w.prog, 4, SolverStrategy::Incremental);
        // Across threads (fixed strategy): only the volatile families
        // may differ. Counters, byte gauges and the per-family solver
        // work histograms must already agree.
        prop_assert_eq!(
            normalize_openmetrics(&om_1f, false),
            normalize_openmetrics(&om_4f, false),
            "fresh OpenMetrics differs across threads"
        );
        prop_assert_eq!(
            normalize_openmetrics(&om_1i, false),
            normalize_openmetrics(&om_4i, false),
            "incremental OpenMetrics differs across threads"
        );
        prop_assert_eq!(
            normalized_json(js_1f.clone(), false),
            normalized_json(js_4f, false),
            "fresh registry JSON differs across threads"
        );
        prop_assert_eq!(
            normalized_json(js_1i.clone(), false),
            normalized_json(js_4i, false),
            "incremental registry JSON differs across threads"
        );
        // Across strategies: additionally quarantine `canary_solver_*`.
        prop_assert_eq!(
            normalize_openmetrics(&om_1f, true),
            normalize_openmetrics(&om_1i, true),
            "OpenMetrics differs across strategies beyond solver work"
        );
        prop_assert_eq!(
            normalized_json(js_1f, true),
            normalized_json(js_1i, true),
            "registry JSON differs across strategies beyond solver work"
        );
    }
}

/// CLI-level check on the shipped example: `--metrics-out` bytes obey
/// the same normalization contract, and the raw export is well-formed
/// OpenMetrics text.
#[test]
fn cli_metrics_out_is_deterministic_and_well_formed() {
    let path = fig2_variant();
    let run = |extra: &[&str]| -> String {
        let out_path = std::env::temp_dir()
            .join("canary-report-determinism")
            .join(format!("metrics-{}.txt", extra.join("_").replace("--", "")));
        std::fs::create_dir_all(out_path.parent().unwrap()).unwrap();
        let st = canary_bin()
            .arg(&path)
            .args(["--metrics-out", out_path.to_str().unwrap()])
            .args(extra)
            .output()
            .unwrap();
        assert_eq!(st.status.code(), Some(1), "fig2 variant reports its UAF");
        std::fs::read_to_string(&out_path).unwrap()
    };
    let base = run(&[]);
    // Well-formed: typed families, counter naming, EOF terminator.
    assert!(
        base.ends_with("# EOF\n"),
        "OpenMetrics needs the EOF marker"
    );
    for family in [
        "# TYPE canary_vfg_nodes gauge",
        "# TYPE canary_detect_queries counter",
        "canary_detect_queries_total ",
        "# TYPE canary_phase_wall_seconds gauge",
        "canary_phase_wall_seconds{phase=\"dataflow\"}",
        "# TYPE canary_solver_query_decisions histogram",
        "canary_solver_query_decisions_bucket{kind=\"use-after-free\",le=\"+Inf\"}",
        "# TYPE canary_term_table_bytes gauge",
        "# TYPE canary_phase_peak_rss_bytes gauge",
    ] {
        assert!(base.contains(family), "missing `{family}` in:\n{base}");
    }
    // Byte identity across threads after normalizing volatile families.
    let threads4 = run(&["--threads", "4"]);
    assert_eq!(
        normalize_openmetrics(&base, false),
        normalize_openmetrics(&threads4, false),
        "--metrics-out differs across --threads"
    );
    // And across strategies after quarantining solver work too.
    let fresh = run(&["--solver-strategy", "fresh"]);
    assert_eq!(
        normalize_openmetrics(&base, true),
        normalize_openmetrics(&fresh, true),
        "--metrics-out differs across strategies beyond solver work"
    );
}

// ---------------------------------------------------------------------------
// Dedup regression: fingerprint-equal reports collapse pre-emission.
// ---------------------------------------------------------------------------

#[test]
fn fingerprint_equal_reports_dedup_to_shortest_witness() {
    // Loop unrolling clones the free at three labels; all three clones
    // produce position-stripped-identical witnesses, so exactly one
    // report (the shortest) survives.
    let src = "fn main() { p = alloc o; fork t w(p); while (c) { free p; } }\n\
               fn w(q) { use q; }\n";
    let path = temp("dedup_unroll.cir", src);
    let out = canary_bin()
        .arg(&path)
        .args(["--unroll", "3", "--checkers", "uaf", "--json"])
        .output()
        .unwrap();
    let doc: Value = serde_json::from_slice(&out.stdout).unwrap();
    let reports = doc["reports"].as_array().unwrap();
    assert_eq!(reports.len(), 1, "duplicates collapse: {reports:?}");
    assert_eq!(
        common::registry_value(&doc, "canary_detect_reports_deduped", ""),
        2.0
    );
    // The survivor is a genuine shortest witness: no longer schedule
    // exists among the collapsed clones (free@l3 is the earliest).
    let schedule = reports[0]["witness_schedule"].as_array().unwrap();
    assert_eq!(schedule.len(), 4, "{schedule:?}");
}
