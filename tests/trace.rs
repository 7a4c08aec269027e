//! End-to-end tests of the structured tracing layer: Chrome trace-event
//! schema validity, byte-level determinism across worker counts, solver
//! attribution reaching [`canary_core::Metrics`], and the `--trace-out`
//! / `CANARY_LOG` CLI surface.

mod common;

use std::io::Write;
use std::process::Command;

use canary_core::{trace, Canary, CanaryConfig};

/// The paper's Fig. 2 variant without the contradictory branch
/// conditions: a real inter-thread UAF, so §5 issues at least one SMT
/// query (per-query spans and attribution records are populated).
const FIG2_VARIANT: &str = "
    fn main(a) {
        x = alloc o1;
        *x = a;
        fork t thread1(x);
        c = *x;
        use c;
    }
    fn thread1(y) {
        b = alloc o2;
        *y = b;
        free b;
    }
";

fn canary_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_canary"))
}

fn write_temp(name: &str, src: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("canary-trace-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(src.as_bytes()).unwrap();
    path
}

/// Runs the full pipeline with an enabled tracer at a worker count and
/// returns the Chrome trace export.
fn traced_run(threads: usize) -> String {
    let prog = canary_ir::parse(FIG2_VARIANT).unwrap();
    let config = CanaryConfig {
        threads,
        ..CanaryConfig::default()
    };
    let tracer = trace::Tracer::enabled();
    let outcome = Canary::with_config(config).analyze_traced(&prog, &tracer);
    assert_eq!(outcome.reports.len(), 1, "the variant's UAF is real");
    tracer.export_chrome()
}

#[test]
fn chrome_trace_schema_is_well_formed() {
    let json = traced_run(1);
    let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(doc["displayTimeUnit"], "ms");
    let events = doc["traceEvents"].as_array().unwrap();
    assert!(!events.is_empty());
    for e in events {
        assert_eq!(e["pid"].as_u64(), Some(1), "{e:?}");
        assert!(e["tid"].as_u64().is_some(), "{e:?}");
        assert_eq!(e["ph"], "X", "{e:?}");
        assert!(e["ts"].as_u64().is_some(), "{e:?}");
        assert!(e["dur"].as_u64().unwrap() >= 1, "{e:?}");
        assert!(!e["name"].as_str().unwrap().is_empty(), "{e:?}");
        assert!(e["cat"].as_str().is_some(), "{e:?}");
    }
}

#[test]
fn trace_covers_all_three_phases_and_smt_queries() {
    let json = traced_run(1);
    let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
    let names: Vec<String> = doc["traceEvents"]
        .as_array()
        .unwrap()
        .iter()
        .map(|e| e["name"].as_str().unwrap().to_string())
        .collect();
    for phase in ["callgraph", "alg1", "alg2", "detect"] {
        assert!(
            names.iter().any(|n| n == phase),
            "missing {phase}: {names:?}"
        );
    }
    assert!(
        names.iter().any(|n| n.starts_with("alg1.func:")),
        "{names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("alg2.edges:")),
        "{names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("detect.kind:")),
        "{names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("smt.query:")),
        "at least one per-SMT-query span: {names:?}"
    );
}

#[test]
fn trace_is_deterministic_across_worker_counts() {
    let serial = traced_run(1);
    let parallel = traced_run(2);
    let normalize = |s: &str| -> String {
        let mut doc: serde_json::Value = serde_json::from_str(s).unwrap();
        trace::normalize_chrome_trace(&mut doc);
        serde_json::to_string_pretty(&doc).unwrap()
    };
    assert_eq!(
        normalize(&serial),
        normalize(&parallel),
        "trace differs between 1 and 2 workers after timing normalization"
    );
}

#[test]
fn solver_attribution_reaches_metrics() {
    let prog = canary_ir::parse(FIG2_VARIANT).unwrap();
    let outcome = Canary::new().analyze(&prog);
    let m = &outcome.metrics;
    assert!(m.detect.queries >= 1);
    assert_eq!(m.query_profiles.len(), m.detect.queries);
    let q = &m.query_profiles[0];
    assert!(q.sat);
    assert!(q.path_len >= 2);
    assert!(q.order_atoms >= 1, "Φ_po is non-trivial here: {q:?}");
    // The solver does real work on this query; the summed counters in
    // DetectStats must agree with the per-query records.
    let prop_sum: u64 = m.query_profiles.iter().map(|p| p.stats.propagations).sum();
    assert_eq!(m.detect.propagations, prop_sum);
    assert!(prop_sum >= 1);
    // Alg. 1 profiles arrive in deterministic commit order (fork
    // targets are not call edges, so both functions share a level and
    // commit in function-index order).
    let names: Vec<&str> = m.func_profiles.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, ["main", "thread1"], "deterministic commit order");
    // Hottest-function ranking is by deterministic work counters.
    let hot = m.hottest_functions(5);
    assert_eq!(hot[0].name, "main");
    assert!(hot[0].stmt_visits >= hot[1].stmt_visits);
    assert_eq!(m.hottest_queries(5).len(), m.query_profiles.len().min(5));
}

#[test]
fn cli_trace_out_writes_valid_chrome_trace() {
    let src_path = write_temp("variant.cir", FIG2_VARIANT);
    let trace_path = std::env::temp_dir().join("canary-trace-tests/cli_trace.json");
    let out = canary_bin()
        .arg(&src_path)
        .arg("--trace-out")
        .arg(&trace_path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "the bug is reported as usual");
    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
    let names: Vec<&str> = doc["traceEvents"]
        .as_array()
        .unwrap()
        .iter()
        .map(|e| e["name"].as_str().unwrap())
        .collect();
    for phase in ["callgraph", "alg1", "alg2", "detect"] {
        assert!(names.contains(&phase), "missing {phase}: {names:?}");
    }
    assert!(
        names.iter().any(|n| n.starts_with("smt.query:")),
        "{names:?}"
    );
}

#[test]
fn cli_stats_shows_solver_totals_and_hottest_tables() {
    let src_path = write_temp("variant_stats.cir", FIG2_VARIANT);
    let out = canary_bin().arg(&src_path).arg("--stats").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\n  canary_detect_queries 1\n"), "{stdout}");
    assert!(
        stdout.contains("\n  canary_solver_propagations "),
        "{stdout}"
    );
    assert!(stdout.contains("hottest queries:"), "{stdout}");
    assert!(stdout.contains("hottest functions (Alg. 1):"), "{stdout}");
    assert!(stdout.contains("decisions"), "{stdout}");
}

#[test]
fn cli_json_carries_solver_block_and_hot_tables() {
    let src_path = write_temp("variant_json.cir", FIG2_VARIANT);
    let out = canary_bin().arg(&src_path).arg("--json").output().unwrap();
    let doc: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    let sample = |family: &str| common::registry_value(&doc, family, "");
    assert!(sample("canary_solver_propagations") >= 1.0);
    assert_eq!(sample("canary_detect_prefiltered"), 0.0);
    let m = &doc["metrics"];
    let hot_q = m["hot_queries"].as_array().unwrap();
    assert_eq!(hot_q.len(), 1);
    assert_eq!(hot_q[0]["sat"].as_u64(), Some(1));
    assert!(hot_q[0]["order_atoms"].as_u64().unwrap() >= 1);
    let hot_f = m["hot_functions"].as_array().unwrap();
    assert_eq!(hot_f[0]["function"], "main");
}

#[test]
fn canary_log_heartbeats_go_to_stderr_only() {
    let src_path = write_temp("variant_log.cir", FIG2_VARIANT);
    let quiet = canary_bin().arg(&src_path).output().unwrap();
    let chatty = canary_bin()
        .arg(&src_path)
        .env("CANARY_LOG", "summary")
        .output()
        .unwrap();
    // stdout is identical with and without logging.
    assert_eq!(quiet.stdout, chatty.stdout);
    assert!(String::from_utf8_lossy(&quiet.stderr).is_empty());
    let stderr = String::from_utf8_lossy(&chatty.stderr);
    for needle in ["canary: alg1:", "canary: alg2:", "canary: detect:"] {
        assert!(stderr.contains(needle), "missing {needle:?} in {stderr}");
    }
    // debug is a superset of summary.
    let debug = canary_bin()
        .arg(&src_path)
        .env("CANARY_LOG", "debug")
        .output()
        .unwrap();
    let dbg_err = String::from_utf8_lossy(&debug.stderr);
    assert!(dbg_err.len() >= stderr.len());
    assert!(dbg_err.contains("canary: alg1:"), "{dbg_err}");
}

#[test]
fn log_flag_overrides_the_environment() {
    let src_path = write_temp("variant_logflag.cir", FIG2_VARIANT);
    // `--log off` silences a run whose environment asks for summary.
    let off = canary_bin()
        .arg(&src_path)
        .env("CANARY_LOG", "summary")
        .args(["--log", "off"])
        .output()
        .unwrap();
    assert_eq!(off.status.code(), Some(1), "the bug is still reported");
    assert!(
        off.stderr.is_empty(),
        "--log off must win over CANARY_LOG=summary: {}",
        String::from_utf8_lossy(&off.stderr)
    );
    // `--log summary` enables heartbeats without any environment.
    let on = canary_bin()
        .arg(&src_path)
        .env_remove("CANARY_LOG")
        .args(["--log", "summary"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&on.stderr);
    for needle in ["canary: alg1:", "canary: alg2:", "canary: detect:"] {
        assert!(stderr.contains(needle), "missing {needle:?} in {stderr}");
    }
    // The heartbeats carry live progress: per-level commits for Alg. 1,
    // convergence state for Alg. 2, per-checker progress for §5.
    assert!(stderr.contains("level"), "{stderr}");
    assert!(stderr.contains("(converged)"), "{stderr}");
    assert!(stderr.contains("checker"), "{stderr}");
}

#[test]
fn slow_query_watchdog_logs_full_attribution() {
    let src_path = write_temp("variant_slow.cir", FIG2_VARIANT);
    // A zero budget flags every query; the watchdog is opt-in via the
    // flag itself and must not require CANARY_LOG.
    let out = canary_bin()
        .arg(&src_path)
        .env_remove("CANARY_LOG")
        .args(["--slow-query-ms", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("canary: slow-query:"), "{stderr}");
    for field in ["path_len=", "decisions=", "conflicts=", "sat=", "memo_hit="] {
        assert!(stderr.contains(field), "missing {field} in {stderr}");
    }
    // Default is off: no watchdog lines without the flag.
    let quiet = canary_bin()
        .arg(&src_path)
        .env_remove("CANARY_LOG")
        .output()
        .unwrap();
    assert!(quiet.stderr.is_empty());
}
