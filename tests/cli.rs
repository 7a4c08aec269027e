//! End-to-end tests of the `canary` command-line binary.

use std::io::Write;
use std::process::Command;

fn canary_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_canary"))
}

fn write_temp(name: &str, src: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("canary-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(src.as_bytes()).unwrap();
    path
}

const RACY: &str = "fn main() { p = alloc o; fork t w(p); free p; }\nfn w(q) { use q; }\n";
const CLEAN: &str = "fn main() { p = alloc o; fork t w(p); join t; free p; }\nfn w(q) { use q; }\n";

#[test]
fn reports_bug_with_exit_code_one() {
    let path = write_temp("racy.cir", RACY);
    let out = canary_bin().arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("use-after-free"), "{stdout}");
    assert!(stdout.contains("inter-thread"), "{stdout}");
}

#[test]
fn clean_program_exits_zero() {
    let path = write_temp("clean.cir", CLEAN);
    let out = canary_bin().arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no bugs found"), "{stdout}");
}

#[test]
fn json_output_is_parseable() {
    let path = write_temp("racy_json.cir", RACY);
    let out = canary_bin().arg(&path).arg("--json").output().unwrap();
    let doc: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(doc["reports"].as_array().unwrap().len(), 1);
    assert_eq!(doc["reports"][0]["kind"], "use-after-free");
    assert_eq!(doc["reports"][0]["inter_thread"], true);
    assert!(doc["metrics"]["statements"].as_u64().unwrap() >= 4);
}

#[test]
fn checker_selection_is_respected() {
    let path = write_temp("racy_leak_only.cir", RACY);
    let out = canary_bin()
        .arg(&path)
        .args(["--checkers", "leak"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "leak checker finds nothing");
}

#[test]
fn stats_flag_prints_metrics() {
    let path = write_temp("racy_stats.cir", RACY);
    let out = canary_bin().arg(&path).arg("--stats").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stats:"), "{stdout}");
    assert!(stdout.contains("vfg"), "{stdout}");
}

#[test]
fn memory_model_flag_accepted() {
    let path = write_temp("racy_pso.cir", RACY);
    let out = canary_bin()
        .arg(&path)
        .args(["--memory-model", "pso"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn unknown_memory_model_is_usage_error() {
    let path = write_temp("racy_badmodel.cir", RACY);
    let out = canary_bin()
        .arg(&path)
        .args(["--memory-model", "rmo"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown memory model"), "{stderr}");
}

#[test]
fn json_metrics_record_the_memory_model() {
    let path = write_temp("racy_model_json.cir", RACY);
    let run = |extra: &[&str]| -> serde_json::Value {
        let out = canary_bin()
            .arg(&path)
            .args(extra)
            .arg("--json")
            .output()
            .unwrap();
        serde_json::from_slice(&out.stdout).unwrap()
    };
    assert_eq!(
        run(&[])["metrics"]["memory_model"],
        "sc",
        "sc is the default"
    );
    assert_eq!(
        run(&["--memory-model", "tso"])["metrics"]["memory_model"],
        "tso"
    );
    assert_eq!(
        run(&["--memory-model", "pso"])["metrics"]["memory_model"],
        "pso"
    );
}

#[test]
fn sarif_manifest_records_the_memory_model() {
    let path = write_temp("racy_model_sarif.cir", RACY);
    let out = canary_bin()
        .arg(&path)
        .args(["--memory-model", "tso", "--format", "sarif"])
        .output()
        .unwrap();
    let doc: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    let config = &doc["runs"][0]["invocations"][0]["properties"]["config"];
    assert_eq!(config["memory_model"], "tso", "{config}");
}

#[test]
fn sarif_manifest_records_the_solver_pool() {
    let path = write_temp("racy_threads_sarif.cir", RACY);
    for (threads, expected) in [("1", "1"), ("4", "4")] {
        let out = canary_bin()
            .arg(&path)
            .args(["--threads", threads, "--format", "sarif"])
            .output()
            .unwrap();
        let doc: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
        let props = &doc["runs"][0]["invocations"][0]["properties"];
        assert_eq!(props["threads"], threads.parse::<u64>().unwrap(), "{props}");
        assert_eq!(props["config"]["solver_threads"], expected, "{props}");
    }
}

#[test]
fn baseline_tools_run_from_cli() {
    // The order-insensitive baseline reports even use-before-free.
    let path = write_temp("ubf.cir", "fn main() { p = alloc o; use p; free p; }\n");
    let saber = canary_bin()
        .arg(&path)
        .args(["--tool", "saber"])
        .output()
        .unwrap();
    assert_eq!(saber.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&saber.stdout);
    assert!(stdout.contains("unguarded"), "{stdout}");
    // Canary itself refutes it.
    let canary = canary_bin().arg(&path).output().unwrap();
    assert_eq!(canary.status.code(), Some(0));
}

#[test]
fn path_limit_flags_accepted() {
    let path = write_temp("racy_limits.cir", RACY);
    let out = canary_bin()
        .arg(&path)
        .args(["--max-paths", "4", "--max-path-len", "16"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn parse_error_exits_two() {
    let path = write_temp("broken.cir", "fn main() {");
    let out = canary_bin().arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("parse error"), "{stderr}");
}

#[test]
fn missing_file_exits_two() {
    let out = canary_bin().arg("/nonexistent/x.cir").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_flag_is_usage_error() {
    let path = write_temp("racy2.cir", RACY);
    for flag in [
        &["--bogus"][..],
        &["--cube-split", "2"][..],
        &["--dispatch", "static"][..],
        &["--shards", "4"][..],
        &["--memory-budget-mb", "1"][..],
    ] {
        let out = canary_bin().arg(&path).args(flag).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag:?}");
    }
}

#[test]
fn json_document_is_versioned_and_fingerprinted() {
    let path = write_temp("racy_schema.cir", RACY);
    let out = canary_bin().arg(&path).arg("--json").output().unwrap();
    let doc: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(doc["schema_version"], 4, "consumers gate on schema_version");
    let fp = doc["reports"][0]["fingerprint"].as_str().unwrap();
    assert_eq!(fp.len(), 16, "16 hex digits: {fp}");
    assert!(fp.chars().all(|c| c.is_ascii_hexdigit()), "{fp}");
    let prov = &doc["reports"][0]["provenance"];
    assert!(!prov["nodes"].as_array().unwrap().is_empty(), "{prov:?}");
}

#[test]
fn sarif_format_and_sarif_out_agree() {
    let path = write_temp("racy_sarif.cir", RACY);
    let out_path = std::env::temp_dir().join("canary-cli-tests/racy.sarif");
    let out = canary_bin()
        .arg(&path)
        .args(["--format", "sarif", "--sarif-out"])
        .arg(&out_path)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "findings still gate the exit code"
    );
    let stdout: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    let written: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    assert_eq!(stdout, written, "--sarif-out mirrors --format sarif");
    assert_eq!(stdout["version"], "2.1.0");
    assert_eq!(
        stdout["runs"][0]["results"][0]["ruleId"],
        "canary/use-after-free"
    );
}

#[test]
fn unwritable_output_paths_exit_two_cleanly() {
    let path = write_temp("racy_unwritable.cir", RACY);
    for flag in [
        "--sarif-out",
        "--json-out",
        "--trace-out",
        "--metrics-out",
        "--audit-out",
    ] {
        let out = canary_bin()
            .arg(&path)
            .args([flag, "/nonexistent-dir/out.file"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("cannot write"),
            "{flag} must explain the failure: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{flag} must not panic: {stderr}"
        );
    }
}

#[test]
fn diff_subcommand_validates_its_inputs() {
    // Wrong arity.
    let out = canary_bin()
        .arg("diff")
        .arg("only-one.sarif")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Missing files.
    let out = canary_bin()
        .args(["diff", "/nonexistent/a.sarif", "/nonexistent/b.sarif"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Not a SARIF log.
    let junk = write_temp("junk.sarif", "{\"hello\": 1}");
    let out = canary_bin()
        .arg("diff")
        .arg(&junk)
        .arg(&junk)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("runs"), "{stderr}");
}

#[test]
fn unknown_log_level_is_usage_error() {
    let path = write_temp("racy_badlog.cir", RACY);
    let out = canary_bin()
        .arg(&path)
        .args(["--log", "bogus"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown log level"), "{stderr}");
}

#[test]
fn json_and_sarif_carry_build_info() {
    let path = write_temp("racy_build.cir", RACY);
    let json: serde_json::Value = serde_json::from_slice(
        &canary_bin()
            .arg(&path)
            .arg("--json")
            .output()
            .unwrap()
            .stdout,
    )
    .unwrap();
    assert_eq!(
        json["canary_version"].as_str(),
        Some(env!("CARGO_PKG_VERSION")),
        "{json}"
    );
    assert!(
        json["rustc_version"].as_str().unwrap().starts_with("rustc"),
        "{json}"
    );
    let sarif: serde_json::Value = serde_json::from_slice(
        &canary_bin()
            .arg(&path)
            .args(["--format", "sarif"])
            .output()
            .unwrap()
            .stdout,
    )
    .unwrap();
    let build = &sarif["runs"][0]["invocations"][0]["properties"]["build"];
    assert_eq!(
        build["canaryVersion"].as_str(),
        Some(env!("CARGO_PKG_VERSION")),
        "{build}"
    );
    assert!(
        build["rustcVersion"].as_str().unwrap().starts_with("rustc"),
        "{build}"
    );
}

#[test]
fn baseline_flag_gates_exit_on_new_findings_only() {
    let racy = write_temp("racy_base.cir", RACY);
    let clean = write_temp("clean_base.cir", CLEAN);
    let base = std::env::temp_dir().join("canary-cli-tests/racy_base.sarif");
    canary_bin()
        .arg(&racy)
        .args(["--sarif-out"])
        .arg(&base)
        .output()
        .unwrap();
    // Same corpus: the finding persists, no new ones -> exit 0 even
    // though the run itself has findings.
    let out = canary_bin()
        .arg(&racy)
        .args(["--baseline"])
        .arg(&base)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    // Fixed corpus against the racy baseline: the finding is fixed.
    let out = canary_bin()
        .arg(&clean)
        .args(["--baseline"])
        .arg(&base)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 fixed"), "{stdout}");
}

#[test]
fn unroll_flag_changes_bounding() {
    let src = "fn main() { p = alloc o; while (c) { use p; } free p; }";
    let path = write_temp("loop.cir", src);
    for (unroll, expect_derefs) in [("1", 1u64), ("4", 4u64)] {
        let out = canary_bin()
            .arg(&path)
            .args(["--unroll", unroll, "--json", "--checkers", "leak"])
            .output()
            .unwrap();
        let doc: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
        let stmts = doc["metrics"]["statements"].as_u64().unwrap();
        // alloc + free + `use` per unrolled copy.
        assert_eq!(stmts, 2 + expect_derefs, "unroll {unroll}");
    }
}

#[test]
fn audit_out_writes_one_json_record_per_line() {
    let path = write_temp("racy_audit.cir", RACY);
    let out_path = std::env::temp_dir().join("canary-cli-tests/racy_audit.jsonl");
    let out = canary_bin()
        .arg(&path)
        .arg("--audit-out")
        .arg(&out_path)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "findings still gate the exit code"
    );
    let jsonl = std::fs::read_to_string(&out_path).unwrap();
    assert!(!jsonl.trim().is_empty(), "a reported pair must be audited");
    let mut saw_reported = false;
    for (i, line) in jsonl.lines().enumerate() {
        let rec: serde_json::Value =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("line {i}: {e}: {line}"));
        assert_eq!(rec["seq"], i as u64, "seq is the line number");
        for key in ["layer", "source", "disposition", "certificate"] {
            assert!(
                rec[key] != serde_json::Value::Null || key == "certificate",
                "{key} missing: {line}"
            );
        }
        if rec["disposition"] == "reported" {
            saw_reported = true;
            let fp = rec["certificate"]["fingerprint"].as_str().unwrap();
            assert_eq!(fp.len(), 16, "{fp}");
        }
    }
    assert!(saw_reported, "{jsonl}");
}

#[test]
fn audit_export_is_byte_identical_across_scheduling_knobs() {
    let path = write_temp("racy_audit_knobs.cir", RACY);
    let run = |extra: &[&str]| -> String {
        let out_path = std::env::temp_dir().join(format!(
            "canary-cli-tests/audit-knobs-{}.jsonl",
            extra.join("_").replace('/', "-")
        ));
        let out = canary_bin()
            .arg(&path)
            .arg("--audit-out")
            .arg(&out_path)
            .args(extra)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1));
        std::fs::read_to_string(&out_path).unwrap()
    };
    let base = run(&["--solver-strategy", "fresh"]);
    for extra in [
        &["--solver-strategy", "incremental"][..],
        &["--threads", "4"][..],
        &["--explain"][..],
    ] {
        assert_eq!(base, run(extra), "{extra:?}");
    }
}

#[test]
fn why_explains_a_reported_fingerprint() {
    let path = write_temp("racy_why.cir", RACY);
    let out = canary_bin().arg(&path).arg("--json").output().unwrap();
    let doc: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    let fp = doc["reports"][0]["fingerprint"]
        .as_str()
        .unwrap()
        .to_string();
    let out = canary_bin()
        .arg("why")
        .arg(&path)
        .arg(&fp)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(&fp), "{stdout}");
    assert!(stdout.contains("reported: confirmed finding"), "{stdout}");
    // Unknown (but well-formed) fingerprint: exit 1.
    let out = canary_bin()
        .arg("why")
        .arg(&path)
        .arg("0000000000000000")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    // Malformed fingerprint: usage error.
    let out = canary_bin()
        .arg("why")
        .arg(&path)
        .arg("nope")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Missing operands: usage error.
    let out = canary_bin().arg("why").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn why_not_prints_certificates_and_exit_codes() {
    // A reported pair answers "reported".
    let path = write_temp("racy_whynot.cir", RACY);
    let out = canary_bin().arg(&path).arg("--json").output().unwrap();
    let doc: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    let src_label = doc["reports"][0]["source"]["label"].as_u64().unwrap();
    let sink_label = doc["reports"][0]["sink"]["label"].as_u64().unwrap();
    let out = canary_bin()
        .arg("why-not")
        .arg(&path)
        .arg(format!("l{src_label}"))
        .arg(sink_label.to_string()) // bare index spelling also accepted
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("reported"), "{stdout}");
    // A never-enumerated pair explains itself and exits 1.
    let out = canary_bin()
        .arg("why-not")
        .arg(&path)
        .args(["l999", "l998"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("never enumerated"), "{stdout}");
    // Malformed labels: usage error.
    let out = canary_bin()
        .arg("why-not")
        .arg(&path)
        .args(["abc", "def"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn json_metrics_carry_the_audit_summary() {
    let path = write_temp("racy_audit_json.cir", RACY);
    let out = canary_bin().arg(&path).arg("--json").output().unwrap();
    let doc: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    let audit = &doc["metrics"]["audit"];
    let candidates = audit["candidates"].as_u64().unwrap();
    let parts = [
        "reported",
        "deduped",
        "prefiltered",
        "unsat",
        "memoized",
        "scope_filtered",
    ]
    .iter()
    .map(|k| audit[*k].as_u64().unwrap())
    .sum::<u64>();
    assert_eq!(
        candidates, parts,
        "reconciliation invariant in --json: {audit}"
    );
    assert_eq!(audit["reported"].as_u64().unwrap(), 1);
}

#[test]
fn stats_prints_the_audit_reconciliation_line() {
    let path = write_temp("racy_audit_stats.cir", RACY);
    let out = canary_bin().arg(&path).arg("--stats").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("audit: "))
        .unwrap_or_else(|| panic!("no audit line: {stdout}"));
    assert!(line.contains("candidates"), "{line}");
    assert!(!line.contains("FAILED"), "{line}");
}
