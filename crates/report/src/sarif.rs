//! SARIF 2.1.0 export (§7's practicality layer: machine-readable,
//! CI-consumable findings).
//!
//! One [`sarif_document`] call turns a run's reports into a
//! `sarifLog`: per-[`BugKind`] rule metadata, one `result` per report
//! with a stable `partialFingerprints` entry (the content-addressed
//! fingerprint of `canary-detect`), thread-aware `codeFlows` built
//! from the witness schedule (one `threadFlow` per static thread;
//! fork and join steps appear in *both* the executing and the
//! forked/joined thread's flow, making them explicit flow-join
//! points), and an `invocations` block carrying the run manifest.
//!
//! The bounded `.cir` programs carry no source positions, so regions
//! use the *statement label* as a 1-based line number (`l7` → line 8)
//! — a documented approximation that keeps locations stable and
//! clickable for the one-statement-per-line corpus programs.

use std::collections::BTreeMap;

use canary_detect::{BugKind, BugReport};
use canary_ir::{render_inst, Inst, Label, Program, MAIN_THREAD};
use serde_json::{json, Value};

/// The SARIF version emitted.
pub const SARIF_VERSION: &str = "2.1.0";

/// The `$schema` URI stamped on every document.
pub const SARIF_SCHEMA_URI: &str =
    "https://docs.oasis-open.org/sarif/sarif/v2.1.0/errata01/os/schemas/sarif-schema-2.1.0.json";

/// The `partialFingerprints` key carrying the Canary fingerprint; the
/// suffix is the fingerprint scheme version.
pub const FINGERPRINT_KEY: &str = "canary/v1";

/// Everything the invocation block records about how the run was
/// configured — the CLI fills this from its parsed flags and the
/// pipeline metrics.
#[derive(Clone, Debug, Default)]
pub struct RunManifest {
    /// The analyzed file, as given on the command line (artifact URI).
    pub file: String,
    /// [`content_hash`](crate::content_hash) of the source text.
    pub corpus_hash: String,
    /// Solver strategy (`fresh` / `incremental`).
    pub strategy: String,
    /// Configured worker threads (`CanaryConfig::threads`).
    pub threads: usize,
    /// Remaining configuration knobs as sorted `(key, value)` pairs.
    pub config: Vec<(String, String)>,
    /// The producing crate version (`CARGO_PKG_VERSION`), so diffed
    /// runs are traceable to a build.
    pub canary_version: String,
    /// The compiler that built the producing binary (`rustc --version`
    /// captured at build time; empty when unavailable).
    pub rustc_version: String,
    /// Phase wall times in milliseconds. **Nondeterministic** — these
    /// live under `invocations[0].properties.timings` so determinism
    /// checks can normalize exactly one subtree.
    pub timings_ms: Vec<(String, f64)>,
}

/// All rules the driver declares, in `ruleIndex` order (the `BugKind`
/// discriminant order, so `kind as usize` indexes this table).
const RULES: [(BugKind, &str, &str); 6] = [
    (
        BugKind::UseAfterFree,
        "UseAfterFree",
        "A freed value flows to a dereference that some sequentially \
         consistent interleaving can execute after the free.",
    ),
    (
        BugKind::DoubleFree,
        "DoubleFree",
        "The same abstract object flows to two free sites that some \
         interleaving can both execute.",
    ),
    (
        BugKind::NullDeref,
        "NullDereference",
        "A null value flows to a dereference along a satisfiable \
         guarded value-flow path.",
    ),
    (
        BugKind::DataLeak,
        "DataLeak",
        "Tainted data flows to a public sink along a satisfiable \
         guarded value-flow path.",
    ),
    (
        BugKind::DoubleLock,
        "DoubleLock",
        "A non-reentrant lock is re-acquired on a path where its \
         guard is still live, self-deadlocking the thread.",
    ),
    (
        BugKind::ConflictLock,
        "ConflictLock",
        "Two threads acquire the same pair of locks in conflicting \
         orders; some interleaving blocks both in a cycle.",
    ),
];

/// The stable SARIF rule id for a bug kind.
pub fn rule_id(kind: BugKind) -> String {
    format!("canary/{kind}")
}

/// Builds the complete SARIF 2.1.0 document for one run.
///
/// `prog` must be the program the reports' labels refer to (the
/// context-cloned program when context sensitivity rewrote it).
pub fn sarif_document(prog: &Program, reports: &[BugReport], manifest: &RunManifest) -> Value {
    let rules: Vec<Value> = RULES
        .iter()
        .map(|&(kind, name, desc)| {
            json!({
                "id": rule_id(kind),
                "name": name,
                "shortDescription": { "text": kind.to_string() },
                "fullDescription": { "text": desc },
                "help": { "text": format!(
                    "Reported when the SMT solver proves the aggregated guard and \
                     program-order constraints (Eq. 5) satisfiable; the codeFlow \
                     replays the witness interleaving. {desc}"
                ) },
                "defaultConfiguration": { "level": "error" },
            })
        })
        .collect();
    let results: Vec<Value> = reports
        .iter()
        .map(|r| result_of(prog, r, manifest))
        .collect();
    let config: BTreeMap<String, Value> = manifest
        .config
        .iter()
        .map(|(k, v)| (k.clone(), Value::String(v.clone())))
        .collect();
    let timings: BTreeMap<String, Value> = manifest
        .timings_ms
        .iter()
        .map(|(k, v)| (k.clone(), serde_json::value_of(v)))
        .collect();
    json!({
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": { "driver": {
                "name": "canary",
                "informationUri": "https://github.com/canary-rs/canary",
                "version": env!("CARGO_PKG_VERSION"),
                "rules": rules,
            }},
            "invocations": [{
                "executionSuccessful": true,
                "properties": {
                    "build": {
                        "canaryVersion": manifest.canary_version,
                        "rustcVersion": manifest.rustc_version,
                    },
                    "config": Value::Object(config),
                    "corpusHash": manifest.corpus_hash,
                    "strategy": manifest.strategy,
                    "threads": manifest.threads,
                    "timings": Value::Object(timings),
                },
            }],
            "artifacts": [{
                "location": { "uri": manifest.file, "index": 0 },
                "hashes": { "fnv1a64": manifest.corpus_hash },
            }],
            "columnKind": "utf16CodeUnits",
            "results": results,
        }],
    })
}

/// A `physicalLocation` for a statement label. No source positions
/// exist in the bounded IR, so the label doubles as a 1-based line.
fn physical_location(file: &str, l: Label) -> Value {
    json!({
        "artifactLocation": { "uri": file, "index": 0 },
        "region": { "startLine": l.0 + 1 },
    })
}

/// A full `location` with the enclosing function as a logical location.
fn location_of(prog: &Program, file: &str, l: Label, text: &str) -> Value {
    json!({
        "physicalLocation": physical_location(file, l),
        "logicalLocations": [{
            "name": prog.func(prog.func_of(l)).name,
            "kind": "function",
        }],
        "message": { "text": text },
    })
}

fn result_of(prog: &Program, r: &BugReport, manifest: &RunManifest) -> Value {
    let fp = r.fingerprint(prog).to_string();
    let scope = if r.inter_thread {
        "inter-thread"
    } else {
        "intra-thread"
    };
    let message = format!(
        "{} ({scope}): {} in `{}` reaches {} in `{}`",
        r.kind,
        render_inst(prog, r.source),
        prog.func(prog.func_of(r.source)).name,
        render_inst(prog, r.sink),
        prog.func(prog.func_of(r.sink)).name,
    );
    let mut fingerprints = BTreeMap::new();
    fingerprints.insert(FINGERPRINT_KEY.to_string(), Value::String(fp));
    json!({
        "ruleId": rule_id(r.kind),
        "ruleIndex": r.kind as usize,
        "level": "error",
        "message": { "text": message },
        "locations": [location_of(
            prog,
            &manifest.file,
            r.sink,
            &format!("sink: {}", render_inst(prog, r.sink)),
        )],
        "relatedLocations": [location_of(
            prog,
            &manifest.file,
            r.source,
            &format!("source: {}", render_inst(prog, r.source)),
        )],
        "partialFingerprints": Value::Object(fingerprints),
        "codeFlows": [{ "threadFlows": thread_flows(prog, r, manifest) }],
        "properties": {
            "constraint": r.constraint,
            "interThread": r.inter_thread,
            "path": r.path.clone(),
            "provenance": r.provenance.as_ref().map(|p| p.to_json()).unwrap_or(Value::Null),
            "witnessSchedule": r.schedule.iter().map(|l| l.to_string()).collect::<Vec<_>>(),
        },
    })
}

/// Builds one `threadFlow` per static thread touched by the witness
/// schedule. Fork and join steps are flow-join points: each appears in
/// the executing thread's flow *and* in the forked/joined thread's
/// flow, so a viewer stepping one thread sees where control handed
/// over. `executionOrder` is the 1-based global schedule position, so
/// the full interleaving is reconstructible across flows. Each step's
/// executing thread is the one the analysis recorded in
/// [`BugReport::step_threads`].
fn thread_flows(prog: &Program, r: &BugReport, manifest: &RunManifest) -> Vec<Value> {
    let schedule: Vec<Label> = if r.schedule.is_empty() {
        vec![r.source, r.sink]
    } else {
        r.schedule.clone()
    };
    let mut flows: BTreeMap<u32, Vec<Value>> = BTreeMap::new();
    let push = |flows: &mut BTreeMap<u32, Vec<Value>>,
                    thread: u32,
                    order: usize,
                    l: Label,
                    text: String,
                    importance: &str| {
        flows.entry(thread).or_default().push(json!({
            "executionOrder": order + 1,
            "importance": importance,
            "location": location_of(prog, &manifest.file, l, &text),
        }));
    };
    for (i, &l) in schedule.iter().enumerate() {
        let exec = r.step_threads.get(i).copied().unwrap_or(MAIN_THREAD).0;
        let stmt = format!("{l}: {}", render_inst(prog, l));
        match prog.inst(l) {
            Inst::Fork { thread, .. } => {
                push(
                    &mut flows,
                    exec,
                    i,
                    l,
                    format!("{stmt} [forks t{}]", thread.0),
                    "essential",
                );
                push(
                    &mut flows,
                    thread.0,
                    i,
                    l,
                    format!("{stmt} [thread t{} starts here]", thread.0),
                    "essential",
                );
            }
            Inst::Join { thread } => {
                push(
                    &mut flows,
                    exec,
                    i,
                    l,
                    format!("{stmt} [joins t{}]", thread.0),
                    "essential",
                );
                push(
                    &mut flows,
                    thread.0,
                    i,
                    l,
                    format!("{stmt} [joined by t{exec}]"),
                    "essential",
                );
            }
            _ => {
                let importance = if l == r.source || l == r.sink {
                    "essential"
                } else {
                    "important"
                };
                push(&mut flows, exec, i, l, stmt, importance);
            }
        }
    }
    flows
        .into_iter()
        .map(|(t, locations)| json!({ "id": format!("t{t}"), "locations": locations }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> (Program, Vec<BugReport>) {
        use canary_ir::{CallGraph, MhpAnalysis, ThreadStructure};
        let prog: Program = canary_ir::parse(src).unwrap();
        prog.validate().unwrap();
        let cg = CallGraph::build(&prog);
        let ts = ThreadStructure::compute(&prog, &cg);
        let mhp = MhpAnalysis::new(&prog, &cg, &ts);
        let mut pool = canary_smt::TermPool::new();
        let mut df = canary_dataflow::run(&prog, &cg, &mut pool);
        canary_interference::run(
            &prog,
            &ts,
            &mhp,
            &mut df,
            &mut pool,
            &canary_interference::InterferenceOptions::default(),
        );
        let opts = canary_detect::DetectOptions::default();
        let ctx = canary_detect::DetectContext::new(&prog, &ts, &mhp, &df, &opts);
        let mut stats = canary_detect::DetectStats::default();
        let reports = canary_detect::check_all_kinds(&ctx, &mut pool, &opts, &mut stats);
        (prog, reports)
    }

    fn manifest() -> RunManifest {
        RunManifest {
            file: "test.cir".into(),
            corpus_hash: "deadbeefdeadbeef".into(),
            strategy: "incremental".into(),
            threads: 1,
            config: vec![("memory_model".into(), "sc".into())],
            canary_version: "0.0.0-test".into(),
            rustc_version: "rustc 0.0.0-test".into(),
            timings_ms: vec![("detect".into(), 1.5)],
        }
    }

    const RACY: &str = "fn main() { p = alloc o; fork t w(p); free p; }
                        fn w(q) { use q; }";

    #[test]
    fn document_shape_and_rules() {
        let (prog, reports) = analyze(RACY);
        assert!(!reports.is_empty());
        let doc = sarif_document(&prog, &reports, &manifest());
        assert_eq!(doc.get("version").unwrap().as_str().unwrap(), "2.1.0");
        let runs = doc.get("runs").unwrap().as_array().unwrap();
        assert_eq!(runs.len(), 1);
        let rules = runs[0]
            .get("tool").unwrap()
            .get("driver").unwrap()
            .get("rules").unwrap()
            .as_array().unwrap();
        assert_eq!(rules.len(), 6);
        assert_eq!(
            rules[0].get("id").unwrap().as_str().unwrap(),
            "canary/use-after-free"
        );
        let results = runs[0].get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), reports.len());
        for (res, rep) in results.iter().zip(&reports) {
            assert_eq!(
                res.get("ruleIndex").unwrap().as_u64().unwrap(),
                rep.kind as u64
            );
            let fp = res
                .get("partialFingerprints").unwrap()
                .get(FINGERPRINT_KEY).unwrap()
                .as_str().unwrap();
            assert_eq!(fp, rep.fingerprint(&prog).to_string());
        }
    }

    #[test]
    fn code_flows_have_one_thread_flow_per_thread_with_fork_join_points() {
        let (prog, reports) = analyze(RACY);
        let uaf = reports
            .iter()
            .find(|r| r.kind == BugKind::UseAfterFree)
            .unwrap();
        let doc = sarif_document(&prog, std::slice::from_ref(uaf), &manifest());
        let s = serde_json::to_string(&doc).unwrap();
        let flows = doc.get("runs").unwrap().as_array().unwrap()[0]
            .get("results").unwrap().as_array().unwrap()[0]
            .get("codeFlows").unwrap().as_array().unwrap()[0]
            .get("threadFlows").unwrap().as_array().unwrap();
        // The racy program has a main thread and one forked thread.
        assert_eq!(flows.len(), 2, "{s}");
        let ids: Vec<&str> = flows
            .iter()
            .map(|f| f.get("id").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(ids, vec!["t0", "t1"]);
        // The fork step appears in both flows (flow-join point).
        assert!(s.contains("[forks t1]"));
        assert!(s.contains("[thread t1 starts here]"));
        // Execution order is 1-based and present on every location.
        for f in flows {
            for loc in f.get("locations").unwrap().as_array().unwrap() {
                assert!(loc.get("executionOrder").unwrap().as_u64().unwrap() >= 1);
            }
        }
    }

    #[test]
    fn invocation_carries_manifest() {
        let (prog, reports) = analyze(RACY);
        let doc = sarif_document(&prog, &reports, &manifest());
        let inv = &doc.get("runs").unwrap().as_array().unwrap()[0]
            .get("invocations").unwrap().as_array().unwrap()[0];
        let props = inv.get("properties").unwrap();
        assert_eq!(
            props.get("corpusHash").unwrap().as_str().unwrap(),
            "deadbeefdeadbeef"
        );
        assert_eq!(props.get("strategy").unwrap().as_str().unwrap(), "incremental");
        assert_eq!(props.get("threads").unwrap().as_u64().unwrap(), 1);
        assert!(props.get("timings").unwrap().get("detect").is_some());
        assert!(props.get("config").unwrap().get("memory_model").is_some());
    }

    #[test]
    fn clean_program_yields_empty_results() {
        let (prog, reports) = analyze("fn main() { p = alloc o; use p; free p; }");
        assert!(reports.is_empty());
        let doc = sarif_document(&prog, &reports, &manifest());
        let results = doc.get("runs").unwrap().as_array().unwrap()[0]
            .get("results").unwrap().as_array().unwrap();
        assert!(results.is_empty());
    }
}
