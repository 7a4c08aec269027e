//! SARIF 2.1.0 export (§7's practicality layer: machine-readable,
//! CI-consumable findings).
//!
//! One [`sarif_document`] call describes a run's reports as a
//! `sarifLog`, written as JSON text when serialized: per-[`BugKind`]
//! rule metadata, one `result` per report
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
use std::fmt;

use canary_detect::{BugKind, BugReport};
use canary_ir::{render_inst, Inst, Label, Program, MAIN_THREAD};
use serde::{JsonWriter, Serialize};
use serde_json::Value;

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
pub fn sarif_document<'a>(
    prog: &'a Program,
    reports: &'a [BugReport],
    manifest: &'a RunManifest,
) -> SarifLog<'a> {
    SarifLog {
        prog,
        reports,
        manifest,
    }
}

/// One run's `sarifLog`, borrowed from the run's outputs.
///
/// Serializing it (`serde_json::to_string_pretty`) streams the
/// document as text, with every object's keys in sorted order — the
/// bytes a `Value` tree of the same document renders to. Callers that
/// walk the document take `serde_json::to_value`, which parses that
/// text.
#[derive(Clone, Copy, Debug)]
pub struct SarifLog<'a> {
    prog: &'a Program,
    reports: &'a [BugReport],
    manifest: &'a RunManifest,
}

impl Serialize for SarifLog<'_> {
    fn to_value(&self) -> Value {
        let text = serde_json::to_string(self).expect("SARIF text is valid JSON");
        serde_json::from_str(&text).expect("SARIF text is valid JSON")
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("$schema", SARIF_SCHEMA_URI);
            w.key("runs");
            w.array(|w| self.write_run(w));
            w.field("version", SARIF_VERSION);
        });
    }
}

impl SarifLog<'_> {
    fn write_run(&self, w: &mut JsonWriter) {
        let m = self.manifest;
        w.object(|w| {
            w.key("artifacts");
            w.array(|w| {
                w.object(|w| {
                    w.key("hashes");
                    w.object(|w| w.field("fnv1a64", &m.corpus_hash));
                    w.key("location");
                    w.object(|w| {
                        w.field("index", &0u32);
                        w.field("uri", &m.file);
                    });
                });
            });
            w.field("columnKind", "utf16CodeUnits");
            w.key("invocations");
            w.array(|w| w.object(|w| write_invocation(w, m)));
            w.key("results");
            w.array(|w| {
                for r in self.reports {
                    self.write_result(w, r);
                }
            });
            w.key("tool");
            w.object(|w| {
                w.key("driver");
                w.object(write_driver);
            });
        });
    }

    fn write_result(&self, w: &mut JsonWriter, r: &BugReport) {
        let prog = self.prog;
        let scope = if r.inter_thread {
            "inter-thread"
        } else {
            "intra-thread"
        };
        w.object(|w| {
            w.key("codeFlows");
            w.array(|w| {
                w.object(|w| {
                    w.key("threadFlows");
                    self.write_thread_flows(w, r);
                });
            });
            w.field("level", "error");
            w.key("locations");
            w.array(|w| {
                let sink = format_args!("sink: {}", render_inst(prog, r.sink));
                self.write_location(w, r.sink, sink);
            });
            w.key("message");
            text_object(
                w,
                format_args!(
                    "{} ({scope}): {} in `{}` reaches {} in `{}`",
                    r.kind,
                    render_inst(prog, r.source),
                    prog.func(prog.func_of(r.source)).name,
                    render_inst(prog, r.sink),
                    prog.func(prog.func_of(r.sink)).name,
                ),
            );
            w.key("partialFingerprints");
            w.object(|w| {
                w.key(FINGERPRINT_KEY);
                w.display(r.fingerprint(prog));
            });
            w.key("properties");
            w.object(|w| {
                w.field("constraint", &r.constraint);
                w.field("interThread", &r.inter_thread);
                w.field("path", &r.path);
                w.field("provenance", &r.provenance.as_ref().map(|p| p.to_json()));
                w.key("witnessSchedule");
                w.array(|w| {
                    for l in &r.schedule {
                        w.display(l);
                    }
                });
            });
            w.key("relatedLocations");
            w.array(|w| {
                let source = format_args!("source: {}", render_inst(prog, r.source));
                self.write_location(w, r.source, source);
            });
            w.field("ruleId", &rule_id(r.kind));
            w.field("ruleIndex", &(r.kind as usize));
        });
    }

    /// A full `location` with the enclosing function as a logical
    /// location. No source positions exist in the bounded IR, so the
    /// label doubles as a 1-based line of the `physicalLocation`.
    fn write_location(&self, w: &mut JsonWriter, l: Label, text: impl fmt::Display) {
        w.object(|w| {
            w.key("logicalLocations");
            w.array(|w| {
                w.object(|w| {
                    w.field("kind", "function");
                    w.field("name", &self.prog.func(self.prog.func_of(l)).name);
                });
            });
            w.key("message");
            text_object(w, text);
            w.key("physicalLocation");
            w.object(|w| {
                w.key("artifactLocation");
                w.object(|w| {
                    w.field("index", &0u32);
                    w.field("uri", &self.manifest.file);
                });
                w.key("region");
                w.object(|w| w.field("startLine", &(l.0 + 1)));
            });
        });
    }

    /// Writes one `threadFlow` per static thread touched by the witness
    /// schedule, in thread order. Fork and join steps are flow-join
    /// points: each appears in the executing thread's flow *and* in
    /// the forked/joined thread's flow, so a viewer stepping one thread
    /// sees where control handed over. `executionOrder` is the 1-based
    /// global schedule position, so the full interleaving is
    /// reconstructible across flows. Each step's executing thread is
    /// the one the analysis recorded in [`BugReport::step_threads`].
    fn write_thread_flows(&self, w: &mut JsonWriter, r: &BugReport) {
        let prog = self.prog;
        let fallback = [r.source, r.sink];
        let schedule: &[Label] = if r.schedule.is_empty() {
            &fallback
        } else {
            &r.schedule
        };
        let mut steps: Vec<FlowStep> = Vec::with_capacity(schedule.len());
        for (i, &l) in schedule.iter().enumerate() {
            let exec = r.step_threads.get(i).copied().unwrap_or(MAIN_THREAD).0;
            let stmt = format!("{l}: {}", render_inst(prog, l));
            let mut step = |thread: u32, text: String, importance: &'static str| {
                steps.push(FlowStep {
                    thread,
                    order: i + 1,
                    label: l,
                    text,
                    importance,
                });
            };
            match prog.inst(l) {
                Inst::Fork { thread, .. } => {
                    let t = thread.0;
                    step(exec, format!("{stmt} [forks t{t}]"), "essential");
                    step(t, format!("{stmt} [thread t{t} starts here]"), "essential");
                }
                Inst::Join { thread } => {
                    let t = thread.0;
                    step(exec, format!("{stmt} [joins t{t}]"), "essential");
                    step(t, format!("{stmt} [joined by t{exec}]"), "essential");
                }
                _ => {
                    let importance = if l == r.source || l == r.sink {
                        "essential"
                    } else {
                        "important"
                    };
                    step(exec, stmt, importance);
                }
            }
        }
        // Stable: each flow keeps its steps in schedule order.
        steps.sort_by_key(|s| s.thread);
        w.array(|w| {
            for flow in steps.chunk_by(|a, b| a.thread == b.thread) {
                w.object(|w| {
                    w.key("id");
                    w.display(format_args!("t{}", flow[0].thread));
                    w.key("locations");
                    w.array(|w| {
                        for s in flow {
                            w.object(|w| {
                                w.field("executionOrder", &s.order);
                                w.field("importance", s.importance);
                                w.key("location");
                                self.write_location(w, s.label, &s.text);
                            });
                        }
                    });
                });
            }
        });
    }
}

/// One location of a `threadFlow`, before the steps are grouped by
/// thread.
struct FlowStep {
    thread: u32,
    /// 1-based position in the global schedule.
    order: usize,
    label: Label,
    text: String,
    importance: &'static str,
}

/// The `invocations[0]` object: the run manifest.
fn write_invocation(w: &mut JsonWriter, m: &RunManifest) {
    // Sorted by key; a repeated key keeps its last value.
    let config: BTreeMap<&str, &str> = m
        .config
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    let timings: BTreeMap<&str, f64> = m.timings_ms.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    w.field("executionSuccessful", &true);
    w.key("properties");
    w.object(|w| {
        w.key("build");
        w.object(|w| {
            w.field("canaryVersion", &m.canary_version);
            w.field("rustcVersion", &m.rustc_version);
        });
        w.key("config");
        w.object(|w| {
            for (k, v) in &config {
                w.field(k, *v);
            }
        });
        w.field("corpusHash", &m.corpus_hash);
        w.field("strategy", &m.strategy);
        w.field("threads", &m.threads);
        w.key("timings");
        w.object(|w| {
            for (k, v) in &timings {
                w.field(k, v);
            }
        });
    });
}

/// The `tool.driver` object with one rule per [`BugKind`].
fn write_driver(w: &mut JsonWriter) {
    w.field("informationUri", "https://github.com/canary-rs/canary");
    w.field("name", "canary");
    w.key("rules");
    w.array(|w| {
        for &(kind, name, desc) in &RULES {
            w.object(|w| {
                w.key("defaultConfiguration");
                w.object(|w| w.field("level", "error"));
                w.key("fullDescription");
                text_object(w, desc);
                w.key("help");
                text_object(
                    w,
                    format_args!(
                        "Reported when the SMT solver proves the aggregated guard and \
                         program-order constraints (Eq. 5) satisfiable; the codeFlow \
                         replays the witness interleaving. {desc}"
                    ),
                );
                w.field("id", &rule_id(kind));
                w.field("name", name);
                w.key("shortDescription");
                text_object(w, kind);
            });
        }
    });
    w.field("version", env!("CARGO_PKG_VERSION"));
}

/// A SARIF `message` object: `{"text": text}`.
fn text_object(w: &mut JsonWriter, text: impl fmt::Display) {
    w.object(|w| {
        w.key("text");
        w.display(text);
    });
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
        let doc = serde_json::to_value(&sarif_document(&prog, &reports, &manifest())).unwrap();
        assert_eq!(doc.get("version").unwrap().as_str().unwrap(), "2.1.0");
        let runs = doc.get("runs").unwrap().as_array().unwrap();
        assert_eq!(runs.len(), 1);
        let rules = runs[0]
            .get("tool")
            .unwrap()
            .get("driver")
            .unwrap()
            .get("rules")
            .unwrap()
            .as_array()
            .unwrap();
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
                .get("partialFingerprints")
                .unwrap()
                .get(FINGERPRINT_KEY)
                .unwrap()
                .as_str()
                .unwrap();
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
        let doc = serde_json::to_value(&sarif_document(
            &prog,
            std::slice::from_ref(uaf),
            &manifest(),
        ))
        .unwrap();
        let s = serde_json::to_string(&doc).unwrap();
        let flows = doc.get("runs").unwrap().as_array().unwrap()[0]
            .get("results")
            .unwrap()
            .as_array()
            .unwrap()[0]
            .get("codeFlows")
            .unwrap()
            .as_array()
            .unwrap()[0]
            .get("threadFlows")
            .unwrap()
            .as_array()
            .unwrap();
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
        let doc = serde_json::to_value(&sarif_document(&prog, &reports, &manifest())).unwrap();
        let inv = &doc.get("runs").unwrap().as_array().unwrap()[0]
            .get("invocations")
            .unwrap()
            .as_array()
            .unwrap()[0];
        let props = inv.get("properties").unwrap();
        assert_eq!(
            props.get("corpusHash").unwrap().as_str().unwrap(),
            "deadbeefdeadbeef"
        );
        assert_eq!(
            props.get("strategy").unwrap().as_str().unwrap(),
            "incremental"
        );
        assert_eq!(props.get("threads").unwrap().as_u64().unwrap(), 1);
        assert!(props.get("timings").unwrap().get("detect").is_some());
        assert!(props.get("config").unwrap().get("memory_model").is_some());
    }

    /// Streams `reports`' SARIF in both modes and checks each text
    /// against the one its own parse re-renders to: a key written out
    /// of sorted order, or any other divergence from the `Value`
    /// rendering, shows up as a difference.
    fn assert_streams_canonically(prog: &Program, reports: &[BugReport]) -> String {
        let manifest = manifest();
        let log = sarif_document(prog, reports, &manifest);
        let pretty = serde_json::to_string_pretty(&log).unwrap();
        let parsed: Value = serde_json::from_str(&pretty).unwrap();
        assert_eq!(pretty, serde_json::to_string_pretty(&parsed).unwrap());
        let compact = serde_json::to_string(&log).unwrap();
        assert_eq!(compact, serde_json::to_string(&parsed).unwrap());
        assert_eq!(serde_json::to_value(&log).unwrap(), parsed);
        pretty
    }

    #[test]
    fn streamed_text_matches_its_reparse() {
        // Fork and join steps: the child's free, the join, then the
        // parent's second free.
        let (prog, reports) = analyze(
            "fn main() { p = alloc o; fork t w(p); join t; free p; }
             fn w(q) { free q; }",
        );
        let text = assert_streams_canonically(&prog, &reports);
        for step in [
            "[forks t1]",
            "[thread t1 starts here]",
            "[joins t1]",
            "[joined by t0]",
        ] {
            assert!(text.contains(step), "{step} missing from {text}");
        }
        // A report without provenance.
        let (prog, mut reports) = analyze(RACY);
        reports.truncate(1);
        reports[0].provenance = None;
        let text = assert_streams_canonically(&prog, &reports);
        assert!(text.contains("\"provenance\": null"), "{text}");
        // No reports at all.
        let text = assert_streams_canonically(&prog, &[]);
        assert!(text.contains("\"results\": []"), "{text}");
    }

    #[test]
    fn clean_program_yields_empty_results() {
        let (prog, reports) = analyze("fn main() { p = alloc o; use p; free p; }");
        assert!(reports.is_empty());
        let doc = serde_json::to_value(&sarif_document(&prog, &reports, &manifest())).unwrap();
        let results = doc.get("runs").unwrap().as_array().unwrap()[0]
            .get("results")
            .unwrap()
            .as_array()
            .unwrap();
        assert!(results.is_empty());
    }
}
