//! The three benchmark workloads: their subjects, per-subject
//! configuration and the answers each verdict is checked against.

use std::path::Path;

use canary_core::{Canary, CanaryConfig};
use canary_detect::{BugKind, MemoryModel};
use canary_ir::{print_program, Label, Program};
use canary_report::{content_hash, RunManifest};
use canary_workloads::{
    generate, table1_suite, SeededBug, SuiteScale, Workload as Generated, WorkloadSpec,
};

/// Offsets every generated subject seed by `run_seed` steps of a large
/// prime, so `--seed 0` reproduces the seeds the repository's helpers
/// and tests use and every other value gives fresh programs of the
/// same shape and size (the generator's random choices shape only the
/// filler, so filler-free programs barely change).
pub fn reseed(base: u64, run_seed: u64) -> u64 {
    base.wrapping_add(run_seed.wrapping_mul(1_000_003))
}

/// How a subject reaches the analyzer.
pub enum Input {
    /// An already-built program from a generator.
    Program(Program),
    /// `.cir` source text, parsed and validated in every pass.
    Text(String),
}

/// A finding the subject must produce.
pub enum Expected {
    /// A generator-seeded bug, matched by kind and labels.
    Seeded(SeededBug),
    /// A bug named in an example's header comment, matched by kind and
    /// the rendered source and sink statements.
    Stated {
        kind: BugKind,
        source: &'static str,
        sink: &'static str,
    },
}

impl Expected {
    fn matches(&self, prog: &Program, kind: BugKind, source: Label, sink: Label) -> bool {
        match self {
            Expected::Seeded(b) => b.kind == kind && b.source == source && b.sink == sink,
            Expected::Stated {
                kind: k,
                source: s,
                sink: t,
            } => {
                *k == kind
                    && canary_ir::render_inst(prog, source) == *s
                    && canary_ir::render_inst(prog, sink) == *t
            }
        }
    }

    fn describe(&self) -> String {
        match self {
            Expected::Seeded(b) => format!("{} {}->{}", b.kind, b.source, b.sink),
            Expected::Stated { kind, source, sink } => format!("{kind} `{source}` -> `{sink}`"),
        }
    }
}

/// One program the workload analyzes, with everything needed to run
/// and judge it.
pub struct Subject {
    pub name: String,
    pub input: Input,
    pub canary: Canary,
    /// Findings that must be reported.
    pub expected: Vec<Expected>,
    /// Whether `expected` is the complete list (the examples' header
    /// comments state their whole outcome; generated programs also
    /// carry benign look-alikes that are reported by design).
    pub exhaustive: bool,
}

impl Subject {
    pub fn model(&self) -> MemoryModel {
        self.canary.config().detect.memory_model
    }

    /// The program to analyze: the generated one, or `parsed` for text
    /// input.
    pub fn program<'a>(&'a self, parsed: Option<&'a Program>) -> &'a Program {
        match &self.input {
            Input::Program(p) => p,
            Input::Text(_) => parsed.expect("text input is parsed before analysis"),
        }
    }
}

/// What one workload run analyzes and how.
pub struct Workload {
    pub name: &'static str,
    /// Whether each pass also writes the audit JSONL and OpenMetrics
    /// exports and replays every witness on the oracle.
    pub full_artifacts: bool,
    pub subjects: Vec<Subject>,
}

/// Builds the named workload's subjects from `run_seed`. This is the
/// work `setup_s` times (together with a warm-up pass).
pub fn build(name: &str, run_seed: u64) -> Result<Workload, String> {
    match name {
        "scale-sweep" => Ok(scale_sweep(run_seed)),
        "hard-families" => Ok(hard_families(run_seed)),
        "small-programs" => small_programs(run_seed),
        _ => Err(format!(
            "unknown workload `{name}` (expected scale-sweep, hard-families or small-programs)"
        )),
    }
}

/// Analysis threads of every workload. Two workers gave no speed-up on
/// a 2-vCPU host and several times the run-to-run spread of one, too
/// wide for a regression bound.
pub const THREADS: usize = 1;

fn config(model: MemoryModel, verify_witnesses: bool) -> CanaryConfig {
    let mut c = CanaryConfig {
        threads: THREADS,
        verify_witnesses,
        ..CanaryConfig::default()
    };
    c.detect.memory_model = model;
    c
}

fn generated(name: String, w: Generated, model: MemoryModel, verify_witnesses: bool) -> Subject {
    let expected = w
        .truth
        .seeded
        .into_iter()
        .filter(|b| b.visible_under(model))
        .map(Expected::Seeded)
        .collect();
    Subject {
        name,
        input: Input::Program(w.prog),
        canary: Canary::with_config(config(model, verify_witnesses)),
        expected,
        exhaustive: false,
    }
}

/// The 20 Tbl. 1 subjects at 4 statements per paper-KLoC (Fig. 8
/// shape): default checkers, SC, one thread, SARIF.
fn scale_sweep(run_seed: u64) -> Workload {
    let scale = SuiteScale {
        stmts_per_kloc: 4.0,
        ..SuiteScale::default()
    };
    let subjects = table1_suite(scale)
        .into_iter()
        .map(|mut spec| {
            spec.seed = reseed(spec.seed, run_seed);
            let w = generate(&spec);
            generated(spec.name, w, MemoryModel::Sc, false)
        })
        .collect();
    Workload {
        name: "scale-sweep",
        full_artifacts: false,
        subjects,
    }
}

/// The saturation corpus (Fig. 7 shape) plus the two query-family
/// subjects: default checkers, SC, one thread, SARIF.
fn hard_families(run_seed: u64) -> Workload {
    // The points of `canary_bench::saturation_corpus(1.0)`, rebuilt
    // here so their seeds can follow `--seed`.
    let points = [
        ("sat-2k", 2000, 8, 5),
        ("sat-5k", 5000, 12, 6),
        ("sat-9k", 9000, 16, 6),
    ];
    let mut subjects: Vec<Subject> = points
        .iter()
        .map(|&(name, size, families, fanout)| {
            let spec = WorkloadSpec {
                name: name.into(),
                seed: reseed(0xB50 + size as u64, run_seed),
                target_stmts: size,
                threads: 3,
                shared_cells: 6,
                true_bugs: 2,
                benign_patterns: 2,
                contradiction_patterns: families,
                handshake_patterns: 1,
                order_fp_patterns: 2,
                double_free: 1,
                null_deref: 1,
                leak: 1,
                double_lock: 0,
                conflict_lock: 0,
                sb_patterns: 0,
                mp_patterns: 0,
                lb_patterns: 0,
                family_fanout: fanout,
                hard_family_ratio: 0.5,
                filler: true,
            };
            let w = generate(&spec);
            generated(spec.name, w, MemoryModel::Sc, false)
        })
        .collect();
    // The fixed query-family subjects of `canary_bench::bench_corpus`:
    // bug-free, every family member refuted through the lock and
    // handshake disjunctions.
    for (name, sources, stores, locks) in [("family-guarded", 4, 10, 6), ("family-wide", 6, 16, 4)]
    {
        subjects.push(Subject {
            name: name.into(),
            input: Input::Program(canary_bench::family_subject(sources, stores, locks)),
            canary: Canary::with_config(config(MemoryModel::Sc, false)),
            expected: Vec::new(),
            exhaustive: true,
        });
    }
    Workload {
        name: "hard-families",
        full_artifacts: false,
        subjects,
    }
}

/// Generated small programs per constructor in `small-programs`.
const SMALL_SEEDS: u64 = 16;

/// Findings an example's header comment states: kind, source and sink
/// statement.
type Stated = &'static [(BugKind, &'static str, &'static str)];

/// The shipped examples, with the outcome their header comments state.
const EXAMPLES: [(&str, MemoryModel, Stated); 5] = [
    ("audited.cir", MemoryModel::Sc, &[]),
    (
        "deadlock.cir",
        MemoryModel::Sc,
        &[
            (BugKind::DoubleLock, "lock mg", "lock mg"),
            (BugKind::ConflictLock, "lock mb", "lock x"),
        ],
    ),
    ("fig2.cir", MemoryModel::Sc, &[]),
    (
        "fig2_variant.cir",
        MemoryModel::Sc,
        &[(BugKind::UseAfterFree, "free b", "use c")],
    ),
    (
        "tso_sb.cir",
        MemoryModel::Tso,
        &[(BugKind::DoubleFree, "free seen", "free seen2")],
    ),
];

/// The five `examples/*.cir` files parsed from text, plus lean,
/// lean-locks and litmus programs: one thread, full CI artifact set.
/// Litmus programs run under TSO or PSO, where their seeded
/// weak-memory bugs are visible.
fn small_programs(run_seed: u64) -> Result<Workload, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../examples");
    let mut subjects = Vec::new();
    for (file, model, stated) in EXAMPLES {
        let path = dir.join(file);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        subjects.push(Subject {
            name: file.into(),
            input: Input::Text(text),
            canary: Canary::with_config(config(model, true)),
            expected: stated
                .iter()
                .map(|&(kind, source, sink)| Expected::Stated { kind, source, sink })
                .collect(),
            exhaustive: true,
        });
    }
    for i in 0..SMALL_SEEDS {
        let seed = reseed(i, run_seed);
        // Odd litmus seeds also carry an SC use-after-free; tying the
        // model to that keeps the mix of program shapes the same for
        // every `--seed`.
        let weak = if seed % 2 == 1 {
            MemoryModel::Tso
        } else {
            MemoryModel::Pso
        };
        for (spec, model) in [
            (WorkloadSpec::lean(seed), MemoryModel::Sc),
            (WorkloadSpec::lean_locks(seed), MemoryModel::Sc),
            (WorkloadSpec::litmus(seed), weak),
        ] {
            let w = generate(&spec);
            subjects.push(generated(spec.name, w, model, true));
        }
    }
    Ok(Workload {
        name: "small-programs",
        full_artifacts: true,
        subjects,
    })
}

/// A subject's input digest: the FNV content hash of its `.cir` text,
/// or of the printed program for generated subjects.
pub fn digest(s: &Subject) -> String {
    match &s.input {
        Input::Text(t) => content_hash(t.as_bytes()),
        Input::Program(p) => content_hash(print_program(p).as_bytes()),
    }
}

/// The SARIF run manifest for a subject: its name, input digest and
/// configuration (phase timings are added per pass, as the CLI does).
pub fn manifest(s: &Subject, digest: &str) -> RunManifest {
    let c = s.canary.config();
    let checkers: Vec<String> = c.checkers.iter().map(ToString::to_string).collect();
    RunManifest {
        file: s.name.clone(),
        corpus_hash: digest.to_string(),
        strategy: c.detect.solver.strategy.as_str().to_string(),
        threads: c.threads,
        canary_version: env!("CARGO_PKG_VERSION").to_string(),
        rustc_version: String::new(),
        config: vec![
            ("checkers".into(), checkers.join(",")),
            ("memory_model".into(), model_name(s.model()).into()),
            ("verify_witnesses".into(), c.verify_witnesses.to_string()),
        ],
        timings_ms: Vec::new(),
    }
}

pub fn model_name(m: MemoryModel) -> &'static str {
    match m {
        MemoryModel::Sc => "sc",
        MemoryModel::Tso => "tso",
        MemoryModel::Pso => "pso",
    }
}

/// Judges one subject's findings against its answers: every expected
/// finding must be reported (and, for exhaustive lists, nothing else),
/// and every report's witness must replay on the oracle under the
/// subject's memory model. Returns the reasons it is wrong, if any.
pub fn judge(s: &Subject, prog: &Program, reports: &[canary_detect::BugReport]) -> Vec<String> {
    let mut wrong = Vec::new();
    for e in &s.expected {
        if !reports
            .iter()
            .any(|r| e.matches(prog, r.kind, r.source, r.sink))
        {
            wrong.push(format!("missed {}", e.describe()));
        }
    }
    for r in reports {
        if s.exhaustive
            && !s
                .expected
                .iter()
                .any(|e| e.matches(prog, r.kind, r.source, r.sink))
        {
            wrong.push(format!("unexpected {} {}->{}", r.kind, r.source, r.sink));
        }
        let replay = canary_oracle::replay_report_under(prog, s.model(), r);
        if !replay.confirmed() {
            wrong.push(format!(
                "witness of {} {}->{} does not replay: {replay:?}",
                r.kind, r.source, r.sink
            ));
        }
    }
    wrong
}
