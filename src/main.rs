//! The `canary` command-line interface.
//!
//! ```text
//! canary <program.cir> [options]
//! canary diff <baseline.sarif> <current.sarif>
//! canary why <program.cir> <fingerprint> [options]
//! canary why-not <program.cir> <source_label> <sink_label> [options]
//!
//! options:
//!   --checkers LIST       comma list of uaf,doublefree,nullderef,leak,
//!                         doublelock,conflictlock (default: all six)
//!   --inter-thread-only   report only witnesses spanning threads
//!   --format FMT          stdout format: text (default), json or sarif
//!   --json                shorthand for --format json
//!   --json-out FILE       also write the JSON document to FILE
//!   --sarif-out FILE      also write the SARIF 2.1.0 document to FILE
//!   --baseline FILE       classify findings against a baseline SARIF
//!                         run as new / persisting / fixed; the exit
//!                         code then reflects *new* findings only
//!   --no-mhp              disable may-happen-in-parallel pruning
//!   --no-sync             disable lock/wait constraint generation
//!   --no-prefilter        disable the semi-decision prefilter
//!   --memory-model MODEL  sc (default), tso or pso
//!   --threads N           query-family solver workers (default 1;
//!                         output is byte-identical for any value)
//!   --solver-strategy S   fresh (one solver per query) or incremental
//!                         (query-family solving with UNSAT-core
//!                         subsumption and memoization; the default)
//!   --unroll K            loop unrolling depth (default 2)
//!   --context-depth N     clone-based context sensitivity depth
//!                         (default 0 = context-insensitive)
//!   --max-paths N         candidate path budget per source
//!   --max-path-len N      candidate path length budget
//!   --tool NAME           canary (default), or the saber / fsam
//!                         unguarded baselines
//!   --explain             print a minimized unsat core for each
//!                         refuted candidate
//!   --verify-witnesses    concretely replay each report's witness
//!                         schedule with the oracle interpreter
//!   --trace-out FILE      write a Chrome trace-event profile (open in
//!                         Perfetto or chrome://tracing)
//!   --metrics-out FILE    write the run-health metrics registry as
//!                         OpenMetrics text (scrape-ready)
//!   --audit-out FILE      write the per-candidate audit log as JSONL
//!                         (one disposition certificate per line; see
//!                         docs/audit_schema.md) — byte-identical
//!                         across every scheduling and strategy knob
//!   --slow-query-ms N     log any SMT query at or over N ms to stderr
//!                         with its full QueryProfile attribution
//!   --log LEVEL           off, summary or debug; overrides CANARY_LOG
//!   --stats               print the run's counters and gauges, the
//!                         audit line and the hottest queries/functions
//! ```
//!
//! The `diff` subcommand compares two SARIF files by their stable
//! `canary/v1` fingerprints and exits 0 (no new findings), 1 (new
//! findings) or 2 (error).
//!
//! The `why` subcommand re-analyzes a program and explains one emitted
//! finding by its stable fingerprint (exit 0 found, 1 not found, 2 on
//! error); `why-not` explains why a source/sink pair was *not*
//! reported, printing the audit layer's disposition certificates for
//! the pair — MHP facts, lock-sharpening witnesses, prefilter folds,
//! UNSAT conjuncts, memo origins (same exit conventions).
//!
//! The `CANARY_LOG` environment variable (`summary` or `debug`) turns
//! on human-readable progress lines on stderr; stdout stays reserved
//! for results. `--log` overrides it per invocation.

use std::process::ExitCode;

use canary_core::{Canary, CanaryConfig};
use canary_detect::{BugKind, MemoryModel};
use canary_interference::InterferenceOptions;
use canary_ir::ParseOptions;
use canary_smt::{SolverOptions, SolverStrategy};

/// Rows shown in the `--stats` / `--json` hottest-queries and
/// hottest-functions tables.
const TOP_K: usize = 5;

fn usage() -> ! {
    eprintln!(
        "usage: canary <program.cir> \
         [--checkers uaf,doublefree,nullderef,leak,doublelock,conflictlock] \
         [--inter-thread-only] [--format text|json|sarif] [--json] \
         [--json-out FILE] [--sarif-out FILE] [--baseline FILE] \
         [--no-mhp] [--no-sync] [--no-prefilter] \
         [--memory-model sc|tso|pso] [--threads N] \
         [--solver-strategy fresh|incremental] [--unroll K] \
         [--context-depth N] [--max-paths N] [--max-path-len N] \
         [--tool canary|saber|fsam] [--explain] [--verify-witnesses] \
         [--trace-out FILE] [--metrics-out FILE] [--audit-out FILE] \
         [--slow-query-ms N] [--log off|summary|debug] [--stats]\n\
         \x20      canary diff <baseline.sarif> <current.sarif>\n\
         \x20      canary why <program.cir> <fingerprint> [options]\n\
         \x20      canary why-not <program.cir> <source_label> <sink_label> [options]"
    );
    std::process::exit(2);
}

/// What the main stdout stream carries.
#[derive(Copy, Clone, PartialEq, Eq)]
enum OutputFormat {
    Text,
    Json,
    Sarif,
}

enum Tool {
    Canary,
    Saber,
    Fsam,
}

struct Cli {
    file: String,
    config: CanaryConfig,
    format: OutputFormat,
    stats: bool,
    tool: Tool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    audit_out: Option<String>,
    json_out: Option<String>,
    sarif_out: Option<String>,
    baseline: Option<String>,
}

fn parse_args(args: &[String]) -> Cli {
    let mut file: Option<String> = None;
    let mut config = CanaryConfig::default();
    let mut format = OutputFormat::Text;
    let mut stats = false;
    let mut tool = Tool::Canary;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut audit_out: Option<String> = None;
    let mut json_out: Option<String> = None;
    let mut sarif_out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--checkers" => {
                i += 1;
                let Some(list) = args.get(i) else { usage() };
                config.checkers = list
                    .split(',')
                    .map(|c| match c.trim() {
                        "uaf" | "use-after-free" => BugKind::UseAfterFree,
                        "doublefree" | "double-free" | "df" => BugKind::DoubleFree,
                        "nullderef" | "null" => BugKind::NullDeref,
                        "leak" | "taint" => BugKind::DataLeak,
                        "doublelock" | "double-lock" | "dl" => BugKind::DoubleLock,
                        "conflictlock" | "conflict-lock" | "deadlock" => BugKind::ConflictLock,
                        other => {
                            eprintln!("unknown checker `{other}`");
                            usage()
                        }
                    })
                    .collect();
            }
            "--inter-thread-only" => config.detect.inter_thread_only = true,
            "--explain" => config.detect.explain_refutations = true,
            "--verify-witnesses" => config.verify_witnesses = true,
            "--json" => format = OutputFormat::Json,
            "--format" => {
                i += 1;
                let Some(f) = args.get(i) else { usage() };
                format = match f.as_str() {
                    "text" => OutputFormat::Text,
                    "json" => OutputFormat::Json,
                    "sarif" => OutputFormat::Sarif,
                    other => {
                        eprintln!("unknown format `{other}` (text|json|sarif)");
                        usage()
                    }
                };
            }
            "--json-out" => {
                i += 1;
                let Some(path) = args.get(i) else { usage() };
                json_out = Some(path.clone());
            }
            "--sarif-out" => {
                i += 1;
                let Some(path) = args.get(i) else { usage() };
                sarif_out = Some(path.clone());
            }
            "--baseline" => {
                i += 1;
                let Some(path) = args.get(i) else { usage() };
                baseline = Some(path.clone());
            }
            "--stats" => stats = true,
            "--no-mhp" => {
                config.interference = InterferenceOptions {
                    use_mhp: false,
                    ..config.interference
                };
            }
            "--no-sync" => config.detect.sync_constraints = false,
            "--no-prefilter" => {
                config.detect.solver = SolverOptions {
                    prefilter: false,
                    ..config.detect.solver
                };
            }
            "--memory-model" => {
                i += 1;
                let Some(m) = args.get(i) else { usage() };
                config.detect.memory_model = match m.as_str() {
                    "sc" => MemoryModel::Sc,
                    "tso" => MemoryModel::Tso,
                    "pso" => MemoryModel::Pso,
                    other => {
                        eprintln!("unknown memory model `{other}`");
                        usage()
                    }
                };
            }
            "--threads" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|s| s.parse().ok()) else {
                    usage()
                };
                if n < 1 {
                    eprintln!("--threads must be at least 1");
                    usage()
                }
                config.threads = n;
            }
            "--solver-strategy" => {
                i += 1;
                let Some(s) = args.get(i) else { usage() };
                let Some(strategy) = SolverStrategy::parse(s) else {
                    eprintln!("unknown solver strategy `{s}` (fresh|incremental)");
                    usage()
                };
                config.detect.solver = SolverOptions {
                    strategy,
                    ..config.detect.solver
                };
            }
            "--tool" => {
                i += 1;
                let Some(t) = args.get(i) else { usage() };
                tool = match t.as_str() {
                    "canary" => Tool::Canary,
                    "saber" => Tool::Saber,
                    "fsam" => Tool::Fsam,
                    other => {
                        eprintln!("unknown tool `{other}`");
                        usage()
                    }
                };
            }
            "--max-paths" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|s| s.parse().ok()) else {
                    usage()
                };
                config.detect.limits.max_paths = n;
            }
            "--max-path-len" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|s| s.parse().ok()) else {
                    usage()
                };
                config.detect.limits.max_len = n;
            }
            "--context-depth" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|s| s.parse().ok()) else {
                    usage()
                };
                config.context_depth = n;
            }
            "--trace-out" => {
                i += 1;
                let Some(path) = args.get(i) else { usage() };
                trace_out = Some(path.clone());
            }
            "--metrics-out" => {
                i += 1;
                let Some(path) = args.get(i) else { usage() };
                metrics_out = Some(path.clone());
            }
            "--audit-out" => {
                i += 1;
                let Some(path) = args.get(i) else { usage() };
                audit_out = Some(path.clone());
            }
            "--slow-query-ms" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|s| s.parse().ok()) else {
                    usage()
                };
                config.detect.slow_query_ms = Some(n);
            }
            "--log" => {
                i += 1;
                let Some(l) = args.get(i) else { usage() };
                let Some(level) = canary_trace::parse_log_level_strict(l) else {
                    eprintln!("unknown log level `{l}` (off|summary|debug)");
                    usage()
                };
                canary_trace::set_log_level(level);
            }
            "--unroll" => {
                i += 1;
                let Some(k) = args.get(i).and_then(|s| s.parse().ok()) else {
                    usage()
                };
                config.parse = ParseOptions { loop_unroll: k };
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}`");
                usage()
            }
            path => {
                if file.replace(path.to_string()).is_some() {
                    usage()
                }
            }
        }
        i += 1;
    }
    let Some(file) = file else { usage() };
    Cli {
        file,
        config,
        format,
        stats,
        tool,
        trace_out,
        metrics_out,
        audit_out,
        json_out,
        sarif_out,
        baseline,
    }
}

/// Writes an output artifact, reporting unwritable paths as a clean
/// CLI error (exit 2) instead of a panic.
fn write_output(path: &str, content: &str) -> Result<(), ExitCode> {
    std::fs::write(path, content).map_err(|e| {
        eprintln!("canary: cannot write {path}: {e}");
        ExitCode::from(2)
    })
}

/// Reads and parses a SARIF file.
fn read_sarif(path: &str) -> Result<serde_json::Value, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("canary: cannot read {path}: {e}");
        ExitCode::from(2)
    })?;
    serde_json::from_str(&text).map_err(|e| {
        eprintln!("canary: {path}: not valid JSON: {e:?}");
        ExitCode::from(2)
    })
}

/// The `canary diff <baseline.sarif> <current.sarif>` subcommand:
/// exits 0 when the current run adds no findings over the baseline,
/// 1 when it does, 2 on any error.
fn run_diff(args: &[String]) -> ExitCode {
    let [base_path, cur_path] = args else {
        eprintln!("usage: canary diff <baseline.sarif> <current.sarif>");
        return ExitCode::from(2);
    };
    let (base, cur) = match (read_sarif(base_path), read_sarif(cur_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => return e,
    };
    match canary_report::diff_sarif(&base, &cur) {
        Ok(diff) => {
            print!("{}", diff.render());
            if diff.has_new() {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("canary: diff: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs a baseline tool and prints its unguarded findings.
fn run_baseline(prog: &canary_ir::Program, tool: &Tool) -> ExitCode {
    use canary_baselines::{fsam, saber, Budgeted, Deadline};
    let result = match tool {
        Tool::Saber => saber::check_uaf(prog, Deadline::none()),
        Tool::Fsam => fsam::check_uaf(prog, Deadline::none()),
        Tool::Canary => unreachable!("caller dispatches"),
    };
    match result {
        Budgeted::Done(reports) => {
            for r in &reports {
                println!(
                    "[unguarded] use-after-free: {} reaches {}",
                    canary_ir::render_inst(prog, r.source),
                    canary_ir::render_inst(prog, r.sink),
                );
            }
            if reports.is_empty() {
                println!("no findings");
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Budgeted::TimedOut => {
            eprintln!("baseline timed out");
            ExitCode::from(3)
        }
    }
}

/// Parses a label operand: either a bare statement index (`12`) or the
/// rendered form the reports print (`l12`).
fn parse_label(s: &str) -> Option<canary_ir::Label> {
    let digits = s.strip_prefix('l').unwrap_or(s);
    digits.parse::<u32>().ok().map(canary_ir::Label)
}

/// Shared front half of the `why` / `why-not` subcommands: `operands`
/// are the arguments after the verb-specific positionals, forwarded
/// through the regular option parser with the program path prepended
/// (so `--checkers`, `--solver-strategy`, ... all apply).
fn analyze_for_audit(
    file: &str,
    operands: &[String],
) -> Result<(canary_ir::Program, canary_core::AnalysisOutcome), ExitCode> {
    let mut forwarded = vec![file.to_string()];
    forwarded.extend_from_slice(operands);
    let cli = parse_args(&forwarded);
    let src = match std::fs::read_to_string(&cli.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("canary: cannot read {}: {e}", cli.file);
            return Err(ExitCode::from(2));
        }
    };
    let prog = match canary_ir::parse_with(&src, &cli.config.parse) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("canary: {}: {e}", cli.file);
            return Err(ExitCode::from(2));
        }
    };
    if let Err(e) = prog.validate() {
        eprintln!("canary: {}: invalid program: {e}", cli.file);
        return Err(ExitCode::from(2));
    }
    let outcome = Canary::with_config(cli.config.clone()).analyze(&prog);
    Ok((prog, outcome))
}

/// `canary why <program.cir> <fingerprint>`: re-analyzes the program
/// and explains one emitted finding by its stable fingerprint — the
/// finding itself plus its audit trail (the winning record and any
/// duplicates it absorbed). Exits 0 when found, 1 when no report
/// carries the fingerprint, 2 on malformed input.
fn run_why(args: &[String]) -> ExitCode {
    let (Some(file), Some(fp_str)) = (args.first(), args.get(1)) else {
        eprintln!("usage: canary why <program.cir> <fingerprint> [options]");
        return ExitCode::from(2);
    };
    let Some(fp) = canary_detect::Fingerprint::parse(fp_str) else {
        eprintln!("canary why: not a fingerprint (expected 16 hex digits): {fp_str}");
        return ExitCode::from(2);
    };
    let (prog, outcome) = match analyze_for_audit(file, &args[2..]) {
        Ok(t) => t,
        Err(e) => return e,
    };
    let prog = outcome.analyzed_program.as_ref().unwrap_or(&prog);
    let mut found = false;
    for r in &outcome.reports {
        if r.fingerprint(prog) != fp {
            continue;
        }
        found = true;
        println!(
            "{fp} [{}] {} -> {}",
            r.kind,
            canary_ir::render_inst(prog, r.source),
            canary_ir::render_inst(prog, r.sink),
        );
    }
    for rec in outcome.metrics.audit.records() {
        let relevant = match &rec.disposition {
            Some(canary_detect::Disposition::Reported { fingerprint }) => *fingerprint == fp,
            Some(canary_detect::Disposition::Deduped { winner }) => *winner == fp,
            _ => false,
        };
        if relevant {
            println!("{}", rec.describe());
        }
    }
    if found {
        ExitCode::SUCCESS
    } else {
        eprintln!("canary why: no report with fingerprint {fp} in {file}");
        ExitCode::from(1)
    }
}

/// `canary why-not <program.cir> <source_label> <sink_label>`:
/// re-analyzes the program and prints every audit certificate recorded
/// for the pair — MHP facts, lock-sharpening killing stores, prefilter
/// folds, UNSAT conjuncts, memo origins — or, for a reported pair, the
/// reported/deduped trail. Exits 0 when the pair has records, 1 when
/// it was never enumerated, 2 on malformed input.
fn run_why_not(args: &[String]) -> ExitCode {
    let (Some(file), Some(src_s), Some(sink_s)) = (args.first(), args.get(1), args.get(2)) else {
        eprintln!("usage: canary why-not <program.cir> <source_label> <sink_label> [options]");
        return ExitCode::from(2);
    };
    let (Some(src_label), Some(sink_label)) = (parse_label(src_s), parse_label(sink_s)) else {
        eprintln!(
            "canary why-not: labels are bare statement indices (`12`) or the \
             rendered form (`l12`); got {src_s} / {sink_s}"
        );
        return ExitCode::from(2);
    };
    let (_prog, outcome) = match analyze_for_audit(file, &args[3..]) {
        Ok(t) => t,
        Err(e) => return e,
    };
    let records = outcome.metrics.audit.find_pair(src_label, sink_label);
    if records.is_empty() {
        println!(
            "no candidate {src_label} -> {sink_label}: the pair was never \
             enumerated — no value-flow path connects the labels (or they \
             name no source/sink the enabled checkers consider)"
        );
        return ExitCode::from(1);
    }
    for rec in records {
        println!("{}", rec.describe());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("diff") {
        return run_diff(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("why") {
        return run_why(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("why-not") {
        return run_why_not(&args[1..]);
    }
    let cli = parse_args(&args);
    let src = match std::fs::read_to_string(&cli.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("canary: cannot read {}: {e}", cli.file);
            return ExitCode::from(2);
        }
    };
    let prog = match canary_ir::parse_with(&src, &cli.config.parse) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("canary: {}: {e}", cli.file);
            return ExitCode::from(2);
        }
    };
    if let Err(e) = prog.validate() {
        eprintln!("canary: {}: invalid program: {e}", cli.file);
        return ExitCode::from(2);
    }
    if !matches!(cli.tool, Tool::Canary) {
        return run_baseline(&prog, &cli.tool);
    }
    let tracer = if cli.trace_out.is_some() {
        canary_trace::Tracer::enabled()
    } else {
        canary_trace::Tracer::disabled()
    };
    let outcome = Canary::with_config(cli.config.clone()).analyze_traced(&prog, &tracer);
    if let Some(path) = &cli.trace_out {
        if let Err(e) = write_output(path, &tracer.export_chrome()) {
            return e;
        }
    }
    if let Some(path) = &cli.metrics_out {
        let registry = outcome.metrics.to_registry();
        if let Err(e) = write_output(path, &registry.to_openmetrics()) {
            return e;
        }
    }
    if let Some(path) = &cli.audit_out {
        if let Err(e) = write_output(path, &outcome.metrics.audit.to_jsonl()) {
            return e;
        }
    }
    let prog = outcome.analyzed_program.as_ref().unwrap_or(&prog);
    let manifest = run_manifest(&cli, &src, &outcome.metrics);
    let needs_sarif =
        cli.sarif_out.is_some() || cli.baseline.is_some() || cli.format == OutputFormat::Sarif;
    let sarif_doc =
        needs_sarif.then(|| canary_report::sarif_document(prog, &outcome.reports, &manifest));
    if let (Some(path), Some(doc)) = (&cli.sarif_out, &sarif_doc) {
        let text = serde_json::to_string_pretty(doc).expect("valid json");
        if let Err(e) = write_output(path, &text) {
            return e;
        }
    }
    if let Some(path) = &cli.json_out {
        let doc = json_document(&cli, prog, &outcome);
        let text = serde_json::to_string_pretty(&doc).expect("valid json");
        if let Err(e) = write_output(path, &text) {
            return e;
        }
    }
    if cli.format == OutputFormat::Sarif {
        let doc = sarif_doc.as_ref().expect("built above");
        println!("{}", serde_json::to_string_pretty(doc).expect("valid json"));
    } else if cli.format == OutputFormat::Json {
        let doc = json_document(&cli, prog, &outcome);
        println!(
            "{}",
            serde_json::to_string_pretty(&doc).expect("valid json")
        );
    } else {
        print_text_output(&cli, prog, &outcome);
    }
    if let Some(path) = &cli.baseline {
        let base = match read_sarif(path) {
            Ok(b) => b,
            Err(e) => return e,
        };
        let cur =
            serde_json::to_value(sarif_doc.as_ref().expect("built above")).expect("valid json");
        return match canary_report::diff_sarif(&base, &cur) {
            Ok(diff) => {
                // In json/sarif modes stdout carries a document; keep
                // the classification on stderr there.
                if cli.format == OutputFormat::Text {
                    print!("{}", diff.render());
                } else {
                    eprint!("{}", diff.render());
                }
                if diff.has_new() {
                    ExitCode::from(1)
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("canary: baseline: {e}");
                ExitCode::from(2)
            }
        };
    }
    if outcome.reports.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The CLI spelling of a memory model, as accepted by `--memory-model`.
fn model_name(model: MemoryModel) -> &'static str {
    match model {
        MemoryModel::Sc => "sc",
        MemoryModel::Tso => "tso",
        MemoryModel::Pso => "pso",
    }
}

/// The run manifest recorded in the SARIF invocation block: the full
/// configuration (sorted knobs), the corpus hash, and the phase wall
/// times (nondeterministic; quarantined under `properties.timings`).
/// `solver_threads` is the worker pool the solver ran with
/// ([`CanaryConfig::solver_threads`]), which the `--threads` knob
/// raises.
fn run_manifest(cli: &Cli, src: &str, m: &canary_core::Metrics) -> canary_report::RunManifest {
    let config = &cli.config;
    let checkers: Vec<String> = config.checkers.iter().map(|k| k.to_string()).collect();
    let memory_model = model_name(config.detect.memory_model);
    canary_report::RunManifest {
        file: cli.file.clone(),
        corpus_hash: canary_report::content_hash(src.as_bytes()),
        strategy: config.detect.solver.strategy.as_str().to_string(),
        threads: config.threads,
        canary_version: env!("CARGO_PKG_VERSION").to_string(),
        rustc_version: env!("CANARY_RUSTC_VERSION").to_string(),
        config: vec![
            ("checkers".into(), checkers.join(",")),
            ("context_depth".into(), config.context_depth.to_string()),
            (
                "inter_thread_only".into(),
                config.detect.inter_thread_only.to_string(),
            ),
            ("loop_unroll".into(), config.parse.loop_unroll.to_string()),
            ("memory_model".into(), memory_model.to_string()),
            (
                "prefilter".into(),
                config.detect.solver.prefilter.to_string(),
            ),
            ("solver_threads".into(), config.solver_threads().to_string()),
            (
                "sync_constraints".into(),
                config.detect.sync_constraints.to_string(),
            ),
            ("use_mhp".into(), config.interference.use_mhp.to_string()),
            (
                "verify_witnesses".into(),
                config.verify_witnesses.to_string(),
            ),
        ],
        timings_ms: vec![
            ("dataflow".into(), m.t_dataflow.as_secs_f64() * 1e3),
            ("interference".into(), m.t_interference.as_secs_f64() * 1e3),
            ("detect".into(), m.t_detect.as_secs_f64() * 1e3),
        ],
    }
}

/// Builds the versioned `--json` document (see `docs/report_schema.md`
/// for the schema; `schema_version` gates consumers).
fn json_document(
    cli: &Cli,
    prog: &canary_ir::Program,
    outcome: &canary_core::AnalysisOutcome,
) -> serde_json::Value {
    let reports: Vec<serde_json::Value> = outcome
        .reports
        .iter()
        .enumerate()
        .map(|(i, r)| {
            serde_json::json!({
                "witness_replay_confirmed": outcome
                    .witness_replays
                    .get(i)
                    .map(|replay| replay.confirmed()),
                "fingerprint": r.fingerprint(prog).to_string(),
                "provenance": r.provenance.as_ref()
                    .map(|p| p.to_json())
                    .unwrap_or(serde_json::Value::Null),
                "kind": r.kind.to_string(),
                "source": { "label": r.source.0,
                             "stmt": canary_ir::render_inst(prog, r.source),
                             "function": prog.func(prog.func_of(r.source)).name },
                "sink": { "label": r.sink.0,
                           "stmt": canary_ir::render_inst(prog, r.sink),
                           "function": prog.func(prog.func_of(r.sink)).name },
                "inter_thread": r.inter_thread,
                "path": r.path,
                "constraint": r.constraint,
                "witness_schedule": r.schedule.iter().map(|l| l.0).collect::<Vec<u32>>(),
            })
        })
        .collect();
    let m = &outcome.metrics;
    let hot_queries: Vec<serde_json::Value> = m
        .hottest_queries(TOP_K)
        .iter()
        .map(|p| {
            let mut q = serde_json::json!({
                "kind": p.kind.to_string(),
                "source": p.source.0,
                "sink": p.sink.0,
                "wall_ms": p.wall.as_secs_f64() * 1e3,
            });
            if let serde_json::Value::Object(q) = &mut q {
                q.extend(p.counters().map(|(k, v)| (k.to_string(), v.into())));
            }
            q
        })
        .collect();
    let hot_functions: Vec<serde_json::Value> = m
        .hottest_functions(TOP_K)
        .iter()
        .map(|p| {
            serde_json::json!({
                "function": p.name,
                "stmt_visits": p.stmt_visits,
                "blocks": p.blocks,
                "summary_cells": p.summary_cells,
                "stores": p.stores,
                "loads": p.loads,
                "wall_ms": p.wall.as_secs_f64() * 1e3,
            })
        })
        .collect();
    serde_json::json!({
        "schema_version": 5,
        "canary_version": env!("CARGO_PKG_VERSION"),
        "rustc_version": env!("CANARY_RUSTC_VERSION"),
        "file": cli.file,
        "reports": reports,
        "metrics": {
            "registry": m.to_registry().to_json(),
            "memory_model": model_name(cli.config.detect.memory_model),
            "strategy": cli.config.detect.solver.strategy.as_str(),
            "hot_queries": hot_queries,
            "hot_functions": hot_functions,
        },
    })
}

/// Renders the human-readable text report: findings (or the no-bugs
/// line), witness verification, refutation cores and the `--stats`
/// footer.
fn print_text_output(cli: &Cli, prog: &canary_ir::Program, outcome: &canary_core::AnalysisOutcome) {
    if outcome.reports.is_empty() {
        println!("canary: no bugs found in {}", cli.file);
    } else {
        println!("{}", outcome.render(prog));
    }
    if !outcome.witness_replays.is_empty() {
        let confirmed = outcome
            .witness_replays
            .iter()
            .filter(|r| r.confirmed())
            .count();
        println!(
            "witness verification: {confirmed}/{} schedules replayed to their bug",
            outcome.witness_replays.len()
        );
        for (r, replay) in outcome.reports.iter().zip(&outcome.witness_replays) {
            if !replay.confirmed() {
                println!(
                    "  [unconfirmed] {} {} -> {}: {replay:?}",
                    r.kind,
                    canary_ir::render_inst(prog, r.source),
                    canary_ir::render_inst(prog, r.sink),
                );
            }
        }
    }
    for r in &outcome.refuted {
        println!(
            "[refuted] {} candidate: {} -> {}\n  unsat core: {}",
            r.kind,
            canary_ir::render_inst(prog, r.source),
            canary_ir::render_inst(prog, r.sink),
            r.core.join("  &  "),
        );
    }
    if cli.stats {
        let m = &outcome.metrics;
        println!("\nstats:");
        for line in m.to_registry().scalar_lines() {
            println!("  {line}");
        }
        match m.audit.reconcile() {
            Ok(summary) => println!("{}", summary.render()),
            Err(e) => println!("audit: RECONCILIATION FAILED: {e}"),
        }
        let hot = m.hottest_queries(TOP_K);
        if !hot.is_empty() {
            println!("hottest queries:");
            for (rank, p) in hot.iter().enumerate() {
                println!(
                    "  {}. [{}] {} {} -> {} | path {} | {} bool / {} order atoms | \
                     {} decisions, {} conflicts, {} propagations | {:.2} ms",
                    rank + 1,
                    if p.stats.prefiltered {
                        "prefiltered"
                    } else if p.sat {
                        "sat"
                    } else {
                        "unsat"
                    },
                    p.kind,
                    canary_ir::render_inst(prog, p.source),
                    canary_ir::render_inst(prog, p.sink),
                    p.path_len,
                    p.bool_atoms,
                    p.order_atoms,
                    p.stats.decisions,
                    p.stats.conflicts,
                    p.stats.propagations,
                    p.wall.as_secs_f64() * 1e3,
                );
            }
        }
        let hot = m.hottest_functions(TOP_K);
        if !hot.is_empty() {
            println!("hottest functions (Alg. 1):");
            for (rank, p) in hot.iter().enumerate() {
                println!(
                    "  {}. {} | {} stmt visits over {} blocks | \
                     {} summary cells | {} stores / {} loads | {:.2} ms",
                    rank + 1,
                    p.name,
                    p.stmt_visits,
                    p.blocks,
                    p.summary_cells,
                    p.stores,
                    p.loads,
                    p.wall.as_secs_f64() * 1e3,
                );
            }
        }
    }
}
