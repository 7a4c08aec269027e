//! # canary-core
//!
//! The end-to-end Canary pipeline (Fig. 1 of the paper):
//!
//! ```text
//! concurrent program ──▶ data dependence (Alg. 1) ──▶ VFG
//!                        interference dependence (Alg. 2) ──▶ VFG
//!                        source-sink checking (§5) + SMT ──▶ bug reports
//! ```
//!
//! [`Canary`] wires the substrate crates together and exposes one-call
//! analysis with per-phase metrics, which is also what the benchmark
//! harness samples to regenerate the paper's figures.
//!
//! # Examples
//!
//! Analyzing the paper's Fig. 2 program (bug-free — the report list is
//! empty because the SMT stage refutes the contradictory guards):
//!
//! ```
//! use canary_core::Canary;
//!
//! let src = r#"
//!     fn main(a) {
//!         x = alloc o1;
//!         *x = a;
//!         fork t thread1(x);
//!         if (theta1) { c = *x; use c; }
//!     }
//!     fn thread1(y) {
//!         b = alloc o2;
//!         if (!theta1) { *y = b; free b; }
//!     }
//! "#;
//! let outcome = Canary::new().analyze_source(src)?;
//! assert!(outcome.reports.is_empty());
//! assert!(outcome.metrics.interference_edges >= 1);
//! # Ok::<(), canary_core::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::time::{Duration, Instant};

use canary_dataflow::FuncProfile;
use canary_detect::{
    AuditLog, BugKind, BugReport, DetectContext, DetectOptions, DetectStats, Disposition,
    QueryProfile, RefutedCandidate,
};
use canary_interference::{InterferenceOptions, InterferenceResult, PruneReason};
use canary_ir::{
    clone_contexts, CallGraph, CloneOptions, MhpAnalysis, ParseError, ParseOptions, Program,
    ThreadStructure, ValidationError,
};
use canary_smt::TermPool;
use canary_trace::{LogLevel, Tracer, LANE_PIPELINE};

pub use canary_detect::{self as detect};
pub use canary_ir::{self as ir};
pub use canary_oracle::{self as oracle};
pub use canary_smt::{self as smt};
pub use canary_trace::{self as trace};

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct CanaryConfig {
    /// Front-end bounding options (loop unrolling depth, §3.1/§6).
    pub parse: ParseOptions,
    /// Alg. 2 options (MHP pruning toggle, fixpoint cap).
    pub interference: InterferenceOptions,
    /// Checker options (§5.2 solver strategy, inter-thread filter,
    /// §9 synchronization constraints).
    pub detect: DetectOptions,
    /// Which properties to check.
    pub checkers: Vec<BugKind>,
    /// Clone-based context sensitivity depth (§5.1; the paper's §7.2
    /// uses 6). Zero disables the transform; when non-zero the program
    /// is rewritten before analysis and reports reference the rewritten
    /// labels (the transformed program travels in the outcome).
    pub context_depth: usize,
    /// Worker threads of the query-family solver (the larger of this
    /// and `detect.solver.num_threads` is used); Alg. 1 and Alg. 2 run
    /// on the calling thread. Output is byte-identical for any value,
    /// threads only change wall time. Defaults to `1`, or to
    /// `CANARY_TEST_THREADS` when set (so test suites can sweep worker
    /// counts without code changes).
    pub threads: usize,
    /// Concretely replay each confirmed report's witness schedule with
    /// the `canary-oracle` interpreter and record the outcomes in
    /// [`AnalysisOutcome::witness_replays`]. Off by default (the static
    /// result is unchanged; this buys executable evidence at the cost
    /// of one interpreter run per report).
    pub verify_witnesses: bool,
}

impl Default for CanaryConfig {
    fn default() -> Self {
        CanaryConfig {
            parse: ParseOptions::default(),
            interference: InterferenceOptions::default(),
            detect: DetectOptions::default(),
            checkers: vec![
                BugKind::UseAfterFree,
                BugKind::DoubleFree,
                BugKind::NullDeref,
                BugKind::DataLeak,
                BugKind::DoubleLock,
                BugKind::ConflictLock,
            ],
            context_depth: 0,
            threads: default_threads(),
            verify_witnesses: false,
        }
    }
}

/// The default worker count: `CANARY_TEST_THREADS` when set and valid,
/// else 1 (serial).
fn default_threads() -> usize {
    std::env::var("CANARY_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Wall time and scheduling shape of one pipeline phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseStats {
    /// Wall-clock time of the phase.
    pub wall: Duration,
    /// Worker threads the phase ran with (1 for Alg. 1 and Alg. 2).
    pub workers: usize,
    /// Independent work items the phase executed (call-graph SCC tasks
    /// for Alg. 1; `Pted` sweeps plus per-load scans for Alg. 2; SMT
    /// queries for detection).
    pub tasks: usize,
    /// Process peak RSS in bytes, sampled at phase end (`VmHWM`, a
    /// monotone high-water mark — see
    /// [`canary_trace::metrics::peak_rss_bytes`]). **Volatile**: never
    /// compared across runs; 0 where the platform has no accounting.
    pub peak_rss: u64,
}

/// Per-run measurements, the raw material for the Fig. 7/8 harnesses.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Statements in the bounded program.
    pub stmt_count: usize,
    /// Static threads.
    pub thread_count: usize,
    /// VFG node count after both analyses.
    pub vfg_nodes: usize,
    /// VFG edge count after both analyses.
    pub vfg_edges: usize,
    /// Interference edges added by Alg. 2.
    pub interference_edges: usize,
    /// Store/load pairs discharged by lock-based mutual-exclusion
    /// sharpening during Alg. 2.
    pub mhp_lock_pruned: usize,
    /// Escaped objects found.
    pub escaped_objects: usize,
    /// Approximate VFG bytes (Fig. 7b accounting).
    pub vfg_bytes: usize,
    /// Interned SMT terms (guard memory).
    pub term_count: usize,
    /// Approximate term-table bytes (Fig. 7b guard-memory accounting;
    /// deterministic, unlike the RSS gauges).
    pub term_bytes: usize,
    /// Time in Alg. 1.
    pub t_dataflow: Duration,
    /// Time in Alg. 2.
    pub t_interference: Duration,
    /// Time in §5 checking (path search + SMT).
    pub t_detect: Duration,
    /// Candidate paths / SMT queries / confirmed reports.
    pub detect: DetectStats,
    /// Configured worker threads ([`CanaryConfig::threads`]).
    pub worker_threads: usize,
    /// Scheduling shape of the Alg. 1 phase.
    pub dataflow_phase: PhaseStats,
    /// Scheduling shape of the Alg. 2 phase.
    pub interference_phase: PhaseStats,
    /// Scheduling shape of the §5 detection phase (tasks = SMT
    /// queries, workers = parallel solver threads).
    pub detect_phase: PhaseStats,
    /// Witness schedules replayed by the concrete oracle (0 unless
    /// [`CanaryConfig::verify_witnesses`] is on).
    pub witnesses_checked: usize,
    /// Replays that concretely fired the claimed bug.
    pub witnesses_confirmed: usize,
    /// Fingerprint-equal findings collapsed before emission (the same
    /// bug surfacing through several checkers or paths).
    pub reports_deduped: usize,
    /// Per-function Alg. 1 cost profiles, in analysis order.
    pub func_profiles: Vec<FuncProfile>,
    /// Per-SMT-query attribution records, in checker/query order.
    pub query_profiles: Vec<QueryProfile>,
    /// The run-wide audit log: one terminal disposition, with a
    /// machine-checkable certificate, for every candidate source/sink
    /// pair any pipeline layer considered. The JSONL export
    /// (`--audit-out`) and `canary why-not` read from here; its
    /// records are byte-identical across every scheduling and strategy
    /// knob.
    pub audit: AuditLog,
}

impl Metrics {
    /// Total VFG-construction time (the Fig. 7a quantity).
    pub fn t_vfg(&self) -> Duration {
        self.t_dataflow + self.t_interference
    }

    /// Total end-to-end time (the Fig. 8 quantity).
    pub fn t_total(&self) -> Duration {
        self.t_vfg() + self.t_detect
    }

    /// The `k` most expensive SMT queries, hottest first. Ranked by
    /// deterministic solver-work counters (decisions, then conflicts,
    /// then propagations) rather than wall time, so the selection is
    /// byte-identical across worker counts; candidate labels break
    /// ties.
    pub fn hottest_queries(&self, k: usize) -> Vec<&QueryProfile> {
        let mut v: Vec<&QueryProfile> = self.query_profiles.iter().collect();
        v.sort_by_key(|p| {
            (
                std::cmp::Reverse((p.decisions, p.conflicts, p.propagations)),
                p.source.0,
                p.sink.0,
                p.kind as u64,
            )
        });
        v.truncate(k);
        v
    }

    /// The `k` most expensive Alg. 1 function analyses, hottest first.
    /// Ranked by statement visits then transfer-function size (both
    /// deterministic); the function index breaks ties.
    pub fn hottest_functions(&self, k: usize) -> Vec<&FuncProfile> {
        let mut v: Vec<&FuncProfile> = self.func_profiles.iter().collect();
        v.sort_by_key(|p| (std::cmp::Reverse((p.stmt_visits, p.summary_cells)), p.func));
        v.truncate(k);
        v
    }

    /// Builds the run-health [`MetricsRegistry`] from this run's
    /// measurements: the canonical export surface behind
    /// `--metrics-out` and the `metrics.registry` JSON block.
    ///
    /// Family classification (see `canary_trace::metrics`): everything
    /// is deterministic across `--threads` values; the `*_seconds` and
    /// `*_rss_*` families are volatile (wall clock / OS accounting) and
    /// the `canary_solver_*` families are strategy-sensitive (the CDCL
    /// work the incremental back-end saves).
    ///
    /// [`MetricsRegistry`]: canary_trace::metrics::MetricsRegistry
    pub fn to_registry(&self) -> canary_trace::metrics::MetricsRegistry {
        use canary_trace::metrics::{MetricsRegistry, DECISION_BUCKETS, SECONDS_BUCKETS};
        let mut reg = MetricsRegistry::new();
        let g = |reg: &mut MetricsRegistry, name, help, v: f64| {
            reg.set_gauge(name, help, &[], v);
        };
        g(&mut reg, "canary_program_statements", "Statements in the bounded program", self.stmt_count as f64);
        g(&mut reg, "canary_program_threads", "Static threads in the program", self.thread_count as f64);
        g(&mut reg, "canary_vfg_nodes", "VFG nodes after Alg. 1 + Alg. 2", self.vfg_nodes as f64);
        g(&mut reg, "canary_vfg_edges", "VFG edges after Alg. 1 + Alg. 2", self.vfg_edges as f64);
        g(&mut reg, "canary_vfg_interference_edges", "Interference edges added by Alg. 2", self.interference_edges as f64);
        g(&mut reg, "canary_vfg_bytes", "Approximate VFG arena bytes (deterministic)", self.vfg_bytes as f64);
        g(&mut reg, "canary_term_table_terms", "Interned SMT terms", self.term_count as f64);
        g(&mut reg, "canary_term_table_bytes", "Approximate term-table bytes (deterministic)", self.term_bytes as f64);
        g(&mut reg, "canary_escaped_objects", "Escaped objects found by Alg. 2", self.escaped_objects as f64);
        g(&mut reg, "canary_worker_threads", "Configured worker threads", self.worker_threads as f64);

        let c = |reg: &mut MetricsRegistry, name, help, v: f64| {
            reg.add_counter(name, help, &[], v);
        };
        c(&mut reg, "canary_mhp_lock_pruned", "Store/load pairs discharged by lock-based MHP sharpening", self.mhp_lock_pruned as f64);
        let d = &self.detect;
        c(&mut reg, "canary_detect_candidate_paths", "Candidate source-sink paths enumerated", d.candidate_paths as f64);
        c(&mut reg, "canary_detect_queries", "SMT queries issued", d.queries as f64);
        c(&mut reg, "canary_detect_prefiltered", "Queries answered by the semi-decision prefilter", d.prefiltered as f64);
        c(&mut reg, "canary_detect_confirmed", "Reports surviving SMT validation (pre-dedup)", d.confirmed as f64);
        c(&mut reg, "canary_detect_reports_deduped", "Fingerprint-equal findings collapsed before emission", self.reports_deduped as f64);
        c(&mut reg, "canary_detect_witnesses_checked", "Witness schedules replayed by the oracle", self.witnesses_checked as f64);
        c(&mut reg, "canary_detect_witnesses_confirmed", "Replays that concretely fired the claimed bug", self.witnesses_confirmed as f64);
        c(&mut reg, "canary_solver_decisions", "CDCL decisions across all validation queries", d.decisions as f64);
        c(&mut reg, "canary_solver_conflicts", "CDCL conflicts across all validation queries", d.conflicts as f64);
        c(&mut reg, "canary_solver_propagations", "Unit propagations across all validation queries", d.propagations as f64);
        c(&mut reg, "canary_solver_learned", "Learned clauses retained across all validation queries", d.learned as f64);
        c(&mut reg, "canary_solver_theory_lemmas", "Theory (order-cycle) lemmas fed back", d.theory_lemmas as f64);
        c(&mut reg, "canary_solver_families", "Query families formed by the incremental strategy", d.families as f64);
        c(&mut reg, "canary_solver_memo_hits", "Queries answered from the hash-consed result memo", d.memo_hits as f64);
        c(&mut reg, "canary_solver_core_subsumed", "Queries refuted by UNSAT-core subsumption", d.core_subsumed as f64);
        c(&mut reg, "canary_solver_incremental_queries", "Queries solved on a persistent family solver", d.incremental as f64);
        c(&mut reg, "canary_solver_clauses_retained", "Learned clauses alive on family solvers at family end", d.clauses_retained as f64);

        // Audit-layer disposition totals: deterministic (derived from
        // term-determined certificates), so they live in the canonical
        // family set and the `candidates == reported + deduped + Σ
        // pruned` reconciliation can be checked from an export alone.
        let a = self.audit.reconcile().unwrap_or_default();
        c(&mut reg, "canary_audit_candidates", "Detect-layer candidates given a terminal audit disposition", a.candidates as f64);
        c(&mut reg, "canary_audit_reported", "Audit dispositions: confirmed and emitted", a.reported as f64);
        c(&mut reg, "canary_audit_deduped", "Audit dispositions: confirmed but collapsed into an equivalent finding", a.deduped as f64);
        c(&mut reg, "canary_audit_prefiltered", "Audit dispositions: killed by the construction/semi-decision prefilter", a.prefiltered as f64);
        c(&mut reg, "canary_audit_unsat", "Audit dispositions: refuted by solving or UNSAT-core subsumption", a.unsat as f64);
        c(&mut reg, "canary_audit_memoized", "Audit dispositions: refuted by the verdict memo", a.memoized as f64);
        c(&mut reg, "canary_audit_scope_filtered", "Audit dispositions: dropped by --inter-thread-only", a.scope_filtered as f64);
        c(&mut reg, "canary_audit_path_budget", "Path-budget truncation markers recorded by the audit layer", a.path_budget as f64);
        c(&mut reg, "canary_audit_pruned_mhp", "Interference pairs pruned by plain MHP", a.pruned_mhp as f64);
        c(&mut reg, "canary_audit_pruned_lock", "Interference pairs pruned by lock-sharpened MHP", a.pruned_lock as f64);
        c(&mut reg, "canary_audit_pruned_order", "Interference pairs refuted by program order", a.pruned_order as f64);

        for (phase, s) in [
            ("dataflow", &self.dataflow_phase),
            ("interference", &self.interference_phase),
            ("detect", &self.detect_phase),
        ] {
            let labels = [("phase", phase)];
            reg.set_gauge("canary_phase_workers", "Worker threads the phase ran with", &labels, s.workers as f64);
            reg.set_gauge("canary_phase_tasks", "Independent work items the phase executed", &labels, s.tasks as f64);
            reg.set_gauge("canary_phase_wall_seconds", "Phase wall-clock time (volatile)", &labels, s.wall.as_secs_f64());
            reg.set_gauge("canary_phase_peak_rss_bytes", "Process peak RSS at phase end (volatile)", &labels, s.peak_rss as f64);
        }

        for p in &self.query_profiles {
            let kind = p.kind.to_string();
            let labels = [("kind", kind.as_str())];
            reg.observe(
                "canary_solver_query_decisions",
                "CDCL decisions per SMT query, by query family",
                &labels,
                &DECISION_BUCKETS,
                p.decisions as f64,
            );
            reg.observe(
                "canary_smt_query_seconds",
                "Solve wall time per SMT query, by query family (volatile)",
                &labels,
                &SECONDS_BUCKETS,
                p.wall.as_secs_f64(),
            );
        }
        reg
    }
}

/// The result of one analysis run.
#[derive(Debug)]
pub struct AnalysisOutcome {
    /// Confirmed findings, sorted by (source, sink).
    pub reports: Vec<BugReport>,
    /// Per-phase measurements.
    pub metrics: Metrics,
    /// The context-cloned program actually analyzed, when
    /// [`CanaryConfig::context_depth`] > 0 (report labels refer to it).
    pub analyzed_program: Option<Program>,
    /// Dismissed candidates with minimized refutation cores, when
    /// [`DetectOptions::explain_refutations`] is on.
    pub refuted: Vec<RefutedCandidate>,
    /// Per-report concrete replay outcomes, aligned with `reports`,
    /// when [`CanaryConfig::verify_witnesses`] is on (empty otherwise).
    /// The replay runs against the analyzed (possibly context-cloned)
    /// program, matching the labels the reports use.
    pub witness_replays: Vec<canary_oracle::ReplayResult>,
}

impl AnalysisOutcome {
    /// Renders every report against the program (using the cloned
    /// program when context sensitivity rewrote it).
    pub fn render(&self, prog: &Program) -> String {
        let prog = self.analyzed_program.as_ref().unwrap_or(prog);
        self.reports
            .iter()
            .map(|r| r.render(prog))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Errors surfaced by the facade.
#[derive(Debug)]
pub enum Error {
    /// The source text failed to parse.
    Parse(ParseError),
    /// The parsed program violates the bounded-program invariants.
    Validation(ValidationError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "{e}"),
            Error::Validation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error::Parse(e)
    }
}

impl From<ValidationError> for Error {
    fn from(e: ValidationError) -> Self {
        Error::Validation(e)
    }
}

/// The Canary analyzer.
#[derive(Clone, Debug, Default)]
pub struct Canary {
    config: CanaryConfig,
}

impl Canary {
    /// An analyzer with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// An analyzer with explicit configuration.
    pub fn with_config(config: CanaryConfig) -> Self {
        Canary { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &CanaryConfig {
        &self.config
    }

    /// Parses, validates and analyzes source text.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] or [`Error::Validation`] for malformed
    /// input.
    pub fn analyze_source(&self, src: &str) -> Result<AnalysisOutcome, Error> {
        let prog = canary_ir::parse_with(src, &self.config.parse)?;
        prog.validate()?;
        Ok(self.analyze(&prog))
    }

    /// Analyzes an already-built bounded program, applying clone-based
    /// context sensitivity first when configured.
    pub fn analyze(&self, prog: &Program) -> AnalysisOutcome {
        self.analyze_traced(prog, &Tracer::disabled())
    }

    /// [`analyze`](Self::analyze) with spans collected into `tracer`:
    /// pipeline-phase spans on the pipeline lane, plus the per-level /
    /// per-round / per-query instrumentation of every phase crate. With
    /// a disabled tracer this *is* `analyze`.
    pub fn analyze_traced(&self, prog: &Program, tracer: &Tracer) -> AnalysisOutcome {
        if self.config.context_depth > 0 {
            let cloned = clone_contexts(
                prog,
                &CloneOptions {
                    depth: self.config.context_depth,
                    ..CloneOptions::default()
                },
            );
            let mut outcome = self.analyze_uncloned(&cloned, tracer);
            outcome.analyzed_program = Some(cloned);
            return outcome;
        }
        self.analyze_uncloned(prog, tracer)
    }

    fn analyze_uncloned(&self, prog: &Program, tracer: &Tracer) -> AnalysisOutcome {
        let (cg, ts, mut vfg) = self.alg1_phase(prog, tracer);
        // Detection reuses the MHP relation Alg. 2 pruned with.
        let (mhp, ir_result) = self.alg2_phase(prog, &cg, &ts, &mut vfg, tracer);
        let VfgBuild {
            mut pool,
            df,
            mut metrics,
        } = vfg;

        // Seed the run-wide audit log with the interference layer's
        // pruned store/load pairs — candidates suppressed before any
        // VFG edge (and hence any detect candidate) could exist. The
        // fixpoint commits them in (store, load) order, so the audit
        // sequence is deterministic.
        let mut audit = AuditLog::new();
        for p in &ir_result.pruned_pairs {
            let d = match p.reason {
                PruneReason::Mhp {
                    parallel,
                    ordered_before,
                } => Disposition::PrunedMhp {
                    parallel,
                    ordered_before,
                },
                PruneReason::LockSharpen {
                    class,
                    killing_store,
                } => Disposition::PrunedLockSharpen {
                    class,
                    killing_store,
                },
                PruneReason::StoreAfterLoad => Disposition::PrunedStoreOrder,
            };
            audit.record_interference_prune(
                p.store,
                p.load,
                Some(prog.obj_name(p.object).to_string()),
                d,
            );
        }

        let t0 = Instant::now();
        // The `threads` knob sets the query-family solver's workers,
        // unless the solver was tuned separately to more.
        let mut detect_opts = self.config.detect.clone();
        detect_opts.solver.num_threads = detect_opts.solver.num_threads.max(self.config.threads.max(1));
        let ctx = DetectContext::new(prog, &ts, &mhp, &df, &detect_opts);
        let mut stats = DetectStats::default();
        let mut reports = Vec::new();
        let mut refuted = Vec::new();
        let mut query_profiles = Vec::new();
        {
            let mut phase = tracer.span(LANE_PIPELINE, "pipeline", 3, || "detect".into());
            // One query cache for the whole run: UNSAT cores and
            // memoized verdicts learned by one checker refute later
            // checkers' queries. Checkers run sequentially, so the
            // cross-checker reuse is deterministic.
            let mut qcache = canary_smt::QueryCache::new();
            let total_checkers = self.config.checkers.len();
            for (done, &kind) in self.config.checkers.iter().enumerate() {
                let (rs, refs, profs) = canary_detect::check_kind_traced(
                    &ctx,
                    &mut pool,
                    kind,
                    &detect_opts,
                    &mut stats,
                    tracer,
                    &mut qcache,
                    &mut audit,
                );
                reports.extend(rs);
                refuted.extend(refs);
                query_profiles.extend(profs);
                canary_trace::log(LogLevel::Summary, || {
                    let done = done + 1;
                    let elapsed = t0.elapsed();
                    let eta = if done < total_checkers {
                        // Linear extrapolation over checkers done so far;
                        // coarse, but checkers share the query cache so
                        // later ones only get cheaper.
                        format!(
                            ", eta {:?}",
                            elapsed.mul_f64(total_checkers as f64 / done as f64) - elapsed
                        )
                    } else {
                        String::new()
                    };
                    format!(
                        "detect: checker {done}/{total_checkers} ({kind}) done, \
                         {} quer(ies), {} report(s) in {elapsed:?}{eta}",
                        stats.queries, stats.confirmed
                    )
                });
            }
            phase.record("queries", stats.queries as u64);
            phase.record("confirmed", stats.confirmed as u64);
        }
        // Collapse fingerprint-equal findings (the same bug surfacing
        // through several checkers or paths) to their shortest witness
        // before anything downstream — replay, rendering, export —
        // sees them. Checkers emit in a fixed order, so the surviving
        // order is deterministic.
        let confirmed_raw = reports.len();
        let reports = canary_detect::dedup_reports(prog, reports);
        metrics.reports_deduped = confirmed_raw - reports.len();
        // Flip audit records whose report lost the fingerprint dedup to
        // `Deduped`, then check the reconciliation invariant: every
        // candidate has exactly one terminal disposition. A leak here
        // is a pipeline bug, not an input problem.
        let kept: std::collections::HashSet<(BugKind, canary_ir::Label, canary_ir::Label)> =
            reports.iter().map(|r| (r.kind, r.source, r.sink)).collect();
        audit.apply_report_dedup(&kept);
        debug_assert!(
            audit.reconcile().is_ok(),
            "{}",
            audit.reconcile().unwrap_err()
        );
        canary_trace::log(LogLevel::Summary, || {
            format!(
                "detect: {} quer(ies), {} report(s) in {:?}",
                stats.queries,
                stats.confirmed,
                t0.elapsed()
            )
        });
        metrics.t_detect = t0.elapsed();
        metrics.detect_phase = PhaseStats {
            wall: metrics.t_detect,
            workers: detect_opts.solver.num_threads,
            tasks: stats.queries,
            peak_rss: canary_trace::metrics::peak_rss_bytes(),
        };
        metrics.detect = stats;
        metrics.term_count = pool.len();
        metrics.term_bytes = pool.approx_bytes();
        metrics.query_profiles = query_profiles;
        metrics.audit = audit;
        let witness_replays = if self.config.verify_witnesses {
            // Replay runs under the same memory model the detector
            // analyzed: a TSO/PSO witness may invert program order and
            // only the store-buffer machine can realize it.
            let model = self.config.detect.memory_model;
            let replays: Vec<canary_oracle::ReplayResult> = reports
                .iter()
                .map(|r| canary_oracle::replay_report_under(prog, model, r))
                .collect();
            metrics.witnesses_checked = replays.len();
            metrics.witnesses_confirmed = replays.iter().filter(|r| r.confirmed()).count();
            replays
        } else {
            Vec::new()
        };
        AnalysisOutcome {
            reports,
            metrics,
            analyzed_program: None,
            refuted,
            witness_replays,
        }
    }

    /// Runs only the VFG-construction phases (Alg. 1 + Alg. 2); the
    /// Fig. 7 comparison measures exactly this.
    #[allow(clippy::type_complexity)]
    pub fn build_vfg(
        &self,
        prog: &Program,
    ) -> (
        TermPool,
        canary_dataflow::DataflowResult,
        InterferenceResult,
        CallGraph,
        ThreadStructure,
        Metrics,
    ) {
        self.build_vfg_traced(prog, &Tracer::disabled())
    }

    /// [`build_vfg`](Self::build_vfg) with spans collected into `tracer`.
    #[allow(clippy::type_complexity)]
    pub fn build_vfg_traced(
        &self,
        prog: &Program,
        tracer: &Tracer,
    ) -> (
        TermPool,
        canary_dataflow::DataflowResult,
        InterferenceResult,
        CallGraph,
        ThreadStructure,
        Metrics,
    ) {
        let (cg, ts, mut vfg) = self.alg1_phase(prog, tracer);
        let ir_result = self.alg2_phase(prog, &cg, &ts, &mut vfg, tracer).1;
        (vfg.pool, vfg.df, ir_result, cg, ts, vfg.metrics)
    }

    /// Call graph, thread structure and Alg. 1; the `dataflow` timer
    /// covers all three.
    fn alg1_phase(
        &self,
        prog: &Program,
        tracer: &Tracer,
    ) -> (CallGraph, ThreadStructure, VfgBuild) {
        let mut metrics = Metrics {
            stmt_count: prog.stmt_count(),
            thread_count: prog.threads.len(),
            worker_threads: self.config.threads.max(1),
            ..Metrics::default()
        };
        let mut pool = TermPool::new();

        let t0 = Instant::now();
        let (cg, ts) = {
            let _phase = tracer.span(LANE_PIPELINE, "pipeline", 0, || "callgraph".into());
            let cg = CallGraph::build(prog);
            let ts = ThreadStructure::compute(prog, &cg);
            (cg, ts)
        };
        let df = {
            let mut phase = tracer.span(LANE_PIPELINE, "pipeline", 1, || "alg1".into());
            let df = canary_dataflow::run_traced(prog, &cg, &mut pool, tracer);
            phase.record("tasks", df.tasks as u64);
            phase.record("functions", df.func_profiles.len() as u64);
            df
        };
        metrics.t_dataflow = t0.elapsed();
        metrics.dataflow_phase = PhaseStats {
            wall: metrics.t_dataflow,
            workers: 1,
            tasks: df.tasks,
            peak_rss: canary_trace::metrics::peak_rss_bytes(),
        };
        canary_trace::log(LogLevel::Summary, || {
            format!(
                "alg1: {} task(s) over {} function(s) in {:?}",
                df.tasks,
                df.func_profiles.len(),
                metrics.t_dataflow
            )
        });
        (cg, ts, VfgBuild { pool, df, metrics })
    }

    /// MHP and Alg. 2; the `interference` timer covers both. Returns
    /// the MHP relation so detection can reuse it.
    fn alg2_phase<'a>(
        &self,
        prog: &'a Program,
        cg: &'a CallGraph,
        ts: &'a ThreadStructure,
        vfg: &mut VfgBuild,
        tracer: &Tracer,
    ) -> (MhpAnalysis<'a>, InterferenceResult) {
        let VfgBuild { pool, df, metrics } = vfg;
        let t1 = Instant::now();
        let mhp = MhpAnalysis::new(prog, cg, ts);
        let ir_result = {
            let mut phase = tracer.span(LANE_PIPELINE, "pipeline", 2, || "alg2".into());
            let iopts = &self.config.interference;
            let r = canary_interference::run_traced(prog, ts, &mhp, df, pool, iopts, tracer);
            phase.record("rounds", r.rounds as u64);
            phase.record("interference_edges", r.interference_edges as u64);
            phase.record("mhp_lock_pruned", r.mhp_lock_pruned as u64);
            phase.record("escaped", r.escaped.len() as u64);
            r
        };
        metrics.t_interference = t1.elapsed();
        metrics.interference_phase = PhaseStats {
            wall: metrics.t_interference,
            workers: 1,
            tasks: ir_result.tasks,
            peak_rss: canary_trace::metrics::peak_rss_bytes(),
        };
        canary_trace::log(LogLevel::Summary, || {
            format!(
                "alg2: {} round(s), {} interference edge(s) in {:?}",
                ir_result.rounds, ir_result.interference_edges, metrics.t_interference
            )
        });

        metrics.vfg_nodes = df.vfg.node_count();
        metrics.vfg_edges = df.vfg.edge_count();
        metrics.interference_edges = df.vfg.interference_edge_count();
        metrics.mhp_lock_pruned = ir_result.mhp_lock_pruned;
        metrics.escaped_objects = ir_result.escaped.len();
        metrics.vfg_bytes = df.vfg.approx_bytes();
        metrics.term_count = pool.len();
        metrics.term_bytes = pool.approx_bytes();
        metrics.func_profiles = df.func_profiles.clone();
        (mhp, ir_result)
    }
}

/// The value-flow graph under construction: what Alg. 1 builds and
/// Alg. 2 extends with interference edges.
struct VfgBuild {
    pool: TermPool,
    df: canary_dataflow::DataflowResult,
    metrics: Metrics,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_checks_all_kinds() {
        let c = Canary::new();
        assert_eq!(c.config().checkers.len(), 6);
    }

    #[test]
    fn analyze_source_reports_sequential_uaf() {
        let outcome = Canary::new()
            .analyze_source("fn main() { p = alloc o; free p; use p; }")
            .unwrap();
        assert_eq!(outcome.reports.len(), 1);
        assert_eq!(outcome.reports[0].kind, BugKind::UseAfterFree);
        assert!(outcome.metrics.t_total() >= outcome.metrics.t_vfg());
        assert!(outcome.metrics.stmt_count >= 3);
    }

    #[test]
    fn parse_errors_surface() {
        let err = Canary::new().analyze_source("fn main() {").unwrap_err();
        assert!(matches!(err, Error::Parse(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn metrics_capture_vfg_shape() {
        let outcome = Canary::new()
            .analyze_source(
                "fn main() { x = alloc o1; fork t w(x); c = *x; use c; }
                 fn w(y) { b = alloc o2; *y = b; }",
            )
            .unwrap();
        assert!(outcome.metrics.vfg_nodes > 0);
        assert!(outcome.metrics.vfg_edges > 0);
        assert!(outcome.metrics.interference_edges >= 1);
        assert!(outcome.metrics.escaped_objects >= 1);
        assert!(outcome.metrics.vfg_bytes > 0);
        assert!(outcome.metrics.term_count > 2);
    }

    #[test]
    fn render_mentions_kind() {
        let src = "fn main() { p = alloc o; free p; use p; }";
        let prog = canary_ir::parse(src).unwrap();
        let outcome = Canary::new().analyze(&prog);
        let text = outcome.render(&prog);
        assert!(text.contains("use-after-free"));
    }

    #[test]
    fn verify_witnesses_confirms_reports() {
        let config = CanaryConfig {
            verify_witnesses: true,
            ..CanaryConfig::default()
        };
        let outcome = Canary::with_config(config)
            .analyze_source(
                "fn main() { p = alloc o; fork t w(p); free p; }
                 fn w(q) { use q; }",
            )
            .unwrap();
        assert!(!outcome.reports.is_empty());
        assert_eq!(outcome.witness_replays.len(), outcome.reports.len());
        assert_eq!(
            outcome.metrics.witnesses_checked,
            outcome.reports.len()
        );
        assert_eq!(
            outcome.metrics.witnesses_confirmed,
            outcome.reports.len(),
            "replays: {:?}",
            outcome.witness_replays
        );
        assert!(outcome.witness_replays.iter().all(|r| r.confirmed()));
    }

    #[test]
    fn verification_off_by_default() {
        let outcome = Canary::new()
            .analyze_source("fn main() { p = alloc o; free p; use p; }")
            .unwrap();
        assert!(outcome.witness_replays.is_empty());
        assert_eq!(outcome.metrics.witnesses_checked, 0);
    }

    #[test]
    fn checker_subset_respected() {
        let config = CanaryConfig {
            checkers: vec![BugKind::DataLeak],
            ..CanaryConfig::default()
        };
        let outcome = Canary::with_config(config)
            .analyze_source("fn main() { p = alloc o; free p; use p; }")
            .unwrap();
        assert!(outcome.reports.is_empty());
    }
}
