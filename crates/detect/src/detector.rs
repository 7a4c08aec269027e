//! The source-sink checkers (§5): use-after-free, double-free,
//! null-dereference and data-leak, all reduced to guarded reachability
//! over the interference-aware VFG followed by SMT validation of
//! `Φ_all = Φ_guards ∧ Φ_po` (Eq. 5).

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use canary_dataflow::{DataflowResult, LockModel};
use canary_ir::{Inst, Label, MhpAnalysis, Program, ThreadStructure, VarId, MAIN_THREAD};
use canary_smt::{
    check_all_grouped, check_orders, EventId, Node, OrderEdge, QueryCache, SmtResult,
    SolverOptions, TermId, TermPool, TheoryResult,
};
use canary_trace::{Tracer, LANE_DETECT, LANE_SMT};
use canary_vfg::{EdgeKind, NodeId, NodeKind};

use crate::audit::{AuditLog, Disposition};
use crate::constraints;
use crate::path::{enumerate_paths_budgeted, PathLimits, SinkReach, VfPath};
use crate::provenance::{
    EscapeFact, Fingerprint, MhpFact, ModelSlice, ProvEdge, ProvNode, Provenance,
};
use crate::report::{BugKind, BugReport};
use crate::sync::SyncModel;

/// The memory model assumed when generating program-order constraints
/// (§9 extension: "extension to relaxed memory models such as
/// TSO/PSO"). Weaker models *drop* ordering constraints, so they can
/// only add reports — relaxation is conservative for bug finding.
///
/// The location check is syntactic (address variables), a documented
/// approximation: two different pointer variables to the same object
/// are treated as different locations, erring toward reporting.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum MemoryModel {
    /// Sequential consistency (§3.1, the paper's base model).
    #[default]
    Sc,
    /// Total store order: a store may be reordered after a subsequent
    /// load to a different location (store buffering).
    Tso,
    /// Partial store order: TSO plus store→store reordering to
    /// different locations.
    Pso,
}

/// Options controlling detection.
#[derive(Clone, Debug)]
pub struct DetectOptions {
    /// SMT strategy (§5.2 knobs: prefilter, parallel queries).
    pub solver: SolverOptions,
    /// Path enumeration caps.
    pub limits: PathLimits,
    /// Report only witnesses spanning more than one thread (the
    /// *inter-thread* checkers of Tbl. 1).
    pub inter_thread_only: bool,
    /// Plug in the §9 lock/unlock + wait/notify constraints.
    pub sync_constraints: bool,
    /// Memory model for program-order constraint generation (§9).
    pub memory_model: MemoryModel,
    /// Compute minimized refutation cores for dismissed candidates
    /// (diagnostics; costs extra solver calls per refuted candidate).
    pub explain_refutations: bool,
    /// Slow-query watchdog budget in milliseconds: any SMT query whose
    /// wall time meets the budget is logged to stderr with its
    /// [`QueryProfile`] attribution, independent of `CANARY_LOG`.
    /// `None` (the default) disables the watchdog.
    pub slow_query_ms: Option<u64>,
}

impl Default for DetectOptions {
    fn default() -> Self {
        DetectOptions {
            solver: SolverOptions::default(),
            limits: PathLimits::default(),
            inter_thread_only: false,
            sync_constraints: true,
            memory_model: MemoryModel::Sc,
            explain_refutations: false,
            slow_query_ms: None,
        }
    }
}

/// Counters for the evaluation harness. The solver-work fields
/// (`prefiltered` onward) aggregate the per-query [`QueryProfile`]
/// counters of every validated candidate — they are sums of
/// deterministic per-query counts, so they are deterministic too.
#[derive(Clone, Copy, Debug, Default)]
pub struct DetectStats {
    /// Candidate source-sink paths enumerated.
    pub candidate_paths: usize,
    /// SMT queries issued (after prefiltering at construction).
    pub queries: usize,
    /// Reports surviving SMT validation.
    pub confirmed: usize,
    /// Queries answered by the semi-decision prefilter alone.
    pub prefiltered: u64,
    /// CDCL decisions across all validation queries.
    pub decisions: u64,
    /// CDCL conflicts across all validation queries.
    pub conflicts: u64,
    /// Unit propagations across all validation queries.
    pub propagations: u64,
    /// Learned clauses retained across all validation queries.
    pub learned: u64,
    /// Theory (order-cycle) lemmas across all validation queries.
    pub theory_lemmas: u64,
    /// Query families formed by the incremental strategy (0 under
    /// `fresh`).
    pub families: u64,
    /// Queries answered from the hash-consed result memo.
    pub memo_hits: u64,
    /// Queries refuted by UNSAT-core subsumption.
    pub core_subsumed: u64,
    /// Queries solved on a persistent family solver.
    pub incremental: u64,
    /// Learned clauses still alive on family solvers at family end —
    /// reuse the fresh strategy discards between queries.
    pub clauses_retained: u64,
}

/// Per-SMT-query attribution record (§5 validation): which candidate
/// the query belonged to, how big its formula was, and what the solver
/// spent on it. Everything except `wall` is deterministic.
#[derive(Clone, Debug)]
pub struct QueryProfile {
    /// The property being checked.
    pub kind: BugKind,
    /// Candidate source statement.
    pub source: Label,
    /// Candidate sink statement.
    pub sink: Label,
    /// VFG nodes on the candidate path.
    pub path_len: u64,
    /// Distinct Boolean (branch) atoms in `Φ_all`.
    pub bool_atoms: u64,
    /// Distinct strict-order atoms in `Φ_all`.
    pub order_atoms: u64,
    /// Whether the query was satisfiable (a confirmed flow).
    pub sat: bool,
    /// Answered by the prefilter alone.
    pub prefiltered: bool,
    /// CDCL decisions.
    pub decisions: u64,
    /// CDCL conflicts.
    pub conflicts: u64,
    /// Unit propagations.
    pub propagations: u64,
    /// Learned clauses retained.
    pub learned: u64,
    /// Theory lemmas fed back.
    pub theory_lemmas: u64,
    /// Answered from the hash-consed result memo.
    pub memo_hit: bool,
    /// Refuted by UNSAT-core subsumption.
    pub core_subsumed: bool,
    /// Solved on a persistent family solver.
    pub incremental: bool,
    /// Query-family key the query was grouped under (the candidate's
    /// source label).
    pub family: u64,
    /// Wall time spent solving (not deterministic).
    pub wall: Duration,
}

/// Everything the detector reads; built once per program by the
/// pipeline in `canary-core`.
#[derive(Debug)]
pub struct DetectContext<'p> {
    /// The program under analysis.
    pub prog: &'p Program,
    /// Thread membership facts.
    pub ts: &'p ThreadStructure,
    /// MHP + program order.
    pub mhp: &'p MhpAnalysis<'p>,
    /// Alg. 1 + Alg. 2 output (interference-aware VFG inside).
    pub df: &'p DataflowResult,
    /// Synchronization model (§9 extension), if enabled.
    pub sync: Option<SyncModel>,
    /// Critical-section model for the lock-discipline checkers.
    pub locks: LockModel,
    /// Each object's first VFG node ([`canary_vfg::Vfg::first_obj_nodes`]),
    /// indexed by object id: where the use-after-free and double-free
    /// checkers start their search.
    obj_nodes: Vec<Option<NodeId>>,
}

impl<'p> DetectContext<'p> {
    /// Builds a context, scanning synchronization sites when enabled.
    pub fn new(
        prog: &'p Program,
        ts: &'p ThreadStructure,
        mhp: &'p MhpAnalysis<'p>,
        df: &'p DataflowResult,
        opts: &DetectOptions,
    ) -> Self {
        let sync = opts
            .sync_constraints
            .then(|| SyncModel::build(prog, mhp.order_graph(), df));
        let locks = LockModel::build(prog, mhp.order_graph(), df);
        DetectContext {
            prog,
            ts,
            mhp,
            df,
            sync,
            locks,
            obj_nodes: df.vfg.first_obj_nodes(prog.objs.len()),
        }
    }

    fn def_node(&self, v: VarId) -> Option<NodeId> {
        let l = self.df.def_site[v.index()]?;
        self.df.vfg.find(NodeKind::Def { var: v, label: l })
    }

    fn use_node(&self, v: VarId, l: Label) -> Option<NodeId> {
        self.df.vfg.find(NodeKind::Def { var: v, label: l })
    }
}

/// A candidate finding awaiting SMT validation. `family` is the
/// query-family key — the candidate's source label, so all paths out
/// of one source (which share almost all of their guard and order
/// conjuncts) land on one persistent solver. Candidates are emitted in
/// source order, so equal keys are contiguous and families form
/// deterministically.
#[derive(Debug)]
struct Candidate {
    query: TermId,
    report: BugReport,
    /// The value-flow path of a path-based candidate. Only reports
    /// carry provenance, so [`validate`] builds it from the path just
    /// before reporting.
    path: Option<VfPath>,
    path_len: u64,
    family: u64,
    /// The pending [`AuditLog`] record opened when the candidate was
    /// materialized; [`validate`] writes its terminal disposition.
    audit_id: usize,
}

/// A candidate the solver refuted, with a deletion-minimal core of the
/// constraints that killed it — the "why is this not a bug" diagnosis
/// dual to the paper's concise bug reports.
#[derive(Clone, Debug)]
pub struct RefutedCandidate {
    /// The property that was being checked.
    pub kind: BugKind,
    /// Candidate source statement.
    pub source: Label,
    /// Candidate sink statement.
    pub sink: Label,
    /// Rendered minimal-core constraints.
    pub core: Vec<String>,
}

/// Runs one checker over the program.
pub fn check_kind(
    ctx: &DetectContext<'_>,
    pool: &mut TermPool,
    kind: BugKind,
    opts: &DetectOptions,
    stats: &mut DetectStats,
) -> Vec<BugReport> {
    check_kind_explained(ctx, pool, kind, opts, stats).0
}

/// Like [`check_kind`], additionally returning a minimized refutation
/// core for every candidate the solver dismissed.
pub fn check_kind_explained(
    ctx: &DetectContext<'_>,
    pool: &mut TermPool,
    kind: BugKind,
    opts: &DetectOptions,
    stats: &mut DetectStats,
) -> (Vec<BugReport>, Vec<RefutedCandidate>) {
    let (reports, refuted, _profiles) = check_kind_traced(
        ctx,
        pool,
        kind,
        opts,
        stats,
        &Tracer::disabled(),
        &mut QueryCache::new(),
        &mut AuditLog::new(),
    );
    (reports, refuted)
}

/// [`check_kind_explained`] plus observability: a per-kind span on the
/// detection lane, one span and one [`QueryProfile`] per SMT query on
/// the SMT lane, and the solver-work counters folded into `stats`.
///
/// `cache` is the cross-checker [`QueryCache`]: pass the same instance
/// to every checker of one analysis run so UNSAT cores and memoized
/// verdicts learned by one checker refute later checkers' queries.
/// Checkers run sequentially, so the reuse is deterministic.
///
/// `audit` is the run-wide [`AuditLog`]: every candidate this checker
/// materializes (or prefilters away) gets exactly one terminal
/// disposition recorded there. Pass the same instance to every checker
/// so memo/subsumption dispositions see earlier checkers' refutations,
/// mirroring the shared `cache`.
#[allow(clippy::too_many_arguments)]
pub fn check_kind_traced(
    ctx: &DetectContext<'_>,
    pool: &mut TermPool,
    kind: BugKind,
    opts: &DetectOptions,
    stats: &mut DetectStats,
    tracer: &Tracer,
    cache: &mut QueryCache,
    audit: &mut AuditLog,
) -> (Vec<BugReport>, Vec<RefutedCandidate>, Vec<QueryProfile>) {
    let paths_before = stats.candidate_paths;
    let mut span = tracer.span(LANE_DETECT, "detect", kind as u64, || {
        format!("detect.kind:{kind}")
    });
    let candidates = match kind {
        BugKind::UseAfterFree => uaf_candidates(ctx, pool, opts, stats, false, audit),
        BugKind::DoubleFree => uaf_candidates(ctx, pool, opts, stats, true, audit),
        BugKind::NullDeref => flow_candidates(
            ctx,
            pool,
            opts,
            stats,
            kind,
            &null_sources(ctx.prog),
            &deref_sinks(ctx),
            audit,
        ),
        BugKind::DataLeak => flow_candidates(
            ctx,
            pool,
            opts,
            stats,
            kind,
            &taint_sources(ctx.prog),
            &sink_nodes(ctx),
            audit,
        ),
        BugKind::DoubleLock => double_lock_candidates(ctx, pool, opts, stats, audit),
        BugKind::ConflictLock => conflict_lock_candidates(ctx, pool, opts, stats, audit),
    };
    span.record(
        "candidate_paths",
        (stats.candidate_paths - paths_before) as u64,
    );
    span.record("queries", candidates.len() as u64);
    let (reports, refuted, profiles) = validate(
        ctx, pool, candidates, opts, stats, kind, tracer, cache, audit,
    );
    span.record("confirmed", reports.len() as u64);
    span.finish();
    canary_trace::log(canary_trace::LogLevel::Debug, || {
        format!(
            "detect: {kind}: {} quer(ies), {} confirmed",
            profiles.len(),
            reports.len()
        )
    });
    (reports, refuted, profiles)
}

/// Runs every checker.
pub fn check_all_kinds(
    ctx: &DetectContext<'_>,
    pool: &mut TermPool,
    opts: &DetectOptions,
    stats: &mut DetectStats,
) -> Vec<BugReport> {
    let mut cache = QueryCache::new();
    let mut audit = AuditLog::new();
    let mut out = Vec::new();
    for kind in [
        BugKind::UseAfterFree,
        BugKind::DoubleFree,
        BugKind::NullDeref,
        BugKind::DataLeak,
        BugKind::DoubleLock,
        BugKind::ConflictLock,
    ] {
        let (reports, _, _) = check_kind_traced(
            ctx,
            pool,
            kind,
            opts,
            stats,
            &Tracer::disabled(),
            &mut cache,
            &mut audit,
        );
        out.extend(reports);
    }
    out
}

/// Counts the distinct Boolean and order atoms in a term DAG.
fn count_atoms(pool: &TermPool, root: TermId) -> (u64, u64) {
    let mut visited: HashSet<TermId> = HashSet::new();
    let mut stack = vec![root];
    let (mut bools, mut orders) = (0u64, 0u64);
    while let Some(t) = stack.pop() {
        if !visited.insert(t) {
            continue;
        }
        match pool.node(t) {
            Node::BoolAtom(_) => bools += 1,
            Node::Order(_, _) => orders += 1,
            Node::Not(a) => stack.push(*a),
            Node::And(xs) | Node::Or(xs) => stack.extend(xs.iter().copied()),
            Node::True | Node::False => {}
        }
    }
    (bools, orders)
}

/// SMT-validates candidates, in parallel when configured (§5.2).
#[allow(clippy::too_many_arguments)]
fn validate(
    ctx: &DetectContext<'_>,
    pool: &mut TermPool,
    candidates: Vec<Candidate>,
    opts: &DetectOptions,
    stats: &mut DetectStats,
    kind: BugKind,
    tracer: &Tracer,
    cache: &mut QueryCache,
    audit: &mut AuditLog,
) -> (Vec<BugReport>, Vec<RefutedCandidate>, Vec<QueryProfile>) {
    stats.queries += candidates.len();
    let queries: Vec<TermId> = candidates.iter().map(|c| c.query).collect();
    let groups: Vec<u64> = candidates.iter().map(|c| c.family).collect();
    let grouped = check_all_grouped(pool, &queries, &groups, &opts.solver, cache);
    let outcomes = grouped.outcomes;
    stats.families += grouped.families;
    stats.clauses_retained += grouped.clauses_retained;
    let mut profiles = Vec::with_capacity(outcomes.len());
    for (qi, (cand, o)) in candidates.iter().zip(&outcomes).enumerate() {
        let (bool_atoms, order_atoms) = count_atoms(pool, cand.query);
        let p = QueryProfile {
            kind,
            source: cand.report.source,
            sink: cand.report.sink,
            path_len: cand.path_len,
            bool_atoms,
            order_atoms,
            sat: o.result == SmtResult::Sat,
            prefiltered: o.stats.prefiltered,
            decisions: o.stats.decisions,
            conflicts: o.stats.conflicts,
            propagations: o.stats.propagations,
            learned: o.stats.learned,
            theory_lemmas: o.stats.theory_lemmas,
            memo_hit: o.memo_hit,
            core_subsumed: o.core_subsumed,
            incremental: o.incremental,
            family: cand.family,
            wall: o.wall,
        };
        // Aggregate only the per-query counters (not the shared atomics,
        // which diagnostics below would pollute): sums of deterministic
        // per-query counts stay deterministic.
        stats.prefiltered += u64::from(p.prefiltered);
        stats.decisions += p.decisions;
        stats.conflicts += p.conflicts;
        stats.propagations += p.propagations;
        stats.learned += p.learned;
        stats.theory_lemmas += p.theory_lemmas;
        stats.memo_hits += u64::from(p.memo_hit);
        stats.core_subsumed += u64::from(p.core_subsumed);
        stats.incremental += u64::from(p.incremental);
        tracer.event(
            LANE_SMT,
            "smt.query",
            qi as u64,
            || format!("smt.query:{}:{}->{}", p.kind, p.source.0, p.sink.0),
            o.started,
            o.wall,
            || {
                let mut args = vec![
                    ("sat", u64::from(p.sat)),
                    ("prefiltered", u64::from(p.prefiltered)),
                    ("path_len", p.path_len),
                    ("bool_atoms", p.bool_atoms),
                    ("order_atoms", p.order_atoms),
                    ("decisions", p.decisions),
                    ("conflicts", p.conflicts),
                    ("propagations", p.propagations),
                    ("learned", p.learned),
                    ("theory_lemmas", p.theory_lemmas),
                    ("memo_hit", u64::from(p.memo_hit)),
                    ("core_subsumed", u64::from(p.core_subsumed)),
                    ("incremental", u64::from(p.incremental)),
                ];
                if p.sat {
                    // Cross-link the span with the report the query
                    // belongs to: the fingerprint is the stable join key
                    // between trace events and emitted findings.
                    args.push(("report_fp", cand.report.fingerprint(ctx.prog).0));
                }
                args
            },
        );
        if let Some(budget_ms) = opts.slow_query_ms {
            if p.wall.as_millis() as u64 >= budget_ms {
                // Watchdog output is opt-in via the budget itself, so it
                // bypasses CANARY_LOG: asking for it means wanting it.
                eprintln!(
                    "canary: slow-query: {} {}->{} took {:?} (budget {budget_ms}ms): \
                     family={} path_len={} bool_atoms={} order_atoms={} decisions={} \
                     conflicts={} propagations={} learned={} theory_lemmas={} sat={} \
                     prefiltered={} memo_hit={} core_subsumed={} incremental={}",
                    p.kind,
                    p.source.0,
                    p.sink.0,
                    p.wall,
                    p.family,
                    p.path_len,
                    p.bool_atoms,
                    p.order_atoms,
                    p.decisions,
                    p.conflicts,
                    p.propagations,
                    p.learned,
                    p.theory_lemmas,
                    p.sat,
                    p.prefiltered,
                    p.memo_hit,
                    p.core_subsumed,
                    p.incremental,
                );
            }
        }
        profiles.push(p);
    }
    canary_trace::log(canary_trace::LogLevel::Summary, || {
        format!(
            "detect: {kind}: {} quer(ies) across {} famil(ies)",
            outcomes.len(),
            grouped.families,
        )
    });
    // First-confirmed fingerprint per (kind, source, sink): later
    // sat candidates for the same key collapse onto it, and the audit
    // names it as their dedup winner. Candidate order is the
    // deterministic enumeration order, so the winner is too.
    let mut seen: HashMap<(BugKind, Label, Label), Fingerprint> = HashMap::new();
    let mut refuted_seen: HashSet<(BugKind, Label, Label)> = HashSet::new();
    let mut out = Vec::new();
    let mut refuted = Vec::new();
    for (mut cand, o) in candidates.into_iter().zip(outcomes) {
        if o.result != SmtResult::Sat {
            audit.dispose_unsat(cand.audit_id, pool, cand.query, o.stats.prefiltered);
            if let Some(core) = &o.core {
                audit.attach_solver_core(
                    cand.audit_id,
                    core.iter().map(|&c| pool.render(c)).collect(),
                );
            }
            if opts.explain_refutations
                && refuted_seen.insert((cand.report.kind, cand.report.source, cand.report.sink))
            {
                let core: Vec<String> = if cand.query == pool.ff() {
                    vec!["constraints fold to false at construction (complementary \
                         branch guards or order atoms)"
                        .to_string()]
                } else {
                    canary_smt::minimal_core(pool, cand.query, &opts.solver)
                        .unwrap_or_default()
                        .into_iter()
                        .map(|c| pool.render(c))
                        .collect()
                };
                refuted.push(RefutedCandidate {
                    kind: cand.report.kind,
                    source: cand.report.source,
                    sink: cand.report.sink,
                    core,
                });
            }
            continue;
        }
        let key = (cand.report.kind, cand.report.source, cand.report.sink);
        if let Some(&winner) = seen.get(&key) {
            audit.dispose(cand.audit_id, Disposition::Deduped { winner });
            continue;
        }
        let fp = cand.report.fingerprint(ctx.prog);
        seen.insert(key, fp);
        audit.dispose(cand.audit_id, Disposition::Reported { fingerprint: fp });
        if let Some(path) = &cand.path {
            cand.report.provenance = Some(build_provenance(ctx, pool, path));
        }
        // Extract one concrete interleaving for the report (§2): a
        // topological order of the model's order atoms, completed with
        // the fork/join sites the oracle needs to replay it, plus the
        // model's branch directions.
        if let Some(w) = canary_smt::check_witness_model(pool, cand.query) {
            let guards: Vec<(canary_ir::CondId, bool)> = w
                .bools
                .iter()
                .map(|&(i, v)| (canary_ir::CondId(i), v))
                .collect();
            let order: Vec<(Label, Label)> = w
                .orders
                .iter()
                .map(|&(a, b)| (Label(a), Label(b)))
                .collect();
            let witness: Vec<Label> = w.events.into_iter().map(Label).collect();
            let schedule = crate::schedule::complete_schedule(
                ctx.prog,
                ctx.mhp.order_graph(),
                opts.memory_model,
                &witness,
                cand.report.source,
                cand.report.sink,
            );
            if let Some(prov) = cand.report.provenance.as_mut() {
                prov.model = Some(ModelSlice {
                    guards: guards.clone(),
                    order,
                    schedule: schedule.clone(),
                });
            }
            cand.report.guards = guards;
            cand.report.schedule = schedule;
        }
        // The executing thread of each step SARIF renders, so exports
        // need not rebuild the thread structure.
        let ends = [cand.report.source, cand.report.sink];
        let steps: &[Label] = if cand.report.schedule.is_empty() {
            &ends
        } else {
            &cand.report.schedule
        };
        cand.report.step_threads = steps
            .iter()
            .map(|&l| {
                let threads = ctx.ts.threads_of(ctx.prog, l);
                threads.first().copied().unwrap_or(MAIN_THREAD)
            })
            .collect();
        // Only reports export the constraint, so only they render it.
        cand.report.constraint = pool.render(cand.query);
        out.push(cand.report);
    }
    stats.confirmed += out.len();
    out.sort_by_key(|r| (r.source, r.sink));
    refuted.sort_by_key(|r| (r.source, r.sink));
    (out, refuted, profiles)
}

/// Dereference sinks: `use v` statements, as their VFG use nodes.
fn deref_sinks(ctx: &DetectContext<'_>) -> Vec<(NodeId, Label)> {
    ctx.prog
        .labels()
        .filter_map(|l| match ctx.prog.inst(l) {
            Inst::Deref { ptr } => ctx.use_node(*ptr, l).map(|n| (n, l)),
            _ => None,
        })
        .collect()
}

/// Leak sinks: `sink v` statements.
fn sink_nodes(ctx: &DetectContext<'_>) -> Vec<(NodeId, Label)> {
    ctx.prog
        .labels()
        .filter_map(|l| match ctx.prog.inst(l) {
            Inst::TaintSink { src } => ctx.use_node(*src, l).map(|n| (n, l)),
            _ => None,
        })
        .collect()
}

fn null_sources(prog: &Program) -> Vec<(VarId, Label)> {
    prog.labels()
        .filter_map(|l| match prog.inst(l) {
            Inst::AssignNull { dst } => Some((*dst, l)),
            _ => None,
        })
        .collect()
}

fn taint_sources(prog: &Program) -> Vec<(VarId, Label)> {
    prog.labels()
        .filter_map(|l| match prog.inst(l) {
            Inst::TaintSource { dst } => Some((*dst, l)),
            _ => None,
        })
        .collect()
}

/// Use-after-free / double-free candidates. The freed *objects* anchor
/// the search (every alias of a freed object is dangerous), following
/// the guarded flows out of the object node.
fn uaf_candidates(
    ctx: &DetectContext<'_>,
    pool: &mut TermPool,
    opts: &DetectOptions,
    stats: &mut DetectStats,
    double_free: bool,
    audit: &mut AuditLog,
) -> Vec<Candidate> {
    let kind = if double_free {
        BugKind::DoubleFree
    } else {
        BugKind::UseAfterFree
    };
    let mut sinks: Vec<(NodeId, Label)> = if double_free {
        ctx.prog
            .labels()
            .filter_map(|l| match ctx.prog.inst(l) {
                Inst::Free { ptr } => ctx.use_node(*ptr, l).map(|n| (n, l)),
                _ => None,
            })
            .collect()
    } else {
        deref_sinks(ctx)
    };
    sinks.sort_unstable();
    let sink_set: HashSet<NodeId> = sinks.iter().map(|&(n, _)| n).collect();
    // One reverse-reachability pass for the whole checker: every
    // source below enumerates against the same sink set.
    let reach = SinkReach::compute(&ctx.df.vfg, &sink_set);
    let mut out = Vec::new();
    for free_label in ctx.prog.free_sites() {
        let Inst::Free { ptr } = ctx.prog.inst(free_label) else {
            continue;
        };
        let Some(pn) = ctx.def_node(*ptr) else {
            continue;
        };
        let free_guard = ctx.df.path_conds.guard(free_label);
        // Objects the freed pointer may reference.
        for obj in ctx.df.vfg.objects_reaching(pn) {
            let Some(on) = ctx.obj_nodes[obj.index()] else {
                continue;
            };
            let (paths, trunc) =
                enumerate_paths_budgeted(&ctx.df.vfg, on, &sink_set, &reach, opts.limits);
            if let Some(limit) = trunc.limit() {
                // Candidates past the cut never materialize; the
                // budget marker is their collective disposition.
                audit.record_path_budget(
                    kind,
                    free_label,
                    Some(ctx.prog.obj_name(obj).to_string()),
                    limit,
                );
            }
            for p in paths {
                stats.candidate_paths += 1;
                let sink_node = *p.nodes.last().expect("paths are nonempty");
                let Some(&(_, sink_label)) = sinks.iter().find(|&&(n, _)| n == sink_node) else {
                    continue;
                };
                if sink_label == free_label {
                    continue;
                }
                if double_free && sink_label < free_label {
                    // Report each unordered pair once.
                    continue;
                }
                let mut extra = vec![free_guard];
                if !double_free {
                    // The use must be *after* the free.
                    extra.push(pool.order_lt(free_label.0, sink_label.0));
                }
                if let Some(c) = finish_candidate(
                    ctx, pool, opts, kind, free_label, sink_label, p, &extra, audit,
                ) {
                    out.push(c);
                }
            }
        }
    }
    out
}

/// Generic value-flow candidates from variable-def sources to sinks
/// (null-dereference, data-leak).
#[allow(clippy::too_many_arguments)]
fn flow_candidates(
    ctx: &DetectContext<'_>,
    pool: &mut TermPool,
    opts: &DetectOptions,
    stats: &mut DetectStats,
    kind: BugKind,
    sources: &[(VarId, Label)],
    sinks: &[(NodeId, Label)],
    audit: &mut AuditLog,
) -> Vec<Candidate> {
    let sink_set: HashSet<NodeId> = sinks.iter().map(|&(n, _)| n).collect();
    let reach = SinkReach::compute(&ctx.df.vfg, &sink_set);
    let mut out = Vec::new();
    for &(src_var, src_label) in sources {
        let Some(sn) = ctx.df.vfg.find(NodeKind::Def {
            var: src_var,
            label: src_label,
        }) else {
            continue;
        };
        let src_guard = ctx.df.path_conds.guard(src_label);
        let (paths, trunc) =
            enumerate_paths_budgeted(&ctx.df.vfg, sn, &sink_set, &reach, opts.limits);
        if let Some(limit) = trunc.limit() {
            audit.record_path_budget(kind, src_label, None, limit);
        }
        for p in paths {
            stats.candidate_paths += 1;
            let sink_node = *p.nodes.last().expect("paths are nonempty");
            let Some(&(_, sink_label)) = sinks.iter().find(|&&(n, _)| n == sink_node) else {
                continue;
            };
            let extra = vec![src_guard];
            if let Some(c) = finish_candidate(
                ctx, pool, opts, kind, src_label, sink_label, p, &extra, audit,
            ) {
                out.push(c);
            }
        }
    }
    out
}

/// Renders a lock/unlock site as `mutex@l<n>` — the same shape as VFG
/// node renders, so fingerprints stay stable under line shifts.
fn lock_render(prog: &Program, l: Label) -> String {
    let v = match prog.inst(l) {
        Inst::Lock { mutex } | Inst::Unlock { mutex } => *mutex,
        _ => unreachable!("lock_render on a non-lock site"),
    };
    format!("{}@{}", prog.var_name(v), l)
}

/// The mutex object a lock site resolves to, for provenance nodes.
fn lock_object(prog: &Program, lm: &LockModel, l: Label) -> Option<String> {
    lm.locks
        .iter()
        .chain(lm.unlocks.iter())
        .find(|s| s.label == l)
        .and_then(|s| s.objs.first())
        .map(|&o| prog.obj_name(o).to_string())
}

/// Double-lock candidates: a thread re-acquires a mutex of the same
/// alias class while the first acquisition's guard is still live — no
/// aliasing unlock intervenes on any path between the two sites.
/// Cross-thread acquisition of a held lock is contention, not
/// double-lock, so pairs that may sit in distinct threads are skipped
/// (mirroring the oracle, which only reports same-thread
/// re-acquisition). Feasibility is `Φ_guards ∧ O_first < O_second ∧
/// Φ_po`; region mutual exclusion is irrelevant since both events are
/// in one thread.
fn double_lock_candidates(
    ctx: &DetectContext<'_>,
    pool: &mut TermPool,
    opts: &DetectOptions,
    stats: &mut DetectStats,
    audit: &mut AuditLog,
) -> Vec<Candidate> {
    if opts.inter_thread_only {
        // Double-lock is an intra-thread discipline bug by definition.
        return Vec::new();
    }
    let og = ctx.mhp.order_graph();
    let lm = &ctx.locks;
    let keep = order_policy(ctx.prog, opts.memory_model);
    let mut out = Vec::new();
    for a in &lm.locks {
        let Some(class) = a.class else { continue };
        for b in &lm.locks {
            if a.label == b.label
                || b.class != Some(class)
                || !og.happens_before(a.label, b.label)
                || ctx
                    .ts
                    .may_be_in_distinct_threads(ctx.prog, a.label, b.label)
            {
                continue;
            }
            // An aliasing unlock between the two acquisitions releases
            // the guard; any such release defuses the pair.
            let released = lm.unlocks.iter().any(|u| {
                u.class == Some(class)
                    && og.happens_before(a.label, u.label)
                    && og.happens_before(u.label, b.label)
            });
            if released {
                continue;
            }
            stats.candidate_paths += 1;
            let reacq = pool.order_lt(a.label.0, b.label.0);
            let extra = [
                ctx.df.path_conds.guard(a.label),
                ctx.df.path_conds.guard(b.label),
                reacq,
            ];
            let labels = [a.label, b.label];
            let query = constraints::assemble_with(
                pool,
                og,
                &[],
                &labels,
                &extra,
                &keep,
                &constraints::no_sync,
            );
            if query == pool.ff() && !opts.explain_refutations {
                // Same terminal record the validate-side disposal
                // writes when diagnostics keep the candidate alive, so
                // the audit export is explain-flag-invariant.
                audit.record_candidate(
                    BugKind::DoubleLock,
                    a.label,
                    b.label,
                    Disposition::Prefiltered { unit_cycle: false },
                );
                continue;
            }
            let object = lock_object(ctx.prog, lm, a.label);
            let nodes = vec![
                ProvNode {
                    id: 0,
                    label: a.label,
                    render: lock_render(ctx.prog, a.label),
                    object: object.clone(),
                },
                ProvNode {
                    id: 1,
                    label: b.label,
                    render: lock_render(ctx.prog, b.label),
                    object,
                },
            ];
            let edges = vec![ProvEdge {
                from: 0,
                to: 1,
                kind: EdgeKind::Direct,
                guard: format!("class {class} still held: {}", pool.render(reacq)),
                escape: None,
            }];
            let mhp = vec![MhpFact {
                store: a.label,
                load: b.label,
                parallel: ctx.mhp.may_happen_in_parallel(a.label, b.label),
                ordered: og.program_order(a.label, b.label),
            }];
            out.push(Candidate {
                query,
                path: None,
                path_len: 2,
                family: u64::from(a.label.0),
                audit_id: audit.begin_candidate(BugKind::DoubleLock, a.label, b.label),
                report: BugReport {
                    kind: BugKind::DoubleLock,
                    source: a.label,
                    sink: b.label,
                    path: vec![
                        lock_render(ctx.prog, a.label),
                        lock_render(ctx.prog, b.label),
                    ],
                    inter_thread: false,
                    constraint: String::new(),
                    schedule: Vec::new(),
                    step_threads: Vec::new(),
                    guards: Vec::new(),
                    provenance: Some(Provenance {
                        nodes,
                        edges,
                        mhp,
                        model: None,
                    }),
                },
            });
        }
    }
    out
}

/// Conflicting-lock-order candidates: threads acquire the mutexes of a
/// class cycle in incompatible orders. Each nested acquisition — an
/// inner lock site of class `c'` inside a region guarding class `c` —
/// induces an edge `c → c'` in the lock-order graph; the strict
/// partial-order theory decides cyclicity, and each conflict core it
/// returns is exactly one cycle. Cycle edges are removed and the
/// theory re-run, so disjoint seeded cycles surface deterministically.
///
/// A cycle becomes a candidate only when every pair of outer
/// acquisitions may run in distinct threads in parallel, and no *gate
/// lock* — a common class held around every outer, outside the cycle
/// itself — serializes the acquisition sequences (Lockbud's classic
/// false-positive filter). Feasibility is `Φ_guards ∧ (every outer
/// before every inner) ∧ Φ_po`: the canonical blocked state. Region
/// mutual exclusion is deliberately NOT conjoined — the order theory
/// models complete executions and a deadlock has none, so Φ_ls would
/// wrongly refute genuine deadlocks.
fn conflict_lock_candidates(
    ctx: &DetectContext<'_>,
    pool: &mut TermPool,
    opts: &DetectOptions,
    stats: &mut DetectStats,
    audit: &mut AuditLog,
) -> Vec<Candidate> {
    let og = ctx.mhp.order_graph();
    let lm = &ctx.locks;
    // (outer region, inner lock label, inner class): class(region) is
    // held while the inner class is acquired.
    let mut remaining: Vec<(usize, Label, usize)> = Vec::new();
    for (ri, r) in lm.regions.iter().enumerate() {
        for s in &lm.locks {
            let Some(sc) = s.class else { continue };
            if sc != r.class && s.label != r.lock && lm.in_region(og, r, s.label) {
                remaining.push((ri, s.label, sc));
            }
        }
    }
    let mut cycles: Vec<Vec<(usize, Label, usize)>> = Vec::new();
    loop {
        let edges: Vec<OrderEdge> = remaining
            .iter()
            .enumerate()
            .map(|(i, &(ri, _, sc))| OrderEdge {
                from: lm.regions[ri].class as EventId,
                to: sc as EventId,
                atom: i,
            })
            .collect();
        match check_orders(&edges) {
            TheoryResult::Consistent => break,
            TheoryResult::Conflict(atoms) => {
                cycles.push(atoms.iter().map(|&i| remaining[i]).collect());
                for &i in atoms.iter().rev() {
                    remaining.remove(i);
                }
            }
        }
    }
    let keep = order_policy(ctx.prog, opts.memory_model);
    let mut out = Vec::new();
    'cycles: for cyc in cycles {
        // Every pair of outer acquisitions must be concurrently
        // reachable in distinct threads, else the "cycle" is one
        // thread's own nesting history, not a deadlock.
        for (i, &(ri, _, _)) in cyc.iter().enumerate() {
            for &(rj, _, _) in &cyc[i + 1..] {
                let (a, b) = (lm.regions[ri].lock, lm.regions[rj].lock);
                if !ctx.ts.may_be_in_distinct_threads(ctx.prog, a, b)
                    || !ctx.mhp.may_happen_in_parallel(a, b)
                {
                    continue 'cycles;
                }
            }
        }
        // Gate-lock filter: a common class held around every outer,
        // outside the cycle's own classes, serializes the sequences.
        let cycle_classes: HashSet<usize> =
            cyc.iter().map(|&(ri, _, _)| lm.regions[ri].class).collect();
        let mut gate: Option<HashSet<usize>> = None;
        for &(ri, _, _) in &cyc {
            let held: HashSet<usize> = lm
                .regions_containing(og, lm.regions[ri].lock)
                .into_iter()
                .map(|i| lm.regions[i].class)
                .filter(|c| !cycle_classes.contains(c))
                .collect();
            gate = Some(match gate {
                None => held,
                Some(g) => g.intersection(&held).copied().collect(),
            });
        }
        if gate.is_some_and(|g| !g.is_empty()) {
            continue;
        }
        stats.candidate_paths += 1;
        let outers: Vec<Label> = cyc.iter().map(|&(ri, _, _)| lm.regions[ri].lock).collect();
        let inners: Vec<Label> = cyc.iter().map(|&(_, l, _)| l).collect();
        let mut labels = outers.clone();
        labels.extend(&inners);
        let mut extra: Vec<TermId> = labels.iter().map(|&l| ctx.df.path_conds.guard(l)).collect();
        for &o in &outers {
            for &i in &inners {
                if o != i {
                    extra.push(pool.order_lt(o.0, i.0));
                }
            }
        }
        let query = constraints::assemble_with(
            pool,
            og,
            &[],
            &labels,
            &extra,
            &keep,
            &constraints::no_sync,
        );
        // The oracle keys a blocked cycle by its extreme blocked
        // acquisition labels; mirror that so replay confirms.
        let source = *inners.iter().min().expect("cycles are nonempty");
        let sink = *inners.iter().max().expect("cycles are nonempty");
        if query == pool.ff() && !opts.explain_refutations {
            audit.record_candidate(
                BugKind::ConflictLock,
                source,
                sink,
                Disposition::Prefiltered { unit_cycle: false },
            );
            continue;
        }
        let n = cyc.len();
        let mut nodes = Vec::with_capacity(2 * n);
        let mut pedges = Vec::with_capacity(2 * n);
        for (k, &(ri, inner, sc)) in cyc.iter().enumerate() {
            let base = 2 * k;
            for (off, l) in [(0usize, outers[k]), (1, inner)] {
                nodes.push(ProvNode {
                    id: base + off,
                    label: l,
                    render: lock_render(ctx.prog, l),
                    object: lock_object(ctx.prog, lm, l),
                });
            }
            pedges.push(ProvEdge {
                from: base,
                to: base + 1,
                kind: EdgeKind::Direct,
                guard: format!(
                    "holds class {} while acquiring class {sc}",
                    lm.regions[ri].class
                ),
                escape: None,
            });
            pedges.push(ProvEdge {
                from: base + 1,
                to: (base + 2) % (2 * n),
                kind: EdgeKind::Interference,
                guard: "blocked: conflicting acquisition order".to_string(),
                escape: None,
            });
        }
        let mut mhp = Vec::new();
        for (i, &a) in outers.iter().enumerate() {
            for &b in &outers[i + 1..] {
                mhp.push(MhpFact {
                    store: a,
                    load: b,
                    parallel: true,
                    ordered: og.program_order(a, b),
                });
            }
        }
        let path = cyc
            .iter()
            .enumerate()
            .flat_map(|(k, &(_, inner, _))| {
                [
                    lock_render(ctx.prog, outers[k]),
                    lock_render(ctx.prog, inner),
                ]
            })
            .collect();
        out.push(Candidate {
            query,
            path: None,
            path_len: labels.len() as u64,
            family: u64::from(source.0),
            audit_id: audit.begin_candidate(BugKind::ConflictLock, source, sink),
            report: BugReport {
                kind: BugKind::ConflictLock,
                source,
                sink,
                path,
                inter_thread: true,
                constraint: String::new(),
                schedule: Vec::new(),
                step_threads: Vec::new(),
                guards: Vec::new(),
                provenance: Some(Provenance {
                    nodes,
                    edges: pedges,
                    mhp,
                    model: None,
                }),
            },
        });
    }
    out
}

/// Assembles `Φ_all` for a path and wraps it in a report candidate;
/// `None` when the constraint folds to false at construction (the
/// prefilter of §5.2).
#[allow(clippy::too_many_arguments)]
fn finish_candidate(
    ctx: &DetectContext<'_>,
    pool: &mut TermPool,
    opts: &DetectOptions,
    kind: BugKind,
    source: Label,
    sink: Label,
    p: VfPath,
    extra: &[TermId],
    audit: &mut AuditLog,
) -> Option<Candidate> {
    let path_labels: Vec<Label> = p
        .nodes
        .iter()
        .map(|&n| ctx.df.vfg.kind(n).label())
        .collect();
    let inter_thread =
        p.has_interference || ctx.ts.may_be_in_distinct_threads(ctx.prog, source, sink);
    if opts.inter_thread_only && !inter_thread {
        audit.record_candidate(kind, source, sink, Disposition::ScopeFiltered);
        return None;
    }
    let mut all_labels = path_labels.clone();
    all_labels.push(source);
    all_labels.push(sink);
    // The sink executes only under its own path condition. Usually the
    // last path edge already carries it, but when the sink coincides
    // with a parameter's anchor node (a sink as its function's first
    // statement) that edge does not exist — conjoin it explicitly.
    let mut extra = extra.to_vec();
    extra.push(ctx.df.path_conds.guard(sink));
    let extra = &extra[..];
    let og = ctx.mhp.order_graph();
    let keep = order_policy(ctx.prog, opts.memory_model);
    let query = constraints::assemble_with(
        pool,
        og,
        &p.guards,
        &all_labels,
        extra,
        &keep,
        &|pool, events| match &ctx.sync {
            Some(sync) => sync.constraints(pool, ctx.prog, ctx.ts, og, events),
            None => pool.tt(),
        },
    );
    if query == pool.ff() && !opts.explain_refutations {
        // Folded away by the construction-time prefilter (§5.2 opt. 1);
        // kept only when the caller asked for refutation diagnostics.
        // The audit record is the same one validate-side disposal
        // writes for a kept-alive ff candidate, keeping the export
        // explain-flag-invariant.
        audit.record_candidate(
            kind,
            source,
            sink,
            Disposition::Prefiltered { unit_cycle: false },
        );
        return None;
    }
    let path_rendered = p
        .nodes
        .iter()
        .map(|&n| ctx.df.vfg.render_node(ctx.prog, n))
        .collect();
    Some(Candidate {
        query,
        path_len: p.nodes.len() as u64,
        family: u64::from(source.0),
        audit_id: audit.begin_candidate(kind, source, sink),
        report: BugReport {
            kind,
            source,
            sink,
            path: path_rendered,
            inter_thread,
            constraint: String::new(),
            schedule: Vec::new(),
            step_threads: Vec::new(),
            guards: Vec::new(),
            provenance: None,
        },
        path: Some(p),
    })
}

/// Builds the evidence DAG for one enumerated path: every traversed
/// VFG edge with its guard conjunct, the escape fact licensing each
/// cross-thread edge (Defn. 1), and the MHP facts consulted for those
/// pairs. The model slice stays empty until SMT validation succeeds.
fn build_provenance(ctx: &DetectContext<'_>, pool: &TermPool, p: &VfPath) -> Provenance {
    let nodes: Vec<ProvNode> = p
        .nodes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let object = match ctx.df.vfg.kind(n) {
                NodeKind::Object { obj, .. } => Some(ctx.prog.obj_name(obj).to_string()),
                _ => None,
            };
            ProvNode {
                id: i,
                label: ctx.df.vfg.kind(n).label(),
                render: ctx.df.vfg.render_node(ctx.prog, n),
                object,
            }
        })
        .collect();
    let mut edges = Vec::with_capacity(p.kinds.len());
    let mut mhp = Vec::new();
    for i in 0..p.kinds.len() {
        let (from, to) = (p.nodes[i], p.nodes[i + 1]);
        let kind = p.kinds[i];
        let escape = ctx.df.vfg.license_of(from, to, kind).map(|o| EscapeFact {
            obj: ctx.prog.obj_name(o).to_string(),
            alloc_site: ctx.prog.objs[o.index()].alloc_site,
        });
        if escape.is_some() {
            // Licensed edges are exactly the store/load pairs whose
            // MHP facts Alg. 2 consulted before committing the edge.
            let store = ctx.df.vfg.kind(from).label();
            let load = ctx.df.vfg.kind(to).label();
            mhp.push(MhpFact {
                store,
                load,
                parallel: ctx.mhp.may_happen_in_parallel(store, load),
                ordered: ctx.mhp.order_graph().program_order(store, load),
            });
        }
        edges.push(ProvEdge {
            from: i,
            to: i + 1,
            kind,
            guard: pool.render(p.guards[i]),
            escape,
        });
    }
    Provenance {
        nodes,
        edges,
        mhp,
        model: None,
    }
}

/// The program-order retention policy for a memory model: which
/// `a <P b` pairs the model still enforces. Only same-function pairs
/// are ever relaxed — cross-function order comes from calls and
/// fork/join synchronization, which every model preserves.
pub(crate) fn order_policy(
    prog: &Program,
    model: MemoryModel,
) -> impl Fn(Label, Label) -> bool + '_ {
    move |a: Label, b: Label| -> bool {
        if model == MemoryModel::Sc {
            return true;
        }
        if prog.func_of(a) != prog.func_of(b) {
            return true;
        }
        let (ia, ib) = (prog.inst(a), prog.inst(b));
        let (addr_a, addr_b) = match (ia, ib) {
            (Inst::Store { addr: x, .. }, Inst::Load { addr: y, .. }) => (*x, *y),
            (Inst::Store { addr: x, .. }, Inst::Store { addr: y, .. })
                if model == MemoryModel::Pso =>
            {
                (*x, *y)
            }
            _ => return true,
        };
        // Same (syntactic) location keeps its order under TSO and PSO.
        addr_a == addr_b
    }
}
