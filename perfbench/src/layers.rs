//! The traced run: the facade's pipeline composed from each layer's
//! public entry points, in the order `Canary::analyze` calls them,
//! with one span per call recorded by the benchmark's own code.

use std::collections::BTreeMap;
use std::time::Duration;

use canary_core::CanaryConfig;
use canary_detect::{AuditLog, BugKind, BugReport, DetectContext, DetectStats, Disposition};
use canary_interference::PruneReason;
use canary_ir::{CallGraph, MhpAnalysis, Program, ThreadStructure};
use canary_smt::{QueryCache, TermPool};
use canary_trace::{Event, Tracer};

/// Chrome-trace lane of the span around one composed analysis.
const LANE_ANALYZE: u32 = 0;
/// Chrome-trace lane of the per-layer call spans.
const LANE_LAYER: u32 = 1;
/// Name of the span around one composed analysis.
pub const ANALYZE_SPAN: &str = "analyze";

/// Per-layer totals keyed by metric name.
pub type Totals = BTreeMap<&'static str, f64>;

/// Runs `f` inside a span named after the metric it feeds; the span's
/// category is the metric's layer prefix.
pub fn timed<T>(tracer: &Tracer, key: u64, metric: &'static str, f: impl FnOnce() -> T) -> T {
    let layer = metric.split('.').next().unwrap_or(metric);
    let _span = tracer.span(LANE_LAYER, layer, key, || metric.to_string());
    f()
}

fn add(counts: &mut Totals, name: &'static str, v: impl TryInto<u64>) {
    let v = v.try_into().unwrap_or(u64::MAX);
    *counts.entry(name).or_default() += v as f64;
}

fn checker_metric(kind: BugKind) -> &'static str {
    match kind {
        BugKind::UseAfterFree => "detect.uaf_s",
        BugKind::DoubleFree => "detect.double_free_s",
        BugKind::NullDeref => "detect.null_deref_s",
        BugKind::DataLeak => "detect.data_leak_s",
        BugKind::DoubleLock => "detect.double_lock_s",
        BugKind::ConflictLock => "detect.conflict_lock_s",
    }
}

/// One analysis composed from the layers' public calls, equivalent to
/// `Canary::with_config(config.clone()).analyze(prog)` without context
/// cloning or spilling (neither is configured by any workload). Adds
/// the layers' deterministic counters to `counts` and returns the
/// deduplicated reports plus the summed SMT query wall time.
pub fn analyze(
    prog: &Program,
    config: &CanaryConfig,
    tracer: &Tracer,
    key: u64,
    counts: &mut Totals,
) -> (Vec<BugReport>, Duration) {
    let _span = tracer.span(LANE_ANALYZE, "pipeline", key, || ANALYZE_SPAN.to_string());
    let threads = config.threads.max(1);
    let mut pool = TermPool::new();
    let cg = timed(tracer, key, "ir.callgraph_s", || CallGraph::build(prog));
    let ts = timed(tracer, key, "ir.threads_s", || {
        ThreadStructure::compute(prog, &cg)
    });
    let mut df = timed(tracer, key, "dataflow.alg1_s", || {
        canary_dataflow::run_with(prog, &cg, &mut pool, threads)
    });
    let mhp = timed(tracer, key, "ir.mhp_s", || MhpAnalysis::new(prog, &cg, &ts));
    let mut iopts = config.interference.clone();
    iopts.threads = iopts.threads.max(threads);
    let alg2 = timed(tracer, key, "interference.alg2_s", || {
        canary_interference::run(prog, &ts, &mhp, &mut df, &mut pool, &iopts)
    });
    drop(mhp);

    // The facade builds the MHP relation a second time for detection.
    let mhp = timed(tracer, key, "ir.mhp_s", || MhpAnalysis::new(prog, &cg, &ts));
    let mut detect_opts = config.detect.clone();
    detect_opts.solver.num_threads = detect_opts.solver.num_threads.max(threads);
    let (ctx, mut audit) = timed(tracer, key, "detect.context_s", || {
        let mut audit = AuditLog::new();
        for p in &alg2.pruned_pairs {
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
            let obj = Some(prog.obj_name(p.object).to_string());
            audit.record_interference_prune(p.store, p.load, obj, d);
        }
        (
            DetectContext::new(prog, &ts, &mhp, &df, &detect_opts),
            audit,
        )
    });
    let mut stats = DetectStats::default();
    let mut qcache = QueryCache::new();
    let mut reports = Vec::new();
    let mut busy = Duration::ZERO;
    for &kind in &config.checkers {
        let (rs, _refuted, profiles) = timed(tracer, key, checker_metric(kind), || {
            canary_detect::check_kind_traced(
                &ctx,
                &mut pool,
                kind,
                &detect_opts,
                &mut stats,
                &Tracer::disabled(),
                &mut qcache,
                &mut audit,
            )
        });
        busy += profiles.iter().map(|p| p.wall).sum::<Duration>();
        reports.extend(rs);
    }
    let reports = timed(tracer, key, "detect.dedup_s", || {
        let reports = canary_detect::dedup_reports(prog, reports);
        let kept = reports.iter().map(|r| (r.kind, r.source, r.sink)).collect();
        audit.apply_report_dedup(&kept);
        reports
    });
    let model = config.detect.memory_model;
    let replays: Vec<_> = timed(tracer, key, "oracle.replay_s", || {
        reports
            .iter()
            .filter(|_| config.verify_witnesses)
            .map(|r| canary_oracle::replay_report_under(prog, model, r))
            .collect()
    });
    add(counts, "oracle.replays", replays.len());
    add(
        counts,
        "oracle.confirmed",
        replays.iter().filter(|r| r.confirmed()).count(),
    );

    add(counts, "ir.stmts", prog.stmt_count());
    add(counts, "ir.funcs", prog.funcs.len());
    add(counts, "dataflow.tasks", df.tasks);
    add(
        counts,
        "dataflow.stmt_visits",
        df.func_profiles.iter().map(|p| p.stmt_visits).sum::<u64>(),
    );
    add(counts, "vfg.nodes", df.vfg.node_count());
    add(counts, "vfg.edges", df.vfg.edge_count());
    add(counts, "vfg.bytes", df.vfg.approx_bytes());
    add(counts, "interference.rounds", alg2.rounds);
    add(counts, "interference.edges", alg2.interference_edges);
    add(counts, "interference.pruned_pairs", alg2.pruned_pairs.len());
    add(counts, "detect.candidate_paths", stats.candidate_paths);
    add(counts, "detect.queries", stats.queries);
    add(counts, "detect.prefiltered", stats.prefiltered);
    add(counts, "detect.confirmed", stats.confirmed);
    add(counts, "detect.reports", reports.len());
    add(counts, "smt.decisions", stats.decisions);
    add(counts, "smt.conflicts", stats.conflicts);
    add(counts, "smt.propagations", stats.propagations);
    add(counts, "smt.theory_lemmas", stats.theory_lemmas);
    add(counts, "smt.families", stats.families);
    add(counts, "smt.core_subsumed", stats.core_subsumed);
    add(counts, "smt.memo_hits", stats.memo_hits);
    add(counts, "smt.terms", pool.len());
    add(counts, "smt.term_bytes", pool.approx_bytes());
    (reports, busy)
}

/// Sums each span name's self time — its duration minus the part of
/// its interval that child spans cover — in seconds, and separately
/// the total duration of the spans named [`ANALYZE_SPAN`].
pub fn self_times(events: &[Event]) -> (BTreeMap<String, f64>, f64) {
    let mut evs: Vec<&Event> = events.iter().collect();
    evs.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
    let mut child_ns = vec![0u64; evs.len()];
    // Open ancestors as (index, end); a span nests in the innermost
    // open span that has not ended when it starts.
    let mut open: Vec<(usize, u64)> = Vec::new();
    for (i, e) in evs.iter().enumerate() {
        while open.last().is_some_and(|&(_, end)| end <= e.start_ns) {
            open.pop();
        }
        if let Some(&(parent, _)) = open.last() {
            child_ns[parent] += e.dur_ns;
        }
        open.push((i, e.start_ns + e.dur_ns));
    }
    let mut selfs = BTreeMap::new();
    let mut analyze_ns = 0;
    for (e, child) in evs.iter().zip(child_ns) {
        *selfs.entry(e.name.clone()).or_default() += e.dur_ns.saturating_sub(child) as f64 / 1e9;
        if e.name == ANALYZE_SPAN {
            analyze_ns += e.dur_ns;
        }
    }
    (selfs, analyze_ns as f64 / 1e9)
}
