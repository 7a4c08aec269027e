//! # canary-interference
//!
//! Algorithm 2 of the Canary paper: the interference-dependence
//! analysis. Starting from the intra-thread VFG of Alg. 1, it
//!
//! 1. runs an **escape analysis** (Alg. 2 lines 12–23): the escaped
//!    objects `EspObj` seed from objects passed to fork calls, grow
//!    through stores into already-escaped cells, and each escaped
//!    object's *pointed-to-by* set `Pted(o)` is the set of VFG nodes
//!    reachable from `o` together with the aggregated edge guards;
//! 2. adds an **interference edge** for every store/load pair in
//!    distinct threads whose address pointers meet in a common escaped
//!    object (Defn. 1, Property 1), guarded by
//!    `Φ_guard = Φ_alias ∧ Φ_ls` (Eq. 1): the alias conditions
//!    `φ1 ∧ φ2 ∧ α ∧ β` and the load-store order constraints of Eq. 2;
//! 3. iterates: new edges enlarge reachability, which may escape more
//!    objects and reveal more edges — the cyclic dependence the paper
//!    resolves by fixpoint — until no edge is added;
//! 4. also refreshes same-thread data dependence over escaped objects
//!    (Alg. 2 line 9).
//!
//! May-happen-in-parallel pruning (§6) is switchable (`--no-mhp`); with
//! it off, impossible pairs still die at SMT time via the order
//! constraints, exactly as the paper describes.
//!
//! # Order
//!
//! Each edge round builds the `Pted(o)` sets in escape order, then
//! checks every load, in load order, against the VFG as it stood at the
//! start of the round, and only then adds the edges the checks decided
//! on, again in load order. Guards are interned straight into the
//! run's [`TermPool`] as they are built, so these orders fix every term
//! id and edge number.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::{HashMap, HashSet};

use canary_dataflow::{DataflowResult, LoadSite, LockModel, StoreSite};
use canary_ir::{Inst, Label, MhpAnalysis, ObjId, Program, ThreadStructure, VarId};
use canary_smt::{TermId, TermPool};
use canary_trace::{Tracer, LANE_ALG2};
use canary_vfg::{EdgeKind, NodeId, NodeKind, Vfg};

/// Options for the interference analysis.
#[derive(Clone, Debug)]
pub struct InterferenceOptions {
    /// Prune store/load pairs that can never run in parallel (§6).
    /// Disabling this is sound — the order constraints refute the same
    /// pairs at solve time — but adds interference edges;
    /// `tests/prop_pipeline.rs` checks both.
    pub use_mhp: bool,
    /// Cap on fixpoint rounds (a safety valve; the analysis is
    /// monotone and converges long before this).
    pub max_rounds: usize,
    /// Ignored: Alg. 2 runs on the calling thread. Kept for callers
    /// written against the field.
    pub threads: usize,
    /// Lock-based sharpening: discharge store/load pairs whose
    /// critical sections guard a common mutex class when a definite
    /// later store in the store's own section overwrites the value
    /// before the section ends (thread-modular mutual exclusion à la
    /// Kusano & Wang). Sound: the two sections serialize, so the load
    /// can never observe the overwritten value.
    pub lock_sharpen: bool,
}

impl Default for InterferenceOptions {
    fn default() -> Self {
        InterferenceOptions {
            use_mhp: true,
            max_rounds: 16,
            threads: 1,
            lock_sharpen: true,
        }
    }
}

/// Facts produced by the analysis (the edges themselves are added to
/// the [`Vfg`] inside the [`DataflowResult`]).
#[derive(Debug)]
pub struct InterferenceResult {
    /// The escaped objects, in discovery order.
    pub escaped: Vec<ObjId>,
    /// Fixpoint rounds executed.
    pub rounds: usize,
    /// Number of interference edges added.
    pub interference_edges: usize,
    /// Number of same-thread data-dependence edges added by the line-9
    /// refresh.
    pub refreshed_data_edges: usize,
    /// Store/load pairs pruned by the MHP analysis.
    pub mhp_pruned: usize,
    /// Store/load pairs additionally discharged by lock-based
    /// mutual-exclusion sharpening.
    pub mhp_lock_pruned: usize,
    /// Work items executed across all rounds (`Pted` sweeps plus
    /// per-load candidate scans) — the unit the per-phase metrics
    /// report.
    pub tasks: usize,
    /// One record per store/load pair the analysis discharged without
    /// ever adding an edge, with the facts consulted — the audit
    /// layer's interference certificates. Deduped across rounds and
    /// objects (first reason wins), pairs that later gained an edge
    /// removed, sorted by `(store, load)`. The `mhp_pruned` /
    /// `mhp_lock_pruned` counters keep their per-object-per-round
    /// multiplicity semantics.
    pub pruned_pairs: Vec<PrunedPair>,
}

/// A store/load pair discharged by Alg. 2 before any VFG edge (and so
/// before any candidate path) could exist.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrunedPair {
    /// The store whose value could have flowed.
    pub store: Label,
    /// The load that could have observed it.
    pub load: Label,
    /// The escaped object the pair would have flowed through.
    pub object: ObjId,
    /// The facts that discharged the pair.
    pub reason: PruneReason,
}

/// Why an interference pair was discharged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PruneReason {
    /// The MHP facts consulted (§6): the pair neither may run in
    /// parallel nor is the store ordered before the load.
    Mhp {
        /// `may_happen_in_parallel(store, load)`.
        parallel: bool,
        /// `happens_before(store, load)`.
        ordered_before: bool,
    },
    /// Lock-based mutual-exclusion sharpening: both accesses sit in
    /// critical sections of the same mutex class and a definite later
    /// store overwrites the value before the store's section ends.
    LockSharpen {
        /// The shared mutex class.
        class: usize,
        /// The overwriting store inside the region.
        killing_store: Label,
    },
    /// Program order alone: the load is ordered before the store.
    StoreAfterLoad,
}

/// Runs Algorithm 2, extending `df.vfg` in place.
pub fn run(
    prog: &Program,
    ts: &ThreadStructure,
    mhp: &MhpAnalysis<'_>,
    df: &mut DataflowResult,
    pool: &mut TermPool,
    opts: &InterferenceOptions,
) -> InterferenceResult {
    run_traced(prog, ts, mhp, df, pool, opts, &Tracer::disabled())
}

/// [`run`] plus observability: one span per escape pass and per edge
/// round on the Alg. 2 lane, keyed by round number, recording frontier
/// size and edges added.
#[allow(clippy::too_many_arguments)]
pub fn run_traced(
    prog: &Program,
    ts: &ThreadStructure,
    mhp: &MhpAnalysis<'_>,
    df: &mut DataflowResult,
    pool: &mut TermPool,
    opts: &InterferenceOptions,
    tracer: &Tracer,
) -> InterferenceResult {
    let mut a = InterferenceAnalysis {
        prog,
        ts,
        mhp,
        pool,
        opts,
        escaped: Vec::new(),
        escaped_set: HashSet::new(),
        interference_edges: 0,
        refreshed_data_edges: 0,
        mhp_pruned: 0,
        mhp_lock_pruned: 0,
        tasks: 0,
        pruned_pairs: HashMap::new(),
        edged: HashSet::new(),
    };
    let rounds = a.fixpoint(df, tracer);
    let mut pruned_pairs: Vec<PrunedPair> = a.pruned_pairs.into_values().collect();
    pruned_pairs.sort_by_key(|p| (p.store, p.load));
    InterferenceResult {
        escaped: a.escaped,
        rounds,
        interference_edges: a.interference_edges,
        refreshed_data_edges: a.refreshed_data_edges,
        mhp_pruned: a.mhp_pruned,
        mhp_lock_pruned: a.mhp_lock_pruned,
        tasks: a.tasks,
        pruned_pairs,
    }
}

struct InterferenceAnalysis<'p> {
    prog: &'p Program,
    ts: &'p ThreadStructure,
    mhp: &'p MhpAnalysis<'p>,
    pool: &'p mut TermPool,
    opts: &'p InterferenceOptions,
    escaped: Vec<ObjId>,
    escaped_set: HashSet<ObjId>,
    interference_edges: usize,
    refreshed_data_edges: usize,
    mhp_pruned: usize,
    mhp_lock_pruned: usize,
    tasks: usize,
    /// First prune record per `(store, load)` pair, across rounds and
    /// objects; a pair that later gains an edge is evicted.
    pruned_pairs: HashMap<(Label, Label), PrunedPair>,
    /// Pairs that produced a VFG edge (any kind): never audit-pruned.
    edged: HashSet<(Label, Label)>,
}

/// An edge a load check decided on, added once every load of the
/// round has been checked.
struct PendingEdge {
    kind: EdgeKind,
    src_var: VarId,
    src_label: Label,
    dst_var: VarId,
    dst_label: Label,
    guard: TermId,
    /// The escaped object whose `Pted` set produced the pair (Defn. 1);
    /// recorded on the VFG edge for report provenance.
    license: ObjId,
}

impl InterferenceAnalysis<'_> {
    fn fixpoint(&mut self, df: &mut DataflowResult, tracer: &Tracer) -> usize {
        let mut rounds = 0;
        let t_start = std::time::Instant::now();
        loop {
            rounds += 1;
            let mut changed = false;
            {
                let escaped_before = self.escaped.len() as u64;
                let mut span = tracer.span(LANE_ALG2, "alg2", rounds as u64, || {
                    format!("alg2.escape:{rounds}")
                });
                changed |= self.escape_round(df);
                span.record("escaped", self.escaped.len() as u64);
                span.record("new_escaped", self.escaped.len() as u64 - escaped_before);
            }
            {
                let edges_before = self.interference_edges as u64;
                let data_before = self.refreshed_data_edges as u64;
                let pruned_before = self.mhp_pruned as u64;
                let lock_before = self.mhp_lock_pruned as u64;
                let tasks_before = self.tasks as u64;
                let mut span = tracer.span(LANE_ALG2, "alg2", rounds as u64, || {
                    format!("alg2.edges:{rounds}")
                });
                changed |= self.edge_round(df);
                span.record("frontier", self.escaped.len() as u64);
                span.record(
                    "interference_edges_added",
                    self.interference_edges as u64 - edges_before,
                );
                span.record(
                    "data_edges_added",
                    self.refreshed_data_edges as u64 - data_before,
                );
                span.record("mhp_pruned", self.mhp_pruned as u64 - pruned_before);
                span.record("mhp_lock_pruned", self.mhp_lock_pruned as u64 - lock_before);
                span.record("tasks", self.tasks as u64 - tasks_before);
            }
            canary_trace::log(canary_trace::LogLevel::Debug, || {
                format!(
                    "alg2: round {rounds}, {} escaped, {} interference edge(s)",
                    self.escaped.len(),
                    self.interference_edges
                )
            });
            let done = !changed || rounds >= self.opts.max_rounds;
            canary_trace::log(canary_trace::LogLevel::Summary, || {
                // No round-count ETA: fixpoint depth is unknowable up
                // front, so report convergence state instead.
                let state = if !changed {
                    " (converged)"
                } else if done {
                    " (round budget reached)"
                } else {
                    ""
                };
                format!(
                    "alg2: round {rounds}/{}{state} — {} escaped, {} interference \
                     edge(s), {} task(s) in {:?}",
                    self.opts.max_rounds,
                    self.escaped.len(),
                    self.interference_edges,
                    self.tasks,
                    t_start.elapsed()
                )
            });
            if done {
                return rounds;
            }
        }
    }

    /// One escape-analysis pass (Alg. 2 lines 12–23): seed with objects
    /// passed to forks, then escalate through stores into escaped cells.
    ///
    /// Reverse reachability is memoized per node for the duration of
    /// the pass (the graph does not change inside a pass, only between
    /// fixpoint rounds), keeping the pass linear in practice.
    fn escape_round(&mut self, df: &DataflowResult) -> bool {
        let mut changed = false;
        let mut reach_cache: HashMap<NodeId, std::rc::Rc<Vec<ObjId>>> = HashMap::new();
        let mut objs_of = |vfg: &Vfg, n: NodeId| -> std::rc::Rc<Vec<ObjId>> {
            reach_cache
                .entry(n)
                .or_insert_with(|| std::rc::Rc::new(vfg.objects_reaching(n)))
                .clone()
        };
        // Seeds: objects whose value reaches a fork argument.
        for l in self.prog.labels() {
            if let Inst::Fork { args, .. } = self.prog.inst(l) {
                for &a in args {
                    let Some(n) = find_def_node(df, a) else {
                        continue;
                    };
                    for &o in objs_of(&df.vfg, n).iter() {
                        changed |= self.mark_escaped(o);
                    }
                }
            }
        }
        // Escalation: `*x = q` with x pointing to an escaped object
        // escapes everything q points to.
        loop {
            let mut grew = false;
            for s in &df.stores {
                let Some(xa) = find_def_node(df, s.addr) else {
                    continue;
                };
                let addr_objs = objs_of(&df.vfg, xa);
                if !addr_objs.iter().any(|o| self.escaped_set.contains(o)) {
                    continue;
                }
                let Some(qn) = find_def_node(df, s.src) else {
                    continue;
                };
                for &o2 in objs_of(&df.vfg, qn).iter() {
                    grew |= self.mark_escaped(o2);
                }
            }
            if !grew {
                break;
            }
            changed = true;
        }
        changed
    }

    fn mark_escaped(&mut self, o: ObjId) -> bool {
        if self.escaped_set.insert(o) {
            self.escaped.push(o);
            true
        } else {
            false
        }
    }

    /// One interference-edge discovery pass (Alg. 2 lines 2–10).
    fn edge_round(&mut self, df: &mut DataflowResult) -> bool {
        // Pted(o) for every escaped object: nodes reachable from o with
        // aggregated guards (Alg. 2 lines 19–23). Kept in escape order —
        // the iteration order downstream decides term creation order.
        let obj_node = df.vfg.first_obj_nodes(self.prog.objs.len());
        self.tasks += self.escaped.len();
        let pted = {
            let mut objs = Vec::new();
            let mut entries = Vec::new();
            for &o in &self.escaped {
                let Some(on) = obj_node[o.index()] else {
                    continue;
                };
                let tt = self.pool.tt();
                let reach = df.vfg.reachable_with_guards(self.pool, on, tt);
                let oi = objs.len() as u32;
                objs.push(o);
                entries.extend(reach.into_iter().map(|(n, g)| (n, oi, g)));
            }
            entries.sort_unstable_by_key(|&(n, oi, _)| (n, oi));
            PtedIndex { objs, entries }
        };

        // For Φ_ls we need, per (load, object), the competing stores
        // S(l): every store whose address may point to the object,
        // indexed like `pted.objs`.
        let mut stores_on_obj: Vec<Vec<usize>> = vec![Vec::new(); pted.objs.len()];
        for (si, s) in df.stores.iter().enumerate() {
            let Some(xa) = find_def_node(df, s.addr) else {
                continue;
            };
            for &(_, oi, _) in pted.at(xa) {
                stores_on_obj[oi as usize].push(si);
            }
        }

        // Critical sections for the lock-sharpening prune, rebuilt per
        // round so mutex aliasing reflects the current VFG.
        let lockm = self
            .opts
            .lock_sharpen
            .then(|| LockModel::build(self.prog, self.mhp.order_graph(), df));

        // Candidate pair checks, one per load, all against the
        // round-start VFG; the edges they decide on go in afterwards.
        self.tasks += df.loads.len();
        let checks: Vec<LoadCheck> = df
            .loads
            .iter()
            .map(|load| self.check_load(df, &pted, &stores_on_obj, lockm.as_ref(), load))
            .collect();

        let mut changed = false;
        for check in checks {
            self.mhp_pruned += check.pruned;
            self.mhp_lock_pruned += check.lock_pruned;
            for rec in check.records {
                let key = (rec.store, rec.load);
                if !self.edged.contains(&key) {
                    self.pruned_pairs.entry(key).or_insert(rec);
                }
            }
            for e in check.edges {
                let sn = df.vfg.def_node(e.src_var, e.src_label);
                let ln = df.vfg.def_node(e.dst_var, e.dst_label);
                // The pair flows (even if the edge already existed):
                // any prune record for it — e.g. via another object —
                // is superseded.
                let key = (e.src_label, e.dst_label);
                self.edged.insert(key);
                self.pruned_pairs.remove(&key);
                if df.vfg.add_edge_licensed(sn, ln, e.kind, e.guard, e.license) {
                    match e.kind {
                        EdgeKind::Interference => self.interference_edges += 1,
                        _ => self.refreshed_data_edges += 1,
                    }
                    changed = true;
                }
            }
        }
        changed
    }

    /// Checks every candidate store against one load (the body of Alg. 2
    /// lines 2–10 for a single `l`), interning the edge guards in the
    /// pool.
    fn check_load(
        &mut self,
        df: &DataflowResult,
        pted: &PtedIndex,
        stores_on_obj: &[Vec<usize>],
        locks: Option<&LockModel>,
        load: &LoadSite,
    ) -> LoadCheck {
        let (prog, ts, mhp) = (self.prog, self.ts, self.mhp);
        let mut pruned = 0usize;
        let mut lock_pruned = 0usize;
        let mut records = Vec::new();
        let Some(ya) = find_def_node(df, load.addr) else {
            return LoadCheck {
                edges: Vec::new(),
                pruned: 0,
                lock_pruned: 0,
                records,
            };
        };
        let tt = self.pool.tt();
        let mut edges = Vec::new();
        let stores = &df.stores;
        for &(_, oi, beta) in pted.at(ya) {
            let o = &pted.objs[oi as usize];
            let candidates = &stores_on_obj[oi as usize];
            for &si in candidates {
                let s = &stores[si];
                if s.label == load.label {
                    continue;
                }
                let distinct = ts.may_be_in_distinct_threads(prog, s.label, load.label);
                // Quick order refutation: a store that happens strictly
                // after the load can never feed it. For a cross-function
                // pair the order is fork/join-induced, i.e. an MHP fact
                // (Defn. 1): the accesses never run in parallel and the
                // store is not ordered before the load. For a same-function
                // pair (a body live in several threads) it is plain program
                // order. (Within `distinct`, these two cases exhaust the
                // impossible-interference orders: `!parallel` with the
                // store unordered before the load *is* `load -> store`.)
                // Under `--no-mhp` the cross-function case keeps its edge —
                // the SMT order constraints refute the same pairs, which
                // `prop_pipeline::mhp_toggle_never_changes_reports` checks.
                if mhp.order_graph().happens_before(load.label, s.label) {
                    let same_func = prog.func_of(s.label) == prog.func_of(load.label);
                    if same_func || self.opts.use_mhp {
                        if distinct {
                            let reason = if same_func {
                                PruneReason::StoreAfterLoad
                            } else {
                                pruned += 1;
                                PruneReason::Mhp {
                                    parallel: false,
                                    ordered_before: false,
                                }
                            };
                            records.push(PrunedPair {
                                store: s.label,
                                load: load.label,
                                object: *o,
                                reason,
                            });
                        }
                        continue;
                    }
                }
                let xa = find_def_node(df, s.addr).expect("store candidates have address nodes");
                let alpha = pted
                    .guard(xa, oi)
                    .expect("candidate addresses lie in Pted(o)");
                if distinct {
                    if let Some(lm) = locks {
                        if let Some((class, killing_store)) =
                            lock_excluded(df, mhp, lm, tt, s, load, candidates, stores)
                        {
                            lock_pruned += 1;
                            records.push(PrunedPair {
                                store: s.label,
                                load: load.label,
                                object: *o,
                                reason: PruneReason::LockSharpen {
                                    class,
                                    killing_store,
                                },
                            });
                            continue;
                        }
                    }
                    let guard =
                        edge_guard(self.pool, mhp, s, load, alpha, beta, candidates, stores);
                    edges.push(PendingEdge {
                        kind: EdgeKind::Interference,
                        src_var: s.src,
                        src_label: s.label,
                        dst_var: load.dst,
                        dst_label: load.label,
                        guard,
                        license: *o,
                    });
                } else if mhp.order_graph().happens_before(s.label, load.label) {
                    // Alg. 2 line 9: refresh same-thread data dependence
                    // over escaped objects (covers flows the bottom-up
                    // summaries cannot see).
                    let guard =
                        edge_guard(self.pool, mhp, s, load, alpha, beta, candidates, stores);
                    edges.push(PendingEdge {
                        kind: EdgeKind::DataDep,
                        src_var: s.src,
                        src_label: s.label,
                        dst_var: load.dst,
                        dst_label: load.label,
                        guard,
                        license: *o,
                    });
                }
            }
        }
        LoadCheck {
            edges,
            pruned,
            lock_pruned,
            records,
        }
    }
}

/// `Pted(o)` of every escaped object, inverted: for each VFG node,
/// the objects whose `Pted` set contains it, with the aggregated guard,
/// in escape order — the order the per-object scans this replaces
/// visited them.
struct PtedIndex {
    /// The escaped objects that have a `Pted` set, in escape order; the
    /// object indices in `entries` point here.
    objs: Vec<ObjId>,
    /// `(node, object index, guard)`, sorted by node, then object.
    entries: Vec<(NodeId, u32, TermId)>,
}

impl PtedIndex {
    /// The entries of the objects whose `Pted` contains `n`, in escape
    /// order.
    fn at(&self, n: NodeId) -> &[(NodeId, u32, TermId)] {
        let lo = self.entries.partition_point(|e| e.0 < n);
        let len = self.entries[lo..].partition_point(|e| e.0 == n);
        &self.entries[lo..lo + len]
    }

    /// The guard under which object `oi`'s `Pted` contains `n`.
    fn guard(&self, n: NodeId, oi: u32) -> Option<TermId> {
        let k = self
            .entries
            .binary_search_by_key(&(n, oi), |&(n, oi, _)| (n, oi))
            .ok()?;
        Some(self.entries[k].2)
    }
}

/// One load check's outcome: the edges to add, the prune counters
/// (per-object multiplicity) and the audit prune records.
struct LoadCheck {
    edges: Vec<PendingEdge>,
    pruned: usize,
    lock_pruned: usize,
    records: Vec<PrunedPair>,
}

/// Lock-based mutual-exclusion sharpening for one store/load pair:
/// prunable when both statements sit in critical sections guarding a
/// common mutex class and a *definite* later store in the store's own
/// section overwrites the value before the section ends. The sections
/// serialize, so either the store's section completes first — and the
/// load observes the overwrite, not `s` — or it runs entirely after
/// the load, and `O_s < O_l` fails. Naive common-lock pruning without
/// the killing store is unsound (the value survives the unlock).
///
/// Strictness guards against may-reach region containment: the
/// region's `lock` must be unconditional or share the statement's own
/// path condition, and the killing store must write through the same
/// address variable (syntactic must-alias) under the store's guard or
/// unconditionally.
///
/// Returns the certificate on success: the shared mutex class and the
/// killing store.
#[allow(clippy::too_many_arguments)]
fn lock_excluded(
    df: &DataflowResult,
    mhp: &MhpAnalysis<'_>,
    lm: &LockModel,
    tt: TermId,
    s: &StoreSite,
    l: &LoadSite,
    candidates: &[usize],
    stores: &[StoreSite],
) -> Option<(usize, Label)> {
    if lm.regions.is_empty() {
        return None;
    }
    let og = mhp.order_graph();
    let strict = |lock: Label, stmt: Label| {
        let g = df.path_conds.guard(lock);
        g == tt || g == df.path_conds.guard(stmt)
    };
    let load_classes: Vec<usize> = lm
        .regions_containing(og, l.label)
        .into_iter()
        .filter(|&ri| strict(lm.regions[ri].lock, l.label))
        .map(|ri| lm.regions[ri].class)
        .collect();
    if load_classes.is_empty() {
        return None;
    }
    lm.regions_containing(og, s.label)
        .into_iter()
        .find_map(|ri| {
            let r = &lm.regions[ri];
            if !load_classes.contains(&r.class) || !strict(r.lock, s.label) {
                return None;
            }
            // A definite overwrite between the store and its unlock.
            candidates
                .iter()
                .map(|&si| &stores[si])
                .find(|s2| {
                    s2.label != s.label
                        && s2.addr == s.addr
                        && og.happens_before(s.label, s2.label)
                        && lm.in_region(og, r, s2.label)
                        && (s2.guard == s.guard || s2.guard == tt)
                })
                .map(|s2| (r.class, s2.label))
        })
}

/// `Φ_guard = Φ_alias ∧ Φ_ls` (Eq. 1–2).
#[allow(clippy::too_many_arguments)]
fn edge_guard(
    pool: &mut TermPool,
    mhp: &MhpAnalysis<'_>,
    s: &StoreSite,
    l: &LoadSite,
    alpha: TermId,
    beta: TermId,
    candidates: &[usize],
    stores: &[StoreSite],
) -> TermId {
    // Φ_alias = φ1 ∧ φ2 ∧ α ∧ β
    let alias = pool.and([s.guard, l.guard, alpha, beta]);
    // Φ_ls: the store precedes the load...
    let mut parts = vec![order_atom(pool, s.label, l.label)];
    // ...and no competing store lands in between (Eq. 2). As §4.2.2
    // notes, "it is unnecessary to encode some order constraints
    // between statements in the same thread, because we can quickly
    // determine their order by traversing the control flow graph":
    // a competing store the program order already places before the
    // store or after the load satisfies its disjunct trivially and
    // is skipped exactly.
    let og = mhp.order_graph();
    for &si in candidates {
        // Cap the genuinely concurrent competitors: dropping a
        // conjunct weakens the guard (more SAT ⇒ soundly more
        // reports), never hides a bug. `parts` holds the order atom
        // plus one disjunct per competitor kept so far.
        if parts.len() > MAX_COMPETING_STORES {
            break;
        }
        let other = &stores[si];
        if other.label == s.label {
            continue;
        }
        if og.happens_before(other.label, s.label) || og.happens_before(l.label, other.label) {
            continue; // disjunct holds in every execution
        }
        let before = order_atom(pool, other.label, s.label);
        let after = order_atom(pool, l.label, other.label);
        // A competing store only overwrites under its own guard; a
        // store off-path (guard false) does not constrain the flow.
        let ng = pool.not(other.guard);
        let dodge = pool.or([before, after, ng]);
        parts.push(dodge);
    }
    let ls = pool.and(parts);
    pool.and2(alias, ls)
}

/// The def node of `v` at its anchor, if the dataflow pass created it.
fn find_def_node(df: &DataflowResult, v: VarId) -> Option<NodeId> {
    let l = df.def_site[v.index()]?;
    df.vfg.find(NodeKind::Def { var: v, label: l })
}

/// Bound on per-edge no-overwrite conjuncts (Eq. 2). Beyond this many
/// genuinely concurrent competing stores the guard is truncated — a
/// sound weakening (reports can only be added, not lost).
const MAX_COMPETING_STORES: usize = 24;

/// The strict-order atom `O_a < O_b` over statement labels.
fn order_atom(pool: &mut TermPool, a: Label, b: Label) -> TermId {
    pool.order_lt(a.0, b.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_ir::{parse, CallGraph};

    struct Setup {
        prog: Program,
        pool: TermPool,
        df: DataflowResult,
        result: InterferenceResult,
    }

    fn analyze(src: &str) -> Setup {
        analyze_opts(src, &InterferenceOptions::default())
    }

    fn analyze_opts(src: &str, opts: &InterferenceOptions) -> Setup {
        let prog = parse(src).unwrap();
        prog.validate().unwrap();
        let cg = CallGraph::build(&prog);
        let ts = ThreadStructure::compute(&prog, &cg);
        let mhp = MhpAnalysis::new(&prog, &cg, &ts);
        let mut pool = TermPool::new();
        let mut df = canary_dataflow::run(&prog, &cg, &mut pool);
        let result = run(&prog, &ts, &mhp, &mut df, &mut pool, opts);
        Setup {
            prog,
            pool,
            df,
            result,
        }
    }

    use canary_ir::ThreadStructure;

    const FIG2: &str = r#"
        fn main(a) {
            x = alloc o1;
            *x = a;
            fork t thread1(x);
            if (theta1) {
                c = *x;
                use c;
            }
        }
        fn thread1(y) {
            b = alloc o2;
            if (!theta1) {
                *y = b;
                free b;
            }
        }
    "#;

    #[test]
    fn fig2_object_escapes_and_edge_appears() {
        let s = analyze(FIG2);
        let o1 = s.prog.obj_by_name("o1").unwrap();
        let o2 = s.prog.obj_by_name("o2").unwrap();
        assert!(s.result.escaped.contains(&o1), "o1 passed to fork escapes");
        assert!(
            s.result.escaped.contains(&o2),
            "o2 escapes by being stored into escaped o1"
        );
        assert!(
            s.result.interference_edges >= 1,
            "store *y=b must interfere with load c=*x"
        );
        assert!(s.df.vfg.interference_edge_count() >= 1);
    }

    #[test]
    fn fig2_interference_edge_is_licensed_by_escaped_object() {
        let s = analyze(FIG2);
        let o1 = s.prog.obj_by_name("o1").unwrap();
        let edge =
            s.df.vfg
                .edges()
                .iter()
                .find(|e| e.kind == EdgeKind::Interference)
                .copied()
                .expect("one interference edge");
        assert_eq!(
            s.df.vfg.license_of(edge.from, edge.to, edge.kind),
            Some(o1),
            "the store/load pair meets in o1, which must license the edge"
        );
    }

    #[test]
    fn fig2_edge_guard_contains_contradictory_branches() {
        let mut s = analyze(FIG2);
        // The interference edge guard conjoins θ1 (load side) and ¬θ1
        // (store side): it must already fold or solve to unsat.
        let edge =
            s.df.vfg
                .edges()
                .iter()
                .find(|e| e.kind == EdgeKind::Interference)
                .copied()
                .expect("one interference edge");
        let res = canary_smt::check(&s.pool, edge.guard, &canary_smt::SolverOptions::default());
        assert_eq!(res, canary_smt::SmtResult::Unsat);
        let _ = &mut s.pool;
    }

    #[test]
    fn feasible_interference_edge_guard_is_sat() {
        let s = analyze(
            "fn main() {
                x = alloc o1;
                fork t w(x);
                c = *x;
                use c;
             }
             fn w(y) {
                b = alloc o2;
                *y = b;
             }",
        );
        let edge =
            s.df.vfg
                .edges()
                .iter()
                .find(|e| e.kind == EdgeKind::Interference)
                .copied()
                .expect("interference edge");
        let res = canary_smt::check(&s.pool, edge.guard, &canary_smt::SolverOptions::default());
        assert_eq!(res, canary_smt::SmtResult::Sat);
    }

    #[test]
    fn non_escaped_objects_get_no_interference() {
        let s = analyze(
            "fn main() {
                x = alloc o1;
                priv = alloc o2;
                v = alloc o3;
                *priv = v;
                fork t w(x);
                c = *priv;
                use c;
             }
             fn w(y) {
                d = alloc o4;
                *y = d;
             }",
        );
        let o2 = s.prog.obj_by_name("o2").unwrap();
        assert!(!s.result.escaped.contains(&o2), "o2 never escapes");
        // The only interference can involve o1.
        for e in s.df.vfg.edges() {
            if e.kind == EdgeKind::Interference {
                // load c=*priv must not be its target
                let NodeKind::Def { label, .. } = s.df.vfg.kind(e.to) else {
                    panic!()
                };
                let inst = s.prog.inst(label).clone();
                if let Inst::Load { addr, .. } = inst {
                    assert_ne!(s.prog.var_name(addr), "priv");
                }
            }
        }
    }

    #[test]
    fn join_ordered_store_prunable_by_mhp_still_edges_when_before() {
        // Store in child, load in parent after join: ordered (store
        // before load) — edge must still exist (value flows through).
        let s = analyze(
            "fn main() {
                x = alloc o1;
                fork t w(x);
                join t;
                c = *x;
                use c;
             }
             fn w(y) {
                b = alloc o2;
                *y = b;
             }",
        );
        assert!(
            s.df.vfg.interference_edge_count() >= 1,
            "ordered store→load across threads still flows a value"
        );
    }

    #[test]
    fn load_before_fork_cannot_see_child_store() {
        let s = analyze(
            "fn main() {
                x = alloc o1;
                c = *x;
                use c;
                fork t w(x);
             }
             fn w(y) {
                b = alloc o2;
                *y = b;
             }",
        );
        assert_eq!(
            s.df.vfg.interference_edge_count(),
            0,
            "a load before the fork cannot observe the child's store"
        );
    }

    #[test]
    fn mhp_off_gives_superset_of_edges() {
        let src = "fn main() {
                x = alloc o1;
                c = *x;
                use c;
                fork t w(x);
                join t;
                d = *x;
                use d;
             }
             fn w(y) {
                b = alloc o2;
                *y = b;
             }";
        let with = analyze(src);
        let without = analyze_opts(
            src,
            &InterferenceOptions {
                use_mhp: false,
                ..InterferenceOptions::default()
            },
        );
        assert!(without.df.vfg.interference_edge_count() >= with.df.vfg.interference_edge_count());
    }

    #[test]
    fn lock_sharpening_prunes_overwritten_store() {
        // Both critical sections guard the same (aliased) mutex and a
        // later unconditional store in the writer's section overwrites
        // v before the unlock: the r-side load can never observe v, so
        // that pair is discharged. The final store's edge remains.
        let src = "fn main() {
                x = alloc cell; m = alloc mu;
                v = alloc o1; u = alloc o2;
                fork t r(x, m);
                lock m;
                *x = v;
                *x = u;
                unlock m;
             }
             fn r(p, n) {
                lock n;
                c = *p;
                use c;
                unlock n;
             }";
        let s = analyze(src);
        assert!(s.result.mhp_lock_pruned >= 1, "{:?}", s.result);
        let off = analyze_opts(
            src,
            &InterferenceOptions {
                lock_sharpen: false,
                ..InterferenceOptions::default()
            },
        );
        assert_eq!(off.result.mhp_lock_pruned, 0);
        assert!(
            off.df.vfg.interference_edge_count() > s.df.vfg.interference_edge_count(),
            "sharpening off must give strictly more edges here"
        );
    }

    #[test]
    fn lock_without_overwrite_is_not_pruned() {
        // Common lock but the stored value survives the section: naive
        // common-lock pruning would be unsound — the edge must remain.
        let s = analyze(
            "fn main() {
                x = alloc cell; m = alloc mu; v = alloc o1;
                fork t r(x, m);
                lock m;
                *x = v;
                unlock m;
             }
             fn r(p, n) {
                lock n;
                c = *p;
                use c;
                unlock n;
             }",
        );
        assert_eq!(s.result.mhp_lock_pruned, 0);
        assert!(s.df.vfg.interference_edge_count() >= 1);
    }

    #[test]
    fn competing_stores_are_capped() {
        // The worker's first store races with the main thread's load
        // and faces 29 later stores of its own, all concurrent with the
        // load: its edge guard keeps exactly MAX_COMPETING_STORES
        // no-overwrite disjuncts beside its own order atom.
        let stores = "*y = b; ".repeat(MAX_COMPETING_STORES + 6);
        let mut s = analyze(&format!(
            "fn main() {{ x = alloc o1; fork t w(x); c = *x; use c; }}
             fn w(y) {{ b = alloc o2; {stores}}}"
        ));
        let src_label = |e: &canary_vfg::Edge| match s.df.vfg.kind(e.from) {
            NodeKind::Def { label, .. } => label,
            other => panic!("store edges leave a def node, got {other:?}"),
        };
        let edges = s.df.vfg.edges();
        let edge = edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Interference)
            .min_by_key(|e| src_label(e))
            .copied()
            .expect("the stores interfere with the load");
        let load = s
            .prog
            .labels()
            .find(|&l| matches!(s.prog.inst(l), Inst::Load { .. }));
        let own = order_atom(&mut s.pool, src_label(&edge), load.unwrap());
        let conjuncts = s.pool.conjuncts_of(edge.guard);
        let dodges = conjuncts
            .iter()
            .filter(|&&t| matches!(s.pool.node(t), canary_smt::Node::Or(_)))
            .count();
        let guard = s.pool.render(edge.guard);
        assert_eq!(dodges, MAX_COMPETING_STORES, "{guard}");
        assert!(conjuncts.contains(&own), "{guard}");
    }

    #[test]
    fn lock_free_programs_are_never_lock_pruned() {
        let s = analyze(FIG2);
        assert_eq!(s.result.mhp_lock_pruned, 0);
    }

    #[test]
    fn fixpoint_discovers_second_level_escape() {
        // b escapes only because it is stored into already-escaped o1;
        // then w2's load through o1 must interfere with the store.
        let s = analyze(
            "fn main() {
                x = alloc o1;
                fork t1 w1(x);
                fork t2 w2(x);
             }
             fn w1(y) {
                b = alloc o2;
                *y = b;
             }
             fn w2(z) {
                c = *z;
                use c;
             }",
        );
        let o2 = s.prog.obj_by_name("o2").unwrap();
        assert!(s.result.escaped.contains(&o2));
        assert!(s.df.vfg.interference_edge_count() >= 1);
        assert!(s.result.rounds >= 1);
    }

    #[test]
    fn line9_refreshes_same_thread_flow_after_join() {
        // Store in child, load in parent after join, but through a
        // helper function shared by no summaries: the line-9 refresh
        // (or the interference edge) must connect them. Either way the
        // load must be reachable from the store in the final VFG.
        let s = analyze(
            "fn main() {
                x = alloc o1;
                fork t w(x);
                join t;
                c = *x;
                use c;
             }
             fn w(y) {
                b = alloc o2;
                *y = b;
             }",
        );
        let store_label = s
            .prog
            .labels()
            .find(|&l| matches!(s.prog.inst(l), Inst::Store { .. }))
            .unwrap();
        let load_label = s
            .prog
            .labels()
            .find(|&l| matches!(s.prog.inst(l), Inst::Load { .. }))
            .unwrap();
        let sn =
            s.df.vfg
                .find(NodeKind::Def {
                    var: match s.prog.inst(store_label) {
                        Inst::Store { src, .. } => *src,
                        _ => unreachable!(),
                    },
                    label: store_label,
                })
                .unwrap();
        let reach = s.df.vfg.reachable_from(sn);
        let ln =
            s.df.vfg
                .find(NodeKind::Def {
                    var: match s.prog.inst(load_label) {
                        Inst::Load { dst, .. } => *dst,
                        _ => unreachable!(),
                    },
                    label: load_label,
                })
                .unwrap();
        assert!(reach.contains(&ln));
    }
}
