//! Algorithm 1: thread-modular data-dependence analysis.
//!
//! One pass over each function in bottom-up thread-call-graph order:
//! a flow-sensitive, guarded intra-procedural points-to analysis that
//! resolves local indirect flows (Fig. 6), builds the intra-thread
//! value-flow edges, and summarizes each function's side effects as a
//! procedural transfer function for its callers. Context-dependent
//! pointer values stay symbolic in the formal parameters
//! ([`Sym::Param`], [`Sym::DerefParam`]); fork sites transfer *no*
//! summary (Alg. 1 lines 23–24) — inter-thread effects are the business
//! of the interference analysis.
//!
//! # Schedule
//!
//! Functions are analyzed task by task over
//! [`CallGraph::bottom_up_levels`]: each task is one call-graph SCC,
//! every callee outside it sits in a lower level, and the levels run
//! in ascending order. Each task writes its guard terms, VFG nodes and
//! edges, points-to sets and summaries straight into the run's
//! [`TermPool`] and [`Vfg`] before the next task starts, so the level
//! and task order fixes every term id and node number.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use canary_ir::{CallGraph, FuncId, Inst, Label, Program, Terminator, VarId};
use canary_smt::{TermId, TermPool};
use canary_trace::{Tracer, LANE_ALG1};
use canary_vfg::{EdgeKind, NodeId, Vfg};
use rustc_hash::FxHashMap;

use crate::pathcond::PathConditions;
use crate::symbols::{insert_guarded, CellSet, Guarded, MemKey, MemVal, PtsSet, Sym};

/// A store statement and its analysis-time facts.
#[derive(Clone, Debug)]
pub struct StoreSite {
    /// The store's label.
    pub label: Label,
    /// The address operand.
    pub addr: VarId,
    /// The stored variable.
    pub src: VarId,
    /// The store's path condition.
    pub guard: TermId,
}

/// A load statement and its analysis-time facts.
#[derive(Clone, Debug)]
pub struct LoadSite {
    /// The load's label.
    pub label: Label,
    /// The address operand.
    pub addr: VarId,
    /// The destination variable.
    pub dst: VarId,
    /// The load's path condition.
    pub guard: TermId,
}

/// A load of a parameter cell's initial contents, exported in the
/// function summary so callers can connect their stores to it.
#[derive(Clone, Debug)]
pub struct ParamLoad {
    /// Formal parameter index whose cell is read.
    pub param: usize,
    /// Destination variable of the load.
    pub dst: VarId,
    /// Label of the load.
    pub label: Label,
    /// Guard (path condition ∧ address guard).
    pub guard: TermId,
}

/// The procedural transfer function of one function (its summary).
#[derive(Clone, Debug, Default)]
pub struct FuncSummary {
    /// Memory state at function exit, restricted to cells visible to the
    /// caller (`Obj` cells and `ParamCell`s).
    pub exit_mem: Vec<(MemKey, CellSet)>,
    /// Loads of parameter-cell initial contents.
    pub param_loads: Vec<ParamLoad>,
    /// Return statements: (label, guard, returned variables).
    pub returns: Vec<(Label, TermId, Vec<VarId>)>,
}

/// Per-function cost profile of Alg. 1 — the per-summary accounting the
/// observability layer reports (Fig. 7a localizes front-end time to
/// functions). Everything except `wall` is deterministic.
#[derive(Clone, Debug)]
pub struct FuncProfile {
    /// Function index.
    pub func: usize,
    /// Function name.
    pub name: String,
    /// Statements run through the transfer function.
    pub stmt_visits: u64,
    /// Basic blocks walked.
    pub blocks: u64,
    /// Guarded cells in the published summary (transfer-function size).
    pub summary_cells: u64,
    /// Store sites inventoried while analyzing this function.
    pub stores: u64,
    /// Load sites inventoried while analyzing this function.
    pub loads: u64,
    /// Wall time spent in `analyze_func` (not deterministic).
    pub wall: Duration,
}

/// Everything Alg. 1 produces, consumed by Alg. 2 and the checkers.
#[derive(Debug)]
pub struct DataflowResult {
    /// The value-flow graph with direct and intra-thread indirect edges.
    pub vfg: Vfg,
    /// Guarded (symbolic) points-to sets per top-level variable.
    pub pgtop: Vec<PtsSet>,
    /// Path condition per statement.
    pub path_conds: PathConditions,
    /// All store sites.
    pub stores: Vec<StoreSite>,
    /// All load sites.
    pub loads: Vec<LoadSite>,
    /// Definition anchor per variable: its defining label (parameters
    /// anchor at their function's first label).
    pub def_site: Vec<Option<Label>>,
    /// Per-function summaries.
    pub summaries: Vec<FuncSummary>,
    /// Number of tasks (call-graph SCCs) analyzed — the unit the
    /// per-phase metrics report.
    pub tasks: usize,
    /// Per-function cost profiles, in analysis (task) order.
    pub func_profiles: Vec<FuncProfile>,
}

impl DataflowResult {
    /// The VFG node where `v` is defined (its single partial-SSA def, or
    /// its parameter anchor).
    pub fn def_node(&self, vfg: &mut Vfg, v: VarId) -> Option<NodeId> {
        self.def_site[v.index()].map(|l| vfg.def_node(v, l))
    }
}

/// Runs Algorithm 1 over the whole program.
pub fn run(prog: &Program, cg: &CallGraph, pool: &mut TermPool) -> DataflowResult {
    run_traced(prog, cg, pool, &Tracer::disabled())
}

/// [`run`] with a worker count, which is ignored: Alg. 1 runs on the
/// calling thread. Kept for callers written against the signature.
pub fn run_with(
    prog: &Program,
    cg: &CallGraph,
    pool: &mut TermPool,
    _threads: usize,
) -> DataflowResult {
    run(prog, cg, pool)
}

/// [`run`] plus observability: per-level and per-function spans on
/// the Alg. 1 lane, and per-function [`FuncProfile`]s in the result.
/// With a disabled tracer this *is* `run` — the spans cost one branch
/// each.
pub fn run_traced(
    prog: &Program,
    cg: &CallGraph,
    pool: &mut TermPool,
    tracer: &Tracer,
) -> DataflowResult {
    let path_conds = PathConditions::compute(prog, pool);
    let def_site = compute_def_sites(prog);
    let mut a = Alg1 {
        prog,
        cg,
        pc: &path_conds,
        def_site: &def_site,
        pool,
        vfg: Vfg::new(),
        pgtop: vec![Vec::new(); prog.vars.len()],
        stores: Vec::new(),
        loads: Vec::new(),
        summaries: vec![FuncSummary::default(); prog.funcs.len()],
        analyzed: vec![false; prog.funcs.len()],
        func_profiles: Vec::new(),
    };
    let mut tasks = 0;
    let levels = cg.bottom_up_levels();
    let total_levels = levels.len();
    let total_tasks: usize = levels.iter().map(|l| l.len()).sum();
    let t_start = Instant::now();
    for (lvl, level) in levels.into_iter().enumerate() {
        tasks += level.len();
        let mut level_span = tracer.span(LANE_ALG1, "alg1", lvl as u64, || {
            format!("alg1.level:{lvl}")
        });
        canary_trace::log(canary_trace::LogLevel::Debug, || {
            format!("alg1: level {lvl}, {} task(s)", level.len())
        });
        for members in &level {
            a.run_task(members, tracer);
        }
        level_span.record("tasks", level.len() as u64);
        level_span.finish();
        canary_trace::log(canary_trace::LogLevel::Summary, || {
            let done_levels = lvl + 1;
            let elapsed = t_start.elapsed();
            // ETA scales remaining *tasks* by observed per-task cost:
            // levels are wildly uneven, task counts are the honest unit.
            let eta = if done_levels < total_levels && tasks > 0 {
                let per_task = elapsed.div_f64(tasks as f64);
                format!(", eta {:?}", per_task.mul_f64((total_tasks - tasks) as f64))
            } else {
                String::new()
            };
            format!(
                "alg1: level {done_levels}/{total_levels} done, \
                 {tasks}/{total_tasks} task(s) in {elapsed:?}{eta}"
            )
        });
    }
    let Alg1 {
        vfg,
        pgtop,
        stores,
        loads,
        summaries,
        func_profiles,
        ..
    } = a;
    DataflowResult {
        vfg,
        pgtop,
        path_conds,
        stores,
        loads,
        def_site,
        summaries,
        tasks,
        func_profiles,
    }
}

/// Anchors every variable at its defining statement; parameters at
/// their function's first label.
fn compute_def_sites(prog: &Program) -> Vec<Option<Label>> {
    let mut def_site = vec![None; prog.vars.len()];
    for l in prog.labels() {
        if let Some(d) = prog.inst(l).def() {
            def_site[d.index()] = Some(l);
        }
    }
    for func in &prog.funcs {
        if let Some(first) = func.labels().next() {
            for &p in &func.params {
                if def_site[p.index()].is_none() {
                    def_site[p.index()] = Some(first);
                }
            }
        }
    }
    def_site
}

/// The analysis state Alg. 1 builds up task by task.
struct Alg1<'e> {
    prog: &'e Program,
    cg: &'e CallGraph,
    pc: &'e PathConditions,
    def_site: &'e [Option<Label>],
    pool: &'e mut TermPool,
    vfg: Vfg,
    pgtop: Vec<PtsSet>,
    stores: Vec<StoreSite>,
    loads: Vec<LoadSite>,
    summaries: Vec<FuncSummary>,
    /// Whether each function's summary is ready: set once the function
    /// has been analyzed, in a lower level or earlier in its own SCC.
    analyzed: Vec<bool>,
    func_profiles: Vec<FuncProfile>,
}

/// Work counters one `analyze_func` run produces (feeds [`FuncProfile`]).
#[derive(Clone, Copy, Debug, Default)]
struct FuncVisit {
    stmts: u64,
    blocks: u64,
    summary_cells: u64,
}

/// Flow-sensitive memory state: key-ordered so every iteration —
/// block-exit merges above all — visits cells in one canonical order
/// regardless of insertion history. (A hash map here made term-creation
/// order, and with it the whole pool, run-to-run nondeterministic.)
type Mem = BTreeMap<MemKey, CellSet>;

impl Alg1<'_> {
    /// Analyzes one task (one call-graph SCC), members in bottom-up
    /// order.
    fn run_task(&mut self, members: &[FuncId], tracer: &Tracer) {
        for &f in members {
            let stores_before = self.stores.len() as u64;
            let loads_before = self.loads.len() as u64;
            let started = Instant::now();
            let visit = self.analyze_func(f);
            let wall = started.elapsed();
            self.analyzed[f.index()] = true;
            let profile = FuncProfile {
                func: f.index(),
                name: self.prog.func(f).name.clone(),
                stmt_visits: visit.stmts,
                blocks: visit.blocks,
                summary_cells: visit.summary_cells,
                stores: self.stores.len() as u64 - stores_before,
                loads: self.loads.len() as u64 - loads_before,
                wall,
            };
            tracer.event(
                LANE_ALG1,
                "alg1.func",
                f.index() as u64,
                || format!("alg1.func:{}", profile.name),
                started,
                wall,
                || {
                    vec![
                        ("stmt_visits", profile.stmt_visits),
                        ("blocks", profile.blocks),
                        ("summary_cells", profile.summary_cells),
                        ("stores", profile.stores),
                        ("loads", profile.loads),
                    ]
                },
            );
            self.func_profiles.push(profile);
        }
    }

    /// The current points-to set of `v`.
    fn pg(&self, v: VarId) -> PtsSet {
        self.pgtop[v.index()].clone()
    }

    /// Inserts into `v`'s points-to set.
    fn pg_insert(&mut self, v: VarId, guard: TermId, value: Sym) {
        insert_guarded(self.pool, &mut self.pgtop[v.index()], guard, value);
    }

    fn def_node(&mut self, v: VarId) -> Option<NodeId> {
        let l = self.def_site[v.index()]?;
        Some(self.vfg.def_node(v, l))
    }

    fn analyze_func(&mut self, f: FuncId) -> FuncVisit {
        let mut visit = FuncVisit::default();
        let func = self.prog.func(f);
        if func.blocks.iter().all(|b| b.stmts.is_empty()) {
            return visit;
        }
        // Seed parameter points-to symbolically.
        for (i, &p) in func.params.iter().enumerate() {
            let tt = self.pool.tt();
            self.pg_insert(p, tt, Sym::Param(i));
        }
        // Flow-sensitive walk in reverse post-order; block-entry memory
        // states merge predecessor exits.
        let rpo = func.reverse_post_order();
        let mut block_in: FxHashMap<u32, Mem> = FxHashMap::default();
        block_in.insert(func.entry.0, Mem::new());
        let mut exit_mem = Mem::new();
        let mut returns: Vec<(Label, TermId, Vec<VarId>)> = Vec::new();
        let mut param_loads: Vec<ParamLoad> = Vec::new();
        for blk in rpo {
            visit.blocks += 1;
            let mut mem = block_in.remove(&blk.0).unwrap_or_default();
            for &l in &func.block(blk).stmts {
                visit.stmts += 1;
                self.transfer(l, &mut mem, &mut returns, &mut param_loads);
            }
            match &func.block(blk).term {
                Terminator::Exit => {
                    merge_mem(self.pool, &mut exit_mem, &mem);
                }
                term => {
                    for succ in term.successors() {
                        let entry = block_in.entry(succ.0).or_default();
                        merge_mem(self.pool, entry, &mem);
                    }
                }
            }
        }
        visit.summary_cells = exit_mem.values().map(|c| c.len() as u64).sum::<u64>()
            + param_loads.len() as u64
            + returns.len() as u64;
        self.summaries[f.index()] = FuncSummary {
            exit_mem: {
                let mut v: Vec<(MemKey, CellSet)> = exit_mem.into_iter().collect();
                v.sort_by_key(|(k, _)| *k);
                v
            },
            param_loads,
            returns,
        };
        visit
    }

    #[allow(clippy::too_many_lines)]
    fn transfer(
        &mut self,
        l: Label,
        mem: &mut Mem,
        returns: &mut Vec<(Label, TermId, Vec<VarId>)>,
        param_loads: &mut Vec<ParamLoad>,
    ) {
        let phi = self.pc.guard(l);
        match *self.prog.inst(l) {
            Inst::Alloc { dst, obj } => {
                self.pg_insert(dst, phi, Sym::Obj(obj));
                let on = self.vfg.obj_node(obj, l);
                let dn = self.vfg.def_node(dst, l);
                self.vfg.add_edge(on, dn, EdgeKind::Direct, phi);
            }
            Inst::Copy { dst, src } | Inst::Un { dst, src, .. } => {
                self.flow_var(src, dst, l, phi);
            }
            Inst::Bin { dst, lhs, rhs, .. } => {
                self.flow_var(lhs, dst, l, phi);
                self.flow_var(rhs, dst, l, phi);
            }
            Inst::FuncAddr { dst, .. } => {
                self.vfg.def_node(dst, l);
            }
            Inst::AssignNull { dst } => {
                self.pg_insert(dst, phi, Sym::Null);
                self.vfg.def_node(dst, l);
            }
            Inst::TaintSource { dst } => {
                self.vfg.def_node(dst, l);
            }
            Inst::Load { dst, addr } => {
                self.loads.push(LoadSite {
                    label: l,
                    addr,
                    dst,
                    guard: phi,
                });
                let dn = self.vfg.def_node(dst, l);
                let addr_pts = self.pg(addr);
                for Guarded {
                    guard: gamma,
                    value: sym,
                } in addr_pts
                {
                    let key = match sym {
                        Sym::Obj(o) => MemKey::Obj(o),
                        Sym::Param(i) => MemKey::ParamCell(i),
                        Sym::Null | Sym::DerefParam(_) => continue,
                    };
                    let base = self.pool.and2(phi, gamma);
                    if let Some(cells) = mem.get(&key) {
                        for &Guarded {
                            guard: delta,
                            value: val,
                        } in cells
                        {
                            let g = self.pool.and2(base, delta);
                            if g == self.pool.ff() {
                                continue;
                            }
                            if let Some(ptee) = val.pointee {
                                self.pg_insert(dst, g, ptee);
                            }
                            if let Some((sl, sv)) = val.origin {
                                let sn = self.vfg.def_node(sv, sl);
                                self.vfg.add_edge(sn, dn, EdgeKind::DataDep, g);
                            }
                        }
                    }
                    if let MemKey::ParamCell(i) = key {
                        // The cell's initial (caller-provided) contents.
                        self.pg_insert(dst, base, Sym::DerefParam(i));
                        param_loads.push(ParamLoad {
                            param: i,
                            dst,
                            label: l,
                            guard: base,
                        });
                    }
                }
            }
            Inst::Store { addr, src } => {
                self.stores.push(StoreSite {
                    label: l,
                    addr,
                    src,
                    guard: phi,
                });
                // Direct edge: the stored value's def flows into the
                // store occurrence node `src@ℓ` (the `a@ℓ3` of Fig. 2b).
                let store_node = self.vfg.def_node(src, l);
                if let Some(sn) = self.def_node(src) {
                    if sn != store_node {
                        self.vfg.add_edge(sn, store_node, EdgeKind::Direct, phi);
                    }
                }
                let addr_pts = self.pg(addr);
                let strong = addr_pts.len() == 1;
                let src_pts = self.pg(src);
                for Guarded {
                    guard: gamma,
                    value: sym,
                } in addr_pts
                {
                    let key = match sym {
                        Sym::Obj(o) => MemKey::Obj(o),
                        Sym::Param(i) => MemKey::ParamCell(i),
                        Sym::Null | Sym::DerefParam(_) => continue,
                    };
                    let base = self.pool.and2(phi, gamma);
                    let mut new_entries: CellSet = Vec::new();
                    if src_pts.is_empty() {
                        insert_guarded(
                            self.pool,
                            &mut new_entries,
                            base,
                            MemVal {
                                pointee: None,
                                origin: Some((l, src)),
                            },
                        );
                    } else {
                        for Guarded {
                            guard: delta,
                            value: s,
                        } in &src_pts
                        {
                            let g = self.pool.and2(base, *delta);
                            insert_guarded(
                                self.pool,
                                &mut new_entries,
                                g,
                                MemVal {
                                    pointee: Some(*s),
                                    origin: Some((l, src)),
                                },
                            );
                        }
                    }
                    let cell = mem.entry(key).or_default();
                    if strong {
                        // Alg. 1 line 16–17: singleton ⇒ strong update.
                        *cell = new_entries;
                    } else {
                        for e in new_entries {
                            insert_guarded(self.pool, cell, e.guard, e.value);
                        }
                    }
                }
            }
            Inst::Call {
                ref dsts, ref args, ..
            } => {
                for &g in self.cg.targets(l) {
                    self.bind_args(g, args, phi);
                    if self.analyzed[g.index()] {
                        self.apply_summary(g, l, dsts, args, phi, mem, param_loads);
                    }
                }
            }
            Inst::Fork { ref args, .. } => {
                // Bind arguments into the thread entry (value flows into
                // the child), but apply no summary: interference is
                // Alg. 2's job (Alg. 1 lines 23–24).
                for &g in self.cg.targets(l) {
                    self.bind_args(g, args, phi);
                }
            }
            Inst::Free { ptr } | Inst::Deref { ptr } | Inst::TaintSink { src: ptr } => {
                let un = self.vfg.def_node(ptr, l);
                if let Some(dn) = self.def_node(ptr) {
                    if dn != un {
                        self.vfg.add_edge(dn, un, EdgeKind::Direct, phi);
                    }
                }
            }
            Inst::Return { ref vals } => {
                for &v in vals {
                    self.def_node(v);
                }
                returns.push((l, phi, vals.clone()));
            }
            Inst::Join { .. }
            | Inst::Lock { .. }
            | Inst::Unlock { .. }
            | Inst::Wait { .. }
            | Inst::Notify { .. }
            | Inst::Nop => {}
        }
    }

    /// `dst = src` style flow: guarded points-to copy + direct edge.
    fn flow_var(&mut self, src: VarId, dst: VarId, l: Label, phi: TermId) {
        let entries = self.pg(src);
        for Guarded { guard, value } in entries {
            let g = self.pool.and2(guard, phi);
            self.pg_insert(dst, g, value);
        }
        let dn = self.vfg.def_node(dst, l);
        if let Some(sn) = self.def_node(src) {
            self.vfg.add_edge(sn, dn, EdgeKind::Direct, phi);
        }
    }

    /// Direct argument→parameter value-flow edges for a call or fork.
    fn bind_args(&mut self, callee: FuncId, args: &[VarId], phi: TermId) {
        let params = &self.prog.func(callee).params;
        for (i, &a) in args.iter().enumerate() {
            let Some(&p) = params.get(i) else { continue };
            let (Some(an), Some(pn)) = (self.def_node(a), self.def_node(p)) else {
                continue;
            };
            self.vfg.add_edge(an, pn, EdgeKind::Direct, phi);
        }
    }

    /// Applies `callee`'s procedural transfer function at a call site
    /// (Alg. 1 lines 21–22).
    #[allow(clippy::too_many_arguments)]
    fn apply_summary(
        &mut self,
        callee: FuncId,
        call_label: Label,
        dsts: &[VarId],
        args: &[VarId],
        phi: TermId,
        mem: &mut Mem,
        caller_param_loads: &mut Vec<ParamLoad>,
    ) {
        // Moved out while it is applied, since applying needs `self`
        // mutably; a function is analyzed, and so has a summary, only
        // after its own call sites.
        let summary = std::mem::take(&mut self.summaries[callee.index()]);
        // 1. Returns: value flow + substituted points-to. The edge
        // leaves the returned variable's *definition* node so the flow
        // chain from its producers stays connected.
        for (_, rguard, vals) in &summary.returns {
            for (k, &dst) in dsts.iter().enumerate() {
                let Some(&rv) = vals.get(k) else { continue };
                let g = self.pool.and2(phi, *rguard);
                let Some(rn) = self.def_node(rv) else {
                    continue;
                };
                let dn = self.vfg.def_node(dst, call_label);
                self.vfg.add_edge(rn, dn, EdgeKind::Direct, g);
                let rpts = self.pg(rv);
                for Guarded { guard, value } in rpts {
                    let base = self.pool.and2(g, guard);
                    for (sg, s) in self.subst_sym(value, args, mem) {
                        let gg = self.pool.and2(base, sg);
                        if let Some(s) = s {
                            self.pg_insert(dst, gg, s);
                        }
                    }
                }
            }
        }
        // 2. Exit memory effects, rebased into the caller's state.
        for (key, cells) in &summary.exit_mem {
            let resolved_keys: Vec<(TermId, MemKey)> = match key {
                MemKey::Obj(o) => vec![(self.pool.tt(), MemKey::Obj(*o))],
                MemKey::ParamCell(i) => {
                    let Some(&arg) = args.get(*i) else { continue };
                    self.pg(arg)
                        .into_iter()
                        .filter_map(|e| match e.value {
                            Sym::Obj(o) => Some((e.guard, MemKey::Obj(o))),
                            Sym::Param(j) => Some((e.guard, MemKey::ParamCell(j))),
                            _ => None,
                        })
                        .collect()
                }
            };
            for (kg, rkey) in resolved_keys {
                for Guarded {
                    guard: delta,
                    value: val,
                } in cells
                {
                    let base3 = self.pool.and2(phi, kg);
                    let base = self.pool.and2(base3, *delta);
                    let pointees: Vec<(TermId, Option<Sym>)> = match val.pointee {
                        None => vec![(self.pool.tt(), None)],
                        Some(s) => self.subst_sym(s, args, mem),
                    };
                    for (sg, ptee) in pointees {
                        let g = self.pool.and2(base, sg);
                        let cell = mem.entry(rkey).or_default();
                        insert_guarded(
                            self.pool,
                            cell,
                            g,
                            MemVal {
                                pointee: ptee,
                                origin: val.origin,
                            },
                        );
                    }
                }
            }
        }
        // 3. Parameter-cell loads: connect the caller's store origins to
        //    the callee's load destinations.
        for pl in &summary.param_loads {
            let Some(&arg) = args.get(pl.param) else {
                continue;
            };
            let arg_pts = self.pg(arg);
            for Guarded {
                guard: ga,
                value: s,
            } in arg_pts
            {
                let base2 = self.pool.and2(phi, ga);
                let base = self.pool.and2(base2, pl.guard);
                match s {
                    Sym::Obj(o) => {
                        let Some(cells) = mem.get(&MemKey::Obj(o)) else {
                            continue;
                        };
                        for &Guarded {
                            guard: delta,
                            value: val,
                        } in cells
                        {
                            let Some((sl, sv)) = val.origin else { continue };
                            let g = self.pool.and2(base, delta);
                            if g == self.pool.ff() {
                                continue;
                            }
                            let sn = self.vfg.def_node(sv, sl);
                            let dn = self.vfg.def_node(pl.dst, pl.label);
                            self.vfg.add_edge(sn, dn, EdgeKind::DataDep, g);
                        }
                    }
                    Sym::Param(j) => {
                        // Compose into the caller's own summary.
                        caller_param_loads.push(ParamLoad {
                            param: j,
                            dst: pl.dst,
                            label: pl.label,
                            guard: base,
                        });
                    }
                    _ => {}
                }
            }
        }
        self.summaries[callee.index()] = summary;
    }

    /// Substitutes a callee-relative symbol into the caller's context.
    fn subst_sym(&mut self, s: Sym, args: &[VarId], mem: &Mem) -> Vec<(TermId, Option<Sym>)> {
        match s {
            Sym::Obj(_) | Sym::Null => vec![(self.pool.tt(), Some(s))],
            Sym::Param(i) => {
                let Some(&arg) = args.get(i) else {
                    return Vec::new();
                };
                self.pg(arg)
                    .into_iter()
                    .map(|e| (e.guard, Some(e.value)))
                    .collect()
            }
            Sym::DerefParam(i) => {
                let Some(&arg) = args.get(i) else {
                    return Vec::new();
                };
                let mut out = Vec::new();
                for e in self.pg(arg) {
                    match e.value {
                        Sym::Obj(o) => {
                            if let Some(cells) = mem.get(&MemKey::Obj(o)) {
                                for c in cells {
                                    let g = self.pool.and2(e.guard, c.guard);
                                    out.push((g, c.value.pointee));
                                }
                            }
                        }
                        Sym::Param(j) => out.push((e.guard, Some(Sym::DerefParam(j)))),
                        _ => {}
                    }
                }
                out
            }
        }
    }
}

/// Merges `src` memory into `dst` (guarded union). Key-ordered
/// iteration keeps the term-creation order canonical.
fn merge_mem(pool: &mut TermPool, dst: &mut Mem, src: &Mem) {
    for (k, cells) in src {
        let d = dst.entry(*k).or_default();
        for c in cells {
            insert_guarded(pool, d, c.guard, c.value);
        }
    }
}
