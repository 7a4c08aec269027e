//! The CDCL(T) solving loop and its parallel drivers (§5.2).
//!
//! The propositional skeleton of `Φ_all` is solved by the CDCL core;
//! full models are checked against the strict-partial-order theory, and
//! theory conflicts come back as blocking lemmas. One private loop,
//! `solve_lazily`, does this for every caller: [`check`] and the fresh
//! strategy, [`check_witness_model`], the members of a query family
//! and [`check_conjunction`](crate::core::check_conjunction). Each
//! caller only sets up its solver and reads the result. Two §5.2
//! optimizations are implemented:
//!
//! 1. the semi-decision *prefilter* ([`crate::simplify`]), switchable
//!    so the tests can check it against unfiltered solving;
//! 2. *parallel* solving of independent queries (one query per
//!    source-sink path — they share nothing, so they parallelize
//!    embarrassingly).
//!
//! The third, *cube-and-conquer* splitting of a single hard query, is
//! not implemented: on the hard-family subjects it left the solver work
//! unchanged (see `docs/performance.md`).
//!
//! On top of these sits the *query-family* back-end
//! ([`check_all_grouped`], [`SolverStrategy::Incremental`]): related
//! queries (same checker, same source) are solved on one persistent
//! [`SatSolver`] — the shared conjunct prefix is encoded once, each
//! member's delta conjuncts are activated via assumption literals, and
//! learned clauses plus theory lemmas stay alive across the family.
//! Refuted members leave behind an UNSAT-core subsumption entry in a
//! [`QueryCache`], and hash-consed duplicate queries are answered from
//! a result memo, so whole queries are discharged without touching the
//! CDCL core at all. Each query's work is recorded in its own
//! [`QueryStats`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rustc_hash::{FxHashMap, FxHashSet};

use crate::cnf::{encode, encode_gated, Encoding};
use crate::sat::{Lit, SatResult, SatSolver, SatStats, Var};
use crate::simplify::obviously_false;
use crate::term::{EventId, Node, TermId, TermPool};
use crate::theory::{check_orders, OrderEdge, TheoryResult};

/// Result of an SMT query.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SmtResult {
    /// A sequentially consistent execution satisfying the constraints
    /// exists.
    Sat,
    /// No such execution exists — the value-flow path is irrealizable.
    Unsat,
}

impl SmtResult {
    /// Whether the query was satisfiable.
    pub fn is_sat(self) -> bool {
        matches!(self, SmtResult::Sat)
    }
}

/// How a batch of related queries is discharged by
/// [`check_all_grouped`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SolverStrategy {
    /// One fresh CNF encoding and CDCL solver per query. Kept as the
    /// reference semantics the equivalence suite compares against,
    /// including the solver work the incremental back-end saves.
    Fresh,
    /// Query-family solving: one persistent solver per family with the
    /// shared conjunct prefix asserted once, per-member delta conjuncts
    /// activated through assumption literals, UNSAT-core subsumption,
    /// and hash-consed result memoization.
    Incremental,
}

impl SolverStrategy {
    /// Parses a CLI spelling of a strategy.
    pub fn parse(s: &str) -> Option<SolverStrategy> {
        match s {
            "fresh" => Some(SolverStrategy::Fresh),
            "incremental" => Some(SolverStrategy::Incremental),
            _ => None,
        }
    }

    /// The canonical CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            SolverStrategy::Fresh => "fresh",
            SolverStrategy::Incremental => "incremental",
        }
    }
}

/// Families per cache epoch in [`check_all_grouped`]. Epoch boundaries
/// depend only on the family list — never on the worker count — so the
/// cache snapshot each family sees, and therefore every outcome, is the
/// same for every `num_threads`.
const EPOCH_FAMILIES: usize = 16;

/// Options controlling the solving strategy.
#[derive(Clone, Debug)]
pub struct SolverOptions {
    /// Apply the semi-decision prefilter before full solving.
    pub prefilter: bool,
    /// Worker threads for [`check_all_grouped`]; 1 disables
    /// parallelism.
    pub num_threads: usize,
    /// Fresh-per-query or incremental query-family solving.
    pub strategy: SolverStrategy,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            prefilter: true,
            num_threads: 1,
            strategy: SolverStrategy::Incremental,
        }
    }
}

/// Per-query solver work counters — the unit of attribution the
/// observability layer reports (which query was hot, and why), and the
/// solver's only work record.
///
/// The counters are fully deterministic: the CDCL core explores the
/// same tree for the same clauses, regardless of how many *other*
/// queries solve concurrently.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// The query was answered by the semi-decision prefilter alone.
    pub prefiltered: bool,
    /// CDCL decisions.
    pub decisions: u64,
    /// CDCL conflicts analyzed.
    pub conflicts: u64,
    /// Unit propagations.
    pub propagations: u64,
    /// Learned clauses retained (conflict clauses; theory lemmas are
    /// counted separately).
    pub learned: u64,
    /// Theory (order-cycle) lemmas fed back into the SAT core.
    pub theory_lemmas: u64,
}

impl QueryStats {
    /// Adds the CDCL work `sat` did since its counters read `base` and
    /// it held `learnt_before` learned clauses.
    fn add_work(&mut self, sat: &SatSolver, base: SatStats, learnt_before: u64) {
        self.decisions += sat.stats.decisions - base.decisions;
        self.conflicts += sat.stats.conflicts - base.conflicts;
        self.propagations += sat.stats.propagations - base.propagations;
        self.learned += sat.num_learnt() as u64 - learnt_before;
    }
}

/// The lazy CDCL(T) loop: solves the Boolean skeleton under
/// `assumptions`, checks the model's oriented order atoms for a cycle
/// and blocks each cycle with a lemma, until a model is acyclic
/// (returned) or none is left (`None`). `scope`, when given, limits the
/// theory check to those order-atom variables; `lemmas` counts the
/// lemmas added.
pub(crate) fn solve_lazily(
    sat: &mut SatSolver,
    enc: &Encoding,
    assumptions: &[Lit],
    scope: Option<&FxHashSet<Var>>,
    lemmas: &mut u64,
) -> Option<Vec<bool>> {
    loop {
        let SatResult::Sat(model) = sat.solve_with_assumptions(assumptions) else {
            return None;
        };
        let edges: Vec<OrderEdge> = enc
            .oriented_edges(&model)
            .into_iter()
            .filter(|(_, _, var)| scope.is_none_or(|s| s.contains(var)))
            .map(|(from, to, var)| OrderEdge {
                from,
                to,
                atom: var.index(),
            })
            .collect();
        match check_orders(&edges) {
            TheoryResult::Consistent => return Some(model),
            TheoryResult::Conflict(vars) => {
                *lemmas += 1;
                // Block this orientation of the cycle. The lemma is
                // theory-valid, so it stays sound for every later solve
                // on the same solver (the rest of a query family).
                let clause: Vec<Lit> = vars
                    .iter()
                    .map(|&vi| Lit::new(Var(vi as u32), !model[vi]))
                    .collect();
                if !sat.add_clause(&clause) {
                    return None;
                }
            }
        }
    }
}

/// A fresh solver with each of `roots` encoded and asserted.
pub(crate) fn fresh_solver(pool: &TermPool, roots: &[TermId]) -> (SatSolver, Encoding) {
    let mut sat = SatSolver::new();
    let mut enc = Encoding::default();
    for &r in roots {
        encode(pool, r, &mut sat, &mut enc);
    }
    (sat, enc)
}

/// The prefilter's verdict on `t`, when `opts` enables it and it has
/// one: `true` is sat, an obvious contradiction ([`obviously_false`])
/// unsat.
fn prefilter(pool: &TermPool, t: TermId, opts: &SolverOptions) -> Option<SmtResult> {
    if !opts.prefilter {
        None
    } else if t == pool.tt() {
        Some(SmtResult::Sat)
    } else if obviously_false(pool, t) {
        Some(SmtResult::Unsat)
    } else {
        None
    }
}

/// Decides one term with the CDCL(T) loop.
pub fn check(pool: &TermPool, t: TermId, opts: &SolverOptions) -> SmtResult {
    check_fresh(pool, t, opts).0
}

/// [`check`] plus the query's own work counters: the prefilter (when
/// enabled), then the lazy loop on a fresh solver.
fn check_fresh(pool: &TermPool, t: TermId, opts: &SolverOptions) -> (SmtResult, QueryStats) {
    let mut q = QueryStats::default();
    if let Some(r) = prefilter(pool, t, opts) {
        q.prefiltered = true;
        return (r, q);
    }
    let (mut sat, enc) = fresh_solver(pool, &[t]);
    let result = match solve_lazily(&mut sat, &enc, &[], None, &mut q.theory_lemmas) {
        Some(_) => SmtResult::Sat,
        None => SmtResult::Unsat,
    };
    q.add_work(&sat, SatStats::default(), 0);
    (result, q)
}

/// A satisfying theory model of a query, in replay-friendly form: the
/// order-constrained events arranged in one concrete sequentially
/// consistent execution order, plus the Boolean-atom assignment the
/// model chose (the branch-atom valuation a concrete replay must run
/// under).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WitnessModel {
    /// Events of the query in one theory-consistent total order
    /// (a topological order of the model's oriented order atoms).
    /// Events that appear in no order atom are omitted — their
    /// position is unconstrained.
    pub events: Vec<EventId>,
    /// The model's Boolean-atom assignment as sorted
    /// `(atom index, value)` pairs.
    pub bools: Vec<(u32, bool)>,
    /// The model *slice* over the order theory: the oriented order
    /// atoms `(a, b)` (meaning `O_a < O_b`) the model committed to,
    /// sorted and deduplicated. This is exactly the evidence the
    /// topological order in [`WitnessModel::events`] was built from —
    /// report provenance records it as the SMT justification of the
    /// witness interleaving.
    pub orders: Vec<(EventId, EventId)>,
}

/// A satisfying witness of `t` — everything a concrete interpreter
/// needs to replay it (schedule + branch valuation) — or `None` when
/// `t` is unsatisfiable. No prefilter runs: a witness needs a model.
pub fn check_witness_model(pool: &TermPool, t: TermId) -> Option<WitnessModel> {
    let (mut sat, enc) = fresh_solver(pool, &[t]);
    let model = solve_lazily(&mut sat, &enc, &[], None, &mut 0)?;
    let oriented = enc.oriented_edges(&model);
    let mut orders: Vec<(EventId, EventId)> = oriented.iter().map(|&(a, b, _)| (a, b)).collect();
    orders.sort_unstable();
    orders.dedup();
    Some(WitnessModel {
        events: topological_events(&oriented),
        bools: enc.bool_assignment(&model),
        orders,
    })
}

/// Topologically sorts the events of an acyclic oriented edge set
/// (Kahn's algorithm; ties broken by event id for determinism).
fn topological_events(oriented: &[(EventId, EventId, Var)]) -> Vec<EventId> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut succs: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    let mut indeg: BTreeMap<u32, usize> = BTreeMap::new();
    for &(a, b, _) in oriented {
        if succs.entry(a).or_default().insert(b) {
            *indeg.entry(b).or_insert(0) += 1;
        }
        indeg.entry(a).or_insert(0);
    }
    let mut ready: BTreeSet<u32> = indeg
        .iter()
        .filter(|&(_, &d)| d == 0)
        .map(|(&e, _)| e)
        .collect();
    let mut out = Vec::with_capacity(indeg.len());
    while let Some(&e) = ready.iter().next() {
        ready.remove(&e);
        out.push(e);
        if let Some(next) = succs.get(&e) {
            for &n in next {
                let d = indeg.get_mut(&n).expect("edge target has an indegree");
                *d -= 1;
                if *d == 0 {
                    ready.insert(n);
                }
            }
        }
    }
    out
}

/// One solved query, with its verdict, work counters, and timing.
/// `started` is the wall-clock instant solving began (relative to
/// whatever epoch the caller tracks); only `result` and `stats` are
/// deterministic — the timing fields carry real wall time.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Sat/unsat verdict.
    pub result: SmtResult,
    /// Deterministic work counters for this query.
    pub stats: QueryStats,
    /// When solving of this query started.
    pub started: Instant,
    /// Wall time spent solving this query.
    pub wall: Duration,
    /// Answered from the hash-consed result memo — no solver touched.
    pub memo_hit: bool,
    /// Refuted because a cached UNSAT core is a subset of this query's
    /// conjunct set — no solver touched.
    pub core_subsumed: bool,
    /// Solved on a persistent family solver via assumption literals
    /// (as opposed to the fresh-per-query path or a cache hit).
    pub incremental: bool,
    /// On refutation under the incremental strategy: the refuted
    /// conjunct set (the assumption core mapped back to named
    /// conjuncts, or the subsuming cached core). Strategy-dependent —
    /// `None` on the fresh path, memo hits and prefiltered queries —
    /// so it feeds human-facing explanations only, never the canonical
    /// audit export.
    pub core: Option<Vec<TermId>>,
}

/// Applies `f` to every item on at most `threads` scoped workers, which
/// claim items from one atomic cursor; results come back in item order.
fn par_map<T: Sync, R: Send>(items: &[T], threads: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = threads.min(items.len()).max(1);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { return };
                let r = f(item);
                *slots[i].lock().expect("no poisoning: workers do not panic") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("scope joined")
                .expect("every item claimed")
        })
        .collect()
}

/// Cross-query result cache for the incremental strategy: a verdict
/// memo keyed on hash-consed [`TermId`]s plus the UNSAT-core
/// subsumption store.
///
/// Both parts are *semantically* deterministic: the memo value for a
/// term is its theory satisfiability (independent of which family
/// solved it first), and cores are appended in family-commit order at
/// the epoch barrier, so lookups never depend on scheduling.
#[derive(Debug, Default)]
pub struct QueryCache {
    /// Hash-consed query term → verdict.
    memo: FxHashMap<TermId, SmtResult>,
    /// Refuted conjunct sets (each sorted): any query whose conjunct
    /// set is a superset of an entry is unsat without solving.
    cores: Vec<Vec<TermId>>,
    /// Dedup guard for `cores`.
    core_seen: FxHashSet<Vec<TermId>>,
}

impl QueryCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The memoized verdict for `t`, if any.
    pub fn lookup(&self, t: TermId) -> Option<SmtResult> {
        self.memo.get(&t).copied()
    }

    /// Memoizes a verdict (first write wins; all writers agree on the
    /// value because the verdict is a property of the term alone).
    pub fn memoize(&mut self, t: TermId, r: SmtResult) {
        self.memo.entry(t).or_insert(r);
    }

    /// Whether some cached refuted conjunct set is a subset of the
    /// (sorted) conjunct set `conj` — if so, `conj` is unsat.
    pub fn subsumes(&self, conj: &[TermId]) -> bool {
        self.subsuming_core(conj).is_some()
    }

    /// The first cached refuted conjunct set (in commit order) that is
    /// a subset of the (sorted) conjunct set `conj` — the certificate
    /// behind a [`QueryOutcome::core_subsumed`] verdict.
    pub fn subsuming_core(&self, conj: &[TermId]) -> Option<&[TermId]> {
        self.cores
            .iter()
            .find(|c| is_sorted_subset(c, conj))
            .map(Vec::as_slice)
    }

    /// Records a refuted conjunct set (must be sorted). Empty sets are
    /// ignored defensively — an empty core would subsume everything.
    pub fn insert_core(&mut self, core: Vec<TermId>) {
        if core.is_empty() || self.core_seen.contains(&core) {
            return;
        }
        self.core_seen.insert(core.clone());
        self.cores.push(core);
    }

    /// Merges another cache into this one (used at the deterministic
    /// per-epoch barrier, in family-commit order).
    pub fn merge(&mut self, other: QueryCache) {
        for (t, r) in other.memo {
            self.memoize(t, r);
        }
        for c in other.cores {
            self.insert_core(c);
        }
    }

    /// Number of cached UNSAT cores.
    pub fn core_len(&self) -> usize {
        self.cores.len()
    }
}

/// Whether sorted `sub` is a subset of sorted `sup` (two-pointer walk;
/// exact — never fires on a non-superset). The UNSAT-core subsumption
/// test of [`QueryCache`].
pub fn is_sorted_subset(sub: &[TermId], sup: &[TermId]) -> bool {
    let mut i = 0;
    for &x in sup {
        if i == sub.len() {
            return true;
        }
        if sub[i] == x {
            i += 1;
        } else if sub[i] < x {
            return false;
        }
    }
    i == sub.len()
}

/// `all \ minus` for sorted slices, preserving order.
fn sorted_diff(all: &[TermId], minus: &[TermId]) -> Vec<TermId> {
    let mut out = Vec::with_capacity(all.len().saturating_sub(minus.len()));
    let mut j = 0;
    for &x in all {
        while j < minus.len() && minus[j] < x {
            j += 1;
        }
        if j < minus.len() && minus[j] == x {
            j += 1;
        } else {
            out.push(x);
        }
    }
    out
}

/// The result of a grouped batch: per-query outcomes in input order
/// plus family-level aggregates.
#[derive(Debug)]
pub struct GroupedOutcome {
    /// One record per query, in query order.
    pub outcomes: Vec<QueryOutcome>,
    /// Query families formed (0 under [`SolverStrategy::Fresh`]).
    pub families: u64,
    /// Learned clauses alive on family solvers at family end — the
    /// state the fresh strategy would have thrown away between queries.
    pub clauses_retained: u64,
}

/// Persistent per-family solver state: one [`SatSolver`] carrying the
/// shared conjunct prefix, the Tseitin encoding shared by all members,
/// and the activation literal assigned to each distinct delta conjunct.
struct FamilySolver {
    sat: SatSolver,
    enc: Encoding,
    acts: FxHashMap<TermId, Lit>,
    /// Activation literal per shared-prefix conjunct, in prefix order
    /// (empty when the family shares no conjunct). Gating the prefix
    /// lets assumption cores name exactly the responsible conjuncts —
    /// shared or delta — which leaves the smallest, most subsuming
    /// cores in the cache.
    shared_acts: Vec<(TermId, Lit)>,
    /// Order atoms mentioned by the shared prefix.
    shared_orders: FxHashSet<(EventId, EventId)>,
    /// Order atoms mentioned by each delta conjunct (memoized).
    delta_orders: FxHashMap<TermId, Vec<(EventId, EventId)>>,
}

impl FamilySolver {
    fn new(pool: &TermPool, shared: &[TermId]) -> FamilySolver {
        let mut sat = SatSolver::new();
        let mut enc = Encoding::default();
        let mut shared_orders = FxHashSet::default();
        let mut seen = FxHashSet::default();
        let mut shared_acts = Vec::new();
        for &c in shared {
            let l = Lit::pos(sat.new_var());
            encode_gated(pool, c, &mut sat, &mut enc, l);
            shared_acts.push((c, l));
            collect_order_atoms(pool, c, &mut seen, &mut shared_orders);
        }
        FamilySolver {
            sat,
            enc,
            acts: FxHashMap::default(),
            shared_acts,
            shared_orders,
            delta_orders: FxHashMap::default(),
        }
    }
}

/// Collects the canonical `(a, b)` event pair of every order atom
/// reachable from `t`. The persistent family solver carries the union
/// of all members' atoms, but a member's theory check must range over
/// exactly the atoms *its* formula mentions — matching the fresh
/// strategy's semantics and keeping the orientation graph from growing
/// with the family (inactive members' gated atoms are irrelevant to the
/// active query).
fn collect_order_atoms(
    pool: &TermPool,
    t: TermId,
    seen: &mut FxHashSet<TermId>,
    out: &mut FxHashSet<(EventId, EventId)>,
) {
    if !seen.insert(t) {
        return;
    }
    match pool.node(t) {
        Node::Order(a, b) => {
            out.insert((*a, *b));
        }
        Node::Not(x) => collect_order_atoms(pool, *x, seen, out),
        Node::And(xs) | Node::Or(xs) => {
            for &x in xs {
                collect_order_atoms(pool, x, seen, out);
            }
        }
        Node::True | Node::False | Node::BoolAtom(_) => {}
    }
}

/// What one family hands back to the batch driver for the
/// deterministic merge.
struct FamilyOutput {
    outcomes: Vec<QueryOutcome>,
    additions: QueryCache,
    clauses_retained: u64,
}

/// Solves one query family on a persistent solver.
///
/// The shared conjunct prefix (intersection of all members' conjunct
/// sets) is encoded once, each conjunct behind its own activation
/// literal; each member then becomes one `solve_with_assumptions` call
/// over the activation literals of the prefix and of its delta
/// conjuncts. Learned clauses stay valid across members because the
/// gating clauses are part of the clause set, and theory lemmas are
/// globally valid (they block cyclic orientations). `snapshot` is the
/// cache state at epoch start — shared by every family in the epoch so
/// results cannot depend on family scheduling.
fn solve_family(
    pool: &TermPool,
    queries: &[TermId],
    opts: &SolverOptions,
    snapshot: &QueryCache,
) -> FamilyOutput {
    let conjs: Vec<Vec<TermId>> = queries.iter().map(|&t| pool.conjuncts_of(t)).collect();
    let mut shared = conjs[0].clone();
    for c in conjs.iter().skip(1) {
        shared.retain(|x| c.binary_search(x).is_ok());
    }
    let mut local = QueryCache::new();
    let mut fam: Option<FamilySolver> = None;
    // Solve members with the fewest conjuncts first (ties broken by
    // candidate order, so the schedule is deterministic). A smaller
    // member's conjunct set is closer to the shared prefix, so its
    // refutation leaves behind the most subsuming core — and solving
    // it first keeps the persistent solver small, before larger
    // members' delta encodings pile up. Outcomes are emitted in the
    // caller's order regardless.
    let mut order: Vec<usize> = (0..queries.len()).collect();
    order.sort_by_key(|&i| (conjs[i].len(), i));
    let mut outcomes: Vec<Option<QueryOutcome>> = (0..queries.len()).map(|_| None).collect();
    for i in order {
        let t = queries[i];
        let started = Instant::now();
        let mut q = QueryStats::default();
        let mut memo_hit = false;
        let mut core_subsumed = false;
        let mut incremental = false;
        let mut core: Option<Vec<TermId>> = None;
        // The prefilter runs first in both strategies, so the
        // `prefiltered` counter is strategy-invariant.
        let result = if let Some(r) = prefilter(pool, t, opts) {
            q.prefiltered = true;
            r
        } else if let Some(r) = snapshot.lookup(t).or_else(|| local.lookup(t)) {
            memo_hit = true;
            r
        } else if let Some(cached) = snapshot
            .subsuming_core(&conjs[i])
            .or_else(|| local.subsuming_core(&conjs[i]))
            .map(<[TermId]>::to_vec)
        {
            core_subsumed = true;
            core = Some(cached);
            local.memoize(t, SmtResult::Unsat);
            SmtResult::Unsat
        } else {
            incremental = true;
            let was_absent = fam.is_none();
            let fam = fam.get_or_insert_with(|| FamilySolver::new(pool, &shared));
            // The member that forced solver construction also pays for
            // encoding the shared prefix (as the fresh path would).
            let base = if was_absent {
                SatStats::default()
            } else {
                fam.sat.stats
            };
            let (r, member_core) =
                solve_member(pool, fam, &shared, &conjs[i], &mut q, &mut local, base);
            core = member_core;
            local.memoize(t, r);
            r
        };
        outcomes[i] = Some(QueryOutcome {
            result,
            stats: q,
            started,
            wall: started.elapsed(),
            memo_hit,
            core_subsumed,
            incremental,
            core,
        });
    }
    FamilyOutput {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every member solved"))
            .collect(),
        additions: local,
        clauses_retained: fam.map_or(0, |f| f.sat.num_learnt() as u64),
    }
}

/// Solves one member on the persistent family solver: the lazy loop
/// under the member's activation literals, its theory check scoped to
/// the member's own order atoms. On refutation, records the refuted
/// conjunct set (the conjuncts named by the assumption core) into
/// `local` and returns it as the member's certificate. `base` is the
/// solver-counter baseline this member's work is measured against.
fn solve_member(
    pool: &TermPool,
    fam: &mut FamilySolver,
    shared: &[TermId],
    conj: &[TermId],
    q: &mut QueryStats,
    local: &mut QueryCache,
    base: SatStats,
) -> (SmtResult, Option<Vec<TermId>>) {
    let deltas = sorted_diff(conj, shared);
    let mut assumptions = Vec::with_capacity(fam.shared_acts.len() + deltas.len());
    let mut by_lit: FxHashMap<Lit, TermId> = FxHashMap::with_capacity_and_hasher(
        fam.shared_acts.len() + deltas.len(),
        Default::default(),
    );
    for &(c, l) in &fam.shared_acts {
        by_lit.insert(l, c);
        assumptions.push(l);
    }
    for &d in &deltas {
        let lit = match fam.acts.get(&d) {
            Some(&l) => l,
            None => {
                let l = Lit::pos(fam.sat.new_var());
                encode_gated(pool, d, &mut fam.sat, &mut fam.enc, l);
                let mut seen = FxHashSet::default();
                let mut orders = FxHashSet::default();
                collect_order_atoms(pool, d, &mut seen, &mut orders);
                let mut orders: Vec<_> = orders.into_iter().collect();
                orders.sort_unstable();
                fam.delta_orders.insert(d, orders);
                fam.acts.insert(d, l);
                l
            }
        };
        by_lit.insert(lit, d);
        assumptions.push(lit);
    }
    // The theory check ranges over exactly the order atoms of *this*
    // member's formula (shared prefix + its deltas) — the same scope
    // the fresh strategy would orient. Without the restriction the
    // orientation graph grows with every member encoded, and cycles
    // among inactive gated atoms cost spurious lemmas.
    let mut scope: FxHashSet<Var> = fam
        .shared_orders
        .iter()
        .filter_map(|p| fam.enc.order_vars.get(p).copied())
        .collect();
    for d in &deltas {
        for p in &fam.delta_orders[d] {
            if let Some(&v) = fam.enc.order_vars.get(p) {
                scope.insert(v);
            }
        }
    }
    let learnt_before = fam.sat.num_learnt() as u64;
    let model = solve_lazily(
        &mut fam.sat,
        &fam.enc,
        &assumptions,
        Some(&scope),
        &mut q.theory_lemmas,
    );
    q.add_work(&fam.sat, base, learnt_before);
    if model.is_some() {
        return (SmtResult::Sat, None);
    }
    let refuted = if fam.sat.is_ok() {
        if fam.shared_acts.is_empty() {
            // No shared prefix: record the deltas in the assumption
            // core (an empty set is not cached, see
            // `QueryCache::insert_core`).
            let mut set: Vec<TermId> = shared.to_vec();
            for l in fam.sat.assumption_core() {
                if let Some(&d) = by_lit.get(l) {
                    set.push(d);
                }
            }
            set.sort_unstable();
            set.dedup();
            set
        } else {
            // The assumption core names exactly the responsible
            // conjuncts, shared or delta — the smallest, most
            // subsuming core the solver can certify.
            let mut set: Vec<TermId> = fam
                .sat
                .assumption_core()
                .iter()
                .filter_map(|l| by_lit.get(l).copied())
                .collect();
            set.sort_unstable();
            set.dedup();
            if set.is_empty() {
                // Conflict independent of every activation literal;
                // claim no more than this member's own formula.
                conj.to_vec()
            } else {
                set
            }
        }
    } else if fam.shared_acts.is_empty() {
        // The clause set alone went unsat with no shared prefix to
        // blame: nothing is cached.
        shared.to_vec()
    } else {
        // Refuted at clause level: still a sound refutation of this
        // member's formula, but nothing smaller can be certified.
        conj.to_vec()
    };
    local.insert_core(refuted.clone());
    (SmtResult::Unsat, Some(refuted))
}

/// Solves a batch of queries, each carrying a *group key* (`groups[i]`,
/// e.g. the candidate's source label), per `opts.strategy`, and returns
/// one record per query (verdict, work counters, wall time) in query
/// order.
///
/// Under [`SolverStrategy::Fresh`] every query is checked on its own
/// fresh solver, in parallel with `num_threads > 1` (§5.2: "the
/// constraints on different source-sink paths are independent of each
/// other, which gives us the ability to leverage parallelization").
///
/// Under [`SolverStrategy::Incremental`] maximal contiguous runs of
/// equal keys form query families. Families are formed in candidate
/// order and processed in epochs of `EPOCH_FAMILIES` (16) consecutive
/// families.
/// Within an epoch, families are solved independently (in parallel
/// with `num_threads > 1`) against a frozen snapshot of `cache`; at the
/// epoch barrier their outcomes are committed and their cache additions
/// merged back in family order, so later epochs reuse earlier epochs'
/// cores and verdicts. Outcomes are byte-identical for every
/// `num_threads`.
pub fn check_all_grouped(
    pool: &TermPool,
    queries: &[TermId],
    groups: &[u64],
    opts: &SolverOptions,
    cache: &mut QueryCache,
) -> GroupedOutcome {
    assert_eq!(queries.len(), groups.len(), "one group key per query");
    if opts.strategy == SolverStrategy::Fresh {
        let outcomes = par_map(queries, opts.num_threads, |&t| {
            let started = Instant::now();
            let (result, stats) = check_fresh(pool, t, opts);
            QueryOutcome {
                result,
                stats,
                started,
                wall: started.elapsed(),
                memo_hit: false,
                core_subsumed: false,
                incremental: false,
                core: None,
            }
        });
        return GroupedOutcome {
            outcomes,
            families: 0,
            clauses_retained: 0,
        };
    }
    let mut fams: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    for i in 1..=queries.len() {
        if i == queries.len() || groups[i] != groups[start] {
            fams.push((start, i));
            start = i;
        }
    }
    let mut outcomes = Vec::with_capacity(queries.len());
    let mut clauses_retained = 0;
    for epoch in fams.chunks(EPOCH_FAMILIES) {
        let snapshot: &QueryCache = cache;
        let outputs = par_map(epoch, opts.num_threads, |&(s, e)| {
            solve_family(pool, &queries[s..e], opts, snapshot)
        });
        for out in outputs {
            outcomes.extend(out.outcomes);
            clauses_retained += out.clauses_retained;
            cache.merge(out.additions);
        }
    }
    GroupedOutcome {
        outcomes,
        families: fams.len() as u64,
        clauses_retained,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_boolean_sat_and_unsat() {
        let mut p = TermPool::new();
        let a = p.bool_atom(0);
        let b = p.bool_atom(1);
        let na = p.not(a);
        let f = p.or2(a, b);
        let opts = SolverOptions::default();
        assert_eq!(check(&p, f, &opts), SmtResult::Sat);
        let nb = p.not(b);
        let g = p.and([f, na, nb]);
        assert_eq!(check(&p, g, &opts), SmtResult::Unsat);
    }

    #[test]
    fn fig2_guard_is_unsat() {
        // θ1 ∧ ¬θ1 with order constraints — the paper's Fig. 2 example.
        let mut p = TermPool::new();
        let theta = p.bool_atom(0);
        let ntheta = p.not(theta);
        let o1 = p.order_lt(13, 6); // store before load
        let o2 = p.order_lt(3, 13); // no overwrite
        let guard = p.and([theta, ntheta, o1, o2]);
        assert_eq!(
            check(&p, guard, &SolverOptions::default()),
            SmtResult::Unsat
        );
    }

    #[test]
    fn order_cycle_through_boolean_structure_is_unsat() {
        // (O1<O2) ∧ (O2<O3) ∧ (O3<O1) is hidden from the prefilter by a
        // disjunctive wrapper, so the theory loop must catch it.
        let mut p = TermPool::new();
        let o12 = p.order_lt(1, 2);
        let o23 = p.order_lt(2, 3);
        let o31 = p.order_lt(3, 1);
        let a = p.bool_atom(0);
        let b = p.bool_atom(1);
        let na = p.not(a);
        let cyc = p.and([o12, o23, o31]);
        // Distinct boolean tails on each side keep the construction-time
        // factoring rewrite from collapsing the disjunction.
        let left = p.and([cyc, a, b]);
        let right = p.and2(cyc, na);
        let f = p.or2(left, right);
        let (r, q) = check_fresh(&p, f, &SolverOptions::default());
        assert_eq!(r, SmtResult::Unsat);
        assert!(q.theory_lemmas > 0);
    }

    #[test]
    fn order_choice_is_sat() {
        // (O1<O2 ∨ O2<O1) ∧ O2<O3: satisfiable.
        let mut p = TermPool::new();
        let o12 = p.order_lt(1, 2);
        let o21 = p.order_lt(2, 1);
        let o23 = p.order_lt(2, 3);
        let choice = p.or2(o12, o21);
        let f = p.and2(choice, o23);
        assert_eq!(check(&p, f, &SolverOptions::default()), SmtResult::Sat);
    }

    #[test]
    fn transitivity_is_enforced_lazily() {
        // O1<O2 ∧ O2<O3 ∧ O3<O1 must be unsat even though no single
        // atom pair is contradictory.
        let mut p = TermPool::new();
        let o12 = p.order_lt(1, 2);
        let o23 = p.order_lt(2, 3);
        let o31 = p.order_lt(3, 1);
        // Disable prefilter to force the lazy loop.
        let opts = SolverOptions {
            prefilter: false,
            ..SolverOptions::default()
        };
        let f = p.and([o12, o23, o31]);
        assert_eq!(check(&p, f, &opts), SmtResult::Unsat);
    }

    #[test]
    fn prefilter_short_circuits() {
        let mut p = TermPool::new();
        let o12 = p.order_lt(1, 2);
        let o23 = p.order_lt(2, 3);
        let o31 = p.order_lt(3, 1);
        let f = p.and([o12, o23, o31]);
        let (r, q) = check_fresh(&p, f, &SolverOptions::default());
        assert_eq!(r, SmtResult::Unsat);
        // Prefiltered, with no CDCL work at all.
        let expected = QueryStats {
            prefiltered: true,
            ..QueryStats::default()
        };
        assert_eq!(q, expected);
    }

    #[test]
    fn parallel_check_all_matches_sequential() {
        let mut p = TermPool::new();
        let mut queries = Vec::new();
        for i in 0..16u32 {
            let a = p.bool_atom(i);
            let na = p.not(a);
            let o = p.order_lt(i, i + 1);
            let q = if i % 2 == 0 {
                p.and2(a, o)
            } else {
                p.and([a, na]) // unsat
            };
            queries.push(q);
        }
        // Fresh solving: every query on its own solver, none grouped.
        let groups: Vec<u64> = (0..16).collect();
        let fresh = |threads: usize| {
            let opts = SolverOptions {
                num_threads: threads,
                strategy: SolverStrategy::Fresh,
                ..SolverOptions::default()
            };
            let out = check_all_grouped(&p, &queries, &groups, &opts, &mut QueryCache::new());
            out.outcomes
                .iter()
                .map(|o| (o.result, o.stats))
                .collect::<Vec<_>>()
        };
        let seq = fresh(1);
        assert_eq!(seq, fresh(4));
        let seq: Vec<SmtResult> = seq.iter().map(|&(r, _)| r).collect();
        for (i, r) in seq.iter().enumerate() {
            assert_eq!(r.is_sat(), i % 2 == 0, "query {i}");
        }
    }

    #[test]
    fn sorted_subset_is_exact() {
        let t = |x: u32| TermId(x);
        let sub = vec![t(1), t(3)];
        assert!(is_sorted_subset(&sub, &[t(0), t(1), t(2), t(3)]));
        assert!(is_sorted_subset(&sub, &[t(1), t(3)]));
        assert!(!is_sorted_subset(&sub, &[t(1), t(2)]));
        assert!(!is_sorted_subset(&sub, &[t(3)]));
        assert!(is_sorted_subset(&[], &[t(7)]));
        assert_eq!(
            sorted_diff(&[t(0), t(1), t(2), t(3)], &[t(1), t(3)]),
            vec![t(0), t(2)]
        );
    }

    #[test]
    fn cached_core_refutes_strict_superset_never_non_superset() {
        let mut cache = QueryCache::new();
        let t = |x: u32| TermId(x);
        cache.insert_core(vec![t(2), t(5)]);
        // Strict superset: refuted without solving.
        assert!(cache.subsumes(&[t(1), t(2), t(5), t(9)]));
        // The refuted set itself.
        assert!(cache.subsumes(&[t(2), t(5)]));
        // Non-supersets: never fires.
        assert!(!cache.subsumes(&[t(2), t(9)]));
        assert!(!cache.subsumes(&[t(5)]));
        assert!(!cache.subsumes(&[]));
        // Empty cores are ignored — they would subsume everything.
        cache.insert_core(Vec::new());
        assert!(!cache.subsumes(&[t(1)]));
    }

    #[test]
    fn family_core_subsumption_and_memo_fire_in_batch() {
        let mut p = TermPool::new();
        let oa = p.order_lt(10, 11);
        let o12 = p.order_lt(1, 2);
        let o23 = p.order_lt(2, 3);
        let o31 = p.order_lt(3, 1);
        let b = p.bool_atom(0);
        let q_sat = p.and([oa, o12, o23]);
        let q_unsat = p.and([oa, o12, o23, o31]); // order cycle
        let q_super = p.and([oa, o12, o23, o31, b]); // superset of the core
        let q_other = p.and([oa, o12, b]); // shares atoms but no cycle
        let q_dup = q_sat; // hash-consed duplicate
        let queries = [q_sat, q_unsat, q_super, q_other, q_dup];
        let groups = [7u64; 5];
        let opts = SolverOptions {
            prefilter: false, // force everything past the prefilter
            strategy: SolverStrategy::Incremental,
            ..SolverOptions::default()
        };
        let mut cache = QueryCache::new();
        let out = check_all_grouped(&p, &queries, &groups, &opts, &mut cache);
        let verdicts: Vec<SmtResult> = out.outcomes.iter().map(|o| o.result).collect();
        assert_eq!(
            verdicts,
            vec![
                SmtResult::Sat,
                SmtResult::Unsat,
                SmtResult::Unsat,
                SmtResult::Sat,
                SmtResult::Sat
            ]
        );
        assert_eq!(out.families, 1);
        assert!(out.outcomes[1].incremental);
        // The superset of the refuted set is discharged by the core
        // cache, the duplicate by the memo — neither touches a solver.
        assert!(out.outcomes[2].core_subsumed);
        assert!(!out.outcomes[3].core_subsumed && !out.outcomes[3].memo_hit);
        assert!(out.outcomes[4].memo_hit);
        // The batch merged its additions into the caller's cache.
        assert!(cache.core_len() >= 1);
        assert!(cache.subsumes(&p.conjuncts_of(q_super)));
        // A later batch reuses the merged cache across families.
        let out2 = check_all_grouped(&p, &[q_super], &[99], &opts, &mut cache);
        assert_eq!(out2.outcomes[0].result, SmtResult::Unsat);
        assert!(out2.outcomes[0].memo_hit || out2.outcomes[0].core_subsumed);
    }

    #[test]
    fn grouped_incremental_matches_fresh_verdicts() {
        let mut p = TermPool::new();
        let mut queries = Vec::new();
        let mut groups = Vec::new();
        for src in 0..4u64 {
            let base = p.order_lt(src as u32 * 10, src as u32 * 10 + 1);
            let g = p.bool_atom(src as u32);
            for k in 0..4u32 {
                let d1 = p.order_lt(k, k + 1);
                let q = if k == 3 {
                    // An order cycle hidden behind the shared prefix.
                    let c1 = p.order_lt(100, 101);
                    let c2 = p.order_lt(101, 100);
                    p.and([base, g, c1, c2])
                } else {
                    p.and([base, g, d1])
                };
                queries.push(q);
                groups.push(src);
            }
        }
        let fresh = SolverOptions {
            strategy: SolverStrategy::Fresh,
            ..SolverOptions::default()
        };
        let incr = SolverOptions {
            strategy: SolverStrategy::Incremental,
            ..SolverOptions::default()
        };
        let mut c1 = QueryCache::new();
        let mut c2 = QueryCache::new();
        let a = check_all_grouped(&p, &queries, &groups, &fresh, &mut c1);
        let b = check_all_grouped(&p, &queries, &groups, &incr, &mut c2);
        let va: Vec<SmtResult> = a.outcomes.iter().map(|o| o.result).collect();
        let vb: Vec<SmtResult> = b.outcomes.iter().map(|o| o.result).collect();
        assert_eq!(va, vb);
        // Prefilter accounting is strategy-invariant.
        let pa: Vec<bool> = a.outcomes.iter().map(|o| o.stats.prefiltered).collect();
        let pb: Vec<bool> = b.outcomes.iter().map(|o| o.stats.prefiltered).collect();
        assert_eq!(pa, pb);
        assert_eq!(a.families, 0);
        assert_eq!(b.families, 4);
    }

    #[test]
    fn grouped_parallel_output_is_byte_identical_to_sequential() {
        let mut p = TermPool::new();
        let mut queries = Vec::new();
        let mut groups = Vec::new();
        for src in 0..6u64 {
            let base = p.order_lt(src as u32 * 10, src as u32 * 10 + 1);
            for k in 0..3u32 {
                let d = p.order_lt(k, k + 1);
                let q = p.and([base, d]);
                queries.push(q);
                groups.push(src);
            }
        }
        let mk = |threads: usize| {
            let opts = SolverOptions {
                num_threads: threads,
                strategy: SolverStrategy::Incremental,
                ..SolverOptions::default()
            };
            let mut cache = QueryCache::new();
            let out = check_all_grouped(&p, &queries, &groups, &opts, &mut cache);
            out.outcomes
                .iter()
                .map(|o| {
                    (
                        o.result,
                        o.stats,
                        o.memo_hit,
                        o.core_subsumed,
                        o.incremental,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(1), mk(4));
    }

    /// Query set with enough families to span several cache epochs, mixing sat members, an unsat order cycle per third
    /// family, and duplicate members for the memo.
    fn epoch_scale_queries(p: &mut TermPool) -> (Vec<TermId>, Vec<u64>) {
        let mut queries = Vec::new();
        let mut groups = Vec::new();
        for src in 0..40u64 {
            let base = p.order_lt(src as u32 * 10, src as u32 * 10 + 1);
            for k in 0..3u32 {
                let d = p.order_lt(k, k + 1);
                let q = if src % 3 == 0 && k == 2 {
                    let c1 = p.order_lt(500, 501);
                    let c2 = p.order_lt(501, 500);
                    p.and([base, d, c1, c2])
                } else {
                    p.and([base, d])
                };
                queries.push(q);
                groups.push(src);
            }
        }
        (queries, groups)
    }

    #[test]
    fn epoch_outcomes_byte_identical_across_thread_counts() {
        let mut p = TermPool::new();
        let (queries, groups) = epoch_scale_queries(&mut p);
        let mk = |threads: usize| {
            let opts = SolverOptions {
                num_threads: threads,
                strategy: SolverStrategy::Incremental,
                ..SolverOptions::default()
            };
            let mut cache = QueryCache::new();
            let out = check_all_grouped(&p, &queries, &groups, &opts, &mut cache);
            out.outcomes
                .iter()
                .map(|o| {
                    (
                        o.result,
                        o.stats,
                        o.memo_hit,
                        o.core_subsumed,
                        o.incremental,
                    )
                })
                .collect::<Vec<_>>()
        };
        let one = mk(1);
        assert_eq!(one, mk(2));
        assert_eq!(one, mk(4));
        assert_eq!(one, mk(7));
    }
}
