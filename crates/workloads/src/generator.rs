//! The deterministic synthetic-project generator.
//!
//! Each workload is a bounded concurrent program with:
//!
//! * a `main` thread allocating shared cells, forking workers, joining
//!   some of them — the fork/join skeleton Alg. 2 and the MHP analysis
//!   feed on;
//! * worker threads mixing private heap traffic, branch-guarded shared
//!   loads/stores, and calls into a helper library (exercising Alg. 1's
//!   summaries);
//! * statement *filler* (copies, binops, private cells, branches) that
//!   scales the program to the target size without touching the seeded
//!   patterns — filler never calls `free`, so ground truth stays exact;
//! * seeded patterns on dedicated cells:
//!   1. **true bugs** — a racy inter-thread use-after-free (the free
//!      and the dereference may interleave);
//!   2. **benign patterns** — the same race "protected" by two branch
//!      conditions that are correlated in the imagined real program but
//!      appear as independent atoms to any static tool; every
//!      value-flow checker (Canary included) reports these, which is
//!      precisely the paper's residual false-positive class;
//!   3. **contradiction patterns** — the Fig. 2 shape (`θ` vs `¬θ`):
//!      reported by path-insensitive tools, refuted by Canary;
//!      alternated with join-ordered frees that only order-aware tools
//!      can dismiss.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use canary_detect::{BugKind, MemoryModel};
use canary_ir::{CondExpr, FuncBody, FuncId, Label, Program, ProgramBuilder, VarId};

use crate::spec::WorkloadSpec;

/// One seeded bug together with a concrete schedule that makes it fire
/// in the oracle interpreter. The schedule lists the pattern's own
/// events in a bug-exhibiting order; everything else in the program is
/// unconstrained (the replayer free-runs it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeededBug {
    /// The checker the bug belongs to.
    pub kind: BugKind,
    /// Source label: the free (first free for double-free), the null
    /// assignment, or the taint source.
    pub source: Label,
    /// Sink label: the dereference, second free, or taint sink.
    pub sink: Label,
    /// Replayable witness schedule for `canary_oracle::replay` (under
    /// a weak model, store slots name flush points — see
    /// `canary_oracle::replay_under`).
    pub schedule: Vec<Label>,
    /// The memory models the bug is concretely reachable under. Most
    /// seeds list all three (an SC execution is also a TSO and a PSO
    /// execution); the weak-memory litmus seeds list only the models
    /// whose store buffers realize them.
    pub models: Vec<MemoryModel>,
}

impl SeededBug {
    /// Whether the bug is concretely reachable under `model`.
    pub fn visible_under(&self, model: MemoryModel) -> bool {
        self.models.contains(&model)
    }
}

/// All three supported memory models — the visibility set of an
/// ordinary (SC-reachable) seeded bug.
fn all_models() -> Vec<MemoryModel> {
    vec![MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso]
}

/// Ground truth for one generated workload.
#[derive(Clone, Debug, Default)]
pub struct GroundTruth {
    /// Seeded real inter-thread UAFs as (free, deref) label pairs.
    pub uaf_bugs: Vec<(Label, Label)>,
    /// Seeded benign patterns as (free, deref) label pairs — reports
    /// matching these are false positives.
    pub benign: Vec<(Label, Label)>,
    /// Number of contradiction/ordered patterns seeded (baseline-only
    /// false positives; no label pair is a real bug).
    pub infeasible_patterns: usize,
    /// Every seeded real bug — the UAFs of `uaf_bugs` plus the
    /// double-free / null-deref / leak / double-lock / conflict-lock
    /// patterns — with an oracle schedule certifying it is concretely
    /// reachable.
    pub seeded: Vec<SeededBug>,
}

/// A generated workload.
#[derive(Debug)]
pub struct Workload {
    /// The bounded concurrent program.
    pub prog: Program,
    /// What was seeded where.
    pub truth: GroundTruth,
}

/// Precision outcome of matching a tool's reports against ground truth.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Eval {
    /// Reports matching a seeded real bug.
    pub true_positives: usize,
    /// Reports matching nothing real (benign patterns, contradiction
    /// patterns or filler noise).
    pub false_positives: usize,
    /// Seeded real bugs no report matched.
    pub missed: usize,
}

impl Eval {
    /// False-positive rate in percent (0 when no reports).
    pub fn fp_rate(&self) -> f64 {
        let total = self.true_positives + self.false_positives;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.false_positives as f64 / total as f64 * 100.0
            }
        }
    }
}

/// Scores (source, sink) report pairs against the truth.
pub fn evaluate(truth: &GroundTruth, reports: &[(Label, Label)]) -> Eval {
    let mut seen_bugs = vec![false; truth.uaf_bugs.len()];
    let mut eval = Eval::default();
    for &(src, sink) in reports {
        if let Some(i) = truth
            .uaf_bugs
            .iter()
            .position(|&(f, d)| f == src && d == sink)
        {
            if !seen_bugs[i] {
                seen_bugs[i] = true;
                eval.true_positives += 1;
            }
        } else {
            eval.false_positives += 1;
        }
    }
    eval.missed = seen_bugs.iter().filter(|&&b| !b).count();
    eval
}

/// Generates a workload from a spec. Deterministic in the seed.
pub fn generate(spec: &WorkloadSpec) -> Workload {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut b = ProgramBuilder::new();
    let mut truth = GroundTruth::default();

    // --- declare functions up front so names resolve ----------------
    let main = b.func("main", &[]);
    let workers: Vec<FuncId> = if spec.filler {
        (0..spec.threads)
            .map(|i| b.func(&format!("worker_{i}"), &["ca", "cb"]))
            .collect()
    } else {
        Vec::new()
    };
    let pick: Option<FuncId> = if spec.filler {
        Some(b.func("pick", &["pa", "pb"]))
    } else {
        None
    };
    let n_helpers = 2 + spec.threads;
    let helpers: Vec<FuncId> = if spec.filler {
        (0..n_helpers)
            .map(|i| b.func(&format!("helper_{i}"), &["p"]))
            .collect()
    } else {
        Vec::new()
    };
    let victims: Vec<FuncId> = (0..spec.true_bugs)
        .map(|i| b.func(&format!("bug_victim_{i}"), &["c"]))
        .collect();
    let benign_victims: Vec<FuncId> = (0..spec.benign_patterns)
        .map(|i| b.func(&format!("benign_victim_{i}"), &["c"]))
        .collect();
    let hard_count = spec.hard_contradictions();
    let hard_users: Vec<FuncId> = (0..hard_count)
        .map(|i| b.func(&format!("hard_user_{i}"), &["c", "cv"]))
        .collect();
    let contra_writers: Vec<FuncId> = (hard_count..spec.contradiction_patterns)
        .map(|i| b.func(&format!("contra_writer_{i}"), &["y"]))
        .collect();
    let handshakers: Vec<FuncId> = (0..spec.handshake_patterns)
        .map(|i| b.func(&format!("hs_user_{i}"), &["c", "cv"]))
        .collect();
    let order_fps: Vec<FuncId> = (0..spec.order_fp_patterns)
        .map(|i| b.func(&format!("ofp_{i}"), &[]))
        .collect();
    let df_victims: Vec<FuncId> = (0..spec.double_free)
        .map(|i| b.func(&format!("df_victim_{i}"), &["c"]))
        .collect();
    let np_victims: Vec<FuncId> = (0..spec.null_deref)
        .map(|i| b.func(&format!("np_victim_{i}"), &["c"]))
        .collect();
    let lk_victims: Vec<FuncId> = (0..spec.leak)
        .map(|i| b.func(&format!("lk_victim_{i}"), &["c"]))
        .collect();
    let cl_partners: Vec<FuncId> = (0..spec.conflict_lock)
        .map(|i| b.func(&format!("cl_partner_{i}"), &["x", "y"]))
        .collect();
    let sb_pairs: Vec<(FuncId, FuncId)> = (0..spec.sb_patterns)
        .map(|i| {
            (
                b.func(&format!("sb_a_{i}"), &["w", "r"]),
                b.func(&format!("sb_b_{i}"), &["w", "r"]),
            )
        })
        .collect();
    let mp_pairs: Vec<(FuncId, FuncId)> = (0..spec.mp_patterns)
        .map(|i| {
            (
                b.func(&format!("mp_w_{i}"), &["b", "s", "e"]),
                b.func(&format!("mp_r_{i}"), &["s"]),
            )
        })
        .collect();
    let lb_pairs: Vec<(FuncId, FuncId)> = (0..spec.lb_patterns)
        .map(|i| {
            (
                b.func(&format!("lb_a_{i}"), &["x", "y", "e"]),
                b.func(&format!("lb_b_{i}"), &["x", "y"]),
            )
        })
        .collect();

    // --- helper library ---------------------------------------------
    for (i, &h) in helpers.iter().enumerate() {
        let mut f = b.body(h);
        let p = f.var("p");
        let local = f.alloc(&format!("hl_{i}"), &format!("hobj_{i}"));
        f.store(p, local);
        let back = f.load(&format!("hr_{i}"), p);
        f.deref(back);
        if i + 1 < n_helpers {
            f.call(&[], &format!("helper_{}", i + 1), &[p]);
        }
        f.ret(&[back]);
    }

    // --- the `pick` conflation helper ---------------------------------
    // Returns one of its two pointer arguments. Context-insensitive
    // analyses merge the returned handle over *all* call sites, so every
    // worker's web cells conflate into one alias class — the cascade
    // that makes exhaustive points-to blow up on large programs.
    // Canary's per-call-site summary substitution keeps them separate.
    if let Some(pick) = pick {
        let mut f = b.body(pick);
        let pa = f.var("pa");
        let pb = f.var("pb");
        let c = f.cond("pick_c");
        f.if_then(CondExpr::atom(c), |f| {
            f.ret(&[pa]);
        });
        f.ret(&[pb]);
    }

    // --- victims -----------------------------------------------------
    let mut uaf_loads: Vec<Label> = Vec::new();
    for (i, &v) in victims.iter().enumerate() {
        let mut f = b.body(v);
        let c = f.var("c");
        let x = f.load(&format!("bx_{i}"), c);
        uaf_loads.push(f.last_label());
        let use_label = f.deref(x);
        truth.uaf_bugs.push((Label::new(0), use_label)); // free patched below
    }
    // Double-free victims: load the published value and free it — the
    // second (racy) free happens in main. (load, victim free) pairs.
    let mut df_partial: Vec<(Label, Label)> = Vec::new();
    for (i, &v) in df_victims.iter().enumerate() {
        let mut f = b.body(v);
        let c = f.var("c");
        let x = f.load(&format!("dfx_{i}"), c);
        let load_l = f.last_label();
        let free_l = f.free(x);
        df_partial.push((load_l, free_l));
    }
    // Null-deref victims: plain readers of a cell main nulls out after
    // forking them. (load, deref) pairs.
    let mut np_partial: Vec<(Label, Label)> = Vec::new();
    for (i, &v) in np_victims.iter().enumerate() {
        let mut f = b.body(v);
        let c = f.var("c");
        let x = f.load(&format!("npx_{i}"), c);
        let load_l = f.last_label();
        let deref_l = f.deref(x);
        np_partial.push((load_l, deref_l));
    }
    // Leak victims: pass the loaded value to a sink. (load, sink) pairs.
    let mut lk_partial: Vec<(Label, Label)> = Vec::new();
    for (i, &v) in lk_victims.iter().enumerate() {
        let mut f = b.body(v);
        let c = f.var("c");
        let x = f.load(&format!("lkx_{i}"), c);
        let load_l = f.last_label();
        let sink_l = f.taint_sink(x);
        lk_partial.push((load_l, sink_l));
    }
    // Conflict-lock partners: acquire the two mutexes in the *opposite*
    // order from main (y before x). (outer, inner) acquisition pairs;
    // partner bodies precede main, so their labels sort first.
    let mut cl_partial: Vec<(Label, Label)> = Vec::new();
    for &v in &cl_partners {
        let mut f = b.body(v);
        let x = f.var("x");
        let y = f.var("y");
        let outer = f.lock(y);
        let inner = f.lock(x);
        f.unlock(x);
        f.unlock(y);
        cl_partial.push((outer, inner));
    }
    // Store-buffering sides: null own flag, read the sibling's, free
    // what was read. (store, load, free) label triples per side.
    let mut sb_partial: Vec<[Label; 6]> = Vec::new();
    for (i, &(va, vb)) in sb_pairs.iter().enumerate() {
        let mut sides = [Label::new(0); 6];
        for (side, &v) in [va, vb].iter().enumerate() {
            let mut f = b.body(v);
            let w = f.var("w");
            let r = f.var("r");
            let n = f.null(&format!("sbn_{i}_{side}"));
            f.store(w, n);
            sides[3 * side] = f.last_label();
            let x = f.load(&format!("sbr_{i}_{side}"), r);
            sides[3 * side + 1] = f.last_label();
            sides[3 * side + 2] = f.free(x);
        }
        sb_partial.push(sides);
    }
    // Message-passing writer/reader: the writer retires the published
    // pointer, installs a replacement (W1), then publishes the mailbox
    // (W2); the reader chases mailbox → cell → use.
    // (free, W1, W2, load-mailbox, load-cell, use) label tuples.
    let mut mp_partial: Vec<[Label; 6]> = Vec::new();
    for (i, &(vw, vr)) in mp_pairs.iter().enumerate() {
        let mut f = b.body(vw);
        let cell = f.var("b");
        let mailbox = f.var("s");
        let doomed = f.var("e");
        let free_l = f.free(doomed);
        let fresh = f.alloc(&format!("mpg_{i}"), &format!("mpg_o_{i}"));
        f.store(cell, fresh);
        let w1 = f.last_label();
        f.store(mailbox, cell);
        let w2 = f.last_label();
        let mut f = b.body(vr);
        let mailbox = f.var("s");
        let q = f.load(&format!("mpq_{i}"), mailbox);
        let lq = f.last_label();
        let p = f.load(&format!("mpp_{i}"), q);
        let lp = f.last_label();
        let use_l = f.deref(p);
        mp_partial.push([free_l, w1, w2, lq, lp, use_l]);
    }
    // Load-buffering sides: read first, then store — the freed pointer
    // could only come back through a load→store reordering, which store
    // buffers never produce. No SeededBug: unreachable everywhere.
    for (i, &(va, vb)) in lb_pairs.iter().enumerate() {
        let mut f = b.body(va);
        let x = f.var("x");
        let y = f.var("y");
        let e = f.var("e");
        let a = f.load(&format!("lba_{i}"), y);
        f.store(x, e);
        f.deref(a);
        let mut f = b.body(vb);
        let x = f.var("x");
        let y = f.var("y");
        let bb = f.load(&format!("lbb_{i}"), x);
        f.store(y, bb);
    }
    for (i, &v) in benign_victims.iter().enumerate() {
        let mut f = b.body(v);
        let c = f.var("c");
        let guard = f.cond(&format!("benign_use_{i}"));
        let mut use_label = None;
        f.if_then(CondExpr::atom(guard), |f| {
            let x = f.load(&format!("nx_{i}"), c);
            use_label = Some(f.deref(x));
        });
        truth
            .benign
            .push((Label::new(0), use_label.expect("branch body ran")));
    }
    // Hard-family users: a fan-out of uses, each one member of the
    // free's query family, followed by a quorum of notify sites. The
    // free in `main` only runs after two waits on `cv`, and every
    // notify postdates every use, so each member is infeasible — but
    // the refutation lives in the order theory (wait-requires-notify
    // disjunctions), out of the prefilter's reach: the solver must
    // fail every notify disjunct of every wait before concluding
    // Unsat. Work per member scales with the notify quorum, making
    // these the §5.2 hard-query class.
    let fanout = spec.family_readers();
    for (i, &h) in hard_users.iter().enumerate() {
        let mut f = b.body(h);
        let c = f.var("c");
        let cv = f.var("cv");
        for r in 0..fanout {
            let x = f.load(&format!("hfx_{i}_{r}"), c);
            f.deref(x);
        }
        for _ in 0..fanout.max(2) {
            f.notify(cv);
        }
        truth.infeasible_patterns += 1;
    }
    for (i, &w) in (hard_count..).zip(contra_writers.iter()) {
        let mut f = b.body(w);
        let y = f.var("y");
        let theta = f.cond(&format!("theta_{i}"));
        if i % 2 == 0 {
            // Fig. 2 shape: store+free under ¬θ, read under θ (in main).
            f.if_then(CondExpr::not_atom(theta), |f| {
                let bv = f.alloc(&format!("cb_{i}"), &format!("cobj_{i}"));
                f.store(y, bv);
                f.free(bv);
            });
        } else {
            // Join-ordered shape: the writer only *uses* the initial
            // value; main frees it after joining, so the use always
            // precedes the free.
            let x = f.load(&format!("cx_{i}"), y);
            f.deref(x);
        }
        truth.infeasible_patterns += 1;
    }

    // --- same-thread use-before-free bodies ----------------------------
    for (i, &o) in order_fps.iter().enumerate() {
        let mut f = b.body(o);
        let cell = f.alloc(&format!("ocell_{i}"), &format!("ocell_o_{i}"));
        let early = f.alloc(&format!("oinit_{i}"), &format!("oval_{i}"));
        f.store(cell, early);
        let x = f.load(&format!("ox_{i}"), cell);
        f.deref(x);
        let doomed = f.alloc(&format!("odoom_{i}"), &format!("odobj_{i}"));
        f.store(cell, doomed);
        f.free(doomed);
        f.ret(&[]);
    }

    // --- handshake users: use the value, then signal completion --------
    for (i, &h) in handshakers.iter().enumerate() {
        let mut f = b.body(h);
        let c = f.var("c");
        let cv = f.var("cv");
        let x = f.load(&format!("hx_{i}"), c);
        f.deref(x);
        f.notify(cv);
    }

    // --- main's filler chunks -----------------------------------------
    const MAIN_CHUNK: usize = 96;
    let main_budget = spec.target_stmts / (spec.threads + 1);
    let n_main_chunks = if spec.filler {
        (main_budget / MAIN_CHUNK).max(1)
    } else {
        0
    };
    let main_chunks: Vec<FuncId> = (0..n_main_chunks)
        .map(|k| b.func(&format!("m_chunk_{k}"), &[]))
        .collect();
    for (k, &cf) in main_chunks.iter().enumerate() {
        let mut f = b.body(cf);
        emit_alias_web(&mut f, 9_000_000 + k, MAIN_CHUNK / 2);
        emit_filler(&mut f, &mut rng, &format!("m{k}"), MAIN_CHUNK / 2);
        f.ret(&[]);
    }

    // --- main --------------------------------------------------------
    let mut f = b.body(main);
    // Shared cells + initial values.
    let cells: Vec<VarId> = (0..spec.shared_cells)
        .map(|i| f.alloc(&format!("cell_{i}"), &format!("shared_{i}")))
        .collect();
    for (i, &c) in cells.iter().enumerate() {
        let v = f.alloc(&format!("init_{i}"), &format!("val_{i}"));
        f.store(c, v);
    }
    // Seeded true bugs: dedicated cells, racy free in main.
    let mut pending_frees: Vec<(usize, VarId)> = Vec::new();
    for i in 0..spec.true_bugs {
        let cell = f.alloc(&format!("bugcell_{i}"), &format!("bugcell_o_{i}"));
        let val = f.alloc(&format!("bugval_{i}"), &format!("bugobj_{i}"));
        f.store(cell, val);
        f.fork(&format!("bt_{i}"), &format!("bug_victim_{i}"), &[cell]);
        pending_frees.push((i, val));
    }
    for (i, val) in pending_frees {
        let free_label = f.free(val);
        truth.uaf_bugs[i].0 = free_label;
        truth.seeded.push(SeededBug {
            kind: BugKind::UseAfterFree,
            source: free_label,
            sink: truth.uaf_bugs[i].1,
            schedule: vec![uaf_loads[i], free_label, truth.uaf_bugs[i].1],
            models: all_models(),
        });
    }
    // Racy double frees: the victim's free and main's free of the same
    // value are unordered. Victim bodies precede main, so the pair is
    // already normalized source < sink.
    for (i, &(load_l, victim_free)) in df_partial.iter().enumerate() {
        let cell = f.alloc(&format!("dfcell_{i}"), &format!("dfcell_o_{i}"));
        let val = f.alloc(&format!("dfval_{i}"), &format!("dfobj_{i}"));
        f.store(cell, val);
        f.fork(&format!("dft_{i}"), &format!("df_victim_{i}"), &[cell]);
        let main_free = f.free(val);
        truth.seeded.push(SeededBug {
            kind: BugKind::DoubleFree,
            source: victim_free,
            sink: main_free,
            schedule: vec![load_l, victim_free, main_free],
            models: all_models(),
        });
    }
    // Null publications racing a forked reader.
    for (i, &(load_l, deref_l)) in np_partial.iter().enumerate() {
        let cell = f.alloc(&format!("npcell_{i}"), &format!("npcell_o_{i}"));
        let val = f.alloc(&format!("npinit_{i}"), &format!("npval_{i}"));
        f.store(cell, val);
        f.fork(&format!("npt_{i}"), &format!("np_victim_{i}"), &[cell]);
        let n = f.null(&format!("npnull_{i}"));
        let null_l = f.last_label();
        f.store(cell, n);
        let store_l = f.last_label();
        truth.seeded.push(SeededBug {
            kind: BugKind::NullDeref,
            source: null_l,
            sink: deref_l,
            schedule: vec![null_l, store_l, load_l, deref_l],
            models: all_models(),
        });
    }
    // Taint published into a cell a forked reader sinks from.
    for (i, &(load_l, sink_l)) in lk_partial.iter().enumerate() {
        let cell = f.alloc(&format!("lkcell_{i}"), &format!("lkcell_o_{i}"));
        let s = f.taint_source(&format!("lksrc_{i}"));
        let taint_l = f.last_label();
        f.store(cell, s);
        let store_l = f.last_label();
        f.fork(&format!("lkt_{i}"), &format!("lk_victim_{i}"), &[cell]);
        truth.seeded.push(SeededBug {
            kind: BugKind::DataLeak,
            source: taint_l,
            sink: sink_l,
            schedule: vec![taint_l, store_l, load_l, sink_l],
            models: all_models(),
        });
    }
    // Same-thread double-locks: main re-acquires a mutex it still
    // holds. The oracle reports the re-acquisition and continues, so
    // the rest of the program is unaffected.
    for i in 0..spec.double_lock {
        let mu = f.alloc(&format!("dlmu_{i}"), &format!("dlmu_o_{i}"));
        let first = f.lock(mu);
        let second = f.lock(mu);
        f.unlock(mu);
        truth.seeded.push(SeededBug {
            kind: BugKind::DoubleLock,
            source: first,
            sink: second,
            schedule: vec![first, second],
            models: all_models(),
        });
    }
    // Conflicting acquisition orders: main takes a then b while the
    // forked partner takes b then a. Replaying outer-outer-inner-inner
    // drives both threads into the blocked cycle; the (source, sink)
    // pair is the sorted pair of inner (blocking) acquisitions.
    for (i, &(p_outer, p_inner)) in cl_partial.iter().enumerate() {
        let ma = f.alloc(&format!("clma_{i}"), &format!("clma_o_{i}"));
        let mb = f.alloc(&format!("clmb_{i}"), &format!("clmb_o_{i}"));
        f.fork(&format!("clt_{i}"), &format!("cl_partner_{i}"), &[ma, mb]);
        let m_outer = f.lock(ma);
        let m_inner = f.lock(mb);
        f.unlock(mb);
        f.unlock(ma);
        let source = p_inner.min(m_inner);
        let sink = p_inner.max(m_inner);
        truth.seeded.push(SeededBug {
            kind: BugKind::ConflictLock,
            source,
            sink,
            schedule: vec![p_outer.min(m_outer), p_outer.max(m_outer), source, sink],
            models: all_models(),
        });
    }
    // Store-buffering litmus: both flags start at the victim pointer;
    // each side nulls one flag then reads the other. Both frees act —
    // a double-free — only when both stores are still buffered as the
    // sibling loads run, so the ground-truth schedule places the store
    // slots (= flush points under a weak replay) after both loads.
    for (i, &[store_a, load_a, free_a, store_b, load_b, free_b]) in sb_partial.iter().enumerate() {
        let flag_x = f.alloc(&format!("sbx_{i}"), &format!("sbx_o_{i}"));
        let flag_y = f.alloc(&format!("sby_{i}"), &format!("sby_o_{i}"));
        let victim = f.alloc(&format!("sbp_{i}"), &format!("sbp_o_{i}"));
        f.store(flag_x, victim);
        f.store(flag_y, victim);
        f.fork(
            &format!("sbta_{i}"),
            &format!("sb_a_{i}"),
            &[flag_x, flag_y],
        );
        f.fork(
            &format!("sbtb_{i}"),
            &format!("sb_b_{i}"),
            &[flag_y, flag_x],
        );
        truth.seeded.push(SeededBug {
            kind: BugKind::DoubleFree,
            source: free_a.min(free_b),
            sink: free_a.max(free_b),
            schedule: vec![load_a, load_b, store_a, store_b],
            models: vec![MemoryModel::Tso, MemoryModel::Pso],
        });
    }
    // Message-passing litmus: the use-after-free needs the mailbox
    // publish (W2) visible before the reader's loads while the install
    // (W1) is still buffered — PSO's per-location drain order only.
    for (i, &[free_l, w1, w2, lq, lp, use_l]) in mp_partial.iter().enumerate() {
        let cell = f.alloc(&format!("mpb_{i}"), &format!("mpb_o_{i}"));
        let mailbox = f.alloc(&format!("mps_{i}"), &format!("mps_o_{i}"));
        let doomed = f.alloc(&format!("mpe_{i}"), &format!("mpe_o_{i}"));
        f.store(cell, doomed);
        f.fork(
            &format!("mptw_{i}"),
            &format!("mp_w_{i}"),
            &[cell, mailbox, doomed],
        );
        f.fork(&format!("mptr_{i}"), &format!("mp_r_{i}"), &[mailbox]);
        truth.seeded.push(SeededBug {
            kind: BugKind::UseAfterFree,
            source: free_l,
            sink: use_l,
            schedule: vec![w2, lq, lp, w1],
            models: vec![MemoryModel::Pso],
        });
    }
    // Load-buffering negative controls: free the bait up front, then
    // let the two threads race. The bait can only reach the deref via
    // a load→store reordering, so no interleaving of any supported
    // model fires it — one more infeasible pattern for the detector
    // and the enumerator to agree on.
    for i in 0..spec.lb_patterns {
        let lx = f.alloc(&format!("lbx_{i}"), &format!("lbx_o_{i}"));
        let ly = f.alloc(&format!("lby_{i}"), &format!("lby_o_{i}"));
        let bait = f.alloc(&format!("lbe_{i}"), &format!("lbe_o_{i}"));
        f.free(bait);
        f.fork(&format!("lbta_{i}"), &format!("lb_a_{i}"), &[lx, ly, bait]);
        f.fork(&format!("lbtb_{i}"), &format!("lb_b_{i}"), &[lx, ly]);
        truth.infeasible_patterns += 1;
    }
    // Benign patterns: the free is guarded by an *independent* atom.
    for i in 0..spec.benign_patterns {
        let cell = f.alloc(&format!("bncell_{i}"), &format!("bncell_o_{i}"));
        let val = f.alloc(&format!("bnval_{i}"), &format!("bnobj_{i}"));
        f.store(cell, val);
        f.fork(&format!("nt_{i}"), &format!("benign_victim_{i}"), &[cell]);
        let guard = f.cond(&format!("benign_free_{i}"));
        let mut free_label = None;
        f.if_then(CondExpr::atom(guard), |f| {
            free_label = Some(f.free(val));
        });
        truth.benign[i].0 = free_label.expect("branch body ran");
    }
    // Contradiction / ordered patterns.
    for i in 0..spec.contradiction_patterns {
        let cell = f.alloc(&format!("ccell_{i}"), &format!("ccell_o_{i}"));
        let init = f.alloc(&format!("cinit_{i}"), &format!("cval_{i}"));
        f.store(cell, init);
        if i < hard_count {
            // Hard family: the user's fan-out uses all precede its
            // notifies, and the free waits for the notify quorum —
            // infeasible only through the wait/notify order theory.
            let cv = f.alloc(&format!("hfcv_{i}"), &format!("hfcv_o_{i}"));
            f.fork(&format!("ct_{i}"), &format!("hard_user_{i}"), &[cell, cv]);
            f.wait(cv);
            f.wait(cv);
            f.free(init);
            continue;
        }
        f.fork(&format!("ct_{i}"), &format!("contra_writer_{i}"), &[cell]);
        let theta = f.cond(&format!("theta_{i}"));
        if i % 2 == 0 {
            // Several readers under θ — each contradicts the writer's
            // ¬θ, so each is one more warning for the unguarded
            // baselines and zero for Canary (the report-volume gap of
            // Tbl. 1 grows with subject size through this knob).
            let readers = spec.family_readers();
            for r in 0..readers {
                f.if_then(CondExpr::atom(theta), |f| {
                    let x = f.load(&format!("cx_{i}_{r}"), cell);
                    f.deref(x);
                });
            }
        } else {
            // Free the initial value only after the reader joined: the
            // use is join-ordered before the free, so only order-aware
            // tools can dismiss the pair.
            f.join(&format!("ct_{i}"));
            f.free(init);
        }
    }
    // Same-thread use-before-free sequences, one per helper function so
    // main's flow state stays small: the load precedes the store of the
    // doomed value, so only a flow-insensitive analysis connects them.
    // Each is one extra Saber warning; Fsam's def-use order filter and
    // Canary's order constraints both dismiss it.
    for (i, _) in order_fps.iter().enumerate() {
        f.call(&[], &format!("ofp_{i}"), &[]);
        truth.infeasible_patterns += 1;
    }

    // Wait/notify handshakes: main frees only after the user signalled.
    for i in 0..spec.handshake_patterns {
        let cell = f.alloc(&format!("hcell_{i}"), &format!("hcell_o_{i}"));
        let hv = f.alloc(&format!("hval_{i}"), &format!("hobj2_{i}"));
        f.store(cell, hv);
        let cv = f.alloc(&format!("hcv_{i}"), &format!("hcv_o_{i}"));
        f.fork(&format!("ht_{i}"), &format!("hs_user_{i}"), &[cell, cv]);
        f.wait(cv);
        f.free(hv);
        truth.infeasible_patterns += 1;
    }

    // Fork the filler workers.
    for (j, _) in workers.iter().enumerate() {
        let ca = cells[j % cells.len()];
        let cb = cells[(j + 1) % cells.len()];
        f.fork(&format!("t_{j}"), &format!("worker_{j}"), &[ca, cb]);
    }
    // Filler in main, via the chunk functions.
    for k in 0..n_main_chunks {
        f.call(&[], &format!("m_chunk_{k}"), &[]);
    }
    // Join half the workers, then read the cells.
    for j in 0..workers.len() / 2 {
        f.join(&format!("t_{j}"));
    }
    for (i, &c) in cells.iter().enumerate() {
        let x = f.load(&format!("post_{i}"), c);
        let _ = x;
    }
    // Release the cursor before opening the worker bodies.
    let _ = f;

    // --- worker bodies -------------------------------------------------
    // Real code bases split work across many small functions; the
    // filler follows suit with ~CHUNK-statement chunk functions. This
    // also keeps per-function flow states small, which is what lets the
    // sparse analysis stay near-linear (Fig. 8).
    const CHUNK: usize = 96;
    let per_worker = spec.target_stmts / (spec.threads + 1);
    for (j, &w) in workers.iter().enumerate() {
        // Declare this worker's chunk functions.
        let n_chunks = (per_worker / CHUNK).max(1);
        let chunk_ids: Vec<FuncId> = (0..n_chunks)
            .map(|k| b.func(&format!("w{j}_chunk_{k}"), &["ca", "cb"]))
            .collect();
        for (k, &cf) in chunk_ids.iter().enumerate() {
            let mut f = b.body(cf);
            let ca = f.var("ca");
            let cb = f.var("cb");
            // Shared traffic under branch conditions — in a fraction of
            // the chunks, as real modules touch shared state from a few
            // sites, not from every function.
            if k % 4 == 0 {
                let cond = f.cond(&format!("w{j}_{k}_c"));
                let mine = f.alloc(&format!("w{j}_{k}_obj"), &format!("wobj_{j}_{k}"));
                f.if_else(
                    CondExpr::atom(cond),
                    |f| {
                        f.store(cb, mine);
                    },
                    |f| {
                        let x = f.load(&format!("w{j}_{k}_in"), ca);
                        let _ = x;
                    },
                );
            } else {
                let _ = (ca, cb);
            }
            emit_alias_web(&mut f, j * 1000 + k, CHUNK / 2);
            emit_filler(&mut f, &mut rng, &format!("w{j}_{k}"), CHUNK / 2);
            f.ret(&[]);
        }
        let mut f = b.body(w);
        let ca = f.var("ca");
        let cb = f.var("cb");
        // A helper call chain, then the chunk sequence.
        f.call(&[], &format!("helper_{}", j % n_helpers), &[ca]);
        for k in 0..n_chunks {
            f.call(&[], &format!("w{j}_chunk_{k}"), &[ca, cb]);
        }
        f.ret(&[]);
    }

    b.set_entry(main);
    let prog = b.finish();
    Workload { prog, truth }
}

/// Emits a thread-private pointer web of roughly `budget` statements:
/// cells seeded with values, then load/store rounds whose *addresses*
/// travel through the shared `pick` helper. Flow- and path-sensitive
/// per-call-site reasoning keeps each worker's web separate; a
/// context-insensitive exhaustive analysis conflates all webs into one
/// alias class, reproducing the §7.1 cost gap. The web never frees, so
/// it cannot perturb ground truth.
fn emit_alias_web(f: &mut FuncBody<'_>, worker: usize, budget: usize) {
    let n_cells = (budget / 24).max(3);
    let cells: Vec<VarId> = (0..n_cells)
        .map(|k| {
            f.alloc(
                &format!("w{worker}_web{k}"),
                &format!("w{worker}_webobj_{k}"),
            )
        })
        .collect();
    for (k, &c) in cells.iter().enumerate() {
        let v = f.alloc(
            &format!("w{worker}_webv{k}"),
            &format!("w{worker}_webval_{k}"),
        );
        f.store(c, v);
    }
    let rounds = budget.saturating_sub(2 * n_cells) / 4;
    for s in 0..rounds {
        let a = cells[s % n_cells];
        let bc = cells[(s * 3 + 1) % n_cells];
        let d = cells[(s * 5 + 2) % n_cells];
        let handle = f.call(&[&format!("w{worker}_h{s}")], "pick", &[a, bc]);
        let t = f.load(&format!("w{worker}_t{s}"), handle[0]);
        f.store(d, t);
    }
}

/// Emits roughly `budget` filler statements into the cursor: private
/// heap cells, copy/binop chains, branch diamonds and bounded loops.
/// Filler never frees and never touches the seeded cells.
fn emit_filler(f: &mut FuncBody<'_>, rng: &mut StdRng, tag: &str, budget: usize) {
    let mut emitted = 0usize;
    let mut chain: Option<VarId> = None;
    let mut idx = 0usize;
    while emitted < budget {
        idx += 1;
        match rng.gen_range(0..10u32) {
            0..=2 => {
                // Private cell round-trip: alloc, store, load.
                let cell = f.alloc(&format!("{tag}_fc{idx}"), &format!("{tag}_fo{idx}"));
                let v = f.alloc(&format!("{tag}_fv{idx}"), &format!("{tag}_fw{idx}"));
                f.store(cell, v);
                let x = f.load(&format!("{tag}_fl{idx}"), cell);
                chain = Some(x);
                emitted += 4;
            }
            3..=5 => {
                // Copy/binop chain.
                let base = match chain {
                    Some(c) => c,
                    None => f.alloc(&format!("{tag}_fb{idx}"), &format!("{tag}_fbo{idx}")),
                };
                let c1 = f.copy(&format!("{tag}_cc{idx}"), base);
                let c2 = f.bin(&format!("{tag}_cb{idx}"), canary_ir::BinOp::Add, c1, base);
                chain = Some(c2);
                emitted += 2;
            }
            6..=7 => {
                // Branch diamond with private work in both arms.
                let c = f.cond(&format!("{tag}_bc{idx}"));
                f.if_else(
                    CondExpr::atom(c),
                    |f| {
                        let v = f.alloc(&format!("{tag}_ba{idx}"), &format!("{tag}_bao{idx}"));
                        f.deref(v);
                    },
                    |f| {
                        f.nop();
                    },
                );
                emitted += 3;
            }
            8 => {
                // A bounded loop (parse-time-unrolled equivalent).
                let c = f.cond(&format!("{tag}_lc{idx}"));
                f.while_unrolled(CondExpr::atom(c), 2, |f| {
                    f.nop();
                });
                emitted += 2;
            }
            _ => {
                f.nop();
                emitted += 1;
            }
        }
    }
}
