//! Bounded exhaustive interleaving enumeration.
//!
//! For small programs the oracle can do better than replaying one
//! schedule: it can walk *every* interleaving of the chosen memory
//! model under *every* branch valuation and collect the full set of
//! concretely reachable bugs. A completed exploration certifies
//! refutations — if the Fig. 2 pattern never fires in any interleaving,
//! Canary dismissing it is not a lucky guess but ground truth — and
//! gives the differential harness its bounded-soundness side: every
//! enumerated hit must appear among the static reports.
//!
//! The walk is a plain DFS over machine states (a "bounded product
//! walk"): at each state either some branch atom is still open — then
//! the state splits into the two valuations — or every ready thread is
//! a scheduling choice. Under TSO/PSO ([`explore_under`]) each legal
//! store-buffer drain is an additional scheduling choice, so delayed
//! visibility is enumerated exhaustively alongside statement steps.
//! States are memoized by exact machine + valuation equality — the
//! machine state includes buffer contents, so two interleavings
//! converge only when their pending stores agree too. Bounded programs
//! are acyclic, so the state graph is finite and the DFS terminates.

use std::collections::BTreeSet;

use canary_detect::{BugKind, MemoryModel};
use canary_ir::{Label, Program};
use rustc_hash::FxHashSet;

use crate::machine::{Machine, Poll, Valuation};

/// Caps on the exploration.
#[derive(Copy, Clone, Debug)]
pub struct EnumLimits {
    /// Maximum distinct states to visit before giving up.
    pub max_states: usize,
}

impl Default for EnumLimits {
    fn default() -> Self {
        EnumLimits {
            max_states: 1 << 20,
        }
    }
}

/// The result of an exploration.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// Every `(kind, source, sink)` triple that fired in some explored
    /// interleaving. Double-free pairs are normalized `source < sink`.
    pub hits: BTreeSet<(BugKind, Label, Label)>,
    /// `true` when the walk exhausted the state space — only then do
    /// absent triples certify refutations.
    pub complete: bool,
    /// Distinct states visited.
    pub states: usize,
}

impl Exploration {
    /// Whether the exploration proved `(kind, source, sink)` cannot
    /// fire in any interleaving within the bound.
    pub fn refutes(&self, kind: BugKind, source: Label, sink: Label) -> bool {
        self.complete && !self.hits.contains(&(kind, source, sink))
    }
}

/// Explores all sequentially consistent interleavings and branch
/// valuations of `prog` up to `limits`.
pub fn explore(prog: &Program, limits: EnumLimits) -> Exploration {
    explore_under(prog, MemoryModel::Sc, limits)
}

/// [`explore`] under an explicit memory model: under TSO/PSO every
/// legal store-buffer drain is interleaved as its own scheduler event.
pub fn explore_under(prog: &Program, model: MemoryModel, limits: EnumLimits) -> Exploration {
    let mut hits = BTreeSet::new();
    let mut visited: FxHashSet<(Machine, Valuation)> = FxHashSet::default();
    let mut stack: Vec<(Machine, Valuation)> =
        vec![(Machine::boot_under(prog, model), Valuation::new())];
    let mut complete = true;
    'dfs: while let Some((mut m, val)) = stack.pop() {
        if visited.len() >= limits.max_states {
            complete = false;
            break;
        }
        // Normalize every thread first: splitting on an open branch
        // atom commutes with scheduling (the valuation is global and
        // immutable within one execution), so it is sound to decide it
        // before picking a thread.
        let mut ready: Vec<usize> = Vec::new();
        for t in 0..m.threads.len() {
            match m.poll(prog, &val, t) {
                Poll::NeedsCond(c) => {
                    for v in [false, true] {
                        let mut val2 = val.clone();
                        val2.insert(c, v);
                        stack.push((m.clone(), val2));
                    }
                    continue 'dfs;
                }
                Poll::ReadyAt(_) => ready.push(t),
                Poll::Blocked(_) | Poll::NeedsFlush | Poll::Done => {}
            }
        }
        if !visited.insert((m.clone(), val.clone())) {
            continue;
        }
        // Pending-store drains are scheduler events of their own: a
        // buffer may flush at any point, including while its thread is
        // blocked (hardware drains regardless of pipeline stalls).
        let flushes: Vec<(usize, usize)> = (0..m.threads.len())
            .flat_map(|t| m.flush_choices(t).into_iter().map(move |i| (t, i)))
            .collect();
        // No statement step and nothing to drain: terminated or
        // deadlocked — either way a leaf. A deadlock leaf with a lock
        // waits-for cycle is a concrete conflict-lock hit, keyed by the
        // extreme blocked acquisition labels (the detector's reporting
        // convention).
        if ready.is_empty() && flushes.is_empty() && !m.all_done() {
            for cycle in m.lock_cycles(prog, &val) {
                if let (Some(&lo), Some(&hi)) = (cycle.first(), cycle.last()) {
                    hits.insert((BugKind::ConflictLock, lo, hi));
                }
            }
        }
        for t in ready {
            let mut child = m.clone();
            if let Some(h) = child.step(prog, t) {
                hits.insert((h.kind, h.source, h.sink));
            }
            stack.push((child, val.clone()));
        }
        for (t, idx) in flushes {
            let mut child = m.clone();
            child.flush(t, idx);
            stack.push((child, val.clone()));
        }
    }
    Exploration {
        hits,
        complete,
        states: visited.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_ir::parse;

    fn explored(src: &str) -> Exploration {
        let prog = parse(src).unwrap();
        prog.validate().unwrap();
        let e = explore(&prog, EnumLimits::default());
        assert!(e.complete, "exploration should finish on tiny programs");
        e
    }

    #[test]
    fn racy_uaf_is_found_and_ordered_is_not() {
        // No join: the free races with the child's use.
        let racy = explored(
            "fn main() { p = alloc o; fork t w(p); free p; }
             fn w(q) { use q; }",
        );
        assert!(racy
            .hits
            .iter()
            .any(|&(k, _, _)| k == BugKind::UseAfterFree));
        // Join before the free: no interleaving reaches the bug.
        let ordered = explored(
            "fn main() { p = alloc o; fork t w(p); join t; free p; }
             fn w(q) { use q; }",
        );
        assert!(ordered.hits.is_empty(), "{:?}", ordered.hits);
    }

    #[test]
    fn branch_valuations_are_both_explored() {
        // The free happens only under c; the use only under !c. No
        // single execution takes both arms, so no double-free; but the
        // UAF in the c-arm (free then use of same pointer later) also
        // cannot happen. Check the guarded free alone fires nothing.
        let e = explored("fn main() { p = alloc o; if (c) { free p; } use p; }");
        // In the c=true world this IS a sequential UAF; enumeration
        // must find it, and only it.
        assert_eq!(e.hits.len(), 1);
        let (k, _, _) = *e.hits.iter().next().unwrap();
        assert_eq!(k, BugKind::UseAfterFree);
    }

    #[test]
    fn lock_discipline_allows_both_orders() {
        // Both threads deref under a common lock; no bug either way.
        let e = explored(
            "fn main() { m = alloc mu; p = alloc o; fork t w(p, m);
                         lock m; use p; unlock m; join t; free p; }
             fn w(q, n) { lock n; use q; unlock n; }",
        );
        assert!(e.hits.is_empty(), "{:?}", e.hits);
    }

    /// Dekker/store-buffering: each thread nulls one flag then reads
    /// the other. Under SC at least one read observes a null, so at
    /// most one `free` acts and no double-free is possible; once either
    /// store may be delayed past the sibling load (TSO and PSO), both
    /// reads can see the initial pointer and both frees act.
    const SB: &str = "fn main() { x = alloc ox; y = alloc oy; p = alloc op;
                                  *x = p; *y = p;
                                  fork a ta(x, y); fork b tb(y, x); }
                      fn ta(xa, ya) { na = null; *xa = na; r = *ya; free r; }
                      fn tb(yb, xb) { nb = null; *yb = nb; s = *xb; free s; }";

    /// Message passing: the writer retires a pointer, installs a fresh
    /// one (W1), then publishes the mailbox (W2). Reading the mailbox
    /// must then find the fresh pointer unless W2 became visible before
    /// W1 — which only PSO's per-location drain order allows.
    const MP: &str = "fn main() { b = alloc ob; s = alloc os; e = alloc oe;
                                  *b = e;
                                  fork w tw(b, s, e); fork r tr(s); }
                      fn tw(bw, sw, ew) { free ew; g = alloc og; *bw = g; *sw = bw; }
                      fn tr(sr) { q = *sr; p = *q; use p; }";

    /// Load buffering: observing the freed pointer at `use a` would
    /// need thread a's *load* to see a value forwarded from its own
    /// later store — a load→store reordering no store buffer produces.
    const LB: &str = "fn main() { x = alloc ox; y = alloc oy; e = alloc oe;
                                  free e;
                                  fork a la(x, y, e); fork b lb(x, y); }
                      fn la(xa, ya, ea) { a = *ya; *xa = ea; use a; }
                      fn lb(xb, yb) { bb = *xb; *yb = bb; }";

    fn explored_under(src: &str, model: MemoryModel) -> Exploration {
        let prog = parse(src).unwrap();
        prog.validate().unwrap();
        let e = explore_under(&prog, model, EnumLimits::default());
        assert!(e.complete, "exploration should finish on litmus programs");
        e
    }

    fn has_kind(e: &Exploration, kind: BugKind) -> bool {
        e.hits.iter().any(|&(k, _, _)| k == kind)
    }

    #[test]
    fn store_buffering_double_free_needs_a_weak_model() {
        let sc = explored_under(SB, MemoryModel::Sc);
        assert!(!has_kind(&sc, BugKind::DoubleFree), "{:?}", sc.hits);
        let tso = explored_under(SB, MemoryModel::Tso);
        assert!(has_kind(&tso, BugKind::DoubleFree), "{:?}", tso.hits);
        let pso = explored_under(SB, MemoryModel::Pso);
        assert!(has_kind(&pso, BugKind::DoubleFree), "{:?}", pso.hits);
    }

    #[test]
    fn message_passing_uaf_needs_pso() {
        let sc = explored_under(MP, MemoryModel::Sc);
        assert!(sc.hits.is_empty(), "{:?}", sc.hits);
        // TSO drains FIFO: the mailbox publish cannot pass the install.
        let tso = explored_under(MP, MemoryModel::Tso);
        assert!(tso.hits.is_empty(), "{:?}", tso.hits);
        let pso = explored_under(MP, MemoryModel::Pso);
        assert!(has_kind(&pso, BugKind::UseAfterFree), "{:?}", pso.hits);
    }

    #[test]
    fn load_buffering_is_unreachable_under_every_model() {
        for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
            let e = explored_under(LB, model);
            assert!(e.hits.is_empty(), "{model:?}: {:?}", e.hits);
        }
    }

    #[test]
    fn store_forwarding_keeps_single_threaded_runs_sc_equivalent() {
        // The thread's own load snoops its buffer, so a buffered null
        // is observed even before any flush.
        let src = "fn main() { c = alloc o; n = null; *c = n; r = *c; use r; }";
        for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
            let e = explored_under(src, model);
            assert!(has_kind(&e, BugKind::NullDeref), "{model:?}: {:?}", e.hits);
        }
    }

    #[test]
    fn refutes_requires_completeness() {
        let prog = parse("fn main() { p = alloc o; free p; use p; }").unwrap();
        let full = explore(&prog, EnumLimits::default());
        assert!(full.complete);
        assert!(!full.refutes(
            BugKind::UseAfterFree,
            prog.free_sites()[0],
            prog.deref_sites()[0]
        ));
        let truncated = explore(&prog, EnumLimits { max_states: 1 });
        assert!(!truncated.complete);
        assert!(!truncated.refutes(
            BugKind::UseAfterFree,
            prog.free_sites()[0],
            prog.deref_sites()[0]
        ));
    }
}
