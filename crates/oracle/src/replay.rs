//! Schedule replay: executing a static report's witness concretely.
//!
//! A Canary report carries a witness schedule (the SMT model's ordered
//! events, completed with fork/join sites) and the model's branch
//! directions. [`replay`] drives the [`Machine`] so that the scheduled
//! labels execute in exactly the claimed order — every *unscheduled*
//! statement runs as early as possible, every scheduled one waits for
//! its turn — and checks that the claimed source/sink pair concretely
//! fires. This is the executable reading of Defn. 2: the schedule is
//! one sequentially consistent interleaving, and replay confirms the
//! value flow is realized by it, not merely consistent with it.
//!
//! Under TSO/PSO ([`replay_under`]) a schedule slot for a `store` names
//! its *flush* point, not its execution: the SMT model's order atoms
//! may place a relaxed store after a later load of its own thread, and
//! the store-buffer machine realizes exactly that by executing the
//! store early (into the buffer) and steering the drain to the store's
//! slot. Unscheduled statements and drains still run freely, so the
//! weak replay is a bounded search over the free choices with the
//! scheduled events as barriers — deterministic, memoized, and bounded
//! by the same step budget as the SC loop.

use std::collections::{BTreeSet, HashSet};

use canary_detect::{BugKind, BugReport, MemoryModel};
use canary_ir::{block_reaches, CondExpr, Inst, Label, Program, StepPoint, Terminator};

use crate::machine::{is_fence, Hit, Machine, Poll, ThreadState, Valuation};

/// Safety cap on interpreter steps (bounded programs terminate, but a
/// malformed schedule could otherwise spin on barred threads).
const STEP_BUDGET: usize = 1_000_000;

/// The outcome of replaying one witness.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReplayResult {
    /// The claimed bug fired at the claimed source/sink pair.
    Confirmed {
        /// Labeled instructions executed before the bug fired.
        steps: usize,
    },
    /// The replay did not confirm the claim.
    Failed(ReplayFailure),
}

impl ReplayResult {
    /// Whether the replay confirmed the claim.
    pub fn confirmed(&self) -> bool {
        matches!(self, ReplayResult::Confirmed { .. })
    }
}

/// Why a replay failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReplayFailure {
    /// No thread can move: a scheduled label is unreachable, or the
    /// schedule orders events against a join/lock/wait dependency.
    Deadlock {
        /// The next unconsumed schedule entry, if any.
        waiting_for: Option<Label>,
    },
    /// Execution ran to completion without the claimed bug firing.
    NoBug {
        /// The bugs that *did* fire, if any.
        observed: Vec<Hit>,
    },
    /// The step budget was exhausted.
    Budget,
}

/// Replays `schedule` under the branch directions in `guards` and
/// reports whether a `kind` bug at `(source, sink)` concretely fires.
///
/// Scheduled labels execute in the given order; unscheduled statements
/// run eagerly (lowest thread index first) between them. Branch atoms
/// not covered by `guards` are steered toward the owning thread's next
/// scheduled label when exactly one arm reaches it, else default to
/// the else-arm.
pub fn replay(
    prog: &Program,
    kind: BugKind,
    source: Label,
    sink: Label,
    schedule: &[Label],
    guards: &[(canary_ir::CondId, bool)],
) -> ReplayResult {
    let mut m = Machine::boot(prog);
    let mut valuation: Valuation = guards.iter().copied().collect();
    let mut next = 0usize;
    let mut observed: Vec<Hit> = Vec::new();
    let mut steps = 0usize;
    let matched = |h: &Hit| {
        h.kind == kind
            && ((h.source, h.sink) == (source, sink)
                // Double-free pairs are unordered: either free may be
                // the one the schedule runs second.
                || (kind == BugKind::DoubleFree && (h.source, h.sink) == (sink, source)))
    };
    while steps < STEP_BUDGET {
        let remaining = &schedule[next..];
        let mut head_thread = None;
        let mut stepped = false;
        for t in 0..m.threads.len() {
            let label = match poll_resolved(&mut m, prog, &mut valuation, t, remaining) {
                Poll::ReadyAt(l) => l,
                _ => continue,
            };
            if remaining.first() == Some(&label) {
                head_thread = Some(t);
                continue;
            }
            if remaining.contains(&label) {
                continue; // barred: scheduled for later
            }
            // Free step: not schedule-constrained, run it now.
            steps += 1;
            if let Some(h) = m.step(prog, t) {
                if matched(&h) {
                    return ReplayResult::Confirmed { steps };
                }
                observed.push(h);
            }
            stepped = true;
            break;
        }
        if stepped {
            continue;
        }
        if let Some(t) = head_thread {
            next += 1;
            steps += 1;
            if let Some(h) = m.step(prog, t) {
                if matched(&h) {
                    return ReplayResult::Confirmed { steps };
                }
                observed.push(h);
            }
            continue;
        }
        if m.all_done() {
            return ReplayResult::Failed(ReplayFailure::NoBug { observed });
        }
        // A conflict-lock witness replays not to a hit but to a stuck
        // state: the claim is confirmed when the machine is blocked in
        // a lock waits-for cycle whose extreme acquisition labels are
        // exactly the reported pair.
        if kind == BugKind::ConflictLock
            && m.lock_cycles(prog, &valuation)
                .iter()
                .any(|c| c.first() == Some(&source) && c.last() == Some(&sink))
        {
            return ReplayResult::Confirmed { steps };
        }
        return ReplayResult::Failed(ReplayFailure::Deadlock {
            waiting_for: schedule.get(next).copied(),
        });
    }
    ReplayResult::Failed(ReplayFailure::Budget)
}

/// Replays a detector report against the program it was produced from.
pub fn replay_report(prog: &Program, report: &BugReport) -> ReplayResult {
    replay(
        prog,
        report.kind,
        report.source,
        report.sink,
        &report.schedule,
        &report.guards,
    )
}

/// [`replay`] under an explicit memory model.
///
/// Under SC this is exactly [`replay`]. Under TSO/PSO the schedule's
/// barrier discipline changes meaning for relaxed stores: a scheduled
/// `store` may *execute* (enqueue into its thread's buffer) at any
/// point, and its schedule slot steers the *flush* that publishes it —
/// that is how a witness whose order atoms place a store after a
/// program-order-later load of the same thread replays concretely.
/// Because the flush points of *unscheduled* stores remain free
/// choices (as do branch atoms the guards leave open), the weak replay
/// is a bounded memoized DFS over those free moves with the scheduled
/// events as barriers, confirmed as soon as any compatible execution
/// fires the claimed bug. The search is exhaustive within its budget
/// of 10⁶ states, so a `NoBug`/`Deadlock` failure means *no*
/// schedule-compatible execution confirms the claim.
pub fn replay_under(
    prog: &Program,
    model: MemoryModel,
    kind: BugKind,
    source: Label,
    sink: Label,
    schedule: &[Label],
    guards: &[(canary_ir::CondId, bool)],
) -> ReplayResult {
    if model == MemoryModel::Sc {
        return replay(prog, kind, source, sink, schedule, guards);
    }
    let initial: Valuation = guards.iter().copied().collect();
    let matched = |h: &Hit| {
        h.kind == kind
            && ((h.source, h.sink) == (source, sink)
                || (kind == BugKind::DoubleFree && (h.source, h.sink) == (sink, source)))
    };
    // DFS state: (machine, valuation, schedule cursor, steps so far).
    // Memoization drops `steps` — it is diagnostic, and pruning a
    // revisit at a different depth only forgoes a duplicate subtree.
    let mut visited: HashSet<(Machine, Valuation, usize)> = HashSet::new();
    let mut stack: Vec<(Machine, Valuation, usize, usize)> =
        vec![(Machine::boot_under(prog, model), initial, 0, 0)];
    let mut observed: BTreeSet<Hit> = BTreeSet::new();
    let mut saw_completion = false;
    let mut first_deadlock: Option<Option<Label>> = None;
    let mut budget = STEP_BUDGET;
    'dfs: while let Some((mut m, val, next, steps)) = stack.pop() {
        if budget == 0 {
            return ReplayResult::Failed(ReplayFailure::Budget);
        }
        budget -= 1;
        // Normalize every thread; split on the first open branch atom.
        let mut ready: Vec<(usize, Label)> = Vec::new();
        for t in 0..m.threads.len() {
            match m.poll(prog, &val, t) {
                Poll::NeedsCond(c) => {
                    for v in [false, true] {
                        let mut val2 = val.clone();
                        val2.insert(c, v);
                        stack.push((m.clone(), val2, next, steps));
                    }
                    continue 'dfs;
                }
                Poll::ReadyAt(l) => ready.push((t, l)),
                Poll::Blocked(_) | Poll::NeedsFlush | Poll::Done => {}
            }
        }
        if !visited.insert((m.clone(), val.clone(), next)) {
            continue;
        }
        let remaining = &schedule[next..];
        let head = remaining.first().copied();
        let mut children = 0usize;
        // Statement moves.
        for &(t, l) in &ready {
            let inst = prog.inst(l);
            // Entries whose flush slot is still scheduled are frozen: a
            // fence would publish them as a side effect of `step`'s
            // drain, stealing their steered flush point — so the fence
            // waits until their slots are consumed.
            let frozen = m.buffers[t].iter().any(|b| remaining.contains(&b.label));
            if is_fence(inst) && frozen {
                continue;
            }
            let is_store = matches!(inst, Inst::Store { .. });
            let scheduled = remaining.contains(&l);
            if scheduled && !is_store && head != Some(l) {
                continue; // barred until it is the head
            }
            let mut child = m.clone();
            let before = child.buffers[t].len();
            if let Some(h) = child.step(prog, t) {
                if matched(&h) {
                    return ReplayResult::Confirmed { steps: steps + 1 };
                }
                observed.insert(h);
            }
            // A scheduled store's slot names its point of global
            // visibility, so executing it never consumes the slot —
            // the steered flush does. The one exception is a store
            // that buffered nothing (its address is not a live cell):
            // no flush will ever carry its label, so the execution
            // consumes the slot when it is the head and otherwise the
            // slot is unsatisfiable on this path.
            let consume = if scheduled {
                if is_store {
                    if child.buffers[t].len() > before {
                        false
                    } else if head == Some(l) {
                        true
                    } else {
                        continue;
                    }
                } else {
                    true
                }
            } else {
                false
            };
            children += 1;
            stack.push((child, val.clone(), next + usize::from(consume), steps + 1));
        }
        // Drain moves: the head's flush consumes its slot; pending
        // stores not on the schedule flush freely; scheduled-deeper
        // entries stay frozen until their slot arrives.
        for t in 0..m.threads.len() {
            for idx in m.flush_choices(t) {
                let label = m.buffers[t][idx].label;
                let at_head = head == Some(label);
                if !at_head && remaining.contains(&label) {
                    continue;
                }
                let mut child = m.clone();
                child.flush(t, idx);
                children += 1;
                stack.push((child, val.clone(), next + usize::from(at_head), steps));
            }
        }
        if children > 0 {
            continue;
        }
        if m.all_done() {
            saw_completion = true;
            continue;
        }
        // As in the SC loop, a conflict-lock witness confirms at a
        // stuck state whose waits-for cycle spans the reported pair.
        if kind == BugKind::ConflictLock
            && m.lock_cycles(prog, &val)
                .iter()
                .any(|c| c.first() == Some(&source) && c.last() == Some(&sink))
        {
            return ReplayResult::Confirmed { steps };
        }
        if first_deadlock.is_none() {
            first_deadlock = Some(schedule.get(next).copied());
        }
    }
    if saw_completion {
        ReplayResult::Failed(ReplayFailure::NoBug {
            observed: observed.into_iter().collect(),
        })
    } else {
        ReplayResult::Failed(ReplayFailure::Deadlock {
            waiting_for: first_deadlock.unwrap_or(None),
        })
    }
}

/// Replays a detector report under an explicit memory model.
pub fn replay_report_under(prog: &Program, model: MemoryModel, report: &BugReport) -> ReplayResult {
    replay_under(
        prog,
        model,
        report.kind,
        report.source,
        report.sink,
        &report.schedule,
        &report.guards,
    )
}

/// Polls thread `t`, resolving open branch atoms as they surface:
/// steered toward the thread's earliest remaining scheduled label when
/// exactly one arm reaches it, defaulting to the else-arm otherwise.
fn poll_resolved(
    m: &mut Machine,
    prog: &Program,
    valuation: &mut Valuation,
    t: usize,
    remaining: &[Label],
) -> Poll {
    loop {
        match m.poll(prog, valuation, t) {
            Poll::NeedsCond(c) => {
                let v = steer(m, prog, t, c, remaining).unwrap_or(false);
                valuation.insert(c, v);
            }
            p => return p,
        }
    }
}

/// Picks the value of atom `c` that routes thread `t` toward its next
/// scheduled label, when that is unambiguous.
fn steer(
    m: &Machine,
    prog: &Program,
    t: usize,
    c: canary_ir::CondId,
    remaining: &[Label],
) -> Option<bool> {
    let ThreadState::Ready(stack) = &m.threads[t] else {
        return None;
    };
    let cursor = stack.last()?.cursor;
    let StepPoint::Term(Terminator::Branch {
        cond,
        then_blk,
        else_blk,
    }) = cursor.point(prog)
    else {
        return None;
    };
    let CondExpr::Atom {
        cond: atom,
        negated,
    } = *cond
    else {
        return None;
    };
    if atom != c {
        return None;
    }
    for &l in remaining {
        if prog.func_of(l) != cursor.func {
            continue;
        }
        let via_then = block_reaches(prog, cursor.func, *then_blk, l);
        let via_else = block_reaches(prog, cursor.func, *else_blk, l);
        match (via_then, via_else) {
            (true, false) => return Some(!negated),
            (false, true) => return Some(negated),
            _ => continue, // both arms reach it (it's past the join) or neither
        }
    }
    None
}

/// Returns the labels of `schedule` that can never replay — duplicates
/// and labels of functions executed more than once confuse the barrier
/// discipline; diagnostics use this to explain a deadlock.
pub fn schedule_duplicates(schedule: &[Label]) -> Vec<Label> {
    let mut seen = HashSet::new();
    schedule
        .iter()
        .copied()
        .filter(|l| !seen.insert(*l))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_ir::parse;

    /// Store buffering (see `enumerate::tests::SB`): a double-free that
    /// requires both flag stores to be delayed past the sibling loads.
    const SB: &str = "fn main() { x = alloc ox; y = alloc oy; p = alloc op;
                                  *x = p; *y = p;
                                  fork a ta(x, y); fork b tb(y, x); }
                      fn ta(xa, ya) { na = null; *xa = na; r = *ya; free r; }
                      fn tb(yb, xb) { nb = null; *yb = nb; s = *xb; free s; }";

    /// Message passing (see `enumerate::tests::MP`): a use-after-free
    /// that requires the mailbox publish to pass the pointer install —
    /// PSO only.
    const MP: &str = "fn main() { b = alloc ob; s = alloc os; e = alloc oe;
                                  *b = e;
                                  fork w tw(b, s, e); fork r tr(s); }
                      fn tw(bw, sw, ew) { free ew; g = alloc og; *bw = g; *sw = bw; }
                      fn tr(sr) { q = *sr; p = *q; use p; }";

    fn prep(src: &str) -> Program {
        let prog = parse(src).unwrap();
        prog.validate().unwrap();
        prog
    }

    fn site(prog: &Program, func: &str, pred: impl Fn(&Inst) -> bool) -> Label {
        let f = prog.func_by_name(func).unwrap();
        prog.labels()
            .find(|&l| prog.func_of(l) == f && pred(prog.inst(l)))
            .expect("litmus function has the site")
    }

    #[test]
    fn free_search_confirms_sb_under_weak_models_only() {
        let prog = prep(SB);
        let fs = prog.free_sites();
        let (lo, hi) = (fs[0].min(fs[1]), fs[0].max(fs[1]));
        // An empty schedule makes every move free: the weak replay is a
        // full bounded search, so it finds the store-buffering outcome.
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            let r = replay_under(&prog, model, BugKind::DoubleFree, lo, hi, &[], &[]);
            assert!(r.confirmed(), "{model:?}: {r:?}");
        }
        // SC delegates to the deterministic eager loop: no double-free.
        let r = replay_under(
            &prog,
            MemoryModel::Sc,
            BugKind::DoubleFree,
            lo,
            hi,
            &[],
            &[],
        );
        assert!(!r.confirmed(), "{r:?}");
    }

    #[test]
    fn free_search_confirms_mp_under_pso_only() {
        let prog = prep(MP);
        let free = prog.free_sites()[0];
        let use_site = prog.deref_sites()[0];
        let pso = replay_under(
            &prog,
            MemoryModel::Pso,
            BugKind::UseAfterFree,
            free,
            use_site,
            &[],
            &[],
        );
        assert!(pso.confirmed(), "{pso:?}");
        // TSO's FIFO drain order keeps the install before the publish;
        // the exhaustive search proves no compatible execution fires.
        let tso = replay_under(
            &prog,
            MemoryModel::Tso,
            BugKind::UseAfterFree,
            free,
            use_site,
            &[],
            &[],
        );
        assert_eq!(
            tso,
            ReplayResult::Failed(ReplayFailure::NoBug { observed: vec![] })
        );
    }

    #[test]
    fn store_slots_steer_flush_points() {
        let prog = prep(SB);
        let fs = prog.free_sites();
        let (lo, hi) = (fs[0].min(fs[1]), fs[0].max(fs[1]));
        let store_a = site(&prog, "ta", |i| matches!(i, Inst::Store { .. }));
        let load_a = site(&prog, "ta", |i| matches!(i, Inst::Load { .. }));
        let store_b = site(&prog, "tb", |i| matches!(i, Inst::Store { .. }));
        let load_b = site(&prog, "tb", |i| matches!(i, Inst::Load { .. }));
        // The witness inverts program order: both loads execute before
        // either store becomes visible. Only a store buffer realizes
        // this, with the store slots steering the flushes.
        let inverted = [load_a, load_b, store_a, store_b];
        let r = replay_under(
            &prog,
            MemoryModel::Tso,
            BugKind::DoubleFree,
            lo,
            hi,
            &inverted,
            &[],
        );
        assert!(r.confirmed(), "{r:?}");
        // The SC-like order pins both stores' visibility before the
        // loads: every compatible execution reads the nulled flags, so
        // the claimed double-free must NOT replay — the barrier
        // discipline is faithful, not merely permissive.
        let sc_like = [store_a, store_b, load_a, load_b];
        let r = replay_under(
            &prog,
            MemoryModel::Tso,
            BugKind::DoubleFree,
            lo,
            hi,
            &sc_like,
            &[],
        );
        assert!(!r.confirmed(), "{r:?}");
    }
}
