//! The concrete machine: a small-step interpreter state for the Fig. 3
//! language with a provenance-tracking heap.
//!
//! Values carry where they came from — the allocation site of an
//! address, the `p = null` that produced a null, the taint source that
//! produced a secret — so a bug firing concretely can name the exact
//! source/sink statement pair the static report claimed.
//!
//! Under `MemoryModel::Sc` the machine is a plain interleaving
//! interpreter. Under TSO/PSO each thread additionally owns a FIFO
//! *store buffer*: `store` enqueues instead of writing shared memory,
//! the thread's own `load`s snoop the buffer (store forwarding), and a
//! pending store becomes globally visible only at an explicit
//! [`Machine::flush`] — a scheduler event the enumerator and replayer
//! interleave with statement steps. TSO drains strictly in order; PSO
//! preserves order per location only. Every instruction that is not a
//! plain load or store (fork/join, lock/unlock, wait/notify, free,
//! deref, sink, call, return) acts as a fence and drains the executing
//! thread's buffer first, matching the detector's retention policy,
//! which only ever relaxes store→load and store→store pairs.

use std::collections::BTreeMap;

use canary_detect::{BugKind, MemoryModel};
use canary_ir::{
    Callee, CondExpr, CondId, Cursor, FuncId, Inst, Label, ObjId, Program, StepPoint, Terminator,
    VarId,
};
use rustc_hash::FxHashSet;

/// A branch-direction assignment for condition atoms. Branches on atoms
/// absent from the map cannot be normalized past — the machine reports
/// [`Poll::NeedsCond`] and the driver decides.
pub type Valuation = BTreeMap<CondId, bool>;

/// A runtime value with provenance.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum Value {
    /// Never assigned (reading it is not itself an error here).
    #[default]
    Uninit,
    /// A defined value the oracle does not track (arithmetic results,
    /// unresolved call returns).
    Opaque,
    /// Null, produced by the `p = null` at the given label.
    Null(Label),
    /// The address of the heap cell at the given index.
    Addr(usize),
    /// A function pointer.
    Func(FuncId),
    /// Tainted data, produced by the taint source at the given label.
    Taint(Label),
}

/// One allocation instance.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct HeapCell {
    /// The abstract object of the allocation site.
    pub site: ObjId,
    /// The `free` that deallocated this cell, if any (kept at the
    /// *first* free so later frees and uses report against it).
    pub freed: Option<Label>,
    /// The stored value (single-word cells suffice for Fig. 3).
    pub content: Value,
    /// Mutex state when the cell is used as a lock (§9): the owning
    /// thread and the acquisition label, or `None` when free. Ownership
    /// lets the machine distinguish self-reacquisition (a double-lock
    /// hit) from cross-thread contention (blocking).
    pub owner: Option<(usize, Label)>,
    /// Condition-variable state when used with wait/notify (§9):
    /// `notify` is sticky, matching the order-constraint semantics
    /// (a wait may complete iff some notify already executed).
    pub notified: bool,
}

/// One call frame of a thread.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Frame {
    /// Where the frame resumes.
    pub cursor: Cursor,
    /// The caller's destinations for this frame's return values.
    pub ret_dsts: Vec<VarId>,
}

/// The lifecycle of one static thread.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ThreadState {
    /// The fork site has not executed.
    Unforked,
    /// Running, with a call stack (last frame is active).
    Ready(Vec<Frame>),
    /// Finished (or its fork target could not be resolved).
    Done,
}

/// What a thread can do next, after normalizing through gotos, exits
/// and decidable branches.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Poll {
    /// The thread's next step executes the labeled instruction.
    ReadyAt(Label),
    /// The thread faces a branch on an atom the valuation leaves open.
    NeedsCond(CondId),
    /// The thread is stuck at the labeled instruction (join of a live
    /// thread, lock of a held mutex, wait without a notify).
    Blocked(Label),
    /// The thread is about to leave a function (or finish) but still
    /// has pending buffered stores: cross-function program order is
    /// retained under every memory model, so the scheduler must flush
    /// the buffer before the frame can pop. Never surfaces under SC.
    NeedsFlush,
    /// The thread finished, or was never forked.
    Done,
}

/// One pending store in a thread's store buffer: the write is held
/// privately until a flush publishes it to shared memory.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct BufferedStore {
    /// The heap cell the store targets.
    pub cell: usize,
    /// The value to publish.
    pub value: Value,
    /// The store instruction's label (replay steers flush points by it).
    pub label: Label,
}

/// A concrete bug occurrence: the claimed source/sink pair fired.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Hit {
    /// The property class.
    pub kind: BugKind,
    /// Source statement (first free / null assignment / taint source).
    pub source: Label,
    /// Sink statement (use / second free / leak sink).
    pub sink: Label,
}

/// The interpreter state: one shared environment (sound because the IR
/// is SSA — each variable has one static definition), a heap of
/// allocation instances, and one state per static thread.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Machine {
    /// Top-level variables, indexed by [`VarId`].
    pub env: Vec<Value>,
    /// Allocation instances, in allocation order.
    pub heap: Vec<HeapCell>,
    /// Thread table aligned with `prog.threads`.
    pub threads: Vec<ThreadState>,
    /// The memory model the machine executes under.
    pub model: MemoryModel,
    /// Per-thread store buffers, aligned with `threads`. Always empty
    /// under SC; under TSO/PSO they are part of the machine state, so
    /// exact-state memoization keys on pending-store contents too.
    pub buffers: Vec<Vec<BufferedStore>>,
}

impl Machine {
    /// The initial state: main ready at the entry function, every other
    /// thread unforked. Executes under sequential consistency.
    ///
    /// # Panics
    ///
    /// Panics if the program has no entry function.
    pub fn boot(prog: &Program) -> Machine {
        Machine::boot_under(prog, MemoryModel::Sc)
    }

    /// [`Machine::boot`] under an explicit memory model.
    ///
    /// # Panics
    ///
    /// Panics if the program has no entry function.
    pub fn boot_under(prog: &Program, model: MemoryModel) -> Machine {
        let entry = prog.entry.expect("program has an entry function");
        let mut threads = vec![ThreadState::Unforked; prog.threads.len()];
        threads[0] = ThreadState::Ready(vec![Frame {
            cursor: Cursor::entry(prog, entry),
            ret_dsts: Vec::new(),
        }]);
        Machine {
            env: vec![Value::Uninit; prog.vars.len()],
            heap: Vec::new(),
            buffers: vec![Vec::new(); prog.threads.len()],
            threads,
            model,
        }
    }

    /// The indices into thread `t`'s store buffer that may drain next.
    /// TSO: strictly the oldest entry. PSO: the oldest entry *per
    /// location* — cross-location drains commute freely.
    pub fn flush_choices(&self, t: usize) -> Vec<usize> {
        let buf = &self.buffers[t];
        match self.model {
            MemoryModel::Sc => Vec::new(),
            MemoryModel::Tso => {
                if buf.is_empty() {
                    Vec::new()
                } else {
                    vec![0]
                }
            }
            MemoryModel::Pso => {
                let mut seen: FxHashSet<usize> = FxHashSet::default();
                let mut out = Vec::new();
                for (i, b) in buf.iter().enumerate() {
                    if seen.insert(b.cell) {
                        out.push(i);
                    }
                }
                out
            }
        }
    }

    /// Publishes the pending store at buffer index `idx` of thread `t`
    /// to shared memory and returns its store label. The index must be
    /// one of [`Machine::flush_choices`] — draining out of model order
    /// would forge an unreachable memory state.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not a legal flush choice.
    pub fn flush(&mut self, t: usize, idx: usize) -> Label {
        debug_assert!(
            self.flush_choices(t).contains(&idx),
            "flush({t}, {idx}) is not a legal drain under {:?}",
            self.model
        );
        let b = self.buffers[t].remove(idx);
        self.heap[b.cell].content = b.value;
        b.label
    }

    /// Drains thread `t`'s entire buffer in enqueue order (a fence).
    /// Per-location order is preserved, so the resulting memory state
    /// is the unique fully-drained one.
    fn drain(&mut self, t: usize) {
        for b in std::mem::take(&mut self.buffers[t]) {
            self.heap[b.cell].content = b.value;
        }
    }

    /// Whether every thread is terminal (finished or never forked).
    pub fn all_done(&self) -> bool {
        self.threads
            .iter()
            .all(|t| !matches!(t, ThreadState::Ready(_)))
    }

    /// Normalizes thread `t` through gotos, function exits and branches
    /// decided by `valuation`, and reports what it faces.
    ///
    /// Normalization mutates the machine but is deterministic and
    /// invisible to other threads (SSA return-value bindings are only
    /// read by the thread that made the call), so it is safe to poll
    /// threads in any order.
    pub fn poll(&mut self, prog: &Program, valuation: &Valuation, t: usize) -> Poll {
        loop {
            let ThreadState::Ready(stack) = &mut self.threads[t] else {
                return Poll::Done;
            };
            let frame = stack.last_mut().expect("ready threads have a frame");
            match frame.cursor.point(prog) {
                StepPoint::Inst(l, inst) => {
                    return match inst {
                        Inst::Join { thread } => {
                            if matches!(self.threads[thread.index()], ThreadState::Ready(_)) {
                                Poll::Blocked(l)
                            } else {
                                Poll::ReadyAt(l)
                            }
                        }
                        Inst::Lock { mutex } => match self.env[mutex.index()] {
                            Value::Addr(a)
                                if self.heap[a].owner.is_some_and(|(holder, _)| holder != t) =>
                            {
                                Poll::Blocked(l)
                            }
                            _ => Poll::ReadyAt(l),
                        },
                        Inst::Wait { cv } => match self.env[cv.index()] {
                            Value::Addr(a) if !self.heap[a].notified => Poll::Blocked(l),
                            _ => Poll::ReadyAt(l),
                        },
                        _ => Poll::ReadyAt(l),
                    };
                }
                StepPoint::Term(Terminator::Goto(b)) => {
                    let b = *b;
                    frame.cursor.jump(b);
                }
                StepPoint::Term(Terminator::Branch {
                    cond,
                    then_blk,
                    else_blk,
                }) => {
                    let (then_blk, else_blk) = (*then_blk, *else_blk);
                    let taken = match *cond {
                        CondExpr::True => true,
                        CondExpr::False => false,
                        CondExpr::Atom { cond, negated } => match valuation.get(&cond) {
                            Some(&v) => v != negated,
                            None => return Poll::NeedsCond(cond),
                        },
                    };
                    frame.cursor.jump(if taken { then_blk } else { else_blk });
                }
                StepPoint::Term(Terminator::Exit) => {
                    // Falling off a function's end returns control (or
                    // ends the thread). Cross-function program order is
                    // retained under every model, so pending stores
                    // must drain before the frame pops — the scheduler
                    // owns the flush, not normalization.
                    if !self.buffers[t].is_empty() {
                        return Poll::NeedsFlush;
                    }
                    stack.pop();
                    if stack.is_empty() {
                        self.threads[t] = ThreadState::Done;
                        return Poll::Done;
                    }
                }
            }
        }
    }

    /// Executes exactly one labeled instruction on thread `t` — the one
    /// a preceding [`Machine::poll`] reported as [`Poll::ReadyAt`] —
    /// and reports the bug it concretely triggers, if any.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not ready at a labeled instruction.
    pub fn step(&mut self, prog: &Program, t: usize) -> Option<Hit> {
        let ThreadState::Ready(stack) = &mut self.threads[t] else {
            panic!("stepping a thread that is not ready");
        };
        let frame = stack.last_mut().expect("ready threads have a frame");
        let StepPoint::Inst(l, inst) = frame.cursor.point(prog) else {
            panic!("stepping a thread facing a terminator (poll first)");
        };
        let inst = inst.clone();
        frame.cursor.advance();
        // Everything except a plain load/store is a fence: the
        // detector's retention policy only relaxes store→load and
        // store→store pairs, so any other instruction observes the
        // thread's pending stores as already published.
        if is_fence(&inst) {
            self.drain(t);
        }
        match inst {
            Inst::Alloc { dst, obj } => {
                self.heap.push(HeapCell {
                    site: obj,
                    freed: None,
                    content: Value::Uninit,
                    owner: None,
                    notified: false,
                });
                self.env[dst.index()] = Value::Addr(self.heap.len() - 1);
            }
            Inst::FuncAddr { dst, func } => self.env[dst.index()] = Value::Func(func),
            Inst::Copy { dst, src } => self.env[dst.index()] = self.env[src.index()],
            Inst::Load { dst, addr } => {
                self.env[dst.index()] = match self.env[addr.index()] {
                    // Store forwarding: the thread's own latest pending
                    // store to the cell wins over shared memory.
                    Value::Addr(a) => self.buffers[t]
                        .iter()
                        .rev()
                        .find(|b| b.cell == a)
                        .map_or(self.heap[a].content, |b| b.value),
                    _ => Value::Opaque,
                };
            }
            Inst::Store { addr, src } => {
                if let Value::Addr(a) = self.env[addr.index()] {
                    let v = self.env[src.index()];
                    if self.model == MemoryModel::Sc {
                        self.heap[a].content = v;
                    } else {
                        self.buffers[t].push(BufferedStore {
                            cell: a,
                            value: v,
                            label: l,
                        });
                    }
                }
            }
            Inst::Bin { dst, .. } | Inst::Un { dst, .. } => {
                self.env[dst.index()] = Value::Opaque;
            }
            Inst::Call { dsts, callee, args } => match self.resolve(&callee) {
                Some(f) => {
                    let vals: Vec<Value> = args.iter().map(|a| self.env[a.index()]).collect();
                    for (p, v) in prog.func(f).params.iter().zip(vals) {
                        self.env[p.index()] = v;
                    }
                    let ThreadState::Ready(stack) = &mut self.threads[t] else {
                        unreachable!();
                    };
                    stack.push(Frame {
                        cursor: Cursor::entry(prog, f),
                        ret_dsts: dsts,
                    });
                }
                None => {
                    for d in dsts {
                        self.env[d.index()] = Value::Opaque;
                    }
                }
            },
            Inst::Fork {
                thread,
                entry,
                args,
            } => {
                let target = thread.index();
                if matches!(self.threads[target], ThreadState::Unforked) {
                    match self.resolve(&entry) {
                        Some(f) => {
                            let vals: Vec<Value> =
                                args.iter().map(|a| self.env[a.index()]).collect();
                            for (p, v) in prog.func(f).params.iter().zip(vals) {
                                self.env[p.index()] = v;
                            }
                            self.threads[target] = ThreadState::Ready(vec![Frame {
                                cursor: Cursor::entry(prog, f),
                                ret_dsts: Vec::new(),
                            }]);
                        }
                        None => self.threads[target] = ThreadState::Done,
                    }
                }
            }
            Inst::Join { .. } => {} // poll gated on the target being terminal
            Inst::Free { ptr } => {
                if let Value::Addr(a) = self.env[ptr.index()] {
                    match self.heap[a].freed {
                        Some(first) => {
                            return Some(Hit {
                                kind: BugKind::DoubleFree,
                                source: first.min(l),
                                sink: first.max(l),
                            });
                        }
                        None => self.heap[a].freed = Some(l),
                    }
                }
            }
            Inst::Deref { ptr } => match self.env[ptr.index()] {
                Value::Null(src) => {
                    return Some(Hit {
                        kind: BugKind::NullDeref,
                        source: src,
                        sink: l,
                    });
                }
                Value::Addr(a) => {
                    if let Some(f) = self.heap[a].freed {
                        return Some(Hit {
                            kind: BugKind::UseAfterFree,
                            source: f,
                            sink: l,
                        });
                    }
                }
                _ => {}
            },
            Inst::AssignNull { dst } => self.env[dst.index()] = Value::Null(l),
            Inst::TaintSource { dst } => self.env[dst.index()] = Value::Taint(l),
            Inst::TaintSink { src } => {
                if let Value::Taint(origin) = self.env[src.index()] {
                    return Some(Hit {
                        kind: BugKind::DataLeak,
                        source: origin,
                        sink: l,
                    });
                }
            }
            Inst::Lock { mutex } => {
                if let Value::Addr(a) = self.env[mutex.index()] {
                    match self.heap[a].owner {
                        // Re-acquisition by the owning thread: the
                        // non-reentrant lock discipline is violated.
                        // Like double-free, the hit is reported and the
                        // machine continues (ownership keeps the first
                        // acquisition), so enumeration stays finite.
                        Some((holder, first)) if holder == t => {
                            return Some(Hit {
                                kind: BugKind::DoubleLock,
                                source: first,
                                sink: l,
                            });
                        }
                        Some(_) => {} // poll gates cross-thread contention
                        None => self.heap[a].owner = Some((t, l)),
                    }
                }
            }
            Inst::Unlock { mutex } => {
                if let Value::Addr(a) = self.env[mutex.index()] {
                    self.heap[a].owner = None;
                }
            }
            Inst::Wait { .. } => {} // poll gated on a prior notify
            Inst::Notify { cv } => {
                if let Value::Addr(a) = self.env[cv.index()] {
                    self.heap[a].notified = true;
                }
            }
            Inst::Return { vals } => {
                let values: Vec<Value> = vals.iter().map(|v| self.env[v.index()]).collect();
                let ThreadState::Ready(stack) = &mut self.threads[t] else {
                    unreachable!();
                };
                let popped = stack.pop().expect("ready threads have a frame");
                for (d, v) in popped.ret_dsts.iter().zip(values) {
                    self.env[d.index()] = v;
                }
                if stack.is_empty() {
                    self.threads[t] = ThreadState::Done;
                }
            }
            Inst::Nop => {}
        }
        None
    }

    /// Detects lock waits-for cycles among the currently blocked
    /// threads: each thread blocked at a `lock` on a mutex held by
    /// another thread contributes one waits-for edge, and every cycle
    /// in that (functional) graph is a concrete deadlock. Returns one
    /// entry per cycle: the blocked acquisition labels of its threads,
    /// sorted. Polling normalizes threads but is deterministic, so the
    /// machine is observationally unchanged for other callers.
    pub fn lock_cycles(&mut self, prog: &Program, valuation: &Valuation) -> Vec<Vec<Label>> {
        let n = self.threads.len();
        // waits_for[t] = (thread holding the mutex t is blocked on,
        // t's blocked lock label), when t is lock-blocked.
        let mut waits_for: Vec<Option<(usize, Label)>> = vec![None; n];
        for (t, w) in waits_for.iter_mut().enumerate() {
            let Poll::Blocked(l) = self.poll(prog, valuation, t) else {
                continue;
            };
            let Inst::Lock { mutex } = prog.inst(l) else {
                continue;
            };
            if let Value::Addr(a) = self.env[mutex.index()] {
                if let Some((holder, _)) = self.heap[a].owner {
                    if holder != t {
                        *w = Some((holder, l));
                    }
                }
            }
        }
        // Each node has at most one outgoing edge: walk successors and
        // record every cycle once (from its smallest-index member).
        let mut cycles = Vec::new();
        let mut color = vec![0u8; n]; // 0 unvisited, 1 on path, 2 done
        for start in 0..n {
            if color[start] != 0 {
                continue;
            }
            let mut path: Vec<usize> = Vec::new();
            let mut cur = start;
            loop {
                if color[cur] == 1 {
                    // Found a cycle: the suffix of `path` from `cur`.
                    let pos = path.iter().position(|&p| p == cur).expect("on path");
                    let mut labels: Vec<Label> = path[pos..]
                        .iter()
                        .map(|&p| waits_for[p].expect("cycle nodes are blocked").1)
                        .collect();
                    labels.sort();
                    cycles.push(labels);
                    break;
                }
                if color[cur] == 2 {
                    break;
                }
                color[cur] = 1;
                path.push(cur);
                match waits_for[cur] {
                    Some((next, _)) => cur = next,
                    None => break,
                }
            }
            for p in path {
                color[p] = 2;
            }
        }
        cycles
    }

    /// Whether thread `t` has pending buffered stores.
    pub fn has_pending(&self, t: usize) -> bool {
        !self.buffers[t].is_empty()
    }

    fn resolve(&self, callee: &Callee) -> Option<FuncId> {
        match callee {
            Callee::Direct(f) => Some(*f),
            Callee::Indirect(v) => match self.env[v.index()] {
                Value::Func(f) => Some(f),
                _ => None,
            },
        }
    }
}

/// Whether executing `inst` drains the thread's store buffer first.
/// Only plain loads and stores are relaxed by TSO/PSO; every other
/// instruction — synchronization, heap lifetime events, calls and
/// returns, observable sinks — keeps its program order against earlier
/// stores, which operationally means it fences them.
pub(crate) fn is_fence(inst: &Inst) -> bool {
    !matches!(
        inst,
        Inst::Load { .. }
            | Inst::Store { .. }
            | Inst::Copy { .. }
            | Inst::Bin { .. }
            | Inst::Un { .. }
            | Inst::AssignNull { .. }
            | Inst::TaintSource { .. }
            | Inst::FuncAddr { .. }
            | Inst::Alloc { .. }
            | Inst::Nop
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_ir::parse;

    fn run_single(src: &str) -> (Machine, Vec<Hit>) {
        let prog = parse(src).unwrap();
        prog.validate().unwrap();
        let mut m = Machine::boot(&prog);
        let valuation = Valuation::new();
        let mut hits = Vec::new();
        for _ in 0..10_000 {
            let mut stepped = false;
            for t in 0..m.threads.len() {
                if let Poll::ReadyAt(_) = m.poll(&prog, &valuation, t) {
                    hits.extend(m.step(&prog, t));
                    stepped = true;
                    break;
                }
            }
            if !stepped {
                break;
            }
        }
        (m, hits)
    }

    #[test]
    fn sequential_uaf_fires() {
        let prog_src = "fn main() { p = alloc o; free p; use p; }";
        let (m, hits) = run_single(prog_src);
        assert!(m.all_done());
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].kind, BugKind::UseAfterFree);
    }

    #[test]
    fn double_free_pair_is_normalized() {
        let (_, hits) = run_single("fn main() { p = alloc o; q = p; free q; free p; }");
        assert_eq!(hits.len(), 1);
        let h = hits[0];
        assert_eq!(h.kind, BugKind::DoubleFree);
        assert!(h.source < h.sink);
    }

    #[test]
    fn taint_flows_through_the_heap() {
        let (_, hits) = run_single("fn main() { c = alloc o; s = taint; *c = s; x = *c; sink x; }");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].kind, BugKind::DataLeak);
    }

    #[test]
    fn clean_program_has_no_hits() {
        let (m, hits) = run_single("fn main() { p = alloc o; use p; free p; }");
        assert!(m.all_done());
        assert!(hits.is_empty());
    }

    #[test]
    fn exit_with_pending_stores_needs_flush() {
        let prog = parse("fn main() { c = alloc o; n = null; *c = n; }").unwrap();
        prog.validate().unwrap();
        let mut m = Machine::boot_under(&prog, MemoryModel::Tso);
        let val = Valuation::new();
        while let Poll::ReadyAt(_) = m.poll(&prog, &val, 0) {
            assert!(m.step(&prog, 0).is_none());
        }
        // The store is still buffered: the frame cannot pop.
        assert_eq!(m.poll(&prog, &val, 0), Poll::NeedsFlush);
        assert!(m.has_pending(0));
        assert_eq!(m.flush_choices(0), vec![0]);
        m.flush(0, 0);
        assert!(matches!(m.heap[0].content, Value::Null(_)));
        assert_eq!(m.poll(&prog, &val, 0), Poll::Done);
        assert!(m.all_done());
    }

    #[test]
    fn pso_drains_per_location_tso_in_order() {
        let prog = parse(
            "fn main() { c = alloc o1; d = alloc o2; n = null;
                         *c = n; *d = n; *c = c; }",
        )
        .unwrap();
        prog.validate().unwrap();
        for (model, expect) in [
            (MemoryModel::Tso, vec![0]),
            // PSO: oldest entry per distinct cell — the second store to
            // `c` (index 2) stays ordered behind the first.
            (MemoryModel::Pso, vec![0, 1]),
        ] {
            let mut m = Machine::boot_under(&prog, model);
            let val = Valuation::new();
            while let Poll::ReadyAt(_) = m.poll(&prog, &val, 0) {
                assert!(m.step(&prog, 0).is_none());
            }
            assert_eq!(m.buffers[0].len(), 3);
            assert_eq!(m.flush_choices(0), expect, "{model:?}");
        }
    }

    #[test]
    fn fork_runs_child_and_join_gates() {
        let prog = parse(
            "fn main() { p = alloc o; fork t w(p); join t; free p; }
             fn w(q) { use q; }",
        )
        .unwrap();
        let mut m = Machine::boot(&prog);
        let valuation = Valuation::new();
        // Drive main until it blocks on the join.
        loop {
            match m.poll(&prog, &valuation, 0) {
                Poll::ReadyAt(_) => {
                    assert!(m.step(&prog, 0).is_none());
                }
                Poll::Blocked(_) => break,
                p => panic!("unexpected {p:?}"),
            }
        }
        // The child runs to completion; the join then unblocks.
        while let Poll::ReadyAt(_) = m.poll(&prog, &valuation, 1) {
            assert!(m.step(&prog, 1).is_none());
        }
        assert!(matches!(m.poll(&prog, &valuation, 0), Poll::ReadyAt(_)));
    }
}
