//! The interprocedural statement order graph.
//!
//! [`OrderGraph::happens_before`] decides the program order `<P` of
//! Defn. 2(2): control flow within a thread plus fork/join
//! synchronization across threads. Because bounded programs have acyclic
//! CFGs, may-reachability coincides with ordered-whenever-co-executed,
//! which is exactly the relation the partial-order constraints `Φ_po` of
//! §5.1 need.
//!
//! Execution that has passed `l1` moves on in three ways:
//!
//! * **intra** — to the labels after `l1` in its function (block-DAG
//!   reach);
//! * **descend** — through a call or fork at or after `l1` into every
//!   function transitively reachable from the callee;
//! * **ascend** — on return, to the continuation after each call site of
//!   the current function; for a thread entry, to the thread's join site.
//!   A call site reached by ascending has already returned, so it never
//!   descends again.
//!
//! Write `Asc(f)` for the sites execution ascends to from `f`: the call
//! sites of `f`'s callers and the join sites of threads whose entry is
//! `f`, closed over the functions containing them. `Asc(f)` depends on
//! `f` alone, so [`OrderGraph::build`] tabulates everything a query
//! needs. With `l1` in `f1` and `l2` in `f2`, `l1 <P l2` holds exactly
//! when
//!
//! 1. `f1 = f2` and `l2` follows `l1` in the block DAG;
//! 2. a call or fork at or after `l1` descends into `f2`;
//! 3. a call or fork after some site of `Asc(f1)` descends into `f2`; or
//! 4. some site `s` of `Asc(f1)` lies in `f2` and `l2` follows `s`, or
//!    `s` is a join site and `s = l2`.
//!
//! Condition 3 mentions neither label, so it is one bit of a function ×
//! function table; condition 1 is one bit of the function's block
//! reachability; conditions 2 and 4 scan the call, fork or join sites of
//! one function, a few bit tests each. A query takes no lock, hashes
//! nothing and allocates nothing.

use crate::callgraph::CallGraph;
use crate::func::Function;
use crate::ids::{FuncId, Label};
use crate::inst::{Inst, Terminator};
use crate::program::Program;

/// A dense bit matrix stored row by row.
#[derive(Debug)]
struct BitRows {
    /// 64-bit words per row.
    words: usize,
    bits: Vec<u64>,
}

impl BitRows {
    fn new(rows: usize, cols: usize) -> Self {
        let words = cols.div_ceil(64);
        BitRows {
            words,
            bits: vec![0; rows * words],
        }
    }

    fn get(&self, r: usize, c: usize) -> bool {
        self.bits[r * self.words + c / 64] >> (c % 64) & 1 != 0
    }

    fn set(&mut self, r: usize, c: usize) {
        self.bits[r * self.words + c / 64] |= 1 << (c % 64);
    }

    fn row(&self, r: usize) -> &[u64] {
        &self.bits[r * self.words..(r + 1) * self.words]
    }

    /// `row r |= other`.
    fn or_row(&mut self, r: usize, other: &[u64]) {
        let w = self.words;
        for (a, b) in self.bits[r * w..(r + 1) * w].iter_mut().zip(other) {
            *a |= b;
        }
    }

    /// `row dst |= row src`.
    fn union_rows(&mut self, dst: usize, src: usize) {
        let w = self.words;
        if dst == src || w == 0 {
            return;
        }
        let (d, s) = if dst < src {
            let (lo, hi) = self.bits.split_at_mut(src * w);
            (&mut lo[dst * w..(dst + 1) * w], &hi[..w])
        } else {
            let (lo, hi) = self.bits.split_at_mut(dst * w);
            (&mut hi[..w], &lo[src * w..(src + 1) * w])
        };
        for (a, b) in d.iter_mut().zip(s) {
            *a |= b;
        }
    }

    /// The set columns of row `r`, ascending.
    fn ones(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(r).iter().enumerate().flat_map(|(i, &w)| {
            (0..64)
                .filter(move |b| w >> b & 1 != 0)
                .map(move |b| i * 64 + b)
        })
    }
}

/// Successor block indices of block `b`, without allocating.
fn successors(func: &Function, b: usize) -> impl Iterator<Item = usize> + '_ {
    let (x, y) = match &func.blocks[b].term {
        Terminator::Goto(t) => (Some(t), None),
        Terminator::Branch {
            then_blk, else_blk, ..
        } => (Some(then_blk), Some(else_blk)),
        Terminator::Exit => (None, None),
    };
    x.into_iter().chain(y).map(|t| t.index())
}

/// Strict block-level reachability of one function: row `a` holds `b`
/// iff block `b` is reachable from block `a` in one or more steps.
/// Filled by unions in reverse topological order of the block DAG.
fn block_reach(func: &Function) -> BitRows {
    let n = func.blocks.len();
    let mut reach = BitRows::new(n, n);
    // Iterative DFS; a block finishes after all its successors, so
    // finishing order is a reverse topological order of the DAG.
    let mut state = vec![0u8; n];
    for root in 0..n {
        if state[root] != 0 {
            continue;
        }
        state[root] = 1;
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            if let Some(s) = successors(func, b).nth(*next) {
                *next += 1;
                if state[s] == 0 {
                    state[s] = 1;
                    stack.push((s, 0));
                }
            } else {
                for s in successors(func, b) {
                    reach.set(b, s);
                    reach.union_rows(b, s);
                }
                state[b] = 2;
                stack.pop();
            }
        }
    }
    reach
}

/// A call, fork or join statement located in its function's block DAG.
#[derive(Clone, Copy, Debug)]
struct Site {
    block: u32,
    /// Descent sites: the site's index in its block, so a label at
    /// `(block, p)` is at or before the site iff `p <= pos`. Ascent
    /// sites: the first index in the block that counts as after the
    /// site — one past a call site, the join site itself for a join.
    pos: u32,
}

/// Sites grouped by function: `sites[start[f]..start[f + 1]]` are `f`'s,
/// and `rows` holds one row per site.
#[derive(Debug)]
struct SiteTable {
    start: Vec<u32>,
    sites: Vec<Site>,
    rows: BitRows,
}

impl SiteTable {
    /// A table of `sites` grouped by `start`, with empty rows of
    /// `cols` bits.
    fn new(start: Vec<u32>, sites: Vec<Site>, cols: usize) -> Self {
        let rows = BitRows::new(sites.len(), cols);
        SiteTable { start, sites, rows }
    }

    /// Indices of function `f`'s sites.
    fn of(&self, f: usize) -> std::ops::Range<usize> {
        self.start[f] as usize..self.start[f + 1] as usize
    }
}

/// Interprocedural happens-before over the bounded program.
#[derive(Debug)]
pub struct OrderGraph<'p> {
    prog: &'p Program,
    /// `intra[f]` — block reachability of function `f`.
    intra: Vec<BitRows>,
    /// `block_pos[l]` — the index of label `l` within its block.
    block_pos: Vec<u32>,
    /// Calls and forks with resolved targets; a site's row holds every
    /// function its targets reach through call and fork edges.
    down: SiteTable,
    /// Call sites with resolved targets and join sites of threads with
    /// a resolved entry; a site's row holds every `f` whose `Asc(f)`
    /// contains it.
    up: SiteTable,
    /// `desc_from[f1]` holds `f2` iff some call or fork of `f1`
    /// descends into `f2` — the gate of condition 2.
    desc_from: BitRows,
    /// `asc_into[f1]` holds `f2` iff some site of `Asc(f1)` lies in
    /// `f2` — the gate of condition 4.
    asc_into: BitRows,
    /// `asc_desc[f1]` holds `f2` iff a call or fork after some site of
    /// `Asc(f1)` descends into `f2` — condition 3.
    asc_desc: BitRows,
    /// `func_follow[f1]` holds `f2` iff some label of `f1` may happen
    /// before some label of `f2`: `f1` itself plus the three tables
    /// above. About half of all queries stop at this one bit.
    func_follow: BitRows,
}

impl<'p> OrderGraph<'p> {
    /// Builds the order graph for a program and its call graph.
    pub fn build(prog: &'p Program, cg: &'p CallGraph) -> Self {
        let n = prog.funcs.len();
        let intra: Vec<BitRows> = prog.funcs.iter().map(block_reach).collect();
        let mut block_pos = vec![0u32; prog.stmt_count()];
        for func in &prog.funcs {
            for block in &func.blocks {
                for (i, &l) in block.stmts.iter().enumerate() {
                    block_pos[l.index()] = i as u32;
                }
            }
        }
        // Thread entries of each join site (a join orders the whole
        // thread before its continuation), sorted by join site.
        let mut joined: Vec<(Label, FuncId)> = Vec::new();
        for info in &prog.threads {
            let (Some(fork), Some(join)) = (info.fork_site, info.join_site) else {
                continue;
            };
            for &entry in cg.fork_targets.get(&fork).map_or(&[][..], Vec::as_slice) {
                joined.push((join, entry));
            }
        }
        joined.sort_unstable();
        let (join_sites, join_entries): (Vec<Label>, Vec<FuncId>) = joined.into_iter().unzip();

        let mut reach = BitRows::new(n, n);
        for (f, closure) in cg.closure.iter().enumerate() {
            for g in closure {
                reach.set(f, g.index());
            }
        }

        // One pass over every function's labels lays out both site
        // tables; `up_of[i]` lists the functions whose return (or, for
        // a join, whose thread's end) resumes execution after up-site i.
        let mut down_sites = Vec::new();
        let mut down_start = vec![0u32];
        let mut down_targets: Vec<&[FuncId]> = Vec::new();
        let mut up_sites = Vec::new();
        let mut up_start = vec![0u32];
        let mut up_of: Vec<&[FuncId]> = Vec::new();
        for func in &prog.funcs {
            for (b, block) in func.blocks.iter().enumerate() {
                for (i, &l) in block.stmts.iter().enumerate() {
                    let (block, pos) = (b as u32, i as u32);
                    match prog.inst(l) {
                        Inst::Call { .. } | Inst::Fork { .. } => {
                            let targets = cg.targets(l);
                            if targets.is_empty() {
                                continue;
                            }
                            down_sites.push(Site { block, pos });
                            down_targets.push(targets);
                            if matches!(prog.inst(l), Inst::Call { .. }) {
                                up_sites.push(Site {
                                    block,
                                    pos: pos + 1,
                                });
                                up_of.push(targets);
                            }
                        }
                        Inst::Join { .. } => {
                            let lo = join_sites.partition_point(|&j| j < l);
                            let hi = join_sites.partition_point(|&j| j <= l);
                            if lo < hi {
                                up_sites.push(Site { block, pos });
                                up_of.push(&join_entries[lo..hi]);
                            }
                        }
                        _ => {}
                    }
                }
            }
            down_start.push(down_sites.len() as u32);
            up_start.push(up_sites.len() as u32);
        }

        let mut down = SiteTable::new(down_start, down_sites, n);
        let mut up = SiteTable::new(up_start, up_sites, n);
        for (i, targets) in down_targets.iter().enumerate() {
            for g in targets.iter() {
                down.rows.or_row(i, reach.row(g.index()));
            }
        }
        let mut desc_from = BitRows::new(n, n);
        for f in 0..n {
            for i in down.of(f) {
                desc_from.or_row(f, down.rows.row(i));
            }
        }

        // Ascent graph: returning from `g` resumes in the function of
        // each up-site that lists `g`. `asc_into[f]` is its strict
        // transitive closure, so `Asc(f)` is the up-sites listing a
        // member of `{f} ∪ asc_into[f]`.
        let mut asc_succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        for f in 0..n {
            for i in up.of(f) {
                for g in up_of[i] {
                    asc_succ[g.index()].push(f);
                }
            }
        }
        let mut asc_into = BitRows::new(n, n);
        let mut work = Vec::new();
        for f in 0..n {
            work.extend(asc_succ[f].iter().copied());
            while let Some(g) = work.pop() {
                if !asc_into.get(f, g) {
                    asc_into.set(f, g);
                    work.extend(asc_succ[g].iter().copied());
                }
            }
        }
        // `resumes[g]` — the functions `f` with `g ∈ {f} ∪ asc_into[f]`.
        let mut resumes = BitRows::new(n, n);
        for f in 0..n {
            resumes.set(f, f);
            for g in asc_into.ones(f) {
                resumes.set(g, f);
            }
        }
        // `after_up[g]` — what the descent sites after an up-site that
        // lists `g` reach.
        let mut after_up = BitRows::new(n, n);
        let mut after = vec![0u64; after_up.words];
        for (f, reach_f) in intra.iter().enumerate() {
            for i in up.of(f) {
                let s = up.sites[i];
                after.fill(0);
                for j in down.of(f) {
                    let m = down.sites[j];
                    let follows = if m.block == s.block {
                        m.pos >= s.pos
                    } else {
                        reach_f.get(s.block as usize, m.block as usize)
                    };
                    if follows {
                        for (a, b) in after.iter_mut().zip(down.rows.row(j)) {
                            *a |= b;
                        }
                    }
                }
                for g in up_of[i] {
                    up.rows.or_row(i, resumes.row(g.index()));
                    after_up.or_row(g.index(), &after);
                }
            }
        }
        let mut asc_desc = BitRows::new(n, n);
        for f in 0..n {
            asc_desc.or_row(f, after_up.row(f));
            for g in asc_into.ones(f) {
                asc_desc.or_row(f, after_up.row(g));
            }
        }
        let mut func_follow = BitRows::new(n, n);
        for f in 0..n {
            func_follow.set(f, f);
            func_follow.or_row(f, desc_from.row(f));
            func_follow.or_row(f, asc_into.row(f));
            func_follow.or_row(f, asc_desc.row(f));
        }
        OrderGraph {
            prog,
            intra,
            block_pos,
            down,
            up,
            desc_from,
            asc_into,
            asc_desc,
            func_follow,
        }
    }

    /// `(block, index in block)` of a label.
    fn point(&self, l: Label) -> (usize, u32) {
        (self.prog.stmt(l).block.index(), self.block_pos[l.index()])
    }

    /// Whether `l2` follows `l1` within the same function's CFG.
    pub fn intra_reaches(&self, l1: Label, l2: Label) -> bool {
        let f = self.prog.func_of(l1);
        l1 != l2 && f == self.prog.func_of(l2) && self.intra_follows(f.index(), l1, l2)
    }

    /// Whether distinct labels `l1` and `l2` of function `f` are ordered
    /// by its block DAG.
    fn intra_follows(&self, f: usize, l1: Label, l2: Label) -> bool {
        let ((b1, p1), (b2, p2)) = (self.point(l1), self.point(l2));
        if b1 == b2 {
            p1 < p2
        } else {
            self.intra[f].get(b1, b2)
        }
    }

    /// The program order `<P` of Defn. 2(2): returns `true` when, in
    /// every execution in which both statements occur, `l1` executes
    /// before `l2` — exact for labels that execute at most once.
    ///
    /// Soundiness: a label stands for *all* dynamic instances of its
    /// statement. For functions invoked from several sites the merged
    /// relation can hold in both directions (one instance each way) and
    /// need not be transitive across mixed contexts; `program_order`
    /// then resolves a pair to the first true direction. Clone-based
    /// context sensitivity ([`crate::clone_contexts`]) splits such
    /// labels per call site, restoring a strict partial order — the
    /// same remedy the paper's clone-depth-bounded summaries apply.
    pub fn happens_before(&self, l1: Label, l2: Label) -> bool {
        if l1 == l2 {
            return false;
        }
        let (f1, f2) = (self.prog.func_of(l1).index(), self.prog.func_of(l2).index());
        if !self.func_follow.get(f1, f2) {
            return false;
        }
        (f1 == f2 && self.intra_follows(f1, l1, l2))
            || self.asc_desc.get(f1, f2)
            || (self.desc_from.get(f1, f2) && self.descends_after(f1, l1, f2))
            || (self.asc_into.get(f1, f2) && self.ascends_before(f1, f2, l2))
    }

    /// Condition 2: a call or fork of `f1` at or after `l1` descends
    /// into `f2`.
    fn descends_after(&self, f1: usize, l1: Label, f2: usize) -> bool {
        let (b1, p1) = self.point(l1);
        let intra = &self.intra[f1];
        self.down.of(f1).any(|i| {
            let m = self.down.sites[i];
            self.down.rows.get(i, f2)
                && if m.block as usize == b1 {
                    m.pos >= p1
                } else {
                    intra.get(b1, m.block as usize)
                }
        })
    }

    /// Condition 4: some site of `Asc(f1)` in `f2` is ordered before
    /// `l2` (or is the join site `l2`).
    fn ascends_before(&self, f1: usize, f2: usize, l2: Label) -> bool {
        let (b2, p2) = self.point(l2);
        let intra = &self.intra[f2];
        self.up.of(f2).any(|i| {
            let s = self.up.sites[i];
            self.up.rows.get(i, f1)
                && if s.block as usize == b2 {
                    s.pos <= p2
                } else {
                    intra.get(s.block as usize, b2)
                }
        })
    }

    /// Convenience: the pairwise program-order relation for `Φ_po`
    /// generation (§5.1). Returns `Some(true)` for `l1 <P l2`,
    /// `Some(false)` for `l2 <P l1`, `None` when unordered.
    ///
    /// When the merged-label relation holds in *both* directions
    /// (distinct dynamic instances of a re-invoked function), the pair
    /// is canonicalized by label order so the answer is independent of
    /// argument order.
    pub fn program_order(&self, l1: Label, l2: Label) -> Option<bool> {
        match (self.happens_before(l1, l2), self.happens_before(l2, l1)) {
            (true, true) => Some(l1 < l2),
            (true, false) => Some(true),
            (false, true) => Some(false),
            (false, false) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::program::Program;

    fn find(prog: &Program, pred: impl Fn(&Inst) -> bool) -> Label {
        prog.labels().find(|&l| pred(prog.inst(l))).unwrap()
    }

    #[test]
    fn straightline_order() {
        let prog = parse("fn main() { p = alloc o; free p; use p; }").unwrap();
        let cg = CallGraph::build(&prog);
        let og = OrderGraph::build(&prog, &cg);
        let free = prog.free_sites()[0];
        let deref = prog.deref_sites()[0];
        assert!(og.happens_before(free, deref));
        assert!(!og.happens_before(deref, free));
        assert_eq!(og.program_order(free, deref), Some(true));
        assert_eq!(og.program_order(deref, free), Some(false));
    }

    #[test]
    fn branch_arms_are_unordered() {
        let prog = parse("fn main() { p = alloc o; if (c) { free p; } else { use p; } }").unwrap();
        let cg = CallGraph::build(&prog);
        let og = OrderGraph::build(&prog, &cg);
        let free = prog.free_sites()[0];
        let deref = prog.deref_sites()[0];
        assert_eq!(og.program_order(free, deref), None);
    }

    #[test]
    fn call_descends_into_callee() {
        let prog = parse(
            "fn main() { p = alloc o; call f(p); }
             fn f(x) { use x; }",
        )
        .unwrap();
        let cg = CallGraph::build(&prog);
        let og = OrderGraph::build(&prog, &cg);
        let alloc = find(&prog, |i| matches!(i, Inst::Alloc { .. }));
        let deref = prog.deref_sites()[0];
        assert!(og.happens_before(alloc, deref));
        assert!(!og.happens_before(deref, alloc));
    }

    #[test]
    fn return_ascends_to_caller_continuation() {
        let prog = parse(
            "fn main() { p = alloc o; call f(p); use p; }
             fn f(x) { free x; }",
        )
        .unwrap();
        let cg = CallGraph::build(&prog);
        let og = OrderGraph::build(&prog, &cg);
        let free = prog.free_sites()[0];
        let deref = prog.deref_sites()[0];
        assert!(og.happens_before(free, deref));
        assert!(!og.happens_before(deref, free));
    }

    #[test]
    fn fork_orders_parent_prefix_before_child() {
        let prog = parse(
            "fn main() { p = alloc o; free p; fork t w(p); use p; }
             fn w(x) { x2 = x; }",
        )
        .unwrap();
        let cg = CallGraph::build(&prog);
        let og = OrderGraph::build(&prog, &cg);
        let free = prog.free_sites()[0];
        let child = find(&prog, |i| matches!(i, Inst::Copy { .. }));
        // free is before the fork, so it precedes everything in the child.
        assert!(og.happens_before(free, child));
        // The parent's post-fork statement is NOT ordered w.r.t. the child.
        let deref = prog.deref_sites()[0];
        assert_eq!(og.program_order(deref, child), None);
    }

    #[test]
    fn join_orders_child_before_parent_suffix() {
        let prog = parse(
            "fn main() { p = alloc o; fork t w(p); join t; use p; }
             fn w(x) { free x; }",
        )
        .unwrap();
        let cg = CallGraph::build(&prog);
        let og = OrderGraph::build(&prog, &cg);
        let free = prog.free_sites()[0];
        let deref = prog.deref_sites()[0];
        assert!(og.happens_before(free, deref));
        assert_eq!(og.program_order(deref, free), Some(false));
    }

    #[test]
    fn unjoined_sibling_threads_are_unordered() {
        let prog = parse(
            "fn main() { p = alloc o; fork t1 w1(p); fork t2 w2(p); }
             fn w1(x) { free x; }
             fn w2(y) { use y; }",
        )
        .unwrap();
        let cg = CallGraph::build(&prog);
        let og = OrderGraph::build(&prog, &cg);
        let free = prog.free_sites()[0];
        let deref = prog.deref_sites()[0];
        assert_eq!(og.program_order(free, deref), None);
    }

    #[test]
    fn joined_thread_ordered_before_later_fork() {
        let prog = parse(
            "fn main() { p = alloc o; fork t1 w1(p); join t1; fork t2 w2(p); }
             fn w1(x) { free x; }
             fn w2(y) { use y; }",
        )
        .unwrap();
        let cg = CallGraph::build(&prog);
        let og = OrderGraph::build(&prog, &cg);
        let free = prog.free_sites()[0];
        let deref = prog.deref_sites()[0];
        // w1 joins before w2 forks, so w1's free precedes w2's use.
        assert!(og.happens_before(free, deref));
    }

    #[test]
    fn fork_statement_precedes_child_statements() {
        let prog = parse(
            "fn main() { p = alloc o; fork t w(p); }
             fn w(x) { use x; }",
        )
        .unwrap();
        let cg = CallGraph::build(&prog);
        let og = OrderGraph::build(&prog, &cg);
        let fork = find(&prog, |i| matches!(i, Inst::Fork { .. }));
        let deref = prog.deref_sites()[0];
        assert!(og.happens_before(fork, deref));
    }
}
