//! The interprocedural statement order graph.
//!
//! [`OrderGraph::happens_before`] decides the program order `<P` of
//! Defn. 2(2): control flow within a thread plus fork/join
//! synchronization across threads. Because bounded programs have acyclic
//! CFGs and call graphs, may-reachability coincides with
//! ordered-whenever-co-executed, which is exactly the relation the
//! partial-order constraints `Φ_po` of §5.1 need.
//!
//! Queries are answered on demand with a worklist over `(label)` items:
//!
//! * **intra** — labels after `l` in its function (block-DAG reach);
//! * **descend** — a call or fork site after `l` orders `l` before every
//!   statement of every function transitively reachable from the callee;
//! * **ascend** — on return, execution continues after each call site of
//!   the current function; for a thread entry, after the thread's join
//!   site.

use std::collections::{HashMap, HashSet};

use parking_lot::Mutex;

use crate::callgraph::CallGraph;
use crate::ids::{FuncId, Label};
use crate::inst::Inst;
use crate::program::Program;

/// Per-function label-level reachability over the block DAG.
#[derive(Debug)]
struct IntraReach {
    /// Labels of the function in a stable order.
    labels: Vec<Label>,
    /// Dense block-level reachability: `block_reach[a]` contains `b` iff
    /// block `b` is reachable from block `a` in one or more steps.
    block_reach: Vec<Vec<bool>>,
}

impl IntraReach {
    fn compute(prog: &Program, f: FuncId) -> Self {
        let func = prog.func(f);
        let n = func.blocks.len();
        let mut block_reach = vec![vec![false; n]; n];
        // DFS from each block (functions are small; O(B²) is fine).
        #[allow(clippy::needless_range_loop)]
        for start in 0..n {
            let mut work = vec![start];
            while let Some(b) = work.pop() {
                for succ in func.blocks[b].term.successors() {
                    let s = succ.index();
                    if !block_reach[start][s] {
                        block_reach[start][s] = true;
                        work.push(s);
                    }
                }
            }
        }
        IntraReach {
            labels: func.labels().collect(),
            block_reach,
        }
    }

    /// Whether `l2` strictly follows `l1` on some control-flow path;
    /// `block_pos[l]` is the index of `l` within its block.
    fn reaches(&self, prog: &Program, block_pos: &[u32], l1: Label, l2: Label) -> bool {
        if l1 == l2 {
            return false;
        }
        let (b1, b2) = (prog.stmt(l1).block, prog.stmt(l2).block);
        if b1 == b2 {
            return block_pos[l1.index()] < block_pos[l2.index()];
        }
        self.block_reach[b1.index()][b2.index()]
    }

    /// All labels strictly after `l` in this function.
    fn after<'a>(
        &'a self,
        prog: &'a Program,
        block_pos: &'a [u32],
        l: Label,
    ) -> impl Iterator<Item = Label> + 'a {
        self.labels
            .iter()
            .copied()
            .filter(move |&m| self.reaches(prog, block_pos, l, m))
    }
}

/// Interprocedural happens-before over the bounded program.
#[derive(Debug)]
pub struct OrderGraph<'p> {
    prog: &'p Program,
    cg: &'p CallGraph,
    intra: Vec<IntraReach>,
    /// `block_pos[l]` — the index of label `l` within its block.
    block_pos: Vec<u32>,
    /// `join_of_entry[f]` — join sites whose thread has `f` among its
    /// entry functions.
    join_of_entry: Vec<Vec<Label>>,
    /// Function-level may-follow closure: `func_follow[f]` contains `g`
    /// iff some happens-before chain starting in `f` can reach a label
    /// of `g` (call/fork descent, return-to-caller, entry-to-join).
    /// A necessary condition used to reject most queries in O(1).
    func_follow: Vec<Vec<bool>>,
    /// Memoized query results; queries repeat heavily during Alg. 2's
    /// edge construction and `Φ_po` generation. A mutex (not `RefCell`)
    /// so the graph is `Sync` and the sharded interference rounds can
    /// query it from worker threads; results are pure, so racing
    /// fills are idempotent and scheduling cannot affect answers.
    cache: Mutex<HashMap<(Label, Label), bool>>,
}

impl<'p> OrderGraph<'p> {
    /// Builds the order graph for a program and its call graph.
    pub fn build(prog: &'p Program, cg: &'p CallGraph) -> Self {
        let intra = (0..prog.funcs.len())
            .map(|i| IntraReach::compute(prog, FuncId::new(i as u32)))
            .collect();
        let mut block_pos = vec![0u32; prog.stmt_count()];
        for func in &prog.funcs {
            for block in &func.blocks {
                for (i, &l) in block.stmts.iter().enumerate() {
                    block_pos[l.index()] = i as u32;
                }
            }
        }
        let mut join_of_entry: Vec<Vec<Label>> = vec![Vec::new(); prog.funcs.len()];
        for info in prog.threads.iter() {
            let (Some(fork), Some(join)) = (info.fork_site, info.join_site) else {
                continue;
            };
            for &entry in cg.fork_targets.get(&fork).map_or(&[][..], Vec::as_slice) {
                join_of_entry[entry.index()].push(join);
            }
        }
        // Function-level follow graph: call/fork descent, return to
        // callers, thread entry to the join's function.
        let n = prog.funcs.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for l in prog.labels() {
            match prog.inst(l) {
                Inst::Call { .. } | Inst::Fork { .. } => {
                    let f = prog.func_of(l).index();
                    for &g in cg.targets(l) {
                        adj[f].push(g.index());
                    }
                }
                _ => {}
            }
        }
        for (g, callers) in cg.callers_of.iter().enumerate() {
            for &(caller, _) in callers {
                adj[g].push(caller.index());
            }
        }
        for (f, joins) in join_of_entry.iter().enumerate() {
            for &j in joins {
                adj[f].push(prog.func_of(j).index());
            }
        }
        let mut func_follow = vec![vec![false; n]; n];
        #[allow(clippy::needless_range_loop)]
        for start in 0..n {
            let mut work = vec![start];
            func_follow[start][start] = true;
            while let Some(x) = work.pop() {
                for &y in &adj[x] {
                    if !func_follow[start][y] {
                        func_follow[start][y] = true;
                        work.push(y);
                    }
                }
            }
        }
        OrderGraph {
            prog,
            cg,
            intra,
            block_pos,
            join_of_entry,
            func_follow,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Whether `l2` follows `l1` within the same function's CFG.
    pub fn intra_reaches(&self, l1: Label, l2: Label) -> bool {
        let f1 = self.prog.func_of(l1);
        if f1 != self.prog.func_of(l2) {
            return false;
        }
        self.intra[f1.index()].reaches(self.prog, &self.block_pos, l1, l2)
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
        // Necessary condition: the target's function must be follow-
        // reachable from the source's function.
        let (f1, f2) = (self.prog.func_of(l1), self.prog.func_of(l2));
        if !self.func_follow[f1.index()][f2.index()] {
            return false;
        }
        if let Some(&hit) = self.cache.lock().get(&(l1, l2)) {
            return hit;
        }
        let result = self.happens_before_uncached(l1, l2);
        self.cache.lock().insert((l1, l2), result);
        result
    }

    fn happens_before_uncached(&self, l1: Label, l2: Label) -> bool {
        // Worklist items are "execution has passed label `l`". The flag
        // records whether the item's *own* callees still lie ahead: true
        // only for the query's origin (a call event precedes its callee
        // body). A call site reached by *ascending* has already returned
        // — re-descending into it would fabricate the reverse order and
        // break antisymmetry.
        let mut visited: HashSet<Label> = HashSet::new();
        let mut work: Vec<(Label, bool)> = vec![(l1, true)];
        visited.insert(l1);
        let target_func = self.prog.func_of(l2);
        while let Some((l, descend_self)) = work.pop() {
            let f = self.prog.func_of(l);
            let ir = &self.intra[f.index()];
            if descend_self && self.descends_to(l, target_func) {
                return true;
            }
            for m in ir.after(self.prog, &self.block_pos, l) {
                if m == l2 {
                    return true;
                }
                if self.descends_to(m, target_func) {
                    return true;
                }
            }
            // Ascend: after this function returns, execution resumes
            // after each of its call sites; thread entries resume at the
            // thread's join site.
            for &(_caller, site) in &self.cg.callers_of[f.index()] {
                if visited.insert(site) {
                    work.push((site, false));
                }
            }
            for &join in &self.join_of_entry[f.index()] {
                if join == l2 {
                    return true;
                }
                if visited.insert(join) {
                    work.push((join, true));
                }
            }
        }
        false
    }

    /// Whether the statement at `m` (if a call or fork) can transitively
    /// reach `target` through its callees.
    fn descends_to(&self, m: Label, target: FuncId) -> bool {
        match self.prog.inst(m) {
            Inst::Call { .. } | Inst::Fork { .. } => self
                .cg
                .targets(m)
                .iter()
                .any(|&g| self.cg.reaches(g, target)),
            _ => false,
        }
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
        let prog =
            parse("fn main() { p = alloc o; if (c) { free p; } else { use p; } }").unwrap();
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
