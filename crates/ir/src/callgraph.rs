//! Thread call-graph construction (§6).
//!
//! Practical programs fork through function pointers, so a call graph
//! cannot be read off the syntax. Following the paper, indirect call and
//! fork targets are resolved with a Steensgaard-style unification
//! points-to analysis — near-linear time, flow-insensitive — which prior
//! work showed is sufficient for precise call graphs of C-like programs.
//! Virtual dispatch in the paper is handled by class-hierarchy analysis;
//! our IR models it as function pointers, which the same machinery
//! resolves.

use rustc_hash::FxHashMap;

use crate::ids::{FuncId, Label, VarId};
use crate::inst::{Callee, Inst};
use crate::program::Program;

/// A Steensgaard (unification-based) points-to analysis over top-level
/// variables, abstract objects and function constants.
///
/// Each equivalence class has at most one pointee class; assignments
/// unify. The analysis runs in near-linear time (§6 cites Steensgaard
/// 1996) and is used only for call-graph construction — the precise,
/// guarded points-to information comes from Alg. 1 in `canary-dataflow`.
#[derive(Debug)]
pub struct Steensgaard {
    /// Union-find parent table over node indices.
    parent: Vec<u32>,
    /// `pointee[class]` — the class this class points to, if any.
    pointee: FxHashMap<u32, u32>,
    /// Number of variable nodes (variables come first in node space).
    n_vars: u32,
    /// Node index of each function constant.
    func_node: Vec<u32>,
    /// For each class representative, the function constants inside it.
    funcs_in_class: FxHashMap<u32, Vec<FuncId>>,
    /// Unions that merged two distinct classes so far; with
    /// `parent.len()` it measures a pass's progress.
    merges: usize,
}

impl Steensgaard {
    /// Runs the analysis over the whole program.
    pub fn run(prog: &Program) -> Self {
        let n_vars = prog.vars.len() as u32;
        let n_objs = prog.objs.len() as u32;
        let n_funcs = prog.funcs.len() as u32;
        // Node layout: [vars][objs][funcs][fresh...]
        let total = n_vars + n_objs + n_funcs;
        let mut s = Steensgaard {
            parent: (0..total).collect(),
            pointee: FxHashMap::default(),
            n_vars,
            func_node: ((n_vars + n_objs)..total).collect(),
            funcs_in_class: FxHashMap::default(),
            merges: 0,
        };
        // Unification is monotone, so re-running the transfer pass lets
        // late `FuncAddr` bindings flow into earlier indirect call sites.
        // Classes only ever merge and pointees are only ever created, so
        // a pass that does neither leaves the state unchanged: that pass
        // is the fixpoint, however long the fnptr chain.
        loop {
            let progress = s.merges + s.parent.len();
            for l in prog.labels() {
                s.transfer(prog, l);
            }
            if s.merges + s.parent.len() == progress {
                break;
            }
        }
        // Point every node straight at its root, so the `&self` queries
        // after the run take one hop.
        for x in 0..s.parent.len() as u32 {
            let root = s.find_mut(x);
            s.parent[x as usize] = root;
        }
        // Index function constants by their final representative.
        for f in 0..n_funcs {
            let rep = s.find(s.func_node[f as usize]);
            s.funcs_in_class
                .entry(rep)
                .or_default()
                .push(FuncId::new(f));
        }
        s
    }

    fn var_node(&self, v: VarId) -> u32 {
        v.0
    }

    fn obj_node(&self, o: crate::ids::ObjId) -> u32 {
        self.n_vars + o.0
    }

    /// The root of `x`'s class, after the run (when every node points
    /// at its root).
    fn find(&self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    /// The root of `x`'s class, halving the path on the way: every node
    /// visited is relinked to its grandparent. Roots never change, so
    /// neither do representatives.
    fn find_mut(&mut self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    fn union(&mut self, a: u32, b: u32) -> u32 {
        let (ra, rb) = (self.find_mut(a), self.find_mut(b));
        if ra == rb {
            return ra;
        }
        self.parent[rb as usize] = ra;
        self.merges += 1;
        // Unifying two classes must also unify their pointees.
        let pa = self.pointee.remove(&ra);
        let pb = self.pointee.remove(&rb);
        match (pa, pb) {
            (Some(x), Some(y)) => {
                let p = self.union(x, y);
                let r = self.find_mut(ra);
                self.pointee.insert(r, p);
            }
            (Some(x), None) | (None, Some(x)) => {
                let r = self.find_mut(ra);
                let p = self.find_mut(x);
                self.pointee.insert(r, p);
            }
            (None, None) => {}
        }
        self.find_mut(ra)
    }

    /// The pointee class of `x`'s class, creating a fresh one on demand.
    fn deref_class(&mut self, x: u32) -> u32 {
        let r = self.find_mut(x);
        if let Some(&p) = self.pointee.get(&r) {
            return self.find_mut(p);
        }
        let fresh = self.parent.len() as u32;
        self.parent.push(fresh);
        self.pointee.insert(r, fresh);
        fresh
    }

    fn transfer(&mut self, prog: &Program, l: Label) {
        match prog.inst(l) {
            Inst::Alloc { dst, obj } => {
                let d = self.deref_class(self.var_node(*dst));
                let o = self.obj_node(*obj);
                self.union(d, o);
            }
            Inst::FuncAddr { dst, func } => {
                let d = self.deref_class(self.var_node(*dst));
                let f = self.func_node[func.index()];
                self.union(d, f);
            }
            Inst::Copy { dst, src } | Inst::Un { dst, src, .. } => {
                self.union(self.var_node(*dst), self.var_node(*src));
            }
            Inst::Bin { dst, lhs, rhs, .. } => {
                self.union(self.var_node(*dst), self.var_node(*lhs));
                self.union(self.var_node(*dst), self.var_node(*rhs));
            }
            Inst::Load { dst, addr } => {
                let p = self.deref_class(self.var_node(*addr));
                self.union(self.var_node(*dst), p);
            }
            Inst::Store { addr, src } => {
                let p = self.deref_class(self.var_node(*addr));
                self.union(p, self.var_node(*src));
            }
            Inst::Call {
                dsts, callee, args, ..
            } => {
                self.bind_call(prog, callee, args, dsts);
            }
            Inst::Fork { entry, args, .. } => {
                self.bind_call(prog, entry, args, &[]);
            }
            _ => {}
        }
    }

    /// Unifies actuals with formals (and returns with destinations) for
    /// every possible target of the call.
    fn bind_call(&mut self, prog: &Program, callee: &Callee, args: &[VarId], dsts: &[VarId]) {
        let targets: Vec<FuncId> = match callee {
            Callee::Direct(f) => vec![*f],
            // Resolve with the current classes. A `FuncAddr` that joins
            // the pointee class later in this pass binds its formals on
            // the next pass, which `run` repeats until nothing changes.
            Callee::Indirect(fp) => self.current_targets(*fp),
        };
        for f in targets {
            let func = prog.func(f);
            for (i, &a) in args.iter().enumerate() {
                if let Some(&p) = func.params.get(i) {
                    self.union(self.var_node(a), self.var_node(p));
                }
            }
            // Unify destinations with every returned value.
            for l in func.labels() {
                if let Inst::Return { vals } = prog.inst(l) {
                    for (i, &d) in dsts.iter().enumerate() {
                        if let Some(&r) = vals.get(i) {
                            self.union(self.var_node(d), self.var_node(r));
                        }
                    }
                }
            }
        }
    }

    /// The functions `fp` may target with the classes as they stand
    /// mid-run, in `FuncId` order.
    fn current_targets(&mut self, fp: VarId) -> Vec<FuncId> {
        let r = self.find_mut(self.var_node(fp));
        let Some(&p) = self.pointee.get(&r) else {
            return Vec::new();
        };
        let p = self.find_mut(p);
        (0..self.func_node.len())
            .filter(|&i| self.find_mut(self.func_node[i]) == p)
            .map(|i| FuncId::new(i as u32))
            .collect()
    }

    /// The functions a function-pointer variable may target, in
    /// `FuncId` order.
    pub fn func_targets(&self, fp: VarId) -> Vec<FuncId> {
        let r = self.find(self.var_node(fp));
        let Some(&p) = self.pointee.get(&r) else {
            return Vec::new();
        };
        self.funcs_in_class
            .get(&self.find(p))
            .cloned()
            .unwrap_or_default()
    }

    /// Whether two variables may point to the same class (unification
    /// aliasing).
    pub fn may_alias(&self, a: VarId, b: VarId) -> bool {
        let (ra, rb) = (self.find(self.var_node(a)), self.find(self.var_node(b)));
        if ra == rb {
            return true;
        }
        match (self.pointee.get(&ra), self.pointee.get(&rb)) {
            (Some(&x), Some(&y)) => self.find(x) == self.find(y),
            _ => false,
        }
    }
}

/// The thread call graph (§4.1): the sequential call graph extended with
/// resolved fork edges, plus the bottom-up function order Alg. 1 walks.
#[derive(Debug)]
pub struct CallGraph {
    /// Resolved targets of every call site.
    pub call_targets: FxHashMap<Label, Vec<FuncId>>,
    /// Resolved entry functions of every fork site.
    pub fork_targets: FxHashMap<Label, Vec<FuncId>>,
    /// Direct call edges `f → g` (no fork edges).
    pub calls: Vec<Vec<FuncId>>,
    /// Direct call-site labels grouped by callee: `callers_of[g] = [(f, site)]`.
    pub callers_of: Vec<Vec<(FuncId, Label)>>,
    /// Functions in bottom-up (reverse topological) order of the call
    /// graph; recursion cycles are broken arbitrarily (bounded programs,
    /// §3.1).
    pub bottom_up: Vec<FuncId>,
    /// `closure[f]` — functions reachable from `f` via call *and* fork
    /// edges, including `f` itself.
    pub closure: Vec<Vec<FuncId>>,
}

impl CallGraph {
    /// Builds the thread call graph, resolving indirect callees with a
    /// Steensgaard analysis.
    pub fn build(prog: &Program) -> Self {
        let steens = Steensgaard::run(prog);
        Self::build_with(prog, &steens)
    }

    /// Builds the thread call graph with a pre-computed Steensgaard
    /// analysis.
    pub fn build_with(prog: &Program, steens: &Steensgaard) -> Self {
        let n = prog.funcs.len();
        let mut call_targets = FxHashMap::default();
        let mut fork_targets = FxHashMap::default();
        let mut calls: Vec<Vec<FuncId>> = vec![Vec::new(); n];
        let mut callers_of: Vec<Vec<(FuncId, Label)>> = vec![Vec::new(); n];
        let mut all_edges: Vec<Vec<FuncId>> = vec![Vec::new(); n];

        for l in prog.labels() {
            let f = prog.func_of(l);
            match prog.inst(l) {
                Inst::Call { callee, .. } => {
                    let targets = resolve(callee, steens);
                    for &g in &targets {
                        if !calls[f.index()].contains(&g) {
                            calls[f.index()].push(g);
                        }
                        callers_of[g.index()].push((f, l));
                        if !all_edges[f.index()].contains(&g) {
                            all_edges[f.index()].push(g);
                        }
                    }
                    call_targets.insert(l, targets);
                }
                Inst::Fork { entry, .. } => {
                    let targets = resolve(entry, steens);
                    for &g in &targets {
                        if !all_edges[f.index()].contains(&g) {
                            all_edges[f.index()].push(g);
                        }
                    }
                    fork_targets.insert(l, targets);
                }
                _ => {}
            }
        }

        // Bottom-up order over direct-call edges: post-order DFS from
        // every root yields callees before callers.
        let mut bottom_up = Vec::with_capacity(n);
        let mut state = vec![0u8; n];
        for root in 0..n {
            if state[root] != 0 {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
            state[root] = 1;
            while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
                let succs = &calls[node];
                if *idx < succs.len() {
                    let next = succs[*idx].index();
                    *idx += 1;
                    if state[next] == 0 {
                        state[next] = 1;
                        stack.push((next, 0));
                    }
                } else {
                    state[node] = 2;
                    bottom_up.push(FuncId::new(node as u32));
                    stack.pop();
                }
            }
        }

        // Transitive closure over call + fork edges.
        let mut closure: Vec<Vec<FuncId>> = vec![Vec::new(); n];
        for f in 0..n {
            let mut seen = vec![false; n];
            let mut work = vec![f];
            seen[f] = true;
            while let Some(g) = work.pop() {
                for &h in &all_edges[g] {
                    if !seen[h.index()] {
                        seen[h.index()] = true;
                        work.push(h.index());
                    }
                }
            }
            closure[f] = (0..n)
                .filter(|&i| seen[i])
                .map(|i| FuncId::new(i as u32))
                .collect();
        }

        CallGraph {
            call_targets,
            fork_targets,
            calls,
            callers_of,
            bottom_up,
            closure,
        }
    }

    /// Groups functions into the bottom-up levels Alg. 1 walks.
    ///
    /// Functions are condensed into strongly connected components over
    /// the direct-call edges (a recursion cycle is one unit of work,
    /// since its members' summaries converge together), and components
    /// into levels: a component sits one level above the highest
    /// component it calls into, so when a level runs, every callee
    /// summary from lower levels is already published and tasks within
    /// the level are mutually independent. Fork edges don't constrain
    /// the schedule — Alg. 1 deliberately ignores forked-callee
    /// summaries (§4.1), so a fork target needs no summary before its
    /// forker runs.
    ///
    /// Returns `levels[level][task] = members`: levels ascending
    /// (callees first), tasks within a level ordered by the earliest
    /// [`CallGraph::bottom_up`] position of their members, members in
    /// `bottom_up` order. Every piece of the schedule is a pure
    /// function of the graph, which is what makes the order Alg. 1
    /// interns terms and VFG nodes in — and therefore its output —
    /// deterministic.
    pub fn bottom_up_levels(&self) -> Vec<Vec<Vec<FuncId>>> {
        let n = self.calls.len();
        let pos_of: FxHashMap<FuncId, usize> = self
            .bottom_up
            .iter()
            .enumerate()
            .map(|(i, &f)| (f, i))
            .collect();

        // Kosaraju's second pass: sweep vertices by decreasing DFS
        // finish time (bottom_up reversed) over the transposed graph;
        // each sweep tree is one SCC.
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (f, gs) in self.calls.iter().enumerate() {
            for g in gs {
                rev[g.index()].push(f);
            }
        }
        let mut comp_of: Vec<usize> = vec![usize::MAX; n];
        let mut comps: Vec<Vec<usize>> = Vec::new();
        for &f in self.bottom_up.iter().rev() {
            if comp_of[f.index()] != usize::MAX {
                continue;
            }
            let c = comps.len();
            let mut members = Vec::new();
            let mut stack = vec![f.index()];
            comp_of[f.index()] = c;
            while let Some(x) = stack.pop() {
                members.push(x);
                for &y in &rev[x] {
                    if comp_of[y] == usize::MAX {
                        comp_of[y] = c;
                        stack.push(y);
                    }
                }
            }
            comps.push(members);
        }

        // Components come out in reverse topological order of the
        // condensation (callers before callees), so a reverse sweep
        // sees every callee component's level before the caller's.
        let mut level_of: Vec<usize> = vec![0; comps.len()];
        for (c, members) in comps.iter().enumerate().rev() {
            let mut level = 0;
            for &f in members {
                for g in &self.calls[f] {
                    let cg = comp_of[g.index()];
                    if cg != c {
                        level = level.max(level_of[cg] + 1);
                    }
                }
            }
            level_of[c] = level;
        }

        let n_levels = level_of.iter().map(|&l| l + 1).max().unwrap_or(0);
        let mut levels: Vec<Vec<Vec<FuncId>>> = vec![Vec::new(); n_levels];
        let mut tasks: Vec<Vec<FuncId>> = comps
            .iter()
            .map(|members| {
                let mut ms: Vec<FuncId> = members.iter().map(|&i| FuncId::new(i as u32)).collect();
                ms.sort_by_key(|f| pos_of[f]);
                ms
            })
            .collect();
        let mut order: Vec<usize> = (0..comps.len()).collect();
        order.sort_by_key(|&c| pos_of[&tasks[c][0]]);
        for c in order {
            let level = level_of[c];
            levels[level].push(std::mem::take(&mut tasks[c]));
        }
        levels
    }

    /// Whether `g` is reachable from `f` via call/fork edges (reflexive).
    pub fn reaches(&self, f: FuncId, g: FuncId) -> bool {
        // Closure rows are built in ascending `FuncId` order.
        self.closure[f.index()].binary_search(&g).is_ok()
    }

    /// Resolved targets of the call or fork at `l` (empty for other
    /// statement kinds).
    pub fn targets(&self, l: Label) -> &[FuncId] {
        self.call_targets
            .get(&l)
            .or_else(|| self.fork_targets.get(&l))
            .map_or(&[], Vec::as_slice)
    }
}

fn resolve(callee: &Callee, steens: &Steensgaard) -> Vec<FuncId> {
    match callee {
        Callee::Direct(f) => vec![*f],
        Callee::Indirect(fp) => steens.func_targets(*fp),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn direct_calls_form_edges_and_bottom_up_order() {
        let prog = parse(
            "fn main() { call a(); }
             fn a() { call b(); }
             fn b() { skip; }",
        )
        .unwrap();
        let cg = CallGraph::build(&prog);
        let main = prog.func_by_name("main").unwrap();
        let a = prog.func_by_name("a").unwrap();
        let b = prog.func_by_name("b").unwrap();
        assert!(cg.calls[main.index()].contains(&a));
        assert!(cg.calls[a.index()].contains(&b));
        let pos = |f: FuncId| cg.bottom_up.iter().position(|&x| x == f).unwrap();
        assert!(pos(b) < pos(a));
        assert!(pos(a) < pos(main));
        assert!(cg.reaches(main, b));
        assert!(!cg.reaches(b, main));
    }

    #[test]
    fn fork_through_function_pointer_resolves() {
        let prog = parse(
            "fn main() { fp = fnptr worker; p = alloc o; fork t fp(p); }
             fn worker(x) { use x; }",
        )
        .unwrap();
        let cg = CallGraph::build(&prog);
        let worker = prog.func_by_name("worker").unwrap();
        let fork_site = prog
            .labels()
            .find(|&l| matches!(prog.inst(l), Inst::Fork { .. }))
            .unwrap();
        assert_eq!(cg.fork_targets[&fork_site], vec![worker]);
    }

    #[test]
    fn fnptr_through_memory_resolves() {
        // fp stored to heap, reloaded, then forked: Steensgaard
        // unification must see through the load/store.
        let prog = parse(
            "fn main() {
                 slot = alloc cell;
                 fp = fnptr worker;
                 *slot = fp;
                 fp2 = *slot;
                 fork t fp2();
             }
             fn worker() { skip; }",
        )
        .unwrap();
        let cg = CallGraph::build(&prog);
        let worker = prog.func_by_name("worker").unwrap();
        let fork_site = prog
            .labels()
            .find(|&l| matches!(prog.inst(l), Inst::Fork { .. }))
            .unwrap();
        assert_eq!(cg.fork_targets[&fork_site], vec![worker]);
    }

    #[test]
    fn two_fnptrs_in_one_cell_give_two_targets() {
        let prog = parse(
            "fn main() {
                 slot = alloc cell;
                 f1 = fnptr w1;
                 f2 = fnptr w2;
                 if (c) { *slot = f1; } else { *slot = f2; }
                 g = *slot;
                 call g();
             }
             fn w1() { skip; }
             fn w2() { skip; }",
        )
        .unwrap();
        let cg = CallGraph::build(&prog);
        let call_site = prog
            .labels()
            .find(|&l| matches!(prog.inst(l), Inst::Call { .. }))
            .unwrap();
        let mut targets = cg.call_targets[&call_site].clone();
        targets.sort();
        assert_eq!(targets.len(), 2);
    }

    #[test]
    fn bottom_up_levels_order_callees_first() {
        let prog = parse(
            "fn main() { call a(); call b(); }
             fn a() { call c(); }
             fn b() { call c(); }
             fn c() { skip; }",
        )
        .unwrap();
        let cg = CallGraph::build(&prog);
        let levels = cg.bottom_up_levels();
        let main = prog.func_by_name("main").unwrap();
        let a = prog.func_by_name("a").unwrap();
        let b = prog.func_by_name("b").unwrap();
        let c = prog.func_by_name("c").unwrap();
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0], vec![vec![c]]);
        // a and b are independent: same level, two tasks, in bottom_up
        // order.
        assert_eq!(levels[1].len(), 2);
        let pos = |f: FuncId| cg.bottom_up.iter().position(|&x| x == f).unwrap();
        let (first, second) = if pos(a) < pos(b) { (a, b) } else { (b, a) };
        assert_eq!(levels[1], vec![vec![first], vec![second]]);
        assert_eq!(levels[2], vec![vec![main]]);
    }

    #[test]
    fn bottom_up_levels_group_recursion_into_one_task() {
        let prog = parse(
            "fn main() { call a(); }
             fn a() { call b(); }
             fn b() { call a(); }",
        )
        .unwrap();
        let cg = CallGraph::build(&prog);
        let levels = cg.bottom_up_levels();
        let a = prog.func_by_name("a").unwrap();
        let b = prog.func_by_name("b").unwrap();
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].len(), 1);
        let mut scc = levels[0][0].clone();
        scc.sort();
        assert_eq!(scc, vec![a, b]);
    }

    #[test]
    fn bottom_up_levels_cover_every_function_once() {
        let prog = parse(
            "fn main() { fork t w(); call a(); }
             fn w() { call a(); }
             fn a() { skip; }
             fn island() { skip; }",
        )
        .unwrap();
        let cg = CallGraph::build(&prog);
        let levels = cg.bottom_up_levels();
        let mut seen: Vec<FuncId> = levels
            .iter()
            .flat_map(|level| level.iter().flatten().copied())
            .collect();
        seen.sort();
        let mut all: Vec<FuncId> = (0..prog.funcs.len() as u32).map(FuncId::new).collect();
        all.sort();
        assert_eq!(seen, all);
        // Fork edges don't force levels: w forks nothing below a, and
        // main sits above a regardless of its fork of w.
        let a = prog.func_by_name("a").unwrap();
        let level_of = |f: FuncId| {
            levels
                .iter()
                .position(|lvl| lvl.iter().any(|t| t.contains(&f)))
                .unwrap()
        };
        assert_eq!(level_of(a), 0);
        assert!(level_of(prog.func_by_name("main").unwrap()) > 0);
    }

    #[test]
    fn steensgaard_alias_via_copy() {
        let prog = parse("fn main() { p = alloc o; q = p; use q; }").unwrap();
        let s = Steensgaard::run(&prog);
        let main = prog.func_by_name("main").unwrap();
        let p = prog.var_by_name(main, "p").unwrap();
        let q = prog.var_by_name(main, "q").unwrap();
        assert!(s.may_alias(p, q));
    }

    #[test]
    fn steensgaard_distinct_allocs_do_not_alias() {
        let prog = parse("fn main() { p = alloc o1; q = alloc o2; use p; use q; }").unwrap();
        let s = Steensgaard::run(&prog);
        let main = prog.func_by_name("main").unwrap();
        let p = prog.var_by_name(main, "p").unwrap();
        let q = prog.var_by_name(main, "q").unwrap();
        assert!(!s.may_alias(p, q));
    }

    #[test]
    fn call_binds_args_to_params() {
        let prog = parse(
            "fn main() { p = alloc o; call f(p); }
             fn f(x) { use x; }",
        )
        .unwrap();
        let s = Steensgaard::run(&prog);
        let main = prog.func_by_name("main").unwrap();
        let f = prog.func_by_name("f").unwrap();
        let p = prog.var_by_name(main, "p").unwrap();
        let x = prog.var_by_name(f, "x").unwrap();
        assert!(s.may_alias(p, x));
    }

    #[test]
    fn return_binds_to_destination() {
        let prog = parse(
            "fn main() { r = call mk(); use r; }
             fn mk() { p = alloc o; return p; }",
        )
        .unwrap();
        let s = Steensgaard::run(&prog);
        let main = prog.func_by_name("main").unwrap();
        let mk = prog.func_by_name("mk").unwrap();
        let r = prog.var_by_name(main, "r").unwrap();
        let p = prog.var_by_name(mk, "p").unwrap();
        assert!(s.may_alias(r, p));
    }
}
