//! `OrderGraph::happens_before` answers from tables that
//! `OrderGraph::build` fills once. This suite keeps the on-demand
//! worklist walk those tables replaced as the reference and checks that
//! both agree on every ordered label pair of the examples, the
//! generated lean, lean-locks and litmus corpora, a query-family
//! subject, each of these again after context cloning, and hand-written
//! edge cases of the call, fork and join structure.

use std::collections::HashSet;

use canary_ir::{
    clone_contexts, parse, CallGraph, CloneOptions, CondExpr, FuncId, Inst, Label, MhpAnalysis,
    OrderGraph, Program, ProgramBuilder,
};
use canary_workloads::{generate, WorkloadSpec};

/// The order graph is shared by the sharded Alg. 2 rounds and the
/// parallel query families, so it must stay `Send + Sync`.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<OrderGraph<'static>>();
    send_sync::<MhpAnalysis<'static>>();
};

/// The reference: program order decided by a worklist walk per query.
/// Items are "execution has passed label `l`"; the flag says whether
/// the item's own callees still lie ahead, which holds only for the
/// query's origin and for join sites.
struct Walk<'p> {
    prog: &'p Program,
    cg: &'p CallGraph,
    /// `block_reach[f][a][b]` — block `b` of `f` is reachable from `a`
    /// in one or more steps.
    block_reach: Vec<Vec<Vec<bool>>>,
    block_pos: Vec<usize>,
    join_of_entry: Vec<Vec<Label>>,
}

impl<'p> Walk<'p> {
    fn new(prog: &'p Program, cg: &'p CallGraph) -> Self {
        let block_reach = prog
            .funcs
            .iter()
            .map(|func| {
                let n = func.blocks.len();
                let mut reach = vec![vec![false; n]; n];
                for (start, row) in reach.iter_mut().enumerate() {
                    let mut work = vec![start];
                    while let Some(b) = work.pop() {
                        for s in func.blocks[b].term.successors() {
                            if !row[s.index()] {
                                row[s.index()] = true;
                                work.push(s.index());
                            }
                        }
                    }
                }
                reach
            })
            .collect();
        let mut block_pos = vec![0; prog.stmt_count()];
        for func in &prog.funcs {
            for block in &func.blocks {
                for (i, &l) in block.stmts.iter().enumerate() {
                    block_pos[l.index()] = i;
                }
            }
        }
        let mut join_of_entry = vec![Vec::new(); prog.funcs.len()];
        for info in &prog.threads {
            let (Some(fork), Some(join)) = (info.fork_site, info.join_site) else {
                continue;
            };
            for &entry in cg.fork_targets.get(&fork).map_or(&[][..], Vec::as_slice) {
                join_of_entry[entry.index()].push(join);
            }
        }
        Walk {
            prog,
            cg,
            block_reach,
            block_pos,
            join_of_entry,
        }
    }

    /// Whether `l2` strictly follows `l1` in their (common) function.
    fn reaches(&self, l1: Label, l2: Label) -> bool {
        let (s1, s2) = (self.prog.stmt(l1), self.prog.stmt(l2));
        if l1 == l2 || s1.func != s2.func {
            return false;
        }
        if s1.block == s2.block {
            return self.block_pos[l1.index()] < self.block_pos[l2.index()];
        }
        self.block_reach[s1.func.index()][s1.block.index()][s2.block.index()]
    }

    /// Whether the call or fork at `m` reaches `target` through its
    /// callees.
    fn descends_to(&self, m: Label, target: FuncId) -> bool {
        matches!(self.prog.inst(m), Inst::Call { .. } | Inst::Fork { .. })
            && self
                .cg
                .targets(m)
                .iter()
                .any(|&g| self.cg.reaches(g, target))
    }

    fn happens_before(&self, l1: Label, l2: Label) -> bool {
        if l1 == l2 {
            return false;
        }
        let target = self.prog.func_of(l2);
        let mut visited: HashSet<Label> = HashSet::from([l1]);
        let mut work = vec![(l1, true)];
        while let Some((l, descend_self)) = work.pop() {
            let f = self.prog.func_of(l);
            if descend_self && self.descends_to(l, target) {
                return true;
            }
            for m in self.prog.func(f).labels() {
                if self.reaches(l, m) && (m == l2 || self.descends_to(m, target)) {
                    return true;
                }
            }
            // A call site reached by ascending has already returned:
            // re-descending into it would fabricate the reverse order.
            for &(_, site) in &self.cg.callers_of[f.index()] {
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
}

/// Checks the index against the walk on every ordered label pair and
/// returns how many pairs are ordered.
fn agree_on_all_pairs(name: &str, prog: &Program) -> usize {
    let cg = CallGraph::build(prog);
    let og = OrderGraph::build(prog, &cg);
    let walk = Walk::new(prog, &cg);
    let mut ordered = 0;
    for l1 in prog.labels() {
        for l2 in prog.labels() {
            let expected = walk.happens_before(l1, l2);
            assert_eq!(
                og.happens_before(l1, l2),
                expected,
                "{name}: happens_before({l1}, {l2}) disagrees with the walk"
            );
            ordered += usize::from(expected);
        }
    }
    ordered
}

/// Checks `prog` and its context-cloned version.
fn agree_with_and_without_cloning(name: &str, prog: &Program) {
    agree_on_all_pairs(name, prog);
    let cloned = clone_contexts(prog, &CloneOptions::default());
    cloned.validate().unwrap();
    agree_on_all_pairs(&format!("{name} (cloned)"), &cloned);
}

fn parsed(src: &str) -> Program {
    let prog = parse(src).unwrap();
    prog.validate().unwrap();
    prog
}

#[test]
fn index_matches_walk_on_examples() {
    for name in ["audited", "deadlock", "fig2", "fig2_variant", "tso_sb"] {
        let path = format!("{}/examples/{name}.cir", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).unwrap();
        agree_with_and_without_cloning(name, &parsed(&src));
    }
}

#[test]
fn index_matches_walk_on_generated_corpora() {
    for seed in 0..16 {
        for spec in [
            WorkloadSpec::lean(seed),
            WorkloadSpec::lean_locks(seed),
            WorkloadSpec::litmus(seed),
        ] {
            agree_with_and_without_cloning(&spec.name, &generate(&spec).prog);
        }
    }
}

#[test]
fn index_matches_walk_on_a_query_family_subject() {
    agree_with_and_without_cloning("family(4, 10, 6)", &canary_bench::family_subject(4, 10, 6));
}

#[test]
fn index_matches_walk_on_call_and_thread_edge_cases() {
    let cases = [
        (
            "helper called from two sites",
            "fn main() { p = alloc o; call h(p); q = p; call h(p); use p; }
             fn h(y) { free y; z = y; }",
        ),
        (
            "back-to-back calls and forks",
            "fn main() { p = alloc o; call h(p); call k(p); fork t k(p); }
             fn h(y) { free y; }
             fn k(z) { use z; }",
        ),
        (
            "thread entry also called directly",
            "fn main() { p = alloc o; fork t w(p); call w(p); join t; use p; }
             fn w(x) { free x; }",
        ),
        (
            "fork through an unresolved function pointer",
            "fn main(fp) { p = alloc o; fork t fp(p); join t; use p; }
             fn w(x) { free x; }",
        ),
        (
            "join of a never-forked thread",
            "fn main() { p = alloc o; call h(p); join t; use p; }
             fn h(y) { free y; }",
        ),
        (
            "self-fork",
            "fn main() { p = alloc o; fork t w(p); join t; use p; }
             fn w(x) { free x; fork u w(x); join u; use x; }",
        ),
        (
            "recursion",
            "fn main() { p = alloc o; call r(p); free p; }
             fn r(x) { if (c) { use x; } else { call r(x); } y = x; }",
        ),
        (
            "calls and joins in branch arms",
            "fn main() { p = alloc o; fork t w(p);
                 if (c) { call h(p); join t; } else { q = p; } use p; }
             fn w(x) { call h(x); }
             fn h(y) { free y; }",
        ),
    ];
    for (name, src) in cases {
        let prog = parsed(src);
        assert!(
            agree_on_all_pairs(name, &prog) > 0,
            "{name}: nothing ordered"
        );
        let cloned = clone_contexts(&prog, &CloneOptions::default());
        agree_on_all_pairs(&format!("{name} (cloned)"), &cloned);
    }
}

#[test]
fn index_matches_walk_around_an_unreachable_block() {
    let mut b = ProgramBuilder::new();
    let main = b.func("main", &[]);
    let w = b.func("w", &["x"]);
    b.set_entry(main);
    {
        let mut f = b.body(main);
        let p = f.alloc("p", "o");
        f.fork("t", "w", &[p]);
        let c = f.cond("c");
        let (then_blk, else_blk, dead) = f.begin_branch(CondExpr::atom(c));
        f.switch_to(then_blk);
        f.free(p);
        f.switch_to(else_blk);
        f.join("t");
        // Neither arm jumps to `dead`, so no path enters it.
        f.switch_to(dead);
        f.deref(p);
        f.call(&[], "w", &[p]);
    }
    {
        let mut f = b.body(w);
        let x = f.var("x");
        f.deref(x);
    }
    let prog = b.finish();
    prog.validate().unwrap();
    assert!(agree_on_all_pairs("unreachable block", &prog) > 0);
}
