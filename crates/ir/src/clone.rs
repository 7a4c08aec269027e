//! Clone-based context sensitivity (§5.1, §7.2).
//!
//! The paper maintains "intra-thread context-sensitivity … using the
//! clone-based function summary" with "the number of nested levels of
//! calling context … set to six". This module realizes that design as
//! an IR-to-IR transform: a function invoked from several call or fork
//! sites is duplicated so that each site targets its own copy, applied
//! top-down and repeated up to the configured depth. After cloning,
//! label-keyed analyses (VFG nodes, program order, `Pted`) are
//! automatically context-sensitive — no analysis code changes.
//!
//! Cloned fork sites become *distinct static threads*, which is exactly
//! the paper's §3.1 definition ("a thread id t ∈ T … corresponds to a
//! context-sensitive fork site").
//!
//! A global size cap bounds the worst-case exponential duplication; when
//! the cap is hit remaining sites keep sharing, which is the same
//! soundiness class as the paper's depth cut.

use rustc_hash::FxHashMap;

use crate::ids::{BlockId, FuncId, Label, ThreadId, VarId};
use crate::inst::{Callee, Inst};
use crate::program::{Program, Stmt, ThreadInfo};
use crate::Function;

/// Options for the cloning transform.
#[derive(Clone, Debug)]
pub struct CloneOptions {
    /// Nested context levels (the paper's §7.2 uses 6). Zero disables
    /// the transform.
    pub depth: usize,
    /// Stop cloning when the program grows beyond
    /// `max_growth × original statements`.
    pub max_growth: usize,
}

impl Default for CloneOptions {
    fn default() -> Self {
        CloneOptions {
            depth: 6,
            max_growth: 8,
        }
    }
}

/// Applies clone-based context sensitivity, returning the transformed
/// program. The result revalidates under the same invariants.
pub fn clone_contexts(prog: &Program, opts: &CloneOptions) -> Program {
    let mut cur = prog.clone();
    if opts.depth == 0 {
        return cur;
    }
    let budget = prog.stmt_count().saturating_mul(opts.max_growth);
    for _ in 0..opts.depth {
        let (next, changed) = clone_round(&cur, budget);
        cur = next;
        if !changed {
            break;
        }
    }
    cur
}

/// One top-down cloning round: every direct call/fork site whose callee
/// is shared with another site gets a private copy (first site keeps
/// the original).
fn clone_round(prog: &Program, budget: usize) -> (Program, bool) {
    // Count direct references per callee.
    let mut refs: FxHashMap<FuncId, Vec<Label>> = FxHashMap::default();
    for l in prog.labels() {
        match prog.inst(l) {
            Inst::Call {
                callee: Callee::Direct(g),
                ..
            }
            | Inst::Fork {
                entry: Callee::Direct(g),
                ..
            } => refs.entry(*g).or_default().push(l),
            _ => {}
        }
    }
    let entry = prog.entry.expect("validated program has an entry");
    // Sites that need a clone: every reference but the first, for
    // callees with more than one reference (never clone the entry).
    let mut to_clone: Vec<(Label, FuncId)> = Vec::new();
    for (g, sites) in &refs {
        if *g == entry || sites.len() < 2 {
            continue;
        }
        let mut sorted = sites.clone();
        sorted.sort();
        for &site in &sorted[1..] {
            to_clone.push((site, *g));
        }
    }
    if to_clone.is_empty() {
        return (prog.clone(), false);
    }
    to_clone.sort();

    let mut out = Rebuilder::new(prog);
    let mut growth = prog.stmt_count();
    let mut clone_of_site: FxHashMap<Label, FuncId> = FxHashMap::default();
    for (site, g) in to_clone {
        let size = prog.func(g).stmt_count();
        if growth + size > budget {
            break;
        }
        growth += size;
        let fresh = out.clone_function(g);
        clone_of_site.insert(site, fresh);
    }
    if clone_of_site.is_empty() {
        return (prog.clone(), false);
    }
    out.retarget_sites(&clone_of_site);
    (out.finish(), true)
}

/// Builds the transformed program: original content first (ids
/// preserved), clones appended with remapped labels/vars/blocks.
struct Rebuilder {
    prog: Program,
}

impl Rebuilder {
    fn new(orig: &Program) -> Self {
        Rebuilder { prog: orig.clone() }
    }

    /// Appends a fresh copy of `g`; returns its id.
    fn clone_function(&mut self, g: FuncId) -> FuncId {
        let src = self.prog.func(g).clone();
        let new_id = FuncId::new(self.prog.funcs.len() as u32);
        let n_existing = self
            .prog
            .funcs
            .iter()
            .filter(|f| f.name.starts_with(&format!("{}#", src.name)) || f.name == src.name)
            .count();
        let new_name = format!("{}#{}", src.name, n_existing);

        // Fresh variables for everything the function touches.
        let mut var_map: FxHashMap<VarId, VarId> = FxHashMap::default();
        let mut map_var = |prog: &mut Program, v: VarId| -> VarId {
            *var_map.entry(v).or_insert_with(|| {
                let nv = VarId::new(prog.vars.len() as u32);
                let mut info = prog.vars[v.index()].clone();
                info.func = Some(new_id);
                prog.vars.push(info);
                nv
            })
        };

        let params: Vec<VarId> = src
            .params
            .iter()
            .map(|&p| map_var(&mut self.prog, p))
            .collect();

        let mut blocks = Vec::with_capacity(src.blocks.len());
        for (bi, block) in src.blocks.iter().enumerate() {
            let mut stmts = Vec::with_capacity(block.stmts.len());
            for &l in &block.stmts {
                let inst = self.remap_inst(self.prog.inst(l).clone(), &mut map_var);
                let nl = Label::new(self.prog.stmts.len() as u32);
                self.prog.stmts.push(Stmt {
                    inst,
                    func: new_id,
                    block: BlockId::new(bi as u32),
                });
                stmts.push(nl);
            }
            blocks.push(crate::BasicBlock {
                stmts,
                term: block.term.clone(),
            });
        }
        self.prog.funcs.push(Function {
            id: new_id,
            name: new_name,
            params,
            blocks,
            entry: src.entry,
        });
        new_id
    }

    /// Remaps an instruction's variables into the clone's namespace;
    /// fork sites inside the clone become fresh static threads.
    fn remap_inst(
        &mut self,
        inst: Inst,
        map_var: &mut impl FnMut(&mut Program, VarId) -> VarId,
    ) -> Inst {
        let mut mv = |v: VarId, prog: &mut Program| map_var(prog, v);
        match inst {
            Inst::Alloc { dst, obj } => Inst::Alloc {
                dst: mv(dst, &mut self.prog),
                // Context-insensitive heap: clones share the abstract
                // object (a sound, standard choice).
                obj,
            },
            Inst::FuncAddr { dst, func } => Inst::FuncAddr {
                dst: mv(dst, &mut self.prog),
                func,
            },
            Inst::Copy { dst, src } => Inst::Copy {
                dst: mv(dst, &mut self.prog),
                src: mv(src, &mut self.prog),
            },
            Inst::Load { dst, addr } => Inst::Load {
                dst: mv(dst, &mut self.prog),
                addr: mv(addr, &mut self.prog),
            },
            Inst::Store { addr, src } => Inst::Store {
                addr: mv(addr, &mut self.prog),
                src: mv(src, &mut self.prog),
            },
            Inst::Bin { dst, op, lhs, rhs } => Inst::Bin {
                dst: mv(dst, &mut self.prog),
                op,
                lhs: mv(lhs, &mut self.prog),
                rhs: mv(rhs, &mut self.prog),
            },
            Inst::Un { dst, op, src } => Inst::Un {
                dst: mv(dst, &mut self.prog),
                op,
                src: mv(src, &mut self.prog),
            },
            Inst::Call { dsts, callee, args } => Inst::Call {
                dsts: dsts.into_iter().map(|d| mv(d, &mut self.prog)).collect(),
                callee: match callee {
                    Callee::Direct(f) => Callee::Direct(f),
                    Callee::Indirect(v) => Callee::Indirect(mv(v, &mut self.prog)),
                },
                args: args.into_iter().map(|a| mv(a, &mut self.prog)).collect(),
            },
            Inst::Fork {
                thread,
                entry,
                args,
            } => {
                // A cloned fork site is a distinct static thread.
                let tid = ThreadId::new(self.prog.threads.len() as u32);
                let orig = self.prog.threads[thread.index()].clone();
                self.prog.threads.push(ThreadInfo {
                    name: format!("{}#{}", orig.name, tid.0),
                    fork_site: None, // patched when the stmt is placed
                    join_site: None,
                    parent: orig.parent,
                    entry: orig.entry,
                });
                Inst::Fork {
                    thread: tid,
                    entry: match entry {
                        Callee::Direct(f) => Callee::Direct(f),
                        Callee::Indirect(v) => Callee::Indirect(mv(v, &mut self.prog)),
                    },
                    args: args.into_iter().map(|a| mv(a, &mut self.prog)).collect(),
                }
            }
            Inst::Join { thread } => Inst::Join { thread },
            Inst::Free { ptr } => Inst::Free {
                ptr: mv(ptr, &mut self.prog),
            },
            Inst::Deref { ptr } => Inst::Deref {
                ptr: mv(ptr, &mut self.prog),
            },
            Inst::AssignNull { dst } => Inst::AssignNull {
                dst: mv(dst, &mut self.prog),
            },
            Inst::TaintSource { dst } => Inst::TaintSource {
                dst: mv(dst, &mut self.prog),
            },
            Inst::TaintSink { src } => Inst::TaintSink {
                src: mv(src, &mut self.prog),
            },
            Inst::Lock { mutex } => Inst::Lock {
                mutex: mv(mutex, &mut self.prog),
            },
            Inst::Unlock { mutex } => Inst::Unlock {
                mutex: mv(mutex, &mut self.prog),
            },
            Inst::Wait { cv } => Inst::Wait {
                cv: mv(cv, &mut self.prog),
            },
            Inst::Notify { cv } => Inst::Notify {
                cv: mv(cv, &mut self.prog),
            },
            Inst::Return { vals } => Inst::Return {
                vals: vals.into_iter().map(|v| mv(v, &mut self.prog)).collect(),
            },
            Inst::Nop => Inst::Nop,
        }
    }

    /// Redirects each recorded site to its private clone.
    fn retarget_sites(&mut self, clone_of_site: &FxHashMap<Label, FuncId>) {
        for (&site, &fresh) in clone_of_site {
            match &mut self.prog.stmts[site.index()].inst {
                Inst::Call { callee, .. } => *callee = Callee::Direct(fresh),
                Inst::Fork { entry, .. } => *entry = Callee::Direct(fresh),
                other => unreachable!("recorded site is a call or fork, found {other:?}"),
            }
        }
    }

    /// Repairs thread metadata (fork/join sites) and returns the program.
    fn finish(mut self) -> Program {
        for info in &mut self.prog.threads {
            info.fork_site = None;
            info.join_site = None;
        }
        for l in 0..self.prog.stmts.len() as u32 {
            let l = Label::new(l);
            match self.prog.inst(l).clone() {
                Inst::Fork { thread, entry, .. } => {
                    let info = &mut self.prog.threads[thread.index()];
                    info.fork_site = Some(l);
                    info.entry = Some(entry);
                }
                Inst::Join { thread } => {
                    self.prog.threads[thread.index()].join_site = Some(l);
                }
                _ => {}
            }
        }
        self.prog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn shared_callee_is_split_per_site() {
        let prog = parse(
            "fn h(p) { v = *p; return v; }
             fn main() { a = alloc ca; b = alloc cb; x = call h(a); y = call h(b); }",
        )
        .unwrap();
        let cloned = clone_contexts(&prog, &CloneOptions::default());
        cloned.validate().unwrap();
        assert_eq!(cloned.funcs.len(), 3, "h plus one clone");
        assert!(cloned.func_by_name("h#1").is_some());
        // Both call sites now target distinct functions.
        let targets: Vec<FuncId> = cloned
            .labels()
            .filter_map(|l| match cloned.inst(l) {
                Inst::Call {
                    callee: Callee::Direct(f),
                    ..
                } => Some(*f),
                _ => None,
            })
            .collect();
        assert_eq!(targets.len(), 2);
        assert_ne!(targets[0], targets[1]);
    }

    #[test]
    fn single_site_callee_untouched() {
        let prog = parse(
            "fn h() { skip; }
             fn main() { call h(); }",
        )
        .unwrap();
        let cloned = clone_contexts(&prog, &CloneOptions::default());
        assert_eq!(cloned.funcs.len(), 2);
        assert_eq!(cloned.stmt_count(), prog.stmt_count());
    }

    #[test]
    fn depth_limits_transitive_cloning() {
        // chain: main calls m twice; m calls inner twice ⇒ depth 1
        // splits m (and the copied sites recursively need depth 2+).
        let prog = parse(
            "fn inner() { skip; }
             fn m() { call inner(); call inner(); }
             fn main() { call m(); call m(); }",
        )
        .unwrap();
        let d1 = clone_contexts(
            &prog,
            &CloneOptions {
                depth: 1,
                max_growth: 64,
            },
        );
        let d3 = clone_contexts(
            &prog,
            &CloneOptions {
                depth: 3,
                max_growth: 64,
            },
        );
        d1.validate().unwrap();
        d3.validate().unwrap();
        assert!(d3.funcs.len() > d1.funcs.len());
        // Full depth: 1 main + 2 m's + 4 inner's = 7.
        assert_eq!(d3.funcs.len(), 7);
    }

    #[test]
    fn cloned_fork_sites_become_new_threads() {
        let prog = parse(
            "fn spawner(c) { fork t w(c); }
             fn w(x) { use x; }
             fn main() { a = alloc ca; b = alloc cb; call spawner(a); call spawner(b); }",
        )
        .unwrap();
        assert_eq!(prog.threads.len(), 2); // main + t
        let cloned = clone_contexts(&prog, &CloneOptions::default());
        cloned.validate().unwrap();
        // spawner duplicated; its fork clone is a third static thread.
        assert_eq!(cloned.threads.len(), 3, "{:?}", cloned.threads);
        for info in cloned.threads.iter().skip(1) {
            assert!(info.fork_site.is_some());
        }
    }

    #[test]
    fn growth_cap_stops_cloning() {
        let prog = parse(
            "fn h() { a1 = alloc o1; a2 = alloc o2; a3 = alloc o3; a4 = alloc o4; }
             fn main() { call h(); call h(); call h(); call h(); }",
        )
        .unwrap();
        let capped = clone_contexts(
            &prog,
            &CloneOptions {
                depth: 6,
                max_growth: 1,
            },
        );
        capped.validate().unwrap();
        // Budget = original size: no clone fits, the program is unchanged.
        assert_eq!(capped.funcs.len(), prog.funcs.len());
    }

    #[test]
    fn zero_depth_is_identity() {
        let prog = parse(
            "fn h() { skip; }
             fn main() { call h(); call h(); }",
        )
        .unwrap();
        let same = clone_contexts(
            &prog,
            &CloneOptions {
                depth: 0,
                max_growth: 8,
            },
        );
        assert_eq!(same, prog);
    }
}
