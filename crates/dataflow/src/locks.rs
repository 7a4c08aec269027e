//! Critical-section tracking: lock/unlock sites, mutex alias classes,
//! and lexical lock regions.
//!
//! The [`LockModel`] is the shared substrate of the lock-discipline
//! layer: the double-lock and conflicting-lock-order checkers
//! (`canary-detect`) read acquisition sites and regions from it, and
//! the lock-sharpened MHP pruning (`canary-interference`) uses region
//! membership to discharge store/load pairs whose critical sections
//! exclude each other. It mirrors the pairing discipline of the §9
//! synchronization model: each `lock` pairs with its nearest following
//! `unlock` on an aliasing mutex within the same function.

use canary_ir::{Inst, Label, ObjId, OrderGraph, Program};
use canary_vfg::NodeKind;
use rustc_hash::FxHashMap;

use crate::analysis::DataflowResult;

/// One `lock` or `unlock` statement.
#[derive(Clone, Debug)]
pub struct LockSite {
    /// The statement label.
    pub label: Label,
    /// Objects the mutex pointer may reference.
    pub objs: Vec<ObjId>,
    /// The mutex alias class, when the pointer resolves to any object.
    pub class: Option<usize>,
}

/// A lexical critical section within one function.
#[derive(Clone, Debug)]
pub struct LockRegion {
    /// The acquiring `lock` statement.
    pub lock: Label,
    /// The matching `unlock` statement (nearest following, same
    /// function, aliasing mutex).
    pub unlock: Label,
    /// The mutex alias class guarded by the region.
    pub class: usize,
}

/// Lock sites, alias classes and critical sections of one program.
#[derive(Clone, Debug, Default)]
pub struct LockModel {
    /// All `lock` statements, in label order.
    pub locks: Vec<LockSite>,
    /// All `unlock` statements, in label order.
    pub unlocks: Vec<LockSite>,
    /// All paired critical sections, in `lock`-label order.
    pub regions: Vec<LockRegion>,
    /// Number of distinct mutex alias classes.
    pub class_count: usize,
}

impl LockModel {
    /// Scans the program for lock sites, merges may-alias mutex object
    /// sets into classes, and pairs lexical regions.
    pub fn build(prog: &Program, og: &OrderGraph<'_>, df: &DataflowResult) -> Self {
        let objs_of = |v: canary_ir::VarId| -> Vec<ObjId> {
            df.def_site[v.index()]
                .and_then(|l| df.vfg.find(NodeKind::Def { var: v, label: l }))
                .map(|n| df.vfg.objects_reaching(n))
                .unwrap_or_default()
        };
        let mut locks: Vec<LockSite> = Vec::new();
        let mut unlocks: Vec<LockSite> = Vec::new();
        for l in prog.labels() {
            match prog.inst(l) {
                Inst::Lock { mutex } => locks.push(LockSite {
                    label: l,
                    objs: objs_of(*mutex),
                    class: None,
                }),
                Inst::Unlock { mutex } => unlocks.push(LockSite {
                    label: l,
                    objs: objs_of(*mutex),
                    class: None,
                }),
                _ => {}
            }
        }
        // Union-find over mutex objects: the objects of one site are a
        // may-alias set, so they merge into one class; sites sharing an
        // object land in the same class transitively.
        let mut parent: FxHashMap<ObjId, ObjId> = FxHashMap::default();
        fn find(parent: &mut FxHashMap<ObjId, ObjId>, x: ObjId) -> ObjId {
            let p = *parent.entry(x).or_insert(x);
            if p == x {
                return x;
            }
            let root = find(parent, p);
            parent.insert(x, root);
            root
        }
        for site in locks.iter().chain(unlocks.iter()) {
            for w in site.objs.windows(2) {
                let (a, b) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
                if a != b {
                    parent.insert(a, b);
                }
            }
        }
        // Merge across sites sharing any object.
        for site in locks.iter().chain(unlocks.iter()) {
            if let Some(&first) = site.objs.first() {
                for &o in &site.objs[1..] {
                    let (a, b) = (find(&mut parent, first), find(&mut parent, o));
                    if a != b {
                        parent.insert(a, b);
                    }
                }
            }
        }
        // Dense class numbering in site order (deterministic).
        let mut class_ids: FxHashMap<ObjId, usize> = FxHashMap::default();
        let mut class_count = 0usize;
        let mut assign = |parent: &mut FxHashMap<ObjId, ObjId>, site: &mut LockSite| {
            let Some(&first) = site.objs.first() else {
                return;
            };
            let root = find(parent, first);
            let id = *class_ids.entry(root).or_insert_with(|| {
                class_count += 1;
                class_count - 1
            });
            site.class = Some(id);
        };
        for site in locks.iter_mut() {
            assign(&mut parent, site);
        }
        for site in unlocks.iter_mut() {
            assign(&mut parent, site);
        }
        // Pair each lock with its nearest following aliasing unlock in
        // the same function.
        let mut regions = Vec::new();
        for ls in &locks {
            let Some(class) = ls.class else { continue };
            let mut best: Option<Label> = None;
            for us in &unlocks {
                if us.class != Some(class) || prog.func_of(ls.label) != prog.func_of(us.label) {
                    continue;
                }
                if og.happens_before(ls.label, us.label)
                    && best.is_none_or(|b| og.happens_before(us.label, b))
                {
                    best = Some(us.label);
                }
            }
            if let Some(unlock) = best {
                regions.push(LockRegion {
                    lock: ls.label,
                    unlock,
                    class,
                });
            }
        }
        LockModel {
            locks,
            unlocks,
            regions,
            class_count,
        }
    }

    /// Whether label `l` lies inside region `r` (may-reach containment:
    /// at or after the lock, at or before the matching unlock).
    pub fn in_region(&self, og: &OrderGraph<'_>, r: &LockRegion, l: Label) -> bool {
        (l == r.lock || og.happens_before(r.lock, l))
            && (l == r.unlock || og.happens_before(l, r.unlock))
    }

    /// Indices of the regions that may contain `l`.
    pub fn regions_containing(&self, og: &OrderGraph<'_>, l: Label) -> Vec<usize> {
        self.regions
            .iter()
            .enumerate()
            .filter(|(_, r)| self.in_region(og, r, l))
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_ir::{parse, CallGraph};
    use canary_smt::TermPool;

    fn model(src: &str) -> (Program, LockModel) {
        let prog = parse(src).unwrap();
        prog.validate().unwrap();
        let cg = CallGraph::build(&prog);
        let mut pool = TermPool::new();
        let df = crate::run(&prog, &cg, &mut pool);
        let og = OrderGraph::build(&prog, &cg);
        let m = LockModel::build(&prog, &og, &df);
        (prog, m)
    }

    #[test]
    fn distinct_mutexes_get_distinct_classes() {
        let (_, m) = model(
            "fn main() {
                a = alloc ma; b = alloc mb;
                lock a; lock b; unlock b; unlock a;
             }",
        );
        assert_eq!(m.class_count, 2);
        assert_eq!(m.locks.len(), 2);
        assert_eq!(m.regions.len(), 2);
        assert_ne!(m.locks[0].class, m.locks[1].class);
    }

    #[test]
    fn aliased_mutexes_share_a_class() {
        // The same mutex travels into the worker as a parameter: both
        // sides' lock sites must land in one class.
        let (_, m) = model(
            "fn main() {
                m = alloc mu;
                fork t w(m);
                lock m; unlock m;
             }
             fn w(n) { lock n; unlock n; }",
        );
        assert_eq!(m.class_count, 1);
        assert_eq!(m.regions.len(), 2);
        assert_eq!(m.regions[0].class, m.regions[1].class);
    }

    #[test]
    fn region_membership_is_bounded_by_the_nearest_unlock() {
        let (prog, m) = model(
            "fn main() {
                mu = alloc mx;
                lock mu;
                p = alloc o;
                unlock mu;
                use p;
             }",
        );
        assert_eq!(m.regions.len(), 1);
        let cg = CallGraph::build(&prog);
        let og = OrderGraph::build(&prog, &cg);
        let alloc = prog
            .labels()
            .find(|&l| matches!(prog.inst(l), Inst::Alloc { .. } if l > m.regions[0].lock))
            .unwrap();
        assert!(m.in_region(&og, &m.regions[0], alloc));
        let deref = prog.deref_sites()[0];
        assert!(!m.in_region(&og, &m.regions[0], deref));
    }
}
