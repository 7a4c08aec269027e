//! Synchronization-semantics constraints — the §9 "future work"
//! extension: lock/unlock mutual exclusion and wait/notify ordering.
//!
//! The paper's framework is "generic enough to allow new synchronization
//! semantics to be plugged in easily" (§5.1); this module plugs two in:
//!
//! * **mutex regions** `lock(m) … unlock(m)`: two regions on aliasing
//!   mutexes in different threads exclude each other —
//!   `O_u1 < O_l2 ∨ O_u2 < O_l1`;
//! * **wait/notify**: a statement after `wait(cv)` requires some
//!   `notify(cv)` to have happened before the wait returns —
//!   `⋁_n O_n < O_w`.
//!
//! Constraints are only generated for regions/waits that contain or
//! precede events the query already mentions, keeping the lazy-encoding
//! discipline of §5.

use std::collections::BTreeSet;

use canary_dataflow::DataflowResult;
use canary_ir::{Inst, Label, ObjId, OrderGraph, Program, ThreadStructure, VarId};
use canary_smt::{TermId, TermPool};
use canary_vfg::NodeKind;

/// A lexical mutex region within one function.
#[derive(Clone, Debug)]
pub struct LockRegion {
    /// The `lock` statement.
    pub lock: Label,
    /// The matching `unlock` statement.
    pub unlock: Label,
    /// Objects the mutex pointer may reference (identity for aliasing).
    pub objs: Vec<ObjId>,
}

/// Indexed synchronization facts for a program.
#[derive(Clone, Debug, Default)]
pub struct SyncModel {
    /// All lock regions.
    pub regions: Vec<LockRegion>,
    /// `notify` sites with their condition-variable objects.
    pub notifies: Vec<(Label, Vec<ObjId>)>,
    /// `wait` sites with their condition-variable objects.
    pub waits: Vec<(Label, Vec<ObjId>)>,
}

impl SyncModel {
    /// Scans the program for lock regions and wait/notify sites.
    pub fn build(prog: &Program, og: &OrderGraph<'_>, df: &DataflowResult) -> Self {
        let objs_of = |v: VarId| -> Vec<ObjId> {
            df.def_site[v.index()]
                .and_then(|l| df.vfg.find(NodeKind::Def { var: v, label: l }))
                .map(|n| df.vfg.objects_reaching(n))
                .unwrap_or_default()
        };
        let mut locks: Vec<(Label, Vec<ObjId>)> = Vec::new();
        let mut unlocks: Vec<(Label, Vec<ObjId>)> = Vec::new();
        let mut notifies = Vec::new();
        let mut waits = Vec::new();
        for l in prog.labels() {
            match prog.inst(l) {
                Inst::Lock { mutex } => locks.push((l, objs_of(*mutex))),
                Inst::Unlock { mutex } => unlocks.push((l, objs_of(*mutex))),
                Inst::Notify { cv } => notifies.push((l, objs_of(*cv))),
                Inst::Wait { cv } => waits.push((l, objs_of(*cv))),
                _ => {}
            }
        }
        // Pair each lock with its nearest following unlock on an
        // aliasing mutex within the same function.
        let mut regions = Vec::new();
        for (ll, lobjs) in &locks {
            let mut best: Option<Label> = None;
            for (ul, uobjs) in &unlocks {
                if prog.func_of(*ll) != prog.func_of(*ul) {
                    continue;
                }
                if !aliasing(lobjs, uobjs) {
                    continue;
                }
                if og.happens_before(*ll, *ul) && best.is_none_or(|b| og.happens_before(*ul, b)) {
                    best = Some(*ul);
                }
            }
            if let Some(unlock) = best {
                regions.push(LockRegion {
                    lock: *ll,
                    unlock,
                    objs: lobjs.clone(),
                });
            }
        }
        SyncModel {
            regions,
            notifies,
            waits,
        }
    }

    /// Emits the synchronization constraints relevant to `events`,
    /// extending `events` with the lock/unlock/notify/wait labels used.
    pub fn constraints(
        &self,
        pool: &mut TermPool,
        prog: &Program,
        ts: &ThreadStructure,
        og: &OrderGraph<'_>,
        events: &mut BTreeSet<Label>,
    ) -> TermId {
        let mut parts: Vec<TermId> = Vec::new();
        // Relevant regions: those containing at least one query event.
        let evs: Vec<Label> = events.iter().copied().collect();
        let relevant: Vec<&LockRegion> = self
            .regions
            .iter()
            .filter(|r| {
                evs.iter().any(|&e| {
                    (e == r.lock || og.happens_before(r.lock, e))
                        && (e == r.unlock || og.happens_before(e, r.unlock))
                })
            })
            .collect();
        for (i, r1) in relevant.iter().enumerate() {
            for r2 in relevant.iter().skip(i + 1) {
                if !aliasing(&r1.objs, &r2.objs) {
                    continue;
                }
                if !ts.may_be_in_distinct_threads(prog, r1.lock, r2.lock) {
                    continue;
                }
                // Mutual exclusion of the two critical sections.
                let a = pool.order_lt(r1.unlock.0, r2.lock.0);
                let b = pool.order_lt(r2.unlock.0, r1.lock.0);
                parts.push(pool.or2(a, b));
                events.extend([r1.lock, r1.unlock, r2.lock, r2.unlock]);
            }
        }
        // Waits that precede a query event require a prior notify.
        for (wl, wobjs) in &self.waits {
            let gates = evs.iter().any(|&e| e == *wl || og.happens_before(*wl, e));
            if !gates {
                continue;
            }
            let matching: Vec<Label> = self
                .notifies
                .iter()
                .filter(|(_, nobjs)| aliasing(wobjs, nobjs))
                .map(|(nl, _)| *nl)
                .collect();
            if matching.is_empty() {
                continue;
            }
            let disj: Vec<TermId> = matching
                .iter()
                .map(|&nl| pool.order_lt(nl.0, wl.0))
                .collect();
            parts.push(pool.or(disj));
            events.insert(*wl);
            events.extend(matching);
        }
        pool.and(parts)
    }
}

fn aliasing(a: &[ObjId], b: &[ObjId]) -> bool {
    a.iter().any(|x| b.contains(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_ir::{parse, CallGraph, MhpAnalysis};

    fn build(src: &str) -> (Program, SyncModel, TermPool, DataflowResult) {
        let prog = parse(src).unwrap();
        let cg = CallGraph::build(&prog);
        let mut pool = TermPool::new();
        let df = canary_dataflow::run(&prog, &cg, &mut pool);
        let og = OrderGraph::build(&prog, &cg);
        let model = SyncModel::build(&prog, &og, &df);
        (prog, model, pool, df)
    }

    #[test]
    fn lock_region_pairs_with_nearest_unlock() {
        let (_prog, model, _pool, _df) = build(
            "fn main() {
                m = alloc mu;
                lock m;
                p = alloc o;
                unlock m;
                lock m;
                use p;
                unlock m;
             }",
        );
        assert_eq!(model.regions.len(), 2);
        for r in &model.regions {
            assert!(r.lock < r.unlock);
        }
        // Nearest pairing: region 1 must not swallow region 2's unlock.
        assert!(model.regions[0].unlock < model.regions[1].lock);
    }

    #[test]
    fn cross_thread_regions_exclude_each_other() {
        let src = "fn main() {
                m = alloc mu;
                x = alloc cell;
                fork t w(m, x);
                lock m;
                c = *x;
                use c;
                unlock m;
             }
             fn w(mu2, y) {
                lock mu2;
                b = alloc o2;
                *y = b;
                unlock mu2;
             }";
        let prog = parse(src).unwrap();
        let cg = CallGraph::build(&prog);
        let ts = canary_ir::ThreadStructure::compute(&prog, &cg);
        let mhp = MhpAnalysis::new(&prog, &cg, &ts);
        let mut pool = TermPool::new();
        let df = canary_dataflow::run(&prog, &cg, &mut pool);
        let model = SyncModel::build(&prog, mhp.order_graph(), &df);
        assert_eq!(model.regions.len(), 2);
        let mut events: BTreeSet<Label> = [prog.deref_sites()[0]].into_iter().collect();
        // Include an event inside the second region too.
        let store = prog
            .labels()
            .find(|&l| matches!(prog.inst(l), Inst::Store { .. }))
            .unwrap();
        events.insert(store);
        let c = model.constraints(&mut pool, &prog, &ts, mhp.order_graph(), &mut events);
        assert_ne!(c, pool.tt(), "mutex exclusion constraint expected");
        // Both regions' lock/unlock labels now ground the event set.
        assert!(events.len() >= 5);
    }

    #[test]
    fn wait_requires_notify_before() {
        let src = "fn main() {
                cv = alloc c;
                fork t w(cv);
                notify cv;
             }
             fn w(cv2) {
                wait cv2;
                p = alloc o;
                use p;
             }";
        let prog = parse(src).unwrap();
        let cg = CallGraph::build(&prog);
        let ts = canary_ir::ThreadStructure::compute(&prog, &cg);
        let mhp = MhpAnalysis::new(&prog, &cg, &ts);
        let mut pool = TermPool::new();
        let df = canary_dataflow::run(&prog, &cg, &mut pool);
        let model = SyncModel::build(&prog, mhp.order_graph(), &df);
        assert_eq!(model.waits.len(), 1);
        assert_eq!(model.notifies.len(), 1);
        let mut events: BTreeSet<Label> = [prog.deref_sites()[0]].into_iter().collect();
        let c = model.constraints(&mut pool, &prog, &ts, mhp.order_graph(), &mut events);
        assert_ne!(c, pool.tt(), "wait ordering constraint expected");
    }

    #[test]
    fn irrelevant_events_get_no_constraints() {
        let (prog, model, mut pool, _df) = build(
            "fn main() {
                m = alloc mu;
                p = alloc o;
                use p;
                lock m;
                unlock m;
             }",
        );
        let cg = CallGraph::build(&prog);
        let ts = canary_ir::ThreadStructure::compute(&prog, &cg);
        let og = OrderGraph::build(&prog, &cg);
        // The deref is *before* the region, so no region contains it.
        let mut events: BTreeSet<Label> = [prog.deref_sites()[0]].into_iter().collect();
        let c = model.constraints(&mut pool, &prog, &ts, &og, &mut events);
        assert_eq!(c, pool.tt());
    }
}
