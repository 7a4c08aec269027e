//! Shared machinery for the baselines: deadline handling, unguarded
//! VFG construction from exhaustive points-to results, and the
//! path-insensitive source-sink checker both tools use in §7.2.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use canary_ir::{Inst, Label, ObjId, Program, VarId};
use canary_smt::TermPool;
use canary_vfg::{EdgeKind, NodeId, NodeKind, Vfg};

/// A soft deadline the long-running loops poll (the 12-hour budget of
/// §7.1, scaled down by the harness).
#[derive(Copy, Clone, Debug)]
pub struct Deadline {
    end: Option<Instant>,
}

impl Deadline {
    /// No deadline.
    pub fn none() -> Self {
        Deadline { end: None }
    }

    /// A deadline `d` from now.
    pub fn after(d: Duration) -> Self {
        Deadline {
            end: Some(Instant::now() + d),
        }
    }

    /// Whether the budget is exhausted.
    pub fn expired(&self) -> bool {
        self.end.is_some_and(|e| Instant::now() >= e)
    }
}

/// Outcome of a budgeted baseline phase.
#[derive(Debug)]
pub enum Budgeted<T> {
    /// Finished within budget.
    Done(T),
    /// Ran out of time (the `NA` rows of Tbl. 1 / Fig. 7).
    TimedOut,
}

impl<T> Budgeted<T> {
    /// Unwraps the value or panics (tests only).
    pub fn expect_done(self, msg: &str) -> T {
        match self {
            Budgeted::Done(t) => t,
            Budgeted::TimedOut => panic!("{msg}"),
        }
    }

    /// Whether the phase timed out.
    pub fn timed_out(&self) -> bool {
        matches!(self, Budgeted::TimedOut)
    }
}

/// Exhaustive points-to results: one set per top-level variable and per
/// abstract object cell (field-insensitive, as both baselines are).
#[derive(Debug, Default)]
pub struct PointsTo {
    /// `pts[v]` — objects variable `v` may point to.
    pub var_pts: Vec<HashSet<ObjId>>,
    /// `cell[o]` — objects the cell of `o` may hold.
    pub cell_pts: Vec<HashSet<ObjId>>,
    /// Approximate bytes held by the sets (Fig. 7b accounting).
    pub bytes: usize,
}

impl PointsTo {
    /// Allocates empty sets for a program.
    pub fn for_program(prog: &Program) -> Self {
        PointsTo {
            var_pts: vec![HashSet::new(); prog.vars.len()],
            cell_pts: vec![HashSet::new(); prog.objs.len()],
            bytes: 0,
        }
    }

    /// Recomputes the byte estimate from current set sizes.
    pub fn refresh_bytes(&mut self) {
        let entries: usize = self.var_pts.iter().map(HashSet::len).sum::<usize>()
            + self.cell_pts.iter().map(HashSet::len).sum::<usize>();
        // HashSet<ObjId> entry overhead ≈ 16 bytes plus set headers.
        self.bytes = entries * 16 + (self.var_pts.len() + self.cell_pts.len()) * 48;
    }
}

/// Builds the exhaustive, *unguarded* VFG both baselines share: direct
/// edges for copies, plus a store→load edge for every pair whose
/// address sets intersect — no guards, no order constraints, no thread
/// awareness beyond the points-to itself. The store×load product is
/// what makes the exhaustive construction expensive, exactly as §7.1
/// observes for Saber and Fsam.
pub fn build_unguarded_vfg(
    prog: &Program,
    pts: &PointsTo,
    deadline: Deadline,
    pair_filter: &dyn Fn(Label, Label) -> bool,
) -> Budgeted<Vfg> {
    let pool = TermPool::new();
    let tt = pool.tt();
    let mut vfg = Vfg::new();
    // Def sites (single pass).
    let mut def_site: Vec<Option<Label>> = vec![None; prog.vars.len()];
    for l in prog.labels() {
        if let Some(d) = prog.inst(l).def() {
            def_site[d.index()] = Some(l);
        }
    }
    for func in &prog.funcs {
        if let Some(first) = func.labels().next() {
            for &p in &func.params {
                if def_site[p.index()].is_none() {
                    def_site[p.index()] = Some(first);
                }
            }
        }
    }
    let def_node = |vfg: &mut Vfg, v: VarId| -> Option<NodeId> {
        def_site[v.index()].map(|l| vfg.def_node(v, l))
    };

    let mut stores: Vec<(Label, VarId, VarId)> = Vec::new();
    let mut loads: Vec<(Label, VarId, VarId)> = Vec::new();
    for l in prog.labels() {
        if deadline.expired() {
            return Budgeted::TimedOut;
        }
        match prog.inst(l) {
            Inst::Alloc { dst, obj } => {
                let on = vfg.obj_node(*obj, l);
                let dn = vfg.def_node(*dst, l);
                vfg.add_edge(on, dn, EdgeKind::Direct, tt);
            }
            Inst::Copy { dst, src } | Inst::Un { dst, src, .. } => {
                let dn = vfg.def_node(*dst, l);
                if let Some(sn) = def_node(&mut vfg, *src) {
                    vfg.add_edge(sn, dn, EdgeKind::Direct, tt);
                }
            }
            Inst::Bin { dst, lhs, rhs, .. } => {
                let dn = vfg.def_node(*dst, l);
                for s in [lhs, rhs] {
                    if let Some(sn) = def_node(&mut vfg, *s) {
                        vfg.add_edge(sn, dn, EdgeKind::Direct, tt);
                    }
                }
            }
            Inst::Store { addr: _, src } => {
                let store_node = vfg.def_node(*src, l);
                if let Some(sn) = def_node(&mut vfg, *src) {
                    if sn != store_node {
                        vfg.add_edge(sn, store_node, EdgeKind::Direct, tt);
                    }
                }
                stores.push((l, *prog_store_addr(prog, l), *src));
            }
            Inst::Load { dst, addr } => {
                vfg.def_node(*dst, l);
                loads.push((l, *addr, *dst));
            }
            Inst::Free { ptr } | Inst::Deref { ptr } | Inst::TaintSink { src: ptr } => {
                let un = vfg.def_node(*ptr, l);
                if let Some(dn) = def_node(&mut vfg, *ptr) {
                    if dn != un {
                        vfg.add_edge(dn, un, EdgeKind::Direct, tt);
                    }
                }
            }
            Inst::AssignNull { dst } | Inst::TaintSource { dst } => {
                vfg.def_node(*dst, l);
            }
            _ => {}
        }
    }
    // Argument/parameter and return bindings (flow-insensitive).
    for l in prog.labels() {
        match prog.inst(l) {
            Inst::Call { dsts, callee, args } => {
                bind(prog, &mut vfg, &def_site, callee, args, dsts, l, tt);
            }
            Inst::Fork { entry, args, .. } => {
                bind(prog, &mut vfg, &def_site, entry, args, &[], l, tt);
            }
            _ => {}
        }
    }
    // Exhaustive store→load product (the expensive part).
    for (i, &(sl, saddr, ssrc)) in stores.iter().enumerate() {
        if i % 64 == 0 && deadline.expired() {
            return Budgeted::TimedOut;
        }
        let spts = &pts.var_pts[saddr.index()];
        if spts.is_empty() {
            continue;
        }
        for &(ll, laddr, ldst) in &loads {
            if !pair_filter(sl, ll) {
                continue;
            }
            let lpts = &pts.var_pts[laddr.index()];
            if spts.iter().any(|o| lpts.contains(o)) {
                let sn = vfg.def_node(ssrc, sl);
                let ln = vfg.def_node(ldst, ll);
                vfg.add_edge(sn, ln, EdgeKind::DataDep, tt);
            }
        }
    }
    Budgeted::Done(vfg)
}

fn prog_store_addr(prog: &Program, l: Label) -> &VarId {
    match prog.inst(l) {
        Inst::Store { addr, .. } => addr,
        _ => unreachable!("caller checked"),
    }
}

#[allow(clippy::too_many_arguments)]
fn bind(
    prog: &Program,
    vfg: &mut Vfg,
    def_site: &[Option<Label>],
    callee: &canary_ir::Callee,
    args: &[VarId],
    dsts: &[VarId],
    _call_label: Label,
    tt: canary_smt::TermId,
) {
    let targets: Vec<canary_ir::FuncId> = match callee {
        canary_ir::Callee::Direct(f) => vec![*f],
        canary_ir::Callee::Indirect(_) => prog
            .funcs
            .iter()
            .filter(|f| f.params.len() == args.len())
            .map(|f| f.id)
            .collect(),
    };
    for t in targets {
        let func = prog.func(t);
        for (i, &a) in args.iter().enumerate() {
            let (Some(&p), Some(al)) = (func.params.get(i), def_site[a.index()]) else {
                continue;
            };
            let Some(pl) = def_site[p.index()] else {
                continue;
            };
            let an = vfg.def_node(a, al);
            let pn = vfg.def_node(p, pl);
            vfg.add_edge(an, pn, EdgeKind::Direct, tt);
        }
        for fl in func.labels() {
            if let Inst::Return { vals } = prog.inst(fl) {
                for (k, &d) in dsts.iter().enumerate() {
                    let Some(&rv) = vals.get(k) else { continue };
                    // Anchor at the returned variable's definition so the
                    // flow chain from its producers stays connected.
                    let Some(rl) = def_site[rv.index()] else {
                        continue;
                    };
                    let rn = vfg.def_node(rv, rl);
                    let Some(dl) = def_site[d.index()] else {
                        continue;
                    };
                    let dn = vfg.def_node(d, dl);
                    vfg.add_edge(rn, dn, EdgeKind::Direct, tt);
                }
            }
        }
    }
}

/// A path-insensitive finding: no guards, no interleaving validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BaselineReport {
    /// The source statement.
    pub source: Label,
    /// The sink statement.
    pub sink: Label,
}

/// The unguarded source-sink checker (§7.2's baseline behaviour): a
/// report for every deref reachable in the VFG from any object the
/// freed pointer may reference. No path conditions and no execution
/// order means everything graph-reachable is reported — the source of
/// the near-100 % false-positive rates in Tbl. 1.
pub fn check_uaf_unguarded(
    prog: &Program,
    vfg: &Vfg,
    deadline: Deadline,
) -> Budgeted<Vec<BaselineReport>> {
    let mut def_site: Vec<Option<Label>> = vec![None; prog.vars.len()];
    for l in prog.labels() {
        if let Some(d) = prog.inst(l).def() {
            def_site[d.index()] = Some(l);
        }
    }
    for func in &prog.funcs {
        if let Some(first) = func.labels().next() {
            for &p in &func.params {
                if def_site[p.index()].is_none() {
                    def_site[p.index()] = Some(first);
                }
            }
        }
    }
    let mut sink_of: Vec<(NodeId, Label)> = Vec::new();
    for l in prog.labels() {
        if let Inst::Deref { ptr } = prog.inst(l) {
            if let Some(n) = vfg.find(NodeKind::Def {
                var: *ptr,
                label: l,
            }) {
                sink_of.push((n, l));
            }
        }
    }
    let mut out = Vec::new();
    for free_label in prog.free_sites() {
        if deadline.expired() {
            return Budgeted::TimedOut;
        }
        let Inst::Free { ptr } = prog.inst(free_label) else {
            continue;
        };
        let Some(dl) = def_site[ptr.index()] else {
            continue;
        };
        let Some(pn) = vfg.find(NodeKind::Def {
            var: *ptr,
            label: dl,
        }) else {
            continue;
        };
        for obj in vfg.objects_reaching(pn) {
            let Some(on) = vfg
                .node_ids()
                .find(|&n| matches!(vfg.kind(n), NodeKind::Object { obj: o, .. } if o == obj))
            else {
                continue;
            };
            let reach: HashSet<NodeId> = vfg.reachable_from(on).into_iter().collect();
            for &(sn, sl) in &sink_of {
                if sl != free_label && reach.contains(&sn) {
                    out.push(BaselineReport {
                        source: free_label,
                        sink: sl,
                    });
                }
            }
        }
    }
    out.sort_by_key(|r| (r.source, r.sink));
    out.dedup();
    Budgeted::Done(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn deadline_none_never_expires() {
        assert!(!Deadline::none().expired());
    }

    #[test]
    fn deadline_zero_expires_immediately() {
        let d = Deadline::after(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(1));
        assert!(d.expired());
    }

    #[test]
    fn budgeted_accessors() {
        let d: Budgeted<u32> = Budgeted::Done(7);
        assert!(!d.timed_out());
        assert_eq!(d.expect_done("x"), 7);
        let t: Budgeted<u32> = Budgeted::TimedOut;
        assert!(t.timed_out());
    }

    #[test]
    fn points_to_bytes_grow_with_entries() {
        let prog = canary_ir::parse("fn main() { p = alloc o; use p; }").unwrap();
        let mut pts = PointsTo::for_program(&prog);
        pts.refresh_bytes();
        let b0 = pts.bytes;
        pts.var_pts[0].insert(canary_ir::ObjId::new(0));
        pts.refresh_bytes();
        assert!(pts.bytes > b0);
    }
}
