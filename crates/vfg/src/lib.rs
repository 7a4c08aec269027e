//! # canary-vfg
//!
//! The guarded value-flow graph (VFG) at the center of Canary's design
//! (§2, Fig. 2b). Nodes are `v@ℓ` definition/use points plus abstract
//! memory objects; edges record how values flow, each annotated with a
//! guard term — the condition under which the flow is realizable:
//!
//! * **direct** edges for copies/casts between top-level variables;
//! * **data-dependence** edges for indirect store→load flows within a
//!   thread (Alg. 1, Fig. 6);
//! * **interference** edges for store→load flows *across* threads
//!   (Alg. 2, Defn. 1) — the dashed "tunnels" that let values enter and
//!   leave a thread's scope during the on-demand search.
//!
//! The graph also carries byte-level size accounting so the Fig. 7b
//! memory comparison can be regenerated without heap instrumentation.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::{HashMap, HashSet};
use std::fmt;

use canary_ir::{Label, ObjId, Program, VarId};
use canary_smt::{TermId, TermPool};

/// A node handle in the VFG.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a VFG node stands for.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum NodeKind {
    /// A top-level variable defined or used at a label (`v@ℓ`).
    Def {
        /// The variable.
        var: VarId,
        /// The program point.
        label: Label,
    },
    /// An abstract memory object (`o` in Fig. 2b), anchored at its
    /// allocation site.
    Object {
        /// The object.
        obj: ObjId,
        /// Its allocation site.
        label: Label,
    },
}

impl NodeKind {
    /// The program point of the node.
    pub fn label(&self) -> Label {
        match self {
            NodeKind::Def { label, .. } | NodeKind::Object { label, .. } => *label,
        }
    }
}

/// The dependence relation an edge captures.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum EdgeKind {
    /// Direct assignment flow (`p = q`, alloc→p, call binding).
    Direct,
    /// Intra-thread indirect flow from a store to a load (Fig. 6).
    DataDep,
    /// Inter-thread indirect flow from a store to a load (Defn. 1).
    Interference,
}

/// A guarded value-flow edge.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Kind of dependence.
    pub kind: EdgeKind,
    /// The guard `Φ_guard` under which the value flows.
    pub guard: TermId,
}

/// The guarded value-flow graph.
#[derive(Debug, Default)]
pub struct Vfg {
    nodes: Vec<NodeKind>,
    dedup: HashMap<NodeKind, NodeId>,
    edges: Vec<Edge>,
    succs: Vec<Vec<u32>>,
    preds: Vec<Vec<u32>>,
    /// Deduplication of (from, to, kind) — re-adding strengthens nothing
    /// (the first guard wins; Alg. 2 only ever adds each edge once).
    edge_dedup: HashMap<(NodeId, NodeId, EdgeKind), u32>,
    /// Edge index → the escaped object whose `Pted` set licensed the
    /// edge (Alg. 2: the object the store and load addresses meet in).
    /// Populated for interference and line-9 refresh edges only; the
    /// report provenance layer reads it back via [`Vfg::license_of`].
    licenses: HashMap<u32, ObjId>,
}

impl Vfg {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a node.
    pub fn node(&mut self, kind: NodeKind) -> NodeId {
        if let Some(&n) = self.dedup.get(&kind) {
            return n;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(kind);
        self.dedup.insert(kind, id);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        id
    }

    /// Interns the `v@ℓ` node.
    pub fn def_node(&mut self, var: VarId, label: Label) -> NodeId {
        self.node(NodeKind::Def { var, label })
    }

    /// Interns the object node for `o`.
    pub fn obj_node(&mut self, obj: ObjId, label: Label) -> NodeId {
        self.node(NodeKind::Object { obj, label })
    }

    /// Looks up an existing node without creating it.
    pub fn find(&self, kind: NodeKind) -> Option<NodeId> {
        self.dedup.get(&kind).copied()
    }

    /// Adds a guarded edge; returns `true` if it is new.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, kind: EdgeKind, guard: TermId) -> bool {
        if self.edge_dedup.contains_key(&(from, to, kind)) {
            return false;
        }
        let idx = self.edges.len() as u32;
        self.edges.push(Edge {
            from,
            to,
            kind,
            guard,
        });
        self.succs[from.index()].push(idx);
        self.preds[to.index()].push(idx);
        self.edge_dedup.insert((from, to, kind), idx);
        true
    }

    /// [`add_edge`](Self::add_edge) that additionally records the
    /// escaped object licensing the edge (Defn. 1: the object both the
    /// store and the load address point to). Returns `true` if the edge
    /// is new; the first license wins, like the first guard.
    pub fn add_edge_licensed(
        &mut self,
        from: NodeId,
        to: NodeId,
        kind: EdgeKind,
        guard: TermId,
        license: ObjId,
    ) -> bool {
        if !self.add_edge(from, to, kind, guard) {
            return false;
        }
        let idx = self.edge_dedup[&(from, to, kind)];
        self.licenses.insert(idx, license);
        true
    }

    /// The escaped object that licensed an edge, when one was recorded
    /// at insertion (interference and refreshed data-dependence edges).
    pub fn license_of(&self, from: NodeId, to: NodeId, kind: EdgeKind) -> Option<ObjId> {
        let idx = self.edge_dedup.get(&(from, to, kind))?;
        self.licenses.get(idx).copied()
    }

    /// The kind of a node.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.nodes[n.index()]
    }

    /// Outgoing edges of `n`.
    pub fn out_edges(&self, n: NodeId) -> impl Iterator<Item = &Edge> {
        self.succs[n.index()].iter().map(|&i| &self.edges[i as usize])
    }

    /// Incoming edges of `n`.
    pub fn in_edges(&self, n: NodeId) -> impl Iterator<Item = &Edge> {
        self.preds[n.index()].iter().map(|&i| &self.edges[i as usize])
    }

    /// All nodes.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of interference edges (the Alg. 2 output of interest).
    pub fn interference_edge_count(&self) -> usize {
        self.edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Interference)
            .count()
    }

    /// Forward-reachable nodes from `start` (following any edge kind),
    /// including `start`.
    pub fn reachable_from(&self, start: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut work = vec![start];
        seen[start.index()] = true;
        let mut out = Vec::new();
        while let Some(n) = work.pop() {
            out.push(n);
            for e in self.out_edges(n) {
                if !seen[e.to.index()] {
                    seen[e.to.index()] = true;
                    work.push(e.to);
                }
            }
        }
        out
    }

    /// Forward reachability that also aggregates the conjunction of edge
    /// guards along *some* path (first-discovery path), as the escape
    /// analysis of Alg. 2 (lines 19–23) records pointed-to-by guards.
    ///
    /// Returns `(node, aggregated guard)` pairs; `start` carries `base`.
    pub fn reachable_with_guards(
        &self,
        pool: &mut TermPool,
        start: NodeId,
        base: TermId,
    ) -> Vec<(NodeId, TermId)> {
        let mut guard_of: HashMap<NodeId, TermId> = HashMap::new();
        guard_of.insert(start, base);
        let mut work = vec![start];
        let mut out = Vec::new();
        while let Some(n) = work.pop() {
            let g = guard_of[&n];
            out.push((n, g));
            for e in self.out_edges(n) {
                if let std::collections::hash_map::Entry::Vacant(slot) = guard_of.entry(e.to) {
                    slot.insert(pool.and2(g, e.guard));
                    work.push(e.to);
                }
            }
        }
        out
    }

    /// Objects whose nodes reach `n` (reverse reachability) — the
    /// points-to set of `n` as read off the graph, which is how the
    /// escape analysis and the checkers resolve pointer identity.
    pub fn objects_reaching(&self, n: NodeId) -> Vec<ObjId> {
        // A reverse search usually stops a few nodes from `n`, so the
        // visited set grows with the search, not with the graph.
        let mut seen: HashSet<NodeId> = HashSet::from([n]);
        let mut work = vec![n];
        let mut out = Vec::new();
        while let Some(x) = work.pop() {
            if let NodeKind::Object { obj, .. } = self.kind(x) {
                out.push(obj);
            }
            for e in self.in_edges(x) {
                if seen.insert(e.from) {
                    work.push(e.from);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The lowest-id node of each of the `n_objs` objects, if the
    /// dataflow pass materialized one (an object allocated at several
    /// labels has several nodes). Built in one pass over the nodes, so
    /// callers index it instead of scanning the nodes per object.
    pub fn first_obj_nodes(&self, n_objs: usize) -> Vec<Option<NodeId>> {
        let mut first = vec![None; n_objs];
        for n in self.node_ids() {
            if let NodeKind::Object { obj, .. } = self.kind(n) {
                first[obj.index()].get_or_insert(n);
            }
        }
        first
    }

    /// Approximate resident size in bytes, for the Fig. 7b memory
    /// comparison (node + edge + adjacency storage).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.len() * (size_of::<NodeKind>() + size_of::<(NodeKind, NodeId)>())
            + self.edges.len() * (size_of::<Edge>() + 2 * size_of::<u32>())
            + self.edge_dedup.len() * size_of::<((NodeId, NodeId, EdgeKind), u32)>()
            + self.licenses.len() * size_of::<(u32, ObjId)>()
    }

    /// Renders a node for diagnostics/bug reports.
    pub fn render_node(&self, prog: &Program, n: NodeId) -> String {
        match self.kind(n) {
            NodeKind::Def { var, label } => {
                format!("{}@{}", prog.var_name(var), label)
            }
            NodeKind::Object { obj, label } => {
                format!("{}@{}", prog.obj_name(obj), label)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_smt::TermPool;

    fn def(v: u32, l: u32) -> NodeKind {
        NodeKind::Def {
            var: VarId::new(v),
            label: Label::new(l),
        }
    }

    #[test]
    fn nodes_dedup() {
        let mut g = Vfg::new();
        let a = g.node(def(0, 0));
        let b = g.node(def(0, 0));
        assert_eq!(a, b);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.find(def(0, 0)), Some(a));
        assert_eq!(g.find(def(1, 0)), None);
    }

    #[test]
    fn edges_dedup_by_kind() {
        let mut g = Vfg::new();
        let pool = TermPool::new();
        let a = g.node(def(0, 0));
        let b = g.node(def(1, 1));
        assert!(g.add_edge(a, b, EdgeKind::Direct, pool.tt()));
        assert!(!g.add_edge(a, b, EdgeKind::Direct, pool.tt()));
        assert!(g.add_edge(a, b, EdgeKind::Interference, pool.tt()));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.interference_edge_count(), 1);
    }

    #[test]
    fn adjacency_is_consistent() {
        let mut g = Vfg::new();
        let pool = TermPool::new();
        let a = g.node(def(0, 0));
        let b = g.node(def(1, 1));
        let c = g.node(def(2, 2));
        g.add_edge(a, b, EdgeKind::Direct, pool.tt());
        g.add_edge(b, c, EdgeKind::DataDep, pool.tt());
        assert_eq!(g.out_edges(a).count(), 1);
        assert_eq!(g.in_edges(c).count(), 1);
        assert_eq!(g.out_edges(c).count(), 0);
    }

    #[test]
    fn reachability_follows_edges() {
        let mut g = Vfg::new();
        let pool = TermPool::new();
        let a = g.node(def(0, 0));
        let b = g.node(def(1, 1));
        let c = g.node(def(2, 2));
        let d = g.node(def(3, 3));
        g.add_edge(a, b, EdgeKind::Direct, pool.tt());
        g.add_edge(b, c, EdgeKind::Direct, pool.tt());
        g.add_edge(d, a, EdgeKind::Direct, pool.tt());
        let mut r = g.reachable_from(a);
        r.sort();
        assert_eq!(r, vec![a, b, c]);
    }

    #[test]
    fn guard_aggregation_conjoins_along_path() {
        let mut g = Vfg::new();
        let mut pool = TermPool::new();
        let t1 = pool.bool_atom(0);
        let t2 = pool.bool_atom(1);
        let a = g.node(def(0, 0));
        let b = g.node(def(1, 1));
        let c = g.node(def(2, 2));
        g.add_edge(a, b, EdgeKind::Direct, t1);
        g.add_edge(b, c, EdgeKind::Direct, t2);
        let tt = pool.tt();
        let reach = g.reachable_with_guards(&mut pool, a, tt);
        let gc = reach.iter().find(|(n, _)| *n == c).unwrap().1;
        let expect = pool.and2(t1, t2);
        assert_eq!(gc, expect);
    }

    #[test]
    fn edge_licenses_are_recorded_first_wins() {
        let mut g = Vfg::new();
        let pool = TermPool::new();
        let a = g.node(def(0, 0));
        let b = g.node(def(1, 1));
        let o = ObjId::new(3);
        let o2 = ObjId::new(4);
        assert!(g.add_edge_licensed(a, b, EdgeKind::Interference, pool.tt(), o));
        // Re-adding neither duplicates the edge nor rewrites the license.
        assert!(!g.add_edge_licensed(a, b, EdgeKind::Interference, pool.tt(), o2));
        assert_eq!(g.license_of(a, b, EdgeKind::Interference), Some(o));
        // Plain edges carry no license.
        g.add_edge(b, a, EdgeKind::Direct, pool.tt());
        assert_eq!(g.license_of(b, a, EdgeKind::Direct), None);
        assert_eq!(g.license_of(a, b, EdgeKind::Direct), None);
    }

    #[test]
    fn approx_bytes_grows_with_graph() {
        let mut g = Vfg::new();
        let pool = TermPool::new();
        let base = g.approx_bytes();
        let a = g.node(def(0, 0));
        let b = g.node(def(1, 1));
        g.add_edge(a, b, EdgeKind::Direct, pool.tt());
        assert!(g.approx_bytes() > base);
    }
}
