//! Bounded source→sink path enumeration over the guarded VFG (Eq. 3).
//!
//! A value-flow path is a simple node sequence following direct, data-
//! dependence and interference edges. Enumeration is a depth-first walk
//! with per-query caps on path length and count — the search is
//! *on-demand*: it only ever touches the part of the graph reachable
//! from the sources of the property under check, which is the heart of
//! Canary's state-space reduction.

use canary_smt::TermId;
use canary_vfg::{EdgeKind, NodeId, Vfg};
use rustc_hash::FxHashSet;

/// One enumerated path: the node sequence and its edge facts.
#[derive(Clone, Debug)]
pub struct VfPath {
    /// Nodes from source to sink, inclusive.
    pub nodes: Vec<NodeId>,
    /// Guards of the traversed edges, in order.
    pub guards: Vec<TermId>,
    /// Kinds of the traversed edges, in order (`guards[i]` and
    /// `kinds[i]` describe the edge `nodes[i] → nodes[i+1]`).
    pub kinds: Vec<EdgeKind>,
    /// Whether any traversed edge is an interference edge.
    pub has_interference: bool,
}

/// Caps bounding one path query.
#[derive(Clone, Copy, Debug)]
pub struct PathLimits {
    /// Maximum nodes on a path.
    pub max_len: usize,
    /// Maximum number of paths returned per (source, sink-set) query.
    pub max_paths: usize,
}

impl Default for PathLimits {
    fn default() -> Self {
        PathLimits {
            max_len: 64,
            max_paths: 128,
        }
    }
}

/// The node set that can reach the sink set, precomputed once per
/// (graph, sink-set) pair by a reverse BFS over `in_edges`. The DFS
/// never expands a node outside this set — such a subtree can yield no
/// path, so skipping it leaves the emitted path sequence (order,
/// truncation, everything) byte-identical while cutting the walk to
/// the productive part of the graph.
#[derive(Clone, Debug)]
pub struct SinkReach {
    can_reach: Vec<bool>,
}

impl SinkReach {
    /// Computes reverse reachability from `sinks` over `vfg`.
    pub fn compute(vfg: &Vfg, sinks: &FxHashSet<NodeId>) -> SinkReach {
        let mut can_reach = vec![false; vfg.node_count()];
        let mut stack: Vec<NodeId> = Vec::with_capacity(sinks.len());
        for &s in sinks {
            if s.index() < can_reach.len() && !can_reach[s.index()] {
                can_reach[s.index()] = true;
                stack.push(s);
            }
        }
        while let Some(n) = stack.pop() {
            for e in vfg.in_edges(n) {
                if !can_reach[e.from.index()] {
                    can_reach[e.from.index()] = true;
                    stack.push(e.from);
                }
            }
        }
        SinkReach { can_reach }
    }

    /// Whether `n` can reach some sink.
    pub fn reaches(&self, n: NodeId) -> bool {
        self.can_reach.get(n.index()).copied().unwrap_or(false)
    }
}

/// Enumerates simple paths from `source` to any node in `sinks`.
pub fn enumerate_paths(
    vfg: &Vfg,
    source: NodeId,
    sinks: &FxHashSet<NodeId>,
    limits: PathLimits,
) -> Vec<VfPath> {
    let reach = SinkReach::compute(vfg, sinks);
    enumerate_paths_pruned(vfg, source, sinks, &reach, limits)
}

/// [`enumerate_paths`] with the reverse-reachability set supplied by
/// the caller — use this when many sources are enumerated against the
/// same sink set, so the BFS runs once instead of once per source.
pub fn enumerate_paths_pruned(
    vfg: &Vfg,
    source: NodeId,
    sinks: &FxHashSet<NodeId>,
    reach: &SinkReach,
    limits: PathLimits,
) -> Vec<VfPath> {
    enumerate_paths_budgeted(vfg, source, sinks, reach, limits).0
}

/// Which enumeration budget cut the search short, if any. A set flag
/// means viable exploration (an extendable prefix toward a sink) was
/// actually skipped — not merely that a limit was reached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathTruncation {
    /// The path-count budget fired with exploration remaining.
    pub max_paths: bool,
    /// The path-length budget cut off an extendable prefix.
    pub max_len: bool,
}

impl PathTruncation {
    /// The limit name for an audit certificate; `max_paths` wins when
    /// both fired (it is the cut that abandoned whole subtrees).
    pub fn limit(self) -> Option<&'static str> {
        match (self.max_paths, self.max_len) {
            (true, _) => Some("max_paths"),
            (false, true) => Some("max_len"),
            (false, false) => None,
        }
    }
}

/// [`enumerate_paths_pruned`], also reporting whether a budget
/// truncated the search — the signal behind the audit layer's
/// `path_budget` disposition.
pub fn enumerate_paths_budgeted(
    vfg: &Vfg,
    source: NodeId,
    sinks: &FxHashSet<NodeId>,
    reach: &SinkReach,
    limits: PathLimits,
) -> (Vec<VfPath>, PathTruncation) {
    let mut out = Vec::new();
    let mut trunc = PathTruncation::default();
    if !reach.reaches(source) {
        return (out, trunc);
    }
    let mut nodes = vec![source];
    let mut guards: Vec<TermId> = Vec::new();
    let mut kinds: Vec<EdgeKind> = Vec::new();
    let mut on_path: FxHashSet<NodeId> = FxHashSet::default();
    on_path.insert(source);
    dfs(
        vfg,
        source,
        sinks,
        reach,
        &limits,
        &mut nodes,
        &mut guards,
        &mut kinds,
        &mut on_path,
        &mut out,
        &mut trunc,
    );
    (out, trunc)
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    vfg: &Vfg,
    cur: NodeId,
    sinks: &FxHashSet<NodeId>,
    reach: &SinkReach,
    limits: &PathLimits,
    nodes: &mut Vec<NodeId>,
    guards: &mut Vec<TermId>,
    kinds: &mut Vec<EdgeKind>,
    on_path: &mut FxHashSet<NodeId>,
    out: &mut Vec<VfPath>,
    trunc: &mut PathTruncation,
) {
    if out.len() >= limits.max_paths {
        trunc.max_paths = true;
        return;
    }
    if sinks.contains(&cur) && nodes.len() > 1 {
        out.push(VfPath {
            nodes: nodes.clone(),
            guards: guards.clone(),
            kinds: kinds.clone(),
            has_interference: kinds.contains(&EdgeKind::Interference),
        });
        // A sink can also be an intermediate node; keep exploring.
    }
    if nodes.len() >= limits.max_len {
        if vfg
            .out_edges(cur)
            .any(|e| !on_path.contains(&e.to) && reach.reaches(e.to))
        {
            trunc.max_len = true;
        }
        return;
    }
    for e in vfg.out_edges(cur) {
        if on_path.contains(&e.to) || !reach.reaches(e.to) {
            continue;
        }
        nodes.push(e.to);
        guards.push(e.guard);
        kinds.push(e.kind);
        on_path.insert(e.to);
        dfs(
            vfg, e.to, sinks, reach, limits, nodes, guards, kinds, on_path, out, trunc,
        );
        on_path.remove(&e.to);
        kinds.pop();
        guards.pop();
        nodes.pop();
        // No early exit on a spent path budget: remaining viable
        // siblings still enter `dfs`, whose entry check is what marks
        // the truncation (it only fires for exploration genuinely
        // skipped, keeping the `path_budget` audit signal exact).
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_ir::{Label, VarId};
    use canary_smt::TermPool;
    use canary_vfg::NodeKind;

    fn def(v: u32, l: u32) -> NodeKind {
        NodeKind::Def {
            var: VarId::new(v),
            label: Label::new(l),
        }
    }

    #[test]
    fn single_edge_path() {
        let mut g = Vfg::new();
        let pool = TermPool::new();
        let a = g.node(def(0, 0));
        let b = g.node(def(1, 1));
        g.add_edge(a, b, EdgeKind::Direct, pool.tt());
        let sinks: FxHashSet<NodeId> = [b].into_iter().collect();
        let paths = enumerate_paths(&g, a, &sinks, PathLimits::default());
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].nodes, vec![a, b]);
        assert!(!paths[0].has_interference);
    }

    #[test]
    fn diamond_yields_two_paths() {
        let mut g = Vfg::new();
        let pool = TermPool::new();
        let a = g.node(def(0, 0));
        let b = g.node(def(1, 1));
        let c = g.node(def(2, 2));
        let d = g.node(def(3, 3));
        g.add_edge(a, b, EdgeKind::Direct, pool.tt());
        g.add_edge(a, c, EdgeKind::Direct, pool.tt());
        g.add_edge(b, d, EdgeKind::DataDep, pool.tt());
        g.add_edge(c, d, EdgeKind::Interference, pool.tt());
        let sinks: FxHashSet<NodeId> = [d].into_iter().collect();
        let mut paths = enumerate_paths(&g, a, &sinks, PathLimits::default());
        paths.sort_by_key(|p| p.nodes.clone());
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().any(|p| p.has_interference));
        assert!(paths.iter().any(|p| !p.has_interference));
    }

    #[test]
    fn cycles_do_not_loop_forever() {
        let mut g = Vfg::new();
        let pool = TermPool::new();
        let a = g.node(def(0, 0));
        let b = g.node(def(1, 1));
        let c = g.node(def(2, 2));
        g.add_edge(a, b, EdgeKind::Direct, pool.tt());
        g.add_edge(b, a, EdgeKind::Direct, pool.tt());
        g.add_edge(b, c, EdgeKind::Direct, pool.tt());
        let sinks: FxHashSet<NodeId> = [c].into_iter().collect();
        let paths = enumerate_paths(&g, a, &sinks, PathLimits::default());
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn max_paths_cap_respected() {
        // A ladder graph with exponentially many paths.
        let mut g = Vfg::new();
        let pool = TermPool::new();
        let mut layer = vec![g.node(def(0, 0))];
        let mut next_id = 1;
        for _ in 0..10 {
            let mut next_layer = Vec::new();
            for _ in 0..2 {
                let n = g.node(def(next_id, next_id));
                next_id += 1;
                for &p in &layer {
                    g.add_edge(p, n, EdgeKind::Direct, pool.tt());
                }
                next_layer.push(n);
            }
            layer = next_layer;
        }
        let end = g.node(def(next_id, next_id));
        for &p in &layer {
            g.add_edge(p, end, EdgeKind::Direct, pool.tt());
        }
        let sinks: FxHashSet<NodeId> = [end].into_iter().collect();
        let limits = PathLimits {
            max_len: 64,
            max_paths: 16,
        };
        let start = NodeId(0);
        let paths = enumerate_paths(&g, start, &sinks, limits);
        assert_eq!(paths.len(), 16);
    }

    #[test]
    fn pruning_skips_dead_subtrees_without_changing_output() {
        // a → b → sink, plus a large dead branch a → d0 → d1 → … that
        // cannot reach the sink. The pruned walk must produce exactly
        // the same paths in the same order.
        let mut g = Vfg::new();
        let pool = TermPool::new();
        let a = g.node(def(0, 0));
        let b = g.node(def(1, 1));
        let s = g.node(def(2, 2));
        g.add_edge(a, b, EdgeKind::Direct, pool.tt());
        g.add_edge(b, s, EdgeKind::Direct, pool.tt());
        let mut prev = a;
        for i in 0..20 {
            let d = g.node(def(100 + i, 100 + i));
            g.add_edge(prev, d, EdgeKind::Direct, pool.tt());
            prev = d;
        }
        let sinks: FxHashSet<NodeId> = [s].into_iter().collect();
        let reach = SinkReach::compute(&g, &sinks);
        assert!(reach.reaches(a) && reach.reaches(b) && reach.reaches(s));
        assert!(!reach.reaches(prev));
        let paths = enumerate_paths(&g, a, &sinks, PathLimits::default());
        let pruned = enumerate_paths_pruned(&g, a, &sinks, &reach, PathLimits::default());
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].nodes, pruned[0].nodes);
        assert_eq!(paths[0].guards, pruned[0].guards);
    }

    #[test]
    fn unreachable_source_returns_no_paths() {
        let mut g = Vfg::new();
        let pool = TermPool::new();
        let a = g.node(def(0, 0));
        let b = g.node(def(1, 1));
        let s = g.node(def(2, 2));
        g.add_edge(b, s, EdgeKind::Direct, pool.tt());
        let _ = a;
        let sinks: FxHashSet<NodeId> = [s].into_iter().collect();
        assert!(enumerate_paths(&g, a, &sinks, PathLimits::default()).is_empty());
    }

    #[test]
    fn sink_as_intermediate_node_is_reported_once_per_visit() {
        let mut g = Vfg::new();
        let pool = TermPool::new();
        let a = g.node(def(0, 0));
        let b = g.node(def(1, 1));
        let c = g.node(def(2, 2));
        g.add_edge(a, b, EdgeKind::Direct, pool.tt());
        g.add_edge(b, c, EdgeKind::Direct, pool.tt());
        let sinks: FxHashSet<NodeId> = [b, c].into_iter().collect();
        let paths = enumerate_paths(&g, a, &sinks, PathLimits::default());
        // a→b and a→b→c.
        assert_eq!(paths.len(), 2);
    }
}
