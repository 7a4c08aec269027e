//! Witness-schedule completion.
//!
//! The SMT model orders only the events that appear in some order atom
//! of `Φ_all`; a report's raw witness therefore names value-flow events
//! but not the fork that starts the thread executing them, nor the join
//! a later event waits behind. [`complete_schedule`] closes the event
//! set under those control dependencies and linearizes it into one
//! total order consistent with both the model and the interprocedural
//! program order — a *replayable prefix* the concrete oracle
//! (`canary-oracle`) can execute step by step.

use std::collections::{BTreeMap, BTreeSet};

use canary_ir::{Label, OrderGraph, Program};

use crate::detector::MemoryModel;

/// Completes a raw SMT witness into a replayable schedule.
///
/// The returned sequence contains the witness events, the report's
/// source and sink, and every fork/join site that happens-before any of
/// them (so forked threads exist, and join-ordered events come after
/// their join), in one total order that respects:
///
/// 1. the model's witness order (`witness[i]` before `witness[i+1]`),
/// 2. the program-order pairs the memory model retains — under TSO/PSO
///    the witness may legitimately invert a relaxed store→load or
///    store→store pair (the store's schedule slot is then its *flush*
///    point on the store-buffer oracle), so relaxed pairs contribute no
///    edge and the witness chain alone decides their order.
///
/// Linearization is Kahn's algorithm with smallest-label tie-breaking,
/// so the result is deterministic.
pub fn complete_schedule(
    prog: &Program,
    og: &OrderGraph,
    model: MemoryModel,
    witness: &[Label],
    source: Label,
    sink: Label,
) -> Vec<Label> {
    let mut events: BTreeSet<Label> = witness.iter().copied().collect();
    events.insert(source);
    events.insert(sink);

    // Close under fork/join control dependencies: a fork or join site
    // that happens-before an event must execute before it, so it
    // belongs in the prefix. Adding a fork can make an outer fork
    // relevant (nested threads), hence the fixed point.
    loop {
        let mut added = false;
        for info in &prog.threads {
            for site in [info.fork_site, info.join_site].into_iter().flatten() {
                if events.contains(&site) {
                    continue;
                }
                if events.iter().any(|&e| og.happens_before(site, e)) {
                    events.insert(site);
                    added = true;
                }
            }
        }
        if !added {
            break;
        }
    }

    // Order edges: program order between ordered pairs, plus the
    // model's witness chain.
    let mut succs: BTreeMap<Label, BTreeSet<Label>> = BTreeMap::new();
    let mut indeg: BTreeMap<Label, usize> = events.iter().map(|&e| (e, 0)).collect();
    let add_edge = |a: Label,
                    b: Label,
                    succs: &mut BTreeMap<Label, BTreeSet<Label>>,
                    indeg: &mut BTreeMap<Label, usize>| {
        if a != b && succs.entry(a).or_default().insert(b) {
            *indeg.get_mut(&b).expect("edge target is an event") += 1;
        }
    };
    let keep = crate::detector::order_policy(prog, model);
    let evs: Vec<Label> = events.iter().copied().collect();
    for (i, &a) in evs.iter().enumerate() {
        for &b in &evs[i + 1..] {
            // `happens_before` both ways means the labels were merged by
            // context cloning; skip to keep the graph acyclic. Pairs the
            // memory model relaxes contribute no edge either — the
            // witness chain is free to invert them.
            match (og.happens_before(a, b), og.happens_before(b, a)) {
                (true, false) if keep(a, b) => add_edge(a, b, &mut succs, &mut indeg),
                (false, true) if keep(b, a) => add_edge(b, a, &mut succs, &mut indeg),
                _ => {}
            }
        }
    }
    for w in witness.windows(2) {
        add_edge(w[0], w[1], &mut succs, &mut indeg);
    }

    // Kahn with smallest-label tie-breaking.
    let mut ready: BTreeSet<Label> = indeg
        .iter()
        .filter(|&(_, &d)| d == 0)
        .map(|(&e, _)| e)
        .collect();
    let mut out = Vec::with_capacity(events.len());
    while let Some(&e) = ready.iter().next() {
        ready.remove(&e);
        out.push(e);
        if let Some(next) = succs.get(&e) {
            for &n in next {
                let d = indeg.get_mut(&n).expect("edge target has an indegree");
                *d -= 1;
                if *d == 0 {
                    ready.insert(n);
                }
            }
        }
    }
    if out.len() < events.len() {
        // A cycle between the witness chain and program order should be
        // impossible (the model satisfies Φ_po); fall back to the raw
        // witness rather than emit a truncated prefix.
        let mut rest: Vec<Label> = events
            .iter()
            .copied()
            .filter(|e| !out.contains(e))
            .collect();
        rest.sort_unstable();
        out.extend(rest);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_ir::{parse, CallGraph};

    fn setup(src: &str) -> (Program, CallGraph) {
        let prog = parse(src).unwrap();
        prog.validate().unwrap();
        let cg = CallGraph::build(&prog);
        (prog, cg)
    }

    #[test]
    fn fork_site_is_pulled_into_schedule() {
        let (prog, cg) = setup(
            "fn main() { p = alloc o; fork t w(p); free p; }
             fn w(q) { use q; }",
        );
        let og = OrderGraph::build(&prog, &cg);
        let free = prog.free_sites()[0];
        let deref = prog.deref_sites()[0];
        let sched = complete_schedule(&prog, &og, MemoryModel::Sc, &[free, deref], free, deref);
        let fork = prog.threads[1].fork_site.unwrap();
        let pos = |l: Label| sched.iter().position(|&x| x == l).unwrap();
        assert!(sched.contains(&fork), "{sched:?}");
        // The fork precedes the child's deref; the witness order is kept.
        assert!(pos(fork) < pos(deref));
        assert!(pos(free) < pos(deref));
    }

    #[test]
    fn join_ordering_is_respected() {
        let (prog, cg) = setup(
            "fn main() { p = alloc o; fork t w(p); join t; free p; }
             fn w(q) { use q; }",
        );
        let og = OrderGraph::build(&prog, &cg);
        let free = prog.free_sites()[0];
        let deref = prog.deref_sites()[0];
        // Witness says use-then-free (the only feasible order here).
        let sched = complete_schedule(&prog, &og, MemoryModel::Sc, &[deref, free], deref, free);
        let join = prog.threads[1].join_site.unwrap();
        let pos = |l: Label| sched.iter().position(|&x| x == l).unwrap();
        assert!(sched.contains(&join), "{sched:?}");
        assert!(pos(join) < pos(free));
        assert!(pos(deref) < pos(join) || pos(deref) < pos(free));
    }

    #[test]
    fn schedule_has_no_duplicates() {
        let (prog, cg) = setup(
            "fn main() { p = alloc o; fork t w(p); free p; }
             fn w(q) { use q; }",
        );
        let og = OrderGraph::build(&prog, &cg);
        let free = prog.free_sites()[0];
        let deref = prog.deref_sites()[0];
        let sched = complete_schedule(
            &prog,
            &og,
            MemoryModel::Sc,
            &[free, deref, free],
            free,
            deref,
        );
        let set: BTreeSet<Label> = sched.iter().copied().collect();
        assert_eq!(set.len(), sched.len());
    }
}
