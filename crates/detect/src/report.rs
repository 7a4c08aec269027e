//! Bug reports.
//!
//! A Canary report is deliberately small (§1: "concise bug reports with
//! a limited number of relevant statements and conditions"): the
//! source, the sink, the value-flow path between them, and the
//! constraint whose satisfiability witnessed the interleaving.

use std::collections::HashMap;
use std::fmt;

use canary_ir::{CondId, Label, Program, ThreadId};

use crate::provenance::{strip_position, Fingerprint, Fnv, Provenance};

/// The property class of a finding.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BugKind {
    /// A freed value is dereferenced later (possibly in another thread).
    UseAfterFree,
    /// The same value is freed twice.
    DoubleFree,
    /// A null value is dereferenced.
    NullDeref,
    /// Tainted data reaches a public sink.
    DataLeak,
    /// A non-reentrant lock is re-acquired while its guard is live.
    DoubleLock,
    /// Two threads acquire the same locks in conflicting orders — a
    /// deadlock-capable acquisition-order cycle.
    ConflictLock,
}

impl fmt::Display for BugKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BugKind::UseAfterFree => "use-after-free",
            BugKind::DoubleFree => "double-free",
            BugKind::NullDeref => "null-dereference",
            BugKind::DataLeak => "data-leak",
            BugKind::DoubleLock => "double-lock",
            BugKind::ConflictLock => "conflict-lock",
        };
        f.write_str(s)
    }
}

/// One confirmed (SMT-satisfiable) source-sink finding.
#[derive(Clone, Debug)]
pub struct BugReport {
    /// The property violated.
    pub kind: BugKind,
    /// The source statement (free / null assignment / taint source).
    pub source: Label,
    /// The sink statement (dereference / second free / leak sink).
    pub sink: Label,
    /// The value-flow path, rendered as `v@ℓ` node names.
    pub path: Vec<String>,
    /// Whether the witness spans more than one thread.
    pub inter_thread: bool,
    /// Human-readable rendering of the aggregated constraint.
    pub constraint: String,
    /// A concrete witness interleaving: a complete replayable prefix of
    /// one sequentially consistent execution satisfying `Φ_all` — the
    /// constrained events of the SMT model, closed under the fork/join
    /// sites that must run for them to execute, in one total order
    /// (§2's debugging aid, executable by `canary-oracle`).
    pub schedule: Vec<Label>,
    /// The executing static thread of each step a SARIF `threadFlow`
    /// renders — the steps of [`BugReport::schedule`], or `[source,
    /// sink]` when it is empty: the first thread that may run the
    /// step's function, else [`canary_ir::MAIN_THREAD`].
    pub step_threads: Vec<ThreadId>,
    /// The branch-atom valuation of the witnessing SMT model, as sorted
    /// `(cond, value)` pairs: the branch directions a concrete replay
    /// of [`BugReport::schedule`] must take. Atoms absent here were
    /// unconstrained in the model.
    pub guards: Vec<(CondId, bool)>,
    /// The evidence DAG behind the finding: traversed VFG edges with
    /// their guard conjuncts, escape facts licensing each interference
    /// edge, MHP facts consulted, and the satisfying model slice.
    pub provenance: Option<Provenance>,
}

impl BugReport {
    /// Computes the stable content-addressed identity of the finding
    /// (see [`Fingerprint`]): FNV-1a over the bug kind, source and
    /// sink statement text plus enclosing function names, the
    /// thread-scope flag, and the position-stripped path shape.
    /// Statement *labels* never enter the hash, so renumbering caused
    /// by edits elsewhere in the program leaves fingerprints stable.
    pub fn fingerprint(&self, prog: &Program) -> Fingerprint {
        let mut h = Fnv::new();
        h.field("canary/v1");
        h.field(&self.kind.to_string());
        h.field(&canary_ir::render_inst(prog, self.source));
        h.field(&prog.func(prog.func_of(self.source)).name);
        h.field(&canary_ir::render_inst(prog, self.sink));
        h.field(&prog.func(prog.func_of(self.sink)).name);
        h.field(if self.inter_thread { "inter" } else { "intra" });
        for step in &self.path {
            h.field(strip_position(step));
        }
        Fingerprint(h.finish())
    }

    /// Renders the report against the program for display.
    pub fn render(&self, prog: &Program) -> String {
        let src_fn = prog.func(prog.func_of(self.source)).name.clone();
        let sink_fn = prog.func(prog.func_of(self.sink)).name.clone();
        let scope = if self.inter_thread {
            "inter-thread"
        } else {
            "intra-thread"
        };
        let schedule = if self.schedule.is_empty() {
            String::new()
        } else {
            let steps: Vec<String> = self
                .schedule
                .iter()
                .map(|&l| format!("{l}:{}", canary_ir::render_inst(prog, l)))
                .collect();
            format!("\n  witness schedule: {}", steps.join("  |  "))
        };
        format!(
            "[{}] {} {}: {} in `{}` reaches {} in `{}`\n  path: {}\n  constraint: {}{}",
            scope,
            self.kind,
            if self.inter_thread { "(concurrent)" } else { "" },
            canary_ir::render_inst(prog, self.source),
            src_fn,
            canary_ir::render_inst(prog, self.sink),
            sink_fn,
            self.path.join(" -> "),
            self.constraint,
            schedule,
        )
    }
}

/// Collapses fingerprint-equal reports (the same finding surfacing
/// through multiple checkers or paths) down to one representative per
/// fingerprint, keeping the *shortest* witness — fewest path steps,
/// then fewest schedule steps, then smallest `(source, sink)` as the
/// deterministic tie-break. First-occurrence order of fingerprints is
/// preserved, so the output order is stable for any input order that
/// is itself stable.
pub fn dedup_reports(prog: &Program, reports: Vec<BugReport>) -> Vec<BugReport> {
    let mut order: Vec<u64> = Vec::new();
    let mut best: HashMap<u64, BugReport> = HashMap::new();
    for r in reports {
        let fp = r.fingerprint(prog).0;
        match best.entry(fp) {
            std::collections::hash_map::Entry::Vacant(e) => {
                order.push(fp);
                e.insert(r);
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let cur = e.get();
                let new_key = (r.path.len(), r.schedule.len(), r.source, r.sink);
                let cur_key = (cur.path.len(), cur.schedule.len(), cur.source, cur.sink);
                if new_key < cur_key {
                    e.insert(r);
                }
            }
        }
    }
    order
        .into_iter()
        .map(|fp| best.remove(&fp).expect("every ordered fingerprint was inserted"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_display() {
        assert_eq!(BugKind::UseAfterFree.to_string(), "use-after-free");
        assert_eq!(BugKind::DoubleFree.to_string(), "double-free");
        assert_eq!(BugKind::NullDeref.to_string(), "null-dereference");
        assert_eq!(BugKind::DataLeak.to_string(), "data-leak");
        assert_eq!(BugKind::DoubleLock.to_string(), "double-lock");
        assert_eq!(BugKind::ConflictLock.to_string(), "conflict-lock");
    }

    #[test]
    fn render_contains_path_and_kind() {
        let prog = canary_ir::parse("fn main() { p = alloc o; free p; use p; }").unwrap();
        let report = BugReport {
            kind: BugKind::UseAfterFree,
            source: prog.free_sites()[0],
            sink: prog.deref_sites()[0],
            path: vec!["p@l0".into(), "p@l1".into()],
            inter_thread: false,
            constraint: "true".into(),
            schedule: vec![prog.free_sites()[0], prog.deref_sites()[0]],
            step_threads: Vec::new(),
            guards: Vec::new(),
            provenance: None,
        };
        let text = report.render(&prog);
        assert!(text.contains("use-after-free"));
        assert!(text.contains("p@l0 -> p@l1"));
        assert!(text.contains("free p"));
    }

    fn sample_report(prog: &Program, path: Vec<String>, schedule_len: usize) -> BugReport {
        BugReport {
            kind: BugKind::UseAfterFree,
            source: prog.free_sites()[0],
            sink: prog.deref_sites()[0],
            path,
            inter_thread: false,
            constraint: "true".into(),
            schedule: vec![prog.free_sites()[0]; schedule_len],
            step_threads: Vec::new(),
            guards: Vec::new(),
            provenance: None,
        }
    }

    #[test]
    fn fingerprint_ignores_label_positions() {
        let prog = canary_ir::parse("fn main() { p = alloc o; free p; use p; }").unwrap();
        let a = sample_report(&prog, vec!["p@l0".into(), "p@l1".into()], 0);
        let b = sample_report(&prog, vec!["p@l7".into(), "p@l9".into()], 0);
        assert_eq!(a.fingerprint(&prog), b.fingerprint(&prog));
        let c = sample_report(&prog, vec!["q@l0".into(), "p@l1".into()], 0);
        assert_ne!(a.fingerprint(&prog), c.fingerprint(&prog));
    }

    #[test]
    fn dedup_keeps_shortest_witness_in_first_occurrence_order() {
        let prog = canary_ir::parse("fn main() { p = alloc o; free p; use p; }").unwrap();
        let long = sample_report(
            &prog,
            vec!["p@l0".into(), "p@l2".into(), "p@l1".into()],
            3,
        );
        let short = sample_report(&prog, vec!["p@l0".into(), "p@l1".into()], 2);
        // Same fingerprint class only if the shape matches; the 3-step
        // and 2-step paths differ in shape, so craft two same-shape
        // reports with different schedules instead.
        let slow = sample_report(&prog, vec!["p@l0".into(), "p@l1".into()], 5);
        let out = dedup_reports(&prog, vec![slow.clone(), short.clone(), long.clone()]);
        // `slow` and `short` share a fingerprint: the shorter schedule
        // wins, but the entry keeps `slow`'s first-occurrence slot.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].schedule.len(), 2);
        assert_eq!(out[1].path.len(), 3);
    }
}
