//! The analysis audit layer: one terminal disposition, with a
//! machine-checkable certificate, for every candidate source/sink pair
//! the pipeline ever considers.
//!
//! Positive findings explain themselves with provenance DAGs (PR 5);
//! this module gives the *negative* space the same treatment. Each
//! suppression layer — interference-time MHP and lock-sharpened
//! pruning (Alg. 2), the Φ-prefilter, UNSAT-core subsumption and the
//! verdict memo (§5.2), fingerprint dedup — records *why* a candidate
//! died, and a reconciliation invariant
//! (`candidates == reported + deduped + Σ pruned-by-reason`) turns
//! silent candidate loss anywhere in the pipeline into a hard failure.
//!
//! Determinism contract: every record is derived from term-determined
//! data only (the hash-consed query term, the candidate enumeration
//! order, the interference fixpoint's committed state), so the JSONL
//! export is byte-identical across `--threads` and
//! `--solver-strategy`. Strategy-dependent refinements (the solver's
//! assumption core) ride along in a separate display-only field that
//! never reaches the canonical export.

use canary_ir::Label;
use canary_smt::{is_sorted_subset, TermId, TermPool};
use rustc_hash::{FxHashMap, FxHashSet};

use crate::provenance::Fingerprint;
use crate::report::BugKind;

/// Which pipeline layer disposed of the candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditLayer {
    /// Alg. 2: a store/load pair suppressed before any VFG edge (and
    /// hence any candidate path) could exist.
    Interference,
    /// §5: a source/sink candidate of one of the checkers.
    Detect,
}

impl AuditLayer {
    fn name(self) -> &'static str {
        match self {
            AuditLayer::Interference => "interference",
            AuditLayer::Detect => "detect",
        }
    }
}

/// The terminal disposition of one candidate, with its certificate.
#[derive(Clone, Debug, PartialEq)]
pub enum Disposition {
    /// Confirmed and emitted as a finding.
    Reported {
        /// The finding's stable fingerprint.
        fingerprint: Fingerprint,
    },
    /// Confirmed but collapsed into an equivalent finding.
    Deduped {
        /// Fingerprint of the surviving report.
        winner: Fingerprint,
    },
    /// Store/load pair suppressed by the MHP analysis: the facts
    /// consulted showed no interleaving lets the store reach the load.
    PrunedMhp {
        /// Whether MHP said the pair may run concurrently.
        parallel: bool,
        /// Whether the store is ordered (program/fork/join order)
        /// before the load.
        ordered_before: bool,
    },
    /// Store/load pair suppressed by lock-sharpened MHP (PR 7): both
    /// accesses sit in critical sections of the same lock class and a
    /// killing store overwrites the value before the section ends.
    PrunedLockSharpen {
        /// The shared lock class (allocation-site equivalence class).
        class: usize,
        /// The store that overwrites the value inside the region.
        killing_store: Label,
    },
    /// Store/load pair refuted by program order alone: the load is
    /// ordered before the store, so the value can never flow.
    PrunedStoreOrder,
    /// Killed by the Φ-prefilter without any solver work.
    Prefiltered {
        /// `true` when the semi-decision prefilter found inconsistent
        /// top-level order literals (a unit cycle); `false` when the
        /// constraints folded to `false` at construction
        /// (complementary branch guards or order atoms).
        unit_cycle: bool,
    },
    /// Refuted without solving: the candidate's conjunct set contains
    /// a previously refuted conjunct set.
    UnsatCore {
        /// Rendered conjuncts of the refuted set: each capped at 160
        /// characters, at most 16 listed (`…(+N more)` tails the list).
        conjuncts: Vec<String>,
        /// Hash-consed term ids of the full conjunct set.
        conjunct_ids: Vec<usize>,
        /// Audit sequence number of the earlier candidate whose
        /// refuted set this one's conjuncts contain, if any; `None`
        /// for the first refutation of this conjunct set.
        subsumed_by: Option<usize>,
    },
    /// Refuted by the verdict memo: an identical hash-consed query was
    /// already refuted.
    CacheMemo {
        /// Audit sequence number of the original refuted candidate.
        origin: usize,
    },
    /// Path enumeration from this source was truncated by a budget, so
    /// candidates past the cut were never materialized.
    PathBudget {
        /// Which limit fired: `"max_paths"` or `"max_len"`.
        limit: &'static str,
    },
    /// Intra-thread candidate dropped by `--inter-thread-only`.
    ScopeFiltered,
}

impl Disposition {
    /// Machine-readable tag used in the JSONL export.
    pub fn tag(&self) -> &'static str {
        match self {
            Disposition::Reported { .. } => "reported",
            Disposition::Deduped { .. } => "deduped",
            Disposition::PrunedMhp { .. } => "pruned_mhp",
            Disposition::PrunedLockSharpen { .. } => "pruned_lock_sharpen",
            Disposition::PrunedStoreOrder => "pruned_store_order",
            Disposition::Prefiltered { .. } => "prefiltered",
            Disposition::UnsatCore { .. } => "unsat_core",
            Disposition::CacheMemo { .. } => "cache_memo",
            Disposition::PathBudget { .. } => "path_budget",
            Disposition::ScopeFiltered => "scope_filtered",
        }
    }
}

/// One audited candidate: where it came from and how it died.
#[derive(Clone, Debug)]
pub struct AuditRecord {
    /// Position in the run-wide audit sequence (creation order:
    /// interference prunes first, then detect candidates in
    /// enumeration order). Deterministic for fixed analysis flags.
    pub seq: usize,
    /// Which layer considered the pair.
    pub layer: AuditLayer,
    /// Bug kind for detect-layer candidates, `None` for interference
    /// store/load pairs.
    pub kind: Option<BugKind>,
    /// Source label (the store, for interference pairs).
    pub source: Label,
    /// Sink label (the load, for interference pairs). `None` for
    /// source-scoped records like [`Disposition::PathBudget`].
    pub sink: Option<Label>,
    /// The allocation object the pair flows through, when known.
    pub object: Option<String>,
    /// Terminal disposition. `None` only while the candidate is in
    /// flight; a `None` surviving to [`AuditLog::reconcile`] is a
    /// pipeline bug.
    pub disposition: Option<Disposition>,
    /// Strategy-dependent refinement: the solver's assumption core,
    /// rendered. Display-only (`canary why-not`), excluded from the
    /// canonical JSONL export.
    pub solver_core: Option<Vec<String>>,
}

impl AuditRecord {
    /// Human-readable explanation of the disposition, as printed by
    /// `canary why-not`.
    pub fn describe(&self) -> String {
        let mut s = match &self.disposition {
            None => "candidate still in flight (pipeline bug: no terminal disposition)".to_string(),
            Some(Disposition::Reported { fingerprint }) => {
                format!("reported: confirmed finding {fingerprint}")
            }
            Some(Disposition::Deduped { winner }) => {
                format!("deduped: duplicate of finding {winner} (shortest witness kept)")
            }
            Some(Disposition::PrunedMhp {
                parallel,
                ordered_before,
            }) => format!(
                "pair pruned by MHP analysis: store {} and load {} {}{}",
                self.source,
                self.sink.map_or_else(|| "?".into(), |l| l.to_string()),
                if *parallel {
                    "may run in parallel"
                } else {
                    "never run in parallel"
                },
                if *ordered_before {
                    ""
                } else {
                    " and the store is not ordered before the load"
                },
            ),
            Some(Disposition::PrunedLockSharpen {
                class,
                killing_store,
            }) => format!(
                "pair pruned by lock-sharpened MHP: both accesses in class-{class} critical \
                 sections; killing store at {killing_store} overwrites the value before the \
                 region ends"
            ),
            Some(Disposition::PrunedStoreOrder) => format!(
                "pair pruned by program order: load {} is ordered before store {}",
                self.sink.map_or_else(|| "?".into(), |l| l.to_string()),
                self.source,
            ),
            Some(Disposition::Prefiltered { unit_cycle: false }) => {
                "candidate prefiltered: constraints fold to false at construction \
                 (complementary branch guards or order atoms)"
                    .to_string()
            }
            Some(Disposition::Prefiltered { unit_cycle: true }) => {
                "candidate prefiltered: inconsistent top-level order literals \
                 (unit cycle) caught by the semi-decision prefilter"
                    .to_string()
            }
            Some(Disposition::UnsatCore {
                conjuncts,
                subsumed_by,
                ..
            }) => {
                let over = format!("UNSAT over conjuncts [{}]", conjuncts.join(", "));
                match subsumed_by {
                    Some(origin) => format!(
                        "candidate refuted without solving: conjunct set contains the \
                         refuted set of candidate #{origin} ({over})"
                    ),
                    None => format!("candidate refuted by the solver: {over}"),
                }
            }
            Some(Disposition::CacheMemo { origin }) => format!(
                "candidate refuted by memo: identical constraint already refuted as \
                 candidate #{origin}"
            ),
            Some(Disposition::PathBudget { limit }) => format!(
                "path enumeration from {} truncated at the `{limit}` budget — candidates \
                 past the cut were never materialized",
                self.source
            ),
            Some(Disposition::ScopeFiltered) => {
                "candidate outside scope: intra-thread witness dropped by --inter-thread-only"
                    .to_string()
            }
        };
        if let Some(core) = &self.solver_core {
            s.push_str(&format!(
                "\n  solver assumption core (strategy-dependent): [{}]",
                core.join(", ")
            ));
        }
        s
    }

    /// The canonical JSONL line for this record. Key order is sorted
    /// (serde_json maps are BTree-backed), values are term-determined,
    /// and `solver_core` is deliberately excluded — the line is
    /// byte-identical across every scheduling and strategy knob.
    pub fn to_json(&self) -> serde_json::Value {
        let mut cert = std::collections::BTreeMap::<String, serde_json::Value>::new();
        match &self.disposition {
            None => {}
            Some(Disposition::Reported { fingerprint }) => {
                cert.insert("fingerprint".into(), fingerprint.to_string().into());
            }
            Some(Disposition::Deduped { winner }) => {
                cert.insert("winner".into(), winner.to_string().into());
            }
            Some(Disposition::PrunedMhp {
                parallel,
                ordered_before,
            }) => {
                cert.insert("parallel".into(), (*parallel).into());
                cert.insert("ordered_before".into(), (*ordered_before).into());
            }
            Some(Disposition::PrunedLockSharpen {
                class,
                killing_store,
            }) => {
                cert.insert("class".into(), (*class).into());
                cert.insert("killing_store".into(), killing_store.0.into());
            }
            Some(Disposition::PrunedStoreOrder) => {}
            Some(Disposition::Prefiltered { unit_cycle }) => {
                cert.insert("unit_cycle".into(), (*unit_cycle).into());
            }
            Some(Disposition::UnsatCore {
                conjuncts,
                conjunct_ids,
                subsumed_by,
            }) => {
                cert.insert("conjuncts".into(), conjuncts.clone().into());
                cert.insert(
                    "conjunct_ids".into(),
                    conjunct_ids
                        .iter()
                        .map(|&i| i as u64)
                        .collect::<Vec<_>>()
                        .into(),
                );
                cert.insert(
                    "subsumed_by".into(),
                    subsumed_by.map_or(serde_json::Value::Null, |s| (s as u64).into()),
                );
            }
            Some(Disposition::CacheMemo { origin }) => {
                cert.insert("origin".into(), (*origin as u64).into());
            }
            Some(Disposition::PathBudget { limit }) => {
                cert.insert("limit".into(), (*limit).into());
            }
            Some(Disposition::ScopeFiltered) => {}
        }
        serde_json::json!({
            "seq": self.seq,
            "layer": self.layer.name(),
            "kind": self.kind.map(|k| k.to_string()),
            "source": self.source.0,
            "sink": self.sink.map(|l| l.0),
            "object": self.object,
            "disposition": self.disposition.as_ref().map(Disposition::tag),
            "certificate": serde_json::Value::Object(cert),
        })
    }
}

/// Deterministic per-disposition totals, plus the reconciliation line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditSummary {
    /// Detect-layer candidates considered (everything except
    /// interference pairs and path-budget markers).
    pub candidates: usize,
    /// Confirmed and emitted.
    pub reported: usize,
    /// Confirmed, collapsed by fingerprint dedup.
    pub deduped: usize,
    /// Killed by the Φ-prefilter (construction folds + unit cycles).
    pub prefiltered: usize,
    /// Refuted by solving or by core subsumption.
    pub unsat: usize,
    /// Refuted by the verdict memo.
    pub memoized: usize,
    /// Dropped by `--inter-thread-only`.
    pub scope_filtered: usize,
    /// Path-budget truncation markers (not candidates).
    pub path_budget: usize,
    /// Interference pairs pruned by plain MHP.
    pub pruned_mhp: usize,
    /// Interference pairs pruned by lock-sharpened MHP.
    pub pruned_lock: usize,
    /// Interference pairs refuted by program order.
    pub pruned_order: usize,
}

impl AuditSummary {
    /// The `--stats` reconciliation line.
    pub fn render(&self) -> String {
        format!(
            "audit: {} candidates = {} reported + {} deduped + {} prefiltered + {} unsat + \
             {} memoized + {} scope-filtered; {} path-budget truncations; \
             {} interference pairs pruned (mhp {}, lock {}, order {})",
            self.candidates,
            self.reported,
            self.deduped,
            self.prefiltered,
            self.unsat,
            self.memoized,
            self.scope_filtered,
            self.path_budget,
            self.pruned_mhp + self.pruned_lock + self.pruned_order,
            self.pruned_mhp,
            self.pruned_lock,
            self.pruned_order,
        )
    }
}

/// The run-wide audit log. Lives in `canary_core::Metrics`; filled by
/// the interference fixpoint and the detect pipeline, exported via
/// `--audit-out` and queried by `canary why-not`.
#[derive(Clone, Debug, Default)]
pub struct AuditLog {
    records: Vec<AuditRecord>,
    /// First refuted (non-prefiltered, non-subsumed) occurrence of each
    /// hash-consed query term → its audit seq. Mirrors the solver's
    /// verdict memo, but derived from term identity alone so the
    /// disposition is strategy-invariant.
    first_unsat: FxHashMap<TermId, usize>,
    /// Conjunct sets (sorted) of first refutations, with their seq.
    /// Mirrors the UNSAT-core subsumption store under the same
    /// term-determined discipline.
    unsat_sets: Vec<(Vec<TermId>, usize)>,
}

impl AuditLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// All records, in audit sequence order.
    pub fn records(&self) -> &[AuditRecord] {
        &self.records
    }

    /// Opens a pending detect-layer record for a materialized
    /// candidate; returns its audit id (= seq).
    pub fn begin_candidate(&mut self, kind: BugKind, source: Label, sink: Label) -> usize {
        self.push(
            AuditLayer::Detect,
            Some(kind),
            source,
            Some(sink),
            None,
            None,
        )
    }

    /// Records an immediately-terminal detect-layer disposition (e.g.
    /// a construction-time fold or a scope filter).
    pub fn record_candidate(&mut self, kind: BugKind, source: Label, sink: Label, d: Disposition) {
        self.push(
            AuditLayer::Detect,
            Some(kind),
            source,
            Some(sink),
            None,
            Some(d),
        );
    }

    /// Records a path-budget truncation for `source` (sink unknown:
    /// the budget is exactly why the candidates don't exist).
    pub fn record_path_budget(
        &mut self,
        kind: BugKind,
        source: Label,
        object: Option<String>,
        limit: &'static str,
    ) {
        self.push(
            AuditLayer::Detect,
            Some(kind),
            source,
            None,
            object,
            Some(Disposition::PathBudget { limit }),
        );
    }

    /// Records an interference-layer pruned store/load pair.
    pub fn record_interference_prune(
        &mut self,
        store: Label,
        load: Label,
        object: Option<String>,
        d: Disposition,
    ) {
        self.push(
            AuditLayer::Interference,
            None,
            store,
            Some(load),
            object,
            Some(d),
        );
    }

    fn push(
        &mut self,
        layer: AuditLayer,
        kind: Option<BugKind>,
        source: Label,
        sink: Option<Label>,
        object: Option<String>,
        disposition: Option<Disposition>,
    ) -> usize {
        let seq = self.records.len();
        self.records.push(AuditRecord {
            seq,
            layer,
            kind,
            source,
            sink,
            object,
            disposition,
            solver_core: None,
        });
        seq
    }

    /// Disposes a pending record. Double disposal is a pipeline bug.
    pub fn dispose(&mut self, id: usize, d: Disposition) {
        debug_assert!(
            self.records[id].disposition.is_none(),
            "candidate #{id} disposed twice: {:?} then {:?}",
            self.records[id].disposition,
            d
        );
        self.records[id].disposition = Some(d);
    }

    /// Attaches the display-only solver core to a record.
    pub fn attach_solver_core(&mut self, id: usize, rendered: Vec<String>) {
        self.records[id].solver_core = Some(rendered);
    }

    /// Disposes a refuted candidate, deriving the certificate from
    /// term-determined data only so the disposition is identical under
    /// every solver strategy and scheduling knob:
    ///
    /// 1. prefiltered → [`Disposition::Prefiltered`] (`unit_cycle`
    ///    distinguishes solve-time unit-cycle detection from
    ///    construction folds; the prefilter runs first in both
    ///    strategies, so the flag is strategy-invariant);
    /// 2. a previously refuted identical term → `CacheMemo`;
    /// 3. a conjunct set containing an earlier refuted set →
    ///    `UnsatCore { subsumed_by: Some(_) }`;
    /// 4. otherwise the first refutation of this set →
    ///    `UnsatCore { subsumed_by: None }`, entering the audit-side
    ///    memo and subsumption store (prefiltered queries never enter
    ///    either, mirroring the solver).
    pub fn dispose_unsat(&mut self, id: usize, pool: &TermPool, query: TermId, prefiltered: bool) {
        if prefiltered {
            let unit_cycle = query != pool.ff();
            self.dispose(id, Disposition::Prefiltered { unit_cycle });
            return;
        }
        if let Some(&origin) = self.first_unsat.get(&query) {
            self.dispose(id, Disposition::CacheMemo { origin });
            return;
        }
        let conjs = pool.conjuncts_of(query);
        let subsumed_by = self
            .unsat_sets
            .iter()
            .find(|(set, _)| is_sorted_subset(set, &conjs))
            .map(|&(_, seq)| seq);
        let d = Disposition::UnsatCore {
            conjuncts: render_conjuncts(pool, &conjs),
            conjunct_ids: conjs.iter().map(|c| c.index()).collect(),
            subsumed_by,
        };
        if subsumed_by.is_none() {
            self.unsat_sets.push((conjs, id));
        }
        self.first_unsat.insert(query, id);
        self.dispose(id, d);
    }

    /// Flips `Reported` records whose `(kind, source, sink)` key is no
    /// longer among the emitted reports to `Deduped`. Fingerprint-equal
    /// reports collapse to one survivor, so a dropped record's winner
    /// carries its own fingerprint.
    pub fn apply_report_dedup(&mut self, kept: &FxHashSet<(BugKind, Label, Label)>) {
        for r in &mut self.records {
            let (Some(kind), Some(sink)) = (r.kind, r.sink) else {
                continue;
            };
            if let Some(Disposition::Reported { fingerprint }) = &r.disposition {
                if !kept.contains(&(kind, r.source, sink)) {
                    r.disposition = Some(Disposition::Deduped {
                        winner: *fingerprint,
                    });
                }
            }
        }
    }

    /// The reconciliation invariant: every record has exactly one
    /// terminal disposition. Returns the per-disposition totals, or an
    /// error naming the leaked candidates.
    pub fn reconcile(&self) -> Result<AuditSummary, String> {
        let mut s = AuditSummary::default();
        let mut leaked = Vec::new();
        for r in &self.records {
            match &r.disposition {
                None => leaked.push(format!(
                    "#{} {:?} {:?} {} -> {:?}",
                    r.seq, r.layer, r.kind, r.source, r.sink
                )),
                Some(Disposition::Reported { .. }) => s.reported += 1,
                Some(Disposition::Deduped { .. }) => s.deduped += 1,
                Some(Disposition::Prefiltered { .. }) => s.prefiltered += 1,
                Some(Disposition::UnsatCore { .. }) => s.unsat += 1,
                Some(Disposition::CacheMemo { .. }) => s.memoized += 1,
                Some(Disposition::ScopeFiltered) => s.scope_filtered += 1,
                Some(Disposition::PathBudget { .. }) => s.path_budget += 1,
                Some(Disposition::PrunedMhp { .. }) => s.pruned_mhp += 1,
                Some(Disposition::PrunedLockSharpen { .. }) => s.pruned_lock += 1,
                Some(Disposition::PrunedStoreOrder) => s.pruned_order += 1,
            }
        }
        s.candidates =
            s.reported + s.deduped + s.prefiltered + s.unsat + s.memoized + s.scope_filtered;
        if leaked.is_empty() {
            Ok(s)
        } else {
            Err(format!(
                "audit reconciliation failed: {} candidate(s) without a terminal \
                 disposition: {}",
                leaked.len(),
                leaked.join("; ")
            ))
        }
    }

    /// The canonical JSONL export: one sorted-key JSON object per
    /// record, in audit sequence order. Byte-identical across every
    /// scheduling and strategy knob (enforced by
    /// `tests/audit_reconciliation.rs`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_json().to_string());
            out.push('\n');
        }
        out
    }

    /// Records whose source/sink pair matches the query, for
    /// `canary why-not`. Detect candidates match on `(source, sink)`;
    /// interference pairs on `(store, load)`. Source-scoped records
    /// (path budgets) match on the source alone.
    pub fn find_pair(&self, source: Label, sink: Label) -> Vec<&AuditRecord> {
        self.records
            .iter()
            .filter(|r| r.source == source && (r.sink == Some(sink) || r.sink.is_none()))
            .collect()
    }
}

/// Renders a conjunct set for a certificate: each conjunct capped at
/// 160 characters, at most 16 conjuncts listed (`…(+N more)` tails the
/// list). Terms are hash-consed, so the rendering is deterministic.
fn render_conjuncts(pool: &TermPool, conjs: &[TermId]) -> Vec<String> {
    const MAX_CONJ: usize = 16;
    const MAX_LEN: usize = 160;
    let mut out: Vec<String> = conjs
        .iter()
        .take(MAX_CONJ)
        .map(|&c| {
            let mut s = pool.render(c);
            if s.len() > MAX_LEN {
                s.truncate(MAX_LEN);
                s.push('…');
            }
            s
        })
        .collect();
    if conjs.len() > MAX_CONJ {
        out.push(format!("…(+{} more)", conjs.len() - MAX_CONJ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(s: &str) -> Fingerprint {
        Fingerprint::parse(s).expect("valid fingerprint")
    }

    #[test]
    fn reconcile_flags_pending_candidates() {
        let mut log = AuditLog::new();
        let id = log.begin_candidate(BugKind::UseAfterFree, Label(1), Label(2));
        assert!(log.reconcile().is_err());
        log.dispose(
            id,
            Disposition::Reported {
                fingerprint: fp("00000000000000aa"),
            },
        );
        let s = log.reconcile().expect("all disposed");
        assert_eq!(s.candidates, 1);
        assert_eq!(s.reported, 1);
    }

    #[test]
    fn unsat_disposal_memoizes_and_subsumes() {
        let mut pool = TermPool::new();
        let a = pool.bool_atom(0);
        let b = pool.bool_atom(1);
        let ab = pool.and(vec![a, b]);
        let mut log = AuditLog::new();
        // First refutation of {a}: a plain UnsatCore.
        let i0 = log.begin_candidate(BugKind::NullDeref, Label(1), Label(2));
        log.dispose_unsat(i0, &pool, a, false);
        assert!(matches!(
            log.records()[i0].disposition,
            Some(Disposition::UnsatCore {
                subsumed_by: None,
                ..
            })
        ));
        // Identical term again: memo.
        let i1 = log.begin_candidate(BugKind::NullDeref, Label(1), Label(3));
        log.dispose_unsat(i1, &pool, a, false);
        assert!(matches!(
            log.records()[i1].disposition,
            Some(Disposition::CacheMemo { origin }) if origin == i0
        ));
        // Superset conjunct set: subsumed by the first refutation.
        let i2 = log.begin_candidate(BugKind::NullDeref, Label(1), Label(4));
        log.dispose_unsat(i2, &pool, ab, false);
        assert!(matches!(
            log.records()[i2].disposition,
            Some(Disposition::UnsatCore {
                subsumed_by: Some(s),
                ..
            }) if s == i0
        ));
        // Prefiltered ff: construction fold, enters no map.
        let i3 = log.begin_candidate(BugKind::NullDeref, Label(1), Label(5));
        let ff = pool.ff();
        log.dispose_unsat(i3, &pool, ff, true);
        assert!(matches!(
            log.records()[i3].disposition,
            Some(Disposition::Prefiltered { unit_cycle: false })
        ));
        let s = log.reconcile().unwrap();
        assert_eq!(s.unsat, 2);
        assert_eq!(s.memoized, 1);
        assert_eq!(s.prefiltered, 1);
    }

    #[test]
    fn report_dedup_flips_to_deduped() {
        let mut log = AuditLog::new();
        let a = log.begin_candidate(BugKind::UseAfterFree, Label(1), Label(2));
        let b = log.begin_candidate(BugKind::UseAfterFree, Label(3), Label(4));
        log.dispose(
            a,
            Disposition::Reported {
                fingerprint: fp("00000000000000aa"),
            },
        );
        log.dispose(
            b,
            Disposition::Reported {
                fingerprint: fp("00000000000000aa"),
            },
        );
        let kept = FxHashSet::from_iter([(BugKind::UseAfterFree, Label(1), Label(2))]);
        log.apply_report_dedup(&kept);
        assert!(matches!(
            log.records()[b].disposition,
            Some(Disposition::Deduped { winner }) if winner == fp("00000000000000aa")
        ));
        let s = log.reconcile().unwrap();
        assert_eq!((s.reported, s.deduped), (1, 1));
    }

    #[test]
    fn jsonl_is_one_sorted_object_per_line() {
        let mut log = AuditLog::new();
        log.record_interference_prune(
            Label(6),
            Label(3),
            Some("o1".into()),
            Disposition::PrunedMhp {
                parallel: false,
                ordered_before: false,
            },
        );
        let id = log.begin_candidate(BugKind::UseAfterFree, Label(1), Label(2));
        log.dispose(
            id,
            Disposition::Reported {
                fingerprint: fp("00000000000000aa"),
            },
        );
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first["layer"], "interference");
        assert_eq!(first["disposition"], "pruned_mhp");
        assert_eq!(first["certificate"]["parallel"], false);
        let second: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(second["disposition"], "reported");
        assert_eq!(second["certificate"]["fingerprint"], "00000000000000aa");
        // solver_core never reaches the canonical export.
        assert!(second.get("solver_core").is_none());
    }
}
