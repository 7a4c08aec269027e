//! Workload specifications and the Table-1 subject suite.
//!
//! The paper evaluates on twenty open-source C/C++ projects (lrzip …
//! firefox). Those code bases are not available offline, so the
//! benchmark suite substitutes deterministic synthetic projects whose
//! *sizes track the paper's KLoC column* and whose seeded bug and
//! benign-pattern counts match the paper's per-subject report/FP
//! numbers for Canary (Tbl. 1). The claims being reproduced are
//! relative — who times out first, who reports how many warnings — so
//! what matters is that every tool consumes the same inputs and that
//! the inputs exercise the same code paths (escaping heap traffic,
//! fork/join structure, branch-correlated accesses).

/// Parameters for one synthetic concurrent project.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Subject name (for tables).
    pub name: String,
    /// RNG seed; everything else equal, the same seed reproduces the
    /// same program statement for statement.
    pub seed: u64,
    /// Approximate statement budget.
    pub target_stmts: usize,
    /// Worker threads forked from main.
    pub threads: usize,
    /// Shared heap cells passed to the workers.
    pub shared_cells: usize,
    /// Seeded *real* inter-thread use-after-free bugs.
    pub true_bugs: usize,
    /// Seeded benign patterns that value-flow tools report as
    /// use-after-free (uncorrelated-guard protection — see
    /// [`crate::generate`]).
    pub benign_patterns: usize,
    /// Seeded Fig. 2-style contradictory-guard patterns (reported by
    /// the path-insensitive baselines only).
    pub contradiction_patterns: usize,
    /// Seeded wait/notify handshakes protecting a free: refuted only by
    /// tools that model synchronization order (§9); one more false
    /// positive for everything else.
    pub handshake_patterns: usize,
    /// Seeded same-thread use-before-free sequences: connected only by
    /// *flow-insensitive* analysis (Saber), filtered by flow-sensitive
    /// def-use (Fsam) and by the order constraints (Canary). These drive
    /// the Saber ≫ Fsam report-volume gap of Tbl. 1.
    pub order_fp_patterns: usize,
    /// Seeded racy inter-thread double frees: a forked victim loads the
    /// published value and frees it while main frees it unordered.
    pub double_free: usize,
    /// Seeded inter-thread null dereferences: main publishes a null
    /// sentinel into a cell a forked reader dereferences from.
    pub null_deref: usize,
    /// Seeded taint leaks: main publishes a taint source into a cell; a
    /// forked reader passes the loaded value to a sink.
    pub leak: usize,
    /// Seeded same-thread double-locks: main re-acquires a mutex it
    /// already holds.
    pub double_lock: usize,
    /// Seeded conflicting-lock-order pairs: main and a forked partner
    /// acquire two mutexes in opposite orders (deadlock-capable).
    pub conflict_lock: usize,
    /// Seeded store-buffering (Dekker) litmus patterns: two threads
    /// each null a flag then read the sibling's; the double-free fires
    /// only when both stores are delayed past the sibling loads —
    /// reachable under TSO and PSO, refuted by SC enumeration.
    pub sb_patterns: usize,
    /// Seeded message-passing litmus patterns: the writer retires a
    /// pointer, installs a replacement, then publishes the mailbox; the
    /// use-after-free needs the publish to overtake the install —
    /// store→store reordering, reachable under PSO only.
    pub mp_patterns: usize,
    /// Seeded load-buffering negative controls: the cycle closes only
    /// through a load→store reordering no store buffer produces, so the
    /// pattern is unreachable under every supported model (and refuted
    /// by the detector's retained load→store program order).
    pub lb_patterns: usize,
    /// Readers per contradiction pattern — the fan-out of each SMT
    /// query family (all readers of one pattern share a source label,
    /// hence a family). 0 keeps the legacy size-derived fan-out
    /// (`3 + target_stmts / 3000`).
    pub family_fanout: usize,
    /// Fraction (0.0–1.0) of contradiction patterns hardened with
    /// nested lock regions and handshake order structure, driving the
    /// CDCL(T) theory-lemma loop instead of folding at construction.
    /// Hard patterns are emitted first, so hard families cluster
    /// contiguously in family order. 0.0 disables hardening.
    pub hard_family_ratio: f64,
    /// Emit the size filler (helper library, `pick` conflation, worker
    /// threads, alias webs, statement filler). Disable for *lean*
    /// workloads small enough for the oracle's exhaustive interleaving
    /// enumeration in the differential tests.
    pub filler: bool,
}

impl WorkloadSpec {
    /// A small default spec for tests.
    pub fn small(seed: u64) -> Self {
        WorkloadSpec {
            name: format!("small-{seed}"),
            seed,
            target_stmts: 300,
            threads: 3,
            shared_cells: 4,
            true_bugs: 2,
            benign_patterns: 1,
            contradiction_patterns: 2,
            handshake_patterns: 1,
            order_fp_patterns: 2,
            double_free: 0,
            null_deref: 0,
            leak: 0,
            double_lock: 0,
            conflict_lock: 0,
            sb_patterns: 0,
            mp_patterns: 0,
            lb_patterns: 0,
            family_fanout: 0,
            hard_family_ratio: 0.0,
            filler: true,
        }
    }

    /// A filler-free spec covering all four checkers, small enough that
    /// `canary_oracle::explore` can exhaustively enumerate its
    /// interleavings. The differential harness replays its seeded
    /// schedules and cross-checks the static reports against the
    /// enumerated ground truth.
    pub fn lean(seed: u64) -> Self {
        WorkloadSpec {
            name: format!("lean-{seed}"),
            seed,
            target_stmts: 0,
            threads: 0,
            shared_cells: 2,
            true_bugs: 1,
            benign_patterns: 0,
            contradiction_patterns: 1,
            handshake_patterns: 1,
            order_fp_patterns: 1,
            double_free: 1,
            null_deref: 1,
            leak: 1,
            double_lock: 0,
            conflict_lock: 0,
            sb_patterns: 0,
            mp_patterns: 0,
            lb_patterns: 0,
            family_fanout: 0,
            hard_family_ratio: 0.0,
            filler: false,
        }
    }

    /// A filler-free spec seeding only the lock-discipline patterns
    /// (double-lock and conflicting-lock-order), small enough for the
    /// oracle's exhaustive interleaving enumeration.
    pub fn lean_locks(seed: u64) -> Self {
        WorkloadSpec {
            name: format!("lean-locks-{seed}"),
            seed,
            target_stmts: 0,
            threads: 0,
            shared_cells: 1,
            true_bugs: 0,
            benign_patterns: 0,
            contradiction_patterns: 0,
            handshake_patterns: 0,
            order_fp_patterns: 0,
            double_free: 0,
            null_deref: 0,
            leak: 0,
            double_lock: 1,
            conflict_lock: 1,
            sb_patterns: 0,
            mp_patterns: 0,
            lb_patterns: 0,
            family_fanout: 0,
            hard_family_ratio: 0.0,
            filler: false,
        }
    }

    /// A filler-free litmus spec for the weak-memory differential
    /// suite: one store-buffering pattern (TSO/PSO-visible), one
    /// message-passing pattern (PSO-visible) and one load-buffering
    /// negative control per workload, plus an ordinary SC-visible
    /// use-after-free on odd seeds so cross-model monotonicity (an SC
    /// bug persists under every weaker model) is exercised alongside
    /// the weak-only certifications.
    pub fn litmus(seed: u64) -> Self {
        WorkloadSpec {
            name: format!("litmus-{seed}"),
            seed,
            target_stmts: 0,
            threads: 0,
            shared_cells: 1,
            true_bugs: (seed % 2) as usize,
            benign_patterns: 0,
            contradiction_patterns: 0,
            handshake_patterns: 0,
            order_fp_patterns: 0,
            double_free: 0,
            null_deref: 0,
            leak: 0,
            double_lock: 0,
            conflict_lock: 0,
            sb_patterns: 1,
            mp_patterns: 1,
            lb_patterns: 1,
            family_fanout: 0,
            hard_family_ratio: 0.0,
            filler: false,
        }
    }

    /// Readers seeded per contradiction pattern — the fan-out of each
    /// SMT query family. `family_fanout` overrides the legacy
    /// size-derived default.
    #[must_use]
    pub fn family_readers(&self) -> usize {
        if self.family_fanout > 0 {
            self.family_fanout
        } else {
            3 + self.target_stmts / 3000
        }
    }

    /// Number of leading contradiction patterns hardened by
    /// `hard_family_ratio` (rounded, clamped to the pattern count).
    #[must_use]
    pub fn hard_contradictions(&self) -> usize {
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let n = (self.contradiction_patterns as f64 * self.hard_family_ratio.clamp(0.0, 1.0))
            .round() as usize;
        n.min(self.contradiction_patterns)
    }
}

/// One row of the paper's Tbl. 1.
#[derive(Clone, Debug)]
pub struct SubjectRow {
    /// Project name.
    pub name: &'static str,
    /// Size in KLoC as reported by the paper.
    pub kloc: u32,
    /// Canary's `#Reports` column.
    pub canary_reports: u32,
    /// Canary's `#FP` column.
    pub canary_fp: u32,
}

/// The twenty subjects of Tbl. 1 (name, KLoC, Canary #Reports, #FP).
pub const TABLE1_SUBJECTS: [SubjectRow; 20] = [
    SubjectRow {
        name: "lrzip",
        kloc: 16,
        canary_reports: 2,
        canary_fp: 0,
    },
    SubjectRow {
        name: "lwan",
        kloc: 20,
        canary_reports: 1,
        canary_fp: 0,
    },
    SubjectRow {
        name: "leveldb",
        kloc: 21,
        canary_reports: 1,
        canary_fp: 1,
    },
    SubjectRow {
        name: "darknet",
        kloc: 29,
        canary_reports: 0,
        canary_fp: 0,
    },
    SubjectRow {
        name: "coturn",
        kloc: 39,
        canary_reports: 2,
        canary_fp: 0,
    },
    SubjectRow {
        name: "httrack",
        kloc: 49,
        canary_reports: 1,
        canary_fp: 1,
    },
    SubjectRow {
        name: "finedb",
        kloc: 51,
        canary_reports: 1,
        canary_fp: 0,
    },
    SubjectRow {
        name: "tcpdump",
        kloc: 85,
        canary_reports: 0,
        canary_fp: 0,
    },
    SubjectRow {
        name: "transmission",
        kloc: 88,
        canary_reports: 2,
        canary_fp: 0,
    },
    SubjectRow {
        name: "celix",
        kloc: 107,
        canary_reports: 0,
        canary_fp: 0,
    },
    SubjectRow {
        name: "redis",
        kloc: 219,
        canary_reports: 0,
        canary_fp: 0,
    },
    SubjectRow {
        name: "git",
        kloc: 239,
        canary_reports: 0,
        canary_fp: 0,
    },
    SubjectRow {
        name: "zfs",
        kloc: 367,
        canary_reports: 1,
        canary_fp: 0,
    },
    SubjectRow {
        name: "HP-Socket",
        kloc: 426,
        canary_reports: 0,
        canary_fp: 0,
    },
    SubjectRow {
        name: "openssl",
        kloc: 451,
        canary_reports: 1,
        canary_fp: 1,
    },
    SubjectRow {
        name: "poco",
        kloc: 705,
        canary_reports: 0,
        canary_fp: 0,
    },
    SubjectRow {
        name: "mariadb",
        kloc: 1751,
        canary_reports: 1,
        canary_fp: 0,
    },
    SubjectRow {
        name: "ffmpeg",
        kloc: 2003,
        canary_reports: 0,
        canary_fp: 0,
    },
    SubjectRow {
        name: "mysql",
        kloc: 3118,
        canary_reports: 0,
        canary_fp: 0,
    },
    SubjectRow {
        name: "firefox",
        kloc: 8938,
        canary_reports: 2,
        canary_fp: 1,
    },
];

/// How the suite is scaled to the machine at hand.
#[derive(Clone, Copy, Debug)]
pub struct SuiteScale {
    /// Statements generated per paper-KLoC. The paper's subjects span
    /// 16–8938 KLoC; at the default 8 stmts/KLoC the suite spans about
    /// 0.3k–72k statements — laptop-sized while preserving the 1:560
    /// size ratio that drives the Fig. 7 timeout pattern.
    pub stmts_per_kloc: f64,
    /// Lower bound so tiny subjects still exercise the pipeline.
    pub min_stmts: usize,
    /// Upper bound to keep the largest subjects tractable in CI.
    pub max_stmts: usize,
}

impl Default for SuiteScale {
    fn default() -> Self {
        SuiteScale {
            stmts_per_kloc: 8.0,
            min_stmts: 240,
            max_stmts: 80_000,
        }
    }
}

/// Builds the 20-subject suite at the given scale. Seeded bug counts
/// follow the paper's Tbl. 1: `true_bugs = reports − fp`,
/// `benign = fp`; contradiction patterns grow mildly with size so the
/// baselines' report counts dwarf Canary's, as in the paper.
pub fn table1_suite(scale: SuiteScale) -> Vec<WorkloadSpec> {
    TABLE1_SUBJECTS
        .iter()
        .enumerate()
        .map(|(i, row)| {
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            let stmts = ((f64::from(row.kloc) * scale.stmts_per_kloc) as usize)
                .clamp(scale.min_stmts, scale.max_stmts);
            WorkloadSpec {
                name: row.name.to_string(),
                seed: 0xCA_4A_12 + i as u64,
                target_stmts: stmts,
                threads: 2 + (i % 4),
                shared_cells: 3 + (i % 5),
                true_bugs: (row.canary_reports - row.canary_fp) as usize,
                benign_patterns: row.canary_fp as usize,
                contradiction_patterns: 2 + (stmts / 2000),
                handshake_patterns: 1 + (stmts / 8000),
                order_fp_patterns: 4 + (stmts / 1500),
                double_free: 0,
                null_deref: 0,
                leak: 0,
                double_lock: 0,
                conflict_lock: 0,
                sb_patterns: 0,
                mp_patterns: 0,
                lb_patterns: 0,
                family_fanout: 0,
                hard_family_ratio: 0.0,
                filler: true,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_twenty_subjects_in_size_order() {
        let suite = table1_suite(SuiteScale::default());
        assert_eq!(suite.len(), 20);
        for w in suite.windows(2) {
            assert!(w[0].target_stmts <= w[1].target_stmts);
        }
    }

    #[test]
    fn bug_counts_follow_table1() {
        let suite = table1_suite(SuiteScale::default());
        let total_reports: usize = suite.iter().map(|s| s.true_bugs + s.benign_patterns).sum();
        let total_fp: usize = suite.iter().map(|s| s.benign_patterns).sum();
        // Tbl. 1: 15 reports, 4 FP (26.67 % FP rate).
        assert_eq!(total_reports, 15);
        assert_eq!(total_fp, 4);
    }

    #[test]
    fn scale_clamps_sizes() {
        let scale = SuiteScale {
            stmts_per_kloc: 8.0,
            min_stmts: 500,
            max_stmts: 1000,
        };
        for s in table1_suite(scale) {
            assert!((500..=1000).contains(&s.target_stmts));
        }
    }
}
