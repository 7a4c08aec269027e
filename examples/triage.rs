//! Triage workflow: everything Canary gives you to *dispose* of a
//! finding — confirmed reports with witness interleavings and their
//! provenance DAGs, stable fingerprints with run-to-run diffing
//! (new / persisting / fixed), refuted candidates with minimal unsat
//! cores, and a memory-model sweep that shows which findings only
//! exist under weaker hardware orderings.
//!
//! ```sh
//! cargo run --example triage
//! ```

use canary::{Canary, CanaryConfig};
use canary_detect::{BugKind, DetectOptions, MemoryModel};
use canary_report::{diff_sarif, sarif_document, RunManifest};

/// One shared cell, three outcomes: a real race, an order-protected
/// free, and a guard-protected free.
const MIXED: &str = r#"
    fn main() {
        cell = alloc c;
        v1 = alloc payload1;
        *cell = v1;
        fork reader consume(cell);
        free v1;                      // (1) races with the reader: REAL

        v2 = alloc payload2;
        fork reader2 consume2(v2);
        join reader2;
        free v2;                      // (2) join-ordered: SAFE

        v3 = alloc payload3;
        fork reader3 consume3(v3);
        if (shutdown) {
            free v3;                  // (3) guard-protected: SAFE
        }
    }
    fn consume(slot) { x = *slot; use x; }
    fn consume2(p) { use p; }
    fn consume3(q) { if (!shutdown) { use q; } }
"#;

fn main() {
    let canary = Canary::with_config(CanaryConfig {
        checkers: vec![BugKind::UseAfterFree],
        detect: DetectOptions {
            explain_refutations: true,
            ..DetectOptions::default()
        },
        ..CanaryConfig::default()
    });
    let prog = canary::ir::parse(MIXED).expect("example parses");
    let outcome = canary.analyze(&prog);

    println!("== confirmed ({} report) ==", outcome.reports.len());
    println!("{}\n", outcome.render(&prog));
    assert_eq!(outcome.reports.len(), 1);
    let report = &outcome.reports[0];
    assert!(
        !report.schedule.is_empty(),
        "confirmed reports carry a witness interleaving"
    );

    // Every confirmed report explains itself: the value-flow chain,
    // the escaped object licensing each interference edge, the MHP
    // facts consulted, and the satisfying model slice — as a DAG.
    println!(
        "== provenance (fingerprint {}) ==",
        report.fingerprint(&prog)
    );
    let provenance = report
        .provenance
        .as_ref()
        .expect("reports carry provenance");
    for edge in &provenance.edges {
        let via = match &edge.escape {
            Some(esc) => format!("  [licensed by escaped `{}`]", esc.obj),
            None => String::new(),
        };
        println!(
            "  {} -[{}]-> {}{via}",
            provenance.nodes[edge.from].render,
            canary_detect::edge_kind_name(edge.kind),
            provenance.nodes[edge.to].render,
        );
    }
    println!("  DOT snippet (pipe the full graph into `dot -Tsvg`):");
    let dot = provenance.to_dot("use-after-free");
    for line in dot.lines().filter(|l| l.contains("->")).take(4) {
        println!("    {}", line.trim());
    }

    // Fingerprint-keyed diffing: fix bug (1) by joining the reader
    // before the free, re-run, and classify the change. The fix shows
    // up as `fixed`; nothing is `new`.
    let fixed_src = MIXED.replace(
        "fork reader consume(cell);\n        free v1;",
        "fork reader consume(cell);\n        join reader;\n        free v1;",
    );
    let fixed_prog = canary::ir::parse(&fixed_src).expect("fixed example parses");
    let fixed_outcome = canary.analyze(&fixed_prog);
    let manifest = |hash: &str| RunManifest {
        file: "triage.cir".into(),
        corpus_hash: hash.into(),
        strategy: "incremental".into(),
        threads: 1,
        config: vec![],
        canary_version: env!("CARGO_PKG_VERSION").into(),
        rustc_version: String::new(),
        timings_ms: vec![],
    };
    let (before, after) = (manifest("before"), manifest("after"));
    let before = serde_json::to_value(&sarif_document(&prog, &outcome.reports, &before));
    let after = serde_json::to_value(&sarif_document(&fixed_prog, &fixed_outcome.reports, &after));
    let diff = diff_sarif(&before.unwrap(), &after.unwrap()).expect("well-formed SARIF");
    println!("\n== run diff (before-fix baseline vs after-fix) ==");
    print!("{}", diff.render());
    assert_eq!(diff.fixed.len(), 1, "the joined free is fixed");
    assert!(!diff.has_new(), "the fix introduces nothing new");

    println!("\n== refuted ({} candidates) ==", outcome.refuted.len());
    for r in &outcome.refuted {
        println!(
            "  {} -> {}\n    why not: {}",
            canary::ir::render_inst(&prog, r.source),
            canary::ir::render_inst(&prog, r.sink),
            r.core.join("  &  "),
        );
    }
    assert_eq!(outcome.refuted.len(), 2, "{:?}", outcome.refuted);

    // Memory-model sweep on a store-buffering-prone publication.
    let sb = r#"
        fn main() {
            c = alloc cell;
            bad = alloc victim;
            *c = bad;
            c2 = c;
            good = alloc fresh;
            *c2 = good;
            free bad;
            fork t w(c);
        }
        fn w(p) { y = *p; use y; }
    "#;
    println!("\n== memory-model sweep (store-buffering publication) ==");
    for (name, model) in [
        ("SC ", MemoryModel::Sc),
        ("TSO", MemoryModel::Tso),
        ("PSO", MemoryModel::Pso),
    ] {
        let canary = Canary::with_config(CanaryConfig {
            checkers: vec![BugKind::UseAfterFree],
            detect: DetectOptions {
                memory_model: model,
                ..DetectOptions::default()
            },
            ..CanaryConfig::default()
        });
        let n = canary.analyze_source(sb).expect("parses").reports.len();
        println!("  {name}: {n} report(s)");
    }
    println!("  -> the stale publication is only observable under PSO's");
    println!("     store-store reordering.");
}
