//! Golden outputs: pins the exported artifacts of a fixed corpus to
//! hashes recorded from a known-good build, so a change meant to be a
//! pure optimization (a faster union-find, an index in place of a
//! scan) can show that every output stayed byte-identical.
//!
//! For each subject the test hashes three things with
//! [`canary_report::content_hash`]:
//!
//! * the pretty-printed SARIF document under a fixed run manifest;
//! * the audit JSONL export;
//! * one line of deterministic work counters (queries, solver
//!   decisions, conflicts and propagations, VFG nodes and edges,
//!   interference edges, terms).
//!
//! The corpus covers the five `examples/*.cir` files under their
//! memory models, `WorkloadSpec::{lean, lean_locks, litmus}` for seeds
//! 0–3 (litmus under TSO for odd seeds, PSO for even ones), one
//! query-family subject and the Tbl. 1 suite at 1 statement per KLoC.
//!
//! Every subject runs under `CanaryConfig::default()` plus its memory
//! model, so `CANARY_TEST_THREADS=2` checks the sharded front end
//! against the same table. On a mismatch the test prints the whole
//! actual table, ready to paste in after an intended output change.

use canary::{Canary, CanaryConfig};
use canary_detect::MemoryModel;
use canary_ir::Program;
use canary_report::{content_hash, sarif_document, RunManifest};
use canary_workloads::{generate, table1_suite, SuiteScale, WorkloadSpec};

/// One subject's expected hashes: name, SARIF, audit JSONL, counters.
type Row = (&'static str, &'static str, &'static str, &'static str);

fn fixed_manifest(file: &str) -> RunManifest {
    RunManifest {
        file: file.to_string(),
        corpus_hash: "0000000000000000".to_string(),
        strategy: "fixed".to_string(),
        threads: 1,
        config: vec![("checkers".into(), "all".into())],
        canary_version: "0.0.0-fixed".to_string(),
        rustc_version: "rustc 0.0.0-fixed".to_string(),
        timings_ms: vec![],
    }
}

fn canary(model: MemoryModel) -> Canary {
    let mut config = CanaryConfig::default();
    config.detect.memory_model = model;
    Canary::with_config(config)
}

/// The actual `(sarif, audit, counters)` hashes of one subject.
fn hashes(name: &str, prog: &Program, model: MemoryModel) -> [String; 3] {
    let outcome = canary(model).analyze(prog);
    let sarif = sarif_document(prog, &outcome.reports, &fixed_manifest(name));
    let sarif = serde_json::to_string_pretty(&sarif).expect("SARIF is valid JSON");
    let m = &outcome.metrics;
    let counters = format!(
        "queries={} decisions={} conflicts={} propagations={} vfg_nodes={} \
         vfg_edges={} interference_edges={} terms={}",
        m.detect.queries,
        m.detect.decisions,
        m.detect.conflicts,
        m.detect.propagations,
        m.vfg_nodes,
        m.vfg_edges,
        m.interference_edges,
        m.term_count,
    );
    [
        content_hash(sarif.as_bytes()),
        content_hash(m.audit.to_jsonl().as_bytes()),
        content_hash(counters.as_bytes()),
    ]
}

/// Compares every subject's hashes against `expected`, printing the
/// whole actual table when anything differs.
fn check(subjects: Vec<(String, Program, MemoryModel)>, expected: &[Row]) {
    let actual: Vec<(String, [String; 3])> = subjects
        .iter()
        .map(|(name, prog, model)| (name.clone(), hashes(name, prog, *model)))
        .collect();
    let matches = actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|((name, h), &(n, s, a, c))| name == n && h[0] == s && h[1] == a && h[2] == c);
    if !matches {
        let table: String = actual
            .iter()
            .map(|(name, h)| {
                format!(
                    "    (\"{name}\", \"{}\", \"{}\", \"{}\"),\n",
                    h[0], h[1], h[2]
                )
            })
            .collect();
        panic!("golden outputs changed; actual table:\n{table}");
    }
}

#[test]
fn examples_match_golden_hashes() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/");
    let subjects = [
        ("audited.cir", MemoryModel::Sc),
        ("deadlock.cir", MemoryModel::Sc),
        ("fig2.cir", MemoryModel::Sc),
        ("fig2_variant.cir", MemoryModel::Sc),
        ("tso_sb.cir", MemoryModel::Tso),
    ]
    .into_iter()
    .map(|(file, model)| {
        let text = std::fs::read_to_string(format!("{dir}{file}")).expect("example exists");
        let prog =
            canary_ir::parse_with(&text, &CanaryConfig::default().parse).expect("example parses");
        prog.validate().expect("example validates");
        (file.to_string(), prog, model)
    })
    .collect();
    check(subjects, EXAMPLES);
}

#[test]
fn generated_small_programs_match_golden_hashes() {
    let mut subjects = Vec::new();
    for seed in 0..4u64 {
        let weak = if seed % 2 == 1 {
            MemoryModel::Tso
        } else {
            MemoryModel::Pso
        };
        for (spec, model) in [
            (WorkloadSpec::lean(seed), MemoryModel::Sc),
            (WorkloadSpec::lean_locks(seed), MemoryModel::Sc),
            (WorkloadSpec::litmus(seed), weak),
        ] {
            subjects.push((spec.name.clone(), generate(&spec).prog, model));
        }
    }
    check(subjects, SMALL);
}

#[test]
fn family_subject_matches_golden_hashes() {
    let prog = canary_bench::family_subject(4, 10, 6);
    check(
        vec![("family-4-10-6".into(), prog, MemoryModel::Sc)],
        FAMILY,
    );
}

#[test]
fn table1_suite_matches_golden_hashes() {
    let scale = SuiteScale {
        stmts_per_kloc: 1.0,
        ..SuiteScale::default()
    };
    let subjects = table1_suite(scale)
        .into_iter()
        .map(|spec| (spec.name.clone(), generate(&spec).prog, MemoryModel::Sc))
        .collect();
    check(subjects, TABLE1);
}

#[rustfmt::skip]
const EXAMPLES: &[Row] = &[
    ("audited.cir", "2a9e0c074e2982aa", "7dc7436792fd05fc", "5e6dc862b4bc84aa"),
    ("deadlock.cir", "757833d7b291419b", "972b5f77cd7b52f8", "5959408d21ed426c"),
    ("fig2.cir", "27573ebaffd8aece", "b1167c870b6f7660", "a45739c2ef393042"),
    ("fig2_variant.cir", "d8bcc37cdb9c2858", "6558d62ad4678f44", "7384680e4a4f95f7"),
    ("tso_sb.cir", "060324510eaedcec", "a62bdf9b4f5eb6a0", "e3b85dad85b0b523"),
];

#[rustfmt::skip]
const SMALL: &[Row] = &[
    ("lean-0", "0202a7dacc4fe635", "0df6dd22c44e1a97", "e8a8917189c156d6"),
    ("lean-locks-0", "65fcd930cc5228c8", "64566ef58e033b95", "72f046488cd1e853"),
    ("litmus-0", "45c54d337740fa9b", "4099e097c7887c68", "77ff169f5b932778"),
    ("lean-1", "390463c078511e2e", "0df6dd22c44e1a97", "e8a8917189c156d6"),
    ("lean-locks-1", "76b4aeb4b792dc09", "64566ef58e033b95", "72f046488cd1e853"),
    ("litmus-1", "552bf3302554e99c", "0ad691791d67bd13", "9d5a8d2d273e36e5"),
    ("lean-2", "d3c63ba49a45cd6b", "0df6dd22c44e1a97", "e8a8917189c156d6"),
    ("lean-locks-2", "d4705781fd96706e", "64566ef58e033b95", "72f046488cd1e853"),
    ("litmus-2", "6f52a6bdca7a2ee1", "4099e097c7887c68", "77ff169f5b932778"),
    ("lean-3", "adc13429445bcd0c", "0df6dd22c44e1a97", "e8a8917189c156d6"),
    ("lean-locks-3", "1afd8e9f931a917f", "64566ef58e033b95", "72f046488cd1e853"),
    ("litmus-3", "5889710849ae0fa4", "0ad691791d67bd13", "9d5a8d2d273e36e5"),
];

#[rustfmt::skip]
const FAMILY: &[Row] = &[
    ("family-4-10-6", "ca277d2ce16eae42", "34aa3c21f0e0dfa2", "c739c98330da1e54"),
];

#[rustfmt::skip]
const TABLE1: &[Row] = &[
    ("lrzip", "c2c9c4dd6dc92d4c", "431d7c5b4aeb477d", "d9e1b378ec5a42c1"),
    ("lwan", "b4a95db20b69943f", "81b9c9b928af243a", "6f336e5217b88a4d"),
    ("leveldb", "9743a83edcb44797", "12342a208ea15fa4", "4e15f8bdbb063d41"),
    ("darknet", "d0d0682f22f98373", "f2300a78f62cdf38", "4e73d509362cf318"),
    ("coturn", "4428aa9f32855474", "506a32ff73953331", "8c6e3af6347de5bc"),
    ("httrack", "302b8600b6b181a4", "37563aec39a7dab3", "9fa057d4fc0d978d"),
    ("finedb", "2655db21bdfd3d50", "ed4fdbc671604397", "57c3e0931b2d4ffe"),
    ("tcpdump", "7f0437d6268ac2a1", "9ea737387d99f739", "3e24ce948ccafbed"),
    ("transmission", "90b196fe52a62493", "43bb7f60fab51b07", "610ca38c02d26ad9"),
    ("celix", "153706839411b645", "8e95c29fe4e9d6b6", "8609d1cc5328bbcc"),
    ("redis", "efc1c26e4257fec3", "203673f9e13b4d0b", "2eae936b57184003"),
    ("git", "2256e41cbd8c019c", "5133cc8a0ffd5026", "6ff197bd305d183c"),
    ("zfs", "baee2f1d59c5ca7e", "eb9ae45edff82636", "55f1700341fb8e31"),
    ("HP-Socket", "5e45abf1579d8f5e", "48448415927b8eab", "db9ab5fece15c649"),
    ("openssl", "d56c86cc2803f943", "e77b72faf31f6d05", "e9f97bb6ef70cfc1"),
    ("poco", "0a4db73e39707139", "65be537315d11b72", "543b64f2497ac1b1"),
    ("mariadb", "5f1029b417a04d55", "70d67659e49c6760", "e2473c2ff6dec5a8"),
    ("ffmpeg", "fff045c32b8866e7", "f25fbaed44849987", "ec8889a838cd876a"),
    ("mysql", "0a9181bbf7f760ee", "b6362e864c2f1127", "cc76917210ff7a09"),
    ("firefox", "85ba8f099fddb4c2", "dcd5c02b56f2c7ca", "1db94bb03ac3c180"),
];
