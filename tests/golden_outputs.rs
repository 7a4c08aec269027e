//! Golden outputs: pins the exported artifacts of a fixed corpus to
//! hashes recorded from a known-good build, so a change meant to be a
//! pure optimization (a faster union-find, an index in place of a
//! scan) can show that every output stayed byte-identical.
//!
//! For each subject the test hashes four things with
//! [`canary_report::content_hash`]:
//!
//! * the pretty-printed SARIF document under a fixed run manifest;
//! * the audit JSONL export;
//! * one line of deterministic work counters (queries, solver
//!   decisions, conflicts and propagations, VFG nodes and edges,
//!   interference edges, terms);
//! * the findings: every report's `(kind, source, sink, fingerprint,
//!   inter_thread)` tuple, sorted, plus the audit's reported, deduped
//!   and candidate totals.
//!
//! The first three columns move whenever the constraint encoding does
//! (term ids, exported `constraint` strings, solver counters). The
//! findings column moves only when a verdict does, so a change that
//! re-encodes queries without changing what is found re-pins the first
//! three and leaves the fourth alone. Witness schedules and the
//! prefiltered/unsat-core split are left out of it on purpose: both may
//! move with the encoding, and witness replay certifies schedules.
//!
//! The corpus covers the five `examples/*.cir` files under their
//! memory models, `WorkloadSpec::{lean, lean_locks, litmus}` for seeds
//! 0–3 (litmus under TSO for odd seeds, PSO for even ones), one
//! query-family subject, the Tbl. 1 suite at 1 statement per KLoC and,
//! at benchmark scale, the Tbl. 1 suite at 4 statements per KLoC (the
//! perfbench `scale-sweep` subjects) and the three saturation points
//! of perfbench `hard-families` at run seed 0. At benchmark scale many
//! bottom-up levels hold sibling call-graph SCCs that share guard terms
//! and VFG nodes, so these rows pin the numbering that the order in
//! which Alg. 1 analyzes sibling SCCs fixes.
//!
//! Every subject runs under `CanaryConfig::default()` plus its memory
//! model, so `CANARY_TEST_THREADS=2` checks the parallel query-family
//! solver against the same table. On a mismatch the test prints the whole
//! actual table, ready to paste in after an intended output change.

use canary::{Canary, CanaryConfig};
use canary_detect::MemoryModel;
use canary_ir::Program;
use canary_report::{content_hash, sarif_document, RunManifest};
use canary_workloads::{generate, table1_suite, SuiteScale, WorkloadSpec};

/// One subject's expected hashes: name, SARIF, audit JSONL, counters,
/// findings.
type Row = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    &'static str,
);

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

/// The actual `(sarif, audit, counters, findings)` hashes of one
/// subject.
fn hashes(name: &str, prog: &Program, model: MemoryModel) -> [String; 4] {
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
    let mut findings: Vec<String> = outcome
        .reports
        .iter()
        .map(|r| {
            format!(
                "{} {} {} {} {}",
                r.kind,
                r.source,
                r.sink,
                r.fingerprint(prog),
                r.inter_thread
            )
        })
        .collect();
    findings.sort();
    let totals = m.audit.reconcile().expect("audit reconciles");
    findings.push(format!(
        "reported={} deduped={} candidates={}",
        totals.reported, totals.deduped, totals.candidates
    ));
    [
        content_hash(sarif.as_bytes()),
        content_hash(m.audit.to_jsonl().as_bytes()),
        content_hash(counters.as_bytes()),
        content_hash(findings.join("\n").as_bytes()),
    ]
}

/// Compares every subject's hashes against `expected`, printing the
/// whole actual table when anything differs.
fn check(subjects: Vec<(String, Program, MemoryModel)>, expected: &[Row]) {
    let actual: Vec<(String, [String; 4])> = subjects
        .iter()
        .map(|(name, prog, model)| (name.clone(), hashes(name, prog, *model)))
        .collect();
    let matches = actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|((name, h), &(n, s, a, c, f))| {
                name == n && h[0] == s && h[1] == a && h[2] == c && h[3] == f
            });
    if !matches {
        let table: String = actual
            .iter()
            .map(|(name, h)| {
                format!(
                    "    (\"{name}\", \"{}\", \"{}\", \"{}\", \"{}\"),\n",
                    h[0], h[1], h[2], h[3]
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

#[test]
fn table1_suite_at_benchmark_scale_matches_golden_hashes() {
    let scale = SuiteScale {
        stmts_per_kloc: 4.0,
        ..SuiteScale::default()
    };
    let subjects = table1_suite(scale)
        .into_iter()
        .map(|spec| (spec.name.clone(), generate(&spec).prog, MemoryModel::Sc))
        .collect();
    check(subjects, TABLE1_X4);
}

#[test]
fn saturation_points_match_golden_hashes() {
    // The saturation points of perfbench `hard-families` at run seed 0.
    let subjects = [
        ("sat-2k", 2000, 8, 5),
        ("sat-5k", 5000, 12, 6),
        ("sat-9k", 9000, 16, 6),
    ]
    .into_iter()
    .map(|(name, size, families, fanout)| {
        let spec = WorkloadSpec {
            name: name.into(),
            seed: 0xB50 + size as u64,
            target_stmts: size,
            threads: 3,
            shared_cells: 6,
            true_bugs: 2,
            benign_patterns: 2,
            contradiction_patterns: families,
            handshake_patterns: 1,
            order_fp_patterns: 2,
            double_free: 1,
            null_deref: 1,
            leak: 1,
            double_lock: 0,
            conflict_lock: 0,
            sb_patterns: 0,
            mp_patterns: 0,
            lb_patterns: 0,
            family_fanout: fanout,
            hard_family_ratio: 0.5,
            filler: true,
        };
        (name.to_string(), generate(&spec).prog, MemoryModel::Sc)
    })
    .collect();
    check(subjects, SATURATION);
}

#[rustfmt::skip]
const EXAMPLES: &[Row] = &[
    ("audited.cir", "2a9e0c074e2982aa", "28f2c70206cea39f", "2cc820b025fa0731", "5bdce452b32f2abd"),
    ("deadlock.cir", "757833d7b291419b", "972b5f77cd7b52f8", "5959408d21ed426c", "23b67222737e6025"),
    ("fig2.cir", "27573ebaffd8aece", "b1167c870b6f7660", "a45739c2ef393042", "5bdce452b32f2abd"),
    ("fig2_variant.cir", "6b1207ff7cbf1a42", "6558d62ad4678f44", "9b5ebc0c5b9a25bb", "45591c44f1d5aa77"),
    ("tso_sb.cir", "021081539377604c", "a62bdf9b4f5eb6a0", "2894db727dc652f4", "de25f5bd6be1b395"),
];

#[rustfmt::skip]
const SMALL: &[Row] = &[
    ("lean-0", "7fcf291e7326c2f9", "0df6dd22c44e1a97", "f8fee17b7d50b670", "bfd5666344eb741e"),
    ("lean-locks-0", "65fcd930cc5228c8", "64566ef58e033b95", "72f046488cd1e853", "9c49bb672e301af2"),
    ("litmus-0", "31f426c3b400f36c", "4099e097c7887c68", "170feb2c9b73d0f6", "38996d58169cb514"),
    ("lean-1", "baa3c3ad3c5f32e4", "0df6dd22c44e1a97", "f8fee17b7d50b670", "bfd5666344eb741e"),
    ("lean-locks-1", "76b4aeb4b792dc09", "64566ef58e033b95", "72f046488cd1e853", "9c49bb672e301af2"),
    ("litmus-1", "bd9c7b1387022340", "dba6a3bd3c3b85ba", "f3f41df7d643d9a7", "9f0e9a8eb8a92f77"),
    ("lean-2", "99174e9d8b5c0bf3", "0df6dd22c44e1a97", "f8fee17b7d50b670", "bfd5666344eb741e"),
    ("lean-locks-2", "d4705781fd96706e", "64566ef58e033b95", "72f046488cd1e853", "9c49bb672e301af2"),
    ("litmus-2", "7b2183fcad7daa82", "4099e097c7887c68", "170feb2c9b73d0f6", "38996d58169cb514"),
    ("lean-3", "89d2023bc2239c66", "0df6dd22c44e1a97", "f8fee17b7d50b670", "bfd5666344eb741e"),
    ("lean-locks-3", "1afd8e9f931a917f", "64566ef58e033b95", "72f046488cd1e853", "9c49bb672e301af2"),
    ("litmus-3", "2f4be8a1a4a98ef4", "dba6a3bd3c3b85ba", "f3f41df7d643d9a7", "9f0e9a8eb8a92f77"),
];

#[rustfmt::skip]
const FAMILY: &[Row] = &[
    ("family-4-10-6", "ca277d2ce16eae42", "e510d5b2135c5ebf", "575337c69d7a6073", "477187867916ddca"),
];

#[rustfmt::skip]
const TABLE1: &[Row] = &[
    ("lrzip", "6efeff4a5c8319e2", "431d7c5b4aeb477d", "7e632aa55010bde9", "c4efc7769112e9fe"),
    ("lwan", "fcaf2883c4720329", "81b9c9b928af243a", "e6decab97777aff9", "5c6e310627f32581"),
    ("leveldb", "6a89ebf29dcd9425", "12342a208ea15fa4", "8b5e9ce6792557b6", "b14cd280f43f4ce2"),
    ("darknet", "d0d0682f22f98373", "f2300a78f62cdf38", "4e4ed509360dd6db", "5bdce052b32f23f1"),
    ("coturn", "3a90aff8e9035466", "506a32ff73953331", "4b3a943bde447ac6", "e20e7b02eca0fa46"),
    ("httrack", "bd0a1eb320b6aa64", "37563aec39a7dab3", "5ed4c25f2076fa18", "fdf8858ef70a6e0b"),
    ("finedb", "34908881b0fede50", "ed4fdbc671604397", "38ffae703ec228d3", "2754a86b9125a6a8"),
    ("tcpdump", "7f0437d6268ac2a1", "9ea737387d99f739", "3e284e948cce0b44", "5bdce052b32f23f1"),
    ("transmission", "c3aee0912a754535", "43bb7f60fab51b07", "ec7c0c6bb877d8f9", "ee697580471cd882"),
    ("celix", "153706839411b645", "8e95c29fe4e9d6b6", "85fc51cc531d57f0", "5bdce052b32f23f1"),
    ("redis", "efc1c26e4257fec3", "203673f9e13b4d0b", "2eb19b6b571a8372", "5bdce052b32f23f1"),
    ("git", "2256e41cbd8c019c", "5133cc8a0ffd5026", "67306cbd2b610fa0", "5bdce052b32f23f1"),
    ("zfs", "aa00b5de17e5339e", "eb9ae45edff82636", "f536f8a42c95cdbd", "416e09d0868c36a5"),
    ("HP-Socket", "5e45abf1579d8f5e", "48448415927b8eab", "db7537fecdf5d3f2", "5bdce052b32f23f1"),
    ("openssl", "2b25a32aca9b1265", "e77b72faf31f6d05", "d653c2b7ac973034", "3069a3fd89952c56"),
    ("poco", "0a4db73e39707139", "65be537315d11b72", "3ac3dbf23b3400a9", "5bdce052b32f23f1"),
    ("mariadb", "ab1d314ef37c54e9", "70d67659e49c6760", "57d90801dbdac084", "9174aa27690cffb3"),
    ("ffmpeg", "fff045c32b8866e7", "f25fbaed44849987", "ec7af9a838c2085e", "5bdcdb52b32f1b72"),
    ("mysql", "0a9181bbf7f760ee", "b6362e864c2f1127", "cc7a1972110296f8", "4782858679254d97"),
    ("firefox", "d82f5a48eb8a0aac", "dcd5c02b56f2c7ca", "6faa61d96b83ed04", "b63f835112496276"),
];

#[rustfmt::skip]
const TABLE1_X4: &[Row] = &[
    ("lrzip", "6efeff4a5c8319e2", "431d7c5b4aeb477d", "7e632aa55010bde9", "c4efc7769112e9fe"),
    ("lwan", "fcaf2883c4720329", "81b9c9b928af243a", "e6decab97777aff9", "5c6e310627f32581"),
    ("leveldb", "6a89ebf29dcd9425", "12342a208ea15fa4", "8b5e9ce6792557b6", "b14cd280f43f4ce2"),
    ("darknet", "d0d0682f22f98373", "f2300a78f62cdf38", "4e4ed509360dd6db", "5bdce052b32f23f1"),
    ("coturn", "3a90aff8e9035466", "506a32ff73953331", "4b3a943bde447ac6", "e20e7b02eca0fa46"),
    ("httrack", "bd0a1eb320b6aa64", "37563aec39a7dab3", "5ed4c25f2076fa18", "fdf8858ef70a6e0b"),
    ("finedb", "34908881b0fede50", "ed4fdbc671604397", "38ffae703ec228d3", "2754a86b9125a6a8"),
    ("tcpdump", "7f0437d6268ac2a1", "9ea737387d99f739", "3e284e948cce0b44", "5bdce052b32f23f1"),
    ("transmission", "c3aee0912a754535", "43bb7f60fab51b07", "ec7c0c6bb877d8f9", "ee697580471cd882"),
    ("celix", "153706839411b645", "8e95c29fe4e9d6b6", "85fc51cc531d57f0", "5bdce052b32f23f1"),
    ("redis", "efc1c26e4257fec3", "203673f9e13b4d0b", "2eb19b6b571a8372", "5bdce052b32f23f1"),
    ("git", "2256e41cbd8c019c", "5133cc8a0ffd5026", "67306cbd2b610fa0", "5bdce052b32f23f1"),
    ("zfs", "ef8cb2ae49fe6e3b", "7e5e31bf4f50e5c4", "ebda446dc3318adc", "332ca666e2cdcd31"),
    ("HP-Socket", "5e45abf1579d8f5e", "9bdae3b388624ac9", "8d08e1ef08b26794", "5bdce052b32f23f1"),
    ("openssl", "fb689c5bf2702b84", "18186baf3e9dec47", "5a44b57e802922ca", "9f635af4e925ab87"),
    ("poco", "0a4db73e39707139", "a67b7a3b6df4a36e", "be98c23ea6cb1388", "5bdcdb52b32f1b72"),
    ("mariadb", "8f76cd4b06f38566", "cbe83cff3769a6bb", "4851d8c468f517d1", "af70651579f3dea0"),
    ("ffmpeg", "fff045c32b8866e7", "3011903934c9f874", "a8a236ea0f5a750c", "47787386791cda7c"),
    ("mysql", "0a9181bbf7f760ee", "ea25752e0a52145d", "17a4dc3622100607", "477bf586791fed39"),
    ("firefox", "ef44cf1221e77b5d", "cbbee8e56780e728", "aacb5912b9238e5a", "61f2ef0d5983de6d"),
];

#[rustfmt::skip]
const SATURATION: &[Row] = &[
    ("sat-2k", "39edec4c6661f879", "7afb0c309801786a", "ed963d018db867c4", "50b3414974854f50"),
    ("sat-5k", "9a0e5aa1aa328d06", "eb5ac27b54eedddf", "ccce4825eb142b8d", "3286e7cdcf24c2d6"),
    ("sat-9k", "f7fdded94a4356de", "17e2395e32a8c3d6", "9960906358d68afd", "44070958bd30dcfd"),
];
