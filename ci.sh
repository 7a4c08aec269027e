#!/usr/bin/env sh
# CI gate: build, run the whole test suite serially and again with the
# parallel query-family solver enabled (CANARY_TEST_THREADS overrides
# the default worker count) — the determinism guarantee means both
# passes must see byte-identical analysis output — then lint and
# smoke-test the CLI.
set -eux

# Every artifact the smoke checks write goes into one private directory,
# removed on exit, so concurrent runs do not overwrite each other's.
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

cargo build --release --offline
# The two workspace runs execute every suite of every crate, serially
# and with the parallel query-family solver. Vendored proptest seeds
# each case from the test name, so running one suite again would repeat
# the same cases. Among the suites they cover:
# - oracle_differential: witness replay over the fixed 16-seed corpus;
# - memory_model_differential: the store-buffer oracle certifies every
#   finding on the litmus corpus under sc, tso and pso; memory_models
#   holds the detector-level model tests;
# - trace: Chrome traces stay byte-deterministic across worker counts
#   once timing is normalized;
# - solver_strategy_equivalence: the incremental query-family back-end
#   agrees with the fresh baseline on reports, verdicts and cores;
# - report_determinism: every report artifact (SARIF, provenance DAG,
#   diff) is the same across worker counts and solver strategies, plus
#   dedup and baseline classification regressions;
# - checker_matrix, canary-smt's lock_order_brute and
#   lock_sharpen_equivalence: the double-lock and conflict-lock
#   buggy/safe pairs and seeded corpora, the lock-order brute-force
#   differential and the lock-sharpened-MHP soundness envelope;
# - audit_reconciliation: the suppression-accounting suite
#   (reconciliation invariant, knob-invariant JSONL export, per-layer
#   certificates).
cargo test -q --workspace --offline
CANARY_TEST_THREADS=2 cargo test -q --workspace --offline
cargo clippy --workspace --all-targets --offline -- -D warnings
# Rustdoc links must resolve: a link to a deleted or private item fails
# here instead of rendering as plain text.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
cargo fmt --all -- --check
# Store-buffering litmus smoke: the Dekker-style double free replays
# on the store-buffer machine under tso/pso but has no SC witness, so
# --verify-witnesses separates the models at the CLI level.
./target/release/canary examples/tso_sb.cir --checkers doublefree \
    --memory-model sc --verify-witnesses > "$out/sb_sc.out" || [ $? -eq 1 ]
grep -q 'witness verification: 0/1' "$out/sb_sc.out"
for model in tso pso; do
    ./target/release/canary examples/tso_sb.cir --checkers doublefree \
        --memory-model "$model" --verify-witnesses \
        > "$out/sb_$model.out" || [ $? -eq 1 ]
    grep -q 'witness verification: 1/1' "$out/sb_$model.out"
done
# Trace smoke: the profiler must emit a parseable Chrome trace covering
# every pipeline phase plus at least one per-SMT-query span.
./target/release/canary examples/fig2_variant.cir --stats \
    --trace-out "$out/trace.json" || [ $? -eq 1 ]  # exit 1 = bug reported
# Validate the trace as real JSON when python3 is available; the grep
# fallback is only for environments without python3 (previously the
# `2>/dev/null ||` chain silently masked malformed JSON).
if command -v python3 >/dev/null 2>&1; then
    DOC="$out/trace.json" python3 -c 'import json, os; json.load(open(os.environ["DOC"]))'
else
    grep -q '"traceEvents"' "$out/trace.json"
fi
for span in '"callgraph"' '"alg1"' '"alg2"' '"detect"' 'smt.query:'; do
    grep -q "$span" "$out/trace.json"
done
# Report observability gates: the SARIF export must validate against
# the (vendored, minimal) 2.1.0 schema. Prefer a real jsonschema
# validation, fall back to a structural python3 check, then to grep.
./target/release/canary examples/fig2_variant.cir --format sarif \
    > "$out/fig2.sarif" || [ $? -eq 1 ]  # exit 1 = bug reported
if python3 -c 'import jsonschema' 2>/dev/null; then
    DOC="$out/fig2.sarif" python3 -c '
import json, jsonschema, os
doc = json.load(open(os.environ["DOC"]))
schema = json.load(open("docs/sarif-2.1.0-minimal.schema.json"))
jsonschema.validate(doc, schema)'
elif command -v python3 >/dev/null 2>&1; then
    DOC="$out/fig2.sarif" python3 -c '
import json, os
doc = json.load(open(os.environ["DOC"]))
assert doc["version"] == "2.1.0"
run = doc["runs"][0]
assert run["tool"]["driver"]["name"] == "canary"
res = run["results"][0]
assert res["message"]["text"]
assert res["partialFingerprints"]["canary/v1"]
assert res["codeFlows"][0]["threadFlows"][0]["locations"]'
else
    grep -q '"version": "2.1.0"' "$out/fig2.sarif"
    grep -q '"threadFlows"' "$out/fig2.sarif"
    grep -q '"partialFingerprints"' "$out/fig2.sarif"
fi
# Two-run baseline smoke: an unchanged corpus must classify every
# finding as persisting (zero new), so the baseline gate exits 0 even
# though the run has findings; `canary diff` of a run against itself
# agrees.
./target/release/canary examples/fig2_variant.cir \
    --baseline "$out/fig2.sarif" > /dev/null
./target/release/canary diff "$out/fig2.sarif" "$out/fig2.sarif" \
    | grep -q '0 new, 0 fixed'
# Deadlock example smoke: both lock checkers fire (exit 1) and the
# SARIF export validates like the Fig. 2 document above.
./target/release/canary examples/deadlock.cir --format sarif \
    > "$out/deadlock.sarif" || [ $? -eq 1 ]  # exit 1 = bug reported
if python3 -c 'import jsonschema' 2>/dev/null; then
    DOC="$out/deadlock.sarif" python3 -c '
import json, jsonschema, os
doc = json.load(open(os.environ["DOC"]))
schema = json.load(open("docs/sarif-2.1.0-minimal.schema.json"))
jsonschema.validate(doc, schema)
rules = [r["ruleId"] for r in doc["runs"][0]["results"]]
assert "canary/double-lock" in rules, rules
assert "canary/conflict-lock" in rules, rules'
elif command -v python3 >/dev/null 2>&1; then
    DOC="$out/deadlock.sarif" python3 -c '
import json, os
doc = json.load(open(os.environ["DOC"]))
assert doc["version"] == "2.1.0"
run = doc["runs"][0]
rules = [r["ruleId"] for r in run["results"]]
assert "canary/double-lock" in rules, rules
assert "canary/conflict-lock" in rules, rules
for r in run["results"]:
    assert run["tool"]["driver"]["rules"][r["ruleIndex"]]["id"] == r["ruleId"]'
else
    grep -q '"canary/double-lock"' "$out/deadlock.sarif"
    grep -q '"canary/conflict-lock"' "$out/deadlock.sarif"
fi
# Store-buffer litmus SARIF smoke: the tso run of the SB example must
# validate against the schema, report the double free, and record the
# memory model in the run manifest.
./target/release/canary examples/tso_sb.cir --memory-model tso --format sarif \
    > "$out/tso_sb.sarif" || [ $? -eq 1 ]  # exit 1 = bug reported
if python3 -c 'import jsonschema' 2>/dev/null; then
    DOC="$out/tso_sb.sarif" python3 -c '
import json, jsonschema, os
doc = json.load(open(os.environ["DOC"]))
schema = json.load(open("docs/sarif-2.1.0-minimal.schema.json"))
jsonschema.validate(doc, schema)
run = doc["runs"][0]
rules = [r["ruleId"] for r in run["results"]]
assert "canary/double-free" in rules, rules
assert run["invocations"][0]["properties"]["config"]["memory_model"] == "tso"'
elif command -v python3 >/dev/null 2>&1; then
    DOC="$out/tso_sb.sarif" python3 -c '
import json, os
doc = json.load(open(os.environ["DOC"]))
assert doc["version"] == "2.1.0"
run = doc["runs"][0]
rules = [r["ruleId"] for r in run["results"]]
assert "canary/double-free" in rules, rules
assert run["invocations"][0]["properties"]["config"]["memory_model"] == "tso"'
else
    grep -q '"canary/double-free"' "$out/tso_sb.sarif"
    grep -q '"memory_model": "tso"' "$out/tso_sb.sarif"
fi
# Run-health telemetry gates: OpenMetrics export smoke and --log flag
# smoke.
./target/release/canary examples/fig2_variant.cir --log off \
    --metrics-out "$out/fig2.om" > /dev/null || [ $? -eq 1 ]  # exit 1 = bug reported
tail -c 6 "$out/fig2.om" | grep -q '# EOF'
grep -q '^canary_detect_queries_total 1$' "$out/fig2.om"
grep -q '^canary_smt_query_seconds_bucket{kind="use-after-free",le="+Inf"} 1$' "$out/fig2.om"
grep -q '^canary_term_table_bytes ' "$out/fig2.om"
grep -q '^canary_phase_peak_rss_bytes{phase="detect"} ' "$out/fig2.om"
# --log summary heartbeats reach stderr only: stdout matches a quiet run.
./target/release/canary examples/fig2.cir --log summary \
    > "$out/log.out" 2> "$out/log.err"
grep -q 'canary: alg1: level' "$out/log.err"
grep -q '(converged)' "$out/log.err"
./target/release/canary examples/fig2.cir > "$out/quiet.out"
cmp "$out/log.out" "$out/quiet.out"
# The --audit-out export on the three-certificate example must carry
# one record per line that validates against the vendored mini-schema
# (same three-tier fallback as the SARIF gate), and --stats must print
# a reconciled audit line.
./target/release/canary examples/audited.cir --stats \
    --audit-out "$out/audited.jsonl" > "$out/audited.out"
grep -q '^audit: ' "$out/audited.out"
! grep -q 'RECONCILIATION FAILED' "$out/audited.out"
if python3 -c 'import jsonschema' 2>/dev/null; then
    DOC="$out/audited.jsonl" python3 -c '
import json, jsonschema, os
schema = json.load(open("docs/audit-minimal.schema.json"))
lines = [l for l in open(os.environ["DOC"]) if l.strip()]
assert lines, "empty audit export"
tags = set()
for i, line in enumerate(lines):
    rec = json.loads(line)
    jsonschema.validate(rec, schema)
    assert rec["seq"] == i, (rec["seq"], i)
    tags.add(rec["disposition"])
assert {"pruned_mhp", "pruned_lock_sharpen", "unsat_core"} <= tags, tags'
elif command -v python3 >/dev/null 2>&1; then
    DOC="$out/audited.jsonl" python3 -c '
import json, os
lines = [l for l in open(os.environ["DOC"]) if l.strip()]
assert lines, "empty audit export"
tags = set()
for i, line in enumerate(lines):
    rec = json.loads(line)
    assert rec["seq"] == i, (rec["seq"], i)
    assert rec["layer"] in ("interference", "detect"), rec
    assert isinstance(rec["certificate"], dict), rec
    tags.add(rec["disposition"])
assert {"pruned_mhp", "pruned_lock_sharpen", "unsat_core"} <= tags, tags'
else
    grep -q '"disposition":"pruned_mhp"' "$out/audited.jsonl"
    grep -q '"disposition":"pruned_lock_sharpen"' "$out/audited.jsonl"
    grep -q '"disposition":"unsat_core"' "$out/audited.jsonl"
fi
# why-not smoke: the reported fig2_variant pair answers "reported",
# each suppressed audited.cir pair prints its layer's certificate, and
# a never-enumerated pair exits 1.
./target/release/canary why-not examples/fig2_variant.cir l7 l4 \
    | grep -q 'reported: confirmed finding'
./target/release/canary why-not examples/audited.cir l24 l11 \
    | grep -q 'pruned by MHP analysis'
./target/release/canary why-not examples/audited.cir l15 l22 \
    | grep -q 'pruned by lock-sharpened MHP'
./target/release/canary why-not examples/audited.cir l3 l19 \
    | grep -q 'refuted by the solver'
rc=0
./target/release/canary why-not examples/audited.cir l1 l2 \
    > "$out/whynot_none.out" || rc=$?
[ "$rc" -eq 1 ]
grep -q 'never enumerated' "$out/whynot_none.out"
# why smoke: the fig2_variant fingerprint round-trips from the SARIF
# export back into an explanation.
fp=$(grep -o '"canary/v1": "[0-9a-f]*"' "$out/fig2.sarif" \
    | head -1 | cut -d'"' -f4)
./target/release/canary why examples/fig2_variant.cir "$fp" \
    | grep -q 'reported: confirmed finding'
