//! Fingerprint-keyed run-to-run diffing: the regression-triage layer
//! behind `--baseline FILE` and `canary diff a.sarif b.sarif`.
//!
//! Two SARIF documents are compared by the stable content-addressed
//! fingerprints their results carry under `partialFingerprints` (key
//! [`FINGERPRINT_KEY`](crate::sarif::FINGERPRINT_KEY)). Because the
//! fingerprint hashes the *semantic shape* of a finding — kind,
//! statement text, function names, position-stripped path — and not
//! its labels, findings keep their identity across unrelated edits
//! that renumber the program.

use std::collections::BTreeSet;

use serde_json::Value;

use crate::sarif::FINGERPRINT_KEY;

/// One finding extracted from a SARIF document, reduced to what the
/// diff needs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FindingSummary {
    /// The `canary/v1` partial fingerprint (16 hex digits).
    pub fingerprint: String,
    /// The SARIF rule id (`canary/use-after-free`, …).
    pub rule: String,
    /// The result's message text.
    pub message: String,
}

/// The classification of two runs' findings.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SarifDiff {
    /// In the current run but not the baseline.
    pub new: Vec<FindingSummary>,
    /// In both runs (summaries taken from the current run).
    pub persisting: Vec<FindingSummary>,
    /// In the baseline but not the current run.
    pub fixed: Vec<FindingSummary>,
}

impl SarifDiff {
    /// Whether the current run introduced findings the baseline lacks
    /// — the condition CI gates on.
    pub fn has_new(&self) -> bool {
        !self.new.is_empty()
    }

    /// Human-readable classification, one line per finding plus a
    /// summary line; deterministic for deterministic inputs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (tag, list) in [
            ("new", &self.new),
            ("fixed", &self.fixed),
            ("persisting", &self.persisting),
        ] {
            for f in list {
                out.push_str(&format!(
                    "[{tag}] {} {} {}\n",
                    f.fingerprint, f.rule, f.message
                ));
            }
        }
        out.push_str(&format!(
            "diff: {} new, {} fixed, {} persisting\n",
            self.new.len(),
            self.fixed.len(),
            self.persisting.len()
        ));
        out
    }
}

/// Extracts every result's fingerprint summary from a parsed SARIF
/// document, in document order.
///
/// # Errors
///
/// Returns a description of the first structural problem: missing
/// `runs`/`results` arrays or a result without the `canary/v1`
/// fingerprint (e.g. SARIF produced by another tool).
pub fn findings_of_sarif(doc: &Value) -> Result<Vec<FindingSummary>, String> {
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("not a SARIF log: no `runs` array")?;
    let mut out = Vec::new();
    for (ri, run) in runs.iter().enumerate() {
        let results = run
            .get("results")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("run {ri} has no `results` array"))?;
        for (i, res) in results.iter().enumerate() {
            let fingerprint = res
                .get("partialFingerprints")
                .and_then(|f| f.get(FINGERPRINT_KEY))
                .and_then(Value::as_str)
                .ok_or_else(|| {
                    format!("run {ri} result {i} lacks the `{FINGERPRINT_KEY}` fingerprint")
                })?
                .to_string();
            let rule = res
                .get("ruleId")
                .and_then(Value::as_str)
                .unwrap_or("<unknown rule>")
                .to_string();
            let message = res
                .get("message")
                .and_then(|m| m.get("text"))
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            out.push(FindingSummary {
                fingerprint,
                rule,
                message,
            });
        }
    }
    Ok(out)
}

/// Classifies the current run's findings against a baseline run.
/// Order: `new` and `persisting` follow the current document's result
/// order, `fixed` follows the baseline's.
///
/// # Errors
///
/// Propagates [`findings_of_sarif`] errors from either document.
pub fn diff_sarif(baseline: &Value, current: &Value) -> Result<SarifDiff, String> {
    let base = findings_of_sarif(baseline)?;
    let cur = findings_of_sarif(current)?;
    let base_fps: BTreeSet<&str> = base.iter().map(|f| f.fingerprint.as_str()).collect();
    let cur_fps: BTreeSet<&str> = cur.iter().map(|f| f.fingerprint.as_str()).collect();
    let mut diff = SarifDiff::default();
    let mut seen_cur: BTreeSet<&str> = BTreeSet::new();
    for f in &cur {
        if !seen_cur.insert(f.fingerprint.as_str()) {
            continue;
        }
        if base_fps.contains(f.fingerprint.as_str()) {
            diff.persisting.push(f.clone());
        } else {
            diff.new.push(f.clone());
        }
    }
    let mut seen_base: BTreeSet<&str> = BTreeSet::new();
    for f in &base {
        if seen_base.insert(f.fingerprint.as_str()) && !cur_fps.contains(f.fingerprint.as_str()) {
            diff.fixed.push(f.clone());
        }
    }
    Ok(diff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn doc(fps: &[(&str, &str)]) -> Value {
        let results: Vec<Value> = fps
            .iter()
            .map(|&(fp, rule)| {
                json!({
                    "ruleId": rule,
                    "message": { "text": format!("finding {fp}") },
                    "partialFingerprints": { "canary/v1": fp },
                })
            })
            .collect();
        json!({ "version": "2.1.0", "runs": [{ "results": results }] })
    }

    #[test]
    fn classifies_new_fixed_persisting() {
        let base = doc(&[
            ("aaaa", "canary/use-after-free"),
            ("bbbb", "canary/data-leak"),
        ]);
        let cur = doc(&[("bbbb", "canary/data-leak"), ("cccc", "canary/double-free")]);
        let d = diff_sarif(&base, &cur).unwrap();
        assert_eq!(d.new.len(), 1);
        assert_eq!(d.new[0].fingerprint, "cccc");
        assert_eq!(d.fixed.len(), 1);
        assert_eq!(d.fixed[0].fingerprint, "aaaa");
        assert_eq!(d.persisting.len(), 1);
        assert_eq!(d.persisting[0].fingerprint, "bbbb");
        assert!(d.has_new());
        let rendered = d.render();
        assert!(rendered.contains("[new] cccc"));
        assert!(rendered.contains("[fixed] aaaa"));
        assert!(rendered.contains("diff: 1 new, 1 fixed, 1 persisting"));
    }

    #[test]
    fn identical_runs_have_no_new_findings() {
        let a = doc(&[("aaaa", "r"), ("bbbb", "r")]);
        let d = diff_sarif(&a, &a).unwrap();
        assert!(!d.has_new());
        assert!(d.new.is_empty() && d.fixed.is_empty());
        assert_eq!(d.persisting.len(), 2);
    }

    #[test]
    fn duplicate_fingerprints_collapse() {
        let base = doc(&[]);
        let cur = doc(&[("aaaa", "r"), ("aaaa", "r")]);
        let d = diff_sarif(&base, &cur).unwrap();
        assert_eq!(d.new.len(), 1);
    }

    #[test]
    fn structural_errors_are_reported() {
        assert!(findings_of_sarif(&json!({"version": "2.1.0"})).is_err());
        let no_fp = json!({ "runs": [{ "results": [{ "ruleId": "r" }] }] });
        let err = findings_of_sarif(&no_fp).unwrap_err();
        assert!(err.contains("canary/v1"), "{err}");
    }

    #[test]
    fn empty_runs_diff_cleanly() {
        let d = diff_sarif(&doc(&[]), &doc(&[])).unwrap();
        assert_eq!(d, SarifDiff::default());
        assert!(d.render().contains("0 new, 0 fixed, 0 persisting"));
    }
}
