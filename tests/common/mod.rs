//! A helper shared by the integration tests that read `--json`.

use serde_json::Value;

/// The value of the scalar sample `family{labels}` in a `--json`
/// document's `metrics.registry` block (`labels` in the registry's
/// canonical form, `""` for an unlabelled sample). Panics when the
/// registry has no such sample.
pub fn registry_value(doc: &Value, family: &str, labels: &str) -> f64 {
    doc["metrics"]["registry"]["families"]
        .as_array()
        .and_then(|fams| fams.iter().find(|f| f["name"] == family))
        .and_then(|fam| fam["samples"].as_array())
        .and_then(|samples| samples.iter().find(|s| s["labels"] == labels))
        .and_then(|s| s["value"].as_f64())
        .unwrap_or_else(|| panic!("no sample {family}{{{labels}}} in metrics.registry"))
}
