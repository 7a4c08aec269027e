//! # canary-report
//!
//! Report interchange for the Canary pipeline: the layer that turns
//! in-memory [`BugReport`]s into artifacts other tools can consume.
//!
//! * [`sarif`] — SARIF 2.1.0 export with thread-aware `codeFlows`
//!   (one `threadFlow` per static thread, fork/join steps appearing in
//!   both the forking and forked flows as flow-join points), per-rule
//!   metadata for every [`BugKind`](canary_detect::BugKind), stable
//!   `partialFingerprints`, and an invocation block carrying the run
//!   manifest.
//! * [`diff`] — fingerprint-keyed run-to-run comparison classifying
//!   findings as *new*, *persisting* or *fixed*, the engine behind
//!   `--baseline` and `canary diff`.
//!
//! [`sarif_document`] returns a [`SarifLog`] that borrows the run's
//! program, reports and manifest. Serializing it streams the document
//! straight to text through the vendored `serde::JsonWriter`, with no
//! `Value` tree in between, so the export costs about what writing its
//! bytes costs. `serde_json::to_value` parses that text for the callers
//! that walk the document ([`diff_sarif`] under `--baseline`, tests).
//!
//! Everything here is deterministic: every SARIF object is written with
//! its keys in sorted order (the bytes a key-sorted `Value` tree of the
//! same document renders to), result order follows report order, and
//! the only nondeterministic values (phase wall times) are quarantined
//! under `invocations[0].properties.timings` where the determinism
//! harness normalizes them away.
//!
//! [`BugReport`]: canary_detect::BugReport

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod diff;
pub mod sarif;

pub use diff::{diff_sarif, findings_of_sarif, FindingSummary, SarifDiff};
pub use sarif::{sarif_document, RunManifest, SarifLog, SARIF_SCHEMA_URI, SARIF_VERSION};

/// FNV-1a 64-bit content hash, rendered as 16 hex digits — the corpus
/// hash recorded in the SARIF run manifest so two runs can be checked
/// for input identity before diffing.
pub fn content_hash(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_is_stable_and_input_sensitive() {
        let a = content_hash(b"fn main() {}");
        assert_eq!(a.len(), 16);
        assert_eq!(a, content_hash(b"fn main() {}"));
        assert_ne!(a, content_hash(b"fn main() { }"));
    }
}
