//! Typed run-health metrics: a deterministic registry of counters,
//! gauges and histograms with an OpenMetrics text exporter.
//!
//! # Design
//!
//! * The registry is a plain value (no globals, no atomics): each
//!   analysis run builds one from its final
//!   measurements, so aggregation is deterministic for any worker
//!   count — samples are keyed by `(family, sorted labels)` in
//!   `BTreeMap`s, never by insertion or thread order.
//! * Export renders the [OpenMetrics text format]: `# TYPE` / `# HELP`
//!   metadata per family, counter samples with the `_total` suffix,
//!   histogram `_bucket`/`_sum`/`_count` series with the `le` label
//!   last, and the mandatory `# EOF` terminator — scrape-ready for the
//!   future `canary serve` daemon.
//! * Determinism is a *classified* contract, mirroring how the SARIF
//!   manifest quarantines `timings`:
//!   - **volatile** families ([`family_is_volatile`]: wall-clock
//!     `_seconds` and `_rss_` memory families) legitimately differ
//!     between runs; [`normalize_openmetrics`] drops them so
//!     everything left must be byte-identical across `--threads`
//!     values and solver strategies;
//!   - **strategy-sensitive** families
//!     ([`family_is_strategy_sensitive`]: the `canary_solver_*` CDCL
//!     work counters) are deterministic for a fixed strategy but
//!     differ between `fresh` and `incremental` by design — that
//!     difference is the PR-4 speedup. Cross-strategy comparisons
//!     normalize these too.
//!
//! [OpenMetrics text format]: https://github.com/OpenObservability/OpenMetrics
//!
//! # Examples
//!
//! ```
//! use canary_trace::metrics::MetricsRegistry;
//!
//! let mut reg = MetricsRegistry::new();
//! reg.set_gauge("canary_vfg_nodes", "VFG node count", &[], 42.0);
//! reg.add_counter("canary_detect_queries", "SMT queries issued", &[], 3.0);
//! reg.observe(
//!     "canary_solver_query_decisions",
//!     "CDCL decisions per query",
//!     &[("kind", "use-after-free")],
//!     &[1.0, 4.0, 16.0],
//!     2.0,
//! );
//! let text = reg.to_openmetrics();
//! assert!(text.contains("canary_detect_queries_total 3"));
//! assert!(text.ends_with("# EOF\n"));
//! ```

use std::collections::BTreeMap;
use std::fmt::{self, Write};

/// Bucket upper bounds for CDCL-work (decision count) histograms: a
/// zero bucket for memoized/prefiltered queries, then powers of four.
pub const DECISION_BUCKETS: [f64; 8] = [0.0, 1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0];

/// Bucket upper bounds for solve-time histograms, in seconds.
pub const SECONDS_BUCKETS: [f64; 7] = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

/// The OpenMetrics type of a metric family.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically accumulated count (`_total` sample suffix).
    Counter,
    /// Point-in-time measurement.
    Gauge,
    /// Distribution over fixed buckets (`_bucket`/`_sum`/`_count`).
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One cumulative histogram over fixed bucket bounds.
#[derive(Clone, Debug, Default)]
struct Hist {
    /// Upper bounds of the finite buckets, ascending.
    bounds: Vec<f64>,
    /// Observations `<= bounds[i]` (non-cumulative; export accumulates).
    counts: Vec<u64>,
    /// Observations above every finite bound (the `+Inf` bucket).
    inf: u64,
    /// Sum of all observed values.
    sum: f64,
    /// Total observations.
    count: u64,
}

#[derive(Clone, Debug)]
enum Sample {
    Value(f64),
    Hist(Hist),
}

#[derive(Clone, Debug)]
struct Family {
    kind: MetricKind,
    help: String,
    /// Samples keyed by the canonical (sorted) label rendering.
    samples: BTreeMap<String, Sample>,
}

/// A deterministic registry of metric families.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    families: BTreeMap<String, Family>,
}

/// Renders a label set canonically: keys sorted, `k="v"` joined with
/// commas, no surrounding braces (the exporter adds them).
fn canonical_labels(labels: &[(&str, &str)]) -> String {
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_unstable();
    sorted
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect::<Vec<_>>()
        .join(",")
}

/// A sample value as rendered: integers without a fractional part,
/// floats via the (deterministic) shortest `f64` display otherwise.
struct SampleValue(f64);

impl fmt::Display for SampleValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if v.fract() == 0.0 && v.abs() < 9e15 {
            write!(f, "{}", v as i64)
        } else {
            write!(f, "{v}")
        }
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of metric families.
    pub fn len(&self) -> usize {
        self.families.len()
    }

    /// Whether no family has been registered.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    fn family_mut(&mut self, name: &str, kind: MetricKind, help: &str) -> &mut Family {
        let f = self
            .families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                kind,
                help: help.to_string(),
                samples: BTreeMap::new(),
            });
        debug_assert_eq!(
            f.kind, kind,
            "metric family {name} re-registered with a new kind"
        );
        f
    }

    /// Sets a gauge sample (last write wins).
    pub fn set_gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        let key = canonical_labels(labels);
        self.family_mut(name, MetricKind::Gauge, help)
            .samples
            .insert(key, Sample::Value(value));
    }

    /// Adds to a counter sample (created at zero).
    pub fn add_counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        let key = canonical_labels(labels);
        let fam = self.family_mut(name, MetricKind::Counter, help);
        match fam.samples.entry(key).or_insert(Sample::Value(0.0)) {
            Sample::Value(v) => *v += value,
            Sample::Hist(_) => unreachable!("counter family holds scalar samples"),
        }
    }

    /// Observes one value into a histogram sample. The first
    /// observation fixes the bucket bounds; later observations must
    /// pass the same bounds.
    pub fn observe(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
        value: f64,
    ) {
        let key = canonical_labels(labels);
        let fam = self.family_mut(name, MetricKind::Histogram, help);
        let h = match fam.samples.entry(key).or_insert_with(|| {
            Sample::Hist(Hist {
                bounds: bounds.to_vec(),
                counts: vec![0; bounds.len()],
                ..Hist::default()
            })
        }) {
            Sample::Hist(h) => h,
            Sample::Value(_) => unreachable!("histogram family holds histogram samples"),
        };
        debug_assert_eq!(
            h.bounds, bounds,
            "histogram {name} observed with new bounds"
        );
        match h.bounds.iter().position(|&b| value <= b) {
            Some(i) => h.counts[i] += 1,
            None => h.inf += 1,
        }
        h.sum += value;
        h.count += 1;
    }

    /// Renders the registry as an OpenMetrics text document ending in
    /// `# EOF`. Families, label sets and buckets are all emitted in
    /// canonical sorted order — the document is byte-deterministic for
    /// identical contents.
    pub fn to_openmetrics(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            let _ = writeln!(out, "# TYPE {name} {}", fam.kind.as_str());
            let _ = writeln!(out, "# HELP {name} {}", fam.help);
            for (labels, sample) in &fam.samples {
                // An unlabelled sample drops the braces altogether.
                let (open, close, sep) = if labels.is_empty() {
                    ("", "", "")
                } else {
                    ("{", "}", ",")
                };
                match sample {
                    Sample::Value(v) => {
                        let suffix = match fam.kind {
                            MetricKind::Counter => "_total",
                            _ => "",
                        };
                        let v = SampleValue(*v);
                        let _ = writeln!(out, "{name}{suffix}{open}{labels}{close} {v}");
                    }
                    Sample::Hist(h) => {
                        let mut cum = 0u64;
                        for (b, c) in h.bounds.iter().zip(&h.counts) {
                            cum += c;
                            let le = SampleValue(*b);
                            let _ =
                                writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cum}");
                        }
                        cum += h.inf;
                        let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cum}");
                        let sum = SampleValue(h.sum);
                        let _ = writeln!(out, "{name}_sum{open}{labels}{close} {sum}");
                        let _ = writeln!(out, "{name}_count{open}{labels}{close} {}", h.count);
                    }
                }
            }
        }
        out.push_str("# EOF\n");
        out
    }

    /// The counter and gauge samples as `family{labels} value` lines
    /// (no `_total` suffix; histograms left out), in export order: the
    /// body of the `--stats` footer.
    pub fn scalar_lines(&self) -> impl Iterator<Item = String> + '_ {
        self.families.iter().flat_map(|(name, fam)| {
            fam.samples
                .iter()
                .filter_map(move |(labels, sample)| match sample {
                    Sample::Value(v) if labels.is_empty() => {
                        Some(format!("{name} {}", SampleValue(*v)))
                    }
                    Sample::Value(v) => Some(format!("{name}{{{labels}}} {}", SampleValue(*v))),
                    Sample::Hist(_) => None,
                })
        })
    }

    /// Renders the registry as the versioned JSON block embedded under
    /// `metrics.registry` in `--json` output.
    pub fn to_json(&self) -> serde_json::Value {
        let families: Vec<serde_json::Value> = self
            .families
            .iter()
            .map(|(name, fam)| {
                let samples: Vec<serde_json::Value> = fam
                    .samples
                    .iter()
                    .map(|(labels, sample)| match sample {
                        Sample::Value(v) => serde_json::json!({
                            "labels": labels,
                            "value": v,
                        }),
                        Sample::Hist(h) => {
                            let buckets: Vec<serde_json::Value> = h
                                .bounds
                                .iter()
                                .zip(&h.counts)
                                .map(|(b, c)| serde_json::json!([b, c]))
                                .collect();
                            serde_json::json!({
                                "labels": labels,
                                "buckets": buckets,
                                "inf": h.inf,
                                "sum": h.sum,
                                "count": h.count,
                            })
                        }
                    })
                    .collect();
                serde_json::json!({
                    "name": name,
                    "kind": fam.kind.as_str(),
                    "help": fam.help,
                    "samples": samples,
                })
            })
            .collect();
        serde_json::json!({
            "registry_version": 1,
            "families": families,
        })
    }
}

/// Whether a metric family is **volatile** — nondeterministic across
/// runs by nature (wall-clock times, OS memory accounting) and
/// therefore *dropped wholesale* by the normalization helpers, exactly
/// like the SARIF manifest quarantines `timings`.
pub fn family_is_volatile(name: &str) -> bool {
    name.ends_with("_seconds") || name.contains("_rss_")
}

/// Whether a metric family is **strategy-sensitive** — deterministic
/// for a fixed `--solver-strategy` but intentionally different between
/// `fresh` and `incremental` (the CDCL work the incremental back-end
/// saves). Cross-strategy byte comparisons must normalize these too.
pub fn family_is_strategy_sensitive(name: &str) -> bool {
    name.starts_with("canary_solver_")
}

/// The family name behind one OpenMetrics sample line, with the
/// `_total` / `_bucket` / `_sum` / `_count` sample suffixes stripped;
/// `None` for comment and blank lines.
fn sample_family(line: &str) -> Option<&str> {
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let end = line.find(['{', ' '])?;
    let mut name = &line[..end];
    for suffix in ["_total", "_bucket", "_sum", "_count"] {
        if let Some(stripped) = name.strip_suffix(suffix) {
            name = stripped;
            break;
        }
    }
    Some(name)
}

/// The family name behind a `# TYPE` / `# HELP` header line; `None`
/// for sample, blank and `# EOF` lines.
fn comment_family(line: &str) -> Option<&str> {
    let rest = line
        .strip_prefix("# TYPE ")
        .or_else(|| line.strip_prefix("# HELP "))?;
    Some(rest.split(' ').next().unwrap_or(rest))
}

/// Normalizes an OpenMetrics document for determinism comparisons:
/// *drops* volatile families entirely (headers and samples) and, when
/// `cross_strategy` is set, zeroes the sample values of the
/// strategy-sensitive solver-work families (whose presence is
/// unconditional). Everything left must be byte-identical across
/// `--threads` values — and, with `cross_strategy`, across solver
/// strategies.
pub fn normalize_openmetrics(text: &str, cross_strategy: bool) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let fam = sample_family(line).or_else(|| comment_family(line));
        if fam.is_some_and(family_is_volatile) {
            continue;
        }
        let zero = cross_strategy && sample_family(line).is_some_and(family_is_strategy_sensitive);
        match (zero, line.rsplit_once(' ')) {
            (true, Some((head, _))) => {
                out.push_str(head);
                out.push_str(" 0\n");
            }
            _ => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

/// [`normalize_openmetrics`] for the JSON rendering: drops volatile
/// families and, with `cross_strategy`, zeroes the strategy-sensitive
/// ones in a parsed `registry` block (as produced by
/// [`MetricsRegistry::to_json`]) in place.
pub fn normalize_registry_json(doc: &mut serde_json::Value, cross_strategy: bool) {
    let serde_json::Value::Object(top) = doc else {
        return;
    };
    let Some(serde_json::Value::Array(families)) = top.get_mut("families") else {
        return;
    };
    families.retain(|fam| !fam["name"].as_str().is_some_and(family_is_volatile));
    if !cross_strategy {
        return;
    }
    for fam in families {
        if !fam["name"]
            .as_str()
            .is_some_and(family_is_strategy_sensitive)
        {
            continue;
        }
        let serde_json::Value::Object(fam) = fam else {
            continue;
        };
        let Some(serde_json::Value::Array(samples)) = fam.get_mut("samples") else {
            continue;
        };
        for s in samples {
            let serde_json::Value::Object(obj) = s else {
                continue;
            };
            if obj.contains_key("value") {
                obj.insert("value".into(), serde_json::json!(0.0));
            }
            if let Some(serde_json::Value::Array(buckets)) = obj.get_mut("buckets") {
                for b in buckets {
                    if let serde_json::Value::Array(pair) = b {
                        if pair.len() == 2 {
                            pair[1] = serde_json::json!(0);
                        }
                    }
                }
            }
            for k in ["inf", "sum", "count"] {
                if obj.contains_key(k) {
                    obj.insert(k.into(), serde_json::json!(0));
                }
            }
        }
    }
}

/// The process-lifetime peak resident-set size in bytes (`VmHWM` from
/// `/proc/self/status` on Linux; 0 where unavailable). Monotone over a
/// run, so a sample at the end of each phase gives a per-phase
/// high-water mark. **Volatile** by classification — never compared
/// across runs.
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
            return 0;
        };
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .unwrap_or(0);
                return kb * 1024;
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render_with_total_suffix() {
        let mut reg = MetricsRegistry::new();
        reg.add_counter("canary_x", "xs", &[], 2.0);
        reg.add_counter("canary_x", "xs", &[], 3.0);
        let text = reg.to_openmetrics();
        assert!(text.contains("# TYPE canary_x counter\n"));
        assert!(text.contains("canary_x_total 5\n"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn labels_render_sorted_and_escaped() {
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("g", "a gauge", &[("z", "1"), ("a", "two")], 7.5);
        let text = reg.to_openmetrics();
        assert!(text.contains("g{a=\"two\",z=\"1\"} 7.5\n"), "{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_inf() {
        let mut reg = MetricsRegistry::new();
        for v in [0.5, 3.0, 100.0] {
            reg.observe("h", "hist", &[("kind", "uaf")], &[1.0, 4.0], v);
        }
        let text = reg.to_openmetrics();
        assert!(
            text.contains("h_bucket{kind=\"uaf\",le=\"1\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("h_bucket{kind=\"uaf\",le=\"4\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("h_bucket{kind=\"uaf\",le=\"+Inf\"} 3\n"),
            "{text}"
        );
        assert!(text.contains("h_sum{kind=\"uaf\"} 103.5\n"), "{text}");
        assert!(text.contains("h_count{kind=\"uaf\"} 3\n"), "{text}");
    }

    #[test]
    fn exposition_text_is_pinned() {
        let mut reg = MetricsRegistry::new();
        reg.add_counter("canary_queries", "SMT queries issued", &[], 3.0);
        let gauge = ("canary_phase_tasks", "tasks per phase");
        reg.set_gauge(gauge.0, gauge.1, &[("phase", "detect")], 7.0);
        reg.set_gauge(gauge.0, gauge.1, &[("phase", "a\"b\\c")], 2.5);
        let hist = ("canary_query_decisions", "decisions per query");
        for v in [0.5, 3.0, 100.0] {
            reg.observe(
                hist.0,
                hist.1,
                &[("kind", "use-after-free")],
                &[1.0, 4.0],
                v,
            );
        }
        reg.observe("canary_wait_seconds", "wait", &[], &[0.25], 0.125);
        let want: String = [
            r#"# TYPE canary_phase_tasks gauge"#,
            r#"# HELP canary_phase_tasks tasks per phase"#,
            r#"canary_phase_tasks{phase="a\"b\\c"} 2.5"#,
            r#"canary_phase_tasks{phase="detect"} 7"#,
            r#"# TYPE canary_queries counter"#,
            r#"# HELP canary_queries SMT queries issued"#,
            r#"canary_queries_total 3"#,
            r#"# TYPE canary_query_decisions histogram"#,
            r#"# HELP canary_query_decisions decisions per query"#,
            r#"canary_query_decisions_bucket{kind="use-after-free",le="1"} 1"#,
            r#"canary_query_decisions_bucket{kind="use-after-free",le="4"} 2"#,
            r#"canary_query_decisions_bucket{kind="use-after-free",le="+Inf"} 3"#,
            r#"canary_query_decisions_sum{kind="use-after-free"} 103.5"#,
            r#"canary_query_decisions_count{kind="use-after-free"} 3"#,
            r#"# TYPE canary_wait_seconds histogram"#,
            r#"# HELP canary_wait_seconds wait"#,
            r#"canary_wait_seconds_bucket{le="0.25"} 1"#,
            r#"canary_wait_seconds_bucket{le="+Inf"} 1"#,
            r#"canary_wait_seconds_sum 0.125"#,
            r#"canary_wait_seconds_count 1"#,
            r#"# EOF"#,
        ]
        .iter()
        .map(|line| format!("{line}\n"))
        .collect();
        assert_eq!(reg.to_openmetrics(), want);
    }

    #[test]
    fn scalar_lines_skip_histograms_and_keep_export_order() {
        let mut reg = MetricsRegistry::new();
        reg.add_counter("canary_queries", "q", &[], 3.0);
        reg.observe("canary_query_decisions", "d", &[], &[1.0], 0.5);
        reg.set_gauge("canary_wall_seconds", "w", &[], 0.25);
        reg.set_gauge("canary_phase_tasks", "t", &[("phase", "detect")], 7.0);
        let lines: Vec<String> = reg.scalar_lines().collect();
        assert_eq!(
            lines,
            [
                r#"canary_phase_tasks{phase="detect"} 7"#,
                "canary_queries 3",
                "canary_wall_seconds 0.25",
            ]
        );
    }

    #[test]
    fn export_order_is_insertion_independent() {
        let mut a = MetricsRegistry::new();
        a.set_gauge("m_b", "b", &[], 1.0);
        a.set_gauge("m_a", "a", &[("l", "2")], 2.0);
        a.set_gauge("m_a", "a", &[("l", "1")], 3.0);
        let mut b = MetricsRegistry::new();
        b.set_gauge("m_a", "a", &[("l", "1")], 3.0);
        b.set_gauge("m_b", "b", &[], 1.0);
        b.set_gauge("m_a", "a", &[("l", "2")], 2.0);
        assert_eq!(a.to_openmetrics(), b.to_openmetrics());
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn volatile_families_are_dropped_wholesale() {
        let mut reg = MetricsRegistry::new();
        reg.set_gauge(
            "canary_phase_wall_seconds",
            "wall",
            &[("phase", "alg1")],
            1.25,
        );
        reg.set_gauge(
            "canary_phase_peak_rss_bytes",
            "rss",
            &[("phase", "alg1")],
            4096.0,
        );
        reg.set_gauge("canary_vfg_nodes", "nodes", &[], 11.0);
        reg.add_counter("canary_solver_decisions", "cdcl", &[], 9.0);
        let text = reg.to_openmetrics();
        let norm = normalize_openmetrics(&text, false);
        // The whole block — # TYPE/# HELP headers included — must go.
        assert!(!norm.contains("canary_phase_wall_seconds"), "{norm}");
        assert!(!norm.contains("canary_phase_peak_rss_bytes"), "{norm}");
        assert!(norm.contains("canary_vfg_nodes 11\n"));
        assert!(norm.contains("canary_solver_decisions_total 9\n"));
        let cross = normalize_openmetrics(&text, true);
        assert!(cross.contains("canary_solver_decisions_total 0\n"));
        assert!(cross.contains("canary_vfg_nodes 11\n"));
        // A registry without the volatile families normalizes to the
        // same text as one with them.
        let mut bare = MetricsRegistry::new();
        bare.set_gauge("canary_vfg_nodes", "nodes", &[], 11.0);
        bare.add_counter("canary_solver_decisions", "cdcl", &[], 9.0);
        assert_eq!(norm, normalize_openmetrics(&bare.to_openmetrics(), false));
    }

    #[test]
    fn json_normalization_drops_the_same_families() {
        let mut reg = MetricsRegistry::new();
        reg.observe(
            "canary_smt_query_seconds",
            "solve wall",
            &[("kind", "uaf")],
            &SECONDS_BUCKETS,
            0.002,
        );
        reg.set_gauge("canary_vfg_nodes", "nodes", &[], 5.0);
        let mut doc = reg.to_json();
        normalize_registry_json(&mut doc, false);
        let fams = doc["families"].as_array().unwrap();
        assert!(!fams.iter().any(|f| f["name"] == "canary_smt_query_seconds"));
        let gauge = fams
            .iter()
            .find(|f| f["name"] == "canary_vfg_nodes")
            .unwrap();
        assert_eq!(gauge["samples"][0]["value"].as_f64(), Some(5.0));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes() > 0);
        }
    }

    #[test]
    fn classification_rules() {
        assert!(family_is_volatile("canary_phase_wall_seconds"));
        assert!(family_is_volatile("canary_phase_peak_rss_bytes"));
        assert!(!family_is_volatile("canary_vfg_bytes"));
        assert!(!family_is_volatile("canary_audit_candidates"));
        assert!(family_is_strategy_sensitive("canary_solver_memo_hits"));
        assert!(!family_is_strategy_sensitive("canary_detect_queries"));
    }
}
