//! # canary-trace
//!
//! The observability substrate of the Canary pipeline: hierarchical,
//! span-based tracing with typed (numeric) attributes behind a
//! near-zero-cost disabled path, plus the `CANARY_LOG` progress-line
//! gate used for heartbeats on long corpus runs.
//!
//! # Design
//!
//! * A [`Tracer`] is a cheap clonable handle: either *disabled* (the
//!   default — every operation is a branch on an `Option` and returns
//!   immediately, no allocation, no clock read) or *enabled*, holding a
//!   shared [`Collector`].
//! * The collector is one mutex-guarded `Vec` of finished spans. Spans
//!   may close on any thread in any order; the pipeline closes them all
//!   on the analysis thread, so the lock goes uncontended.
//! * Export is **deterministically ordered**: events are sorted by
//!   `(lane, category, key, name)` — all logical, caller-supplied
//!   values — never by wall-clock time. Two runs of the deterministic
//!   pipeline at different `--threads` values therefore emit the same
//!   event sequence; only the `ts`/`dur` fields differ, and those are
//!   exactly the fields `normalize_chrome_trace` zeroes for the
//!   byte-identity tests.
//! * [`Tracer::export_chrome`] renders the Chrome trace-event JSON
//!   format (`{"traceEvents": [...]}`, `ph: "X"` complete events with
//!   `pid`/`tid`/`ts`/`dur`/`name`/`cat`/`args`), loadable in Perfetto
//!   or `chrome://tracing`. The `tid` is a *logical lane*, not an OS
//!   thread id — OS ids would break cross-thread-count determinism.
//!
//! # Examples
//!
//! ```
//! use canary_trace::{Tracer, LANE_PIPELINE};
//!
//! let tracer = Tracer::enabled();
//! {
//!     let mut span = tracer.span(LANE_PIPELINE, "alg1", 0, || "alg1 dataflow".into());
//!     span.record("tasks", 3);
//! } // span closes and is collected here
//! let json = tracer.export_chrome();
//! assert!(json.contains("\"traceEvents\""));
//! assert!(json.contains("alg1 dataflow"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod metrics;

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Logical lane (Chrome `tid`) for top-level pipeline phase spans.
pub const LANE_PIPELINE: u32 = 0;
/// Lane for Alg. 1 (data-dependence) level/task/function spans.
pub const LANE_ALG1: u32 = 1;
/// Lane for Alg. 2 (interference) round spans.
pub const LANE_ALG2: u32 = 2;
/// Lane for §5 detection (per-kind, per-candidate) spans.
pub const LANE_DETECT: u32 = 3;
/// Lane for per-SMT-query spans.
pub const LANE_SMT: u32 = 4;

/// One finished span, ready for export.
#[derive(Clone, Debug)]
pub struct Event {
    /// Logical lane (exported as Chrome `tid`).
    pub lane: u32,
    /// Category (exported as Chrome `cat`), e.g. `"alg1"`.
    pub cat: &'static str,
    /// Deterministic sort key within `(lane, cat)` — a function index,
    /// query index, round number… Never derived from time or threads.
    pub key: u64,
    /// Human-readable span name.
    pub name: String,
    /// Start offset from the tracer's epoch, nanoseconds.
    pub start_ns: u64,
    /// Span duration, nanoseconds.
    pub dur_ns: u64,
    /// Typed numeric attributes, in `record` order. Values must be
    /// deterministic (no wall times) — the determinism contract
    /// normalizes only `ts`/`dur`.
    pub args: Vec<(&'static str, u64)>,
}

/// The event sink behind an enabled [`Tracer`].
pub struct Collector {
    events: Mutex<Vec<Event>>,
    epoch: Instant,
}

impl fmt::Debug for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collector").finish_non_exhaustive()
    }
}

impl Collector {
    fn new() -> Self {
        Collector {
            events: Mutex::new(Vec::new()),
            epoch: Instant::now(),
        }
    }

    /// The event buffer. A panic elsewhere while the lock was held
    /// cannot leave it half-written (a push either happened or not), so
    /// a poisoned lock is still usable.
    fn lock(&self) -> MutexGuard<'_, Vec<Event>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, ev: Event) {
        self.lock().push(ev);
    }

    /// Snapshots every collected event, newest first (callers sort;
    /// events with equal sort keys keep this order).
    fn snapshot(&self) -> Vec<Event> {
        self.lock().iter().rev().cloned().collect()
    }
}

/// A handle to the tracing layer. Cloning shares the collector.
#[derive(Clone, Debug, Default)]
pub struct Tracer(Option<Arc<Collector>>);

impl Tracer {
    /// The no-op tracer: spans are inert, nothing allocates, name
    /// closures are never invoked.
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// A tracer that collects spans; the epoch (ts = 0) is now.
    pub fn enabled() -> Self {
        Tracer(Some(Arc::new(Collector::new())))
    }

    /// Whether spans are being collected.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a span; it is recorded when dropped (or on
    /// [`Span::finish`]). `name` is lazy so the disabled path never
    /// formats or allocates.
    pub fn span(
        &self,
        lane: u32,
        cat: &'static str,
        key: u64,
        name: impl FnOnce() -> String,
    ) -> Span<'_> {
        match &self.0 {
            None => Span {
                col: None,
                lane,
                cat,
                key,
                name: String::new(),
                args: Vec::new(),
                start: None,
            },
            Some(col) => Span {
                col: Some(col),
                lane,
                cat,
                key,
                name: name(),
                args: Vec::new(),
                start: Some(Instant::now()),
            },
        }
    }

    /// Records an already-timed interval (used when timing happened
    /// elsewhere, e.g. per-query solve intervals measured inside the
    /// parallel solver workers).
    #[allow(clippy::too_many_arguments)]
    pub fn event(
        &self,
        lane: u32,
        cat: &'static str,
        key: u64,
        name: impl FnOnce() -> String,
        start: Instant,
        dur: std::time::Duration,
        args: impl FnOnce() -> Vec<(&'static str, u64)>,
    ) {
        let Some(col) = &self.0 else { return };
        let start_ns = start
            .checked_duration_since(col.epoch)
            .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        col.push(Event {
            lane,
            cat,
            key,
            name: name(),
            start_ns,
            dur_ns: u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX),
            args: args(),
        });
    }

    /// All collected events in deterministic export order.
    pub fn events(&self) -> Vec<Event> {
        let Some(col) = &self.0 else {
            return Vec::new();
        };
        let mut evs = col.snapshot();
        evs.sort_by(|a, b| (a.lane, a.cat, a.key, &a.name).cmp(&(b.lane, b.cat, b.key, &b.name)));
        evs
    }

    /// Renders the Chrome trace-event JSON document
    /// (`{"traceEvents": [...]}`, complete `"X"` events, `ts`/`dur` in
    /// microseconds). Event order — and every field except `ts`/`dur` —
    /// is deterministic across worker counts.
    pub fn export_chrome(&self) -> String {
        let events: Vec<serde_json::Value> = self
            .events()
            .into_iter()
            .map(|e| {
                let args: std::collections::BTreeMap<String, serde_json::Value> = e
                    .args
                    .iter()
                    .map(|&(k, v)| (k.to_string(), serde_json::json!(v)))
                    .collect();
                serde_json::json!({
                    "pid": 1,
                    "tid": e.lane,
                    "ph": "X",
                    "cat": e.cat,
                    "name": e.name,
                    "ts": e.start_ns / 1_000,
                    "dur": (e.dur_ns / 1_000).max(1),
                    "args": serde_json::Value::Object(args),
                })
            })
            .collect();
        let doc = serde_json::json!({
            "traceEvents": events,
            "displayTimeUnit": "ms",
        });
        serde_json::to_string_pretty(&doc).expect("trace events are valid json")
    }
}

/// An open span. Attributes added with [`Span::record`] are exported as
/// Chrome `args`; the span is collected when dropped.
#[derive(Debug)]
pub struct Span<'t> {
    col: Option<&'t Arc<Collector>>,
    lane: u32,
    cat: &'static str,
    key: u64,
    name: String,
    args: Vec<(&'static str, u64)>,
    start: Option<Instant>,
}

impl Span<'_> {
    /// Attaches a numeric attribute. Values must be deterministic
    /// (counters, sizes, indices) — wall times belong in `ts`/`dur`.
    pub fn record(&mut self, key: &'static str, value: u64) {
        if self.col.is_some() {
            self.args.push((key, value));
        }
    }

    /// Closes the span now (otherwise it closes on drop).
    pub fn finish(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let (Some(col), Some(start)) = (self.col, self.start) else {
            return;
        };
        let start_ns = start
            .checked_duration_since(col.epoch)
            .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        col.push(Event {
            lane: self.lane,
            cat: self.cat,
            key: self.key,
            name: std::mem::take(&mut self.name),
            start_ns,
            dur_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            args: std::mem::take(&mut self.args),
        });
    }
}

/// Zeroes the wall-clock fields (`ts`, `dur`) of a parsed Chrome trace
/// document in place — everything left must be byte-identical across
/// `--threads` values. Shared by the determinism tests and CI smoke.
pub fn normalize_chrome_trace(doc: &mut serde_json::Value) {
    let serde_json::Value::Object(top) = doc else {
        return;
    };
    let Some(serde_json::Value::Array(events)) = top.get_mut("traceEvents") else {
        return;
    };
    for e in events {
        if let serde_json::Value::Object(obj) = e {
            obj.insert("ts".into(), serde_json::json!(0u64));
            obj.insert("dur".into(), serde_json::json!(0u64));
        }
    }
}

/// Verbosity of the human-readable stderr progress lines, gated by the
/// `CANARY_LOG` environment variable (`off`, `summary`, `debug`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum LogLevel {
    /// No progress lines (the default).
    #[default]
    Off,
    /// One heartbeat per pipeline phase.
    Summary,
    /// Phase heartbeats plus per-round / per-kind detail.
    Debug,
}

/// Parses a `CANARY_LOG` value.
pub fn parse_log_level(v: &str) -> LogLevel {
    match v.trim().to_ascii_lowercase().as_str() {
        "summary" | "1" | "info" | "on" => LogLevel::Summary,
        "debug" | "2" | "trace" => LogLevel::Debug,
        _ => LogLevel::Off,
    }
}

/// Strictly parses a `--log` CLI value: exactly `off`, `summary` or
/// `debug` (case-insensitive). Unlike the lenient env-var parser,
/// unknown values are `None` so the CLI can exit with a usage error.
pub fn parse_log_level_strict(v: &str) -> Option<LogLevel> {
    match v.trim().to_ascii_lowercase().as_str() {
        "off" => Some(LogLevel::Off),
        "summary" => Some(LogLevel::Summary),
        "debug" => Some(LogLevel::Debug),
        _ => None,
    }
}

/// Explicit log-level override (`--log`): 0 = none, else level + 1.
static LOG_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Overrides the process-wide log level, taking precedence over the
/// `CANARY_LOG` environment variable (which is read once and cached —
/// this is the only supported way to change verbosity after startup).
pub fn set_log_level(level: LogLevel) {
    LOG_OVERRIDE.store(level as u8 + 1, Ordering::Relaxed);
}

/// The process-wide log level: the [`set_log_level`] override when one
/// was installed, else `CANARY_LOG` (read once).
pub fn log_level() -> LogLevel {
    match LOG_OVERRIDE.load(Ordering::Relaxed) {
        1 => return LogLevel::Off,
        2 => return LogLevel::Summary,
        3 => return LogLevel::Debug,
        _ => {}
    }
    static LEVEL: OnceLock<LogLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        std::env::var("CANARY_LOG")
            .map(|v| parse_log_level(&v))
            .unwrap_or(LogLevel::Off)
    })
}

/// Emits one progress line on **stderr** (stdout stays clean for
/// reports/JSON) when `CANARY_LOG` is at least `level`. The message
/// closure runs only when the line will actually print.
pub fn log(level: LogLevel, msg: impl FnOnce() -> String) {
    if level != LogLevel::Off && log_level() >= level {
        eprintln!("canary: {}", msg());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert_and_lazy() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let mut called = false;
        {
            let mut s = t.span(LANE_ALG1, "alg1", 7, || {
                called = true;
                "never".into()
            });
            s.record("x", 1);
        }
        assert!(!called, "disabled span must not format its name");
        assert!(t.events().is_empty());
        assert_eq!(
            serde_json::from_str::<serde_json::Value>(&t.export_chrome()).unwrap()["traceEvents"]
                .as_array()
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn events_sort_by_logical_key_not_time() {
        let t = Tracer::enabled();
        // Close spans in reverse key order; export must re-sort.
        t.span(LANE_ALG1, "alg1", 2, || "b".into()).finish();
        t.span(LANE_ALG1, "alg1", 1, || "a".into()).finish();
        t.span(LANE_PIPELINE, "pipeline", 9, || "p".into()).finish();
        let names: Vec<String> = t.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["p", "a", "b"]);
    }

    #[test]
    fn chrome_export_has_required_fields() {
        let t = Tracer::enabled();
        {
            let mut s = t.span(LANE_SMT, "smt", 0, || "smt.query 0".into());
            s.record("decisions", 12);
        }
        let doc: serde_json::Value = serde_json::from_str(&t.export_chrome()).unwrap();
        let evs = doc["traceEvents"].as_array().unwrap();
        assert_eq!(evs.len(), 1);
        let e = &evs[0];
        for field in ["pid", "tid", "ph", "ts", "dur", "name", "cat", "args"] {
            assert!(e.get(field).is_some(), "missing {field}");
        }
        assert_eq!(e["ph"], "X");
        assert_eq!(e["args"]["decisions"], 12);
        assert!(e["dur"].as_u64().unwrap() >= 1);
    }

    #[test]
    fn concurrent_spans_are_all_collected() {
        let t = Tracer::enabled();
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..50u64 {
                        t.span(LANE_ALG1, "alg1", w * 50 + i, || format!("s{w}-{i}"))
                            .finish();
                    }
                });
            }
        });
        assert_eq!(t.events().len(), 200);
    }

    #[test]
    fn normalize_zeroes_wall_clock_fields() {
        let t = Tracer::enabled();
        t.span(LANE_ALG2, "alg2", 0, || "round".into()).finish();
        let mut doc: serde_json::Value = serde_json::from_str(&t.export_chrome()).unwrap();
        normalize_chrome_trace(&mut doc);
        assert_eq!(doc["traceEvents"][0]["ts"], 0);
        assert_eq!(doc["traceEvents"][0]["dur"], 0);
    }

    #[test]
    fn log_level_parsing() {
        assert_eq!(parse_log_level("off"), LogLevel::Off);
        assert_eq!(parse_log_level(""), LogLevel::Off);
        assert_eq!(parse_log_level("SUMMARY"), LogLevel::Summary);
        assert_eq!(parse_log_level("debug"), LogLevel::Debug);
        assert!(LogLevel::Debug > LogLevel::Summary);
        assert!(LogLevel::Summary > LogLevel::Off);
    }

    #[test]
    fn strict_log_level_rejects_aliases_and_junk() {
        assert_eq!(parse_log_level_strict("off"), Some(LogLevel::Off));
        assert_eq!(parse_log_level_strict("Summary"), Some(LogLevel::Summary));
        assert_eq!(parse_log_level_strict("DEBUG"), Some(LogLevel::Debug));
        assert_eq!(parse_log_level_strict("info"), None);
        assert_eq!(parse_log_level_strict("1"), None);
        assert_eq!(parse_log_level_strict(""), None);
    }

    #[test]
    fn log_override_takes_precedence_over_env() {
        // The env cache may already be initialized by other tests; the
        // override must win regardless, and be re-settable.
        set_log_level(LogLevel::Debug);
        assert_eq!(log_level(), LogLevel::Debug);
        set_log_level(LogLevel::Off);
        assert_eq!(log_level(), LogLevel::Off);
        set_log_level(LogLevel::Summary);
        assert_eq!(log_level(), LogLevel::Summary);
        // Restore "no override" is impossible by design (the CLI sets
        // it once); leave it Off so other tests' stderr stays quiet.
        set_log_level(LogLevel::Off);
    }
}
