//! # canary-oracle
//!
//! A deterministic concrete interpreter for the Fig. 3 IR, used as a
//! *ground-truth oracle* for the static pipeline:
//!
//! * [`replay()`] executes a report's witness schedule step by step with
//!   a real heap — tracking allocation, free, dereference, null stores
//!   and taint — and checks that the claimed bug actually fires at the
//!   claimed source/sink pair. This is the executable reading of
//!   Defn. 2: the static witness is one sequentially consistent
//!   interleaving, and replay realizes it.
//! * [`explore`] enumerates *all* interleavings and branch valuations
//!   of small programs up to a configurable bound, certifying
//!   refutations (the Fig. 2 pattern concretely never fires) and
//!   powering the differential harness's bounded-soundness check.
//! * Both have `_under` variants ([`replay_under`], [`explore_under`])
//!   that run the machine with per-thread store buffers, giving TSO and
//!   PSO their operational reading: stores drain at explicit scheduler
//!   events, so a weak-memory-only bug (store buffering, PSO message
//!   passing) is concretely reachable here and concretely *unreachable*
//!   under the SC machine — the differential harness certifies both
//!   directions.
//!
//! The machine is intentionally simple: one-word heap cells, opaque
//! arithmetic, sticky notifies. It does not model integer values —
//! branch atoms stay symbolic, decided by the SMT model's valuation
//! ([`BugReport::guards`](canary_detect::BugReport)) during replay and
//! enumerated exhaustively during exploration. That is exactly the
//! abstraction level the static analysis works at, which is what makes
//! the differential comparison meaningful.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod enumerate;
pub mod machine;
pub mod replay;

pub use enumerate::{explore, explore_under, EnumLimits, Exploration};
pub use machine::{
    BufferedStore, Frame, HeapCell, Hit, Machine, Poll, ThreadState, Valuation, Value,
};
pub use replay::{
    replay, replay_report, replay_report_under, replay_under, schedule_duplicates, ReplayFailure,
    ReplayResult,
};
