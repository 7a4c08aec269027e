//! # canary-smt
//!
//! The SMT substrate of the Canary reproduction: a CDCL(T) solver for
//! the constraint language the analyses emit — Boolean combinations of
//! opaque branch atoms and strict-order atoms `O_a < O_b` over execution
//! events, interpreted under sequential consistency (every model must
//! extend to a total order of events).
//!
//! The paper builds on Z3 (§6); Z3 is unavailable offline, and the
//! fragment Canary needs is exactly propositional logic + strict partial
//! orders, so this crate implements it from scratch:
//!
//! * [`TermPool`] — hash-consed terms with simplifying constructors;
//! * [`SatSolver`] — a CDCL SAT core (watched literals, 1UIP learning,
//!   VSIDS, Luby restarts, assumptions);
//! * [`theory`] — the order theory: a model is consistent iff its
//!   oriented order edges are acyclic;
//! * [`check`]/[`check_all`] — the lazy CDCL(T) loop plus the §5.2
//!   optimizations (semi-decision prefilter, per-query parallelism);
//! * [`check_all_grouped`] — query families solved incrementally on
//!   one persistent solver each.
//!
//! # Examples
//!
//! Refuting the Fig. 2 false positive:
//!
//! ```
//! use canary_smt::{check, SmtResult, SolverOptions, SolverStats, TermPool};
//!
//! let mut pool = TermPool::new();
//! let theta = pool.bool_atom(0);
//! let not_theta = pool.not(theta);
//! let store_before_load = pool.order_lt(13, 6);
//! let phi = pool.and([theta, not_theta, store_before_load]);
//! let stats = SolverStats::default();
//! assert_eq!(
//!     check(&pool, phi, &SolverOptions::default(), &stats),
//!     SmtResult::Unsat
//! );
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cnf;
pub mod core;
pub mod sat;
pub mod scratch;
pub mod simplify;
pub mod solver;
pub mod term;
pub mod theory;

pub use cnf::{encode, encode_gated, Encoding};
pub use core::{check_conjunction, minimal_core};
pub use sat::{Lit, SatResult, SatSolver, SatStats, Var};
pub use simplify::{obviously_false, obviously_true};
pub use solver::{
    check, check_all, check_all_grouped, check_all_recorded, check_counted, check_witness,
    check_witness_model, GroupedOutcome, QueryCache, QueryOutcome, QueryStats, SmtResult,
    SolverOptions, SolverStats, SolverStrategy, WitnessModel,
};
pub use scratch::{ScratchLog, ScratchPool, TermRemap};
pub use term::{AtomSet, EventId, Node, TermBuild, TermId, TermPool};
pub use theory::{check_orders, orders_consistent, OrderEdge, TheoryResult};
