//! Symbolic points-to values for the bottom-up analysis.
//!
//! Alg. 1 analyzes each function once, before its callers, so pointer
//! values that depend on the calling context stay *symbolic* in the
//! function's formal parameters (the paper's line-3 transformation that
//! "explicitly exposes the side-effects on the function's parameters").
//! Callers substitute actuals for the `Param`/`DerefParam` symbols when
//! applying the procedural transfer function.

use canary_ir::{Label, ObjId, VarId};
use canary_smt::{TermId, TermPool};

/// A symbolic pointer value.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Sym {
    /// A concrete abstract object.
    Obj(ObjId),
    /// The null value (source for the null-dereference checker).
    Null,
    /// The value of the enclosing function's `i`-th formal parameter.
    Param(usize),
    /// The value initially stored in the cell the `i`-th formal
    /// parameter points to (one dereference deep; deeper chains are
    /// dropped, a soundiness cut shared with the paper's bounded
    /// summaries).
    DerefParam(usize),
}

/// A memory-cell key in the flow-sensitive state.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum MemKey {
    /// The cell of a concrete object.
    Obj(ObjId),
    /// The cell the `i`-th formal parameter points to.
    ParamCell(usize),
}

/// A value held in a memory cell.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct MemVal {
    /// The pointer value stored, if the analysis can name one
    /// (`None` for opaque data such as taint or integers — the flow
    /// still matters for the checkers).
    pub pointee: Option<Sym>,
    /// The store statement and stored variable that produced this value
    /// (`None` for unknown initial contents); this anchors the VFG edge
    /// from the store to any load observing the value.
    pub origin: Option<(Label, VarId)>,
}

/// A guarded entry in a points-to set or memory cell.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Guarded<T> {
    /// The condition under which this entry holds.
    pub guard: TermId,
    /// The entry.
    pub value: T,
}

impl<T> Guarded<T> {
    /// Creates a guarded entry.
    pub fn new(guard: TermId, value: T) -> Self {
        Guarded { guard, value }
    }
}

/// A guarded points-to set for one top-level variable.
pub type PtsSet = Vec<Guarded<Sym>>;

/// A guarded memory-cell content set.
pub type CellSet = Vec<Guarded<MemVal>>;

/// Inserts an entry, or-ing guards for duplicates of the same value.
pub fn insert_guarded<T: PartialEq + Copy>(
    pool: &mut TermPool,
    set: &mut Vec<Guarded<T>>,
    guard: TermId,
    value: T,
) {
    if guard == pool.ff() {
        return;
    }
    if let Some(e) = set.iter_mut().find(|e| e.value == value) {
        e.guard = pool.or2(e.guard, guard);
    } else {
        set.push(Guarded::new(guard, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_merges_duplicates_by_or() {
        let mut pool = TermPool::new();
        let a = pool.bool_atom(0);
        let na = pool.not(a);
        let mut set: PtsSet = Vec::new();
        insert_guarded(&mut pool, &mut set, a, Sym::Obj(ObjId::new(0)));
        insert_guarded(&mut pool, &mut set, na, Sym::Obj(ObjId::new(0)));
        assert_eq!(set.len(), 1);
        assert_eq!(set[0].guard, pool.tt());
    }

    #[test]
    fn insert_keeps_distinct_values() {
        let mut pool = TermPool::new();
        let g = pool.bool_atom(0);
        let mut set: PtsSet = Vec::new();
        insert_guarded(&mut pool, &mut set, g, Sym::Obj(ObjId::new(0)));
        insert_guarded(&mut pool, &mut set, g, Sym::Null);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn false_guard_is_dropped() {
        let mut pool = TermPool::new();
        let ff = pool.ff();
        let mut set: PtsSet = Vec::new();
        insert_guarded(&mut pool, &mut set, ff, Sym::Param(0));
        assert!(set.is_empty());
    }
}
