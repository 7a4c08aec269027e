//! Hash-consed terms of the constraint language Canary emits.
//!
//! The guards of §4 and the partial-order constraints of §5 are Boolean
//! combinations of exactly two atom kinds:
//!
//! * **branch atoms** `b_i` — the opaque path-condition atoms `θ`;
//! * **order atoms** `O_{e1} < O_{e2}` — strict orders between execution
//!   events (statement labels).
//!
//! Terms are interned in a [`TermPool`]; equal structures share one
//! [`TermId`], so the heavy conjunction-building of guard aggregation is
//! cheap and equality is O(1). Constructors apply light rewrites
//! (constant folding, flattening, complement detection) — the
//! "lightweight semi-decision procedures" of §5.2 live on top of these
//! in [`crate::simplify`].

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::fmt;

use rustc_hash::FxHashMap;

/// An interned term handle.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub u32);

impl TermId {
    /// Raw index into the pool.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// An execution event (a statement label in Canary's encoding).
pub type EventId = u32;

/// A term node. Negation is kept explicit; `And`/`Or` are n-ary and
/// flattened.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Node {
    /// Constant true.
    True,
    /// Constant false.
    False,
    /// An opaque Boolean (branch-condition) atom.
    BoolAtom(u32),
    /// Strict order `O_a < O_b` between two distinct events, normalized
    /// so that `a < b` numerically (the reversed order is `Not`).
    Order(EventId, EventId),
    /// Logical negation.
    Not(TermId),
    /// N-ary conjunction (flattened, deduplicated, sorted).
    And(Vec<TermId>),
    /// N-ary disjunction (flattened, deduplicated, sorted).
    Or(Vec<TermId>),
}

/// Marks a term whose negation [`TermPool::not`] has not computed yet.
const NO_NEG: u32 = u32::MAX;

/// The interning pool for terms.
///
/// Construction requires `&mut self`; reading is `&self`, so a built
/// pool can be shared across solver threads.
///
/// Besides the nodes and their dedup index, the pool keeps a negation
/// memo: one `u32` per term, holding the id of its negation once
/// [`TermPool::not`] has computed it (and, symmetrically, the term
/// itself on its negation's slot). Guard construction negates the same
/// terms over and over (every complement check of [`TermPool::and`] and
/// [`TermPool::or`] negates each part), so after the first call `not`
/// is an array read. The memo only caches: it never interns a node the
/// constructors would not, so term ids do not depend on it.
#[derive(Debug)]
pub struct TermPool {
    nodes: Vec<Node>,
    dedup: FxHashMap<Node, TermId>,
    /// `neg[t]` is the id of `not(t)`, or [`NO_NEG`] before the first
    /// `not(t)`.
    neg: Vec<u32>,
}

impl Default for TermPool {
    fn default() -> Self {
        Self::new()
    }
}

impl TermPool {
    /// Creates a pool pre-seeded with `true` and `false`.
    pub fn new() -> Self {
        let mut pool = TermPool {
            nodes: Vec::new(),
            dedup: FxHashMap::default(),
            neg: Vec::new(),
        };
        let (tt, ff) = (pool.intern(Node::True), pool.intern(Node::False));
        pool.neg[tt.index()] = ff.0;
        pool.neg[ff.index()] = tt.0;
        pool
    }

    /// The constant `true`.
    #[inline]
    pub fn tt(&self) -> TermId {
        TermId(0)
    }

    /// The constant `false`.
    #[inline]
    pub fn ff(&self) -> TermId {
        TermId(1)
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the pool holds only the two constants.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 2
    }

    /// Approximate heap footprint of the term table in bytes (the
    /// Fig. 7b guard-memory accounting): interned nodes, their N-ary
    /// child vectors, and the dedup index. Deterministic — it depends
    /// only on which terms were interned, never on timing or threads.
    /// The negation memo (4 bytes per term) is a cache and is not
    /// counted, so the figure means what it meant before the memo.
    pub fn approx_bytes(&self) -> usize {
        let node = std::mem::size_of::<Node>();
        let child = std::mem::size_of::<TermId>();
        let children: usize = self
            .nodes
            .iter()
            .map(|n| match n {
                Node::And(xs) | Node::Or(xs) => xs.len() * child,
                _ => 0,
            })
            .sum();
        // The dedup map stores each node again plus a TermId value and
        // roughly one word of bucket overhead per entry.
        let dedup_entry = node + child + std::mem::size_of::<usize>();
        self.nodes.len() * node + 2 * children + self.dedup.len() * dedup_entry
    }

    /// The node behind a term id.
    #[inline]
    pub fn node(&self, t: TermId) -> &Node {
        &self.nodes[t.index()]
    }

    /// Interns a structurally canonical node, returning the existing id
    /// when the node is already present. Everything else goes through
    /// the simplifying constructors: interning a non-canonical node (an
    /// unsorted `And`, a `Not(Not(_))`, …) would break hash-consed
    /// equality.
    fn intern(&mut self, n: Node) -> TermId {
        match self.dedup.entry(n) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = TermId(self.nodes.len() as u32);
                self.nodes.push(e.key().clone());
                self.neg.push(NO_NEG);
                e.insert(id);
                id
            }
        }
    }

    /// A Boolean (branch) atom.
    pub fn bool_atom(&mut self, idx: u32) -> TermId {
        self.intern(Node::BoolAtom(idx))
    }

    /// The strict order `O_a < O_b`. Returns `false` when `a == b`
    /// (an event never precedes itself); reversed pairs are normalized
    /// to the negation of the flipped atom, so `order_lt(b, a)` and
    /// `not(order_lt(a, b))` are the same term — total order over
    /// distinct events, as sequential consistency prescribes (§3.1).
    pub fn order_lt(&mut self, a: EventId, b: EventId) -> TermId {
        match a.cmp(&b) {
            Ordering::Equal => self.ff(),
            Ordering::Less => self.intern(Node::Order(a, b)),
            Ordering::Greater => {
                let base = self.intern(Node::Order(b, a));
                self.not(base)
            }
        }
    }

    /// Logical negation with double-negation and constant elimination.
    /// Memoized: after the first call on a term (or on its negation)
    /// this is an array read.
    pub fn not(&mut self, t: TermId) -> TermId {
        let memo = self.neg[t.index()];
        if memo != NO_NEG {
            return TermId(memo);
        }
        let n = match self.node(t) {
            Node::Not(inner) => *inner,
            _ => self.intern(Node::Not(t)),
        };
        self.neg[t.index()] = n.0;
        self.neg[n.index()] = t.0;
        n
    }

    /// Whether a sorted part list holds some term and its negation.
    /// Negates each part in order up to the first hit, which fixes which
    /// `Not` nodes a constructor interns.
    fn has_complement(&mut self, parts: &[TermId]) -> bool {
        parts.iter().any(|&p| {
            let np = self.not(p);
            parts.binary_search(&np).is_ok()
        })
    }

    /// N-ary conjunction: flattens nested `And`s, folds constants,
    /// deduplicates, and detects complementary literal pairs.
    pub fn and(&mut self, ts: impl IntoIterator<Item = TermId>) -> TermId {
        let mut parts: Vec<TermId> = Vec::new();
        for t in ts {
            match self.node(t) {
                Node::True => {}
                Node::False => return self.ff(),
                // The parts of an `And` are never constants or `And`s.
                Node::And(inner) => parts.extend_from_slice(inner),
                _ => parts.push(t),
            }
        }
        self.and_flat(parts)
    }

    /// The rest of [`TermPool::and`] once its parts are flattened.
    fn and_flat(&mut self, mut parts: Vec<TermId>) -> TermId {
        parts.sort_unstable();
        parts.dedup();
        // Complement detection: x ∧ ¬x ⇒ false.
        if self.has_complement(&parts) {
            return self.ff();
        }
        match parts.len() {
            0 => self.tt(),
            1 => parts[0],
            _ => self.intern(Node::And(parts)),
        }
    }

    /// Binary conjunction. `true ∧ x`, `x ∧ true` and `x ∧ x` return
    /// `x` without building part lists, with the same side effect as
    /// [`TermPool::and`] on `[x]`: the complement check's one `not(x)`
    /// unless `x` is a constant or an `And` (whose parts' negations are
    /// interned already).
    pub fn and2(&mut self, a: TermId, b: TermId) -> TermId {
        let (tt, ff) = (self.tt(), self.ff());
        if a == ff || b == ff {
            return ff;
        }
        let single = if a == tt || a == b {
            b
        } else if b == tt {
            a
        } else {
            return self.and([a, b]);
        };
        if !matches!(self.node(single), Node::And(_) | Node::True) {
            self.not(single);
        }
        single
    }

    /// N-ary disjunction: dual of [`TermPool::and`].
    pub fn or(&mut self, ts: impl IntoIterator<Item = TermId>) -> TermId {
        let mut parts: Vec<TermId> = Vec::new();
        for t in ts {
            match self.node(t) {
                Node::False => {}
                Node::True => return self.tt(),
                // The parts of an `Or` are never constants or `Or`s.
                Node::Or(inner) => parts.extend_from_slice(inner),
                _ => parts.push(t),
            }
        }
        parts.sort_unstable();
        parts.dedup();
        if self.has_complement(&parts) {
            return self.tt();
        }
        // Absorption: x ∨ (x ∧ y) = x. Path-condition merges at CFG
        // joins produce this shape constantly; dropping the absorbed
        // conjunction keeps guards from growing along straight-line code.
        if parts.len() > 1 && parts.iter().any(|&p| matches!(self.node(p), Node::And(_))) {
            let plain: Vec<TermId> = parts
                .iter()
                .copied()
                .filter(|&p| !matches!(self.node(p), Node::And(_)))
                .collect();
            if !plain.is_empty() {
                parts.retain(|&p| match self.node(p) {
                    Node::And(conj) => !sorted_intersect(conj, &plain),
                    _ => true,
                });
            }
        }
        // Branch-join factoring: (x ∧ a) ∨ (x ∧ ¬a) = x — the exact
        // shape a two-armed `if` produces at its join block. Without
        // this rewrite guards grow linearly in the number of preceding
        // branches and every conjunction over them turns quadratic.
        if let [p, q] = parts[..] {
            if let (Node::And(xs), Node::And(ys)) = (self.node(p), self.node(q)) {
                if let Some((dx, dy)) = lone_difference(xs, ys) {
                    if self.not(dx) == dy {
                        let mut common = self.conjuncts_of(p);
                        common.retain(|&x| x != dx);
                        return self.and_flat(common);
                    }
                }
            }
        }
        match parts.len() {
            0 => self.ff(),
            1 => parts[0],
            _ => self.intern(Node::Or(parts)),
        }
    }

    /// Binary disjunction: dual of [`TermPool::and2`], with `false` as
    /// the identity.
    pub fn or2(&mut self, a: TermId, b: TermId) -> TermId {
        let (tt, ff) = (self.tt(), self.ff());
        if a == tt || b == tt {
            return tt;
        }
        let single = if a == ff || a == b {
            b
        } else if b == ff {
            a
        } else {
            return self.or([a, b]);
        };
        if !matches!(self.node(single), Node::Or(_) | Node::False) {
            self.not(single);
        }
        single
    }

    /// `a → b` as `¬a ∨ b`.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        let na = self.not(a);
        self.or2(na, b)
    }

    /// The top-level conjuncts of `t` as a sorted, deduplicated set of
    /// term ids: the parts of an `And` (already canonical by
    /// construction), the empty set for `true`, and the singleton `[t]`
    /// otherwise. Because terms are hash-consed, equal conjunct sets
    /// mean semantically identical conjunctions — the unit the
    /// query-family solver groups, diffs, and subsumption-checks on.
    pub fn conjuncts_of(&self, t: TermId) -> Vec<TermId> {
        match self.node(t) {
            Node::And(xs) => xs.clone(),
            Node::True => Vec::new(),
            _ => vec![t],
        }
    }

    /// Collects the atoms (bool and order) appearing under `t`.
    pub fn atoms_of(&self, t: TermId) -> AtomSet {
        let mut set = AtomSet::default();
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![t];
        while let Some(x) = stack.pop() {
            if seen[x.index()] {
                continue;
            }
            seen[x.index()] = true;
            match self.node(x) {
                Node::BoolAtom(i) => {
                    if !set.bools.contains(i) {
                        set.bools.push(*i);
                    }
                }
                Node::Order(a, b) => {
                    if !set.orders.contains(&(*a, *b)) {
                        set.orders.push((*a, *b));
                    }
                }
                Node::Not(inner) => stack.push(*inner),
                Node::And(xs) | Node::Or(xs) => stack.extend(xs.iter().copied()),
                Node::True | Node::False => {}
            }
        }
        set.bools.sort_unstable();
        set.orders.sort_unstable();
        set
    }

    /// Evaluates `t` under full atom assignments. Used by the
    /// brute-force reference solver in tests.
    pub fn eval(
        &self,
        t: TermId,
        bool_val: &dyn Fn(u32) -> bool,
        order_val: &dyn Fn(EventId, EventId) -> bool,
    ) -> bool {
        match self.node(t) {
            Node::True => true,
            Node::False => false,
            Node::BoolAtom(i) => bool_val(*i),
            Node::Order(a, b) => order_val(*a, *b),
            Node::Not(x) => !self.eval(*x, bool_val, order_val),
            Node::And(xs) => xs.iter().all(|&x| self.eval(x, bool_val, order_val)),
            Node::Or(xs) => xs.iter().any(|&x| self.eval(x, bool_val, order_val)),
        }
    }

    /// Renders a term for diagnostics and bug reports.
    pub fn render(&self, t: TermId) -> String {
        match self.node(t) {
            Node::True => "true".into(),
            Node::False => "false".into(),
            Node::BoolAtom(i) => format!("b{i}"),
            Node::Order(a, b) => format!("O{a}<O{b}"),
            Node::Not(x) => format!("!({})", self.render(*x)),
            Node::And(xs) => {
                let parts: Vec<String> = xs.iter().map(|&x| self.render(x)).collect();
                format!("({})", parts.join(" & "))
            }
            Node::Or(xs) => {
                let parts: Vec<String> = xs.iter().map(|&x| self.render(x)).collect();
                format!("({})", parts.join(" | "))
            }
        }
    }
}

/// Whether two sorted id lists share an element.
fn sorted_intersect(xs: &[TermId], ys: &[TermId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < xs.len() && j < ys.len() {
        match xs[i].cmp(&ys[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => return true,
        }
    }
    false
}

/// For two sorted id lists that differ in exactly one element each,
/// the element only `xs` has and the one only `ys` has; `None` for any
/// other difference. One merge pass, no allocation.
fn lone_difference(xs: &[TermId], ys: &[TermId]) -> Option<(TermId, TermId)> {
    if xs.len() != ys.len() {
        return None;
    }
    let (mut dx, mut dy) = (None, None);
    let (mut i, mut j) = (0, 0);
    while i < xs.len() || j < ys.len() {
        let ord = match (xs.get(i), ys.get(j)) {
            (Some(x), Some(y)) => x.cmp(y),
            (Some(_), None) => Ordering::Less,
            _ => Ordering::Greater,
        };
        match ord {
            Ordering::Equal => {
                i += 1;
                j += 1;
            }
            Ordering::Less if dx.is_none() => {
                dx = Some(xs[i]);
                i += 1;
            }
            Ordering::Greater if dy.is_none() => {
                dy = Some(ys[j]);
                j += 1;
            }
            _ => return None,
        }
    }
    Some((dx?, dy?))
}

/// The atoms occurring in a term.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AtomSet {
    /// Boolean atom indices, sorted.
    pub bools: Vec<u32>,
    /// Normalized order atoms `(a, b)` with `a < b`, sorted.
    pub orders: Vec<(EventId, EventId)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_fixed_ids() {
        let p = TermPool::new();
        assert_eq!(p.tt(), TermId(0));
        assert_eq!(p.ff(), TermId(1));
    }

    #[test]
    fn hash_consing_dedups() {
        let mut p = TermPool::new();
        let a = p.bool_atom(3);
        let b = p.bool_atom(3);
        assert_eq!(a, b);
        let c1 = p.and2(a, p.tt());
        assert_eq!(c1, a);
    }

    #[test]
    fn and_folds_constants_and_complements() {
        let mut p = TermPool::new();
        let a = p.bool_atom(0);
        let na = p.not(a);
        assert_eq!(p.and2(a, na), p.ff());
        assert_eq!(p.and2(a, p.ff()), p.ff());
        assert_eq!(p.and([]), p.tt());
        assert_eq!(p.and([a]), a);
    }

    #[test]
    fn or_folds_constants_and_complements() {
        let mut p = TermPool::new();
        let a = p.bool_atom(0);
        let na = p.not(a);
        assert_eq!(p.or2(a, na), p.tt());
        assert_eq!(p.or2(a, p.tt()), p.tt());
        assert_eq!(p.or([]), p.ff());
    }

    #[test]
    fn and_flattens_nested() {
        let mut p = TermPool::new();
        let a = p.bool_atom(0);
        let b = p.bool_atom(1);
        let c = p.bool_atom(2);
        let ab = p.and2(a, b);
        let abc1 = p.and2(ab, c);
        let abc2 = p.and([a, b, c]);
        assert_eq!(abc1, abc2);
    }

    #[test]
    fn order_normalization() {
        let mut p = TermPool::new();
        let ab = p.order_lt(1, 2);
        let ba = p.order_lt(2, 1);
        assert_eq!(p.not(ab), ba);
        assert_eq!(p.not(ba), ab);
        assert_eq!(p.order_lt(5, 5), p.ff());
    }

    #[test]
    fn double_negation_cancels() {
        let mut p = TermPool::new();
        let a = p.bool_atom(0);
        let na = p.not(a);
        assert_eq!(p.not(na), a);
    }

    #[test]
    fn atoms_of_collects_both_kinds() {
        let mut p = TermPool::new();
        let a = p.bool_atom(7);
        let o = p.order_lt(1, 2);
        let no = p.not(o);
        let t = p.and2(a, no);
        let atoms = p.atoms_of(t);
        assert_eq!(atoms.bools, vec![7]);
        assert_eq!(atoms.orders, vec![(1, 2)]);
    }

    #[test]
    fn eval_respects_structure() {
        let mut p = TermPool::new();
        let a = p.bool_atom(0);
        let o = p.order_lt(1, 2);
        let t = p.and2(a, o);
        assert!(p.eval(t, &|_| true, &|_, _| true));
        assert!(!p.eval(t, &|_| false, &|_, _| true));
        let nt = p.not(t);
        assert!(p.eval(nt, &|_| false, &|_, _| true));
    }

    #[test]
    fn render_is_readable() {
        let mut p = TermPool::new();
        let a = p.bool_atom(0);
        let o = p.order_lt(3, 4);
        let t = p.and2(a, o);
        let s = p.render(t);
        assert!(s.contains("b0"));
        assert!(s.contains("O3<O4"));
    }
}
