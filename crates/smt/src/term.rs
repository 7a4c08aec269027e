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

use std::collections::HashMap;
use std::fmt;

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

/// The interning pool for terms.
///
/// Construction requires `&mut self`; reading is `&self`, so a built
/// pool can be shared across solver threads.
#[derive(Debug)]
pub struct TermPool {
    nodes: Vec<Node>,
    dedup: HashMap<Node, TermId>,
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
            dedup: HashMap::new(),
        };
        pool.intern(Node::True);
        pool.intern(Node::False);
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
        if let Some(&id) = self.dedup.get(&n) {
            return id;
        }
        let id = TermId(self.nodes.len() as u32);
        self.nodes.push(n.clone());
        self.dedup.insert(n, id);
        id
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
        use std::cmp::Ordering;
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
    pub fn not(&mut self, t: TermId) -> TermId {
        match self.node(t) {
            Node::True => self.ff(),
            Node::False => self.tt(),
            Node::Not(inner) => *inner,
            _ => self.intern(Node::Not(t)),
        }
    }

    /// N-ary conjunction: flattens nested `And`s, folds constants,
    /// deduplicates, and detects complementary literal pairs.
    pub fn and(&mut self, ts: impl IntoIterator<Item = TermId>) -> TermId {
        let mut parts: Vec<TermId> = Vec::new();
        let mut stack: Vec<TermId> = ts.into_iter().collect();
        stack.reverse();
        while let Some(t) = stack.pop() {
            match self.node(t) {
                Node::True => {}
                Node::False => return self.ff(),
                Node::And(inner) => {
                    let mut inner = inner.clone();
                    inner.reverse();
                    stack.extend(inner);
                }
                _ => parts.push(t),
            }
        }
        parts.sort_unstable();
        parts.dedup();
        // Complement detection: x ∧ ¬x ⇒ false.
        for &p in &parts {
            let np = self.not(p);
            if parts.binary_search(&np).is_ok() {
                return self.ff();
            }
        }
        match parts.len() {
            0 => self.tt(),
            1 => parts[0],
            _ => self.intern(Node::And(parts)),
        }
    }

    /// Binary conjunction convenience.
    pub fn and2(&mut self, a: TermId, b: TermId) -> TermId {
        self.and([a, b])
    }

    /// N-ary disjunction: dual of [`TermPool::and`].
    pub fn or(&mut self, ts: impl IntoIterator<Item = TermId>) -> TermId {
        let mut parts: Vec<TermId> = Vec::new();
        let mut stack: Vec<TermId> = ts.into_iter().collect();
        stack.reverse();
        while let Some(t) = stack.pop() {
            match self.node(t) {
                Node::False => {}
                Node::True => return self.tt(),
                Node::Or(inner) => {
                    let mut inner = inner.clone();
                    inner.reverse();
                    stack.extend(inner);
                }
                _ => parts.push(t),
            }
        }
        parts.sort_unstable();
        parts.dedup();
        for &p in &parts {
            let np = self.not(p);
            if parts.binary_search(&np).is_ok() {
                return self.tt();
            }
        }
        // Absorption: x ∨ (x ∧ y) = x. Path-condition merges at CFG
        // joins produce this shape constantly; dropping the absorbed
        // conjunction keeps guards from growing along straight-line code.
        if parts.len() > 1 {
            let plain: Vec<TermId> = parts
                .iter()
                .copied()
                .filter(|&p| !matches!(self.node(p), Node::And(_)))
                .collect();
            if !plain.is_empty() {
                parts.retain(|&p| match self.node(p) {
                    Node::And(conj) => !conj.iter().any(|c| plain.contains(c)),
                    _ => true,
                });
            }
        }
        // Branch-join factoring: (x ∧ a) ∨ (x ∧ ¬a) = x — the exact
        // shape a two-armed `if` produces at its join block. Without
        // this rewrite guards grow linearly in the number of preceding
        // branches and every conjunction over them turns quadratic.
        if parts.len() == 2 {
            if let (Node::And(xs), Node::And(ys)) =
                (self.node(parts[0]).clone(), self.node(parts[1]).clone())
            {
                let common: Vec<TermId> =
                    xs.iter().copied().filter(|x| ys.contains(x)).collect();
                let dx: Vec<TermId> =
                    xs.iter().copied().filter(|x| !common.contains(x)).collect();
                let dy: Vec<TermId> =
                    ys.iter().copied().filter(|y| !common.contains(y)).collect();
                if dx.len() == 1 && dy.len() == 1 && self.not(dx[0]) == dy[0] {
                    return self.and(common);
                }
            }
        }
        match parts.len() {
            0 => self.ff(),
            1 => parts[0],
            _ => self.intern(Node::Or(parts)),
        }
    }

    /// Binary disjunction convenience.
    pub fn or2(&mut self, a: TermId, b: TermId) -> TermId {
        self.or([a, b])
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
