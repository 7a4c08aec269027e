//! Pins every term id: [`TermPool`]'s constructors must intern exactly
//! the nodes the reference constructors below intern, in the same
//! order. Term ids fix the audit's conjunct ids, the CNF variable order
//! and with it every solver counter, so a constructor that interned one
//! node more or fewer (or in another order) would move outputs that
//! `golden_outputs` pins.
//!
//! `RefPool` is the plain implementation: no negation memo, no fast
//! paths in `and2` and `or2`, stack-based flattening, and `Vec::contains`
//! lookups in absorption and branch-join factoring.

use std::collections::HashMap;

use proptest::prelude::*;

use canary_smt::{EventId, Node, TermId, TermPool};

struct RefPool {
    nodes: Vec<Node>,
    dedup: HashMap<Node, TermId>,
}

impl RefPool {
    fn new() -> Self {
        let mut pool = RefPool {
            nodes: Vec::new(),
            dedup: HashMap::new(),
        };
        pool.intern(Node::True);
        pool.intern(Node::False);
        pool
    }

    fn tt(&self) -> TermId {
        TermId(0)
    }

    fn ff(&self) -> TermId {
        TermId(1)
    }

    fn node(&self, t: TermId) -> &Node {
        &self.nodes[t.index()]
    }

    fn intern(&mut self, n: Node) -> TermId {
        if let Some(&id) = self.dedup.get(&n) {
            return id;
        }
        let id = TermId(self.nodes.len() as u32);
        self.nodes.push(n.clone());
        self.dedup.insert(n, id);
        id
    }

    fn bool_atom(&mut self, idx: u32) -> TermId {
        self.intern(Node::BoolAtom(idx))
    }

    fn order_lt(&mut self, a: EventId, b: EventId) -> TermId {
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

    fn not(&mut self, t: TermId) -> TermId {
        match self.node(t) {
            Node::True => self.ff(),
            Node::False => self.tt(),
            Node::Not(inner) => *inner,
            _ => self.intern(Node::Not(t)),
        }
    }

    fn and(&mut self, ts: impl IntoIterator<Item = TermId>) -> TermId {
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

    fn and2(&mut self, a: TermId, b: TermId) -> TermId {
        self.and([a, b])
    }

    fn or(&mut self, ts: impl IntoIterator<Item = TermId>) -> TermId {
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
        if parts.len() == 2 {
            if let (Node::And(xs), Node::And(ys)) =
                (self.node(parts[0]).clone(), self.node(parts[1]).clone())
            {
                let common: Vec<TermId> = xs.iter().copied().filter(|x| ys.contains(x)).collect();
                let dx: Vec<TermId> = xs.iter().copied().filter(|x| !common.contains(x)).collect();
                let dy: Vec<TermId> = ys.iter().copied().filter(|y| !common.contains(y)).collect();
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

    fn or2(&mut self, a: TermId, b: TermId) -> TermId {
        self.or([a, b])
    }

    fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        let na = self.not(a);
        self.or2(na, b)
    }
}

/// One constructor call. Operands index the results so far (taken
/// modulo their number); the results start as `[true, false]`, so
/// operands 0 and 1 are the constants.
#[derive(Clone, Debug)]
enum Op {
    Bool(u32),
    Order(u32, u32),
    Not(usize),
    And2(usize, usize),
    Or2(usize, usize),
    And(Vec<usize>),
    Or(Vec<usize>),
    Implies(usize, usize),
    /// `or2(and2(x, a), and2(x, ¬a))`: the guard of a two-armed `if`'s
    /// join block.
    Join(usize, usize),
}

fn operand() -> impl Strategy<Value = usize> {
    // Half the picks are constants, so the identity and absorbing
    // cases of `and2` and `or2` come up often.
    prop_oneof![Just(0usize), Just(1usize), 0usize..4096, 0usize..4096]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..6).prop_map(Op::Bool),
        (0u32..4, 0u32..4).prop_map(|(a, b)| Op::Order(a, b)),
        operand().prop_map(Op::Not),
        (operand(), operand()).prop_map(|(a, b)| Op::And2(a, b)),
        operand().prop_map(|a| Op::And2(a, a)),
        (operand(), operand()).prop_map(|(a, b)| Op::Or2(a, b)),
        operand().prop_map(|a| Op::Or2(a, a)),
        prop::collection::vec(operand(), 1..6).prop_map(Op::And),
        prop::collection::vec(operand(), 1..6).prop_map(Op::Or),
        (operand(), operand()).prop_map(|(a, b)| Op::Implies(a, b)),
        (operand(), operand()).prop_map(|(x, a)| Op::Join(x, a)),
    ]
}

/// Applies `op` to one pool through the constructors both pools share.
macro_rules! apply {
    ($pool:expr, $results:expr, $op:expr) => {{
        let pool = &mut $pool;
        let pick = |i: &usize| $results[*i % $results.len()];
        match $op {
            Op::Bool(i) => pool.bool_atom(*i),
            Op::Order(a, b) => pool.order_lt(*a, *b),
            Op::Not(x) => pool.not(pick(x)),
            Op::And2(a, b) => pool.and2(pick(a), pick(b)),
            Op::Or2(a, b) => pool.or2(pick(a), pick(b)),
            Op::And(xs) => pool.and(xs.iter().map(pick).collect::<Vec<_>>()),
            Op::Or(xs) => pool.or(xs.iter().map(pick).collect::<Vec<_>>()),
            Op::Implies(a, b) => pool.implies(pick(a), pick(b)),
            Op::Join(x, a) => {
                let (x, a) = (pick(x), pick(a));
                let taken = pool.and2(x, a);
                let na = pool.not(a);
                let not_taken = pool.and2(x, na);
                pool.or2(taken, not_taken)
            }
        }
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn constructors_intern_the_reference_ids(script in prop::collection::vec(op(), 1..80)) {
        let mut pool = TermPool::new();
        let mut reference = RefPool::new();
        let mut results = vec![pool.tt(), pool.ff()];
        for (step, op) in script.iter().enumerate() {
            let got = apply!(pool, results, op);
            let want = apply!(reference, results, op);
            prop_assert_eq!(got, want, "step {} ({:?})", step, op);
            prop_assert_eq!(pool.len(), reference.nodes.len(), "pool size after step {} ({:?})", step, op);
            results.push(got);
        }
        for (i, want) in reference.nodes.iter().enumerate() {
            prop_assert_eq!(pool.node(TermId(i as u32)), want, "node {}", i);
        }
    }
}

/// A nest of `if`s: each level conjoins one more atom, and each join
/// factors back to the enclosing guard, through `and2`/`or2` exactly
/// as path conditions build them.
#[test]
fn nested_branch_joins_intern_the_reference_ids() {
    let mut pool = TermPool::new();
    let mut reference = RefPool::new();
    let (mut g, mut rg) = (pool.tt(), reference.tt());
    for i in 0..64 {
        let (a, ra) = (pool.bool_atom(i), reference.bool_atom(i));
        let (na, rna) = (pool.not(a), reference.not(ra));
        let (t, rt) = (pool.and2(g, a), reference.and2(rg, ra));
        let (e, re) = (pool.and2(g, na), reference.and2(rg, rna));
        let (ff, rff) = (pool.ff(), reference.ff());
        let (t, rt) = (pool.or2(ff, t), reference.or2(rff, rt));
        let (e, re) = (pool.or2(ff, e), reference.or2(rff, re));
        let (j, rj) = (pool.or2(t, e), reference.or2(rt, re));
        assert_eq!((t, e, j), (rt, re, rj), "level {i}");
        assert_eq!(j, g, "the join factors back to the enclosing guard");
        g = t;
        rg = rt;
    }
    assert_eq!(pool.len(), reference.nodes.len());
}
