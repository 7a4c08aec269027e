//! Small-step navigation helpers over a bounded program's CFGs.
//!
//! The static analyses walk the IR declaratively; the concrete
//! schedule-replay oracle (`canary-oracle`) instead *executes* it, one
//! labeled instruction at a time. This module provides the shared
//! notion of an execution position — a [`Cursor`] into one function's
//! block structure — and the [`StepPoint`] sum describing what the
//! cursor faces next: a labeled instruction or a block terminator.
//!
//! Bounded programs have acyclic CFGs (§3.1), so any cursor advanced
//! repeatedly reaches `Exit` in finitely many steps; the interpreter
//! relies on that for termination without step counting.

use crate::ids::{BlockId, FuncId, Label};
use crate::inst::{Inst, Terminator};
use crate::program::Program;

/// An execution position inside one function: the next thing to execute
/// is `blocks[block].stmts[stmt]`, or the block terminator once `stmt`
/// runs past the end.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Cursor {
    /// The function being executed.
    pub func: FuncId,
    /// The current basic block.
    pub block: BlockId,
    /// Index of the next statement within the block.
    pub stmt: usize,
}

/// What a [`Cursor`] is about to execute.
#[derive(Copy, Clone, Debug)]
pub enum StepPoint<'p> {
    /// A labeled instruction.
    Inst(Label, &'p Inst),
    /// The current block's terminator (all statements consumed).
    Term(&'p Terminator),
}

impl Cursor {
    /// A cursor at the entry of `f`.
    pub fn entry(prog: &Program, f: FuncId) -> Cursor {
        Cursor {
            func: f,
            block: prog.func(f).entry,
            stmt: 0,
        }
    }

    /// The instruction or terminator the cursor faces.
    pub fn point<'p>(&self, prog: &'p Program) -> StepPoint<'p> {
        let blk = prog.func(self.func).block(self.block);
        match blk.stmts.get(self.stmt) {
            Some(&l) => StepPoint::Inst(l, prog.inst(l)),
            None => StepPoint::Term(&blk.term),
        }
    }

    /// Advances past the current statement (no effect on block choice).
    pub fn advance(&mut self) {
        self.stmt += 1;
    }

    /// Jumps to the start of another block of the same function.
    pub fn jump(&mut self, blk: BlockId) {
        self.block = blk;
        self.stmt = 0;
    }
}

/// Whether `target` is executable from the start of block `from` in
/// `func` — i.e. some intra-procedural CFG path from `from` contains
/// the statement labeled `target`.
///
/// The replay oracle uses this to steer branches whose atom the SMT
/// model left unconstrained: when the thread's next scheduled label
/// lives in only one arm, that arm must be taken.
pub fn block_reaches(prog: &Program, func: FuncId, from: BlockId, target: Label) -> bool {
    if prog.func_of(target) != func {
        return false;
    }
    let f = prog.func(func);
    let mut seen = vec![false; f.blocks.len()];
    let mut stack = vec![from];
    seen[from.index()] = true;
    while let Some(b) = stack.pop() {
        let blk = f.block(b);
        if blk.stmts.contains(&target) {
            return true;
        }
        for succ in blk.term.successors() {
            if !seen[succ.index()] {
                seen[succ.index()] = true;
                stack.push(succ);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::CondExpr;

    fn branchy() -> (Program, Label, Label) {
        let mut b = ProgramBuilder::new();
        let main = b.func("main", &[]);
        let c = b.cond("c");
        let mut then_l = None;
        let mut else_l = None;
        {
            let mut f = b.body(main);
            let p = f.alloc("p", "o");
            f.if_else(
                CondExpr::atom(c),
                |f| then_l = Some(f.free(p)),
                |f| else_l = Some(f.deref(p)),
            );
            f.nop();
        }
        b.set_entry(main);
        (b.finish(), then_l.unwrap(), else_l.unwrap())
    }

    #[test]
    fn cursor_walks_straight_line() {
        let prog = crate::parse("fn main() { p = alloc o; free p; }").unwrap();
        let main = prog.entry.unwrap();
        let mut cur = Cursor::entry(&prog, main);
        let StepPoint::Inst(l0, _) = cur.point(&prog) else {
            panic!("expected inst");
        };
        assert_eq!(l0, Label::new(0));
        cur.advance();
        let StepPoint::Inst(l1, _) = cur.point(&prog) else {
            panic!("expected inst");
        };
        assert_eq!(l1, Label::new(1));
        cur.advance();
        assert!(matches!(
            cur.point(&prog),
            StepPoint::Term(Terminator::Exit)
        ));
    }

    #[test]
    fn cursor_jump_enters_branch_arm() {
        let (prog, then_l, _) = branchy();
        let main = prog.entry.unwrap();
        let mut cur = Cursor::entry(&prog, main);
        cur.advance(); // past the alloc
        let StepPoint::Term(Terminator::Branch { then_blk, .. }) = cur.point(&prog) else {
            panic!("expected branch");
        };
        let tb = *then_blk;
        cur.jump(tb);
        let StepPoint::Inst(l, _) = cur.point(&prog) else {
            panic!("expected inst");
        };
        assert_eq!(l, then_l);
    }

    #[test]
    fn block_reaches_distinguishes_arms() {
        let (prog, then_l, else_l) = branchy();
        let main = prog.entry.unwrap();
        let f = prog.func(main);
        let Terminator::Branch {
            then_blk, else_blk, ..
        } = f.block(f.entry).term
        else {
            panic!("expected branch");
        };
        assert!(block_reaches(&prog, main, then_blk, then_l));
        assert!(!block_reaches(&prog, main, then_blk, else_l));
        assert!(block_reaches(&prog, main, else_blk, else_l));
        // Both arms reach the join and anything after it.
        assert!(block_reaches(&prog, main, f.entry, then_l));
    }

    #[test]
    fn block_reaches_rejects_other_functions() {
        let prog =
            crate::parse("fn main() { fork t w(); } fn w() { p = alloc o; free p; }").unwrap();
        let main = prog.entry.unwrap();
        let free = prog.free_sites()[0];
        assert!(!block_reaches(&prog, main, prog.func(main).entry, free));
    }
}
