//! Functions and basic blocks.
//!
//! A [`Function`] owns a control-flow graph of [`BasicBlock`]s; the
//! statements themselves live in the program-wide statement table (keyed
//! by [`Label`]) so that labels are globally unique, as the paper's
//! formalization assumes (`ℓ ∈ L`).

use serde::{Deserialize, Serialize};

use crate::ids::{BlockId, FuncId, Label, VarId};
use crate::inst::Terminator;

/// A basic block: a straight-line sequence of statement labels ended by a
/// [`Terminator`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BasicBlock {
    /// Labels of the statements in this block, in execution order.
    pub stmts: Vec<Label>,
    /// The block terminator.
    pub term: Terminator,
}

impl BasicBlock {
    /// An empty block falling through to `Exit`; builders overwrite the
    /// terminator as the block is completed.
    pub fn new() -> Self {
        BasicBlock {
            stmts: Vec::new(),
            term: Terminator::Exit,
        }
    }
}

impl Default for BasicBlock {
    fn default() -> Self {
        Self::new()
    }
}

/// A function `F := func(v1, …, vn) { S*; }` of Fig. 3.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Function {
    /// This function's id in the program function table.
    pub id: FuncId,
    /// Source-level name.
    pub name: String,
    /// Formal parameters (top-level variables).
    pub params: Vec<VarId>,
    /// Basic blocks; `blocks[entry.index()]` is the entry block.
    pub blocks: Vec<BasicBlock>,
    /// The entry block.
    pub entry: BlockId,
}

impl Function {
    /// Returns the block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not a block of this function.
    pub fn block(&self, b: BlockId) -> &BasicBlock {
        &self.blocks[b.index()]
    }

    /// All statement labels of this function, in block order.
    pub fn labels(&self) -> impl Iterator<Item = Label> + '_ {
        self.blocks.iter().flat_map(|b| b.stmts.iter().copied())
    }

    /// Number of statements in this function.
    pub fn stmt_count(&self) -> usize {
        self.blocks.iter().map(|b| b.stmts.len()).sum()
    }

    /// Blocks in reverse post-order from the entry, the iteration order
    /// Alg. 1 uses for its flow-sensitive pass.
    pub fn reverse_post_order(&self) -> Vec<BlockId> {
        let n = self.blocks.len();
        let mut visited = vec![false; n];
        let mut post = Vec::with_capacity(n);
        // Iterative DFS computing post-order.
        let mut stack: Vec<(BlockId, usize)> = vec![(self.entry, 0)];
        visited[self.entry.index()] = true;
        while let Some((blk, succ_idx)) = stack.pop() {
            let succs = self.blocks[blk.index()].term.successors();
            if succ_idx < succs.len() {
                stack.push((blk, succ_idx + 1));
                let next = succs[succ_idx];
                if !visited[next.index()] {
                    visited[next.index()] = true;
                    stack.push((next, 0));
                }
            } else {
                post.push(blk);
            }
        }
        post.reverse();
        post
    }

    /// Predecessor table: `preds[b]` lists the blocks that branch to `b`.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (i, blk) in self.blocks.iter().enumerate() {
            for succ in blk.term.successors() {
                preds[succ.index()].push(BlockId::new(i as u32));
            }
        }
        preds
    }

    /// Whether the control-flow graph is acyclic.
    ///
    /// Bounded programs (§3.1) have their loops unrolled, so every CFG is
    /// expected to be a DAG; the analyses rely on this to treat
    /// intra-thread may-reachability as a strict partial order.
    pub fn is_acyclic(&self) -> bool {
        // DFS with colors: 0 = white, 1 = gray, 2 = black.
        let n = self.blocks.len();
        let mut color = vec![0u8; n];
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for start in 0..n {
            if color[start] != 0 {
                continue;
            }
            color[start] = 1;
            stack.push((start, 0));
            while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
                let succs = self.blocks[node].term.successors();
                if *idx < succs.len() {
                    let next = succs[*idx].index();
                    *idx += 1;
                    match color[next] {
                        0 => {
                            color[next] = 1;
                            stack.push((next, 0));
                        }
                        1 => return false,
                        _ => {}
                    }
                } else {
                    color[node] = 2;
                    stack.pop();
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{CondExpr, Terminator};

    fn diamond() -> Function {
        // b0 -> b1, b2; b1 -> b3; b2 -> b3; b3 -> exit
        Function {
            id: FuncId::new(0),
            name: "diamond".into(),
            params: vec![],
            entry: BlockId::new(0),
            blocks: vec![
                BasicBlock {
                    stmts: vec![Label::new(0)],
                    term: Terminator::Branch {
                        cond: CondExpr::True,
                        then_blk: BlockId::new(1),
                        else_blk: BlockId::new(2),
                    },
                },
                BasicBlock {
                    stmts: vec![Label::new(1)],
                    term: Terminator::Goto(BlockId::new(3)),
                },
                BasicBlock {
                    stmts: vec![Label::new(2)],
                    term: Terminator::Goto(BlockId::new(3)),
                },
                BasicBlock {
                    stmts: vec![Label::new(3)],
                    term: Terminator::Exit,
                },
            ],
        }
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable_blocks() {
        let f = diamond();
        let rpo = f.reverse_post_order();
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], BlockId::new(0));
        assert_eq!(*rpo.last().unwrap(), BlockId::new(3));
    }

    #[test]
    fn rpo_visits_predecessors_before_join() {
        let f = diamond();
        let rpo = f.reverse_post_order();
        let pos = |b: BlockId| rpo.iter().position(|&x| x == b).unwrap();
        assert!(pos(BlockId::new(1)) < pos(BlockId::new(3)));
        assert!(pos(BlockId::new(2)) < pos(BlockId::new(3)));
    }

    #[test]
    fn predecessor_table() {
        let f = diamond();
        let preds = f.predecessors();
        assert_eq!(preds[3].len(), 2);
        assert!(preds[0].is_empty());
    }

    #[test]
    fn diamond_is_acyclic() {
        assert!(diamond().is_acyclic());
    }

    #[test]
    fn self_loop_detected_as_cyclic() {
        let mut f = diamond();
        f.blocks[3].term = Terminator::Goto(BlockId::new(0));
        assert!(!f.is_acyclic());
    }

    #[test]
    fn stmt_count_sums_blocks() {
        assert_eq!(diamond().stmt_count(), 4);
        assert_eq!(diamond().labels().count(), 4);
    }
}
