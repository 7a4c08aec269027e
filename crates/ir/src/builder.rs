//! A programmatic builder for [`Program`]s.
//!
//! The builder interns variables per function, objects / condition atoms /
//! threads per program, and offers structured `if`/`else` so client code
//! (tests, examples, the workload generator) never manipulates raw block
//! ids. The textual front end in [`crate::parser`] lowers onto this API.
//!
//! # Examples
//!
//! Building the Fig. 2 program of the paper:
//!
//! ```
//! use canary_ir::{CondExpr, ProgramBuilder};
//!
//! let mut b = ProgramBuilder::new();
//! let main = b.func("main", &["a"]);
//! let thread1 = b.func("thread1", &["y"]);
//! let theta = b.cond("theta1");
//! {
//!     let mut f = b.body(main);
//!     let a = f.var("a");
//!     let x = f.alloc("x", "o1");
//!     f.store(x, a);
//!     f.fork("t", "thread1", &[x]);
//!     f.if_then(CondExpr::atom(theta), |f| {
//!         let c = f.load("c", x);
//!         f.deref(c);
//!     });
//! }
//! {
//!     let mut f = b.body(thread1);
//!     let y = f.var("y");
//!     let bv = f.alloc("b", "o2");
//!     f.if_then(CondExpr::not_atom(theta), |f| {
//!         f.store(y, bv);
//!         f.free(bv);
//!     });
//! }
//! b.set_entry(main);
//! let prog = b.finish();
//! prog.validate()?;
//! # Ok::<(), canary_ir::ValidationError>(())
//! ```

use std::collections::HashMap;

use crate::ids::{BlockId, CondId, FuncId, Label, ObjId, ThreadId, VarId, MAIN_THREAD};
use crate::inst::{BinOp, Callee, CondExpr, Inst, Terminator, UnOp};
use crate::program::{ObjInfo, Program, Stmt, ThreadInfo, VarInfo};
use crate::{BasicBlock, Function};

/// Builds a [`Program`] incrementally.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    prog: Program,
    var_names: HashMap<(FuncId, String), VarId>,
    obj_names: HashMap<String, ObjId>,
    cond_names: HashMap<String, CondId>,
    thread_names: HashMap<String, ThreadId>,
    aux_counter: u32,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder {
            prog: Program::new(),
            var_names: HashMap::new(),
            obj_names: HashMap::new(),
            cond_names: HashMap::new(),
            thread_names: HashMap::new(),
            aux_counter: 0,
        }
    }

    /// Declares a function with named parameters and returns its id.
    /// The function body starts as a single empty entry block.
    pub fn func(&mut self, name: &str, params: &[&str]) -> FuncId {
        let id = FuncId::new(self.prog.funcs.len() as u32);
        let mut func = Function {
            id,
            name: name.to_string(),
            params: Vec::new(),
            blocks: vec![BasicBlock::new()],
            entry: BlockId::new(0),
        };
        self.prog.funcs.push(func.clone());
        for p in params {
            let v = self.intern_var(id, p);
            func.params.push(v);
        }
        self.prog.funcs[id.index()].params = func.params;
        id
    }

    /// Positions a statement cursor at the end of `f`'s entry block.
    pub fn body(&mut self, f: FuncId) -> FuncBody<'_> {
        let cur = self.prog.funcs[f.index()].entry;
        FuncBody {
            b: self,
            func: f,
            cur,
        }
    }

    /// Declares (or returns) the condition atom with the given name.
    pub fn cond(&mut self, name: &str) -> CondId {
        if let Some(&c) = self.cond_names.get(name) {
            return c;
        }
        let c = CondId::new(self.prog.conds.len() as u32);
        self.prog.conds.push(name.to_string());
        self.cond_names.insert(name.to_string(), c);
        c
    }

    /// Sets the program entry function.
    pub fn set_entry(&mut self, f: FuncId) {
        self.prog.entry = Some(f);
        self.prog.threads[MAIN_THREAD.index()].entry = Some(Callee::Direct(f));
    }

    /// Finishes the build and returns the program.
    pub fn finish(self) -> Program {
        self.prog
    }

    /// Direct access to the program under construction.
    pub fn program(&self) -> &Program {
        &self.prog
    }

    fn intern_var(&mut self, func: FuncId, name: &str) -> VarId {
        if let Some(&v) = self.var_names.get(&(func, name.to_string())) {
            return v;
        }
        let v = VarId::new(self.prog.vars.len() as u32);
        self.prog.vars.push(VarInfo {
            name: name.to_string(),
            func: Some(func),
        });
        self.var_names.insert((func, name.to_string()), v);
        v
    }

    fn intern_obj(&mut self, name: &str) -> ObjId {
        if let Some(&o) = self.obj_names.get(name) {
            return o;
        }
        let o = ObjId::new(self.prog.objs.len() as u32);
        self.prog.objs.push(ObjInfo {
            name: name.to_string(),
            alloc_site: None,
        });
        self.obj_names.insert(name.to_string(), o);
        o
    }

    fn intern_thread(&mut self, name: &str) -> ThreadId {
        if let Some(&t) = self.thread_names.get(name) {
            return t;
        }
        let t = ThreadId::new(self.prog.threads.len() as u32);
        self.prog.threads.push(ThreadInfo {
            name: name.to_string(),
            fork_site: None,
            join_site: None,
            parent: MAIN_THREAD,
            entry: None,
        });
        self.thread_names.insert(name.to_string(), t);
        t
    }

    /// A fresh auxiliary variable name, for lowering passes that must
    /// introduce temporaries (§3.1 nested-dereference elimination).
    pub fn fresh_aux(&mut self) -> String {
        self.aux_counter += 1;
        format!("%aux{}", self.aux_counter)
    }
}

/// A statement cursor into one function of a [`ProgramBuilder`].
#[derive(Debug)]
pub struct FuncBody<'a> {
    b: &'a mut ProgramBuilder,
    func: FuncId,
    cur: BlockId,
}

impl FuncBody<'_> {
    /// The function being built.
    pub fn func_id(&self) -> FuncId {
        self.func
    }

    /// Read access to the program under construction (for name lookups).
    pub fn program(&self) -> &Program {
        &self.b.prog
    }

    /// Interns (or looks up) a variable in this function's scope.
    pub fn var(&mut self, name: &str) -> VarId {
        self.b.intern_var(self.func, name)
    }

    /// Declares (or returns) a condition atom. Atoms are program-global so
    /// branches in different threads can test the same `θ`.
    pub fn cond(&mut self, name: &str) -> CondId {
        self.b.cond(name)
    }

    fn push(&mut self, inst: Inst) -> Label {
        let l = Label::new(self.b.prog.stmts.len() as u32);
        self.b.prog.stmts.push(Stmt {
            inst,
            func: self.func,
            block: self.cur,
        });
        self.b.prog.funcs[self.func.index()].blocks[self.cur.index()]
            .stmts
            .push(l);
        l
    }

    /// The label of the most recently emitted instruction. Useful when a
    /// caller needs the label of a statement whose emitter returns a
    /// [`VarId`] (loads, stores, null/taint assignments).
    ///
    /// # Panics
    ///
    /// Panics if no instruction has been emitted yet.
    pub fn last_label(&self) -> Label {
        assert!(
            !self.b.prog.stmts.is_empty(),
            "last_label before any instruction"
        );
        Label::new(self.b.prog.stmts.len() as u32 - 1)
    }

    fn new_block(&mut self) -> BlockId {
        let f = &mut self.b.prog.funcs[self.func.index()];
        let id = BlockId::new(f.blocks.len() as u32);
        f.blocks.push(BasicBlock::new());
        id
    }

    fn set_term(&mut self, blk: BlockId, term: Terminator) {
        self.b.prog.funcs[self.func.index()].blocks[blk.index()].term = term;
    }

    /// `dst = alloc_obj`.
    pub fn alloc(&mut self, dst: &str, obj: &str) -> VarId {
        let d = self.var(dst);
        let o = self.b.intern_obj(obj);
        let l = self.push(Inst::Alloc { dst: d, obj: o });
        if self.b.prog.objs[o.index()].alloc_site.is_none() {
            self.b.prog.objs[o.index()].alloc_site = Some(l);
        }
        d
    }

    /// `dst = &func` — function-pointer creation.
    pub fn fn_addr(&mut self, dst: &str, func: FuncId) -> VarId {
        let d = self.var(dst);
        self.push(Inst::FuncAddr { dst: d, func });
        d
    }

    /// `dst = src` with a fresh destination name.
    pub fn copy(&mut self, dst: &str, src: VarId) -> VarId {
        let d = self.var(dst);
        self.push(Inst::Copy { dst: d, src });
        d
    }

    /// `dst = src` onto an existing variable (no SSA freshness check;
    /// validation will reject double definitions).
    pub fn copy_into(&mut self, dst: VarId, src: VarId) {
        self.push(Inst::Copy { dst, src });
    }

    /// `dst = *addr`.
    pub fn load(&mut self, dst: &str, addr: VarId) -> VarId {
        let d = self.var(dst);
        self.push(Inst::Load { dst: d, addr });
        d
    }

    /// `*addr = src`.
    pub fn store(&mut self, addr: VarId, src: VarId) {
        self.push(Inst::Store { addr, src });
    }

    /// `dst = lhs op rhs`.
    pub fn bin(&mut self, dst: &str, op: BinOp, lhs: VarId, rhs: VarId) -> VarId {
        let d = self.var(dst);
        self.push(Inst::Bin {
            dst: d,
            op,
            lhs,
            rhs,
        });
        d
    }

    /// `dst = op src`.
    pub fn un(&mut self, dst: &str, op: UnOp, src: VarId) -> VarId {
        let d = self.var(dst);
        self.push(Inst::Un { dst: d, op, src });
        d
    }

    /// `(dsts) = call name(args)` by function name (resolved at finish
    /// time by name; unknown names become indirect via a fresh variable).
    pub fn call(&mut self, dsts: &[&str], callee: &str, args: &[VarId]) -> Vec<VarId> {
        let ds: Vec<VarId> = dsts
            .iter()
            .map(|d| self.b.intern_var(self.func, d))
            .collect();
        let callee = match self.b.prog.func_by_name(callee) {
            Some(f) => Callee::Direct(f),
            None => Callee::Indirect(self.b.intern_var(self.func, callee)),
        };
        self.push(Inst::Call {
            dsts: ds.clone(),
            callee,
            args: args.to_vec(),
        });
        ds
    }

    /// `(dsts) = call f(args)` with a known function id.
    pub fn call_direct(&mut self, dsts: &[&str], callee: FuncId, args: &[VarId]) -> Vec<VarId> {
        let ds: Vec<VarId> = dsts
            .iter()
            .map(|d| self.b.intern_var(self.func, d))
            .collect();
        self.push(Inst::Call {
            dsts: ds.clone(),
            callee: Callee::Direct(callee),
            args: args.to_vec(),
        });
        ds
    }

    /// `fork(thread, entry, args)` by entry-function name. Returns the
    /// static thread id.
    pub fn fork(&mut self, thread: &str, entry: &str, args: &[VarId]) -> ThreadId {
        let callee = match self.b.prog.func_by_name(entry) {
            Some(f) => Callee::Direct(f),
            None => Callee::Indirect(self.b.intern_var(self.func, entry)),
        };
        self.fork_callee(thread, callee, args)
    }

    /// `fork(thread, entry, args)` through a function-pointer variable.
    pub fn fork_indirect(&mut self, thread: &str, fp: VarId, args: &[VarId]) -> ThreadId {
        self.fork_callee(thread, Callee::Indirect(fp), args)
    }

    fn fork_callee(&mut self, thread: &str, entry: Callee, args: &[VarId]) -> ThreadId {
        let t = self.b.intern_thread(thread);
        let l = self.push(Inst::Fork {
            thread: t,
            entry: entry.clone(),
            args: args.to_vec(),
        });
        let info = &mut self.b.prog.threads[t.index()];
        info.fork_site = Some(l);
        info.entry = Some(entry);
        t
    }

    /// `join(thread)` by thread name.
    pub fn join(&mut self, thread: &str) -> ThreadId {
        let t = self.b.intern_thread(thread);
        let l = self.push(Inst::Join { thread: t });
        self.b.prog.threads[t.index()].join_site = Some(l);
        t
    }

    /// `free(ptr)`.
    pub fn free(&mut self, ptr: VarId) -> Label {
        self.push(Inst::Free { ptr })
    }

    /// `use(*ptr)` — a dereference sink.
    pub fn deref(&mut self, ptr: VarId) -> Label {
        self.push(Inst::Deref { ptr })
    }

    /// `dst = null`.
    pub fn null(&mut self, dst: &str) -> VarId {
        let d = self.var(dst);
        self.push(Inst::AssignNull { dst: d });
        d
    }

    /// `dst = taint_source()`.
    pub fn taint_source(&mut self, dst: &str) -> VarId {
        let d = self.var(dst);
        self.push(Inst::TaintSource { dst: d });
        d
    }

    /// `leak_sink(src)`.
    pub fn taint_sink(&mut self, src: VarId) -> Label {
        self.push(Inst::TaintSink { src })
    }

    /// `lock(m)`.
    pub fn lock(&mut self, mutex: VarId) -> Label {
        self.push(Inst::Lock { mutex })
    }

    /// `unlock(m)`.
    pub fn unlock(&mut self, mutex: VarId) -> Label {
        self.push(Inst::Unlock { mutex })
    }

    /// `wait(cv)`.
    pub fn wait(&mut self, cv: VarId) -> Label {
        self.push(Inst::Wait { cv })
    }

    /// `notify(cv)`.
    pub fn notify(&mut self, cv: VarId) -> Label {
        self.push(Inst::Notify { cv })
    }

    /// `return (vals)`.
    pub fn ret(&mut self, vals: &[VarId]) -> Label {
        self.push(Inst::Return {
            vals: vals.to_vec(),
        })
    }

    /// A no-op statement.
    pub fn nop(&mut self) -> Label {
        self.push(Inst::Nop)
    }

    /// Begins an unstructured two-way branch, returning
    /// `(then, else, join)` block ids. The cursor is left unchanged; use
    /// [`FuncBody::switch_to`] and [`FuncBody::seal_goto`] to fill the
    /// arms. This is the low-level API the parser lowers onto; prefer
    /// [`FuncBody::if_else`] in ordinary client code.
    pub fn begin_branch(&mut self, cond: CondExpr) -> (BlockId, BlockId, BlockId) {
        let then_blk = self.new_block();
        let else_blk = self.new_block();
        let join_blk = self.new_block();
        self.set_term(
            self.cur,
            Terminator::Branch {
                cond,
                then_blk,
                else_blk,
            },
        );
        (then_blk, else_blk, join_blk)
    }

    /// Moves the cursor to an existing block.
    pub fn switch_to(&mut self, blk: BlockId) {
        self.cur = blk;
    }

    /// Terminates the current block with `goto target` and moves the
    /// cursor to `target`.
    pub fn seal_goto(&mut self, target: BlockId) {
        self.set_term(self.cur, Terminator::Goto(target));
        self.cur = target;
    }

    /// The block the cursor currently appends to.
    pub fn current_block(&self) -> BlockId {
        self.cur
    }

    /// Structured two-way branch: `if (cond) { then } else { els }`.
    ///
    /// After this call the cursor sits in the join block.
    pub fn if_else(
        &mut self,
        cond: CondExpr,
        then_f: impl FnOnce(&mut Self),
        else_f: impl FnOnce(&mut Self),
    ) {
        let (then_blk, else_blk, join_blk) = self.begin_branch(cond);
        self.switch_to(then_blk);
        then_f(self);
        self.seal_goto(join_blk);
        self.switch_to(else_blk);
        else_f(self);
        self.seal_goto(join_blk);
        self.switch_to(join_blk);
    }

    /// Structured one-armed branch: `if (cond) { then }`.
    pub fn if_then(&mut self, cond: CondExpr, then_f: impl FnOnce(&mut Self)) {
        self.if_else(cond, then_f, |_| {});
    }

    /// A bounded loop: `while (cond) { body }`, unrolled `unroll` times
    /// (the paper unrolls each loop twice, §6).
    pub fn while_unrolled(
        &mut self,
        cond: CondExpr,
        unroll: usize,
        mut body: impl FnMut(&mut Self),
    ) {
        if unroll == 0 {
            return;
        }
        self.if_then(cond, |f| {
            body(f);
            f.while_unrolled(cond, unroll - 1, body);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Terminator;

    #[test]
    fn if_else_builds_diamond() {
        let mut b = ProgramBuilder::new();
        let main = b.func("main", &[]);
        let c = b.cond("c1");
        {
            let mut f = b.body(main);
            let p = f.alloc("p", "o1");
            f.if_else(
                CondExpr::atom(c),
                |f| {
                    f.free(p);
                },
                |f| {
                    f.deref(p);
                },
            );
            f.nop();
        }
        b.set_entry(main);
        let prog = b.finish();
        prog.validate().unwrap();
        let func = prog.func(main);
        assert_eq!(func.blocks.len(), 4);
        assert!(matches!(func.blocks[0].term, Terminator::Branch { .. }));
        // The nop lands in the join block.
        assert_eq!(func.blocks[3].stmts.len(), 1);
    }

    #[test]
    fn while_unrolled_twice_nests_two_ifs() {
        let mut b = ProgramBuilder::new();
        let main = b.func("main", &[]);
        let c = b.cond("c");
        {
            let mut f = b.body(main);
            let p = f.alloc("p", "o");
            let mut iter = 0;
            f.while_unrolled(CondExpr::atom(c), 2, |f| {
                iter += 1;
                f.deref(p);
            });
        }
        b.set_entry(main);
        let prog = b.finish();
        prog.validate().unwrap();
        // alloc + two deref copies.
        assert_eq!(prog.deref_sites().len(), 2);
    }

    #[test]
    fn fork_records_thread_metadata() {
        let mut b = ProgramBuilder::new();
        let worker = b.func("worker", &["x"]);
        let main = b.func("main", &[]);
        {
            let mut f = b.body(worker);
            let x = f.var("x");
            f.deref(x);
        }
        {
            let mut f = b.body(main);
            let p = f.alloc("p", "o");
            f.fork("t1", "worker", &[p]);
            f.join("t1");
        }
        b.set_entry(main);
        let prog = b.finish();
        prog.validate().unwrap();
        let t1 = prog.thread_by_name("t1").unwrap();
        let info = &prog.threads[t1.index()];
        assert!(info.fork_site.is_some());
        assert!(info.join_site.is_some());
        assert_eq!(info.entry, Some(Callee::Direct(worker)));
    }

    #[test]
    fn unknown_callee_becomes_indirect() {
        let mut b = ProgramBuilder::new();
        let main = b.func("main", &[]);
        {
            let mut f = b.body(main);
            let p = f.alloc("fp", "o");
            let _ = p;
            f.call(&[], "fp", &[]);
        }
        b.set_entry(main);
        let prog = b.finish();
        let l = prog.labels().nth(1).unwrap();
        assert!(matches!(
            prog.inst(l),
            Inst::Call {
                callee: Callee::Indirect(_),
                ..
            }
        ));
    }

    #[test]
    fn doc_example_fig2_builds() {
        // Mirrors the module-level doc example.
        let mut b = ProgramBuilder::new();
        let main = b.func("main", &["a"]);
        let thread1 = b.func("thread1", &["y"]);
        let theta = b.cond("theta1");
        {
            let mut f = b.body(main);
            let a = f.var("a");
            let x = f.alloc("x", "o1");
            f.store(x, a);
            f.fork("t", "thread1", &[x]);
            f.if_then(CondExpr::atom(theta), |f| {
                let c = f.load("c", x);
                f.deref(c);
            });
        }
        {
            let mut f = b.body(thread1);
            let y = f.var("y");
            let bv = f.alloc("b", "o2");
            f.if_then(CondExpr::not_atom(theta), |f| {
                f.store(y, bv);
                f.free(bv);
            });
        }
        b.set_entry(main);
        let prog = b.finish();
        prog.validate().unwrap();
        assert_eq!(prog.threads.len(), 2);
        assert_eq!(prog.free_sites().len(), 1);
        assert_eq!(prog.deref_sites().len(), 1);
    }
}
