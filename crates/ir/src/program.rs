//! The whole-program container: statement table, functions, variable /
//! object / condition-atom interning, and static thread descriptors.

use std::fmt;

use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};

use crate::ids::{BlockId, CondId, FuncId, Label, ObjId, ThreadId, VarId, MAIN_THREAD};
use crate::inst::{Callee, Inst};
use crate::Function;

/// Per-statement bookkeeping: the instruction plus its CFG position.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stmt {
    /// The instruction at this label.
    pub inst: Inst,
    /// Enclosing function.
    pub func: FuncId,
    /// Enclosing basic block.
    pub block: BlockId,
}

/// Metadata for a top-level variable.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct VarInfo {
    /// Source-level name (unique within its function).
    pub name: String,
    /// Owning function, or `None` for program-level auxiliaries.
    pub func: Option<FuncId>,
}

/// Metadata for an abstract memory object.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjInfo {
    /// Source-level name of the allocation site.
    pub name: String,
    /// The `alloc` statement that creates this object, when known.
    pub alloc_site: Option<Label>,
}

/// A static thread descriptor.
///
/// Per §3.1 a thread corresponds to a fork site of the bounded program;
/// the main thread has no fork site.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadInfo {
    /// Source-level thread name (`t` in `fork(t, f)`).
    pub name: String,
    /// The fork statement creating this thread (`None` for main).
    pub fork_site: Option<Label>,
    /// The join statement for this thread, if any.
    pub join_site: Option<Label>,
    /// The parent thread executing the fork.
    pub parent: ThreadId,
    /// The entry function as written (possibly an indirect callee that
    /// the thread call-graph construction later resolves).
    pub entry: Option<Callee>,
}

/// A bounded concurrent program (§3.1): finite threads, unrolled loops,
/// partial-SSA statements.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Statement table indexed by [`Label`].
    pub stmts: Vec<Stmt>,
    /// Function table indexed by [`FuncId`].
    pub funcs: Vec<Function>,
    /// Variable table indexed by [`VarId`].
    pub vars: Vec<VarInfo>,
    /// Object table indexed by [`ObjId`].
    pub objs: Vec<ObjInfo>,
    /// Condition-atom names indexed by [`CondId`].
    pub conds: Vec<String>,
    /// Thread table indexed by [`ThreadId`]; entry 0 is main.
    pub threads: Vec<ThreadInfo>,
    /// The program entry function (runs as the main thread).
    pub entry: Option<FuncId>,
}

impl Eq for Program {}

impl Program {
    /// An empty program with only the main-thread descriptor.
    pub fn new() -> Self {
        Program {
            stmts: Vec::new(),
            funcs: Vec::new(),
            vars: Vec::new(),
            objs: Vec::new(),
            conds: Vec::new(),
            threads: vec![ThreadInfo {
                name: "main".into(),
                fork_site: None,
                join_site: None,
                parent: MAIN_THREAD,
                entry: None,
            }],
            entry: None,
        }
    }

    /// The statement at `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    #[inline]
    pub fn stmt(&self, l: Label) -> &Stmt {
        &self.stmts[l.index()]
    }

    /// The instruction at `l`.
    #[inline]
    pub fn inst(&self, l: Label) -> &Inst {
        &self.stmts[l.index()].inst
    }

    /// The function containing `l`.
    #[inline]
    pub fn func_of(&self, l: Label) -> FuncId {
        self.stmts[l.index()].func
    }

    /// The function with the given id.
    #[inline]
    pub fn func(&self, f: FuncId) -> &Function {
        &self.funcs[f.index()]
    }

    /// Looks up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId::new(i as u32))
    }

    /// Looks up a variable by name within a function (searching the
    /// function's scope, then program-level auxiliaries).
    pub fn var_by_name(&self, func: FuncId, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v.name == name && (v.func == Some(func) || v.func.is_none()))
            .map(|i| VarId::new(i as u32))
    }

    /// Looks up an object by name.
    pub fn obj_by_name(&self, name: &str) -> Option<ObjId> {
        self.objs
            .iter()
            .position(|o| o.name == name)
            .map(|i| ObjId::new(i as u32))
    }

    /// Looks up a condition atom by name.
    pub fn cond_by_name(&self, name: &str) -> Option<CondId> {
        self.conds
            .iter()
            .position(|c| c == name)
            .map(|i| CondId::new(i as u32))
    }

    /// Looks up a thread by name.
    pub fn thread_by_name(&self, name: &str) -> Option<ThreadId> {
        self.threads
            .iter()
            .position(|t| t.name == name)
            .map(|i| ThreadId::new(i as u32))
    }

    /// Display name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v.index()].name
    }

    /// Display name of an object.
    pub fn obj_name(&self, o: ObjId) -> &str {
        &self.objs[o.index()].name
    }

    /// Display name of a condition atom.
    pub fn cond_name(&self, c: CondId) -> &str {
        &self.conds[c.index()]
    }

    /// Number of statements in the program.
    pub fn stmt_count(&self) -> usize {
        self.stmts.len()
    }

    /// Iterates over all labels.
    pub fn labels(&self) -> impl Iterator<Item = Label> {
        (0..self.stmts.len() as u32).map(Label::new)
    }

    /// All `free` statements (use-after-free / double-free sources).
    pub fn free_sites(&self) -> Vec<Label> {
        self.labels()
            .filter(|&l| matches!(self.inst(l), Inst::Free { .. }))
            .collect()
    }

    /// All dereference statements (use-after-free / null-deref sinks).
    pub fn deref_sites(&self) -> Vec<Label> {
        self.labels()
            .filter(|&l| matches!(self.inst(l), Inst::Deref { .. }))
            .collect()
    }

    /// Validates structural invariants of a bounded program.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: dangling ids, a statement owned
    /// by the wrong block, double definitions of an SSA variable, a cyclic
    /// CFG (loops must be unrolled, §3.1), or a join of an unknown thread.
    pub fn validate(&self) -> Result<(), ValidationError> {
        use ValidationError as E;
        let entry = self.entry.ok_or(E::NoEntry)?;
        if entry.index() >= self.funcs.len() {
            return Err(E::DanglingFunc(entry));
        }
        // Labels must appear in exactly the block that owns them.
        let mut seen = vec![false; self.stmts.len()];
        for func in &self.funcs {
            // Check terminator targets before the cycle test: the DFS
            // inside `is_acyclic` indexes successor blocks directly.
            for block in &func.blocks {
                for succ in block.term.successors() {
                    if succ.index() >= func.blocks.len() {
                        return Err(E::DanglingBlock(func.id, succ));
                    }
                }
            }
            if !func.is_acyclic() {
                return Err(E::CyclicCfg(func.id));
            }
            for (bi, block) in func.blocks.iter().enumerate() {
                for &l in &block.stmts {
                    let stmt = self.stmts.get(l.index()).ok_or(E::DanglingLabel(l))?;
                    if stmt.func != func.id || stmt.block != BlockId::new(bi as u32) {
                        return Err(E::MisplacedStmt(l));
                    }
                    if seen[l.index()] {
                        return Err(E::DuplicateLabel(l));
                    }
                    seen[l.index()] = true;
                }
            }
        }
        for (i, ok) in seen.iter().enumerate() {
            if !ok {
                return Err(E::OrphanStmt(Label::new(i as u32)));
            }
        }
        // SSA: every top-level variable has at most one defining statement.
        let mut defs: FxHashMap<VarId, Label> = FxHashMap::default();
        for l in self.labels() {
            if let Some(d) = self.inst(l).def() {
                if d.index() >= self.vars.len() {
                    return Err(E::DanglingVar(l, d));
                }
                if let Some(&prev) = defs.get(&d) {
                    return Err(E::MultipleDefs(d, prev, l));
                }
                defs.insert(d, l);
            }
            for u in self.inst(l).uses() {
                if u.index() >= self.vars.len() {
                    return Err(E::DanglingVar(l, u));
                }
            }
        }
        // Thread references must resolve.
        for l in self.labels() {
            match self.inst(l) {
                Inst::Fork { thread, .. } | Inst::Join { thread }
                    if thread.index() >= self.threads.len() =>
                {
                    return Err(E::DanglingThread(l, *thread));
                }
                Inst::Alloc { obj, .. } if obj.index() >= self.objs.len() => {
                    return Err(E::DanglingObj(l, *obj));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// A structural invariant violation reported by [`Program::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// The program has no entry function.
    NoEntry,
    /// The entry function id is out of range.
    DanglingFunc(FuncId),
    /// A block lists a label that is out of range.
    DanglingLabel(Label),
    /// A statement's recorded position disagrees with the block listing it.
    MisplacedStmt(Label),
    /// A label appears in two blocks.
    DuplicateLabel(Label),
    /// A statement is in the table but in no block.
    OrphanStmt(Label),
    /// A terminator targets a block that does not exist.
    DanglingBlock(FuncId, BlockId),
    /// A variable id is out of range.
    DanglingVar(Label, VarId),
    /// An object id is out of range.
    DanglingObj(Label, ObjId),
    /// A thread id is out of range.
    DanglingThread(Label, ThreadId),
    /// An SSA variable is defined twice.
    MultipleDefs(VarId, Label, Label),
    /// A function's CFG contains a cycle (loops must be unrolled, §3.1).
    CyclicCfg(FuncId),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::NoEntry => write!(f, "program has no entry function"),
            ValidationError::DanglingFunc(id) => write!(f, "dangling function id {id}"),
            ValidationError::DanglingLabel(l) => write!(f, "dangling label {l}"),
            ValidationError::MisplacedStmt(l) => {
                write!(f, "statement {l} listed by a block that does not own it")
            }
            ValidationError::DuplicateLabel(l) => write!(f, "label {l} appears in two blocks"),
            ValidationError::OrphanStmt(l) => write!(f, "statement {l} belongs to no block"),
            ValidationError::DanglingBlock(func, b) => {
                write!(f, "function {func} branches to missing block {b}")
            }
            ValidationError::DanglingVar(l, v) => {
                write!(f, "statement {l} references missing variable {v}")
            }
            ValidationError::DanglingObj(l, o) => {
                write!(f, "statement {l} references missing object {o}")
            }
            ValidationError::DanglingThread(l, t) => {
                write!(f, "statement {l} references missing thread {t}")
            }
            ValidationError::MultipleDefs(v, l1, l2) => {
                write!(f, "ssa variable {v} defined at both {l1} and {l2}")
            }
            ValidationError::CyclicCfg(func) => {
                write!(f, "function {func} has a cyclic cfg; unroll loops first")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    #[test]
    fn empty_program_fails_validation() {
        let p = Program::new();
        assert_eq!(p.validate(), Err(ValidationError::NoEntry));
    }

    #[test]
    fn builder_program_validates() {
        let mut b = ProgramBuilder::new();
        let main = b.func("main", &[]);
        {
            let mut f = b.body(main);
            let p = f.alloc("p", "o1");
            f.free(p);
        }
        b.set_entry(main);
        let prog = b.finish();
        prog.validate().expect("valid program");
        assert_eq!(prog.free_sites().len(), 1);
    }

    #[test]
    fn lookup_by_name() {
        let mut b = ProgramBuilder::new();
        let main = b.func("main", &["a"]);
        {
            let mut f = b.body(main);
            let p = f.alloc("p", "obj");
            f.free(p);
        }
        b.set_entry(main);
        let prog = b.finish();
        assert_eq!(prog.func_by_name("main"), Some(main));
        assert!(prog.var_by_name(main, "p").is_some());
        assert!(prog.var_by_name(main, "a").is_some());
        assert!(prog.obj_by_name("obj").is_some());
        assert!(prog.obj_by_name("nope").is_none());
    }

    #[test]
    fn double_def_rejected() {
        let mut b = ProgramBuilder::new();
        let main = b.func("main", &["a"]);
        {
            let mut f = b.body(main);
            let a = f.var("a");
            let p = f.alloc("p", "o");
            // Force a second definition of p via a raw copy.
            f.copy_into(p, a);
        }
        b.set_entry(main);
        let prog = b.finish();
        assert!(matches!(
            prog.validate(),
            Err(ValidationError::MultipleDefs(..))
        ));
    }
}
