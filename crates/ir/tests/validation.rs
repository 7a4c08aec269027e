//! Exhaustive coverage of the program validator: every
//! [`ValidationError`] variant is constructible and renders a useful
//! message.

use canary_ir::{
    parse, BasicBlock, BlockId, CondExpr, FuncId, Inst, Label, Program, ProgramBuilder, Terminator,
    ValidationError, VarId,
};

fn valid_base() -> Program {
    parse("fn main() { p = alloc o; free p; }").unwrap()
}

#[test]
fn valid_program_passes() {
    valid_base().validate().unwrap();
}

#[test]
fn no_entry() {
    let mut p = valid_base();
    p.entry = None;
    assert_eq!(p.validate(), Err(ValidationError::NoEntry));
    assert!(p.validate().unwrap_err().to_string().contains("entry"));
}

#[test]
fn dangling_entry_function() {
    let mut p = valid_base();
    p.entry = Some(FuncId::new(99));
    assert!(matches!(
        p.validate(),
        Err(ValidationError::DanglingFunc(_))
    ));
}

#[test]
fn dangling_label_in_block() {
    let mut p = valid_base();
    p.funcs[0].blocks[0].stmts.push(Label::new(999));
    assert!(matches!(
        p.validate(),
        Err(ValidationError::DanglingLabel(_))
    ));
}

#[test]
fn duplicate_label_across_blocks() {
    let mut p = valid_base();
    let l = p.funcs[0].blocks[0].stmts[0];
    p.funcs[0].blocks.push(BasicBlock {
        stmts: vec![l],
        term: Terminator::Exit,
    });
    // The statement's recorded block no longer matches its second home.
    let err = p.validate().unwrap_err();
    assert!(
        matches!(
            err,
            ValidationError::MisplacedStmt(_) | ValidationError::DuplicateLabel(_)
        ),
        "{err}"
    );
}

#[test]
fn orphan_statement() {
    let mut p = valid_base();
    p.funcs[0].blocks[0].stmts.pop();
    assert!(matches!(p.validate(), Err(ValidationError::OrphanStmt(_))));
}

#[test]
fn dangling_block_target() {
    let mut p = valid_base();
    p.funcs[0].blocks[0].term = Terminator::Goto(BlockId::new(42));
    assert!(matches!(
        p.validate(),
        Err(ValidationError::DanglingBlock(..))
    ));
}

#[test]
fn dangling_variable() {
    let mut p = valid_base();
    p.stmts[1].inst = Inst::Free {
        ptr: VarId::new(999),
    };
    assert!(matches!(
        p.validate(),
        Err(ValidationError::DanglingVar(..))
    ));
}

#[test]
fn multiple_definitions() {
    // Two allocs into the same variable.
    let mut b = ProgramBuilder::new();
    let main = b.func("main", &[]);
    {
        let mut f = b.body(main);
        let p = f.alloc("p", "o1");
        let q = f.alloc("q", "o2");
        f.copy_into(p, q);
    }
    b.set_entry(main);
    let prog = b.finish();
    assert!(matches!(
        prog.validate(),
        Err(ValidationError::MultipleDefs(..))
    ));
}

#[test]
fn cyclic_cfg_rejected() {
    let mut p = valid_base();
    p.funcs[0].blocks[0].term = Terminator::Goto(BlockId::new(0));
    assert!(matches!(p.validate(), Err(ValidationError::CyclicCfg(_))));
    let msg = p.validate().unwrap_err().to_string();
    assert!(msg.contains("unroll"), "{msg}");
}

#[test]
fn branch_to_same_block_both_arms_is_fine() {
    let mut b = ProgramBuilder::new();
    let main = b.func("main", &[]);
    let c = b.cond("c");
    {
        let mut f = b.body(main);
        f.nop();
        let (tb, eb, jb) = f.begin_branch(CondExpr::atom(c));
        f.switch_to(tb);
        f.seal_goto(jb);
        f.switch_to(eb);
        f.seal_goto(jb);
        f.switch_to(jb);
        f.nop();
    }
    b.set_entry(main);
    b.finish().validate().unwrap();
}

#[test]
fn every_error_renders_nonempty() {
    use ValidationError as E;
    let samples = [
        E::NoEntry,
        E::DanglingFunc(FuncId::new(1)),
        E::DanglingLabel(Label::new(2)),
        E::MisplacedStmt(Label::new(3)),
        E::DuplicateLabel(Label::new(4)),
        E::OrphanStmt(Label::new(5)),
        E::DanglingBlock(FuncId::new(6), BlockId::new(7)),
        E::DanglingVar(Label::new(8), VarId::new(9)),
        E::DanglingObj(Label::new(10), canary_ir::ObjId::new(11)),
        E::DanglingThread(Label::new(12), canary_ir::ThreadId::new(13)),
        E::MultipleDefs(VarId::new(14), Label::new(15), Label::new(16)),
        E::CyclicCfg(FuncId::new(17)),
    ];
    for e in samples {
        assert!(!e.to_string().is_empty(), "{e:?}");
    }
}
