//! A pretty-printer for [`Program`]s.
//!
//! The output is a human-readable structured dump (one statement per
//! line with its label and block structure); it is intended for golden
//! tests and bug-report rendering rather than byte-exact round-tripping,
//! since parsing desugars `while` loops and SSA-renames re-definitions.

use std::fmt::Write as _;

use crate::ids::{BlockId, FuncId, Label};
use crate::inst::{Callee, Inst, Terminator};
use crate::program::Program;

/// Renders the whole program.
pub fn print_program(prog: &Program) -> String {
    let mut out = String::new();
    for f in &prog.funcs {
        print_func(prog, f.id, &mut out);
        out.push('\n');
    }
    out
}

/// Renders one function into `out`.
pub fn print_func(prog: &Program, f: FuncId, out: &mut String) {
    let func = prog.func(f);
    let params: Vec<&str> = func.params.iter().map(|&p| prog.var_name(p)).collect();
    let _ = writeln!(out, "fn {}({}) {{", func.name, params.join(", "));
    for (bi, block) in func.blocks.iter().enumerate() {
        let _ = writeln!(out, "  {}:", BlockId::new(bi as u32));
        for &l in &block.stmts {
            let _ = writeln!(out, "    {l}: {}", render_inst(prog, l));
        }
        match &block.term {
            Terminator::Goto(b) => {
                let _ = writeln!(out, "    goto {b}");
            }
            Terminator::Branch {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = match cond {
                    crate::inst::CondExpr::True => "true".to_string(),
                    crate::inst::CondExpr::False => "false".to_string(),
                    crate::inst::CondExpr::Atom { cond, negated } => {
                        let name = prog.cond_name(*cond);
                        if *negated {
                            format!("!{name}")
                        } else {
                            name.to_string()
                        }
                    }
                };
                let _ = writeln!(out, "    if ({c}) goto {then_blk} else {else_blk}");
            }
            Terminator::Exit => {
                let _ = writeln!(out, "    exit");
            }
        }
    }
    let _ = writeln!(out, "}}");
}

/// Renders a single instruction with program-level names.
pub fn render_inst(prog: &Program, l: Label) -> String {
    let v = |id: crate::ids::VarId| prog.var_name(id).to_string();
    match prog.inst(l) {
        Inst::Alloc { dst, obj } => format!("{} = alloc {}", v(*dst), prog.obj_name(*obj)),
        Inst::Copy { dst, src } => format!("{} = {}", v(*dst), v(*src)),
        Inst::FuncAddr { dst, func } => {
            format!("{} = fnptr {}", v(*dst), prog.func(*func).name)
        }
        Inst::Load { dst, addr } => format!("{} = *{}", v(*dst), v(*addr)),
        Inst::Store { addr, src } => format!("*{} = {}", v(*addr), v(*src)),
        Inst::Bin { dst, op, lhs, rhs } => {
            format!("{} = {} {op} {}", v(*dst), v(*lhs), v(*rhs))
        }
        Inst::Un { dst, op, src } => format!("{} = {op}{}", v(*dst), v(*src)),
        Inst::Call { dsts, callee, args } => {
            let ds: Vec<String> = dsts.iter().map(|&d| v(d)).collect();
            let as_: Vec<String> = args.iter().map(|&a| v(a)).collect();
            let callee = render_callee(prog, callee);
            if ds.is_empty() {
                format!("call {callee}({})", as_.join(", "))
            } else {
                format!("{} = call {callee}({})", ds.join(", "), as_.join(", "))
            }
        }
        Inst::Fork {
            thread,
            entry,
            args,
        } => {
            let as_: Vec<String> = args.iter().map(|&a| v(a)).collect();
            format!(
                "fork {} {}({})",
                prog.threads[thread.index()].name,
                render_callee(prog, entry),
                as_.join(", ")
            )
        }
        Inst::Join { thread } => format!("join {}", prog.threads[thread.index()].name),
        Inst::Free { ptr } => format!("free {}", v(*ptr)),
        Inst::Deref { ptr } => format!("use {}", v(*ptr)),
        Inst::AssignNull { dst } => format!("{} = null", v(*dst)),
        Inst::TaintSource { dst } => format!("{} = taint", v(*dst)),
        Inst::TaintSink { src } => format!("sink {}", v(*src)),
        Inst::Lock { mutex } => format!("lock {}", v(*mutex)),
        Inst::Unlock { mutex } => format!("unlock {}", v(*mutex)),
        Inst::Wait { cv } => format!("wait {}", v(*cv)),
        Inst::Notify { cv } => format!("notify {}", v(*cv)),
        Inst::Return { vals } => {
            let vs: Vec<String> = vals.iter().map(|&x| v(x)).collect();
            format!("return {}", vs.join(", "))
        }
        Inst::Nop => "skip".to_string(),
    }
}

fn render_callee(prog: &Program, c: &Callee) -> String {
    match c {
        Callee::Direct(f) => prog.func(*f).name.clone(),
        Callee::Indirect(v) => format!("*{}", prog.var_name(*v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn printed_program_mentions_every_statement_form() {
        let src = r#"
            fn main(a) {
                x = alloc o1;
                *x = a;
                fork t w(x);
                c = *x;
                use c;
                join t;
                free c;
                n = null;
                s = taint;
                sink s;
                lock x;
                unlock x;
                return;
            }
            fn w(y) {
                skip;
            }
        "#;
        let prog = parse(src).unwrap();
        let text = print_program(&prog);
        for needle in [
            "x = alloc o1",
            "*x = a",
            "fork t w(x)",
            "c = *x",
            "use c",
            "join t",
            "free c",
            "n = null",
            "s = taint",
            "sink s",
            "lock x",
            "unlock x",
            "return",
            "skip",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn printed_branches_name_conditions() {
        let prog = parse("fn main() { if (!t1) { skip; } }").unwrap();
        let text = print_program(&prog);
        assert!(text.contains("if (!t1)"), "{text}");
    }

    #[test]
    fn reparse_of_simple_straightline_print_is_stable() {
        // The printer is not a strict inverse of the parser, but a
        // straight-line body survives print→inspect unchanged.
        let prog = parse("fn main() { p = alloc o; q = p; free q; }").unwrap();
        let text = print_program(&prog);
        assert!(text.contains("p = alloc o"));
        assert!(text.contains("q = p"));
        assert!(text.contains("free q"));
    }
}
