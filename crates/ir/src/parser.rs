//! A textual front end for the Fig. 3 language.
//!
//! The concrete syntax mirrors the paper's examples one statement per
//! line; `while` loops are unrolled at parse time (twice by default,
//! matching §6), so parsed programs are always bounded.
//!
//! ```text
//! fn main(a) {
//!     x = alloc o1;          // ℓ2: x points to fresh object o1
//!     *x = a;                // ℓ3: store
//!     fork t thread1(x);     // ℓ4: create thread t
//!     if (theta1) {
//!         c = *x;            // ℓ6: load
//!         use c;             // ℓ7: dereference sink
//!     }
//! }
//! fn thread1(y) {
//!     b = alloc o2;
//!     if (!theta1) {
//!         *y = b;
//!         free b;            // use-after-free source
//!     }
//! }
//! ```
//!
//! # Examples
//!
//! ```
//! let src = "fn main() { p = alloc o; free p; use p; }";
//! let prog = canary_ir::parse(src)?;
//! assert_eq!(prog.stmt_count(), 3);
//! # Ok::<(), canary_ir::ParseError>(())
//! ```

use std::fmt;

use crate::builder::{FuncBody, ProgramBuilder};
use crate::ids::FuncId;
use crate::inst::{BinOp, CondExpr, UnOp};
use crate::program::Program;

/// Options controlling parsing of bounded programs.
#[derive(Clone, Debug)]
pub struct ParseOptions {
    /// How many times `while` loops are unrolled (§6 uses 2).
    pub loop_unroll: usize,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions { loop_unroll: 2 }
    }
}

/// Parses a program with default options.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax error.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    parse_with(src, &ParseOptions::default())
}

/// Parses a program with explicit options.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax error.
pub fn parse_with(src: &str, opts: &ParseOptions) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    Parser {
        tokens,
        pos: 0,
        opts: opts.clone(),
        def_counts: std::collections::HashMap::new(),
        current: std::collections::HashMap::new(),
    }
    .parse_program()
}

/// A syntax error with a line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Ident(String),
    // punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    Semi,
    Comma,
    Eq,   // =
    Star, // *
    Bang, // !
    Plus,
    Minus,
    Amp,
    Pipe,
    Gt,
    EqEq,
    BangEq,
}

#[derive(Clone, Debug)]
struct SpannedTok {
    tok: Tok,
    line: u32,
}

fn lex(src: &str) -> Result<Vec<SpannedTok>, ParseError> {
    let mut out = Vec::new();
    let mut line: u32 = 1;
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                out.push(SpannedTok {
                    tok: Tok::LParen,
                    line,
                });
                i += 1;
            }
            ')' => {
                out.push(SpannedTok {
                    tok: Tok::RParen,
                    line,
                });
                i += 1;
            }
            '{' => {
                out.push(SpannedTok {
                    tok: Tok::LBrace,
                    line,
                });
                i += 1;
            }
            '}' => {
                out.push(SpannedTok {
                    tok: Tok::RBrace,
                    line,
                });
                i += 1;
            }
            ';' => {
                out.push(SpannedTok {
                    tok: Tok::Semi,
                    line,
                });
                i += 1;
            }
            ',' => {
                out.push(SpannedTok {
                    tok: Tok::Comma,
                    line,
                });
                i += 1;
            }
            '*' => {
                out.push(SpannedTok {
                    tok: Tok::Star,
                    line,
                });
                i += 1;
            }
            '+' => {
                out.push(SpannedTok {
                    tok: Tok::Plus,
                    line,
                });
                i += 1;
            }
            '-' => {
                out.push(SpannedTok {
                    tok: Tok::Minus,
                    line,
                });
                i += 1;
            }
            '&' => {
                out.push(SpannedTok {
                    tok: Tok::Amp,
                    line,
                });
                i += 1;
            }
            '|' => {
                out.push(SpannedTok {
                    tok: Tok::Pipe,
                    line,
                });
                i += 1;
            }
            '>' => {
                out.push(SpannedTok { tok: Tok::Gt, line });
                i += 1;
            }
            '=' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(SpannedTok {
                        tok: Tok::EqEq,
                        line,
                    });
                    i += 2;
                } else {
                    out.push(SpannedTok { tok: Tok::Eq, line });
                    i += 1;
                }
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(SpannedTok {
                        tok: Tok::BangEq,
                        line,
                    });
                    i += 2;
                } else {
                    out.push(SpannedTok {
                        tok: Tok::Bang,
                        line,
                    });
                    i += 1;
                }
            }
            c if c.is_ascii_alphanumeric() || c == '_' || c == '%' => {
                let start = i;
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c.is_ascii_alphanumeric() || c == '_' || c == '%' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push(SpannedTok {
                    tok: Tok::Ident(src[start..i].to_string()),
                    line,
                });
            }
            other => {
                return Err(ParseError {
                    line,
                    msg: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<SpannedTok>,
    pos: usize,
    opts: ParseOptions,
    /// Per-function SSA renaming: how many times each raw name has been
    /// defined so far. Re-definitions (e.g. the same source text parsed
    /// twice by loop unrolling) get fresh versioned names `x#2`, `x#3`, …
    def_counts: std::collections::HashMap<String, u32>,
    /// Raw name → currently visible versioned name.
    current: std::collections::HashMap<String, String>,
}

impl Parser {
    fn line(&self) -> u32 {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map_or(1, |t| t.line)
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            line: self.line(),
            msg: msg.into(),
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.tokens.get(self.pos + 1).map(|t| &t.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|t| t.tok.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, want: &Tok) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == want => {
                self.pos += 1;
                Ok(())
            }
            other => {
                let found = other.cloned();
                self.err(format!("expected {want:?}, found {found:?}"))
            }
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => {
                self.pos -= 1;
                self.err(format!("expected identifier, found {other:?}"))
            }
        }
    }

    fn parse_program(&mut self) -> Result<Program, ParseError> {
        let mut b = ProgramBuilder::new();
        // Pass 1: declare all functions so forward references resolve.
        let mut decls: Vec<(String, Vec<String>, usize)> = Vec::new();
        let save = self.pos;
        while self.peek().is_some() {
            let kw = self.expect_ident()?;
            if kw != "fn" {
                return self.err("expected `fn`");
            }
            let name = self.expect_ident()?;
            self.expect(&Tok::LParen)?;
            let mut params = Vec::new();
            if self.peek() != Some(&Tok::RParen) {
                loop {
                    params.push(self.expect_ident()?);
                    if self.peek() == Some(&Tok::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect(&Tok::RParen)?;
            self.expect(&Tok::LBrace)?;
            let body_start = self.pos;
            self.skip_braced_body()?;
            decls.push((name, params, body_start));
        }
        self.pos = save;
        let mut ids: Vec<FuncId> = Vec::new();
        for (name, params, _) in &decls {
            let ps: Vec<&str> = params.iter().map(String::as_str).collect();
            ids.push(b.func(name, &ps));
        }
        // Pass 2: parse each body.
        for (idx, (_, params, body_start)) in decls.iter().enumerate() {
            self.pos = *body_start;
            self.def_counts.clear();
            self.current.clear();
            for p in params {
                self.def_counts.insert(p.clone(), 1);
                self.current.insert(p.clone(), p.clone());
            }
            let mut body = b.body(ids[idx]);
            self.parse_block_into(&mut body)?;
        }
        if let Some(main) = b.program().func_by_name("main") {
            b.set_entry(main);
        } else if let Some(first) = ids.first() {
            b.set_entry(*first);
        } else {
            return self.err("empty program");
        }
        Ok(b.finish())
    }

    /// Skips tokens up to and including the matching `}` of an already
    /// consumed `{`.
    fn skip_braced_body(&mut self) -> Result<(), ParseError> {
        let mut depth = 1usize;
        while depth > 0 {
            match self.bump() {
                Some(Tok::LBrace) => depth += 1,
                Some(Tok::RBrace) => depth -= 1,
                Some(_) => {}
                None => return self.err("unbalanced braces"),
            }
        }
        Ok(())
    }

    /// Parses statements until the closing `}` (consumed).
    fn parse_block_into(&mut self, f: &mut FuncBody<'_>) -> Result<(), ParseError> {
        loop {
            match self.peek() {
                Some(Tok::RBrace) => {
                    self.bump();
                    return Ok(());
                }
                Some(_) => self.parse_stmt(f)?,
                None => return self.err("unexpected end of input in block"),
            }
        }
    }

    fn parse_cond(&mut self, f: &mut FuncBody<'_>) -> Result<CondExpr, ParseError> {
        self.expect(&Tok::LParen)?;
        let negated = if self.peek() == Some(&Tok::Bang) {
            self.bump();
            true
        } else {
            false
        };
        let name = self.expect_ident()?;
        let cond = match name.as_str() {
            "true" => {
                if negated {
                    CondExpr::False
                } else {
                    CondExpr::True
                }
            }
            "false" => {
                if negated {
                    CondExpr::True
                } else {
                    CondExpr::False
                }
            }
            _ => {
                let c = f.cond(&name);
                if negated {
                    CondExpr::not_atom(c)
                } else {
                    CondExpr::atom(c)
                }
            }
        };
        self.expect(&Tok::RParen)?;
        Ok(cond)
    }

    fn parse_stmt(&mut self, f: &mut FuncBody<'_>) -> Result<(), ParseError> {
        match self.peek() {
            Some(Tok::Star) => {
                // *x = y;
                self.bump();
                let addr = self.expect_ident()?;
                self.expect(&Tok::Eq)?;
                let src = self.expect_ident()?;
                self.expect(&Tok::Semi)?;
                let a = f.var(&self.use_name(&addr));
                let s = f.var(&self.use_name(&src));
                f.store(a, s);
                Ok(())
            }
            Some(Tok::Ident(kw)) => {
                let kw = kw.clone();
                match kw.as_str() {
                    "if" => {
                        self.bump();
                        let cond = self.parse_cond(f)?;
                        self.expect(&Tok::LBrace)?;
                        let then_start = self.pos;
                        self.skip_braced_body()?;
                        let after_then = self.pos;
                        let (else_start, after_else) = if matches!(self.peek(), Some(Tok::Ident(k)) if k == "else")
                        {
                            self.bump();
                            self.expect(&Tok::LBrace)?;
                            let s = self.pos;
                            self.skip_braced_body()?;
                            (Some(s), self.pos)
                        } else {
                            (None, after_then)
                        };
                        let (then_blk, else_blk, join_blk) = f.begin_branch(cond);
                        f.switch_to(then_blk);
                        self.pos = then_start;
                        self.parse_block_into(f)?;
                        f.seal_goto(join_blk);
                        f.switch_to(else_blk);
                        if let Some(s) = else_start {
                            self.pos = s;
                            self.parse_block_into(f)?;
                        }
                        f.seal_goto(join_blk);
                        f.switch_to(join_blk);
                        self.pos = after_else;
                        Ok(())
                    }
                    "while" => {
                        self.bump();
                        let cond = self.parse_cond(f)?;
                        self.expect(&Tok::LBrace)?;
                        let body_start = self.pos;
                        self.skip_braced_body()?;
                        let after_body = self.pos;
                        self.unroll_while(f, cond, body_start, self.opts.loop_unroll)?;
                        self.pos = after_body;
                        Ok(())
                    }
                    "fork" => {
                        self.bump();
                        let tname = self.expect_ident()?;
                        let entry = self.expect_ident()?;
                        let args = self.parse_arg_list(f)?;
                        self.expect(&Tok::Semi)?;
                        let entry = self.resolve_callee_name(f, &entry);
                        f.fork(&tname, &entry, &args);
                        Ok(())
                    }
                    "join" => {
                        self.bump();
                        let tname = self.expect_ident()?;
                        self.expect(&Tok::Semi)?;
                        f.join(&tname);
                        Ok(())
                    }
                    "free" => {
                        self.bump();
                        let v = self.expect_ident()?;
                        self.expect(&Tok::Semi)?;
                        let v = f.var(&self.use_name(&v));
                        f.free(v);
                        Ok(())
                    }
                    "use" | "deref" => {
                        self.bump();
                        // allow `use *c;` as well as `use c;`
                        if self.peek() == Some(&Tok::Star) {
                            self.bump();
                        }
                        let v = self.expect_ident()?;
                        self.expect(&Tok::Semi)?;
                        let v = f.var(&self.use_name(&v));
                        f.deref(v);
                        Ok(())
                    }
                    "sink" => {
                        self.bump();
                        let v = self.expect_ident()?;
                        self.expect(&Tok::Semi)?;
                        let v = f.var(&self.use_name(&v));
                        f.taint_sink(v);
                        Ok(())
                    }
                    "lock" | "unlock" | "wait" | "notify" => {
                        self.bump();
                        let v = self.expect_ident()?;
                        self.expect(&Tok::Semi)?;
                        let v = f.var(&self.use_name(&v));
                        match kw.as_str() {
                            "lock" => f.lock(v),
                            "unlock" => f.unlock(v),
                            "wait" => f.wait(v),
                            _ => f.notify(v),
                        };
                        Ok(())
                    }
                    "return" => {
                        self.bump();
                        let mut vals = Vec::new();
                        while let Some(Tok::Ident(_)) = self.peek() {
                            let v = self.expect_ident()?;
                            vals.push(f.var(&self.use_name(&v)));
                            if self.peek() == Some(&Tok::Comma) {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                        self.expect(&Tok::Semi)?;
                        f.ret(&vals);
                        Ok(())
                    }
                    "skip" => {
                        self.bump();
                        self.expect(&Tok::Semi)?;
                        f.nop();
                        Ok(())
                    }
                    "call" => {
                        self.bump();
                        let callee = self.expect_ident()?;
                        let args = self.parse_arg_list(f)?;
                        self.expect(&Tok::Semi)?;
                        let callee = self.resolve_callee_name(f, &callee);
                        f.call(&[], &callee, &args);
                        Ok(())
                    }
                    _ => self.parse_assignment(f),
                }
            }
            other => {
                let found = other.cloned();
                self.err(format!("expected statement, found {found:?}"))
            }
        }
    }

    /// Unrolls `while (cond) { body }` as `unroll` nested `if (cond)`
    /// copies of the body (§6: each loop is unrolled twice by default).
    fn unroll_while(
        &mut self,
        f: &mut FuncBody<'_>,
        cond: CondExpr,
        body_start: usize,
        unroll: usize,
    ) -> Result<(), ParseError> {
        if unroll == 0 {
            return Ok(());
        }
        let (then_blk, else_blk, join_blk) = f.begin_branch(cond);
        f.switch_to(then_blk);
        self.pos = body_start;
        self.parse_block_into(f)?;
        self.unroll_while(f, cond, body_start, unroll - 1)?;
        f.seal_goto(join_blk);
        f.switch_to(else_blk);
        f.seal_goto(join_blk);
        f.switch_to(join_blk);
        Ok(())
    }

    fn parse_arg_list(
        &mut self,
        f: &mut FuncBody<'_>,
    ) -> Result<Vec<crate::ids::VarId>, ParseError> {
        self.expect(&Tok::LParen)?;
        let mut args = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                let a = self.expect_ident()?;
                args.push(f.var(&self.use_name(&a)));
                if self.peek() == Some(&Tok::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(args)
    }

    /// `x = <rhs>;` where rhs is one of: `alloc o`, `*y`, `null`,
    /// `taint`, `call f(..)`, `!y`, `-y`, `y op z`, `y`.
    fn parse_assignment(&mut self, f: &mut FuncBody<'_>) -> Result<(), ParseError> {
        let dst = self.expect_ident()?;
        self.expect(&Tok::Eq)?;
        match self.peek() {
            Some(Tok::Star) => {
                self.bump();
                let addr = self.expect_ident()?;
                self.expect(&Tok::Semi)?;
                let a = f.var(&self.use_name(&addr));
                let dst = self.def_name(&dst);
                f.load(&dst, a);
                Ok(())
            }
            Some(Tok::Bang) => {
                self.bump();
                let src = self.expect_ident()?;
                self.expect(&Tok::Semi)?;
                let s = f.var(&self.use_name(&src));
                let dst = self.def_name(&dst);
                f.un(&dst, UnOp::Not, s);
                Ok(())
            }
            Some(Tok::Minus) => {
                self.bump();
                let src = self.expect_ident()?;
                self.expect(&Tok::Semi)?;
                let s = f.var(&self.use_name(&src));
                let dst = self.def_name(&dst);
                f.un(&dst, UnOp::Neg, s);
                Ok(())
            }
            Some(Tok::Ident(kw)) => {
                let kw = kw.clone();
                match kw.as_str() {
                    "alloc" => {
                        self.bump();
                        let obj = self.expect_ident()?;
                        self.expect(&Tok::Semi)?;
                        let dst = self.def_name(&dst);
                        f.alloc(&dst, &obj);
                        Ok(())
                    }
                    "fnptr" => {
                        self.bump();
                        let fname = self.expect_ident()?;
                        self.expect(&Tok::Semi)?;
                        let Some(fid) = f.program().func_by_name(&fname) else {
                            return self.err(format!("unknown function `{fname}` in fnptr"));
                        };
                        let dst = self.def_name(&dst);
                        f.fn_addr(&dst, fid);
                        Ok(())
                    }
                    "null" => {
                        self.bump();
                        self.expect(&Tok::Semi)?;
                        let dst = self.def_name(&dst);
                        f.null(&dst);
                        Ok(())
                    }
                    "taint" => {
                        self.bump();
                        if self.peek() == Some(&Tok::LParen) {
                            self.bump();
                            self.expect(&Tok::RParen)?;
                        }
                        self.expect(&Tok::Semi)?;
                        let dst = self.def_name(&dst);
                        f.taint_source(&dst);
                        Ok(())
                    }
                    "call" => {
                        self.bump();
                        let callee = self.expect_ident()?;
                        let args = self.parse_arg_list(f)?;
                        self.expect(&Tok::Semi)?;
                        let callee = self.resolve_callee_name(f, &callee);
                        let dst = self.def_name(&dst);
                        f.call(&[&dst], &callee, &args);
                        Ok(())
                    }
                    _ => {
                        // copy or binop
                        let lhs_name = self.expect_ident()?;
                        let op = match self.peek() {
                            Some(Tok::Plus) => Some(BinOp::Add),
                            Some(Tok::Minus) => Some(BinOp::Sub),
                            Some(Tok::Amp) => Some(BinOp::And),
                            Some(Tok::Pipe) => Some(BinOp::Or),
                            Some(Tok::Gt) => Some(BinOp::Gt),
                            Some(Tok::EqEq) => Some(BinOp::Eq),
                            Some(Tok::BangEq) => Some(BinOp::Ne),
                            _ => None,
                        };
                        if let Some(op) = op {
                            self.bump();
                            let rhs_name = self.expect_ident()?;
                            self.expect(&Tok::Semi)?;
                            let l = f.var(&self.use_name(&lhs_name));
                            let r = f.var(&self.use_name(&rhs_name));
                            let dst = self.def_name(&dst);
                            f.bin(&dst, op, l, r);
                        } else {
                            self.expect(&Tok::Semi)?;
                            let s = f.var(&self.use_name(&lhs_name));
                            let dst = self.def_name(&dst);
                            f.copy(&dst, s);
                        }
                        Ok(())
                    }
                }
            }
            other => {
                let found = other.cloned();
                self.err(format!("expected rvalue, found {found:?}"))
            }
        }
    }
}

impl Parser {
    /// Registers a definition of `raw`, returning the versioned SSA name
    /// (`x` for the first definition, `x#2`, `x#3`, … for re-definitions,
    /// which arise when loop unrolling parses the same body twice).
    ///
    /// Versioning keeps parsed programs in partial SSA without full phi
    /// construction; at join points the textually last version stays
    /// visible, a soundiness choice in the spirit of §6.
    fn def_name(&mut self, raw: &str) -> String {
        let count = self.def_counts.entry(raw.to_string()).or_insert(0);
        *count += 1;
        let versioned = if *count == 1 {
            raw.to_string()
        } else {
            format!("{raw}#{count}")
        };
        self.current.insert(raw.to_string(), versioned.clone());
        versioned
    }

    /// Resolves a use of `raw` to its currently visible versioned name.
    fn use_name(&self, raw: &str) -> String {
        self.current
            .get(raw)
            .cloned()
            .unwrap_or_else(|| raw.to_string())
    }

    /// Resolves a callee name: function names pass through unchanged;
    /// anything else is treated as a function-pointer variable and
    /// resolved through the SSA renaming map.
    fn resolve_callee_name(&self, f: &FuncBody<'_>, name: &str) -> String {
        if f.program().func_by_name(name).is_some() {
            name.to_string()
        } else {
            self.use_name(name)
        }
    }

    #[allow(dead_code)]
    fn lookahead_is_eq(&self) -> bool {
        self.peek2() == Some(&Tok::Eq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Callee, Inst};

    #[test]
    fn parses_fig2_program() {
        let src = r#"
            fn main(a) {
                x = alloc o1;
                *x = a;
                fork t thread1(x);
                if (theta1) {
                    c = *x;
                    use c;
                }
            }
            fn thread1(y) {
                b = alloc o2;
                if (!theta1) {
                    *y = b;
                    free b;
                }
            }
        "#;
        let prog = parse(src).unwrap();
        prog.validate().unwrap();
        assert_eq!(prog.funcs.len(), 2);
        assert_eq!(prog.threads.len(), 2);
        assert_eq!(prog.free_sites().len(), 1);
        assert_eq!(prog.deref_sites().len(), 1);
        // `theta1` is one shared atom referenced by both functions.
        assert_eq!(prog.conds.len(), 1);
    }

    #[test]
    fn forward_function_references_resolve() {
        let src = r#"
            fn main() {
                p = alloc o;
                call helper(p);
            }
            fn helper(q) {
                use q;
            }
        "#;
        let prog = parse(src).unwrap();
        prog.validate().unwrap();
        let helper = prog.func_by_name("helper").unwrap();
        let call = prog
            .labels()
            .find(|&l| matches!(prog.inst(l), Inst::Call { .. }))
            .unwrap();
        assert!(
            matches!(prog.inst(call), Inst::Call { callee: Callee::Direct(f), .. } if *f == helper)
        );
    }

    #[test]
    fn while_unrolls_to_nested_ifs() {
        let src = r#"
            fn main() {
                p = alloc o;
                while (c) {
                    use p;
                }
            }
        "#;
        let prog = parse(src).unwrap();
        prog.validate().unwrap();
        assert_eq!(prog.deref_sites().len(), 2);
        assert!(prog.funcs.iter().all(super::super::Function::is_acyclic));
    }

    #[test]
    fn while_unroll_factor_respected() {
        let src = "fn main() { p = alloc o; while (c) { use p; } }";
        let prog = parse_with(src, &ParseOptions { loop_unroll: 4 }).unwrap();
        assert_eq!(prog.deref_sites().len(), 4);
    }

    #[test]
    fn if_else_both_arms_parse() {
        let src = r#"
            fn main() {
                p = alloc o;
                if (c) { free p; } else { use p; }
                skip;
            }
        "#;
        let prog = parse(src).unwrap();
        prog.validate().unwrap();
        assert_eq!(prog.free_sites().len(), 1);
        assert_eq!(prog.deref_sites().len(), 1);
    }

    #[test]
    fn binop_and_unop_parse() {
        let src = r#"
            fn main() {
                a = alloc o1;
                b = a;
                c = a + b;
                d = !c;
                e = a == b;
            }
        "#;
        let prog = parse(src).unwrap();
        prog.validate().unwrap();
        let kinds: Vec<_> = prog.labels().map(|l| prog.inst(l).clone()).collect();
        assert!(matches!(kinds[2], Inst::Bin { op: BinOp::Add, .. }));
        assert!(matches!(kinds[3], Inst::Un { op: UnOp::Not, .. }));
        assert!(matches!(kinds[4], Inst::Bin { op: BinOp::Eq, .. }));
    }

    #[test]
    fn taint_and_sync_statements_parse() {
        let src = r#"
            fn main() {
                m = alloc mu;
                lock m;
                s = taint;
                sink s;
                unlock m;
                wait m;
                notify m;
            }
        "#;
        let prog = parse(src).unwrap();
        prog.validate().unwrap();
        let has = |pred: fn(&Inst) -> bool| prog.labels().any(|l| pred(prog.inst(l)));
        assert!(has(|i| matches!(i, Inst::Lock { .. })));
        assert!(has(|i| matches!(i, Inst::Unlock { .. })));
        assert!(has(|i| matches!(i, Inst::TaintSource { .. })));
        assert!(has(|i| matches!(i, Inst::TaintSink { .. })));
        assert!(has(|i| matches!(i, Inst::Wait { .. })));
        assert!(has(|i| matches!(i, Inst::Notify { .. })));
    }

    #[test]
    fn error_reports_line_number() {
        let src = "fn main() {\n  p = alloc o;\n  bogus bogus bogus\n}";
        let err = parse(src).unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn comments_are_skipped() {
        let src = "// header\nfn main() { // trailing\n p = alloc o; // mid\n }";
        let prog = parse(src).unwrap();
        assert_eq!(prog.stmt_count(), 1);
    }

    #[test]
    fn missing_semicolon_is_an_error() {
        assert!(parse("fn main() { p = alloc o }").is_err());
    }

    #[test]
    fn unbalanced_brace_is_an_error() {
        assert!(parse("fn main() { if (c) { free p; }").is_err());
    }

    #[test]
    fn entry_defaults_to_main() {
        let src = "fn other() { skip; } fn main() { skip; }";
        let prog = parse(src).unwrap();
        assert_eq!(prog.entry, prog.func_by_name("main"));
    }
}
