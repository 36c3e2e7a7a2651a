//! Recursive-descent parser for the mini-C OpenMP dialect.

use crate::ast::*;
use crate::error::CompileError;
use crate::lexer::lex;
use crate::token::{Punct, Spanned, Token};

type Result<T> = std::result::Result<T, CompileError>;

/// How deeply source may nest. A statement, an expression (a
/// parenthesized one, an argument, an index, a condition, the right
/// side of an assignment), a unary operator and a cast each open one
/// level. Deeper input is a compile error rather than a stack overflow:
/// the parser and every walk over the AST recurse once per level. The
/// proxies and the examples nest at most 12 levels.
pub const MAX_NESTING: u32 = 256;

/// Parses a full translation unit.
pub fn parse_program(src: &str) -> Result<Program> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    p.program()
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Levels open at the current token (see [`MAX_NESTING`]).
    depth: u32,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Token {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn line(&self) -> usize {
        self.toks[self.pos].line
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> CompileError {
        CompileError::new(self.line(), msg)
    }

    /// Parses `f` one nesting level deeper, or fails at the current
    /// token when that would exceed [`MAX_NESTING`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Parser) -> Result<T>) -> Result<T> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let parsed = f(self);
        self.depth -= 1;
        parsed
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if *self.peek() == Token::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{p}`, found {:?}", self.peek())))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Token::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.bump() {
            Token::Ident(s) => Ok(s),
            t => Err(self.err(format!("expected identifier, found {t:?}"))),
        }
    }

    fn is_type_kw(t: &Token) -> bool {
        matches!(t, Token::Ident(s) if matches!(s.as_str(), "int" | "long" | "float" | "double" | "void" | "const"))
    }

    fn parse_base_type(&mut self) -> Result<CType> {
        let _ = self.eat_kw("const");
        let name = self.expect_ident()?;
        let base = match name.as_str() {
            "void" => CType::Void,
            "int" => CType::Int,
            "long" => CType::Long,
            "float" => CType::Float,
            "double" => CType::Double,
            other => return Err(self.err(format!("unknown type `{other}`"))),
        };
        if self.eat_punct(Punct::Star) {
            let elem = match base {
                CType::Int => ScalarType::Int,
                CType::Long => ScalarType::Long,
                CType::Float => ScalarType::Float,
                CType::Double => ScalarType::Double,
                CType::Void | CType::Ptr(_) => {
                    return Err(self.err("unsupported pointer type"));
                }
            };
            Ok(CType::Ptr(elem))
        } else {
            Ok(base)
        }
    }

    fn program(&mut self) -> Result<Program> {
        let mut decls = Vec::new();
        let mut pending_assumptions = Assumptions::default();
        loop {
            match self.peek() {
                Token::Eof => break,
                Token::Pragma(_) => {
                    let Token::Pragma(text) = self.bump() else {
                        unreachable!()
                    };
                    let a = parse_assume_pragma(&text).ok_or_else(|| {
                        self.err(format!("unsupported top-level pragma `{text}`"))
                    })?;
                    pending_assumptions.spmd_amenable |= a.spmd_amenable;
                    pending_assumptions.no_openmp |= a.no_openmp;
                    pending_assumptions.pure_fn |= a.pure_fn;
                }
                _ => {
                    let f = self.function(std::mem::take(&mut pending_assumptions))?;
                    decls.push(Decl::Func(f));
                }
            }
        }
        Ok(Program { decls })
    }

    fn function(&mut self, assumptions: Assumptions) -> Result<FuncDecl> {
        let line = self.line();
        let is_static = self.eat_kw("static");
        let ret = self.parse_base_type()?;
        let name = self.expect_ident()?;
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.eat_punct(Punct::RParen) {
            if self.eat_kw("void") && self.eat_punct(Punct::RParen) {
                // `(void)` parameter list
            } else {
                loop {
                    let noescape = self.eat_kw("noescape");
                    let ty = self.parse_base_type()?;
                    let pname = self.expect_ident()?;
                    // Array parameter `T x[]` decays to pointer.
                    let ty = if self.eat_punct(Punct::LBracket) {
                        self.expect_punct(Punct::RBracket)?;
                        match ty {
                            CType::Int => CType::Ptr(ScalarType::Int),
                            CType::Long => CType::Ptr(ScalarType::Long),
                            CType::Float => CType::Ptr(ScalarType::Float),
                            CType::Double => CType::Ptr(ScalarType::Double),
                            other => other,
                        }
                    } else {
                        ty
                    };
                    params.push(Param {
                        name: pname,
                        ty,
                        noescape,
                    });
                    if self.eat_punct(Punct::RParen) {
                        break;
                    }
                    self.expect_punct(Punct::Comma)?;
                }
            }
        }
        let body = if self.eat_punct(Punct::Semi) {
            None
        } else {
            Some(self.block()?)
        };
        Ok(FuncDecl {
            name,
            params,
            ret,
            body,
            is_static,
            assumptions,
            line,
        })
    }

    fn block(&mut self) -> Result<Stmt> {
        self.expect_punct(Punct::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            if matches!(self.peek(), Token::Eof) {
                return Err(self.err("unexpected end of input in block"));
            }
            stmts.push(self.stmt()?);
        }
        Ok(Stmt::Block(stmts))
    }

    fn stmt(&mut self) -> Result<Stmt> {
        self.nested(Self::stmt_inner)
    }

    fn stmt_inner(&mut self) -> Result<Stmt> {
        match self.peek().clone() {
            Token::Punct(Punct::LBrace) => self.block(),
            Token::Pragma(text) => {
                self.bump();
                self.omp_stmt(&text)
            }
            Token::Ident(kw) if kw == "if" => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let then_branch = Box::new(self.stmt()?);
                let else_branch = if self.eat_kw("else") {
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                Ok(Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                })
            }
            Token::Ident(kw) if kw == "while" => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::While { cond, body })
            }
            Token::Ident(kw) if kw == "for" => {
                self.bump();
                let header = self.canonical_loop_header()?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::For { header, body })
            }
            Token::Ident(kw) if kw == "return" => {
                self.bump();
                if self.eat_punct(Punct::Semi) {
                    Ok(Stmt::Return(None))
                } else {
                    let e = self.expr()?;
                    self.expect_punct(Punct::Semi)?;
                    Ok(Stmt::Return(Some(e)))
                }
            }
            Token::Ident(kw) if kw == "break" => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Break)
            }
            Token::Ident(kw) if kw == "continue" => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Continue)
            }
            ref t if Self::is_type_kw(t) => self.var_decl(),
            _ => {
                let e = self.expr()?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    fn var_decl(&mut self) -> Result<Stmt> {
        let ty = self.parse_base_type()?;
        let name = self.expect_ident()?;
        let array = if self.eat_punct(Punct::LBracket) {
            let n = match self.bump() {
                Token::Int(n) if n > 0 => n as u64,
                t => return Err(self.err(format!("array size must be a positive int, got {t:?}"))),
            };
            self.expect_punct(Punct::RBracket)?;
            Some(n)
        } else {
            None
        };
        let init = if self.eat_punct(Punct::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect_punct(Punct::Semi)?;
        if array.is_some() && init.is_some() {
            return Err(self.err("array initializers are not supported"));
        }
        Ok(Stmt::VarDecl {
            name,
            ty,
            array,
            init,
        })
    }

    /// Parses `(T i = lb; i < ub; i += s)` loop headers (canonical form).
    fn canonical_loop_header(&mut self) -> Result<CanonicalLoop> {
        self.expect_punct(Punct::LParen)?;
        let ty = self.parse_base_type()?;
        if !ty.is_int() {
            return Err(self.err("loop induction variable must be int or long"));
        }
        let var = self.expect_ident()?;
        self.expect_punct(Punct::Assign)?;
        let lb = self.expr()?;
        self.expect_punct(Punct::Semi)?;
        let cmp_var = self.expect_ident()?;
        if cmp_var != var {
            return Err(self.err("loop condition must test the induction variable"));
        }
        let inclusive = if self.eat_punct(Punct::Lt) {
            false
        } else if self.eat_punct(Punct::Le) {
            true
        } else {
            return Err(self.err("loop condition must be `<` or `<=`"));
        };
        let ub = self.expr()?;
        self.expect_punct(Punct::Semi)?;
        let step_var = self.expect_ident()?;
        if step_var != var {
            return Err(self.err("loop step must update the induction variable"));
        }
        let step = if self.eat_punct(Punct::PlusPlus) {
            Expr::Int(1)
        } else if self.eat_punct(Punct::PlusAssign) {
            self.expr()?
        } else {
            return Err(self.err("loop step must be `++` or `+=`"));
        };
        self.expect_punct(Punct::RParen)?;
        Ok(CanonicalLoop {
            var,
            ty,
            lb,
            ub,
            inclusive,
            step,
        })
    }

    fn omp_stmt(&mut self, text: &str) -> Result<Stmt> {
        let d = parse_directive(text).ok_or_else(|| {
            self.err(format!("unsupported OpenMP directive `#pragma omp {text}`"))
        })?;
        match d {
            d @ (OmpDirective::Barrier | OmpDirective::Taskwait) => Ok(Stmt::Omp {
                directive: d,
                body: None,
            }),
            directive => {
                let body = Box::new(self.stmt()?);
                // Worksharing variants require a canonical loop body.
                let needs_loop = match &directive {
                    OmpDirective::Target {
                        distribute,
                        for_loop,
                        ..
                    } => *distribute || *for_loop,
                    OmpDirective::Parallel { for_loop, .. } => *for_loop,
                    OmpDirective::Barrier | OmpDirective::Taskwait | OmpDirective::Taskgraph => {
                        false
                    }
                };
                if needs_loop && !matches!(*body, Stmt::For { .. }) {
                    return Err(self.err("worksharing directive must be followed by a for loop"));
                }
                Ok(Stmt::Omp {
                    directive,
                    body: Some(body),
                })
            }
        }
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<Expr> {
        self.nested(Self::assignment)
    }

    fn assignment(&mut self) -> Result<Expr> {
        let lhs = self.logical_or()?;
        let op = match self.peek() {
            Token::Punct(Punct::Assign) => Some(None),
            Token::Punct(Punct::PlusAssign) => Some(Some(BinaryOp::Add)),
            Token::Punct(Punct::MinusAssign) => Some(Some(BinaryOp::Sub)),
            Token::Punct(Punct::StarAssign) => Some(Some(BinaryOp::Mul)),
            Token::Punct(Punct::SlashAssign) => Some(Some(BinaryOp::Div)),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.expr()?;
            return Ok(Expr::Assign {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        Ok(lhs)
    }

    fn logical_or(&mut self) -> Result<Expr> {
        let mut e = self.logical_and()?;
        while self.eat_punct(Punct::OrOr) {
            let r = self.logical_and()?;
            e = Expr::Binary {
                op: BinaryOp::LogicalOr,
                lhs: Box::new(e),
                rhs: Box::new(r),
            };
        }
        Ok(e)
    }

    fn logical_and(&mut self) -> Result<Expr> {
        let mut e = self.bit_or()?;
        while self.eat_punct(Punct::AndAnd) {
            let r = self.bit_or()?;
            e = Expr::Binary {
                op: BinaryOp::LogicalAnd,
                lhs: Box::new(e),
                rhs: Box::new(r),
            };
        }
        Ok(e)
    }

    fn bit_or(&mut self) -> Result<Expr> {
        let mut e = self.bit_xor()?;
        while self.eat_punct(Punct::Pipe) {
            let r = self.bit_xor()?;
            e = Expr::Binary {
                op: BinaryOp::Or,
                lhs: Box::new(e),
                rhs: Box::new(r),
            };
        }
        Ok(e)
    }

    fn bit_xor(&mut self) -> Result<Expr> {
        let mut e = self.bit_and()?;
        while self.eat_punct(Punct::Caret) {
            let r = self.bit_and()?;
            e = Expr::Binary {
                op: BinaryOp::Xor,
                lhs: Box::new(e),
                rhs: Box::new(r),
            };
        }
        Ok(e)
    }

    fn bit_and(&mut self) -> Result<Expr> {
        let mut e = self.equality()?;
        while *self.peek() == Token::Punct(Punct::Amp) && *self.peek2() != Token::Punct(Punct::Amp)
        {
            self.bump();
            let r = self.equality()?;
            e = Expr::Binary {
                op: BinaryOp::And,
                lhs: Box::new(e),
                rhs: Box::new(r),
            };
        }
        Ok(e)
    }

    fn equality(&mut self) -> Result<Expr> {
        let mut e = self.relational()?;
        loop {
            let op = if self.eat_punct(Punct::Eq) {
                BinaryOp::Eq
            } else if self.eat_punct(Punct::Ne) {
                BinaryOp::Ne
            } else {
                break;
            };
            let r = self.relational()?;
            e = Expr::Binary {
                op,
                lhs: Box::new(e),
                rhs: Box::new(r),
            };
        }
        Ok(e)
    }

    fn relational(&mut self) -> Result<Expr> {
        let mut e = self.shift()?;
        loop {
            let op = if self.eat_punct(Punct::Lt) {
                BinaryOp::Lt
            } else if self.eat_punct(Punct::Le) {
                BinaryOp::Le
            } else if self.eat_punct(Punct::Gt) {
                BinaryOp::Gt
            } else if self.eat_punct(Punct::Ge) {
                BinaryOp::Ge
            } else {
                break;
            };
            let r = self.shift()?;
            e = Expr::Binary {
                op,
                lhs: Box::new(e),
                rhs: Box::new(r),
            };
        }
        Ok(e)
    }

    fn shift(&mut self) -> Result<Expr> {
        let mut e = self.additive()?;
        loop {
            let op = if self.eat_punct(Punct::Shl) {
                BinaryOp::Shl
            } else if self.eat_punct(Punct::Shr) {
                BinaryOp::Shr
            } else {
                break;
            };
            let r = self.additive()?;
            e = Expr::Binary {
                op,
                lhs: Box::new(e),
                rhs: Box::new(r),
            };
        }
        Ok(e)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut e = self.multiplicative()?;
        loop {
            let op = if self.eat_punct(Punct::Plus) {
                BinaryOp::Add
            } else if self.eat_punct(Punct::Minus) {
                BinaryOp::Sub
            } else {
                break;
            };
            let r = self.multiplicative()?;
            e = Expr::Binary {
                op,
                lhs: Box::new(e),
                rhs: Box::new(r),
            };
        }
        Ok(e)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut e = self.unary()?;
        loop {
            let op = if self.eat_punct(Punct::Star) {
                BinaryOp::Mul
            } else if self.eat_punct(Punct::Slash) {
                BinaryOp::Div
            } else if self.eat_punct(Punct::Percent) {
                BinaryOp::Rem
            } else {
                break;
            };
            let r = self.unary()?;
            e = Expr::Binary {
                op,
                lhs: Box::new(e),
                rhs: Box::new(r),
            };
        }
        Ok(e)
    }

    fn unary(&mut self) -> Result<Expr> {
        let op = if self.eat_punct(Punct::Minus) {
            Some(UnaryOp::Neg)
        } else if self.eat_punct(Punct::Bang) {
            Some(UnaryOp::Not)
        } else if self.eat_punct(Punct::Tilde) {
            Some(UnaryOp::BitNot)
        } else if *self.peek() == Token::Punct(Punct::Star) {
            self.bump();
            Some(UnaryOp::Deref)
        } else if *self.peek() == Token::Punct(Punct::Amp) {
            self.bump();
            Some(UnaryOp::Addr)
        } else {
            None
        };
        if let Some(op) = op {
            let e = self.nested(Self::unary)?;
            return Ok(Expr::Unary {
                op,
                expr: Box::new(e),
            });
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr> {
        let mut e = self.primary()?;
        while self.eat_punct(Punct::LBracket) {
            let idx = self.expr()?;
            self.expect_punct(Punct::RBracket)?;
            e = Expr::Index {
                base: Box::new(e),
                idx: Box::new(idx),
            };
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.bump() {
            Token::Int(v) => Ok(Expr::Int(v)),
            Token::Float(v) => Ok(Expr::Float(v)),
            Token::Ident(name) => {
                if self.eat_punct(Punct::LParen) {
                    let mut args = Vec::new();
                    if !self.eat_punct(Punct::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.eat_punct(Punct::RParen) {
                                break;
                            }
                            self.expect_punct(Punct::Comma)?;
                        }
                    }
                    Ok(Expr::Call { name, args })
                } else {
                    Ok(Expr::Ident(name))
                }
            }
            Token::Punct(Punct::LParen) => {
                // Cast or parenthesized expression.
                if Self::is_type_kw(self.peek()) {
                    let ty = self.parse_base_type()?;
                    self.expect_punct(Punct::RParen)?;
                    let e = self.nested(Self::unary)?;
                    Ok(Expr::Cast {
                        ty,
                        expr: Box::new(e),
                    })
                } else {
                    let e = self.expr()?;
                    self.expect_punct(Punct::RParen)?;
                    Ok(e)
                }
            }
            t => Err(self.err(format!("unexpected token {t:?} in expression"))),
        }
    }
}

/// Parses a `#pragma omp assume ...` payload.
fn parse_assume_pragma(text: &str) -> Option<Assumptions> {
    let rest = text.strip_prefix("assume")?.trim();
    let mut a = Assumptions::default();
    for word in rest.split_whitespace() {
        match word {
            "ext_spmd_amenable" => a.spmd_amenable = true,
            "ext_no_openmp" => a.no_openmp = true,
            "pure" => a.pure_fn = true,
            _ => return None,
        }
    }
    Some(a)
}

/// Parses the payload of one `depend(kind: a, b, ...)` clause.
fn parse_depend_items(payload: &str) -> Option<Vec<(DependKind, String)>> {
    let (kind, vars) = payload.split_once(':')?;
    let kind = DependKind::parse(kind.trim())?;
    let mut items = Vec::new();
    for v in vars.split(',') {
        let v = v.trim();
        if v.is_empty() || !v.chars().all(|c| c.is_alphanumeric() || c == '_') {
            return None;
        }
        items.push((kind, v.to_string()));
    }
    if items.is_empty() {
        return None;
    }
    Some(items)
}

/// Parses an executable OpenMP directive payload.
fn parse_directive(text: &str) -> Option<OmpDirective> {
    let mut words: Vec<&str> = Vec::new();
    // `name(payload)` clauses with the raw payload text.
    let mut clauses: Vec<(&str, &str)> = Vec::new();
    let mut rest = text.trim();
    while !rest.is_empty() {
        let end = rest.find([' ', '(']).unwrap_or(rest.len());
        let word = &rest[..end];
        rest = rest[end..].trim_start();
        if let Some(r) = rest.strip_prefix('(') {
            let close = r.find(')')?;
            clauses.push((word, r[..close].trim()));
            rest = r[close + 1..].trim_start();
        } else if !word.is_empty() {
            words.push(word);
        } else {
            break;
        }
    }
    // Numeric clauses (`num_teams(8)`) must parse as u32.
    let clause = |name: &str| -> Option<u32> {
        clauses
            .iter()
            .find(|(w, _)| *w == name)
            .and_then(|&(_, p)| p.parse().ok())
    };
    match *words.first()? {
        "barrier" if words.len() == 1 && clauses.is_empty() => Some(OmpDirective::Barrier),
        "taskwait" if words.len() == 1 && clauses.is_empty() => Some(OmpDirective::Taskwait),
        "taskgraph" if words.len() == 1 && clauses.is_empty() => Some(OmpDirective::Taskgraph),
        "target" => {
            let mut teams = false;
            let mut distribute = false;
            let mut parallel = false;
            let mut for_loop = false;
            let mut nowait = false;
            for w in &words[1..] {
                match *w {
                    "teams" => teams = true,
                    "distribute" => distribute = true,
                    "parallel" => parallel = true,
                    "for" => for_loop = true,
                    "nowait" => nowait = true,
                    _ => return None,
                }
            }
            if distribute && !teams {
                return None; // distribute requires teams
            }
            if for_loop && !parallel {
                return None; // `target for` alone is unsupported
            }
            if distribute && !(parallel && for_loop) && (parallel || for_loop) {
                return None; // distribute combines only with `parallel for`
            }
            // Every numeric clause payload must actually be numeric,
            // and `depend` payloads must be well-formed.
            let mut depends = Vec::new();
            for &(w, p) in &clauses {
                match w {
                    "num_teams" | "thread_limit" => {
                        let _: u32 = p.parse().ok()?;
                    }
                    "depend" => depends.extend(parse_depend_items(p)?),
                    _ => return None,
                }
            }
            Some(OmpDirective::Target {
                teams,
                distribute,
                parallel,
                for_loop,
                num_teams: clause("num_teams"),
                thread_limit: clause("thread_limit"),
                nowait,
                depends,
            })
        }
        "parallel" => {
            let mut for_loop = false;
            for w in &words[1..] {
                match *w {
                    "for" => for_loop = true,
                    _ => return None,
                }
            }
            for &(w, p) in &clauses {
                match w {
                    "num_threads" => {
                        let _: u32 = p.parse().ok()?;
                    }
                    _ => return None,
                }
            }
            Some(OmpDirective::Parallel {
                for_loop,
                num_threads: clause("num_threads"),
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_function() {
        let p = parse_program("int add(int a, int b) { return a + b * 2; }").unwrap();
        assert_eq!(p.decls.len(), 1);
        let f = p.func("add").unwrap();
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.ret, CType::Int);
        assert!(f.body.is_some());
    }

    #[test]
    fn parses_declaration_and_noescape() {
        let p = parse_program("void combine(noescape double* a, double* b);").unwrap();
        let f = p.func("combine").unwrap();
        assert!(f.body.is_none());
        assert!(f.params[0].noescape);
        assert!(!f.params[1].noescape);
        assert_eq!(f.params[0].ty, CType::Ptr(ScalarType::Double));
    }

    #[test]
    fn parses_target_teams_distribute() {
        let src = r#"
void kern(double* a, long n) {
  #pragma omp target teams distribute num_teams(8) thread_limit(128)
  for (long i = 0; i < n; i++) {
    a[i] = 1.0;
  }
}
"#;
        let p = parse_program(src).unwrap();
        let f = p.func("kern").unwrap();
        let Stmt::Block(stmts) = f.body.as_ref().unwrap() else {
            panic!()
        };
        let Stmt::Omp { directive, body } = &stmts[0] else {
            panic!("{stmts:?}")
        };
        assert_eq!(
            *directive,
            OmpDirective::Target {
                teams: true,
                distribute: true,
                parallel: false,
                for_loop: false,
                num_teams: Some(8),
                thread_limit: Some(128),
                nowait: false,
                depends: vec![],
            }
        );
        assert!(matches!(**body.as_ref().unwrap(), Stmt::For { .. }));
    }

    #[test]
    fn parses_nested_parallel_for() {
        let src = r#"
void f() {
  #pragma omp parallel for num_threads(64)
  for (int i = 0; i < 100; i++) { }
}
"#;
        let p = parse_program(src).unwrap();
        let f = p.func("f").unwrap();
        let Stmt::Block(stmts) = f.body.as_ref().unwrap() else {
            panic!()
        };
        assert!(matches!(
            &stmts[0],
            Stmt::Omp {
                directive: OmpDirective::Parallel {
                    for_loop: true,
                    num_threads: Some(64)
                },
                ..
            }
        ));
    }

    #[test]
    fn parses_barrier_and_assume() {
        let src = r#"
#pragma omp assume ext_spmd_amenable
void helper(double* x);
void f() {
  #pragma omp barrier
}
"#;
        let p = parse_program(src).unwrap();
        assert!(p.func("helper").unwrap().assumptions.spmd_amenable);
        let f = p.func("f").unwrap();
        let Stmt::Block(stmts) = f.body.as_ref().unwrap() else {
            panic!()
        };
        assert!(matches!(
            &stmts[0],
            Stmt::Omp {
                directive: OmpDirective::Barrier,
                body: None
            }
        ));
    }

    #[test]
    fn canonical_loop_variants() {
        let p = parse_program("void f(long n) { for (long i = 2; i <= n; i += 3) { } }").unwrap();
        let f = p.func("f").unwrap();
        let Stmt::Block(stmts) = f.body.as_ref().unwrap() else {
            panic!()
        };
        let Stmt::For { header, .. } = &stmts[0] else {
            panic!()
        };
        assert_eq!(header.var, "i");
        assert!(header.inclusive);
        assert_eq!(header.step, Expr::Int(3));
        assert_eq!(header.lb, Expr::Int(2));
    }

    #[test]
    fn rejects_non_canonical_loops() {
        assert!(parse_program("void f() { for (int i = 0; 1 < 2; i++) {} }").is_err());
        assert!(parse_program("void f() { for (int i = 0; i > 2; i++) {} }").is_err());
        assert!(parse_program("void f() { for (int i = 0; i < 2; i -= 1) {} }").is_err());
        assert!(parse_program("void f(double x) { for (double i = 0; i < x; i++) {} }").is_err());
    }

    #[test]
    fn rejects_bad_pragmas() {
        assert!(
            parse_program("void f() {\n#pragma omp target simd\nfor(int i=0;i<1;i++){} }").is_err()
        );
        assert!(
            parse_program("void f() {\n#pragma omp parallel for\nint x = 0; }").is_err(),
            "worksharing without loop must be rejected"
        );
    }

    #[test]
    fn expressions_precedence_and_casts() {
        let p = parse_program("double f(double* a, int i) { return (double)i * a[i + 1] + 2.0; }")
            .unwrap();
        let f = p.func("f").unwrap();
        let Stmt::Block(stmts) = f.body.as_ref().unwrap() else {
            panic!()
        };
        let Stmt::Return(Some(Expr::Binary { op, lhs, .. })) = &stmts[0] else {
            panic!("{stmts:?}")
        };
        assert_eq!(*op, BinaryOp::Add);
        assert!(matches!(
            **lhs,
            Expr::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn address_of_and_deref() {
        let p = parse_program("void f(double* p) { double x = *p; combine(&x); }").unwrap();
        let f = p.func("f").unwrap();
        let Stmt::Block(stmts) = f.body.as_ref().unwrap() else {
            panic!()
        };
        assert!(matches!(
            &stmts[0],
            Stmt::VarDecl {
                init: Some(Expr::Unary {
                    op: UnaryOp::Deref,
                    ..
                }),
                ..
            }
        ));
        let Stmt::Expr(Expr::Call { args, .. }) = &stmts[1] else {
            panic!()
        };
        assert!(matches!(
            args[0],
            Expr::Unary {
                op: UnaryOp::Addr,
                ..
            }
        ));
    }

    #[test]
    fn logical_ops_and_bitand_disambiguation() {
        let p = parse_program("int f(int a, int b) { return a && b & 3 || !a; }");
        assert!(p.is_ok());
    }

    #[test]
    fn local_arrays() {
        let p = parse_program("void f() { double buf[16]; buf[0] = 1.0; }").unwrap();
        let f = p.func("f").unwrap();
        let Stmt::Block(stmts) = f.body.as_ref().unwrap() else {
            panic!()
        };
        assert!(matches!(
            &stmts[0],
            Stmt::VarDecl {
                array: Some(16),
                ..
            }
        ));
    }
}
