//! Recursive-descent parser for the mini-C OpenMP dialect.

use crate::ast::*;
use crate::error::CompileError;
use crate::lexer::lex;
use crate::token::{Punct, Spanned, Token};

type Result<T> = std::result::Result<T, CompileError>;

/// How deeply source may nest: a bound on the height of the syntax
/// tree. A statement, an expression (a parenthesized one, an argument,
/// an index, a condition, the right side of an assignment or of a
/// binary operator), a unary operator and a cast each open one level,
/// and a binary operator, an assignment or an index pushes its left
/// operand, however tall, one level further down. Deeper input is a
/// compile error rather than a stack overflow: the parser, `ast::walk`,
/// lowering and dropping the tree recurse once per level. The proxies,
/// the examples and the test fixtures nest at most 15 levels.
pub const MAX_NESTING: u32 = 256;

/// Parses a full translation unit.
pub fn parse_program(src: &str) -> Result<Program> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
        peak: 0,
    };
    p.program()
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Levels open at the current token (see [`MAX_NESTING`]).
    depth: u32,
    /// The level of the deepest node of the expression being parsed,
    /// whose root sits at `depth`.
    peak: u32,
}

/// An operator between two operands: a binary operator, or an
/// assignment (`None` for `=`, the compound operator for `+=` etc.).
#[derive(Clone, Copy)]
enum Infix {
    Binary(BinaryOp),
    Assign(Option<BinaryOp>),
}

impl Infix {
    fn apply(self, lhs: Expr, rhs: Expr) -> Expr {
        let (lhs, rhs) = (Box::new(lhs), Box::new(rhs));
        match self {
            Infix::Binary(op) => Expr::Binary { op, lhs, rhs },
            Infix::Assign(op) => Expr::Assign { op, lhs, rhs },
        }
    }
}

/// Every [`Infix`] operator with its C precedence (higher binds
/// tighter).
const INFIX: [(Punct, u8, Infix); 23] = {
    use BinaryOp::*;
    use Infix::{Assign as A, Binary as B};
    [
        (Punct::Assign, 0, A(None)),
        (Punct::PlusAssign, 0, A(Some(Add))),
        (Punct::MinusAssign, 0, A(Some(Sub))),
        (Punct::StarAssign, 0, A(Some(Mul))),
        (Punct::SlashAssign, 0, A(Some(Div))),
        (Punct::OrOr, 1, B(LogicalOr)),
        (Punct::AndAnd, 2, B(LogicalAnd)),
        (Punct::Pipe, 3, B(Or)),
        (Punct::Caret, 4, B(Xor)),
        (Punct::Amp, 5, B(And)),
        (Punct::Eq, 6, B(Eq)),
        (Punct::Ne, 6, B(Ne)),
        (Punct::Lt, 7, B(Lt)),
        (Punct::Le, 7, B(Le)),
        (Punct::Gt, 7, B(Gt)),
        (Punct::Ge, 7, B(Ge)),
        (Punct::Shl, 8, B(Shl)),
        (Punct::Shr, 8, B(Shr)),
        (Punct::Plus, 9, B(Add)),
        (Punct::Minus, 9, B(Sub)),
        (Punct::Star, 10, B(Mul)),
        (Punct::Slash, 10, B(Div)),
        (Punct::Percent, 10, B(Rem)),
    ]
};

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
            return Err(self.too_deep());
        }
        self.depth += 1;
        self.peak = self.peak.max(self.depth);
        let parsed = f(self);
        self.depth -= 1;
        parsed
    }

    /// Pushes the operand parsed so far one level down, under the
    /// operator at the current token, or fails when its deepest node
    /// would pass [`MAX_NESTING`].
    fn push_down(&mut self) -> Result<()> {
        if self.peak == MAX_NESTING {
            return Err(self.too_deep());
        }
        self.peak += 1;
        Ok(())
    }

    fn too_deep(&self) -> CompileError {
        self.err(format!("nesting deeper than {MAX_NESTING} levels"))
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
        self.nested(|p| p.binary(0))
    }

    /// Parses a chain of [`INFIX`] operators that bind at least as
    /// tightly as `min`. Each operator pushes the operand built so far
    /// one level down (see [`MAX_NESTING`]).
    fn binary(&mut self, min: u8) -> Result<Expr> {
        let outer = std::mem::replace(&mut self.peak, self.depth);
        let mut lhs = self.unary()?;
        while let Some((prec, op)) = self.infix(min) {
            self.push_down()?;
            self.bump();
            // Assignments group to the right, every other operator to
            // the left.
            let next = match op {
                Infix::Assign(_) => prec,
                Infix::Binary(_) => prec + 1,
            };
            let rhs = self.nested(|p| p.binary(next))?;
            lhs = op.apply(lhs, rhs);
        }
        self.peak = self.peak.max(outer);
        Ok(lhs)
    }

    /// The operator at the current token and its precedence, if it is
    /// in [`INFIX`] and binds at least as tightly as `min`. A `&`
    /// followed by another `&` is not a binary `&`.
    fn infix(&self, min: u8) -> Option<(u8, Infix)> {
        let Token::Punct(p) = *self.peek() else {
            return None;
        };
        if p == Punct::Amp && *self.peek2() == Token::Punct(Punct::Amp) {
            return None;
        }
        INFIX
            .iter()
            .find(|row| row.0 == p && row.1 >= min)
            .map(|&(_, prec, op)| (prec, op))
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
        while *self.peek() == Token::Punct(Punct::LBracket) {
            self.push_down()?;
            self.bump();
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

    /// The expression of `int f(int a, int b, int c) { return EXPR; }`.
    fn returned(expr: &str) -> Expr {
        let src = format!("int f(int a, int b, int c) {{ return {expr}; }}");
        let p = parse_program(&src).unwrap_or_else(|e| panic!("{expr}: {e:?}"));
        let Some(Stmt::Block(mut stmts)) = p.decls.into_iter().find_map(|Decl::Func(f)| f.body)
        else {
            panic!("{expr}: no body")
        };
        let Some(Stmt::Return(Some(e))) = stmts.pop() else {
            panic!("{expr}: no return")
        };
        e
    }

    fn ident(n: &str) -> Box<Expr> {
        Box::new(Expr::Ident(n.into()))
    }

    fn bin(op: BinaryOp, lhs: Box<Expr>, rhs: Box<Expr>) -> Box<Expr> {
        Box::new(Expr::Binary { op, lhs, rhs })
    }

    /// `a o1 b o2 c` groups as in C for every ordered pair of binary
    /// operators: the tighter operator binds first and equal ones
    /// associate to the left.
    #[test]
    fn binary_operators_group_as_in_c() {
        use BinaryOp::*;
        // C's binary precedence levels, loosest first.
        let levels: [&[(BinaryOp, &str)]; 10] = [
            &[(LogicalOr, "||")],
            &[(LogicalAnd, "&&")],
            &[(Or, "|")],
            &[(Xor, "^")],
            &[(And, "&")],
            &[(Eq, "=="), (Ne, "!=")],
            &[(Lt, "<"), (Le, "<="), (Gt, ">"), (Ge, ">=")],
            &[(Shl, "<<"), (Shr, ">>")],
            &[(Add, "+"), (Sub, "-")],
            &[(Mul, "*"), (Div, "/"), (Rem, "%")],
        ];
        let ops: Vec<(BinaryOp, &str, usize)> = levels
            .iter()
            .enumerate()
            .flat_map(|(prec, ops)| ops.iter().map(move |&(op, s)| (op, s, prec)))
            .collect();
        assert_eq!(ops.len(), 18);
        for &(o1, s1, p1) in &ops {
            for &(o2, s2, p2) in &ops {
                let want = if p1 >= p2 {
                    bin(o2, bin(o1, ident("a"), ident("b")), ident("c"))
                } else {
                    bin(o1, ident("a"), bin(o2, ident("b"), ident("c")))
                };
                let src = format!("a {s1} b {s2} c");
                assert_eq!(returned(&src), *want, "{src}");
            }
        }
    }

    #[test]
    fn prefix_operators_casts_and_assignments_bind_as_in_c() {
        let neg_a = Box::new(Expr::Unary {
            op: UnaryOp::Neg,
            expr: ident("a"),
        });
        assert_eq!(returned("-a * b"), *bin(BinaryOp::Mul, neg_a, ident("b")));
        let long_a = Box::new(Expr::Cast {
            ty: CType::Long,
            expr: ident("a"),
        });
        assert_eq!(
            returned("(long)a + b"),
            *bin(BinaryOp::Add, long_a, ident("b"))
        );
        let assign = |op, lhs, rhs| Box::new(Expr::Assign { op, lhs, rhs });
        assert_eq!(
            returned("a = b += c * a"),
            *assign(
                None,
                ident("a"),
                assign(
                    Some(BinaryOp::Add),
                    ident("b"),
                    bin(BinaryOp::Mul, ident("c"), ident("a"))
                )
            )
        );
        assert_eq!(
            returned("a || b = c"),
            *assign(
                None,
                bin(BinaryOp::LogicalOr, ident("a"), ident("b")),
                ident("c")
            )
        );
        // A `&` followed by another `&` is never a binary `&`: the
        // second would have to start an operand, and `a & &b` is an
        // error rather than `a & (&b)`.
        let err = parse_program("int f(int a, int b) { return a & &b; }").unwrap_err();
        assert_eq!(err.message, "expected `;`, found Punct(Amp)");
        assert_eq!(
            returned("a & b && c"),
            *bin(
                BinaryOp::LogicalAnd,
                bin(BinaryOp::And, ident("a"), ident("b")),
                ident("c")
            )
        );
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
