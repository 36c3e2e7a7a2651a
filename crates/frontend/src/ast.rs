//! Abstract syntax tree of the mini-C OpenMP dialect, and the one
//! traversal the frontend's analyses walk it with.

use crate::parser::MAX_NESTING;

/// Scalar and pointer types of the source language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CType {
    /// `void` (function returns only).
    Void,
    /// `int` — 32-bit signed.
    Int,
    /// `long` — 64-bit signed.
    Long,
    /// `float` — 32-bit IEEE.
    Float,
    /// `double` — 64-bit IEEE.
    Double,
    /// Pointer to an element type.
    Ptr(ScalarType),
}

/// Element types that pointers/arrays can have (no pointer-to-pointer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarType {
    Int,
    Long,
    Float,
    Double,
}

impl ScalarType {
    /// Size in bytes.
    pub fn size(self) -> u64 {
        match self {
            ScalarType::Int | ScalarType::Float => 4,
            ScalarType::Long | ScalarType::Double => 8,
        }
    }

    /// The corresponding expression type.
    pub fn ctype(self) -> CType {
        match self {
            ScalarType::Int => CType::Int,
            ScalarType::Long => CType::Long,
            ScalarType::Float => CType::Float,
            ScalarType::Double => CType::Double,
        }
    }
}

impl CType {
    /// Size of a value of this type in bytes.
    pub fn size(self) -> u64 {
        match self {
            CType::Void => 0,
            CType::Int | CType::Float => 4,
            CType::Long | CType::Double | CType::Ptr(_) => 8,
        }
    }

    /// Whether this is an integer type.
    pub fn is_int(self) -> bool {
        matches!(self, CType::Int | CType::Long)
    }

    /// Whether this is a floating-point type.
    pub fn is_float(self) -> bool {
        matches!(self, CType::Float | CType::Double)
    }
}

/// Binary operators (source level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    LogicalAnd,
    LogicalOr,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (`!`).
    Not,
    /// Bitwise not (`~`).
    BitNot,
    /// Dereference (`*p`).
    Deref,
    /// Address-of (`&x`).
    Addr,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Floating literal.
    Float(f64),
    /// Variable reference.
    Ident(String),
    /// Binary operation.
    Binary {
        op: BinaryOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary { op: UnaryOp, expr: Box<Expr> },
    /// Assignment; `op` is `None` for `=` and the compound operator for
    /// `+=` etc. The left side must be an lvalue.
    Assign {
        op: Option<BinaryOp>,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Function call.
    Call { name: String, args: Vec<Expr> },
    /// Array/pointer indexing `base[idx]`.
    Index { base: Box<Expr>, idx: Box<Expr> },
    /// Explicit cast `(type)expr`.
    Cast { ty: CType, expr: Box<Expr> },
}

/// A canonical loop header `for (T i = lb; i < ub; i += step)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalLoop {
    /// Induction variable name.
    pub var: String,
    /// Induction variable type (`Int` or `Long`).
    pub ty: CType,
    /// Lower bound (inclusive).
    pub lb: Expr,
    /// Upper bound (exclusive when `inclusive` is false).
    pub ub: Expr,
    /// Whether the comparison was `<=` (inclusive upper bound).
    pub inclusive: bool,
    /// Step (positive constant or expression).
    pub step: Expr,
}

/// Dependence kind of one `depend(...)` clause (re-exported from the
/// IR so the frontend and simulator agree on the spelling).
pub use omp_ir::DependKind;

/// An OpenMP directive attached to a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum OmpDirective {
    /// `#pragma omp target [teams] [distribute] [parallel for] ...`
    Target {
        /// `teams` was present (a league of teams; without it the
        /// target region runs on a single team).
        teams: bool,
        /// `distribute` was present (worksharing across teams).
        distribute: bool,
        /// Combined `parallel [for]` — SPMD lowering.
        parallel: bool,
        /// Combined `for` (requires `parallel`).
        for_loop: bool,
        /// `num_teams(N)` clause.
        num_teams: Option<u32>,
        /// `thread_limit(N)` clause.
        thread_limit: Option<u32>,
        /// `nowait` clause: the host does not wait for the region.
        nowait: bool,
        /// `depend(kind: var, ...)` clause items, in source order.
        depends: Vec<(DependKind, String)>,
    },
    /// `#pragma omp parallel [for] [num_threads(N)]`
    Parallel {
        /// Worksharing `for` variant.
        for_loop: bool,
        /// `num_threads(N)` clause.
        num_threads: Option<u32>,
    },
    /// `#pragma omp barrier`
    Barrier,
    /// `#pragma omp taskwait` — host-side fence: wait for every
    /// outstanding `nowait` target region.
    Taskwait,
    /// `#pragma omp taskgraph { ... }` — a capture-and-replay region:
    /// the enclosed target launches are recorded as a dependency graph
    /// on first execution and replayed afterwards.
    Taskgraph,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `{ ... }`
    Block(Vec<Stmt>),
    /// Local variable declaration, possibly an array.
    VarDecl {
        name: String,
        ty: CType,
        /// `Some(n)`: a local array `T name[n]` of the scalar type.
        array: Option<u64>,
        init: Option<Expr>,
    },
    /// Expression statement.
    Expr(Expr),
    /// `if (cond) then [else]`
    If {
        cond: Expr,
        then_branch: Box<Stmt>,
        else_branch: Option<Box<Stmt>>,
    },
    /// A canonical counted loop.
    For {
        header: CanonicalLoop,
        body: Box<Stmt>,
    },
    /// `while (cond) body`
    While { cond: Expr, body: Box<Stmt> },
    /// `return [expr];`
    Return(Option<Expr>),
    /// Statement with an OpenMP directive attached.
    Omp {
        directive: OmpDirective,
        body: Option<Box<Stmt>>,
    },
    /// `break;` (innermost loop only)
    Break,
    /// `continue;`
    Continue,
}

impl Expr {
    /// Calls `f` on each direct subexpression, in source order.
    pub(crate) fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Expr)) {
        match self {
            Expr::Int(_) | Expr::Float(_) | Expr::Ident(_) => {}
            Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => f(expr),
            Expr::Call { args, .. } => args.iter().for_each(f),
            Expr::Index { base, idx } => {
                f(base);
                f(idx);
            }
        }
    }
}

/// A statement or an expression: a node of a function body.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Node<'a> {
    Stmt(&'a Stmt),
    Expr(&'a Expr),
}

impl Stmt {
    /// Calls `f` on each direct child statement and expression, in
    /// source order: a loop's bounds and step come before its body.
    pub(crate) fn for_each_child<'a>(&'a self, mut f: impl FnMut(Node<'a>)) {
        match self {
            Stmt::Block(ss) => ss.iter().for_each(|s| f(Node::Stmt(s))),
            Stmt::VarDecl { init: Some(e), .. } | Stmt::Expr(e) | Stmt::Return(Some(e)) => {
                f(Node::Expr(e))
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                f(Node::Expr(cond));
                f(Node::Stmt(then_branch));
                if let Some(e) = else_branch {
                    f(Node::Stmt(e));
                }
            }
            Stmt::For { header, body } => {
                f(Node::Expr(&header.lb));
                f(Node::Expr(&header.ub));
                f(Node::Expr(&header.step));
                f(Node::Stmt(body));
            }
            Stmt::While { cond, body } => {
                f(Node::Expr(cond));
                f(Node::Stmt(body));
            }
            Stmt::Omp { body: Some(b), .. } => f(Node::Stmt(b)),
            Stmt::VarDecl { init: None, .. }
            | Stmt::Return(None)
            | Stmt::Omp { body: None, .. }
            | Stmt::Break
            | Stmt::Continue => {}
        }
    }

    /// The variable this statement declares: a local, or a loop's
    /// induction variable.
    pub(crate) fn declared_name(&self) -> Option<&str> {
        match self {
            Stmt::VarDecl { name, .. } => Some(name),
            Stmt::For { header, .. } => Some(&header.var),
            _ => None,
        }
    }
}

/// Visits `root` and every statement and expression under it in
/// pre-order, children in source order. `on_stmt` returns whether to
/// descend into a statement; every expression under a visited statement
/// is visited. The recursion is as deep as the tree, which the parser
/// bounds by [`MAX_NESTING`].
pub(crate) fn walk<'a>(
    root: &'a Stmt,
    mut on_stmt: impl FnMut(&'a Stmt) -> bool,
    mut on_expr: impl FnMut(&'a Expr),
) {
    fn visit<'a>(
        node: Node<'a>,
        depth: u32,
        on_stmt: &mut dyn FnMut(&'a Stmt) -> bool,
        on_expr: &mut dyn FnMut(&'a Expr),
    ) {
        debug_assert!(
            depth <= MAX_NESTING,
            "syntax tree deeper than the parser admits"
        );
        match node {
            Node::Stmt(s) => {
                if on_stmt(s) {
                    s.for_each_child(|c| visit(c, depth + 1, on_stmt, on_expr));
                }
            }
            Node::Expr(e) => {
                on_expr(e);
                e.for_each_child(|c| visit(Node::Expr(c), depth + 1, on_stmt, on_expr));
            }
        }
    }
    visit(Node::Stmt(root), 0, &mut on_stmt, &mut on_expr);
}

/// One formal parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: CType,
    /// `noescape` qualifier (maps to the IR parameter attribute).
    pub noescape: bool,
}

/// Assumptions attached via `#pragma omp assume ...` before a function.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Assumptions {
    /// `ext_spmd_amenable`: safe to run with all threads of a team.
    pub spmd_amenable: bool,
    /// `ext_no_openmp`: contains no OpenMP constructs or runtime calls.
    pub no_openmp: bool,
    /// `pure`: no side effects (extension used for external math-like
    /// helpers).
    pub pure_fn: bool,
}

/// A function definition or declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDecl {
    /// Function name.
    pub name: String,
    /// Parameters.
    pub params: Vec<Param>,
    /// Return type.
    pub ret: CType,
    /// Body; `None` for external declarations.
    pub body: Option<Stmt>,
    /// `static` (internal linkage).
    pub is_static: bool,
    /// Assumptions from preceding `#pragma omp assume` directives.
    pub assumptions: Assumptions,
    /// Source line of the declaration.
    pub line: usize,
}

/// A top-level declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum Decl {
    /// Function.
    Func(FuncDecl),
}

/// A full translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Top-level declarations in source order.
    pub decls: Vec<Decl>,
}

impl Program {
    /// Looks up a function declaration by name.
    pub fn func(&self, name: &str) -> Option<&FuncDecl> {
        self.decls.iter().find_map(|d| match d {
            Decl::Func(f) if f.name == name => Some(f),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_sizes() {
        assert_eq!(CType::Int.size(), 4);
        assert_eq!(CType::Double.size(), 8);
        assert_eq!(CType::Ptr(ScalarType::Float).size(), 8);
        assert_eq!(ScalarType::Float.size(), 4);
        assert_eq!(ScalarType::Double.ctype(), CType::Double);
    }

    #[test]
    fn program_lookup() {
        let p = Program {
            decls: vec![Decl::Func(FuncDecl {
                name: "f".into(),
                params: vec![],
                ret: CType::Void,
                body: None,
                is_static: false,
                assumptions: Assumptions::default(),
                line: 1,
            })],
        };
        assert!(p.func("f").is_some());
        assert!(p.func("g").is_none());
    }
}
