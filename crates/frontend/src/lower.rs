//! Lowering from AST to IR, mirroring Clang's OpenMP device code
//! generation.
//!
//! * A function whose body is exactly one `#pragma omp target ...`
//!   statement becomes a GPU kernel (`__omp_offloading_<name>`); its
//!   parameters are the kernel arguments.
//! * Other functions become device functions.
//! * `parallel` regions are outlined into `__omp_outlined.N(ptr args)`
//!   functions dispatched through `__kmpc_parallel_51`.
//! * Locals whose address may be shared across threads are globalized
//!   using either the legacy (LLVM 12, Figure 4b) or the simplified
//!   (LLVM 13, Figure 4c) scheme — see the `storage` module.

use crate::ast::*;
use crate::capture::{captured_with_flags, locals, Locals};
use crate::error::CompileError;
use crate::parser::parse_program;
use crate::storage::{LegacyAgg, VarInfo};
use omp_ir::omprtl::{MODE_GENERIC, MODE_SPMD};
use omp_ir::{
    BinOp, BlockId, CmpOp, ExecMode, FuncId, Function, InstKind, KernelInfo, Linkage, Module,
    RtlFn, Terminator, Type, Value,
};
use std::collections::{HashMap, HashSet};

/// Which globalization scheme the frontend emits (paper Section IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GlobalizationScheme {
    /// LLVM 12: aggregated, coalesced, runtime-checked (Figure 4b);
    /// unsound fast path via plain stack memory in SPMD mode.
    Legacy,
    /// LLVM 13: one `__kmpc_alloc_shared`/`__kmpc_free_shared` pair per
    /// variable (Figure 4c). Correct; relies on the middle end for
    /// performance.
    #[default]
    Simplified,
}

/// Frontend configuration.
#[derive(Debug, Clone)]
pub struct FrontendOptions {
    /// Globalization scheme to emit.
    pub globalization: GlobalizationScheme,
    /// `-fopenmp-cuda-mode`: never globalize (unsound opt-in).
    pub cuda_mode: bool,
    /// Name recorded on the produced module.
    pub module_name: String,
}

impl Default for FrontendOptions {
    fn default() -> Self {
        FrontendOptions {
            globalization: GlobalizationScheme::Simplified,
            cuda_mode: false,
            module_name: "module".into(),
        }
    }
}

type Result<T> = std::result::Result<T, CompileError>;

/// Compiles source text to an IR module.
pub fn compile(src: &str, opts: &FrontendOptions) -> Result<Module> {
    let prog = {
        let _span = omp_telemetry::span("frontend.parse", "frontend");
        parse_program(src)?
    };
    let _span = omp_telemetry::span("frontend.lower", "frontend");
    lower_program(&prog, opts)
}

/// Maps a source type to an IR type.
pub(crate) fn ct2ty(ct: CType) -> Type {
    match ct {
        CType::Void => Type::Void,
        CType::Int => Type::I32,
        CType::Long => Type::I64,
        CType::Float => Type::F32,
        CType::Double => Type::F64,
        CType::Ptr(_) => Type::Ptr,
    }
}

/// One target region of a host launch plan, with the host-side launch
/// attributes derived from its clauses and position.
struct PlanTarget<'a> {
    directive: &'a OmpDirective,
    region: &'a Stmt,
    /// A `taskwait` immediately precedes this region.
    wait_before: bool,
    /// `taskgraph` region index, when enclosed in one.
    graph: Option<u32>,
}

/// Detects the host launch plan of a target function: a body that is a
/// sequence of `target` statements, `taskwait` fences, and `taskgraph`
/// regions (each wrapping only `target` statements). A plain
/// single-target function is the one-element special case.
///
/// Returns `None` when the body contains anything else — the function
/// is then an ordinary device function.
fn host_plan(f: &FuncDecl) -> Option<Vec<PlanTarget<'_>>> {
    let Some(Stmt::Block(stmts)) = &f.body else {
        return None;
    };
    let mut plan: Vec<PlanTarget<'_>> = Vec::new();
    let mut pending_wait = false;
    let mut graphs = 0u32;
    for s in stmts {
        match s {
            Stmt::Omp {
                directive: d @ OmpDirective::Target { .. },
                body: Some(b),
            } => {
                plan.push(PlanTarget {
                    directive: d,
                    region: b,
                    wait_before: std::mem::take(&mut pending_wait),
                    graph: None,
                });
            }
            Stmt::Omp {
                directive: OmpDirective::Taskwait,
                body: None,
            } => pending_wait = true,
            Stmt::Omp {
                directive: OmpDirective::Taskgraph,
                body: Some(region),
            } => {
                let Stmt::Block(inner) = region.as_ref() else {
                    return None;
                };
                let gi = graphs;
                graphs += 1;
                let mut first = true;
                for gs in inner {
                    let Stmt::Omp {
                        directive: d @ OmpDirective::Target { .. },
                        body: Some(b),
                    } = gs
                    else {
                        return None;
                    };
                    plan.push(PlanTarget {
                        directive: d,
                        region: b,
                        // The graph boundary fences against preceding
                        // launches.
                        wait_before: std::mem::take(&mut pending_wait) || first,
                        graph: Some(gi),
                    });
                    first = false;
                }
            }
            _ => return None,
        }
    }
    if plan.is_empty() {
        return None;
    }
    Some(plan)
}

/// Lowers a parsed program.
pub fn lower_program(prog: &Program, opts: &FrontendOptions) -> Result<Module> {
    let mut m = Module::new(opts.module_name.clone());
    let mut sigs: HashMap<String, (Vec<CType>, CType)> = HashMap::new();
    let mut fids: HashMap<String, FuncId> = HashMap::new();

    // Pass 1: declare every function (and kernel stubs). A target
    // function with K regions declares K kernel functions, each taking
    // the full host parameter list.
    let mut kernel_fids: HashMap<String, Vec<FuncId>> = HashMap::new();
    for d in &prog.decls {
        let Decl::Func(f) = d;
        sigs.insert(
            f.name.clone(),
            (f.params.iter().map(|p| p.ty).collect(), f.ret),
        );
        let num_kernels = host_plan(f).map(|p| p.len()).unwrap_or(0);
        if num_kernels > 0 && f.ret != CType::Void {
            return Err(CompileError::new(
                f.line,
                "a function containing a target region must return void",
            ));
        }
        let params: Vec<Type> = f.params.iter().map(|p| ct2ty(p.ty)).collect();
        let ret = ct2ty(f.ret);
        let names: Vec<String> = if num_kernels > 0 {
            (0..num_kernels)
                .map(|k| {
                    let base = format!("__omp_offloading_{}", f.name);
                    if k == 0 {
                        base
                    } else {
                        format!("{base}.{k}")
                    }
                })
                .collect()
        } else {
            vec![f.name.clone()]
        };
        for (k, ir_name) in names.iter().enumerate() {
            let mut fun = if f.body.is_some() {
                Function::definition(ir_name, params.clone(), ret)
            } else {
                Function::declaration(ir_name, params.clone(), ret)
            };
            for (i, p) in f.params.iter().enumerate() {
                fun.param_attrs[i].noescape = p.noescape;
            }
            fun.attrs.spmd_amenable = f.assumptions.spmd_amenable;
            fun.attrs.no_openmp = f.assumptions.no_openmp;
            fun.attrs.pure_fn = f.assumptions.pure_fn;
            if f.is_static {
                fun.linkage = Linkage::Internal;
            }
            if m.function_id(ir_name).is_some() {
                return Err(CompileError::new(
                    f.line,
                    format!("duplicate function `{}`", f.name),
                ));
            }
            let id = m.add_function(fun);
            if num_kernels > 0 {
                kernel_fids.entry(f.name.clone()).or_default().push(id);
            }
            if k == 0 {
                fids.insert(f.name.clone(), id);
            }
        }
    }

    // Pass 2: lower bodies.
    for d in &prog.decls {
        let Decl::Func(f) = d;
        if f.body.is_none() {
            continue;
        }
        if let Some(plan) = host_plan(f) {
            let kfids = &kernel_fids[&f.name];
            for (target, &fid) in plan.iter().zip(kfids) {
                lower_kernel(&mut m, opts, &sigs, f, fid, target)?;
            }
        } else {
            lower_device_function(&mut m, opts, &sigs, f, fids[&f.name])?;
        }
    }
    Ok(m)
}

/// A variable scope plus the deferred frees it owns.
pub(crate) struct Scope {
    pub(crate) vars: HashMap<String, VarInfo>,
    /// `(ptr, size)` of simplified-scheme globalized variables to free
    /// when the scope ends.
    pub(crate) frees: Vec<(Value, u64)>,
}

impl Scope {
    fn new() -> Scope {
        Scope {
            vars: HashMap::new(),
            frees: Vec::new(),
        }
    }
}

pub(crate) struct LoopCtx {
    pub(crate) continue_bb: BlockId,
    pub(crate) break_bb: BlockId,
    /// Scope stack depth at loop entry (for break/continue frees).
    pub(crate) scope_depth: usize,
}

/// Per-IR-function lowering state.
pub(crate) struct FnLowerer<'m, 'p> {
    pub(crate) m: &'m mut Module,
    pub(crate) opts: &'p FrontendOptions,
    pub(crate) sigs: &'p HashMap<String, (Vec<CType>, CType)>,
    pub(crate) func: FuncId,
    pub(crate) block: BlockId,
    pub(crate) scopes: Vec<Scope>,
    pub(crate) escaping: HashSet<String>,
    /// All variable names of the enclosing source function (for capture
    /// computation).
    pub(crate) all_names: HashSet<String>,
    pub(crate) loops: Vec<LoopCtx>,
    pub(crate) legacy: Option<LegacyAgg>,
    /// Line for error messages (best effort).
    pub(crate) line: usize,
    /// Return type of the current IR function (source-level).
    pub(crate) ret: CType,
    /// Whether `return` is allowed (false inside target regions and
    /// outlined parallel regions).
    pub(crate) allow_return: bool,
}

impl<'m, 'p> FnLowerer<'m, 'p> {
    pub(crate) fn err(&self, msg: impl Into<String>) -> CompileError {
        CompileError::new(self.line, msg)
    }

    pub(crate) fn emit(&mut self, kind: InstKind) -> Value {
        let id = self.m.func_mut(self.func).append_inst(self.block, kind);
        Value::Inst(id)
    }

    pub(crate) fn new_block(&mut self) -> BlockId {
        self.m.func_mut(self.func).add_block()
    }

    pub(crate) fn set_term(&mut self, t: Terminator) {
        self.m.func_mut(self.func).block_mut(self.block).term = t;
    }

    pub(crate) fn br(&mut self, b: BlockId) {
        self.set_term(Terminator::Br(b));
    }

    pub(crate) fn cond_br(&mut self, c: Value, t: BlockId, e: BlockId) {
        self.set_term(Terminator::CondBr {
            cond: c,
            then_bb: t,
            else_bb: e,
        });
    }

    pub(crate) fn rtl(&mut self, f: RtlFn, args: Vec<Value>) -> Value {
        let (params, ret) = f.signature();
        let id = self.m.get_or_declare(f.name(), params, ret);
        self.emit(InstKind::Call {
            callee: Value::Func(id),
            args,
            ret,
        })
    }

    pub(crate) fn lookup(&self, name: &str) -> Option<&VarInfo> {
        self.scopes.iter().rev().find_map(|s| s.vars.get(name))
    }

    pub(crate) fn bind(&mut self, name: &str, info: VarInfo) -> Result<()> {
        let scope = self.scopes.last_mut().expect("no scope");
        if scope.vars.insert(name.to_string(), info).is_some() {
            return Err(CompileError::new(
                self.line,
                format!("redeclaration of `{name}` (shadowing is not supported)"),
            ));
        }
        Ok(())
    }

    pub(crate) fn push_scope(&mut self) {
        self.scopes.push(Scope::new());
    }

    /// Pops the innermost scope, emitting its deferred frees.
    pub(crate) fn pop_scope(&mut self) {
        let scope = self.scopes.pop().expect("scope underflow");
        for (ptr, size) in scope.frees.into_iter().rev() {
            self.rtl(RtlFn::FreeShared, vec![ptr, Value::i64(size as i64)]);
        }
    }

    /// Emits frees for scopes above `depth` without popping them
    /// (used by `break`/`continue`/`return`, which jump out).
    pub(crate) fn emit_frees_down_to(&mut self, depth: usize) {
        let pending: Vec<(Value, u64)> = self
            .scopes
            .iter()
            .skip(depth)
            .flat_map(|s| s.frees.iter().rev().copied())
            .collect();
        for (ptr, size) in pending {
            self.rtl(RtlFn::FreeShared, vec![ptr, Value::i64(size as i64)]);
        }
    }

    /// Lowers a list of statements inside a fresh scope.
    pub(crate) fn lower_block(&mut self, stmts: &[Stmt]) -> Result<()> {
        self.push_scope();
        for s in stmts {
            self.lower_stmt(s)?;
        }
        self.pop_scope();
        Ok(())
    }

    pub(crate) fn lower_stmt(&mut self, s: &Stmt) -> Result<()> {
        match s {
            Stmt::Block(ss) => self.lower_block(ss),
            Stmt::VarDecl {
                name,
                ty,
                array,
                init,
            } => {
                let info = self.make_storage(name, *ty, *array)?;
                self.bind(name, info.clone())?;
                if let Some(e) = init {
                    let (v, vt) = self.lower_expr(e)?;
                    let v = self.convert(v, vt, *ty)?;
                    self.emit(InstKind::Store {
                        ptr: info.addr,
                        val: v,
                    });
                }
                Ok(())
            }
            Stmt::Expr(e) => {
                self.lower_expr(e)?;
                Ok(())
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.lower_bool(cond)?;
                let then_bb = self.new_block();
                let join = self.new_block();
                let else_bb = if else_branch.is_some() {
                    self.new_block()
                } else {
                    join
                };
                self.cond_br(c, then_bb, else_bb);
                self.block = then_bb;
                self.lower_stmt(then_branch)?;
                self.br(join);
                if let Some(e) = else_branch {
                    self.block = else_bb;
                    self.lower_stmt(e)?;
                    self.br(join);
                }
                self.block = join;
                Ok(())
            }
            Stmt::While { cond, body } => {
                let header = self.new_block();
                let body_bb = self.new_block();
                let exit = self.new_block();
                self.br(header);
                self.block = header;
                let c = self.lower_bool(cond)?;
                self.cond_br(c, body_bb, exit);
                self.block = body_bb;
                self.loops.push(LoopCtx {
                    continue_bb: header,
                    break_bb: exit,
                    scope_depth: self.scopes.len(),
                });
                self.lower_stmt(body)?;
                self.loops.pop();
                self.br(header);
                self.block = exit;
                Ok(())
            }
            Stmt::For { header, body } => self.lower_sequential_for(header, body),
            Stmt::Return(e) => {
                if !self.allow_return {
                    return Err(self.err("`return` is not allowed inside a target region"));
                }
                let val = match e {
                    Some(e) => {
                        let (v, vt) = self.lower_expr(e)?;
                        if self.ret == CType::Void {
                            return Err(self.err("returning a value from a void function"));
                        }
                        Some(self.convert(v, vt, self.ret)?)
                    }
                    None => {
                        if self.ret != CType::Void {
                            return Err(self.err("missing return value"));
                        }
                        None
                    }
                };
                self.emit_frees_down_to(0);
                self.emit_legacy_epilogue();
                self.set_term(Terminator::Ret(val));
                // Continue lowering into an unreachable block so later
                // statements in the same block do not clobber the ret.
                let dead = self.new_block();
                self.block = dead;
                Ok(())
            }
            Stmt::Break => {
                let Some(ctx) = self.loops.last().copied() else {
                    return Err(self.err("`break` outside of a loop"));
                };
                self.emit_frees_down_to(ctx.scope_depth);
                self.br(ctx.break_bb);
                let dead = self.new_block();
                self.block = dead;
                Ok(())
            }
            Stmt::Continue => {
                let Some(ctx) = self.loops.last().copied() else {
                    return Err(self.err("`continue` outside of a loop"));
                };
                self.emit_frees_down_to(ctx.scope_depth);
                self.br(ctx.continue_bb);
                let dead = self.new_block();
                self.block = dead;
                Ok(())
            }
            Stmt::Omp { directive, body } => match directive {
                OmpDirective::Barrier => {
                    self.rtl(RtlFn::Barrier, vec![]);
                    Ok(())
                }
                OmpDirective::Parallel {
                    for_loop,
                    num_threads,
                } => {
                    let body = body.as_ref().expect("parallel without body");
                    self.lower_parallel(body, *for_loop, *num_threads)
                }
                OmpDirective::Target { .. } => {
                    Err(self.err("nested target regions are not supported"))
                }
                OmpDirective::Taskwait => Err(self.err(
                    "`taskwait` is only supported between target regions \
                     at the top level of a target function",
                )),
                OmpDirective::Taskgraph => Err(self.err(
                    "`taskgraph` is only supported at the top level of a \
                     target function",
                )),
            },
        }
    }

    /// Lowers a sequential (non-worksharing) canonical for loop.
    fn lower_sequential_for(&mut self, h: &CanonicalLoop, body: &Stmt) -> Result<()> {
        self.push_scope();
        let info = self.make_storage(&h.var, h.ty, None)?;
        self.bind(&h.var, info.clone())?;
        let (lb, lbt) = self.lower_expr(&h.lb)?;
        let lb = self.convert(lb, lbt, h.ty)?;
        self.emit(InstKind::Store {
            ptr: info.addr,
            val: lb,
        });
        let header = self.new_block();
        let body_bb = self.new_block();
        let step_bb = self.new_block();
        let exit = self.new_block();
        self.br(header);
        self.block = header;
        let iv = self.emit(InstKind::Load {
            ptr: info.addr,
            ty: ct2ty(h.ty),
        });
        let (ub, ubt) = self.lower_expr(&h.ub)?;
        let ub = self.convert(ub, ubt, h.ty)?;
        let op = if h.inclusive { CmpOp::Sle } else { CmpOp::Slt };
        let c = self.emit(InstKind::Cmp {
            op,
            ty: ct2ty(h.ty),
            lhs: iv,
            rhs: ub,
        });
        self.cond_br(c, body_bb, exit);
        self.block = body_bb;
        self.loops.push(LoopCtx {
            continue_bb: step_bb,
            break_bb: exit,
            scope_depth: self.scopes.len(),
        });
        self.lower_stmt(body)?;
        self.loops.pop();
        self.br(step_bb);
        self.block = step_bb;
        let iv2 = self.emit(InstKind::Load {
            ptr: info.addr,
            ty: ct2ty(h.ty),
        });
        let (st, stt) = self.lower_expr(&h.step)?;
        let st = self.convert(st, stt, h.ty)?;
        let next = self.emit(InstKind::Bin {
            op: BinOp::Add,
            ty: ct2ty(h.ty),
            lhs: iv2,
            rhs: st,
        });
        self.emit(InstKind::Store {
            ptr: info.addr,
            val: next,
        });
        self.br(header);
        self.block = exit;
        self.pop_scope();
        Ok(())
    }

    /// Emits the inline static-chunk computation used by worksharing
    /// loops: `chunk = ceil(n / cnt); lo = min(tid*chunk, n);
    /// hi = min(lo+chunk, n)`. `tid`/`cnt` are `i32` runtime queries that
    /// the optimizer's launch-parameter folding can turn into constants.
    fn emit_static_chunk(&mut self, n: Value, tid32: Value, cnt32: Value) -> (Value, Value) {
        let tid = self.emit(InstKind::Cast {
            op: omp_ir::CastOp::SExt,
            val: tid32,
            to: Type::I64,
        });
        let cnt = self.emit(InstKind::Cast {
            op: omp_ir::CastOp::SExt,
            val: cnt32,
            to: Type::I64,
        });
        let cm1 = self.emit(InstKind::Bin {
            op: BinOp::Sub,
            ty: Type::I64,
            lhs: cnt,
            rhs: Value::i64(1),
        });
        let t = self.emit(InstKind::Bin {
            op: BinOp::Add,
            ty: Type::I64,
            lhs: n,
            rhs: cm1,
        });
        let chunk = self.emit(InstKind::Bin {
            op: BinOp::SDiv,
            ty: Type::I64,
            lhs: t,
            rhs: cnt,
        });
        let lo_raw = self.emit(InstKind::Bin {
            op: BinOp::Mul,
            ty: Type::I64,
            lhs: tid,
            rhs: chunk,
        });
        let c1 = self.emit(InstKind::Cmp {
            op: CmpOp::Slt,
            ty: Type::I64,
            lhs: lo_raw,
            rhs: n,
        });
        let lo = self.emit(InstKind::Select {
            cond: c1,
            ty: Type::I64,
            on_true: lo_raw,
            on_false: n,
        });
        let hi_raw = self.emit(InstKind::Bin {
            op: BinOp::Add,
            ty: Type::I64,
            lhs: lo,
            rhs: chunk,
        });
        let c2 = self.emit(InstKind::Cmp {
            op: CmpOp::Slt,
            ty: Type::I64,
            lhs: hi_raw,
            rhs: n,
        });
        let hi = self.emit(InstKind::Select {
            cond: c2,
            ty: Type::I64,
            on_true: hi_raw,
            on_false: n,
        });
        (lo, hi)
    }

    /// Lowers a worksharing loop. `team_level` splits iterations across
    /// teams (`distribute`), `thread_level` across the threads of a team
    /// (`for`). Both set → combined `distribute parallel for`.
    pub(crate) fn lower_ws_loop(
        &mut self,
        h: &CanonicalLoop,
        body: &Stmt,
        team_level: bool,
        thread_level: bool,
    ) -> Result<()> {
        self.push_scope();
        // Normalize to 0..n with unit step: i = lb + ii * step.
        let (lb, lbt) = self.lower_expr(&h.lb)?;
        let lb64 = self.convert(lb, lbt, CType::Long)?;
        let (ub, ubt) = self.lower_expr(&h.ub)?;
        let mut ub64 = self.convert(ub, ubt, CType::Long)?;
        if h.inclusive {
            ub64 = self.emit(InstKind::Bin {
                op: BinOp::Add,
                ty: Type::I64,
                lhs: ub64,
                rhs: Value::i64(1),
            });
        }
        let (st, stt) = self.lower_expr(&h.step)?;
        let step64 = self.convert(st, stt, CType::Long)?;
        let span = self.emit(InstKind::Bin {
            op: BinOp::Sub,
            ty: Type::I64,
            lhs: ub64,
            rhs: lb64,
        });
        let span_m1 = self.emit(InstKind::Bin {
            op: BinOp::Add,
            ty: Type::I64,
            lhs: span,
            rhs: step64,
        });
        let span_m1 = self.emit(InstKind::Bin {
            op: BinOp::Sub,
            ty: Type::I64,
            lhs: span_m1,
            rhs: Value::i64(1),
        });
        let n = self.emit(InstKind::Bin {
            op: BinOp::SDiv,
            ty: Type::I64,
            lhs: span_m1,
            rhs: step64,
        });
        let neg = self.emit(InstKind::Cmp {
            op: CmpOp::Slt,
            ty: Type::I64,
            lhs: n,
            rhs: Value::i64(0),
        });
        let n = self.emit(InstKind::Select {
            cond: neg,
            ty: Type::I64,
            on_true: Value::i64(0),
            on_false: n,
        });
        let (mut lo, mut hi) = (Value::i64(0), n);
        if team_level {
            let tid = self.rtl(RtlFn::TeamNum, vec![]);
            let cnt = self.rtl(RtlFn::NumTeams, vec![]);
            let (l, h) = self.emit_static_chunk(n, tid, cnt);
            lo = l;
            hi = h;
        }
        // Thread-level worksharing is cyclic (`schedule(static,1)`, the
        // GPU default in LLVM): thread t executes iterations t, t+nt,
        // t+2nt, ... so adjacent lanes touch adjacent iterations and
        // global accesses coalesce.
        let mut stride = Value::i64(1);
        if thread_level {
            let tid = self.rtl(RtlFn::ThreadNum, vec![]);
            let cnt = self.rtl(RtlFn::NumThreads, vec![]);
            let tid64 = self.emit(InstKind::Cast {
                op: omp_ir::CastOp::SExt,
                val: tid,
                to: Type::I64,
            });
            let cnt64 = self.emit(InstKind::Cast {
                op: omp_ir::CastOp::SExt,
                val: cnt,
                to: Type::I64,
            });
            lo = self.emit(InstKind::Bin {
                op: BinOp::Add,
                ty: Type::I64,
                lhs: lo,
                rhs: tid64,
            });
            stride = cnt64;
        }
        // Loop over ii in [lo, hi).
        let ii_info = self.make_storage(&format!("{}.iter", h.var), CType::Long, None)?;
        let var_info = self.make_storage(&h.var, h.ty, None)?;
        self.bind(&h.var, var_info.clone())?;
        self.emit(InstKind::Store {
            ptr: ii_info.addr,
            val: lo,
        });
        let header = self.new_block();
        let body_bb = self.new_block();
        let step_bb = self.new_block();
        let exit = self.new_block();
        self.br(header);
        self.block = header;
        let ii = self.emit(InstKind::Load {
            ptr: ii_info.addr,
            ty: Type::I64,
        });
        let c = self.emit(InstKind::Cmp {
            op: CmpOp::Slt,
            ty: Type::I64,
            lhs: ii,
            rhs: hi,
        });
        self.cond_br(c, body_bb, exit);
        self.block = body_bb;
        let scaled = self.emit(InstKind::Bin {
            op: BinOp::Mul,
            ty: Type::I64,
            lhs: ii,
            rhs: step64,
        });
        let iv64 = self.emit(InstKind::Bin {
            op: BinOp::Add,
            ty: Type::I64,
            lhs: lb64,
            rhs: scaled,
        });
        let iv = self.convert(iv64, CType::Long, h.ty)?;
        self.emit(InstKind::Store {
            ptr: var_info.addr,
            val: iv,
        });
        self.loops.push(LoopCtx {
            continue_bb: step_bb,
            break_bb: exit,
            scope_depth: self.scopes.len(),
        });
        self.lower_stmt(body)?;
        self.loops.pop();
        self.br(step_bb);
        self.block = step_bb;
        let ii2 = self.emit(InstKind::Load {
            ptr: ii_info.addr,
            ty: Type::I64,
        });
        let next = self.emit(InstKind::Bin {
            op: BinOp::Add,
            ty: Type::I64,
            lhs: ii2,
            rhs: stride,
        });
        self.emit(InstKind::Store {
            ptr: ii_info.addr,
            val: next,
        });
        self.br(header);
        self.block = exit;
        self.pop_scope();
        Ok(())
    }

    /// Lowers a `parallel [for]` directive: outline, publish captures,
    /// dispatch via `__kmpc_parallel_51`.
    fn lower_parallel(
        &mut self,
        body: &Stmt,
        for_loop: bool,
        num_threads: Option<u32>,
    ) -> Result<()> {
        let caps = captured_with_flags(body, &self.all_names);
        // Verify every captured name is actually in scope here, and
        // decide the capture kind: scalars the region only reads are
        // captured by value (they stay private in the caller); assigned
        // or address-taken variables and arrays are captured by
        // reference through their (globalized) storage address.
        let mut cap_infos: Vec<(String, VarInfo, bool)> = Vec::new();
        for c in &caps {
            let Some(info) = self.lookup(&c.name) else {
                return Err(self.err(format!(
                    "`{}` used in parallel region is not in scope",
                    c.name
                )));
            };
            let by_value = !c.assigned && info.array.is_none() && !self.escaping.contains(&c.name);
            cap_infos.push((c.name.clone(), info.clone(), by_value));
        }
        // Create the outlined function.
        let outlined_name = format!("__omp_outlined.{}", self.m.num_functions());
        let mut of = Function::definition(&outlined_name, vec![Type::Ptr], Type::Void);
        of.linkage = Linkage::Internal;
        let outlined = self.m.add_function(of);

        // Publish captures through a capture struct.
        let cap_ptr = if cap_infos.is_empty() {
            Value::Null
        } else {
            let size = 8 * cap_infos.len() as u64;
            let cap = self.make_capture_storage(size)?;
            for (k, (_, info, by_value)) in cap_infos.iter().enumerate() {
                let slot = self.emit(InstKind::Gep {
                    base: cap.addr,
                    index: Value::i64(k as i64),
                    scale: 8,
                    offset: 0,
                });
                let val = if *by_value {
                    // Snapshot the current value.
                    self.emit(InstKind::Load {
                        ptr: info.addr,
                        ty: ct2ty(info.ty),
                    })
                } else {
                    info.addr
                };
                self.emit(InstKind::Store { ptr: slot, val });
            }
            cap.addr
        };
        let nt = num_threads.map(|n| n as i64).unwrap_or(-1);
        // Nested-parallelism check (mirrors Clang/deviceRTL): if we are
        // already inside a parallel region, dispatch a serialized team of
        // one. Runtime-call folding removes this check and the dead arm
        // when the parallel level is statically known (Section IV-C).
        let lvl = self.rtl(RtlFn::ParallelLevel, vec![]);
        let nested = self.emit(InstKind::Cmp {
            op: CmpOp::Sgt,
            ty: Type::I32,
            lhs: lvl,
            rhs: Value::i32(0),
        });
        let ser_bb = self.new_block();
        let par_bb = self.new_block();
        let join_bb = self.new_block();
        self.cond_br(nested, ser_bb, par_bb);
        self.block = ser_bb;
        self.rtl(
            RtlFn::Parallel51,
            vec![Value::Func(outlined), Value::i32(1), cap_ptr],
        );
        self.br(join_bb);
        self.block = par_bb;
        self.rtl(
            RtlFn::Parallel51,
            vec![
                Value::Func(outlined),
                Value::ConstInt(nt, Type::I32),
                cap_ptr,
            ],
        );
        self.br(join_bb);
        self.block = join_bb;
        // Free the capture struct immediately after the region completes.
        self.free_capture_storage(cap_ptr, 8 * cap_infos.len() as u64);

        // Lower the outlined body with swapped function state.
        self.with_function(outlined, false, |lw| {
            lw.setup_legacy_aggregate_region(body)?;
            lw.push_scope();
            for (k, (name, info, by_value)) in cap_infos.iter().enumerate() {
                let slot = lw.emit(InstKind::Gep {
                    base: Value::Arg(0),
                    index: Value::i64(k as i64),
                    scale: 8,
                    offset: 0,
                });
                let addr = if *by_value {
                    // Reload the snapshot into a private cell so normal
                    // variable loads work unchanged.
                    let v = lw.emit(InstKind::Load {
                        ptr: slot,
                        ty: ct2ty(info.ty),
                    });
                    let cell = lw.emit(InstKind::Alloca {
                        size: info.ty.size().max(1),
                        align: 8,
                    });
                    lw.emit(InstKind::Store { ptr: cell, val: v });
                    cell
                } else {
                    lw.emit(InstKind::Load {
                        ptr: slot,
                        ty: Type::Ptr,
                    })
                };
                lw.bind(
                    name,
                    VarInfo {
                        addr,
                        ty: info.ty,
                        array: info.array,
                    },
                )?;
            }
            if for_loop {
                let Stmt::For { header, body } = body else {
                    return Err(lw.err("parallel for requires a canonical loop"));
                };
                lw.lower_ws_loop(header, body, false, true)?;
            } else {
                lw.lower_stmt(body)?;
            }
            lw.pop_scope();
            lw.emit_legacy_epilogue();
            lw.set_term(Terminator::Ret(None));
            Ok(())
        })?;
        Ok(())
    }

    /// Runs `f` with the lowering state switched to another IR function
    /// (used for outlined parallel regions), then restores the state.
    pub(crate) fn with_function(
        &mut self,
        func: FuncId,
        allow_return: bool,
        f: impl FnOnce(&mut Self) -> Result<()>,
    ) -> Result<()> {
        let saved_func = self.func;
        let saved_block = self.block;
        let saved_scopes = std::mem::take(&mut self.scopes);
        let saved_loops = std::mem::take(&mut self.loops);
        let saved_legacy = self.legacy.take();
        let saved_ret = self.ret;
        let saved_allow = self.allow_return;
        self.func = func;
        self.block = self.m.func(func).entry();
        self.ret = CType::Void;
        self.allow_return = allow_return;
        let r = f(self);
        self.func = saved_func;
        self.block = saved_block;
        self.scopes = saved_scopes;
        self.loops = saved_loops;
        self.legacy = saved_legacy;
        self.ret = saved_ret;
        self.allow_return = saved_allow;
        r
    }
}

impl Clone for LoopCtx {
    fn clone(&self) -> Self {
        *self
    }
}

impl Copy for LoopCtx {}

/// Lowers a device function body.
fn lower_device_function(
    m: &mut Module,
    opts: &FrontendOptions,
    sigs: &HashMap<String, (Vec<CType>, CType)>,
    f: &FuncDecl,
    fid: FuncId,
) -> Result<()> {
    let Locals {
        names: all_names,
        escaping,
    } = locals(f);
    let entry = m.func(fid).entry();
    let mut lw = FnLowerer {
        m,
        opts,
        sigs,
        func: fid,
        block: entry,
        scopes: vec![],
        escaping,
        all_names,
        loops: vec![],
        legacy: None,
        line: f.line,
        ret: f.ret,
        allow_return: true,
    };
    lw.push_scope();
    lw.setup_legacy_aggregate(f.body.as_ref().unwrap(), f)?;
    bind_params(&mut lw, f)?;
    let Some(Stmt::Block(stmts)) = &f.body else {
        return Err(CompileError::new(f.line, "function body must be a block"));
    };
    for s in stmts {
        lw.lower_stmt(s)?;
    }
    // Fall-off-the-end return.
    lw.pop_scope();
    lw.emit_legacy_epilogue();
    let term = if f.ret == CType::Void {
        Terminator::Ret(None)
    } else {
        Terminator::Ret(Some(Value::Undef(ct2ty(f.ret))))
    };
    lw.set_term(term);
    Ok(())
}

fn bind_params(lw: &mut FnLowerer<'_, '_>, f: &FuncDecl) -> Result<()> {
    for (i, p) in f.params.iter().enumerate() {
        let info = lw.make_storage(&p.name, p.ty, None)?;
        lw.emit(InstKind::Store {
            ptr: info.addr,
            val: Value::Arg(i as u32),
        });
        lw.bind(&p.name, info)?;
    }
    Ok(())
}

/// Lowers a kernel function from its target directive + region body.
#[allow(clippy::too_many_arguments)]
fn lower_kernel(
    m: &mut Module,
    opts: &FrontendOptions,
    sigs: &HashMap<String, (Vec<CType>, CType)>,
    f: &FuncDecl,
    fid: FuncId,
    target: &PlanTarget<'_>,
) -> Result<()> {
    let region = target.region;
    let OmpDirective::Target {
        teams,
        distribute,
        parallel,
        for_loop,
        num_teams,
        thread_limit,
        nowait,
        depends,
    } = target.directive
    else {
        unreachable!()
    };
    let mode = if *parallel {
        ExecMode::Spmd
    } else {
        ExecMode::Generic
    };
    // Without a `teams` construct the target region runs on one team.
    let num_teams = if *teams { *num_teams } else { Some(1) };
    // Resolve `depend` variables to host-function parameter indices.
    let mut depend_idx = Vec::with_capacity(depends.len());
    for (kind, var) in depends {
        let idx = f
            .params
            .iter()
            .position(|p| p.name == *var)
            .ok_or_else(|| {
                CompileError::new(
                    f.line,
                    format!(
                        "depend clause names `{var}`, which is not a \
                     parameter of `{}`",
                        f.name
                    ),
                )
            })?;
        depend_idx.push((*kind, idx as u32));
    }
    m.kernels.push(KernelInfo {
        func: fid,
        exec_mode: mode,
        num_teams,
        thread_limit: *thread_limit,
        source_name: f.name.clone(),
        launch: omp_ir::LaunchAttrs {
            nowait: *nowait,
            depends: depend_idx,
            wait_before: target.wait_before,
            graph: target.graph,
        },
    });
    let Locals {
        names: all_names,
        escaping,
    } = locals(f);
    let entry = m.func(fid).entry();
    let mut lw = FnLowerer {
        m,
        opts,
        sigs,
        func: fid,
        block: entry,
        scopes: vec![],
        escaping,
        all_names,
        loops: vec![],
        legacy: None,
        line: f.line,
        ret: CType::Void,
        allow_return: false,
    };
    let mode_const = Value::ConstInt(
        if mode == ExecMode::Spmd {
            MODE_SPMD
        } else {
            MODE_GENERIC
        },
        Type::I32,
    );
    let tid = lw.rtl(RtlFn::TargetInit, vec![mode_const]);
    let exit_bb = lw.new_block();
    if mode == ExecMode::Generic {
        // Worker state machine + guarded main path.
        let is_worker = lw.emit(InstKind::Cmp {
            op: CmpOp::Sge,
            ty: Type::I32,
            lhs: tid,
            rhs: Value::i32(0),
        });
        let worker_bb = lw.new_block();
        let main_bb = lw.new_block();
        lw.cond_br(is_worker, worker_bb, main_bb);
        // Worker loop.
        lw.block = worker_bb;
        let wloop = lw.new_block();
        let wbody = lw.new_block();
        let wexit = lw.new_block();
        lw.br(wloop);
        lw.block = wloop;
        let work = lw.rtl(RtlFn::KernelParallel, vec![]);
        let done = lw.emit(InstKind::Cmp {
            op: CmpOp::Eq,
            ty: Type::Ptr,
            lhs: work,
            rhs: Value::Null,
        });
        lw.cond_br(done, wexit, wbody);
        lw.block = wbody;
        let args = lw.rtl(RtlFn::GetParallelArgs, vec![]);
        lw.emit(InstKind::Call {
            callee: work,
            args: vec![args],
            ret: Type::Void,
        });
        lw.rtl(RtlFn::KernelEndParallel, vec![]);
        lw.br(wloop);
        lw.block = wexit;
        lw.br(exit_bb);
        // Main path.
        lw.block = main_bb;
    } else {
        // SPMD: Clang still guards the user code on `init == -1` (every
        // thread passes at runtime); OpenMPOpt's execution-mode folding
        // is what removes the check at compile time (Section IV-C).
        let is_user = lw.emit(InstKind::Cmp {
            op: CmpOp::Eq,
            ty: Type::I32,
            lhs: tid,
            rhs: Value::i32(-1),
        });
        let main_bb = lw.new_block();
        lw.cond_br(is_user, main_bb, exit_bb);
        lw.block = main_bb;
    }
    lw.push_scope();
    lw.setup_legacy_aggregate(region, f)?;
    bind_params(&mut lw, f)?;
    // Lower the region body by directive shape.
    match (mode, *distribute, *for_loop) {
        (ExecMode::Generic, true, _) => {
            let Stmt::For { header, body } = region else {
                return Err(lw.err("distribute requires a canonical for loop"));
            };
            lw.lower_ws_loop(header, body, true, false)?;
        }
        (ExecMode::Generic, false, _) => {
            lw.lower_stmt(region)?;
        }
        (ExecMode::Spmd, dist, true) => {
            let Stmt::For { header, body } = region else {
                return Err(lw.err("parallel for requires a canonical for loop"));
            };
            lw.lower_ws_loop(header, body, dist, true)?;
        }
        (ExecMode::Spmd, _, false) => {
            lw.lower_stmt(region)?;
        }
    }
    lw.pop_scope();
    lw.emit_legacy_epilogue();
    lw.br(exit_bb);
    lw.block = exit_bb;
    let mode_const = Value::ConstInt(
        if mode == ExecMode::Spmd {
            MODE_SPMD
        } else {
            MODE_GENERIC
        },
        Type::I32,
    );
    lw.rtl(RtlFn::TargetDeinit, vec![mode_const]);
    lw.set_term(Terminator::Ret(None));
    Ok(())
}
