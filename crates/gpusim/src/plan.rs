//! Precompiled execution plans: the module is decoded **once** at
//! device construction into flat per-function tables, so the hot
//! interpreter loop never reads an IR instruction, operand or
//! terminator and never resolves a callee by string comparison.
//!
//! A [`FuncPlan`] holds, per defined function:
//!
//! * one [`BlockPlan`] per block: its code entries and its terminator,
//!   each in the one lowered form the executor runs
//!   ([`crate::compile`]) — steps, calls with pre-resolved
//!   [`CallTarget`]s and operand slots, and branch edges with their phi
//!   moves — plus the fused body it runs where it can;
//! * the frame image: the function's value file `[registers |
//!   arguments | constants]` as a new frame starts it, with registers
//!   and arguments empty and the interned constants and globals
//!   (`consts`) filled in. A call builds its frame from the image,
//!   writes its arguments and patches the few shared-space globals with
//!   the executing team's address, so every operand read at run time is
//!   one index into the frame;
//! * `site_base`, this function's offset into the plan-wide dense
//!   access-site index used by the coalescing tables.
//!
//! The plan owns everything it holds: nothing in it borrows the module.
//! Global addresses are not known until the device places the module's
//! globals; [`ExecPlan::bind_globals`] then writes them into `consts`.
//! Plan construction validates every call and operand: a call to an
//! undefined function id is a clean [`SimError`] at `Device::new` time
//! instead of an index panic mid-run.

use crate::compile::{self, BlockSrc, CompiledBlock, Entry, Exit, Slot};
use crate::cost::CostModel;
use crate::error::SimError;
use crate::mem;
use omp_ir::omprtl::{math_fn_signature, RtlFn, ALL_RTL_FNS};
use omp_ir::{AddrSpace, BlockId, FuncId, GlobalId, InstKind, Module, RtVal, Terminator, Value};
use std::ops::Range;

/// Number of runtime entry points — the size of the dense per-team
/// runtime-call counter table.
pub(crate) const NUM_RTL_FNS: usize = ALL_RTL_FNS.len();

/// A math intrinsic, resolved from its name at plan-build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MathKind {
    Sqrt,
    Exp,
    Log,
    Sin,
    Cos,
    Fabs,
    Pow,
    Fmin,
    Fmax,
    Floor,
}

impl MathKind {
    fn from_name(name: &str) -> Option<MathKind> {
        Some(match name.trim_end_matches('f') {
            "sqrt" => MathKind::Sqrt,
            "exp" => MathKind::Exp,
            "log" => MathKind::Log,
            "sin" => MathKind::Sin,
            "cos" => MathKind::Cos,
            "fabs" => MathKind::Fabs,
            "pow" => MathKind::Pow,
            "fmin" => MathKind::Fmin,
            "fmax" => MathKind::Fmax,
            "floor" => MathKind::Floor,
            _ => return None,
        })
    }
}

/// Pre-resolved dispatch target of a call.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CallTarget {
    /// Call into a defined function body.
    Direct(FuncId),
    /// OpenMP device runtime entry point.
    Rtl(RtlFn),
    /// Math intrinsic (`true` = `f32` result, the `-f` suffix forms).
    Math(MathKind, bool),
    /// Declaration with no runtime semantics — traps if executed.
    Extern(FuncId),
    /// Callee is a runtime value, read from this operand and resolved
    /// per execution.
    Indirect(Slot),
}

/// One basic block, lowered.
pub(crate) struct BlockPlan {
    /// One entry per code position (leading phis excluded).
    pub lowered: Vec<Entry>,
    /// The terminator, the one exit of both paths.
    pub exit: Exit,
    /// The same steps fused ([`crate::compile`]); `None` when the block
    /// contains a call.
    pub compiled: Option<CompiledBlock>,
}

/// The decoded form of one defined function.
pub(crate) struct FuncPlan {
    pub entry: BlockId,
    /// Register count: one slot per instruction-arena entry, at the
    /// head of the value file.
    pub num_regs: usize,
    /// Argument slots, right after the registers: one past the highest
    /// argument any operand reads.
    pub num_args: usize,
    /// Offset of this function's sites in the dense plan-wide index.
    pub site_base: u32,
    /// Indexed by `BlockId`; `None` for dead arena slots.
    pub blocks: Vec<Option<BlockPlan>>,
    /// The tail of the frame image, from slot `num_regs + num_args`:
    /// the interned constants and globals. Registers and arguments
    /// start empty, so the image stores only this part.
    pub consts: Vec<Option<RtVal>>,
    /// The slot of every global an operand references.
    pub globals: Vec<(u32, GlobalId)>,
    /// `(slot, offset)` of each shared-space global: a team-dependent
    /// address, patched into every frame at push. Filled by
    /// [`ExecPlan::bind_globals`].
    pub shared: Vec<(u32, u64)>,
}

impl FuncPlan {
    #[inline]
    pub fn block(&self, id: BlockId) -> &BlockPlan {
        self.blocks[id.index()]
            .as_ref()
            .expect("dead block executed")
    }

    /// The argument range of the value file.
    #[inline]
    pub fn args(&self) -> Range<usize> {
        self.num_regs..self.consts_at()
    }

    /// The first slot of `consts`.
    #[inline]
    pub fn consts_at(&self) -> usize {
        self.num_regs + self.num_args
    }
}

/// The precompiled execution plan for a module: per-function tables
/// plus the function-nature table used to dispatch indirect calls.
pub struct ExecPlan {
    funcs: Vec<Option<FuncPlan>>,
    /// Indexed by `FuncId`: how a call to that function dispatches
    /// (never `Indirect`).
    nature: Vec<CallTarget>,
    /// Total number of access sites across all functions — the length
    /// of the dense coalescing-state tables.
    total_sites: u32,
    num_globals: usize,
}

impl ExecPlan {
    /// Decodes `module` into an execution plan, validating every call
    /// target and operand reference. Fused blocks are compiled against
    /// the default cost model; use [`ExecPlan::build_with_cost`] when
    /// the device charges a non-default one.
    pub fn build(module: &Module) -> Result<ExecPlan, SimError> {
        Self::build_with_cost(module, &CostModel::default())
    }

    /// Like [`ExecPlan::build`], pre-summing fused block cycle costs
    /// from `cost` so fused charges are bit-identical to per-entry ones
    /// under any cost model.
    pub fn build_with_cost(module: &Module, cost: &CostModel) -> Result<ExecPlan, SimError> {
        let num_functions = module.num_functions();
        let num_globals = module.global_ids().count();
        let mut nature = Vec::with_capacity(num_functions);
        for fid in module.func_ids() {
            let f = module.func(fid);
            nature.push(if let Some(rtl) = RtlFn::from_name(&f.name) {
                CallTarget::Rtl(rtl)
            } else if math_fn_signature(&f.name).is_some() {
                let kind = MathKind::from_name(&f.name)
                    .ok_or_else(|| SimError::trap(format!("unknown math fn {}", f.name)))?;
                CallTarget::Math(kind, f.name.ends_with('f'))
            } else if f.is_declaration() {
                CallTarget::Extern(fid)
            } else {
                CallTarget::Direct(fid)
            });
        }
        let mut funcs: Vec<Option<FuncPlan>> = Vec::with_capacity(num_functions);
        let mut total_sites: u32 = 0;
        for fid in module.func_ids() {
            let f = module.func(fid);
            if f.is_declaration() {
                funcs.push(None);
                continue;
            }
            let check =
                |v: Value| -> Result<(), SimError> {
                    match v {
                        Value::Func(g) if g.index() >= num_functions => Err(SimError::trap(
                            format!("@{}: reference to undefined function {g}", f.name),
                        )),
                        Value::Global(g) if g.index() >= num_globals => Err(SimError::trap(
                            format!("@{}: reference to undefined global {g}", f.name),
                        )),
                        _ => Ok(()),
                    }
                };
            let mut num_regs = 0usize;
            let mut max_block = 0usize;
            for b in f.block_ids() {
                max_block = max_block.max(b.index() + 1);
                for &i in &f.block(b).insts {
                    num_regs = num_regs.max(i.index() + 1);
                }
            }
            let mut blocks: Vec<Option<BlockSrc>> = (0..max_block).map(|_| None).collect();
            for b in f.block_ids() {
                let data = f.block(b);
                let mut phis = Vec::new();
                let mut code = Vec::new();
                let mut in_header = true;
                for &i in &data.insts {
                    let kind = f.inst(i);
                    match kind {
                        InstKind::Phi { incoming, .. } if in_header => {
                            for &(_, v) in incoming.iter() {
                                check(v)?;
                            }
                            phis.push((i, incoming.as_slice()));
                            continue;
                        }
                        _ => in_header = false,
                    }
                    for_each_operand(kind, &mut |v| check(v).is_ok())
                        .then_some(())
                        .ok_or_else(|| bad_operand(&f.name, kind, num_functions, num_globals))?;
                    code.push((i, kind));
                }
                match &data.term {
                    Terminator::CondBr { cond, .. } => check(*cond)?,
                    Terminator::Ret(Some(v)) => check(*v)?,
                    _ => {}
                }
                blocks[b.index()] = Some(BlockSrc {
                    phis,
                    code,
                    term: &data.term,
                });
            }
            funcs.push(Some(compile::compile_func(
                &blocks,
                f.entry(),
                &nature,
                num_regs,
                total_sites,
                cost,
            )));
            total_sites += num_regs as u32;
        }
        Ok(ExecPlan {
            funcs,
            nature,
            total_sites,
            num_globals,
        })
    }

    /// Writes the device's global placement (indexed by `GlobalId`)
    /// into the frame images: a global-space address is the same for
    /// every team and goes into `consts` itself; a shared-space one is
    /// recorded for [`FuncPlan::shared`] patching at frame push.
    pub(crate) fn bind_globals(&mut self, placement: &[(AddrSpace, u64)]) {
        for fp in self.funcs.iter_mut().flatten() {
            fp.shared.clear();
            let at = fp.consts_at();
            for &(slot, g) in &fp.globals {
                match placement[g.index()] {
                    (AddrSpace::Global, off) => {
                        fp.consts[slot as usize - at] = Some(RtVal::Ptr(mem::global_addr(off)));
                    }
                    (AddrSpace::Shared, off) => fp.shared.push((slot, off)),
                }
            }
        }
    }

    /// The decoded plan for a defined function, or `None` for
    /// declarations.
    #[inline]
    pub(crate) fn func(&self, id: FuncId) -> Option<&FuncPlan> {
        self.funcs.get(id.index()).and_then(|f| f.as_ref())
    }

    /// How a call to `id` dispatches, or `None` if out of range.
    #[inline]
    pub(crate) fn nature(&self, id: FuncId) -> Option<CallTarget> {
        self.nature.get(id.index()).copied()
    }

    /// Total access-site count (dense coalescing-table length).
    #[inline]
    pub(crate) fn total_sites(&self) -> u32 {
        self.total_sites
    }

    /// Number of globals the plan was validated against.
    pub(crate) fn num_globals(&self) -> usize {
        self.num_globals
    }
}

fn bad_operand(func: &str, kind: &InstKind, num_functions: usize, num_globals: usize) -> SimError {
    // Re-walk to produce a precise message (cold path).
    let mut msg = format!("@{func}: invalid operand in {kind:?}");
    for_each_operand(kind, &mut |v| {
        match v {
            Value::Func(g) if g.index() >= num_functions => {
                msg = format!("@{func}: call or reference to undefined function {g}");
            }
            Value::Global(g) if g.index() >= num_globals => {
                msg = format!("@{func}: reference to undefined global {g}");
            }
            _ => {}
        }
        true
    });
    SimError::trap(msg)
}

/// Visits each operand; stops early (returning `false`) when the
/// visitor does.
pub(crate) fn for_each_operand(kind: &InstKind, f: &mut impl FnMut(Value) -> bool) -> bool {
    let mut ok = true;
    let mut visit = |v: Value| {
        if ok && !f(v) {
            ok = false;
        }
    };
    match kind {
        InstKind::Alloca { .. } => {}
        InstKind::Load { ptr, .. } => visit(*ptr),
        InstKind::Store { ptr, val } => {
            visit(*ptr);
            visit(*val);
        }
        InstKind::Bin { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => {
            visit(*lhs);
            visit(*rhs);
        }
        InstKind::Cast { val, .. } => visit(*val),
        InstKind::Gep { base, index, .. } => {
            visit(*base);
            visit(*index);
        }
        InstKind::Call { callee, args, .. } => {
            visit(*callee);
            for a in args {
                visit(*a);
            }
        }
        InstKind::Select {
            cond,
            on_true,
            on_false,
            ..
        } => {
            visit(*cond);
            visit(*on_true);
            visit(*on_false);
        }
        InstKind::Phi { incoming, .. } => {
            for &(_, v) in incoming {
                visit(v);
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_ir::{Function, Type};

    fn module_with_call(callee: Value) -> Module {
        let mut m = Module::new("t");
        let mut f = Function::definition("k", vec![], Type::Void);
        let e = f.entry();
        f.append_inst(
            e,
            InstKind::Call {
                callee,
                args: vec![],
                ret: Type::Void,
            },
        );
        f.block_mut(e).term = Terminator::Ret(None);
        m.add_function(f);
        m
    }

    #[test]
    fn plan_rejects_call_to_undefined_function() {
        let m = module_with_call(Value::Func(FuncId(999)));
        let err = ExecPlan::build(&m).err().expect("must not build");
        match err.kind {
            crate::error::SimErrorKind::Trap(msg) => {
                assert!(msg.contains("undefined function"), "{msg}")
            }
            other => panic!("expected a trap, got {other:?}"),
        }
    }

    #[test]
    fn plan_rejects_reference_to_undefined_global() {
        let mut m = Module::new("t");
        let mut f = Function::definition("k", vec![], Type::Void);
        let e = f.entry();
        f.append_inst(
            e,
            InstKind::Load {
                ptr: Value::Global(omp_ir::GlobalId(7)),
                ty: Type::I64,
            },
        );
        f.block_mut(e).term = Terminator::Ret(None);
        m.add_function(f);
        assert!(matches!(
            ExecPlan::build(&m),
            Err(e) if matches!(e.kind, crate::error::SimErrorKind::Trap(_))
        ));
    }

    #[test]
    fn plan_resolves_rtl_and_direct_targets() {
        let mut m = Module::new("t");
        let rtl = m.add_function(Function::declaration("__kmpc_barrier", vec![], Type::Void));
        let mut f = Function::definition("k", vec![], Type::Void);
        let e = f.entry();
        let call = f.append_inst(
            e,
            InstKind::Call {
                callee: Value::Func(rtl),
                args: vec![],
                ret: Type::Void,
            },
        );
        f.block_mut(e).term = Terminator::Ret(None);
        let k = m.add_function(f);
        let plan = ExecPlan::build(&m).unwrap();
        let fp = plan.func(k).unwrap();
        assert!(matches!(
            fp.block(e).lowered[0],
            Entry::Call(compile::Call {
                dst,
                target: CallTarget::Rtl(RtlFn::Barrier),
                ..
            }) if dst == call
        ));
        assert!(matches!(plan.nature(k), Some(CallTarget::Direct(_))));
        assert!(plan.func(rtl).is_none());
    }
}
