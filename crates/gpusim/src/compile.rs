//! Block lowering: every [`BlockPlan`] gets one lowered form, read by
//! both tiers. Each code entry becomes an [`Entry`] — a pre-decoded
//! [`Step`], a [`Call`] with its operands and pre-resolved target, or a
//! skipped mid-block phi — and the terminator becomes an [`Exit`] whose
//! branches are [`Edge`]s. Blocks without calls are additionally fused
//! into [`CompiledBlock`]s the executor runs without per-instruction
//! budget checks or charges.
//!
//! Both happen once, at plan-build time (`ExecPlan::build`), per basic
//! block:
//!
//! * every operand [`Value`] is pre-decoded into a [`Slot`] — constants
//!   (including function addresses and `undef`) become materialized
//!   [`RtVal`]s, so constant-operand arithmetic never re-decodes its
//!   immediate at run time;
//! * branch targets become [`Edge`]s with the successor's phi moves
//!   pre-resolved for this predecessor; a phi with no incoming for it
//!   is recorded on the edge and traps only when the edge is taken;
//! * common idioms fuse into superinstructions: address-calc + load
//!   ([`Step::GepLoad`]), load + arithmetic + store
//!   ([`Step::LoadBinStore`]), and a compare feeding the block's
//!   conditional branch ([`CmpBr`]). Fusion elides the intermediate
//!   register write when whole-function SSA use counts prove the fused
//!   consumer is the only reader;
//! * the block's instruction count, static cycle cost (in total and per
//!   [`CycleClass`], for the profiler) and step counts are pre-summed
//!   from the per-entry [`Lowered`] costs tier 0 charges one at a time,
//!   so one compiled block run performs a single budget check and a
//!   single bulk charge — bit-identical to tier 0's per-instruction
//!   accounting.
//!
//! A block with a call in it does not compile; one that ends in `ret`
//! or `unreachable` compiles but bridges, handing the frame back to
//! tier 0 positioned exactly at the terminator. Tier 0 runs the same
//! [`Step`]s unfused and takes the same [`Exit`], so an op has one
//! definition (`TeamExec::exec_step`); compiled blocks are a strict fast
//! path over it.

use crate::cost::CostModel;
use crate::plan::{for_each_operand, BlockPlan, CallTarget, MathKind};
use crate::profile::CycleClass;
use crate::value::RtVal;
use omp_ir::{BinOp, BlockId, CastOp, CmpOp, InstId, InstKind, Terminator, Type, Value};

/// One basic block as the plan builder decodes it: leading phis
/// (evaluated on block entry), the remaining instructions, and the
/// terminator, borrowed from the module only while the plan is built.
pub(crate) struct BlockSrc<'m> {
    pub phis: Vec<(InstId, &'m [(BlockId, Value)])>,
    pub code: Vec<(InstId, &'m InstKind)>,
    pub term: &'m Terminator,
}

/// A pre-decoded operand: what [`Value`] decodes to once the constant
/// forms are materialized at compile time. `Global` stays an index
/// because a global's address depends on the executing team.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    /// Read the frame register of this instruction (trap message keeps
    /// the original id, matching the interpreter exactly).
    Reg(InstId),
    /// Read a kernel/function argument.
    Arg(u32),
    /// A value fully known at compile time.
    Const(RtVal),
    /// Dense global-table index, resolved against the team at run time.
    Global(u32),
}

/// One compiled step. `site` fields are plan-wide coalescing-site
/// indices (`site_base + inst`), precomputed so the run-time path feeds
/// the same classifier as the interpreter.
#[derive(Debug, Clone)]
pub(crate) enum Step {
    Alloca {
        size: u64,
        dst: InstId,
    },
    Load {
        ptr: Slot,
        ty: Type,
        site: u32,
        dst: InstId,
    },
    Store {
        ptr: Slot,
        val: Slot,
        site: u32,
    },
    Bin {
        op: BinOp,
        ty: Type,
        lhs: Slot,
        rhs: Slot,
        dst: InstId,
    },
    Cmp {
        op: CmpOp,
        ty: Type,
        lhs: Slot,
        rhs: Slot,
        dst: InstId,
    },
    Cast {
        op: CastOp,
        val: Slot,
        to: Type,
        dst: InstId,
    },
    Gep {
        base: Slot,
        index: Slot,
        scale: u64,
        offset: i64,
        dst: InstId,
    },
    Select {
        cond: Slot,
        on_true: Slot,
        on_false: Slot,
        dst: InstId,
    },
    /// Pure math intrinsic call (`sqrt`, `pow`, ...): no frame push, no
    /// scheduler interaction, so it fuses into the straight line.
    Math {
        kind: MathKind,
        f32_out: bool,
        args: [Slot; 2],
        n_args: u8,
        dst: InstId,
    },
    /// Superinstruction: `gep` + `load` through the computed address.
    /// `addr_dst` is `None` when the load is the address's only use.
    GepLoad {
        base: Slot,
        index: Slot,
        scale: u64,
        offset: i64,
        addr_dst: Option<InstId>,
        ty: Type,
        site: u32,
        dst: InstId,
    },
    /// Superinstruction: `load` + binary op + `store` of the result.
    /// `ldst`/`bdst` are `None` when the fused consumer is the loaded
    /// (resp. computed) value's only use.
    LoadBinStore {
        ptr: Slot,
        lty: Type,
        lsite: u32,
        ldst: Option<InstId>,
        op: BinOp,
        bty: Type,
        other: Slot,
        loaded_is_lhs: bool,
        bdst: Option<InstId>,
        sptr: Slot,
        ssite: u32,
    },
}

/// A pre-resolved branch edge: the target block plus the target's phi
/// assignments for this predecessor, evaluated simultaneously (reads
/// before writes).
#[derive(Debug, Clone)]
pub(crate) struct Edge {
    pub target: BlockId,
    pub moves: Vec<(InstId, Slot)>,
    /// The first phi of `target` with no incoming for this predecessor:
    /// taking the edge evaluates the moves of the phis before it, then
    /// traps.
    pub missing: Option<InstId>,
}

/// A block's lowered terminator.
#[derive(Debug, Clone)]
pub(crate) enum Exit {
    Br(Edge),
    CondBr {
        cond: Slot,
        then_e: Edge,
        else_e: Edge,
    },
    Ret(Option<Slot>),
    Unreachable,
}

/// Superinstruction: the block's trailing compare feeds its `CondBr`
/// exit directly; `at` is the compare's code index for error
/// provenance.
#[derive(Debug, Clone)]
pub(crate) struct CmpBr {
    pub op: CmpOp,
    pub ty: Type,
    pub lhs: Slot,
    pub rhs: Slot,
    pub at: u32,
}

/// A call site: the pre-resolved target (an indirect one carries its
/// callee operand) and the argument operands.
#[derive(Debug, Clone)]
pub(crate) struct Call {
    pub dst: InstId,
    pub target: CallTarget,
    pub args: Vec<Slot>,
}

/// One code entry of a block, lowered.
#[derive(Debug, Clone)]
pub(crate) enum Entry {
    Step(Lowered),
    /// Runs through the executor's call path.
    Call(Call),
    /// A mid-block phi: counted as an instruction, never executed or
    /// charged.
    Skip,
}

impl Entry {
    fn step(&self) -> Option<&Lowered> {
        match self {
            Entry::Step(l) => Some(l),
            _ => None,
        }
    }
}

/// A straight-line entry, lowered for tier 0: the unfused step and the
/// static cycles it charges under `class`. Memory steps have `cycles == 0`;
/// their cost is dynamic and charged per access by `exec_step`.
#[derive(Debug, Clone)]
pub(crate) struct Lowered {
    pub step: Step,
    pub cycles: u64,
    pub class: CycleClass,
}

/// The classes a block's static cycles fall into, in the order of
/// [`CompiledBlock::class_cycles`]. Loads and stores charge
/// dynamically; calls and runtime entry points never run in a compiled
/// body.
pub(crate) const STATIC_CLASSES: [CycleClass; 4] = [
    CycleClass::Alloca,
    CycleClass::Alu,
    CycleClass::Branch,
    CycleClass::Math,
];

/// One block, fused: the step array plus pre-summed accounting.
///
/// Executing the block once costs `n_insts` instructions and
/// `static_cycles` cycles plus the dynamic memory-access costs the
/// steps accumulate. A run is entered only when the remaining
/// instruction budget covers `n_insts` (the caller deopts to tier 0
/// otherwise), which keeps budget-stop errors at the exact instruction
/// tier 0 would report.
#[derive(Debug, Clone)]
pub(crate) struct CompiledBlock {
    /// `(code index of the first fused component, step)`.
    pub steps: Vec<(u32, Step)>,
    /// Dynamic instructions per full run: every code entry (fused
    /// components and skipped mid-block phis included) plus the
    /// terminator iteration for a branch exit.
    pub n_insts: u64,
    /// Cycles per full run, excluding dynamic memory-access costs.
    pub static_cycles: u64,
    /// Superinstruction statistics deltas per full run: `GepLoad`
    /// steps, `LoadBinStore` steps, and every other step.
    pub gep_loads: u32,
    pub load_bin_stores: u32,
    pub plain_steps: u32,
    /// The compare fused into the block's `CondBr` exit, if any.
    pub cmp_br: Option<CmpBr>,
    /// `static_cycles` split by [`STATIC_CLASSES`]; read only when a
    /// profiler observes the run.
    pub class_cycles: [u64; 4],
}

/// Lowers and compiles every block of one function. `nature` resolves
/// direct callees; SSA use counts over the whole function let fusion
/// prove an intermediate register write unobservable.
pub(crate) fn compile_func(
    blocks: &[Option<BlockSrc<'_>>],
    nature: &[CallTarget],
    num_regs: usize,
    site_base: u32,
    cost: &CostModel,
) -> Vec<Option<BlockPlan>> {
    let counts = use_counts(blocks, num_regs);
    blocks
        .iter()
        .enumerate()
        .map(|(b, src)| {
            let src = src.as_ref()?;
            let lowered: Vec<Entry> = src
                .code
                .iter()
                .map(|&(id, kind)| lower_one(id, kind, nature, site_base, cost))
                .collect();
            let exit = lower_exit(BlockId::from_index(b), src.term, blocks);
            let compiled = compile_block(&lowered, &exit, &counts, cost);
            Some(BlockPlan {
                lowered,
                exit,
                compiled,
            })
        })
        .collect()
}

/// Whole-function SSA use counts, indexed by `InstId`.
fn use_counts(blocks: &[Option<BlockSrc<'_>>], num_regs: usize) -> Vec<u32> {
    let mut counts = vec![0u32; num_regs];
    let mut bump = |v: Value| {
        if let Value::Inst(i) = v {
            counts[i.index()] += 1;
        }
        true
    };
    for bp in blocks.iter().flatten() {
        for &(_, incoming) in &bp.phis {
            for &(_, v) in incoming {
                bump(v);
            }
        }
        for &(_, kind) in &bp.code {
            for_each_operand(kind, &mut bump);
        }
        match bp.term {
            Terminator::CondBr { cond, .. } => {
                bump(*cond);
            }
            Terminator::Ret(Some(v)) => {
                bump(*v);
            }
            _ => {}
        }
    }
    counts
}

fn slot(v: Value) -> Slot {
    match v {
        Value::Inst(i) => Slot::Reg(i),
        Value::Arg(n) => Slot::Arg(n),
        Value::ConstInt(c, ty) => Slot::Const(match ty {
            Type::I1 => RtVal::Bool(c != 0),
            Type::I32 => RtVal::I32(c as i32),
            _ => RtVal::I64(c),
        }),
        Value::ConstFloat(bits, ty) => Slot::Const(match ty {
            Type::F32 => RtVal::F32(f64::from_bits(bits) as f32),
            _ => RtVal::F64(f64::from_bits(bits)),
        }),
        Value::Global(g) => Slot::Global(g.index() as u32),
        Value::Func(f) => Slot::Const(RtVal::Ptr(crate::mem::func_addr(f.0))),
        Value::Null => Slot::Const(RtVal::Ptr(0)),
        Value::Undef(ty) => Slot::Const(RtVal::zero(ty)),
    }
}

/// Pre-resolves the phi moves of `target` for predecessor `from`, up to
/// the first phi with no incoming for it.
fn edge(from: BlockId, target: BlockId, blocks: &[Option<BlockSrc<'_>>]) -> Edge {
    let mut e = Edge {
        target,
        moves: Vec::new(),
        missing: None,
    };
    // A dead target has no phis; executing it panics like any dead
    // block.
    let Some(Some(tp)) = blocks.get(target.index()) else {
        return e;
    };
    for &(i, incoming) in &tp.phis {
        match incoming.iter().find(|(p, _)| *p == from) {
            Some(&(_, v)) => e.moves.push((i, slot(v))),
            None => {
                e.missing = Some(i);
                break;
            }
        }
    }
    e
}

fn lower_exit(from: BlockId, term: &Terminator, blocks: &[Option<BlockSrc<'_>>]) -> Exit {
    match *term {
        Terminator::Br(t) => Exit::Br(edge(from, t, blocks)),
        Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        } => Exit::CondBr {
            cond: slot(cond),
            then_e: edge(from, then_bb, blocks),
            else_e: edge(from, else_bb, blocks),
        },
        Terminator::Ret(v) => Exit::Ret(v.map(slot)),
        Terminator::Unreachable => Exit::Unreachable,
    }
}

/// Lowers one decoded instruction: to its unfused step and static
/// charge, to a call (any but a pure math intrinsic, which is a step),
/// or to a skip (a mid-block phi).
fn lower_one(
    id: InstId,
    kind: &InstKind,
    nature: &[CallTarget],
    site_base: u32,
    cost: &CostModel,
) -> Entry {
    let (step, cycles, class) = match *kind {
        InstKind::Alloca { size, .. } => (
            Step::Alloca { size, dst: id },
            cost.simple_op,
            CycleClass::Alloca,
        ),
        InstKind::Load { ptr, ty } => (
            Step::Load {
                ptr: slot(ptr),
                ty,
                site: site_base + id.0,
                dst: id,
            },
            0,
            CycleClass::Load,
        ),
        InstKind::Store { ptr, val } => (
            Step::Store {
                ptr: slot(ptr),
                val: slot(val),
                site: site_base + id.0,
            },
            0,
            CycleClass::Store,
        ),
        InstKind::Bin { op, ty, lhs, rhs } => (
            Step::Bin {
                op,
                ty,
                lhs: slot(lhs),
                rhs: slot(rhs),
                dst: id,
            },
            cost.bin_cost(op),
            CycleClass::Alu,
        ),
        InstKind::Cmp { op, ty, lhs, rhs } => (
            Step::Cmp {
                op,
                ty,
                lhs: slot(lhs),
                rhs: slot(rhs),
                dst: id,
            },
            cost.simple_op,
            CycleClass::Alu,
        ),
        InstKind::Cast { op, val, to } => (
            Step::Cast {
                op,
                val: slot(val),
                to,
                dst: id,
            },
            match op {
                CastOp::IntToPtr | CastOp::PtrToInt => cost.ptr_reinterpret,
                _ => cost.simple_op,
            },
            CycleClass::Alu,
        ),
        InstKind::Gep {
            base,
            index,
            scale,
            offset,
        } => (
            Step::Gep {
                base: slot(base),
                index: slot(index),
                scale,
                offset,
                dst: id,
            },
            cost.int_op,
            CycleClass::Alu,
        ),
        InstKind::Select {
            cond,
            on_true,
            on_false,
            ..
        } => (
            Step::Select {
                cond: slot(cond),
                on_true: slot(on_true),
                on_false: slot(on_false),
                dst: id,
            },
            cost.simple_op,
            CycleClass::Alu,
        ),
        InstKind::Call {
            callee, ref args, ..
        } => {
            let target = match callee {
                // The plan validated every function reference.
                Value::Func(f) => nature[f.index()],
                v => CallTarget::Indirect(slot(v)),
            };
            match target {
                CallTarget::Math(kind, f32_out) if args.len() <= 2 => {
                    let mut slots = [Slot::Const(RtVal::I64(0)); 2];
                    for (k, &a) in args.iter().enumerate() {
                        slots[k] = slot(a);
                    }
                    (
                        Step::Math {
                            kind,
                            f32_out,
                            args: slots,
                            n_args: args.len() as u8,
                            dst: id,
                        },
                        cost.math_fn,
                        CycleClass::Math,
                    )
                }
                _ => {
                    return Entry::Call(Call {
                        dst: id,
                        target,
                        args: args.iter().map(|&a| slot(a)).collect(),
                    })
                }
            }
        }
        InstKind::Phi { .. } => return Entry::Skip,
    };
    Entry::Step(Lowered {
        step,
        cycles,
        class,
    })
}

/// Whether slot `s` reads the register of instruction `id`.
fn reads(s: Slot, id: InstId) -> bool {
    matches!(s, Slot::Reg(r) if r == id)
}

/// Fuses one block's step entries into a compiled body, or `None` when
/// the block has a call.
fn compile_block(
    lowered: &[Entry],
    exit: &Exit,
    counts: &[u32],
    cost: &CostModel,
) -> Option<CompiledBlock> {
    let mut class_cycles = [0u64; 4];
    // Loads and stores have no slot: their cost is dynamic.
    let mut charge = |class: CycleClass, cycles: u64| {
        if let Some(c) = STATIC_CLASSES.iter().position(|&s| s == class) {
            class_cycles[c] += cycles;
        }
    };

    // The exit first: a fused compare-and-branch trims the step range.
    let mut upper = lowered.len();
    let mut cmp_br = None;
    let bridge = matches!(exit, Exit::Ret(_) | Exit::Unreachable);
    if bridge && lowered.is_empty() {
        // Nothing to speed up, and an empty bridge body would re-enter
        // itself from the resolve loop.
        return None;
    }
    if !bridge {
        charge(CycleClass::Branch, cost.simple_op);
    }
    if let (
        &Exit::CondBr {
            cond: Slot::Reg(c), ..
        },
        Some(Entry::Step(Lowered {
            step:
                Step::Cmp {
                    op,
                    ty,
                    lhs,
                    rhs,
                    dst,
                },
            cycles,
            ..
        })),
    ) = (exit, lowered.last())
    {
        if *dst == c && counts[c.index()] == 1 {
            upper -= 1;
            // The compare charges as Alu, same as unfused.
            charge(CycleClass::Alu, *cycles);
            cmp_br = Some(CmpBr {
                op: *op,
                ty: *ty,
                lhs: *lhs,
                rhs: *rhs,
                at: upper as u32,
            });
        }
    }

    let mut steps: Vec<(u32, Step)> = Vec::new();
    let (mut gep_loads, mut load_bin_stores) = (0u32, 0u32);
    let mut i = 0usize;
    while i < upper {
        let at = i as u32;
        let l = match &lowered[i] {
            Entry::Step(l) => l,
            // Counted in `n_insts`, never executed: tier 0 skips
            // mid-block phis without charging.
            Entry::Skip => {
                i += 1;
                continue;
            }
            Entry::Call(_) => return None,
        };
        let next = |k: usize| lowered[i + 1..upper].get(k).and_then(Entry::step);

        // Superinstruction: load + bin + store (the canonical
        // read-modify-write idiom).
        if let (
            &Step::Load {
                ptr,
                ty: lty,
                site: lsite,
                dst: id,
            },
            Some(Lowered {
                step:
                    Step::Bin {
                        op,
                        ty: bty,
                        lhs,
                        rhs,
                        dst: bid,
                    },
                cycles,
                ..
            }),
            Some(Lowered {
                step:
                    Step::Store {
                        ptr: sptr,
                        val,
                        site: ssite,
                    },
                ..
            }),
        ) = (&l.step, next(0), next(1))
        {
            let loaded_is_lhs = reads(*lhs, id);
            if (loaded_is_lhs ^ reads(*rhs, id)) && reads(*val, *bid) {
                steps.push((
                    at,
                    Step::LoadBinStore {
                        ptr,
                        lty,
                        lsite,
                        ldst: (counts[id.index()] > 1).then_some(id),
                        op: *op,
                        bty: *bty,
                        other: if loaded_is_lhs { *rhs } else { *lhs },
                        loaded_is_lhs,
                        bdst: (counts[bid.index()] > 1).then_some(*bid),
                        sptr: *sptr,
                        ssite: *ssite,
                    },
                ));
                charge(CycleClass::Alu, *cycles);
                load_bin_stores += 1;
                i += 3;
                continue;
            }
        }

        // Superinstruction: address calculation + load.
        if let (
            &Step::Gep {
                base,
                index,
                scale,
                offset,
                dst: id,
            },
            Some(Lowered {
                step:
                    Step::Load {
                        ptr,
                        ty,
                        site,
                        dst: lid,
                    },
                ..
            }),
        ) = (&l.step, next(0))
        {
            if reads(*ptr, id) {
                steps.push((
                    at,
                    Step::GepLoad {
                        base,
                        index,
                        scale,
                        offset,
                        addr_dst: (counts[id.index()] > 1).then_some(id),
                        ty: *ty,
                        site: *site,
                        dst: *lid,
                    },
                ));
                charge(CycleClass::Alu, l.cycles);
                gep_loads += 1;
                i += 2;
                continue;
            }
        }

        steps.push((at, l.step.clone()));
        charge(l.class, l.cycles);
        i += 1;
    }

    let n_insts = lowered.len() as u64 + if bridge { 0 } else { 1 };
    Some(CompiledBlock {
        plain_steps: steps.len() as u32 - gep_loads - load_bin_stores,
        steps,
        n_insts,
        static_cycles: class_cycles.iter().sum(),
        gep_loads,
        load_bin_stores,
        cmp_br,
        class_cycles,
    })
}
