//! Block lowering: every [`BlockPlan`] gets one lowered form, read by
//! the one executor loop. Each code entry becomes an [`Entry`] — a
//! pre-decoded [`Step`], a [`Call`] with its operands and pre-resolved
//! target, or a skipped mid-block phi — and the terminator becomes an
//! [`Exit`] whose branches are [`Edge`]s. Blocks without calls are
//! additionally fused into [`CompiledBlock`]s the executor runs without
//! per-instruction budget checks or charges.
//!
//! Both happen once, at plan-build time (`ExecPlan::build`), per basic
//! block:
//!
//! * every operand [`Value`] becomes a [`Slot`], a plain index into the
//!   function's value file `[registers | arguments | constants]`.
//!   Constants (function addresses, `null` and `undef` included) are
//!   materialized once as [`RtVal`]s and interned into the tail, keyed
//!   by type and bit pattern, and so is every referenced global; the
//!   argument range is sized by the highest argument any operand reads.
//!   Empty registers and arguments followed by that tail are the frame
//!   image a call starts its frame from, so reading any operand at run
//!   time is one indexed load;
//! * branch targets become [`Edge`]s with the successor's phi moves
//!   pre-resolved for this predecessor; a phi with no incoming for it
//!   is recorded on the edge and traps only when the edge is taken. An
//!   edge whose moves can be applied in order (no move reads a register
//!   an earlier move writes) is copied in place; only the others, such
//!   as a phi swap, need a parallel copy;
//! * common idioms fuse into superinstructions: address-calc + load
//!   ([`Step::GepLoad`]), load + arithmetic + store
//!   ([`Step::LoadBinStore`]), and a compare feeding the block's
//!   conditional branch ([`CmpBr`]). Fusion elides the intermediate
//!   register write when whole-function SSA use counts prove the fused
//!   consumer is the only reader;
//! * the block's instruction count, static cycle cost (in total and per
//!   [`CycleClass`], for the profiler) and step counts are pre-summed
//!   from the per-entry [`Lowered`] costs, terminator included, so one
//!   fused block run performs a single budget check and a single bulk
//!   charge — bit-identical to running the entries one at a time.
//!
//! A block with a call in it does not compile. Every other block does,
//! whatever its exit: the executor runs the same [`Step`]s fused or one
//! entry at a time and leaves the block through the same [`Exit`] on
//! both paths, so an op has one definition (`TeamExec::exec_step`);
//! compiled blocks are a strict fast path over it.

use crate::cost::CostModel;
use crate::mem::PageHash;
use crate::plan::{for_each_operand, BlockPlan, CallTarget, FuncPlan, MathKind};
use crate::profile::CycleClass;
use omp_ir::{
    BinOp, BlockId, CastOp, CmpOp, GlobalId, InstId, InstKind, RtVal, Terminator, Type, Value,
};
use std::collections::HashMap;

/// One basic block as the plan builder decodes it: leading phis
/// (evaluated on block entry), the remaining instructions, and the
/// terminator, borrowed from the module only while the plan is built.
pub(crate) struct BlockSrc<'m> {
    pub phis: Vec<(InstId, &'m [(BlockId, Value)])>,
    pub code: Vec<(InstId, &'m InstKind)>,
    pub term: &'m Terminator,
}

/// A lowered operand: an index into the executing frame's value file,
/// laid out `[registers | arguments | constants]`. Register `i` is the
/// result of instruction `i`; argument `n` sits at `num_regs + n`; the
/// tail holds the function's interned constants and globals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot(pub u32);

impl Slot {
    /// The register that holds instruction `i`'s result.
    pub fn reg(i: InstId) -> Slot {
        Slot(i.0)
    }
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
/// assignments for this predecessor, which take effect simultaneously.
#[derive(Debug, Clone)]
pub(crate) struct Edge {
    pub target: BlockId,
    pub moves: Vec<(InstId, Slot)>,
    /// Some move reads a register an earlier move writes, so the moves
    /// must read every source before writing any destination. When
    /// `false`, applying them in order is equivalent.
    pub parallel: bool,
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

/// A straight-line entry, lowered for the per-entry path: the unfused
/// step and the static cycles it charges under `class`. Memory steps
/// have `cycles == 0`; their cost is dynamic and charged per access by
/// `exec_step`.
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
/// instruction budget covers `n_insts` (the executor runs the block
/// entry by entry otherwise), which keeps budget-stop errors at the
/// exact instruction.
#[derive(Debug, Clone)]
pub(crate) struct CompiledBlock {
    /// `(code index of the first fused component, step)`.
    pub steps: Vec<(u32, Step)>,
    /// Dynamic instructions per full run: every code entry (fused
    /// components and skipped mid-block phis included) plus the
    /// terminator.
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

/// Lowers and compiles every block of one function into its plan.
/// `nature` resolves direct callees; SSA use counts over the whole
/// function let fusion prove an intermediate register write
/// unobservable.
pub(crate) fn compile_func(
    blocks: &[Option<BlockSrc<'_>>],
    entry: BlockId,
    nature: &[CallTarget],
    num_regs: usize,
    site_base: u32,
    cost: &CostModel,
) -> FuncPlan {
    let (counts, num_args) = use_counts(blocks, num_regs);
    let mut file = ValueFile::new(num_regs as u32, num_args);
    let mut plans = Vec::with_capacity(blocks.len());
    for (b, src) in blocks.iter().enumerate() {
        let Some(src) = src else {
            plans.push(None);
            continue;
        };
        let lowered: Vec<Entry> = src
            .code
            .iter()
            .map(|&(id, kind)| lower_one(&mut file, id, kind, nature, site_base, cost))
            .collect();
        let exit = lower_exit(&mut file, BlockId::from_index(b), src.term, blocks);
        let compiled = compile_block(&lowered, &exit, &counts, cost);
        plans.push(Some(BlockPlan {
            lowered,
            exit,
            compiled,
        }));
    }
    FuncPlan {
        entry,
        num_regs,
        num_args: num_args as usize,
        site_base,
        blocks: plans,
        consts: file.tail,
        globals: file.globals,
        shared: Vec::new(),
    }
}

/// Whole-function SSA use counts, indexed by `InstId`, and the size of
/// the argument range: one past the highest argument any operand reads.
fn use_counts(blocks: &[Option<BlockSrc<'_>>], num_regs: usize) -> (Vec<u32>, u32) {
    let mut counts = vec![0u32; num_regs];
    let mut num_args = 0u32;
    let mut bump = |v: Value| {
        match v {
            Value::Inst(i) => counts[i.index()] += 1,
            Value::Arg(n) => num_args = num_args.max(n + 1),
            _ => {}
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
    (counts, num_args)
}

/// The key a constant is interned under: its variant and bit pattern,
/// so `0.0` and `-0.0`, distinct NaN payloads, and equal numbers of
/// different types each get a slot of their own.
fn const_key(v: RtVal) -> (u8, u64) {
    match v {
        RtVal::Bool(b) => (0, b as u64),
        RtVal::I32(x) => (1, x as u32 as u64),
        RtVal::I64(x) => (2, x as u64),
        RtVal::F32(x) => (3, x.to_bits() as u64),
        RtVal::F64(x) => (4, x.to_bits()),
        RtVal::Ptr(p) => (5, p),
    }
}

/// Interning key of a global's slot, disjoint from every constant's.
const GLOBAL_KEY: u8 = 6;

/// One function's value file while it is lowered: the register and
/// argument ranges are sized up front, and the tail grows as operands
/// intern constants and globals.
struct ValueFile {
    num_regs: u32,
    num_args: u32,
    /// Slot `num_regs + num_args + k` holds `tail[k]`; a global's entry
    /// stays `None` until the device binds it.
    tail: Vec<Option<RtVal>>,
    interned: HashMap<(u8, u64), u32, PageHash>,
    /// The slot of every referenced global.
    globals: Vec<(u32, GlobalId)>,
}

impl ValueFile {
    fn new(num_regs: u32, num_args: u32) -> ValueFile {
        ValueFile {
            num_regs,
            num_args,
            tail: Vec::new(),
            // Sized so a typical function interns without rehashing,
            // the dominant cost of growing the map from empty.
            interned: HashMap::with_capacity_and_hasher(64, PageHash),
            globals: Vec::new(),
        }
    }

    /// The slot of `key`, appending `v` to the tail on first use.
    fn intern(&mut self, key: (u8, u64), v: Option<RtVal>) -> (Slot, bool) {
        let next = self.num_regs + self.num_args + self.tail.len() as u32;
        let slot = *self.interned.entry(key).or_insert(next);
        let fresh = slot == next;
        if fresh {
            self.tail.push(v);
        }
        (Slot(slot), fresh)
    }

    /// Lowers one operand to its slot.
    fn slot(&mut self, v: Value) -> Slot {
        let c = match v {
            Value::Inst(i) => return Slot::reg(i),
            Value::Arg(n) => return Slot(self.num_regs + n),
            Value::Global(g) => {
                let (s, fresh) = self.intern((GLOBAL_KEY, g.index() as u64), None);
                if fresh {
                    self.globals.push((s.0, g));
                }
                return s;
            }
            Value::Func(f) => RtVal::Ptr(crate::mem::func_addr(f.0)),
            Value::Null => RtVal::Ptr(0),
            Value::Undef(ty) => RtVal::zero(ty),
            Value::ConstInt(..) | Value::ConstFloat(..) => {
                RtVal::from_const(v).expect("a scalar constant")
            }
        };
        self.intern(const_key(c), Some(c)).0
    }
}

/// Pre-resolves the phi moves of `target` for predecessor `from`, up to
/// the first phi with no incoming for it.
fn edge(
    file: &mut ValueFile,
    from: BlockId,
    target: BlockId,
    blocks: &[Option<BlockSrc<'_>>],
) -> Edge {
    let mut e = Edge {
        target,
        moves: Vec::new(),
        parallel: false,
        missing: None,
    };
    // A dead target has no phis; executing it panics like any dead
    // block.
    let Some(Some(tp)) = blocks.get(target.index()) else {
        return e;
    };
    for &(i, incoming) in &tp.phis {
        match incoming.iter().find(|(p, _)| *p == from) {
            Some(&(_, v)) => {
                let s = file.slot(v);
                e.parallel |= e.moves.iter().any(|&(d, _)| s == Slot::reg(d));
                e.moves.push((i, s));
            }
            None => {
                e.missing = Some(i);
                break;
            }
        }
    }
    e
}

fn lower_exit(
    file: &mut ValueFile,
    from: BlockId,
    term: &Terminator,
    blocks: &[Option<BlockSrc<'_>>],
) -> Exit {
    match *term {
        Terminator::Br(t) => Exit::Br(edge(file, from, t, blocks)),
        Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        } => Exit::CondBr {
            cond: file.slot(cond),
            then_e: edge(file, from, then_bb, blocks),
            else_e: edge(file, from, else_bb, blocks),
        },
        Terminator::Ret(v) => Exit::Ret(v.map(|v| file.slot(v))),
        Terminator::Unreachable => Exit::Unreachable,
    }
}

/// Lowers one decoded instruction: to its unfused step and static
/// charge, to a call (any but a pure math intrinsic, which is a step),
/// or to a skip (a mid-block phi).
fn lower_one(
    file: &mut ValueFile,
    id: InstId,
    kind: &InstKind,
    nature: &[CallTarget],
    site_base: u32,
    cost: &CostModel,
) -> Entry {
    let mut slot = |v: Value| file.slot(v);
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
                    // Entries past `n_args` are never read.
                    let mut slots = [Slot(0); 2];
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
    s == Slot::reg(id)
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
    if matches!(exit, Exit::Br(_) | Exit::CondBr { .. }) {
        charge(CycleClass::Branch, cost.simple_op);
    }
    if let (
        &Exit::CondBr { cond, .. },
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
        if reads(cond, *dst) && counts[dst.index()] == 1 {
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
            // Counted in `n_insts`, never executed: the per-entry path
            // skips mid-block phis without charging.
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

    Some(CompiledBlock {
        plain_steps: steps.len() as u32 - gep_loads - load_bin_stores,
        steps,
        n_insts: lowered.len() as u64 + 1,
        static_cycles: class_cycles.iter().sum(),
        gep_loads,
        load_bin_stores,
        cmp_br,
        class_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExecPlan;
    use omp_ir::{Builder, Function, GlobalId, Module};

    /// Interns `vals` in order into a file of 3 registers and 2
    /// arguments, whose tail therefore starts at slot 5.
    fn intern(vals: &[Value]) -> (ValueFile, Vec<Slot>) {
        let mut file = ValueFile::new(3, 2);
        let slots = vals.iter().map(|&v| file.slot(v)).collect();
        (file, slots)
    }

    fn all_distinct(slots: &[Slot]) -> bool {
        slots
            .iter()
            .enumerate()
            .all(|(i, s)| !slots[i + 1..].contains(s))
    }

    /// The tail entry a slot reads, as `(variant, bits)`.
    fn tail_key(file: &ValueFile, s: Slot) -> (u8, u64) {
        const_key(file.tail[s.0 as usize - 5].expect("a constant slot"))
    }

    #[test]
    fn registers_and_arguments_index_the_head_of_the_file() {
        let (file, slots) = intern(&[
            Value::Inst(InstId(0)),
            Value::Inst(InstId(2)),
            Value::Arg(0),
            Value::Arg(1),
        ]);
        assert_eq!(slots, [Slot(0), Slot(2), Slot(3), Slot(4)]);
        assert!(file.tail.is_empty());
    }

    #[test]
    fn constants_differing_in_type_or_bits_get_their_own_slot() {
        let nan = |payload: u64| Value::ConstFloat(0x7ff8_0000_0000_0000 | payload, Type::F64);
        let vals = [
            Value::f64(0.0),
            Value::f64(-0.0),
            nan(1),
            nan(2),
            Value::bool(true),
            Value::i32(1),
            Value::i64(1),
        ];
        let (file, slots) = intern(&vals);
        assert!(all_distinct(&slots), "{slots:?}");
        // The tail fills in first-use order, each slot holding exactly
        // its constant.
        assert_eq!(slots, (5..12).map(Slot).collect::<Vec<_>>());
        assert_eq!(tail_key(&file, slots[1]), (4, (-0.0f64).to_bits()));
        assert_eq!(tail_key(&file, slots[3]), (4, 0x7ff8_0000_0000_0002));
        assert_eq!(tail_key(&file, slots[4]), (0, 1));

        let types = [
            Type::I1,
            Type::I32,
            Type::I64,
            Type::F32,
            Type::F64,
            Type::Ptr,
        ];
        let undefs: Vec<Value> = types.iter().map(|&t| Value::Undef(t)).collect();
        let (_, slots) = intern(&undefs);
        assert!(all_distinct(&slots), "{slots:?}");
    }

    #[test]
    fn equal_constants_and_globals_share_one_slot() {
        let (g0, g1) = (Value::Global(GlobalId(0)), Value::Global(GlobalId(1)));
        let (file, slots) = intern(&[
            Value::i64(7),
            g0,
            Value::i64(7),
            g1,
            g0,
            // `undef` materializes as zero: the same value as these.
            Value::f64(0.0),
            Value::Undef(Type::F64),
            Value::Null,
            Value::Undef(Type::Ptr),
        ]);
        assert_eq!(slots[0], slots[2]);
        assert_eq!(slots[1], slots[4]);
        assert_ne!(slots[1], slots[3]);
        assert_eq!(slots[5], slots[6]);
        assert_eq!(slots[7], slots[8]);
        assert_eq!(file.tail.len(), 5);
        assert_eq!(file.globals, [(6, GlobalId(0)), (7, GlobalId(1))]);
        // A global's address is bound by the device, not here.
        assert_eq!(file.tail[1], None);
    }

    /// `k(ptr, i64, i64, i64)` reads only `%arg2` and `%arg0`; its
    /// callee `g(i64)` reads no argument at all.
    #[test]
    fn argument_range_is_sized_by_the_highest_argument_read() {
        let mut m = Module::new("t");
        let g = m.add_function(Function::definition("g", vec![Type::I64], Type::Void));
        Builder::at_entry(&mut m, g).ret(None);
        let k = m.add_function(Function::definition(
            "k",
            vec![Type::Ptr, Type::I64, Type::I64, Type::I64],
            Type::Void,
        ));
        {
            let mut b = Builder::at_entry(&mut m, k);
            let v = b.add_i64(Value::Arg(2), Value::i64(1));
            b.store(v, Value::Arg(0));
            b.call(g, vec![v]);
            b.ret(None);
        }
        let plan = ExecPlan::build(&m).unwrap();
        let (kp, gp) = (plan.func(k).unwrap(), plan.func(g).unwrap());
        assert_eq!((kp.num_args, gp.num_args), (3, 0));
        // The constant `1` is the one slot after the arguments.
        assert_eq!(kp.consts, [Some(RtVal::I64(1))]);
    }

    /// Phi moves are applied in place unless a move reads a register an
    /// earlier move of the same edge writes.
    #[test]
    fn only_edges_with_a_read_after_write_need_a_parallel_copy() {
        let mut m = Module::new("t");
        let k = m.add_function(Function::definition("k", vec![Type::I64], Type::Void));
        let (forward, backward) = {
            let mut b = Builder::at_entry(&mut m, k);
            let entry = b.current_block();
            let (head, body, exit) = (b.new_block(), b.new_block(), b.new_block());
            b.br(head);
            b.switch_to(head);
            let i = b.phi(Type::I64);
            let x = b.phi(Type::I64);
            let y = b.phi(Type::I64);
            for p in [i, x, y] {
                b.add_phi_incoming(p, entry, Value::i64(0));
            }
            let c = b.cmp(CmpOp::Slt, Type::I64, i, Value::Arg(0));
            b.cond_br(c, body, exit);
            b.switch_to(body);
            let i2 = b.add_i64(i, Value::i64(1));
            // `y` reads `x`, which an earlier move of this edge writes.
            b.add_phi_incoming(i, body, i2);
            b.add_phi_incoming(x, body, i);
            b.add_phi_incoming(y, body, x);
            b.br(head);
            b.switch_to(exit);
            b.ret(None);
            (entry, body)
        };
        let plan = ExecPlan::build(&m).unwrap();
        let fp = plan.func(k).unwrap();
        let parallel = |from: BlockId| match &fp.block(from).exit {
            Exit::Br(e) => e.parallel,
            other => panic!("{other:?}"),
        };
        assert!(!parallel(forward));
        assert!(parallel(backward));
    }
}
