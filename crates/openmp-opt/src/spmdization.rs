//! SPMDization (paper Section IV-B3).
//!
//! Converts a generic-mode kernel into SPMD mode:
//!
//! 1. **Legality**: every side effect in the sequential (main-thread
//!    only) part must be guardable — stores to non-replicated memory and
//!    writing calls get main-thread guards; unknown callees, barriers in
//!    callees, or callees mixing writes with nested parallelism block
//!    the transformation (remark OMP121, suggesting
//!    `ext_spmd_amenable`).
//! 2. **Guard grouping** (Figure 7): within each block, consecutive
//!    guardable side effects are grouped into a single
//!    `if (omp_get_thread_num() == 0) { ... } barrier` region,
//!    reordering them past SPMD-amenable code as long as no data-flow or
//!    memory dependence is violated.
//! 3. **Broadcasts**: a guarded call whose result is used outside the
//!    guard writes it to a compiler-created shared slot; all threads
//!    reload it after the barrier.
//! 4. **Devirtualization**: `__kmpc_parallel_51` becomes a direct call
//!    to the region followed by a team barrier — every thread executes
//!    its own dispatch, eliminating the handshake.
//! 5. **Mode flip**: the `__kmpc_target_init`/`deinit` mode constants
//!    and the kernel metadata switch to SPMD; the worker state machine
//!    becomes dead code that folding + CFG cleanup remove.

use crate::remarks::{actions, ids, passes, Remark, RemarkKind, Remarks};
use omp_analysis::{Effects, SideEffectKind};
use omp_ir::omprtl::{MODE_GENERIC, MODE_SPMD};
use omp_ir::{
    AddrSpace, BlockId, CmpOp, ExecMode, FuncId, Global, InstId, InstKind, Module, RtlFn,
    Terminator, Type, Value,
};
use omp_passes::AnalysisCache;

/// Outcome counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpmdizationResult {
    /// Kernels converted to SPMD mode.
    pub spmdized: usize,
    /// Guard regions emitted (after grouping).
    pub guard_regions: usize,
    /// Values broadcast out of guard regions.
    pub broadcasts: usize,
}

/// Runs SPMDization over all generic kernels (`grouping = false`
/// reproduces the naive one-guard-per-side-effect scheme of the paper's
/// Figure 7b, as an ablation).
///
/// One set of effect summaries serves every kernel: a kernel is never a
/// callee, and converting one rewrites only that kernel's own body, so
/// no summary a later kernel consults can have moved.
pub fn run(
    m: &mut Module,
    grouping: bool,
    cache: &mut AnalysisCache,
    remarks: &mut Remarks,
) -> SpmdizationResult {
    let mut result = SpmdizationResult::default();
    let kernels: Vec<usize> = (0..m.kernels.len())
        .filter(|&k| m.kernels[k].exec_mode == ExecMode::Generic)
        .collect();
    if kernels.is_empty() {
        return result;
    }
    let effects = cache.effects(m);
    let mut converted: Vec<FuncId> = Vec::new();
    for k in kernels {
        let kfunc = m.kernels[k].func;
        let kname = m.func(kfunc).name.clone();
        match try_spmdize(m, effects, kfunc, grouping) {
            Ok((guards, broadcasts)) => {
                m.kernels[k].exec_mode = ExecMode::Spmd;
                converted.push(kfunc);
                result.spmdized += 1;
                result.guard_regions += guards;
                result.broadcasts += broadcasts;
                remarks.push(
                    Remark::new(
                        ids::SPMDIZED,
                        RemarkKind::Passed,
                        kname.clone(),
                        "Transformed generic-mode kernel to SPMD-mode.",
                    )
                    .in_pass(passes::SPMDIZATION)
                    .with_action(actions::SPMDIZE),
                );
                remarks.push(
                    Remark::new(
                        ids::DEAD_RUNTIME_CODE,
                        RemarkKind::Passed,
                        kname,
                        "Removing unused worker state machine from SPMD-mode kernel.",
                    )
                    .in_pass(passes::SPMDIZATION)
                    .with_action(actions::REMOVE_DEAD_RUNTIME),
                );
            }
            Err(reason) => {
                remarks.push(
                    Remark::new(
                        ids::SPMD_BLOCKED,
                        RemarkKind::Missed,
                        kname,
                        format!(
                            "Value has potential side effects preventing SPMD-mode \
                             execution ({reason}). Add `#pragma omp assume \
                             ext_spmd_amenable` if the callee can be executed by \
                             all threads."
                        ),
                    )
                    .in_pass(passes::SPMDIZATION)
                    .with_action(actions::SPMD_BLOCKED)
                    .at(reason),
                );
            }
        }
    }
    // Guards split blocks and devirtualization turns dispatches into
    // direct calls, in the converted kernels only.
    if !converted.is_empty() {
        cache.invalidate_call_graph();
        for kfunc in converted {
            cache.invalidate_function(kfunc);
        }
    }
    result
}

/// Attempts the transformation on one kernel function. Returns
/// `(guard_regions, broadcasts)` on success; fails before touching `m`.
fn try_spmdize(
    m: &mut Module,
    effects: &Effects,
    kfunc: FuncId,
    grouping: bool,
) -> Result<(usize, usize), String> {
    let main_blocks = omp_analysis::domain::main_only_blocks(m, kfunc);
    if main_blocks.is_empty() {
        return Err("no sequential region found".to_string());
    }
    // Legality scan + classification.
    let f = m.func(kfunc);
    let mut plan: Vec<(BlockId, Vec<Segment>)> = Vec::new();
    for b in f.block_ids() {
        if !main_blocks.contains(&b) {
            continue;
        }
        let segments = plan_block(m, effects, kfunc, b, grouping)?;
        if segments.iter().any(|s| matches!(s, Segment::Guard(_))) {
            plan.push((b, segments));
        }
    }
    // Apply guard surgery.
    let mut guard_regions = 0;
    let mut broadcasts = 0;
    for (b, segments) in plan {
        let (g, br) = apply_guards(m, kfunc, b, segments);
        guard_regions += g;
        broadcasts += br;
    }
    // Devirtualize parallel dispatches (anywhere in the kernel function).
    devirtualize_parallel(m, kfunc);
    // Flip the mode constants.
    flip_mode(m, kfunc);
    Ok((guard_regions, broadcasts))
}

/// One planned segment of a block.
enum Segment {
    /// Instructions that every thread executes.
    Plain(Vec<InstId>),
    /// Instructions wrapped in a main-thread guard + barrier.
    Guard(Vec<InstId>),
}

/// Plans the guard grouping for one block (Figure 7's reordering):
/// guardable side effects accumulate into a pending group that floats
/// downward past SPMD-amenable instructions; memory reads, runtime
/// boundaries, and uses of pending results flush the group.
fn plan_block(
    m: &Module,
    effects: &Effects,
    kfunc: FuncId,
    b: BlockId,
    grouping: bool,
) -> Result<Vec<Segment>, String> {
    let f = m.func(kfunc);
    let mut segments: Vec<Segment> = Vec::new();
    let mut plain: Vec<InstId> = Vec::new();
    let mut pending: Vec<InstId> = Vec::new();

    let flush =
        |segments: &mut Vec<Segment>, plain: &mut Vec<InstId>, pending: &mut Vec<InstId>| {
            if !plain.is_empty() {
                segments.push(Segment::Plain(std::mem::take(plain)));
            }
            if !pending.is_empty() {
                segments.push(Segment::Guard(std::mem::take(pending)));
            }
        };

    for &i in &f.block(b).insts {
        let kind = f.inst(i);
        let class =
            effects.classify_for_spmdization(m, kind, |ptr| targets_replicated_object(m, f, ptr));
        match class {
            SideEffectKind::Blocking => {
                let desc = match kind {
                    InstKind::Call {
                        callee: Value::Func(c),
                        ..
                    } => format!("call to @{}", m.func(*c).name),
                    _ => "indirect call".to_string(),
                };
                return Err(desc);
            }
            SideEffectKind::Guardable => {
                pending.push(i);
                if !grouping {
                    // Naive scheme: every side effect gets its own guard
                    // region (and barrier).
                    flush(&mut segments, &mut plain, &mut pending);
                }
            }
            SideEffectKind::None | SideEffectKind::Amenable => {
                // Does this instruction force a flush? Uses of a pending
                // result do; so do reads that could observe a pending
                // store (loads from non-replicated memory, calls that may
                // read, and parallel-region boundaries).
                let uses_pending = {
                    let mut u = false;
                    kind.for_each_operand(|v| {
                        if let Value::Inst(x) = v {
                            u |= pending.contains(&x);
                        }
                    });
                    u
                };
                let reads_memory = match kind {
                    InstKind::Load { ptr, .. } => !targets_replicated_object(m, f, *ptr),
                    InstKind::Call {
                        callee: Value::Func(c),
                        ..
                    } => {
                        let name = &m.func(*c).name;
                        match RtlFn::from_name(name) {
                            Some(RtlFn::Parallel51) => true,
                            Some(r) => r.is_synchronizing(),
                            None => {
                                // Known functions that read memory observe
                                // guarded stores; math intrinsics do not.
                                omp_ir::omprtl::math_fn_signature(name).is_none()
                                    && effects.summary(*c).reads_memory
                            }
                        }
                    }
                    InstKind::Call { .. } => true,
                    _ => false,
                };
                if !pending.is_empty() && (uses_pending || reads_memory) {
                    flush(&mut segments, &mut plain, &mut pending);
                }
                plain.push(i);
            }
        }
    }
    // A pending result the terminator uses is broadcast like any other.
    flush(&mut segments, &mut plain, &mut pending);
    Ok(segments)
}

/// Whether a store through `ptr` targets memory that is replicated per
/// thread after SPMDization: an `alloca` or a globalization allocation
/// made by this function (the paper's "OpenMP-specific allocation
/// related code" interaction).
fn targets_replicated_object(m: &Module, f: &omp_ir::Function, mut ptr: Value) -> bool {
    for _ in 0..16 {
        match ptr {
            Value::Inst(i) => match f.inst(i) {
                InstKind::Alloca { .. } => return true,
                InstKind::Gep { base, .. } => ptr = *base,
                InstKind::Call {
                    callee: Value::Func(c),
                    ..
                } => {
                    let name = &m.func(*c).name;
                    return RtlFn::from_name(name).is_some_and(|r| r.is_globalization_alloc());
                }
                _ => return false,
            },
            _ => return false,
        }
    }
    false
}

/// Applies the planned segments: splits the block, wraps guard segments
/// in `if (thread_num == 0)` + barrier, broadcasts escaping values.
fn apply_guards(
    m: &mut Module,
    kfunc: FuncId,
    b: BlockId,
    segments: Vec<Segment>,
) -> (usize, usize) {
    let mut guards = 0;
    let mut broadcasts = 0;
    let term = m.func(kfunc).block(b).term.clone();
    let orig_succs = term.successors();
    // Pre-compute, per guard segment, which results are used outside the
    // segment (they need broadcasting). This must happen while the block
    // is intact so every use is visible.
    let escaping_per_segment: Vec<Vec<InstId>> = segments
        .iter()
        .map(|seg| match seg {
            Segment::Plain(_) => Vec::new(),
            Segment::Guard(insts) => insts
                .iter()
                .copied()
                .filter(|&i| {
                    let f = m.func(kfunc);
                    if f.inst(i).result_type() == Type::Void {
                        return false;
                    }
                    let mut used_outside = false;
                    f.for_each_inst(|_, j, k| {
                        if insts.contains(&j) {
                            return;
                        }
                        k.for_each_operand(|v| {
                            used_outside |= v == Value::Inst(i);
                        });
                    });
                    for bb in f.block_ids() {
                        f.block(bb).term.for_each_operand(|v| {
                            used_outside |= v == Value::Inst(i);
                        });
                    }
                    used_outside
                })
                .collect(),
        })
        .collect();

    // Phase A: rebuild the block chain structurally. Broadcasts are
    // deferred to phase B so that every use is placed and visible when
    // values are rewired.
    let (tn_params, tn_ret) = RtlFn::ThreadNum.signature();
    let tn = m.get_or_declare(RtlFn::ThreadNum.name(), tn_params, tn_ret);
    let (bar_params, bar_ret) = RtlFn::BarrierSimpleSpmd.signature();
    let bar = m.get_or_declare(RtlFn::BarrierSimpleSpmd.name(), bar_params, bar_ret);
    m.func_mut(kfunc).block_mut(b).insts.clear();
    let mut cur = b;
    // (guard block, join block, escaping values)
    let mut guard_sites: Vec<(BlockId, BlockId, Vec<InstId>)> = Vec::new();
    for (seg_idx, seg) in segments.into_iter().enumerate() {
        match seg {
            Segment::Plain(insts) => {
                m.func_mut(kfunc).block_mut(cur).insts.extend(insts);
            }
            Segment::Guard(insts) => {
                guards += 1;
                let gbb = m.func_mut(kfunc).add_block();
                let jbb = m.func_mut(kfunc).add_block();
                let f = m.func_mut(kfunc);
                let tid = f.append_inst(
                    cur,
                    InstKind::Call {
                        callee: Value::Func(tn),
                        args: vec![],
                        ret: Type::I32,
                    },
                );
                let c = f.append_inst(
                    cur,
                    InstKind::Cmp {
                        op: CmpOp::Eq,
                        ty: Type::I32,
                        lhs: Value::Inst(tid),
                        rhs: Value::i32(0),
                    },
                );
                f.block_mut(cur).term = Terminator::CondBr {
                    cond: Value::Inst(c),
                    then_bb: gbb,
                    else_bb: jbb,
                };
                f.block_mut(gbb).insts = insts;
                f.block_mut(gbb).term = Terminator::Br(jbb);
                f.append_inst(
                    jbb,
                    InstKind::Call {
                        callee: Value::Func(bar),
                        args: vec![],
                        ret: Type::Void,
                    },
                );
                guard_sites.push((gbb, jbb, escaping_per_segment[seg_idx].clone()));
                cur = jbb;
            }
        }
    }
    // The final block inherits the original terminator.
    m.func_mut(kfunc).block_mut(cur).term = term;
    if cur != b {
        // Successor phis must name the new predecessor.
        for s in orig_succs {
            let insts = m.func(kfunc).block(s).insts.clone();
            let f = m.func_mut(kfunc);
            for i in insts {
                if let InstKind::Phi { incoming, .. } = f.inst_mut(i) {
                    for (p, _) in incoming.iter_mut() {
                        if *p == b {
                            *p = cur;
                        }
                    }
                }
            }
        }
    }

    // Phase B: broadcasts. Everything is placed now, so rewiring uses is
    // safe.
    for (gbb, jbb, escaping) in guard_sites {
        for v in escaping {
            broadcasts += 1;
            let ty = m.func(kfunc).inst(v).result_type();
            let g = m.add_global(Global {
                name: format!("__omp_bcast.{}.{}", kfunc.0, v.0),
                size: ty.size().max(1),
                align: 8,
                space: AddrSpace::Shared,
                init: None,
                is_const: false,
            });
            let f = m.func_mut(kfunc);
            // Load after the barrier (position 1 in the join block).
            let loaded = f.insert_inst(
                jbb,
                1,
                InstKind::Load {
                    ptr: Value::Global(g),
                    ty,
                },
            );
            // All uses read the broadcast value...
            f.replace_all_uses(Value::Inst(v), Value::Inst(loaded));
            // ...except inside the guard itself (including the store we
            // add below, which must store the original).
            let guarded: Vec<InstId> = f.block(gbb).insts.clone();
            for gi in guarded {
                f.inst_mut(gi).map_operands(|op| {
                    if op == Value::Inst(loaded) {
                        Value::Inst(v)
                    } else {
                        op
                    }
                });
            }
            let gpos = f.block(gbb).insts.len();
            f.insert_inst(
                gbb,
                gpos,
                InstKind::Store {
                    ptr: Value::Global(g),
                    val: Value::Inst(v),
                },
            );
        }
    }
    (guards, broadcasts)
}

/// Replaces `__kmpc_parallel_51(token, n, args)` with a direct call to
/// the region followed by a team barrier.
fn devirtualize_parallel(m: &mut Module, kfunc: FuncId) {
    let mut sites: Vec<(BlockId, InstId, FuncId, Value)> = Vec::new();
    {
        let f = m.func(kfunc);
        for (b, i) in f.inst_ids() {
            if let InstKind::Call {
                callee: Value::Func(c),
                args,
                ..
            } = f.inst(i)
            {
                if m.func(*c).name == RtlFn::Parallel51.name() {
                    if let Some(Value::Func(r)) = args.first() {
                        sites.push((b, i, *r, args.get(2).copied().unwrap_or(Value::Null)));
                    }
                }
            }
        }
    }
    if sites.is_empty() {
        return;
    }
    let (bar_params, bar_ret) = RtlFn::BarrierSimpleSpmd.signature();
    let bar = m.get_or_declare(RtlFn::BarrierSimpleSpmd.name(), bar_params, bar_ret);
    for (b, i, region, args_val) in sites {
        let f = m.func_mut(kfunc);
        f.replace_inst(
            i,
            InstKind::Call {
                callee: Value::Func(region),
                args: vec![args_val],
                ret: Type::Void,
            },
        );
        let pos = f
            .block(b)
            .insts
            .iter()
            .position(|&x| x == i)
            .expect("site in block");
        f.insert_inst(
            b,
            pos + 1,
            InstKind::Call {
                callee: Value::Func(bar),
                args: vec![],
                ret: Type::Void,
            },
        );
    }
}

/// Switches the `__kmpc_target_init` / `__kmpc_target_deinit` mode
/// constants from generic to SPMD.
fn flip_mode(m: &mut Module, kfunc: FuncId) {
    let mut edits: Vec<InstId> = Vec::new();
    {
        let f = m.func(kfunc);
        f.for_each_inst(|_, i, k| {
            if let InstKind::Call {
                callee: Value::Func(c),
                args,
                ..
            } = k
            {
                let name = &m.func(*c).name;
                if (name == RtlFn::TargetInit.name() || name == RtlFn::TargetDeinit.name())
                    && matches!(args.first(), Some(v) if v.is_int_const(MODE_GENERIC))
                {
                    edits.push(i);
                }
            }
        });
    }
    let f = m.func_mut(kfunc);
    for i in edits {
        if let InstKind::Call { args, .. } = f.inst_mut(i) {
            args[0] = Value::ConstInt(MODE_SPMD, Type::I32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_frontend::{compile, FrontendOptions};

    const SU3_LIKE: &str = r#"
void kern(double* out, long nb, long nt) {
  #pragma omp target teams distribute
  for (long b = 0; b < nb; b++) {
    double tv = (double)b * 2.0;
    #pragma omp parallel for
    for (long t = 0; t < nt; t++) {
      out[b * nt + t] = tv + (double)t;
    }
  }
}
"#;

    #[test]
    fn converts_generic_kernel() {
        let mut m = compile(SU3_LIKE, &FrontendOptions::default()).unwrap();
        assert_eq!(m.kernels[0].exec_mode, ExecMode::Generic);
        let mut rem = Remarks::default();
        let r = run(&mut m, true, &mut AnalysisCache::new(), &mut rem);
        assert_eq!(r.spmdized, 1);
        assert_eq!(m.kernels[0].exec_mode, ExecMode::Spmd);
        omp_ir::verifier::assert_valid(&m);
        let text = omp_ir::printer::print_module(&m);
        // Mode constants flipped.
        assert!(text.contains("call @__kmpc_target_init(i32 2)"));
        assert!(!text.contains("call @__kmpc_target_init(i32 1)"));
        // Dispatch devirtualized.
        assert!(!text.contains("call @__kmpc_parallel_51"));
        assert!(text.contains("__kmpc_barrier_simple_spmd"));
        assert_eq!(rem.count(ids::SPMDIZED), 1);
    }

    #[test]
    fn unknown_callee_blocks_spmdization() {
        let src = r#"
void mystery(double* p);
void kern(double* out, long nb) {
  #pragma omp target teams distribute
  for (long b = 0; b < nb; b++) {
    mystery(out);
    #pragma omp parallel
    { out[0] = 1.0; }
  }
}
"#;
        let mut m = compile(src, &FrontendOptions::default()).unwrap();
        let mut rem = Remarks::default();
        let r = run(&mut m, true, &mut AnalysisCache::new(), &mut rem);
        assert_eq!(r.spmdized, 0);
        assert_eq!(m.kernels[0].exec_mode, ExecMode::Generic);
        assert_eq!(rem.count(ids::SPMD_BLOCKED), 1);
        assert!(rem.with_id(ids::SPMD_BLOCKED)[0]
            .message
            .contains("ext_spmd_amenable"));
    }

    #[test]
    fn assumption_unblocks_spmdization() {
        let src = r#"
#pragma omp assume ext_spmd_amenable
void mystery(double* p);
void kern(double* out, long nb) {
  #pragma omp target teams distribute
  for (long b = 0; b < nb; b++) {
    mystery(out);
    #pragma omp parallel
    { out[0] = 1.0; }
  }
}
"#;
        let mut m = compile(src, &FrontendOptions::default()).unwrap();
        let mut rem = Remarks::default();
        let r = run(&mut m, true, &mut AnalysisCache::new(), &mut rem);
        assert_eq!(r.spmdized, 1);
    }

    #[test]
    fn guards_are_grouped_like_fig7() {
        // Two guardable stores separated by amenable code collapse into
        // one guard region.
        let src = r#"
void kern(double* a, double* b, long n) {
  #pragma omp target teams
  {
    a[0] = 1.0;
    double x = 3.0 * 4.0;
    b[0] = x;
    #pragma omp parallel for
    for (long t = 0; t < n; t++) { a[t] = b[0] + (double)t; }
  }
}
"#;
        let mut m = compile(src, &FrontendOptions::default()).unwrap();
        let mut rem = Remarks::default();
        let r = run(&mut m, true, &mut AnalysisCache::new(), &mut rem);
        assert_eq!(r.spmdized, 1);
        // The two stores share one guard: x is an alloca store
        // (replicated, no guard needed), a[0] and b[0] are global.
        assert_eq!(r.guard_regions, 1, "grouping failed: {r:?}");
        omp_ir::verifier::assert_valid(&m);
    }
}
