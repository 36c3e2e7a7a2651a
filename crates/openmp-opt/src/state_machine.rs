//! Custom state-machine rewrite (paper Section IV-B2).
//!
//! The frontend's generic-mode worker loop dispatches parallel regions
//! through an indirect call on the communicated work token. If all
//! parallel regions reachable from a kernel are statically known, the
//! indirect call is replaced with an if-cascade of direct calls. When
//! the world is closed we additionally eliminate the function pointers
//! entirely: the `__kmpc_parallel_51` token becomes a small integer id,
//! removing the address-taken uses that inflate register counts
//! (PR46450), and the indirect fallback becomes `unreachable`.

use crate::remarks::{actions, ids, passes, Remark, RemarkKind, Remarks};
use omp_analysis::CallGraph;
use omp_ir::{
    BlockId, CastOp, CmpOp, ExecMode, FuncId, InstId, InstKind, Module, RtlFn, Terminator, Type,
    Value,
};
use omp_passes::AnalysisCache;
use std::collections::HashMap;

/// Outcome counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateMachineResult {
    /// Kernels rewritten with a closed-world cascade (no fallback, no
    /// function pointers).
    pub rewritten: usize,
    /// Kernels rewritten but keeping the indirect fallback.
    pub with_fallback: usize,
}

/// Analysis only: whether each generic kernel could get a custom state
/// machine (used for the Figure 9 "(1)" reporting even when SPMDization
/// obsoletes the rewrite).
pub fn possible(m: &Module, cache: &mut AnalysisCache) -> usize {
    let (sites, _) = dispatch_sites(m);
    let cg = cache.call_graph(m);
    m.kernels
        .iter()
        .filter(|k| k.exec_mode == ExecMode::Generic)
        .filter(|k| !known_regions(&sites, cg, k.func).is_empty())
        .count()
}

/// A definition that dispatches parallel regions: the regions its
/// `parallel_51` calls name (call-site order, deduplicated), and whether
/// it may also dispatch out of sight (a computed token, or a call to an
/// unknown external function).
type DispatchSite = (FuncId, Vec<FuncId>, bool);

/// One scan of the module for its [`DispatchSite`]s, in function order,
/// and whether the world is closed: every `parallel_51` token a direct
/// function reference. Per kernel the answer is then a walk over ids.
fn dispatch_sites(m: &Module) -> (Vec<DispatchSite>, bool) {
    let (mut sites, mut closed_world) = (Vec::new(), true);
    for fid in m.func_ids() {
        let fun = m.func(fid);
        if fun.is_declaration() {
            continue;
        }
        let (mut regions, mut opaque) = (Vec::new(), false);
        fun.for_each_inst(|_, _, k| {
            let InstKind::Call {
                callee: Value::Func(c),
                args,
                ..
            } = k
            else {
                return;
            };
            let callee = m.func(*c);
            if callee.name == RtlFn::Parallel51.name() {
                match args.first() {
                    Some(Value::Func(r)) if regions.contains(r) => {}
                    Some(Value::Func(r)) => regions.push(*r),
                    _ => (opaque, closed_world) = (true, false),
                }
            } else if callee.is_declaration()
                && RtlFn::from_name(&callee.name).is_none()
                && omp_ir::omprtl::math_fn_signature(&callee.name).is_none()
                && !callee.attrs.no_openmp
                && !callee.attrs.pure_fn
            {
                // An unknown external callee could contain parallel
                // regions we cannot enumerate.
                opaque = true;
            }
        });
        if opaque || !regions.is_empty() {
            sites.push((fid, regions, opaque));
        }
    }
    (sites, closed_world)
}

/// The statically known parallel regions reachable from the kernel, or
/// an empty vector when unknown dispatch is possible.
fn known_regions(sites: &[DispatchSite], cg: &CallGraph, kernel: FuncId) -> Vec<FuncId> {
    let reach = cg.reachable_from([kernel]);
    let mut regions = Vec::new();
    for (_, named, opaque) in sites.iter().filter(|(f, ..)| reach.contains(f)) {
        if *opaque {
            return Vec::new();
        }
        for r in named {
            if !regions.contains(r) {
                regions.push(*r);
            }
        }
    }
    regions
}

/// Locates the worker dispatch site in a generic kernel: the indirect
/// call whose callee is the result of `__kmpc_kernel_parallel`.
fn find_dispatch(m: &Module, kernel: FuncId) -> Option<(BlockId, InstId, Value, Value)> {
    let f = m.func(kernel);
    let mut token_calls: Vec<InstId> = Vec::new();
    f.for_each_inst(|_, i, k| {
        if let InstKind::Call {
            callee: Value::Func(c),
            ..
        } = k
        {
            if m.func(*c).name == RtlFn::KernelParallel.name() {
                token_calls.push(i);
            }
        }
    });
    for (b, i) in f.inst_ids() {
        if let InstKind::Call { callee, args, .. } = f.inst(i) {
            if let Value::Inst(t) = callee {
                if token_calls.contains(t) {
                    return Some((b, i, *callee, args.first().copied().unwrap_or(Value::Null)));
                }
            }
        }
    }
    None
}

/// Runs the rewrite on every still-generic kernel. Region ids are
/// assigned module-wide so every rewritten kernel shares the mapping.
///
/// The scan and the call graph are taken once, before any rewrite: a
/// rewrite touches only its kernel's body, and no kernel is reachable
/// from another.
pub fn run(m: &mut Module, cache: &mut AnalysisCache, remarks: &mut Remarks) -> StateMachineResult {
    let mut result = StateMachineResult::default();
    let (sites, closed) = dispatch_sites(m);
    let cg = cache.call_graph(m);
    let mut rewritten: Vec<FuncId> = Vec::new();

    let kernels: Vec<FuncId> = m
        .kernels
        .iter()
        .filter(|k| k.exec_mode == ExecMode::Generic)
        .map(|k| k.func)
        .collect();
    let mut region_ids: HashMap<FuncId, i64> = HashMap::new();
    for kernel in kernels {
        let Some((dispatch_block, dispatch_inst, token, args_val)) = find_dispatch(m, kernel)
        else {
            continue; // no worker loop, nothing to rewrite
        };
        let regions = known_regions(&sites, cg, kernel);
        let kname = m.func(kernel).name.clone();
        if regions.is_empty() {
            remarks.push(
                Remark::new(
                    ids::PARALLEL_REGION_UNKNOWN,
                    RemarkKind::Missed,
                    kname,
                    "Parallel region is used in unknown ways. Will not attempt to \
                     rewrite the state machine.",
                )
                .in_pass(passes::STATE_MACHINE)
                .with_action(actions::KEEP_STATE_MACHINE),
            );
            continue;
        }
        // Module-wide numbering: a region keeps the id it got on first
        // sight, so two kernels never give different regions the same
        // token.
        for r in &regions {
            let next = (m.parallel_region_ids.len() + region_ids.len()) as i64 + 1;
            region_ids.entry(*r).or_insert(next);
        }
        rewritten.push(kernel);
        rewrite_dispatch(
            m,
            kernel,
            dispatch_block,
            dispatch_inst,
            token,
            args_val,
            &regions,
            &region_ids,
            closed,
        );
        if closed {
            result.rewritten += 1;
            remarks.push(
                Remark::new(
                    ids::CUSTOM_STATE_MACHINE,
                    RemarkKind::Passed,
                    kname,
                    "Rewriting generic-mode kernel with a customized state machine.",
                )
                .in_pass(passes::STATE_MACHINE)
                .with_action(actions::CUSTOM_STATE_MACHINE),
            );
        } else {
            result.with_fallback += 1;
            remarks.push(
                Remark::new(
                    ids::STATE_MACHINE_FALLBACK,
                    RemarkKind::Passed,
                    kname,
                    "Generic-mode kernel is executed with a customized state machine \
                     that requires a fallback.",
                )
                .in_pass(passes::STATE_MACHINE)
                .with_action(actions::STATE_MACHINE_FALLBACK),
            );
        }
    }
    // With a closed world, replace every parallel_51 function-pointer
    // token with its small-integer id (eliminating address-taken uses).
    if closed && !region_ids.is_empty() {
        replace_tokens_with_ids(m, &region_ids);
        let mut by_id: Vec<(i64, FuncId)> = region_ids.iter().map(|(&f, &id)| (id, f)).collect();
        by_id.sort_unstable();
        m.parallel_region_ids.extend(by_id);
    }
    // The cascades are new blocks and new direct calls in the rewritten
    // kernels; a closed world also drops every region's address-taken
    // use, wherever its dispatch sat.
    if !rewritten.is_empty() {
        cache.invalidate_call_graph();
        for kernel in rewritten {
            cache.invalidate_function(kernel);
        }
    }
    result
}

#[allow(clippy::too_many_arguments)]
fn rewrite_dispatch(
    m: &mut Module,
    kernel: FuncId,
    block: BlockId,
    dispatch: InstId,
    token: Value,
    args_val: Value,
    regions: &[FuncId],
    region_ids: &HashMap<FuncId, i64>,
    closed: bool,
) {
    // Split the block at the dispatch instruction.
    let f = m.func_mut(kernel);
    let insts = f.block(block).insts.clone();
    let pos = insts.iter().position(|&i| i == dispatch).expect("dispatch");
    let after: Vec<InstId> = insts[pos + 1..].to_vec();
    let term = f.block(block).term.clone();
    f.block_mut(block).insts.truncate(pos);

    // Continuation block holding everything after the dispatch.
    let cont = f.add_block();
    f.block_mut(cont).insts = after;
    f.block_mut(cont).term = term;
    // Successor phis now come from `cont`.
    let succs: Vec<BlockId> = f.block(cont).term.successors();
    for s in succs {
        let insts = f.block(s).insts.clone();
        for i in insts {
            if let InstKind::Phi { incoming, .. } = f.inst_mut(i) {
                for (p, _) in incoming.iter_mut() {
                    if *p == block {
                        *p = cont;
                    }
                }
            }
        }
    }
    // Build the cascade.
    let mut cur = block;
    for &r in regions {
        let test_bb = cur;
        let call_bb = f.add_block();
        let next_bb = f.add_block();
        let expected: Value = if closed {
            let id = region_ids[&r];
            let cast = f.append_inst(
                test_bb,
                InstKind::Cast {
                    op: CastOp::IntToPtr,
                    val: Value::i64(id),
                    to: Type::Ptr,
                },
            );
            Value::Inst(cast)
        } else {
            Value::Func(r)
        };
        let cmp = f.append_inst(
            test_bb,
            InstKind::Cmp {
                op: CmpOp::Eq,
                ty: Type::Ptr,
                lhs: token,
                rhs: expected,
            },
        );
        f.block_mut(test_bb).term = Terminator::CondBr {
            cond: Value::Inst(cmp),
            then_bb: call_bb,
            else_bb: next_bb,
        };
        f.append_inst(
            call_bb,
            InstKind::Call {
                callee: Value::Func(r),
                args: vec![args_val],
                ret: Type::Void,
            },
        );
        f.block_mut(call_bb).term = Terminator::Br(cont);
        cur = next_bb;
    }
    // Fallback.
    if closed {
        f.block_mut(cur).term = Terminator::Unreachable;
        f.remove_inst(dispatch);
    } else {
        // Move the original indirect call into the fallback block.
        f.block_mut(cur).insts.push(dispatch);
        f.block_mut(cur).term = Terminator::Br(cont);
    }
}

/// Replaces `parallel_51` function-pointer tokens with integer ids.
fn replace_tokens_with_ids(m: &mut Module, region_ids: &HashMap<FuncId, i64>) {
    for fid in m.func_ids().collect::<Vec<_>>() {
        if m.func(fid).is_declaration() {
            continue;
        }
        // Find parallel_51 calls with Func tokens.
        let mut sites: Vec<(BlockId, InstId, FuncId)> = Vec::new();
        {
            let f = m.func(fid);
            for (b, i) in f.inst_ids() {
                if let InstKind::Call {
                    callee: Value::Func(c),
                    args,
                    ..
                } = f.inst(i)
                {
                    if m.func(*c).name == RtlFn::Parallel51.name() {
                        if let Some(Value::Func(r)) = args.first() {
                            if region_ids.contains_key(r) {
                                sites.push((b, i, *r));
                            }
                        }
                    }
                }
            }
        }
        for (b, i, r) in sites {
            let id = region_ids[&r];
            let f = m.func_mut(fid);
            let pos = f
                .block(b)
                .insts
                .iter()
                .position(|&x| x == i)
                .expect("site in block");
            let cast = f.insert_inst(
                b,
                pos,
                InstKind::Cast {
                    op: CastOp::IntToPtr,
                    val: Value::i64(id),
                    to: Type::Ptr,
                },
            );
            if let InstKind::Call { args, .. } = f.inst_mut(i) {
                args[0] = Value::Inst(cast);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_analysis::CallGraph;
    use omp_frontend::{compile, FrontendOptions};

    const GENERIC_SRC: &str = r#"
void kern(double* out, long nb, long nt) {
  #pragma omp target teams distribute
  for (long b = 0; b < nb; b++) {
    double tv = (double)b;
    #pragma omp parallel for
    for (long t = 0; t < nt; t++) {
      out[b * nt + t] = tv + (double)t;
    }
  }
}
"#;

    #[test]
    fn detects_possible_rewrites() {
        let m = compile(GENERIC_SRC, &FrontendOptions::default()).unwrap();
        assert_eq!(possible(&m, &mut AnalysisCache::new()), 1);
    }

    #[test]
    fn closed_world_rewrite_removes_function_pointers() {
        let mut m = compile(GENERIC_SRC, &FrontendOptions::default()).unwrap();
        let mut rem = Remarks::default();
        let r = run(&mut m, &mut AnalysisCache::new(), &mut rem);
        assert_eq!(r.rewritten, 1);
        assert_eq!(r.with_fallback, 0);
        omp_ir::verifier::assert_valid(&m);
        // No address-taken functions remain (tokens are integer ids).
        let cg = CallGraph::build(&m);
        assert!(
            cg.address_taken.is_empty(),
            "address-taken: {:?}",
            cg.address_taken
        );
        // No indirect calls remain in the kernel.
        let k = m.kernels[0].func;
        assert!(!cg.has_indirect_call.contains(&k));
        assert_eq!(rem.count(ids::CUSTOM_STATE_MACHINE), 1);
    }

    #[test]
    fn unknown_callee_forces_fallback_detection() {
        let src = r#"
void mystery(double* x);
void kern(double* out, long nb) {
  #pragma omp target teams distribute
  for (long b = 0; b < nb; b++) {
    mystery(out);
    #pragma omp parallel
    { out[0] = 1.0; }
  }
}
"#;
        let m = compile(src, &FrontendOptions::default()).unwrap();
        // `mystery` could start parallel regions we cannot see.
        assert_eq!(possible(&m, &mut AnalysisCache::new()), 0);
        let mut m = m;
        let mut rem = Remarks::default();
        let r = run(&mut m, &mut AnalysisCache::new(), &mut rem);
        assert_eq!(r.rewritten, 0);
        assert_eq!(rem.count(ids::PARALLEL_REGION_UNKNOWN), 1);
    }

    #[test]
    fn spmd_amenable_assumption_restores_rewrite() {
        let src = r#"
#pragma omp assume ext_no_openmp
void mystery(double* x);
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
        assert_eq!(possible(&m, &mut AnalysisCache::new()), 1);
        let mut rem = Remarks::default();
        let r = run(&mut m, &mut AnalysisCache::new(), &mut rem);
        assert_eq!(r.rewritten, 1);
    }

    /// Region ids are tokens resolved module-wide at run time, so two
    /// kernels must never hand the same id to different regions.
    #[test]
    fn region_ids_are_unique_across_kernels() {
        let src = include_str!("../../../tests/fixtures/multi_kernel/shared_region.c");
        let mut m = compile(src, &FrontendOptions::default()).unwrap();
        let r = run(&mut m, &mut AnalysisCache::new(), &mut Remarks::default());
        assert_eq!(r.rewritten, 2);
        omp_ir::verifier::assert_valid(&m);
        // `helper`'s region (seen from both kernels) and `kb`'s own.
        let ids: Vec<i64> = m.parallel_region_ids.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, [1, 2]);
        let (a, b) = (m.region_for_id(1).unwrap(), m.region_for_id(2).unwrap());
        assert_ne!(a, b);
    }
}
