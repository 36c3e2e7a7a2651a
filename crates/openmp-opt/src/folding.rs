//! Runtime-call constant folding (paper Section IV-C).
//!
//! Replaces OpenMP runtime queries with constants when the answer is
//! statically known through inter-procedural analysis:
//!
//! * **Execution mode** — `__kmpc_is_spmd_exec_mode` folds when every
//!   kernel reaching the call agrees on the mode; the result of
//!   `__kmpc_target_init` folds to `-1` in SPMD kernels, which lets the
//!   cleanup pipeline delete the dead worker state machine.
//! * **Parallel level** — `__kmpc_parallel_level` folds to 0 in
//!   main-thread-only code and to 1 in code reachable only from
//!   non-nested parallel regions, removing the sequential fallback for
//!   nested parallelism.
//! * **Thread execution** — `__kmpc_is_generic_main_thread` folds in
//!   main-only or SPMD-only contexts.
//! * **Launch parameters** — `omp_get_num_teams`/`omp_get_num_threads`
//!   fold when the clauses are compile-time constants, and
//!   `__kmpc_get_warp_size` folds to the device constant.

use crate::remarks::{actions, ids, passes, Remark, RemarkKind, Remarks};
use omp_analysis::{CallGraph, ExecDomain, ExecutionDomains};
use omp_ir::{ExecMode, FuncId, InstId, InstKind, Module, RtlFn, Type, Value};
use omp_passes::AnalysisCache;
use std::collections::{HashMap, HashSet};

/// Per-category fold counters (the paper's Figure 9 "RTOpt" columns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldCounts {
    /// Execution-mode and thread-execution folds (EM).
    pub exec_mode: usize,
    /// Parallel-level folds (PL).
    pub parallel_level: usize,
    /// Launch-parameter folds (num_teams / thread_limit / warp size).
    pub launch_params: usize,
}

/// The warp size folded for `__kmpc_get_warp_size`.
pub const DEVICE_WARP_SIZE: i32 = 32;

/// Runs one folding sweep. Returns the counts of performed folds.
pub fn run(m: &mut Module, cache: &mut AnalysisCache, remarks: &mut Remarks) -> FoldCounts {
    let (cg, domains) = cache.domains(m);
    let kernels_reaching = cg.kernels_reaching(m);
    let regions_have_nesting = regions_reach_parallel(m, cg, domains);

    let mut counts = FoldCounts::default();
    let mut edits: Vec<(FuncId, InstId, Value, &'static str, &'static str)> = Vec::new();
    for fid in m.func_ids() {
        let f = m.func(fid);
        if f.is_declaration() {
            continue;
        }
        let reaching = kernels_reaching.get(&fid).map(Vec::as_slice).unwrap_or(&[]);
        let all_modes: Option<ExecMode> = {
            let modes: HashSet<ExecMode> =
                reaching.iter().map(|&k| m.kernels[k].exec_mode).collect();
            if modes.len() == 1 {
                modes.into_iter().next()
            } else {
                None
            }
        };
        let main_only = domains.func_context.get(&fid) == Some(&ExecDomain::MainOnly);
        let in_spmd_kernel = m.kernel_for(fid).map(|ki| ki.exec_mode) == Some(ExecMode::Spmd);
        f.for_each_inst(|_, i, k| {
            let InstKind::Call {
                callee: Value::Func(c),
                ..
            } = k
            else {
                return;
            };
            let Some(rtl) = RtlFn::from_name(&m.func(*c).name) else {
                return;
            };
            // The constant the call folds to, with its counter category.
            let fold: Option<(Value, &'static str)> = match rtl {
                RtlFn::IsSpmdExecMode => {
                    all_modes.map(|mode| (Value::bool(mode == ExecMode::Spmd), "em"))
                }
                // In SPMD kernels the initializer returns -1 for all
                // threads; folding the *result* (the call stays for its
                // effects) lets the worker branch die. Skip when the
                // result is already unused (e.g. a second folding round)
                // so counts and remarks stay exact.
                RtlFn::TargetInit if in_spmd_kernel && f.count_uses(Value::Inst(i)) > 0 => {
                    Some((Value::i32(-1), "em-init"))
                }
                RtlFn::IsGenericMainThread if main_only && all_modes == Some(ExecMode::Generic) => {
                    Some((Value::bool(true), "em"))
                }
                RtlFn::IsGenericMainThread if all_modes == Some(ExecMode::Spmd) => {
                    Some((Value::bool(false), "em"))
                }
                RtlFn::ParallelLevel if main_only => Some((Value::i32(0), "pl")),
                RtlFn::ParallelLevel if regions_have_nesting => None,
                RtlFn::ParallelLevel if domains.parallel_regions.contains(&fid) => {
                    Some((Value::i32(1), "pl"))
                }
                // In the base SPMD context the level is 0.
                RtlFn::ParallelLevel if in_spmd_kernel => Some((Value::i32(0), "pl")),
                RtlFn::NumTeams => agreed(reaching.iter().map(|&k| m.kernels[k].num_teams))
                    .map(|t| (Value::i32(t as i32), "launch")),
                // Foldable only when every reaching kernel is SPMD with
                // the same thread_limit and no dispatch narrows the team
                // (no explicit num_threads clauses).
                RtlFn::NumThreads if all_modes == Some(ExecMode::Spmd) => {
                    agreed(reaching.iter().map(|&k| m.kernels[k].thread_limit))
                        .filter(|_| !module_has_narrowing_dispatch(m))
                        .map(|t| (Value::i32(t as i32), "launch"))
                }
                RtlFn::WarpSize => Some((Value::i32(DEVICE_WARP_SIZE), "launch")),
                _ => None,
            };
            if let Some((v, cat)) = fold {
                edits.push((fid, i, v, cat, rtl.name()));
            }
        });
    }
    // Apply.
    let mut removed_calls: HashMap<FuncId, Vec<InstId>> = HashMap::new();
    for (fid, i, v, cat, name) in edits {
        let fname = m.func(fid).name.clone();
        let fm = m.func_mut(fid);
        fm.replace_all_uses(Value::Inst(i), v);
        match cat {
            "em-init" => {
                // Keep the call: it has runtime effects.
                counts.exec_mode += 1;
            }
            _ => {
                removed_calls.entry(fid).or_default().push(i);
                match cat {
                    "em" => counts.exec_mode += 1,
                    "pl" => counts.parallel_level += 1,
                    _ => counts.launch_params += 1,
                }
            }
        }
        remarks.push(
            Remark::new(
                ids::RUNTIME_CALL_FOLDED,
                RemarkKind::Passed,
                fname,
                format!("Replacing OpenMP runtime call {name} with a constant."),
            )
            .in_pass(passes::FOLDING)
            .with_action(actions::FOLD)
            .at(name),
        );
    }
    for (fid, insts) in removed_calls {
        let fm = m.func_mut(fid);
        for i in insts {
            fm.remove_inst(i);
        }
    }
    // Folded queries are calls that are gone (or, for the initializer,
    // results that are now constants): edges changed, no CFG did.
    if counts != FoldCounts::default() {
        cache.invalidate_call_graph();
    }
    counts
}

/// The one value every reaching kernel sets for a launch clause, if they
/// all set it and agree.
fn agreed(mut clauses: impl Iterator<Item = Option<u32>>) -> Option<u32> {
    let first = clauses.next()??;
    clauses.all(|c| c == Some(first)).then_some(first)
}

/// Whether any parallel-region function can (transitively) start another
/// parallel region — i.e. real nesting exists in the module.
fn regions_reach_parallel(m: &Module, cg: &CallGraph, domains: &ExecutionDomains) -> bool {
    let Some(dispatch) = m.function_id(RtlFn::Parallel51.name()) else {
        return false;
    };
    cg.reachable_from(domains.parallel_regions.iter().copied())
        .iter()
        .any(|f| cg.callees_of(*f).contains(&dispatch))
}

/// Whether any `__kmpc_parallel_51` dispatch uses an explicit
/// `num_threads` clause (second argument not `-1`).
fn module_has_narrowing_dispatch(m: &Module) -> bool {
    for fid in m.func_ids() {
        let f = m.func(fid);
        if f.is_declaration() {
            continue;
        }
        let mut narrowing = false;
        f.for_each_inst(|_, _, k| {
            if let InstKind::Call {
                callee: Value::Func(c),
                args,
                ..
            } = k
            {
                if m.func(*c).name == RtlFn::Parallel51.name()
                    && !matches!(args.get(1), Some(Value::ConstInt(-1, Type::I32)))
                {
                    narrowing = true;
                }
            }
        });
        if narrowing {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_ir::{Builder, Function, KernelInfo, Linkage, Terminator};

    fn make_kernel(m: &mut Module, name: &str, mode: ExecMode) -> FuncId {
        let f = m.add_function(Function::definition(name, vec![], Type::Void));
        m.kernels.push(KernelInfo {
            func: f,
            exec_mode: mode,
            num_teams: Some(8),
            thread_limit: Some(64),
            source_name: name.into(),
            launch: Default::default(),
        });
        f
    }

    #[test]
    fn folds_exec_mode_when_unambiguous() {
        let mut m = Module::new("t");
        let helper = m.add_function(Function::definition("helper", vec![], Type::I1));
        {
            let mut b = Builder::at_entry(&mut m, helper);
            let v = b.call_rtl(RtlFn::IsSpmdExecMode, vec![]);
            b.ret(Some(v));
        }
        m.func_mut(helper).linkage = Linkage::Internal;
        let k = make_kernel(&mut m, "k", ExecMode::Spmd);
        {
            let mut b = Builder::at_entry(&mut m, k);
            b.call(helper, vec![]);
            b.ret(None);
        }
        let mut rem = Remarks::default();
        let counts = run(&mut m, &mut AnalysisCache::new(), &mut rem);
        assert!(counts.exec_mode >= 1);
        match &m.func(helper).block(m.func(helper).entry()).term {
            Terminator::Ret(Some(v)) => assert_eq!(*v, Value::bool(true)),
            t => panic!("{t:?}"),
        }
        assert!(rem.count(ids::RUNTIME_CALL_FOLDED) >= 1);
    }

    #[test]
    fn no_exec_mode_fold_with_mixed_kernels() {
        let mut m = Module::new("t");
        let helper = m.add_function(Function::definition("helper", vec![], Type::I1));
        {
            let mut b = Builder::at_entry(&mut m, helper);
            let v = b.call_rtl(RtlFn::IsSpmdExecMode, vec![]);
            b.ret(Some(v));
        }
        m.func_mut(helper).linkage = Linkage::Internal;
        for (name, mode) in [("k1", ExecMode::Spmd), ("k2", ExecMode::Generic)] {
            let k = make_kernel(&mut m, name, mode);
            let mut b = Builder::at_entry(&mut m, k);
            b.call(helper, vec![]);
            b.ret(None);
        }
        let mut rem = Remarks::default();
        run(&mut m, &mut AnalysisCache::new(), &mut rem);
        // The call must still be there.
        let text = omp_ir::printer::print_module(&m);
        assert!(text.contains("__kmpc_is_spmd_exec_mode"));
    }

    #[test]
    fn folds_parallel_level_in_main_only_context() {
        let mut m = Module::new("t");
        let helper = m.add_function(Function::definition("seq", vec![], Type::I32));
        {
            let mut b = Builder::at_entry(&mut m, helper);
            let v = b.call_rtl(RtlFn::ParallelLevel, vec![]);
            b.ret(Some(v));
        }
        m.func_mut(helper).linkage = Linkage::Internal;
        // Internal function with no callers: optimistically MainOnly.
        let mut rem = Remarks::default();
        let counts = run(&mut m, &mut AnalysisCache::new(), &mut rem);
        assert_eq!(counts.parallel_level, 1);
        match &m.func(helper).block(m.func(helper).entry()).term {
            Terminator::Ret(Some(v)) => assert_eq!(*v, Value::i32(0)),
            t => panic!("{t:?}"),
        }
    }

    #[test]
    fn folds_launch_params() {
        let mut m = Module::new("t");
        let k = make_kernel(&mut m, "k", ExecMode::Spmd);
        {
            let mut b = Builder::at_entry(&mut m, k);
            b.call_rtl(RtlFn::NumTeams, vec![]);
            b.call_rtl(RtlFn::NumThreads, vec![]);
            b.call_rtl(RtlFn::WarpSize, vec![]);
            b.ret(None);
        }
        let mut rem = Remarks::default();
        let counts = run(&mut m, &mut AnalysisCache::new(), &mut rem);
        assert_eq!(counts.launch_params, 3);
        let text = omp_ir::printer::print_module(&m);
        assert!(!text.contains("call @omp_get_num_teams"));
        // Declarations linger but no calls remain.
        assert!(!text.contains("call @omp_get_num_threads"));
    }

    #[test]
    fn folds_spmd_init_result_keeping_call() {
        let mut m = Module::new("t");
        let k = make_kernel(&mut m, "k", ExecMode::Spmd);
        {
            let mut b = Builder::at_entry(&mut m, k);
            let tid = b.call_rtl(RtlFn::TargetInit, vec![Value::i32(2)]);
            let c = b.cmp(omp_ir::CmpOp::Sge, Type::I32, tid, Value::i32(0));
            let w = b.new_block();
            let main = b.new_block();
            b.cond_br(c, w, main);
            b.switch_to(w);
            b.ret(None);
            b.switch_to(main);
            b.ret(None);
        }
        let mut rem = Remarks::default();
        let counts = run(&mut m, &mut AnalysisCache::new(), &mut rem);
        assert!(counts.exec_mode >= 1);
        // Init call still present; its result replaced by -1 so the
        // branch folds away after constprop.
        let text = omp_ir::printer::print_module(&m);
        assert!(text.contains("__kmpc_target_init"));
        assert!(text.contains("cmp sge i32 i32 -1"));
        omp_passes::run_pipeline(&mut m);
        assert_eq!(m.func(k).num_blocks(), 1);
    }
}
