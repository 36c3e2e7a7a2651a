//! Execution-domain analysis: which threads reach an instruction?
//!
//! The paper's HeapToShared transformation requires the runtime
//! allocation to be "only executed by the main thread of the OpenMP
//! team" (Section IV-A), and the ThreadExecution runtime-call folding
//! needs the same fact (Section IV-C). This module computes, per basic
//! block and per function, whether execution is restricted to the team's
//! main thread.
//!
//! Main-thread-only control flow arises from two patterns:
//!
//! 1. the frontend's generic-mode prologue
//!    `%tid = __kmpc_target_init(GENERIC); if (%tid >= 0) worker else main`
//!    — the `main` edge is main-thread-only;
//! 2. explicit guards `if (omp_get_thread_num() == 0) { ... }`.
//!
//! A block is main-only if every CFG path from the entry to it passes
//! through such an edge. A function is main-only if every call site sits
//! in a main-only context.

use crate::callgraph::CallGraph;
use omp_ir::{BlockId, CmpOp, FuncId, Function, InstKind, Module, RtlFn, Value};
use std::collections::{HashMap, HashSet, VecDeque};

/// Whether code may be executed by many threads or only the team main
/// thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecDomain {
    /// Only the team's main thread can reach this code.
    MainOnly,
    /// Worker threads (or all threads) may reach this code.
    Multi,
}

/// Results of the execution-domain analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionDomains {
    /// Context of every function: `MainOnly` if all call sites are
    /// main-only, otherwise `Multi`.
    pub func_context: HashMap<FuncId, ExecDomain>,
    /// Per-function blocks that are main-only *within* the function
    /// (because of a guard inside it), regardless of context.
    pub guarded_blocks: HashMap<FuncId, HashSet<BlockId>>,
    /// Outlined parallel region entry functions (first argument of
    /// `__kmpc_parallel_51` when it is a direct function reference).
    pub parallel_regions: HashSet<FuncId>,
}

impl ExecutionDomains {
    /// Runs the analysis over `m`.
    pub fn compute(m: &Module, cg: &CallGraph) -> ExecutionDomains {
        let mut guarded_blocks: HashMap<FuncId, HashSet<BlockId>> = HashMap::new();
        for fid in m.func_ids() {
            if !m.func(fid).is_declaration() {
                guarded_blocks.insert(fid, main_only_blocks(m, fid));
            }
        }
        let parallel_regions = find_parallel_regions(m);

        // Function contexts: fixpoint. Start optimistic (MainOnly) for
        // everything with a body, pessimize from roots.
        let mut ctx: HashMap<FuncId, ExecDomain> = HashMap::new();
        for fid in m.func_ids() {
            ctx.insert(fid, ExecDomain::MainOnly);
        }
        let mut work: VecDeque<FuncId> = VecDeque::new();
        let pessimize =
            |fid: FuncId, ctx: &mut HashMap<FuncId, ExecDomain>, work: &mut VecDeque<FuncId>| {
                if ctx.insert(fid, ExecDomain::Multi) != Some(ExecDomain::Multi) {
                    work.push_back(fid);
                }
            };
        // Roots: kernels (all threads enter the kernel function itself),
        // outlined parallel regions, address-taken functions, and
        // externally visible definitions (unknown callers could be
        // parallel).
        for k in &m.kernels {
            pessimize(k.func, &mut ctx, &mut work);
        }
        for &f in &parallel_regions {
            pessimize(f, &mut ctx, &mut work);
        }
        for &f in &cg.address_taken {
            pessimize(f, &mut ctx, &mut work);
        }
        for fid in m.func_ids() {
            let f = m.func(fid);
            if !f.is_declaration() && f.linkage == omp_ir::Linkage::External && !m.is_kernel(fid) {
                pessimize(fid, &mut ctx, &mut work);
            }
        }
        // Propagate: a Multi-context function makes its callees Multi
        // unless the call site block is guarded main-only inside it.
        while let Some(fid) = work.pop_front() {
            let f = m.func(fid);
            if f.is_declaration() {
                continue;
            }
            let guarded = &guarded_blocks[&fid];
            for b in f.block_ids() {
                if guarded.contains(&b) {
                    continue; // call sites here stay main-only
                }
                for &i in &f.block(b).insts {
                    if let InstKind::Call {
                        callee: Value::Func(c),
                        ..
                    } = f.inst(i)
                    {
                        if ctx.get(c) != Some(&ExecDomain::Multi) {
                            ctx.insert(*c, ExecDomain::Multi);
                            work.push_back(*c);
                        }
                    }
                }
            }
        }
        ExecutionDomains {
            func_context: ctx,
            guarded_blocks,
            parallel_regions,
        }
    }

    /// Whether the given block of `func` is executed by the main thread
    /// only.
    pub fn is_main_only(&self, func: FuncId, block: BlockId) -> bool {
        if self
            .guarded_blocks
            .get(&func)
            .is_some_and(|s| s.contains(&block))
        {
            return true;
        }
        self.func_context.get(&func) == Some(&ExecDomain::MainOnly)
    }
}

/// Finds the outlined parallel-region functions of a module: direct
/// function references passed as the work token to `__kmpc_parallel_51`.
pub fn find_parallel_regions(m: &Module) -> HashSet<FuncId> {
    let mut out = HashSet::new();
    for fid in m.func_ids() {
        let f = m.func(fid);
        if f.is_declaration() {
            continue;
        }
        f.for_each_inst(|_, _, kind| {
            if let InstKind::Call {
                callee: Value::Func(c),
                args,
                ..
            } = kind
            {
                if m.func(*c).name == RtlFn::Parallel51.name() {
                    if let Some(Value::Func(region)) = args.first() {
                        out.insert(*region);
                    }
                }
            }
        });
    }
    out
}

/// Identifies main-only blocks of one function: blocks through which
/// every entry path crosses a main-thread guard edge.
pub fn main_only_blocks(m: &Module, fid: FuncId) -> HashSet<BlockId> {
    let f = m.func(fid);
    let mut main_edges: Vec<(BlockId, BlockId)> = Vec::new();
    for b in f.block_ids() {
        if let omp_ir::Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        } = &f.block(b).term
        {
            match main_edge_of_condition(m, f, *cond) {
                Some(true) => main_edges.push((b, *then_bb)),
                Some(false) => main_edges.push((b, *else_bb)),
                None => {}
            }
        }
    }
    let mut out: HashSet<BlockId> = HashSet::new();
    for &(from, to) in &main_edges {
        for b in blocks_dominated_by_edge(f, from, to) {
            out.insert(b);
        }
    }
    out
}

/// If `cond` implies "this is the team main thread" on one branch,
/// returns `Some(true)` when the then-edge is the main edge and
/// `Some(false)` when the else-edge is.
fn main_edge_of_condition(m: &Module, f: &Function, cond: Value) -> Option<bool> {
    let Value::Inst(ci) = cond else { return None };
    let InstKind::Cmp { op, lhs, rhs, .. } = f.inst(ci) else {
        return None;
    };
    let is_rtl_call = |v: Value, names: &[RtlFn]| -> bool {
        let Value::Inst(i) = v else { return false };
        let InstKind::Call {
            callee: Value::Func(c),
            ..
        } = f.inst(i)
        else {
            return false;
        };
        names.iter().any(|r| m.func(*c).name == r.name())
    };
    // Pattern: thread_num() == 0  (then-edge main)
    if *op == CmpOp::Eq && is_rtl_call(*lhs, &[RtlFn::ThreadNum]) && rhs.is_int_const(0) {
        return Some(true);
    }
    // Pattern: thread_num() != 0  (else-edge main)
    if *op == CmpOp::Ne && is_rtl_call(*lhs, &[RtlFn::ThreadNum]) && rhs.is_int_const(0) {
        return Some(false);
    }
    // Pattern: __kmpc_is_generic_main_thread() == true
    if *op == CmpOp::Eq && is_rtl_call(*lhs, &[RtlFn::IsGenericMainThread]) && rhs.is_int_const(1) {
        return Some(true);
    }
    // Frontend prologue: tid = target_init(..); is_worker = tid >= 0.
    // The else-edge (non-worker) is the main thread.
    if *op == CmpOp::Sge && is_rtl_call(*lhs, &[RtlFn::TargetInit]) && rhs.is_int_const(0) {
        return Some(false);
    }
    // tid == -1 => main thread on the then-edge.
    if *op == CmpOp::Eq && is_rtl_call(*lhs, &[RtlFn::TargetInit]) && rhs.is_int_const(-1) {
        return Some(true);
    }
    None
}

/// Blocks `x` such that every path entry→`x` uses the edge `from→to`.
/// Computed by removing the edge and collecting blocks that become
/// unreachable (among those reachable with the edge present).
fn blocks_dominated_by_edge(f: &Function, from: BlockId, to: BlockId) -> Vec<BlockId> {
    let reach = |skip: Option<(BlockId, BlockId)>| -> HashSet<BlockId> {
        let mut seen = HashSet::new();
        let mut stack = vec![f.entry()];
        seen.insert(f.entry());
        while let Some(b) = stack.pop() {
            for s in f.block(b).term.successors() {
                if skip == Some((b, s)) {
                    continue;
                }
                if seen.insert(s) {
                    stack.push(s);
                }
            }
        }
        seen
    };
    let with_edge = reach(None);
    let without_edge = reach(Some((from, to)));
    with_edge
        .into_iter()
        .filter(|b| !without_edge.contains(b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_ir::{Builder, ExecMode, Function, KernelInfo, Linkage, Type};

    /// Builds a canonical generic-mode kernel skeleton:
    /// entry: tid = target_init(1); is_worker = tid >= 0;
    ///        condbr is_worker, worker, main
    /// worker: ... ret
    /// main:  call payload(); ret
    fn generic_kernel(m: &mut Module, payload: FuncId) -> FuncId {
        let k = m.add_function(Function::definition("kern", vec![], Type::Void));
        let mut b = Builder::at_entry(m, k);
        let tid = b.call_rtl(RtlFn::TargetInit, vec![Value::i32(1)]);
        let is_worker = b.cmp(CmpOp::Sge, Type::I32, tid, Value::i32(0));
        let worker = b.new_block();
        let main = b.new_block();
        let exit = b.new_block();
        b.cond_br(is_worker, worker, main);
        b.switch_to(worker);
        b.br(exit);
        b.switch_to(main);
        b.call(payload, vec![]);
        b.br(exit);
        b.switch_to(exit);
        b.call_rtl(RtlFn::TargetDeinit, vec![Value::i32(1)]);
        b.ret(None);
        m.kernels.push(KernelInfo {
            func: k,
            exec_mode: ExecMode::Generic,
            num_teams: None,
            thread_limit: None,
            source_name: "kern".into(),
            launch: Default::default(),
        });
        k
    }

    #[test]
    fn main_branch_blocks_are_main_only() {
        let mut m = Module::new("t");
        let payload = m.add_function(Function::definition("payload", vec![], Type::Void));
        {
            let mut b = Builder::at_entry(&mut m, payload);
            b.ret(None);
        }
        m.func_mut(payload).linkage = Linkage::Internal;
        let k = generic_kernel(&mut m, payload);
        let cg = CallGraph::build(&m);
        let d = ExecutionDomains::compute(&m, &cg);
        let f = m.func(k);
        let blocks: Vec<BlockId> = f.block_ids().collect();
        // blocks: [entry, worker, main, exit]
        assert!(!d.is_main_only(k, blocks[0]));
        assert!(!d.is_main_only(k, blocks[1]));
        assert!(d.is_main_only(k, blocks[2]));
        assert!(!d.is_main_only(k, blocks[3])); // both threads rejoin
                                                // payload called only from the main block => MainOnly context.
        assert_eq!(d.func_context[&payload], ExecDomain::MainOnly);
    }

    #[test]
    fn external_linkage_pessimizes() {
        let mut m = Module::new("t");
        let payload = m.add_function(Function::definition("payload", vec![], Type::Void));
        {
            let mut b = Builder::at_entry(&mut m, payload);
            b.ret(None);
        }
        // External linkage: unknown callers may call from parallel code.
        let _k = generic_kernel(&mut m, payload);
        let cg = CallGraph::build(&m);
        let d = ExecutionDomains::compute(&m, &cg);
        assert_eq!(d.func_context[&payload], ExecDomain::Multi);
    }

    #[test]
    fn parallel_regions_are_multi() {
        let mut m = Module::new("t");
        let region = m.add_function(Function::definition(
            "outlined",
            vec![Type::Ptr],
            Type::Void,
        ));
        {
            let mut b = Builder::at_entry(&mut m, region);
            b.ret(None);
        }
        m.func_mut(region).linkage = Linkage::Internal;
        let helper = m.add_function(Function::definition("helper", vec![], Type::Void));
        {
            let mut b = Builder::at_entry(&mut m, helper);
            b.ret(None);
        }
        m.func_mut(helper).linkage = Linkage::Internal;
        // Region calls helper.
        {
            let entry = m.func(region).entry();
            let mut b = Builder::at(&mut m, region, entry);
            b.call(helper, vec![]);
            b.ret(None);
        }
        let launcher = m.add_function(Function::definition("launcher", vec![], Type::Void));
        {
            let mut b = Builder::at_entry(&mut m, launcher);
            b.call_rtl(
                RtlFn::Parallel51,
                vec![Value::Func(region), Value::i32(-1), Value::Null],
            );
            b.ret(None);
        }
        let cg = CallGraph::build(&m);
        let d = ExecutionDomains::compute(&m, &cg);
        assert!(d.parallel_regions.contains(&region));
        assert_eq!(d.func_context[&region], ExecDomain::Multi);
        // helper is called from a parallel region => Multi.
        assert_eq!(d.func_context[&helper], ExecDomain::Multi);
    }

    #[test]
    fn thread_num_guard_creates_main_only_region() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::Ptr], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        let tn = b.call_rtl(RtlFn::ThreadNum, vec![]);
        let c = b.cmp(CmpOp::Eq, Type::I32, tn, Value::i32(0));
        let guarded = b.new_block();
        let join = b.new_block();
        b.cond_br(c, guarded, join);
        b.switch_to(guarded);
        b.store(Value::i32(1), Value::Arg(0));
        b.br(join);
        b.switch_to(join);
        b.ret(None);
        let blocks = main_only_blocks(&m, f);
        let f_ref = m.func(f);
        let all: Vec<BlockId> = f_ref.block_ids().collect();
        assert!(blocks.contains(&all[1]));
        assert!(!blocks.contains(&all[0]));
        assert!(!blocks.contains(&all[2]));
    }
}
