//! Size-budgeted function inlining.
//!
//! The classic mid-end runs the inliner twice around `openmp-opt`
//! (mirroring where LLVM's pipeline places OpenMPOpt): a *pre* run
//! exposes folded/specialized `__kmpc_*` call patterns and
//! deglobalization candidates to the OpenMP-aware passes, and a *post*
//! run cleans up outlined parallel regions once SPMDization and the
//! custom state machine have devirtualized them. The pre run refuses to
//! inline callees containing structural runtime calls (kernel init,
//! parallel regions, barriers, data-sharing stack manipulation) so the
//! patterns `openmp-opt` matches on stay recognizable; the post run
//! allows them.
//!
//! Inlined allocas are hoisted to the caller's entry block: the
//! simulator's stack pointer is only restored at frame pops, so leaving
//! a cloned alloca inside a loop body would grow the frame every
//! iteration.

use crate::cache::AnalysisCache;
use omp_ir::omprtl::RtlFn;
use omp_ir::{BlockId, FuncId, InstId, InstKind, Module, Terminator, Type, Value};
use std::collections::{HashMap, HashSet};

/// Tuning knobs for one inliner run.
#[derive(Debug, Clone)]
pub struct InlineOptions {
    /// Callees at or below this many instructions inline at every
    /// direct callsite.
    pub size_budget: usize,
    /// Internal, non-address-taken callees with exactly one callsite
    /// inline up to this size (the callee disappears from the hot path
    /// regardless of its size).
    pub single_callsite_budget: usize,
    /// Stop growing a caller past this many instructions.
    pub max_caller_size: usize,
    /// Upper bound on inline rounds (each round can expose new direct
    /// callsites copied in from callee bodies).
    pub max_rounds: usize,
    /// Whether callees containing structural OpenMP runtime calls may
    /// be inlined (`false` before `openmp-opt`, `true` after).
    pub allow_openmp_structural: bool,
}

impl InlineOptions {
    /// Configuration for the run *before* `openmp-opt`.
    pub fn pre_openmp_opt() -> InlineOptions {
        InlineOptions {
            size_budget: 60,
            single_callsite_budget: 2000,
            max_caller_size: 4096,
            max_rounds: 4,
            allow_openmp_structural: false,
        }
    }

    /// Configuration for the cleanup run *after* `openmp-opt`.
    pub fn post_openmp_opt() -> InlineOptions {
        InlineOptions {
            allow_openmp_structural: true,
            ..InlineOptions::pre_openmp_opt()
        }
    }
}

/// One recorded inline decision (only for callees with definitions;
/// runtime declarations are never inline candidates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InlineDecision {
    /// Caller function name.
    pub caller: String,
    /// Callee function name.
    pub callee: String,
    /// Callee size in instructions at decision time.
    pub callee_insts: usize,
    /// Whether the callsite was inlined.
    pub inlined: bool,
    /// Why (e.g. `fits-budget`, `single-callsite`, `too-big`).
    pub reason: &'static str,
}

struct Site {
    caller: FuncId,
    call: InstId,
    callee: FuncId,
    callee_insts: usize,
    inline: bool,
    reason: &'static str,
}

/// Runs the inliner to fixpoint (bounded by `opts.max_rounds`) and
/// returns the deduplicated decision log.
pub fn run(m: &mut Module, cache: &mut AnalysisCache, opts: &InlineOptions) -> Vec<InlineDecision> {
    let mut decisions: Vec<InlineDecision> = Vec::new();
    let mut seen: HashSet<(String, String, bool, &'static str)> = HashSet::new();
    let mut record = |decisions: &mut Vec<InlineDecision>, d: InlineDecision| {
        if seen.insert((d.caller.clone(), d.callee.clone(), d.inlined, d.reason)) {
            decisions.push(d);
        }
    };

    for _ in 0..opts.max_rounds {
        let plan = plan_round(m, cache, opts);
        let mut mutated = false;
        for site in plan {
            let caller_name = m.func(site.caller).name.clone();
            let callee_name = m.func(site.callee).name.clone();
            let mut d = InlineDecision {
                caller: caller_name,
                callee: callee_name,
                callee_insts: site.callee_insts,
                inlined: false,
                reason: site.reason,
            };
            if site.inline {
                if m.func(site.caller).num_insts() + site.callee_insts > opts.max_caller_size {
                    d.reason = "caller-too-big";
                } else {
                    inline_callsite(m, site.caller, site.call, site.callee);
                    cache.invalidate_function(site.caller);
                    d.inlined = true;
                    mutated = true;
                }
            }
            record(&mut decisions, d);
        }
        if !mutated {
            break;
        }
        cache.invalidate_call_graph();
    }
    decisions
}

/// Collects every direct callsite of a defined function together with
/// its inline verdict. Decisions are made against a consistent
/// pre-round snapshot; the execution loop re-checks only the caller
/// growth bound.
fn plan_round(m: &Module, cache: &mut AnalysisCache, opts: &InlineOptions) -> Vec<Site> {
    let cg = cache.call_graph(m);

    // Direct-callsite counts per callee (call-graph edges are deduped,
    // so count from the instruction stream).
    let mut callsites: HashMap<FuncId, usize> = HashMap::new();
    for fid in m.func_ids() {
        let f = m.func(fid);
        if f.is_declaration() {
            continue;
        }
        f.for_each_inst(|_, _, kind| {
            if let InstKind::Call {
                callee: Value::Func(g),
                ..
            } = kind
            {
                *callsites.entry(*g).or_insert(0) += 1;
            }
        });
    }

    let mut recursive: HashMap<FuncId, bool> = HashMap::new();
    let mut plan: Vec<Site> = Vec::new();
    for caller in m.func_ids() {
        let f = m.func(caller);
        if f.is_declaration() {
            continue;
        }
        for (_, call) in f.inst_ids() {
            let InstKind::Call {
                callee: Value::Func(g),
                ..
            } = f.inst(call)
            else {
                continue;
            };
            let g = *g;
            let callee = m.func(g);
            if callee.is_declaration() {
                continue;
            }
            let callee_insts = callee.num_insts();
            let is_recursive = *recursive.entry(g).or_insert_with(|| cg.is_recursive(g));
            let single_site = callsites.get(&g) == Some(&1)
                && callee.linkage == omp_ir::Linkage::Internal
                && !cg.address_taken.contains(&g);
            let (inline, reason) = if m.is_kernel(g) {
                (false, "kernel-entry")
            } else if is_recursive {
                (false, "recursive")
            } else if entry_has_phi(callee) {
                (false, "entry-phi")
            } else if !opts.allow_openmp_structural && calls_openmp_structural(m, g) {
                (false, "openmp-structural")
            } else if callee_insts <= opts.size_budget {
                (true, "fits-budget")
            } else if single_site && callee_insts <= opts.single_callsite_budget {
                (true, "single-callsite")
            } else {
                (false, "too-big")
            };
            plan.push(Site {
                caller,
                call,
                callee: g,
                callee_insts,
                inline,
                reason,
            });
        }
    }
    plan
}

fn entry_has_phi(f: &omp_ir::Function) -> bool {
    f.block(f.entry())
        .insts
        .iter()
        .any(|&i| matches!(f.inst(i), InstKind::Phi { .. }))
}

/// Whether `fid`'s body contains a call to a structural OpenMP runtime
/// function — one that `openmp-opt` pattern-matches on (kernel
/// init/deinit, parallel-region machinery, barriers, data-sharing
/// stack). Plain context queries and globalization allocations do not
/// count: inlining those *helps* folding and deglobalization see them.
fn calls_openmp_structural(m: &Module, fid: FuncId) -> bool {
    let mut found = false;
    m.func(fid).for_each_inst(|_, _, kind| {
        if let InstKind::Call {
            callee: Value::Func(g),
            ..
        } = kind
        {
            if let Some(rtl) = RtlFn::from_name(&m.func(*g).name) {
                if rtl.is_synchronizing()
                    || matches!(
                        rtl,
                        RtlFn::GetParallelArgs
                            | RtlFn::DataSharingPushStack
                            | RtlFn::DataSharingPopStack
                    )
                {
                    found = true;
                }
            }
        }
    });
    found
}

/// Splices a clone of `callee`'s body over the callsite `call` in
/// `caller`. The callsite's block is split at the call; the clone's
/// entry is branched to from the head, returns branch to the
/// continuation (merging multiple return values through a phi), and
/// cloned allocas move to the caller's entry block.
fn inline_callsite(m: &mut Module, caller: FuncId, call: InstId, callee: FuncId) {
    let callee_fn = m.func(callee).clone();
    let (call_block, args, call_ret) = {
        let f = m.func(caller);
        let b = f.block_of(call).expect("callsite not placed");
        let InstKind::Call { args, ret, .. } = f.inst(call) else {
            panic!("inline target is not a call");
        };
        (b, args.clone(), *ret)
    };

    // Split the callsite block: everything after the call (no phis —
    // those lead the block, before any call) moves to a fresh
    // continuation block, which inherits the original terminator.
    let f = m.func_mut(caller);
    let cont = f.add_block();
    let pos = f
        .block(call_block)
        .insts
        .iter()
        .position(|&i| i == call)
        .expect("call not in its block");
    let tail = f.block_mut(call_block).insts.split_off(pos + 1);
    f.block_mut(cont).insts = tail;
    f.block_mut(cont).term = f.block(call_block).term.clone();
    // Phis in the old successors name the split block as predecessor;
    // that edge now leaves the continuation.
    for s in f.block(cont).term.successors() {
        let insts = f.block(s).insts.clone();
        for i in insts {
            if let InstKind::Phi { incoming, .. } = f.inst_mut(i) {
                for (b, _) in incoming.iter_mut() {
                    if *b == call_block {
                        *b = cont;
                    }
                }
            }
        }
    }

    // Pass 1: clone every callee block and instruction, unremapped.
    let mut block_map: HashMap<BlockId, BlockId> = HashMap::new();
    let mut inst_map: HashMap<InstId, InstId> = HashMap::new();
    let mut new_insts: Vec<InstId> = Vec::new();
    for cb in callee_fn.block_ids() {
        block_map.insert(cb, f.add_block());
    }
    for cb in callee_fn.block_ids() {
        let nb = block_map[&cb];
        for &ci in &callee_fn.block(cb).insts {
            let ni = f.alloc_inst(callee_fn.inst(ci).clone());
            f.block_mut(nb).insts.push(ni);
            inst_map.insert(ci, ni);
            new_insts.push(ni);
        }
    }

    // Pass 2: remap operands (args -> actuals, results -> clones) and
    // phi predecessor blocks, now that the maps are complete.
    let remap = |v: Value| match v {
        Value::Arg(n) => args[n as usize],
        Value::Inst(i) => Value::Inst(inst_map[&i]),
        other => other,
    };
    for &ni in &new_insts {
        f.inst_mut(ni).map_operands(remap);
        if let InstKind::Phi { incoming, .. } = f.inst_mut(ni) {
            for (b, _) in incoming.iter_mut() {
                *b = block_map[b];
            }
        }
    }

    // Terminators: remap, and divert returns to the continuation.
    let mut rets: Vec<(BlockId, Option<Value>)> = Vec::new();
    for cb in callee_fn.block_ids() {
        let nb = block_map[&cb];
        let mut term = callee_fn.block(cb).term.clone();
        term.map_operands(remap);
        term.map_successors(|b| block_map[&b]);
        if let Terminator::Ret(v) = term {
            rets.push((nb, v));
            term = Terminator::Br(cont);
        }
        f.block_mut(nb).term = term;
    }
    f.block_mut(call_block).term = Terminator::Br(block_map[&callee_fn.entry()]);

    // Wire the call's result to the returned value(s).
    if call_ret != Type::Void {
        let result = match rets.len() {
            0 => Value::Undef(call_ret),
            1 => rets[0].1.unwrap_or(Value::Undef(call_ret)),
            _ => {
                let incoming = rets
                    .iter()
                    .map(|&(b, v)| (b, v.unwrap_or(Value::Undef(call_ret))))
                    .collect();
                Value::Inst(f.insert_inst(
                    cont,
                    0,
                    InstKind::Phi {
                        ty: call_ret,
                        incoming,
                    },
                ))
            }
        };
        f.replace_all_uses(Value::Inst(call), result);
    }
    f.remove_inst(call);

    // Hoist cloned allocas to the entry block (in original order) so a
    // callsite inside a loop does not grow the frame every iteration.
    let allocas: Vec<InstId> = new_insts
        .iter()
        .copied()
        .filter(|&i| matches!(f.inst(i), InstKind::Alloca { .. }))
        .collect();
    if !allocas.is_empty() {
        for cb in callee_fn.block_ids() {
            f.block_mut(block_map[&cb])
                .insts
                .retain(|i| !allocas.contains(i));
        }
        let entry = f.entry();
        f.block_mut(entry).insts.splice(0..0, allocas);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_ir::{BinOp, Builder, CmpOp, Function, Linkage, Type};

    fn small_callee(m: &mut Module) -> FuncId {
        let f = m.add_function(Function::definition("inc", vec![Type::I64], Type::I64));
        let mut b = Builder::at_entry(m, f);
        let r = b.bin(BinOp::Add, Type::I64, Value::Arg(0), Value::i64(1));
        b.ret(Some(r));
        f
    }

    fn has_call_to(m: &Module, caller: FuncId, callee: FuncId) -> bool {
        let mut found = false;
        m.func(caller).for_each_inst(|_, _, k| {
            if let InstKind::Call {
                callee: Value::Func(g),
                ..
            } = k
            {
                if *g == callee {
                    found = true;
                }
            }
        });
        found
    }

    #[test]
    fn inlines_small_callee_and_forwards_result() {
        let mut m = Module::new("t");
        let inc = small_callee(&mut m);
        let main = m.add_function(Function::definition("main", vec![Type::I64], Type::I64));
        {
            let mut b = Builder::at_entry(&mut m, main);
            let r = b.call(inc, vec![Value::Arg(0)]);
            let r2 = b.bin(BinOp::Mul, Type::I64, r, Value::i64(2));
            b.ret(Some(r2));
        }
        let mut cache = AnalysisCache::new();
        let decisions = run(&mut m, &mut cache, &InlineOptions::pre_openmp_opt());
        assert!(decisions.iter().any(|d| d.inlined && d.callee == "inc"));
        assert!(!has_call_to(&m, main, inc));
        omp_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn hoists_cloned_allocas_to_entry() {
        let mut m = Module::new("t");
        let h = m.add_function(Function::definition("h", vec![Type::I64], Type::I64));
        {
            let mut b = Builder::at_entry(&mut m, h);
            let p = b.alloca(8, 8);
            b.store(Value::Arg(0), p);
            let v = b.load(Type::I64, p);
            b.ret(Some(v));
        }
        // Caller calls `h` from a loop body.
        let main = m.add_function(Function::definition("main", vec![Type::I64], Type::Void));
        {
            let mut b = Builder::at_entry(&mut m, main);
            let entry = b.current_block();
            let header = b.new_block();
            let body = b.new_block();
            let exit = b.new_block();
            b.br(header);
            b.switch_to(header);
            let i = b.phi(Type::I64);
            b.add_phi_incoming(i, entry, Value::i64(0));
            let c = b.cmp(CmpOp::Slt, Type::I64, i, Value::Arg(0));
            b.cond_br(c, body, exit);
            b.switch_to(body);
            b.call(h, vec![i]);
            let i2 = b.add_i64(i, Value::i64(1));
            b.add_phi_incoming(i, body, i2);
            b.br(header);
            b.switch_to(exit);
            b.ret(None);
        }
        let mut cache = AnalysisCache::new();
        run(&mut m, &mut cache, &InlineOptions::pre_openmp_opt());
        let f = m.func(main);
        assert!(!has_call_to(&m, main, h));
        let entry_has_alloca = f
            .block(f.entry())
            .insts
            .iter()
            .any(|&i| matches!(f.inst(i), InstKind::Alloca { .. }));
        assert!(entry_has_alloca, "cloned alloca must move to entry");
        omp_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn multiple_returns_merge_through_phi() {
        let mut m = Module::new("t");
        let pick = m.add_function(Function::definition("pick", vec![Type::I1], Type::I64));
        {
            let mut b = Builder::at_entry(&mut m, pick);
            let t = b.new_block();
            let e = b.new_block();
            b.cond_br(Value::Arg(0), t, e);
            b.switch_to(t);
            b.ret(Some(Value::i64(1)));
            b.switch_to(e);
            b.ret(Some(Value::i64(2)));
        }
        let main = m.add_function(Function::definition("main", vec![Type::I1], Type::I64));
        {
            let mut b = Builder::at_entry(&mut m, main);
            let r = b.call(pick, vec![Value::Arg(0)]);
            b.ret(Some(r));
        }
        let mut cache = AnalysisCache::new();
        run(&mut m, &mut cache, &InlineOptions::pre_openmp_opt());
        assert!(!has_call_to(&m, main, pick));
        let mut phis = 0;
        m.func(main).for_each_inst(|_, _, k| {
            if matches!(k, InstKind::Phi { .. }) {
                phis += 1;
            }
        });
        assert_eq!(phis, 1, "two returns merge through one phi");
        omp_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn recursion_and_size_limits_are_respected() {
        let mut m = Module::new("t");
        // Self-recursive function.
        let rec = m.add_function(Function::definition("rec", vec![Type::I64], Type::Void));
        {
            let mut b = Builder::at_entry(&mut m, rec);
            b.call(rec, vec![Value::Arg(0)]);
            b.ret(None);
        }
        // Big external callee with two callsites.
        let big = m.add_function(Function::definition("big", vec![], Type::Void));
        {
            let mut b = Builder::at_entry(&mut m, big);
            for _ in 0..100 {
                b.bin(BinOp::Add, Type::I64, Value::i64(1), Value::i64(2));
            }
            b.ret(None);
        }
        let main = m.add_function(Function::definition("main", vec![], Type::Void));
        {
            let mut b = Builder::at_entry(&mut m, main);
            b.call(rec, vec![Value::i64(0)]);
            b.call(big, vec![]);
            b.call(big, vec![]);
            b.ret(None);
        }
        let mut cache = AnalysisCache::new();
        let decisions = run(&mut m, &mut cache, &InlineOptions::pre_openmp_opt());
        assert!(has_call_to(&m, main, rec));
        assert!(has_call_to(&m, main, big));
        assert!(decisions
            .iter()
            .any(|d| d.callee == "rec" && !d.inlined && d.reason == "recursive"));
        assert!(decisions
            .iter()
            .any(|d| d.callee == "big" && !d.inlined && d.reason == "too-big"));
        omp_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn single_callsite_internal_callee_inlines_past_budget() {
        let mut m = Module::new("t");
        let big = m.add_function(Function::definition("helper", vec![], Type::Void));
        {
            let mut b = Builder::at_entry(&mut m, big);
            for _ in 0..100 {
                b.bin(BinOp::Add, Type::I64, Value::i64(1), Value::i64(2));
            }
            b.ret(None);
        }
        m.func_mut(big).linkage = Linkage::Internal;
        let main = m.add_function(Function::definition("main", vec![], Type::Void));
        {
            let mut b = Builder::at_entry(&mut m, main);
            b.call(big, vec![]);
            b.ret(None);
        }
        let mut cache = AnalysisCache::new();
        let decisions = run(&mut m, &mut cache, &InlineOptions::pre_openmp_opt());
        assert!(!has_call_to(&m, main, big));
        assert!(decisions
            .iter()
            .any(|d| d.inlined && d.reason == "single-callsite"));
        omp_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn pre_mode_keeps_structural_openmp_callees() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("with_barrier", vec![], Type::Void));
        {
            let mut b = Builder::at_entry(&mut m, f);
            b.call_rtl(RtlFn::Barrier, vec![]);
            b.ret(None);
        }
        let main = m.add_function(Function::definition("main", vec![], Type::Void));
        {
            let mut b = Builder::at_entry(&mut m, main);
            b.call(f, vec![]);
            b.ret(None);
        }
        let mut cache = AnalysisCache::new();
        let pre = run(&mut m, &mut cache, &InlineOptions::pre_openmp_opt());
        assert!(has_call_to(&m, main, f));
        assert!(pre
            .iter()
            .any(|d| !d.inlined && d.reason == "openmp-structural"));
        let mut cache = AnalysisCache::new();
        run(&mut m, &mut cache, &InlineOptions::post_openmp_opt());
        assert!(!has_call_to(&m, main, f), "post run may inline it");
        omp_ir::verifier::assert_valid(&m);
    }
}
