//! Inter-procedural side-effect summaries.
//!
//! Each function gets a conservative [`EffectSummary`] computed as a
//! fixpoint over the call graph. The OpenMP optimizations consume these
//! summaries: SPMDization classifies instructions into guardable /
//! amenable / blocking ([`SideEffectKind`]), HeapToStack uses the
//! synchronization bits, and runtime-call folding uses purity.

use crate::callgraph::CallGraph;
use omp_ir::{FuncId, InstKind, Module, RtlFn, Value};
use std::collections::HashMap;

/// What a function may do, transitively.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EffectSummary {
    /// May write memory visible to other threads (stores, non-pure calls).
    pub writes_memory: bool,
    /// May write memory that is neither one of its own locals nor
    /// reached through one of its pointer parameters (e.g. global
    /// buffers through loaded pointers). When false, all writes are
    /// accounted for by `param_written`.
    pub writes_nonlocal: bool,
    /// Bitmask of parameters the function may write through
    /// (transitively). Parameters beyond bit 31 conservatively set
    /// `writes_nonlocal`.
    pub param_written: u32,
    /// May read memory.
    pub reads_memory: bool,
    /// May call a function with unknown semantics (external declaration
    /// that is neither a runtime function, a math intrinsic, nor marked
    /// pure), or perform an indirect call.
    pub calls_unknown: bool,
    /// May synchronize threads (barriers, the parallel protocol).
    pub has_sync: bool,
    /// May start a parallel region (`__kmpc_parallel_51`).
    pub has_parallel: bool,
    /// May call a globalization allocator.
    pub has_globalization: bool,
}

impl EffectSummary {
    fn join(&mut self, other: EffectSummary) -> bool {
        let before = *self;
        self.writes_memory |= other.writes_memory;
        self.writes_nonlocal |= other.writes_nonlocal;
        self.param_written |= other.param_written;
        self.reads_memory |= other.reads_memory;
        self.calls_unknown |= other.calls_unknown;
        self.has_sync |= other.has_sync;
        self.has_parallel |= other.has_parallel;
        self.has_globalization |= other.has_globalization;
        *self != before
    }

    /// Summary of a completely unknown callee.
    pub fn unknown() -> EffectSummary {
        EffectSummary {
            writes_memory: true,
            writes_nonlocal: true,
            param_written: u32::MAX,
            reads_memory: true,
            calls_unknown: true,
            has_sync: true,
            has_parallel: true,
            has_globalization: false,
        }
    }

    /// Whether the function is observably pure (no writes, no unknown
    /// calls, no synchronization).
    pub fn is_pure(&self) -> bool {
        !self.writes_memory && !self.calls_unknown && !self.has_sync && !self.has_parallel
    }
}

/// The base object a pointer value chases back to within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Base {
    /// Formal parameter `n`.
    Param(u32),
    /// A local allocation (alloca or a call-produced pointer, i.e. a
    /// globalization allocation owned by this function).
    Local,
    /// Anything else (globals, loaded pointers, unknown).
    Other,
}

fn chase_base(m: &Module, f: &omp_ir::Function, mut v: Value) -> Base {
    for _ in 0..32 {
        match v {
            Value::Arg(n) => return Base::Param(n),
            Value::Inst(i) => match f.inst(i) {
                InstKind::Alloca { .. } => return Base::Local,
                InstKind::Call {
                    callee: Value::Func(c),
                    ..
                } => {
                    // Only globalization allocators produce pointers that
                    // are this function's own storage.
                    return if RtlFn::from_name(&m.func(*c).name)
                        .is_some_and(|r| r.is_globalization_alloc())
                    {
                        Base::Local
                    } else {
                        Base::Other
                    };
                }
                InstKind::Gep { base, .. } => v = *base,
                _ => return Base::Other,
            },
            _ => return Base::Other,
        }
    }
    Base::Other
}

/// Per-module side-effect analysis results.
#[derive(Debug, Clone, PartialEq)]
pub struct Effects {
    summaries: HashMap<FuncId, EffectSummary>,
}

/// How SPMDization must treat one instruction found in the sequential
/// part of a generic-mode kernel (paper Section IV-B3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SideEffectKind {
    /// No side effect; all threads may execute it freely.
    None,
    /// "SPMD amenable": safe for all threads to execute even though the
    /// original program ran it on the main thread only (context queries,
    /// globalization allocation code, functions carrying the
    /// `ext_spmd_amenable` assumption).
    Amenable,
    /// Must be wrapped in a main-thread guard followed by a barrier.
    Guardable,
    /// Cannot be guarded (unknown callees, callees that synchronize or
    /// mix writes with nested parallelism); blocks SPMDization.
    Blocking,
}

impl Effects {
    /// Computes summaries for every function in `m`.
    pub fn compute(m: &Module, cg: &CallGraph) -> Effects {
        let mut summaries: HashMap<FuncId, EffectSummary> = HashMap::new();
        // Seed declarations.
        for fid in m.func_ids() {
            let f = m.func(fid);
            if !f.is_declaration() {
                summaries.insert(fid, EffectSummary::default());
                continue;
            }
            let s = if let Some(rtl) = RtlFn::from_name(&f.name) {
                EffectSummary {
                    writes_memory: !rtl.is_context_query(),
                    // Runtime entry points mutate runtime state, not user
                    // memory reachable from the caller.
                    writes_nonlocal: false,
                    param_written: 0,
                    reads_memory: !rtl.is_context_query(),
                    calls_unknown: false,
                    has_sync: rtl.is_synchronizing(),
                    has_parallel: rtl == RtlFn::Parallel51,
                    has_globalization: rtl.is_globalization_alloc(),
                }
            } else if f.attrs.pure_fn || omp_ir::omprtl::math_fn_signature(&f.name).is_some() {
                EffectSummary::default()
            } else if f.attrs.readonly {
                EffectSummary {
                    reads_memory: true,
                    ..EffectSummary::default()
                }
            } else {
                EffectSummary::unknown()
            };
            summaries.insert(fid, s);
        }
        // Fixpoint over definitions.
        let mut changed = true;
        while changed {
            changed = false;
            for fid in m.func_ids() {
                let f = m.func(fid);
                if f.is_declaration() {
                    continue;
                }
                let mut s = summaries[&fid];
                f.for_each_inst(|_, _, kind| match kind {
                    InstKind::Load { .. } => {
                        s.reads_memory = true;
                    }
                    InstKind::Store { ptr, .. } => {
                        s.writes_memory = true;
                        match chase_base(m, f, *ptr) {
                            Base::Param(n) if n < 32 => s.param_written |= 1 << n,
                            Base::Local => {}
                            _ => s.writes_nonlocal = true,
                        }
                    }
                    InstKind::Call { callee, args, .. } => match callee {
                        Value::Func(c) => {
                            let cs = summaries.get(c).copied().unwrap_or_default();
                            // Param-write propagation: a callee writing
                            // through its parameter writes whatever we
                            // passed there.
                            let mut cs2 = cs;
                            cs2.param_written = 0;
                            cs2.writes_nonlocal = cs.writes_nonlocal;
                            for (j, a) in args.iter().enumerate() {
                                if j < 32 && cs.param_written & (1 << j) != 0 {
                                    match chase_base(m, f, *a) {
                                        Base::Param(n) if n < 32 => cs2.param_written |= 1 << n,
                                        Base::Local => {}
                                        _ => cs2.writes_nonlocal = true,
                                    }
                                }
                            }
                            s.join(cs2);
                        }
                        _ => {
                            s.join(EffectSummary::unknown());
                        }
                    },
                    _ => {}
                });
                if s != summaries[&fid] {
                    summaries.insert(fid, s);
                    changed = true;
                }
            }
        }
        let _ = cg;
        Effects { summaries }
    }

    /// The summary of `f`.
    pub fn summary(&self, f: FuncId) -> EffectSummary {
        self.summaries
            .get(&f)
            .copied()
            .unwrap_or_else(EffectSummary::unknown)
    }

    /// Classifies one instruction for SPMDization (see
    /// [`SideEffectKind`]). `store_targets_private` should return `true`
    /// when a store provably targets memory private to the executing
    /// thread (e.g. an `alloca` that never escapes), in which case it is
    /// no side effect at all.
    pub fn classify_for_spmdization(
        &self,
        m: &Module,
        kind: &InstKind,
        store_targets_private: impl Fn(Value) -> bool,
    ) -> SideEffectKind {
        match kind {
            InstKind::Store { ptr, .. } => {
                if store_targets_private(*ptr) {
                    SideEffectKind::None
                } else {
                    SideEffectKind::Guardable
                }
            }
            InstKind::Call { callee, .. } => match callee {
                Value::Func(c) => {
                    let f = m.func(*c);
                    if let Some(rtl) = RtlFn::from_name(&f.name) {
                        // Globalization allocation code "effectively does
                        // not require" guarding (Section IV-B3); the
                        // placement optimization interacts here.
                        if rtl.is_globalization_alloc()
                            || rtl.dealloc_counterpart().is_none() && rtl.is_spmd_amenable()
                            || matches!(rtl, RtlFn::FreeShared | RtlFn::DataSharingPopStack)
                        {
                            return SideEffectKind::Amenable;
                        }
                        // Structural calls (init/deinit/parallel) are
                        // handled by the SPMDization driver itself.
                        if matches!(
                            rtl,
                            RtlFn::TargetInit
                                | RtlFn::TargetDeinit
                                | RtlFn::Parallel51
                                | RtlFn::KernelParallel
                                | RtlFn::KernelEndParallel
                                | RtlFn::GetParallelArgs
                        ) {
                            return SideEffectKind::None;
                        }
                        if rtl.is_synchronizing() {
                            return SideEffectKind::Blocking;
                        }
                        return SideEffectKind::Amenable;
                    }
                    if f.attrs.spmd_amenable {
                        return SideEffectKind::Amenable;
                    }
                    let s = self.summary(*c);
                    if s.calls_unknown {
                        SideEffectKind::Blocking
                    } else if s.has_parallel {
                        if s.writes_memory {
                            SideEffectKind::Blocking
                        } else {
                            SideEffectKind::Amenable
                        }
                    } else if s.has_sync {
                        SideEffectKind::Blocking
                    } else if s.writes_memory {
                        // A call whose only writes go through pointer
                        // parameters that target per-thread replicated
                        // storage is replicated safely by every thread
                        // (the "allocation related code" interaction):
                        // each thread initializes its own copies.
                        let InstKind::Call { args, .. } = kind else {
                            return SideEffectKind::Guardable;
                        };
                        let replicated_only = !s.writes_nonlocal
                            && args.iter().enumerate().all(|(j, a)| {
                                if j < 32 && s.param_written & (1 << j) != 0 {
                                    store_targets_private(*a)
                                } else {
                                    true
                                }
                            });
                        if replicated_only {
                            SideEffectKind::Amenable
                        } else {
                            SideEffectKind::Guardable
                        }
                    } else {
                        SideEffectKind::Amenable
                    }
                }
                _ => SideEffectKind::Blocking,
            },
            // Loads are re-executed identically by all threads; pure data
            // flow needs no guard.
            _ => SideEffectKind::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_ir::{Builder, Function, Module, Type};

    fn with_cg(m: &Module) -> (CallGraph, Effects) {
        let cg = CallGraph::build(m);
        let e = Effects::compute(m, &cg);
        (cg, e)
    }

    #[test]
    fn pure_function_summary() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::I32], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let v = b.bin(omp_ir::BinOp::Add, Type::I32, Value::Arg(0), Value::i32(1));
        b.ret(Some(v));
        let (_, e) = with_cg(&m);
        assert!(e.summary(f).is_pure());
        assert!(!e.summary(f).reads_memory);
    }

    #[test]
    fn store_propagates_through_calls() {
        let mut m = Module::new("t");
        let g = m.add_function(Function::definition("g", vec![Type::Ptr], Type::Void));
        {
            let mut b = Builder::at_entry(&mut m, g);
            b.store(Value::i32(1), Value::Arg(0));
            b.ret(None);
        }
        let f = m.add_function(Function::definition("f", vec![Type::Ptr], Type::Void));
        {
            let mut b = Builder::at_entry(&mut m, f);
            b.call(g, vec![Value::Arg(0)]);
            b.ret(None);
        }
        let (_, e) = with_cg(&m);
        assert!(e.summary(g).writes_memory);
        assert!(e.summary(f).writes_memory);
        assert!(!e.summary(f).calls_unknown);
    }

    #[test]
    fn unknown_external_is_conservative() {
        let mut m = Module::new("t");
        let ext = m.add_function(Function::declaration("mystery", vec![], Type::Void));
        let f = m.add_function(Function::definition("f", vec![], Type::Void));
        {
            let mut b = Builder::at_entry(&mut m, f);
            b.call(ext, vec![]);
            b.ret(None);
        }
        let (_, e) = with_cg(&m);
        assert!(e.summary(f).calls_unknown);
        assert!(e.summary(f).writes_memory);
    }

    #[test]
    fn rtl_and_math_are_known() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::F64], Type::F64));
        {
            let mut b = Builder::at_entry(&mut m, f);
            b.call_rtl(RtlFn::ThreadNum, vec![]);
            let sqrt = b
                .module()
                .get_or_declare("sqrt", vec![Type::F64], Type::F64);
            let v = b.call(sqrt, vec![Value::Arg(0)]);
            b.ret(Some(v));
        }
        let (_, e) = with_cg(&m);
        let s = e.summary(f);
        assert!(!s.calls_unknown);
        assert!(!s.writes_memory);
        assert!(!s.has_sync);
    }

    #[test]
    fn barrier_marks_sync() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::Void));
        {
            let mut b = Builder::at_entry(&mut m, f);
            b.call_rtl(RtlFn::Barrier, vec![]);
            b.ret(None);
        }
        let (_, e) = with_cg(&m);
        assert!(e.summary(f).has_sync);
    }

    #[test]
    fn recursion_reaches_fixpoint() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::I32], Type::Void));
        {
            let mut b = Builder::at_entry(&mut m, f);
            b.store(Value::i32(0), Value::Null);
            b.call(f, vec![Value::Arg(0)]);
            b.ret(None);
        }
        let (_, e) = with_cg(&m);
        assert!(e.summary(f).writes_memory);
        assert!(!e.summary(f).calls_unknown);
    }

    #[test]
    fn classification_basics() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::Ptr], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        let alloc = b.call_rtl(RtlFn::AllocShared, vec![Value::i64(8)]);
        b.store(Value::i32(1), alloc);
        b.ret(None);
        let (_, e) = with_cg(&m);
        let func = m.func(f);
        let kinds: Vec<SideEffectKind> = func
            .block(func.entry())
            .insts
            .iter()
            .map(|&i| e.classify_for_spmdization(&m, func.inst(i), |_| false))
            .collect();
        // alloc_shared is amenable, the store needs a guard.
        assert_eq!(kinds[0], SideEffectKind::Amenable);
        assert_eq!(kinds[1], SideEffectKind::Guardable);
    }

    #[test]
    fn spmd_amenable_assumption_wins() {
        let mut m = Module::new("t");
        let mut ext = Function::declaration("ext_fn", vec![], Type::Void);
        ext.attrs.spmd_amenable = true;
        let ext = m.add_function(ext);
        let f = m.add_function(Function::definition("f", vec![], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        b.call(ext, vec![]);
        b.ret(None);
        let (_, e) = with_cg(&m);
        let func = m.func(f);
        let i = func.block(func.entry()).insts[0];
        assert_eq!(
            e.classify_for_spmdization(&m, func.inst(i), |_| false),
            SideEffectKind::Amenable
        );
    }

    #[test]
    fn param_write_masks_are_tracked() {
        let mut m = Module::new("t");
        // writer(p, q): writes through p only.
        let writer = m.add_function(Function::definition(
            "writer",
            vec![Type::Ptr, Type::Ptr],
            Type::Void,
        ));
        {
            let mut b = Builder::at_entry(&mut m, writer);
            b.store(Value::f64(1.0), Value::Arg(0));
            let _ = b.load(Type::F64, Value::Arg(1));
            b.ret(None);
        }
        // forward(a, b): calls writer(b, a) — the mask must swap.
        let forward = m.add_function(Function::definition(
            "forward",
            vec![Type::Ptr, Type::Ptr],
            Type::Void,
        ));
        {
            let mut b = Builder::at_entry(&mut m, forward);
            b.call(writer, vec![Value::Arg(1), Value::Arg(0)]);
            b.ret(None);
        }
        let (_, e) = with_cg(&m);
        let ws = e.summary(writer);
        assert_eq!(ws.param_written, 0b01);
        assert!(!ws.writes_nonlocal);
        let fs = e.summary(forward);
        assert_eq!(fs.param_written, 0b10, "mask must follow the argument");
        assert!(!fs.writes_nonlocal);
    }

    #[test]
    fn loaded_pointer_writes_are_nonlocal() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::Ptr], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.load(Type::Ptr, Value::Arg(0));
        b.store(Value::i32(1), p);
        b.ret(None);
        let (_, e) = with_cg(&m);
        let s = e.summary(f);
        assert!(s.writes_nonlocal);
        assert_eq!(s.param_written, 0);
    }

    #[test]
    fn replicated_writer_call_is_amenable() {
        // sample(&x): writes through its parameter; the argument is a
        // globalization allocation => replicated per thread => amenable.
        let mut m = Module::new("t");
        let sample = m.add_function(Function::definition("sample", vec![Type::Ptr], Type::Void));
        {
            let mut b = Builder::at_entry(&mut m, sample);
            b.store(Value::f64(2.0), Value::Arg(0));
            b.ret(None);
        }
        let f = m.add_function(Function::definition("f", vec![Type::Ptr], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        let cell = b.call_rtl(RtlFn::AllocShared, vec![Value::i64(8)]);
        b.call(sample, vec![cell]);
        // And a second call writing through a *global* pointer: guarded.
        b.call(sample, vec![Value::Arg(0)]);
        b.ret(None);
        let (_, e) = with_cg(&m);
        let func = m.func(f);
        let insts: Vec<_> = func.block(func.entry()).insts.clone();
        let classify = |i: omp_ir::InstId| {
            e.classify_for_spmdization(&m, func.inst(i), |ptr| {
                matches!(ptr, Value::Inst(x) if x == match cell {
                    Value::Inst(c) => c,
                    _ => unreachable!(),
                })
            })
        };
        assert_eq!(classify(insts[1]), SideEffectKind::Amenable);
        assert_eq!(classify(insts[2]), SideEffectKind::Guardable);
    }

    #[test]
    fn indirect_call_blocks() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::Ptr], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        b.call_indirect(Value::Arg(0), vec![], Type::Void);
        b.ret(None);
        let (_, e) = with_cg(&m);
        let func = m.func(f);
        let i = func.block(func.entry()).insts[0];
        assert_eq!(
            e.classify_for_spmdization(&m, func.inst(i), |_| false),
            SideEffectKind::Blocking
        );
    }
}
