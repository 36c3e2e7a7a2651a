//! HeapToStack (paper Section IV-A).
//!
//! Replaces `__kmpc_alloc_shared` allocations with `alloca`s when the
//! pointer provably never becomes visible to another thread. The
//! matching `__kmpc_free_shared` calls are removed.
//!
//! With [`crate::OpenMpOptConfig::spmd_capture_heap_to_stack`] enabled,
//! the analysis additionally chases pointers stored into the capture
//! structs of *devirtualized* parallel regions (SPMDized kernels call
//! their regions directly on the same thread, so the indirection is
//! thread-local) — the D102107 extension the paper's Figure 9 relies on
//! for SU3Bench.

use crate::remarks::{actions, ids, passes, Remark, RemarkKind, Remarks};
use omp_analysis::{pointer_escapes, underlying_alloca, EscapeResult};
use omp_ir::scalar::gep_offset;
use omp_ir::{FuncId, InstId, InstKind, Module, RtlFn, Value};

/// Result counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapToStackResult {
    /// User variables moved to the stack.
    pub moved: usize,
    /// Compiler-synthesized parallel-region capture structs moved to the
    /// stack (counted separately: the paper's Figure 9 counts user
    /// variables).
    pub capture_structs: usize,
    /// Allocations that could not be moved (left for HeapToShared).
    pub failed: usize,
}

/// Runs HeapToStack on every function. `chase_captures` enables the
/// capture-struct extension.
pub fn run(m: &mut Module, chase_captures: bool, remarks: &mut Remarks) -> HeapToStackResult {
    let mut result = HeapToStackResult::default();
    for fid in m.func_ids().collect::<Vec<_>>() {
        if m.func(fid).is_declaration() {
            continue;
        }
        while let Some((alloc, size)) = find_candidate(m, fid, chase_captures) {
            let capture = is_capture_struct(m, fid, alloc);
            stackify(m, fid, alloc, size);
            if capture {
                result.capture_structs += 1;
            } else {
                result.moved += 1;
                remarks.push(
                    Remark::new(
                        ids::MOVED_TO_STACK,
                        RemarkKind::Passed,
                        m.func(fid).name.clone(),
                        "Moving globalized variable to the stack.",
                    )
                    .in_pass(passes::HEAP_TO_STACK)
                    .with_action(actions::STACKIFY)
                    .at(format!("%{}", alloc.index()))
                    .with_bytes(size),
                );
            }
        }
        // Count the survivors for reporting.
        let f = m.func(fid);
        let mut remaining = 0;
        f.for_each_inst(|_, _, k| {
            if is_alloc_call(m, k) {
                remaining += 1;
            }
        });
        result.failed += remaining;
    }
    result
}

fn is_alloc_call(m: &Module, k: &InstKind) -> bool {
    matches!(
        k,
        InstKind::Call {
            callee: Value::Func(c),
            ..
        } if m.func(*c).name == RtlFn::AllocShared.name()
    )
}

/// Finds one transformable allocation: an `__kmpc_alloc_shared` call
/// with a constant size whose pointer does not escape the thread.
fn find_candidate(m: &Module, fid: FuncId, chase: bool) -> Option<(InstId, u64)> {
    let f = m.func(fid);
    let mut found = None;
    f.for_each_inst(|_, i, k| {
        if found.is_some() {
            return;
        }
        if let InstKind::Call {
            callee: Value::Func(c),
            args,
            ..
        } = k
        {
            if m.func(*c).name != RtlFn::AllocShared.name() {
                return;
            }
            let Some(Value::ConstInt(size, _)) = args.first() else {
                return;
            };
            if *size < 0 {
                return;
            }
            if thread_local_pointer(m, fid, Value::Inst(i), chase, 0) {
                found = Some((i, *size as u64));
            }
        }
    });
    found
}

/// Whether the pointer is only ever used by the thread that produced
/// it. Beyond the plain escape analysis, the capture-chasing extension
/// accepts a store into a slot of a thread-local capture struct that is
/// only passed to direct calls of internal definitions, following the
/// corresponding loads in the callees.
fn thread_local_pointer(m: &Module, fid: FuncId, p: Value, chase: bool, depth: usize) -> bool {
    if depth > 4 {
        return false;
    }
    match pointer_escapes(m, fid, p) {
        EscapeResult::NoEscape => true,
        EscapeResult::Escapes(_) if chase => capture_chase(m, fid, p, depth),
        EscapeResult::Escapes(_) => false,
    }
}

/// The capture-chasing extension. Every escaping use must be a store of
/// `p` into a constant slot of a capture object whose own uses are
/// thread-local: slot stores, frees, and direct calls to internal
/// definitions where the loaded slot value stays thread-local.
fn capture_chase(m: &Module, fid: FuncId, p: Value, depth: usize) -> bool {
    let f = m.func(fid);
    // Gather all direct uses of p (and of geps derived from it).
    let mut roots = vec![p];
    let mut idx = 0;
    while idx < roots.len() {
        let root = roots[idx];
        idx += 1;
        let mut ok = true;
        let mut derived: Vec<Value> = Vec::new();
        f.for_each_inst(|_, i, k| {
            if !ok {
                return;
            }
            match k {
                InstKind::Gep { base, .. } if *base == root => {
                    derived.push(Value::Inst(i));
                }
                InstKind::Store { val, ptr } if *val == root => {
                    // p stored into a capture slot: verify the slot.
                    if !store_target_is_threadlocal_capture(m, fid, *ptr, root, depth) {
                        ok = false;
                    }
                }
                InstKind::Store { ptr, .. } if *ptr == root => {}
                InstKind::Call {
                    callee: Value::Func(c),
                    args,
                    ..
                } if args.contains(&root) => {
                    let cf = m.func(*c);
                    let name = &cf.name;
                    if name == RtlFn::FreeShared.name() {
                        return;
                    }
                    if cf
                        .param_attrs
                        .iter()
                        .zip(args)
                        .any(|(pa, a)| *a == root && pa.noescape)
                    {
                        return;
                    }
                    if cf.is_declaration() {
                        ok = false;
                        return;
                    }
                    // Follow into the definition.
                    for (j, a) in args.iter().enumerate() {
                        if *a == root
                            && !thread_local_pointer(m, *c, Value::Arg(j as u32), true, depth + 1)
                        {
                            ok = false;
                        }
                    }
                }
                InstKind::Call { args, .. } if args.contains(&root) => {
                    ok = false; // indirect call
                }
                _ => {
                    let mut used = false;
                    k.for_each_operand(|v| used |= v == root);
                    if used
                        && matches!(
                            k,
                            InstKind::Select { .. } | InstKind::Phi { .. } | InstKind::Cast { .. }
                        )
                    {
                        ok = false; // too clever; give up
                    }
                }
            }
        });
        // Escape through the terminator (return) is not thread-local.
        for b in f.block_ids() {
            f.block(b).term.for_each_operand(|v| {
                if v == root {
                    ok = false;
                }
            });
        }
        if !ok {
            return false;
        }
        for d in derived {
            if !roots.contains(&d) {
                roots.push(d);
            }
        }
    }
    true
}

/// Verifies that `slot` (the store target) belongs to a thread-local
/// capture object and that callees reading the slot keep the loaded
/// pointer thread-local.
fn store_target_is_threadlocal_capture(
    m: &Module,
    fid: FuncId,
    slot: Value,
    _stored: Value,
    depth: usize,
) -> bool {
    let f = m.func(fid);
    // The slot must be a (possibly gep-derived) pointer into an object
    // allocated in this function: an alloca or an alloc_shared call.
    let slot_offset;
    let base_obj: Value = match slot {
        Value::Inst(i) => match f.inst(i) {
            InstKind::Gep {
                base,
                index: Value::ConstInt(k, _),
                scale,
                offset,
            } => {
                slot_offset = gep_offset(*k, *scale, *offset);
                *base
            }
            InstKind::Alloca { .. } | InstKind::Call { .. } => {
                slot_offset = 0;
                Value::Inst(i)
            }
            _ => return false,
        },
        _ => return false,
    };
    let is_local_object = match base_obj {
        Value::Inst(i) => match f.inst(i) {
            InstKind::Alloca { .. } => true,
            k @ InstKind::Call { .. } => is_alloc_call(m, k),
            _ => underlying_alloca(f, base_obj).is_some(),
        },
        _ => false,
    };
    if !is_local_object {
        return false;
    }
    // Every use of the capture object must be: slot stores, frees, or
    // direct calls of internal definitions.
    let mut ok = true;
    let mut callees: Vec<(FuncId, u32)> = Vec::new();
    f.for_each_inst(|_, _, k| {
        if !ok {
            return;
        }
        match k {
            InstKind::Store { val, .. } if *val == base_obj => ok = false,
            InstKind::Store { .. } => {}
            InstKind::Gep { base, .. } if *base == base_obj => {}
            InstKind::Call {
                callee: Value::Func(c),
                args,
                ..
            } if args.contains(&base_obj) => {
                let cf = m.func(*c);
                if cf.name == RtlFn::FreeShared.name() {
                    return;
                }
                if cf.name == RtlFn::Parallel51.name() {
                    // Not devirtualized: workers on other threads read it.
                    ok = false;
                    return;
                }
                if cf.is_declaration() {
                    ok = false;
                    return;
                }
                for (j, a) in args.iter().enumerate() {
                    if *a == base_obj {
                        callees.push((*c, j as u32));
                    }
                }
            }
            InstKind::Call { args, .. } if args.contains(&base_obj) => ok = false,
            _ => {}
        }
    });
    if !ok {
        return false;
    }
    // Loads of the slot in this same function must stay thread-local.
    let mut local_loads: Vec<InstId> = Vec::new();
    f.for_each_inst(|_, i, k| {
        if let InstKind::Load { ptr, .. } = k {
            let off = if *ptr == base_obj {
                Some(0)
            } else if let Value::Inst(g) = ptr {
                match f.inst(*g) {
                    InstKind::Gep {
                        base,
                        index: Value::ConstInt(k2, _),
                        scale,
                        offset,
                    } if *base == base_obj => Some(gep_offset(*k2, *scale, *offset)),
                    _ => None,
                }
            } else {
                None
            };
            if off == Some(slot_offset) {
                local_loads.push(i);
            }
        }
    });
    for l in local_loads {
        if !thread_local_pointer(m, fid, Value::Inst(l), true, depth + 1)
            || written_through(m.func(fid), Value::Inst(l))
        {
            return false;
        }
    }
    // In each callee, the loads of our slot must stay thread-local.
    for (callee, argno) in callees {
        let cf = m.func(callee);
        let mut loads: Vec<InstId> = Vec::new();
        cf.for_each_inst(|_, i, k| {
            if let InstKind::Load { ptr, .. } = k {
                let off = match ptr {
                    Value::Arg(n) if *n == argno => Some(0),
                    Value::Inst(g) => match cf.inst(*g) {
                        InstKind::Gep {
                            base: Value::Arg(n),
                            index: Value::ConstInt(k2, _),
                            scale,
                            offset,
                        } if *n == argno => Some(gep_offset(*k2, *scale, *offset)),
                        _ => None,
                    },
                    _ => None,
                };
                if off == Some(slot_offset) {
                    loads.push(i);
                }
            }
        });
        for l in loads {
            // The loaded pointer must stay thread-local AND read-only:
            // if the region writes through it, threads communicate
            // through the variable and per-thread replication (stack)
            // would be wrong — HeapToShared handles those instead.
            if !thread_local_pointer(m, callee, Value::Inst(l), true, depth + 1)
                || written_through(cf, Value::Inst(l))
            {
                return false;
            }
        }
    }
    true
}

/// Whether the allocation is a compiler-synthesized parallel-region
/// capture struct: its pointer is passed to an outlined region (either
/// directly after devirtualization, or as the args operand of
/// `__kmpc_parallel_51`).
fn is_capture_struct(m: &Module, fid: FuncId, alloc: InstId) -> bool {
    let f = m.func(fid);
    let p = Value::Inst(alloc);
    let mut capture = false;
    f.for_each_inst(|_, _, k| {
        if let InstKind::Call {
            callee: Value::Func(c),
            args,
            ..
        } = k
        {
            let name = &m.func(*c).name;
            if name.starts_with("__omp_outlined.") && args.first() == Some(&p) {
                capture = true;
            }
            if name == RtlFn::Parallel51.name() && args.get(2) == Some(&p) {
                capture = true;
            }
        }
    });
    capture
}

/// Whether any store writes through `root` (or a gep derived from it)
/// in `f`.
fn written_through(f: &omp_ir::Function, root: Value) -> bool {
    let mut ptrs = vec![root];
    let mut idx = 0;
    while idx < ptrs.len() {
        let p = ptrs[idx];
        idx += 1;
        let mut hit = false;
        f.for_each_inst(|_, i, k| match k {
            InstKind::Store { ptr, .. } if *ptr == p => hit = true,
            InstKind::Gep { base, .. } if *base == p && !ptrs.contains(&Value::Inst(i)) => {
                ptrs.push(Value::Inst(i));
            }
            _ => {}
        });
        if hit {
            return true;
        }
    }
    false
}

/// Performs the replacement: alloc call becomes an `alloca`; frees on
/// the pointer are removed.
fn stackify(m: &mut Module, fid: FuncId, alloc: InstId, size: u64) {
    let p = Value::Inst(alloc);
    // Remove frees first.
    let f = m.func(fid);
    let mut frees: Vec<InstId> = Vec::new();
    f.for_each_inst(|_, i, k| {
        if let InstKind::Call {
            callee: Value::Func(c),
            args,
            ..
        } = k
        {
            if m.func(*c).name == RtlFn::FreeShared.name() && args.first() == Some(&p) {
                frees.push(i);
            }
        }
    });
    let fm = m.func_mut(fid);
    for i in frees {
        fm.remove_inst(i);
    }
    fm.replace_inst(alloc, InstKind::Alloca { size, align: 8 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_ir::{Builder, Function, Linkage, Type};

    fn count_allocas(m: &Module, f: FuncId) -> usize {
        let mut n = 0;
        m.func(f).for_each_inst(|_, _, k| {
            if matches!(k, InstKind::Alloca { .. }) {
                n += 1;
            }
        });
        n
    }

    #[test]
    fn simple_local_allocation_is_stackified() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::F64));
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.call_rtl(RtlFn::AllocShared, vec![Value::i64(8)]);
        b.store(Value::f64(1.0), p);
        let v = b.load(Type::F64, p);
        b.call_rtl(RtlFn::FreeShared, vec![p, Value::i64(8)]);
        b.ret(Some(v));
        let mut rem = Remarks::default();
        let r = run(&mut m, false, &mut rem);
        assert_eq!(r.moved, 1);
        assert_eq!(r.failed, 0);
        assert_eq!(count_allocas(&m, f), 1);
        assert_eq!(rem.count(ids::MOVED_TO_STACK), 1);
        omp_ir::verifier::assert_valid(&m);
        // No runtime calls remain.
        let text = omp_ir::printer::print_module(&m);
        assert!(!text.contains("call @__kmpc_alloc_shared"));
        assert!(!text.contains("call @__kmpc_free_shared"));
    }

    #[test]
    fn escaping_allocation_is_kept() {
        let mut m = Module::new("t");
        let sink = m.add_function(Function::declaration("sink", vec![Type::Ptr], Type::Void));
        let f = m.add_function(Function::definition("f", vec![], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.call_rtl(RtlFn::AllocShared, vec![Value::i64(8)]);
        b.call(sink, vec![p]);
        b.call_rtl(RtlFn::FreeShared, vec![p, Value::i64(8)]);
        b.ret(None);
        let mut rem = Remarks::default();
        let r = run(&mut m, false, &mut rem);
        assert_eq!(r.moved, 0);
        assert_eq!(r.failed, 1);
    }

    #[test]
    fn paper_fig5_lcl_moves_arg_does_not() {
        // combine(ArgPtr, LclPtr) { unknown(ArgPtr); *LclPtr + *ArgPtr }
        let mut m = Module::new("t");
        let unknown = m.add_function(Function::declaration(
            "unknown",
            vec![Type::Ptr],
            Type::Void,
        ));
        let combine = m.add_function(Function::definition(
            "combine",
            vec![Type::Ptr, Type::Ptr],
            Type::F64,
        ));
        {
            let mut b = Builder::at_entry(&mut m, combine);
            b.call(unknown, vec![Value::Arg(0)]);
            let v = b.load(Type::F64, Value::Arg(1));
            b.ret(Some(v));
        }
        m.func_mut(combine).linkage = Linkage::Internal;
        let dev = m.add_function(Function::definition(
            "device_function",
            vec![Type::F32],
            Type::F64,
        ));
        let mut b = Builder::at_entry(&mut m, dev);
        let argp = b.call_rtl(RtlFn::AllocShared, vec![Value::i64(4)]);
        let lclp = b.call_rtl(RtlFn::AllocShared, vec![Value::i64(8)]);
        b.store(Value::Arg(0), argp);
        b.store(Value::f64(0.0), lclp);
        let v = b.call(combine, vec![argp, lclp]);
        b.call_rtl(RtlFn::FreeShared, vec![argp, Value::i64(4)]);
        b.call_rtl(RtlFn::FreeShared, vec![lclp, Value::i64(8)]);
        b.ret(Some(v));
        let mut rem = Remarks::default();
        let r = run(&mut m, false, &mut rem);
        // Lcl only read through a known function -> stack; Arg escapes
        // into `unknown` -> stays globalized.
        assert_eq!(r.moved, 1);
        assert_eq!(r.failed, 1);
        let text = omp_ir::printer::print_module(&m);
        assert!(text.contains("__kmpc_alloc_shared(i64 4)"));
        assert!(!text.contains("__kmpc_alloc_shared(i64 8)"));
    }

    #[test]
    fn written_capture_is_rejected() {
        // A region that writes through the captured pointer communicates
        // across threads: replication on the stack would be wrong, so the
        // chase must reject it (HeapToShared handles it instead).
        let mut m = Module::new("t");
        let region = m.add_function(Function::definition("wregion", vec![Type::Ptr], Type::Void));
        {
            let mut b = Builder::at_entry(&mut m, region);
            let slot = b.gep(Value::Arg(0), Value::i64(0), 8, 0);
            let tv = b.load(Type::Ptr, slot);
            b.store(Value::f64(1.0), tv);
            b.ret(None);
        }
        m.func_mut(region).linkage = Linkage::Internal;
        let k = m.add_function(Function::definition("k", vec![], Type::Void));
        let mut b = Builder::at_entry(&mut m, k);
        let tv = b.call_rtl(RtlFn::AllocShared, vec![Value::i64(8)]);
        let cap = b.call_rtl(RtlFn::AllocShared, vec![Value::i64(8)]);
        let slot = b.gep(cap, Value::i64(0), 8, 0);
        b.store(tv, slot);
        b.call(region, vec![cap]);
        b.call_rtl(RtlFn::FreeShared, vec![cap, Value::i64(8)]);
        b.call_rtl(RtlFn::FreeShared, vec![tv, Value::i64(8)]);
        b.ret(None);
        let mut rem = Remarks::default();
        let r = run(&mut m, true, &mut rem);
        assert_eq!(r.moved, 1, "only the capture struct moves");
        assert_eq!(r.failed, 1, "the written-through variable stays");
    }

    #[test]
    fn capture_chase_through_devirtualized_region() {
        // Mimics a SPMDized kernel: team_val allocated, its address
        // stored into a capture struct, which is passed directly to the
        // (internal) region that only loads through it.
        let mut m = Module::new("t");
        let region = m.add_function(Function::definition("region", vec![Type::Ptr], Type::Void));
        {
            let mut b = Builder::at_entry(&mut m, region);
            let slot = b.gep(Value::Arg(0), Value::i64(0), 8, 0);
            let tv = b.load(Type::Ptr, slot);
            let v = b.load(Type::F64, tv);
            let _ = v;
            b.ret(None);
        }
        m.func_mut(region).linkage = Linkage::Internal;
        let k = m.add_function(Function::definition("k", vec![], Type::Void));
        let mut b = Builder::at_entry(&mut m, k);
        let tv = b.call_rtl(RtlFn::AllocShared, vec![Value::i64(8)]);
        let cap = b.call_rtl(RtlFn::AllocShared, vec![Value::i64(8)]);
        let slot = b.gep(cap, Value::i64(0), 8, 0);
        b.store(tv, slot);
        b.call(region, vec![cap]);
        b.call_rtl(RtlFn::FreeShared, vec![cap, Value::i64(8)]);
        b.call_rtl(RtlFn::FreeShared, vec![tv, Value::i64(8)]);
        b.ret(None);
        // Without chasing: both stay.
        let mut rem = Remarks::default();
        let r = run(&mut m.clone(), false, &mut rem);
        assert_eq!(r.moved, 1, "only the capture struct itself moves");
        // With chasing: both move.
        let mut rem = Remarks::default();
        let r = run(&mut m, true, &mut rem);
        assert_eq!(r.moved, 2);
        assert_eq!(r.failed, 0);
        omp_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn parallel51_capture_blocks_chase() {
        // Not devirtualized: the capture goes to __kmpc_parallel_51, so
        // other threads read it — no stackification of team_val.
        let mut m = Module::new("t");
        let region = m.add_function(Function::definition("region", vec![Type::Ptr], Type::Void));
        {
            let mut b = Builder::at_entry(&mut m, region);
            b.ret(None);
        }
        m.func_mut(region).linkage = Linkage::Internal;
        let k = m.add_function(Function::definition("k", vec![], Type::Void));
        let mut b = Builder::at_entry(&mut m, k);
        let tv = b.call_rtl(RtlFn::AllocShared, vec![Value::i64(8)]);
        let cap = b.call_rtl(RtlFn::AllocShared, vec![Value::i64(8)]);
        let slot = b.gep(cap, Value::i64(0), 8, 0);
        b.store(tv, slot);
        b.call_rtl(
            RtlFn::Parallel51,
            vec![Value::Func(region), Value::i32(-1), cap],
        );
        b.call_rtl(RtlFn::FreeShared, vec![cap, Value::i64(8)]);
        b.call_rtl(RtlFn::FreeShared, vec![tv, Value::i64(8)]);
        b.ret(None);
        let mut rem = Remarks::default();
        let r = run(&mut m, true, &mut rem);
        assert_eq!(r.moved, 0);
        assert_eq!(r.failed, 2);
    }
}
