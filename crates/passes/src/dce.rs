//! Dead code elimination.
//!
//! Removes instructions whose results are unused and which have no side
//! effects. Calls are kept unless the callee is known to be pure (math
//! intrinsics, `pure` attribute, side-effect-free OpenMP context
//! queries) — removing dead runtime queries is exactly what makes the
//! paper's folding optimization shrink kernels.

use omp_ir::{FuncId, InstKind, Module, RtlFn, Value};

/// Runs DCE on every function. Returns the number of removed
/// instructions.
pub fn run(m: &mut Module) -> usize {
    let mut total = 0;
    for fid in m.func_ids().collect::<Vec<_>>() {
        if !m.func(fid).is_declaration() {
            total += run_function(m, fid);
        }
    }
    total
}

fn call_is_removable(m: &Module, callee: &Value) -> bool {
    match callee {
        Value::Func(c) => {
            let f = m.func(*c);
            if let Some(rtl) = RtlFn::from_name(&f.name) {
                return rtl.is_context_query();
            }
            f.attrs.pure_fn
                || f.attrs.readonly
                || omp_ir::omprtl::math_fn_signature(&f.name).is_some()
        }
        _ => false,
    }
}

pub(crate) fn run_function(m: &mut Module, fid: FuncId) -> usize {
    let mut removed = 0;
    // Which instruction results have a use, indexed by `InstId`. Removing
    // instructions never grows the arena, so one table serves all rounds.
    let mut used = vec![false; m.func(fid).inst_slots()];
    loop {
        let f = m.func(fid);
        used.fill(false);
        let mut mark = |v: Value| {
            if let Value::Inst(i) = v {
                used[i.index()] = true;
            }
        };
        f.for_each_inst(|_, _, k| k.for_each_operand(&mut mark));
        for b in f.block_ids() {
            f.block(b).term.for_each_operand(&mut mark);
        }
        let mut dead = Vec::new();
        for (_, i) in f.inst_ids() {
            if used[i.index()] {
                continue;
            }
            let k = f.inst(i);
            let removable = match k {
                InstKind::Call { callee, .. } => call_is_removable(m, callee),
                InstKind::Store { .. } => false,
                InstKind::Load { .. } => true, // dead load has no effect here
                _ => k.is_removable_if_unused(),
            };
            if removable {
                dead.push(i);
            }
        }
        if dead.is_empty() {
            break;
        }
        let fm = m.func_mut(fid);
        fm.remove_insts(&dead);
        removed += dead.len();
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_ir::{BinOp, Builder, Function, Type};

    #[test]
    fn removes_unused_chain() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::I32], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let dead1 = b.bin(BinOp::Add, Type::I32, Value::Arg(0), Value::i32(1));
        let _dead2 = b.bin(BinOp::Mul, Type::I32, dead1, Value::i32(2));
        b.ret(Some(Value::Arg(0)));
        assert_eq!(run(&mut m), 2);
        assert_eq!(m.func(f).num_insts(), 0);
    }

    #[test]
    fn keeps_live_values() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::I32], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let v = b.bin(BinOp::Add, Type::I32, Value::Arg(0), Value::i32(1));
        b.ret(Some(v));
        assert_eq!(run(&mut m), 0);
        assert_eq!(m.func(f).num_insts(), 1);
    }

    #[test]
    fn keeps_stores_and_unknown_calls() {
        let mut m = Module::new("t");
        let ext = m.add_function(Function::declaration("ext", vec![], Type::I32));
        let f = m.add_function(Function::definition("f", vec![Type::Ptr], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        b.store(Value::i32(1), Value::Arg(0));
        b.call(ext, vec![]); // unused result, but unknown side effects
        b.ret(None);
        assert_eq!(run(&mut m), 0);
        assert_eq!(m.func(f).num_insts(), 2);
    }

    #[test]
    fn removes_dead_pure_calls_and_context_queries() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        b.call_rtl(RtlFn::ThreadNum, vec![]);
        let sqrt = b
            .module()
            .get_or_declare("sqrt", vec![Type::F64], Type::F64);
        b.call(sqrt, vec![Value::f64(2.0)]);
        b.ret(None);
        assert_eq!(run(&mut m), 2);
        assert_eq!(m.func(f).num_insts(), 0);
    }

    #[test]
    fn keeps_barrier_calls() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        b.call_rtl(RtlFn::Barrier, vec![]);
        b.ret(None);
        assert_eq!(run(&mut m), 0);
    }

    #[test]
    fn transitively_dead_via_dead_load() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.alloca(4, 4);
        let v = b.load(Type::I32, p);
        let _w = b.bin(BinOp::Add, Type::I32, v, Value::i32(1));
        b.ret(None);
        assert_eq!(run(&mut m), 3);
    }
}
