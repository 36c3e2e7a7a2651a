//! Constant propagation and algebraic simplification.
//!
//! Iteratively folds instructions with constant operands (using
//! [`omp_ir::fold`]), applies identity simplifications, resolves
//! single-value phis, and turns constant conditional branches into
//! unconditional ones. Combined with [`crate::dce`] and
//! [`crate::simplify_cfg`] this is what makes the paper's runtime-call
//! folding (Section IV-C) pay off: once a query is replaced by a
//! constant, whole branches of the kernel disappear.

use omp_ir::fold;
use omp_ir::{FuncId, InstKind, Module, Terminator, Value};

/// Runs constant propagation on every function until a local fixpoint.
/// Returns the number of instructions folded.
pub fn run(m: &mut Module) -> usize {
    let mut total = 0;
    for fid in m.func_ids().collect::<Vec<_>>() {
        if !m.func(fid).is_declaration() {
            total += run_function(m, fid);
        }
    }
    total
}

pub(crate) fn run_function(m: &mut Module, fid: FuncId) -> usize {
    let mut folded = 0;
    loop {
        let mut changed = false;
        let f = m.func(fid);
        // Collect foldable instructions first (no aliasing issues).
        let mut subs: Vec<(omp_ir::InstId, Value)> = Vec::new();
        for (_, i) in f.inst_ids() {
            let kind = f.inst(i);
            let replacement = fold::fold_inst(kind).or_else(|| match kind {
                InstKind::Bin { op, ty, lhs, rhs } => fold::simplify_bin(*op, *ty, *lhs, *rhs),
                InstKind::Phi { incoming, .. } => {
                    // A phi whose incomings are all identical (ignoring
                    // self-references) collapses to that value.
                    let mut uniq: Option<Value> = None;
                    let mut ok = !incoming.is_empty();
                    for (_, v) in incoming {
                        if *v == Value::Inst(i) {
                            continue;
                        }
                        match uniq {
                            None => uniq = Some(*v),
                            Some(u) if u == *v => {}
                            _ => ok = false,
                        }
                    }
                    if ok {
                        uniq
                    } else {
                        None
                    }
                }
                InstKind::Cast { op, val, to } => {
                    // Cast chains like zext(trunc) are left alone, but a
                    // cast to the same width via two steps of sitofp etc.
                    // is not simplified here. Only no-op ptr casts fold.
                    let _ = (op, val, to);
                    None
                }
                _ => None,
            });
            if let Some(v) = replacement {
                if v != Value::Inst(i) {
                    subs.push((i, v));
                }
            }
        }
        if !subs.is_empty() {
            // Resolve chains: a substitution may point at an instruction
            // that is itself substituted in this batch.
            let map: std::collections::HashMap<omp_ir::InstId, Value> =
                subs.iter().copied().collect();
            let resolve = |mut v: Value| {
                for _ in 0..map.len() + 1 {
                    match v {
                        Value::Inst(i) => match map.get(&i) {
                            Some(&next) if next != v => v = next,
                            _ => return v,
                        },
                        _ => return v,
                    }
                }
                v
            };
            let fm = m.func_mut(fid);
            let bulk: std::collections::HashMap<Value, Value> = subs
                .iter()
                .map(|&(i, v)| (Value::Inst(i), resolve(v)))
                .collect();
            fm.replace_uses_bulk(&bulk);
            let ids: Vec<omp_ir::InstId> = subs.iter().map(|&(i, _)| i).collect();
            fm.remove_insts(&ids);
            folded += subs.len();
            changed = true;
        }
        // Fold constant conditional branches.
        let f = m.func(fid);
        let mut branch_fixes: Vec<(omp_ir::BlockId, omp_ir::BlockId, omp_ir::BlockId)> = Vec::new();
        for b in f.block_ids() {
            if let Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } = &f.block(b).term
            {
                if let Some(c) = cond.as_int() {
                    let (taken, dropped) = if c != 0 {
                        (*then_bb, *else_bb)
                    } else {
                        (*else_bb, *then_bb)
                    };
                    branch_fixes.push((b, taken, dropped));
                } else if then_bb == else_bb {
                    branch_fixes.push((b, *then_bb, *else_bb));
                }
            }
        }
        if !branch_fixes.is_empty() {
            for (b, taken, dropped) in branch_fixes {
                let fm = m.func_mut(fid);
                fm.block_mut(b).term = Terminator::Br(taken);
                // Remove the phi incomings along the dropped edge unless
                // the same edge survives (then == else case).
                if taken != dropped {
                    let insts = fm.block(dropped).insts.clone();
                    for i in insts {
                        if let InstKind::Phi { incoming, .. } = fm.inst_mut(i) {
                            incoming.retain(|(p, _)| *p != b);
                        }
                    }
                }
            }
            changed = true;
        }
        if !changed {
            break;
        }
    }
    folded
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_ir::{BinOp, Builder, CmpOp, Function, Type};

    #[test]
    fn folds_constant_chain() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let a = b.bin(BinOp::Add, Type::I32, Value::i32(2), Value::i32(3));
        let c = b.bin(BinOp::Mul, Type::I32, a, Value::i32(4));
        b.ret(Some(c));
        let n = run(&mut m);
        assert!(n >= 2);
        let fun = m.func(f);
        match &fun.block(fun.entry()).term {
            Terminator::Ret(Some(v)) => assert_eq!(*v, Value::i32(20)),
            _ => panic!(),
        }
    }

    #[test]
    fn folds_branch_on_constant_comparison() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let c = b.cmp(CmpOp::Slt, Type::I32, Value::i32(1), Value::i32(2));
        let yes = b.new_block();
        let no = b.new_block();
        b.cond_br(c, yes, no);
        b.switch_to(yes);
        b.ret(Some(Value::i32(10)));
        b.switch_to(no);
        b.ret(Some(Value::i32(20)));
        run(&mut m);
        let fun = m.func(f);
        match &fun.block(fun.entry()).term {
            Terminator::Br(t) => assert_eq!(*t, yes),
            t => panic!("expected br, got {t:?}"),
        }
        omp_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn collapses_single_value_phi() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::I1], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let entry = b.current_block();
        let t = b.new_block();
        let j = b.new_block();
        b.cond_br(Value::Arg(0), t, j);
        b.switch_to(t);
        b.br(j);
        b.switch_to(j);
        let p = b.phi(Type::I32);
        b.add_phi_incoming(p, entry, Value::i32(7));
        b.add_phi_incoming(p, t, Value::i32(7));
        b.ret(Some(p));
        run(&mut m);
        let fun = m.func(f);
        match &fun.block(j).term {
            Terminator::Ret(Some(v)) => assert_eq!(*v, Value::i32(7)),
            t => panic!("{t:?}"),
        }
    }

    #[test]
    fn identity_simplification_keeps_dynamic_value() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::I32], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let a = b.bin(BinOp::Add, Type::I32, Value::Arg(0), Value::i32(0));
        let c = b.bin(BinOp::Mul, Type::I32, a, Value::i32(1));
        b.ret(Some(c));
        run(&mut m);
        let fun = m.func(f);
        match &fun.block(fun.entry()).term {
            Terminator::Ret(Some(v)) => assert_eq!(*v, Value::Arg(0)),
            _ => panic!(),
        }
    }

    #[test]
    fn same_target_condbr_becomes_br() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::I1], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        let j = b.new_block();
        b.cond_br(Value::Arg(0), j, j);
        b.switch_to(j);
        b.ret(None);
        run(&mut m);
        let fun = m.func(f);
        assert!(matches!(fun.block(fun.entry()).term, Terminator::Br(_)));
    }
}
