//! Control-flow graph cleanup.
//!
//! * removes blocks unreachable from the entry (fixing phis),
//! * merges a block into its unique predecessor when that predecessor
//!   branches unconditionally to it,
//! * forwards branches through empty blocks that only jump onward.

use omp_ir::{BlockId, FuncId, InstKind, Module, Terminator};
use std::collections::{HashMap, HashSet};

/// Runs CFG simplification on every function definition. Returns the
/// number of removed blocks.
pub fn run(m: &mut Module) -> usize {
    let mut total = 0;
    for fid in m.func_ids().collect::<Vec<_>>() {
        if !m.func(fid).is_declaration() {
            total += run_function(m, fid);
        }
    }
    total
}

fn reachable(m: &Module, fid: FuncId) -> HashSet<BlockId> {
    let f = m.func(fid);
    let mut seen = HashSet::new();
    let mut stack = vec![f.entry()];
    seen.insert(f.entry());
    while let Some(b) = stack.pop() {
        for s in f.block(b).term.successors() {
            if seen.insert(s) {
                stack.push(s);
            }
        }
    }
    seen
}

pub(crate) fn run_function(m: &mut Module, fid: FuncId) -> usize {
    let mut removed = 0;
    loop {
        let mut changed = false;

        // 1. Remove unreachable blocks.
        let live = reachable(m, fid);
        let all: Vec<BlockId> = m.func(fid).block_ids().collect();
        let dead: Vec<BlockId> = all.iter().copied().filter(|b| !live.contains(b)).collect();
        if !dead.is_empty() {
            let f = m.func_mut(fid);
            // Remove phi incomings from dead predecessors first.
            for &b in &all {
                if !live.contains(&b) {
                    continue;
                }
                let insts = f.block(b).insts.clone();
                for i in insts {
                    if let InstKind::Phi { incoming, .. } = f.inst_mut(i) {
                        incoming.retain(|(p, _)| live.contains(p));
                    }
                }
            }
            for b in dead {
                f.remove_block(b);
                removed += 1;
            }
            changed = true;
        }

        // 2. Merge single-predecessor blocks whose predecessor ends in an
        //    unconditional branch to them.
        let f = m.func(fid);
        let preds = f.predecessors();
        let mut merge: Option<(BlockId, BlockId)> = None;
        for b in f.block_ids() {
            if b == f.entry() {
                continue;
            }
            if let Some(ps) = preds.get(&b) {
                if ps.len() == 1 {
                    let p = ps[0];
                    if p != b && matches!(f.block(p).term, Terminator::Br(t) if t == b) {
                        merge = Some((p, b));
                        break;
                    }
                }
            }
        }
        if let Some((p, b)) = merge {
            let f = m.func_mut(fid);
            // Phis in b have exactly one incoming (from p): inline them.
            let insts = f.block(b).insts.clone();
            for i in insts.iter().copied() {
                if let InstKind::Phi { incoming, .. } = f.inst(i) {
                    assert!(incoming.len() <= 1, "single-pred block with multi-phi");
                    let v = incoming
                        .first()
                        .map(|(_, v)| *v)
                        .unwrap_or(omp_ir::Value::Undef(f.inst(i).result_type()));
                    f.replace_all_uses(omp_ir::Value::Inst(i), v);
                    f.remove_inst(i);
                }
            }
            let moved: Vec<_> = f.block(b).insts.clone();
            let term = f.block(b).term.clone();
            f.block_mut(b).insts.clear();
            f.block_mut(p).insts.extend(moved);
            f.block_mut(p).term = term;
            // Successor phis referring to b must now refer to p.
            for s in f.block(p).term.successors() {
                let insts = f.block(s).insts.clone();
                for i in insts {
                    if let InstKind::Phi { incoming, .. } = f.inst_mut(i) {
                        for (pred, _) in incoming.iter_mut() {
                            if *pred == b {
                                *pred = p;
                            }
                        }
                    }
                }
            }
            f.remove_block(b);
            removed += 1;
            changed = true;
        }

        // 3. Forward branches through empty forwarding blocks
        //    (no instructions, unconditional branch, no phis in target
        //    that would be confused by duplicate predecessors).
        let f = m.func(fid);
        let mut forwards: HashMap<BlockId, BlockId> = HashMap::new();
        for b in f.block_ids() {
            if b == f.entry() || !f.block(b).insts.is_empty() {
                continue;
            }
            if let Terminator::Br(t) = f.block(b).term {
                if t != b {
                    forwards.insert(b, t);
                }
            }
        }
        if !forwards.is_empty() {
            let preds = f.predecessors();
            // Only forward when the final target has no phis (otherwise
            // rewriting predecessors requires phi surgery) and the hop
            // target is not the block itself.
            let mut applied = false;
            let mut rewires: Vec<(BlockId, BlockId, BlockId)> = Vec::new();
            for (&b, &t) in &forwards {
                let target_has_phi = f
                    .block(t)
                    .insts
                    .first()
                    .is_some_and(|&i| matches!(f.inst(i), InstKind::Phi { .. }));
                if target_has_phi {
                    continue;
                }
                for &p in preds.get(&b).into_iter().flatten() {
                    rewires.push((p, b, t));
                }
            }
            if !rewires.is_empty() {
                let fm = m.func_mut(fid);
                for (p, b, t) in rewires {
                    fm.block_mut(p)
                        .term
                        .map_successors(|s| if s == b { t } else { s });
                    applied = true;
                }
                if applied {
                    changed = true;
                }
            }
        }

        if !changed {
            return removed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_ir::{Builder, Function, Type, Value};

    #[test]
    fn removes_unreachable_block() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        let dead = b.new_block();
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        assert!(run(&mut m) >= 1);
        assert_eq!(m.func(f).num_blocks(), 1);
        omp_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn merges_straight_line_chain() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let b2 = b.new_block();
        let b3 = b.new_block();
        b.br(b2);
        b.switch_to(b2);
        let v = b.bin(omp_ir::BinOp::Add, Type::I32, Value::i32(1), Value::i32(2));
        b.br(b3);
        b.switch_to(b3);
        b.ret(Some(v));
        run(&mut m);
        assert_eq!(m.func(f).num_blocks(), 1);
        omp_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn phi_cleanup_on_dead_predecessor() {
        // entry -> join; dead -> join (dead is unreachable) with a phi in
        // join mentioning both.
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let entry = b.current_block();
        let dead = b.new_block();
        let join = b.new_block();
        b.br(join);
        b.switch_to(dead);
        b.br(join);
        b.switch_to(join);
        let p = b.phi(Type::I32);
        b.add_phi_incoming(p, entry, Value::i32(1));
        b.add_phi_incoming(p, dead, Value::i32(2));
        b.ret(Some(p));
        run(&mut m);
        omp_ir::verifier::assert_valid(&m);
        // After cleanup the phi has one incoming and (after merging)
        // may be gone entirely; verify the function still returns 1 by
        // checking no reference to constant 2 remains.
        let fun = m.func(f);
        let mut has_two = false;
        fun.for_each_inst(|_, _, k| {
            k.for_each_operand(|v| has_two |= v == Value::i32(2));
        });
        assert!(!has_two);
    }

    #[test]
    fn forwards_through_empty_block() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::I1], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        let hop = b.new_block();
        let target = b.new_block();
        b.cond_br(Value::Arg(0), hop, target);
        b.switch_to(hop);
        b.br(target);
        b.switch_to(target);
        b.ret(None);
        run(&mut m);
        let fun = m.func(f);
        // hop is gone; entry branches straight to target (condbr with
        // both edges to target is folded by constprop, not here).
        assert!(fun.num_blocks() <= 2);
        omp_ir::verifier::assert_valid(&m);
    }
}
