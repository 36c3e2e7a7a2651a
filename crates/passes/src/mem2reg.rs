//! Promotion of memory to SSA registers (LLVM's `mem2reg`).
//!
//! Promotes `alloca`s whose only uses are whole-value loads and stores
//! (no address arithmetic, no escape) into SSA values with phi nodes at
//! dominance frontiers. In the pipeline this runs after HeapToStack so
//! the paper's "use local memory (aka. registers)" effect materializes.

use omp_ir::{BlockId, DomTree, FuncId, InstId, InstKind, Module, Type, Value};

/// Runs mem2reg on every function definition. Returns the number of
/// promoted allocas.
pub fn run(m: &mut Module) -> usize {
    let mut count = 0;
    for fid in m.func_ids().collect::<Vec<_>>() {
        if !m.func(fid).is_declaration() {
            count += run_function(m, fid);
        }
    }
    count
}

/// `cell_of` entry of an instruction that is not a promoted alloca.
const NO_CELL: u32 = u32::MAX;

/// One alloca and what the classification scan learned about it.
struct Cell {
    alloca: InstId,
    /// The one type every load and store of it agrees on, if any.
    ty: Option<Type>,
    /// Every use is a whole-value load from it or a store *to* it (not
    /// of it), all of type `ty`.
    promotable: bool,
    /// Blocks that store to it, in layout order.
    def_blocks: Vec<BlockId>,
}

impl Cell {
    fn access(&mut self, ty: Type) {
        match self.ty {
            None => self.ty = Some(ty),
            Some(prev) if prev == ty => {}
            _ => self.promotable = false,
        }
    }
}

/// Promotes every promotable alloca of one function together: one scan
/// classifies all of them, phis are placed per alloca, and one CFG walk
/// carries the reaching value of each.
pub(crate) fn run_function(m: &mut Module, fid: FuncId) -> usize {
    let f = m.func(fid);
    // Dense side table, instruction -> index of its cell.
    let mut cell_of = vec![NO_CELL; f.inst_slots()];
    let mut cells: Vec<Cell> = Vec::new();
    f.for_each_inst(|_, i, kind| {
        if matches!(kind, InstKind::Alloca { .. }) {
            cell_of[i.index()] = cells.len() as u32;
            cells.push(Cell {
                alloca: i,
                ty: None,
                promotable: true,
                def_blocks: Vec::new(),
            });
        }
    });
    if cells.is_empty() {
        return 0;
    }
    let cell = |cell_of: &[u32], v: Value| match v {
        Value::Inst(i) if cell_of[i.index()] != NO_CELL => Some(cell_of[i.index()] as usize),
        _ => None,
    };
    f.for_each_inst(|b, _, kind| match kind {
        InstKind::Load { ptr, ty } => {
            if let Some(c) = cell(&cell_of, *ptr) {
                cells[c].access(*ty);
            }
        }
        InstKind::Store { ptr, val } => {
            if let Some(c) = cell(&cell_of, *val) {
                cells[c].promotable = false; // the address itself is stored
            }
            if let Some(c) = cell(&cell_of, *ptr) {
                cells[c].access(f.value_type(*val));
                if cells[c].def_blocks.last() != Some(&b) {
                    cells[c].def_blocks.push(b);
                }
            }
        }
        other => other.for_each_operand(|v| {
            if let Some(c) = cell(&cell_of, v) {
                cells[c].promotable = false;
            }
        }),
    });
    // Terminators too (e.g. returning the pointer).
    for b in f.block_ids() {
        f.block(b).term.for_each_operand(|v| {
            if let Some(c) = cell(&cell_of, v) {
                cells[c].promotable = false;
            }
        });
    }
    cells.retain(|c| c.promotable && c.ty.is_some());
    if cells.is_empty() {
        return 0;
    }
    cell_of.fill(NO_CELL);
    for (n, c) in cells.iter().enumerate() {
        cell_of[c.alloca.index()] = n as u32;
    }
    let types: Vec<Type> = cells.iter().map(|c| c.ty.expect("retained")).collect();

    // Phi placement at iterated dominance frontiers. Instruction ids
    // reach the printed IR, so the allocation order is fixed: alloca
    // order, then block order, never a hash set's iteration order.
    let dt = DomTree::compute(f);
    let df = dt.dominance_frontiers(f);
    let f = m.func_mut(fid);
    // Per block, the phis placed in it as (cell, phi).
    let mut phis_at: Vec<Vec<(usize, InstId)>> = vec![Vec::new(); f.block_slots()];
    let mut placed_for = vec![NO_CELL; f.block_slots()];
    for (n, c) in cells.iter().enumerate() {
        let mut phi_blocks: Vec<BlockId> = Vec::new();
        let mut work = c.def_blocks.clone();
        while let Some(b) = work.pop() {
            for &fr in df.get(&b).map(Vec::as_slice).unwrap_or(&[]) {
                if placed_for[fr.index()] != n as u32 {
                    placed_for[fr.index()] = n as u32;
                    phi_blocks.push(fr);
                    work.push(fr);
                }
            }
        }
        phi_blocks.sort();
        for b in phi_blocks {
            let empty = InstKind::Phi {
                ty: types[n],
                incoming: vec![],
            };
            let phi = f.insert_inst(b, 0, empty);
            phis_at[b.index()].push((n, phi));
        }
    }
    cell_of.resize(f.inst_slots(), NO_CELL);

    // Renaming: one depth-first walk over the CFG. Every reachable block
    // starts from the values its first-visited predecessor left, which
    // is exact because a block where two different values meet has a phi.
    let f = m.func(fid);
    let mut reaching: Vec<Option<Value>> = vec![None; f.inst_slots()]; // load -> value
    let mut removals: Vec<InstId> = cells.iter().map(|c| c.alloca).collect();
    let mut phi_incomings: Vec<(InstId, BlockId, Value)> = Vec::new();
    let mut visited = vec![false; f.block_slots()];
    // Values at the end of each visited block; slot 0 is "before entry".
    let mut exits: Vec<Vec<Value>> = vec![types.iter().map(|&t| Value::Undef(t)).collect()];
    let mut stack: Vec<(BlockId, usize)> = vec![(f.entry(), 0)];
    while let Some((b, pred_exit)) = stack.pop() {
        if std::mem::replace(&mut visited[b.index()], true) {
            continue;
        }
        let mut cur = exits[pred_exit].clone();
        for &(n, phi) in &phis_at[b.index()] {
            cur[n] = Value::Inst(phi);
        }
        for &i in &f.block(b).insts {
            match f.inst(i) {
                InstKind::Load { ptr, .. } => {
                    if let Some(n) = cell(&cell_of, *ptr) {
                        reaching[i.index()] = Some(cur[n]);
                        removals.push(i);
                    }
                }
                InstKind::Store { ptr, val } => {
                    if let Some(n) = cell(&cell_of, *ptr) {
                        cur[n] = *val;
                        removals.push(i);
                    }
                }
                _ => {}
            }
        }
        let succs = f.block(b).term.successors();
        for (k, &s) in succs.iter().enumerate() {
            // One incoming per (phi, predecessor), even when both arms
            // of a branch lead to `s`.
            if !succs[..k].contains(&s) {
                for &(n, phi) in &phis_at[s.index()] {
                    phi_incomings.push((phi, b, cur[n]));
                }
            }
            if !visited[s.index()] {
                stack.push((s, exits.len()));
            }
        }
        exits.push(cur);
    }
    // Loads and stores in unreachable blocks were never visited; patch
    // them so removing the allocas leaves no dangling uses.
    for b in f.block_ids().filter(|b| !visited[b.index()]) {
        for &i in &f.block(b).insts {
            match f.inst(i) {
                InstKind::Load { ptr, .. } => {
                    if let Some(n) = cell(&cell_of, *ptr) {
                        reaching[i.index()] = Some(Value::Undef(types[n]));
                        removals.push(i);
                    }
                }
                InstKind::Store { ptr, .. } if cell(&cell_of, *ptr).is_some() => removals.push(i),
                _ => {}
            }
        }
    }
    // A reaching value may itself be a promoted load (of this or of
    // another alloca): follow the chain to a value that survives.
    let resolve = |mut v: Value| {
        for _ in 0..removals.len() {
            match v {
                Value::Inst(i) => match reaching[i.index()] {
                    Some(next) if next != v => v = next,
                    _ => break,
                },
                _ => break,
            }
        }
        v
    };
    let resolved: Vec<Option<Value>> = (0..reaching.len())
        .map(|i| reaching[i].map(|_| resolve(Value::Inst(InstId::from_index(i)))))
        .collect();
    let substitute = |v: Value| match v {
        Value::Inst(i) => resolved[i.index()].unwrap_or(v),
        _ => v,
    };
    let f = m.func_mut(fid);
    for (phi, pred, v) in phi_incomings {
        if let InstKind::Phi { incoming, .. } = f.inst_mut(phi) {
            incoming.push((pred, substitute(v)));
        }
    }
    f.map_operands(substitute);
    f.remove_insts(&removals);
    cells.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_ir::{BinOp, Builder, CmpOp, Function};

    #[test]
    fn straight_line_promotion() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::I32], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.alloca(4, 4);
        b.store(Value::Arg(0), p);
        let v = b.load(Type::I32, p);
        let w = b.bin(BinOp::Add, Type::I32, v, Value::i32(1));
        b.store(w, p);
        let x = b.load(Type::I32, p);
        b.ret(Some(x));
        assert_eq!(run(&mut m), 1);
        omp_ir::verifier::assert_valid(&m);
        let fun = m.func(f);
        // No allocas, loads or stores remain.
        let mut bad = 0;
        fun.for_each_inst(|_, _, k| {
            if matches!(
                k,
                InstKind::Alloca { .. } | InstKind::Load { .. } | InstKind::Store { .. }
            ) {
                bad += 1;
            }
        });
        assert_eq!(bad, 0);
    }

    #[test]
    fn diamond_gets_phi() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::I1], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.alloca(4, 4);
        b.store(Value::i32(0), p);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.cond_br(Value::Arg(0), t, e);
        b.switch_to(t);
        b.store(Value::i32(1), p);
        b.br(j);
        b.switch_to(e);
        b.store(Value::i32(2), p);
        b.br(j);
        b.switch_to(j);
        let v = b.load(Type::I32, p);
        b.ret(Some(v));
        assert_eq!(run(&mut m), 1);
        omp_ir::verifier::assert_valid(&m);
        let fun = m.func(f);
        let mut phis = 0;
        fun.for_each_inst(|_, _, k| {
            if matches!(k, InstKind::Phi { .. }) {
                phis += 1;
            }
        });
        assert_eq!(phis, 1);
        // The phi must have both incoming edges.
        fun.for_each_inst(|_, _, k| {
            if let InstKind::Phi { incoming, .. } = k {
                assert_eq!(incoming.len(), 2);
                let vals: Vec<Value> = incoming.iter().map(|(_, v)| *v).collect();
                assert!(vals.contains(&Value::i32(1)));
                assert!(vals.contains(&Value::i32(2)));
            }
        });
    }

    #[test]
    fn loop_promotion_builds_phi_cycle() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::I64], Type::I64));
        let mut b = Builder::at_entry(&mut m, f);
        let entry = b.current_block();
        let acc = b.alloca(8, 8);
        b.store(Value::i64(0), acc);
        let i = b.alloca(8, 8);
        b.store(Value::i64(0), i);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let iv = b.load(Type::I64, i);
        let c = b.cmp(CmpOp::Slt, Type::I64, iv, Value::Arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let av = b.load(Type::I64, acc);
        let a2 = b.bin(BinOp::Add, Type::I64, av, iv);
        b.store(a2, acc);
        let i2 = b.bin(BinOp::Add, Type::I64, iv, Value::i64(1));
        b.store(i2, i);
        b.br(header);
        b.switch_to(exit);
        let out = b.load(Type::I64, acc);
        b.ret(Some(out));
        let _ = entry;
        assert_eq!(run(&mut m), 2);
        omp_ir::verifier::assert_valid(&m);
        let fun = m.func(f);
        let mut loads = 0;
        fun.for_each_inst(|_, _, k| {
            if matches!(k, InstKind::Load { .. }) {
                loads += 1;
            }
        });
        assert_eq!(loads, 0);
    }

    #[test]
    fn escaping_alloca_not_promoted() {
        let mut m = Module::new("t");
        let sink = m.add_function(Function::declaration("sink", vec![Type::Ptr], Type::Void));
        let f = m.add_function(Function::definition("f", vec![], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.alloca(4, 4);
        b.store(Value::i32(1), p);
        b.call(sink, vec![p]);
        let v = b.load(Type::I32, p);
        b.ret(Some(v));
        assert_eq!(run(&mut m), 0);
    }

    #[test]
    fn gep_use_blocks_promotion() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.alloca(16, 8);
        let q = b.gep_const(p, 4);
        b.store(Value::i32(1), q);
        let v = b.load(Type::I32, p);
        b.ret(Some(v));
        assert_eq!(run(&mut m), 0);
    }

    #[test]
    fn mixed_types_block_promotion() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.alloca(8, 8);
        b.store(Value::f64(1.0), p);
        let v = b.load(Type::I32, p); // type pun
        b.ret(Some(v));
        assert_eq!(run(&mut m), 0);
    }

    #[test]
    fn load_before_store_becomes_undef() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.alloca(4, 4);
        let v = b.load(Type::I32, p);
        b.ret(Some(v));
        assert_eq!(run(&mut m), 1);
        omp_ir::verifier::assert_valid(&m);
        let fun = m.func(f);
        match &fun.block(fun.entry()).term {
            omp_ir::Terminator::Ret(Some(Value::Undef(Type::I32))) => {}
            t => panic!("expected ret undef, got {t:?}"),
        }
    }
}
