//! Functions: arenas of instructions arranged into basic blocks.

use crate::inst::{InstKind, Terminator};
use crate::types::Type;
use crate::value::{BlockId, InstId, Value};
use std::collections::HashMap;

/// How a function is visible outside its translation unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Linkage {
    /// Visible to (and callable from) other translation units.
    External,
    /// Only visible within this module.
    Internal,
}

/// Attributes attached to a single formal parameter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParamAttrs {
    /// The pointer argument does not escape through this call
    /// (`__attribute__((noescape))` in the paper's Section IV-D).
    pub noescape: bool,
    /// The callee only reads through this pointer argument.
    pub readonly: bool,
}

/// Function-level attributes. These carry both generic information
/// (purity) and the OpenMP 5.1 assumptions from the paper's Section IV-D.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuncAttrs {
    /// No side effects and no memory reads; result depends on args only.
    pub pure_fn: bool,
    /// Reads memory but does not write it.
    pub readonly: bool,
    /// `#pragma omp assumes ext_spmd_amenable`: safe to execute with all
    /// threads of a team, not only the main thread.
    pub spmd_amenable: bool,
    /// `#pragma omp assumes ext_no_openmp`: contains no OpenMP runtime
    /// calls or parallelism.
    pub no_openmp: bool,
    /// The function never synchronizes (no barriers, no parallel regions).
    pub no_sync: bool,
    /// This function was produced by internalization (it is the
    /// internal copy of an externally visible function).
    pub internalized_copy: bool,
}

/// A basic block: an ordered list of instruction ids plus a terminator.
#[derive(Debug, Clone)]
pub struct BlockData {
    /// Instructions in execution order. Ids index into the function's
    /// instruction arena.
    pub insts: Vec<InstId>,
    /// The block terminator.
    pub term: Terminator,
}

impl Default for BlockData {
    fn default() -> Self {
        BlockData {
            insts: Vec::new(),
            term: Terminator::Unreachable,
        }
    }
}

/// A function: declaration or definition.
///
/// Instructions live in a per-function arena indexed by [`InstId`]; basic
/// blocks hold ordered lists of instruction ids. Deleting an instruction
/// removes it from its block but leaves the arena slot in place (marked
/// dead), so ids stay stable across transformations.
#[derive(Debug, Clone)]
pub struct Function {
    /// Symbol name, unique within the module.
    pub name: String,
    /// Formal parameter types.
    pub params: Vec<Type>,
    /// Per-parameter attributes, same length as `params`.
    pub param_attrs: Vec<ParamAttrs>,
    /// Return type.
    pub ret: Type,
    /// Linkage of the symbol.
    pub linkage: Linkage,
    /// Function attributes (purity, OpenMP assumptions).
    pub attrs: FuncAttrs,
    insts: Vec<Option<InstKind>>,
    blocks: Vec<Option<BlockData>>,
    layout: Vec<BlockId>,
}

impl Function {
    /// Creates a function *declaration* (no body).
    pub fn declaration(name: impl Into<String>, params: Vec<Type>, ret: Type) -> Function {
        let n = params.len();
        Function {
            name: name.into(),
            params,
            param_attrs: vec![ParamAttrs::default(); n],
            ret,
            linkage: Linkage::External,
            attrs: FuncAttrs::default(),
            insts: Vec::new(),
            blocks: Vec::new(),
            layout: Vec::new(),
        }
    }

    /// Creates a function definition with a single empty entry block.
    pub fn definition(name: impl Into<String>, params: Vec<Type>, ret: Type) -> Function {
        let mut f = Function::declaration(name, params, ret);
        f.add_block();
        f
    }

    /// Whether this function has no body.
    pub fn is_declaration(&self) -> bool {
        self.layout.is_empty()
    }

    /// The entry block. Panics on declarations.
    pub fn entry(&self) -> BlockId {
        self.layout[0]
    }

    /// Appends a fresh empty block (terminator `unreachable`).
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId::from_index(self.blocks.len());
        self.blocks.push(Some(BlockData::default()));
        self.layout.push(id);
        id
    }

    /// Removes a block from the layout and frees its arena slot. The
    /// block's instructions are freed too. Callers must have rewired all
    /// branches and phis beforehand.
    pub fn remove_block(&mut self, id: BlockId) {
        if let Some(Some(data)) = self.blocks.get(id.index()) {
            for &i in &data.insts.clone() {
                self.insts[i.index()] = None;
            }
        }
        self.blocks[id.index()] = None;
        self.layout.retain(|&b| b != id);
    }

    /// Blocks in layout order (entry first).
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.layout.iter().copied()
    }

    /// Number of live blocks.
    pub fn num_blocks(&self) -> usize {
        self.layout.len()
    }

    /// Immutable access to a block.
    pub fn block(&self, id: BlockId) -> &BlockData {
        self.blocks[id.index()].as_ref().expect("dead block")
    }

    /// Mutable access to a block.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BlockData {
        self.blocks[id.index()].as_mut().expect("dead block")
    }

    /// Whether the block id refers to a live block.
    pub fn is_live_block(&self, id: BlockId) -> bool {
        self.blocks.get(id.index()).is_some_and(|b| b.is_some())
    }

    /// Allocates an instruction in the arena without placing it in a block.
    pub fn alloc_inst(&mut self, kind: InstKind) -> InstId {
        let id = InstId::from_index(self.insts.len());
        self.insts.push(Some(kind));
        id
    }

    /// Appends an instruction to the end of `block`.
    pub fn append_inst(&mut self, block: BlockId, kind: InstKind) -> InstId {
        let id = self.alloc_inst(kind);
        self.block_mut(block).insts.push(id);
        id
    }

    /// Inserts an instruction at position `pos` within `block`.
    pub fn insert_inst(&mut self, block: BlockId, pos: usize, kind: InstKind) -> InstId {
        let id = self.alloc_inst(kind);
        self.block_mut(block).insts.insert(pos, id);
        id
    }

    /// Immutable access to an instruction.
    pub fn inst(&self, id: InstId) -> &InstKind {
        self.insts[id.index()].as_ref().expect("dead instruction")
    }

    /// Mutable access to an instruction.
    pub fn inst_mut(&mut self, id: InstId) -> &mut InstKind {
        self.insts[id.index()].as_mut().expect("dead instruction")
    }

    /// Whether the instruction id refers to a live instruction.
    pub fn is_live_inst(&self, id: InstId) -> bool {
        self.insts.get(id.index()).is_some_and(|i| i.is_some())
    }

    /// Removes an instruction from its block and frees its arena slot.
    /// Uses of its result become dangling; callers must rewrite them first.
    pub fn remove_inst(&mut self, id: InstId) {
        for &b in &self.layout {
            self.blocks[b.index()]
                .as_mut()
                .expect("dead block")
                .insts
                .retain(|&i| i != id);
        }
        self.insts[id.index()] = None;
    }

    /// Removes a batch of instructions in a single pass over the layout
    /// (one `retain` per block instead of one per instruction). Same
    /// contract as [`Function::remove_inst`]: uses become dangling.
    pub fn remove_insts(&mut self, ids: &[InstId]) {
        match ids {
            [] => {}
            &[id] => self.remove_inst(id),
            ids => {
                let mut dead = vec![false; self.insts.len()];
                for &i in ids {
                    dead[i.index()] = true;
                    self.insts[i.index()] = None;
                }
                for &b in &self.layout {
                    self.blocks[b.index()]
                        .as_mut()
                        .expect("dead block")
                        .insts
                        .retain(|&i| !dead[i.index()]);
                }
            }
        }
    }

    /// Replaces the body of an instruction in place (keeps the id).
    pub fn replace_inst(&mut self, id: InstId, kind: InstKind) {
        self.insts[id.index()] = Some(kind);
    }

    /// Size of the instruction arena: every `InstId::index()` this
    /// function has handed out is below it, so passes can keep side
    /// tables in a `Vec` instead of a hash map.
    pub fn inst_slots(&self) -> usize {
        self.insts.len()
    }

    /// Size of the block arena, the bound on `BlockId::index()`.
    pub fn block_slots(&self) -> usize {
        self.blocks.len()
    }

    /// Total number of live instructions.
    pub fn num_insts(&self) -> usize {
        self.layout.iter().map(|&b| self.block(b).insts.len()).sum()
    }

    /// Iterates `(block, inst)` pairs in layout order.
    pub fn inst_ids(&self) -> impl Iterator<Item = (BlockId, InstId)> + '_ {
        self.layout
            .iter()
            .flat_map(move |&b| self.block(b).insts.iter().map(move |&i| (b, i)))
    }

    /// The block containing `inst`, if it is placed.
    pub fn block_of(&self, inst: InstId) -> Option<BlockId> {
        self.layout
            .iter()
            .copied()
            .find(|&b| self.block(b).insts.contains(&inst))
    }

    /// Result type of `v` in the context of this function.
    pub fn value_type(&self, v: Value) -> Type {
        match v {
            Value::Inst(i) => self.inst(i).result_type(),
            Value::Arg(n) => self.params[n as usize],
            Value::ConstInt(_, ty) | Value::ConstFloat(_, ty) | Value::Undef(ty) => ty,
            Value::Global(_) | Value::Func(_) | Value::Null => Type::Ptr,
        }
    }

    /// Rewrites every operand of every placed instruction and
    /// terminator through `f`, in one traversal.
    pub fn map_operands(&mut self, mut f: impl FnMut(Value) -> Value) {
        // Split field borrows: walk the layout in place, no id-list
        // clones on this (very hot) path.
        for &b in &self.layout {
            let block = self.blocks[b.index()].as_mut().expect("dead block");
            for &i in &block.insts {
                self.insts[i.index()]
                    .as_mut()
                    .expect("dead instruction")
                    .map_operands(&mut f);
            }
            block.term.map_operands(&mut f);
        }
    }

    /// Replaces every use of `from` with `to`, in instructions and
    /// terminators alike.
    pub fn replace_all_uses(&mut self, from: Value, to: Value) {
        self.map_operands(|v| if v == from { to } else { v });
    }

    /// Applies a whole substitution map in a single pass: every operand
    /// present as a key becomes its mapped value. Chained substitutions
    /// must be pre-resolved by the caller (values in the map are
    /// inserted verbatim). One traversal regardless of map size — use
    /// this instead of repeated [`Function::replace_all_uses`] calls.
    pub fn replace_uses_bulk(&mut self, map: &HashMap<Value, Value>) {
        if !map.is_empty() {
            self.map_operands(|v| map.get(&v).copied().unwrap_or(v));
        }
    }

    /// Counts uses of `v` across the function.
    pub fn count_uses(&self, v: Value) -> usize {
        let mut n = 0;
        for b in self.block_ids() {
            for &i in &self.block(b).insts {
                self.inst(i).for_each_operand(|o| {
                    if o == v {
                        n += 1;
                    }
                });
            }
            self.block(b).term.for_each_operand(|o| {
                if o == v {
                    n += 1;
                }
            });
        }
        n
    }

    /// Computes the predecessor map over live blocks.
    pub fn predecessors(&self) -> HashMap<BlockId, Vec<BlockId>> {
        let mut preds: HashMap<BlockId, Vec<BlockId>> =
            self.block_ids().map(|b| (b, Vec::new())).collect();
        for b in self.block_ids() {
            for s in self.block(b).term.successors() {
                preds.entry(s).or_default().push(b);
            }
        }
        preds
    }

    /// Visits every `(block, inst_id, kind)` (immutable).
    pub fn for_each_inst(&self, mut f: impl FnMut(BlockId, InstId, &InstKind)) {
        for b in self.block_ids() {
            for &i in &self.block(b).insts {
                f(b, i, self.inst(i));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::BinOp;

    fn sample() -> Function {
        let mut f = Function::definition("f", vec![Type::I32], Type::I32);
        let e = f.entry();
        let a = f.append_inst(
            e,
            InstKind::Bin {
                op: BinOp::Add,
                ty: Type::I32,
                lhs: Value::Arg(0),
                rhs: Value::i32(1),
            },
        );
        f.block_mut(e).term = Terminator::Ret(Some(Value::Inst(a)));
        f
    }

    #[test]
    fn declaration_vs_definition() {
        let d = Function::declaration("d", vec![], Type::Void);
        assert!(d.is_declaration());
        let f = sample();
        assert!(!f.is_declaration());
        assert_eq!(f.num_blocks(), 1);
        assert_eq!(f.num_insts(), 1);
    }

    #[test]
    fn value_types() {
        let f = sample();
        assert_eq!(f.value_type(Value::Arg(0)), Type::I32);
        assert_eq!(f.value_type(Value::i64(3)), Type::I64);
        assert_eq!(f.value_type(Value::Null), Type::Ptr);
        let (_, i) = f.inst_ids().next().unwrap();
        assert_eq!(f.value_type(Value::Inst(i)), Type::I32);
    }

    #[test]
    fn replace_all_uses_rewrites_terminator_and_insts() {
        let mut f = sample();
        f.replace_all_uses(Value::Arg(0), Value::i32(5));
        let (_, i) = f.inst_ids().next().unwrap();
        match f.inst(i) {
            InstKind::Bin { lhs, .. } => assert_eq!(*lhs, Value::i32(5)),
            _ => panic!(),
        }
        assert_eq!(f.count_uses(Value::Arg(0)), 0);
        // Now replace the inst result used by ret.
        f.replace_all_uses(Value::Inst(i), Value::i32(7));
        match &f.block(f.entry()).term {
            Terminator::Ret(Some(v)) => assert_eq!(*v, Value::i32(7)),
            _ => panic!(),
        }
    }

    #[test]
    fn remove_inst_and_block() {
        let mut f = sample();
        let e = f.entry();
        let b2 = f.add_block();
        let dead = f.append_inst(
            b2,
            InstKind::Bin {
                op: BinOp::Mul,
                ty: Type::I32,
                lhs: Value::i32(2),
                rhs: Value::i32(3),
            },
        );
        assert!(f.is_live_inst(dead));
        f.remove_inst(dead);
        assert!(!f.is_live_inst(dead));
        assert!(f.is_live_block(b2));
        f.remove_block(b2);
        assert!(!f.is_live_block(b2));
        assert_eq!(f.num_blocks(), 1);
        assert_eq!(f.entry(), e);
    }

    #[test]
    fn predecessors() {
        let mut f = Function::definition("g", vec![], Type::Void);
        let e = f.entry();
        let a = f.add_block();
        let b = f.add_block();
        f.block_mut(e).term = Terminator::CondBr {
            cond: Value::bool(true),
            then_bb: a,
            else_bb: b,
        };
        f.block_mut(a).term = Terminator::Br(b);
        f.block_mut(b).term = Terminator::Ret(None);
        let preds = f.predecessors();
        assert_eq!(preds[&e], vec![]);
        assert_eq!(preds[&a], vec![e]);
        let mut pb = preds[&b].clone();
        pb.sort();
        assert_eq!(pb, vec![e, a]);
    }

    #[test]
    fn insert_inst_positions() {
        let mut f = sample();
        let e = f.entry();
        let first = f.insert_inst(
            e,
            0,
            InstKind::Bin {
                op: BinOp::Sub,
                ty: Type::I32,
                lhs: Value::i32(0),
                rhs: Value::i32(0),
            },
        );
        assert_eq!(f.block(e).insts[0], first);
        assert_eq!(f.num_insts(), 2);
    }

    #[test]
    fn block_of_finds_container() {
        let f = sample();
        let (b, i) = f.inst_ids().next().unwrap();
        assert_eq!(f.block_of(i), Some(b));
    }
}
