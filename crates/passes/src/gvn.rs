//! Global value numbering / common-subexpression elimination.
//!
//! A single reverse-postorder walk per function. Pure expressions
//! (arithmetic, comparisons, casts, pointer arithmetic, selects) are
//! keyed by a canonicalized shape — commutative operands sorted,
//! comparisons flipped to a canonical operand order — and a dominated
//! duplicate is replaced by the earlier computation. Replacements reuse
//! the identical value, so program results stay bit-identical; only the
//! instruction count (and therefore simulated cycles) drops.
//!
//! Memory redundancy is removed in three layers, all of which reuse the
//! identical stored value (never recompute), keeping results
//! bit-identical:
//!
//! 1. **block-local forwarding** — a per-block table maps pointers to
//!    their last known value; stores clobber may-aliasing entries,
//!    calls clobber everything except provably non-escaping allocas
//!    (thread-private in the simulator's memory model, so not even
//!    synchronizing runtime calls can observe them);
//! 2. **dominating-store forwarding** — a load from a non-escaping
//!    alloca whose overlapping stores all sit in one block that strictly
//!    dominates the load takes the last such store's value (sound even
//!    in loops: because the store block dominates the load, the most
//!    recent dynamic write is always that store's most recent instance,
//!    which is exactly what its SSA operand evaluates to at the load);
//! 3. **dead-store elimination** — once a non-escaping alloca has no
//!    loads left, its stores are unobservable and are deleted (the
//!    cleanup pipeline then drops the dead address arithmetic and the
//!    alloca itself).
//!
//! The alias check is offset-precise within an object: two accesses to
//! the same root with statically known, disjoint byte ranges (e.g. two
//! fields of one argument-struct alloca) do not alias.

use crate::cache::AnalysisCache;
use omp_ir::scalar::gep_offset;
use omp_ir::{
    BinOp, BlockId, CastOp, CmpOp, FuncId, Function, InstId, InstKind, Module, Type, Value,
};
use std::collections::{HashMap, HashSet};

/// Per-function elimination counts, for remarks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GvnStats {
    /// Function name.
    pub function: String,
    /// Pure expressions replaced by a dominating duplicate.
    pub eliminated: usize,
    /// Loads forwarded from an earlier store or load.
    pub loads_forwarded: usize,
    /// Stores to private allocas with no remaining loads, deleted.
    pub dead_stores: usize,
}

/// Canonicalized shape of a pure expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Expr {
    Bin(BinOp, Type, Value, Value),
    Cmp(CmpOp, Type, Value, Value),
    Cast(CastOp, Value, Type),
    Gep(Value, Value, u64, i64),
    Select(Value, Type, Value, Value),
}

/// Total order on values for commutative canonicalization (`Value`
/// itself is deliberately unordered).
fn value_key(v: Value) -> (u8, u64, u64) {
    match v {
        Value::Inst(i) => (0, u64::from(i.0), 0),
        Value::Arg(n) => (1, u64::from(n), 0),
        Value::ConstInt(x, ty) => (2, x as u64, ty as u64),
        Value::ConstFloat(bits, ty) => (3, bits, ty as u64),
        Value::Global(g) => (4, u64::from(g.0), 0),
        Value::Func(f) => (5, u64::from(f.0), 0),
        Value::Null => (6, 0, 0),
        Value::Undef(ty) => (7, ty as u64, 0),
    }
}

fn expr_of(kind: &InstKind) -> Option<Expr> {
    Some(match *kind {
        InstKind::Bin { op, ty, lhs, rhs } => {
            let (lhs, rhs) = if op.is_commutative() && value_key(rhs) < value_key(lhs) {
                (rhs, lhs)
            } else {
                (lhs, rhs)
            };
            Expr::Bin(op, ty, lhs, rhs)
        }
        InstKind::Cmp { op, ty, lhs, rhs } => {
            if value_key(rhs) < value_key(lhs) {
                Expr::Cmp(op.swapped(), ty, rhs, lhs)
            } else {
                Expr::Cmp(op, ty, lhs, rhs)
            }
        }
        InstKind::Cast { op, val, to } => Expr::Cast(op, val, to),
        InstKind::Gep {
            base,
            index,
            scale,
            offset,
        } => Expr::Gep(base, index, scale, offset),
        InstKind::Select {
            cond,
            ty,
            on_true,
            on_false,
        } => Expr::Select(cond, ty, on_true, on_false),
        _ => return None,
    })
}

/// Chases `v` through pointer arithmetic to its base object.
pub(crate) fn pointer_root(f: &Function, mut v: Value) -> Value {
    loop {
        match v {
            Value::Inst(i) => match f.inst(i) {
                InstKind::Gep { base, .. } => v = *base,
                _ => return v,
            },
            other => return other,
        }
    }
}

/// Byte width of a loaded or stored value of type `ty`.
pub(crate) fn type_size(ty: Type) -> i64 {
    match ty {
        Type::Void => 0,
        Type::I1 => 1,
        Type::I32 | Type::F32 => 4,
        Type::I64 | Type::F64 | Type::Ptr => 8,
    }
}

/// Byte offset of `v` from its pointer root, when every gep on the
/// chain has a constant index.
pub(crate) fn const_offset(f: &Function, mut v: Value) -> Option<i64> {
    let mut off = 0i64;
    loop {
        match v {
            Value::Inst(i) => match f.inst(i) {
                InstKind::Gep {
                    base,
                    index,
                    scale,
                    offset,
                } => match index {
                    Value::ConstInt(c, _) => {
                        off = off.wrapping_add(gep_offset(*c, *scale, *offset));
                        v = *base;
                    }
                    _ => return None,
                },
                _ => return Some(off),
            },
            _ => return Some(off),
        }
    }
}

/// Allocas whose address can leave the function's private view: stored
/// as data, passed to a call, cast, merged through a select/phi, or
/// returned. Anything else (load/store address, gep base, compare
/// operand) keeps the alloca provably private.
pub(crate) fn escaped_allocas(f: &Function) -> HashSet<InstId> {
    let mut allocas: HashSet<InstId> = HashSet::new();
    f.for_each_inst(|_, i, k| {
        if matches!(k, InstKind::Alloca { .. }) {
            allocas.insert(i);
        }
    });
    let mut escaped: HashSet<InstId> = HashSet::new();
    let mark = |escaped: &mut HashSet<InstId>, v: Value| {
        if let Value::Inst(root) = pointer_root(f, v) {
            if allocas.contains(&root) {
                escaped.insert(root);
            }
        }
    };
    f.for_each_inst(|_, _, k| match k {
        InstKind::Load { .. } | InstKind::Alloca { .. } => {}
        InstKind::Store { val, .. } => mark(&mut escaped, *val),
        InstKind::Gep { index, .. } => mark(&mut escaped, *index),
        InstKind::Bin { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => {
            // Comparing or folding a pointer into integers does not let
            // memory escape in this IR (no inttoptr round-trip without a
            // cast, which is marked below), but stay conservative for
            // arithmetic: the result may be cast back to a pointer.
            mark(&mut escaped, *lhs);
            mark(&mut escaped, *rhs);
        }
        InstKind::Cast { val, .. } => mark(&mut escaped, *val),
        InstKind::Call { args, .. } => {
            for a in args {
                mark(&mut escaped, *a);
            }
        }
        InstKind::Select {
            on_true, on_false, ..
        } => {
            mark(&mut escaped, *on_true);
            mark(&mut escaped, *on_false);
        }
        InstKind::Phi { incoming, .. } => {
            for (_, v) in incoming {
                mark(&mut escaped, *v);
            }
        }
    });
    for b in f.block_ids() {
        f.block(b).term.for_each_operand(|v| mark(&mut escaped, v));
    }
    escaped
}

/// Whether an access of `p_size` bytes at `p` may overlap an access of
/// `q_size` bytes at `q`.
pub(crate) fn may_alias(
    f: &Function,
    escaped: &HashSet<InstId>,
    p: Value,
    p_size: i64,
    q: Value,
    q_size: i64,
) -> bool {
    let rp = pointer_root(f, p);
    let rq = pointer_root(f, q);
    if rp == rq {
        // Same object: statically disjoint byte ranges cannot overlap
        // (e.g. two distinct fields of one argument-struct alloca).
        if let (Some(po), Some(qo)) = (const_offset(f, p), const_offset(f, q)) {
            return po < qo.saturating_add(q_size) && qo < po.saturating_add(p_size);
        }
        return true;
    }
    let p_alloca = matches!(rp, Value::Inst(i) if matches!(f.inst(i), InstKind::Alloca { .. }));
    let q_alloca = matches!(rq, Value::Inst(i) if matches!(f.inst(i), InstKind::Alloca { .. }));
    if p_alloca && q_alloca {
        return false; // distinct allocas
    }
    // A non-escaping alloca cannot be reached through any other root.
    for (is_alloca, root) in [(p_alloca, rp), (q_alloca, rq)] {
        if is_alloca {
            if let Value::Inst(i) = root {
                if !escaped.contains(&i) {
                    return false;
                }
            }
        }
    }
    true
}

/// Functions whose calls leave memory untouched for the purposes of
/// load forwarding: pure/readonly (math intrinsics carry `pure_fn`)
/// and runtime context queries.
fn memory_preserving_fns(m: &Module) -> HashSet<FuncId> {
    m.func_ids()
        .filter(|&g| {
            let f = m.func(g);
            f.attrs.pure_fn
                || f.attrs.readonly
                || omp_ir::RtlFn::from_name(&f.name).is_some_and(|r| r.is_context_query())
        })
        .collect()
}

/// Runs GVN/CSE over every function definition. Returns per-function
/// stats (functions with no eliminations are omitted).
pub fn run(m: &mut Module, cache: &mut AnalysisCache) -> Vec<GvnStats> {
    let mut out = Vec::new();
    let preserving = memory_preserving_fns(m);
    for fid in m.func_ids().collect::<Vec<_>>() {
        if m.func(fid).is_declaration() {
            continue;
        }
        let stats = run_function(m, cache, &preserving, fid);
        if stats.eliminated + stats.loads_forwarded + stats.dead_stores > 0 {
            cache.invalidate_function(fid);
            out.push(stats);
        }
    }
    out
}

fn run_function(
    m: &mut Module,
    cache: &mut AnalysisCache,
    preserving: &HashSet<FuncId>,
    fid: FuncId,
) -> GvnStats {
    // Owned, because the function is rewritten under it; the rewrites
    // keep the CFG, so the tree stays exact throughout.
    let dom = cache.dom(m, fid).clone();
    let escaped = escaped_allocas(m.func(fid));
    let f = m.func_mut(fid);

    let mut exprs: HashMap<Expr, Vec<(BlockId, Value)>> = HashMap::new();
    let mut eliminated = 0usize;
    let mut loads_forwarded = 0usize;
    let mut dead: Vec<InstId> = Vec::new();

    for &b in &dom.rpo {
        // Block-local memory state: last known value at each pointer.
        let mut mem: HashMap<Value, Value> = HashMap::new();
        let insts = f.block(b).insts.clone();
        for i in insts {
            let kind = f.inst(i).clone();
            match &kind {
                InstKind::Store { ptr, val } => {
                    let (ptr, val) = (*ptr, *val);
                    let size = type_size(f.value_type(val));
                    mem.retain(|&p, &mut v| {
                        !may_alias(f, &escaped, p, type_size(f.value_type(v)), ptr, size)
                    });
                    mem.insert(ptr, val);
                    continue;
                }
                InstKind::Load { ptr, ty } => {
                    let (ptr, ty) = (*ptr, *ty);
                    if let Some(&v) = mem.get(&ptr) {
                        if f.value_type(v) == ty {
                            f.replace_all_uses(Value::Inst(i), v);
                            dead.push(i);
                            loads_forwarded += 1;
                            continue;
                        }
                    }
                    mem.insert(ptr, Value::Inst(i));
                    continue;
                }
                InstKind::Call { callee, .. } => {
                    let preserves = matches!(callee, Value::Func(g) if preserving.contains(g));
                    if !preserves {
                        // Only non-escaping allocas survive: the callee
                        // never saw their address, and they are
                        // thread-private in the simulator, so not even a
                        // barrier lets another thread write them.
                        mem.retain(|&p, _| {
                            matches!(pointer_root(f, p), Value::Inst(r)
                                if matches!(f.inst(r), InstKind::Alloca { .. })
                                    && !escaped.contains(&r))
                        });
                    }
                    continue;
                }
                _ => {}
            }
            let Some(expr) = expr_of(&kind) else {
                continue;
            };
            let entry = exprs.entry(expr).or_default();
            if let Some(&(_, v)) = entry.iter().find(|(db, _)| dom.dominates(*db, b)) {
                f.replace_all_uses(Value::Inst(i), v);
                dead.push(i);
                eliminated += 1;
            } else {
                entry.push((b, Value::Inst(i)));
            }
        }
    }
    f.remove_insts(&dead);
    loads_forwarded += forward_dominating_stores(f, &dom, &escaped);
    let dead_stores = eliminate_dead_private_stores(f, &escaped);
    GvnStats {
        function: m.func(fid).name.clone(),
        eliminated,
        loads_forwarded,
        dead_stores,
    }
}

/// One store (or load) of a private alloca, with its position and
/// statically known byte range.
struct PrivateAccess {
    inst: InstId,
    block: BlockId,
    pos: usize,
    offset: Option<i64>,
    size: i64,
    /// Stored value (stores) or loaded type carrier (loads).
    val: Value,
}

/// Stores grouped by their non-escaping alloca root, plus each load as
/// a `(root, access)` pair — both in layout order.
type PrivateAccessMap = (
    HashMap<InstId, Vec<PrivateAccess>>,
    Vec<(InstId, PrivateAccess)>,
);

/// Collects loads and stores rooted at non-escaping allocas, in layout
/// order.
fn private_accesses(f: &Function, escaped: &HashSet<InstId>) -> PrivateAccessMap {
    let mut stores: HashMap<InstId, Vec<PrivateAccess>> = HashMap::new();
    let mut loads: Vec<(InstId, PrivateAccess)> = Vec::new();
    for b in f.block_ids() {
        for (pos, &i) in f.block(b).insts.iter().enumerate() {
            let (ptr, size, val) = match *f.inst(i) {
                InstKind::Store { ptr, val } => (ptr, type_size(f.value_type(val)), val),
                InstKind::Load { ptr, ty } => (ptr, type_size(ty), Value::Inst(i)),
                _ => continue,
            };
            let Value::Inst(root) = pointer_root(f, ptr) else {
                continue;
            };
            if !matches!(f.inst(root), InstKind::Alloca { .. }) || escaped.contains(&root) {
                continue;
            }
            let access = PrivateAccess {
                inst: i,
                block: b,
                pos,
                offset: const_offset(f, ptr),
                size,
                val,
            };
            match f.inst(i) {
                InstKind::Store { .. } => stores.entry(root).or_default().push(access),
                _ => loads.push((root, access)),
            }
        }
    }
    (stores, loads)
}

/// Cross-block store-to-load forwarding for non-escaping allocas: when
/// every store overlapping a load's byte range sits in one block that
/// strictly dominates the load, and each writes exactly the load's
/// range with the load's type, the last of those stores supplies the
/// loaded value. Dominance makes this loop-safe: the most recent
/// dynamic write before the load is always the most recent instance of
/// that store, which is what its SSA operand evaluates to at the load.
fn forward_dominating_stores(
    f: &mut Function,
    dom: &omp_ir::DomTree,
    escaped: &HashSet<InstId>,
) -> usize {
    let (stores, loads) = private_accesses(f, escaped);
    let mut forwarded = 0usize;
    let mut dead: Vec<InstId> = Vec::new();
    for (root, load) in loads {
        let Some(lo) = load.offset else { continue };
        let ty = f.value_type(load.val);
        let overlapping: Vec<&PrivateAccess> = stores
            .get(&root)
            .map(|ss| {
                ss.iter()
                    .filter(|s| match s.offset {
                        Some(so) => so < lo + load.size && lo < so + s.size,
                        None => true, // unknown offset: assume overlap
                    })
                    .collect()
            })
            .unwrap_or_default();
        let Some(first) = overlapping.first() else {
            continue;
        };
        let b = first.block;
        if b == load.block || !dom.dominates(b, load.block) {
            continue;
        }
        let exact = overlapping.iter().all(|s| {
            s.block == b && s.offset == Some(lo) && s.size == load.size && f.value_type(s.val) == ty
        });
        if !exact {
            continue;
        }
        let last = overlapping.iter().max_by_key(|s| s.pos).unwrap();
        f.replace_all_uses(Value::Inst(load.inst), last.val);
        dead.push(load.inst);
        forwarded += 1;
    }
    f.remove_insts(&dead);
    forwarded
}

/// Deletes stores to non-escaping allocas that have no loads left: the
/// values can never be observed (no other pointer can reach the alloca,
/// calls never saw its address, and local memory is thread-private).
fn eliminate_dead_private_stores(f: &mut Function, escaped: &HashSet<InstId>) -> usize {
    let (stores, loads) = private_accesses(f, escaped);
    let loaded: HashSet<InstId> = loads.iter().map(|(r, _)| *r).collect();
    let mut dead: Vec<InstId> = Vec::new();
    for (root, ss) in &stores {
        if !loaded.contains(root) {
            dead.extend(ss.iter().map(|s| s.inst));
        }
    }
    dead.sort();
    let n = dead.len();
    f.remove_insts(&dead);
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_ir::{Builder, CmpOp, Function};

    #[test]
    fn eliminates_dominated_duplicates() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition(
            "f",
            vec![Type::I64, Type::I64],
            Type::I64,
        ));
        let mut b = Builder::at_entry(&mut m, f);
        let a1 = b.bin(BinOp::Add, Type::I64, Value::Arg(0), Value::Arg(1));
        // Commutated duplicate.
        let a2 = b.bin(BinOp::Add, Type::I64, Value::Arg(1), Value::Arg(0));
        let s = b.bin(BinOp::Mul, Type::I64, a1, a2);
        b.ret(Some(s));
        let mut cache = AnalysisCache::new();
        let stats = run(&mut m, &mut cache);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].eliminated, 1);
        assert_eq!(m.func(f).num_insts(), 2);
        omp_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn respects_dominance_across_branches() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition(
            "f",
            vec![Type::I1, Type::I64],
            Type::I64,
        ));
        let mut b = Builder::at_entry(&mut m, f);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.cond_br(Value::Arg(0), t, e);
        b.switch_to(t);
        let x = b.bin(BinOp::Mul, Type::I64, Value::Arg(1), Value::i64(3));
        b.br(j);
        b.switch_to(e);
        let y = b.bin(BinOp::Mul, Type::I64, Value::Arg(1), Value::i64(3));
        b.br(j);
        b.switch_to(j);
        let p = b.phi(Type::I64);
        b.add_phi_incoming(p, t, x);
        b.add_phi_incoming(p, e, y);
        b.ret(Some(p));
        let mut cache = AnalysisCache::new();
        let stats = run(&mut m, &mut cache);
        // Neither sibling branch dominates the other: nothing eliminated.
        assert!(stats.is_empty());
        assert_eq!(m.func(f).num_insts(), 3);
        omp_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn forwards_store_to_load_in_block() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::I64], Type::I64));
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.alloca(8, 8);
        b.store(Value::Arg(0), p);
        let v = b.load(Type::I64, p);
        let v2 = b.load(Type::I64, p);
        let s = b.bin(BinOp::Add, Type::I64, v, v2);
        b.ret(Some(s));
        let mut cache = AnalysisCache::new();
        let stats = run(&mut m, &mut cache);
        assert_eq!(stats[0].loads_forwarded, 2);
        // With no loads left the store is dead too: alloca + add remain.
        assert_eq!(stats[0].dead_stores, 1);
        assert_eq!(m.func(f).num_insts(), 2);
        omp_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn aliasing_store_blocks_forwarding() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition(
            "f",
            vec![Type::Ptr, Type::Ptr],
            Type::I64,
        ));
        let mut b = Builder::at_entry(&mut m, f);
        let v = b.load(Type::I64, Value::Arg(0));
        b.store(Value::i64(0), Value::Arg(1));
        let v2 = b.load(Type::I64, Value::Arg(0));
        let s = b.bin(BinOp::Add, Type::I64, v, v2);
        b.ret(Some(s));
        let mut cache = AnalysisCache::new();
        let stats = run(&mut m, &mut cache);
        // arg0 and arg1 may alias: the second load must stay.
        assert!(stats.is_empty());
        assert_eq!(m.func(f).num_insts(), 4);
        omp_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn distinct_allocas_do_not_alias() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::I64], Type::I64));
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.alloca(8, 8);
        let q = b.alloca(8, 8);
        b.store(Value::Arg(0), p);
        b.store(Value::i64(7), q);
        let v = b.load(Type::I64, p);
        b.ret(Some(v));
        let mut cache = AnalysisCache::new();
        let stats = run(&mut m, &mut cache);
        assert_eq!(stats[0].loads_forwarded, 1);
        omp_ir::verifier::assert_valid(&m);
    }

    /// The argument-struct pattern SPMD inlining produces: N fields
    /// stored into one alloca, then all N reloaded. Offset-precise
    /// aliasing must forward every field, after which the stores die.
    #[test]
    fn struct_fields_forward_past_each_other() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition(
            "f",
            vec![Type::I64, Type::I64, Type::I64],
            Type::I64,
        ));
        let mut b = Builder::at_entry(&mut m, f);
        let s = b.alloca(24, 8);
        b.store(Value::Arg(0), s);
        let f1 = b.gep(s, Value::i64(1), 8, 0);
        b.store(Value::Arg(1), f1);
        let f2 = b.gep(s, Value::i64(2), 8, 0);
        b.store(Value::Arg(2), f2);
        let v0 = b.load(Type::I64, s);
        let v1 = b.load(Type::I64, f1);
        let v2 = b.load(Type::I64, f2);
        let t0 = b.bin(BinOp::Add, Type::I64, v0, v1);
        let t1 = b.bin(BinOp::Add, Type::I64, t0, v2);
        b.ret(Some(t1));
        let mut cache = AnalysisCache::new();
        let stats = run(&mut m, &mut cache);
        assert_eq!(stats[0].loads_forwarded, 3);
        assert_eq!(stats[0].dead_stores, 3);
        omp_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn dominating_store_forwards_into_a_loop() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition(
            "f",
            vec![Type::F64, Type::I64],
            Type::F64,
        ));
        let mut b = Builder::at_entry(&mut m, f);
        let entry = b.current_block();
        let p = b.alloca(8, 8);
        b.store(Value::f64(0.0), p);
        b.store(Value::Arg(0), p);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let iv = b.phi(Type::I64);
        let acc = b.phi(Type::F64);
        let c = b.cmp(CmpOp::Slt, Type::I64, iv, Value::Arg(1));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        // Reload of the (loop-invariant) alloca inside the loop: the
        // stores both live in the entry block, which dominates the
        // load, so the last one forwards.
        let v = b.load(Type::F64, p);
        let acc2 = b.bin(BinOp::FAdd, Type::F64, acc, v);
        let iv2 = b.bin(BinOp::Add, Type::I64, iv, Value::i64(1));
        b.br(header);
        b.add_phi_incoming(iv, entry, Value::i64(0));
        b.add_phi_incoming(iv, body, iv2);
        b.add_phi_incoming(acc, entry, Value::f64(0.0));
        b.add_phi_incoming(acc, body, acc2);
        b.switch_to(exit);
        b.ret(Some(acc));
        let mut cache = AnalysisCache::new();
        let stats = run(&mut m, &mut cache);
        assert_eq!(stats[0].loads_forwarded, 1);
        // Both stores die once the only load is gone.
        assert_eq!(stats[0].dead_stores, 2);
        omp_ir::verifier::assert_valid(&m);
        // The loaded value was replaced by Arg(0), not the 0.0 init.
        let fun = m.func(f);
        let mut saw = false;
        fun.for_each_inst(|_, _, k| {
            if let InstKind::Bin {
                op: BinOp::FAdd,
                rhs,
                ..
            } = k
            {
                assert_eq!(*rhs, Value::Arg(0));
                saw = true;
            }
        });
        assert!(saw);
    }

    #[test]
    fn escaping_alloca_blocks_cross_block_forwarding() {
        let mut m = Module::new("t");
        let callee = m.add_function(Function::declaration("opaque", vec![Type::Ptr], Type::Void));
        let f = m.add_function(Function::definition("f", vec![Type::I64], Type::I64));
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.alloca(8, 8);
        b.store(Value::Arg(0), p);
        b.call(callee, vec![p]);
        let next = b.new_block();
        b.br(next);
        b.switch_to(next);
        let v = b.load(Type::I64, p);
        b.ret(Some(v));
        let mut cache = AnalysisCache::new();
        let stats = run(&mut m, &mut cache);
        // The callee saw the address: the load and store must survive.
        assert!(stats.is_empty());
        omp_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn canonicalizes_swapped_compares() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition(
            "f",
            vec![Type::I64, Type::I64],
            Type::I1,
        ));
        let mut b = Builder::at_entry(&mut m, f);
        let c1 = b.cmp(CmpOp::Slt, Type::I64, Value::Arg(0), Value::Arg(1));
        let c2 = b.cmp(CmpOp::Sgt, Type::I64, Value::Arg(1), Value::Arg(0));
        let o = b.bin(BinOp::And, Type::I1, c1, c2);
        b.ret(Some(o));
        let mut cache = AnalysisCache::new();
        let stats = run(&mut m, &mut cache);
        assert_eq!(stats[0].eliminated, 1);
        omp_ir::verifier::assert_valid(&m);
    }
}
