//! Ergonomic construction of function bodies.

use crate::inst::{BinOp, CastOp, CmpOp, InstKind, Terminator};
use crate::module::Module;
use crate::omprtl::RtlFn;
use crate::types::Type;
use crate::value::{BlockId, FuncId, InstId, Value};

/// A cursor-style builder appending instructions to a function inside a
/// module. Borrows the module mutably for its lifetime.
pub struct Builder<'m> {
    module: &'m mut Module,
    func: FuncId,
    block: BlockId,
}

impl<'m> Builder<'m> {
    /// Positions a new builder at the end of `func`'s entry block.
    pub fn at_entry(module: &'m mut Module, func: FuncId) -> Builder<'m> {
        let block = module.func(func).entry();
        Builder {
            module,
            func,
            block,
        }
    }

    /// Positions a new builder at the end of `block`.
    pub fn at(module: &'m mut Module, func: FuncId, block: BlockId) -> Builder<'m> {
        Builder {
            module,
            func,
            block,
        }
    }

    /// The current insertion block.
    pub fn current_block(&self) -> BlockId {
        self.block
    }

    /// Moves the insertion point to the end of `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        self.block = block;
    }

    /// Creates a new block (does not move the insertion point).
    pub fn new_block(&mut self) -> BlockId {
        self.module.func_mut(self.func).add_block()
    }

    /// Access to the underlying module.
    pub fn module(&mut self) -> &mut Module {
        self.module
    }

    fn push(&mut self, kind: InstKind) -> InstId {
        self.module
            .func_mut(self.func)
            .append_inst(self.block, kind)
    }

    fn pushv(&mut self, kind: InstKind) -> Value {
        Value::Inst(self.push(kind))
    }

    /// `alloca size` (thread-local stack memory).
    pub fn alloca(&mut self, size: u64, align: u64) -> Value {
        self.pushv(InstKind::Alloca { size, align })
    }

    /// `load ty, ptr`.
    pub fn load(&mut self, ty: Type, ptr: Value) -> Value {
        self.pushv(InstKind::Load { ptr, ty })
    }

    /// `store val, ptr`.
    pub fn store(&mut self, val: Value, ptr: Value) {
        self.push(InstKind::Store { ptr, val });
    }

    /// Binary operation.
    pub fn bin(&mut self, op: BinOp, ty: Type, lhs: Value, rhs: Value) -> Value {
        self.pushv(InstKind::Bin { op, ty, lhs, rhs })
    }

    /// Comparison producing an `i1`.
    pub fn cmp(&mut self, op: CmpOp, ty: Type, lhs: Value, rhs: Value) -> Value {
        self.pushv(InstKind::Cmp { op, ty, lhs, rhs })
    }

    /// Conversion.
    pub fn cast(&mut self, op: CastOp, val: Value, to: Type) -> Value {
        self.pushv(InstKind::Cast { op, val, to })
    }

    /// `base + index * scale + offset` (byte addressing).
    pub fn gep(&mut self, base: Value, index: Value, scale: u64, offset: i64) -> Value {
        self.pushv(InstKind::Gep {
            base,
            index,
            scale,
            offset,
        })
    }

    /// Pointer displacement by a constant number of bytes.
    pub fn gep_const(&mut self, base: Value, offset: i64) -> Value {
        self.gep(base, Value::i64(0), 1, offset)
    }

    /// `base + index * 8` — the common 8-byte-element indexing shape.
    pub fn gep_elem8(&mut self, base: Value, index: Value) -> Value {
        self.gep(base, index, 8, 0)
    }

    /// Direct call to `callee`.
    pub fn call(&mut self, callee: FuncId, args: Vec<Value>) -> Value {
        let ret = self.module.func(callee).ret;
        self.pushv(InstKind::Call {
            callee: Value::Func(callee),
            args,
            ret,
        })
    }

    /// Indirect call through a pointer value.
    pub fn call_indirect(&mut self, callee: Value, args: Vec<Value>, ret: Type) -> Value {
        self.pushv(InstKind::Call { callee, args, ret })
    }

    /// Call to a device runtime function, declaring it on first use.
    pub fn call_rtl(&mut self, f: RtlFn, args: Vec<Value>) -> Value {
        let (params, ret) = f.signature();
        let id = self.module.get_or_declare(f.name(), params, ret);
        self.call(id, args)
    }

    /// `cond ? a : b`.
    pub fn select(&mut self, cond: Value, ty: Type, a: Value, b: Value) -> Value {
        self.pushv(InstKind::Select {
            cond,
            ty,
            on_true: a,
            on_false: b,
        })
    }

    /// Empty phi node; incoming edges are filled in later via
    /// [`Builder::add_phi_incoming`].
    pub fn phi(&mut self, ty: Type) -> Value {
        self.pushv(InstKind::Phi {
            ty,
            incoming: vec![],
        })
    }

    /// Adds an incoming edge to a phi created by [`Builder::phi`].
    pub fn add_phi_incoming(&mut self, phi: Value, pred: BlockId, val: Value) {
        let Value::Inst(id) = phi else {
            panic!("add_phi_incoming on non-instruction")
        };
        match self.module.func_mut(self.func).inst_mut(id) {
            InstKind::Phi { incoming, .. } => incoming.push((pred, val)),
            _ => panic!("add_phi_incoming on non-phi"),
        }
    }

    /// Sets the current block's terminator to an unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.module.func_mut(self.func).block_mut(self.block).term = Terminator::Br(target);
    }

    /// Sets the current block's terminator to a conditional branch.
    pub fn cond_br(&mut self, cond: Value, then_bb: BlockId, else_bb: BlockId) {
        self.module.func_mut(self.func).block_mut(self.block).term = Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        };
    }

    /// Sets the current block's terminator to a return.
    pub fn ret(&mut self, val: Option<Value>) {
        self.module.func_mut(self.func).block_mut(self.block).term = Terminator::Ret(val);
    }

    /// Sets the current block's terminator to `unreachable`.
    pub fn unreachable(&mut self) {
        self.module.func_mut(self.func).block_mut(self.block).term = Terminator::Unreachable;
    }

    /// Integer add convenience (`i64`).
    pub fn add_i64(&mut self, a: Value, b: Value) -> Value {
        self.bin(BinOp::Add, Type::I64, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Function;

    #[test]
    fn build_simple_loop() {
        // fn sum(n: i64) -> i64 { s = 0; for i in 0..n { s += i }; s }
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("sum", vec![Type::I64], Type::I64));
        let mut b = Builder::at_entry(&mut m, f);
        let entry = b.current_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);

        b.switch_to(header);
        let i = b.phi(Type::I64);
        let s = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::i64(0));
        b.add_phi_incoming(s, entry, Value::i64(0));
        let c = b.cmp(CmpOp::Slt, Type::I64, i, Value::Arg(0));
        b.cond_br(c, body, exit);

        b.switch_to(body);
        let s2 = b.add_i64(s, i);
        let i2 = b.add_i64(i, Value::i64(1));
        b.add_phi_incoming(i, body, i2);
        b.add_phi_incoming(s, body, s2);
        b.br(header);

        b.switch_to(exit);
        b.ret(Some(s));

        assert_eq!(m.func(f).num_blocks(), 4);
        assert_eq!(m.func(f).num_insts(), 5);
    }

    #[test]
    fn call_rtl_declares_once() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("k", vec![], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        b.call_rtl(RtlFn::ThreadNum, vec![]);
        b.call_rtl(RtlFn::ThreadNum, vec![]);
        b.ret(None);
        assert!(m.function_id("omp_get_thread_num").is_some());
        // k + one declaration
        assert_eq!(m.num_functions(), 2);
    }

    #[test]
    fn memory_ops_and_gep() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("g", vec![Type::Ptr], Type::F64));
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.gep(Value::Arg(0), Value::i64(3), 8, 16);
        let v = b.load(Type::F64, p);
        b.store(v, Value::Arg(0));
        b.ret(Some(v));
        assert_eq!(m.func(f).num_insts(), 3);
        assert_eq!(b"ok".len(), 2); // silence unused warnings pattern-free
    }
}
