//! Instructions and terminators.

use crate::types::Type;
use crate::value::{BlockId, Value};
use std::fmt;

/// Binary arithmetic and bitwise operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    SDiv,
    SRem,
    UDiv,
    URem,
    And,
    Or,
    Xor,
    Shl,
    LShr,
    AShr,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FRem,
}

impl BinOp {
    /// Whether this operator works on floating-point operands.
    pub fn is_float(self) -> bool {
        matches!(
            self,
            BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv | BinOp::FRem
        )
    }

    /// Whether `a op b == b op a` for all `a`, `b`.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Mul
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
                | BinOp::FAdd
                | BinOp::FMul
        )
    }

    /// Mnemonic used by the printer / parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::SDiv => "sdiv",
            BinOp::SRem => "srem",
            BinOp::UDiv => "udiv",
            BinOp::URem => "urem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
            BinOp::FRem => "frem",
        }
    }

    /// Parses a mnemonic back into an operator.
    pub fn from_mnemonic(s: &str) -> Option<BinOp> {
        Some(match s {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "sdiv" => BinOp::SDiv,
            "srem" => BinOp::SRem,
            "udiv" => BinOp::UDiv,
            "urem" => BinOp::URem,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            "shl" => BinOp::Shl,
            "lshr" => BinOp::LShr,
            "ashr" => BinOp::AShr,
            "fadd" => BinOp::FAdd,
            "fsub" => BinOp::FSub,
            "fmul" => BinOp::FMul,
            "fdiv" => BinOp::FDiv,
            "frem" => BinOp::FRem,
            _ => return None,
        })
    }
}

/// Comparison predicates. Integer predicates are prefixed like LLVM's
/// `icmp`, floating-point ones use ordered semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Slt,
    Sle,
    Sgt,
    Sge,
    Ult,
    Ule,
    Ugt,
    Uge,
    FOeq,
    FOne,
    FOlt,
    FOle,
    FOgt,
    FOge,
}

impl CmpOp {
    /// Whether this predicate compares floating-point operands.
    pub fn is_float(self) -> bool {
        matches!(
            self,
            CmpOp::FOeq | CmpOp::FOne | CmpOp::FOlt | CmpOp::FOle | CmpOp::FOgt | CmpOp::FOge
        )
    }

    /// The predicate with operands swapped (`a < b` becomes `b > a`).
    pub fn swapped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Slt => CmpOp::Sgt,
            CmpOp::Sle => CmpOp::Sge,
            CmpOp::Sgt => CmpOp::Slt,
            CmpOp::Sge => CmpOp::Sle,
            CmpOp::Ult => CmpOp::Ugt,
            CmpOp::Ule => CmpOp::Uge,
            CmpOp::Ugt => CmpOp::Ult,
            CmpOp::Uge => CmpOp::Ule,
            CmpOp::FOeq => CmpOp::FOeq,
            CmpOp::FOne => CmpOp::FOne,
            CmpOp::FOlt => CmpOp::FOgt,
            CmpOp::FOle => CmpOp::FOge,
            CmpOp::FOgt => CmpOp::FOlt,
            CmpOp::FOge => CmpOp::FOle,
        }
    }

    /// Mnemonic used by the printer / parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Slt => "slt",
            CmpOp::Sle => "sle",
            CmpOp::Sgt => "sgt",
            CmpOp::Sge => "sge",
            CmpOp::Ult => "ult",
            CmpOp::Ule => "ule",
            CmpOp::Ugt => "ugt",
            CmpOp::Uge => "uge",
            CmpOp::FOeq => "oeq",
            CmpOp::FOne => "one",
            CmpOp::FOlt => "olt",
            CmpOp::FOle => "ole",
            CmpOp::FOgt => "ogt",
            CmpOp::FOge => "oge",
        }
    }

    /// Parses a mnemonic back into a predicate.
    pub fn from_mnemonic(s: &str) -> Option<CmpOp> {
        Some(match s {
            "eq" => CmpOp::Eq,
            "ne" => CmpOp::Ne,
            "slt" => CmpOp::Slt,
            "sle" => CmpOp::Sle,
            "sgt" => CmpOp::Sgt,
            "sge" => CmpOp::Sge,
            "ult" => CmpOp::Ult,
            "ule" => CmpOp::Ule,
            "ugt" => CmpOp::Ugt,
            "uge" => CmpOp::Uge,
            "oeq" => CmpOp::FOeq,
            "one" => CmpOp::FOne,
            "olt" => CmpOp::FOlt,
            "ole" => CmpOp::FOle,
            "ogt" => CmpOp::FOgt,
            "oge" => CmpOp::FOge,
            _ => return None,
        })
    }
}

/// Conversion operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastOp {
    ZExt,
    SExt,
    Trunc,
    SiToFp,
    FpToSi,
    FpExt,
    FpTrunc,
    PtrToInt,
    IntToPtr,
}

impl CastOp {
    /// Mnemonic used by the printer / parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastOp::ZExt => "zext",
            CastOp::SExt => "sext",
            CastOp::Trunc => "trunc",
            CastOp::SiToFp => "sitofp",
            CastOp::FpToSi => "fptosi",
            CastOp::FpExt => "fpext",
            CastOp::FpTrunc => "fptrunc",
            CastOp::PtrToInt => "ptrtoint",
            CastOp::IntToPtr => "inttoptr",
        }
    }

    /// Parses a mnemonic back into a cast operator.
    pub fn from_mnemonic(s: &str) -> Option<CastOp> {
        Some(match s {
            "zext" => CastOp::ZExt,
            "sext" => CastOp::SExt,
            "trunc" => CastOp::Trunc,
            "sitofp" => CastOp::SiToFp,
            "fptosi" => CastOp::FpToSi,
            "fpext" => CastOp::FpExt,
            "fptrunc" => CastOp::FpTrunc,
            "ptrtoint" => CastOp::PtrToInt,
            "inttoptr" => CastOp::IntToPtr,
            _ => return None,
        })
    }
}

/// A non-terminator instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum InstKind {
    /// Stack allocation of `size` bytes in the thread-local frame.
    /// Produces a `ptr`.
    Alloca { size: u64, align: u64 },
    /// Loads a value of type `ty` from `ptr`.
    Load { ptr: Value, ty: Type },
    /// Stores `val` to `ptr`. Produces no value.
    Store { ptr: Value, val: Value },
    /// Binary operation on two operands of type `ty`.
    Bin {
        op: BinOp,
        ty: Type,
        lhs: Value,
        rhs: Value,
    },
    /// Comparison of two operands of type `ty`; produces an `i1`.
    Cmp {
        op: CmpOp,
        ty: Type,
        lhs: Value,
        rhs: Value,
    },
    /// Conversion of `val` to type `to`.
    Cast { op: CastOp, val: Value, to: Type },
    /// Pointer arithmetic: `base + index * scale + offset` (bytes).
    /// Produces a `ptr`.
    Gep {
        base: Value,
        index: Value,
        scale: u64,
        offset: i64,
    },
    /// A call. `callee` is either [`Value::Func`] (direct) or a pointer
    /// value (indirect). Produces a value of type `ret` (possibly void).
    Call {
        callee: Value,
        args: Vec<Value>,
        ret: Type,
    },
    /// `cond ? on_true : on_false` for operands of type `ty`.
    Select {
        cond: Value,
        ty: Type,
        on_true: Value,
        on_false: Value,
    },
    /// SSA phi node of type `ty`. One incoming value per predecessor.
    Phi {
        ty: Type,
        incoming: Vec<(BlockId, Value)>,
    },
}

impl InstKind {
    /// The type of the value this instruction produces
    /// ([`Type::Void`] for stores and void calls).
    pub fn result_type(&self) -> Type {
        match self {
            InstKind::Alloca { .. } | InstKind::Gep { .. } => Type::Ptr,
            InstKind::Load { ty, .. } => *ty,
            InstKind::Store { .. } => Type::Void,
            InstKind::Bin { ty, .. } => *ty,
            InstKind::Cmp { .. } => Type::I1,
            InstKind::Cast { to, .. } => *to,
            InstKind::Call { ret, .. } => *ret,
            InstKind::Select { ty, .. } => *ty,
            InstKind::Phi { ty, .. } => *ty,
        }
    }

    /// Visits every operand.
    pub fn for_each_operand(&self, mut f: impl FnMut(Value)) {
        match self {
            InstKind::Alloca { .. } => {}
            InstKind::Load { ptr, .. } => f(*ptr),
            InstKind::Store { ptr, val } => {
                f(*ptr);
                f(*val);
            }
            InstKind::Bin { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            InstKind::Cast { val, .. } => f(*val),
            InstKind::Gep { base, index, .. } => {
                f(*base);
                f(*index);
            }
            InstKind::Call { callee, args, .. } => {
                f(*callee);
                for a in args {
                    f(*a);
                }
            }
            InstKind::Select {
                cond,
                on_true,
                on_false,
                ..
            } => {
                f(*cond);
                f(*on_true);
                f(*on_false);
            }
            InstKind::Phi { incoming, .. } => {
                for (_, v) in incoming {
                    f(*v);
                }
            }
        }
    }

    /// Rewrites every operand in place.
    pub fn map_operands(&mut self, mut f: impl FnMut(Value) -> Value) {
        match self {
            InstKind::Alloca { .. } => {}
            InstKind::Load { ptr, .. } => *ptr = f(*ptr),
            InstKind::Store { ptr, val } => {
                *ptr = f(*ptr);
                *val = f(*val);
            }
            InstKind::Bin { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            InstKind::Cast { val, .. } => *val = f(*val),
            InstKind::Gep { base, index, .. } => {
                *base = f(*base);
                *index = f(*index);
            }
            InstKind::Call { callee, args, .. } => {
                *callee = f(*callee);
                for a in args {
                    *a = f(*a);
                }
            }
            InstKind::Select {
                cond,
                on_true,
                on_false,
                ..
            } => {
                *cond = f(*cond);
                *on_true = f(*on_true);
                *on_false = f(*on_false);
            }
            InstKind::Phi { incoming, .. } => {
                for (_, v) in incoming {
                    *v = f(*v);
                }
            }
        }
    }

    /// Whether this instruction is trivially dead if its result is unused.
    pub fn is_removable_if_unused(&self) -> bool {
        !matches!(self, InstKind::Store { .. } | InstKind::Call { .. })
    }
}

/// A basic-block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional branch.
    Br(BlockId),
    /// Conditional branch on an `i1` value.
    CondBr {
        cond: Value,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// Function return. `None` for `void` functions.
    Ret(Option<Value>),
    /// Marks unreachable control flow.
    Unreachable,
}

impl Terminator {
    /// Successor blocks in branch order.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Br(b) => vec![*b],
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Terminator::Ret(_) | Terminator::Unreachable => vec![],
        }
    }

    /// Visits every value operand of the terminator.
    pub fn for_each_operand(&self, mut f: impl FnMut(Value)) {
        match self {
            Terminator::CondBr { cond, .. } => f(*cond),
            Terminator::Ret(Some(v)) => f(*v),
            _ => {}
        }
    }

    /// Rewrites every value operand in place.
    pub fn map_operands(&mut self, mut f: impl FnMut(Value) -> Value) {
        match self {
            Terminator::CondBr { cond, .. } => *cond = f(*cond),
            Terminator::Ret(Some(v)) => *v = f(*v),
            _ => {}
        }
    }

    /// Rewrites every successor block id in place.
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Br(b) => *b = f(*b),
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => {
                *then_bb = f(*then_bb);
                *else_bb = f(*else_bb);
            }
            _ => {}
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl fmt::Display for CastOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_mnemonic_roundtrip() {
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::SDiv,
            BinOp::SRem,
            BinOp::UDiv,
            BinOp::URem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::LShr,
            BinOp::AShr,
            BinOp::FAdd,
            BinOp::FSub,
            BinOp::FMul,
            BinOp::FDiv,
            BinOp::FRem,
        ] {
            assert_eq!(BinOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(BinOp::from_mnemonic("bogus"), None);
    }

    #[test]
    fn cmpop_mnemonic_roundtrip() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Slt,
            CmpOp::Sle,
            CmpOp::Sgt,
            CmpOp::Sge,
            CmpOp::Ult,
            CmpOp::Ule,
            CmpOp::Ugt,
            CmpOp::Uge,
            CmpOp::FOeq,
            CmpOp::FOne,
            CmpOp::FOlt,
            CmpOp::FOle,
            CmpOp::FOgt,
            CmpOp::FOge,
        ] {
            assert_eq!(CmpOp::from_mnemonic(op.mnemonic()), Some(op));
            // Double-swap must be the identity.
            assert_eq!(op.swapped().swapped(), op);
        }
    }

    #[test]
    fn castop_mnemonic_roundtrip() {
        for op in [
            CastOp::ZExt,
            CastOp::SExt,
            CastOp::Trunc,
            CastOp::SiToFp,
            CastOp::FpToSi,
            CastOp::FpExt,
            CastOp::FpTrunc,
            CastOp::PtrToInt,
            CastOp::IntToPtr,
        ] {
            assert_eq!(CastOp::from_mnemonic(op.mnemonic()), Some(op));
        }
    }

    #[test]
    fn result_types() {
        assert_eq!(
            InstKind::Alloca { size: 8, align: 8 }.result_type(),
            Type::Ptr
        );
        assert_eq!(
            InstKind::Load {
                ptr: Value::Null,
                ty: Type::F64
            }
            .result_type(),
            Type::F64
        );
        assert_eq!(
            InstKind::Store {
                ptr: Value::Null,
                val: Value::i32(0)
            }
            .result_type(),
            Type::Void
        );
        assert_eq!(
            InstKind::Cmp {
                op: CmpOp::Eq,
                ty: Type::I32,
                lhs: Value::i32(0),
                rhs: Value::i32(0)
            }
            .result_type(),
            Type::I1
        );
    }

    #[test]
    fn operand_iteration_and_mapping() {
        let mut k = InstKind::Bin {
            op: BinOp::Add,
            ty: Type::I32,
            lhs: Value::i32(1),
            rhs: Value::i32(2),
        };
        let mut seen = vec![];
        k.for_each_operand(|v| seen.push(v));
        assert_eq!(seen, vec![Value::i32(1), Value::i32(2)]);
        k.map_operands(|_| Value::i32(9));
        let mut seen2 = vec![];
        k.for_each_operand(|v| seen2.push(v));
        assert_eq!(seen2, vec![Value::i32(9), Value::i32(9)]);
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::CondBr {
            cond: Value::bool(true),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
        assert!(Terminator::Ret(None).successors().is_empty());
        assert_eq!(Terminator::Br(BlockId(7)).successors(), vec![BlockId(7)]);
    }

    #[test]
    fn commutativity() {
        assert!(BinOp::Add.is_commutative());
        assert!(BinOp::FMul.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(!BinOp::Shl.is_commutative());
    }
}
