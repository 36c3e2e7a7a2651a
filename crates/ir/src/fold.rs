//! Constant folding of individual instructions.
//!
//! What a `Bin`, `Cmp` or `Cast` computes on constants is defined once,
//! in [`crate::scalar`], which the simulator runs too: folding converts
//! the constants to [`RtVal`]s, evaluates, and converts the result
//! back, declining where the op is undefined. Only the symbolic pointer
//! cases live here, since the simulator has no equivalent for them:
//! globals and functions are non-null, functions are equal only to
//! themselves, and `null` converts to and from `0`.

use crate::inst::{BinOp, CastOp, CmpOp, InstKind};
use crate::scalar;
use crate::types::Type;
use crate::value::{RtVal, Value};

/// Folds a binary operation over two constants. Returns `None` if the
/// operands are not constants of the right kind or the result is not
/// defined (e.g. division by zero).
pub fn fold_bin(op: BinOp, ty: Type, lhs: Value, rhs: Value) -> Option<Value> {
    let (a, b) = (RtVal::from_const(lhs)?, RtVal::from_const(rhs)?);
    scalar::eval_bin(op, ty, a, b).ok()?.to_const()
}

/// Folds a comparison over two constants into an `i1` constant.
pub fn fold_cmp(op: CmpOp, ty: Type, lhs: Value, rhs: Value) -> Option<Value> {
    // Pointer equality against null is foldable for globals/functions.
    if ty == Type::Ptr {
        let known_nonnull = |v: Value| matches!(v, Value::Global(_) | Value::Func(_));
        let r = match (lhs, rhs, op) {
            (Value::Null, Value::Null, CmpOp::Eq) => Some(true),
            (Value::Null, Value::Null, CmpOp::Ne) => Some(false),
            (a, Value::Null, CmpOp::Eq) | (Value::Null, a, CmpOp::Eq) if known_nonnull(a) => {
                Some(false)
            }
            (a, Value::Null, CmpOp::Ne) | (Value::Null, a, CmpOp::Ne) if known_nonnull(a) => {
                Some(true)
            }
            (Value::Func(a), Value::Func(b), CmpOp::Eq) => Some(a == b),
            (Value::Func(a), Value::Func(b), CmpOp::Ne) => Some(a != b),
            _ => None,
        };
        return r.map(Value::bool);
    }
    let (a, b) = (RtVal::from_const(lhs)?, RtVal::from_const(rhs)?);
    scalar::eval_cmp(op, ty, a, b).ok()?.to_const()
}

/// Folds a cast of a constant.
pub fn fold_cast(op: CastOp, val: Value, to: Type) -> Option<Value> {
    match (op, val) {
        (CastOp::PtrToInt, Value::Null) => Some(Value::ConstInt(0, to)),
        (CastOp::IntToPtr, Value::ConstInt(0, _)) => Some(Value::Null),
        _ => scalar::eval_cast(op, RtVal::from_const(val)?, to)
            .ok()?
            .to_const(),
    }
}

/// Folds a select with a constant condition.
pub fn fold_select(cond: Value, on_true: Value, on_false: Value) -> Option<Value> {
    match cond.as_int()? {
        0 => Some(on_false),
        _ => Some(on_true),
    }
}

/// Attempts to fold an entire instruction to a constant value.
pub fn fold_inst(kind: &InstKind) -> Option<Value> {
    match kind {
        InstKind::Bin { op, ty, lhs, rhs } => fold_bin(*op, *ty, *lhs, *rhs),
        InstKind::Cmp { op, ty, lhs, rhs } => fold_cmp(*op, *ty, *lhs, *rhs),
        InstKind::Cast { op, val, to } => fold_cast(*op, *val, *to),
        InstKind::Select {
            cond,
            on_true,
            on_false,
            ..
        } => fold_select(*cond, *on_true, *on_false),
        InstKind::Gep {
            base,
            index,
            offset,
            ..
        } => {
            // base + 0*scale + 0 == base
            (index.is_int_const(0) && *offset == 0).then_some(*base)
        }
        _ => None,
    }
}

/// Algebraic simplifications that do not require both operands constant
/// (identity elements, self-cancellation).
pub fn simplify_bin(op: BinOp, ty: Type, lhs: Value, rhs: Value) -> Option<Value> {
    match op {
        BinOp::Add | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::LShr | BinOp::AShr
            if rhs.is_int_const(0) =>
        {
            Some(lhs)
        }
        BinOp::Add | BinOp::Or | BinOp::Xor if lhs.is_int_const(0) => Some(rhs),
        BinOp::Sub if rhs.is_int_const(0) => Some(lhs),
        BinOp::Sub if lhs == rhs && !lhs.is_const() && ty.is_int() => Some(Value::ConstInt(0, ty)),
        BinOp::Mul if rhs.is_int_const(1) => Some(lhs),
        BinOp::Mul if lhs.is_int_const(1) => Some(rhs),
        BinOp::Mul if rhs.is_int_const(0) || lhs.is_int_const(0) => Some(Value::ConstInt(0, ty)),
        BinOp::SDiv | BinOp::UDiv if rhs.is_int_const(1) => Some(lhs),
        BinOp::And if rhs.is_int_const(0) || lhs.is_int_const(0) => Some(Value::ConstInt(0, ty)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_arithmetic() {
        assert_eq!(
            fold_bin(BinOp::Add, Type::I32, Value::i32(2), Value::i32(3)),
            Some(Value::i32(5))
        );
        assert_eq!(
            fold_bin(BinOp::Mul, Type::I64, Value::i64(-4), Value::i64(5)),
            Some(Value::i64(-20))
        );
        // i32 wrapping
        assert_eq!(
            fold_bin(BinOp::Add, Type::I32, Value::i32(i32::MAX), Value::i32(1)),
            Some(Value::i32(i32::MIN))
        );
        // div by zero is not folded
        assert_eq!(
            fold_bin(BinOp::SDiv, Type::I32, Value::i32(1), Value::i32(0)),
            None
        );
        assert_eq!(
            fold_bin(BinOp::UDiv, Type::I32, Value::i32(-8), Value::i32(2)),
            Some(Value::i32(((u32::MAX - 7) / 2) as i32))
        );
    }

    #[test]
    fn shifts() {
        assert_eq!(
            fold_bin(BinOp::Shl, Type::I32, Value::i32(1), Value::i32(4)),
            Some(Value::i32(16))
        );
        // over-shifting is undefined, not folded
        assert_eq!(
            fold_bin(BinOp::Shl, Type::I32, Value::i32(1), Value::i32(40)),
            None
        );
        // ... also by an amount whose low 32 bits are in range
        for op in [BinOp::Shl, BinOp::LShr, BinOp::AShr] {
            for amount in [1 << 32, (1 << 32) + 1, i64::MIN] {
                assert_eq!(
                    fold_bin(op, Type::I64, Value::i64(8), Value::i64(amount)),
                    None
                );
            }
        }
        assert_eq!(
            fold_bin(BinOp::LShr, Type::I32, Value::i32(-1), Value::i32(28)),
            Some(Value::i32(0xF))
        );
        assert_eq!(
            fold_bin(BinOp::AShr, Type::I32, Value::i32(-16), Value::i32(2)),
            Some(Value::i32(-4))
        );
    }

    #[test]
    fn float_arithmetic() {
        assert_eq!(
            fold_bin(BinOp::FAdd, Type::F64, Value::f64(1.5), Value::f64(2.25)),
            Some(Value::f64(3.75))
        );
        assert_eq!(
            fold_bin(BinOp::FDiv, Type::F32, Value::f32(1.0), Value::f32(2.0)),
            Some(Value::f32(0.5))
        );
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            fold_cmp(CmpOp::Slt, Type::I32, Value::i32(-1), Value::i32(0)),
            Some(Value::bool(true))
        );
        assert_eq!(
            fold_cmp(CmpOp::Ult, Type::I32, Value::i32(-1), Value::i32(0)),
            Some(Value::bool(false))
        );
        assert_eq!(
            fold_cmp(CmpOp::FOle, Type::F64, Value::f64(1.0), Value::f64(1.0)),
            Some(Value::bool(true))
        );
    }

    #[test]
    fn pointer_comparisons() {
        use crate::value::FuncId;
        assert_eq!(
            fold_cmp(CmpOp::Eq, Type::Ptr, Value::Null, Value::Null),
            Some(Value::bool(true))
        );
        assert_eq!(
            fold_cmp(
                CmpOp::Eq,
                Type::Ptr,
                Value::Func(FuncId(1)),
                Value::Func(FuncId(2))
            ),
            Some(Value::bool(false))
        );
        assert_eq!(
            fold_cmp(CmpOp::Ne, Type::Ptr, Value::Func(FuncId(1)), Value::Null),
            Some(Value::bool(true))
        );
    }

    #[test]
    fn casts() {
        assert_eq!(
            fold_cast(CastOp::SExt, Value::i32(-1), Type::I64),
            Some(Value::i64(-1))
        );
        assert_eq!(
            fold_cast(CastOp::ZExt, Value::i32(-1), Type::I64),
            Some(Value::i64(u32::MAX as i64))
        );
        assert_eq!(
            fold_cast(CastOp::Trunc, Value::i64(0x1_0000_0001), Type::I32),
            Some(Value::i32(1))
        );
        assert_eq!(
            fold_cast(CastOp::SiToFp, Value::i32(3), Type::F64),
            Some(Value::f64(3.0))
        );
        assert_eq!(
            fold_cast(CastOp::FpToSi, Value::f64(3.9), Type::I32),
            Some(Value::i32(3))
        );
        // Non-finite values fold to what the device computes:
        // saturated to i64 (NaN as 0), then wrapped to the target.
        assert_eq!(
            fold_cast(CastOp::FpToSi, Value::f64(f64::INFINITY), Type::I64),
            Some(Value::i64(i64::MAX))
        );
        assert_eq!(
            fold_cast(CastOp::FpToSi, Value::f64(f64::INFINITY), Type::I32),
            Some(Value::i32(-1))
        );
        assert_eq!(
            fold_cast(CastOp::FpToSi, Value::f64(f64::NEG_INFINITY), Type::I32),
            Some(Value::i32(0))
        );
        assert_eq!(
            fold_cast(CastOp::FpToSi, Value::f64(f64::NAN), Type::I32),
            Some(Value::i32(0))
        );
        assert_eq!(
            fold_cast(CastOp::PtrToInt, Value::Null, Type::I64),
            Some(Value::i64(0))
        );
        assert_eq!(
            fold_cast(CastOp::IntToPtr, Value::i64(0), Type::Ptr),
            Some(Value::Null)
        );
        assert_eq!(fold_cast(CastOp::IntToPtr, Value::i64(8), Type::Ptr), None);
    }

    #[test]
    fn selects_and_identities() {
        assert_eq!(
            fold_select(Value::bool(true), Value::i32(1), Value::i32(2)),
            Some(Value::i32(1))
        );
        assert_eq!(
            fold_select(Value::bool(false), Value::i32(1), Value::i32(2)),
            Some(Value::i32(2))
        );
        let x = Value::Arg(0);
        assert_eq!(
            simplify_bin(BinOp::Add, Type::I32, x, Value::i32(0)),
            Some(x)
        );
        assert_eq!(
            simplify_bin(BinOp::Mul, Type::I32, x, Value::i32(1)),
            Some(x)
        );
        assert_eq!(
            simplify_bin(BinOp::Mul, Type::I32, x, Value::i32(0)),
            Some(Value::i32(0))
        );
        assert_eq!(
            simplify_bin(BinOp::Sub, Type::I32, x, x),
            Some(Value::i32(0))
        );
        assert_eq!(simplify_bin(BinOp::Add, Type::I32, x, x), None);
    }
}
