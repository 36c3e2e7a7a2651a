//! Constant folding of individual instructions.

use crate::inst::{BinOp, CastOp, CmpOp, InstKind};
use crate::types::Type;
use crate::value::Value;

fn wrap_int(v: i64, ty: Type) -> Value {
    let w = match ty {
        Type::I1 => v & 1,
        Type::I32 => v as i32 as i64,
        _ => v,
    };
    Value::ConstInt(w, ty)
}

fn to_unsigned(v: i64, ty: Type) -> u64 {
    match ty {
        Type::I1 => (v as u64) & 1,
        Type::I32 => v as u32 as u64,
        _ => v as u64,
    }
}

/// Folds a binary operation over two constants. Returns `None` if the
/// operands are not constants of the right kind or the result is not
/// defined (e.g. division by zero).
pub fn fold_bin(op: BinOp, ty: Type, lhs: Value, rhs: Value) -> Option<Value> {
    if op.is_float() {
        let a = lhs.as_float()?;
        let b = rhs.as_float()?;
        let r = match op {
            BinOp::FAdd => a + b,
            BinOp::FSub => a - b,
            BinOp::FMul => a * b,
            BinOp::FDiv => a / b,
            BinOp::FRem => a % b,
            _ => unreachable!(),
        };
        return Some(match ty {
            Type::F32 => Value::f32(r as f32),
            _ => Value::f64(r),
        });
    }
    let a = lhs.as_int()?;
    let b = rhs.as_int()?;
    let ua = to_unsigned(a, ty);
    let ub = to_unsigned(b, ty);
    let bits = ty.int_bits().unwrap_or(64);
    let r = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::SDiv => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        BinOp::SRem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        BinOp::UDiv => {
            if ub == 0 {
                return None;
            }
            (ua / ub) as i64
        }
        BinOp::URem => {
            if ub == 0 {
                return None;
            }
            (ua % ub) as i64
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => {
            if ub >= u64::from(bits) {
                return None;
            }
            a.wrapping_shl(ub as u32)
        }
        BinOp::LShr => {
            if ub >= u64::from(bits) {
                return None;
            }
            (ua >> ub) as i64
        }
        BinOp::AShr => {
            if ub >= u64::from(bits) {
                return None;
            }
            a >> ub
        }
        _ => unreachable!(),
    };
    Some(wrap_int(r, ty))
}

/// Folds a comparison over two constants into an `i1` constant.
pub fn fold_cmp(op: CmpOp, ty: Type, lhs: Value, rhs: Value) -> Option<Value> {
    if op.is_float() {
        let a = lhs.as_float()?;
        let b = rhs.as_float()?;
        let r = match op {
            CmpOp::FOeq => a == b,
            CmpOp::FOne => a != b,
            CmpOp::FOlt => a < b,
            CmpOp::FOle => a <= b,
            CmpOp::FOgt => a > b,
            CmpOp::FOge => a >= b,
            _ => unreachable!(),
        };
        return Some(Value::bool(r));
    }
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
    let a = lhs.as_int()?;
    let b = rhs.as_int()?;
    let ua = to_unsigned(a, ty);
    let ub = to_unsigned(b, ty);
    let r = match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Slt => a < b,
        CmpOp::Sle => a <= b,
        CmpOp::Sgt => a > b,
        CmpOp::Sge => a >= b,
        CmpOp::Ult => ua < ub,
        CmpOp::Ule => ua <= ub,
        CmpOp::Ugt => ua > ub,
        CmpOp::Uge => ua >= ub,
        _ => unreachable!(),
    };
    Some(Value::bool(r))
}

/// Folds a cast of a constant.
pub fn fold_cast(op: CastOp, val: Value, to: Type) -> Option<Value> {
    match op {
        CastOp::ZExt => {
            let (v, from) = match val {
                Value::ConstInt(v, t) => (v, t),
                _ => return None,
            };
            Some(wrap_int(to_unsigned(v, from) as i64, to))
        }
        CastOp::SExt => {
            let v = val.as_int()?;
            Some(wrap_int(v, to))
        }
        CastOp::Trunc => {
            let v = val.as_int()?;
            Some(wrap_int(v, to))
        }
        CastOp::SiToFp => {
            let v = val.as_int()?;
            Some(match to {
                Type::F32 => Value::f32(v as f32),
                _ => Value::f64(v as f64),
            })
        }
        CastOp::FpToSi => {
            let v = val.as_float()?;
            if !v.is_finite() {
                return None;
            }
            Some(wrap_int(v as i64, to))
        }
        CastOp::FpExt => {
            let v = val.as_float()?;
            Some(Value::f64(v))
        }
        CastOp::FpTrunc => {
            let v = val.as_float()?;
            Some(Value::f32(v as f32))
        }
        CastOp::PtrToInt => match val {
            Value::Null => Some(wrap_int(0, to)),
            _ => None,
        },
        CastOp::IntToPtr => match val.as_int()? {
            0 => Some(Value::Null),
            _ => None,
        },
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
            scale,
            offset,
        } => {
            // base + 0*scale + 0 == base
            if index.is_int_const(0) && *offset == 0 {
                Some(*base)
            } else if *base == Value::Null {
                None
            } else {
                let _ = scale;
                None
            }
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
        assert_eq!(
            fold_cast(CastOp::FpToSi, Value::f64(f64::INFINITY), Type::I32),
            None
        );
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
