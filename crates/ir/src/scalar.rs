//! Scalar semantics: the one definition of what a `Bin`, `Cmp`, `Cast`
//! and GEP offset compute.
//!
//! The constant folder ([`crate::fold`]) and both tiers of the GPU
//! simulator evaluate these ops through [`eval_bin`], [`eval_cmp`],
//! [`eval_cast`] and [`gep_offset`], so a folded constant is exactly
//! the value the device would compute at run time.
//! `tests/golden/scalar_ops.txt` pins every op over the edge values of
//! every scalar type. Integer ops wrap to their type; integer and
//! pointer operands are read as signed 64-bit values, so pointer
//! arithmetic is `i64` arithmetic on the address. Only division,
//! remainder by zero and over-wide shifts are undefined.

use crate::inst::{BinOp, CastOp, CmpOp};
use crate::types::Type;
use crate::value::RtVal;

/// The integer `v` wrapped to `ty` (`i1` keeps bit 0; a pointer is
/// the address `v`).
#[inline(always)]
pub fn wrap_int(ty: Type, v: i64) -> RtVal {
    match ty {
        Type::I1 => RtVal::Bool(v & 1 != 0),
        Type::I32 => RtVal::I32(v as i32),
        Type::Ptr => RtVal::Ptr(v as u64),
        _ => RtVal::I64(v),
    }
}

/// Why a scalar op has no result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarError {
    /// The op is undefined on these operands: an integer division or
    /// remainder by zero, or a shift by the bit width or more. Only
    /// [`eval_bin`] returns it.
    Undefined,
    /// An operand has the wrong type for the op; names what was
    /// attempted.
    Mistyped(&'static str),
}

/// `v`'s bits read as an unsigned `ty` (a pointer as `i64`).
#[inline(always)]
fn unsigned(v: i64, ty: Type) -> u64 {
    match ty {
        Type::I1 => v as u64 & 1,
        Type::I32 => v as u32 as u64,
        _ => v as u64,
    }
}

/// A binary op at type `ty`. The total integer ops come first, so the
/// simulator's hot loop pays one match for them.
#[inline(always)]
pub fn eval_bin(op: BinOp, ty: Type, a: RtVal, b: RtVal) -> Result<RtVal, ScalarError> {
    if op.is_float() {
        let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
            return Err(ScalarError::Mistyped("float op on non-float"));
        };
        let r = match op {
            BinOp::FAdd => x + y,
            BinOp::FSub => x - y,
            BinOp::FMul => x * y,
            BinOp::FDiv => x / y,
            BinOp::FRem => x % y,
            _ => unreachable!(),
        };
        return Ok(match ty {
            Type::F32 => RtVal::F32(r as f32),
            _ => RtVal::F64(r),
        });
    }
    let (Some(x), Some(y)) = (a.as_i64(), b.as_i64()) else {
        return Err(ScalarError::Mistyped("int op on non-int"));
    };
    let r = match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        _ => partial_int_op(op, ty, x, y)?,
    };
    Ok(wrap_int(ty, r))
}

/// The integer ops that can be undefined: divisions, remainders and
/// shifts.
fn partial_int_op(op: BinOp, ty: Type, x: i64, y: i64) -> Result<i64, ScalarError> {
    let (ux, uy) = (unsigned(x, ty), unsigned(y, ty));
    let shift_ok = uy < u64::from(ty.int_bits().unwrap_or(64));
    Ok(match op {
        BinOp::SDiv if y != 0 => x.wrapping_div(y),
        BinOp::SRem if y != 0 => x.wrapping_rem(y),
        BinOp::UDiv if uy != 0 => (ux / uy) as i64,
        BinOp::URem if uy != 0 => (ux % uy) as i64,
        BinOp::Shl if shift_ok => x.wrapping_shl(uy as u32),
        BinOp::LShr if shift_ok => (ux >> uy) as i64,
        BinOp::AShr if shift_ok => x >> uy,
        _ => return Err(ScalarError::Undefined),
    })
}

/// A comparison at type `ty`, as an `i1`. Every comparison is total.
#[inline(always)]
pub fn eval_cmp(op: CmpOp, ty: Type, a: RtVal, b: RtVal) -> Result<RtVal, ScalarError> {
    if op.is_float() {
        let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
            return Err(ScalarError::Mistyped("float cmp on non-float"));
        };
        return Ok(RtVal::Bool(match op {
            CmpOp::FOeq => x == y,
            CmpOp::FOne => x != y,
            CmpOp::FOlt => x < y,
            CmpOp::FOle => x <= y,
            CmpOp::FOgt => x > y,
            CmpOp::FOge => x >= y,
            _ => unreachable!(),
        }));
    }
    let (Some(x), Some(y)) = (a.as_i64(), b.as_i64()) else {
        return Err(ScalarError::Mistyped("int cmp on non-int"));
    };
    let (ux, uy) = (unsigned(x, ty), unsigned(y, ty));
    Ok(RtVal::Bool(match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Slt => x < y,
        CmpOp::Sle => x <= y,
        CmpOp::Sgt => x > y,
        CmpOp::Sge => x >= y,
        CmpOp::Ult => ux < uy,
        CmpOp::Ule => ux <= uy,
        CmpOp::Ugt => ux > uy,
        CmpOp::Uge => ux >= uy,
        _ => unreachable!(),
    }))
}

/// A cast of `a` to `to`. Every cast of a well-typed operand has a
/// result: `fptosi` saturates to `i64` (NaN becomes 0) and then wraps
/// to `to`, so `+inf` gives `i64::MAX` but `-1` as `i32`.
#[inline(always)]
pub fn eval_cast(op: CastOp, a: RtVal, to: Type) -> Result<RtVal, ScalarError> {
    let mistyped = ScalarError::Mistyped;
    Ok(match op {
        CastOp::ZExt => {
            let v = a.as_i64().filter(|_| a.ty().is_int());
            let v = v.ok_or(mistyped("zext on non-int"))?;
            wrap_int(to, unsigned(v, a.ty()) as i64)
        }
        CastOp::SExt => wrap_int(to, a.as_i64().ok_or(mistyped("sext on non-int"))?),
        CastOp::Trunc => wrap_int(to, a.as_i64().ok_or(mistyped("trunc on non-int"))?),
        CastOp::SiToFp => {
            let v = a.as_i64().ok_or(mistyped("sitofp on non-int"))?;
            match to {
                Type::F32 => RtVal::F32(v as f32),
                _ => RtVal::F64(v as f64),
            }
        }
        CastOp::FpToSi => wrap_int(
            to,
            a.as_f64().ok_or(mistyped("fptosi on non-float"))? as i64,
        ),
        CastOp::FpExt => RtVal::F64(a.as_f64().ok_or(mistyped("fpext on non-float"))?),
        CastOp::FpTrunc => RtVal::F32(a.as_f64().ok_or(mistyped("fptrunc on non-float"))? as f32),
        CastOp::PtrToInt => wrap_int(
            to,
            a.as_ptr().ok_or(mistyped("ptrtoint on non-pointer"))? as i64,
        ),
        CastOp::IntToPtr => RtVal::Ptr(a.as_i64().ok_or(mistyped("inttoptr on non-int"))? as u64),
    })
}

/// The byte offset `index * scale + offset` of a GEP, wrapping like
/// every other address computation.
#[inline(always)]
pub fn gep_offset(index: i64, scale: u64, offset: i64) -> i64 {
    index.wrapping_mul(scale as i64).wrapping_add(offset)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_tell_undefined_from_mistyped() {
        let (one, zero) = (RtVal::I32(1), RtVal::I32(0));
        assert_eq!(
            eval_bin(BinOp::SDiv, Type::I32, one, zero),
            Err(ScalarError::Undefined)
        );
        assert_eq!(
            eval_bin(BinOp::Add, Type::I32, one, RtVal::F64(1.0)),
            Err(ScalarError::Mistyped("int op on non-int"))
        );
        assert_eq!(
            eval_cast(CastOp::ZExt, RtVal::Ptr(8), Type::I64),
            Err(ScalarError::Mistyped("zext on non-int"))
        );
    }

    #[test]
    fn gep_offsets_wrap() {
        assert_eq!(gep_offset(3, 8, -4), 20);
        assert_eq!(gep_offset(i64::MAX, 8, 0), -8);
        assert_eq!(gep_offset(-1, u64::MAX, i64::MAX), i64::MIN);
    }
}
