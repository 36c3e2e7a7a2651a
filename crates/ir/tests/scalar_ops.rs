//! Pins scalar semantics: what `omp_ir::scalar`'s `eval_bin`,
//! `eval_cmp` and `eval_cast` compute — the one definition the
//! simulator's tiers run — and where the constant folder built on them
//! declines, for every op × scalar type × edge value, as raw bits in
//! `tests/golden/scalar_ops.txt`. A change to what any op computes
//! shows up as a diff of that table.
//!
//! To regenerate after an intended semantic change:
//!
//! ```text
//! OMP_UPDATE_GOLDEN=1 cargo test -p omp-ir --test scalar_ops
//! ```

use omp_ir::fold;
use omp_ir::scalar::{self, eval_bin, eval_cast, eval_cmp, ScalarError};
use omp_ir::{BinOp, CastOp, CmpOp, RtVal, Type, Value};
use std::fmt::Write;
use std::path::PathBuf;

const TYPES: [Type; 6] = [
    Type::I1,
    Type::I32,
    Type::I64,
    Type::Ptr,
    Type::F32,
    Type::F64,
];
#[rustfmt::skip]
const BIN_OPS: [BinOp; 18] = [
    BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::SDiv, BinOp::SRem, BinOp::UDiv,
    BinOp::URem, BinOp::And, BinOp::Or, BinOp::Xor, BinOp::Shl, BinOp::LShr,
    BinOp::AShr, BinOp::FAdd, BinOp::FSub, BinOp::FMul, BinOp::FDiv, BinOp::FRem,
];
#[rustfmt::skip]
const CMP_OPS: [CmpOp; 16] = [
    CmpOp::Eq, CmpOp::Ne, CmpOp::Slt, CmpOp::Sle, CmpOp::Sgt, CmpOp::Sge,
    CmpOp::Ult, CmpOp::Ule, CmpOp::Ugt, CmpOp::Uge, CmpOp::FOeq, CmpOp::FOne,
    CmpOp::FOlt, CmpOp::FOle, CmpOp::FOgt, CmpOp::FOge,
];
#[rustfmt::skip]
const CAST_OPS: [CastOp; 9] = [
    CastOp::ZExt, CastOp::SExt, CastOp::Trunc, CastOp::SiToFp, CastOp::FpToSi,
    CastOp::FpExt, CastOp::FpTrunc, CastOp::PtrToInt, CastOp::IntToPtr,
];
#[rustfmt::skip]
const INTS: [i64; 13] = [
    0, 1, -1, 31, 32, 63, 64, i32::MIN as i64, i32::MAX as i64, i64::MIN, i64::MAX, -32, 7,
];
#[rustfmt::skip]
const FLOATS: [f64; 10] = [
    0.0, -0.0, 1.0, -1.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e300, 31.5, -64.0,
];

/// The distinct edge values of `ty`, as (folder constant, operand).
/// The folder's one pointer constant is null.
fn edges(ty: Type) -> Vec<(Value, RtVal)> {
    let all: Vec<(Value, RtVal)> = match ty {
        Type::F32 => FLOATS
            .iter()
            .map(|&x| (Value::f32(x as f32), RtVal::F32(x as f32)))
            .collect(),
        Type::F64 => FLOATS
            .iter()
            .map(|&x| (Value::f64(x), RtVal::F64(x)))
            .collect(),
        Type::Ptr => vec![(Value::Null, RtVal::Ptr(0))],
        _ => INTS
            .iter()
            .map(|&v| {
                let rt = scalar::wrap_int(ty, v);
                (Value::ConstInt(rt.as_i64().unwrap(), ty), rt)
            })
            .collect(),
    };
    let mut unique: Vec<(Value, RtVal)> = Vec::new();
    for e in all {
        if unique.iter().all(|(c, _)| *c != e.0) {
            unique.push(e);
        }
    }
    unique
}

/// Raw bits, so floats (NaN included) compare bit for bit.
fn bits(v: RtVal) -> u64 {
    match v {
        RtVal::Bool(b) => b as u64,
        RtVal::I32(x) => x as u32 as u64,
        RtVal::I64(x) => x as u64,
        RtVal::F32(x) => x.to_bits() as u64,
        RtVal::F64(x) => x.to_bits(),
        RtVal::Ptr(p) => p,
    }
}

/// A folded constant's bits.
fn const_bits(c: Value) -> u64 {
    match c {
        Value::Null => 0,
        c => bits(RtVal::from_const(c).unwrap_or_else(|| panic!("the folder produced {c:?}"))),
    }
}

/// The verifier's cast rules: only these casts reach the ops.
fn cast_is_well_typed(op: CastOp, from: Type, to: Type) -> bool {
    match op {
        CastOp::ZExt | CastOp::SExt => from.is_int() && to.is_int() && from.size() < to.size(),
        CastOp::Trunc => from.is_int() && to.is_int() && from.size() > to.size(),
        CastOp::SiToFp => from.is_int() && to.is_float(),
        CastOp::FpToSi => from.is_float() && to.is_int(),
        CastOp::FpExt => from == Type::F32 && to == Type::F64,
        CastOp::FpTrunc => from == Type::F64 && to == Type::F32,
        CastOp::PtrToInt => from == Type::Ptr && to.is_int(),
        CastOp::IntToPtr => from.is_int() && to == Type::Ptr,
    }
}

/// One cell: the op's result bits, `*` where the folder declines to
/// fold it, `undef` where the op is undefined (and the folder
/// declines). A folded constant must equal the op's result.
fn cell(op: Result<RtVal, ScalarError>, folded: Option<Value>, what: &str) -> String {
    match (op, folded) {
        (Ok(v), Some(c)) => {
            assert_eq!(const_bits(c), bits(v), "{what}: the folder disagrees");
            format!("{:x}", bits(v))
        }
        (Ok(v), None) => format!("{:x}*", bits(v)),
        (Err(ScalarError::Undefined), None) => "undef".into(),
        (r, c) => panic!("{what}: {r:?} folded to {c:?}"),
    }
}

fn table() -> String {
    let mut out = String::from(
        "# Scalar semantics over edge values, as raw bits in hex (omp_ir::scalar).\n\
         # `edges TY` lists TY's operands in order; `bin OP TY A` and `cmp OP TY A`\n\
         # give OP(A, B) for each B; `cast OP FROM TO` gives OP(A) for each A.\n\
         # `*`: the constant folder declines this result. `undef`: undefined\n\
         # (the simulator traps, the folder declines).\n",
    );
    for ty in TYPES {
        let e: Vec<String> = edges(ty)
            .iter()
            .map(|&(_, r)| format!("{:x}", bits(r)))
            .collect();
        writeln!(out, "edges {ty}: {}", e.join(" ")).unwrap();
    }
    for ty in TYPES {
        let vals = edges(ty);
        let row = |kind: &str, op: &dyn std::fmt::Display, a: RtVal, cells: Vec<String>| {
            format!("{kind} {op} {ty} {:x}: {}\n", bits(a), cells.join(" "))
        };
        for op in BIN_OPS
            .into_iter()
            .filter(|op| op.is_float() == ty.is_float())
        {
            for &(a, ra) in &vals {
                let cells = vals
                    .iter()
                    .map(|&(b, rb)| {
                        let what = format!("{op} {ty} {a:?} {b:?}");
                        cell(
                            eval_bin(op, ty, ra, rb),
                            fold::fold_bin(op, ty, a, b),
                            &what,
                        )
                    })
                    .collect();
                out += &row("bin", &op, ra, cells);
            }
        }
        for op in CMP_OPS
            .into_iter()
            .filter(|op| op.is_float() == ty.is_float())
        {
            for &(a, ra) in &vals {
                let cells = vals
                    .iter()
                    .map(|&(b, rb)| {
                        let what = format!("{op} {ty} {a:?} {b:?}");
                        cell(
                            eval_cmp(op, ty, ra, rb),
                            fold::fold_cmp(op, ty, a, b),
                            &what,
                        )
                    })
                    .collect();
                out += &row("cmp", &op, ra, cells);
            }
        }
    }
    for from in TYPES {
        for to in TYPES {
            for op in CAST_OPS
                .into_iter()
                .filter(|&op| cast_is_well_typed(op, from, to))
            {
                let cells: Vec<String> = edges(from)
                    .iter()
                    .map(|&(a, ra)| {
                        let what = format!("{op} {a:?} to {to}");
                        cell(eval_cast(op, ra, to), fold::fold_cast(op, a, to), &what)
                    })
                    .collect();
                writeln!(out, "cast {op} {from} {to}: {}", cells.join(" ")).unwrap();
            }
        }
    }
    out
}

#[test]
fn scalar_ops_match_the_golden_table() {
    let text = table();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/scalar_ops.txt");
    if std::env::var_os("OMP_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, text).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("read tests/golden/scalar_ops.txt");
    for (n, (g, t)) in golden.lines().zip(text.lines()).enumerate() {
        assert_eq!(
            g,
            t,
            "scalar_ops.txt line {}: an op's semantics drifted; \
             if intended, regenerate with OMP_UPDATE_GOLDEN=1",
            n + 1
        );
    }
    assert_eq!(golden.lines().count(), text.lines().count(), "row count");
}

/// Integer ops on pointers are `i64` ops on the address, giving a
/// pointer; each is undefined exactly where the `i64` op is.
#[test]
fn pointer_arithmetic_is_i64_arithmetic_on_the_address() {
    for &(_, a) in &edges(Type::I64) {
        for &(_, b) in &edges(Type::I64) {
            let (pa, pb) = (RtVal::Ptr(bits(a)), RtVal::Ptr(bits(b)));
            for op in BIN_OPS.into_iter().filter(|op| !op.is_float()) {
                let want = eval_bin(op, Type::I64, a, b).map(|v| RtVal::Ptr(bits(v)));
                assert_eq!(eval_bin(op, Type::Ptr, pa, pb), want, "{op} {a} {b}");
            }
            for op in CMP_OPS.into_iter().filter(|op| !op.is_float()) {
                let want = eval_cmp(op, Type::I64, a, b);
                assert_eq!(eval_cmp(op, Type::Ptr, pa, pb), want, "{op} {a} {b}");
            }
        }
    }
}
