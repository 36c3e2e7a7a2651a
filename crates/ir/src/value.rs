//! Values: SSA results, arguments, and constants, and the run-time
//! scalars ([`RtVal`]) they denote.

use crate::types::Type;
use std::fmt;

macro_rules! entity_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw index.
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an id from a raw index.
            pub fn from_index(i: usize) -> Self {
                $name(u32::try_from(i).expect("entity index overflow"))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

entity_id!(
    /// Identifies an instruction within its [`crate::Function`].
    InstId,
    "%v"
);
entity_id!(
    /// Identifies a basic block within its [`crate::Function`].
    BlockId,
    "bb"
);
entity_id!(
    /// Identifies a function within its [`crate::Module`].
    FuncId,
    "fn"
);
entity_id!(
    /// Identifies a global variable within its [`crate::Module`].
    GlobalId,
    "gv"
);

/// An SSA value: either the result of an instruction, a function argument,
/// or a constant. `Value` is small and `Copy`; instructions store their
/// operands as `Value`s directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// The result of instruction `InstId` in the enclosing function.
    Inst(InstId),
    /// The `n`-th formal argument of the enclosing function.
    Arg(u32),
    /// An integer constant of the given type (`i1`, `i32` or `i64`).
    /// The payload is sign-extended to `i64`.
    ConstInt(i64, Type),
    /// A floating-point constant. Stored as raw IEEE-754 bits of the
    /// `f64` representation so `Value` can be `Eq + Hash`.
    ConstFloat(u64, Type),
    /// The address of a global variable.
    Global(GlobalId),
    /// The address of a function (used for indirect calls and as callee).
    Func(FuncId),
    /// The null pointer.
    Null,
    /// An undefined value of the given type.
    Undef(Type),
}

impl Value {
    /// Convenience constructor for an `i32` constant.
    pub fn i32(v: i32) -> Value {
        Value::ConstInt(v as i64, Type::I32)
    }

    /// Convenience constructor for an `i64` constant.
    pub fn i64(v: i64) -> Value {
        Value::ConstInt(v, Type::I64)
    }

    /// Convenience constructor for an `i1` (boolean) constant.
    pub fn bool(v: bool) -> Value {
        Value::ConstInt(v as i64, Type::I1)
    }

    /// Convenience constructor for an `f32` constant.
    pub fn f32(v: f32) -> Value {
        Value::ConstFloat((v as f64).to_bits(), Type::F32)
    }

    /// Convenience constructor for an `f64` constant.
    pub fn f64(v: f64) -> Value {
        Value::ConstFloat(v.to_bits(), Type::F64)
    }

    /// The `f64` payload of a float constant, if this is one.
    pub fn as_float(self) -> Option<f64> {
        match self {
            Value::ConstFloat(bits, _) => Some(f64::from_bits(bits)),
            _ => None,
        }
    }

    /// The integer payload of an integer constant, if this is one.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::ConstInt(v, _) => Some(v),
            _ => None,
        }
    }

    /// Whether this value is any kind of constant (including globals,
    /// function addresses, null and undef).
    pub fn is_const(self) -> bool {
        !matches!(self, Value::Inst(_) | Value::Arg(_))
    }

    /// Whether this is an integer constant equal to `v` (any width).
    pub fn is_int_const(self, v: i64) -> bool {
        matches!(self, Value::ConstInt(c, _) if c == v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Inst(id) => write!(f, "{id}"),
            Value::Arg(n) => write!(f, "%arg{n}"),
            Value::ConstInt(v, ty) => write!(f, "{ty} {v}"),
            Value::ConstFloat(bits, ty) => {
                write!(f, "{ty} 0x{bits:016x}")
            }
            Value::Global(id) => write!(f, "@{id}"),
            Value::Func(id) => write!(f, "@{id}"),
            Value::Null => write!(f, "null"),
            Value::Undef(ty) => write!(f, "{ty} undef"),
        }
    }
}

/// A dynamically-typed scalar value: an operand or result of the ops
/// in [`crate::scalar`], and a value in the simulator's registers and
/// memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RtVal {
    /// Boolean (`i1`).
    Bool(bool),
    /// 32-bit integer.
    I32(i32),
    /// 64-bit integer.
    I64(i64),
    /// 32-bit float.
    F32(f32),
    /// 64-bit float.
    F64(f64),
    /// Pointer (a simulated address; the simulator's `mem` module
    /// defines the encoding).
    Ptr(u64),
}

impl RtVal {
    /// The IR type of this value.
    pub fn ty(self) -> Type {
        match self {
            RtVal::Bool(_) => Type::I1,
            RtVal::I32(_) => Type::I32,
            RtVal::I64(_) => Type::I64,
            RtVal::F32(_) => Type::F32,
            RtVal::F64(_) => Type::F64,
            RtVal::Ptr(_) => Type::Ptr,
        }
    }

    /// Interprets the value as a signed 64-bit integer (sign extended).
    pub fn as_i64(self) -> Option<i64> {
        match self {
            RtVal::Bool(b) => Some(b as i64),
            RtVal::I32(v) => Some(v as i64),
            RtVal::I64(v) => Some(v),
            RtVal::Ptr(p) => Some(p as i64),
            _ => None,
        }
    }

    /// Interprets the value as a float.
    pub fn as_f64(self) -> Option<f64> {
        match self {
            RtVal::F32(v) => Some(v as f64),
            RtVal::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Pointer payload, if this is a pointer.
    pub fn as_ptr(self) -> Option<u64> {
        match self {
            RtVal::Ptr(p) => Some(p),
            _ => None,
        }
    }

    /// Truthiness (for `i1` conditions).
    pub fn as_bool(self) -> Option<bool> {
        match self {
            RtVal::Bool(b) => Some(b),
            RtVal::I32(v) => Some(v != 0),
            RtVal::I64(v) => Some(v != 0),
            _ => None,
        }
    }

    /// Serializes the value to little-endian bytes of its natural width.
    pub fn to_bytes(self) -> Vec<u8> {
        match self {
            RtVal::Bool(b) => vec![b as u8],
            RtVal::I32(v) => v.to_le_bytes().to_vec(),
            RtVal::I64(v) => v.to_le_bytes().to_vec(),
            RtVal::F32(v) => v.to_le_bytes().to_vec(),
            RtVal::F64(v) => v.to_le_bytes().to_vec(),
            RtVal::Ptr(p) => p.to_le_bytes().to_vec(),
        }
    }

    /// Serializes the value into a caller-provided buffer without
    /// allocating; returns the number of bytes written.
    pub fn write_le(self, buf: &mut [u8; 8]) -> usize {
        match self {
            RtVal::Bool(b) => {
                buf[0] = b as u8;
                1
            }
            RtVal::I32(v) => {
                buf[..4].copy_from_slice(&v.to_le_bytes());
                4
            }
            RtVal::I64(v) => {
                buf.copy_from_slice(&v.to_le_bytes());
                8
            }
            RtVal::F32(v) => {
                buf[..4].copy_from_slice(&v.to_le_bytes());
                4
            }
            RtVal::F64(v) => {
                buf.copy_from_slice(&v.to_le_bytes());
                8
            }
            RtVal::Ptr(p) => {
                buf.copy_from_slice(&p.to_le_bytes());
                8
            }
        }
    }

    /// Deserializes a value of type `ty` from little-endian bytes.
    pub fn from_bytes(ty: Type, bytes: &[u8]) -> RtVal {
        match ty {
            Type::I1 => RtVal::Bool(bytes[0] != 0),
            Type::I32 => RtVal::I32(i32::from_le_bytes(bytes[..4].try_into().unwrap())),
            Type::I64 => RtVal::I64(i64::from_le_bytes(bytes[..8].try_into().unwrap())),
            Type::F32 => RtVal::F32(f32::from_le_bytes(bytes[..4].try_into().unwrap())),
            Type::F64 => RtVal::F64(f64::from_le_bytes(bytes[..8].try_into().unwrap())),
            Type::Ptr => RtVal::Ptr(u64::from_le_bytes(bytes[..8].try_into().unwrap())),
            Type::Void => panic!("cannot load a void value"),
        }
    }

    /// Zero of the given type.
    pub fn zero(ty: Type) -> RtVal {
        match ty {
            Type::I1 => RtVal::Bool(false),
            Type::I32 => RtVal::I32(0),
            Type::I64 => RtVal::I64(0),
            Type::F32 => RtVal::F32(0.0),
            Type::F64 => RtVal::F64(0.0),
            Type::Ptr => RtVal::Ptr(0),
            Type::Void => panic!("no zero of void"),
        }
    }

    /// The value an integer or float constant denotes.
    pub fn from_const(c: Value) -> Option<RtVal> {
        match c {
            Value::ConstInt(v, Type::I1) => Some(RtVal::Bool(v != 0)),
            Value::ConstInt(v, Type::I32) => Some(RtVal::I32(v as i32)),
            Value::ConstInt(v, _) => Some(RtVal::I64(v)),
            Value::ConstFloat(bits, Type::F32) => Some(RtVal::F32(f64::from_bits(bits) as f32)),
            Value::ConstFloat(bits, _) => Some(RtVal::F64(f64::from_bits(bits))),
            _ => None,
        }
    }

    /// The constant denoting this value; pointers have none.
    pub fn to_const(self) -> Option<Value> {
        match self {
            RtVal::Bool(b) => Some(Value::bool(b)),
            RtVal::I32(v) => Some(Value::i32(v)),
            RtVal::I64(v) => Some(Value::i64(v)),
            RtVal::F32(v) => Some(Value::f32(v)),
            RtVal::F64(v) => Some(Value::f64(v)),
            RtVal::Ptr(_) => None,
        }
    }
}

impl fmt::Display for RtVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtVal::Bool(b) => write!(f, "{b}"),
            RtVal::I32(v) => write!(f, "{v}"),
            RtVal::I64(v) => write!(f, "{v}"),
            RtVal::F32(v) => write!(f, "{v}"),
            RtVal::F64(v) => write!(f, "{v}"),
            RtVal::Ptr(p) => write!(f, "0x{p:x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_id_roundtrip() {
        let id = InstId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "%v42");
        assert_eq!(BlockId::from_index(3).to_string(), "bb3");
        assert_eq!(FuncId::from_index(1).to_string(), "fn1");
        assert_eq!(GlobalId::from_index(0).to_string(), "gv0");
    }

    #[test]
    fn constant_constructors() {
        assert_eq!(Value::i32(7), Value::ConstInt(7, Type::I32));
        assert_eq!(Value::i64(-1), Value::ConstInt(-1, Type::I64));
        assert_eq!(Value::bool(true), Value::ConstInt(1, Type::I1));
        assert_eq!(Value::f64(1.5).as_float(), Some(1.5));
        assert_eq!(Value::f32(2.0).as_float(), Some(2.0));
        assert_eq!(Value::i32(9).as_int(), Some(9));
        assert_eq!(Value::f64(1.0).as_int(), None);
    }

    #[test]
    fn const_classification() {
        assert!(Value::i32(0).is_const());
        assert!(Value::Null.is_const());
        assert!(Value::Undef(Type::I32).is_const());
        assert!(Value::Global(GlobalId(0)).is_const());
        assert!(!Value::Inst(InstId(0)).is_const());
        assert!(!Value::Arg(0).is_const());
        assert!(Value::i32(5).is_int_const(5));
        assert!(!Value::i32(5).is_int_const(6));
        assert!(!Value::f64(5.0).is_int_const(5));
    }

    #[test]
    fn float_constants_are_hashable_and_eq() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Value::f64(1.0));
        assert!(s.contains(&Value::f64(1.0)));
        assert!(!s.contains(&Value::f64(2.0)));
    }

    #[test]
    fn roundtrip_bytes() {
        for v in [
            RtVal::Bool(true),
            RtVal::I32(-5),
            RtVal::I64(1 << 40),
            RtVal::F32(1.25),
            RtVal::F64(-2.5),
            RtVal::Ptr(0x2000_0000_1234),
        ] {
            let b = v.to_bytes();
            assert_eq!(RtVal::from_bytes(v.ty(), &b), v);
        }
    }

    #[test]
    fn conversions() {
        assert_eq!(RtVal::I32(-1).as_i64(), Some(-1));
        assert_eq!(RtVal::Bool(true).as_i64(), Some(1));
        assert_eq!(RtVal::F32(1.5).as_f64(), Some(1.5));
        assert_eq!(RtVal::I32(0).as_bool(), Some(false));
        assert_eq!(RtVal::Ptr(7).as_ptr(), Some(7));
        assert_eq!(RtVal::F64(0.0).as_i64(), None);
    }

    #[test]
    fn zeros() {
        assert_eq!(RtVal::zero(Type::F64), RtVal::F64(0.0));
        assert_eq!(RtVal::zero(Type::Ptr), RtVal::Ptr(0));
    }
}
