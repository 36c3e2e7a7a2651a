//! Expression lowering.

use crate::ast::{BinaryOp, CType, Expr, ScalarType, UnaryOp};
use crate::error::CompileError;
use crate::lower::{ct2ty, FnLowerer};
use crate::storage::elem_of;
use omp_ir::omprtl::math_fn_signature;
use omp_ir::{BinOp, CastOp, CmpOp, InstKind, RtlFn, Type, Value};

type Result<T> = std::result::Result<T, CompileError>;

fn rank(t: CType) -> u8 {
    match t {
        CType::Int => 0,
        CType::Long => 1,
        CType::Float => 2,
        CType::Double => 3,
        _ => 4,
    }
}

fn common_type(a: CType, b: CType) -> CType {
    if rank(a) >= rank(b) {
        a
    } else {
        b
    }
}

impl FnLowerer<'_, '_> {
    /// Converts `v` from source type `from` to `to`.
    pub(crate) fn convert(&mut self, v: Value, from: CType, to: CType) -> Result<Value> {
        if from == to {
            return Ok(v);
        }
        let cast = |op| InstKind::Cast {
            op,
            val: v,
            to: ct2ty(to),
        };
        let kind = match (from, to) {
            (CType::Int, CType::Long) => cast(CastOp::SExt),
            (CType::Long, CType::Int) => cast(CastOp::Trunc),
            (CType::Int | CType::Long, CType::Float | CType::Double) => cast(CastOp::SiToFp),
            (CType::Float | CType::Double, CType::Int | CType::Long) => cast(CastOp::FpToSi),
            (CType::Float, CType::Double) => cast(CastOp::FpExt),
            (CType::Double, CType::Float) => cast(CastOp::FpTrunc),
            (CType::Ptr(_), CType::Ptr(_)) => return Ok(v),
            _ => {
                return Err(self.err(format!("cannot convert from {from:?} to {to:?}")));
            }
        };
        Ok(self.emit(kind))
    }

    /// Lowers an expression to `(value, type)`.
    pub(crate) fn lower_expr(&mut self, e: &Expr) -> Result<(Value, CType)> {
        match e {
            Expr::Int(v) => {
                if *v >= i32::MIN as i64 && *v <= i32::MAX as i64 {
                    Ok((Value::i32(*v as i32), CType::Int))
                } else {
                    Ok((Value::i64(*v), CType::Long))
                }
            }
            Expr::Float(v) => Ok((Value::f64(*v), CType::Double)),
            Expr::Ident(name) => {
                let info = self
                    .lookup(name)
                    .cloned()
                    .ok_or_else(|| self.err(format!("use of undeclared variable `{name}`")))?;
                if let Some((elem, _)) = info.array {
                    // Array decays to a pointer to its first element.
                    Ok((info.addr, CType::Ptr(elem)))
                } else {
                    let v = self.emit(InstKind::Load {
                        ptr: info.addr,
                        ty: ct2ty(info.ty),
                    });
                    Ok((v, info.ty))
                }
            }
            Expr::Binary { op, lhs, rhs } => self.lower_binary(*op, lhs, rhs),
            Expr::Unary { op, expr } => self.lower_unary(*op, expr),
            Expr::Assign { op, lhs, rhs } => {
                let (addr, lty) = self.lower_lvalue(lhs)?;
                let stored = match op {
                    None => {
                        let (rv, rt) = self.lower_expr(rhs)?;
                        self.convert(rv, rt, lty)?
                    }
                    Some(bop) => {
                        let cur = self.emit(InstKind::Load {
                            ptr: addr,
                            ty: ct2ty(lty),
                        });
                        let (rv, rt) = self.lower_expr(rhs)?;
                        let rv = self.convert(rv, rt, lty)?;
                        self.emit_arith(*bop, lty, cur, rv)?
                    }
                };
                self.emit(InstKind::Store {
                    ptr: addr,
                    val: stored,
                });
                Ok((stored, lty))
            }
            Expr::Call { name, args } => self.lower_call(name, args),
            Expr::Index { .. } => {
                let (addr, ty) = self.lower_lvalue(e)?;
                let v = self.emit(InstKind::Load {
                    ptr: addr,
                    ty: ct2ty(ty),
                });
                Ok((v, ty))
            }
            Expr::Cast { ty, expr } => {
                let (v, vt) = self.lower_expr(expr)?;
                let c = self.convert(v, vt, *ty)?;
                Ok((c, *ty))
            }
        }
    }

    /// Lowers an lvalue expression to `(address, element type)`.
    pub(crate) fn lower_lvalue(&mut self, e: &Expr) -> Result<(Value, CType)> {
        match e {
            Expr::Ident(name) => {
                let info = self
                    .lookup(name)
                    .cloned()
                    .ok_or_else(|| self.err(format!("use of undeclared variable `{name}`")))?;
                if info.array.is_some() {
                    return Err(self.err(format!("cannot assign to array `{name}`")));
                }
                Ok((info.addr, info.ty))
            }
            Expr::Index { base, idx } => {
                let (bv, bt) = self.lower_expr(base)?;
                let CType::Ptr(elem) = bt else {
                    return Err(self.err("indexing a non-pointer value"));
                };
                let (iv, it) = self.lower_expr(idx)?;
                let iv = self.convert(iv, it, CType::Long)?;
                let addr = self.emit(InstKind::Gep {
                    base: bv,
                    index: iv,
                    scale: elem.size(),
                    offset: 0,
                });
                Ok((addr, elem.ctype()))
            }
            Expr::Unary {
                op: UnaryOp::Deref,
                expr,
            } => self.lower_deref(expr),
            _ => Err(self.err("expression is not an lvalue")),
        }
    }

    /// Lowers `*ptr` as an lvalue to `(address, element type)`.
    fn lower_deref(&mut self, ptr: &Expr) -> Result<(Value, CType)> {
        let (pv, pt) = self.lower_expr(ptr)?;
        let CType::Ptr(elem) = pt else {
            return Err(self.err("dereferencing a non-pointer value"));
        };
        Ok((pv, elem.ctype()))
    }

    fn emit_arith(&mut self, op: BinaryOp, ty: CType, lhs: Value, rhs: Value) -> Result<Value> {
        let is_f = ty.is_float();
        let bop = match (op, is_f) {
            (BinaryOp::Add, false) => BinOp::Add,
            (BinaryOp::Add, true) => BinOp::FAdd,
            (BinaryOp::Sub, false) => BinOp::Sub,
            (BinaryOp::Sub, true) => BinOp::FSub,
            (BinaryOp::Mul, false) => BinOp::Mul,
            (BinaryOp::Mul, true) => BinOp::FMul,
            (BinaryOp::Div, false) => BinOp::SDiv,
            (BinaryOp::Div, true) => BinOp::FDiv,
            (BinaryOp::Rem, false) => BinOp::SRem,
            (BinaryOp::Rem, true) => BinOp::FRem,
            (BinaryOp::And, false) => BinOp::And,
            (BinaryOp::Or, false) => BinOp::Or,
            (BinaryOp::Xor, false) => BinOp::Xor,
            (BinaryOp::Shl, false) => BinOp::Shl,
            (BinaryOp::Shr, false) => BinOp::AShr,
            (o, true) => {
                return Err(self.err(format!("operator {o:?} requires integer operands")));
            }
            (o, _) => return Err(self.err(format!("operator {o:?} not valid here"))),
        };
        Ok(self.emit(InstKind::Bin {
            op: bop,
            ty: ct2ty(ty),
            lhs,
            rhs,
        }))
    }

    fn lower_binary(&mut self, op: BinaryOp, lhs: &Expr, rhs: &Expr) -> Result<(Value, CType)> {
        use BinaryOp::*;
        match op {
            LogicalAnd | LogicalOr | Lt | Le | Gt | Ge | Eq | Ne => {
                let v = if matches!(op, LogicalAnd | LogicalOr) {
                    self.lower_logical(op, lhs, rhs)?
                } else {
                    self.lower_cmp(op, lhs, rhs)?
                };
                let z = self.emit(InstKind::Cast {
                    op: CastOp::ZExt,
                    val: v,
                    to: Type::I32,
                });
                Ok((z, CType::Int))
            }
            _ => {
                let (lv, lt) = self.lower_expr(lhs)?;
                let (rv, rt) = self.lower_expr(rhs)?;
                // Pointer arithmetic: ptr +/- int scales by element size.
                if let CType::Ptr(elem) = lt {
                    if rt.is_int() && matches!(op, Add | Sub) {
                        let mut idx = self.convert(rv, rt, CType::Long)?;
                        if op == Sub {
                            idx = self.emit(InstKind::Bin {
                                op: BinOp::Sub,
                                ty: Type::I64,
                                lhs: Value::i64(0),
                                rhs: idx,
                            });
                        }
                        let p = self.emit(InstKind::Gep {
                            base: lv,
                            index: idx,
                            scale: elem.size(),
                            offset: 0,
                        });
                        return Ok((p, lt));
                    }
                    return Err(self.err("unsupported pointer arithmetic"));
                }
                let ty = common_type(lt, rt);
                if rank(ty) > 3 {
                    return Err(self.err("invalid operand types"));
                }
                let lv = self.convert(lv, lt, ty)?;
                let rv = self.convert(rv, rt, ty)?;
                let v = self.emit_arith(op, ty, lv, rv)?;
                Ok((v, ty))
            }
        }
    }

    fn lower_unary(&mut self, op: UnaryOp, expr: &Expr) -> Result<(Value, CType)> {
        match op {
            UnaryOp::Neg => {
                let (v, t) = self.lower_expr(expr)?;
                let zero = match t {
                    CType::Int => Value::i32(0),
                    CType::Long => Value::i64(0),
                    CType::Float => Value::f32(0.0),
                    CType::Double => Value::f64(0.0),
                    _ => return Err(self.err("cannot negate this type")),
                };
                let bop = if t.is_float() {
                    BinOp::FSub
                } else {
                    BinOp::Sub
                };
                let r = self.emit(InstKind::Bin {
                    op: bop,
                    ty: ct2ty(t),
                    lhs: zero,
                    rhs: v,
                });
                Ok((r, t))
            }
            UnaryOp::Not => {
                let b = self.lower_bool(expr)?;
                let inv = self.emit(InstKind::Bin {
                    op: BinOp::Xor,
                    ty: Type::I1,
                    lhs: b,
                    rhs: Value::bool(true),
                });
                let z = self.emit(InstKind::Cast {
                    op: CastOp::ZExt,
                    val: inv,
                    to: Type::I32,
                });
                Ok((z, CType::Int))
            }
            UnaryOp::BitNot => {
                let (v, t) = self.lower_expr(expr)?;
                if !t.is_int() {
                    return Err(self.err("`~` requires an integer operand"));
                }
                let all = Value::ConstInt(-1, ct2ty(t));
                let r = self.emit(InstKind::Bin {
                    op: BinOp::Xor,
                    ty: ct2ty(t),
                    lhs: v,
                    rhs: all,
                });
                Ok((r, t))
            }
            UnaryOp::Deref => {
                let (addr, ty) = self.lower_deref(expr)?;
                let v = self.emit(InstKind::Load {
                    ptr: addr,
                    ty: ct2ty(ty),
                });
                Ok((v, ty))
            }
            UnaryOp::Addr => {
                // &array — already a pointer; &scalar — its storage.
                if let Expr::Ident(name) = expr {
                    let info = self
                        .lookup(name)
                        .cloned()
                        .ok_or_else(|| self.err(format!("use of undeclared variable `{name}`")))?;
                    if let Some((elem, _)) = info.array {
                        return Ok((info.addr, CType::Ptr(elem)));
                    }
                    let elem = elem_of(info.ty)
                        .ok_or_else(|| self.err("cannot take the address of a pointer"))?;
                    return Ok((info.addr, CType::Ptr(elem)));
                }
                let (addr, ty) = self.lower_lvalue(expr)?;
                let elem = elem_of(ty).ok_or_else(|| self.err("cannot take this address"))?;
                Ok((addr, CType::Ptr(elem)))
            }
        }
    }

    /// Lowers an expression to an `i1`, using direct comparisons and
    /// short-circuit evaluation where possible.
    pub(crate) fn lower_bool(&mut self, e: &Expr) -> Result<Value> {
        use BinaryOp::*;
        match e {
            Expr::Binary {
                op: op @ (Lt | Le | Gt | Ge | Eq | Ne),
                lhs,
                rhs,
            } => self.lower_cmp(*op, lhs, rhs),
            Expr::Binary {
                op: op @ (LogicalAnd | LogicalOr),
                lhs,
                rhs,
            } => self.lower_logical(*op, lhs, rhs),
            Expr::Unary {
                op: UnaryOp::Not,
                expr,
            } => {
                let b = self.lower_bool(expr)?;
                Ok(self.emit(InstKind::Bin {
                    op: BinOp::Xor,
                    ty: Type::I1,
                    lhs: b,
                    rhs: Value::bool(true),
                }))
            }
            _ => {
                let (v, t) = self.lower_expr(e)?;
                let kind = match t {
                    CType::Int | CType::Long => InstKind::Cmp {
                        op: CmpOp::Ne,
                        ty: ct2ty(t),
                        lhs: v,
                        rhs: Value::ConstInt(0, ct2ty(t)),
                    },
                    CType::Float | CType::Double => InstKind::Cmp {
                        op: CmpOp::FOne,
                        ty: ct2ty(t),
                        lhs: v,
                        rhs: if t == CType::Float {
                            Value::f32(0.0)
                        } else {
                            Value::f64(0.0)
                        },
                    },
                    CType::Ptr(_) => InstKind::Cmp {
                        op: CmpOp::Ne,
                        ty: Type::Ptr,
                        lhs: v,
                        rhs: Value::Null,
                    },
                    CType::Void => return Err(self.err("void value in condition")),
                };
                Ok(self.emit(kind))
            }
        }
    }

    /// Lowers the comparison `lhs op rhs` to an `i1`.
    fn lower_cmp(&mut self, op: BinaryOp, lhs: &Expr, rhs: &Expr) -> Result<Value> {
        let (lv, lt) = self.lower_expr(lhs)?;
        let (rv, rt) = self.lower_expr(rhs)?;
        let ty = if matches!(lt, CType::Ptr(_)) || matches!(rt, CType::Ptr(_)) {
            CType::Ptr(ScalarType::Long)
        } else {
            common_type(lt, rt)
        };
        let (lv, rv, irty) = if let CType::Ptr(_) = ty {
            (lv, rv, Type::Ptr)
        } else {
            (
                self.convert(lv, lt, ty)?,
                self.convert(rv, rt, ty)?,
                ct2ty(ty),
            )
        };
        let is_f = ty.is_float();
        let cop = match (op, is_f) {
            (BinaryOp::Lt, false) => CmpOp::Slt,
            (BinaryOp::Le, false) => CmpOp::Sle,
            (BinaryOp::Gt, false) => CmpOp::Sgt,
            (BinaryOp::Ge, false) => CmpOp::Sge,
            (BinaryOp::Eq, false) => CmpOp::Eq,
            (BinaryOp::Ne, false) => CmpOp::Ne,
            (BinaryOp::Lt, true) => CmpOp::FOlt,
            (BinaryOp::Le, true) => CmpOp::FOle,
            (BinaryOp::Gt, true) => CmpOp::FOgt,
            (BinaryOp::Ge, true) => CmpOp::FOge,
            (BinaryOp::Eq, true) => CmpOp::FOeq,
            (BinaryOp::Ne, true) => CmpOp::FOne,
            _ => unreachable!(),
        };
        Ok(self.emit(InstKind::Cmp {
            op: cop,
            ty: irty,
            lhs: lv,
            rhs: rv,
        }))
    }

    /// Lowers the short-circuit `lhs && rhs` or `lhs || rhs` to an `i1`.
    fn lower_logical(&mut self, op: BinaryOp, lhs: &Expr, rhs: &Expr) -> Result<Value> {
        let and = op == BinaryOp::LogicalAnd;
        let l = self.lower_bool(lhs)?;
        let lhs_end = self.block;
        let rhs_bb = self.new_block();
        let merge = self.new_block();
        if and {
            self.cond_br(l, rhs_bb, merge);
        } else {
            self.cond_br(l, merge, rhs_bb);
        }
        self.block = rhs_bb;
        let r = self.lower_bool(rhs)?;
        let rhs_end = self.block;
        self.br(merge);
        self.block = merge;
        let short_val = Value::bool(!and);
        let phi = self.emit(InstKind::Phi {
            ty: Type::I1,
            incoming: vec![(lhs_end, short_val), (rhs_end, r)],
        });
        Ok(phi)
    }

    fn lower_call(&mut self, name: &str, args: &[Expr]) -> Result<(Value, CType)> {
        // OpenMP query functions usable directly from source.
        let rtl = match name {
            "omp_get_thread_num" => Some(RtlFn::ThreadNum),
            "omp_get_num_threads" => Some(RtlFn::NumThreads),
            "omp_get_team_num" => Some(RtlFn::TeamNum),
            "omp_get_num_teams" => Some(RtlFn::NumTeams),
            _ => None,
        };
        if let Some(r) = rtl {
            if !args.is_empty() {
                return Err(self.err(format!("`{name}` takes no arguments")));
            }
            let v = self.rtl(r, vec![]);
            return Ok((v, CType::Int));
        }
        // Program functions.
        if let Some((ptys, rty)) = self.sigs.get(name).cloned() {
            if ptys.len() != args.len() {
                return Err(self.err(format!(
                    "`{name}` expects {} arguments, got {}",
                    ptys.len(),
                    args.len()
                )));
            }
            let Some(fid) = self.m.function_id(name) else {
                return Err(self.err(format!(
                    "`{name}` contains a target region and cannot be called from device code"
                )));
            };
            let mut vals = Vec::with_capacity(args.len());
            for (a, pt) in args.iter().zip(&ptys) {
                let (v, vt) = self.lower_expr(a)?;
                vals.push(self.convert(v, vt, *pt)?);
            }
            let v = self.emit(InstKind::Call {
                callee: Value::Func(fid),
                args: vals,
                ret: ct2ty(rty),
            });
            return Ok((v, rty));
        }
        // Math intrinsics.
        if let Some((ptys, rty)) = math_fn_signature(name) {
            if ptys.len() != args.len() {
                return Err(self.err(format!(
                    "`{name}` expects {} arguments, got {}",
                    ptys.len(),
                    args.len()
                )));
            }
            let fid = self.m.get_or_declare(name, ptys.clone(), rty);
            self.m.func_mut(fid).attrs.pure_fn = true;
            let want = if rty == Type::F32 {
                CType::Float
            } else {
                CType::Double
            };
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                let (v, vt) = self.lower_expr(a)?;
                vals.push(self.convert(v, vt, want)?);
            }
            let v = self.emit(InstKind::Call {
                callee: Value::Func(fid),
                args: vals,
                ret: rty,
            });
            return Ok((v, want));
        }
        Err(self.err(format!("call to undeclared function `{name}`")))
    }
}
