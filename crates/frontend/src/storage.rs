//! Variable storage and globalization (paper Section IV-A).
//!
//! Non-escaping locals get an `alloca` (thread-private). Escaping locals
//! are globalized:
//!
//! * **Simplified scheme** (LLVM 13, Figure 4c): one
//!   `__kmpc_alloc_shared` / `__kmpc_free_shared` pair per variable.
//! * **Legacy scheme** (LLVM 12, Figure 4b): all escaping locals of a
//!   function are aggregated into one block, allocated through a
//!   runtime-checked sequence — plain stack memory in SPMD mode (the
//!   unsound fast path the paper removed), a warp-coalesced
//!   struct-of-arrays on the data-sharing stack when inside an active
//!   parallel region, and a single copy otherwise.
//! * **CUDA mode** (`-fopenmp-cuda-mode`): never globalize (unsound
//!   opt-in that the paper's optimizations make unnecessary).

use crate::ast::{walk, CType, FuncDecl, OmpDirective, ScalarType, Stmt};
use crate::capture::captured_vars;
use crate::error::CompileError;
use crate::lower::{FnLowerer, GlobalizationScheme};
use omp_ir::{BinOp, CastOp, InstKind, RtlFn, Type, Value};
use std::collections::HashSet;

type Result<T> = std::result::Result<T, CompileError>;

/// Resolved storage for one source variable.
#[derive(Debug, Clone)]
pub(crate) struct VarInfo {
    /// Address of the storage.
    pub(crate) addr: Value,
    /// Declared (element) type.
    pub(crate) ty: CType,
    /// `Some((elem, len))` for local arrays.
    pub(crate) array: Option<(ScalarType, u64)>,
}

/// State of the legacy (LLVM 12) aggregated globalization for one IR
/// function.
pub(crate) struct LegacyAgg {
    base: Value,
    in_gen: Value,
    active: Value,
    lane64: Value,
    ws64: Value,
    slots: Vec<(u64, u64)>, // (prefix offset, size)
    cursor: usize,
    total: u64,
}

/// Scalar element type of a declaration base type.
pub(crate) fn elem_of(ct: CType) -> Option<ScalarType> {
    match ct {
        CType::Int => Some(ScalarType::Int),
        CType::Long => Some(ScalarType::Long),
        CType::Float => Some(ScalarType::Float),
        CType::Double => Some(ScalarType::Double),
        CType::Ptr(_) | CType::Void => None,
    }
}

fn storage_size(ty: CType, array: Option<u64>) -> u64 {
    match array {
        Some(n) => elem_of(ty).map(|e| e.size()).unwrap_or(8) * n,
        None => ty.size().max(1),
    }
}

impl FnLowerer<'_, '_> {
    /// Creates storage for a variable, applying the configured
    /// globalization scheme when the variable escapes.
    pub(crate) fn make_storage(
        &mut self,
        name: &str,
        ty: CType,
        array: Option<u64>,
    ) -> Result<VarInfo> {
        if array.is_some() && elem_of(ty).is_none() {
            return Err(self.err(format!("array `{name}` must have a scalar element type")));
        }
        let size = storage_size(ty, array);
        let escapes = self.escaping.contains(name) && !self.opts.cuda_mode;
        let addr = if !escapes {
            self.emit(InstKind::Alloca { size, align: 8 })
        } else {
            match self.opts.globalization {
                GlobalizationScheme::Simplified => {
                    let p = self.rtl(RtlFn::AllocShared, vec![Value::i64(size as i64)]);
                    self.scopes
                        .last_mut()
                        .expect("no scope")
                        .frees
                        .push((p, size));
                    p
                }
                GlobalizationScheme::Legacy => self.legacy_slot_addr(size)?,
            }
        };
        Ok(VarInfo {
            addr,
            ty,
            array: array.map(|n| (elem_of(ty).unwrap(), n)),
        })
    }

    /// Storage for a parallel-region capture struct (always escaping —
    /// worker threads read it).
    pub(crate) fn make_capture_storage(&mut self, size: u64) -> Result<VarInfo> {
        let addr = if self.opts.cuda_mode {
            self.emit(InstKind::Alloca { size, align: 8 })
        } else {
            match self.opts.globalization {
                GlobalizationScheme::Simplified => {
                    self.rtl(RtlFn::AllocShared, vec![Value::i64(size as i64)])
                }
                GlobalizationScheme::Legacy => self.legacy_slot_addr(size)?,
            }
        };
        Ok(VarInfo {
            addr,
            ty: CType::Long,
            array: None,
        })
    }

    /// Releases a capture struct created by
    /// [`FnLowerer::make_capture_storage`].
    pub(crate) fn free_capture_storage(&mut self, ptr: Value, size: u64) {
        if ptr == Value::Null || self.opts.cuda_mode {
            return;
        }
        if self.opts.globalization == GlobalizationScheme::Simplified {
            self.rtl(RtlFn::FreeShared, vec![ptr, Value::i64(size as i64)]);
        }
        // Legacy: the aggregate is popped once in the epilogue.
    }

    fn legacy_slot_addr(&mut self, size: u64) -> Result<Value> {
        let Some(agg) = self.legacy.as_mut() else {
            return Err(self.err("internal: legacy aggregate missing"));
        };
        let (prefix, slot_size) = *agg
            .slots
            .get(agg.cursor)
            .ok_or_else(|| CompileError::new(0, "internal: legacy slot cursor overflow"))?;
        assert_eq!(slot_size, size, "legacy slot size mismatch");
        agg.cursor += 1;
        let (base, active, lane64, ws64) = (agg.base, agg.active, agg.lane64, agg.ws64);
        // &Mem[prefix * warp_size + size * lane]  when in an active
        // parallel region (struct-of-arrays across the warp), otherwise
        // &Mem[prefix].
        let pw = self.emit(InstKind::Bin {
            op: BinOp::Mul,
            ty: Type::I64,
            lhs: Value::i64(prefix as i64),
            rhs: ws64,
        });
        let sl = self.emit(InstKind::Bin {
            op: BinOp::Mul,
            ty: Type::I64,
            lhs: Value::i64(size as i64),
            rhs: lane64,
        });
        let woff = self.emit(InstKind::Bin {
            op: BinOp::Add,
            ty: Type::I64,
            lhs: pw,
            rhs: sl,
        });
        let off = self.emit(InstKind::Select {
            cond: active,
            ty: Type::I64,
            on_true: woff,
            on_false: Value::i64(prefix as i64),
        });
        Ok(self.emit(InstKind::Gep {
            base,
            index: off,
            scale: 1,
            offset: 0,
        }))
    }

    /// Emits the legacy aggregate prologue for a device function or
    /// kernel main path. Must run before any storage is requested.
    pub(crate) fn setup_legacy_aggregate(&mut self, body: &Stmt, f: &FuncDecl) -> Result<()> {
        if self.opts.globalization != GlobalizationScheme::Legacy || self.opts.cuda_mode {
            return Ok(());
        }
        let mut sizes: Vec<u64> = Vec::new();
        for p in &f.params {
            if self.escaping.contains(&p.name) {
                sizes.push(storage_size(p.ty, None));
            }
        }
        collect_legacy_slots(body, &self.escaping, &self.all_names, &mut sizes);
        self.emit_legacy_prologue(sizes)
    }

    /// Legacy aggregate setup for an outlined parallel region.
    pub(crate) fn setup_legacy_aggregate_region(&mut self, body: &Stmt) -> Result<()> {
        if self.opts.globalization != GlobalizationScheme::Legacy || self.opts.cuda_mode {
            return Ok(());
        }
        let mut sizes: Vec<u64> = Vec::new();
        collect_legacy_slots(body, &self.escaping, &self.all_names, &mut sizes);
        self.emit_legacy_prologue(sizes)
    }

    fn emit_legacy_prologue(&mut self, sizes: Vec<u64>) -> Result<()> {
        if sizes.is_empty() {
            self.legacy = None;
            return Ok(());
        }
        let mut slots = Vec::with_capacity(sizes.len());
        let mut prefix = 0u64;
        for s in &sizes {
            slots.push((prefix, *s));
            prefix += s.div_ceil(8) * 8; // keep 8-byte alignment
        }
        let total = prefix;
        let is_spmd = self.rtl(RtlFn::IsSpmdExecMode, vec![]);
        let spmd_bb = self.new_block();
        let gen_bb = self.new_block();
        let join_bb = self.new_block();
        self.cond_br(is_spmd, spmd_bb, gen_bb);
        // SPMD fast path: plain stack memory (the unsound LLVM 12
        // behaviour the paper removed; see Figure 3).
        self.block = spmd_bb;
        let sp = self.emit(InstKind::Alloca {
            size: total,
            align: 8,
        });
        self.br(join_bb);
        // Generic path: runtime-checked coalesced allocation.
        self.block = gen_bb;
        let active = self.rtl(RtlFn::InActiveParallel, vec![]);
        let ws = self.rtl(RtlFn::WarpSize, vec![]);
        let ws64g = self.emit(InstKind::Cast {
            op: CastOp::SExt,
            val: ws,
            to: Type::I64,
        });
        let warp_total = self.emit(InstKind::Bin {
            op: BinOp::Mul,
            ty: Type::I64,
            lhs: ws64g,
            rhs: Value::i64(total as i64),
        });
        let sz = self.emit(InstKind::Select {
            cond: active,
            ty: Type::I64,
            on_true: warp_total,
            on_false: Value::i64(total as i64),
        });
        let active32 = self.emit(InstKind::Cast {
            op: CastOp::ZExt,
            val: active,
            to: Type::I32,
        });
        let gp = self.rtl(RtlFn::DataSharingPushStack, vec![sz, active32]);
        self.br(join_bb);
        // Join.
        self.block = join_bb;
        let base = self.emit(InstKind::Phi {
            ty: Type::Ptr,
            incoming: vec![(spmd_bb, sp), (gen_bb, gp)],
        });
        let in_gen = self.emit(InstKind::Phi {
            ty: Type::I1,
            incoming: vec![(spmd_bb, Value::bool(false)), (gen_bb, Value::bool(true))],
        });
        let active_j = self.emit(InstKind::Phi {
            ty: Type::I1,
            incoming: vec![(spmd_bb, Value::bool(false)), (gen_bb, active)],
        });
        let lane = self.rtl(RtlFn::LaneId, vec![]);
        let lane64 = self.emit(InstKind::Cast {
            op: CastOp::SExt,
            val: lane,
            to: Type::I64,
        });
        let ws2 = self.rtl(RtlFn::WarpSize, vec![]);
        let ws64 = self.emit(InstKind::Cast {
            op: CastOp::SExt,
            val: ws2,
            to: Type::I64,
        });
        self.legacy = Some(LegacyAgg {
            base,
            in_gen,
            active: active_j,
            lane64,
            ws64,
            slots,
            cursor: 0,
            total,
        });
        Ok(())
    }

    /// Emits the legacy aggregate epilogue (pop the data-sharing stack on
    /// the generic path) at the current insertion point.
    pub(crate) fn emit_legacy_epilogue(&mut self) {
        let Some(agg) = self.legacy.as_ref() else {
            return;
        };
        if agg.total == 0 {
            return;
        }
        let (in_gen, base) = (agg.in_gen, agg.base);
        let pop_bb = self.new_block();
        let cont_bb = self.new_block();
        self.cond_br(in_gen, pop_bb, cont_bb);
        self.block = pop_bb;
        self.rtl(RtlFn::DataSharingPopStack, vec![base]);
        self.br(cont_bb);
        self.block = cont_bb;
    }
}

/// Collects legacy-aggregate slot sizes in the exact order lowering
/// requests storage for escaping variables. Stops at parallel-region
/// boundaries (their locals belong to the outlined function) but counts
/// each region's capture struct.
fn collect_legacy_slots(
    body: &Stmt,
    escaping: &HashSet<String>,
    all_names: &HashSet<String>,
    out: &mut Vec<u64>,
) {
    walk(
        body,
        |s| {
            match s {
                Stmt::VarDecl {
                    name, ty, array, ..
                } if escaping.contains(name) => out.push(storage_size(*ty, *array)),
                Stmt::For { header, .. } if escaping.contains(&header.var) => {
                    out.push(storage_size(header.ty, None))
                }
                Stmt::Omp {
                    directive: OmpDirective::Parallel { .. },
                    body: Some(b),
                } => {
                    let ncaps = captured_vars(b, all_names).len();
                    if ncaps > 0 {
                        out.push(8 * ncaps as u64);
                    }
                    return false;
                }
                _ => {}
            }
            true
        },
        |_| {},
    );
}
