//! Launching hand-built IR modules (no frontend): exercises interpreter
//! semantics that the dialect cannot express directly — phi swap
//! simultaneity, unsigned operations, casts, and selects.

use omp_gpusim::{Device, DeviceConfig, LaunchDims, RtVal, Tier};
use omp_ir::{BinOp, Builder, CastOp, CmpOp, ExecMode, Function, KernelInfo, Module, Type, Value};

fn kernelize(m: &mut Module, f: omp_ir::FuncId, name: &str) {
    m.kernels.push(KernelInfo {
        func: f,
        exec_mode: ExecMode::Spmd,
        num_teams: Some(1),
        thread_limit: Some(1),
        source_name: name.into(),
        launch: Default::default(),
    });
}

fn one_thread() -> LaunchDims {
    LaunchDims {
        teams: Some(1),
        threads: Some(1),
    }
}

/// The classic phi-swap: `(a, b) = (b, a)` each iteration. Evaluating
/// phis sequentially instead of simultaneously would corrupt one of
/// them.
#[test]
fn phi_swap_is_simultaneous() {
    let mut m = Module::new("t");
    let f = m.add_function(Function::definition(
        "swap",
        vec![Type::Ptr, Type::I64],
        Type::Void,
    ));
    {
        let mut b = Builder::at_entry(&mut m, f);
        let entry = b.current_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64);
        let a = b.phi(Type::I64);
        let bb = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::i64(0));
        b.add_phi_incoming(a, entry, Value::i64(1));
        b.add_phi_incoming(bb, entry, Value::i64(2));
        let c = b.cmp(CmpOp::Slt, Type::I64, i, Value::Arg(1));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i2 = b.add_i64(i, Value::i64(1));
        // swap: a' = b, b' = a
        b.add_phi_incoming(i, body, i2);
        b.add_phi_incoming(a, body, bb);
        b.add_phi_incoming(bb, body, a);
        b.br(header);
        b.switch_to(exit);
        b.store(a, Value::Arg(0));
        let slot1 = b.gep_const(Value::Arg(0), 8);
        b.store(bb, slot1);
        b.ret(None);
    }
    kernelize(&mut m, f, "swap");
    omp_ir::verifier::assert_valid(&m);
    let mut dev = Device::new(&m, DeviceConfig::default()).unwrap();
    let out = dev.alloc_i64(&[0, 0]).unwrap();
    // Odd number of swaps: (1,2) -> (2,1)
    dev.launch("swap", &[RtVal::Ptr(out), RtVal::I64(5)], one_thread())
        .unwrap();
    assert_eq!(dev.read_i64(out, 2).unwrap(), vec![2, 1]);
    // Even number of swaps: back to (1,2)
    dev.launch("swap", &[RtVal::Ptr(out), RtVal::I64(4)], one_thread())
        .unwrap();
    assert_eq!(dev.read_i64(out, 2).unwrap(), vec![1, 2]);
}

/// A one-directional hazard on a back edge: `b` is reassigned by a phi
/// placed before `a = phi [.., %b]`, so the edge's moves are not safe to
/// apply in order — `a` must still see the `b` of the previous
/// iteration, on both tiers.
#[test]
fn phi_reading_an_earlier_phi_sees_its_old_value() {
    let mut m = Module::new("t");
    let f = m.add_function(Function::definition(
        "lag",
        vec![Type::Ptr, Type::I64],
        Type::Void,
    ));
    {
        let mut b = Builder::at_entry(&mut m, f);
        let entry = b.current_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64);
        let bb = b.phi(Type::I64);
        let a = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::i64(0));
        b.add_phi_incoming(bb, entry, Value::i64(7));
        b.add_phi_incoming(a, entry, Value::i64(0));
        let c = b.cmp(CmpOp::Slt, Type::I64, i, Value::Arg(1));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i2 = b.add_i64(i, Value::i64(1));
        b.add_phi_incoming(i, body, i2);
        b.add_phi_incoming(bb, body, Value::i64(1));
        b.add_phi_incoming(a, body, bb);
        b.br(header);
        b.switch_to(exit);
        b.store(a, Value::Arg(0));
        let slot1 = b.gep_const(Value::Arg(0), 8);
        b.store(bb, slot1);
        b.ret(None);
    }
    kernelize(&mut m, f, "lag");
    omp_ir::verifier::assert_valid(&m);
    for tier in [Tier::Interp, Tier::Compiled] {
        let mut dev = Device::new(&m, DeviceConfig::default()).unwrap();
        dev.set_tier(tier);
        let out = dev.alloc_i64(&[0, 0]).unwrap();
        for (n, want) in [(0, [0, 7]), (1, [7, 1]), (3, [1, 1])] {
            dev.launch("lag", &[RtVal::Ptr(out), RtVal::I64(n)], one_thread())
                .unwrap();
            assert_eq!(dev.read_i64(out, 2).unwrap(), want, "n={n} under {tier:?}");
        }
    }
}

/// Unsigned division/comparison and zero-extension semantics.
#[test]
fn unsigned_ops_and_casts() {
    let mut m = Module::new("t");
    let f = m.add_function(Function::definition("u", vec![Type::Ptr], Type::Void));
    {
        let mut b = Builder::at_entry(&mut m, f);
        // -8 as u32 / 2
        let udiv = b.bin(BinOp::UDiv, Type::I32, Value::i32(-8), Value::i32(2));
        let wide = b.cast(CastOp::ZExt, udiv, Type::I64);
        b.store(wide, Value::Arg(0));
        // unsigned comparison: -1 (as u32) > 5
        let ug = b.cmp(CmpOp::Ugt, Type::I32, Value::i32(-1), Value::i32(5));
        let ug64 = b.cast(CastOp::ZExt, ug, Type::I64);
        let s1 = b.gep_const(Value::Arg(0), 8);
        b.store(ug64, s1);
        // trunc of a large i64
        let t = b.cast(CastOp::Trunc, Value::i64(0x1_2345_6789), Type::I32);
        let t64 = b.cast(CastOp::SExt, t, Type::I64);
        let s2 = b.gep_const(Value::Arg(0), 16);
        b.store(t64, s2);
        // lshr vs ashr
        let lshr = b.bin(BinOp::LShr, Type::I32, Value::i32(-16), Value::i32(2));
        let l64 = b.cast(CastOp::ZExt, lshr, Type::I64);
        let s3 = b.gep_const(Value::Arg(0), 24);
        b.store(l64, s3);
        b.ret(None);
    }
    kernelize(&mut m, f, "u");
    omp_ir::verifier::assert_valid(&m);
    let mut dev = Device::new(&m, DeviceConfig::default()).unwrap();
    let out = dev.alloc_i64(&[0; 4]).unwrap();
    dev.launch("u", &[RtVal::Ptr(out)], one_thread()).unwrap();
    let v = dev.read_i64(out, 4).unwrap();
    assert_eq!(v[0], ((u32::MAX - 7) / 2) as i64);
    assert_eq!(v[1], 1);
    assert_eq!(v[2], 0x2345_6789);
    assert_eq!(v[3], ((-16i32 as u32) >> 2) as i64);
}

/// Select on both arms, fp casts, and f32 rounding.
#[test]
fn selects_and_float_casts() {
    let mut m = Module::new("t");
    let f = m.add_function(Function::definition(
        "s",
        vec![Type::Ptr, Type::I1],
        Type::Void,
    ));
    {
        let mut b = Builder::at_entry(&mut m, f);
        let sel = b.select(Value::Arg(1), Type::F64, Value::f64(1.25), Value::f64(-2.5));
        b.store(sel, Value::Arg(0));
        // f64 -> f32 -> f64 loses precision deterministically
        let narrow = b.cast(CastOp::FpTrunc, Value::f64(0.1), Type::F32);
        let wide = b.cast(CastOp::FpExt, narrow, Type::F64);
        let s1 = b.gep_const(Value::Arg(0), 8);
        b.store(wide, s1);
        // fptosi truncates toward zero
        let i = b.cast(CastOp::FpToSi, Value::f64(-3.9), Type::I64);
        let fl = b.cast(CastOp::SiToFp, i, Type::F64);
        let s2 = b.gep_const(Value::Arg(0), 16);
        b.store(fl, s2);
        b.ret(None);
    }
    kernelize(&mut m, f, "s");
    omp_ir::verifier::assert_valid(&m);
    let mut dev = Device::new(&m, DeviceConfig::default()).unwrap();
    let out = dev.alloc_f64(&[0.0; 3]).unwrap();
    dev.launch("s", &[RtVal::Ptr(out), RtVal::Bool(true)], one_thread())
        .unwrap();
    let v = dev.read_f64(out, 3).unwrap();
    assert_eq!(v[0], 1.25);
    assert_eq!(v[1], 0.1f32 as f64);
    assert_eq!(v[2], -3.0);
    dev.launch("s", &[RtVal::Ptr(out), RtVal::Bool(false)], one_thread())
        .unwrap();
    assert_eq!(dev.read_f64(out, 3).unwrap()[0], -2.5);
}

/// Division by zero at runtime is a trap, not a wrong answer.
#[test]
fn division_by_zero_traps() {
    let mut m = Module::new("t");
    let f = m.add_function(Function::definition(
        "d",
        vec![Type::Ptr, Type::I64],
        Type::Void,
    ));
    {
        let mut b = Builder::at_entry(&mut m, f);
        let q = b.bin(BinOp::SDiv, Type::I64, Value::i64(10), Value::Arg(1));
        b.store(q, Value::Arg(0));
        b.ret(None);
    }
    kernelize(&mut m, f, "d");
    let mut dev = Device::new(&m, DeviceConfig::default()).unwrap();
    let out = dev.alloc_i64(&[0]).unwrap();
    dev.launch("d", &[RtVal::Ptr(out), RtVal::I64(2)], one_thread())
        .unwrap();
    assert_eq!(dev.read_i64(out, 1).unwrap()[0], 5);
    let err = dev
        .launch("d", &[RtVal::Ptr(out), RtVal::I64(0)], one_thread())
        .unwrap_err();
    assert!(matches!(err.kind, omp_gpusim::SimErrorKind::Trap(_)));
}

/// `unreachable` reached at runtime is reported as a trap with the
/// function name.
#[test]
fn unreachable_reports_function() {
    let mut m = Module::new("t");
    let f = m.add_function(Function::definition("bad", vec![Type::Ptr], Type::Void));
    {
        let fun = m.func_mut(f);
        let e = fun.entry();
        fun.block_mut(e).term = omp_ir::Terminator::Unreachable;
    }
    kernelize(&mut m, f, "bad");
    let mut dev = Device::new(&m, DeviceConfig::default()).unwrap();
    let out = dev.alloc_i64(&[0]).unwrap();
    let err = dev
        .launch("bad", &[RtVal::Ptr(out)], one_thread())
        .unwrap_err();
    match err.kind {
        omp_gpusim::SimErrorKind::Trap(msg) => assert!(msg.contains("bad"), "{msg}"),
        other => panic!("{other:?}"),
    }
}

/// Shared-space module globals resolve per team and are initialized.
#[test]
fn global_initializers_and_shared_globals() {
    let mut m = Module::new("t");
    let ginit = m.add_global(omp_ir::Global {
        name: "seed".into(),
        size: 8,
        align: 8,
        space: omp_ir::AddrSpace::Global,
        init: Some(42i64.to_le_bytes().to_vec()),
        is_const: false,
    });
    let gshared = m.add_global(omp_ir::Global {
        name: "scratch".into(),
        size: 8,
        align: 8,
        space: omp_ir::AddrSpace::Shared,
        init: None,
        is_const: false,
    });
    let f = m.add_function(Function::definition("g", vec![Type::Ptr], Type::Void));
    {
        let mut b = Builder::at_entry(&mut m, f);
        let seed = b.load(Type::I64, Value::Global(ginit));
        let team = b.call_rtl(omp_ir::RtlFn::TeamNum, vec![]);
        let team64 = b.cast(CastOp::SExt, team, Type::I64);
        let v = b.add_i64(seed, team64);
        b.store(v, Value::Global(gshared));
        let back = b.load(Type::I64, Value::Global(gshared));
        let slot = b.gep_elem8(Value::Arg(0), team64);
        b.store(back, slot);
        b.ret(None);
    }
    kernelize(&mut m, f, "g");
    omp_ir::verifier::assert_valid(&m);
    let mut dev = Device::new(&m, DeviceConfig::default()).unwrap();
    let out = dev.alloc_i64(&[0, 0]).unwrap();
    dev.launch(
        "g",
        &[RtVal::Ptr(out)],
        LaunchDims {
            teams: Some(2),
            threads: Some(1),
        },
    )
    .unwrap();
    // Each team sees its own shared `scratch`: no cross-team clobber.
    assert_eq!(dev.read_i64(out, 2).unwrap(), vec![42, 43]);
}

/// GEP address arithmetic wraps: `gep(p, i64::MAX, 8, 0)` is `p - 8`,
/// a structured memory trap on both tiers and in every build profile,
/// never an overflow panic in the worker thread. `st` runs the plain
/// gep step; `ld`'s gep feeds a load, which the compiled tier fuses.
#[test]
fn gep_offset_overflow_wraps_to_a_memory_trap() {
    let mut m = Module::new("t");
    for (name, load) in [("st", false), ("ld", true)] {
        let f = m.add_function(Function::definition(
            name,
            vec![Type::Ptr, Type::I64],
            Type::Void,
        ));
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.gep(Value::Arg(0), Value::Arg(1), 8, 0);
        if load {
            let v = b.load(Type::I64, p);
            b.store(v, Value::Arg(0));
        } else {
            b.store(Value::i64(1), p);
        }
        b.ret(None);
        kernelize(&mut m, f, name);
    }
    omp_ir::verifier::assert_valid(&m);
    for name in ["st", "ld"] {
        let mut errs = Vec::new();
        for tier in [Tier::Interp, Tier::Compiled] {
            let mut dev = Device::new(&m, DeviceConfig::default()).unwrap();
            dev.set_tier(tier);
            let out = dev.alloc_i64(&[7, 7]).unwrap();
            dev.launch(name, &[RtVal::Ptr(out), RtVal::I64(1)], one_thread())
                .unwrap();
            let err = dev
                .launch(name, &[RtVal::Ptr(out), RtVal::I64(i64::MAX)], one_thread())
                .unwrap_err();
            let addr = match &err.kind {
                omp_gpusim::SimErrorKind::Mem(e) => e.to_string(),
                other => panic!("{name} under {tier:?}: {other:?}"),
            };
            errs.push(err.to_string());
            assert!(addr.contains(&format!("{:#x}", out - 8)), "{name}: {addr}");
        }
        assert_eq!(errs[0], errs[1], "{name}: the tiers disagree");
    }
}
