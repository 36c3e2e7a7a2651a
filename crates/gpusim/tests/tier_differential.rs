//! Differential testing of the two execution tiers: `Tier::Compiled`
//! (fused block bodies wherever a block has one) must be
//! observationally indistinguishable from `Tier::Interp` (every block
//! entry by entry) — bit-identical outputs,
//! statistics, per-team cycle counts, and failure diagnostics — for
//! every program, launch geometry, worker-thread count, and
//! instruction budget; and so must what the observers report of it:
//! profiles, sanitizer findings, and injected faults. (The legs over
//! the proxies and the sanitizer fixtures need the optimizer pipeline
//! and live in `crates/core/tests/tier_observers.rs`.)

use omp_frontend::{compile, FrontendOptions};
use omp_gpusim::{
    findings_to_json, Device, DeviceConfig, FaultPlan, KernelStats, Launch, LaunchDims,
    ProfileMode, RtVal, SanitizeMode, SimError, StatsSnapshot, Tier,
};
use omp_ir::{BinOp, Builder, CmpOp, ExecMode, Function, KernelInfo, Module, Type, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// A kernel mixing every fusion-eligible idiom: address-calc + load,
/// load + arith + store, compare + branch, constant-operand
/// arithmetic, selects, and a math call.
const MIXED_SRC: &str = r#"
void mixed(double* a, double* b, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) {
    double x = a[i] * 2.0 + b[i];
    double y = fabs(x);
    if (i % 3 == 0) { y = y + sqrt(y + 1.0); }
    a[i] = y;
  }
}
"#;

/// A generic-mode kernel: the sequential team loop runs entry by entry
/// around every runtime call while the parallel body runs fused.
const GENERIC_SRC: &str = r#"
void nested(double* a, long n) {
  #pragma omp target teams distribute
  for (long blk = 0; blk < n; blk++) {
    double base = (double)blk * 1.5;
    #pragma omp parallel for
    for (long t = 0; t < 8; t++) { a[blk * 8 + t] = base + (double)t; }
  }
}
"#;

fn build(src: &str) -> Arc<Module> {
    let m = compile(src, &FrontendOptions::default()).unwrap();
    omp_ir::verifier::assert_valid(&m);
    Arc::new(m)
}

/// Snapshot with the tier-dependent counters normalized away so the
/// rest can be compared across tiers.
fn norm(s: &KernelStats) -> StatsSnapshot {
    let mut snap = s.snapshot();
    // Superinstruction hit counters are tier-dependent by construction
    // (the interpreter executes no compiled steps).
    snap.superinstructions = [0; 4];
    snap
}

/// Runs `kernel` twice — interpreter, then compiled — with identical
/// inputs and knobs, and asserts every observable is bit-identical.
/// Returns the interpreter outcome for additional checks.
#[allow(clippy::too_many_arguments)]
fn assert_tiers_agree(
    m: &Arc<Module>,
    kernel: &str,
    init: &[f64],
    extra: &[RtVal],
    dims: LaunchDims,
    jobs: u32,
    num_sms: u32,
    max_insts: Option<u64>,
) -> Result<(Vec<f64>, KernelStats), String> {
    let run = |tier: Tier| {
        let mut dev = Device::new(
            Arc::clone(m),
            DeviceConfig {
                num_sms,
                ..DeviceConfig::default()
            },
        )
        .unwrap();
        dev.set_tier(tier);
        dev.set_jobs(jobs);
        if let Some(b) = max_insts {
            dev.set_max_insts(b);
        }
        let buf = dev.alloc_f64(init).unwrap();
        let mut args = vec![RtVal::Ptr(buf)];
        args.extend_from_slice(extra);
        match dev.launch(kernel, &args, dims) {
            Ok(Launch { stats, .. }) => {
                let out = dev.read_f64(buf, init.len()).unwrap();
                let fused = stats.snapshot().superinstructions;
                assert!(
                    tier == Tier::Compiled || fused == [0; 4],
                    "the interpreter tier ran compiled blocks: {fused:?}"
                );
                Ok((out, stats))
            }
            Err(e) => Err(e.to_string()),
        }
    };
    let interp = run(Tier::Interp);
    let compiled = run(Tier::Compiled);
    match (&interp, &compiled) {
        (Ok((oi, si)), Ok((oc, sc))) => {
            assert_eq!(
                oi.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                oc.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "outputs diverged between tiers"
            );
            assert_eq!(norm(si), norm(sc), "statistics diverged between tiers");
            assert_eq!(si.team_cycles, sc.team_cycles, "team cycles diverged");
            assert_eq!(si.coalesced_accesses, sc.coalesced_accesses);
            assert_eq!(si.uncoalesced_accesses, sc.uncoalesced_accesses);
            for (k, v) in &si.rtl_calls {
                assert_eq!(sc.rtl_calls.get(k), Some(v), "rtl call count for {k}");
            }
        }
        (Err(ei), Err(ec)) => {
            assert_eq!(ei, ec, "failure diagnostics diverged between tiers");
        }
        (Ok(_), Err(e)) => panic!("interp succeeded but compiled failed: {e}"),
        (Err(e), Ok(_)) => panic!("compiled succeeded but interp failed: {e}"),
    }
    interp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random geometry × worker count × SM count on the fusion-heavy
    /// SPMD kernel: outputs, stats, and team cycles bit-identical.
    #[test]
    fn mixed_kernel_is_tier_invariant(
        n in 1usize..64,
        teams in 1u32..5,
        threads in 1u32..33,
        jobs in 1u32..4,
        num_sms in 1u32..5,
    ) {
        let m = build(MIXED_SRC);
        let a: Vec<f64> = (0..n).map(|i| (i as f64) - 7.5).collect();
        let b: Vec<f64> = (0..n).map(|i| (i * 3) as f64 * 0.25).collect();
        let dims = LaunchDims { teams: Some(teams), threads: Some(threads) };
        let run = |tier: Tier| {
            let mut dev = Device::new(
                Arc::clone(&m),
                DeviceConfig { num_sms, ..DeviceConfig::default() },
            )
            .unwrap();
            dev.set_tier(tier);
            dev.set_jobs(jobs);
            let ab = dev.alloc_f64(&a).unwrap();
            let bb = dev.alloc_f64(&b).unwrap();
            let stats = dev
                .launch("mixed", &[RtVal::Ptr(ab), RtVal::Ptr(bb), RtVal::I64(n as i64)], dims)
                .unwrap().stats;
            (dev.read_f64(ab, n).unwrap(), stats)
        };
        let (oi, si) = run(Tier::Interp);
        let (oc, sc) = run(Tier::Compiled);
        prop_assert_eq!(
            oi.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            oc.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        prop_assert_eq!(norm(&si), norm(&sc));
        prop_assert_eq!(si.team_cycles, sc.team_cycles);
    }

    /// Generic-mode worker state machine under both tiers: the
    /// per-entry runs around parallel-region calls must preserve every
    /// counter.
    #[test]
    fn generic_kernel_is_tier_invariant(
        n in 1usize..9,
        jobs in 1u32..4,
        num_sms in 1u32..5,
    ) {
        let m = build(GENERIC_SRC);
        let init = vec![0.0; n * 8];
        let dims = LaunchDims { teams: Some(2), threads: Some(8) };
        let _ = assert_tiers_agree(
            &m, "nested", &init, &[RtVal::I64(n as i64)], dims, jobs, num_sms, None,
        );
    }

    /// Instruction-budget sweep: for every budget the two tiers stop
    /// at the same instruction with the same diagnostic — the compiled
    /// engine's amortized budget check must deopt, not overshoot.
    #[test]
    fn budget_exhaustion_is_tier_exact(budget in 1u64..2_500) {
        let m = build(MIXED_SRC);
        let n = 24usize;
        let init: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let dims = LaunchDims { teams: Some(2), threads: Some(8) };
        let run = |tier: Tier| {
            let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
            dev.set_tier(tier);
            dev.set_max_insts(budget);
            let ab = dev.alloc_f64(&init).unwrap();
            let bb = dev.alloc_f64(&init).unwrap();
            dev.launch("mixed", &[RtVal::Ptr(ab), RtVal::Ptr(bb), RtVal::I64(n as i64)], dims)
                .map(|l| {
                    (dev.read_f64(ab, n).unwrap(), norm(&l.stats), l.stats.team_cycles)
                })
                .map_err(|e| e.to_string())
        };
        prop_assert_eq!(run(Tier::Interp), run(Tier::Compiled));
    }
}

// ---------------------------------------------------------------------
// Superinstruction decomposition: each fused pattern must charge the
// same instructions, cycles, and memory accesses as its unfused
// sequence — asserted by running the *same* IR under both tiers, with
// use counts steering whether the intermediate register is written.
// ---------------------------------------------------------------------

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

/// Runs a handwritten one-thread kernel under both tiers over an i64
/// buffer and asserts outputs and statistics are bit-identical.
fn assert_ir_tier_identical(m: &Arc<Module>, kernel: &str, init: &[i64]) -> Vec<i64> {
    let run = |tier: Tier| {
        let mut dev = Device::new(Arc::clone(m), DeviceConfig::default()).unwrap();
        dev.set_tier(tier);
        let buf = dev.alloc_i64(init).unwrap();
        let stats = dev
            .launch(kernel, &[RtVal::Ptr(buf)], one_thread())
            .unwrap()
            .stats;
        (dev.read_i64(buf, init.len()).unwrap(), norm(&stats))
    };
    let (oi, si) = run(Tier::Interp);
    let (oc, sc) = run(Tier::Compiled);
    assert_eq!(oi, oc, "outputs diverged");
    assert_eq!(si, sc, "stats diverged");
    oi
}

/// gep → load where the address has exactly one use: fuses into a
/// GepLoad with no intermediate register write.
#[test]
fn gep_load_fusion_single_use() {
    let mut m = Module::new("t");
    let f = m.add_function(Function::definition("k", vec![Type::Ptr], Type::Void));
    {
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.gep_const(Value::Arg(0), 8);
        let v = b.load(Type::I64, p);
        let v2 = b.bin(BinOp::Mul, Type::I64, v, Value::i64(3));
        b.store(v2, Value::Arg(0));
        b.ret(None);
    }
    kernelize(&mut m, f, "k");
    omp_ir::verifier::assert_valid(&m);
    let out = assert_ir_tier_identical(&Arc::new(m), "k", &[0, 11]);
    assert_eq!(out[0], 33);
}

/// gep → load where the address is reused by a later store: still
/// fuses, but the intermediate register must be materialized.
#[test]
fn gep_load_fusion_multi_use_writes_intermediate() {
    let mut m = Module::new("t");
    let f = m.add_function(Function::definition("k", vec![Type::Ptr], Type::Void));
    {
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.gep_const(Value::Arg(0), 8);
        let v = b.load(Type::I64, p);
        let v2 = b.bin(BinOp::Add, Type::I64, v, Value::i64(5));
        // Second use of `p`: the fused GepLoad must still write it.
        b.store(v2, p);
        b.ret(None);
    }
    kernelize(&mut m, f, "k");
    omp_ir::verifier::assert_valid(&m);
    let out = assert_ir_tier_identical(&Arc::new(m), "k", &[0, 11]);
    assert_eq!(out[1], 16);
}

/// load → bin → store read-modify-write collapses into one
/// superinstruction when the intermediates are single-use.
#[test]
fn load_bin_store_fusion() {
    let mut m = Module::new("t");
    let f = m.add_function(Function::definition("k", vec![Type::Ptr], Type::Void));
    {
        let mut b = Builder::at_entry(&mut m, f);
        let v = b.load(Type::I64, Value::Arg(0));
        let v2 = b.bin(BinOp::Add, Type::I64, v, Value::i64(100));
        b.store(v2, Value::Arg(0));
        b.ret(None);
    }
    kernelize(&mut m, f, "k");
    omp_ir::verifier::assert_valid(&m);
    let out = assert_ir_tier_identical(&Arc::new(m), "k", &[7]);
    assert_eq!(out[0], 107);
}

/// cmp → cond_br feeding the terminator fuses into a CmpBr; both
/// branch directions and the loop back-edge phi moves must agree.
#[test]
fn cmp_branch_fusion_loop() {
    let mut m = Module::new("t");
    let f = m.add_function(Function::definition("k", vec![Type::Ptr], Type::Void));
    {
        let mut b = Builder::at_entry(&mut m, f);
        let entry = b.current_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64);
        let acc = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::i64(0));
        b.add_phi_incoming(acc, entry, Value::i64(0));
        let c = b.cmp(CmpOp::Slt, Type::I64, i, Value::i64(10));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i2 = b.add_i64(i, Value::i64(1));
        let acc2 = b.add_i64(acc, i2);
        b.add_phi_incoming(i, body, i2);
        b.add_phi_incoming(acc, body, acc2);
        b.br(header);
        b.switch_to(exit);
        b.store(acc, Value::Arg(0));
        b.ret(None);
    }
    kernelize(&mut m, f, "k");
    omp_ir::verifier::assert_valid(&m);
    let out = assert_ir_tier_identical(&Arc::new(m), "k", &[0]);
    assert_eq!(out[0], 55);
}

/// A one-thread kernel `k(ptr)` whose body `body` builds; the kernel is
/// not verified, so it may be as malformed as a trap needs.
fn handwritten_kernel(body: impl FnOnce(&mut Builder)) -> Arc<Module> {
    let mut m = Module::new("t");
    let f = m.add_function(Function::definition("k", vec![Type::Ptr], Type::Void));
    body(&mut Builder::at_entry(&mut m, f));
    kernelize(&mut m, f, "k");
    Arc::new(m)
}

/// Runtime traps carry the same message and provenance on both tiers,
/// pinned literally: the faulting position restored by a fused step,
/// and every trap a terminator, a phi edge or a call operand raises.
#[test]
fn trap_diagnostics_are_tier_identical() {
    // `v` is defined in a block no edge reaches, so reading it traps.
    fn undefined(b: &mut Builder) -> Value {
        let (here, dead) = (b.current_block(), b.new_block());
        b.switch_to(dead);
        let v = b.add_i64(Value::i64(1), Value::i64(2));
        b.ret(None);
        b.switch_to(here);
        v
    }
    let rows: Vec<(&str, Arc<Module>, &str)> = vec![
        (
            "gep on a non-pointer inside a fused gep+load",
            handwritten_kernel(|b| {
                let p = b.gep_const(Value::i64(0x7777_7777), 8);
                let v = b.load(Type::I64, p);
                b.store(v, Value::Arg(0));
                b.ret(None);
            }),
            "trap: gep on non-pointer (in @k, block 0, inst 0, team 0, thread 0)",
        ),
        (
            "phi with no incoming for the taken predecessor",
            handwritten_kernel(|b| {
                let (entry, join, other) = (b.current_block(), b.new_block(), b.new_block());
                b.store(Value::i64(1), Value::Arg(0));
                b.br(join);
                b.switch_to(other);
                b.br(join);
                b.switch_to(join);
                let x = b.phi(Type::I64);
                let y = b.phi(Type::I64);
                b.add_phi_incoming(x, entry, Value::i64(3));
                b.add_phi_incoming(x, other, Value::i64(4));
                b.add_phi_incoming(y, other, Value::i64(5));
                b.store(y, Value::Arg(0));
                b.ret(None);
            }),
            "trap: phi %v2 has no incoming for predecessor bb0 (in @k, block 0, inst 1, team 0, thread 0)",
        ),
        (
            "condbr on a pointer",
            handwritten_kernel(|b| {
                let (t, e) = (b.new_block(), b.new_block());
                b.store(Value::i64(1), Value::Arg(0));
                b.cond_br(Value::Arg(0), t, e);
                b.switch_to(t);
                b.ret(None);
                b.switch_to(e);
                b.ret(None);
            }),
            "trap: branch on non-boolean (in @k, block 0, inst 1, team 0, thread 0)",
        ),
        (
            "ret of an undefined value",
            handwritten_kernel(|b| {
                let v = undefined(b);
                b.store(Value::i64(1), Value::Arg(0));
                b.ret(Some(v));
            }),
            "trap: use of undefined value %v0 (in @k, block 0, inst 1, team 0, thread 0)",
        ),
        (
            "in-order phi moves whose second move reads an undefined value",
            handwritten_kernel(|b| {
                let v = undefined(b);
                let (entry, join) = (b.current_block(), b.new_block());
                b.store(Value::i64(1), Value::Arg(0));
                b.br(join);
                b.switch_to(join);
                let x = b.phi(Type::I64);
                let y = b.phi(Type::I64);
                b.add_phi_incoming(x, entry, Value::i64(3));
                b.add_phi_incoming(y, entry, v);
                b.store(y, Value::Arg(0));
                b.ret(None);
            }),
            "trap: use of undefined value %v0 (in @k, block 0, inst 1, team 0, thread 0)",
        ),
        (
            "parallel region reading an argument region frames do not get",
            handwritten_kernel(|b| {
                let r = b.module().add_function(Function::definition(
                    "r",
                    vec![Type::Ptr, Type::I64],
                    Type::Void,
                ));
                {
                    let mut rb = Builder::at_entry(b.module(), r);
                    let v = rb.add_i64(Value::Arg(1), Value::i64(1));
                    rb.store(v, Value::Arg(0));
                    rb.ret(None);
                }
                b.call_rtl(
                    omp_ir::RtlFn::Parallel51,
                    vec![Value::Func(r), Value::i32(-1), Value::Arg(0)],
                );
                b.ret(None);
            }),
            "trap: missing argument 1 (in @r, block 0, inst 0, team 0, thread 0)",
        ),
        (
            "undefined argument to a direct call",
            handwritten_kernel(|b| {
                let g = b
                    .module()
                    .add_function(Function::definition("g", vec![Type::I64], Type::Void));
                {
                    let mut gb = Builder::at_entry(b.module(), g);
                    gb.ret(None);
                }
                let v = undefined(b);
                b.store(Value::i64(1), Value::Arg(0));
                b.call(g, vec![v]);
                b.ret(None);
            }),
            "trap: use of undefined value %v0 (in @k, block 0, inst 1, team 0, thread 0)",
        ),
        (
            "undefined argument to a runtime call",
            handwritten_kernel(|b| {
                let v = undefined(b);
                b.store(Value::i64(1), Value::Arg(0));
                b.call_rtl(omp_ir::RtlFn::AllocShared, vec![v]);
                b.ret(None);
            }),
            "trap: use of undefined value %v0 (in @k, block 0, inst 1, team 0, thread 0)",
        ),
        (
            "indirect call through a non-function pointer",
            handwritten_kernel(|b| {
                b.store(Value::i64(1), Value::Arg(0));
                b.call_indirect(Value::Null, vec![], Type::Void);
                b.ret(None);
            }),
            "trap: indirect call through invalid target 0x0 (in @k, block 0, inst 1, team 0, thread 0)",
        ),
        (
            "unreachable",
            handwritten_kernel(|b| {
                b.store(Value::i64(1), Value::Arg(0));
                b.unreachable();
            }),
            "trap: reached `unreachable` in @k (in @k, block 0, inst 1, team 0, thread 0)",
        ),
    ];
    for (what, m, expect) in &rows {
        for tier in [Tier::Interp, Tier::Compiled] {
            let mut dev = Device::new(Arc::clone(m), DeviceConfig::default()).unwrap();
            dev.set_tier(tier);
            let buf = dev.alloc_i64(&[0]).unwrap();
            let err = dev
                .launch("k", &[RtVal::Ptr(buf)], one_thread())
                .map(|_| ())
                .unwrap_err()
                .to_string();
            assert_eq!(&err, expect, "{what} under {tier:?}");
        }
    }
}

/// A producer/consumer pipeline of dependent `nowait` targets: the
/// async-offload path (edge derivation, stream assignment, makespan
/// scheduling, capture/replay) must be as tier- and jobs-invariant as
/// a plain launch.
const PIPELINE_SRC: &str = r#"
void pipe(double* a, double* b, double* c, long n) {
  #pragma omp target teams distribute parallel for nowait depend(out: a) num_teams(2) thread_limit(8)
  for (long i = 0; i < n; i++) { a[i] = (double)i + 1.0; }
  #pragma omp target teams distribute parallel for nowait depend(out: b) num_teams(2) thread_limit(8)
  for (long i = 0; i < n; i++) { b[i] = (double)i * 2.0; }
  #pragma omp target teams distribute parallel for nowait depend(in: a, b) depend(out: c) num_teams(2) thread_limit(8)
  for (long i = 0; i < n; i++) { c[i] = a[i] + b[i]; }
}
"#;

/// Runs `PIPELINE_SRC` as a launch plan (eager or captured/replayed)
/// and returns the consumer output bits plus normalized statistics.
fn run_pipeline(m: &Arc<Module>, tier: Tier, jobs: u32, replay: bool) -> (Vec<u64>, StatsSnapshot) {
    let n = 48usize;
    let mut dev = Device::new(Arc::clone(m), DeviceConfig::default()).unwrap();
    dev.set_tier(tier);
    dev.set_jobs(jobs);
    let a = dev.alloc_f64(&vec![0.0; n]).unwrap();
    let b = dev.alloc_f64(&vec![0.0; n]).unwrap();
    let c = dev.alloc_f64(&vec![0.0; n]).unwrap();
    let args = [
        RtVal::Ptr(a),
        RtVal::Ptr(b),
        RtVal::Ptr(c),
        RtVal::I64(n as i64),
    ];
    let dims = LaunchDims::default();
    let stats = if replay {
        let graph = dev.capture_graph("pipe", &args, dims).unwrap();
        dev.replay_graph(&graph).unwrap()
    } else {
        dev.launch("pipe", &args, dims).unwrap().stats
    };
    let bits: Vec<u64> = dev
        .read_f64(c, n)
        .unwrap()
        .into_iter()
        .map(f64::to_bits)
        .collect();
    (bits, norm(&stats))
}

/// Launch plans and replays must be bit-identical across tiers, host
/// worker counts, and the eager-vs-replay axis — the same invariant a
/// single launch obeys, extended to the whole dependency graph.
#[test]
fn plans_and_replays_are_tier_and_jobs_invariant() {
    let m = build(PIPELINE_SRC);
    let (ref_bits, ref_stats) = run_pipeline(&m, Tier::Interp, 1, false);
    let expect: Vec<u64> = (0..48)
        .map(|i| ((i as f64 + 1.0) + (i as f64 * 2.0)).to_bits())
        .collect();
    assert_eq!(ref_bits, expect, "pipeline result must be correct");
    for tier in [Tier::Interp, Tier::Compiled] {
        for jobs in [1, 2, 5] {
            for replay in [false, true] {
                let (bits, stats) = run_pipeline(&m, tier, jobs, replay);
                assert_eq!(
                    bits, ref_bits,
                    "output divergence: tier={tier:?} jobs={jobs} replay={replay}"
                );
                assert_eq!(
                    stats, ref_stats,
                    "stats divergence: tier={tier:?} jobs={jobs} replay={replay}"
                );
            }
        }
    }
}

/// Every telemetry metric derived from a launch — counters and
/// histogram bucket counts alike — must be bit-identical across tiers,
/// worker counts, and the eager-vs-replay axis. Wall clock never
/// enters the registry; model cycles do, and they are deterministic.
#[test]
fn telemetry_metrics_are_tier_and_jobs_invariant() {
    let m = build(PIPELINE_SRC);
    let registry_of = |tier, jobs, replay| {
        let (_, stats) = run_pipeline(&m, tier, jobs, replay);
        let mut reg = omp_telemetry::MetricsRegistry::new();
        stats.record_metrics(&mut reg);
        reg
    };
    let reference = registry_of(Tier::Interp, 1, false);
    assert!(!reference.is_empty());
    for tier in [Tier::Interp, Tier::Compiled] {
        for jobs in [1, 4] {
            for replay in [false, true] {
                let reg = registry_of(tier, jobs, replay);
                assert_eq!(
                    reg, reference,
                    "metric divergence: tier={tier:?} jobs={jobs} replay={replay}"
                );
                // The renderings are pure functions of the registry,
                // so they must be byte-identical too.
                assert_eq!(reg.render_json(), reference.render_json());
                assert_eq!(reg.render_prometheus(), reference.render_prometheus());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Fuzz the host-parallelism and replay axes: any (jobs, replay)
    /// pair must reproduce the single-threaded eager plan bit-for-bit
    /// on both tiers.
    #[test]
    fn fuzz_plan_jobs_and_replay(jobs in 1u32..6, replay in any::<bool>()) {
        let m = build(PIPELINE_SRC);
        let (ref_bits, ref_stats) = run_pipeline(&m, Tier::Interp, 1, false);
        for tier in [Tier::Interp, Tier::Compiled] {
            let (bits, stats) = run_pipeline(&m, tier, jobs, replay);
            prop_assert_eq!(&bits, &ref_bits);
            prop_assert_eq!(&stats, &ref_stats);
        }
    }
}

// ---------------------------------------------------------------------
// Observers: the profiler, the sanitizer and the fault plan see the
// same events on both tiers.
// ---------------------------------------------------------------------

/// Everything a launch of `kernel` over `bufs` zeroed `f64` buffers of
/// `len` elements (its leading arguments) can report, tier tag aside: buffer bits, counters, team cycles, profile
/// JSON and findings JSON — or the structured error (kind, provenance,
/// thread positions, findings gathered before it).
type Observed = Result<(Vec<u64>, StatsSnapshot, Vec<u64>, Option<String>, String), SimError>;

fn observe(m: &Arc<Module>, kernel: &str, bufs: usize, len: usize, cfg: &DeviceConfig) -> Observed {
    let dims = LaunchDims {
        teams: Some(2),
        threads: Some(8),
    };
    let device = || {
        let mut dev = Device::new(Arc::clone(m), cfg.clone()).unwrap();
        let mut args: Vec<RtVal> = (0..bufs)
            .map(|_| RtVal::Ptr(dev.alloc_f64(&vec![0.0; len]).unwrap()))
            .collect();
        let buf = args[0].as_ptr().unwrap();
        args.push(RtVal::I64(4));
        (dev, buf, args)
    };
    // One launch hands back the profile, its twin the findings; both
    // run with every observer `cfg` enables.
    let (mut dev, buf, args) = device();
    let Launch { stats, profile, .. } = dev.launch(kernel, &args, dims)?;
    let bits = dev.read_f64(buf, len).unwrap();
    let (mut dev, _, args) = device();
    let Launch { findings, .. } = dev.launch(kernel, &args, dims)?;
    Ok((
        bits.into_iter().map(f64::to_bits).collect(),
        norm(&stats),
        stats.team_cycles,
        profile.map(|p| p.to_json()),
        findings_to_json(&findings),
    ))
}

fn assert_observed_alike(
    m: &Arc<Module>,
    kernel: &str,
    bufs: usize,
    len: usize,
    cfg: DeviceConfig,
) {
    let [interp, compiled] = [Tier::Interp, Tier::Compiled].map(|tier| {
        let cfg = DeviceConfig {
            tier,
            ..cfg.clone()
        };
        observe(m, kernel, bufs, len, &cfg)
    });
    assert_eq!(interp, compiled, "{kernel} under {cfg:?}");
}

/// The profiler and the sanitizer, alone and together, on a racy
/// generic-mode kernel (globalization, barriers, a worker state
/// machine) and on the fusion-heavy SPMD one.
#[test]
fn profile_and_sanitize_together_are_tier_identical() {
    const RACY_SRC: &str = r#"
void racy(double* a, long n) {
  #pragma omp target teams distribute
  for (long blk = 0; blk < n; blk++) {
    double base = (double)blk;
    #pragma omp parallel for
    for (long t = 0; t < 8; t++) { a[blk] = a[blk] + base + (double)t; }
  }
}
"#;
    let on = (ProfileMode::On, SanitizeMode::On);
    let off = (ProfileMode::Off, SanitizeMode::Off);
    for (profile, sanitize) in [(on.0, off.1), (off.0, on.1), on] {
        let cfg = DeviceConfig {
            profile,
            sanitize,
            ..DeviceConfig::default()
        };
        let racy = build(RACY_SRC);
        assert_observed_alike(&racy, "racy", 1, 4, cfg.clone());
        if sanitize == SanitizeMode::On {
            let seen = observe(&racy, "racy", 1, 4, &cfg).unwrap();
            assert!(seen.4.contains("data-race"), "{}", seen.4);
            assert_eq!(seen.3.is_some(), profile == ProfileMode::On);
        }
        assert_observed_alike(&build(GENERIC_SRC), "nested", 1, 32, cfg.clone());
        assert_observed_alike(&build(MIXED_SRC), "mixed", 2, 4, cfg.clone());
        observe(&build(MIXED_SRC), "mixed", 2, 4, &cfg).expect("mixed runs");
    }
}

/// Each `FaultPlan` knob alone fails (or degrades) the launch the same
/// way on both tiers, with and without observers listening.
#[test]
fn fault_knobs_are_tier_identical() {
    let m = build(GENERIC_SRC);
    let knobs = [
        FaultPlan {
            shared_stack_limit: Some(0),
            ..FaultPlan::default()
        },
        FaultPlan {
            fail_alloc_after: Some(1),
            ..FaultPlan::default()
        },
        FaultPlan {
            abort_team: Some(1),
            ..FaultPlan::default()
        },
        FaultPlan {
            trap_at_inst: Some(57),
            ..FaultPlan::default()
        },
    ];
    for fault in knobs {
        for sanitize in [SanitizeMode::Off, SanitizeMode::On] {
            let cfg = DeviceConfig {
                fault: fault.clone(),
                sanitize,
                profile: ProfileMode::On,
                ..DeviceConfig::default()
            };
            assert_observed_alike(&m, "nested", 1, 32, cfg.clone());
            let failed = observe(&m, "nested", 1, 32, &cfg).is_err();
            assert_eq!(failed, fault.shared_stack_limit.is_none(), "{fault:?}");
        }
    }
}

/// An injected trap lands on the exact instruction on both tiers, also
/// when that instruction is the second or third component of a fused
/// `LoadBinStore` or the compare of a fused `CmpBr` (the compiled tier
/// deopts the block the budget might trip in), a call, a `ret`, a phi
/// edge, or the first instruction after a call returns mid-block.
#[test]
fn injected_traps_land_inside_fused_steps() {
    // entry: v = load a; v2 = v + 100; store v2, a; c = v2 < 0; br c, ..
    let mut m = Module::new("t");
    let f = m.add_function(Function::definition("k", vec![Type::Ptr], Type::Void));
    {
        let mut b = Builder::at_entry(&mut m, f);
        let (then_bb, exit) = (b.new_block(), b.new_block());
        let v = b.load(Type::I64, Value::Arg(0));
        let v2 = b.bin(BinOp::Add, Type::I64, v, Value::i64(100));
        b.store(v2, Value::Arg(0));
        let c = b.cmp(CmpOp::Slt, Type::I64, v2, Value::i64(0));
        b.cond_br(c, then_bb, exit);
        b.switch_to(then_bb);
        b.br(exit);
        b.switch_to(exit);
        b.ret(None);
    }
    kernelize(&mut m, f, "k");
    omp_ir::verifier::assert_valid(&m);
    let m = Arc::new(m);
    let run = |m: &Arc<Module>, tier: Tier, trap: u64| {
        let mut cfg = DeviceConfig {
            tier,
            ..DeviceConfig::default()
        };
        cfg.fault.trap_at_inst = Some(trap);
        let mut dev = Device::new(Arc::clone(m), cfg).unwrap();
        let buf = dev.alloc_i64(&[7]).unwrap();
        dev.launch("k", &[RtVal::Ptr(buf)], one_thread())
            .map(|l| (norm(&l.stats), dev.read_i64(buf, 1).unwrap()))
    };
    // The fusion this test is about really happens.
    let fused = run(&m, Tier::Compiled, 1_000).unwrap();
    assert_eq!(fused.1, [107]);
    let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
    let buf = dev.alloc_i64(&[7]).unwrap();
    let stats = dev
        .launch("k", &[RtVal::Ptr(buf)], one_thread())
        .unwrap()
        .stats;
    assert_eq!((stats.fused_load_bin_store, stats.fused_cmp_br), (1, 1));
    // Instruction n of the thread is code entry n - 1 of the entry
    // block: 1 = load, 2 = add, 3 = store, 4 = compare, 5 = branch.
    for trap in 1..=7 {
        let (interp, compiled) = (run(&m, Tier::Interp, trap), run(&m, Tier::Compiled, trap));
        assert_eq!(interp, compiled, "trap at {trap}");
        if trap <= 5 {
            let at = interp.unwrap_err().provenance.expect("provenance");
            assert_eq!((at.block, at.inst), (0, trap as u32 - 1), "trap at {trap}");
        }
    }

    // k: r = g(a, 5); c = r > 0; br c, then, join
    // then: r2 = r + 1; br join
    // join: p = phi [entry: r], [then: r2]; store p, a; ret
    // g(a, x): v = load a; s = v + x; ret s
    let mut m = Module::new("t");
    let g = m.add_function(Function::definition(
        "g",
        vec![Type::Ptr, Type::I64],
        Type::I64,
    ));
    {
        let mut b = Builder::at_entry(&mut m, g);
        let v = b.load(Type::I64, Value::Arg(0));
        let s = b.add_i64(v, Value::Arg(1));
        b.ret(Some(s));
    }
    let f = m.add_function(Function::definition("k", vec![Type::Ptr], Type::Void));
    {
        let mut b = Builder::at_entry(&mut m, f);
        let entry = b.current_block();
        let (then_bb, join) = (b.new_block(), b.new_block());
        let r = b.call(g, vec![Value::Arg(0), Value::i64(5)]);
        let c = b.cmp(CmpOp::Sgt, Type::I64, r, Value::i64(0));
        b.cond_br(c, then_bb, join);
        b.switch_to(then_bb);
        let r2 = b.add_i64(r, Value::i64(1));
        b.br(join);
        b.switch_to(join);
        let p = b.phi(Type::I64);
        b.add_phi_incoming(p, entry, r);
        b.add_phi_incoming(p, then_bb, r2);
        b.store(p, Value::Arg(0));
        b.ret(None);
    }
    kernelize(&mut m, f, "k");
    omp_ir::verifier::assert_valid(&m);
    let m = Arc::new(m);
    assert_eq!(run(&m, Tier::Compiled, 1_000).unwrap().1, [13]);
    // Where dynamic instruction n traps: (function, block, code index).
    let positions = [
        ("k", 0, 0),
        ("g", 0, 0),
        ("g", 0, 1),
        ("g", 0, 2),
        ("k", 0, 1),
        ("k", 0, 2),
        ("k", 1, 0),
        ("k", 1, 1),
        ("k", 2, 0),
        ("k", 2, 1),
    ];
    for (n, want) in positions.into_iter().enumerate() {
        let trap = n as u64 + 1;
        let (interp, compiled) = (run(&m, Tier::Interp, trap), run(&m, Tier::Compiled, trap));
        assert_eq!(interp, compiled, "trap at {trap}");
        let at = interp.unwrap_err().provenance.expect("provenance");
        assert_eq!(
            (at.function.as_str(), at.block, at.inst),
            want,
            "trap at {trap}"
        );
    }
    assert!(run(&m, Tier::Interp, 11).is_ok());
}
