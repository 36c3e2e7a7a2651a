//! End-to-end execution tests: mini-C OpenMP source → IR → simulated
//! GPU, checking both results and cost-model behaviour.

use omp_frontend::{compile, FrontendOptions, GlobalizationScheme};
use omp_gpusim::{Device, DeviceConfig, LaunchDims, RtVal};
use std::sync::Arc;

fn build(src: &str) -> Arc<omp_ir::Module> {
    let m = compile(src, &FrontendOptions::default()).unwrap();
    omp_ir::verifier::assert_valid(&m);
    Arc::new(m)
}

fn build_legacy(src: &str) -> Arc<omp_ir::Module> {
    let opts = FrontendOptions {
        globalization: GlobalizationScheme::Legacy,
        ..FrontendOptions::default()
    };
    let m = compile(src, &opts).unwrap();
    omp_ir::verifier::assert_valid(&m);
    Arc::new(m)
}

fn dims(teams: u32, threads: u32) -> LaunchDims {
    LaunchDims {
        teams: Some(teams),
        threads: Some(threads),
    }
}

#[test]
fn spmd_axpy_computes_correctly() {
    let m = build(
        r#"
void axpy(double* x, double* y, double a, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) { y[i] = a * x[i] + y[i]; }
}
"#,
    );
    let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
    let n = 100usize;
    let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let y: Vec<f64> = vec![1.0; n];
    let xb = dev.alloc_f64(&x).unwrap();
    let yb = dev.alloc_f64(&y).unwrap();
    let stats = dev
        .launch(
            "axpy",
            &[
                RtVal::Ptr(xb),
                RtVal::Ptr(yb),
                RtVal::F64(2.0),
                RtVal::I64(n as i64),
            ],
            dims(4, 8),
        )
        .unwrap()
        .stats;
    let out = dev.read_f64(yb, n).unwrap();
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, 2.0 * i as f64 + 1.0, "element {i}");
    }
    assert!(stats.cycles > 0);
    assert!(stats.registers > 0);
}

#[test]
fn generic_distribute_with_nested_parallel() {
    // The paper's Figure 1 shape: distribute over teams, parallel for
    // inside, shared team_val captured by the region.
    let m = build(
        r#"
void fig1(double* out, long nblocks, long nthreads) {
  #pragma omp target teams distribute
  for (long b = 0; b < nblocks; b++) {
    double team_val = (double)b + 1.0;
    #pragma omp parallel for
    for (long t = 0; t < nthreads; t++) {
      out[b * nthreads + t] = team_val * 10.0 + (double)t;
    }
  }
}
"#,
    );
    let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
    let (nb, nt) = (4i64, 8i64);
    let out = dev.alloc_f64(&vec![0.0; (nb * nt) as usize]).unwrap();
    let stats = dev
        .launch(
            "fig1",
            &[RtVal::Ptr(out), RtVal::I64(nb), RtVal::I64(nt)],
            dims(2, 8),
        )
        .unwrap()
        .stats;
    let vals = dev.read_f64(out, (nb * nt) as usize).unwrap();
    for b in 0..nb {
        for t in 0..nt {
            assert_eq!(
                vals[(b * nt + t) as usize],
                (b + 1) as f64 * 10.0 + t as f64,
                "block {b} thread {t}"
            );
        }
    }
    // Generic dispatch happened (one per block iteration).
    assert!(stats.parallel_regions >= nb as u64 / 2);
    assert!(stats.rtl_count("__kmpc_parallel_51") >= nb as u64);
    assert!(
        stats.globalization_allocs > 0,
        "team_val must be globalized"
    );
}

#[test]
fn fig3_cross_thread_sharing_works_when_globalized() {
    // Paper Figure 3: thread 0 publishes the address of its local; all
    // threads read through it after a barrier.
    let src = r#"
void fig3(long* cell, int* out, int base) {
  #pragma omp target parallel
  {
    int lcl = base + omp_get_thread_num();
    #pragma omp barrier
    if (omp_get_thread_num() == 0) {
      cell[0] = (long)&lcl;
    }
    #pragma omp barrier
    out[omp_get_thread_num()] = *(int*)cell[0];
  }
}
"#;
    // The dialect has no int-to-pointer casts; emulate via helpers.
    let src = src
        .replace("cell[0] = (long)&lcl;", "publish(cell, &lcl);")
        .replace(
            "out[omp_get_thread_num()] = *(int*)cell[0];",
            "out[omp_get_thread_num()] = read_published(cell);",
        );
    let full = format!(
        r#"
void publish(long* cell, int* p);
int read_published(long* cell);
{src}
"#
    );
    // publish/read_published must be definitions for execution: express
    // them via raw pointer smuggling through a long buffer.
    let full = full
        .replace(
            "void publish(long* cell, int* p);",
            "void publish(long* cell, noescape int* p) { cell[0] = ptr2long(p); }\nlong ptr2long(noescape int* p);",
        )
        .replace(
            "int read_published(long* cell);",
            "int read_published(long* cell) { return *long2ptr(cell[0]); }\nint* long2ptr(long v);",
        );
    // ptr2long / long2ptr cannot be written in the dialect; this test
    // instead uses a simpler formulation below.
    let _ = full;

    // Simpler, dialect-native Figure 3: share through a pointer captured
    // by reference in a parallel region of a generic kernel... but the
    // essence (cross-thread access to a globalized local) is captured by
    // an SPMD kernel where thread 0's local is read by all threads via a
    // shared double buffer holding a *copy* -- not enough. Instead we use
    // a parallel region capture, which takes the address of a local and
    // shares it across threads:
    let m = build(
        r#"
void share(double* out, long nthreads) {
  #pragma omp target teams
  {
    double team_val = 7.5; // address taken by the region => globalized
    #pragma omp parallel for
    for (long t = 0; t < nthreads; t++) {
      out[t] = team_val; // every worker reads main's local
    }
  }
}
"#,
    );
    let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
    let out = dev.alloc_f64(&[0.0; 8]).unwrap();
    dev.launch("share", &[RtVal::Ptr(out), RtVal::I64(8)], dims(1, 8))
        .unwrap();
    let vals = dev.read_f64(out, 8).unwrap();
    assert_eq!(vals, vec![7.5; 8]);
}

#[test]
fn legacy_spmd_cross_thread_access_traps() {
    // With the legacy (LLVM 12) scheme, SPMD-mode locals stay on the
    // thread stack; sharing them across threads is a miscompile that the
    // simulator reports as a cross-thread local access.
    let src = r#"
void share(double* out, long nthreads) {
  #pragma omp target teams
  {
    double team_val = 7.5;
    #pragma omp parallel for
    for (long t = 0; t < nthreads; t++) {
      out[t] = team_val;
    }
  }
}
"#;
    // Generic mode: legacy allocates from the data-sharing stack; works.
    let m = build_legacy(src);
    let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
    let out = dev.alloc_f64(&[0.0; 8]).unwrap();
    dev.launch("share", &[RtVal::Ptr(out), RtVal::I64(8)], dims(1, 8))
        .unwrap();
    assert_eq!(dev.read_f64(out, 8).unwrap(), vec![7.5; 8]);

    // SPMD-mode kernel (target parallel) with an escaping local shared
    // through a captured pointer: the legacy fast path uses an alloca and
    // the cross-thread read traps.
    let spmd_src = r#"
double passthrough(noescape double* p) { return p[0]; }
void spmd_share(double* out, long n) {
  #pragma omp target parallel
  {
    double lcl = 1.0 + (double)omp_get_thread_num();
    #pragma omp parallel for
    for (long i = 0; i < n; i++) {
      out[i] = out[i] + passthrough(&lcl);
    }
  }
}
"#;
    let _ = spmd_src; // nested-parallel capture; exercised elsewhere.

    // Direct demonstration: in SPMD mode a captured local crosses
    // threads through the capture struct. Legacy globalization uses an
    // alloca for both the local *and* the capture struct, so worker
    // reads trap... in SPMD mode there are no workers; each thread is
    // its own region executor, so the capture stays within the thread.
    // The observable difference therefore needs generic mode with
    // -fopenmp-cuda-mode (never globalize):
    let opts = FrontendOptions {
        cuda_mode: true,
        ..FrontendOptions::default()
    };
    let m = compile(src, &opts).unwrap();
    let mut dev = Device::new(Arc::new(m), DeviceConfig::default()).unwrap();
    let out = dev.alloc_f64(&[0.0; 8]).unwrap();
    let err = dev
        .launch("share", &[RtVal::Ptr(out), RtVal::I64(8)], dims(1, 8))
        .unwrap_err();
    match err.kind {
        omp_gpusim::SimErrorKind::Mem(omp_gpusim::MemError::CrossThreadLocal { .. }) => {}
        other => panic!("expected cross-thread trap, got {other:?}"),
    }
}

#[test]
fn barriers_synchronize_spmd_threads() {
    // Every thread writes its slot, then after a barrier reads its
    // neighbour's slot: without a working barrier the values would be
    // stale zeros for some threads under cooperative scheduling.
    let m = build(
        r#"
void neighbors(long* a, long* b, long n) {
  #pragma omp target parallel
  {
    long me = (long)omp_get_thread_num();
    a[me] = me * 100;
    #pragma omp barrier
    long next = me + 1;
    if (next >= n) { next = 0; }
    b[me] = a[next];
  }
}
"#,
    );
    let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
    let n = 8usize;
    let a = dev.alloc_i64(&vec![0; n]).unwrap();
    let b = dev.alloc_i64(&vec![-1; n]).unwrap();
    let stats = dev
        .launch(
            "neighbors",
            &[RtVal::Ptr(a), RtVal::Ptr(b), RtVal::I64(n as i64)],
            dims(1, n as u32),
        )
        .unwrap()
        .stats;
    let out = dev.read_i64(b, n).unwrap();
    for (i, &got) in out.iter().enumerate() {
        assert_eq!(got, (((i + 1) % n) * 100) as i64, "thread {i}");
    }
    assert!(stats.barriers >= 1);
}

#[test]
fn nested_parallel_is_serialized() {
    let m = build(
        r#"
void nested(long* out, long n) {
  #pragma omp target teams distribute
  for (long b = 0; b < 1; b++) {
    #pragma omp parallel for
    for (long i = 0; i < n; i++) {
      #pragma omp parallel
      {
        // Nested region: runs serialized, thread num is 0.
        out[i] = out[i] + 1 + (long)omp_get_thread_num();
      }
    }
  }
}
"#,
    );
    let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
    let n = 16usize;
    let out = dev.alloc_i64(&vec![0; n]).unwrap();
    dev.launch(
        "nested",
        &[RtVal::Ptr(out), RtVal::I64(n as i64)],
        dims(1, 4),
    )
    .unwrap();
    let vals = dev.read_i64(out, n).unwrap();
    assert_eq!(vals, vec![1i64; n], "each iteration exactly once, tid 0");
}

#[test]
fn worksharing_covers_exactly_once_with_odd_sizes() {
    let m = build(
        r#"
void count(long* out, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) { out[i] = out[i] + 1; }
}
"#,
    );
    for (teams, threads, n) in [(3u32, 5u32, 37usize), (1, 1, 7), (4, 8, 1), (2, 2, 0)] {
        let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
        let out = dev.alloc_i64(&vec![0; n.max(1)]).unwrap();
        dev.launch(
            "count",
            &[RtVal::Ptr(out), RtVal::I64(n as i64)],
            dims(teams, threads),
        )
        .unwrap();
        let vals = dev.read_i64(out, n.max(1)).unwrap();
        for (i, v) in vals.iter().take(n).enumerate() {
            assert_eq!(*v, 1, "teams={teams} threads={threads} n={n} i={i}");
        }
    }
}

#[test]
fn generic_mode_costs_more_than_spmd_for_light_regions() {
    // SU3Bench's story: a lightweight parallel region in a generic-mode
    // kernel pays the dispatch handshake every iteration.
    let generic = build(
        r#"
void light(double* out, long nblocks, long nthreads) {
  #pragma omp target teams distribute
  for (long b = 0; b < nblocks; b++) {
    #pragma omp parallel for
    for (long t = 0; t < nthreads; t++) {
      out[b * nthreads + t] = 1.0;
    }
  }
}
"#,
    );
    let spmd = build(
        r#"
void light(double* out, long nblocks, long nthreads) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < nblocks * nthreads; i++) {
    out[i] = 1.0;
  }
}
"#,
    );
    let (nb, nt) = (16i64, 8i64);
    let run = |m: &Arc<omp_ir::Module>| {
        let mut dev = Device::new(Arc::clone(m), DeviceConfig::default()).unwrap();
        let out = dev.alloc_f64(&vec![0.0; (nb * nt) as usize]).unwrap();
        let stats = dev
            .launch(
                "light",
                &[RtVal::Ptr(out), RtVal::I64(nb), RtVal::I64(nt)],
                dims(2, nt as u32),
            )
            .unwrap()
            .stats;
        let v = dev.read_f64(out, (nb * nt) as usize).unwrap();
        assert!(v.iter().all(|&x| x == 1.0));
        stats.cycles
    };
    let g = run(&generic);
    let s = run(&spmd);
    assert!(
        g > s * 2,
        "generic ({g}) should be much slower than SPMD ({s})"
    );
}

#[test]
fn globalization_oom_when_heap_too_small() {
    // Simplified scheme + tiny shared memory + tiny heap: per-thread
    // escaping arrays exhaust the device heap (the paper's RSBench OOM).
    let m = build(
        r#"
double consume(noescape double* buf) { return buf[0]; }
void hog(double* out, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) {
    double scratch[64];
    scratch[0] = (double)i;
    out[i] = consume(scratch);
  }
}
"#,
    );
    let cfg = DeviceConfig {
        shared_mem_per_team: 256,
        global_heap_bytes: 1024,
        ..DeviceConfig::default()
    };
    let mut dev = Device::new(Arc::clone(&m), cfg).unwrap();
    let out = dev.alloc_f64(&vec![0.0; 64]).unwrap();
    let err = dev
        .launch("hog", &[RtVal::Ptr(out), RtVal::I64(64)], dims(2, 32))
        .unwrap_err();
    assert!(
        matches!(
            err.kind,
            omp_gpusim::SimErrorKind::Mem(omp_gpusim::MemError::HeapExhausted { .. })
        ),
        "expected OOM, got {err:?}"
    );
}

#[test]
fn math_intrinsics_work() {
    let m = build(
        r#"
void mathy(double* out) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < 4; i++) {
    double x = (double)(i + 1);
    out[i] = sqrt(x) + exp(0.0) + fmax(x, 2.0) + fabs(0.0 - x);
  }
}
"#,
    );
    let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
    let out = dev.alloc_f64(&[0.0; 4]).unwrap();
    dev.launch("mathy", &[RtVal::Ptr(out)], dims(1, 4)).unwrap();
    let v = dev.read_f64(out, 4).unwrap();
    for (i, &got) in v.iter().enumerate() {
        let x = (i + 1) as f64;
        assert!((got - (x.sqrt() + 1.0 + x.max(2.0) + x)).abs() < 1e-12);
    }
}

#[test]
fn coalesced_vs_strided_access_cost() {
    let coalesced = build(
        r#"
void copy(double* a, double* b, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) { b[i] = a[i]; }
}
"#,
    );
    let strided = build(
        r#"
void copy(double* a, double* b, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) { b[i * 33 % n] = a[i * 33 % n]; }
}
"#,
    );
    let n = 256usize;
    let run = |m: &Arc<omp_ir::Module>| {
        let mut dev = Device::new(Arc::clone(m), DeviceConfig::default()).unwrap();
        let a = dev.alloc_f64(&vec![1.0; n]).unwrap();
        let b = dev.alloc_f64(&vec![0.0; n]).unwrap();
        dev.launch(
            "copy",
            &[RtVal::Ptr(a), RtVal::Ptr(b), RtVal::I64(n as i64)],
            dims(1, 32),
        )
        .unwrap()
        .stats
    };
    let c = run(&coalesced);
    let s = run(&strided);
    assert!(c.coalesced_accesses > 0);
    assert!(s.uncoalesced_accesses > 0);
    assert!(
        s.cycles > c.cycles,
        "strided ({}) should cost more than coalesced ({})",
        s.cycles,
        c.cycles
    );
}

#[test]
fn unknown_kernel_and_bad_args_error() {
    let m = build(
        r#"
void k(double* a) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < 4; i++) { a[i] = 0.0; }
}
"#,
    );
    let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
    use omp_gpusim::SimErrorKind;
    assert!(matches!(
        dev.launch("nope", &[], LaunchDims::default()),
        Err(e) if matches!(e.kind, SimErrorKind::UnknownKernel(_))
    ));
    assert!(matches!(
        dev.launch("k", &[], LaunchDims::default()),
        Err(e) if matches!(e.kind, SimErrorKind::BadArgs(_))
    ));
    assert!(matches!(
        dev.launch("k", &[RtVal::I32(1)], LaunchDims::default()),
        Err(e) if matches!(e.kind, SimErrorKind::BadArgs(_))
    ));
}

/// A zero warp size is rejected when the device is built, with an
/// error that names the field, instead of panicking mid-launch in the
/// coalescing model's lane arithmetic.
#[test]
fn zero_warp_size_is_rejected_at_device_construction() {
    let m = build(
        r#"
void k(double* a) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < 4; i++) { a[i] = 0.0; }
}
"#,
    );
    let cfg = DeviceConfig {
        warp_size: 0,
        ..DeviceConfig::default()
    };
    let err = Device::new(Arc::clone(&m), cfg)
        .err()
        .expect("a zero warp size must not build a device");
    assert_eq!(err.kind.name(), "bad-config", "{err}");
    assert!(err.to_string().contains("warp_size"), "{err}");
}

#[test]
fn legacy_scheme_runs_fig1_correctly() {
    let m = build_legacy(
        r#"
void fig1(double* out, long nblocks, long nthreads) {
  #pragma omp target teams distribute
  for (long b = 0; b < nblocks; b++) {
    double team_val = (double)b + 1.0;
    #pragma omp parallel for
    for (long t = 0; t < nthreads; t++) {
      out[b * nthreads + t] = team_val + (double)t;
    }
  }
}
"#,
    );
    let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
    let (nb, nt) = (3i64, 4i64);
    let out = dev.alloc_f64(&vec![0.0; (nb * nt) as usize]).unwrap();
    let stats = dev
        .launch(
            "fig1",
            &[RtVal::Ptr(out), RtVal::I64(nb), RtVal::I64(nt)],
            dims(1, nt as u32),
        )
        .unwrap()
        .stats;
    let vals = dev.read_f64(out, (nb * nt) as usize).unwrap();
    for b in 0..nb {
        for t in 0..nt {
            assert_eq!(vals[(b * nt + t) as usize], (b + 1) as f64 + t as f64);
        }
    }
    assert!(stats.rtl_count("__kmpc_data_sharing_coalesced_push_stack") > 0);
}

#[test]
fn results_identical_across_schemes() {
    // The same program must compute the same answer under every
    // globalization scheme — correctness is scheme-independent.
    let src = r#"
double helper(noescape double* v) { return v[0] * 2.0; }
void work(double* out, long n) {
  #pragma omp target teams distribute
  for (long b = 0; b < n; b++) {
    double acc = (double)b;
    #pragma omp parallel for
    for (long t = 0; t < 4; t++) {
      out[b * 4 + t] = helper(&acc) + (double)t;
    }
  }
}
"#;
    let run = |m: &Arc<omp_ir::Module>| -> Vec<f64> {
        let mut dev = Device::new(Arc::clone(m), DeviceConfig::default()).unwrap();
        let out = dev.alloc_f64(&[0.0; 16]).unwrap();
        dev.launch("work", &[RtVal::Ptr(out), RtVal::I64(4)], dims(2, 4))
            .unwrap();
        dev.read_f64(out, 16).unwrap()
    };
    let simplified = run(&build(src));
    let legacy = run(&build_legacy(src));
    assert_eq!(simplified, legacy);
}
