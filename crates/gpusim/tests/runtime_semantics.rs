//! Focused tests of the OpenMP device-runtime semantics implemented by
//! the interpreter: thread identities, dispatch narrowing, nesting,
//! deadlock detection, and runaway protection.

use omp_frontend::{compile, FrontendOptions};
use omp_gpusim::{Device, DeviceConfig, LaunchDims, RtVal, SimErrorKind};
use std::sync::Arc;

fn build(src: &str) -> Arc<omp_ir::Module> {
    let m = compile(src, &FrontendOptions::default()).unwrap();
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
fn thread_and_team_identities() {
    let m = build(
        r#"
void ids(long* tid, long* team, long* nthreads, long* nteams, long n) {
  #pragma omp target parallel
  {
    long me = (long)omp_get_thread_num();
    tid[me] = me;
    team[me] = (long)omp_get_team_num();
    nthreads[me] = (long)omp_get_num_threads();
    nteams[me] = (long)omp_get_num_teams();
  }
}
"#,
    );
    let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
    let n = 8usize;
    let bufs: Vec<u64> = (0..4)
        .map(|_| dev.alloc_i64(&vec![-1; n]).unwrap())
        .collect();
    dev.launch(
        "ids",
        &[
            RtVal::Ptr(bufs[0]),
            RtVal::Ptr(bufs[1]),
            RtVal::Ptr(bufs[2]),
            RtVal::Ptr(bufs[3]),
            RtVal::I64(n as i64),
        ],
        dims(1, n as u32),
    )
    .unwrap();
    let tids = dev.read_i64(bufs[0], n).unwrap();
    assert_eq!(tids, (0..n as i64).collect::<Vec<_>>());
    assert_eq!(dev.read_i64(bufs[1], n).unwrap(), vec![0; n]);
    assert_eq!(dev.read_i64(bufs[2], n).unwrap(), vec![n as i64; n]);
    assert_eq!(dev.read_i64(bufs[3], n).unwrap(), vec![1; n]);
}

#[test]
fn num_threads_clause_narrows_generic_dispatch() {
    let m = build(
        r#"
void narrow(long* count, long nthreads) {
  #pragma omp target teams
  {
    #pragma omp parallel num_threads(3)
    {
      long me = (long)omp_get_thread_num();
      count[me] = (long)omp_get_num_threads();
    }
  }
}
"#,
    );
    let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
    let out = dev.alloc_i64(&[-1; 8]).unwrap();
    dev.launch("narrow", &[RtVal::Ptr(out), RtVal::I64(8)], dims(1, 8))
        .unwrap();
    let v = dev.read_i64(out, 8).unwrap();
    // Exactly three participants, each seeing a team of three.
    assert_eq!(&v[..3], &[3, 3, 3]);
    assert_eq!(&v[3..], &[-1, -1, -1, -1, -1]);
}

#[test]
fn nested_region_sees_team_of_one() {
    let m = build(
        r#"
void nest(long* out, long n) {
  #pragma omp target teams
  {
    #pragma omp parallel
    {
      long outer = (long)omp_get_thread_num();
      #pragma omp parallel
      {
        out[outer * 2] = (long)omp_get_thread_num();
        out[outer * 2 + 1] = (long)omp_get_num_threads();
      }
    }
  }
}
"#,
    );
    let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
    let out = dev.alloc_i64(&[-1; 8]).unwrap();
    dev.launch("nest", &[RtVal::Ptr(out), RtVal::I64(8)], dims(1, 4))
        .unwrap();
    let v = dev.read_i64(out, 8).unwrap();
    for t in 0..4 {
        assert_eq!(v[t * 2], 0, "nested tid for outer thread {t}");
        assert_eq!(v[t * 2 + 1], 1, "nested team size for outer thread {t}");
    }
}

#[test]
fn divergent_barrier_deadlocks_with_diagnosis() {
    // Only thread 0 reaches the barrier: a programming error the
    // simulator reports as a deadlock instead of hanging.
    let m = build(
        r#"
void bad(long* out, long n) {
  #pragma omp target parallel
  {
    if (omp_get_thread_num() == 0) {
      #pragma omp barrier
      out[0] = 1;
    }
  }
}
"#,
    );
    let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
    let out = dev.alloc_i64(&[0; 4]).unwrap();
    let err = dev
        .launch("bad", &[RtVal::Ptr(out), RtVal::I64(4)], dims(1, 4))
        .unwrap_err();
    assert!(matches!(err.kind, SimErrorKind::Deadlock), "{err:?}");
}

#[test]
fn runaway_loops_hit_the_instruction_budget() {
    let m = build(
        r#"
void spin(long* out) {
  #pragma omp target teams
  {
    long i = 0;
    while (i < 1000000000) {
      i = i + 0; // never progresses
    }
    out[0] = i;
  }
}
"#,
    );
    let cfg = DeviceConfig {
        max_insts_per_thread: 10_000,
        ..DeviceConfig::default()
    };
    let mut dev = Device::new(Arc::clone(&m), cfg).unwrap();
    let out = dev.alloc_i64(&[0]).unwrap();
    let err = dev
        .launch("spin", &[RtVal::Ptr(out)], dims(1, 2))
        .unwrap_err();
    assert!(matches!(err.kind, SimErrorKind::Runaway { .. }));
}

#[test]
fn warp_and_lane_identities() {
    // __kmpc_get_warp_size is folded by the optimizer normally; here we
    // query the raw runtime through a kernel that cannot fold (no
    // optimizer run).
    let m = build(
        r#"
void warps(long* warp, long* lane, long n) {
  #pragma omp target parallel
  {
    long me = (long)omp_get_thread_num();
    warp[me] = probe_warp();
    lane[me] = probe_lane();
  }
}
long probe_warp();
long probe_lane();
"#,
    );
    // probe_warp/probe_lane are declarations: wire them to the runtime
    // by renaming the declarations to the runtime symbols is not
    // possible from source, so this test exercises the trap path for
    // unresolved externals instead.
    let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
    let w = dev.alloc_i64(&vec![0; 64]).unwrap();
    let l = dev.alloc_i64(&vec![0; 64]).unwrap();
    let err = dev
        .launch(
            "warps",
            &[RtVal::Ptr(w), RtVal::Ptr(l), RtVal::I64(64)],
            dims(1, 64),
        )
        .unwrap_err();
    assert!(matches!(err.kind, SimErrorKind::Trap(_)));
}

#[test]
fn barrier_in_serialized_nested_region_is_noop() {
    let m = build(
        r#"
void nested_barrier(long* out, long n) {
  #pragma omp target parallel
  {
    long me = (long)omp_get_thread_num();
    #pragma omp parallel
    {
      #pragma omp barrier
      out[me] = me + 100;
    }
  }
}
"#,
    );
    let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
    let out = dev.alloc_i64(&[0; 4]).unwrap();
    dev.launch(
        "nested_barrier",
        &[RtVal::Ptr(out), RtVal::I64(4)],
        dims(1, 4),
    )
    .unwrap();
    assert_eq!(dev.read_i64(out, 4).unwrap(), vec![100, 101, 102, 103]);
}

#[test]
fn kernel_stats_count_what_ran() {
    let m = build(
        r#"
void counted(double* a, long n) {
  #pragma omp target teams distribute
  for (long b = 0; b < n; b++) {
    double tv = (double)b;
    #pragma omp parallel for
    for (long t = 0; t < 4; t++) {
      a[b * 4 + t] = tv;
    }
  }
}
"#,
    );
    let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
    let a = dev.alloc_f64(&[0.0; 16]).unwrap();
    let stats = dev
        .launch("counted", &[RtVal::Ptr(a), RtVal::I64(4)], dims(1, 4))
        .unwrap()
        .stats;
    // 4 distribute iterations, one generic dispatch each.
    assert_eq!(stats.parallel_regions, 4);
    assert_eq!(stats.rtl_count("__kmpc_parallel_51"), 4);
    // tv is globalized (captured by reference? no: read-only => by
    // value) — but the capture struct is allocated per dispatch.
    assert!(stats.globalization_allocs >= 4);
    assert!(stats.instructions > 0);
    assert!(stats.memory_accesses > 0);
}
