//! End-to-end device-sanitizer tests: seeded races, barrier
//! divergence, and memory-state bugs must be detected with structured
//! provenance; clean programs must stay silent; findings must be
//! bit-identical across worker-thread counts; and the `Off` path must
//! leave launches byte-identical to a device that never sanitized.

use omp_frontend::{compile, FrontendOptions};
use omp_gpusim::{
    Device, DeviceConfig, FindingKind, LaunchDims, RtVal, SanitizeMode, Severity, Tier,
};
use omp_ir::{Builder, ExecMode, Function, KernelInfo, Module, RtlFn, Type, Value};

fn build(src: &str) -> Module {
    let m = compile(src, &FrontendOptions::default()).unwrap();
    omp_ir::verifier::assert_valid(&m);
    m
}

fn dims(teams: u32, threads: u32) -> LaunchDims {
    LaunchDims {
        teams: Some(teams),
        threads: Some(threads),
    }
}

const RACY: &str = r#"
void racy(long* out, long n) {
  #pragma omp target parallel
  {
    long me = (long)omp_get_thread_num();
    out[0] = me;
  }
}
"#;

#[test]
fn write_write_race_is_detected_with_provenance() {
    let m = build(RACY);
    let mut dev = Device::new(&m, DeviceConfig::default()).unwrap();
    dev.set_sanitize(SanitizeMode::On);
    let out = dev.alloc_i64(&[0; 4]).unwrap();
    let (_, findings) = dev
        .launch_checked("racy", &[RtVal::Ptr(out), RtVal::I64(4)], dims(1, 4))
        .unwrap();
    let race = findings
        .iter()
        .find(|f| f.kind == FindingKind::DataRace)
        .expect("seeded write/write race not detected");
    assert_eq!(race.severity, Severity::Error);
    assert!(race.function.contains("racy"), "{}", race.function);
    assert_eq!(race.team, 0);
    assert!(race.message.contains("write"), "{}", race.message);
}

#[test]
fn barrier_separated_accesses_are_not_a_race() {
    let m = build(
        r#"
void sync(long* out, long n) {
  #pragma omp target parallel
  {
    long me = (long)omp_get_thread_num();
    if (me == 0) {
      out[4] = 9;
    }
    #pragma omp barrier
    out[me] = out[4];
  }
}
"#,
    );
    let mut dev = Device::new(&m, DeviceConfig::default()).unwrap();
    dev.set_sanitize(SanitizeMode::On);
    let out = dev.alloc_i64(&[0; 8]).unwrap();
    let (_, findings) = dev
        .launch_checked("sync", &[RtVal::Ptr(out), RtVal::I64(8)], dims(1, 4))
        .unwrap();
    assert!(findings.is_empty(), "false positives: {findings:?}");
    assert_eq!(dev.read_i64(out, 4).unwrap(), vec![9; 4]);
}

#[test]
fn divergent_barrier_sites_are_reported() {
    let m = build(
        r#"
void divb(long* out, long n) {
  #pragma omp target parallel
  {
    long me = (long)omp_get_thread_num();
    if (me == 0) {
      out[4] = 1;
      #pragma omp barrier
    } else {
      #pragma omp barrier
    }
    out[me] = out[4];
  }
}
"#,
    );
    let mut dev = Device::new(&m, DeviceConfig::default()).unwrap();
    dev.set_sanitize(SanitizeMode::On);
    let out = dev.alloc_i64(&[0; 8]).unwrap();
    let (_, findings) = dev
        .launch_checked("divb", &[RtVal::Ptr(out), RtVal::I64(8)], dims(1, 4))
        .unwrap();
    let div = findings
        .iter()
        .find(|f| f.kind == FindingKind::BarrierDivergence)
        .expect("divergent barrier sites not reported");
    assert_eq!(div.severity, Severity::Error);
    assert!(div.function.contains("divb"));
    assert!(div.message.contains("barrier"), "{}", div.message);
}

/// Hand-built kernel: read a `__kmpc_alloc_shared` allocation before
/// any write (uninit read), then free it and store through the dangling
/// pointer (use-after-free).
fn memory_state_kernel() -> Module {
    let mut m = Module::new("t");
    let f = m.add_function(Function::definition("mem", vec![Type::Ptr], Type::Void));
    {
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.call_rtl(RtlFn::AllocShared, vec![Value::i64(8)]);
        let v = b.load(Type::I64, p); // uninit read
        b.store(v, Value::Arg(0));
        b.call_rtl(RtlFn::FreeShared, vec![p, Value::i64(8)]);
        b.store(Value::i64(7), p); // use-after-free
        b.ret(None);
    }
    m.kernels.push(KernelInfo {
        func: f,
        exec_mode: ExecMode::Spmd,
        num_teams: Some(1),
        thread_limit: Some(1),
        source_name: "mem".into(),
        launch: Default::default(),
    });
    omp_ir::verifier::assert_valid(&m);
    m
}

#[test]
fn uninit_read_and_use_after_free_are_detected() {
    let m = memory_state_kernel();
    let mut dev = Device::new(&m, DeviceConfig::default()).unwrap();
    dev.set_sanitize(SanitizeMode::On);
    let out = dev.alloc_i64(&[0]).unwrap();
    let (_, findings) = dev
        .launch_checked("mem", &[RtVal::Ptr(out)], dims(1, 1))
        .unwrap();
    assert!(
        findings.iter().any(|f| f.kind == FindingKind::UninitRead),
        "uninit read not detected: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.kind == FindingKind::UseAfterFree),
        "use-after-free not detected: {findings:?}"
    );
    for f in &findings {
        assert!(f.function.contains("mem"));
        assert_eq!(f.severity, Severity::Error);
    }
}

#[test]
fn findings_are_bit_identical_across_worker_thread_counts() {
    let m = build(RACY);
    let mut reference = None;
    for jobs in [1u32, 2, 4] {
        let mut dev = Device::new(&m, DeviceConfig::default()).unwrap();
        dev.set_sanitize(SanitizeMode::On);
        dev.set_jobs(jobs);
        let out = dev.alloc_i64(&[0; 8]).unwrap();
        let (_, findings) = dev
            .launch_checked("racy", &[RtVal::Ptr(out), RtVal::I64(8)], dims(4, 4))
            .unwrap();
        assert!(!findings.is_empty());
        match &reference {
            None => reference = Some(findings),
            Some(r) => assert_eq!(r, &findings, "findings differ at jobs={jobs}"),
        }
    }
}

#[test]
fn off_mode_is_byte_identical_and_returns_no_findings() {
    let m = build(RACY);
    // A device that never heard of the sanitizer.
    let mut plain = Device::new(&m, DeviceConfig::default()).unwrap();
    let out1 = plain.alloc_i64(&[0; 4]).unwrap();
    let base = plain
        .launch("racy", &[RtVal::Ptr(out1), RtVal::I64(4)], dims(1, 4))
        .unwrap();
    // A device with the sanitizer explicitly Off.
    let mut off = Device::new(&m, DeviceConfig::default()).unwrap();
    off.set_sanitize(SanitizeMode::Off);
    let out2 = off.alloc_i64(&[0; 4]).unwrap();
    let (stats, findings) = off
        .launch_checked("racy", &[RtVal::Ptr(out2), RtVal::I64(4)], dims(1, 4))
        .unwrap();
    assert!(findings.is_empty());
    assert_eq!(base.snapshot(), stats.snapshot());
    assert_eq!(
        plain.read_i64(out1, 4).unwrap(),
        off.read_i64(out2, 4).unwrap()
    );
    // Sanitizing must observe, never perturb: stats identical under On.
    let mut on = Device::new(&m, DeviceConfig::default()).unwrap();
    on.set_sanitize(SanitizeMode::On);
    let out3 = on.alloc_i64(&[0; 4]).unwrap();
    let (stats_on, _) = on
        .launch_checked("racy", &[RtVal::Ptr(out3), RtVal::I64(4)], dims(1, 4))
        .unwrap();
    // ... on the tier that was asked for, nothing normalised.
    assert_eq!(stats_on.tier, Tier::Compiled);
    assert_eq!(base.snapshot(), stats_on.snapshot());
}

#[test]
fn findings_serialize_to_valid_json() {
    let m = build(RACY);
    let mut dev = Device::new(&m, DeviceConfig::default()).unwrap();
    dev.set_sanitize(SanitizeMode::On);
    let out = dev.alloc_i64(&[0; 4]).unwrap();
    let (_, findings) = dev
        .launch_checked("racy", &[RtVal::Ptr(out), RtVal::I64(4)], dims(1, 4))
        .unwrap();
    let json = omp_gpusim::findings_to_json(&findings);
    omp_json::validate(&json).unwrap();
    assert!(json.contains("\"data-race\""));
}
