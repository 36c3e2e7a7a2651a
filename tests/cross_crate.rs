//! Integration tests spanning the whole crate stack:
//! frontend → analyses → OpenMP optimizations → textual IR round-trip →
//! GPU simulation.

use omp_gpu::{all_proxies, pipeline, BuildConfig, Device, Job, LaunchDims, RtVal, Scale};
use omp_gpu::{Store, Subject};
use std::sync::Arc;

/// Every proxy module survives a print → parse → print round-trip at
/// every stage (fresh from the frontend and after full optimization).
#[test]
fn textual_ir_roundtrips_for_all_proxies() {
    for app in all_proxies(Scale::Small) {
        for config in [BuildConfig::NoOpenmpOpt, BuildConfig::LlvmDev] {
            let (m, _) = pipeline::build(&app.openmp_source(), config).unwrap();
            // Parsing renumbers value ids, so the round-trip property is
            // a fixed point after one parse: print(parse(t)) == t for
            // any t that itself came out of the parser.
            let t1 = omp_ir::printer::print_module(&m);
            let m2 = omp_ir::parser::parse_module(&t1)
                .unwrap_or_else(|e| panic!("{} {config:?}: {e}", app.name()));
            assert!(omp_ir::verifier::verify_module(&m2).is_empty());
            let t2 = omp_ir::printer::print_module(&m2);
            let m3 = omp_ir::parser::parse_module(&t2)
                .unwrap_or_else(|e| panic!("{} {config:?} (reparse): {e}", app.name()));
            let t3 = omp_ir::printer::print_module(&m3);
            assert_eq!(t2, t3, "{} under {config:?}", app.name());
        }
    }
}

/// SU3Bench's imaginary plane (not covered by the generic workload
/// verification) matches the host reference under the full pipeline.
#[test]
fn su3_imaginary_plane_is_correct() {
    use omp_benchmarks::su3bench::Su3Bench;
    use omp_benchmarks::ProxyApp;
    let app = Su3Bench::new(Scale::Small);
    let (m, _) = pipeline::build(&app.openmp_source(), BuildConfig::LlvmDev).unwrap();
    let mut dev = Device::new(Arc::new(m), app.device_config()).unwrap();
    let w = app.prepare(&mut dev).unwrap();
    dev.launch(app.kernel_name(), &w.args, app.dims()).unwrap();
    let ptr_arg = |i: usize| match w.args[i] {
        RtVal::Ptr(p) => p,
        _ => panic!("arg {i} is not a pointer"),
    };
    let got = dev.read_f64(ptr_arg(5), w.out_len).unwrap();
    // Recompute the reference im plane on the host from the same device
    // buffers the kernel consumed.
    let a_re = dev.read_f64(ptr_arg(0), w.out_len).unwrap();
    let a_im = dev.read_f64(ptr_arg(1), w.out_len).unwrap();
    let b_re = dev.read_f64(ptr_arg(2), w.out_len).unwrap();
    let b_im = dev.read_f64(ptr_arg(3), w.out_len).unwrap();
    let n_sites = w.out_len / 9;
    for s in 0..n_sites {
        let base = s * 9;
        let scale = 1.0 / (1.0 + s as f64 * 0.125);
        for e in 0..9 {
            let (row, col) = (e / 3, e % 3);
            let mut im = 0.0;
            for k in 0..3 {
                im += a_re[base + row * 3 + k] * b_im[base + k * 3 + col]
                    + a_im[base + row * 3 + k] * b_re[base + k * 3 + col];
            }
            let expect = im * scale;
            let g = got[base + e];
            assert!(
                (g - expect).abs() < 1e-9,
                "im[{}]: {g} vs {expect}",
                base + e
            );
        }
    }
}

/// A device can run several launches back to back; buffers persist and
/// per-launch state (shared memory, heap) resets.
#[test]
fn repeated_launches_reset_per_launch_state() {
    let src = r#"
static void scale_cell(long* a, long i, double* t) {
  a[i] = a[i] + (long)*t;
}
void bump(long* a, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) {
    double tmp = (double)i;
    scale_cell(a, i, &tmp);
  }
}
"#;
    let (m, _) = pipeline::build(src, BuildConfig::NoOpenmpOpt).unwrap();
    let mut dev = Device::new(Arc::new(m), Default::default()).unwrap();
    let n = 16usize;
    let a = dev.alloc_i64(&vec![0; n]).unwrap();
    let dims = LaunchDims {
        teams: Some(2),
        threads: Some(8),
    };
    for _ in 0..3 {
        let stats = dev
            .launch("bump", &[RtVal::Ptr(a), RtVal::I64(n as i64)], dims)
            .unwrap()
            .stats;
        // Runtime allocations happen every launch; the shared stack must
        // not accumulate across launches.
        assert!(stats.globalization_allocs > 0);
        assert!(stats.shared_mem_bytes < 1024);
    }
    let vals = dev.read_i64(a, n).unwrap();
    for (i, v) in vals.iter().enumerate() {
        assert_eq!(*v, 3 * i as i64, "cell {i} after three launches");
    }
}

/// The optimizer's reports and the simulator's runtime-call statistics
/// agree: when deglobalization removes every allocation, none execute;
/// when SPMDization fires, no runtime dispatch executes.
#[test]
fn reports_agree_with_dynamic_behaviour() {
    for app in all_proxies(Scale::Small) {
        let job = Job::new(Subject::Proxy(app.as_ref()), BuildConfig::LlvmDev);
        let done = job.run(&mut Store::new(0)).expect("runs");
        let (stats, report) = (&done.stats, done.built.report.as_ref().expect("optimized"));
        if report.counts.heap_to_shared == 0 {
            assert_eq!(
                stats.rtl_count("__kmpc_alloc_shared"),
                0,
                "{}: h2s removed every allocation but some still ran",
                app.name()
            );
        }
        if report.counts.spmdized > 0 {
            assert_eq!(
                stats.rtl_count("__kmpc_parallel_51"),
                0,
                "{}: SPMDized kernels must not dispatch through the runtime",
                app.name()
            );
        }
    }
}

/// Internalization preserves external entry points: the original
/// external function still exists and is callable after optimization.
#[test]
fn internalization_keeps_external_symbols() {
    let src = r#"
double helper(double x) { return x * 2.0; }
void kern(double* a, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) { a[i] = helper((double)i); }
}
"#;
    let (m, report) = pipeline::build(src, BuildConfig::LlvmDev).unwrap();
    assert_eq!(report.unwrap().counts.internalized, 1);
    let orig = m.function_id("helper").expect("original kept");
    assert_eq!(m.func(orig).linkage, omp_ir::Linkage::External);
    assert!(!m.func(orig).is_declaration());
    assert!(m.function_id("helper.internalized").is_some());
}
