//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Guard grouping** (paper Figure 7): naive one-guard-per-side-
//!    effect vs grouped guard regions in SPMDized kernels.
//! 2. **Capture-chasing HeapToStack** (the D102107 extension): with it
//!    SU3Bench's locals go to the stack (paper Figure 9); without it
//!    they go to shared memory (published artifact).
//! 3. **Internalization**: how much the inter-procedural analyses lose
//!    without full caller visibility.
//!
//! Usage: `cargo run --release -p omp-bench --bin ablations [--scale small]`

use omp_bench::{args, fmt_cycles};
use omp_benchmarks::{all_proxies, verify, ProxyApp};
use omp_gpusim::Device;
use omp_opt::OpenMpOptConfig;
use std::sync::Arc;

fn run_with(
    app: &dyn ProxyApp,
    cfg: &OpenMpOptConfig,
) -> Result<(u64, omp_opt::OptCounts), String> {
    let mut m = omp_frontend::compile(
        &app.openmp_source(),
        &omp_frontend::FrontendOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    let report = omp_opt::run(&mut m, cfg);
    let mut dev = Device::new(Arc::new(m), app.device_config()).map_err(|e| e.to_string())?;
    let w = app.prepare(&mut dev).map_err(|e| e.to_string())?;
    let launch = dev
        .launch(app.kernel_name(), &w.args, app.dims())
        .map_err(|e| e.to_string())?;
    verify(&mut dev, &w)?;
    Ok((launch.stats.cycles, report.counts))
}

/// Synthetic Figure 7 kernel: several guardable side effects in the
/// sequential part, interleaved with SPMD-amenable code.
const FIG7: &str = r#"
void fig7(double* a, double* b, double* c, double* d, long nb, long nt) {
  #pragma omp target teams distribute
  for (long i = 0; i < nb; i++) {
    a[i] = (double)i;
    double x = (double)i * 3.0;
    b[i] = x + 1.0;
    double y = x * x;
    c[i] = y;
    d[i] = y - x;
    #pragma omp parallel for
    for (long t = 0; t < nt; t++) {
      a[i] = a[i] + 0.0;
    }
  }
}
"#;

fn run_fig7(cfg: &OpenMpOptConfig) -> (u64, usize) {
    use omp_gpusim::{LaunchDims, RtVal};
    let mut m = omp_frontend::compile(FIG7, &omp_frontend::FrontendOptions::default()).unwrap();
    let report = omp_opt::run(&mut m, cfg);
    let mut dev = Device::new(Arc::new(m), Default::default()).unwrap();
    let nb = 32i64;
    let bufs: Vec<u64> = (0..4)
        .map(|_| dev.alloc_f64(&vec![0.0; nb as usize]).unwrap())
        .collect();
    let stats = dev
        .launch(
            "fig7",
            &[
                RtVal::Ptr(bufs[0]),
                RtVal::Ptr(bufs[1]),
                RtVal::Ptr(bufs[2]),
                RtVal::Ptr(bufs[3]),
                RtVal::I64(nb),
                RtVal::I64(8),
            ],
            LaunchDims {
                teams: Some(2),
                threads: Some(8),
            },
        )
        .unwrap()
        .stats;
    for (k, b) in bufs.iter().enumerate() {
        let v = dev.read_f64(*b, nb as usize).unwrap();
        for (i, got) in v.iter().enumerate() {
            let x = i as f64 * 3.0;
            let expect = match k {
                0 => i as f64,
                1 => x + 1.0,
                2 => x * x,
                _ => x * x - x,
            };
            assert_eq!(*got, expect, "buffer {k} element {i}");
        }
    }
    (stats.cycles, report.counts.guard_regions)
}

fn main() {
    let scale = args().scale;
    println!("Ablation studies (LLVM Dev pipeline variants)\n");

    println!("0. Synthetic Figure 7 kernel (four guarded stores per iteration):");
    let (gc, gg) = run_fig7(&OpenMpOptConfig::default());
    let (nc, ng) = run_fig7(&OpenMpOptConfig {
        disable_guard_grouping: true,
        ..OpenMpOptConfig::default()
    });
    println!(
        "   grouped: {:>10} cyc ({gg} guard regions)   naive: {:>10} cyc ({ng} guard regions)   naive is {:+.1}% slower",
        fmt_cycles(gc),
        fmt_cycles(nc),
        (nc as f64 / gc as f64 - 1.0) * 100.0
    );
    println!();

    println!("1. Guard grouping (Figure 7): grouped vs one guard per side effect");
    for app in all_proxies(scale) {
        let grouped = run_with(app.as_ref(), &OpenMpOptConfig::default());
        let naive = run_with(
            app.as_ref(),
            &OpenMpOptConfig {
                disable_guard_grouping: true,
                ..OpenMpOptConfig::default()
            },
        );
        match (grouped, naive) {
            (Ok((g, gc)), Ok((n, nc))) => println!(
                "   {:<10} grouped: {:>10} cyc ({} guards)   naive: {:>10} cyc ({} guards)   {:+.1}%",
                app.name(),
                fmt_cycles(g),
                gc.guard_regions,
                fmt_cycles(n),
                nc.guard_regions,
                (n as f64 / g as f64 - 1.0) * 100.0
            ),
            (a, b) => println!("   {:<10} grouped: {a:?}  naive: {b:?}", app.name()),
        }
    }

    println!("\n2. Capture-chasing HeapToStack (D102107): on vs off");
    for app in all_proxies(scale) {
        let on = run_with(app.as_ref(), &OpenMpOptConfig::default());
        let off = run_with(
            app.as_ref(),
            &OpenMpOptConfig {
                spmd_capture_heap_to_stack: false,
                ..OpenMpOptConfig::default()
            },
        );
        match (on, off) {
            (Ok((a, ac)), Ok((b, bc))) => println!(
                "   {:<10} with: {:>10} cyc (h2s={}, shared={})   without: {:>10} cyc (h2s={}, shared={})",
                app.name(),
                fmt_cycles(a),
                ac.heap_to_stack,
                ac.heap_to_shared,
                fmt_cycles(b),
                bc.heap_to_stack,
                bc.heap_to_shared,
            ),
            (a, b) => println!("   {:<10} with: {a:?}  without: {b:?}", app.name()),
        }
    }

    println!("\n3. Internalization: on vs off");
    for app in all_proxies(scale) {
        let on = run_with(app.as_ref(), &OpenMpOptConfig::default());
        let off = run_with(
            app.as_ref(),
            &OpenMpOptConfig {
                disable_internalization: true,
                ..OpenMpOptConfig::default()
            },
        );
        match (on, off) {
            (Ok((a, ac)), Ok((b, bc))) => println!(
                "   {:<10} with: {:>10} cyc (h2s={}, spmd={})   without: {:>10} cyc (h2s={}, spmd={})",
                app.name(),
                fmt_cycles(a),
                ac.heap_to_stack,
                ac.spmdized,
                fmt_cycles(b),
                bc.heap_to_stack,
                bc.spmdized,
            ),
            (a, b) => println!("   {:<10} with: {a:?}  without: {b:?}", app.name()),
        }
    }
}
