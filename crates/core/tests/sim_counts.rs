//! Exact simulated counts of the four proxies at `Scale::Bench` under
//! `dev`, `llvm12` and `cuda`, each launched through
//! `Device::launch_plan` on a fresh device: the same twelve units the
//! `sim_proxies` benchmark workload runs, so its cycle, instruction,
//! runtime-call and shared-memory fingerprint is gated here.
//!
//! Every counter in the golden is tier-independent; the fusion counters
//! and the tier itself are left out, so the same golden must hold under
//! `OMPGPU_TIER=interp` (`tools/ci.sh test` runs it both ways).
//!
//! To regenerate after an intentional change to simulated counts:
//!
//! ```text
//! OMP_UPDATE_GOLDEN=1 cargo test -p omp-gpu --test sim_counts
//! ```

use omp_gpu::{all_proxies, pipeline, BuildConfig, Device, KernelStats, Scale};
use std::fmt::Write;
use std::path::PathBuf;

const CONFIGS: [BuildConfig; 3] = [
    BuildConfig::LlvmDev,
    BuildConfig::Llvm12Baseline,
    BuildConfig::CudaStyle,
];

fn row(out: &mut String, unit: &str, s: &KernelStats) {
    writeln!(
        out,
        "{unit}: cycles={} instructions={} shared_mem_bytes={} memory_accesses={} \
         coalesced_accesses={} uncoalesced_accesses={} barriers={} globalization_allocs={}",
        s.cycles,
        s.instructions,
        s.shared_mem_bytes,
        s.memory_accesses,
        s.coalesced_accesses,
        s.uncoalesced_accesses,
        s.barriers,
        s.globalization_allocs,
    )
    .unwrap();
    let mut calls: Vec<_> = s.rtl_calls.iter().collect();
    calls.sort();
    for (name, n) in calls {
        writeln!(out, "  {name}={n}").unwrap();
    }
}

fn table() -> String {
    let mut out = String::new();
    let (mut cycles, mut insts, mut calls, mut smem) = (0u64, 0u64, 0u64, 0u64);
    for app in all_proxies(Scale::Bench) {
        for config in CONFIGS {
            let unit = format!("{} {}", app.name(), config.cli_name());
            let source = if config.uses_cuda_source() {
                app.cuda_source()
            } else {
                app.openmp_source()
            };
            let module = pipeline::build(&source, config)
                .unwrap_or_else(|e| panic!("{unit}: build: {e}"))
                .0;
            let mut dev = Device::new(&module, app.device_config())
                .unwrap_or_else(|e| panic!("{unit}: device: {e}"));
            let w = app
                .prepare(&mut dev)
                .unwrap_or_else(|e| panic!("{unit}: prepare: {e}"));
            let s = dev
                .launch_plan(app.kernel_name(), &w.args, app.dims())
                .unwrap_or_else(|e| panic!("{unit}: launch: {e}"));
            omp_benchmarks::verify(&mut dev, &w).unwrap_or_else(|e| panic!("{unit}: {e}"));
            row(&mut out, &unit, &s);
            cycles += s.cycles;
            insts += s.instructions;
            calls += s.rtl_calls.values().sum::<u64>();
            smem += s.shared_mem_bytes;
        }
    }
    writeln!(
        out,
        "total: cycles={cycles} instructions={insts} rtl_calls={calls} shared_mem_bytes={smem}"
    )
    .unwrap();
    out
}

#[test]
fn sim_proxies_counts_match_golden() {
    let text = table();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sim_counts.txt");
    if std::env::var_os("OMP_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, text).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with OMP_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if golden != text {
        let line = golden
            .lines()
            .zip(text.lines())
            .position(|(g, t)| g != t)
            .unwrap_or_else(|| golden.lines().count().min(text.lines().count()));
        panic!(
            "sim_counts: simulated counts drifted from the golden at line {}:\n\
             golden: {:?}\nactual: {:?}\n\
             a cycle or count change is a bug unless intended; \
             if intentional, regenerate with OMP_UPDATE_GOLDEN=1",
            line + 1,
            golden.lines().nth(line),
            text.lines().nth(line),
        );
    }
}
