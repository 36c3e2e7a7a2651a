//! Exact simulated counts of the four proxies at `Scale::Bench` under
//! `dev`, `llvm12` and `cuda`, each launched through
//! `Device::launch` on a fresh device: the same twelve units the
//! `sim_proxies` benchmark workload runs, so its cycle, instruction,
//! runtime-call and shared-memory fingerprint is gated here.
//!
//! Every counter in the golden is tier-independent (the fusion counters
//! are left out), so the same golden must hold on both execution tiers:
//! the test checks it under `Tier::Compiled`, then under `Tier::Interp`.
//!
//! The four superinstruction counters of the same units have a golden
//! of their own, checked under `Tier::Compiled` only: an executor
//! change that stopped fusing some blocks would keep every count above
//! identical and show only here.
//!
//! To regenerate after an intentional change to simulated counts:
//!
//! ```text
//! OMP_UPDATE_GOLDEN=1 cargo test -p omp-gpu --test sim_counts
//! ```

use omp_gpu::{all_proxies, pipeline, BuildConfig, Device, DeviceConfig, KernelStats, Scale, Tier};
use std::fmt::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

/// The superinstruction counters of one unit.
fn fusion_row(out: &mut String, unit: &str, s: &KernelStats) {
    writeln!(
        out,
        "{unit}: fused_gep_load={} fused_load_bin_store={} fused_cmp_br={} plain_steps={}",
        s.fused_gep_load, s.fused_load_bin_store, s.fused_cmp_br, s.plain_steps,
    )
    .unwrap();
}

/// The counts table of the twelve units under `tier`, and their fusion
/// counters.
fn table(tier: Tier) -> (String, String) {
    let mut out = String::new();
    let mut fusion = String::new();
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
            let cfg = DeviceConfig {
                tier,
                ..app.device_config()
            };
            let mut dev = Device::new(Arc::new(module), cfg)
                .unwrap_or_else(|e| panic!("{unit}: device: {e}"));
            let w = app
                .prepare(&mut dev)
                .unwrap_or_else(|e| panic!("{unit}: prepare: {e}"));
            let s = dev
                .launch(app.kernel_name(), &w.args, app.dims())
                .unwrap_or_else(|e| panic!("{unit}: launch: {e}"))
                .stats;
            omp_benchmarks::verify(&mut dev, &w).unwrap_or_else(|e| panic!("{unit}: {e}"));
            row(&mut out, &unit, &s);
            fusion_row(&mut fusion, &unit, &s);
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
    (out, fusion)
}

#[test]
fn sim_proxies_counts_match_golden() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let (path, fusion_path) = (golden.join("sim_counts.txt"), golden.join("sim_fusion.txt"));
    let update = std::env::var_os("OMP_UPDATE_GOLDEN").is_some();
    for tier in [Tier::Compiled, Tier::Interp] {
        let (text, fusion) = table(tier);
        if tier == Tier::Compiled {
            if update {
                std::fs::write(&path, &text).expect("write golden");
                std::fs::write(&fusion_path, &fusion).expect("write golden");
            }
            check(&fusion_path, "fusion counters", tier, &fusion);
        }
        check(&path, "simulated counts", tier, &text);
    }
}

fn check(path: &Path, what: &str, tier: Tier, text: &str) {
    let golden = std::fs::read_to_string(path).unwrap_or_else(|e| {
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
            "sim_counts: {what} under {tier:?} drifted from the golden at line {}:\n\
             golden: {:?}\nactual: {:?}\n\
             a cycle or count change is a bug unless intended; \
             if intentional, regenerate with OMP_UPDATE_GOLDEN=1",
            line + 1,
            golden.lines().nth(line),
            text.lines().nth(line),
        );
    }
}
