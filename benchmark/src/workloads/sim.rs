//! `sim_proxies` and `sim_instrumented`: the four proxy apps at
//! `Scale::Bench` on devices built in set-up. Compile work per pass is
//! zero; the whole pass is inside `gpusim`.
//!
//! `sim_proxies` launches under `dev`, `llvm12` and `cuda` on the default
//! (compiled) tier. `sim_instrumented` launches under `dev` only, once
//! profiled and once sanitized: both modes force the tier-0 interpreter,
//! the deopt target of everything else.

use super::fingerprint;
use crate::gen::Rng;
use crate::harness::{timed_round, PassCounts, Round, SpanMap, Workload};
use crate::metrics::Values;
use crate::stats::median;
use omp_benchmarks::{verify, ProxyApp};
use omp_gpu::{pipeline, BuildConfig, Scale};
use omp_gpusim::{ExecPlan, KernelStats, OwnedDevice, ProfileMode, SanitizeMode};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Proxies,
    Instrumented,
}

/// How one op launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Launch {
    Plain,
    Profiled,
    Sanitized,
}

/// A proxy built under one configuration, on its own device.
struct Unit {
    app: usize,
    config: BuildConfig,
    device: OwnedDevice,
}

/// What one op reports.
struct OpResult {
    stats: KernelStats,
    ok: bool,
    launch_ms: f64,
}

pub struct Sim {
    mode: Mode,
    apps: Vec<Box<dyn ProxyApp>>,
    units: Vec<Unit>,
    /// `(unit, launch)` in seeded order: one pass.
    ops: Vec<(usize, Launch)>,
    /// Exact counts of the last pass.
    last: Values,
    /// Simulated cycles of the last pass, per unit.
    unit_cycles: Vec<u64>,
    /// Tier-1 steps of the last pass: `(fused, all)`.
    steps: (u64, u64),
}

impl Sim {
    pub fn new(seed: u64, mode: Mode) -> Result<Sim, String> {
        let apps = omp_gpu::all_proxies(Scale::Bench);
        let configs: &[BuildConfig] = match mode {
            Mode::Proxies => &[
                BuildConfig::LlvmDev,
                BuildConfig::Llvm12Baseline,
                BuildConfig::CudaStyle,
            ],
            Mode::Instrumented => &[BuildConfig::LlvmDev],
        };
        let mut units = Vec::new();
        for (app_index, app) in apps.iter().enumerate() {
            for &config in configs {
                let source = if config.uses_cuda_source() {
                    app.cuda_source()
                } else {
                    app.openmp_source()
                };
                let module = {
                    let _s = omp_telemetry::span("bench.pipeline.build", "bench");
                    pipeline::build(&source, config)
                        .map_err(|e| format!("{} under {}: {e}", app.name(), config.cli_name()))?
                        .0
                };
                if omp_telemetry::enabled() {
                    // `Device::new` builds the plan inside itself; build
                    // one beside it so the trace can tell the two apart.
                    let _s = omp_telemetry::span("bench.gpusim.plan_build", "bench");
                    ExecPlan::build(&module).map_err(|e| e.to_string())?;
                }
                let device = {
                    let _s = omp_telemetry::span("bench.gpusim.device_new", "bench");
                    OwnedDevice::new(Arc::new(module), app.device_config())
                        .map_err(|e| e.to_string())?
                };
                units.push(Unit {
                    app: app_index,
                    config,
                    device,
                });
            }
        }
        let launches: &[Launch] = match mode {
            Mode::Proxies => &[Launch::Plain],
            Mode::Instrumented => &[Launch::Profiled, Launch::Sanitized],
        };
        let mut ops: Vec<(usize, Launch)> = (0..units.len())
            .flat_map(|u| launches.iter().map(move |&l| (u, l)))
            .collect();
        Rng::new(seed).shuffle(&mut ops);
        Ok(Sim {
            mode,
            apps,
            unit_cycles: vec![0; units.len()],
            units,
            ops,
            last: Values::default(),
            steps: (0, 0),
        })
    }

    /// One op: `reset` → `prepare` → launch → `verify`, each under its
    /// span. The output check is the proxy's host reference
    /// implementation, which never touches the simulator's arithmetic.
    fn run(&mut self, unit: usize, launch: Launch) -> Result<OpResult, String> {
        let Unit { app, device, .. } = &mut self.units[unit];
        let app = self.apps[*app].as_ref();
        device.with(|dev| {
            {
                let _s = omp_telemetry::span("bench.gpusim.reset", "bench");
                dev.reset();
            }
            let workload = {
                let _s = omp_telemetry::span("bench.gpusim.prepare", "bench");
                app.prepare(dev).map_err(|e| e.to_string())?
            };
            let (kernel, args, dims) = (app.kernel_name(), &workload.args, app.dims());
            let started = Instant::now();
            let (stats, clean) = match launch {
                Launch::Plain => {
                    let _s = omp_telemetry::span_lazy("bench", || {
                        format!("bench.gpusim.launch.{}", app.name())
                    });
                    (dev.launch_plan(kernel, args, dims), true)
                }
                Launch::Profiled => {
                    dev.set_profile(ProfileMode::On);
                    let launched = {
                        let _s = omp_telemetry::span("bench.gpusim.profiled_launch", "bench");
                        dev.launch_plan_profiled(kernel, args, dims)
                    };
                    dev.set_profile(ProfileMode::Off);
                    match launched {
                        Ok((stats, profile)) => (Ok(stats), profile.is_some()),
                        Err(e) => (Err(e), false),
                    }
                }
                Launch::Sanitized => {
                    dev.set_sanitize(SanitizeMode::On);
                    let launched = {
                        let _s = omp_telemetry::span("bench.gpusim.sanitized_launch", "bench");
                        dev.launch_plan_checked(kernel, args, dims)
                    };
                    dev.set_sanitize(SanitizeMode::Off);
                    match launched {
                        Ok((stats, findings)) => (Ok(stats), findings.is_empty()),
                        Err(e) => (Err(e), false),
                    }
                }
            };
            let launch_ms = started.elapsed().as_secs_f64() * 1e3;
            let stats = stats.map_err(|e| format!("{}: {e}", app.name()))?;
            let verified = {
                let _s = omp_telemetry::span("bench.gpusim.readback", "bench");
                verify(dev, &workload).is_ok()
            };
            Ok(OpResult {
                stats,
                ok: clean && verified,
                launch_ms,
            })
        })
    }

    fn pass(&mut self) -> Result<PassCounts, String> {
        let mut v = Values::default();
        let (mut failed, mut cycles, mut steps) = (0, 0, (0, 0));
        for i in 0..self.ops.len() {
            let (unit, launch) = self.ops[i];
            let r = self.run(unit, launch)?;
            failed += u64::from(!r.ok);
            cycles += r.stats.cycles;
            self.unit_cycles[unit] = r.stats.cycles;
            let s = &r.stats;
            v.add("gpusim.insts", s.instructions as f64);
            v.add("gpusim.rtl_calls", s.rtl_calls.values().sum::<u64>() as f64);
            v.add("gpusim.smem_bytes", s.shared_mem_bytes as f64);
            let fused = s.fused_gep_load + s.fused_load_bin_store + s.fused_cmp_br;
            steps = (steps.0 + fused, steps.1 + fused + s.plain_steps);
        }
        self.steps = steps;
        let counts = PassCounts {
            ops: self.ops.len() as u64,
            failed,
            sim_cycles: cycles,
            fingerprint: fingerprint(&[
                v.get("gpusim.insts") as u64,
                v.get("gpusim.rtl_calls") as u64,
                v.get("gpusim.smem_bytes") as u64,
            ]),
        };
        self.last = v;
        Ok(counts)
    }

    /// Team worker threads a default-jobs launch uses: one per host CPU,
    /// capped by the launch's team count.
    fn workers(&self) -> usize {
        let teams = self
            .apps
            .iter()
            .filter_map(|a| a.dims().teams)
            .max()
            .unwrap_or(1) as usize;
        crate::host_cpus().min(teams)
    }
}

impl Workload for Sim {
    fn pass_span(&self) -> &'static str {
        match self.mode {
            Mode::Proxies => "bench.sim_proxies.pass",
            Mode::Instrumented => "bench.sim_instrumented.pass",
        }
    }

    /// Proxy inputs are fixed by `Scale::Bench` (their fields are
    /// private); the seed only orders the ops.
    fn corpus_hash(&self) -> u64 {
        let order: Vec<u64> = self
            .ops
            .iter()
            .map(|&(u, l)| (u * 3 + l as usize) as u64)
            .collect();
        fingerprint(&order)
    }

    fn round(&mut self, passes: usize) -> Result<Round, String> {
        timed_round(passes, self.pass_span(), || self.pass())
    }

    fn end_window(&mut self, out: &mut Values) -> Result<(), String> {
        out.merge(&self.last);
        Ok(())
    }

    fn span_map(&self) -> SpanMap {
        SpanMap {
            per_pass: &[
                ("bench.gpusim.reset", "gpusim.reset_ms"),
                ("bench.gpusim.prepare", "gpusim.prepare_ms"),
                ("bench.gpusim.readback", "gpusim.readback_ms"),
                ("bench.gpusim.launch", "gpusim.launch_ms"),
                ("bench.gpusim.launch.XSBench", "gpusim.launch_ms.XSBench"),
                ("bench.gpusim.launch.RSBench", "gpusim.launch_ms.RSBench"),
                ("bench.gpusim.launch.SU3Bench", "gpusim.launch_ms.SU3Bench"),
                ("bench.gpusim.launch.miniQMC", "gpusim.launch_ms.miniQMC"),
                ("bench.gpusim.profiled_launch", "gpusim.profiled_launch_ms"),
                (
                    "bench.gpusim.sanitized_launch",
                    "gpusim.sanitized_launch_ms",
                ),
            ],
            outside: &[
                ("bench.gpusim.plan_build", "gpusim.plan_build_ms"),
                ("bench.gpusim.device_new", "gpusim.device_new_ms"),
            ],
            own_layers: &["gpusim"],
        }
    }

    /// The same launches on one team worker: what `jobs` buys.
    fn probe(&mut self, out: &mut Values) -> Result<(), String> {
        for unit in &mut self.units {
            unit.device.with(|d| d.set_jobs(1));
        }
        let mut totals = Vec::new();
        for _ in 0..3 {
            let mut total = 0.0;
            for i in 0..self.ops.len() {
                let (unit, launch) = self.ops[i];
                total += self.run(unit, launch)?.launch_ms;
            }
            totals.push(total);
        }
        for unit in &mut self.units {
            unit.device.with(|d| d.set_jobs(0));
        }
        out.set("gpusim.jobs1_launch_ms", median(&totals));
        Ok(())
    }

    fn derive(&self, out: &mut Values) {
        let launch_ms = out.get("gpusim.launch_ms")
            + out.get("gpusim.profiled_launch_ms")
            + out.get("gpusim.sanitized_launch_ms");
        let insts = out.get("gpusim.insts");
        out.set("gpusim.minst_per_s", insts / launch_ms / 1e3);
        let tier = match self.mode {
            Mode::Proxies => "gpusim.ns_per_inst.compiled",
            Mode::Instrumented => "gpusim.ns_per_inst.interp",
        };
        out.set(tier, launch_ms * 1e6 / insts);
        out.set(
            "gpusim.jobs_speedup",
            out.get("gpusim.jobs1_launch_ms") / launch_ms,
        );
        if self.steps.1 > 0 {
            out.set(
                "gpusim.fused_step_ratio",
                self.steps.0 as f64 / self.steps.1 as f64,
            );
        }
        out.set("gpusim.workers", self.workers() as f64);
        out.set("host.cpus", crate::host_cpus() as f64);

        // The paper's Figure 11 number: OpenMP under `dev` against the
        // CUDA-style source, geometric mean over the proxies.
        let cycles = |app: usize, config: BuildConfig| {
            self.units
                .iter()
                .position(|u| u.app == app && u.config == config)
                .map(|u| self.unit_cycles[u] as f64)
        };
        let ratios: Vec<f64> = (0..self.apps.len())
            .filter_map(|a| {
                Some(cycles(a, BuildConfig::LlvmDev)? / cycles(a, BuildConfig::CudaStyle)?)
            })
            .collect();
        if !ratios.is_empty() {
            let log_mean = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
            out.set("gpusim.cycles_ratio.dev_vs_cuda", log_mean.exp());
        }
    }
}
