//! `launch_storm`: a 16-node `nowait depend(inout: a)` chain of tiny
//! kernels on one device, 16 times eagerly and 16 times as a replayed
//! graph per pass. Almost no simulated work, so per-launch set-up, worker
//! spawn and park, `TeamMemView` and merge/commit are the whole pass.

use super::fingerprint;
use crate::gen::{chain_source, Rng, CHAIN_ELEMS, CHAIN_NODES, CHAIN_SUM};
use crate::harness::{timed_round, PassCounts, Round, SpanMap, Workload};
use crate::metrics::Values;
use crate::stats::median;
use omp_gpu::{pipeline, BuildConfig};
use omp_gpusim::{DeviceConfig, LaunchDims, OwnedDevice, RtVal};
use std::sync::Arc;
use std::time::Instant;

const KERNEL: &str = "gchain";
/// Executions of the whole chain per pass, each way.
const CHAINS: usize = 16;

pub struct LaunchStorm {
    device: OwnedDevice,
    buffer: u64,
    /// Chain executions since the buffer was zeroed.
    executions: u64,
    corpus_hash: u64,
    last: Values,
}

impl LaunchStorm {
    pub fn new(seed: u64) -> Result<LaunchStorm, String> {
        let source = chain_source(&mut Rng::new(seed));
        let module = {
            let _s = omp_telemetry::span("bench.pipeline.build", "bench");
            pipeline::build(&source, BuildConfig::LlvmDev)
                .map_err(|e| e.to_string())?
                .0
        };
        let mut device = {
            let _s = omp_telemetry::span("bench.gpusim.device_new", "bench");
            OwnedDevice::new(Arc::new(module), DeviceConfig::default())
                .map_err(|e| e.to_string())?
        };
        let buffer = device
            .with(|d| d.alloc_f64(&[0.0; CHAIN_ELEMS]))
            .map_err(|e| e.to_string())?;
        Ok(LaunchStorm {
            device,
            buffer,
            executions: 0,
            corpus_hash: omp_json::fnv1a(source.as_bytes()),
            last: Values::default(),
        })
    }

    fn args(&self) -> [RtVal; 2] {
        [RtVal::Ptr(self.buffer), RtVal::I64(CHAIN_ELEMS as i64)]
    }

    /// Reads the buffer back and checks it against the closed form: every
    /// element is 136 × executions, exactly.
    fn buffer_is_exact(&mut self) -> bool {
        let _s = omp_telemetry::span("bench.gpusim.readback", "bench");
        let expected = CHAIN_SUM * self.executions as f64;
        self.device
            .with(|d| d.read_f64(self.buffer, CHAIN_ELEMS))
            .is_ok_and(|got| got.iter().all(|&x| x == expected))
    }

    fn pass(&mut self) -> Result<PassCounts, String> {
        let args = self.args();
        let dims = LaunchDims::default();
        let (cycles, insts) = self.device.with(|d| {
            let graph = {
                let _s = omp_telemetry::span("bench.gpusim.capture", "bench");
                d.capture_graph(KERNEL, &args, dims)
            }
            .map_err(|e| e.to_string())?;
            let (mut cycles, mut insts) = (0, 0);
            // Replay and eager launch take turns. The order is fixed, not
            // seeded: a launch's cost can depend on what ran before it,
            // and pass time must not depend on the seed.
            for i in 0..2 * CHAINS {
                let stats = if i % 2 == 0 {
                    let _s = omp_telemetry::span("bench.gpusim.replay", "bench");
                    d.replay_graph(&graph)
                } else {
                    let _s = omp_telemetry::span("bench.gpusim.eager", "bench");
                    d.launch_plan(KERNEL, &args, dims)
                }
                .map_err(|e| e.to_string())?;
                cycles += stats.cycles;
                insts += stats.instructions;
            }
            Ok::<_, String>((cycles, insts))
        })?;
        self.executions += 2 * CHAINS as u64;
        // One op per launch or replay plus the capture; a wrong buffer
        // cannot be pinned on one of them, so it fails them all.
        let ops = 2 * CHAINS as u64 + 1;
        let failed = if self.buffer_is_exact() { 0 } else { ops };
        self.last.set("gpusim.insts", insts as f64);
        Ok(PassCounts {
            ops,
            failed,
            sim_cycles: cycles,
            fingerprint: fingerprint(&[insts]),
        })
    }
}

impl Workload for LaunchStorm {
    fn pass_span(&self) -> &'static str {
        "bench.launch_storm.pass"
    }

    fn corpus_hash(&self) -> u64 {
        self.corpus_hash
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
                // Per-pass sums here; `derive` turns them into per-chain
                // and per-node figures.
                ("bench.gpusim.capture", "gpusim.capture_us"),
                ("bench.gpusim.eager", "gpusim.eager_chain_ms"),
                ("bench.gpusim.replay", "gpusim.replay_chain_ms"),
                ("bench.gpusim.readback", "gpusim.readback_ms"),
            ],
            outside: &[("bench.gpusim.device_new", "gpusim.device_new_ms")],
            own_layers: &["gpusim"],
        }
    }

    /// The eager chain on one team worker: how much of the eager cost is
    /// spawning workers for four 8-thread teams.
    fn probe(&mut self, out: &mut Values) -> Result<(), String> {
        let args = self.args();
        let mut ms = Vec::with_capacity(CHAINS);
        self.device.with(|d| {
            d.set_jobs(1);
            for _ in 0..CHAINS {
                let t = Instant::now();
                let launched = {
                    let _s = omp_telemetry::span("bench.gpusim.eager_jobs1", "bench");
                    d.launch_plan(KERNEL, &args, LaunchDims::default())
                };
                ms.push(t.elapsed().as_secs_f64() * 1e3);
                if let Err(e) = launched {
                    d.set_jobs(0);
                    return Err(e.to_string());
                }
            }
            d.set_jobs(0);
            Ok(())
        })?;
        self.executions += CHAINS as u64;
        if !self.buffer_is_exact() {
            return Err("the chain on one worker left a wrong buffer".into());
        }
        out.set("gpusim.eager_chain_ms.jobs1", median(&ms));
        Ok(())
    }

    fn derive(&self, out: &mut Values) {
        let eager = out.get("gpusim.eager_chain_ms") / CHAINS as f64;
        let replay = out.get("gpusim.replay_chain_ms") / CHAINS as f64;
        out.set("gpusim.eager_chain_ms", eager);
        out.set("gpusim.replay_chain_ms", replay);
        out.set("gpusim.capture_us", out.get("gpusim.capture_us") * 1e3);
        out.set("gpusim.launch_fixed_us", eager * 1e3 / CHAIN_NODES as f64);
        out.set("gpusim.replay_speedup", eager / replay);
        out.set("gpusim.workers", crate::host_cpus().min(4) as f64);
        out.set("host.cpus", crate::host_cpus() as f64);
    }
}
