//! Host-side device API: buffer management and kernel launches.
//!
//! At construction the device decodes the module into an
//! [`ExecPlan`] — resolving every call target and laying out every
//! function's frame image — and binds the placed globals into it, so
//! launches pay no per-step decode cost. Launches run each
//! team on its own [`crate::mem::TeamMemView`]; teams are independent,
//! so the one team executor (`Device::run_nodes` in [`crate::stream`])
//! fans them out over the calling thread plus up to `jobs - 1` scoped
//! host threads and still merges results deterministically in team-id
//! order. A single launch is a one-node plan to that executor.

use crate::config::{DeviceConfig, Tier};
use crate::error::SimError;
use crate::mem::Memory;
use crate::plan::ExecPlan;
use crate::profile::{LaunchProfile, ProfileMode};
use crate::sanitize::{FaultPlan, Finding, SanitizeMode};
use crate::stats::KernelStats;
use omp_analysis::{kernel_register_estimate, CallGraph};
use omp_ir::{AddrSpace, Module, RtVal, Type};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Launch geometry overrides.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaunchDims {
    /// Number of teams; falls back to kernel metadata, then the device
    /// default.
    pub teams: Option<u32>,
    /// Threads per team; falls back to `thread_limit`, then the default.
    pub threads: Option<u32>,
}

/// What one [`Device::launch`] returns.
#[derive(Debug)]
pub struct Launch {
    /// Statistics of the launch: counters summed over its nodes, team
    /// cycles concatenated, shared/heap high-water maxima, registers
    /// the per-node maximum, and `cycles` the plan's makespan (a
    /// one-node plan's own kernel time).
    pub stats: KernelStats,
    /// The launch's profile when profiling is on (see
    /// [`Device::set_profile`]); `None` otherwise.
    pub profile: Option<LaunchProfile>,
    /// Sanitizer findings, merged in team-id order (empty unless
    /// [`Device::set_sanitize`] enabled the sanitizer): per-team
    /// findings in submission order, then cross-kernel races between
    /// unordered nodes. The merge order makes them bit-identical for
    /// every `jobs` setting.
    pub findings: Vec<Finding>,
}

/// A simulated GPU bound to one compiled module, which it holds a
/// handle to, so a device can outlive the scope that built it (a cache
/// entry, say). Owns device memory: buffers persist across launches;
/// shared memory and the globalization heap are per-launch.
pub struct Device {
    pub(crate) module: Arc<Module>,
    pub(crate) plan: ExecPlan,
    pub(crate) cfg: DeviceConfig,
    pub(crate) mem: Memory,
    /// Global-space initializer payloads, re-applied by [`Device::reset`].
    global_inits: Vec<(u64, Vec<u8>)>,
    /// Global-memory bump-cursor position right after construction
    /// (module globals placed, no user buffers) — the state
    /// [`Device::reset`] rewinds to.
    base_cursor: u64,
    /// Host worker threads for team execution, the caller included:
    /// 0 = auto (one per available core), 1 = run inline. At most this
    /// many, capped by host parallelism and the team count.
    jobs: u32,
    /// Per-kernel static register estimates, cached across launches
    /// (pure function of the immutable module).
    reg_estimates: std::collections::HashMap<omp_ir::FuncId, u32>,
}

impl Device {
    /// Creates a device for `module`, placing its globals. Every device
    /// charges the default [`CostModel`](crate::CostModel) (see
    /// [`ExecPlan::build`]).
    pub fn new(module: Arc<Module>, cfg: DeviceConfig) -> Result<Device, SimError> {
        // The coalescing model and the warp/lane runtime calls divide
        // by the warp size.
        if cfg.warp_size == 0 {
            return Err(SimError::bad_config("warp_size must be at least 1, got 0"));
        }
        let mut plan = {
            let _span = omp_telemetry::span("execplan.build", "gpusim");
            ExecPlan::build(&module)?
        };
        // Lay out shared-space globals at the base of each team's shared
        // memory and global-space globals at the base of global memory.
        let mut shared_off = 0u64;
        let mut globals = vec![(AddrSpace::Global, 0u64); plan.num_globals()];
        let mut global_inits: Vec<(u64, Vec<u8>)> = Vec::new();
        // First pass: shared.
        for g in module.global_ids() {
            let gl = module.global(g);
            if gl.space == AddrSpace::Shared {
                shared_off = shared_off.div_ceil(gl.align.max(1)) * gl.align.max(1);
                globals[g.index()] = (AddrSpace::Shared, shared_off);
                shared_off += gl.size;
            }
        }
        let mut mem = Memory::new(&cfg, shared_off);
        for g in module.global_ids() {
            let gl = module.global(g);
            if gl.space == AddrSpace::Global {
                let addr = mem.alloc_global(gl.size)?;
                let off = addr & 0x0FFF_FFFF_FFFF_FFFF;
                globals[g.index()] = (AddrSpace::Global, off);
                if let Some(init) = &gl.init {
                    global_inits.push((addr, init.clone()));
                }
            }
        }
        for (addr, data) in &global_inits {
            mem.write_bytes(*addr, data)?;
        }
        plan.bind_globals(&globals);
        let base_cursor = mem.global_cursor();
        Ok(Device {
            module,
            plan,
            cfg,
            mem,
            global_inits,
            base_cursor,
            jobs: 0,
            reg_estimates: std::collections::HashMap::new(),
        })
    }

    /// Restores the device to its freshly constructed memory state:
    /// every user buffer is released, the whole global arena (heap
    /// region included) is indistinguishable from a fresh
    /// `Device::new`'s, module global initializers are re-applied, and
    /// the launch high-water marks are cleared. The decoded
    /// [`ExecPlan`] and global placement survive untouched — that is
    /// the point: a long-lived service can reuse a warmed device across
    /// requests and still produce launches byte-identical to a cold
    /// `Device::new`.
    ///
    /// The cost follows the bytes written since construction or the
    /// previous reset (host writes and launch commits), not the
    /// capacity of the device; see the "Reset" section of
    /// [`crate::mem`].
    ///
    /// Mode switches (`set_profile`, `set_sanitize`, `set_fault_plan`,
    /// `set_watchdog`, `set_jobs`) are *not* reverted; callers that
    /// share a device across requests set them per request.
    pub fn reset(&mut self) {
        let _span = omp_telemetry::span("device.reset", "gpusim");
        self.mem.reset_global(self.base_cursor);
        for (addr, data) in &self.global_inits {
            // Writing within [0, base_cursor) cannot fail: the region
            // was validated at construction and the buffer size is
            // unchanged.
            let _ = self.mem.write_bytes(*addr, data);
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Sets the number of host worker threads used to execute teams:
    /// at most `jobs` (0 = auto, one per core), capped by host
    /// parallelism and the launch's team count; the calling thread is
    /// one of them. Results are bit-identical for every setting; this
    /// only trades host wall-clock time.
    pub fn set_jobs(&mut self, jobs: u32) {
        self.jobs = jobs;
    }

    /// Enables or disables cycle-attribution profiling for subsequent
    /// launches. With [`ProfileMode::Off`] (the default) launches are
    /// byte-identical to a device that never profiled.
    pub fn set_profile(&mut self, mode: ProfileMode) {
        self.cfg.profile = mode;
    }

    /// Enables or disables the device sanitizer for subsequent
    /// launches. With [`SanitizeMode::Off`] (the default) launches are
    /// byte-identical to a device that never sanitized.
    pub fn set_sanitize(&mut self, mode: SanitizeMode) {
        self.cfg.sanitize = mode;
    }

    /// Installs a deterministic fault-injection plan for subsequent
    /// launches (see [`FaultPlan`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.cfg.fault = plan.clone();
        self.mem.set_fault_plan(plan);
    }

    /// Sets the per-team wall-clock watchdog (`None` = off). A team
    /// exceeding the budget fails its launch with a structured timeout
    /// diagnostic instead of hanging the caller.
    pub fn set_watchdog(&mut self, budget: Option<Duration>) {
        self.cfg.watchdog = budget;
    }

    /// Sets the per-thread dynamic instruction budget (runaway guard).
    pub fn set_max_insts(&mut self, budget: u64) {
        self.cfg.max_insts_per_thread = budget;
    }

    /// Sets the execution tier of subsequent launches, instrumented or
    /// not: the fused-vs-unfused switch the differential tests flip
    /// ([`Tier`]). Outputs, statistics, simulated cycles, profiles and
    /// findings are bit-identical across tiers; only host wall-clock
    /// differs.
    pub fn set_tier(&mut self, tier: Tier) {
        self.cfg.tier = tier;
    }

    /// Allocates a device buffer of `bytes` bytes; returns its address.
    pub fn alloc(&mut self, bytes: u64) -> Result<u64, SimError> {
        Ok(self.mem.alloc_global(bytes)?)
    }

    /// Allocates and fills a buffer of `f64`s.
    pub fn alloc_f64(&mut self, data: &[f64]) -> Result<u64, SimError> {
        let addr = self.alloc(8 * data.len().max(1) as u64)?;
        self.write_f64(addr, data)?;
        Ok(addr)
    }

    /// Allocates and fills a buffer of `i32`s.
    pub fn alloc_i32(&mut self, data: &[i32]) -> Result<u64, SimError> {
        let addr = self.alloc(4 * data.len().max(1) as u64)?;
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.mem.write_bytes(addr, &bytes)?;
        Ok(addr)
    }

    /// Allocates and fills a buffer of `i64`s.
    pub fn alloc_i64(&mut self, data: &[i64]) -> Result<u64, SimError> {
        let addr = self.alloc(8 * data.len().max(1) as u64)?;
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.mem.write_bytes(addr, &bytes)?;
        Ok(addr)
    }

    /// Writes `f64` data into a buffer.
    pub fn write_f64(&mut self, addr: u64, data: &[f64]) -> Result<(), SimError> {
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        Ok(self.mem.write_bytes(addr, &bytes)?)
    }

    /// Reads `n` `f64`s from a buffer.
    pub fn read_f64(&mut self, addr: u64, n: usize) -> Result<Vec<f64>, SimError> {
        let bytes = self.mem.read_bytes(addr, n * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads `n` `i64`s from a buffer.
    pub fn read_i64(&mut self, addr: u64, n: usize) -> Result<Vec<i64>, SimError> {
        let bytes = self.mem.read_bytes(addr, n * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Launches `name`: every kernel whose `source_name` is `name`, as
    /// one plan in module order (see [`crate::stream`]), else the one
    /// kernel whose device function is named `name`. The plan is
    /// resolved and validated once, then run by the one team executor.
    pub fn launch(
        &mut self,
        name: &str,
        args: &[RtVal],
        dims: LaunchDims,
    ) -> Result<Launch, SimError> {
        let _span = omp_telemetry::span_lazy("gpusim", || format!("launch {name}"));
        let plan = self.resolve_plan(name, args, dims)?;
        self.execute_plan(&plan, args)
    }

    /// Checks the argument vector against the kernel function's
    /// signature and rejects launches of declarations. Runs once per
    /// node when a plan is resolved.
    pub(crate) fn validate_args(
        &self,
        name: &str,
        kfunc: omp_ir::FuncId,
        args: &[RtVal],
    ) -> Result<(), SimError> {
        let f = self.module.func(kfunc);
        if f.params.len() != args.len() {
            return Err(SimError::bad_args(format!(
                "kernel `{name}` expects {} arguments, got {}",
                f.params.len(),
                args.len()
            )));
        }
        for (i, (a, p)) in args.iter().zip(&f.params).enumerate() {
            let compatible = match p {
                Type::Ptr => a.ty() == Type::Ptr,
                t => a.ty() == *t,
            };
            if !compatible {
                return Err(SimError::bad_args(format!(
                    "argument {i} of `{name}`: expected {p}, got {:?}",
                    a.ty()
                )));
            }
        }
        if self.plan.func(kfunc).is_none() {
            return Err(SimError::trap(format!("kernel `{name}` is a declaration")));
        }
        Ok(())
    }

    /// Static register estimate over all functions reachable from the
    /// kernel. Indirect calls add a fixed penalty: the toolchain must
    /// assume spurious call edges to every address-taken function
    /// (the paper's PR46450 register-pressure effect that the custom
    /// state-machine rewrite eliminates). The estimate is a pure
    /// function of the (immutable) module, so it is computed once per
    /// kernel and cached across launches.
    pub(crate) fn register_estimate(&mut self, kfunc: omp_ir::FuncId) -> u32 {
        match self.reg_estimates.get(&kfunc) {
            Some(&r) => r,
            None => {
                let cg = CallGraph::build(&self.module);
                let reachable = cg.reachable_from([kfunc]);
                let has_indirect = reachable.iter().any(|f| cg.has_indirect_call.contains(f));
                let mut r = kernel_register_estimate(&self.module, reachable.iter().copied());
                if has_indirect {
                    r += 24;
                }
                self.reg_estimates.insert(kfunc, r);
                r
            }
        }
    }

    /// Host worker threads, the caller included, for a launch whose
    /// widest node has `teams` teams: at most the configured `jobs`
    /// (0 = auto, one per core), capped by host parallelism and by the
    /// team count. Workers beyond the host's cores could only
    /// time-slice and add a context switch per rendezvous; which worker
    /// runs a team never affects results.
    pub(crate) fn worker_count(&self, teams: u32) -> u32 {
        static HOST: OnceLock<u32> = OnceLock::new();
        // Read once per process: the query costs syscalls and cgroup
        // file reads, and every launch needs it.
        let host = *HOST.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get() as u32)
                .unwrap_or(1)
        });
        let cap = match self.jobs {
            0 => host,
            n => n.min(host),
        };
        cap.min(teams).max(1)
    }
}
