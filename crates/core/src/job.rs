//! The one job path: subject → store → device → launch → reduce → render.
//!
//! Every way of running a source — `ompgpu run|profile|sanitize|verify`,
//! the differential [`oracle`](crate::oracle), the figure binaries and
//! each `ompgpu serve` op — describes what it wants as a [`Job`] and
//! gets a [`JobResult`] or a staged [`JobError`] back:
//!
//! 1. **store** — [`Store::build`] turns (source, configuration) into an
//!    optimized module through the frontend and optimized cache tiers,
//!    and the device tier hands out a warmed
//!    [`Device`] for it. A daemon keeps one store for its lifetime;
//!    the CLI and the oracle run against a fresh one (every lookup
//!    misses, six configurations of one subject still share at most two
//!    frontend runs).
//! 2. **launch** — [`Job::launch`] is the only function that arms a
//!    device, prepares inputs, launches in the requested [`Mode`],
//!    host-verifies a proxy and reads buffers back.
//! 3. **reduce / render** — callers fold results (`oracle::finish_case`,
//!    `pipeline::sanitize_report_json`, the CLI's ablation table) and
//!    render text or JSON from the same [`JobResult`] accessors.
//!
//! [`JobError`] names the stage that failed and owns the one mapping
//! from stage to exit code; classification reads the error *kind*
//! ([`JobError::kind`]), never message text.

use crate::cache::CacheTier;
use crate::config::BuildConfig;
use crate::oracle::{ArgSpec, BufInit};
use crate::pipeline;
use omp_benchmarks::ProxyApp;
use omp_frontend::GlobalizationScheme;
use omp_gpusim::{
    Device, DeviceConfig, FaultPlan, Finding, KernelStats, Launch, LaunchDims, LaunchProfile,
    MemError, ProfileMode, RtVal, SanitizeMode, SimError, SimErrorKind, Tier,
};
use omp_ir::Module;
use omp_json::{content_address, fnv1a, JsonWriter};
use omp_opt::OptReport;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Exit-code semantics shared by the CLI and the serve protocol:
/// success / clean.
pub const EXIT_OK: u8 = 0;
/// Compile, spec or I/O failure.
pub const EXIT_BUILD: u8 = 1;
/// Usage error (bad flag, malformed request, unknown op).
pub const EXIT_USAGE: u8 = 2;
/// Simulation or launch failure.
pub const EXIT_SIM: u8 = 3;
/// Oracle divergence.
pub const EXIT_DIVERGED: u8 = 4;
/// Error-severity sanitizer findings.
pub const EXIT_FINDINGS: u8 = 5;
// 6 is `ompgpu json-validate`'s unknown-schema exit.
/// A request deadline expired before or during execution.
pub const EXIT_TIMEOUT: u8 = 7;

// ---------------------------------------------------------------------
// Environment overrides
// ---------------------------------------------------------------------

/// The `OMPGPU_*` environment defaults of a front end's requests; `None`
/// where the variable is unset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnvOverrides {
    /// `OMPGPU_MAX_INSTS`: the per-thread dynamic instruction budget.
    pub max_insts: Option<u64>,
    /// `OMPGPU_JOBS`: simulator worker threads (0 = auto).
    pub jobs: Option<u32>,
}

/// Reads the `OMPGPU_*` overrides strictly: an absent one is `None`, a
/// present but malformed one is an error naming the variable, never
/// silently the default. The front ends are the only readers:
/// `ompgpu serve` calls this at session construction and every
/// launching CLI subcommand at startup; the simulator and library
/// callers never see the environment.
pub fn env_overrides() -> Result<EnvOverrides, String> {
    Ok(EnvOverrides {
        max_insts: env_override("OMPGPU_MAX_INSTS", parse_max_insts)?,
        jobs: env_override("OMPGPU_JOBS", parse_jobs)?,
    })
}

fn env_override<T>(
    name: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => Err(format!("invalid {name}: not valid UTF-8")),
        Ok(v) => parse(&v).map(Some),
    }
}

/// Strictly parses an `OMPGPU_MAX_INSTS` value.
pub(crate) fn parse_max_insts(v: &str) -> Result<u64, String> {
    v.parse().map_err(|_| {
        format!("invalid OMPGPU_MAX_INSTS {v:?}: expected a non-negative integer budget")
    })
}

/// Strictly parses an `OMPGPU_JOBS` value.
pub(crate) fn parse_jobs(v: &str) -> Result<u32, String> {
    v.parse().map_err(|_| {
        format!(
            "invalid OMPGPU_JOBS {v:?}: expected a non-negative integer worker count (0 = auto)"
        )
    })
}

// ---------------------------------------------------------------------
// Job description
// ---------------------------------------------------------------------

/// What a job launches.
#[derive(Clone, Copy)]
pub enum Subject<'a> {
    /// A kernel of a mini-C source with explicit geometry and arguments.
    Source {
        source: &'a str,
        kernel: &'a str,
        dims: LaunchDims,
        args: &'a [ArgSpec],
    },
    /// A proxy application: it brings its own sources, device shape,
    /// workload and host reference.
    Proxy(&'a dyn ProxyApp),
}

/// How the kernel is launched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    #[default]
    Plain,
    /// With the cycle-attribution profiler.
    Profile,
    /// With the device sanitizer (results are not host-verified — the
    /// oracle owns correctness, the sanitizer owns synchronization).
    Sanitize,
}

/// Per-launch device knobs; `None` keeps the default of the device's
/// configuration (`jobs`: 0 = auto).
#[derive(Debug, Clone, Default)]
pub struct Knobs {
    pub jobs: Option<u32>,
    /// The fused-vs-unfused test switch ([`Tier`]); no front end sets it.
    pub tier: Option<Tier>,
    pub max_insts: Option<u64>,
    pub watchdog: Option<Duration>,
    pub fault: FaultPlan,
}

/// How much of each buffer is read back after the launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Readback {
    #[default]
    None,
    /// The first `n` elements of every buffer (`--dump N`).
    Head(usize),
    /// Everything (the oracle's bit comparison).
    All,
}

/// One unit of work: a subject under a configuration, launched in a
/// mode with the given knobs.
#[derive(Clone)]
pub struct Job<'a> {
    pub subject: Subject<'a>,
    pub config: BuildConfig,
    pub mode: Mode,
    pub knobs: Knobs,
    pub readback: Readback,
}

/// A buffer's contents after the launch.
#[derive(Debug, Clone, PartialEq)]
pub enum Buffer {
    F64(Vec<f64>),
    I64(Vec<i64>),
}

impl Buffer {
    /// Bit patterns (`f64::to_bits` / `i64 as u64`) for exact comparison.
    pub fn bits(&self) -> Vec<u64> {
        match self {
            Buffer::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
            Buffer::I64(v) => v.iter().map(|x| *x as u64).collect(),
        }
    }

    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_array();
        match self {
            Buffer::F64(v) => v.iter().for_each(|x| {
                w.f64(*x);
            }),
            Buffer::I64(v) => v.iter().for_each(|x| {
                w.i64(*x);
            }),
        }
        w.end_array();
    }
}

/// The `--dump` rendering: `[..LEN] = [elements]`.
impl fmt::Display for Buffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Buffer::F64(v) => write!(f, "[..{}] = {v:?}", v.len()),
            Buffer::I64(v) => write!(f, "[..{}] = {v:?}", v.len()),
        }
    }
}

/// Everything a successful job produced.
#[derive(Debug)]
pub struct JobResult {
    /// The build that ran (module, content address, optimizer report).
    pub built: Arc<Built>,
    pub stats: KernelStats,
    /// Present in [`Mode::Profile`].
    pub profile: Option<LaunchProfile>,
    /// Sanitizer findings in team-id order ([`Mode::Sanitize`]).
    pub findings: Vec<Finding>,
    /// One entry per buffer argument (a proxy: its output buffer), cut
    /// to the job's [`Readback`]; empty for [`Readback::None`].
    pub buffers: Vec<Buffer>,
}

impl JobResult {
    /// The deterministic statistics object (`run --json`, and the
    /// `stats` member of every serve payload).
    pub fn stats_json(&self) -> String {
        self.stats.snapshot().to_json()
    }
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// A stage boundary of the job path (also the serve protocol's
/// fault-injection targets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Source parsing + lowering (the frontend tier).
    Frontend,
    /// The optimizer pipeline (the optimized tier).
    Optimize,
    /// Device construction / plan decode (the device tier).
    Device,
    /// Kernel launch on the armed device.
    Launch,
}

impl Stage {
    pub const ALL: [Stage; 4] = [
        Stage::Frontend,
        Stage::Optimize,
        Stage::Device,
        Stage::Launch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Stage::Frontend => "frontend",
            Stage::Optimize => "optimize",
            Stage::Device => "device",
            Stage::Launch => "launch",
        }
    }

    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.name() == s)
    }
}

/// A seeded stage fault (chaos testing): fail at `stage` by returning
/// [`JobError::Injected`] or, with `panic`, by unwinding.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageFault {
    pub stage: Stage,
    pub panic: bool,
}

/// Why a job failed, by stage.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The subject's launch spec is missing or malformed.
    Spec(String),
    /// Frontend diagnostics or post-optimization IR verification.
    Build(String),
    /// Device construction (plan decode, global placement).
    Device(String),
    /// Staging inputs on the device.
    Prepare(SimError),
    /// The launch itself.
    Launch(SimError),
    /// A proxy's outputs differ from its host reference.
    HostVerify(String),
    /// Reading buffers back.
    Readback(SimError),
    /// A seeded stage fault fired (chaos testing).
    Injected(Stage),
}

impl JobError {
    /// The process / envelope exit code of this failure.
    pub fn exit_code(&self) -> u8 {
        match self {
            JobError::Spec(_)
            | JobError::Build(_)
            | JobError::Injected(Stage::Frontend | Stage::Optimize) => EXIT_BUILD,
            JobError::Launch(e) if matches!(e.kind, SimErrorKind::DeadlineExceeded { .. }) => {
                EXIT_TIMEOUT
            }
            _ => EXIT_SIM,
        }
    }

    /// The simulator's error kind, when the failing stage ran on the
    /// device.
    pub fn kind(&self) -> Option<&SimErrorKind> {
        match self {
            JobError::Prepare(e) | JobError::Launch(e) | JobError::Readback(e) => Some(&e.kind),
            _ => None,
        }
    }

    /// Whether the device ran out of memory while staging or running:
    /// the paper's documented outcome for builds that lack the
    /// globalization optimizations.
    pub fn is_out_of_memory(&self) -> bool {
        matches!(
            self,
            JobError::Prepare(e) | JobError::Launch(e) if matches!(
                e.kind,
                SimErrorKind::Mem(MemError::HeapExhausted { .. } | MemError::GlobalExhausted)
            )
        )
    }

    /// The table-cell rendering used by the figure binaries and
    /// `profile --proxy`: memory faults during the launch carry the
    /// `OOM/memory: ` tag.
    pub fn tagged(&self) -> String {
        match self {
            JobError::Launch(e) if matches!(e.kind, SimErrorKind::Mem(_)) => {
                format!("OOM/memory: {e}")
            }
            _ => self.to_string(),
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Spec(e) => write!(f, "spec error: {e}"),
            JobError::Build(e) | JobError::Device(e) => f.write_str(e),
            JobError::Prepare(e) | JobError::Launch(e) => write!(f, "{e}"),
            JobError::HostVerify(e) => write!(f, "verification failed: {e}"),
            JobError::Readback(e) => write!(f, "readback failed: {e}"),
            JobError::Injected(s) => write!(f, "injected fault: {} stage failure", s.name()),
        }
    }
}

impl std::error::Error for JobError {}

// ---------------------------------------------------------------------
// The artifact store
// ---------------------------------------------------------------------

/// Hit/miss counters of one cache tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute the artifact.
    pub misses: u64,
}

impl TierStats {
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("hits").u64(self.hits);
        w.key("misses").u64(self.misses);
        w.end_object();
    }
}

/// Hit/miss accounting of the three tiers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounts {
    /// Source → frontend module.
    pub frontend: TierStats,
    /// (frontend module, configuration) → optimized module.
    pub optimized: TierStats,
    /// Optimized module → warmed device (with its decoded ExecPlan).
    pub device: TierStats,
}

impl TierCounts {
    /// The tiers by wire name, in pipeline order.
    pub(crate) fn tiers(&self) -> [(&'static str, TierStats); 3] {
        [
            ("frontend", self.frontend),
            ("optimized", self.optimized),
            ("device", self.device),
        ]
    }

    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        for (name, t) in self.tiers() {
            w.key(name);
            t.write_json(w);
        }
        w.end_object();
    }
}

/// An optimized module: the optimized tier's entry.
#[derive(Debug)]
pub struct Built {
    pub config: BuildConfig,
    pub module: Arc<Module>,
    /// FNV-1a of the printed optimized IR — the device tier's digest and
    /// the artifact's public content address.
    pub ir_hash: u64,
    /// The printed optimized IR: the device tier's key material.
    pub(crate) ir: Arc<str>,
    /// The optimizer's report (when the mid-end ran).
    pub report: Option<OptReport>,
}

impl Built {
    /// The deterministic `compile` payload: counts, remarks and the
    /// kernel table. Pass timings (wall clock) are deliberately
    /// excluded; everything here is a pure function of (source,
    /// configuration), so a warm answer is byte-identical to a cold one.
    pub fn compile_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(1024);
        w.begin_object();
        w.key("config").string(self.config.cli_name());
        w.key("module").string(&content_address(self.ir_hash));
        w.key("functions").usize(self.module.num_functions());
        w.key("kernels").begin_array();
        for k in &self.module.kernels {
            w.begin_object();
            w.key("name").string(&k.source_name);
            w.key("mode").string(&format!("{:?}", k.exec_mode));
            w.end_object();
        }
        w.end_array();
        match &self.report {
            Some(r) => {
                let c = r.counts;
                w.key("counts").begin_object();
                for (name, n) in [
                    ("internalized", c.internalized),
                    ("heap_to_stack", c.heap_to_stack),
                    ("heap_to_shared", c.heap_to_shared),
                    ("spmdized", c.spmdized),
                    ("csm_possible", c.csm_possible),
                    ("csm_rewritten", c.csm_rewritten),
                    ("csm_with_fallback", c.csm_with_fallback),
                    ("folds_exec_mode", c.folds_exec_mode),
                    ("folds_parallel_level", c.folds_parallel_level),
                    ("folds_launch_params", c.folds_launch_params),
                    ("guard_regions", c.guard_regions),
                    ("broadcasts", c.broadcasts),
                ] {
                    w.key(name).usize(n);
                }
                w.end_object();
                w.key("remarks").begin_array();
                for remark in r.remarks.all() {
                    remark.write_json(&mut w);
                }
                w.end_array();
            }
            None => {
                w.key("counts").null();
                w.key("remarks").begin_array().end_array();
            }
        }
        w.end_object();
        w.finish()
    }
}

/// Entries per module tier. `serve_churn`'s ring sends a reused source
/// back within about 64 new sources across its two clients, about 94
/// optimized inserts; 256 is over 2.5 times that reuse distance, and at
/// about 26 KiB per entry a full tier holds about 7 MiB.
pub const MODULE_TIER_CAPACITY: usize = 256;

/// A module's printed IR and that text's FNV-1a.
fn printed(module: &Module) -> (Arc<str>, u64) {
    let ir = omp_ir::printer::print_module(module);
    let hash = fnv1a(ir.as_bytes());
    (ir.into(), hash)
}

/// A frontend-tier entry: the lowered module, its printed IR (the
/// optimized tier's key material) and that text's FNV-1a.
type Lowered = (Arc<Module>, Arc<str>, u64);

/// Fires `fault` if it targets `stage`.
fn check(fault: Option<StageFault>, stage: Stage) -> Result<(), JobError> {
    match fault {
        Some(f) if f.stage == stage => {
            if f.panic {
                panic!("injected panic at {} stage", stage.name());
            }
            Err(JobError::Injected(stage))
        }
        _ => Ok(()),
    }
}

/// Artifact caches at the pipeline's three stage boundaries, one
/// `CacheTier` each, keyed by the full input of the artifact it holds
/// (`docs/SERVE.md` has the key definitions). The frontend depends on
/// the configuration only through the globalization scheme and CUDA
/// mode, so the six OpenMP-source configurations share at most two
/// frontend entries per source. A device hit is
/// [`reset`](omp_gpusim::Device::reset) to its freshly constructed
/// memory image, which makes warm launches byte-identical to cold. The
/// module tiers hold [`MODULE_TIER_CAPACITY`] entries and the device
/// tier what [`Store::new`] is given; each evicts its least recently
/// used entry. Launches are not cached: every job resolves its kernel's
/// launch plan on the armed device.
///
/// Not internally synchronized.
pub struct Store {
    // Each key leads with a 64-bit FNV-1a digest of its source or IR
    // text, so a lookup passes over almost every other entry on one
    // integer compare.
    frontend: CacheTier<(u64, GlobalizationScheme, bool, String), Lowered>,
    optimized: CacheTier<(u64, BuildConfig, Arc<str>), Arc<Built>>,
    devices: CacheTier<(u64, DeviceConfig, Arc<str>), Device>,
    fault: Option<StageFault>,
}

impl Store {
    /// A store whose device LRU holds up to `device_capacity` entries.
    /// With `0` no device is ever reused: each job gets a newly built
    /// one, which is what a one-shot caller wants — it never sees the
    /// same device twice, so a kept one would only hold memory.
    pub fn new(device_capacity: usize) -> Store {
        Store {
            frontend: CacheTier::new(MODULE_TIER_CAPACITY),
            optimized: CacheTier::new(MODULE_TIER_CAPACITY),
            devices: CacheTier::new(device_capacity),
            fault: None,
        }
    }

    /// Opens an accounting window: clears every tier's hit/miss trace
    /// and seeds `fault` for the jobs that follow.
    pub(crate) fn begin(&mut self, fault: Option<StageFault>) {
        self.frontend.begin();
        self.optimized.begin();
        self.devices.begin();
        self.fault = fault;
    }

    /// Hits and misses since the current accounting window opened.
    pub fn trace(&self) -> TierCounts {
        TierCounts {
            frontend: self.frontend.trace(),
            optimized: self.optimized.trace(),
            device: self.devices.trace(),
        }
    }

    /// Hits and misses over the store's lifetime.
    pub(crate) fn totals(&self) -> TierCounts {
        TierCounts {
            frontend: self.frontend.totals(),
            optimized: self.optimized.totals(),
            device: self.devices.totals(),
        }
    }

    /// Closes the window. When it `failed`, every insertion it made is
    /// rolled back — a failure never populates a tier; with
    /// `quarantine`, the devices it touched are dropped as well (rebuilt
    /// cold on next use), so a device interrupted mid-launch can never
    /// answer a later job.
    pub(crate) fn finish(&mut self, failed: bool, quarantine: bool) {
        self.fault = None;
        self.frontend.finish(failed, false);
        self.optimized.finish(failed, false);
        self.devices.finish(failed, quarantine);
    }

    /// Live entries per tier: frontend, optimized, device.
    pub fn entries(&self) -> [usize; 3] {
        [
            self.frontend.len(),
            self.optimized.len(),
            self.devices.len(),
        ]
    }

    pub(crate) fn device_capacity(&self) -> usize {
        self.devices.capacity()
    }

    /// The optimized build of `source` under `config` — the one place a
    /// source becomes a module.
    pub fn build(&mut self, source: &str, config: BuildConfig) -> Result<Arc<Built>, JobError> {
        check(self.fault, Stage::Frontend)?;
        let fe = config.frontend_options("bench");
        let digest = fnv1a(source.as_bytes());
        let key = (digest, fe.globalization, fe.cuda_mode, source.to_owned());
        let (fe_module, fe_ir, fe_hash) = self
            .frontend
            .get_or_try_insert(key, || {
                let module = pipeline::compile_frontend(source, config)
                    .map_err(|e| JobError::Build(e.to_string()))?;
                let (ir, hash) = printed(&module);
                Ok((Arc::new(module), ir, hash))
            })?
            .0
            .clone();
        check(self.fault, Stage::Optimize)?;
        let (built, _) = self
            .optimized
            .get_or_try_insert((fe_hash, config, fe_ir), || {
                let (module, report) = pipeline::optimize((*fe_module).clone(), config)
                    .map_err(|e| JobError::Build(e.to_string()))?;
                let (ir, ir_hash) = printed(&module);
                Ok(Arc::new(Built {
                    config,
                    module: Arc::new(module),
                    ir_hash,
                    ir,
                    report,
                }))
            })?;
        Ok(Arc::clone(built))
    }

    /// A pristine device for `built`: a warm one reset to its
    /// construction-time image, else a new one — the one place a module
    /// becomes a device.
    fn device(&mut self, built: &Built, cfg: &DeviceConfig) -> Result<&mut Device, JobError> {
        check(self.fault, Stage::Device)?;
        let key = (built.ir_hash, cfg.clone(), Arc::clone(&built.ir));
        let (dev, hit) = self.devices.get_or_try_insert(key, || {
            Device::new(Arc::clone(&built.module), cfg.clone())
                .map_err(|e| JobError::Device(e.to_string()))
        })?;
        if hit {
            dev.reset();
        }
        Ok(dev)
    }
}

// ---------------------------------------------------------------------
// Running a job
// ---------------------------------------------------------------------

/// `(device address, element count, is_f64)` of a staged buffer.
type BufferHandle = (u64, usize, bool);

/// Element `i` of a buffer initialized per `init`: zeros, `i`, or the
/// deterministic pseudo-random sequence in `[0, 1)` shared with
/// `omp_benchmarks` (kept in lock-step so specs stay reproducible).
fn init_value(init: BufInit, i: i64) -> f64 {
    match init {
        BufInit::Zero => 0.0,
        BufInit::Iota => i as f64,
        BufInit::Pseudo => (i.wrapping_mul(9973) + 12345).rem_euclid(100_000) as f64 / 100_000.0,
    }
}

/// Stages launch arguments: buffers are allocated and deterministically
/// initialized (`i64` buffers scale the pseudo-random sequence to
/// `0..1000`); scalars pass through.
fn materialize(
    dev: &mut Device,
    specs: &[ArgSpec],
) -> Result<(Vec<RtVal>, Vec<BufferHandle>), SimError> {
    let mut args: Vec<RtVal> = Vec::new();
    let mut buffers: Vec<BufferHandle> = Vec::new();
    for a in specs {
        match *a {
            ArgSpec::BufF64(n, init) => {
                let data: Vec<f64> = (0..n as i64).map(|i| init_value(init, i)).collect();
                let addr = dev.alloc_f64(&data)?;
                buffers.push((addr, n, true));
                args.push(RtVal::Ptr(addr));
            }
            ArgSpec::BufI64(n, init) => {
                let scale = if init == BufInit::Pseudo { 1000.0 } else { 1.0 };
                let data: Vec<i64> = (0..n as i64)
                    .map(|i| (init_value(init, i) * scale) as i64)
                    .collect();
                let addr = dev.alloc_i64(&data)?;
                buffers.push((addr, n, false));
                args.push(RtVal::Ptr(addr));
            }
            ArgSpec::I64(v) => args.push(RtVal::I64(v)),
            ArgSpec::I32(v) => args.push(RtVal::I32(v)),
            ArgSpec::F64(v) => args.push(RtVal::F64(v)),
        }
    }
    Ok((args, buffers))
}

impl<'a> Job<'a> {
    /// A plain, knob-free job reading nothing back.
    pub fn new(subject: Subject<'a>, config: BuildConfig) -> Job<'a> {
        Job {
            subject,
            config,
            mode: Mode::Plain,
            knobs: Knobs::default(),
            readback: Readback::None,
        }
    }

    /// Builds the subject's source under the job's configuration.
    pub fn build(&self, store: &mut Store) -> Result<Arc<Built>, JobError> {
        match self.subject {
            Subject::Source { source, .. } => store.build(source, self.config),
            Subject::Proxy(app) if self.config.uses_cuda_source() => {
                store.build(&app.cuda_source(), self.config)
            }
            Subject::Proxy(app) => store.build(&app.openmp_source(), self.config),
        }
    }

    /// Builds, then launches.
    pub fn run(&self, store: &mut Store) -> Result<JobResult, JobError> {
        let built = self.build(store)?;
        self.launch(store, &built)
    }

    /// Launches `built` on a pristine device of the store: arm the
    /// knobs, stage the inputs, launch in the job's mode, host-verify a
    /// proxy, read back. Every mode launches the kernel's whole plan; a
    /// one-node plan is exactly a single launch.
    pub fn launch(&self, store: &mut Store, built: &Arc<Built>) -> Result<JobResult, JobError> {
        let (kernel, dims, cfg) = match self.subject {
            Subject::Source { kernel, dims, .. } => (kernel, dims, DeviceConfig::default()),
            Subject::Proxy(app) => (app.kernel_name(), app.dims(), app.device_config()),
        };
        let fault = store.fault;
        let d = store.device(built, &cfg)?;
        check(fault, Stage::Launch)?;
        let on = |mode| self.mode == mode;
        d.set_jobs(self.knobs.jobs.unwrap_or(0));
        d.set_tier(self.knobs.tier.unwrap_or(cfg.tier));
        d.set_max_insts(self.knobs.max_insts.unwrap_or(cfg.max_insts_per_thread));
        d.set_watchdog(self.knobs.watchdog);
        d.set_fault_plan(self.knobs.fault.clone());
        d.set_profile(if on(Mode::Profile) {
            ProfileMode::On
        } else {
            ProfileMode::Off
        });
        d.set_sanitize(if on(Mode::Sanitize) {
            SanitizeMode::On
        } else {
            SanitizeMode::Off
        });

        let (args, handles, workload) = match self.subject {
            Subject::Source { args, .. } => {
                let (args, handles) = materialize(d, args).map_err(JobError::Prepare)?;
                (args, handles, None)
            }
            Subject::Proxy(app) => {
                let mut w = app.prepare(d).map_err(JobError::Prepare)?;
                let args = std::mem::take(&mut w.args);
                (args, vec![(w.out_buf, w.out_len, true)], Some(w))
            }
        };

        let Launch {
            stats,
            profile,
            findings,
        } = d.launch(kernel, &args, dims).map_err(JobError::Launch)?;

        // Host reference first: bit-equality between two wrong
        // builds must not pass the oracle.
        if let (Some(w), false) = (&workload, on(Mode::Sanitize)) {
            omp_benchmarks::verify(d, w).map_err(JobError::HostVerify)?;
        }
        let read = |(addr, len, is_f64): BufferHandle| {
            let n = match self.readback {
                Readback::None => return None,
                Readback::Head(n) => n.min(len),
                Readback::All => len,
            };
            Some(match is_f64 {
                true => d.read_f64(addr, n).map(Buffer::F64),
                false => d.read_i64(addr, n).map(Buffer::I64),
            })
        };
        let buffers = handles
            .into_iter()
            .filter_map(read)
            .collect::<Result<Vec<Buffer>, SimError>>()
            .map_err(JobError::Readback)?;
        Ok(JobResult {
            built: Arc::clone(built),
            stats,
            profile,
            findings,
            buffers,
        })
    }
}
