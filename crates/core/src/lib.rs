//! # omp-gpu
//!
//! The facade crate of the reproduction of *"Efficient Execution of
//! OpenMP on GPUs"* (CGO 2022): compile the mini-C OpenMP dialect,
//! run the paper's OpenMP-aware optimizations, and execute the result
//! on the GPU simulator.
//!
//! * [`BuildConfig`] — the build configurations of the paper's
//!   Figure 11 legends (LLVM 12 baseline, "No OpenMP Optimization",
//!   `h2s²`, `+RTCspec`, `+CSM`, the full LLVM Dev pipeline, and the
//!   CUDA-style watermark);
//! * [`pipeline::build`] — source → optimized module under a
//!   configuration;
//! * [`job`] — the one path a source takes from text to results:
//!   [`Job`] → [`Store`] → device → launch → [`JobResult`];
//!   [`Job::run_configs`] runs a job (a source kernel, or one of the
//!   four proxy applications, host-verified) under a list of
//!   configurations, one [`Outcome`] each;
//! * [`oracle`] — the differential-execution oracle: every subject runs
//!   under the full ablation matrix and must produce bit-identical
//!   outputs with monotone resource statistics (`ompgpu verify`).
//!
//! ```
//! use omp_gpu::{pipeline, BuildConfig};
//!
//! let src = r#"
//! void scale(double* a, double f, long n) {
//!   #pragma omp target teams distribute parallel for
//!   for (long i = 0; i < n; i++) { a[i] = a[i] * f; }
//! }
//! "#;
//! let (module, _report) = pipeline::build(src, BuildConfig::LlvmDev).unwrap();
//! assert_eq!(module.kernels.len(), 1);
//! ```

mod cache;
pub mod config;
pub mod job;
pub mod oracle;
pub mod pipeline;
pub mod request;
pub mod serve;

pub use config::BuildConfig;
pub use job::{Job, JobError, JobResult, Knobs, Mode, Outcome, Readback, Store, Subject};
pub use omp_benchmarks::{all_proxies, ProxyApp, Scale};
pub use omp_frontend::{compile, FrontendOptions, GlobalizationScheme};
pub use omp_gpusim::{
    findings_to_json, Device, DeviceConfig, FaultPlan, Finding, FindingKind, KernelStats,
    LaunchDims, LaunchProfile, ProfileMode, Provenance, RtVal, SanitizeMode, Severity, SimError,
    SimErrorKind, StatsSnapshot, ThreadPos, Tier,
};
pub use omp_ir::Module;
pub use omp_opt::{OpenMpOptConfig, OptReport, PassStat, PassTiming};
pub use oracle::OracleCase;
pub use pipeline::{build, render_pass_timings, sanitize_report_json};
pub use request::Request;
pub use serve::{
    serve_unix, spawn_executor, ExecShared, ExecutorHandle, ServeJob, Session, SessionStats,
    TierStats,
};
