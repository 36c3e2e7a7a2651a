//! # omp-gpusim
//!
//! A GPU execution simulator for the `omp-gpu` compiler: the substitute
//! for the NVIDIA V100 + libomptarget device runtime used by the paper
//! *"Efficient Execution of OpenMP on GPUs"* (CGO 2022).
//!
//! The simulator interprets `omp-ir` kernels with full OpenMP device
//! runtime semantics — generic-mode worker state machines, SPMD
//! execution, parallel-region dispatch, barriers, worksharing, and the
//! globalization allocators — while charging an abstract cycle model
//! ([`CostModel`]) that preserves the cost *ordering* the paper's
//! optimizations exploit: registers ≪ shared ≪ coalesced global ≪
//! uncoalesced global, and context queries ≪ runtime allocation ≪
//! generic parallel dispatch.
//!
//! Kernel launches report the paper's Figure 10 quantities: kernel time
//! (cycles), shared-memory footprint, and a register estimate — as raw
//! [`KernelStats`], or as a [`StatsSnapshot`]: a deterministic,
//! comparison-friendly projection the differential-execution oracle
//! uses to assert monotone resource usage along the ablation chain.
//!
//! ```
//! use omp_frontend::{compile, FrontendOptions};
//! use omp_gpusim::{Device, DeviceConfig, LaunchDims, RtVal};
//! use std::sync::Arc;
//!
//! let src = r#"
//! void fill(double* a, long n) {
//!   #pragma omp target teams distribute parallel for
//!   for (long i = 0; i < n; i++) { a[i] = (double)i * 2.0; }
//! }
//! "#;
//! let module = compile(src, &FrontendOptions::default()).unwrap();
//! let mut dev = Device::new(Arc::new(module), DeviceConfig::default()).unwrap();
//! let buf = dev.alloc_f64(&[0.0; 64]).unwrap();
//! let launch = dev
//!     .launch(
//!         "fill",
//!         &[RtVal::Ptr(buf), RtVal::I64(64)],
//!         LaunchDims { teams: Some(2), threads: Some(16) },
//!     )
//!     .unwrap();
//! assert!(launch.stats.cycles > 0);
//! let out = dev.read_f64(buf, 64).unwrap();
//! assert_eq!(out[10], 20.0);
//! ```

pub(crate) mod compat;
pub(crate) mod compile;
pub mod config;
pub mod cost;
pub mod error;
pub(crate) mod interp;
pub mod launch;
pub mod mem;
pub(crate) mod observe;
pub(crate) mod plan;
pub mod profile;
pub mod sanitize;
pub mod stats;
pub mod stream;

pub use compat::*;
pub use config::{DeviceConfig, Tier};
pub use cost::CostModel;
pub use error::{Provenance, SimError, SimErrorKind, ThreadPos};
pub use launch::{Device, Launch, LaunchDims};
pub use mem::MemError;
pub use omp_ir::RtVal;
pub use plan::ExecPlan;
pub use profile::{
    FuncProfile, LaunchProfile, ProfileMode, RegionSpan, RtlProfile, StreamSpan, TeamTrack,
};
pub use sanitize::{findings_to_json, FaultPlan, Finding, FindingKind, SanitizeMode, Severity};
pub use stats::{KernelStats, StatsSnapshot};
pub use stream::{CapturedGraph, LaunchPlan, PlanNode};

/// The owning shape a long-lived cache stores: a [`Device`] holds an
/// `Arc` of its module, so it keeps running after the scope that built
/// the module is gone.
#[cfg(test)]
mod owned {
    mod tests {
        use crate::{Device, DeviceConfig, LaunchDims, RtVal};
        use omp_frontend::{compile, FrontendOptions};
        use std::sync::Arc;

        const SRC: &str = r#"
void fill(double* a, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) { a[i] = (double)i * 2.0; }
}
"#;

        #[test]
        fn owned_device_runs_and_outlives_caller_scope() {
            let module = Arc::new(compile(SRC, &FrontendOptions::default()).unwrap());
            let mut dev = {
                // The device escapes the scope that created its Arc
                // binding — exactly the cache-storage shape.
                let m = Arc::clone(&module);
                Device::new(m, DeviceConfig::default()).unwrap()
            };
            let buf = dev.alloc_f64(&[0.0; 32]).unwrap();
            dev.launch(
                "fill",
                &[RtVal::Ptr(buf), RtVal::I64(32)],
                LaunchDims {
                    teams: Some(2),
                    threads: Some(8),
                },
            )
            .unwrap();
            let out = dev.read_f64(buf, 32).unwrap();
            assert_eq!(out[10], 20.0);
            // The device holds the one other handle to the module.
            assert_eq!(Arc::strong_count(&module), 2);
            assert_eq!(dev.module.kernels.len(), 1);
            drop(module);
            // With the caller's handle gone the device still runs.
            dev.launch(
                "fill",
                &[RtVal::Ptr(buf), RtVal::I64(32)],
                LaunchDims {
                    teams: Some(2),
                    threads: Some(8),
                },
            )
            .unwrap();
            assert_eq!(dev.read_f64(buf, 32).unwrap()[31], 62.0);
        }
    }
}
