//! # omp-benchmarks
//!
//! Mini ports of the four ECP proxy applications the paper evaluates
//! (Section V-A), written in the `omp-frontend` mini-C OpenMP dialect:
//!
//! * [`xsbench`] — memory-bound continuous-energy macroscopic
//!   cross-section lookup (OpenMC proxy); SPMD-source kernel with three
//!   globalized locals (the paper's Figure 9 row: 3 stack / 0 shared).
//! * [`rsbench`] — compute-bound multipole cross-section lookup; SPMD
//!   kernel with seven globalized locals whose unoptimized allocation
//!   overflows the device heap, reproducing the paper's out-of-memory
//!   outcome.
//! * [`su3bench`] — SU(3) matrix-matrix multiply (MILC/Lattice QCD
//!   proxy), "CPU-style" version 0: a generic-mode kernel with a
//!   lightweight nested parallel region — the SPMDization showcase
//!   (4 stack / 0 shared with the D102107 extension).
//! * [`miniqmc`] — batched spline evaluation (QMCPACK proxy): a
//!   generic-mode kernel whose parallel region writes through eighteen
//!   team-shared buffers (18 shared) while three sampled coordinates
//!   stay read-only (3 stack).
//!
//! Each proxy provides the OpenMP source, a CUDA-style rewrite used as
//! the watermark baseline, deterministic workload generation, and a
//! host-side reference implementation for verification.

pub mod miniqmc;
pub mod rsbench;
pub mod su3bench;
pub mod xsbench;

use omp_gpusim::{Device, DeviceConfig, LaunchDims, RtVal, SimError};

/// Workload size preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Small inputs for tests (sub-second in debug builds).
    #[default]
    Small,
    /// Larger inputs for the benchmark harness.
    Bench,
}

/// A prepared workload: launch arguments, the output buffer, and the
/// host-computed expected values.
pub struct Workload {
    /// Kernel launch arguments.
    pub args: Vec<RtVal>,
    /// Device address of the output buffer.
    pub out_buf: u64,
    /// Number of `f64` outputs.
    pub out_len: usize,
    /// Expected outputs (host reference implementation).
    pub expected: Vec<f64>,
}

/// One proxy application.
pub trait ProxyApp {
    /// Short name (matches the paper's tables).
    fn name(&self) -> &'static str;
    /// The OpenMP (CPU-style) source.
    fn openmp_source(&self) -> String;
    /// The CUDA-style rewrite used as the watermark.
    fn cuda_source(&self) -> String;
    /// Kernel name to launch.
    fn kernel_name(&self) -> &'static str;
    /// Launch geometry.
    fn dims(&self) -> LaunchDims;
    /// Device configuration (e.g. RSBench shrinks the globalization
    /// heap to the `LIBOMPTARGET_HEAP_SIZE` default).
    fn device_config(&self) -> DeviceConfig {
        DeviceConfig::default()
    }
    /// Allocates and fills device buffers; returns launch arguments and
    /// expected outputs.
    fn prepare(&self, dev: &mut Device) -> Result<Workload, SimError>;
}

/// Verifies a finished launch against the expected outputs.
pub fn verify(dev: &mut Device, w: &Workload) -> Result<(), String> {
    let got = dev
        .read_f64(w.out_buf, w.out_len)
        .map_err(|e| format!("readback failed: {e}"))?;
    for (i, (g, e)) in got.iter().zip(&w.expected).enumerate() {
        let tol = 1e-9 * e.abs().max(1.0);
        if (g - e).abs() > tol {
            return Err(format!("output {i}: got {g}, expected {e}"));
        }
    }
    Ok(())
}

/// All four proxies at the given scale.
pub fn all_proxies(scale: Scale) -> Vec<Box<dyn ProxyApp>> {
    vec![
        Box::new(xsbench::XsBench::new(scale)),
        Box::new(rsbench::RsBench::new(scale)),
        Box::new(su3bench::Su3Bench::new(scale)),
        Box::new(miniqmc::MiniQmc::new(scale)),
    ]
}

/// Deterministic pseudo-random `f64` in `[0, 1)` used by workload
/// generators (shared with the kernels' in-source sampling).
pub(crate) fn lcg01(i: i64) -> f64 {
    let h = (i.wrapping_mul(9973) + 12345).rem_euclid(100_000);
    h as f64 / 100_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_is_deterministic_and_bounded() {
        for i in 0..1000 {
            let v = lcg01(i);
            assert!((0.0..1.0).contains(&v));
            assert_eq!(v, lcg01(i));
        }
        assert_ne!(lcg01(1), lcg01(2));
    }

    #[test]
    fn all_proxies_compile_both_sources() {
        use omp_frontend::{compile, FrontendOptions};
        for p in all_proxies(Scale::Small) {
            let m = compile(&p.openmp_source(), &FrontendOptions::default())
                .unwrap_or_else(|e| panic!("{}: openmp source: {e}", p.name()));
            omp_ir::verifier::assert_valid(&m);
            assert_eq!(m.kernels.len(), 1, "{}", p.name());
            let c = compile(&p.cuda_source(), &FrontendOptions::default())
                .unwrap_or_else(|e| panic!("{}: cuda source: {e}", p.name()));
            omp_ir::verifier::assert_valid(&c);
        }
    }
}
