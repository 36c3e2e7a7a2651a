//! Device configuration.
//!
//! The simulator reads no environment: a device runs with exactly the
//! configuration it was given. The front ends (`ompgpu`'s subcommands
//! and `ompgpu serve`) resolve the `OMPGPU_*` variables themselves and
//! arm each launch through the device's setters, so a library caller
//! (the figure binaries, the examples, the benchmark) gets these
//! defaults whatever its environment holds.

use crate::profile::ProfileMode;
use crate::sanitize::{FaultPlan, SanitizeMode};
use std::time::Duration;

/// Execution tier for kernel launches: a test switch, not a product
/// knob. No front end reads it from a flag, a request field or the
/// environment; the differential tests flip it
/// ([`DeviceConfig::tier`], [`crate::Device::set_tier`]) to check the
/// fused path against the per-entry one.
///
/// The executor runs every block in one loop, either through the fused
/// superinstruction body built at plan time or one pre-decoded entry at
/// a time with a budget check before each. `Compiled` (the default)
/// takes the fused body wherever the block has one (no call in it), the
/// frame sits at the block head and the budget covers the block;
/// `Interp` runs every block entry by entry. Both tiers execute the
/// same steps and feed the same observers, so outputs, statistics,
/// simulated cycles, profiles and sanitizer findings are bit-identical
/// between them; only wall-clock and the superinstruction counters
/// (all zero under `Interp`) differ. The tier that runs is the tier
/// that was asked for: profiling, sanitizing and fault injection do not
/// change it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// Every block entry by entry: the differential reference.
    Interp,
    /// Fused block bodies wherever a block has one.
    #[default]
    Compiled,
}

/// Static description of the simulated GPU (defaults are loosely
/// V100-shaped: 80 SMs, 32-wide warps, 48 KiB of shared memory per
/// resident team).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Number of streaming multiprocessors. Teams are distributed
    /// round-robin over SMs; kernel time is the maximum SM time.
    pub num_sms: u32,
    /// Threads per warp.
    pub warp_size: u32,
    /// Default number of teams when neither the kernel metadata nor the
    /// launch overrides it.
    pub default_teams: u32,
    /// Default threads per team under the same conditions.
    pub default_threads: u32,
    /// Shared memory available to each team, in bytes. The globalization
    /// stack lives here after the module's static shared globals.
    pub shared_mem_per_team: u64,
    /// Device "heap" used when the shared globalization stack overflows
    /// (the paper's `LIBOMPTARGET_HEAP_SIZE`). Exhausting it aborts the
    /// kernel with an out-of-memory error, as the paper reports for
    /// RSBench.
    pub global_heap_bytes: u64,
    /// Global memory available for host-allocated buffers, in bytes.
    pub global_mem_bytes: u64,
    /// Per-thread local (stack) memory, in bytes.
    pub local_mem_per_thread: u64,
    /// Whether a thread reading another thread's local memory traps
    /// (real GPUs give undefined results; trapping makes the paper's
    /// Figure 3 miscompilation observable).
    pub trap_on_cross_thread_local: bool,
    /// Upper bound on executed instructions per thread (runaway guard).
    pub max_insts_per_thread: u64,
    /// Whether launches gather a cycle-attribution profile
    /// ([`crate::LaunchProfile`]). `Off` (the default) leaves launch
    /// behavior and statistics byte-identical to a build without
    /// profiling.
    pub profile: ProfileMode,
    /// Whether launches run the device sanitizer
    /// ([`crate::SanitizeMode`]). `Off` (the default) leaves launch
    /// behavior and statistics byte-identical to a build without
    /// sanitizing.
    pub sanitize: SanitizeMode,
    /// Deterministic fault injection ([`crate::FaultPlan`]); inactive
    /// by default.
    pub fault: FaultPlan,
    /// Wall-clock watchdog per team run: a team exceeding this budget
    /// fails its launch with a structured timeout diagnostic instead of
    /// hanging the caller. `None` (the default) disables the watchdog.
    pub watchdog: Option<Duration>,
    /// The execution tier launches run on ([`Tier`]); a test switch.
    pub tier: Tier,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            num_sms: 80,
            warp_size: 32,
            default_teams: 8,
            default_threads: 64,
            shared_mem_per_team: 48 * 1024,
            global_heap_bytes: 512 * 1024,
            global_mem_bytes: 64 * 1024 * 1024,
            local_mem_per_thread: 256 * 1024,
            trap_on_cross_thread_local: true,
            max_insts_per_thread: 200_000_000,
            profile: ProfileMode::Off,
            sanitize: SanitizeMode::Off,
            fault: FaultPlan::default(),
            watchdog: None,
            tier: Tier::Compiled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = DeviceConfig::default();
        assert!(c.num_sms > 0);
        assert_eq!(c.warp_size, 32);
        assert!(c.shared_mem_per_team >= 16 * 1024);
        assert!(c.trap_on_cross_thread_local);
        assert_eq!(c.tier, Tier::Compiled);
    }

    /// Profiling, sanitizing and an armed fault plan observe the tier
    /// that was asked for: on either tier the launch reports exactly the
    /// statistics of the plain launch, whose superinstruction counters
    /// show which tier ran.
    #[test]
    fn observability_modes_keep_the_requested_tier() {
        use crate::{Device, LaunchDims, RtVal};
        let src = r#"
void k(double* a, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) { a[i] = a[i] * 2.0 + 1.0; }
}
"#;
        let m = std::sync::Arc::new(omp_frontend::compile(src, &Default::default()).unwrap());
        let run = |cfg: DeviceConfig| {
            let mut dev = Device::new(std::sync::Arc::clone(&m), cfg).unwrap();
            let a = dev.alloc_f64(&[1.0; 64]).unwrap();
            let dims = LaunchDims {
                teams: Some(2),
                threads: Some(8),
            };
            let stats = dev
                .launch("k", &[RtVal::Ptr(a), RtVal::I64(64)], dims)
                .unwrap()
                .stats;
            (stats.snapshot(), dev.read_f64(a, 64).unwrap())
        };
        for tier in [Tier::Interp, Tier::Compiled] {
            let base = DeviceConfig {
                tier,
                ..DeviceConfig::default()
            };
            let plain = run(base.clone());
            assert_eq!(
                plain.0.superinstructions.iter().any(|&n| n > 0),
                tier == Tier::Compiled
            );
            let mut armed = base.clone();
            armed.fault.trap_at_inst = Some(u64::MAX - 1);
            armed.fault.fail_alloc_after = Some(u64::MAX);
            for cfg in [
                DeviceConfig {
                    profile: ProfileMode::On,
                    ..base.clone()
                },
                DeviceConfig {
                    sanitize: SanitizeMode::On,
                    ..base.clone()
                },
                DeviceConfig {
                    profile: ProfileMode::On,
                    sanitize: SanitizeMode::On,
                    ..base.clone()
                },
                armed,
            ] {
                assert_eq!(run(cfg), plain);
            }
        }
    }
}
