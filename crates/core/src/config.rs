//! Build configurations matching the paper's Figure 11 plot legends.

use omp_frontend::{FrontendOptions, GlobalizationScheme};
use omp_opt::OpenMpOptConfig;

/// One build configuration from the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BuildConfig {
    /// LLVM 12: legacy aggregated/coalesced globalization with runtime
    /// checks, no OpenMP middle-end optimizations. The baseline (1.0×)
    /// of every Figure 11 plot.
    Llvm12Baseline,
    /// "No OpenMP Optimization": the simplified (LLVM 13) globalization
    /// scheme with the middle-end optimizations disabled.
    NoOpenmpOpt,
    /// HeapToStack + HeapToShared only (`h2s²` in the plots).
    H2S2,
    /// `h2s²` + runtime-call folding (`RTCspec`).
    H2S2Rtc,
    /// `h2s²` + folding + custom state machine (no SPMDization).
    H2S2RtcCsm,
    /// The full LLVM Dev pipeline: `h2s²` + folding + SPMDization
    /// (the paper's "LLVM Dev 0").
    #[default]
    LlvmDev,
    /// CUDA-style source compiled without globalization — the watermark.
    CudaStyle,
}

impl BuildConfig {
    /// Every configuration, in presentation order.
    pub const ALL: [BuildConfig; 7] = [
        BuildConfig::Llvm12Baseline,
        BuildConfig::NoOpenmpOpt,
        BuildConfig::H2S2,
        BuildConfig::H2S2Rtc,
        BuildConfig::H2S2RtcCsm,
        BuildConfig::LlvmDev,
        BuildConfig::CudaStyle,
    ];

    /// Short label used in tables and plots.
    pub fn label(self) -> &'static str {
        match self {
            BuildConfig::Llvm12Baseline => "LLVM 12",
            BuildConfig::NoOpenmpOpt => "No OpenMP Optimization",
            BuildConfig::H2S2 => "h2s2",
            BuildConfig::H2S2Rtc => "h2s2 + RTCspec",
            BuildConfig::H2S2RtcCsm => "h2s2 + RTCspec + CSM",
            BuildConfig::LlvmDev => "LLVM Dev (h2s2 + RTCspec + SPMDization)",
            BuildConfig::CudaStyle => "CUDA",
        }
    }

    /// Whether this configuration compiles the CUDA-style source.
    pub fn uses_cuda_source(self) -> bool {
        self == BuildConfig::CudaStyle
    }

    /// The short CLI/wire spelling (`--config` values and the serve
    /// protocol's `"config"` field). Inverse of
    /// [`BuildConfig::from_cli_name`].
    pub fn cli_name(self) -> &'static str {
        match self {
            BuildConfig::Llvm12Baseline => "llvm12",
            BuildConfig::NoOpenmpOpt => "noopt",
            BuildConfig::H2S2 => "h2s2",
            BuildConfig::H2S2Rtc => "h2s2rtc",
            BuildConfig::H2S2RtcCsm => "h2s2rtccsm",
            BuildConfig::LlvmDev => "dev",
            BuildConfig::CudaStyle => "cuda",
        }
    }

    /// Parses the short CLI/wire spelling. Inverse of
    /// [`BuildConfig::cli_name`].
    pub fn from_cli_name(s: &str) -> Option<BuildConfig> {
        BuildConfig::ALL.iter().copied().find(|c| c.cli_name() == s)
    }

    /// Frontend options for this configuration.
    pub fn frontend_options(self, module_name: &str) -> FrontendOptions {
        FrontendOptions {
            globalization: match self {
                BuildConfig::Llvm12Baseline => GlobalizationScheme::Legacy,
                _ => GlobalizationScheme::Simplified,
            },
            cuda_mode: self == BuildConfig::CudaStyle,
            module_name: module_name.to_string(),
        }
    }

    /// The OpenMP optimizer configuration, or `None` when only the
    /// generic cleanup pipeline runs.
    pub fn opt_config(self) -> Option<OpenMpOptConfig> {
        match self {
            BuildConfig::Llvm12Baseline | BuildConfig::CudaStyle => None,
            BuildConfig::NoOpenmpOpt => Some(OpenMpOptConfig::all_disabled()),
            BuildConfig::H2S2 => Some(OpenMpOptConfig {
                disable_spmdization: true,
                disable_state_machine_rewrite: true,
                disable_folding: true,
                ..OpenMpOptConfig::default()
            }),
            BuildConfig::H2S2Rtc => Some(OpenMpOptConfig {
                disable_spmdization: true,
                disable_state_machine_rewrite: true,
                ..OpenMpOptConfig::default()
            }),
            BuildConfig::H2S2RtcCsm => Some(OpenMpOptConfig {
                disable_spmdization: true,
                ..OpenMpOptConfig::default()
            }),
            BuildConfig::LlvmDev => Some(OpenMpOptConfig::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        use std::collections::HashSet;
        let labels: HashSet<_> = BuildConfig::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), BuildConfig::ALL.len());
    }

    #[test]
    fn baseline_uses_legacy_scheme() {
        let fe = BuildConfig::Llvm12Baseline.frontend_options("m");
        assert_eq!(fe.globalization, GlobalizationScheme::Legacy);
        assert!(!fe.cuda_mode);
        assert!(BuildConfig::Llvm12Baseline.opt_config().is_none());
    }

    #[test]
    fn dev_enables_everything() {
        let cfg = BuildConfig::LlvmDev.opt_config().unwrap();
        assert!(!cfg.disable_spmdization);
        assert!(!cfg.disable_deglobalization);
        assert!(!cfg.disable_folding);
    }

    #[test]
    fn cuda_uses_cuda_mode() {
        let fe = BuildConfig::CudaStyle.frontend_options("m");
        assert!(fe.cuda_mode);
        assert!(BuildConfig::CudaStyle.uses_cuda_source());
        assert!(!BuildConfig::LlvmDev.uses_cuda_source());
    }
}
