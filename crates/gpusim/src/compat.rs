//! The names the standalone benchmark package (`benchmark/`) still
//! compiles against: [`OwnedDevice`] and three projections of
//! [`Device::launch`]. They are the only definitions here and have no
//! caller in this workspace; `tools/ci.sh smoke` fails if one gains
//! one. The benchmark refresh (ROADMAP item 2) moves `benchmark/` to
//! `Device::new(Arc<Module>, ..)` and `Device::launch`, and the change
//! after it deletes this module.

use crate::config::DeviceConfig;
use crate::error::SimError;
use crate::launch::{Device, LaunchDims};
use crate::profile::LaunchProfile;
use crate::sanitize::Finding;
use crate::stats::KernelStats;
use omp_ir::{Module, RtVal};
use std::sync::Arc;

/// A [`Device`] under its former owning name.
#[doc(hidden)]
pub struct OwnedDevice(Device);

impl OwnedDevice {
    pub fn new(module: Arc<Module>, cfg: DeviceConfig) -> Result<OwnedDevice, SimError> {
        Device::new(module, cfg).map(OwnedDevice)
    }

    pub fn with<R>(&mut self, f: impl FnOnce(&mut Device) -> R) -> R {
        f(&mut self.0)
    }
}

impl Device {
    #[doc(hidden)]
    pub fn launch_plan(
        &mut self,
        name: &str,
        args: &[RtVal],
        dims: LaunchDims,
    ) -> Result<KernelStats, SimError> {
        self.launch(name, args, dims).map(|l| l.stats)
    }

    #[doc(hidden)]
    pub fn launch_plan_profiled(
        &mut self,
        name: &str,
        args: &[RtVal],
        dims: LaunchDims,
    ) -> Result<(KernelStats, Option<LaunchProfile>), SimError> {
        self.launch(name, args, dims).map(|l| (l.stats, l.profile))
    }

    #[doc(hidden)]
    pub fn launch_plan_checked(
        &mut self,
        name: &str,
        args: &[RtVal],
        dims: LaunchDims,
    ) -> Result<(KernelStats, Vec<Finding>), SimError> {
        self.launch(name, args, dims).map(|l| (l.stats, l.findings))
    }
}
