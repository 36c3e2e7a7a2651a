//! An owning device: a [`Device`] bundled with the [`Module`] it
//! executes.
//!
//! [`Device`] borrows its module (`Device<'m>`), which is the right
//! shape for one-shot CLI runs but cannot be stored in a long-lived
//! cache: a compile service that keeps an LRU of warmed devices needs a
//! single owned value per entry. [`OwnedDevice`] provides that by
//! pinning the module behind an [`Arc`] — the module's heap allocation
//! never moves, so the device's borrow of the module stays valid for as
//! long as the pair lives.

use crate::config::DeviceConfig;
use crate::error::SimError;
use crate::launch::Device;
use omp_ir::Module;
use std::sync::Arc;

/// A [`Device`] that owns (a handle to) its module.
///
/// The embedded device is constructed against the `Arc`'d module's
/// stable heap allocation. Access goes through [`OwnedDevice::with`],
/// which re-scopes the device's lifetime parameter to the borrow of the
/// closure — the `'static` below is an implementation detail that is
/// never exposed.
pub struct OwnedDevice {
    /// Declared before `module` so it drops first: the device's borrows
    /// must not outlive the allocation they point into.
    device: Device<'static>,
    module: Arc<Module>,
}

impl OwnedDevice {
    /// Builds a device for `module`, exactly like [`Device::new`], but
    /// owning a handle to the module.
    pub fn new(module: Arc<Module>, cfg: DeviceConfig) -> Result<OwnedDevice, SimError> {
        // SAFETY: the reference points into the Arc's heap allocation,
        // which is stable for the life of `self.module` — and
        // `self.module` outlives `self.device` (field order). The
        // `'static` lifetime never escapes this struct: `with` shortens
        // it to the closure borrow, and `Device`'s public API returns
        // only owned values.
        let mref: &'static Module = unsafe { &*Arc::as_ptr(&module) };
        let device = Device::new(mref, cfg)?;
        Ok(OwnedDevice { device, module })
    }

    /// The module this device executes.
    pub fn module(&self) -> &Arc<Module> {
        &self.module
    }

    /// Runs `f` with mutable access to the device. The higher-ranked
    /// bound keeps the internal `'static` from leaking: `f` must accept
    /// a device of *any* lifetime, so it can neither store the reference
    /// nor extract module borrows that outlive the call.
    pub fn with<R>(&mut self, f: impl for<'a> FnOnce(&mut Device<'a>) -> R) -> R {
        f(&mut self.device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::LaunchDims;
    use omp_frontend::{compile, FrontendOptions};
    use omp_ir::RtVal;

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
            // The OwnedDevice escapes the scope that created the Arc
            // binding — exactly the cache-storage shape.
            let m = Arc::clone(&module);
            OwnedDevice::new(m, DeviceConfig::default()).unwrap()
        };
        let out = dev.with(|d| {
            let buf = d.alloc_f64(&[0.0; 32]).unwrap();
            d.launch(
                "fill",
                &[RtVal::Ptr(buf), RtVal::I64(32)],
                LaunchDims {
                    teams: Some(2),
                    threads: Some(8),
                },
            )
            .unwrap();
            d.read_f64(buf, 32).unwrap()
        });
        assert_eq!(out[10], 20.0);
        assert_eq!(dev.module().kernels.len(), 1);
    }
}
