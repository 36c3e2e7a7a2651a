//! The observers of one team's execution: the cycle-attribution
//! profiler and the sanitizer, behind one event vocabulary.
//!
//! The executor (`interp.rs`) reports *what happened* — a charge, a
//! memory access, a frame push, a barrier release — once per event and
//! in program order, on whichever tier the event happened; this type
//! fans it out to whichever collectors the launch enabled. Neither
//! collector selects a tier or changes what executes.
//!
//! The per-instruction paths (`run_thread`, `run_compiled`, `exec_step`,
//! `access_cost`) are monomorphised over a `const OBS: bool` that
//! [`crate::interp::TeamExec::run`] picks once per team from
//! [`Observers::active`], so a plain launch compiles to code with no
//! observer calls at all. Everything else (calls, returns, runtime entry
//! points, barriers) reports unconditionally and pays the `Option`
//! check here.

use crate::config::DeviceConfig;
use crate::mem::AccessClass;
use crate::profile::{CycleClass, ProfileMode, TeamProfile, TeamProfileState};
use crate::sanitize::{Finding, SanitizeMode, SiteRef, TeamSanState};
use omp_ir::{FuncId, Module};

pub(crate) struct Observers {
    /// Cycle-attribution collector; `None` when profiling is off.
    prof: Option<Box<TeamProfileState>>,
    /// Sanitizer shadow state; `None` when sanitizing is off.
    san: Option<Box<TeamSanState>>,
}

impl Observers {
    /// The observers `cfg` asks for. Every thread of the team starts
    /// with the `kernel` frame on its stack.
    pub fn new(
        cfg: &DeviceConfig,
        num_funcs: usize,
        team_id: u32,
        team_size: u32,
        kernel: FuncId,
    ) -> Observers {
        let prof = (cfg.profile == ProfileMode::On).then(|| {
            let mut p = Box::new(TeamProfileState::new(num_funcs, team_size as usize));
            for hw in 0..team_size {
                p.on_push(hw, kernel, 0);
            }
            p
        });
        let san = (cfg.sanitize == SanitizeMode::On)
            .then(|| Box::new(TeamSanState::new(team_id, team_size as usize)));
        Observers { prof, san }
    }

    /// Whether any collector is listening (selects the `OBS`
    /// instantiation of the executor).
    pub fn active(&self) -> bool {
        self.prof.is_some() || self.san.is_some()
    }

    // ---- cycles ----

    /// `cycles` charged under `class` while `top` is the charging
    /// thread's top-of-stack function.
    #[inline]
    pub fn on_charge(&mut self, top: Option<FuncId>, class: CycleClass, cycles: u64) {
        if let Some(p) = self.prof.as_deref_mut() {
            p.on_charge(top, class, cycles);
        }
    }

    /// A cycle jump of `delta` (barrier release, join, wakeup).
    #[inline]
    pub fn on_stall(&mut self, top: Option<FuncId>, delta: u64) {
        if let Some(p) = self.prof.as_deref_mut() {
            p.on_stall(top, delta);
        }
    }

    /// A global access in `func`, as classified by the coalescing model.
    #[inline]
    pub fn on_global_access(&mut self, func: FuncId, coalesced: bool) {
        if let Some(p) = self.prof.as_deref_mut() {
            p.on_global_access(func, coalesced);
        }
    }

    pub fn on_push(&mut self, hw: u32, func: FuncId, now: u64) {
        if let Some(p) = self.prof.as_deref_mut() {
            p.on_push(hw, func, now);
        }
    }

    pub fn on_pop(&mut self, hw: u32, func: FuncId, now: u64) {
        if let Some(p) = self.prof.as_deref_mut() {
            p.on_pop(hw, func, now);
        }
    }

    /// A team-level parallel-region span opened at cycle `start`.
    pub fn on_region_open(&mut self, func: FuncId, start: u64) {
        if let Some(p) = self.prof.as_deref_mut() {
            p.open_region(func, start);
        }
    }

    pub fn on_region_close(&mut self, end: u64) {
        if let Some(p) = self.prof.as_deref_mut() {
            p.close_region(end);
        }
    }

    // ---- memory ----

    /// A load or store of `size` bytes at `addr` by thread `hw`.
    #[inline]
    pub fn on_access(
        &mut self,
        hw: u32,
        addr: u64,
        size: u64,
        is_write: bool,
        class: AccessClass,
        site: SiteRef,
    ) {
        if let Some(s) = self.san.as_deref_mut() {
            s.on_access(hw, addr, size, is_write, class, site);
        }
    }

    /// A globalization allocation by thread `hw` at cycle `now`.
    pub fn on_alloc(&mut self, addr: u64, size: u64, hw: u32, site: SiteRef, now: u64) {
        if let Some(s) = self.san.as_deref_mut() {
            s.on_alloc(addr, size, hw, site);
        }
        if let Some(p) = self.prof.as_deref_mut() {
            p.record_alloc(now, size);
        }
    }

    pub fn on_free(&mut self, addr: u64, size: u64) {
        if let Some(s) = self.san.as_deref_mut() {
            s.on_free(addr, size);
        }
    }

    // ---- synchronization ----

    /// Thread `hw` parked at a barrier at `site` (`true` = simple).
    pub fn on_barrier_park(&mut self, hw: u32, site: Option<(SiteRef, bool)>) {
        if let Some(s) = self.san.as_deref_mut() {
            s.on_barrier_park(hw, site);
        }
    }

    /// A barrier group released at cycle `release`: the happens-before
    /// edge the race detector keys on.
    pub fn on_barrier_release(&mut self, group: std::ops::Range<u32>, release: u64) {
        if let Some(s) = self.san.as_deref_mut() {
            s.on_barrier_release(group);
        }
        if let Some(p) = self.prof.as_deref_mut() {
            p.record_barrier(release);
        }
    }

    /// The team deadlocked with threads still parked at a barrier.
    pub fn on_barrier_deadlock(&mut self) {
        if let Some(s) = self.san.as_deref_mut() {
            s.on_barrier_deadlock();
        }
    }

    /// A synchronization edge touching the whole team (dispatch, join,
    /// kernel teardown): later accesses cannot race with earlier ones.
    pub fn on_team_sync(&mut self) {
        if let Some(s) = self.san.as_deref_mut() {
            s.bump_all();
        }
    }

    // ---- results ----

    /// The sanitizer epoch of thread `hw` (error provenance; 0 when
    /// sanitizing is off).
    pub fn epoch_of(&self, hw: u32) -> u32 {
        self.san.as_deref().map(|s| s.epoch_of(hw)).unwrap_or(0)
    }

    /// Freezes the profile, if one was gathered.
    pub fn take_profile(&mut self, total_thread_cycles: u64) -> Option<TeamProfile> {
        self.prof.take().map(|p| p.finish(total_thread_cycles))
    }

    /// Drains the sanitizer state into reportable findings.
    pub fn take_findings(&mut self, module: &Module) -> Vec<Finding> {
        self.san
            .take()
            .map(|s| s.finish(module))
            .unwrap_or_default()
    }
}
