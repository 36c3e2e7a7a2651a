//! Opt-in device sanitizer and fault-injection plans.
//!
//! [`SanitizeMode::On`] arms per-team shadow state in the interpreter
//! that detects, while the kernel runs:
//!
//! * **data races** — two accesses to the same shared/global word in
//!   the same *barrier epoch*, at least one a write, from different
//!   threads. Epochs approximate happens-before: every synchronization
//!   edge the device runtime creates (barrier release, generic-mode
//!   parallel dispatch, end-of-region join, kernel deinit) advances the
//!   epoch of the synchronized threads, so accesses separated by a
//!   sync edge can never alias an epoch. The approximation is
//!   conservative in the safe direction: it can miss races (scalar
//!   epochs, 4-byte granules) but a reported race is never ordered by
//!   any runtime-visible synchronization.
//! * **barrier divergence** — threads of one team parked at *different*
//!   barrier sites released together, or a team deadlocking with some
//!   threads still waiting at a barrier.
//! * **uninitialized reads / use-after-free** of *globalized* memory —
//!   the allocations made by `__kmpc_alloc_shared` /
//!   `__kmpc_data_sharing_push_stack`, the exact storage the paper's
//!   globalization optimizations move around.
//!
//! Every [`Finding`] carries structured provenance (function, block,
//! instruction index, team/thread ids, epoch). All shadow state is
//! per-team and findings are merged in team-id order, so sanitizer
//! output is bit-identical across `--jobs` settings — the same
//! discipline as the profiler. `Off` costs one untaken branch per
//! memory access.
//!
//! [`FaultPlan`] is the companion injection layer: it can cap the
//! shared globalization stack (forcing the fallback-to-heap path),
//! fail the Nth globalization allocation, trap at the Nth dynamic
//! instruction of a thread, or abort a single team — so tests can
//! prove every failure path degrades into a structured [`crate::SimError`]
//! instead of a panic or a wedged worker.

use crate::mem::{self, AccessClass, FastMap, Space};
use omp_ir::{FuncId, Module};
use omp_json::JsonWriter;

/// Whether the interpreter runs the device sanitizer. `Off` (default)
/// leaves launches byte-identical to a build without sanitizing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SanitizeMode {
    #[default]
    Off,
    On,
}

/// Deterministic fault injection, applied per team so outcomes are
/// identical across `--jobs` settings. All knobs default to "no fault".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Cap the per-team shared globalization stack to this many bytes
    /// (on top of static shared data), forcing allocations to fall back
    /// to the device heap early.
    pub shared_stack_limit: Option<u64>,
    /// Let this many globalization allocations succeed per team, then
    /// fail the next with an injected allocation fault.
    pub fail_alloc_after: Option<u64>,
    /// Trap the first thread whose dynamic instruction counter reaches
    /// this value.
    pub trap_at_inst: Option<u64>,
    /// Abort this team before it executes anything.
    pub abort_team: Option<u32>,
}

/// How bad a finding is. `Error` findings make a run "unclean" (and
/// `ompgpu sanitize` exit nonzero); `Note` findings are expected
/// degradations worth surfacing, like the globalization stack falling
/// back to the device heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
    Note,
}

/// What the sanitizer detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    DataRace,
    BarrierDivergence,
    UninitRead,
    UseAfterFree,
    /// Two kernels of one launch plan write the same global-memory page
    /// without an ordering edge (`depend`/`taskwait`/sync) between them.
    /// Page-granular and write-write only: cross-kernel reads are not
    /// tracked, so read-write conflicts go undetected.
    CrossKernelRace,
    SharedStackFallback,
}

impl FindingKind {
    /// Stable machine-readable name (also the JSON `kind` value).
    pub fn name(self) -> &'static str {
        match self {
            FindingKind::DataRace => "data-race",
            FindingKind::BarrierDivergence => "barrier-divergence",
            FindingKind::UninitRead => "uninit-read",
            FindingKind::UseAfterFree => "use-after-free",
            FindingKind::CrossKernelRace => "cross-kernel-race",
            FindingKind::SharedStackFallback => "shared-stack-fallback",
        }
    }

    /// Stable `OMPxxx` diagnostic id (catalogued in `docs/remarks.md`).
    /// The 3xx block is reserved for simulator-side diagnostics, away
    /// from the compiler's optimization remarks.
    pub fn id(self) -> u32 {
        match self {
            FindingKind::DataRace => 300,
            FindingKind::BarrierDivergence => 301,
            FindingKind::UninitRead => 302,
            FindingKind::UseAfterFree => 303,
            FindingKind::CrossKernelRace => 304,
            FindingKind::SharedStackFallback => 310,
        }
    }

    fn severity(self) -> Severity {
        match self {
            FindingKind::SharedStackFallback => Severity::Note,
            _ => Severity::Error,
        }
    }
}

/// One sanitizer finding with full provenance. `function`/`block`/
/// `inst` locate the access that completed the detection; `message`
/// describes the conflicting party where there is one.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    pub kind: FindingKind,
    pub severity: Severity,
    pub function: String,
    pub block: u32,
    pub inst: u32,
    pub team: u32,
    pub thread: u32,
    pub epoch: u32,
    pub message: String,
}

impl Finding {
    /// Serializes the finding as one JSON object into `w`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("id").u32(self.kind.id());
        w.key("kind").string(self.kind.name());
        w.key("severity").string(match self.severity {
            Severity::Error => "error",
            Severity::Note => "note",
        });
        w.key("function").string(&self.function);
        w.key("block").u32(self.block);
        w.key("inst").u32(self.inst);
        w.key("team").u32(self.team);
        w.key("thread").u32(self.thread);
        w.key("epoch").u32(self.epoch);
        w.key("message").string(&self.message);
        w.end_object();
    }

    /// One-line human rendering: `severity kind @fn (block B, inst I)
    /// team T thread H epoch E: message`.
    pub fn render(&self) -> String {
        format!(
            "{} {} @{} (block {}, inst {}) team {} thread {} epoch {}: {}",
            match self.severity {
                Severity::Error => "error",
                Severity::Note => "note",
            },
            self.kind.name(),
            self.function,
            self.block,
            self.inst,
            self.team,
            self.thread,
            self.epoch,
            self.message
        )
    }
}

/// Serializes findings as a JSON array string.
pub fn findings_to_json(findings: &[Finding]) -> String {
    let mut w = JsonWriter::with_capacity(256);
    w.begin_array();
    for f in findings {
        f.write_json(&mut w);
    }
    w.end_array();
    w.finish()
}

/// A code position inside the module, in plan coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SiteRef {
    pub func: FuncId,
    pub block: u32,
    pub inst: u32,
}

/// One recorded access to a shadow granule.
#[derive(Debug, Clone, Copy)]
struct Access {
    thread: u32,
    epoch: u32,
    site: SiteRef,
}

/// Shadow cell for one 4-byte granule: the last write plus up to two
/// reads from distinct threads (enough to catch read/write races even
/// when the racing read is not the most recent one).
#[derive(Debug, Clone, Copy, Default)]
struct Shadow {
    write: Option<Access>,
    reads: [Option<Access>; 2],
}

// Allocation states for granules inside globalization allocations.
const ST_UNINIT: u8 = 1;
const ST_INIT: u8 = 2;
const ST_FREED: u8 = 3;

/// A barrier park site: position plus the simple-barrier flag, so a
/// team-wide simple barrier never compares equal to a worksharing one.
type BarrierSite = (SiteRef, bool);

/// Cap on findings retained per team — dedup already collapses repeats
/// per static site, this bounds pathological programs.
const MAX_FINDINGS: usize = 64;

/// Mutable per-team sanitizer state. Boxed behind an `Option` on
/// `TeamExec`: `None` (mode off) costs one branch per access.
pub(crate) struct TeamSanState {
    team: u32,
    /// Monotonic epoch source; bumped at every synchronization edge.
    epoch_counter: u32,
    /// Current epoch of each thread.
    epochs: Vec<u32>,
    /// Shadow cells keyed by address granule (`addr >> 2`).
    shadow: FastMap<Shadow>,
    /// Allocation state keyed by granule — only granules inside
    /// globalization allocations are present.
    alloc_state: FastMap<u8>,
    /// Where each thread is currently parked at a barrier.
    park: Vec<Option<BarrierSite>>,
    raw: Vec<RawFinding>,
    /// Dedup set keyed by (kind, site) hash.
    seen: FastMap<u8>,
}

struct RawFinding {
    kind: FindingKind,
    site: SiteRef,
    thread: u32,
    epoch: u32,
    /// The conflicting party, where there is one: `(thread, site,
    /// was_write, epoch)`.
    other: Option<(u32, SiteRef, bool, u32)>,
    /// Freeform detail (e.g. fallback allocation size).
    note: Option<String>,
}

impl TeamSanState {
    pub fn new(team: u32, team_size: usize) -> TeamSanState {
        TeamSanState {
            team,
            epoch_counter: 0,
            epochs: vec![0; team_size],
            shadow: FastMap::default(),
            alloc_state: FastMap::default(),
            park: vec![None; team_size],
            raw: Vec::new(),
            seen: FastMap::default(),
        }
    }

    fn record(
        &mut self,
        kind: FindingKind,
        site: SiteRef,
        thread: u32,
        epoch: u32,
        other: Option<(u32, SiteRef, bool, u32)>,
        note: Option<String>,
    ) {
        if self.raw.len() >= MAX_FINDINGS {
            return;
        }
        // One finding per (kind, static site): the same racy loop
        // should not flood the report once per iteration.
        let key = ((kind as u64) << 58)
            ^ ((site.func.index() as u64) << 40)
            ^ ((site.block as u64) << 20)
            ^ site.inst as u64;
        if self.seen.insert(key, 1).is_some() {
            return;
        }
        self.raw.push(RawFinding {
            kind,
            site,
            thread,
            epoch,
            other,
            note,
        });
    }

    /// The current epoch of `thread` (for error provenance).
    pub fn epoch_of(&self, thread: u32) -> u32 {
        self.epochs.get(thread as usize).copied().unwrap_or(0)
    }

    /// A load or store of `size` bytes at `addr` by `thread`.
    pub fn on_access(
        &mut self,
        thread: u32,
        addr: u64,
        size: u64,
        is_write: bool,
        class: AccessClass,
        site: SiteRef,
    ) {
        if class == AccessClass::Local {
            return;
        }
        let epoch = self.epochs[thread as usize];
        let first = addr >> 2;
        let last = (addr + size.max(1) - 1) >> 2;
        for g in first..=last {
            // Lifetime state of globalized storage. A write to an
            // uninitialized granule initializes the whole granule —
            // conservative against false positives on partial writes.
            let state = self.alloc_state.get_mut(&g).map(|st| {
                let s = *st;
                if is_write && s == ST_UNINIT {
                    *st = ST_INIT;
                }
                s
            });
            match state {
                Some(ST_FREED) => {
                    self.record(FindingKind::UseAfterFree, site, thread, epoch, None, None);
                }
                Some(ST_UNINIT) if !is_write => {
                    self.record(FindingKind::UninitRead, site, thread, epoch, None, None);
                }
                _ => {}
            }
            // Happens-before race check against the shadow cell.
            let me = Access {
                thread,
                epoch,
                site,
            };
            let sh = self.shadow.entry(g).or_default();
            let mut conflict: Option<(Access, bool)> = None;
            if let Some(w) = sh.write {
                if w.thread != thread && w.epoch == epoch {
                    conflict = Some((w, true));
                }
            }
            if is_write && conflict.is_none() {
                for r in sh.reads.iter().flatten() {
                    if r.thread != thread && r.epoch == epoch {
                        conflict = Some((*r, false));
                        break;
                    }
                }
            }
            if is_write {
                sh.write = Some(me);
            } else {
                // Keep reads from two distinct threads; refresh in place
                // when this thread already holds a slot.
                match (&sh.reads[0], &sh.reads[1]) {
                    (Some(r0), _) if r0.thread == thread => sh.reads[0] = Some(me),
                    (_, Some(r1)) if r1.thread == thread => sh.reads[1] = Some(me),
                    (None, _) => sh.reads[0] = Some(me),
                    _ => sh.reads[1] = Some(me),
                }
            }
            if let Some((o, o_write)) = conflict {
                self.record(
                    FindingKind::DataRace,
                    site,
                    thread,
                    epoch,
                    Some((o.thread, o.site, o_write, o.epoch)),
                    None,
                );
            }
        }
    }

    /// `thread` parked at a barrier (`None` site only if it has no
    /// frame, which real barriers never hit).
    pub fn on_barrier_park(&mut self, thread: u32, site: Option<BarrierSite>) {
        self.park[thread as usize] = site;
    }

    /// A barrier group released: check that every member parked at the
    /// same site, then advance the group's epoch (the sync edge).
    pub fn on_barrier_release(&mut self, group: std::ops::Range<u32>) {
        let mut parked = group
            .clone()
            .filter_map(|t| self.park[t as usize].map(|s| (t, s)));
        if let Some((t0, s0)) = parked.next() {
            let divergent = parked.find(|&(_, s)| s != s0);
            if let Some((t1, (site1, _))) = divergent {
                let epoch = self.epochs[t1 as usize];
                self.record(
                    FindingKind::BarrierDivergence,
                    site1,
                    t1,
                    epoch,
                    Some((t0, s0.0, false, self.epochs[t0 as usize])),
                    None,
                );
            }
        }
        for t in group.clone() {
            self.park[t as usize] = None;
        }
        self.bump(group);
    }

    /// A team deadlocked with some threads parked at a barrier: report
    /// the waiters as barrier divergence (their peers exited the region
    /// or never arrived).
    pub fn on_barrier_deadlock(&mut self) {
        let parked: Vec<(u32, BarrierSite)> = self
            .park
            .iter()
            .enumerate()
            .filter_map(|(t, s)| s.map(|s| (t as u32, s)))
            .collect();
        for (t, (site, _)) in parked {
            let epoch = self.epochs[t as usize];
            self.record(
                FindingKind::BarrierDivergence,
                site,
                t,
                epoch,
                None,
                Some("peers exited or never reached this barrier".to_string()),
            );
        }
    }

    /// Advances the epoch of every thread in `group` to a fresh value —
    /// one synchronization edge.
    pub fn bump(&mut self, group: std::ops::Range<u32>) {
        self.epoch_counter += 1;
        let e = self.epoch_counter;
        for t in group {
            if let Some(slot) = self.epochs.get_mut(t as usize) {
                *slot = e;
            }
        }
    }

    /// A sync edge touching the whole team (dispatch, join, deinit).
    pub fn bump_all(&mut self) {
        let n = self.epochs.len() as u32;
        self.bump(0..n);
    }

    /// A globalization allocation at `addr`: reset shadow state for the
    /// granules (free-list reuse must not inherit stale accesses), mark
    /// them uninitialized, and note heap fallback.
    pub fn on_alloc(&mut self, addr: u64, size: u64, thread: u32, site: SiteRef) {
        let first = addr >> 2;
        let last = (addr + size.max(1) - 1) >> 2;
        for g in first..=last {
            self.shadow.remove(&g);
            self.alloc_state.insert(g, ST_UNINIT);
        }
        if matches!(mem::decode(addr), Some(Space::Global { .. })) {
            let epoch = self.epochs[thread as usize];
            self.record(
                FindingKind::SharedStackFallback,
                site,
                thread,
                epoch,
                None,
                Some(format!(
                    "globalization allocation of {size} bytes fell back to the device heap"
                )),
            );
        }
    }

    /// A globalization free: the granules become poisoned.
    pub fn on_free(&mut self, addr: u64, size: u64) {
        let first = addr >> 2;
        let last = (addr + size.max(1) - 1) >> 2;
        for g in first..=last {
            self.alloc_state.insert(g, ST_FREED);
        }
    }

    /// Resolves raw findings into their reportable form (names looked
    /// up once, at team end — never in the hot path).
    pub fn finish(self, module: &Module) -> Vec<Finding> {
        let name = |f: FuncId| module.func(f).name.clone();
        self.raw
            .into_iter()
            .map(|r| {
                let message = match (r.kind, &r.other, &r.note) {
                    (FindingKind::DataRace, Some((ot, os, ow, oe)), _) => format!(
                        "conflicts with {} by thread {} at @{} (block {}, inst {}) in epoch {}",
                        if *ow { "write" } else { "read" },
                        ot,
                        name(os.func),
                        os.block,
                        os.inst,
                        oe
                    ),
                    (FindingKind::BarrierDivergence, Some((ot, os, _, _)), _) => format!(
                        "released with thread {} parked at a different barrier @{} (block {}, inst {})",
                        ot,
                        name(os.func),
                        os.block,
                        os.inst
                    ),
                    (FindingKind::UninitRead, ..) => {
                        "read of uninitialized globalized memory".to_string()
                    }
                    (FindingKind::UseAfterFree, ..) => {
                        "access to freed globalized memory".to_string()
                    }
                    (_, _, Some(note)) => note.clone(),
                    _ => String::new(),
                };
                Finding {
                    kind: r.kind,
                    severity: r.kind.severity(),
                    function: name(r.site.func),
                    block: r.site.block,
                    inst: r.site.inst,
                    team: self.team,
                    thread: r.thread,
                    epoch: r.epoch,
                    message,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(inst: u32) -> SiteRef {
        SiteRef {
            func: FuncId(0),
            block: 0,
            inst,
        }
    }

    fn finish(s: TeamSanState) -> Vec<Finding> {
        let mut m = Module::new("t");
        m.add_function(omp_ir::Function::definition(
            "k",
            vec![],
            omp_ir::Type::Void,
        ));
        s.finish(&m)
    }

    #[test]
    fn same_epoch_write_write_is_a_race() {
        let mut s = TeamSanState::new(0, 2);
        let a = mem::global_addr(0x100);
        s.on_access(0, a, 4, true, AccessClass::Global, site(1));
        s.on_access(1, a, 4, true, AccessClass::Global, site(2));
        let f = finish(s);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::DataRace);
        assert_eq!(f[0].thread, 1);
    }

    #[test]
    fn barrier_separated_accesses_do_not_race() {
        let mut s = TeamSanState::new(0, 2);
        let a = mem::global_addr(0x100);
        s.on_access(0, a, 4, true, AccessClass::Global, site(1));
        s.on_barrier_release(0..2);
        s.on_access(1, a, 4, true, AccessClass::Global, site(2));
        assert!(finish(s).is_empty());
    }

    #[test]
    fn read_read_never_races_but_read_write_does() {
        let mut s = TeamSanState::new(0, 3);
        let a = mem::global_addr(0x40);
        s.on_access(0, a, 4, false, AccessClass::Global, site(1));
        s.on_access(1, a, 4, false, AccessClass::Global, site(2));
        assert!(s.raw.is_empty());
        s.on_access(2, a, 4, true, AccessClass::Global, site(3));
        let f = finish(s);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::DataRace);
    }

    #[test]
    fn adjacent_words_do_not_alias() {
        let mut s = TeamSanState::new(0, 2);
        let a = mem::global_addr(0x100);
        s.on_access(0, a, 4, true, AccessClass::Global, site(1));
        s.on_access(1, a + 4, 4, true, AccessClass::Global, site(2));
        assert!(finish(s).is_empty());
    }

    #[test]
    fn local_accesses_are_ignored() {
        let mut s = TeamSanState::new(0, 2);
        let a = mem::local_addr(0, 0, 0x10);
        s.on_access(0, a, 4, true, AccessClass::Local, site(1));
        s.on_access(1, a, 4, true, AccessClass::Local, site(2));
        assert!(finish(s).is_empty());
    }

    #[test]
    fn uninit_read_and_use_after_free() {
        let mut s = TeamSanState::new(0, 1);
        let a = mem::shared_addr(0, 0x20);
        s.on_alloc(a, 8, 0, site(1));
        s.on_access(0, a, 8, false, AccessClass::Shared, site(2));
        s.on_access(0, a, 8, true, AccessClass::Shared, site(3));
        s.on_access(0, a, 8, false, AccessClass::Shared, site(4));
        s.on_free(a, 8);
        s.on_access(0, a, 8, false, AccessClass::Shared, site(5));
        let f = finish(s);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].kind, FindingKind::UninitRead);
        assert_eq!(f[0].inst, 2);
        assert_eq!(f[1].kind, FindingKind::UseAfterFree);
        assert_eq!(f[1].inst, 5);
    }

    #[test]
    fn realloc_clears_stale_shadow_and_poison() {
        let mut s = TeamSanState::new(0, 2);
        let a = mem::shared_addr(0, 0x20);
        s.on_alloc(a, 4, 0, site(1));
        s.on_access(0, a, 4, true, AccessClass::Shared, site(2));
        s.on_free(a, 4);
        // Reused by another thread in the same epoch: no race, no UAF.
        s.on_alloc(a, 4, 1, site(3));
        s.on_access(1, a, 4, true, AccessClass::Shared, site(4));
        assert!(finish(s).is_empty());
    }

    #[test]
    fn divergent_park_sites_reported_once() {
        let mut s = TeamSanState::new(0, 2);
        s.on_barrier_park(0, Some((site(1), false)));
        s.on_barrier_park(1, Some((site(9), false)));
        s.on_barrier_release(0..2);
        let f = finish(s);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::BarrierDivergence);
        assert!(f[0].message.contains("different barrier"));
    }

    #[test]
    fn matching_park_sites_are_clean() {
        let mut s = TeamSanState::new(0, 2);
        s.on_barrier_park(0, Some((site(1), false)));
        s.on_barrier_park(1, Some((site(1), false)));
        s.on_barrier_release(0..2);
        assert!(finish(s).is_empty());
    }

    #[test]
    fn heap_fallback_alloc_is_a_note() {
        let mut s = TeamSanState::new(0, 1);
        s.on_alloc(mem::global_addr(0x1000), 64, 0, site(1));
        let f = finish(s);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::SharedStackFallback);
        assert_eq!(f[0].severity, Severity::Note);
    }

    #[test]
    fn findings_dedup_per_site_and_serialize() {
        let mut s = TeamSanState::new(0, 2);
        let a = mem::global_addr(0x100);
        for _ in 0..10 {
            s.on_access(0, a, 4, true, AccessClass::Global, site(1));
            s.on_access(1, a, 4, true, AccessClass::Global, site(2));
        }
        let f = finish(s);
        // Each static site reports at most once.
        assert!(f.len() <= 2, "got {} findings", f.len());
        let json = findings_to_json(&f);
        omp_json::validate(&json).expect("findings JSON must be valid");
        assert!(json.contains("\"data-race\""));
    }
}
