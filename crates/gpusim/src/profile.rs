//! Opt-in cycle-attribution profiling for the plan interpreter.
//!
//! With [`ProfileMode::On`] the interpreter attributes every charged
//! cycle to (a) the function on top of the charging thread's stack —
//! its *exclusive* time — and (b) an instruction class; runtime-call
//! charges are additionally attributed to the specific `__kmpc_*`
//! entry point. Cycle *jumps* (barrier releases, join alignment,
//! worker wakeup) are recorded as per-function *stall* time under the
//! `sync` class, so for every thread
//!
//! ```text
//! sum(exclusive) + sum(stall) == thread cycles == sum(class cycles)
//! ```
//!
//! holds exactly. *Inclusive* time counts cycles while a function is
//! anywhere on a thread's stack (recursion counted once, via on-stack
//! depth). Team/parallel-region spans, barrier releases, and
//! globalization allocations are recorded as timeline events in model
//! cycles.
//!
//! All profile state is per-team and derived purely from model cycles,
//! and teams are merged in team-id order — so profiles are
//! bit-identical across `--jobs` settings, exactly like
//! [`crate::KernelStats`].

use crate::plan::NUM_RTL_FNS;
use crate::stats::KernelStats;
use omp_ir::omprtl::ALL_RTL_FNS;
use omp_ir::{FuncId, Module, RtlFn};
use omp_json::JsonWriter;

/// Whether the interpreter gathers a cycle-attribution profile.
/// `Off` leaves launches byte-identical to a build without profiling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ProfileMode {
    #[default]
    Off,
    On,
}

/// Instruction classes cycles are attributed to. `Rtl` carries the
/// entry point for the per-`__kmpc_*` cycle table; all runtime charges
/// share the `runtime` class bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CycleClass {
    Alloca,
    Load,
    Store,
    Alu,
    Branch,
    Call,
    Math,
    Rtl(RtlFn),
    Sync,
}

pub(crate) const NUM_CLASSES: usize = 9;

/// Display names, in cycle-class index order.
pub const CLASS_NAMES: [&str; NUM_CLASSES] = [
    "alloca", "load", "store", "alu", "branch", "call", "math", "runtime", "sync",
];

impl CycleClass {
    #[inline]
    pub(crate) fn index(self) -> usize {
        match self {
            CycleClass::Alloca => 0,
            CycleClass::Load => 1,
            CycleClass::Store => 2,
            CycleClass::Alu => 3,
            CycleClass::Branch => 4,
            CycleClass::Call => 5,
            CycleClass::Math => 6,
            CycleClass::Rtl(_) => 7,
            CycleClass::Sync => 8,
        }
    }
}

const SYNC: usize = 8;

/// Mutable per-team collector the interpreter writes into while the
/// team runs. Boxed behind an `Option` on `TeamExec`: `None` (mode
/// off) costs one branch per charge.
pub(crate) struct TeamProfileState {
    num_funcs: usize,
    // Dense per-function tables, indexed by `FuncId`.
    calls: Vec<u64>,
    incl: Vec<u64>,
    excl: Vec<u64>,
    stall: Vec<u64>,
    coalesced: Vec<u64>,
    uncoalesced: Vec<u64>,
    class_cycles: [u64; NUM_CLASSES],
    rtl_cycles: [u64; NUM_RTL_FNS],
    // Per-(thread, function) on-stack depth and level-0 entry cycle,
    // indexed by `hw * num_funcs + func` — recursion-safe inclusive
    // accounting.
    depth: Vec<u32>,
    entry: Vec<u64>,
    /// Open team-level parallel-region span `(region fn, start)`.
    open_region: Option<(FuncId, u64)>,
    regions: Vec<(FuncId, u64, u64)>,
    /// Barrier release cycles (one entry per group release).
    barriers: Vec<u64>,
    /// Globalization allocations as `(cycle, bytes)`.
    allocs: Vec<(u64, u64)>,
}

impl TeamProfileState {
    pub fn new(num_funcs: usize, team_size: usize) -> TeamProfileState {
        TeamProfileState {
            num_funcs,
            calls: vec![0; num_funcs],
            incl: vec![0; num_funcs],
            excl: vec![0; num_funcs],
            stall: vec![0; num_funcs],
            coalesced: vec![0; num_funcs],
            uncoalesced: vec![0; num_funcs],
            class_cycles: [0; NUM_CLASSES],
            rtl_cycles: [0; NUM_RTL_FNS],
            depth: vec![0; num_funcs * team_size],
            entry: vec![0; num_funcs * team_size],
            open_region: None,
            regions: Vec::new(),
            barriers: Vec::new(),
            allocs: Vec::new(),
        }
    }

    /// A charge of `cycles` with the named class, while `top` is the
    /// charging thread's top-of-stack function.
    #[inline]
    pub fn on_charge(&mut self, top: Option<FuncId>, class: CycleClass, cycles: u64) {
        self.class_cycles[class.index()] += cycles;
        if let CycleClass::Rtl(rtl) = class {
            self.rtl_cycles[rtl as usize] += cycles;
        }
        if let Some(f) = top {
            self.excl[f.index()] += cycles;
        }
    }

    /// A cycle jump of `delta` applied to a blocked/aligned thread
    /// whose top-of-stack function is `top`. Accounted as stall and
    /// under the `sync` class.
    #[inline]
    pub fn on_stall(&mut self, top: Option<FuncId>, delta: u64) {
        if delta == 0 {
            return;
        }
        self.class_cycles[SYNC] += delta;
        if let Some(f) = top {
            self.stall[f.index()] += delta;
        }
    }

    /// Thread `hw` pushed a frame for `func` at cycle `now`.
    #[inline]
    pub fn on_push(&mut self, hw: u32, func: FuncId, now: u64) {
        self.calls[func.index()] += 1;
        let slot = hw as usize * self.num_funcs + func.index();
        if self.depth[slot] == 0 {
            self.entry[slot] = now;
        }
        self.depth[slot] += 1;
    }

    /// Thread `hw` popped a frame for `func` at cycle `now`.
    #[inline]
    pub fn on_pop(&mut self, hw: u32, func: FuncId, now: u64) {
        let slot = hw as usize * self.num_funcs + func.index();
        debug_assert!(self.depth[slot] > 0, "pop without matching push");
        self.depth[slot] -= 1;
        if self.depth[slot] == 0 {
            self.incl[func.index()] += now - self.entry[slot];
        }
    }

    /// A global-memory access in `func` classified by the coalescing
    /// model.
    #[inline]
    pub fn on_global_access(&mut self, func: FuncId, coalesced: bool) {
        if coalesced {
            self.coalesced[func.index()] += 1;
        } else {
            self.uncoalesced[func.index()] += 1;
        }
    }

    pub fn open_region(&mut self, func: FuncId, start: u64) {
        self.open_region = Some((func, start));
    }

    pub fn close_region(&mut self, end: u64) {
        if let Some((f, start)) = self.open_region.take() {
            self.regions.push((f, start, end.max(start)));
        }
    }

    pub fn record_barrier(&mut self, cycle: u64) {
        self.barriers.push(cycle);
    }

    pub fn record_alloc(&mut self, cycle: u64, bytes: u64) {
        self.allocs.push((cycle, bytes));
    }

    /// Freezes the collector into the immutable per-team result.
    pub fn finish(mut self: Box<Self>, total_thread_cycles: u64) -> TeamProfile {
        self.close_region(total_thread_cycles);
        TeamProfile {
            calls: self.calls,
            incl: self.incl,
            excl: self.excl,
            stall: self.stall,
            coalesced: self.coalesced,
            uncoalesced: self.uncoalesced,
            class_cycles: self.class_cycles,
            rtl_cycles: self.rtl_cycles,
            regions: self.regions,
            barriers: self.barriers,
            allocs: self.allocs,
            total_thread_cycles,
        }
    }
}

/// One finished team's profile, in team-local model cycles. Carried on
/// `TeamOutcome` and merged into a [`LaunchProfile`] in team-id order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TeamProfile {
    pub calls: Vec<u64>,
    pub incl: Vec<u64>,
    pub excl: Vec<u64>,
    pub stall: Vec<u64>,
    pub coalesced: Vec<u64>,
    pub uncoalesced: Vec<u64>,
    pub class_cycles: [u64; NUM_CLASSES],
    pub rtl_cycles: [u64; NUM_RTL_FNS],
    pub regions: Vec<(FuncId, u64, u64)>,
    pub barriers: Vec<u64>,
    pub allocs: Vec<(u64, u64)>,
    pub total_thread_cycles: u64,
}

/// Per-function row of a launch profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncProfile {
    pub name: String,
    /// Times a frame for this function was pushed.
    pub calls: u64,
    /// Cycles while the function was anywhere on a thread's stack.
    pub inclusive_cycles: u64,
    /// Cycles charged while the function was on top of a stack.
    pub exclusive_cycles: u64,
    /// Barrier/join/wakeup alignment applied while on top of a stack.
    pub stall_cycles: u64,
    /// Global accesses in this function classified coalesced.
    pub coalesced_accesses: u64,
    /// Global accesses in this function classified uncoalesced.
    pub uncoalesced_accesses: u64,
}

/// Per-runtime-entry-point row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtlProfile {
    pub name: String,
    pub calls: u64,
    /// Cycles charged by the entry point itself (barrier *wait* time
    /// is reported as stall/`sync`, not here).
    pub cycles: u64,
}

/// One parallel-region span on a team's timeline (absolute track
/// cycles).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionSpan {
    pub func: String,
    pub start: u64,
    pub end: u64,
}

/// One team's placement and events on its SM track. Cycles are
/// absolute track coordinates: team `i` runs on SM `i % num_sms`, and
/// an SM executes its teams back-to-back in team-id order — the same
/// layout [`KernelStats::finish`] uses to compute kernel time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TeamTrack {
    pub team: u32,
    pub sm: u32,
    pub start: u64,
    pub end: u64,
    pub regions: Vec<RegionSpan>,
    pub barriers: Vec<u64>,
    /// Globalization allocations as `(cycle, bytes)`.
    pub allocs: Vec<(u64, u64)>,
}

/// One launch node's span on its stream track of a plan or captured
/// task-graph launch. Cycles are absolute plan coordinates from the
/// deterministic list schedule, so traces are bit-identical across
/// `--jobs`, tiers, and eager-vs-replay execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSpan {
    /// Stream the node was scheduled on (0-based, deterministic).
    pub stream: u32,
    /// Kernel (device function) name of the node.
    pub label: String,
    pub start: u64,
    pub end: u64,
}

/// The merged profile of one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchProfile {
    /// Kernel time in model cycles (same as `KernelStats::cycles`).
    pub cycles: u64,
    /// Sum of every thread's cycle counter across all teams; the
    /// denominator for attribution percentages.
    pub total_thread_cycles: u64,
    pub num_sms: u32,
    /// Per-function rows, in module function order (all-zero rows
    /// dropped).
    pub functions: Vec<FuncProfile>,
    /// Cycles per instruction class, aligned with [`CLASS_NAMES`].
    pub class_cycles: [u64; NUM_CLASSES],
    /// Per-runtime-entry-point rows (zero rows dropped).
    pub rtl: Vec<RtlProfile>,
    /// One entry per team, in team-id order.
    pub teams: Vec<TeamTrack>,
    /// Stream spans of a plan/graph launch, one per node in submission
    /// order. Empty for plain single-kernel launches, which keeps their
    /// serialized profiles byte-identical to pre-stream builds.
    pub streams: Vec<StreamSpan>,
}

impl LaunchProfile {
    /// Merges per-team profiles (already in team-id order) into the
    /// launch-wide profile, resolving names and laying teams out on
    /// their SM tracks.
    pub(crate) fn assemble(
        module: &Module,
        num_sms: u32,
        stats: &KernelStats,
        teams: Vec<TeamProfile>,
    ) -> LaunchProfile {
        let num_funcs = module.num_functions();
        let mut calls = vec![0u64; num_funcs];
        let mut incl = vec![0u64; num_funcs];
        let mut excl = vec![0u64; num_funcs];
        let mut stall = vec![0u64; num_funcs];
        let mut coal = vec![0u64; num_funcs];
        let mut uncoal = vec![0u64; num_funcs];
        let mut class_cycles = [0u64; NUM_CLASSES];
        let mut rtl_cycles = [0u64; NUM_RTL_FNS];
        let mut total_thread_cycles = 0u64;
        for t in &teams {
            for f in 0..num_funcs {
                calls[f] += t.calls[f];
                incl[f] += t.incl[f];
                excl[f] += t.excl[f];
                stall[f] += t.stall[f];
                coal[f] += t.coalesced[f];
                uncoal[f] += t.uncoalesced[f];
            }
            for (acc, &c) in class_cycles.iter_mut().zip(t.class_cycles.iter()) {
                *acc += c;
            }
            for (acc, &c) in rtl_cycles.iter_mut().zip(t.rtl_cycles.iter()) {
                *acc += c;
            }
            total_thread_cycles += t.total_thread_cycles;
        }
        let functions: Vec<FuncProfile> = module
            .func_ids()
            .filter_map(|fid| {
                let f = fid.index();
                if calls[f] == 0
                    && incl[f] == 0
                    && excl[f] == 0
                    && stall[f] == 0
                    && coal[f] == 0
                    && uncoal[f] == 0
                {
                    return None;
                }
                Some(FuncProfile {
                    name: module.func(fid).name.clone(),
                    calls: calls[f],
                    inclusive_cycles: incl[f],
                    exclusive_cycles: excl[f],
                    stall_cycles: stall[f],
                    coalesced_accesses: coal[f],
                    uncoalesced_accesses: uncoal[f],
                })
            })
            .collect();
        let rtl: Vec<RtlProfile> = ALL_RTL_FNS
            .iter()
            .enumerate()
            .filter_map(|(i, f)| {
                let calls = stats.rtl_count(f.name());
                if calls == 0 && rtl_cycles[i] == 0 {
                    return None;
                }
                Some(RtlProfile {
                    name: f.name().to_string(),
                    calls,
                    cycles: rtl_cycles[i],
                })
            })
            .collect();
        // Lay teams out on SM tracks exactly like `KernelStats::finish`
        // aggregates cycles: team i on SM i % n, teams back-to-back.
        let n = num_sms.max(1);
        let mut sm_time = vec![0u64; n as usize];
        let mut tracks = Vec::with_capacity(teams.len());
        for (i, t) in teams.into_iter().enumerate() {
            let sm = (i as u32) % n;
            let start = sm_time[sm as usize];
            let dur = stats.team_cycles.get(i).copied().unwrap_or(0);
            let end = start + dur;
            sm_time[sm as usize] = end;
            tracks.push(TeamTrack {
                team: i as u32,
                sm,
                start,
                end,
                regions: t
                    .regions
                    .iter()
                    .map(|&(f, s, e)| RegionSpan {
                        func: module.func(f).name.clone(),
                        start: start + s,
                        end: (start + e).min(end),
                    })
                    .collect(),
                barriers: t.barriers.iter().map(|&c| start + c).collect(),
                allocs: t.allocs.iter().map(|&(c, b)| (start + c, b)).collect(),
            });
        }
        LaunchProfile {
            cycles: stats.cycles,
            total_thread_cycles,
            num_sms,
            functions,
            class_cycles,
            rtl,
            teams: tracks,
            streams: Vec::new(),
        }
    }

    /// Function rows ranked hottest-first: by exclusive cycles
    /// descending, then name (a deterministic tiebreak).
    pub fn hot_functions(&self) -> Vec<&FuncProfile> {
        let mut v: Vec<&FuncProfile> = self.functions.iter().collect();
        v.sort_by(|a, b| {
            b.exclusive_cycles
                .cmp(&a.exclusive_cycles)
                .then_with(|| a.name.cmp(&b.name))
        });
        v
    }

    /// Serializes the full profile as one compact JSON object
    /// (`schema: ompgpu-profile/v1`).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(4096);
        w.begin_object();
        w.key("schema").string("ompgpu-profile/v1");
        w.key("cycles").u64(self.cycles);
        w.key("total_thread_cycles").u64(self.total_thread_cycles);
        w.key("num_sms").u32(self.num_sms);
        w.key("functions").begin_array();
        for f in self.hot_functions() {
            w.begin_object();
            w.key("name").string(&f.name);
            w.key("calls").u64(f.calls);
            w.key("inclusive_cycles").u64(f.inclusive_cycles);
            w.key("exclusive_cycles").u64(f.exclusive_cycles);
            w.key("stall_cycles").u64(f.stall_cycles);
            w.key("coalesced_accesses").u64(f.coalesced_accesses);
            w.key("uncoalesced_accesses").u64(f.uncoalesced_accesses);
            w.end_object();
        }
        w.end_array();
        w.key("classes").begin_object();
        for (name, &cycles) in CLASS_NAMES.iter().zip(&self.class_cycles) {
            w.key(name).u64(cycles);
        }
        w.end_object();
        w.key("rtl").begin_array();
        for r in &self.rtl {
            w.begin_object();
            w.key("name").string(&r.name);
            w.key("calls").u64(r.calls);
            w.key("cycles").u64(r.cycles);
            w.end_object();
        }
        w.end_array();
        w.key("teams").begin_array();
        for t in &self.teams {
            w.begin_object();
            w.key("team").u32(t.team);
            w.key("sm").u32(t.sm);
            w.key("start").u64(t.start);
            w.key("end").u64(t.end);
            w.key("regions").begin_array();
            for r in &t.regions {
                w.begin_object();
                w.key("func").string(&r.func);
                w.key("start").u64(r.start);
                w.key("end").u64(r.end);
                w.end_object();
            }
            w.end_array();
            w.key("barriers").begin_array();
            for &b in &t.barriers {
                w.u64(b);
            }
            w.end_array();
            w.key("allocs").begin_array();
            for &(c, b) in &t.allocs {
                w.begin_object();
                w.key("cycle").u64(c);
                w.key("bytes").u64(b);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        if !self.streams.is_empty() {
            w.key("streams").begin_array();
            for s in &self.streams {
                w.begin_object();
                w.key("stream").u32(s.stream);
                w.key("label").string(&s.label);
                w.key("start").u64(s.start);
                w.key("end").u64(s.end);
                w.end_object();
            }
            w.end_array();
        }
        w.end_object();
        w.finish()
    }

    /// Serializes the launch timeline in the Chrome trace-event JSON
    /// format (loadable in Perfetto / `chrome://tracing`): one track
    /// per SM (`tid`), an `X` duration span per team and per parallel
    /// region, and `i` instant events for barrier releases and
    /// globalization allocations. Plan/graph launches additionally get
    /// one track per stream (tids above the SM range) with a span per
    /// launch node. Timestamps are model cycles exposed through the
    /// format's microsecond field.
    pub fn chrome_trace(&self) -> String {
        use omp_telemetry::trace::{instant_event, meta_event, span_event};
        let mut w = JsonWriter::with_capacity(4096);
        w.begin_object();
        w.key("displayTimeUnit").string("ms");
        w.key("traceEvents").begin_array();
        meta_event(&mut w, "process_name", None, "gpusim");
        let mut sms: Vec<u32> = self.teams.iter().map(|t| t.sm).collect();
        sms.sort_unstable();
        sms.dedup();
        for &sm in &sms {
            meta_event(&mut w, "thread_name", Some(sm), &format!("SM {sm}"));
        }
        // Plan/graph launches add one track per stream, placed above the
        // SM tid range so the two families never collide.
        let stream_base = self.num_sms.max(1);
        let mut stream_ids: Vec<u32> = self.streams.iter().map(|s| s.stream).collect();
        stream_ids.sort_unstable();
        stream_ids.dedup();
        for &sid in &stream_ids {
            meta_event(
                &mut w,
                "thread_name",
                Some(stream_base + sid),
                &format!("stream {sid}"),
            );
        }
        for t in &self.teams {
            span_event(
                &mut w,
                &format!("team {}", t.team),
                "team",
                t.sm,
                t.start,
                t.end,
            );
            for r in &t.regions {
                span_event(&mut w, &r.func, "parallel", t.sm, r.start, r.end);
            }
            for &b in &t.barriers {
                instant_event(&mut w, "barrier", "sync", t.sm, b, None);
            }
            for &(c, bytes) in &t.allocs {
                instant_event(&mut w, "globalization_alloc", "alloc", t.sm, c, Some(bytes));
            }
        }
        for s in &self.streams {
            span_event(
                &mut w,
                &s.label,
                "stream",
                stream_base + s.stream,
                s.start,
                s.end,
            );
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Renders the human-readable profile report: ranked hot-function
    /// table, instruction-class breakdown, and runtime-call table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let total = self.total_thread_cycles.max(1);
        let _ = writeln!(
            s,
            "kernel cycles: {}  ({} teams over {} SMs, {} thread-cycles)",
            self.cycles,
            self.teams.len(),
            self.num_sms,
            self.total_thread_cycles
        );
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "hot functions (by exclusive cycles; stall = barrier/join wait):"
        );
        let _ = writeln!(
            s,
            "  {:>12} {:>6} {:>12} {:>12} {:>8} {:>8} {:>8}  FUNCTION",
            "EXCL", "%", "STALL", "INCL", "CALLS", "COAL", "UNCOAL"
        );
        for f in self.hot_functions() {
            let pct = 100.0 * f.exclusive_cycles as f64 / total as f64;
            let _ = writeln!(
                s,
                "  {:>12} {:>5.1}% {:>12} {:>12} {:>8} {:>8} {:>8}  {}",
                f.exclusive_cycles,
                pct,
                f.stall_cycles,
                f.inclusive_cycles,
                f.calls,
                f.coalesced_accesses,
                f.uncoalesced_accesses,
                f.name
            );
        }
        let _ = writeln!(s);
        let _ = writeln!(s, "cycles by instruction class:");
        for (name, &cycles) in CLASS_NAMES.iter().zip(&self.class_cycles) {
            if cycles == 0 {
                continue;
            }
            let pct = 100.0 * cycles as f64 / total as f64;
            let _ = writeln!(s, "  {:>12} {:>5.1}%  {}", cycles, pct, name);
        }
        if !self.rtl.is_empty() {
            let _ = writeln!(s);
            let _ = writeln!(s, "runtime entry points:");
            let _ = writeln!(s, "  {:>12} {:>10}  ENTRY POINT", "CYCLES", "CALLS");
            let mut rows: Vec<&RtlProfile> = self.rtl.iter().collect();
            rows.sort_by(|a, b| b.cycles.cmp(&a.cycles).then_with(|| a.name.cmp(&b.name)));
            for r in rows {
                let _ = writeln!(s, "  {:>12} {:>10}  {}", r.cycles, r.calls, r.name);
            }
        }
        s
    }
}
