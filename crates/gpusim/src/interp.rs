//! The kernel interpreter: executes IR for every thread of one team,
//! implementing the OpenMP device runtime semantics and charging the
//! cost model.
//!
//! Threads are cooperatively scheduled within a team: a thread runs
//! until it blocks (barrier, worker wait, end-of-parallel join) or
//! finishes. Cross-thread interactions — parallel-region dispatch,
//! barriers, termination — release blocked threads and align their
//! cycle counters, which is how synchronization shows up in kernel
//! time.
//!
//! Execution is driven by the precompiled [`crate::plan::ExecPlan`],
//! which holds one lowered form per block: straight-line instructions
//! are pre-decoded [`Step`]s with one definition
//! ([`TeamExec::exec_step`]), calls carry pre-resolved targets and
//! operand [`Slot`]s, and terminators are [`Exit`]s whose [`Edge`]s
//! carry their phi moves. One loop ([`TeamExec::run_blocks`]) runs
//! every block, either through its fused body ([`crate::compile`]) or
//! entry by entry, and leaves it through one exit. A frame is one
//! value file, `[registers | arguments | constants]`, built from its
//! function's frame image at push, so every operand [`Slot`] is a plain
//! index into it; edges copy their phi moves in place unless the plan
//! flagged them as needing a parallel copy. The coalescing-model state
//! lives in dense `Vec`s indexed by a plan-wide access-site number.
//!
//! The profiler and the sanitizer are [`Observers`] of that one
//! executor: they are told what happened on whichever path it happened
//! and never choose the tier.
//!
//! One [`TeamExec`] runs one team to completion over a private
//! [`TeamMemView`]; teams are independent, so the launch layer
//! (`launch.rs`) may run several on parallel host threads and merge the
//! resulting [`TeamOutcome`]s in team-id order.

use crate::compile::{Call, Edge, Entry, Exit, Slot, Step, STATIC_CLASSES};
use crate::config::{DeviceConfig, Tier};
use crate::cost::{CostModel, BANK_CONFLICT_REPLAYS};
use crate::error::{Provenance, SimError, ThreadPos};
use crate::mem::{self, AccessClass, FastMap, TeamMemDelta, TeamMemView};
use crate::observe::Observers;
use crate::plan::{CallTarget, ExecPlan, FuncPlan, MathKind, NUM_RTL_FNS};
use crate::profile::{CycleClass, TeamProfile};
use crate::sanitize::{Finding, SiteRef};
use crate::stats::KernelStats;
use omp_ir::omprtl::{ALL_RTL_FNS, MODE_SPMD};
use omp_ir::scalar::{self, ScalarError};
use omp_ir::{BinOp, BlockId, ExecMode, FuncId, InstId, Module, RtVal, RtlFn, Type};
use std::time::Instant;

/// Why a thread is not currently runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    /// Worker blocked in `__kmpc_kernel_parallel`.
    WaitWork,
    /// Main thread waiting for workers to finish the parallel region.
    WaitJoin,
    /// Waiting at a barrier (`true` = team-wide "simple" barrier).
    AtBarrier(bool),
    Done,
}

impl Status {
    /// Stable diagnostic name for thread-position reports.
    fn name(self) -> &'static str {
        match self {
            Status::Ready => "ready",
            Status::WaitWork => "wait-work",
            Status::WaitJoin => "wait-join",
            Status::AtBarrier(_) => "at-barrier",
            Status::Done => "done",
        }
    }
}

struct Frame {
    func: FuncId,
    block: BlockId,
    idx: usize,
    /// The value file every operand [`Slot`] indexes: registers, then
    /// arguments, then constants and globals, built from the
    /// function's frame image at push.
    regs: Vec<Option<RtVal>>,
    /// Where the argument range starts: a `None` read below it is an
    /// undefined register, at or above it a missing argument.
    num_regs: u32,
    local_sp_save: u64,
    /// The call instruction in the parent frame to receive the result.
    ret_to: Option<InstId>,
    hook: Option<RetHook>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RetHook {
    /// Main thread finished its share of a generic parallel region.
    Generic,
    /// SPMD thread finished a parallel region: implicit team barrier.
    Spmd,
    /// Serialized nested region: pop context only.
    Serialized,
}

struct Thread {
    hw: u32,
    status: Status,
    frames: Vec<Frame>,
    /// Retired frames recycled by later calls, so a call in steady
    /// state allocates nothing: the value files of popped frames are
    /// reused at the next push.
    pool: Vec<Frame>,
    cycles: u64,
    insts: u64,
    /// (omp thread id, team size) context stack.
    ctx: Vec<(i32, i32)>,
    local_sp: u64,
    /// Result delivered by a release (consumed by the blocked call).
    resume: Option<RtVal>,
    /// Bitset over plan-wide access sites this thread has already
    /// contributed a coalescing sample for (only the first visit is
    /// compared).
    sampled: Vec<u64>,
}

impl Thread {
    fn new(hw: u32, sample_words: usize) -> Thread {
        Thread {
            hw,
            status: Status::Ready,
            frames: Vec::new(),
            pool: Vec::new(),
            cycles: 0,
            insts: 0,
            ctx: Vec::new(),
            local_sp: 0,
            resume: None,
            sampled: vec![0; sample_words],
        }
    }
}

/// Builds a frame for `func` (planned as `fp`) on team `team_id`,
/// recycling a value file from `pool` when possible: the function's
/// frame image with its shared-space globals resolved for the team. The
/// argument range is left empty for the caller to fill.
fn make_frame(
    pool: &mut Vec<Frame>,
    fp: &FuncPlan,
    func: FuncId,
    team_id: u32,
    local_sp_save: u64,
    ret_to: Option<InstId>,
    hook: Option<RetHook>,
) -> Frame {
    let mut regs = pool.pop().map(|f| f.regs).unwrap_or_default();
    regs.clear();
    // One exact allocation for a fresh file: growing it in two steps
    // would leave every frame up to twice its size.
    regs.reserve(fp.consts_at() + fp.consts.len());
    regs.resize(fp.consts_at(), None);
    regs.extend_from_slice(&fp.consts);
    for &(slot, offset) in &fp.shared {
        regs[slot as usize] = Some(RtVal::Ptr(mem::shared_addr(team_id, offset)));
    }
    Frame {
        func,
        block: fp.entry,
        idx: 0,
        regs,
        num_regs: fp.num_regs as u32,
        local_sp_save,
        ret_to,
        hook,
    }
}

const SITE_UNKNOWN: u8 = 0;
const SITE_COALESCED: u8 = 1;
const SITE_UNCOALESCED: u8 = 2;

/// Sentinel lane for an empty coalescing sample slot.
const NO_SAMPLE: u32 = u32::MAX;

/// Where [`TeamExec::run_blocks`] hands a thread back to
/// [`TeamExec::run_thread`]: at a call, counted but not executed, or at
/// a `ret` with its value.
enum Stop<'p> {
    Call(&'p Call),
    Ret(Option<RtVal>),
}

/// Per-team runtime state.
struct Team {
    id: u32,
    mode: ExecMode,
    threads: Vec<Thread>,
    /// Published parallel-region token and args.
    work_token: RtVal,
    work_args: u64,
    /// Hardware tids assigned work but not yet picked up.
    assigned: Vec<u32>,
    /// Team size of the current generic dispatch.
    dispatch_n: i32,
    /// Workers that have not called `__kmpc_kernel_end_parallel` yet.
    outstanding: u32,
    terminated: bool,
    /// Sizes of legacy push-stack allocations (for pop).
    push_sizes: FastMap<u64>,
}

/// Statistics gathered while one team runs; merged into the launch's
/// [`KernelStats`] in team-id order. Runtime-call counts are a dense
/// array indexed by `RtlFn` discriminant — no per-call string keys.
#[derive(Debug, Clone, Default)]
pub(crate) struct TeamStats {
    pub instructions: u64,
    pub rtl_calls: [u64; NUM_RTL_FNS],
    pub globalization_allocs: u64,
    pub barriers: u64,
    pub indirect_calls: u64,
    pub parallel_regions: u64,
    pub memory_accesses: u64,
    pub coalesced_accesses: u64,
    pub uncoalesced_accesses: u64,
    /// Superinstruction hit counters: steps of fused block runs per
    /// fused kind versus plain steps. Tier-dependent by construction
    /// (`Tier::Interp` runs no block fused), so they are excluded from
    /// cross-tier differential comparisons.
    pub fused_gep_load: u64,
    pub fused_load_bin_store: u64,
    pub fused_cmp_br: u64,
    pub plain_steps: u64,
}

impl TeamStats {
    /// Folds this team's counters into the launch statistics.
    pub fn merge_into(&self, s: &mut KernelStats) {
        s.instructions += self.instructions;
        s.globalization_allocs += self.globalization_allocs;
        s.barriers += self.barriers;
        s.indirect_calls += self.indirect_calls;
        s.parallel_regions += self.parallel_regions;
        s.memory_accesses += self.memory_accesses;
        s.coalesced_accesses += self.coalesced_accesses;
        s.uncoalesced_accesses += self.uncoalesced_accesses;
        s.fused_gep_load += self.fused_gep_load;
        s.fused_load_bin_store += self.fused_load_bin_store;
        s.fused_cmp_br += self.fused_cmp_br;
        s.plain_steps += self.plain_steps;
        for (i, f) in ALL_RTL_FNS.iter().enumerate() {
            if self.rtl_calls[i] != 0 {
                *s.rtl_calls.entry(f.name().to_string()).or_insert(0) += self.rtl_calls[i];
            }
        }
    }
}

/// Everything one finished team hands back to the launch layer.
pub(crate) struct TeamOutcome {
    pub cycles: u64,
    pub stats: TeamStats,
    pub delta: TeamMemDelta,
    /// Present iff the device config enables profiling.
    pub profile: Option<TeamProfile>,
    /// Sanitizer findings (empty unless the config enables sanitizing).
    pub findings: Vec<Finding>,
}

/// The interpreter for one team of a kernel launch. Owns the team's
/// memory view and all mutable state, sharing only read-only module,
/// plan, and configuration — which is what makes running several
/// `TeamExec`s on parallel host threads sound.
pub(crate) struct TeamExec<'a, 'm> {
    module: &'m Module,
    plan: &'a ExecPlan,
    cfg: &'a DeviceConfig,
    cost: &'a CostModel,
    mem: TeamMemView<'a>,
    num_teams: u32,
    team_size: u32,
    team: Team,
    stats: TeamStats,
    /// Dense per-site classification (`SITE_*`), plan-wide index.
    site_class: Vec<u8>,
    /// Per-(warp, site) first sample: `(lane, addr)`.
    site_samples: Vec<(u32, u64)>,
    total_sites: usize,
    /// Set by allocation runtime calls: the current thread yields so
    /// that per-thread allocations overlap in time, modelling the
    /// concurrent footprint of a real launch.
    yield_flag: bool,
    /// Reusable scratch for evaluated call arguments (taken with
    /// `mem::take` around uses, so steady-state calls don't allocate).
    scratch_args: Vec<RtVal>,
    /// Reusable scratch for the phi moves of an edge that needs a
    /// parallel copy.
    scratch_phis: Vec<RtVal>,
    /// The profiler and sanitizer, when the launch enabled them.
    obs: Observers,
    /// Injected trap threshold (`u64::MAX` = disabled), folded into the
    /// per-instruction budget compare.
    fault_trap_at: u64,
    /// Wall-clock deadline for this team (checked every 16 K
    /// instructions; `None` = no watchdog).
    deadline: Option<Instant>,
    watchdog_millis: u64,
}

impl<'a, 'm> TeamExec<'a, 'm> {
    /// Creates the executor for one team. The caller must have checked
    /// that `kernel` is a defined function of the plan.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        module: &'m Module,
        plan: &'a ExecPlan,
        cfg: &'a DeviceConfig,
        cost: &'a CostModel,
        mem: TeamMemView<'a>,
        num_teams: u32,
        team_size: u32,
        team_id: u32,
        mode: ExecMode,
        kernel: FuncId,
        args: &[RtVal],
    ) -> TeamExec<'a, 'm> {
        let kplan = plan.func(kernel).expect("launch checked kernel is defined");
        let total_sites = plan.total_sites() as usize;
        let sample_words = total_sites.div_ceil(64);
        let warps = (team_size.div_ceil(cfg.warp_size)).max(1) as usize;
        let mut team = Team {
            id: team_id,
            mode,
            threads: (0..team_size)
                .map(|hw| Thread::new(hw, sample_words))
                .collect(),
            work_token: RtVal::Ptr(0),
            work_args: 0,
            assigned: Vec::new(),
            dispatch_n: 0,
            outstanding: 0,
            terminated: false,
            push_sizes: FastMap::default(),
        };
        for t in &mut team.threads {
            let mut fr = make_frame(&mut t.pool, kplan, kernel, team_id, 0, None, None);
            for (r, &v) in fr.regs[kplan.args()].iter_mut().zip(args) {
                *r = Some(v);
            }
            t.frames.push(fr);
        }
        let obs = Observers::new(cfg, module.num_functions(), team_id, team_size, kernel);
        let watchdog_millis = cfg.watchdog.map(|d| d.as_millis() as u64).unwrap_or(0);
        TeamExec {
            module,
            plan,
            cfg,
            cost,
            mem,
            num_teams,
            team_size,
            team,
            stats: TeamStats::default(),
            site_class: vec![SITE_UNKNOWN; total_sites],
            site_samples: vec![(NO_SAMPLE, 0); warps * total_sites],
            total_sites,
            yield_flag: false,
            scratch_args: Vec::new(),
            scratch_phis: Vec::new(),
            obs,
            fault_trap_at: cfg.fault.trap_at_inst.unwrap_or(u64::MAX),
            deadline: cfg.watchdog.map(|d| Instant::now() + d),
            watchdog_millis,
        }
    }

    /// Runs the team to completion; returns its cycle count, statistics
    /// and memory effects. Picks the executor instantiation once: a
    /// launch nobody observes runs code with no observer calls in it.
    pub fn run(self) -> Result<TeamOutcome, SimError> {
        if self.obs.active() {
            self.run_team::<true>()
        } else {
            self.run_team::<false>()
        }
    }

    fn run_team<const OBS: bool>(mut self) -> Result<TeamOutcome, SimError> {
        // Round-robin scheduling until every thread is done.
        loop {
            let mut progressed = false;
            for hw in 0..self.team_size {
                if self.team.threads[hw as usize].status != Status::Ready {
                    continue;
                }
                progressed = true;
                if let Err(e) = self.run_thread::<OBS>(hw) {
                    return Err(self.annotate(e, hw));
                }
            }
            if self.team.threads.iter().all(|t| t.status == Status::Done) {
                break;
            }
            if !progressed {
                // Threads stuck at a barrier while their peers exited
                // (or never arrived) are a barrier-divergence finding
                // on top of the deadlock itself.
                if self
                    .team
                    .threads
                    .iter()
                    .any(|t| matches!(t.status, Status::AtBarrier(_)))
                {
                    self.obs.on_barrier_deadlock();
                }
                let threads = self.thread_positions();
                let findings = self.obs.take_findings(self.module);
                return Err(SimError::deadlock()
                    .with_threads(threads)
                    .with_findings(findings));
            }
        }
        let cycles = self
            .team
            .threads
            .iter()
            .map(|t| t.cycles)
            .max()
            .unwrap_or(0);
        self.stats.instructions += self.team.threads.iter().map(|t| t.insts).sum::<u64>();
        let total_thread_cycles = self.team.threads.iter().map(|t| t.cycles).sum::<u64>();
        let profile = self.obs.take_profile(total_thread_cycles);
        let findings = self.obs.take_findings(self.module);
        Ok(TeamOutcome {
            cycles,
            stats: self.stats,
            delta: self.mem.finish(),
            profile,
            findings,
        })
    }

    /// The position of every thread of the team, for deadlock/timeout
    /// diagnostics.
    fn thread_positions(&self) -> Vec<ThreadPos> {
        self.team
            .threads
            .iter()
            .map(|t| {
                let (function, block, inst) = match t.frames.last() {
                    Some(f) => (
                        self.module.func(f.func).name.clone(),
                        f.block.index() as u32,
                        f.idx as u32,
                    ),
                    None => (String::new(), 0, 0),
                };
                ThreadPos {
                    thread: t.hw,
                    state: t.status.name().to_string(),
                    function,
                    block,
                    inst,
                }
            })
            .collect()
    }

    /// Attaches provenance (failing thread's top frame) and any
    /// sanitizer findings to an error bubbling out of `run_thread`.
    fn annotate(&mut self, e: SimError, hw: u32) -> SimError {
        let epoch = self.obs.epoch_of(hw);
        let th = &self.team.threads[hw as usize];
        let p = th.frames.last().map(|f| Provenance {
            function: self.module.func(f.func).name.clone(),
            block: f.block.index() as u32,
            inst: f.idx as u32,
            team: self.team.id,
            thread: hw,
            epoch,
        });
        let findings = self.obs.take_findings(self.module);
        let mut e = e.with_findings(findings);
        if let Some(p) = p {
            e = e.with_provenance(p);
        }
        if matches!(e.kind, crate::error::SimErrorKind::Timeout { .. }) {
            e = e.with_threads(self.thread_positions());
        }
        e
    }

    /// Picks the error for a tripped instruction-count stop: either the
    /// injected trap of the fault plan or the runaway budget.
    fn budget_stop(&self, insts: u64) -> SimError {
        if insts >= self.fault_trap_at {
            SimError::fault_injected(format!(
                "trap at dynamic instruction {}",
                self.fault_trap_at
            ))
        } else {
            SimError::runaway(self.cfg.max_insts_per_thread)
        }
    }

    /// Runs thread `hw` until it blocks, yields, or finishes: the top
    /// frame runs in [`TeamExec::run_blocks`], and what stops it there —
    /// a call or a `ret` — is handled here before the (possibly new) top
    /// frame runs again.
    fn run_thread<const OBS: bool>(&mut self, hw: u32) -> Result<(), SimError> {
        let max_insts = self.cfg.max_insts_per_thread;
        // Fold the injected-trap threshold into the budget compare so
        // the hot loop pays a single bound check for both.
        let stop_at = max_insts.saturating_add(1).min(self.fault_trap_at);
        while self.team.threads[hw as usize].status == Status::Ready {
            let th = &mut self.team.threads[hw as usize];
            if th.frames.is_empty() {
                th.insts += 1;
                if th.insts >= stop_at {
                    let insts = th.insts;
                    return Err(self.budget_stop(insts));
                }
                th.status = Status::Done;
                continue;
            }
            match self.run_blocks::<OBS>(hw, stop_at)? {
                Stop::Ret(val) => self.do_return(hw, val)?,
                Stop::Call(call) => {
                    self.exec_call(hw, call)?;
                    // The call may have pushed a frame, blocked the
                    // thread, or requested a scheduler yield.
                    if self.yield_flag {
                        self.yield_flag = false;
                        return Ok(());
                    }
                }
            }
        }
        Ok(())
    }

    /// The executor loop: runs thread `hw`'s top frame block by block
    /// until a call, a `ret` or an error. The frame is popped into a
    /// local for the duration, and cycle/instruction deltas accumulate
    /// in locals; all three go back to the thread once per stop.
    ///
    /// Each block runs on one of two paths, then leaves through one exit:
    ///
    /// * **fused**, when the frame sits at the block head, the launch
    ///   runs [`Tier::Compiled`], the block has a
    ///   [`CompiledBlock`](crate::compile::CompiledBlock) and the
    ///   instruction budget covers its `n_insts`: the fused steps run,
    ///   then one bulk charge covers the block, its terminator included;
    /// * **per entry** otherwise (a resume after a call, a budget that
    ///   might trip inside the block, [`Tier::Interp`]): the entries from
    ///   `frame.idx` one at a time, each with the budget compare, the
    ///   watchdog and its static charge, up to the terminator — or up to
    ///   a call, which is counted and handed back unexecuted. A budget
    ///   stop therefore lands at the exact instruction on both paths.
    ///
    /// The exit returns a `ret`'s value, traps at `unreachable`, or
    /// decides a branch (through the fused compare on the fused path),
    /// takes the edge and charges the branch (pre-summed on the fused
    /// path), and the loop goes on in the successor. A fused block that
    /// fails part-way reports no static cycles to the profiler (the
    /// error drops the profile along with the statistics).
    fn run_blocks<const OBS: bool>(&mut self, hw: u32, stop_at: u64) -> Result<Stop<'a>, SimError> {
        let plan = self.plan;
        let th = &mut self.team.threads[hw as usize];
        let mut insts = th.insts;
        let mut cycles: u64 = 0;
        let mut frame = th.frames.pop().expect("block run without a frame");
        let fid = frame.func;
        let fp = plan.func(fid).expect("frame in undefined function");
        let fuse = self.cfg.tier == Tier::Compiled;
        let r = 'blocks: loop {
            let bp = fp.block(frame.block);
            let fused = bp
                .compiled
                .as_ref()
                .filter(|cb| fuse && frame.idx == 0 && insts.saturating_add(cb.n_insts) < stop_at);
            if let Some(cb) = fused {
                let before = insts;
                for &(at, ref step) in &cb.steps {
                    if let Err((rel, e)) =
                        self.exec_step::<OBS>(hw, fid, step, &mut frame, &mut cycles)
                    {
                        frame.idx = (at + rel) as usize;
                        break 'blocks Err(e);
                    }
                }
                insts += cb.n_insts;
                cycles += cb.static_cycles;
                if OBS {
                    for (class, &c) in STATIC_CLASSES.into_iter().zip(&cb.class_cycles) {
                        self.obs.on_charge(Some(fid), class, c);
                    }
                }
                self.stats.fused_gep_load += cb.gep_loads as u64;
                self.stats.fused_load_bin_store += cb.load_bin_stores as u64;
                self.stats.plain_steps += cb.plain_steps as u64;
                frame.idx = bp.lowered.len();
                // Amortized watchdog: fire on the same 16 K-instruction
                // cadence as the per-entry check.
                if (before >> 14) != (insts >> 14)
                    && self.deadline.is_some_and(|d| Instant::now() >= d)
                {
                    break Err(SimError::timeout(self.watchdog_millis));
                }
            } else {
                loop {
                    insts += 1;
                    if insts >= stop_at {
                        break 'blocks Err(self.budget_stop(insts));
                    }
                    if insts & 0x3FFF == 0 && self.deadline.is_some_and(|d| Instant::now() >= d) {
                        break 'blocks Err(SimError::timeout(self.watchdog_millis));
                    }
                    let l = match bp.lowered.get(frame.idx) {
                        // The terminator's iteration.
                        None => break,
                        Some(Entry::Call(call)) => break 'blocks Ok(Stop::Call(call)),
                        Some(Entry::Skip) => {
                            frame.idx += 1;
                            continue;
                        }
                        Some(Entry::Step(l)) => l,
                    };
                    if let Err((_, e)) =
                        self.exec_step::<OBS>(hw, fid, &l.step, &mut frame, &mut cycles)
                    {
                        break 'blocks Err(e);
                    }
                    cycles += l.cycles;
                    if OBS {
                        self.obs.on_charge(Some(fid), l.class, l.cycles);
                    }
                    frame.idx += 1;
                }
            }
            // The one exit; the frame sits at the terminator.
            let edge = match &bp.exit {
                Exit::Ret(v) => {
                    break v
                        .map(|s| Self::slot_val(&frame, s))
                        .transpose()
                        .map(Stop::Ret)
                }
                Exit::Unreachable => {
                    break Err(SimError::trap(format!(
                        "reached `unreachable` in @{}",
                        self.module.func(fid).name
                    )));
                }
                Exit::Br(e) => e,
                Exit::CondBr {
                    cond,
                    then_e,
                    else_e,
                } => {
                    // Early breaks, not a `Result<bool, _>` value: the
                    // optimizer copies a materialized one once per block.
                    let c = if let Some(f) = fused.and_then(|cb| cb.cmp_br.as_ref()) {
                        self.stats.fused_cmp_br += 1;
                        let r = (|| {
                            let a = Self::slot_val(&frame, f.lhs)?;
                            let b = Self::slot_val(&frame, f.rhs)?;
                            scalar::eval_cmp(f.op, f.ty, a, b).map_err(scalar_trap)
                        })();
                        match r {
                            Ok(v) => v == RtVal::Bool(true),
                            Err(e) => {
                                // The fused compare's own code position.
                                frame.idx = f.at as usize;
                                break Err(e);
                            }
                        }
                    } else {
                        match Self::branch(&frame, *cond) {
                            Ok(c) => c,
                            Err(e) => break Err(e),
                        }
                    };
                    if c {
                        then_e
                    } else {
                        else_e
                    }
                }
            };
            if let Err(e) = self.take_edge(&mut frame, edge) {
                break Err(e);
            }
            if fused.is_none() {
                cycles += self.cost.simple_op;
                if OBS {
                    self.obs
                        .on_charge(Some(fid), CycleClass::Branch, self.cost.simple_op);
                }
            }
        };
        let th = &mut self.team.threads[hw as usize];
        th.frames.push(frame);
        th.cycles += cycles;
        th.insts = insts;
        r
    }

    #[inline]
    fn set_reg(frame: &mut Frame, inst: InstId, v: RtVal) {
        frame.regs[inst.index()] = Some(v);
    }

    #[inline]
    fn charge(&mut self, hw: u32, cycles: u64, class: CycleClass) {
        let th = &mut self.team.threads[hw as usize];
        th.cycles += cycles;
        self.obs
            .on_charge(th.frames.last().map(|f| f.func), class, cycles);
    }

    /// Reads an operand: one index into the frame's value file, where
    /// constants and globals were placed when the frame was made. Only
    /// a register never written or an argument never passed reads
    /// `None`.
    ///
    /// `inline(always)` matters: this runs for every operand of every
    /// step, and as an outlined call (large `Result` return,
    /// cold `format!` paths) it costs as much as a whole interpreted
    /// instruction. The trap constructor is outlined instead.
    #[inline(always)]
    fn slot_val(frame: &Frame, s: Slot) -> Result<RtVal, SimError> {
        match frame.regs.get(s.0 as usize) {
            Some(&Some(v)) => Ok(v),
            _ => Err(empty_slot_trap(frame.num_regs, s)),
        }
    }

    /// Follows a pre-resolved edge: applies the target's phi moves for
    /// this predecessor and repositions the frame, or traps at a phi
    /// with no incoming. The moves take effect simultaneously: in place
    /// when the plan proved that equivalent, otherwise every read goes
    /// through `scratch_phis` before any write.
    fn take_edge(&mut self, frame: &mut Frame, edge: &Edge) -> Result<(), SimError> {
        if edge.parallel {
            let scratch = &mut self.scratch_phis;
            scratch.clear();
            for &(_, s) in &edge.moves {
                scratch.push(Self::slot_val(frame, s)?);
            }
            for (&(i, _), &v) in edge.moves.iter().zip(scratch.iter()) {
                Self::set_reg(frame, i, v);
            }
        } else {
            for &(i, s) in &edge.moves {
                let v = Self::slot_val(frame, s)?;
                Self::set_reg(frame, i, v);
            }
        }
        if let Some(i) = edge.missing {
            return Err(SimError::trap(format!(
                "phi {i} has no incoming for predecessor {}",
                frame.block
            )));
        }
        frame.block = edge.target;
        frame.idx = 0;
        Ok(())
    }

    /// A conditional branch's decision on `cond`; inlined like
    /// [`TeamExec::slot_val`], as the loop decides one per block.
    #[inline(always)]
    fn branch(frame: &Frame, cond: Slot) -> Result<bool, SimError> {
        Self::slot_val(frame, cond)?
            .as_bool()
            .ok_or_else(|| op_trap("branch on non-boolean"))
    }

    /// Executes one step — the single definition of every straight-line
    /// op, fused or not — against the popped frame, accumulating
    /// dynamic (memory-access) cycle costs into `cycles`; static costs
    /// are the caller's (per entry, or pre-summed per fused block). On
    /// error, returns the offset of the failing fused component so the
    /// caller can restore the exact code position.
    ///
    /// `inline(always)`: with two call sites per instantiation (the
    /// fused and the per-entry path) the optimizer otherwise leaves this
    /// an outlined call returning a large `Result` through memory, once
    /// per step.
    #[inline(always)]
    fn exec_step<const OBS: bool>(
        &mut self,
        hw: u32,
        fid: FuncId,
        step: &Step,
        frame: &mut Frame,
        cycles: &mut u64,
    ) -> Result<(), (u32, SimError)> {
        let team_id = self.team.id;
        match *step {
            Step::Alloca { size, dst } => {
                let th = &mut self.team.threads[hw as usize];
                let addr = mem::local_addr(team_id, hw, th.local_sp);
                th.local_sp += size.max(1).div_ceil(8) * 8;
                if th.local_sp > self.cfg.local_mem_per_thread {
                    return Err((0, op_trap("thread-local stack overflow")));
                }
                Self::set_reg(frame, dst, RtVal::Ptr(addr));
            }
            Step::Load { ptr, ty, site, dst } => {
                let p = Self::slot_val(frame, ptr)
                    .map_err(|e| (0, e))?
                    .as_ptr()
                    .ok_or_else(|| (0, op_trap("load through non-pointer")))?;
                let (v, class) = self.mem.load(p, ty, hw).map_err(|e| (0, e.into()))?;
                *cycles += self.access::<OBS>(hw, fid, frame, site, p, ty, class, false);
                Self::set_reg(frame, dst, v);
            }
            Step::Store { ptr, val, site } => {
                let p = Self::slot_val(frame, ptr)
                    .map_err(|e| (0, e))?
                    .as_ptr()
                    .ok_or_else(|| (0, op_trap("store through non-pointer")))?;
                let v = Self::slot_val(frame, val).map_err(|e| (0, e))?;
                let class = self.mem.store(p, v, hw).map_err(|e| (0, e.into()))?;
                *cycles += self.access::<OBS>(hw, fid, frame, site, p, v.ty(), class, true);
            }
            Step::Bin {
                op,
                ty,
                lhs,
                rhs,
                dst,
            } => {
                let a = Self::slot_val(frame, lhs).map_err(|e| (0, e))?;
                let b = Self::slot_val(frame, rhs).map_err(|e| (0, e))?;
                let v = scalar::eval_bin(op, ty, a, b).map_err(|e| (0, bin_trap(e, op, a, b)))?;
                Self::set_reg(frame, dst, v);
            }
            Step::Cmp {
                op,
                ty,
                lhs,
                rhs,
                dst,
            } => {
                let a = Self::slot_val(frame, lhs).map_err(|e| (0, e))?;
                let b = Self::slot_val(frame, rhs).map_err(|e| (0, e))?;
                let v = scalar::eval_cmp(op, ty, a, b).map_err(|e| (0, scalar_trap(e)))?;
                Self::set_reg(frame, dst, v);
            }
            Step::Cast { op, val, to, dst } => {
                let a = Self::slot_val(frame, val).map_err(|e| (0, e))?;
                let v = scalar::eval_cast(op, a, to).map_err(|e| (0, scalar_trap(e)))?;
                Self::set_reg(frame, dst, v);
            }
            Step::Gep {
                base,
                index,
                scale,
                offset,
                dst,
            } => {
                let b = Self::slot_val(frame, base)
                    .map_err(|e| (0, e))?
                    .as_ptr()
                    .ok_or_else(|| (0, op_trap("gep on non-pointer")))?;
                let i = Self::slot_val(frame, index)
                    .map_err(|e| (0, e))?
                    .as_i64()
                    .ok_or_else(|| (0, op_trap("gep with non-integer index")))?;
                let addr = b.wrapping_add_signed(scalar::gep_offset(i, scale, offset));
                Self::set_reg(frame, dst, RtVal::Ptr(addr));
            }
            Step::Select {
                cond,
                on_true,
                on_false,
                dst,
            } => {
                let c = Self::slot_val(frame, cond)
                    .map_err(|e| (0, e))?
                    .as_bool()
                    .ok_or_else(|| (0, op_trap("select on non-boolean")))?;
                let v = if c {
                    Self::slot_val(frame, on_true).map_err(|e| (0, e))?
                } else {
                    Self::slot_val(frame, on_false).map_err(|e| (0, e))?
                };
                Self::set_reg(frame, dst, v);
            }
            Step::Math {
                kind,
                f32_out,
                args,
                n_args,
                dst,
            } => {
                let mut buf = [RtVal::I64(0); 2];
                for (k, slot) in args.iter().take(n_args as usize).enumerate() {
                    buf[k] = Self::slot_val(frame, *slot).map_err(|e| (0, e))?;
                }
                let v = exec_math(kind, f32_out, &buf[..n_args as usize]).map_err(|e| (0, e))?;
                Self::set_reg(frame, dst, v);
            }
            Step::GepLoad {
                base,
                index,
                scale,
                offset,
                addr_dst,
                ty,
                site,
                dst,
            } => {
                let b = Self::slot_val(frame, base)
                    .map_err(|e| (0, e))?
                    .as_ptr()
                    .ok_or_else(|| (0, op_trap("gep on non-pointer")))?;
                let i = Self::slot_val(frame, index)
                    .map_err(|e| (0, e))?
                    .as_i64()
                    .ok_or_else(|| (0, op_trap("gep with non-integer index")))?;
                let addr = b.wrapping_add_signed(scalar::gep_offset(i, scale, offset));
                if let Some(d) = addr_dst {
                    Self::set_reg(frame, d, RtVal::Ptr(addr));
                }
                let (v, class) = self.mem.load(addr, ty, hw).map_err(|e| (1, e.into()))?;
                *cycles += self.access::<OBS>(hw, fid, frame, site, addr, ty, class, false);
                Self::set_reg(frame, dst, v);
            }
            Step::LoadBinStore {
                ptr,
                lty,
                lsite,
                ldst,
                op,
                bty,
                other,
                loaded_is_lhs,
                bdst,
                sptr,
                ssite,
            } => {
                let p = Self::slot_val(frame, ptr)
                    .map_err(|e| (0, e))?
                    .as_ptr()
                    .ok_or_else(|| (0, op_trap("load through non-pointer")))?;
                let (lv, class) = self.mem.load(p, lty, hw).map_err(|e| (0, e.into()))?;
                *cycles += self.access::<OBS>(hw, fid, frame, lsite, p, lty, class, false);
                if let Some(d) = ldst {
                    Self::set_reg(frame, d, lv);
                }
                let bv = if loaded_is_lhs {
                    let b = Self::slot_val(frame, other).map_err(|e| (1, e))?;
                    scalar::eval_bin(op, bty, lv, b).map_err(|e| (1, bin_trap(e, op, lv, b)))?
                } else {
                    let a = Self::slot_val(frame, other).map_err(|e| (1, e))?;
                    scalar::eval_bin(op, bty, a, lv).map_err(|e| (1, bin_trap(e, op, a, lv)))?
                };
                if let Some(d) = bdst {
                    Self::set_reg(frame, d, bv);
                }
                let sp = Self::slot_val(frame, sptr)
                    .map_err(|e| (2, e))?
                    .as_ptr()
                    .ok_or_else(|| (2, op_trap("store through non-pointer")))?;
                let class = self.mem.store(sp, bv, hw).map_err(|e| (2, e.into()))?;
                *cycles += self.access::<OBS>(hw, fid, frame, ssite, sp, bv.ty(), class, true);
            }
        }
        Ok(())
    }

    /// Applies a cycle *jump* (barrier release, join alignment, worker
    /// wakeup) to thread `t`, recording it as stall time when
    /// profiling. Returns the thread's new cycle count.
    #[inline]
    fn align_cycles(&mut self, t: u32, target: u64) -> u64 {
        let th = &mut self.team.threads[t as usize];
        let old = th.cycles;
        th.cycles = th.cycles.max(target);
        let new = th.cycles;
        if new > old {
            self.obs
                .on_stall(th.frames.last().map(|f| f.func), new - old);
        }
        new
    }

    fn do_return(&mut self, hw: u32, val: Option<RtVal>) -> Result<(), SimError> {
        let th = &mut self.team.threads[hw as usize];
        let frame = th.frames.pop().expect("return without frame");
        th.local_sp = frame.local_sp_save;
        if let (Some(ret_to), Some(parent)) = (frame.ret_to, th.frames.last_mut()) {
            if let Some(v) = val {
                Self::set_reg(parent, ret_to, v);
            }
        }
        if th.frames.is_empty() {
            th.status = Status::Done;
        }
        let hook = frame.hook;
        let popped = frame.func;
        let now = th.cycles;
        th.pool.push(frame);
        self.obs.on_pop(hw, popped, now);
        // The SPMD region span is tracked on thread 0; it ends when
        // thread 0 leaves the region body (the implicit barrier that
        // follows is accounted as stall, not region time).
        if hook == Some(RetHook::Spmd) && hw == 0 {
            self.obs.on_region_close(now);
        }
        match hook {
            None => {}
            Some(RetHook::Serialized) => {
                self.team.threads[hw as usize].ctx.pop();
            }
            Some(RetHook::Spmd) => {
                self.team.threads[hw as usize].ctx.pop();
                // Implicit barrier at the end of an SPMD parallel region.
                self.enter_barrier(hw, true)?;
            }
            Some(RetHook::Generic) => {
                // Main thread finished its share; wait for workers.
                self.team.threads[hw as usize].ctx.pop();
                if self.team.outstanding > 0 {
                    self.team.threads[hw as usize].status = Status::WaitJoin;
                } else {
                    self.finish_join();
                }
            }
        }
        Ok(())
    }

    fn finish_join(&mut self) {
        // The end-of-region join is a synchronization edge: later
        // accesses cannot race with accesses before it.
        self.obs.on_team_sync();
        // Align the main thread with the slowest participant.
        let max = self
            .team
            .threads
            .iter()
            .map(|t| t.cycles)
            .max()
            .unwrap_or(0);
        let new = self.align_cycles(0, max + self.cost.barrier);
        let main = &mut self.team.threads[0];
        if main.status == Status::WaitJoin {
            main.status = Status::Ready;
        }
        self.team.dispatch_n = 0;
        self.obs.on_region_close(new);
    }

    fn enter_barrier(&mut self, hw: u32, simple: bool) -> Result<(), SimError> {
        // Determine the barrier group.
        let group = self.barrier_group(hw, simple);
        if group.len() <= 1 {
            self.charge(hw, self.cost.barrier, CycleClass::Sync);
            return Ok(());
        }
        let site = self.team.threads[hw as usize]
            .frames
            .last()
            .map(|f| (Self::frame_site(f), simple));
        self.obs.on_barrier_park(hw, site);
        self.team.threads[hw as usize].status = Status::AtBarrier(simple);
        // Release when every member has arrived.
        let all_arrived = group
            .clone()
            .all(|t| matches!(self.team.threads[t as usize].status, Status::AtBarrier(_)));
        if all_arrived {
            let max = group
                .clone()
                .map(|t| self.team.threads[t as usize].cycles)
                .max()
                .unwrap_or(0);
            let release = max + self.cost.barrier;
            for t in group.clone() {
                self.align_cycles(t, release);
                self.team.threads[t as usize].status = Status::Ready;
            }
            self.obs.on_barrier_release(group, release);
            self.stats.barriers += 1;
        }
        Ok(())
    }

    /// The sanitizer site of a frame's current position.
    fn frame_site(f: &Frame) -> SiteRef {
        SiteRef {
            func: f.func,
            block: f.block.index() as u32,
            inst: f.idx as u32,
        }
    }

    /// The sanitizer site of thread `hw`'s top frame.
    fn current_site(&self, hw: u32) -> SiteRef {
        match self.team.threads[hw as usize].frames.last() {
            Some(f) => Self::frame_site(f),
            None => SiteRef {
                func: FuncId(0),
                block: 0,
                inst: 0,
            },
        }
    }

    /// Every barrier group is a contiguous prefix of the team (or the
    /// arriving thread alone), so it is represented as a range rather
    /// than a materialized list.
    fn barrier_group(&self, hw: u32, simple: bool) -> std::ops::Range<u32> {
        if simple {
            return 0..self.team_size;
        }
        let th = &self.team.threads[hw as usize];
        match th.ctx.last() {
            Some(&(_, n)) if n <= 1 => hw..hw + 1,
            _ => {
                if self.team.mode == ExecMode::Generic && self.team.dispatch_n > 0 {
                    0..self.team.dispatch_n as u32
                } else {
                    0..self.team_size
                }
            }
        }
    }

    /// Accounts one executed load or store: reports it to the
    /// observers (the sanitizer's site is rebuilt from the plan-wide
    /// site index and the frame's block) and returns its cycle cost.
    // One parameter per coalescing-model input; bundling them into a
    // struct would just rename the tuple.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn access<const OBS: bool>(
        &mut self,
        hw: u32,
        func: FuncId,
        frame: &Frame,
        site: u32,
        addr: u64,
        ty: Type,
        class: AccessClass,
        is_write: bool,
    ) -> u64 {
        if OBS {
            let site_base = self.plan.func(func).map_or(0, |fp| fp.site_base);
            let at = SiteRef {
                func,
                block: frame.block.index() as u32,
                inst: site - site_base,
            };
            self.obs.on_access(hw, addr, ty.size(), is_write, class, at);
        }
        self.stats.memory_accesses += 1;
        let cost = self.access_cost::<OBS>(hw, func, site, addr, ty, class);
        if OBS {
            let class = if is_write {
                CycleClass::Store
            } else {
                CycleClass::Load
            };
            self.obs.on_charge(Some(func), class, cost);
        }
        cost
    }

    fn access_cost<const OBS: bool>(
        &mut self,
        hw: u32,
        func: FuncId,
        site: u32,
        addr: u64,
        ty: Type,
        class: AccessClass,
    ) -> u64 {
        match class {
            AccessClass::Local => self.cost.local_access,
            AccessClass::Shared | AccessClass::Global => {
                let coalesced = self.classify(hw, site, addr, ty);
                if OBS && class == AccessClass::Global {
                    self.obs.on_global_access(func, coalesced);
                }
                match (class, coalesced) {
                    (AccessClass::Shared, true) => self.cost.shared_access,
                    (AccessClass::Shared, false) => self.cost.shared_access * BANK_CONFLICT_REPLAYS,
                    (_, true) => {
                        self.stats.coalesced_accesses += 1;
                        self.cost.global_coalesced
                    }
                    (_, false) => {
                        self.stats.uncoalesced_accesses += 1;
                        self.cost.global_uncoalesced
                    }
                }
            }
        }
    }

    /// Streaming coalescing detector: lanes of a warp executing the same
    /// static access site with consecutive addresses are coalesced.
    /// Classification is optimistic and sticks to "uncoalesced" once a
    /// stride mismatch is observed. All state is per-team and densely
    /// indexed by the plan-wide site number, so teams classify
    /// independently of scheduling order.
    fn classify(&mut self, hw: u32, site: u32, addr: u64, ty: Type) -> bool {
        if self.site_class[site as usize] == SITE_UNCOALESCED {
            return false;
        }
        // Only each thread's first visit to a site is compared: a
        // thread's later iterations stride by design and say nothing
        // about cross-lane coalescing.
        let th = &mut self.team.threads[hw as usize];
        let (w, b) = ((site / 64) as usize, site % 64);
        if th.sampled[w] & (1 << b) != 0 {
            return true;
        }
        th.sampled[w] |= 1 << b;
        // Sample the first dynamic occurrence of this site in each warp:
        // lanes with consecutive addresses are coalesced. The result is
        // sticky per site once a stride mismatch is observed.
        let warp = hw / self.cfg.warp_size;
        let lane = hw % self.cfg.warp_size;
        let slot = warp as usize * self.total_sites + site as usize;
        let (plane, paddr) = self.site_samples[slot];
        if plane == NO_SAMPLE {
            self.site_samples[slot] = (lane, addr);
        } else if plane != lane {
            let lane_delta = lane as i64 - plane as i64;
            let addr_delta = addr as i64 - paddr as i64;
            let expected = lane_delta * ty.size() as i64;
            // Accesses within a couple of cache lines of the ideal
            // position still coalesce into few memory transactions on
            // real hardware; only genuinely scattered patterns pay the
            // full penalty.
            const WINDOW: i64 = 128;
            if addr_delta != 0 && (addr_delta - expected).abs() > WINDOW {
                self.site_class[site as usize] = SITE_UNCOALESCED;
                return false;
            }
        }
        if self.site_class[site as usize] == SITE_UNKNOWN {
            self.site_class[site as usize] = SITE_COALESCED;
        }
        true
    }

    fn exec_call(&mut self, hw: u32, call: &Call) -> Result<(), SimError> {
        let (dst, args) = (call.dst, call.args.as_slice());
        // Direct call sites were resolved at plan build; indirect ones
        // decode the runtime pointer and look up the callee's nature.
        let (target, indirect) = match call.target {
            CallTarget::Indirect(callee) => {
                let f = self.team.threads[hw as usize].frames.last().unwrap();
                let p = Self::slot_val(f, callee)?
                    .as_ptr()
                    .ok_or_else(|| SimError::trap("indirect call on non-pointer"))?;
                let fid = match mem::decode(p) {
                    Some(mem::Space::Func { index }) => FuncId(index),
                    _ => {
                        return Err(SimError::trap(format!(
                            "indirect call through invalid target 0x{p:x}"
                        )))
                    }
                };
                let t = self.plan.nature(fid).ok_or_else(|| {
                    SimError::trap(format!("indirect call through invalid target 0x{p:x}"))
                })?;
                (t, true)
            }
            t => (t, false),
        };
        match target {
            CallTarget::Rtl(rtl) => {
                self.stats.rtl_calls[rtl as usize] += 1;
                let vals = self.call_args(hw, args)?;
                let result = self.exec_rtl(hw, dst, rtl, &vals);
                self.scratch_args = vals;
                result
            }
            CallTarget::Math(kind, f32out) => {
                let vals = self.call_args(hw, args)?;
                let v = exec_math(kind, f32out, &vals)?;
                self.scratch_args = vals;
                let f = self.team.threads[hw as usize].frames.last_mut().unwrap();
                Self::set_reg(f, dst, v);
                f.idx += 1;
                self.charge(hw, self.cost.math_fn, CycleClass::Math);
                Ok(())
            }
            CallTarget::Extern(fid) => Err(SimError::trap(format!(
                "call to unresolved external function @{}",
                self.module.func(fid).name
            ))),
            CallTarget::Direct(target) => {
                let plan = self.plan;
                let tplan = plan.func(target).expect("direct target is defined");
                // Ordinary call: push a (recycled) frame.
                let team_id = self.team.id;
                let th = &mut self.team.threads[hw as usize];
                let sp = th.local_sp;
                let mut fr = make_frame(&mut th.pool, tplan, target, team_id, sp, Some(dst), None);
                let f = th.frames.last().unwrap();
                // Every argument is evaluated; one the callee never
                // reads has no slot to land in.
                let slots = &mut fr.regs[tplan.args()];
                for (k, &a) in args.iter().enumerate() {
                    let v = Self::slot_val(f, a)?;
                    if let Some(r) = slots.get_mut(k) {
                        *r = Some(v);
                    }
                }
                th.frames.last_mut().unwrap().idx += 1;
                let now = th.cycles;
                th.frames.push(fr);
                self.obs.on_push(hw, target, now);
                let mut cost = self.cost.call;
                if indirect {
                    cost += self.cost.indirect_call_penalty;
                    self.stats.indirect_calls += 1;
                }
                self.charge(hw, cost, CycleClass::Call);
                Ok(())
            }
            CallTarget::Indirect(_) => unreachable!("indirect targets resolve to a nature"),
        }
    }

    /// Evaluates a call's arguments into the reusable scratch vector,
    /// which the caller hands back to `scratch_args` (a trap abandons
    /// it, which only matters on already-fatal paths).
    fn call_args(&mut self, hw: u32, args: &[Slot]) -> Result<Vec<RtVal>, SimError> {
        let mut vals = std::mem::take(&mut self.scratch_args);
        vals.clear();
        let f = self.team.threads[hw as usize].frames.last().unwrap();
        for &a in args {
            vals.push(Self::slot_val(f, a)?);
        }
        Ok(vals)
    }

    fn exec_rtl(
        &mut self,
        hw: u32,
        inst_id: InstId,
        rtl: RtlFn,
        vals: &[RtVal],
    ) -> Result<(), SimError> {
        let base_cost = self.cost.rtl_cost(rtl);
        // Helper to finish a non-blocking call.
        macro_rules! done {
            ($v:expr) => {{
                let f = self.team.threads[hw as usize].frames.last_mut().unwrap();
                if let Some(v) = $v {
                    Self::set_reg(f, inst_id, v);
                }
                f.idx += 1;
                self.charge(hw, base_cost, CycleClass::Rtl(rtl));
                return Ok(());
            }};
        }
        match rtl {
            RtlFn::TargetInit => {
                let mode = rtl_arg(vals, 0, rtl)?.as_i64().unwrap_or(1);
                let spmd = mode == MODE_SPMD;
                self.team.mode = if spmd {
                    ExecMode::Spmd
                } else {
                    ExecMode::Generic
                };
                let team_size = self.team_size;
                let th = &mut self.team.threads[hw as usize];
                let ret = if spmd {
                    th.ctx = vec![(hw as i32, team_size as i32)];
                    -1
                } else if hw == 0 {
                    th.ctx = vec![(0, 1)];
                    -1
                } else {
                    // Workers also sit at level 0 until dispatched; the
                    // base context makes nested regions inside a
                    // dispatched region (depth 2) serialize correctly.
                    th.ctx = vec![(0, 1)];
                    hw as i32
                };
                let cost = if spmd {
                    self.cost.target_init_spmd
                } else {
                    self.cost.target_init_generic
                };
                let f = self.team.threads[hw as usize].frames.last_mut().unwrap();
                Self::set_reg(f, inst_id, RtVal::I32(ret));
                f.idx += 1;
                self.charge(hw, cost, CycleClass::Rtl(rtl));
                Ok(())
            }
            RtlFn::TargetDeinit => {
                if self.team.mode == ExecMode::Generic && hw == 0 && !self.team.terminated {
                    self.team.terminated = true;
                    // Release all waiting workers with a null token.
                    let main_cycles = self.team.threads[0].cycles;
                    for t in 1..self.team_size {
                        let th = &mut self.team.threads[t as usize];
                        if th.status == Status::WaitWork {
                            th.resume = Some(RtVal::Ptr(0));
                            th.status = Status::Ready;
                            self.align_cycles(t, main_cycles);
                        }
                    }
                    // Kernel teardown orders everything before it.
                    self.obs.on_team_sync();
                }
                done!(None::<RtVal>)
            }
            RtlFn::KernelParallel => {
                let dispatch_n = self.team.dispatch_n;
                let th = &mut self.team.threads[hw as usize];
                if let Some(v) = th.resume.take() {
                    // Released: either a work token or null (terminate).
                    if v != RtVal::Ptr(0) {
                        th.ctx.push((hw as i32, dispatch_n));
                    }
                    let f = th.frames.last_mut().unwrap();
                    Self::set_reg(f, inst_id, v);
                    f.idx += 1;
                    self.charge(hw, self.cost.worker_wakeup, CycleClass::Rtl(rtl));
                    return Ok(());
                }
                if let Some(pos) = self.team.assigned.iter().position(|&a| a == hw) {
                    self.team.assigned.remove(pos);
                    let tok = self.team.work_token;
                    let th = &mut self.team.threads[hw as usize];
                    th.ctx.push((hw as i32, dispatch_n));
                    let f = th.frames.last_mut().unwrap();
                    Self::set_reg(f, inst_id, tok);
                    f.idx += 1;
                    self.charge(hw, self.cost.worker_wakeup, CycleClass::Rtl(rtl));
                    return Ok(());
                }
                if self.team.terminated {
                    done!(Some(RtVal::Ptr(0)));
                }
                self.team.threads[hw as usize].status = Status::WaitWork;
                Ok(())
            }
            RtlFn::KernelEndParallel => {
                let th = &mut self.team.threads[hw as usize];
                th.ctx.pop();
                self.team.outstanding = self.team.outstanding.saturating_sub(1);
                if self.team.outstanding == 0 && self.team.threads[0].status == Status::WaitJoin {
                    self.finish_join();
                }
                done!(None::<RtVal>)
            }
            RtlFn::GetParallelArgs => {
                let a = self.team.work_args;
                done!(Some(RtVal::Ptr(a)))
            }
            RtlFn::Parallel51 => self.exec_parallel51(hw, inst_id, vals),
            RtlFn::AllocShared => {
                let size = rtl_arg(vals, 0, rtl)?.as_i64().unwrap_or(0).max(0) as u64;
                let addr = self.globalize(hw, size)?;
                done!(Some(RtVal::Ptr(addr)))
            }
            RtlFn::FreeShared => {
                let addr = rtl_arg(vals, 0, rtl)?.as_ptr().unwrap_or(0);
                let size = rtl_arg(vals, 1, rtl)?.as_i64().unwrap_or(0).max(0) as u64;
                if addr != 0 {
                    self.mem.free_shared(addr, size)?;
                    self.obs.on_free(addr, size);
                }
                done!(None::<RtVal>)
            }
            RtlFn::DataSharingPushStack => {
                let size = rtl_arg(vals, 0, rtl)?.as_i64().unwrap_or(0).max(0) as u64;
                let addr = self.globalize(hw, size)?;
                self.team.push_sizes.insert(addr, size);
                done!(Some(RtVal::Ptr(addr)))
            }
            RtlFn::DataSharingPopStack => {
                let addr = rtl_arg(vals, 0, rtl)?.as_ptr().unwrap_or(0);
                if let Some(size) = self.team.push_sizes.remove(&addr) {
                    self.mem.free_shared(addr, size)?;
                    self.obs.on_free(addr, size);
                }
                done!(None::<RtVal>)
            }
            RtlFn::IsSpmdExecMode => {
                let v = self.team.mode == ExecMode::Spmd;
                done!(Some(RtVal::Bool(v)))
            }
            RtlFn::ParallelLevel => {
                let lvl = self.team.threads[hw as usize].ctx.len().saturating_sub(1) as i32;
                done!(Some(RtVal::I32(lvl)))
            }
            RtlFn::IsGenericMainThread => {
                let v = self.team.mode == ExecMode::Generic && hw == 0;
                done!(Some(RtVal::Bool(v)))
            }
            RtlFn::InActiveParallel => {
                let th = &self.team.threads[hw as usize];
                let v = th.ctx.len() >= 2 && th.ctx.last().is_some_and(|&(_, n)| n > 1);
                done!(Some(RtVal::Bool(v)))
            }
            RtlFn::Barrier => {
                let f = self.team.threads[hw as usize].frames.last_mut().unwrap();
                f.idx += 1;
                self.enter_barrier(hw, false)?;
                Ok(())
            }
            RtlFn::BarrierSimpleSpmd => {
                let f = self.team.threads[hw as usize].frames.last_mut().unwrap();
                f.idx += 1;
                self.enter_barrier(hw, true)?;
                Ok(())
            }
            RtlFn::StaticChunkLb | RtlFn::StaticChunkUb => {
                let n = rtl_arg(vals, 0, rtl)?.as_i64().unwrap_or(0).max(0);
                let (tid, nt) = *self.team.threads[hw as usize].ctx.last().unwrap_or(&(0, 1));
                let nt = nt.max(1) as i64;
                let tid = tid as i64;
                let chunk = (n + nt - 1) / nt;
                let lb = (tid * chunk).min(n);
                let ub = (lb + chunk).min(n);
                let v = if rtl == RtlFn::StaticChunkLb { lb } else { ub };
                done!(Some(RtVal::I64(v)))
            }
            RtlFn::DistributeChunkLb | RtlFn::DistributeChunkUb => {
                let n = rtl_arg(vals, 0, rtl)?.as_i64().unwrap_or(0).max(0);
                let teams = self.num_teams.max(1) as i64;
                let t = self.team.id as i64;
                let chunk = (n + teams - 1) / teams;
                let lb = (t * chunk).min(n);
                let ub = (lb + chunk).min(n);
                let v = if rtl == RtlFn::DistributeChunkLb {
                    lb
                } else {
                    ub
                };
                done!(Some(RtVal::I64(v)))
            }
            RtlFn::ThreadNum => {
                let (tid, _) = *self.team.threads[hw as usize].ctx.last().unwrap_or(&(0, 1));
                done!(Some(RtVal::I32(tid)))
            }
            RtlFn::NumThreads => {
                let (_, n) = *self.team.threads[hw as usize].ctx.last().unwrap_or(&(0, 1));
                done!(Some(RtVal::I32(n)))
            }
            RtlFn::TeamNum => done!(Some(RtVal::I32(self.team.id as i32))),
            RtlFn::NumTeams => done!(Some(RtVal::I32(self.num_teams as i32))),
            RtlFn::WarpSize => done!(Some(RtVal::I32(self.cfg.warp_size as i32))),
            RtlFn::WarpId => done!(Some(RtVal::I32((hw / self.cfg.warp_size) as i32))),
            RtlFn::LaneId => done!(Some(RtVal::I32((hw % self.cfg.warp_size) as i32))),
        }
    }

    /// A globalization allocation (`__kmpc_alloc_shared` or the legacy
    /// push-stack) by thread `hw`, which then yields to the scheduler.
    fn globalize(&mut self, hw: u32, size: u64) -> Result<u64, SimError> {
        let addr = self.mem.alloc_shared(size)?;
        let now = self.team.threads[hw as usize].cycles;
        self.obs
            .on_alloc(addr, size, hw, self.current_site(hw), now);
        self.stats.globalization_allocs += 1;
        self.yield_flag = true;
        Ok(addr)
    }

    fn exec_parallel51(
        &mut self,
        hw: u32,
        inst_id: InstId,
        vals: &[RtVal],
    ) -> Result<(), SimError> {
        let token = rtl_arg(vals, 0, RtlFn::Parallel51)?;
        let nthreads = rtl_arg(vals, 1, RtlFn::Parallel51)?.as_i64().unwrap_or(-1) as i32;
        let args_ptr = rtl_arg(vals, 2, RtlFn::Parallel51)?.as_ptr().unwrap_or(0);
        // Resolve the region function from the token: either a function
        // address, or a small integer id installed by the custom
        // state-machine rewrite.
        let region = match token.as_ptr().and_then(mem::decode) {
            Some(mem::Space::Func { index }) => FuncId(index),
            _ => match token
                .as_ptr()
                .and_then(|p| self.module.region_for_id(p as i64))
            {
                Some(f) => f,
                None => return Err(SimError::trap("parallel_51 with unresolvable region token")),
            },
        };
        if region.index() >= self.module.num_functions() {
            return Err(SimError::trap("parallel_51 with unresolvable region token"));
        }
        let plan = self.plan;
        let Some(rplan) = plan.func(region) else {
            return Err(SimError::trap("parallel region is a declaration"));
        };
        let team_id = self.team.id;
        let depth = self.team.threads[hw as usize].ctx.len();
        // A region body gets one argument, the shared-arguments pointer.
        let push_region_frame = |th: &mut Thread, hook: RetHook, arg: RtVal| {
            th.frames.last_mut().unwrap().idx += 1;
            let sp = th.local_sp;
            let mut fr = make_frame(
                &mut th.pool,
                rplan,
                region,
                team_id,
                sp,
                Some(inst_id),
                Some(hook),
            );
            if let Some(r) = fr.regs[rplan.args()].first_mut() {
                *r = Some(arg);
            }
            th.frames.push(fr);
        };
        if depth >= 2 {
            // Nested parallelism is serialized onto the caller.
            let th = &mut self.team.threads[hw as usize];
            th.ctx.push((0, 1));
            let now = th.cycles;
            push_region_frame(th, RetHook::Serialized, RtVal::Ptr(args_ptr));
            self.obs.on_push(hw, region, now);
            self.charge(hw, self.cost.call, CycleClass::Call);
            return Ok(());
        }
        match self.team.mode {
            ExecMode::Spmd => {
                let team_size = self.team_size;
                let th = &mut self.team.threads[hw as usize];
                let (tid, n) = *th.ctx.last().unwrap_or(&(hw as i32, team_size as i32));
                th.ctx.push((tid, n));
                let now = th.cycles;
                push_region_frame(th, RetHook::Spmd, RtVal::Ptr(args_ptr));
                self.obs.on_push(hw, region, now);
                self.charge(
                    hw,
                    self.cost.parallel_dispatch_spmd,
                    CycleClass::Rtl(RtlFn::Parallel51),
                );
                // The team-level span is tracked on thread 0: all SPMD
                // threads enter the region together.
                if hw == 0 {
                    let start = self.team.threads[0].cycles;
                    self.obs.on_region_open(region, start);
                }
                Ok(())
            }
            ExecMode::Generic => {
                if hw != 0 {
                    return Err(SimError::trap(
                        "generic-mode parallel dispatch from a worker",
                    ));
                }
                let n = if nthreads <= 0 {
                    self.team_size as i32
                } else {
                    nthreads.min(self.team_size as i32)
                };
                self.team.work_token = token;
                self.team.work_args = args_ptr;
                self.team.dispatch_n = n;
                self.team.outstanding = (n - 1).max(0) as u32;
                self.team.assigned.clear();
                // Dispatch is a synchronization edge between the main
                // thread's setup and the workers' region bodies.
                self.obs.on_team_sync();
                let main_cycles = self.team.threads[0].cycles + self.cost.parallel_dispatch_generic;
                for w in 1..n as u32 {
                    let th = &mut self.team.threads[w as usize];
                    if th.status == Status::WaitWork {
                        th.resume = Some(token);
                        th.status = Status::Ready;
                        self.align_cycles(w, main_cycles);
                    } else {
                        self.team.assigned.push(w);
                    }
                }
                let th = &mut self.team.threads[hw as usize];
                th.ctx.push((0, n));
                let now = th.cycles;
                push_region_frame(th, RetHook::Generic, RtVal::Ptr(args_ptr));
                self.obs.on_push(hw, region, now);
                self.charge(
                    hw,
                    self.cost.parallel_dispatch_generic,
                    CycleClass::Rtl(RtlFn::Parallel51),
                );
                self.stats.parallel_regions += 1;
                // The span runs from dispatch to the end-of-region join
                // (closed in `finish_join`).
                let start = self.team.threads[hw as usize].cycles;
                self.obs.on_region_open(region, start);
                Ok(())
            }
        }
    }
}

/// Checked access into a runtime call's evaluated arguments: a
/// malformed module calling an RTL function with too few arguments is
/// a trap diagnostic, not an index panic.
fn rtl_arg(vals: &[RtVal], i: usize, rtl: RtlFn) -> Result<RtVal, SimError> {
    vals.get(i)
        .copied()
        .ok_or_else(|| SimError::trap(format!("{} called with too few arguments", rtl.name())))
}

/// Outlined trap constructor for [`TeamExec::slot_val`]: keeping the
/// `format!` machinery out of line is what lets the hot accessor
/// inline into the step loops. Constants and globals are never empty,
/// so an empty slot is a register never written or, past `num_regs`,
/// an argument the frame was not given.
#[cold]
#[inline(never)]
fn empty_slot_trap(num_regs: u32, s: Slot) -> SimError {
    if s.0 < num_regs {
        SimError::trap(format!("use of undefined value {}", InstId(s.0)))
    } else {
        SimError::trap(format!("missing argument {}", s.0 - num_regs))
    }
}

/// Outlined constructor of the scalar ops' fixed-text traps, so the
/// ops inline into [`TeamExec::exec_step`] without their error paths.
#[cold]
#[inline(never)]
fn op_trap(msg: &'static str) -> SimError {
    SimError::trap(msg)
}

/// Outlined constructor of a scalar op's trap: a comparison or cast
/// is total, so its only error names a mistyped operand.
#[cold]
#[inline(never)]
fn scalar_trap(e: ScalarError) -> SimError {
    match e {
        ScalarError::Mistyped(msg) => SimError::trap(msg),
        ScalarError::Undefined => unreachable!("only an integer bin op is undefined"),
    }
}

/// [`scalar_trap`] for a binary op, whose undefined case (division by
/// zero, an over-wide shift) names the op and its operands.
#[cold]
#[inline(never)]
fn bin_trap(e: ScalarError, op: BinOp, a: RtVal, b: RtVal) -> SimError {
    match (e, a.as_i64(), b.as_i64()) {
        (ScalarError::Undefined, Some(x), Some(y)) => {
            SimError::trap(format!("undefined integer operation {op:?} ({x}, {y})"))
        }
        _ => scalar_trap(e),
    }
}

/// Math intrinsics, dispatched on the plan-resolved [`MathKind`] —
/// no name strings in the hot path.
fn exec_math(kind: MathKind, f32out: bool, args: &[RtVal]) -> Result<RtVal, SimError> {
    let x = args
        .first()
        .and_then(|v| v.as_f64())
        .ok_or_else(|| SimError::trap(format!("bad argument to math fn {kind:?}")))?;
    let y = args.get(1).and_then(|v| v.as_f64()).unwrap_or(0.0);
    let r = match kind {
        MathKind::Sqrt => x.sqrt(),
        MathKind::Exp => x.exp(),
        MathKind::Log => x.ln(),
        MathKind::Sin => x.sin(),
        MathKind::Cos => x.cos(),
        MathKind::Fabs => x.abs(),
        MathKind::Pow => x.powf(y),
        MathKind::Fmin => x.min(y),
        MathKind::Fmax => x.max(y),
        MathKind::Floor => x.floor(),
    };
    Ok(if f32out {
        RtVal::F32(r as f32)
    } else {
        RtVal::F64(r)
    })
}

#[cfg(test)]
mod tests {
    //! The simulator evaluates scalar ops through `omp_ir::scalar`, but
    //! reaches it its own way: through lowered steps (fused
    //! `LoadBinStore` and compare-and-branch on the compiled tier, one
    //! entry at a time on the interpreter tier), memory and trap
    //! mapping. These sweeps launch one kernel per row of omp-ir's
    //! `tests/golden/scalar_ops.txt` on both tiers and check every cell
    //! bit for bit: the simulator leaves the table's value — the
    //! folder's constant wherever the folder folds, as the table's own
    //! test asserts — and an `undef` cell traps.
    use crate::config::{DeviceConfig, Tier};
    use crate::launch::{Device, LaunchDims};
    use omp_ir::{
        BinOp, Builder, CastOp, CmpOp, ExecMode, Function, KernelInfo, Module, RtVal, Type, Value,
    };
    use std::collections::HashMap;

    const TIERS: [Tier; 2] = [Tier::Interp, Tier::Compiled];
    const TABLE: &str = include_str!("../../ir/tests/golden/scalar_ops.txt");

    /// The table's rows of `kind` (`edges TY`, `bin OP TY A`, `cmp OP
    /// TY A` or `cast OP FROM TO`), as head words and cells.
    fn rows(kind: &str) -> impl Iterator<Item = (Vec<&'static str>, Vec<&'static str>)> + '_ {
        TABLE
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(move |l| {
                let (head, cells) = l.split_once(": ").expect("a table row");
                let head: Vec<&str> = head.split(' ').collect();
                (head[0] == kind).then(|| (head, cells.split(' ').collect()))
            })
    }

    fn ty(name: &str) -> Type {
        [
            Type::I1,
            Type::I32,
            Type::I64,
            Type::Ptr,
            Type::F32,
            Type::F64,
        ]
        .into_iter()
        .find(|t| t.to_string() == name)
        .unwrap_or_else(|| panic!("no scalar type {name}"))
    }

    /// A cell's raw bits (its `*` mark dropped), or `None` for `undef`.
    fn expect(cell: &str) -> Option<u64> {
        let hex = cell.trim_end_matches('*');
        (hex != "undef").then(|| u64::from_str_radix(hex, 16).expect("a hex cell"))
    }

    /// The `ty` value with the raw bits of `cell`.
    fn val(ty: Type, cell: &str) -> RtVal {
        RtVal::from_bytes(ty, &expect(cell).unwrap().to_le_bytes())
    }

    /// The edge values of each type, in the table's order.
    fn edges() -> HashMap<Type, Vec<RtVal>> {
        rows("edges")
            .map(|(head, cells)| {
                let t = ty(head[1]);
                (t, cells.iter().map(|c| val(t, c)).collect())
            })
            .collect()
    }

    /// Adds a one-thread SPMD kernel `name(out: ptr, params...)` whose
    /// body `body` emits.
    fn kernel(
        m: &mut Module,
        name: &str,
        params: &[Type],
        body: impl FnOnce(&mut Builder<'_>, Value),
    ) {
        let mut tys = vec![Type::Ptr];
        tys.extend_from_slice(params);
        let f = m.add_function(Function::definition(name, tys, Type::Void));
        let mut b = Builder::at_entry(m, f);
        body(&mut b, Value::Arg(0));
        m.kernels.push(KernelInfo {
            func: f,
            exec_mode: ExecMode::Spmd,
            num_teams: Some(1),
            thread_limit: Some(1),
            source_name: name.into(),
            launch: Default::default(),
        });
    }

    /// One single-threaded device per tier, each with an 8-byte `out`
    /// buffer.
    fn devices(m: &Module) -> Vec<(Tier, Device<'_>, u64)> {
        omp_ir::verifier::assert_valid(m);
        TIERS
            .into_iter()
            .map(|tier| {
                let mut dev = Device::new(m, DeviceConfig::default()).unwrap();
                dev.set_jobs(1);
                dev.set_tier(tier);
                let out = dev.alloc_i64(&[0]).unwrap();
                (tier, dev, out)
            })
            .collect()
    }

    /// Launches `name` on one thread and reads back the raw bits of
    /// the `ty` it left in `out`; `None` when the launch traps.
    fn run(dev: &mut Device<'_>, out: u64, name: &str, args: &[RtVal], ty: Type) -> Option<u64> {
        let mut all = vec![RtVal::Ptr(out)];
        all.extend_from_slice(args);
        let dims = LaunchDims {
            teams: Some(1),
            threads: Some(1),
        };
        dev.launch(name, &all, dims).ok()?;
        let bytes = dev.mem.read_bytes(out, ty.size() as usize).unwrap();
        let mut raw = [0u8; 8];
        raw[..bytes.len()].copy_from_slice(&bytes);
        Some(u64::from_le_bytes(raw))
    }

    /// A kernel, its arguments, its result type and the table's cell.
    type Case = (String, Vec<RtVal>, Type, &'static str);

    /// Launches every case on both tiers and checks the result against
    /// its cell; returns the cells checked.
    fn sweep(m: &Module, cases: &[Case]) -> usize {
        for (tier, mut dev, out) in devices(m) {
            for (name, args, ty, cell) in cases {
                let sim = run(&mut dev, out, name, args, *ty);
                assert_eq!(sim, expect(cell), "{tier:?}: {name} {args:?}");
            }
        }
        cases.len()
    }

    #[test]
    fn bin_and_cmp_agree_with_the_folder() {
        // `bin`: the left operand goes through memory so that the
        // compiled tier runs the op fused as load + bin + store.
        // `cmp`: the compare feeds a branch, fused on the compiled tier.
        let (edges, mut m) = (edges(), Module::new("scalar_bin_cmp"));
        let mut cases: Vec<Case> = Vec::new();
        for kind in ["bin", "cmp"] {
            for (head, cells) in rows(kind) {
                let t = ty(head[2]);
                let name = format!("{kind}_{}_{t}", head[1]);
                if cases.last().is_none_or(|(last, ..)| *last != name) {
                    if kind == "bin" {
                        let op = BinOp::from_mnemonic(head[1]).unwrap();
                        kernel(&mut m, &name, &[t, t], |b, out| {
                            b.store(Value::Arg(1), out);
                            let x = b.load(t, out);
                            let r = b.bin(op, t, x, Value::Arg(2));
                            b.store(r, out);
                            b.ret(None);
                        });
                    } else {
                        let op = CmpOp::from_mnemonic(head[1]).unwrap();
                        kernel(&mut m, &name, &[t, t], |b, out| {
                            let (yes, no) = (b.new_block(), b.new_block());
                            let c = b.cmp(op, t, Value::Arg(1), Value::Arg(2));
                            b.cond_br(c, yes, no);
                            for (block, v) in [(yes, true), (no, false)] {
                                b.switch_to(block);
                                b.store(Value::ConstInt(v as i64, Type::I1), out);
                                b.ret(None);
                            }
                        });
                    }
                }
                let result = if kind == "bin" { t } else { Type::I1 };
                let a = val(t, head[3]);
                assert_eq!(cells.len(), edges[&t].len(), "{head:?}");
                for (&b, cell) in edges[&t].iter().zip(cells) {
                    cases.push((name.clone(), vec![a, b], result, cell));
                }
            }
        }
        assert!(sweep(&m, &cases) > 8_000, "the table lost rows");
    }

    #[test]
    fn casts_agree_with_the_folder() {
        let (edges, mut m) = (edges(), Module::new("scalar_casts"));
        let mut cases: Vec<Case> = Vec::new();
        for (head, cells) in rows("cast") {
            let op = CastOp::from_mnemonic(head[1]).unwrap();
            let (from, to) = (ty(head[2]), ty(head[3]));
            let name = format!("cast_{op}_{from}_{to}");
            kernel(&mut m, &name, &[from], |b, out| {
                let r = b.cast(op, Value::Arg(1), to);
                b.store(r, out);
                b.ret(None);
            });
            assert_eq!(cells.len(), edges[&from].len(), "{head:?}");
            for (&a, cell) in edges[&from].iter().zip(cells) {
                cases.push((name.clone(), vec![a], to, cell));
            }
        }
        assert!(sweep(&m, &cases) > 200, "the table lost rows");
    }
}
