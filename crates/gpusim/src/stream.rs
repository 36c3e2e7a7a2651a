//! Host-side streams, events, and task-graph capture-and-replay.
//!
//! A host function with several `target` regions lowers to a *launch
//! plan*: every kernel sharing one `source_name`, in module order, each
//! carrying its [`omp_ir::LaunchAttrs`] (`nowait`, `depend`,
//! `taskwait`, `taskgraph` membership). This module resolves a plan
//! into explicit dependency edges, assigns nodes to streams, and
//! executes them — eagerly ([`Device::launch_plan`]) or through
//! capture-and-replay ([`Device::capture_graph`] /
//! [`Device::replay_graph`]), the simulator's analogue of CUDA Graphs.
//!
//! **Determinism invariant.** Plan nodes always *execute* sequentially
//! in submission order: node `j` sees the global-memory writes of every
//! node `i < j`, exactly as if each were a separate [`Device::launch`].
//! Stream overlap is modelled only in the *cycle makespan*, via a
//! deterministic list schedule over the device's SMs (no host timing,
//! no seeds). Outputs, statistics, cycles, profiles, and sanitizer
//! findings are therefore bit-identical across `--jobs`, execution
//! tiers, and eager-vs-replay execution.
//!
//! **One executor.** Single launches, eager plans and replays all run
//! through one executor (`Device::run_nodes`): the calling thread is
//! worker 0, up to `jobs - 1` scoped workers join it for the whole
//! plan, and one rendezvous per node commits that node in team-id
//! order.
//!
//! **What a replay skips.** Resolution only. Capture resolves the plan
//! once — kernel lookup, argument validation and marshalling, geometry
//! resolution, edge derivation, stream assignment, and register
//! estimation — and a replay goes straight to the executor an eager
//! launch also uses.

use crate::error::SimError;
use crate::interp::{TeamExec, TeamOutcome};
use crate::launch::{Device, LaunchDims};
use crate::mem::{Memory, PAGE_BYTES};
use crate::profile::{LaunchProfile, ProfileMode, StreamSpan, TeamProfile};
use crate::sanitize::{Finding, FindingKind, SanitizeMode, Severity};
use crate::stats::KernelStats;
use omp_ir::{ExecMode, FuncId, LaunchAttrs, RtVal};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

/// One resolved launch node of a host plan: kernel, geometry, and
/// dependency edges, pre-resolved so eager launches and graph replays
/// feed the exact same inputs to the team executor.
#[derive(Debug, Clone)]
pub struct PlanNode {
    pub(crate) kfunc: FuncId,
    /// Device function name (diagnostics, profiler stream spans).
    pub(crate) label: String,
    pub(crate) teams: u32,
    pub(crate) threads: u32,
    pub(crate) mode: ExecMode,
    /// Indices of earlier nodes this node waits for (sorted, deduped).
    pub(crate) deps: Vec<usize>,
    /// Deterministically assigned stream (greedy reuse: a node joins
    /// the lowest stream whose latest node it depends on).
    pub(crate) stream: u32,
}

impl PlanNode {
    /// Device function name of the node's kernel.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Stream the node was assigned to.
    pub fn stream(&self) -> u32 {
        self.stream
    }

    /// Indices of the nodes this node waits for.
    pub fn deps(&self) -> &[usize] {
        &self.deps
    }
}

/// A resolved host launch plan: every kernel sharing one `source_name`
/// in module order, with derived dependency edges and stream
/// assignments.
#[derive(Debug, Clone)]
pub struct LaunchPlan {
    pub(crate) name: String,
    pub(crate) nodes: Vec<PlanNode>,
}

impl LaunchPlan {
    /// Source-level name the plan was resolved from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The resolved launch nodes, in submission order.
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// Number of launch nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct streams the nodes were assigned to.
    pub fn num_streams(&self) -> u32 {
        self.nodes.iter().map(|n| n.stream + 1).max().unwrap_or(0)
    }
}

/// A captured task graph: the resolved plan plus pre-marshalled launch
/// arguments. Replaying one skips resolution — kernel lookup,
/// validation, geometry/edge/stream resolution, register estimation —
/// and runs the same executor as an eager [`Device::launch_plan`].
#[derive(Debug, Clone)]
pub struct CapturedGraph {
    pub(crate) plan: LaunchPlan,
    pub(crate) args: Vec<RtVal>,
}

impl CapturedGraph {
    /// The captured plan.
    pub fn plan(&self) -> &LaunchPlan {
        &self.plan
    }
}

/// Derives dependency edges for nodes with the given launch attributes.
///
/// Node `j` waits for node `i < j` when any of:
/// * a fence sits between them: some node `m` with `i < m <= j` has
///   `taskwait_before` (the host blocked on every outstanding region
///   before submitting `m`);
/// * `i` is synchronous (no `nowait`): the host waited for `i` before
///   submitting anything later;
/// * they are on different sides of a `taskgraph` region boundary (a
///   graph launches as a unit, fenced on entry and exit);
/// * their `depend` clauses conflict on the same parameter (any pairing
///   other than in/in).
fn derive_edges(attrs: &[&LaunchAttrs]) -> Vec<Vec<usize>> {
    let n = attrs.len();
    let mut edges = Vec::with_capacity(n);
    let mut fence = 0usize; // nodes below this index are behind a fence
    for j in 0..n {
        if attrs[j].wait_before {
            fence = j;
        }
        let mut deps = BTreeSet::new();
        for i in 0..j {
            let conflicting_depend = || {
                attrs[i].depends.iter().any(|&(ki, pi)| {
                    attrs[j]
                        .depends
                        .iter()
                        .any(|&(kj, pj)| pi == pj && ki.conflicts_with(kj))
                })
            };
            if i < fence
                || !attrs[i].nowait
                || attrs[i].graph != attrs[j].graph
                || conflicting_depend()
            {
                deps.insert(i);
            }
        }
        edges.push(deps.into_iter().collect());
    }
    edges
}

/// Assigns each node to a stream: reuse the lowest stream whose latest
/// node is a direct dependency (the node continues that pipeline),
/// otherwise open a new stream. Independent `nowait` launches land on
/// distinct streams; a serial chain stays on one.
fn assign_streams(nodes: &mut [PlanNode]) {
    let mut last_of_stream: Vec<usize> = Vec::new();
    for (j, node) in nodes.iter_mut().enumerate() {
        let chosen = last_of_stream
            .iter()
            .position(|last| node.deps.contains(last));
        let s = match chosen {
            Some(s) => {
                last_of_stream[s] = j;
                s
            }
            None => {
                last_of_stream.push(j);
                last_of_stream.len() - 1
            }
        };
        node.stream = s as u32;
    }
}

/// Deterministic list schedule of the plan's nodes over the device's
/// SMs, for the cycle makespan only (execution is always sequential).
/// Each node occupies `min(teams, num_sms)` SMs — the ones with the
/// earliest free times, tie-broken by SM index — and starts at the
/// later of its dependencies' finishes and its SMs' free times.
/// Returns per-node `(start, end)` spans and the makespan.
fn schedule_nodes(nodes: &[PlanNode], durations: &[u64], num_sms: u32) -> (Vec<(u64, u64)>, u64) {
    let n_sms = (num_sms.max(1)) as usize;
    let mut sm_free = vec![0u64; n_sms];
    let mut spans: Vec<(u64, u64)> = Vec::with_capacity(nodes.len());
    for (j, node) in nodes.iter().enumerate() {
        let width = (node.teams as usize).min(n_sms).max(1);
        let mut order: Vec<usize> = (0..n_sms).collect();
        order.sort_by_key(|&i| (sm_free[i], i));
        let chosen = &order[..width];
        let dep_ready = node.deps.iter().map(|&d| spans[d].1).max().unwrap_or(0);
        let sm_ready = chosen.iter().map(|&i| sm_free[i]).max().unwrap_or(0);
        let start = dep_ready.max(sm_ready);
        let end = start + durations[j];
        for &i in chosen {
            sm_free[i] = end;
        }
        spans.push((start, end));
    }
    let makespan = spans.iter().map(|&(_, e)| e).max().unwrap_or(0);
    (spans, makespan)
}

/// `reach[i][j]`: node `i` is (transitively) ordered before node `j`.
fn reachability(nodes: &[PlanNode]) -> Vec<Vec<bool>> {
    let n = nodes.len();
    let mut reach = vec![vec![false; n]; n];
    for j in 0..n {
        for &d in &nodes[j].deps {
            reach[d][j] = true;
            for row in reach.iter_mut() {
                if row[d] {
                    row[j] = true;
                }
            }
        }
    }
    reach
}

/// Everything one executed node contributes to the plan totals.
pub(crate) struct NodeRun {
    /// Counters merged across the node's teams, with the node's team
    /// cycles, its own duration in `cycles` (SM-packed, the single-launch
    /// rule) and its shared/heap high-water marks.
    pub(crate) stats: KernelStats,
    /// Global pages the node stored to (sanitizer runs only).
    written: BTreeSet<u64>,
    pub(crate) profiles: Vec<TeamProfile>,
    pub(crate) findings: Vec<Finding>,
}

/// Commits one node's team outcomes to device memory in team-id order —
/// the rule that makes every `jobs` setting bit-identical — and gathers
/// them into a [`NodeRun`]. The node's launch state (shared and heap
/// high-water marks) starts fresh here.
fn merge_node(
    mem: &mut Memory,
    num_sms: u32,
    track_writes: bool,
    outcomes: Vec<TeamOutcome>,
) -> NodeRun {
    mem.reset_launch_state();
    let mut stats = KernelStats::default();
    let mut profiles = Vec::new();
    let mut findings = Vec::new();
    let mut written = BTreeSet::new();
    for outcome in outcomes {
        stats.team_cycles.push(outcome.cycles);
        outcome.stats.merge_into(&mut stats);
        if let Some(p) = outcome.profile {
            profiles.push(p);
        }
        findings.extend(outcome.findings);
        if track_writes {
            written.extend(outcome.delta.written_pages());
        }
        mem.apply_delta(outcome.delta);
    }
    stats.finish(num_sms);
    stats.shared_mem_bytes = mem.shared_high_water;
    stats.heap_bytes = mem.heap_high_water;
    NodeRun {
        stats,
        written,
        profiles,
        findings,
    }
}

/// Runs `f`, turning a panic into the structured internal error: a bug
/// in one team run or in a node's merge fails the launch instead of
/// unwinding out of a worker and stranding the others at the
/// [`Phaser`].
fn contain<T>(f: impl FnOnce() -> Result<T, SimError>) -> Result<T, SimError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|_| Err(SimError::trap("internal: team worker thread panicked")))
}

/// A reusable rendezvous for the team executor's workers. All `parties`
/// workers arrive at the end of each node phase; the *last* arrival
/// runs the inter-node work (the node's merge) while the gate is still
/// closed, then releases everyone into the next phase. Each worker
/// therefore sleeps at most once per node — half the wakeups of a
/// two-`Barrier` start/end protocol. With one party the rendezvous is
/// a single atomic add and the seal.
struct Phaser {
    parties: usize,
    /// Arrivals in the current phase; the `parties`-th arrival seals.
    arrived: AtomicUsize,
    /// Phase generation, bumped once per sealed phase.
    gen: AtomicU64,
    /// Parked waiters tagged with the generation they wait on. The
    /// tag matters: a fast worker can register for phase `n+1` while
    /// phase `n`'s sealer is still draining, and consuming that entry
    /// early would strand the worker parked forever.
    waiters: Mutex<Vec<(u64, std::thread::Thread)>>,
}

impl Phaser {
    fn new(parties: usize) -> Self {
        Phaser {
            parties,
            arrived: AtomicUsize::new(0),
            gen: AtomicU64::new(0),
            waiters: Mutex::new(Vec::with_capacity(parties)),
        }
    }

    /// Blocks until all parties arrive; the last arrival runs `seal`
    /// before anyone is released. Waiters sleep via `park` and are
    /// woken by a targeted `unpark` each — no broadcast storm, no
    /// lock reacquisition on wake.
    fn rendezvous(&self, seal: impl FnOnce()) {
        let gen = self.gen.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Every other party is parked (or about to park and will
            // consume a pending unpark token), so `seal` has exclusive
            // use of the shared node state.
            seal();
            self.arrived.store(0, Ordering::Release);
            self.gen.store(gen + 1, Ordering::Release);
            // Wake only this phase's waiters (and garbage-collect any
            // stale earlier-phase entries left by waiters that saw the
            // generation advance before parking); entries registered
            // for later phases must survive for their own sealer.
            let mut ws = self.waiters.lock().unwrap();
            let mut i = 0;
            while i < ws.len() {
                if ws[i].0 <= gen {
                    ws.swap_remove(i).1.unpark();
                } else {
                    i += 1;
                }
            }
        } else {
            self.waiters
                .lock()
                .unwrap()
                .push((gen, std::thread::current()));
            // `unpark` before `park` leaves a token, so this cannot
            // miss a wake that raced the registration above.
            while self.gen.load(Ordering::Acquire) == gen {
                std::thread::park();
            }
        }
    }
}

/// Folds one node into the plan-wide totals: counters summed, team
/// cycles concatenated, shared/heap high-water marks maximised.
fn add_node(dst: &mut KernelStats, src: &KernelStats) {
    dst.team_cycles.extend_from_slice(&src.team_cycles);
    dst.shared_mem_bytes = dst.shared_mem_bytes.max(src.shared_mem_bytes);
    dst.heap_bytes = dst.heap_bytes.max(src.heap_bytes);
    dst.instructions += src.instructions;
    dst.globalization_allocs += src.globalization_allocs;
    dst.barriers += src.barriers;
    dst.indirect_calls += src.indirect_calls;
    dst.parallel_regions += src.parallel_regions;
    dst.memory_accesses += src.memory_accesses;
    dst.coalesced_accesses += src.coalesced_accesses;
    dst.uncoalesced_accesses += src.uncoalesced_accesses;
    dst.fused_gep_load += src.fused_gep_load;
    dst.fused_load_bin_store += src.fused_load_bin_store;
    dst.fused_cmp_br += src.fused_cmp_br;
    dst.plain_steps += src.plain_steps;
    for (name, n) in &src.rtl_calls {
        *dst.rtl_calls.entry(name.clone()).or_insert(0) += n;
    }
}

impl<'m> Device<'m> {
    /// Resolves the host launch plan for `name`: every kernel whose
    /// `source_name` is `name`, in module order (falling back to the
    /// single kernel whose device function is named `name`). Validates
    /// `args` against every node, derives dependency edges from the
    /// kernels' launch attributes, and assigns streams.
    pub fn resolve_plan(
        &self,
        name: &str,
        args: &[RtVal],
        dims: LaunchDims,
    ) -> Result<LaunchPlan, SimError> {
        let _span = omp_telemetry::span_lazy("gpusim", || format!("plan.resolve {name}"));
        let mut kernels: Vec<&omp_ir::KernelInfo> = self
            .module
            .kernels
            .iter()
            .filter(|k| k.source_name == name)
            .collect();
        if kernels.is_empty() {
            if let Some(k) = self
                .module
                .kernels
                .iter()
                .find(|k| self.module.func(k.func).name == name)
            {
                kernels.push(k);
            }
        }
        if kernels.is_empty() {
            return Err(SimError::unknown_kernel(name));
        }
        for k in &kernels {
            self.validate_args(name, k.func, args)?;
        }
        let attrs: Vec<&LaunchAttrs> = kernels.iter().map(|k| &k.launch).collect();
        let edges = derive_edges(&attrs);
        let mut nodes: Vec<PlanNode> = kernels
            .iter()
            .zip(edges)
            .map(|(k, deps)| PlanNode {
                deps,
                ..self.plan_node(k, dims)
            })
            .collect();
        assign_streams(&mut nodes);
        Ok(LaunchPlan {
            name: name.to_string(),
            nodes,
        })
    }

    /// The launch node of kernel `k` with its geometry resolved: `dims`,
    /// else the kernel's clauses, else the device defaults. No edges, on
    /// stream 0.
    pub(crate) fn plan_node(&self, k: &omp_ir::KernelInfo, dims: LaunchDims) -> PlanNode {
        PlanNode {
            kfunc: k.func,
            label: self.module.func(k.func).name.clone(),
            teams: dims
                .teams
                .or(k.num_teams)
                .unwrap_or(self.cfg.default_teams)
                .max(1),
            threads: dims
                .threads
                .or(k.thread_limit)
                .unwrap_or(self.cfg.default_threads)
                .max(1),
            mode: k.exec_mode,
            deps: Vec::new(),
            stream: 0,
        }
    }

    /// Resolves and launches the full plan for `name` and returns the
    /// combined statistics. A one-node plan is exactly
    /// [`Device::launch`].
    pub fn launch_plan(
        &mut self,
        name: &str,
        args: &[RtVal],
        dims: LaunchDims,
    ) -> Result<KernelStats, SimError> {
        self.launch_plan_full(name, args, dims).map(|(s, _, _)| s)
    }

    /// Like [`Device::launch_plan`], but also returns the plan's
    /// profile (with per-stream spans) when profiling is enabled.
    pub fn launch_plan_profiled(
        &mut self,
        name: &str,
        args: &[RtVal],
        dims: LaunchDims,
    ) -> Result<(KernelStats, Option<LaunchProfile>), SimError> {
        self.launch_plan_full(name, args, dims)
            .map(|(s, p, _)| (s, p))
    }

    /// Like [`Device::launch_plan`], but also returns sanitizer
    /// findings — per-team findings in submission/team order, then
    /// cross-kernel race findings on unordered node pairs.
    pub fn launch_plan_checked(
        &mut self,
        name: &str,
        args: &[RtVal],
        dims: LaunchDims,
    ) -> Result<(KernelStats, Vec<Finding>), SimError> {
        self.launch_plan_full(name, args, dims)
            .map(|(s, _, f)| (s, f))
    }

    pub(crate) fn launch_plan_full(
        &mut self,
        name: &str,
        args: &[RtVal],
        dims: LaunchDims,
    ) -> Result<(KernelStats, Option<LaunchProfile>, Vec<Finding>), SimError> {
        let plan = self.resolve_plan(name, args, dims)?;
        if plan.nodes.len() == 1 {
            // Degenerate plan: exactly a single launch, bit for bit.
            return self.launch_full(name, args, dims);
        }
        self.execute_plan(&plan, args, false)
    }

    /// Records the plan for `name` as a replayable task graph: resolves
    /// and validates everything once, marshals the arguments, and warms
    /// the per-kernel register-estimate cache. Capture does not execute
    /// any node.
    pub fn capture_graph(
        &mut self,
        name: &str,
        args: &[RtVal],
        dims: LaunchDims,
    ) -> Result<CapturedGraph, SimError> {
        let _span = omp_telemetry::span_lazy("gpusim", || format!("graph.capture {name}"));
        let plan = self.resolve_plan(name, args, dims)?;
        for node in &plan.nodes {
            self.register_estimate(node.kfunc);
        }
        Ok(CapturedGraph {
            plan,
            args: args.to_vec(),
        })
    }

    /// Replays a captured graph: no lookup, validation, marshalling, or
    /// resolution; the nodes run on the same executor as an eager
    /// launch. Outputs and statistics are bit-identical to the eager
    /// [`Device::launch_plan`] of the same name and arguments.
    pub fn replay_graph(&mut self, graph: &CapturedGraph) -> Result<KernelStats, SimError> {
        self.execute_plan(&graph.plan, &graph.args, true)
            .map(|(s, _, _)| s)
    }

    /// Runs a resolved plan's nodes sequentially in submission order,
    /// then assembles combined statistics: counters summed, team cycles
    /// concatenated, shared/heap high-water maxima, registers the
    /// per-node maximum, and `cycles` the list-schedule makespan.
    /// `replay` only names the span: eager launches and replays run the
    /// same executor and differ only in whether the plan was resolved
    /// again.
    fn execute_plan(
        &mut self,
        plan: &LaunchPlan,
        args: &[RtVal],
        replay: bool,
    ) -> Result<(KernelStats, Option<LaunchProfile>, Vec<Finding>), SimError> {
        let _span = omp_telemetry::span(
            if replay {
                "graph.replay"
            } else {
                "plan.execute"
            },
            "gpusim",
        );
        let track_writes = self.cfg.sanitize != SanitizeMode::Off;
        let num_sms = self.cfg.num_sms;
        let mut registers = 0u32;
        for node in &plan.nodes {
            registers = registers.max(self.register_estimate(node.kfunc));
        }
        let runs = self.run_nodes(&plan.nodes, args, track_writes)?;
        let mut stats = KernelStats::default();
        for run in &runs {
            add_node(&mut stats, &run.stats);
        }
        let durations: Vec<u64> = runs.iter().map(|r| r.stats.cycles).collect();
        let (spans, makespan) = schedule_nodes(&plan.nodes, &durations, num_sms);
        stats.cycles = makespan;
        stats.registers = registers;
        let mut written: Vec<BTreeSet<u64>> = Vec::with_capacity(runs.len());
        let (mut team_profiles, mut findings) = (Vec::new(), Vec::new());
        for run in runs {
            written.push(run.written);
            team_profiles.extend(run.profiles);
            findings.extend(run.findings);
        }
        // Cross-kernel write-write race detection: two nodes with no
        // ordering edge (in either direction, transitively) that both
        // stored to the same global page raced — had the streams truly
        // overlapped, the commit order would be timing-dependent. One
        // finding per unordered conflicting pair, in (i, j) order.
        if track_writes && plan.nodes.len() > 1 {
            let reach = reachability(&plan.nodes);
            for i in 0..plan.nodes.len() {
                for j in i + 1..plan.nodes.len() {
                    if reach[i][j] || reach[j][i] {
                        continue;
                    }
                    if let Some(&page) = written[i].intersection(&written[j]).next() {
                        findings.push(Finding {
                            kind: FindingKind::CrossKernelRace,
                            severity: Severity::Error,
                            function: plan.nodes[j].label.clone(),
                            block: 0,
                            inst: 0,
                            team: 0,
                            thread: 0,
                            epoch: 0,
                            message: format!(
                                "kernels `{}` (node {i}) and `{}` (node {j}) of plan \
                                 `{}` both write global bytes [0x{:x}, 0x{:x}) with no \
                                 ordering edge (`depend`/`taskwait`) between them \
                                 (page-granular, write-write only)",
                                plan.nodes[i].label,
                                plan.nodes[j].label,
                                plan.name,
                                page * PAGE_BYTES,
                                (page + 1) * PAGE_BYTES,
                            ),
                        });
                    }
                }
            }
        }
        let profile = (self.cfg.profile == ProfileMode::On).then(|| {
            let mut p = LaunchProfile::assemble(self.module, num_sms, &stats, team_profiles);
            p.streams = plan
                .nodes
                .iter()
                .zip(&spans)
                .map(|(n, &(start, end))| StreamSpan {
                    stream: n.stream,
                    label: n.label.clone(),
                    start,
                    end,
                })
                .collect();
            p
        });
        Ok((stats, profile, findings))
    }

    /// The one team executor, behind single launches, eager plans and
    /// graph replays alike. The calling thread is worker 0; `pool - 1`
    /// scoped workers join it, where `pool` is [`Device::worker_count`]
    /// of the widest node, and none are spawned when `pool == 1`. Worker
    /// `w` runs teams `w`, `w + pool`, ... of each node and stops its
    /// chain at the first error. At the end of each node the last worker
    /// to arrive at the [`Phaser`] merges the node's outcomes in team-id
    /// order, so results are bit-identical at every `jobs` setting.
    ///
    /// On error, the lowest team id of the first failing node wins (the
    /// error sequential execution hits first): its memory effects and
    /// those of later nodes are never applied, and earlier nodes stay
    /// committed. A panic in a team run or a merge, on any thread,
    /// becomes the structured `internal: team worker thread panicked`
    /// error, and every worker still leaves the rendezvous.
    pub(crate) fn run_nodes(
        &mut self,
        nodes: &[PlanNode],
        args: &[RtVal],
        track_writes: bool,
    ) -> Result<Vec<NodeRun>, SimError> {
        let widest = nodes.iter().map(|n| n.teams).max().unwrap_or(1);
        let pool = self.worker_count(widest);
        let (module, eplan, cfg, cost) = (self.module, &self.plan, &self.cfg, &self.cost);
        // Workers read device memory while running a node's teams; the
        // sealing worker takes the write lock inside the rendezvous
        // (everyone else is parked there) to commit the node.
        let mem = RwLock::new(&mut self.mem);
        let phaser = Phaser::new(pool as usize);
        // One outcome slot per (node, team), filled by whichever worker
        // ran the team and drained in team-id order by the sealer.
        type TeamSlot = Mutex<Option<Result<TeamOutcome, SimError>>>;
        let slots: Vec<Vec<TeamSlot>> = nodes
            .iter()
            .map(|n| (0..n.teams).map(|_| Mutex::new(None)).collect())
            .collect();
        let runs = Mutex::new(Vec::with_capacity(nodes.len()));
        // Set only by a sealer, so every worker sees it after the same
        // rendezvous and all of them stop before the same node.
        let failed: OnceLock<SimError> = OnceLock::new();
        let work = |w: u32| {
            for (node, slots) in nodes.iter().zip(&slots) {
                if failed.get().is_some() {
                    break;
                }
                {
                    // Poisoned only by a panicking seal, which also set
                    // `failed`, so no worker gets here afterwards.
                    let view = mem.read().expect("device memory lock poisoned");
                    let mut team_id = w;
                    while team_id < node.teams {
                        let r = contain(|| {
                            if cfg.fault.abort_team == Some(team_id) {
                                return Err(SimError::fault_injected(format!(
                                    "team {team_id} aborted"
                                )));
                            }
                            TeamExec::new(
                                module,
                                eplan,
                                cfg,
                                cost,
                                view.team_view(team_id),
                                node.teams,
                                node.threads,
                                team_id,
                                node.mode,
                                node.kfunc,
                                args,
                            )
                            .run()
                        });
                        let stop = r.is_err();
                        *slots[team_id as usize].lock().expect("team slot poisoned") = Some(r);
                        if stop {
                            break;
                        }
                        team_id += pool;
                    }
                }
                phaser.rendezvous(|| {
                    let merged = contain(|| {
                        // A missing slot can only trail an error in the
                        // same worker's chain, so the first error in
                        // team-id order is the lowest team id's.
                        let outcomes = slots
                            .iter()
                            .map(|slot| {
                                let taken = slot.lock().expect("team slot poisoned").take();
                                taken.unwrap_or_else(|| {
                                    Err(SimError::trap(
                                        "internal: team skipped without a prior error",
                                    ))
                                })
                            })
                            .collect::<Result<Vec<_>, _>>()?;
                        let mut mem = mem.write().expect("device memory lock poisoned");
                        Ok(merge_node(&mut mem, cfg.num_sms, track_writes, outcomes))
                    });
                    match merged {
                        Ok(run) => runs.lock().expect("node runs poisoned").push(run),
                        Err(e) => {
                            let _ = failed.set(e);
                        }
                    }
                });
            }
        };
        if pool == 1 {
            work(0);
        } else {
            std::thread::scope(|s| {
                let work = &work;
                for w in 1..pool {
                    s.spawn(move || work(w));
                }
                work(0);
            });
        }
        match failed.into_inner() {
            Some(e) => Err(e),
            None => Ok(runs.into_inner().expect("node runs poisoned")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{contain, Phaser};
    use crate::error::SimError;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// Hammers the rendezvous with more parties than this host may
    /// have cores: every phase must seal exactly once, and no worker
    /// may enter phase `n + 1` before phase `n` sealed. A missed wake
    /// (e.g. a sealer consuming a next-phase registration) turns this
    /// into a hang rather than a silent flake.
    #[test]
    fn phaser_seals_every_phase_exactly_once() {
        const PARTIES: usize = 4;
        const PHASES: u64 = 2000;
        let phaser = Phaser::new(PARTIES);
        let seals = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..PARTIES {
                let phaser = &phaser;
                let seals = &seals;
                s.spawn(move || {
                    for phase in 0..PHASES {
                        phaser.rendezvous(|| {
                            let sealed = seals.fetch_add(1, Ordering::AcqRel);
                            assert_eq!(sealed, phase, "phase sealed out of order");
                        });
                    }
                });
            }
        });
        assert_eq!(seals.load(Ordering::Acquire), PHASES);
    }

    /// A panic in a team run or in a node's merge surfaces as the
    /// structured internal error, and a panicking seal still releases
    /// every party: no worker stays parked, so the scope joins.
    #[test]
    fn contained_panics_become_errors_and_release_every_party() {
        const PARTIES: usize = 3;
        const PHASES: usize = 20;
        let phaser = Phaser::new(PARTIES);
        let errors = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..PARTIES {
                s.spawn(|| {
                    for _ in 0..PHASES {
                        let team: Result<(), SimError> = contain(|| panic!("team run"));
                        errors.lock().unwrap().push(team.unwrap_err().to_string());
                        phaser.rendezvous(|| {
                            let seal: Result<(), SimError> = contain(|| panic!("node merge"));
                            errors.lock().unwrap().push(seal.unwrap_err().to_string());
                        });
                    }
                });
            }
        });
        let errors = errors.into_inner().unwrap();
        assert_eq!(errors.len(), PHASES * (PARTIES + 1));
        assert!(errors
            .iter()
            .all(|e| e.ends_with("internal: team worker thread panicked")));
    }
}
