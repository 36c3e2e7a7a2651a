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
//! **What a replay skips.** Capture resolves the plan once: kernel
//! lookup, argument validation and marshalling, geometry resolution,
//! edge derivation, stream assignment, and register estimation. Replays
//! additionally run all nodes on one persistent worker pool
//! (barrier-coordinated) instead of spawning a fresh thread set per
//! node — the per-launch setup cost the paper's Figure 10 amortizes.

use crate::error::SimError;
use crate::interp::{TeamExec, TeamOutcome};
use crate::launch::{Device, LaunchDims};
use crate::mem::{Memory, PAGE_BYTES};
use crate::profile::{LaunchProfile, ProfileMode, StreamSpan, TeamProfile};
use crate::sanitize::{Finding, FindingKind, SanitizeMode, Severity};
use crate::stats::KernelStats;
use crate::value::RtVal;
use omp_ir::{ExecMode, FuncId, LaunchAttrs};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

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
/// arguments. Replaying one skips every per-launch setup step — kernel
/// lookup, validation, geometry/edge/stream resolution, register
/// estimation — and runs all nodes on a single persistent worker pool.
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

    /// The pre-marshalled launch arguments.
    pub fn args(&self) -> &[RtVal] {
        &self.args
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
struct NodeRun {
    team_cycles: Vec<u64>,
    /// Counters merged across the node's teams; `cycles` holds the
    /// node's own duration (SM-packed, same rule as a single launch).
    stats: KernelStats,
    shared: u64,
    heap: u64,
    /// Global pages the node stored to (sanitizer runs only).
    written: BTreeSet<u64>,
    profiles: Vec<TeamProfile>,
    findings: Vec<Finding>,
}

/// Merges one node's team outcomes — in team-id order, the rule that
/// makes every `jobs` setting bit-identical — into device memory and a
/// [`NodeRun`].
fn merge_node(
    mem: &mut Memory,
    num_sms: u32,
    track_writes: bool,
    outcomes: Vec<TeamOutcome>,
) -> NodeRun {
    let mut stats = KernelStats::default();
    let mut team_cycles = Vec::with_capacity(outcomes.len());
    let mut profiles = Vec::new();
    let mut findings = Vec::new();
    let mut written = BTreeSet::new();
    for outcome in outcomes {
        team_cycles.push(outcome.cycles);
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
    stats.team_cycles = team_cycles.clone();
    stats.finish(num_sms);
    NodeRun {
        team_cycles,
        stats,
        shared: mem.shared_high_water,
        heap: mem.heap_high_water,
        written,
        profiles,
        findings,
    }
}

/// A reusable rendezvous for the persistent replay pool. All `parties`
/// workers arrive at the end of each node phase; the *last* arrival
/// runs the inter-node work (delta merge, launch-state reset) while the
/// gate is still closed, then releases everyone into the next phase.
/// Each worker therefore sleeps at most once per node — half the
/// wakeups of a two-`Barrier` start/end protocol, which is the
/// dominant replay cost for plans of tiny nodes.
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

/// Sums one node's counters into the plan-wide totals.
fn add_counters(dst: &mut KernelStats, src: &KernelStats) {
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
    /// Number of kernels launched by the plan named `name` (0 when the
    /// name resolves to nothing). Callers use this to pick between
    /// [`Device::launch`] and [`Device::launch_plan`].
    pub fn plan_width(&self, name: &str) -> usize {
        let by_source = self
            .module
            .kernels
            .iter()
            .filter(|k| k.source_name == name)
            .count();
        if by_source > 0 {
            return by_source;
        }
        self.module
            .kernels
            .iter()
            .filter(|k| self.module.func(k.func).name == name)
            .count()
            .min(1)
    }

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
                deps,
                stream: 0,
            })
            .collect();
        assign_streams(&mut nodes);
        Ok(LaunchPlan {
            name: name.to_string(),
            nodes,
        })
    }

    /// Launches the full plan for `name` eagerly — node by node, each
    /// with fresh per-launch setup — and returns the combined
    /// statistics. A one-node plan is exactly [`Device::launch`].
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
    /// resolution — and one persistent worker pool for all nodes.
    /// Outputs and statistics are bit-identical to the eager
    /// [`Device::launch_plan`] of the same name and arguments.
    pub fn replay_graph(&mut self, graph: &CapturedGraph) -> Result<KernelStats, SimError> {
        self.execute_plan(&graph.plan, &graph.args, true)
            .map(|(s, _, _)| s)
    }

    /// Like [`Device::replay_graph`], but also returns sanitizer
    /// findings (identical to the eager launch's).
    pub fn replay_graph_checked(
        &mut self,
        graph: &CapturedGraph,
    ) -> Result<(KernelStats, Vec<Finding>), SimError> {
        self.execute_plan(&graph.plan, &graph.args, true)
            .map(|(s, _, f)| (s, f))
    }

    /// Like [`Device::replay_graph`], but also returns the profile
    /// (with per-stream spans) when profiling is enabled.
    pub fn replay_graph_profiled(
        &mut self,
        graph: &CapturedGraph,
    ) -> Result<(KernelStats, Option<LaunchProfile>), SimError> {
        self.execute_plan(&graph.plan, &graph.args, true)
            .map(|(s, p, _)| (s, p))
    }

    /// Runs a resolved plan's nodes sequentially in submission order,
    /// then assembles combined statistics: counters summed, team cycles
    /// concatenated, shared/heap high-water maxima, registers the
    /// per-node maximum, and `cycles` the list-schedule makespan.
    /// `pooled` selects the replay executor (one persistent worker pool
    /// for all nodes) over the eager one (fresh per-node setup); both
    /// produce bit-identical results.
    fn execute_plan(
        &mut self,
        plan: &LaunchPlan,
        args: &[RtVal],
        pooled: bool,
    ) -> Result<(KernelStats, Option<LaunchProfile>, Vec<Finding>), SimError> {
        let _span = omp_telemetry::span(
            if pooled {
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
        let max_teams = plan.nodes.iter().map(|n| n.teams).max().unwrap_or(1);
        let pool_workers = self.worker_count(max_teams);
        let runs: Vec<NodeRun> = if pooled && pool_workers > 1 {
            self.run_nodes_pooled(&plan.nodes, args, pool_workers, track_writes)?
        } else {
            self.run_nodes_eager(&plan.nodes, args, track_writes)?
        };
        // Combined statistics.
        let mut stats = KernelStats::default();
        let mut findings = Vec::new();
        let mut team_profiles = Vec::new();
        for run in &runs {
            stats.team_cycles.extend_from_slice(&run.team_cycles);
            add_counters(&mut stats, &run.stats);
            stats.shared_mem_bytes = stats.shared_mem_bytes.max(run.shared);
            stats.heap_bytes = stats.heap_bytes.max(run.heap);
        }
        let durations: Vec<u64> = runs.iter().map(|r| r.stats.cycles).collect();
        let (spans, makespan) = schedule_nodes(&plan.nodes, &durations, num_sms);
        stats.cycles = makespan;
        stats.registers = registers;
        stats.tier = self.cfg.tier;
        let mut written: Vec<BTreeSet<u64>> = Vec::with_capacity(runs.len());
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

    /// Eager executor: each node pays full per-launch setup, including
    /// a fresh worker-thread spawn (inside [`Device::run_teams`]).
    fn run_nodes_eager(
        &mut self,
        nodes: &[PlanNode],
        args: &[RtVal],
        track_writes: bool,
    ) -> Result<Vec<NodeRun>, SimError> {
        let num_sms = self.cfg.num_sms;
        let mut runs = Vec::with_capacity(nodes.len());
        for node in nodes {
            self.mem.reset_launch_state();
            let outcomes = self.run_teams(node.kfunc, args, node.teams, node.threads, node.mode)?;
            runs.push(merge_node(&mut self.mem, num_sms, track_writes, outcomes));
        }
        Ok(runs)
    }

    /// Replay executor: one persistent pool of workers runs every
    /// node. Workers take teams round-robin (worker `w` runs teams
    /// `w`, `w + pool`, ...), and between nodes the last worker to
    /// finish merges outcomes in team-id order inside the [`Phaser`]
    /// rendezvous — so results are bit-identical to eager execution at
    /// every `jobs` setting, while each worker pays a single sleep per
    /// node instead of the spawn-per-node setup of the eager path.
    ///
    /// Unlike the eager path (which models the runtime's per-launch
    /// team spawns), the persistent pool is sized to the *host*:
    /// `min(jobs, available_parallelism)`. Workers beyond the
    /// hardware's parallelism can only time-slice, so extras would add
    /// pure context-switch overhead per rendezvous; the team→worker
    /// assignment does not affect results (the merge is in team-id
    /// order either way).
    fn run_nodes_pooled(
        &mut self,
        nodes: &[PlanNode],
        args: &[RtVal],
        jobs: u32,
        track_writes: bool,
    ) -> Result<Vec<NodeRun>, SimError> {
        let module = self.module;
        let eplan = &self.plan;
        let cfg = &self.cfg;
        let cost = &self.cost;
        let globals = &self.globals[..];
        let num_sms = cfg.num_sms;
        let hw = std::thread::available_parallelism()
            .map(|n| n.get() as u32)
            .unwrap_or(1);
        let pool = jobs.min(hw).max(1);
        // Workers read device memory while running a node's teams; the
        // sealing worker takes the write lock inside the rendezvous
        // (everyone else is parked there) to merge deltas — the same
        // sequential-commit order as eager execution.
        self.mem.reset_launch_state();
        let mem = RwLock::new(&mut self.mem);
        let phaser = Phaser::new(pool as usize);
        let abort = AtomicBool::new(false);
        // One outcome slot per (node, team), filled by whichever worker
        // ran the team and drained in team-id order by the sealer.
        type TeamSlot = Mutex<Option<Result<TeamOutcome, SimError>>>;
        let slots: Vec<Vec<TeamSlot>> = nodes
            .iter()
            .map(|n| (0..n.teams).map(|_| Mutex::new(None)).collect())
            .collect();
        // Merged node runs plus the first error, committed by whichever
        // worker seals each phase.
        let merged: Mutex<(Vec<NodeRun>, Option<SimError>)> =
            Mutex::new((Vec::with_capacity(nodes.len()), None));
        std::thread::scope(|s| {
            for w in 0..pool {
                let mem = &mem;
                let phaser = &phaser;
                let abort = &abort;
                let slots = &slots;
                let merged = &merged;
                s.spawn(move || {
                    for (ni, node) in nodes.iter().enumerate() {
                        if !abort.load(Ordering::Acquire) {
                            let guard = mem.read().unwrap();
                            let mut team_id = w;
                            while team_id < node.teams {
                                let r =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
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
                                            globals,
                                            guard.team_view(team_id),
                                            node.teams,
                                            node.threads,
                                            team_id,
                                            node.mode,
                                            node.kfunc,
                                            args,
                                        )
                                        .run()
                                    }))
                                    .unwrap_or_else(|_| {
                                        Err(SimError::trap("internal: team worker thread panicked"))
                                    });
                                let failed = r.is_err();
                                *slots[ni][team_id as usize].lock().unwrap() = Some(r);
                                if failed {
                                    break;
                                }
                                team_id += pool;
                            }
                        }
                        // Node end: the last worker to arrive commits
                        // the node (outcomes merged in team-id order)
                        // and resets launch state for the next node,
                        // before anyone reads device memory again.
                        phaser.rendezvous(|| {
                            let mut st = merged.lock().unwrap();
                            if st.1.is_some() {
                                return;
                            }
                            let mut outcomes = Vec::with_capacity(node.teams as usize);
                            for slot in &slots[ni] {
                                match slot.lock().unwrap().take() {
                                    Some(Ok(o)) => outcomes.push(o),
                                    Some(Err(e)) => {
                                        st.1 = Some(e);
                                        break;
                                    }
                                    None => {
                                        st.1 = Some(SimError::trap(
                                            "internal: team skipped without a prior error",
                                        ));
                                        break;
                                    }
                                }
                            }
                            match &st.1 {
                                None => {
                                    let mut guard = mem.write().unwrap();
                                    st.0.push(merge_node(
                                        &mut guard,
                                        num_sms,
                                        track_writes,
                                        outcomes,
                                    ));
                                    guard.reset_launch_state();
                                }
                                Some(_) => abort.store(true, Ordering::Release),
                            }
                        });
                    }
                });
            }
        });
        let (runs, first_error) = merged.into_inner().unwrap();
        match first_error {
            Some(e) => Err(e),
            None => Ok(runs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Phaser;
    use std::sync::atomic::{AtomicU64, Ordering};

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
}
