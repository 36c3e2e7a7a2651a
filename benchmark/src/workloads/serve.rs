//! `serve_warm` and `serve_churn`: a daemon started in-process with
//! `serve_unix`, driven in a closed loop by two client connections (each
//! waits for its reply before sending the next request).
//!
//! `serve_warm` is the read path: four generated sources under `dev`,
//! every cache tier filled in set-up, so a request is transport + queue +
//! JSON + cache lookup + `Device::reset` + reply encoding. `serve_churn`
//! is the write path of the same layer: half its requests carry a source
//! the daemon has never seen, a quarter compile a recent source under a
//! configuration it has not been built with, and a quarter run again a
//! source whose device the LRU has dropped since.
//!
//! `verify` is not part of either pass. One `verify` of a new source
//! resets the devices its six configurations share, and the first reset
//! of a device commits its whole 64.5 MiB arena: about 65 ms, 60 of them
//! page faults. At the 10 % share the issue proposed it was 85 % of the
//! `serve_churn` pass, made `pass_ms` a page-fault meter that moved 20 %
//! from run to run on this host, and made `peak_rss_mb` depend on how the
//! two clients' requests happened to interleave. The traced run times a
//! few `verify` requests after the window instead
//! (`serve.request_ms.verify`).

use super::fingerprint;
use crate::gen::{Kernel, Rng, Shape, KERNEL_ELEMS, UNIT_SHAPES};
use crate::harness::{PassCounts, PassSample, Round, SpanMap, Workload};
use crate::metrics::Values;
use crate::stats::{median, supported_percentile};
use omp_gpu::serve::{serve_unix, Session, DEFAULT_DEVICE_CAPACITY};
use omp_json::{JsonWriter, Value};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Warm,
    Churn,
}

/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Sources `serve_warm` keeps warm: as many as the device LRU holds.
/// Every warm device pins a 64.5 MiB arena that `Device::reset` zero-fills
/// on each hit, so this sets how much memory a pass sweeps. With four
/// sources (258 MiB) the sweep sat at the edge of this host's last-level
/// cache, and a reset ran at cache speed or at DRAM speed, 2.6 ms or
/// 6.4 ms, depending on what the neighbours left of the cache; `pass_ms`
/// moved 2x within the hour. Eight (516 MiB) are past the cache whatever
/// the neighbours do.
const WARM_SOURCES: usize = DEFAULT_DEVICE_CAPACITY;
/// Sources a churn client can still revisit; also the new sources in one
/// of its passes, so every pass starts from the same ring.
const RING: usize = 32;
/// Configurations a known source can be compiled under for the first
/// time; `dev` is what it was first run under.
const LATER_CONFIGS: [&str; 5] = ["llvm12", "noopt", "h2s2", "h2s2rtc", "h2s2rtccsm"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Run,
    Compile,
    Profile,
    Sanitize,
    Verify,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Run => "run",
            Op::Compile => "compile",
            Op::Profile => "profile",
            Op::Sanitize => "sanitize",
            Op::Verify => "verify",
        }
    }
}

/// One position of a client's pass.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `serve_warm`: an op on one of the four pre-filled sources.
    Warm(Op, usize),
    /// `serve_churn`: `run` a source nobody has sent before. The shape
    /// and the constants' seed belong to the position, so every pass
    /// sends the same kernel under a new name.
    New(Shape, u64),
    /// `compile` the oldest source not yet built under
    /// `LATER_CONFIGS[i]` under it: a frontend hit (a miss for `llvm12`,
    /// the one configuration with another globalization scheme) and an
    /// optimized miss.
    CompileLater(usize),
    /// `run` again the oldest source not yet run again. The device LRU
    /// holds [`DEFAULT_DEVICE_CAPACITY`] entries and every new source
    /// inserts one, so whatever the other client did meanwhile its device
    /// is gone: a frontend and optimized hit and a device miss, and the
    /// same work for every seed.
    Revisit,
    /// `verify` the i-th oldest source: six configurations. Only the
    /// traced run's probe sends these.
    Verify(usize),
}

/// A source the daemon has seen, and what it was built under.
struct Known {
    kernel: Kernel,
    source: String,
    /// Bit i: built under `LATER_CONFIGS[i]`.
    built: u8,
    revisited: bool,
}

impl Known {
    fn new(kernel: Kernel) -> Known {
        Known {
            source: kernel.source(),
            kernel,
            built: 0,
            revisited: false,
        }
    }
}

/// How a reply is checked. The expected buffers come from the
/// generator's closed form, never from another run of the daemon.
struct Expect {
    id: u64,
    op: Op,
    dump: Option<Vec<Vec<f64>>>,
}

/// One client's seeded request stream.
struct Script {
    mix: Mix,
    client: usize,
    steps: Vec<Step>,
    /// `serve_warm`: the pre-filled sources. `serve_churn`: the last
    /// [`RING`] sources this client sent, newest at the back.
    known: VecDeque<Known>,
    next_id: u64,
    /// Sources named so far; the name carries it zero-padded, so every
    /// pass sends and receives the same number of bytes.
    named: u64,
}

impl Script {
    fn new(mix: Mix, seed: u64, client: usize) -> Script {
        let rng = Rng::new(seed);
        let mut order = rng.fork(200 + client as u64);
        let (steps, known) = match mix {
            Mix::Warm => {
                // The sources are the same for every client: they are
                // the working set, not part of a client's stream.
                let mut draw = rng.fork(100);
                let known: VecDeque<Known> = (0..WARM_SOURCES)
                    .map(|i| {
                        let shape = UNIT_SHAPES[i % UNIT_SHAPES.len()];
                        Known::new(Kernel::draw(&mut draw, shape, format!("warm_{i}")))
                    })
                    .collect();
                // run : compile : profile : sanitize = 4 : 2 : 1 : 1 over
                // 32 requests: every source is run twice and compiled
                // once, so a pass simulates the same cycles whatever the
                // seed; half of them, the seed's choice, are profiled and
                // half sanitized.
                let mut steps: Vec<Step> = (0..2 * WARM_SOURCES)
                    .map(|i| Step::Warm(Op::Run, i % WARM_SOURCES))
                    .collect();
                steps.extend((0..WARM_SOURCES).map(|s| Step::Warm(Op::Compile, s)));
                for op in [Op::Profile, Op::Sanitize] {
                    let mut sources: Vec<usize> = (0..WARM_SOURCES).collect();
                    order.shuffle(&mut sources);
                    let half = &sources[..WARM_SOURCES / 2];
                    steps.extend(half.iter().map(|&s| Step::Warm(op, s)));
                }
                order.shuffle(&mut steps);
                (steps, known)
            }
            Mix::Churn => {
                // 32 new : 15 compile-later : 17 revisit of 64. The new
                // sources spread evenly over the shapes and the later
                // compiles evenly over the configurations, so a pass does
                // the same work for every seed; the seed names the
                // constants and orders the steps.
                let shapes = [
                    Shape::Spmd,
                    Shape::LocalArray,
                    Shape::TeamShared,
                    Shape::Guarded,
                    Shape::Pipeline,
                ];
                let mut steps: Vec<Step> = (0..RING)
                    .map(|i| Step::New(shapes[i % shapes.len()], order.next_u64()))
                    .collect();
                steps.extend((0..15).map(|i| Step::CompileLater(i % LATER_CONFIGS.len())));
                steps.extend([Step::Revisit; 17]);
                order.shuffle(&mut steps);
                (steps, VecDeque::new())
            }
        };
        Script {
            mix,
            client,
            steps,
            known,
            next_id: 1,
            named: 0,
        }
    }

    /// Text of everything this script generates that does not depend on
    /// how many passes run: the pre-filled sources, or the first pass's
    /// new ones.
    fn corpus(&self) -> String {
        let mut text: String = self.known.iter().map(|k| k.source.as_str()).collect();
        for step in &self.steps {
            if let &Step::New(shape, consts) = step {
                text += &Kernel::draw(&mut Rng::new(consts), shape, "k".into()).body();
            }
        }
        text
    }

    fn request(&mut self, op: Op, source: &str, config: &str, dump: bool) -> (String, u64) {
        let id = self.next_id;
        self.next_id += 1;
        let mut w = JsonWriter::with_capacity(source.len() + 128);
        w.begin_object();
        w.key("id").u64(id);
        w.key("op").string(op.name());
        w.key("source").string(source);
        match op {
            Op::Verify | Op::Sanitize => {
                w.key("name").string("bench");
            }
            _ => {}
        }
        if op != Op::Verify {
            w.key("config").string(config);
        }
        if dump {
            w.key("dump").usize(KERNEL_ELEMS);
        }
        w.end_object();
        (w.finish(), id)
    }

    /// The request line of `step` and how to check its reply.
    fn materialize(&mut self, step: Step) -> (String, Expect) {
        let (op, index, config) = match step {
            Step::Warm(op, source) => (op, source, "dev"),
            Step::New(shape, consts) => {
                let name = format!("k{}_{:08}", self.client, self.named);
                self.named += 1;
                if self.known.len() == RING {
                    self.known.pop_front();
                }
                self.known
                    .push_back(Known::new(Kernel::draw(&mut Rng::new(consts), shape, name)));
                (Op::Run, self.known.len() - 1, "dev")
            }
            Step::Revisit => {
                let index = self.oldest(|k| !k.revisited);
                self.known[index].revisited = true;
                (Op::Run, index, "dev")
            }
            Step::CompileLater(slot) => {
                let index = self.oldest(|k| k.built & (1 << slot) == 0);
                self.known[index].built |= 1 << slot;
                (Op::Compile, index, LATER_CONFIGS[slot])
            }
            Step::Verify(index) => (Op::Verify, index, "dev"),
        };
        let source = self.known[index].source.clone();
        let dump = (op == Op::Run).then(|| self.known[index].kernel.expected());
        let (line, id) = self.request(op, &source, config, dump.is_some());
        (line, Expect { id, op, dump })
    }

    /// Index of the oldest known source that `wanted` accepts. A pass
    /// adds two new sources for every one it asks for, so there always is
    /// one; the newest stands in if not.
    fn oldest(&self, wanted: impl Fn(&Known) -> bool) -> usize {
        let found = self.known.iter().position(wanted);
        found.unwrap_or(self.known.len() - 1)
    }

    /// Fills the daemon's caches for this script: every op on every warm
    /// source, or one pass's worth of new sources so that the first pass
    /// finds the ring every later pass finds.
    fn prefill(&mut self, transport: &mut dyn Transport) -> Result<(), String> {
        let steps: Vec<Step> = match self.mix {
            Mix::Churn => {
                let news = self.steps.iter().filter(|s| matches!(s, Step::New(..)));
                news.copied().collect()
            }
            Mix::Warm => (0..self.known.len())
                .flat_map(|s| {
                    [Op::Compile, Op::Run, Op::Profile, Op::Sanitize].map(|op| Step::Warm(op, s))
                })
                .collect(),
        };
        for step in steps {
            let (line, expect) = self.materialize(step);
            let reply = transport.request(&line)?;
            if check(&reply, &expect).is_none() {
                return Err(format!(
                    "pre-fill {:?} got a wrong reply: {reply}",
                    expect.op
                ));
            }
        }
        Ok(())
    }
}

/// Checks a reply: `ok:true`, `exit_code:0`, the request's `id`, and the
/// op's own evidence of a right answer. Returns the simulated cycles the
/// reply reports (0 for ops that report none), or `None` when wrong.
fn check(reply: &str, expect: &Expect) -> Option<u64> {
    let v = omp_json::parse(reply).ok()?;
    let envelope_ok = v.get("ok").and_then(Value::as_bool) == Some(true)
        && v.get("exit_code").and_then(Value::as_u64) == Some(0)
        && v.get("id").and_then(Value::as_u64) == Some(expect.id)
        && v.get("op").and_then(Value::as_str) == Some(expect.op.name());
    if !envelope_ok {
        return None;
    }
    let result = v.get("result")?;
    let flag = |key: &str| result.get(key).and_then(Value::as_bool) == Some(true);
    match expect.op {
        Op::Run => {
            let dumped = result.get("dump")?.as_array()?;
            let expected = expect.dump.as_ref()?;
            let equal = dumped.len() == expected.len()
                && dumped.iter().zip(expected).all(|(got, want)| {
                    got.as_array().is_some_and(|got| {
                        got.len() == want.len()
                            && got.iter().zip(want).all(|(g, w)| g.as_f64() == Some(*w))
                    })
                });
            if !equal {
                return None;
            }
            result.get("stats")?.get("cycles")?.as_u64()
        }
        Op::Compile => result.get("module")?.as_str().map(|_| 0),
        Op::Profile => result.get("profile")?.get("cycles")?.as_u64().map(|_| 0),
        Op::Sanitize => flag("clean").then_some(0),
        Op::Verify => flag("passed").then_some(0),
    }
}

/// Where a script's requests go: the daemon's socket, or a session in
/// this thread (the same service without transport and queue).
trait Transport {
    fn request(&mut self, line: &str) -> Result<String, String>;
}

struct Socket {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Socket {
    fn connect(path: &Path) -> Result<Socket, String> {
        let writer = UnixStream::connect(path).map_err(|e| format!("cannot connect: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Socket { reader, writer })
    }
}

impl Transport for Socket {
    fn request(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send failed: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("the daemon closed the connection".into()),
            Ok(_) => {
                reply.truncate(reply.trim_end().len());
                Ok(reply)
            }
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }
}

impl Transport for Session {
    fn request(&mut self, line: &str) -> Result<String, String> {
        Ok(self.handle_line(line).0)
    }
}

/// What a client measured since the window began.
#[derive(Default)]
struct Log {
    /// `(op, client-side latency in ms)` of every request.
    latency: Vec<(Op, f64)>,
    /// Reply bytes of the last pass.
    reply_bytes: u64,
    /// Request and reply lines of the last pass, when asked for.
    lines: Option<Vec<String>>,
}

/// One pass of `script` over `transport`.
fn run_pass(
    script: &mut Script,
    transport: &mut dyn Transport,
    pass_span: &str,
    log: &mut Log,
) -> Result<PassSample, String> {
    let started = Instant::now();
    let _pass = omp_telemetry::span(pass_span, "bench");
    let (mut failed, mut cycles, mut runs, mut reply_bytes) = (0, 0, 0, 0);
    if let Some(lines) = &mut log.lines {
        lines.clear();
    }
    for i in 0..script.steps.len() {
        let (line, expect) = script.materialize(script.steps[i]);
        let sent = Instant::now();
        let reply = {
            let _s = omp_telemetry::span_lazy("bench", || {
                format!("bench.serve.request.{}", expect.op.name())
            });
            transport.request(&line)?
        };
        log.latency
            .push((expect.op, sent.elapsed().as_secs_f64() * 1e3));
        reply_bytes += reply.len() as u64;
        match check(&reply, &expect) {
            Some(c) => cycles += c,
            None => failed += 1,
        }
        runs += u64::from(expect.op == Op::Run);
        if let Some(lines) = &mut log.lines {
            lines.push(line);
            lines.push(reply);
        }
    }
    log.reply_bytes = reply_bytes;
    Ok(PassSample {
        client: script.client,
        ms: started.elapsed().as_secs_f64() * 1e3,
        counts: PassCounts {
            ops: script.steps.len() as u64,
            failed,
            sim_cycles: cycles,
            fingerprint: fingerprint(&[runs]),
        },
    })
}

struct Client {
    script: Script,
    socket: Socket,
    log: Log,
}

/// Session totals from the `stats` op.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    /// `(hits, misses)` for frontend, optimized, device, graphs.
    tiers: [(u64, u64); 4],
    device_entries: u64,
    shed: u64,
    timeouts: u64,
    panics: u64,
}

const TIERS: [&str; 4] = ["frontend", "optimized", "device", "graphs"];

pub struct Serve {
    mix: Mix,
    seed: u64,
    socket_path: PathBuf,
    daemon: Option<JoinHandle<Result<(), String>>>,
    control: Socket,
    clients: Vec<Client>,
    window_start: Totals,
    /// Median client-side request time over the window, all ops.
    request_ms: f64,
    corpus_hash: u64,
}

impl Serve {
    pub fn new(seed: u64, mix: Mix) -> Result<Serve, String> {
        static STARTED: AtomicU32 = AtomicU32::new(0);
        // Relative and short: a Unix socket path holds about 100 bytes
        // and the checkout may sit anywhere.
        std::fs::create_dir_all(crate::OUT_DIR).map_err(|e| e.to_string())?;
        let socket_path = PathBuf::from(format!(
            "{}/serve-{}-{}.sock",
            crate::OUT_DIR,
            std::process::id(),
            STARTED.fetch_add(1, Ordering::Relaxed)
        ));
        let daemon = {
            let path = socket_path.clone();
            std::thread::spawn(move || serve_unix(&path, Session::new(DEFAULT_DEVICE_CAPACITY)))
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        let control = loop {
            match Socket::connect(&socket_path) {
                Ok(s) => break s,
                Err(e) if daemon.is_finished() || Instant::now() > deadline => {
                    return Err(format!("the daemon did not come up: {e}"));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        // From here on `Drop` shuts the daemon down on every error path.
        let mut serve = Serve {
            mix,
            seed,
            socket_path,
            daemon: Some(daemon),
            control,
            clients: Vec::new(),
            window_start: Totals::default(),
            request_ms: 0.0,
            corpus_hash: 0,
        };
        let mut corpus = String::new();
        for client in 0..CLIENTS {
            let mut script = Script::new(mix, seed, client);
            corpus += &script.corpus();
            // The warm sources are shared, so the first client's
            // pre-fill is everyone's.
            if mix == Mix::Churn || client == 0 {
                script.prefill(&mut serve.control)?;
            }
            serve.clients.push(Client {
                script,
                socket: Socket::connect(&serve.socket_path)?,
                log: Log::default(),
            });
        }
        serve.corpus_hash = omp_json::fnv1a(corpus.as_bytes());
        Ok(serve)
    }

    fn control(&mut self, op: &str) -> Result<Value, String> {
        let reply = self.control.request(&format!("{{\"op\":\"{op}\"}}"))?;
        let v = omp_json::parse(&reply)?;
        v.get("result")
            .cloned()
            .ok_or_else(|| format!("{op} reply carries no result: {reply}"))
    }

    fn totals(&mut self) -> Result<Totals, String> {
        let r = self.control("stats")?;
        let n = |v: Option<&Value>| v.and_then(Value::as_u64).unwrap_or(0);
        let mut t = Totals {
            device_entries: n(r.get("device_entries")),
            shed: n(r.get("shed")),
            timeouts: n(r.get("timeouts")),
            panics: n(r.get("panics")),
            ..Totals::default()
        };
        for (i, tier) in TIERS.iter().enumerate() {
            let counts = r.get("cache").and_then(|c| c.get(tier));
            t.tiers[i] = (
                n(counts.and_then(|c| c.get("hits"))),
                n(counts.and_then(|c| c.get("misses"))),
            );
        }
        Ok(t)
    }

    /// Sends `shutdown`, waits for the daemon thread, and removes the
    /// socket if the daemon left it behind. Safe to call twice.
    fn shut_down(&mut self) -> Result<(), String> {
        let Some(daemon) = self.daemon.take() else {
            return Ok(());
        };
        let sent = self.control("shutdown").map(|_| ());
        // Client connections hold reader threads open in the daemon.
        self.clients.clear();
        let joined = match daemon.join() {
            Ok(served) => served,
            Err(_) => Err("the daemon thread panicked".to_string()),
        };
        let _ = std::fs::remove_file(&self.socket_path);
        sent.and(joined)
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.shut_down();
    }
}

impl Workload for Serve {
    fn pass_span(&self) -> &'static str {
        match self.mix {
            Mix::Warm => "bench.serve_warm.pass",
            Mix::Churn => "bench.serve_churn.pass",
        }
    }

    fn corpus_hash(&self) -> u64 {
        self.corpus_hash
    }

    fn round(&mut self, passes: usize) -> Result<Round, String> {
        let pass_span = self.pass_span();
        let started = Instant::now();
        let per_client: Vec<Result<Vec<PassSample>, String>> = std::thread::scope(|scope| {
            let running: Vec<_> = self
                .clients
                .iter_mut()
                .map(|c| {
                    scope.spawn(move || {
                        (0..passes)
                            .map(|_| run_pass(&mut c.script, &mut c.socket, pass_span, &mut c.log))
                            .collect()
                    })
                })
                .collect();
            running
                .into_iter()
                .map(|t| {
                    t.join()
                        .unwrap_or_else(|_| Err("a client thread panicked".into()))
                })
                .collect()
        });
        let wall_s = started.elapsed().as_secs_f64();
        let mut samples = Vec::with_capacity(passes * CLIENTS);
        for client in per_client {
            samples.extend(client?);
        }
        Ok(Round {
            passes: samples,
            wall_s,
        })
    }

    fn begin_window(&mut self) -> Result<(), String> {
        for c in &mut self.clients {
            c.log.latency.clear();
        }
        self.window_start = self.totals()?;
        Ok(())
    }

    fn end_window(&mut self, out: &mut Values) -> Result<(), String> {
        let (start, end) = (self.window_start, self.totals()?);
        for (i, tier) in TIERS.iter().enumerate() {
            let hits = end.tiers[i].0 - start.tiers[i].0;
            let misses = end.tiers[i].1 - start.tiers[i].1;
            let ratio = if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            };
            out.set(&format!("serve.hit_ratio.{tier}"), ratio);
            // `serve_warm` measures the hit path; one miss means it
            // measured something else.
            if self.mix == Mix::Warm && tier != &"graphs" && (misses > 0 || hits == 0) {
                return Err(format!(
                    "serve_warm must hit the {tier} tier every time: {hits} hits, {misses} misses"
                ));
            }
        }
        let (shed, timeouts, panics) = (
            end.shed - start.shed,
            end.timeouts - start.timeouts,
            end.panics - start.panics,
        );
        if shed + timeouts + panics > 0 {
            return Err(format!(
                "the daemon shed {shed}, timed out {timeouts} and panicked on {panics} requests"
            ));
        }
        out.set("serve.shed", shed as f64);
        out.set("serve.timeout", timeouts as f64);
        out.set("serve.panic", panics as f64);
        out.set("serve.device_entries", end.device_entries as f64);
        let reply_bytes: u64 = self.clients.iter().map(|c| c.log.reply_bytes).sum();
        out.set("serve.reply_kb", reply_bytes as f64 / 1024.0);

        let latency: Vec<(Op, f64)> = self
            .clients
            .iter()
            .flat_map(|c| c.log.latency.iter().copied())
            .collect();
        for op in [Op::Run, Op::Compile, Op::Profile, Op::Sanitize] {
            let ms: Vec<f64> = latency.iter().filter(|l| l.0 == op).map(|l| l.1).collect();
            out.set(&format!("serve.request_ms.{}", op.name()), median(&ms));
        }
        let all: Vec<f64> = latency.iter().map(|l| l.1).collect();
        // Advisory, and only when ten samples lie beyond it.
        out.set(
            "serve.request_ms_p99",
            supported_percentile(&all, 0.99).unwrap_or(0.0),
        );
        self.request_ms = median(&all);

        let metrics = self.control("metrics")?;
        let p50_ms = |name: &str| {
            metrics
                .get("metrics")
                .and_then(|m| m.get("histograms"))
                .and_then(|h| h.get(name))
                .and_then(|h| h.get("p50"))
                .and_then(Value::as_u64)
                .unwrap_or(0) as f64
                / 1e3
        };
        out.set("serve.queue_ms_p50", p50_ms("serve.queue_micros"));
        out.set("serve.service_ms_p50", p50_ms("serve.service_micros.run"));
        Ok(())
    }

    fn span_map(&self) -> SpanMap {
        SpanMap {
            per_pass: &[],
            outside: &[],
            own_layers: &["serve"],
        }
    }

    /// The same request stream through `Session::handle_line` in this
    /// thread: service time without socket, reader thread and queue. The
    /// lines of that pass then go through `omp_json::parse` once more,
    /// which is what the daemon and the client each pay for JSON.
    fn probe(&mut self, out: &mut Values) -> Result<(), String> {
        let mut session = Session::new(DEFAULT_DEVICE_CAPACITY);
        let mut script = Script::new(self.mix, self.seed, 0);
        script.prefill(&mut session)?;
        let mut log = Log {
            lines: Some(Vec::new()),
            ..Log::default()
        };
        // Two passes: the second starts from the ring the first left,
        // as every timed pass does.
        for _ in 0..2 {
            log.latency.clear();
            let pass = run_pass(
                &mut script,
                &mut session,
                "bench.serve.in_process",
                &mut log,
            )?;
            if pass.counts.failed > 0 {
                let wrong = pass.counts.failed;
                return Err(format!("{wrong} in-process replies were wrong"));
            }
        }
        let service: Vec<f64> = log.latency.iter().map(|l| l.1).collect();
        out.set("serve.service_ms", median(&service));

        let lines = log.lines.unwrap_or_default();
        let started = Instant::now();
        for line in &lines {
            let _s = omp_telemetry::span("bench.json.parse", "bench");
            std::hint::black_box(omp_json::parse(std::hint::black_box(line))?);
        }
        out.set("json.parse_ms", started.elapsed().as_secs_f64() * 1e3);

        // `verify` is in neither pass (see the module comment); time a
        // few here, on the daemon, now that the window is closed.
        let mut verify_ms = Vec::new();
        for index in 0..4 {
            let (line, expect) = self.clients[0].script.materialize(Step::Verify(index));
            let sent = Instant::now();
            let reply = {
                let _s = omp_telemetry::span("bench.serve.request.verify", "bench");
                self.control.request(&line)?
            };
            verify_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            if check(&reply, &expect).is_none() {
                return Err(format!("verify got a wrong reply: {reply}"));
            }
        }
        out.set("serve.request_ms.verify", median(&verify_ms));
        Ok(())
    }

    fn derive(&self, out: &mut Values) {
        out.set(
            "serve.wire_queue_ms",
            self.request_ms - out.get("serve.service_ms"),
        );
    }

    fn finish(mut self: Box<Self>) -> Result<(), String> {
        self.shut_down()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(mix: Mix, seed: u64) -> Vec<String> {
        let mut script = Script::new(mix, seed, 0);
        if mix == Mix::Churn {
            for step in script.steps.clone() {
                if matches!(step, Step::New(..)) {
                    script.materialize(step);
                }
            }
        }
        let steps = script.steps.clone();
        steps.into_iter().map(|s| script.materialize(s).0).collect()
    }

    #[test]
    fn request_streams_are_seed_deterministic() {
        for mix in [Mix::Warm, Mix::Churn] {
            assert_eq!(lines(mix, 1), lines(mix, 1), "{mix:?}");
            assert_ne!(lines(mix, 1), lines(mix, 2), "{mix:?}");
        }
    }

    #[test]
    fn mixes_have_the_documented_proportions() {
        let count = |mix, op: &str| {
            let needle = format!("\"op\":\"{op}\"");
            lines(mix, 7).iter().filter(|l| l.contains(&needle)).count()
        };
        assert_eq!(
            ["run", "compile", "profile", "sanitize"].map(|op| count(Mix::Warm, op)),
            [16, 8, 4, 4]
        );
        assert_eq!(
            ["run", "compile", "verify"].map(|op| count(Mix::Churn, op)),
            [32 + 17, 15, 0]
        );
    }

    /// What makes `serve_churn` a miss-path workload with the same work
    /// on every pass: no source is compiled twice under a configuration,
    /// and none is run again twice or while its device can still be in
    /// the eight-entry LRU.
    #[test]
    fn churn_never_repeats_a_compile_and_revisits_only_evicted_sources() {
        let mut script = Script::new(Mix::Churn, 3, 0);
        let source_of = |line: &str| {
            let v = omp_json::parse(line).unwrap();
            let config = v.get("config").unwrap().to_json();
            (v.get("source").unwrap().to_json(), config)
        };
        let mut compiled = std::collections::HashSet::new();
        // Sources run so far, in order; a run inserts a device.
        let mut runs: Vec<String> = Vec::new();
        for pass in 0..5 {
            for step in script.steps.clone() {
                let (line, expect) = script.materialize(step);
                let (source, config) = source_of(&line);
                match expect.op {
                    Op::Compile => assert!(compiled.insert((source, config)), "{line}"),
                    Op::Run => {
                        if matches!(step, Step::Revisit) && pass > 0 {
                            let last = runs.iter().rposition(|s| *s == source).unwrap();
                            assert_eq!(runs.iter().filter(|s| **s == source).count(), 1);
                            assert!(runs.len() - last > DEFAULT_DEVICE_CAPACITY, "{line}");
                        }
                        runs.push(source);
                    }
                    _ => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn a_wrong_buffer_or_envelope_fails_the_check() {
        let expect = Expect {
            id: 4,
            op: Op::Run,
            dump: Some(vec![vec![1.0, 2.5]]),
        };
        let reply = |id: u64, ok: bool, second: f64| {
            format!(
                "{{\"id\":{id},\"op\":\"run\",\"ok\":{ok},\"exit_code\":0,\
                 \"result\":{{\"stats\":{{\"cycles\":77}},\"dump\":[[1.0,{second:?}]]}}}}"
            )
        };
        assert_eq!(check(&reply(4, true, 2.5), &expect), Some(77));
        assert_eq!(check(&reply(5, true, 2.5), &expect), None);
        assert_eq!(check(&reply(4, false, 2.5), &expect), None);
        assert_eq!(check(&reply(4, true, 2.75), &expect), None);
        assert_eq!(check("not json", &expect), None);
    }
}
