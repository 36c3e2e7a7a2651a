//! The one request vocabulary.
//!
//! Both front ends — an `ompgpu` subcommand's argv and an `ompgpu serve`
//! JSON line — decode into one [`Request`] through one field table,
//! [`FIELDS`]: each row names a field's wire key, its CLI flag, the
//! subcommands that take the flag, and its strict parser. A request then
//! runs through the same reducers over a [`Store`] — [`compile`],
//! [`launch`], [`sanitize`] and [`verify`] — which return typed results:
//! the CLI renders text from them, the daemon encodes them as JSON (and
//! wraps them with its deadline, panic isolation and accounting).

use crate::config::BuildConfig;
use crate::job::{Built, EnvOverrides, Job, JobError, JobResult, Knobs, Mode, Outcome, Readback};
use crate::job::{Stage, StageFault, Store, Subject, EXIT_BUILD, EXIT_USAGE};
use crate::oracle::{self, ArgSpec, ExampleSpec, OracleCase, ORACLE_CONFIGS};
use crate::serve::{ALL_OPS, MAX_FRAME_BYTES};
use omp_benchmarks::{all_proxies, ProxyApp, Scale};
use omp_gpusim::FaultPlan;
use omp_json::Value;
use std::fmt;
use std::path::Path;
use std::slice::Iter;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// Default per-launch wall-clock watchdog, in seconds.
pub const DEFAULT_WATCHDOG_SECS: u64 = 60;

/// Something a request runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// A source and the name reports give it.
    Source { name: String, text: String },
    /// A proxy application, by name (case-insensitive).
    Proxy(String),
}

/// One decoded request. `docs/SERVE.md` documents the wire fields,
/// `ompgpu`'s usage screen the flags; [`FIELDS`] maps one onto the
/// other.
#[derive(Debug, Default)]
pub struct Request {
    pub id: Option<u64>,
    pub op: String,
    /// Decoded from argv: errors then name flags, not wire fields.
    pub from_argv: bool,
    /// What the request runs, in report order.
    pub targets: Vec<Target>,
    pub config: BuildConfig,
    pub all_configs: bool,
    pub kernel: Option<String>,
    pub teams: Option<u32>,
    pub threads: Option<u32>,
    pub args: Option<Vec<ArgSpec>>,
    pub jobs: Option<u32>,
    pub watchdog_secs: u64,
    pub max_insts: Option<u64>,
    pub dump: usize,
    /// Total budget (queue wait + execution) in milliseconds; `None`
    /// falls back to the daemon's default.
    pub deadline_ms: Option<u64>,
    /// Seeded stage fault (chaos testing only).
    pub(crate) fault: Option<StageFault>,
    pub scale: Scale,
    pub self_test: bool,
    pub json: bool,
    pub trace: Option<String>,
    pub telemetry: Option<String>,
    pub time_passes: bool,
    pub emit_ir: bool,
    pub remarks: bool,
    // Subject fields as given; `finish` resolves them into `targets`.
    source: Option<String>,
    paths: Vec<String>,
    name: Option<String>,
    proxy: Option<String>,
    examples: Vec<String>,
}

/// Why a request could not be decoded or run.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// A field value is missing, malformed or unreadable (the CLI names
    /// no subcommand for these).
    Value(u8, String),
    /// The fields do not make one request.
    Usage(String),
    /// An argv flag the subcommand does not take.
    UnknownFlag(String),
    /// The job the request ran failed.
    Job(JobError),
}

impl RequestError {
    pub fn exit_code(&self) -> u8 {
        match self {
            RequestError::Value(code, _) => *code,
            RequestError::Job(e) => e.exit_code(),
            _ => EXIT_USAGE,
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Value(_, m) | RequestError::Usage(m) => f.write_str(m),
            RequestError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            RequestError::Job(e) => e.fmt(f),
        }
    }
}

impl From<JobError> for RequestError {
    fn from(e: JobError) -> RequestError {
        RequestError::Job(e)
    }
}

fn usage(message: impl Into<String>) -> RequestError {
    RequestError::Usage(message.into())
}

// ---------------------------------------------------------------------
// The field table
// ---------------------------------------------------------------------

/// One field's raw value: a wire member, or an argv flag with the
/// arguments after it.
enum Input<'a, 'b> {
    Wire(&'a str, &'a Value),
    Argv(&'a str, &'b mut Iter<'a, String>),
}

impl Input<'_, '_> {
    /// A well-typed value the field does not accept.
    fn reject(&self, shown: &str) -> RequestError {
        let message = match self {
            Input::Wire(key, _) => format!("invalid value {shown:?} for field {key:?}"),
            Input::Argv(flag, _) => format!("invalid value {shown:?} for {flag}"),
        };
        RequestError::Value(EXIT_USAGE, message)
    }

    /// A wire value not of type `ty`, or a flag without its value.
    fn missing(&self, ty: &str) -> RequestError {
        let message = match self {
            Input::Wire(key, _) => format!("field {key:?} must be {ty}"),
            Input::Argv(flag, _) => format!("missing value for {flag}"),
        };
        RequestError::Value(EXIT_USAGE, message)
    }

    fn text(&mut self) -> Result<String, RequestError> {
        let text = match self {
            Input::Wire(_, v) => v.as_str().map(str::to_string),
            Input::Argv(_, rest) => rest.next().cloned(),
        };
        text.ok_or_else(|| self.missing("a string"))
    }

    /// A text value `parse` accepts.
    fn parsed<T>(&mut self, parse: impl Fn(&str) -> Option<T>) -> Result<T, RequestError> {
        let s = self.text()?;
        parse(&s).ok_or_else(|| self.reject(&s))
    }

    /// A non-negative integer that fits `T`.
    fn int<T: TryFrom<u64>>(&mut self) -> Result<T, RequestError> {
        let n = match *self {
            Input::Wire(_, v) => v.as_u64().ok_or_else(|| self.missing("an integer"))?,
            Input::Argv(..) => self.parsed(|s| s.parse::<u64>().ok())?,
        };
        T::try_from(n).map_err(|_| self.reject(&n.to_string()))
    }

    /// A JSON boolean, or the flag's presence.
    fn switch(&self) -> Result<bool, RequestError> {
        match *self {
            Input::Wire(_, v) => v.as_bool().ok_or_else(|| self.missing("a boolean")),
            Input::Argv(..) => Ok(true),
        }
    }

    /// A JSON array of colon-spelled specs, or one spec per flag.
    fn arg_specs(&mut self) -> Result<Vec<ArgSpec>, RequestError> {
        match *self {
            Input::Wire(key, Value::Array(items)) => items
                .iter()
                .map(|x| Input::Wire(key, x).parsed(ArgSpec::parse_colon))
                .collect(),
            Input::Wire(..) => Err(self.missing("an array of strings")),
            Input::Argv(..) => Ok(vec![self.parsed(ArgSpec::parse_colon)?]),
        }
    }
}

/// The value after `flag` in argv, read as strictly as a request flag's
/// (the daemon subcommands' own flags use it).
pub fn flag_value<'a, T: FromStr>(
    flag: &'a str,
    rest: &mut Iter<'a, String>,
) -> Result<T, RequestError> {
    Input::Argv(flag, rest).parsed(|s| s.parse().ok())
}

type Setter = for<'a, 'b> fn(&mut Request, &mut Input<'a, 'b>) -> Result<(), RequestError>;

/// One row of the field table. An empty `key` is a CLI-only field, an
/// empty `flag` a wire-only one; `cli` lists the subcommands that take
/// the flag (the wire decodes every keyed row for every op).
pub struct Field {
    pub key: &'static str,
    pub flag: &'static str,
    pub cli: &'static [&'static str],
    set: Setter,
}

const LAUNCHING: &[&str] = &["run", "profile"];
const SWEEPING: &[&str] = &["profile", "sanitize"];

/// Every request field, once.
#[rustfmt::skip]
pub const FIELDS: &[Field] = &[
    Field { key: "op", flag: "", cli: &[], set: |r, v| {
        let op = v.text()?;
        let unknown = || usage(format!("unknown op {op:?} (known: {})", ALL_OPS.join(", ")));
        ALL_OPS.contains(&op.as_str()).then(|| r.op = op.clone()).ok_or_else(unknown)
    }},
    Field { key: "id", flag: "", cli: &[], set: |r, v| v.int().map(|n| r.id = Some(n)) },
    Field { key: "source", flag: "", cli: &[], set: |r, v| v.text().map(|s| r.source = Some(s)) },
    Field { key: "path", flag: "", cli: &[], set: |r, v| v.text().map(|p| r.paths.push(p)) },
    Field { key: "name", flag: "", cli: &[], set: |r, v| v.text().map(|s| r.name = Some(s)) },
    Field { key: "config", flag: "--config", cli: &["build", "run", "profile", "sanitize"], set: |r, v| {
        v.parsed(BuildConfig::from_cli_name).map(|c| r.config = c)
    }},
    Field { key: "all_configs", flag: "--all-configs", cli: SWEEPING, set: |r, v| {
        v.switch().map(|b| r.all_configs = b)
    }},
    Field { key: "kernel", flag: "--kernel", cli: LAUNCHING, set: |r, v| v.text().map(|s| r.kernel = Some(s)) },
    Field { key: "teams", flag: "--teams", cli: LAUNCHING, set: |r, v| v.int().map(|n| r.teams = Some(n)) },
    Field { key: "threads", flag: "--threads", cli: LAUNCHING, set: |r, v| v.int().map(|n| r.threads = Some(n)) },
    Field { key: "args", flag: "--arg", cli: LAUNCHING, set: |r, v| {
        v.arg_specs().map(|a| r.args.get_or_insert_with(Vec::new).extend(a))
    }},
    Field { key: "jobs", flag: "--jobs", cli: &["run", "profile", "verify", "sanitize"], set: |r, v| {
        v.int().map(|n| r.jobs = Some(n))
    }},
    // The budget must still fit the device's watchdog in milliseconds.
    Field { key: "watchdog_secs", flag: "--watchdog", cli: &["verify"], set: |r, v| {
        let secs: u64 = v.int()?;
        secs.checked_mul(1000).map(|_| r.watchdog_secs = secs).ok_or_else(|| v.reject(&secs.to_string()))
    }},
    Field { key: "max_insts", flag: "--max-insts", cli: &["run", "sanitize"], set: |r, v| {
        v.int().map(|n| r.max_insts = Some(n))
    }},
    Field { key: "dump", flag: "--dump", cli: &["run"], set: |r, v| v.int().map(|n| r.dump = n) },
    Field { key: "deadline_ms", flag: "", cli: &[], set: |r, v| v.int().map(|n| r.deadline_ms = Some(n)) },
    Field { key: "fault", flag: "", cli: &[], set: |r, v| match v {
        Input::Wire(_, f) => parse_fault(f).map(|f| r.fault = Some(f)),
        Input::Argv(..) => unreachable!("wire-only field"),
    }},
    Field { key: "", flag: "--proxy", cli: SWEEPING, set: |r, v| v.text().map(|s| r.proxy = Some(s)) },
    Field { key: "", flag: "--scale", cli: &["profile", "verify", "sanitize"], set: |r, v| {
        let scale = |s: &str| match s { "small" => Some(Scale::Small), "bench" => Some(Scale::Bench), _ => None };
        v.parsed(scale).map(|s| r.scale = s)
    }},
    Field { key: "", flag: "--self-test", cli: &["sanitize"], set: |r, v| v.switch().map(|b| r.self_test = b) },
    Field { key: "", flag: "--examples", cli: &["verify"], set: |r, v| v.text().map(|d| r.examples.push(d)) },
    Field { key: "", flag: "--json", cli: &["build", "run", "profile", "sanitize"], set: |r, v| {
        v.switch().map(|b| r.json = b)
    }},
    Field { key: "", flag: "--trace", cli: &["profile"], set: |r, v| v.text().map(|p| r.trace = Some(p)) },
    Field { key: "", flag: "--telemetry", cli: &["build", "run", "verify"], set: |r, v| {
        v.text().map(|p| r.telemetry = Some(p))
    }},
    Field { key: "", flag: "--time-passes", cli: &["build", "run", "profile"], set: |r, v| v.switch().map(|b| r.time_passes = b) },
    Field { key: "", flag: "--emit-ir", cli: &["build"], set: |r, v| v.switch().map(|b| r.emit_ir = b) },
    Field { key: "", flag: "--remarks", cli: &["build"], set: |r, v| v.switch().map(|b| r.remarks = b) },
];

/// The wire's `fault` object: `{"stage": S, "mode": "error"|"panic"}`.
fn parse_fault(f: &Value) -> Result<StageFault, RequestError> {
    let text = |key: &'static str| match f.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => Input::Wire(key, x).text().map(Some),
    };
    let name = text("stage")?.ok_or_else(|| usage("\"fault\" needs a \"stage\" field"))?;
    let stage = Stage::parse(&name).ok_or_else(|| {
        let known = Stage::ALL.map(Stage::name).join(", ");
        usage(format!("unknown fault stage {name:?} (known: {known})"))
    })?;
    let panic = match text("mode")?.as_deref() {
        None | Some("error") => false,
        Some("panic") => true,
        Some(m) => {
            return Err(usage(format!(
                "unknown fault mode {m:?} (known: error, panic)"
            )))
        }
    };
    Ok(StageFault { stage, panic })
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

impl Request {
    /// Decodes one wire frame into the `id` and `op` it can be attributed
    /// to (even when rejected) and the request.
    pub fn decode(line: &str) -> (Option<u64>, Option<String>, Result<Request, RequestError>) {
        let rejected = |message: String| (None, None, Err(usage(message)));
        let n = line.len();
        if n > MAX_FRAME_BYTES {
            return rejected(format!(
                "frame too large: {n} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
            ));
        }
        let v = match omp_json::parse(line) {
            Ok(v) => v,
            Err(e) => return rejected(format!("malformed request JSON: {e}")),
        };
        let id = v.get("id").and_then(Value::as_u64);
        let op = v.get("op").and_then(Value::as_str).map(str::to_string);
        (id, op, Request::from_json(&v))
    }

    fn from_json(v: &Value) -> Result<Request, RequestError> {
        let member = |key| v.get(key).filter(|x| !matches!(x, Value::Null));
        if member("op").is_none() {
            return Err(usage("missing \"op\" field"));
        }
        let mut r = Request::new("", false);
        for f in FIELDS.iter().filter(|f| !f.key.is_empty()) {
            if let Some(x) = member(f.key) {
                (f.set)(&mut r, &mut Input::Wire(f.key, x))?;
            }
        }
        r.finish()
    }

    /// Decodes the arguments of `ompgpu OP`: flags through the same
    /// table, bare words as source paths (any number for `verify`, at
    /// most one otherwise).
    pub fn from_argv(op: &str, args: &[String]) -> Result<Request, RequestError> {
        let mut r = Request::new(op, true);
        let mut rest = args.iter();
        while let Some(a) = rest.next() {
            match FIELDS.iter().find(|f| f.flag == a && f.cli.contains(&op)) {
                Some(f) => (f.set)(&mut r, &mut Input::Argv(f.flag, &mut rest))?,
                None if !a.starts_with('-') && (op == "verify" || r.paths.is_empty()) => {
                    r.paths.push(a.clone())
                }
                None => return Err(RequestError::UnknownFlag(a.clone())),
            }
        }
        r.finish()
    }

    fn new(op: &str, from_argv: bool) -> Request {
        Request {
            op: op.to_string(),
            from_argv,
            watchdog_secs: DEFAULT_WATCHDOG_SECS,
            ..Request::default()
        }
    }

    /// Checks the fields against each other and reads the sources.
    fn finish(mut self) -> Result<Request, RequestError> {
        let file = !self.paths.is_empty();
        if self.source.is_some() && file {
            return Err(usage("give either \"source\" or \"path\", not both"));
        }
        if self.self_test && (file || self.proxy.is_some()) {
            return Err(usage("--self-test takes no subject"));
        }
        if self.proxy.is_some() && file {
            return Err(usage("give either a source file or --proxy, not both"));
        }
        if self.op == "profile" && self.all_configs && (self.json || self.trace.is_some()) {
            return Err(usage(
                "--json/--trace need a single configuration (drop --all-configs)",
            ));
        }
        // `ompgpu verify` checks the proxies, then the example
        // directories, then the files it was given; it names a source
        // by its stem, like the wire, where other subcommands name it by
        // the path as given.
        let mut files = Vec::new();
        if self.from_argv && self.op == "verify" {
            let proxies = all_proxies(self.scale).into_iter();
            self.targets = proxies.map(|p| Target::Proxy(p.name().into())).collect();
            for dir in &self.examples {
                let found = oracle::example_files(Path::new(dir));
                files.extend(found.map_err(|e| RequestError::Value(EXIT_BUILD, e))?);
            }
        }
        files.extend(self.paths.iter().map(Into::into));
        for path in files {
            let text = std::fs::read_to_string(&path).map_err(|e| {
                RequestError::Value(EXIT_BUILD, format!("cannot read {}: {e}", path.display()))
            })?;
            let name = match &self.name {
                Some(name) => name.clone(),
                None if self.from_argv && self.op != "verify" => path.display().to_string(),
                None => oracle::subject_name(&path),
            };
            self.targets.push(Target::Source { name, text });
        }
        if let Some(text) = self.source.take() {
            let name = self.name.take().unwrap_or_else(|| "<inline>".into());
            self.targets.push(Target::Source { name, text });
        }
        self.targets.extend(self.proxy.take().map(Target::Proxy));
        Ok(self)
    }

    /// The one subject of a single-subject op.
    pub fn target(&self) -> Result<&Target, RequestError> {
        let op = &self.op;
        let missing = || usage(format!("op {op:?} needs a \"source\" or \"path\" field"));
        self.targets.first().ok_or_else(missing)
    }

    /// The configurations a sweeping op runs: under `all_configs` the
    /// six OpenMP-source ones the paper ablates (a CUDA-style build
    /// compiles a different source), else the one asked for.
    pub fn configs(&self) -> &[BuildConfig] {
        match self.all_configs {
            true => &ORACLE_CONFIGS,
            false => std::slice::from_ref(&self.config),
        }
    }

    /// The device knobs the request asks for, a knob it leaves unset
    /// taken from the front end's `env` (a daemon also narrows the
    /// watchdog to its deadline). An error-mode `launch` fault is
    /// injected through the simulator's own [`FaultPlan`], so it crosses
    /// the serve/device boundary the way a real device fault would.
    pub fn knobs(&self, env: EnvOverrides) -> Knobs {
        let launch_fault = self.fault.filter(|f| f.stage == Stage::Launch && !f.panic);
        Knobs {
            jobs: self.jobs.or(env.jobs),
            tier: None,
            max_insts: self.max_insts.or(env.max_insts),
            watchdog: (self.watchdog_secs > 0).then(|| Duration::from_secs(self.watchdog_secs)),
            fault: FaultPlan {
                trap_at_inst: launch_fault.map(|_| 0),
                ..FaultPlan::default()
            },
        }
    }
}

// ---------------------------------------------------------------------
// Reducers
// ---------------------------------------------------------------------

/// The proxy called `name` (case-insensitive) at `scale`.
fn proxy(scale: Scale, name: &str) -> Result<Box<dyn ProxyApp>, RequestError> {
    let mut proxies = all_proxies(scale);
    let known: Vec<_> = proxies.iter().map(|p| p.name()).collect();
    match known.iter().position(|k| k.eq_ignore_ascii_case(name)) {
        Some(at) => Ok(proxies.swap_remove(at)),
        None => Err(usage(format!(
            "unknown proxy {name:?} (known: {})",
            known.join(", ")
        ))),
    }
}

/// `compile` (and `ompgpu build`): the optimized build of the source.
pub fn compile(store: &mut Store, req: &Request) -> Result<Arc<Built>, RequestError> {
    match req.target()? {
        Target::Source { text, .. } => Ok(store.build(text, req.config)?),
        Target::Proxy(_) => Err(usage("compile takes a source, not a proxy")),
    }
}

/// A finished `run` or `profile` launch.
#[derive(Debug)]
pub struct Launched {
    /// The kernel (or host plan) that ran.
    pub kernel: String,
    pub result: JobResult,
}

/// `run` and `profile` under each of `configs`: the kernel that runs
/// and one outcome per configuration. Kernel, geometry and arguments
/// come from the request, each falling back to the source's
/// `// oracle-*:` header.
pub fn launch_configs(
    store: &mut Store,
    req: &Request,
    configs: &[BuildConfig],
    knobs: &Knobs,
) -> Result<(String, Vec<Outcome>), RequestError> {
    let (subject, kernel, app, spec);
    match req.target()? {
        Target::Proxy(name) => {
            app = proxy(req.scale, name)?;
            (subject, kernel) = (Subject::Proxy(app.as_ref()), app.kernel_name());
        }
        Target::Source { name, text } => {
            let header = ExampleSpec::parse(text).ok();
            let h = header.as_ref();
            let named = req.kernel.clone().or(h.map(|s| s.kernel.clone()));
            spec = ExampleSpec {
                kernel: named.ok_or_else(|| match req.from_argv {
                    true => usage(format!(
                        "--kernel NAME is required (no `// oracle-kernel:` header in {name})"
                    )),
                    false => usage("need a \"kernel\" field (or an `// oracle-kernel:` header)"),
                })?,
                teams: req.teams.or(h.and_then(|s| s.teams)),
                threads: req.threads.or(h.and_then(|s| s.threads)),
                args: req
                    .args
                    .clone()
                    .or(header.map(|s| s.args))
                    .unwrap_or_default(),
            };
            (subject, kernel) = (spec.subject(text), spec.kernel.as_str());
        }
    }
    let (mode, readback) = match (req.op.as_str(), req.dump) {
        ("profile", _) => (Mode::Profile, Readback::None),
        (_, 0) => (Mode::Plain, Readback::None),
        (_, n) => (Mode::Plain, Readback::Head(n)),
    };
    let job = Job {
        mode,
        readback,
        knobs: knobs.clone(),
        ..Job::new(subject, req.config)
    };
    Ok((kernel.to_string(), job.run_configs(store, configs)))
}

/// [`launch_configs`] under one configuration, whose failure is the
/// request's.
pub fn launch(
    store: &mut Store,
    req: &Request,
    config: BuildConfig,
    knobs: &Knobs,
) -> Result<Launched, RequestError> {
    let (kernel, mut outcomes) = launch_configs(store, req, &[config], knobs)?;
    let result = outcomes
        .pop()
        .expect("one outcome per configuration")
        .result?;
    Ok(Launched { kernel, result })
}

/// `sanitize`: the subject's name and one outcome per configuration
/// (`all_configs` sweeps the oracle's six). A source whose header does
/// not parse fails every configuration alike.
pub fn sanitize(
    store: &mut Store,
    req: &Request,
    knobs: &Knobs,
) -> Result<(String, Vec<Outcome>), RequestError> {
    let (app, spec);
    let (name, subject) = match req.target()? {
        Target::Proxy(name) => {
            app = proxy(req.scale, name)?;
            (app.name().to_string(), Ok(Subject::Proxy(app.as_ref())))
        }
        Target::Source { name, text } => {
            spec = ExampleSpec::parse(text).map_err(JobError::Spec);
            (name.clone(), spec.as_ref().map(|s| s.subject(text)))
        }
    };
    let configs = req.configs();
    let outcomes = match subject {
        Ok(subject) => Job {
            mode: Mode::Sanitize,
            knobs: knobs.clone(),
            ..Job::new(subject, req.config)
        }
        .run_configs(store, configs),
        Err(e) => configs
            .iter()
            .map(|&config| Outcome {
                config,
                built: None,
                result: Err(e.clone()),
            })
            .collect(),
    };
    Ok((name, outcomes))
}

/// `verify`: one oracle case per target.
pub fn verify(
    store: &mut Store,
    req: &Request,
    knobs: &Knobs,
) -> Result<Vec<OracleCase>, RequestError> {
    req.target()?;
    let case = |target: &Target| match target {
        Target::Source { name, text } => Ok(oracle::verify_source(store, name, text, knobs)),
        Target::Proxy(name) => {
            let app = proxy(req.scale, name)?;
            let subject = Subject::Proxy(app.as_ref());
            Ok(oracle::verify_subject(store, app.name(), subject, knobs))
        }
    };
    req.targets.iter().map(case).collect()
}
