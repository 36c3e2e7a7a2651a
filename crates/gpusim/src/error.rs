//! Structured simulation diagnostics.
//!
//! [`SimError`] pairs a failure [`SimErrorKind`] with the provenance of
//! the failing instruction (function, block, instruction index,
//! team/thread ids, epoch), the per-thread positions of a stuck team,
//! and any sanitizer [`Finding`]s gathered before the failure. The
//! whole diagnostic serializes to one JSON object (`ompgpu-error/v1`)
//! for machine consumption by the CLI and CI.

use crate::mem::MemError;
use crate::sanitize::Finding;
use omp_json::JsonWriter;

/// What went wrong.
#[derive(Debug, Clone, PartialEq)]
pub enum SimErrorKind {
    /// Memory fault (includes the out-of-memory outcome).
    Mem(MemError),
    /// Undefined behaviour or an unresolved operation.
    Trap(String),
    /// All threads blocked with no release condition.
    Deadlock,
    /// The named kernel does not exist in the module.
    UnknownKernel(String),
    /// Launch arguments do not match the kernel signature.
    BadArgs(String),
    /// A [`crate::DeviceConfig`] field holds a value no device can run
    /// with; the message names the field.
    BadConfig(String),
    /// A thread exceeded the instruction budget.
    Runaway {
        /// The per-thread budget that was exceeded.
        budget: u64,
    },
    /// A [`crate::FaultPlan`] fired.
    FaultInjected(String),
    /// The wall-clock watchdog expired.
    Timeout {
        /// Configured watchdog budget in milliseconds.
        millis: u64,
    },
    /// A request-level deadline (queue wait plus execution) expired.
    /// Raised by the serve layer, which narrows the watchdog to the
    /// remaining deadline budget and reclassifies the resulting
    /// [`SimErrorKind::Timeout`].
    DeadlineExceeded {
        /// The request's total deadline budget in milliseconds.
        millis: u64,
    },
}

impl SimErrorKind {
    /// Stable machine-readable name (also the JSON `kind` value).
    pub fn name(&self) -> &'static str {
        match self {
            SimErrorKind::Mem(_) => "memory",
            SimErrorKind::Trap(_) => "trap",
            SimErrorKind::Deadlock => "deadlock",
            SimErrorKind::UnknownKernel(_) => "unknown-kernel",
            SimErrorKind::BadArgs(_) => "bad-args",
            SimErrorKind::BadConfig(_) => "bad-config",
            SimErrorKind::Runaway { .. } => "runaway",
            SimErrorKind::FaultInjected(_) => "fault-injected",
            SimErrorKind::Timeout { .. } => "timeout",
            SimErrorKind::DeadlineExceeded { .. } => "deadline-exceeded",
        }
    }
}

/// Where a failure happened, in plan coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    pub function: String,
    pub block: u32,
    pub inst: u32,
    pub team: u32,
    pub thread: u32,
    /// Barrier epoch of the failing thread (0 when not sanitizing).
    pub epoch: u32,
}

/// One thread's position and scheduler state — the per-thread context
/// of a deadlock diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadPos {
    pub thread: u32,
    /// Scheduler state: `ready`, `wait-work`, `wait-join`,
    /// `at-barrier`, or `done`.
    pub state: String,
    /// Function on top of the thread's stack (empty when finished).
    pub function: String,
    pub block: u32,
    pub inst: u32,
}

/// A simulation failure: kind plus structured context.
#[derive(Debug, Clone, PartialEq)]
pub struct SimError {
    pub kind: SimErrorKind,
    /// The failing instruction, when one thread is to blame. Boxed so
    /// the ubiquitous `Result<_, SimError>` stays small on the Ok path.
    pub provenance: Option<Box<Provenance>>,
    /// Per-thread positions (deadlock and timeout diagnostics).
    pub threads: Vec<ThreadPos>,
    /// Sanitizer findings gathered by the failing team before the
    /// error (empty when sanitizing is off).
    pub findings: Vec<Finding>,
}

impl SimError {
    fn of(kind: SimErrorKind) -> SimError {
        SimError {
            kind,
            provenance: None,
            threads: Vec::new(),
            findings: Vec::new(),
        }
    }

    /// Undefined behaviour or an unresolved operation.
    pub fn trap(msg: impl Into<String>) -> SimError {
        SimError::of(SimErrorKind::Trap(msg.into()))
    }

    /// All threads of a team blocked with no release condition.
    pub fn deadlock() -> SimError {
        SimError::of(SimErrorKind::Deadlock)
    }

    /// The named kernel does not exist.
    pub fn unknown_kernel(name: impl Into<String>) -> SimError {
        SimError::of(SimErrorKind::UnknownKernel(name.into()))
    }

    /// Launch arguments do not match the kernel signature.
    pub fn bad_args(msg: impl Into<String>) -> SimError {
        SimError::of(SimErrorKind::BadArgs(msg.into()))
    }

    /// A device configuration field is out of range.
    pub fn bad_config(msg: impl Into<String>) -> SimError {
        SimError::of(SimErrorKind::BadConfig(msg.into()))
    }

    /// A thread exceeded the per-thread instruction budget.
    pub fn runaway(budget: u64) -> SimError {
        SimError::of(SimErrorKind::Runaway { budget })
    }

    /// A fault-injection plan fired.
    pub fn fault_injected(msg: impl Into<String>) -> SimError {
        SimError::of(SimErrorKind::FaultInjected(msg.into()))
    }

    /// The wall-clock watchdog expired.
    pub fn timeout(millis: u64) -> SimError {
        SimError::of(SimErrorKind::Timeout { millis })
    }

    /// A request-level deadline expired.
    pub fn deadline_exceeded(millis: u64) -> SimError {
        SimError::of(SimErrorKind::DeadlineExceeded { millis })
    }

    /// Attaches provenance (keeps existing provenance if already set:
    /// the innermost annotation wins).
    pub fn with_provenance(mut self, p: Provenance) -> SimError {
        self.provenance.get_or_insert(Box::new(p));
        self
    }

    /// Attaches per-thread positions.
    pub fn with_threads(mut self, threads: Vec<ThreadPos>) -> SimError {
        self.threads = threads;
        self
    }

    /// Attaches sanitizer findings.
    pub fn with_findings(mut self, findings: Vec<Finding>) -> SimError {
        self.findings = findings;
        self
    }

    /// Serializes the full diagnostic as one JSON object
    /// (`schema: ompgpu-error/v1`).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(512);
        w.begin_object();
        w.key("schema").string("ompgpu-error/v1");
        w.key("kind").string(self.kind.name());
        w.key("message").string(&self.to_string());
        match &self.provenance {
            Some(p) => {
                w.key("provenance").begin_object();
                w.key("function").string(&p.function);
                w.key("block").u32(p.block);
                w.key("inst").u32(p.inst);
                w.key("team").u32(p.team);
                w.key("thread").u32(p.thread);
                w.key("epoch").u32(p.epoch);
                w.end_object();
            }
            None => {
                w.key("provenance").null();
            }
        }
        w.key("threads").begin_array();
        for t in &self.threads {
            w.begin_object();
            w.key("thread").u32(t.thread);
            w.key("state").string(&t.state);
            w.key("function").string(&t.function);
            w.key("block").u32(t.block);
            w.key("inst").u32(t.inst);
            w.end_object();
        }
        w.end_array();
        w.key("findings").begin_array();
        for f in &self.findings {
            f.write_json(&mut w);
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            SimErrorKind::Mem(e) => write!(f, "memory error: {e}")?,
            SimErrorKind::Trap(m) => write!(f, "trap: {m}")?,
            SimErrorKind::Deadlock => {
                write!(f, "deadlock:")?;
                if self.threads.is_empty() {
                    write!(f, " all threads blocked")?;
                } else {
                    for t in &self.threads {
                        write!(f, " t{} {}", t.thread, t.state)?;
                        if !t.function.is_empty() {
                            write!(f, " @{}:{}:{}", t.function, t.block, t.inst)?;
                        }
                    }
                }
            }
            SimErrorKind::UnknownKernel(k) => write!(f, "unknown kernel `{k}`")?,
            SimErrorKind::BadArgs(m) => write!(f, "bad launch arguments: {m}")?,
            SimErrorKind::BadConfig(m) => write!(f, "invalid device configuration: {m}")?,
            SimErrorKind::Runaway { budget } => {
                write!(f, "instruction budget exceeded ({budget} per thread)")?
            }
            SimErrorKind::FaultInjected(m) => write!(f, "injected fault: {m}")?,
            SimErrorKind::Timeout { millis } => write!(f, "watchdog timeout after {millis} ms")?,
            SimErrorKind::DeadlineExceeded { millis } => {
                write!(f, "request deadline of {millis} ms exceeded")?
            }
        }
        if let Some(p) = &self.provenance {
            write!(
                f,
                " (in @{}, block {}, inst {}, team {}, thread {})",
                p.function, p.block, p.inst, p.team, p.thread
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for SimError {}

impl From<MemError> for SimError {
    fn from(e: MemError) -> SimError {
        SimError::of(SimErrorKind::Mem(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_stable_prefixes() {
        assert!(SimError::from(MemError::GlobalExhausted)
            .to_string()
            .starts_with("memory error:"));
        assert!(SimError::trap("boom").to_string().starts_with("trap: boom"));
        assert!(SimError::deadlock().to_string().starts_with("deadlock:"));
        assert!(SimError::unknown_kernel("k")
            .to_string()
            .contains("unknown kernel `k`"));
        assert!(SimError::bad_args("n")
            .to_string()
            .starts_with("bad launch arguments:"));
        assert!(SimError::bad_config("warp_size")
            .to_string()
            .starts_with("invalid device configuration:"));
        assert!(SimError::runaway(10)
            .to_string()
            .starts_with("instruction budget exceeded"));
        assert!(SimError::fault_injected("x")
            .to_string()
            .starts_with("injected fault:"));
        assert!(SimError::timeout(5)
            .to_string()
            .contains("watchdog timeout"));
        assert!(SimError::deadline_exceeded(5)
            .to_string()
            .starts_with("request deadline of 5 ms exceeded"));
    }

    #[test]
    fn provenance_shows_in_display_and_json() {
        let e = SimError::trap("bad").with_provenance(Provenance {
            function: "kern".into(),
            block: 2,
            inst: 7,
            team: 1,
            thread: 3,
            epoch: 4,
        });
        let s = e.to_string();
        assert!(s.contains("@kern"), "{s}");
        assert!(s.contains("team 1"), "{s}");
        let json = e.to_json();
        omp_json::validate(&json).expect("error JSON must be valid");
        assert!(json.contains("\"kind\": \"trap\"") || json.contains("\"kind\":\"trap\""));
        assert!(json.contains("kern"));
    }

    #[test]
    fn deadlock_renders_thread_positions() {
        let e = SimError::deadlock().with_threads(vec![ThreadPos {
            thread: 1,
            state: "at-barrier".into(),
            function: "body".into(),
            block: 3,
            inst: 0,
        }]);
        let s = e.to_string();
        assert!(s.contains("t1 at-barrier @body:3:0"), "{s}");
        omp_json::validate(&e.to_json()).unwrap();
    }
}
