//! Optimization remarks (paper Section IV-D) — the observability
//! surface of the optimizer.
//!
//! Every transformation emits a remark identified by a unique `OMPxxx`
//! number, mirroring the identifiers documented at
//! `https://openmp.llvm.org/remarks/OptimizationRemarks.html`. Remarks
//! either report a performed transformation or a missed opportunity
//! together with actionable advice.
//!
//! Beyond the human-readable message, every remark carries a
//! *structured* payload consumed by tooling (the differential oracle,
//! `ompgpu verify`, and the `remarks` bench binary):
//!
//! * [`Remark::pass`] — the emitting pass (`heap-to-stack`,
//!   `heap-to-shared`, `spmdization`, `state-machine`, `folding`);
//! * [`Remark::action`] — a machine-readable verb for what happened
//!   (e.g. `stackify`, `sharify`, `spmdize`, `fold`, `keep-globalized`);
//! * [`Remark::callsite`] — the IR location acted upon, when one exists
//!   (instruction name, or the folded runtime entry point);
//! * [`Remark::bytes`] — bytes moved by deglobalization actions.
//!
//! The serialized form is one JSON object per line (see
//! [`Remarks::to_json_lines`]); `docs/remarks.md` documents the format
//! and its stability guarantees.

use omp_json::escape_into as json_escape_into;
use std::fmt;

/// Remark category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemarkKind {
    /// A transformation was performed.
    Passed,
    /// An opportunity was identified but could not be taken.
    Missed,
    /// Neutral analysis information.
    Analysis,
}

impl RemarkKind {
    /// Stable lowercase name used in the serialized form.
    pub fn name(self) -> &'static str {
        match self {
            RemarkKind::Passed => "passed",
            RemarkKind::Missed => "missed",
            RemarkKind::Analysis => "analysis",
        }
    }

    fn from_name(s: &str) -> Option<RemarkKind> {
        Some(match s {
            "passed" => RemarkKind::Passed,
            "missed" => RemarkKind::Missed,
            "analysis" => RemarkKind::Analysis,
            _ => return None,
        })
    }
}

/// One optimization remark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Remark {
    /// `OMPxxx` identifier (e.g. 110 for "moved to stack").
    pub id: u32,
    /// Category.
    pub kind: RemarkKind,
    /// Emitting pass (stable kebab-case name; empty when unattributed).
    pub pass: &'static str,
    /// Function the remark is attached to.
    pub function: String,
    /// IR location the remark refers to (instruction or callee name),
    /// when one exists.
    pub callsite: Option<String>,
    /// Machine-readable verb for the action taken or missed (stable
    /// kebab-case; empty when unattributed).
    pub action: &'static str,
    /// Bytes moved by the action (deglobalization passes).
    pub bytes: Option<u64>,
    /// Human-readable message.
    pub message: String,
}

impl Remark {
    /// Creates a remark carrying only the human-readable fields; attach
    /// the structured payload with the builder methods.
    pub fn new(
        id: u32,
        kind: RemarkKind,
        function: impl Into<String>,
        message: impl Into<String>,
    ) -> Remark {
        Remark {
            id,
            kind,
            pass: "",
            function: function.into(),
            callsite: None,
            action: "",
            bytes: None,
            message: message.into(),
        }
    }

    /// Attributes the remark to a pass.
    pub fn in_pass(mut self, pass: &'static str) -> Remark {
        self.pass = pass;
        self
    }

    /// Records the IR location the remark refers to.
    pub fn at(mut self, callsite: impl Into<String>) -> Remark {
        self.callsite = Some(callsite.into());
        self
    }

    /// Records the machine-readable action verb.
    pub fn with_action(mut self, action: &'static str) -> Remark {
        self.action = action;
        self
    }

    /// Records the bytes moved by the action.
    pub fn with_bytes(mut self, bytes: u64) -> Remark {
        self.bytes = Some(bytes);
        self
    }

    /// Serializes to one stable JSON object (field order and spelling
    /// are guaranteed; see `docs/remarks.md`).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"id\":");
        s.push_str(&self.id.to_string());
        s.push_str(",\"kind\":\"");
        s.push_str(self.kind.name());
        s.push_str("\",\"pass\":\"");
        json_escape_into(&mut s, self.pass);
        s.push_str("\",\"function\":\"");
        json_escape_into(&mut s, &self.function);
        s.push_str("\",\"callsite\":");
        match &self.callsite {
            Some(c) => {
                s.push('"');
                json_escape_into(&mut s, c);
                s.push('"');
            }
            None => s.push_str("null"),
        }
        s.push_str(",\"action\":\"");
        json_escape_into(&mut s, self.action);
        s.push_str("\",\"bytes\":");
        match self.bytes {
            Some(b) => s.push_str(&b.to_string()),
            None => s.push_str("null"),
        }
        s.push_str(",\"message\":\"");
        json_escape_into(&mut s, &self.message);
        s.push_str("\"}");
        s
    }

    /// Parses one remark from its serialized form. Accepts exactly the
    /// output of [`Remark::to_json`] (flat object, any field order).
    pub fn from_json(line: &str) -> Result<Remark, String> {
        let fields = parse_flat_json_object(line)?;
        let get = |k: &str| -> Result<&JsonValue, String> {
            fields
                .iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {k:?}"))
        };
        let id = match get("id")? {
            JsonValue::Number(n) => *n as u32,
            _ => return Err("field \"id\" must be a number".into()),
        };
        let kind = match get("kind")? {
            JsonValue::String(s) => {
                RemarkKind::from_name(s).ok_or_else(|| format!("unknown kind {s:?}"))?
            }
            _ => return Err("field \"kind\" must be a string".into()),
        };
        let pass = match get("pass")? {
            JsonValue::String(s) => intern_pass(s),
            _ => return Err("field \"pass\" must be a string".into()),
        };
        let function = match get("function")? {
            JsonValue::String(s) => s.clone(),
            _ => return Err("field \"function\" must be a string".into()),
        };
        let callsite = match get("callsite")? {
            JsonValue::String(s) => Some(s.clone()),
            JsonValue::Null => None,
            _ => return Err("field \"callsite\" must be a string or null".into()),
        };
        let action = match get("action")? {
            JsonValue::String(s) => intern_action(s),
            _ => return Err("field \"action\" must be a string".into()),
        };
        let bytes = match get("bytes")? {
            JsonValue::Number(n) => Some(*n as u64),
            JsonValue::Null => None,
            _ => return Err("field \"bytes\" must be a number or null".into()),
        };
        let message = match get("message")? {
            JsonValue::String(s) => s.clone(),
            _ => return Err("field \"message\" must be a string".into()),
        };
        Ok(Remark {
            id,
            kind,
            pass,
            function,
            callsite,
            action,
            bytes,
            message,
        })
    }
}

/// Stable pass names (the values of [`Remark::pass`]).
pub mod passes {
    /// HeapToStack deglobalization.
    pub const HEAP_TO_STACK: &str = "heap-to-stack";
    /// HeapToShared deglobalization.
    pub const HEAP_TO_SHARED: &str = "heap-to-shared";
    /// Generic-to-SPMD kernel conversion.
    pub const SPMDIZATION: &str = "spmdization";
    /// Custom state-machine rewrite.
    pub const STATE_MACHINE: &str = "state-machine";
    /// Runtime-call constant folding.
    pub const FOLDING: &str = "folding";
    /// Aggressive internalization.
    pub const INTERNALIZE: &str = "internalize";
    /// Size-budgeted function inlining (classic mid-end; runs before
    /// and after the OpenMP-aware passes).
    pub const INLINE: &str = "inline";
    /// Global value numbering / CSE (classic mid-end).
    pub const GVN: &str = "gvn";
    /// Loop-invariant code motion (classic mid-end).
    pub const LICM: &str = "licm";
    /// Task-graph / async-offload launch analysis (capture-and-replay
    /// eligibility and `nowait` overlap, from kernel launch metadata).
    pub const TASKGRAPH: &str = "taskgraph";
    /// The pass manager itself (stage timing / IR-delta remarks).
    pub const PIPELINE: &str = "pipeline";

    /// All pass names, in pipeline order.
    pub const ALL: [&str; 11] = [
        INLINE,
        INTERNALIZE,
        SPMDIZATION,
        HEAP_TO_STACK,
        HEAP_TO_SHARED,
        STATE_MACHINE,
        FOLDING,
        GVN,
        LICM,
        TASKGRAPH,
        PIPELINE,
    ];
}

/// Stable action verbs (the values of [`Remark::action`]).
pub mod actions {
    /// Allocation replaced by a stack slot.
    pub const STACKIFY: &str = "stackify";
    /// Allocation replaced by static shared memory.
    pub const SHARIFY: &str = "sharify";
    /// Allocation kept as a runtime globalization call.
    pub const KEEP_GLOBALIZED: &str = "keep-globalized";
    /// Generic kernel converted to SPMD mode.
    pub const SPMDIZE: &str = "spmdize";
    /// SPMD conversion blocked by side effects.
    pub const SPMD_BLOCKED: &str = "spmd-blocked";
    /// Dead worker machinery removed.
    pub const REMOVE_DEAD_RUNTIME: &str = "remove-dead-runtime";
    /// State machine rewritten without fallback.
    pub const CUSTOM_STATE_MACHINE: &str = "custom-state-machine";
    /// State machine rewritten, indirect fallback kept.
    pub const STATE_MACHINE_FALLBACK: &str = "state-machine-fallback";
    /// State machine kept: unknown parallel-region uses.
    pub const KEEP_STATE_MACHINE: &str = "keep-state-machine";
    /// Runtime call replaced with a constant.
    pub const FOLD: &str = "fold";
    /// External declaration left opaque to the analyses.
    pub const KEEP_EXTERNAL: &str = "keep-external";
    /// Callee body spliced over a callsite.
    pub const INLINE: &str = "inline";
    /// Callsite kept (budget, recursion, or structural runtime calls).
    pub const KEEP_CALL: &str = "keep-call";
    /// Redundant expressions replaced by dominating duplicates.
    pub const CSE: &str = "cse";
    /// Loop-invariant instructions moved to a preheader.
    pub const HOIST: &str = "hoist";
    /// Kernel is part of a `taskgraph` capture-and-replay region.
    pub const CAPTURE_REPLAY: &str = "capture-replay";
    /// `nowait` kernel eligible for asynchronous stream overlap.
    pub const ASYNC_OVERLAP: &str = "async-overlap";
}

fn intern_pass(s: &str) -> &'static str {
    passes::ALL.iter().find(|p| **p == s).copied().unwrap_or("")
}

fn intern_action(s: &str) -> &'static str {
    const ALL: [&str; 17] = [
        actions::STACKIFY,
        actions::SHARIFY,
        actions::KEEP_GLOBALIZED,
        actions::SPMDIZE,
        actions::SPMD_BLOCKED,
        actions::REMOVE_DEAD_RUNTIME,
        actions::CUSTOM_STATE_MACHINE,
        actions::STATE_MACHINE_FALLBACK,
        actions::KEEP_STATE_MACHINE,
        actions::FOLD,
        actions::KEEP_EXTERNAL,
        actions::INLINE,
        actions::KEEP_CALL,
        actions::CSE,
        actions::HOIST,
        actions::CAPTURE_REPLAY,
        actions::ASYNC_OVERLAP,
    ];
    ALL.iter().find(|a| **a == s).copied().unwrap_or("")
}

impl fmt::Display for Remark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let flag = match self.kind {
            RemarkKind::Passed => "-Rpass=openmp-opt",
            RemarkKind::Missed => "-Rpass-missed=openmp-opt",
            RemarkKind::Analysis => "-Rpass-analysis=openmp-opt",
        };
        write!(
            f,
            "{}: remark: {} [OMP{}] [{}]",
            self.function, self.message, self.id, flag
        )
    }
}

#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    String(String),
    Number(i64),
    Null,
}

/// Parses a flat JSON object with string / integer / null values — the
/// exact shape [`Remark::to_json`] emits. Not a general JSON parser.
fn parse_flat_json_object(s: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let b: Vec<char> = s.trim().chars().collect();
    let mut i = 0usize;
    let err = |what: &str, at: usize| format!("{what} at offset {at}");
    let skip_ws = |b: &[char], mut i: usize| {
        while i < b.len() && b[i].is_whitespace() {
            i += 1;
        }
        i
    };
    let parse_string = |b: &[char], mut i: usize| -> Result<(String, usize), String> {
        if b.get(i) != Some(&'"') {
            return Err(err("expected '\"'", i));
        }
        i += 1;
        let mut out = String::new();
        while i < b.len() {
            match b[i] {
                '"' => return Ok((out, i + 1)),
                '\\' => {
                    let e = *b.get(i + 1).ok_or_else(|| err("dangling escape", i))?;
                    match e {
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let hex: String = b
                                .get(i + 2..i + 6)
                                .ok_or_else(|| err("short \\u escape", i))?
                                .iter()
                                .collect();
                            let code = u32::from_str_radix(&hex, 16)
                                .map_err(|_| err("bad \\u escape", i))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            i += 4;
                        }
                        other => out.push(other),
                    }
                    i += 2;
                }
                c => {
                    out.push(c);
                    i += 1;
                }
            }
        }
        Err(err("unterminated string", i))
    };
    i = skip_ws(&b, i);
    if b.get(i) != Some(&'{') {
        return Err(err("expected '{'", i));
    }
    i += 1;
    let mut fields = Vec::new();
    loop {
        i = skip_ws(&b, i);
        if b.get(i) == Some(&'}') {
            return Ok(fields);
        }
        let (key, ni) = parse_string(&b, i)?;
        i = skip_ws(&b, ni);
        if b.get(i) != Some(&':') {
            return Err(err("expected ':'", i));
        }
        i = skip_ws(&b, i + 1);
        let value = match b.get(i) {
            Some('"') => {
                let (v, ni) = parse_string(&b, i)?;
                i = ni;
                JsonValue::String(v)
            }
            Some('n') => {
                if b.get(i..i + 4).map(|c| c.iter().collect::<String>()) == Some("null".into()) {
                    i += 4;
                    JsonValue::Null
                } else {
                    return Err(err("expected null", i));
                }
            }
            Some(c) if c.is_ascii_digit() || *c == '-' => {
                let start = i;
                if b[i] == '-' {
                    i += 1;
                }
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                let text: String = b[start..i].iter().collect();
                JsonValue::Number(text.parse().map_err(|_| err("bad number", start))?)
            }
            _ => return Err(err("expected value", i)),
        };
        fields.push((key, value));
        i = skip_ws(&b, i);
        match b.get(i) {
            Some(',') => i += 1,
            Some('}') => return Ok(fields),
            _ => return Err(err("expected ',' or '}'", i)),
        }
    }
}

/// Remark identifiers used by this implementation (aligned with the
/// LLVM `openmp-opt` numbering where one exists).
pub mod ids {
    /// Moving globalized variable to the stack (HeapToStack).
    pub const MOVED_TO_STACK: u32 = 110;
    /// Replacing globalized variable with shared memory (HeapToShared).
    pub const MOVED_TO_SHARED: u32 = 111;
    /// Found thread data sharing on the GPU (globalization remains).
    pub const DATA_SHARING_REMAINS: u32 = 112;
    /// Could not move globalized variable to the stack.
    pub const STACK_MOVE_FAILED: u32 = 113;
    /// Transformed generic-mode kernel to SPMD mode.
    pub const SPMDIZED: u32 = 120;
    /// Value has potential side effects preventing SPMD-mode execution.
    pub const SPMD_BLOCKED: u32 = 121;
    /// Generic-mode kernel is executed with a customized state machine.
    pub const CUSTOM_STATE_MACHINE: u32 = 131;
    /// Generic-mode kernel needs the fallback indirect dispatch.
    pub const STATE_MACHINE_FALLBACK: u32 = 132;
    /// Parallel region is used in unknown ways; state machine kept.
    pub const PARALLEL_REGION_UNKNOWN: u32 = 133;
    /// Internalization failed for an externally visible function.
    pub const INTERNALIZATION_FAILED: u32 = 142;
    /// Replacing an OpenMP runtime call with a constant.
    pub const RUNTIME_CALL_FOLDED: u32 = 170;
    /// Removing unused/dead OpenMP runtime machinery.
    pub const DEAD_RUNTIME_CODE: u32 = 180;
    /// Callsite inlined by the classic mid-end inliner.
    pub const INLINED: u32 = 201;
    /// Callsite deliberately kept by the inliner.
    pub const INLINE_SKIPPED: u32 = 202;
    /// Redundant expressions eliminated by GVN/CSE.
    pub const CSE_ELIMINATED: u32 = 210;
    /// Loop-invariant instructions hoisted by LICM.
    pub const LOOP_INVARIANT_HOISTED: u32 = 220;
    /// Pass-manager stage summary: runs and IR-size delta (analysis).
    /// The message carries IR deltas only — never wall time — so remark
    /// streams stay deterministic across runs.
    pub const PASS_TIMING: u32 = 230;
    /// Kernel belongs to a `taskgraph` region: its launches are fenced
    /// from the rest of the host plan and run as one unit (analysis).
    pub const TASKGRAPH_CAPTURED: u32 = 240;
    /// Kernel launched with `nowait`: eligible for asynchronous stream
    /// overlap with its sibling launches (analysis).
    pub const ASYNC_OFFLOAD: u32 = 241;
}

/// A collection of remarks with convenience queries.
#[derive(Debug, Clone, Default)]
pub struct Remarks {
    entries: Vec<Remark>,
}

impl Remarks {
    /// Adds a remark.
    pub fn push(&mut self, r: Remark) {
        self.entries.push(r);
    }

    /// All remarks in emission order.
    pub fn all(&self) -> &[Remark] {
        &self.entries
    }

    /// Number of remarks emitted.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no remarks were emitted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Remarks with the given id.
    pub fn with_id(&self, id: u32) -> Vec<&Remark> {
        self.entries.iter().filter(|r| r.id == id).collect()
    }

    /// Count of remarks with the given id.
    pub fn count(&self, id: u32) -> usize {
        self.entries.iter().filter(|r| r.id == id).count()
    }

    /// Count of missed-opportunity remarks.
    pub fn missed(&self) -> usize {
        self.entries
            .iter()
            .filter(|r| r.kind == RemarkKind::Missed)
            .count()
    }

    /// Remarks emitted by the given pass.
    pub fn for_pass(&self, pass: &str) -> Vec<&Remark> {
        self.entries.iter().filter(|r| r.pass == pass).collect()
    }

    /// Total bytes moved by remarks of the given pass (deglobalization).
    pub fn bytes_moved(&self, pass: &str) -> u64 {
        self.entries
            .iter()
            .filter(|r| r.pass == pass && r.kind == RemarkKind::Passed)
            .filter_map(|r| r.bytes)
            .sum()
    }

    /// Serializes every remark, one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for r in &self.entries {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }

    /// Parses a [`Remarks::to_json_lines`] document (empty lines are
    /// skipped).
    pub fn from_json_lines(text: &str) -> Result<Remarks, String> {
        let mut rs = Remarks::default();
        for (n, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            rs.push(Remark::from_json(line).map_err(|e| format!("line {}: {e}", n + 1))?);
        }
        Ok(rs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_format_matches_clang_style() {
        let r = Remark::new(
            ids::DATA_SHARING_REMAINS,
            RemarkKind::Missed,
            "device_function",
            "Found thread data sharing on the GPU. Expect degraded performance due to data globalization.",
        );
        let s = r.to_string();
        assert!(s.contains("[OMP112]"));
        assert!(s.contains("-Rpass-missed=openmp-opt"));
        assert!(s.contains("device_function"));
    }

    #[test]
    fn collection_queries() {
        let mut rs = Remarks::default();
        assert!(rs.is_empty());
        rs.push(Remark::new(
            ids::MOVED_TO_STACK,
            RemarkKind::Passed,
            "f",
            "x",
        ));
        rs.push(Remark::new(
            ids::MOVED_TO_STACK,
            RemarkKind::Passed,
            "g",
            "y",
        ));
        rs.push(Remark::new(ids::SPMD_BLOCKED, RemarkKind::Missed, "k", "z"));
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.count(ids::MOVED_TO_STACK), 2);
        assert_eq!(rs.with_id(ids::SPMD_BLOCKED).len(), 1);
        assert_eq!(rs.missed(), 1);
    }

    #[test]
    fn structured_fields_and_aggregates() {
        let mut rs = Remarks::default();
        rs.push(
            Remark::new(ids::MOVED_TO_STACK, RemarkKind::Passed, "f", "m")
                .in_pass(passes::HEAP_TO_STACK)
                .with_action(actions::STACKIFY)
                .at("%v3")
                .with_bytes(8),
        );
        rs.push(
            Remark::new(ids::MOVED_TO_SHARED, RemarkKind::Passed, "f", "m")
                .in_pass(passes::HEAP_TO_SHARED)
                .with_action(actions::SHARIFY)
                .with_bytes(16),
        );
        assert_eq!(rs.for_pass(passes::HEAP_TO_STACK).len(), 1);
        assert_eq!(rs.bytes_moved(passes::HEAP_TO_STACK), 8);
        assert_eq!(rs.bytes_moved(passes::HEAP_TO_SHARED), 16);
        assert_eq!(rs.bytes_moved(passes::FOLDING), 0);
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let mut rs = Remarks::default();
        rs.push(
            Remark::new(
                ids::RUNTIME_CALL_FOLDED,
                RemarkKind::Passed,
                "kern",
                "Replacing OpenMP runtime call \"x\" with a constant.\nnewline + tab\t.",
            )
            .in_pass(passes::FOLDING)
            .with_action(actions::FOLD)
            .at("__kmpc_get_warp_size"),
        );
        rs.push(Remark::new(
            ids::SPMD_BLOCKED,
            RemarkKind::Missed,
            "k",
            "plain",
        ));
        let text = rs.to_json_lines();
        let back = Remarks::from_json_lines(&text).unwrap();
        assert_eq!(back.all(), rs.all());
        // Stability: the serialized field spelling is part of the format.
        let first = text.lines().next().unwrap();
        for key in [
            "\"id\":",
            "\"kind\":",
            "\"pass\":",
            "\"function\":",
            "\"callsite\":",
            "\"action\":",
            "\"bytes\":",
            "\"message\":",
        ] {
            assert!(first.contains(key), "{key} missing in {first}");
        }
    }

    #[test]
    fn json_parser_rejects_malformed_lines() {
        assert!(Remark::from_json("{}").is_err());
        assert!(Remark::from_json("{\"id\":1").is_err());
        assert!(Remark::from_json("not json").is_err());
        let ok = Remark::new(ids::MOVED_TO_STACK, RemarkKind::Passed, "f", "m").to_json();
        assert!(Remark::from_json(&ok).is_ok());
    }
}
