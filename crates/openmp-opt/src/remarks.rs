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

use omp_json::{JsonWriter, Value};
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

    /// Serializes the remark as one JSON object into `w` (field order
    /// and spelling are guaranteed; see `docs/remarks.md`).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("id").u32(self.id);
        w.key("kind").string(self.kind.name());
        w.key("pass").string(self.pass);
        w.key("function").string(&self.function);
        match &self.callsite {
            Some(c) => w.key("callsite").string(c),
            None => w.key("callsite").null(),
        };
        w.key("action").string(self.action);
        match self.bytes {
            Some(b) => w.key("bytes").u64(b),
            None => w.key("bytes").null(),
        };
        w.key("message").string(&self.message);
        w.end_object();
    }

    /// Serializes to one stable JSON object ([`Remark::write_json`]).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(128);
        self.write_json(&mut w);
        w.finish()
    }

    /// Parses one remark from its serialized form: any JSON object with
    /// the eight fields of [`Remark::to_json`], in any order.
    pub fn from_json(line: &str) -> Result<Remark, String> {
        Remark::from_value(&omp_json::parse(line)?)
    }

    fn from_value(v: &Value) -> Result<Remark, String> {
        if v.as_object().is_none() {
            return Err("a remark must be a JSON object".into());
        }
        let get = |k: &str| v.get(k).ok_or_else(|| format!("missing field {k:?}"));
        let string = |k: &str| {
            get(k)?
                .as_str()
                .ok_or_else(|| format!("field {k:?} must be a string"))
        };
        let id = get("id")?
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or("field \"id\" must be an integer in the u32 range")?;
        let kind = string("kind")?;
        let kind = RemarkKind::from_name(kind).ok_or_else(|| format!("unknown kind {kind:?}"))?;
        let callsite = match get("callsite")? {
            Value::Null => None,
            c => Some(
                c.as_str()
                    .ok_or("field \"callsite\" must be a string or null")?,
            ),
        };
        let bytes = match get("bytes")? {
            Value::Null => None,
            b => Some(
                b.as_u64()
                    .ok_or("field \"bytes\" must be a non-negative integer or null")?,
            ),
        };
        Ok(Remark {
            id,
            kind,
            pass: intern(&passes::ALL, string("pass")?),
            function: string("function")?.to_string(),
            callsite: callsite.map(str::to_string),
            action: intern(&actions::ALL, string("action")?),
            bytes,
            message: string("message")?.to_string(),
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

    /// All action verbs, in declaration order.
    pub const ALL: [&str; 17] = [
        STACKIFY,
        SHARIFY,
        KEEP_GLOBALIZED,
        SPMDIZE,
        SPMD_BLOCKED,
        REMOVE_DEAD_RUNTIME,
        CUSTOM_STATE_MACHINE,
        STATE_MACHINE_FALLBACK,
        KEEP_STATE_MACHINE,
        FOLD,
        KEEP_EXTERNAL,
        INLINE,
        KEEP_CALL,
        CSE,
        HOIST,
        CAPTURE_REPLAY,
        ASYNC_OVERLAP,
    ];
}

/// The spelling in `known` equal to `s`; an unknown value reads as `""`
/// so old readers accept new streams (`docs/remarks.md`).
fn intern(known: &[&'static str], s: &str) -> &'static str {
    known.iter().find(|k| **k == s).copied().unwrap_or("")
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
        let entries = omp_json::parse_lines(text)?
            .iter()
            .map(|(n, v)| Remark::from_value(v).map_err(|e| format!("line {n}: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(Remarks { entries })
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
        // The spellings are the format: pin every current value.
        assert_eq!(
            passes::ALL,
            [
                "inline",
                "internalize",
                "spmdization",
                "heap-to-stack",
                "heap-to-shared",
                "state-machine",
                "folding",
                "gvn",
                "licm",
                "taskgraph",
                "pipeline",
            ]
        );
        assert_eq!(
            actions::ALL,
            [
                "stackify",
                "sharify",
                "keep-globalized",
                "spmdize",
                "spmd-blocked",
                "remove-dead-runtime",
                "custom-state-machine",
                "state-machine-fallback",
                "keep-state-machine",
                "fold",
                "keep-external",
                "inline",
                "keep-call",
                "cse",
                "hoist",
                "capture-replay",
                "async-overlap",
            ]
        );
        let kinds = [
            (RemarkKind::Passed, "passed"),
            (RemarkKind::Missed, "missed"),
            (RemarkKind::Analysis, "analysis"),
        ];
        let mut rs = Remarks::default();
        for (i, pass) in passes::ALL.into_iter().enumerate() {
            for (j, action) in actions::ALL.into_iter().enumerate() {
                let (kind, name) = kinds[(i + j) % kinds.len()];
                let r = Remark::new(ids::MOVED_TO_STACK, kind, "f", "m")
                    .in_pass(pass)
                    .with_action(action);
                let json = r.to_json();
                for field in [
                    format!("\"kind\":\"{name}\""),
                    format!("\"pass\":\"{pass}\""),
                    format!("\"action\":\"{action}\""),
                ] {
                    assert!(json.contains(&field), "{field} missing in {json}");
                }
                rs.push(r);
            }
        }
        rs.push(
            Remark::new(
                ids::RUNTIME_CALL_FOLDED,
                RemarkKind::Passed,
                "kern",
                "Replacing OpenMP runtime call \"x\" with a constant.\nnewline + tab\t.",
            )
            .in_pass(passes::FOLDING)
            .with_action(actions::FOLD)
            .at("__kmpc_get_warp_size")
            .with_bytes(u64::MAX),
        );
        rs.push(Remark::new(
            u32::MAX,
            RemarkKind::Missed,
            "k\u{1}\u{8}😀",
            "plain",
        ));
        let text = rs.to_json_lines();
        let back = Remarks::from_json_lines(&text).unwrap();
        assert_eq!(back.all(), rs.all());
        // Stability: the serialized key order and spelling are part of
        // the format.
        assert_eq!(
            text.lines().last().unwrap(),
            "{\"id\":4294967295,\"kind\":\"missed\",\"pass\":\"\",\"function\":\"k\\u0001\\u0008😀\",\
             \"callsite\":null,\"action\":\"\",\"bytes\":null,\"message\":\"plain\"}"
        );
    }

    #[test]
    fn json_parser_rejects_malformed_lines() {
        assert!(Remark::from_json("{}").is_err());
        assert!(Remark::from_json("{\"id\":1").is_err());
        assert!(Remark::from_json("not json").is_err());
        assert!(Remark::from_json("[]").is_err());
        for head in [
            "\"id\":170,\"bytes\":18446744073709551616,",
            "\"id\":170.5,\"bytes\":8,",
        ] {
            assert!(Remark::from_json(&line_with(head)).is_err(), "{head}");
        }
        let ok = Remark::new(ids::MOVED_TO_STACK, RemarkKind::Passed, "f", "m").to_json();
        assert!(Remark::from_json(&ok).is_ok());
    }

    /// A valid remark line with `head` spliced in as its first members.
    fn line_with(head: &str) -> String {
        format!(
            "{{{head}\"kind\":\"passed\",\"pass\":\"folding\",\"function\":\"f\",\
             \"callsite\":null,\"action\":\"fold\",\"message\":\"m\"}}"
        )
    }

    #[test]
    fn json_reader_is_strict_json() {
        let ok = line_with("\"id\":170,\"bytes\":8,");
        assert_eq!(Remark::from_json(&ok).unwrap().bytes, Some(8));
        for bad in [
            // Trailing data and a trailing comma.
            format!("{ok} x"),
            format!("{},}}", ok.trim_end_matches('}')),
            // A duplicate key (the first `id` used to win).
            line_with("\"id\":170,\"id\":171,\"bytes\":8,"),
            // Negative and out-of-range numbers (read as 4294967295,
            // u64::MAX and 0 before).
            line_with("\"id\":-1,\"bytes\":8,"),
            line_with("\"id\":170,\"bytes\":-1,"),
            line_with("\"id\":4294967296,\"bytes\":8,"),
        ] {
            assert!(Remark::from_json(&bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn json_reader_decodes_every_escape() {
        // `\b` and `\f` used to decode as the letters, and a surrogate
        // pair as two replacement characters.
        let line = r#"{"id":1,"kind":"analysis","pass":"","function":"a\bb\fc","callsite":"\uD83D\uDE00\/","action":"","bytes":null,"message":"\u00e9"}"#;
        let r = Remark::from_json(line).unwrap();
        assert_eq!(r.function, "a\u{8}b\u{c}c");
        assert_eq!(r.callsite.as_deref(), Some("😀/"));
        assert_eq!(r.message, "é");
    }

    #[test]
    fn unknown_pass_and_action_read_as_empty() {
        let line = line_with("\"id\":1,\"bytes\":null,")
            .replace("\"folding\"", "\"from-the-future\"")
            .replace("\"fold\"", "\"time-travel\"");
        let r = Remark::from_json(&line).unwrap();
        assert_eq!((r.pass, r.action), ("", ""));
    }
}
