//! Doc-drift guard for `docs/SERVE.md`: every fenced ```json block in
//! the protocol spec must stay wire truth.
//!
//! The contract, shared with the doc's preamble:
//!
//! * every block parses as JSON;
//! * a block that is an object with an `"op"` member and no `"schema"`
//!   member is a **request example** — it is replayed, in document
//!   order, against one fresh [`Session`];
//! * a block whose `"schema"` is `ompgpu-serve/v1` is a **response
//!   example** — it must match the actual response the replay produced
//!   for the same `id`, byte-for-byte after whitespace normalization;
//! * every protocol op appears among the request examples.
//!
//! Because responses embed per-request cache counters and the `stats`
//! payload embeds running totals, the comparison only works if the doc
//! shows one coherent session transcript — which is exactly what keeps
//! the examples honest.

use omp_gpu::request::FIELDS;
use omp_gpu::serve::{spawn_executor, Session, ALL_OPS, SCHEMA};
use omp_json::Value;
use std::collections::HashMap;

fn spec_text() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/SERVE.md");
    std::fs::read_to_string(path).expect("docs/SERVE.md exists")
}

/// Extracts the contents of every fenced ```json block, in order.
fn json_blocks(text: &str) -> Vec<String> {
    let mut blocks = Vec::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        match &mut current {
            None => {
                if line.trim() == "```json" {
                    current = Some(String::new());
                }
            }
            Some(buf) => {
                if line.trim() == "```" {
                    blocks.push(std::mem::take(buf));
                    current = None;
                } else {
                    buf.push_str(line);
                    buf.push('\n');
                }
            }
        }
    }
    assert!(current.is_none(), "unterminated ```json fence in SERVE.md");
    blocks
}

#[test]
fn serve_md_examples_are_wire_truth() {
    let blocks = json_blocks(&spec_text());
    assert!(
        blocks.len() >= 2 * ALL_OPS.len(),
        "SERVE.md should carry a request and a response example per op, \
         found only {} json blocks",
        blocks.len()
    );

    // Replay through a real executor (not Session::handle_line
    // directly) so the stats example's batching counters match a live
    // daemon's transcript.
    let (handle, executor) = spawn_executor(Session::default());
    let mut actual_by_id: HashMap<u64, String> = HashMap::new();
    let mut ops_seen: Vec<String> = Vec::new();
    let mut responses_checked = 0usize;

    for (i, block) in blocks.iter().enumerate() {
        let v = omp_json::parse(block)
            .unwrap_or_else(|e| panic!("SERVE.md json block #{i} does not parse: {e}"));
        let is_response = v.get("schema").and_then(Value::as_str) == Some(SCHEMA);
        if is_response {
            let op = v.get("op").and_then(Value::as_str);
            assert!(
                op.is_none() || ALL_OPS.contains(&op.unwrap()),
                "response example #{i} documents unknown op {op:?}"
            );
            for key in ["id", "op", "ok", "exit_code", "cache"] {
                assert!(
                    v.get(key).is_some(),
                    "response example #{i} lacks the envelope member {key:?}"
                );
            }
            let id = v
                .get("id")
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("response example #{i} needs a numeric id to pair it"));
            let actual = actual_by_id
                .get(&id)
                .unwrap_or_else(|| panic!("response example #{i} (id {id}) precedes its request"));
            assert_eq!(
                &v.to_json(),
                actual,
                "response example #{i} (id {id}) drifted from the actual wire bytes \
                 — regenerate the SERVE.md examples"
            );
            responses_checked += 1;
        } else if let Some(op) = v.get("op").and_then(Value::as_str) {
            // A request example: replay it. Re-serializing the parsed
            // block yields the single-line wire form of the
            // pretty-printed doc text.
            let response = handle.request(&v.to_json());
            let resp = omp_json::parse(&response).expect("server response parses");
            let exit = resp.get("exit_code").and_then(Value::as_u64).unwrap();
            assert_ne!(
                exit, 2,
                "request example #{i} (op {op:?}) is rejected as a usage error: {response}"
            );
            if let Some(id) = v.get("id").and_then(Value::as_u64) {
                actual_by_id.insert(id, response);
            }
            ops_seen.push(op.to_string());
        }
        // Other json blocks (if any) only need to parse.
    }

    drop(handle);
    let _ = executor.join();

    for op in ALL_OPS {
        assert!(
            ops_seen.iter().any(|o| o == op),
            "SERVE.md has no request example for op {op:?}"
        );
    }
    assert!(
        responses_checked >= ALL_OPS.len(),
        "SERVE.md verified only {responses_checked} response examples"
    );
}

#[test]
fn serve_md_documents_every_exit_code_and_config() {
    let text = spec_text();
    for code in 0..=9u8 {
        assert!(
            text.lines().any(|l| l.contains(&format!("| {code} |"))),
            "SERVE.md exit-code table lacks code {code}"
        );
    }
    for config in omp_gpu::BuildConfig::ALL {
        assert!(
            text.contains(config.cli_name()),
            "SERVE.md never mentions config {:?}",
            config.cli_name()
        );
    }
}

/// The "Requests" table documents exactly the wire keys of the request
/// field table: a row without a field, or a field without a row, fails.
#[test]
fn serve_md_requests_table_is_the_field_table() {
    let text = spec_text();
    let section = text
        .split("\n## Requests\n")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("SERVE.md has a Requests section");
    // First cells name one or more keys: "| `teams`, `threads` | ...".
    let mut documented: Vec<&str> = section
        .lines()
        .filter(|l| l.starts_with("| `"))
        .flat_map(|l| l.split('|').nth(1).unwrap().split('`').skip(1).step_by(2))
        .collect();
    documented.sort_unstable();
    let mut keys: Vec<&str> = FIELDS
        .iter()
        .map(|f| f.key)
        .filter(|k| !k.is_empty())
        .collect();
    keys.sort_unstable();
    assert_eq!(
        documented, keys,
        "SERVE.md's Requests table and request::FIELDS disagree"
    );
}
