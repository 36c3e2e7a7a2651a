#!/usr/bin/env sh
# Tier-1 gate: formatting, lints, and the full test suite — entirely
# offline (the workspace has no registry dependencies; proptest
# resolves to the in-tree shim).
#
#   tools/ci.sh          # run everything
#   tools/ci.sh fmt      # one stage: fmt | clippy | doc | test | smoke | benchcheck
#   tools/ci.sh bench [ARGS]   # = bash benchmark/run.sh ARGS
#
# Exits non-zero on the first failing stage. The `bench` stage runs the
# repository benchmark (benchmark/README.md) and is not part of the
# gating `all` run; `benchcheck` (fmt, clippy and unit tests of the
# standalone benchmark package, which compiles against this
# workspace's public API) is. The `smoke` stage checks that nothing in
# the workspace calls the benchmark-only compatibility names, runs
# `ompgpu profile` on one proxy and validates the emitted Chrome trace
# with `ompgpu json-validate`,
# runs the device sanitizer over a proxy's full config matrix and the
# fault-injection self-test, round-trips the `ompgpu serve` daemon
# (two client passes over a Unix socket: the second must hit the warm
# caches and leave the daemon's peak RSS below one device arena, a
# `compile` reply with its remarks must pass `ompgpu json-validate`,
# `ompgpu run --json` must print the daemon's `result.stats` for the
# same launch byte for byte, shutdown must be clean), checks the telemetry surface
# (metrics op, access log, --telemetry artifact, unknown-schema exit
# code), feeds `ompgpu json-validate` a file of 200,000 `[` (exit 1
# with the reader's nesting error, not a signal), feeds `ompgpu build`
# a 20,000-term operator chain and 120 nested 120-term groups (exit 1
# with the parser's nesting error, not a signal), and runs a chaos leg (4 concurrent clients of mixed
# good/malformed/fault-injected traffic against a tiny admission
# queue; every reply structured, warm==cold afterwards, no panics,
# clean shutdown), and builds a generated 64-kernel unit twice in two
# processes, failing if the printed IR differs, and regenerates the
# paper tables `fig9` and `ablations` in release, failing unless each
# matches its `docs/outputs/` copy byte for byte; it IS part of `all`.

set -eu

cd "$(dirname "$0")/.."

# Never touch the network, even if a stray registry dep sneaks in:
# fail fast instead of hanging on a download.
export CARGO_NET_OFFLINE=true

stage="${1:-all}"

run_fmt() {
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check
}

run_clippy() {
    echo "==> cargo clippy -D warnings"
    cargo clippy --workspace --all-targets --offline -- -D warnings
}

# Runs a test leg under `timeout` where the host has one, so a hung
# worker rendezvous fails the stage with a name instead of stalling it.
#   with_timeout SECS WHAT CMD [ARGS]...
with_timeout() {
    secs="$1"
    what="$2"
    shift 2
    command -v timeout > /dev/null 2>&1 || {
        "$@"
        return
    }
    rc=0
    timeout "$secs" "$@" || rc=$?
    [ "$rc" -ne 124 ] || echo "$what: timed out after ${secs}s (a hung worker rendezvous?)" >&2
    return "$rc"
}

run_doc() {
    # Rustdoc with warnings denied: a renamed or private intra-doc link
    # fails here instead of rotting.
    echo "==> cargo doc -D warnings"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
}

run_test() {
    echo "==> cargo test -q"
    # Build first, so the bound below covers running the tests only.
    cargo test -q --workspace --offline --no-run
    # The fused-vs-unfused legs run in-process inside the suite:
    # `sim_counts.rs` checks the proxy counts golden on both tiers, and
    # `tier_observers.rs` compares the verify report, the profiles and
    # the findings of the two tiers.
    with_timeout 1800 "cargo test" cargo test -q --workspace --offline
}

run_bench() {
    # The repository benchmark (see benchmark/README.md): every
    # workload untraced and traced, or one run with --workload/--trace.
    bash benchmark/run.sh "$@"
}

run_benchmark_check() {
    # The benchmark is a workspace of its own compiled against this
    # one's public items: fmt + clippy -D warnings + its unit tests, so
    # an API change that breaks it fails here, not in the bench run.
    echo "==> benchmark/check.sh (standalone benchmark package)"
    bash benchmark/check.sh
}

run_smoke() {
    echo "==> benchmark-only names smoke (no caller in the workspace)"
    # `OwnedDevice` and the `launch_plan*` projections of `Device::launch`
    # exist only for the standalone benchmark package, until its refresh
    # moves it to `Device::new(Arc<Module>, ..)` and `Device::launch`.
    # crates/gpusim/src/compat.rs defines them; nothing else may name them.
    compat_uses="$(grep -rnwIE 'OwnedDevice|launch_plan|launch_plan_profiled|launch_plan_checked' \
        crates tests examples | grep -v '^crates/gpusim/src/compat\.rs:' || true)"
    [ -z "$compat_uses" ] || {
        echo "smoke: benchmark-only names used outside crates/gpusim/src/compat.rs:" >&2
        printf '%s\n' "$compat_uses" >&2
        exit 1
    }
    echo "smoke: benchmark-only names confined to crates/gpusim/src/compat.rs"

    echo "==> ompgpu profile smoke (proxy + chrome trace)"
    trace="$(mktemp -t ompgpu-trace.XXXXXX.json)"
    trap 'rm -f "$trace"' EXIT
    # The profile subcommand validates the trace JSON itself and exits
    # non-zero on any build/interpreter/validation error; `set -eu`
    # turns that into a stage failure.
    cargo run -q -p omp-gpu --bin ompgpu --offline -- \
        profile --proxy su3bench --scale small --config dev \
        --trace "$trace" > /dev/null
    # Belt and braces: the artifact on disk must read back through the
    # one JSON reader (`json-validate` exits non-zero otherwise) and
    # carry the trace-event envelope Perfetto expects.
    [ -s "$trace" ] || { echo "smoke: trace file missing/empty" >&2; exit 1; }
    cargo run -q -p omp-gpu --bin ompgpu --offline -- json-validate "$trace" > /dev/null
    grep -q '"traceEvents"' "$trace" || {
        echo "smoke: trace lacks traceEvents envelope" >&2
        exit 1
    }
    echo "smoke: trace OK ($(wc -c < "$trace") bytes)"

    echo "==> ompgpu sanitize smoke (proxy matrix + fault-injection self-test)"
    # Every config of a real proxy must come back sanitizer-clean: no
    # races, no divergence, no memory-state findings anywhere in the
    # ablation matrix. Exit code 5 (findings) or 3 (sim error) fails
    # the stage via `set -eu`.
    cargo run -q -p omp-gpu --bin ompgpu --offline -- \
        sanitize --proxy xsbench --scale small --all-configs > /dev/null
    echo "smoke: sanitize matrix clean (xsbench, all configs)"
    # The self-test injects faults (alloc failure, trap, team abort,
    # capped shared stack) and checks each degrades into the expected
    # structured error, identically across worker-thread counts.
    cargo run -q -p omp-gpu --bin ompgpu --offline -- \
        sanitize --self-test > /dev/null
    echo "smoke: fault-injection self-test passed"

    echo "==> ompgpu observer smoke (profile --json + sanitize --json exit codes)"
    # `tier_observers.rs` compares both reports across tiers; here the
    # binary must exit 0 for a profile and 5 for race.c's findings.
    cargo build -q -p omp-gpu --bin ompgpu --offline
    rc=0
    target/debug/ompgpu profile --proxy RSBench --scale small --json > /dev/null || rc=$?
    [ "$rc" -eq 0 ] || { echo "smoke: profile exited $rc, want 0" >&2; exit 1; }
    rc=0
    target/debug/ompgpu sanitize tests/fixtures/sanitize/race.c --json > /dev/null || rc=$?
    [ "$rc" -eq 5 ] || { echo "smoke: sanitize race.c exited $rc, want 5" >&2; exit 1; }
    echo "smoke: profile exits 0, sanitize race.c exits 5"
    # Two generic kernels meeting in one module: region ids are
    # module-wide, so `kb` dispatches its own regions (108.0, not 101.0).
    target/debug/ompgpu run tests/fixtures/multi_kernel/shared_region.c \
        --kernel kb --config dev --teams 2 --threads 8 \
        --arg buf:f64:32 --arg i64:2 --arg i64:8 --dump 4 |
        grep -q '108\.0, 108\.0, 108\.0, 108\.0' || {
        echo "smoke: shared_region.c kernel kb did not compute 108.0" >&2
        exit 1
    }
    echo "smoke: kernels sharing a region dispatch their own"

    echo "==> ompgpu serve smoke (daemon round-trip, warm second pass)"
    # Two client passes over a live daemon: the second must answer from
    # the warm caches, the shutdown must be acknowledged, and the
    # daemon must exit 0 and remove its socket. Everything is bounded:
    # launches run under the serve session's default 60s watchdog and
    # the daemon is killed if it outlives the checks.
    cargo build -q -p omp-gpu --bin ompgpu --offline
    ompgpu_bin=target/debug/ompgpu
    serve_dir="$(mktemp -d -t ompgpu-serve.XXXXXX)"
    serve_sock="$serve_dir/serve.sock"
    serve_src="$serve_dir/example.c"
    cat > "$serve_src" <<'EOF'
// oracle-kernel: scale
// oracle-teams: 2
// oracle-threads: 8
// oracle-arg: buf f64 32 iota
// oracle-arg: f64 3.0
// oracle-arg: i64 32
void scale(double* a, double f, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) { a[i] = a[i] * f; }
}
EOF
    access_log="$serve_dir/access.jsonl"
    "$ompgpu_bin" serve --socket "$serve_sock" --access-log "$access_log" \
        2> /dev/null &
    serve_pid=$!
    trap 'rm -f "$trace"; kill "$serve_pid" 2> /dev/null; rm -rf "$serve_dir"' EXIT
    i=0
    while [ ! -S "$serve_sock" ]; do
        i=$((i + 1))
        [ "$i" -le 100 ] || { echo "smoke: serve socket never appeared" >&2; exit 1; }
        sleep 0.1
    done
    serve_req="{\"op\":\"run\",\"path\":\"$serve_src\"}"
    # Client one: cold pass (misses fill the caches).
    printf '%s\n' "$serve_req" | \
        "$ompgpu_bin" client --socket "$serve_sock" > /dev/null
    # Client two: the same request must hit all three tiers.
    warm_resp="$(printf '%s\n' "$serve_req" | \
        "$ompgpu_bin" client --socket "$serve_sock")"
    for tier in frontend optimized device; do
        printf '%s' "$warm_resp" | grep -q "\"$tier\":{\"hits\":[1-9]" || {
            echo "smoke: warm serve pass did not hit the $tier cache:" >&2
            printf '%s\n' "$warm_resp" >&2
            exit 1
        }
    done
    # A compile reply embeds the remark stream: it must read back
    # through the one JSON reader as a serve envelope with remarks.
    compile_reply="$serve_dir/compile.json"
    printf '{"op":"compile","path":"%s"}\n' "$serve_src" |
        "$ompgpu_bin" client --socket "$serve_sock" > "$compile_reply"
    grep -q '"remarks":\[{"id":' "$compile_reply" || {
        echo "smoke: compile reply carries no remarks:" >&2
        cat "$compile_reply" >&2
        exit 1
    }
    "$ompgpu_bin" json-validate "$compile_reply" | grep -q 'ompgpu-serve/v1' || {
        echo "smoke: compile reply did not validate" >&2
        exit 1
    }
    echo "smoke: compile reply with remarks validates"
    # Stats must agree that the session saw cache hits overall.
    "$ompgpu_bin" client --socket "$serve_sock" --stats | \
        grep -q '"total_hits":[1-9]' || {
        echo "smoke: serve stats report no cache hits" >&2
        exit 1
    }
    # The metrics op must expose Prometheus text including the per-op
    # service-time histograms (docs/TELEMETRY.md has the catalog).
    "$ompgpu_bin" client --socket "$serve_sock" --metrics | \
        grep -q 'serve_service_micros_run_bucket' || {
        echo "smoke: metrics op lacks per-op latency histograms" >&2
        exit 1
    }
    echo "smoke: metrics exposition OK"
    # Multi-kernel round-trip: a two-node async pipeline launches its
    # whole plan on every request, so the warm pass (a device-tier hit)
    # must answer with a result byte-identical to the cold pass.
    graph_src="$serve_dir/pipeline.c"
    cat > "$graph_src" <<'EOF'
// oracle-kernel: pipe
// oracle-arg: buf f64 32 pseudo
// oracle-arg: buf f64 32 zero
// oracle-arg: i64 32
void pipe(double* a, double* b, long n) {
  #pragma omp target teams distribute parallel for nowait depend(inout: a) num_teams(2) thread_limit(8)
  for (long i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
  #pragma omp target teams distribute parallel for nowait depend(in: a) depend(out: b) num_teams(2) thread_limit(8)
  for (long i = 0; i < n; i++) { b[i] = a[i] * 2.0; }
}
EOF
    graph_req="{\"op\":\"run\",\"path\":\"$graph_src\"}"
    cold_resp="$(printf '%s\n' "$graph_req" | \
        "$ompgpu_bin" client --socket "$serve_sock")"
    warm_graph_resp="$(printf '%s\n' "$graph_req" | \
        "$ompgpu_bin" client --socket "$serve_sock")"
    # `result` is the envelope's last member on success.
    case "$cold_resp" in *'"ok":true'*'"result":'*) ;; *)
        echo "smoke: cold multi-kernel run failed:" >&2
        printf '%s\n' "$cold_resp" >&2
        exit 1
    esac
    [ "${cold_resp#*\"result\":}" = "${warm_graph_resp#*\"result\":}" ] || {
        echo "smoke: warm multi-kernel result differs from the cold one:" >&2
        printf '%s\n%s\n' "$cold_resp" "$warm_graph_resp" >&2
        exit 1
    }
    printf '%s' "$warm_graph_resp" | grep -q '"device":{"hits":[1-9]' || {
        echo "smoke: warm multi-kernel pass did not hit the device cache:" >&2
        printf '%s\n' "$warm_graph_resp" >&2
        exit 1
    }
    echo "smoke: multi-kernel round-trip OK (warm result identical to cold, device hit)"
    # Footprint gate: by now two warm devices have each been reset for a
    # hit. A reset costs what the previous job wrote, so the daemon's
    # peak RSS stays far below one 64.5 MiB device arena; a reset that
    # touches a whole arena again commits all of it and trips this.
    if [ -r "/proc/$serve_pid/status" ]; then
        hwm_kb="$(awk '/^VmHWM:/ { print $2 }' "/proc/$serve_pid/status")"
        [ "$hwm_kb" -le 49152 ] || {
            echo "smoke: serve peak RSS ${hwm_kb} kB exceeds 48 MiB after two warm device hits" >&2
            exit 1
        }
        echo "smoke: serve footprint OK (VmHWM ${hwm_kb} kB, limit 49152)"
    else
        echo "smoke: serve footprint not checked (no /proc/PID/status on this host)"
    fi
    # CLI == daemon over the real binary and socket: argv and a JSON line
    # decode into one request and run one reducer, so `ompgpu run --json`
    # prints exactly the daemon's `result.stats` for the same launch
    # (`cli_serve_identity.rs` checks the same in-process).
    saxpy="$PWD/examples/omp/saxpy.c"
    cli_stats="$("$ompgpu_bin" run "$saxpy" --kernel saxpy \
        --arg buf:f64:64:pseudo --arg buf:f64:64:iota --arg f64:2.5 --arg i64:64 \
        --json 2> /dev/null)"
    saxpy_resp="$(printf '{"op":"run","path":"%s","kernel":"saxpy","args":%s}\n' "$saxpy" \
        '["buf:f64:64:pseudo","buf:f64:64:iota","f64:2.5","i64:64"]' |
        "$ompgpu_bin" client --socket "$serve_sock")"
    # `stats` is the last member of a `run` result without `dump`.
    daemon_stats="${saxpy_resp#*\"stats\":}"
    daemon_stats="${daemon_stats%\}\}}"
    [ -n "$cli_stats" ] && [ "$cli_stats" = "$daemon_stats" ] || {
        echo "smoke: ompgpu run --json differs from the daemon's result.stats:" >&2
        printf '%s\n%s\n' "$cli_stats" "$saxpy_resp" >&2
        exit 1
    }
    echo "smoke: CLI run --json == daemon result.stats (saxpy)"
    "$ompgpu_bin" client --socket "$serve_sock" --shutdown > /dev/null
    serve_rc=0
    wait "$serve_pid" || serve_rc=$?
    [ "$serve_rc" -eq 0 ] || {
        echo "smoke: serve daemon exited non-zero ($serve_rc)" >&2
        exit 1
    }
    [ ! -e "$serve_sock" ] || {
        echo "smoke: serve socket file survived shutdown" >&2
        exit 1
    }
    echo "smoke: serve round-trip OK (warm hits, clean shutdown)"

    echo "==> ompgpu telemetry smoke (access log + artifacts + exit codes)"
    # The access log must have one JSON record per request and validate
    # as an ompgpu-access-log/v1 artifact (JSON-lines).
    [ -s "$access_log" ] || { echo "smoke: access log missing/empty" >&2; exit 1; }
    "$ompgpu_bin" json-validate "$access_log" | \
        grep -q 'ompgpu-access-log/v1' || {
        echo "smoke: access log did not validate" >&2
        exit 1
    }
    echo "smoke: access log OK ($(wc -l < "$access_log") records)"
    # run --telemetry writes an ompgpu-telemetry/v1 artifact.
    tele="$serve_dir/telemetry.json"
    "$ompgpu_bin" run "$serve_src" --kernel scale --teams 2 --threads 8 \
        --arg buf:f64:32:iota --arg f64:3.0 --arg i64:32 \
        --telemetry "$tele" > /dev/null 2> /dev/null
    "$ompgpu_bin" json-validate "$tele" | grep -q 'ompgpu-telemetry/v1' || {
        echo "smoke: telemetry artifact did not validate" >&2
        exit 1
    }
    # Unknown schema ids must fail with the distinct exit code 6.
    printf '{"schema":"bogus/v0"}\n' > "$serve_dir/bogus.json"
    schema_rc=0
    "$ompgpu_bin" json-validate "$serve_dir/bogus.json" 2> /dev/null || schema_rc=$?
    [ "$schema_rc" -eq 6 ] || {
        echo "smoke: unknown schema id exited $schema_rc, want 6" >&2
        exit 1
    }
    # A document nested past the reader's depth bound (200,000 `[`)
    # must fail as invalid JSON naming the bound (exit 1), not abort
    # on a stack overflow (a signal).
    head -c 200000 /dev/zero | tr '\0' '[' > "$serve_dir/deep.json"
    deep_rc=0
    "$ompgpu_bin" json-validate "$serve_dir/deep.json" > /dev/null \
        2> "$serve_dir/deep.err" || deep_rc=$?
    [ "$deep_rc" -eq 1 ] && grep -q 'nesting deeper than 128' "$serve_dir/deep.err" || {
        echo "smoke: 200,000 nested arrays exited $deep_rc, want 1 and the nesting error" >&2
        exit 1
    }
    # Operator chains nest too. A flat chain of 20,000 terms, and 120
    # nested groups of 120 terms (no chain and no parenthesis depth past
    # 120, a tree some 14,000 levels tall), must fail to build naming
    # the frontend's bound (exit 1), not abort on a stack overflow.
    group="$(yes '+1.0' | head -n 119 | tr -d '\n')"
    {
        printf 'void deep(double* a) {\n  a[0] = 1.0'
        yes '+1.0' | head -n 19999 | tr -d '\n'
        printf ';\n}\n'
    } > "$serve_dir/flat.c"
    {
        printf 'void deep(double* a) {\n  a[0] = '
        yes '(' | head -n 119 | tr -d '\n'
        printf '1.0'
        yes "$group)" | head -n 119 | tr -d '\n'
        printf '%s;\n}\n' "$group"
    } > "$serve_dir/groups.c"
    for shape in flat groups; do
        chain_rc=0
        "$ompgpu_bin" build "$serve_dir/$shape.c" > /dev/null \
            2> "$serve_dir/$shape.err" || chain_rc=$?
        [ "$chain_rc" -eq 1 ] && grep -q 'nesting deeper than 256' "$serve_dir/$shape.err" || {
            echo "smoke: building the $shape operator chain exited $chain_rc, want 1 and the nesting error" >&2
            exit 1
        }
    done
    rm -rf "$serve_dir"
    trap 'rm -f "$trace"' EXIT
    echo "smoke: telemetry OK (artifact, access log, unknown-schema exit 6, deep JSON and operator chains exit 1)"

    echo "==> ompgpu serve chaos smoke (4 clients, mixed traffic, tiny queue)"
    # Four concurrent clients hammer a daemon with a 4-entry admission
    # queue, mixing valid runs, malformed frames, unknown ops, injected
    # stage faults, and already-expired deadlines. Every reply must be a
    # structured ompgpu-serve/v1 envelope, the post-chaos warm answer
    # must be byte-identical to the pre-chaos cold one, no request may
    # panic (serve_panic stays 0 — no panic-mode faults are injected
    # here), and the shutdown must still be clean.
    chaos_dir="$(mktemp -d -t ompgpu-chaos.XXXXXX)"
    chaos_sock="$chaos_dir/chaos.sock"
    chaos_src="$chaos_dir/example.c"
    cat > "$chaos_src" <<'EOF'
// oracle-kernel: scale
// oracle-teams: 2
// oracle-threads: 8
// oracle-arg: buf f64 32 iota
// oracle-arg: f64 3.0
// oracle-arg: i64 32
void scale(double* a, double f, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) { a[i] = a[i] * f; }
}
EOF
    "$ompgpu_bin" serve --socket "$chaos_sock" --queue 4 --deadline-ms 5000 \
        2> /dev/null &
    chaos_pid=$!
    trap 'rm -f "$trace"; kill "$chaos_pid" 2> /dev/null; rm -rf "$chaos_dir"' EXIT
    i=0
    while [ ! -S "$chaos_sock" ]; do
        i=$((i + 1))
        [ "$i" -le 100 ] || { echo "smoke: chaos socket never appeared" >&2; exit 1; }
        sleep 0.1
    done
    chaos_run="{\"op\":\"run\",\"path\":\"$chaos_src\",\"dump\":4}"
    # Cold pass before the storm: the reference result bytes.
    cold_resp="$(printf '%s\n' "$chaos_run" | \
        "$ompgpu_bin" client --socket "$chaos_sock")"
    printf '%s' "$cold_resp" | grep -q '"ok":true' || {
        echo "smoke: chaos cold pass failed: $cold_resp" >&2
        exit 1
    }
    n=0
    chaos_pids=""
    while [ "$n" -lt 4 ]; do
        (
            loop=0
            while [ "$loop" -lt 3 ]; do
                # The batch mixes expected exit codes 0/1/2/3/7, so the
                # client's worst-code exit is nonzero by design; what is
                # gated is the replies themselves, collected below.
                {
                    printf '%s\n' "$chaos_run"
                    printf '{"op":nope\n'
                    printf '{"op":"warp"}\n'
                    printf '{"op":"compile","path":"%s","fault":{"stage":"optimize"}}\n' "$chaos_src"
                    printf '{"op":"run","path":"%s","fault":{"stage":"launch"}}\n' "$chaos_src"
                    printf '{"op":"run","path":"%s","deadline_ms":0}\n' "$chaos_src"
                } | "$ompgpu_bin" client --socket "$chaos_sock" --retries 3 \
                    >> "$chaos_dir/client$n.out" || true
                loop=$((loop + 1))
            done
        ) &
        chaos_pids="$chaos_pids $!"
        n=$((n + 1))
    done
    for pid in $chaos_pids; do
        wait "$pid" || { echo "smoke: chaos client wedged" >&2; exit 1; }
    done
    cat "$chaos_dir"/client*.out > "$chaos_dir/chaos.out"
    replies=$(wc -l < "$chaos_dir/chaos.out")
    [ "$replies" -eq 72 ] || {
        echo "smoke: expected 72 chaos replies, got $replies" >&2
        exit 1
    }
    bad=$(grep -cv '"schema":"ompgpu-serve/v1"' "$chaos_dir/chaos.out" || true)
    [ "$bad" -eq 0 ] || {
        echo "smoke: $bad chaos replies lacked the envelope schema" >&2
        exit 1
    }
    grep -q '"exit_code":7' "$chaos_dir/chaos.out" || {
        echo "smoke: chaos run never observed a deadline timeout" >&2
        exit 1
    }
    grep -q 'injected fault: optimize stage failure' "$chaos_dir/chaos.out" || {
        echo "smoke: chaos run never observed an injected stage fault" >&2
        exit 1
    }
    # Post-chaos warm answer must be byte-identical to the cold one
    # (compare the result payloads; the cache trace legitimately
    # differs between a miss pass and a hit pass).
    warm_resp="$(printf '%s\n' "$chaos_run" | \
        "$ompgpu_bin" client --socket "$chaos_sock")"
    [ "${warm_resp#*\"result\":}" = "${cold_resp#*\"result\":}" ] || {
        echo "smoke: post-chaos warm result diverged from cold:" >&2
        printf 'cold: %s\nwarm: %s\n' "$cold_resp" "$warm_resp" >&2
        exit 1
    }
    # No panic-mode faults were injected, so panic isolation must have
    # had nothing to do; timeouts were forced, so the counter is live.
    chaos_metrics="$("$ompgpu_bin" client --socket "$chaos_sock" --metrics)"
    printf '%s' "$chaos_metrics" | grep -q 'serve_panic 0' || {
        echo "smoke: serve_panic is nonzero after panic-free chaos" >&2
        exit 1
    }
    printf '%s' "$chaos_metrics" | grep -q 'serve_timeout [1-9]' || {
        echo "smoke: serve_timeout counter never moved" >&2
        exit 1
    }
    "$ompgpu_bin" client --socket "$chaos_sock" --shutdown > /dev/null
    chaos_rc=0
    wait "$chaos_pid" || chaos_rc=$?
    [ "$chaos_rc" -eq 0 ] || {
        echo "smoke: chaos daemon exited non-zero ($chaos_rc)" >&2
        exit 1
    }
    [ ! -e "$chaos_sock" ] || {
        echo "smoke: chaos socket file survived shutdown" >&2
        exit 1
    }
    rm -rf "$chaos_dir"
    trap 'rm -f "$trace"' EXIT
    echo "smoke: chaos OK (72 structured replies, warm==cold, no panics, clean shutdown)"

    echo "==> ompgpu build determinism smoke (64-kernel unit, two processes)"
    # The four single-kernel shapes of examples/omp, renamed k_0..k_63:
    # the same unit crates/core/tests/common builds. Hash-set iteration
    # order is seeded per process, so anything that lets it reach an
    # instruction id (mem2reg's phi placement is the known hazard)
    # prints different IR in two runs.
    unit_dir="$(mktemp -d -t ompgpu-unit.XXXXXX)"
    trap 'rm -f "$trace"; rm -rf "$unit_dir"' EXIT
    n=0
    while [ "$n" -lt 64 ]; do
        case $((n % 4)) in
            0) shape=saxpy.c ;;
            1) shape=local_array.c ;;
            2) shape=team_shared.c ;;
            3) shape=guarded_stores.c ;;
        esac
        grep -v '^//' "examples/omp/$shape" | \
            sed "s/^void [a-z_]*(/void k_$n(/" >> "$unit_dir/unit64.c"
        n=$((n + 1))
    done
    "$ompgpu_bin" build "$unit_dir/unit64.c" --config dev --emit-ir > "$unit_dir/first.ir"
    "$ompgpu_bin" build "$unit_dir/unit64.c" --config dev --emit-ir > "$unit_dir/second.ir"
    grep -q 'source "k_63"' "$unit_dir/first.ir" || {
        echo "smoke: 64-kernel unit did not build all its kernels" >&2
        exit 1
    }
    cmp -s "$unit_dir/first.ir" "$unit_dir/second.ir" || {
        echo "smoke: printed IR of the 64-kernel unit differs between two runs" >&2
        exit 1
    }
    echo "smoke: 64-kernel unit prints identical IR in two runs ($(wc -l < "$unit_dir/first.ir") lines)"
    rm -rf "$unit_dir"
    trap 'rm -f "$trace"' EXIT

    echo "==> paper tables smoke (fig9 and ablations against docs/outputs)"
    # The two tables that regenerate byte for byte. `fig10`, `fig11`
    # and `remarks` have drifted from their committed copies (ROADMAP.md
    # lists the lines to re-baseline) and are not gated here yet.
    cargo build -q --release -p omp-bench --offline
    for table in fig9 ablations; do
        "target/release/$table" --scale bench | cmp -s - "docs/outputs/$table.txt" || {
            echo "smoke: release $table differs from docs/outputs/$table.txt" >&2
            exit 1
        }
    done
    echo "smoke: fig9 and ablations match docs/outputs"
}

case "$stage" in
    fmt) run_fmt ;;
    clippy) run_clippy ;;
    doc) run_doc ;;
    test) run_test ;;
    bench)
        shift
        run_bench "$@"
        ;;
    smoke) run_smoke ;;
    benchcheck) run_benchmark_check ;;
    all)
        run_fmt
        run_clippy
        run_doc
        run_test
        run_smoke
        run_benchmark_check
        echo "==> tier-1 gate passed"
        ;;
    *)
        echo "usage: tools/ci.sh [fmt|clippy|doc|test|smoke|benchcheck|bench [ARGS]]" >&2
        exit 2
        ;;
esac
