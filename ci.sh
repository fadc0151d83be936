#!/usr/bin/env sh
# Offline CI for the ntg workspace: formatting, lints, build, tests.
# Everything here runs with no network access and no external crates.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

# The service path must not grow a sleep or a poll back: `accept`
# blocks in the kernel (the stop-flag watcher and the accept-error
# back-off in http.rs are the only timed waits), the events endpoint
# long-polls on a condition variable, and `watch` loops over it.
echo "==> serve guard: no non-blocking listener, no sleeps on the request path"
if grep -rn 'set_nonblocking' crates/serve/src \
    || grep -n 'thread::sleep' crates/serve/src/server.rs crates/serve/src/bin/ntg-sweep.rs; then
    echo "ci: ntg-serve polls or sleeps again (see above)" >&2
    exit 1
fi

# The daemon runs a campaign the way the CLI does: one run_campaign on
# its worker pool, one shared artifact cache. Sharding + merge is the
# CLI's multi-process feature and must not come back into the daemon.
echo "==> daemon guard: no shards in server.rs"
if grep -nE 'merge_shards|shard:' crates/serve/src/server.rs; then
    echo "ci: the daemon shards campaigns again (see above)" >&2
    exit 1
fi

# A blocked master's wake hint names the one event it waits for
# (`response_visible_at` / `accept_visible_at`, DESIGN §4.9). The
# removed "earliest of either" accessor woke every reader on its read's
# stale acceptance and ticked it until the response: it must not return.
echo "==> hint guard: no next_event_at under crates/"
if grep -rn 'next_event_at' crates; then
    echo "ci: a wake hint reads the earliest channel event again (see above)" >&2
    exit 1
fi

# The crossbar arbitrates over the requests that exist: one decode pass
# per tick, then each lane grants its first requester (DESIGN §4.4).
# The per-lane scan of every master, re-decoding each request at every
# probe, must not come back into the kernel.
echo "==> crossbar guard: no per-lane master scan in crossbar.rs"
if grep -nE 'reject_unmapped|wants_lane' crates/noc/src/crossbar.rs; then
    echo "ci: the crossbar scans every master per lane again (see above)" >&2
    exit 1
fi

# The two fabric kernels against their test-only references on
# generated inputs: the crossbar tick against the per-lane scan, the
# ×pipes switch against the nested scan. Bounded, like the suites below.
echo "==> fabric kernels: crossbar and switch oracles under a timeout"
timeout 300 cargo test -q -p ntg-noc --lib decode_pass_matches_the_per_lane_scan_reference
timeout 300 cargo test -q -p ntg-noc --lib switch_kernel_matches_the_nested_scan_reference

# The hint contract on generated inputs: generated TG programs and
# stochastic sources on every fabric, complete and capped, against the
# dense `step` oracle. Bounded: a lost wake that livelocks the engine
# must fail here, not wedge the workspace stage below.
echo "==> engine equivalence: generated hint suite under a timeout"
timeout 600 cargo test -q -p ntg-workloads --test engine_equivalence generated

# Connection handling under faults and hostile bytes, over real
# sockets. Bounded: a connection thread or an accept loop that hangs
# must fail here, not wedge the workspace stage below.
echo "==> serve faults: http_faults under a timeout"
timeout 120 cargo test -q -p ntg-serve --test http_faults

# Includes ntg-workloads' alloc_count suite: its counting allocator
# keeps per-thread counters, so it runs at the default parallelism.
echo "==> workspace tests"
cargo test --workspace -q

# Srisc core differential, long variant: ten times the generated
# programs of the default suite, CpuCore against the per-cycle RefCore
# (state, statistics, cycle-stamped OCP events). Release and bounded: a
# run-ahead burst that fails to terminate must fail fast, not wedge CI.
echo "==> ntg-cpu differential suite (long, release)"
timeout 300 cargo test --release -q -p ntg-cpu --lib -- --ignored

# Every paper artifact has one path: an ntg-sweep preset plus an
# ntg-report view, an example, or a test. The crate of hand-written
# experiment binaries that duplicated them must not come back.
echo "==> artifact guard: no bench crate"
if [ -e crates/bench ] || grep -rn --exclude-dir=target --exclude-dir=benchmark \
    --include='*.rs' --include='*.toml' --include='*.sh' 'ntg[-_]bench\b' .; then
    echo "ci: the experiment-binary crate is back (see above)" >&2
    exit 1
fi

# Smoke binaries: a sweep dry-run checks campaign expansion. Bounded so
# a hang fails fast instead of wedging CI. The root manifest is a
# package as well as a workspace, so the tier-1 build above does not
# refresh member binaries or examples — build them explicitly or the
# smokes below run a stale ntg-sweep/figure2.
echo "==> cargo build --release --workspace --bins --examples (smoke binaries)"
cargo build --release --workspace --bins --examples

echo "==> sweep smoke: ntg-sweep --dry-run"
timeout 60 ./target/release/ntg-sweep --preset quick --dry-run > /dev/null

# Repo benchmark harness (BENCHMARK.json): a package of its own that
# path-depends on crates/* from outside the workspace, so nothing above
# compiles it. Run it at smoke size with every check on, then its own
# tests, so an API change cannot rot it unnoticed.
echo "==> benchmark harness: run.sh --smoke + cargo test"
timeout 600 benchmark/run.sh --smoke > /dev/null
timeout 900 cargo test --offline -q --manifest-path benchmark/Cargo.toml

# Persistent-store smoke: the same tiny campaign twice against a scratch
# store — the second run must pull every artifact from disk (zero
# builds) and write byte-identical results.
echo "==> store smoke: warm rerun hits the store"
STORE_SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$STORE_SMOKE_DIR"' EXIT
SWEEP="timeout 120 ./target/release/ntg-sweep --workloads mp_matrix:8 --cores 2 --fabrics amba --masters cpu,tg --quiet --store $STORE_SMOKE_DIR/store"
$SWEEP --out "$STORE_SMOKE_DIR/cold.jsonl" | grep -q "traces 1 built"
$SWEEP --out "$STORE_SMOKE_DIR/warm.jsonl" | grep -q "traces 0 built"
cmp "$STORE_SMOKE_DIR/cold.jsonl" "$STORE_SMOKE_DIR/warm.jsonl"

# Shard smoke: two shard processes sharing the store, merged back —
# byte-identical to the single-process file above.
echo "==> store smoke: shard + merge reproduces the single run"
$SWEEP --out "$STORE_SMOKE_DIR/sharded.jsonl" --shard 1/2 > /dev/null
$SWEEP --out "$STORE_SMOKE_DIR/sharded.jsonl" --shard 2/2 > /dev/null
timeout 60 ./target/release/ntg-sweep merge --out "$STORE_SMOKE_DIR/sharded.jsonl" \
    "$STORE_SMOKE_DIR/sharded.jsonl.shard-1-of-2" \
    "$STORE_SMOKE_DIR/sharded.jsonl.shard-2-of-2" > /dev/null
cmp "$STORE_SMOKE_DIR/sharded.jsonl" "$STORE_SMOKE_DIR/cold.jsonl"

# Report smoke: ntg-report over the checked-in mini-campaign must
# reproduce the golden markdown/CSVs byte-for-byte (the golden tests
# assert the same through the library; this drives the actual CLI), and
# the Figure 2 timeline export must be valid Chrome trace_event JSON.
echo "==> report smoke: ntg-report reproduces the goldens"
REPORT_SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$STORE_SMOKE_DIR" "$REPORT_SMOKE_DIR"' EXIT
timeout 60 ./target/release/ntg-report crates/report/tests/data/mini.jsonl \
    --md "$REPORT_SMOKE_DIR/mini.md" --csv "$REPORT_SMOKE_DIR" 2> /dev/null
cmp "$REPORT_SMOKE_DIR/mini.md" crates/report/tests/golden/mini.md
for f in table2 rankings pareto saturation; do
    cmp "$REPORT_SMOKE_DIR/$f.csv" "crates/report/tests/golden/$f.csv"
done

# Table 2 at the quick scale: the `table2` preset with four smaller
# workload sizes runs the whole trace → translate → replay flow. Its
# canonical JSONL (ref cycles, cycles, err %, verified per row) is
# checked-in output and must match byte for byte; a golden-model
# mismatch already makes ntg-sweep exit non-zero. Regenerate only for
# an intended change of simulated behaviour:
#   ./target/release/ntg-sweep --preset table2 \
#       --workloads sp_matrix:8,cacheloop:5000,mp_matrix:12,des:4 --repeats 1 \
#       --no-store --threads 2 --quiet --out crates/report/tests/data/table2-quick.jsonl
#   rm crates/report/tests/data/table2-quick.jsonl.*.jsonl
echo "==> table2 smoke: quick-scale preset reproduces the golden"
timeout 300 ./target/release/ntg-sweep --preset table2 \
    --workloads sp_matrix:8,cacheloop:5000,mp_matrix:12,des:4 --repeats 1 \
    --no-store --threads 2 --quiet --out "$REPORT_SMOKE_DIR/table2-quick.jsonl" > /dev/null
cmp "$REPORT_SMOKE_DIR/table2-quick.jsonl" crates/report/tests/data/table2-quick.jsonl
timeout 60 ./target/release/ntg-report crates/report/tests/data/table2-quick.jsonl \
    2> /dev/null | grep -q '^38 jobs .*, 0 failed\.'

# Synthetic smoke: a tiny λ-sweep on the ideal interconnect must be
# deterministic (two runs, byte-identical canonical files) and the
# report CLI must reproduce the checked-in synthetic goldens from the
# checked-in synthetic mini-campaign.
echo "==> synthetic smoke: deterministic lambda-sweep + golden report"
SYN_SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$STORE_SMOKE_DIR" "$REPORT_SMOKE_DIR" "$SYN_SMOKE_DIR"' EXIT
SYNSWEEP="timeout 120 ./target/release/ntg-sweep --workloads synthetic:32 \
    --cores 2 --fabrics ideal --masters synthetic --patterns uniform,neighbor \
    --shapes bernoulli --rates 0.05,0.2 --no-store --quiet"
$SYNSWEEP --out "$SYN_SMOKE_DIR/a.jsonl" > /dev/null
$SYNSWEEP --out "$SYN_SMOKE_DIR/b.jsonl" > /dev/null
cmp "$SYN_SMOKE_DIR/a.jsonl" "$SYN_SMOKE_DIR/b.jsonl"
grep -q '"offered_rate":0\.' "$SYN_SMOKE_DIR/a.jsonl"
timeout 60 ./target/release/ntg-report crates/report/tests/data/synmini.jsonl \
    --md "$SYN_SMOKE_DIR/report.md" --csv "$SYN_SMOKE_DIR" 2> /dev/null
cmp "$SYN_SMOKE_DIR/report.md" crates/report/tests/golden/synmini/report.md
cmp "$SYN_SMOKE_DIR/saturation.csv" crates/report/tests/golden/synmini/saturation.csv

# Mesh smoke: a campaign over both mesh axes — an explicit `xpipes:WxH`
# fabric and the `--mesh-sizes` append — must be deterministic: two
# runs, byte-identical canonical files and metrics sidecars.
echo "==> mesh smoke: deterministic xpipes:WxH + --mesh-sizes campaign"
MESH_SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$STORE_SMOKE_DIR" "$REPORT_SMOKE_DIR" "$SYN_SMOKE_DIR" "$MESH_SMOKE_DIR"' EXIT
MSWEEP="timeout 300 ./target/release/ntg-sweep --workloads synthetic:48 \
    --cores 4 --fabrics xpipes:4x4 --mesh-sizes 6x6 --masters synthetic \
    --patterns transpose --shapes bernoulli --rates 0.1 --no-store --quiet"
$MSWEEP --out "$MESH_SMOKE_DIR/a.jsonl" > /dev/null
$MSWEEP --out "$MESH_SMOKE_DIR/b.jsonl" > /dev/null
cmp "$MESH_SMOKE_DIR/a.jsonl" "$MESH_SMOKE_DIR/b.jsonl"
cmp "$MESH_SMOKE_DIR/a.jsonl.metrics.jsonl" "$MESH_SMOKE_DIR/b.jsonl.metrics.jsonl"

echo "==> report smoke: figure2 timelines parse as JSON"
timeout 120 ./target/release/examples/figure2 "$REPORT_SMOKE_DIR" > /dev/null
python3 - "$REPORT_SMOKE_DIR" <<'PYEOF'
import json, sys, os
for name in ("figure2a.trace.json", "figure2b.trace.json"):
    doc = json.load(open(os.path.join(sys.argv[1], name)))
    assert doc["displayTimeUnit"] == "ns", name
    events = doc["traceEvents"]
    assert any(e["ph"] == "X" for e in events), f"{name}: no transactions"
    assert any(e["ph"] == "M" for e in events), f"{name}: no track names"
print("figure2 timelines OK")
PYEOF

# Campaign-service smoke: an ntg-serve daemon on an ephemeral loopback
# port, a 12-job campaign submitted / watched / fetched through the
# ntg-sweep client — the fetched canonical file must be byte-identical
# to a local run of the same spec, `watch` must have printed one line
# per event of the job, the last of them `done`, and the daemon's `cache`
# event must report as many trace builds as the local cold run. Then the tiered
# store: a cold run publishes every artifact to the daemon, a warm run
# from an empty local store rebuilds nothing (the remote counters prove
# it).
echo "==> serve smoke: submit/watch/fetch matches local run"
SERVE_SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$STORE_SMOKE_DIR" "$REPORT_SMOKE_DIR" "$SYN_SMOKE_DIR" "$MESH_SMOKE_DIR" "$SERVE_SMOKE_DIR"; kill "${SERVE_PID:-0}" 2> /dev/null || true' EXIT
./target/release/ntg-serve --listen 127.0.0.1:0 --data "$SERVE_SMOKE_DIR/data" \
    --workers 2 --addr-file "$SERVE_SMOKE_DIR/addr" --quiet > /dev/null &
SERVE_PID=$!
for _ in $(seq 100); do [ -s "$SERVE_SMOKE_DIR/addr" ] && break; sleep 0.1; done
ADDR=$(cat "$SERVE_SMOKE_DIR/addr")
SPEC_AXES="--workloads mp_matrix:8,cacheloop:500 --cores 2 --fabrics amba,xpipes \
    --masters cpu,tg,stochastic"
timeout 300 ./target/release/ntg-sweep $SPEC_AXES --no-store --quiet \
    --out "$SERVE_SMOKE_DIR/local.jsonl" > "$SERVE_SMOKE_DIR/local.txt"
LOCAL_TRACES=$(sed -n 's/^cache: traces \([0-9]*\) built.*/\1/p' "$SERVE_SMOKE_DIR/local.txt")
timeout 60 ./target/release/ntg-sweep submit --server "$ADDR" $SPEC_AXES \
    > "$SERVE_SMOKE_DIR/submit.txt"
JOB=$(sed -n 's/^job \([0-9a-f]*\):.*/\1/p' "$SERVE_SMOKE_DIR/submit.txt")
timeout 300 ./target/release/ntg-sweep watch --server "$ADDR" "$JOB" \
    > "$SERVE_SMOKE_DIR/watch.txt"
tail -n 1 "$SERVE_SMOKE_DIR/watch.txt" | grep -q '"event":"done"'
python3 -c 'import sys, urllib.request as u
# Loopback only: never through a proxy the environment may name.
sys.stdout.buffer.write(u.build_opener(u.ProxyHandler({})).open(sys.argv[1]).read())' \
    "http://$ADDR/jobs/$JOB/events" > "$SERVE_SMOKE_DIR/events.txt"
[ "$(wc -l < "$SERVE_SMOKE_DIR/watch.txt")" -eq "$(wc -l < "$SERVE_SMOKE_DIR/events.txt")" ]
SERVED_TRACES=$(python3 -c 'import json, sys
print(next(e["traces_built"] for e in map(json.loads, open(sys.argv[1])) if e["event"] == "cache"))' \
    "$SERVE_SMOKE_DIR/events.txt")
[ -n "$LOCAL_TRACES" ]
[ "$SERVED_TRACES" = "$LOCAL_TRACES" ]
timeout 60 ./target/release/ntg-sweep fetch --server "$ADDR" "$JOB" \
    --out "$SERVE_SMOKE_DIR/fetched.jsonl" > /dev/null
cmp "$SERVE_SMOKE_DIR/fetched.jsonl" "$SERVE_SMOKE_DIR/local.jsonl"
timeout 60 ./target/release/ntg-sweep fetch --server "$ADDR" "$JOB" --view table2 \
    | grep -q mp_matrix

echo "==> serve smoke: warm remote store rebuilds nothing"
RSWEEP="timeout 300 ./target/release/ntg-sweep $SPEC_AXES --quiet --remote $ADDR"
$RSWEEP --store "$SERVE_SMOKE_DIR/store-a" --out "$SERVE_SMOKE_DIR/cold.jsonl" \
    | grep -q "remote 0 hits / 4 misses / 4 published / 0 errors"
$RSWEEP --store "$SERVE_SMOKE_DIR/store-b" --out "$SERVE_SMOKE_DIR/warm.jsonl" \
    > "$SERVE_SMOKE_DIR/warm.txt"
grep -q "remote 4 hits / 0 misses / 0 published / 0 errors" "$SERVE_SMOKE_DIR/warm.txt"
grep -q "traces 0 built" "$SERVE_SMOKE_DIR/warm.txt"
grep -q "TG binaries 0 built" "$SERVE_SMOKE_DIR/warm.txt"
cmp "$SERVE_SMOKE_DIR/cold.jsonl" "$SERVE_SMOKE_DIR/warm.jsonl"
cmp "$SERVE_SMOKE_DIR/cold.jsonl" "$SERVE_SMOKE_DIR/local.jsonl"
timeout 60 ./target/release/ntg-sweep store stats --store "$SERVE_SMOKE_DIR/store-b" \
    | grep -q "4 entries"
kill "$SERVE_PID"
wait "$SERVE_PID" 2> /dev/null || true

echo "CI OK"
