#!/usr/bin/env bash
# CI gate for the tempstream workspace. Runs entirely offline:
#   1. formatting check
#   2. clippy, warnings denied (workspace lint set in Cargo.toml)
#   3. source lint: runtime synchronization must go through the sync
#      shim (schedule-checker soundness), stages never read the clock
#   4. exhaustive protocol model check (tables proved before simulation)
#   5. schedule model check: bounded-preemption + seeded-random
#      exploration of the runtime primitives, plus the mutation gate
#      (the checker must still CATCH an injected lost notify_one)
#   6. tier-1 build + test suite
#   7. determinism gate: `reproduce all --quick` must print
#      byte-identical stdout at --jobs 1 and --jobs 4 (one pool thread
#      vs. up to four, one per core; a visible SKIP on a 1-core host,
#      where both runs get the same single thread)
#   8. engine differential gate: the unified AnalysisEngine fed
#      incrementally in interleaved chunks (with snapshots between
#      chunks) must digest byte-identically to one batch feed
#   9. metrics gate: --metrics-json emits valid JSON with the expected
#      top-level keys and leaves stdout untouched, and its runtime
#      summary reports min(--jobs, host cores) workers
#  10. serve soak gates: a live server on loopback, driven by the
#      in-tree load generator with --verify (online answers must match
#      the offline batch comparator bit-exactly); the metrics snapshot
#      must account for every frame received by its outcome and show
#      every ingested record applied and every cut timed per shard, and
#      the server must drain cleanly.
#      Run twice over the same client loop, with QueryDelta probes
#      interleaved into the ingest: one frame in flight (--window 1),
#      then eight (--window 8)
#  11. serve throughput gate: over five alternating pairs of runs, each
#      against a fresh server, the median ratio of pipelined
#      (--window 8) to single-in-flight throughput must not fall below
#      1.0 (0.8 on one core), and the server's most requests decoded
#      from one read must be exactly 1 at window 1 and at least 2 at
#      window 8
#  12. perf smoke gate: the pipeline at 4 workers must not be slower
#      than at 1 worker (reduced sample count via
#      TEMPSTREAM_BENCH_SAMPLES), plus the serve ingest bench emitting
#      BENCH_serve.json (pipelined 1/2/4-shard runs and the
#      multi-connection scaling pair, gated core-aware)
#
# Opt-in: `./ci.sh --sanitize` appends a sanitizer stage (TSan with an
# instrumented std, or Miri, whichever toolchain components exist;
# prints a visible SKIP when neither can run offline).
set -euo pipefail
cd "$(dirname "$0")"

SANITIZE=0
for arg in "$@"; do
  case "$arg" in
    --sanitize) SANITIZE=1 ;;
    *) echo "ci.sh: unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "== fmt =="
cargo fmt --all --check

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== lint-sources: sync-shim discipline =="
cargo run -q -p tempstream-checker --bin lint-sources

echo "== protocol model check =="
cargo test -q -p tempstream-checker
cargo run -q -p tempstream-checker --bin check-protocols

echo "== schedule model check =="
# Exhaustive bounded-preemption DFS + seeded random sweeps over the
# closed models of the runtime's deque and pool and the server's
# routing lanes and reply queue; any counterexample prints
# a minimal replayable schedule. The time box degrades the random
# sweeps, never the exhaustive 2-thread proofs.
cargo run -q --release -p tempstream-schedcheck --bin check-schedules -- --budget-secs 120
# Mutation gate: the checker must still catch a dropped notify_one.
cargo run -q --release -p tempstream-schedcheck --bin check-schedules -- --expect-mutation

echo "== tier-1: build + tests =="
cargo build --release
cargo test -q

echo "== determinism gate: reproduce --jobs 1 vs --jobs 4 =="
# The lint gate above already covers every workspace crate (including
# tempstream-runtime, picked up by the crates/* glob); here the release
# binary must emit byte-identical stdout at any worker count. Summaries
# and progress go to stderr by design so stdout can be diffed.
det_dir=$(mktemp -d)
trap 'rm -rf "$det_dir"' EXIT

# Starts `serve --shards 2` plus any further arguments in the
# background with stdout in "$1" and stderr in "$2"; sets serve_pid, and
# serve_addr once the server prints LISTENING (empty if it never does
# within 10 s).
start_server() {
  ./target/release/serve --shards 2 "${@:3}" >"$1" 2>"$2" &
  serve_pid=$!
  serve_addr=""
  for _ in $(seq 1 100); do
    serve_addr=$(awk '/^LISTENING /{ print $2 }' "$1")
    [ -n "$serve_addr" ] && break
    sleep 0.1
  done
}
# The pool clamps workers to the host's cores, so on one core both runs
# get the same single thread and the diff could not fail: skip visibly.
if [ "$(nproc 2>/dev/null || echo 1)" -le 1 ]; then
  echo "determinism gate: SKIP (1 core: --jobs 1 and --jobs 4 both run one pool thread)"
else
  ./target/release/reproduce all --quick --jobs 1 >"$det_dir/jobs1.out" 2>/dev/null
  ./target/release/reproduce all --quick --jobs 4 >"$det_dir/jobs4.out" 2>/dev/null
  diff "$det_dir/jobs1.out" "$det_dir/jobs4.out" \
    || { echo "determinism gate FAILED: --jobs 4 output differs from --jobs 1"; exit 1; }
fi

echo "== engine differential gate: incremental vs batch =="
# The unified AnalysisEngine (core::engine) fed in K interleaved chunks
# — snapshotting every accessor between chunks, as the online server
# does — must print a byte-identical digest to one batch feed (K=1).
# This is what entitles serve::offline to verify the server with the
# same engine: incremental-vs-batch identity is pinned here, transport
# correctness there.
./target/release/engine_diff --chunks 1 >"$det_dir/engine_batch.out"
for k in 2 7; do
  ./target/release/engine_diff --chunks "$k" >"$det_dir/engine_k$k.out"
  diff "$det_dir/engine_batch.out" "$det_dir/engine_k$k.out" \
    || { echo "engine differential gate FAILED: chunks=$k digest differs from batch"; exit 1; }
done
echo "engine differential: chunks {2,7} digests identical to batch"

echo "== metrics gate: --metrics-json =="
# The flag must write parseable JSON with the documented top-level keys
# while stdout stays byte-identical to a plain run.
./target/release/reproduce fig2 --quick --jobs 2 >"$det_dir/plain.out" 2>/dev/null
./target/release/reproduce fig2 --quick --jobs 2 --metrics-json "$det_dir/metrics.json" \
  >"$det_dir/flagged.out" 2>/dev/null
diff "$det_dir/plain.out" "$det_dir/flagged.out" \
  || { echo "metrics gate FAILED: --metrics-json changed stdout"; exit 1; }
jq -e 'has("meta") and has("metrics") and has("runtime")' "$det_dir/metrics.json" >/dev/null \
  || { echo "metrics gate FAILED: missing top-level keys"; exit 1; }
jq -e '(.metrics.spans | has("stage")) and (.metrics.counters | has("sim")) and (.metrics.gauges | has("sequitur"))' \
  "$det_dir/metrics.json" >/dev/null \
  || { echo "metrics gate FAILED: registry missing stage/sim/sequitur sections"; exit 1; }
jq -e '.metrics.gauges.sequitur.digram_index_bytes > 0' "$det_dir/metrics.json" >/dev/null \
  || { echo "metrics gate FAILED: sequitur/digram_index_bytes gauge missing or zero"; exit 1; }
# The pool runs at most one thread per core, and the summary must
# report the threads that ran, not the --jobs that was asked for.
./target/release/reproduce fig2 --quick --jobs 4 --metrics-json "$det_dir/metrics4.json" \
  >/dev/null 2>&1
jq -e '.runtime.workers == ([.meta.jobs, .meta.host_cores] | min)' "$det_dir/metrics4.json" >/dev/null \
  || { echo "metrics gate FAILED: runtime.workers is not min(jobs, host_cores)"; jq '.meta, .runtime.workers' "$det_dir/metrics4.json"; exit 1; }

echo "== serve soak: loopback ingest + verify + drain (window=1) =="
# A real server process on an ephemeral loopback port, a real client
# with one frame in flight. serve-load --verify recomputes the answers
# offline (same shard hash, same batch stages) and fails on any
# mismatch; one connection makes the check bit-exact, and the
# QueryDelta probes it interleaves into the ingest must telescope to
# the same answers. The snapshot then proves every frame was
# accounted for: the frames received equal those acked, refused with
# Busy, answered with an error, queries and shutdowns, and every
# ingested record was applied and is either in a shard's grammar or
# past its retention cap; every query before the snapshot was a cut
# timed once per shard and once for its merge.
start_server "$det_dir/serve.out" "$det_dir/serve.err"
[ -n "$serve_addr" ] \
  || { echo "serve soak FAILED: server never printed LISTENING"; cat "$det_dir/serve.err"; kill "$serve_pid" 2>/dev/null; exit 1; }
./target/release/serve-load --addr "$serve_addr" --shards 2 --verify \
    --bytes 262144 --batch 256 --metrics-out "$det_dir/serve_metrics.json" --shutdown >/dev/null \
  || { echo "serve soak FAILED: serve-load exited non-zero"; kill "$serve_pid" 2>/dev/null; exit 1; }
wait "$serve_pid" \
  || { echo "serve soak FAILED: server exited non-zero"; exit 1; }
grep -q '^DRAINED$' "$det_dir/serve.out" \
  || { echo "serve soak FAILED: server never reported a clean drain"; exit 1; }
jq -e '.verify == "exact"
       and .window == 1
       and .delta_queries > 0
       and (.metrics.counters.serve as $s
            | $s.frames.acked > 0
              and $s.frames.received == $s.frames.acked + $s.frames.busy + $s.frames.errors
                                        + $s.queries + $s.frames.shutdown)
       and .metrics.counters.serve.records.ingested > 0
       and .metrics.counters.serve.records.ingested == .metrics.counters.serve.records.applied
       and (.metrics.gauges.serve as $g
            | $g.records.in_state == $g.analysis.symbols + $g.records.overflow)
       and ((.metrics.counters.serve.queries - 1) as $cuts
            | .metrics.histograms.serve.query
            | [.shard0.answer_us.count, .shard1.answer_us.count, .merge_us.count]
            | all(. == $cuts))' \
    "$det_dir/serve_metrics.json" >/dev/null \
  || { echo "serve soak FAILED: metrics snapshot rejected"; jq . "$det_dir/serve_metrics.json"; exit 1; }
echo "serve soak: exact verify, $(jq -r '.metrics.counters.serve.records.ingested' "$det_dir/serve_metrics.json") records, $(jq -r '.metrics.counters.serve.frames.received' "$det_dir/serve_metrics.json") frames accounted for, $(jq -r '.delta_queries' "$det_dir/serve_metrics.json") delta queries, clean drain"

echo "== serve soak: pipelined window=8 + incremental deltas =="
# The same soak with eight frames in flight on one connection.
# Verification is still bit-exact: the client reconstructs the ack
# order and telescopes the deltas against the offline comparator.
# Throughput is the next gate's job.
start_server "$det_dir/serve8.out" "$det_dir/serve8.err"
[ -n "$serve_addr" ] \
  || { echo "pipelined soak FAILED: server never printed LISTENING"; cat "$det_dir/serve8.err"; kill "$serve_pid" 2>/dev/null; exit 1; }
./target/release/serve-load --addr "$serve_addr" --shards 2 --verify --window 8 \
    --bytes 262144 --batch 256 --metrics-out "$det_dir/serve8_metrics.json" --shutdown >/dev/null \
  || { echo "pipelined soak FAILED: serve-load exited non-zero"; kill "$serve_pid" 2>/dev/null; exit 1; }
wait "$serve_pid" \
  || { echo "pipelined soak FAILED: server exited non-zero"; exit 1; }
grep -q '^DRAINED$' "$det_dir/serve8.out" \
  || { echo "pipelined soak FAILED: server never reported a clean drain"; exit 1; }
jq -e '.verify == "exact"
       and .window == 8
       and .delta_queries > 0
       and (.metrics.counters.serve as $s
            | $s.frames.acked > 0
              and $s.frames.received == $s.frames.acked + $s.frames.busy + $s.frames.errors
                                        + $s.queries + $s.frames.shutdown)
       and .metrics.counters.serve.records.ingested > 0
       and .metrics.counters.serve.records.ingested == .metrics.counters.serve.records.applied
       and (.metrics.gauges.serve as $g
            | $g.records.in_state == $g.analysis.symbols + $g.records.overflow)
       and ((.metrics.counters.serve.queries - 1) as $cuts
            | .metrics.histograms.serve.query
            | [.shard0.answer_us.count, .shard1.answer_us.count, .merge_us.count]
            | all(. == $cuts))' \
    "$det_dir/serve8_metrics.json" >/dev/null \
  || { echo "pipelined soak FAILED: metrics snapshot rejected"; jq . "$det_dir/serve8_metrics.json"; exit 1; }
echo "pipelined soak: exact verify, $(jq -r '.delta_queries' "$det_dir/serve8_metrics.json") delta queries, clean drain"

echo "== serve throughput: pipelined window=8 vs window=1 =="
# Pipelining must not be slower than one frame in flight — that
# throughput win is the point of the feature. One ~6 ms soak run per
# side cannot tell that apart from host noise, so this gate runs five
# alternating pairs, each run against a fresh server, at 4x the soak's
# bytes (~50k records, ~200 frames) and without --verify, so no
# QueryDelta probes stall the window, and compares the median of the
# per-pair window-8/window-1 ratios: the two runs of a pair are
# adjacent in time, so a drift in host speed cancels out of each ratio.
# Each shard lane holds 256 sub-batches, more than one run sends, so
# Busy backpressure (and the client's backoff after it) cannot decide
# the comparison. On a single CPU there is no idle round-trip time for
# pipelining to hide, so — like the perf smoke gate below — the
# single-core form of the gate only demands the pipelined path stays
# within 20% of the baseline instead of beating it.
# Each run must also show how many frames it kept in flight: the
# server's serve/conn/max_frames_per_read gauge (the most requests one
# connection reader decoded from one read) is exactly 1 when the client
# waits for every reply, and reaches 2 or more only when requests
# overlap.
ratios=""
for run in 1 2 3 4 5; do
  for window in 1 8; do
    # A fresh output file per server: reusing one could hand this run the
    # previous server's LISTENING line before the new one truncates it.
    tput="$det_dir/tput_${run}_w$window"
    start_server "$tput.out" "$tput.err" --shard-queue 256
    [ -n "$serve_addr" ] \
      || { echo "serve throughput FAILED: server never printed LISTENING"; cat "$tput.err"; kill "$serve_pid" 2>/dev/null; exit 1; }
    ./target/release/serve-load --addr "$serve_addr" --shards 2 --window "$window" \
        --bytes 1048576 --batch 256 --metrics-out "$tput.json" --shutdown >/dev/null \
      || { echo "serve throughput FAILED: serve-load exited non-zero (run $run, window $window)"; kill "$serve_pid" 2>/dev/null; exit 1; }
    wait "$serve_pid" \
      || { echo "serve throughput FAILED: server exited non-zero"; exit 1; }
    jq -e --argjson w "$window" '.metrics.gauges.serve.conn.max_frames_per_read
                                  | if $w == 1 then . == 1 else . >= 2 end' "$tput.json" >/dev/null \
      || { echo "serve throughput FAILED: max_frames_per_read $(jq -r '.metrics.gauges.serve.conn.max_frames_per_read' "$tput.json") at window $window (run $run)"; exit 1; }
  done
  ratios="$ratios $(jq -rs '.[1].records_per_sec / .[0].records_per_sec' \
    "$det_dir/tput_${run}_w1.json" "$det_dir/tput_${run}_w8.json")"
done
# One ratio per pair; the list is unquoted on purpose.
ratio=$(printf '%s\n' $ratios | sort -g | awk '{ v[NR] = $1 } END { print v[int((NR + 1) / 2)] }')
cores=$(nproc 2>/dev/null || echo 1)
rps_factor=$([ "$cores" -le 1 ] && echo 0.8 || echo 1.0)
awk -v r="$ratio" -v f="$rps_factor" 'BEGIN { exit !(r >= f) }' \
  || { echo "serve throughput FAILED: median window=8/window=1 throughput ratio $ratio < $rps_factor (pairs:$ratios; cores: $cores)"; exit 1; }
echo "serve throughput: median window=8/window=1 throughput ratio $ratio over pairs$ratios (factor $rps_factor, cores: $cores)"

echo "== perf smoke: parallel/4w vs parallel/1w =="
# Three samples keep this a smoke test, not a benchmark: it exists to
# catch more workers making the pipeline slower, not to measure speedup
# precisely.
TEMPSTREAM_BENCH_SAMPLES=3 TEMPSTREAM_BENCH_DIR="$det_dir" \
  cargo bench -q -p tempstream-bench --bench runtime_scaling >/dev/null
speedup=$(jq -r '.results[] | select(.name == "parallel/4w") | .["speedup_vs_parallel/1w"]' \
  "$det_dir/BENCH_runtime_scaling.json")
cores=$(nproc 2>/dev/null || echo 1)
# With a single CPU, the pool clamps four workers to one thread and
# cannot beat one worker — physically. The gate then only demands the
# two stay within 15% of each other. On multi-core hosts the extra
# workers must actually win.
threshold=$([ "$cores" -le 1 ] && echo 0.85 || echo 1.0)
awk -v s="$speedup" -v t="$threshold" 'BEGIN { exit !(s >= t) }' \
  || { echo "perf smoke FAILED: parallel/4w speedup $speedup < $threshold (cores: $cores)"; exit 1; }
echo "parallel/4w speedup vs parallel/1w: $speedup (threshold $threshold, cores: $cores)"

# Serve ingest throughput: pipelined single-connection runs at 1/2/4
# shards plus the multi-connection pair (ingest-mc/{1,4}shard) that
# reader-side routing exists for. The scaling gate compares the
# multi-connection pair: on a >=4-core host, 4 shards must beat 1 shard
# by 1.5x; on fewer cores sharding cannot win, so the gate only demands
# the 4-shard run stays within 40% of 1 shard (the routing split and
# extra lanes must not cost real throughput when they cannot help).
TEMPSTREAM_BENCH_SAMPLES=3 TEMPSTREAM_BENCH_DIR="$det_dir" \
  cargo bench -q -p tempstream-bench --bench serve_ingest >/dev/null
jq -e '.results | length == 5' "$det_dir/BENCH_serve.json" >/dev/null \
  || { echo "perf smoke FAILED: BENCH_serve.json incomplete"; exit 1; }
mc1=$(jq -r '.results[] | select(.name == "ingest-mc/1shard") | .elements_per_sec' "$det_dir/BENCH_serve.json")
mc4=$(jq -r '.results[] | select(.name == "ingest-mc/4shard") | .elements_per_sec' "$det_dir/BENCH_serve.json")
cores=$(jq -r '.host_cores' "$det_dir/BENCH_serve.json")
scale_threshold=$([ "$cores" -ge 4 ] && echo 1.5 || echo 0.6)
awk -v a="$mc4" -v b="$mc1" -v t="$scale_threshold" 'BEGIN { exit !(a >= b * t) }' \
  || { echo "perf smoke FAILED: ingest-mc/4shard $mc4 rec/s < ${scale_threshold}x ingest-mc/1shard $mc1 rec/s (cores: $cores)"; exit 1; }
echo "serve ingest: $(jq -r '.results[] | "\(.name) \(.elements_per_sec | floor) rec/s"' "$det_dir/BENCH_serve.json" | paste -sd, -)"
echo "serve scaling: mc 4shard/1shard = $(awk -v a="$mc4" -v b="$mc1" 'BEGIN { printf "%.2f", a/b }') (threshold $scale_threshold, cores: $cores)"

if [ "$SANITIZE" = "1" ]; then
  echo "== sanitize (opt-in) =="
  # TSan needs every crate instrumented, including std (-Zbuild-std,
  # which needs the nightly rust-src component); an uninstrumented std
  # hides its futex-based Mutex/Condvar from TSan and floods false
  # positives. Miri is the fallback. Both probes degrade to a VISIBLE
  # skip so an offline container never fails CI for missing tooling.
  host=$(rustc -vV | awk '/^host:/ { print $2 }')
  if rustup toolchain list 2>/dev/null | grep -q '^nightly' \
     && rustup component list --toolchain nightly 2>/dev/null \
        | grep -q '^rust-src.*(installed)'; then
    echo "sanitize: ThreadSanitizer (nightly, instrumented std, $host)"
    RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
      CARGO_TARGET_DIR=target/tsan \
      cargo +nightly test -q -p tempstream-runtime --lib \
        -Zbuild-std --target "$host"
  elif cargo +nightly miri --version >/dev/null 2>&1; then
    echo "sanitize: Miri (nightly)"
    cargo +nightly miri test -q -p tempstream-runtime --lib
  else
    echo "sanitize: SKIPPED — needs nightly with rust-src (TSan) or the"
    echo "          miri component; neither is installed and this CI runs"
    echo "          offline. Install one and re-run ./ci.sh --sanitize."
  fi
fi

echo "CI OK"
