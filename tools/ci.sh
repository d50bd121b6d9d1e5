#!/usr/bin/env bash
# CI for the backsort repo:
#   1. tier-1 verify line (ROADMAP.md): configure, build, run full ctest
#   2. re-run the engine-facing suites against a sharded engine
#      (BACKSORT_SHARDS=4 BACKSORT_FLUSH_WORKERS=2) to catch facade
#      regressions the default single-shard config would hide
#   3. build the concurrency, histogram, chunk-cache, read-path and
#      engine-model tests under ThreadSanitizer and run them (the
#      histogram's relaxed-atomic recording is TSan-clean by design; keep it
#      that way). The read-path tests pin the lock-free query snapshot
#      contract under TSan; sealed memtables are read by queries and the
#      flush worker with no lock, which the concurrency and model suites
#      exercise.
#   4. chunk-cache effectiveness smoke: a small ingest + repeated queries
#      must show a non-zero cache hit rate in the exported metrics, and a
#      run with --chunk-cache-bytes=0 must export a zero capacity
#   5. network smoke: the wire-protocol and server suites under TSan,
#      then a real bstool serve on an ephemeral port answering
#      bstool client ping / write (sequential AND --pipeline=8) /
#      query / metrics before a clean SIGTERM shutdown
#   6. docs: the wire_protocol_docs_test golden suite (docs/
#      WIRE_PROTOCOL.md must match the protocol constants compiled into
#      the binary), then a link check — every relative markdown link in
#      README.md and docs/*.md must resolve
#   7. perf smoke: a scaled-down bench/system_ingest run must show the
#      batched write path at >= 1.5x the per-point path (BENCH_ingest.json
#      "speedup_batched_over_per_point"), and a scaled-down
#      bench/system_net run must show pipelined loopback writes at
#      >= 0.5x in-process throughput (BENCH_system_net.json
#      "pipelined_write_ratio"; full scale measures ~0.8 on one core —
#      the committed reference runs live in bench/baselines/)
#   8. compaction: the compaction suite (and the background-compaction
#      concurrency test) under ThreadSanitizer, a scaled-down
#      bench/system_soak run gated on post-compaction file count staying
#      within the planner's tier bound, zero LWW digest mismatches and
#      ingest throughput >= 0.75x of the compaction-off side (noise
#      margin; full scale measures ~1x, committed at bench/baselines/),
#      and a bstool compact smoke reducing an ingested dir to one file
#   9. aggregation: the statistics-plan differential suite under
#      ThreadSanitizer (stats plan vs brute-force decode, bit-compared),
#      then a scaled-down bench/system_agg run gated on the metadata-only
#      plan beating the decode fallback by >= 3.0x on full-coverage
#      ranges (BENCH_system_agg.json "stats_agg_speedup", best of three;
#      the committed full-scale reference in bench/baselines/ measures
#      >500x)
#  10. cluster: the WAL-tailer and cluster suites under ThreadSanitizer,
#      then a real 2-node cluster smoke — two bstool serve processes in
#      a replication ring, ingest through the routing client, wait for
#      the acked replication frontier to cover every write, kill -9 the
#      first node, and require every sensor's failover query to be
#      byte-identical CSV to a single-node reference fed the same
#      writes (the LWW-digest acceptance pin), plus a scaled-down
#      bench/system_cluster run gated on replication finishing cleanly
#      (zero ship errors, drained backlog; throughput ratios are
#      recorded, not gated — in-process nodes share this host's cores,
#      so scale-out is only measurable multi-host, see
#      bench/baselines/BENCH_system_cluster.json "host_cores")
#  11. ASan + cardinality: the sensor-interner and arena-backed TVList
#      suites under AddressSanitizer (the interner hands out string_views
#      into a bump arena and the memtable frees TVList blocks wholesale at
#      seal — exactly the lifetimes ASan is for), plus the WAL and
#      WAL-tailer suites (their replay decoders parse untrusted bytes from
#      disk and from replication, so every out-of-bounds read must trip
#      ASan rather than pass silently), the read-path and chunk-cache
#      suites (page-directory derivation and page decode run a seeded
#      mutation loop over real chunk bytes), the compaction suite (its
#      mutation oracle damages real merge inputs), the engine-model suite
#      (the flush copies sealed TVLists out into reused flat buffers), then a
#      scaled 100k-sensor bench/system_cardinality run gated on idle heap
#      staying <= 600 bytes/sensor (full scale measures ~191 vs ~1676 on the
#      pre-interning string path, bench/baselines/
#      BENCH_system_cardinality_stringpath.json) and on wide-batch
#      ingest holding >= 0.5x the committed baseline's 100k-sensor rate;
#      the encoding suite runs under ASan here too (its differential
#      tests decode truncated and bit-flipped pages)
#  12. UBSan: the encoding, WAL, wire-protocol, read-path, compaction,
#      TsFile and aggregation suites under UndefinedBehaviorSanitizer with
#      halt_on_error, so any report fails the step — shift-by-64 in the
#      word-at-a-time bit reader/writer, signed overflow in TS_2DIFF delta
#      arithmetic and in window bounds near the Timestamp limits are the
#      classic cases, and the CRC's carry-less-multiply path runs under it
#      as well
#
# Usage: tools/ci.sh   (from the repo root; build dirs: build/, build-tsan/,
#                      build-asan/, build-ubsan/)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== [1/12] tier-1: configure + build + full test suite ==="
cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j)

echo "=== [2/12] engine suites at 4 shards / 2 flush workers ==="
(cd build && BACKSORT_SHARDS=4 BACKSORT_FLUSH_WORKERS=2 \
  ctest --output-on-failure -R 'Engine|Wal|Workload|Aggregate|ReadPath' -j)

echo "=== [3/12] concurrency + read-path + engine-model tests under ThreadSanitizer ==="
cmake -B build-tsan -S . -DBACKSORT_SANITIZE=thread
cmake --build build-tsan -j --target engine_concurrency_test histogram_test \
  chunk_cache_test read_path_test engine_model_test
./build-tsan/tests/engine_concurrency_test
./build-tsan/tests/histogram_test
./build-tsan/tests/chunk_cache_test
./build-tsan/tests/read_path_test
./build-tsan/tests/engine_model_test

echo "=== [4/12] chunk-cache effectiveness smoke ==="
# The read_path suite covers cache correctness; this step checks the
# operator-visible surface end to end: bstool flag -> engine -> exporter.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
./build/tools/bstool ingest "$smoke_dir/on" 20000 absnormal:1,5 \
  --shards=2 --metrics-interval=0 > /dev/null
grep -q '^backsort_chunk_cache_capacity_bytes [1-9]' \
  "$smoke_dir/on/metrics.prom" || {
  echo "cache smoke FAILED: default run exported zero cache capacity"
  exit 1
}
./build/tools/bstool ingest "$smoke_dir/off" 20000 absnormal:1,5 \
  --shards=2 --chunk-cache-bytes=0 --metrics-interval=0 > /dev/null
grep -q '^backsort_chunk_cache_capacity_bytes 0' \
  "$smoke_dir/off/metrics.prom" || {
  echo "cache smoke FAILED: --chunk-cache-bytes=0 did not disable the cache"
  exit 1
}
# Repeated fixed-range queries against sealed files must hit the cache:
# the query-mix bench exercises exactly that and exports the counters.
BACKSORT_SYSTEM_POINTS=20000 BACKSORT_METRICS_DIR="$smoke_dir" \
  ./build/bench/system_query_mix > /dev/null
hits=$(grep -E '^backsort_chunk_cache_hits_total\{[^}]*config="cache\+pruning"' \
  "$smoke_dir/system_query_mix.metrics.prom" | head -1 | awk '{print $2}')
if [ -z "$hits" ] || [ "${hits%%.*}" -le 0 ]; then
  echo "cache smoke FAILED: no cache hits in query-mix run (hits=${hits:-none})"
  exit 1
fi
echo "cache smoke passed (query-mix cache hits: $hits)"

echo "=== [5/12] network loopback smoke ==="
# Wire protocol + server correctness under ThreadSanitizer: concurrent
# clients must stay bit-identical and the shutdown drain must be clean.
cmake --build build-tsan -j --target net_protocol_test net_server_test
./build-tsan/tests/net_protocol_test
./build-tsan/tests/net_server_test
# Operator surface end to end: serve on an ephemeral port, round-trip
# ping/write/query/metrics with the client, then a graceful SIGTERM stop.
./build/tools/bstool serve "$smoke_dir/served" --port=0 \
  --port-file="$smoke_dir/port" --workers=2 > "$smoke_dir/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 50); do
  [ -s "$smoke_dir/port" ] && break
  sleep 0.1
done
[ -s "$smoke_dir/port" ] || {
  echo "net smoke FAILED: server never wrote its port file"
  cat "$smoke_dir/serve.log"
  exit 1
}
addr="127.0.0.1:$(cat "$smoke_dir/port")"
./build/tools/bstool client "$addr" ping
./build/tools/bstool client "$addr" write ci.sensor 1000 --batch=200 > /dev/null
# Same write shape through the pipelined client path: several requests
# in flight on one connection, drained in order.
./build/tools/bstool client "$addr" write ci.piped 1000 --batch=100 \
  --pipeline=8 > /dev/null
piped_rows=$(./build/tools/bstool client "$addr" query ci.piped 0 1000 \
  | tail -n +2 | wc -l)
if [ "$piped_rows" -ne 1000 ]; then
  echo "net smoke FAILED: pipelined write of 1000 points, query returned $piped_rows rows"
  exit 1
fi
# Drop the timestamp,value CSV header before counting data rows.
rows=$(./build/tools/bstool client "$addr" query ci.sensor 0 1000 \
  | tail -n +2 | wc -l)
if [ "$rows" -ne 1000 ]; then
  echo "net smoke FAILED: wrote 1000 points, query returned $rows rows"
  exit 1
fi
# To a file, not a pipe: `grep -q` exits at first match and the SIGPIPE
# would fail the pipeline under pipefail even when the family is present.
./build/tools/bstool client "$addr" metrics > "$smoke_dir/client_metrics.prom"
grep -q '^backsort_net_requests_total' "$smoke_dir/client_metrics.prom" || {
  echo "net smoke FAILED: wire metrics missing backsort_net_requests_total"
  exit 1
}
kill -TERM "$serve_pid"
wait "$serve_pid" || {
  echo "net smoke FAILED: server did not exit cleanly on SIGTERM"
  exit 1
}
echo "net smoke passed ($rows rows round-tripped via $addr)"

echo "=== [6/12] docs: wire-protocol golden suite + link check ==="
# The spec in docs/WIRE_PROTOCOL.md is executable documentation: this
# suite re-derives magic/offsets/type tables from the compiled protocol
# constants and fails if the prose drifted from the code.
./build/tests/wire_protocol_docs_test
# Extract the target of every inline markdown link and verify that
# non-URL, non-anchor targets exist relative to the linking file.
docs_fail=0
for doc in README.md docs/*.md; do
  [ -f "$doc" ] || continue
  doc_dir=$(dirname "$doc")
  while IFS= read -r link; do
    case "$link" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    target=${link%%#*}            # drop intra-page anchors
    [ -n "$target" ] || continue
    if [ ! -e "$doc_dir/$target" ] && [ ! -e "$target" ]; then
      echo "broken link in $doc: $link"
      docs_fail=1
    fi
  done < <(grep -o '\][(][^)]*[)]' "$doc" | sed 's/^](//; s/)$//' || true)
done
if [ "$docs_fail" -ne 0 ]; then
  echo "docs link check FAILED"
  exit 1
fi
echo "docs link check passed"

echo "=== [7/12] perf smoke: ingest batching + net pipelining ==="
# Scaled-down system_ingest run; the JSON is flat one-key-per-line so the
# gate needs only grep + awk. Noise margin: full scale measures ~5x.
BACKSORT_SYSTEM_POINTS=60000 BACKSORT_METRICS_DIR="$smoke_dir" \
  ./build/bench/system_ingest > /dev/null
speedup=$(grep '"speedup_batched_over_per_point"' \
  "$smoke_dir/BENCH_ingest.json" | awk -F': ' '{print $2}' | tr -d ',')
if [ -z "$speedup" ]; then
  echo "perf smoke FAILED: BENCH_ingest.json has no speedup key"
  exit 1
fi
awk -v s="$speedup" 'BEGIN { exit (s >= 1.5) ? 0 : 1 }' || {
  echo "perf smoke FAILED: batched/per-point speedup $speedup < 1.5"
  exit 1
}
echo "perf smoke passed (batched/per-point speedup: ${speedup}x)"
# Pipelined loopback writes vs the in-process engine: a scaled-down
# system_net run. Best of three attempts against a 0.5 floor — a single
# scheduler hiccup on a small box can halve one run, but a regression in
# the pipelined path drags every attempt down. The committed full-scale
# reference (bench/baselines/) measures ~0.8.
net_ratio=0
for attempt in 1 2 3; do
  BACKSORT_SYSTEM_POINTS=120000 BACKSORT_NET_CLIENTS=1 \
    BACKSORT_NET_QUERIES=1 BACKSORT_NET_PIPELINE=32 \
    BACKSORT_METRICS_DIR="$smoke_dir" ./build/bench/system_net > /dev/null
  net_ratio=$(grep '"pipelined_write_ratio"' \
    "$smoke_dir/BENCH_system_net.json" | awk -F': ' '{print $2}' | tr -d ',')
  if [ -z "$net_ratio" ]; then
    echo "perf smoke FAILED: BENCH_system_net.json has no pipelined_write_ratio"
    exit 1
  fi
  awk -v r="$net_ratio" 'BEGIN { exit (r >= 0.5) ? 0 : 1 }' && break
  echo "net perf attempt $attempt: ratio $net_ratio < 0.5, retrying"
  net_ratio=""
done
[ -n "$net_ratio" ] || {
  echo "perf smoke FAILED: pipelined/in-process write ratio < 0.5 on all attempts"
  exit 1
}
echo "net perf smoke passed (pipelined/in-process write ratio: ${net_ratio})"

echo "=== [8/12] compaction: TSan suite + soak gates + bstool smoke ==="
# The whole compaction stack under ThreadSanitizer: planner/job/engine
# suite plus the background scheduler racing ingest and queries.
cmake --build build-tsan -j --target compaction_test
./build-tsan/tests/compaction_test
./build-tsan/tests/engine_concurrency_test \
  --gtest_filter='*BackgroundCompaction*:*ReadersRaceCompaction*'
# Scaled-down soak: the bench itself exits non-zero if the post-drain
# file count exceeds the planner's tier bound or any LWW digest differs
# between the compaction-off and compaction-on sides; re-assert both from
# the JSON anyway, plus the throughput floor.
BACKSORT_SOAK_POINTS=60000 BACKSORT_METRICS_DIR="$smoke_dir" \
  ./build/bench/system_soak > /dev/null
for key in files_within_bound lww_checks_failed throughput_ratio_on_over_off
do
  val=$(grep "\"$key\"" "$smoke_dir/BENCH_soak.json" \
    | awk -F': ' '{print $2}' | tr -d ',')
  [ -n "$val" ] || { echo "soak FAILED: BENCH_soak.json has no $key"; exit 1; }
  eval "soak_$key=\$val"
done
[ "$soak_files_within_bound" = "1" ] || {
  echo "soak FAILED: post-compaction file count exceeded the tier bound"
  exit 1
}
[ "$soak_lww_checks_failed" = "0" ] || {
  echo "soak FAILED: $soak_lww_checks_failed LWW digest mismatches"
  exit 1
}
awk -v r="$soak_throughput_ratio_on_over_off" \
  'BEGIN { exit (r >= 0.75) ? 0 : 1 }' || {
  echo "soak FAILED: ingest throughput ratio $soak_throughput_ratio_on_over_off < 0.75"
  exit 1
}
# Operator surface: offline bstool compact over a fresh ingest dir must
# converge the registry to a single sequence file.
./build/tools/bstool ingest "$smoke_dir/compact" 40000 absnormal:1,5 \
  --shards=2 --metrics-interval=0 > /dev/null
./build/tools/bstool compact "$smoke_dir/compact" > "$smoke_dir/compact.log"
files_after=$(ls "$smoke_dir/compact"/*.bstf | wc -l)
if [ "$files_after" -ne 1 ]; then
  echo "compact smoke FAILED: expected 1 sealed file, found $files_after"
  cat "$smoke_dir/compact.log"
  exit 1
fi
grep -q '^compacted ' "$smoke_dir/compact.log" || {
  echo "compact smoke FAILED: bstool compact printed no summary"
  exit 1
}
echo "compaction smoke passed (soak ratio ${soak_throughput_ratio_on_over_off}, 1 file after offline compact)"

echo "=== [9/12] aggregation: differential suite under TSan + stats-plan gate ==="
# The statistics plan must be an optimization, never an approximation:
# the differential suite ingests random disorder workloads and
# bit-compares AggregateFast against a brute-force decode, with and
# without footer statistics — run under ThreadSanitizer as well, so the
# tier-2 page reads (lazily opened file descriptors, the shared cache)
# stay race-free.
cmake --build build-tsan -j --target aggregate_differential_test
./build-tsan/tests/aggregate_differential_test
# Scaled-down system_agg: the metadata-only plan must beat the decode
# fallback by >= 3.0x on full-coverage ranges. Best of three — on a small
# box one preempted warm-up can deflate a run, but a real regression
# (stats not written, plan not engaging) drags every attempt to ~1x. The
# committed full-scale reference (bench/baselines/) measures >500x.
agg_speedup=""
for attempt in 1 2 3; do
  BACKSORT_SYSTEM_POINTS=60000 BACKSORT_AGG_ITERS=50 \
    BACKSORT_METRICS_DIR="$smoke_dir" ./build/bench/system_agg > /dev/null
  agg_speedup=$(grep '"stats_agg_speedup"' \
    "$smoke_dir/BENCH_system_agg.json" | awk -F': ' '{print $2}' | tr -d ',')
  if [ -z "$agg_speedup" ]; then
    echo "agg smoke FAILED: BENCH_system_agg.json has no stats_agg_speedup"
    exit 1
  fi
  awk -v s="$agg_speedup" 'BEGIN { exit (s >= 3.0) ? 0 : 1 }' && break
  echo "agg perf attempt $attempt: speedup $agg_speedup < 3.0, retrying"
  agg_speedup=""
done
[ -n "$agg_speedup" ] || {
  echo "agg smoke FAILED: stats_agg_speedup < 3.0 on all attempts"
  exit 1
}
echo "aggregation smoke passed (stats/decode speedup: ${agg_speedup}x)"

echo "=== [10/12] cluster: TSan suites + 2-node kill-primary failover smoke ==="
# Replication correctness under ThreadSanitizer first: the WAL tailer
# (torn tails, rotation, cursor resume) and the cluster suite including
# the in-process kill-primary acceptance test.
cmake --build build-tsan -j --target wal_tailer_test cluster_test
./build-tsan/tests/wal_tailer_test
./build-tsan/tests/cluster_test
# Real-process smoke. Fixed ports are required up front (each node ships
# to its follower's configured address), so grab two free ones. The probe
# sockets are closed before the ports are printed: `read` returns as soon
# as the line arrives, and a probe still open then would make the first
# node's bind fail with "Address already in use".
read -r port_a port_b < <(python3 - <<'EOF'
import socket
a = socket.socket(); a.bind(("127.0.0.1", 0))
b = socket.socket(); b.bind(("127.0.0.1", 0))
ports = (a.getsockname()[1], b.getsockname()[1])
a.close(); b.close()
print(*ports)
EOF
)
cmap="a=127.0.0.1:$port_a,b=127.0.0.1:$port_b"
./build/tools/bstool serve "$smoke_dir/cl_a" --port="$port_a" \
  --cluster="$cmap" --node-id=a > "$smoke_dir/cl_a.log" 2>&1 &
cl_pid_a=$!
./build/tools/bstool serve "$smoke_dir/cl_b" --port="$port_b" \
  --cluster="$cmap" --node-id=b > "$smoke_dir/cl_b.log" 2>&1 &
cl_pid_b=$!
# Single-node reference engine fed the identical writes.
./build/tools/bstool serve "$smoke_dir/cl_ref" --port=0 \
  --port-file="$smoke_dir/cl_ref_port" > "$smoke_dir/cl_ref.log" 2>&1 &
cl_pid_ref=$!
for addr in "127.0.0.1:$port_a" "127.0.0.1:$port_b"; do
  up=0
  for _ in $(seq 1 100); do
    if ./build/tools/bstool client "$addr" ping > /dev/null 2>&1; then
      up=1; break
    fi
    sleep 0.1
  done
  [ "$up" = 1 ] || {
    echo "cluster smoke FAILED: node at $addr never answered ping"
    cat "$smoke_dir"/cl_*.log
    exit 1
  }
done
for _ in $(seq 1 100); do
  [ -s "$smoke_dir/cl_ref_port" ] && break
  sleep 0.1
done
ref_addr="127.0.0.1:$(cat "$smoke_dir/cl_ref_port")"
# Ingest through the router; every write also goes to the reference. The
# router must split the sensors across both nodes and never fail over
# while both are healthy.
cl_sensors="0 1 2 3 4 5 6 7"
cl_points=2000
routed_a=0; routed_b=0
for i in $cl_sensors; do
  out=$(./build/tools/bstool client --servers="$cmap" write "ci.cl$i" \
    "$cl_points" --batch=250)
  case "$out" in
    *" via a "*) routed_a=1 ;;
    *" via b "*) routed_b=1 ;;
  esac
  case "$out" in
    *"(0 failovers)"*) ;;
    *)
      echo "cluster smoke FAILED: healthy-cluster write failed over: $out"
      exit 1 ;;
  esac
  ./build/tools/bstool client "$ref_addr" write "ci.cl$i" "$cl_points" \
    --batch=250 > /dev/null
done
if [ "$routed_a" != 1 ] || [ "$routed_b" != 1 ]; then
  echo "cluster smoke FAILED: router used only one node (a=$routed_a b=$routed_b)"
  exit 1
fi
# Wait until the acked replication frontier covers every written point:
# what is acked is durably applied on the follower and survives a kill.
cl_total=$((cl_points * 8))
cl_acked=""
for _ in $(seq 1 200); do
  cl_acked=$( (./build/tools/bstool client "127.0.0.1:$port_a" metrics;
               ./build/tools/bstool client "127.0.0.1:$port_b" metrics) \
    | awk '/^backsort_cluster_acked_records_total/ { sum += $2 } END { printf "%d", sum }')
  [ "${cl_acked:-0}" -ge "$cl_total" ] && break
  sleep 0.1
done
if [ "${cl_acked:-0}" -lt "$cl_total" ]; then
  echo "cluster smoke FAILED: replication stalled at ${cl_acked:-0}/$cl_total acked records"
  cat "$smoke_dir"/cl_*.log
  exit 1
fi
# Kill the first node outright (no drain) and require failover queries
# to answer every sensor byte-identically to the reference — the LWW
# digest comparison from the acceptance criteria, as CSV.
kill -9 "$cl_pid_a" 2> /dev/null
wait "$cl_pid_a" 2> /dev/null || true
for i in $cl_sensors; do
  ./build/tools/bstool client --servers="$cmap" query "ci.cl$i" 0 "$cl_points" \
    > "$smoke_dir/cl_got.csv"
  ./build/tools/bstool client "$ref_addr" query "ci.cl$i" 0 "$cl_points" \
    > "$smoke_dir/cl_want.csv"
  diff -q "$smoke_dir/cl_want.csv" "$smoke_dir/cl_got.csv" > /dev/null || {
    echo "cluster smoke FAILED: ci.cl$i failover result differs from reference"
    diff "$smoke_dir/cl_want.csv" "$smoke_dir/cl_got.csv" | head -5
    exit 1
  }
done
kill -TERM "$cl_pid_b" "$cl_pid_ref" 2> /dev/null
wait "$cl_pid_b" || {
  echo "cluster smoke FAILED: surviving node did not exit cleanly"
  exit 1
}
wait "$cl_pid_ref" || true
echo "cluster smoke passed (8 sensors byte-identical through failover)"
# Scaled-down scale-out bench: replication must finish cleanly (no ship
# errors, drained backlog). Throughput ratios are recorded for the
# committed baseline, not gated — in-process nodes contend for this
# host's cores (see the bench header).
BACKSORT_SYSTEM_POINTS=20000 BACKSORT_METRICS_DIR="$smoke_dir" \
  ./build/bench/system_cluster > /dev/null
for key in ship_errors end_backlog_bytes; do
  bad=$(grep "\"$key\"" "$smoke_dir/BENCH_system_cluster.json" \
    | awk -F': ' '{ sum += $2 } END { printf "%d", sum }')
  [ "${bad:-0}" -eq 0 ] || {
    echo "cluster bench FAILED: nonzero $key ($bad)"
    exit 1
  }
done
scale2=$(grep '"scale_out_2v1"' "$smoke_dir/BENCH_system_cluster.json" \
  | awk -F': ' '{print $2}' | tr -d ',')
echo "cluster bench passed (2-node/1-node write ratio ${scale2} on this host)"

echo "=== [11/12] ASan: interner/arena/WAL/read-path suites + 100k-sensor smoke ==="
# The interner and arenas trade allocator nodes for raw pointer lifetimes
# (string_views into a bump arena, TVList blocks freed wholesale at seal);
# run their suites under AddressSanitizer to keep those lifetimes honest.
# The WAL replay decoders (ReadWal, ParseWalPayloadV2, the tailer's frame
# reader) read bytes from disk and from replication peers: their torn,
# bit-flipped and unknown-type cases must stay in bounds under ASan too.
cmake -B build-asan -S . -DBACKSORT_SANITIZE=address
cmake --build build-asan -j --target interner_test tvlist_test wal_test \
  wal_tailer_test read_path_test chunk_cache_test encoding_test \
  engine_model_test compaction_test
./build-asan/tests/interner_test
./build-asan/tests/tvlist_test
./build-asan/tests/wal_test
./build-asan/tests/wal_tailer_test
# Page directories are derived from sealed chunk bytes, which may be
# damaged: the mutation loop in read_path_test must fail cleanly in bounds.
./build-asan/tests/read_path_test
./build-asan/tests/chunk_cache_test
# Compaction reads its inputs through the same page reader: its seeded
# mutation oracle damages real job inputs and must fail cleanly in bounds
# or produce the exact last-write-wins merge.
./build-asan/tests/compaction_test
# The bit readers load 8 bytes at a time near the end of a page: the
# encoding suite's truncation and bit-flip differentials must stay in
# bounds.
./build-asan/tests/encoding_test
# The flush copies sealed TVLists out into reused flat buffers and sorts
# them there; the model suite drives that copy through every seal.
./build-asan/tests/engine_model_test
# Scaled cardinality smoke: 100k sensors, one rep, disorder panels off.
# Two gates against the flat JSON: idle heap per sensor (absolute budget —
# full scale measures ~191 B/sensor; 600 leaves 3x noise headroom while
# still catching any return of the ~1676 B/sensor string-keyed path) and
# wide-batch ingest throughput relative to the committed baseline.
BACKSORT_CARD_MAX_SENSORS=100000 BACKSORT_CARD_REPS=1 \
  BACKSORT_CARD_MIN_POINTS=400000 BACKSORT_CARD_DISORDER_PTS=0 \
  BACKSORT_METRICS_DIR="$smoke_dir" ./build/bench/system_cardinality > /dev/null
card_idle=$(grep '"idle_bytes_per_sensor_100k"' \
  "$smoke_dir/BENCH_system_cardinality.json" | awk -F': ' '{print $2}' | tr -d ',')
card_pps=$(grep '"ingest_pps_100k"' \
  "$smoke_dir/BENCH_system_cardinality.json" | awk -F': ' '{print $2}' | tr -d ',')
base_pps=$(grep '"ingest_pps_100k"' \
  bench/baselines/BENCH_system_cardinality.json | awk -F': ' '{print $2}' | tr -d ',')
if [ -z "$card_idle" ] || [ -z "$card_pps" ] || [ -z "$base_pps" ]; then
  echo "cardinality smoke FAILED: missing idle/pps keys (idle=$card_idle pps=$card_pps base=$base_pps)"
  exit 1
fi
awk -v b="$card_idle" 'BEGIN { exit (b <= 600.0) ? 0 : 1 }' || {
  echo "cardinality smoke FAILED: idle heap $card_idle B/sensor > 600 budget"
  exit 1
}
awk -v p="$card_pps" -v b="$base_pps" 'BEGIN { exit (p >= 0.5 * b) ? 0 : 1 }' || {
  echo "cardinality smoke FAILED: 100k wide ingest $card_pps pts/s < 0.5x baseline $base_pps"
  exit 1
}
echo "cardinality smoke passed (idle ${card_idle} B/sensor, 100k ingest ${card_pps} pts/s vs baseline ${base_pps})"

echo "=== [12/12] UBSan: encoding/WAL/wire/read-path/compaction/TsFile/aggregation suites ==="
# halt_on_error turns every UBSan report into a failing exit status.
cmake -B build-ubsan -S . -DBACKSORT_SANITIZE=undefined
cmake --build build-ubsan -j --target encoding_test wal_test \
  net_protocol_test read_path_test compaction_test tsfile_test \
  aggregate_test aggregate_differential_test
for t in encoding_test wal_test net_protocol_test read_path_test \
    compaction_test tsfile_test aggregate_test aggregate_differential_test; do
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 ./build-ubsan/tests/$t
done

echo "=== CI passed ==="
