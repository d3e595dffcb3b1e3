#!/bin/sh
# Build-and-test driver. Usage:
#
#   tools/check.sh            # Release build + full test suite
#   tools/check.sh san        # ASan+UBSan build + full test suite
#   tools/check.sh perf       # Release perf smoke: iReduct loop scaling
#                             # bench at small m, asserting parity with the
#                             # seed reference loop (tests/support) and
#                             # that the incremental fast path actually
#                             # engaged (see docs/PERFORMANCE.md),
#                             # plus the kernel micro benches, gated on
#                             # every host: the counting kernel must beat
#                             # the per-marginal reference loop by >= 2x
#                             # (KERNEL_MIN_SPEEDUP), the fused pass with
#                             # joint tables the same specs counted one
#                             # table each on the scan_10m shape by
#                             # >= 1.1x, one NoiseDownGroup move the
#                             # per-cell NoiseDown loop by >= 1.5x, and
#                             # EvaluateQuery's column kernel the row-loop
#                             # oracle (tests/support) by >= 5x
#   tools/check.sh registry   # Mechanism-registry smoke: builds ireduct_tool,
#                             # asserts --list-mechanisms enumerates the
#                             # builtin set and matches its golden copy,
#                             # runs two spec-driven marginal releases
#                             # end-to-end, and asserts an out-of-range
#                             # spec number is refused
#   tools/check.sh queries    # Linear-query-algebra smoke: runs the
#                             # workload/strategy test binaries, the
#                             # strategy_comparison bench at reduced
#                             # scale (asserting BENCH_STRATEGY.json
#                             # carries every matrix strategy), and a
#                             # matrix-mechanism CLI release
#   tools/check.sh data       # Columnar dataset-engine smoke: round-trip
#                             # and streaming-parity tests under the
#                             # default preset and again under ASan+UBSan,
#                             # the columnar_io bench at reduced scale with
#                             # its load-speedup / streaming-ratio / parity
#                             # gates live (BENCH_COLUMNAR.json asserted),
#                             # and a CLI csv2col/col2csv round trip that
#                             # must reproduce the CSV byte for byte
#   tools/check.sh threads    # ThreadSanitizer build of the concurrent
#                             # evaluation paths: thread pool, fused
#                             # marginal evaluator, marginal cache,
#                             # metrics registry, the parallel trial
#                             # runner, and the multi-tenant query server
#                             # (admission pipeline + wire protocol), with
#                             # the Phase B chain, event capture and
#                             # joint-table parity cases repeated 20 times
#   tools/check.sh service    # Query-service smoke: the admission /
#                             # batching / crash-recovery suites, the
#                             # service_throughput bench at reduced scale
#                             # with its gates live (batched >= 1.5x
#                             # unbatched qps at 8 tenants, byte parity
#                             # against the serial golden; export
#                             # SERVICE_MIN_SPEEDUP=0 to disable the
#                             # speedup gate), and an end-to-end
#                             # serve/client NDJSON round trip over a
#                             # real Unix socket, in which a count with
#                             # an out-of-domain value is refused and
#                             # charges nothing, and a deeply nested line
#                             # and an over-long line are refused while a
#                             # new connection still gets its pong; then
#                             # the server is killed and restarted on the
#                             # same journals, where a fresh open of the
#                             # tenant is refused and a resume reports
#                             # the same spend as before the kill
#   tools/check.sh obs        # Telemetry smoke: checks that every metric
#                             # name in src/ is pre-registered by
#                             # RegisterStandardMetrics, runs the
#                             # event-log / trace / exposition /
#                             # run-report tests, drives
#                             # ireduct_tool with --report-out/--events-out/
#                             # --prom-out/--trace-out/--metrics-out,
#                             # validates the artifacts, cross-checks the
#                             # trace against the metrics
#                             # (tools/check_trace.py), and proves the
#                             # report survives a fault-injected event
#                             # drain (run_report_test)
#   tools/check.sh format     # clang-format style gate over src/tests/
#                             # tools/bench/examples (skips locally when
#                             # clang-format is missing; CI enforces it)
#   tools/check.sh ci         # local reproduction of the CI pipeline:
#                             # format + default + registry + evaluator
#                             # parity smoke with the fig08/09 speedup
#                             # gate at its default (>= 3x)
#
# Each mode maps to the CMakePresets.json preset of the same name, so the
# builds land in separate directories and never fight over a cache. The
# san mode also covers the thread-pool and batched-iReduct tests under
# ASan/UBSan, which is the race check for the parallel NoiseDown path.
set -eu

cd "$(dirname "$0")/.."

mode="${1:-default}"
case "$mode" in
  default|san|perf|registry|queries|data|threads|service|obs|format|ci) ;;
  *)
    echo "usage: tools/check.sh [san|perf|registry|queries|data|threads|" \
         "service|obs|format|ci]" >&2
    exit 2
    ;;
esac
preset="$mode"
[ "$mode" = san ] && preset=asan-ubsan
[ "$mode" = perf ] && preset=default
[ "$mode" = threads ] && preset=tsan

if [ "$mode" = format ]; then
  # Style gate over every first-party C++ file. clang-format is optional
  # locally (skip, CI enforces it) but the CI job installs it, so a
  # missing binary never turns the gate green up there.
  if ! command -v clang-format >/dev/null 2>&1; then
    if [ -n "${CI:-}" ]; then
      echo "format: clang-format missing in CI" >&2
      exit 1
    fi
    echo "format: clang-format not installed; skipping (CI enforces it)"
    exit 0
  fi
  find src tests tools bench examples \
    \( -name '*.cc' -o -name '*.h' \) -print0 |
    xargs -0 clang-format --dry-run --Werror
  echo "format: OK ($(clang-format --version))"
  exit 0
fi

if [ "$mode" = ci ]; then
  # The full local reproduction of the CI pipeline, minus the sanitizer
  # builds (run those with `san` / `threads` when touching memory or
  # concurrency): style gate, Release build + tests, registry smoke, and
  # the evaluator parity smoke. The fig08/09 speedup gate runs at its
  # default (>= 3x): the measured ratio is architectural (five setups
  # amortized through one cached evaluation), so it holds even on slow
  # shared machines.
  "$0" format
  "$0" default
  "$0" registry
  cmake --build --preset default -j "$(nproc)" --target eval_scaling
  (cd build/bench &&
   EVAL_ROWS=20000 EVAL_THREADS=1,2 CENSUS_ROWS=200000 \
     ./eval_scaling)
  echo "ci: all gates passed"
  exit 0
fi

if [ "$mode" = data ]; then
  # Columnar engine smoke. The bench runs with every gate live (load
  # speedup >= 5x, streaming within 1.25x, memcmp parity) at reduced
  # scale; the CLI round trip is the end-to-end byte-equality check; the
  # ASan+UBSan pass re-runs the round-trip and streaming suites over the
  # mmap/bit-twiddling code where a latent overflow would hide.
  out_dir="$(mktemp -d)"
  trap 'rm -rf "$out_dir"' EXIT
  data_tests="columnar_test streaming_evaluator_test dataset_test \
              csv_test census_generator_test"
  cmake --preset default
  # shellcheck disable=SC2086  # word splitting is the point
  cmake --build --preset default -j "$(nproc)" \
    --target ireduct_tool columnar_io $data_tests
  for t in $data_tests; do
    echo "== data: $t =="
    ./build/tests/"$t"
  done
  (cd build/bench &&
   CENSUS_ROWS=60000 TRIALS=2 COLUMNAR_PROFILE_ROWS=20000 \
     COLUMNAR_THREADS=1,2 ./columnar_io)
  for key in '"load_ok":true' '"stream_ok":true' '"parity_ok":true'; do
    if ! grep -q "$key" build/bench/BENCH_COLUMNAR.json; then
      echo "data smoke: $key missing from BENCH_COLUMNAR.json" >&2
      exit 1
    fi
  done
  tool=./build/tools/ireduct_tool
  "$tool" generate --profile sparse-events --rows 5000 --seed 3 \
    --out "$out_dir/a.csv" > /dev/null
  "$tool" csv2col --profile sparse-events --in "$out_dir/a.csv" \
    --out "$out_dir/a.col" > /dev/null
  "$tool" col2csv --in "$out_dir/a.col" --out "$out_dir/b.csv" > /dev/null
  cmp "$out_dir/a.csv" "$out_dir/b.csv"
  "$tool" col-info --in "$out_dir/a.col" | grep -q fingerprint
  echo "data smoke [default]: tests + gates + CLI round trip OK"
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j "$(nproc)" \
    --target columnar_test streaming_evaluator_test
  for t in columnar_test streaming_evaluator_test; do
    echo "== data (asan-ubsan): $t =="
    ./build-asan-ubsan/tests/"$t"
  done
  echo "data smoke [asan-ubsan]: round-trip + streaming suites clean"
  exit 0
fi

if [ "$mode" = threads ]; then
  # Only the concurrency-bearing tests; a full TSan suite is far slower
  # and the sequential code has no threads for TSan to observe. Test
  # binaries run directly so unbuilt targets can't confuse ctest
  # discovery. IREDUCT_THREADS forces the pooled paths on.
  cmake --preset tsan
  tsan_tests="thread_pool_test marginal_evaluator_test marginal_cache_test \
              experiment_test ireduct_batch_test obs_metrics_test \
              event_log_test query_server_test wire_test"
  # shellcheck disable=SC2086  # word splitting is the point
  cmake --build --preset tsan -j "$(nproc)" --target $tsan_tests
  for t in $tsan_tests; do
    echo "== TSan: $t =="
    IREDUCT_THREADS=4 ./build-tsan/tests/"$t"
  done
  # The per-tenant Phase B chains and the event captures they record into
  # interleave differently on every run; repeat them to cover more
  # schedules.
  echo "== TSan: Phase B chains and event captures, 20 repeats =="
  IREDUCT_THREADS=4 ./build-tsan/tests/query_server_test --gtest_repeat=20 \
    --gtest_filter='*Chains*:*EventStream*'
  IREDUCT_THREADS=4 ./build-tsan/tests/event_log_test --gtest_repeat=20 \
    --gtest_filter='*Capture*:*Commit*'
  # Concurrent cache calls that project, count and evict under a one-table
  # budget.
  echo "== TSan: concurrent marginal lattice, 20 repeats =="
  IREDUCT_THREADS=4 ./build-tsan/tests/marginal_cache_test --gtest_repeat=20 \
    --gtest_filter='*ConcurrentLattice*'
  # Shards count joint tables into their own blocks with thread_local lane
  # scratch, at 2 and 8 threads, in memory and streamed.
  echo "== TSan: randomized joint-table parity, 20 repeats =="
  IREDUCT_THREADS=4 ./build-tsan/tests/marginal_evaluator_test \
    --gtest_repeat=20 --gtest_filter='*JointTables*'
  exit 0
fi

if [ "$mode" = service ]; then
  # Query-service smoke. The bench runs with the batched-vs-unbatched
  # speedup gate live (>= 1.5x at 8 tenants): the ratio is architectural —
  # one fused true-table pass plus MarginalCache hits replace per-request
  # per-spec dataset scans — so it holds on one-core shared runners.
  # SERVICE_MIN_SPEEDUP=0 disables the gate for pathological machines;
  # the byte-parity check against the serial golden always runs. The
  # serve/client leg drives the real binary over a real Unix socket.
  out_dir="$(mktemp -d)"
  serve_pid=""
  trap 'rm -rf "$out_dir"; [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null' EXIT
  service_tests="private_session_test query_server_test wire_test \
                 service_crash_test"
  cmake --preset default
  # shellcheck disable=SC2086  # word splitting is the point
  cmake --build --preset default -j "$(nproc)" \
    --target ireduct_tool service_throughput $service_tests
  for t in $service_tests; do
    echo "== service: $t =="
    ./build/tests/"$t"
  done
  (cd build/bench &&
   CENSUS_ROWS=120000 SERVICE_WAVES=3 ./service_throughput)
  for key in '"speedup_ok":true' '"parity_ok":true'; do
    if ! grep -q "$key" build/bench/BENCH_SERVICE.json; then
      echo "service smoke: $key missing from BENCH_SERVICE.json" >&2
      exit 1
    fi
  done
  tool=./build/tools/ireduct_tool
  sock="$out_dir/service.sock"
  # Starts the server on the journal directory and waits for ready file $1.
  serve() {
    "$tool" serve --socket "$sock" --ready-file "$1" \
      --rows 20000 --seed 7 --journal-dir "$out_dir/journals" &
    serve_pid=$!
    i=0
    while [ ! -f "$1" ]; do
      i=$((i + 1))
      if [ "$i" -gt 100 ]; then
        echo "service smoke: server never wrote its ready file" >&2
        exit 1
      fi
      sleep 0.1
    done
  }
  serve "$out_dir/ready"
  "$tool" client --socket "$sock" --op ping | grep -q '"pong":true'
  "$tool" client --socket "$sock" --op open --tenant smoke \
    --budget 1 --seed 3 > /dev/null
  "$tool" client --socket "$sock" --op marginals --tenant smoke \
    --specs "0;1" --mechanism ireduct --epsilon 0.2 --delta 5 --steps 40 |
    grep -q '"epsilon_spent"'
  "$tool" client --socket "$sock" --op count --tenant smoke \
    --predicates "1=1" --epsilon 0.1 | grep -q '"value"'
  # Attribute 1 is Gender, whose domain is {0, 1}: the count is refused
  # (client exit 1) before any charge.
  status=0
  refused="$("$tool" client --socket "$sock" --op count --tenant smoke \
    --predicates "1=2" --epsilon 0.1)" || status=$?
  if [ "$status" -ne 1 ] ||
     ! echo "$refused" | grep -q '"ok":false' ||
     ! echo "$refused" | grep -q '"code":"Out of range"'; then
    echo "service smoke: out-of-domain count not refused" \
         "(exit $status): $refused" >&2
    exit 1
  fi
  budget_before="$("$tool" client --socket "$sock" --op budget \
    --tenant smoke)"
  echo "$budget_before" | grep -q '"remaining"'
  # The journal the server kept must already hold both grants.
  grep -c '"type":"grant"' "$out_dir/journals/smoke.journal" | grep -qx 2
  # Hostile lines, each on its own connection: one nested 100,000 levels
  # deep, one longer than the 1 MiB line limit. Each gets an id-0 error,
  # and the server keeps answering on new connections.
  python3 - "$sock" <<'PY'
import socket
import sys

for line in (b"[" * 100000 + b"\n", b" " * ((1 << 20) + 1)):
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(10)
    conn.connect(sys.argv[1])
    try:
        conn.sendall(line)
    except OSError:
        pass  # the server closed an over-long line's connection mid-send
    reply = b""
    while not reply.endswith(b"\n"):
        chunk = conn.recv(4096)
        if not chunk:
            break
        reply += chunk
    conn.close()
    if not reply.startswith(b'{"id":0,"ok":false'):
        sys.exit("service smoke: hostile line not refused: %r" % reply[:200])
PY
  "$tool" client --socket "$sock" --op ping | grep -q '"pong":true'
  kill "$serve_pid"
  wait "$serve_pid"
  # Restart on the same journals. A fresh open would truncate the
  # tenant's ledger, so it is refused; a resume recovers it, and the
  # tenant reports the spend it had before the kill.
  serve "$out_dir/ready2"
  status=0
  reopened="$("$tool" client --socket "$sock" --op open --tenant smoke \
    --budget 1 --seed 3)" || status=$?
  if [ "$status" -ne 1 ] ||
     ! echo "$reopened" | grep -q '"code":"Failed precondition"'; then
    echo "service smoke: reopening a journaled tenant was not refused" \
         "(exit $status): $reopened" >&2
    exit 1
  fi
  "$tool" client --socket "$sock" --op resume --tenant smoke --seed 3 \
    > /dev/null
  budget_after="$("$tool" client --socket "$sock" --op budget \
    --tenant smoke)"
  spent_before="$(echo "$budget_before" | grep -o '"spent":[^,}]*')"
  spent_after="$(echo "$budget_after" | grep -o '"spent":[^,}]*')"
  if [ -z "$spent_before" ] || [ "$spent_before" != "$spent_after" ]; then
    echo "service smoke: resumed spend differs: before $budget_before," \
         "after $budget_after" >&2
    exit 1
  fi
  kill "$serve_pid"
  wait "$serve_pid"
  serve_pid=""
  echo "service smoke: tests + gated bench + socket round trip + resume OK"
  exit 0
fi

if [ "$mode" = obs ]; then
  # Telemetry smoke: unit-test the pipeline, then prove the end-to-end
  # artifacts (--report-out / --events-out / --prom-out / --trace-out /
  # --metrics-out) carry what the docs promise.
  # Every metric-name literal in src/ must be pre-registered, so that
  # artifacts list it even for a run that never touched it. A literal may
  # sit on a later line than its macro (journal.append_seconds does).
  python3 - <<'PY'
import pathlib
import re
import sys

emit = re.compile(
    r'IREDUCT_(?:METRIC_[A-Z_]+|SCOPED_TIMER)\(\s*(?:\w+\s*,\s*)?"([^"]+)"')
used = {}
for path in sorted(pathlib.Path("src").rglob("*")):
    if path.suffix in (".h", ".cc"):
        for name in emit.findall(path.read_text()):
            used.setdefault(name, str(path))
metrics = pathlib.Path("src/obs/metrics.cc").read_text()
body = metrics[metrics.index("void RegisterStandardMetrics()"):]
registered = set(re.findall(
    r'registry\.(?:counter|gauge|histogram)\(\s*"([^"]+)"', body))
missing = sorted(set(used) - registered)
for name in missing:
    print("obs: %s (%s) is missing from RegisterStandardMetrics"
          % (name, used[name]), file=sys.stderr)
if missing or not used:
    sys.exit(1)
print("obs: all %d metric names in src/ are registered" % len(used))
PY
  out_dir="$(mktemp -d)"
  trap 'rm -rf "$out_dir"' EXIT
  obs_tests="obs_metrics_test event_log_test obs_trace_test \
             export_prometheus_test run_report_test"
  cmake --preset default
  # shellcheck disable=SC2086  # word splitting is the point
  cmake --build --preset default -j "$(nproc)" \
    --target ireduct_tool $obs_tests
  for t in $obs_tests; do
    echo "== obs: $t =="
    ./build/tests/"$t"
  done
  ./build/tools/ireduct_tool marginals --rows 2000 --seed 7 \
    --epsilon 0.5 --mechanism ireduct --out-dir "$out_dir" \
    --report-out "$out_dir/report.json" \
    --events-out "$out_dir/events.jsonl" \
    --prom-out "$out_dir/metrics.prom" \
    --trace-out "$out_dir/trace.json" \
    --metrics-out "$out_dir/metrics.json" > /dev/null
  grep -q '"report_version"' "$out_dir/report.json"
  grep -q '"overall_error"' "$out_dir/report.json"
  grep -q '^# TYPE ' "$out_dir/metrics.prom"
  grep -q '"type":"ireduct.round"' "$out_dir/events.jsonl"
  python3 tools/check_trace.py "$out_dir/trace.json" "$out_dir/metrics.json"
  echo "obs smoke: report + events + exposition + trace OK"
  exit 0
fi

if [ "$mode" = registry ]; then
  out_dir="$(mktemp -d)"
  trap 'rm -rf "$out_dir"' EXIT
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" --target ireduct_tool
  tool=build/tools/ireduct_tool
  count="$("$tool" --list-mechanisms |
           sed -n 's/^registered mechanisms (\([0-9]*\)):$/\1/p')"
  if [ -z "$count" ] || [ "$count" -lt 6 ]; then
    echo "registry smoke: expected >=6 registered mechanisms," \
         "got '${count:-none}'" >&2
    exit 1
  fi
  "$tool" --list-mechanisms |
    diff -u tests/integration/list_mechanisms.golden -
  for spec in "two_phase:epsilon=0.5" \
              "ireduct:lambda_steps=16,batch_size=4"; do
    "$tool" marginals --mechanism "$spec" --rows 2000 --seed 7 \
      --epsilon 0.5 --out-dir "$out_dir" > /dev/null
  done
  # Spec numbers are parsed exactly: a thread count beyond int is
  # refused, not wrapped to 2.
  if "$tool" marginals --mechanism "ireduct:num_threads=4294967298" \
       --rows 2000 --seed 7 --epsilon 0.5 --out-dir "$out_dir" \
       > /dev/null 2>&1; then
    echo "registry smoke: num_threads=4294967298 was accepted" >&2
    exit 1
  fi
  echo "registry smoke: $count mechanisms, spec-driven runs OK"
  exit 0
fi

if [ "$mode" = queries ]; then
  # Linear-query-algebra smoke: the strategy/workload unit + property +
  # golden-parity tests, the strategy_comparison bench at reduced scale
  # (every matrix strategy must land in BENCH_STRATEGY.json), and one
  # matrix-mechanism release through the real CLI.
  out_dir="$(mktemp -d)"
  trap 'rm -rf "$out_dir"' EXIT
  query_tests="linear_workload_test strategy_test range_workload_test \
               strategy_golden_test mechanism_parity_test \
               marginal_workload_test hierarchical_test wavelet_test"
  cmake --preset default
  # shellcheck disable=SC2086  # word splitting is the point
  cmake --build --preset default -j "$(nproc)" \
    --target ireduct_tool strategy_comparison $query_tests
  for t in $query_tests; do
    echo "== queries: $t =="
    ./build/tests/"$t"
  done
  (cd build/bench &&
   CENSUS_ROWS=60000 TRIALS=2 IREDUCT_STEPS=60 ./strategy_comparison)
  for m in "matrix:identity" "matrix:tree" "matrix:wavelet" \
           "matrix_greedy:tree" "ireduct"; do
    if ! grep -q "\"name\":\"$m\"" build/bench/BENCH_STRATEGY.json; then
      echo "queries smoke: $m missing from BENCH_STRATEGY.json" >&2
      exit 1
    fi
  done
  ./build/tools/ireduct_tool marginals \
    --mechanism "matrix:strategy=tree,tune=greedy" --rows 2000 --seed 7 \
    --epsilon 0.5 --out-dir "$out_dir" > /dev/null
  echo "queries smoke: tests + BENCH_STRATEGY.json + CLI release OK"
  exit 0
fi

cmake --preset "$preset"

if [ "$mode" = perf ]; then
  cmake --build --preset "$preset" -j "$(nproc)" \
    --target scaling_study micro_primitives
  # Small-m sweep keeps the smoke under a few seconds; the bench itself
  # exits nonzero on reference-parity or fast-path failures.
  (cd build/bench &&
   SCALING_IREDUCT_ONLY=1 SCALING_M=100,1000 NAIVE_MAX_M=1000 \
     ./scaling_study)
  # Micro bench pairs, each a fast path vs its bit-identical reference.
  # All four are plain C++ with no per-CPU variant, so each floor
  # applies on every host:
  #   * the counting kernel (CountCells) vs the per-marginal reference
  #     loop (Marginal::Compute): >= 2x (KERNEL_MIN_SPEEDUP).
  #   * the fused pass over 24 sets of 2-3 scan-pool specs on one
  #     2.5M-row shard: joint tables vs one CountCells call per spec,
  #     >= 1.1x. On a shared 4-vCPU Xeon it measured 1.24x (median of 5
  #     repetitions; single runs 1.13-1.68x), so the floor sits below
  #     the slowest run seen.
  #   * one iReduct group move at the paper bench's operating point through
  #     NoiseDownGroup vs the per-cell NoiseDown loop: >= 1.5x.
  #   * one conjunctive count (Gender = 1, 400k census rows) through
  #     EvaluateQuery's column kernel vs the row-loop oracle: >= 5x.
  (cd build/bench &&
   ./micro_primitives \
     --benchmark_filter='BM_CountPlan(Kernel|ReferenceLoop)$|BM_MarginalSet(Fused|PerSpec)ScanShape$|BM_NoiseDown(Group|PerCell)$|BM_CountQuery' \
     --benchmark_out=BENCH_KERNELS.json --benchmark_out_format=json)
  awk -v kernel_min="${KERNEL_MIN_SPEEDUP:-2}" '
    BEGIN {
      pair["BM_CountPlanKernel"] = "BM_CountPlanReferenceLoop"
      min_speedup["BM_CountPlanKernel"] = kernel_min
      pair["BM_MarginalSetFusedScanShape"] = "BM_MarginalSetPerSpecScanShape"
      min_speedup["BM_MarginalSetFusedScanShape"] = 1.1
      pair["BM_NoiseDownGroup"] = "BM_NoiseDownPerCell"
      min_speedup["BM_NoiseDownGroup"] = 1.5
      pair["BM_CountQuery"] = "BM_CountQueryRowLoop"
      min_speedup["BM_CountQuery"] = 5
    }
    /"name":/ { gsub(/[",]/, ""); name = $2 }
    /"real_time":/ && !(name in t) { gsub(/,/, ""); t[name] = $2 + 0 }
    END {
      ok = 1
      for (fast in pair) {
        ref = pair[fast]
        if (!(fast in t) || !(ref in t) || t[fast] <= 0) {
          printf "PERF GATE: missing bench %s or %s\n", fast, ref
          ok = 0
          continue
        }
        s = t[ref] / t[fast]
        printf "speedup %s: %.2fx (ref %.0f ns, fast %.0f ns)\n",
               fast, s, t[ref], t[fast]
        if (s < min_speedup[fast]) {
          printf "PERF GATE FAILURE: %s %.2fx < %.1fx\n", fast, s,
                 min_speedup[fast]
          ok = 0
        }
      }
      exit ok ? 0 : 1
    }' build/bench/BENCH_KERNELS.json
  exit 0
fi

cmake --build --preset "$preset" -j "$(nproc)"
ctest --preset "$preset" -j "$(nproc)"
