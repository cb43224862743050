#!/usr/bin/env bash
# check.sh — the full local gate:
#   tier 1  build + full ctest suite
#   werror  the whole tree (sources, tests, benches, tools) built again with
#           -DCODESIGN_WERROR=ON, so a new -Wall -Wextra warning fails
#   e2e     byte identity of the end-to-end benchmark: every e2ebench input
#           set (grid_search, sweep_matrix and serve_mix, 64 seeds each)
#           run with --checksum-only must reproduce e2ebench/checksums.json;
#           runnable alone as tools/e2e_checksums.sh
#   tier 2  ThreadSanitizer build of the concurrency-sensitive tests
#           (thread pool, estimate cache, observability, failpoints, the
#           fault-injected search, the layer walk)
#   tier 3  ASan+UBSan build of the same set (every report fatal)
#   smoke   a fault-injected CLI sweep: 5% of candidates fail, the run
#           must still exit 0 and print the skipped-candidate report
#   serve   a TSan-built `codesign serve` under a mixed request burst
#           (5% dispatch-failpoint drill + one over-deadline request):
#           client payloads must byte-match the one-shot CLI, and SIGINT
#           mid-flight must drain cleanly and exit 0
#   serve-obs  tracing determinism drill: two identical TSan server runs
#           with request tracing + a deterministic serve.dispatch fault;
#           `stats --format=prom` is scraped from both and every
#           stability="deterministic" series must be byte-identical across
#           the runs, `tail --filter=errors` must attribute the injected
#           fault to its execute phase, and the drain summary must report
#           the latency/SLO line; a third, --tail=0 run (no records kept)
#           must still export serve.request_us while `tail` exits 2
#   attribution  determinism drill for the attribution layer: the TSan
#           CLI runs `analyze` plus `search --attribution` at --threads 1
#           and 8; the three reports must be byte-identical and carry the
#           codesign.attribution schema header
#   serve-drill  one TSan server with 5% network failpoints
#           (serve.net.read_stall / write_drop / conn_close) plus 5%
#           dispatch faults armed on BOTH sides of the wire; each one-shot
#           `codesign-client` request of a fixed mix must print the
#           one-shot CLI's exact bytes and exit 0, or exit 75 or 7 with
#           nothing on stdout; `health` must answer "ok", and the server
#           must drain cleanly on SIGINT
#   sweep   the sweep report must be byte-identical at 1 and 8 threads,
#           and after resuming a run interrupted at the sweep.cell
#           failpoint — once by a fatal fault, and once by a kill
#           (sweep.cell=once:6:exit) at 1 and 2 threads, resumed from the
#           checkpoint journal alone — and after a resumed run is killed
#           at each advisor.checkpoint.* persist point, at 1 and 2 threads
#   perf    codesign-bench smoke suite gated against the committed
#           baseline (bench/baselines/). Thresholds are deliberately
#           loose (CODESIGN_PERF_MIN_FRAC, default 0.75 = fail only on a
#           >75% slowdown) because the baseline was produced on a
#           different machine; checksum mismatches fail at any speed.
#
# Usage: tools/check.sh [source-dir]
# Also wired as `cmake --build <build> --target check`.
set -euo pipefail

SRC_DIR="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
BUILD_DIR="${CODESIGN_CHECK_BUILD_DIR:-${SRC_DIR}/build}"
TSAN_DIR="${CODESIGN_CHECK_TSAN_DIR:-${SRC_DIR}/build-tsan}"
ASAN_DIR="${CODESIGN_CHECK_ASAN_DIR:-${SRC_DIR}/build-asan}"
WERROR_DIR="${CODESIGN_CHECK_WERROR_DIR:-${SRC_DIR}/build-werror}"
JOBS="${CODESIGN_CHECK_JOBS:-$(nproc 2>/dev/null || echo 4)}"

echo "== tier 1: build + ctest (${BUILD_DIR}) =="
cmake -B "${BUILD_DIR}" -S "${SRC_DIR}"
cmake --build "${BUILD_DIR}" -j "${JOBS}"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

echo "== werror: build with -DCODESIGN_WERROR=ON (${WERROR_DIR}) =="
cmake -B "${WERROR_DIR}" -S "${SRC_DIR}" -DCODESIGN_WERROR=ON
cmake --build "${WERROR_DIR}" -j "${JOBS}"

echo "== e2e: e2ebench output checksums =="
"${SRC_DIR}/tools/e2e_checksums.sh" "${SRC_DIR}"

SAN_TESTS=(test_thread_pool test_estimate_cache test_estimate_many test_obs
           test_attribution test_logging test_failpoint test_search
           test_search_faults test_serve test_serve_trace test_sweep
           test_json test_layer_model test_gemm_mapping test_flops
           test_training test_inference test_rules test_cluster
           test_parallelism test_config)

echo "== tier 2: ThreadSanitizer (${TSAN_DIR}) =="
cmake -B "${TSAN_DIR}" -S "${SRC_DIR}" -DCODESIGN_SANITIZE=thread
cmake --build "${TSAN_DIR}" -j "${JOBS}" --target "${SAN_TESTS[@]}"
for t in "${SAN_TESTS[@]}"; do
  echo "-- tsan: ${t}"
  "${TSAN_DIR}/tests/${t}"
done

echo "== tier 3: ASan+UBSan (${ASAN_DIR}) =="
cmake -B "${ASAN_DIR}" -S "${SRC_DIR}" -DCODESIGN_SANITIZE=address+undefined
cmake --build "${ASAN_DIR}" -j "${JOBS}" --target "${SAN_TESTS[@]}"
for t in "${SAN_TESTS[@]}"; do
  echo "-- asan+ubsan: ${t}"
  "${ASAN_DIR}/tests/${t}"
done

echo "== smoke: fault-injected search degrades gracefully =="
SMOKE_OUT="$("${BUILD_DIR}/tools/codesign" search gpt3-2.7b --mode=joint \
    --threads=8 --cache \
    --failpoints='gemmsim.cache.lookup=prob:0.05:7,advisor.search.evaluate=prob:0.05:42')"
echo "${SMOKE_OUT}" | grep -q "skipped .* candidate" || {
  echo "FAIL: fault-injected search printed no skipped-candidate report"
  exit 1
}

echo "== serve: mixed burst + graceful drain under tsan =="
cmake --build "${TSAN_DIR}" -j "${JOBS}" --target codesign codesign-client
SERVE_PORT="${CODESIGN_CHECK_SERVE_PORT:-8391}"
SERVE_BIN="${TSAN_DIR}/tools/codesign"
CLIENT_BIN="${TSAN_DIR}/tools/codesign-client"
SERVE_LOG="${TSAN_DIR}/serve_smoke.log"
CODESIGN_FAILPOINTS='serve.dispatch=prob:0.05:7' \
    "${SERVE_BIN}" serve --port="${SERVE_PORT}" --threads=4 \
    >"${SERVE_LOG}" 2>&1 &
SERVE_PID=$!
for i in $(seq 1 100); do
  if "${CLIENT_BIN}" ping --port="${SERVE_PORT}" >/dev/null 2>&1; then break; fi
  if [ "${i}" -eq 100 ]; then
    echo "FAIL: codesign serve never became ready"; cat "${SERVE_LOG}"; exit 1
  fi
  sleep 0.1
done

# Byte identity: a served payload is the one-shot CLI's stdout, byte for
# byte. The 5% dispatch drill may fault any single request, so retry.
fetch() {  # fetch <out-file> <op> [flags...]
  local out="$1"; shift
  for _ in $(seq 1 20); do
    if "${CLIENT_BIN}" "$@" --port="${SERVE_PORT}" >"${out}" 2>/dev/null; then
      return 0
    fi
  done
  echo "FAIL: serve request kept failing: $*"; exit 1
}
fetch "${TSAN_DIR}/serve_est.txt" estimate --m=4096 --n=4096 --k=4096
"${SERVE_BIN}" gemm --m=4096 --n=4096 --k=4096 >"${TSAN_DIR}/cli_est.txt"
diff -u "${TSAN_DIR}/cli_est.txt" "${TSAN_DIR}/serve_est.txt" || {
  echo "FAIL: served estimate payload is not byte-identical to the CLI"
  exit 1
}
fetch "${TSAN_DIR}/serve_adv.txt" advise --model=gpt3-2.7b
"${SERVE_BIN}" advise gpt3-2.7b >"${TSAN_DIR}/cli_adv.txt"
diff -u "${TSAN_DIR}/cli_adv.txt" "${TSAN_DIR}/serve_adv.txt" || {
  echo "FAIL: served advise payload is not byte-identical to the CLI"
  exit 1
}
fetch "${TSAN_DIR}/serve_explain.txt" explain --m=8192 --n=50257 --k=2560
"${SERVE_BIN}" explain --m=8192 --n=50257 --k=2560 \
    >"${TSAN_DIR}/cli_explain.txt"
diff -u "${TSAN_DIR}/cli_explain.txt" "${TSAN_DIR}/serve_explain.txt" || {
  echo "FAIL: served explain payload is not byte-identical to the CLI"
  exit 1
}

# Mixed burst: estimates, explains, advises in flight concurrently (the
# drill faults ~5% of them; any response is acceptable, no hang is not).
BURST_PIDS=()
for i in $(seq 1 12); do
  case $((i % 3)) in
    0) "${CLIENT_BIN}" estimate --m=$((512 * i)) --n=2048 --k=2048 \
           --port="${SERVE_PORT}" >/dev/null 2>&1 & ;;
    1) "${CLIENT_BIN}" explain --m=1024 --n=$((1024 + 256 * i)) --k=1024 \
           --port="${SERVE_PORT}" >/dev/null 2>&1 & ;;
    *) "${CLIENT_BIN}" advise --model=pythia-70m \
           --port="${SERVE_PORT}" >/dev/null 2>&1 & ;;
  esac
  BURST_PIDS+=($!)
done
for pid in "${BURST_PIDS[@]}"; do wait "${pid}" || true; done

# One over-deadline request must come back as code 6 (cancelled), not a
# hang (retry past the occasional injected dispatch fault).
DL_RC=-1
for _ in $(seq 1 10); do
  set +e
  "${CLIENT_BIN}" sleep --ms=500 --deadline-ms=20 --port="${SERVE_PORT}" \
      >/dev/null 2>&1
  DL_RC=$?
  set -e
  if [ "${DL_RC}" -eq 6 ]; then break; fi
done
if [ "${DL_RC}" -ne 6 ]; then
  echo "FAIL: over-deadline request exited ${DL_RC}, want 6"; exit 1
fi

# SIGINT with a request still in flight: the admitted sleep finishes, the
# server drains and exits 0.
"${CLIENT_BIN}" sleep --ms=400 --port="${SERVE_PORT}" >/dev/null 2>&1 &
INFLIGHT_PID=$!
sleep 0.1
kill -INT "${SERVE_PID}"
SERVE_RC=0
wait "${SERVE_PID}" || SERVE_RC=$?
wait "${INFLIGHT_PID}" || true
if [ "${SERVE_RC}" -ne 0 ]; then
  echo "FAIL: codesign serve exited ${SERVE_RC} after SIGINT, want 0"
  cat "${SERVE_LOG}"; exit 1
fi
grep -q "drained:" "${SERVE_LOG}" || {
  echo "FAIL: serve printed no drain summary"; cat "${SERVE_LOG}"; exit 1
}

echo "== serve-obs: tracing determinism drill under tsan =="
OBS_PORT=$((SERVE_PORT + 1))
run_obs_pass() {  # run_obs_pass <prom-out> <tail-out> <log>
  local prom_out="$1" tail_out="$2" log="$3"
  # once:3 faults the 3rd *dispatched* request in both passes (ping, tail,
  # and stats bypass admission and never reach the dispatch failpoint).
  CODESIGN_FAILPOINTS='serve.dispatch=once:3' \
      "${SERVE_BIN}" serve --port="${OBS_PORT}" --threads=2 \
      --slo-p99-ms=5000 >"${log}" 2>&1 &
  local pid=$!
  for i in $(seq 1 100); do
    if "${CLIENT_BIN}" ping --port="${OBS_PORT}" >/dev/null 2>&1; then break; fi
    if [ "${i}" -eq 100 ]; then
      echo "FAIL: serve-obs server never became ready"; cat "${log}"; exit 1
    fi
    sleep 0.1
  done
  # The identical serial sequence both passes replay: the third dispatched
  # request (the 2048 estimate) trips the injected fault deterministically.
  "${CLIENT_BIN}" estimate --m=1024 --n=1024 --k=1024 \
      --port="${OBS_PORT}" >/dev/null 2>&1 || true
  "${CLIENT_BIN}" explain --m=512 --n=512 --k=512 \
      --port="${OBS_PORT}" >/dev/null 2>&1 || true
  "${CLIENT_BIN}" estimate --m=2048 --n=2048 --k=2048 \
      --port="${OBS_PORT}" >/dev/null 2>&1 || true
  "${CLIENT_BIN}" advise --model=pythia-70m \
      --port="${OBS_PORT}" >/dev/null 2>&1 || true
  # Records land in the ring just after their responses are written; retry
  # until the injected fault shows up in the error tail.
  for i in $(seq 1 20); do
    "${CLIENT_BIN}" tail --filter=errors --port="${OBS_PORT}" \
        >"${tail_out}" 2>/dev/null || true
    if grep -q "injected fault" "${tail_out}"; then break; fi
    sleep 0.1
  done
  for i in $(seq 1 20); do
    "${CLIENT_BIN}" stats --format=prom --port="${OBS_PORT}" \
        >"${prom_out}" 2>/dev/null || true
    if grep -q "codesign_serve_request_us" "${prom_out}"; then break; fi
    sleep 0.1
  done
  kill -INT "${pid}"
  local rc=0
  wait "${pid}" || rc=$?
  if [ "${rc}" -ne 0 ]; then
    echo "FAIL: serve-obs server exited ${rc} after SIGINT, want 0"
    cat "${log}"; exit 1
  fi
}
run_obs_pass "${TSAN_DIR}/obs_prom_1.txt" "${TSAN_DIR}/obs_tail_1.txt" \
    "${TSAN_DIR}/serve_obs_1.log"
run_obs_pass "${TSAN_DIR}/obs_prom_2.txt" "${TSAN_DIR}/obs_tail_2.txt" \
    "${TSAN_DIR}/serve_obs_2.log"

# Deterministic-tagged series must not drift between identical runs; the
# wall-clock (best_effort) series are allowed to.
grep 'stability="deterministic"' "${TSAN_DIR}/obs_prom_1.txt" \
    >"${TSAN_DIR}/obs_det_1.txt" || true
grep 'stability="deterministic"' "${TSAN_DIR}/obs_prom_2.txt" \
    >"${TSAN_DIR}/obs_det_2.txt" || true
diff -u "${TSAN_DIR}/obs_det_1.txt" "${TSAN_DIR}/obs_det_2.txt" || {
  echo "FAIL: deterministic-tagged prom series drifted between two" \
       "identical serve runs"
  exit 1
}
grep -q "codesign_serve_request_us" "${TSAN_DIR}/obs_prom_1.txt" || {
  echo "FAIL: prom scrape is missing the serve.request_us summary"
  cat "${TSAN_DIR}/obs_prom_1.txt"; exit 1
}
grep -q "injected fault" "${TSAN_DIR}/obs_tail_1.txt" || {
  echo "FAIL: tail --filter=errors never surfaced the injected fault"
  cat "${TSAN_DIR}/obs_tail_1.txt"; exit 1
}
grep -q '"error_phase":"execute"' "${TSAN_DIR}/obs_tail_1.txt" || {
  echo "FAIL: the injected fault was not attributed to the execute phase"
  cat "${TSAN_DIR}/obs_tail_1.txt"; exit 1
}
grep -q "latency: p50" "${TSAN_DIR}/serve_obs_1.log" || {
  echo "FAIL: serve-obs drain summary printed no latency line"
  cat "${TSAN_DIR}/serve_obs_1.log"; exit 1
}
grep -q "SLO p99 <= 5000.00 ms: met" "${TSAN_DIR}/serve_obs_1.log" || {
  echo "FAIL: serve-obs drain summary printed no SLO verdict"
  cat "${TSAN_DIR}/serve_obs_1.log"; exit 1
}

# --tail=0 keeps no request records, but every request is still traced:
# the prom scrape carries serve.request_us (for the readiness pings too,
# which bypass dispatch), `tail` is a usage error (exit 2), and the drain
# summary still prints its latency line.
TAIL0_SERIES='codesign_serve_request_us_count{op="ping"'
TAIL0_LOG="${TSAN_DIR}/serve_obs_tail0.log"
"${SERVE_BIN}" serve --port="${OBS_PORT}" --threads=2 --tail=0 \
    >"${TAIL0_LOG}" 2>&1 &
TAIL0_PID=$!
for i in $(seq 1 100); do
  if "${CLIENT_BIN}" ping --port="${OBS_PORT}" >/dev/null 2>&1; then break; fi
  if [ "${i}" -eq 100 ]; then
    echo "FAIL: --tail=0 server never became ready"; cat "${TAIL0_LOG}"; exit 1
  fi
  sleep 0.1
done
"${CLIENT_BIN}" estimate --m=1024 --n=1024 --k=1024 \
    --port="${OBS_PORT}" >/dev/null
for i in $(seq 1 20); do
  "${CLIENT_BIN}" stats --format=prom --port="${OBS_PORT}" \
      >"${TSAN_DIR}/obs_prom_tail0.txt" 2>/dev/null || true
  if grep -qF "${TAIL0_SERIES}" "${TSAN_DIR}/obs_prom_tail0.txt"; then
    break
  fi
  sleep 0.1
done
TAIL0_RC=0
"${CLIENT_BIN}" tail --port="${OBS_PORT}" >/dev/null 2>&1 || TAIL0_RC=$?
kill -INT "${TAIL0_PID}"
TAIL0_SERVE_RC=0
wait "${TAIL0_PID}" || TAIL0_SERVE_RC=$?
if [ "${TAIL0_SERVE_RC}" -ne 0 ]; then
  echo "FAIL: --tail=0 server exited ${TAIL0_SERVE_RC} after SIGINT, want 0"
  cat "${TAIL0_LOG}"; exit 1
fi
grep -qF "${TAIL0_SERIES}" "${TSAN_DIR}/obs_prom_tail0.txt" || {
  echo "FAIL: --tail=0 prom scrape is missing the serve.request_us summary"
  cat "${TSAN_DIR}/obs_prom_tail0.txt"; exit 1
}
if [ "${TAIL0_RC}" -ne 2 ]; then
  echo "FAIL: codesign-client tail against --tail=0 exited ${TAIL0_RC}, want 2"
  exit 1
fi
grep -q "latency: p50" "${TAIL0_LOG}" || {
  echo "FAIL: --tail=0 drain summary printed no latency line"
  cat "${TAIL0_LOG}"; exit 1
}

echo "== attribution: analyze + search --attribution determinism under tsan =="
# The attribution report must be byte-identical at any search thread count
# (the sensitivity probe is sequential by design), and `codesign analyze`
# must produce the exact bytes `search --attribution` writes.
"${SERVE_BIN}" analyze gpt3-2.7b --out="${TSAN_DIR}/attr_analyze.json" \
    >/dev/null
"${SERVE_BIN}" search gpt3-2.7b --mode=joint --threads=1 \
    --attribution="${TSAN_DIR}/attr_t1.json" >/dev/null
"${SERVE_BIN}" search gpt3-2.7b --mode=joint --threads=8 \
    --attribution="${TSAN_DIR}/attr_t8.json" >/dev/null
diff -u "${TSAN_DIR}/attr_t1.json" "${TSAN_DIR}/attr_t8.json" || {
  echo "FAIL: search --attribution report drifted across thread counts"
  exit 1
}
diff -u "${TSAN_DIR}/attr_analyze.json" "${TSAN_DIR}/attr_t1.json" || {
  echo "FAIL: analyze report differs from the search attribution report"
  exit 1
}
grep -q '"report": "codesign.attribution"' "${TSAN_DIR}/attr_analyze.json" || {
  echo "FAIL: attribution report is missing its schema header"
  exit 1
}

echo "== search: trimmed ranking determinism under tsan =="
# At --max=3 the gpt3-2.7b baseline ranks past the cut, so the top-k merge
# must put it in the last row; the table (everything after the banner,
# which names the thread count) must be byte-identical through the pool.
"${SERVE_BIN}" search gpt3-2.7b --mode=joint --max=3 --threads=1 \
    | tail -n +2 >"${TSAN_DIR}/search_max3_t1.txt"
"${SERVE_BIN}" search gpt3-2.7b --mode=joint --max=3 --threads=8 \
    | tail -n +2 >"${TSAN_DIR}/search_max3_t8.txt"
diff -u "${TSAN_DIR}/search_max3_t1.txt" "${TSAN_DIR}/search_max3_t8.txt" || {
  echo "FAIL: search --max=3 ranking drifted across thread counts"
  exit 1
}
grep -q '^| gpt3-2.7b ' "${TSAN_DIR}/search_max3_t1.txt" || {
  echo "FAIL: search --max=3 dropped the baseline row"
  exit 1
}
# A GQA joint grid keeps kv | a at every hidden size: the search must exit
# 0 with a ranked table, byte-identical through the pool.
"${SERVE_BIN}" search mistral-7b --mode=joint --threads=1 \
    | tail -n +2 >"${TSAN_DIR}/search_gqa_t1.txt"
"${SERVE_BIN}" search mistral-7b --mode=joint --threads=8 \
    | tail -n +2 >"${TSAN_DIR}/search_gqa_t8.txt"
diff -u "${TSAN_DIR}/search_gqa_t1.txt" "${TSAN_DIR}/search_gqa_t8.txt" || {
  echo "FAIL: GQA joint search ranking drifted across thread counts"
  exit 1
}
grep -q '^| mistral-7b ' "${TSAN_DIR}/search_gqa_t1.txt" || {
  echo "FAIL: GQA joint search printed no baseline row"
  exit 1
}

echo "== serve-drill: one server, 5% network + dispatch faults on both ends =="
drill_faults() {  # drill_faults <seed-offset>: the four drills at 5% each
  local s="$1"
  printf '%s' "serve.net.read_stall=prob:0.05:$((s + 11))," \
      "serve.net.write_drop=prob:0.05:$((s + 12))," \
      "serve.net.conn_close=prob:0.05:$((s + 13))," \
      "serve.dispatch=prob:0.05:$((s + 7))"
}
DRILL_PORT=$((SERVE_PORT + 2))
DRILL_LOG="${TSAN_DIR}/drill_serve.log"
# At seed offset 1 the server's dispatch drill fires within the mix, so
# the tier sees typed 75s as well as lost connections.
CODESIGN_FAILPOINTS="$(drill_faults 1)" \
    "${SERVE_BIN}" serve --port="${DRILL_PORT}" --threads=2 \
    >"${DRILL_LOG}" 2>&1 &
DRILL_PID=$!
for i in $(seq 1 100); do
  if "${CLIENT_BIN}" ping --port="${DRILL_PORT}" >/dev/null 2>&1; then break; fi
  if [ "${i}" -eq 100 ]; then
    echo "FAIL: serve-drill server never became ready"; cat "${DRILL_LOG}"
    exit 1
  fi
  sleep 0.1
done

# Expected payloads straight from the one-shot CLI.
"${SERVE_BIN}" gemm --m=1024 --n=2048 --k=768 >"${TSAN_DIR}/drill_est_a.txt"
"${SERVE_BIN}" gemm --m=4096 --n=4096 --k=4096 >"${TSAN_DIR}/drill_est_b.txt"
"${SERVE_BIN}" gemm --m=512 --n=1536 --k=896 --batch=4 \
    >"${TSAN_DIR}/drill_est_c.txt"
"${SERVE_BIN}" advise pythia-70m >"${TSAN_DIR}/drill_adv_a.txt"
"${SERVE_BIN}" advise gpt3-2.7b >"${TSAN_DIR}/drill_adv_b.txt"

DRILL_OK=0
drill_call() {  # drill_call <expected-file> <seed-offset> <op> [flags...]
  # One shot, no retries. The client arms the drills in its own socket
  # helpers too, under a per-call seed. codesign-client does not retry, so
  # a fault ends the call as a typed 75 or a lost connection (7), never as
  # a wrong payload.
  local expect="$1" seed="$2"; shift 2
  local got="${TSAN_DIR}/drill_got.txt"
  local rc=0
  CODESIGN_FAILPOINTS="$(drill_faults "${seed}")" \
      "${CLIENT_BIN}" "$@" --port="${DRILL_PORT}" \
      >"${got}" 2>"${TSAN_DIR}/drill_err.txt" || rc=$?
  case "${rc}" in
    0)
      diff -u "${expect}" "${got}" || {
        echo "FAIL: serve-drill payload differs from the one-shot CLI: $*"
        exit 1
      }
      DRILL_OK=$((DRILL_OK + 1)) ;;
    7|75)
      if [ -s "${got}" ]; then
        echo "FAIL: serve-drill request exited ${rc} but printed a payload: $*"
        exit 1
      fi ;;
    *)
      echo "FAIL: serve-drill request exited ${rc} (want 0, 7 or 75): $*"
      cat "${TSAN_DIR}/drill_err.txt"; exit 1 ;;
  esac
}
for i in $(seq 1 4); do
  drill_call "${TSAN_DIR}/drill_est_a.txt" "$((i * 5 + 1))" \
      estimate --m=1024 --n=2048 --k=768
  drill_call "${TSAN_DIR}/drill_est_b.txt" "$((i * 5 + 2))" \
      estimate --m=4096 --n=4096 --k=4096
  drill_call "${TSAN_DIR}/drill_est_c.txt" "$((i * 5 + 3))" \
      estimate --m=512 --n=1536 --k=896 --batch=4
  drill_call "${TSAN_DIR}/drill_adv_a.txt" "$((i * 5 + 4))" \
      advise --model=pythia-70m
  drill_call "${TSAN_DIR}/drill_adv_b.txt" "$((i * 5 + 5))" \
      advise --model=gpt3-2.7b
done
if [ "${DRILL_OK}" -eq 0 ]; then
  echo "FAIL: no serve-drill request came back with a payload"; exit 1
fi

# health answers "ok" with the server's drills still armed; a faulted
# probe is simply sent again.
HEALTH_OUT="${TSAN_DIR}/drill_health.txt"
for i in $(seq 1 20); do
  if "${CLIENT_BIN}" health --port="${DRILL_PORT}" >"${HEALTH_OUT}" \
      2>/dev/null; then
    break
  fi
done
grep -q '"status":"ok"' "${HEALTH_OUT}" || {
  echo "FAIL: serve-drill server reported unhealthy:"; cat "${HEALTH_OUT}"
  exit 1
}

# The retired multi-endpoint flags are usage errors now.
ENDPOINTS_RC=0
"${CLIENT_BIN}" ping --endpoints="127.0.0.1:${DRILL_PORT}" >/dev/null 2>&1 \
    || ENDPOINTS_RC=$?
if [ "${ENDPOINTS_RC}" -ne 2 ]; then
  echo "FAIL: codesign-client --endpoints exited ${ENDPOINTS_RC}, want 2"
  exit 1
fi

kill -INT "${DRILL_PID}"
DRILL_RC=0
wait "${DRILL_PID}" || DRILL_RC=$?
if [ "${DRILL_RC}" -ne 0 ]; then
  echo "FAIL: serve-drill server exited ${DRILL_RC} after SIGINT, want 0"
  cat "${DRILL_LOG}"; exit 1
fi
grep -q "drained:" "${DRILL_LOG}" || {
  echo "FAIL: serve-drill server printed no drain summary"; cat "${DRILL_LOG}"
  exit 1
}

echo "== sweep: matrix determinism + resume drill under tsan =="
# The codesign.sweep report must be byte-identical at any thread count, and
# a run interrupted at the "sweep.cell" failpoint must resume from its
# checkpoint into the exact bytes of an uninterrupted run (docs/SWEEP.md).
SWEEP_CONF="${SRC_DIR}/examples/sweeps/full_matrix.conf"
"${SERVE_BIN}" sweep --config="${SWEEP_CONF}" --threads=1 --cache \
    --out="${TSAN_DIR}/sweep_t1.json" >/dev/null
"${SERVE_BIN}" sweep --config="${SWEEP_CONF}" --threads=8 --cache \
    --out="${TSAN_DIR}/sweep_t8.json" >/dev/null
diff -u "${TSAN_DIR}/sweep_t1.json" "${TSAN_DIR}/sweep_t8.json" || {
  echo "FAIL: sweep report drifted across thread counts"
  exit 1
}
grep -q '"report": "codesign.sweep"' "${TSAN_DIR}/sweep_t1.json" || {
  echo "FAIL: sweep report is missing its schema header"
  exit 1
}
SWEEP_CP="${TSAN_DIR}/sweep_resume_cp.txt"
rm -f "${SWEEP_CP}"
# Interrupt at the 6th cell: cells 1-5 land in the checkpoint, the rest
# must be re-planned and evaluated by the resumed run.
if CODESIGN_FAILPOINTS='sweep.cell=once:6:fatal' \
    "${SERVE_BIN}" sweep --config="${SWEEP_CONF}" --threads=2 \
    --checkpoint="${SWEEP_CP}" >/dev/null 2>&1; then
  echo "FAIL: armed sweep.cell failpoint did not abort the sweep"
  exit 1
fi
[ -s "${SWEEP_CP}" ] || {
  echo "FAIL: interrupted sweep left no checkpoint"
  exit 1
}
"${SERVE_BIN}" sweep --config="${SWEEP_CONF}" --threads=2 \
    --checkpoint="${SWEEP_CP}" --resume \
    --out="${TSAN_DIR}/sweep_resumed.json" \
    | grep -q "from checkpoint" || {
  echo "FAIL: resumed sweep reported no checkpointed variants"
  exit 1
}
diff -u "${TSAN_DIR}/sweep_resumed.json" "${TSAN_DIR}/sweep_t1.json" || {
  echo "FAIL: resumed sweep report differs from the uninterrupted run"
  exit 1
}
# Kill drill: the :exit action _Exits at the 6th cell, so no destructor
# compacts the checkpoint. With a cadence of 4 records the journal holds
# the first cells' records, and resuming from it alone must reproduce the
# uninterrupted report.
for KILL_THREADS in 1 2; do
  KILL_CP="${TSAN_DIR}/sweep_kill_cp_t${KILL_THREADS}.txt"
  rm -f "${KILL_CP}" "${KILL_CP}.journal"
  KILL_RC=0
  CODESIGN_FAILPOINTS='sweep.cell=once:6:exit' \
      "${SERVE_BIN}" sweep --config="${SWEEP_CONF}" \
      --threads="${KILL_THREADS}" --checkpoint="${KILL_CP}" \
      --checkpoint-every=4 >/dev/null 2>&1 || KILL_RC=$?
  [ "${KILL_RC}" -eq 137 ] || {
    echo "FAIL: sweep.cell=once:6:exit ended the sweep with ${KILL_RC}, not 137"
    exit 1
  }
  [ -s "${KILL_CP}.journal" ] || {
    echo "FAIL: killed sweep (--threads=${KILL_THREADS}) left no journal"
    exit 1
  }
  "${SERVE_BIN}" sweep --config="${SWEEP_CONF}" --threads="${KILL_THREADS}" \
      --checkpoint="${KILL_CP}" --resume --checkpoint-every=4 \
      --out="${TSAN_DIR}/sweep_killed_t${KILL_THREADS}.json" \
      | grep -q "from checkpoint" || {
    echo "FAIL: sweep resumed from a journal reported no checkpointed variants"
    exit 1
  }
  diff -u "${TSAN_DIR}/sweep_killed_t${KILL_THREADS}.json" \
      "${TSAN_DIR}/sweep_t1.json" || {
    echo "FAIL: sweep resumed from a journal differs from the uninterrupted run"
    exit 1
  }
done

# Kill drills at every persist point of the checkpoint writer. A run
# resumed from a fatal-interrupted checkpoint is killed at its journal
# creation, its first journal append, its compaction (old sorted file
# retired, not yet renamed onto) or its journal removal; what the kill
# leaves behind must resume into the uninterrupted report.
PERSIST_CP="${TSAN_DIR}/sweep_persist_cp.txt"
for KILL_SITE in journal_create journal_append compact journal_remove; do
  for KILL_THREADS in 1 2; do
    rm -f "${PERSIST_CP}" "${PERSIST_CP}.journal"
    if CODESIGN_FAILPOINTS='sweep.cell=once:6:fatal' \
        "${SERVE_BIN}" sweep --config="${SWEEP_CONF}" \
        --threads="${KILL_THREADS}" --checkpoint="${PERSIST_CP}" \
        --checkpoint-every=4 >/dev/null 2>&1; then
      echo "FAIL: armed sweep.cell failpoint did not abort the sweep"
      exit 1
    fi
    KILL_RC=0
    CODESIGN_FAILPOINTS="advisor.checkpoint.${KILL_SITE}=once:1:exit" \
        "${SERVE_BIN}" sweep --config="${SWEEP_CONF}" \
        --threads="${KILL_THREADS}" --checkpoint="${PERSIST_CP}" --resume \
        --checkpoint-every=4 >/dev/null 2>&1 || KILL_RC=$?
    [ "${KILL_RC}" -eq 137 ] || {
      echo "FAIL: advisor.checkpoint.${KILL_SITE}=once:1:exit ended the" \
           "sweep with ${KILL_RC}, not 137"
      exit 1
    }
    PERSIST_OUT="${TSAN_DIR}/sweep_persist_${KILL_SITE}_t${KILL_THREADS}.json"
    "${SERVE_BIN}" sweep --config="${SWEEP_CONF}" --threads="${KILL_THREADS}" \
        --checkpoint="${PERSIST_CP}" --resume --checkpoint-every=4 \
        --out="${PERSIST_OUT}" | grep -q "from checkpoint" || {
      echo "FAIL: sweep killed at ${KILL_SITE} resumed no checkpointed variants"
      exit 1
    }
    diff -u "${PERSIST_OUT}" "${TSAN_DIR}/sweep_t1.json" || {
      echo "FAIL: sweep killed at ${KILL_SITE} (--threads=${KILL_THREADS})" \
           "resumed into a different report"
      exit 1
    }
  done
done

echo "== perf: bench smoke suite vs committed baseline =="
PERF_MIN_FRAC="${CODESIGN_PERF_MIN_FRAC:-0.75}"
PERF_BASELINE="${SRC_DIR}/bench/baselines/BENCH_smoke_baseline.json"
"${BUILD_DIR}/tools/codesign-bench" run --suite=smoke --repeats=5 \
    --out="${BUILD_DIR}/BENCH_smoke.json"
"${BUILD_DIR}/tools/codesign-bench" compare "${PERF_BASELINE}" \
    "${BUILD_DIR}/BENCH_smoke.json" --min-frac="${PERF_MIN_FRAC}"

echo "== check OK =="
