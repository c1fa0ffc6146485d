#!/usr/bin/env bash
# Full verification: build + ctest in the plain configuration, then
# again under ThreadSanitizer (BOLT_SANITIZE=thread) to vet the thread
# pool and the parallel experiment engine, under AddressSanitizer
# (address) and under UndefinedBehaviorSanitizer (undefined). The
# sanitizer legs run with UBSAN_OPTIONS=halt_on_error=1, so any report
# fails the leg. Finally a Release build runs the recommender
# query-path benchmark, which fails if its output digest diverges from
# the committed golden (bench/BENCH_recommender.golden) and writes
# throughput/latency numbers to BENCH_recommender.json; an unknown flag
# or a flag without its value must make it exit 2 first.
#
# There is one build configuration per sanitizer, not per kernel
# backend: every x86-64 build carries the AVX2 kernels and selects them
# at startup when the CPU supports AVX2, so on such a CPU every stage
# below runs the AVX2 backend against goldens that the scalar backend
# reproduces too. The scalar-vs-AVX2 bit-equality tests
# (tests/test_kernels.cc) run in every ctest.
#
# The --obs stage asserts the observability contract: running the same
# experiment with metrics+tracing enabled vs disabled, at 1 and 8
# threads, must produce byte-identical stdout (including the result
# digest), while the emitted metrics/trace files must be valid JSON.
#
# The --fault stage asserts the fault-injection determinism contract:
# a faulted experiment (tenant churn + measurement faults) must produce
# byte-identical stdout at 1 and 8 threads, and fault modifiers without
# a fault rate must be rejected with exit 2.
#
# The --serve stage asserts the serving-layer determinism contract:
# `bolt_cli serve` stdout must be byte-identical at 1 and 8
# worker threads (open and closed loop), and malformed numeric flags
# must be rejected with exit 2.
#
# The --scenario stage asserts the scenario-compiler contract: the
# canonical dump of every scenarios/*.scn round-trips through the
# compiler, and malformed scenario files are rejected with a
# line-numbered diagnostic and exit 2.
#
# The --telemetry stage asserts the telemetry-pipeline contract:
# enabling --telemetry-out must not change run stdout (telemetry
# observes, it never perturbs), the JSONL dump must be byte-identical
# at 1 and 8 threads, `bolt_cli report` must render it, a failing
# `expect:` must exit 3 with a file:line message, and the perf_serving
# --json probe must show <5% saturation wall-QPS overhead.
#
# The --fleet stage asserts the fleet-sharding determinism contract:
# `bolt_cli fleet` stdout must be byte-identical at 1 and 8 threads,
# the run digest must be identical at 1 and 16 shards (only the
# cross-shard migration statistic may move), and malformed flags must
# be rejected with exit 2.
#
# The --armsrace stage asserts the placement-arms-race contract:
# `bolt_cli armsrace` (one arms-race cell) stdout must be byte-identical
# at 1 and 8 threads, and malformed flags must be rejected with exit 2.
#
# The --goldens stage checks every stdout golden listed in
# bench/goldens.txt: bench/goldens.cmake runs each line's command at 1
# and 8 threads, requires the same bytes from both, and diffs them
# against the golden. Every line is also a ctest entry (label slow), so
# the plain and sanitizer legs above run the same check. Pass --update
# after --goldens to rewrite the goldens instead of diffing them.
#
# Usage: scripts/check.sh [--plain-only|--tsan-only|--asan-only|--ubsan-only|--obs|--fault|--serve|--scenario|--telemetry|--fleet|--armsrace|--goldens [--update]|--bench-only]
set -euo pipefail

cd "$(dirname "$0")/.."

run_config() {
    local dir="$1"
    shift
    echo "== Configuring ${dir} ($*) =="
    cmake -B "${dir}" -S . "$@"
    echo "== Building ${dir} =="
    cmake --build "${dir}" -j "$(nproc)"
    echo "== Testing ${dir} =="
    ctest --test-dir "${dir}" --output-on-failure -j "$(nproc)"
}

mode="${1:-all}"
tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}" "${rt:-}"' EXIT

if [[ "${mode}" == "--plain-only" || "${mode}" == "all" ]]; then
    run_config build
fi

if [[ "${mode}" == "--tsan-only" || "${mode}" == "all" ]]; then
    # TSan slows execution ~5-15x; the suite still finishes in minutes.
    run_config build-tsan -DBOLT_SANITIZE=thread
fi

# Any UBSan report aborts the test that triggered it (with a stack), so
# a report fails the leg instead of scrolling past.
if [[ "${mode}" == "--asan-only" || "${mode}" == "all" ]]; then
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        run_config build-asan -DBOLT_SANITIZE=address
fi

if [[ "${mode}" == "--ubsan-only" || "${mode}" == "all" ]]; then
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        run_config build-ubsan -DBOLT_SANITIZE=undefined
fi

if [[ "${mode}" == "--obs" || "${mode}" == "all" ]]; then
    echo "== Observability inertness gate =="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$(nproc)" --target bolt_cli
    cli=./build/examples/bolt_cli
    exp_flags=(experiment --servers 8 --victims 20 --seed 7)

    for threads in 1 8; do
        echo "-- threads=${threads}: obs off vs on --"
        "${cli}" "${exp_flags[@]}" --threads "${threads}" \
            > "${tmp}/off_${threads}.txt"
        "${cli}" "${exp_flags[@]}" --threads "${threads}" \
            --metrics-out "${tmp}/m_${threads}.json" \
            --trace-out "${tmp}/t_${threads}.json" \
            --log-level error \
            > "${tmp}/on_${threads}.txt"
        if ! diff -u "${tmp}/off_${threads}.txt" \
                     "${tmp}/on_${threads}.txt"; then
            echo "FAIL: enabling observability changed experiment output" \
                 "at threads=${threads}" >&2
            exit 1
        fi
        # The emitted files must be valid JSON with the expected roots.
        python3 - "${tmp}/m_${threads}.json" \
                  "${tmp}/t_${threads}.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["bolt_run_report"] == 1, "missing RunReport marker"
assert report["command"] == "experiment", report["command"]
assert report["metrics"]["counters"]["detector.rounds"] > 0
trace = json.load(open(sys.argv[2]))
assert isinstance(trace["traceEvents"], list) and trace["traceEvents"]
assert any(e["name"] == "detector.round" for e in trace["traceEvents"])
EOF
    done

    # The run itself is thread-count invariant (digest printed in stdout).
    if ! diff -u "${tmp}/off_1.txt" "${tmp}/off_8.txt"; then
        echo "FAIL: experiment output differs between 1 and 8 threads" >&2
        exit 1
    fi
    # The trace export must also be byte-identical across thread counts.
    if ! diff -u "${tmp}/t_1.json" "${tmp}/t_8.json"; then
        echo "FAIL: trace export differs between 1 and 8 threads" >&2
        exit 1
    fi
    # Strict flag parsing: unknown flags must be rejected.
    if "${cli}" experiment --no-such-flag >/dev/null 2>&1; then
        echo "FAIL: bolt_cli accepted an unknown flag" >&2
        exit 1
    fi
    echo "Observability gate passed."
fi

if [[ "${mode}" == "--fault" || "${mode}" == "all" ]]; then
    echo "== Fault-injection determinism gate =="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$(nproc)" --target bolt_cli
    cli=./build/examples/bolt_cli
    fault_flags=(experiment --servers 12 --victims 30 --seed 42
                 --faults.arrivals 0.1 --faults.departures 0.08
                 --faults.phase-flips 0.1 --faults.dropouts 0.15
                 --faults.spikes 0.05 --faults.jitter 0.05
                 --log-level error)

    # A nontrivial fault plan must be thread-count invariant: churn,
    # dropouts and retries all draw from counter-based streams keyed by
    # (server, round), never from execution order.
    "${cli}" "${fault_flags[@]}" --threads 1 > "${tmp}/f_1.txt"
    "${cli}" "${fault_flags[@]}" --threads 8 > "${tmp}/f_8.txt"
    if ! diff -u "${tmp}/f_1.txt" "${tmp}/f_8.txt"; then
        echo "FAIL: faulted experiment output differs between 1 and 8" \
             "threads" >&2
        exit 1
    fi

    # Strict flag validation: modifiers without a fault rate are an
    # error (exit 2), not a silent unfaulted run.
    if "${cli}" experiment --faults.seed 7 >/dev/null 2>&1; then
        echo "FAIL: bolt_cli accepted --faults.seed with no fault enabled" >&2
        exit 1
    fi
    echo "Fault-injection gate passed."
fi

if [[ "${mode}" == "--serve" || "${mode}" == "all" ]]; then
    echo "== Serving determinism gate =="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$(nproc)" --target bolt_cli
    cli=./build/examples/bolt_cli

    # The Sim-plane serving stats (admissions, sheds, batches, latency
    # percentiles, digest) are decided by a sequential event loop; the
    # worker pool only executes already-formed batches. Output must be
    # byte-identical at any thread count, open and closed loop.
    open_flags=(serve --requests 1500 --qps 2500
                --decompose-frac 0.2 --seed 11 --log-level error)
    closed_flags=(serve --requests 1000 --loop closed --clients 32
                  --think-ms 2 --seed 12 --log-level error)
    for loop in open closed; do
        flags_var="${loop}_flags[@]"
        for threads in 1 8; do
            "${cli}" "${!flags_var}" --threads "${threads}" \
                > "${tmp}/${loop}_${threads}.txt"
        done
        if ! diff -u "${tmp}/${loop}_1.txt" \
                     "${tmp}/${loop}_8.txt"; then
            echo "FAIL: ${loop}-loop serve output differs between" \
                 "1 and 8 threads" >&2
            exit 1
        fi
    done

    # Strict numeric flag validation: trailing garbage and out-of-range
    # values must exit 2 (usage error), never fall back to a default.
    for bad in "--requests 10x" "--threads 99999" "--no-such-flag 1"; do
        rc=0
        # shellcheck disable=SC2086  # word splitting is intentional
        "${cli}" serve ${bad} >/dev/null 2>&1 || rc=$?
        if [[ "${rc}" != 2 ]]; then
            echo "FAIL: 'serve ${bad}' exited ${rc}, expected 2" >&2
            exit 1
        fi
    done
    echo "Serving gate passed."
fi

if [[ "${mode}" == "--scenario" || "${mode}" == "all" ]]; then
    echo "== Scenario library gate =="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$(nproc)" --target bolt_cli
    cli=./build/examples/bolt_cli
    # A killed run can leave a round-trip dump behind; it is no scenario.
    rm -f scenarios/*.roundtrip.scn

    for scn in scenarios/*.scn; do
        name="$(basename "${scn}" .scn)"
        echo "-- ${name} --"
        # The canonical dump must recompile to an identical dump. Dump
        # into the scenarios/ dir namespace so includes resolve; the
        # EXIT trap removes the file if anything below fails.
        rt="scenarios/${name}.roundtrip.scn"
        rt_ok=0
        "${cli}" run --scenario "${scn}" --dump > "${rt}" || rt_ok=$?
        if [[ "${rt_ok}" == 0 ]]; then
            "${cli}" run --scenario "${rt}" --dump \
                > "${tmp}/${name}_dump2.txt" || rt_ok=$?
        fi
        if [[ "${rt_ok}" == 0 ]]; then
            diff -u "${rt}" "${tmp}/${name}_dump2.txt" || rt_ok=$?
        fi
        rm -f "${rt}"
        if [[ "${rt_ok}" != 0 ]]; then
            echo "FAIL: ${name} canonical dump did not round-trip" >&2
            exit 1
        fi
    done

    # Malformed scenarios must exit 2 with a line-numbered diagnostic.
    printf 'scenario: bad\nstages:\n  - stage: experiment\n    serveurs: 9\n' \
        > "${tmp}/bad.scn"
    for bad in "" \
               "--scenario ${tmp}/does_not_exist.scn" \
               "--scenario ${tmp}/bad.scn"; do
        rc=0
        # shellcheck disable=SC2086  # word splitting is intentional
        "${cli}" run ${bad} >/dev/null 2>"${tmp}/bad_err.txt" || rc=$?
        if [[ "${rc}" != 2 ]]; then
            echo "FAIL: 'run ${bad}' exited ${rc}, expected 2" >&2
            exit 1
        fi
    done
    # (the last loop iteration left the diagnostic in bad_err.txt)
    if ! grep -q "bad.scn:4: unknown key 'serveurs'" \
            "${tmp}/bad_err.txt"; then
        echo "FAIL: malformed scenario diagnostic lost its file:line" >&2
        exit 1
    fi
    echo "Scenario gate passed."
fi

if [[ "${mode}" == "--telemetry" || "${mode}" == "all" ]]; then
    echo "== Telemetry pipeline gate =="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$(nproc)" --target bolt_cli
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build build-release -j "$(nproc)" --target perf_serving
    cli=./build/examples/bolt_cli

    # Telemetry inertness: the same scenario run with and without a
    # telemetry dump must produce byte-identical stdout (the recorder
    # observes the decision plane, it never perturbs it).
    scn=scenarios/flash_crowd.scn
    "${cli}" run --scenario "${scn}" > "${tmp}/plain.txt"
    "${cli}" run --scenario "${scn}" \
        --telemetry-out "${tmp}/t_1.jsonl" --threads 1 \
        > "${tmp}/tel_1.txt"
    "${cli}" run --scenario "${scn}" \
        --telemetry-out "${tmp}/t_8.jsonl" --threads 8 \
        > "${tmp}/tel_8.txt"
    for variant in tel_1 tel_8; do
        if ! diff -u "${tmp}/plain.txt" "${tmp}/${variant}.txt"; then
            echo "FAIL: --telemetry-out changed scenario stdout" \
                 "(${variant})" >&2
            exit 1
        fi
    done

    # The windowed JSONL export is Sim-class: per-thread shards merge in
    # shard order, so the dump is byte-identical at any thread count.
    if ! diff -u "${tmp}/t_1.jsonl" "${tmp}/t_8.jsonl"; then
        echo "FAIL: telemetry JSONL differs between 1 and 8 threads" >&2
        exit 1
    fi
    if ! grep -q '"bolt_telemetry":1' "${tmp}/t_1.jsonl"; then
        echo "FAIL: telemetry dump is missing its header line" >&2
        exit 1
    fi

    # The post-run analyzer must render the dump (exit 0) and reject a
    # non-telemetry file with a usage error (exit 2).
    "${cli}" report --telemetry "${tmp}/t_1.jsonl" --top 3 \
        > "${tmp}/report.txt"
    if ! grep -q "serve.latency_ms" "${tmp}/report.txt"; then
        echo "FAIL: report output lost the serve.latency_ms series" >&2
        exit 1
    fi
    rc=0
    "${cli}" report --telemetry "${tmp}/plain.txt" \
        >/dev/null 2>&1 || rc=$?
    if [[ "${rc}" != 2 ]]; then
        echo "FAIL: report on a non-telemetry file exited ${rc}," \
             "expected 2" >&2
        exit 1
    fi

    # Failed `expect:` blocks are their own exit code (3) with a
    # file:line diagnostic, distinct from usage errors (2).
    cat > "${tmp}/failing.scn" <<'EOF'
scenario: telemetry-gate-failing-expect
seed: 5
stages:
  - stage: serve
    requests: 200
    qps: 2000
expect:
  - metric: serve.completed
    min: 1000000
EOF
    rc=0
    "${cli}" run --scenario "${tmp}/failing.scn" \
        >/dev/null 2>"${tmp}/expect_err.txt" || rc=$?
    if [[ "${rc}" != 3 ]]; then
        echo "FAIL: failing expect exited ${rc}, expected 3" >&2
        exit 1
    fi
    if ! grep -q "failing.scn:" "${tmp}/expect_err.txt" ||
       ! grep -q "expectation failed" "${tmp}/expect_err.txt"; then
        echo "FAIL: expect failure diagnostic lost its file:line" >&2
        exit 1
    fi

    # Overhead budget: recording every serve/detector/fault series at
    # saturation load must cost <5% wall-QPS and leave the sim digest
    # untouched (perf_serving --json exits 1 otherwise).
    ./build-release/bench/perf_serving --json \
        > "${tmp}/overhead.json"
    echo "-- perf_serving telemetry-overhead probe --"
    cat "${tmp}/overhead.json"
    echo "Telemetry gate passed."
fi

if [[ "${mode}" == "--fleet" || "${mode}" == "all" ]]; then
    echo "== Fleet determinism gate =="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$(nproc)" --target bolt_cli
    cli=./build/examples/bolt_cli
    fleet_flags=(fleet --hosts 800 --tenants 4000 --epochs 5
                 --host-faults 0.02 --seed 2017 --log-level error)

    # The decision plane fixes every churn event sequentially before the
    # per-shard profiling fan-out, so the whole stdout (same shards) is
    # byte-identical at any thread count.
    for threads in 1 8; do
        "${cli}" "${fleet_flags[@]}" --shards 8 --threads "${threads}" \
            > "${tmp}/t_${threads}.txt"
    done
    if ! diff -u "${tmp}/t_1.txt" "${tmp}/t_8.txt"; then
        echo "FAIL: fleet output differs between 1 and 8 threads" >&2
        exit 1
    fi

    # Shards partition work, never outcomes: the run digest at 1 and 16
    # shards must match (only the cross-shard migration statistic may
    # differ, so the comparison is digest lines, not the full stdout).
    "${cli}" "${fleet_flags[@]}" --shards 1 --threads 8 \
        > "${tmp}/s_1.txt"
    "${cli}" "${fleet_flags[@]}" --shards 16 --threads 8 \
        > "${tmp}/s_16.txt"
    if ! diff <(grep "run digest" "${tmp}/s_1.txt") \
              <(grep "run digest" "${tmp}/s_16.txt"); then
        echo "FAIL: fleet digest differs between 1 and 16 shards" >&2
        exit 1
    fi

    # Strict flag validation: trailing garbage, out-of-range values and
    # unknown flags must exit 2, never silently run a default.
    for bad in "--hosts 10x" "--shards 99999" "--no-such-flag 1"; do
        rc=0
        # shellcheck disable=SC2086  # word splitting is intentional
        "${cli}" fleet ${bad} >/dev/null 2>&1 || rc=$?
        if [[ "${rc}" != 2 ]]; then
            echo "FAIL: 'fleet ${bad}' exited ${rc}, expected 2" >&2
            exit 1
        fi
    done
    echo "Fleet gate passed."
fi

if [[ "${mode}" == "--armsrace" || "${mode}" == "all" ]]; then
    echo "== Placement arms-race gate =="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$(nproc)" --target bolt_cli
    cli=./build/examples/bolt_cli
    ar_flags=(armsrace --servers 16 --probes 3 --waves 2 --reps 4
              --utilization 40 --allocator mab --seed 7 --log-level error)

    # Campaign reps fan out on the pool but each writes only its own
    # result slot; the cell result and digest fold sequentially, so the
    # whole stdout is byte-identical at any thread count. The defense
    # gates over the full tournament run in coloc_arms_race below.
    for threads in 1 8; do
        "${cli}" "${ar_flags[@]}" --threads "${threads}" \
            > "${tmp}/t_${threads}.txt"
    done
    if ! diff -u "${tmp}/t_1.txt" "${tmp}/t_8.txt"; then
        echo "FAIL: armsrace output differs between 1 and 8 threads" >&2
        exit 1
    fi

    # Strict flag validation: trailing garbage, out-of-range values,
    # malformed utilization values and unknown flags must exit 2.
    for bad in "--servers 10x" "--reps 99999" "--utilization 40,x" \
               "--utilization 200" "--no-such-flag 1"; do
        rc=0
        # shellcheck disable=SC2086  # word splitting is intentional
        "${cli}" armsrace ${bad} >/dev/null 2>&1 || rc=$?
        if [[ "${rc}" != 2 ]]; then
            echo "FAIL: 'armsrace ${bad}' exited ${rc}, expected 2" >&2
            exit 1
        fi
    done
    echo "Arms-race gate passed."
fi

# Plain ctest above already runs every golden; this stage runs the
# same runner alone, or rewrites the goldens with --update.
if [[ "${mode}" == "--goldens" ]]; then
    echo "== Golden manifest gate =="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$(nproc)"
    update=()
    [[ "${2:-}" == "--update" ]] && update=(-DUPDATE=ON)
    cmake -DBUILD_DIR=build "${update[@]}" -P bench/goldens.cmake
    echo "Golden manifest gate passed."
fi

if [[ "${mode}" == "--bench-only" || "${mode}" == "all" ]]; then
    echo "== Configuring build-release (Release) =="
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
    echo "== Building recommender benchmark =="
    cmake --build build-release -j "$(nproc)" --target perf_recommender
    # Strict flags: an unknown flag or a flag without its value is a
    # usage error (exit 2), never a run with defaults.
    for bad in "--bogus" "--json"; do
        rc=0
        ./build-release/bench/perf_recommender "${bad}" \
            >/dev/null 2>&1 || rc=$?
        if [[ "${rc}" != 2 ]]; then
            echo "FAIL: 'perf_recommender ${bad}' exited ${rc}," \
                 "expected 2" >&2
            exit 1
        fi
    done
    echo "== Recommender query-path benchmark (digest-gated) =="
    # Exits non-zero if the query-output digest does not match the
    # committed golden, i.e. if an optimization changed results.
    ./build-release/bench/perf_recommender \
        --json BENCH_recommender.json \
        --golden bench/BENCH_recommender.golden
    echo "== BENCH_recommender.json =="
    cat BENCH_recommender.json
fi

echo "All checks passed."
