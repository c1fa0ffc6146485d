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
# byte-identical stdout at 1 and 8 threads, and the churn-robustness
# figure must reproduce bench/BENCH_fig15_churn.golden bit-for-bit.
#
# The --serve stage asserts the serving-layer determinism contract:
# `bolt_cli serve` stdout must be byte-identical at 1 and 8
# worker threads (open and closed loop), the perf_serving
# throughput-latency sweep must reproduce bench/BENCH_serving.golden
# bit-for-bit at both thread counts, and malformed numeric flags must
# be rejected with exit 2.
#
# The --scenario stage asserts the scenario-compiler contract: every
# scenarios/*.scn runs to byte-identical stdout at 1 and 8 threads and
# matches its committed golden in scenarios/golden/, the canonical dump
# round-trips through the compiler, and malformed scenario files are
# rejected with a line-numbered diagnostic and exit 2. Pass --update
# after --scenario to regenerate the goldens instead of diffing them.
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
# cross-shard migration statistic may move), the perf_fleet_scaling
# sweep must reproduce bench/BENCH_fleet_scaling.golden bit-for-bit at
# both thread counts (the binary self-checks 16-shard/8-thread vs
# 1-shard/1-thread digests and exits 1 on mismatch), and malformed
# flags must be rejected with exit 2. Pass --update after --fleet to
# regenerate the golden instead of diffing it.
#
# The --armsrace stage asserts the placement-arms-race contract:
# `bolt_cli armsrace` (one arms-race cell) stdout must be byte-identical
# at 1 and 8 threads, malformed flags must be rejected with exit 2, and
# the coloc_arms_race bench — the
# full tournament plus the fleet duel, self-checked for defense
# effectiveness and 16-shard digest invariance — must reproduce
# bench/BENCH_coloc_arms_race.golden bit-for-bit at both thread
# counts. Pass --update after --armsrace to regenerate the golden
# instead of diffing it.
#
# The --paper stage asserts the paper-artifact contract: every paper
# driver without a gate of its own (Table 1, Table 2, Figs. 2-14, the
# co-residency attack, calibration and the detector ablations) prints
# byte-identical stdout at 1 and 4 threads that matches its committed
# golden, bench/BENCH_<name>.golden with <name> the driver's name up to
# its first underscore (table1_detection_accuracy -> BENCH_table1), so
# no number EXPERIMENTS.md quotes from them can drift silently. Pass
# --update after --paper to regenerate the goldens instead of diffing.
#
# Usage: scripts/check.sh [--plain-only|--tsan-only|--asan-only|--ubsan-only|--obs|--fault|--serve|--scenario [--update]|--telemetry|--fleet [--update]|--armsrace [--update]|--paper [--update]|--bench-only]
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
    obs_dir="$(mktemp -d)"
    trap 'rm -rf "${obs_dir}"' EXIT
    cli=./build/examples/bolt_cli
    exp_flags=(experiment --servers 8 --victims 20 --seed 7)

    for threads in 1 8; do
        echo "-- threads=${threads}: obs off vs on --"
        "${cli}" "${exp_flags[@]}" --threads "${threads}" \
            > "${obs_dir}/off_${threads}.txt"
        "${cli}" "${exp_flags[@]}" --threads "${threads}" \
            --metrics-out "${obs_dir}/m_${threads}.json" \
            --trace-out "${obs_dir}/t_${threads}.json" \
            --log-level error \
            > "${obs_dir}/on_${threads}.txt"
        if ! diff -u "${obs_dir}/off_${threads}.txt" \
                     "${obs_dir}/on_${threads}.txt"; then
            echo "FAIL: enabling observability changed experiment output" \
                 "at threads=${threads}" >&2
            exit 1
        fi
        # The emitted files must be valid JSON with the expected roots.
        python3 - "${obs_dir}/m_${threads}.json" \
                  "${obs_dir}/t_${threads}.json" <<'EOF'
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
    if ! diff -u "${obs_dir}/off_1.txt" "${obs_dir}/off_8.txt"; then
        echo "FAIL: experiment output differs between 1 and 8 threads" >&2
        exit 1
    fi
    # The trace export must also be byte-identical across thread counts.
    if ! diff -u "${obs_dir}/t_1.json" "${obs_dir}/t_8.json"; then
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
    cmake --build build -j "$(nproc)" --target bolt_cli fig15_churn_robustness
    fault_dir="$(mktemp -d)"
    trap 'rm -rf "${obs_dir:-}" "${fault_dir:-}"' EXIT
    cli=./build/examples/bolt_cli
    fault_flags=(experiment --servers 12 --victims 30 --seed 42
                 --faults.arrivals 0.1 --faults.departures 0.08
                 --faults.phase-flips 0.1 --faults.dropouts 0.15
                 --faults.spikes 0.05 --faults.jitter 0.05
                 --log-level error)

    # A nontrivial fault plan must be thread-count invariant: churn,
    # dropouts and retries all draw from counter-based streams keyed by
    # (server, round), never from execution order.
    "${cli}" "${fault_flags[@]}" --threads 1 > "${fault_dir}/f_1.txt"
    "${cli}" "${fault_flags[@]}" --threads 8 > "${fault_dir}/f_8.txt"
    if ! diff -u "${fault_dir}/f_1.txt" "${fault_dir}/f_8.txt"; then
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

    # The churn-robustness figure must reproduce the committed golden
    # bit-for-bit, at both thread counts.
    for threads in 1 8; do
        ./build/bench/fig15_churn_robustness --threads "${threads}" \
            > "${fault_dir}/fig15_${threads}.txt"
        if ! diff -u bench/BENCH_fig15_churn.golden \
                     "${fault_dir}/fig15_${threads}.txt"; then
            echo "FAIL: fig15 output diverged from golden at" \
                 "threads=${threads}" >&2
            exit 1
        fi
    done
    echo "Fault-injection gate passed."
fi

if [[ "${mode}" == "--serve" || "${mode}" == "all" ]]; then
    echo "== Serving determinism gate =="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$(nproc)" --target bolt_cli
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build build-release -j "$(nproc)" --target perf_serving
    serve_dir="$(mktemp -d)"
    trap 'rm -rf "${obs_dir:-}" "${fault_dir:-}" "${serve_dir:-}"' EXIT
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
                > "${serve_dir}/${loop}_${threads}.txt"
        done
        if ! diff -u "${serve_dir}/${loop}_1.txt" \
                     "${serve_dir}/${loop}_8.txt"; then
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

    # The throughput-latency sweep must reproduce the committed golden
    # bit-for-bit at both thread counts (Release build, same as the
    # golden was generated from).
    for threads in 1 8; do
        ./build-release/bench/perf_serving --threads "${threads}" \
            > "${serve_dir}/sweep_${threads}.txt"
        if ! diff -u bench/BENCH_serving.golden \
                     "${serve_dir}/sweep_${threads}.txt"; then
            echo "FAIL: perf_serving output diverged from golden at" \
                 "threads=${threads}" >&2
            exit 1
        fi
    done
    echo "Serving gate passed."
fi

if [[ "${mode}" == "--scenario" || "${mode}" == "all" ]]; then
    echo "== Scenario library gate =="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$(nproc)" --target bolt_cli
    scn_dir="$(mktemp -d)"
    trap 'rm -rf "${obs_dir:-}" "${fault_dir:-}" "${serve_dir:-}" "${scn_dir:-}" "${rt:-}"' EXIT
    cli=./build/examples/bolt_cli
    # A killed run can leave a round-trip dump behind; it is no scenario.
    rm -f scenarios/*.roundtrip.scn
    update_goldens=0
    [[ "${2:-}" == "--update" ]] && update_goldens=1

    for scn in scenarios/*.scn; do
        name="$(basename "${scn}" .scn)"
        golden="scenarios/golden/${name}.golden"
        echo "-- ${name} --"
        # Thread-count invariance: the whole stdout, not just the digest.
        "${cli}" run --scenario "${scn}" --threads 1 \
            > "${scn_dir}/${name}_1.txt"
        "${cli}" run --scenario "${scn}" --threads 8 \
            > "${scn_dir}/${name}_8.txt"
        if ! diff -u "${scn_dir}/${name}_1.txt" \
                     "${scn_dir}/${name}_8.txt"; then
            echo "FAIL: ${name} output differs between 1 and 8 threads" >&2
            exit 1
        fi
        if [[ "${update_goldens}" == 1 ]]; then
            cp "${scn_dir}/${name}_1.txt" "${golden}"
            continue
        fi
        if ! diff -u "${golden}" "${scn_dir}/${name}_1.txt"; then
            echo "FAIL: ${name} output diverged from ${golden}" \
                 "(regenerate intentionally with --scenario --update)" >&2
            exit 1
        fi
        # The canonical dump must recompile to an identical dump. Dump
        # into the scenarios/ dir namespace so includes resolve; the
        # EXIT trap removes the file if anything below fails.
        rt="scenarios/${name}.roundtrip.scn"
        rt_ok=0
        "${cli}" run --scenario "${scn}" --dump > "${rt}" || rt_ok=$?
        if [[ "${rt_ok}" == 0 ]]; then
            "${cli}" run --scenario "${rt}" --dump \
                > "${scn_dir}/${name}_dump2.txt" || rt_ok=$?
        fi
        if [[ "${rt_ok}" == 0 ]]; then
            diff -u "${rt}" "${scn_dir}/${name}_dump2.txt" || rt_ok=$?
        fi
        rm -f "${rt}"
        if [[ "${rt_ok}" != 0 ]]; then
            echo "FAIL: ${name} canonical dump did not round-trip" >&2
            exit 1
        fi
    done

    # Malformed scenarios must exit 2 with a line-numbered diagnostic.
    printf 'scenario: bad\nstages:\n  - stage: experiment\n    serveurs: 9\n' \
        > "${scn_dir}/bad.scn"
    for bad in "" \
               "--scenario ${scn_dir}/does_not_exist.scn" \
               "--scenario ${scn_dir}/bad.scn"; do
        rc=0
        # shellcheck disable=SC2086  # word splitting is intentional
        "${cli}" run ${bad} >/dev/null 2>"${scn_dir}/bad_err.txt" || rc=$?
        if [[ "${rc}" != 2 ]]; then
            echo "FAIL: 'run ${bad}' exited ${rc}, expected 2" >&2
            exit 1
        fi
    done
    # (the last loop iteration left the diagnostic in bad_err.txt)
    if ! grep -q "bad.scn:4: unknown key 'serveurs'" \
            "${scn_dir}/bad_err.txt"; then
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
    tel_dir="$(mktemp -d)"
    trap 'rm -rf "${obs_dir:-}" "${fault_dir:-}" "${serve_dir:-}" "${scn_dir:-}" "${tel_dir:-}"' EXIT
    cli=./build/examples/bolt_cli

    # Telemetry inertness: the same scenario run with and without a
    # telemetry dump must produce byte-identical stdout (the recorder
    # observes the decision plane, it never perturbs it).
    scn=scenarios/flash_crowd.scn
    "${cli}" run --scenario "${scn}" > "${tel_dir}/plain.txt"
    "${cli}" run --scenario "${scn}" \
        --telemetry-out "${tel_dir}/t_1.jsonl" --threads 1 \
        > "${tel_dir}/tel_1.txt"
    "${cli}" run --scenario "${scn}" \
        --telemetry-out "${tel_dir}/t_8.jsonl" --threads 8 \
        > "${tel_dir}/tel_8.txt"
    for variant in tel_1 tel_8; do
        if ! diff -u "${tel_dir}/plain.txt" "${tel_dir}/${variant}.txt"; then
            echo "FAIL: --telemetry-out changed scenario stdout" \
                 "(${variant})" >&2
            exit 1
        fi
    done

    # The windowed JSONL export is Sim-class: per-thread shards merge in
    # shard order, so the dump is byte-identical at any thread count.
    if ! diff -u "${tel_dir}/t_1.jsonl" "${tel_dir}/t_8.jsonl"; then
        echo "FAIL: telemetry JSONL differs between 1 and 8 threads" >&2
        exit 1
    fi
    if ! grep -q '"bolt_telemetry":1' "${tel_dir}/t_1.jsonl"; then
        echo "FAIL: telemetry dump is missing its header line" >&2
        exit 1
    fi

    # The post-run analyzer must render the dump (exit 0) and reject a
    # non-telemetry file with a usage error (exit 2).
    "${cli}" report --telemetry "${tel_dir}/t_1.jsonl" --top 3 \
        > "${tel_dir}/report.txt"
    if ! grep -q "serve.latency_ms" "${tel_dir}/report.txt"; then
        echo "FAIL: report output lost the serve.latency_ms series" >&2
        exit 1
    fi
    rc=0
    "${cli}" report --telemetry "${tel_dir}/plain.txt" \
        >/dev/null 2>&1 || rc=$?
    if [[ "${rc}" != 2 ]]; then
        echo "FAIL: report on a non-telemetry file exited ${rc}," \
             "expected 2" >&2
        exit 1
    fi

    # Failed `expect:` blocks are their own exit code (3) with a
    # file:line diagnostic, distinct from usage errors (2).
    cat > "${tel_dir}/failing.scn" <<'EOF'
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
    "${cli}" run --scenario "${tel_dir}/failing.scn" \
        >/dev/null 2>"${tel_dir}/expect_err.txt" || rc=$?
    if [[ "${rc}" != 3 ]]; then
        echo "FAIL: failing expect exited ${rc}, expected 3" >&2
        exit 1
    fi
    if ! grep -q "failing.scn:" "${tel_dir}/expect_err.txt" ||
       ! grep -q "expectation failed" "${tel_dir}/expect_err.txt"; then
        echo "FAIL: expect failure diagnostic lost its file:line" >&2
        exit 1
    fi

    # Overhead budget: recording every serve/detector/fault series at
    # saturation load must cost <5% wall-QPS and leave the sim digest
    # untouched (perf_serving --json exits 1 otherwise).
    ./build-release/bench/perf_serving --json \
        > "${tel_dir}/overhead.json"
    echo "-- perf_serving telemetry-overhead probe --"
    cat "${tel_dir}/overhead.json"
    echo "Telemetry gate passed."
fi

if [[ "${mode}" == "--fleet" || "${mode}" == "all" ]]; then
    echo "== Fleet determinism gate =="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$(nproc)" --target bolt_cli
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build build-release -j "$(nproc)" --target perf_fleet_scaling
    fleet_dir="$(mktemp -d)"
    trap 'rm -rf "${obs_dir:-}" "${fault_dir:-}" "${serve_dir:-}" "${scn_dir:-}" "${tel_dir:-}" "${fleet_dir:-}"' EXIT
    cli=./build/examples/bolt_cli
    update_goldens=0
    [[ "${2:-}" == "--update" ]] && update_goldens=1
    fleet_flags=(fleet --hosts 800 --tenants 4000 --epochs 5
                 --host-faults 0.02 --seed 2017 --log-level error)

    # The decision plane fixes every churn event sequentially before the
    # per-shard profiling fan-out, so the whole stdout (same shards) is
    # byte-identical at any thread count.
    for threads in 1 8; do
        "${cli}" "${fleet_flags[@]}" --shards 8 --threads "${threads}" \
            > "${fleet_dir}/t_${threads}.txt"
    done
    if ! diff -u "${fleet_dir}/t_1.txt" "${fleet_dir}/t_8.txt"; then
        echo "FAIL: fleet output differs between 1 and 8 threads" >&2
        exit 1
    fi

    # Shards partition work, never outcomes: the run digest at 1 and 16
    # shards must match (only the cross-shard migration statistic may
    # differ, so the comparison is digest lines, not the full stdout).
    "${cli}" "${fleet_flags[@]}" --shards 1 --threads 8 \
        > "${fleet_dir}/s_1.txt"
    "${cli}" "${fleet_flags[@]}" --shards 16 --threads 8 \
        > "${fleet_dir}/s_16.txt"
    if ! diff <(grep "run digest" "${fleet_dir}/s_1.txt") \
              <(grep "run digest" "${fleet_dir}/s_16.txt"); then
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

    # The 1k -> 128k host scaling sweep must reproduce the committed
    # golden bit-for-bit at both thread counts; the binary itself exits
    # 1 if the sharded run stops reproducing the 1-shard digest.
    if [[ "${update_goldens}" == 1 ]]; then
        ./build-release/bench/perf_fleet_scaling \
            > bench/BENCH_fleet_scaling.golden
    fi
    for threads in 1 8; do
        ./build-release/bench/perf_fleet_scaling --threads "${threads}" \
            > "${fleet_dir}/sweep_${threads}.txt"
        if ! diff -u bench/BENCH_fleet_scaling.golden \
                     "${fleet_dir}/sweep_${threads}.txt"; then
            echo "FAIL: perf_fleet_scaling output diverged from golden at" \
                 "threads=${threads} (regenerate intentionally with" \
                 "--fleet --update)" >&2
            exit 1
        fi
    done
    echo "Fleet gate passed."
fi

if [[ "${mode}" == "--armsrace" || "${mode}" == "all" ]]; then
    echo "== Placement arms-race gate =="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$(nproc)" --target bolt_cli
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build build-release -j "$(nproc)" --target coloc_arms_race
    ar_dir="$(mktemp -d)"
    trap 'rm -rf "${obs_dir:-}" "${fault_dir:-}" "${serve_dir:-}" "${scn_dir:-}" "${tel_dir:-}" "${fleet_dir:-}" "${ar_dir:-}"' EXIT
    cli=./build/examples/bolt_cli
    update_goldens=0
    [[ "${2:-}" == "--update" ]] && update_goldens=1
    ar_flags=(armsrace --servers 16 --probes 3 --waves 2 --reps 4
              --utilization 40 --allocator mab --seed 7 --log-level error)

    # Campaign reps fan out on the pool but each writes only its own
    # result slot; the cell result and digest fold sequentially, so the
    # whole stdout is byte-identical at any thread count. The defense
    # gates over the full tournament run in coloc_arms_race below.
    for threads in 1 8; do
        "${cli}" "${ar_flags[@]}" --threads "${threads}" \
            > "${ar_dir}/t_${threads}.txt"
    done
    if ! diff -u "${ar_dir}/t_1.txt" "${ar_dir}/t_8.txt"; then
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

    # The full tournament + fleet duel must reproduce the committed
    # golden bit-for-bit at both thread counts; the binary itself exits
    # 1 if a defense gate fails or the 16-shard duel re-run stops
    # reproducing the 1-shard row digests.
    if [[ "${update_goldens}" == 1 ]]; then
        ./build-release/bench/coloc_arms_race \
            > bench/BENCH_coloc_arms_race.golden
    fi
    for threads in 1 8; do
        ./build-release/bench/coloc_arms_race --threads "${threads}" \
            > "${ar_dir}/bench_${threads}.txt"
        if ! diff -u bench/BENCH_coloc_arms_race.golden \
                     "${ar_dir}/bench_${threads}.txt"; then
            echo "FAIL: coloc_arms_race output diverged from golden at" \
                 "threads=${threads} (regenerate intentionally with" \
                 "--armsrace --update)" >&2
            exit 1
        fi
    done
    echo "Arms-race gate passed."
fi

if [[ "${mode}" == "--paper" || "${mode}" == "all" ]]; then
    echo "== Paper artifact gate =="
    paper_drivers=(table1_detection_accuracy table2_rfa
                   fig2_memcached_heatmaps fig4_training_coverage
                   fig5_star_charts fig6_coresidents_dominant
                   fig7_iterations_pdf fig8_phase_detection
                   fig9_accuracy_vs_pressure fig10_sensitivity
                   fig11_user_study_mix fig12_user_study_detection
                   fig13_dos_attack fig14_isolation coresidency_attack
                   calibration ablation_detector)
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build build-release -j "$(nproc)" --target "${paper_drivers[@]}"
    paper_dir="$(mktemp -d)"
    trap 'rm -rf "${obs_dir:-}" "${fault_dir:-}" "${serve_dir:-}" "${scn_dir:-}" "${tel_dir:-}" "${fleet_dir:-}" "${ar_dir:-}" "${paper_dir:-}"' EXIT

    # Paper drivers print Sim-class stdout: byte-identical at any thread
    # count.
    for driver in "${paper_drivers[@]}"; do
        golden="bench/BENCH_${driver%%_*}.golden"
        echo "-- ${driver} --"
        for threads in 1 4; do
            ./build-release/bench/"${driver}" \
                --threads "${threads}" --log-level error \
                > "${paper_dir}/${driver}_${threads}.txt"
        done
        if ! diff -u "${paper_dir}/${driver}_1.txt" \
                     "${paper_dir}/${driver}_4.txt"; then
            echo "FAIL: ${driver} output differs between 1 and 4 threads" >&2
            exit 1
        fi
        if [[ "${2:-}" == "--update" ]]; then
            cp "${paper_dir}/${driver}_1.txt" "${golden}"
        elif ! diff -u "${golden}" "${paper_dir}/${driver}_1.txt"; then
            echo "FAIL: ${driver} output diverged from ${golden}" \
                 "(regenerate intentionally with --paper --update)" >&2
            exit 1
        fi
    done
    echo "Paper artifact gate passed."
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
