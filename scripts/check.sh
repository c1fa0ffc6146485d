#!/usr/bin/env bash
# Full verification: build + ctest in the plain configuration, then
# again under ThreadSanitizer (BOLT_SANITIZE=thread) to vet every
# util::parallelFor stage (the CI `pr` job also runs the six suites
# that drive the pool under TSan on every PR), under AddressSanitizer
# (address) and under UndefinedBehaviorSanitizer (undefined). The
# sanitizer legs run with UBSAN_OPTIONS=halt_on_error=1, so any report
# fails the leg.
#
# ctest is the one gate for results: the unit and end-to-end suites
# (tests/test_cli.cc drives bolt_cli: obs and telemetry never change
# stdout, bad input exits 2, a failed `expect:` exits 3) and one
# Golden.<name> entry per line of bench/goldens.txt, which runs the
# line's command at 1 and 8 threads, requires the same bytes from both
# and diffs them against the golden. So every leg above checks every
# golden, the recommender digest (bench/BENCH_recommender.golden)
# among them.
#
# There is one build configuration per sanitizer, not per kernel
# backend: every x86-64 build carries the AVX2 and AVX-512 kernels and
# selects the widest the CPU reports at startup, so on such a CPU every
# leg runs that backend against goldens that the scalar backend
# reproduces too. The scalar-vs-SIMD bit-equality tests
# (tests/test_kernels.cc) run in every ctest, for each backend the CPU
# reports.
#
# --goldens runs the golden manifest alone (bench/goldens.cmake), or
# with --update rewrites the goldens instead of diffing them.
#
# --release-only builds the Release configuration, runs the golden
# manifest against it, then perf_serving --json: the telemetry-overhead
# probe, which fails when recording telemetry costs 5% or more of
# saturation wall-QPS (the median of 101 interleaved off/on pairs,
# about 30 s). It times wall clock, so it lives here and not in ctest.
#
# Usage: scripts/check.sh [--plain-only|--tsan-only|--asan-only|--ubsan-only|--release-only|--goldens [--update]]
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

# Build `dir` and check (or with --update, rewrite) every golden.
run_goldens() {
    local dir="$1"
    shift
    cmake --build "${dir}" -j "$(nproc)"
    echo "== Golden manifest (${dir}) =="
    cmake -DBUILD_DIR="${dir}" "$@" -P bench/goldens.cmake
}

mode="${1:-all}"
case "${mode}" in
    all | --plain-only | --tsan-only | --asan-only | --ubsan-only | \
        --release-only | --goldens) ;;
    *)
        grep '^# Usage:' "$0" | cut -c3- >&2
        exit 2
        ;;
esac

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

if [[ "${mode}" == "--release-only" || "${mode}" == "all" ]]; then
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    run_goldens build-release
    echo "== perf_serving telemetry-overhead probe (Release) =="
    ./build-release/bench/perf_serving --json
fi

if [[ "${mode}" == "--goldens" ]]; then
    update=()
    if [[ "${2:-}" == "--update" ]]; then
        update=(-DUPDATE=ON)
    elif [[ -n "${2:-}" ]]; then
        echo "scripts/check.sh: --goldens takes only --update" >&2
        exit 2
    fi
    cmake -B build -S . >/dev/null
    run_goldens build "${update[@]}"
fi

echo "All checks passed."
