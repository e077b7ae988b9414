#!/usr/bin/env bash
# Staged tier-1 verification plus lint gate. Run from the repository root.
#
#   ./ci.sh            run every stage (the full pre-merge gate)
#   ./ci.sh <stage>    run one stage: build | test | determinism | cache | persist | dse | fuzz | chaos
#
# Mirrors .github/workflows/ci.yml, where each CI job runs exactly one
# `./ci.sh <stage>` — keeping local runs and CI the same by construction.
set -euo pipefail

# Compile the workspace and enforce the static gates: clippy, rustfmt, rustdoc.
run_build() {
  echo "==> [build] cargo build --release"
  cargo build --release

  echo "==> [build] cargo build --examples (not covered by plain cargo build)"
  cargo build --examples

  echo "==> [build] cargo clippy --workspace --all-targets -- -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings

  echo "==> [build] cargo fmt --all -- --check"
  cargo fmt --all -- --check

  echo "==> [build] cargo doc --no-deps (warnings are errors)"
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet
}

# Unit, integration, doc and bench-harness tests.
run_test() {
  echo "==> [test] cargo test -q"
  cargo test -q

  echo "==> [test] cargo test --benches -q -- --test (bench smoke run, 1 iteration each)"
  cargo test --benches -q -- --test

  echo "==> [test] cargo test --doc (build + run the documentation examples)"
  cargo test --doc -q

  echo "==> [test] bench_ir smoke: every IR micro-bench once, harness must stay alive"
  local bench_ir_json
  bench_ir_json=$(mktemp /tmp/BENCH_ir.XXXXXX.json)
  cargo run --release -q -p hida-bench --bin bench_ir -- \
    --smoke --json "${bench_ir_json}"
  cat "${bench_ir_json}"
  rm -f "${bench_ir_json}"
  if [[ -f BENCH_ir.json ]]; then
    echo "checked-in BENCH_ir.json:"
    cat BENCH_ir.json
  fi
}

# Parallel execution must be invisible in the output. `--no-timing` suppresses
# every timing- or machine-dependent line at the source, so the outputs are
# compared byte for byte with no grep filtering.
run_determinism() {
  echo "==> [determinism] hida-opt CLI ablation matrix on TwoMm (one pipeline string per variant)"
  local ablations=(
    "construct,fusion,lower,multi-producer-elim,tiling{factor=4},balance,parallelize"
    "construct,lower,multi-producer-elim,tiling{factor=4},balance,parallelize"
    "construct,fusion,lower,multi-producer-elim,tiling{factor=4},balance"
    "construct,fusion,lower,tiling{factor=4},parallelize"
    "construct,lower,parallelize{max-factor=8,mode=Naive,device=zu3eg}"
    "construct,lower,profile,parallelize{max-factor=8,device=zu3eg}"
  )
  local pipeline
  for pipeline in "${ablations[@]}"; do
    echo "    -> ${pipeline}"
    cargo run --release -q -p hida --bin hida-opt -- \
      --workload two_mm --pipeline "${pipeline}" > /dev/null
  done

  # TwoMm has 2 nodes, so ResNet-18 is what drives the multi-wave
  # parallelization path into array partitioning.
  echo "==> [determinism] --jobs 1 vs --jobs 4: --no-timing output must be byte-identical"
  local jobs1 jobs4 workload_args
  for workload_args in "--workload two_mm" "--workload resnet-18 --preset dnn"; do
    echo "    -> ${workload_args}"
    # shellcheck disable=SC2086 # the argument list is split on purpose
    jobs1=$(cargo run --release -q -p hida --bin hida-opt -- \
      ${workload_args} --jobs 1 --no-timing)
    # shellcheck disable=SC2086
    jobs4=$(cargo run --release -q -p hida --bin hida-opt -- \
      ${workload_args} --jobs 4 --no-timing)
    if [[ "${jobs1}" != "${jobs4}" ]]; then
      echo "--jobs 1 and --jobs 4 outputs diverged (${workload_args})"
      diff <(echo "${jobs1}") <(echo "${jobs4}") || true
      exit 1
    fi
  done

  echo "==> [determinism] hida-opt --sweep: --jobs 1 vs --jobs 4 must be byte-identical"
  local sweep_variants sweep1 sweep4
  sweep_variants=$(mktemp /tmp/sweep_variants.XXXXXX.txt)
  cat > "${sweep_variants}" <<'EOF'
construct,fusion,lower,multi-producer-elim,tiling{factor=4},balance,parallelize{max-factor=8,device=zu3eg}
construct,fusion,lower,multi-producer-elim,tiling{factor=4},balance,parallelize{max-factor=16,device=zu3eg}
construct,fusion,lower,multi-producer-elim,tiling{factor=4},balance,parallelize{max-factor=8,device=zu3eg}
construct,lower,parallelize{max-factor=8,mode=Naive,device=zu3eg}
EOF
  sweep1=$(cargo run --release -q -p hida --bin hida-opt -- \
    --workload two_mm --sweep "${sweep_variants}" --jobs 1 --no-timing)
  sweep4=$(cargo run --release -q -p hida --bin hida-opt -- \
    --workload two_mm --sweep "${sweep_variants}" --jobs 4 --no-timing)
  if [[ "${sweep1}" != "${sweep4}" ]]; then
    echo "--sweep outputs diverged between --jobs 1 and --jobs 4"
    diff <(echo "${sweep1}") <(echo "${sweep4}") || true
    exit 1
  fi

  # The duplicated variant must hit the cross-compilation cache.
  local sweep_stats
  sweep_stats=$(cargo run --release -q -p hida --bin hida-opt -- \
    --workload two_mm --sweep "${sweep_variants}" --jobs 1 --stats-json 2> /dev/null)
  if ! echo "${sweep_stats}" | grep -qE '"shared_cache_totals":\{"hits":[1-9]'; then
    echo "hida-opt --sweep reported no cross-compilation cache hits"
    echo "${sweep_stats}"
    exit 1
  fi
  rm -f "${sweep_variants}"
}

# In-process caches must actually fire: the per-pass analysis cache and the
# cross-compilation estimate cache of a pooled sweep.
run_cache() {
  echo "==> [cache] analysis cache effectiveness (same ablation twice; both runs must report hits)"
  local attempt out
  for attempt in 1 2; do
    out=$(cargo run --release -q -p hida --bin hida-opt -- \
      --workload two_mm --stats-json)
    if ! echo "${out}" | grep -q '"hits":[1-9]'; then
      echo "run ${attempt}: no analysis cache hits reported"
      echo "${out}" | tail -n 1
      exit 1
    fi
  done

  echo "==> [cache] sweep smoke: reduced-grid fig10 (pooled vs sequential loop)"
  local sweep_json
  sweep_json=$(mktemp /tmp/BENCH_sweep.XXXXXX.json)
  cargo run --release -q -p hida-bench --bin fig10_ablation -- \
    --jobs 4 --sweep-json "${sweep_json}" > /dev/null
  if ! grep -q '"qor_identical": true' "${sweep_json}"; then
    echo "pooled sweep QoR diverged from the sequential loop"
    cat "${sweep_json}"
    exit 1
  fi
  # Cross-point cache hits are asserted on a pool-of-1 engine run: with points
  # compiling strictly in order the hit count is deterministic (concurrent
  # points may legitimately race compute-before-publish on a shared entry).
  cargo run --release -q -p hida-bench --bin fig10_ablation -- \
    --jobs 1 --sweep-json "${sweep_json}" > /dev/null
  if ! grep -qE '"shared_cache": \{"hits": [1-9]' "${sweep_json}"; then
    echo "no cross-compilation estimate cache hits reported"
    cat "${sweep_json}"
    exit 1
  fi
  rm -f "${sweep_json}"
}

# The persistent estimate store must carry estimates across *processes*: a
# second fig10 run pointed at the same --cache-dir reports nonzero persistent
# hits and byte-identical QoR, and a corrupted entry degrades to misses
# without failing the run.
run_persist() {
  echo "==> [persist] fig10 twice, two processes sharing one --cache-dir"
  local cache_dir cold_json warm_json cold_txt warm_txt
  cache_dir=$(mktemp -d /tmp/hida_ci_store.XXXXXX)
  cold_json=$(mktemp /tmp/BENCH_sweep_cold.XXXXXX.json)
  warm_json=$(mktemp /tmp/BENCH_sweep_warm.XXXXXX.json)
  cold_txt=$(mktemp /tmp/fig10_cold.XXXXXX.txt)
  warm_txt=$(mktemp /tmp/fig10_warm.XXXXXX.txt)

  cargo run --release -q -p hida-bench --bin fig10_ablation -- \
    --jobs 2 --cache-dir "${cache_dir}" --cache-limit-mb 64 \
    --sweep-json "${cold_json}" > "${cold_txt}"
  if ! grep -qE '"persistent_cache": \{"hits": 0, "misses": [1-9][0-9]*, "writes": [1-9]' "${cold_json}"; then
    echo "cold run did not populate the persistent store"
    cat "${cold_json}"
    exit 1
  fi

  cargo run --release -q -p hida-bench --bin fig10_ablation -- \
    --jobs 2 --cache-dir "${cache_dir}" --cache-limit-mb 64 \
    --sweep-json "${warm_json}" > "${warm_txt}"
  if ! grep -qE '"persistent_cache": \{"hits": [1-9]' "${warm_json}"; then
    echo "warm run reported no persistent store hits (no cross-process reuse)"
    cat "${warm_json}"
    exit 1
  fi

  # The per-point QoR table (parallel_factor, tile, dsp, bram, throughput
  # lines) must be byte-identical between the cold and warm process.
  if ! diff <(grep -E '^[0-9]+, ' "${cold_txt}") <(grep -E '^[0-9]+, ' "${warm_txt}"); then
    echo "warm-process QoR diverged from the cold process"
    exit 1
  fi

  echo "==> [persist] a corrupted store entry must degrade to misses, not fail the run"
  local entry corrupt_json
  entry=$(find "${cache_dir}" -name '*.est' | sort | head -n 1)
  if [[ -z "${entry}" ]]; then
    echo "no store entries found under ${cache_dir}"
    exit 1
  fi
  printf 'vandalized' > "${entry}"
  corrupt_json=$(mktemp /tmp/BENCH_sweep_corrupt.XXXXXX.json)
  cargo run --release -q -p hida-bench --bin fig10_ablation -- \
    --jobs 2 --cache-dir "${cache_dir}" --cache-limit-mb 64 \
    --sweep-json "${corrupt_json}" > /dev/null
  if ! grep -qE '"corrupt": [1-9]' "${corrupt_json}"; then
    echo "corrupted entry was not detected"
    cat "${corrupt_json}"
    exit 1
  fi
  if ! grep -q '"qor_identical": true' "${corrupt_json}"; then
    echo "corrupted store changed sweep results"
    cat "${corrupt_json}"
    exit 1
  fi

  rm -rf "${cache_dir}"
  rm -f "${cold_json}" "${warm_json}" "${cold_txt}" "${warm_txt}" "${corrupt_json}"
}

# The adaptive design-space explorer must recover the exhaustive frontier
# with strictly fewer compilations, and its --no-timing report must be
# byte-identical across job counts for a fixed seed.
run_dse() {
  echo "==> [dse] dse_frontier: explorer vs exhaustive fig10 reduced grid"
  local dse_json
  dse_json=$(mktemp /tmp/BENCH_dse.XXXXXX.json)
  # The binary itself exits nonzero unless coverage is 1.0 with savings;
  # grep the report anyway so a silent schema drift also fails the gate.
  cargo run --release -q -p hida-bench --bin dse_frontier -- \
    --jobs 4 --json "${dse_json}" > /dev/null
  if ! grep -q '"frontier_coverage": 1.000' "${dse_json}"; then
    echo "explorer missed part of the exhaustive Pareto frontier"
    cat "${dse_json}"
    exit 1
  fi
  if ! grep -qE '"compiles_saved": [1-9]' "${dse_json}"; then
    echo "explorer compiled the whole grid — surrogate pruning never fired"
    cat "${dse_json}"
    exit 1
  fi
  rm -f "${dse_json}"

  echo "==> [dse] hida-opt --explore: --jobs 1 vs --jobs 4 must be byte-identical"
  local explore_variants explore1 explore4
  explore_variants=$(mktemp /tmp/explore_variants.XXXXXX.txt)
  cat > "${explore_variants}" <<'EOF'
explore{seed=7,extras=1}
construct,lower,tiling{factor=2},parallelize{max-factor=1,device=zu3eg}
construct,lower,tiling{factor=2},parallelize{max-factor=4,device=zu3eg}
construct,lower,tiling{factor=2},parallelize{max-factor=16,device=zu3eg}
construct,lower,tiling{factor=8},parallelize{max-factor=1,device=zu3eg}
construct,lower,tiling{factor=8},parallelize{max-factor=4,device=zu3eg}
construct,lower,tiling{factor=8},parallelize{max-factor=16,device=zu3eg}
EOF
  explore1=$(cargo run --release -q -p hida --bin hida-opt -- \
    --workload two_mm --explore "${explore_variants}" --jobs 1 --no-timing)
  explore4=$(cargo run --release -q -p hida --bin hida-opt -- \
    --workload two_mm --explore "${explore_variants}" --jobs 4 --no-timing)
  if [[ "${explore1}" != "${explore4}" ]]; then
    echo "--explore outputs diverged between --jobs 1 and --jobs 4"
    diff <(echo "${explore1}") <(echo "${explore4}") || true
    exit 1
  fi
  rm -f "${explore_variants}"
}

# Differential fuzzing: seeded random affine dataflow workloads pushed through
# random registry pipelines, each case checked against the functional
# interpreter (semantics oracle), the estimator/simulator interval model, and
# the textual round-trip invariant. Failures dump the offending `.hir`.
run_fuzz() {
  echo "==> [fuzz] hida-fuzz differential driver (200 cases, fixed seed)"
  cargo run --release -q -p hida-fuzz -- \
    --cases 200 --seed 20240815 --dump-dir target/fuzz-failures

  echo "==> [fuzz] golden file: --input examples/two_mm.hir must re-emit byte-identically"
  local reemit
  reemit=$(mktemp /tmp/two_mm_reemit.XXXXXX.hir)
  cargo run --release -q -p hida --bin hida-opt -- \
    --input examples/two_mm.hir --no-timing --emit-ir "${reemit}" > /dev/null
  if ! diff examples/two_mm.hir "${reemit}"; then
    echo "examples/two_mm.hir did not survive a parse/re-emit round trip"
    exit 1
  fi
  rm -f "${reemit}"
}

# Fault-isolated compilation: a seeded fault plan must fail exactly the
# planned points with structured reasons, surviving points must be
# byte-identical to a fault-free run at any job count, transient faults must
# converge under --retries, and a stalled point must hit --deadline-ms
# instead of hanging the sweep (60s hard guard).
run_chaos() {
  echo "==> [chaos] seeded fault plan over a 4-point TwoMm sweep"
  local variants clean chaos1 chaos4 status
  variants=$(mktemp /tmp/chaos_variants.XXXXXX.txt)
  cat > "${variants}" <<'EOF'
construct,lower,tiling{factor=2},parallelize{max-factor=2,device=zu3eg}
construct,lower,tiling{factor=2},parallelize{max-factor=4,device=zu3eg}
construct,lower,tiling{factor=4},parallelize{max-factor=2,device=zu3eg}
construct,lower,tiling{factor=4},parallelize{max-factor=4,device=zu3eg}
EOF
  clean=$(cargo run --release -q -p hida --bin hida-opt -- \
    --workload two_mm --sweep "${variants}" --jobs 1 --no-timing)

  local plan="seed=7,pass-panic=1,store-read=1"
  set +e
  chaos1=$(cargo run --release -q -p hida --bin hida-opt -- \
    --workload two_mm --sweep "${variants}" --jobs 1 --no-timing \
    --inject-faults "${plan}" 2> /dev/null)
  status=$?
  set -e
  if [[ ${status} -eq 0 ]]; then
    echo "a sweep with injected faults exited zero"
    exit 1
  fi
  if ! echo "${chaos1}" | grep -q '^FAILED: 2 of 4 sweep points'; then
    echo "expected exactly the 2 injected faults to fail"
    echo "${chaos1}"
    exit 1
  fi
  if ! echo "${chaos1}" | grep -q 'Panicked' || ! echo "${chaos1}" | grep -q 'StoreDegraded'; then
    echo "failures are missing their structured reasons"
    echo "${chaos1}"
    exit 1
  fi

  echo "==> [chaos] the same plan at --jobs 4 must fail the same points, byte-identically"
  set +e
  chaos4=$(cargo run --release -q -p hida --bin hida-opt -- \
    --workload two_mm --sweep "${variants}" --jobs 4 --no-timing \
    --inject-faults "${plan}" 2> /dev/null)
  status=$?
  set -e
  if [[ ${status} -eq 0 ]]; then
    echo "the --jobs 4 chaos sweep exited zero"
    exit 1
  fi
  if [[ "${chaos1}" != "${chaos4}" ]]; then
    echo "chaos outputs diverged between --jobs 1 and --jobs 4"
    diff <(echo "${chaos1}") <(echo "${chaos4}") || true
    exit 1
  fi

  echo "==> [chaos] surviving points must be byte-identical to the fault-free run"
  local failed
  failed=$(echo "${chaos1}" | sed -n 's/^FAILED: [0-9]* of [0-9]* sweep points (\(.*\))$/\1/p')
  # Paragraph-mode filter: drop the failed points' report blocks and the
  # FAILED summary, leaving the header and the survivors.
  filter_failed() {
    awk -v RS= -v ORS='\n\n' -v failed="$1" '
      BEGIN { n = split(failed, f, /, /) }
      {
        skip = ($0 ~ /^FAILED:/)
        for (i = 1; i <= n; i++) if ($0 ~ "^point " substr(f[i], 2) ":") skip = 1
        if (!skip) print
      }'
  }
  if ! diff <(echo "${chaos1}" | filter_failed "${failed}") \
            <(echo "${clean}" | filter_failed "${failed}"); then
    echo "surviving points diverged from the fault-free run"
    exit 1
  fi

  echo "==> [chaos] a transient fault must converge under --retries 1"
  set +e
  cargo run --release -q -p hida --bin hida-opt -- \
    --workload two_mm --sweep "${variants}" --jobs 2 --no-timing \
    --inject-faults "seed=3,pass-panic=1,transient" --retries 1 > /dev/null 2>&1
  status=$?
  set -e
  if [[ ${status} -ne 0 ]]; then
    echo "a transient fault did not converge under --retries 1"
    exit 1
  fi

  echo "==> [chaos] a stalled point must hit --deadline-ms (60s no-hang guard)"
  local timed
  set +e
  timed=$(timeout 60 cargo run --release -q -p hida --bin hida-opt -- \
    --workload two_mm --sweep "${variants}" --jobs 2 --no-timing \
    --inject-faults "seed=5,stall=1,stall-ms=400" --deadline-ms 50 2> /dev/null)
  status=$?
  set -e
  if [[ ${status} -eq 124 ]]; then
    echo "the stalled sweep hung past the 60s guard"
    exit 1
  fi
  if [[ ${status} -eq 0 ]]; then
    echo "the timed-out point did not fail the sweep"
    exit 1
  fi
  if ! echo "${timed}" | grep -q 'TimedOut'; then
    echo "the stalled point is missing its TimedOut reason"
    echo "${timed}"
    exit 1
  fi
  rm -f "${variants}"

  echo "==> [chaos] hida-fuzz --chaos (60 cases: every injected fault must be isolated)"
  cargo run --release -q -p hida-fuzz -- \
    --cases 60 --seed 20240815 --chaos --dump-dir target/fuzz-failures
}

stage="${1:-all}"
case "${stage}" in
  build) run_build ;;
  test) run_test ;;
  determinism) run_determinism ;;
  cache) run_cache ;;
  persist) run_persist ;;
  dse) run_dse ;;
  fuzz) run_fuzz ;;
  chaos) run_chaos ;;
  all)
    run_build
    run_test
    run_determinism
    run_cache
    run_persist
    run_dse
    run_fuzz
    run_chaos
    ;;
  *)
    echo "unknown stage '${stage}' (expected build | test | determinism | cache | persist | dse | fuzz | chaos | all)"
    exit 2
    ;;
esac

echo "CI OK (${stage})"
