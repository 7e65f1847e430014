#!/usr/bin/env sh
# Local CI gate: formatting, lints, and the full test suite.
# Run from anywhere; operates on the workspace root.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo doc --no-deps --workspace (rustdoc warnings are errors)"
# Checks every intra-doc link, so a doc that names a renamed, deleted or
# private item fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo test -q"
cargo test -q

echo "==> AsmDB's 1M plans held to their pins (fixture_golden's ignored test)"
# The 100k pins run with the suite above. At 1M a plan's backward walk
# expands about 1.5M states, where a slip in the order its queue pops
# them changes plans that the 100k pins do not reach.
cargo test --release -p swip-tests --test fixture_golden -- --ignored

echo "==> perfbench self-tests (its own workspace; tier-1 never builds it)"
# perfbench calls the crates' APIs directly, so an API change that breaks
# it must fail here rather than only when the benchmark runs.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Runs perfbench with the given arguments, logging to target/$1, and fails
# unless its last line reads "correct":true with 0 failed operations.
perfbench_pass() {
    log="target/$1"
    shift
    mkdir -p target
    if ! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        "$@" >"$log" 2>&1; then
        cat "$log" >&2
        echo "FAIL: perfbench $* exited nonzero" >&2
        exit 1
    fi
    case "$(tail -n 1 "$log")" in
    *'"correct":true,'*'"failed":0,'*) ;;
    *)
        grep -E '^(FAILED|note)' "$log" >&2 || true
        echo "FAIL: perfbench $* is not correct with 0 failed operations" >&2
        exit 1
        ;;
    esac
}

echo "==> perfbench traced serve pass (every-cycle replica vs the idle-skipping loop)"
# Simulator::run jumps over idle cycles. The traced pass re-simulates 6
# traces x 8 configurations at 50k with a replica that ticks every cycle
# through the public API, and counts a failed operation for each run whose
# cycles or retired instructions differ from the engine's.
perfbench_pass perfbench-serve-trace.log --workload serve_short_jobs --trace 1 --seconds 1
echo "perfbench's every-cycle replica matches the engine on every traced run"

echo "==> perfbench sweep_server at 1M (results held to the stored 1M digests)"
# The pass above holds results to the stored digests at 50k only. One
# timed round of sweep_server holds the three 1M server traces to theirs,
# which is where a wrong decode of an instruction's packed kind
# (Instruction::kind) would show at sweep scale.
perfbench_pass perfbench-sweep-server.log --workload sweep_server --seconds 1
echo "sweep_server's 1M results match the stored digests"

echo "==> perfbench sweep_compute at 1M (results held to the stored 1M digests)"
# The five backend-bound traces, where the backend's issue and complete
# passes, the MSHR files and the direction predictor do most of the work:
# one timed round holds their 1M results to the 20 stored digests.
perfbench_pass perfbench-sweep-compute.log --workload sweep_compute --seconds 1
echo "sweep_compute's 1M results match the stored digests"

echo "==> smoke: swip bench --instructions 100000 --stride 16 --threads 4"
# At 100k AsmDB inserts prefetches on all three workloads; at 50k two of
# them still get none, so their AsmDB columns equal the baselines and the
# --predict-vs and determinism gates below would compare nothing there.
# Four threads make jobs of one workload overlap, so the determinism gate
# also covers the session's shared trace and AsmDB memos.
smoke_flags="--instructions 100000 --stride 16 --threads 4"
rm -rf target/experiments
start=$(date +%s)
cargo run -p swip-cli --release --quiet -- bench $smoke_flags
echo "smoke run took $(($(date +%s) - start))s"
for f in fig1 fig7 fig8 fig9 fig10 fig11 scenarios; do
    tsv="target/experiments/$f.tsv"
    if ! [ -s "$tsv" ]; then
        echo "FAIL: $tsv missing or empty" >&2
        exit 1
    fi
done
echo "all 7 figure TSVs present and non-empty"

# Every paper configuration must do work of its own at this scale: per
# workload, AsmDB moves off the conservative baseline (1.0000), and the
# no-overhead and FDP variants each differ from the column they extend.
fig1="target/experiments/fig1.tsv"
rows=$(awk -F'\t' 'NR > 1 && $1 != "geomean"' "$fig1" | wc -l)
same=$(awk -F'\t' 'NR > 1 && $1 != "geomean" &&
    ($2 == "1.0000" || $3 == $2 || $5 == $4 || $6 == $5) { print $1 }' "$fig1")
if [ "$rows" -eq 0 ] || [ -n "$same" ]; then
    echo "FAIL: $fig1 has no workload rows, or a paper configuration equals the one" \
        "it extends in: $(echo $same)" >&2
    exit 1
fi
echo "all six paper configurations differ on each of the $rows fig1 workloads"

report="target/experiments/report.json"
if ! [ -s "$report" ]; then
    echo "FAIL: $report missing or empty" >&2
    exit 1
fi
echo "==> swip report $report"
cargo run -p swip-cli --release --quiet -- report "$report"
echo "structured run report present and loadable"

echo "==> swip analyze --predict-vs (static prediction vs measured counters)"
# The smoke report embeds each workload's predicted coverage; the diff
# against the measured prefetch counters must stay within the default
# divergence threshold (DESIGN.md §14).
predict_log="target/predict-vs.log"
if ! cargo run -p swip-cli --release --quiet -- analyze --predict-vs "$report" \
    >"$predict_log"; then
    cat "$predict_log"
    echo "FAIL: coverage predictions diverge from the measured counters" >&2
    exit 1
fi
cat "$predict_log"
# Not vacuous: a workload whose plan inserts nothing compares 0 with 0.
if grep -q 'executions 0 predicted' "$predict_log"; then
    echo "FAIL: a workload has no predicted prefetch executions; the gate compared nothing" >&2
    exit 1
fi
echo "coverage predictions within threshold of measured counters"

echo "==> swip analyze --coverage over a generated corpus"
corpus="target/analyze-corpus"
rm -rf "$corpus"
mkdir -p "$corpus"
for w in public_srv_60 secret_srv12 secret_int_124 secret_crypto52; do
    cargo run -p swip-cli --release --quiet -- gen "$w" \
        --out "$corpus/$w.swip" --instructions 20000
    cargo run -p swip-cli --release --quiet -- asmdb "$corpus/$w.swip" \
        --out "$corpus/$w.rw.swip" >/dev/null
    # Exit 0 = clean or warnings only; 1 would mean a fatal diagnostic
    # (e.g. a dead insertion, rule D001) in a plan our own planner made.
    if ! cargo run -p swip-cli --release --quiet -- analyze \
        "$corpus/$w.rw.swip" --coverage >/dev/null; then
        echo "FAIL: analyze --coverage found fatal diagnostics in $w" >&2
        exit 1
    fi
done
echo "static coverage clean over the corpus (4 rewritten workloads)"

echo "==> swip analyze exit codes"
printf 'not a trace' >"$corpus/garbage.swip"
set +e
cargo run -p swip-cli --release --quiet -- analyze "$corpus/garbage.swip" \
    >/dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 2 ]; then
    echo "FAIL: analyze of an unreadable file must exit 2 (got $code)" >&2
    exit 1
fi
echo "analyze follows the diff(1) exit convention"

echo "==> swip report --diff exit codes"
if ! cargo run -p swip-cli --release --quiet -- report --diff "$report" "$report"; then
    echo "FAIL: diff of a report against itself must exit 0" >&2
    exit 1
fi
set +e
cargo run -p swip-cli --release --quiet -- report --diff "$report" /nonexistent.json
code=$?
set -e
if [ "$code" -ne 2 ]; then
    echo "FAIL: diff against an unreadable file must exit 2 (got $code)" >&2
    exit 1
fi
echo "report --diff follows the diff(1) exit convention"

echo "==> swip usage errors exit 2"
# main.rs maps every parse error to exit 2. The fleet command is whole
# and small, so a parser that wrongly accepted it would run one 1k cell
# and exit 0 rather than start a sweep.
if ! cargo run -p swip-cli --release --quiet -- help >/dev/null; then
    echo "FAIL: swip help must exit 0" >&2
    exit 1
fi
for args in "frobnicate" \
    "fleet run --offline --retries 4294967297 --instructions 1000 --stride 48 --config ftq2_fdp"; do
    set +e
    cargo run -p swip-cli --release --quiet -- $args >/dev/null 2>&1
    code=$?
    set -e
    if [ "$code" -ne 2 ]; then
        echo "FAIL: swip $args must exit 2 (got $code)" >&2
        exit 1
    fi
done
echo "swip help exits 0 and usage errors exit 2"

echo "==> determinism: re-run the smoke sweep and byte-compare every output"
# target/experiments still holds the smoke sweep's output. Every TSV must
# match it byte for byte, and so must report.json apart from its
# wall-clock job_seconds lines: that covers AsmDB's plans (how equally
# ranked insertion sites are chosen) and the session's cache counters
# (how overlapping jobs share the memos).
first="target/determinism-first"
rm -rf "$first"
cp -R target/experiments "$first"
cargo run -p swip-cli --release --quiet -- bench $smoke_flags >/dev/null
for tsv in "$first"/*.tsv; do
    if ! cmp -s "$tsv" "target/experiments/$(basename "$tsv")"; then
        echo "FAIL: $(basename "$tsv") changed between identical runs" >&2
        exit 1
    fi
done
grep -v '"job_seconds"' "$first/report.json" >"$first/report.stable.json"
grep -v '"job_seconds"' "$report" >target/report.stable.json
if ! cmp -s "$first/report.stable.json" target/report.stable.json; then
    echo "FAIL: report.json (without job_seconds) changed between identical runs" >&2
    diff "$first/report.stable.json" target/report.stable.json >&2 || true
    exit 1
fi
# Not vacuous: some AsmDB+FDP cell (column 5) differs from its FDP24 cell
# (column 4), so the compared bytes carry AsmDB's plans.
if ! awk -F'\t' 'NR > 1 && $4 != $5 { d = 1 } END { exit !d }' "$first/fig1.tsv"; then
    echo "FAIL: every AsmDB+FDP cell equals FDP24; the determinism gate is vacuous" >&2
    exit 1
fi
rm -rf "$first" target/report.stable.json
echo "every TSV and report.json are byte-stable across runs, AsmDB columns included"

# Runs `swip bench --figure NAME FLAGS...` in DIR, a directory of its own
# (experiments write ./target/experiments), and fails with the run's log
# if the run fails.
figure_in() {
    dir=$1
    name=$2
    shift 2
    rm -rf "$dir"
    mkdir -p "$dir"
    if ! (cd "$dir" && cargo run -p swip-cli --release --quiet -- bench \
        --figure "$name" "$@" >run.log 2>&1); then
        echo "FAIL: swip bench --figure $name failed" >&2
        cat "$dir/run.log" >&2
        exit 1
    fi
}

echo "==> smoke: hardware prefetchers (swip bench --figure extension_hw_prefetch)"
# At 20k, where the loop below runs every experiment, the fdp+eip column
# equals fdp on every workload, so that loop cannot tell whether a
# mechanism is wired in. At the smoke scale each must move some workload.
hw_dir="target/hw-prefetch-smoke"
figure_in "$hw_dir" extension_hw_prefetch $smoke_flags
hw_tsv="$hw_dir/target/experiments/extension_hw_prefetch.tsv"
for column in 3:fdp+nextline 4:fdp+eip; do
    if ! awk -F'\t' -v c="${column%%:*}" \
        'NR > 1 && $1 != "geomean" && $c != $2 { d = 1 } END { exit !d }' "$hw_tsv"; then
        echo "FAIL: ${column#*:} equals fdp on every workload of $hw_tsv" >&2
        exit 1
    fi
done
echo "next-line and entangling each move some workload off fdp"

echo "==> smoke: metadata preloading (swip bench --figure extension_preload)"
# At 20k no workload preloads anything and asmdb_preload (column 5)
# equals fdp (column 2) everywhere; at the smoke scale the preload
# prefetcher must issue prefetches (column 6) and move some workload.
preload_dir="target/preload-smoke"
figure_in "$preload_dir" extension_preload $smoke_flags
preload_tsv="$preload_dir/target/experiments/extension_preload.tsv"
if ! awk -F'\t' 'NR > 1 && $1 != "geomean" && $5 != $2 && $6 > 0 { d = 1 }
    END { exit !d }' "$preload_tsv"; then
    echo "FAIL: no workload of $preload_tsv preloads a prefetch and moves off fdp" >&2
    exit 1
fi
echo "metadata preloading issues prefetches and moves some workload off fdp"

echo "==> smoke: every registered experiment (swip bench --figure NAME)"
# The names come from the unknown-figure error, which lists the registry,
# so this loop cannot drift from it.
names=$(cargo run -p swip-cli --release --quiet -- bench --figure '?' 2>&1 |
    sed -n 's/.*expected one of: \(.*\))$/\1/p' | tr -d ',')
if [ -z "$names" ]; then
    echo "FAIL: the unknown-figure error lists no experiment names" >&2
    exit 1
fi
figure_dir="target/figure-smoke"
for name in $names; do
    figure_in "$figure_dir" "$name" --instructions 20000 --stride 16
    out="$figure_dir/target/experiments"
    if [ "$name" != all ] && ! [ -f "$out/$name.tsv" ]; then
        echo "FAIL: swip bench --figure $name wrote no $name.tsv" >&2
        exit 1
    fi
    for tsv in "$out"/*.tsv; do
        if ! [ -f "$tsv" ] || [ "$(wc -l <"$tsv")" -lt 2 ]; then
            echo "FAIL: $tsv (from --figure $name) lacks a header and a data row" >&2
            exit 1
        fi
    done
done
echo "every registered experiment ran and wrote header + data rows: $(echo $names)"

echo "==> smoke: prefetcher zoo sweep (--prefetcher across all four mechanisms)"
# stride 16 → 3 workloads; long-format TSV = workloads × 4 mechanisms + header.
# At 20k asmdb equals fdp on every workload; at the smoke scale each
# mechanism must move some workload off its fdp row.
cargo run -p swip-cli --release --quiet -- bench $smoke_flags \
    --prefetcher fdp --prefetcher asmdb --prefetcher mana --prefetcher shadow_btb
zoo_tsv="target/experiments/prefetchers.tsv"
if ! [ -s "$zoo_tsv" ]; then
    echo "FAIL: $zoo_tsv missing or empty" >&2
    exit 1
fi
rows=$(wc -l <"$zoo_tsv")
workloads=$(tail -n +2 "$zoo_tsv" | cut -f1 | sort -u | wc -l)
expected=$((workloads * 4 + 1))
if [ "$rows" -ne "$expected" ]; then
    echo "FAIL: $zoo_tsv has $rows rows, expected $expected ($workloads workloads x 4 + header)" >&2
    exit 1
fi
for mechanism in asmdb mana shadow_btb; do
    if ! awk -F'\t' -v m="$mechanism" '
        NR > 1 && $2 == "fdp" { fdp[$1] = $3 FS $4 }
        NR > 1 && $2 == m { row[$1] = $3 FS $4 }
        END { for (w in row) if (w in fdp && row[w] != fdp[w]) d = 1; exit !d }' "$zoo_tsv"; then
        echo "FAIL: $mechanism has fdp's ipc and l1i_mpki on every workload of $zoo_tsv" >&2
        exit 1
    fi
done
# The sweep's schema-v2 report (with prefetcher tags) must load.
cargo run -p swip-cli --release --quiet -- report "$report"
# And the pre-refactor schema-v1 fixture must keep loading (back-compat gate).
cargo run -p swip-cli --release --quiet -- report tests/fixtures/report_v1.json
echo "prefetcher zoo TSV well-formed ($workloads workloads x 4 mechanisms, each off fdp); v1 report still loads"

echo "==> smoke: swip serve (keep-alive probe, connection flood, graceful drain)"
cargo build -q --release -p swip-cli -p swip-serve
serve_log="target/serve-smoke.log"
./target/release/swip serve --addr 127.0.0.1:0 --workers 1 --queue-depth 4 \
    --max-conns 32 --keep-alive-timeout 2 \
    --instructions 20000 --stride 48 >"$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$serve_log")
    [ -n "$addr" ] && break
    sleep 0.2
done
if [ -z "$addr" ]; then
    echo "FAIL: server never reported its address" >&2
    cat "$serve_log" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi

# Flood probe: 82 idle connections against --max-conns 32 must shed the
# overflow with 503 at accept time — and, because connections live in a
# poll loop rather than a thread each, the server's thread count must
# not grow with the flood.
if [ -d "/proc/$serve_pid/task" ]; then
    threads_before=$(ls "/proc/$serve_pid/task" | wc -l)
else
    threads_before=""
fi
flood_log="target/serve-flood.log"
./target/release/serve_probe "$addr" flood 82 >"$flood_log" 2>&1 &
flood_pid=$!
sleep 1
if [ -n "$threads_before" ]; then
    threads_during=$(ls "/proc/$serve_pid/task" | wc -l)
else
    threads_during=""
fi
if ! wait "$flood_pid"; then
    echo "FAIL: flood probe failed" >&2
    cat "$flood_log" "$serve_log" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
cat "$flood_log"
if [ -n "$threads_before" ] && [ "$threads_during" -gt $((threads_before + 2)) ]; then
    echo "FAIL: thread count grew under flood ($threads_before -> $threads_during)" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
[ -n "$threads_before" ] && \
    echo "thread count bounded under flood ($threads_before -> $threads_during)"

# Default probe: health check, then three plan submissions over ONE
# kept-alive socket (the keep-alive smoke), then a drain request.
if ! ./target/release/serve_probe "$addr"; then
    echo "FAIL: serve probe failed" >&2
    cat "$serve_log" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
# The probe requested a drain; the server must exit 0 on its own.
if ! wait "$serve_pid"; then
    echo "FAIL: swip serve did not exit 0 after drain" >&2
    cat "$serve_log" >&2
    exit 1
fi
echo "serve smoke passed (served on $addr, keep-alive + flood probed, drained, exit 0)"

echo "==> smoke: swip fleet (2 workers, byte-identical merge, dead-worker re-dispatch)"
fleet_dir="target/fleet-smoke"
rm -rf "$fleet_dir"
mkdir -p "$fleet_dir"
# Two real worker processes on ephemeral ports. --job-threads is pinned
# on both workers AND the offline reference: the thread count is part of
# the report header, so it must match for the byte-compare below.
./target/release/swip serve --addr 127.0.0.1:0 --workers 2 --job-threads 2 \
    --instructions 20000 --stride 24 >"$fleet_dir/worker1.log" 2>&1 &
fleet_w1_pid=$!
./target/release/swip serve --addr 127.0.0.1:0 --workers 2 --job-threads 2 \
    --instructions 20000 --stride 24 >"$fleet_dir/worker2.log" 2>&1 &
fleet_w2_pid=$!
fleet_w1_addr=""
fleet_w2_addr=""
for _ in $(seq 1 50); do
    fleet_w1_addr=$(sed -n 's/^listening on //p' "$fleet_dir/worker1.log")
    fleet_w2_addr=$(sed -n 's/^listening on //p' "$fleet_dir/worker2.log")
    [ -n "$fleet_w1_addr" ] && [ -n "$fleet_w2_addr" ] && break
    sleep 0.2
done
if [ -z "$fleet_w1_addr" ] || [ -z "$fleet_w2_addr" ]; then
    echo "FAIL: fleet workers never reported their addresses" >&2
    cat "$fleet_dir"/worker*.log >&2
    kill -9 "$fleet_w1_pid" "$fleet_w2_pid" 2>/dev/null || true
    exit 1
fi
# The single-node reference, then the 2-worker sweep of the same plan.
./target/release/swip fleet run --offline --instructions 20000 --stride 24 \
    --job-threads 2 --out "$fleet_dir/single.json" >/dev/null
./target/release/swip fleet run --worker "$fleet_w1_addr" \
    --worker "$fleet_w2_addr" --instructions 20000 --stride 24 \
    --out "$fleet_dir/merged.json"
if ! cmp -s "$fleet_dir/single.json" "$fleet_dir/merged.json"; then
    echo "FAIL: fleet-merged report differs from the single-node report" >&2
    exit 1
fi
# SIGKILL one worker; a re-run with the dead address still configured
# must drop it at registration and complete on the survivor — exit 0,
# same bytes.
kill -9 "$fleet_w2_pid" 2>/dev/null || true
wait "$fleet_w2_pid" 2>/dev/null || true
./target/release/swip fleet run --worker "$fleet_w1_addr" \
    --worker "$fleet_w2_addr" --instructions 20000 --stride 24 \
    --out "$fleet_dir/merged-after-kill.json"
if ! cmp -s "$fleet_dir/single.json" "$fleet_dir/merged-after-kill.json"; then
    echo "FAIL: post-kill fleet report differs from the single-node report" >&2
    exit 1
fi
kill -9 "$fleet_w1_pid" 2>/dev/null || true
wait "$fleet_w1_pid" 2>/dev/null || true
echo "fleet smoke passed (2-worker merge byte-identical, survived a SIGKILL)"

echo "All checks passed."
