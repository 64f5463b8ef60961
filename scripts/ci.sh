#!/usr/bin/env bash
# Offline CI: formatting, lints, the tier-1 build+test command, the
# feature-gated suites, and real figures and server cycles. No network
# access required — the workspace has no external dependencies.
# Throughput is measured by perfbench (`python3 perfbench/run.py`), not here.
#
# Usage: scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== aq-lint: workspace lint gate (R1-R10 + A0, semantic passes on) =="
cargo run -q --offline -p aq-analyze --bin aq-lint -- --deny --baseline=lint-baseline.toml \
    --stats --lock-dot=target/lock-order.dot
# the committed lock-order graph must match what the analyzer derives
diff -u docs/lock-order.dot target/lock-order.dot || {
    echo "docs/lock-order.dot is stale; regenerate with:"
    echo "  cargo run -p aq-analyze --bin aq-lint -- --lock-dot=docs/lock-order.dot"
    exit 1
}

echo "== tier-1: cargo build --release =="
cargo build --release --offline --workspace

echo "== tier-1: cargo test -q =="
# every crate suite, including the algebraic-gap gate
# (crates/bench/tests/gap_gate.rs) and the worker-scaling gate
# (crates/serve/tests/scale.rs)
cargo test -q --offline --workspace

echo "== release build: exact division and the timing gates, optimized =="
# IBig::div_exact checks its remainder in release too; the gap and scale
# gates also run in the profile the retired bench binaries measured them in
cargo test -q --release --offline -p aq-bigint
cargo test -q --release --offline -p aq-bench --test gap_gate
cargo test -q --release --offline -p aq-serve --test scale

echo "== perfbench: builds against the current API, toy output checks =="
# the benchmark harness is its own package; its toy runs fail on an API
# break or on Q[omega] and GCD outputs that are not bit-identical
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== fail-soft: budget-abort suites =="
cargo test -q --offline -p aq-dd --test budget
cargo test -q --offline -p aq-sim --test fail_soft
cargo test -q --offline --test workspace gse_algebraic_run_fails_soft

echo "== persistence: snapshot fault injection + checkpoint/resume =="
cargo test -q --offline -p aq-dd --test snapshot_faults
cargo test -q --offline -p aq-dd --test snapshot_roundtrip
cargo test -q --offline -p aq-sim --test checkpoint_resume
cargo test -q --offline -p aq-bench --test resume_figures

echo "== figures: real checkpoint/resume cycle (fig4) =="
fig_ckpt="target/ci_figures.aqckp"
fig_log="target/ci_figures_resumed.log"
rm -f "$fig_ckpt" "$fig_log"
# a 50 ms deadline aborts every fig4 series mid-run; each abort dumps the
# checkpoint (later series overwrite it)
./target/release/figures fig4 --deadline-secs=0.05 --checkpoint="$fig_ckpt"
test -f "$fig_ckpt" || { echo "expected a checkpoint dump"; exit 1; }
test -f target/figures/fig4_aborted.csv \
    || { echo "expected the aborted series in fig4_aborted.csv"; exit 1; }
# the resumed run must complete every series and remove the abort record
./target/release/figures fig4 --resume="$fig_ckpt" | tee "$fig_log"
if grep -q 'aborted:' "$fig_log"; then
    echo "resumed figures run still has aborted series"; exit 1
fi
test ! -e target/figures/fig4_aborted.csv \
    || { echo "a complete fig4 run left a stale fig4_aborted.csv"; exit 1; }
rm -f "$fig_ckpt" "$fig_log"

echo "== invariants: validate-invariants feature gates =="
cargo test -q --offline -p aq-dd --features validate-invariants --test invariants
cargo test -q --offline -p aq-sim --features validate-invariants --lib

echo "== serve: concurrency + protocol fault suites (lock-order audit on) =="
cargo test -q --offline -p aq-serve --features lock-audit --test concurrency
cargo test -q --offline -p aq-serve --features lock-audit --test lock_audit
cargo test -q --offline -p aq-serve --features lock-audit --test protocol_faults
# static R9 graph must be acyclic and a superset of the runtime graph
cargo test -q --offline -p aq-serve --features lock-audit --test static_lock_order

echo "== serve: deterministic chaos suite (pinned seeds, lock-audit on) =="
# seed-driven worker kills, session corruption, connection stalls and
# spurious wakeups; asserts exact metric reconciliation and byte-identical
# results under every schedule, and that a 1 %-per-job kill plan under
# retrying clients completes every job (seeds pinned inside the suite)
cargo test -q --offline -p aq-serve --features chaos,lock-audit --test chaos
cargo test -q --offline -p aq-sim --features chaos --lib

echo "== serve: real server cycle over TCP (aq-served + aq-cli) =="
serve_ck="target/ci_serve_ckpts"
serve_log="target/ci_served.log"
rm -rf "$serve_ck" "$serve_log" target/ci_serve_*.json target/ci_serve_ghz10.qasm
./target/release/aq-served --port=0 --workers=2 --checkpoint-dir="$serve_ck" \
    >"$serve_log" 2>&1 &
serve_pid=$!
# scrape the ephemeral address from the server's "listening on" line
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$serve_log" | head -n 1)"
    [[ -n "$addr" ]] && break
    sleep 0.1
done
if [[ -z "$addr" ]]; then
    echo "aq-served never reported its address:"
    cat "$serve_log"
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
cli() { ./target/release/aq-cli --addr="$addr" "$@"; }
# a roomy job that completes...
cli submit --circuit=grover --n=5 --marked=19 --scheme=numeric --eps=1e-10 \
    --max-nodes=2000000 --wait=120 | tee target/ci_serve_completed.json
grep -q '"state":"completed"' target/ci_serve_completed.json \
    || { echo "expected a completed job"; exit 1; }
# ...and a starved one that budget-aborts, leaving a resumable checkpoint
cli submit --circuit=grover --n=6 --marked=45 --scheme=numeric --eps=1e-10 \
    --max-nodes=24 --wait=120 | tee target/ci_serve_aborted.json
grep -q '"state":"aborted"' target/ci_serve_aborted.json \
    || { echo "expected a budget abort"; exit 1; }
grep -q '"checkpoint":"' target/ci_serve_aborted.json \
    || { echo "expected a checkpoint path in the abort"; exit 1; }
ls "$serve_ck"/job-*.aqckp >/dev/null \
    || { echo "expected a checkpoint file on disk"; exit 1; }
# metrics must reconcile: 2 submitted == 1 completed + 1 aborted, none in flight
cli metrics | tee target/ci_serve_metrics.json
grep -q '"submitted":2,"completed":1,"aborted":1,"rejected":0' \
    target/ci_serve_metrics.json || { echo "metrics do not reconcile"; exit 1; }
grep -q '"queue_depth":0,"running":0' target/ci_serve_metrics.json \
    || { echo "expected an idle server"; exit 1; }
# resubmitting the completed job verbatim must be served from the result cache
cli submit --circuit=grover --n=5 --marked=19 --scheme=numeric --eps=1e-10 \
    --max-nodes=2000000 --wait=120 | tee target/ci_serve_cached.json
grep -q '"state":"completed"' target/ci_serve_cached.json \
    || { echo "expected the cached resubmission to complete"; exit 1; }
cli metrics | tee target/ci_serve_metrics2.json
grep -q '"served":1,"hits":1' target/ci_serve_metrics2.json \
    || { echo "expected a result-cache hit in the metrics verb"; exit 1; }
# a seeded sampling job over the same server: 10-qubit GHZ under the exact
# gcd scheme — the histogram must sum to the shot count and the exact
# context must report probabilities as exactly one half, with exact strings
ghz_qasm="target/ci_serve_ghz10.qasm"
{
    printf 'OPENQASM 2.0;\nqreg q[10];\nh q[0];\n'
    for q in $(seq 1 9); do printf 'cx q[%d], q[%d];\n' "$((q - 1))" "$q"; done
} >"$ghz_qasm"
cli sample --qasm-file="$ghz_qasm" --scheme=gcd --shots=2048 --seed=9 \
    --max-nodes=2000000 --wait=120 | tee target/ci_serve_sample.json
grep -q '"state":"completed"' target/ci_serve_sample.json \
    || { echo "expected the sampling job to complete"; exit 1; }
grep -q '"forked":false' target/ci_serve_sample.json \
    || { echo "GHZ has no mid-circuit measurement; sampling must not fork"; exit 1; }
grep -q '"p":0.5,"exact":"' target/ci_serve_sample.json \
    || { echo "expected exactly-1/2 probabilities with exact strings"; exit 1; }
extract_counts() { sed -n 's/.*"counts":\(\[.*\]\]\),"probabilities".*/\1/p' "$1" | head -n 1; }
counts1="$(extract_counts target/ci_serve_sample.json)"
sample_total=$(printf '%s' "$counts1" | grep -o '\[[0-9]*,[0-9]*\]' \
    | awk -F'[^0-9]+' '{s += $3} END {print s}')
[[ "$sample_total" == "2048" ]] \
    || { echo "histogram sums to ${sample_total:-0}, want 2048"; exit 1; }
# same seed again (top-k varied to defeat the result cache): the fresh run
# must reproduce the histogram bit-for-bit
cli sample --qasm-file="$ghz_qasm" --scheme=gcd --shots=2048 --seed=9 --top-k=5 \
    --max-nodes=2000000 --wait=120 | tee target/ci_serve_sample2.json
counts2="$(extract_counts target/ci_serve_sample2.json)"
[[ -n "$counts1" && "$counts1" == "$counts2" ]] \
    || { echo "equal seeds must reproduce the histogram bit-for-bit"; exit 1; }
# the verbatim repeat is answered from the result cache, byte-identical
cli sample --qasm-file="$ghz_qasm" --scheme=gcd --shots=2048 --seed=9 \
    --max-nodes=2000000 --wait=120 | tee target/ci_serve_sample3.json
counts3="$(extract_counts target/ci_serve_sample3.json)"
[[ "$counts1" == "$counts3" ]] \
    || { echo "cache-served sample must be byte-identical"; exit 1; }
cli metrics | tee target/ci_serve_metrics3.json
grep -q '"samples":3,"shots":6144' target/ci_serve_metrics3.json \
    || { echo "expected sampling counters in the metrics verb"; exit 1; }
grep -q '"served":2,"hits":2' target/ci_serve_metrics3.json \
    || { echo "expected the repeat sample to be cache-served"; exit 1; }
cli drain | grep -q '"state":"drained"' || { echo "drain failed"; exit 1; }
cli shutdown | grep -q '"state":"stopped"' || { echo "shutdown failed"; exit 1; }
wait "$serve_pid" || { echo "aq-served exited non-zero"; exit 1; }
rm -rf "$serve_ck" "$serve_log" target/ci_serve_*.json "$ghz_qasm"

echo "== serve: kill -> respawn -> recover cycle over TCP (chaos build) =="
cargo build -q --release --offline -p aq-serve --features chaos
chaos_ck="target/ci_chaos_ckpts"
chaos_log="target/ci_chaos_served.log"
rm -rf "$chaos_ck" "$chaos_log" target/ci_chaos_*.json
# every even job id panics its worker mid-claim; the supervisor must
# recover the job as a transient abort and respawn the worker
./target/release/aq-served --port=0 --workers=2 --checkpoint-dir="$chaos_ck" \
    --restart-budget=100 --backoff-base-ms=5 --backoff-cap-ms=50 \
    --chaos-seed=7 --chaos-kill-every=2 >"$chaos_log" 2>&1 &
chaos_pid=$!
chaos_addr=""
for _ in $(seq 1 100); do
    chaos_addr="$(sed -n 's/^listening on //p' "$chaos_log" | head -n 1)"
    [[ -n "$chaos_addr" ]] && break
    sleep 0.1
done
if [[ -z "$chaos_addr" ]]; then
    echo "chaos aq-served never reported its address:"
    cat "$chaos_log"
    kill "$chaos_pid" 2>/dev/null || true
    exit 1
fi
ccli() { ./target/release/aq-cli --addr="$chaos_addr" "$@"; }
# job 1 (odd id) survives; job 2 is killed, aborts transient, and the
# retry loop resubmits until the respawned worker completes it
ccli submit --circuit=grover --n=5 --marked=19 --scheme=numeric --eps=1e-10 \
    --max-nodes=2000000 --retries=6 --wait=120 | tee target/ci_chaos_first.json
grep -q '"state":"completed"' target/ci_chaos_first.json \
    || { echo "expected the unkilled job to complete"; exit 1; }
ccli submit --circuit=grover --n=5 --marked=7 --scheme=numeric --eps=1e-10 \
    --max-nodes=2000000 --retries=6 --wait=120 | tee target/ci_chaos_second.json
grep -q '"reason":"transient:' target/ci_chaos_second.json \
    || { echo "expected a transient abort from the injected kill"; exit 1; }
grep -q '"state":"completed"' target/ci_chaos_second.json \
    || { echo "expected the retried job to complete after the respawn"; exit 1; }
ccli metrics | tee target/ci_chaos_metrics.json
grep -Eq '"worker_deaths":[1-9]' target/ci_chaos_metrics.json \
    || { echo "expected at least one detected worker death"; exit 1; }
grep -Eq '"worker_respawns":[1-9]' target/ci_chaos_metrics.json \
    || { echo "expected at least one respawn"; exit 1; }
ccli shutdown | grep -q '"state":"stopped"' || { echo "chaos shutdown failed"; exit 1; }
wait "$chaos_pid" || { echo "chaos aq-served exited non-zero"; exit 1; }
rm -rf "$chaos_ck" "$chaos_log" target/ci_chaos_*.json
# restore the feature-free binaries for anything running after CI
cargo build -q --release --offline -p aq-serve

echo "CI OK"
