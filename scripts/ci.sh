#!/usr/bin/env bash
# Tier-1 CI gate. Everything runs --offline: the workspace has no external
# dependencies by design (DESIGN.md §6), so a hermetic builder must pass.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Intra-doc links are checked too (~5 s): code that moves between
# modules must not leave `[`name`]` links dangling behind it.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test"
cargo test -q --offline

# Fault-injection smoke matrix: each fault class alone, small rates, small
# scale. A run exits 1 on any invariant violation, so this gates the
# recovery layer end to end. Then the reference plan's depth-1 accuracy
# pair per benchmark, from the event engine (the only engine with a lossy
# fabric): a faulty column that stops trailing the clean one means
# retransmissions stopped reaching the trace; the report's CSV is diffed
# against its golden (captured while `faults` still ran its own
# simulations, before it became a view of the baseline set). Last, the
# unhappy path: a plan harsh enough to exhaust the retry budget is one
# line on stderr naming the benchmark and exit 1, not a panic.
echo "==> fault-injection smoke (drop / dup / reorder, clean / faulty pair + golden CSV diff, drop=0.9)"
REPRO="${CARGO_TARGET_DIR:-target}/release/repro"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
for spec in drop=0.02 dup=0.02 reorder=3; do
  echo "    --faults $spec"
  "$REPRO" --small --faults "$spec" --faults-seed 7 > /dev/null
done
"$REPRO" --small --csv "$SMOKE_DIR" faults 2> /dev/null \
  | awk '/^Recovery/ { exit } $2 ~ /^[0-9.]+$/ { printf "    %-13s d1 clean %s, faulty %s\n", $1, $2, $3 }'
diff -u crates/bench-suite/tests/golden/faults_small.csv "$SMOKE_DIR/faults.csv"
echo "    faults CSV matches golden"
FAULT_ERR="$("$REPRO" --small --faults drop=0.9 2>&1 > /dev/null | sed '/^running /d')" && {
  echo "    --faults drop=0.9 exited 0: the retry budget cannot have held" >&2
  exit 1
}
case "$FAULT_ERR" in
  *panicked* | *$'\n'*) echo "    --faults drop=0.9 is not one line: $FAULT_ERR" >&2; exit 1 ;;
  faults:\ *retry\ budget\ exhausted) echo "    --faults drop=0.9 exits 1: $FAULT_ERR" ;;
  *) echo "    --faults drop=0.9: unexpected error: $FAULT_ERR" >&2; exit 1 ;;
esac

# Release table smoke: regenerate the small-scale Tables 5-8 and diff
# their CSVs against the golden copies (Table 5's captured before the
# packed-core optimisation, Tables 6-8's before the tables became views of
# one race) — speed and structure work must never move a result.
echo "==> table smoke (golden Tables 5-8 diff)"
cargo run -q --release --offline -p bench-suite --bin repro -- \
  --small --csv "$SMOKE_DIR" table5 table6 table7 table8 > /dev/null
for table in table5 table6 table7 table8; do
  diff -u "crates/bench-suite/tests/golden/${table}_small.csv" "$SMOKE_DIR/$table.csv"
done
echo "    table5-8 CSVs match golden"

# EXPERIMENTS.md's measured tables are generated blocks, each the exact
# stdout of the `repro` command it names: rerun every one at its own
# scale (paper scale but for `--small scale` and `--small tracepack`) and
# diff, so no reported number drifts from the code that produces it.
echo "==> EXPERIMENTS.md (every generated block against repro's stdout)"
scripts/experiments.sh --check

# Model-checker smoke: exhaustively explore the 2-node configurations and
# require the simcheck.* obs artefact. The repro target exits non-zero if
# any exploration finds an invariant violation.
echo "==> simcheck smoke (bounded schedule exploration, 2 nodes)"
cargo run -q --release --offline -p bench-suite --bin repro -- \
  --small --csv "$SMOKE_DIR" simcheck > /dev/null
grep -q '"simcheck.states_visited"' "$SMOKE_DIR/simcheck_obs.json"
grep -q '"simcheck.exhausted":1' "$SMOKE_DIR/simcheck_obs.json"
echo "    2-node state spaces exhausted; simcheck obs JSON emitted"

# Tracing smoke: emit the latency-attribution tables and the Chrome
# trace JSON on the small suite, check the export parses (python3 when
# available, structural checks otherwise) and contains at least one
# complete span tree (a metadata record plus closed "X" slices), and
# diff the attribution CSV against its golden — spans are derived purely
# from simulated timestamps, so the table must be deterministic.
echo "==> tracing smoke (tracespans table + Chrome trace export)"
cargo run -q --release --offline -p bench-suite --bin repro -- \
  --small --csv "$SMOKE_DIR" --trace-out "$SMOKE_DIR/trace.json" \
  tracespans > /dev/null
diff -u crates/bench-suite/tests/golden/tracespans_small.csv "$SMOKE_DIR/tracespans.csv"
if command -v python3 > /dev/null; then
  python3 - "$SMOKE_DIR/trace.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
complete = [e for e in events if e.get("ph") == "X"]
meta = [e for e in events if e.get("ph") == "M"]
assert meta, "no process-name metadata records"
assert complete, "no complete span events"
# At least one span tree: a Txn root with a child sharing its track.
roots = {(e["pid"], e["tid"]) for e in complete if e.get("cat") == "txn"}
children = {(e["pid"], e["tid"]) for e in complete if e.get("cat") != "txn"}
assert roots & children, "no root span has an attributed child"
print(f"    trace.json parses: {len(complete)} spans, "
      f"{len(roots)} transaction tracks")
PY
else
  grep -q '"ph":"M"' "$SMOKE_DIR/trace.json"
  grep -q '"ph":"X"' "$SMOKE_DIR/trace.json"
  grep -q '"cat":"txn"' "$SMOKE_DIR/trace.json"
  grep -q '"cat":"network"' "$SMOKE_DIR/trace.json"
  echo "    trace.json structural checks pass (python3 unavailable)"
fi
echo "    tracespans CSV matches golden; trace export valid"

# Scale smoke: run the sharded-engine sweep at small scale and diff the
# deterministic CSV against its golden. The CSV carries only
# simulation-defined columns, and the sharded engine is byte-identical
# for every shard count, so the diff must hold on any machine.
echo "==> scale smoke (sharded sweep + golden CSV diff)"
cargo run -q --release --offline -p bench-suite --bin repro -- \
  --small --csv "$SMOKE_DIR" scale > /dev/null
diff -u crates/bench-suite/tests/golden/scale_small.csv "$SMOKE_DIR/scale.csv"
echo "    scale CSV matches golden"

# Speculation smoke: regenerate the acceleration table — every benchmark
# runs bare and under nine action sets (directed, two-action Cosmos and
# the gated four-action fleet), each clean *and* under the default fault
# plan (drop=0.01,dup=0.005,reorder=3), so this exercises
# prediction-actioned grants, self-invalidations, early acks, forwarding
# pushes, and the rollback/recovery paths end to end — and diff the CSV
# against its golden byte for byte. The target is all ConcurrentMachine
# runs, and the wall of the binary (built above; run directly so cargo
# is not in the figure) is printed so that a barrier audit gone back to
# walking every touched block shows in the log — faintly at this scale
# (≈ 250 ms on two cores); the paper-scale tripwire is the spec16 pass
# below, ≈ 11 s against ≈ 1 s.
echo "==> speculation smoke (acceleration table + golden CSV diff, timed)"
ACCEL_T0="$(date +%s%N)"
"${CARGO_TARGET_DIR:-target}/release/repro" \
  --small --csv "$SMOKE_DIR" accel > /dev/null
ACCEL_NS="$(($(date +%s%N) - ACCEL_T0))"
diff -u crates/bench-suite/tests/golden/accel_small.csv "$SMOKE_DIR/accel.csv"
grep -q '"stache.rollback.pushes"' "$SMOKE_DIR/accel_obs.json"
grep -q '"stache.rollback.early_acks"' "$SMOKE_DIR/accel_obs.json"
echo "    accel CSV matches golden; rollback obs JSON emitted"
echo "    repro --small accel wall: $((ACCEL_NS / 1000000)) ms"

# Packed-trace smoke: run the pack pipeline and the streaming cell at
# small scale and diff the deterministic CSV against its golden. The CSV
# pins the codec byte totals, compression ratios, and the streamed
# cell's record totals.
echo "==> tracepack smoke (packed pipeline + golden CSV diff)"
cargo run -q --release --offline -p bench-suite --bin repro -- \
  --small --csv "$SMOKE_DIR" tracepack > /dev/null
diff -u crates/bench-suite/tests/golden/tracepack_small.csv \
  "$SMOKE_DIR/tracepack.csv"
echo "    tracepack CSV matches golden"

# Benchmark smoke: benchmark/ is a workspace of its own that tier-1 never
# compiles, so a layer-crate API change can break the pipeline's build
# unseen. Build and unit-test it, then run one pass of the hot-table, the
# speculating-engine, the cold-stream and the 1024-node workloads and
# require every output check (coherence, digests, scored totals,
# evaluate_cosmos cross-check) to pass. scale1024 is the only place a
# 1024-node sharded core runs under this gate, spec16 the only place the
# paper-scale speculative engine does (a pass is ~1 s now that barrier
# audits cost what the phase wrote). The printed `digest` line (a hash of
# every captured trace record) must equal the value below: the simulated
# stream at seed 0 has been the same since PR 14, and a PR that means to
# change it updates the value here, on purpose. Each line also prints the
# pass's wall_s and the process's peak_rss_mb (scale1024: 46-48 MB since a
# directory entry is one word and the sampled audit keeps 4 096 keys, not
# all 1.67 M; ~84 MB means the entry grew back, ~60 MB that the audit
# collects every key again, ~97 MB both, 142 MB that a block table doubled
# whole again. stream64: ~87 MB since a tracked block costs 56 bytes; 129 MB
# means an evicting slot regrew). Read-only use: nothing under benchmark/
# is edited.
echo "==> benchmark smoke (package tests + one pass of suite16, spec16, stream64, scale1024)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml
metric() { sed -n "s/.*\"$1\": {\"value\": \([0-9.]*\).*/\1/p" "$SMOKE_DIR/bench_$workload.json"; }
for cell in suite16:bc72c28fa0e53aef spec16:756d7e7c23faec11 \
    stream64:06b75860eda1bc80 scale1024:85bfb8bcdd80a000; do
  workload="${cell%%:*}" want="${cell##*:}"
  benchmark/run.sh --workload "$workload" --seed 0 --seconds 1 --trace 0 \
    > "$SMOKE_DIR/bench_$workload.txt"
  tail -n 1 "$SMOKE_DIR/bench_$workload.txt" > "$SMOKE_DIR/bench_$workload.json"
  grep -q '"failed": 0[,}]' "$SMOKE_DIR/bench_$workload.json" || {
    echo "    $workload: output checks failed:" >&2
    cat "$SMOKE_DIR/bench_$workload.json" >&2
    exit 1
  }
  got="$(sed -n "s/^$workload digest \([0-9a-f]*\) hex\$/\1/p" "$SMOKE_DIR/bench_$workload.txt")"
  [ "$got" = "$want" ] || {
    echo "    $workload: simulated stream changed: digest $got, expected $want" >&2
    exit 1
  }
  echo "    $workload: failed 0, digest $got, pass wall_s $(metric wall_s), peak_rss_mb $(metric peak_rss_mb)"
done

# Per-event cost gate, in release (a debug build inlines and allocates
# differently, and release is what the benchmark measures): allocations
# per message after warm-up on both event engines (<= 0.05, printed; the
# window batch and the resolve scratch are reused, not rebuilt), and the
# pinned sizes of a queue entry, a log entry, a sharer set and a
# directory entry. The scoring side likewise: allocations per record of
# a cold bounded fleet (<= 0.05, printed beside a hot fleet's figure), and
# the pinned sizes of a tracked block's state, slab slot and index word.
# Beside them, also in release, the two tests that hold
# the resolve stage invisible: a shard stepped window by window beside a
# twin that skips it, and the sharded engine against the concurrent one
# at shards 1, 2 and 4, touched-block sets included. Tier-1 runs all of
# these in debug already; this is the build the numbers in EXPERIMENTS.md
# come from.
echo "==> per-event cost (release): allocations per message / record, pinned sizes, resolve invisible"
cargo test -q --release --offline -p workloads --test alloc_steady_state -- --nocapture \
  | grep -E "per message|test result"
cargo test -q --release --offline -p cosmos --test alloc_per_record -- --nocapture \
  | grep -E "per record|test result"
cargo test -q --release --offline -p simx --lib event_and_block_footprints_are_pinned \
  | grep -E "test result: ok. 1 passed"
cargo test -q --release --offline -p cosmos --lib fleet_footprints_are_pinned \
  | grep -E "test result: ok. 1 passed"
cargo test -q --release --offline -p simx --lib a_resolved_window_leaves_exactly \
  | grep -E "test result: ok. 1 passed"
cargo test -q --release --offline -p workloads --test shard_identity \
  | grep -E "test result: ok. 4 passed"

# Profiler smoke: three seconds of scale1024 under scripts/sigprof.c must
# print a table, or the notice that this box lacks cc / addr2line / x86-64
# Linux. A diagnostic, never a gate on what the table says.
echo "==> profiler smoke (scripts/profile.sh scale1024 3)"
scripts/profile.sh scale1024 3 > "$SMOKE_DIR/profile.txt"
grep -E "unavailable here|^ +[0-9.]+% +[0-9]+ " "$SMOKE_DIR/profile.txt" | sed -n '1,4s/^/    /p'

# Surface report: what a simplicity PR is judged on. Printed, not gated;
# the last three lines are the parent commit's totals, knobs and
# unreached count, so the delta is read off (a PR that moves the surface
# updates them).
echo "==> surface (non-test lines, pub fns, predictor / policy impls per crate; knobs; unreached)"
scripts/surface.sh | sed 's/^/    /'
echo "    parent         19870     511          7         2"
echo "    parent knobs       2"
echo "    parent unreached  18"

echo "CI green."
