#!/usr/bin/env bash
# Surface report: per crate, the non-test lines of crates/<crate>/src
# (everything above each file's first `#[cfg(test)]`), the `pub fn`s among
# them, and the predictor / policy implementations; then `knobs`, the
# `pub` fields of `ProtocolConfig` and `SystemConfig` (every setting a
# machine is built from). The numbers a simplicity PR is judged on;
# printed by ci.sh as a report, not a gate.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src -name '*.rs' | sort | xargs awk '
  FNR == 1 { live = 1; split(FILENAME, path, "/"); crate = path[2] }
  /#\[cfg\(test\)\]/ { live = 0 }
  !live { next }
  { lines[crate]++ }
  /pub fn / { fns[crate]++ }
  /^impl.* MessagePredictor for / { preds[crate]++ }
  /^impl.* SpeculationPolicy for / { pols[crate]++ }
  /^pub struct (ProtocolConfig|SystemConfig) \{/ { config = 1; next }
  config && /^}/ { config = 0 }
  config && /^    pub [a-z_0-9]+:/ { knobs++ }
  END {
    printf "%-12s %7s %7s %10s %9s\n", "crate", "lines", "pub fn", "predictors", "policies"
    for (c in lines) {
      printf "%-12s %7d %7d %10d %9d\n", c, lines[c], fns[c], preds[c], pols[c] | "sort"
      total += lines[c]; tf += fns[c]; tp += preds[c]; tq += pols[c]
    }
    close("sort")
    printf "%-12s %7d %7d %10d %9d\n", "total", total, tf, tp, tq
    printf "%-12s %7d\n", "knobs", knobs
  }'
