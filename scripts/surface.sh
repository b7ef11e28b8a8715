#!/usr/bin/env bash
# Surface report: per crate, the non-test lines of crates/<crate>/src
# (everything above each file's first `#[cfg(test)]`), the `pub fn`s among
# them, and the predictor / policy implementations; then `knobs`, the
# `pub` fields of `ProtocolConfig` and `SystemConfig` (every setting a
# machine is built from); then `unreached`, the `pub` items (fn, struct,
# enum, trait, type, const, static) whose name appears nowhere in the
# non-test code of crates/*/src or benchmark/src (comments and `pub use`
# re-exports aside) but in their own definition. Private items need no
# report: rustc's `dead_code` lint fails clippy -D warnings on them. The numbers a simplicity PR is
# judged on; printed by ci.sh as a report, not a gate.
#
# Usage: scripts/surface.sh [--unreached]   (the flag lists the unreached
# `pub` items, one `file:line name` a line, instead of the report)
set -euo pipefail
cd "$(dirname "$0")/.."

list=0
[[ "${1:-}" == "--unreached" ]] && list=1

{ find crates/*/src -name '*.rs'; find benchmark/src -name '*.rs'; } | sort | xargs awk -v list="$list" '
  FNR == 1 { live = 1; reexport = 0; split(FILENAME, path, "/"); crate = path[2]; ours = path[1] == "crates" }
  /#\[cfg\(test\)\]/ { live = 0 }
  !live { next }
  # A re-export (`pub use ...;`, one line or a `{...}` block) names an
  # item without using it.
  /^[ \t]*pub use / { reexport = 1 }
  !reexport {
    # Every identifier on the line, comments aside, counts as a use.
    code = $0
    sub(/\/\/.*/, "", code)
    gsub(/[^A-Za-z0-9_]+/, " ", code)
    n = split(code, words, " ")
    for (i = 1; i <= n; i++) uses[words[i]]++
  }
  reexport && /;/ { reexport = 0 }
  !ours { next }
  { lines[crate]++ }
  /pub fn / { fns[crate]++ }
  /pub (fn|struct|enum|trait|type|const|static) / {
    name = $0
    sub(/.*pub (fn|struct|enum|trait|type|const|static) /, "", name)
    sub(/[^A-Za-z0-9_].*/, "", name)
    defs[name]++
    where[name] = where[name] " " FILENAME ":" FNR
  }
  /^impl.* MessagePredictor for / { preds[crate]++ }
  /^impl.* SpeculationPolicy for / { pols[crate]++ }
  /^pub struct (ProtocolConfig|SystemConfig) \{/ { config = 1; next }
  config && /^}/ { config = 0 }
  config && /^    pub [a-z_0-9]+:/ { knobs++ }
  END {
    for (f in defs) if (uses[f] <= defs[f]) {
      unreached += defs[f]
      if (list) {
        n = split(where[f], at, " ")
        for (i = 1; i <= n; i++) print at[i], f | "sort"
      }
    }
    if (list) exit
    printf "%-12s %7s %7s %10s %9s\n", "crate", "lines", "pub fn", "predictors", "policies"
    for (c in lines) {
      printf "%-12s %7d %7d %10d %9d\n", c, lines[c], fns[c], preds[c], pols[c] | "sort"
      total += lines[c]; tf += fns[c]; tp += preds[c]; tq += pols[c]
    }
    close("sort")
    printf "%-12s %7d %7d %10d %9d\n", "total", total, tf, tp, tq
    printf "%-12s %7d\n", "knobs", knobs
    printf "%-12s %7d\n", "unreached", unreached
  }'
