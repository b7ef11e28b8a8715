#!/usr/bin/env bash
# EXPERIMENTS.md's measured numbers are `repro`'s own stdout. Each
# generated block is
#
#   <!-- repro ARGS -->
#   ```text
#   <the exact stdout of `repro ARGS`>
#   ```
#   <!-- /repro -->
#
# and nothing outside the blocks quotes a measured number.
#
#   scripts/experiments.sh --check   rerun every block's command, diff it
#                                    against the block; exit 1 on a change
#   scripts/experiments.sh --write   rewrite every block in place
#
# `repro` is built in release once; its stdout depends only on its
# arguments (host time goes to stderr), so a block that stops matching is
# a changed result, not noise.
set -euo pipefail
set -f # a block's ARGS are split on spaces, never globbed
cd "$(dirname "$0")/.."

case "${1:-}" in
  --check | --write) MODE="$1" ;;
  *)
    echo "usage: scripts/experiments.sh --check | --write" >&2
    exit 2
    ;;
esac

DOC=EXPERIMENTS.md
cargo build -q --release --offline -p bench-suite --bin repro
REPRO="${CARGO_TARGET_DIR:-target}/release/repro"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Copy the document, replacing each block's body with a fresh run.
open=""
blocks=0
while IFS= read -r line || [ -n "$line" ]; do
  if [ -n "$open" ]; then
    [ "$line" = "<!-- /repro -->" ] || continue
    printf '%s\n' "$line"
    open=""
    continue
  fi
  printf '%s\n' "$line"
  case "$line" in
    "<!-- repro "*" -->")
      args="${line#<!-- repro }"
      args="${args% -->}"
      # shellcheck disable=SC2086 # ARGS are words by design
      "$REPRO" $args > "$WORK/out" 2> "$WORK/err" || {
        echo "experiments.sh: \`repro $args\` failed:" >&2
        cat "$WORK/err" >&2
        exit 1
      }
      printf '```text\n'
      cat "$WORK/out"
      printf '```\n'
      open="$args"
      blocks=$((blocks + 1))
      ;;
  esac
done < "$DOC" > "$WORK/doc"
if [ -n "$open" ]; then
  echo "experiments.sh: block \`repro $open\` has no <!-- /repro --> line" >&2
  exit 1
fi

if [ "$MODE" = --write ]; then
  cp "$WORK/doc" "$DOC"
  echo "$DOC: $blocks generated blocks written"
elif diff -u "$DOC" "$WORK/doc"; then
  echo "    $DOC: $blocks generated blocks match repro"
else
  echo "experiments.sh: $DOC differs from repro's stdout (scripts/experiments.sh --write regenerates it)" >&2
  exit 1
fi
