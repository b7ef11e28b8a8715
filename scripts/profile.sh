#!/usr/bin/env bash
# Where one benchmark workload's CPU time goes, by sampling:
#
#   scripts/profile.sh WORKLOAD [SECONDS]      (suite16 spec16 stream64 scale1024)
#
# Builds pipebench as benchmark/run.sh does, plus line tables
# (CARGO_PROFILE_RELEASE_DEBUG=1: same code, symbolisable), into a target
# directory of its own, runs the workload untraced under scripts/sigprof.c
# (LD_PRELOAD, SIGPROF on process CPU time) and prints the top 30 by
# function, by inlined chain and by source line. The timer ticks at the
# kernel's HZ (4 ms here), so the default 40 s gives ~10 k samples: 1 %
# resolution. A diagnostic: nothing it prints is a benchmark number, and
# it never goes through benchmark/run.sh. x86-64 Linux with cc and
# addr2line; anywhere else it says so and exits 0.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:?usage: scripts/profile.sh WORKLOAD [SECONDS]}"
seconds="${2:-40}"
for tool in cc addr2line; do
  command -v "$tool" > /dev/null && continue
  echo "profile.sh: unavailable here ($tool not found)"
  exit 0
done
if [ "$(uname -sm)" != "Linux x86_64" ]; then
  echo "profile.sh: unavailable here (x86-64 Linux only, this is $(uname -sm))"
  exit 0
fi

# Absolute: LD_PRELOAD needs a path that names the library from anywhere,
# and CARGO_TARGET_DIR may be relative or absolute.
dir="${CARGO_TARGET_DIR:-target}/profile"
mkdir -p "$dir"
dir="$(cd "$dir" && pwd)"
cc -O2 -shared -fPIC -o "$dir/sigprof.so" scripts/sigprof.c
CARGO_PROFILE_RELEASE_DEBUG=1 cargo build --release --offline --quiet \
  --manifest-path benchmark/Cargo.toml --target-dir "$dir"
exe="$dir/release/pipebench"

rm -f "$dir/samples.txt"
SIGPROF_OUT="$dir/samples.txt" LD_PRELOAD="$dir/sigprof.so" \
  "$exe" --workload "$workload" --seed 0 --seconds "$seconds" --trace 0 > "$dir/run.txt"
grep -E " (wall_s|passes|digest) " "$dir/run.txt"
[ -s "$dir/samples.txt" ] || {
  echo "profile.sh: no samples written ($dir/sigprof.so was not preloaded, or never ticked)"
  exit 1
}

# Runtime addresses -> file addresses: the executable is position
# independent, so subtract where its first segment was mapped. Samples
# outside it (libc, the vDSO) are counted and named by mapping.
awk -v exe="$(basename "$exe")" '
  function hex(s,    i, v) {
    for (i = 1; i <= length(s); i++) v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
    return v
  }
  /^maps$/ { maps = 1; next }
  !maps { pc[NR] = $1; n = NR; next }
  {
    split($1, range, "-")
    lo[++m] = hex(range[1]); hi[m] = hex(range[2])
    name[m] = $6 == "" ? "[anon]" : $6
    if (!base_set && $6 ~ exe "$") { base = lo[m]; base_set = 1 }
  }
  END {
    for (i = 1; i <= n; i++) {
      at = hex(pc[i]); where = "[unmapped]"
      for (j = 1; j <= m; j++) if (at >= lo[j] && at < hi[j]) { where = name[j]; break }
      if (where ~ exe "$") printf "0x%x\n", at - base
      else print where > "/dev/stderr"
    }
  }' "$dir/samples.txt" > "$dir/addrs.txt" 2> "$dir/outside.txt"

total="$(($(wc -l < "$dir/addrs.txt") + $(wc -l < "$dir/outside.txt")))"
echo "$total samples, $(wc -l < "$dir/outside.txt") outside $(basename "$exe"):"
sort "$dir/outside.txt" | uniq -c | sort -rn | head -5 | sed 's/^/  /'
[ -s "$dir/addrs.txt" ] || { echo "profile.sh: no samples inside the executable"; exit 1; }

# One addr2line call over the distinct addresses; -a marks where each
# address begins, -i lists the inlined frames innermost first.
sort "$dir/addrs.txt" | uniq -c > "$dir/counts.txt"
awk '{ print $2 }' "$dir/counts.txt" | addr2line -a -f -C -i -e "$exe" > "$dir/frames.txt"
awk -v total="$total" '
  function clean(f) {   # drop the ::h<16 hex digits> of legacy mangling
    if (match(f, /::h[0-9a-f]+$/) && RLENGTH == 19) f = substr(f, 1, RSTART - 1)
    return f
  }
  function flush() {
    if (!nf) return
    chain = fn[nf]
    for (k = nf - 1; k >= 1; k--) chain = chain " > " fn[k]
    own = 1   # the innermost frame in this repository, else the innermost
    for (k = nf; k >= 1; k--) if (ours[k]) own = k
    by_fn[fn[nf]] += hits; by_chain[chain] += hits; by_line[fn[own] " " line[own]] += hits
    nf = 0
  }
  function top(title, tab,    key, cmd) {
    print ""; print title
    cmd = "sort -rn | head -30"
    for (key in tab) printf "%6.2f%% %7d  %s\n", 100 * tab[key] / total, tab[key], key | cmd
    close(cmd)
  }
  NR == FNR { count[NR] = $1; next }   # hits of the nth distinct address
  /^0x/ { flush(); hits = count[++nth]; want = "fn"; next }
  want == "fn" { fn[++nf] = clean($0); want = "line"; next }
  {
    ours[nf] = /\/(crates|benchmark)\//
    sub(/ \(discriminator.*/, ""); sub(/^.*\/(crates|library|deps)\//, ""); line[nf] = $0; want = "fn"
  }
  END {
    flush()
    top("by function (the symbol the address is in, inlined callees included)", by_fn)
    top("by inlined chain (symbol > ... > innermost inlined function)", by_chain)
    top("by source line (innermost frame in this repository, else innermost)", by_line)
  }' "$dir/counts.txt" "$dir/frames.txt"
