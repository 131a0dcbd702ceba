# Twin-run determinism gates: pairs of `repro --quick --deterministic` runs
# (wall-clock columns redacted) that must print byte-identical markdown.
# Any divergent byte — a metric, a counter, a basis count — fails the run.
#
#   bash ci/twins.sh
#
# Outputs land in $OUT (default repro-out/): SLUG.md and SLUG.log per side,
# one slug per distinct side; a side two rows share runs once. One line
# per passing row goes to $GITHUB_STEP_SUMMARY (stdout when unset).
set -euo pipefail

OUT=${OUT:-repro-out}
# Appending to /dev/stdout would write at the end of a redirected log and be
# overwritten by the script's later output, so print instead.
passed() {
  if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then echo "$1" >> "$GITHUB_STEP_SUMMARY"; else echo "$1"; fi
}
REPRO=./target/release/repro
mkdir -p "$OUT"
cargo build --release --quiet -p jigsaw-bench --bin repro
declare -A RAN

# slug SIDE: the file stem for SIDE's outputs.
slug() {
  echo "$1" | tr -cs 'A-Za-z0-9' '-' | sed 's/^-*//; s/-*$//'
}

# side SIDE: run repro once for SIDE, a word list whose leading VAR=VALUE
# words are environment and whose rest are repro flags.
side() {
  local stem words env=() flags=()
  [ -n "${RAN[$1]:-}" ] && return 0
  RAN[$1]=1
  stem="$OUT/$(slug "$1")"
  read -ra words <<< "$1"
  for w in "${words[@]}"; do
    if [ ${#flags[@]} -eq 0 ] && [[ $w == [A-Z]*=* ]]; then env+=("$w"); else flags+=("$w"); fi
  done
  env "${env[@]}" "$REPRO" --quick --deterministic "${flags[@]}" > "$stem.md" 2> "$stem.log"
}

# twin NAME A B: run both sides in order, diff their tables, log one line.
twin() {
  side "$2"
  side "$3"
  diff -u "$OUT/$(slug "$2").md" "$OUT/$(slug "$3").md"
  passed "- $1: \`$2\` ≡ \`$3\` ✔"
}

twin "thread budgets" "--threads 1" "--threads 4"
# Tracing is observational: JIGSAW_TRACE=1 streams NDJSON spans to stderr
# and moves no byte of stdout.
twin "tracing" "--threads 1" "JIGSAW_TRACE=1 --threads 1"
grep -q '^{"span":"conn.request"' "$OUT/$(slug "JIGSAW_TRACE=1 --threads 1").log"
# Sketch pruning is a pure function of (config, seed).
twin "sketch budgets" "--sketch --threads 1" "--sketch --threads 4"
# Warm-started sweeps are bit-identical to cold ones: E9 saves its basis
# snapshots, then a second run loads the files the first wrote.
twin "snapshot warm start" "--exp e9 --save-basis $OUT/basis-snapshots" \
  "--exp e9 --load-basis $OUT/basis-snapshots"
