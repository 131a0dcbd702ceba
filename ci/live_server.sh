# The live-server gates: the release jigsaw-server and jigsaw-client
# binaries over loopback sockets, in separate processes. Builds on
# ci/server.sh's start_server.
#
#   bash ci/live_server.sh
#
# 1. Golden replay: each golden client script against a *fresh* default
#    server (the SUBSCRIBE golden's cold stream depends on an unswept
#    store), its transcript byte-diffed against the golden file the
#    in-process tests/server_transcript.rs pins (JIGSAW_BLESS=1 re-blesses).
#    Any drift in the wire format, the server defaults, or the client's
#    rendering fails the run.
# 2. Soak: one default server, one warm-up client paying the Monte Carlo
#    ramp, then 100 concurrent scripted clients replaying the soak script at
#    once. jigsaw-client --soak byte-compares every transcript against
#    client 0's; the diff pins that shared transcript to the golden the
#    in-process tests/server_soak.rs blesses.
# 3. METRICS scrape: a traced server (JIGSAW_TRACE=1) serves a compile +
#    twin sweep + estimate, then a mid-run METRICS scrape over the wire. The
#    Prometheus body must be well-formed (every line a `# TYPE` comment or
#    `name{labels} <integer>`), every per-verb request counter must equal
#    its latency histogram's _count (they are bumped together at one site,
#    when the response is ready), the twin sweep must show warm hits that
#    never exceed swept points, the connection layer must count the
#    scraping connection (accepted, and live while its own METRICS
#    executes), every frame read must be counted once as a wait, and the
#    store registry must report its one compiled scenario's store and a
#    nonzero count of basis sample bytes.
#
# Outputs land in $OUT (default repro-out/). One line per passing gate goes
# to $GITHUB_STEP_SUMMARY (stdout when unset).
set -euo pipefail

OUT=${OUT:-repro-out}
# Appending to /dev/stdout would write at the end of a redirected log and be
# overwritten by the script's later output, so print instead.
passed() {
  if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then echo "$1" >> "$GITHUB_STEP_SUMMARY"; else echo "$1"; fi
}
cargo build --release --quiet -p jigsaw-server -p jigsaw-bench
mkdir -p "$OUT/server-snapshots"
. ci/server.sh
# A gate that fails mid-way leaves no server behind.
SERVER_PID=
trap '[ -z "$SERVER_PID" ] || kill "$SERVER_PID" 2> /dev/null || true' EXIT

# 1. Golden replay.
for SCRIPT in server_session server_subscribe; do
  start_server "$OUT/server-$SCRIPT.log" --snapshot-dir "$OUT/server-snapshots"
  ./target/release/jigsaw-client --addr "$ADDR" --script "tests/golden/$SCRIPT.script" \
    > "$OUT/transcript-$SCRIPT.txt"
  kill "$SERVER_PID"
  SERVER_PID=
  diff -u "tests/golden/$SCRIPT.txt" "$OUT/transcript-$SCRIPT.txt"
done
ls -l "$OUT/server-snapshots/"
passed "Scripted session + SUBSCRIBE transcripts byte-identical to golden ✔"

# 2. Soak.
start_server "$OUT/soak-server.log"
./target/release/jigsaw-client --addr "$ADDR" --script tests/golden/server_soak_warm.script \
  > /dev/null
./target/release/jigsaw-client --addr "$ADDR" --script tests/golden/server_soak.script --soak 100 \
  > "$OUT/soak-transcript.txt"
kill "$SERVER_PID"
SERVER_PID=
diff -u tests/golden/server_soak.txt "$OUT/soak-transcript.txt"
passed "100 concurrent soak clients byte-identical to the single-client golden ✔"

# 3. METRICS scrape.
cat > "$OUT/metrics.script" <<'SCRIPT'
COMPILE DECLARE PARAMETER @week AS RANGE 0 TO 19 STEP BY 1; SELECT Demand(@week, 5) AS demand INTO results;
SWEEP
SWEEP
ESTIMATE 3 0
METRICS
QUIT
SCRIPT
JIGSAW_TRACE=1 start_server "$OUT/metrics-server.log"
./target/release/jigsaw-client --addr "$ADDR" --script "$OUT/metrics.script" \
  > "$OUT/metrics-transcript.txt"
kill "$SERVER_PID"
SERVER_PID=
awk '/^> QUIT/{exit} body && !/^$/{print} /^< METRICS$/{body=1}' \
  "$OUT/metrics-transcript.txt" > "$OUT/metrics.txt"
test -s "$OUT/metrics.txt" || { echo "empty METRICS body"; cat "$OUT/metrics-transcript.txt"; exit 1; }
awk '
  /^# TYPE / { next }
  !/^jigsaw_[a-z0-9_]+(\{[^}]*\})? -?[0-9]+$/ { print "bad exposition line: " $0; bad=1 }
  /^jigsaw_requests_total\{verb=/    { v=$1; sub(/^[^"]*"/,"",v); sub(/".*/,"",v); req[v]=$2 }
  /^jigsaw_request_us_count\{verb=/  { v=$1; sub(/^[^"]*"/,"",v); sub(/".*/,"",v); cnt[v]=$2 }
  /^jigsaw_sweep_points_total /      { pts=$2 }
  /^jigsaw_sweep_warm_hits_total /   { warm=$2 }
  /^jigsaw_accepts_total /           { accepts=$2 }
  /^jigsaw_conns_live /              { live=$2 }
  /^jigsaw_requests_malformed_total / { malformed=$2 }
  /^jigsaw_registry_stores /         { stores=$2 }
  /^jigsaw_registry_bytes /          { rbytes=$2 }
  /^jigsaw_conn_waits_total\{/ {
    if ($1 == "jigsaw_conn_waits_total{how=\"spun\"}") spun=$2
    else if ($1 == "jigsaw_conn_waits_total{how=\"parked\"}") parked=$2
    else { print "unexpected wait series: " $0; bad=1 }
  }
  END {
    n = 0
    reqs = 0
    for (v in req) {
      n++
      reqs += req[v]
      if (!(v in cnt)) { print "no latency histogram for " v; bad=1 }
      else if (req[v] != cnt[v]) { print "count mismatch for " v ": " req[v] " vs " cnt[v]; bad=1 }
    }
    if (n < 4)               { print "expected >=4 verbs, saw " n; bad=1 }
    if (pts == "" || warm == "") { print "sweep counters missing"; bad=1 }
    else if (warm + 0 <= 0)      { print "twin sweep reported no warm hits"; bad=1 }
    else if (warm + 0 > pts + 0) { print "warm hits exceed swept points"; bad=1 }
    if (accepts + 0 < 1)         { print "expected >=1 accepted connection, saw " accepts; bad=1 }
    # One COMPILE registers one store; its two sweeps committed bases.
    if (stores == "" || rbytes == "") { print "registry gauges missing"; bad=1 }
    else if (stores + 0 != 1)    { print "expected 1 registered store, saw " stores; bad=1 }
    else if (rbytes + 0 <= 0)    { print "registry holds no basis sample bytes"; bad=1 }
    if (live + 0 < 1)            { print "expected >=1 live connection, saw " live; bad=1 }
    # Every frame read is counted once as a wait and once as a
    # request or a malformed frame; the frame of this scrape is
    # read but its request not yet counted.
    if (spun == "" || parked == "") { print "wait counters missing"; bad=1 }
    else if (spun + parked != reqs + malformed + 1) {
      print "waits " spun " spun + " parked " parked != " reqs " requests + " (malformed + 0) " malformed + 1"; bad=1
    }
    exit bad
  }' "$OUT/metrics.txt"
grep -q '^{"span":"conn.request"' "$OUT/metrics-server.log"
passed "Mid-run METRICS scrape well-formed, per-verb, frame-wait and registry counts consistent ✔"
