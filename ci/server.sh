# Sourced by the CI steps that drive a live jigsaw-server over loopback.
#
# start_server LOG [SERVER_ARGS...]
#   Start ./target/release/jigsaw-server on an ephemeral loopback port with
#   SERVER_ARGS, stdout and stderr to LOG; wait for its `LISTENING <addr>`
#   line; set ADDR (the address to connect to) and SERVER_PID (to `kill`
#   when done). Fails, printing LOG, if the server never comes up.
start_server() {
  local log=$1
  shift
  ./target/release/jigsaw-server --addr 127.0.0.1:0 "$@" > "$log" 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    grep -q LISTENING "$log" && break
    sleep 0.2
  done
  ADDR=$(awk '/LISTENING/{print $2; exit}' "$log")
  test -n "$ADDR" || { echo "server never came up ($log)"; cat "$log"; return 1; }
}
