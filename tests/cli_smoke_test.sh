#!/usr/bin/env bash
# End-to-end smoke test for the gogreen CLI. Usage: cli_smoke_test.sh <binary>
set -euo pipefail

BIN="$1"
DIR="$(mktemp -d "${TMPDIR:-/tmp}/gogreen_cli_test.XXXXXX")"
trap 'rm -rf "$DIR"' EXIT

fail() { echo "FAIL: $1" >&2; exit 1; }

# generate
"$BIN" generate --kind quest -n 2000 -o "$DIR/data.dat" \
    --items 200 --patterns 30 --seed 7 | grep -q "generated 2000" \
    || fail "generate"

# stats
"$BIN" stats -i "$DIR/data.dat" | grep -q "transactions: 2000" \
    || fail "stats"

# mine (binary + text outputs)
"$BIN" mine -i "$DIR/data.dat" -s 0.05 -o "$DIR/p.bin" \
    | grep -q "patterns at support" || fail "mine"
"$BIN" mine -i "$DIR/data.dat" -s 0.05 -o "$DIR/p.txt" >/dev/null \
    || fail "mine txt"
[ -s "$DIR/p.bin" ] || fail "pattern file missing"
[ -s "$DIR/p.txt" ] || fail "pattern text missing"

# recycle at a relaxed threshold; both pattern formats must load
"$BIN" recycle -i "$DIR/data.dat" -p "$DIR/p.bin" -s 0.02 -o "$DIR/p2.bin" \
    | grep -q "recycled" || fail "recycle bin"
"$BIN" recycle -i "$DIR/data.dat" -p "$DIR/p.txt" -s 0.02 \
    | grep -q "recycled" || fail "recycle txt"

# recycled result must have at least as many patterns as the seed set
SEED_COUNT=$("$BIN" summary -p "$DIR/p.bin" | grep -oE '^all: *[0-9]+' | grep -oE '[0-9]+')
DEEP_COUNT=$("$BIN" summary -p "$DIR/p2.bin" | grep -oE '^all: *[0-9]+' | grep -oE '[0-9]+')
[ "$DEEP_COUNT" -ge "$SEED_COUNT" ] || fail "relaxation shrank the set"

# compress
"$BIN" compress -i "$DIR/data.dat" -p "$DIR/p.bin" -o "$DIR/data.cdb" \
    --strategy MLP | grep -q "compressed 2000 tuples" || fail "compress"
[ -s "$DIR/data.cdb" ] || fail "cdb missing"

# rules + summary variants
"$BIN" rules -i "$DIR/data.dat" -p "$DIR/p2.bin" -c 0.5 -k 5 \
    | grep -q "rules" || fail "rules"
"$BIN" summary -p "$DIR/p2.bin" --closed --maximal | grep -q "maximal:" \
    || fail "summary"

# observability: --metrics-json and --trace write valid-looking documents
"$BIN" recycle -i "$DIR/data.dat" -p "$DIR/p.bin" -s 0.02 \
    --metrics-json "$DIR/metrics.json" --trace "$DIR/trace.json" \
    >/dev/null 2>&1 || fail "recycle with metrics/trace"
grep -q '"mine.items_scanned"' "$DIR/metrics.json" || fail "metrics counter"
grep -q '"compress.groups_formed"' "$DIR/metrics.json" || fail "metrics compress"
grep -q '"spans"' "$DIR/metrics.json" || fail "metrics spans"
grep -q '"traceEvents"' "$DIR/trace.json" || fail "trace events"

# error handling: each failure class has its sysexits-style exit code
# (0 ok, 64 usage, 65 malformed data, 74 IO error, 75 partial result)
expect_exit() {
  local want="$1"; shift
  local got=0
  "$@" >/dev/null 2>&1 || got=$?
  [ "$got" -eq "$want" ] || fail "expected exit $want, got $got: $*"
}

expect_exit 64 "$BIN"                                   # no subcommand
expect_exit 64 "$BIN" bogus-subcommand
expect_exit 64 "$BIN" mine -s 0.1                       # missing -i
expect_exit 64 "$BIN" mine -i "$DIR/data.dat" -s not_a_number
expect_exit 74 "$BIN" mine -i /nonexistent.dat -s 0.1   # unreadable file
printf '1 banana 3\n' > "$DIR/malformed.dat"
expect_exit 65 "$BIN" mine -i "$DIR/malformed.dat" -s 2 # malformed content
printf '1 99999999999\n' > "$DIR/overflow.dat"
expect_exit 65 "$BIN" stats -i "$DIR/overflow.dat"      # item id overflow

# run governor: an expired deadline yields a partial result (exit 75) that
# names the frontier support and flushes the run.partial metric
GOV_OUT="$DIR/governed.out"
set +e
"$BIN" mine -i "$DIR/data.dat" -s 2 --timeout-ms 0 \
    --metrics-json "$DIR/governed.json" > "$GOV_OUT" 2>/dev/null
GOV_RC=$?
set -e
[ "$GOV_RC" -eq 75 ] || fail "governed mine: expected exit 75, got $GOV_RC"
grep -q "partial result:" "$GOV_OUT" || fail "governed mine: no partial line"
grep -q "frontier support" "$GOV_OUT" || fail "governed mine: no frontier"
grep -q '"run.partial":1' "$DIR/governed.json" \
    || fail "governed mine: run.partial metric missing"

# a generous governor must not change the result or the exit code
"$BIN" mine -i "$DIR/data.dat" -s 0.05 --timeout-ms 60000 --mem-limit-mb 4096 \
    | grep -q "patterns at support" || fail "generous governor"

# malformed numerics are a clean InvalidArgument message, not a crash
if "$BIN" mine -i "$DIR/data.dat" -s not_a_number >/dev/null 2>"$DIR/err"; then
  fail "malformed -s accepted"
fi
grep -q "InvalidArgument" "$DIR/err" || fail "malformed -s: wrong error"

# a negative number is parsed as a value (then rejected), not as a switch
if "$BIN" mine -i "$DIR/data.dat" -s -0.5 >/dev/null 2>"$DIR/err"; then
  fail "negative -s accepted"
fi
grep -q "positive support" "$DIR/err" || fail "negative -s: wrong error"

# a support that is not finite or not below 2^64 is a usage error that
# names the value, not a cast of an out-of-range double
for bad in nan:nan inf:inf 1e300:1e+300; do  # <flag value>:<as printed>
  expect_exit 64 "$BIN" mine -i "$DIR/data.dat" -s "${bad%%:*}"
  "$BIN" mine -i "$DIR/data.dat" -s "${bad%%:*}" >/dev/null 2>"$DIR/err" || true
  grep -qF "got ${bad#*:}" "$DIR/err" || fail "-s $bad: error does not name it"
done

# session mode: a scripted relax-support sweep must take every route through
# the pattern store — scratch, recycle, exact hit, filter-down — and say so
cat > "$DIR/session.txt" <<'EOF'
# relax-support sweep over one database
mine 0.05
mine 0.02
mine 0.05
mine 0.03
stats
store
EOF
SESS_OUT="$DIR/session.out"
"$BIN" session -i "$DIR/data.dat" --script "$DIR/session.txt" \
    --store-dir "$DIR/store" --metrics-json "$DIR/session.json" \
    > "$SESS_OUT" || fail "session script"
grep -q "route=none" "$SESS_OUT" || fail "session: no scratch route"
grep -q "route=recycle" "$SESS_OUT" || fail "session: no recycle route"
grep -q "route=exact" "$SESS_OUT" || fail "session: no exact hit"
grep -q "route=filter-down" "$SESS_OUT" || fail "session: no filter-down"
grep -q "store: entries=" "$SESS_OUT" || fail "session: no store line"
grep -q "session: 6 commands, 4 mines" "$SESS_OUT" || fail "session summary"
grep -q '"serve.cache_hits":1' "$DIR/session.json" \
    || fail "session: serve.cache_hits metric"
grep -q '"serve.recycled":1' "$DIR/session.json" \
    || fail "session: serve.recycled metric"
ls "$DIR/store"/*.gpat >/dev/null 2>&1 || fail "session: store not persisted"

# a second session over the persisted store answers from cache immediately
printf 'mine 0.05\nmine 0.02\n' | "$BIN" session -i "$DIR/data.dat" \
    --store-dir "$DIR/store" > "$SESS_OUT" || fail "session reload"
grep -q "store: loaded" "$SESS_OUT" || fail "session: no store load line"
ROUTES=$(grep -c "route=exact" "$SESS_OUT") || true
[ "$ROUTES" -eq 2 ] || fail "session reload: expected 2 exact hits, got $ROUTES"

# batch scripts are strict: an unknown command aborts with a usage error
printf 'mine 0.05\nfrobnicate\n' > "$DIR/bad_session.txt"
expect_exit 64 "$BIN" session -i "$DIR/data.dat" --script "$DIR/bad_session.txt"
expect_exit 64 "$BIN" session -i "$DIR/data.dat" --store-mb 0  # bad budget
printf 'mine nan\n' > "$DIR/nan_session.txt"
expect_exit 64 "$BIN" session -i "$DIR/data.dat" --script "$DIR/nan_session.txt"
expect_exit 74 "$BIN" session -i /nonexistent.dat --script "$DIR/session.txt"

# daemon mode: serve on a unix socket, drive it with the client, then
# shut down gracefully (SIGTERM drains and persists the store)
SOCK="$DIR/gg.sock"
SERVE_OUT="$DIR/serve.out"
"$BIN" serve -i "$DIR/data.dat" --socket "$SOCK" --store-dir "$DIR/dstore" \
    > "$SERVE_OUT" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || fail "serve: socket never appeared"

"$BIN" client --socket "$SOCK" --ping | grep -q "pong" || fail "client ping"
"$BIN" client --socket "$SOCK" --mine 0.05 | grep -q "route=none" \
    || fail "client scratch mine"
"$BIN" client --socket "$SOCK" --mine 0.05 | grep -q "route=exact" \
    || fail "client exact hit"
expect_exit 64 "$BIN" client --socket "$SOCK" --mine 1e300
"$BIN" client --socket "$SOCK" --mine 1e300 >/dev/null 2>"$DIR/err" || true
grep -qF "got 1e+300" "$DIR/err" || fail "client --mine 1e300: value not named"

# the client script mode is the same command language as `session`,
# including the sticky tenant; save/load stay local-only over the wire
printf 'mine 0.02\nstats\nstore\n' > "$DIR/client.txt"
CLIENT_OUT="$DIR/client.out"
"$BIN" client --socket "$SOCK" --tenant acme --script "$DIR/client.txt" \
    > "$CLIENT_OUT" || fail "client script"
grep -q "route=recycle" "$CLIENT_OUT" || fail "client: no recycle route"
grep -q "tenant=acme" "$CLIENT_OUT" || fail "client: tenant not sticky"
grep -q "store: entries=" "$CLIENT_OUT" || fail "client: no store line"
grep -q "client: 3 commands, 1 mines" "$CLIENT_OUT" || fail "client summary"
printf 'save /tmp/nope\n' > "$DIR/client_save.txt"
expect_exit 64 "$BIN" client --socket "$SOCK" --script "$DIR/client_save.txt"

# process metrics over the wire: the daemon's serve.* counters are visible
"$BIN" client --socket "$SOCK" --stats | grep -q "gogreen_serve_requests" \
    || fail "client stats"

kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || fail "serve: nonzero exit on SIGTERM"
grep -q "serving" "$SERVE_OUT" || fail "serve: no serving line"
grep -q "drained and stopped" "$SERVE_OUT" || fail "serve: no drain line"
grep -q "store: saved" "$SERVE_OUT" || fail "serve: store not persisted"
ls "$DIR/dstore"/*.gpat >/dev/null 2>&1 || fail "serve: no pattern files"
if [ -S "$SOCK" ]; then fail "serve: socket not unlinked"; fi

# a dead socket is a clean IO error, not a hang or a crash
expect_exit 74 "$BIN" client --socket "$SOCK" --ping

# SIGTERM right after start-up still drains cleanly: the handlers are in
# place before the socket accepts anything. First right after the first
# answered ping, then (a tighter race) as soon as the socket file exists.
SOCK2="$DIR/gg2.sock"
expect_early_sigterm_drains() {
  local pid="$1"
  kill -TERM "$pid"
  wait "$pid" || fail "serve: nonzero exit on SIGTERM right after start"
  grep -q "drained and stopped" "$SERVE_OUT" \
      || fail "serve: no drain line after early SIGTERM"
}
"$BIN" serve -i "$DIR/data.dat" --socket "$SOCK2" > "$SERVE_OUT" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  "$BIN" client --socket "$SOCK2" --ping 2>/dev/null | grep -q "pong" && break
  sleep 0.05
done
expect_early_sigterm_drains "$SERVE_PID"
for _ in $(seq 1 10); do
  "$BIN" serve -i "$DIR/data.dat" --socket "$SOCK2" > "$SERVE_OUT" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 1 200000); do [ -S "$SOCK2" ] && break; done
  [ -S "$SOCK2" ] || fail "serve: socket never appeared"
  expect_early_sigterm_drains "$SERVE_PID"
done

echo "cli smoke test passed"
