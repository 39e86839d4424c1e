#!/usr/bin/env bash
# Service smoke test: start powermoved, wait for /healthz, compile one
# circuit over HTTP, and require the response to be byte-identical to
# the powermove CLI's -json output for the same request. Then repeat the
# request and verify via /metrics that it was served from the cache.
#
# Run from the repository root; CI calls it from the smoke job. Scratch
# files go to $RUNNER_TEMP when set (GitHub runners), mktemp otherwise.
set -euo pipefail

TMP="${RUNNER_TEMP:-$(mktemp -d)}"
ADDR=127.0.0.1:8077
ADDR2=127.0.0.1:8078
STORE="$TMP/store"

go build -o "$TMP/powermoved" ./cmd/powermoved
go build -o "$TMP/powermove" ./cmd/powermove
go build -o "$TMP/powermove-router" ./cmd/powermove-router

"$TMP/powermoved" -addr "$ADDR" -store-dir "$STORE" &
DAEMON=$!
DAEMON2=""
ROUTER=""
trap 'kill "$DAEMON" "$DAEMON2" "$ROUTER" 2>/dev/null || true' EXIT

wait_up() {
  local addr=$1
  for _ in $(seq 1 100); do
    if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "service_smoke: $addr/healthz never came up" >&2
  exit 1
}
wait_up "$ADDR"

REQ='{"workload":{"family":"QFT","qubits":18},"scheme":"with-storage","aods":1,"stable":true}'

curl -fsS -X POST "http://$ADDR/v1/compile" \
  -H 'Content-Type: application/json' -d "$REQ" > "$TMP/svc.json"
"$TMP/powermove" -bench QFT -n 18 -json -stable > "$TMP/cli.json"
cmp "$TMP/svc.json" "$TMP/cli.json"
echo "service_smoke: daemon and CLI documents are byte-identical"

# The compile response must carry the compiler's per-pass breakdown.
grep -q '"passes"' "$TMP/svc.json"
grep -q '"pass": "route"' "$TMP/svc.json"
grep -q '"pass": "emit"' "$TMP/svc.json"
echo "service_smoke: compile response carries the per-pass breakdown"

curl -fsS "http://$ADDR/metrics" > "$TMP/metrics1.json"

curl -fsS -X POST "http://$ADDR/v1/compile" \
  -H 'Content-Type: application/json' -d "$REQ" > "$TMP/svc2.json"
grep -q '"cached": true' "$TMP/svc2.json"

curl -fsS "http://$ADDR/metrics" > "$TMP/metrics.json"
grep -q '"hits": 1' "$TMP/metrics.json"
grep -q '"misses": 1' "$TMP/metrics.json"
grep -q '"compiles": 1' "$TMP/metrics.json"
echo "service_smoke: repeat request was a cache hit (1 hit / 1 miss / 1 compile)"

# A second, fresh evaluation point must advance the /metrics per-pass
# ledger; the cached repeat above must not have moved it. Verify the
# counters are monotone non-decreasing across the scrapes and strictly
# grow over a fresh compile.
REQ2='{"workload":{"family":"QFT","qubits":20},"scheme":"with-storage","aods":1,"stable":true}'
curl -fsS -X POST "http://$ADDR/v1/compile" \
  -H 'Content-Type: application/json' -d "$REQ2" > "$TMP/svc3.json"
grep -q '"cached": false' "$TMP/svc3.json"
curl -fsS "http://$ADDR/metrics" > "$TMP/metrics2.json"

python3 - "$TMP/metrics1.json" "$TMP/metrics.json" "$TMP/metrics2.json" <<'EOF'
import json, sys

scrapes = [json.load(open(p))["passes"] for p in sys.argv[1:]]
first, cached, grown = scrapes
if not first:
    sys.exit("per-pass ledger empty after the first compile")
for name, before in first.items():
    if cached[name] != before:
        sys.exit(f"cache hit moved the pass ledger for {name}: {before} -> {cached[name]}")
    now = grown[name]
    if now["calls"] <= before["calls"] or now["total_ms"] < before["total_ms"]:
        sys.exit(f"pass {name} did not advance over a fresh compile: {before} -> {now}")
    for k, v in before.get("counters", {}).items():
        if now["counters"][k] < v:
            sys.exit(f"pass {name} counter {k} regressed: {v} -> {now['counters'][k]}")
print("service_smoke: /metrics per-pass counters are monotone across requests")
EOF

# Differential verification end to end: ?verify=1 must return a clean
# verify block, the /metrics verify ledger must record the check, and
# the whole-suite verification sweep must pass.
curl -fsS -X POST "http://$ADDR/v1/compile?verify=1" \
  -H 'Content-Type: application/json' -d "$REQ" > "$TMP/svc-verify.json"
grep -q '"verify"' "$TMP/svc-verify.json"
grep -q '"violations": 0' "$TMP/svc-verify.json"
"$TMP/powermove" -bench QFT -n 18 -json -stable -verify > "$TMP/cli-verify.json"
cmp "$TMP/svc-verify.json" "$TMP/cli-verify.json"
curl -fsS "http://$ADDR/metrics" > "$TMP/metrics3.json"
python3 - "$TMP/metrics3.json" <<'PYEOF'
import json, sys
v = json.load(open(sys.argv[1]))["verify"]
if v["checks"] < 1 or v["clean"] != v["checks"] or v["violations"] != 0:
    sys.exit(f"verify ledger wrong: {v}")
print("service_smoke: /metrics verify ledger records a clean check")
PYEOF
echo "service_smoke: daemon verify mode is clean and byte-identical to the CLI"

if ! go run ./cmd/experiments -verify -progress=false > "$TMP/verify-sweep.txt"; then
  echo "service_smoke: verification sweep reported failures" >&2
  cat "$TMP/verify-sweep.txt" >&2
  exit 1
fi
echo "service_smoke: verification sweep passed (all families x all pipelines)"

# --- Async /v1/jobs round trip -------------------------------------
# Submit the warmed request as a job, poll to done, and require the
# result document byte-identical to the sync endpoint's warm response
# (warm vs warm: both are cache hits, both say "cached": true).
job_field() { python3 -c 'import json,sys; print(json.load(sys.stdin)[sys.argv[1]])' "$1"; }

JID=$(curl -fsS -X POST "http://$ADDR/v1/jobs" \
  -H 'Content-Type: application/json' -d "{\"compile\":$REQ}" | job_field id)
STATE=queued
for _ in $(seq 1 100); do
  STATE=$(curl -fsS "http://$ADDR/v1/jobs/$JID" | job_field state)
  case "$STATE" in
    done) break ;;
    failed|canceled) echo "service_smoke: job $JID ended $STATE" >&2; exit 1 ;;
  esac
  sleep 0.1
done
if [ "$STATE" != done ]; then
  echo "service_smoke: job $JID never finished (state $STATE)" >&2
  exit 1
fi
curl -fsS "http://$ADDR/v1/jobs/$JID/result" > "$TMP/async.json"
cmp "$TMP/async.json" "$TMP/svc2.json"
echo "service_smoke: async job result is byte-identical to the sync document"

# --- Queue backpressure --------------------------------------------
# A dedicated daemon with one worker and a one-slot queue: a slow batch
# job (16 distinct Enola compiles of QFT-60..75, a few hundred ms each
# on one worker) occupies the worker, a second job fills the queue, and
# the third submission must be shed with 429 + Retry-After + the stable
# queue_full error code.
"$TMP/powermoved" -addr "$ADDR2" -workers 1 -queue-depth 1 &
DAEMON2=$!
wait_up "$ADDR2"

SLOW=$(python3 -c '
import json
reqs = [{"workload": {"family": "QFT", "qubits": n}, "scheme": "enola",
         "stable": True} for n in range(60, 76)]
print(json.dumps({"batch": {"requests": reqs}}))')
RID=$(curl -fsS -X POST "http://$ADDR2/v1/jobs" \
  -H 'Content-Type: application/json' -d "$SLOW" | job_field id)
for _ in $(seq 1 100); do
  [ "$(curl -fsS "http://$ADDR2/v1/jobs/$RID" | job_field state)" = running ] && break
  sleep 0.1
done
curl -fsS -X POST "http://$ADDR2/v1/jobs" \
  -H 'Content-Type: application/json' \
  -d '{"compile":{"workload":{"family":"QFT","qubits":20},"stable":true}}' >/dev/null
CODE=$(curl -s -o "$TMP/shed.json" -D "$TMP/shed-headers.txt" -w '%{http_code}' \
  -X POST "http://$ADDR2/v1/jobs" -H 'Content-Type: application/json' \
  -d '{"compile":{"workload":{"family":"QFT","qubits":22},"stable":true}}')
if [ "$CODE" != 429 ]; then
  echo "service_smoke: submit beyond queue depth answered $CODE, want 429" >&2
  cat "$TMP/shed.json" >&2
  exit 1
fi
grep -qi '^retry-after:' "$TMP/shed-headers.txt"
grep -q '"queue_full"' "$TMP/shed.json"
curl -fsS "http://$ADDR2/metrics" > "$TMP/metrics-shed.json"
python3 - "$TMP/metrics-shed.json" <<'PYEOF'
import json, sys
j = json.load(open(sys.argv[1]))["jobs"]
if j["shed"] != 1 or j["depth"] != j["capacity"]:
    sys.exit(f"queue ledger wrong: {j}")
print("service_smoke: queue sheds at depth with 429 + Retry-After + queue_full")
PYEOF
kill "$DAEMON2" 2>/dev/null || true
DAEMON2=""

# --- Restart durability --------------------------------------------
# Restart the main daemon over the same -store-dir: the warmed request
# must come back as a cache hit served from disk — zero compiles, a
# store hit on /metrics, and the same bytes as before the restart.
kill "$DAEMON" 2>/dev/null || true
wait "$DAEMON" 2>/dev/null || true
"$TMP/powermoved" -addr "$ADDR" -store-dir "$STORE" &
DAEMON=$!
wait_up "$ADDR"

curl -fsS -X POST "http://$ADDR/v1/compile" \
  -H 'Content-Type: application/json' -d "$REQ" > "$TMP/svc-restart.json"
grep -q '"cached": true' "$TMP/svc-restart.json"
cmp "$TMP/svc-restart.json" "$TMP/svc2.json"
curl -fsS "http://$ADDR/metrics" > "$TMP/metrics-restart.json"
python3 - "$TMP/metrics-restart.json" <<'PYEOF'
import json, sys
m = json.load(open(sys.argv[1]))
if m["compiles"] != 0:
    sys.exit(f"restarted daemon compiled {m['compiles']} times, want 0")
if (m.get("store") or {}).get("hits", 0) < 1:
    sys.exit(f"restart served no store hit: {m.get('store')}")
print("service_smoke: restart over the same -store-dir serves the prior result from disk")
PYEOF

# --- Incremental compilation ---------------------------------------
# Two inline QASM programs sharing an 11-block prefix (only the last
# cz layer differs): the tail-edited resubmission must resume from the
# first compile's per-pass snapshots (incremental_prefix_hits rises,
# the saved-time ledger grows) while the response stays byte-identical
# to a cold CLI compile of the same mutated program.
python3 - "$TMP" <<'PYEOF'
import json, sys
tmp = sys.argv[1]
def layered(n, layers, shift):
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f'qreg q[{n}];']
    for l in range(layers):
        lines += [f'h q[{q}];' for q in range(n)]
        off = l % 2
        if shift and l == layers - 1:
            off = 1 - off
        lines += [f'cz q[{a}], q[{a+1}];' for a in range(off, n - 1, 2)]
    return '\n'.join(lines) + '\n'
for name, shift in (('incr-base', False), ('incr-mut', True)):
    src = layered(10, 12, shift)
    open(f'{tmp}/{name}.qasm', 'w').write(src)
    req = {"qasm": src, "scheme": "with-storage", "aods": 1, "stable": True}
    open(f'{tmp}/{name}-req.json', 'w').write(json.dumps(req))
PYEOF
curl -fsS -X POST "http://$ADDR/v1/compile" \
  -H 'Content-Type: application/json' -d @"$TMP/incr-base-req.json" > "$TMP/incr-base.json"
grep -q '"cached": false' "$TMP/incr-base.json"
curl -fsS "http://$ADDR/metrics" > "$TMP/metrics-incr-before.json"
curl -fsS -X POST "http://$ADDR/v1/compile" \
  -H 'Content-Type: application/json' -d @"$TMP/incr-mut-req.json" > "$TMP/incr-mut.json"
grep -q '"cached": false' "$TMP/incr-mut.json"
curl -fsS "http://$ADDR/metrics" > "$TMP/metrics-incr-after.json"
python3 - "$TMP/metrics-incr-before.json" "$TMP/metrics-incr-after.json" <<'PYEOF'
import json, sys
before, after = [json.load(open(p))["incremental"] for p in sys.argv[1:]]
if not after["enabled"]:
    sys.exit(f"incremental subsystem disabled on the default daemon: {after}")
if after["incremental_prefix_hits"] <= before["incremental_prefix_hits"]:
    sys.exit(f"tail edit produced no prefix hit: {before} -> {after}")
if after["saved_ms"] <= before["saved_ms"]:
    sys.exit(f"prefix hit did not grow the saved-time ledger: {before} -> {after}")
print("service_smoke: tail-edited resubmission resumed from the snapshot prefix")
PYEOF
"$TMP/powermove" -qasm "$TMP/incr-mut.qasm" -json -stable > "$TMP/incr-cold.json"
cmp "$TMP/incr-mut.json" "$TMP/incr-cold.json"
echo "service_smoke: incremental recompile is byte-identical to a cold CLI compile"

# --- Speculative precompilation ------------------------------------
# A -speculate daemon nominates the grouping/scheme variants of a
# fresh compile and precompiles them on idle workers; the later real
# request for a variant is a cache hit credited to speculative_hits.
"$TMP/powermoved" -addr "$ADDR2" -speculate &
DAEMON2=$!
wait_up "$ADDR2"
curl -fsS -X POST "http://$ADDR2/v1/compile" \
  -H 'Content-Type: application/json' -d "$REQ" > /dev/null
SPEC_READY=""
for _ in $(seq 1 150); do
  curl -fsS "http://$ADDR2/metrics" > "$TMP/metrics-spec.json"
  if python3 -c 'import json, sys
s = json.load(open(sys.argv[1]))["speculation"]
sys.exit(0 if s["queued"] == 0 and s["speculative_compiles"] >= 3 else 1)' "$TMP/metrics-spec.json"; then
    SPEC_READY=1
    break
  fi
  sleep 0.2
done
if [ -z "$SPEC_READY" ]; then
  echo "service_smoke: speculation never drained its variant queue" >&2
  cat "$TMP/metrics-spec.json" >&2
  exit 1
fi
VARREQ='{"workload":{"family":"QFT","qubits":18},"scheme":"with-storage","aods":1,"grouping":"distance","stable":true}'
curl -fsS -X POST "http://$ADDR2/v1/compile" \
  -H 'Content-Type: application/json' -d "$VARREQ" > "$TMP/spec-hit.json"
grep -q '"cached": true' "$TMP/spec-hit.json"
curl -fsS "http://$ADDR2/metrics" > "$TMP/metrics-spec2.json"
python3 - "$TMP/metrics-spec2.json" <<'PYEOF'
import json, sys
s = json.load(open(sys.argv[1]))["speculation"]
if s["speculative_hits"] != 1:
    sys.exit(f"speculative_hits = {s['speculative_hits']}, want 1: {s}")
if s["saved_ms"] <= 0:
    sys.exit(f"speculative hit did not grow the saved-time ledger: {s}")
print("service_smoke: speculated variant served from cache with the hit credited")
PYEOF
kill "$DAEMON2" 2>/dev/null || true
DAEMON2=""

# --- Fleet: consistent-hash routing + shared-store failover --------
# Two daemons with fleet identities share one -store-dir behind the
# router. A repeated compile must route to the same backend every time
# (cache hits rising on exactly one daemon); killing that backend must
# lose zero requests — the retry fails over to the replica, which
# serves the result from the shared disk store without recompiling.
kill "$DAEMON" 2>/dev/null || true
wait "$DAEMON" 2>/dev/null || true
RADDR=127.0.0.1:8079
"$TMP/powermoved" -addr "$ADDR" -backend-id b1 -store-dir "$STORE" &
DAEMON=$!
"$TMP/powermoved" -addr "$ADDR2" -backend-id b2 -store-dir "$STORE" &
DAEMON2=$!
wait_up "$ADDR"
wait_up "$ADDR2"
"$TMP/powermove-router" -addr "$RADDR" -health-interval 300ms \
  -backend "b1=http://$ADDR" -backend "b2=http://$ADDR2" &
ROUTER=$!
wait_up "$RADDR"

FREQ='{"workload":{"family":"QFT","qubits":19},"scheme":"with-storage","aods":1,"stable":true}'
OWNER=""
for i in $(seq 1 5); do
  curl -fsS -D "$TMP/fleet-headers.txt" -X POST "http://$RADDR/v1/compile" \
    -H 'Content-Type: application/json' -d "$FREQ" > "$TMP/fleet-$i.json"
  GOT=$(tr -d '\r' < "$TMP/fleet-headers.txt" | awk 'tolower($1)=="x-powermove-backend:"{print $2}')
  if [ -z "$OWNER" ]; then OWNER=$GOT; fi
  if [ "$GOT" != "$OWNER" ]; then
    echo "service_smoke: request $i routed to $GOT, earlier ones to $OWNER" >&2
    exit 1
  fi
done
grep -q '"cached": true' "$TMP/fleet-5.json"
curl -fsS "http://$RADDR/metrics" > "$TMP/fleet-metrics.json"
python3 - "$TMP/fleet-metrics.json" "$OWNER" <<'PYEOF'
import json, sys
m = json.load(open(sys.argv[1]))
owner = sys.argv[2]
pb = m["per_backend"]
blk = pb[owner]["backend"]
if blk is None or blk["cache_hits"] < 4:
    sys.exit(f"owner {owner} shows {blk and blk['cache_hits']} cache hits, want >= 4")
for name, row in pb.items():
    if name != owner and (row["backend"] or {}).get("compiles", 1) != 0:
        sys.exit(f"non-owner {name} compiled: {row['backend']}")
if m["keyed"] < 5 or m["failed"] != 0:
    sys.exit(f"router ledger wrong: keyed={m['keyed']} failed={m['failed']}")
print(f"service_smoke: 5/5 requests routed to {owner}; its cache alone served the repeats")
PYEOF

if [ "$OWNER" = b1 ]; then
  kill "$DAEMON" 2>/dev/null || true; wait "$DAEMON" 2>/dev/null || true; DAEMON=""
else
  kill "$DAEMON2" 2>/dev/null || true; wait "$DAEMON2" 2>/dev/null || true; DAEMON2=""
fi
curl -fsS -D "$TMP/fleet-failover-headers.txt" -X POST "http://$RADDR/v1/compile" \
  -H 'Content-Type: application/json' -d "$FREQ" > "$TMP/fleet-failover.json"
SURVIVOR=$(tr -d '\r' < "$TMP/fleet-failover-headers.txt" | awk 'tolower($1)=="x-powermove-backend:"{print $2}')
if [ "$SURVIVOR" = "$OWNER" ] || [ -z "$SURVIVOR" ]; then
  echo "service_smoke: failover request answered by $SURVIVOR, want the replica of $OWNER" >&2
  exit 1
fi
grep -q '"cached": true' "$TMP/fleet-failover.json"
curl -fsS "http://$RADDR/metrics" > "$TMP/fleet-metrics2.json"
python3 - "$TMP/fleet-metrics2.json" "$OWNER" <<'PYEOF'
import json, sys
m = json.load(open(sys.argv[1]))
owner = sys.argv[2]
if m["failed"] != 0:
    sys.exit(f"router lost requests: failed={m['failed']}")
# The dead primary surfaces either as a request-time failover or as an
# active-probe mark-down, whichever fired first.
if m["failovers"] < 1 and m["per_backend"][owner]["healthy"]:
    sys.exit(f"dead backend {owner} neither failed over nor marked down: {m}")
print("service_smoke: killed backend lost zero requests; replica served from the shared store")
PYEOF
kill "$ROUTER" 2>/dev/null || true
ROUTER=""

echo "service_smoke: PASS"
