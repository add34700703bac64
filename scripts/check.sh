#!/usr/bin/env bash
# Pre-PR gate: vet, build, and race-test the whole module.
# Run from anywhere; operates on the repo that contains this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt -l =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet ./... =="
go vet ./...

echo "== go build ./... =="
go build ./...

echo "== go test -race ./... =="
go test -race ./...

echo "== chaos soak: go test -run Chaos -race -count=2 =="
go test -run Chaos -race -count=2 ./internal/gpusim/... ./internal/fleet/...

echo "== short fuzz: sliced kernels, pattern predicates and wire layout vs scalar reference =="
go test -run '^$' -fuzz FuzzSlicedVsScalarBatch -fuzztime 10s ./internal/core/
go test -run '^$' -fuzz FuzzSynBitRowsVsSyndromes -fuzztime 10s ./internal/rscode/
go test -run '^$' -fuzz FuzzOnDieDecodeVsRef -fuzztime 10s ./internal/ondie/
go test -run '^$' -fuzz FuzzPatternPredicates -fuzztime 10s ./internal/bitvec/
go test -run '^$' -fuzz FuzzWireLayout -fuzztime 10s ./internal/bitvec/
go test -run '^$' -fuzz FuzzEncodeExtractVsRef -fuzztime 10s ./internal/core/

echo "== short fuzz: campaign checkpoint loader =="
go test -run '^$' -fuzz FuzzCheckpointOpen -fuzztime 10s ./internal/campaign/

echo "== bench smoke: one iteration of every benchmark =="
HBM2ECC_MC_SAMPLES=2000 HBM2ECC_CAMPAIGN_RUNS=20 \
	go test -run '^$' -bench . -benchtime 1x ./...

echo "== bench smoke: cmd/bench -quick -gate (sliced >= scalar clean-path) =="
bench_out="${TMPDIR:-/tmp}/hbm2ecc_bench_smoke.json"
go run ./cmd/bench -quick -gate -out "$bench_out" >/dev/null
test -s "$bench_out"
rm -f "$bench_out"

echo "== cluster smoke: campaignd with two embedded workers =="
go run ./cmd/campaignd -listen 127.0.0.1:0 -workers 2 -samples 2000 >/dev/null

echo "== serve smoke: decoded + loadgen =="
serve_dir="$(mktemp -d "${TMPDIR:-/tmp}/hbm2ecc_serve_smoke.XXXXXX")"
go build -o "$serve_dir/decoded" ./cmd/decoded
"$serve_dir/decoded" -addr 127.0.0.1:0 -schemes DuetECC >"$serve_dir/decoded.log" 2>&1 &
decoded_pid=$!
trap 'kill "$decoded_pid" 2>/dev/null || true; rm -rf "$serve_dir"' EXIT
serve_url=""
for _ in $(seq 1 100); do
	serve_url="$(sed -n 's#.* on \(http://[0-9.:]*\) .*#\1#p' "$serve_dir/decoded.log" | head -n 1)"
	[ -n "$serve_url" ] && break
	sleep 0.1
done
test -n "$serve_url" || { cat "$serve_dir/decoded.log"; exit 1; }
# loadgen exits nonzero on any codec violation or if completions fall
# short, so this one line is the whole assertion.
go run ./cmd/loadgen -url "$serve_url" -duration 2s -conns 4 -wait 5s -min-completions 1000
kill -INT "$decoded_pid"
wait "$decoded_pid"

echo "== bench smoke: cmd/bench -serve -quick =="
go run ./cmd/bench -serve -quick -out "$serve_dir/bench_serve.json" >/dev/null
test -s "$serve_dir/bench_serve.json"

echo "== fleet smoke: fleetd + simulated agents =="
go build -o "$serve_dir/fleetd" ./cmd/fleetd
"$serve_dir/fleetd" -addr 127.0.0.1:0 -nodes 50 -hours 48 -accel 50000 \
	>"$serve_dir/fleetd.log" 2>&1 &
fleetd_pid=$!
trap 'kill "$decoded_pid" "$fleetd_pid" 2>/dev/null || true; rm -rf "$serve_dir"' EXIT
fleet_url=""
for _ in $(seq 1 100); do
	fleet_url="$(sed -n 's#.* on \(http://[0-9.:]*\) .*#\1#p' "$serve_dir/fleetd.log" | head -n 1)"
	[ -n "$fleet_url" ] && break
	sleep 0.1
done
test -n "$fleet_url" || { cat "$serve_dir/fleetd.log"; exit 1; }
# The simulated agents report in; wait until the coordinator ranks at
# least one node, then check the metric families are exported.
ranked=""
for _ in $(seq 1 100); do
	ranked="$(curl -sf "$fleet_url/v1/fleet?top=1" | grep -o '"id":"node-[0-9]*"' | head -n 1)"
	[ -n "$ranked" ] && break
	sleep 0.1
done
test -n "$ranked" || { echo "no ranked node"; cat "$serve_dir/fleetd.log"; exit 1; }
fleet_metrics="$(curl -sf "$fleet_url/metrics")"
for fam in fleet_nodes fleet_reports_total fleetd_build_info fleetd_uptime_seconds; do
	echo "$fleet_metrics" | grep -q "$fam" || { echo "/metrics missing $fam"; exit 1; }
done
curl -sf "$fleet_url/healthz" | grep -q '"status":"ok"'
kill -INT "$fleetd_pid"
wait "$fleetd_pid"

echo "== probe smoke: fleetd -nodes 0 -probes 2 =="
"$serve_dir/fleetd" -addr 127.0.0.1:0 -nodes 0 -probes 2 >"$serve_dir/fleetd_probe.log" 2>&1 &
probe_pid=$!
trap 'kill "$decoded_pid" "$fleetd_pid" "$probe_pid" 2>/dev/null || true; rm -rf "$serve_dir"' EXIT
probe_url=""
for _ in $(seq 1 100); do
	probe_url="$(sed -n 's#.* on \(http://[0-9.:]*\) .*#\1#p' "$serve_dir/fleetd_probe.log" | head -n 1)"
	[ -n "$probe_url" ] && break
	sleep 0.1
done
test -n "$probe_url" || { cat "$serve_dir/fleetd_probe.log"; exit 1; }
# Each probe reports after its first microbenchmark check; both must
# appear as fleet nodes, and the check phase must show under /spans.
probe_fleet=""
for _ in $(seq 1 100); do
	probe_fleet="$(curl -sf "$probe_url/v1/fleet?top=2" || true)"
	echo "$probe_fleet" | grep -q '"id":"probe-0"' && echo "$probe_fleet" | grep -q '"id":"probe-1"' && break
	sleep 0.1
done
for id in probe-0 probe-1; do
	echo "$probe_fleet" | grep -q "\"id\":\"$id\"" || { echo "$id never reported: $probe_fleet"; cat "$serve_dir/fleetd_probe.log"; exit 1; }
done
curl -sf "$probe_url/spans" | grep -q 'fleet.probe.check' || { echo "/spans missing the probe check phase"; exit 1; }
kill -INT "$probe_pid"
wait "$probe_pid"

echo "== fleet durability smoke: kill -9, recover from state dir =="
state_dir="$serve_dir/fleet_state"
mkdir -p "$state_dir"
"$serve_dir/fleetd" -addr 127.0.0.1:0 -nodes 50 -hours 48 -accel 50000 \
	-state-dir "$state_dir" >"$serve_dir/fleetd_wal.log" 2>&1 &
wal_pid=$!
trap 'kill "$decoded_pid" "$fleetd_pid" "$probe_pid" "$wal_pid" 2>/dev/null || true; rm -rf "$serve_dir"' EXIT
wal_url=""
for _ in $(seq 1 100); do
	wal_url="$(sed -n 's#.* on \(http://[0-9.:]*\) .*#\1#p' "$serve_dir/fleetd_wal.log" | head -n 1)"
	[ -n "$wal_url" ] && break
	sleep 0.1
done
test -n "$wal_url" || { cat "$serve_dir/fleetd_wal.log"; exit 1; }
# Wait until every simulated node has reported in, then SIGKILL the
# coordinator — no snapshot, no clean close; the WAL is all it gets.
total=""
for _ in $(seq 1 100); do
	total="$(curl -sf "$wal_url/v1/fleet?top=1" | grep -o '"total":[0-9]*' | cut -d: -f2)"
	[ "$total" = "50" ] && break
	sleep 0.1
done
test "$total" = "50" || { echo "fleet never reached 50 nodes"; cat "$serve_dir/fleetd_wal.log"; exit 1; }
kill -9 "$wal_pid"
wait "$wal_pid" 2>/dev/null || true
# Recover: an empty fleetd (-nodes 0) over the same state dir must
# replay the WAL and serve the full pre-kill fleet picture.
"$serve_dir/fleetd" -addr 127.0.0.1:0 -nodes 0 \
	-state-dir "$state_dir" >"$serve_dir/fleetd_rec.log" 2>&1 &
wal_pid=$!
rec_url=""
for _ in $(seq 1 100); do
	rec_url="$(sed -n 's#.* on \(http://[0-9.:]*\) .*#\1#p' "$serve_dir/fleetd_rec.log" | head -n 1)"
	[ -n "$rec_url" ] && break
	sleep 0.1
done
test -n "$rec_url" || { cat "$serve_dir/fleetd_rec.log"; exit 1; }
grep -q 'durable state in' "$serve_dir/fleetd_rec.log" || { echo "no recovery log line"; cat "$serve_dir/fleetd_rec.log"; exit 1; }
rec_fleet="$(curl -sf "$rec_url/v1/fleet?top=1")"
echo "$rec_fleet" | grep -q '"total":50' || { echo "recovered fleet lost nodes: $rec_fleet"; cat "$serve_dir/fleetd_rec.log"; exit 1; }
echo "$rec_fleet" | grep -q '"id":"node-' || { echo "recovered fleet has no ranked node: $rec_fleet"; exit 1; }
kill -INT "$wal_pid"
wait "$wal_pid"

echo "== bench smoke: cmd/bench -fleet -quick =="
go run ./cmd/bench -fleet -quick -out "$serve_dir/bench_fleet.json" >/dev/null
test -s "$serve_dir/bench_fleet.json"

echo "== workload smoke: all five outcome classes reachable =="
# Every campaign run carries exactly one forced fault event; a small
# grid over {none, DuetECC} x {gemm, dnn} must reach masked,
# tolerable-SDC, critical-SDC, DUE and crash.
go test -run TestOutcomeClassesReachable -count=1 ./internal/workload/
wl_out="$serve_dir/ecceval_workload.txt"
go run ./cmd/ecceval -workload -workload-runs 40 -workload-schemes none,DuetECC >"$wl_out"
for col in masked "tolerable SDC" "critical SDC" DUE crash "End-to-end FIT"; do
	grep -q "$col" "$wl_out" || { echo "workload report missing '$col'"; cat "$wl_out"; exit 1; }
done

echo "== checkpoint smoke: resumed runs reprint the report; campaignd resumes its own checkpoint; old formats refused =="
ck_dir="$serve_dir/checkpoint"
mkdir -p "$ck_dir"
go build -o "$serve_dir/ecceval" ./cmd/ecceval
go build -o "$serve_dir/campaignd" ./cmd/campaignd
# The resume banner goes to stderr, so stdout must match byte for byte.
"$serve_dir/ecceval" -samples 2000 -checkpoint "$ck_dir/f" >"$ck_dir/f.out"
"$serve_dir/ecceval" -samples 2000 -resume "$ck_dir/f" >"$ck_dir/f.resumed" 2>/dev/null
cmp "$ck_dir/f.out" "$ck_dir/f.resumed"
if "$serve_dir/ecceval" -samples 3000 -resume "$ck_dir/f" >/dev/null 2>&1; then
	echo "ecceval resumed a checkpoint taken under different -samples"; exit 1
fi
# beamsim on the same format: a resumed campaign reprints the report
# and rewrites identical -logs; another -seed, or a v1 JSON checkpoint,
# is refused and the file left byte-identical.
go build -o "$serve_dir/beamsim" ./cmd/beamsim
"$serve_dir/beamsim" -runs 12 -checkpoint "$ck_dir/b" -logs "$ck_dir/b.logs" >"$ck_dir/b.out"
mv "$ck_dir/b.logs" "$ck_dir/b.logs.ref"
cp "$ck_dir/b" "$ck_dir/b.orig"
"$serve_dir/beamsim" -runs 12 -resume "$ck_dir/b" -logs "$ck_dir/b.logs" >"$ck_dir/b.resumed" 2>/dev/null
cmp "$ck_dir/b.out" "$ck_dir/b.resumed"
cmp "$ck_dir/b.logs.ref" "$ck_dir/b.logs"
if "$serve_dir/beamsim" -runs 12 -seed 7 -resume "$ck_dir/b" >/dev/null 2>&1; then
	echo "beamsim resumed a checkpoint taken under a different -seed"; exit 1
fi
cmp "$ck_dir/b.orig" "$ck_dir/b"
printf '%s\n' '{"schema":"hbm2ecc/campaign_checkpoint/v1","config":{"mtte":5,"ondie":"","runs":12,"seed":2021},"results":{}}' >"$ck_dir/v1"
cp "$ck_dir/v1" "$ck_dir/v1.orig"
for cmd in "beamsim -runs 12" "ecceval -samples 2000"; do
	if "$serve_dir"/$cmd -resume "$ck_dir/v1" >/dev/null 2>&1; then
		echo "$cmd resumed a v1 checkpoint"; exit 1
	fi
	cmp "$ck_dir/v1.orig" "$ck_dir/v1"
done
"$serve_dir/ecceval" -workload -workload-runs 40 -checkpoint "$ck_dir/g" >"$ck_dir/g.out"
"$serve_dir/ecceval" -workload -workload-runs 40 -resume "$ck_dir/g" >"$ck_dir/g.resumed" 2>/dev/null
cmp "$ck_dir/g.out" "$ck_dir/g.resumed"
# campaignd finishes a campaign from its own checkpoint under another
# worker count, with the same report; every cell is one sampler stream,
# so that report is also the single-stream (GOMAXPROCS=1) ecceval one.
"$serve_dir/campaignd" -workers 2 -samples 2000 -listen 127.0.0.1:0 -checkpoint "$ck_dir/h" \
	>"$ck_dir/h.out" 2>"$ck_dir/campaignd.log" || { cat "$ck_dir/campaignd.log"; exit 1; }
"$serve_dir/campaignd" -workers 1 -samples 2000 -listen 127.0.0.1:0 -resume "$ck_dir/h" \
	>"$ck_dir/h.resumed" 2>"$ck_dir/campaignd.log" || { cat "$ck_dir/campaignd.log"; exit 1; }
cmp "$ck_dir/h.out" "$ck_dir/h.resumed"
GOMAXPROCS=1 "$serve_dir/ecceval" -samples 2000 >"$ck_dir/h.seq"
cmp "$ck_dir/h.out" "$ck_dir/h.seq"

echo "== repro smoke: the report does not depend on GOMAXPROCS =="
go build -o "$serve_dir/repro" ./cmd/repro
for procs in 1 2; do
	GOMAXPROCS=$procs "$serve_dir/repro" -runs 12 -samples 20000 |
		grep -v '^total runtime' >"$ck_dir/repro.$procs"
done
cmp "$ck_dir/repro.1" "$ck_dir/repro.2"

echo "== bench smoke: cmd/bench -workload -quick (resume differential) =="
go run ./cmd/bench -workload -quick -out "$serve_dir/bench_workload.json" >/dev/null
test -s "$serve_dir/bench_workload.json"
grep -q '"resume_identical": true' "$serve_dir/bench_workload.json"

echo "== on-die smoke: BEER inference recovers every known H-matrix =="
ondie_out="$serve_dir/ecceval_ondie.txt"
go run ./cmd/ecceval -ondie-infer >"$ondie_out"
test "$(grep -c 'true' "$ondie_out")" = 4 || { echo "inference missed a candidate"; cat "$ondie_out"; exit 1; }
if grep -q 'false' "$ondie_out"; then echo "inference mismatch"; cat "$ondie_out"; exit 1; fi

echo "== bench smoke: cmd/bench -ondie -quick (inference exactness gate) =="
go run ./cmd/bench -ondie -quick -out "$serve_dir/bench_ondie.json" >/dev/null
test -s "$serve_dir/bench_ondie.json"
if grep -q '"infer_exact_match": false' "$serve_dir/bench_ondie.json"; then
	echo "bench -ondie: inference failed"; exit 1
fi

echo "OK: all checks passed"
