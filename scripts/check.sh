#!/bin/sh
# Repo health check: formatting, vet, build, the full test suite under
# the race detector, a one-iteration benchmark smoke run, and the traced
# quickstart (which parses its own JSONL trace). CI runs exactly this
# script.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> benchmark module (vet + tests; it builds against the internal API)"
(cd benchmark && go vet ./... && go test ./...)

echo "==> go test -race -short (cache/engine concurrency fast path)"
# Focused first pass over the packages that share the component cache
# and the cross-request store across goroutines — plus the
# observability hub/server, whose whole point is concurrent
# access: fails fast on a race before the full suite.
go test -race -short ./internal/counter ./internal/engine ./internal/plan ./internal/core \
	./internal/store ./internal/serve ./internal/obs ./internal/obs/expo

echo "==> go test -race"
# 20m headroom over the 10m default: race instrumentation slows the
# counter hot loops ~5x and internal/core alone runs several minutes.
go test -race -timeout 20m ./...

echo "==> sim kernel bench smoke (tape + parallel variants stay runnable)"
go test -run '^$' -bench=. -benchtime=1x ./internal/sim/...

echo "==> parallel-scaling smoke (soft gate: warn below 2x at 4 workers)"
# The smoke self-skips on machines with fewer than 4 CPUs (no speedup is
# physically measurable there). Soft gate: shared CI runners are too
# noisy to hard-fail on wall-clock ratios.
scaling_out=$(go test -run '^TestParallelScalingSmoke$' -v ./internal/sim/)
echo "$scaling_out" | grep -E "scaling smoke|SKIP|SCALING" || true
if echo "$scaling_out" | grep -q "SCALING WARNING"; then
	echo "WARNING: parallel kernel scaling below 2x at 4 workers (soft gate, not failing the check)"
fi

echo "==> bench smoke (one iteration per benchmark)"
go test -run '^$' -bench=. -benchtime=1x ./...

echo "==> multi-metric session smoke (dedup fires, values match standalone)"
# vacsem-bench itself exits 1 on a mismatch; the table is printed first
# either way. The adder32 session never finishes in a smoke's time, so
# the limit is set to end it early: 5 s is over 6x the slowest other
# session (adder16, 0.77 s on a 2-vCPU host) and every standalone run.
# adder32 stays in the table as ">5".
multi_status=0
multi_out=$(go run ./cmd/vacsem-bench -table multi -versions 1 -timelimit 5s -report none) || multi_status=$?
echo "$multi_out"
if [ "$multi_status" -ne 0 ] || echo "$multi_out" | grep -q "MISMATCH"; then
	echo "multi-metric session smoke failed (exit $multi_status): session values must match standalone runs"
	exit 1
fi

echo "==> approx backend smoke (tiny adder pair, ε=0.2, fixed seed, via the CLI)"
apxdir=$(mktemp -d)
trap 'rm -rf "$apxdir"' EXIT
go run ./examples/approx_quickstart -write "$apxdir"
apx_out=$(go run ./cmd/vacsem -metric er -method approx -epsilon 0.2 -count-seed 1 \
	-exact "$apxdir/adder8.blif" -approx "$apxdir/adder8_apx.blif")
echo "$apx_out"
if ! echo "$apx_out" | grep -q "guarantee"; then
	echo "approx run reported no (ε, δ) guarantee line"
	exit 1
fi

echo "==> approx bench smoke (epsilon/delta land in the JSON report)"
apx_bench_out=$(go run ./cmd/vacsem-bench -table approx -versions 1 -timelimit 5s \
	-epsilon 0.8 -delta 0.3 -count-seed 1 -report "$apxdir/approx.json")
echo "$apx_bench_out"
if ! grep -q '"approx": true' "$apxdir/approx.json" ||
	! grep -q '"epsilon": 0.8' "$apxdir/approx.json"; then
	echo "approx bench report is missing approx/epsilon fields"
	exit 1
fi

echo "==> approx count gate (-table approx vs committed baseline)"
# The run above uses the baseline's own parameters (-workers 1 and
# -sim-workers 1 are vacsem-bench's defaults), so every estimate must
# reproduce bit for bit: a hash family, boundary walk or cell count that
# moves one fails here.
go run ./cmd/vacsem-bench -diff BENCH_20261019T125007.json "$apxdir/approx.json"

echo "==> approx-scaling smoke (adder/mult scale rows render and finish)"
# The scale rows ride along in -table approx above. Hash cells are
# counted by simulation, so every row finishes far inside the 5 s limit;
# a row printing ">5" is a regression.
if ! echo "$apx_bench_out" | grep -q "^mult16 "; then
	echo "approx-scaling table is missing its mult16 row"
	exit 1
fi
if ! echo "$apx_bench_out" | awk '/^Approx scaling/ { s = 1 } s && $2 == ">5" { bad = 1 } END { exit bad }'; then
	echo "an approx-scaling row hit the 5 s limit"
	exit 1
fi

echo "==> serve smoke (HTTP service: cold/warm dedup, /metrics, snapshot on SIGTERM)"
./scripts/serve_smoke.sh

echo "==> traced quickstart (JSONL trace parses and is self-consistent)"
go run ./examples/traced_verify >/dev/null

echo "==> examples (every other example runs to completion)"
# Outside the tests these are the only callers of the root API; each
# takes a few seconds at most, so the timeout only catches a hang.
for ex in quickstart biased_inputs custom_metric multiplier_med adder_sweep; do
	echo "    examples/$ex"
	timeout 120 go run "./examples/$ex" >/dev/null
done

echo "==> bench count gate (vacsem-bench -diff vs committed baseline)"
# Re-run the baseline's table with its exact parameters and diff against
# the committed BENCH_*.json. -diff exits 1 when an exact count or approx
# flag changed, a completed run now times out, errors or is infeasible,
# or a run went missing: the product is a count. Wall time is printed,
# not gated; benchmark/ owns performance.
bench_baseline=BENCH_20261019T102206.json
go run ./cmd/vacsem-bench -table 4 -versions 2 -timelimit 10s \
	-report "$apxdir/bench_new.json" >/dev/null
go run ./cmd/vacsem-bench -diff "$bench_baseline" "$apxdir/bench_new.json"

echo "==> bench MED count gate (Table V vs committed baseline)"
# The Table IV baseline has no MED row; this gate covers the MED counts
# of every backend on adders and multipliers the same way.
med_baseline=BENCH_20261019T102238.json
go run ./cmd/vacsem-bench -table 5 -versions 2 -timelimit 10s \
	-report "$apxdir/bench_med.json" >/dev/null
go run ./cmd/vacsem-bench -diff "$med_baseline" "$apxdir/bench_med.json"

echo "==> bench DD count gate (footnote-2 table vs committed baseline)"
# Tables IV and V run only vacsem, dpll and enum; this gate covers the
# bdd backend's counts and its blow-up rows. Every completed row takes
# a few seconds at most, far inside the 120 s limit.
dd_baseline=BENCH_20261019T102445.json
go run ./cmd/vacsem-bench -table dd -full -timelimit 120s \
	-report "$apxdir/bench_dd.json" >/dev/null
go run ./cmd/vacsem-bench -diff "$dd_baseline" "$apxdir/bench_dd.json"

echo "OK"
