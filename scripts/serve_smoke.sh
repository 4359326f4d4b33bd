#!/bin/sh
# End-to-end smoke test of the verification service: build
# vacsem-serve, start it on an ephemeral port with a store snapshot
# configured, submit the same {ER} job twice over HTTP, and assert that
# the second run is served from the cross-request store (cone hits > 0,
# no solver work) with the identical value. Then SIGTERM the server and
# check the graceful shutdown wrote the snapshot. Needs curl; uses no
# JSON tooling beyond the shell (grep/sed), so it runs on a bare CI
# runner.
set -eu

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pid=""
# On a failure path the server may still be running (or draining a
# stuck job for up to its drain timeout): kill it outright and reap it,
# so the script never exits with the server left behind.
cleanup() {
	if [ -n "$pid" ]; then
		kill -KILL "$pid" 2>/dev/null || true
		wait "$pid" 2>/dev/null || true
	fi
	rm -rf "$workdir"
}
trap cleanup EXIT

echo "==> build vacsem-serve"
go build -o "$workdir/vacsem-serve" ./cmd/vacsem-serve

echo "==> generate the adder8 BLIF pair"
go run ./examples/approx_quickstart -write "$workdir" >/dev/null

echo "==> start the server (ephemeral port, snapshot on shutdown)"
snap=$workdir/store.json
"$workdir/vacsem-serve" -addr 127.0.0.1:0 -snapshot "$snap" >"$workdir/serve.log" 2>&1 &
pid=$!
addr=""
for _ in $(seq 1 50); do
	addr=$(sed -n 's/^listening on //p' "$workdir/serve.log")
	[ -n "$addr" ] && break
	sleep 0.1
done
if [ -z "$addr" ]; then
	echo "server did not report a listen address:"
	cat "$workdir/serve.log"
	exit 1
fi
echo "server at $addr"

# JSON-escape a BLIF file into a quoted string (newlines -> \n).
json_escape() {
	sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' "$1" | awk '{printf "%s\\n", $0}'
}
body=$workdir/body.json
printf '{"exact_blif":"%s","approx_blif":"%s","metrics":["er"]}' \
	"$(json_escape "$workdir/adder8.blif")" \
	"$(json_escape "$workdir/adder8_apx.blif")" >"$body"

# submit_and_wait JOB_OUTFILE: POST the job, poll to completion, write
# the final status JSON to JOB_OUTFILE.
submit_and_wait() {
	out=$1
	sub=$(curl -sf -X POST "http://$addr/v1/verify" \
		-H 'Content-Type: application/json' --data-binary "@$body")
	job=$(printf '%s' "$sub" | sed -n 's/.*"job_id"[: ]*"\([^"]*\)".*/\1/p')
	if [ -z "$job" ]; then
		echo "submit returned no job id: $sub"
		exit 1
	fi
	for _ in $(seq 1 300); do
		curl -sf "http://$addr/v1/jobs/$job" >"$out"
		if grep -q '"state"[: ]*"done"' "$out"; then
			return 0
		fi
		if grep -q '"state"[: ]*"error"' "$out"; then
			echo "job $job failed:"
			cat "$out"
			exit 1
		fi
		sleep 0.2
	done
	echo "job $job did not finish in time"
	exit 1
}

# field FILE NAME: extract a numeric/string JSON field value.
field() {
	sed -n 's/.*"'"$2"'"[: ]*\("\{0,1\}[^,"}]*\)"\{0,1\}[,}].*/\1/p' "$1" | head -1
}

echo "==> cold job (empty store)"
submit_and_wait "$workdir/job1.json"
hits1=$(field "$workdir/job1.json" store_cone_hits)
er1=$(sed -n 's/.*"value"[: ]*"\([^"]*\)".*/\1/p' "$workdir/job1.json" | head -1)
echo "cold: er=$er1 cone_hits=$hits1"
if [ "$hits1" != 0 ]; then
	echo "cold job reported store hits ($hits1) on an empty store"
	exit 1
fi

echo "==> warm job (same request; must be served from the store)"
submit_and_wait "$workdir/job2.json"
hits2=$(field "$workdir/job2.json" store_cone_hits)
dec2=$(field "$workdir/job2.json" decisions)
er2=$(sed -n 's/.*"value"[: ]*"\([^"]*\)".*/\1/p' "$workdir/job2.json" | head -1)
echo "warm: er=$er2 cone_hits=$hits2 decisions=$dec2"
if [ "$hits2" = 0 ]; then
	echo "warm job was not served from the store"
	exit 1
fi
if [ "$dec2" != 0 ]; then
	echo "warm job still ran solvers ($dec2 decisions)"
	exit 1
fi
if [ "$er1" != "$er2" ]; then
	echo "warm value $er2 differs from cold value $er1"
	exit 1
fi

echo "==> /metrics exposes the store counters"
curl -sf "http://$addr/metrics" >"$workdir/metrics.txt"
for name in vacsem_store_cone_hits vacsem_store_cone_stores vacsem_serve_jobs_done; do
	if ! grep -q "^$name " "$workdir/metrics.txt"; then
		echo "/metrics is missing $name"
		exit 1
	fi
done
grep -E '^vacsem_(store_cone_(hits|misses|stores)|serve_jobs_done) ' "$workdir/metrics.txt"

echo "==> graceful shutdown (SIGTERM) writes the snapshot"
kill -TERM "$pid"
for _ in $(seq 1 100); do
	if ! kill -0 "$pid" 2>/dev/null; then
		break
	fi
	sleep 0.1
done
if kill -0 "$pid" 2>/dev/null; then
	echo "server did not exit after SIGTERM"
	exit 1
fi
pid=""
if [ ! -s "$snap" ]; then
	echo "shutdown did not write the store snapshot"
	cat "$workdir/serve.log"
	exit 1
fi
grep -q '"version"' "$snap"
echo "snapshot written: $(wc -c <"$snap") bytes"

echo "serve smoke OK"
