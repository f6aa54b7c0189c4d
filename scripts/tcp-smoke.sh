#!/usr/bin/env bash
# Real-TCP smoke test of the deployed binaries: two kineticd drives and
# a pesos controller on loopback, driven by pesosctl. It PUTs three
# keys and checks that `pesosctl ls` lists exactly those three, which
# exercises the range read with metadata across separately started
# processes. Run from the repository root:
#
#   bash scripts/tcp-smoke.sh
#
# Ports default to 18123, 18124 (drives) and 18443 (REST); override
# with DRIVE0_PORT, DRIVE1_PORT and REST_PORT. Every process the
# script starts is stopped on exit.
set -euo pipefail

drive0=127.0.0.1:${DRIVE0_PORT:-18123}
drive1=127.0.0.1:${DRIVE1_PORT:-18124}
rest=127.0.0.1:${REST_PORT:-18443}

work=$(mktemp -d)
pids=()
cleanup() {
	for pid in "${pids[@]}"; do
		kill "$pid" 2>/dev/null || true
	done
	for pid in "${pids[@]}"; do
		wait "$pid" 2>/dev/null || true
	done
	rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/bin/" ./cmd/kineticd ./cmd/pesos ./cmd/pesosctl

cd "$work"
./bin/kineticd -listen "$drive0" -name kinetic-0 >kinetic-0.log 2>&1 &
pids+=($!)
./bin/kineticd -listen "$drive1" -name kinetic-1 >kinetic-1.log 2>&1 &
pids+=($!)
./bin/pesos -state ./state -init -host localhost >/dev/null
./bin/pesos -state ./state -issue-client alice >/dev/null
# Give the drives a moment to listen before the controller's takeover
# dials them.
for port in "${drive0##*:}" "${drive1##*:}"; do
	for _ in $(seq 50); do
		if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then break; fi
		sleep 0.1
	done
done
./bin/pesos -state ./state -listen "$rest" -drives "$drive0,$drive1" -replicas 2 >pesos.log 2>&1 &
pids+=($!)

ctl() {
	./bin/pesosctl -server "https://localhost:${rest##*:}" -cert state/alice-cert.pem \
		-key state/alice-key.pem -cacert state/ca-cert.pem "$@"
}
ready=0
for _ in $(seq 100); do
	if ctl status >/dev/null 2>&1; then
		ready=1
		break
	fi
	sleep 0.1
done
if [ "$ready" != 1 ]; then
	echo "tcp-smoke: controller did not come up" >&2
	cat pesos.log >&2
	exit 1
fi

for key in smoke/a smoke/b smoke/c; do
	echo "value of $key" | ctl put "$key" - >/dev/null
done
want=$'smoke/a\nsmoke/b\nsmoke/c'
got=$(ctl ls)
if [ "$got" != "$want" ]; then
	echo "tcp-smoke: ls listed:" >&2
	echo "$got" >&2
	echo "want:" >&2
	echo "$want" >&2
	exit 1
fi
echo "tcp-smoke: ok, ls lists the 3 keys written over real TCP"
