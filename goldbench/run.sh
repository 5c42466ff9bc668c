#!/usr/bin/env bash
# Builds goldrecd and the goldbench load generator from this checkout, then runs
# one benchmark workload:
#
#   bash goldbench/run.sh --workload review-address --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds, caches or
# writes stays under .bench_build/ in the checkout; the network is never
# used (the module has no dependencies outside the repository).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/runs" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0

# The build identity /healthz reports: a digest of the Go sources.
ident=$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
	LC_ALL=C sort | xargs cat | sha256sum | cut -c1-12)

go build -trimpath -ldflags "-X main.version=goldbench -X main.commit=src-$ident" \
	-o "$out/goldrecd" ./cmd/goldrecd
(cd goldbench && go build -trimpath -o "$out/goldbench" .)

exec "$out/goldbench" -bin "$out/goldrecd" -work "$out/runs" "$@"
