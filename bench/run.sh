#!/usr/bin/env bash
# The benchmark's one command: build the server under test and the harness
# from the checkout, then run the harness with the arguments given.
# Everything the builds and the run write stays in the checkout, under
# .bench_build (binaries, Go caches, scratch) and bench/out (traces).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"
# The Go toolchain's own files: build cache, module cache, temporary files,
# and its per-user configuration and telemetry directory.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
# Telemetry off, by its mode file: with a fresh configuration directory the go
# command otherwise starts a detached child of itself to look for reports to
# upload, and that child outlives a run that fails at once (a checkout
# without the program), which is a process left running.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
(cd "$root" && go build -o "$build/bin/dlinfma" ./cmd/dlinfma) >&2
(cd "$root/bench" && go build -o "$build/bin/dlbench" ./cmd/dlbench) >&2
exec "$build/bin/dlbench" -root "$root" -server-bin "$build/bin/dlinfma" "$@"
