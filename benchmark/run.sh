#!/bin/sh
# The whole benchmark: builds offline, runs every workload (3 untraced
# repeats round-robin, then one traced run each), prints every metric and
# writes out/results.json and out/trace_<workload>.json. Exits non-zero if
# a check fails. Options are passed through (--seed, --repeats, --smoke).
exec cargo run --release --offline --manifest-path "$(dirname "$0")/Cargo.toml" -- run "$@"
