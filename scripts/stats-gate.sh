#!/usr/bin/env bash
# stats-gate.sh: hold the line on the metrics migration.
#
# The registry (internal/metrics) is the one observability surface: every
# counter is read through Registry.Snapshot(). Two things mean someone grew
# a parallel path back — fail the build and point them at the registry:
#   - a multi-return Stats() accessor, i.e. a hand-rolled counter read;
#   - a `// Deprecated:` comment, i.e. a compatibility layer kept alive
#     beside the registry instead of being migrated and deleted.
#
# Run from the repository root: ./scripts/stats-gate.sh
set -u

fail=0

stats=$(grep -rn --include='*.go' 'func ([^)]*) Stats() (' internal cmd examples ./*.go 2>/dev/null \
	| grep -v '_test\.go:')
if [ -n "$stats" ]; then
	echo "stats-gate: multi-return Stats() accessor(s):" >&2
	echo "$stats" >&2
	fail=1
fi

deprecated=$(grep -rn --include='*.go' '// Deprecated:' internal cmd examples ./*.go 2>/dev/null \
	| grep -v '_test\.go:')
if [ -n "$deprecated" ]; then
	echo "stats-gate: deprecated API(s) kept beside the registry; migrate callers and delete them:" >&2
	echo "$deprecated" >&2
	fail=1
fi

if [ "$fail" -ne 0 ]; then
	echo "stats-gate: register metrics.Counter/Gauge/Histogram instruments instead (see internal/metrics)." >&2
	exit 1
fi
echo "stats-gate: ok"
