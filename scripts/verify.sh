#!/bin/sh
# Full verification gate: the tier-1 check from ROADMAP.md, plus static
# analysis and a race-detector pass over the packages with the most
# scheduling-sensitive state (the simulator core and the observability
# primitives layered on it).
set -eux

cd "$(dirname "$0")/.."

# Tier 1 (keep in sync with ROADMAP.md).
go build ./...
go test ./...

# Format gate: every Go source in the tree is gofmt-clean. Directories the
# go tool ignores (names starting with "." or "_", such as the benchmark's
# .bench_build cache) are skipped.
unformatted=$(find . -name '[._]?*' -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
	echo "$unformatted"
	echo "verify: gofmt -l reports unformatted files (run gofmt -w)" >&2
	exit 1
fi

# Tier 2: vet everything, race-test the event loop and metrics/span layer,
# plus the host-parallel sweep runner and the experiments that fan out on it
# (the determinism tests compare serial vs parallel output byte for byte),
# plus the batched executor and memoized optimizer, plus the root-package
# telemetry paths (observer + per-query WithTrace attribution under
# concurrent sessions, event log, progress, SLO reporting).
go vet ./...
go test -race ./internal/sim/... ./internal/obs/... ./internal/host/... ./internal/experiments/... ./internal/exec/... ./internal/opt/... ./internal/broker/... ./internal/fault/... ./internal/buffer/... ./internal/node/... ./internal/adapt/...
go test -race -run 'TestEventLog|TestLiveProgress|TestSLOReport|TestConcurrentAttribution|TestObserver|TestAdaptive|TestWithAdaptive' .

# Node-assembly lint: a cluster node's storage stack (device, fault
# injector, disk manager, buffer pool, share registry) is assembled in
# internal/node and only there — the public package addresses nodes, never
# raw storage constructors. A direct constructor call in the root package
# rebuilds the pre-cluster single-device ownership the node refactor
# removed, and bypasses the hedger/injector layering scans depend on.
if grep -nE '(workload\.NewDevice|fault\.Wrap|buffer\.NewPool|buffer\.NewShares|disk\.NewManager)\(' ./*.go |
	grep -v '_test\.go'; then
	echo "verify: raw storage-stack constructor in the public package (assemble through internal/node)" >&2
	exit 1
fi

# Node-addressing lint: the System owns nodes, not storage fields. Direct
# s.dev/s.pool/s.inj/s.shares/s.manager/s.cpu accesses are the pre-cluster
# field layout; engine code must go through s.nodes[i] / s.coord().
if grep -nE 's\.(dev|pool|inj|shares|manager|cpu)\b' ./*.go |
	grep -v '_test\.go'; then
	echo "verify: direct System storage-field access in the public package (address the node instead)" >&2
	exit 1
fi

# Batch-accounting lint: every worker CPU charge in the executor must flow
# through the cpuBudget (batch.go) so debt settles before device
# interactions. A raw Use against the CPU resource anywhere else in the
# package reintroduces per-row kernel round-trips unnoticed.
if grep -n 'Use(ctx\.CPU\|Use(m\.ctx\.CPU' internal/exec/*.go | grep -v 'internal/exec/batch.go'; then
	echo "verify: raw CPU Use outside internal/exec/batch.go (route through cpuBudget/useCPU)" >&2
	exit 1
fi

# Resource-governance lint: queue-depth supply arithmetic belongs to the
# broker. MaxBeneficialDepth is defined in internal/cost and consumed only
# by internal/broker; any other call site is a query hand-rolling its own
# budget split outside admission control, which is exactly the scattered
# arithmetic the broker layer replaced.
if grep -rn 'MaxBeneficialDepth' --include='*.go' . |
	grep -v '_test\.go' |
	grep -v './internal/cost/' |
	grep -v './internal/broker/'; then
	echo "verify: MaxBeneficialDepth used outside internal/broker (lease budgets from the broker instead)" >&2
	exit 1
fi

# Error-taxonomy lint: sentinel conditions (cancellation, deadlines, device
# faults, closed admission) must be expressed by wrapping the taxonomy
# sentinels from internal/fault, never by minting fresh string errors —
# a raw errors.New/fmt.Errorf for one of these breaks every errors.Is
# caller silently.
if grep -rnE '(errors\.New|fmt\.Errorf)\("[^"]*([Cc]ancel|[Dd]eadline|[Dd]evice fault|[Aa]dmission)' \
	--include='*.go' . |
	grep -v '_test\.go' |
	grep -v './internal/fault/'; then
	echo "verify: raw string error for a taxonomy condition (wrap the internal/fault sentinel instead)" >&2
	exit 1
fi

# Context-discipline lint: the executor runs in virtual time and takes its
# abort signal from fault.Control, threaded in by the public API layer. A
# context.Background() inside internal/exec means a code path manufactured
# its own context instead of accepting the caller's — cancellation would
# silently stop propagating.
if grep -n 'context\.Background()' internal/exec/*.go; then
	echo "verify: context.Background() inside internal/exec (thread the caller's abort control instead)" >&2
	exit 1
fi

# Shared-scan consumer lint: an attached scan consumes pages pushed by its
# table's circulating producer — the whole point is that riders add zero
# demand I/O. A FetchPage or Prefetch call in the shared consumer path
# would silently reintroduce per-rider device traffic and unravel the
# one-lap-over-N economics the optimizer prices the attach path with.
if grep -nE '\.(FetchPage|Prefetch|PrefetchRun|PrefetchRunTrimmed)\(' internal/exec/shared.go; then
	echo "verify: demand fetch/prefetch in the shared-scan consumer path (pages must come from the circulating producer)" >&2
	exit 1
fi

# Metric-name catalog lint: every registry instrument name lives in
# internal/obs/catalog.go as an obs.Metric* constant. A string literal at a
# Counter/Gauge/Histogram/AdoptGauge call site is an ad-hoc metric name the
# catalog (and every dashboard keyed on it) doesn't know about.
#
# The lint covers the engine module rooted at $1: every Go file under it
# except tests, internal/obs itself and nested modules. A nested module
# (perfbench has its own go.mod) is not engine code: it reads
# MetricsSnapshot counters by their public names and registers no
# instrument, so its `d.Counter("buffer.hits")` reads are not call sites.
metric_literals() {
	hits=$(grep -rnE '\.(Counter|Gauge|Histogram|AdoptGauge)\(\s*"' --include='*.go' "$1" |
		grep -v '_test\.go' |
		grep -v "^$1/internal/obs/") || true
	for mod in $(find "$1" -mindepth 2 -name go.mod); do
		hits=$(printf '%s\n' "$hits" | grep -v "^${mod%/go.mod}/") || true
	done
	[ -n "$hits" ] && printf '%s\n' "$hits"
}

# Failing example: in a scratch copy of the module layout, a literal name at
# a registry call site in engine code trips the lint; the same literal in
# internal/obs or in a nested module does not.
lintroot=$(mktemp -d)
trap 'rm -rf "$lintroot"' EXIT
mkdir -p "$lintroot/internal/exec" "$lintroot/internal/obs" "$lintroot/bench"
printf 'module pioqo\n' >"$lintroot/go.mod"
printf 'module bench\n' >"$lintroot/bench/go.mod"
for f in internal/exec/scan.go internal/obs/catalog.go bench/read.go; do
	printf 'package x\n\nfunc f(r *obs.Registry) { r.Counter("adhoc.metric").Inc() }\n' >"$lintroot/$f"
done
if [ "$(metric_literals "$lintroot")" != "$lintroot/internal/exec/scan.go:3:func f(r *obs.Registry) { r.Counter(\"adhoc.metric\").Inc() }" ]; then
	echo "verify: metric-name lint self-test failed (must flag engine code only)" >&2
	exit 1
fi

if metric_literals .; then
	echo "verify: string-literal metric name at an instrument call site (add it to internal/obs/catalog.go)" >&2
	exit 1
fi

# Event-name catalog lint: event-log emissions carry typed event.Ev*
# constants from internal/obs/event/catalog.go, never ad-hoc values — the
# JSONL schema and its replay guarantee depend on the catalog being the
# single source of event names.
if grep -rnE '(log|Log|events)\.Emit\(' --include='*.go' . |
	grep -v '_test\.go' |
	grep -v './internal/obs/event/' |
	grep -v 'event\.Ev'; then
	echo "verify: event emission without a typed event.Ev* constant (add the type to internal/obs/event/catalog.go)" >&2
	exit 1
fi

# Planner-event catalog lint: the serving planner's event names
# ("plancache.*" / "planner.*") exist only as catalog descriptions in
# internal/obs — call sites emit the typed event.EvPlan*/EvGreedy*
# constants. A literal name elsewhere is an emission the catalog, the JSONL
# schema, and the planner dashboards don't know about.
if grep -rnE '"(plancache|planner)\.' --include='*.go' . |
	grep -v '_test\.go' |
	grep -v './internal/obs/'; then
	echo "verify: literal plancache.*/planner.* event name outside internal/obs (emit a cataloged event.Ev* constant)" >&2
	exit 1
fi

# Every planner event type added for the serving plan path must be
# described in the event catalog; an empty Desc breaks JSONL consumers.
for ev in plancache.band_hit plancache.band_miss plancache.revalidate planner.greedy planner.fallback; do
	if ! grep -q "\"$ev\"" internal/obs/event/catalog.go; then
		echo "verify: planner event $ev missing from internal/obs/event/catalog.go" >&2
		exit 1
	fi
done

# Every scatter-gather event type must be described in the event catalog;
# an empty Desc breaks JSONL consumers.
for ev in shard.scatter shard.partial shard.hedge.issue shard.hedge.win shard.gather.done; do
	if ! grep -q "\"$ev\"" internal/obs/event/catalog.go; then
		echo "verify: shard event $ev missing from internal/obs/event/catalog.go" >&2
		exit 1
	fi
done

# Every adaptive-execution event type must be described in the event
# catalog; an empty Desc breaks JSONL consumers.
for ev in adapt.seed adapt.grow adapt.shrink adapt.spec.issue adapt.spec.cancel lease.grow; do
	if ! grep -q "\"$ev\"" internal/obs/event/catalog.go; then
		echo "verify: adaptive event $ev missing from internal/obs/event/catalog.go" >&2
		exit 1
	fi
done

# Degree-change lint: mid-flight parallelism changes acquire credits
# through the broker lease's grow path and nowhere else. The controller
# (internal/adapt) is the only caller of Lease.Grow, and the broker is the
# only definer; a call anywhere else bypasses admission control and the
# governed-teardown accounting that keeps lease credits conserved.
if grep -rn '\.Grow(' --include='*.go' . |
	grep -v '_test\.go' |
	grep -v './internal/adapt/' |
	grep -v './internal/broker/'; then
	echo "verify: Lease.Grow called outside internal/adapt (degree changes go through the controller's lease path)" >&2
	exit 1
fi

# Zero-overhead gate: the disabled event-log path must stay allocation-free
# — a nil log's Emit is one comparison, so observability-off runs remain
# byte-identical to pre-observability builds at zero cost.
EMIT_DISABLED=$(go test -run '^$' -bench 'EmitDisabled' -benchmem ./internal/obs/event/ | grep '^BenchmarkEmitDisabled')
echo "$EMIT_DISABLED"
if ! echo "$EMIT_DISABLED" | grep -q ' 0 allocs/op'; then
	echo "verify: disabled event-log Emit allocates (must be 0 allocs/op)" >&2
	exit 1
fi
