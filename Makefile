# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all test vet bench-all race cover report examples loc validate validate-update serve loadgen serve-smoke drift-drill fleet fleet-smoke replay tenants diurnal

all: vet test

test:
	$(GO) test ./...

# gofmt -l exits 0 even when it lists files, so the list must be empty.
vet:
	test -z "$$(gofmt -l . | tee /dev/stderr)" && $(GO) vet ./...

race:
	$(GO) test -race ./...

# Paper-conformance gate (see DESIGN.md §3e): leave-one-workload-out
# cross-validation plus the metamorphic check battery, gated against the
# blessed GOLDEN.json corpus. Fails if any subsystem's held-out error
# breaches the paper's 9% bound, drifts >1 point from the blessed value,
# or any dataset fingerprint changes. `make validate-update` re-blesses
# GOLDEN.json after a deliberate model/simulator change.
validate:
	$(GO) run ./cmd/tdvalidate -gate -golden GOLDEN.json -o validate_report.json

validate-update:
	$(GO) run ./cmd/tdvalidate -update -golden GOLDEN.json -o validate_report.json

# Every Benchmark* in the root package, the profiling entry points
# (add -cpuprofile/-memprofile); `bash benchmark/run.sh` is the
# end-to-end benchmark and TestAllocationCeilings gates allocs/op.
bench-all:
	$(GO) test -bench=. -benchmem -run=NONE .

cover:
	$(GO) test -cover ./...

# Regenerate EXPERIMENTS.md at full paper scale, and each figure's
# CSV and ASCII plot under figures/.
report:
	$(GO) run ./cmd/tdreport -figures figures

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/phases
	$(GO) run ./examples/thermal
	$(GO) run ./examples/governor

# Live estimation service (DESIGN.md §3f): trains at a small scale and
# listens on :8080. `make loadgen` drives the self-hosted stack at max
# throughput; `make serve-smoke` is the CI drill — an under-capacity
# paced run that must shed nothing.
serve:
	$(GO) run ./cmd/tdserve -train-scale 0.05

loadgen:
	$(GO) run ./examples/loadgen -duration 5s

serve-smoke:
	$(GO) run ./examples/loadgen -duration 3s -rate 50000 -clients 2

# Self-healing drift drill (DESIGN.md §3h): workload-mix drift must
# breach the 9% bound on a frozen estimator while the adaptive one
# detects, refits, and hot-swaps back under it; then the negative
# control (corrupted challenger rejected by the shadow gate) and the
# rollback drill (bad swap reverted within one window).
drift-drill:
	$(GO) run ./examples/drift
	$(GO) run ./examples/drift -force-bad-challenger
	$(GO) run ./examples/drift -rollback-drill

# Fleet-scale scheduler scenario (DESIGN.md §3i): the 12-node
# consolidation drill — decisions from estimates only, physically
# verified, with an asserted energy margin over naive static placement
# — followed by the 1,000-node sharded stepping smoke. `make
# fleet-smoke` is the CI variant: the 1k run twice under -race at
# different worker counts, compared byte-for-byte.
fleet:
	$(GO) run ./examples/fleet
	$(GO) run ./examples/fleet -smoke 1000

fleet-smoke:
	$(GO) run -race ./examples/fleet -smoke 1000 -workers 2 > /tmp/fleet_smoke_a.out
	$(GO) run -race ./examples/fleet -smoke 1000 -workers 8 > /tmp/fleet_smoke_b.out
	cmp /tmp/fleet_smoke_a.out /tmp/fleet_smoke_b.out

# Trace-driven replay & multi-tenant/diurnal scenarios (DESIGN.md §3j):
# `make replay` records a 12-workload day as WTR1 traces, replays each
# through the codec byte-identically and serves the replayed day;
# `make tenants` splits one node's estimated power across a 4-tenant
# cohort and gates on the metamorphic attribution battery;
# `make diurnal` runs the closed scheduler loop over a simulated day
# (consolidate at night, power back up on the morning ramp).
replay:
	$(GO) run ./examples/replay

tenants:
	$(GO) run ./examples/tenants

diurnal:
	$(GO) run ./examples/diurnal

# Lines of Go in the three counts ROADMAP.md tracks (testdata fixtures
# are not counted), the exported fields of the …Config and …Options
# structs under internal/ (one per field line), and the benchmarkOnly
# entries deadcode_test.go still allows (ROADMAP item 3(b) clears them).
loc:
	@printf 'non-test Go outside benchmark/: '; find . \( -path ./benchmark -o -name testdata \) -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l
	@printf 'test Go outside benchmark/:     '; find . \( -path ./benchmark -o -name testdata \) -prune -o -name '*_test.go' -print | xargs cat | wc -l
	@printf 'benchmark/:                     '; find ./benchmark -name '*.go' | xargs cat | wc -l
	@printf 'exported Config/Options fields: '; find ./internal -name '*.go' ! -name '*_test.go' | xargs awk '/^type [A-Za-z]*(Config|Options) struct \{/ { s = 1; next } s && /^\}/ { s = 0 } s && /^\t[A-Z]/ { n++ } END { print n }'
	@printf 'exported tracez funcs/types:    '; find ./internal/tracez -name '*.go' ! -name '*_test.go' | xargs grep -hE '^(func (\([^)]*\) )?|type )[A-Z]' | wc -l
	@printf 'benchmarkOnly entries left:     '; awk '/^var benchmarkOnly = \[\]string\{/ { s = 1; next } s && /^\}/ { s = 0 } s && /^\t"/ { n++ } END { print n }' deadcode_test.go
