# Convenience targets; see README.md.

.PHONY: build test check chaos soak bench

build:
	go build ./...

test:
	go test ./...

# check runs the full verification gate: vet, tests, and a race-detector
# pass over the packages concurrent sessions share.
check:
	./scripts/check.sh

# chaos runs the resilience gate: fault-injection sweeps, crash recovery,
# and cancellation tests under -race, plus a short fuzz smoke.
chaos:
	./scripts/chaos.sh

# soak runs a time-bounded random concurrent DDL + recursion mix over one
# shared engine under -race; SOAK_MS sets the budget (default 5000).
soak:
	./scripts/soak.sh

bench:
	go test -bench . -benchtime 1x .
