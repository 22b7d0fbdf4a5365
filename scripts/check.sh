#!/bin/sh
# check.sh — the repo's fast verification gate:
#   go vet over everything, the full test suite (the benchmark's nested
#   module included, plus short runs of the benchmark's point, ingest and
#   analytics workloads), a race-detector pass over the packages
#   concurrent sessions share (ra, engine, graphsql and their neighbours),
#   one smoke step per optimization (its differentials at a larger bound),
#   and the chaos and bench gates.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== go test ./..."
go test ./...

echo "== benchmark module (its own tests + short served runs, exit status only)"
# Tier-1 does not descend into the nested module.
(cd benchmark && go test ./...)
bash benchmark/run.sh -workload point -seconds 6 > /dev/null
# ingest is the only served workload that writes; its shadow oracle exits
# non-zero on any answer a torn or stale snapshot would produce.
bash benchmark/run.sh -workload ingest -seconds 6 > /dev/null
# analytics carries the triangle count (a count(*) folded into the multiway
# join); its brute-force triangle oracle checks the folded count end to end.
bash benchmark/run.sh -workload analytics -seconds 6 > /dev/null

echo "== go test -race (packages concurrent sessions share)"
go test -race ./internal/relation/... ./internal/ra/... ./internal/engine/... \
    ./internal/catalog/... ./internal/withplus/... ./internal/server/... \
    ./internal/sql/... ./graphsql ./graphsql/client

echo "== delta smoke (frontier vs full differential + fallback proofs)"
go test ./internal/withplus -run 'DeltaVsFull|FallsBack|FrontierMode|FrontierReason' -count=1
go test ./internal/withplus -run=NONE -fuzz FuzzDeltaVsFull -fuzztime 5s

echo "== csr smoke (csr vs hash differential + snapshot pinning)"
go test ./internal/algos -run 'CSRVsHash' -count=1
go test ./internal/catalog -run 'CSR' -count=1
go test ./internal/withplus -run=NONE -fuzz FuzzCSRVsHash -fuzztime 5s

echo "== vector smoke (vector vs row differentials + kernel bench)"
go test ./internal/sql -run 'VecRowStatementParity' -count=1
go test ./internal/algos -run 'VectorVsRow' -count=1
go test ./internal/sql -run=NONE -fuzz FuzzVectorVsRow -fuzztime 5s
go test ./internal/ra -run=NONE -bench 'BenchmarkSelectVectorized|BenchmarkGroupByVectorized' -benchtime 1x

echo "== pushdown smoke (lookup + pruning vs brute force, then the served oracles)"
# Every database of up to three rows per table (the go test default is two),
# plus the two planted planner mutations it must catch.
go test ./internal/sql -run 'PushdownExhaustive' -count=1 -args -pushdown.rows=3
# point's lookups and traverse's pinned seeds and 2-hops take both rewrites;
# their oracles check every answer and run.sh exits 1 on a wrong one.
bash benchmark/run.sh -workload point -seconds 6 > /dev/null
bash benchmark/run.sh -workload traverse -seconds 6 > /dev/null

echo "== wcoj smoke (multiway vs binary differentials, typed vs Value probe, count fold vs brute force, chooser + operator)"
# WCOJ includes the typed-probe differential: CSR-backed atoms (ordinal
# probes) against tries (Value probes), byte for byte, also under -race.
go test ./internal/ra -run 'WCOJ' -count=1
go test -race ./internal/ra -run 'WCOJ' -count=1
go test ./internal/relation -run 'ColumnDictDense' -count=1
go test ./internal/sql -run 'WCOJDifferential|WCOJExplainAnalyze|WCOJCountFold|ChooseWCOJ' -count=1
# The count-fold template at the CI bound, with its two planted mutations.
go test ./internal/sql -run 'WCOJCountFoldExhaustive' -count=1 -args -pushdown.rows=3
go test ./internal/sql -run=NONE -fuzz FuzzWCOJVsBinary -fuzztime 5s

echo "== fused smoke (float lane vs boxed lane, streamed union-by-update vs reference)"
go test ./internal/semiring ./internal/ra -run 'FloatFormMatchesBoxed|FusedMVJoinCSRFloatLane|UnionByUpdateMatchesReference' -count=1
go test ./internal/algos -run 'FloatLaneServesPRAndWCC' -count=1

echo "== aggjoin smoke (join + semiring group-by folded vs unfolded, brute force, NULL keys)"
# The exhaustive check at the CI bound, with its two planted fold mutations;
# the folded SQL texts and statements against the join + group-by they
# replace (in order, to the bit) and refimpl; the plan shape and the
# governor accounting; the reach-shaped Distinct allocation bench.
go test ./internal/sql -run 'AggJoinExhaustive' -count=1 -args -pushdown.rows=3
go test ./internal/sql -run 'AggJoin' -count=1
go test ./internal/withplus -run 'AggJoinTexts' -count=1
go test ./graphsql -run 'MatchExplainAnalyzeGolden' -count=1
go test -race ./internal/sql -run 'AggJoin' -count=1
go test ./internal/ra -run 'DistinctMatchesReference|NullKey' -bench 'BenchmarkDistinctReachStep' -benchtime 1x -count=1

echo "== frontier smoke (fused semi-naive step vs join + DISTINCT + DiffAdd)"
# The bounded-exhaustive check over every edge table of up to four rows (the
# go test default is two) with its two planted visited-set mutations; the
# profile differentials (tail chains, string keys, Int/Float targets that
# must fall back, governor rows) and the root rule, also under -race; the
# goldens and spans of the fused node.
go test ./internal/ra -run 'FrontierExhaustive|TupleSet' -count=1 -args -frontier.rows=4
go test ./internal/withplus ./internal/sql -run 'Frontier' -count=1
go test -race ./internal/withplus ./internal/sql -run 'Frontier' -count=1
go test ./graphsql -run 'ExplainAnalyzeGolden|WithObserverCollectsSpans' -count=1

echo "== ubu-delta smoke (guarded Δ + keyed merge vs full evaluation, per iteration)"
# Every database of up to two seed rows and two edge rows (the go test
# default is one edge row), with the two planted mutations it must catch;
# then the union-by-update differentials under -race.
go test ./internal/withplus -run 'UBUExhaustive' -count=1 -args -ubu.rows=2
go test -race ./internal/withplus -run UBU -count=1

echo "== hashindex smoke (dense row chains + buckets vs a linear value.Equal scan)"
# Every relation of up to four rows (the go test default is three) over the
# key universe, after a build, one Add of each key, and row-by-row Adds, with
# the three planted dense-layout mutations it must catch (they are compiled
# in only under the hashindexfaults tag); then the index's, the
# union-by-updates' and the keyed merge's tests under -race.
go test -tags hashindexfaults ./internal/relation -run 'HashIndexExhaustive|HashIndexPlantedFaults' -count=1 -args -hashindex.rows=4
go test -race ./internal/relation ./internal/ra -run 'HashIndex|UBU|UnionByUpdate|KeyIndex' -count=1

echo "== server protocol fuzz smoke"
go test ./internal/server -run=NONE -fuzz FuzzServerProto -fuzztime 5s

echo "== match smoke (MATCH differential + explain goldens + parser fuzz)"
go test ./graphsql -run 'MatchDifferential|MatchExplainAnalyze|GraphHandleMatch' -count=1
go test ./internal/sql -run=NONE -fuzz FuzzMatchParser -fuzztime 5s

echo "== chaos gate (fault sweep, recovery, cancellation, fuzz smoke)"
./scripts/chaos.sh

echo "== bench guard (perf baseline + observability overhead + delta/csr/vector/motif A/B + session scaling vs BENCH.json)"
go run ./cmd/bench -exp guard

echo "check: OK"
