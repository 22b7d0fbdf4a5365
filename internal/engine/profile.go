// Package engine executes relational-algebra programs over a catalog, with
// per-profile plan choices modeled on the three RDBMSs the paper evaluates.
package engine

import (
	"repro/internal/catalog"
	"repro/internal/ra"
)

// Profile describes one RDBMS-like configuration. The profiles differ in
// real mechanisms, not constants:
//
//   - OracleLike: temporary tables live in memory (Auto Memory Management),
//     inserts are direct-path (no logging), and the optimizer picks hash
//     join + hash aggregation regardless of temp-table statistics.
//   - DB2Like: hash join + hash aggregation too, but temporary tables are
//     paged through the buffer pool, so every iteration pays tuple
//     encode/decode and page I/O.
//   - PostgresLike: temporary tables are paged AND the optimizer lacks
//     statistics for them, so it falls back to sort-merge joins — resorting
//     inputs every iteration. Building a temp-table index lets the merge
//     join read one side in index order (Exp-A's 10–50% improvement).
type Profile struct {
	Name string
	// TempStore is the physical storage for temporary tables.
	TempStore catalog.StoreKind
	// BaseJoin is the join algorithm for analyzed tables.
	BaseJoin ra.JoinAlgo
	// TempJoin is the join algorithm when an input lacks statistics.
	TempJoin ra.JoinAlgo
	// UseTempIndexes builds sorted indexes on temp-table join keys and
	// upgrades merge joins to index-merge joins (PostgreSQL with the
	// PSM-built indexes of Exp-A).
	UseTempIndexes bool
	// Features is the WITH-clause feature matrix row set (Table 1).
	Features FeatureMatrix
}

// JoinAlgo is the profile's plan choice for an equi-join: BaseJoin when
// every input has current statistics, else TempJoin — upgraded to the
// index-merge join when the profile builds temp-table indexes.
func (p Profile) JoinAlgo(allAnalyzed bool) ra.JoinAlgo {
	algo := p.TempJoin
	if allAnalyzed {
		algo = p.BaseJoin
	}
	if algo == ra.SortMergeJoin && p.UseTempIndexes {
		return ra.IndexMergeJoin
	}
	return algo
}

// FeatureMatrix records which recursive-WITH features a system supports —
// the content of the paper's Table 1. Values: "yes", "no", "n/a".
type FeatureMatrix struct {
	LinearRecursion    string
	NonlinearRecursion string
	MutualRecursion    string

	MultipleInitialQueries   string
	MultipleRecursiveQueries string

	SetOpsBetweenInitial string
	SetOpsAcrossInitRec  string
	SetOpsBetweenRec     string

	Negation            string
	AggregateFunctions  string
	GroupByHaving       string
	PartitionBy         string
	Distinct            string
	GeneralFunctions    string
	AnalyticalFunctions string
	SubqueriesNoRecRef  string
	SubqueriesRecRef    string

	InfiniteLoopDetection string
	CycleDetection        string
	CycleClause           string
	SearchClause          string
}

// OracleLike returns the Oracle-11gR2-like profile.
func OracleLike() Profile {
	return Profile{
		Name:           "oracle",
		TempStore:      catalog.StoreMem,
		BaseJoin:       ra.HashJoin,
		TempJoin:       ra.HashJoin,
		UseTempIndexes: false,
		Features: FeatureMatrix{
			LinearRecursion: "yes", NonlinearRecursion: "no", MutualRecursion: "no",
			MultipleInitialQueries: "yes", MultipleRecursiveQueries: "no",
			SetOpsBetweenInitial: "yes", SetOpsAcrossInitRec: "no", SetOpsBetweenRec: "n/a",
			Negation: "no", AggregateFunctions: "no", GroupByHaving: "no",
			PartitionBy: "yes", Distinct: "no", GeneralFunctions: "yes",
			AnalyticalFunctions: "yes", SubqueriesNoRecRef: "yes", SubqueriesRecRef: "no",
			InfiniteLoopDetection: "yes", CycleDetection: "yes",
			CycleClause: "yes", SearchClause: "yes",
		},
	}
}

// DB2Like returns the DB2-10.5-like profile.
func DB2Like() Profile {
	return Profile{
		Name:           "db2",
		TempStore:      catalog.StorePaged,
		BaseJoin:       ra.HashJoin,
		TempJoin:       ra.HashJoin,
		UseTempIndexes: false,
		Features: FeatureMatrix{
			LinearRecursion: "yes", NonlinearRecursion: "no", MutualRecursion: "no",
			MultipleInitialQueries: "yes", MultipleRecursiveQueries: "yes",
			SetOpsBetweenInitial: "yes", SetOpsAcrossInitRec: "no", SetOpsBetweenRec: "no",
			Negation: "no", AggregateFunctions: "no", GroupByHaving: "no",
			PartitionBy: "yes", Distinct: "no", GeneralFunctions: "no",
			AnalyticalFunctions: "no", SubqueriesNoRecRef: "yes", SubqueriesRecRef: "no",
			InfiniteLoopDetection: "no", CycleDetection: "no",
			CycleClause: "no", SearchClause: "no",
		},
	}
}

// PostgresLike returns the PostgreSQL-9.4-like profile. withIndexes turns on
// the temp-table indexes the paper builds in PSM for PostgreSQL (Exp-A).
func PostgresLike(withIndexes bool) Profile {
	return Profile{
		Name:           "postgres",
		TempStore:      catalog.StorePaged,
		BaseJoin:       ra.HashJoin,
		TempJoin:       ra.SortMergeJoin,
		UseTempIndexes: withIndexes,
		Features: FeatureMatrix{
			LinearRecursion: "yes", NonlinearRecursion: "no", MutualRecursion: "no",
			MultipleInitialQueries: "yes", MultipleRecursiveQueries: "no",
			SetOpsBetweenInitial: "yes", SetOpsAcrossInitRec: "yes", SetOpsBetweenRec: "n/a",
			Negation: "no", AggregateFunctions: "no", GroupByHaving: "no",
			PartitionBy: "yes", Distinct: "yes", GeneralFunctions: "yes",
			AnalyticalFunctions: "yes", SubqueriesNoRecRef: "yes", SubqueriesRecRef: "no",
			InfiniteLoopDetection: "no", CycleDetection: "no",
			CycleClause: "no", SearchClause: "no",
		},
	}
}

// Profiles returns the three profiles in the paper's presentation order,
// with PostgreSQL configured as in the main experiments (indexes built).
func Profiles() []Profile {
	return []Profile{OracleLike(), DB2Like(), PostgresLike(true)}
}
