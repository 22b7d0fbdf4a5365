package catalog

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

func newCat() *Catalog {
	disk := storage.NewDisk()
	return New(storage.NewBufferPool(disk, 64), storage.NewWAL())
}

func sch() schema.Schema { return schema.Cols(value.KindInt, "a", "b") }

func tu(a, b int64) relation.Tuple { return relation.Tuple{value.Int(a), value.Int(b)} }

func TestCreateGetDrop(t *testing.T) {
	c := newCat()
	tab, err := c.Create("t", sch(), StoreMem, true)
	if err != nil || tab.Name != "t" || !tab.Temp {
		t.Fatalf("create: %v %v", tab, err)
	}
	if _, err := c.Create("t", sch(), StoreMem, true); err == nil {
		t.Error("duplicate create should fail")
	}
	if !c.Has("t") || c.Has("x") {
		t.Error("Has wrong")
	}
	got, err := c.Get("t")
	if err != nil || got != tab {
		t.Error("Get wrong")
	}
	if err := c.Drop("t"); err != nil {
		t.Fatal(err)
	}
	if c.Has("t") {
		t.Error("dropped table still present")
	}
	if err := c.Drop("t"); err == nil {
		t.Error("double drop should fail")
	}
	if _, err := c.Get("t"); err == nil {
		t.Error("Get after drop should fail")
	}
	if _, err := c.Create("bad", sch(), StoreKind(99), false); err == nil {
		t.Error("unknown store kind should fail")
	}
}

func TestRenameTable(t *testing.T) {
	c := newCat()
	c.Create("old", sch(), StoreMem, false)
	c.Create("other", sch(), StoreMem, false)
	if err := c.RenameTable("old", "other"); err == nil {
		t.Error("rename onto existing name should fail")
	}
	if err := c.RenameTable("old", "new"); err != nil {
		t.Fatal(err)
	}
	if c.Has("old") || !c.Has("new") {
		t.Error("rename did not move the entry")
	}
	tab, _ := c.Get("new")
	if tab.Name != "new" {
		t.Error("table name not updated")
	}
	if err := c.RenameTable("ghost", "x"); err == nil {
		t.Error("rename of missing table should fail")
	}
}

func TestNamesAndTempNames(t *testing.T) {
	c := newCat()
	c.Create("b", sch(), StoreMem, false)
	c.Create("a", sch(), StoreMem, true)
	c.Create("c", sch(), StorePaged, true)
	names := c.Names()
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Errorf("Names = %v", names)
	}
	temps := c.TempNames()
	if len(temps) != 2 || temps[0] != "a" || temps[1] != "c" {
		t.Errorf("TempNames = %v", temps)
	}
}

func TestInsertArityChecks(t *testing.T) {
	c := newCat()
	tab, _ := c.Create("t", sch(), StoreMem, true)
	if err := tab.Insert(relation.Tuple{value.Int(1)}); err == nil {
		t.Error("wrong arity insert should fail")
	}
	bad := relation.New(schema.Cols(value.KindInt, "only"))
	if err := tab.InsertRelation(bad); err == nil {
		t.Error("wrong arity bulk insert should fail")
	}
}

func TestMaterializeCachingAndInvalidation(t *testing.T) {
	c := newCat()
	tab, _ := c.Create("t", sch(), StorePaged, true)
	tab.Insert(tu(1, 2))
	r1, err := tab.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := tab.Materialize()
	if r1 != r2 {
		t.Error("materialization should be cached between writes")
	}
	if r1.Sch[0].Table != "t" {
		t.Error("materialized schema should be qualified with table name")
	}
	tab.Insert(tu(3, 4))
	r3, _ := tab.Materialize()
	if r3 != r1 || r3.Len() != 2 {
		t.Error("append should extend the cache in place, not drop it")
	}
	if err := tab.Truncate(); err != nil {
		t.Fatal(err)
	}
	r4, _ := tab.Materialize()
	if r4 == r1 || r4.Len() != 0 {
		t.Error("truncate should invalidate the cache")
	}
}

func TestAnalyzeAndStats(t *testing.T) {
	c := newCat()
	tab, _ := c.Create("t", sch(), StoreMem, false)
	tab.Insert(tu(1, 1))
	if tab.Stats.Analyzed {
		t.Error("insert should clear analyzed flag")
	}
	tab.Analyze()
	if !tab.Stats.Analyzed || tab.Stats.Rows != 1 {
		t.Errorf("stats after analyze: %+v", tab.Stats)
	}
	tab.Insert(tu(2, 2))
	if tab.Stats.Analyzed {
		t.Error("stats must go stale on write")
	}
}

func TestEnsureIndexLifecycle(t *testing.T) {
	c := newCat()
	tab, _ := c.Create("t", sch(), StoreMem, true)
	tab.Insert(tu(3, 0))
	tab.Insert(tu(1, 1))
	idx, err := tab.EnsureIndex([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Tuple(0)[0].AsInt() != 1 {
		t.Error("index not sorted")
	}
	idx2, _ := tab.EnsureIndex([]int{0})
	if idx2 != idx {
		t.Error("index should be cached")
	}
	if tab.Index([]int{0}) != idx || tab.Index([]int{1}) != nil {
		t.Error("Index lookup wrong")
	}
	tab.Insert(tu(0, 2))
	if tab.Index([]int{0}) != nil {
		t.Error("write should invalidate indexes")
	}
	idx3, _ := tab.EnsureIndex([]int{0})
	if idx3.Len() != 3 {
		t.Error("rebuilt index should cover all rows")
	}
}

func TestTruncateResetsEverything(t *testing.T) {
	c := newCat()
	tab, _ := c.Create("t", sch(), StorePaged, true)
	tab.Insert(tu(1, 1))
	tab.EnsureIndex([]int{0})
	tab.Analyze()
	if err := tab.Truncate(); err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 0 || tab.Stats.Rows != 0 || tab.Stats.Analyzed || tab.Index([]int{0}) != nil {
		t.Error("truncate should clear rows, stats, and indexes")
	}
}

func TestVersionBumpsOnEveryWrite(t *testing.T) {
	c := newCat()
	tab, _ := c.Create("t", sch(), StoreMem, true)
	v0 := tab.Version()
	tab.Insert(tu(1, 1))
	v1 := tab.Version()
	if v1 <= v0 {
		t.Error("Insert must bump the version")
	}
	r := relation.New(sch())
	r.Append(tu(2, 2))
	tab.InsertRelation(r)
	v2 := tab.Version()
	if v2 <= v1 {
		t.Error("InsertRelation must bump the version")
	}
	tab.Truncate()
	v3 := tab.Version()
	if v3 <= v2 {
		t.Error("Truncate must bump the version")
	}
	if err := c.RenameTable("t", "u"); err != nil {
		t.Fatal(err)
	}
	if tab.Version() <= v3 {
		t.Error("RenameTable must bump the version")
	}
}

func TestEnsureHashIndexLifecycle(t *testing.T) {
	c := newCat()
	tab, _ := c.Create("t", sch(), StoreMem, true)
	tab.Insert(tu(3, 0))
	tab.Insert(tu(1, 1))
	idx, hit, err := tab.EnsureHashIndex([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first build must be a miss")
	}
	idx2, hit, _ := tab.EnsureHashIndex([]int{0})
	if !hit || idx2 != idx {
		t.Error("second request must hit the cache with the same index")
	}
	if tab.HashIndex([]int{0}) != idx || tab.HashIndex([]int{1}) != nil {
		t.Error("HashIndex lookup wrong")
	}
	tab.Insert(tu(0, 2))
	if tab.HashIndex([]int{0}) != idx {
		t.Error("append must keep the hash index cached")
	}
	idx3, hit, _ := tab.EnsureHashIndex([]int{0})
	if !hit || idx3 != idx {
		t.Error("post-append request must hit the incrementally maintained index")
	}
	if idx3.Rel().Len() != 3 {
		t.Error("extended index must cover all rows")
	}
	if rows := idx3.Probe(tu(0, 99), []int{0}); len(rows) != 1 || rows[0] != 2 {
		t.Errorf("extended index must find the appended row, got %v", rows)
	}
	if err := tab.Truncate(); err != nil {
		t.Fatal(err)
	}
	if tab.HashIndex([]int{0}) != nil {
		t.Error("truncate must invalidate the hash-index cache")
	}
}

func TestEnsureColumnDictLifecycle(t *testing.T) {
	c := newCat()
	tab, _ := c.Create("t", sch(), StoreMem, true)
	tab.Insert(tu(7, 0))
	tab.Insert(tu(5, 1))
	tab.Insert(tu(7, 2))
	d, hit, err := tab.EnsureColumnDict(0)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first build must be a miss")
	}
	if len(d.Keys) != 2 || d.Ords[0] != d.Ords[2] || d.Ords[0] == d.Ords[1] {
		t.Errorf("dict encoding wrong: keys=%v ords=%v", d.Keys, d.Ords)
	}
	d2, hit, _ := tab.EnsureColumnDict(0)
	if !hit || d2 != d {
		t.Error("second request must hit the cache with the same dict")
	}
	tab.Insert(tu(9, 3))
	if tab.ColumnDict(0) != d {
		t.Error("append must keep the dict cached")
	}
	d3, hit, _ := tab.EnsureColumnDict(0)
	if !hit || d3 != d {
		t.Error("post-append request must hit the incrementally extended dict")
	}
	if len(d3.Ords) != 4 || len(d3.Keys) != 3 {
		t.Errorf("extended dict must cover all rows: keys=%v ords=%v", d3.Keys, d3.Ords)
	}
	if err := tab.Truncate(); err != nil {
		t.Fatal(err)
	}
	if tab.ColumnDict(0) != nil {
		t.Error("truncate must invalidate the dict cache")
	}
}

func TestAppendAndInvalidationIndexCacheContract(t *testing.T) {
	build := func(tab *Table) {
		tab.EnsureIndex([]int{0})
		tab.EnsureHashIndex([]int{0})
		tab.EnsureColumnDict(0)
	}
	checkDropped := func(t *testing.T, tab *Table, op string) {
		t.Helper()
		if tab.Index([]int{0}) != nil {
			t.Errorf("%s left a stale sorted index", op)
		}
		if tab.HashIndex([]int{0}) != nil {
			t.Errorf("%s left a stale hash index", op)
		}
		if tab.ColumnDict(0) != nil {
			t.Errorf("%s left a stale column dict", op)
		}
	}
	// Appends extend the hash index and column dict incrementally; only the
	// sorted index (no cheap extension) is dropped.
	checkExtended := func(t *testing.T, tab *Table, op string, rows int) {
		t.Helper()
		if tab.Index([]int{0}) != nil {
			t.Errorf("%s left a stale sorted index", op)
		}
		idx := tab.HashIndex([]int{0})
		if idx == nil {
			t.Fatalf("%s dropped the hash index instead of extending it", op)
		}
		if idx.Rel().Len() != rows {
			t.Errorf("%s: hash index covers %d rows, want %d", op, idx.Rel().Len(), rows)
		}
		d := tab.ColumnDict(0)
		if d == nil {
			t.Fatalf("%s dropped the column dict instead of extending it", op)
		}
		if len(d.Ords) != rows {
			t.Errorf("%s: dict covers %d rows, want %d", op, len(d.Ords), rows)
		}
	}
	c := newCat()
	tab, _ := c.Create("t", sch(), StoreMem, true)
	tab.Insert(tu(1, 1))

	build(tab)
	tab.Insert(tu(2, 2))
	checkExtended(t, tab, "Insert", 2)

	build(tab)
	r := relation.New(sch())
	r.Append(tu(3, 3))
	tab.InsertRelation(r)
	checkExtended(t, tab, "InsertRelation", 3)

	build(tab)
	tab.Truncate()
	checkDropped(t, tab, "Truncate")

	tab.Insert(tu(4, 4))
	build(tab)
	if err := c.RenameTable("t", "t2"); err != nil {
		t.Fatal(err)
	}
	checkDropped(t, tab, "RenameTable")
}

func TestRenameInvalidatesMaterializationCache(t *testing.T) {
	c := newCat()
	tab, _ := c.Create("old", sch(), StoreMem, false)
	tab.Insert(tu(1, 1))
	r, err := tab.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if r.Sch[0].Table != "old" {
		t.Fatalf("qualified table = %q", r.Sch[0].Table)
	}
	if err := c.RenameTable("old", "new"); err != nil {
		t.Fatal(err)
	}
	r2, err := tab.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if r2.Sch[0].Table != "new" {
		t.Errorf("materialization after rename still qualified %q", r2.Sch[0].Table)
	}
}

// TestUpdateRows: the rows at the given positions change and every other
// row stays, in the materialization (the header a reader holds, on a
// private table) and in the store — in place on memory and paged stores,
// by a rewrite when a paged record changes length.
func TestUpdateRows(t *testing.T) {
	for _, kind := range []StoreKind{StoreMem, StorePaged} {
		c := newCat()
		tab, err := c.Create("t", sch(), kind, true)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 500; i++ {
			if err := tab.Insert(tu(i, i)); err != nil {
				t.Fatal(err)
			}
		}
		before, err := tab.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		ver := tab.Version()
		want := append([]relation.Tuple(nil), before.Tuples...)
		want[3], want[400] = tu(3, -3), relation.Tuple{value.Int(400), value.Null}
		if err := tab.UpdateRows([]int{3, 400}, []relation.Tuple{want[3], want[400]}); err != nil {
			t.Fatal(err)
		}
		after, err := tab.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if after != before || tab.Version() == ver || tab.Rows() != 500 {
			t.Fatalf("kind %d: header kept %v, version moved %v, rows %d", kind, after == before, tab.Version() != ver, tab.Rows())
		}
		var scanned []relation.Tuple
		if err := tab.Store.Scan(func(tu relation.Tuple) bool {
			scanned = append(scanned, tu)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !after.Tuples[i].Equal(want[i]) || !scanned[i].Equal(want[i]) {
				t.Fatalf("kind %d row %d: cache %v, store %v, want %v", kind, i, after.Tuples[i], scanned[i], want[i])
			}
		}
	}
}
