package storage

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

func TestCodecRoundTrip(t *testing.T) {
	tuples := []relation.Tuple{
		{value.Int(42), value.Float(3.14), value.Str("hello"), value.Bool(true), value.Null},
		{},
		{value.Str("")},
		{value.Int(-1), value.Int(math.MaxInt64), value.Int(math.MinInt64)},
		{value.Float(math.Inf(1)), value.Float(math.Inf(-1))},
	}
	var buf []byte
	for _, in := range tuples {
		buf = EncodeTuple(buf[:0], in)
		out, n, err := DecodeTuple(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", in, err)
		}
		if n != len(buf) {
			t.Errorf("decode consumed %d of %d bytes", n, len(buf))
		}
		if !out.Equal(in) {
			t.Errorf("round trip %v -> %v", in, out)
		}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		in := relation.Tuple{value.Int(i), value.Float(fl), value.Str(s), value.Bool(b), value.Null}
		buf := EncodeTuple(nil, in)
		out, _, err := DecodeTuple(buf)
		if err != nil {
			return false
		}
		// NaN breaks Equal; compare bits for the float slot.
		if math.IsNaN(fl) {
			return math.IsNaN(out[1].F)
		}
		return out.Equal(in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCodecCorruptInput(t *testing.T) {
	good := EncodeTuple(nil, relation.Tuple{value.Int(1), value.Str("abc")})
	for cut := 1; cut < len(good); cut++ {
		if _, _, err := DecodeTuple(good[:cut]); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
	if _, _, err := DecodeTuple([]byte{}); err == nil {
		t.Error("empty input not detected")
	}
	bad := append([]byte{}, good...)
	bad[1] = 200 // invalid kind byte
	if _, _, err := DecodeTuple(bad); err == nil {
		t.Error("invalid kind not detected")
	}
}

func TestPageInsertAndRead(t *testing.T) {
	var p Page
	p.Reset()
	if p.NumSlots() != 0 {
		t.Fatal("fresh page not empty")
	}
	recs := [][]byte{[]byte("alpha"), []byte("b"), make([]byte, 100)}
	for i, r := range recs {
		slot, ok := p.Insert(r)
		if !ok || slot != i {
			t.Fatalf("insert %d failed (slot=%d ok=%v)", i, slot, ok)
		}
	}
	for i, r := range recs {
		got, err := p.Record(i)
		if err != nil || string(got) != string(r) {
			t.Errorf("record %d mismatch: %q vs %q (%v)", i, got, r, err)
		}
	}
	if _, err := p.Record(3); err == nil {
		t.Error("out-of-range slot should error")
	}
	if _, err := p.Record(-1); err == nil {
		t.Error("negative slot should error")
	}
}

func TestPageFillsUp(t *testing.T) {
	var p Page
	p.Reset()
	rec := make([]byte, 1000)
	n := 0
	for {
		if _, ok := p.Insert(rec); !ok {
			break
		}
		n++
	}
	// 8192 bytes / (1000+4 slot) ≈ 8 records.
	if n != 8 {
		t.Errorf("page held %d 1000-byte records, want 8", n)
	}
	if _, ok := p.Insert([]byte("x")); !ok {
		t.Error("small record should still fit after big ones stop fitting")
	}
}

func TestPageRejectsOversized(t *testing.T) {
	var p Page
	p.Reset()
	if _, ok := p.Insert(make([]byte, PageSize)); ok {
		t.Error("page-sized record must not fit (header+slot overhead)")
	}
}

func TestDiskReadWrite(t *testing.T) {
	d := NewDisk()
	id := d.Allocate()
	src := make([]byte, PageSize)
	src[0], src[PageSize-1] = 0xAB, 0xCD
	if err := d.Write(id, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, PageSize)
	if err := d.Read(id, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0xAB || dst[PageSize-1] != 0xCD {
		t.Error("disk round trip corrupted data")
	}
	if err := d.Read(PageID(999), dst); err == nil {
		t.Error("read of unallocated page should error")
	}
	if d.Reads != 1 || d.Writes != 1 {
		t.Errorf("counters: reads=%d writes=%d", d.Reads, d.Writes)
	}
	d.Free(id)
	if d.NumPages() != 0 {
		t.Error("free should release page")
	}
}

func TestBufferPoolEvictionWritesBack(t *testing.T) {
	d := NewDisk()
	bp := NewBufferPool(d, 2)
	ids := make([]PageID, 3)
	for i := range ids {
		id, p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Insert([]byte{byte(i + 1)})
		if err := bp.Unpin(id, true); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	// Pool capacity 2, so page 0 must have been evicted and written back.
	p, err := bp.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.Record(0)
	if err != nil || rec[0] != 1 {
		t.Errorf("evicted page lost data: %v %v", rec, err)
	}
	bp.Unpin(ids[0], false)
	if bp.Misses == 0 {
		t.Error("expected at least one miss after eviction")
	}
}

func TestBufferPoolPinnedPagesNotEvicted(t *testing.T) {
	d := NewDisk()
	bp := NewBufferPool(d, 1)
	id, _, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	// Page is still pinned; a second page cannot be placed.
	if _, _, err := bp.NewPage(); err == nil {
		t.Error("expected pool-exhausted error while all frames pinned")
	}
	if err := bp.Unpin(id, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := bp.NewPage(); err != nil {
		t.Errorf("after unpin, new page should fit: %v", err)
	}
}

func TestBufferPoolUnpinErrors(t *testing.T) {
	bp := NewBufferPool(NewDisk(), 2)
	if err := bp.Unpin(PageID(5), false); err == nil {
		t.Error("unpin of unfetched page should error")
	}
	id, _, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(id, false)
	if err := bp.Unpin(id, false); err == nil {
		t.Error("unpin underflow should error")
	}
}

func TestBufferPoolFlushAll(t *testing.T) {
	d := NewDisk()
	bp := NewBufferPool(d, 4)
	id, p, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	p.Insert([]byte("persist"))
	bp.Unpin(id, true)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Verify on-disk image directly.
	raw := make([]byte, PageSize)
	if err := d.Read(id, raw); err != nil {
		t.Fatal(err)
	}
	var fresh Page
	fresh.SetBytes(raw)
	rec, err := fresh.Record(0)
	if err != nil || string(rec) != "persist" {
		t.Errorf("flushed page content: %q %v", rec, err)
	}
}

func TestWALAppendReplay(t *testing.T) {
	w := NewWAL()
	msgs := []string{"one", "two", "three"}
	for _, m := range msgs {
		w.AppendInsert("e", []byte(m))
	}
	w.Sync()
	var got []Record
	if err := w.ReplayRecords(func(r Record) { got = append(got, r) }); err != nil {
		t.Fatalf("replay reported corruption: %v", err)
	}
	if len(got) != 3 || string(got[0].Payload) != "one" || string(got[2].Payload) != "three" {
		t.Errorf("replay = %v", got)
	}
	for i, r := range got {
		if r.Op != OpInsert || r.Table != "e" {
			t.Errorf("record %d: op=%v table=%q", i, r.Op, r.Table)
		}
	}
	if w.Records != 3 || w.Syncs != 1 || w.Bytes == 0 {
		t.Errorf("counters: %+v", w)
	}
	w.Truncate()
	if w.Records != 0 || w.Bytes != 0 {
		t.Error("truncate should reset counters")
	}
}

func TestWALCommitMarkers(t *testing.T) {
	w := NewWAL()
	w.AppendCommit() // nothing pending: elided
	if w.Commits != 0 || w.Records != 0 {
		t.Fatalf("empty commit not elided: %+v", w)
	}
	w.AppendInsert("e", []byte("x"))
	w.AppendCommit()
	w.AppendCommit() // second marker in a row: elided again
	if w.Commits != 1 {
		t.Fatalf("Commits = %d, want 1", w.Commits)
	}
	var ops []Op
	if err := w.ReplayRecords(func(r Record) { ops = append(ops, r.Op) }); err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || ops[0] != OpInsert || ops[1] != OpCommit {
		t.Errorf("ops = %v", ops)
	}
	// Notes are cost-accounting only: they never arm a commit marker.
	w.AppendNote([]byte("undo image"))
	w.AppendCommit()
	if w.Commits != 1 {
		t.Error("note-only statement must not produce a commit marker")
	}
}

func TestWALSnapshotLoadRoundTrip(t *testing.T) {
	w := NewWAL()
	w.AppendCreate("v", []byte{0})
	w.AppendInsert("v", []byte("t1"))
	w.AppendCommit()
	img := w.Snapshot()
	w2 := NewWAL()
	w2.Load(img)
	if w2.Records != 3 {
		t.Fatalf("loaded Records = %d, want 3", w2.Records)
	}
	var got []Op
	if err := w2.ReplayRecords(func(r Record) { got = append(got, r.Op) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != OpCreate || got[2] != OpCommit {
		t.Errorf("ops = %v", got)
	}
}

func TestWALDetectsBitFlip(t *testing.T) {
	w := NewWAL()
	w.AppendInsert("e", []byte("aaaa"))
	w.AppendInsert("e", []byte("bbbb"))
	w.AppendInsert("e", []byte("cccc"))
	// Flip one payload bit in the middle record.
	frameLen := len(w.buf) / 3
	w.buf[frameLen+frameLen/2] ^= 0x01
	var seen int
	err := w.Replay(func([]byte) { seen++ })
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %v", err)
	}
	if ce.Record != 1 {
		t.Errorf("corruption located at record %d, want 1", ce.Record)
	}
	if ce.Offset != int64(frameLen) {
		t.Errorf("corruption located at offset %d, want %d", ce.Offset, frameLen)
	}
	if seen != 1 {
		t.Errorf("replay delivered %d records before the bad frame, want 1", seen)
	}
}

func TestWALDetectsTruncation(t *testing.T) {
	w := NewWAL()
	w.AppendInsert("e", []byte("aaaa"))
	w.AppendInsert("e", []byte("bbbb"))
	whole := w.Snapshot()
	frameLen := len(whole) / 2
	// Every proper prefix that cuts into the second frame must locate the
	// tear at record 1 and still deliver the intact first record.
	for cut := frameLen + 1; cut < len(whole); cut++ {
		w2 := NewWAL()
		w2.Load(whole[:cut])
		var seen int
		err := w2.Replay(func([]byte) { seen++ })
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("cut %d: want *CorruptError, got %v", cut, err)
		}
		if ce.Record != 1 || ce.Offset != int64(frameLen) {
			t.Errorf("cut %d: located record %d offset %d, want 1/%d", cut, ce.Record, ce.Offset, frameLen)
		}
		if seen != 1 {
			t.Errorf("cut %d: delivered %d intact records, want 1", cut, seen)
		}
	}
}

func TestSchemaCodecRoundTrip(t *testing.T) {
	sch := schema.Schema{
		{Name: "src", Type: value.KindInt},
		{Name: "rank", Type: value.KindFloat},
		{Name: "label", Type: value.KindString},
	}
	buf := EncodeSchema(nil, sch)
	out, err := DecodeSchema(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0].Name != "src" || out[2].Type != value.KindString {
		t.Errorf("round trip = %v", out)
	}
	for cut := 1; cut < len(buf); cut++ {
		if _, err := DecodeSchema(buf[:cut]); err == nil {
			t.Errorf("schema truncation at %d not detected", cut)
		}
	}
}

func TestFaultPlanModes(t *testing.T) {
	// FailAt: exactly one fault at the scripted index, shared across stores.
	plan := &FaultPlan{FailAt: 3}
	a := &FaultyStore{Inner: NewMemStore(), Plan: plan}
	b := &FaultyStore{Inner: NewMemStore(), Plan: plan}
	tu := relation.Tuple{value.Int(1)}
	if err := a.Insert(tu); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(tu); err != nil {
		t.Fatal(err)
	}
	if err := a.Insert(tu); !errors.Is(err, ErrInjected) {
		t.Fatalf("op 3 should fault, got %v", err)
	}
	if err := a.Insert(tu); err != nil {
		t.Fatalf("op 4 should pass, got %v", err)
	}
	if plan.Ops() != 4 || plan.Injected() != 1 {
		t.Errorf("ops=%d injected=%d", plan.Ops(), plan.Injected())
	}

	// EveryNth.
	nth := &FaultyStore{Inner: NewMemStore(), Plan: &FaultPlan{EveryNth: 2}}
	var faults int
	for i := 0; i < 10; i++ {
		if err := nth.Insert(tu); err != nil {
			faults++
		}
	}
	if faults != 5 {
		t.Errorf("every-2nd plan injected %d of 10, want 5", faults)
	}

	// Transient faults match both sentinels.
	tr := &FaultyStore{Inner: NewMemStore(), Plan: &FaultPlan{FailAt: 1, Transient: true}}
	err := tr.Insert(tu)
	if !errors.Is(err, ErrTransient) || !errors.Is(err, ErrInjected) {
		t.Fatalf("transient fault must match both sentinels: %v", err)
	}

	// Legacy FailAfter mode still works when Plan is nil.
	legacy := &FaultyStore{Inner: NewMemStore(), FailAfter: 1}
	if err := legacy.Insert(tu); err != nil {
		t.Fatal(err)
	}
	if err := legacy.Insert(tu); !errors.Is(err, ErrInjected) {
		t.Fatalf("legacy mode lost: %v", err)
	}
}

func TestRetryingStoreAbsorbsTransients(t *testing.T) {
	plan := &FaultPlan{EveryNth: 2, Transient: true}
	s := &RetryingStore{
		Inner:  &FaultyStore{Inner: NewMemStore(), Plan: plan},
		Policy: RetryPolicy{Attempts: 3},
	}
	tu := relation.Tuple{value.Int(7)}
	for i := 0; i < 20; i++ {
		if err := s.Insert(tu); err != nil {
			t.Fatalf("insert %d not absorbed: %v", i, err)
		}
	}
	if s.Len() != 20 {
		t.Fatalf("Len = %d, want 20", s.Len())
	}
	if plan.Injected() == 0 {
		t.Fatal("plan never injected — test proves nothing")
	}
	var n int
	if err := s.Scan(func(relation.Tuple) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("scan visited %d, want 20", n)
	}

	// Hard faults are not retried away.
	hard := &RetryingStore{
		Inner:  &FaultyStore{Inner: NewMemStore(), Plan: &FaultPlan{FailAt: 1}},
		Policy: RetryPolicy{Attempts: 5},
	}
	if err := hard.Insert(tu); !errors.Is(err, ErrInjected) {
		t.Fatalf("hard fault should surface, got %v", err)
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	calls := 0
	err := RetryPolicy{Attempts: 4, Backoff: time.Microsecond}.Do(func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("flaky: %w", ErrTransient)
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	// Exhausted attempts return the transient error.
	calls = 0
	err = RetryPolicy{Attempts: 2}.Do(func() error { calls++; return ErrTransient })
	if !errors.Is(err, ErrTransient) || calls != 2 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func storeRoundTrip(t *testing.T, s TupleStore) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var want []relation.Tuple
	for i := 0; i < 500; i++ {
		tu := relation.Tuple{value.Int(int64(i)), value.Float(rng.Float64()), value.Str("node")}
		want = append(want, tu)
		if err := s.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 500 {
		t.Fatalf("Len = %d", s.Len())
	}
	i := 0
	err := s.Scan(func(tu relation.Tuple) bool {
		if !tu.Equal(want[i]) {
			t.Errorf("tuple %d mismatch: %v vs %v", i, tu, want[i])
		}
		i++
		return true
	})
	if err != nil || i != 500 {
		t.Fatalf("scan visited %d, err %v", i, err)
	}
	// Early-exit scan.
	i = 0
	s.Scan(func(relation.Tuple) bool { i++; return i < 10 })
	if i != 10 {
		t.Errorf("early-exit scan visited %d", i)
	}
	if err := s.Truncate(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Error("truncate should empty the store")
	}
	n := 0
	s.Scan(func(relation.Tuple) bool { n++; return true })
	if n != 0 {
		t.Error("scan after truncate returned tuples")
	}
}

func TestMemStore(t *testing.T) { storeRoundTrip(t, NewMemStore()) }

func TestPagedStoreUnlogged(t *testing.T) {
	bp := NewBufferPool(NewDisk(), 8)
	storeRoundTrip(t, NewPagedStore(bp, nil, "t"))
}

func TestPagedStoreLogged(t *testing.T) {
	bp := NewBufferPool(NewDisk(), 8)
	w := NewWAL()
	s := NewPagedStore(bp, w, "t")
	storeRoundTrip(t, s)
	// 500 inserts plus the truncate at the end of the round trip.
	if w.Records != 501 {
		t.Errorf("WAL should hold one record per mutation, got %d", w.Records)
	}
	inserts, truncates := 0, 0
	if err := w.ReplayRecords(func(r Record) {
		if r.Table != "t" {
			t.Errorf("record names table %q", r.Table)
		}
		switch r.Op {
		case OpInsert:
			inserts++
		case OpTruncate:
			truncates++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if inserts != 500 || truncates != 1 {
		t.Errorf("inserts=%d truncates=%d", inserts, truncates)
	}
}

func TestPagedStoreSurvivesEviction(t *testing.T) {
	// Tiny pool forces constant eviction; data must survive.
	bp := NewBufferPool(NewDisk(), 2)
	s := NewPagedStore(bp, nil, "t")
	for i := 0; i < 2000; i++ {
		if err := s.Insert(relation.Tuple{value.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	sum := int64(0)
	s.Scan(func(tu relation.Tuple) bool { sum += tu[0].AsInt(); return true })
	if want := int64(2000) * 1999 / 2; sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
	if s.BytesUsed() == 0 {
		t.Error("paged store should report page bytes")
	}
	s.Truncate()
	if bp.Disk().NumPages() != 0 {
		t.Error("truncate should free pages on disk")
	}
}

func TestPagedStoreRejectsHugeTuple(t *testing.T) {
	bp := NewBufferPool(NewDisk(), 2)
	s := NewPagedStore(bp, nil, "t")
	huge := relation.Tuple{value.Str(string(make([]byte, PageSize)))}
	if err := s.Insert(huge); err == nil {
		t.Error("oversized tuple should be rejected")
	}
}

func TestCodecHostileInputs(t *testing.T) {
	// Regressions found by fuzzing: huge arity and string-length varints
	// must be rejected before allocation, not trusted.
	hostile := [][]byte{
		[]byte("\xd7\xdd\x95\xb0:{\xff"), // arity 15670275799
		{1, byte(value.KindString), 0xfa, 0xd1, 0xb1, 0xd1, 0xb1, 0xd1, 0xb1, 0xd1, 0xb1, 0x7a}, // length overflows int
		{2, byte(value.KindInt)}, // arity beyond data
	}
	for i, data := range hostile {
		if _, _, err := DecodeTuple(data); err == nil {
			t.Errorf("hostile input %d accepted", i)
		}
	}
}

func TestWALHostileFrames(t *testing.T) {
	w := NewWAL()
	// A frame claiming a huge record length must fail replay, not panic.
	w.buf = []byte{0xfa, 0xd1, 0xb1, 0xd1, 0xb1, 0xd1, 0xb1, 0xd1, 0xb1, 0x7a, 1, 2, 3, 4}
	if err := w.Replay(func([]byte) {}); err == nil {
		t.Error("hostile frame accepted")
	}
	w.buf = []byte{5, 0, 0, 0} // length 5 but only a checksum left
	if err := w.Replay(func([]byte) {}); err == nil {
		t.Error("short frame accepted")
	}
}

// TestPagedStoreUpdateAt: an unlogged paged store overwrites a record in its
// slot, on any page, when the new encoding has the old length, and reports
// false — changing nothing — when it does not or the store logs.
func TestPagedStoreUpdateAt(t *testing.T) {
	pool := NewBufferPool(NewDisk(), 4)
	s := NewPagedStore(pool, nil, "t")
	want := make([]relation.Tuple, 2000)
	for i := range want {
		want[i] = relation.Tuple{value.Int(int64(i)), value.Float(float64(i))}
		if err := s.Insert(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.pages) < 3 {
		t.Fatalf("fixture spans %d pages, want several", len(s.pages))
	}
	for _, i := range []int{0, 1, 777, 1999} {
		want[i] = relation.Tuple{value.Int(int64(i)), value.Float(-0.5)}
		if ok, err := s.UpdateAt(i, want[i]); !ok || err != nil {
			t.Fatalf("update %d: %v %v", i, ok, err)
		}
	}
	if ok, err := s.UpdateAt(5, relation.Tuple{value.Int(5), value.Null}); ok || err != nil {
		t.Fatalf("a shorter record updated in place: %v %v", ok, err)
	}
	i := 0
	if err := s.Scan(func(tu relation.Tuple) bool {
		if !tu.Equal(want[i]) {
			t.Fatalf("row %d = %v, want %v", i, tu, want[i])
		}
		i++
		return true
	}); err != nil || i != len(want) {
		t.Fatalf("scan: %d rows, %v", i, err)
	}
	logged := NewPagedStore(pool, NewWAL(), "l")
	if err := logged.Insert(want[0]); err != nil {
		t.Fatal(err)
	}
	if ok, _ := logged.UpdateAt(0, want[1]); ok {
		t.Fatal("a logged store updated in place")
	}
}
