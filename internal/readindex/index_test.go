package readindex

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pravega-go/pravega/internal/blockcache"
)

func TestAVLInsertLookup(t *testing.T) {
	var tr tree
	for i := 0; i < 1000; i++ {
		tr.put(int64(i*7%1000), &item{Entry: Entry{Offset: int64(i * 7 % 1000)}})
	}
	if tr.size != 1000 {
		t.Fatalf("size %d", tr.size)
	}
	if !tr.validate() {
		t.Fatal("AVL invariant broken after inserts")
	}
	for i := 0; i < 1000; i++ {
		if e := tr.get(int64(i)); e == nil || e.Offset != int64(i) {
			t.Fatalf("get(%d) = %v", i, e)
		}
	}
	if tr.get(5000) != nil {
		t.Fatal("get of missing key")
	}
}

func TestAVLDelete(t *testing.T) {
	var tr tree
	for i := 0; i < 500; i++ {
		tr.put(int64(i), &item{Entry: Entry{Offset: int64(i)}})
	}
	for i := 0; i < 500; i += 2 {
		if !tr.delete(int64(i)) {
			t.Fatalf("delete(%d) failed", i)
		}
	}
	if tr.delete(0) {
		t.Fatal("double delete succeeded")
	}
	if tr.size != 250 {
		t.Fatalf("size %d after deletes", tr.size)
	}
	if !tr.validate() {
		t.Fatal("AVL invariant broken after deletes")
	}
	for i := 0; i < 500; i++ {
		got := tr.get(int64(i))
		if (i%2 == 0) != (got == nil) {
			t.Fatalf("get(%d) = %v", i, got)
		}
	}
}

func TestAVLFloorCeiling(t *testing.T) {
	var tr tree
	for _, k := range []int64{10, 20, 30, 40} {
		tr.put(k, &item{Entry: Entry{Offset: k}})
	}
	cases := []struct {
		q           int64
		floor, ceil int64 // -1 = nil
	}{
		{5, -1, 10}, {10, 10, 10}, {15, 10, 20}, {40, 40, 40}, {45, 40, -1},
	}
	for _, tc := range cases {
		f := tr.floor(tc.q)
		if (f == nil) != (tc.floor == -1) || (f != nil && f.Offset != tc.floor) {
			t.Fatalf("floor(%d) = %v, want %d", tc.q, f, tc.floor)
		}
		cl := tr.ceiling(tc.q)
		if (cl == nil) != (tc.ceil == -1) || (cl != nil && cl.Offset != tc.ceil) {
			t.Fatalf("ceiling(%d) = %v, want %d", tc.q, cl, tc.ceil)
		}
	}
	if tr.min().Offset != 10 || tr.max().Offset != 40 {
		t.Fatal("min/max wrong")
	}
}

func TestAVLAscendRange(t *testing.T) {
	var tr tree
	for i := int64(0); i < 20; i++ {
		tr.put(i*10, &item{Entry: Entry{Offset: i * 10}})
	}
	var got []int64
	tr.ascend(35, 95, func(e *item) bool {
		got = append(got, e.Offset)
		return true
	})
	want := []int64{40, 50, 60, 70, 80, 90}
	if len(got) != len(want) {
		t.Fatalf("ascend = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ascend = %v, want %v", got, want)
		}
	}
	// Early stop.
	count := 0
	tr.ascend(0, 200, func(*item) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
	}
}

// TestAVLRandomOpsProperty: the tree stays balanced and ordered under any
// mix of inserts and deletes.
func TestAVLRandomOpsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tr tree
		model := map[int64]bool{}
		for op := 0; op < 300; op++ {
			k := int64(rng.Intn(100))
			if rng.Intn(2) == 0 {
				tr.put(k, &item{Entry: Entry{Offset: k}})
				model[k] = true
			} else {
				deleted := tr.delete(k)
				if deleted != model[k] {
					return false
				}
				delete(model, k)
			}
			if !tr.validate() || tr.size != len(model) {
				return false
			}
		}
		for k := range model {
			if tr.get(k) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexFindAndExtend(t *testing.T) {
	x := New()
	x.Add(Entry{Offset: 0, Length: 100, Where: InCache, CacheAddr: 1})
	x.Add(Entry{Offset: 100, Length: 50, Where: InCache, CacheAddr: 2})

	e, err := x.Find(120)
	if err != nil || e.Offset != 100 {
		t.Fatalf("Find(120) = %+v, %v", e, err)
	}
	if _, err := x.Find(150); err == nil {
		t.Fatal("Find past end must fail")
	}
	if !x.ExtendTail(25, 3) {
		t.Fatal("ExtendTail failed")
	}
	e, err = x.Find(160)
	if err != nil || e.Offset != 100 || e.Length != 75 || e.CacheAddr != 3 {
		t.Fatalf("after ExtendTail: %+v, %v", e, err)
	}
	if x.Length() != 175 {
		t.Fatalf("Length = %d", x.Length())
	}
	tail, ok := x.TailEntry()
	if !ok || tail.Offset != 100 {
		t.Fatalf("TailEntry = %+v, %v", tail, ok)
	}
}

func TestIndexTruncate(t *testing.T) {
	x := New()
	for i := int64(0); i < 10; i++ {
		x.Add(Entry{Offset: i * 10, Length: 10, Where: InCache, CacheAddr: blockcache.Address(i + 1)})
	}
	freed := x.TruncateBefore(35)
	// Entries [0,10) [10,20) [20,30) end at or before 35? [30,40) spans it
	// and stays.
	if len(freed) != 3 {
		t.Fatalf("freed %d entries, want 3: %v", len(freed), freed)
	}
	if x.Truncation() != 35 {
		t.Fatalf("Truncation = %d", x.Truncation())
	}
	if _, err := x.Find(20); err == nil {
		t.Fatal("Find below truncation must fail")
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIndexEvictStalest(t *testing.T) {
	x := New()
	for i := int64(0); i < 5; i++ {
		x.Add(Entry{Offset: i * 10, Length: 10, Where: InCache, CacheAddr: blockcache.Address(i + 1)})
	}
	// Touch entry 1 to freshen it: use order is now 0, 2, 3, 4, 1.
	if _, err := x.Find(10); err != nil {
		t.Fatal(err)
	}
	// Nothing at or below the watermark: nothing to take.
	if got := x.EvictStalest(5, 100); len(got) != 0 || x.Removals() != 0 {
		t.Fatalf("evicted %v below a watermark no entry ends under", got)
	}
	// 15 bytes wanted, watermark after entry 3: entries 0 and 2, stalest
	// first; the freshened entry 1 stays although it is below the watermark.
	got := x.EvictStalest(40, 15)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("evicted %v, want [blk#1 blk#3]", got)
	}
	if x.CachedBytes() != 30 || x.Removals() != 2 {
		t.Fatalf("CachedBytes = %d, Removals = %d", x.CachedBytes(), x.Removals())
	}
	if _, err := x.Find(5); !errors.Is(err, ErrGap) {
		t.Fatalf("Find in an evicted range: %v", err)
	}
	// Entry 4 ends beyond the watermark and is stepped over; 3 and 1 go.
	got = x.EvictStalest(40, 1000)
	if len(got) != 2 || got[0] != 4 || got[1] != 2 {
		t.Fatalf("evicted %v, want [blk#4 blk#2]", got)
	}
	if e, ok := x.TailEntry(); !ok || e.Offset != 40 || x.CachedBytes() != 10 {
		t.Fatalf("tail %+v, cached %d", e, x.CachedBytes())
	}
	// Replacing an entry in place counts as a removal too.
	x.Add(Entry{Offset: 40, Length: 10, Where: InLTS})
	if x.CachedBytes() != 0 || x.Removals() != 5 {
		t.Fatalf("after replace: CachedBytes = %d, Removals = %d", x.CachedBytes(), x.Removals())
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexSplitInsertsOfOversizedOp models the container splitting one
// operation larger than its entry bound: the pieces are contiguous entries,
// the first of them topping up the open tail entry.
func TestIndexSplitInsertsOfOversizedOp(t *testing.T) {
	const bound = 256
	x := New()
	x.Add(Entry{Offset: 0, Length: 100, Where: InCache, CacheAddr: 1})
	length, addr := int64(100), blockcache.Address(1)
	for op := int64(3*bound + 17); op > 0; {
		addr++
		tail, _ := x.TailEntry()
		if room := bound - tail.Length; room > 0 {
			n := min(room, op)
			if !x.ExtendTail(n, addr) {
				t.Fatal("ExtendTail failed")
			}
			length, op = length+n, op-n
			continue
		}
		n := min(bound, op)
		x.Add(Entry{Offset: length, Length: n, Where: InCache, CacheAddr: addr})
		length, op = length+n, op-n
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	entries := x.Entries()
	if len(entries) != 4 || x.Length() != length || x.CachedBytes() != length {
		t.Fatalf("%d entries, Length %d, CachedBytes %d, want 4 entries of %d bytes", len(entries), x.Length(), x.CachedBytes(), length)
	}
	for i, e := range entries {
		if e.Length > bound || (i > 0 && e.Offset != entries[i-1].End()) {
			t.Fatalf("entry %d = %+v after %+v", i, e, entries[max(i-1, 0)])
		}
	}
	for off := int64(0); off < length; off += 31 {
		if e, err := x.Find(off); err != nil || off < e.Offset || off >= e.End() {
			t.Fatalf("Find(%d) = %+v, %v", off, e, err)
		}
	}
}

func TestIndexValidateDetectsOverlap(t *testing.T) {
	x := New()
	x.Add(Entry{Offset: 0, Length: 20})
	x.Add(Entry{Offset: 10, Length: 20}) // overlaps
	if err := x.Validate(); err == nil {
		t.Fatal("overlap not detected")
	}
}

// TestIndexContiguousAppendProperty: modelling the segment container's use
// — contiguous appends plus occasional truncation — the index stays valid
// and Find returns the covering entry for every retained offset.
func TestIndexContiguousAppendProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := New()
		var length int64
		for op := 0; op < 100; op++ {
			n := int64(1 + rng.Intn(50))
			if tail, ok := x.TailEntry(); ok && rng.Intn(2) == 0 {
				_ = tail
				if !x.ExtendTail(n, blockcache.Address(op+1)) {
					return false
				}
			} else {
				x.Add(Entry{Offset: length, Length: n, Where: InCache, CacheAddr: blockcache.Address(op + 1)})
			}
			length += n
			if rng.Intn(10) == 0 && length > 0 {
				x.TruncateBefore(rng.Int63n(length))
			}
			if rng.Intn(10) == 0 {
				_, _ = x.Find(x.Truncation() + rng.Int63n(length-x.Truncation()))
			}
			if x.Validate() != nil {
				return false
			}
		}
		if x.Length() != length {
			return false
		}
		// Every offset from truncation to length resolves or is truncated.
		for off := x.Truncation(); off < length; off += 13 {
			if e, err := x.Find(off); err != nil {
				// Allowed only if the covering entry was fully below the
				// truncation point (dropped) — but then off < truncation,
				// contradiction.
				return false
			} else if off < e.Offset || off >= e.End() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
