package readindex

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/pravega-go/pravega/internal/blockcache"
)

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
	if _, err := x.Find(20); !errors.Is(err, ErrGap) {
		t.Fatalf("Find in a truncated entry: %v", err)
	}
	if e, err := x.Find(31); err != nil || e.Offset != 30 {
		t.Fatalf("Find(31) = %+v, %v", e, err)
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
	if len(entries) != 4 || entries[3].End() != length || x.CachedBytes() != length {
		t.Fatalf("%d entries ending at %d, CachedBytes %d, want 4 entries of %d bytes", len(entries), entries[len(entries)-1].End(), x.CachedBytes(), length)
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

// TestIndexMatchesModel runs random tail adds, tail extensions, adds at
// arbitrary offsets (replacing an entry at the same offset included), Find,
// TruncateBefore and EvictStalest against a map of entries and a list of
// cached offsets in use order, checking every result and Validate after
// each step. Entries start on a grid of slot bytes and stay within their
// slot, so no two overlap wherever they are added.
func TestIndexMatchesModel(t *testing.T) {
	const slot, slots = 100, 40
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x := New()
		model := map[int64]Entry{}
		var use []int64 // cached offsets, least recently used first
		var removals int64
		var nextAddr blockcache.Address
		touch := func(off int64) {
			use = slices.DeleteFunc(use, func(o int64) bool { return o == off })
			if e, ok := model[off]; ok && e.Where == InCache {
				use = append(use, off)
			}
		}
		remove := func(off int64) {
			if model[off].Where == InCache {
				removals++
			}
			delete(model, off)
			touch(off)
		}
		sorted := func() []Entry {
			out := make([]Entry, 0, len(model))
			for _, e := range model {
				out = append(out, e)
			}
			slices.SortFunc(out, func(a, b Entry) int { return int(a.Offset - b.Offset) })
			return out
		}
		add := func(off int64) {
			nextAddr++
			e := Entry{Offset: off, Length: int64(1 + rng.Intn(slot)), Where: InCache, CacheAddr: nextAddr}
			if rng.Intn(5) == 0 {
				e.Where, e.CacheAddr = InLTS, 0
			}
			x.Add(e)
			if _, ok := model[off]; ok {
				remove(off)
			}
			model[off] = e
			touch(off)
		}
		for step := 0; step < 400; step++ {
			all := sorted()
			var tail *Entry
			if len(all) > 0 {
				tail = &all[len(all)-1]
			}
			switch op := rng.Intn(6); op {
			case 0: // add at the tail
				off := int64(0)
				if tail != nil {
					off = tail.Offset + slot
				}
				add(off)
			case 1: // extend the tail within its slot
				n := int64(1 + rng.Intn(slot))
				if tail != nil {
					n = min(n, slot-tail.Length)
				}
				if n == 0 {
					break
				}
				nextAddr++
				want := tail != nil && tail.Where == InCache
				if got := x.ExtendTail(n, nextAddr); got != want {
					t.Fatalf("seed %d step %d: ExtendTail of tail %v = %v", seed, step, tail, got)
				}
				if want {
					tail.Length += n
					tail.CacheAddr = nextAddr
					model[tail.Offset] = *tail
				}
			case 2: // add anywhere, replacing what is there
				add(int64(rng.Intn(slots)) * slot)
			case 3: // find
				off := rng.Int63n(slots * slot)
				e, err := x.Find(off)
				var want *Entry
				for i := range all {
					if all[i].Offset <= off && off < all[i].End() {
						want = &all[i]
					}
				}
				if want == nil {
					if !errors.Is(err, ErrGap) {
						t.Fatalf("seed %d step %d: Find(%d) = %+v, %v; want ErrGap", seed, step, off, e, err)
					}
					break
				}
				if err != nil || e != *want {
					t.Fatalf("seed %d step %d: Find(%d) = %+v, %v; want %+v", seed, step, off, e, err, *want)
				}
				touch(want.Offset)
			case 4: // truncate
				off := rng.Int63n(slots * slot)
				var want []blockcache.Address
				for _, e := range all {
					if e.End() <= off {
						if e.Where == InCache {
							want = append(want, e.CacheAddr)
						}
						remove(e.Offset)
					}
				}
				if got := x.TruncateBefore(off); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: TruncateBefore(%d) freed %v, want %v", seed, step, off, got, want)
				}
			case 5: // evict
				limit, wantBytes := rng.Int63n(slots*slot), int64(1+rng.Intn(3*slot))
				var want []blockcache.Address
				left := wantBytes
				for _, off := range slices.Clone(use) {
					if left <= 0 {
						break
					}
					if e := model[off]; e.End() <= limit {
						want = append(want, e.CacheAddr)
						left -= e.Length
						remove(off)
					}
				}
				if got := x.EvictStalest(limit, wantBytes); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: EvictStalest(%d, %d) freed %v, want %v", seed, step, limit, wantBytes, got, want)
				}
			}
			if err := x.Validate(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			var cached int64
			for _, e := range model {
				if e.Where == InCache {
					cached += e.Length
				}
			}
			if got := x.Entries(); !slices.Equal(got, sorted()) || x.CachedBytes() != cached || x.Removals() != removals {
				t.Fatalf("seed %d step %d: index holds %v (%d cached bytes, %d removals), model %v (%d, %d)",
					seed, step, got, x.CachedBytes(), x.Removals(), sorted(), cached, removals)
			}
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
		var length, truncated int64 // truncated: offsets below it are gone
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
				at := rng.Int63n(length)
				truncated = max(truncated, at)
				x.TruncateBefore(at)
			}
			if rng.Intn(10) == 0 {
				_, _ = x.Find(truncated + rng.Int63n(length-truncated))
			}
			if x.Validate() != nil {
				return false
			}
		}
		if tail, ok := x.TailEntry(); !ok || tail.End() != length {
			return false
		}
		// Every offset from truncation to length resolves or is truncated.
		for off := truncated; off < length; off += 13 {
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
