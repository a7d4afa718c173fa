package blockcache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func small() Config {
	return Config{BlockSize: 64, BlocksPerBuffer: 8, MaxBuffers: 4}
}

func TestInsertGet(t *testing.T) {
	c := New(small())
	data := []byte("hello, cache")
	addr, err := c.Insert(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(addr)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestInsertSpanningBlocks(t *testing.T) {
	c := New(small())
	data := bytes.Repeat([]byte("abcdefgh"), 40) // 320 bytes = 5 blocks
	addr, err := c.Insert(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(addr)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("multi-block Get mismatch: %d vs %d bytes, %v", len(got), len(data), err)
	}
}

func TestAppendExtendsEntry(t *testing.T) {
	c := New(small())
	addr, err := c.Insert([]byte("start-"))
	if err != nil {
		t.Fatal(err)
	}
	// Repeated appends, crossing block boundaries.
	want := []byte("start-")
	for i := 0; i < 20; i++ {
		chunk := []byte(fmt.Sprintf("piece%02d|", i))
		addr, err = c.Append(addr, chunk)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, chunk...)
	}
	got, err := c.Get(addr)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("appended entry mismatch (%d vs %d bytes, %v)", len(got), len(want), err)
	}
}

func TestAppendToNilAddress(t *testing.T) {
	c := New(small())
	if _, err := c.Append(NilAddress, []byte("x")); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("append to nil: %v", err)
	}
}

func TestDeleteFreesBlocks(t *testing.T) {
	c := New(small())
	data := bytes.Repeat([]byte("z"), 300)
	addr, err := c.Insert(data)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	if err := c.Delete(addr); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.UsedBytes != before.UsedBytes-300 {
		t.Fatalf("UsedBytes %d -> %d", before.UsedBytes, after.UsedBytes)
	}
	if after.FreeBlocks <= before.FreeBlocks {
		t.Fatal("blocks not returned to the free lists")
	}
	if _, err := c.Get(addr); !errors.Is(err, ErrEntryDeleted) {
		t.Fatalf("Get after delete: %v", err)
	}
	if err := c.Delete(addr); !errors.Is(err, ErrEntryDeleted) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestCacheFullAndRecovery(t *testing.T) {
	cfg := small() // capacity: 4 × 8 × 64 = 2048 bytes
	c := New(cfg)
	var addrs []Address
	for {
		addr, err := c.Insert(bytes.Repeat([]byte("f"), 64))
		if err != nil {
			if !errors.Is(err, ErrCacheFull) {
				t.Fatal(err)
			}
			break
		}
		addrs = append(addrs, addr)
	}
	if len(addrs) != 32 {
		t.Fatalf("filled %d blocks, want 32", len(addrs))
	}
	// Free one entry; allocation must succeed again.
	if err := c.Delete(addrs[7]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert([]byte("again")); err != nil {
		t.Fatalf("insert after free: %v", err)
	}
}

func TestEmptyInsert(t *testing.T) {
	c := New(small())
	addr, err := c.Insert(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(addr)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty entry Get = %q, %v", got, err)
	}
	if err := c.Delete(addr); err != nil {
		t.Fatal(err)
	}
}

func TestBadAddresses(t *testing.T) {
	c := New(small())
	if _, err := c.Get(NilAddress); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("Get(nil): %v", err)
	}
	if _, err := c.Get(Address(9999)); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("Get(out of range): %v", err)
	}
}

func TestMaxBytes(t *testing.T) {
	c := New(small())
	if c.MaxBytes() != 4*8*64 {
		t.Fatalf("MaxBytes = %d", c.MaxBytes())
	}
}

func TestConcurrentEntries(t *testing.T) {
	c := New(Config{BlockSize: 128, BlocksPerBuffer: 64, MaxBuffers: 16})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 100; i++ {
				data := bytes.Repeat([]byte{byte('a' + w)}, 1+rng.Intn(500))
				addr, err := c.Insert(data)
				if err != nil {
					errs <- err
					return
				}
				got, err := c.Get(addr)
				if err != nil || !bytes.Equal(got, data) {
					errs <- fmt.Errorf("worker %d: corrupt read (%v)", w, err)
					return
				}
				if err := c.Delete(addr); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := c.Stats(); st.UsedBytes != 0 {
		t.Fatalf("leaked %d bytes", st.UsedBytes)
	}
}

// TestAllocFreeInvariantProperty: after an arbitrary interleaving of
// inserts, appends and deletes, (a) every live entry reads back exactly,
// (b) UsedBytes equals the sum of live entry sizes, and (c) free+used block
// accounting matches the buffer totals.
func TestAllocFreeInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{BlockSize: 32, BlocksPerBuffer: 16, MaxBuffers: 8})
		type live struct {
			addr Address
			data []byte
		}
		var entries []live
		var total int64
		for op := 0; op < 200; op++ {
			switch r := rng.Intn(10); {
			case r < 4: // insert
				data := make([]byte, rng.Intn(100))
				rng.Read(data)
				addr, err := c.Insert(data)
				if errors.Is(err, ErrCacheFull) {
					continue
				}
				if err != nil {
					return false
				}
				entries = append(entries, live{addr, append([]byte(nil), data...)})
				total += int64(len(data))
			case r < 7 && len(entries) > 0: // append
				i := rng.Intn(len(entries))
				data := make([]byte, rng.Intn(60))
				rng.Read(data)
				addr, err := c.Append(entries[i].addr, data)
				if errors.Is(err, ErrCacheFull) {
					// Atomic failure: the entry must be untouched.
					got, gerr := c.Get(entries[i].addr)
					if gerr != nil || !bytes.Equal(got, entries[i].data) {
						return false
					}
					continue
				}
				if err != nil {
					return false
				}
				entries[i].addr = addr
				entries[i].data = append(entries[i].data, data...)
				total += int64(len(data))
			case len(entries) > 0: // delete
				i := rng.Intn(len(entries))
				if err := c.Delete(entries[i].addr); err != nil {
					return false
				}
				total -= int64(len(entries[i].data))
				entries = append(entries[:i], entries[i+1:]...)
			}
		}
		for _, e := range entries {
			got, err := c.Get(e.addr)
			if err != nil || !bytes.Equal(got, e.data) {
				return false
			}
		}
		st := c.Stats()
		if st.UsedBytes != total {
			return false
		}
		return st.FreeBlocks <= st.TotalBlocks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// seq returns n bytes that differ at every offset modulo 251.
func seq(from, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte((from + i) % 251)
	}
	return out
}

func TestReadAtRanges(t *testing.T) {
	c := New(small()) // 64-byte blocks
	const total = 300 // 4 full blocks and 44 bytes of a fifth
	addr, err := c.Insert(seq(0, 200))
	if err != nil {
		t.Fatal(err)
	}
	first := addr
	if addr, err = c.Append(addr, seq(200, 100)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ off, n, want int }{
		{0, total, total},     // the whole entry
		{0, 1, 1},             // first byte
		{63, 2, 2},            // across the first block boundary
		{64, 64, 64},          // exactly one inner block
		{100, 150, 150},       // three boundaries
		{299, 1, 1},           // last byte
		{256, 100, 44},        // clipped at the entry's end
		{total, 10, 0},        // off at the end
		{total + 50, 10, 0},   // off after the end
		{-1, 10, 0},           // negative off
		{10, 0, 0},            // empty destination
		{0, total + 500, 300}, // destination longer than the entry
	} {
		dst := make([]byte, tc.n)
		n, err := c.ReadAt(addr, int64(tc.off), dst)
		if err != nil || n != tc.want {
			t.Fatalf("ReadAt(off %d, %d bytes) = %d, %v; want %d", tc.off, tc.n, n, err, tc.want)
		}
		if !bytes.Equal(dst[:n], seq(tc.off, n)) {
			t.Fatalf("ReadAt(off %d, %d bytes) returned the wrong bytes", tc.off, tc.n)
		}
	}
	// The address the entry had before it grew still reads what it covered,
	// at the same offsets, and nothing appended since.
	dst := make([]byte, total)
	if n, err := c.ReadAt(first, 0, dst); err != nil || n != 256 || !bytes.Equal(dst[:n], seq(0, 256)) {
		t.Fatalf("ReadAt through the entry's earlier address = %d, %v", n, err)
	}
	if n, err := c.ReadAt(first, 190, dst[:20]); err != nil || n != 20 || !bytes.Equal(dst[:20], seq(190, 20)) {
		t.Fatalf("ranged ReadAt through the entry's earlier address = %d, %v", n, err)
	}

	if err := c.Delete(addr); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadAt(addr, 0, dst); !errors.Is(err, ErrEntryDeleted) {
		t.Fatalf("ReadAt of a deleted entry: %v", err)
	}
	if _, err := c.ReadAt(NilAddress, 0, dst); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("ReadAt(nil): %v", err)
	}
}

func TestCacheFullRollbackLeavesStatsUnchanged(t *testing.T) {
	c := New(small()) // 32 blocks of 64 bytes in 4 buffers
	// Buffers are allocated on first use: use all four once.
	all, err := c.Insert(seq(0, 32*64))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(all); err != nil {
		t.Fatal(err)
	}
	// 20 blocks taken: 12 left, spread over two buffers.
	keep, err := c.Insert(seq(0, 20*64-10))
	if err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	// Needs 10 bytes of the tail block and 13 new blocks: takes all 12 over
	// both buffers, then fails and must give every one back.
	if _, err := c.Append(keep, seq(20*64-10, 10+13*64)); !errors.Is(err, ErrCacheFull) {
		t.Fatalf("oversized Append: %v", err)
	}
	if _, err := c.Insert(seq(0, 13*64)); !errors.Is(err, ErrCacheFull) {
		t.Fatalf("oversized Insert: %v", err)
	}
	if after := c.Stats(); after != before {
		t.Fatalf("Stats after failed allocations = %+v, before %+v", after, before)
	}
	got, err := c.Get(keep)
	if err != nil || !bytes.Equal(got, seq(0, 20*64-10)) {
		t.Fatalf("entry changed by a failed Append: %d bytes, %v", len(got), err)
	}
	// Every block given back is usable: exactly 12 more fit.
	addr, err := c.Append(keep, seq(20*64-10, 10+12*64))
	if err != nil {
		t.Fatalf("Append of what fits: %v", err)
	}
	if st := c.Stats(); st.FreeBlocks != 0 || st.UsedBytes != 32*64 {
		t.Fatalf("Stats with the cache full = %+v", st)
	}
	if got, err := c.Get(addr); err != nil || !bytes.Equal(got, seq(0, 32*64)) {
		t.Fatalf("full-cache entry: %d bytes, %v", len(got), err)
	}
	if err := c.Delete(addr); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.FreeBlocks != st.TotalBlocks || st.UsedBytes != 0 {
		t.Fatalf("Stats after deleting everything = %+v", st)
	}
}

// TestReadAtBesideAppend: a reader holding an address the entry had earlier
// reads the bytes that address covered (and perhaps some appended to that
// block since) while the entry grows.
func TestReadAtBesideAppend(t *testing.T) {
	c := New(Config{BlockSize: 64, BlocksPerBuffer: 16, MaxBuffers: 64})
	const total = 40000
	type view struct {
		addr Address
		n    int
	}
	views := make(chan view, 1)
	done := make(chan error, 1)
	go func() {
		var err error
		for v := range views {
			dst := make([]byte, 97)
			off := v.n * 2 / 3
			n, rerr := c.ReadAt(v.addr, int64(off), dst)
			if rerr != nil || n < min(97, v.n-off) || !bytes.Equal(dst[:n], seq(off, n)) {
				err = fmt.Errorf("ReadAt(%v, %d) of a %d-byte view = %d, %v", v.addr, off, v.n, n, rerr)
				break
			}
		}
		for range views {
		}
		done <- err
	}()
	addr, err := c.Insert(seq(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	for n := 10; n < total; {
		select {
		case views <- view{addr, n}:
		default:
		}
		k := 1 + n%157
		if addr, err = c.Append(addr, seq(n, k)); err != nil {
			t.Fatal(err)
		}
		n += k
	}
	close(views)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
