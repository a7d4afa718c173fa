package lts

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestFSWriteReadRoundTripUnaligned: drop-behind advice is given on byte
// ranges the kernel rounds to pages; two successive writes of awkward sizes
// must still read back byte-exactly, whole and across the seam, and the
// error contract must be what it was.
func TestFSWriteReadRoundTripUnaligned(t *testing.T) {
	s, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	for _, first := range []int{1, 4095, 4096, 4097, 1<<20 + 1} {
		for _, second := range []int{1, 4095, 4096, 4097, 1<<20 + 1} {
			name := fmt.Sprintf("seg/chunk-%d-%d", first, second)
			want := make([]byte, first+second)
			rng.Read(want)
			if err := s.Create(name); err != nil {
				t.Fatal(err)
			}
			if err := s.Write(name, 0, want[:first]); err != nil {
				t.Fatalf("%s: first write: %v", name, err)
			}
			if err := s.Write(name, int64(first), want[first:]); err != nil {
				t.Fatalf("%s: second write: %v", name, err)
			}
			if err := s.Write(name, int64(first), []byte("x")); !errors.Is(err, ErrInvalidOffset) {
				t.Fatalf("%s: overwrite: %v, want ErrInvalidOffset", name, err)
			}
			got := make([]byte, len(want))
			if n, err := s.Read(name, 0, got); err != nil || n != len(want) || !bytes.Equal(got, want) {
				t.Fatalf("%s: whole read = %d, %v, equal=%v", name, n, err, bytes.Equal(got, want))
			}
			// Across the seam of the two writes, from an unaligned offset.
			from := max(first-3, 0)
			seam := make([]byte, min(7, len(want)-from))
			if n, err := s.Read(name, int64(from), seam); err != nil || n != len(seam) || !bytes.Equal(seam, want[from:from+n]) {
				t.Fatalf("%s: seam read at %d = %d, %v", name, from, n, err)
			}
		}
	}
	if err := s.Write("seg/none", 0, []byte("x")); !errors.Is(err, ErrNoChunk) {
		t.Fatalf("write to missing chunk: %v, want ErrNoChunk", err)
	}
	if _, err := s.Read("seg/none", 0, make([]byte, 1)); !errors.Is(err, ErrNoChunk) {
		t.Fatalf("read of missing chunk: %v, want ErrNoChunk", err)
	}
}

// BenchmarkFSWrite1MiB is the per-MiB cost of a durable chunk write — the
// microbenchmark beside the bench probe lts.fs_write_1m_us_p50. Chunks roll
// at 64 MiB so the directory holds what a tiering run would leave.
func BenchmarkFSWrite1MiB(b *testing.B) {
	s, err := NewFS(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	const perChunk = 64
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("bench/chunk-%d", i/perChunk)
		if i%perChunk == 0 {
			if err := s.Create(name); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Write(name, int64(i%perChunk)<<20, data); err != nil {
			b.Fatal(err)
		}
	}
}
