package lts

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/sim"
)

// contractTest exercises the ChunkStorage contract shared by all backends.
func contractTest(t *testing.T, newStore func(t *testing.T) ChunkStorage, realData bool) {
	t.Helper()
	t.Run("CreateWriteRead", func(t *testing.T) {
		s := newStore(t)
		if err := s.Create("seg/chunk-0"); err != nil {
			t.Fatal(err)
		}
		if err := s.Create("seg/chunk-0"); !errors.Is(err, ErrChunkExists) {
			t.Fatalf("duplicate create: %v", err)
		}
		if err := s.Write("seg/chunk-0", 0, []byte("hello ")); err != nil {
			t.Fatal(err)
		}
		if err := s.Write("seg/chunk-0", 6, []byte("world")); err != nil {
			t.Fatal(err)
		}
		n, err := s.Length("seg/chunk-0")
		if err != nil || n != 11 {
			t.Fatalf("Length = %d, %v", n, err)
		}
		buf := make([]byte, 5)
		got, err := s.Read("seg/chunk-0", 6, buf)
		if err != nil || got != 5 {
			t.Fatalf("Read = %d, %v", got, err)
		}
		if realData && !bytes.Equal(buf, []byte("world")) {
			t.Fatalf("Read returned %q", buf)
		}
	})
	t.Run("AppendOnlyInvariant", func(t *testing.T) {
		s := newStore(t)
		if err := s.Create("c"); err != nil {
			t.Fatal(err)
		}
		if err := s.Write("c", 0, []byte("abc")); err != nil {
			t.Fatal(err)
		}
		if err := s.Write("c", 1, []byte("x")); !errors.Is(err, ErrInvalidOffset) {
			t.Fatalf("overwrite accepted: %v", err)
		}
		if err := s.Write("c", 10, []byte("x")); !errors.Is(err, ErrInvalidOffset) {
			t.Fatalf("gap write accepted: %v", err)
		}
	})
	t.Run("MissingChunk", func(t *testing.T) {
		s := newStore(t)
		if err := s.Write("nope", 0, []byte("x")); !errors.Is(err, ErrNoChunk) {
			t.Fatalf("write to missing chunk: %v", err)
		}
		if _, err := s.Read("nope", 0, make([]byte, 1)); !errors.Is(err, ErrNoChunk) {
			t.Fatalf("read of missing chunk: %v", err)
		}
		if _, err := s.Length("nope"); !errors.Is(err, ErrNoChunk) {
			t.Fatalf("length of missing chunk: %v", err)
		}
		if err := s.Delete("nope"); !errors.Is(err, ErrNoChunk) {
			t.Fatalf("delete of missing chunk: %v", err)
		}
	})
	t.Run("ReadBounds", func(t *testing.T) {
		s := newStore(t)
		if err := s.Create("b"); err != nil {
			t.Fatal(err)
		}
		if err := s.Write("b", 0, []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Read("b", 11, make([]byte, 1)); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("read past end: %v", err)
		}
		// Reading exactly at the end yields zero bytes, not an error.
		n, err := s.Read("b", 10, make([]byte, 4))
		if err != nil || n != 0 {
			t.Fatalf("read at end = %d, %v", n, err)
		}
		// Short read at the tail.
		n, err = s.Read("b", 8, make([]byte, 10))
		if err != nil || n != 2 {
			t.Fatalf("tail read = %d, %v", n, err)
		}
	})
	t.Run("Delete", func(t *testing.T) {
		s := newStore(t)
		if err := s.Create("d"); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete("d"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Length("d"); !errors.Is(err, ErrNoChunk) {
			t.Fatalf("length after delete: %v", err)
		}
	})
}

func TestMemoryContract(t *testing.T) {
	contractTest(t, func(t *testing.T) ChunkStorage { return NewMemory() }, true)
}

func TestFSContract(t *testing.T) {
	contractTest(t, func(t *testing.T) ChunkStorage {
		s, err := NewFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}, true)
}

func TestNoOpContract(t *testing.T) {
	contractTest(t, func(t *testing.T) ChunkStorage { return NewNoOp() }, false)
}

func TestSimContract(t *testing.T) {
	contractTest(t, func(t *testing.T) ChunkStorage {
		return NewSim(NewMemory(), sim.ObjectStoreConfig{})
	}, true)
}

func TestNoOpReadsAreZeroFilled(t *testing.T) {
	s := NewNoOp()
	if err := s.Create("z"); err != nil {
		t.Fatal(err)
	}
	if err := s.Write("z", 0, []byte("secret")); err != nil {
		t.Fatal(err)
	}
	buf := []byte("xxxxxx")
	n, err := s.Read("z", 0, buf)
	if err != nil || n != 6 {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 6)) {
		t.Fatalf("NoOp read returned %q", buf)
	}
}

func TestSimOutageInjection(t *testing.T) {
	s := NewSim(NewMemory(), sim.ObjectStoreConfig{})
	if err := s.Create("o"); err != nil {
		t.Fatal(err)
	}
	s.SetUnavailable(true)
	if err := s.Write("o", 0, []byte("x")); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("write during outage: %v", err)
	}
	if _, err := s.Read("o", 0, make([]byte, 1)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("read during outage: %v", err)
	}
	if _, err := s.Length("o"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("length during outage: %v", err)
	}
	s.SetUnavailable(false)
	if err := s.Write("o", 0, []byte("x")); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	w, r := s.Stats()
	if w != 1 || r != 0 {
		t.Fatalf("Stats = %d, %d", w, r)
	}
}

func TestSimThroughputModel(t *testing.T) {
	s := NewSim(NewNoOp(), sim.ObjectStoreConfig{PerStreamBandwidth: 1e6})
	if err := s.Create("perf"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := s.Write("perf", 0, make([]byte, 100_000)); err != nil { // 100KB at 1MB/s → 100ms
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("per-stream cap not applied: %v", elapsed)
	}
}

func TestFSChunkNamesWithSlashes(t *testing.T) {
	s, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	name := "scope/stream/0.#epoch.0/chunk-0"
	if err := s.Create(name); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(name, 0, []byte("nested")); err != nil {
		t.Fatal(err)
	}
	n, err := s.Length(name)
	if err != nil || n != 6 {
		t.Fatalf("Length = %d, %v", n, err)
	}
}

func TestMemoryChunkCount(t *testing.T) {
	m := NewMemory()
	for i := 0; i < 5; i++ {
		if err := m.Create(fmt.Sprintf("c%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if m.ChunkCount() != 5 {
		t.Fatalf("ChunkCount = %d", m.ChunkCount())
	}
}
