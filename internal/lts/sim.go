package lts

import (
	"sync"
	"sync/atomic"

	"github.com/pravega-go/pravega/internal/sim"
)

// Sim wraps an inner ChunkStorage with the EFS/S3 performance model: every
// chunk is its own transfer stream capped at the per-stream bandwidth,
// while aggregate throughput is capped separately. Reading many chunks in
// parallel therefore scales far beyond one stream's cap — the asymmetry
// behind Pravega's historical-read advantage (Fig. 12) and its
// single-segment write ceiling (Fig. 7a).
//
// Sim can also be switched Unavailable to inject LTS outages (§4.3
// throttling tests), and can be byte-count-only by wrapping NoOp.
type Sim struct {
	inner ChunkStorage
	perf  *sim.ObjectStorePerf

	unavailable atomic.Bool

	mu         sync.Mutex
	writeBytes int64
	readBytes  int64
}

var _ ChunkStorage = (*Sim)(nil)

// NewSim wraps inner with the given object-store performance model.
func NewSim(inner ChunkStorage, cfg sim.ObjectStoreConfig) *Sim {
	return &Sim{inner: inner, perf: sim.NewObjectStorePerf(cfg)}
}

// SetUnavailable toggles outage injection: all operations fail with
// ErrUnavailable while set.
func (s *Sim) SetUnavailable(v bool) { s.unavailable.Store(v) }

// Stats returns total bytes written to and read from the store.
func (s *Sim) Stats() (written, read int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeBytes, s.readBytes
}

func (s *Sim) check() error {
	if s.unavailable.Load() {
		return ErrUnavailable
	}
	return nil
}

// Create implements ChunkStorage.
func (s *Sim) Create(name string) error {
	if err := s.check(); err != nil {
		return err
	}
	s.perf.Transfer(name, 0)
	return s.inner.Create(name)
}

// Write implements ChunkStorage.
func (s *Sim) Write(name string, offset int64, data ...[]byte) error {
	if err := s.check(); err != nil {
		return err
	}
	var n int64
	for _, p := range data {
		n += int64(len(p))
	}
	s.perf.Transfer(name, int(n))
	if err := s.inner.Write(name, offset, data...); err != nil {
		return err
	}
	s.mu.Lock()
	s.writeBytes += n
	s.mu.Unlock()
	return nil
}

// Read implements ChunkStorage.
func (s *Sim) Read(name string, offset int64, buf []byte) (int, error) {
	if err := s.check(); err != nil {
		return 0, err
	}
	n, err := s.inner.Read(name, offset, buf)
	if err != nil {
		return n, err
	}
	s.perf.Transfer(name, n)
	s.mu.Lock()
	s.readBytes += int64(n)
	s.mu.Unlock()
	return n, nil
}

// Length implements ChunkStorage.
func (s *Sim) Length(name string) (int64, error) {
	if err := s.check(); err != nil {
		return 0, err
	}
	return s.inner.Length(name)
}

// Delete implements ChunkStorage.
func (s *Sim) Delete(name string) error {
	if err := s.check(); err != nil {
		return err
	}
	s.perf.ReleaseStream(name)
	return s.inner.Delete(name)
}

// Exists implements ChunkStorage.
func (s *Sim) Exists(name string) (bool, error) {
	if err := s.check(); err != nil {
		return false, err
	}
	return s.inner.Exists(name)
}
