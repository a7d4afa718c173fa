// Package lts defines the long-term storage tier (§2.2, §4.3): segments are
// persisted as sequences of non-overlapping chunks, each chunk a contiguous
// range of segment bytes stored as one object/file. Backends provided:
//
//   - Memory: in-process map (unit tests).
//   - FS: real files under a directory (NFS-style deployments).
//   - Sim: performance-modelled EFS/S3-like store with per-stream and
//     aggregate throughput caps; optionally discards payloads.
//   - NoOp: a Memory that accepts writes and stores nothing but chunk
//     lengths — the paper's test feature used in Fig. 7 ("NoOp LTS").
//
// Chunk *metadata* is not stored here: the storage writer keeps it in a
// Pravega key-value table with conditional updates (§4.3).
package lts

import (
	"errors"
	"fmt"
	"sync"
)

// Errors returned by chunk storage.
var (
	ErrChunkExists   = errors.New("lts: chunk already exists")
	ErrNoChunk       = errors.New("lts: chunk does not exist")
	ErrOutOfRange    = errors.New("lts: read beyond chunk length")
	ErrUnavailable   = errors.New("lts: storage unavailable")
	ErrChunkSealed   = errors.New("lts: chunk sealed")
	ErrShortPayload  = errors.New("lts: payload shorter than requested range")
	ErrInvalidOffset = errors.New("lts: write offset must equal chunk length")
)

// ChunkStorage stores immutable-once-sealed chunk objects. Writes are
// append-only at the chunk tail, matching how object/file stores are used
// by Pravega's simplified tier-2 design.
type ChunkStorage interface {
	// Create makes an empty chunk.
	Create(name string) error
	// Write appends the concatenation of data, in order, at offset, which
	// must equal the current length. The parts are the caller's (a storage
	// writer hands over its queued appends as they are): an implementation
	// does not keep them after it returns.
	Write(name string, offset int64, data ...[]byte) error
	// Read fills buf from offset. Returns the bytes read.
	Read(name string, offset int64, buf []byte) (int, error)
	// Length returns the chunk's current size.
	Length(name string) (int64, error)
	// Delete removes the chunk.
	Delete(name string) error
	// Exists reports whether the chunk is present.
	Exists(name string) (bool, error)
}

// PartsRange returns the slices of parts that hold bytes [from, from+n) of
// their concatenation, the first and the last cut to fit.
func PartsRange(parts [][]byte, from, n int64) (out [][]byte) {
	for _, p := range parts {
		if k := int64(len(p)); from >= k {
			from -= k
		} else if n > 0 {
			p = p[from:min(k, from+n)]
			out, from, n = append(out, p), 0, n-int64(len(p))
		}
	}
	return out
}

// Memory is a map-backed ChunkStorage for tests and examples.
type Memory struct {
	mu      sync.RWMutex
	chunks  map[string]*memChunk
	discard bool // NoOp: keep lengths only
}

type memChunk struct {
	data []byte // nil when discarding
	n    int64
}

var _ ChunkStorage = (*Memory)(nil)

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory { return &Memory{chunks: make(map[string]*memChunk)} }

// NewNoOp returns a store that discards all data, tracking only chunk
// lengths, and reads zeros of the right length. It reproduces the paper's
// "NoOp LTS" test feature (§5.4): metadata flows, data does not.
func NewNoOp() *Memory { return &Memory{chunks: make(map[string]*memChunk), discard: true} }

// Create implements ChunkStorage.
func (m *Memory) Create(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.chunks[name]; ok {
		return fmt.Errorf("%w: %s", ErrChunkExists, name)
	}
	m.chunks[name] = &memChunk{}
	return nil
}

// Write implements ChunkStorage.
func (m *Memory) Write(name string, offset int64, data ...[]byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.chunks[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoChunk, name)
	}
	if offset != c.n {
		return fmt.Errorf("%w: offset %d, length %d", ErrInvalidOffset, offset, c.n)
	}
	for _, p := range data {
		if !m.discard {
			c.data = append(c.data, p...)
		}
		c.n += int64(len(p))
	}
	return nil
}

// Read implements ChunkStorage.
func (m *Memory) Read(name string, offset int64, buf []byte) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c, ok := m.chunks[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoChunk, name)
	}
	if offset < 0 || offset > c.n {
		return 0, fmt.Errorf("%w: offset %d, length %d", ErrOutOfRange, offset, c.n)
	}
	k := min(int64(len(buf)), c.n-offset)
	if m.discard {
		clear(buf[:k])
	} else {
		copy(buf, c.data[offset:offset+k])
	}
	return int(k), nil
}

// Length implements ChunkStorage.
func (m *Memory) Length(name string) (int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c, ok := m.chunks[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoChunk, name)
	}
	return c.n, nil
}

// Delete implements ChunkStorage.
func (m *Memory) Delete(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.chunks[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNoChunk, name)
	}
	delete(m.chunks, name)
	return nil
}

// Exists implements ChunkStorage.
func (m *Memory) Exists(name string) (bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.chunks[name]
	return ok, nil
}

// ChunkCount reports the number of stored chunks (test helper).
func (m *Memory) ChunkCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.chunks)
}
