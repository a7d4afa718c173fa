// Package statesync implements Pravega's state synchronizer (§3.3): a
// coordination primitive built on a segment that lets a group of processes
// maintain a consistent replicated state via optimistic concurrency.
// Updates are appended conditionally on the segment's current length; a
// conflict means another process won the race, so the loser fetches the
// winning updates and retries. Reader groups coordinate segment assignment
// through it.
package statesync

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Backing is the segment surface the synchronizer needs: the client's data
// transport.
type Backing interface {
	// AppendConditional appends data iff the segment length equals
	// expectedOffset, returning ErrConflict (possibly wrapped) otherwise.
	AppendConditional(data []byte, expectedOffset int64) (int64, error)
	// Read returns available bytes at offset without waiting (may be
	// fewer than maxBytes; empty at the tail).
	Read(offset int64, maxBytes int) ([]byte, error)
}

// ErrConflict signals a lost optimistic-concurrency race.
var ErrConflict = errors.New("statesync: conditional append conflict")

// Synchronizer replays a totally ordered sequence of updates to a local
// state and lets the caller extend the sequence atomically.
type Synchronizer struct {
	backing Backing
	apply   func(update []byte)

	mu   sync.Mutex
	tail int64 // offset after the last consumed update
	buf  []byte
}

// New creates a synchronizer. apply is invoked for every update, in order,
// from Fetch; it must not call back into the synchronizer.
func New(b Backing, apply func(update []byte)) *Synchronizer {
	return &Synchronizer{backing: b, apply: apply}
}

// frame wraps an update with a length prefix.
func frame(update []byte) []byte {
	out := make([]byte, 4+len(update))
	binary.BigEndian.PutUint32(out, uint32(len(update)))
	copy(out[4:], update)
	return out
}

// Fetch reads and applies all updates appended since the last call.
func (s *Synchronizer) Fetch() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fetchLocked()
}

func (s *Synchronizer) fetchLocked() error {
	for {
		readAt := s.tail + int64(len(s.buf))
		data, err := s.backing.Read(readAt, 64<<10)
		if err != nil {
			return err
		}
		if len(data) == 0 {
			return nil
		}
		s.buf = append(s.buf, data...)
		for len(s.buf) >= 4 {
			n := binary.BigEndian.Uint32(s.buf)
			if len(s.buf) < int(4+n) {
				break
			}
			update := s.buf[4 : 4+n]
			s.apply(update)
			s.tail += int64(4 + n)
			s.buf = s.buf[4+n:]
		}
	}
}

// Tail returns the segment offset after the last update applied locally:
// every update appended from there on is one a later Fetch applies.
func (s *Synchronizer) Tail() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tail
}

// Update runs the optimistic update loop: fetch the latest state, generate
// an update (gen returns nil to abort once the state no longer needs the
// change), and try to append it at the current tail. On conflict it
// refetches and retries. The winning update is applied locally via Fetch
// before Update returns.
func (s *Synchronizer) Update(gen func() ([]byte, error)) error {
	for attempt := 0; ; attempt++ {
		if err := s.Fetch(); err != nil {
			return err
		}
		update, err := gen()
		if err != nil {
			return err
		}
		if update == nil {
			return nil
		}
		s.mu.Lock()
		if len(s.buf) != 0 {
			// A partially read frame means more updates exist; loop.
			s.mu.Unlock()
			continue
		}
		tail := s.tail
		s.mu.Unlock()
		_, err = s.backing.AppendConditional(frame(update), tail)
		if err == nil {
			return s.Fetch()
		}
		if attempt > 10_000 {
			return fmt.Errorf("statesync: livelock after %d attempts: %w", attempt, err)
		}
		// Conflict (or transient): refetch and retry. After a few straight
		// losses, back off briefly — the winning append may still be
		// draining through the store's group-commit pipeline, and an
		// in-process retry loop is fast enough to spin thousands of times
		// within one commit latency.
		if attempt >= 8 {
			d := time.Duration(attempt) * time.Microsecond
			if d > time.Millisecond {
				d = time.Millisecond
			}
			time.Sleep(d)
		}
	}
}
