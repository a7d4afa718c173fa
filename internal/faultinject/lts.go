// Package faultinject provides a deterministic fault-injection layer and a
// crash-recovery test harness for the tiered storage pipeline (§4.3–§4.4):
// an lts.ChunkStorage decorator that fails, truncates or delays specific
// operations; a bookkeeper.Node wrapper that fails appends, drops
// acknowledgements or rejects fencing; scripted crash points between
// pipeline stages via segstore.Hooks; and a recovery-invariant checker that
// asserts the paper's durability contract — acked data survives restarts,
// chunk metadata stays contiguous and non-overlapping, and WAL truncation
// never outruns tiering.
//
// Everything is rule-driven and counted, never time-dependent: tests choose
// "fail the 3rd chunk write", not "fail writes for 50ms", so every schedule
// replays identically from its seed.
package faultinject

import (
	"strings"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/lts"
)

// LTSOp selects which ChunkStorage method an LTSRule applies to.
type LTSOp string

// ChunkStorage operations addressable by rules.
const (
	LTSCreate LTSOp = "create"
	LTSWrite  LTSOp = "write"
	LTSRead   LTSOp = "read"
	LTSLength LTSOp = "length"
	LTSDelete LTSOp = "delete"
)

// LTSRule describes one injected fault. A rule matches calls of the given
// Op whose chunk name contains Chunk (empty matches every chunk); it
// triggers on the Nth match (1-based; 0 means the first) and for Count-1
// further matches after that (Count 0 means exactly once, negative means
// forever). When it triggers:
//
//   - Delay, if set, is slept first (latency spike).
//   - Err, if the rule is a failure rule, is returned (defaults to
//     lts.ErrUnavailable). For writes, PartialBytes of the payload are
//     persisted to the inner store before failing — the partial-write-
//     then-error case the storage writer must adopt.
//   - A rule with no Err, no PartialBytes and a Delay is latency-only: the
//     call proceeds normally after the sleep.
type LTSRule struct {
	Op           LTSOp
	Chunk        string
	Nth          int
	Count        int
	PartialBytes int
	Err          error
	Delay        time.Duration
}

func (r *LTSRule) latencyOnly() bool {
	return r.Err == nil && r.PartialBytes == 0 && r.Delay > 0
}

func (r *LTSRule) err() error {
	if r.Err != nil {
		return r.Err
	}
	return lts.ErrUnavailable
}

type ltsRuleState struct {
	rule    LTSRule
	matched int // matching calls seen so far
	fired   int // times the rule has triggered
}

// active reports whether this match (the matched'th, 1-based) triggers.
func (s *ltsRuleState) active() bool {
	first := s.rule.Nth
	if first <= 0 {
		first = 1
	}
	if s.matched < first {
		return false
	}
	limit := s.rule.Count
	if limit == 0 {
		limit = 1
	}
	if limit > 0 && s.fired >= limit {
		return false
	}
	s.fired++
	return true
}

// FaultyLTS decorates a ChunkStorage with rule-driven fault injection.
type FaultyLTS struct {
	inner lts.ChunkStorage

	mu       sync.Mutex
	rules    []*ltsRuleState
	injected int64
}

var _ lts.ChunkStorage = (*FaultyLTS)(nil)

// NewFaultyLTS wraps inner with no rules armed.
func NewFaultyLTS(inner lts.ChunkStorage) *FaultyLTS {
	return &FaultyLTS{inner: inner}
}

// AddRule arms a fault rule. Rules are independent; the first rule that
// triggers on a call wins.
func (f *FaultyLTS) AddRule(r LTSRule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, &ltsRuleState{rule: r})
}

// Reset disarms every rule (counters included).
func (f *FaultyLTS) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
}

// Injected reports how many faults (errors or partial writes, not pure
// delays) have been injected since construction.
func (f *FaultyLTS) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// match returns the triggered rule for this call, if any.
func (f *FaultyLTS) match(op LTSOp, chunk string) *LTSRule {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.rules {
		if s.rule.Op != op {
			continue
		}
		if s.rule.Chunk != "" && !strings.Contains(chunk, s.rule.Chunk) {
			continue
		}
		s.matched++
		if s.active() {
			if !s.rule.latencyOnly() {
				f.injected++
			}
			r := s.rule
			return &r
		}
	}
	return nil
}

// Create implements lts.ChunkStorage.
func (f *FaultyLTS) Create(name string) error {
	if r := f.match(LTSCreate, name); r != nil {
		sleep(r.Delay)
		if !r.latencyOnly() {
			mLTSFaults.Inc()
			return r.err()
		}
	}
	return f.inner.Create(name)
}

// Write implements lts.ChunkStorage. A triggered failure rule with
// PartialBytes > 0 persists that prefix of the parts' concatenation before
// returning the error, emulating a write that died mid-object.
func (f *FaultyLTS) Write(name string, offset int64, data ...[]byte) error {
	if r := f.match(LTSWrite, name); r != nil {
		sleep(r.Delay)
		if !r.latencyOnly() {
			mLTSFaults.Inc()
			if n := r.PartialBytes; n > 0 {
				// Best-effort: if even the partial write fails the chunk
				// simply did not grow, which is also a valid crash outcome.
				_ = f.inner.Write(name, offset, lts.PartsRange(data, 0, int64(n))...)
			}
			return r.err()
		}
	}
	return f.inner.Write(name, offset, data...)
}

// Read implements lts.ChunkStorage.
func (f *FaultyLTS) Read(name string, offset int64, buf []byte) (int, error) {
	if r := f.match(LTSRead, name); r != nil {
		sleep(r.Delay)
		if !r.latencyOnly() {
			mLTSFaults.Inc()
			return 0, r.err()
		}
	}
	return f.inner.Read(name, offset, buf)
}

// Length implements lts.ChunkStorage.
func (f *FaultyLTS) Length(name string) (int64, error) {
	if r := f.match(LTSLength, name); r != nil {
		sleep(r.Delay)
		if !r.latencyOnly() {
			mLTSFaults.Inc()
			return 0, r.err()
		}
	}
	return f.inner.Length(name)
}

// Delete implements lts.ChunkStorage.
func (f *FaultyLTS) Delete(name string) error {
	if r := f.match(LTSDelete, name); r != nil {
		sleep(r.Delay)
		if !r.latencyOnly() {
			mLTSFaults.Inc()
			return r.err()
		}
	}
	return f.inner.Delete(name)
}

func sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}
