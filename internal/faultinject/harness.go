package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/lts"
	"github.com/pravega-go/pravega/internal/segstore"
)

// HarnessConfig sizes one deterministic fault run.
type HarnessConfig struct {
	// Seed drives every random choice; the same seed replays the same
	// schedule (fault timing aside — LTS/bookie rules are count-based, so
	// what is injected is identical, only background interleaving varies).
	Seed int64
	// Ops is the number of workload operations to run (default 200).
	Ops int
	// Segments is the number of distinct segments (default 3).
	Segments int
	// CrashEvery arms a scripted crash roughly every N operations
	// (0 disables crashes).
	CrashEvery int
	// LTSFaultEvery arms an LTS write, create or length fault roughly every
	// N operations (0 disables).
	LTSFaultEvery int
	// BookieFaultEvery arms a bookie add fault (failed or dropped ack, one
	// bookie at a time — within quorum tolerance) roughly every N
	// operations (0 disables).
	BookieFaultEvery int
}

func (c *HarnessConfig) defaults() {
	if c.Ops <= 0 {
		c.Ops = 200
	}
	if c.Segments <= 0 {
		c.Segments = 3
	}
}

// segModel is the harness's oracle for one segment: what a correct system
// must report after every ack and every recovery.
type segModel struct {
	data    []byte
	sealed  bool
	start   int64
	created bool
	// writers maps writerID -> last acked event number.
	writers map[string]int64
}

// Harness drives the one-container crash rig through a randomized
// write/seal/truncate workload with injected faults and scripted crashes,
// checking after every recovery that the container's state matches the
// oracle: acked reads survive, writer-dedup attributes persist, seal and
// truncate status hold, and the chunk/WAL invariants of CheckContainer
// pass. Ambiguously failed operations (the connection died before the ack)
// are retried with the same writerID/eventNum, mirroring a real Pravega
// writer; exactly-once then demands they land exactly once.
type Harness struct {
	t   *testing.T
	cfg HarnessConfig
	rng *rand.Rand

	*crashRig
	mem  *lts.Memory
	flts *FaultyLTS
	inj  *Injector

	model     map[string]*segModel
	segs      []string
	nextEvent map[string]int64
	txnSeq    int64

	// pending is the single in-flight operation whose failure was ambiguous
	// (the crash raced the ack). Until its retry resolves it, recovered
	// state may legitimately include or exclude its effect; verifyOnce
	// accepts both.
	pending *pendingOp

	// Report counters.
	Crashes   int
	Recovered int
}

// pendingOp describes an operation submitted but not yet acknowledged.
type pendingOp struct {
	kind string // "append", "seal", "truncate", "create", "merge"
	seg  string
	data []byte // append payload, or merged shadow content for "merge"
	num  int64  // append event number
	at   int64  // truncate offset
}

// errDivergence marks oracle mismatches: never retried, always fatal.
var errDivergence = errors.New("faultinject: state diverged from oracle")

// NewHarness builds the crash rig with the fault layers wired in, and
// creates the workload segments.
func NewHarness(t *testing.T, cfg HarnessConfig) *Harness {
	cfg.defaults()
	h := &Harness{
		t:         t,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		mem:       lts.NewMemory(),
		inj:       NewInjector(),
		model:     make(map[string]*segModel),
		nextEvent: make(map[string]int64),
	}
	h.flts = NewFaultyLTS(h.mem)

	rig, err := newCrashRig(h.flts, segstore.ContainerConfig{
		FlushSizeBytes:     2048,
		FlushInterval:      2 * time.Millisecond,
		ChunkSizeLimit:     4096,
		CheckpointInterval: 10 * time.Millisecond,
		MaxUnflushedBytes:  1 << 30, // never throttle against a down LTS
		WALRolloverBytes:   16 << 10,
		Hooks:              h.inj.Hooks(),
	})
	if err != nil {
		t.Fatalf("faultinject: building the crash rig: %v", err)
	}
	h.crashRig = rig

	for i := 0; i < cfg.Segments; i++ {
		name := fmt.Sprintf("scope/stream/seg-%d", i)
		h.segs = append(h.segs, name)
		h.model[name] = &segModel{writers: make(map[string]int64)}
		h.pending = &pendingOp{kind: "create", seg: name}
		h.mustRetry(fmt.Sprintf("create %s", name), func() error {
			err := h.container().CreateSegment(name)
			if errors.Is(err, segstore.ErrSegmentExists) {
				return nil // applied before the crash
			}
			return err
		})
		h.pending = nil
		h.model[name].created = true
	}
	return h
}

// Injected reports the total number of injected faults and crashes.
func (h *Harness) Injected() int64 {
	n := h.flts.Injected() + int64(h.Crashes)
	for _, fb := range h.bookies {
		n += fb.Injected()
	}
	return n
}

func (h *Harness) container() *segstore.Container {
	c, err := h.st.ContainerByID(0)
	if err != nil {
		h.t.Fatalf("faultinject: container lost: %v", err)
	}
	return c
}

// isLogical reports whether err is a deterministic, state-dependent
// rejection (not a crash): retrying it cannot change the outcome.
func isLogical(err error) bool {
	return errors.Is(err, segstore.ErrSegmentSealed) ||
		errors.Is(err, segstore.ErrSegmentExists) ||
		errors.Is(err, segstore.ErrSegmentNotFound) ||
		errors.Is(err, segstore.ErrSegmentTruncated) ||
		errors.Is(err, segstore.ErrConditionalFailed)
}

// mustRetry runs op; every ambiguous failure triggers crash-recovery and a
// retry, like a real client reconnecting. Divergence and logical errors
// are fatal.
func (h *Harness) mustRetry(what string, op func() error) {
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			return
		}
		if errors.Is(err, errDivergence) || isLogical(err) {
			h.t.Fatalf("faultinject: %s: %v", what, err)
		}
		if attempt >= 25 {
			h.t.Fatalf("faultinject: %s: still failing after %d recoveries: %v", what, attempt, err)
		}
		h.recoverAndVerify(fmt.Sprintf("%s (attempt %d): %v", what, attempt, err))
	}
}

// recoverAndVerify crashes the container (it usually already did), restarts
// it, and asserts full recovery equivalence against the oracle.
func (h *Harness) recoverAndVerify(reason string) {
	h.Crashes++
	_ = h.crash()
	h.recoverContainer(reason)
	h.verify(reason)
}

// recoverContainer restarts the crashed container. Recovery itself can be
// starved by injected faults — bookie read/fence faults, or LTS length
// faults that keep it from learning what is tiered; clear them and retry, as
// a real operator would wait out the outage.
func (h *Harness) recoverContainer(reason string) {
	for attempt := 0; ; attempt++ {
		err := h.restart()
		if err == nil {
			break
		}
		if attempt >= 10 {
			h.t.Fatalf("faultinject: restart after %q: %v", reason, err)
		}
		for _, fb := range h.bookies {
			fb.Reset()
		}
		h.flts.Reset()
	}
	h.Recovered++
}

// verify asserts the container state matches the oracle. A background
// crash (an armed plan firing mid-verify) restarts and re-verifies.
func (h *Harness) verify(reason string) {
	for attempt := 0; ; attempt++ {
		err := h.verifyOnce()
		if err == nil {
			return
		}
		if errors.Is(err, errDivergence) || isLogical(err) {
			h.t.Fatalf("faultinject: verify after %q: %v", reason, err)
		}
		if attempt >= 10 {
			h.t.Fatalf("faultinject: verify after %q: still failing: %v", reason, err)
		}
		h.Crashes++
		_ = h.crash()
		h.recoverContainer(fmt.Sprintf("verify after %q: %v", reason, err))
	}
}

func (h *Harness) verifyOnce() error {
	c := h.container()
	for _, seg := range h.segs {
		m := h.model[seg]
		p := h.pending
		if p != nil && p.seg != seg {
			p = nil // only the in-flight op's own segment is ambiguous
		}
		info, err := c.GetInfo(seg)
		if err != nil {
			if errors.Is(err, segstore.ErrSegmentNotFound) && !m.created {
				continue // creation crashed before becoming durable
			}
			return err
		}
		wantLen := int64(len(m.data))
		pendLen := wantLen
		if p != nil && (p.kind == "append" || p.kind == "merge") {
			pendLen += int64(len(p.data))
		}
		if info.Length != wantLen && info.Length != pendLen {
			return fmt.Errorf("%w: %s length %d, oracle %d (or %d with in-flight append)",
				errDivergence, seg, info.Length, wantLen, pendLen)
		}
		sealOK := info.Sealed == m.sealed ||
			(p != nil && p.kind == "seal" && info.Sealed)
		if !sealOK {
			return fmt.Errorf("%w: %s sealed=%v, oracle %v", errDivergence, seg, info.Sealed, m.sealed)
		}
		startOK := info.StartOffset == m.start ||
			(p != nil && p.kind == "truncate" && info.StartOffset == p.at)
		if !startOK {
			return fmt.Errorf("%w: %s startOffset %d, oracle %d", errDivergence, seg, info.StartOffset, m.start)
		}
		for w, want := range m.writers {
			got, err := c.WriterState(seg, w)
			if err != nil {
				return err
			}
			if got != want && !(p != nil && p.kind == "append" && got == p.num) {
				return fmt.Errorf("%w: %s writer %s at event %d, oracle %d", errDivergence, seg, w, got, want)
			}
		}
		// Read from the durable start offset (already validated above): a
		// durably-applied in-flight truncate makes offsets below it
		// unreadable even though the oracle has not recorded it yet.
		if err := h.verifyReadFrom(c, seg, m, info.StartOffset); err != nil {
			return err
		}
		if info.Length == pendLen && p != nil && (p.kind == "append" || p.kind == "merge") && len(p.data) > 0 && info.StartOffset <= wantLen {
			// The in-flight append (or merge) proved durable; its bytes must
			// match. A partially applied merge would surface here as a length
			// that matches neither oracle value, or as foreign bytes.
			res, err := c.Read(seg, wantLen, len(p.data), 0)
			if err != nil {
				return err
			}
			if !bytes.Equal(res.Data, p.data[:len(res.Data)]) {
				return fmt.Errorf("%w: %s durable in-flight append bytes differ", errDivergence, seg)
			}
		}
	}
	// Cross-tier invariants, checked against the real backing store so an
	// armed LTS fault rule cannot fail the probe itself.
	if err := CheckContainer(c, h.mem); err != nil {
		return fmt.Errorf("%w: %v", errDivergence, err)
	}
	return nil
}

// verifyRead streams [start, length) and compares against the oracle.
func (h *Harness) verifyRead(c *segstore.Container, seg string, m *segModel) error {
	return h.verifyReadFrom(c, seg, m, m.start)
}

func (h *Harness) verifyReadFrom(c *segstore.Container, seg string, m *segModel, from int64) error {
	off := from
	end := int64(len(m.data))
	for off < end {
		max := end - off // never read past the oracle: the segment may hold a durable in-flight tail
		if max > 64<<10 {
			max = 64 << 10
		}
		res, err := c.Read(seg, off, int(max), 0)
		if err != nil {
			return err
		}
		if len(res.Data) == 0 {
			return fmt.Errorf("%w: %s read stalled at %d of %d", errDivergence, seg, off, end)
		}
		want := m.data[off : off+int64(len(res.Data))]
		if !bytes.Equal(res.Data, want) {
			return fmt.Errorf("%w: %s bytes [%d,%d) differ from acked data", errDivergence, seg, off, off+int64(len(res.Data)))
		}
		off += int64(len(res.Data))
	}
	return nil
}

// Run executes the randomized schedule: Ops operations with fault arming
// interleaved, then a final drain (flush everything, verify, and check that
// the tiered state converged).
func (h *Harness) Run() {
	for i := 0; i < h.cfg.Ops; i++ {
		h.maybeArmFaults()
		h.step()
	}
	h.drain()
}

// maybeArmFaults rolls the dice for each fault family.
func (h *Harness) maybeArmFaults() {
	if n := h.cfg.CrashEvery; n > 0 && h.rng.Intn(n) == 0 {
		armed := h.inj.Armed()
		if armed == nil || armed.Fired() {
			h.inj.Arm(&CrashPlan{
				Point: AllPoints[h.rng.Intn(len(AllPoints))],
				Nth:   int64(1 + h.rng.Intn(3)),
			})
		}
	}
	if n := h.cfg.LTSFaultEvery; n > 0 && h.rng.Intn(n) == 0 {
		r := LTSRule{
			Op:    LTSWrite,
			Nth:   1 + h.rng.Intn(4),
			Count: 1 + h.rng.Intn(2),
		}
		switch h.rng.Intn(5) {
		case 0:
			r.Op = LTSCreate
		case 1:
			// Partial write: persist a prefix, then fail.
			r.PartialBytes = 1 + h.rng.Intn(512)
		case 2:
			r.Err = lts.ErrInvalidOffset
		case 3:
			// A length probe fails: adoption after a failed write or
			// create, or in recovery, which then cannot start.
			r.Op = LTSLength
		}
		h.flts.AddRule(r)
	}
	if n := h.cfg.BookieFaultEvery; n > 0 && h.rng.Intn(n) == 0 && len(h.bookies) > 0 {
		// One faulty bookie at a time keeps injected failures within the
		// 3/3/2 ack-quorum tolerance; two at once would (correctly) wedge
		// appends, which is not the behavior under test here.
		for _, fb := range h.bookies {
			fb.Reset()
		}
		h.bookies[h.rng.Intn(len(h.bookies))].AddRule(BookieRule{
			Op:      BookieAdd,
			Nth:     1 + h.rng.Intn(4),
			Count:   1 + h.rng.Intn(3),
			DropAck: h.rng.Intn(2) == 0,
		})
	}
}

// step performs one random workload operation.
func (h *Harness) step() {
	seg := h.segs[h.rng.Intn(len(h.segs))]
	m := h.model[seg]
	switch r := h.rng.Intn(100); {
	case r < 60:
		h.stepAppend(seg, m)
	case r < 75:
		h.mustRetry(fmt.Sprintf("read %s", seg), func() error {
			return h.verifyRead(h.container(), seg, m)
		})
	case r < 81:
		h.stepTruncate(seg, m)
	case r < 85:
		h.stepSeal(seg, m)
	case r < 95:
		h.stepMergeTxn(seg, m)
	default:
		h.mustRetry("checkpoint", func() error {
			return h.container().Checkpoint()
		})
	}
}

func (h *Harness) stepAppend(seg string, m *segModel) {
	if m.sealed {
		// Appending to a sealed segment must fail deterministically.
		_, err := h.container().Append(seg, []byte("x"), "", 0, 1)
		if err == nil || (!errors.Is(err, segstore.ErrSegmentSealed) && !isAmbiguous(err)) {
			h.t.Fatalf("faultinject: append to sealed %s: got %v, want ErrSegmentSealed", seg, err)
		}
		return
	}
	writerID := "w-" + seg
	num := h.nextEvent[seg] + 1
	data := make([]byte, 1+h.rng.Intn(700))
	h.rng.Read(data)
	wantOff := int64(len(m.data))
	h.pending = &pendingOp{kind: "append", seg: seg, data: data, num: num}
	h.mustRetry(fmt.Sprintf("append %s event %d", seg, num), func() error {
		off, err := h.container().Append(seg, data, writerID, num, 1)
		if err != nil {
			return err
		}
		// off == -1 means the retry found the first attempt had landed
		// (writer dedup) — exactly-once held either way.
		if off >= 0 && off != wantOff {
			return fmt.Errorf("%w: %s append at offset %d, oracle %d", errDivergence, seg, off, wantOff)
		}
		return nil
	})
	h.pending = nil
	h.nextEvent[seg] = num
	m.data = append(m.data, data...)
	m.writers[writerID] = num
}

func (h *Harness) stepTruncate(seg string, m *segModel) {
	if int64(len(m.data)) <= m.start {
		return
	}
	at := m.start + 1 + h.rng.Int63n(int64(len(m.data))-m.start)
	h.pending = &pendingOp{kind: "truncate", seg: seg, at: at}
	h.mustRetry(fmt.Sprintf("truncate %s@%d", seg, at), func() error {
		return h.container().Truncate(seg, at)
	})
	h.pending = nil
	if at > m.start {
		m.start = at
	}
}

func (h *Harness) stepSeal(seg string, m *segModel) {
	if m.sealed {
		return
	}
	h.pending = &pendingOp{kind: "seal", seg: seg}
	h.mustRetry(fmt.Sprintf("seal %s", seg), func() error {
		_, err := h.container().Seal(seg)
		if errors.Is(err, segstore.ErrSegmentSealed) {
			return nil // the pre-crash attempt was applied
		}
		return err
	})
	h.pending = nil
	m.sealed = true
}

// stepMergeTxn models one stream transaction against seg (§3.2): it builds
// a shadow segment, appends a few events into it, seals it, and commits by
// merging it into the parent. Every phase survives crash-recovery retries;
// the merge itself is the atomicity probe — after any crash the parent must
// hold either none of the shadow's bytes or all of them, never a prefix.
func (h *Harness) stepMergeTxn(seg string, m *segModel) {
	if m.sealed {
		return
	}
	h.txnSeq++
	shadow := fmt.Sprintf("%s#transaction.%08x", seg, h.txnSeq)
	h.mustRetry(fmt.Sprintf("create shadow %s", shadow), func() error {
		err := h.container().CreateSegment(shadow)
		if errors.Is(err, segstore.ErrSegmentExists) {
			return nil // applied before a crash
		}
		return err
	})

	var payload []byte
	writerID := "txn-" + shadow
	events := int64(1 + h.rng.Intn(3))
	for ev := int64(1); ev <= events; ev++ {
		data := make([]byte, 1+h.rng.Intn(400))
		h.rng.Read(data)
		h.mustRetry(fmt.Sprintf("append shadow %s event %d", shadow, ev), func() error {
			// Writer dedup makes the retry exactly-once (off == -1 on a
			// deduplicated landing).
			_, err := h.container().Append(shadow, data, writerID, ev, 1)
			return err
		})
		payload = append(payload, data...)
	}
	h.mustRetry(fmt.Sprintf("seal shadow %s", shadow), func() error {
		_, err := h.container().Seal(shadow)
		if errors.Is(err, segstore.ErrSegmentSealed) {
			return nil
		}
		return err
	})

	wantOff := int64(len(m.data))
	h.pending = &pendingOp{kind: "merge", seg: seg, data: payload}
	h.mustRetry(fmt.Sprintf("merge %s into %s", shadow, seg), func() error {
		off, err := h.container().MergeSegment(seg, shadow)
		if errors.Is(err, segstore.ErrSegmentNotFound) {
			// The shadow is gone: only the merge deletes it, so a previous
			// ambiguous attempt was applied in full.
			return nil
		}
		if err != nil {
			return err
		}
		if off != wantOff {
			return fmt.Errorf("%w: %s merge at offset %d, oracle %d", errDivergence, seg, off, wantOff)
		}
		return nil
	})
	h.pending = nil
	m.data = append(m.data, payload...)
}

func isAmbiguous(err error) bool {
	return err != nil && !isLogical(err)
}

// drain forces the backlog to LTS (fault rules have bounded counts, so the
// flush eventually succeeds), then asserts final equivalence: every acked
// byte tiered, storageLength == length, all invariants green.
func (h *Harness) drain() {
	deadline := time.Now().Add(30 * time.Second)
	h.mustRetry("final drain", func() error {
		for {
			err := h.container().FlushAll()
			if err == nil {
				return nil
			}
			if errors.Is(err, segstore.ErrContainerDown) {
				return err // crashed mid-flush: recover and re-drain
			}
			// FlushAll does not always surface a crash (flushOnce bails out
			// early on a down container); probe with a WAL round trip so a
			// crashed container is restarted instead of spinning here.
			if perr := h.container().Checkpoint(); perr != nil {
				return perr
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%w: backlog never drained: %v", errDivergence, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	})
	h.verify("final drain")
	for _, seg := range h.segs {
		m := h.model[seg]
		info, err := h.container().GetInfo(seg)
		if err != nil {
			h.t.Fatalf("faultinject: final info %s: %v", seg, err)
		}
		if info.StorageLength != int64(len(m.data)) {
			h.t.Fatalf("faultinject: %s drained but storageLength %d != length %d",
				seg, info.StorageLength, len(m.data))
		}
	}
}
