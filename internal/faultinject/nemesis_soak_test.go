package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pravega-go/pravega/pkg/pravega"
)

// TestNemesisSoak drives a full client workload — concurrent keyed writers,
// a tail reader joined mid-run by a second reader (forcing a reader-group
// rebalance), and transactions — through the nemesis proxy with a randomized
// rule mix per seed, while a chaos goroutine kills connections and opens
// short partitions. The oracle is exactly-once for everything the client
// acked: no acked event lost, nothing delivered twice, per-key order
// monotone within each reader, and no event of an aborted transaction ever
// delivered.
//
// Seeds derive from a fixed base (override with PRAVEGA_FAULT_BASE_SEED),
// so any failure reproduces by running its seed-N subtest alone.
func TestNemesisSoak(t *testing.T) {
	base := int64(20260807)
	if s := os.Getenv("PRAVEGA_FAULT_BASE_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad PRAVEGA_FAULT_BASE_SEED %q: %v", s, err)
		}
		base = v
	}
	n := 100
	if testing.Short() {
		n = 10
	}
	for i := 0; i < n; i++ {
		seed := base + int64(i)
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			runNemesisSoak(t, seed)
		})
	}
}

// soakOracle classifies every event the workload produced and checks each
// delivery against that classification.
type soakOracle struct {
	mu sync.Mutex
	// expected events must be delivered exactly once (the client holds an
	// ack, or a transaction commit was confirmed).
	expected map[string]bool
	// forbidden events must never be delivered (their transaction was
	// confirmed aborted).
	forbidden map[string]bool
	// maybe events may appear at most once (ack or txn outcome was lost to
	// the network and could not be resolved).
	maybe map[string]bool
	// delivered counts every event read back, across both readers.
	delivered map[string]int
	// lastSeq tracks, per reader and per key, the last sequence number that
	// reader observed; within one reader a key's sequence must be strictly
	// increasing (segment handoffs may move a key between readers, so
	// contiguity is only required globally, checked via expected/delivered).
	lastSeq map[string]map[string]int
}

func newSoakOracle() *soakOracle {
	return &soakOracle{
		expected:  make(map[string]bool),
		forbidden: make(map[string]bool),
		maybe:     make(map[string]bool),
		delivered: make(map[string]int),
		lastSeq:   make(map[string]map[string]int),
	}
}

// observe records one delivery and returns a non-empty violation
// description if it breaks an invariant.
func (o *soakOracle) observe(reader, event string) string {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.forbidden[event] {
		return fmt.Sprintf("reader %s delivered event %q from an aborted transaction", reader, event)
	}
	if !o.expected[event] && !o.maybe[event] {
		return fmt.Sprintf("reader %s delivered unknown event %q", reader, event)
	}
	o.delivered[event]++
	if o.delivered[event] > 1 {
		return fmt.Sprintf("event %q delivered %d times", event, o.delivered[event])
	}
	// Events are "key|%04d" or "txnK|eN": per-key sequence is the text after
	// the last '|'.
	cut := strings.LastIndex(event, "|")
	key := event[:cut]
	seq, err := strconv.Atoi(strings.TrimPrefix(event[cut+1:], "e"))
	if err != nil {
		return fmt.Sprintf("malformed event %q", event)
	}
	per := o.lastSeq[reader]
	if per == nil {
		per = make(map[string]int)
		o.lastSeq[reader] = per
	}
	if last, ok := per[key]; ok && seq <= last {
		return fmt.Sprintf("reader %s: key %s seq %d after %d (reorder)", reader, key, seq, last)
	}
	per[key] = seq
	return ""
}

func (o *soakOracle) missing() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []string
	for e := range o.expected {
		if o.delivered[e] == 0 {
			out = append(out, e)
		}
	}
	return out
}

func (o *soakOracle) expectedCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for e := range o.expected {
		if o.delivered[e] > 0 {
			n++
		}
	}
	return n
}

func (o *soakOracle) expectedTotal() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.expected)
}

// forbiddenDelivered reports aborted-transaction events that made it to a
// reader — including ones delivered while their outcome was still "maybe".
func (o *soakOracle) forbiddenDelivered() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []string
	for e := range o.forbidden {
		if o.delivered[e] > 0 {
			out = append(out, e)
		}
	}
	return out
}

func sample(events []string, n int) []string {
	if len(events) > n {
		events = events[:n]
	}
	return events
}

func soakNemesisConfig(seed int64) NemesisConfig {
	rng := rand.New(rand.NewSource(seed * 2654435761))
	return NemesisConfig{
		Seed:             seed,
		LatencyBase:      time.Duration(rng.Intn(200)) * time.Microsecond,
		LatencyJitter:    time.Duration(rng.Intn(500)) * time.Microsecond,
		SplitProb:        rng.Float64() * 0.15,
		CoalesceProb:     rng.Float64() * 0.10,
		DupProb:          rng.Float64() * 0.10,
		KillMidFrameProb: rng.Float64() * 0.01,
		BlackHoleProb:    rng.Float64() * 0.10,
		BlackHoleFor:     20 * time.Millisecond,
	}
}

func runNemesisSoak(t *testing.T, seed int64) {
	rig := newNemesisRig(t, soakNemesisConfig(seed), pravega.ClientConfig{
		SyncRetryWindow: 30 * time.Second,
	})
	const scope, stream = "soak", "s"
	mustStream(t, rig.sys, scope, stream, 2)
	oracle := newSoakOracle()

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	// Chaos: seeded kills and short partitions, concurrent with the whole
	// write phase. Passive byte-level rules (split/dup/latency/...) stay on
	// for the read phase too; only the connection-level chaos stops, so the
	// read-back converges.
	chaosStop := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		crng := rand.New(rand.NewSource(seed*7919 + 17))
		for {
			select {
			case <-chaosStop:
				return
			case <-time.After(time.Duration(20+crng.Intn(60)) * time.Millisecond):
			}
			if crng.Intn(3) == 0 {
				rig.proxy.Partition(time.Duration(10+crng.Intn(40)) * time.Millisecond)
			} else {
				rig.proxy.KillAll()
			}
		}
	}()

	// Readers: r1 from the start, r2 joins mid-run to force a rebalance.
	rg, err := rig.sys.NewReaderGroup("rg-soak", scope, stream)
	if err != nil {
		t.Fatalf("NewReaderGroup: %v", err)
	}
	readCtx, readStop := context.WithCancel(ctx)
	defer readStop()
	violations := make(chan string, 16)
	var readWG sync.WaitGroup
	runReader := func(name string, delay time.Duration) {
		defer readWG.Done()
		select {
		case <-time.After(delay):
		case <-readCtx.Done():
			return
		}
		var r *pravega.Reader
		for {
			var err error
			if r, err = rg.NewReader(name); err == nil {
				break
			}
			select {
			case <-time.After(20 * time.Millisecond):
			case <-readCtx.Done():
				return
			}
		}
		defer r.Close()
		for readCtx.Err() == nil {
			ev, err := r.ReadNextEvent(500 * time.Millisecond)
			if errors.Is(err, pravega.ErrNoEvent) {
				continue
			}
			if err != nil {
				// Transient network failure: back off briefly and retry
				// until the workload drains or the test deadline fires.
				time.Sleep(10 * time.Millisecond)
				continue
			}
			if v := oracle.observe(name, string(ev.Data)); v != "" {
				select {
				case violations <- v:
				default:
				}
			}
		}
	}
	readWG.Add(2)
	go runReader("r1", 0)
	go runReader("r2", 250*time.Millisecond)

	// Writers: two concurrent keyed writers, 2 keys × 30 events each.
	const keysPerWriter, perKey = 2, 30
	var writeWG sync.WaitGroup
	var writeErrs sync.Map
	for wi := 0; wi < 2; wi++ {
		writeWG.Add(1)
		go func(wi int) {
			defer writeWG.Done()
			w, err := rig.sys.NewWriter(pravega.WriterConfig{Scope: scope, Stream: stream})
			if err != nil {
				writeErrs.Store(fmt.Sprintf("writer %d", wi), err.Error())
				return
			}
			defer w.Close()
			type pending struct {
				event string
				fut   *pravega.WriteFuture
			}
			var futs []pending
			for seq := 0; seq < perKey; seq++ {
				for k := 0; k < keysPerWriter; k++ {
					key := fmt.Sprintf("w%d-k%d", wi, k)
					event := fmt.Sprintf("%s|%04d", key, seq)
					// Pre-register before the write is in flight: a reader
					// may deliver the event before the ack lands here.
					oracle.mu.Lock()
					oracle.maybe[event] = true
					oracle.mu.Unlock()
					futs = append(futs, pending{event, w.WriteEvent(key, []byte(event))})
				}
			}
			for _, p := range futs {
				err := p.fut.Wait(ctx)
				oracle.mu.Lock()
				if err == nil {
					delete(oracle.maybe, p.event)
					oracle.expected[p.event] = true
				}
				// No ack: stays "maybe" — the event may or may not be in
				// the stream.
				oracle.mu.Unlock()
			}
		}(wi)
	}

	// Transactions: commit the even ones, abort the odd ones; resolve any
	// outcome the network made ambiguous via Status before classifying the
	// transaction's events.
	runTxns(t, ctx, rig.sys, oracle, scope, stream, seed)

	writeWG.Wait()
	writeErrs.Range(func(k, v any) bool {
		t.Errorf("%s: %s", k, v)
		return true
	})
	close(chaosStop)
	chaosWG.Wait()
	// A partition scheduled just before chaos stopped may still be open.
	for rig.proxy.Partitioned() {
		time.Sleep(5 * time.Millisecond)
	}

	// Drain: wait for every expected event, then a short grace window to
	// catch late duplicates or forbidden deliveries.
	total := oracle.expectedTotal()
	deadline := time.Now().Add(60 * time.Second)
	for oracle.expectedCount() < total {
		select {
		case v := <-violations:
			t.Fatalf("seed %d: %s", seed, v)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: read stalled at %d/%d acked events; missing (sample): %v",
				seed, oracle.expectedCount(), total, sample(oracle.missing(), 5))
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond)
	readStop()
	readWG.Wait()
	close(violations)
	for v := range violations {
		t.Fatalf("seed %d: %s", seed, v)
	}
	if missing := oracle.missing(); len(missing) > 0 {
		t.Fatalf("seed %d: %d acked events never delivered: %v", seed, len(missing), sample(missing, 5))
	}
	if fd := oracle.forbiddenDelivered(); len(fd) > 0 {
		t.Fatalf("seed %d: aborted-transaction events delivered: %v", seed, sample(fd, 5))
	}
}

// runTxns opens three transactions of three events each. Even transactions
// commit, odd ones abort. Any error path resolves the true outcome through
// the controller before the events are classified, so the oracle never
// forbids an event that actually committed (or expects one that aborted).
func runTxns(t *testing.T, ctx context.Context, sys *pravega.System, oracle *soakOracle, scope, stream string, seed int64) {
	t.Helper()
	var tw *pravega.TransactionalEventWriter
	for {
		var err error
		if tw, err = sys.NewTransactionalWriter(pravega.TxnWriterConfig{
			Scope: scope, Stream: stream, Lease: 2 * time.Minute,
		}); err == nil {
			break
		}
		if ctx.Err() != nil {
			t.Fatalf("NewTransactionalWriter: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer tw.Close()
	for i := 0; i < 3; i++ {
		var txn *pravega.Txn
		for {
			var err error
			if txn, err = tw.BeginTxn(ctx); err == nil {
				break
			}
			if ctx.Err() != nil {
				t.Fatalf("BeginTxn %d: %v", i, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
		key := fmt.Sprintf("txn%d-%d", seed%1000, i)
		var events []string
		var futs []*pravega.WriteFuture
		for e := 0; e < 3; e++ {
			ev := fmt.Sprintf("%s|e%d", key, e)
			events = append(events, ev)
			// Pre-register: a committed transaction's events can reach a
			// reader before this goroutine classifies the outcome.
			oracle.mu.Lock()
			oracle.maybe[ev] = true
			oracle.mu.Unlock()
			futs = append(futs, txn.WriteEvent(key, []byte(ev)))
		}
		wantCommit := i%2 == 0
		for _, f := range futs {
			if err := f.Wait(ctx); err != nil {
				// Transactional writes have no replay path: a lost shadow
				// write means the transaction cannot commit complete.
				wantCommit = false
				break
			}
		}
		status := finalizeTxn(ctx, txn, wantCommit)
		oracle.mu.Lock()
		switch status {
		case pravega.TxnCommitted:
			for _, ev := range events {
				delete(oracle.maybe, ev)
				oracle.expected[ev] = true
			}
		case pravega.TxnAborted:
			for _, ev := range events {
				delete(oracle.maybe, ev)
				oracle.forbidden[ev] = true
			}
		default:
			// Outcome unconfirmed: the events stay "maybe".
		}
		oracle.mu.Unlock()
	}
}

// finalizeTxn drives a transaction to its intended terminal state, treating
// every error as possibly-applied: after a failed Commit/Abort it consults
// Status, and only reports a terminal state the controller confirmed.
// Returns "" if the outcome could not be confirmed before the deadline.
func finalizeTxn(ctx context.Context, txn *pravega.Txn, commit bool) pravega.TxnStatus {
	deadline := time.Now().Add(45 * time.Second)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		var err error
		if commit {
			err = txn.Commit(ctx)
		} else {
			err = txn.Abort(ctx)
		}
		if err == nil {
			if commit {
				return pravega.TxnCommitted
			}
			return pravega.TxnAborted
		}
		st, serr := txn.Status(ctx)
		if serr == nil {
			switch st {
			case pravega.TxnCommitted, pravega.TxnAborted:
				return st
			case pravega.TxnCommitting:
				// The controller owns the commit now; keep retrying Commit,
				// which rolls an in-flight commit forward (idempotent).
				commit = true
			case pravega.TxnAborting:
				commit = false
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return ""
}
