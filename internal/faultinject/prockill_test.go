package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/pravega-go/pravega/pkg/pravega"
)

// The prockill suite is the storekill suite with real processes: instead of
// Store.Crash inside the test binary, a store is an OS process that gets
// kill -9 — no deferred cleanup, no flush, nothing. The coord process holds
// the coordination store and the WAL bookies, so an acked event survives
// any store process's death.

var (
	buildOnce sync.Once
	builtBin  string
	buildErr  error
)

// serverBinary builds cmd/pravega-server once per test binary run.
func serverBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "pravega-prockill-*")
		if err != nil {
			buildErr = err
			return
		}
		builtBin, buildErr = BuildServerBinary(dir)
	})
	if buildErr != nil {
		t.Fatalf("building server binary: %v", buildErr)
	}
	return builtBin
}

func prockillSeed(t *testing.T) int64 {
	base := int64(20260807)
	if s := os.Getenv("PRAVEGA_FAULT_BASE_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad PRAVEGA_FAULT_BASE_SEED %q: %v", s, err)
		}
		base = v
	}
	return base
}

// TestProcKillCycles is the acceptance run: coord + 3 store processes, five
// seeded SIGKILL -> reconverge -> restart cycles, all under concurrent
// writers, tail readers, and transactions. The exactly-once oracle holds
// throughout, and every convergence happens without operator intervention
// — survivors claim the dead store's containers once its lease lapses
// (lease expiry on a REAL process kill), and the restarted process rejoins
// on its original address.
func TestProcKillCycles(t *testing.T) {
	seed := prockillSeed(t)
	bin := serverBinary(t)

	pc, err := StartProcCluster(ProcClusterConfig{
		Bin: bin, Dir: t.TempDir(),
		Stores: 3, ContainersPerStore: 2, Bookies: 3,
		LeaseTTL: 1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pc.Close)
	if err := pc.AwaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	sys, err := pravega.Connect(pc.CoordAddr(), pravega.ClientConfig{SyncRetryWindow: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	const scope, stream = "prockill", "s"
	mustStream(t, sys, scope, stream, 2)
	oracle := newSoakOracle()

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	// Readers: r1 from the start, r2 joins mid-run (rebalance under fire).
	rg, err := sys.NewReaderGroup("rg-prockill", scope, stream)
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
				// A kill mid-read: back off and retry until failover heals.
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
	go runReader("r2", 500*time.Millisecond)

	// Writers: continuous keyed writes for the whole nemesis run; each
	// writer stops soon after the last cycle (minimum 40 events per key so
	// even a fast nemesis leaves a real workload).
	nemesisDone := make(chan struct{})
	var writeWG sync.WaitGroup
	var writeErrs sync.Map
	for wi := 0; wi < 2; wi++ {
		writeWG.Add(1)
		go func(wi int) {
			defer writeWG.Done()
			w, err := sys.NewWriter(pravega.WriterConfig{Scope: scope, Stream: stream})
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
			for seq := 0; ; seq++ {
				done := false
				select {
				case <-nemesisDone:
					done = seq >= 40
				default:
				}
				if done || seq >= 1500 || ctx.Err() != nil {
					break
				}
				for k := 0; k < 2; k++ {
					key := fmt.Sprintf("w%d-k%d", wi, k)
					event := fmt.Sprintf("%s|%04d", key, seq)
					// Pre-register: a reader can deliver before the ack lands.
					oracle.mu.Lock()
					oracle.maybe[event] = true
					oracle.mu.Unlock()
					futs = append(futs, pending{event, w.WriteEvent(key, []byte(event))})
				}
				time.Sleep(20 * time.Millisecond)
			}
			for _, p := range futs {
				err := p.fut.Wait(ctx)
				oracle.mu.Lock()
				if err == nil {
					delete(oracle.maybe, p.event)
					oracle.expected[p.event] = true
				}
				oracle.mu.Unlock()
			}
		}(wi)
	}

	// The nemesis: five seeded SIGKILL -> reconverge -> restart cycles,
	// concurrent with everything above.
	nemesisErr := make(chan error, 1)
	go func() {
		defer close(nemesisDone)
		rng := rand.New(rand.NewSource(seed*6364136223846793005 + 1442695040888963407))
		for cycle := 0; cycle < 5; cycle++ {
			alive := pc.AliveStores()
			victim := alive[rng.Intn(len(alive))]
			if err := pc.KillStore(victim); err != nil {
				nemesisErr <- fmt.Errorf("cycle %d: kill store %d: %w", cycle, victim, err)
				return
			}
			// Convergence here REQUIRES the victim's lease to expire: its
			// host ephemeral and claims must vanish and survivors must own
			// every container.
			if err := pc.AwaitConverged(30 * time.Second); err != nil {
				nemesisErr <- fmt.Errorf("cycle %d: after killing store %d: %w", cycle, victim, err)
				return
			}
			if err := pc.RestartStore(victim); err != nil {
				nemesisErr <- fmt.Errorf("cycle %d: restart store %d: %w", cycle, victim, err)
				return
			}
			if err := pc.AwaitConverged(30 * time.Second); err != nil {
				nemesisErr <- fmt.Errorf("cycle %d: after restarting store %d: %w", cycle, victim, err)
				return
			}
			t.Logf("cycle %d: killed store %d, survivors converged, restart converged", cycle, victim)
		}
	}()

	// Transactions run on the test goroutine, concurrent with the kills:
	// even ones commit, odd ones abort, ambiguous outcomes resolve through
	// the controller.
	runTxns(t, ctx, sys, oracle, scope, stream, seed)

	writeWG.Wait()
	writeErrs.Range(func(k, v any) bool {
		t.Errorf("%s: %s", k, v)
		return true
	})
	<-nemesisDone
	select {
	case err := <-nemesisErr:
		t.Fatal(err)
	default:
	}

	// Drain: every acked event must arrive, then a grace window catches
	// late duplicates or aborted-txn leaks.
	total := oracle.expectedTotal()
	deadline := time.Now().Add(90 * time.Second)
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

// TestProcGracefulStop pins the SIGTERM path at the process level: the
// lease TTL is two minutes, so if the drained store did NOT release its
// claims (StopContainer drain + lease release) before exiting, survivors
// would sit on its containers until expiry and the 20-second convergence
// below would fail. The process must also exit with status 0.
func TestProcGracefulStop(t *testing.T) {
	bin := serverBinary(t)
	pc, err := StartProcCluster(ProcClusterConfig{
		Bin: bin, Dir: t.TempDir(),
		Stores: 2, ContainersPerStore: 2, Bookies: 3,
		LeaseTTL: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pc.Close)
	if err := pc.AwaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	sys, err := pravega.Connect(pc.CoordAddr(), pravega.ClientConfig{SyncRetryWindow: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	const scope, stream = "graceful", "s"
	mustStream(t, sys, scope, stream, 2)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	w, err := sys.NewWriter(pravega.WriterConfig{Scope: scope, Stream: stream})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	want := make(map[string]bool)
	for i := 0; i < 20; i++ {
		ev := fmt.Sprintf("k%d|%04d", i%4, i/4)
		want[ev] = true
		if err := w.WriteEvent(fmt.Sprintf("k%d", i%4), []byte(ev)).Wait(ctx); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}

	if err := pc.StopStore(0, 20*time.Second); err != nil {
		t.Fatalf("graceful stop: %v", err)
	}
	if err := pc.AwaitConverged(20 * time.Second); err != nil {
		t.Fatalf("survivor did not take over after graceful handoff: %v", err)
	}

	// Every acked event is still readable from the survivor.
	rg, err := sys.NewReaderGroup("rg-graceful", scope, stream)
	if err != nil {
		t.Fatal(err)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := make(map[string]bool)
	deadline := time.Now().Add(45 * time.Second)
	for len(got) < len(want) {
		if time.Now().After(deadline) {
			t.Fatalf("read stalled at %d/%d events after graceful handoff", len(got), len(want))
		}
		ev, err := r.ReadNextEvent(500 * time.Millisecond)
		if err != nil {
			continue
		}
		e := string(ev.Data)
		if !want[e] {
			t.Fatalf("unexpected event %q", e)
		}
		if got[e] {
			t.Fatalf("event %q delivered twice", e)
		}
		got[e] = true
	}
}
