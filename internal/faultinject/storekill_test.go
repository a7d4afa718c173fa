package faultinject

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/role"
	"github.com/pravega-go/pravega/internal/segstore"
	"github.com/pravega-go/pravega/internal/sim"
	"github.com/pravega-go/pravega/pkg/pravega"
)

// storeKillClusterConfig is the backing deployment for store-kill runs:
// three stores so every crash leaves survivors, and fast ownership timings
// so failover resolves within the workload's patience.
func storeKillClusterConfig() role.ClusterConfig {
	return role.ClusterConfig{
		Coord: role.CoordConfig{Stores: 3, Containers: 2},
		Store: role.StoreConfig{LeaseTTL: 500 * time.Millisecond},
	}
}

// TestNemesisStoreKillFailover is the acceptance scenario for dynamic
// ownership: an in-flight writer/reader pair runs over the wire transport
// through the nemesis proxy while the StoreKiller repeatedly crashes a live
// store (claims orphaned, WALs fenced, survivors re-acquire) and grows a
// replacement back in. The oracle is exactly-once: every acked event is
// delivered exactly once, in per-key order, across every failover.
func TestNemesisStoreKillFailover(t *testing.T) {
	rig := newNemesisRigCluster(t, NemesisConfig{
		Seed:        21,
		SplitProb:   0.10,
		LatencyBase: 100 * time.Microsecond,
	}, pravega.ClientConfig{SyncRetryWindow: 30 * time.Second}, storeKillClusterConfig())
	killer := NewStoreKiller(rig.cluster, 21)

	const scope, keys, perKey = "storekill", 4, 30
	mustStream(t, rig.sys, scope, "s", 2)
	w, err := rig.sys.NewWriter(pravega.WriterConfig{Scope: scope, Stream: "s"})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Three write phases with a kill/replace cycle between each: phase N's
	// acks prove the writer recovered its position across failover N-1, and
	// the final read-back proves nothing was lost or doubled anywhere.
	var futs []*pravega.WriteFuture
	phase := func(from, to int) {
		for seq := from; seq < to; seq++ {
			for k := 0; k < keys; k++ {
				futs = append(futs, w.WriteEvent(fmt.Sprintf("k%d", k),
					[]byte(fmt.Sprintf("k%d:%04d", k, seq))))
			}
		}
	}
	phase(0, perKey/3)
	for _, f := range futs {
		if err := f.Wait(ctx); err != nil {
			t.Fatalf("phase 1 ack: %v", err)
		}
	}
	if err := killer.Cycle(10 * time.Second); err != nil {
		t.Fatalf("kill cycle 1: %v", err)
	}
	phase(perKey/3, 2*perKey/3)
	// Kill with this phase's writes in flight: parked batches must replay
	// exactly once against the re-acquired containers.
	if err := killer.Cycle(10 * time.Second); err != nil {
		t.Fatalf("kill cycle 2: %v", err)
	}
	phase(2*perKey/3, perKey)
	for i, f := range futs {
		if err := f.Wait(ctx); err != nil {
			t.Fatalf("event %d not acked across store kills: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("writer close: %v", err)
	}
	if killer.Kills() != 2 || killer.Adds() != 2 {
		t.Fatalf("killer ran %d kills / %d adds, want 2/2", killer.Kills(), killer.Adds())
	}

	// Exactly-once read-back with per-key order.
	rg, err := rig.sys.NewReaderGroup("rg-storekill", scope, "s")
	if err != nil {
		t.Fatalf("NewReaderGroup: %v", err)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	defer r.Close()
	total := keys * perKey
	seen := make(map[string]bool, total)
	lastSeq := make(map[string]int, keys)
	deadline := time.Now().Add(60 * time.Second)
	for len(seen) < total {
		ev, err := r.ReadNextEvent(2 * time.Second)
		if errors.Is(err, pravega.ErrNoEvent) {
			if time.Now().After(deadline) {
				t.Fatalf("read stalled with %d/%d events", len(seen), total)
			}
			continue
		}
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		s := string(ev.Data)
		if seen[s] {
			t.Fatalf("duplicate event %q", s)
		}
		seen[s] = true
		key, seqStr, ok := strings.Cut(s, ":")
		if !ok {
			t.Fatalf("malformed event %q", s)
		}
		seq, _ := strconv.Atoi(seqStr)
		last, present := lastSeq[key]
		if !present {
			last = -1
		}
		if seq != last+1 {
			t.Fatalf("key %s: got seq %d after %d (order/loss violation)", key, seq, last)
		}
		lastSeq[key] = seq
	}
}

// TestStoreKillerLeavesLastStore pins the killer's safety bound: with one
// live store left it refuses to kill, so the nemesis can never take the
// whole cluster down.
func TestStoreKillerLeavesLastStore(t *testing.T) {
	cl, err := role.StartCluster(role.SimNet(sim.NewNet(), sim.LinkConfig{}), role.ClusterConfig{
		Coord: role.CoordConfig{Stores: 2, Containers: 1},
		Store: role.StoreConfig{LeaseTTL: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	killer := NewStoreKiller(cl, 1)
	killed, err := killer.KillOne()
	if err != nil || !killed {
		t.Fatalf("first kill = %v, %v; want killed", killed, err)
	}
	if err := cl.AwaitConverged(10 * time.Second); err != nil {
		t.Fatalf("survivor never re-acquired: %v", err)
	}
	if claims, err := segstore.ClaimedContainers(cl.Meta()); err != nil || len(claims) != cl.TotalContainers() {
		t.Fatalf("containers unowned after failover: claims %v, %v", claims, err)
	}
	killed, err = killer.KillOne()
	if err != nil || killed {
		t.Fatalf("second kill = %v, %v; want refused", killed, err)
	}
	if killer.Kills() != 1 {
		t.Fatalf("Kills() = %d, want 1", killer.Kills())
	}
}
