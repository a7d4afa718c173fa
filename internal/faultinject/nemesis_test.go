package faultinject

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/role"
	"github.com/pravega-go/pravega/internal/segment"
	"github.com/pravega-go/pravega/internal/segstore"
	"github.com/pravega-go/pravega/internal/wire"
	"github.com/pravega-go/pravega/pkg/pravega"
)

// nemesisRig is one proxied deployment: an in-process cluster whose coord
// and stores each sit behind a nemesis proxy, and a pravega System connected
// through them — so every client byte crosses the fault pipeline.
type nemesisRig struct {
	cluster *role.Cluster
	proxy   *proxyNet
	sys     *pravega.System
}

// proxyNet is a role.Net on loopback TCP with a NemesisProxy in front of
// every role. Each role advertises its proxy, so every client byte — and
// every call the coord makes to a store — crosses the fault pipeline; the
// stores reach the coord directly, so their leases and WAL writes do not.
// Each fault control acts on every proxy.
type proxyNet struct {
	cfg NemesisConfig

	mu      sync.Mutex
	proxies map[string]*NemesisProxy // by role name: "coord" or a store id
}

func (n *proxyNet) net() role.Net {
	return role.Net{Dial: wire.DialTCP, Listen: func(name string) (net.Listener, string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, "", err
		}
		p, err := NewNemesisProxy("127.0.0.1:0", ln.Addr().String(), n.cfg)
		if err != nil {
			_ = ln.Close()
			return nil, "", err
		}
		n.mu.Lock()
		n.proxies[name] = p
		n.mu.Unlock()
		return ln, p.Addr(), nil
	}}
}

// proxy returns the proxy in front of the named role.
func (n *proxyNet) proxy(name string) *NemesisProxy {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.proxies[name]
}

func (n *proxyNet) all() []*NemesisProxy {
	n.mu.Lock()
	defer n.mu.Unlock()
	ps := make([]*NemesisProxy, 0, len(n.proxies))
	for _, p := range n.proxies {
		ps = append(ps, p)
	}
	return ps
}

func (n *proxyNet) KillAll() {
	for _, p := range n.all() {
		p.KillAll()
	}
}

func (n *proxyNet) Partition(d time.Duration) {
	for _, p := range n.all() {
		p.Partition(d)
	}
}

// Partitioned reports whether any proxy's partition is still in force.
func (n *proxyNet) Partitioned() bool {
	for _, p := range n.all() {
		if p.Partitioned() {
			return true
		}
	}
	return false
}

func (n *proxyNet) DropReplyOnce(t wire.MessageType) {
	for _, p := range n.all() {
		p.DropReplyOnce(t)
	}
}

func (n *proxyNet) Injected() (sum int64) {
	for _, p := range n.all() {
		sum += p.Injected()
	}
	return sum
}

func (n *proxyNet) Close() {
	for _, p := range n.all() {
		_ = p.Close()
	}
}

func newNemesisRig(t *testing.T, ncfg NemesisConfig, ccfg pravega.ClientConfig) *nemesisRig {
	t.Helper()
	return newNemesisRigCluster(t, ncfg, ccfg, role.ClusterConfig{Coord: role.CoordConfig{Stores: 2, Containers: 2}})
}

// newNemesisRigCluster is newNemesisRig with the backing cluster's shape
// under the caller's control (store-kill runs want more stores and fast
// ownership timings).
func newNemesisRigCluster(t *testing.T, ncfg NemesisConfig, ccfg pravega.ClientConfig, clcfg role.ClusterConfig) *nemesisRig {
	t.Helper()
	proxies := &proxyNet{cfg: ncfg, proxies: make(map[string]*NemesisProxy)}
	cl, err := role.StartCluster(proxies.net(), clcfg)
	if err != nil {
		proxies.Close()
		t.Fatalf("role.StartCluster: %v", err)
	}
	// The initial dials cross the fault pipeline too (a black-holed or
	// killed connection fails the whole Connect), so Connect retries.
	var sys *pravega.System
	deadline := time.Now().Add(20 * time.Second)
	for {
		sys, err = pravega.Connect(cl.Addr(), ccfg)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			proxies.Close()
			cl.Close()
			t.Fatalf("Connect through nemesis: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	rig := &nemesisRig{cluster: cl, proxy: proxies, sys: sys}
	t.Cleanup(func() {
		rig.sys.Close()
		rig.proxy.Close()
		rig.cluster.Close()
	})
	return rig
}

func mustStream(t *testing.T, sys *pravega.System, scope, stream string, segments int) {
	t.Helper()
	// "Already exists" is success here: a create whose ack the nemesis ate
	// is retried by the transport after the first attempt applied.
	if err := sys.Streams().CreateScope(context.Background(), scope); err != nil && !errors.Is(err, pravega.ErrScopeExists) {
		t.Fatalf("CreateScope: %v", err)
	}
	err := sys.Streams().Create(context.Background(), pravega.StreamConfig{Scope: scope, Name: stream, InitialSegments: segments})
	if err != nil && !errors.Is(err, pravega.ErrStreamExists) {
		t.Fatalf("CreateStream: %v", err)
	}
}

// writeReadRoundTrip drives keyed event sequences through the proxied
// system and checks the exactly-once oracle: every acked event is read
// exactly once, in per-key order, with no gaps and nothing extra.
func writeReadRoundTrip(t *testing.T, sys *pravega.System, scope string, keys, perKey int) {
	t.Helper()
	mustStream(t, sys, scope, "s", 2)
	w, err := sys.NewWriter(pravega.WriterConfig{Scope: scope, Stream: "s"})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	var futs []*pravega.WriteFuture
	for seq := 0; seq < perKey; seq++ {
		for k := 0; k < keys; k++ {
			futs = append(futs, w.WriteEvent(fmt.Sprintf("k%d", k), []byte(fmt.Sprintf("k%d:%04d", k, seq))))
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, f := range futs {
		if err := f.Wait(ctx); err != nil {
			t.Fatalf("event %d not acked: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("writer close: %v", err)
	}

	rg, err := sys.NewReaderGroup("rg-"+scope, scope, "s")
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
			t.Fatalf("ReadNextEvent after %d events: %v", len(seen), err)
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

func assertInjected(t *testing.T, p interface{ Injected() int64 }) {
	t.Helper()
	if n := p.Injected(); n == 0 {
		t.Fatal("nemesis injected no faults; the rule under test never fired")
	}
}

func TestNemesisSplitFrames(t *testing.T) {
	rig := newNemesisRig(t, NemesisConfig{Seed: 11, SplitProb: 0.6}, pravega.ClientConfig{})
	writeReadRoundTrip(t, rig.sys, "split", 4, 40)
	assertInjected(t, rig.proxy)
	// Stores advertise their proxies, so the client's appends and reads
	// reach the stores through them: the store proxies carried at least the
	// payload, once each way.
	var storeBytes int64
	for _, st := range rig.cluster.Stores() {
		storeBytes += rig.proxy.proxy(st.ID()).Forwarded()
	}
	if payload := int64(4 * 40 * len("k0:0000")); storeBytes < 2*payload {
		t.Fatalf("store proxies forwarded %d bytes, under the %d bytes of payload written and read", storeBytes, 2*payload)
	}
}

func TestNemesisCoalesceFrames(t *testing.T) {
	rig := newNemesisRig(t, NemesisConfig{Seed: 12, CoalesceProb: 0.5}, pravega.ClientConfig{})
	writeReadRoundTrip(t, rig.sys, "coalesce", 4, 40)
	assertInjected(t, rig.proxy)
}

func TestNemesisDuplicateFrames(t *testing.T) {
	// Duplicated request frames exercise server-side writer dedup;
	// duplicated reply frames exercise the client's request-id correlation.
	rig := newNemesisRig(t, NemesisConfig{Seed: 13, DupProb: 0.5}, pravega.ClientConfig{})
	writeReadRoundTrip(t, rig.sys, "dup", 4, 40)
	assertInjected(t, rig.proxy)
}

func TestNemesisLatencyJitter(t *testing.T) {
	rig := newNemesisRig(t, NemesisConfig{
		Seed: 14, LatencyBase: 200 * time.Microsecond, LatencyJitter: time.Millisecond,
	}, pravega.ClientConfig{})
	writeReadRoundTrip(t, rig.sys, "latency", 4, 20)
}

func TestNemesisKillMidFrame(t *testing.T) {
	// Connections die after a partial frame; the writer must replay parked
	// batches through reconnects without losing or duplicating events.
	rig := newNemesisRig(t, NemesisConfig{Seed: 15, KillMidFrameProb: 0.02}, pravega.ClientConfig{})
	writeReadRoundTrip(t, rig.sys, "killmid", 4, 40)
	assertInjected(t, rig.proxy)
}

func TestNemesisBlackHole(t *testing.T) {
	// Kills force redials; a redialed connection may land in a black hole
	// (accepted, swallowed, killed after the stall) before a clean one
	// succeeds.
	rig := newNemesisRig(t, NemesisConfig{
		Seed: 16, KillMidFrameProb: 0.01, BlackHoleProb: 0.3, BlackHoleFor: 30 * time.Millisecond,
	}, pravega.ClientConfig{})
	writeReadRoundTrip(t, rig.sys, "blackhole", 4, 30)
	assertInjected(t, rig.proxy)
}

func TestNemesisPartition(t *testing.T) {
	rig := newNemesisRig(t, NemesisConfig{Seed: 17}, pravega.ClientConfig{})
	sys := rig.sys
	mustStream(t, sys, "part", "s", 2)
	w, err := sys.NewWriter(pravega.WriterConfig{Scope: "part", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	var futs []*pravega.WriteFuture
	for i := 0; i < 40; i++ {
		futs = append(futs, w.WriteEvent(fmt.Sprintf("k%d", i%4), []byte(fmt.Sprintf("k%d:%04d", i%4, i/4))))
	}
	rig.proxy.Partition(150 * time.Millisecond)
	if !rig.proxy.Partitioned() {
		t.Fatal("Partitioned() false right after Partition()")
	}
	// Writes issued INTO the partition park on the disconnect and must
	// replay exactly once after it heals.
	for i := 40; i < 80; i++ {
		futs = append(futs, w.WriteEvent(fmt.Sprintf("k%d", i%4), []byte(fmt.Sprintf("k%d:%04d", i%4, i/4))))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, f := range futs {
		if err := f.Wait(ctx); err != nil {
			t.Fatalf("event %d not acked across partition: %v", i, err)
		}
	}
	if rig.proxy.Partitioned() {
		t.Fatal("partition never healed")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rg, err := sys.NewReaderGroup("rg-part", "part", "s")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	seen := make(map[string]bool)
	deadline := time.Now().Add(60 * time.Second)
	for len(seen) < 80 {
		ev, err := r.ReadNextEvent(2 * time.Second)
		if errors.Is(err, pravega.ErrNoEvent) {
			if time.Now().After(deadline) {
				t.Fatalf("read stalled with %d/80 events", len(seen))
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		s := string(ev.Data)
		if seen[s] {
			t.Fatalf("duplicate event %q", s)
		}
		seen[s] = true
	}
	assertInjected(t, rig.proxy)
}

// TestMergeAppliedAckLost is the regression for the non-idempotent merge
// retry: the merge applies on the server, the ack dies with the connection,
// and the client's retry finds the source segment gone. The client must
// resolve the ambiguity (via the source/target lengths) and report success
// with the correct merge offset — not surface ErrSegmentNotFound for a
// commit that happened.
func TestMergeAppliedAckLost(t *testing.T) {
	rig := newNemesisRig(t, NemesisConfig{Seed: 18}, pravega.ClientConfig{})
	wc, err := wire.NewClient(rig.cluster.Addr(), wire.ClientConfig{})
	if err != nil {
		t.Fatalf("wire.NewClient: %v", err)
	}
	defer wc.Close()

	const target = "mrg/parent"
	shadow := segment.TxnSegmentName(target, "txn-lostack") // routes with its parent
	if err := wc.CreateSegment(target); err != nil {
		t.Fatal(err)
	}
	if err := wc.CreateSegment(shadow); err != nil {
		t.Fatal(err)
	}
	if _, err := wc.AppendConditional(target, []byte("0123456789"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := wc.AppendConditional(shadow, []byte("abcde"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := wc.SealSegment(shadow); err != nil {
		t.Fatalf("seal shadow: %v", err)
	}

	rig.proxy.DropReplyOnce(wire.MsgMergeSegments)
	off, err := wc.MergeSegment(target, shadow)
	if err != nil {
		t.Fatalf("MergeSegment with lost ack: %v", err)
	}
	if off != 10 {
		t.Fatalf("merge offset %d, want 10", off)
	}
	info, err := wc.GetInfo(target)
	if err != nil {
		t.Fatal(err)
	}
	if info.Length != 15 {
		t.Fatalf("target length %d after merge, want 15", info.Length)
	}
	if _, err := wc.GetInfo(shadow); !errors.Is(err, segstore.ErrSegmentNotFound) {
		t.Fatalf("shadow GetInfo: %v, want ErrSegmentNotFound", err)
	}
	assertInjected(t, rig.proxy)
}

// TestLongPollReapedOnConnDrop verifies end to end that a tail read blocked
// in a server-side long poll is cancelled — and its segment-store waiter
// deregistered — when the connection carrying it drops: the connection's
// end is what ends a wait whose client is gone.
func TestLongPollReapedOnConnDrop(t *testing.T) {
	rig := newNemesisRig(t, NemesisConfig{Seed: 19}, pravega.ClientConfig{})
	wc, err := wire.NewClient(rig.cluster.Addr(), wire.ClientConfig{SyncRetryWindow: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	const name = "reap/seg"
	if err := wc.CreateSegment(name); err != nil {
		t.Fatal(err)
	}
	var cont *segstore.Container
	for _, st := range rig.cluster.Stores() {
		if c, err := st.Container(name); err == nil {
			cont = c
		}
	}
	if cont == nil {
		t.Fatalf("no store hosts the container of %s", name)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = wc.Read(name, 0, 1024, 30*time.Second)
	}()
	waitFor := func(want int, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for cont.TailWaiters(name) != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d tail waiters, want %d", what, cont.TailWaiters(name), want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor(1, "long-poll in flight")
	// Let the client's SyncRetryWindow lapse so the kill below cannot be
	// answered by a retried read (which would legitimately register a fresh
	// waiter and mask the leak check).
	time.Sleep(1200 * time.Millisecond)
	rig.proxy.KillAll()
	// The server must observe the drop, cancel the read, and deregister the
	// waiter long before the 30s wait expires.
	waitFor(0, "after connection drop")
	<-done
}
