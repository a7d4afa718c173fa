package placement_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/client"
	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/keyspace"
	"github.com/pravega-go/pravega/internal/lts"
	"github.com/pravega-go/pravega/internal/placement"
	"github.com/pravega-go/pravega/internal/segment"
	"github.com/pravega-go/pravega/internal/segstore"
	"github.com/pravega-go/pravega/internal/wire"
)

// The router's contract, checked once per Store transport. Two stores share
// one coordination store, bookie ensemble and LTS; container 0 starts on
// store a and the cases move it (or orphan it) by hand, so every placement
// change is a deliberate step of the test, not an assigner's.

const containers = 2

// transports are the two implementations of placement.Store: direct calls
// on the store, and the wire protocol over loopback TCP to a store-role
// server.
var transports = map[string]func(t *testing.T, fx *fixture) func(placement.Endpoint) (placement.Store, error){
	"direct": func(t *testing.T, fx *fixture) func(placement.Endpoint) (placement.Store, error) {
		return func(ep placement.Endpoint) (placement.Store, error) {
			for _, st := range fx.stores {
				if st.ID() == ep.ID {
					return placement.Local{St: st}, nil
				}
			}
			return nil, fmt.Errorf("no store %q", ep.ID)
		}
	},
	"wire": func(t *testing.T, fx *fixture) func(placement.Endpoint) (placement.Store, error) {
		for _, st := range fx.stores {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := wire.NewServer(wire.ServerConfig{Data: placement.Local{St: st}}, ln)
			t.Cleanup(func() { _ = srv.Close() })
			// The host registration carries the address the router dials.
			if _, err := segstore.StartOwnershipManager(st, srv.Addr()); err != nil {
				t.Fatal(err)
			}
		}
		return wire.StoreDialer(wire.DialTCP, wire.ClientConfig{})
	},
}

type fixture struct {
	stores []*segstore.Store // a, b
	hooks  *hooks
	source *gatedSource
	router *placement.Router
}

func newFixture(t *testing.T, transport string, window time.Duration) *fixture {
	t.Helper()
	meta := cluster.NewStore()
	bk, err := bookkeeper.NewClient(bookkeeper.ClientConfig{Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		b := bookkeeper.NewBookie(bookkeeper.BookieConfig{ID: fmt.Sprintf("bookie-%d", i)})
		t.Cleanup(b.Close)
		bk.RegisterBookie(b)
	}
	fx := &fixture{hooks: &hooks{}}
	store := lts.NewMemory()
	for _, id := range []string{"a", "b"} {
		st, err := segstore.NewStore(segstore.StoreConfig{
			ID:              id,
			TotalContainers: containers,
			Container: segstore.ContainerConfig{
				BK: bk, Meta: meta, Replication: bookkeeper.DefaultReplication(), LTS: store,
			},
			Cluster: meta,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = st.Close() })
		fx.stores = append(fx.stores, st)
	}
	for id, st := range fx.stores {
		if _, err := st.StartContainer(id); err != nil {
			t.Fatal(err)
		}
	}
	dial := transports[transport](t, fx)
	fx.source = &gatedSource{Source: placement.CoordSource{Coord: meta, Total: containers}}
	fx.router, err = placement.New(placement.Config{
		Source: fx.source,
		Dial: func(ep placement.Endpoint) (placement.Store, error) {
			st, err := dial(ep)
			return hooked{Store: st, h: fx.hooks}, err
		},
		Window: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fx.router.Close() })
	return fx
}

// orphan crashes container 0 on store a, leaving it unowned; claimOnB
// recovers it on store b; move does both.
func (fx *fixture) orphan(t *testing.T) {
	t.Helper()
	if err := fx.stores[0].CrashContainer(0); err != nil {
		t.Fatal(err)
	}
}

func (fx *fixture) claimOnB(t *testing.T) {
	t.Helper()
	if _, err := fx.stores[1].StartContainer(0); err != nil {
		t.Error(err)
	}
}

func (fx *fixture) move(t *testing.T) {
	fx.orphan(t)
	fx.claimOnB(t)
}

// seg names a segment in container 0.
func seg(label string) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("conf/%s/%d", label, i)
		if keyspace.HashToContainer(segment.RoutingName(name), containers) == 0 {
			return name
		}
	}
}

// gatedSource counts snapshots and, while held, keeps the epoch watch from
// refreshing the table behind a case's back.
type gatedSource struct {
	placement.Source
	snapshots atomic.Int64
	held      atomic.Bool
}

func (s *gatedSource) Snapshot() (placement.Snapshot, error) {
	s.snapshots.Add(1)
	return s.Source.Snapshot()
}

func (s *gatedSource) WaitEpoch(known int64, stop <-chan struct{}) (int64, error) {
	epoch, err := s.Source.WaitEpoch(known, stop)
	// A watch armed before the hold began must not report either.
	for s.held.Load() {
		select {
		case <-stop:
			return known, nil
		case <-time.After(time.Millisecond):
		}
	}
	return epoch, err
}

// hooks script faults at the Store boundary, identically for both
// transports: before may fail an attempt without running it, after may
// replace a successful attempt's result (the operation ran; its ack is
// lost).
type hooks struct {
	mu     sync.Mutex
	before func(op string) error
	after  func(op string) error
}

func (h *hooks) set(before, after func(op string) error) {
	h.mu.Lock()
	h.before, h.after = before, after
	h.mu.Unlock()
}

func (h *hooks) run(op string, attempt func() error) error {
	h.mu.Lock()
	before, after := h.before, h.after
	h.mu.Unlock()
	if before != nil {
		if err := before(op); err != nil {
			return err
		}
	}
	err := attempt()
	if err == nil && after != nil {
		err = after(op)
	}
	return err
}

// failOnce returns a hook failing the first attempt of op with err.
func failOnce(op string, err error, then func()) func(string) error {
	var fired atomic.Bool
	return func(got string) error {
		if got != op || !fired.CompareAndSwap(false, true) {
			return nil
		}
		if then != nil {
			then()
		}
		return err
	}
}

type hooked struct {
	placement.Store
	h *hooks
}

func (s hooked) GetInfo(name string) (info segment.Info, err error) {
	err = s.h.run("GetInfo", func() (err error) { info, err = s.Store.GetInfo(name); return err })
	return info, err
}

func (s hooked) CreateSegment(name string) error {
	return s.h.run("CreateSegment", func() error { return s.Store.CreateSegment(name) })
}

func (s hooked) DeleteSegment(name string) error {
	return s.h.run("DeleteSegment", func() error { return s.Store.DeleteSegment(name) })
}

func (s hooked) MergeSegment(target, source string) (off int64, err error) {
	err = s.h.run("MergeSegment", func() (err error) { off, err = s.Store.MergeSegment(target, source); return err })
	return off, err
}

var errLostAck = fmt.Errorf("connection reset with the request out: %w", client.ErrDisconnected)

func TestRouterConformance(t *testing.T) {
	cases := []struct {
		name   string
		window time.Duration
		run    func(t *testing.T, fx *fixture)
	}{
		{"wrong host refreshes and succeeds", 0, func(t *testing.T, fx *fixture) {
			name := seg("moved")
			if err := fx.router.CreateSegment(name); err != nil {
				t.Fatal(err)
			}
			fx.source.held.Store(true) // the table stays stale: the miss must cure it
			fx.move(t)
			before := fx.source.snapshots.Load()
			if _, err := fx.router.GetInfo(name); err != nil {
				t.Fatalf("GetInfo after the container moved: %v", err)
			}
			if fx.source.snapshots.Load() == before {
				t.Fatal("stale routing succeeded without a placement refresh")
			}
			if owner, err := fx.router.OwnerOf(name); err != nil || owner != "b" {
				t.Fatalf("OwnerOf = %q, %v; want b", owner, err)
			}
		}},
		{"unowned window is ridden out until the re-claim", 0, func(t *testing.T, fx *fixture) {
			name := seg("orphan")
			if err := fx.router.CreateSegment(name); err != nil {
				t.Fatal(err)
			}
			fx.orphan(t)
			go func() {
				time.Sleep(100 * time.Millisecond)
				fx.claimOnB(t)
			}()
			start := time.Now()
			if _, err := fx.router.GetInfo(name); err != nil {
				t.Fatalf("GetInfo across the unowned window: %v", err)
			}
			if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
				t.Fatalf("GetInfo answered after %v, before the re-claim", elapsed)
			}
		}},
		{"window lapse surfaces ErrWrongHost", 300 * time.Millisecond, func(t *testing.T, fx *fixture) {
			name := seg("lost")
			if err := fx.router.CreateSegment(name); err != nil {
				t.Fatal(err)
			}
			fx.orphan(t)
			start := time.Now()
			_, err := fx.router.GetInfo(name)
			if !errors.Is(err, client.ErrWrongHost) {
				t.Fatalf("GetInfo on an ownerless container = %v, want ErrWrongHost", err)
			}
			if elapsed := time.Since(start); elapsed > 3*time.Second {
				t.Fatalf("retry not bounded by the window: gave up after %v", elapsed)
			}
		}},
		{"lost ack on create resolves to created", 0, func(t *testing.T, fx *fixture) {
			name := seg("create")
			fx.hooks.set(nil, failOnce("CreateSegment", errLostAck, nil))
			if err := fx.router.CreateSegment(name); err != nil {
				t.Fatalf("create whose ack was lost: %v", err)
			}
			fx.hooks.set(nil, nil)
			if err := fx.router.CreateSegment(name); !errors.Is(err, segstore.ErrSegmentExists) {
				t.Fatalf("unambiguous duplicate create = %v, want ErrSegmentExists", err)
			}
		}},
		{"lost ack on delete resolves to deleted", 0, func(t *testing.T, fx *fixture) {
			name := seg("delete")
			if err := fx.router.CreateSegment(name); err != nil {
				t.Fatal(err)
			}
			fx.hooks.set(nil, failOnce("DeleteSegment", errLostAck, nil))
			if err := fx.router.DeleteSegment(name); err != nil {
				t.Fatalf("delete whose ack was lost: %v", err)
			}
			fx.hooks.set(nil, nil)
			if err := fx.router.DeleteSegment(name); !errors.Is(err, segstore.ErrSegmentNotFound) {
				t.Fatalf("unambiguous duplicate delete = %v, want ErrSegmentNotFound", err)
			}
		}},
		{"lost ack on merge rebuilds the offset from the target length", 0, func(t *testing.T, fx *fixture) {
			target, shadow := mergePair(t, fx, "merge")
			fx.hooks.set(nil, failOnce("MergeSegment", errLostAck, nil))
			off, err := fx.router.MergeSegment(target, shadow)
			if err != nil {
				t.Fatalf("merge whose ack was lost: %v", err)
			}
			if off != 10 {
				t.Fatalf("merge offset %d, want 10", off)
			}
			if info, err := fx.router.GetInfo(target); err != nil || info.Length != 15 {
				t.Fatalf("target after merge: %+v, %v; want length 15", info, err)
			}
		}},
		{"wrong host on merge is not ambiguous", 0, func(t *testing.T, fx *fixture) {
			target, shadow := mergePair(t, fx, "miss")
			// The first attempt never starts; the source then vanishes for a
			// reason that is not this merge, and the retry must say so.
			fx.hooks.set(failOnce("MergeSegment", fmt.Errorf("not here: %w", client.ErrWrongHost), func() {
				if err := (placement.Local{St: fx.stores[0]}).DeleteSegment(shadow); err != nil {
					t.Error(err)
				}
			}), nil)
			if _, err := fx.router.MergeSegment(target, shadow); !errors.Is(err, segstore.ErrSegmentNotFound) {
				t.Fatalf("merge after a wrong-host miss = %v, want ErrSegmentNotFound", err)
			}
			if info, err := fx.router.GetInfo(target); err != nil || info.Length != 10 {
				t.Fatalf("target after failed merge: %+v, %v; want length 10", info, err)
			}
		}},
		{"ctx cancel unblocks a retrying read", 0, func(t *testing.T, fx *fixture) {
			name := seg("cancel")
			if err := fx.router.CreateSegment(name); err != nil {
				t.Fatal(err)
			}
			fx.orphan(t)
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := fx.router.ReadCtx(ctx, name, 0, 64, time.Second)
				done <- err
			}()
			time.Sleep(50 * time.Millisecond) // let it settle into the retry loop
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled read = %v, want context.Canceled", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("read still retrying 2s after its ctx was cancelled")
			}
		}},
		{"64 concurrent wrong-host callers cause one refresh", 0, func(t *testing.T, fx *fixture) {
			const callers = 64
			name := seg("storm")
			if err := fx.router.CreateSegment(name); err != nil {
				t.Fatal(err)
			}
			fx.source.held.Store(true)
			fx.move(t)
			// Hold every caller's first attempt until all of them have routed
			// with the stale table.
			var arrived sync.WaitGroup
			arrived.Add(callers)
			var first atomic.Int64
			fx.hooks.set(func(op string) error {
				if op == "GetInfo" && first.Add(1) <= callers {
					arrived.Done()
					arrived.Wait()
				}
				return nil
			}, nil)
			before := fx.source.snapshots.Load()
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := fx.router.GetInfo(name); err != nil {
						t.Errorf("GetInfo: %v", err)
					}
				}()
			}
			wg.Wait()
			if got := fx.source.snapshots.Load() - before; got != 1 {
				t.Fatalf("%d callers on one stale table took %d placement snapshots, want 1", callers, got)
			}
		}},
	}
	for transport := range transports {
		for _, tc := range cases {
			t.Run(transport+"/"+tc.name, func(t *testing.T) {
				tc.run(t, newFixture(t, transport, tc.window))
			})
		}
	}
}

// mergePair creates a 10-byte target and a sealed 5-byte transaction shadow
// in container 0.
func mergePair(t *testing.T, fx *fixture, label string) (target, shadow string) {
	t.Helper()
	target = seg(label)
	shadow = segment.TxnSegmentName(target, "txn-"+label)
	for name, data := range map[string]string{target: "0123456789", shadow: "abcde"} {
		if err := fx.router.CreateSegment(name); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.router.AppendConditional(name, []byte(data), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fx.router.SealSegment(shadow); err != nil {
		t.Fatal(err)
	}
	return target, shadow
}
