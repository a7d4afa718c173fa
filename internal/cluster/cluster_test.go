package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestCreateGetSetDelete(t *testing.T) {
	s := NewStore()
	if err := s.Create("/a", []byte("one")); err != nil {
		t.Fatal(err)
	}
	data, stat, err := s.Get("/a")
	if err != nil || string(data) != "one" || stat.Version != 0 {
		t.Fatalf("Get = %q, %+v, %v", data, stat, err)
	}
	if _, err := s.Set("/a", []byte("two"), 0); err != nil {
		t.Fatal(err)
	}
	data, stat, _ = s.Get("/a")
	if string(data) != "two" || stat.Version != 1 {
		t.Fatalf("after Set: %q v%d", data, stat.Version)
	}
	if err := s.Delete("/a", 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("/a"); !errors.Is(err, ErrNoNode) {
		t.Fatalf("Get after delete: %v", err)
	}
}

func TestVersionedCAS(t *testing.T) {
	s := NewStore()
	if err := s.Create("/n", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Set("/n", []byte("x"), 5); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("stale CAS: %v", err)
	}
	if _, err := s.Set("/n", []byte("x"), -1); err != nil {
		t.Fatalf("unconditional set: %v", err)
	}
	if err := s.Delete("/n", 0); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("stale delete: %v", err)
	}
}

func TestCreateSemantics(t *testing.T) {
	s := NewStore()
	if err := s.Create("/a/b", nil); !errors.Is(err, ErrNoParent) {
		t.Fatalf("create without parent: %v", err)
	}
	if err := s.CreateAll("/a/b/c", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("/a", nil); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := s.Delete("/a", -1); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("delete non-empty: %v", err)
	}
	kids, err := s.Children("/a/b")
	if err != nil || len(kids) != 1 || kids[0] != "c" {
		t.Fatalf("Children = %v, %v", kids, err)
	}
	if !s.Exists("/a/b/c") || s.Exists("/nope") {
		t.Fatal("Exists wrong")
	}
	if err := s.Create("bad", nil); err == nil {
		t.Fatal("relative path accepted")
	}
}

func TestDataWatchFiresOnce(t *testing.T) {
	s := NewStore()
	if err := s.Create("/w", nil); err != nil {
		t.Fatal(err)
	}
	ch, err := s.WatchData("/w")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Set("/w", []byte("1"), -1); err != nil {
		t.Fatal(err)
	}
	ev := <-ch
	if ev.Type != EventChanged {
		t.Fatalf("event %+v", ev)
	}
	// One-shot: a second change produces nothing on the same channel.
	if _, err := s.Set("/w", []byte("2"), -1); err != nil {
		t.Fatal(err)
	}
	if _, open := <-ch; open {
		t.Fatal("watch channel should be closed after one event")
	}
}

func TestChildWatch(t *testing.T) {
	s := NewStore()
	if err := s.Create("/p", nil); err != nil {
		t.Fatal(err)
	}
	ch, err := s.WatchChildren("/p")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Create("/p/c", nil); err != nil {
		t.Fatal(err)
	}
	ev := <-ch
	if ev.Type != EventChildren {
		t.Fatalf("event %+v", ev)
	}
}

func TestEphemeralLifecycle(t *testing.T) {
	s := NewStore()
	sess := s.NewSession()
	if err := sess.CreateEphemeral("/e", []byte("me")); err != nil {
		t.Fatal(err)
	}
	_, stat, err := s.Get("/e")
	if err != nil || !stat.Ephemeral || stat.Owner != sess.ID() {
		t.Fatalf("stat %+v, %v", stat, err)
	}
	watch, _ := s.WatchData("/e")
	sess.Close()
	if s.Exists("/e") {
		t.Fatal("ephemeral survived session close")
	}
	ev := <-watch
	if ev.Type != EventDeleted {
		t.Fatalf("watch after session close: %+v", ev)
	}
	if err := sess.CreateEphemeral("/late", nil); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("create on closed session: %v", err)
	}
	sess.Close() // idempotent
}

func TestEphemeralDeepPathsCleanup(t *testing.T) {
	s := NewStore()
	if err := s.CreateAll("/svc/instances", nil); err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	for i := 0; i < 5; i++ {
		if err := sess.CreateEphemeral(fmt.Sprintf("/svc/instances/i%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	kids, _ := s.Children("/svc/instances")
	if len(kids) != 0 {
		t.Fatalf("ephemerals remain: %v", kids)
	}
}

func TestConcurrentSessionsAndCAS(t *testing.T) {
	s := NewStore()
	if err := s.Create("/ctr", []byte("0")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var wins int64
	var mu sync.Mutex
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				data, stat, err := s.Get("/ctr")
				if err != nil {
					t.Error(err)
					return
				}
				n := 0
				fmt.Sscanf(string(data), "%d", &n)
				if _, err := s.Set("/ctr", []byte(fmt.Sprintf("%d", n+1)), stat.Version); err == nil {
					mu.Lock()
					wins++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	data, _, _ := s.Get("/ctr")
	var final int64
	fmt.Sscanf(string(data), "%d", &final)
	if final != wins {
		t.Fatalf("CAS not linearizable: counter %d, wins %d", final, wins)
	}
}
