package segstore

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/keyspace"
)

// ownershipStore builds a Store (no containers yet) against the shared test
// env, with an optional lease TTL.
func ownershipStore(t *testing.T, env *testEnv, id string, total int, ttl time.Duration) *Store {
	t.Helper()
	st, err := NewStore(StoreConfig{
		ID:              id,
		TotalContainers: total,
		Container:       env.containerConfig(0),
		Cluster:         env.meta,
		LeaseTTL:        ttl,
	})
	if err != nil {
		t.Fatalf("NewStore %s: %v", id, err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

// followingStore is ownershipStore plus a running ownership manager.
func followingStore(t *testing.T, env *testEnv, id string, total int, ttl time.Duration) *Store {
	t.Helper()
	st := ownershipStore(t, env, id, total, ttl)
	if _, err := StartOwnershipManager(st, ""); err != nil {
		t.Fatal(err)
	}
	return st
}

// handAssigner is an assigner whose passes the test runs by hand.
func handAssigner(t *testing.T, env *testEnv, total int) *Assigner {
	t.Helper()
	a, err := newAssigner(env.meta, total)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func (a *Assigner) mustPass(t *testing.T) []string {
	t.Helper()
	if err := a.pass(); err != nil {
		t.Fatal(err)
	}
	as, _, err := ReadAssignment(a.cs)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

func sortedIDs(ids []int) []int {
	sort.Ints(ids)
	return ids
}

// awaitFollowed waits until every store hosts exactly the containers the
// published assignment gives it.
func awaitFollowed(t *testing.T, env *testEnv, stores ...*Store) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		as, _, err := ReadAssignment(env.meta)
		if err != nil {
			t.Fatal(err)
		}
		done := true
		for _, st := range stores {
			var want []int
			for id, owner := range as {
				if owner == st.ID() {
					want = append(want, id)
				}
			}
			if got := sortedIDs(st.HostedContainers()); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				done = false
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stores never followed assignment %v: claims %v", as, claimsOf(t, env))
		}
		time.Sleep(time.Millisecond)
	}
}

// passUntilStable runs assigner passes, letting the stores follow each,
// until a pass changes nothing.
func passUntilStable(t *testing.T, env *testEnv, a *Assigner, stores ...*Store) []string {
	t.Helper()
	for round := 0; round < 10; round++ {
		_, before, err := ReadAssignment(env.meta)
		if err != nil {
			t.Fatal(err)
		}
		as := a.mustPass(t)
		awaitFollowed(t, env, stores...)
		if _, after, _ := ReadAssignment(env.meta); after == before {
			return as
		}
	}
	t.Fatalf("assignment never settled: %v", claimsOf(t, env))
	return nil
}

func claimsOf(t *testing.T, env *testEnv) map[int]string {
	t.Helper()
	claims, err := ClaimedContainers(env.meta)
	if err != nil {
		t.Fatal(err)
	}
	return claims
}

func claimCounts(t *testing.T, env *testEnv) map[string]int {
	t.Helper()
	claims, err := ClaimedContainers(env.meta)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, owner := range claims {
		count[owner]++
	}
	return count
}

func TestContainerOwner(t *testing.T) {
	env := newTestEnv(t)
	st := ownershipStore(t, env, "s0", 2, 0)
	if claims := claimsOf(t, env); len(claims) != 0 {
		t.Fatalf("claims before any start = %v, want none", claims)
	}
	if _, err := st.StartContainer(0); err != nil {
		t.Fatal(err)
	}
	if claims := claimsOf(t, env); claims[0] != "s0" {
		t.Fatalf("claims = %v; want container 0 on s0", claims)
	}
	// A graceful stop releases the claim.
	if err := st.StopContainer(0); err != nil {
		t.Fatal(err)
	}
	if claims := claimsOf(t, env); len(claims) != 0 {
		t.Fatalf("claims after StopContainer = %v, want none", claims)
	}
}

// TestRebalanceSplitsContainers: one assigner pass over two registered
// stores places every container once, evenly, and each store starts what
// it was given.
func TestRebalanceSplitsContainers(t *testing.T) {
	env := newTestEnv(t)
	s0 := followingStore(t, env, "s0", 4, time.Minute)
	s1 := followingStore(t, env, "s1", 4, time.Minute)
	a := handAssigner(t, env, 4)
	if as := a.mustPass(t); !reflect.DeepEqual(as, []string{"s0", "s1", "s0", "s1"}) {
		t.Fatalf("first assignment %v, want the preferred layout [s0 s1 s0 s1]", as)
	}
	awaitFollowed(t, env, s0, s1)
	_, v1, _ := ReadAssignment(env.meta)
	a.mustPass(t)
	if _, v2, _ := ReadAssignment(env.meta); v2 != v1 {
		t.Fatalf("a pass over a converged cluster rewrote the assignment (version %d -> %d)", v1, v2)
	}
	if count := claimCounts(t, env); count["s0"] != 2 || count["s1"] != 2 {
		t.Fatalf("uneven split: %v", claimsOf(t, env))
	}
}

// TestLeaseExpiryHandsOverClaims lets one store's lease lapse (it has no
// manager, so nothing renews it). While its claims exist the assigner
// names no one else for them; once the session expires — at its deadline,
// with no other traffic — the next pass gives them to the survivor, and
// the expired store's renewal reports the closed session.
func TestLeaseExpiryHandsOverClaims(t *testing.T) {
	env := newTestEnv(t)
	ttl := 100 * time.Millisecond
	dead := ownershipStore(t, env, "dead", 2, ttl)
	// A live host that follows nothing: registered, never renewed.
	if err := dead.session.CreateEphemeral(hostsRoot+"/dead", nil); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 2; id++ {
		if _, err := dead.StartContainer(id); err != nil {
			t.Fatal(err)
		}
	}
	surv := followingStore(t, env, "surv", 2, 0)
	a := handAssigner(t, env, 2)

	if as := a.mustPass(t); !reflect.DeepEqual(as, []string{"dead", ""}) {
		t.Fatalf("assignment while dead's claims live = %v, want [dead \"\"]", as)
	}
	claimsGone, err := env.meta.WatchData(assignmentRoot + "/1")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-claimsGone:
	case <-time.After(10 * time.Second):
		t.Fatal("expired lease never dropped its claims")
	}
	if as := a.mustPass(t); !reflect.DeepEqual(as, []string{"surv", "surv"}) {
		t.Fatalf("assignment after expiry = %v, want both on surv", as)
	}
	awaitFollowed(t, env, surv)
	if claims := claimsOf(t, env); claims[0] != "surv" || claims[1] != "surv" {
		t.Fatalf("claims = %v; want both on surv", claims)
	}
	if err := dead.session.Renew(); !errors.Is(err, cluster.ErrSessionClosed) {
		t.Fatalf("expired store's lease renewal = %v, want ErrSessionClosed", err)
	}
}

// TestRebalanceShedsOnJoin adds a third store to a converged pair: the
// assigner moves one container from each onto it, and everyone ends at
// its share.
func TestRebalanceShedsOnJoin(t *testing.T) {
	env := newTestEnv(t)
	const total = 6
	stores := []*Store{
		followingStore(t, env, "s0", total, time.Minute),
		followingStore(t, env, "s1", total, time.Minute),
	}
	a := handAssigner(t, env, total)
	passUntilStable(t, env, a, stores...)

	stores = append(stores, followingStore(t, env, "s2", total, time.Minute))
	passUntilStable(t, env, a, stores...)
	claims, err := ClaimedContainers(env.meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) != total {
		t.Fatalf("%d/%d claimed after join: %v", len(claims), total, claimsOf(t, env))
	}
	count := claimCounts(t, env)
	for _, id := range []string{"s0", "s1", "s2"} {
		if count[id] != 2 {
			t.Fatalf("store %s holds %d containers after join, want 2: %v",
				id, count[id], claimsOf(t, env))
		}
	}
}

// segIn names a segment that hashes to container id.
func segIn(id, total int) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("own/s/%d-%d", id, i)
		if keyspace.HashToContainer(name, total) == id {
			return name
		}
	}
}

// TestMoveWaitsForOldClaim pins the two-step move. A joining store's share
// is first taken away from its holder — unassigned, not reassigned — while
// the holder's claim exists. The holder drains, flushes and releases; only
// the pass after that names the joiner, which recovers a container whose
// every byte is already in long-term storage.
func TestMoveWaitsForOldClaim(t *testing.T) {
	env := newTestEnv(t)
	const total = 2
	s0 := followingStore(t, env, "s0", total, time.Minute)
	a := handAssigner(t, env, total)
	passUntilStable(t, env, a, s0)

	// Container 1 is s1's preferred container once s1 joins.
	seg := segIn(1, total)
	c, err := s0.ContainerByID(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	payload := []byte("written before the move")
	if _, err := c.Append(seg, payload, "w", 1, 1); err != nil {
		t.Fatal(err)
	}

	claimGone, err := env.meta.WatchData(assignmentRoot + "/1")
	if err != nil {
		t.Fatal(err)
	}
	s1 := followingStore(t, env, "s1", total, time.Minute)
	as := a.mustPass(t)
	if !reflect.DeepEqual(as, []string{"s0", ""}) {
		t.Fatalf("assignment with s0's claim on 1 still live = %v, want [s0 \"\"]", as)
	}
	select {
	case <-claimGone:
	case <-time.After(10 * time.Second):
		t.Fatal("s0 never released container 1")
	}
	if got := s1.HostedContainers(); len(got) != 0 {
		t.Fatalf("s1 started %v before it was assigned anything", got)
	}
	as = a.mustPass(t)
	if !reflect.DeepEqual(as, []string{"s0", "s1"}) {
		t.Fatalf("assignment after release = %v, want [s0 s1]", as)
	}
	awaitFollowed(t, env, s0, s1)
	c1, err := s1.ContainerByID(1)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c1.GetInfo(seg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Length != int64(len(payload)) || info.StorageLength != info.Length {
		t.Fatalf("joiner recovered %+v: want length %d, all of it tiered by the old owner's flush", info, len(payload))
	}
}

// TestStartRetriesPastStaleClaim: the assignment can name a store for a
// container whose claim another store still holds — that store was starting
// it under an older version when the pass saw no claim. The start fails.
// The claim then goes with no new assignment version to wake anyone (the
// other store's start failed and dropped it), and the named store must
// still end up hosting the container.
func TestStartRetriesPastStaleClaim(t *testing.T) {
	env := newTestEnv(t)
	other := ownershipStore(t, env, "other", 1, 0)
	if _, err := other.StartContainer(0); err != nil {
		t.Fatal(err)
	}
	a := followingStore(t, env, "a", 1, time.Minute)
	if _, err := env.meta.Set(assignmentPath, []byte(`["a"]`), -1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // a's first start meets other's claim
	if got := a.HostedContainers(); len(got) != 0 {
		t.Fatalf("a started %v while other held the claim", got)
	}
	if err := other.CrashContainer(0); err != nil {
		t.Fatal(err)
	}
	awaitFollowed(t, env, a)
	if claims := claimsOf(t, env); claims[0] != "a" {
		t.Fatalf("claims = %v; want container 0 on a", claims)
	}
}

// TestBalanceKeepsHoldersWithinShare pins the placement rule on its own.
func TestBalanceKeepsHoldersWithinShare(t *testing.T) {
	for _, tc := range []struct {
		hosts, held, want []string
	}{
		// Empty cluster: the preferred layout.
		{[]string{"a", "b"}, []string{"", "", "", ""}, []string{"a", "b", "a", "b"}},
		// A holder within its share keeps a non-preferred container, and
		// what its preferred host has no room for goes to the first with room.
		{[]string{"a", "b"}, []string{"b", "", "", ""}, []string{"b", "b", "a", "a"}},
		// A host leaves: its containers go to the survivor.
		{[]string{"b"}, []string{"a", "b", "a", "b"}, []string{"b", "b", "b", "b"}},
		// A host joins: each over-share holder keeps its preferred container,
		// then its lowest ids, and hands one to the joiner.
		{[]string{"a", "b", "c"}, []string{"a", "a", "a", "b", "b", "b"}, []string{"a", "a", "c", "b", "b", "c"}},
		// No hosts: nothing is assigned.
		{nil, []string{"a"}, []string{""}},
	} {
		if got := balance(len(tc.held), tc.hosts, tc.held); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("balance(%v, %v) = %v, want %v", tc.hosts, tc.held, got, tc.want)
		}
	}
}
