package segstore

import (
	"encoding/json"
	"errors"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/obs"
)

const (
	// hostsRoot holds one ephemeral node per live segment store, registered
	// on the same session as the store's container claims: when the lease
	// expires, the host registration and every claim vanish together.
	hostsRoot = "/pravega/hosts"
	// assignmentPath holds the assignment: only the assigner writes it.
	assignmentPath = "/pravega/assignment"
)

var (
	mOwnershipClaims = obs.Default().Counter("pravega_ownership_claims_total",
		"Container claims acquired (ownership churn)")
	mOwnershipReleases = obs.Default().Counter("pravega_ownership_releases_total",
		"Container claims released gracefully (drained and flushed first)")
	mOwnershipFailovers = obs.Default().Counter("pravega_ownership_failovers_total",
		"Containers re-acquired after their previous owner's claim disappeared")
	mRecoveryLatencyUs = obs.Default().Histogram("pravega_container_recovery_us",
		"Orphaned-claim to re-acquired latency during failover, microseconds")
	mLeaseExpiries = obs.Default().Counter("pravega_ownership_lease_expiries_total",
		"Store sessions lost to lease expiry (store self-fenced)")
)

// ReadAssignment returns the container → store map the assigner publishes
// (§2.2, §4.4) and its node version, the assignment's epoch. The map is
// indexed by container id; "" leaves a container unassigned, which is the
// first step of every move. It is nil until the assigner's first write.
func ReadAssignment(cs cluster.Coord) ([]string, int64, error) {
	var owners []string
	data, st, err := cs.Get(assignmentPath)
	if err == nil && len(data) > 0 {
		err = json.Unmarshal(data, &owners)
	}
	return owners, st.Version, err
}

// balance is the placement rule. Each live host's share is
// total/len(hosts), one more for the first total%len(hosts) hosts. A
// container stays with its holder while the holder is within its share
// (preferred holdings first, then the lowest ids); every other goes to its
// preferred host, hosts[id % len(hosts)], if that has room, else to the
// first host that has. A join or a loss moves only the containers it must.
func balance(total int, hosts, held []string) []string {
	out := make([]string, total)
	if len(hosts) == 0 {
		return out
	}
	room := make(map[string]int, len(hosts))
	for i, h := range hosts {
		room[h] = total / len(hosts)
		if i < total%len(hosts) {
			room[h]++
		}
	}
	take := func(id int, h string) bool {
		if room[h] <= 0 {
			return false
		}
		out[id] = h
		room[h]--
		return true
	}
	for _, preferredPass := range []bool{true, false} {
		for id, h := range held {
			if h != "" && (hosts[id%len(hosts)] == h) == preferredPass {
				take(id, h)
			}
		}
	}
	for id := range out {
		if out[id] != "" || take(id, hosts[id%len(hosts)]) {
			continue
		}
		for _, h := range hosts {
			if take(id, h) {
				break
			}
		}
	}
	return out
}

// Assigner is the one writer of the assignment (§2.2, §4.4). Beside the
// coordination store, it watches the live hosts and the claims locally and
// rewrites the assignment by CAS when balance moves a container. Moves are
// two-step: a container claimed by another store than its new owner is
// first unassigned; its holder drains, flushes and releases the claim (or
// loses it with its session), and the claim change names the new owner.
type Assigner struct {
	cs       cluster.Coord
	total    int
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	// Failover bookkeeping by container id, owned by whoever runs pass.
	lastOwner   []string    // the last store seen holding it
	orphanSince []time.Time // when its claim vanished; zero while held
}

func newAssigner(cs cluster.Coord, total int) (*Assigner, error) {
	if err := CreatePlacementRoots(cs); err != nil {
		return nil, err
	}
	return &Assigner{cs: cs, total: total, stop: make(chan struct{}), done: make(chan struct{}),
		lastOwner: make([]string, total), orphanSince: make([]time.Time, total)}, nil
}

// StartAssigner runs an assigner for total containers over cs, which must
// be the coordination store itself: its local watches wake the assigner.
func StartAssigner(cs cluster.Coord, total int) (*Assigner, error) {
	a, err := newAssigner(cs, total)
	if err == nil {
		go a.loop()
	}
	return a, err
}

// Close stops the assigner and waits for it; closing twice is a no-op.
func (a *Assigner) Close() {
	a.stopOnce.Do(func() { close(a.stop) })
	<-a.done
}

func (a *Assigner) loop() {
	defer close(a.done)
	var hostsCh, claimsCh <-chan cluster.Event
	for {
		var err error
		if hostsCh == nil {
			hostsCh, err = a.cs.WatchChildren(hostsRoot)
		}
		if err == nil && claimsCh == nil {
			claimsCh, err = a.cs.WatchChildren(assignmentRoot)
		}
		if err == nil {
			err = a.pass()
		}
		var retry <-chan time.Time
		if err != nil {
			retry = time.After(50 * time.Millisecond)
		}
		select {
		case <-a.stop:
			return
		case <-hostsCh:
			hostsCh = nil
		case <-claimsCh:
			claimsCh = nil
		case <-retry:
		}
	}
}

// pass reads the live hosts, the claims and the current assignment, and
// writes the next assignment if it differs.
func (a *Assigner) pass() error {
	hosts, _, err := LiveHosts(a.cs)
	if err != nil {
		return err
	}
	claims, err := ClaimedContainers(a.cs)
	if err != nil {
		return err
	}
	prev, version, err := ReadAssignment(a.cs)
	if err != nil {
		return err
	}
	a.noteClaims(claims, time.Now())
	// A container's holder is its claimant or, while it starts, the live
	// store it is assigned to.
	held := make([]string, a.total)
	for id := range held {
		if owner, ok := claims[id]; ok {
			held[id] = owner
		} else if id < len(prev) && slices.Contains(hosts, prev[id]) {
			held[id] = prev[id]
		}
	}
	next := balance(a.total, hosts, held)
	for id, owner := range claims {
		if owner != next[id] {
			next[id] = "" // step one of a move: the holder releases first
		}
	}
	if slices.Equal(next, prev) {
		return nil
	}
	data, _ := json.Marshal(next) // strings always encode
	_, err = a.cs.Set(assignmentPath, data, version)
	return err
}

// noteClaims counts a failover each time a container's claim reappears
// under a different store than last held it, timing the orphaned interval.
func (a *Assigner) noteClaims(claims map[int]string, now time.Time) {
	for id, prev := range a.lastOwner {
		owner, ok := claims[id]
		switch {
		case !ok:
			if prev != "" && a.orphanSince[id].IsZero() {
				a.orphanSince[id] = now
			}
			continue
		case prev != "" && prev != owner:
			mOwnershipFailovers.Inc()
			if t0 := a.orphanSince[id]; !t0.IsZero() {
				mRecoveryLatencyUs.Record(now.Sub(t0).Microseconds())
			}
		}
		a.lastOwner[id], a.orphanSince[id] = owner, time.Time{}
	}
}

// OwnershipManager is a store's side of placement (§2.2, §4.4): it
// registers the store as a live host, renews its lease every TTL/3, and on
// each assignment version starts the containers newly given to the store
// and stops the ones taken away, all concurrently.
type OwnershipManager struct {
	st       *Store
	stopOnce sync.Once
	stop     chan struct{}
}

// StartOwnershipManager registers the store as a live host advertising the
// address clients dial it on and starts following the assignment.
func StartOwnershipManager(st *Store, advertise string) (*OwnershipManager, error) {
	if err := st.session.CreateEphemeral(hostsRoot+"/"+st.cfg.ID, []byte(advertise)); err != nil && !errors.Is(err, cluster.ErrNodeExists) {
		return nil, err
	}
	m := &OwnershipManager{st: st, stop: make(chan struct{})}
	if ttl := st.session.TTL(); ttl > 0 {
		go m.renew(ttl / 3)
	}
	go m.follow()
	return m, nil
}

// Stop halts renewal and following without releasing any claims; closing
// the store stops the manager too.
func (m *OwnershipManager) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
}

func (m *OwnershipManager) renew(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-m.st.done:
			return
		case <-t.C:
		}
		if err := m.st.session.Renew(); err != nil {
			// Lease lost with every claim: self-fence, so zombie containers
			// stop serving (new owners fence their WALs regardless, §4.4).
			mLeaseExpiries.Inc()
			m.Stop()
			go m.st.Crash()
			return
		}
	}
}

// follow holds one watch on the assignment, armed before the read so a
// version written in between fires it. Failures retry on the same watch.
func (m *OwnershipManager) follow() {
	cs := m.st.cfg.Cluster
	var changed <-chan cluster.Event
	for {
		var err error
		if changed == nil {
			changed, err = cs.WatchData(assignmentPath)
		}
		if err == nil {
			var owners []string
			if owners, _, err = ReadAssignment(cs); err == nil {
				err = m.apply(owners)
			}
		}
		var retry <-chan time.Time
		if err != nil {
			retry = time.After(100 * time.Millisecond)
		}
		select {
		case <-m.stop:
			return
		case <-m.st.done:
			return
		case <-changed:
			changed = nil
		case <-retry:
		}
	}
}

// apply starts the containers owners gives this store and stops the rest. A
// start fails while another store's claim outlives the assignment that moved
// the container here; follow retries it as long as the assignment stands.
func (m *OwnershipManager) apply(owners []string) error {
	var wg sync.WaitGroup
	errs := make([]error, len(owners))
	hosted := m.st.HostedContainers()
	for id, owner := range owners {
		mine := owner == m.st.cfg.ID
		if mine == slices.Contains(hosted, id) {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !mine {
				_ = m.st.StopContainer(id) // a failed flush still releases: the next owner replays
			} else if _, err := m.st.StartContainer(id); err != nil {
				errs[id] = err
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// LiveHosts lists the registered store ids, sorted, alongside each host's
// advertised wire address (empty string when the store registered none).
// placement.CoordSource uses this to give every claim its owner's address.
func LiveHosts(cs cluster.Coord) ([]string, map[string]string, error) {
	hosts, err := cs.Children(hostsRoot)
	if err != nil {
		return nil, nil, err
	}
	addrs := make(map[string]string, len(hosts))
	for _, h := range hosts {
		data, _, err := cs.Get(hostsRoot + "/" + h)
		if err != nil {
			continue // host vanished between Children and Get
		}
		addrs[h] = string(data)
	}
	return hosts, addrs, nil
}

// ClaimedContainers maps container id -> owning store for every live claim.
func ClaimedContainers(cs cluster.Coord) (map[int]string, error) {
	names, err := cs.Children(assignmentRoot)
	if err != nil {
		return nil, err
	}
	out := make(map[int]string, len(names))
	for _, n := range names {
		id, err := strconv.Atoi(n)
		if err != nil {
			continue
		}
		data, _, err := cs.Get(assignmentRoot + "/" + n)
		if err != nil {
			continue // claim vanished between Children and Get
		}
		out[id] = string(data)
	}
	return out, nil
}
