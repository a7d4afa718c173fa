package segstore

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/obs"
)

// hostsRoot holds one ephemeral node per live segment store, registered on
// the same session as the store's container claims: when the lease expires,
// the host registration and every claim vanish together.
const hostsRoot = "/pravega/hosts"

var (
	mOwnershipClaims = obs.Default().Counter("pravega_ownership_claims_total",
		"Container claims acquired (ownership churn)")
	mOwnershipReleases = obs.Default().Counter("pravega_ownership_releases_total",
		"Container claims released gracefully by the rebalancer")
	mOwnershipFailovers = obs.Default().Counter("pravega_ownership_failovers_total",
		"Containers re-acquired after their previous owner's claim disappeared")
	mRecoveryLatencyUs = obs.Default().Histogram("pravega_container_recovery_us",
		"Orphaned-claim to re-acquired latency during failover, microseconds")
	mLeaseExpiries = obs.Default().Counter("pravega_ownership_lease_expiries_total",
		"Store sessions lost to lease expiry (store self-fenced)")
)

// OwnershipConfig parameterizes a store's ownership manager.
type OwnershipConfig struct {
	// RebalanceInterval is the manager's tick: lease renewal plus one
	// rebalance pass per tick. Defaults to 50ms.
	RebalanceInterval time.Duration
	// AdvertiseAddr, when set, is stored as the host registration's data so
	// clients and the controller can dial this store's wire endpoint
	// directly. Empty for in-process clusters (everything shares one
	// listener).
	AdvertiseAddr string
}

// OwnershipManager runs the dynamic side of container placement (§2.2,
// §4.4) for one store: it registers the store as a live host, renews the
// store's claim lease, and each tick re-derives the ideal assignment from
// the live host set — claiming orphaned or under-replicated containers
// (failover; recovery reuses the fence-and-replay path in NewContainer)
// and gracefully releasing excess ones (StopContainer drains and flushes
// before the claim drops).
//
// The manager polls rather than watches: the coordination store's watches
// are one-shot, and re-arming them every tick from every store would grow
// the node watch lists without bound. A tick is one Children read — cheap,
// and the rebalance cadence bounds failover detection latency anyway.
type OwnershipManager struct {
	st       *Store
	interval time.Duration

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	// Failover bookkeeping, accessed only from the manager's goroutine (or
	// synchronously before Run).
	lastOwner   map[int]string    // container -> last store seen holding it
	orphanSince map[int]time.Time // container -> when its claim vanished
}

// StartOwnershipManager registers the store in the live-host set and
// returns a manager. The caller decides when the background loop starts
// (Run) — hosting performs one synchronous RebalanceOnce per store first so
// a fresh cluster converges before serving.
func StartOwnershipManager(st *Store, cfg OwnershipConfig) (*OwnershipManager, error) {
	if cfg.RebalanceInterval <= 0 {
		cfg.RebalanceInterval = 50 * time.Millisecond
	}
	cs := st.cfg.Cluster
	if err := cs.CreateAll(hostsRoot, nil); err != nil && !errors.Is(err, cluster.ErrNodeExists) {
		return nil, err
	}
	if err := st.session.CreateEphemeral(hostsRoot+"/"+st.cfg.ID, []byte(cfg.AdvertiseAddr)); err != nil && !errors.Is(err, cluster.ErrNodeExists) {
		return nil, err
	}
	m := &OwnershipManager{
		st:          st,
		interval:    cfg.RebalanceInterval,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		lastOwner:   make(map[int]string),
		orphanSince: make(map[int]time.Time),
	}
	st.setManager(m)
	return m, nil
}

// Run starts the manager loop. Call at most once.
func (m *OwnershipManager) Run() {
	go m.loop()
}

// Stop halts the loop without releasing any claims (the store keeps serving
// its containers; Close/Crash decide their fate). It does not wait for the
// loop to exit when called from the loop itself.
func (m *OwnershipManager) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
}

func (m *OwnershipManager) loop() {
	defer close(m.done)
	t := time.NewTicker(m.interval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
		}
		if err := m.st.RenewLease(); err != nil {
			// Lease lost: every claim this store held is gone. Self-fence —
			// crash the store so zombie containers stop serving (their WALs
			// will be fenced by the new owners regardless, §4.4).
			mLeaseExpiries.Inc()
			m.Stop()
			go m.st.Crash()
			return
		}
		if err := m.RebalanceOnce(); err != nil {
			if errors.Is(err, cluster.ErrSessionClosed) || m.st.isClosed() {
				m.Stop()
				return
			}
		}
	}
}

// liveHosts lists the registered store ids, sorted.
func liveHosts(cs cluster.Coord) ([]string, error) {
	hosts, err := cs.Children(hostsRoot)
	if err != nil {
		if errors.Is(err, cluster.ErrNoNode) {
			return nil, nil
		}
		return nil, err
	}
	sort.Strings(hosts)
	return hosts, nil
}

// LiveHosts lists the registered store ids, sorted, alongside each host's
// advertised wire address (empty string when the store registered none).
// placement.CoordSource uses this to give every claim its owner's address.
func LiveHosts(cs cluster.Coord) ([]string, map[string]string, error) {
	hosts, err := liveHosts(cs)
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
		if errors.Is(err, cluster.ErrNoNode) {
			return nil, nil
		}
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

// RebalanceOnce runs one rebalance pass: claim orphaned containers this
// store prefers (or any orphan while under target), release containers
// while over target. Safe to call synchronously before Run.
func (m *OwnershipManager) RebalanceOnce() error {
	st := m.st
	cs := st.cfg.Cluster
	if st.isClosed() {
		return nil
	}
	hosts, err := liveHosts(cs)
	if err != nil {
		return err
	}
	self := -1
	for i, h := range hosts {
		if h == st.cfg.ID {
			self = i
			break
		}
	}
	if self < 0 {
		// Our registration is gone; lease renewal will notice next tick.
		return cluster.ErrSessionClosed
	}
	claims, err := ClaimedContainers(cs)
	if err != nil {
		return err
	}
	now := time.Now()
	m.noteOwners(claims, now)

	n := st.cfg.TotalContainers
	target := n / len(hosts)
	if self < n%len(hosts) {
		target++
	}
	hosted := len(st.HostedContainers())

	// Phase 1: claim orphans we are the preferred owner of, then any orphan
	// while under target. Preferred ownership (container id mod host count)
	// spreads first-claim attempts so stores rarely race for the same id.
	for pass := 0; pass < 2; pass++ {
		for id := 0; id < n && hosted < target; id++ {
			if _, taken := claims[id]; taken {
				continue
			}
			preferred := hosts[id%len(hosts)] == st.cfg.ID
			if pass == 0 && !preferred {
				continue
			}
			if _, err := st.StartContainer(id); err != nil {
				if errors.Is(err, cluster.ErrNodeExists) || errors.Is(err, cluster.ErrSessionClosed) {
					claims[id] = "?" // lost the race (or our lease); skip
					continue
				}
				return err
			}
			claims[id] = st.cfg.ID
			hosted++
			mOwnershipClaims.Inc()
			if prev, had := m.lastOwner[id]; had && prev != st.cfg.ID {
				mOwnershipFailovers.Inc()
				if t0, ok := m.orphanSince[id]; ok {
					mRecoveryLatencyUs.Record(now.Sub(t0).Microseconds())
				}
			}
			m.lastOwner[id] = st.cfg.ID
			delete(m.orphanSince, id)
		}
	}

	// Phase 2: shed load while over target. Release non-preferred
	// containers first (their preferred owner will pick them up), highest
	// id first for determinism.
	if hosted > target {
		ids := st.HostedContainers()
		sort.Sort(sort.Reverse(sort.IntSlice(ids)))
		for pass := 0; pass < 2 && hosted > target; pass++ {
			for _, id := range ids {
				if hosted <= target {
					break
				}
				preferred := hosts[id%len(hosts)] == st.cfg.ID
				if pass == 0 && preferred {
					continue
				}
				if !st.hosts(id) {
					continue
				}
				if err := st.StopContainer(id); err != nil && !errors.Is(err, ErrWrongContainer) {
					return err
				}
				hosted--
				mOwnershipReleases.Inc()
			}
		}
	}
	return nil
}

// noteOwners updates failover bookkeeping from one claims snapshot.
func (m *OwnershipManager) noteOwners(claims map[int]string, now time.Time) {
	for id, owner := range claims {
		m.lastOwner[id] = owner
		delete(m.orphanSince, id)
	}
	for id, prev := range m.lastOwner {
		if _, ok := claims[id]; ok {
			continue
		}
		if _, marked := m.orphanSince[id]; !marked && prev != "" {
			m.orphanSince[id] = now
		}
	}
}

// DumpAssignment renders the current claim map for debugging.
func DumpAssignment(cs cluster.Coord) string {
	claims, err := ClaimedContainers(cs)
	if err != nil {
		return fmt.Sprintf("<error: %v>", err)
	}
	ids := make([]int, 0, len(claims))
	for id := range claims {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "%d->%s ", id, claims[id])
	}
	return strings.TrimSpace(b.String())
}
