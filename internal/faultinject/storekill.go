package faultinject

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/role"
)

// StoreKiller is the nemesis's store-level fault arm: where NemesisProxy
// attacks the wire between client and cluster, StoreKiller attacks the
// cluster itself — crashing a random live segment store (its lease-backed
// container claims vanish, survivors fence the WALs and re-acquire, §4.4)
// and growing the cluster back with a replacement store so the assigner's
// graceful handoff path is exercised in the same run.
type StoreKiller struct {
	cl  *role.Cluster
	rng *rand.Rand

	mu    sync.Mutex
	kills int64
	adds  int64
}

// NewStoreKiller builds a killer whose victim choices derive from seed.
func NewStoreKiller(cl *role.Cluster, seed int64) *StoreKiller {
	return &StoreKiller{cl: cl, rng: rand.New(rand.NewSource(seed*31337 + 7))}
}

// Kills reports how many stores have been crashed so far.
func (k *StoreKiller) Kills() int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.kills
}

// Adds reports how many replacement stores have been started.
func (k *StoreKiller) Adds() int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.adds
}

// KillOne crashes one random live store, always leaving at least one alive
// to re-acquire the orphaned containers. Returns false when no store can be
// killed without losing the whole cluster.
func (k *StoreKiller) KillOne() (bool, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	stores := k.cl.Stores()
	var live []int
	for i, st := range stores {
		if !st.Closed() {
			live = append(live, i)
		}
	}
	if len(live) < 2 {
		return false, nil
	}
	victim := live[k.rng.Intn(len(live))]
	if err := k.cl.CrashStore(victim); err != nil {
		return false, err
	}
	k.kills++
	return true, nil
}

// ReplaceOne adds a fresh store; the assigner moves its share onto it.
func (k *StoreKiller) ReplaceOne() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, err := k.cl.AddStore(); err != nil {
		return err
	}
	k.adds++
	return nil
}

// Cycle runs one kill → reconverge → replace → reconverge round, bounded by
// timeout per convergence wait.
func (k *StoreKiller) Cycle(timeout time.Duration) error {
	killed, err := k.KillOne()
	if err != nil {
		return err
	}
	if !killed {
		return errors.New("faultinject: no store to kill without losing the cluster")
	}
	if err := k.cl.AwaitConverged(timeout); err != nil {
		return err
	}
	if err := k.ReplaceOne(); err != nil {
		return err
	}
	return k.cl.AwaitConverged(timeout)
}
