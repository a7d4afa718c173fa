package faultinject

import (
	"fmt"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/lts"
	"github.com/pravega-go/pravega/internal/segstore"
)

// crashRig is the deployment every crash suite runs on: a coordination
// store, three bookies behind FaultyBookie wrappers, and one segment store
// without a lease hosting container 0. No ownership manager runs, so nothing
// claims or restarts the container but the test: a crashed container stays
// down until restart, which is what a scripted crash schedule needs. The
// container template (its Hooks included) applies to every instance restart
// brings up, so an armed CrashPlan persists across crash/restart cycles.
type crashRig struct {
	st      *segstore.Store
	nodes   []*bookkeeper.Bookie
	bookies []*FaultyBookie
}

// newCrashRig builds the rig over the given long-term storage and starts
// container 0. BK, Meta, LTS and Replication (3/3/2) of cfg are filled in.
func newCrashRig(store lts.ChunkStorage, cfg segstore.ContainerConfig) (*crashRig, error) {
	meta := cluster.NewStore()
	bk, err := bookkeeper.NewClient(bookkeeper.ClientConfig{Meta: meta})
	if err != nil {
		return nil, err
	}
	r := &crashRig{}
	for i := 0; i < 3; i++ {
		b := bookkeeper.NewBookie(bookkeeper.BookieConfig{ID: fmt.Sprintf("bookie-%d", i)})
		fb := NewFaultyBookie(b)
		bk.RegisterBookie(fb)
		r.nodes = append(r.nodes, b)
		r.bookies = append(r.bookies, fb)
	}
	cfg.BK, cfg.Meta, cfg.LTS = bk, meta, store
	cfg.Replication = bookkeeper.DefaultReplication()
	r.st, err = segstore.NewStore(segstore.StoreConfig{
		ID:              "segmentstore-0",
		TotalContainers: 1,
		Container:       cfg,
		Cluster:         meta,
	})
	if err == nil {
		err = r.restart()
	}
	if err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// crash stops container 0 abruptly: no flush, no checkpoint, claim released,
// WAL handle left open for the next instance to fence.
func (r *crashRig) crash() error { return r.st.CrashContainer(0) }

// restart recovers container 0 from its WAL; it must not be running.
func (r *crashRig) restart() error {
	_, err := r.st.StartContainer(0)
	return err
}

// Close stops the store and the bookies.
func (r *crashRig) Close() {
	if r.st != nil {
		_ = r.st.Close()
	}
	for _, b := range r.nodes {
		b.Close()
	}
}
