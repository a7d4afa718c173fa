package segstore

import (
	"testing"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/lts"
)

// testEnv bundles the substrates one container needs.
type testEnv struct {
	meta    *cluster.Store
	bk      *bookkeeper.Client
	lts     *lts.Memory
	bookies []*bookkeeper.Bookie
}

func newTestEnv(t testing.TB) *testEnv {
	t.Helper()
	meta := cluster.NewStore()
	bk, err := bookkeeper.NewClient(bookkeeper.ClientConfig{Meta: meta})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	env := &testEnv{meta: meta, bk: bk, lts: lts.NewMemory()}
	for i := 0; i < 3; i++ {
		b := bookkeeper.NewBookie(bookkeeper.BookieConfig{ID: string(rune('a' + i))})
		env.bookies = append(env.bookies, b)
		bk.RegisterBookie(b)
	}
	t.Cleanup(func() {
		for _, b := range env.bookies {
			b.Close()
		}
	})
	return env
}

func (e *testEnv) containerConfig(id int) ContainerConfig {
	return ContainerConfig{
		ID:          id,
		BK:          e.bk,
		Meta:        e.meta,
		Replication: bookkeeper.DefaultReplication(),
		LTS:         e.lts,
	}
}

// appendAsync is AppendAsyncFunc delivering the result on a one-slot channel.
func appendAsync(c *Container, seg string, data []byte, writerID string, eventNum int64) <-chan AppendResult {
	ch := make(chan AppendResult, 1)
	c.AppendAsyncFunc(seg, data, writerID, eventNum, 1, func(r AppendResult) { ch <- r })
	return ch
}

func newTestContainer(t testing.TB, env *testEnv, id int) *Container {
	t.Helper()
	c, err := NewContainer(env.containerConfig(id))
	if err != nil {
		t.Fatalf("NewContainer: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}
