package segstore

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestReplayMatchesLiveState drives every operation type through a live
// container — a checkpoint mid-stream and part of one segment tiered to LTS
// — then crashes it and recovers a second container from the same WAL.
// Recovery replays the log through the live applier's transition, so both
// must hold the same state, segment by segment and field by field (cache
// placement aside), and the same un-tiered backlog.
func TestReplayMatchesLiveState(t *testing.T) {
	env := newTestEnv(t)
	cfg := env.containerConfig(3)
	// Tiering and checkpoints happen only where the script asks for them.
	cfg.FlushInterval, cfg.CheckpointInterval, cfg.FlushSizeBytes = time.Hour, time.Hour, 64<<20
	c, err := NewContainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const (
		a, b, gone, txn = "s/t/0.#epoch.0", "s/t/1.#epoch.0", "s/t/2.#epoch.0", "s/t/0.#epoch.0#transaction.1"
	)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	appendN := func(seg, writer string, from, n int) {
		t.Helper()
		for i := from; i < from+n; i++ {
			_, err := c.Append(seg, []byte(fmt.Sprintf("%s-%s-%03d;", seg, writer, i)), writer, int64(i), 1)
			must(err)
		}
	}
	for _, seg := range []string{a, b, gone, txn} {
		must(c.CreateSegment(seg))
	}
	appendN(a, "w1", 0, 10)
	appendN(a, "w2", 0, 10)
	appendN(b, "w1", 0, 5)
	appendN(gone, "w1", 0, 5)
	must(c.FlushAll()) // a's and b's first bytes reach LTS
	appendN(a, "w1", 10, 10)
	// The snapshot records a's tiered prefix: replay must skip it.
	must(c.Checkpoint())
	appendN(a, "w2", 10, 5)
	appendN(b, "w2", 0, 5)
	_, err = c.Seal(b) // sealed with an un-tiered remainder
	must(err)
	info, err := c.GetInfo(a)
	must(err)
	must(c.Truncate(a, info.StorageLength/2))
	must(c.DeleteSegment(gone))
	appendN(txn, "", 0, 4)
	_, err = c.Seal(txn)
	must(err)
	_, err = c.MergeSegment(a, txn)
	must(err)
	appendN(a, "w2", 15, 3)

	live, liveBacklog := c.DebugState(), c.Stats().UnflushedBytes
	c.Crash()
	c2, err := NewContainer(cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer c2.Close()
	replayed, replayedBacklog := c2.DebugState(), c2.Stats().UnflushedBytes

	if len(live) != 2 || live[a].StorageLength == 0 || !live[b].HasUnflushed {
		t.Fatalf("script did not reach its shape: %+v", live)
	}
	if len(replayed) != len(live) {
		t.Fatalf("replay holds %d segments, live held %d", len(replayed), len(live))
	}
	for name, want := range live {
		got, ok := replayed[name]
		if !ok {
			t.Errorf("%s: missing after replay", name)
			continue
		}
		for _, f := range []struct {
			field     string
			got, want any
		}{
			{"Length", got.Length, want.Length},
			{"StartOffset", got.StartOffset, want.StartOffset},
			{"StorageLength", got.StorageLength, want.StorageLength},
			{"Sealed", got.Sealed, want.Sealed},
			{"Chunks", got.Chunks, want.Chunks},
			{"UnflushedBytes", got.UnflushedBytes, want.UnflushedBytes},
			{"UnflushedStart", got.UnflushedStart, want.UnflushedStart},
			{"HasUnflushed", got.HasUnflushed, want.HasUnflushed},
			{"Attributes", got.Attributes, want.Attributes},
			{"ReadIndexErr", got.ReadIndexErr, want.ReadIndexErr},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Errorf("%s.%s: replayed %v, live %v", name, f.field, f.got, f.want)
			}
		}
	}
	if replayedBacklog != liveBacklog {
		t.Errorf("un-tiered backlog: replayed %d, live %d", replayedBacklog, liveBacklog)
	}
}
