package kafka

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/sim"
)

func newTestCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	cl := NewCluster(cfg)
	t.Cleanup(cl.Close)
	return cl
}

func TestTopicLifecycle(t *testing.T) {
	cl := newTestCluster(t, ClusterConfig{})
	if err := cl.CreateTopic("t", 4); err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateTopic("t", 4); err == nil {
		t.Fatal("duplicate topic accepted")
	}
	n, err := cl.Partitions("t")
	if err != nil || n != 4 {
		t.Fatalf("Partitions = %d, %v", n, err)
	}
	if _, err := cl.Partitions("nope"); !errors.Is(err, ErrNoTopic) {
		t.Fatalf("missing topic: %v", err)
	}
	if _, err := cl.partition("t", 9); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("partition range: %v", err)
	}
}

func TestProduceConsumeRoundTrip(t *testing.T) {
	cl := newTestCluster(t, ClusterConfig{})
	if err := cl.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	p, err := cl.NewProducer(ProducerConfig{Topic: "t", Linger: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	var futures []*SendFuture
	for i := 0; i < n; i++ {
		futures = append(futures, p.Send("key", 100))
	}
	for i, f := range futures {
		if err := f.Wait(); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	p.Close()

	c, err := cl.NewConsumer("t", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	deadline := time.Now().Add(5 * time.Second)
	for got < n && time.Now().Before(deadline) {
		msgs, err := c.Poll(1<<20, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		got += len(msgs)
		for _, m := range msgs {
			if m.Size != 100 || m.Produced.IsZero() {
				t.Fatalf("bad message %+v", m)
			}
		}
	}
	if got != n {
		t.Fatalf("consumed %d of %d", got, n)
	}
}

func TestKeyedMessagesStayOnOnePartition(t *testing.T) {
	cl := newTestCluster(t, ClusterConfig{})
	if err := cl.CreateTopic("t", 8); err != nil {
		t.Fatal(err)
	}
	p, err := cl.NewProducer(ProducerConfig{Topic: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	first := p.partitionFor("fixed-key")
	for i := 0; i < 50; i++ {
		if got := p.partitionFor("fixed-key"); got != first {
			t.Fatalf("key moved partitions: %d vs %d", got, first)
		}
	}
}

func TestStickyPartitionerWithoutKeys(t *testing.T) {
	cl := newTestCluster(t, ClusterConfig{})
	if err := cl.CreateTopic("t", 8); err != nil {
		t.Fatal(err)
	}
	p, err := cl.NewProducer(ProducerConfig{Topic: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Key-less sends stick to one partition within a window (the sticky
	// partitioner behind Kafka's no-keys batching advantage, §5.5)...
	counts := map[int]int{}
	for i := 0; i < 400; i++ {
		counts[p.partitionFor("")]++
	}
	if len(counts) > 2 {
		t.Fatalf("sticky partitioner spread over %d partitions within a window", len(counts))
	}
	// ...but rotates across windows.
	for i := 0; i < 4000; i++ {
		counts[p.partitionFor("")]++
	}
	if len(counts) < 3 {
		t.Fatalf("sticky partitioner never rotated: %v", counts)
	}
}

func TestBatchSizeTriggersSend(t *testing.T) {
	cl := newTestCluster(t, ClusterConfig{})
	if err := cl.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	// Huge linger: only the size bound can trigger the send.
	p, err := cl.NewProducer(ProducerConfig{Topic: "t", BatchSize: 1000, Linger: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var futures []*SendFuture
	for i := 0; i < 10; i++ {
		futures = append(futures, p.Send("k", 100)) // 10×100 = size bound
	}
	donech := make(chan struct{})
	go func() {
		for _, f := range futures {
			<-f.Done()
		}
		close(donech)
	}()
	select {
	case <-donech:
	case <-time.After(2 * time.Second):
		t.Fatal("full batch never sent without linger expiry")
	}
}

func TestFlushModeDurabilityCost(t *testing.T) {
	// With the device model, flush.messages=1 charges an fsync per produce
	// request on the leader while the page-cache path charges none. The
	// assertion is on what the simulated drives were asked for, not on how
	// long two runs took.
	const sends = 20
	prof := profileForTest()
	syncCost := func(flush bool) (leaderSyncs int64, leaderCharged time.Duration, allSyncs int64) {
		cl := newTestCluster(t, ClusterConfig{FlushEveryMessage: flush, Profile: prof})
		if err := cl.CreateTopic("t", 1); err != nil {
			t.Fatal(err)
		}
		// A batch is one message and a send waits for the one before, so
		// every send is a produce request of its own.
		p, err := cl.NewProducer(ProducerConfig{Topic: "t", BatchSize: 100})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		for i := 0; i < sends; i++ {
			if err := p.Send("k", 100).Wait(); err != nil {
				t.Fatal(err)
			}
		}
		// The leader's write precedes the acknowledgement; a follower
		// beyond min.insync may still be writing.
		cl.mu.Lock()
		leader := cl.topics["t"][0].leader
		cl.mu.Unlock()
		leaderSyncs, leaderCharged = cl.disks[leader].SyncStats()
		for _, d := range cl.disks {
			n, _ := d.SyncStats()
			allSyncs += n
		}
		return leaderSyncs, leaderCharged, allSyncs
	}
	if _, _, all := syncCost(false); all != 0 {
		t.Fatalf("page-cache mode asked the drives for %d fsyncs", all)
	}
	syncs, charged, _ := syncCost(true)
	if syncs != sends {
		t.Fatalf("flush mode: %d leader fsyncs for %d produce requests", syncs, sends)
	}
	if min := sends * prof.Disk.SyncLatency; charged < min {
		t.Fatalf("flush mode charged %v for %d fsyncs, at least %v expected", charged, syncs, min)
	}
}

func profileForTest() *sim.Profile {
	p := sim.AWSProfile(64) // heavily scaled: fast tests, visible fsync cost
	return &p
}

func TestConsumerPartitionSubset(t *testing.T) {
	cl := newTestCluster(t, ClusterConfig{})
	if err := cl.CreateTopic("t", 4); err != nil {
		t.Fatal(err)
	}
	p, err := cl.NewProducer(ProducerConfig{Topic: "t", Linger: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			p.Send("", 10)
		}
		p.Close()
	}()
	wg.Wait()
	c0, _ := cl.NewConsumer("t", []int{0, 1}, nil)
	c1, _ := cl.NewConsumer("t", []int{2, 3}, nil)
	total := 0
	deadline := time.Now().Add(3 * time.Second)
	for total < 200 && time.Now().Before(deadline) {
		m0, _ := c0.Poll(1<<20, 10*time.Millisecond)
		m1, _ := c1.Poll(1<<20, 10*time.Millisecond)
		total += len(m0) + len(m1)
	}
	if total != 200 {
		t.Fatalf("disjoint consumers read %d of 200", total)
	}
}
