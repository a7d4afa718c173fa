// Package kafka implements a Kafka-like messaging baseline (§5.1) faithful
// to the architectural properties the paper's evaluation exercises:
//
//   - one append-only log file per topic partition, placed on the leader
//     broker's drive — no multiplexing across partitions, so drive
//     efficiency collapses as partition counts grow (Fig. 10/11);
//   - page-cache writes by default (acknowledged before reaching media) vs.
//     flush.messages=1 / flush.ms=0 durability, which fsyncs every produced
//     batch (§5.2);
//   - leader/follower replication with acks=all, min.insync.replicas=2;
//   - client-side batching only: per-partition accumulators with
//     batch.size/linger.ms knobs and at most 5 in-flight requests per
//     broker connection (§5.3);
//   - pull-based consumers (fetch long-poll);
//   - no storage tiering (Table 1).
package kafka

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/sim"
)

// Errors returned by the baseline.
var (
	ErrNoTopic     = errors.New("kafka: topic does not exist")
	ErrNoPartition = errors.New("kafka: partition out of range")
)

// ClusterConfig sizes the baseline deployment.
type ClusterConfig struct {
	// Brokers is the broker count (default 3, as in Table 1).
	Brokers int
	// Replicas is the replication factor (default 3).
	Replicas int
	// MinInsync is min.insync.replicas (default 2).
	MinInsync int
	// FlushEveryMessage enables flush.messages=1/flush.ms=0 durability.
	FlushEveryMessage bool
	// Profile models the drives and links (nil = instantaneous, tests).
	Profile *sim.Profile
	// TailRecords bounds the in-memory record metadata retained per
	// partition for consumers (default 1<<16).
	TailRecords int
}

func (c *ClusterConfig) defaults() {
	if c.Brokers <= 0 {
		c.Brokers = 3
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Replicas > c.Brokers {
		c.Replicas = c.Brokers
	}
	if c.MinInsync <= 0 {
		c.MinInsync = 2
	}
	if c.TailRecords <= 0 {
		c.TailRecords = 1 << 16
	}
}

// record is one produced message's metadata (payloads are not retained;
// the benchmark measures timing, and consumers receive synthesized bytes).
type record struct {
	offset   int64 // message offset
	size     int
	produced time.Time
}

// partition is one topic partition: a log file on the leader and each
// follower drive.
type partition struct {
	topic  string
	idx    int
	leader int   // broker id
	flwrs  []int // follower broker ids

	mu      sync.Mutex
	nextOff int64
	records []record // ring of recent records for consumers
	waiters []chan struct{}

	leaderFile *sim.DiskFile
	flwrFiles  []*sim.DiskFile
}

// Cluster is the running baseline.
type Cluster struct {
	cfg   ClusterConfig
	disks []*sim.Disk

	mu     sync.Mutex
	topics map[string][]*partition
	nextP  int // round-robin leader placement
}

// NewCluster starts the baseline cluster.
func NewCluster(cfg ClusterConfig) *Cluster {
	cfg.defaults()
	cl := &Cluster{cfg: cfg, topics: make(map[string][]*partition)}
	for i := 0; i < cfg.Brokers; i++ {
		if cfg.Profile != nil {
			cl.disks = append(cl.disks, sim.NewDisk(cfg.Profile.Disk))
		} else {
			cl.disks = append(cl.disks, nil)
		}
	}
	return cl
}

// Close releases the modelled drives.
func (cl *Cluster) Close() {
	for _, d := range cl.disks {
		if d != nil {
			d.Close()
		}
	}
}

// CreateTopic creates a topic with the given partition count. Leaders are
// assigned round-robin across brokers.
func (cl *Cluster) CreateTopic(name string, partitions int) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if _, ok := cl.topics[name]; ok {
		return fmt.Errorf("kafka: topic %q already exists", name)
	}
	ps := make([]*partition, partitions)
	for i := range ps {
		leader := cl.nextP % cl.cfg.Brokers
		cl.nextP++
		p := &partition{topic: name, idx: i, leader: leader}
		for r := 1; r < cl.cfg.Replicas; r++ {
			p.flwrs = append(p.flwrs, (leader+r)%cl.cfg.Brokers)
		}
		if cl.cfg.Profile != nil {
			fname := fmt.Sprintf("%s-%d.log", name, i)
			p.leaderFile = cl.disks[p.leader].OpenFile(fname)
			for _, f := range p.flwrs {
				p.flwrFiles = append(p.flwrFiles, cl.disks[f].OpenFile(fname))
			}
		}
		ps[i] = p
	}
	cl.topics[name] = ps
	return nil
}

func (cl *Cluster) partition(topic string, idx int) (*partition, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	ps, ok := cl.topics[topic]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTopic, topic)
	}
	if idx < 0 || idx >= len(ps) {
		return nil, fmt.Errorf("%w: %s[%d]", ErrNoPartition, topic, idx)
	}
	return ps[idx], nil
}

// Partitions returns the topic's partition count.
func (cl *Cluster) Partitions(topic string) (int, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	ps, ok := cl.topics[topic]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoTopic, topic)
	}
	return len(ps), nil
}

// produce appends a batch of messages to the partition log: the leader
// writes its log (page cache, or fsync with flush semantics), followers
// replicate in parallel, and the call returns when min.insync replicas
// (leader included) have the batch.
func (cl *Cluster) produce(p *partition, msgSizes []int, produced time.Time) (int64, error) {
	var total int
	for _, s := range msgSizes {
		total += s
	}
	// Leader log write.
	if p.leaderFile != nil {
		if cl.cfg.FlushEveryMessage {
			// flush.messages=1: the appended batch is flushed before the
			// ack (one fsync per produce request at the log layer).
			p.leaderFile.WriteSync(total)
		} else {
			p.leaderFile.WriteAsync(total)
		}
	}
	// Follower replication: wait until enough followers have appended.
	needed := cl.cfg.MinInsync - 1
	if needed > 0 && len(p.flwrFiles) > 0 {
		acks := make(chan struct{}, len(p.flwrFiles))
		for _, f := range p.flwrFiles {
			f := f
			go func() {
				if cl.cfg.Profile != nil {
					time.Sleep(cl.cfg.Profile.ReplicaLink.Latency)
				}
				if cl.cfg.FlushEveryMessage {
					f.WriteSync(total)
				} else {
					f.WriteAsync(total)
				}
				acks <- struct{}{}
			}()
		}
		for i := 0; i < needed; i++ {
			<-acks
		}
	} else if needed > 0 && cl.cfg.Profile != nil {
		time.Sleep(cl.cfg.Profile.ReplicaLink.RTT())
	}

	// Commit records for consumers.
	p.mu.Lock()
	base := p.nextOff
	for _, s := range msgSizes {
		p.records = append(p.records, record{offset: p.nextOff, size: s, produced: produced})
		p.nextOff++
	}
	if over := len(p.records) - cl.cfg.TailRecords; over > 0 {
		p.records = p.records[over:]
	}
	for _, w := range p.waiters {
		close(w)
	}
	p.waiters = nil
	p.mu.Unlock()
	return base, nil
}

// FetchedMessage is one consumed message.
type FetchedMessage struct {
	Offset   int64
	Size     int
	Produced time.Time
}

// fetch returns up to maxBytes of messages from offset, long-polling up to
// wait when the offset is at the log end.
func (cl *Cluster) fetch(p *partition, offset int64, maxBytes int, wait time.Duration) ([]FetchedMessage, error) {
	deadline := time.Now().Add(wait)
	for {
		p.mu.Lock()
		if offset < p.nextOff {
			// Serve from the retained tail; offsets below the ring are
			// fast-forwarded (this baseline has no tiering or historical
			// reads, Table 1).
			first := p.nextOff - int64(len(p.records))
			if offset < first {
				offset = first
			}
			var out []FetchedMessage
			bytes := 0
			for i := int(offset - first); i < len(p.records) && bytes < maxBytes; i++ {
				r := p.records[i]
				out = append(out, FetchedMessage{Offset: r.offset, Size: r.size, Produced: r.produced})
				bytes += r.size
			}
			p.mu.Unlock()
			return out, nil
		}
		w := make(chan struct{})
		p.waiters = append(p.waiters, w)
		p.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, nil
		}
		timer := time.NewTimer(remain)
		select {
		case <-w:
			timer.Stop()
		case <-timer.C:
			return nil, nil
		}
	}
}
