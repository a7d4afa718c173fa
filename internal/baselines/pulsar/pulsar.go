// Package pulsar implements a Pulsar-like messaging baseline (§5.1)
// capturing the architectural properties the paper's evaluation exercises:
//
//   - brokers backed by a BookKeeper ensemble (same substrate as Pravega's
//     WAL), with per-partition managed ledgers;
//   - client-side batching knobs (enabled/disabled, time/size) and a
//     bounded pending-message queue; with routing keys, batches form per
//     partition, shrinking under key dispersion (§5.3, §5.5);
//   - per-entry broker processing cost: unlike Pravega's segment
//     containers, entries are not multiplexed into shared frames, so small
//     entries saturate the broker at high parallelism (§5.6);
//   - no producer throttling: brokers buffer entries while BookKeeper and
//     the offloader lag, and crash when the buffer exceeds the memory
//     limit — reproducing the instability of Fig. 10b;
//   - a dispatcher tick on the consumer path (the e2e latency floor of
//     Fig. 8);
//   - best-effort tiering: rolled-over ledgers are offloaded to LTS
//     sequentially per partition, and catch-up reads drain through the
//     same per-partition sequential path (Fig. 12).
package pulsar

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/lts"
	"github.com/pravega-go/pravega/internal/sim"
)

// Errors returned by the baseline.
var (
	ErrNoTopic      = errors.New("pulsar: topic does not exist")
	ErrBrokerCrash  = errors.New("pulsar: broker crashed (out of memory)")
	ErrQueueFull    = errors.New("pulsar: producer pending queue full")
	ErrTopicExists  = errors.New("pulsar: topic already exists")
	ErrBadPartition = errors.New("pulsar: partition out of range")
)

// ClusterConfig sizes the baseline.
type ClusterConfig struct {
	// Brokers (default 3, co-located with bookies as in Table 1).
	Brokers int
	// Replication for ledger writes (default 3/3/2; the "favorable"
	// configuration of Fig. 10b uses ackQuorum=3).
	Replication bookkeeper.ReplicationConfig
	// Profile models drives/links (nil = instantaneous).
	Profile *sim.Profile
	// EntryOverhead is the broker's per-entry processing cost, consumed
	// from a per-broker serializing budget (default 60 µs).
	EntryOverhead time.Duration
	// MemoryLimitBytes crashes a broker whose un-acknowledged/un-tiered
	// entry buffer exceeds it (default 48 MiB / profile scale).
	MemoryLimitBytes int64
	// DispatcherTick delays tail dispatch to consumers (default 6 ms — the
	// ~12 ms p95 e2e floor of Fig. 8 after batching).
	DispatcherTick time.Duration
	// Tiering enables the ledger offloader.
	Tiering bool
	// LTS receives offloaded ledgers when Tiering is set.
	LTS lts.ChunkStorage
	// OffloadThresholdBytes rolls the managed ledger over and triggers
	// offload (paper: immediate offload, ledger rollover 1–5 min; default
	// 8 MiB).
	OffloadThresholdBytes int64
	// CatchupBytesPerSec caps one partition's sequential catch-up read
	// path through the broker (offload index + range reads; default
	// 8 MB/s / scale — calibrated to §5.7's observation that Pulsar's
	// historical reads stay below the write rate).
	CatchupBytesPerSec float64
	// TailRecords bounds retained per-partition record metadata.
	TailRecords int
}

func (c *ClusterConfig) defaults() {
	if c.Brokers <= 0 {
		c.Brokers = 3
	}
	if c.Replication.Ensemble == 0 {
		c.Replication = bookkeeper.DefaultReplication()
	}
	if c.EntryOverhead <= 0 {
		c.EntryOverhead = 60 * time.Microsecond
	}
	scale := 1.0
	if c.Profile != nil {
		scale = c.Profile.Scale
	}
	if c.MemoryLimitBytes <= 0 {
		c.MemoryLimitBytes = int64(768e6 / scale)
	}
	if c.DispatcherTick <= 0 {
		c.DispatcherTick = 6 * time.Millisecond
	}
	if c.OffloadThresholdBytes <= 0 {
		c.OffloadThresholdBytes = 8 << 20
	}
	if c.CatchupBytesPerSec <= 0 {
		c.CatchupBytesPerSec = 128e6 / scale
	}
	if c.TailRecords <= 0 {
		c.TailRecords = 1 << 16
	}
}

// record is one message's metadata.
type record struct {
	offset   int64
	size     int
	produced time.Time
}

// partition is one topic partition owned by a broker.
type partition struct {
	topic  string
	idx    int
	broker *broker

	mu       sync.Mutex
	ledger   *bookkeeper.LedgerHandle
	inLedger int64 // bytes in the current ledger
	nextOff  int64
	bytes    int64
	records  []record
	waiters  []chan struct{}
	// Tiering state.
	offloaded   int64 // bytes moved to LTS
	rolled      []rolledLedger
	offloadBusy bool
	catchup     *sim.TokenBucket
}

type rolledLedger struct {
	id    int64
	bytes int64
}

// broker owns partitions and a serializing per-entry processing budget.
type broker struct {
	id      int
	cl      *Cluster
	entries *sim.TokenBucket // per-entry overhead serialization
	pending atomic.Int64     // buffered entry bytes (OOM model)
	crashed atomic.Bool
}

// Cluster is the running baseline.
type Cluster struct {
	cfg     ClusterConfig
	meta    *cluster.Store
	bk      *bookkeeper.Client
	bookies []*bookkeeper.Bookie
	disks   []*sim.Disk
	brokers []*broker

	mu     sync.Mutex
	topics map[string][]*partition
	nextP  int
}

// NewCluster starts the baseline (brokers + bookie ensemble).
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg.defaults()
	meta := cluster.NewStore()
	var linkCfg sim.LinkConfig
	if cfg.Profile != nil {
		linkCfg = cfg.Profile.ReplicaLink
	}
	bk, err := bookkeeper.NewClient(bookkeeper.ClientConfig{Meta: meta})
	if err != nil {
		return nil, err
	}
	cl := &Cluster{cfg: cfg, meta: meta, bk: bk, topics: make(map[string][]*partition)}
	for i := 0; i < cfg.Brokers; i++ {
		bcfg := bookkeeper.BookieConfig{ID: fmt.Sprintf("bookie-%d", i), DiscardData: true}
		if cfg.Profile != nil {
			d := sim.NewDisk(cfg.Profile.Disk)
			cl.disks = append(cl.disks, d)
			bcfg.Journal = d.OpenFile("journal")
		}
		b := bookkeeper.NewBookie(bcfg)
		cl.bookies = append(cl.bookies, b)
		bk.RegisterBookie(&linkedBookie{Bookie: b, link: sim.NewLink(linkCfg)})

		br := &broker{id: i, cl: cl}
		perSec := float64(time.Second) / float64(cfg.EntryOverhead)
		br.entries = sim.NewTokenBucket(perSec, 0) // "bytes"=entries here
		cl.brokers = append(cl.brokers, br)
	}
	return cl, nil
}

// linkedBookie is a bookie behind the broker-to-bookie network: entry adds
// cross the modelled link, in order, before the bookie takes them.
type linkedBookie struct {
	*bookkeeper.Bookie
	link *sim.Link
}

func (b *linkedBookie) AddEntry(ledgerID, entryID int64, data []byte, cb func(error)) {
	b.link.Send(len(data), func() { b.Bookie.AddEntry(ledgerID, entryID, data, cb) })
}

// Close stops the baseline.
func (cl *Cluster) Close() {
	for _, b := range cl.bookies {
		b.Close()
	}
	for _, d := range cl.disks {
		d.Close()
	}
}

// CreateTopic creates a partitioned topic.
func (cl *Cluster) CreateTopic(name string, partitions int) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if _, ok := cl.topics[name]; ok {
		return fmt.Errorf("%w: %s", ErrTopicExists, name)
	}
	ps := make([]*partition, partitions)
	for i := range ps {
		br := cl.brokers[cl.nextP%len(cl.brokers)]
		cl.nextP++
		p := &partition{topic: name, idx: i, broker: br}
		p.catchup = sim.NewTokenBucket(cl.cfg.CatchupBytesPerSec, 0)
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
		return nil, fmt.Errorf("%w: %s[%d]", ErrBadPartition, topic, idx)
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

// ensureLedgerLocked opens the partition's managed ledger, rolling over at
// the offload threshold. Caller holds p.mu.
func (cl *Cluster) ensureLedgerLocked(p *partition) error {
	if p.ledger != nil && (!cl.cfg.Tiering || p.inLedger < cl.cfg.OffloadThresholdBytes) {
		return nil
	}
	if p.ledger != nil {
		// Roll over; queue the sealed ledger for offload.
		old := p.ledger
		rolled := rolledLedger{id: old.ID(), bytes: p.inLedger}
		go old.Close()
		if cl.cfg.Tiering {
			p.rolled = append(p.rolled, rolled)
			cl.maybeOffloadLocked(p)
		}
	}
	h, err := cl.bk.CreateLedger(cl.cfg.Replication)
	if err != nil {
		return err
	}
	p.ledger = h
	p.inLedger = 0
	return nil
}

// maybeOffloadLocked starts the partition's offload goroutine if idle.
// Offload is sequential per partition and never throttles producers
// (§5.4/§5.7). Caller holds p.mu.
func (cl *Cluster) maybeOffloadLocked(p *partition) {
	if p.offloadBusy || len(p.rolled) == 0 || cl.cfg.LTS == nil {
		return
	}
	p.offloadBusy = true
	go cl.offloadLoop(p)
}

func (cl *Cluster) offloadLoop(p *partition) {
	for {
		p.mu.Lock()
		if len(p.rolled) == 0 {
			p.offloadBusy = false
			p.mu.Unlock()
			return
		}
		rl := p.rolled[0]
		p.rolled = p.rolled[1:]
		p.mu.Unlock()

		name := fmt.Sprintf("%s-%d/ledger-%d", p.topic, p.idx, rl.id)
		if err := cl.cfg.LTS.Create(name); err == nil {
			// One sequential stream per partition: offload and later
			// catch-up reads share this bandwidth shape.
			const chunk = 1 << 20
			for off := int64(0); off < rl.bytes; off += chunk {
				n := rl.bytes - off
				if n > chunk {
					n = chunk
				}
				_ = cl.cfg.LTS.Write(name, off, make([]byte, n))
			}
		}
		// setOffloadDeleteLag=0: drop from BookKeeper immediately.
		_ = cl.bk.DeleteLedger(rl.id)
		p.mu.Lock()
		p.offloaded += rl.bytes
		p.mu.Unlock()
	}
}

// OffloadBacklog reports bytes rolled over but not yet in LTS — the
// unbounded backlog the paper warns about (§5.7).
func (cl *Cluster) OffloadBacklog(topic string) int64 {
	cl.mu.Lock()
	ps := cl.topics[topic]
	cl.mu.Unlock()
	var total int64
	for _, p := range ps {
		p.mu.Lock()
		for _, rl := range p.rolled {
			total += rl.bytes
		}
		p.mu.Unlock()
	}
	return total
}

// produce writes one entry (a client batch) through the broker to
// BookKeeper. The broker buffers the entry until the write quorum fully
// acknowledges; the buffer is not bounded by backpressure — exceeding the
// memory limit crashes the broker (Fig. 10b).
func (cl *Cluster) produce(p *partition, sizes []int, produced time.Time) error {
	br := p.broker
	if br.crashed.Load() {
		return ErrBrokerCrash
	}
	var total int
	for _, s := range sizes {
		total += s
	}
	if br.pending.Add(int64(total)) > cl.cfg.MemoryLimitBytes {
		br.crashed.Store(true)
		br.pending.Add(int64(-total))
		return ErrBrokerCrash
	}
	// Per-entry broker processing (no cross-partition multiplexing).
	br.entries.Take(1)

	p.mu.Lock()
	if err := cl.ensureLedgerLocked(p); err != nil {
		p.mu.Unlock()
		br.pending.Add(int64(-total))
		return err
	}
	h := p.ledger
	p.inLedger += int64(total)
	p.mu.Unlock()

	done := make(chan error, 1)
	h.AppendAsync(make([]byte, total), func(_ int64, err error) { done <- err })
	err := <-done
	br.pending.Add(int64(-total))
	if err != nil {
		return err
	}

	p.mu.Lock()
	for _, s := range sizes {
		p.records = append(p.records, record{offset: p.nextOff, size: s, produced: produced})
		p.nextOff++
		p.bytes += int64(s)
	}
	if over := len(p.records) - cl.cfg.TailRecords; over > 0 {
		p.records = p.records[over:]
	}
	for _, w := range p.waiters {
		close(w)
	}
	p.waiters = nil
	p.mu.Unlock()
	return nil
}

// Crashed reports whether any broker has crashed.
func (cl *Cluster) Crashed() bool {
	for _, br := range cl.brokers {
		if br.crashed.Load() {
			return true
		}
	}
	return false
}
