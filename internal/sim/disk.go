package sim

import (
	"sync"
	"sync/atomic"
	"time"
)

// DiskConfig parameterizes the drive model. The defaults (see Profile)
// approximate the i3-class NVMe drives of the paper scaled down by
// Profile.Scale.
type DiskConfig struct {
	// SyncBandwidth is the sequential bandwidth of synchronous (fsync'd)
	// writes, bytes/s. The paper measured ~800 MB/s with dd on the journal
	// drives (§5.6).
	SyncBandwidth float64
	// SyncLatency is the fixed cost of one fsync (journal commit).
	SyncLatency time.Duration
	// PageCacheBandwidth is the drain rate of the OS write-back path,
	// bytes/s. Page-cache writes complete immediately until DirtyLimit is
	// reached; a background flusher then applies backpressure. Slightly
	// higher than SyncBandwidth because the OS issues large sequential
	// block writes (§5.6: Kafka no-flush reaches 900 vs 800 MB/s).
	PageCacheBandwidth float64
	// DirtyLimit caps un-flushed page-cache bytes before writers block.
	DirtyLimit int64
	// SeekPenalty is the time lost when consecutive device writes hit
	// different files. With hundreds of partition log files this dominates
	// and reproduces Kafka's collapse at high partition counts (Fig. 10/11).
	SeekPenalty time.Duration
}

// Disk models a single NVMe drive shared by every log file placed on it.
// Files are created with OpenFile; writes serialize through the device.
type Disk struct {
	cfg DiskConfig

	device *TokenBucket // serializes all device traffic

	mu       sync.Mutex
	lastFile *DiskFile // last file the device head touched

	syncs       atomic.Int64 // WriteSync calls served
	syncCharged atomic.Int64 // fixed cost charged for them, ns

	dirtyMu   sync.Mutex
	dirtyCond *sync.Cond
	dirty     map[*DiskFile]int64
	dirtySum  int64
	flushing  bool
	closed    bool
}

// NewDisk creates a drive with the given parameters.
func NewDisk(cfg DiskConfig) *Disk {
	d := &Disk{
		cfg:    cfg,
		device: NewTokenBucket(cfg.SyncBandwidth, 0),
		dirty:  make(map[*DiskFile]int64),
	}
	d.dirtyCond = sync.NewCond(&d.dirtyMu)
	return d
}

// Close stops the background flusher, if running.
func (d *Disk) Close() {
	d.dirtyMu.Lock()
	d.closed = true
	d.dirtyCond.Broadcast()
	d.dirtyMu.Unlock()
}

// DiskFile is one file on the drive (a journal, a partition log, ...).
type DiskFile struct {
	disk *Disk
	name string
}

// OpenFile creates a handle for a named file. Names only matter for the
// head-position (seek) model.
func (d *Disk) OpenFile(name string) *DiskFile {
	return &DiskFile{disk: d, name: name}
}

// seekOverhead returns the seek penalty if the device head must move to a
// different file, and records the new head position.
func (d *Disk) seekOverhead(f *DiskFile) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lastFile == f {
		return 0
	}
	d.lastFile = f
	return d.cfg.SeekPenalty
}

// WriteSync models an fsync'd append of n bytes to the file: the call
// returns only when the bytes are durable. Concurrent WriteSync calls
// serialize through the device, so group commit (aggregating many logical
// appends into one WriteSync) is rewarded exactly as on real hardware.
func (f *DiskFile) WriteSync(n int) time.Duration {
	over := f.disk.seekOverhead(f) + f.disk.cfg.SyncLatency
	f.disk.syncs.Add(1)
	f.disk.syncCharged.Add(int64(over))
	return f.disk.device.TakeWithOverhead(n, over)
}

// SyncStats reports how many fsync'd writes the drive has been asked for
// and the fixed cost (sync latency plus seeks) the model charged for them,
// so a test can assert what durability cost without timing anything.
func (d *Disk) SyncStats() (count int64, charged time.Duration) {
	return d.syncs.Load(), time.Duration(d.syncCharged.Load())
}

// WriteAsync models a page-cache write: it completes immediately unless the
// dirty limit is reached, in which case the caller blocks until the
// background flusher frees space (write-back throttling).
func (f *DiskFile) WriteAsync(n int) {
	d := f.disk
	d.dirtyMu.Lock()
	for !d.closed && d.cfg.DirtyLimit > 0 && d.dirtySum+int64(n) > d.cfg.DirtyLimit {
		d.ensureFlusherLocked()
		d.dirtyCond.Wait()
	}
	if d.closed {
		d.dirtyMu.Unlock()
		return
	}
	d.dirty[f] += int64(n)
	d.dirtySum += int64(n)
	d.ensureFlusherLocked()
	d.dirtyMu.Unlock()
}

// ensureFlusherLocked starts the write-back goroutine if needed.
// Caller holds dirtyMu.
func (d *Disk) ensureFlusherLocked() {
	if d.flushing || d.dirtySum == 0 {
		return
	}
	d.flushing = true
	go d.flushLoop()
}

// flushLoop drains dirty pages file by file. Per-file chunks shrink as the
// number of dirty files grows, so the seek penalty per byte rises with the
// file count — the mechanism behind Kafka's throughput collapse at
// hundreds of partitions.
func (d *Disk) flushLoop() {
	flusher := NewTokenBucket(d.cfg.PageCacheBandwidth, 0)
	for {
		d.dirtyMu.Lock()
		if d.closed || d.dirtySum == 0 {
			d.flushing = false
			d.dirtyCond.Broadcast()
			d.dirtyMu.Unlock()
			return
		}
		// Pick the dirtiest file and flush its pages as one chunk.
		var victim *DiskFile
		var amount int64
		for f, n := range d.dirty {
			if n > amount {
				victim, amount = f, n
			}
		}
		delete(d.dirty, victim)
		d.dirtySum -= amount
		d.dirtyMu.Unlock()

		over := d.seekOverhead(victim)
		flusher.TakeWithOverhead(int(amount), over)

		d.dirtyMu.Lock()
		d.dirtyCond.Broadcast()
		d.dirtyMu.Unlock()
	}
}
