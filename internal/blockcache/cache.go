// Package blockcache implements Pravega's append-friendly in-memory cache
// (§4.2, Fig. 4). The cache is divided into equal-sized blocks addressed by
// a 32-bit pointer; blocks are daisy-chained backwards to form entries, and
// an entry's address is the address of its *last* block so appends locate
// the write position in O(1). Each block records where in its entry it ends,
// so a ranged read (ReadAt) walks back from the last block only as far as
// the range asked for. Blocks live in pre-allocated buffers; each buffer
// keeps its own free-block chain (a small concurrency domain), and a queue
// of buffers with availability serves allocations across buffers. One call
// takes a buffer's lock once for all the blocks that buffer contributes,
// not once per block.
//
// The cache does not bound an entry's size. Its user, the segment container,
// closes an entry at 256 KiB, so a segment's cached bytes are many
// short chains that can be read and evicted piecemeal.
package blockcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Errors returned by the cache.
var (
	ErrCacheFull    = errors.New("blockcache: cache is full")
	ErrBadAddress   = errors.New("blockcache: invalid address")
	ErrEntryDeleted = errors.New("blockcache: entry deleted")
)

// Address is a 32-bit block pointer. The zero value is the nil address.
type Address uint32

// NilAddress marks the absence of a block.
const NilAddress Address = 0

// Config sizes the cache.
type Config struct {
	// BlockSize is the size of one cache block (default 4 KiB).
	BlockSize int
	// BlocksPerBuffer is the number of blocks in one pre-allocated buffer
	// (default 512, i.e. 2 MiB buffers as in the paper's example).
	BlocksPerBuffer int
	// MaxBuffers caps total memory at BlockSize×BlocksPerBuffer×MaxBuffers.
	MaxBuffers int
}

func (c *Config) defaults() {
	if c.BlockSize <= 0 {
		c.BlockSize = 4096
	}
	if c.BlocksPerBuffer <= 0 {
		c.BlocksPerBuffer = 512
	}
	if c.MaxBuffers <= 0 {
		c.MaxBuffers = 64
	}
}

// blockMeta mirrors the tabular metadata of Fig. 4.
type blockMeta struct {
	used   bool
	length int32   // bytes used within the block
	prev   Address // previous block in the entry chain (NilAddress = first)
	next   int32   // next free block index within the buffer (-1 = none)
	// end is the entry's length up to and including this block, so the block
	// holds entry bytes [end-length, end). A reader that walks back from any
	// block it once saw as the last one still finds every byte below it at
	// the same position after the entry has grown.
	end int64
}

// buffer is one contiguous pre-allocated region with a local free list.
// mu guards meta, the free list and the bytes of data.
type buffer struct {
	mu        sync.Mutex
	data      []byte
	meta      []blockMeta
	freeHead  int32 // index of first free block, -1 when exhausted
	freeCount int
}

// Cache is safe for concurrent use. Entries are identified by the Address
// returned from Insert/Append; appending returns a new address whenever the
// chain grows, and the old address keeps reading the bytes it covered.
type Cache struct {
	cfg  Config
	used atomic.Int64

	// bufs[:nbuf] are allocated and never change once nbuf has been
	// published, so decoding an address takes no lock.
	bufs []*buffer
	nbuf atomic.Int32

	// mu guards growth of bufs and the availability queue. Lock order is
	// mu, then a buffer's mu.
	mu      sync.Mutex
	avail   []int  // indices of buffers with free blocks (FIFO queue)
	inAvail []bool // inAvail[i]: buffer i is in avail
}

// New creates a cache.
func New(cfg Config) *Cache {
	cfg.defaults()
	return &Cache{
		cfg:     cfg,
		bufs:    make([]*buffer, cfg.MaxBuffers),
		inAvail: make([]bool, cfg.MaxBuffers),
	}
}

// addressOf encodes (buffer, block) into a non-nil address.
func (c *Cache) addressOf(bufIdx, blockIdx int) Address {
	return Address(uint32(bufIdx)*uint32(c.cfg.BlocksPerBuffer) + uint32(blockIdx) + 1)
}

// locate decodes an address.
func (c *Cache) locate(a Address) (b *buffer, bufIdx, blockIdx int, err error) {
	if a == NilAddress {
		return nil, 0, 0, ErrBadAddress
	}
	v := int(uint32(a) - 1)
	bufIdx, blockIdx = v/c.cfg.BlocksPerBuffer, v%c.cfg.BlocksPerBuffer
	if bufIdx >= int(c.nbuf.Load()) {
		return nil, 0, 0, ErrBadAddress
	}
	return c.bufs[bufIdx], bufIdx, blockIdx, nil
}

func newBuffer(cfg Config) *buffer {
	b := &buffer{
		data:      make([]byte, cfg.BlockSize*cfg.BlocksPerBuffer),
		meta:      make([]blockMeta, cfg.BlocksPerBuffer),
		freeCount: cfg.BlocksPerBuffer,
	}
	for i := range b.meta {
		b.meta[i].next = int32(i + 1)
	}
	b.meta[len(b.meta)-1].next = -1
	b.freeHead = 0
	return b
}

// pickBuffer returns the buffer at the head of the availability queue,
// growing the buffer set up to MaxBuffers when the queue is empty. The
// buffer may have been exhausted by a racing caller; syncAvail then drops it.
func (c *Cache) pickBuffer() (int, *buffer, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.avail) == 0 {
		n := int(c.nbuf.Load())
		if n >= c.cfg.MaxBuffers {
			return 0, nil, ErrCacheFull
		}
		c.bufs[n] = newBuffer(c.cfg)
		c.nbuf.Store(int32(n + 1))
		c.inAvail[n] = true
		c.avail = append(c.avail, n)
	}
	bi := c.avail[0]
	return bi, c.bufs[bi], nil
}

// syncAvail makes buffer bi's membership of the availability queue match
// whether it has free blocks. Whoever empties or un-empties a buffer's free
// list calls it afterwards; it looks at the list again under both locks, so
// the last call after a run of racing allocations and frees leaves the
// queue right.
func (c *Cache) syncAvail(bi int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.bufs[bi]
	b.mu.Lock()
	has := b.freeHead >= 0
	b.mu.Unlock()
	if has == c.inAvail[bi] {
		return
	}
	c.inAvail[bi] = has
	if has {
		c.avail = append(c.avail, bi)
		return
	}
	for i, x := range c.avail {
		if x == bi {
			c.avail = append(c.avail[:i], c.avail[i+1:]...)
			return
		}
	}
}

// Insert stores data as a new entry and returns its address (the address of
// the chain's last block). On ErrCacheFull nothing is allocated.
func (c *Cache) Insert(data []byte) (Address, error) {
	return c.appendChain(NilAddress, data)
}

// Append extends the entry at addr with data and returns the (possibly new)
// entry address. The caller must present the entry's current address. On
// ErrCacheFull the entry is left exactly as it was.
func (c *Cache) Append(addr Address, data []byte) (Address, error) {
	if addr == NilAddress {
		return NilAddress, ErrBadAddress
	}
	return c.appendChain(addr, data)
}

// appendChain extends (or creates) an entry chain atomically: a mid-way
// allocation failure rolls back the tail fill and frees any new blocks, so
// callers never leak cache space on ErrCacheFull. The blocks one buffer
// contributes are taken and filled under one acquisition of its lock.
func (c *Cache) appendChain(orig Address, data []byte) (Address, error) {
	bs := c.cfg.BlockSize
	rest := data
	var (
		tail       *buffer
		tailBlk    int
		tailFilled int
		end        int64 // entry length so far
	)
	// Fill the remaining capacity of the current last block first.
	if orig != NilAddress {
		b, _, blk, err := c.locate(orig)
		if err != nil {
			return NilAddress, err
		}
		b.mu.Lock()
		m := &b.meta[blk]
		if !m.used {
			b.mu.Unlock()
			return NilAddress, ErrEntryDeleted
		}
		n := copy(b.data[blk*bs+int(m.length):(blk+1)*bs], rest)
		m.length += int32(n)
		m.end += int64(n)
		end = m.end
		b.mu.Unlock()
		tail, tailBlk, tailFilled = b, blk, n
		rest = rest[n:]
	}
	need := (len(rest) + bs - 1) / bs
	if orig == NilAddress && need == 0 {
		need = 1 // an empty entry still owns a block, which is its address
	}
	last := orig
	for need > 0 {
		bi, b, err := c.pickBuffer()
		if err != nil {
			_, _ = c.freeChain(last, orig) // the new blocks are ours alone: cannot fail
			if tailFilled > 0 {
				tail.mu.Lock()
				tail.meta[tailBlk].length -= int32(tailFilled)
				tail.meta[tailBlk].end -= int64(tailFilled)
				tail.mu.Unlock()
			}
			return orig, err
		}
		b.mu.Lock()
		for need > 0 && b.freeHead >= 0 {
			blk := int(b.freeHead)
			m := &b.meta[blk]
			b.freeHead = m.next
			b.freeCount--
			n := copy(b.data[blk*bs:(blk+1)*bs], rest)
			end += int64(n)
			*m = blockMeta{used: true, length: int32(n), prev: last, next: -1, end: end}
			last = c.addressOf(bi, blk)
			rest = rest[n:]
			need--
		}
		exhausted := b.freeHead < 0
		b.mu.Unlock()
		if exhausted {
			c.syncAvail(bi)
		}
	}
	c.addUsed(int64(len(data)))
	return last, nil
}

func (c *Cache) addUsed(n int64) {
	c.used.Add(n)
	mUsedBytes.Add(n)
}

// freeChain returns the blocks from addr back to (not including) stop to
// their buffers' free lists in one pass, holding each buffer's lock across
// the consecutive blocks it owns. It reports the entry bytes they held.
func (c *Cache) freeChain(addr, stop Address) (int64, error) {
	var (
		cur     *buffer
		curIdx  int
		wasFull bool
		freed   int64
	)
	release := func() {
		if cur != nil {
			cur.mu.Unlock()
			if wasFull {
				c.syncAvail(curIdx)
			}
		}
	}
	defer release()
	for a := addr; a != stop && a != NilAddress; {
		b, bi, blk, err := c.locate(a)
		if err != nil {
			return freed, err
		}
		if b != cur {
			release()
			b.mu.Lock()
			cur, curIdx, wasFull = b, bi, b.freeHead < 0
		}
		m := &b.meta[blk]
		if !m.used {
			return freed, ErrEntryDeleted
		}
		freed += int64(m.length)
		a = m.prev
		*m = blockMeta{next: b.freeHead}
		b.freeHead = int32(blk)
		b.freeCount++
	}
	return freed, nil
}

// ReadAt copies entry bytes [off, off+len(dst)) into dst and returns how many
// it copied: fewer than len(dst) when the entry ends first, none when off is
// at or past its end. addr may be any address the entry has had; the entry
// is read as far as that block. The chain is walked back from addr only
// until the block holding off, so reading an entry's newest bytes costs the
// bytes returned, not the entry.
//
// ReadAt may run beside Append on the same entry. Beside Delete it either
// fails with ErrEntryDeleted or, if the freed blocks were handed out again
// in between, returns bytes of another entry: a caller that does not exclude
// Delete must check afterwards that the entry was still there.
func (c *Cache) ReadAt(addr Address, off int64, dst []byte) (int, error) {
	bs := c.cfg.BlockSize
	b, _, blk, err := c.locate(addr)
	if err != nil {
		return 0, err
	}
	b.mu.Lock()
	m := &b.meta[blk]
	if !m.used {
		b.mu.Unlock()
		return 0, ErrEntryDeleted
	}
	hi := off + int64(len(dst))
	if hi > m.end {
		hi = m.end
	}
	if off < 0 || off >= hi {
		b.mu.Unlock()
		return 0, nil
	}
	for {
		start := m.end - int64(m.length)
		lo, h := start, m.end
		if lo < off {
			lo = off
		}
		if h > hi {
			h = hi
		}
		if lo < h {
			copy(dst[lo-off:h-off], b.data[blk*bs+int(lo-start):blk*bs+int(h-start)])
		}
		if start <= off {
			break
		}
		nb, _, nblk, lerr := c.locate(m.prev)
		if lerr != nil {
			b.mu.Unlock()
			return 0, ErrEntryDeleted
		}
		if nb != b {
			b.mu.Unlock()
			nb.mu.Lock()
			b = nb
		}
		blk, m = nblk, &b.meta[nblk]
		if !m.used || m.end != start {
			// Not the block that preceded ours: the chain was freed (and
			// perhaps handed out again) under the walk.
			b.mu.Unlock()
			return 0, ErrEntryDeleted
		}
	}
	b.mu.Unlock()
	mReadBytes.Add(hi - off)
	return int(hi - off), nil
}

// Get returns a copy of the whole entry whose last block is addr.
func (c *Cache) Get(addr Address) ([]byte, error) {
	b, _, blk, err := c.locate(addr)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	used, n := b.meta[blk].used, b.meta[blk].end
	b.mu.Unlock()
	if !used {
		return nil, ErrEntryDeleted
	}
	out := make([]byte, n)
	if _, err := c.ReadAt(addr, 0, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Delete frees every block of the entry at addr.
func (c *Cache) Delete(addr Address) error {
	if addr == NilAddress {
		return ErrBadAddress
	}
	freed, err := c.freeChain(addr, NilAddress)
	c.addUsed(-freed)
	return err
}

// Stats describes cache occupancy.
type Stats struct {
	UsedBytes   int64
	Buffers     int
	FreeBlocks  int
	TotalBlocks int
}

// Stats returns a consistent-enough snapshot of occupancy.
func (c *Cache) Stats() Stats {
	bufs := c.bufs[:c.nbuf.Load()]
	st := Stats{UsedBytes: c.used.Load(), Buffers: len(bufs)}
	for _, b := range bufs {
		b.mu.Lock()
		st.FreeBlocks += b.freeCount
		b.mu.Unlock()
		st.TotalBlocks += c.cfg.BlocksPerBuffer
	}
	return st
}

// MaxBytes returns the configured capacity in bytes.
func (c *Cache) MaxBytes() int64 {
	return int64(c.cfg.BlockSize) * int64(c.cfg.BlocksPerBuffer) * int64(c.cfg.MaxBuffers)
}

func (a Address) String() string { return fmt.Sprintf("blk#%d", uint32(a)) }
