package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
)

// Event payload: [8 B send-time ns][4 B key id][8 B per-key sequence]
// followed by padding cut from a seeded pool at an offset derived from
// (key, sequence), so a reader can check every byte without any shared
// state beyond the seed.
const (
	headerLen = 20
	poolLen   = 1 << 20
	// frameOverhead is the length prefix pkg/pravega puts before each event
	// on the segment (codec.go: appendEventFrame).
	frameOverhead = 4
)

// splitmix64 is the generator behind key choice: tiny, fast and fully
// determined by its seed.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// newPool returns the padding pool for a seed.
func newPool(seed int64) []byte {
	pool := make([]byte, poolLen)
	rand.New(rand.NewSource(seed)).Read(pool)
	return pool
}

func paddingOffset(key uint32, seq uint64, size int) int {
	s := splitmix64(uint64(key)<<40 ^ seq)
	return int(s.next() % uint64(poolLen-size))
}

// generator produces one stream's events: which key each goes to, its
// per-key sequence and its padding all follow from the seed.
type generator struct {
	rng  splitmix64
	pool []byte
	size int
	keys []string
	seqs []uint64 // next sequence per key
}

func newGenerator(seed int64, pool []byte, size, numKeys int) *generator {
	if size < headerLen {
		panic(fmt.Sprintf("bench: event size %d below the %d-byte header", size, headerLen))
	}
	g := &generator{rng: splitmix64(seed), pool: pool, size: size, seqs: make([]uint64, numKeys)}
	for i := 0; i < numKeys; i++ {
		g.keys = append(g.keys, fmt.Sprintf("key-%04d", i))
	}
	return g
}

// next fills buf (len == size) with the next event stamped sendNS and
// returns its routing key.
func (g *generator) next(buf []byte, sendNS int64) string {
	key := uint32(g.rng.next() % uint64(len(g.keys)))
	seq := g.seqs[key]
	g.seqs[key]++
	binary.LittleEndian.PutUint64(buf[0:], uint64(sendNS))
	binary.LittleEndian.PutUint32(buf[8:], key)
	binary.LittleEndian.PutUint64(buf[12:], seq)
	off := paddingOffset(key, seq, g.size)
	copy(buf[headerLen:], g.pool[off:off+g.size-headerLen])
	return g.keys[key]
}

// verifier checks a read-back stream: every event well formed, per-key
// sequences gap-free and increasing, nothing twice.
type verifier struct {
	pool []byte
	size int
	next []uint64 // next expected sequence per key

	read      int64 // events accepted in order
	corrupt   int64 // wrong size, unknown key or padding mismatch
	duplicate int64 // sequence already delivered
	gaps      int64 // sequences skipped over (lost, or delivered out of order)
}

func newVerifier(pool []byte, size, numKeys int) *verifier {
	return &verifier{pool: pool, size: size, next: make([]uint64, numKeys)}
}

// check validates one event and returns its send time.
func (v *verifier) check(data []byte) (sendNS int64) {
	if len(data) != v.size {
		v.corrupt++
		return 0
	}
	sendNS = int64(binary.LittleEndian.Uint64(data[0:]))
	key := binary.LittleEndian.Uint32(data[8:])
	seq := binary.LittleEndian.Uint64(data[12:])
	if int(key) >= len(v.next) {
		v.corrupt++
		return sendNS
	}
	off := paddingOffset(key, seq, v.size)
	if !bytes.Equal(data[headerLen:], v.pool[off:off+v.size-headerLen]) {
		v.corrupt++
		return sendNS
	}
	switch want := v.next[key]; {
	case seq == want:
		v.next[key]++
		v.read++
	case seq < want:
		v.duplicate++
	default:
		// Events want..seq-1 were skipped. If they turn up later they count
		// as duplicates, so a reorder costs at least two failures.
		v.gaps += int64(seq - want)
		v.next[key] = seq + 1
		v.read++
	}
	return sendNS
}

// failures is the number of read-side failed operations: anything
// malformed, repeated or skipped, plus — against the writer's per-key
// counts, when the reader was meant to see them all — events never
// delivered.
func (v *verifier) failures(acked []uint64) int64 {
	f := v.corrupt + v.duplicate + v.gaps
	for k, n := range acked {
		if v.next[k] < n {
			f += int64(n - v.next[k])
		}
	}
	return f
}
