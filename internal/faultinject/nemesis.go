package faultinject

import (
	"bufio"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pravega-go/pravega/internal/wire"
)

// NemesisConfig scripts the network faults one NemesisProxy injects.
// Probabilities are per forwarded frame (or per accepted connection where
// noted) and every random choice is drawn from rngs derived from Seed, so a
// seed fully determines what is injected; only wall-clock interleaving with
// the workload varies between runs, matching the crash harness's
// determinism contract.
type NemesisConfig struct {
	// Seed drives every random choice. Each accepted connection derives its
	// own per-direction rngs from it, so fault schedules do not depend on
	// goroutine interleaving between connections.
	Seed int64

	// LatencyBase/LatencyJitter delay each forwarded frame by
	// LatencyBase + [0, LatencyJitter) (both zero disables).
	LatencyBase   time.Duration
	LatencyJitter time.Duration

	// SplitProb forwards a frame as several TCP writes cut at seeded,
	// arbitrary byte boundaries (frame and header boundaries carry no
	// meaning to TCP; the receiver must reassemble).
	SplitProb float64
	// CoalesceProb holds a frame back briefly so it is written in one
	// syscall together with the frame that follows it (or alone after a
	// short flush timeout, so request/reply protocols cannot deadlock).
	CoalesceProb float64

	// DupProb forwards a frame twice, back to back in a single write —
	// duplicate delivery of a request exercises server-side dedup, of a
	// reply the client's request-id correlation.
	DupProb float64

	// KillMidFrameProb kills the connection after forwarding a seeded
	// proper prefix of a frame: the peer observes a stream cut in the
	// middle of a message.
	KillMidFrameProb float64

	// BlackHoleProb black-holes a new connection (per connection): bytes
	// are accepted and swallowed, nothing is forwarded in either direction,
	// and after BlackHoleFor (default 100ms) the connection is killed.
	BlackHoleProb float64
	BlackHoleFor  time.Duration
}

func (c *NemesisConfig) defaults() {
	if c.BlackHoleFor <= 0 {
		c.BlackHoleFor = 100 * time.Millisecond
	}
}

// NemesisProxy is a deterministic in-process TCP proxy interposed between a
// wire client and a wire server. It forwards traffic frame by frame (it
// understands only the fixed wire frame header, never message bodies) and
// injects the faults its config scripts: mid-frame connection kills,
// black holes, latency and jitter, split and coalesced writes, duplicated
// frames, and timed bidirectional partitions. Scripted one-shot rules
// (DropReplyOnce) target specific message types for deterministic
// regression tests.
type NemesisProxy struct {
	ln     net.Listener
	target string
	cfg    NemesisConfig

	mu      sync.Mutex
	pairs   map[*proxyPair]struct{}
	connSeq int64
	healAt  time.Time // bidirectional partition deadline; zero = none
	closed  bool

	// dropReply is the armed one-shot reply-drop rule (0 = disarmed): the
	// next request of this type is forwarded, and its connection is killed
	// before the matching reply frame reaches the client — the canonical
	// "operation applied, ack lost" schedule.
	dropReply wire.MessageType

	injected  int64
	forwarded atomic.Int64 // frame bytes read for forwarding, both directions
}

// NewNemesisProxy listens on addr (e.g. "127.0.0.1:0") and forwards every
// accepted connection to target through the fault pipeline.
func NewNemesisProxy(addr, target string, cfg NemesisConfig) (*NemesisProxy, error) {
	cfg.defaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &NemesisProxy{ln: ln, target: target, cfg: cfg, pairs: make(map[*proxyPair]struct{})}
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address (dial this instead of the server).
func (p *NemesisProxy) Addr() string { return p.ln.Addr().String() }

// Forwarded reports how many frame bytes the proxy has read for forwarding
// so far, in both directions.
func (p *NemesisProxy) Forwarded() int64 { return p.forwarded.Load() }

// Injected reports how many faults the proxy has injected so far.
func (p *NemesisProxy) Injected() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.injected
}

func (p *NemesisProxy) countFault() {
	p.mu.Lock()
	p.injected++
	p.mu.Unlock()
	mNetFaults.Inc()
}

// KillAll abruptly closes every live connection pair (both sides).
func (p *NemesisProxy) KillAll() {
	p.mu.Lock()
	pairs := make([]*proxyPair, 0, len(p.pairs))
	for pp := range p.pairs {
		pairs = append(pairs, pp)
	}
	p.injected++
	p.mu.Unlock()
	mNetFaults.Inc()
	for _, pp := range pairs {
		pp.kill()
	}
}

// Partition starts a timed bidirectional partition: every live connection
// is killed and new connections are accepted but immediately closed until d
// elapses, after which dials go through again.
func (p *NemesisProxy) Partition(d time.Duration) {
	p.mu.Lock()
	p.healAt = time.Now().Add(d)
	p.mu.Unlock()
	p.KillAll()
}

// Partitioned reports whether a timed partition is still in force.
func (p *NemesisProxy) Partitioned() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return time.Now().Before(p.healAt)
}

// DropReplyOnce arms a one-shot rule: the next request frame of type t is
// forwarded to the server, and the connection that carried it is killed
// when the matching reply arrives — before the reply reaches the client. The
// operation applies server-side but its acknowledgement is lost.
func (p *NemesisProxy) DropReplyOnce(t wire.MessageType) {
	p.mu.Lock()
	p.dropReply = t
	p.mu.Unlock()
}

// Close stops the listener and kills every connection.
func (p *NemesisProxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.KillAll()
	return err
}

func (p *NemesisProxy) acceptLoop() {
	for {
		cli, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		partitioned := time.Now().Before(p.healAt)
		closed := p.closed
		p.connSeq++
		seq := p.connSeq
		p.mu.Unlock()
		if closed || partitioned {
			_ = cli.Close()
			continue
		}
		srv, err := net.Dial("tcp", p.target)
		if err != nil {
			_ = cli.Close()
			continue
		}
		pp := &proxyPair{p: p, cli: cli, srv: srv}
		p.mu.Lock()
		p.pairs[pp] = struct{}{}
		p.mu.Unlock()
		mNetConns.Add(1)

		// Per-direction rngs derived from the seed and the connection's
		// accept ordinal keep each connection's schedule deterministic.
		c2s := rand.New(rand.NewSource(p.cfg.Seed*1_000_003 + seq*2))
		s2c := rand.New(rand.NewSource(p.cfg.Seed*1_000_003 + seq*2 + 1))
		if p.cfg.BlackHoleProb > 0 && c2s.Float64() < p.cfg.BlackHoleProb {
			p.countFault()
			pp.blackhole()
			continue
		}
		go pp.pump(cli, srv, c2s, true)
		go pp.pump(srv, cli, s2c, false)
	}
}

// proxyPair is one proxied connection: the client side, the server side,
// and two pump goroutines moving frames between them.
type proxyPair struct {
	p   *NemesisProxy
	cli net.Conn
	srv net.Conn

	mu       sync.Mutex
	dead     bool
	dropID   uint64 // reply request-id to kill on (dropArmed set)
	dropSet  bool
	coalesce [2]coalesceState // per direction (0 = c2s, 1 = s2c)
}

// coalesceState is one direction's held-back frame awaiting coalescing.
type coalesceState struct {
	hold []byte
	seq  int64
}

// kill closes both sides; the peer observes an abrupt stream cut.
func (pp *proxyPair) kill() {
	pp.mu.Lock()
	if pp.dead {
		pp.mu.Unlock()
		return
	}
	pp.dead = true
	pp.mu.Unlock()
	_ = pp.cli.Close()
	_ = pp.srv.Close()
	pp.p.mu.Lock()
	delete(pp.p.pairs, pp)
	pp.p.mu.Unlock()
	mNetConns.Add(-1)
}

// blackhole swallows both directions without forwarding, then kills the
// pair after the configured stall.
func (pp *proxyPair) blackhole() {
	swallow := func(c net.Conn) {
		buf := make([]byte, 4096)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
		}
	}
	go swallow(pp.cli)
	go swallow(pp.srv)
	time.AfterFunc(pp.p.cfg.BlackHoleFor, pp.kill)
}

// pump moves frames src→dst, applying this direction's scripted faults.
func (pp *proxyPair) pump(src, dst net.Conn, rng *rand.Rand, c2s bool) {
	defer pp.kill()
	cfg := &pp.p.cfg
	dir := 0
	if !c2s {
		dir = 1
	}
	br := bufio.NewReader(src)
	for {
		frame, err := wire.ReadRawFrame(br)
		if err != nil {
			return
		}
		pp.p.forwarded.Add(int64(len(frame)))

		if c2s {
			pp.armDropReply(frame)
		} else if pp.shouldDropReply(frame) {
			// The scripted reply-drop: the request reached the server and
			// applied; its ack dies here with the connection.
			pp.p.countFault()
			return
		}

		if cfg.LatencyBase > 0 || cfg.LatencyJitter > 0 {
			d := cfg.LatencyBase
			if cfg.LatencyJitter > 0 {
				d += time.Duration(rng.Int63n(int64(cfg.LatencyJitter)))
			}
			time.Sleep(d)
		}

		switch {
		case cfg.KillMidFrameProb > 0 && rng.Float64() < cfg.KillMidFrameProb:
			// A proper prefix, cut anywhere in the frame — header included.
			pp.p.countFault()
			n := 1 + rng.Intn(len(frame)-1)
			pp.write(dir, frame[:n])
			return
		case cfg.DupProb > 0 && rng.Float64() < cfg.DupProb:
			pp.p.countFault()
			dup := make([]byte, 0, 2*len(frame))
			dup = append(dup, frame...)
			dup = append(dup, frame...)
			if !pp.write(dir, dup) {
				return
			}
		case cfg.SplitProb > 0 && rng.Float64() < cfg.SplitProb:
			pp.p.countFault()
			for len(frame) > 0 {
				n := 1 + rng.Intn(len(frame))
				if !pp.write(dir, frame[:n]) {
					return
				}
				frame = frame[n:]
				// A pause between fragments keeps the kernel from
				// re-coalescing them into one delivery.
				time.Sleep(200 * time.Microsecond)
			}
		case cfg.CoalesceProb > 0 && rng.Float64() < cfg.CoalesceProb:
			pp.p.countFault()
			pp.holdForCoalesce(dir, dst, frame)
		default:
			if !pp.write(dir, frame) {
				return
			}
		}
	}
}

// write flushes any held frame of this direction ahead of data and writes
// data to the direction's destination. Returns false once the pair is dead
// or the write failed.
func (pp *proxyPair) write(dir int, data []byte) bool {
	dst := pp.srv
	if dir == 1 {
		dst = pp.cli
	}
	pp.mu.Lock()
	if pp.dead {
		pp.mu.Unlock()
		return false
	}
	cs := &pp.coalesce[dir]
	if cs.hold != nil {
		data = append(cs.hold, data...)
		cs.hold = nil
		cs.seq++
	}
	pp.mu.Unlock()
	_, err := dst.Write(data)
	return err == nil
}

// holdForCoalesce parks a frame so the next write of the same direction
// carries it in one syscall. A flush timer bounds the hold: if nothing
// follows within 2ms the frame is written alone, so a held request (whose
// reply the client must see before sending more) cannot deadlock the
// protocol.
func (pp *proxyPair) holdForCoalesce(dir int, dst net.Conn, frame []byte) {
	pp.mu.Lock()
	cs := &pp.coalesce[dir]
	if cs.hold != nil {
		// Two consecutive coalesce decisions: merge the holds.
		cs.hold = append(cs.hold, frame...)
		pp.mu.Unlock()
		return
	}
	cs.hold = append([]byte(nil), frame...)
	cs.seq++
	seq := cs.seq
	pp.mu.Unlock()
	time.AfterFunc(2*time.Millisecond, func() {
		pp.mu.Lock()
		if pp.dead || cs.seq != seq || cs.hold == nil {
			pp.mu.Unlock()
			return
		}
		data := cs.hold
		cs.hold = nil
		cs.seq++
		pp.mu.Unlock()
		_, _ = dst.Write(data)
	})
}

// armDropReply consumes the proxy's one-shot reply-drop rule when this
// client→server frame matches its message type.
func (pp *proxyPair) armDropReply(frame []byte) {
	p := pp.p
	p.mu.Lock()
	t := p.dropReply
	if t != 0 && wire.RawFrameType(frame) == t {
		p.dropReply = 0
		pp.mu.Lock()
		pp.dropID = wire.RawFrameReqID(frame)
		pp.dropSet = true
		pp.mu.Unlock()
	}
	p.mu.Unlock()
}

// shouldDropReply reports whether this server→client frame is the armed
// reply to kill on.
func (pp *proxyPair) shouldDropReply(frame []byte) bool {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.dropSet && wire.RawFrameReqID(frame) == pp.dropID
}
