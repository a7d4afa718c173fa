package sim

import (
	"sync"
	"time"
)

// LinkConfig parameterizes a one-way network path.
type LinkConfig struct {
	// Latency is the one-way propagation delay (RTT/2).
	Latency time.Duration
	// Bandwidth is the serialization rate in bytes/s (0 = unlimited).
	Bandwidth float64
}

// Link models a one-way FIFO network path: each message is delivered after
// propagation delay plus serialization behind all previously sent messages.
// Delivery order is preserved. Deliver callbacks run on a single goroutine
// per link, which waits out each delay with preciseSleep.
type Link struct {
	cfg LinkConfig

	mu         sync.Mutex
	queue      []linkMsg
	lastDepart time.Time
	closed     bool
	running    bool
}

type linkMsg struct {
	deliverAt time.Time
	fn        func()
}

// NewLink creates a shaped one-way path.
func NewLink(cfg LinkConfig) *Link { return &Link{cfg: cfg} }

// Send schedules fn to run after the modelled network delay for a message
// of the given size. Messages sent on the same link are delivered in order.
func (l *Link) Send(size int, fn func()) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	now := time.Now()
	depart := now
	if depart.Before(l.lastDepart) {
		depart = l.lastDepart
	}
	if l.cfg.Bandwidth > 0 {
		depart = depart.Add(time.Duration(float64(size) / l.cfg.Bandwidth * float64(time.Second)))
	}
	l.lastDepart = depart
	deliverAt := depart.Add(l.cfg.Latency)
	l.queue = append(l.queue, linkMsg{deliverAt: deliverAt, fn: fn})
	if !l.running {
		l.running = true
		go l.deliverLoop()
	}
	l.mu.Unlock()
}

func (l *Link) deliverLoop() {
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.closed {
			l.running = false
			l.mu.Unlock()
			return
		}
		if l.closed {
			l.queue = nil
			l.running = false
			l.mu.Unlock()
			return
		}
		msg := l.queue[0]
		l.queue = l.queue[1:]
		l.mu.Unlock()

		if wait := time.Until(msg.deliverAt); wait > 0 {
			preciseSleep(wait)
		}
		msg.fn()
	}
}

// Close drops queued messages and stops delivery.
func (l *Link) Close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
}

// RTT returns the modelled round-trip time of a request/response pair of
// links with this configuration (2 × one-way latency).
func (c LinkConfig) RTT() time.Duration { return 2 * c.Latency }
