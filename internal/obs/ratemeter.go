package obs

import (
	"sync"
	"time"
)

// RateMeter measures event and byte rates over a sliding window of fixed
// sub-intervals. The segment store's load reporter uses it to implement the
// "sustained rate" trigger of the auto-scaling policy (§3.1).
type RateMeter struct {
	mu       sync.Mutex
	interval time.Duration
	slots    []rateSlot
	now      func() time.Time
}

type rateSlot struct {
	start  time.Time
	events int64
	bytes  int64
}

// NewRateMeter creates a meter with the given number of sub-interval slots
// each of the given length. Rate queries average over the full window.
func NewRateMeter(slots int, interval time.Duration) *RateMeter {
	if slots < 1 {
		slots = 1
	}
	return &RateMeter{
		interval: interval,
		slots:    make([]rateSlot, 0, slots),
		now:      time.Now,
	}
}

// Record adds events and bytes at the current time.
func (m *RateMeter) Record(events, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.now()
	if n := len(m.slots); n == 0 || t.Sub(m.slots[n-1].start) >= m.interval {
		if len(m.slots) == cap(m.slots) {
			copy(m.slots, m.slots[1:])
			m.slots = m.slots[:len(m.slots)-1]
		}
		m.slots = append(m.slots, rateSlot{start: t})
	}
	s := &m.slots[len(m.slots)-1]
	s.events += events
	s.bytes += bytes
}

// Rates returns the average events/s and bytes/s over the window currently
// covered by the meter. Windows shorter than one interval report zero to
// avoid spurious spikes.
func (m *RateMeter) Rates() (eventsPerSec, bytesPerSec float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.slots) == 0 {
		return 0, 0
	}
	var ev, by int64
	for _, s := range m.slots {
		ev += s.events
		by += s.bytes
	}
	span := m.now().Sub(m.slots[0].start)
	if span < m.interval {
		span = m.interval
	}
	sec := span.Seconds()
	return float64(ev) / sec, float64(by) / sec
}

// WindowFull reports whether the meter has accumulated a full window of
// samples, i.e. whether Rates reflects a sustained observation.
func (m *RateMeter) WindowFull() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.slots) == cap(m.slots)
}
