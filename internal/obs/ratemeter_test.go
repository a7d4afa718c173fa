package obs

import (
	"testing"
	"time"
)

func TestRateMeterWindow(t *testing.T) {
	m := NewRateMeter(4, 100*time.Millisecond)
	now := time.Unix(1000, 0)
	m.SetClock(func() time.Time { return now })

	if ev, by := m.Rates(); ev != 0 || by != 0 {
		t.Fatal("fresh meter must report zero")
	}
	if m.WindowFull() {
		t.Fatal("fresh meter cannot have a full window")
	}
	// 100 events of 10 bytes per 100ms slot over 4 slots = 1000 e/s.
	for slot := 0; slot < 4; slot++ {
		for i := 0; i < 100; i++ {
			m.Record(1, 10)
		}
		now = now.Add(100 * time.Millisecond)
	}
	if !m.WindowFull() {
		t.Fatal("window should be full after 4 slots")
	}
	ev, by := m.Rates()
	if ev < 900 || ev > 1100 {
		t.Fatalf("events/s = %v, want ~1000", ev)
	}
	if by < 9000 || by > 11000 {
		t.Fatalf("bytes/s = %v, want ~10000", by)
	}
}

func TestRateMeterSlidesWindow(t *testing.T) {
	m := NewRateMeter(2, 50*time.Millisecond)
	now := time.Unix(0, 0)
	m.SetClock(func() time.Time { return now })
	m.Record(1000, 0)
	now = now.Add(50 * time.Millisecond)
	m.Record(10, 0)
	now = now.Add(50 * time.Millisecond)
	m.Record(10, 0) // evicts the 1000-event slot
	ev, _ := m.Rates()
	if ev > 500 {
		t.Fatalf("stale slot not evicted: %v e/s", ev)
	}
}

// SetClock overrides the time source (used by tests).
func (m *RateMeter) SetClock(now func() time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now = now
}
