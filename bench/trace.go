package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the harness's side of
// the layer's public functions. Parent names the span that contains it on
// the append chain ("" for a root or a stand-alone probe).
type span struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the tracer was created
	EndNS    int64  `json:"end_ns"`
	Parent   string `json:"parent,omitempty"`
	Workload string `json:"workload"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run stays untraced.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// parents is the append chain of ISSUE 14: each span is covered by the one
// above it, and a layer's self time is its span minus its child's.
var parents = map[string]string{
	"wire.append":              "client.write",
	"segstore.append":          "wire.append",
	"wal.append":               "segstore.append",
	"bookkeeper.ledger_append": "wal.append",
	"bookkeeper.add":           "bookkeeper.ledger_append",
}

func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{
		Name:     name,
		StartNS:  int64(start.Sub(t.epoch)),
		EndNS:    int64(end.Sub(t.epoch)),
		Parent:   parents[name],
		Workload: t.workload,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the recorded durations (ns) of every span called name.
func (t *tracer) durations(name string) []int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.EndNS-s.StartNS)
		}
	}
	return out
}

// p50 returns the median duration of the named span in the given unit
// (ns per unit), or 0 when none was recorded.
func (t *tracer) p50(name string, unit float64) float64 {
	return percentile(sortedCopy(t.durations(name), 1/unit), 0.5)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
