package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec names one reported metric: its unit and which direction is
// better, as BENCHMARK.json states them.
type metricSpec struct{ name, unit, better string }

// endToEnd lists the gated metrics in report order. BENCHMARK.json carries
// the same, plus the bound by which each may worsen; a test keeps the two in
// step. failed_ops_ratio is printed beside them but is not in
// BENCHMARK.json: it is 0 on a healthy run, and the contract's
// attempted/failed pair carries it.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"write_events_per_s", "1/s", "higher"},
	{"write_mb_per_s", "MB/s", "higher"},
	{"write_p50_ms", "ms", "lower"},
	{"cpu_us_per_event", "us", "lower"},
}

// lowerIsBetter reports the direction of an end-to-end metric.
func lowerIsBetter(name string) bool {
	for _, m := range endToEnd {
		if m.name == name {
			return m.better == "lower"
		}
	}
	panic("bench: no end-to-end metric " + name)
}

// result is one workload's outcome.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Ungated   map[string]metric `json:"ungated,omitempty"` // untraced runs: see ungated
	WallS     float64           `json:"wall_s"`
}

// edge is what is read at one window boundary of a pass.
type edge struct {
	cpu                [3]float64 // bench, coord, store: cumulative CPU seconds
	store, coord, self samples    // traced runs only
	mallocs            uint64
}

// readEdge reads CPU at a window boundary and, on a traced run, scrapes all
// three processes and the allocator: boundary scrapes are both the ends of
// the deltas and the 1 Hz samples the gauge maxima come from.
func (e *env) readEdge() edge {
	var ed edge
	for i, pid := range []int{os.Getpid(), e.d.coord.pid(), e.d.store.pid()} {
		ed.cpu[i], _ = cpuSeconds(pid) // a vanished child shows up as failed operations
	}
	if e.traced() {
		ed.store, _ = scrape(e.d.storeMetrics)
		ed.coord, _ = scrape(e.d.coordMetrics)
		ed.self, _ = scrapeSelf()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		ed.mallocs = ms.Mallocs
	}
	return ed
}

// minWindowShare drops a window cut short by an early end from the medians
// when it lasted less than this share of windowLen.
const minWindowShare = 0.5

// window is one measured window of one pass.
type window struct {
	*pass
	w int
}

func (x window) seconds() float64 { return x.ph.spent[x.w].Seconds() }

// windowsOf returns the measured windows of the passes that recorded spans
// (traced) or did not, skipping stubs.
func windowsOf(passes []*pass, traced bool) []window {
	var out []window
	for _, p := range passes {
		for w := 1; w <= p.ph.windows(); w++ {
			if p.ph.traced[w] == traced && p.ph.spent[w] >= time.Duration(minWindowShare*float64(windowLen)) {
				out = append(out, window{p, w})
			}
		}
	}
	return out
}

// medianOver computes f for each window and returns the median.
func medianOver(windows []window, f func(x window) float64) float64 {
	vals := make([]float64, 0, len(windows))
	for _, x := range windows {
		vals = append(vals, f(x))
	}
	sort.Float64s(vals)
	return percentile(vals, 0.5)
}

// latencyMS is the median over windows of each window's p-quantile, in ms.
func latencyMS(windows []window, samples func(x window) []int64, p float64) float64 {
	return medianOver(windows, func(x window) float64 { return percentile(sortedCopy(samples(x), 1e-6), p) })
}

// perSecond is the median over windows of count per second of window.
func perSecond(windows []window, count func(x window) int64) float64 {
	return medianOver(windows, func(x window) float64 { return float64(count(x)) / x.seconds() })
}

func writeLatency(x window) []int64 { return x.write.win[x.w].latNS }
func e2eLatency(x window) []int64   { return x.tail.win[x.w].e2eNS }

// endToEndMetrics computes the gated metrics as medians over the windows
// that did (traced) or did not record spans; the untraced run has only the
// latter.
func (e *env) endToEndMetrics(traced bool) map[string]float64 {
	ww := windowsOf(e.gated, traced)
	_, setup, _ := quartiles(e.setupS)
	return map[string]float64{
		"setup_s":            setup + e.preloadS,
		"write_events_per_s": perSecond(ww, func(x window) int64 { return x.write.win[x.w].acked }),
		"write_mb_per_s":     perSecond(ww, func(x window) int64 { return x.write.win[x.w].bytes }) / 1e6,
		"write_p50_ms":       latencyMS(ww, writeLatency, 0.5),
		"cpu_us_per_event": medianOver(ww, func(x window) float64 {
			acked := float64(x.write.win[x.w].acked)
			if acked == 0 || x.w >= len(x.edges) {
				return 0
			}
			var cpu float64
			for i := range x.edges[x.w].cpu {
				cpu += x.edges[x.w].cpu[i] - x.edges[x.w-1].cpu[i]
			}
			return cpu * 1e6 / acked
		}),
	}
}

// ungated lists the workload-level numbers ISSUE 14 wanted gated that do not
// repeat within a bound of 25 % on the reference box (README has the
// measured spreads), under the names the issue gave them. The traced run
// reports them as tail.* and mixed.* per-layer metrics.
var ungated = []metricSpec{
	{"write_p95_ms", "ms", "lower"},
	{"e2e_p50_ms", "ms", "lower"},
	{"e2e_p95_ms", "ms", "lower"},
	{"read_mb_per_s", "MB/s", "higher"},
	{"mixed.write_p50_ms", "ms", "lower"},
	{"mixed.e2e_p50_ms", "ms", "lower"},
	{"mixed.read_mb_per_s", "MB/s", "higher"},
	{"gen.lag_p99_us", "us", "lower"},
}

// lagLimitUS is how late the open-loop generator may fire at p99 before the
// latencies timed from its schedule stop meaning what they say.
const lagLimitUS = 1000

// ungatedMetrics computes them over the untraced windows; a workload
// without the reader or part a metric needs reports 0 for it.
func (e *env) ungatedMetrics() map[string]float64 {
	ww := windowsOf(e.gated, false)
	m := map[string]float64{"write_p95_ms": latencyMS(ww, writeLatency, 0.95)}
	var lag []int64
	for _, p := range e.gated {
		lag = append(lag, p.write.lagNS...)
	}
	if len(lag) > 0 {
		m["gen.lag_p99_us"] = percentile(sortedCopy(lag, 1e-3), 0.99)
	}
	if e.gated[0].tail != nil {
		m["e2e_p50_ms"] = latencyMS(ww, e2eLatency, 0.5)
		m["e2e_p95_ms"] = latencyMS(ww, e2eLatency, 0.95)
		m["read_mb_per_s"] = perSecond(ww, func(x window) int64 { return x.tail.win[x.w].bytes }) / 1e6
	}
	if e.mixed != nil {
		mw := windowsOf([]*pass{e.mixed}, false)
		m["mixed.write_p50_ms"] = latencyMS(mw, writeLatency, 0.5)
		m["mixed.e2e_p50_ms"] = latencyMS(mw, e2eLatency, 0.5)
		m["mixed.read_mb_per_s"] = perSecond(mw, func(x window) int64 { return x.catchup.win[x.w].bytes }) / 1e6
	}
	return m
}

// outcome packs the run into a result: end-to-end metrics untraced,
// per-layer metrics traced.
func (e *env) outcome(wall time.Duration) *result {
	r := &result{
		Workload:  e.wl.name,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   make(map[string]metric),
		Ungated:   make(map[string]metric),
		WallS:     wall.Seconds(),
	}
	u := e.ungatedMetrics()
	if lag := u["gen.lag_p99_us"]; lag > lagLimitUS {
		fmt.Fprintf(e.cfg.log, "bench: %s: the generator fired %.0f us late at p99 (limit %d): its latencies are not to be trusted\n", e.wl.name, lag, lagLimitUS)
	}
	if e.traced() {
		m := e.layerMetrics()
		for _, lm := range layers {
			r.Metrics[lm.name] = metric{m[lm.name], lm.unit}
		}
	} else {
		m := e.endToEndMetrics(false)
		for _, em := range endToEnd {
			r.Metrics[em.name] = metric{m[em.name], em.unit}
		}
		for _, um := range ungated {
			if v, ok := u[um.name]; ok {
				r.Ungated[um.name] = metric{v, um.unit}
			}
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r
}
