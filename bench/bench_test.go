package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/pravega-go/pravega/internal/obs"
)

// drawn is one generated event, for comparing streams.
type drawn struct {
	key  string
	data string
}

func draw(seed int64, size, keys, n int) []drawn {
	g := newGenerator(seed, newPool(seed), size, keys)
	out := make([]drawn, n)
	buf := make([]byte, size)
	for i := range out {
		key := g.next(buf, int64(i))
		out[i] = drawn{key, string(buf)}
	}
	return out
}

func TestGeneratorIsDeterministic(t *testing.T) {
	a, b := draw(7, 100, 256, 2000), draw(7, 100, 256, 2000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs between two generators with the same seed", i)
		}
	}
	c := draw(8, 100, 256, 2000)
	sameKeys, sameData := 0, 0
	for i := range a {
		if a[i].key == c[i].key {
			sameKeys++
		}
		if a[i].data == c[i].data {
			sameData++
		}
	}
	if sameKeys > len(a)/10 || sameData > 0 {
		t.Fatalf("seeds 7 and 8 agree on %d keys and %d whole events of %d", sameKeys, sameData, len(a))
	}
	// Per-key sequences count up from zero with no gaps.
	v := newVerifier(newPool(7), 100, 256)
	for _, ev := range a {
		v.check([]byte(ev.data))
	}
	if v.read != int64(len(a)) || v.failures(nil) != 0 {
		t.Fatalf("generator output does not verify: read=%d failures=%d", v.read, v.failures(nil))
	}
}

func TestVerifierDetectsLossDuplicateAndReorder(t *testing.T) {
	const size, keys, n = 64, 4, 400
	events := draw(3, size, keys, n)
	g := newGenerator(3, newPool(3), size, keys)
	buf := make([]byte, size)
	for range events {
		g.next(buf, 0)
	}
	run := func(stream []drawn) *verifier {
		v := newVerifier(newPool(3), size, keys)
		for _, ev := range stream {
			v.check([]byte(ev.data))
		}
		return v
	}

	if v := run(events); v.failures(g.seqs) != 0 {
		t.Fatalf("clean stream: %d failures", v.failures(g.seqs))
	}

	lost := append(append([]drawn(nil), events[:100]...), events[101:]...)
	if v := run(lost); v.gaps != 1 || v.failures(g.seqs) != 1 {
		t.Fatalf("one lost event: gaps=%d failures=%d", v.gaps, v.failures(g.seqs))
	}

	tailLost := events[:n-1]
	if v := run(tailLost); v.failures(g.seqs) != 1 {
		t.Fatalf("last event lost: failures=%d, want 1 (undelivered)", v.failures(g.seqs))
	}

	dup := append(append([]drawn(nil), events[:200]...), events[199:]...)
	if v := run(dup); v.duplicate != 1 || v.failures(g.seqs) != 1 {
		t.Fatalf("one duplicate: duplicate=%d failures=%d", v.duplicate, v.failures(g.seqs))
	}

	// Swap two events of the same key.
	swapped := append([]drawn(nil), events...)
	i := 50
	j := i + 1
	for swapped[j].key != swapped[i].key {
		j++
	}
	swapped[i], swapped[j] = swapped[j], swapped[i]
	if v := run(swapped); v.gaps == 0 || v.duplicate == 0 {
		t.Fatalf("reorder: gaps=%d duplicate=%d, want both non-zero", v.gaps, v.duplicate)
	}

	corrupt := append([]drawn(nil), events...)
	b := []byte(corrupt[10].data)
	b[size-1] ^= 0xff
	corrupt[10].data = string(b)
	if v := run(corrupt); v.corrupt != 1 {
		t.Fatalf("flipped padding byte: corrupt=%d", v.corrupt)
	}
}

func TestPercentilesAndQuartiles(t *testing.T) {
	var v []float64
	for i := 1; i <= 101; i++ {
		v = append(v, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 51}, {0.95, 96}, {0.99, 100}, {1, 101}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(1..101, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{10, 20}, 0.5); got != 15 {
		t.Errorf("percentile interpolates: got %v, want 15", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v", got)
	}

	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 0.5}, {199, 0.5}, {200, 0.95}, {1000, 0.99}, {10000, 0.999}, {300000, 0.9999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}

	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v", q1, q2, q3)
	}
}

func TestParsePrometheus(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("pravega_x_total", "a counter").Add(42)
	reg.Gauge("pravega_g", "a gauge", "container", "3", "note", "two words").Set(-7)
	h := reg.Histogram("pravega_lat_us", "a summary")
	for i := 1; i <= 100; i++ {
		h.Record(int64(i))
	}
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	s, err := parsePrometheus(&b)
	if err != nil {
		t.Fatal(err)
	}
	if s["pravega_x_total"] != 42 {
		t.Errorf("counter = %v", s["pravega_x_total"])
	}
	if s[`pravega_g{container="3",note="two words"}`] != -7 {
		t.Errorf("labelled gauge not found in %v", s)
	}
	if s["pravega_lat_us_count"] != 100 || s["pravega_lat_us_sum"] != 5050 {
		t.Errorf("summary count/sum = %v/%v", s["pravega_lat_us_count"], s["pravega_lat_us_sum"])
	}
	if q := quantileOf(s, "pravega_lat_us", "0.5"); q < 45 || q > 55 {
		t.Errorf("summary median = %v", q)
	}
	before := samples{"pravega_lat_us_count": 40, "pravega_lat_us_sum": 1000}
	if n, sum := delta(before, s, "pravega_lat_us_count"), delta(before, s, "pravega_lat_us_sum"); n != 60 || sum != 4050 {
		t.Errorf("delta count/sum = %v/%v, want 60/4050", n, sum)
	}
	if _, err := parsePrometheus(strings.NewReader("no_value_here\n")); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestParseProcStat(t *testing.T) {
	// comm with a space and a parenthesis; utime=250 stime=50 ticks.
	line := "123 (odd) name) S 1 123 123 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 5 0 100 1000 10 18446744073709551615\n"
	got, err := parseProcStat(line)
	if err != nil || got != 3.0 {
		t.Fatalf("parseProcStat = %v, %v; want 3.0 s", got, err)
	}
	if self, err := cpuSeconds(os.Getpid()); err != nil || self < 0 {
		t.Fatalf("cpuSeconds(self) = %v, %v", self, err)
	}
	if rss, err := peakRSSMB(os.Getpid()); err != nil || rss <= 0 {
		t.Fatalf("peakRSSMB(self) = %v, %v", rss, err)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatchesBinary holds BENCHMARK.json to the names, units
// and workloads the binary reports, and to the contract's limits.
func TestBenchmarkFileMatchesBinary(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the binary's default is %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v", bf.Paths)
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the binary", i, w.Name, workloads[i].name)
		}
		if w.Why != workloads[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why differs from the binary's, or breaks the one-line/200-character limit", w.Name)
		}
	}

	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(unit) {
			t.Errorf("unit %q of %q outside the allowed form", unit, name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range bf.Workloads {
		check(w.Name, "x")
	}

	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the binary", len(bf.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		check(m.Name, m.Unit)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: %s [%s] in BENCHMARK.json, %s [%s] in the binary", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Better != endToEnd[i].better {
			t.Errorf("%s: better = %q, the binary says %q", m.Name, m.Better, endToEnd[i].better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] in end_to_end")
	}

	if len(bf.PerLayer) != len(layers) || len(layers) > 128 {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the binary (limit 128)", len(bf.PerLayer), len(layers))
	}
	for i, m := range bf.PerLayer {
		check(m.Name, m.Unit)
		if want := layers[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer %d: %s [%s, %s] in BENCHMARK.json, %s [%s, %s] in the binary", i, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
	}
	for _, w := range workloads {
		found := false
		for _, m := range endToEnd {
			found = found || m.name == w.headline
		}
		if !found {
			t.Errorf("workload %s: headline %q is not an end-to-end metric", w.name, w.headline)
		}
	}
}

// serversRunning lists processes whose command line starts with bin.
func serversRunning(t *testing.T, bin string) []string {
	t.Helper()
	matches, err := filepath.Glob("/proc/[0-9]*/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range matches {
		data, err := os.ReadFile(m)
		if err == nil && strings.HasPrefix(string(data), bin+"\x00") {
			out = append(out, m)
		}
	}
	return out
}

// TestQuickSmoke runs every workload for 2 s untraced and one of them
// traced: no failed operation, exactly the metric names BENCHMARK.json
// lists, no server process and no scratch directory left behind.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches real server processes")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	cfg := &config{seed: 1, seconds: 2, quick: true, root: root, outDir: outDir, log: io.Discard}
	if cfg.bin, _, err = buildServer(root, outDir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanupAll)

	names := func(r *result) []string {
		var out []string
		for name := range r.Metrics {
			out = append(out, name)
		}
		sort.Strings(out)
		return out
	}
	want := func(list []metricSpec) []string {
		var out []string
		for _, m := range list {
			out = append(out, m.name)
		}
		sort.Strings(out)
		return out
	}
	for i := range workloads {
		res, err := runWorkload(cfg, &workloads[i])
		if err != nil {
			t.Fatalf("%s: %v", workloads[i].name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d of %d", res.Workload, res.Correct, res.Failed, res.Attempted)
		}
		if got, w := names(res), want(endToEnd); strings.Join(got, " ") != strings.Join(w, " ") {
			t.Errorf("%s prints %v, want %v", res.Workload, got, w)
		}
		for name, m := range res.Metrics {
			if m.Value <= 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v; end-to-end metrics must never be 0", res.Workload, name, m.Value)
			}
		}
		// The numbers that are reported but not gated are there where the
		// workload has the reader for them. (The quick backlog is drained
		// before catchup_mixed's second part reaches its first window.)
		for _, name := range map[string][]string{
			"tail_paced":    {"e2e_p50_ms", "read_mb_per_s"},
			"catchup_mixed": {"e2e_p50_ms", "read_mb_per_s"},
		}[res.Workload] {
			if res.Ungated[name].Value <= 0 {
				t.Errorf("%s: %s = %v", res.Workload, name, res.Ungated[name].Value)
			}
		}
	}

	traced := *cfg
	traced.trace = true
	res, err := runWorkload(&traced, findWorkload("tail_paced"))
	if err != nil {
		t.Fatalf("traced tail_paced: %v", err)
	}
	if res.Failed != 0 {
		t.Errorf("traced tail_paced: failed=%d of %d", res.Failed, res.Attempted)
	}
	if got, w := names(res), want(layers); strings.Join(got, " ") != strings.Join(w, " ") {
		t.Errorf("traced run prints %v, want %v", got, w)
	}
	if _, err := os.Stat(filepath.Join(outDir, "trace.tail_paced.json")); err != nil {
		t.Errorf("no trace file: %v", err)
	}

	if left := serversRunning(t, cfg.bin); len(left) != 0 {
		t.Errorf("server processes left behind: %v", left)
	}
	if dirs, _ := filepath.Glob(filepath.Join(outDir, "run-*")); len(dirs) != 0 {
		t.Errorf("scratch directories left behind: %v", dirs)
	}
}
