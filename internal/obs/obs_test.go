package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrentResolve hammers get-or-create and updates from many
// goroutines; run with -race. All goroutines must resolve the same handles
// and every increment must land.
func TestRegistryConcurrentResolve(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("shared_total", "shared counter").Inc()
				r.Gauge("shared_gauge", "shared gauge").Add(1)
				r.Histogram("shared_us", "shared histogram").Record(int64(i))
				r.Counter("labeled_total", "labeled", "shard", "a").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total", "").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("shared_gauge", "").Value(); got != goroutines*perG {
		t.Fatalf("gauge = %d, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("shared_us", "").Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	if got := r.Counter("labeled_total", "", "shard", "a").Value(); got != goroutines*perG {
		t.Fatalf("labeled counter = %d, want %d", got, goroutines*perG)
	}
}

func TestRegistryHandleIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "help")
	b := r.Counter("c_total", "different help ignored")
	if a != b {
		t.Fatal("same name resolved to distinct handles")
	}
	la := r.Counter("c_total", "", "k", "v")
	if la == a {
		t.Fatal("labeled series must be distinct from unlabeled")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("kinded", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("kinded", "")
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("pravega_test_total", "a counter").Add(7)
	r.Gauge("pravega_test_depth", "a gauge").Set(-3)
	r.GaugeFunc("pravega_test_fn", "a gauge func", func() float64 { return 2.5 })
	h := r.Histogram("pravega_test_us", "a histogram")
	for i := 1; i <= 100; i++ {
		h.Record(int64(i))
	}
	r.Counter("pravega_test_labeled_total", "labeled", "store", "s1").Add(4)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP pravega_test_total a counter",
		"# TYPE pravega_test_total counter",
		"pravega_test_total 7",
		"# TYPE pravega_test_depth gauge",
		"pravega_test_depth -3",
		"pravega_test_fn 2.5",
		"# TYPE pravega_test_us summary",
		`pravega_test_us{quantile="0.5"} `,
		"pravega_test_us_sum 5050",
		"pravega_test_us_count 100",
		`pravega_test_labeled_total{store="s1"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestTracerSampling(t *testing.T) {
	tr := &Tracer{ring: make([]AppendSpan, 8)}
	if sp := tr.Sample("seg", 10); sp != nil {
		t.Fatal("disabled tracer returned a span")
	}
	tr.SetSampleEvery(4)
	var sampled int
	for i := 0; i < 40; i++ {
		if sp := tr.Sample("scope/stream/0", 128); sp != nil {
			sampled++
			sp.MarkEnqueued()
			sp.MarkWALAck()
			sp.MarkApplied()
			sp.Finish()
		}
	}
	if sampled != 10 {
		t.Fatalf("sampled %d of 40 at 1/4, want 10", sampled)
	}
	snap := tr.Snapshot()
	if len(snap) != 8 {
		t.Fatalf("ring retained %d spans, want 8 (ring size)", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq <= snap[i-1].Seq {
			t.Fatalf("snapshot not oldest-first: seq %d after %d", snap[i].Seq, snap[i-1].Seq)
		}
	}
	last := snap[len(snap)-1]
	if last.Enqueue > last.WALAck || last.WALAck > last.Apply || last.Apply > last.Reply {
		t.Fatalf("span stages not monotonic: %+v", last)
	}
}

// TestNilSpanMarksAreSafe ensures the unsampled fast path (nil span) can be
// marked unconditionally.
func TestNilSpanMarksAreSafe(t *testing.T) {
	var sp *Span
	sp.MarkEnqueued()
	sp.MarkWALAck()
	sp.MarkApplied()
	sp.Finish()
}

func TestHTTPEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("pravega_http_test_total", "endpoint test").Add(9)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	body, ctype := httpGet(t, "http://"+srv.Addr()+"/metrics")
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content-type = %q", ctype)
	}
	if !strings.Contains(body, "pravega_http_test_total 9") {
		t.Errorf("/metrics missing test series:\n%s", body)
	}

	body, _ = httpGet(t, "http://"+srv.Addr()+"/debug/traces")
	var spans []AppendSpan
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatalf("/debug/traces not valid JSON: %v\n%s", err, body)
	}

	body, _ = httpGet(t, "http://"+srv.Addr()+"/debug/vars")
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not valid JSON: %v", err)
	}
}

func httpGet(t *testing.T, url string) (body, contentType string) {
	t.Helper()
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.Header.Get("Content-Type")
}

// TestSnapshotShape checks the expvar-facing snapshot structure.
func TestSnapshotShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("snap_total", "").Add(3)
	r.Histogram("snap_us", "").Record(42)
	snap := r.Snapshot()
	if v, ok := snap["snap_total"].(float64); !ok || v != 3 {
		t.Fatalf("snap_total = %v", snap["snap_total"])
	}
	hm, ok := snap["snap_us"].(map[string]float64)
	if !ok || hm["count"] != 1 {
		t.Fatalf("snap_us = %v", snap["snap_us"])
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 10_000 {
		t.Fatalf("Counter = %d", c.Value())
	}
}
