package pravega_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/obs"
	"github.com/pravega-go/pravega/internal/role"
	"github.com/pravega-go/pravega/pkg/pravega"
)

// TestMetricsEndpointSmoke starts a system with the observability endpoint,
// runs a write/read workload, scrapes /metrics and asserts every
// instrumented layer exports non-zero series.
func TestMetricsEndpointSmoke(t *testing.T) {
	// The append tracer is process-wide, as cmd/pravega-server's
	// -trace-sample sets it.
	obs.AppendTraces().SetSampleEvery(8)
	defer obs.AppendTraces().SetSampleEvery(0)
	sys, err := pravega.NewInProcess(pravega.SystemConfig{
		Cluster:     role.ClusterConfig{Coord: role.CoordConfig{Stores: 2, Containers: 2}},
		MetricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	addr := sys.MetricsAddr()
	if addr == "" {
		t.Fatal("MetricsAddr empty after configuring an endpoint")
	}

	if err := sys.Streams().CreateScope(context.Background(), "obs"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Streams().Create(context.Background(), pravega.StreamConfig{Scope: "obs", Name: "s", InitialSegments: 2}); err != nil {
		t.Fatal(err)
	}
	w, err := sys.NewWriter(pravega.WriterConfig{Scope: "obs", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		w.WriteEvent(fmt.Sprintf("key-%d", i%11), []byte(fmt.Sprintf("event-%04d", i)))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rg, err := sys.NewReaderGroup("rg", "obs", "s")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for n := 0; n < 500; n++ {
		if _, err := r.ReadNextEvent(2 * time.Second); err != nil {
			t.Fatalf("read %d: %v", n, err)
		}
	}

	body := scrape(t, "http://"+addr+"/metrics")

	// Every layer must export, and the workload must have moved the needle.
	for _, series := range []string{
		"pravega_segstore_queue_depth",
		"pravega_segstore_frame_ops",
		"pravega_segstore_apply_us_count",
		"pravega_segstore_append_bytes_total",
		"pravega_wal_appends_total",
		"pravega_wal_append_us_count",
		"pravega_readindex_lookups_total",
		"pravega_blockcache_hits_total",
		"pravega_blockcache_used_bytes",
		"pravega_client_events_written_total",
		"pravega_client_events_read_total",
		"pravega_client_write_rtt_us_count",
		"pravega_client_batch_fill_pct_count",
		"pravega_client_rebalances_total",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing series %s", series)
			continue
		}
	}
	for _, nonZero := range []string{
		"pravega_segstore_frame_ops_count",
		"pravega_wal_appends_total",
		"pravega_readindex_lookups_total",
		"pravega_client_events_written_total",
		"pravega_client_events_read_total",
	} {
		v, ok := seriesValue(body, nonZero)
		if !ok {
			t.Errorf("/metrics has no parsable value for %s", nonZero)
			continue
		}
		if v <= 0 {
			t.Errorf("%s = %v, want > 0 after workload", nonZero, v)
		}
	}

	// Sampled spans should have been collected at 1/8 over 500 appends.
	traces := scrape(t, "http://"+addr+"/debug/traces")
	if !strings.Contains(traces, `"segment"`) {
		t.Errorf("/debug/traces has no spans after sampled workload: %s", truncate(traces, 200))
	}
}

// scrape GETs a URL and returns the body.
func scrape(t *testing.T, url string) string {
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
	return string(b)
}

// seriesValue extracts the first sample value of an exact series name from
// Prometheus text exposition.
func seriesValue(body, name string) (float64, bool) {
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(?:\{[^}]*\})? (-?[0-9.e+-]+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
