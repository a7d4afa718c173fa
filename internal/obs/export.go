package obs

import (
	"bufio"
	"fmt"
	"io"
)

// histQuantiles are the percentiles exported for every histogram series.
var histQuantiles = []struct {
	q     float64
	label string
}{
	{0.50, "0.5"},
	{0.95, "0.95"},
	{0.99, "0.99"},
	{0.999, "0.999"},
}

// WritePrometheus renders every series in Prometheus text exposition
// format (version 0.0.4). Histograms are exported as summaries: quantile
// series plus _sum and _count, all computed from the lock-free HDR
// histogram, so a scrape never blocks a recording hot path.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var prevName string
	for _, s := range r.sorted() {
		if s.name != prevName {
			prevName = s.name
			if s.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", s.name, s.help)
			}
			typ := "gauge"
			switch s.kind {
			case kindCounter:
				typ = "counter"
			case kindHistogram:
				typ = "summary"
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", s.name, typ)
		}
		if s.kind == kindHistogram {
			writeHistogram(bw, s)
			continue
		}
		fmt.Fprintf(bw, "%s%s %s\n", s.name, s.labels, formatFloat(s.value()))
	}
	return bw.Flush()
}

// writeHistogram emits one histogram series as a Prometheus summary.
func writeHistogram(w io.Writer, s *series) {
	h := s.hist
	for _, q := range histQuantiles {
		fmt.Fprintf(w, "%s%s %d\n", s.name, mergeLabels(s.labels, `quantile="`+q.label+`"`), h.Quantile(q.q))
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", s.name, s.labels, formatFloat(float64(h.Sum())))
	fmt.Fprintf(w, "%s_count%s %d\n", s.name, s.labels, h.Count())
}

// mergeLabels splices an extra label into an already rendered label set.
func mergeLabels(rendered, extra string) string {
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

// formatFloat renders a value the way Prometheus clients expect: integers
// without a decimal point, everything else in shortest-form scientific or
// fixed notation.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
