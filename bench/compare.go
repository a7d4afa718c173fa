package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// benchmarkFile is BENCHMARK.json, the contract the driver checks.
type benchmarkFile struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// readDocuments reads a result file: one document per line, as -out writes.
func readDocuments(path string) ([]document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []document
	dec := json.NewDecoder(f)
	for {
		var d document
		if err := dec.Decode(&d); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		docs = append(docs, d)
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("%s: no result documents", path)
	}
	return docs, nil
}

// valuesOf collects one metric of one workload across a result set.
func valuesOf(docs []document, workload, name string) []float64 {
	var out []float64
	for _, d := range docs {
		for _, r := range d.Results {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// verdict applies one bound to a metric's two value sets. A set's spread is
// the distance between its quartiles as a share of its median; when either
// spread exceeds the bound the comparison cannot resolve a change of the
// bound's size and says so instead of "within".
func verdict(a, b []float64, lower bool, bound float64) (string, float64) {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	change := ratio(mb-ma, ma) // positive = b larger
	worse := change
	if !lower {
		worse = -change
	}
	switch {
	case ratio(q3a-q1a, ma) > bound || ratio(q3b-q1b, mb) > bound:
		return "unresolved", worse
	case worse > bound:
		return "worse", worse
	}
	return "within", worse
}

// runCompare prints one row per gated metric and workload present in both
// files and returns the exit code: 1 when any row is worse, else 0. There
// is no combined score.
func runCompare(pathA, pathB string, w io.Writer) int {
	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		fatal(err)
	}
	a, err := readDocuments(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readDocuments(pathB)
	if err != nil {
		fatal(err)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbound\ta median [q1, q3] (n)\tb median [q1, q3] (n)\tworse by\tverdict")
	code := 0
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := valuesOf(a, wl.Name, m.Name), valuesOf(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worse := verdict(va, vb, m.Better == "lower", m.Bound)
			if v == "worse" {
				code = 1
			}
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			fmt.Fprintf(tw, "%s\t%s\t%.0f%%\t%.5g [%.5g, %.5g] (%d)\t%.5g [%.5g, %.5g] (%d)\t%+.1f%%\t%s\n",
				wl.Name, m.Name, 100*m.Bound, ma, q1a, q3a, len(va), mb, q1b, q3b, len(vb), 100*worse, v)
		}
	}
	if err := tw.Flush(); err != nil {
		fatal(err)
	}
	return code
}
