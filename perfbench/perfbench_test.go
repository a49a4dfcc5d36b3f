package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestSummarizeExactOrderStatistics(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // 40..1, unsorted on purpose
	}
	s := summarize(xs)
	// Nearest rank: p50 of 1..40 is the 20th value; the tail is the 30th,
	// with exactly 10 samples above it, i.e. p75.
	if s.N != 40 || s.P50 != 20 || s.Tail != 30 || s.TailPct != 75 || s.Max != 40 {
		t.Fatalf("summarize(1..40) = %+v", s)
	}
	if xs[0] != 40 {
		t.Fatal("summarize reordered its input")
	}
	// With no more than 10 samples there is no percentile with 10 beyond it:
	// the tail is the maximum.
	if s := summarize([]float64{3, 1, 2}); s.Tail != 3 || s.TailPct != 100 || s.P50 != 2 {
		t.Fatalf("summarize(3 samples) = %+v", s)
	}
	// A truncating index (s[int(q*(n-1))]) would read 99 here and drop the
	// tail; nearest rank keeps the maximum in view.
	many := make([]float64, 100)
	for i := range many {
		many[i] = float64(i + 1)
	}
	if s := summarize(many); s.Max != 100 || s.Tail != 90 || s.P50 != 50 {
		t.Fatalf("summarize(1..100) = %+v", s)
	}
}

func TestSameSeedSameSequence(t *testing.T) {
	hot := zipfSchedule(64, 5000, hotZipfS, 3)
	if !slices.Equal(hot, zipfSchedule(64, 5000, hotZipfS, 3)) {
		t.Fatal("search_hot: the same seed drew different sequences")
	}
	if slices.Equal(hot, zipfSchedule(64, 5000, hotZipfS, 4)) {
		t.Fatal("search_hot: different seeds drew the same sequence")
	}
	// Every stretch holds the Zipf mix: rank 1 appears H_64 ≈ 4.74 times
	// less often than once per request, rank 64 once every ~303.
	counts := make([]int, 64)
	for _, r := range hot[:3030] {
		counts[r]++
	}
	if counts[0] < 635 || counts[0] > 645 || counts[63] < 9 || counts[63] > 11 {
		t.Fatalf("search_hot: rank 1 drawn %d times, rank 64 %d times in 3030 draws", counts[0], counts[63])
	}

	cold := coldSequence(2500, 3)
	if !slices.Equal(cold, coldSequence(2500, 3)) {
		t.Fatal("search_cold: the same seed drew different sequences")
	}
	if slices.Equal(cold, coldSequence(2500, 4)) {
		t.Fatal("search_cold: different seeds drew the same sequence")
	}
	seen := make(map[float64]bool)
	for _, k := range cold {
		if seen[k.t] {
			t.Fatalf("search_cold: t=%v repeats, so a key would be seen twice", k.t)
		}
		seen[k.t] = true
	}

	if !slices.Equal(writeSequence(8, 3), writeSequence(8, 3)) {
		t.Fatal("write_standing: the same seed drew different sequences")
	}
}

// limitedRun runs a workload for exactly the first n requests of its
// sequence, with or without tracing.
func limitedRun(t *testing.T, w workload, n int, tr *tracer) *result {
	t.Helper()
	switch w := w.(type) {
	case *hotWorkload:
		w.seq, w.base = w.seq[:n], 0
	case *coldWorkload:
		w.seq, w.base = w.seq[:n], 0
	}
	res, err := w.run(context.Background(), time.Hour, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.ops != n {
		t.Fatalf("%d of %d requests completed, %d failed: %v", res.ops, n, res.failed, res.failures)
	}
	return res
}

func startWorkload(t *testing.T, name string, trace bool) workload {
	t.Helper()
	e, w, err := setUp(context.Background(), options{workload: name, seed: 5, trace: trace}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := w.close(); err != nil {
			t.Error(err)
		}
		if err := e.close(); err != nil {
			t.Error(err)
		}
	})
	return w
}

// The workloads exercise the layers they claim: search_hot never prepares,
// search_cold always does.
func TestCacheHitRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the server on the full dataset")
	}
	for _, c := range []struct {
		workload string
		want     float64
	}{{"search_hot", 1}, {"search_cold", 0}} {
		res := limitedRun(t, startWorkload(t, c.workload, false), 40, nil)
		if got := float64(res.searches.hits) / float64(res.searches.n); got != c.want {
			t.Errorf("%s: service.cache_hit_ratio = %v, want exactly %v", c.workload, got, c.want)
		}
	}
}

func TestTracedEffortCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the server on the full dataset")
	}
	var runs []map[string]metric
	for range 2 {
		w := startWorkload(t, "search_cold", true)
		tr := newTracer()
		res := limitedRun(t, w, 30, tr)
		runs = append(runs, layerMetrics(res, res, tr.selfMs()))
	}
	for _, name := range []string{"mac.dag_arcs", "mac.cells", "mac.partitions", "mac.hyperplanes"} {
		a, b := runs[0][name].Value, runs[1][name].Value
		if a != b || a == 0 && name == "mac.dag_arcs" {
			t.Errorf("%s: traced runs report %v and %v", name, a, b)
		}
	}
}

// One run of each mode prints exactly the metrics BENCHMARK.json declares,
// and checks its outputs.
func TestReportMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	for _, c := range []struct {
		trace string
		want  []struct{ Name, Unit string }
	}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
		var out, errOut strings.Builder
		code := run([]string{"--workload", "write_standing", "--seed", "2", "--seconds", "1", "--trace", c.trace}, &out, &errOut)
		if code != 0 {
			t.Fatalf("--trace %s: exit %d: %s\n%s", c.trace, code, errOut.String(), out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Attempted == 0 || rep.Failed != 0 {
			t.Fatalf("--trace %s: %+v", c.trace, rep)
		}
		var got, want []string
		for name, m := range rep.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, m := range c.want {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Errorf("--trace %s: metrics %v, BENCHMARK.json declares %v", c.trace, got, want)
		}
	}
}
