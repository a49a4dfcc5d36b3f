// Command perfbench is the repository benchmark. It builds the SF+Slashdot
// dataset at scale=small in-process, serves it from a service.Server behind a
// loopback HTTP listener, drives it only through the client SDK, checks every
// answer, and prints one JSON result as its last line of output:
//
//	bash perfbench/run.sh --workload search_hot --seed 1 --seconds 20 --trace 0
//
// Workloads (closed loops; the request sequence depends only on --seed):
//
//   - search_hot: two clients send Zipf-drawn searches over 64 warmed
//     (Q, region) pairs, so every request is a prepared-cache and region hit
//     and the time goes to the engine search and encoding.
//   - search_cold: one client sends searches whose (Q, k, t) key is never
//     seen before, so each pays the range query, k-core and DAG build.
//   - write_standing: one writer runs rounds of search, single-edge toggle
//     and wait for the standing query's delta, which one SSE subscriber
//     receives; the write path, journal fsync, re-evaluation and push.
//
// Reads and writes never run at the same time, and no workload opens more
// than two client connections. With --trace 0 the run reports the end-to-end
// metrics; with --trace 1 it runs the sequence untraced and then traced,
// replaying each operation's layer calls on a private copy of the network,
// and reports per-layer metrics, with the spans written under .bench_build.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// setupReps is how many times a run sets the system up; setup_s is the
// median. Only the last set-up is measured.
const setupReps = 3

// root is where the benchmark writes: journals while it runs, spans after.
const root = ".bench_build"

var workloadNames = []string{"search_hot", "search_cold", "write_standing"}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	// The server logs standing-query evaluations at info level to the
	// default logger; keep warnings and errors only.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rep, notes, err := bench(context.Background(), o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, n := range notes {
		fmt.Fprintln(stdout, n)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "one of search_hot, search_cold, write_standing")
	fs.Int64Var(&o.seed, "seed", 1, "request-sequence seed")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds per loop")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case !slices.Contains(workloadNames, o.workload):
		return o, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
	case o.seconds < 1 || o.seconds > 60:
		return o, fmt.Errorf("--seconds %d out of range [1, 60]", o.seconds)
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	o.trace = trace == 1
	return o, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setUp starts the server and the workload's clients, generates the keys,
// and warms up; dir holds the mutation journal when the workload writes.
func setUp(ctx context.Context, o options, dir string) (*env, workload, error) {
	journal := ""
	if o.workload == "write_standing" {
		journal = filepath.Join(dir, "journal")
	}
	e, err := startEnv(journal)
	if err != nil {
		return nil, nil, err
	}
	var w workload
	switch o.workload {
	case "search_hot":
		var hw *hotWorkload
		if hw, err = setupHot(ctx, e, o.seed, o.trace); err == nil {
			w = hw
		}
	case "search_cold":
		var cw *coldWorkload
		if cw, err = setupCold(ctx, e, o.seed, o.trace); err == nil {
			w = cw
		}
	case "write_standing":
		var ww *writeWorkload
		if ww, err = setupWrite(ctx, e, o.seed, o.trace, filepath.Join(dir, "replay.journal")); err == nil {
			w = ww
		}
	}
	if err != nil {
		_ = e.close() // the set-up error is the one to report
		return nil, nil, fmt.Errorf("set up %s: %w", o.workload, err)
	}
	return e, w, nil
}

func bench(ctx context.Context, o options) (rep *report, notes []string, err error) {
	work := filepath.Join(root, "work", fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	defer os.RemoveAll(work)
	var (
		e      *env
		w      workload
		setups []float64
	)
	teardown := func() error {
		if w == nil {
			return nil
		}
		werr := w.close()
		eerr := e.close()
		w, e = nil, nil
		return errors.Join(werr, eerr)
	}
	defer func() {
		if terr := teardown(); terr != nil && err == nil {
			err = terr
		}
	}()
	reps := setupReps
	if o.trace {
		reps = 1
	}
	for i := range reps {
		if err := teardown(); err != nil {
			return nil, nil, err
		}
		start := time.Now()
		if e, w, err = setUp(ctx, o, filepath.Join(work, strconv.Itoa(i))); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	dur := time.Duration(o.seconds) * time.Second
	loop := func(tr *tracer) (*result, error) {
		res, err := w.run(ctx, dur, tr)
		if err != nil {
			return nil, err
		}
		// A loop stops early on its own only when a write round failed and
		// left the dataset in an unknown state; that is reported as failed.
		if res.elapsed < dur && res.failed == 0 {
			return nil, fmt.Errorf("request sequence ran out after %v", res.elapsed)
		}
		return res, nil
	}
	notes = append(notes, fmt.Sprintf("workload %s seed %d: %d s per loop, GOMAXPROCS %d, set-ups %.3f s",
		o.workload, o.seed, o.seconds, runtime.GOMAXPROCS(0), setups))

	if !o.trace {
		res, err := loop(nil)
		if err != nil {
			return nil, nil, err
		}
		notes = append(notes, describe("untraced", res)...)
		op := summarize(res.opLat)
		slices.Sort(setups)
		rep = newReport(res)
		rep.Metrics = map[string]metric{
			"ops_per_s":       {res.opsPerSec(), "1/s"},
			"latency_p50_ms":  {op.P50, "ms"},
			"latency_tail_ms": {op.Tail, "ms"},
			"setup_s":         {setups[len(setups)/2], "s"},
			"heap_mb":         {heapMB(), "MiB"},
		}
		return rep, notes, nil
	}

	plain, err := loop(nil)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	traced, err := loop(tr)
	if err != nil {
		return nil, nil, err
	}
	spans := filepath.Join(root, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.write(spans); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	notes = append(notes, describe("untraced", plain)...)
	notes = append(notes, describe("traced", traced)...)
	notes = append(notes, fmt.Sprintf("tracing overhead: %.2f ops/s traced vs %.2f untraced; spans in %s",
		traced.opsPerSec(), plain.opsPerSec(), spans))
	rep = newReport(plain)
	rep.Attempted += traced.attempted
	rep.Failed += traced.failed
	rep.Correct = rep.Failed == 0
	rep.Metrics = layerMetrics(plain, traced, tr.selfMs())
	return rep, notes, nil
}

func newReport(res *result) *report {
	return &report{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed}
}

// layerMetrics turns the traced loop's self times and response counters into
// per-layer figures. Times are per operation (request, or round on
// write_standing), so they add up towards the operation's latency; a layer
// the workload never calls reads 0. client.transport_ms is the SDK latency
// the Server-Timing stages do not cover: the wire and the JSON codecs on both
// ends. standing.push_ms is notify minus ack minus re-evaluation (means); it
// reads below zero when the re-evaluation overlaps the ack's way back. Client
// latencies and the overhead baseline come from the untraced loop.
func layerMetrics(plain, traced *result, self map[string]float64) map[string]metric {
	ops := float64(traced.ops)
	perOp := func(name string) metric { return metric{ratio(self[name], ops), "ms"} }
	s := traced.searches
	perSearch := func(v int64, unit string) metric { return metric{ratio(float64(v), float64(s.n)), unit} }
	st := traced.standing
	eval := ratio(st.evalMs, float64(st.evalN))
	push := 0.0
	if len(traced.writes) > 0 {
		push = mean(traced.opLat) - mean(traced.writes) - eval
	}
	reads, writes := summarize(plain.reads), summarize(plain.writes)
	return map[string]metric{
		"client.transport_ms":         perOp("client.search"),
		"service.queue_ms":            perOp("service.queue"),
		"service.prepare_ms":          perOp("service.prepare"),
		"service.cache_hit_ratio":     perSearch(int64(s.hits), "ratio"),
		"road.range_query_ms":         perOp("road.range_query"),
		"social.kcore_ms":             perOp("social.kcore"),
		"domgraph.build_ms":           perOp("domgraph.build"),
		"mac.dag_arcs":                perSearch(s.arcs, "count"),
		"mac.search_ms":               perOp("mac.search"),
		"mac.cells":                   perSearch(s.cells, "count"),
		"mac.partitions":              perSearch(s.partitions, "count"),
		"mac.hyperplanes":             perSearch(s.hyperplanes, "count"),
		"service.encode_ms":           perOp("service.encode"),
		"service.response_bytes":      perSearch(s.bytes, "bytes"),
		"mutate.apply_ms":             perOp("mutate.apply"),
		"mutate.journal_append_ms":    perOp("mutate.journal_append"),
		"standing.eval_ms":            {eval, "ms"},
		"standing.push_ms":            {push, "ms"},
		"standing.evals_per_notified": {ratio(float64(st.evals), float64(st.notified)), "ratio"},
		"client.read_p50_ms":          {reads.P50, "ms"},
		"client.read_tail_ms":         {reads.Tail, "ms"},
		"client.write_p50_ms":         {writes.P50, "ms"},
		"client.write_tail_ms":        {writes.Tail, "ms"},
		"trace.untraced_ops_per_s":    {plain.opsPerSec(), "1/s"},
		"trace.traced_ops_per_s":      {traced.opsPerSec(), "1/s"},
		"trace.overhead_ratio":        {ratio(plain.opsPerSec(), traced.opsPerSec()), "ratio"},
	}
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// describe renders a loop's series with their sample counts and the
// percentile each tail figure stands for.
func describe(phase string, r *result) []string {
	out := []string{fmt.Sprintf("%s: %d ops in %.3f s (%.2f ops/s), %d attempted, %d failed",
		phase, r.ops, r.elapsed.Seconds(), r.opsPerSec(), r.attempted, r.failed)}
	for _, f := range r.failures {
		out = append(out, "  failure: "+f)
	}
	for _, s := range []struct {
		name string
		xs   []float64
	}{{"op", r.opLat}, {"read", r.reads}, {"write", r.writes}} {
		if len(s.xs) == 0 {
			continue
		}
		m := summarize(s.xs)
		out = append(out, fmt.Sprintf("  %s latency: n=%d p50=%.3f ms p%.2f=%.3f ms max=%.3f ms",
			s.name, m.N, m.P50, m.TailPct, m.Tail, m.Max))
	}
	return out
}

// heapMB is the live heap in MiB after full collections. The second one
// empties the sync.Pool victim caches the first one leaves behind.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
