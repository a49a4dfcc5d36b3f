package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"roadsocial/client"
	"roadsocial/internal/domgraph"
	"roadsocial/internal/geom"
	"roadsocial/internal/mac"
	"roadsocial/internal/mutate"
	"roadsocial/internal/road"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Req; Parent is the ID of the enclosing span, 0 for a root.
type span struct {
	Req    uint64 `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The end-to-end run has
// none; a nil *tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	reqs  uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newReq mints a request identifier.
func (t *tracer) newReq() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// add records a finished span and returns its ID for use as a parent.
func (t *tracer) add(req uint64, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Req: req, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

// open records a span whose end is not known yet; finish sets it.
func (t *tracer) open(req uint64, parent int, name string, start time.Time) int {
	return t.add(req, parent, name, start, start)
}

func (t *tracer) finish(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
}

// timed runs fn inside a span.
func (t *tracer) timed(req uint64, parent int, name string, fn func()) {
	start := time.Now()
	fn()
	t.add(req, parent, name, start, time.Now())
}

// serverStages lays the Server-Timing stages of one response out as
// consecutive child spans from the start of the client span that carried it.
// Their positions are nominal; their durations are the server's. What the
// client span has left over is its self time: the transport.
func (t *tracer) serverStages(req uint64, parent int, start time.Time, stages map[string]float64) {
	at := start
	for _, name := range []string{"queue", "prepare", "search", "encode"} {
		d := time.Duration(stages[name] * float64(time.Millisecond))
		t.add(req, parent, "service."+name, at, at.Add(d))
		at = at.Add(d)
	}
}

// selfMs sums, per span name, each span's duration minus the part of it its
// children cover, in milliseconds.
func (t *tracer) selfMs() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		out[s.Name] += float64(self) / 1e6
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		default:
			curHi = max(curHi, x[1])
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayer repeats each traced request's layer calls on the benchmark's
// private copy of the network, timing each call into a layer's public
// function from outside. It mirrors the server's caching: a request the
// server answered from its prepared cache replays no range query or k-core,
// and a region the handle has already seen replays no DAG build.
type replayer struct {
	mu       sync.Mutex
	net      *mac.Network
	prepared map[string]*replayHandle

	// Write path: the replay's own incremental state and journal.
	st      *mutate.State
	journal *mutate.Journal
}

type replayHandle struct {
	mu      sync.Mutex
	p       *mac.Prepared
	regions map[string]bool
}

func newReplayer(net *mac.Network) *replayer {
	return &replayer{net: net, prepared: make(map[string]*replayHandle)}
}

// enableWrites seeds the replay's incremental state and opens its journal.
func (r *replayer) enableWrites(journalPath string) error {
	j, _, err := mutate.OpenJournal(journalPath, 0)
	if err != nil {
		return err
	}
	r.st = mutate.InitState(r.net.Social, 0)
	r.journal = j
	return nil
}

func (r *replayer) close() error {
	if r.journal == nil {
		return nil
	}
	return r.journal.Close()
}

func keyOf(q []int32, k int, t float64) string {
	return fmt.Sprint(q, k, t)
}

func regionOf(spec *client.RegionSpec) (*geom.Region, error) {
	return geom.NewBox(spec.Lo, spec.Hi)
}

// handle returns the replay's prepared handle for a key, creating it (an
// untraced call) when missing.
func (r *replayer) handle(net *mac.Network, req *client.SearchRequest) (*replayHandle, error) {
	key := keyOf(req.Q, req.K, req.T)
	r.mu.Lock()
	h, ok := r.prepared[key]
	r.mu.Unlock()
	if ok {
		return h, nil
	}
	reg, err := regionOf(req.Region)
	if err != nil {
		return nil, err
	}
	p, err := mac.Prepare(net, &mac.Query{Q: req.Q, K: req.K, T: req.T, Region: reg})
	if err != nil {
		return nil, err
	}
	h = &replayHandle{p: p, regions: make(map[string]bool)}
	r.mu.Lock()
	r.prepared[key] = h
	r.mu.Unlock()
	return h, nil
}

// search replays one search under parent. cacheHit is what the server
// reported for the request.
func (r *replayer) search(tr *tracer, req uint64, parent int, sr *client.SearchRequest, cacheHit bool) error {
	r.mu.Lock()
	net := r.net
	r.mu.Unlock()
	reg, err := regionOf(sr.Region)
	if err != nil {
		return err
	}
	if !cacheHit {
		locs := make([]road.Location, len(sr.Q))
		for i, v := range sr.Q {
			locs[i] = net.Locs[v]
		}
		var dq []float64
		tr.timed(req, parent, "road.range_query", func() {
			dq, err = net.Oracle.QueryDistances(locs, net.Locs, sr.T)
		})
		if err != nil {
			return err
		}
		allowed := make([]bool, len(dq))
		for v, d := range dq {
			allowed[v] = d <= sr.T
		}
		tr.timed(req, parent, "social.kcore", func() {
			net.Social.MaximalConnectedKCore(sr.Q, sr.K, allowed)
		})
	}
	h, err := r.handle(net, sr)
	if err != nil {
		return err
	}
	q := &mac.Query{Q: sr.Q, K: sr.K, T: sr.T, Region: reg}
	rkey := fmt.Sprint(sr.Region.Lo, sr.Region.Hi)
	h.mu.Lock()
	if !h.regions[rkey] {
		members := h.p.Members()
		vecs := make([][]float64, len(members))
		for i, v := range members {
			vecs[i] = net.Social.Attrs(int(v))
		}
		tr.timed(req, parent, "domgraph.build", func() {
			domgraph.Build(reg, members, vecs, 0)
		})
		// Untraced: fills the handle's own region cache, so the traced
		// search below times the engine alone.
		if _, err := h.p.Search(q, mac.SearchOptions{}); err != nil {
			h.mu.Unlock()
			return err
		}
		h.regions[rkey] = true
	}
	h.mu.Unlock()
	tr.timed(req, parent, "mac.search", func() {
		_, err = h.p.Search(q, mac.SearchOptions{})
	})
	return err
}

// mutate replays one op: the copy-on-write apply with incremental
// maintenance, then the fsynced journal append. Prepared handles of the old
// network are dropped, as the server's are.
func (r *replayer) mutate(tr *tracer, req uint64, parent int, op mutate.Op) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var (
		next *mac.Network
		err  error
	)
	tr.timed(req, parent, "mutate.apply", func() {
		next, _, err = mutate.Apply(r.net, r.st, []mutate.Op{op})
	})
	if err != nil {
		return err
	}
	tr.timed(req, parent, "mutate.journal_append", func() {
		err = r.journal.Append([]mutate.Record{{Version: r.st.Version, Op: op}})
	})
	if err != nil {
		return err
	}
	r.net = next
	r.prepared = make(map[string]*replayHandle)
	return nil
}
