package main

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"roadsocial/client"
	"roadsocial/internal/exp"
	"roadsocial/internal/gen"
	"roadsocial/internal/mac"
	"roadsocial/internal/mutate"
	"roadsocial/internal/service"
)

// Workload shape. The key material (query sets, regions, toggle edges) comes
// from keySeed and is the same on every run, like the dataset; --seed draws
// the request sequence over it.
const (
	keySeed = 7

	// search_hot: hotQueries query sets × hotRegions regions each, all warmed
	// before timing. 4 regions per set stay within the per-handle region
	// cache (8), so every timed request is a prepared and region hit.
	hotQueries = 16
	hotRegions = 4
	hotSigma   = 0.004
	hotClients = 2
	// The pairs are ranked in generation order and drawn with Zipf exponent
	// hotZipfS (see zipfSchedule).
	hotZipfS = 1.0
	hotSeq   = 1 << 16

	// search_cold: each request is a never-seen (Q, k, t) key: t is drawn
	// from [t0, t0·(1+coldTSpread)) and never repeated, and (Q, region)
	// cycles through coldQueries query sets × coldRegions narrow regions, in
	// a fresh seeded order each cycle. A few regions cost hundreds of ms of
	// search; cycling keeps their share of every run the same.
	coldQueries = 16
	coldRegions = 4
	coldTSpread = 0.1
	coldSigma   = 0.001
	coldSeq     = 8192

	// write_standing: maxToggles candidate edges, each of whose deletion
	// expels exactly one member of the standing query's community.
	maxToggles  = 8
	writeSeq    = 8192
	notifyLimit = 10 * time.Second
)

// result is what one timed loop measured.
type result struct {
	elapsed   time.Duration
	attempted int
	failed    int
	failures  []string // the first few failure messages
	ops       int      // completed operations: requests, or rounds

	opLat  []float64 // the workload's operation latency, ms
	reads  []float64 // search latency as the SDK sees it, ms
	writes []float64 // mutation ack latency, ms

	searches searchAgg
	standing standingAgg
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) opsPerSec() float64 { return float64(r.ops) / r.elapsed.Seconds() }

// searchAgg sums what the search responses reported.
type searchAgg struct {
	n, hits                              int
	bytes                                int64
	cells, partitions, hyperplanes, arcs int64
}

func (a *searchAgg) add(resp *client.SearchResponse, bytes int64) {
	a.n++
	if resp.Cache == client.CacheHit {
		a.hits++
	}
	a.bytes += bytes
	if s := resp.Stats; s != nil {
		a.cells += int64(s.CellsExplored)
		a.partitions += int64(s.Partitions)
		a.hyperplanes += int64(s.Hyperplanes)
		a.arcs += int64(s.DomGraphArcs)
	}
}

func (a *searchAgg) merge(b searchAgg) {
	a.n += b.n
	a.hits += b.hits
	a.bytes += b.bytes
	a.cells += b.cells
	a.partitions += b.partitions
	a.hyperplanes += b.hyperplanes
	a.arcs += b.arcs
}

// standingAgg is the standing-query work the server reported: batches that
// matched a standing query, re-evaluations, and the re-evaluations' count
// and total time on the keyed latency series.
type standingAgg struct {
	evals, notified, evalN int64
	evalMs                 float64
}

func (a standingAgg) minus(b standingAgg) standingAgg {
	return standingAgg{a.evals - b.evals, a.notified - b.notified, a.evalN - b.evalN, a.evalMs - b.evalMs}
}

// workload is one traffic mix over a started env.
type workload interface {
	// run drives the loop for dur. With a tracer it also records spans and
	// replays each operation's layer calls.
	run(ctx context.Context, dur time.Duration, tr *tracer) (*result, error)
	close() error
}

// searchCall is one search, timed from the moment it was sent to its answer.
type searchCall struct {
	resp  *client.SearchResponse
	ms    float64
	bytes int64
}

func doSearch(ctx context.Context, c *conn, req *client.SearchRequest, tr *tracer, rid uint64, parent int) (*searchCall, error) {
	start := time.Now()
	resp, err := c.sdk.Search(ctx, datasetName, req)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	stages, bytes := c.probe.last()
	if tr != nil {
		id := tr.add(rid, parent, "client.search", start, end)
		tr.serverStages(rid, id, start, stages)
	}
	return &searchCall{resp: resp, ms: msBetween(start, end), bytes: bytes}, nil
}

// searchOp is one closed-loop search: sent, timed, and recorded in r; with a
// tracer, its layer calls are then replayed. It returns the answer for the
// workload's own check, or nil when the request failed.
func searchOp(ctx context.Context, c *conn, req *client.SearchRequest, r *result, tr *tracer, rep *replayer) *client.SearchResponse {
	rid := tr.newReq()
	root := tr.open(rid, 0, "request", time.Now())
	call, err := doSearch(ctx, c, req, tr, rid, root)
	if err != nil {
		r.fail("search: %v", err)
		return nil
	}
	r.ops++
	r.opLat = append(r.opLat, call.ms)
	r.reads = append(r.reads, call.ms)
	r.searches.add(call.resp, call.bytes)
	if tr != nil {
		id := tr.open(rid, root, "replay", time.Now())
		if err := rep.search(tr, rid, id, req, call.resp.Cache == client.CacheHit); err != nil {
			r.fail("replay: %v", err)
		}
		tr.finish(id, time.Now())
		tr.finish(root, time.Now())
	}
	return call.resp
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

// digest fingerprints a search answer: its community and every output cell.
func digest(resp *client.SearchResponse) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, resp.NoCommunity, resp.KTCoreSize, resp.Partitions)
	for _, c := range resp.Cells {
		for _, w := range c.Witness {
			fmt.Fprint(h, math.Float64bits(w), ",")
		}
		fmt.Fprint(h, c.Ranked, ";")
	}
	return h.Sum64()
}

func regionSpec(d int, sigma float64, rng *rand.Rand) *client.RegionSpec {
	r := gen.Region(d, sigma, rng)
	return &client.RegionSpec{Lo: r.Lo, Hi: r.Hi}
}

// queries draws n query sets that admit a (k, t)-core.
func queries(in *exp.Instance, n int, seed int64) ([][]int32, error) {
	qs := gen.Queries(in.Net, exp.DefaultK, in.TDefault, exp.DefaultQSize, n, rand.New(rand.NewSource(seed)))
	if len(qs) < n {
		return nil, fmt.Errorf("found %d of %d feasible query sets", len(qs), n)
	}
	return qs, nil
}

// zipfSchedule returns n draws over m ranks with Zipf weights w_i ∝ i^-s.
// Rank i recurs every 1/w_i draws (a stride schedule), so every stretch of a
// run holds the Zipf mix. The seed sets the phase of each rank drawn at
// least once per seededPeriod draws; rarer ranks start at mid-period, so how
// often they occur depends on the run's length alone. Independent draws, or
// seeded phases on the rare ranks, left the count of the rare, second-long
// pairs to chance, and one draw more or less moved a run by 5-20%.
func zipfSchedule(m, n int, s float64, seed int64) []int32 {
	const seededPeriod = 64
	rng := rand.New(rand.NewSource(seed))
	h := make(strideHeap, m)
	sum := 0.0
	for i := range h {
		h[i].period = math.Pow(float64(i+1), s)
		sum += 1 / h[i].period
	}
	for i := range h {
		h[i].period *= sum
		h[i].next = h[i].period / 2
		if h[i].period <= seededPeriod {
			h[i].next = rng.Float64() * h[i].period
		}
		h[i].rank = int32(i)
	}
	heap.Init(&h)
	out := make([]int32, n)
	for k := range out {
		out[k] = h[0].rank
		h[0].next += h[0].period
		heap.Fix(&h, 0)
	}
	return out
}

type strideEntry struct {
	next, period float64
	rank         int32
}

type strideHeap []strideEntry

func (h strideHeap) Len() int { return len(h) }
func (h strideHeap) Less(i, j int) bool {
	if h[i].next != h[j].next {
		return h[i].next < h[j].next
	}
	return h[i].rank < h[j].rank
}
func (h strideHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *strideHeap) Push(x any)   { *h = append(*h, x.(strideEntry)) }
func (h *strideHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// closedLoop runs clients that each send their next request as soon as the
// previous one is answered, for dur or until limit requests were sent.
// Requests are numbered globally, so the first n requests sent are the
// same n whatever the interleaving. body sends request i on c and records
// into its client's result.
func closedLoop(conns []*conn, dur time.Duration, limit int, body func(c *conn, i int, r *result)) *result {
	var next atomic.Int64
	parts := make([]*result, len(conns))
	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range conns {
		parts[ci] = &result{}
		wg.Add(1)
		go func(c *conn, r *result) {
			defer wg.Done()
			for time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				if i >= limit {
					return
				}
				r.attempted++
				body(c, i, r)
			}
		}(c, parts[ci])
	}
	wg.Wait()
	out := &result{elapsed: time.Since(start)}
	for _, p := range parts {
		out.attempted += p.attempted
		out.failed += p.failed
		out.failures = append(out.failures, p.failures...)
		out.ops += p.ops
		out.opLat = append(out.opLat, p.opLat...)
		out.reads = append(out.reads, p.reads...)
		out.searches.merge(p.searches)
	}
	return out
}

// ---------------------------------------------------------------- search_hot

type hotPair struct {
	req    *client.SearchRequest
	digest uint64
}

type hotWorkload struct {
	conns []*conn
	pairs []hotPair
	seq   []int32
	base  int // sequence offset: a second loop continues where the first stopped
	rep   *replayer
}

func setupHot(ctx context.Context, e *env, seed int64, trace bool) (*hotWorkload, error) {
	in := e.in
	qs, err := queries(in, hotQueries, keySeed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(keySeed))
	w := &hotWorkload{}
	for _, q := range qs {
		for j := 0; j < hotRegions; j++ {
			w.pairs = append(w.pairs, hotPair{req: &client.SearchRequest{
				Q: q, K: exp.DefaultK, T: in.TDefault, Region: regionSpec(in.Net.Social.D(), hotSigma, rng),
			}})
		}
	}
	for i := 0; i < hotClients; i++ {
		w.conns = append(w.conns, dial(e.url))
	}
	for i := range w.pairs {
		call, err := doSearch(ctx, w.conns[0], w.pairs[i].req, nil, 0, 0)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("warm pair %d: %w", i, err)
		}
		w.pairs[i].digest = digest(call.resp)
	}
	w.seq = zipfSchedule(len(w.pairs), hotSeq, hotZipfS, seed)
	if trace {
		w.rep = newReplayer(e.in.Net)
		for _, p := range w.pairs {
			if err := w.rep.search(nil, 0, 0, p.req, false); err != nil {
				w.close()
				return nil, err
			}
		}
	}
	return w, nil
}

func (w *hotWorkload) run(ctx context.Context, dur time.Duration, tr *tracer) (*result, error) {
	res := closedLoop(w.conns, dur, len(w.seq)-w.base, func(c *conn, i int, r *result) {
		pair := w.seq[w.base+i]
		p := w.pairs[pair]
		if resp := searchOp(ctx, c, p.req, r, tr, w.rep); resp != nil {
			if got := digest(resp); got != p.digest {
				r.fail("pair %d: answer digest %x differs from warm-up %x", pair, got, p.digest)
			}
		}
	})
	w.base += res.attempted
	return res, nil
}

func (w *hotWorkload) close() error {
	for _, c := range w.conns {
		c.close()
	}
	return nil
}

// --------------------------------------------------------------- search_cold

type coldKey struct {
	q, region int // indexes into the query sets and regions
	t         float64
}

// coldSequence draws the search_cold keys: every (query set, region) pair
// once per cycle in a seeded order, each with a t from
// [t0, t0·(1+coldTSpread)) that no other key has.
func coldSequence(t0 float64, seed int64) []coldKey {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[float64]bool, coldSeq)
	var seq []coldKey
	for len(seq) < coldSeq {
		for _, c := range rng.Perm(coldQueries * coldRegions) {
			t := t0 * (1 + coldTSpread*rng.Float64())
			for seen[t] {
				t = t0 * (1 + coldTSpread*rng.Float64())
			}
			seen[t] = true
			seq = append(seq, coldKey{q: c / coldRegions, region: c % coldRegions, t: t})
		}
	}
	return seq
}

type coldWorkload struct {
	conn    *conn
	in      *exp.Instance
	qs      [][]int32
	regions []*client.RegionSpec
	seq     []coldKey
	base    int
	rep     *replayer
}

func (w *coldWorkload) request(k coldKey) *client.SearchRequest {
	return &client.SearchRequest{Q: w.qs[k.q], K: exp.DefaultK, T: k.t, Region: w.regions[k.region]}
}

func setupCold(ctx context.Context, e *env, seed int64, trace bool) (*coldWorkload, error) {
	in := e.in
	qs, err := queries(in, coldQueries, keySeed+1)
	if err != nil {
		return nil, err
	}
	w := &coldWorkload{conn: dial(e.url), in: in, qs: qs}
	rng := rand.New(rand.NewSource(keySeed + 1))
	for range coldRegions {
		w.regions = append(w.regions, regionSpec(in.Net.Social.D(), coldSigma, rng))
	}
	w.seq = coldSequence(in.TDefault, seed)
	// Warm the code paths with keys above the sequence's t range, so no
	// timed request repeats them.
	for i := range 4 {
		k := coldKey{q: i % coldQueries, region: i % coldRegions, t: in.TDefault * (1 + coldTSpread) * (1 + 0.01*float64(i+1))}
		if _, err := doSearch(ctx, w.conn, w.request(k), nil, 0, 0); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if trace {
		w.rep = newReplayer(e.in.Net)
	}
	return w, nil
}

func (w *coldWorkload) run(ctx context.Context, dur time.Duration, tr *tracer) (*result, error) {
	type answer struct {
		key    coldKey
		size   int
		noComm bool
	}
	var answers []answer
	res := closedLoop([]*conn{w.conn}, dur, len(w.seq)-w.base, func(c *conn, i int, r *result) {
		k := w.seq[w.base+i]
		if resp := searchOp(ctx, c, w.request(k), r, tr, w.rep); resp != nil {
			answers = append(answers, answer{key: k, size: resp.KTCoreSize, noComm: resp.NoCommunity})
		}
	})
	w.base += res.attempted
	// Check every answer against a direct k-core computation on the
	// benchmark's copy of the network, after the clock has stopped.
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(answers) {
					return
				}
				a := answers[i]
				want, err := mac.KTCore(w.in.Net, w.qs[a.key.q], exp.DefaultK, a.key.t)
				noComm := errors.Is(err, mac.ErrNoCommunity)
				if err != nil && !noComm {
					mu.Lock()
					res.fail("ktcore check: %v", err)
					mu.Unlock()
					continue
				}
				if len(want) != a.size || noComm != a.noComm {
					mu.Lock()
					res.fail("key (q%d, t=%v): ktcore_size %d (no_community %v), direct KTCore %d (no_community %v)",
						a.key.q, a.key.t, a.size, a.noComm, len(want), noComm)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return res, nil
}

func (w *coldWorkload) close() error {
	w.conn.close()
	return nil
}

// ------------------------------------------------------------ write_standing

// toggle is a community edge (u, v) whose deletion expels exactly u.
type toggle struct{ u, v int32 }

// findToggles picks edges (u, v) inside the community members of (q, k, t)
// where u is not a query vertex and has exactly k community neighbours, so
// deleting (u, v) expels u; it keeps those whose deletion, checked by a
// direct k-core computation, expels u and nobody else.
func findToggles(net *mac.Network, q, members []int32, k int, t float64, limit int) ([]toggle, error) {
	in := make(map[int32]bool, len(members))
	for _, v := range members {
		in[v] = true
	}
	cdeg := func(v int32) int {
		c := 0
		for _, w := range net.Social.Neighbors(int(v)) {
			if in[w] {
				c++
			}
		}
		return c
	}
	var out []toggle
	for _, u := range members {
		if slices.Contains(q, u) || cdeg(u) != k {
			continue
		}
		for _, v := range net.Social.Neighbors(int(u)) {
			if !in[v] {
				continue
			}
			g, err := net.Social.WithoutEdge(int(u), int(v))
			if err != nil {
				return nil, err
			}
			cut := *net
			cut.Social = g
			got, err := mac.KTCore(&cut, q, k, t)
			if err != nil {
				continue
			}
			want := slices.DeleteFunc(slices.Clone(members), func(x int32) bool { return x == u })
			if slices.Equal(got, want) {
				out = append(out, toggle{u, v})
				break // one edge per member keeps the expelled members distinct
			}
		}
		if len(out) == limit {
			break
		}
	}
	if len(out) == 0 {
		return nil, errors.New("no member of the standing query can be expelled by one edge deletion")
	}
	return out, nil
}

// writeSequence draws which toggle each pair of write_standing rounds uses.
func writeSequence(toggles int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]int32, writeSeq)
	for i := range seq {
		seq[i] = int32(rng.Intn(toggles))
	}
	return seq
}

type arrival struct {
	ev client.QueryEvent
	at time.Time
}

type writeWorkload struct {
	writer, subConn *conn
	sub             *client.Subscription
	events          chan arrival
	stop            chan struct{}
	forwarded       chan struct{}

	search  *client.SearchRequest
	toggles []toggle
	seq     []int32 // toggle index per pair of rounds
	round   int     // rounds run so far; every loop starts and ends on an even one
	rep     *replayer
}

func setupWrite(ctx context.Context, e *env, seed int64, trace bool, replayJournal string) (w *writeWorkload, err error) {
	in := e.in
	qs, err := queries(in, 1, keySeed+2)
	if err != nil {
		return nil, err
	}
	q, k, t := qs[0], exp.DefaultK, in.TDefault
	members, err := mac.KTCore(in.Net, q, k, t)
	if err != nil {
		return nil, err
	}
	toggles, err := findToggles(in.Net, q, members, k, t, maxToggles)
	if err != nil {
		return nil, err
	}
	w = &writeWorkload{
		writer:  dial(e.url),
		subConn: dial(e.url),
		// Unbuffered: the forwarder stamps arrival before it blocks on the send.
		events:    make(chan arrival),
		stop:      make(chan struct{}),
		forwarded: make(chan struct{}),
		search: &client.SearchRequest{Q: q, K: k, T: t,
			Region: regionSpec(in.Net.Social.D(), coldSigma, rand.New(rand.NewSource(keySeed+3)))},
		toggles: toggles,
	}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	sq, err := w.writer.sdk.CreateStandingQuery(ctx, datasetName, &client.StandingQueryRequest{Q: q, K: k, T: t})
	if err != nil {
		return nil, fmt.Errorf("register standing query: %w", err)
	}
	if !slices.Equal(sq.Members, members) {
		return nil, fmt.Errorf("standing query holds %d members, direct KTCore %d", len(sq.Members), len(members))
	}
	if w.sub, err = w.subConn.sdk.Subscribe(ctx, datasetName, sq.ID, 0); err != nil {
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	go w.forward()

	w.seq = writeSequence(len(toggles), seed)
	// Warm-up: one expel/re-admit pair off the sequence, which also pays the
	// server's lazy InitState at the first mutation.
	for r := range 2 {
		if err := w.doRound(ctx, toggles[0], r%2 == 0, &result{}, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if trace {
		w.rep = newReplayer(in.Net)
		if err := w.rep.enableWrites(replayJournal); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// forward stamps each event's arrival and hands it to the writer.
func (w *writeWorkload) forward() {
	defer close(w.forwarded)
	for ev := range w.sub.Events() {
		a := arrival{ev: ev, at: time.Now()}
		select {
		case w.events <- a:
		case <-w.stop:
			return
		}
	}
}

func (w *writeWorkload) run(ctx context.Context, dur time.Duration, tr *tracer) (*result, error) {
	before, err := standingStats(ctx, w.writer)
	if err != nil {
		return nil, err
	}
	res := &result{}
	start := time.Now()
	for r := 0; ; r++ {
		if r%2 == 0 && time.Since(start) >= dur {
			break
		}
		pair := (w.round + r) / 2
		if pair >= len(w.seq) {
			break
		}
		res.attempted++
		if err := w.doRound(ctx, w.toggles[w.seq[pair]], (w.round+r)%2 == 0, res, tr); err != nil {
			// The dataset is no longer in a known state: stop here.
			res.fail("round %d: %v", w.round+r, err)
			break
		}
	}
	res.elapsed = time.Since(start)
	w.round += res.attempted
	after, err := standingStats(ctx, w.writer)
	if err != nil {
		return nil, err
	}
	res.standing = after.minus(before)
	return res, nil
}

// doRound runs one round: a search on the standing key, one edge toggle, and
// the wait for its delta. expel selects deletion (the member leaves) or
// re-insertion (it rejoins). A wrong answer is counted in res; an error means
// the round could not finish.
func (w *writeWorkload) doRound(ctx context.Context, tg toggle, expel bool, res *result, tr *tracer) error {
	rid := tr.newReq()
	root := tr.open(rid, 0, "round", time.Now())
	call, err := doSearch(ctx, w.writer, w.search, tr, rid, root)
	if err != nil {
		return fmt.Errorf("search: %w", err)
	}
	res.reads = append(res.reads, call.ms)
	res.searches.add(call.resp, call.bytes)
	if tr != nil {
		id := tr.open(rid, root, "replay", time.Now())
		err := w.rep.search(tr, rid, id, w.search, call.resp.Cache == client.CacheHit)
		tr.finish(id, time.Now())
		if err != nil {
			return fmt.Errorf("replay search: %w", err)
		}
	}

	edge := [2]int32{tg.u, tg.v}
	req := &client.MutateRequest{}
	op := mutate.Op{Kind: mutate.InsertEdge, U: tg.u, V: tg.v}
	if expel {
		req.Deletes = [][2]int32{edge}
		op.Kind = mutate.DeleteEdge
	} else {
		req.Inserts = [][2]int32{edge}
	}
	submit := time.Now()
	ack, err := w.writer.sdk.Mutate(ctx, datasetName, req)
	acked := time.Now()
	if err != nil {
		return fmt.Errorf("mutate: %w", err)
	}
	res.writes = append(res.writes, msBetween(submit, acked))
	tr.add(rid, root, "client.mutate", submit, acked)

	var a arrival
	select {
	case a = <-w.events:
	case <-time.After(notifyLimit):
		return fmt.Errorf("no delta within %v of version %d", notifyLimit, ack.Version)
	case <-ctx.Done():
		return ctx.Err()
	}
	res.ops++
	res.opLat = append(res.opLat, msBetween(submit, a.at))
	tr.add(rid, root, "client.notify", submit, a.at)
	ev := a.ev
	var joined, left []int32
	if expel {
		left = []int32{tg.u}
	} else {
		joined = []int32{tg.u}
	}
	if ev.Lagged || ev.Terminal || ev.Version != ack.Version ||
		!slices.Equal(ev.Joined, joined) || !slices.Equal(ev.Left, left) {
		res.fail("toggle %v expel=%v at version %d: event version %d joined %v left %v lagged %v terminal %v",
			edge, expel, ack.Version, ev.Version, ev.Joined, ev.Left, ev.Lagged, ev.Terminal)
	}
	if tr != nil {
		id := tr.open(rid, root, "replay", time.Now())
		err := w.rep.mutate(tr, rid, id, op)
		tr.finish(id, time.Now())
		if err != nil {
			return fmt.Errorf("replay mutate: %w", err)
		}
	}
	tr.finish(root, time.Now())
	return nil
}

// standingStats reads the server's standing-query counters, with the
// re-evaluation time summed over the dataset's standing_eval series.
func standingStats(ctx context.Context, c *conn) (standingAgg, error) {
	st, err := c.sdk.Stats(ctx)
	if err != nil {
		return standingAgg{}, fmt.Errorf("stats: %w", err)
	}
	a := standingAgg{evals: st.StandingEvals, notified: st.StandingNotified}
	for _, ks := range st.DatasetStats {
		if ks.Dataset == datasetName && ks.Route == service.RouteStandingEval {
			a.evalN += ks.Latency.Count
			a.evalMs += ks.Latency.MeanMs * float64(ks.Latency.Count)
		}
	}
	return a, nil
}

func (w *writeWorkload) close() error {
	if w.sub != nil {
		w.sub.Close()
		close(w.stop)
		<-w.forwarded
	}
	w.writer.close()
	w.subConn.close()
	if w.rep != nil {
		return w.rep.close()
	}
	return nil
}
