package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"

	"roadsocial/client"
	"roadsocial/internal/exp"
	"roadsocial/internal/road"
	"roadsocial/internal/service"
)

// The dataset every workload runs on. Its generator seed is fixed, so the
// network is the same on every run; --seed only draws the requests.
const (
	datasetSpec = "SF+Slashdot"
	datasetName = "sf-slashdot"
	datasetSeed = 1
)

// buildNetwork materializes the benchmark dataset with its G-tree oracle.
func buildNetwork() (*exp.Instance, error) {
	spec, err := exp.DatasetByName(datasetSpec)
	if err != nil {
		return nil, err
	}
	in, err := spec.Build(exp.Small, exp.DefaultD, datasetSeed)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", datasetSpec, err)
	}
	in.Net.Oracle = road.BuildGTree(in.Net.Road, 0)
	return in, nil
}

// env is one set-up of the system under test: a service.Server holding its
// own build of the dataset behind a loopback HTTP listener, plus the
// benchmark's private build of the same network, which the output checks and
// the traced replay use so that they never share state with the server.
type env struct {
	in     *exp.Instance // the benchmark's copy
	srv    *service.Server
	hs     *http.Server
	served chan error
	url    string
	dir    string // mutation journal directory; "" when writes are off
}

// startEnv builds both copies of the dataset and starts the server. A
// non-empty dir turns the mutation journal on.
func startEnv(dir string) (*env, error) {
	served, err := buildNetwork()
	if err != nil {
		return nil, err
	}
	in, err := buildNetwork()
	if err != nil {
		return nil, err
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	srv := service.New(service.Config{MutationLogDir: dir})
	if err := srv.AddDataset(datasetName, served.Net); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &env{
		in:     in,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		dir:    dir,
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// close stops the listener, waits for it, and drops the dataset so a later
// set-up in the same process does not keep this one's memory alive.
func (e *env) close() error {
	err := e.hs.Close()
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if rerr := e.srv.RemoveDataset(datasetName); rerr != nil && err == nil {
		err = rerr
	}
	if e.dir != "" {
		if rerr := os.RemoveAll(e.dir); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// conn is one client connection: an SDK client over a transport limited to a
// single TCP connection. Its probe records what the SDK does not return: the
// Server-Timing header and the size of the last response body.
type conn struct {
	sdk   *client.Client
	probe *probe
	tr    *http.Transport
}

func dial(url string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	p := &probe{rt: tr}
	// No retries: a failed request is a failure of the run, not something to
	// paper over.
	sdk := client.New(url, client.WithHTTPClient(&http.Client{Transport: p}), client.WithRetries(0))
	return &conn{sdk: sdk, probe: p, tr: tr}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// probe is a RoundTripper that remembers the last response's Server-Timing
// header and counts its body bytes. Each conn is used by one goroutine at a
// time; the mutex orders the SDK's reads against the benchmark's.
type probe struct {
	rt     http.RoundTripper
	mu     sync.Mutex
	timing string
	bytes  int64
}

func (p *probe) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := p.rt.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.timing = resp.Header.Get(client.HeaderServerTiming)
	p.bytes = 0
	p.mu.Unlock()
	resp.Body = &countingBody{ReadCloser: resp.Body, p: p}
	return resp, nil
}

// last returns the Server-Timing stages (ms by stage name) and body size of
// the most recent response.
func (p *probe) last() (map[string]float64, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return parseServerTiming(p.timing), p.bytes
}

type countingBody struct {
	io.ReadCloser
	p *probe
}

func (b *countingBody) Read(buf []byte) (int, error) {
	n, err := b.ReadCloser.Read(buf)
	b.p.mu.Lock()
	b.p.bytes += int64(n)
	b.p.mu.Unlock()
	return n, err
}

// Close drains what the JSON decoder left unread (the trailing newline), so
// the byte count is the whole body and the connection can be reused.
func (b *countingBody) Close() error {
	_, _ = io.Copy(io.Discard, b)
	return b.ReadCloser.Close()
}

// parseServerTiming reads "queue;dur=0.012, prepare;dur=3.1, ..." into a map.
func parseServerTiming(h string) map[string]float64 {
	out := make(map[string]float64, 4)
	for _, part := range strings.Split(h, ",") {
		name, params, ok := strings.Cut(strings.TrimSpace(part), ";")
		if !ok {
			continue
		}
		for _, kv := range strings.Split(params, ";") {
			if v, ok := strings.CutPrefix(strings.TrimSpace(kv), "dur="); ok {
				if f, err := strconv.ParseFloat(v, 64); err == nil {
					out[name] = f
				}
			}
		}
	}
	return out
}
