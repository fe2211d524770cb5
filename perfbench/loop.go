package main

import (
	"bytes"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"time"
)

// benchWriter is the benchmark's own http.ResponseWriter: it keeps the
// response in memory and, in a traced run, stamps the WriteHeader and
// Write seams onto the open op.
type benchWriter struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
	tr   *tracer
}

func (w *benchWriter) Header() http.Header { return w.hdr }

func (w *benchWriter) WriteHeader(code int) {
	w.code = code
	w.tr.wroteHeader()
}

func (w *benchWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.WriteHeader(http.StatusOK)
	}
	w.buf.Write(p)
	w.tr.wrote(len(p))
	return len(p), nil
}

// bodyReader is a reusable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// client is the closed-loop caller. Its request, body reader and writer
// are reused from op to op, so the harness allocates nothing per
// request; the handler runs on the client's goroutine.
type client struct {
	w    benchWriter
	req  http.Request
	body bodyReader
	url  *url.URL
	wins []window // one per second of the measured loop
	rng  uint64   // reservoir sampling stream
	ok   int
	bad  int
}

// window is one second of measured ops: exact counts, the time spent
// checking answers, and a uniform sample of at most reservoirCap
// latencies, so the harness keeps a small, fixed footprint however fast
// the program runs.
type window struct {
	ops, ok int
	check   float64   // seconds
	lat     []float32 // seconds
}

const reservoirCap = 1024

func newClient(tr *tracer, in *inputs, seconds int) *client {
	u, err := url.ParseRequestURI(in.path)
	if err != nil {
		panic(err) // paths are the benchmark's own constants
	}
	c := &client{w: benchWriter{hdr: http.Header{}, tr: tr}, url: u, rng: 1}
	for i := 0; i < seconds; i++ {
		c.wins = append(c.wins, window{lat: make([]float32, 0, reservoirCap)})
	}
	return c
}

// record files a measured op under the second it finished in, keeping
// each window's latencies a uniform sample (reservoir sampling).
func (c *client) record(sec int, lat, check time.Duration, ok bool) {
	for len(c.wins) <= sec {
		c.wins = append(c.wins, window{lat: make([]float32, 0, reservoirCap)})
	}
	w := &c.wins[sec]
	w.ops++
	w.check += check.Seconds()
	if ok {
		w.ok++
		c.ok++
	} else {
		c.bad++
	}
	v := float32(lat.Seconds())
	if len(w.lat) < reservoirCap {
		w.lat = append(w.lat, v)
		return
	}
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	if j := c.rng % uint64(w.ops); j < reservoirCap {
		w.lat[j] = v
	}
}

// serveOp sends one request through the handler and returns how long
// ServeHTTP took. The response is in c.w until the next call.
func (c *client) serveOp(h http.Handler, in *inputs, o op) time.Duration {
	clear(c.w.hdr)
	c.w.code = 0
	c.w.buf.Reset()
	c.body.Reset(o.body)
	c.req = http.Request{
		Method:        in.method,
		URL:           c.url,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        c.req.Header,
		Body:          &c.body,
		ContentLength: int64(len(o.body)),
		Host:          "perfbench",
		RequestURI:    in.path,
	}
	if c.req.Header == nil {
		c.req.Header = http.Header{"Content-Type": {"application/json"}}
	}
	c.w.tr.httpBegin()
	start := time.Now()
	h.ServeHTTP(&c.w, &c.req)
	el := time.Since(start)
	c.w.tr.httpEnd()
	return el
}

// executor runs a workload's ops. send runs op i and returns its
// latency and whether the program answered; check then verifies the
// answer left in c.w. Checks are the harness's work, not the
// program's: their time and allocation are kept out of the metrics.
type executor interface {
	send(c *client, i int) (time.Duration, bool)
	check(c *client, i int) bool
}

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	ops     int
	ok      int
	elapsed float64  // seconds from the first op to the last one's end
	check   float64  // seconds of elapsed spent checking answers
	wins    []window // per second
	alloc   uint64   // heap bytes allocated during the phase, checks included
	// checks counts the phase's checks of cold [0] and warm [1] ops;
	// with measureChecks, checkAlloc is each kind's mean heap bytes.
	checks     [2]int
	checkAlloc [2]float64
}

// busy is the phase's time minus its checks.
func (r loopResult) busy() float64 { return r.elapsed - r.check }

// loopSpec bounds one phase: ops from index first on, for at least dur
// and minOps ops, ending only on a multiple of block ops, and never
// past avail. measureChecks brackets every check with heap statistics
// (each reading stops the world, so only untimed phases do it).
type loopSpec struct {
	first         int
	avail         int
	block         int
	minOps        int
	dur           time.Duration
	measureChecks bool
}

// closedLoop runs the phase on one client: it sends the next op as soon
// as the previous one is answered and checked.
func closedLoop(ex executor, tr *tracer, in *inputs, ls loopSpec) loopResult {
	c := newClient(tr, in, int(ls.dur.Seconds())+2)
	var ms0, ms1, chk0, chk1 runtime.MemStats
	var checkBytes [2]uint64
	var res loopResult
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(ls.dur)
	for i := ls.first; i < ls.avail; i++ {
		k := i - ls.first
		if k%ls.block == 0 && k >= ls.minOps && time.Now().After(deadline) {
			break
		}
		lat, ok := ex.send(c, i)
		var chk time.Duration
		if ok {
			kind := 0
			if in.opAt(i).warm {
				kind = 1
			}
			if ls.measureChecks {
				runtime.ReadMemStats(&chk0)
			}
			t0 := time.Now()
			ok = ex.check(c, i)
			chk = time.Since(t0)
			if ls.measureChecks {
				runtime.ReadMemStats(&chk1)
				checkBytes[kind] += chk1.TotalAlloc - chk0.TotalAlloc
			}
			res.checks[kind]++
		}
		c.record(int(time.Since(start)/time.Second), lat, chk, ok)
	}
	res.elapsed = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	res.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	for kind, n := range res.checks {
		if ls.measureChecks && n > 0 {
			res.checkAlloc[kind] = float64(checkBytes[kind]) / float64(n)
		}
	}
	res.ok, res.ops, res.wins = c.ok, c.ok+c.bad, c.wins
	for _, w := range c.wins {
		res.check += w.check
	}
	return res
}

// minWindowOps is the fewest ops a window may hold. p90 needs ten
// samples beyond it; 500 keeps a run of a few hundred slow ops
// (calibrate) in one pooled window, where its tail is best estimated.
const minWindowOps = 500

// windowStat is one window's throughput and latency quantiles.
type windowStat struct {
	OpsPerS float64 `json:"ops_per_s"`
	P50     float64 `json:"p50_s"`
	P90     float64 `json:"p90_s"`
}

// windows groups the run's seconds into equal windows of at least
// minWindowOps ops each (one second each when the rate allows), and
// returns each window's throughput (ops that passed per second of the
// window not spent checking) and latency p50/p90. A window's latency
// sample merges its seconds' reservoirs, each latency weighted by the
// share of that second's ops it stands for.
func (r loopResult) windows() []windowStat {
	secs := max(1, int(r.elapsed)) // whole seconds; the last window also takes the partial one
	n := max(1, min(secs, r.ops/minWindowOps))
	out := make([]windowStat, 0, n)
	for g := 0; g < n; g++ {
		lo, hi := g*secs/n, (g+1)*secs/n
		dur := float64(hi - lo)
		if g == n-1 {
			hi = math.MaxInt
			dur = r.elapsed - float64(lo)
		}
		ok := 0
		var lat []weighted
		for s := lo; s < min(hi, len(r.wins)); s++ {
			w := &r.wins[s]
			ok += w.ok
			dur -= w.check
			wt := float64(w.ops) / float64(max(1, len(w.lat)))
			for _, v := range w.lat {
				lat = append(lat, weighted{float64(v), wt})
			}
		}
		out = append(out, windowStat{float64(ok) / dur, weightedQuantile(lat, 0.5), weightedQuantile(lat, 0.9)})
	}
	return out
}

type weighted struct{ v, w float64 }

// weightedQuantile returns the smallest value whose cumulative weight
// reaches q of the total.
func weightedQuantile(xs []weighted, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(a, b int) bool { return xs[a].v < xs[b].v })
	total := 0.0
	for _, x := range xs {
		total += x.w
	}
	acc := 0.0
	for _, x := range xs {
		acc += x.w
		if acc >= q*total {
			return x.v
		}
	}
	return xs[len(xs)-1].v
}
