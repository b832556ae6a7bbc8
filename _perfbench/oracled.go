package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"econcast/internal/model"
	"econcast/internal/oracle"
	"econcast/internal/rng"
	"econcast/internal/serve"
	"econcast/internal/topology"
)

// oracledSize is the oracled-mix traffic shape.
type oracledSize struct {
	pool    int     // distinct hit fleets, warmed during setup
	openN   int     // open-loop requests
	rate    float64 // open-loop requests per second
	closedN int     // closed-loop requests
}

var oracledFull = oracledSize{pool: 64, openN: 3000, rate: 1000, closedN: 12000}

const (
	classHit = iota
	classMiss
	classBounds
	numClasses
)

var classNames = [numClasses]string{"hit", "miss", "bounds"}

// mixReq is one generated request and its traffic class.
type mixReq struct {
	class int
	req   *serve.Request
}

const oracledSeedDomain = 0x6f72636c // "orcl"

// cliqueFleet draws a heterogeneous fleet of lo..hi nodes with rho in
// [5,50] uW and L, X in [300,700] uW.
func cliqueFleet(src *rng.Source, lo, hi int) []serve.NodeSpec {
	n := lo + src.Intn(hi-lo+1)
	nodes := make([]serve.NodeSpec, n)
	for i := range nodes {
		nodes[i] = serve.NodeSpec{
			Budget:   src.Uniform(5, 50) * model.MicroWatt,
			Listen:   src.Uniform(300, 700) * model.MicroWatt,
			Transmit: src.Uniform(300, 700) * model.MicroWatt,
		}
	}
	return nodes
}

func missRequest(src *rng.Source) *serve.Request {
	return &serve.Request{Objective: serve.ObjGroupput, Nodes: cliqueFleet(src, 8, 16)}
}

func boundsRequest(src *rng.Source) *serve.Request {
	return &serve.Request{Objective: serve.ObjBounds, Nodes: cliqueFleet(src, 16, 64), Topology: &serve.TopoSpec{Kind: "ring"}}
}

// genMix builds every request of a repeat from the seed: the warm-up
// pool first, then the open-loop and closed-loop requests drawn 80%
// hit, 15% miss, 5% bounds.
func genMix(seed uint64, sz oracledSize) []mixReq {
	src := rng.New(rng.DeriveSeed(seed, oracledSeedDomain))
	all := make([]mixReq, 0, sz.pool+sz.openN+sz.closedN)
	for i := 0; i < sz.pool; i++ {
		all = append(all, mixReq{class: classHit, req: missRequest(src)})
	}
	for i := 0; i < sz.openN+sz.closedN; i++ {
		switch u := src.Float64(); {
		case u < 0.80:
			all = append(all, mixReq{class: classHit, req: all[src.Intn(sz.pool)].req})
		case u < 0.95:
			all = append(all, mixReq{class: classMiss, req: missRequest(src)})
		default:
			all = append(all, mixReq{class: classBounds, req: boundsRequest(src)})
		}
	}
	return all
}

// spanHeader carries "<span id> <request id>" from the traced client to
// the handler middleware, so handler spans join their request's trace.
const spanHeader = "X-Perfbench-Span"

type spanRefKey struct{}

// spanTransport stamps the request's span reference on the wire.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(spanRefKey{}).(string); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, ref)
	}
	return t.base.RoundTrip(r)
}

// oracled is an in-process oracled on a loopback listener, configured
// with cmd/oracled's flag defaults and a persistent cache in a fresh
// temporary directory.
type oracled struct {
	dir     string
	solver  *serve.Solver
	server  *serve.Server
	srv     *http.Server
	served  chan error
	base    *http.Transport
	clients []*serve.Client

	// handlerNs[req] is the traced handler time of request req.
	handlerNs []atomic.Int64
}

func startOracled(tr *tracer, parent int64, requests, workers int) (*oracled, error) {
	dir, err := os.MkdirTemp("", "perfbench-oracled-")
	if err != nil {
		return nil, err
	}
	o := &oracled{dir: dir, served: make(chan error, 1)}
	tr.do("serve.NewSolver", parent, func(int64) {
		o.solver, err = serve.NewSolver(serve.SolverConfig{CacheDir: dir, MaxSolve: 5 * time.Second})
	})
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	o.server = serve.NewServer(serve.Config{
		Solver:         o.solver,
		MaxInflight:    16,
		MaxQueue:       64,
		DefaultTimeout: 10 * time.Second,
		Seed:           1,
	})
	handler := o.server.Handler()
	if tr != nil {
		o.handlerNs = make([]atomic.Int64, requests)
		handler = o.timed(tr, handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = o.solver.Close()
		_ = os.RemoveAll(dir)
		return nil, err
	}
	o.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	go func() { o.served <- o.srv.Serve(ln) }()

	o.base = &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers}
	var rt http.RoundTripper = o.base
	if tr != nil {
		rt = spanTransport{base: o.base}
	}
	hc := &http.Client{Transport: rt}
	for w := 0; w < workers; w++ {
		o.clients = append(o.clients, serve.NewClient(serve.ClientConfig{
			BaseURL:    "http://" + ln.Addr().String(),
			Attempts:   1, // a refusal is a failure, never retried away
			HTTPClient: hc,
		}))
	}
	return o, nil
}

// timed wraps the server's handler in a span per request.
func (o *oracled) timed(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var parent, req int64
		if ref := r.Header.Get(spanHeader); ref != "" {
			p, q, _ := strings.Cut(ref, " ")
			parent, _ = strconv.ParseInt(p, 10, 64)
			req, _ = strconv.ParseInt(q, 10, 64)
		}
		id, start := tr.begin()
		t0 := time.Now()
		h.ServeHTTP(w, r)
		if req >= 0 && req < int64(len(o.handlerNs)) {
			o.handlerNs[req].Store(int64(time.Since(t0)))
		}
		tr.end(id, parent, req, "serve.handler", start)
	})
}

// stop shuts the server down, waits for it, and removes the cache.
func (o *oracled) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := o.srv.Shutdown(ctx)
	if serr := <-o.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	o.base.CloseIdleConnections()
	err = errors.Join(err, o.solver.Close(), os.RemoveAll(o.dir))
	return err
}

// oracledRun holds one repeat's requests and what came back.
type oracledRun struct {
	all   []mixReq
	resps []*serve.Response
	errs  []error
	tr    *tracer
	root  int64
}

func newOracledRun(seed uint64, sz oracledSize, tr *tracer) *oracledRun {
	all := genMix(seed, sz)
	return &oracledRun{all: all, resps: make([]*serve.Response, len(all)), errs: make([]error, len(all)), tr: tr}
}

// send issues request i on worker w's connection.
func (r *oracledRun) send(o *oracled, w, i int) error {
	ctx := context.Background()
	id, start := r.tr.begin()
	if r.tr != nil {
		ctx = context.WithValue(ctx, spanRefKey{}, fmt.Sprintf("%d %d", id, i))
	}
	r.resps[i], r.errs[i] = o.clients[w].Solve(ctx, r.all[i].req)
	r.tr.end(id, r.root, int64(i), "loadgen."+classNames[r.all[i].class], start)
	return r.errs[i]
}

// setupOracled opens the solver, starts the server and warms the hit
// pool into the solver's cache. It returns the server and the setup
// wall time. The pool goes straight to the solver, as a batch run over
// the same cache directory would fill it: through HTTP, set-up would be
// 64 sequential round trips, whose wake-up latencies made its time
// swing by more than half between runs on a busy host.
func setupOracled(sz oracledSize, run *oracledRun, workers int) (*oracled, float64, error) {
	t0 := time.Now()
	o, err := startOracled(run.tr, run.root, len(run.all), workers)
	if err != nil {
		return nil, 0, err
	}
	ctx := context.Background()
	for i := 0; i < sz.pool; i++ {
		// Checked with every other answer.
		run.tr.do("serve.Solve", run.root, func(int64) { run.resps[i], run.errs[i] = o.solver.Solve(ctx, run.all[i].req) })
	}
	return o, time.Since(t0).Seconds(), nil
}

// runOracled is one oracled-mix repeat: setup, an open loop at a fixed
// rate, then a closed loop at nproc connections.
func runOracled(sz oracledSize, seed uint64, tr *tracer) *result {
	res := newResult()
	workers := runtime.NumCPU()
	run := newOracledRun(seed, sz, tr)
	var rootStart int64
	run.root, rootStart = tr.begin()
	memo0 := oracle.CacheStatsSnapshot()

	o, setup, err := setupOracled(sz, run, workers)
	if err != nil {
		res.Ops++
		res.fail("oracled setup: %v", err)
		return res
	}
	res.SetupS = setup
	openAt := sz.pool
	closedAt := openAt + sz.openN
	interval := time.Duration(float64(time.Second) / sz.rate)
	open := openLoop(sz.openN, interval, workers, func(w, i int) error { return run.send(o, w, openAt+i) })
	c0 := cpuSeconds()
	closed, closedWall := closedLoop(sz.closedN, workers, func(w, i int) error { return run.send(o, w, closedAt+i) })
	res.WallS, res.CPUS = closedWall.Seconds(), cpuSeconds()-c0
	stats := o.server.StatsSnapshot()
	memo1 := oracle.CacheStatsSnapshot()

	res.Ops += len(run.all)
	for _, msg := range checkOracled(run.all, run.resps, run.errs) {
		res.fail("%s", msg)
	}

	var all []float64
	var byClass [numClasses][]float64
	for i, s := range open {
		ms := s.latency().Seconds() * 1e3
		all = append(all, ms)
		c := run.all[openAt+i].class
		byClass[c] = append(byClass[c], ms)
	}
	n := res.Named
	n["p50_ms"] = median(all)
	n["p99_ms"] = percentile(all, 0.99)
	for c, xs := range byClass {
		n[classNames[c]+"_p50_ms"] = median(xs)
	}
	n["capacity_rps"] = float64(sz.closedN) / closedWall.Seconds()
	late := make([]float64, len(open))
	for i, s := range open {
		late[i] = s.late().Seconds() * 1e3
	}
	n["late_p99_ms"] = percentile(late, 0.99)

	if tr != nil {
		oracledLayers(res, run, o, stats, memo0, memo1, open, openAt, closed, closedWall, workers, seed)
	}
	if err := o.stop(); err != nil {
		res.fail("oracled shutdown: %v", err)
	}
	tr.end(run.root, 0, 0, "bench.oracled-mix", rootStart)
	return res
}

// oracledLayers fills the traced per-layer metrics: handler and
// transport time per class, the server's counters, and direct calls
// into the solver and the oracle for the residuals.
func oracledLayers(res *result, run *oracledRun, o *oracled, st serve.Stats, memo0, memo1 oracle.CacheStats,
	open []shot, openAt int, closed []shot, closedWall time.Duration, workers int, seed uint64) {
	l := res.Layer
	var handler, transport [numClasses][]float64
	for i, s := range open {
		req := openAt + i
		h := float64(o.handlerNs[req].Load()) / 1e3
		c := run.all[req].class
		handler[c] = append(handler[c], h)
		transport[c] = append(transport[c], float64(s.end-s.start)/1e3-h)
	}
	for c := range handler {
		l["serve."+classNames[c]+"_handler_us"] = median(handler[c])
		l["serve."+classNames[c]+"_transport_us"] = median(transport[c])
	}
	busy := 0.0
	for _, s := range closed {
		busy += (s.end - s.start).Seconds()
	}
	l["residual.oracled_s"] = float64(workers)*closedWall.Seconds() - busy
	l["loadgen.late_p99_ms"] = res.Named["late_p99_ms"]

	sv := st.Solver
	l["serve.hit_frac"] = float64(sv.Cached) / float64(sv.Exact+sv.Cached+sv.Degraded)
	l["serve.exact"] = float64(sv.Exact)
	l["serve.cached"] = float64(sv.Cached)
	l["serve.degraded"] = float64(sv.Degraded)
	l["serve.coalesced"] = float64(sv.Coalesced)
	l["serve.sheds"] = float64(st.Sheds)
	l["serve.queue_rejects"] = float64(st.QueueRejects)
	l["serve.disk_puts"] = float64(sv.DiskCache.Puts)
	l["oracle.memo_hits"] = float64(memo1.Hits - memo0.Hits)
	l["oracle.memo_misses"] = float64(memo1.Misses - memo0.Misses)
	l["oracle.memo_evictions"] = float64(memo1.Evictions - memo0.Evictions)

	// Direct calls below the HTTP layer: a warm key straight into the
	// solver, and fresh fleets straight into the oracle.
	ctx := context.Background()
	warm := run.all[0].req
	hit := make([]float64, 0, 1000)
	for i := 0; i < cap(hit); i++ {
		var err error
		wall := run.tr.do("serve.Solve", run.root, func(int64) { _, err = o.solver.Solve(ctx, warm) })
		if err != nil {
			res.fail("direct solver call: %v", err)
			break
		}
		hit = append(hit, wall*1e6)
	}
	l["serve.solver_hit_us"] = median(hit)

	src := rng.New(rng.DeriveSeed(seed, oracledSeedDomain, 1))
	miss := make([]float64, 0, 200)
	for i := 0; i < cap(miss); i++ {
		nw := network(missRequest(src).Nodes)
		var err error
		wall := run.tr.do("oracle.GroupputCtx", run.root, func(int64) { _, err = oracle.GroupputCtx(ctx, nw) })
		res.Ops++
		if err != nil {
			res.fail("direct oracle call: %v", err)
			continue
		}
		miss = append(miss, wall*1e6)
	}
	l["oracle.clique_miss_us"] = median(miss)

	bounds := make([]float64, 0, 100)
	for i := 0; i < cap(bounds); i++ {
		nodes := boundsRequest(src).Nodes
		nw, topo := network(nodes), topology.Ring(len(nodes))
		var err error
		wall := run.tr.do("oracle.GroupputNonCliqueBoundsCtx", run.root, func(int64) {
			_, _, err = oracle.GroupputNonCliqueBoundsCtx(ctx, nw, topo)
		})
		res.Ops++
		if err != nil {
			res.fail("direct bounds call: %v", err)
			continue
		}
		bounds = append(bounds, wall*1e6)
	}
	l["oracle.bounds_us"] = median(bounds)

	l["residual.hit_handler_us"] = l["serve.hit_handler_us"] - l["serve.solver_hit_us"]
	l["residual.miss_handler_us"] = l["serve.miss_handler_us"] - l["oracle.clique_miss_us"]
	l["residual.bounds_handler_us"] = l["serve.bounds_handler_us"] - l["oracle.bounds_us"]
}

func network(nodes []serve.NodeSpec) *model.Network {
	nw := &model.Network{Nodes: make([]model.Node, len(nodes))}
	for i, n := range nodes {
		nw.Nodes[i] = model.Node{Budget: n.Budget, ListenPower: n.Listen, TransmitPower: n.Transmit}
	}
	return nw
}

// checkOracled checks every answer: it arrived, it is feasible for its
// own fleet, and a cached answer is bitwise equal to the exact answer
// that first filled its key. It returns one message per failed request.
func checkOracled(all []mixReq, resps []*serve.Response, errs []error) []string {
	var fails []string
	exact := make(map[string]*serve.Response)
	keyOf := func(req *serve.Request) string {
		b, _ := json.Marshal(req) // plain structs of numbers and strings
		return string(b)
	}
	for i, r := range resps {
		if errs[i] == nil && r != nil && r.Provenance == serve.ProvExact {
			if k := keyOf(all[i].req); exact[k] == nil {
				exact[k] = r
			}
		}
	}
	for i, r := range resps {
		switch {
		case errs[i] != nil:
			fails = append(fails, fmt.Sprintf("request %d (%s): %v", i, classNames[all[i].class], errs[i]))
			continue
		case r == nil:
			fails = append(fails, fmt.Sprintf("request %d: no response", i))
			continue
		}
		if err := checkAnswer(all[i].req, r); err != nil {
			fails = append(fails, fmt.Sprintf("request %d (%s): %v", i, classNames[all[i].class], err))
			continue
		}
		if first := exact[keyOf(all[i].req)]; first == nil {
			fails = append(fails, fmt.Sprintf("request %d: %s answer with no exact answer for its key", i, r.Provenance))
		} else if !sameBits(first, r) {
			fails = append(fails, fmt.Sprintf("request %d: %s answer differs from the exact answer that filled its key", i, r.Provenance))
		}
	}
	return fails
}

// sameBits reports whether two answers are bitwise equal.
func sameBits(a, b *serve.Response) bool {
	eq := func(x, y *serve.Result) bool {
		if math.Float64bits(x.Throughput) != math.Float64bits(y.Throughput) ||
			len(x.Alpha) != len(y.Alpha) || len(x.Beta) != len(y.Beta) {
			return false
		}
		for i := range x.Alpha {
			if math.Float64bits(x.Alpha[i]) != math.Float64bits(y.Alpha[i]) ||
				math.Float64bits(x.Beta[i]) != math.Float64bits(y.Beta[i]) {
				return false
			}
		}
		return true
	}
	if !eq(&a.Result, &b.Result) || (a.Upper == nil) != (b.Upper == nil) {
		return false
	}
	return a.Upper == nil || eq(a.Upper, b.Upper)
}
