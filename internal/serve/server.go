package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"econcast/internal/oracle"
)

// Config configures a Server.
type Config struct {
	// Solver executes admitted requests; required.
	Solver *Solver
	// MaxInflight bounds concurrent solves (default 16); MaxQueue
	// bounds arrivals waiting for a slot (default 4x inflight).
	MaxInflight int
	MaxQueue    int
	// DefaultTimeout is the per-request deadline applied when the
	// request does not carry a tighter one (default 10s).
	DefaultTimeout time.Duration
	// Seed is ignored: admission makes no random decisions.
	//
	// Deprecated: kept only because the benchmark module still sets it;
	// it goes when the benchmark stops doing so (ROADMAP.md).
	Seed uint64
}

// Server is the HTTP face of the service:
//
//	POST /v1/solve  — answer one Request (JSON in, JSON out)
//	GET  /healthz   — liveness
//	GET  /statz     — counters: admission, provenance, breaker, caches
//
// Every arrival passes the admission gate before any work happens: an
// arrival that finds the queue full gets 429 + Retry-After without
// touching the solver, so overload degrades to fast refusals instead of
// timeouts.
type Server struct {
	cfg   Config
	gate  *gate
	start time.Time

	requests atomic.Uint64
	oks      atomic.Uint64
	bads     atomic.Uint64
	fails    atomic.Uint64 // 5xx issued
}

// NewServer assembles a Server; it does not listen (callers wire it
// into an http.Server or a test mux).
func NewServer(cfg Config) *Server {
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	return &Server{
		cfg:   cfg,
		gate:  newGate(cfg.MaxInflight, cfg.MaxQueue),
		start: time.Now(),
	}
}

// Handler returns the routed http.Handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statz", s.handleStatz)
	return mux
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
	defer cancel()

	switch s.gate.admit(ctx) {
	case admitOK:
		defer s.gate.release()
	case admitBusy:
		w.Header().Set("Retry-After", strconv.Itoa(s.gate.retryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "overloaded"})
		return
	default: // admitGone
		s.fails.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "deadline exceeded in queue"})
		return
	}

	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.bads.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed request: " + err.Error()})
		return
	}
	resp, err := s.cfg.Solver.Solve(ctx, &req)
	switch {
	case err == nil:
		s.oks.Add(1)
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(err, ErrBadRequest):
		s.bads.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	default:
		// Only caller-context death reaches here: the degrade ladder
		// absorbs every infrastructure failure.
		s.fails.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Stats is the /statz document.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      uint64  `json:"requests"`
	OK            uint64  `json:"ok"`
	BadRequests   uint64  `json:"bad_requests"`
	Failures      uint64  `json:"failures"`
	// Sheds is always 0: admission only rejects on a full queue, which
	// QueueRejects counts.
	//
	// Deprecated: kept only because the benchmark module still reads
	// it; it goes when the benchmark stops doing so (ROADMAP.md).
	Sheds uint64 `json:"sheds"`
	// QueueRejects counts queue-full rejections, i.e. every 429.
	QueueRejects uint64            `json:"queue_rejects"`
	Solver       SolverStats       `json:"solver"`
	MemoCache    oracle.CacheStats `json:"memo_cache"`
}

// StatsSnapshot collects the full counter document.
func (s *Server) StatsSnapshot() Stats {
	return Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		OK:            s.oks.Load(),
		BadRequests:   s.bads.Load(),
		Failures:      s.fails.Load(),
		QueueRejects:  s.gate.rejects.Load(),
		Solver:        s.cfg.Solver.Stats(),
		MemoCache:     oracle.CacheStatsSnapshot(),
	}
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	// An encode failure here means the client hung up; nothing to do.
	_ = enc.Encode(v)
}
