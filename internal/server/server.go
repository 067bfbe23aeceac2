// Package server is the HTTP model-evaluation service behind the
// dramserved binary: a dependency-free net/http JSON API over the power
// model, built for long-lived serving rather than one-shot CLI runs.
//
// Endpoints:
//
//	POST /v1/evaluate  descriptor text -> pattern power/energy + IDD JSON
//	POST /v1/sweep     descriptor text -> Figure 10 sensitivity rows
//	POST /v1/schemes   descriptor text -> Section V scheme comparison
//	POST /v1/trace     trace text      -> replayed energy accounting
//	POST /v1/schedule  access trace    -> scheduled trace energy + row-buffer stats
//	GET  /v1/roadmap   the 170 nm -> 16 nm technology roadmap
//	GET  /metrics      Prometheus text exposition
//	GET  /healthz      liveness (always 200 while the process runs)
//	GET  /readyz       readiness (503 before serving and while draining)
//
// Two mechanisms make it hold up under load:
//
//   - A model cache (cache.go): built models are immutable and shared,
//     keyed by the SHA-256 of the canonical descriptor rendering, so
//     repeated evaluations of the same device skip core.Build entirely.
//   - A bounded admission queue: at most MaxInflight /v1/* requests run
//     at once; excess requests wait up to QueueWait for a slot and are
//     then rejected with 429 + Retry-After instead of queueing without
//     bound.
//
// Every batch evaluation (sweep, schemes, multi-channel replay and
// scheduling) runs on at most Options.Workers workers of its own
// (engine.Run), so the evaluation goroutines stay under MaxInflight ×
// Workers plus one producer per streaming request, and GOMAXPROCS caps
// the CPU they use.
//
// Responses are bit-identical to direct library calls: handlers feed the
// exact library results through one encoder, and a cache hit returns the
// very model a miss built.
package server

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"drampower/internal/desc"
	"drampower/internal/metrics"
)

// Options configures a Server. The zero value serves with the defaults
// noted on each field.
type Options struct {
	// CacheSize bounds the model cache (entries); default 128.
	CacheSize int
	// MaxInflight bounds concurrently executing /v1/* requests;
	// default 64.
	MaxInflight int
	// QueueWait is how long an over-limit request waits for an admission
	// slot before 429; default 2s. Negative means reject immediately.
	QueueWait time.Duration
	// RequestTimeout cancels a request's context after this long;
	// default 60s.
	RequestTimeout time.Duration
	// MaxDescriptorBytes bounds descriptor request bodies; default 1 MiB.
	MaxDescriptorBytes int64
	// MaxTraceBytes bounds trace uploads; default 256 MiB.
	MaxTraceBytes int64
	// Workers bounds the workers of each batch evaluation a request
	// runs (sweep, schemes, replay, scheduling); <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// AccessLog receives one structured JSON line per request; nil
	// disables access logging.
	AccessLog io.Writer
	// Registry receives the server's metrics; nil creates a fresh one.
	Registry *metrics.Registry
	// Calibration is a default calibration overlay applied to every model
	// the server builds unless the request carries its own (a Calibration
	// section in the body or a calibration query parameter). Nil serves
	// uncalibrated models.
	Calibration *desc.Overlay
}

// withDefaults resolves the zero values.
func (o Options) withDefaults() Options {
	if o.CacheSize == 0 {
		o.CacheSize = 128
	}
	if o.MaxInflight == 0 {
		o.MaxInflight = 64
	}
	if o.QueueWait == 0 {
		o.QueueWait = 2 * time.Second
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 60 * time.Second
	}
	if o.MaxDescriptorBytes == 0 {
		o.MaxDescriptorBytes = 1 << 20
	}
	if o.MaxTraceBytes == 0 {
		o.MaxTraceBytes = 256 << 20
	}
	if o.Registry == nil {
		o.Registry = metrics.NewRegistry()
	}
	return o
}

// Server is the model-evaluation service. Create with New, mount via
// Handler (or run with Serve).
type Server struct {
	opts  Options
	mux   *http.ServeMux
	cache *modelCache
	docs  *docCache
	reg   *metrics.Registry

	sem    chan struct{}
	ready  atomic.Bool
	reqID  atomic.Int64
	idBase string

	inflight *metrics.Gauge
	rejected *metrics.Counter
	panics   *metrics.Counter
	readyG   *metrics.Gauge

	// Trace replay accounting: total slots and low-power residency slots
	// served by /v1/trace, so operators can see the fleet-wide power-down
	// and self-refresh share their workloads would enjoy.
	traceSlots            *metrics.Counter
	tracePowerDownSlots   *metrics.Counter
	traceSelfRefreshSlots *metrics.Counter

	// calibratedBuilds counts model builds that applied a non-empty
	// calibration overlay (the overlay half of the derive → overlay → seal
	// pipeline running server-side).
	calibratedBuilds *metrics.Counter

	// Controller front-end accounting: requests scheduled, the row hits
	// among them (their ratio is the fleet-wide row-hit rate), and the
	// commands emitted by /v1/schedule.
	scheduleRequests *metrics.Counter
	scheduleRowHits  *metrics.Counter
	scheduleCommands *metrics.Counter
	// scheduledRefreshes counts the all-bank ref commands the refresh
	// scheduler emitted into /v1/schedule traces.
	scheduledRefreshes *metrics.Counter
	// scheduleBatches counts the per-channel command batches streamed
	// through the fused schedule→replay pipeline; scheduleReplays the
	// /v1/schedule requests that carried in-place energy accounting
	// (replay=off requests schedule only).
	scheduleBatches *metrics.Counter
	scheduleReplays *metrics.Counter
}

// New builds a server. It starts no goroutines: each request runs its
// batch evaluations on workers of its own.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:   opts,
		mux:    http.NewServeMux(),
		cache:  newModelCache(opts.CacheSize, opts.Registry),
		docs:   newDocCache(opts.CacheSize * 2),
		reg:    opts.Registry,
		sem:    make(chan struct{}, opts.MaxInflight),
		idBase: time.Now().Format("150405"),
	}
	s.inflight = s.reg.Gauge("dramserved_inflight_requests", "", "Requests currently executing.")
	s.rejected = s.reg.Counter("dramserved_rejected_total", "", "Requests rejected with 429 by the admission queue.")
	s.panics = s.reg.Counter("dramserved_handler_panics_total", "", "Recovered handler panics.")
	s.readyG = s.reg.Gauge("dramserved_ready", "", "1 while serving, 0 before startup and while draining.")
	s.traceSlots = s.reg.Counter("dramserved_trace_slots_total", "",
		"Control-clock slots replayed by /v1/trace (per channel).")
	s.tracePowerDownSlots = s.reg.Counter("dramserved_trace_powerdown_slots_total", "",
		"Replayed slots spent in precharge power-down (IDD2P residency).")
	s.traceSelfRefreshSlots = s.reg.Counter("dramserved_trace_selfrefresh_slots_total", "",
		"Replayed slots spent in self-refresh (IDD6 residency).")
	s.calibratedBuilds = s.reg.Counter("dramserved_calibrated_builds_total", "",
		"Model builds that applied a non-empty calibration overlay.")
	s.scheduleRequests = s.reg.Counter("dramserved_schedule_requests_total", "",
		"Access requests scheduled by /v1/schedule.")
	s.scheduleRowHits = s.reg.Counter("dramserved_schedule_row_hits_total", "",
		"Scheduled requests that hit an open row.")
	s.scheduleCommands = s.reg.Counter("dramserved_schedule_commands_total", "",
		"DRAM commands emitted by /v1/schedule.")
	s.scheduledRefreshes = s.reg.Counter("dramserved_scheduled_refreshes_total", "",
		"All-bank refresh commands scheduled by /v1/schedule.")
	s.scheduleBatches = s.reg.Counter("dramserved_schedule_batches_total", "",
		"Per-channel command batches streamed through the fused schedule-replay pipeline.")
	s.scheduleReplays = s.reg.Counter("dramserved_schedule_replays_total", "",
		"Schedule requests replayed in place for energy accounting (replay=on).")

	s.mux.Handle("POST /v1/evaluate", s.api(s.handleEvaluate))
	s.mux.Handle("POST /v1/sweep", s.api(s.handleSweep))
	s.mux.Handle("POST /v1/schemes", s.api(s.handleSchemes))
	s.mux.Handle("POST /v1/trace", s.api(s.handleTrace))
	s.mux.Handle("POST /v1/schedule", s.api(s.handleSchedule))
	s.mux.Handle("GET /v1/roadmap", s.observe(http.HandlerFunc(s.handleRoadmap)))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("draining\n"))
			return
		}
		w.Write([]byte("ok\n"))
	})
	return s
}

// Handler returns the root handler (all endpoints mounted).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// SetReady flips the /readyz state; Serve manages it automatically.
func (s *Server) SetReady(ready bool) {
	s.ready.Store(ready)
	if ready {
		s.readyG.Set(1)
	} else {
		s.readyG.Set(0)
	}
}

// Close releases nothing, since a server holds no workers between
// requests, and may be called any number of times. It stays so that a
// caller can release a Server as it would any other service.
func (s *Server) Close() {}

// Serve runs the service on ln until ctx is cancelled, then drains
// gracefully: /readyz flips to 503 (so load balancers stop sending
// traffic), in-flight requests get up to drainTimeout to finish, and only
// then does the listener close. It returns nil after a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener, drainTimeout time.Duration) error {
	hs := &http.Server{Handler: s.mux}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	s.SetReady(true)
	select {
	case err := <-errCh:
		s.SetReady(false)
		return err
	case <-ctx.Done():
	}
	s.SetReady(false)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := hs.Shutdown(shutdownCtx)
	if serveErr := <-errCh; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}
