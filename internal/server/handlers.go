package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"drampower/internal/codec"
	"drampower/internal/core"
	"drampower/internal/ctl"
	"drampower/internal/desc"
	"drampower/internal/engine"
	"drampower/internal/metrics"
	"drampower/internal/scaling"
	"drampower/internal/schemes"
	"drampower/internal/sensitivity"
	"drampower/internal/trace"
)

// errorResponse is the uniform error body. Parse failures carry the
// 1-based input position, mirroring the CLI diagnostics.
type errorResponse struct {
	Error string `json:"error"`
	Line  int    `json:"line,omitempty"`
	Col   int    `json:"col,omitempty"`
}

// writeError emits a JSON error body with the given status.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// statusClientClosedRequest is nginx's non-standard 499: the client went
// away before we finished. Nobody receives the response body, but the
// status keeps access logs and the per-code request counter from filing
// client disconnects under 504 "request timed out".
const statusClientClosedRequest = 499

// writeParseAwareError maps an evaluation error to a response: timeouts
// 504, client cancellations 499, body-size limits 413, positioned parse
// errors 400 with line/col, anything else the provided fallback status.
// The stream-failure checks run before the parse-error one because the
// trace and access scanners wrap reader errors in a positioned
// ParseError: an upload that dies on the request deadline, the client
// hanging up or the body cap is an I/O outcome, not bad input text.
func writeParseAwareError(w http.ResponseWriter, err error, fallback int) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds the %d-byte limit", mbe.Limit))
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		writeError(w, http.StatusGatewayTimeout, "request timed out")
		return
	}
	if errors.Is(err, context.Canceled) {
		writeError(w, statusClientClosedRequest, "client closed request")
		return
	}
	var pe *codec.ParseError
	if errors.As(err, &pe) {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error(), Line: pe.Line, Col: pe.Col})
		return
	}
	writeError(w, fallback, err.Error())
}

// jsonBufPool recycles response encoding buffers across requests: the
// cached /v1/evaluate path allocates a fresh marshal buffer per response
// otherwise, the largest single term of its allocation profile.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBufBytes caps the buffers the pool retains; a one-off giant
// response (a long sweep, a roadmap dump) shouldn't pin its buffer for
// the process lifetime.
const maxPooledBufBytes = 1 << 20

// writeJSON encodes v with a trailing newline through a pooled buffer.
// Encoding is deterministic (struct order fixed, map keys sorted by
// encoding/json) and byte-identical to json.Marshal plus '\n', which is
// what lets tests assert byte-identical responses across cache
// hits/misses — and across this pooling.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		jsonBufPool.Put(buf)
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledBufBytes {
		jsonBufPool.Put(buf)
	}
}

// readDocument reads and parses the request body as a combined document:
// descriptor text optionally followed by a Calibration section (see
// desc.ParseDocument). A body with no descriptor lines — empty,
// whitespace, or calibration-only — selects the built-in 1 Gb DDR3
// sample (handy for smoke tests and examples). The overlay is nil when
// the body has no Calibration section. The bool result reports success;
// on failure the response has already been written.
func (s *Server) readDocument(w http.ResponseWriter, r *http.Request) (*desc.Description, *desc.Overlay, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxDescriptorBytes))
	if err != nil {
		writeParseAwareError(w, err, http.StatusBadRequest)
		return nil, nil, false
	}
	d, ov, err := desc.ParseDocument(bytes.NewReader(body))
	if err != nil {
		writeParseAwareError(w, err, http.StatusBadRequest)
		return nil, nil, false
	}
	if d == nil {
		d = desc.Sample1GbDDR3()
	}
	return d, ov, true
}

// effectiveOverlay resolves the calibration applying to a request, in
// precedence order: the calibration query parameter (';' accepted as a
// line separator so an overlay fits in a URL), the request body's
// Calibration section, then the server-wide default (Options.Calibration).
// Supplying both the query parameter and a body section is ambiguous and
// rejected. The bool result reports success; on failure the response has
// been written.
func (s *Server) effectiveOverlay(w http.ResponseWriter, r *http.Request, bodyOv *desc.Overlay) (*desc.Overlay, bool) {
	q := r.URL.Query().Get("calibration")
	if q == "" {
		if bodyOv != nil {
			return bodyOv, true
		}
		return s.opts.Calibration, true
	}
	if bodyOv != nil {
		writeError(w, http.StatusBadRequest,
			"calibration supplied both as a query parameter and a body Calibration section; pick one")
		return nil, false
	}
	ov, err := desc.ParseOverlayString(strings.ReplaceAll(q, ";", "\n"))
	if err != nil {
		writeParseAwareError(w, err, http.StatusBadRequest)
		return nil, false
	}
	return ov, true
}

// getModel returns the (possibly calibrated) model for the description
// and overlay through the model cache, keyed by CalibratedKey so a
// calibrated model never shares an entry with its uncalibrated base.
func (s *Server) getModel(d *desc.Description, ov *desc.Overlay) (string, *core.Model, error) {
	key := CalibratedKey(d, ov)
	m, err := s.cache.get(key, func() (*core.Model, error) {
		if !ov.Empty() {
			s.calibratedBuilds.Inc()
		}
		return core.BuildCalibrated(d, ov)
	})
	return key, m, err
}

// checkCtx reports whether the request is still live, answering 504 when
// its deadline already expired or 499 when the client hung up (no point
// burning CPU on a dead request either way).
func checkCtx(w http.ResponseWriter, r *http.Request) bool {
	if err := r.Context().Err(); err != nil {
		writeParseAwareError(w, err, http.StatusInternalServerError)
		return false
	}
	return true
}

// EvaluateResponse is the POST /v1/evaluate body: the library's
// Build+Evaluate results plus the model's cache key, which /v1/trace
// accepts to replay traces against an already-hot model.
type EvaluateResponse struct {
	ModelKey     string  `json:"model_key"`
	Name         string  `json:"name"`
	DieAreaMM2   float64 `json:"die_area_mm2"`
	BitsPerBurst int     `json:"bits_per_burst"`
	Pattern      string  `json:"pattern"`
	// Calibrated marks a model built with a non-empty calibration overlay;
	// Calibration carries the overlay's name when it has one. Both are
	// omitted for uncalibrated models, keeping those responses byte-
	// identical to pre-calibration servers.
	Calibrated  bool            `json:"calibrated,omitempty"`
	Calibration string          `json:"calibration,omitempty"`
	IDDMA       IDDResponse     `json:"idd_ma"`
	Result      PatternResponse `json:"result"`
}

// IDDResponse reports the datasheet currents in milliamps.
type IDDResponse struct {
	IDD0  float64 `json:"idd0"`
	IDD2N float64 `json:"idd2n"`
	IDD2P float64 `json:"idd2p"`
	IDD3N float64 `json:"idd3n"`
	IDD4R float64 `json:"idd4r"`
	IDD4W float64 `json:"idd4w"`
	IDD5  float64 `json:"idd5"`
	IDD6  float64 `json:"idd6"`
	IDD7  float64 `json:"idd7"`
}

// PatternResponse is core.PatternResult in JSON-friendly SI scalars.
type PatternResponse struct {
	BackgroundW    float64            `json:"background_w"`
	CommandW       float64            `json:"command_w"`
	PowerW         float64            `json:"power_w"`
	CurrentA       float64            `json:"current_a"`
	BitsPerLoop    int                `json:"bits_per_loop"`
	EnergyPerBitPJ float64            `json:"energy_per_bit_pj"`
	ByOpW          map[string]float64 `json:"by_op_w"`
	ByGroupW       map[string]float64 `json:"by_group_w"`
	ByDomainW      map[string]float64 `json:"by_domain_w"`
}

// EvaluateResponseFor assembles the /v1/evaluate response from a built
// model. It is the single encoding path for both the handler and the
// bit-identity tests: whatever bytes the server sends are exactly
// json.Marshal of this value over a direct library call's results.
func EvaluateResponseFor(m *core.Model, key string) EvaluateResponse {
	idd := m.IDD()
	res := m.Evaluate()
	out := EvaluateResponse{
		ModelKey:     key,
		Name:         m.D.Name,
		DieAreaMM2:   float64(m.DieArea()) / 1e-6,
		BitsPerBurst: m.BitsPerBurst(),
		Pattern:      m.D.Pattern.String(),
		Calibrated:   m.Calibrated(),
		Calibration:  m.CalibrationName(),
		IDDMA: IDDResponse{
			IDD0:  idd.IDD0.Milliamps(),
			IDD2N: idd.IDD2N.Milliamps(),
			IDD2P: m.IDD2P().Milliamps(),
			IDD3N: idd.IDD3N.Milliamps(),
			IDD4R: idd.IDD4R.Milliamps(),
			IDD4W: idd.IDD4W.Milliamps(),
			IDD5:  idd.IDD5.Milliamps(),
			IDD6:  m.IDD6().Milliamps(),
			IDD7:  idd.IDD7.Milliamps(),
		},
		Result: PatternResponse{
			BackgroundW:    float64(res.Background),
			CommandW:       float64(res.Command),
			PowerW:         float64(res.Power),
			CurrentA:       float64(res.Current),
			BitsPerLoop:    res.BitsPerLoop,
			EnergyPerBitPJ: float64(res.EnergyPerBit) * 1e12,
			ByOpW:          make(map[string]float64, len(res.ByOp)),
			ByGroupW:       make(map[string]float64, len(res.ByGroup)),
			ByDomainW:      make(map[string]float64, len(res.ByDomain)),
		},
	}
	for op, p := range res.ByOp {
		out.Result.ByOpW[op.String()] = float64(p)
	}
	for g, p := range res.ByGroup {
		out.Result.ByGroupW[g.String()] = float64(p)
	}
	for dom, p := range res.ByDomain {
		out.Result.ByDomainW[dom.String()] = float64(p)
	}
	return out
}

// handleEvaluate: descriptor text in, full evaluation out, through the
// model cache — and, for byte-identical bodies, through the document
// cache, which skips the parse and canonical re-rendering that otherwise
// dominate a cache-hit request's allocations.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxDescriptorBytes))
	if err != nil {
		writeParseAwareError(w, err, http.StatusBadRequest)
		return
	}
	q := r.URL.Query()
	// With no overriding query parameters, the resolved (description,
	// overlay, key) triple is a pure function of the body bytes, so it can
	// be memoized by body hash. A pattern or calibration parameter takes
	// the full path: pattern mutates the description (cached entries are
	// shared and must stay immutable) and calibration changes the key.
	plain := q.Get("calibration") == "" && q.Get("pattern") == ""
	var sum [sha256.Size]byte
	if plain {
		sum = sha256.Sum256(body)
		if ent, ok := s.docs.get(sum); ok {
			if !checkCtx(w, r) {
				return
			}
			m, err := s.cache.get(ent.key, func() (*core.Model, error) {
				if !ent.ov.Empty() {
					s.calibratedBuilds.Inc()
				}
				return core.BuildCalibrated(ent.d, ent.ov)
			})
			if err != nil {
				writeParseAwareError(w, err, http.StatusUnprocessableEntity)
				return
			}
			writeJSON(w, http.StatusOK, EvaluateResponseFor(m, ent.key))
			return
		}
	}
	d, bodyOv, err := desc.ParseDocument(bytes.NewReader(body))
	if err != nil {
		writeParseAwareError(w, err, http.StatusBadRequest)
		return
	}
	if d == nil {
		d = desc.Sample1GbDDR3()
	}
	ov, ok := s.effectiveOverlay(w, r, bodyOv)
	if !ok {
		return
	}
	if p := q.Get("pattern"); p != "" {
		loop, err := desc.ParsePattern(p)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad pattern: %v", err))
			return
		}
		d.Pattern = desc.Pattern{Loop: loop}
	}
	if !checkCtx(w, r) {
		return
	}
	key, m, err := s.getModel(d, ov)
	if err != nil {
		writeParseAwareError(w, err, http.StatusUnprocessableEntity)
		return
	}
	if plain {
		s.docs.put(sum, docEntry{d: d, ov: ov, key: key})
	}
	writeJSON(w, http.StatusOK, EvaluateResponseFor(m, key))
}

// SweepResponse is the POST /v1/sweep body.
type SweepResponse struct {
	Name string `json:"name"`
	// Calibrated marks a sweep run with a non-empty calibration overlay
	// applied to the base and every variant (omitted otherwise).
	Calibrated bool       `json:"calibrated,omitempty"`
	Rows       []SweepRow `json:"rows"`
}

// SweepRow is one Figure 10 bar.
type SweepRow struct {
	Parameter    string  `json:"parameter"`
	RangePct     float64 `json:"range_pct"`
	DeltaUpPct   float64 `json:"delta_up_pct"`
	DeltaDownPct float64 `json:"delta_down_pct"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	d, bodyOv, ok := s.readDocument(w, r)
	if !ok {
		return
	}
	ov, ok := s.effectiveOverlay(w, r, bodyOv)
	if !ok {
		return
	}
	if !checkCtx(w, r) {
		return
	}
	all, err := sensitivity.SweepCalibratedOpts(d, ov, engine.Options{Workers: s.opts.Workers})
	if err != nil {
		writeParseAwareError(w, err, http.StatusUnprocessableEntity)
		return
	}
	rows := sensitivity.ChartRows(all)
	if topS := r.URL.Query().Get("top"); topS != "" {
		top, err := strconv.Atoi(topS)
		if err != nil || top < 1 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad top %q (want positive integer)", topS))
			return
		}
		rows = sensitivity.Top(rows, top)
	}
	out := SweepResponse{Name: d.Name, Calibrated: !ov.Empty(), Rows: make([]SweepRow, len(rows))}
	for i, row := range rows {
		out.Rows[i] = SweepRow{row.Name, row.RangePct, row.DeltaUpPct, row.DeltaDownPct}
	}
	writeJSON(w, http.StatusOK, out)
}

// SchemesResponse is the POST /v1/schemes body.
type SchemesResponse struct {
	Name string      `json:"name"`
	Rows []SchemeRow `json:"rows"`
}

// SchemeRow is one Section V comparison row (baseline first).
type SchemeRow struct {
	Scheme         string  `json:"scheme"`
	Source         string  `json:"source,omitempty"`
	EnergyPerBitPJ float64 `json:"energy_per_bit_pj"`
	EnergyDeltaPct float64 `json:"energy_delta_pct"`
	DieAreaMM2     float64 `json:"die_area_mm2"`
	AreaDeltaPct   float64 `json:"area_delta_pct"`
	IDD7MA         float64 `json:"idd7_ma"`
}

func (s *Server) handleSchemes(w http.ResponseWriter, r *http.Request) {
	d, bodyOv, ok := s.readDocument(w, r)
	if !ok {
		return
	}
	// The scheme comparison rewrites each description (banking, prefetch,
	// interface variants), so a calibration measured on the baseline would
	// silently mislabel every variant; reject rather than mislead. The
	// server-wide default overlay is likewise not applied here.
	if bodyOv != nil || r.URL.Query().Get("calibration") != "" {
		writeError(w, http.StatusBadRequest,
			"calibration is not supported for /v1/schemes: overlays calibrate one device, schemes rebuild many")
		return
	}
	if !checkCtx(w, r) {
		return
	}
	rows, err := schemes.EvaluateOpts(d, engine.Options{Workers: s.opts.Workers})
	if err != nil {
		writeParseAwareError(w, err, http.StatusUnprocessableEntity)
		return
	}
	out := SchemesResponse{Name: d.Name, Rows: make([]SchemeRow, len(rows))}
	for i, row := range rows {
		out.Rows[i] = SchemeRow{
			Scheme:         row.Name,
			Source:         row.Source,
			EnergyPerBitPJ: row.EnergyPerBit.Picojoules(),
			EnergyDeltaPct: row.EnergyDeltaPct,
			DieAreaMM2:     row.DieAreaMM2,
			AreaDeltaPct:   row.AreaDeltaPct,
			IDD7MA:         row.IDD7.Milliamps(),
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// TraceResponse is the POST /v1/trace body: the merged replay accounting,
// including the per-power-state residency and background breakdown (over
// all channels, so the four slot counters sum to channels x slots).
type TraceResponse struct {
	ModelKey string `json:"model_key"`
	// Calibrated marks a replay against a calibrated model (omitted
	// otherwise, keeping uncalibrated responses byte-identical).
	Calibrated       bool             `json:"calibrated,omitempty"`
	Channels         int              `json:"channels"`
	Commands         int64            `json:"commands"`
	Slots            int64            `json:"slots"`
	DurationSeconds  float64          `json:"duration_seconds"`
	CommandEnergyJ   float64          `json:"command_energy_j"`
	BackgroundJ      float64          `json:"background_energy_j"`
	TotalJ           float64          `json:"total_energy_j"`
	AveragePowerW    float64          `json:"average_power_w"`
	AverageCurrentA  float64          `json:"average_current_a"`
	Bits             int64            `json:"bits"`
	EnergyPerBitPJ   float64          `json:"energy_per_bit_pj"`
	BusUtilization   float64          `json:"bus_utilization"`
	ActiveSlots      int64            `json:"active_slots"`
	PrechargedSlots  int64            `json:"precharged_slots"`
	PowerDownSlots   int64            `json:"power_down_slots"`
	SelfRefreshSlots int64            `json:"self_refresh_slots"`
	ActiveBgJ        float64          `json:"active_background_j"`
	PrechargedBgJ    float64          `json:"precharged_background_j"`
	PowerDownBgJ     float64          `json:"power_down_background_j"`
	SelfRefreshBgJ   float64          `json:"self_refresh_background_j"`
	Counts           map[string]int64 `json:"counts"`
}

// TraceResponseFor converts a replay result (shared with the bit-identity
// tests, like EvaluateResponseFor).
func TraceResponseFor(res trace.Result, key string, channels int) TraceResponse {
	out := TraceResponse{
		ModelKey:         key,
		Channels:         channels,
		Slots:            res.Slots,
		DurationSeconds:  float64(res.Duration),
		CommandEnergyJ:   float64(res.CommandEnergy),
		BackgroundJ:      float64(res.Background),
		TotalJ:           float64(res.Total),
		AveragePowerW:    float64(res.AveragePower),
		AverageCurrentA:  float64(res.AverageCurrent),
		Bits:             res.Bits,
		EnergyPerBitPJ:   float64(res.EnergyPerBit) * 1e12,
		BusUtilization:   res.BusUtilization,
		ActiveSlots:      res.ActiveSlots,
		PrechargedSlots:  res.PrechargedSlots,
		PowerDownSlots:   res.PowerDownSlots,
		SelfRefreshSlots: res.SelfRefreshSlots,
		ActiveBgJ:        float64(res.ActiveBackground),
		PrechargedBgJ:    float64(res.PrechargedBackground),
		PowerDownBgJ:     float64(res.PowerDownBackground),
		SelfRefreshBgJ:   float64(res.SelfRefreshBackground),
		Counts:           make(map[string]int64, len(res.Counts)),
	}
	for op, n := range res.Counts {
		out.Commands += n
		out.Counts[trace.OpName(op)] = n
	}
	return out
}

// TraceBinaryContentType is the media type of a dtb binary trace body on
// POST /v1/trace. With this Content-Type the body is decoded strictly as
// dtb (a malformed header is a 400, not a fallback to text); any other
// type sniffs the encoding from the first byte.
const TraceBinaryContentType = "application/x-dram-trace"

// maxChannels bounds a channel count. The replayer and the controller
// build per-channel state before they read their input, so the count
// alone sets the memory a run takes: 1,048,576 channels took gigabytes.
// The bound is 128x the largest count any test, example or benchmark
// uses.
const maxChannels = 1024

// ParseChannels reads a channel count: a positive integer up to 1,024.
// Its error is the message /v1/trace and /v1/schedule answer 400 with.
func ParseChannels(q string) (int, error) {
	c, err := strconv.Atoi(q)
	if err != nil {
		c = 0
	}
	if err := checkChannels(c, q); err != nil {
		return 0, err
	}
	return c, nil
}

// CheckChannels checks a parsed channel count as ParseChannels checks
// the count's decimal form, with the same messages; dramtrace and dramctl
// print them for their -channels flag.
func CheckChannels(c int) error { return checkChannels(c, strconv.Itoa(c)) }

// checkChannels checks channel count c, written text in the input.
func checkChannels(c int, text string) error {
	if c < 1 {
		return fmt.Errorf("bad channels %q (want positive integer)", text)
	}
	if c > maxChannels {
		return fmt.Errorf("channels %d exceeds the limit of %d", c, maxChannels)
	}
	return nil
}

// parseChannels reads the channels query parameter (default 1). The bool
// result reports success; on failure the response has been written.
func parseChannels(w http.ResponseWriter, q string) (int, bool) {
	if q == "" {
		return 1, true
	}
	c, err := ParseChannels(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return 0, false
	}
	return c, true
}

// selectModel resolves the model a trace-style request evaluates against,
// from its query parameters: model=<key> references a cached model from a
// prior /v1/evaluate, node=<nm> builds a roadmap device, and neither
// selects the built-in sample. The body of these requests is trace text,
// so calibration only arrives via the query parameter (or the server
// default); model= references an already-built model whose calibration —
// if any — is baked into its key, so combining it with a fresh overlay is
// contradictory and rejected. The bool result reports success; on failure
// the response has been written.
func (s *Server) selectModel(w http.ResponseWriter, r *http.Request) (string, *core.Model, bool) {
	q := r.URL.Query()
	switch {
	case q.Get("model") != "":
		if q.Get("calibration") != "" {
			writeError(w, http.StatusBadRequest,
				"model= references an already-built model; its calibration is part of the key, calibration= cannot apply")
			return "", nil, false
		}
		key := q.Get("model")
		m := s.cache.peek(key)
		if m == nil {
			writeError(w, http.StatusNotFound,
				fmt.Sprintf("model %q not cached; POST its descriptor to /v1/evaluate first", key))
			return "", nil, false
		}
		return key, m, true
	case q.Get("node") != "":
		nm, err := strconv.ParseFloat(q.Get("node"), 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad node %q (want feature size in nm)", q.Get("node")))
			return "", nil, false
		}
		n, err := scaling.NodeFor(nm)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return "", nil, false
		}
		ov, ok := s.effectiveOverlay(w, r, nil)
		if !ok {
			return "", nil, false
		}
		key, m, err := s.getModel(n.Description(), ov)
		if err != nil {
			writeParseAwareError(w, err, http.StatusUnprocessableEntity)
			return "", nil, false
		}
		return key, m, true
	default:
		ov, ok := s.effectiveOverlay(w, r, nil)
		if !ok {
			return "", nil, false
		}
		key, m, err := s.getModel(desc.Sample1GbDDR3(), ov)
		if err != nil {
			writeParseAwareError(w, err, http.StatusUnprocessableEntity)
			return "", nil, false
		}
		return key, m, true
	}
}

// handleTrace streams the request body (trace text, or dtb binary — see
// TraceBinaryContentType) through the replayer against a model selected
// by query parameter (see selectModel). The body never materializes: it
// flows from the socket through the scanner into the per-channel
// simulators in bounded rounds, with decode pipelined against simulation.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	channels, ok := parseChannels(w, r.URL.Query().Get("channels"))
	if !ok {
		return
	}
	key, m, ok := s.selectModel(w, r)
	if !ok {
		return
	}

	body := http.MaxBytesReader(w, r.Body, s.opts.MaxTraceBytes)
	rd := io.Reader(&ctxReader{ctx: r.Context(), r: body})
	var src trace.Source
	if ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";"); strings.TrimSpace(ct) == TraceBinaryContentType {
		src = trace.NewBinaryScanner(rd)
	} else {
		src = trace.NewSource(rd)
	}
	rep := trace.NewReplayer(m, trace.ReplayOptions{Channels: channels, Workers: s.opts.Workers})
	if err := rep.ReplaySource(src); err != nil {
		writeParseAwareError(w, err, http.StatusBadRequest)
		return
	}
	res := rep.Result(rep.Now() + int64(m.BurstSlots()))
	s.traceSlots.Add(res.Slots)
	s.tracePowerDownSlots.Add(res.PowerDownSlots)
	s.traceSelfRefreshSlots.Add(res.SelfRefreshSlots)
	out := TraceResponseFor(res, key, channels)
	out.Calibrated = m.Calibrated()
	writeJSON(w, http.StatusOK, out)
}

// ctxReader aborts a streaming read once the request context is done, so
// the per-request timeout actually cancels long trace replays instead of
// only being checked at the start.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c *ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}

// AccessBinaryContentType is the media type of a .dab binary access
// trace body on POST /v1/schedule. With this Content-Type the body is
// decoded strictly as .dab (a malformed header is a 400, not a fallback
// to text); any other type sniffs the encoding from the first byte.
const AccessBinaryContentType = "application/x-dram-access"

// ScheduleResponse is the POST /v1/schedule body: the replay accounting
// of the scheduled command trace (the same fields /v1/trace reports),
// plus the controller's configuration and row-buffer statistics.
type ScheduleResponse struct {
	TraceResponse
	Policy     string    `json:"policy"`
	Map        string    `json:"map"`
	Schedule   ctl.Stats `json:"schedule"`
	RowHitRate float64   `json:"row_hit_rate"`
	// Retention audit of the scheduled trace (the replay engine's
	// auditor): the widest observed refresh-to-refresh gap in slots, and
	// the count of tREFI obligations that slipped past their JEDEC
	// postponement deadline — zero for every scheduler configuration
	// except refresh=off.
	MaxRefreshIntervalSlots int64 `json:"max_refresh_interval_slots"`
	MissedRefreshDeadlines  int64 `json:"missed_refresh_deadlines"`
}

// ScheduleResponseFor assembles the /v1/schedule response (shared with
// the bit-identity tests, like TraceResponseFor).
func ScheduleResponseFor(stats ctl.Stats, res trace.Result, key string, channels int, policy, mapSpec string) ScheduleResponse {
	return ScheduleResponse{
		TraceResponse:           TraceResponseFor(res, key, channels),
		Policy:                  policy,
		Map:                     mapSpec,
		Schedule:                stats,
		RowHitRate:              stats.RowHitRate(),
		MaxRefreshIntervalSlots: res.MaxRefreshInterval,
		MissedRefreshDeadlines:  res.MissedRefreshDeadlines,
	}
}

// scheduleOptions parses the controller configuration from the query:
// policy (open, closed or timeout=N; default open), map (interleave
// spec), channels, pd_timeout and sr_after (idle thresholds in slots),
// refresh_every (tREFI override in slots; 0 resolves from the spec),
// max_postponed (JEDEC postponement bound; 0 means the default of 8)
// and refresh=off (disable refresh scheduling for A/B comparisons).
// The bool result reports success; on failure the response has been
// written.
func scheduleOptions(w http.ResponseWriter, q map[string][]string) (ctl.Options, bool) {
	get := func(k string) string {
		if v := q[k]; len(v) > 0 {
			return v[0]
		}
		return ""
	}
	policyStr := get("policy")
	if policyStr == "" {
		policyStr = "open"
	}
	policy, pageTimeout, err := ctl.ParsePolicy(policyStr)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return ctl.Options{}, false
	}
	channels, ok := parseChannels(w, get("channels"))
	if !ok {
		return ctl.Options{}, false
	}
	opts := ctl.Options{
		Policy:      policy,
		PageTimeout: pageTimeout,
		Map:         get("map"),
		Channels:    channels,
	}
	for _, p := range []struct {
		name string
		dst  *int64
	}{{"pd_timeout", &opts.PowerDownAfter}, {"sr_after", &opts.SelfRefreshAfter}} {
		if v := get(p.name); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				writeError(w, http.StatusBadRequest,
					fmt.Sprintf("bad %s %q (want idle threshold in slots, >= 0)", p.name, v))
				return ctl.Options{}, false
			}
			*p.dst = n
		}
	}
	if v := get("refresh_every"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("bad refresh_every %q (want tREFI in slots, >= 0)", v))
			return ctl.Options{}, false
		}
		opts.RefreshEvery = n
	}
	if v := get("max_postponed"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("bad max_postponed %q (want refresh postponement bound, >= 0)", v))
			return ctl.Options{}, false
		}
		opts.MaxPostponed = n
	}
	switch v := get("refresh"); v {
	case "", "on":
	case "off":
		opts.DisableRefresh = true
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("bad refresh %q (want on or off)", v))
		return ctl.Options{}, false
	}
	return opts, true
}

// countingSink wraps a schedule sink to count the per-channel command
// batches the fused pipeline emits. Consume runs concurrently across
// channels; the counter is atomic.
type countingSink struct {
	sink    ctl.Sink
	batches *metrics.Counter
}

func (cs countingSink) Consume(ch int, batch []trace.Command) error {
	cs.batches.Inc()
	return cs.sink.Consume(ch, batch)
}

// handleSchedule runs the memory-controller front-end server-side: the
// request body is an access trace (text, or .dab binary — see
// AccessBinaryContentType), scheduled into a legal command trace by the
// page policy, address map and power-down thresholds in the query, and
// by default (replay=on) replayed as it is scheduled on the fused
// schedule→replay pipeline — schedule and energy accounting in one
// request, with peak memory bounded by the pipeline's batch size rather
// than the trace length, and a response bit-identical to scheduling
// first and replaying the materialized trace. With replay=off only the
// scheduling half runs: the response keeps its shape but the replay-
// derived energy fields are zero. Both halves run each round's channel
// jobs on Options.Workers workers.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	opts, ok := scheduleOptions(w, r.URL.Query())
	if !ok {
		return
	}
	replay := true
	switch v := r.URL.Query().Get("replay"); v {
	case "", "on", "1":
	case "off", "0":
		replay = false
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad replay %q (want on or off)", v))
		return
	}
	key, m, ok := s.selectModel(w, r)
	if !ok {
		return
	}
	opts.Workers = s.opts.Workers
	ctrl, err := ctl.NewController(m, opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	body := http.MaxBytesReader(w, r.Body, s.opts.MaxTraceBytes)
	rd := io.Reader(&ctxReader{ctx: r.Context(), r: body})
	var src ctl.Source
	if ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";"); strings.TrimSpace(ct) == AccessBinaryContentType {
		src = ctl.NewBinaryScanner(rd)
	} else {
		src = ctl.NewAccessSource(rd)
	}

	// The scheduler's legality contract guarantees the fused replay
	// cannot fail on well-formed input (a timing violation here would be
	// a server bug), so every ScheduleInto error is a client-side input
	// error.
	var rep *trace.Replayer
	sink := ctl.Discard
	if replay {
		rep = trace.NewReplayer(m, trace.ReplayOptions{Channels: ctrl.Channels(), Workers: s.opts.Workers})
		sink = ctl.ReplaySink(rep)
	}
	stats, err := ctrl.ScheduleInto(src, countingSink{sink: sink, batches: s.scheduleBatches})
	if err != nil {
		writeParseAwareError(w, err, http.StatusBadRequest)
		return
	}
	var res trace.Result
	if replay {
		res = rep.Result(rep.Now() + int64(m.BurstSlots()))
		s.scheduleReplays.Inc()
	}
	s.scheduleRequests.Add(stats.Requests)
	s.scheduleRowHits.Add(stats.RowHits)
	s.scheduleCommands.Add(stats.Commands)
	s.scheduledRefreshes.Add(stats.Refreshes)
	out := ScheduleResponseFor(stats, res, key, opts.Channels, opts.PolicySpec(), opts.MapSpec())
	out.Calibrated = m.Calibrated()
	writeJSON(w, http.StatusOK, out)
}

// RoadmapNode is one GET /v1/roadmap entry.
type RoadmapNode struct {
	Name         string  `json:"name"`
	FeatureNm    float64 `json:"feature_nm"`
	Year         float64 `json:"year"`
	Interface    string  `json:"interface"`
	DensityMbit  int64   `json:"density_mbit"`
	DataRateMbps float64 `json:"data_rate_mbps"`
	VddV         float64 `json:"vdd_v"`
	VintV        float64 `json:"vint_v"`
	VblV         float64 `json:"vbl_v"`
	VppV         float64 `json:"vpp_v"`
	TRCNs        float64 `json:"trc_ns"`
	TRCDNs       float64 `json:"trcd_ns"`
	TRPNs        float64 `json:"trp_ns"`
}

func (s *Server) handleRoadmap(w http.ResponseWriter, _ *http.Request) {
	nodes := scaling.Roadmap()
	out := make([]RoadmapNode, len(nodes))
	for i, n := range nodes {
		out[i] = RoadmapNode{
			Name:         n.Name(),
			FeatureNm:    n.FeatureNm,
			Year:         n.Year,
			Interface:    n.Interface.String(),
			DensityMbit:  n.DensityMbit(),
			DataRateMbps: float64(n.DataRate) / 1e6,
			VddV:         float64(n.Vdd),
			VintV:        float64(n.Vint),
			VblV:         float64(n.Vbl),
			VppV:         float64(n.Vpp),
			TRCNs:        n.TRC.Nanoseconds(),
			TRCDNs:       n.TRCD.Nanoseconds(),
			TRPNs:        n.TRP.Nanoseconds(),
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}
