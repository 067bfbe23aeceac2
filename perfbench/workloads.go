package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"sort"
	"sync/atomic"
	"time"

	"drampower/internal/core"
	"drampower/internal/ctl"
	"drampower/internal/datasheet"
	"drampower/internal/desc"
	"drampower/internal/engine"
	"drampower/internal/scaling"
	"drampower/internal/schemes"
	"drampower/internal/sensitivity"
	"drampower/internal/server"
	"drampower/internal/trace"
)

// Load is sized for a two-vCPU host: two workers per call, two client
// connections.
const (
	workers = 2
	clients = 2
)

// Traffic shapes. Call sizes put one batch call at tens of milliseconds,
// so a run holds hundreds of calls and no median is a scheduler wake-up.
const (
	// replay-dtb: accesses scheduled into an 8-channel closed-page trace
	// with power-down and refresh, about 3.6 commands per access.
	replayChannels = 8
	replayAccesses = 600_000
	replayGap      = 6
	replayRowHit   = 0.5
	replayPDAfter  = 8

	// schedule-replay: a 4-channel .dab stream under the timeout policy.
	schedChannels = 4
	schedAccesses = 320_000
	schedGap      = 4
	schedRowHit   = 0.7
	schedTimeout  = 64
	schedPDAfter  = 16

	readShare = 0.7

	// serve-mix bodies: /v1/schedule carries schedBodyReqs text accesses,
	// /v1/trace the closed-page schedule of traceBodyReqs accesses.
	schedBodyReqs = 4096
	traceBodyReqs = 2048
	bodyPool      = 8
	// The uncached pool is larger than the document cache (2 x
	// serverCache bodies) and the model cache (serverCache models), so
	// every uncached request misses both; serverCache is large enough
	// that the hot model is never evicted between its uses.
	serverCache  = 16
	uncachedPool = 40
	mixSeqLen    = 1 << 14

	// deviceJitter is the relative spread of the seeded device variants;
	// paper-sweep evaluates sweepDevices of them per call.
	deviceJitter = 0.05
	sweepDevices = 32
)

// The serve-mix request classes and their weights in percent. The cached
// class is the fastest and holds 60%, so the median lands inside it; the
// uncached class is the slowest and holds 15%, so the tail percentile
// lands inside it.
type class int

const (
	evalCached class = iota
	evalUncached
	schedReq
	traceReq
	numClasses
)

var (
	classNames = [numClasses]string{"evaluate_cached", "evaluate_uncached", "schedule", "trace"}
	mixWeights = [numClasses]int{60, 15, 15, 10}
)

// errMismatch marks an op whose output differs from its reference.
var errMismatch = errors.New("output differs from the reference")

// workload is one benchmark workload after set-up. call runs one timed
// call for the given client and reports the ops it attempted; a non-nil
// error marks all of them failed.
type workload interface {
	call(client int) (ops int64, err error)
	clients() int
	// digest identifies the generated inputs (for the determinism test).
	digest() [32]byte
	close()
}

var workloadNames = []string{"replay-dtb", "schedule-replay", "serve-mix", "paper-sweep"}

// setup builds a workload's model, inputs, references and (for
// serve-mix) server from the seed.
func setup(name string, seed uint64) (workload, error) {
	switch name {
	case "replay-dtb":
		return newReplayDTB(seed)
	case "schedule-replay":
		return newScheduleReplay(seed)
	case "serve-mix":
		return newServeMix(seed)
	case "paper-sweep":
		return newPaperSweep(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// rng is a splitmix64 stream; every generated input derives from the
// seed through one.
type rng struct{ s uint64 }

// Input streams: each input family draws from its own stream, so resizing
// one leaves the others unchanged.
const (
	streamDevice = iota + 1
	streamReplay
	streamSched
	streamMix
	streamBodies
)

func newRNG(seed uint64, stream uint64) *rng {
	r := &rng{s: seed ^ stream*0xd1b54a32d192ed03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// deviceText renders a seeded variant of the sample 1 Gb DDR3 device:
// every sensitivity knob scaled by a factor within ±deviceJitter, under
// the given name.
func deviceText(r *rng, name string) string {
	d := desc.Sample1GbDDR3()
	d.Name = name
	for _, p := range sensitivity.Registry() {
		p.Apply(d, 1+deviceJitter*(2*r.float()-1))
	}
	return desc.Format(d)
}

// buildText parses a generated descriptor and builds its model.
func buildText(text string) (*desc.Description, *core.Model, error) {
	d, err := desc.ParseString(text)
	if err != nil {
		return nil, nil, err
	}
	m, err := core.Build(d)
	return d, m, err
}

// hashInputs digests the generated input byte strings in order.
func hashInputs(parts ...[]byte) [32]byte {
	var all bytes.Buffer
	for _, p := range parts {
		fmt.Fprintf(&all, "%d:", len(p))
		all.Write(p)
	}
	return sha256.Sum256(all.Bytes())
}

// splitChannels shards a global-bank trace into per-channel commands with
// channel-local banks, the numbering Replayer.RunChannel takes.
func splitChannels(cmds []trace.Command, channels, banks int) [][]trace.Command {
	out := make([][]trace.Command, channels)
	for _, c := range cmds {
		ch := c.Bank / banks
		c.Bank -= ch * banks
		out[ch] = append(out[ch], c)
	}
	return out
}

// ---- replay-dtb ----

type replayDTB struct {
	m    *core.Model
	dtb  []byte
	cmds int64
	ref  trace.Result
	hash [32]byte
}

func newReplayDTB(seed uint64) (*replayDTB, error) {
	_, m, err := buildText(deviceText(newRNG(seed, streamDevice), "perfbench-replay"))
	if err != nil {
		return nil, err
	}
	reqs, err := ctl.GenerateAccesses(m, ctl.GenOptions{
		N: replayAccesses, RowHit: replayRowHit, ReadShare: readShare, Gap: replayGap,
		Seed: newRNG(seed, streamReplay).next(), Channels: replayChannels,
	})
	if err != nil {
		return nil, err
	}
	cmds, _, err := ctl.ScheduleRequests(m, reqs, ctl.Options{
		Policy: ctl.PolicyClosed, Channels: replayChannels, PowerDownAfter: replayPDAfter, Workers: 1,
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := trace.WriteBinaryTrace(&buf, cmds); err != nil {
		return nil, err
	}
	w := &replayDTB{m: m, dtb: buf.Bytes(), cmds: int64(len(cmds))}
	w.hash = hashInputs(w.dtb)
	w.ref, err = trace.Replay(m, bytes.NewReader(w.dtb), trace.ReplayOptions{Channels: replayChannels, Workers: 1})
	if err != nil {
		return nil, err
	}
	if w.ref.MissedRefreshDeadlines != 0 {
		return nil, fmt.Errorf("replay-dtb: reference misses %d refresh deadlines", w.ref.MissedRefreshDeadlines)
	}
	for _, op := range []desc.Op{desc.OpActivate, desc.OpRead, desc.OpWrite, desc.OpPrecharge, desc.OpRefresh,
		trace.OpPowerDownEnter, trace.OpPowerDownExit} {
		if w.ref.Counts[op] == 0 {
			return nil, fmt.Errorf("replay-dtb: generated trace has no %s commands", trace.OpName(op))
		}
	}
	return w, nil
}

// channelShards decodes the trace and shards it by channel, for the
// traced run's RunChannel calls.
func (w *replayDTB) channelShards() ([][]trace.Command, error) {
	sc := trace.NewBinaryScanner(bytes.NewReader(w.dtb))
	var cmds []trace.Command
	for sc.Scan() {
		cmds = append(cmds, sc.Command())
	}
	return splitChannels(cmds, replayChannels, w.m.D.Spec.Banks()), sc.Err()
}

func (w *replayDTB) call(int) (int64, error) {
	res, err := trace.Replay(w.m, bytes.NewReader(w.dtb), trace.ReplayOptions{Channels: replayChannels, Workers: workers})
	if err != nil {
		return w.cmds, err
	}
	if res.MissedRefreshDeadlines != 0 || !reflect.DeepEqual(res, w.ref) {
		return w.cmds, errMismatch
	}
	return w.cmds, nil
}

func (w *replayDTB) clients() int     { return 1 }
func (w *replayDTB) digest() [32]byte { return w.hash }
func (w *replayDTB) close()           {}

// ---- schedule-replay ----

type scheduleReplay struct {
	m        *core.Model
	dab      []byte
	reqs     int64
	opts     ctl.Options
	refStats ctl.Stats
	refRes   trace.Result
	hash     [32]byte
}

func schedOptions(w int) ctl.Options {
	return ctl.Options{
		Policy: ctl.PolicyTimeout, PageTimeout: schedTimeout, Channels: schedChannels,
		PowerDownAfter: schedPDAfter, Workers: w,
	}
}

func newScheduleReplay(seed uint64) (*scheduleReplay, error) {
	_, m, err := buildText(deviceText(newRNG(seed, streamDevice), "perfbench-schedule"))
	if err != nil {
		return nil, err
	}
	reqs, err := ctl.GenerateAccesses(m, ctl.GenOptions{
		N: schedAccesses, RowHit: schedRowHit, ReadShare: readShare, Gap: schedGap,
		Seed: newRNG(seed, streamSched).next(), Channels: schedChannels,
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := ctl.WriteBinaryAccessTrace(&buf, reqs); err != nil {
		return nil, err
	}
	w := &scheduleReplay{m: m, dab: buf.Bytes(), reqs: int64(len(reqs)), opts: schedOptions(workers)}
	w.hash = hashInputs(w.dab)
	// The two-phase reference: materialize the schedule, then replay it.
	cmds, stats, err := ctl.Schedule(m, bytes.NewReader(w.dab), schedOptions(1))
	if err != nil {
		return nil, err
	}
	r := trace.NewReplayer(m, trace.ReplayOptions{Channels: schedChannels, Workers: 1})
	if err := r.ReplaySource(trace.NewSliceSource(cmds)); err != nil {
		return nil, err
	}
	w.refStats, w.refRes = stats, r.Result(r.Now()+int64(m.BurstSlots()))
	if w.refRes.MissedRefreshDeadlines != 0 || stats.Refreshes == 0 || stats.PowerDowns == 0 {
		return nil, fmt.Errorf("schedule-replay: reference schedule lacks refresh or power-down: %+v", stats)
	}
	return w, nil
}

// channelCommands schedules the stream and shards the commands by
// channel, for the traced run's RunChannel calls.
func (w *scheduleReplay) channelCommands() ([][]trace.Command, error) {
	cmds, _, err := ctl.Schedule(w.m, bytes.NewReader(w.dab), schedOptions(1))
	return splitChannels(cmds, schedChannels, w.m.D.Spec.Banks()), err
}

func (w *scheduleReplay) call(int) (int64, error) {
	stats, res, err := ctl.ScheduleReplay(w.m, bytes.NewReader(w.dab), w.opts, trace.ReplayOptions{Workers: workers})
	if err != nil {
		return w.reqs, err
	}
	if stats != w.refStats || !reflect.DeepEqual(res, w.refRes) {
		return w.reqs, errMismatch
	}
	return w.reqs, nil
}

func (w *scheduleReplay) clients() int     { return 1 }
func (w *scheduleReplay) digest() [32]byte { return w.hash }
func (w *scheduleReplay) close()           {}

// ---- serve-mix ----

// request is one POST with the exact response body the server must send.
type request struct {
	path string
	body []byte
	want []byte
}

type serveMix struct {
	srv      *server.Server
	base     string
	cancel   context.CancelFunc
	served   chan error
	http     []*http.Client
	hot      request
	uncached []request
	sched    []request
	traces   []request
	seqs     [][]class // per client, cycled
	pos      []int     // per client position in its sequence
	nextCold atomic.Int64
	hash     [32]byte
	// delta holds the /metrics counter changes over the traced requests.
	delta map[string]float64

	// Library-side state for the traced run.
	hotModel    *core.Model
	hotKey      string
	sampleModel *core.Model
	sampleKey   string
}

// encodeJSON renders v exactly as the server writes response bodies.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// evaluateRequest builds a /v1/evaluate request for a descriptor body and
// its reference: parse, build, EvaluateResponseFor.
func evaluateRequest(text string) (request, *core.Model, string, error) {
	d, m, err := buildText(text)
	if err != nil {
		return request{}, nil, "", err
	}
	key := server.CalibratedKey(d, nil)
	want, err := encodeJSON(server.EvaluateResponseFor(m, key))
	return request{path: "/v1/evaluate", body: []byte(text), want: want}, m, key, err
}

func newServeMix(seed uint64) (*serveMix, error) {
	w := &serveMix{}
	devs := newRNG(seed, streamDevice)
	var err error
	if w.hot, w.hotModel, w.hotKey, err = evaluateRequest(deviceText(devs, "perfbench-hot")); err != nil {
		return nil, err
	}
	for i := 0; i < uncachedPool; i++ {
		req, _, _, err := evaluateRequest(deviceText(devs, fmt.Sprintf("perfbench-cold-%02d", i)))
		if err != nil {
			return nil, err
		}
		w.uncached = append(w.uncached, req)
	}

	// /v1/schedule and /v1/trace select the built-in sample without a
	// model parameter.
	sample := desc.Sample1GbDDR3()
	if w.sampleModel, err = core.Build(sample); err != nil {
		return nil, err
	}
	w.sampleKey = server.DescriptorKey(sample)
	m := w.sampleModel
	bodies := newRNG(seed, streamBodies)
	for i := 0; i < bodyPool; i++ {
		reqs, err := ctl.GenerateAccesses(m, ctl.GenOptions{
			N: schedBodyReqs, RowHit: schedRowHit, ReadShare: readShare, Gap: schedGap, Seed: bodies.next(),
		})
		if err != nil {
			return nil, err
		}
		var body bytes.Buffer
		if err := ctl.WriteAccessTrace(&body, reqs); err != nil {
			return nil, err
		}
		c, err := ctl.NewController(m, ctl.Options{Policy: ctl.PolicyOpen})
		if err != nil {
			return nil, err
		}
		r := trace.NewReplayer(m, trace.ReplayOptions{Channels: 1, Workers: 1})
		stats, err := c.ScheduleInto(ctl.NewAccessSource(bytes.NewReader(body.Bytes())), ctl.ReplaySink(r))
		if err != nil {
			return nil, err
		}
		res := r.Result(r.Now() + int64(m.BurstSlots()))
		want, err := encodeJSON(server.ScheduleResponseFor(stats, res, w.sampleKey, 1, "open", c.Mapper().Spec()))
		if err != nil {
			return nil, err
		}
		w.sched = append(w.sched, request{path: "/v1/schedule", body: body.Bytes(), want: want})

		reqs, err = ctl.GenerateAccesses(m, ctl.GenOptions{
			N: traceBodyReqs, RowHit: replayRowHit, ReadShare: readShare, Gap: replayGap, Seed: bodies.next(),
		})
		if err != nil {
			return nil, err
		}
		cmds, _, err := ctl.ScheduleRequests(m, reqs, ctl.Options{Policy: ctl.PolicyClosed, PowerDownAfter: replayPDAfter, Workers: 1})
		if err != nil {
			return nil, err
		}
		var text bytes.Buffer
		if err := trace.WriteTrace(&text, cmds); err != nil {
			return nil, err
		}
		tres, err := trace.Replay(m, bytes.NewReader(text.Bytes()), trace.ReplayOptions{Channels: 1, Workers: 1})
		if err != nil {
			return nil, err
		}
		if want, err = encodeJSON(server.TraceResponseFor(tres, w.sampleKey, 1)); err != nil {
			return nil, err
		}
		w.traces = append(w.traces, request{path: "/v1/trace", body: text.Bytes(), want: want})
	}

	mix := newRNG(seed, streamMix)
	for c := 0; c < clients; c++ {
		seq := make([]class, mixSeqLen)
		for i := range seq {
			v := mix.intn(100)
			k := class(0)
			for v >= mixWeights[k] {
				v -= mixWeights[k]
				k++
			}
			seq[i] = k
		}
		w.seqs = append(w.seqs, seq)
		w.pos = append(w.pos, 0)
	}
	parts := [][]byte{w.hot.body}
	for _, set := range [][]request{w.uncached, w.sched, w.traces} {
		for _, r := range set {
			parts = append(parts, r.body)
		}
	}
	for _, seq := range w.seqs {
		b := make([]byte, len(seq))
		for i, k := range seq {
			b[i] = byte(k)
		}
		parts = append(parts, b)
	}
	w.hash = hashInputs(parts...)

	if err := w.start(); err != nil {
		return nil, err
	}
	return w, nil
}

// start runs an in-process dramserved on a loopback port and opens one
// keep-alive connection per client.
func (w *serveMix) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = server.New(server.Options{Workers: workers, CacheSize: serverCache})
	ctx, cancel := context.WithCancel(context.Background())
	w.cancel = cancel
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ctx, ln, 5*time.Second) }()
	w.base = "http://" + ln.Addr().String()
	for c := 0; c < clients; c++ {
		w.http = append(w.http, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return nil
}

// next returns a client's next request.
func (w *serveMix) next(client int) (class, request) {
	i := w.pos[client]
	w.pos[client]++
	return w.pick(client, i)
}

// pick returns the request at position i of a client's class sequence.
// Uncached requests take the next name of one shared cycle, so no name
// repeats before the whole pool has been used.
func (w *serveMix) pick(client, i int) (class, request) {
	k := w.seqs[client][i%mixSeqLen]
	switch k {
	case evalUncached:
		return k, w.coldRequest()
	case schedReq:
		return k, w.sched[i%bodyPool]
	case traceReq:
		return k, w.traces[i%bodyPool]
	}
	return k, w.hot
}

// coldRequest returns the next uncached request of the shared cycle.
func (w *serveMix) coldRequest() request {
	return w.uncached[int(w.nextCold.Add(1)-1)%uncachedPool]
}

// post sends one request over the client's connection and checks the
// response body byte for byte.
func (w *serveMix) post(client int, r request) error {
	resp, err := w.http[client].Post(w.base+r.path, "text/plain", bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", r.path, resp.StatusCode, b)
	}
	if !bytes.Equal(b, r.want) {
		return errMismatch
	}
	return nil
}

func (w *serveMix) call(client int) (int64, error) {
	_, r := w.next(client)
	return 1, w.post(client, r)
}

func (w *serveMix) clients() int     { return clients }
func (w *serveMix) digest() [32]byte { return w.hash }

func (w *serveMix) close() {
	for _, c := range w.http {
		c.CloseIdleConnections()
	}
	w.cancel()
	<-w.served
	w.srv.Close()
}

// ---- paper-sweep ----

type paperSweep struct {
	devs   []*desc.Description
	ref    []byte
	within [2]int
	hash   [32]byte
}

// withinMargin is the Figs. 8-9 agreement margin dramverify applies.
const withinMargin = 0.25

func newPaperSweep(seed uint64) (*paperSweep, error) {
	w := &paperSweep{}
	devs := newRNG(seed, streamDevice)
	var texts [][]byte
	for i := 0; i < sweepDevices; i++ {
		text := deviceText(devs, fmt.Sprintf("perfbench-sweep-%d", i))
		d, err := desc.ParseString(text)
		if err != nil {
			return nil, err
		}
		w.devs = append(w.devs, d)
		texts = append(texts, []byte(text))
	}
	w.hash = hashInputs(texts...)
	var buf bytes.Buffer
	var err error
	if w.within, err = regenerate(&buf, w.devs, engine.Options{Workers: 1}, nil, -1, 0); err != nil {
		return nil, err
	}
	w.ref = buf.Bytes()
	return w, nil
}

// regenerate reruns the paper's evaluation — the Fig. 10 sensitivity
// sweep and the Sec. V scheme comparison on each device, then the Figs.
// 8-9 datasheet comparisons and the Fig. 13 energy trend — rendering
// every number with %.17g into out. It returns the DDR2 and DDR3 points
// within spread. Spans go to tr (nil: untraced) under the root span.
func regenerate(out *bytes.Buffer, devs []*desc.Description, opts engine.Options, tr *tracer, root, op int) ([2]int, error) {
	var within [2]int
	for _, d := range devs {
		s := tr.begin("sensitivity.sweep", root, op)
		sens, err := sensitivity.SweepOpts(d, opts)
		tr.end(s)
		if err != nil {
			return within, err
		}
		for _, r := range sens {
			fmt.Fprintf(out, "sens %s %s %.17g %.17g %.17g\n", d.Name, r.Name, r.DeltaUpPct, r.DeltaDownPct, r.RangePct)
		}
		s = tr.begin("schemes.evaluate", root, op)
		sch, err := schemes.EvaluateOpts(d, opts)
		tr.end(s)
		if err != nil {
			return within, err
		}
		for _, r := range sch {
			fmt.Fprintf(out, "scheme %s %s %.17g %.17g %.17g %.17g %.17g\n", d.Name, r.Name,
				float64(r.EnergyPerBit), r.EnergyDeltaPct, r.DieAreaMM2, r.AreaDeltaPct, float64(r.IDD7))
		}
	}
	for i, std := range []datasheet.Standard{datasheet.DDR2, datasheet.DDR3} {
		s := tr.begin("datasheet.compare", root, op)
		rows, err := datasheet.CompareOpts(std, opts)
		tr.end(s)
		if err != nil {
			return within, err
		}
		for _, c := range rows {
			techs := make([]string, 0, len(c.ModelMA))
			for t := range c.ModelMA {
				techs = append(techs, t)
			}
			sort.Strings(techs)
			fmt.Fprintf(out, "datasheet %s %s", std, c.Point.Label())
			for _, t := range techs {
				fmt.Fprintf(out, " %s=%.17g", t, c.ModelMA[t])
			}
			out.WriteByte('\n')
			if c.WithinSpread(withinMargin) {
				within[i]++
			}
		}
	}
	s := tr.begin("scaling.trend", root, op)
	pts, err := scaling.EnergyTrend(opts)
	tr.end(s)
	if err != nil {
		return within, err
	}
	for _, p := range pts {
		fmt.Fprintf(out, "trend %s %.17g %.17g %.17g\n", p.Node.Name(), p.DieAreaMM2, p.EnergyPerBitPJ, p.GenRatio)
	}
	return within, nil
}

func (w *paperSweep) call(int) (int64, error) {
	var buf bytes.Buffer
	within, err := regenerate(&buf, w.devs, engine.Options{Workers: workers}, nil, -1, 0)
	if err != nil {
		return 1, err
	}
	if within != w.within || !bytes.Equal(buf.Bytes(), w.ref) {
		return 1, errMismatch
	}
	return 1, nil
}

func (w *paperSweep) clients() int     { return 1 }
func (w *paperSweep) digest() [32]byte { return w.hash }
func (w *paperSweep) close()           {}
