package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed library call of the traced run. Parent is the index
// of the span it belongs to (-1 for an op's root); Op numbers the op
// within its workload. Alloc is the heap allocated during the call.
type span struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Op       int    `json:"op"`
	Alloc    uint64 `json:"alloc_bytes"`
}

// tracer keeps a workload's spans in memory until the run ends. A nil
// tracer records nothing, so the same decomposition code runs traced and
// untraced and the difference is the tracing overhead.
type tracer struct {
	workload string
	t0       time.Time
	rc       *runtimeCounters
	spans    []span
	// counts are work counts recorded at the same call boundaries.
	counts map[string]int64
	// The VM's steal and the process CPU when tracing began, and the
	// delivered share over the traced ops once finish has run: span
	// durations are scaled by it, as the timed run scales wall times.
	steal0, cpu0 float64
	delivered    float64
}

func newTracer(workload string) (*tracer, error) {
	steal, cpu, err := clocks()
	return &tracer{workload: workload, t0: time.Now(), rc: newRuntimeCounters(), counts: map[string]int64{},
		steal0: steal, cpu0: cpu}, err
}

// finish closes the traced period and fixes its delivered share.
func (t *tracer) finish() error {
	steal, cpu, err := clocks()
	t.delivered = deliveredShare(cpu-t.cpu0, steal-t.steal0)
	return err
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	alloc, _, _ := t.rc.read()
	t.spans = append(t.spans, span{Workload: t.workload, Name: name, Parent: parent, Op: op,
		Start: int64(time.Since(t.t0)), Alloc: alloc})
	return len(t.spans) - 1
}

// count adds n to the named work count.
func (t *tracer) count(name string, n int64) {
	if t != nil {
		t.counts[name] += n
	}
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	alloc, _, _ := t.rc.read()
	s := &t.spans[i]
	s.End = now
	s.Alloc = alloc - s.Alloc
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	calls int
	dur   float64 // summed duration, ns, steal excluded
	self  float64 // summed self time, ns, steal excluded
	alloc uint64
}

// layers sums duration, self time and allocation by span name. A span's
// self time is its duration minus its children's. Most children run
// inside their parent; a few are re-runs of work the parent does
// internally (Mapper.Map inside ScheduleInto, the handler behind a
// loopback round trip), attributed to it the same way.
func (t *tracer) layers() (map[string]*layerStat, []string) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerStat{}
	var order []string
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
			order = append(order, s.Name)
		}
		d := s.End - s.Start
		st.calls++
		st.dur += float64(d) * t.delivered
		st.self += float64(d-child[i]) * t.delivered
		st.alloc += s.Alloc
	}
	return out, order
}

// writeSpans writes every span as one JSON line.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
