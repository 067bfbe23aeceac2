package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "", "Total requests.")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("inflight", "", "In-flight requests.")
	g.Inc()
	g.Inc()
	g.Dec()
	g.Add(10)
	if got := g.Value(); got != 11 {
		t.Fatalf("gauge = %d, want 11", got)
	}
	g.Set(3)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge after Set = %d, want 3", got)
	}
}

func TestLookupReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits_total", `path="/a"`, "")
	b := r.Counter("hits_total", `path="/a"`, "")
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	other := r.Counter("hits_total", `path="/b"`, "")
	if a == other {
		t.Fatal("different labels returned the same counter")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x as gauge after counter did not panic")
		}
	}()
	r.Gauge("x", "", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.1+0.5+2+100; got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		`latency_seconds_bucket{le="0.1"} 2`,
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="10"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		`latency_seconds_count 5`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", Labels("path", "/v1/evaluate", "code", "200"), "Requests served.").Add(7)
	r.Gauge("ready", "", "Readiness.").Set(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		"# HELP requests_total Requests served.",
		"# TYPE requests_total counter",
		`requests_total{path="/v1/evaluate",code="200"} 7`,
		"# TYPE ready gauge",
		"ready 1",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestLabelsEscaping(t *testing.T) {
	got := Labels("msg", `a "quoted" path`+"\n")
	want := `msg="a \"quoted\" path\n"`
	if got != want {
		t.Fatalf("Labels = %s, want %s", got, want)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "", "")
	g := r.Gauge("g", "", "")
	h := r.Histogram("h", "", "", LatencyBuckets)
	var wg sync.WaitGroup
	const workers, perWorker = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.001)
				// Concurrent re-registration must return the same series.
				r.Counter("c", "", "").Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 2*workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, 2*workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Fatalf("gauge = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestConcurrentFirstRegistration registers one histogram from several
// goroutines at once, as the server's handlers do on a path's first
// requests; the race detector checks that the series is published whole.
func TestConcurrentFirstRegistration(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	start := make(chan struct{})
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			r.Histogram("h", "", "", LatencyBuckets).Observe(0.001)
		}()
	}
	close(start)
	wg.Wait()
	if got := r.Histogram("h", "", "", nil).Count(); got != workers {
		t.Fatalf("histogram count = %d, want %d", got, workers)
	}
}
