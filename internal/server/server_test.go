package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drampower/internal/core"
	"drampower/internal/desc"
	"drampower/internal/trace"
)

// newTestServer creates a quiet server plus its httptest frontend.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestEvaluateBitIdenticalToLibrary(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	src := desc.Format(desc.Sample1GbDDR3())
	resp, body := post(t, hs.URL+"/v1/evaluate", src)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}

	// The direct library call, encoded through the same response type,
	// must produce byte-identical JSON.
	d, err := desc.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(EvaluateResponseFor(m, DescriptorKey(d)))
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(body, want) {
		t.Fatalf("served response differs from direct library call:\nserved: %s\nlib:    %s", body, want)
	}
}

func TestEvaluateCacheHitIsByteIdenticalAndBuildFree(t *testing.T) {
	s, hs := newTestServer(t, Options{})
	src := desc.Format(desc.Sample1GbDDR3())

	resp1, miss := post(t, hs.URL+"/v1/evaluate", src)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("miss status %d: %s", resp1.StatusCode, miss)
	}
	buildsAfterMiss := s.cache.builds.Value()
	if buildsAfterMiss != 1 {
		t.Fatalf("builds after first evaluate = %d, want 1", buildsAfterMiss)
	}

	// Re-serve the same descriptor — and a differently formatted but
	// canonically identical one — and require zero additional builds
	// plus byte-identical bodies.
	resp2, hit := post(t, hs.URL+"/v1/evaluate", src)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("hit status %d", resp2.StatusCode)
	}
	respCanon, hitCanon := post(t, hs.URL+"/v1/evaluate", "# leading comment\n\n"+src)
	if respCanon.StatusCode != http.StatusOK {
		t.Fatalf("canonical-hit status %d: %s", respCanon.StatusCode, hitCanon)
	}
	if !bytes.Equal(miss, hit) {
		t.Fatal("cache-hit response differs from cache-miss response")
	}
	if !bytes.Equal(miss, hitCanon) {
		t.Fatal("reformatted descriptor produced a different response")
	}
	if got := s.cache.builds.Value(); got != buildsAfterMiss {
		t.Fatalf("cache hits performed %d extra core.Build calls", got-buildsAfterMiss)
	}
	if s.cache.hits.Value() < 2 {
		t.Fatalf("hits = %d, want >= 2", s.cache.hits.Value())
	}
}

func TestEvaluateParseErrorIsPositioned400(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	resp, body := post(t, hs.URL+"/v1/evaluate", "Name x\nGarbageLine foo\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Line == 0 || e.Error == "" {
		t.Fatalf("error response not positioned: %+v", e)
	}
}

// TestEvaluateRejectsTooManyBanks: a descriptor with more bank address
// bits than desc.MaxBankAddrBits is a 422 naming the field, not a model
// whose trace replays would try to size 2^63 banks.
func TestEvaluateRejectsTooManyBanks(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	d := desc.Sample1GbDDR3()
	d.Spec.BankAddrBits = 63
	resp, body := post(t, hs.URL+"/v1/evaluate", desc.Format(d))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("bankadd=63")) {
		t.Errorf("error body does not name bankadd: %s", body)
	}
}

// TestEvaluateRejectsWideAddresses: row or column address bits beyond
// desc.MaxAddrBits are a 422 naming the field, not a model whose trace
// generators would draw rows below a negative count.
func TestEvaluateRejectsWideAddresses(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	for _, tc := range []struct {
		field string
		set   func(*desc.Specification)
	}{
		{"rowadd=63", func(s *desc.Specification) { s.RowAddrBits = 63 }},
		{"coladd=63", func(s *desc.Specification) { s.ColAddrBits = 63 }},
	} {
		d := desc.Sample1GbDDR3()
		tc.set(&d.Spec)
		resp, body := post(t, hs.URL+"/v1/evaluate", desc.Format(d))
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422: %s", tc.field, resp.StatusCode, body)
		}
		if !bytes.Contains(body, []byte(tc.field)) {
			t.Errorf("error body does not name %s: %s", tc.field, body)
		}
	}
}

func TestEvaluatePatternOverride(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	resp, body := post(t, hs.URL+"/v1/evaluate?pattern=act+nop+rd+nop+pre+nop", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out EvaluateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Pattern != "act nop rd nop pre nop" {
		t.Fatalf("pattern = %q", out.Pattern)
	}
	resp, body = post(t, hs.URL+"/v1/evaluate?pattern=bogus", "")
	if resp.StatusCode != http.StatusBadRequest || string(body) != `{"error":"bad pattern: desc: unknown operation \"bogus\""}`+"\n" {
		t.Fatalf("bad pattern: status %d, body %s, want 400 naming the operation", resp.StatusCode, body)
	}
}

// The document cache memoizes body parsing for plain requests only.
// Requests with pattern or calibration query parameters must bypass it
// in both directions: they neither read a cached entry (pattern mutates
// the description, and cached entries are shared) nor insert one, so a
// plain request after an overridden one still serves the original bytes.
func TestEvaluateDocumentCacheIsolation(t *testing.T) {
	s, hs := newTestServer(t, Options{})
	src := desc.Format(desc.Sample1GbDDR3())

	_, plain1 := post(t, hs.URL+"/v1/evaluate", src)
	if n := len(s.docs.m); n != 1 {
		t.Fatalf("doc cache entries after plain request = %d, want 1", n)
	}

	resp, patterned := post(t, hs.URL+"/v1/evaluate?pattern=act+nop+rd+nop+pre+nop", src)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pattern status %d: %s", resp.StatusCode, patterned)
	}
	if bytes.Equal(plain1, patterned) {
		t.Fatal("pattern override returned the plain response")
	}
	if n := len(s.docs.m); n != 1 {
		t.Fatalf("doc cache entries after pattern request = %d, want 1 (must not insert)", n)
	}

	// The cached entry must be untouched by the override: a plain request
	// for the same body still serves the original bytes, without a parse.
	_, plain2 := post(t, hs.URL+"/v1/evaluate", src)
	if !bytes.Equal(plain1, plain2) {
		t.Fatal("plain response changed after a pattern-override request on the same body")
	}

	// A body differing only in comments is a different byte string, so it
	// occupies its own document-cache slot but shares the model.
	builds := s.cache.builds.Value()
	_, reformatted := post(t, hs.URL+"/v1/evaluate", "# comment\n"+src)
	if !bytes.Equal(plain1, reformatted) {
		t.Fatal("reformatted body produced different response bytes")
	}
	if n := len(s.docs.m); n != 2 {
		t.Fatalf("doc cache entries after reformatted body = %d, want 2", n)
	}
	if got := s.cache.builds.Value(); got != builds {
		t.Fatalf("reformatted body triggered %d extra builds", got-builds)
	}
}

func TestDescriptorBodyLimit(t *testing.T) {
	_, hs := newTestServer(t, Options{MaxDescriptorBytes: 64})
	resp, _ := post(t, hs.URL+"/v1/evaluate", strings.Repeat("x", 1000))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// TestTraceBodyLimitCutsMidLine sends trace and access bodies that
// MaxTraceBytes cuts inside a line. The fragment before the cut is never
// parsed, so both endpoints answer 413, not a 400 about the fragment
// ("unknown operation" for "28 pr", "missing address" for "5 w ").
func TestTraceBodyLimitCutsMidLine(t *testing.T) {
	for _, tc := range []struct{ path, body, kept string }{
		{"/v1/trace", "0 act 0 1\n11 rd 0 1\n28 pre 0 1\n", "0 act 0 1\n11 rd 0 1\n28 pr"},
		{"/v1/schedule", "0 r 0\n5 w 0x40\n", "0 r 0\n5 w "},
	} {
		_, hs := newTestServer(t, Options{MaxTraceBytes: int64(len(tc.kept))})
		resp, body := post(t, hs.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d (%s), want 413", tc.path, resp.StatusCode, body)
		}
	}
}

func TestTraceEndpointMatchesLibraryReplay(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	d := desc.Sample1GbDDR3()
	m, err := core.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	cmds := trace.Streaming(m, 200, 0.7, 1)
	var tr bytes.Buffer
	if err := trace.WriteTrace(&tr, cmds); err != nil {
		t.Fatal(err)
	}

	resp, body := post(t, hs.URL+"/v1/trace", tr.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	res, err := trace.Replay(m, bytes.NewReader(tr.Bytes()), trace.ReplayOptions{Channels: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(TraceResponseFor(res, DescriptorKey(d), 1))
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(body, want) {
		t.Fatalf("served trace result differs from library replay:\nserved: %s\nlib:    %s", body, want)
	}
}

// TestChannelsBound pins the channels bound on both endpoints that take
// it: the largest allowed count still answers, one more is a 400 naming
// the bound before any per-channel state is built.
func TestChannelsBound(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	for _, tc := range []struct {
		path, body string
		status     int
	}{
		{"/v1/trace?channels=1024", "0 act 0 1\n", http.StatusOK},
		{"/v1/trace?channels=1025", "0 act 0 1\n", http.StatusBadRequest},
		{"/v1/schedule?channels=1024", "0 r 0\n", http.StatusOK},
		{"/v1/schedule?channels=1025", "0 r 0\n", http.StatusBadRequest},
		{"/v1/schedule?channels=2048", "0 r 0\n", http.StatusBadRequest},
	} {
		resp, body := post(t, hs.URL+tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d: %s", tc.path, resp.StatusCode, tc.status, body)
			continue
		}
		if tc.status == http.StatusBadRequest && !strings.Contains(string(body), "limit of 1024") {
			t.Errorf("%s: error %s does not name the bound", tc.path, body)
		}
	}
}

func TestTraceByModelKey(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	// Evaluate caches the model and returns its key.
	resp, body := post(t, hs.URL+"/v1/evaluate", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate status %d", resp.StatusCode)
	}
	var ev EvaluateResponse
	if err := json.Unmarshal(body, &ev); err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, hs.URL+"/v1/trace?model="+ev.ModelKey, "0 act 2 17\n11 rd 2 17\n28 pre 2 17\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d: %s", resp.StatusCode, body)
	}
	var out TraceResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.ModelKey != ev.ModelKey || out.Commands != 3 {
		t.Fatalf("trace response %+v", out)
	}
	// An unknown key is 404, pointing at /v1/evaluate.
	resp, body = post(t, hs.URL+"/v1/trace?model=deadbeef", "0 act 0 0\n")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model status %d: %s", resp.StatusCode, body)
	}
}

// A dtb binary trace body under Content-Type application/x-dram-trace
// produces a response byte-identical to the same commands as text —
// encoding is transport, not semantics. A text body under the binary
// Content-Type is a positioned 400 (no silent fallback), and a binary
// body without the Content-Type still works via sniffing.
func TestTraceBinaryBody(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	d := desc.Sample1GbDDR3()
	m, err := core.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	cmds := trace.Streaming(m, 200, 0.7, 1)
	var text, bin bytes.Buffer
	if err := trace.WriteTrace(&text, cmds); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinaryTrace(&bin, cmds); err != nil {
		t.Fatal(err)
	}

	postCT := func(ct string, body []byte) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/trace", ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}

	resp, wantBody := postCT("text/plain", text.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text body status %d: %s", resp.StatusCode, wantBody)
	}
	for name, ct := range map[string]string{
		"declared": TraceBinaryContentType,
		"params":   TraceBinaryContentType + "; charset=binary",
		"sniffed":  "application/octet-stream",
	} {
		resp, body := postCT(ct, bin.Bytes())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s binary body status %d: %s", name, resp.StatusCode, body)
		}
		if !bytes.Equal(body, wantBody) {
			t.Errorf("%s binary replay differs from text replay:\nbinary: %s\ntext:   %s", name, body, wantBody)
		}
	}

	resp, body := postCT(TraceBinaryContentType, text.Bytes())
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("text body declared binary: status %d, want 400: %s", resp.StatusCode, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "dtb") {
		t.Errorf("error %q does not mention the dtb format", e.Error)
	}
}

func TestTraceParseErrorPositioned(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	resp, body := post(t, hs.URL+"/v1/trace", "0 act 0 0\nxx rd 0 0\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Line != 2 {
		t.Fatalf("error line = %d, want 2: %+v", e.Line, e)
	}
}

func TestSweepAndSchemesEndpoints(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	resp, body := post(t, hs.URL+"/v1/sweep?top=5", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	var sw SweepResponse
	if err := json.Unmarshal(body, &sw); err != nil {
		t.Fatal(err)
	}
	if len(sw.Rows) != 5 || sw.Rows[0].RangePct <= 0 {
		t.Fatalf("sweep rows %+v", sw.Rows)
	}
	resp, body = post(t, hs.URL+"/v1/schemes", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schemes status %d: %s", resp.StatusCode, body)
	}
	var sc SchemesResponse
	if err := json.Unmarshal(body, &sc); err != nil {
		t.Fatal(err)
	}
	if len(sc.Rows) < 2 || sc.Rows[0].EnergyDeltaPct != 0 {
		t.Fatalf("schemes rows %+v", sc.Rows)
	}
}

func TestRoadmapEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	resp, err := http.Get(hs.URL + "/v1/roadmap")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var nodes []RoadmapNode
	if err := json.NewDecoder(resp.Body).Decode(&nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes) < 10 || nodes[0].FeatureNm != 170 {
		t.Fatalf("roadmap %d nodes, first %+v", len(nodes), nodes[0])
	}
}

func TestBackpressureReturns429(t *testing.T) {
	// One slot, no queueing: with a request parked in the handler, every
	// concurrent request must be rejected with 429 + Retry-After instead
	// of queueing unboundedly.
	s, hs := newTestServer(t, Options{MaxInflight: 1, QueueWait: -1})
	release := make(chan struct{})
	var inHandler sync.WaitGroup
	inHandler.Add(1)
	s.mux.Handle("POST /v1/block", s.api(func(w http.ResponseWriter, r *http.Request) {
		inHandler.Done()
		<-release
		w.WriteHeader(http.StatusOK)
	}))

	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		if resp, err := http.Post(hs.URL+"/v1/block", "text/plain", nil); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	inHandler.Wait()

	var rejected atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(hs.URL+"/v1/evaluate", "text/plain", nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode == http.StatusTooManyRequests {
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				rejected.Add(1)
			}
		}()
	}
	wg.Wait()
	close(release)
	if rejected.Load() != 8 {
		t.Fatalf("rejected %d of 8 over-capacity requests, want all", rejected.Load())
	}
	if s.rejected.Value() != 8 {
		t.Fatalf("rejected counter = %d, want 8", s.rejected.Value())
	}
	// The slot frees up and the server serves again. The parked
	// request's response comes after its slot is released, so wait for
	// it: posting straight after close(release) could still find the
	// slot taken.
	<-blocked
	resp, body := post(t, hs.URL+"/v1/evaluate", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-overload status %d: %s", resp.StatusCode, body)
	}
}

func TestQueueWaitAdmitsWhenSlotFrees(t *testing.T) {
	s, hs := newTestServer(t, Options{MaxInflight: 1, QueueWait: 5 * time.Second})
	release := make(chan struct{})
	var inHandler sync.WaitGroup
	inHandler.Add(1)
	s.mux.Handle("POST /v1/block", s.api(func(w http.ResponseWriter, r *http.Request) {
		inHandler.Done()
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	go http.Post(hs.URL+"/v1/block", "text/plain", nil)
	inHandler.Wait()

	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(hs.URL+"/v1/evaluate", "text/plain", nil)
		if err != nil {
			done <- -1
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		done <- resp.StatusCode
	}()
	// Let the second request park in the admission queue, then free the
	// slot: it must be admitted and succeed, not 429.
	time.Sleep(50 * time.Millisecond)
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("queued request finished with %d, want 200", code)
	}
}

func TestTraceTimeoutMidStreamReturns504(t *testing.T) {
	// The per-request deadline firing in the middle of a streamed trace
	// body must be reported as a 504 timeout, not a 400 parse error: the
	// scanner wraps the context error in a positioned trace.ParseError,
	// and writeParseAwareError has to see through the wrapper.
	_, hs := newTestServer(t, Options{RequestTimeout: 100 * time.Millisecond})
	pr, pw := io.Pipe()
	defer pr.Close()
	go func() {
		// Trickle valid lines well past the deadline so the server is
		// mid-stream (reads keep succeeding) when it fires, then end the
		// body so the client finishes promptly after the early response.
		defer pw.Close()
		for slot := int64(0); slot < 100*60; slot += 100 {
			if _, err := pw.Write([]byte(fmt.Sprintf("%d ref\n", slot))); err != nil {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/trace", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("mid-stream timeout status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "timed out") {
		t.Fatalf("body %q does not mention the timeout", body)
	}
}

func TestQueuedClientCancelNotCountedRejected(t *testing.T) {
	// A client that gives up while parked in the admission queue is not an
	// overload rejection: the rejected counter must not move and the
	// request must not be answered 429 (it is logged as a 499 instead).
	s, hs := newTestServer(t, Options{MaxInflight: 1, QueueWait: 5 * time.Second})
	release := make(chan struct{})
	var inHandler sync.WaitGroup
	inHandler.Add(1)
	s.mux.Handle("POST /v1/block", s.api(func(w http.ResponseWriter, r *http.Request) {
		inHandler.Done()
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	go http.Post(hs.URL+"/v1/block", "text/plain", nil)
	inHandler.Wait()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/evaluate", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	// Let the request park in the queue, then hang up.
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued request returned %v, want context.Canceled", err)
	}
	close(release)
	if got := s.rejected.Value(); got != 0 {
		t.Fatalf("rejected counter = %d after client cancel, want 0", got)
	}
	// The slot was never handed to the cancelled request; the server still
	// serves normally.
	resp, body := post(t, hs.URL+"/v1/evaluate", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel status %d: %s", resp.StatusCode, body)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s, hs := newTestServer(t, Options{})
	get := func(path string) int {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if get("/healthz") != http.StatusOK {
		t.Fatal("healthz not 200")
	}
	if get("/readyz") != http.StatusServiceUnavailable {
		t.Fatal("readyz should be 503 before Serve")
	}
	s.SetReady(true)
	if get("/readyz") != http.StatusOK {
		t.Fatal("readyz not 200 when ready")
	}
	s.SetReady(false)
	if get("/readyz") != http.StatusServiceUnavailable {
		t.Fatal("readyz not 503 when draining")
	}
}

func TestServeDrainsInflightRequests(t *testing.T) {
	// Cancel the serve context while a request is in flight: Serve must
	// flip readiness, wait for the response to finish, and return nil.
	s := New(Options{})
	defer s.Close()
	release := make(chan struct{})
	s.mux.Handle("POST /v1/block", s.api(func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.Write([]byte("drained ok"))
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln, 5*time.Second) }()

	url := "http://" + ln.Addr().String()
	waitReady(t, url)

	respCh := make(chan string, 1)
	go func() {
		resp, err := http.Post(url+"/v1/block", "text/plain", nil)
		if err != nil {
			respCh <- "error: " + err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		respCh <- string(b)
	}()
	// Wait until the request is parked in the handler, then start the
	// drain; the in-flight request must still complete.
	waitInflight(t, s)
	cancel()
	time.Sleep(50 * time.Millisecond) // shutdown under way
	close(release)
	if got := <-respCh; got != "drained ok" {
		t.Fatalf("in-flight request got %q, want full response", got)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v after drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
}

func waitReady(t *testing.T, url string) {
	t.Helper()
	for i := 0; i < 100; i++ {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("server never became ready")
}

func waitInflight(t *testing.T, s *Server) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if s.inflight.Value() > 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("request never entered the handler")
}

func TestMetricsExposition(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	post(t, hs.URL+"/v1/evaluate", "")
	post(t, hs.URL+"/v1/evaluate", "")
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	out := string(b)
	for _, want := range []string{
		"dramserved_model_cache_hits_total 1",
		"dramserved_model_cache_misses_total 1",
		"dramserved_model_builds_total 1",
		`dramserved_requests_total{path="/v1/evaluate",code="200"} 2`,
		`dramserved_request_seconds_bucket{path="/v1/evaluate",le="+Inf"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestAccessLogAndRequestID(t *testing.T) {
	var buf syncBuffer
	_, hs := newTestServer(t, Options{AccessLog: &buf})
	resp, _ := post(t, hs.URL+"/v1/evaluate", "")
	id := resp.Header.Get("X-Request-Id")
	if id == "" {
		t.Fatal("no X-Request-Id header")
	}
	var rec map[string]any
	line := strings.TrimSpace(buf.String())
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("access log line %q: %v", line, err)
	}
	if rec["request_id"] != id || rec["path"] != "/v1/evaluate" || rec["status"] != float64(200) {
		t.Fatalf("access record %v", rec)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for log capture.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestConcurrentMixedTraffic(t *testing.T) {
	// A race-detector workout across every endpoint at once.
	_, hs := newTestServer(t, Options{MaxInflight: 8, CacheSize: 2})
	paths := []struct{ path, body string }{
		{"/v1/evaluate", ""},
		{"/v1/evaluate", "Name other\n"}, // parse error; exercises 400 path
		{"/v1/trace", "0 act 2 17\n11 rd 2 17\n28 pre 2 17\n"},
		{"/v1/sweep?top=3", ""},
		{"/v1/schemes", ""},
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				p := paths[(w+i)%len(paths)]
				resp, err := http.Post(hs.URL+p.path, "text/plain", strings.NewReader(p.body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= 500 {
					t.Errorf("%s: status %d", p.path, resp.StatusCode)
					return
				}
			}
			// Interleave reads of the metrics endpoint.
			resp, err := http.Get(hs.URL + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	wg.Wait()
}

func TestMethodNotAllowed(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	resp, err := http.Get(hs.URL + "/v1/evaluate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/evaluate = %d, want 405", resp.StatusCode)
	}
}

// Acceptance: a ~90%-power-down-residency trace served through /v1/trace
// reports the power-state breakdown bit-identically to the library replay,
// with the background within the residency-weighted sum, and the trace
// residency counters exported on /metrics.
func TestTracePowerStateBreakdownAndMetrics(t *testing.T) {
	s, hs := newTestServer(t, Options{})
	d := desc.Sample1GbDDR3()
	m, err := core.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	cmds := trace.WithPowerDown(m, trace.RefreshOnly(m, 50), 1)
	var tr bytes.Buffer
	if err := trace.WriteTrace(&tr, cmds); err != nil {
		t.Fatal(err)
	}

	resp, body := post(t, hs.URL+"/v1/trace", tr.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	res, err := trace.Replay(m, bytes.NewReader(tr.Bytes()), trace.ReplayOptions{Channels: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(TraceResponseFor(res, DescriptorKey(d), 1))
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(body, want) {
		t.Fatalf("served power-state result differs from library replay:\nserved: %s\nlib:    %s", body, want)
	}

	var out TraceResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if share := float64(out.PowerDownSlots) / float64(out.Slots); share < 0.9 {
		t.Errorf("power-down residency %.2f, want >= 0.9", share)
	}
	if out.Counts["pde"] == 0 || out.Counts["pde"] != out.Counts["pdx"] {
		t.Errorf("power-state counts: %v", out.Counts)
	}
	clock := float64(m.D.Spec.ControlClock)
	wantBg := float64(m.Background().Power)*(float64(out.ActiveSlots+out.PrechargedSlots)/clock) +
		float64(m.PowerDownPower())*(float64(out.PowerDownSlots)/clock)
	if gotBg := out.BackgroundJ; gotBg < 0.95*wantBg || gotBg > 1.05*wantBg {
		t.Errorf("served background %g outside 5%% of residency-weighted %g", gotBg, wantBg)
	}

	// The residency counters feed the metrics endpoint.
	if got := s.traceSlots.Value(); got != res.Slots {
		t.Errorf("trace_slots_total = %d, want %d", got, res.Slots)
	}
	if got := s.tracePowerDownSlots.Value(); got != res.PowerDownSlots {
		t.Errorf("trace_powerdown_slots_total = %d, want %d", got, res.PowerDownSlots)
	}
	if got := s.traceSelfRefreshSlots.Value(); got != 0 {
		t.Errorf("trace_selfrefresh_slots_total = %d, want 0", got)
	}
	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"dramserved_trace_slots_total",
		"dramserved_trace_powerdown_slots_total",
		"dramserved_trace_selfrefresh_slots_total",
	} {
		if !strings.Contains(string(mb), series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
}

// The IDD block served by /v1/evaluate includes the self-refresh current.
func TestEvaluateReportsIDD6(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	resp, body := post(t, hs.URL+"/v1/evaluate", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out EvaluateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.IDDMA.IDD6 <= 0 || out.IDDMA.IDD6 >= out.IDDMA.IDD2P {
		t.Errorf("IDD6 %.3f mA should be positive and below IDD2P %.3f mA", out.IDDMA.IDD6, out.IDDMA.IDD2P)
	}
}
