package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"drampower/internal/core"
	"drampower/internal/ctl"
	"drampower/internal/desc"
	"drampower/internal/trace"
)

// genAccessTrace renders a deterministic synthetic access stream against
// the sample device, shared by the bit-identity and golden tests.
func genAccessTrace(t *testing.T, m *core.Model, n int, rowHit float64, gap int64) ([]ctl.Request, string) {
	t.Helper()
	reqs, err := ctl.GenerateAccesses(m, ctl.GenOptions{
		N: n, RowHit: rowHit, ReadShare: 0.7, Gap: gap, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ctl.WriteAccessTrace(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	return reqs, buf.String()
}

// TestScheduleEndpointMatchesLibrary pins the bit-identity contract: the
// served response is exactly json.Marshal of ScheduleResponseFor over a
// direct library schedule-and-replay.
func TestScheduleEndpointMatchesLibrary(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	d := desc.Sample1GbDDR3()
	m, err := core.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	reqs, text := genAccessTrace(t, m, 400, 0.6, 12)

	resp, body := post(t, hs.URL+"/v1/schedule?policy=timeout=64&pd_timeout=32", text)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}

	opts := ctl.Options{
		Policy: ctl.PolicyTimeout, PageTimeout: 64,
		PowerDownAfter: 32, Channels: 1,
	}
	cmds, stats, err := ctl.ScheduleRequests(m, reqs, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := trace.NewReplayer(m, trace.ReplayOptions{Channels: 1})
	if err := rep.ReplaySource(trace.NewSliceSource(cmds)); err != nil {
		t.Fatal(err)
	}
	res := rep.Result(rep.Now() + int64(m.BurstSlots()))
	want, err := json.Marshal(ScheduleResponseFor(stats, res, DescriptorKey(d), 1, "timeout=64", ctl.DefaultMap))
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(body, want) {
		t.Fatalf("served schedule result differs from direct library call:\nserved: %s\nlib:    %s", body, want)
	}
}

// A .dab binary access trace under Content-Type application/x-dram-access
// produces a response byte-identical to the same requests as text; a text
// body declared binary is a positioned 400; an undeclared binary body
// still works via sniffing.
func TestScheduleBinaryBody(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	m, err := core.Build(desc.Sample1GbDDR3())
	if err != nil {
		t.Fatal(err)
	}
	reqs, text := genAccessTrace(t, m, 200, 0.5, 10)
	var bin bytes.Buffer
	if err := ctl.WriteBinaryAccessTrace(&bin, reqs); err != nil {
		t.Fatal(err)
	}

	postCT := func(ct string, body []byte) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/schedule?policy=closed", ct, bytes.NewReader(body))
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

	resp, wantBody := postCT("text/plain", []byte(text))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text body status %d: %s", resp.StatusCode, wantBody)
	}
	for name, ct := range map[string]string{
		"declared": AccessBinaryContentType,
		"params":   AccessBinaryContentType + "; charset=binary",
		"sniffed":  "application/octet-stream",
	} {
		resp, body := postCT(ct, bin.Bytes())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s binary body status %d: %s", name, resp.StatusCode, body)
		}
		if !bytes.Equal(body, wantBody) {
			t.Errorf("%s binary schedule differs from text schedule:\nbinary: %s\ntext:   %s", name, body, wantBody)
		}
	}

	resp, body := postCT(AccessBinaryContentType, []byte(text))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("text body declared binary: status %d, want 400: %s", resp.StatusCode, body)
	}
}

// TestScheduleResponseShape checks the controller-side fields the trace
// endpoint doesn't have: canonical policy echo, resolved map spec, the
// row-buffer outcome split, and the metrics counters.
func TestScheduleResponseShape(t *testing.T) {
	s, hs := newTestServer(t, Options{})
	m, err := core.Build(desc.Sample1GbDDR3())
	if err != nil {
		t.Fatal(err)
	}
	_, text := genAccessTrace(t, m, 300, 0.9, 8)

	resp, body := post(t, hs.URL+"/v1/schedule", text)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out ScheduleResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Policy != "open" || out.Map != ctl.DefaultMap || out.Channels != 1 {
		t.Fatalf("defaults not echoed: %+v", out)
	}
	if out.Schedule.Requests != 300 ||
		out.Schedule.RowHits+out.Schedule.RowMisses+out.Schedule.RowConflicts != 300 {
		t.Fatalf("row outcomes don't cover the requests: %+v", out.Schedule)
	}
	if out.RowHitRate < 0.5 {
		t.Fatalf("row-hit rate %.2f under a 0.9-locality stream", out.RowHitRate)
	}
	if out.Commands != out.Schedule.Commands || out.TotalJ <= 0 {
		t.Fatalf("replay accounting inconsistent: %+v", out)
	}
	if got := s.scheduleRequests.Value(); got != 300 {
		t.Fatalf("scheduleRequests counter = %d, want 300", got)
	}
	if got := s.scheduleRowHits.Value(); got != out.Schedule.RowHits {
		t.Fatalf("scheduleRowHits counter = %d, want %d", got, out.Schedule.RowHits)
	}
	if got := s.scheduleCommands.Value(); got != out.Schedule.Commands {
		t.Fatalf("scheduleCommands counter = %d, want %d", got, out.Schedule.Commands)
	}

	// The non-default knobs are echoed canonically. A sparser stream
	// (gap 200) leaves room for the 48-slot power-down threshold.
	_, sparse := genAccessTrace(t, m, 300, 0.9, 200)
	resp, body = post(t, hs.URL+"/v1/schedule?policy=closed&map=ro:ch:ba:co&channels=2&pd_timeout=48", sparse)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Policy != "closed" || out.Map != "ro:ch:ba:co" || out.Channels != 2 {
		t.Fatalf("knobs not echoed: %+v", out)
	}
	if out.Schedule.RowHits != 0 {
		t.Fatalf("closed policy reported %d row hits", out.Schedule.RowHits)
	}
	if out.Schedule.PowerDowns == 0 {
		t.Fatal("pd_timeout=48 inserted no power-downs on a gap-8 closed-page stream")
	}
	if out.PowerDownSlots == 0 {
		t.Fatal("replay saw no power-down residency")
	}
}

// TestScheduleReplayParam pins the replay query parameter: the default
// and replay=on replay the scheduled commands in place (fused pipeline)
// and are byte-identical; replay=off schedules only, returning the same
// scheduler stats with zeroed energy accounting; anything else is a 400.
// The batch/replay counters track the streamed rounds.
func TestScheduleReplayParam(t *testing.T) {
	s, hs := newTestServer(t, Options{})
	m, err := core.Build(desc.Sample1GbDDR3())
	if err != nil {
		t.Fatal(err)
	}
	_, text := genAccessTrace(t, m, 300, 0.7, 10)

	resp, def := post(t, hs.URL+"/v1/schedule?policy=closed", text)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, def)
	}
	resp, on := post(t, hs.URL+"/v1/schedule?policy=closed&replay=on", text)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay=on status %d: %s", resp.StatusCode, on)
	}
	if !bytes.Equal(def, on) {
		t.Fatalf("replay=on differs from the default:\non:      %s\ndefault: %s", on, def)
	}
	if got := s.scheduleReplays.Value(); got != 2 {
		t.Fatalf("scheduleReplays counter = %d, want 2", got)
	}
	batches := s.scheduleBatches.Value()
	if batches == 0 {
		t.Fatal("no command batches counted through the pipeline")
	}

	resp, off := post(t, hs.URL+"/v1/schedule?policy=closed&replay=off", text)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay=off status %d: %s", resp.StatusCode, off)
	}
	var outOn, outOff ScheduleResponse
	if err := json.Unmarshal(on, &outOn); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(off, &outOff); err != nil {
		t.Fatal(err)
	}
	if outOff.Schedule != outOn.Schedule {
		t.Fatalf("replay=off changed scheduler stats:\noff: %+v\non:  %+v", outOff.Schedule, outOn.Schedule)
	}
	if outOn.TotalJ <= 0 {
		t.Fatalf("replay=on reported no energy: %+v", outOn)
	}
	if outOff.TotalJ != 0 || outOff.Slots != 0 {
		t.Fatalf("replay=off still carries energy accounting: %+v", outOff)
	}
	if got := s.scheduleReplays.Value(); got != 2 {
		t.Fatalf("replay=off bumped scheduleReplays to %d", got)
	}
	if got := s.scheduleBatches.Value(); got <= batches {
		t.Fatalf("replay=off streamed no batches (counter %d -> %d)", batches, got)
	}

	resp, body := post(t, hs.URL+"/v1/schedule?replay=maybe", text)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("replay=maybe status %d, want 400: %s", resp.StatusCode, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "replay") {
		t.Fatalf("error %q does not mention replay", e.Error)
	}
}

func TestScheduleErrors(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	for name, tc := range map[string]struct {
		path   string
		body   string
		status int
		substr string
	}{
		"bad-policy":    {"/v1/schedule?policy=fifo", "0 r 0\n", 400, "unknown policy"},
		"bad-window":    {"/v1/schedule?policy=timeout=0", "0 r 0\n", 400, "page timeout"},
		"bad-map":       {"/v1/schedule?map=ro:ba", "0 r 0\n", 400, "map"},
		"bad-channels":  {"/v1/schedule?channels=3", "0 r 0\n", 400, "power of two"},
		"bad-pd":        {"/v1/schedule?pd_timeout=-1", "0 r 0\n", 400, "pd_timeout"},
		"bad-sr":        {"/v1/schedule?sr_after=x", "0 r 0\n", 400, "sr_after"},
		"out-of-order":  {"/v1/schedule", "10 r 0\n5 r 0\n", 400, "order"},
		"addr-overflow": {"/v1/schedule", "0 r 0x7fffffffffffffff\n", 400, "address"},
		"unknown-model": {"/v1/schedule?model=deadbeef", "0 r 0\n", 404, "not cached"},
		// Slot-valued options and request slots past the controller's
		// 2^61-slot horizon.
		"horizon-timeout":       {"/v1/schedule?policy=timeout=9223372036854775807", "0 r 0\n", 400, "PageTimeout"},
		"horizon-pd":            {"/v1/schedule?pd_timeout=9223372036854775807", "0 r 0\n", 400, "PowerDownAfter"},
		"horizon-sr":            {"/v1/schedule?sr_after=9223372036854775807", "0 r 0\n", 400, "SelfRefreshAfter"},
		"horizon-refresh-every": {"/v1/schedule?refresh_every=9223372036854775807", "0 r 0\n", 400, "RefreshEvery"},
		"horizon-max-postponed": {"/v1/schedule?max_postponed=9223372036854775807", "0 r 0\n", 400, "MaxPostponed"},
		"horizon-slot":          {"/v1/schedule", "0 r 0\n2305843009213693953 r 0\n", 400, "horizon"},
	} {
		t.Run(name, func(t *testing.T) {
			resp, body := post(t, hs.URL+tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(e.Error, tc.substr) {
				t.Fatalf("error %q does not contain %q", e.Error, tc.substr)
			}
		})
	}

	// A malformed access trace is a positioned 400.
	resp, body := post(t, hs.URL+"/v1/schedule", "0 r 0\nzz r 0\n")
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
