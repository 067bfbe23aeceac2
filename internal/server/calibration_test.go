package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"drampower/internal/desc"
)

const testOverlay = "Calibration measured\nidd0 = 58mA\nop.rd.energy *= 1.07\n"

func TestCalibratedKeyDistinguishesOverlays(t *testing.T) {
	d := desc.Sample1GbDDR3()
	ov1, err := desc.ParseOverlayString("idd0 = 58mA\n")
	if err != nil {
		t.Fatal(err)
	}
	ov2, err := desc.ParseOverlayString("idd0 = 59mA\n")
	if err != nil {
		t.Fatal(err)
	}
	base := DescriptorKey(d)
	k0 := CalibratedKey(d, nil)
	kEmpty := CalibratedKey(d, &desc.Overlay{Name: "noop"})
	k1 := CalibratedKey(d, ov1)
	k2 := CalibratedKey(d, ov2)
	if k0 != base || kEmpty != base {
		t.Errorf("empty overlays must collapse onto DescriptorKey: %s / %s vs %s", k0, kEmpty, base)
	}
	if k1 == base || k2 == base || k1 == k2 {
		t.Errorf("calibrated keys not distinct: base=%s k1=%s k2=%s", base, k1, k2)
	}
}

// TestEvaluateCalibrationBodySection checks a combined descriptor +
// Calibration body: the response flags the calibration, the model key
// differs from the uncalibrated one, and the cache serves both models
// without cross-contamination.
func TestEvaluateCalibrationBodySection(t *testing.T) {
	s, hs := newTestServer(t, Options{})
	src := desc.Format(desc.Sample1GbDDR3())

	resp, body := post(t, hs.URL+"/v1/evaluate", src)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain: status %d: %s", resp.StatusCode, body)
	}
	var plain EvaluateResponse
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}

	resp, body = post(t, hs.URL+"/v1/evaluate", src+"\n"+testOverlay)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("calibrated: status %d: %s", resp.StatusCode, body)
	}
	var calib EvaluateResponse
	if err := json.Unmarshal(body, &calib); err != nil {
		t.Fatal(err)
	}

	if !calib.Calibrated || calib.Calibration != "measured" {
		t.Errorf("calibrated flags wrong: %+v", calib)
	}
	if plain.Calibrated || plain.Calibration != "" {
		t.Errorf("plain response carries calibration flags: %+v", plain)
	}
	if calib.ModelKey == plain.ModelKey {
		t.Error("calibrated and uncalibrated responses share a model key")
	}
	if calib.IDDMA.IDD0 != 58 {
		t.Errorf("calibrated idd0 = %v mA, want 58", calib.IDDMA.IDD0)
	}
	if calib.IDDMA.IDD0 == plain.IDDMA.IDD0 {
		t.Error("calibration did not move idd0")
	}
	if s.cache.len() != 2 {
		t.Errorf("cache holds %d entries, want 2", s.cache.len())
	}

	// Re-posting the plain descriptor must hit the uncalibrated entry and
	// reproduce the original bytes — no cross-contamination.
	resp, again := post(t, hs.URL+"/v1/evaluate", src)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: status %d", resp.StatusCode)
	}
	var replay EvaluateResponse
	if err := json.Unmarshal(again, &replay); err != nil {
		t.Fatal(err)
	}
	if replay.ModelKey != plain.ModelKey || replay.IDDMA.IDD0 != plain.IDDMA.IDD0 {
		t.Error("uncalibrated model contaminated by calibrated build")
	}
}

func TestEvaluateCalibrationQueryParam(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	q := url.QueryEscape("idd0 = 58mA;op.rd.energy *= 1.07")
	resp, body := post(t, hs.URL+"/v1/evaluate?calibration="+q, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out EvaluateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Calibrated || out.IDDMA.IDD0 != 58 {
		t.Errorf("query calibration not applied: %+v", out)
	}

	// Query + body section together is ambiguous.
	src := desc.Format(desc.Sample1GbDDR3())
	resp, body = post(t, hs.URL+"/v1/evaluate?calibration="+q, src+"\n"+testOverlay)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("query+body: status %d, want 400: %s", resp.StatusCode, body)
	}

	// A bad overlay is a positioned 400.
	resp, body = post(t, hs.URL+"/v1/evaluate?calibration="+url.QueryEscape("bogus = 1mA"), "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad overlay: status %d: %s", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Line < 1 {
		t.Errorf("bad overlay error not positioned: %s", body)
	}
}

func TestServerDefaultCalibration(t *testing.T) {
	ov, err := desc.ParseOverlayString("idd0 = 58mA\n")
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Options{Calibration: ov})
	resp, body := post(t, hs.URL+"/v1/evaluate", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out EvaluateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Calibrated || out.IDDMA.IDD0 != 58 {
		t.Errorf("server default calibration not applied: %+v", out)
	}

	// A request-scoped overlay overrides the server default.
	q := url.QueryEscape("idd0 = 60mA")
	resp, body = post(t, hs.URL+"/v1/evaluate?calibration="+q, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.IDDMA.IDD0 != 60 {
		t.Errorf("request overlay did not override default: %+v", out)
	}
}

func TestSweepCalibrationFlag(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	src := desc.Format(desc.Sample1GbDDR3())
	resp, body := post(t, hs.URL+"/v1/sweep?top=3", src+"\nCalibration\nstandby *= 0.9\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out SweepResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Calibrated || len(out.Rows) != 3 {
		t.Errorf("calibrated sweep response: %+v", out)
	}
}

func TestSchemesRejectCalibration(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	src := desc.Format(desc.Sample1GbDDR3())
	resp, body := post(t, hs.URL+"/v1/schemes", src+"\n"+testOverlay)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("body overlay: status %d, want 400: %s", resp.StatusCode, body)
	}
	resp, body = post(t, hs.URL+"/v1/schemes?calibration="+url.QueryEscape("idd0=58mA"), src)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("query overlay: status %d, want 400: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "not supported") {
		t.Errorf("rejection does not explain itself: %s", body)
	}
}

// TestTraceCalibration checks the replay path: a calibration query
// parameter builds a calibrated model, the response is flagged, and a
// standby scaling moves the background energy. model= with calibration=
// is rejected as contradictory.
func TestTraceCalibration(t *testing.T) {
	s, hs := newTestServer(t, Options{})
	traceText := "0 act 0 1\n11 rd 0 1\n28 pre 0 1\n100 nop\n"

	resp, body := post(t, hs.URL+"/v1/trace", traceText)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain: status %d: %s", resp.StatusCode, body)
	}
	var plain TraceResponse
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}

	q := url.QueryEscape("standby *= 0.5")
	resp, body = post(t, hs.URL+"/v1/trace?calibration="+q, traceText)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("calibrated: status %d: %s", resp.StatusCode, body)
	}
	var calib TraceResponse
	if err := json.Unmarshal(body, &calib); err != nil {
		t.Fatal(err)
	}
	if !calib.Calibrated || plain.Calibrated {
		t.Errorf("calibrated flags: plain=%v calib=%v", plain.Calibrated, calib.Calibrated)
	}
	if calib.ModelKey == plain.ModelKey {
		t.Error("calibrated trace shares the uncalibrated model key")
	}
	if got, want := calib.BackgroundJ, plain.BackgroundJ*0.5; got <= want*0.999999 || got >= want*1.000001 {
		t.Errorf("calibrated background energy %v, want %v", got, want)
	}
	if calib.CommandEnergyJ != plain.CommandEnergyJ {
		t.Error("standby calibration moved command energy")
	}
	if s.cache.len() != 2 {
		t.Errorf("cache holds %d entries, want 2", s.cache.len())
	}

	// model= + calibration= is contradictory.
	resp, body = post(t, hs.URL+"/v1/trace?model="+plain.ModelKey+"&calibration="+q, traceText)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("model+calibration: status %d, want 400: %s", resp.StatusCode, body)
	}
}

// TestCalibrationCeiling: a calibration that sets or scales any key to
// a huge but finite value is a 4xx naming the key on every endpoint that
// takes one, not a model whose reports overflow to infinity and fail to
// encode as a 500.
func TestCalibrationCeiling(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	for _, key := range desc.OverlayKeys() {
		for _, entry := range []string{key + " = 1e300", key + " *= 1e308"} {
			for _, path := range []string{"/v1/evaluate", "/v1/sweep", "/v1/trace"} {
				resp, body := post(t, hs.URL+path+"?calibration="+url.QueryEscape(entry), "")
				if resp.StatusCode < 400 || resp.StatusCode >= 500 {
					t.Errorf("%s %q: status %d, want 4xx: %s", path, entry, resp.StatusCode, body)
				} else if !strings.Contains(string(body), key+":") {
					t.Errorf("%s %q: the error does not name the key: %s", path, entry, body)
				}
			}
		}
	}
}

// TestCalibratedBuildsCounter checks the dramserved_calibrated_builds_total
// metric counts only overlay-applying builds, once per cache miss.
func TestCalibratedBuildsCounter(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	metric := func() string {
		resp, err := http.Get(hs.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "dramserved_calibrated_builds_total") {
				return line
			}
		}
		return ""
	}

	post(t, hs.URL+"/v1/evaluate", "")
	if got := metric(); !strings.HasSuffix(got, " 0") {
		t.Errorf("after plain build: %q, want 0", got)
	}
	q := url.QueryEscape("idd0 = 58mA")
	post(t, hs.URL+"/v1/evaluate?calibration="+q, "")
	post(t, hs.URL+"/v1/evaluate?calibration="+q, "") // cache hit, no build
	if got := metric(); !strings.HasSuffix(got, " 1") {
		t.Errorf("after calibrated build + hit: %q, want 1", got)
	}
}
