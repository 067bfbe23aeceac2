package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzServerQuery drives the handler with a fuzzed endpoint and raw query
// string and a small fixed body per endpoint: whatever the query, the
// server must answer below 500. A query is input from outside the
// program, so a parameter it cannot use is a 4xx, never a panic or a 5xx.
// The seeds set every parameter an endpoint reads, one at a time, to a
// legal value and to a hostile one.
func FuzzServerQuery(f *testing.F) {
	s := New(Options{})
	f.Cleanup(s.Close)
	h := s.Handler()
	endpoints := []struct{ method, path, body string }{
		{http.MethodPost, "/v1/evaluate", ""},
		{http.MethodPost, "/v1/sweep", ""},
		{http.MethodPost, "/v1/schemes", ""},
		{http.MethodPost, "/v1/trace", "0 act 0 1\n11 rd 0 1\n28 pre 0\n39 ref\n"},
		{http.MethodPost, "/v1/schedule", "0 r 0x40\n8 w 0x10000\n900 r 0x40\n"},
		{http.MethodGet, "/v1/roadmap", ""},
		{http.MethodGet, "/metrics", ""},
	}
	for _, q := range []string{
		"", "policy=closed", "policy=timeout%3D64", "policy=timeout%3D0", "map=ro:ch:ba:co", "map=ch",
		"pd_timeout=8", "pd_timeout=-1", "sr_after=64", "sr_after=9223372036854775807",
		"refresh_every=89", "refresh_every=88", "max_postponed=1", "max_postponed=4611686018427387904",
		"refresh=off", "refresh=maybe", "replay=off", "replay=2",
		"channels=2", "channels=1024", "channels=0", "channels=1e3",
		"model=0123", "node=55", "node=1e-300", "node=NaN",
		"pattern=act+nop+rd+nop+pre+nop", "pattern=act+jump",
		"calibration=idd0+%3D+58mA", "calibration=op.act.energy+%3D+1e300", "calibration=standby+*%3D+1e308",
		"top=3", "top=-1", "top=99999999999999999999",
		"channels=2&policy=closed&pd_timeout=4&sr_after=200&refresh_every=100&max_postponed=2",
		"%zz=1&;&channels=%", "model=x&calibration=idd0+%3D+1mA",
	} {
		for ep := range endpoints {
			f.Add(uint8(ep), q)
		}
	}
	f.Fuzz(func(t *testing.T, ep uint8, query string) {
		e := endpoints[int(ep)%len(endpoints)]
		req := httptest.NewRequest(e.method, e.path, strings.NewReader(e.body))
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= http.StatusInternalServerError {
			t.Fatalf("%s %s?%s: status %d: %s", e.method, e.path, query, rec.Code, rec.Body)
		}
	})
}
