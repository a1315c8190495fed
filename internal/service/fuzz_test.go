package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"pjds/internal/telemetry"
)

// fuzzMaxDim bounds the dimensions a fuzzed size line may declare. The
// reader accepts up to 2^28 rows from a few header bytes, and declared
// rows cost O(rows) memory, so a mutated header digit would otherwise
// make one input allocate gigabytes.
const fuzzMaxDim = 1 << 16

// declaresAbove reports whether body's MatrixMarket size line (the
// first non-blank, non-comment line after the banner, as the reader
// finds it) declares a dimension or entry count above limit.
func declaresAbove(body []byte, limit int) bool {
	lines := strings.Split(string(body), "\n")
	for _, line := range lines[1:] {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "%") {
			continue
		}
		f := strings.Fields(t)
		for _, w := range f[:min(3, len(f))] {
			if v, err := strconv.Atoi(w); err == nil && v > limit {
				return true
			}
		}
		return false
	}
	return false
}

// FuzzAddMatrix: no upload body panics AddMatrix, and a body it
// accepts uploads a second time as Shared under the same ID. Each input
// gets a fresh server; inputs whose size line declares more than
// fuzzMaxDim rows, columns or entries are skipped. The seed corpus is
// in testdata/fuzz/FuzzAddMatrix.
func FuzzAddMatrix(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		if declaresAbove(body, fuzzMaxDim) {
			return
		}
		s := New(Config{Registry: telemetry.NewRegistry(), Devices: 1})
		defer s.Close()
		info, err := s.AddMatrix("first", bytes.NewReader(body))
		if err != nil {
			return
		}
		again, err := s.AddMatrix("second", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%q: accepted once, then %v", body, err)
		}
		if !again.Shared || again.ID != info.ID {
			t.Fatalf("%q: second upload %+v, want Shared with ID %s", body, again, info.ID)
		}
	})
}

// FuzzRequestHeaders: no X-Deadline-Ms, X-Tenant or ?name= value
// panics the API. The name arrives as the raw query, so hostile
// escapes reach the query parser. An upload of a valid body succeeds
// whatever its name; an X-Deadline-Ms that is not a positive duration
// a time.Duration holds gets 400, and the request under any other
// deadline is served or times out.
// Each input gets a fresh server. The seed corpus is in
// testdata/fuzz/FuzzRequestHeaders.
func FuzzRequestHeaders(f *testing.F) {
	const body = "%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 4\n2 2 4\n3 3 4\n1 3 -1\n"
	f.Fuzz(func(t *testing.T, deadline, tenant, name string) {
		s := New(Config{Registry: telemetry.NewRegistry(), Devices: 1})
		defer s.Close()
		h := s.APIHandler()
		serve := func(method, path, rawQuery, reqBody string) *httptest.ResponseRecorder {
			r := httptest.NewRequest(method, path, strings.NewReader(reqBody))
			r.URL.RawQuery = rawQuery
			r.Header.Set(HeaderTenant, tenant)
			r.Header.Set(HeaderDeadlineMs, deadline)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			return w
		}

		w := serve(http.MethodPost, "/v1/matrices", "name="+name, body)
		if w.Code != http.StatusOK {
			t.Fatalf("upload named %q: HTTP %d %s", name, w.Code, w.Body)
		}
		var info MatrixInfo
		if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
			t.Fatalf("upload named %q: %v", name, err)
		}

		w = serve(http.MethodPost, "/v1/spmv", "", `{"matrix":"`+info.ID+`","seed":1}`)
		ms, err := strconv.ParseFloat(deadline, 64)
		invalid := deadline != "" && (err != nil || !(ms > 0 && ms <= maxDeadlineMs))
		ok := w.Code == http.StatusOK || w.Code == http.StatusGatewayTimeout // a tiny deadline may expire
		if invalid && w.Code != http.StatusBadRequest || !invalid && !ok {
			t.Fatalf("%s %q: HTTP %d %s", HeaderDeadlineMs, deadline, w.Code, w.Body)
		}
		for _, path := range []string{"/v1/matrices", "/tenants.json", "/v1/status"} {
			if w := serve(http.MethodGet, path, "", ""); w.Code != http.StatusOK {
				t.Fatalf("GET %s after tenant %q: HTTP %d", path, tenant, w.Code)
			}
		}
	})
}
