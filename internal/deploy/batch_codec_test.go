package deploy

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"dlinfma/internal/deploy/api"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
)

// The reference side of every test here is the route written with
// encoding/json over the api structs alone — the code the append codec
// replaced. It defines the wire format; the codec has to match it byte for
// byte on every input, accepted or not.

// refBatchResponse encodes the answer to keys the way the handler used to:
// json.NewEncoder(...).Encode(&api.BatchLocationsResponse{...}).
func refBatchResponse(keys []int64, answers []BatchAnswer) ([]byte, error) {
	resp := api.BatchLocationsResponse{Results: make([]api.BatchResult, 0, len(keys))}
	for i, k := range keys {
		res := api.BatchResult{Addr: k}
		if a := answers[i]; a.Src == SourceNone {
			res.Error = &api.Error{Code: api.CodeNotFound, Message: "unknown address"}
			resp.Missing++
		} else {
			res.Location = &api.Location{Addr: k, X: a.Loc.X, Y: a.Loc.Y, Source: a.Src.String()}
			resp.Found++
		}
		resp.Results = append(resp.Results, res)
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(&resp)
	return buf.Bytes(), err
}

// refBatch answers one batch body against e: status and exact response bytes.
func refBatch(e Engine, body []byte) (int, []byte) {
	fail := func(status int, code, msg string, details map[string]any) (int, []byte) {
		b, _ := json.Marshal(api.ErrorEnvelope{Error: &api.Error{Code: code, Message: msg, Details: details}})
		return status, append(b, '\n')
	}
	if len(body) > maxBatchBytes {
		return fail(http.StatusRequestEntityTooLarge, api.CodeInvalidArgument,
			"batch body exceeds 1048576 bytes", map[string]any{"max_bytes": maxBatchBytes})
	}
	var req api.BatchLocationsRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return fail(http.StatusBadRequest, api.CodeInvalidArgument, "decode batch request: "+err.Error(), nil)
	}
	if len(req.Addrs) == 0 {
		return fail(http.StatusBadRequest, api.CodeInvalidArgument, "addrs must be non-empty", nil)
	}
	if len(req.Addrs) > api.MaxBatchKeys {
		return fail(http.StatusBadRequest, api.CodeInvalidArgument, "too many address keys",
			map[string]any{"max": api.MaxBatchKeys, "got": len(req.Addrs)})
	}
	answers := make([]BatchAnswer, len(req.Addrs))
	for i, k := range req.Addrs {
		if k != int64(int32(k)) {
			return fail(http.StatusBadRequest, api.CodeInvalidArgument, "address key out of range",
				map[string]any{"index": i, "key": k})
		}
		answers[i].Loc, answers[i].Src = e.QueryCtx(context.Background(), model.AddressID(k))
	}
	out, err := refBatchResponse(req.Addrs, answers)
	if err != nil {
		return fail(http.StatusInternalServerError, api.CodeInternal, err.Error(), nil)
	}
	return http.StatusOK, out
}

// checkBatchBody holds one request body to both properties of the decode
// side: a body the scanner accepts decodes to the same keys under
// json.Unmarshal, and whichever path the handler takes, what it answers is
// what the pure encoding/json route answers.
func checkBatchBody(t *testing.T, svc http.Handler, e Engine, body []byte) {
	t.Helper()
	if keys, ok := scanBatchRequest(body, nil); ok {
		var req api.BatchLocationsRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("scanner accepted %q, json.Unmarshal says %v", body, err)
		}
		if !slices.Equal(keys, req.Addrs) {
			t.Fatalf("scanner decoded %q to %v, json.Unmarshal to %v", body, keys, req.Addrs)
		}
	}
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/locations:batch", bytes.NewReader(body)))
	wantStatus, want := refBatch(e, body)
	if rec.Code != wantStatus || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("body %q:\n got  %d %s\n want %d %s", body, rec.Code, rec.Body.Bytes(), wantStatus, want)
	}
}

// codecEngine serves populatedStore (a hit at every fallback level, misses
// elsewhere) plus address 5, whose location JSON cannot hold.
func codecEngine() Engine {
	st := populatedStore()
	st.Put(5, geo.Point{X: math.NaN(), Y: 1})
	return storeOnlyEngine{st.Freeze()}
}

// batchBodies are request bodies on both sides of every rule the scanner
// has: the canonical form it takes itself, and the forms it must leave to
// encoding/json — still a valid request or a 400 with encoding/json's text.
var batchBodies = []string{
	`{"addrs":[1]}`,
	`{"addrs":[1,2,3,4,99,1]}`,
	`{"addrs":[-1,0,-0,2147483647,-2147483648]}`,
	`{"addrs":[5]}`,
	`{"addrs":[]}`,
	`{"addrs":[2147483648]}`,
	`{"addrs":[1,-2147483649]}`,
	`{"addrs":[4294967297]}`,
	`{"addrs":[999999999999999999]}`,
	`{"addrs":[1000000000000000000]}`,
	`{"addrs":[9223372036854775807]}`,
	`{"addrs":[9223372036854775808]}`,
	`{"addrs":[-9223372036854775808]}`,
	`{"addrs":[1,2]}` + "\n",
	`{"addrs": [1,2]}`,
	`{"addrs":[1, 2]}`,
	` {"addrs":[1]}`,
	`{"addrs":[1]} x`,
	`{"addrs":[1]}{"addrs":[2]}`,
	`{"ADDRS":[2]}`,
	`{"\u0061ddrs":[3]}`,
	`{"addrs":[1],"addrs":[2]}`,
	`{"addrs":[1],"other":true}`,
	`{"other":[1]}`,
	`{"addrs":null}`,
	`{"addrs":[null]}`,
	`{"addrs":[1.0]}`,
	`{"addrs":[1.5]}`,
	`{"addrs":[1e2]}`,
	`{"addrs":["1"]}`,
	`{"addrs":[01]}`,
	`{"addrs":[-]}`,
	`{"addrs":[+1]}`,
	`{"addrs":[1,]}`,
	`{"addrs":[,1]}`,
	`{"addrs":[1 2]}`,
	`{"addrs":[1]`,
	`{"addrs":[1`,
	`{"addrs":[`,
	`{"addrs":1}`,
	`{"addrs":[[1]]}`,
	`{}`,
	`[]`,
	`null`,
	``,
	`{nope`,
	`{"addrs":[` + strings.Repeat("7,", api.MaxBatchKeys) + `7]}`,
}

func TestBatchRequestMatchesEncodingJSON(t *testing.T) {
	e := codecEngine()
	svc := NewService(e, Options{})
	for _, body := range batchBodies {
		checkBatchBody(t, svc, e, []byte(body))
	}
	// The canonical form must be the scanner's, or the test above proves
	// nothing about it.
	if keys, ok := scanBatchRequest([]byte(`{"addrs":[1,-2,30]}`), nil); !ok || !slices.Equal(keys, []int64{1, -2, 30}) {
		t.Fatalf("scanner on the canonical form: %v %v", keys, ok)
	}
}

func FuzzBatchRequestDecode(f *testing.F) {
	for _, body := range batchBodies {
		f.Add([]byte(body))
	}
	e := codecEngine()
	svc := NewService(e, Options{})
	f.Fuzz(func(t *testing.T, body []byte) {
		checkBatchBody(t, svc, e, body)
	})
}

// sameEncoding reports whether the codec's outcome is encoding/json's: the
// same bytes, or the same error when the value cannot be encoded.
func sameEncoding(got []byte, err error, want []byte, wantErr error) bool {
	if err != nil || wantErr != nil {
		return err != nil && wantErr != nil && err.Error() == wantErr.Error()
	}
	return bytes.Equal(got, want)
}

// checkBatchResponse compares the appended response of a two-key batch —
// (addr, x, y, src) and its mirror (^addr, y, x, src) — and the point route's
// encoding of the first key with encoding/json's, errors included.
func checkBatchResponse(t *testing.T, addr int64, x, y float64, src Source) {
	t.Helper()
	keys := []int64{addr, ^addr}
	answers := []BatchAnswer{{Loc: geo.Point{X: x, Y: y}, Src: src}, {Loc: geo.Point{X: y, Y: x}, Src: src}}
	got, err := appendBatchResponse(nil, keys, answers)
	want, wantErr := refBatchResponse(keys, answers)
	if !sameEncoding(got, err, want, wantErr) {
		t.Fatalf("batch (%d, %v, %v, %v):\n got  %s %v\n want %s %v", addr, x, y, src, got, err, want, wantErr)
	}
	got, err = appendLocation(nil, addr, answers[0].Loc, src)
	want, wantErr = json.Marshal(api.Location{Addr: addr, X: x, Y: y, Source: src.String()})
	if !sameEncoding(got, err, want, wantErr) {
		t.Fatalf("location (%d, %v, %v, %v):\n got  %s %v\n want %s %v", addr, x, y, src, got, err, want, wantErr)
	}
}

// codecFloats sit on every branch of encoding/json's float formatting: both
// zeros, the 'f'/'e' switches at 1e-6 and 1e21, one- and two-digit negative
// exponents, subnormals, the extremes, and the three values JSON cannot hold.
var codecFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 0.30000000000000004, 123456.789, -73.98513, 116.3974, 1 << 53,
	1e-6, 9.999999e-7, 1e-7, -1.5e-9, 1e-10, 2.5e-100, 1e20, 9.999999999999999e20, 1e21, -1.234e21, 1e22, 1e100,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 4.9e-321,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

var codecAddrs = []int64{0, 1, -1, 42, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}

func TestBatchResponseMatchesEncodingJSON(t *testing.T) {
	for _, x := range codecFloats {
		for _, y := range codecFloats {
			for i, addr := range codecAddrs {
				// Source(7) is no level of the store; String() labels it
				// "none" and the encoder must follow.
				checkBatchResponse(t, addr, x, y, []Source{SourceAddress, SourceBuilding, SourceGeocode, SourceNone, 7}[i%5])
			}
		}
	}
	// No keys at all: the handler never asks, encoding/json says "[]".
	got, err := appendBatchResponse(nil, nil, nil)
	want, _ := refBatchResponse(nil, nil)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("empty batch: %s %v, want %s", got, err, want)
	}
}

func FuzzBatchResponseEncode(f *testing.F) {
	for i, x := range codecFloats {
		f.Add(codecAddrs[i%len(codecAddrs)], x, codecFloats[(i*7+3)%len(codecFloats)], uint8(i), i%4 == 3)
	}
	f.Fuzz(func(t *testing.T, addr int64, x, y float64, source uint8, miss bool) {
		src := Source(source % 5)
		if miss {
			src = SourceNone
		}
		checkBatchResponse(t, addr, x, y, src)
	})
}

// discardWriter is a ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestBatchHandlerAllocs pins the route's steady-state garbage, measured the
// way the benchmark ladder's deploy.batch_handler_allocs is (NewService, a
// discarding writer, one reused request): it is the middleware's and
// net/http's, and none of it grows with the number of keys.
func TestBatchHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of what is Put, so pooled buffers are reallocated at random")
	}
	// The handler's allocations before the append codec, by this same
	// measurement.
	const parentAllocs = 16

	st := NewStore()
	for id := 0; id < 512; id += 2 { // odd keys miss
		st.Put(model.AddressID(id), geo.Point{X: float64(id) + 0.25, Y: -float64(id) / 3})
	}
	svc := NewService(storeOnlyEngine{st.Freeze()}, Options{})
	var perKeys []float64
	for _, n := range []int{64, 512} {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(i)
		}
		body, _ := json.Marshal(api.BatchLocationsRequest{Addrs: keys})
		rd := bytes.NewReader(nil)
		req := httptest.NewRequest(http.MethodPost, "/v1/locations:batch", nil)
		req.Body = io.NopCloser(rd)
		w := &discardWriter{h: http.Header{}}
		perKeys = append(perKeys, testing.AllocsPerRun(200, func() {
			rd.Reset(body)
			clear(w.h)
			svc.ServeHTTP(w, req)
		}))
	}
	if perKeys[0] != perKeys[1] {
		t.Errorf("allocations grow with the batch: %v at 64 keys, %v at 512", perKeys[0], perKeys[1])
	}
	if perKeys[1] > parentAllocs {
		t.Errorf("%v allocations per 512-key batch, want at most %d", perKeys[1], parentAllocs)
	}
}
