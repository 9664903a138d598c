// Tests for POST /v1/trajectories:stream against stub engines: ack counts,
// application order, mid-stream error reporting with resume position, the
// backpressure mapping, and the 501 answer from a non-streaming engine. The
// real-engine streaming semantics (trip cutting, WAL, replay) are covered in
// internal/engine.
package deploy_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"

	"dlinfma/internal/deploy"
	"dlinfma/internal/deploy/api"
	"dlinfma/internal/model"
	"dlinfma/internal/traj"
)

// streamStub is a stubEngine that also records streaming calls, optionally
// failing after a set number of accepted points.
type streamStub struct {
	stubEngine
	events    []string
	failAfter int // accepted points before erroring; 0 = never fail
	failWith  error
}

func (s *streamStub) IngestPoint(_ context.Context, c model.CourierID, pt traj.GPSPoint) error {
	if s.failAfter > 0 && len(s.events) >= s.failAfter {
		return s.failWith
	}
	s.events = append(s.events, fmt.Sprintf("pt %d %.0f", c, pt.T))
	return nil
}

func (s *streamStub) CloseStream(_ context.Context, c model.CourierID) error {
	s.events = append(s.events, fmt.Sprintf("end %d", c))
	return nil
}

func postStream(t *testing.T, srv *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+"/v1/trajectories:stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeStreamErr(t *testing.T, resp *http.Response) *api.Error {
	t.Helper()
	defer resp.Body.Close()
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil {
		t.Fatalf("decode error envelope: %v", err)
	}
	return env.Error
}

func TestStreamEndpointAcksInOrder(t *testing.T) {
	stub := &streamStub{stubEngine: *readyStub()}
	srv := httptest.NewServer(deploy.Service(stub))
	defer srv.Close()

	resp := postStream(t, srv, `
{"courier":5,"x":1,"y":2,"t":100}
{"courier":6,"x":3,"y":4,"t":101}

{"courier":5,"x":1.5,"y":2.5,"t":110}
{"courier":5,"end":true}
`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var ack api.StreamIngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Points != 3 || ack.Ends != 1 {
		t.Fatalf("ack = %+v, want 3 points 1 end", ack)
	}
	want := []string{"pt 5 100", "pt 6 101", "pt 5 110", "end 5"}
	if fmt.Sprint(stub.events) != fmt.Sprint(want) {
		t.Fatalf("applied order %v, want %v", stub.events, want)
	}
}

func TestStreamEndpointRejectsBadLineWithProgress(t *testing.T) {
	stub := &streamStub{stubEngine: *readyStub()}
	srv := httptest.NewServer(deploy.Service(stub))
	defer srv.Close()

	resp := postStream(t, srv, "{\"courier\":5,\"x\":1,\"y\":2,\"t\":100}\nnot json\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	e := decodeStreamErr(t, resp)
	if e.Code != api.CodeInvalidArgument {
		t.Fatalf("code = %q", e.Code)
	}
	// The details tell the producer exactly where to resume.
	if e.Details["line"] != float64(2) || e.Details["points"] != float64(1) || e.Details["ends"] != float64(0) {
		t.Fatalf("details = %v", e.Details)
	}
	if len(stub.events) != 1 {
		t.Fatalf("events after bad line: %v", stub.events)
	}
}

func TestStreamEndpointBackpressureMapsTo429(t *testing.T) {
	stub := &streamStub{stubEngine: *readyStub(), failAfter: 2, failWith: deploy.ErrBackpressure}
	srv := httptest.NewServer(deploy.Service(stub))
	defer srv.Close()

	body := `{"courier":1,"x":0,"y":0,"t":1}
{"courier":1,"x":0,"y":0,"t":2}
{"courier":1,"x":0,"y":0,"t":3}
`
	resp := postStream(t, srv, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	e := decodeStreamErr(t, resp)
	if e.Code != api.CodeBackpressure {
		t.Fatalf("code = %q", e.Code)
	}
	if e.Details["points"] != float64(2) {
		t.Fatalf("details = %v, want 2 acked points", e.Details)
	}
}

func TestStreamEndpointUnimplementedWithoutStreaming(t *testing.T) {
	srv := httptest.NewServer(deploy.Service(readyStub())) // no StreamIngestor
	defer srv.Close()

	resp := postStream(t, srv, `{"courier":1,"x":0,"y":0,"t":1}`)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status = %d, want 501", resp.StatusCode)
	}
	if e := decodeStreamErr(t, resp); e.Code != api.CodeUnimplemented {
		t.Fatalf("code = %q", e.Code)
	}
}

func TestStreamEndpointRejectsOutOfRangeCourier(t *testing.T) {
	stub := &streamStub{stubEngine: *readyStub()}
	srv := httptest.NewServer(deploy.Service(stub))
	defer srv.Close()

	resp := postStream(t, srv, `{"courier":5000000000,"x":0,"y":0,"t":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if e := decodeStreamErr(t, resp); e.Code != api.CodeInvalidArgument {
		t.Fatalf("code = %q", e.Code)
	}
}

// burstStub is a streamStub that also takes bursts. It applies a burst
// through the per-op methods, so both stubs define the same engine, and
// remembers each burst's size.
type burstStub struct {
	streamStub
	bursts []int
}

func (s *burstStub) IngestBurst(ctx context.Context, ops []deploy.StreamOp) (int, error) {
	s.bursts = append(s.bursts, len(ops))
	for i, op := range ops {
		var err error
		if op.End {
			err = s.CloseStream(ctx, op.Courier)
		} else {
			err = s.IngestPoint(ctx, op.Courier, op.Pt)
		}
		if err != nil {
			return i, err
		}
	}
	return len(ops), nil
}

// chunkReader hands its data out at most n bytes per Read.
type chunkReader struct {
	data string
	n    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.n)], c.data)
	c.data = c.data[n:]
	return n, nil
}

// serveStream runs one session straight through the handler, so the test
// owns how the body's bytes are cut into reads.
func serveStream(h http.Handler, body io.Reader) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/trajectories:stream", body))
	return rec.Code, rec.Body.String()
}

// TestStreamEndpointIsReadBoundaryBlind: however the body is cut into reads
// — whole, byte by byte, mid-line, data arriving together with EOF — and
// whether the engine takes bursts or single ops, a session applies the same
// ops in the same order and answers the same bytes.
func TestStreamEndpointIsReadBoundaryBlind(t *testing.T) {
	pt := func(c int, tm int) string { return fmt.Sprintf(`{"courier":%d,"x":1.5,"y":-2,"t":%d}`, c, tm) }
	errBoom := errors.New("disk on fire")
	long := `{"courier":1,"x":1,"y":2,"t":` + strings.Repeat("1", 64<<10) + `}`
	cases := []struct {
		name      string
		body      string
		failAfter int
		failWith  error
		status    int
		answer    string // the whole response body
		events    []string
	}{
		{
			name: "every accepted spelling",
			body: pt(5, 100) + "\r\n" + pt(6, 101) + "\n\n  \n" +
				`{ "t": 110, "courier": 5, "x": 1e2, "y": 0.5 }` + "\n" +
				`{"courier":6,"x":0,"y":0,"t":0,"end":true}` + "\n" +
				"\t" + `{"courier":5,"end":true}`,
			status: 200, answer: `{"points":3,"ends":2}` + "\n",
			events: []string{"pt 5 100", "pt 6 101", "pt 5 110", "end 6", "end 5"},
		},
		{
			name:   "empty body",
			status: 200, answer: `{"points":0,"ends":0}` + "\n",
		},
		{
			name:   "bad line mid-chunk applies the lines before it",
			body:   pt(1, 1) + "\n" + pt(1, 2) + "\n\n" + `{"courier":1,"x":nope}` + "\n" + pt(1, 3) + "\n",
			status: 400,
			answer: `{"error":{"code":"invalid_argument","message":"decode stream line 4: invalid character 'o' in literal null (expecting 'u')","details":{"ends":0,"line":4,"points":2}}}` + "\n",
			events: []string{"pt 1 1", "pt 1 2"},
		},
		{
			name:   "courier out of range",
			body:   pt(1, 1) + "\n" + `{"courier":5000000000,"x":0,"y":0,"t":1}` + "\n",
			status: 400,
			answer: `{"error":{"code":"invalid_argument","message":"courier id out of range","details":{"ends":0,"line":2,"points":1}}}` + "\n",
			events: []string{"pt 1 1"},
		},
		{
			name:      "engine error reports the failing line",
			body:      pt(1, 1) + "\n\n" + `{"courier":1,"end":true}` + "\n" + pt(2, 2) + "\n" + pt(2, 3) + "\n",
			failAfter: 2, failWith: errBoom,
			status: 500,
			answer: `{"error":{"code":"internal","message":"disk on fire","details":{"ends":1,"line":4,"points":1}}}` + "\n",
			events: []string{"pt 1 1", "end 1"},
		},
		{
			name:      "backpressure reports the failing line",
			body:      pt(1, 1) + "\n" + pt(1, 2) + "\n" + pt(1, 3) + "\n" + pt(1, 4),
			failAfter: 3, failWith: deploy.ErrBackpressure,
			status: 429,
			answer: `{"error":{"code":"backpressure","message":"deploy: ingest backlog full, retry after reinfer","details":{"ends":0,"line":4,"points":3}}}` + "\n",
			events: []string{"pt 1 1", "pt 1 2", "pt 1 3"},
		},
		{
			name:   "a 64 KiB line",
			body:   pt(1, 1) + "\n" + long + "\n" + pt(1, 2) + "\n",
			status: 400,
			answer: `{"error":{"code":"invalid_argument","message":"read stream body: bufio.Scanner: token too long","details":{"ends":0,"line":1,"points":1}}}` + "\n",
			events: []string{"pt 1 1"},
		},
	}
	readers := map[string]func(string) io.Reader{
		"whole":      func(s string) io.Reader { return strings.NewReader(s) },
		"one byte":   func(s string) io.Reader { return iotest.OneByteReader(strings.NewReader(s)) },
		"7 bytes":    func(s string) io.Reader { return &chunkReader{s, 7} },
		"45 bytes":   func(s string) io.Reader { return &chunkReader{s, 45} },
		"data + EOF": func(s string) io.Reader { return iotest.DataErrReader(strings.NewReader(s)) },
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for name, reader := range readers {
				perOp := &streamStub{stubEngine: *readyStub(), failAfter: tc.failAfter, failWith: tc.failWith}
				burst := &burstStub{streamStub: streamStub{stubEngine: *readyStub(), failAfter: tc.failAfter, failWith: tc.failWith}}
				for kind, run := range map[string]struct {
					h      http.Handler
					events *[]string
				}{
					"per-op engine": {deploy.Service(perOp), &perOp.events},
					"burst engine":  {deploy.Service(burst), &burst.events},
				} {
					status, answer := serveStream(run.h, reader(tc.body))
					if status != tc.status || answer != tc.answer {
						t.Errorf("%s, %s: answered %d %s\nwant %d %s", name, kind, status, answer, tc.status, tc.answer)
					}
					if fmt.Sprint(*run.events) != fmt.Sprint(tc.events) {
						t.Errorf("%s, %s: applied %v, want %v", name, kind, *run.events, tc.events)
					}
				}
				// A burst is what one read delivered: single ops when bytes
				// trickle in, several lines at once when they do not.
				for _, n := range burst.bursts {
					if name == "one byte" && n != 1 {
						t.Errorf("one-byte reads made a burst of %d ops", n)
					}
				}
				if name == "whole" && tc.status == 200 && len(tc.events) > 0 && burst.bursts[0] < len(tc.events)-1 {
					t.Errorf("a body read whole made bursts %v, want every newline-terminated line of %d in the first", burst.bursts, len(tc.events))
				}
			}
		})
	}
}

// countStub counts streamed ops without keeping them.
type countStub struct {
	stubEngine
	points, ends int
}

func (s *countStub) IngestPoint(context.Context, model.CourierID, traj.GPSPoint) error {
	s.points++
	return nil
}
func (s *countStub) CloseStream(context.Context, model.CourierID) error { s.ends++; return nil }
func (s *countStub) IngestBurst(_ context.Context, ops []deploy.StreamOp) (int, error) {
	for _, op := range ops {
		if op.End {
			s.ends++
		} else {
			s.points++
		}
	}
	return len(ops), nil
}

// lineRepeater is a body of total bytes: line repeated, cut wherever total
// falls.
type lineRepeater struct {
	line       string
	off, total int
}

func (r *lineRepeater) Read(p []byte) (int, error) {
	if r.off == r.total {
		return 0, io.EOF
	}
	p = p[:min(len(p), r.total-r.off)]
	for n := 0; n < len(p); {
		n += copy(p[n:], r.line[(r.off+n)%len(r.line):])
	}
	r.off += len(p)
	return len(p), nil
}

// TestStreamEndpointBodyCap: a body is never acknowledged past the 64 MiB
// cap it was silently truncated at before. At the cap exactly it is a 200;
// past it, a 413 that applied, and reports, exactly the complete lines inside
// the cap — whether the cap falls on a line boundary or inside a line.
func TestStreamEndpointBodyCap(t *testing.T) {
	const maxBytes = 64 << 20
	line := `{"courier":1,"x":1.5,"y":2.5,"t":1.` // padded to 64 bytes with its newline
	line += strings.Repeat("0", 62-len(line)) + "}\n"
	if len(line) != 64 {
		t.Fatalf("test line is %d bytes", len(line))
	}
	const fit = maxBytes / 64
	tooLarge := func(points int) string {
		return fmt.Sprintf(`{"error":{"code":"invalid_argument","message":"stream body exceeds 67108864 bytes","details":{"ends":0,"line":%d,"max_bytes":67108864,"points":%d}}}`+"\n", points, points)
	}
	for _, tc := range []struct {
		name   string
		lead   string // a 32-byte line ahead of the 64-byte ones, shifting where the cap falls
		total  int
		status int
		answer string
		points int
	}{
		{"exactly the cap", "", maxBytes, 200, fmt.Sprintf(`{"points":%d,"ends":0}`+"\n", fit), fit},
		{"ten lines past the cap", "", maxBytes + 10*64, 413, tooLarge(fit), fit},
		{"the cap falls inside a line", `{"courier":1,"x":1,"y":2,"t":1}` + "\n", maxBytes + 64, 413, tooLarge(fit), fit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stub := &countStub{stubEngine: *readyStub()}
			body := io.MultiReader(strings.NewReader(tc.lead), &lineRepeater{line: line, total: tc.total - len(tc.lead)})
			status, answer := serveStream(deploy.Service(stub), body)
			if status != tc.status || answer != tc.answer {
				t.Fatalf("answered %d %s\nwant %d %s", status, answer, tc.status, tc.answer)
			}
			if stub.points != tc.points || stub.ends != 0 {
				t.Fatalf("engine saw %d points and %d ends, want %d and 0", stub.points, stub.ends, tc.points)
			}
		})
	}
}
