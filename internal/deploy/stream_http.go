package deploy

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"

	"dlinfma/internal/deploy/api"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/obs/trace"
	"dlinfma/internal/traj"
)

// maxStreamLineBytes bounds one NDJSON line of a streaming session; a
// StreamPoint is tens of bytes, so 64 KiB is generous headroom, not a limit
// honest clients ever see. It is also the session's read buffer: a line that
// fills it without a newline is the line that is too long.
const maxStreamLineBytes = 64 << 10

// streamSession carries what one POST /v1/trajectories:stream needs between
// reads: the read buffer (with the unfinished line of the previous read at
// its head), the current burst's decoded ops and the body line each came
// from, and the session's running counts. Sessions recycle through
// streamPool, so a steady-state session allocates nothing per line.
type streamSession struct {
	buf   [maxStreamLineBytes]byte
	ops   []StreamOp
	lines []int

	line, points, ends int
}

var streamPool = sync.Pool{New: func() any { return new(streamSession) }}

// streamFailure is how a session ends early: the status, code and message of
// the error envelope. The line/points/ends progress is added when it is
// written.
type streamFailure struct {
	status    int
	code, msg string
	cause     error // an engine error worth a log line; nil otherwise
}

// handleStream is POST /v1/trajectories:stream: an NDJSON body of
// api.StreamPoint lines, applied in order. Each line is one courier fix (or
// an explicit end marker); the engine assembles trips server-side and logs
// every accepted line to its write-ahead log before acknowledging. The unit
// of work is a burst — the complete lines one Read of the body delivered —
// decoded together and handed to the engine in one IngestBurst, so lines are
// applied as they arrive and nothing waits for bytes still in flight. The 200
// response with the applied counts is the acknowledgement; any failure
// answers the error envelope with the counts applied so far in the details,
// so producers know exactly where to resume. Backpressure (pending-trip
// backlog full) maps to 429, a body past maxIngestBytes to 413.
func (s *service) handleStream(w http.ResponseWriter, r *http.Request) {
	si, ok := s.e.(StreamIngestor)
	if !ok {
		writeError(w, http.StatusNotImplemented, api.CodeUnimplemented,
			"this engine does not support trajectory streaming", nil)
		return
	}
	ctx, sp := trace.Start(r.Context(), "deploy.stream_session")
	defer sp.End()

	ss := streamPool.Get().(*streamSession)
	defer streamPool.Put(ss)
	ss.ops, ss.lines = ss.ops[:0], ss.lines[:0]
	ss.line, ss.points, ss.ends = 0, 0, 0

	fail := ss.run(ctx, si, r.Body)
	sp.SetAttr("points", ss.points)
	sp.SetAttr("ends", ss.ends)
	if fail == nil {
		writeJSON(w, http.StatusOK, api.StreamIngestResponse{Points: ss.points, Ends: ss.ends})
		return
	}
	if fail.cause != nil {
		sp.RecordError(fail.cause)
		s.log.WithTrace(ctx).Warn("stream ingest failed",
			"err", fail.cause, "line", ss.line, "request_id", RequestID(ctx))
	}
	details := map[string]any{"line": ss.line, "points": ss.points, "ends": ss.ends}
	if fail.status == http.StatusRequestEntityTooLarge {
		details["max_bytes"] = maxIngestBytes
	}
	writeError(w, fail.status, fail.code, fail.msg, details)
}

// run reads body to its end, one burst per Read. It never reads past
// maxIngestBytes+1 bytes: the extra byte tells a body that just fits from one
// that does not, and is never part of a line.
func (ss *streamSession) run(ctx context.Context, si StreamIngestor, body io.Reader) *streamFailure {
	held, total := 0, 0 // bytes of an unfinished line at buf's head; body bytes read
	for {
		n, err := body.Read(ss.buf[held:min(len(ss.buf), held+maxIngestBytes+1-total)])
		total += n
		tooLarge := total > maxIngestBytes
		if tooLarge {
			n--
		}
		data := ss.buf[:held+n]
		done := 0 // bytes of data consumed as complete lines
		for {
			nl := bytes.IndexByte(data[done:], '\n')
			if nl < 0 {
				break
			}
			if fail := ss.decode(ctx, si, data[done:done+nl]); fail != nil {
				return fail
			}
			done += nl + 1
		}
		if err == io.EOF && !tooLarge && done < len(data) {
			// The body's last line needs no newline.
			if fail := ss.decode(ctx, si, data[done:]); fail != nil {
				return fail
			}
			done = len(data)
		}
		if fail := ss.flush(ctx, si); fail != nil {
			return fail
		}
		switch {
		case tooLarge:
			return &streamFailure{status: http.StatusRequestEntityTooLarge, code: api.CodeInvalidArgument,
				msg: fmt.Sprintf("stream body exceeds %d bytes", maxIngestBytes)}
		case err == io.EOF:
			return nil
		case err != nil:
			return &streamFailure{status: http.StatusBadRequest, code: api.CodeInvalidArgument,
				msg: fmt.Sprintf("read stream body: %v", err)}
		}
		if held = copy(ss.buf[:], data[done:]); held == len(ss.buf) {
			return &streamFailure{status: http.StatusBadRequest, code: api.CodeInvalidArgument,
				msg: fmt.Sprintf("read stream body: %v", bufio.ErrTooLong)}
		}
	}
}

// decode turns one body line into an op of the current burst. A line that
// is not a stream line first flushes the lines before it, so they are applied
// and counted exactly as if they had arrived alone.
func (ss *streamSession) decode(ctx context.Context, si StreamIngestor, raw []byte) *streamFailure {
	ss.line++
	raw = bytes.TrimSpace(raw)
	if len(raw) == 0 {
		return nil
	}
	p, ok := scanStreamLine(raw)
	var msg string
	if !ok {
		p = api.StreamPoint{}
		if err := json.Unmarshal(raw, &p); err != nil {
			msg = fmt.Sprintf("decode stream line %d: %v", ss.line, err)
		}
	}
	if msg == "" && (p.Courier < math.MinInt32 || p.Courier > math.MaxInt32) {
		msg = "courier id out of range"
	}
	if msg != "" {
		if fail := ss.flush(ctx, si); fail != nil {
			return fail
		}
		return &streamFailure{status: http.StatusBadRequest, code: api.CodeInvalidArgument, msg: msg}
	}
	ss.ops = append(ss.ops, StreamOp{
		Courier: model.CourierID(p.Courier),
		Pt:      traj.GPSPoint{P: geo.Point{X: p.X, Y: p.Y}, T: p.T},
		End:     p.End,
	})
	ss.lines = append(ss.lines, ss.line)
	return nil
}

// flush hands the burst decoded so far to the engine and counts what it
// applied. On an engine error ss.line becomes the line of the op that failed.
func (ss *streamSession) flush(ctx context.Context, si StreamIngestor) *streamFailure {
	if len(ss.ops) == 0 {
		return nil
	}
	applied, err := IngestBurst(ctx, si, ss.ops)
	for i := range ss.ops[:applied] {
		if ss.ops[i].End {
			ss.ends++
		} else {
			ss.points++
		}
	}
	var fail *streamFailure
	if err != nil {
		if applied < len(ss.lines) {
			ss.line = ss.lines[applied]
		}
		if errors.Is(err, ErrBackpressure) {
			fail = &streamFailure{status: http.StatusTooManyRequests, code: api.CodeBackpressure, msg: err.Error()}
		} else {
			fail = &streamFailure{status: http.StatusInternalServerError, code: api.CodeInternal, msg: err.Error(), cause: err}
		}
	}
	ss.ops, ss.lines = ss.ops[:0], ss.lines[:0]
	return fail
}
