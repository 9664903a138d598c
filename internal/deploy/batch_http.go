package deploy

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"

	"dlinfma/internal/deploy/api"
	"dlinfma/internal/model"
)

// batchCall carries every buffer one POST /v1/locations:batch needs: the
// body bytes (the request, then — once the keys are decoded out of them — the
// response), the decoded keys, their engine ids and the engine answers. Calls
// recycle it through batchPool, so a steady-state batch allocates nothing
// that grows with its key count. None of it holds a pointer, so there is
// nothing to clear between requests.
type batchCall struct {
	body    []byte
	keys    []int64
	ids     []model.AddressID
	answers []BatchAnswer
}

var batchPool = sync.Pool{New: func() any { return new(batchCall) }}

// errBodyTooLarge is readBody's verdict on a body past its limit.
var errBodyTooLarge = errors.New("deploy: request body too large")

// readBody reads r to its end into buf[:0], giving up with errBodyTooLarge
// once more than limit bytes have arrived — one byte past the limit is read
// so that an oversized body is told apart from one that just fits, not
// silently truncated into a JSON syntax error.
func readBody(r io.Reader, buf []byte, limit int) ([]byte, error) {
	buf = buf[:0]
	for {
		if cap(buf)-len(buf) < 512 {
			buf = slices.Grow(buf, 512)
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), limit+1)])
		buf = buf[:len(buf)+n]
		if len(buf) > limit {
			return buf, errBodyTooLarge
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// handleBatch answers POST /v1/locations:batch through the engine's bulk
// read path (BatchQuerier when implemented, a per-key loop otherwise) with
// pooled buffers and the append codec of batch_codec.go. The response
// preserves request order and reports per-item misses while the batch stays
// 200 (partial-failure semantics); only a cold engine (503) or a backend
// that cannot answer (502) fails the batch as a whole.
func (s *service) handleBatch(w http.ResponseWriter, r *http.Request) {
	c := batchPool.Get().(*batchCall)
	defer batchPool.Put(c)

	var err error
	if c.body, err = readBody(r.Body, c.body, maxBatchBytes); err != nil {
		if errors.Is(err, errBodyTooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, api.CodeInvalidArgument,
				fmt.Sprintf("batch body exceeds %d bytes", maxBatchBytes), map[string]any{"max_bytes": maxBatchBytes})
			return
		}
		writeError(w, http.StatusBadRequest, api.CodeInvalidArgument,
			fmt.Sprintf("read batch request: %v", err), nil)
		return
	}
	var ok bool
	if c.keys, ok = scanBatchRequest(c.body, c.keys); !ok {
		// Not the canonical form: encoding/json decides whether it is a
		// request at all, and words the 400 when it is not. It decodes into a
		// fresh slice, not the pooled one: a null element leaves its slot as
		// it finds it, which in a recycled array is an earlier request's key.
		var req api.BatchLocationsRequest
		if err := json.Unmarshal(c.body, &req); err != nil {
			writeError(w, http.StatusBadRequest, api.CodeInvalidArgument,
				fmt.Sprintf("decode batch request: %v", err), nil)
			return
		}
		c.keys = req.Addrs
	}
	if len(c.keys) == 0 {
		writeError(w, http.StatusBadRequest, api.CodeInvalidArgument,
			"addrs must be non-empty", nil)
		return
	}
	if len(c.keys) > api.MaxBatchKeys {
		writeError(w, http.StatusBadRequest, api.CodeInvalidArgument,
			"too many address keys", map[string]any{"max": api.MaxBatchKeys, "got": len(c.keys)})
		return
	}
	c.ids = c.ids[:0]
	for i, k := range c.keys {
		// Address ids are 32-bit; an unchecked conversion would answer
		// another address's location under this key.
		if k < math.MinInt32 || k > math.MaxInt32 {
			writeError(w, http.StatusBadRequest, api.CodeInvalidArgument,
				"address key out of range", map[string]any{"index": i, "key": k})
			return
		}
		c.ids = append(c.ids, model.AddressID(k))
	}
	if !s.e.Status().Ready {
		// A cold engine fails the whole batch: every key would miss, and 503
		// tells the bulk consumer to retry elsewhere rather than treat the
		// world as absent.
		writeError(w, http.StatusServiceUnavailable, api.CodeEngineNotReady,
			"no serving state deployed yet", nil)
		return
	}

	c.answers, err = QueryBatch(r.Context(), s.e, c.ids, c.answers)
	if err != nil {
		// A caller that cancelled has nobody left to read an envelope. Any
		// other error is a backend that could not answer — a cluster
		// frontend's shard with no live peer — and a 200 would hide it.
		if r.Context().Err() == nil {
			writeError(w, http.StatusBadGateway, api.CodeInternal, err.Error(), nil)
		}
		return
	}
	if c.body, err = appendBatchResponse(c.body[:0], c.keys, c.answers); err != nil {
		writeError(w, http.StatusInternalServerError, api.CodeInternal, err.Error(), nil)
		return
	}
	writeJSONBytes(w, c.body)
}
