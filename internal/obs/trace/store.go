package trace

import (
	"sync"
	"time"
)

// Attr is one key/value attribute on a span (shard id, request method, …).
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// SpanData is the immutable record of one finished span. Ids are rendered as
// hex strings so the struct marshals straight into the debug API.
type SpanData struct {
	TraceID  string        `json:"trace_id"`
	SpanID   string        `json:"span_id"`
	ParentID string        `json:"parent_id,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// Trace is one completed, kept trace: the root's identity plus every span
// that ended before the root sealed the record.
type Trace struct {
	ID       TraceID
	Root     string
	Start    time.Time
	Duration time.Duration
	Error    bool
	// Dropped counts spans discarded past the maxSpans cap.
	Dropped int
	Spans   []SpanData
}

// Store is a fixed-size ring buffer of completed traces: Add overwrites the
// oldest entry once full, so the buffer always holds the most recent kept
// traces. The critical section is a few pointer moves — cheap enough to sit
// on the serving path at full sampling.
type Store struct {
	mu   sync.Mutex
	buf  []*Trace
	next int // index the next Add writes to
	n    int // live entries, ≤ len(buf)
}

// DefaultStoreCapacity is the buffer size when NewStore is given a
// non-positive capacity.
const DefaultStoreCapacity = 256

// NewStore returns a ring buffer holding up to capacity traces
// (DefaultStoreCapacity when capacity <= 0).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultStoreCapacity
	}
	return &Store{buf: make([]*Trace, capacity)}
}

// Add inserts a completed trace, evicting the oldest when full. Safe on a
// nil store.
func (s *Store) Add(t *Trace) {
	if s == nil || t == nil {
		return
	}
	s.mu.Lock()
	s.buf[s.next] = t
	s.next = (s.next + 1) % len(s.buf)
	if s.n < len(s.buf) {
		s.n++
	}
	s.mu.Unlock()
}

// Get returns the buffered trace with the given id, newest first when an id
// somehow recurs, or nil when absent.
func (s *Store) Get(id TraceID) *Trace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 1; i <= s.n; i++ {
		t := s.buf[(s.next-i+len(s.buf))%len(s.buf)]
		if t != nil && t.ID == id {
			return t
		}
	}
	return nil
}

// Filter selects traces out of List.
type Filter struct {
	// MinDuration keeps only traces whose root ran at least this long.
	MinDuration time.Duration
	// ErrorOnly keeps only traces with an errored span.
	ErrorOnly bool
	// Limit caps the result count (<= 0 means no cap).
	Limit int
}

// List returns buffered traces newest first, filtered by f.
func (s *Store) List(f Filter) []*Trace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Trace
	for i := 1; i <= s.n; i++ {
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
		t := s.buf[(s.next-i+len(s.buf))%len(s.buf)]
		if t == nil {
			continue
		}
		if t.Duration < f.MinDuration || (f.ErrorOnly && !t.Error) {
			continue
		}
		out = append(out, t)
	}
	return out
}
