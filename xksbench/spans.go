package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one recorded layer boundary: a call from the benchmark into a
// layer's public function (or, for "consumer", the time a streamed
// fragment spent with the layer above the driver).
type span struct {
	Pass   string `json:"pass"` // which replay pass recorded it
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Req    int    `json:"req"`    // replayed request the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the recorder's epoch
	End    int64  `json:"endNs"`
	// Counts are work counts recorded at the same boundary.
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory. A disabled recorder records nothing,
// which is how the untraced passes measure tracing overhead.
type recorder struct {
	mu    sync.Mutex
	pass  string
	on    bool
	epoch time.Time
	spans []span
}

func newRecorder(pass string, epoch time.Time) *recorder {
	return &recorder{pass: pass, on: true, epoch: epoch}
}

// begin opens a span and returns its id (-1 when disabled).
func (r *recorder) begin(name string, parent, req int) int {
	if !r.on {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Pass: r.pass, ID: len(r.spans), Parent: parent, Req: req, Name: name, Start: now})
	return len(r.spans) - 1
}

// end closes span id, attaching counts given as name/value pairs.
func (r *recorder) end(id int, counts ...any) {
	if id < 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.End = now
	for i := 0; i+1 < len(counts); i += 2 {
		if s.Counts == nil {
			s.Counts = map[string]int64{}
		}
		s.Counts[counts[i].(string)] += toInt64(counts[i+1])
	}
}

func toInt64(v any) int64 {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int64:
		return x
	}
	return 0
}

// writeSpans stores the recorders' spans as JSON lines.
func writeSpans(path string, recs ...*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per request, each span name's total self time: span
// duration minus the part its child spans cover (children never overlap,
// as the replay is sequential).
func (r *recorder) selfTimes() map[int]map[string]time.Duration {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[int]map[string]time.Duration{}
	for i, s := range r.spans {
		m := out[s.Req]
		if m == nil {
			m = map[string]time.Duration{}
			out[s.Req] = m
		}
		m[s.Name] += s.dur() - child[i]
	}
	return out
}

// spanCtx carries the id of the span whose callees should parent their
// spans under it, and the replayed request's id.
type spanCtx struct{ parent, req int }

type spanKey struct{}

func withSpan(ctx context.Context, parent, req int) context.Context {
	return context.WithValue(ctx, spanKey{}, spanCtx{parent, req})
}

func spanFrom(ctx context.Context) spanCtx {
	if s, ok := ctx.Value(spanKey{}).(spanCtx); ok {
		return s
	}
	return spanCtx{-1, -1}
}
