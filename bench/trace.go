package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval around a call the benchmark makes into a
// layer. Spans of one op share Op; Parent is the span that caused this
// one (0 = the op's root). Name is "<layer>.<call>", the layer being the
// package name. Times are nanoseconds since the tracer's epoch.
type span struct {
	Op     int64  `json:"op"`
	ID     int64  `json:"span"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the package a span is charged to.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil *tracer records nothing, which is how the untraced run keeps the
// same code path without paying for it.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// liveSpan is an open span; end records it.
type liveSpan struct {
	t          *tracer
	op, id, pa int64
	name       string
	start      time.Time
}

func (t *tracer) begin(op, parent int64, name string) liveSpan {
	if t == nil {
		return liveSpan{}
	}
	return liveSpan{t: t, op: op, id: t.nextID.Add(1), pa: parent, name: name, start: time.Now()}
}

// end closes the span and returns its duration (0 when tracing is off).
func (l liveSpan) end() time.Duration {
	if l.t == nil {
		return 0
	}
	now := time.Now()
	l.t.mu.Lock()
	l.t.spans = append(l.t.spans, span{
		Op: l.op, ID: l.id, Parent: l.pa, Name: l.name,
		Start: int64(l.start.Sub(l.t.epoch)), End: int64(now.Sub(l.t.epoch)),
	})
	l.t.mu.Unlock()
	return now.Sub(l.start)
}

// snapshot returns the recorded spans ordered by start time.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover. Children may overlap each
// other (parallel simulations under one sweep), so their intervals are
// merged before subtracting, and clipped to the parent.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// spanCost calibrates what recording one span costs, so the traced run
// can state its own overhead without needing an untraced twin.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.begin(1, 0, "trace.calibrate").end()
	}
	return time.Since(start) / n
}
