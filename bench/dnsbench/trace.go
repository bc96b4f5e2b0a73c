package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval of a run. Every span hangs off the root
// span "run" through its parent chain; n is the number of operations the
// interval covered, so a layer's cost per operation is (end-start)/n.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	N       int64  `json:"n"`
}

// tracer keeps the spans of a run in memory; they are written out once,
// when the run ends.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

const rootSpan = 1

func newTracer() *tracer {
	t := &tracer{base: time.Now()}
	t.spans = append(t.spans, span{ID: rootSpan, Name: "run"})
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: t.now()})
	return id
}

// end closes the span and records how many operations it covered. It
// returns the span's duration.
func (t *tracer) end(id int, n int64) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNS, s.N = t.now(), n
	return time.Duration(s.EndNS - s.StartNS)
}

// add records a span whose interval was measured elsewhere, at instants
// given on the tracer's clock.
func (t *tracer) add(parent int, name string, start, end, n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNS: start, EndNS: end, N: n})
}

// write closes the root span and writes one JSON object per line.
func (t *tracer) write(path string) error {
	t.end(rootSpan, 1)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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
