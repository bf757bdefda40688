package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a pass, a design or
// job, or one call into a layer. Times are offsets from the run start.
// Counts hold the kernel counters read at the span's boundaries.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // 0 for a root span
	Run    string           `json:"run"`
	Name   string           `json:"name"`
	Start  time.Duration    `json:"start_ns"`
	End    time.Duration    `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
	// Derived marks a span reconstructed from a kernel counter rather
	// than timed directly (sifting runs inside the reach call, so its
	// span is placed at the end of the call that ran it).
	Derived bool `json:"derived,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer holds the traced run's spans in memory until the run ends.
// A nil *tracer records nothing, so the untraced run calls the same
// code.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// count adds a counter value to span id.
func (t *tracer) count(id int, key string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	sp := &t.spans[id-1]
	if sp.Counts == nil {
		sp.Counts = map[string]int64{}
	}
	sp.Counts[key] += v
	t.mu.Unlock()
}

// derivedChild records a child of span parent lasting d, ending where
// the parent ends, for time a counter attributes to another layer.
func (t *tracer) derivedChild(parent int, name string, d time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name,
		Start: p.End - d, End: p.End, Derived: true})
	return id
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
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

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover.
// Children may overlap (concurrent jobs under one run span); covered
// time is counted once.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// spanPath is where a traced run writes its spans.
func spanPath(dir, run string) string { return fmt.Sprintf("%s/spans-%s.jsonl", dir, run) }
