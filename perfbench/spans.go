package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the run began; Parent 0 marks a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	run   string
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, epoch: time.Now()} }

// add records a finished span between two wall-clock instants and returns
// its ID, for use as the parent of later spans.
func (t *tracer) add(parent int64, name, label string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Label: label,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// open reserves a span that starts now; the returned function ends it.
// Children can name the span as their parent before it ends.
func (t *tracer) open(parent int64, name, label string) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	id := t.add(parent, name, label, start, start)
	return id, func() {
		end := time.Since(t.epoch).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// selfTimes maps each span ID to its duration minus the part of its
// interval covered by its children; overlapping children (parallel stream
// loads, concurrent jobs) count once.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, reach int64 = 0, s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// write stores every span, with its self time, as one JSON document,
// headed by the count, total and self time of each span name.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	type total struct {
		Count int   `json:"count"`
		Total int64 `json:"total_ns"`
		Self  int64 `json:"self_ns"`
	}
	byName := map[string]*total{}
	self := selfTimes(spans)
	for i := range spans {
		s := &spans[i]
		s.Self = self[s.ID]
		agg := byName[s.Name]
		if agg == nil {
			agg = &total{}
			byName[s.Name] = agg
		}
		agg.Count++
		agg.Total += s.End - s.Start
		agg.Self += s.Self
	}
	b, err := json.MarshalIndent(struct {
		Run    string            `json:"run"`
		ByName map[string]*total `json:"by_name"`
		Spans  []span            `json:"spans"`
	}{t.run, byName, spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
