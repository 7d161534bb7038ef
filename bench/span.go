package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the ID of the
// span that caused it (0 for a root); spans of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// recorder is the benchmark's own in-memory span list. A nil recorder
// records nothing, which is how untraced runs skip the bookkeeping.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records [start, end] under parent and returns the new span's ID.
func (r *recorder) add(name string, parent int, req int64, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval that its children cover. Children that overlap each other are
// counted once, and a child reaching outside its parent is clipped to it.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		out[s.Name] += (s.End - s.Start) - covered
	}
	return out
}

// traceFile is the layout of out/trace-<workload>.json.
type traceFile struct {
	Workload string           `json:"workload"`
	Stamp    stamp            `json:"stamp"`
	SelfNS   map[string]int64 `json:"self_ns"`
	Spans    []span           `json:"spans"`
}

// write stores the span list and the per-name self times under dir.
func (r *recorder) write(dir, workload string, st stamp) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(traceFile{Workload: workload, Stamp: st, SelfNS: selfTimes(r.spans), Spans: r.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
