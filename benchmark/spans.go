package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer, timed from the
// benchmark's own files. Spans inside the program are a later issue.
type span struct {
	Name   string
	Start  time.Duration // since the log's epoch
	End    time.Duration
	Parent int    // index of the span that caused this one; -1 for a root
	Lane   int    // chrome-trace thread: 0 main, 1+ client goroutines
	RID    string // X-Spmm-Request-Id of the request, when there is one
}

// spanLog holds a traced run's spans in memory; they are written out when
// the run ends. A disabled log (untraced run) records nothing, so measured
// runs pay one branch per call site.
type spanLog struct {
	enabled bool
	epoch   time.Time

	mu    sync.Mutex
	spans []span
}

// newSpanLog reserves room for a traced run's spans up front, so recording
// one does not allocate inside the sections whose allocations are counted.
func newSpanLog(enabled bool) *spanLog {
	l := &spanLog{enabled: enabled, epoch: time.Now()}
	if enabled {
		l.spans = make([]span, 0, 1<<17)
	}
	return l
}

// begin opens a span and returns its index (-1 when disabled), which is
// both the handle end takes and the parent later spans name.
func (l *spanLog) begin(name string, parent, lane int) int {
	if !l.enabled {
		return -1
	}
	now := time.Since(l.epoch)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Start: now, End: now, Parent: parent, Lane: lane})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int, rid string) {
	if id < 0 {
		return
	}
	now := time.Since(l.epoch)
	l.mu.Lock()
	l.spans[id].End, l.spans[id].RID = now, rid
	l.mu.Unlock()
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval its child spans cover; children running in
// parallel (two clients under one segment) cover their union once.
func (l *spanLog) selfTimes() []selfRow {
	l.mu.Lock()
	spans := append([]span(nil), l.spans...)
	l.mu.Unlock()
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*selfRow{}
	for i, s := range spans {
		row, ok := rows[s.Name]
		if !ok {
			row = &selfRow{Name: s.Name}
			rows[s.Name] = row
		}
		dur := s.End - s.Start
		row.Count++
		row.Total += dur
		row.Self += dur - coverage(children[i], s.Start, s.End)
	}
	out := make([]selfRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// coverage is the length of the union of the kids' intervals clipped to
// [lo, hi].
func coverage(kids []span, lo, hi time.Duration) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var covered time.Duration
	edge := lo
	for _, k := range kids {
		start, end := max(k.Start, edge), min(k.End, hi)
		if end > start {
			covered += end - start
			edge = end
		}
	}
	return covered
}

func (l *spanLog) printSelfTimes(w io.Writer) {
	rows := l.selfTimes()
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "  span self-time table (benchmark-side spans)\n")
	fmt.Fprintf(w, "  %-28s %8s %14s %14s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %8d %14.3f %14.3f\n", r.Name, r.Count,
			float64(r.Total)/1e6, float64(r.Self)/1e6)
	}
}

// writeChrome stores the spans as Chrome trace_event JSON
// (chrome://tracing, Perfetto) under dir as trace-<workload>.json.
func (l *spanLog) writeChrome(dir, workload string) (string, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	l.mu.Lock()
	events := make([]event, 0, len(l.spans))
	for i, s := range l.spans {
		args := map[string]any{"id": i, "parent": s.Parent}
		if s.RID != "" {
			args["rid"] = s.RID
		}
		events = append(events, event{Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Lane, Args: args})
	}
	l.mu.Unlock()
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, raw, 0o644)
}
