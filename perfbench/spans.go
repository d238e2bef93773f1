package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span names, one per layer boundary the traced run crosses. "setup"
// is the step end-to-end setup_s times; the others partition the rest
// of the op.
const (
	spanOp       = "op"
	spanSetup    = "setup"
	spanBuild    = "build"
	spanPrepare  = "prepare"
	spanFill     = "fill"
	spanSimulate = "simulate"
	spanCollect  = "collect"
)

// span is one timed interval of a traced op. Fill and simulate spans
// aggregate every batch of one run: Count batches, Total summed time
// between Start (first batch) and End (last batch).
type span struct {
	Op     int           `json:"op"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Total  time.Duration `json:"total_ns"`
	Count  int           `json:"count"`
}

// spanLog keeps spans in memory; write dumps them when the benchmark
// ends. It is safe for concurrent use by the grid's traced workers.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span of op under parent (-1 for a root) and returns its id.
func (l *spanLog) begin(op, parent int, name string) int {
	now := time.Since(l.t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Op: op, ID: len(l.spans), Parent: parent, Name: name, Start: now, End: now})
	return len(l.spans) - 1
}

// end closes span id.
func (l *spanLog) end(id int) {
	now := time.Since(l.t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id]
	s.End = now
	s.Total = now - s.Start
	s.Count = 1
}

// record adds a finished aggregate span.
func (l *spanLog) record(op, parent int, name string, start, end time.Time, total time.Duration, count int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		Op: op, ID: len(l.spans), Parent: parent, Name: name,
		Start: start.Sub(l.t0), End: end.Sub(l.t0), Total: total, Count: count,
	})
}

// totals sums span time by name for one op. busy is the op's time
// summed over its workers: the total of the root's direct children,
// which equals the summed self time of every span below the root.
func (l *spanLog) totals(op int) (byName map[string]time.Duration, busy time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	byName = map[string]time.Duration{}
	for _, s := range l.spans {
		if s.Op != op {
			continue
		}
		byName[s.Name] += s.Total
		if s.Parent >= 0 && l.spans[s.Parent].Parent < 0 {
			busy += s.Total
		}
	}
	return byName, busy
}

// write dumps every span as JSON to path.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// accum times the batches of one fill/simulate loop.
type accum struct {
	first, last time.Time
	total       time.Duration
	n           int
}

func (a *accum) add(start, end time.Time) {
	if a.n == 0 {
		a.first = start
	}
	a.last = end
	a.total += end.Sub(start)
	a.n++
}
