package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// lastLine parses the result line a run printed.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("result line: %v\n%s", err, out)
	}
	return r
}

// TestSmoke runs every workload at short sizes, untraced and traced,
// and checks that each run passes its output checks and prints exactly
// the metrics BENCHMARK.json declares for its mode, with their units.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	for _, w := range s.Workloads {
		for _, mode := range []string{"0", "1"} {
			want := s.EndToEnd
			if mode == "1" {
				want = s.PerLayer
			}
			t.Run(w.Name+"/trace"+mode, func(t *testing.T) {
				var out, errb bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "0", "--trace", mode, "--short", "--out", t.TempDir()}
				if code := run(args, &out, &errb); code != 0 {
					t.Fatalf("exit %d\n%s", code, errb.String())
				}
				r := lastLine(t, out.String())
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, errb.String())
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(r.Metrics), len(want))
				}
			})
		}
	}
}

// TestUnknownWorkload checks that a bad workload name exits non-zero
// without printing a result.
func TestUnknownWorkload(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope", "--out", t.TempDir()}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}

// flaky is a bench whose ops panic, fail or change their result.
type flaky struct{ n int }

func (f *flaky) setup() (time.Duration, error) { return time.Millisecond, nil }

func (f *flaky) op() (opResult, error) {
	f.n++
	switch f.n {
	case 2:
		panic("point exploded")
	case 3:
		return opResult{}, errors.New("point failed")
	case 4:
		return opResult{digest: "other", points: []pointSample{{}}}, nil
	case 5:
		return opResult{digest: "d", points: []pointSample{{}}, failedPoints: 1}, nil
	}
	return opResult{digest: "d", simInsts: 1, points: []pointSample{{latency: time.Millisecond}}}, nil
}

func (f *flaky) traced(*spanLog, int) ([]simCounts, error) { return nil, nil }

// TestFailuresContained checks that panics, errors, failed points and
// digest mismatches are counted instead of stopping the run.
func TestFailuresContained(t *testing.T) {
	h := &harness{b: &flaky{}, deadline: time.Now()}
	h.op()
	h.loop(5)
	r := h.endToEndResult(nil)
	if r.Correct || r.Attempted != 6 || r.Failed != 4 {
		t.Fatalf("correct=%v attempted=%d failed=%d, want false/6/4", r.Correct, r.Attempted, r.Failed)
	}
	if len(h.ops) != 1 {
		t.Fatalf("kept %d ops, want 1", len(h.ops))
	}
}
