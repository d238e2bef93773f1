package virtuoso_test

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	virtuoso "repro"
	"repro/internal/stats"
)

// FuzzParseSweepSpec feeds arbitrary bytes to the sweep-spec decoder
// and, when a spec parses, materialises it into a Sweep and hashes it.
// Malformed input must error — never panic — and every spec that
// survives validation must be hashable (SpecHash is what makes
// checkpoints and shard merges safe, so it cannot fail on any spec the
// parser admits).
func FuzzParseSweepSpec(f *testing.F) {
	f.Add([]byte(`{"workloads": ["BFS"]}`))
	f.Add([]byte(`{"workloads": ["BFS", "XS"], "designs": ["radix", "ech"], "policies": ["thp"], "seeds": [1, 2]}`))
	f.Add([]byte(`{"mixes": [["BFS", "RND"]], "quantum_cycles": 100000, "asid_retention": true}`))
	f.Add([]byte(`{"workloads": ["SEQ"], "full_scale": true, "mode": "emulation", "max_app_insts": 1000, "frag": 0.5, "seed": 7}`))
	f.Add([]byte(`{"workloads": ["BFS"], "shard": "1/4", "parallel": 2, "label": "x"}`))
	f.Add([]byte(`{"desings": ["radix"]}`)) // typo: unknown field
	f.Add([]byte(`{"workloads": ["BFS"]} trailing`))
	f.Add([]byte(`{"frag": 2.0, "workloads": ["BFS"]}`))
	f.Add([]byte(`{"shard": "9/4", "workloads": ["BFS"]}`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"workloads": [`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := virtuoso.ParseSweepSpec(data)
		if err != nil {
			return
		}
		s, err := sp.Sweep()
		if err != nil {
			return
		}
		if h := s.SpecHash(); h == "" {
			t.Fatal("validated sweep produced an empty spec hash")
		}
	})
}

// FuzzReportJSON holds Report.JSON and Report.CanonicalJSON to the
// MarshalIndent oracle (checkReportJSON) on fuzzed latency series and
// scalar fields. Every 8 bytes of vals become one float64 of a series,
// so the series cover every exponent, subnormals, -0 and NaN; shape
// picks which series are nil, whether the two points are
// multiprogrammed, and whether Results is nil.
func FuzzReportJSON(f *testing.F) {
	le := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(le(1, 2.5, 1e-7, 1e21), uint8(0), 0.5, uint64(7), int64(time.Second), 4, "BFS", "abc", "1/2")
	f.Add(le(math.Copysign(0, -1), 5e-324, 123456789), uint8(5), 1e-9, uint64(0), int64(0), 0, "<&>", "", "")
	f.Add([]byte{}, uint8(3), 0.0, uint64(1<<63), int64(-1), -1, "\xff\u2028", "x", "")
	f.Add(le(math.NaN()), uint8(8), 1.0, uint64(1), int64(1), 1, "XS", "", "0/3")

	f.Fuzz(func(t *testing.T, vals []byte, shape uint8, ipc float64, cycles uint64, wall int64, points int, workload, specHash, shard string) {
		var minor, major *stats.Series
		if shape&1 == 0 {
			minor = &stats.Series{}
		}
		if shape&2 == 0 {
			major = &stats.Series{}
		}
		for i := 0; i+8 <= len(vals); i += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(vals[i:]))
			switch {
			case minor != nil && (i/8%2 == 0 || major == nil):
				minor.Add(v)
			case major != nil:
				major.Add(v)
			}
		}
		m := virtuoso.Metrics{Workload: workload, IPC: ipc, Cycles: cycles, PFLatNs: minor, MajorPFLatNs: major,
			WallTime: time.Duration(wall), SimHeapBytes: cycles}
		res := virtuoso.Result{Workload: workload, Seed: cycles, Metrics: m}
		if shape&4 != 0 {
			res.Multi = &virtuoso.MultiMetrics{Mix: []string{workload}, Aggregate: m,
				Procs: []virtuoso.ProcessMetrics{{Workload: workload, IPC: ipc}}}
		}
		rep := &virtuoso.Report{Points: points, SpecHash: specHash, Shard: shard, Wall: time.Duration(wall)}
		if shape&8 == 0 {
			rep.Results = []virtuoso.Result{res, res}
		}
		checkReportJSON(t, rep)
	})
}
