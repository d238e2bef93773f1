package virtuoso

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/stats"
)

// Result is one sweep point's outcome: the configuration echo that
// identifies the point plus the full metrics of its run. It marshals to
// JSON (fault-latency series included) for downstream analysis.
//
// A Result always describes a run that completed: cancelled sweeps
// report the points that finished before the stop and omit interrupted
// ones entirely, because a truncated simulation's metrics are
// meaningless. With Sweep.Checkpoint set, every reported Result is
// also durable in the checkpoint file, so nothing a cancelled sweep
// returned is ever re-simulated on resume.
type Result struct {
	Index    int        `json:"index"`
	Workload string     `json:"workload"`
	Design   DesignName `json:"design"`
	Policy   PolicyName `json:"policy"`
	// TierPolicy echoes the tier migration policy of a tiered-memory
	// point ("" for flat-memory points; the default policy name when
	// tiers were configured without an explicit policy).
	TierPolicy string  `json:"tier_policy,omitempty"`
	Mode       string  `json:"mode"`
	Seed       uint64  `json:"seed"`
	Metrics    Metrics `json:"metrics"`
	// Multi carries the per-process breakdown of a multiprogrammed
	// point (Sweep.Mixes / Session.MultiResult); Metrics then echoes
	// Multi.Aggregate. Nil for single-workload points.
	Multi *MultiMetrics `json:"multi,omitempty"`
}

// Key returns a compact "workload/design/policy/seed" identifier.
func (r Result) Key() string {
	return fmt.Sprintf("%s/%s/%s/%d", r.Workload, r.Design, r.Policy, r.Seed)
}

// Report aggregates a sweep's results.
type Report struct {
	// Results holds one entry per completed point, in point order. A
	// cancelled or failed sweep reports only the points that finished;
	// a sharded sweep reports only its shard's points.
	Results []Result `json:"results"`
	// Points is the FULL grid size the sweep enumerated — also for a
	// shard run, whose Results cover only its slice. Merge tooling
	// validates shard exhaustiveness against it.
	Points int `json:"points"`
	// SpecHash fingerprints the generating sweep (Sweep.SpecHash):
	// grid axes, params, base config, and spec version. Reports and
	// checkpoints with equal hashes are comparable point-for-point.
	SpecHash string `json:"spec_hash,omitempty"`
	// Shard is the "i/N" slice this report covers ("" = whole grid).
	Shard string `json:"shard,omitempty"`
	// Wall is the host time the whole sweep took.
	Wall time.Duration `json:"wall_ns"`

	// Provenance counters for this run: how many of Results were
	// actually simulated (Executed) versus restored from the resume
	// checkpoint (FromCheckpoint) or answered by the content-addressed
	// cache (FromCache). Run-shape metadata, not results — excluded
	// from the JSON encodings so cached and fresh reports stay
	// byte-identical.
	Executed       int `json:"-"`
	FromCache      int `json:"-"`
	FromCheckpoint int `json:"-"`
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) { return r.encode(false) }

// CanonicalJSON renders the report in its determinism-comparison form:
// the host-dependent fields (Wall, per-result WallTime/SimHeapBytes)
// and the shard coordinates are zeroed, and everything else —
// simulated counters, latencies, per-process breakdowns — is emitted
// exactly as JSON would. Two runs of the same sweep are equivalent iff
// their CanonicalJSON is byte-identical; this is the form the
// sharded-resume determinism tests and `virtuoso sweep merge
// -canonical` compare. The receiver is not modified.
func (r *Report) CanonicalJSON() ([]byte, error) { return r.encode(true) }

// Columns of the closing bracket of a latency series in the report:
// Metrics' fields sit at depth 4 (8 spaces), Multi.Aggregate's at
// depth 5.
const (
	metricsSeriesCol   = 8
	aggregateSeriesCol = 10
)

// encode renders r byte for byte as json.MarshalIndent(r, "", "  ")
// would — of the zeroed copy CanonicalJSON describes when canonical is
// set, whose nil Results encode as [] — into a buffer of exactly the
// output's length. MarshalIndent marshals compactly into a doubling
// buffer and then indents into a second, and allocated 4.4× the output
// of a replay-grid report.
//
// encode writes the envelope itself and each Result through one
// json.Encoder indented to the Result's depth, in two passes. The
// sizing pass only counts: it encodes each result with its latency
// series detached and adds their indented length from the values. The
// output pass then writes into the one allocation. Canonical zeroing
// goes into a reused copy of the result; the receiver is not touched.
func (r *Report) encode(canonical bool) ([]byte, error) {
	var (
		w     reportSink
		res   Result
		multi MultiMetrics
	)
	enc := json.NewEncoder(&w)
	enc.SetIndent("    ", "  ")
	// encodeValue writes v through enc, without the newline Encode
	// ends each value with. Something always follows a value in the
	// envelope, so the newline never outgrows the sized buffer.
	encodeValue := func(v any) error {
		if err := enc.Encode(v); err != nil {
			return err
		}
		w.n--
		if w.buf != nil {
			w.buf = w.buf[:len(w.buf)-1]
		}
		return nil
	}
	emit := func() error {
		sizing := w.buf == nil
		w.writeString("{\n  \"results\": ")
		switch {
		case r.Results == nil && !canonical:
			w.writeString("null")
		case len(r.Results) == 0:
			w.writeString("[]")
		default:
			for i := range r.Results {
				if i == 0 {
					w.writeString("[\n    ")
				} else {
					w.writeString(",\n    ")
				}
				res = r.Results[i]
				if canonical {
					res.Metrics.WallTime, res.Metrics.SimHeapBytes = 0, 0
				}
				if res.Multi != nil && (canonical || sizing) {
					multi = *res.Multi
					if canonical {
						multi.Aggregate.WallTime, multi.Aggregate.SimHeapBytes = 0, 0
					}
					res.Multi = &multi
				}
				if sizing {
					w.n += detachSeries(&res.Metrics, metricsSeriesCol)
					if res.Multi != nil {
						w.n += detachSeries(&res.Multi.Aggregate, aggregateSeriesCol)
					}
				}
				if err := encodeValue(&res); err != nil {
					return err
				}
			}
			w.writeString("\n  ]")
		}
		w.writeString(",\n  \"points\": ")
		w.writeInt(int64(r.Points))
		if r.SpecHash != "" {
			w.writeString(",\n  \"spec_hash\": ")
			if err := encodeValue(&r.SpecHash); err != nil {
				return err
			}
		}
		if r.Shard != "" && !canonical {
			w.writeString(",\n  \"shard\": ")
			if err := encodeValue(&r.Shard); err != nil {
				return err
			}
		}
		w.writeString(",\n  \"wall_ns\": ")
		if canonical {
			w.writeInt(0)
		} else {
			w.writeInt(int64(r.Wall))
		}
		w.writeString("\n}")
		return nil
	}
	if err := emit(); err != nil {
		return nil, err
	}
	w.buf = make([]byte, 0, w.n)
	if err := emit(); err != nil {
		return nil, err
	}
	return w.buf, nil
}

// reportSink is the writer behind Report.encode. While buf is nil (the
// sizing pass) it only counts bytes; after that it also appends them.
type reportSink struct {
	buf []byte
	n   int
}

func (w *reportSink) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.buf != nil {
		w.buf = append(w.buf, p...)
	}
	return len(p), nil
}

func (w *reportSink) writeString(s string) {
	w.n += len(s)
	if w.buf != nil {
		w.buf = append(w.buf, s...)
	}
}

func (w *reportSink) writeInt(v int64) {
	var tmp [20]byte
	w.Write(strconv.AppendInt(tmp[:0], v, 10))
}

// detachSeries sets m's latency series to nil, so they encode as null,
// and returns how many bytes longer they are as they appear in the
// report: indented arrays whose closing bracket sits at column col.
func detachSeries(m *Metrics, col int) int {
	n := seriesJSONLen(m.PFLatNs, col) + seriesJSONLen(m.MajorPFLatNs, col) - 2*len("null")
	m.PFLatNs, m.MajorPFLatNs = nil, nil
	return n
}

// seriesJSONLen returns the length of s as an indented report field
// whose closing bracket sits at column col: null when nil, [] when
// empty, else one value per line two columns further in.
func seriesJSONLen(s *stats.Series, col int) int {
	if s == nil {
		return len("null")
	}
	vals := s.Values()
	if len(vals) == 0 {
		return len("[]")
	}
	n := len("[") + len(vals)*len("\n  ") + len(vals)*col + len(vals) - 1 + len("\n]") + col
	var tmp [32]byte
	for _, v := range vals {
		n += len(appendJSONFloat(tmp[:0], v))
	}
	return n
}

// appendJSONFloat appends v as encoding/json writes a float64: the
// shortest 'f' form, or 'e' outside [1e-6, 1e21) with a one-digit
// negative exponent unpadded (1e-07 becomes 1e-7).
func appendJSONFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// DecodeReport parses a report previously rendered with JSON.
func DecodeReport(data []byte) (*Report, error) {
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Grouping keys for GroupBy / GeomeanBy.
var (
	// ByWorkload groups results by workload name.
	ByWorkload = func(r Result) string { return r.Workload }
	// ByDesign groups results by translation design.
	ByDesign = func(r Result) string { return string(r.Design) }
	// ByPolicy groups results by allocation policy.
	ByPolicy = func(r Result) string { return string(r.Policy) }
)

// GroupBy partitions the results by the given key, preserving point
// order within each group.
func (r *Report) GroupBy(key func(Result) string) map[string][]Result {
	groups := make(map[string][]Result)
	for _, res := range r.Results {
		k := key(res)
		groups[k] = append(groups[k], res)
	}
	return groups
}

// Geomean returns the geometric mean of metric over all results
// (non-positive values are ignored, matching stats.GeoMean).
func (r *Report) Geomean(metric func(Result) float64) float64 {
	vs := make([]float64, 0, len(r.Results))
	for _, res := range r.Results {
		vs = append(vs, metric(res))
	}
	return stats.GeoMean(vs)
}

// GeomeanBy returns the per-group geometric mean of metric, keyed as
// GroupBy does.
func (r *Report) GeomeanBy(key func(Result) string, metric func(Result) float64) map[string]float64 {
	out := make(map[string]float64)
	for k, group := range r.GroupBy(key) {
		vs := make([]float64, 0, len(group))
		for _, res := range group {
			vs = append(vs, metric(res))
		}
		out[k] = stats.GeoMean(vs)
	}
	return out
}

// Filter returns a report containing only the results pred accepts
// (Points and Wall carry over unchanged).
func (r *Report) Filter(pred func(Result) bool) *Report {
	out := &Report{Points: r.Points, Wall: r.Wall}
	for _, res := range r.Results {
		if pred(res) {
			out.Results = append(out.Results, res)
		}
	}
	return out
}

// Keys returns the sorted group keys of GroupBy(key) — convenient for
// stable iteration when printing.
func (r *Report) Keys(key func(Result) string) []string {
	seen := make(map[string]bool)
	var keys []string
	for _, res := range r.Results {
		if k := key(res); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
