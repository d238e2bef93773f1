package sweepjob

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Checkpoint file layout (JSONL, documented in docs/sweep-service.md):
//
//	line 1:  Header  — format marker, spec hash, grid size, shard
//	line 2+: Record  — one completed point: {"index":i,"result":{...}}
//
// Records are append-only and self-delimiting (one JSON object per
// line), so a crash can damage at most the final line. Load recovers
// by dropping the torn tail; the writer then truncates the file to the
// last intact record and the interrupted point simply re-runs —
// deterministic simulation makes the re-run byte-identical.

// FormatName marks checkpoint files; a JSON file without it is
// rejected rather than misparsed.
const FormatName = "virtuoso-sweep-checkpoint"

// FormatVersion is bumped when the file layout changes incompatibly.
const FormatVersion = 1

// DefaultSyncEvery is the fsync batch size: the writer flushes and
// syncs after every N appended records (and on Close). Batching keeps
// checkpoint overhead off the per-point critical path; at most the
// last batch is lost on power failure.
const DefaultSyncEvery = 8

// Header is the checkpoint file's first line.
type Header struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// SpecHash fingerprints the generating sweep (grid axes + params +
	// base config + spec version). Resuming or merging with a different
	// hash fails loudly instead of silently mixing grids.
	SpecHash string `json:"spec_hash"`
	// Points is the FULL grid size, not the shard's share: merge
	// validates exhaustiveness against it.
	Points int `json:"points"`
	// Shard is the "i/N" slice this file covers ("" = whole grid).
	Shard string `json:"shard,omitempty"`
}

// Record is one completed point.
type Record struct {
	Index int `json:"index"`
	// Result is the point's serialised virtuoso.Result, stored verbatim
	// so the checkpoint layer needs no knowledge of simulation types.
	Result json.RawMessage `json:"result"`
}

// mismatch formats the loud resume/merge error for a header field.
func (h Header) mismatch(path string, other Header) error {
	switch {
	case h.SpecHash != other.SpecHash:
		return fmt.Errorf("sweepjob: %s: spec hash %s does not match %s (the grid, params, or base config changed — delete the checkpoint or fix the spec)", path, other.SpecHash, h.SpecHash)
	case h.Points != other.Points:
		return fmt.Errorf("sweepjob: %s: grid size %d does not match %d", path, other.Points, h.Points)
	case h.Shard != other.Shard:
		return fmt.Errorf("sweepjob: %s: shard %q does not match %q", path, other.Shard, h.Shard)
	}
	return nil
}

// Load parses a checkpoint file, tolerating a torn tail: parsing stops
// at the first damaged line, everything before it is returned, and
// validLen reports the byte offset the file should be truncated to
// before appending. torn is true when anything was dropped. Duplicate
// indices keep the last record (runs are deterministic, so duplicates
// are byte-identical in practice).
func Load(path string) (hdr Header, recs map[int]json.RawMessage, validLen int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Header{}, nil, 0, false, err
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return Header{}, nil, 0, false, fmt.Errorf("sweepjob: %s: missing checkpoint header", path)
	}
	if err := json.Unmarshal(data[:nl], &hdr); err != nil {
		return Header{}, nil, 0, false, fmt.Errorf("sweepjob: %s: bad checkpoint header: %w", path, err)
	}
	if hdr.Format != FormatName {
		return Header{}, nil, 0, false, fmt.Errorf("sweepjob: %s is not a sweep checkpoint (format %q)", path, hdr.Format)
	}
	if hdr.Version != FormatVersion {
		return Header{}, nil, 0, false, fmt.Errorf("sweepjob: %s: checkpoint version %d, this build reads %d", path, hdr.Version, FormatVersion)
	}
	if hdr.Points <= 0 {
		return Header{}, nil, 0, false, fmt.Errorf("sweepjob: %s: nonsensical grid size %d", path, hdr.Points)
	}

	recs = make(map[int]json.RawMessage)
	validLen = int64(nl + 1)
	rest := data[nl+1:]
	for len(rest) > 0 {
		line := rest
		n := bytes.IndexByte(rest, '\n')
		if n < 0 {
			// No terminator: the write was cut mid-line.
			torn = true
			break
		}
		line, rest = rest[:n], rest[n+1:]
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Index < 0 || rec.Index >= hdr.Points || len(rec.Result) == 0 {
			// Damaged record: drop it and everything after (records are
			// append-only, so damage can only be a tail).
			torn = true
			break
		}
		recs[rec.Index] = rec.Result
		validLen += int64(n + 1)
	}
	return hdr, recs, validLen, torn, nil
}

// Writer appends completed-point records to a checkpoint file,
// fsync-batched.
type Writer struct {
	f         *os.File
	bw        *bufio.Writer
	syncEvery int
	pending   int
}

// OpenWriter opens path for checkpointing, creating it with hdr when
// absent. When the file exists its header must match hdr exactly
// (loud error otherwise); a torn tail is truncated away, and the
// records already present are returned so the caller can skip those
// points. syncEvery <= 0 means DefaultSyncEvery.
func OpenWriter(path string, hdr Header, syncEvery int) (*Writer, map[int]json.RawMessage, error) {
	if syncEvery <= 0 {
		syncEvery = DefaultSyncEvery
	}
	hdr.Format = FormatName
	hdr.Version = FormatVersion

	done := map[int]json.RawMessage{}
	if st, err := os.Stat(path); err == nil && st.Size() > 0 {
		existing, recs, validLen, _, err := Load(path)
		if err != nil {
			return nil, nil, err
		}
		if err := hdr.mismatch(path, existing); err != nil {
			return nil, nil, err
		}
		if err := os.Truncate(path, validLen); err != nil {
			return nil, nil, fmt.Errorf("sweepjob: truncating torn checkpoint tail: %w", err)
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		return &Writer{f: f, bw: bufio.NewWriter(f), syncEvery: syncEvery}, recs, nil
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, err
	}
	w := &Writer{f: f, bw: bufio.NewWriter(f), syncEvery: syncEvery}
	line, err := json.Marshal(hdr)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := w.bw.Write(append(line, '\n')); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := w.sync(); err != nil {
		f.Close()
		return nil, nil, err
	}
	return w, done, nil
}

// Append persists one completed point. Calls must be serialised by the
// caller (the sweep runner already serialises its progress path).
func (w *Writer) Append(index int, result json.RawMessage) error {
	line, err := json.Marshal(Record{Index: index, Result: result})
	if err != nil {
		return err
	}
	if _, err := w.bw.Write(append(line, '\n')); err != nil {
		return err
	}
	w.pending++
	if w.pending >= w.syncEvery {
		return w.sync()
	}
	return nil
}

func (w *Writer) sync() error {
	w.pending = 0
	if err := w.bw.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close flushes, syncs, and closes the file. The Writer is unusable
// afterwards.
func (w *Writer) Close() error {
	ferr := w.sync()
	cerr := w.f.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}
