package trace

import (
	"fmt"
	"io"

	"repro/internal/isa"
	"repro/internal/recycle"
)

// fileSource adapts a Reader to isa.Source for the engine's frontend.
// The isa.Source contract has no error channel, so a source panics on
// mid-stream corruption — silently truncating a corrupt trace would
// produce plausible-looking but wrong metrics. Callers validate files
// up front (Open decodes the whole header), so a panic here means the
// file changed or rotted after validation.
type fileSource struct {
	r    *Reader
	path string
	done bool
}

// OpenSource opens path as a streaming frontend source. Each call opens
// an independent reader — per-run cursors, nothing shared — so parallel
// sweep points may replay one file concurrently. The source closes the
// file when the stream is exhausted.
func OpenSource(path string) (isa.Source, error) { return openSource(path, nil) }

// openSource is OpenSource drawing the reader's buffers from pool and
// parking them there again when the source closes (nil: no pooling).
func openSource(path string, pool *recycle.Pool) (isa.Source, error) {
	r, err := openFile(path, streamBufSize, pool)
	if err != nil {
		return nil, err
	}
	return &fileSource{r: r, path: path}, nil
}

// OpenReplaySource is OpenSource. Replay has one route, the inline
// reader; the name stays because the benchmark drills call it.
func OpenReplaySource(path string) (isa.Source, error) { return OpenSource(path) }

// MustOpenSource is OpenSource, panicking on error, with the reader's
// buffers drawn from and parked back in pool (nil: no pooling). The
// engine uses it after the configuration carrying the path has already
// been validated, passing its worker's pool, so a sweep worker streams
// every point through one set of read buffers.
func MustOpenSource(path string, pool *recycle.Pool) isa.Source {
	s, err := openSource(path, pool)
	if err != nil {
		panic(err)
	}
	return s
}

// Next implements isa.Source as a one-record NextBatch.
func (s *fileSource) Next(out *isa.Inst) bool {
	var one [1]isa.Inst
	if s.NextBatch(one[:]) == 0 {
		return false
	}
	*out = one[0]
	return true
}

// NextBatch implements isa.BatchSource: it decodes up to len(out)
// records in one Reader call, so batched replay pays the isa.Source
// interface dispatch once per batch instead of once per record. The
// end of the stream closes the file; corruption panics.
func (s *fileSource) NextBatch(out []isa.Inst) int {
	if s.done {
		return 0
	}
	n, err := s.r.readBatch(out)
	if err == io.EOF {
		s.done = true
		s.r.Close()
	} else if err != nil {
		s.r.Close()
		panic(fmt.Sprintf("trace: %s: %v", s.path, err))
	}
	return n
}

// Close releases the underlying reader. The engine calls it when a run
// ends before the stream is drained (an instruction-bounded replay);
// closing an exhausted or already-closed source is a no-op.
func (s *fileSource) Close() error {
	if s.done {
		return nil
	}
	s.done = true
	return s.r.Close()
}

// Recorder tees the engine's frontend instruction stream into a Writer;
// it is the record side of the §4.2 instrumentation stand-in (what Pin
// or DynamoRIO do for a real binary, the Recorder does for a simulated
// run). Install OnInst as the engine's frontend tap
// (core.System.SetFrontendTap) and every application instruction the
// core consumes is appended to the trace as it retires.
//
// Write errors are sticky: the first one stops recording and is
// reported by Err, so a full disk surfaces once instead of once per
// instruction.
type Recorder struct {
	w   *Writer
	err error
}

// NewRecorder returns a Recorder appending to w. The Writer's header
// must already be written.
func NewRecorder(w *Writer) *Recorder { return &Recorder{w: w} }

// OnInst records one instruction; it is shaped to be installed directly
// as an engine frontend tap.
func (r *Recorder) OnInst(in isa.Inst) {
	if r.err == nil {
		r.err = r.w.WriteInst(in)
	}
}

// Err returns the first write error, if any.
func (r *Recorder) Err() error { return r.err }
