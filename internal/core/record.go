package core

import (
	"fmt"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// RunRecording simulates w exactly like Run while teeing every frontend
// instruction into tw: the address space is set up first, the layout is
// snapshotted into the trace header (minus the text segment, which
// every run maps itself), and then the timed simulation proceeds with a
// trace.Recorder installed as the frontend tap — through the same loop,
// batch length, observer and timing as Run. The returned metrics are
// those of the recording run, and replaying the written trace under
// the same configuration reproduces them deterministically — that
// equivalence is what makes recorded traces a drop-in substitute for
// the live workload.
//
// Like Run, RunRecording consumes the system: build a fresh one per
// recording. The caller owns tw and must Close it (closing also flushes
// the tail of the stream).
func (s *System) RunRecording(w *workloads.Workload, tw *trace.Writer) (Metrics, error) {
	src := s.Prepare(w)
	// Like Run, this owns the frontend it had built: a re-recording of a
	// trace-backed session must release the input file even when the
	// instruction bound stops before its EOF.
	defer closeSource(src)

	hdr := trace.Header{
		Workload:  w.Name(),
		Class:     w.Class(),
		Footprint: w.FootprintBytes(),
		Seed:      s.Cfg.Seed,
	}
	for _, v := range s.Proc.VMAs {
		if v.Start == TextSegBase && v.FileID == TextSegFileID {
			continue
		}
		hdr.Layout = append(hdr.Layout, trace.SegmentOf(v))
	}
	if err := tw.WriteHeader(hdr); err != nil {
		return Metrics{}, err
	}

	rec := trace.NewRecorder(tw)
	s.SetFrontendTap(rec.OnInst)
	defer s.SetFrontendTap(nil)
	m := s.runPrepared(w.Name(), src)
	if err := rec.Err(); err != nil {
		return Metrics{}, fmt.Errorf("core: recording: %w", err)
	}
	return m, nil
}
