package trace

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mimicos"
	"repro/internal/workloads"
)

// NewWorkload builds a trace-backed workload from a recorded file: its
// Setup replays the recorded VMA layout at the recorded bases (so the
// absolute virtual addresses in the records resolve to the same VMAs),
// and its Source streams instruction records from the file. The result
// satisfies the same interface as catalog workloads, so traces plug
// directly into Session and Sweep — including parallel sweeps, since
// every run opens its own reader.
//
// The file's header is decoded (and the whole path validated) here;
// errors surface before any simulation starts.
func NewWorkload(path string) (*workloads.Workload, error) {
	hdr, err := ReadHeader(path)
	if err != nil {
		return nil, err
	}

	setup := func(w *workloads.Workload, k *mimicos.Kernel, pid int) {
		for i, seg := range hdr.Layout {
			base := k.Mmap(pid, seg.Length, seg.MmapFlags())
			if base != seg.Start {
				panic(fmt.Sprintf("trace: %s: segment %d mapped at %#x, recorded %#x", path, i, base, seg.Start))
			}
			w.SetBase(fmt.Sprintf("seg%d", i), base)
		}
	}
	source := func(*workloads.Workload, uint64) isa.Source {
		// The seed is ignored: a trace already fixes the instruction
		// stream. Every run gets a fresh reader with its own cursor.
		return MustOpenSource(path, nil)
	}
	return workloads.CustomSource(hdr.Workload, hdr.Class, hdr.Footprint, setup, source), nil
}
