package core

import (
	"runtime"
	"time"

	"repro/internal/isa"
	"repro/internal/mimicos"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// The run loop. Every run shape — Run, RunRecording, RunSteps and each
// RunMulti scheduling slice — retires application instructions through
// (*System).drive, reading them from a frontend buffer. The batch
// length is the only difference between the fast lane (batchSize) and
// the reference path (1).

// cancelStride is how many frontend instructions the loop retires
// between cancellation polls: rare enough to stay off the hot path,
// frequent enough that a cancelled context stops a simulation within
// microseconds of simulated work.
const cancelStride = 1 << 13

// batchSize is the fast lane's frontend read-ahead: large enough to
// amortize the per-batch isa.Source dispatch to noise.
const batchSize = 256

// noBound is the app-instruction or cycle limit of an unbounded drive:
// the core's counters never reach it.
const noBound = ^uint64(0)

// batchLen is the frontend batch length: batchSize on the fast lane,
// one instruction per read on the reference path.
func batchLen(referencePath bool) int {
	if referencePath {
		return 1
	}
	return batchSize
}

// frontend reads an instruction source in batches. buf[pos:n] holds
// instructions read ahead but not yet retired; a multiprogrammed
// process keeps its frontend across scheduling slices, so a quantum
// boundary mid-batch loses nothing.
type frontend struct {
	src    isa.Source
	buf    []isa.Inst
	pos, n int
}

// refill reads the next batch into buf and returns its length (0 at
// the end of the source).
func (f *frontend) refill() int {
	f.n, f.pos = isa.FillBatch(f.src, f.buf), 0
	return f.n
}

// stopReason says why drive returned.
type stopReason uint8

const (
	stopEOF    stopReason = iota // the source is exhausted
	stopBound                    // the app-instruction limit was reached
	stopSlice                    // the cycle limit was reached
	stopCancel                   // the cancellation check fired
)

// drive retires instructions from f until the source ends, the core has
// retired appEnd application instructions in total, its clock reaches
// cycleEnd, or the cancellation check fires. Every instruction gets the
// same sequence: frontend tap, core step, observer poll, app bound,
// cycle bound, and — every cancelStride instructions, counted across
// calls — a cancellation poll. Read-ahead left in f when a bound stops
// the loop is retired by the next drive over f, or discarded with it.
func (s *System) drive(f *frontend, appEnd, cycleEnd uint64) stopReason {
	buf, i, n := f.buf, f.pos, f.n
	polled := s.polled
	why := stopEOF
	for {
		if i == n {
			if n, i = f.refill(), 0; n == 0 {
				break
			}
		}
		in := buf[i]
		i++
		if s.frontendTap != nil {
			s.frontendTap(in)
		}
		s.Core.Run(in)
		if s.observer != nil {
			s.maybeObserve()
		}
		if s.Core.Stats().AppInsts >= appEnd {
			why = stopBound
			break
		}
		if s.Core.Now() >= cycleEnd {
			why = stopSlice
			break
		}
		if polled++; polled%cancelStride == 0 && s.Cancelled() {
			s.interrupted = true
			why = stopCancel
			break
		}
	}
	f.pos, f.n = i, n
	s.polled = polled
	return why
}

// appEnd converts a bound of max further application instructions
// (0 = none) into drive's absolute limit.
func (s *System) appEnd(max uint64) uint64 {
	now := s.Core.Stats().AppInsts
	if max == 0 || now+max < now {
		return noBound
	}
	return now + max
}

// batchBuf returns the system's frontend buffer cut to n instructions.
// The buffer is allocated on first use and kept for the system's
// lifetime.
func (s *System) batchBuf(n int) []isa.Inst {
	if s.batch == nil {
		s.batch = make([]isa.Inst, batchSize)
	}
	return s.batch[:n]
}

// Run simulates the workload and returns the collected metrics.
func (s *System) Run(w *workloads.Workload) Metrics {
	src := s.Prepare(w)
	// Run owns the frontend it built: release sources backed by a file
	// even when the instruction bound stops the run before EOF.
	defer closeSource(src)
	return s.runPrepared(w.Name(), src)
}

// runPrepared is the tail Run and RunRecording share: it drives src to
// Config.MaxAppInsts at the configured batch length and collects the
// measured metrics.
func (s *System) runPrepared(name string, src isa.Source) Metrics {
	return s.measure(name, func() {
		f := frontend{src: src, buf: s.batchBuf(batchLen(s.Cfg.ReferencePath))}
		s.drive(&f, s.appEnd(s.Cfg.MaxAppInsts), noBound)
	})
}

// measure times run, emits the closing observer snapshot unless the run
// was cancelled, and collects the metrics with the run's wall time and
// heap growth.
func (s *System) measure(name string, run func()) Metrics {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	run()
	c := s.counters()
	if !s.interrupted && s.observer != nil {
		// The closing snapshot and the metrics package one counter
		// read, so Final snapshot == Metrics exactly.
		s.emitSnapshot(c, true)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return s.collect(name, c, wall, before, after)
}

// RunSteps drives the system over src until it is exhausted or the core
// has retired maxApp further application instructions (0 = no bound).
// The caller owns src and may drive it again, so RunSteps reads one
// instruction at a time and never consumes past the bound.
func (s *System) RunSteps(src isa.Source, maxApp uint64) {
	f := frontend{src: src, buf: s.batchBuf(1)}
	s.drive(&f, s.appEnd(maxApp), noBound)
}

// Prepare performs the address-space setup for w without running it,
// returning the instruction source. Callers then drive RunSteps and
// Collect explicitly.
func (s *System) Prepare(w *workloads.Workload) isa.Source {
	// The exec/loader phase is functional only; the text segment backs
	// instruction fetches at the workloads' PCs.
	s.OS.Mmap(s.Proc.PID, TextSegBytes, mimicos.MmapFlags{
		File: true, FileID: TextSegFileID, FixedAddr: TextSegBase,
	})
	w.Setup(s.OS, s.Proc.PID)
	s.OS.Tracer.Begin() // drop setup streams
	if s.PFLatNs == nil {
		s.PFLatNs = stats.NewSeries(0)
		s.MajorPFLatNs = stats.NewSeries(0)
	}
	return s.makeFrontend(w)
}

// Collect gathers metrics after explicit RunSteps driving.
func (s *System) Collect(w *workloads.Workload) Metrics {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return s.collect(w.Name(), s.counters(), 0, ms, ms)
}
