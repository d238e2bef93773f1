package core

// Streaming observation: a run can emit periodic Snapshots of its
// counters to an installed observer — the hook behind the public
// virtuoso.WithObserver API. Observation is strictly read-only: the
// observer receives copies of cumulative counters and cannot perturb
// the simulation, so an observed run is byte-identical to an unobserved
// one (guarded by TestObserverDeterminism at the root).

// DefaultObserveEvery is the snapshot interval in application
// instructions when the observer is installed without an explicit one.
const DefaultObserveEvery = 250_000

// Snapshot is one interval observation of a running simulation. All
// counters are cumulative since the start of the run; per-interval
// rates are the differences between consecutive snapshots. The final
// snapshot of a completed run (Final == true) is taken at the same
// instant the run's Metrics are collected, so its counters equal the
// corresponding Metrics fields exactly.
type Snapshot struct {
	// Seq numbers snapshots from 0 in emission order.
	Seq int
	// Final marks the closing snapshot of a completed run.
	Final bool

	AppInsts    uint64
	KernelInsts uint64
	Cycles      uint64

	L2TLBMisses uint64
	Walks       uint64
	WalkCycles  uint64

	MinorFaults uint64
	MajorFaults uint64
	SwapIns     uint64
	SwapOuts    uint64
	Collapses   uint64

	// Promotions / Demotions count tiered-memory migrations so far
	// (always zero without slow tiers configured).
	Promotions uint64
	Demotions  uint64

	// ContextSwitches counts scheduler dispatches so far (always zero
	// in single-workload runs).
	ContextSwitches uint64
}

// IPC returns the snapshot's cumulative instructions per cycle.
func (s Snapshot) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.AppInsts) / float64(s.Cycles)
}

// SetObserver installs a streaming observer: Run, RunRecording and
// RunMulti call f with a Snapshot roughly every `every` application
// instructions (0 = DefaultObserveEvery) and once more, with Final set,
// when the run completes. RunSteps emits the interval snapshots only. Pass nil to remove. The callback runs on the simulation
// goroutine — keep it cheap, and do not touch the System from inside
// it.
func (s *System) SetObserver(f func(Snapshot), every uint64) {
	s.observer = f
	if every == 0 {
		every = DefaultObserveEvery
	}
	s.observeEvery = every
	s.nextObserve = every
	s.obsSeq = 0
}

// maybeObserve emits a snapshot when the run has crossed the next
// observation threshold. Called from the run loop only when an
// observer is installed.
func (s *System) maybeObserve() {
	if s.Core.Stats().AppInsts < s.nextObserve {
		return
	}
	s.emitSnapshot(false)
	// Advance past the counter (instructions retire in batches, so one
	// step can cross several intervals).
	for s.nextObserve <= s.Core.Stats().AppInsts {
		s.nextObserve += s.observeEvery
	}
}

// finishObserve emits the closing snapshot of a completed run, taken at
// the same counter state Metrics collection reads.
func (s *System) finishObserve() {
	if s.observer == nil {
		return
	}
	s.emitSnapshot(true)
}

func (s *System) emitSnapshot(final bool) {
	cs := s.Core.Stats()
	ms := s.MMU.Stats()
	os := s.OS.Stats()
	snap := Snapshot{
		Seq:   s.obsSeq,
		Final: final,

		AppInsts:    cs.AppInsts,
		KernelInsts: cs.KernelInsts,
		Cycles:      cs.Cycles,

		L2TLBMisses: ms.L2TLBMisses,
		Walks:       ms.Walks,
		WalkCycles:  ms.WalkCycles,

		MinorFaults: os.MinorFaults,
		MajorFaults: os.MajorFaults,
		SwapIns:     os.SwapIns,
		SwapOuts:    os.SwapOuts,
		Collapses:   os.Collapses,

		Promotions: os.Promotions,
		Demotions:  os.Demotions,

		ContextSwitches: s.obsCtxSwitches,
	}
	s.obsSeq++
	s.observer(snap)
}
