// Package core implements the Virtuoso engine — the paper's primary
// contribution (§3, §4): the coupling of an architectural simulator with
// the MimicOS userspace kernel through two communication channels. The
// functional channel carries event requests (page faults, system calls)
// and their functional results; the instruction-stream channel carries
// the dynamically instrumented instructions of the kernel routine that
// served the event, which the engine injects into the simulator's core
// model. Magic (doorbell) operations bracket the hand-off, imitating the
// xchg/m5op synchronisation of §4.2.
package core

import (
	"sync"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mimicos"
)

// EventKind enumerates functional-channel request types.
type EventKind uint8

const (
	// EvPageFault asks the kernel to service a page fault.
	EvPageFault EventKind = iota
	// EvMmap asks the kernel to create a mapping (syscall).
	EvMmap
	// EvMunmap asks the kernel to destroy mappings (syscall).
	EvMunmap
)

// Request is one message written by the simulator into the functional
// channel's shared-memory mailbox.
type Request struct {
	Kind   EventKind
	PID    int
	VA     mem.VAddr
	Write  bool
	Now    uint64
	Length uint64
	Flags  mimicos.MmapFlags
}

// Response is the kernel's functional result.
type Response struct {
	Fault    mimicos.FaultOutcome
	MmapBase mem.VAddr
}

// FunctionalChannel is the shared-memory mailbox plus doorbell. The
// synchronous Call path models the common single-outstanding-event case;
// Serve/Submit provide the multithreaded-kernel path of §4.3.
type FunctionalChannel struct {
	mu       sync.Mutex
	handler  func(Request) Response
	Messages uint64
	Doorbell uint64 // magic-instruction count
}

// NewFunctionalChannel binds the channel to a kernel-side handler.
func NewFunctionalChannel(handler func(Request) Response) *FunctionalChannel {
	return &FunctionalChannel{handler: handler}
}

// Call performs one request/response round trip: write parameters, ring
// the doorbell, wait for the kernel's completion doorbell, read results.
func (c *FunctionalChannel) Call(req Request) Response {
	c.mu.Lock()
	c.Messages++
	c.Doorbell += 2 // simulator->kernel and kernel->simulator magic ops
	h := c.handler
	c.mu.Unlock()
	return h(req)
}

// Submit dispatches a request asynchronously; the kernel handles it on
// its own goroutine (a MimicOS worker thread) and delivers the response
// on the returned channel.
func (c *FunctionalChannel) Submit(req Request) <-chan Response {
	out := make(chan Response, 1)
	go func() {
		out <- c.Call(req)
	}()
	return out
}

// StreamChannel is the instruction-stream channel: the kernel's
// instrumented instructions flow through it to the simulator's core
// model. It tracks volume for the §7.3 correlation analysis.
type StreamChannel struct {
	Streams    uint64
	Insts      uint64
	MemOps     uint64
	PeakStream uint64 // largest stream, in instructions
	// PeakRecords is the largest stream in records: the buffer one
	// kernel event needs. Range records keep it small, since a 2 MB
	// clear is one record however many instructions it stands for.
	PeakRecords uint64
}

// Deliver accounts one kernel stream passing through the channel and
// returns it for injection.
func (c *StreamChannel) Deliver(s isa.Stream) isa.Stream {
	c.Streams++
	n := s.Instructions()
	c.Insts += n
	c.MemOps += s.MemOps()
	c.PeakStream = max(c.PeakStream, n)
	c.PeakRecords = max(c.PeakRecords, uint64(len(s)))
	return s
}
