// Package isa defines the synthetic instruction format shared by the
// application frontends and the kernel instrumentation layer. It plays the
// role of the instruction stream that, in the paper, a binary
// instrumentation tool (Intel Pin / DynamoRIO) produces for both the
// simulated application and MimicOS routines, and that the simulator's
// core model consumes.
package isa

import (
	"fmt"

	"repro/internal/mem"
)

// Op is a synthetic instruction class. The core model only needs
// instruction classes, not full semantics: it charges pipeline occupancy
// per class and routes memory operands through the MMU and cache models.
type Op uint8

const (
	// OpALU is a register-only integer operation. Count may batch several.
	OpALU Op = iota
	// OpFP is a floating-point operation (longer issue latency).
	OpFP
	// OpBranch is a conditional branch.
	OpBranch
	// OpLoad reads Addr.
	OpLoad
	// OpStore writes Addr.
	OpStore
	// OpAtomic is a locked read-modify-write on Addr (kernel
	// synchronisation; models the §4.3 multithreaded-kernel overheads).
	OpAtomic
	// OpDelay stalls the pipeline for Count cycles. Used to represent
	// device time (e.g., SSD access latency returned by MQSim) inside an
	// injected kernel stream.
	OpDelay
	// OpMagic is a magic instruction (xchg rN,rN / m5op imitation): a
	// doorbell marking functional-channel synchronisation points. The
	// core model executes it in one cycle; the Virtuoso engine intercepts
	// it to switch between application and kernel instruction streams.
	OpMagic

	// The range ops below stand for a run of per-line memory operations
	// in one record. Only kernel streams carry them (see Stream.Expand);
	// the trace codec cannot store them. Their addresses are physical:
	// their one producer, instrument.Tracer (also behind ext.Tracer),
	// always sets Phys, and the core runs their lines through the kernel
	// direct map without consulting it.

	// OpZeroLines clears Count consecutive cache lines from Addr: line i
	// is a store of Addr+64i at PC+4i.
	OpZeroLines
	// OpCopyLines copies Count consecutive cache lines from the source
	// Addr to the destination in the OpCopyDst record that directly
	// follows it: line i is a load of src+64i at PC+8i, then a store of
	// dst+64i at PC+8i+4.
	OpCopyLines
	// OpCopyDst is the second record of an OpCopyLines pair. It carries
	// the destination Addr and the same Count and Phys as its head.
	OpCopyDst
)

func (o Op) String() string {
	switch o {
	case OpALU:
		return "alu"
	case OpFP:
		return "fp"
	case OpBranch:
		return "branch"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpAtomic:
		return "atomic"
	case OpDelay:
		return "delay"
	case OpMagic:
		return "magic"
	case OpZeroLines:
		return "zero-lines"
	case OpCopyLines:
		return "copy-lines"
	case OpCopyDst:
		return "copy-dst"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// HasMemOperand reports whether the op carries a memory address.
func (o Op) HasMemOperand() bool {
	return o == OpLoad || o == OpStore || o == OpAtomic || o >= OpZeroLines
}

// IsWrite reports whether a per-line memory op writes memory.
func (o Op) IsWrite() bool { return o == OpStore || o == OpAtomic }

// Inst is one synthetic instruction.
//
// Application streams carry virtual addresses (Phys=false) that the core
// model translates through the MMU. Kernel streams produced by the
// instrumentation layer carry physical addresses in the kernel direct map
// (Phys=true), bypassing translation but still traversing the cache
// hierarchy and DRAM — this is how injected OS routines pollute caches and
// contend for memory bandwidth, the effect emulation-based simulators miss.
type Inst struct {
	Op    Op
	Phys  bool
	Count uint32 // batch size for OpALU/OpFP/OpBranch; delay cycles for OpDelay; lines for range ops; else 1
	PC    uint64 // synthetic program counter (drives the IP-stride prefetcher)
	Addr  uint64 // memory operand if Op.HasMemOperand()
}

// N returns the effective batch count (at least 1).
func (i Inst) N() uint64 {
	if i.Count == 0 {
		return 1
	}
	return uint64(i.Count)
}

// Stream is a materialised instruction sequence (e.g., one kernel routine's
// dynamically generated instructions).
type Stream []Inst

// Instructions returns the total dynamic instruction count of the stream,
// counting batched ops at their batch size and excluding pure delays.
func (s Stream) Instructions() uint64 {
	var n uint64
	for _, in := range s {
		if in.Op == OpDelay {
			continue
		}
		n += in.N()
	}
	return n
}

// MemOps returns the number of memory-operand instructions in the stream.
func (s Stream) MemOps() uint64 {
	var n uint64
	for _, in := range s {
		if in.Op.HasMemOperand() {
			n += in.N()
		}
	}
	return n
}

// Expand returns the per-line form of s: a new stream in which every
// range record is replaced by the loads and stores it stands for, and
// every other record is copied as is. Both forms count the same
// Instructions and MemOps, and the core executes them identically.
func (s Stream) Expand() Stream {
	n := len(s)
	for _, in := range s {
		if in.Op >= OpZeroLines {
			n += int(in.N()) - 1 // a copy pair's two records add 2 per line
		}
	}
	out := make(Stream, 0, n)
	for i := 0; i < len(s); i++ {
		in := s[i]
		switch in.Op {
		case OpZeroLines:
			for j := uint64(0); j < in.N(); j++ {
				out = append(out, Inst{Op: OpStore, Phys: in.Phys, Count: 1, PC: in.PC + 4*j, Addr: in.Addr + j*mem.CacheLineBytes})
			}
		case OpCopyLines:
			i++
			dst := s[i]
			for j := uint64(0); j < in.N(); j++ {
				off := j * mem.CacheLineBytes
				out = append(out,
					Inst{Op: OpLoad, Phys: in.Phys, Count: 1, PC: in.PC + 8*j, Addr: in.Addr + off},
					Inst{Op: OpStore, Phys: dst.Phys, Count: 1, PC: in.PC + 8*j + 4, Addr: dst.Addr + off})
			}
		default:
			out = append(out, in)
		}
	}
	return out
}

// Source produces an instruction stream one instruction at a time; it is
// the frontend-facing abstraction (trace-driven, execution-driven, or
// emulation-driven frontends all implement it).
type Source interface {
	// Next stores the next instruction into out and reports whether one
	// was produced. After Next returns false the source is exhausted.
	Next(out *Inst) bool
}

// BatchSource is implemented by sources that can hand out many
// instructions per call, letting the engine's fast lane amortize the
// per-instruction interface dispatch of Next. Sources without a
// natural batch form are adapted by FillBatch.
type BatchSource interface {
	Source
	// NextBatch fills out with up to len(out) instructions and returns
	// how many were produced. Zero means the source is exhausted.
	// Interleaving NextBatch and Next is allowed; both consume the same
	// underlying stream.
	NextBatch(out []Inst) int
}

// FillBatch fills out from src — natively when src implements
// BatchSource, otherwise by repeated Next calls — and returns the
// number of instructions produced. Zero means src is exhausted.
func FillBatch(src Source, out []Inst) int {
	if bs, ok := src.(BatchSource); ok {
		return bs.NextBatch(out)
	}
	n := 0
	for n < len(out) && src.Next(&out[n]) {
		n++
	}
	return n
}

// SliceSource adapts a Stream into a Source.
type SliceSource struct {
	S   Stream
	pos int
}

// Next implements Source.
func (ss *SliceSource) Next(out *Inst) bool {
	if ss.pos >= len(ss.S) {
		return false
	}
	*out = ss.S[ss.pos]
	ss.pos++
	return true
}

// NextBatch implements BatchSource.
func (ss *SliceSource) NextBatch(out []Inst) int {
	n := copy(out, ss.S[ss.pos:])
	ss.pos += n
	return n
}

// Reset rewinds the source to the beginning.
func (ss *SliceSource) Reset() { ss.pos = 0 }

// Load constructs a load instruction at a virtual address.
func Load(pc uint64, va mem.VAddr) Inst { return Inst{Op: OpLoad, PC: pc, Addr: uint64(va)} }

// Store constructs a store instruction at a virtual address.
func Store(pc uint64, va mem.VAddr) Inst { return Inst{Op: OpStore, PC: pc, Addr: uint64(va)} }

// ALU constructs a batch of n register-only operations.
func ALU(n uint32) Inst { return Inst{Op: OpALU, Count: n} }
