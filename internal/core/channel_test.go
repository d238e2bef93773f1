package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mimicos"
)

func TestFunctionalChannelRoundTrip(t *testing.T) {
	ch := NewFunctionalChannel(func(req Request) Response {
		if req.Kind != EvPageFault || req.VA != 0x1234 {
			t.Errorf("request corrupted: %+v", req)
		}
		return Response{Fault: mimicos.FaultOutcome{OK: true, Frame: 0xABC000}}
	})
	resp := ch.Call(Request{Kind: EvPageFault, VA: 0x1234})
	if !resp.Fault.OK || resp.Fault.Frame != 0xABC000 {
		t.Fatalf("response = %+v", resp)
	}
	if ch.Messages != 1 {
		t.Fatalf("channel accounting: messages=%d", ch.Messages)
	}
}

func TestStreamChannelAccounting(t *testing.T) {
	var ch StreamChannel
	s := isa.Stream{isa.ALU(50), isa.Load(1, 0x1000), isa.Store(2, 0x2000)}
	got := ch.Deliver(s)
	if len(got) != len(s) {
		t.Fatal("stream not passed through")
	}
	if ch.Streams != 1 || ch.Insts != 52 {
		t.Fatalf("accounting: %+v", ch)
	}
	ch.Deliver(isa.Stream{isa.ALU(10)})

	// Range records count the instructions they stand for: a 64-line
	// clear and a 4-line copy pair are 72 memory instructions in three
	// records.
	r := isa.Stream{
		{Op: isa.OpZeroLines, Count: 64, PC: 0x100, Addr: 0x10000, Phys: true},
		{Op: isa.OpCopyLines, Count: 4, PC: 0x200, Addr: 0x20000, Phys: true},
		{Op: isa.OpCopyDst, Count: 4, PC: 0x200, Addr: 0x30000, Phys: true},
	}
	ch.Deliver(r)
	x := r.Expand()
	if len(x) != 72 || x.Instructions() != 72 || x.MemOps() != 72 {
		t.Fatalf("expansion: %d records, %d insts, %d mem ops", len(x), x.Instructions(), x.MemOps())
	}
	if ch.Streams != 3 || ch.Insts != 52+10+72 || ch.PeakRecords != 3 {
		t.Fatalf("range accounting: %+v", ch)
	}
}
