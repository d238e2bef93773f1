package core

import (
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
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
	if ch.Messages != 1 || ch.Doorbell != 2 {
		t.Fatalf("channel accounting: messages=%d doorbells=%d", ch.Messages, ch.Doorbell)
	}
}

func TestFunctionalChannelConcurrentSubmit(t *testing.T) {
	// §4.3: multiple outstanding requests served by kernel workers. The
	// kernel's own locking keeps it correct; the channel must deliver
	// every response.
	cfg := mimicos.DefaultConfig()
	cfg.PhysBytes = 256 * mem.MB
	k := mimicos.New(cfg, nil)
	const procs = 6
	bases := make([]mem.VAddr, procs)
	for i := 0; i < procs; i++ {
		k.CreateProcess(i + 1)
		bases[i] = k.Mmap(i+1, 1*mem.MB, mimicos.MmapFlags{Anon: true})
	}
	ch := NewFunctionalChannel(func(req Request) Response {
		return Response{Fault: k.HandlePageFault(req.PID, req.VA, req.Write, req.Now)}
	})
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				resp := <-ch.Submit(Request{
					Kind: EvPageFault, PID: p + 1,
					VA: bases[p] + mem.VAddr(i*4096), Write: true,
				})
				if !resp.Fault.OK {
					t.Errorf("proc %d fault %d failed", p, i)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if ch.Messages != procs*32 {
		t.Fatalf("messages = %d", ch.Messages)
	}
}

func TestStreamChannelAccounting(t *testing.T) {
	var ch StreamChannel
	s := isa.Stream{isa.ALU(50), isa.Load(1, 0x1000), isa.Store(2, 0x2000)}
	got := ch.Deliver(s)
	if len(got) != len(s) {
		t.Fatal("stream not passed through")
	}
	if ch.Streams != 1 || ch.Insts != 52 || ch.MemOps != 2 {
		t.Fatalf("accounting: %+v", ch)
	}
	ch.Deliver(isa.Stream{isa.ALU(10)})
	if ch.PeakStream != 52 {
		t.Fatalf("peak = %d", ch.PeakStream)
	}

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
	if ch.Streams != 3 || ch.Insts != 52+10+72 || ch.MemOps != 2+72 || ch.PeakStream != 72 || ch.PeakRecords != 3 {
		t.Fatalf("range accounting: %+v", ch)
	}
}
