package trace

import (
	"bytes"
	"testing"

	"repro/internal/isa"
)

// TestReadZeroAllocs locks in the allocation-free decode path: once the
// Reader is constructed, steady-state Read calls (the Peek/Discard
// window over the buffered stream) must not allocate per record. Replay
// throughput depends on it — a trace run decodes hundreds of millions
// of records.
func TestReadZeroAllocs(t *testing.T) {
	// Enough varied records that warm-up plus every measured run decodes
	// well clear of the end of stream.
	const (
		perRun  = 2000
		runs    = 5
		total   = (runs + 2) * perRun
		basePC  = 0x400000
		baseVA  = 0x1000_0000_0000
		opCycle = 4
	)
	var buf bytes.Buffer
	w := NewWriter(&buf, false)
	if err := w.WriteHeader(testHeader()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		in := isa.Inst{Count: 1, PC: uint64(basePC + 4*i)}
		switch i % opCycle {
		case 0:
			in.Op = isa.OpALU
			in.Count = uint32(2 + i%7)
		case 1:
			in.Op = isa.OpLoad
			in.Addr = uint64(baseVA + 64*i)
		case 2:
			in.Op = isa.OpStore
			in.Addr = uint64(baseVA + 64*(total-i)) // backward delta
		case 3:
			in.Op = isa.OpBranch
		}
		if err := w.WriteInst(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var out isa.Inst
	avg := testing.AllocsPerRun(runs, func() {
		for i := 0; i < perRun; i++ {
			if err := r.Read(&out); err != nil {
				t.Fatalf("record %d: %v", r.Records(), err)
			}
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state Read allocates %.1f times per %d records (want 0)", avg, perRun)
	}
}

// TestReadZeroAllocsV2 locks in the same guarantee for the v2 block
// path: once the first block's scratch buffers and flate state exist,
// steady-state Read (block loads included, amortised) must not
// allocate per record.
func TestReadZeroAllocsV2(t *testing.T) {
	const (
		perRun = 2000
		runs   = 5
		total  = (runs + 4) * perRun
		basePC = 0x400000
		baseVA = 0x1000_0000_0000
	)
	var buf bytes.Buffer
	w := NewWriterV2(&buf)
	if err := w.WriteHeader(testHeader()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		in := isa.Inst{Count: 1, PC: uint64(basePC + 4*i)}
		switch i % 4 {
		case 0:
			in.Op = isa.OpALU
			in.Count = uint32(2 + i%7)
		case 1:
			in.Op = isa.OpLoad
			in.Addr = uint64(baseVA + 64*i)
		case 2:
			in.Op = isa.OpStore
			in.Addr = uint64(baseVA + 64*(total-i))
		case 3:
			in.Op = isa.OpBranch
		}
		if err := w.WriteInst(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Warm up past the first block so the scratch buffers exist.
	var out isa.Inst
	for i := 0; i < perRun; i++ {
		if err := r.Read(&out); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(runs, func() {
		for i := 0; i < perRun; i++ {
			if err := r.Read(&out); err != nil {
				t.Fatalf("record %d: %v", r.Records(), err)
			}
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state v2 Read allocates %.1f times per %d records (want 0)", avg, perRun)
	}
}
