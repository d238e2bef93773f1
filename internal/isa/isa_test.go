package isa

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/mem"
)

func TestStreamCounts(t *testing.T) {
	s := Stream{
		ALU(100),
		Load(0x400000, 0x1000),
		Store(0x400004, 0x2000),
		{Op: OpDelay, Count: 5000},
		{Op: OpAtomic, Count: 1, Addr: 0x3000},
	}
	if got := s.Instructions(); got != 103 {
		t.Fatalf("instructions = %d (delays must not count)", got)
	}
	if got := s.MemOps(); got != 3 {
		t.Fatalf("mem ops = %d", got)
	}
}

func TestOpClassification(t *testing.T) {
	if !OpLoad.HasMemOperand() || !OpStore.HasMemOperand() || !OpAtomic.HasMemOperand() {
		t.Fatal("memory ops misclassified")
	}
	if OpALU.HasMemOperand() || OpDelay.HasMemOperand() || OpMagic.HasMemOperand() {
		t.Fatal("non-memory ops misclassified")
	}
	if OpLoad.IsWrite() || !OpStore.IsWrite() || !OpAtomic.IsWrite() {
		t.Fatal("write classification wrong")
	}
	if !OpZeroLines.HasMemOperand() || !OpCopyLines.HasMemOperand() || !OpCopyDst.HasMemOperand() {
		t.Fatal("range ops misclassified")
	}
}

// TestInstSize pins the record size: kernel streams, trace batches and
// the frontend buffer all hold Insts by value. A copy's second address
// travels in its own OpCopyDst record rather than widening Inst.
func TestInstSize(t *testing.T) {
	if n := unsafe.Sizeof(Inst{}); n != 24 {
		t.Fatalf("isa.Inst is %d bytes, want 24", n)
	}
}

func TestExpandRangeRecords(t *testing.T) {
	s := Stream{
		ALU(2),
		{Op: OpZeroLines, Phys: true, Count: 2, PC: 0x100, Addr: 0x1000},
		{Op: OpCopyLines, Phys: true, Count: 2, PC: 0x200, Addr: 0x2000},
		{Op: OpCopyDst, Phys: true, Count: 2, PC: 0x200, Addr: 0x8000},
		{Op: OpDelay, Count: 7},
	}
	want := Stream{
		ALU(2),
		{Op: OpStore, Phys: true, Count: 1, PC: 0x100, Addr: 0x1000},
		{Op: OpStore, Phys: true, Count: 1, PC: 0x104, Addr: 0x1040},
		{Op: OpLoad, Phys: true, Count: 1, PC: 0x200, Addr: 0x2000},
		{Op: OpStore, Phys: true, Count: 1, PC: 0x204, Addr: 0x8000},
		{Op: OpLoad, Phys: true, Count: 1, PC: 0x208, Addr: 0x2040},
		{Op: OpStore, Phys: true, Count: 1, PC: 0x20c, Addr: 0x8040},
		{Op: OpDelay, Count: 7},
	}
	got := s.Expand()
	if !reflect.DeepEqual(got, want) || cap(got) != len(want) {
		t.Fatalf("Expand = %+v (cap %d), want %+v", got, cap(got), want)
	}
	if s.Instructions() != want.Instructions() || s.MemOps() != want.MemOps() {
		t.Fatalf("range form counts %d/%d, per-line %d/%d", s.Instructions(), s.MemOps(), want.Instructions(), want.MemOps())
	}
	if OpZeroLines.String() != "zero-lines" || OpCopyDst.String() != "copy-dst" {
		t.Fatal("range op names")
	}
}

func TestSliceSource(t *testing.T) {
	s := Stream{ALU(1), ALU(2), ALU(3)}
	src := &SliceSource{S: s}
	var in Inst
	n := 0
	for src.Next(&in) {
		n++
	}
	if n != 3 {
		t.Fatalf("drained %d", n)
	}
	src.Reset()
	if !src.Next(&in) || in.Count != 1 {
		t.Fatal("reset failed")
	}
}

func TestBatchCount(t *testing.T) {
	if (Inst{Op: OpALU}).N() != 1 {
		t.Fatal("zero count should mean 1")
	}
	if (Inst{Op: OpALU, Count: 7}).N() != 7 {
		t.Fatal("batch count lost")
	}
}

func TestConstructors(t *testing.T) {
	l := Load(0x400100, mem.VAddr(0x1234))
	if l.Op != OpLoad || l.Addr != 0x1234 || l.PC != 0x400100 || l.Phys {
		t.Fatalf("Load = %+v", l)
	}
	st := Store(0x400104, mem.VAddr(0x5678))
	if st.Op != OpStore || !st.Op.IsWrite() {
		t.Fatalf("Store = %+v", st)
	}
}
