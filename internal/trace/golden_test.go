package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"io"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// The worked example of docs/trace-format.md: three instructions of a
// minimal BFS-like trace. The golden tests below pin the format at
// byte level, so a change made symmetrically to the writer and the
// reader — which every round-trip test would accept — still fails.
func goldenHeader() Header {
	return Header{
		Workload: "BFS", Class: workloads.LongRunning, Footprint: 16 * mem.MB, Seed: 9,
		Layout: []Segment{{Start: 0x1000_0000_0000, Length: 16 * mem.MB, Anon: true}},
	}
}

func goldenInsts() []isa.Inst {
	return []isa.Inst{
		{Op: isa.OpStore, Count: 1, PC: 0x400100, Addr: 0x1000_0000_0000},
		{Op: isa.OpALU, Count: 2, PC: 0x400104},
		{Op: isa.OpStore, Count: 1, PC: 0x400100, Addr: 0x1000_0000_0040},
	}
}

// goldenV1 is the documented 51-byte v1 file.
var goldenV1 = []byte{
	0x56, 0x54, 0x52, 0x43, 0x01, 0x00, 0x00, 0x00, 0x03, 0x42, 0x46, 0x53, 0x00, 0x80, 0x80, 0x80,
	0x08, 0x09, 0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x04, 0x80, 0x80, 0x80, 0x08, 0x01, 0x00,
	0x64, 0x80, 0x84, 0x80, 0x04, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x08, 0x30, 0x08, 0x02, 0x64,
	0x07, 0x80, 0x01,
}

// goldenHeaderLen is where the record section starts in both versions.
const goldenHeaderLen = 0x20

func writeGolden(t *testing.T, w *Writer, buf *bytes.Buffer) []byte {
	t.Helper()
	if err := w.WriteHeader(goldenHeader()); err != nil {
		t.Fatal(err)
	}
	for _, in := range goldenInsts() {
		if err := w.WriteInst(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGoldenV1Bytes(t *testing.T) {
	var buf bytes.Buffer
	got := writeGolden(t, NewWriter(&buf, false), &buf)
	if !bytes.Equal(got, goldenV1) {
		t.Fatalf("v1 writer bytes differ from the documented example:\n got % x\nwant % x", got, goldenV1)
	}
}

func TestGoldenV1Decode(t *testing.T) {
	r, err := NewReader(bytes.NewReader(goldenV1))
	if err != nil {
		t.Fatal(err)
	}
	if h := r.Header(); h.Workload != "BFS" || h.Seed != 9 || h.Footprint != 16*mem.MB ||
		len(h.Layout) != 1 || h.Layout[0] != goldenHeader().Layout[0] {
		t.Fatalf("header: got %+v", h)
	}
	want := goldenInsts()
	got := readAll(t, r)
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if r.Records() != 3 || r.Insts() != 4 || r.MemOps() != 2 {
		t.Errorf("counts: records=%d insts=%d memops=%d, want 3/4/2", r.Records(), r.Insts(), r.MemOps())
	}
}

// TestGoldenV2Layout checks the v2 file field by field. The flate
// frame's bytes depend on the compressor, so the test inflates it and
// compares the records instead of pinning the compressed bytes.
func TestGoldenV2Layout(t *testing.T) {
	var buf bytes.Buffer
	file := writeGolden(t, NewWriterV2(&buf), &buf)

	hdr := append([]byte(nil), goldenV1[:goldenHeaderLen]...)
	hdr[4] = Version2
	if !bytes.Equal(file[:goldenHeaderLen], hdr) {
		t.Fatalf("header:\n got % x\nwant % x", file[:goldenHeaderLen], hdr)
	}

	p := file[goldenHeaderLen:]
	next := func(what string) uint64 {
		t.Helper()
		v, n := binary.Uvarint(p)
		if n <= 0 {
			t.Fatalf("%s: bad uvarint", what)
		}
		p = p[n:]
		return v
	}
	for _, f := range []struct {
		what string
		want uint64
	}{{"records", 3}, {"insts", 4}, {"mem-ops", 2}, {"rawLen", 19}} {
		if got := next(f.what); got != f.want {
			t.Fatalf("block header %s = %d, want %d", f.what, got, f.want)
		}
	}
	compLen := next("compLen")
	comp := p[:compLen]
	p = p[compLen:]
	crc := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if got := crc32.ChecksumIEEE(comp); got != crc {
		t.Fatalf("block CRC %#x, payload hashes to %#x", crc, got)
	}
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(comp)))
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenV1[goldenHeaderLen:]; !bytes.Equal(raw, want) {
		t.Fatalf("block inflates to % x, want the v1 record bytes % x", raw, want)
	}
	if next("sentinel") != 0 {
		t.Fatal("no sentinel after the only block")
	}

	indexOff := uint64(len(file) - len(p))
	index := p[:len(p)-trailerSize]
	for _, f := range []struct {
		what string
		want uint64
	}{
		{"block count", 1}, {"offset", goldenHeaderLen}, {"records", 3}, {"insts", 4},
		{"mem-ops", 2}, {"rawLen", 19}, {"compLen", compLen},
	} {
		if got := next("index " + f.what); got != f.want {
			t.Fatalf("index %s = %d, want %d", f.what, got, f.want)
		}
	}
	if got := binary.LittleEndian.Uint32(p); got != crc {
		t.Fatalf("index CRC %#x, want the block CRC %#x", got, crc)
	}
	p = p[4:]

	if len(p) != trailerSize {
		t.Fatalf("%d bytes after the index, want the %d-byte trailer", len(p), trailerSize)
	}
	if got := binary.LittleEndian.Uint64(p[0:8]); got != indexOff {
		t.Errorf("trailer index offset %d, want %d", got, indexOff)
	}
	if got := binary.LittleEndian.Uint32(p[8:12]); got != uint32(len(index)) {
		t.Errorf("trailer index length %d, want %d", got, len(index))
	}
	if got := binary.LittleEndian.Uint32(p[12:16]); got != crc32.ChecksumIEEE(index) {
		t.Errorf("trailer index CRC %#x, want %#x", got, crc32.ChecksumIEEE(index))
	}
	if string(p[16:20]) != TrailerMagic {
		t.Errorf("trailer magic %q", p[16:20])
	}
}

// TestWriterRejectsUncarriableOps feeds every op the control byte's
// three op bits cannot hold — the kernel-only range ops among them —
// between the golden records. Each must be an error that writes
// nothing: the files are byte-identical to the golden ones.
func TestWriterRejectsUncarriableOps(t *testing.T) {
	bad := []isa.Inst{
		{Op: isa.OpZeroLines, Count: 64, PC: 0x400200, Addr: 0x1000, Phys: true},
		{Op: isa.OpCopyLines, Count: 64, PC: 0x400200, Addr: 0x2000, Phys: true},
		{Op: isa.OpCopyDst, Count: 64, PC: 0x400200, Addr: 0x3000, Phys: true},
		{Op: isa.Op(8 + 4), Count: 1}, // an op number aliasing OpStore in three bits
		{Op: isa.Op(255), Count: 1},
	}
	for _, v2 := range []bool{false, true} {
		var want, got bytes.Buffer
		mk := func(buf *bytes.Buffer) *Writer {
			if v2 {
				return NewWriterV2(buf)
			}
			return NewWriter(buf, false)
		}
		writeGolden(t, mk(&want), &want)

		w := mk(&got)
		if err := w.WriteHeader(goldenHeader()); err != nil {
			t.Fatal(err)
		}
		for _, in := range goldenInsts() {
			for _, b := range bad {
				if err := w.WriteInst(b); err == nil {
					t.Fatalf("v2=%v: WriteInst(%v) succeeded", v2, b.Op)
				}
			}
			if err := w.WriteInst(in); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if w.Records() != 3 || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("v2=%v: %d records; rejected ops changed the file:\n got % x\nwant % x", v2, w.Records(), got.Bytes(), want.Bytes())
		}
	}
}
