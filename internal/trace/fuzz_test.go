package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/isa"
)

// fuzzTraceBytes serialises the shared test trace in the given format
// for seeding the fuzz corpus.
func fuzzTraceBytes(f *testing.F, version int, compress bool) []byte {
	f.Helper()
	var buf bytes.Buffer
	var w *Writer
	if version == Version2 {
		w = NewWriterV2(&buf)
	} else {
		w = NewWriter(&buf, compress)
	}
	if err := w.WriteHeader(testHeader()); err != nil {
		f.Fatal(err)
	}
	for _, in := range testInsts() {
		if err := w.WriteInst(in); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReader feeds arbitrary bytes to the trace decoder. The contract
// under fuzz: corrupt or truncated input must surface as an
// ErrCorrupt-wrapped error (or a clean io.EOF at a record boundary) —
// never a panic, never an unbounded allocation, and never a bare
// undiagnosable error. Every input is exercised through the sequential
// Reader (which sniffs the envelope and version) and, written to a
// file, through the seekable index path (ReadInfo).
func FuzzReader(f *testing.F) {
	// Seed corpus: valid v1 (plain and gzip) and v2 traces, prefixes
	// that truncate the header, the record stream, the v2 footer and
	// trailer, targeted corruptions (bad magic, bad version, reserved
	// control bit, flag bits, block CRCs, index bytes), and junk.
	valid := fuzzTraceBytes(f, Version1, false)
	v2 := fuzzTraceBytes(f, Version2, false)
	f.Add(valid)
	f.Add(fuzzTraceBytes(f, Version1, true))
	f.Add(v2)
	f.Add([]byte{})
	f.Add([]byte("VTRC"))
	f.Add(valid[:8])
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:len(valid)/2])
	for _, mut := range []struct {
		off int
		bit byte
	}{
		{0, 0x01},              // magic
		{4, 0x01},              // major version
		{6, 0x04},              // flags
		{len(valid) - 4, 0x80}, // inside the record stream
	} {
		c := append([]byte(nil), valid...)
		c[mut.off] ^= mut.bit
		f.Add(c)
	}
	// v2-specific seeds: truncated footer (index/trailer cut off),
	// truncated trailer, corrupt block payload CRC, index/offset
	// mismatch (a flipped byte inside the serialised index), and a
	// trailer pointing past the file.
	f.Add(v2[:len(v2)-trailerSize])
	f.Add(v2[:len(v2)-trailerSize/2])
	f.Add(v2[:len(v2)-trailerSize-3])
	for _, off := range []int{
		len(v2) / 2,               // inside a block payload (CRC breaks)
		len(v2) - trailerSize - 2, // inside the index (index CRC breaks)
		len(v2) - trailerSize + 1, // inside the trailer's index offset
		len(v2) - 2,               // inside the trailer magic
	} {
		c := append([]byte(nil), v2...)
		c[off] ^= 0x40
		f.Add(c)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("NewReader error not ErrCorrupt: %v", err)
			}
		} else {
			var in isa.Inst
			for i := 0; i < 1<<16; i++ {
				err := r.Read(&in)
				if err == nil {
					continue
				}
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Read error neither EOF nor ErrCorrupt: %v", err)
				}
				break
			}
			r.Close()
		}

		// The seekable side: ReadInfo consults the v2 trailer and index
		// when present, and must uphold the same contract.
		path := filepath.Join(t.TempDir(), "fuzz.trc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadInfo(path); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ReadInfo error not ErrCorrupt: %v", err)
		}
	})
}

// fuzzInsts turns fuzz bytes into an instruction stream. Each
// instruction takes a selector byte — op, Phys, and which fields
// follow — then the fields it selects: a count (one byte, or four for
// the full 0…2³²−1 range), an arbitrary 64-bit PC delta, an arbitrary
// 64-bit address delta. Every op gets an address, so the writer's
// canonicalisation of ops without a memory operand is exercised too.
func fuzzInsts(data []byte) []isa.Inst {
	var out []isa.Inst
	var pc, addr uint64
	take := func(n int) uint64 {
		var v uint64
		for i := 0; i < n && len(data) > 0; i++ {
			v |= uint64(data[0]) << (8 * i)
			data = data[1:]
		}
		return v
	}
	for len(data) > 0 {
		sel := byte(take(1))
		in := isa.Inst{Op: isa.Op(sel & 0x07), Phys: sel&0x08 != 0}
		switch sel >> 4 & 0x03 {
		case 1:
			in.Count = 1
		case 2:
			in.Count = uint32(take(1))
		case 3:
			in.Count = uint32(take(4))
		}
		if sel&0x40 != 0 {
			pc += take(8)
		}
		if sel&0x80 != 0 {
			addr += take(8)
		} else {
			addr += 64
		}
		in.PC, in.Addr = pc, addr
		out = append(out, in)
	}
	return out
}

// FuzzRecordRoundTrip writes a fuzz-built instruction stream as v1
// plain, v1 gzip and v2, and requires every encoding to decode back to
// the writer-canonicalised stream (Count 0 stored as 1, no address on
// ops without a memory operand), with the Reader's counts equal to the
// Writer's. Each file is decoded both record by record and through the
// replay source's batch path.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x34, 0xff, 0xff, 0xff, 0xff, 0xc4, 1, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x73, 0x20, 0x06, 0x1e, 0x4b, 0x2d, 0x6d, 0x0d, 0xcd, 0xb5})
	f.Fuzz(func(t *testing.T, data []byte) {
		insts := fuzzInsts(data)
		want := make([]isa.Inst, len(insts))
		for i, in := range insts {
			want[i] = canonical(in)
		}
		for _, enc := range []struct {
			name string
			ext  string
			w    func(io.Writer) *Writer
		}{
			{"v1", ".trc", func(out io.Writer) *Writer { return NewWriter(out, false) }},
			{"v1-gzip", ".trc.gz", func(out io.Writer) *Writer { return NewWriter(out, true) }},
			{"v2", ".trc", NewWriterV2},
		} {
			var buf bytes.Buffer
			w := enc.w(&buf)
			if err := w.WriteHeader(testHeader()); err != nil {
				t.Fatal(err)
			}
			for _, in := range insts {
				if err := w.WriteInst(in); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			r, err := NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s: %v", enc.name, err)
			}
			var got []isa.Inst
			var in isa.Inst
			for {
				err := r.Read(&in)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("%s: record %d: %v", enc.name, len(got), err)
				}
				got = append(got, in)
			}
			sameStream(t, enc.name+" Read", got, want)
			if r.Records() != w.Records() || r.Insts() != w.Insts() || r.MemOps() != w.MemOps() {
				t.Fatalf("%s: reader counts %d/%d/%d, writer counts %d/%d/%d", enc.name,
					r.Records(), r.Insts(), r.MemOps(), w.Records(), w.Insts(), w.MemOps())
			}

			path := filepath.Join(t.TempDir(), "rt"+enc.ext)
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			src, err := OpenSource(path)
			if err != nil {
				t.Fatalf("%s: %v", enc.name, err)
			}
			batch := make([]isa.Inst, 1+len(data)%5)
			got = got[:0]
			for {
				k := isa.FillBatch(src, batch)
				if k == 0 {
					break
				}
				got = append(got, batch[:k]...)
			}
			sameStream(t, enc.name+" NextBatch", got, want)
		}
	})
}

func sameStream(t *testing.T, name string, got, want []isa.Inst) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: decoded %d records, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d: got %+v want %+v", name, i, got[i], want[i])
		}
	}
}
