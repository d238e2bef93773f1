package trace

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/isa"
)

// genInsts builds a deterministic stream of n varied records: every op
// kind, batching, forward and backward deltas, physical addresses.
func genInsts(n int) []isa.Inst {
	out := make([]isa.Inst, 0, n)
	for i := 0; i < n; i++ {
		in := isa.Inst{Count: 1, PC: uint64(0x400000 + 4*(i%977))}
		switch i % 6 {
		case 0:
			in.Op = isa.OpALU
			in.Count = uint32(1 + i%9)
		case 1:
			in.Op = isa.OpLoad
			in.Addr = uint64(0x1000_0000_0000 + 64*(i%4096))
		case 2:
			in.Op = isa.OpStore
			in.Addr = uint64(0x1000_0000_0000 + 64*((i*31)%4096))
		case 3:
			in.Op = isa.OpBranch
		case 4:
			in.Op = isa.OpAtomic
			in.Phys = true
			in.Addr = uint64(0x7f_0000 + 4096*(i%64))
		case 5:
			in.Op = isa.OpDelay
			in.Count = uint32(10 + i%90)
		}
		out = append(out, in)
	}
	return out
}

// writeTraceV2File writes insts to path in the v2 container.
func writeTraceV2File(t *testing.T, path string, insts []isa.Inst) {
	t.Helper()
	writeTraceFile(t, Create, path, insts)
}

// writeTraceV1File writes insts to path in the v1 format, gzipped when
// path ends in ".gz".
func writeTraceV1File(t *testing.T, path string, insts []isa.Inst) {
	t.Helper()
	writeTraceFile(t, CreateV1, path, insts)
}

func writeTraceFile(t *testing.T, create func(string) (*Writer, error), path string, insts []isa.Inst) {
	t.Helper()
	w, err := create(path)
	if err != nil {
		t.Fatal(err)
	}
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
}

// canonical maps a written record to the form the reader returns
// (Count 0 canonicalised to 1).
func canonical(in isa.Inst) isa.Inst {
	if in.Count == 0 {
		in.Count = 1
	}
	return in
}

// TestV2RoundTripMultiBlock round-trips a stream spanning several
// blocks, through the sequential reader and through the replay source
// one record and one batch at a time, and checks the index-backed Info
// agrees with a full scan.
func TestV2RoundTripMultiBlock(t *testing.T) {
	const n = 3*blockRecords + 1234
	insts := genInsts(n)
	path := filepath.Join(t.TempDir(), "multi.trc")
	writeTraceV2File(t, path, insts)

	check := func(name string, got []isa.Inst) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("%s: got %d records, want %d", name, len(got), n)
		}
		for i := range got {
			if got[i] != canonical(insts[i]) {
				t.Fatalf("%s: record %d: got %+v want %+v", name, i, got[i], canonical(insts[i]))
			}
		}
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	check("sequential", readAll(t, r))
	r.Close()

	src, err := OpenSource(path)
	if err != nil {
		t.Fatal(err)
	}
	check("fileSource", drainSource(src))

	// Batch reads must agree with single-record reads; 777 does not
	// divide the block size, so batches straddle block boundaries.
	sb, err := OpenSource(path)
	if err != nil {
		t.Fatal(err)
	}
	var batched []isa.Inst
	buf := make([]isa.Inst, 1024)
	for {
		k := sb.(isa.BatchSource).NextBatch(buf[:777])
		if k == 0 {
			break
		}
		batched = append(batched, buf[:k]...)
	}
	check("fileSource batch", batched)

	info, err := ReadInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Blocks != 4 {
		t.Errorf("Blocks=%d, want 4", info.Blocks)
	}
	if info.Version != Version2 || !info.Compressed {
		t.Errorf("Version=%d Compressed=%v, want 2/true", info.Version, info.Compressed)
	}
	// The indexed counts must equal a full decode's counts.
	r2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	all := readAll(t, r2)
	if uint64(len(all)) != info.Records || r2.Insts() != info.Insts || r2.MemOps() != info.MemOps {
		t.Errorf("index counts (%d rec, %d insts, %d mem) disagree with scan (%d, %d, %d)",
			info.Records, info.Insts, info.MemOps, len(all), r2.Insts(), r2.MemOps())
	}
	r2.Close()
	if info.RawBytes == 0 || info.CompBytes == 0 || info.CompBytes >= info.RawBytes {
		t.Errorf("implausible block payload totals: raw %d comp %d", info.RawBytes, info.CompBytes)
	}
	if info.IndexBytes == 0 {
		t.Errorf("IndexBytes=0 on an indexed file")
	}
}

func drainSource(src isa.Source) []isa.Inst {
	var out []isa.Inst
	var in isa.Inst
	for src.Next(&in) {
		out = append(out, in)
	}
	return out
}

// TestV2EmptyTrace round-trips a header-only trace.
func TestV2EmptyTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.trc")
	writeTraceV2File(t, path, nil)
	info, err := ReadInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 0 || info.Blocks != 0 {
		t.Errorf("Records=%d Blocks=%d, want 0/0", info.Records, info.Blocks)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, r); len(got) != 0 {
		t.Errorf("empty trace decoded %d records", len(got))
	}
	r.Close()
}

// TestV2GzipEnvelope decodes a gzip-wrapped v2 stream sequentially —
// a pipe or re-compressed file still replays, it just is not seekable.
func TestV2GzipEnvelope(t *testing.T) {
	insts := genInsts(blockRecords + 77)
	var raw bytes.Buffer
	w := NewWriterV2(&raw)
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
	var gzBuf bytes.Buffer
	gw := gzip.NewWriter(&gzBuf)
	gw.Write(raw.Bytes())
	gw.Close()

	r, err := NewReader(bytes.NewReader(gzBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, r)
	if len(got) != len(insts) {
		t.Fatalf("got %d records, want %d", len(got), len(insts))
	}
	for i := range got {
		if got[i] != canonical(insts[i]) {
			t.Fatalf("record %d diverged", i)
		}
	}
}

// TestConvert upgrades a v1 file and re-blocks a v2 file; the decoded
// streams must be identical.
func TestConvert(t *testing.T) {
	dir := t.TempDir()
	insts := genInsts(blockRecords + 4321)

	v1 := filepath.Join(dir, "old.trc.gz")
	writeTraceV1File(t, v1, insts)

	v2 := filepath.Join(dir, "new.trc")
	info, err := Convert(v1, v2)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != Version2 || info.Records != uint64(len(insts)) {
		t.Errorf("convert info: %+v", info)
	}

	ra, err := Open(v1)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Open(v2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := readAll(t, ra), readAll(t, rb)
	ra.Close()
	rb.Close()
	if len(a) != len(b) {
		t.Fatalf("v1 decoded %d records, v2 %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d diverged after convert", i)
		}
	}
	if ha, hb := ra.Header(), rb.Header(); ha.Workload != hb.Workload || ha.Seed != hb.Seed ||
		len(ha.Layout) != len(hb.Layout) {
		t.Errorf("headers diverged: %+v vs %+v", ha, hb)
	}

	// Converting v2 again re-blocks it losslessly.
	v2b := filepath.Join(dir, "again.trc")
	if _, err := Convert(v2, v2b); err != nil {
		t.Fatal(err)
	}
	rc, err := Open(v2b)
	if err != nil {
		t.Fatal(err)
	}
	c := readAll(t, rc)
	rc.Close()
	if len(c) != len(a) {
		t.Fatalf("re-convert decoded %d records, want %d", len(c), len(a))
	}
}

// TestSniffingIgnoresExtension is the misnamed-file satellite: readers
// key on magic bytes, not extensions, and garbage fails with
// ErrCorrupt rather than a confusing mid-stream error.
func TestSniffingIgnoresExtension(t *testing.T) {
	dir := t.TempDir()
	insts := genInsts(100)

	// A gzip-enveloped v1 trace named without ".gz" must still open…
	misnamed := filepath.Join(dir, "actually-gzip.trc")
	writeTraceV1File(t, filepath.Join(dir, "tmp.trc.gz"), insts)
	if err := os.Rename(filepath.Join(dir, "tmp.trc.gz"), misnamed); err != nil {
		t.Fatal(err)
	}
	r, err := Open(misnamed)
	if err != nil {
		t.Fatalf("misnamed gzip trace rejected: %v", err)
	}
	if got := readAll(t, r); len(got) != len(insts) {
		t.Fatalf("got %d records, want %d", len(got), len(insts))
	}
	r.Close()

	// …a raw v1 trace named ".gz" must also open…
	misnamed2 := filepath.Join(dir, "actually-raw.trc.gz")
	writeTraceV1File(t, filepath.Join(dir, "tmp2.trc"), nil)
	if err := os.Rename(filepath.Join(dir, "tmp2.trc"), misnamed2); err != nil {
		t.Fatal(err)
	}
	if r2, err := Open(misnamed2); err != nil {
		t.Fatalf("misnamed raw trace rejected: %v", err)
	} else {
		r2.Close()
	}

	// …and a non-trace file fails loudly whatever it is called.
	junk := filepath.Join(dir, "junk.trc.gz")
	if err := os.WriteFile(junk, []byte("this is not a trace at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(junk); !errors.Is(err, ErrCorrupt) {
		t.Errorf("junk file: got %v, want ErrCorrupt", err)
	}
	if _, err := ReadInfo(junk); !errors.Is(err, ErrCorrupt) {
		t.Errorf("junk ReadInfo: got %v, want ErrCorrupt", err)
	}
}

// TestV2Corruption mutilates a valid v2 file every way the format can
// rot — truncations everywhere, a flipped bit everywhere — and
// requires the ErrCorrupt-or-EOF contract from both the sequential and
// the indexed paths.
func TestV2Corruption(t *testing.T) {
	insts := genInsts(2000)
	var buf bytes.Buffer
	w := NewWriterV2(&buf)
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
	good := buf.Bytes()

	dir := t.TempDir()
	tryFile := func(data []byte) error {
		path := filepath.Join(dir, "t.trc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadInfo(path); err != nil {
			return err
		}
		// Index accepted: the engine's replay source must either
		// replay to the end or report corruption by its documented
		// panic.
		src, err := OpenSource(path)
		if err != nil {
			return err
		}
		defer src.(io.Closer).Close()
		var in isa.Inst
		var perr error
		func() {
			defer func() {
				if p := recover(); p != nil {
					perr = fmt.Errorf("%w: %v", ErrCorrupt, p)
				}
			}()
			for src.Next(&in) {
			}
		}()
		return perr
	}
	trySeq := func(data []byte) error {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return err
		}
		var in isa.Inst
		for {
			if err := r.Read(&in); err != nil {
				if err == io.EOF {
					return nil
				}
				return err
			}
		}
	}

	// Truncations: every length from empty to full-1, sampled.
	for cut := 0; cut < len(good); cut += 97 {
		if err := trySeq(good[:cut]); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("seq cut %d: %v", cut, err)
		}
		if err := tryFile(good[:cut]); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("file cut %d: %v", cut, err)
		}
	}
	// Bit flips, sampled across the whole file (header, block header,
	// payload, CRC, sentinel, index, trailer).
	for off := 0; off < len(good); off += 53 {
		c := append([]byte(nil), good...)
		c[off] ^= 0x10
		if err := trySeq(c); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("seq flip %d: %v", off, err)
		}
		if err := tryFile(c); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("file flip %d: %v", off, err)
		}
	}

	// A corrupt block payload must be caught by the CRC, with a loud
	// mention of the block.
	c := append([]byte(nil), good...)
	c[len(good)/2] ^= 0x01
	err := trySeq(c)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("payload flip: got %v, want ErrCorrupt", err)
	}
}

// TestSourceCloseMidStream closes replay sources long before
// exhaustion: Close is idempotent, the closed source yields nothing
// more, and no goroutine outlives it.
func TestSourceCloseMidStream(t *testing.T) {
	dir := t.TempDir()
	insts := genInsts(4 * blockRecords)
	v2 := filepath.Join(dir, "leak.trc")
	writeTraceV2File(t, v2, insts)
	v1 := filepath.Join(dir, "leak1.trc.gz")
	writeTraceV1File(t, v1, insts[:8192])

	before := runtime.NumGoroutine()
	for _, path := range []string{v2, v1} {
		src, err := OpenSource(path)
		if err != nil {
			t.Fatal(err)
		}
		var in isa.Inst
		for k := 0; k < 100; k++ {
			if !src.Next(&in) {
				t.Fatalf("%s: stream ended early", path)
			}
		}
		for i := 0; i < 2; i++ {
			if err := src.(io.Closer).Close(); err != nil {
				t.Fatalf("%s: Close #%d: %v", path, i+1, err)
			}
		}
		if src.Next(&in) {
			t.Errorf("%s: Next after Close returned a record", path)
		}
		if n := src.(isa.BatchSource).NextBatch(make([]isa.Inst, 8)); n != 0 {
			t.Errorf("%s: NextBatch after Close returned %d records", path, n)
		}
	}
	if g := runtime.NumGoroutine(); g != before {
		t.Fatalf("goroutines: %d before, %d after", before, g)
	}
}

// TestReplaySourceStartsNoGoroutines pins the single replay route:
// even with CPUs to spare, opening and reading a trace through
// OpenReplaySource decodes inline on the caller's goroutine.
func TestReplaySourceStartsNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	dir := t.TempDir()
	insts := genInsts(3*blockRecords + 5)
	v2 := filepath.Join(dir, "multi.trc")
	writeTraceV2File(t, v2, insts)
	v1 := filepath.Join(dir, "old.trc")
	writeTraceV1File(t, v1, insts[:4096])

	before := runtime.NumGoroutine()
	for _, path := range []string{v2, v1} {
		src, err := OpenReplaySource(path)
		if err != nil {
			t.Fatal(err)
		}
		var in isa.Inst
		for k := 0; k < 10; k++ {
			if !src.Next(&in) {
				t.Fatalf("%s: stream ended early", path)
			}
		}
		if g := runtime.NumGoroutine(); g != before {
			t.Fatalf("%s: %d goroutines while replaying, %d before", path, g, before)
		}
		src.(io.Closer).Close()
	}
}

// TestSharedStore exercises the content-keyed store: single decode per
// content, hits for duplicate paths, refcounted eviction, budget
// fallback, and stream equality.
func TestSharedStore(t *testing.T) {
	dir := t.TempDir()
	insts := genInsts(blockRecords + 99)
	path := filepath.Join(dir, "a.trc")
	writeTraceV2File(t, path, insts)
	// A byte-identical copy under a different name shares the entry.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copyPath := filepath.Join(dir, "b.trc")
	if err := os.WriteFile(copyPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s := NewShared(0)
	src1, err := s.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got := drainSource(src1)
	if len(got) != len(insts) {
		t.Fatalf("got %d records, want %d", len(got), len(insts))
	}
	for i := range got {
		if got[i] != canonical(insts[i]) {
			t.Fatalf("record %d diverged through the shared store", i)
		}
	}
	src1.(io.Closer).Close()

	src2, err := s.Open(copyPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := drainSource(src2); len(got) != len(insts) {
		t.Fatalf("copy: got %d records", len(got))
	}
	src2.(io.Closer).Close()

	st := s.Stats()
	if st.Decodes != 1 || st.Hits != 1 {
		t.Errorf("stats: decodes=%d hits=%d, want 1/1", st.Decodes, st.Hits)
	}
	if st.Entries != 1 || st.UsedBytes == 0 {
		t.Errorf("stats: entries=%d used=%d", st.Entries, st.UsedBytes)
	}

	// Concurrent opens: still exactly one more decode for new content.
	path2 := filepath.Join(dir, "c.trc")
	writeTraceV2File(t, path2, genInsts(2*blockRecords))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, err := s.Open(path2)
			if err != nil {
				t.Error(err)
				return
			}
			var in isa.Inst
			n := 0
			for src.Next(&in) {
				n++
			}
			if n != 2*blockRecords {
				t.Errorf("concurrent cursor saw %d records", n)
			}
			src.(io.Closer).Close()
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Decodes != 2 {
		t.Errorf("concurrent opens decoded %d times, want 2 total", st.Decodes)
	}

	// Eviction: a tiny budget keeps at most one idle entry.
	tiny := NewShared(int64(blockRecords+100) * 24)
	if _, err := tiny.Open(path); err != nil {
		t.Fatal(err)
	}
	// path fits exactly; path2 (2 blocks) exceeds the whole budget →
	// served uncached.
	src3, err := tiny.Open(path2)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(drainSource(src3)); n != 2*blockRecords {
		t.Fatalf("over-budget trace decoded %d records", n)
	}
	src3.(io.Closer).Close()
	st = tiny.Stats()
	if st.Entries != 1 {
		t.Errorf("over-budget trace retained: %d entries", st.Entries)
	}
	if st.UsedBytes > st.BudgetBytes {
		t.Errorf("store over budget: %d > %d", st.UsedBytes, st.BudgetBytes)
	}

	// A v1 file is keyed by whole-file hash and shares across formats
	// only with byte-identical files.
	v1 := filepath.Join(dir, "old.trc.gz")
	writeTraceV1File(t, v1, insts[:500])
	srcV1, err := s.Open(v1)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(drainSource(srcV1)); n != 500 {
		t.Fatalf("v1 through shared store: %d records, want 500", n)
	}
	srcV1.(io.Closer).Close()

	// Corrupt content fails loudly and is not retained.
	junk := filepath.Join(dir, "junk.trc")
	if err := os.WriteFile(junk, []byte("VTRCjunkjunkjunk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open(junk); err == nil {
		t.Error("shared store accepted a corrupt trace")
	}
}

// TestSharedStoreContentKeying proves keying is by content, not path:
// overwriting a file in place yields a fresh entry.
func TestSharedStoreContentKeying(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mut.trc")
	writeTraceV2File(t, path, genInsts(1000))
	s := NewShared(0)
	src, err := s.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(drainSource(src)); n != 1000 {
		t.Fatalf("first content: %d records", n)
	}
	src.(io.Closer).Close()

	writeTraceV2File(t, path, genInsts(2000))
	src2, err := s.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(drainSource(src2)); n != 2000 {
		t.Fatalf("rewritten content served stale entry: %d records", n)
	}
	src2.(io.Closer).Close()
	if st := s.Stats(); st.Decodes != 2 {
		t.Errorf("decodes=%d, want 2 (content changed)", st.Decodes)
	}
}

// TestSharedStoreMultiBlockLargeFile decodes a v2 trace of several
// blocks, too large for the reader's read-ahead buffer to hold, through
// the shared store: it must yield the same records as OpenSource. The
// store once sized the file by seeking it to EOF under the reader,
// which then read its first block from there and failed.
func TestSharedStoreMultiBlockLargeFile(t *testing.T) {
	insts := genInsts(3*blockRecords + 321)
	// Scatter the addresses so the blocks do not compress to nothing.
	x := uint64(0x9e3779b97f4a7c15)
	for i := range insts {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		insts[i].Addr = x &^ 63
	}
	path := filepath.Join(t.TempDir(), "big.trc")
	writeTraceV2File(t, path, insts)
	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if fi.Size() <= 1<<16 {
		t.Fatalf("trace is %d bytes; it must outgrow the reader's 64 KiB buffer", fi.Size())
	}

	src, err := OpenSource(path)
	if err != nil {
		t.Fatal(err)
	}
	want := drainSource(src)
	shared, err := NewShared(0).Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer shared.(io.Closer).Close()
	got := drainSource(shared)
	if len(got) != len(want) || len(want) != len(insts) {
		t.Fatalf("shared store drained %d records, OpenSource %d, written %d", len(got), len(want), len(insts))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: shared %+v, OpenSource %+v", i, got[i], want[i])
		}
	}
}
