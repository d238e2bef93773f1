package trace

import (
	"path/filepath"
	"testing"
)

// v1Fixture is a gzip-enveloped v1 trace committed so that reading and
// converting v1 stays tested now that nothing records v1. It was
// written through CreateV1 by the CLI's recorder, while the CLI still
// offered v1 output:
//
//	virtuoso trace record -workload BFS -scale 0.05 -insts 200000 -seed 7 \
//		-format v1 -o internal/trace/testdata/bfs-v1.trc.gz
const v1Fixture = "testdata/bfs-v1.trc.gz"

// TestV1Fixture pins the fixture's counts and checks that its Convert
// output decodes to the same stream.
func TestV1Fixture(t *testing.T) {
	info, err := ReadInfo(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != Version1 || !info.Compressed {
		t.Errorf("Version=%d Compressed=%v, want a gzip-enveloped v1 file", info.Version, info.Compressed)
	}
	if info.Workload != "BFS" || info.Seed != 7 || len(info.Layout) != 7 {
		t.Errorf("header: workload %q seed %d, %d segments", info.Workload, info.Seed, len(info.Layout))
	}
	if info.Records != 133334 || info.Insts != 200001 || info.MemOps != 66667 {
		t.Errorf("counts: %d records, %d insts, %d mem ops; want 133334/200001/66667",
			info.Records, info.Insts, info.MemOps)
	}

	v2 := filepath.Join(t.TempDir(), "bfs.trc")
	conv, err := Convert(v1Fixture, v2)
	if err != nil {
		t.Fatal(err)
	}
	if conv.Version != Version2 || conv.Records != info.Records || conv.Insts != info.Insts || conv.MemOps != info.MemOps {
		t.Errorf("convert info %+v disagrees with the fixture's counts", conv)
	}
	ra, err := Open(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	rb, err := Open(v2)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	sameStream(t, "converted fixture", readAll(t, rb), readAll(t, ra))
}
