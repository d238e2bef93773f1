package workloads

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mimicos"
)

func testKernel() *mimicos.Kernel {
	cfg := mimicos.DefaultConfig()
	cfg.PhysBytes = 2 * mem.GB
	return mimicos.New(cfg, nil)
}

func TestSuitesEnumerate(t *testing.T) {
	names := func(ws []*Workload) string {
		var s []string
		for _, w := range ws {
			s = append(s, w.Name())
		}
		return strings.Join(s, ",")
	}
	for _, c := range []struct {
		got  []*Workload
		want string
	}{
		{LongSuite(), "BC,BFS,CC,GC,KC,PR,RND,SSSP,TC,XS"},
		{ShortSuite(), "JSON,AES,IMG-RES,WCNT,DB,Llama-2-7B,Bagel-2.8B,Mistral-7B,3D-Transp,Hadamard,2D-Sum"},
		{ExtraSuite(), "SEQ"},
	} {
		if got := names(c.got); got != c.want {
			t.Fatalf("suite lists %s, want %s", got, c.want)
		}
	}
	for _, w := range append(LongSuite(), ShortSuite()...) {
		if _, ok := ByName(w.Name()); !ok {
			t.Fatalf("ByName(%q) failed", w.Name())
		}
	}
}

func TestAddressesStayInsideVMAs(t *testing.T) {
	tiny := Params{Scale: 0.02}

	k := testKernel()
	k.CreateProcess(1)
	for _, w := range []*Workload{bfs(tiny.resolve()), jsonW(tiny.resolve()), llama(tiny.resolve()), sum2D(tiny.resolve()), sp(tiny.resolve())} {
		w.Setup(k, 1)
		src := w.Source(7)
		var in isa.Inst
		n := 0
		for src.Next(&in) && n < 50000 {
			n++
			if !in.Op.HasMemOperand() {
				continue
			}
			if k.VMAOf(1, mem.VAddr(in.Addr)) == nil {
				t.Fatalf("%s: address %x outside every VMA", w.Name(), in.Addr)
			}
		}
		if n == 0 {
			t.Fatalf("%s produced no instructions", w.Name())
		}
	}
}

func TestSourceDeterministic(t *testing.T) {
	k := testKernel()
	k.CreateProcess(1)
	w := Custom("det", LongRunning, 1*mem.MB,
		func(w *Workload, k *mimicos.Kernel, pid int) {
			w.SetBase("d", k.Mmap(pid, 1*mem.MB, mimicos.MmapFlags{Anon: true}))
		},
		func(w *Workload) []Step {
			return []Step{{Kind: StepRand, Base: w.Base("d"), Size: 1 * mem.MB, Count: 2000, PC: 1}}
		})
	w.Setup(k, 1)
	collect := func(seed uint64) []isa.Inst {
		src := w.Source(seed)
		out := make([]isa.Inst, 0, 1000)
		var in isa.Inst
		for i := 0; i < 1000 && src.Next(&in); i++ {
			out = append(out, in)
		}
		return out
	}
	a, b := collect(3), collect(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instruction %d differs across identical seeds", i)
		}
	}
	c := collect(4)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical random streams")
	}
}

func TestShortWorkloadsTerminate(t *testing.T) {
	tiny := Params{Scale: 0.02}

	k := testKernel()
	k.CreateProcess(1)
	w := jsonW(tiny.resolve())
	w.Setup(k, 1)
	src := w.Source(1)
	var in isa.Inst
	n := uint64(0)
	for src.Next(&in) {
		n += in.N()
		if n > 100_000_000 {
			t.Fatal("short workload did not terminate")
		}
	}
	if n == 0 {
		t.Fatal("no instructions")
	}
}

func TestBCVMACensus(t *testing.T) {
	tiny := Params{Scale: 0.02}

	k := testKernel()
	k.CreateProcess(1)
	w := bc(tiny.resolve())
	w.Setup(k, 1)
	n := len(k.Process(1).VMAs)
	if n != 148 { // 1 data + 147 auxiliary (Fig. 18)
		t.Fatalf("BC VMAs = %d, want 148", n)
	}
}

func TestCustomWorkload(t *testing.T) {
	k := testKernel()
	k.CreateProcess(1)
	w := Custom("c", ShortRunning, 4*mem.KB,
		func(w *Workload, k *mimicos.Kernel, pid int) {
			w.SetBase("x", k.Mmap(pid, 64*mem.KB, mimicos.MmapFlags{Anon: true}))
		},
		func(w *Workload) []Step {
			return []Step{{Kind: StepSeq, Base: w.Base("x"), Size: 64 * mem.KB, Stride: 64, Count: 10, PC: 1}}
		})
	w.Setup(k, 1)
	src := w.Source(1)
	var in isa.Inst
	count := 0
	for src.Next(&in) {
		count++
	}
	if count != 10 {
		t.Fatalf("custom workload emitted %d instructions", count)
	}
}
