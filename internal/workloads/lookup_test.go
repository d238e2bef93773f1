package workloads

import (
	"maps"
	"slices"
	"strings"
	"testing"
)

// oracleByNameWith is the catalog lookup before the name index: build
// both suites and the extras, then scan them in order for the first
// workload whose name matches. It stays here as the oracle the index is
// checked against.
func oracleByNameWith(name string, p Params) (*Workload, bool) {
	rp := p.resolve()
	long := []*Workload{bc(rp), bfs(rp), cc(rp), gc(rp), kc(rp), pr(rp), rnd(rp), sp(rp), tc(rp), xs(rp)}
	short := []*Workload{
		jsonW(rp), aes(rp), imgres(rp), wcnt(rp), db(rp),
		llama(rp), bagel(rp), mistral(rp),
		transp3D(rp), hadamard(rp), sum2D(rp),
	}
	extras := []*Workload{seqW(p)}
	for _, ws := range [][]*Workload{long, short, extras} {
		for _, w := range ws {
			if oracleMatchName(w.Name(), name) {
				return w, true
			}
		}
	}
	return nil, false
}

// oracleSuitePrefix maps each canonical workload name (lowercased) to
// the suite-prefixed spelling it may also be requested under.
var oracleSuitePrefix = map[string]string{
	"bc": "graphbig-", "bfs": "graphbig-", "cc": "graphbig-",
	"gc": "graphbig-", "kc": "graphbig-", "pr": "graphbig-",
	"sssp": "graphbig-", "tc": "graphbig-",
	"xs": "hpc-", "rnd": "hpc-",
	"json": "faas-", "aes": "faas-", "img-res": "faas-",
	"wcnt": "faas-", "db": "faas-",
	"llama-2-7b": "llm-", "bagel-2.8b": "llm-", "mistral-7b": "llm-",
}

// oracleMatchName compares a requested name against a canonical one,
// ignoring case and accepting the workload's own suite prefix.
func oracleMatchName(canonical, requested string) bool {
	can, req := strings.ToLower(canonical), strings.ToLower(requested)
	if can == req {
		return true
	}
	return oracleSuitePrefix[can]+can == req
}

// spellings returns the names a lookup of canonical is tried under:
// the name itself, its lower- and upper-case forms, its suite-prefixed
// forms (in two cases), a wrong-suite prefix, a junk prefix and
// suffix, and "".
func spellings(canonical string) []string {
	lower := strings.ToLower(canonical)
	prefix := oracleSuitePrefix[lower]
	wrong := "hpc-"
	if prefix == wrong {
		wrong = "faas-"
	}
	return []string{
		canonical, lower, strings.ToUpper(canonical),
		prefix + canonical, strings.ToUpper(prefix) + lower,
		wrong + canonical, "x-" + canonical, canonical + " ", "",
	}
}

// sameWorkload fails t unless a and b have the same name, class and
// footprint, and, once each is set up on a fresh kernel, the same bases
// and step program.
func sameWorkload(t *testing.T, what string, a, b *Workload) {
	t.Helper()
	if a.Name() != b.Name() || a.Class() != b.Class() || a.FootprintBytes() != b.FootprintBytes() {
		t.Fatalf("%s: got %s/%v/%d, oracle %s/%v/%d", what,
			a.Name(), a.Class(), a.FootprintBytes(), b.Name(), b.Class(), b.FootprintBytes())
	}
	for _, w := range []*Workload{a, b} {
		k := testKernel()
		k.CreateProcess(1)
		w.Setup(k, 1)
	}
	if !maps.Equal(a.bases, b.bases) {
		t.Fatalf("%s: bases %v, oracle %v", what, a.bases, b.bases)
	}
	if !slices.Equal(a.program(a), b.program(b)) {
		t.Fatalf("%s: step programs differ from the oracle's", what)
	}
}

// TestLookupMatchesOracle resolves every spelling of every catalog
// entry through the index and through the oracle, at three parameter
// sets, and requires the same answer and an equal workload. Entries run
// in parallel, as sweep workers look names up concurrently.
func TestLookupMatchesOracle(t *testing.T) {
	params := []Params{{}, {Scale: 0.05}, {Scale: 0.1, LongIters: 2}}
	for i := range catalog {
		t.Run(catalog[i].name, func(t *testing.T) {
			t.Parallel()
			for _, name := range spellings(catalog[i].name) {
				for _, p := range params {
					got, ok := ByNameWith(name, p)
					want, wantOK := oracleByNameWith(name, p)
					if ok != wantOK || Known(name) != wantOK {
						t.Fatalf("ByNameWith(%q, %+v) found %v, Known %v; oracle found %v",
							name, p, ok, Known(name), wantOK)
					}
					if ok {
						sameWorkload(t, name, got, want)
					}
				}
			}
		})
	}
}

// FuzzWorkloadName checks the index against the oracle on arbitrary
// names: both must agree on whether the name resolves, and on the
// workload it resolves to.
func FuzzWorkloadName(f *testing.F) {
	for i := range catalog {
		for _, s := range spellings(catalog[i].name) {
			f.Add(s)
		}
	}
	f.Add("\u212Ac")          // Kelvin sign: strings.ToLower folds it to "kc"
	f.Add("GRAPHBIG-\u212Ac") // and inside a prefixed spelling
	f.Add("bfs\xff")
	f.Fuzz(func(t *testing.T, name string) {
		p := Params{Scale: 0.05}
		got, ok := ByNameWith(name, p)
		want, wantOK := oracleByNameWith(name, p)
		if ok != wantOK || Known(name) != wantOK {
			t.Fatalf("ByNameWith(%q) found %v, Known %v; oracle found %v", name, ok, Known(name), wantOK)
		}
		if ok && (got.Name() != want.Name() || got.Class() != want.Class() || got.FootprintBytes() != want.FootprintBytes()) {
			t.Fatalf("ByNameWith(%q) = %s, oracle %s", name, got.Name(), want.Name())
		}
	})
}
