package main

import (
	"reflect"
	"strings"
	"testing"

	virtuoso "repro"
)

// TestParseTierSizes: a -tiers size whose suffix multiplication
// overflows 64 bits is an error naming the overflow, not a silently
// wrapped capacity (17179869185G wraps to 1 GiB, 17179869184G to 0).
func TestParseTierSizes(t *testing.T) {
	for _, tc := range []struct {
		tiers string
		bytes uint64 // 0: want an overflow error
	}{
		{"cxl:17179869185G:600:900", 0},
		{"cxl:17179869184G:600:900", 0},
		{"cxl:17179869183G:600:900", 17179869183 << 30},
		{"cxl:512K:600:900", 512 << 10},
		{"cxl:64M:600:900", 64 << 20},
		{"cxl:2G:600:900", 2 << 30},
	} {
		specs, err := parseTierSpecs(tc.tiers)
		if tc.bytes == 0 {
			if err == nil || !strings.Contains(err.Error(), "overflows") {
				t.Errorf("%s: specs %+v, err %v; want an overflow error", tc.tiers, specs, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.tiers, err)
		} else if specs[0].Bytes != tc.bytes {
			t.Errorf("%s: %d bytes, want %d", tc.tiers, specs[0].Bytes, tc.bytes)
		}
	}
}

// TestFlagGridMatchesSpec: the top-level grid flags build the same
// Sweep as the equivalent hand-written JSON spec — same SpecHash (so a
// CLI checkpoint resumes under either form), same points, same shard
// and worker bound.
func TestFlagGridMatchesSpec(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		spec string
	}{
		{"defaults", nil,
			`{"workloads": ["BFS"], "designs": ["radix"], "policies": ["thp"], "seeds": [1], "mode": "imitation",
			  "max_app_insts": 2000000, "scale": 0.25, "frag": 0.8, "label": "cli-natural-policies"}`},
		{"multi", []string{"-multi", "-workload", "rnd,seq,bfs", "-design", "radix,ech"},
			`{"mixes": [["rnd", "seq", "bfs"]], "designs": ["radix", "ech"], "policies": ["thp"], "seeds": [1], "mode": "imitation",
			  "max_app_insts": 2000000, "scale": 0.25, "frag": 0.8, "label": "cli-natural-policies"}`},
		{"tiers", []string{"-workload", "RND", "-tiers", "cxl:64M:600:900:8,nvm:1G:2500:8000:2", "-tier-policy", "hotcold,clock"},
			`{"workloads": ["RND"], "designs": ["radix"], "policies": ["thp"], "seeds": [1], "mode": "imitation",
			  "max_app_insts": 2000000, "scale": 0.25, "frag": 0.8, "label": "cli-natural-policies",
			  "tier_specs": [[{"name": "cxl", "bytes": 67108864, "read_lat": 600, "write_lat": 900, "bytes_per_cycle": 8},
			                  {"name": "nvm", "bytes": 1073741824, "read_lat": 2500, "write_lat": 8000, "bytes_per_cycle": 2}]],
			  "tier_policies": ["hotcold", "clock"]}`},
		{"explicit policy", []string{"-design", "radix,utopia", "-policy", "thp,bd", "-seeds", "1,2"},
			`{"workloads": ["BFS"], "designs": ["radix", "utopia"], "policies": ["thp", "bd"], "seeds": [1, 2], "mode": "imitation",
			  "max_app_insts": 2000000, "scale": 0.25, "frag": 0.8}`},
		{"emulation", []string{"-mode", "emulation", "-frag", "0.5", "-insts", "1000", "-quantum", "50000", "-asid-retention"},
			`{"workloads": ["BFS"], "designs": ["radix"], "policies": ["thp"], "seeds": [1], "mode": "emulation",
			  "max_app_insts": 1000, "scale": 0.25, "frag": 0.5, "quantum_cycles": 50000, "asid_retention": true,
			  "label": "cli-natural-policies"}`},
		{"shard", []string{"-workload", "BFS,XS", "-design", "radix,ech", "-scale", "0.05", "-shard", "1/3", "-parallel", "3"},
			`{"workloads": ["BFS", "XS"], "designs": ["radix", "ech"], "policies": ["thp"], "seeds": [1], "mode": "imitation",
			  "max_app_insts": 2000000, "scale": 0.05, "frag": 0.8, "label": "cli-natural-policies", "shard": "1/3", "parallel": 3}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cli, err := parseFlags(tc.args)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cli.spec.Sweep()
			if err != nil {
				t.Fatal(err)
			}
			spec, err := virtuoso.ParseSweepSpec([]byte(tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			want, err := spec.Sweep()
			if err != nil {
				t.Fatal(err)
			}
			if got.SpecHash() != want.SpecHash() {
				t.Errorf("flags hash %s, spec hash %s", got.SpecHash(), want.SpecHash())
			}
			if !reflect.DeepEqual(got.Points(), want.Points()) {
				t.Errorf("flag points differ from spec points:\n%+v\n%+v", got.Points(), want.Points())
			}
			if got.Shard != want.Shard || got.Parallel != want.Parallel {
				t.Errorf("flags shard/parallel %v/%d, spec %v/%d", got.Shard, got.Parallel, want.Shard, want.Parallel)
			}
		})
	}
}
