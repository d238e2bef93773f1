package main

import (
	"strings"
	"testing"
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
