package tier

import (
	"strings"
	"testing"

	"repro/internal/mem"
)

func TestValidateSpecs(t *testing.T) {
	good := []Spec{
		{Name: "cxl", Bytes: 64 * mem.MB, ReadLat: 600, WriteLat: 900},
		{Name: "nvm", Bytes: 128 * mem.MB, ReadLat: 1200, WriteLat: 3000, BytesPerCycle: 8},
	}
	if err := ValidateSpecs(good); err != nil {
		t.Fatalf("valid specs rejected: %v", err)
	}
	if err := ValidateSpecs(nil); err != nil {
		t.Fatalf("empty specs rejected: %v", err)
	}
	cases := []struct {
		name  string
		specs []Spec
		want  string
	}{
		{"empty name", []Spec{{Bytes: mem.MB, ReadLat: 1, WriteLat: 1}}, "empty name"},
		{"zero capacity", []Spec{{Name: "cxl", ReadLat: 1, WriteLat: 1}}, "zero capacity"},
		{"sub-page capacity", []Spec{{Name: "cxl", Bytes: 100, ReadLat: 1, WriteLat: 1}}, "smaller than one 4KB page"},
		{"zero read latency", []Spec{{Name: "cxl", Bytes: mem.MB, WriteLat: 1}}, "zero read latency"},
		{"zero write latency", []Spec{{Name: "cxl", Bytes: mem.MB, ReadLat: 1}}, "zero write latency"},
		{"duplicate name", []Spec{
			{Name: "cxl", Bytes: mem.MB, ReadLat: 1, WriteLat: 1},
			{Name: "cxl", Bytes: mem.MB, ReadLat: 1, WriteLat: 1},
		}, "duplicate name"},
		{"reserved dram", []Spec{{Name: "dram", Bytes: mem.MB, ReadLat: 1, WriteLat: 1}}, "reserved"},
		{"swap not last", []Spec{
			{Name: "swap", Bytes: mem.MB, ReadLat: 1, WriteLat: 1},
			{Name: "cxl", Bytes: mem.MB, ReadLat: 1, WriteLat: 1},
		}, "always comes last"},
		{"swap anywhere", []Spec{{Name: "swap", Bytes: mem.MB, ReadLat: 1, WriteLat: 1}}, "reserved"},
	}
	for _, tc := range cases {
		err := ValidateSpecs(tc.specs)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestSpecCosts(t *testing.T) {
	s := Spec{Name: "cxl", Bytes: mem.MB, ReadLat: 600, WriteLat: 900, BytesPerCycle: 8}
	if got := s.ReadCost(4096); got != 600+512 {
		t.Errorf("ReadCost = %d, want %d", got, 600+512)
	}
	if got := s.WriteCost(4096); got != 900+512 {
		t.Errorf("WriteCost = %d, want %d", got, 900+512)
	}
	// Zero bandwidth disables the transfer term.
	s.BytesPerCycle = 0
	if got := s.ReadCost(4096); got != 600 {
		t.Errorf("latency-only ReadCost = %d, want 600", got)
	}
}

func TestHotColdPolicy(t *testing.T) {
	p := NewHotCold()
	h := p.Touch(0)
	if h != p.TouchStep {
		t.Fatalf("Touch(0) = %d, want %d", h, p.TouchStep)
	}
	// Saturates at MaxHeat.
	for i := 0; i < 100; i++ {
		h = p.Touch(h)
	}
	if h != p.MaxHeat {
		t.Errorf("saturated heat = %d, want %d", h, p.MaxHeat)
	}
	// A touched page is not a pass-0 victim; after enough decays it is.
	h = p.Touch(0)
	if p.Victim(h, 0) {
		t.Errorf("freshly touched page (heat %d) is a pass-0 victim", h)
	}
	for i := 0; i < 3; i++ {
		h = p.Decay(h)
	}
	if !p.Victim(h, 0) {
		t.Errorf("thrice-decayed page (heat %d) is not a pass-0 victim", h)
	}
	if !p.Victim(p.MaxHeat, 1) {
		t.Error("pass 1 must take any page")
	}
	// Cold pages demote deep, warm pages near.
	if got := p.DemoteTo(3, 0); got != 2 {
		t.Errorf("cold DemoteTo = %d, want 2", got)
	}
	if got := p.DemoteTo(3, p.MaxHeat); got != 0 {
		t.Errorf("warm DemoteTo = %d, want 0", got)
	}
}

func TestClockPolicy(t *testing.T) {
	p := NewClock()
	if p.Touch(0) != 1 || p.Decay(1) != 0 {
		t.Fatal("clock touch/decay must be one referenced bit")
	}
	if p.Victim(1, 0) {
		t.Error("referenced page is a pass-0 victim")
	}
	if !p.Victim(0, 0) || !p.Victim(1, 1) {
		t.Error("unreferenced page / pass-1 page must be victims")
	}
	if p.DemoteTo(3, 0) != 0 {
		t.Error("clock always demotes to the nearest tier")
	}
}

func TestManagerResidency(t *testing.T) {
	specs := []Spec{
		{Name: "cxl", Bytes: 2 * 4096, ReadLat: 600, WriteLat: 900},
		{Name: "nvm", Bytes: 4 * 4096, ReadLat: 1200, WriteLat: 3000},
	}
	m := NewManager(specs, NewHotCold())
	if !m.Enabled() || m.SlowTiers() != 2 {
		t.Fatal("manager not enabled over 2 specs")
	}
	pg := func(va uint64) Page {
		return Page{PID: 1, VA: mem.VAddr(va), Size: mem.Page4K}
	}
	m.Insert(0, pg(0x1000))
	m.Insert(0, pg(0x2000))
	if m.HasRoom(0, 4096) {
		t.Error("full tier reports room")
	}
	if !m.HasRoom(1, 4096) {
		t.Error("empty tier reports no room")
	}
	// Lookup covers interior addresses of the page.
	if _, tt, ok := m.Lookup(1, 0x1888); !ok || tt != 0 {
		t.Fatalf("Lookup(0x1888) = tier %d ok %v, want tier 0 true", tt, ok)
	}
	if m.Contains(2, 0x1000) {
		t.Error("record leaked across PIDs")
	}
	// Promote removes and counts.
	got, ok := m.Promote(1, 0x1000)
	if !ok || got.VA != 0x1000 {
		t.Fatalf("Promote = %+v ok %v", got, ok)
	}
	if m.Contains(1, 0x1000) {
		t.Error("promoted page still resident")
	}
	st := m.Stats()
	if st[0].PagesIn != 2 || st[0].PagesOut != 1 || st[0].Promotions != 1 {
		t.Errorf("tier 0 stats = %+v", st[0])
	}
	if st[0].UsedBytes != 4096 {
		t.Errorf("tier 0 used = %d, want 4096", st[0].UsedBytes)
	}
	// Freed slot is reused; occupancy stays exact.
	m.Insert(0, pg(0x9000))
	if got := m.UsedBytes(0); got != 2*4096 {
		t.Errorf("used after reuse = %d", got)
	}
	if m.PageCount() != 2 {
		t.Errorf("PageCount = %d, want 2", m.PageCount())
	}
}

func TestManagerVictimScan(t *testing.T) {
	specs := []Spec{{Name: "cxl", Bytes: 16 * 4096, ReadLat: 600, WriteLat: 900}}
	m := NewManager(specs, NewHotCold())
	hot := Page{PID: 1, VA: 0x1000, Size: mem.Page4K, Heat: 64}
	cold := Page{PID: 1, VA: 0x2000, Size: mem.Page4K, Heat: 0}
	m.Insert(0, hot)
	m.Insert(0, cold)
	v, ok := m.PickVictim(0)
	if !ok || v.VA != cold.VA {
		t.Fatalf("PickVictim = %+v ok %v, want the cold page", v, ok)
	}
	// Spared hot page had its heat decayed (second chance).
	if got, _, _ := m.Lookup(1, 0x1000); got.Heat != 32 {
		t.Errorf("spared page heat = %d, want 32", got.Heat)
	}
	// With only hot pages the desperate pass still yields a victim.
	m2 := NewManager(specs, NewHotCold())
	m2.Insert(0, hot)
	if _, ok := m2.PickVictim(0); !ok {
		t.Error("no victim from an all-hot tier")
	}
	// Empty tier yields none.
	m3 := NewManager(specs, NewHotCold())
	if _, ok := m3.PickVictim(0); ok {
		t.Error("victim from an empty tier")
	}
}

func TestManagerTeardown(t *testing.T) {
	specs := []Spec{
		{Name: "cxl", Bytes: 64 * 4096, ReadLat: 600, WriteLat: 900},
		{Name: "nvm", Bytes: 64 * 4096, ReadLat: 1200, WriteLat: 3000},
	}
	m := NewManager(specs, NewClock())
	for i := uint64(0); i < 8; i++ {
		m.Insert(int(i%2), Page{PID: 1, VA: mem.VAddr(0x10000 + i*4096), Size: mem.Page4K})
		m.Insert(int(i%2), Page{PID: 2, VA: mem.VAddr(0x10000 + i*4096), Size: mem.Page4K})
	}
	if n := m.RemoveRange(1, 0x10000, 0x10000+4*4096); n != 4 {
		t.Errorf("RemoveRange removed %d, want 4", n)
	}
	if m.Contains(1, 0x10000) || !m.Contains(1, 0x10000+4*4096) || !m.Contains(2, 0x10000) {
		t.Error("RemoveRange removed the wrong records")
	}
	if n := m.RemovePID(2); n != 8 {
		t.Errorf("RemovePID removed %d, want 8", n)
	}
	if m.PageCount() != 4 {
		t.Errorf("PageCount = %d, want 4", m.PageCount())
	}
	if m.UsedBytes(0)+m.UsedBytes(1) != 4*4096 {
		t.Error("occupancy out of sync after teardown")
	}
}
