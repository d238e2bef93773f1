package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/workloads"
)

// TestCountersSubCoversEveryField guards Counters.Sub. Every leaf of
// Counters must be an exported uint64, the only kind Sub subtracts, so
// a layer whose Stats gains a float, an int or a slice fails here. On
// two reads of a real run, every field of end.Sub(mid) must equal
// end − mid, and Sub must not allocate: the scheduler runs it on every
// slice.
func TestCountersSubCoversEveryField(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Uint64:
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				if !f.IsExported() {
					t.Errorf("%s.%s is unexported: Sub cannot set it", path, f.Name)
				}
				walk(path+"."+f.Name, f.Type)
			}
		default:
			t.Errorf("%s is a %s: Sub handles uint64 leaves only", path, typ)
		}
	}
	walk("Counters", reflect.TypeOf(Counters{}))

	s := smallSystem(t, nil)
	src := s.Prepare(byName(t, "XS", workloads.Params{Scale: 0.05}))
	s.RunSteps(src, 80_000)
	mid := s.counters()
	s.RunSteps(src, 80_000)
	end := s.counters()
	d := end.Sub(mid)

	moved := 0
	var check func(path string, d, e, m reflect.Value)
	check = func(path string, d, e, m reflect.Value) {
		switch d.Kind() {
		case reflect.Uint64:
			if d.Uint() != e.Uint()-m.Uint() {
				t.Errorf("%s: Sub gives %d, end − mid is %d − %d", path, d.Uint(), e.Uint(), m.Uint())
			}
			if d.Uint() != 0 {
				moved++
			}
		case reflect.Array:
			for i := range d.Len() {
				check(fmt.Sprintf("%s[%d]", path, i), d.Index(i), e.Index(i), m.Index(i))
			}
		case reflect.Struct:
			for i := range d.NumField() {
				check(path+"."+d.Type().Field(i).Name, d.Field(i), e.Field(i), m.Field(i))
			}
		}
	}
	check("Counters", reflect.ValueOf(d), reflect.ValueOf(end), reflect.ValueOf(mid))
	if moved < 30 {
		t.Errorf("only %d counters moved between the reads: the check is too tame", moved)
	}
	// A running sum adds an interval as acc.Sub(before.Sub(after)).
	if got := (Counters{}).Sub(mid.Sub(end)); got != d {
		t.Errorf("running sum of one interval:\ngot  %+v\nwant %+v", got, d)
	}
	acc := mid
	if n := testing.AllocsPerRun(10, func() { acc = acc.Sub(mid.Sub(end)) }); n != 0 {
		t.Errorf("Sub allocates %.0f times per running-sum step", n)
	}
}

// diffCounters reports every layer, by its Counters field name, whose
// statistics differ between got and want.
func diffCounters(t *testing.T, gotName, wantName string, got, want Counters) {
	t.Helper()
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := range g.NumField() {
		if gl, wl := g.Field(i).Interface(), w.Field(i).Interface(); gl != wl {
			t.Errorf("%s stats differ:\n%-8s %+v\n%-8s %+v", g.Type().Field(i).Name, gotName, gl, wantName, wl)
		}
	}
}
