package mimicos

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/ssd"
	"repro/internal/tier"
	"repro/internal/utopia"
)

// faultLog drives a bare Kernel and hashes everything a kernel event
// hands the simulator: every record of the event's instruction stream
// and, for a fault, its FaultOutcome. It keeps every process it
// created, exited ones included, for the statistics cross-check.
type faultLog struct {
	k     *Kernel
	h     hash.Hash
	now   uint64
	procs []*Process
}

func newFaultLog(k *Kernel) *faultLog {
	return &faultLog{k: k, h: sha256.New()}
}

func (l *faultLog) put(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		l.h.Write(b[:])
	}
}

func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// stream hashes the records the last kernel event recorded and starts
// a fresh stream for the next one.
func (l *faultLog) stream() {
	s := l.k.TakeStream()
	l.put(uint64(len(s)))
	for _, in := range s {
		l.put(uint64(in.Op), bit(in.Phys), uint64(in.Count), in.PC, in.Addr)
	}
	l.k.Tracer.Begin()
}

func (l *faultLog) spawn(pid int) {
	l.procs = append(l.procs, l.k.CreateProcess(pid))
}

func (l *faultLog) mmap(pid int, length uint64, flags MmapFlags) mem.VAddr {
	va := l.k.Mmap(pid, length, flags)
	l.stream()
	return va
}

func (l *faultLog) munmap(pid int, va mem.VAddr, length uint64) {
	l.k.Munmap(pid, va, length)
	l.stream()
}

func (l *faultLog) exit(pid int) {
	l.k.ExitProcess(pid)
	l.stream()
}

func (l *faultLog) fault(pid int, va mem.VAddr, write bool) {
	l.now += 5000
	out := l.k.HandlePageFault(pid, va, write, l.now)
	l.put(bit(out.OK), uint64(out.Frame), uint64(out.Size), bit(out.Major), out.DeviceCycles)
	l.stream()
}

// touch faults every page of [va, va+n) at the given stride.
func (l *faultLog) touch(pid int, va mem.VAddr, n, stride uint64) {
	for off := uint64(0); off < n; off += stride {
		l.fault(pid, va+mem.VAddr(off), true)
	}
}

// exitAll exits every live process in creation order.
func (l *faultLog) exitAll() {
	for _, p := range l.procs {
		if l.k.Process(p.PID) != nil {
			l.exit(p.PID)
		}
	}
}

// digest folds the kernel totals and per-routine statistics into the
// hash and returns it.
func (l *faultLog) digest() string {
	fmt.Fprintf(l.h, "%+v", *l.k.Stats())
	for _, r := range l.k.Tracer.Stats() {
		fmt.Fprintf(l.h, "%s %+v", r.Name, r.RoutineStat)
	}
	return hex.EncodeToString(l.h.Sum(nil))
}

// sumStats adds every counter of src into dst field by field.
func sumStats(dst *Stats, src Stats) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for i := 0; i < d.NumField(); i++ {
		switch f := d.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(f.Uint() + s.Field(i).Uint())
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetUint(f.Index(j).Uint() + s.Field(i).Index(j).Uint())
			}
		default:
			panic(fmt.Sprintf("Stats.%s: unsupported kind %s", d.Type().Field(i).Name, f.Kind()))
		}
	}
}

func pinKernel(phys uint64, mut func(*Config)) *Kernel {
	cfg := DefaultConfig()
	cfg.PhysBytes = phys
	if mut != nil {
		mut(&cfg)
	}
	return New(cfg, ssd.New(ssd.DefaultConfig()))
}

// faultPaths are the kernel scenarios TestFaultPathTrafficPinned pins:
// each builds a kernel, drives it through one family of fault paths
// and exits every process it created. The digests were taken before
// the fault handlers shared one completion path.
var faultPaths = []struct {
	name string
	runs []string // kernel routines the scenario must reach
	run  func(*testing.T) *faultLog
	want string
}{
	{"buddy-4k", []string{"do_anonymous_page", "alloc_pages", "clear_page", "do_exit"}, func(t *testing.T) *faultLog {
		l := newFaultLog(pinKernel(64*mem.MB, nil))
		l.spawn(1)
		base := l.mmap(1, 1*mem.MB, MmapFlags{Anon: true})
		l.touch(1, base, 256*mem.KB, 4096)
		l.fault(1, base+0x10, false) // already mapped
		l.exitAll()
		return l
	}, "dfa7c9d42cedb62fd96ea86815391d79a88e4b32e17a1f2b46a751eea53ac0bd"},
	{"thp", []string{"do_huge_pmd_anonymous_page", "zero_pool_refill", "alloc_pages"}, func(t *testing.T) *faultLog {
		// A direct-zeroed 2M page, zero-pool hits, then 4K fallback
		// once no 2MB block is free.
		l := newFaultLog(pinKernel(64*mem.MB, func(c *Config) {
			c.ZeroPoolCap, c.ZeroPoolRefill = 2, 1
		}))
		l.k.SetPolicy(&LinuxTHPPolicy{})
		l.spawn(1)
		base := l.mmap(1, 16*mem.MB, MmapFlags{Anon: true})
		l.touch(1, base, 8*mem.MB, 2*mem.MB)
		l.k.Phys.Fragment(0, 1)
		l.touch(1, base+mem.VAddr(8*mem.MB), 8*mem.MB, 1*mem.MB)
		l.exitAll()
		return l
	}, "8761bfc8d4288743cdf8d093aabba6269576d7c1b4d24021d392b69a1d9028de"},
	{"cr-thp", []string{"thp_reserve_region", "thp_upgrade_reservation"}, func(t *testing.T) *faultLog {
		l := newFaultLog(pinKernel(64*mem.MB, nil))
		l.k.SetPolicy(&ReservationTHPPolicy{UpgradeFrac: 0.05, PolicyName: "CR-THP"})
		l.spawn(1)
		base := l.mmap(1, 5*mem.MB, MmapFlags{Anon: true})
		l.touch(1, base, 5*mem.MB, 64*mem.KB)
		l.exitAll()
		return l
	}, "d869c1e82ab6a2d59f2e115a46d915f7fc8996e4fd0a595f1f06d3a0d9cd79fc"},
	{"eager", []string{"eager_reserve", "eager_fault"}, func(t *testing.T) *faultLog {
		l := newFaultLog(pinKernel(64*mem.MB, nil))
		l.k.SetPolicy(&EagerPolicy{MaxOrderPages: 256})
		l.spawn(1)
		l.k.EnableRMM(l.procs[0])
		base := l.mmap(1, 3*mem.MB, MmapFlags{Anon: true})
		l.touch(1, base, 3*mem.MB, 128*mem.KB)
		l.exitAll()
		return l
	}, "afcfdcbfabcd64577ef1bec114dee74f43714346d4d54f1495e1fe9425113934"},
	{"midgard", []string{"do_anonymous_page", "sys_munmap"}, func(t *testing.T) *faultLog {
		// Page-table keys are Midgard intermediate addresses.
		l := newFaultLog(pinKernel(64*mem.MB, nil))
		l.spawn(1)
		l.k.EnableMidgard(l.procs[0])
		a := l.mmap(1, 1*mem.MB, MmapFlags{Anon: true})
		b := l.mmap(1, 1*mem.MB, MmapFlags{Anon: true})
		l.touch(1, a, 256*mem.KB, 4096)
		l.touch(1, b, 256*mem.KB, 4096)
		l.munmap(1, a, 1*mem.MB)
		l.exitAll()
		return l
	}, "2d3e42a657994eacad91bc8dad4f608ddb98abf4b2125e5bab4e9c3851daf05e"},
	{"utopia", []string{"utopia_alloc", "swap_out", "swap_in"}, func(t *testing.T) *faultLog {
		// A small RestSeg whose full sets evict to swap; re-touching
		// the first pages hits the RestSeg or swaps evicted pages in.
		k := pinKernel(64*mem.MB, nil)
		seg, err := utopia.NewRestSeg("restseg0", 1*mem.MB, 4, mem.Page4K, k.Phys)
		if err != nil {
			t.Fatal(err)
		}
		k.Utopia = &utopia.System{SwapOnFull: true, Segs: []*utopia.RestSeg{seg}}
		k.SetPolicy(&UtopiaPolicy{})
		l := newFaultLog(k)
		l.spawn(1)
		base := l.mmap(1, 2*mem.MB, MmapFlags{Anon: true})
		l.touch(1, base, 2*mem.MB, 4096)
		l.touch(1, base, 256*mem.KB, 4096)
		l.exitAll()
		return l
	}, "601cc00cf6dd8e9112abd777e1ffac4e11793641d353b7c84e81dc77831c9029"},
	{"page-cache", []string{"do_fault_file", "page_cache_lookup", "submit_bio_read", "sys_munmap"}, func(t *testing.T) *faultLog {
		l := newFaultLog(pinKernel(64*mem.MB, func(c *Config) { c.PrepopulatePageCache = false }))
		l.spawn(1)
		base := l.mmap(1, 1*mem.MB, MmapFlags{File: true, FileID: 5})
		l.touch(1, base, 64*mem.KB, 4096) // misses
		l.munmap(1, base, 1*mem.MB)
		base = l.mmap(1, 1*mem.MB, MmapFlags{File: true, FileID: 5, FixedAddr: base})
		l.touch(1, base, 128*mem.KB, 4096) // hits, then misses
		l.exitAll()
		return l
	}, "4a092cb642a4ece343969f913914638f1ee708d8f57202f4e85060ec4e8e5e8d"},
	{"file-1g", []string{"alloc_1g_page", "page_cache_lookup"}, func(t *testing.T) *faultLog {
		// Two 1GB faults fit; the third region falls back to 4K.
		l := newFaultLog(pinKernel(3*mem.GB, func(c *Config) {
			c.Enable1G = true
			c.SwapThreshold = 0.99
		}))
		l.spawn(1)
		base := l.mmap(1, 3*mem.GB, MmapFlags{File: true, DAX: true, Huge1G: true, FileID: 9})
		l.touch(1, base, 3*mem.GB, 1*mem.GB)
		l.exitAll()
		return l
	}, "10a81c30e65e2b43991f29904be55f9cc274b6e5dad446b7a1b8502d2ac257ea"},
	{"hugetlb", []string{"hugetlb_fault", "clear_huge_page"}, func(t *testing.T) *faultLog {
		// Two reserved pages serve two faults; the third is a SEGV.
		l := newFaultLog(pinKernel(64*mem.MB, nil))
		l.k.ReserveHugeTLB(2)
		l.spawn(1)
		base := l.mmap(1, 6*mem.MB, MmapFlags{HugeTLB: true})
		l.touch(1, base, 6*mem.MB, 2*mem.MB)
		l.exitAll()
		return l
	}, "6f06a23c33f9fc20952c3ca322f6c1136c42a73ba816034d15bc21528dd80862"},
	{"segv", []string{"do_anonymous_page", "do_fault_file"}, func(t *testing.T) *faultLog {
		// Outside any VMA, then out of memory with no swap: the
		// anonymous and the file retry both find nothing to reclaim.
		l := newFaultLog(pinKernel(8*mem.MB, func(c *Config) {
			c.SwapBytes = 0
			c.SwapThreshold = 1
		}))
		l.spawn(1)
		l.fault(1, 0xdead0000, false)
		anon := l.mmap(1, 16*mem.MB, MmapFlags{Anon: true})
		l.touch(1, anon, 12*mem.MB, 4096)
		file := l.mmap(1, 1*mem.MB, MmapFlags{File: true, FileID: 3})
		l.touch(1, file, 16*mem.KB, 4096)
		l.exitAll()
		return l
	}, "0d008747ddb8b68c01d78688bc183e2eb4842510a55fbcfa82a682ae5c203ad4"},
	{"swap", []string{"direct_reclaim", "swap_out", "swap_in", "sys_munmap"}, func(t *testing.T) *faultLog {
		// Two processes overrun DRAM above the watermark and swap out;
		// re-touching swaps pages back in. Process 2 exits with pages
		// still swapped out.
		l := newFaultLog(pinKernel(32*mem.MB, func(c *Config) {
			c.SwapBytes = 64 * mem.MB
			c.SwapThreshold = 0.5
		}))
		l.spawn(1)
		l.spawn(2)
		a := l.mmap(1, 20*mem.MB, MmapFlags{Anon: true})
		b := l.mmap(2, 16*mem.MB, MmapFlags{Anon: true})
		l.touch(1, a, 14*mem.MB, 4096)
		l.touch(2, b, 12*mem.MB, 4096)
		l.touch(2, b, 2*mem.MB, 4096)
		l.touch(1, a+mem.VAddr(14*mem.MB), 4*mem.MB, 4096)
		l.exit(2)
		l.touch(1, a, 2*mem.MB, 4096)
		l.munmap(1, a, 4*mem.MB)
		l.exitAll()
		return l
	}, "90080185f26642a8237bf078c69ac49ef675c7712373487ffd0158adbfec1fe2"},
	{"oom-flat", []string{"do_huge_pmd_anonymous_page", "direct_reclaim", "swap_out", "do_fault_file"}, func(t *testing.T) *faultLog {
		l := newFaultLog(pinKernel(32*mem.MB, func(c *Config) {
			c.SwapBytes = 64 * mem.MB
			c.SwapThreshold = 1
		}))
		l.k.SetPolicy(&LinuxTHPPolicy{})
		l.k.Phys.Fragment(0, 1)
		l.spawn(1)
		base := l.mmap(1, 40*mem.MB, MmapFlags{Anon: true})
		l.touch(1, base, 36*mem.MB, 4096)
		file := l.mmap(1, 1*mem.MB, MmapFlags{File: true, FileID: 4})
		l.touch(1, file, 256*mem.KB, 4096)
		l.exitAll()
		return l
	}, "f0f751e401865e1c8b980497dc82d6a072f7337bb1672efe761c6070a065de10"},
	{"oom-tiered", []string{"tier_reclaim", "tier_demote", "tier_promote"}, func(t *testing.T) *faultLog {
		l := newFaultLog(pinKernel(32*mem.MB, func(c *Config) {
			c.SwapBytes = 64 * mem.MB
			c.SwapThreshold = 1
			c.Tiers = oneTier(64 * mem.MB)
		}))
		l.spawn(1)
		base := l.mmap(1, 40*mem.MB, MmapFlags{Anon: true})
		l.touch(1, base, 36*mem.MB, 4096)
		l.touch(1, base, 1*mem.MB, 4096) // promote under OOM
		l.exitAll()
		return l
	}, "3014b71b5bd943a0eb225ec72234ab18a73dc0eb790ae7952e863bee74ddec42"},
	{"tiers", []string{"tier_demote", "tier_cascade", "swap_out", "tier_promote", "swap_in", "tier_scan", "sys_munmap"}, func(t *testing.T) *faultLog {
		// Two small slow tiers: demotion, cascade into the second tier
		// and on into swap, then promotion of every page still in a
		// tier and swap-ins on re-touch.
		k := pinKernel(32*mem.MB, func(c *Config) {
			c.SwapBytes = 64 * mem.MB
			c.SwapThreshold = 0.5
			c.Tiers = []tier.Spec{
				{Name: "cxl", Bytes: 4 * mem.MB, ReadLat: 600, WriteLat: 900, BytesPerCycle: 8},
				{Name: "nvm", Bytes: 4 * mem.MB, ReadLat: 2500, WriteLat: 8000, BytesPerCycle: 2},
			}
		})
		k.SetTierPolicy(tier.NewClock()) // demotes to the nearest tier
		l := newFaultLog(k)
		l.spawn(1)
		l.spawn(2)
		a := l.mmap(1, 32*mem.MB, MmapFlags{Anon: true})
		b := l.mmap(2, 8*mem.MB, MmapFlags{Anon: true})
		l.touch(1, a, 24*mem.MB, 4096)
		l.touch(2, b, 8*mem.MB, 4096)
		var demoted []mem.VAddr
		for va := b; va < b+mem.VAddr(8*mem.MB); va += 4096 {
			if _, _, ok := l.k.tiers.Lookup(2, va); ok {
				demoted = append(demoted, va)
			}
		}
		for _, va := range demoted {
			l.fault(2, va, false)
		}
		l.touch(1, a, 4*mem.MB, 4096)
		l.munmap(1, a+mem.VAddr(4*mem.MB), 4*mem.MB)
		l.exitAll()
		return l
	}, "b9c9997a13d81bae5c7cd0aa69fc86234f8b426e0ef03ceca57852e9f5ce6a97"},
	{"khugepaged", []string{"khugepaged_scan", "collapse_huge_page"}, func(t *testing.T) *faultLog {
		// Process 1 falls back to 4K pages while every 2MB block is
		// held; once contiguity returns, process 2's faults drive the
		// scans that collapse process 1's regions.
		l := newFaultLog(pinKernel(64*mem.MB, func(c *Config) {
			c.KhugeEveryNFaults = 128
			c.KhugeScanRegions = 8
			c.SwapThreshold = 0.995
		}))
		k := l.k
		k.SetPolicy(&LinuxTHPPolicy{})
		var held []mem.PAddr
		for {
			pa, ok := k.Phys.Alloc2M()
			if !ok {
				break
			}
			held = append(held, pa)
		}
		for b := 0; b < 8; b++ {
			blk := held[len(held)-1]
			held = held[:len(held)-1]
			for pg := 1; pg < 512; pg += 2 {
				k.Phys.Free(blk+mem.PAddr(pg*4096), 1)
			}
		}
		l.spawn(1)
		l.spawn(2)
		base := l.mmap(1, 4*mem.MB, MmapFlags{Anon: true})
		l.touch(1, base, 2*mem.MB, 4096)
		l.touch(1, base+mem.VAddr(2*mem.MB), 96*4096, 4096) // too sparse
		for _, pa := range held {
			k.Phys.Free(pa, 512)
		}
		aux := l.mmap(2, 8*mem.MB, MmapFlags{Anon: true})
		l.touch(2, aux, 8*mem.MB, 4096)
		l.exitAll()
		return l
	}, "9b027bb1205212af218425d4479fc191b0ad0b4686e712b54f2cb1a0804e15d4"},
}

// TestFaultPathTrafficPinned pins what MimicOS hands the simulator on
// every fault path: each record of each kernel event's stream, each
// FaultOutcome, and the final counters. A refactor of the fault
// handlers must leave every digest unchanged. It also checks that the
// kernel totals are exactly the sum of the per-process counters,
// exited processes included.
func TestFaultPathTrafficPinned(t *testing.T) {
	for _, tc := range faultPaths {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.run(t)
			calls := make(map[string]uint64)
			for _, r := range l.k.Tracer.Stats() {
				calls[r.Name] = r.Calls
			}
			for _, name := range tc.runs {
				if calls[name] == 0 {
					t.Errorf("the scenario never ran %s", name)
				}
			}
			var sum Stats
			for _, p := range l.procs {
				sumStats(&sum, p.Stat)
			}
			if got := *l.k.Stats(); got != sum {
				t.Errorf("kernel stats %+v\n!= sum of process stats %+v", got, sum)
			}
			if got := l.digest(); got != tc.want {
				t.Errorf("fault-path digest = %s, want %s (stats %+v)", got, tc.want, *l.k.Stats())
			}
		})
	}
}
