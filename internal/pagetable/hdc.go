package pagetable

import (
	"repro/internal/instrument"
	"repro/internal/recycle"
)

const hdcClusterPTEs = 8

type hdcCluster struct {
	cvpn    uint64
	slot    uint64 // probe-slot index holding the cluster
	used    [hdcClusterPTEs]bool
	entries [hdcClusterPTEs]Entry
}

// Pool keys for a table's clusters (arena chunks of 16 doubling to 64;
// clusters are never freed within a table's lifetime) and its slot
// map.
const (
	hdcClusterChunkKey = "pagetable.hdc.clusterchunk"
	hdcSlotToKey       = "pagetable.hdc.slotto"
)

// hdcTable is the scheme of HDC, the open-addressing hashed page table
// of Yaniv & Tsafrir ("Hash, Don't Cache (the page table)",
// SIGMETRICS'16): a single global table (4 GB in Table 4) of 64-byte
// buckets, each holding a cluster of 8 PTEs for 8 consecutive virtual
// pages. A walk hashes the cluster VPN and probes linearly — one memory
// access in the common case, which is why HDC both shortens walks
// (Fig. 13) and reduces DRAM row-buffer conflicts (Fig. 14) relative to
// radix. On the host, clusters come from arena chunks and the slot map
// is a plain map, both of which a pooled table (NewHDCWith) takes from
// and gives back to a recycle.Pool.
type hdcTable struct {
	buckets
	clusters arena[hdcCluster]
	// slotTo maps probe-slot index -> cluster stored there.
	slotTo  map[uint64]*hdcCluster
	Probes  uint64
	Lookups uint64
}

// NewHDCWith builds HDC's global open-addressing table (4 GB when
// tableBytes is 0, split between the 4 KB and 2 MB page sizes, probed
// after perfect page-size resolution), drawing cluster chunks and slot
// maps from pool (nil pool = fresh allocations). It fails when alloc
// has no contiguous run of frames left for a sub-table.
func NewHDCWith(alloc FrameAllocator, tableBytes uint64, pool *recycle.Pool) (PageTable, error) {
	return newGlobal(alloc, tableBytes, 0xD0C5EED, "HDC", func(b buckets) scheme {
		return &hdcTable{
			buckets:  b,
			clusters: arena[hdcCluster]{pool: pool, key: hdcClusterChunkKey, min: 16, max: 64},
			slotTo:   recycle.Map[uint64, *hdcCluster](pool, hdcSlotToKey),
		}
	})
}

// find returns the cluster cvpn; out (optional) records the probed
// bucket addresses.
func (t *hdcTable) find(cvpn uint64, out *WalkResult) (*hdcCluster, bool) {
	t.Lookups++
	slot := t.home(cvpn)
	for i := uint64(0); i < t.n; i++ {
		s := (slot + i) % t.n
		t.Probes++
		if out != nil {
			out.push(t.pa(s), 0)
		}
		c, occupied := t.slotTo[s]
		if !occupied {
			return nil, false // open slot terminates the probe sequence
		}
		if c.cvpn == cvpn {
			return c, true
		}
	}
	return nil, false
}

// findOrCreate returns cluster cvpn, or nil when every slot is taken.
func (t *hdcTable) findOrCreate(cvpn uint64, k instrument.KernelMem) *hdcCluster {
	slot := t.home(cvpn)
	for i := uint64(0); i < t.n; i++ {
		s := (slot + i) % t.n
		k.Load(t.pa(s))
		c, occupied := t.slotTo[s]
		if occupied && c.cvpn == cvpn {
			return c
		}
		if !occupied {
			c = t.clusters.get()
			c.cvpn, c.slot = cvpn, s
			t.slotTo[s] = c
			return c
		}
	}
	return nil
}

// mapped returns vpn's cluster (nil when vpn is unmapped) and PTE index.
func (t *hdcTable) mapped(vpn uint64) (*hdcCluster, uint64) {
	idx := vpn % hdcClusterPTEs
	if c, ok := t.find(vpn/hdcClusterPTEs, nil); ok && c.used[idx] {
		return c, idx
	}
	return nil, idx
}

func (t *hdcTable) get(vpn uint64) (Entry, bool) {
	if c, i := t.mapped(vpn); c != nil {
		return c.entries[i], true
	}
	return Entry{}, false
}

func (t *hdcTable) probe(vpn uint64, out *WalkResult) { t.find(vpn/hdcClusterPTEs, out) }

func (t *hdcTable) put(vpn uint64, e Entry, k instrument.KernelMem) (bool, error) {
	c, idx := t.findOrCreate(vpn/hdcClusterPTEs, k), vpn%hdcClusterPTEs
	if c == nil {
		return false, ErrOutOfMemory{What: "HDC cluster (table full)"}
	}
	added := !c.used[idx]
	c.used[idx], c.entries[idx] = true, e
	k.Store(t.pa(c.slot))
	return added, nil
}

func (t *hdcTable) update(vpn uint64, e Entry, k instrument.KernelMem) bool {
	c, i := t.mapped(vpn)
	if c == nil {
		return false
	}
	c.entries[i] = e
	k.Store(t.pa(c.slot))
	return true
}

// remove clears vpn's PTE. Clusters are not compacted on emptiness
// (tombstone-free deletion would break linear probing), matching HDC's
// design.
func (t *hdcTable) remove(vpn uint64, k instrument.KernelMem) (Entry, bool) {
	c, i := t.mapped(vpn)
	if c == nil {
		return Entry{}, false
	}
	c.used[i] = false
	k.Store(t.pa(c.slot))
	return c.entries[i], true
}

func (t *hdcTable) recycle(pool *recycle.Pool) {
	t.clusters.recycle(pool)
	recycle.PutMap(pool, hdcSlotToKey, t.slotTo)
}
