package cache

import "repro/internal/mem"

// IPStridePrefetcher is the L1D prefetcher of Table 4: it tracks per-PC
// strides and, after the stride is confirmed, prefetches ahead.
type IPStridePrefetcher struct {
	entries []ipEntry
	mask    uint64
	degree  int
	buf     []mem.PAddr // reused across Observe calls; valid until the next call
}

type ipEntry struct {
	pc       uint64
	lastAddr uint64
	stride   int64
	conf     uint8
	valid    bool
}

// NewIPStride builds a prefetcher with a power-of-two table size.
func NewIPStride(tableSize, degree int) *IPStridePrefetcher {
	if tableSize&(tableSize-1) != 0 {
		panic("cache: ip-stride table size must be a power of two")
	}
	return &IPStridePrefetcher{
		entries: make([]ipEntry, tableSize),
		mask:    uint64(tableSize - 1),
		degree:  degree,
		buf:     make([]mem.PAddr, 0, degree),
	}
}

// Observe records a demand access and returns addresses to prefetch
// (possibly none). The returned slice is reused by the next Observe
// call — consume it before observing again.
func (p *IPStridePrefetcher) Observe(pc uint64, pa mem.PAddr) []mem.PAddr {
	e := &p.entries[(pc>>2)&p.mask]
	if !e.valid || e.pc != pc {
		*e = ipEntry{pc: pc, lastAddr: uint64(pa), valid: true}
		return nil
	}
	stride := int64(uint64(pa)) - int64(e.lastAddr)
	if stride == 0 {
		return nil
	}
	if stride == e.stride {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 0
	}
	e.lastAddr = uint64(pa)
	if e.conf < 2 {
		return nil
	}
	out := p.buf[:0]
	next := int64(uint64(pa))
	for i := 0; i < p.degree; i++ {
		next += e.stride
		if next <= 0 {
			break
		}
		out = append(out, mem.PAddr(next))
	}
	return out
}

// StreamPrefetcher is the L2 prefetcher of Table 4: it detects sequential
// miss streams within a page-sized window and runs ahead of them.
type StreamPrefetcher struct {
	streams []streamEntry
	next    int
	degree  int
	buf     []mem.PAddr // reused across Observe calls; valid until the next call
}

type streamEntry struct {
	base  uint64 // 4KB-region base
	last  uint64
	dir   int64
	conf  uint8
	valid bool
}

// NewStream builds a stream prefetcher with n stream trackers.
func NewStream(nStreams, degree int) *StreamPrefetcher {
	return &StreamPrefetcher{
		streams: make([]streamEntry, nStreams),
		degree:  degree,
		buf:     make([]mem.PAddr, 0, degree),
	}
}

// Observe records an L2 demand miss and returns prefetch candidates.
// The returned slice is reused by the next Observe call — consume it
// before observing again.
func (p *StreamPrefetcher) Observe(pa mem.PAddr) []mem.PAddr {
	region := uint64(pa) >> 12
	lineA := uint64(mem.Line(pa))
	for i := range p.streams {
		s := &p.streams[i]
		if !s.valid || s.base != region {
			continue
		}
		dir := int64(1)
		if lineA < s.last {
			dir = -1
		}
		if dir == s.dir {
			if s.conf < 3 {
				s.conf++
			}
		} else {
			s.dir = dir
			s.conf = 1
		}
		s.last = lineA
		if s.conf < 2 {
			return nil
		}
		out := p.buf[:0]
		a := int64(lineA)
		for j := 0; j < p.degree; j++ {
			a += s.dir * mem.CacheLineBytes
			if a <= 0 {
				break
			}
			// Stay within the 4KB region to avoid crossing page frames.
			if uint64(a)>>12 != region {
				break
			}
			out = append(out, mem.PAddr(a))
		}
		return out
	}
	// Allocate a new tracker round-robin.
	p.streams[p.next] = streamEntry{base: region, last: lineA, dir: 1, conf: 1, valid: true}
	p.next = (p.next + 1) % len(p.streams)
	return nil
}
