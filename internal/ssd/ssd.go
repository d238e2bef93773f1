// Package ssd models a modern multi-queue NVMe SSD in the spirit of MQSim
// (Tavakkol et al., FAST'18), which the paper integrates to simulate the
// storage-device impact on virtual memory (swap traffic and page-cache
// misses; §5.2, Fig. 20).
//
// The model captures the performance characteristics that matter for VM
// research: flash-page read/program latencies, channel/chip parallelism,
// per-chip queueing, and a small controller-side read cache. Latencies are
// reported in CPU cycles so MimicOS can embed them directly in injected
// instruction streams as OpDelay instructions.
package ssd

import "repro/internal/mem"

// Config describes the device geometry and flash timing (in CPU cycles at
// 2.9 GHz; 1 µs ≈ 2900 cycles).
type Config struct {
	Channels      int
	ChipsPerCh    int
	PageBytes     uint64
	ReadLatency   uint64 // flash page read (tR + transfer)
	WriteLatency  uint64 // flash page program
	CtrlLatency   uint64 // host interface + FTL lookup
	CacheLines    int    // controller read-cache entries (flash pages)
	MaxQueueDelay uint64 // cap on modeled per-chip queueing
}

// DefaultConfig models a datacenter NVMe drive: 8 channels × 4 chips,
// 60 µs reads, 350 µs programs, 8 µs controller overhead.
func DefaultConfig() Config {
	return Config{
		Channels:      8,
		ChipsPerCh:    4,
		PageBytes:     16 * mem.KB,
		ReadLatency:   174_000,   // ~60 µs
		WriteLatency:  1_015_000, // ~350 µs
		CtrlLatency:   23_200,    // ~8 µs
		CacheLines:    1024,
		MaxQueueDelay: 8_700_000, // ~3 ms
	}
}

// Stats aggregates device activity.
type Stats struct {
	Reads       uint64
	Writes      uint64
	CacheHits   uint64
	QueueCycles uint64
	BusyCycles  uint64
}

type chip struct {
	busyUntil uint64
}

// Device is one simulated SSD.
type Device struct {
	cfg   Config
	chips []chip
	cache map[uint64]uint64 // flash page -> lru stamp; nil until the first read
	tick  uint64
	stats Stats
}

// New builds a device; zero config fields take defaults.
func New(cfg Config) *Device {
	def := DefaultConfig()
	if cfg.Channels == 0 {
		cfg.Channels = def.Channels
	}
	if cfg.ChipsPerCh == 0 {
		cfg.ChipsPerCh = def.ChipsPerCh
	}
	if cfg.PageBytes == 0 {
		cfg.PageBytes = def.PageBytes
	}
	if cfg.ReadLatency == 0 {
		cfg.ReadLatency = def.ReadLatency
	}
	if cfg.WriteLatency == 0 {
		cfg.WriteLatency = def.WriteLatency
	}
	if cfg.CtrlLatency == 0 {
		cfg.CtrlLatency = def.CtrlLatency
	}
	if cfg.CacheLines == 0 {
		cfg.CacheLines = def.CacheLines
	}
	if cfg.MaxQueueDelay == 0 {
		cfg.MaxQueueDelay = def.MaxQueueDelay
	}
	return &Device{
		cfg:   cfg,
		chips: make([]chip, cfg.Channels*cfg.ChipsPerCh),
	}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Stats returns the accumulated device statistics.
func (d *Device) Stats() *Stats { return &d.stats }

func (d *Device) chipOf(page uint64) *chip {
	return &d.chips[page%uint64(len(d.chips))]
}

func (d *Device) cacheTouch(page uint64) {
	if d.cache == nil {
		d.cache = make(map[uint64]uint64, d.cfg.CacheLines)
	}
	d.tick++
	if len(d.cache) >= d.cfg.CacheLines {
		if _, ok := d.cache[page]; !ok {
			// Evict the LRU entry.
			var victim uint64
			oldest := ^uint64(0)
			for p, t := range d.cache {
				if t < oldest {
					oldest = t
					victim = p
				}
			}
			delete(d.cache, victim)
		}
	}
	d.cache[page] = d.tick
}

// Read returns the latency (cycles) to read byteOff..byteOff+n-1 at time
// now, including FTL, queueing and flash time across the spanned pages.
func (d *Device) Read(byteOff, n uint64, now uint64) uint64 {
	return d.transfer(byteOff, n, now, false)
}

// Write returns the latency (cycles) to program the given range at now.
func (d *Device) Write(byteOff, n uint64, now uint64) uint64 {
	return d.transfer(byteOff, n, now, true)
}

func (d *Device) transfer(byteOff, n uint64, now uint64, write bool) uint64 {
	if n == 0 {
		n = 1
	}
	first := byteOff / d.cfg.PageBytes
	last := (byteOff + n - 1) / d.cfg.PageBytes
	lat := d.cfg.CtrlLatency
	// Pages on distinct chips proceed in parallel; the transfer completes
	// when the slowest page completes.
	var worst uint64
	for p := first; p <= last; p++ {
		var this uint64
		if !write {
			if _, ok := d.cache[p]; ok {
				d.stats.CacheHits++
				d.cacheTouch(p)
				continue
			}
		}
		c := d.chipOf(p)
		var queue uint64
		if c.busyUntil > now {
			queue = c.busyUntil - now
			if queue > d.cfg.MaxQueueDelay {
				queue = d.cfg.MaxQueueDelay
			}
			d.stats.QueueCycles += queue
		}
		svc := d.cfg.ReadLatency
		if write {
			svc = d.cfg.WriteLatency
			d.stats.Writes++
		} else {
			d.stats.Reads++
			d.cacheTouch(p)
		}
		c.busyUntil = now + queue + svc
		d.stats.BusyCycles += svc
		this = queue + svc
		if this > worst {
			worst = this
		}
	}
	return lat + worst
}
