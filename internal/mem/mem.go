// Package mem provides the address-space primitives shared by every
// simulator substrate: virtual and physical addresses, page sizes, and
// the access-type tags used to attribute memory traffic (data vs. page
// table vs. translation metadata vs. kernel) throughout the memory
// hierarchy.
package mem

import "fmt"

// VAddr is a virtual address in the simulated application's (or guest's)
// address space.
type VAddr uint64

// PAddr is a physical address in the simulated machine's memory.
type PAddr uint64

// Sizes of common units, in bytes.
const (
	KB = 1 << 10
	MB = 1 << 20
	GB = 1 << 30

	CacheLineBytes = 64
	CacheLineShift = 6
)

// PageSize enumerates the x86-64 translation granules MimicOS manages.
type PageSize uint8

const (
	Page4K PageSize = iota
	Page2M
	Page1G
	numPageSizes
)

// NumPageSizes is the number of distinct page sizes.
const NumPageSizes = int(numPageSizes)

// Shift returns log2 of the page size in bytes.
func (s PageSize) Shift() uint {
	switch s {
	case Page4K:
		return 12
	case Page2M:
		return 21
	case Page1G:
		return 30
	}
	panic(fmt.Sprintf("mem: invalid page size %d", s))
}

// Bytes returns the page size in bytes.
func (s PageSize) Bytes() uint64 { return 1 << s.Shift() }

// Mask returns the offset mask within a page of this size.
func (s PageSize) Mask() uint64 { return s.Bytes() - 1 }

func (s PageSize) String() string {
	switch s {
	case Page4K:
		return "4KB"
	case Page2M:
		return "2MB"
	case Page1G:
		return "1GB"
	}
	return fmt.Sprintf("PageSize(%d)", uint8(s))
}

// VPN returns the virtual page number of va at page size s.
func (s PageSize) VPN(va VAddr) uint64 { return uint64(va) >> s.Shift() }

// PageBase returns the base virtual address of the page containing va.
func (s PageSize) PageBase(va VAddr) VAddr { return va &^ VAddr(s.Mask()) }

// FrameBase returns the base physical address of the frame containing pa.
func (s PageSize) FrameBase(pa PAddr) PAddr { return pa &^ PAddr(s.Mask()) }

// Offset returns the offset of va within its page.
func (s PageSize) Offset(va VAddr) uint64 { return uint64(va) & s.Mask() }

// Translate combines a frame base with the page offset of va.
func (s PageSize) Translate(frame PAddr, va VAddr) PAddr {
	return s.FrameBase(frame) | PAddr(s.Offset(va))
}

// AccessType attributes a memory access to its architectural origin so the
// DRAM model can report, e.g., row-buffer conflicts caused by page-table
// accesses separately from those caused by application data (Figs. 14, 21).
type AccessType uint8

const (
	// ATData is an application data access.
	ATData AccessType = iota
	// ATPTE is a page-table (or hash-table translation structure) access
	// performed by a hardware walker.
	ATPTE
	// ATTransMeta is an access to auxiliary translation metadata: range
	// tables (RMM), RestSeg virtual tags (Utopia), VMA trees (Midgard).
	ATTransMeta
	// ATKernel is an access performed by injected MimicOS instructions.
	ATKernel
	// ATInstr is an instruction fetch.
	ATInstr
	numAccessTypes
)

// NumAccessTypes is the number of distinct access-type tags.
const NumAccessTypes = int(numAccessTypes)

func (t AccessType) String() string {
	switch t {
	case ATData:
		return "data"
	case ATPTE:
		return "pte"
	case ATTransMeta:
		return "transmeta"
	case ATKernel:
		return "kernel"
	case ATInstr:
		return "instr"
	}
	return fmt.Sprintf("AccessType(%d)", uint8(t))
}

// Line returns the cache-line-aligned address of a.
func Line(a PAddr) PAddr { return a &^ (CacheLineBytes - 1) }

// AlignUp rounds v up to the next multiple of align (a power of two).
func AlignUp(v, align uint64) uint64 { return (v + align - 1) &^ (align - 1) }
