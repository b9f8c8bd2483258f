package sem

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
)

// PageBits sizes the sparse memory pages (4KB). A generated kernel touches
// well under a page of each buffer, and every oracle execution clones the
// input image, so a page this small keeps an image, and each copy of it,
// near the bytes actually written. The null page (vec.NullPageBytes) is a
// separate constant that merely happens to be the same size.
const PageBits = 12

// PageSize is the byte size of one sparse memory page.
const PageSize = 1 << PageBits

const pageBits = PageBits
const pageSize = PageSize

// Memory is a sparse byte-addressable global memory. The zero value is not
// usable; create with NewMemory.
type Memory struct {
	pages map[uint64][]byte
	brk   uint64 // bump-pointer allocator
}

// NewMemory returns an empty memory. Allocations start at a non-zero base
// so that address 0 stays invalid (a null pointer).
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64][]byte), brk: 0x10000}
}

// Alloc reserves size bytes and returns the base address (256-byte aligned).
func (m *Memory) Alloc(size int64) uint64 {
	const align = 256
	m.brk = (m.brk + align - 1) / align * align
	base := m.brk
	m.brk += uint64(size)
	return base
}

// page returns the backing page containing addr, allocating it on first
// touch. A page, once created, is never replaced or resized, so a caller
// may cache the returned slice keyed by addr>>pageBits (see PageCache).
func (m *Memory) page(addr uint64) []byte {
	p, ok := m.pages[addr>>pageBits]
	if !ok {
		p = make([]byte, pageSize)
		m.pages[addr>>pageBits] = p
	}
	return p
}

// PageCache is a one-entry page cache in front of a Memory, for the
// execution engines' global accesses. Coalesced warp accesses (at most
// 32 lanes x 8 bytes) land on the same 4KB page lane after lane, so caching
// the last page slice turns the per-lane map lookup into a compare; a
// stride of a page or more misses on every lane, one map lookup each, as
// an uncached access would. Read and Write agree bit for bit with
// Memory's; a page-straddling access (possible with unaligned addresses)
// takes Memory's slow path.
type PageCache struct {
	mem  *Memory
	key  uint64
	page []byte
}

// NewPageCache returns an empty page cache over m.
func NewPageCache(m *Memory) PageCache { return PageCache{mem: m} }

func (c *PageCache) pageFor(addr uint64) []byte {
	key := addr >> pageBits
	if key != c.key || c.page == nil {
		c.page = c.mem.page(addr)
		c.key = key
	}
	return c.page
}

// Read is Memory.Read through the cache.
func (c *PageCache) Read(addr uint64, size int) uint64 {
	off := addr & (pageSize - 1)
	if off+uint64(size) > pageSize {
		return c.mem.Read(addr, size)
	}
	return ReadLE(c.pageFor(addr)[off:], size)
}

// Write is Memory.Write through the cache.
func (c *PageCache) Write(addr uint64, v uint64, size int) {
	off := addr & (pageSize - 1)
	if off+uint64(size) > pageSize {
		c.mem.Write(addr, v, size)
		return
	}
	WriteLE(c.pageFor(addr)[off:], v, size)
}

// ReadLE reads the n-byte little-endian value at the front of b: a page, or
// an engine's local or shared segment. The common widths go through
// encoding/binary, which the compiler turns into a single load —
// bit-identical to the byte loop.
func ReadLE(b []byte, n int) uint64 {
	switch n {
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 8:
		return binary.LittleEndian.Uint64(b)
	}
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// WriteLE stores the low n bytes of v at the front of b, little-endian.
func WriteLE(b []byte, v uint64, n int) {
	switch n {
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
		return
	case 8:
		binary.LittleEndian.PutUint64(b, v)
		return
	}
	for i := 0; i < n; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// WriteBytes stores b at addr, one page-sized chunk at a time.
func (m *Memory) WriteBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		n := copy(m.page(addr)[addr&(pageSize-1):], b)
		addr += uint64(n)
		b = b[n:]
	}
}

// Read reads an unsigned little-endian value of the given byte width. The
// single-page fast path keeps the simulator's per-access cost allocation-free.
func (m *Memory) Read(addr uint64, bytes int) uint64 {
	off := addr & (pageSize - 1)
	if off+uint64(bytes) <= pageSize {
		p := m.page(addr)
		var v uint64
		for i := 0; i < bytes; i++ {
			v |= uint64(p[off+uint64(i)]) << (8 * i)
		}
		return v
	}
	var v uint64
	for i := 0; i < bytes; i++ {
		a := addr + uint64(i)
		v |= uint64(m.page(a)[a&(pageSize-1)]) << (8 * i)
	}
	return v
}

// Write stores the low `bytes` bytes of v at addr, little-endian.
func (m *Memory) Write(addr uint64, v uint64, bytes int) {
	off := addr & (pageSize - 1)
	if off+uint64(bytes) <= pageSize {
		p := m.page(addr)
		for i := 0; i < bytes; i++ {
			p[off+uint64(i)] = byte(v >> (8 * i))
		}
		return
	}
	for i := 0; i < bytes; i++ {
		a := addr + uint64(i)
		m.page(a)[a&(pageSize-1)] = byte(v >> (8 * i))
	}
}

// WriteUint32 stores a uint32.
func (m *Memory) WriteUint32(addr uint64, v uint32) { m.Write(addr, uint64(v), 4) }

// ReadUint32 loads a uint32.
func (m *Memory) ReadUint32(addr uint64) uint32 { return uint32(m.Read(addr, 4)) }

// WriteUint64 stores a uint64.
func (m *Memory) WriteUint64(addr uint64, v uint64) { m.Write(addr, v, 8) }

// ReadUint64 loads a uint64.
func (m *Memory) ReadUint64(addr uint64) uint64 { return m.Read(addr, 8) }

// WriteFloat32 stores a float32.
func (m *Memory) WriteFloat32(addr uint64, v float32) {
	m.Write(addr, uint64(math.Float32bits(v)), 4)
}

// ReadFloat32 loads a float32.
func (m *Memory) ReadFloat32(addr uint64) float32 {
	return math.Float32frombits(uint32(m.Read(addr, 4)))
}

// WriteFloat64 stores a float64.
func (m *Memory) WriteFloat64(addr uint64, v float64) {
	m.Write(addr, math.Float64bits(v), 8)
}

// ReadFloat64 loads a float64.
func (m *Memory) ReadFloat64(addr uint64) float64 {
	return math.Float64frombits(m.Read(addr, 8))
}

// Clone returns a deep copy of the memory image, including the allocator
// break so clones allocate identically to the original.
func (m *Memory) Clone() *Memory {
	c := &Memory{pages: make(map[uint64][]byte, len(m.pages)), brk: m.brk}
	for id, p := range m.pages {
		cp := make([]byte, pageSize)
		copy(cp, p)
		c.pages[id] = cp
	}
	return c
}

// zeroPage stands in for a page absent from one image. It is only read.
var zeroPage = make([]byte, pageSize)

// DiffFirst compares two memory images and returns the lowest address at
// which they differ, with the differing bytes. A page absent from one image
// compares as all zeros, so two images differ only where written contents
// differ — identical allocations with different page fault patterns are
// equal. Pages are compared whole in ascending order, and only the first
// unequal one is scanned byte by byte, so the answer is deterministic.
func (m *Memory) DiffFirst(o *Memory) (addr uint64, a, b byte, ok bool) {
	ids := make([]uint64, 0, len(m.pages)+len(o.pages))
	for id := range m.pages {
		ids = append(ids, id)
	}
	for id := range o.pages {
		if _, both := m.pages[id]; !both {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		pa, pb := m.pages[id], o.pages[id]
		if pa == nil {
			pa = zeroPage
		}
		if pb == nil {
			pb = zeroPage
		}
		if bytes.Equal(pa, pb) {
			continue
		}
		for i := range pa {
			if pa[i] != pb[i] {
				return id<<pageBits | uint64(i), pa[i], pb[i], true
			}
		}
	}
	return 0, 0, 0, false
}

// Equal reports whether two memory images hold identical contents (absent
// pages compare as zeros).
func (m *Memory) Equal(o *Memory) bool {
	_, _, _, diff := m.DiffFirst(o)
	return !diff
}
