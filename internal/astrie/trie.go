// Package astrie maps IP addresses to autonomous systems via a
// longest-prefix-match table, and carries the paper's Table-1 registry of
// cloud-provider ASes (Google, Amazon, Microsoft, Facebook, Cloudflare —
// 20 ASes) plus a synthetic allocation of prefixes for those ASes and a
// long tail of "rest of the Internet" ASes.
//
// The original study classified resolver addresses with Routeviews-derived
// prefix tables; those tables are replaced here by a deterministic
// synthetic allocation (one IPv4 /16 and one IPv6 /32 per AS), which keeps
// the classification code path — address → longest matching prefix → AS →
// provider — identical.
package astrie

import (
	"fmt"
	"net/netip"
	"slices"
)

// Trie is a longest-prefix-match table from IP prefixes to uint32 values
// (the registry stores AS ordinals). The zero value is ready to use. It
// supports both families, with a separate root each; IPv4-mapped IPv6
// prefixes and addresses are treated as the IPv4 ones they map. Not safe
// for concurrent mutation; safe for concurrent lookups after all inserts
// complete.
//
// It is a multibit trie with controlled prefix expansion, held in three
// flat slices and no pointers. The IPv4 root is one node indexed by the
// first 16 address bits; the IPv6 root and every deeper node are indexed
// by the next 8 bits. A prefix that ends inside a node's stride is
// expanded over every slot it covers, each slot keeping the length of the
// longest prefix written to it, so insertion order does not matter and a
// lookup reads one slot per level until it reaches a leaf.
type Trie struct {
	// slots holds, per slot, the value of a leaf or the first slot of the
	// child node.
	slots []uint32
	// plens holds, per slot, 0 for an empty leaf, 1+bits for a leaf set by
	// a /bits prefix, or isChild.
	plens []uint8
	// marks has one bit per (node, prefix ending in that node) — two bits
	// per slot — recording which exact prefixes were inserted, for Len.
	marks []uint64
	// roots holds 1 + the first slot of the IPv4 and the IPv6 root node,
	// 0 while that family is empty.
	roots [2]uint32
	size  int
}

const (
	isChild   = 0xFF
	nodeSlots = 1 << 8
)

// rootBits is the stride of the IPv4 and the IPv6 root node.
var rootBits = [2]int{16, 8}

// Insert associates prefix with v, replacing any previous association of
// the exact prefix.
func (t *Trie) Insert(prefix netip.Prefix, v uint32) error {
	if !prefix.IsValid() {
		return fmt.Errorf("astrie: invalid prefix %v", prefix)
	}
	prefix = prefix.Masked()
	addr, bits := prefix.Addr(), prefix.Bits()
	if addr.Is4In6() {
		// Masked, so the ::ffff:0:0/96 marker is intact: bits ≥ 96.
		addr, bits = addr.Unmap(), bits-96
	}
	fam, b := family(addr)
	if t.roots[fam] == 0 {
		t.roots[fam] = uint32(t.grow(1<<rootBits[fam])) + 1
	}
	node, start, stride := int(t.roots[fam]-1), 0, rootBits[fam]
	for {
		idx := strideIndex(&b, start, stride)
		if bits <= start+stride {
			l := bits - start
			mark := 2*node + 1<<l - 1 + idx>>(stride-l)
			if t.marks[mark/64]&(1<<(mark%64)) == 0 {
				t.marks[mark/64] |= 1 << (mark % 64)
				t.size++
			}
			for s := node + idx; s < node+idx+1<<(stride-l); s++ {
				t.fill(s, v, uint8(bits+1))
			}
			return nil
		}
		s := node + idx
		if t.plens[s] != isChild {
			// Push the slot's leaf down into a new child before it
			// becomes a link.
			child := t.grow(nodeSlots)
			for c := child; c < child+nodeSlots; c++ {
				t.slots[c], t.plens[c] = t.slots[s], t.plens[s]
			}
			t.slots[s], t.plens[s] = uint32(child), isChild
		}
		node, start, stride = int(t.slots[s]), start+stride, 8
	}
}

// fill writes v into slot s, or into every leaf below it, wherever no
// longer prefix already holds the slot.
func (t *Trie) fill(s int, v uint32, plen uint8) {
	if t.plens[s] == isChild {
		child := int(t.slots[s])
		for c := child; c < child+nodeSlots; c++ {
			t.fill(c, v, plen)
		}
		return
	}
	if t.plens[s] <= plen {
		t.slots[s], t.plens[s] = v, plen
	}
}

// grow appends n empty slots and returns the first.
func (t *Trie) grow(n int) int {
	first := len(t.slots)
	t.reserve(n)
	t.slots = t.slots[:first+n]
	t.plens = t.plens[:first+n]
	t.marks = t.marks[:(first+n)/32]
	clear(t.slots[first:])
	clear(t.plens[first:])
	clear(t.marks[first/32:])
	return first
}

// reserve sets aside capacity for n more slots, so that building a table
// of known shape allocates each slice once.
func (t *Trie) reserve(n int) {
	t.slots = slices.Grow(t.slots, n)
	t.plens = slices.Grow(t.plens, n)
	t.marks = slices.Grow(t.marks, n/32)
}

// Lookup returns the value of the longest prefix covering addr.
func (t *Trie) Lookup(addr netip.Addr) (v uint32, ok bool) {
	if !addr.IsValid() {
		return 0, false
	}
	fam, b := family(addr.Unmap())
	root := t.roots[fam]
	if root == 0 {
		return 0, false
	}
	s := int(root-1) + strideIndex(&b, 0, rootBits[fam])
	for k := rootBits[fam] / 8; t.plens[s] == isChild; k++ {
		s = int(t.slots[s]) + int(b[k])
	}
	return t.slots[s], t.plens[s] != 0
}

// family returns the root index of an unmapped address and its bytes.
func family(addr netip.Addr) (int, [16]byte) {
	if addr.Is4() {
		var b [16]byte
		a4 := addr.As4()
		copy(b[:], a4[:])
		return 0, b
	}
	return 1, addr.As16()
}

// strideIndex reads the 8 or 16 address bits at byte-aligned offset start.
func strideIndex(b *[16]byte, start, stride int) int {
	idx := int(b[start/8])
	if stride == 16 {
		idx = idx<<8 | int(b[start/8+1])
	}
	return idx
}

// Len returns the number of distinct prefixes inserted.
func (t *Trie) Len() int { return t.size }
