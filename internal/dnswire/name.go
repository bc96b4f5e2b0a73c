package dnswire

import (
	"errors"
	"strings"
	"sync"
)

// Errors returned by the name codec.
var (
	ErrNameTooLong    = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong   = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel     = errors.New("dnswire: empty label inside name")
	ErrBadPointer     = errors.New("dnswire: bad compression pointer")
	ErrPointerLoop    = errors.New("dnswire: compression pointer loop")
	ErrTruncatedName  = errors.New("dnswire: truncated name")
	ErrReservedLabel  = errors.New("dnswire: reserved label type")
	ErrNameNotCanonic = errors.New("dnswire: name not in canonical form")
)

const (
	maxNameWire  = 255 // total wire octets including length bytes and root
	maxLabelWire = 63
)

// CanonicalName lowercases s and guarantees a single trailing dot, so that
// "WWW.Example.NL" and "www.example.nl." map to the same key. The root name
// is ".".
func CanonicalName(s string) string {
	s = strings.ToLower(s)
	if s == "" || s == "." {
		return "."
	}
	if !strings.HasSuffix(s, ".") {
		s += "."
	}
	return s
}

// SplitLabels splits a canonical name into its labels, excluding the root.
// SplitLabels(".") returns nil.
func SplitLabels(name string) []string {
	name = CanonicalName(name)
	if name == "." {
		return nil
	}
	return strings.Split(strings.TrimSuffix(name, "."), ".")
}

// CountLabels returns the number of labels in name, excluding the root.
func CountLabels(name string) int {
	return len(SplitLabels(name))
}

// ParentName strips the leftmost label: ParentName("a.b.nl.") == "b.nl.".
// The parent of a single-label name is the root "."; the parent of the root
// is the root.
func ParentName(name string) string {
	name = CanonicalName(name)
	if name == "." {
		return "."
	}
	idx := strings.IndexByte(name, '.')
	rest := name[idx+1:]
	if rest == "" {
		return "."
	}
	return rest
}

// IsSubdomain reports whether child is equal to or underneath parent.
// Every name is a subdomain of the root.
func IsSubdomain(child, parent string) bool {
	child, parent = CanonicalName(child), CanonicalName(parent)
	if parent == "." {
		return true
	}
	if child == parent {
		return true
	}
	return strings.HasSuffix(child, "."+parent)
}

// nameCompressor remembers wire offsets of name suffixes already emitted so
// later occurrences can be encoded as 14-bit compression pointers
// (RFC 1035 §4.1.4). Pointers can only reference the first 0x3FFF octets.
// Offsets are recorded relative to base, the buffer position where the
// message header starts, so a message may be packed into the middle of a
// larger buffer (e.g. a reused arena) and still emit valid pointers.
type nameCompressor struct {
	offsets map[string]int
	base    int
}

// compressorPool recycles compressors (and their map buckets) across Pack
// calls: steady-state packing reuses a cleared map instead of allocating a
// fresh one per message.
var compressorPool = sync.Pool{
	New: func() any { return &nameCompressor{offsets: make(map[string]int, 16)} },
}

func newNameCompressorAt(base int) *nameCompressor {
	c := compressorPool.Get().(*nameCompressor)
	clear(c.offsets)
	c.base = base
	return c
}

func (c *nameCompressor) release() { compressorPool.Put(c) }

// appendName appends the wire encoding of name to b, registering and reusing
// compression offsets when comp is non-nil. The canonical form is walked
// label by label in place — no split allocation — and each suffix key is a
// substring of name. On error b may hold a partially written name; callers
// abort the whole message in that case.
func appendName(b []byte, name string, comp *nameCompressor) ([]byte, error) {
	name = CanonicalName(name)
	if name == "." {
		return append(b, 0), nil
	}
	// A canonical name's wire form is one byte longer than its text form
	// (each trailing dot becomes a length byte, plus the root byte).
	if len(name)+1 > maxNameWire {
		return b, ErrNameTooLong
	}
	for pos := 0; pos < len(name); {
		l := strings.IndexByte(name[pos:], '.') // canonical ⇒ always ≥ 0
		if l == 0 {
			return b, ErrEmptyLabel
		}
		if l > maxLabelWire {
			return b, ErrLabelTooLong
		}
		suffix := name[pos:]
		if comp != nil {
			if off, ok := comp.offsets[suffix]; ok {
				return append(b, byte(0xC0|off>>8), byte(off)), nil
			}
			if off := len(b) - comp.base; off <= 0x3FFF {
				comp.offsets[suffix] = off
			}
		}
		b = append(b, byte(l))
		b = append(b, name[pos:pos+l]...)
		pos += l + 1
	}
	return append(b, 0), nil
}

// readName decodes a possibly-compressed name starting at off in msg.
// It returns the canonical name and the offset just past the name in the
// *original* (non-pointer-followed) byte stream.
func readName(msg []byte, off int) (string, int, error) {
	// A canonical text name is at most 254 bytes ("a." × 127 labels), so the
	// append below never escapes this stack buffer.
	var arr [maxNameWire + 1]byte
	b, end, err := appendNameBytes(arr[:0], msg, off)
	if err != nil {
		return "", 0, err
	}
	return string(b), end, nil
}

// appendNameBytes is readName's allocation-free core: it appends the
// canonical (lowercased, dot-terminated) text form of the name at off to
// dst and returns the grown slice plus the offset just past the name in
// the *original* (non-pointer-followed) byte stream. The root name
// appends ".".
func appendNameBytes(dst, msg []byte, off int) ([]byte, int, error) {
	start := len(dst)
	ptrBudget := 64 // generous loop guard: RFC names have ≤127 labels
	end := -1       // first position after the name in the original stream
	labels := 0
	total := 1
	for {
		if off >= len(msg) {
			return dst, 0, ErrTruncatedName
		}
		c := msg[off]
		switch {
		case c == 0:
			if end < 0 {
				end = off + 1
			}
			if len(dst) == start {
				return append(dst, '.'), end, nil
			}
			return dst, end, nil
		case c&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return dst, 0, ErrTruncatedName
			}
			ptr := int(c&0x3F)<<8 | int(msg[off+1])
			if end < 0 {
				end = off + 2
			}
			if ptr >= off {
				// Forward or self pointers are invalid and would loop.
				return dst, 0, ErrBadPointer
			}
			ptrBudget--
			if ptrBudget <= 0 {
				return dst, 0, ErrPointerLoop
			}
			off = ptr
		case c&0xC0 != 0:
			return dst, 0, ErrReservedLabel
		default:
			l := int(c)
			if off+1+l > len(msg) {
				return dst, 0, ErrTruncatedName
			}
			total += 1 + l
			if total > maxNameWire {
				return dst, 0, ErrNameTooLong
			}
			labels++
			if labels > 127 {
				return dst, 0, ErrNameTooLong
			}
			for _, ch := range msg[off+1 : off+1+l] {
				if ch >= 'A' && ch <= 'Z' {
					ch += 'a' - 'A'
				}
				dst = append(dst, ch)
			}
			dst = append(dst, '.')
			off += 1 + l
		}
	}
}

// SkipName returns the offset just past the (possibly compressed) name
// starting at off, validating it along the way. It lets callers walk
// resource records in a packed message without materializing names —
// the recursor uses it to locate TTL fields for serve-stale clamping.
func SkipName(msg []byte, off int) (int, error) { return skipName(msg, off) }

// skipName validates the name at off exactly like readName but without
// materializing it, returning only the offset just past the name in the
// original stream. The lazy View walker uses it to cross names for free.
// Keep its checks in lockstep with appendNameBytes — FuzzViewParity pins
// the equivalence.
func skipName(msg []byte, off int) (int, error) {
	ptrBudget := 64
	end := -1
	labels := 0
	total := 1
	for {
		if off >= len(msg) {
			return 0, ErrTruncatedName
		}
		c := msg[off]
		switch {
		case c == 0:
			if end < 0 {
				end = off + 1
			}
			return end, nil
		case c&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return 0, ErrTruncatedName
			}
			ptr := int(c&0x3F)<<8 | int(msg[off+1])
			if end < 0 {
				end = off + 2
			}
			if ptr >= off {
				return 0, ErrBadPointer
			}
			ptrBudget--
			if ptrBudget <= 0 {
				return 0, ErrPointerLoop
			}
			off = ptr
		case c&0xC0 != 0:
			return 0, ErrReservedLabel
		default:
			l := int(c)
			if off+1+l > len(msg) {
				return 0, ErrTruncatedName
			}
			total += 1 + l
			if total > maxNameWire {
				return 0, ErrNameTooLong
			}
			labels++
			if labels > 127 {
				return 0, ErrNameTooLong
			}
			off += 1 + l
		}
	}
}

// nameIsRoot reports whether the (already skipName-validated) name at off
// is the root name, following compression pointers without allocating.
func nameIsRoot(msg []byte, off int) bool {
	for budget := 64; budget > 0; budget-- {
		if off >= len(msg) {
			return false
		}
		c := msg[off]
		switch {
		case c == 0:
			return true
		case c&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return false
			}
			off = int(c&0x3F)<<8 | int(msg[off+1])
		default:
			return false
		}
	}
	return false
}

// ValidateName checks that name can be encoded on the wire.
func ValidateName(name string) error {
	_, err := appendName(nil, name, nil)
	return err
}
