package dnswire

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCanonicalName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "."},
		{".", "."},
		{"nl", "nl."},
		{"nl.", "nl."},
		{"WWW.Example.NL", "www.example.nl."},
		{"example.net.nz.", "example.net.nz."},
	}
	for _, c := range cases {
		if got := CanonicalName(c.in); got != c.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSplitAndCountLabels(t *testing.T) {
	if got := SplitLabels("."); got != nil {
		t.Errorf("SplitLabels(.) = %v, want nil", got)
	}
	got := SplitLabels("a.b.nl.")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "nl" {
		t.Errorf("SplitLabels(a.b.nl.) = %v", got)
	}
	if CountLabels("example.net.nz") != 3 {
		t.Errorf("CountLabels(example.net.nz) != 3")
	}
	if CountLabels(".") != 0 {
		t.Errorf("CountLabels(.) != 0")
	}
}

func TestParentName(t *testing.T) {
	cases := []struct{ in, want string }{
		{".", "."},
		{"nl.", "."},
		{"example.nl.", "nl."},
		{"www.example.net.nz.", "example.net.nz."},
	}
	for _, c := range cases {
		if got := ParentName(c.in); got != c.want {
			t.Errorf("ParentName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestIsSubdomain(t *testing.T) {
	cases := []struct {
		child, parent string
		want          bool
	}{
		{"example.nl.", "nl.", true},
		{"example.nl.", ".", true},
		{"nl.", "nl.", true},
		{"example.com.", "nl.", false},
		{"notnl.", "nl.", false}, // suffix of string but not of labels
		{"xample.nl.", "example.nl.", false},
		{"a.b.example.nl.", "example.nl.", true},
	}
	for _, c := range cases {
		if got := IsSubdomain(c.child, c.parent); got != c.want {
			t.Errorf("IsSubdomain(%q, %q) = %v, want %v", c.child, c.parent, got, c.want)
		}
	}
}

func TestAppendNameRoot(t *testing.T) {
	b, err := appendName(nil, ".", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 1 || b[0] != 0 {
		t.Fatalf("root encoding = %v", b)
	}
}

func TestNameRoundTrip(t *testing.T) {
	names := []string{
		".", "nl.", "example.nl.", "www.example.net.nz.",
		"a.b.c.d.e.f.g.h.example.com.",
		strings.Repeat("x", 63) + ".nl.",
	}
	for _, name := range names {
		b, err := appendName(nil, name, nil)
		if err != nil {
			t.Fatalf("appendName(%q): %v", name, err)
		}
		got, n, err := readName(b, 0)
		if err != nil {
			t.Fatalf("readName(%q): %v", name, err)
		}
		if got != name {
			t.Errorf("round trip %q -> %q", name, got)
		}
		if n != len(b) {
			t.Errorf("readName consumed %d of %d bytes", n, len(b))
		}
	}
}

func TestNameLimits(t *testing.T) {
	if _, err := appendName(nil, strings.Repeat("x", 64)+".nl.", nil); !errors.Is(err, ErrLabelTooLong) {
		t.Errorf("64-byte label: err = %v, want ErrLabelTooLong", err)
	}
	long := strings.TrimSuffix(strings.Repeat("abcdefgh.", 40), ".") + "." // 40*9=360 wire bytes
	if _, err := appendName(nil, long, nil); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("long name: err = %v, want ErrNameTooLong", err)
	}
	if _, err := appendName(nil, "a..nl.", nil); !errors.Is(err, ErrEmptyLabel) {
		t.Errorf("empty label: err = %v, want ErrEmptyLabel", err)
	}
}

func TestCompressionPointers(t *testing.T) {
	comp := newNameCompressorAt(0)
	b, err := appendName(nil, "www.example.nl.", comp)
	if err != nil {
		t.Fatal(err)
	}
	first := len(b)
	b, err = appendName(b, "mail.example.nl.", comp)
	if err != nil {
		t.Fatal(err)
	}
	// The second name should be shorter than its uncompressed form
	// (5 bytes "mail" label + 2-byte pointer = 7 < 17).
	if len(b)-first >= 17 {
		t.Errorf("compression not applied: second name took %d bytes", len(b)-first)
	}
	got1, n1, err := readName(b, 0)
	if err != nil || got1 != "www.example.nl." {
		t.Fatalf("first name: %q, %v", got1, err)
	}
	if n1 != first {
		t.Fatalf("first name consumed %d, want %d", n1, first)
	}
	got2, n2, err := readName(b, first)
	if err != nil || got2 != "mail.example.nl." {
		t.Fatalf("second name: %q, %v", got2, err)
	}
	if n2 != len(b) {
		t.Fatalf("second name consumed to %d, want %d", n2, len(b))
	}
}

func TestReadNameRejectsPointerLoop(t *testing.T) {
	// Pointer at offset 2 pointing to offset 0, which points to itself.
	msg := []byte{0xC0, 0x00}
	if _, _, err := readName(msg, 0); err == nil {
		t.Error("self-pointer accepted")
	}
	// Forward pointer.
	msg = []byte{0xC0, 0x04, 0, 0, 1, 'a', 0}
	if _, _, err := readName(msg, 0); !errors.Is(err, ErrBadPointer) {
		t.Errorf("forward pointer: err = %v, want ErrBadPointer", err)
	}
}

func TestReadNameTruncated(t *testing.T) {
	cases := [][]byte{
		{},            // nothing
		{3, 'a', 'b'}, // label runs past end
		{0xC0},        // half a pointer
		{2, 'a', 'b'}, // missing terminator
	}
	for i, msg := range cases {
		if _, _, err := readName(msg, 0); err == nil {
			t.Errorf("case %d: truncated name accepted", i)
		}
	}
}

func TestReadNameLowercases(t *testing.T) {
	b, err := appendName(nil, "WWW.EXAMPLE.NL", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := readName(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != "www.example.nl." {
		t.Errorf("got %q", got)
	}
}

// randomName generates a syntactically valid random DNS name.
func randomName(r *rand.Rand) string {
	labels := 1 + r.Intn(5)
	parts := make([]string, labels)
	for i := range parts {
		n := 1 + r.Intn(12)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte('a' + r.Intn(26))
		}
		parts[i] = string(b)
	}
	return strings.Join(parts, ".") + "."
}

func TestPropertyNameRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		name := randomName(r)
		b, err := appendName(nil, name, nil)
		if err != nil {
			return false
		}
		got, n, err := readName(b, 0)
		return err == nil && got == name && n == len(b)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyParentIsSubdomainInverse(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		name := randomName(r)
		return IsSubdomain(name, ParentName(name))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestValidateName(t *testing.T) {
	if err := ValidateName("example.nl."); err != nil {
		t.Errorf("valid name rejected: %v", err)
	}
	if err := ValidateName(strings.Repeat("y", 70) + "."); err == nil {
		t.Error("oversized label accepted")
	}
}
