package dnswire

import (
	"errors"
	"testing"
)

func TestViewQueryFields(t *testing.T) {
	m := NewQuery(0xBEEF, "WWW.Example.NL", TypeAAAA).WithEdns(1232, true)
	b, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var v View
	if err := v.Reset(b); err != nil {
		t.Fatal(err)
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if rd := unpackFlags(v.flags()).RecursionDesired; v.ID() != 0xBEEF || v.Response() || !rd {
		t.Fatalf("header fields: id=%#x qr=%v rd=%v", v.ID(), v.Response(), rd)
	}
	if v.QDCount() != 1 || v.ARCount() != 1 {
		t.Fatalf("counts: qd=%d ar=%d", v.QDCount(), v.ARCount())
	}
	name, qtype, qclass, err := v.Question(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(name) != "www.example.nl." || qtype != TypeAAAA || qclass != ClassIN {
		t.Fatalf("question: %q %v %v", name, qtype, qclass)
	}
	info, ok, err := v.EDNS()
	if err != nil || !ok {
		t.Fatalf("EDNS: ok=%v err=%v", ok, err)
	}
	if info.UDPSize != 1232 || !info.DO || info.Version != 0 {
		t.Fatalf("EDNS fields: %+v", info)
	}
}

func TestViewQuestionScratchReuse(t *testing.T) {
	b1, _ := NewQuery(1, "first.example.nl.", TypeA).Pack()
	b2, _ := NewQuery(2, "second.example.nz.", TypeNS).Pack()
	var v View
	scratch := make([]byte, 0, 256)
	if err := v.Reset(b1); err != nil {
		t.Fatal(err)
	}
	name, _, _, err := v.Question(scratch[:0])
	if err != nil || string(name) != "first.example.nl." {
		t.Fatalf("first question: %q err=%v", name, err)
	}
	if err := v.Reset(b2); err != nil {
		t.Fatal(err)
	}
	name, _, _, err = v.Question(scratch[:0])
	if err != nil || string(name) != "second.example.nz." {
		t.Fatalf("second question after reuse: %q err=%v", name, err)
	}
}

func TestViewNoQuestion(t *testing.T) {
	b, err := (&Message{}).Pack()
	if err != nil {
		t.Fatal(err)
	}
	var v View
	if err := v.Reset(b); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := v.Question(nil); !errors.Is(err, ErrNoQuestion) {
		t.Fatalf("Question on empty section: %v", err)
	}
	if _, ok, err := v.EDNS(); ok || err != nil {
		t.Fatalf("EDNS on bare header: ok=%v err=%v", ok, err)
	}
}

func TestViewRejectsWhatUnpackRejects(t *testing.T) {
	cases := [][]byte{
		nil,                                  // empty
		make([]byte, 11),                     // short header
		{0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0}, // counts exceed size
		// Valid query with trailing garbage.
		func() []byte {
			b, _ := NewQuery(3, "x.nl.", TypeA).Pack()
			return append(b, 0xFF)
		}(),
	}
	for i, data := range cases {
		if _, err := Unpack(data); err == nil {
			t.Fatalf("case %d: Unpack unexpectedly accepted", i)
		}
		var v View
		err := v.Reset(data)
		if err == nil {
			err = v.Validate()
		}
		if err == nil {
			t.Fatalf("case %d: View unexpectedly accepted", i)
		}
	}
}

// TestRDataBoundsRegression pins the fix for two crash bugs: NSEC and
// RRSIG rdata whose embedded name decodes past the declared RDLENGTH used
// to panic with a slice-bounds violation in parseRData. Both parsers must
// reject these messages instead.
func TestRDataBoundsRegression(t *testing.T) {
	nsec := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
		0, 0, 47, 0, 1, 0, 0, 0, 0, 0, 1, 1, 'a', 0}
	rrsig := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
		0, 0, 46, 0, 1, 0, 0, 0, 0, 0, 19,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'a', 0}
	for name, data := range map[string][]byte{"NSEC": nsec, "RRSIG": rrsig} {
		if _, err := Unpack(data); !errors.Is(err, ErrTruncatedRData) {
			t.Errorf("%s: Unpack err = %v, want ErrTruncatedRData", name, err)
		}
		var v View
		err := v.Reset(data)
		if err == nil {
			err = v.Validate()
		}
		if !errors.Is(err, ErrTruncatedRData) {
			t.Errorf("%s: View err = %v, want ErrTruncatedRData", name, err)
		}
	}
}

// TestViewQuestionEnd pins the question-boundary offset the recursor's
// truncation path clips at: header + qname wire form + qtype + qclass.
func TestViewQuestionEnd(t *testing.T) {
	q := NewQuery(1, "www.d5.nl.", TypeA)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var v View
	if err := v.Reset(wire); err != nil {
		t.Fatal(err)
	}
	end, err := v.QuestionEnd()
	if err != nil {
		t.Fatal(err)
	}
	// 3www 2d5 2nl root = 11 name bytes, +4 fixed, +12 header.
	if want := HeaderLen + 11 + 4; end != want {
		t.Fatalf("QuestionEnd = %d, want %d", end, want)
	}
	// The prefix up to QuestionEnd must itself be a well-formed
	// zero-record message once the counts say so.
	if end > len(wire) {
		t.Fatalf("QuestionEnd %d beyond message length %d", end, len(wire))
	}

	// With EDNS the OPT sits after the question: same boundary.
	q.WithEdns(1232, true)
	wire, err = q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Reset(wire); err != nil {
		t.Fatal(err)
	}
	end2, err := v.QuestionEnd()
	if err != nil {
		t.Fatal(err)
	}
	if end2 != end {
		t.Fatalf("QuestionEnd with OPT = %d, want %d", end2, end)
	}
}
