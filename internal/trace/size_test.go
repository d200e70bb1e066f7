package trace

import (
	"errors"
	"strings"
	"testing"
)

func TestDeclaredOps(t *testing.T) {
	body := "#! ops=3\nthreadinit(t1)\nwrite(t1,x)\nread(t1,x)\n"
	n, err := DeclaredOps([]byte(body))
	if err != nil {
		t.Fatalf("DeclaredOps: %v", err)
	}
	if n != 3 {
		t.Fatalf("declared ops = %d, want 3", n)
	}
	tr, err := ParseBytes([]byte(body))
	if err != nil {
		t.Fatalf("ParseBytes with directive: %v", err)
	}
	if tr.Len() != 3 {
		t.Fatalf("parsed %d ops, want 3", tr.Len())
	}
}

func TestDeclaredOpsAbsent(t *testing.T) {
	for _, body := range []string{
		"",
		"threadinit(t1)\n",
		"# plain comment\nthreadinit(t1)\n",
		"#! nothing relevant\nthreadinit(t1)\n", // #! without ops= declares nothing
		"\n\n  \nthreadinit(t1)\n",
	} {
		n, err := DeclaredOps([]byte(body))
		if err != nil || n != 0 {
			t.Errorf("DeclaredOps(%q) = %d, %v; want 0, nil", body, n, err)
		}
	}
}

func TestDeclaredOpsBomb(t *testing.T) {
	// A tiny body declaring a billion ops: the preallocation this aims at
	// would be gigabytes. Must come back as a typed SizeError from both
	// the directive scan and the parser, with nothing allocated.
	body := []byte("#! ops=1000000000\nthreadinit(t1)\n")
	var se *SizeError
	if _, err := DeclaredOps(body); !errors.As(err, &se) {
		t.Fatalf("DeclaredOps: got %v, want *SizeError", err)
	}
	if se.Declared != 1000000000 || se.InputBytes != len(body) {
		t.Fatalf("SizeError = %+v", se)
	}
	if se.Max >= se.Declared {
		t.Fatalf("SizeError.Max %d not below declared %d", se.Max, se.Declared)
	}
	if _, err := ParseBytes(body); !errors.As(err, &se) {
		t.Fatalf("ParseBytes: got %v, want *SizeError", err)
	}
	if !strings.Contains(se.Error(), "1000000000") {
		t.Fatalf("SizeError message lacks the declared count: %q", se.Error())
	}
}

func TestDeclaredOpsUnparsable(t *testing.T) {
	for _, body := range []string{
		"#! ops=banana\nthreadinit(t1)\n",
		"#! ops=-5\nthreadinit(t1)\n",
	} {
		_, err := DeclaredOps([]byte(body))
		if err == nil {
			t.Errorf("DeclaredOps(%q): want error", body)
		}
		var se *SizeError
		if errors.As(err, &se) {
			t.Errorf("DeclaredOps(%q): bad directive must not be a SizeError", body)
		}
	}
}

func TestParseBytesDirectiveRoundTrip(t *testing.T) {
	// The directive only drives preallocation; the parsed trace must be
	// identical with and without it.
	ops := "threadinit(t1)\nattachQ(t1)\nloopOnQ(t1)\npost(t0,A,t1)\nbegin(t1,A)\nwrite(t1,x)\nend(t1,A)\n"
	plain, err := ParseBytes([]byte(ops))
	if err != nil {
		t.Fatal(err)
	}
	declared, err := ParseBytes([]byte("#! ops=7\n" + ops))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Len() != declared.Len() {
		t.Fatalf("len mismatch: %d vs %d", plain.Len(), declared.Len())
	}
	for i, op := range plain.Ops() {
		if declared.Ops()[i] != op {
			t.Fatalf("op %d differs: %v vs %v", i, op, declared.Ops()[i])
		}
	}
	// An under-declared count is merely a bad hint, never an error.
	under, err := ParseBytes([]byte("#! ops=1\n" + ops))
	if err != nil || under.Len() != plain.Len() {
		t.Fatalf("under-declared parse: len=%d err=%v", under.Len(), err)
	}
}

func TestParseBytesLineCountHintBounded(t *testing.T) {
	// Without a directive the newline count sizes the op slice; blank and
	// comment lines must not buy more capacity than the bytes-per-op
	// bound a directive is held to.
	for name, line := range map[string]string{"newlines": "\n", "comments": "#\n"} {
		body := []byte(strings.Repeat(line, (4<<20)/len(line)))
		tr, err := ParseBytes(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tr.Len() != 0 {
			t.Fatalf("%s: parsed %d ops from an op-free body", name, tr.Len())
		}
		if c, max := cap(tr.ops), len(body)/minOpBytes; c > max {
			t.Fatalf("%s: cap(ops) = %d for %d bytes, want <= %d", name, c, len(body), max)
		}
	}
}
