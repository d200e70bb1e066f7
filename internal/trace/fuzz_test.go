package trace

import (
	"bytes"
	"strings"
	"testing"
)

// fuzzSeedOps covers every opcode once; the checked-in corpus under
// testdata/fuzz adds whole traces and mutated variants.
var fuzzSeedOps = []string{
	"threadinit(t1)",
	"threadexit(t1)",
	"attachQ(t1)",
	"loopOnQ(t1)",
	"fork(t1,t2)",
	"join(t1,t2)",
	"post(t0,LAUNCH_ACTIVITY,t1)",
	"postf(t1,onPlayClick,t1)",
	"postd(t1,tick,t1,250)",
	"begin(t1,LAUNCH_ACTIVITY)",
	"end(t1,LAUNCH_ACTIVITY)",
	"enable(t1,onPlayClick)",
	"cancel(t1,tick)",
	"acquire(t1,L)",
	"release(t1,L)",
	"read(t2,DwFileAct-obj)",
	"write(t1,DwFileAct-obj)",
}

// FuzzParseOp asserts ParseOp never panics, and that every accepted
// operation round-trips: ParseOp(op.String()) reproduces op exactly.
func FuzzParseOp(f *testing.F) {
	for _, s := range fuzzSeedOps {
		f.Add(s)
	}
	f.Add("post(t99999999999999999999,x,t1)")
	f.Add("postd(t1,x,t1,-5)")
	f.Add("read(t1,)")
	f.Add("bogus(t1)")
	f.Fuzz(func(t *testing.T, s string) {
		op, err := ParseOp(s)
		if err != nil {
			return
		}
		back, err := ParseOp(op.String())
		if err != nil {
			t.Fatalf("accepted op %q does not reparse: String()=%q: %v", s, op.String(), err)
		}
		if back != op {
			t.Fatalf("round trip changed the op: %q -> %+v -> %q -> %+v", s, op, op.String(), back)
		}
	})
}

// FuzzParse asserts Parse never panics, and that every accepted trace
// round-trips through Format byte-for-byte at the operation level.
func FuzzParse(f *testing.F) {
	f.Add([]byte(strings.Join(fuzzSeedOps, "\n")))
	f.Add([]byte("# comment\n\nthreadinit(t1)\r\nattachQ(t1)"))
	f.Add([]byte("threadinit(t1)\nthreadinit(t1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Format(&buf, tr); err != nil {
			t.Fatalf("Format failed on accepted trace: %v", err)
		}
		back, err := Parse(&buf)
		if err != nil {
			t.Fatalf("formatted trace does not reparse: %v", err)
		}
		if back.Len() != tr.Len() {
			t.Fatalf("round trip changed length: %d -> %d", tr.Len(), back.Len())
		}
		for i, op := range tr.Ops() {
			if back.Op(i) != op {
				t.Fatalf("round trip changed op %d: %+v -> %+v", i, op, back.Op(i))
			}
		}
	})
}

// FuzzScanOp asserts the admission scanner reads every line the parser
// accepts exactly as the parser does: same kind, threads and post
// flavour.
func FuzzScanOp(f *testing.F) {
	for _, s := range fuzzSeedOps {
		f.Add(s)
	}
	f.Add("fork( t2,t3)")
	f.Add("post(t+2, p1 ,t0000000001)")
	f.Add("join(t2,t-0)")
	f.Fuzz(func(t *testing.T, s string) {
		op, err := ParseOp(s)
		if err != nil {
			return
		}
		got, ok := ScanOp([]byte(s))
		want := Op{Kind: op.Kind, Thread: op.Thread, Other: op.Other, Front: op.Front, Delayed: op.Delayed}
		if !ok || got != want {
			t.Fatalf("ScanOp(%q) = %+v, %v; ParseOp read %+v", s, got, ok, want)
		}
	})
}
