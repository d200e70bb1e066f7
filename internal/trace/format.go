package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"droidracer/internal/obs"
)

// Format writes tr to w in the textual trace format, one operation per
// line, e.g.:
//
//	threadinit(t1)
//	attachQ(t1)
//	loopOnQ(t1)
//	post(t0,LAUNCH_ACTIVITY,t1)
//
// Lines beginning with '#' and blank lines are ignored by Parse, so traces
// may be annotated by hand.
func Format(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	for _, op := range tr.Ops() {
		if _, err := fmt.Fprintln(bw, op.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Parse reads a trace in the textual format produced by Format. It
// streams from r line by line — memory is proportional to the parsed
// operations plus one line buffer, never to the input size — so a
// long-running daemon can parse multi-gigabyte spooled traces without
// first loading them into memory.
func Parse(r io.Reader) (*Trace, error) {
	return parseInto(&Trace{}, r)
}

func parseInto(tr *Trace, r io.Reader) (*Trace, error) {
	sp := time.Now()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		// Only operation lines become strings, one each; the op's
		// names are substrings of it.
		op, err := ParseOp(string(line))
		if err != nil {
			parseErrors.Inc()
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		tr.Append(op)
	}
	if err := sc.Err(); err != nil {
		parseErrors.Inc()
		if err == bufio.ErrTooLong {
			return nil, fmt.Errorf("line %d: line exceeds the %d-byte limit", lineno+1, 16*1024*1024)
		}
		return nil, fmt.Errorf("line %d: %w", lineno+1, err)
	}
	if obs.ExporterAttached() {
		parseOps.Add(tr.Len())
		parseTraces.Inc()
		parseDur.ObserveDuration(time.Since(sp))
	}
	return tr, nil
}

// SizeError reports a declared-size directive that the input cannot
// possibly back: the declared operation count, times the smallest
// encodable operation line, exceeds the bytes actually present. It is
// the typed signal the admission layer turns into a 422 — the declared
// size must never be trusted into an allocation first.
type SizeError struct {
	// Declared is the operation count the directive claimed.
	Declared int
	// InputBytes is the size of the input carrying the claim.
	InputBytes int
	// Max is the largest operation count InputBytes could encode.
	Max int
}

// Error implements error.
func (e *SizeError) Error() string {
	return fmt.Sprintf("trace: directive declares %d ops but %d input bytes can hold at most %d",
		e.Declared, e.InputBytes, e.Max)
}

// minOpBytes is the smallest textual encoding of one operation plus its
// newline — shorter than any real op line ("read(t0,x)\n" is 11 bytes) —
// used to bound what a declared operation count may claim.
const minOpBytes = 8

// DeclaredOps extracts the optional size directive from the head of a
// textual trace: a first non-blank line of the form
//
//	#! ops=N
//
// declaring the operation count so parsers can preallocate. The line
// starts with '#', so parsers without directive support skip it as a
// comment. The declared count is validated against the input length
// before anyone allocates from it: a count the remaining bytes cannot
// possibly encode returns a *SizeError, and a directive that fails to
// parse returns a plain error — both refuse the input instead of
// trusting it into gigabytes of Op slots. Returns 0 with no error when
// no directive is present.
func DeclaredOps(data []byte) (int, error) {
	rest := data
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		line := rest
		if nl >= 0 {
			line = rest[:nl]
			rest = rest[nl+1:]
		} else {
			rest = nil
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			continue
		}
		if !bytes.HasPrefix(trimmed, []byte("#!")) {
			return 0, nil // first real line is not a directive
		}
		for _, field := range strings.Fields(string(trimmed[2:])) {
			val, ok := strings.CutPrefix(field, "ops=")
			if !ok {
				continue
			}
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return 0, fmt.Errorf("trace: bad size directive %q", clip(string(trimmed)))
			}
			if max := len(data) / minOpBytes; n > max {
				return 0, &SizeError{Declared: n, InputBytes: len(data), Max: max}
			}
			return n, nil
		}
		return 0, nil // a #! line without ops= declares nothing
	}
	return 0, nil
}

// ParseBytes parses an in-memory trace — a thin wrapper over the
// streaming Parse for callers that already hold the bytes (the
// ingestion path, fuzzers, tests, corruption operators). A
// declared-size directive (see DeclaredOps) is validated against the
// input length and then drives preallocation; a count the bytes cannot
// back is refused with a *SizeError before any allocation happens.
// Without a directive the line count sizes the operation slice, capped
// at the same bytes-per-op bound a directive must meet: blank and
// comment lines are far shorter than minOpBytes, so the raw count alone
// would let a body of bare newlines allocate ~90 bytes per input byte.
func ParseBytes(data []byte) (*Trace, error) {
	n, err := DeclaredOps(data)
	if err != nil {
		parseErrors.Inc()
		return nil, err
	}
	if n == 0 {
		n = min(bytes.Count(data, []byte{'\n'})+1, len(data)/minOpBytes)
	}
	return parseInto(New(n), bytes.NewReader(data))
}

// ParseFile opens and parses the trace at path, streaming it through
// Parse so the file is never resident in memory at once. It is the entry
// point the spool-watching daemon uses per job.
func ParseFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := Parse(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

// clip bounds how much of an offending input line an error message
// echoes; a multi-megabyte token must not become a multi-megabyte error.
func clip(s string) string {
	const max = 128
	if len(s) <= max {
		return s
	}
	return s[:max] + fmt.Sprintf("... (%d bytes)", len(s))
}

// opcodes is the one table of the textual format's opcode names: the
// Kind each parses to, its argument count, and which later argument, if
// any, is a second thread (fork/join's target, a post's destination).
// post, postf and postd all parse to OpPost; the name picks a front or
// delayed post.
var opcodes = map[string]struct {
	kind         Kind
	arity, other int
}{
	"threadinit": {OpThreadInit, 1, 0}, "threadexit": {OpThreadExit, 1, 0},
	"attachQ": {OpAttachQ, 1, 0}, "loopOnQ": {OpLoopOnQ, 1, 0},
	"fork": {OpFork, 2, 1}, "join": {OpJoin, 2, 1},
	"post": {OpPost, 3, 2}, "postf": {OpPost, 3, 2}, "postd": {OpPost, 4, 2},
	"begin": {OpBegin, 2, 0}, "end": {OpEnd, 2, 0}, "enable": {OpEnable, 2, 0}, "cancel": {OpCancel, 2, 0},
	"acquire": {OpAcquire, 2, 0}, "release": {OpRelease, 2, 0},
	"read": {OpRead, 2, 0}, "write": {OpWrite, 2, 0},
}

// maxArity is the largest argument count in opcodes (postd's).
const maxArity = 4

// opLine is one op line split by splitOp: its opcode and arguments.
type opLine struct {
	name         string
	kind         Kind
	arity, other int
	n            int // arguments present
	args         [maxArity]string
}

// splitOp's verdicts: lineOK, or the first check the line failed.
const (
	lineOK = iota
	lineMalformed
	lineUnknown
	lineArity
)

// splitOp splits an op line into l without allocating. ParseOp and
// ScanOp both start here, so the parser and the admission estimator
// read every line the same way.
func splitOp(s string, l *opLine) (fault int) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return lineMalformed
	}
	l.name = s[:open]
	oc, known := opcodes[l.name]
	if !known {
		return lineUnknown
	}
	l.kind, l.arity, l.other = oc.kind, oc.arity, oc.other
	list := s[open+1 : len(s)-1]
	if l.n = strings.Count(list, ",") + 1; l.n != l.arity {
		return lineArity
	}
	for i := 0; i < l.arity-1; i++ {
		comma := strings.IndexByte(list, ',')
		l.args[i], list = strings.TrimSpace(list[:comma]), list[comma+1:]
	}
	l.args[l.arity-1] = strings.TrimSpace(list)
	return lineOK
}

// head reads the line's kind, threads and post flavour — everything but
// names and the delay — without allocating; ok is false on a bad
// thread ID.
func (l *opLine) head() (op Op, ok bool) {
	op = Op{Kind: l.kind, Front: l.name == "postf", Delayed: l.name == "postd"}
	op.Thread, ok = threadID(l.args[0])
	if ok && l.other > 0 {
		op.Other, ok = threadID(l.args[l.other])
	}
	return op, ok
}

// ParseOp parses a single operation in its textual form.
func ParseOp(s string) (Op, error) {
	var l opLine
	switch splitOp(s, &l) {
	case lineMalformed:
		return Op{}, fmt.Errorf("malformed operation %q", clip(s))
	case lineUnknown:
		return Op{}, fmt.Errorf("unknown opcode %q", clip(l.name))
	case lineArity:
		return Op{}, fmt.Errorf("%s: want %d arguments, got %d in %q", l.name, l.arity, l.n, clip(s))
	}
	name, args := l.name, &l.args
	op, ok := l.head()
	if !ok {
		return Op{}, fmt.Errorf("%s: bad thread id in %q", name, clip(s))
	}
	what := ""
	switch op.Kind {
	case OpPost, OpBegin, OpEnd, OpEnable, OpCancel:
		op.Task, what = TaskID(args[1]), "task"
	case OpAcquire, OpRelease:
		op.Lock, what = LockID(args[1]), "lock"
	case OpRead, OpWrite:
		op.Loc, what = Loc(args[1]), "location"
	}
	// Names (tasks, locks, locations) must be non-empty, or formatting
	// the operation would not round-trip.
	if what != "" && args[1] == "" {
		return Op{}, fmt.Errorf("%s: empty %s name in %q", name, what, clip(s))
	}
	if op.Delayed {
		var err error
		if op.Delay, err = strconv.ParseInt(args[3], 10, 64); err != nil || op.Delay < 0 {
			return Op{}, fmt.Errorf("postd: bad delay %q", args[3])
		}
	}
	return op, nil
}

// ScanOp reads one op line's Kind, Thread, Other, Front and Delayed as
// ParseOp would, without allocating, leaving names and the delay unset;
// ok is false when ParseOp would reject the opcode, argument count or a
// thread. Admission prices bodies with it, so it and the parser never
// disagree about which threads a line names.
func ScanOp(line []byte) (op Op, ok bool) {
	// A read-only view: nothing ScanOp returns refers to the line.
	var l opLine
	if splitOp(unsafe.String(unsafe.SliceData(line), len(line)), &l) != lineOK {
		return Op{}, false
	}
	return l.head()
}

// threadID reads a thread argument — "t", then a non-negative number as
// strconv.ParseInt(_, 10, 32) accepts it: an optional sign and decimal
// digits — without allocating on any input.
func threadID(s string) (ThreadID, bool) {
	if len(s) < 2 || s[0] != 't' {
		return 0, false
	}
	num, neg := s[1:], s[1] == '-'
	if neg || s[1] == '+' {
		num = num[1:]
	}
	var n int64
	for i := 0; i < len(num); i++ {
		if num[i] < '0' || num[i] > '9' || n > math.MaxInt32 {
			return 0, false
		}
		n = n*10 + int64(num[i]-'0')
	}
	return ThreadID(n), num != "" && n <= math.MaxInt32 && (!neg || n == 0)
}
