package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

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
// Kind each parses to and its argument count. post, postf and postd all
// parse to OpPost; the name picks a front or delayed post.
var opcodes = map[string]struct {
	kind  Kind
	arity int
}{
	"threadinit": {OpThreadInit, 1}, "threadexit": {OpThreadExit, 1},
	"attachQ": {OpAttachQ, 1}, "loopOnQ": {OpLoopOnQ, 1},
	"fork": {OpFork, 2}, "join": {OpJoin, 2},
	"post": {OpPost, 3}, "postf": {OpPost, 3}, "postd": {OpPost, 4},
	"begin": {OpBegin, 2}, "end": {OpEnd, 2}, "enable": {OpEnable, 2}, "cancel": {OpCancel, 2},
	"acquire": {OpAcquire, 2}, "release": {OpRelease, 2},
	"read": {OpRead, 2}, "write": {OpWrite, 2},
}

// maxArity is the largest argument count in opcodes (postd's).
const maxArity = 4

// ParseOp parses a single operation in its textual form.
func ParseOp(s string) (Op, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return Op{}, fmt.Errorf("malformed operation %q", clip(s))
	}
	name := s[:open]
	oc, known := opcodes[name]
	if !known {
		return Op{}, fmt.Errorf("unknown opcode %q", clip(name))
	}
	list := s[open+1 : len(s)-1]
	if n := strings.Count(list, ",") + 1; n != oc.arity {
		return Op{}, fmt.Errorf("%s: want %d arguments, got %d in %q", name, oc.arity, n, clip(s))
	}
	var args [maxArity]string
	for i := 0; i < oc.arity-1; i++ {
		comma := strings.IndexByte(list, ',')
		args[i], list = strings.TrimSpace(list[:comma]), list[comma+1:]
	}
	args[oc.arity-1] = strings.TrimSpace(list)
	// Names (tasks, locks, locations) must be non-empty, or formatting
	// the operation would not round-trip.
	nonEmpty := func(what string) error {
		if args[1] == "" {
			return fmt.Errorf("%s: empty %s name in %q", name, what, clip(s))
		}
		return nil
	}
	thr, err := parseThread(args[0])
	if err != nil {
		return Op{}, fmt.Errorf("%s: %w", name, err)
	}
	op := Op{Kind: oc.kind, Thread: thr}
	switch oc.kind {
	case OpFork, OpJoin:
		if op.Other, err = parseThread(args[1]); err != nil {
			return Op{}, fmt.Errorf("%s: %w", name, err)
		}
	case OpPost:
		if err := nonEmpty("task"); err != nil {
			return Op{}, err
		}
		op.Task = TaskID(args[1])
		if op.Other, err = parseThread(args[2]); err != nil {
			return Op{}, fmt.Errorf("%s: %w", name, err)
		}
		op.Front = name == "postf"
		if name == "postd" {
			op.Delayed = true
			if op.Delay, err = strconv.ParseInt(args[3], 10, 64); err != nil || op.Delay < 0 {
				return Op{}, fmt.Errorf("postd: bad delay %q", args[3])
			}
		}
	case OpBegin, OpEnd, OpEnable, OpCancel:
		if err := nonEmpty("task"); err != nil {
			return Op{}, err
		}
		op.Task = TaskID(args[1])
	case OpAcquire, OpRelease:
		if err := nonEmpty("lock"); err != nil {
			return Op{}, err
		}
		op.Lock = LockID(args[1])
	case OpRead, OpWrite:
		if err := nonEmpty("location"); err != nil {
			return Op{}, err
		}
		op.Loc = Loc(args[1])
	}
	return op, nil
}

func parseThread(s string) (ThreadID, error) {
	if len(s) < 2 || s[0] != 't' {
		return 0, fmt.Errorf("bad thread id %q", clip(s))
	}
	n, err := strconv.ParseInt(s[1:], 10, 32)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad thread id %q", clip(s))
	}
	return ThreadID(n), nil
}
