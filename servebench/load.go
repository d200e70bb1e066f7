package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"droidracer/internal/obs"
	"droidracer/internal/server"
)

// principals spreads sends over enough X-Client-ID rate-limit principals
// that none exceeds racedetd's default 10/s token bucket at the
// workloads' rates (the fastest sends about 4/s per principal).
const principals = 16

// resultTimeout bounds how long the harness waits for a job's durable
// report before counting it as a timeout (also the HTTP client timeout).
const resultTimeout = 15 * time.Second

// request is one send: what was sent, when it was due, and what came back.
type request struct {
	b         *body
	fresh     bool
	traced    bool
	principal string
	traceID   string
	src       int           // open loop: index into warm-up then fresh bodies
	offset    time.Duration // open loop: due time relative to the window start
	due       time.Time
	handed    time.Time // when the generator released it to the senders
	sent      time.Time
	acked     time.Time
	code      int
	resp      server.SubmitResponse
	err       error
}

// client sends each request exactly once over at most conns
// connections: no retry, so a refusal is a counted failure instead of
// hidden latency.
type client struct {
	url  string
	http *http.Client
}

func newClient(url string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{url: url + "/v1/jobs", http: &http.Client{Transport: tr, Timeout: resultTimeout}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) send(r *request) {
	r.sent = time.Now()
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(r.b.data))
	if err != nil {
		r.err, r.acked = err, time.Now()
		return
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set("X-Client-ID", r.principal)
	if r.traced {
		sc := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()}
		r.traceID = sc.TraceID
		req.Header.Set(obs.TraceparentHeader, sc.Traceparent())
	}
	resp, err := c.http.Do(req)
	if err != nil {
		r.err, r.acked = err, time.Now()
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.acked = time.Now()
	r.code = resp.StatusCode
	if err == nil {
		err = json.Unmarshal(raw, &r.resp)
	}
	r.err = err
}

// plan is the open-loop schedule: rate×window Poisson arrivals over the
// window (a Poisson process conditioned on its count, so every run
// offers the same load), each a fresh body or, with probability
// dupShare, a re-send of a warm-up body or of a fresh body due at least
// dupLag earlier, whose analysis has completed by then at the
// workload's load. Arrival times and the fresh/duplicate split come from
// sched, which every run seeds alike: the spread of a Poisson draw's
// burstiness would otherwise swamp the run-to-run spread of the system
// (IQR/median 15–30% against 3–9% with a fixed draw, on 2 vCPU). Which
// completed body a duplicate re-sends comes from the run's seed. A
// request's src indexes warm-up bodies first, then fresh bodies in send
// order; bodies are attached once generated. It returns the schedule and
// its number of fresh sends.
func plan(sched, rng *rand.Rand, nWarm int, rate, dupShare float64, dupLag, window time.Duration, traced bool) ([]*request, int) {
	offsets := make([]time.Duration, int(rate*window.Seconds()))
	dup := make([]bool, len(offsets))
	for i := range offsets {
		offsets[i] = time.Duration(sched.Int63n(int64(window)))
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	for i := range dup {
		dup[i] = dupShare > 0 && sched.Float64() < dupShare
	}
	reqs := make([]*request, 0, len(offsets))
	var freshOffsets []time.Duration
	eligible := 0 // fresh sends due at least dupLag before the current one
	for i, t := range offsets {
		r := &request{offset: t, fresh: !dup[i], traced: traced && i%2 == 0,
			principal: fmt.Sprintf("servebench-%d", i%principals)}
		if dup[i] {
			for eligible < len(freshOffsets) && freshOffsets[eligible]+dupLag <= t {
				eligible++
			}
			r.src = rng.Intn(nWarm + eligible)
		} else {
			r.src = nWarm + len(freshOffsets)
			freshOffsets = append(freshOffsets, t)
		}
		reqs = append(reqs, r)
	}
	return reqs, len(freshOffsets)
}

// openLoop sends reqs at their due offsets from start, each timed from
// its due time: a send that waits for one of the conns connections is
// late, and that lateness is part of its latency.
func openLoop(c *client, reqs []*request, start time.Time, conns int, col *collector) {
	for _, r := range reqs {
		r.due = start.Add(r.offset)
	}
	ch := make(chan *request, len(reqs)) // sized to the number of sends: the dispatcher never blocks
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range ch {
				c.send(r)
				col.add(r)
			}
		}()
	}
	for _, r := range reqs {
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		r.handed = time.Now()
		ch <- r
	}
	close(ch)
	wg.Wait()
}

// closedLoop runs clients that each submit the next fresh body, wait for
// its durable report, and repeat until the bodies run out.
func closedLoop(c *client, st *stack, bodies []*body, clients int, col *collector) []*request {
	var (
		next atomic.Int64
		mu   sync.Mutex
		reqs []*request
		wg   sync.WaitGroup
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(bodies) {
					return
				}
				r := &request{b: bodies[k], fresh: true, traced: col != nil && k%2 == 0,
					principal: fmt.Sprintf("servebench-%d", k%principals)}
				done := st.waiter(r.b.key)
				r.due = time.Now()
				r.handed = r.due
				c.send(r)
				if r.err == nil && r.code == http.StatusAccepted {
					select {
					case <-done:
					case <-time.After(resultTimeout):
					}
				}
				col.add(r)
				mu.Lock()
				reqs = append(reqs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return reqs
}

// awaitResults waits until every accepted fresh send has a durable
// report, or until the deadline.
func awaitResults(st *stack, reqs []*request, deadline time.Time) {
	for _, r := range reqs {
		if r.err != nil || r.code != http.StatusAccepted {
			continue
		}
		select {
		case <-st.waiter(r.b.key):
		case <-time.After(time.Until(deadline)):
			return
		}
	}
}

// outcome is one request judged against its reference.
type outcome struct {
	r        *request
	ok       bool
	mismatch bool
	reason   string
	accept   time.Duration
	result   time.Duration
	resultAt time.Time
	fin      finish
	hasFin   bool
}

// judge decides one request's fate. Fresh work's terminal answer is the
// backend pool's OnFinish (after the journal fsync); a duplicate's is
// its 200 answer. Refusals, transport errors, timeouts, degraded or
// quarantined results and digest mismatches all fail it.
func judge(st *stack, r *request) outcome {
	o := outcome{r: r}
	switch {
	case r.err != nil:
		o.reason = "transport"
		return o
	case statusOK(r.code):
		o.accept = r.acked.Sub(r.due)
	default:
		o.reason = fmt.Sprintf("refused-%d", r.code)
		if r.resp.Reason != "" {
			o.reason = r.resp.Reason
		}
		return o
	}
	if r.code == http.StatusOK && r.resp.Status == server.StatusDone {
		o.resultAt = r.acked
		o.result = o.accept
		return check(o, r.resp.Mode, r.resp.Digest, r.resp.Races)
	}
	f, ok := st.finishOf(r.b.key)
	if !ok {
		o.reason = "timeout"
		return o
	}
	o.fin, o.hasFin = f, true
	o.resultAt = f.at
	if !r.fresh && f.at.Before(r.acked) {
		// A coalesced duplicate whose original finished while this send
		// was in flight: its answer existed once the 202 arrived.
		o.resultAt = r.acked
	}
	o.result = o.resultAt.Sub(r.due)
	return check(o, f.mode, f.digest, f.races)
}

// refused reports whether the server or gateway turned the send away
// (any non-2xx answer).
func (o outcome) refused() bool { return o.r.err == nil && !statusOK(o.r.code) }

func statusOK(code int) bool { return code == http.StatusOK || code == http.StatusAccepted }

func check(o outcome, mode, digest string, races int) outcome {
	switch {
	case mode != "full":
		o.reason = "mode-" + mode
	case digest != o.r.b.digest || races != o.r.b.races:
		o.reason = "digest-mismatch"
		o.mismatch = true
	default:
		o.ok = true
	}
	return o
}
