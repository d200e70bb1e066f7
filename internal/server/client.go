package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"droidracer/internal/obs"
)

// Client submits traces to a racedetd ingestion endpoint, retrying
// retryable refusals (429/503, transport errors, 5xx) with jittered
// exponential backoff that honors Retry-After when the server sends one.
// The idempotency key is content-derived, so it is identical across
// attempts by construction — a retry of an accepted-but-unanswered
// submission coalesces server-side instead of duplicating work.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:7333".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// MaxAttempts bounds submission attempts (default 5).
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff (default 200ms), used
	// when the server sends no Retry-After.
	BaseBackoff time.Duration
	// Seed makes the jitter deterministic for tests (0 = fixed default
	// stream; callers wanting per-process variation pass their own).
	Seed int64
	// Deadline, when positive, is sent as X-Analysis-Deadline.
	Deadline time.Duration
	// ClientID, when set, is sent as X-Client-ID (the rate-limit
	// principal).
	ClientID string
	// RetryableStatus decides which HTTP status codes are worth another
	// attempt. Nil uses the default: 429, every 5xx, and anything below
	// 400. The gateway overrides it to 5xx-only so a backend's 429 (with
	// its honest Retry-After) passes through to the submitting client
	// instead of stalling a forward.
	RetryableStatus func(code int) bool
	// Sleep replaces the interruptible backoff pause in tests.
	Sleep func(time.Duration)
	// Traceparent, when set, is sent as the W3C traceparent header on
	// every attempt, marking the submission's distributed trace sampled
	// (kept by every process it crosses). Mint one with
	// obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()}.
	Traceparent string
}

// Attempt records one submission attempt for diagnostics: the status
// code (0 for a transport error), the structured rejection reason the
// server sent, the transport error if any, and the backoff actually
// slept before the next attempt (0 on the terminal attempt).
type Attempt struct {
	Code   int
	Reason string
	Err    error
	Wait   time.Duration
}

// Submit posts body to /v1/jobs until it gets a terminal answer.
// Terminal: 200/202 (resp, nil), 422 quarantined (resp, nil — the
// caller inspects Status), and client errors 400/404/413 (resp, error).
// Everything else retries. The returned attempts describe the retry
// history.
func (c *Client) Submit(ctx context.Context, body []byte) (*SubmitResponse, []Attempt, error) {
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	max := c.MaxAttempts
	if max < 1 {
		max = 5
	}
	base := c.BaseBackoff
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	retryable := c.RetryableStatus
	if retryable == nil {
		retryable = func(code int) bool {
			return code == http.StatusTooManyRequests || code < 400 || code >= 500
		}
	}
	rng := rand.New(rand.NewSource(c.Seed))
	key := IdempotencyKey(body)
	var history []Attempt
	for attempt := 1; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			c.BaseURL+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return nil, history, err
		}
		req.Header.Set("Content-Type", "text/plain")
		req.Header.Set("Idempotency-Key", key)
		if c.Deadline > 0 {
			req.Header.Set(DeadlineHeader, c.Deadline.String())
		}
		if c.ClientID != "" {
			req.Header.Set("X-Client-ID", c.ClientID)
		}
		if c.Traceparent != "" {
			req.Header.Set(obs.TraceparentHeader, c.Traceparent)
		}
		resp, code, retryAfter, err := doSubmit(hc, req)
		at := Attempt{Code: code, Err: err}
		if resp != nil {
			at.Reason = resp.Reason
		}
		switch {
		case err == nil && (code == http.StatusOK || code == http.StatusAccepted ||
			code == http.StatusUnprocessableEntity):
			history = append(history, at)
			return resp, history, nil
		case err == nil && !retryable(code):
			history = append(history, at)
			return resp, history, fmt.Errorf("server: rejected (%d %s)", code, at.Reason)
		}
		// Retryable: a refused status (429, 503, other 5xx by default) or
		// a transport error.
		if attempt >= max {
			history = append(history, at)
			if err != nil {
				return nil, history, fmt.Errorf("server: %d attempts failed: %w", max, err)
			}
			return resp, history, fmt.Errorf("server: still refused after %d attempts (%d)", max, code)
		}
		wait := retryAfter
		if wait <= 0 {
			// Exponential backoff with full jitter: base·2^(n-1) scaled by
			// a uniform draw, so a burst of retrying clients decorrelates.
			exp := base << (attempt - 1)
			wait = time.Duration(rng.Float64() * float64(exp))
			if wait < base/4 {
				wait = base / 4
			}
		}
		at.Wait = wait
		history = append(history, at)
		if c.Sleep != nil {
			c.Sleep(wait)
			continue
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, history, ctx.Err()
		}
	}
}

// doSubmit performs one attempt, decoding the JSON body and Retry-After.
func doSubmit(hc *http.Client, req *http.Request) (*SubmitResponse, int, time.Duration, error) {
	httpResp, err := hc.Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	defer httpResp.Body.Close()
	var resp SubmitResponse
	if derr := json.NewDecoder(httpResp.Body).Decode(&resp); derr != nil {
		return nil, httpResp.StatusCode, 0, nil
	}
	retryAfter := time.Duration(0)
	if h := httpResp.Header.Get("Retry-After"); h != "" {
		if secs, perr := strconv.Atoi(h); perr == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	return &resp, httpResp.StatusCode, retryAfter, nil
}

// Status fetches the index entry for a job ID. Unknown jobs return
// status "unknown" with a nil error.
func (c *Client) Status(ctx context.Context, id string) (*SubmitResponse, error) {
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	httpResp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	var resp SubmitResponse
	if derr := json.NewDecoder(httpResp.Body).Decode(&resp); derr != nil {
		return nil, fmt.Errorf("server: decoding status: %w", derr)
	}
	return &resp, nil
}
