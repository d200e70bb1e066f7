package main

import (
	"fmt"
	"runtime"
	"time"

	"droidracer/internal/storage"
)

// agedJobs is how many small jobs the aged stack serves before its
// measured sub-window: about what ingest-small's whole window sends, on
// one stack instead of the timed rounds' fresh ones. jobs.Pool keeps
// every finished outcome, so heap and GC work grow with jobs served;
// the timed rounds only ever see a young daemon.
const agedJobs = 400

// agedBatch bounds how many aging bodies exist at once.
const agedBatch = 64

// variant returns b with a trailing comment line. The parser skips
// comments, so the analysis and the reference answer stay b's, while
// the idempotency key is new: a stack treats the variant as fresh work.
func variant(b *body, tag string) *body {
	data := append(append([]byte(nil), b.data...), "\n# servebench "+tag+"\n"...)
	return &body{app: b.app, data: data, key: storage.Key(data), digest: b.digest, races: b.races}
}

// aged starts one more stack, has it serve agedJobs small jobs (closed
// loop on nproc connections), and then measures the last round's
// sub-window on it again with re-keyed variants of that round's bodies.
// It returns that sub-window's judged outcomes and the live heap in MiB
// at its start; neither is gated.
func (g *generator) aged(dir string, last *round) ([]outcome, float64, error) {
	conns := runtime.NumCPU()
	st, _, err := startStack(dir, g.wl.backends, g.wl.gateway)
	if err != nil {
		return nil, 0, err
	}
	defer st.stop()
	c := newClient(st.url, conns)
	defer c.close()
	// The sub-window's warm bodies are the first jobs served, so its
	// duplicates find their originals done, as in the timed rounds.
	warm := make([]*body, len(last.warm))
	for i, b := range last.warm {
		warm[i] = variant(b, "aged")
	}
	for served := 0; served < agedJobs; {
		var batch []*body
		for ; served < agedJobs && len(batch) < agedBatch; served++ {
			if served < len(warm) {
				batch = append(batch, warm[served])
			} else {
				batch = append(batch, variant(last.warm[served%len(last.warm)], fmt.Sprintf("age-%d", served)))
			}
		}
		reqs := closedLoop(c, st, batch, conns, nil)
		for _, r := range reqs {
			if o := judge(st, r); !o.ok {
				return nil, 0, fmt.Errorf("aging send of %s body failed: %s", r.b.app, o.reason)
			}
		}
	}

	fresh := make([]*body, len(last.fresh))
	for i, b := range last.fresh {
		fresh[i] = variant(b, "aged")
	}
	runtime.GC()
	var mst runtime.MemStats
	runtime.ReadMemStats(&mst)
	heap := float64(mst.HeapAlloc) / (1 << 20)
	var reqs []*request
	if g.wl.rate > 0 {
		sources := append(append([]*body(nil), warm...), fresh...)
		for _, o := range last.outs {
			p := o.r
			reqs = append(reqs, &request{b: sources[p.src], fresh: p.fresh, principal: p.principal, offset: p.offset})
		}
		openLoop(c, reqs, time.Now(), conns, nil)
		awaitResults(st, reqs, time.Now().Add(resultTimeout))
	} else {
		reqs = closedLoop(c, st, fresh, conns, nil)
	}
	outs := make([]outcome, len(reqs))
	for i, r := range reqs {
		outs[i] = judge(st, r)
	}
	return outs, heap, nil
}

// reportAged prints the aged sub-window's result latency beside the
// timed rounds' median, so the cost of a daemon's age shows.
func reportAged(aged []outcome, heapMB float64, rounds []*round) {
	var old []float64
	for _, o := range aged {
		if o.ok {
			old = append(old, ms(o.result))
		}
	}
	var young []float64
	for _, rd := range rounds {
		var xs []float64
		for _, o := range rd.outs {
			if o.ok {
				xs = append(xs, ms(o.result))
			}
		}
		young = append(young, quantile(xs, 0.5))
	}
	q, label := tailRank(len(old))
	fmt.Printf("servebench: aged.result_p50_ms = %.4f ms, aged.result_tail_ms = %.4f ms (n=%d, %s, one sub-window on a stack that first served %d jobs "+
		"and started it with %.1f MiB of live process heap; young stacks' result_p50_ms = %.4f ms; not gated)\n",
		quantile(old, 0.5), quantile(old, q), len(old), label, agedJobs, heapMB, quantile(young, 0.5))
}
