package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"droidracer/internal/core"
	"droidracer/internal/flood"
	"droidracer/internal/jobs"
	"droidracer/internal/storage"
	"droidracer/internal/trace"
)

// body is one generated submission with its reference answer, computed
// outside the timed window by an independent analysis under the same
// resolved options the backends run with.
type body struct {
	app    string
	data   []byte
	key    string
	digest string
	races  int
}

// smallApps are the Table 2 models behind the ~50–300 KB ingest traces.
var smallApps = []string{"Music Player", "Aard Dictionary", "Messenger"}

// largeMix is the analyze-large cycle: representative-size replays
// (0.3–4.4 MB) of several Table 2 models, K-9 Mail's closure-heavy shape
// among them. Repeats weight the mix so the median and the tail rank fall
// inside one model's latency band rather than on the edge between two,
// which would make them jump between runs. The heaviest models come
// first and the lightest last, so the clients of a closed loop over whole
// cycles finish close together instead of one idling through K-9 Mail.
var largeMix = []string{
	"K-9 Mail", "Flipkart", "Flipkart", "Tomdroid Notes",
	"SGTPuzzles", "Adobe Reader", "Adobe Reader", "Adobe Reader",
	"OpenSudoku", "Browser",
}

// generate builds n distinct bodies for positions from..from+n-1 of the
// cycle over mix. Position i is the two-click flood.BuildCorpus replay of
// mix[i%len(mix)] under a replay seed drawn upward from base+i·64: the
// same size as the app's representative test, and a distinct trace (and
// idempotency key) per seed. A seed whose trace repeats a key already in
// seen moves on to the next seed.
func generate(mix []string, from, n int, base int64, seen map[string]bool) ([]*body, error) {
	out := make([]*body, 0, n)
	for i := from; i < from+n; i++ {
		app := mix[i%len(mix)]
		for try := int64(0); ; try++ {
			if try == 64 {
				return nil, fmt.Errorf("servebench: no distinct %s trace near seed %d", app, base+int64(i)*64)
			}
			c, err := flood.BuildCorpus([]string{app}, 1, base+int64(i)*64+try)
			if err != nil {
				return nil, err
			}
			key := storage.Key(c[0])
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, &body{app: app, data: c[0], key: key})
			break
		}
	}
	return out, nil
}

// reference fills each body's digest and race count with its own
// core.AnalyzeContext, on GOMAXPROCS goroutines. A reference that errs
// or degrades is a set-up failure: the check needs an exact answer.
func reference(bodies []*body, opts core.Options) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  = make(chan *body, len(bodies))
	)
	for _, b := range bodies {
		next <- b
	}
	close(next)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range next {
				if err := referenceOne(b, opts); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

func referenceOne(b *body, opts core.Options) error {
	tr, err := trace.ParseBytes(b.data)
	if err != nil {
		return fmt.Errorf("servebench: reference parse of %s body: %w", b.app, err)
	}
	res, err := core.AnalyzeContext(context.Background(), tr, opts)
	if err != nil {
		return fmt.Errorf("servebench: reference analysis of %s body: %w", b.app, err)
	}
	if res.Degraded {
		return fmt.Errorf("servebench: reference analysis of %s body degraded", b.app)
	}
	b.digest = jobs.ResultDigest(res)
	b.races = len(res.Races)
	return nil
}
