// Command droidracer runs the full DroidRacer pipeline on one application
// model: systematic UI exploration, trace generation, happens-before
// analysis, race detection, classification, and optional reorder-replay
// verification of each reported race (the paper's true-positive check).
//
// Usage:
//
//	droidracer -app "Music Player" [-k 2] [-max-tests 12] [-verify] [-v]
//	           [-deadline 30s] [-retries 2]
//	droidracer -list
//
// With -deadline both exploration and per-test analysis are budgeted;
// a test whose analysis fails or runs out of budget is reported and
// skipped instead of aborting the run. -retries adds seeded
// retry-with-backoff rounds to -verify.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"droidracer"
	"droidracer/internal/apps"
	"droidracer/internal/explorer"
	"droidracer/internal/race"
)

func main() {
	appName := flag.String("app", "", "application model to test (see -list)")
	k := flag.Int("k", 0, "event-sequence bound (0 = the app's default)")
	maxTests := flag.Int("max-tests", 0, "cap on explored tests (0 = the app's default)")
	verify := flag.Bool("verify", false, "attempt reorder-replay verification of each reported race")
	attempts := flag.Int("attempts", 60, "verification attempts per race and round")
	retries := flag.Int("retries", 0, "extra verification rounds with backoff after an unconfirmed first round")
	deadline := flag.Duration("deadline", 0, "wall-clock budget for exploration and for each test's analysis (0 = unlimited)")
	verbose := flag.Bool("v", false, "print every explored test")
	list := flag.Bool("list", false, "list available application models")
	flag.Parse()

	if *list {
		for _, name := range apps.Names() {
			fmt.Println(name)
		}
		return
	}
	if *appName == "" {
		fatal(fmt.Errorf("missing -app (use -list to see models)"))
	}
	app, err := apps.New(*appName)
	if err != nil {
		fatal(err)
	}
	opts := app.Explore()
	if *k > 0 {
		opts.MaxEvents = *k
	}
	if *maxTests > 0 {
		opts.MaxTests = *maxTests
	}
	opts.Budget = droidracer.Budget{Wall: *deadline}
	factory := apps.Factory(app)
	res, err := explorer.ExploreContext(context.Background(), factory, opts)
	if err != nil {
		if _, ok := droidracer.AsBudgetError(err); !ok || res == nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "droidracer: %v; analyzing the %d tests explored so far\n", err, len(res.Tests))
	}
	fmt.Printf("%s: %d tests explored (%d sequences, %d events fired)\n",
		app.Name(), len(res.Tests), res.SequencesExplored, res.EventsFired)

	policy := droidracer.DefaultRetryPolicy(*attempts)
	policy.Retries = *retries

	type key struct {
		loc string
		cat race.Category
	}
	reported := map[key]bool{}
	failed := 0
	aopts := droidracer.DefaultOptions()
	aopts.Budget = droidracer.Budget{Wall: *deadline}
	for _, test := range res.Tests {
		result, err := droidracer.AnalyzeContext(context.Background(), test.Trace, aopts)
		if err != nil {
			// One bad test fails its own row, not the whole run.
			failed++
			fmt.Fprintf(os.Stderr, "droidracer: test %s: %v (skipped)\n", test.Name(), err)
			continue
		}
		if *verbose {
			fmt.Printf("  test %-40s %6d ops, %d race(s)\n", test.Name(), test.Trace.Len(), len(result.Races))
		}
		for _, r := range result.Races {
			kk := key{string(r.Loc), r.Category}
			if reported[kk] {
				continue
			}
			reported[kk] = true
			fmt.Printf("  %-13s race on %-40s (test %s)\n", r.Category, r.Loc, test.Name())
			if *verify && result.Info != nil {
				v, err := droidracer.VerifyRaceWithRetry(factory, test.Sequence, result.Info, r, policy)
				if err != nil {
					fmt.Fprintf(os.Stderr, "droidracer: verify %s: %v\n", r.Loc, err)
					continue
				}
				if v.Confirmed {
					fmt.Printf("                CONFIRMED: reordered under seed %d (%d attempts, %d round(s))\n", v.Seed, v.Attempts, v.Rounds)
				} else {
					fmt.Printf("                unconfirmed after %d attempts in %d round(s) (possible false positive)\n", v.Attempts, v.Rounds)
				}
			}
		}
	}
	fmt.Printf("%d distinct race report(s)\n", len(reported))
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "droidracer: %d test(s) failed analysis\n", failed)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "droidracer:", err)
	os.Exit(1)
}
