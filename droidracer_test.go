package droidracer_test

import (
	"strings"
	"testing"

	"droidracer"
)

// counterActivity is a small racy app used to exercise the public API.
type counterActivity struct {
	droidracer.BaseActivity
}

func (a *counterActivity) OnCreate(c *droidracer.Ctx) {
	c.Write("Counter.value")
	c.AddButton("inc", true, func(c *droidracer.Ctx) {
		c.Fork("worker", func(b *droidracer.Ctx) {
			// Some private work before the racy update widens the window
			// in which two workers overlap.
			b.Read("Counter.config")
			b.Read("Counter.config")
			b.Read("Counter.config")
			b.Write("Counter.value") // races with any other unsynced access
		})
	})
}

func factory(seed int64) (*droidracer.Env, error) {
	opts := droidracer.DefaultEnvOptions()
	opts.Seed = seed
	env := droidracer.NewEnv(opts)
	env.RegisterActivity("Main", func() droidracer.Activity { return &counterActivity{} })
	if err := env.Launch("Main"); err != nil {
		env.Close()
		return nil, err
	}
	return env, nil
}

func TestPublicAPIEndToEnd(t *testing.T) {
	env, err := factory(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range []droidracer.UIEvent{{Kind: droidracer.EvClick, Widget: "inc"}, {Kind: droidracer.EvClick, Widget: "inc"}} {
		if err := env.Fire(ev); err != nil {
			t.Fatal(err)
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.Shutdown(); err != nil {
		t.Fatal(err)
	}
	result, err := droidracer.Analyze(env.Trace(), droidracer.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The two worker writes race with each other (multithreaded).
	found := false
	for _, r := range result.Races {
		if r.Loc == "Counter.value" && r.Category == droidracer.Multithreaded {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected multithreaded race on Counter.value; got %v", result.Races)
	}
	rel, err := droidracer.HappensBefore(result, droidracer.DefaultHBConfig())
	if err != nil {
		t.Fatal(err)
	}
	if e := droidracer.Explain(rel, result.Races[0]).String(); !strings.Contains(e, "why:") {
		t.Fatalf("explanation without a reason:\n%s", e)
	}
}

func TestPublicAPIExplore(t *testing.T) {
	res, err := droidracer.Explore(factory, droidracer.ExploreOptions{MaxEvents: 2, MaxTests: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tests) == 0 {
		t.Fatal("no tests")
	}
	tr, err := droidracer.Replay(factory, 0, res.Tests[0].Sequence)
	if err != nil {
		t.Fatal(err)
	}
	if i, err := droidracer.ValidateTrace(tr); err != nil {
		t.Fatalf("op %d: %v", i, err)
	}
}

func TestPublicAPITraceRoundTrip(t *testing.T) {
	env, err := factory(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if err := env.Shutdown(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := droidracer.FormatTrace(&sb, env.Trace()); err != nil {
		t.Fatal(err)
	}
	back, err := droidracer.ParseTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != env.Trace().Len() {
		t.Fatalf("round trip %d ops, want %d", back.Len(), env.Trace().Len())
	}
	if _, err := droidracer.Analyze(back, droidracer.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIVerifyRace(t *testing.T) {
	env, err := factory(0)
	if err != nil {
		t.Fatal(err)
	}
	seq := []droidracer.UIEvent{{Kind: droidracer.EvClick, Widget: "inc"}, {Kind: droidracer.EvClick, Widget: "inc"}}
	for _, ev := range seq {
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if err := env.Fire(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if err := env.Shutdown(); err != nil {
		t.Fatal(err)
	}
	result, err := droidracer.Analyze(env.Trace(), droidracer.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var target *droidracer.Race
	for i := range result.Races {
		if result.Races[i].Category == droidracer.Multithreaded {
			target = &result.Races[i]
		}
	}
	if target == nil {
		t.Fatalf("no multithreaded race in %v", result.Races)
	}
	v, err := droidracer.VerifyRace(factory, seq, result.Info, *target, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Confirmed {
		t.Fatalf("true race not confirmed in %d attempts", v.Attempts)
	}
}
