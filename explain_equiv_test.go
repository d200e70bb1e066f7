package droidracer_test

import (
	"reflect"
	"strings"
	"testing"

	"droidracer"
	"droidracer/internal/apps"
	"droidracer/internal/explain"
	"droidracer/internal/hb"
	"droidracer/internal/minimize"
	"droidracer/internal/stream"
	"droidracer/internal/trace"
)

// graphOrder is minimization's happens-before oracle on the graph
// engine: the paper's closure, kept beside the streaming engine as the
// reference it is checked against.
func graphOrder(info *trace.Info, cfg hb.Config) (func(i, j int) bool, error) {
	return hb.Build(info, cfg).OrderedLE, nil
}

// TestExplainStreamMatchesGraph pins the explainers to the graph
// oracle: on every Table 2 representative trace, each reported race is
// explained with the same text over the stream replay's recorded clocks
// as over the happens-before graph, and the first race minimizes to
// the same witness trace and race under either relation.
func TestExplainStreamMatchesGraph(t *testing.T) {
	for _, app := range apps.All() {
		name := app.Name()
		t.Run(name, func(t *testing.T) {
			opts := droidracer.DefaultOptions()
			res, err := droidracer.Analyze(representative(t, name).Trace, opts)
			if err != nil {
				t.Fatal(err)
			}
			g := hb.Build(res.Info, opts.HB)
			out, err := stream.Run(res.Info, stream.Options{HB: opts.HB, RecordClocks: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res.Races {
				if want, got := explain.Explain(g, r).String(), explain.Explain(out, r).String(); got != want {
					t.Errorf("explanations diverge for %v:\n graph:\n%s stream:\n%s", r, want, got)
				}
			}
			if len(res.Races) == 0 {
				return
			}
			want, err := minimize.MinimizeWith(res.Trace, res.Races[0], opts.HB, graphOrder)
			if err != nil {
				t.Fatal(err)
			}
			got, err := minimize.Minimize(res.Trace, res.Races[0], opts.HB)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Race, want.Race) {
				t.Errorf("minimized race: stream %v, graph %v", got.Race, want.Race)
			}
			if gt, wt := formatTrace(t, got.Trace), formatTrace(t, want.Trace); gt != wt {
				t.Errorf("minimized witnesses diverge:\n graph:\n%s stream:\n%s", wt, gt)
			}
		})
	}
}

func formatTrace(t *testing.T, tr *droidracer.Trace) string {
	t.Helper()
	var sb strings.Builder
	if err := droidracer.FormatTrace(&sb, tr); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
