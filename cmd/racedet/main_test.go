package main

import (
	"strings"
	"testing"

	"droidracer/internal/core"
)

func TestSelectEngine(t *testing.T) {
	dot := graphFlag{"-dot", true}
	explain := graphFlag{"-explain", true}
	off := graphFlag{"-minimize", false}
	cases := []struct {
		name    string
		engine  string
		flags   []graphFlag
		want    string
		wantErr string
	}{
		{"default", "", nil, core.EngineStream, ""},
		{"default with graph-only flags off", "", []graphFlag{off}, core.EngineStream, ""},
		{"explicit stream", "stream", []graphFlag{off}, core.EngineStream, ""},
		{"explicit graph", "graph", nil, core.EngineGraph, ""},
		{"graph-only flag selects graph", "", []graphFlag{dot}, core.EngineGraph, ""},
		{"graph-only flag under explicit graph", "graph", []graphFlag{dot, explain}, core.EngineGraph, ""},
		{"graph-only flag under explicit stream", "stream", []graphFlag{off, dot}, "", "-dot needs the happens-before graph"},
		{"two graph-only flags under explicit stream", "stream", []graphFlag{dot, explain}, "", "-dot, -explain need the happens-before graph"},
		{"unknown engine", "closure", nil, "", "unknown analysis engine"},
		{"unknown engine with graph-only flag", "closure", []graphFlag{dot}, "", "unknown analysis engine"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := selectEngine(c.engine, c.flags)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("selectEngine(%q) = %q, %v; want error containing %q", c.engine, got, err, c.wantErr)
				}
				return
			}
			if err != nil || got != c.want {
				t.Fatalf("selectEngine(%q) = %q, %v; want %q", c.engine, got, err, c.want)
			}
		})
	}
}
