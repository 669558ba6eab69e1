package main

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"xks/internal/fault"
)

// TestSlowedLayerShowsInItsRow is the benchmark's self-test: a delay
// injected at one stage of the program must land in that stage's
// per-layer rows and leave the other stages' rows where they were.
func TestSlowedLayerShowsInItsRow(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a generated store three times")
	}
	w, err := findWorkload("store-topk-miss")
	if err != nil {
		t.Fatal(err)
	}
	in, err := genInputs(w, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref, closeRef, err := openReference(w, in)
	if err != nil {
		t.Fatal(err)
	}
	defer closeRef()
	mix := &storeMix{rng: rand.New(rand.NewSource(5)), seen: map[string]bool{}}
	var ops []op
	for len(ops) < 30 {
		r := mix.next()
		r.rank, r.slca, r.algo = true, false, ""
		ops = append(ops, op{kind: opRead, read: r, ref: -1})
	}

	replayWith := func(rules ...fault.Rule) map[string]float64 {
		t.Helper()
		ctx := context.Background()
		if len(rules) > 0 {
			ctx = fault.NewContext(ctx, fault.NewPlan(rules...))
		}
		rp, err := newReplay(w, in, ref)
		if err != nil {
			t.Fatal(err)
		}
		defer rp.close()
		bad, err := rp.run(ctx, ops)
		if err != nil {
			t.Fatal(err)
		}
		if bad != "" {
			t.Fatal(bad)
		}
		m := map[string]metric{}
		rp.metrics(m)
		out := map[string]float64{}
		for k, v := range m {
			out[k] = v.Value
		}
		return out
	}

	const delay = 10 * time.Millisecond
	d := ms(delay)
	base := replayWith()
	slowMat := replayWith(fault.Rule{Point: fault.PointMaterialize, Action: fault.Action{Delay: delay}})
	slowCand := replayWith(fault.Rule{Point: fault.PointCandidates, Action: fault.Action{Delay: delay}})

	moved := func(name string, m map[string]float64, min float64) {
		t.Helper()
		if got := m[name] - base[name]; got < min {
			t.Errorf("%s rose by %.2fms, want at least %.2fms (base %.2fms)", name, got, min, base[name])
		}
	}
	// A row that must not move may still drift with machine noise, in
	// proportion to its own size.
	unmoved := func(name string, m map[string]float64) {
		t.Helper()
		tol := max(d/2, base[name]/4)
		if got := m[name] - base[name]; got > tol || got < -tol {
			t.Errorf("%s moved by %.2fms, want |Δ| < %.2fms (base %.2fms)", name, got, tol, base[name])
		}
	}

	// Every selected fragment pays the materialize delay once.
	moved("prune.ms_p50", slowMat, d)
	moved("xks.search_ms_p50", slowMat, d)
	moved("xks.first_fragment_ms_p50", slowMat, 0.8*d)
	for _, name := range []string{"plan.ms_p50", "lca.ms_p50", "rtf.ms_p50", "exec.select_ms_p50"} {
		unmoved(name, slowMat)
	}

	// The candidate stage pays it once per request, before getLCA.
	moved("lca.ms_p50", slowCand, 0.8*d)
	moved("xks.search_ms_p50", slowCand, 0.8*d)
	for _, name := range []string{"plan.ms_p50", "rtf.ms_p50", "prune.ms_p50"} {
		unmoved(name, slowCand)
	}
}
