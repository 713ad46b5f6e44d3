package main

import (
	"strings"
	"testing"

	"repro/internal/distrib"
	"repro/internal/module"
)

// Negative controls: each check the benchmark makes must be able to
// fail. Every test runs a small real workload, breaks one thing, and
// expects the run to report it.

func smallSynth(t *testing.T) *synth {
	t.Helper()
	sy, err := newSynth(7, 4, 8, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sy
}

const smallPhases = 300

func engineRound(t *testing.T, sy *synth) *runOut {
	t.Helper()
	r, err := sy.runEngine(smallPhases, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func check(t *testing.T, sy *synth, runs ...*runOut) *report {
	t.Helper()
	rep := &report{}
	if _, err := sy.checkSynth(rep, smallPhases, runs); err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		sy.checkExecutions(rep, r)
	}
	return rep
}

func TestCleanRunPasses(t *testing.T) {
	sy := smallSynth(t)
	rep := check(t, sy, engineRound(t, sy))
	if rep.failed != 0 || len(rep.problems) != 0 {
		t.Fatalf("clean run: %d failed, problems %v", rep.failed, rep.problems)
	}
	if rep.attempted != smallPhases {
		t.Fatalf("attempted %d, want %d", rep.attempted, smallPhases)
	}
}

// A module with one perturbed parameter in the timed run only: the
// oracle catches every phase it reaches.
func TestPerturbedModuleFailsPhases(t *testing.T) {
	sy := smallSynth(t)
	sy.perturb = 1 + sy.sh.width // a vertex of the second layer
	r := engineRound(t, sy)
	sy.perturb = 0
	rep := check(t, sy, r)
	if rep.failed == 0 {
		t.Fatal("a perturbed module went unnoticed")
	}
}

// The same perturbation in every executor's modules: the oracle agrees
// with the run, and only the independent reference can tell.
func TestPerturbedWorkloadFailsReference(t *testing.T) {
	sy := smallSynth(t)
	sy.perturb = 1 + sy.sh.sink
	rep := check(t, sy, engineRound(t, sy))
	if rep.failed != 0 {
		t.Fatalf("run and oracle share the perturbation, yet %d phases failed", rep.failed)
	}
	if !hasProblem(rep, "independent reference disagree") {
		t.Fatalf("the reference did not catch the perturbed module: %v", rep.problems)
	}
}

func TestDroppedPhaseFails(t *testing.T) {
	sy := smallSynth(t)
	r := engineRound(t, sy)
	r.done[smallPhases/2] = 0 // the sink never saw this phase
	rep := check(t, sy, r)
	if rep.failed != 1 || !hasProblem(rep, "the sink saw") {
		t.Fatalf("dropped phase: %d failed, problems %v", rep.failed, rep.problems)
	}
	r = engineRound(t, sy)
	r.committed[0]-- // the engine counts one phase fewer than were fed
	if rep := check(t, sy, r); !hasProblem(rep, "committed") {
		t.Fatalf("dropped commit went unnoticed: %v", rep.problems)
	}
}

func TestWrongCountsFail(t *testing.T) {
	sy := smallSynth(t)
	r := engineRound(t, sy)
	r.executions++
	if rep := check(t, sy, r); !hasProblem(rep, "executions") {
		t.Fatalf("wrong execution count went unnoticed: %v", rep.problems)
	}

	st := &distrib.Stats{Starts: []int{1, sy.ng.N() / 2}}
	st.CrossEdges = sy.cutEdges(st.Starts)
	st.CrossMessages = int64(st.CrossEdges*smallPhases) + 1
	rep := &report{}
	sy.checkCrossMessages(rep, &runOut{phases: smallPhases, dist: st})
	if !hasProblem(rep, "cross-machine messages") {
		t.Fatalf("wrong cross-message count went unnoticed: %v", rep.problems)
	}

	evs := make([]distrib.RebalanceEvent, durableSwitches-1)
	for i := range evs {
		evs[i] = distrib.RebalanceEvent{Barrier: (i + 1) * durableEpoch, Moved: 5}
	}
	rep = &report{}
	checkSwitches(rep, &runOut{phases: durablePhases, dist: &distrib.Stats{Rebalances: evs}}, 5)
	if !hasProblem(rep, "epoch switches") {
		t.Fatalf("a missing switch went unnoticed: %v", rep.problems)
	}
}

// The durable workload's checks pass on a real run and catch a switch
// that moved the wrong vertices.
func TestDurableRoundChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("durable round")
	}
	sy := smallSynth(t)
	n := sy.sh.n()
	parts := [2][]int{{1, 1 + n/3}, {1, 1 + 2*n/3}}
	moved := parts[1][1] - parts[0][1]
	r, err := sy.runDistrib(durablePhases, nil,
		distrib.Config{Network: distrib.ChannelNetwork{}, Planner: &alternating{parts: parts}},
		distrib.WithRebalancing(distrib.RebalanceConfig{ForceEvery: durableEpoch, MaxRebalances: durableSwitches}),
		distrib.WithWAL(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	rep := &report{}
	checkSwitches(rep, r, moved)
	if len(rep.problems) != 0 {
		t.Fatalf("clean durable round: %v", rep.problems)
	}
	checkSwitches(rep, r, moved+1)
	if !hasProblem(rep, "moved") {
		t.Fatalf("wrong moved count went unnoticed: %v", rep.problems)
	}
}

func TestDetectorChecks(t *testing.T) {
	d, err := newDetectors(3)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *detRun {
		r, err := d.runOpen(0.5, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rep := &report{}
	if _, err := d.check(rep, []*detRun{run()}); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 || len(rep.problems) != 0 {
		t.Fatalf("clean detector run: %d failed, problems %v", rep.failed, rep.problems)
	}

	late := run()
	late.done[10] = late.fed[10] + int64(2*detDeadline)
	rep = &report{}
	if _, err := d.check(rep, []*detRun{late}); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 1 {
		t.Fatalf("a phase past its deadline: %d failed, want 1", rep.failed)
	}

	wrong := run()
	hist := wrong.built.ModuleByID("cell-0-log").(*module.Collector).History()
	if hist.Len() == 0 {
		t.Fatal("cell 0 logged nothing to perturb")
	}
	hist.Phases[0]++
	rep = &report{}
	if _, err := d.check(rep, []*detRun{wrong}); err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 {
		t.Fatal("a wrong sink output went unnoticed")
	}
}

func hasProblem(rep *report, s string) bool {
	for _, p := range rep.problems {
		if strings.Contains(p, s) {
			return true
		}
	}
	return false
}
