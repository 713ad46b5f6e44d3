package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/graph"
)

// runOut is one run of a workload: what entered and left the program
// per phase, and the program's own counters.
type runOut struct {
	phases int
	base   time.Time
	fed    []int64  // index p: ns since base when phase p's input entered
	done   []int64  // index p: ns since base when phase p's result was out
	out    []uint64 // index p: terminal sink digest (synthetic workloads)

	feeds      int // feed calls the program made (single-engine workloads)
	workers    int // engine workers in total
	executions int64
	committed  []int64 // PhasesCompleted per engine
	maxQueue   int
	dist       *distrib.Stats
	walBytes   int64
}

func (r *runOut) fromRecord(rec *record) {
	r.fed = make([]int64, len(rec.fed))
	for p := range rec.fed {
		r.fed[p] = rec.fed[p].Load()
	}
	r.done, r.out = rec.done, rec.out
}

// setup is the time from the process's start to the run's first phase
// fed.
func (r *runOut) setup() time.Duration {
	return r.base.Sub(procStart) + time.Duration(r.fed[1])
}

// window is the time from phase from's input entering to the last
// phase's result being out.
func (r *runOut) window(from int) time.Duration {
	return time.Duration(r.done[r.phases] - r.fed[from])
}

// quantile is the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// totals aggregates the timed runs of a process, each from phase from.
type totals struct {
	phases     int
	window     time.Duration
	lat        []float64 // µs, input entered → result out
	executions int64
	maxQueue   int
	workers    int
	switches   int
	moved      int
	gaps       []float64 // ms, sink silence across each epoch barrier
	walBytes   int64
}

func aggregate(rs []*runOut, from int) totals {
	var t totals
	for _, r := range rs {
		t.phases += r.phases - from + 1
		t.window += r.window(from)
		for p := from; p <= r.phases; p++ {
			if r.done[p] > 0 && r.fed[p] > 0 {
				t.lat = append(t.lat, float64(r.done[p]-r.fed[p])/1e3)
			}
		}
		t.executions += r.executions
		t.maxQueue = max(t.maxQueue, r.maxQueue)
		t.workers = r.workers
		t.walBytes = max(t.walBytes, r.walBytes)
		if r.dist != nil {
			for _, ev := range r.dist.Rebalances {
				t.switches++
				t.moved += ev.Moved
				if b := ev.Barrier; b+1 <= r.phases && r.done[b] > 0 && r.done[b+1] > 0 {
					t.gaps = append(t.gaps, float64(r.done[b+1]-r.done[b])/1e6)
				}
			}
		}
	}
	return t
}

func (t totals) pps() float64 { return float64(t.phases) / t.window.Seconds() }

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memDelta is the Go runtime's allocation and GC pause over a window.
type memDelta struct {
	alloc uint64
	pause time.Duration
}

func memNow() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := memNow()
	return memDelta{
		alloc: after.TotalAlloc - before.TotalAlloc,
		pause: time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

// closedRuns is a closed-loop process. Every run is one round of the
// same phases over fresh modules: a cold warm-up round, then untimed
// set-up plus timed rounds until the window is spent, and with tracing
// on, traced rounds for as long again. The untraced window is halved
// when traced rounds follow.
type closedRuns struct {
	warm         *runOut
	main, traced []*runOut
	tr           *tracer
	mem          memDelta
	rss          float64
}

// closedLoop drives the rounds; run executes one round, timed through
// tr when it is non-nil.
func closedLoop(o opts, vertices int, run func(tr *tracer) (*runOut, error)) (*closedRuns, error) {
	var cr closedRuns
	var err error
	if cr.warm, err = run(nil); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	sec := o.seconds
	if o.trace {
		sec /= 2
	}
	rounds := func(tr *tracer) ([]*runOut, error) {
		deadline := time.Now().Add(time.Duration(sec * float64(time.Second)))
		var rs []*runOut
		for len(rs) == 0 || time.Now().Before(deadline) {
			r, err := run(tr)
			if err != nil {
				return nil, err
			}
			rs = append(rs, r)
			if tr != nil {
				tr.spansOff.Store(true) // keep the first round's spans only
			}
		}
		return rs, nil
	}
	before := memNow()
	if cr.main, err = rounds(nil); err != nil {
		return nil, fmt.Errorf("timed round: %w", err)
	}
	cr.mem = memSince(before)
	cr.rss = peakRSSMB()
	if o.trace {
		cr.tr = newTracer(vertices, time.Now())
		if cr.traced, err = rounds(cr.tr); err != nil {
			return nil, fmt.Errorf("traced round: %w", err)
		}
	}
	return &cr, nil
}

func (cr *closedRuns) all() []*runOut {
	runs := append([]*runOut{cr.warm}, cr.main...)
	return append(runs, cr.traced...)
}

// endToEnd sets the end-to-end metrics from the untraced timed runs.
func endToEnd(rep *report, t totals, setup time.Duration, rss float64) {
	rep.set("phases_per_s", t.pps(), "phases/s")
	rep.set("phase_latency_p50_us", quantile(t.lat, 0.5), "us")
	rep.set("phase_latency_p99_us", quantile(t.lat, 0.99), "us")
	rep.set("setup_s", setup.Seconds(), "s")
	rep.set("peak_rss_mb", rss, "MB")
	rep.note("latency samples: %d (p99 leaves %d above it)", len(t.lat), len(t.lat)/100)
	if len(t.lat)/100 < 10 {
		rep.problem("only %d latency samples: fewer than 10 lie above p99", len(t.lat))
	}
}

// layers holds what the per-layer metrics of a traced process are made
// from. Every metric is reported on every workload; a layer the
// workload does not use reads 0.
type layers struct {
	untraced, traced totals
	tr               *tracer
	wire             *wireCapture
	vertices         int
	mem              memDelta
	buildMs, planMs  float64
	oraclePPS        float64
	lateP99us        float64
}

func (l *layers) report(rep *report) {
	t := l.traced
	phases := float64(t.phases)
	capacity := float64(t.window.Nanoseconds()) * float64(t.workers)
	busy, steps := l.tr.busy()
	execs := float64(t.executions)
	rep.set("core.ns_per_exec", capacity/execs, "ns")
	rep.set("core.overhead_ns_per_exec", (capacity-float64(busy))/execs, "ns")
	rep.set("core.execs_per_phase", execs/phases, "count")
	rep.set("core.active_share", float64(steps)/(float64(l.vertices)*phases), "ratio")
	rep.set("core.max_queue_len", float64(t.maxQueue), "count")
	rep.set("module.busy_ns_per_phase", float64(busy)/phases, "ns")
	rep.set("module.busy_share", float64(busy)/capacity, "ratio")
	rep.set("baseline.phases_per_s", l.oraclePPS, "phases/s")
	rep.set("baseline.speedup", l.untraced.pps()/l.oraclePPS, "ratio")
	rep.set("setup.build_ms", l.buildMs, "ms")
	rep.set("distrib.plan_ms", l.planMs, "ms")

	lt := l.tr.linkTotals()
	perFrame := func(ns, frames int64) float64 {
		if frames == 0 {
			return 0
		}
		return float64(ns) / float64(frames)
	}
	rep.set("distrib.send_ns_per_frame", perFrame(lt.sendNs, lt.sendFrames), "ns")
	rep.set("distrib.recv_wait_ns_per_frame", perFrame(lt.recvNs, lt.recvFrames), "ns")
	rep.set("distrib.blocked_share", float64(lt.blocked)/float64(t.window), "ratio")
	rep.set("distrib.cross_msgs_per_phase", float64(lt.values)/phases, "count")

	var bytesPerPhase, framesPerFlush, enc, dec float64
	if w := l.wire; w != nil {
		bytesPerPhase = float64(w.bytes) / phases
		if w.flushes > 0 {
			framesPerFlush = float64(w.flushed) / float64(w.flushes)
		}
		var err error
		if enc, dec, err = w.codecTimes(); err != nil {
			rep.problem("codec re-run: %v", err)
		}
	}
	rep.set("netwire.bytes_per_phase", bytesPerPhase, "B")
	rep.set("netwire.frames_per_flush", framesPerFlush, "count")
	rep.set("netwire.encode_ns_per_frame", enc, "ns")
	rep.set("netwire.decode_ns_per_frame", dec, "ns")

	var moved, snapBytes float64
	if t.switches > 0 {
		moved = float64(t.moved) / float64(t.switches)
		snapBytes = float64(l.tr.snapBytes.Load()) / float64(t.switches)
	}
	rep.set("coordinator.switches", float64(t.switches), "count")
	rep.set("coordinator.downtime_ms_p50", quantile(t.gaps, 0.5), "ms")
	rep.set("coordinator.moved_per_switch", moved, "count")
	rep.set("coordinator.snapshot_bytes_per_switch", snapBytes, "B")
	rep.set("wal.file_bytes", float64(t.walBytes), "B")

	rep.set("runtime.alloc_bytes_per_phase", float64(l.mem.alloc)/float64(l.untraced.phases), "B")
	rep.set("runtime.gc_pause_ms", float64(l.mem.pause)/1e6, "ms")
	rep.set("gen.late_p99_us", l.lateP99us, "us")
	rep.set("trace.overhead", l.untraced.pps()/t.pps(), "ratio")
	rep.set("latency.samples", float64(len(l.untraced.lat)), "count")
}

// timePlan times one cost-aware Plan call on the workload graph.
func timePlan(g *graph.Numbered) (float64, error) {
	t0 := time.Now()
	if _, err := (distrib.CostAware{}).Plan(g, graph.UniformCosts(g.N()), 2); err != nil {
		return 0, fmt.Errorf("planning the workload graph: %w", err)
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6, nil
}

func writeTrace(o opts, tr *tracer) error {
	path := filepath.Join(o.workdir, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	return nil
}

// checkCommitted compares the phases the program committed with the
// phases fed, by independent paths: the engines' counters, the feed
// calls or first source Steps, and the sink's own record.
func checkCommitted(rep *report, r *runOut, sinkCommitted int) {
	fed := 0
	for p := 1; p <= r.phases; p++ {
		if r.fed[p] > 0 {
			fed++
		}
	}
	if fed != r.phases {
		rep.problem("%d of %d phases were fed", fed, r.phases)
	}
	if r.feeds != 0 && r.feeds != r.phases {
		rep.problem("the program made %d feed calls for %d phases", r.feeds, r.phases)
	}
	for m, c := range r.committed {
		if c != int64(fed) {
			rep.problem("engine %d committed %d phases, %d were fed", m, c, fed)
		}
	}
	if sinkCommitted != fed {
		rep.problem("the sink saw %d phases, %d were fed", sinkCommitted, fed)
	}
}

// --- synthetic workloads -------------------------------------------

// synthJob is a synthetic closed-loop workload: rounds of the same
// phases, checked against the oracle and the independent reference.
type synthJob struct {
	sy      *synth
	phases  int // per round
	buildMs float64
	run     func(tr *tracer) (*runOut, error)
	// check adds the workload's closed-form checks for one run.
	check func(rep *report, r *runOut)
	wire  *wireCapture
}

func (j *synthJob) drive(o opts) (*report, error) {
	rep := &report{}
	cr, err := closedLoop(o, j.sy.sh.n(), j.run)
	if err != nil {
		return nil, err
	}
	oracle, err := j.sy.checkSynth(rep, j.phases, cr.all())
	if err != nil {
		return nil, err
	}
	for _, r := range cr.all() {
		j.check(rep, r)
	}
	main := aggregate(cr.main, 1)
	if !o.trace {
		endToEnd(rep, main, cr.warm.setup(), cr.rss)
		return rep, nil
	}
	planMs, err := timePlan(j.sy.ng)
	if err != nil {
		return nil, err
	}
	l := layers{untraced: main, traced: aggregate(cr.traced, 1), tr: cr.tr, wire: j.wire,
		vertices: j.sy.sh.n(), mem: cr.mem, buildMs: j.buildMs, planMs: planMs, oraclePPS: oracle}
	l.report(rep)
	return rep, writeTrace(o, cr.tr)
}

// checkSynth runs the sequential oracle on fresh modules and the
// independent reference loop over one round's phases, checks that the
// two agree, and counts each run's failed phases: not committed, or a
// sink digest that differs from the oracle's. It returns the oracle's
// pace.
func (sy *synth) checkSynth(rep *report, n int, runs []*runOut) (float64, error) {
	rec := newRecord(n, time.Now())
	mods := sy.mods(rec)
	batches := sy.batches(n)
	t0 := time.Now()
	st, err := baseline.Sequential(sy.ng, mods, batches)
	wall := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("sequential oracle: %w", err)
	}
	if st.Phases != int64(n) || st.Executions != int64(sy.sh.n()*n) {
		rep.problem("oracle ran %d phases and %d executions, want %d and %d", st.Phases, st.Executions, n, sy.sh.n()*n)
	}
	ref := sy.reference(n)
	for p := 1; p <= n; p++ {
		if rec.out[p] != ref[p] {
			rep.problem("sequential oracle and independent reference disagree from phase %d", p)
			break
		}
	}
	for _, r := range runs {
		rep.attempted += r.phases
		committed := 0
		for p := 1; p <= r.phases; p++ {
			if r.done[p] > 0 {
				committed++
			}
			if r.done[p] == 0 || p > n || r.out[p] != rec.out[p] {
				rep.failed++
			}
		}
		checkCommitted(rep, r, committed)
	}
	return float64(n) / wall.Seconds(), nil
}

// newRun starts a run's record and modules, wrapped when traced.
func (sy *synth) newRun(n, workers int, tr *tracer) (*runOut, *record, []core.Module) {
	r := &runOut{phases: n, base: time.Now(), workers: workers}
	if tr != nil {
		r.base = tr.base
	}
	rec := newRecord(n, r.base)
	mods := sy.mods(rec)
	if tr != nil {
		mods = tr.wrapMods(mods)
	}
	return r, rec, mods
}

// finish copies the record into the run and adds the traced run's
// phase spans.
func (r *runOut) finish(rec *record, tr *tracer) {
	r.fromRecord(rec)
	if tr != nil {
		tr.phaseSpans(func(p int) int64 { return r.fed[p] }, func(p int) int64 { return r.done[p] }, r.phases)
	}
}

// runEngine runs one round of the synthetic graph on one core.Engine,
// closed loop.
func (sy *synth) runEngine(n, workers int, tr *tracer) (*runOut, error) {
	r, rec, mods := sy.newRun(n, workers, tr)
	eng, err := core.New(sy.ng, mods, core.Config{Workers: workers})
	if err != nil {
		return nil, err
	}
	st, err := eng.RunFeed(n, func(p int) ([]core.ExtInput, error) {
		rec.markFed(p)
		r.feeds++
		return sy.batch(p), nil
	}, nil)
	if err != nil {
		return nil, err
	}
	r.executions, r.maxQueue = st.Executions, st.MaxQueueLen
	r.committed = []int64{st.PhasesCompleted}
	r.finish(rec, tr)
	return r, nil
}

// newSynthJob draws the workload's graph, timing the build.
func newSynthJob(o opts, layers, width, fanin, grain, phases int) (*synthJob, error) {
	t0 := time.Now()
	sy, err := newSynth(o.seed, layers, width, fanin, grain)
	if err != nil {
		return nil, err
	}
	return &synthJob{sy: sy, phases: phases, buildMs: float64(time.Since(t0).Nanoseconds()) / 1e6}, nil
}

func runFinegrain(o opts) (*report, error) {
	j, err := newSynthJob(o, 8, 32, 3, 0, 8000)
	if err != nil {
		return nil, err
	}
	j.run = func(tr *tracer) (*runOut, error) { return j.sy.runEngine(j.phases, o.workers, tr) }
	j.check = j.sy.checkExecutions
	return j.drive(o)
}

// checkExecutions: every vertex fires in every phase.
func (sy *synth) checkExecutions(rep *report, r *runOut) {
	if want := int64(sy.sh.n() * r.phases); r.executions != want {
		rep.problem("%d executions, want vertices × phases = %d", r.executions, want)
	}
}

// runDistrib runs one round of the synthetic graph through distrib.Run
// on two machines with one worker each.
func (sy *synth) runDistrib(n int, tr *tracer, dist distrib.Config, opts ...distrib.Option) (*runOut, error) {
	r, rec, mods := sy.newRun(n, 2, tr)
	if tr != nil {
		dist.Network = &timedNet{inner: dist.Network, t: tr}
	}
	dist.Machines, dist.WorkersPerMachine = 2, 1
	st, err := distrib.Run(context.Background(), distrib.RunConfig{
		Graph: sy.ng, Mods: mods, Batches: sy.batches(n), Dist: dist,
	}, opts...)
	if err != nil {
		return nil, err
	}
	r.dist = &st
	for _, ms := range st.PerMachine {
		r.executions += ms.Executions
		r.maxQueue = max(r.maxQueue, ms.MaxQueueLen)
		r.committed = append(r.committed, ms.PhasesCompleted)
	}
	r.finish(rec, tr)
	return r, nil
}

func runTCPPipeline(o opts) (*report, error) {
	j, err := newSynthJob(o, 6, 32, 4, 8, 8000)
	if err != nil {
		return nil, err
	}
	if o.trace {
		j.wire = &wireCapture{}
	}
	j.run = func(tr *tracer) (*runOut, error) {
		net, err := distrib.NewTCPNetwork()
		if err != nil {
			return nil, err
		}
		defer net.Close()
		if tr != nil {
			j.wire.install(net)
		}
		return j.sy.runDistrib(j.phases, tr, distrib.Config{Network: net})
	}
	j.check = j.sy.checkCrossMessages
	return j.drive(o)
}

// checkCrossMessages: every cut edge carries one value per phase.
func (sy *synth) checkCrossMessages(rep *report, r *runOut) {
	cut := sy.cutEdges(r.dist.Starts)
	if r.dist.CrossEdges != cut {
		rep.problem("the program cut %d edges, the partition cuts %d", r.dist.CrossEdges, cut)
	}
	if want := int64(cut * r.phases); r.dist.CrossMessages != want {
		rep.problem("%d cross-machine messages, want cut edges × phases = %d", r.dist.CrossMessages, want)
	}
}

// alternating is a Planner that hands out two fixed partitions in
// turn, so every epoch switch migrates the vertices between the cuts.
type alternating struct {
	mu    sync.Mutex
	parts [2][]int
	calls int
}

func (a *alternating) Name() string { return "alternating" }

func (a *alternating) Plan(g *graph.Numbered, costs []float64, machines int) ([]int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.parts[a.calls%2]
	a.calls++
	return append([]int(nil), s...), nil
}

const (
	// durableEpoch is the number of phases between forced switches.
	durableEpoch = 1000
	// durableSwitches is each round's switch budget. A forced barrier
	// lands at or a few phases past its target, so the budget leaves a
	// quarter of the round for that slack: every budgeted switch fires
	// and the count is exact.
	durableSwitches = 15
	durablePhases   = 20 * durableEpoch
)

func runDurableRebalance(o opts) (*report, error) {
	j, err := newSynthJob(o, 6, 8, 2, 8, durablePhases)
	if err != nil {
		return nil, err
	}
	n := j.sy.sh.n()
	parts := [2][]int{{1, 1 + n/3}, {1, 1 + 2*n/3}}
	moved := parts[1][1] - parts[0][1]
	rounds := 0
	j.run = func(tr *tracer) (*runOut, error) {
		rounds++
		dir := filepath.Join(o.workdir, fmt.Sprintf("wal-%d-%d", os.Getpid(), rounds))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		r, err := j.sy.runDistrib(j.phases, tr,
			distrib.Config{Network: distrib.ChannelNetwork{}, Planner: &alternating{parts: parts}},
			distrib.WithRebalancing(distrib.RebalanceConfig{ForceEvery: durableEpoch, MaxRebalances: durableSwitches}),
			distrib.WithWAL(dir))
		if err != nil {
			return nil, err
		}
		r.walBytes, err = dirBytes(dir)
		return r, err
	}
	j.check = func(rep *report, r *runOut) { checkSwitches(rep, r, moved) }
	return j.drive(o)
}

// checkSwitches: ForceEvery and MaxRebalances fix the switch count,
// and the two partitions fix the vertices each switch moves.
func checkSwitches(rep *report, r *runOut, moved int) {
	evs := r.dist.Rebalances
	if len(evs) != durableSwitches {
		rep.problem("%d epoch switches, ForceEvery %d and MaxRebalances %d over %d phases imply %d",
			len(evs), durableEpoch, durableSwitches, r.phases, durableSwitches)
	}
	prev := 0
	for i, ev := range evs {
		if ev.Moved != moved || ev.Moved < 1 {
			rep.problem("switch %d moved %d vertices, the two partitions differ by %d", i, ev.Moved, moved)
		}
		if ev.Barrier < prev+durableEpoch {
			rep.problem("switch %d at phase %d, less than %d phases after the last", i, ev.Barrier, durableEpoch)
		}
		prev = ev.Barrier
	}
}

// dirBytes is the total size of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}
