package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/module"
	"repro/internal/netwire"
	"repro/internal/sim"
	"repro/internal/spec"
)

// The detectors workload replicates the shipped domain cells: per
// sensor cell, ext-relay → rate → {zscore-detector → debounce,
// cusum-detector → pulse-hold} → coincidence → collector; every cell's
// coincidence also feeds a regional coincidence with an alert-sink and
// a collector. Readings are sparse, so most pairs resolve without
// executing.
const (
	detCells    = 24
	detSparsity = 0.25 // share of phases in which a cell has a reading
)

// detectorSpec renders the workload's computation as a spec document.
func detectorSpec(seed uint64) string {
	var b strings.Builder
	b.WriteString(`<computation name="perfbench-detectors"><graph>` + "\n")
	v := func(id, typ string, params ...string) {
		fmt.Fprintf(&b, `<vertex id="%s" type="%s">`, id, typ)
		for i := 0; i+1 < len(params); i += 2 {
			fmt.Fprintf(&b, `<param name="%s" value="%s"/>`, params[i], params[i+1])
		}
		b.WriteString("</vertex>\n")
	}
	e := func(from, to string) { fmt.Fprintf(&b, `<edge from="%s" to="%s"/>`+"\n", from, to) }
	for c := 0; c < detCells; c++ {
		p := fmt.Sprintf("cell-%d-", c)
		v(p+"relay", "ext-relay")
		v(p+"rate", "rate")
		v(p+"zscore", "zscore-detector", "window", "48", "k", "2.5", "warm", "48")
		v(p+"cusum", "cusum-detector", "k", "0.5", "h", "6", "warm", "48")
		v(p+"debounce", "debounce", "hold", "2")
		v(p+"pulse", "pulse-hold", "hold", "12")
		v(p+"either", "coincidence", "need", "1")
		v(p+"log", "collector")
		e(p+"relay", p+"rate")
		e(p+"rate", p+"zscore")
		e(p+"rate", p+"cusum")
		e(p+"zscore", p+"debounce")
		e(p+"cusum", p+"pulse")
		e(p+"debounce", p+"either")
		e(p+"pulse", p+"either")
		e(p+"either", p+"log")
		e(p+"either", "regional")
	}
	v("regional", "coincidence", "need", "2")
	v("regional-alerts", "alert-sink")
	v("regional-log", "collector")
	e("regional", "regional-alerts")
	e("regional", "regional-log")
	fmt.Fprintf(&b, "</graph><simulation phases=\"1\" workers=\"2\" seed=\"%d\"/></computation>\n", seed)
	return b.String()
}

// detectors is one instance of the workload: the spec and the sensor
// feeds made from the seed.
type detectors struct {
	seed  uint64
	sp    *spec.Spec
	feeds []sim.Series // by cell
}

func newDetectors(seed uint64) (*detectors, error) {
	sp, err := spec.Parse(strings.NewReader(detectorSpec(seed)))
	if err != nil {
		return nil, fmt.Errorf("parsing the detector spec: %w", err)
	}
	d := &detectors{seed: seed, sp: sp}
	for c := 0; c < detCells; c++ {
		cellSeed := mix64(seed ^ uint64(c+1)*0xa0761d6478bd642f)
		temp, _ := sim.Temperature(sim.TemperatureConfig{
			Seed: cellSeed, Mean: 22.5, Swing: 7.5, Period: 96, Noise: 0.6,
			WaveProb: 0.3, WaveBoost: 6, WaveLength: 24,
		})
		d.feeds = append(d.feeds, sparse(cellSeed, temp))
	}
	return d, nil
}

// sparse gates a series so a reading arrives in about detSparsity of
// the phases.
func sparse(seed uint64, s sim.Series) sim.Series {
	return func(p int) (event.Value, bool) {
		if float64(mix64(seed^uint64(p)*0x2545f4914f6cdd1d)>>11)/(1<<53) >= detSparsity {
			return event.Value{}, false
		}
		return s(p)
	}
}

// build materializes the spec: numbered graph and fresh modules.
func (d *detectors) build() (*spec.Built, error) {
	return d.sp.Build(module.NewRegistry())
}

// feedMap keys each cell's series by its relay's vertex index.
func (d *detectors) feedMap(b *spec.Built) map[int]sim.Series {
	m := make(map[int]sim.Series, detCells)
	for c, s := range d.feeds {
		m[b.IndexOf[fmt.Sprintf("cell-%d-relay", c)]] = s
	}
	return m
}

// relays lists the relay vertex indices and their feeds in ascending
// vertex order, the layout sim.BuildBatches uses.
type relay struct {
	v int
	s sim.Series
}

func (d *detectors) relays(b *spec.Built) []relay {
	var rs []relay
	for v, s := range d.feedMap(b) {
		rs = append(rs, relay{v, s})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].v < rs[j].v })
	return rs
}

// batchAt is phase p's external input, generated when it is due.
func batchAt(rs []relay, p int) []core.ExtInput {
	var out []core.ExtInput
	for _, r := range rs {
		if val, ok := r.s(p); ok {
			out = append(out, core.ExtInput{Vertex: r.v, Port: 0, Val: val})
		}
	}
	return out
}

// sinkDigests folds every sink's recorded output into one hash per
// phase: collectors by (sink, phase, value), the alert sink by
// (sink, phase). Phases with no sink output are absent.
func sinkDigests(b *spec.Built) map[int]uint64 {
	out := make(map[int]uint64)
	add := func(sink int, p int, val []byte) {
		h := fnv.New64a()
		var hdr [16]byte
		binary.LittleEndian.PutUint64(hdr[:8], uint64(sink))
		binary.LittleEndian.PutUint64(hdr[8:], uint64(p))
		h.Write(hdr[:])
		h.Write(val)
		out[p] += h.Sum64()
	}
	for v := 1; v <= b.Graph.N(); v++ {
		switch m := b.Modules[v-1].(type) {
		case *module.Collector:
			hist := m.History()
			for i, p := range hist.Phases {
				add(v, int(p), netwire.AppendValue(nil, hist.Values[i]))
			}
		case *module.AlertSink:
			for _, p := range m.Alerts {
				add(v, p, nil)
			}
		}
	}
	return out
}

// alertCount is the number of regional alerts a run raised.
func alertCount(b *spec.Built) int {
	if a, ok := b.ModuleByID("regional-alerts").(*module.AlertSink); ok {
		return len(a.Alerts)
	}
	return 0
}

// The open loop offers phases at a fixed rate, well below what two
// workers sustain, and counts a phase committed later than the
// deadline after it was due as failed.
const (
	detRate     = 4000.0 // phases offered per second
	detWarm     = 0.5    // seconds of warm-up phases, left out of the metrics
	detDeadline = 200 * time.Millisecond
)

// detRun is one open-loop run.
type detRun struct {
	*runOut
	built   *spec.Built
	buildMs float64
	late    []float64 // µs the generator ran behind schedule, per phase
	tr      *tracer
}

// runOpen offers warm-up plus sec seconds of phases at detRate. Phase
// p is due at start + (p-1)/detRate; its latency runs from its due
// time to the return of Engine.WaitPhase(p).
func (d *detectors) runOpen(sec float64, workers int, traced bool) (*detRun, error) {
	r := &runOut{base: time.Now(), workers: workers}
	t0 := time.Now()
	b, err := d.build()
	if err != nil {
		return nil, err
	}
	dr := &detRun{runOut: r, built: b, buildMs: float64(time.Since(t0).Nanoseconds()) / 1e6}
	rs := d.relays(b)
	n := int((detWarm + sec) * detRate)
	r.phases = n
	mods := b.Modules
	if traced {
		dr.tr = newTracer(len(mods), r.base)
		mods = dr.tr.wrapMods(mods)
	}
	eng, err := core.New(b.Graph, mods, core.Config{Workers: workers})
	if err != nil {
		return nil, err
	}
	r.fed, r.done = make([]int64, n+1), make([]int64, n+1)
	dr.late = make([]float64, n+1)
	started := make(chan int, n) // one slot per phase: the generator never waits on the waiter
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p := range started {
			eng.WaitPhase(p)
			r.done[p] = int64(time.Since(r.base))
		}
	}()
	eng.Start()
	period := time.Duration(float64(time.Second) / detRate)
	start := time.Since(r.base) + time.Millisecond
	var startErr error
	for p := 1; p <= n; p++ {
		due := start + time.Duration(p-1)*period
		if wait := due - time.Since(r.base); wait > 0 {
			time.Sleep(wait)
		}
		ext := batchAt(rs, p)
		dr.late[p] = float64(time.Since(r.base)-due) / 1e3
		r.fed[p] = int64(due)
		if _, startErr = eng.StartPhase(ext); startErr != nil {
			break
		}
		r.feeds++
		started <- p
	}
	close(started)
	wg.Wait()
	eng.Stop()
	if startErr != nil {
		return nil, fmt.Errorf("starting phase %d: %w", r.feeds+1, startErr)
	}
	st := eng.Stats()
	r.executions, r.maxQueue = st.Executions, st.MaxQueueLen
	r.committed = []int64{st.PhasesCompleted}
	if traced {
		dr.tr.phaseSpans(func(p int) int64 { return r.fed[p] }, func(p int) int64 { return r.done[p] }, n)
	}
	return dr, nil
}

func runDetectors(o opts) (*report, error) {
	rep := &report{}
	d, err := newDetectors(o.seed)
	if err != nil {
		return nil, err
	}
	sec := o.seconds
	if o.trace {
		sec /= 2
	}
	before := memNow()
	main, err := d.runOpen(sec, o.workers, false)
	if err != nil {
		return nil, fmt.Errorf("timed run: %w", err)
	}
	mem := memSince(before)
	rss := peakRSSMB()
	runs := []*detRun{main}
	if o.trace {
		traced, err := d.runOpen(sec, o.workers, true)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		runs = append(runs, traced)
	}
	oracle, err := d.check(rep, runs)
	if err != nil {
		return nil, err
	}
	from := int(detWarm*detRate) + 1
	if !o.trace {
		endToEnd(rep, aggregate([]*runOut{main.runOut}, from), main.setup(), rss)
		return rep, nil
	}
	traced := runs[1]
	planMs, err := timePlan(traced.built.Graph)
	if err != nil {
		return nil, err
	}
	// The traced totals span the whole run, warm-up included, so
	// module busy time and engine capacity cover the same phases.
	l := layers{untraced: aggregate([]*runOut{main.runOut}, from), traced: aggregate([]*runOut{traced.runOut}, 1),
		tr: traced.tr, vertices: traced.built.Graph.N(), mem: mem, buildMs: traced.buildMs, planMs: planMs, oraclePPS: oracle,
		lateP99us: quantile(main.late[from:], 0.99)}
	l.report(rep)
	return rep, writeTrace(o, traced.tr)
}

// check runs the sequential oracle on a fresh build over the same
// inputs and counts each run's failed phases: not committed, committed
// after the deadline, or a sink output differing from the oracle's. It
// returns the oracle's pace.
func (d *detectors) check(rep *report, runs []*detRun) (float64, error) {
	n := 0
	for _, r := range runs {
		n = max(n, r.phases)
	}
	b, err := d.build()
	if err != nil {
		return 0, err
	}
	batches := sim.BuildBatches(n, d.feedMap(b))
	t0 := time.Now()
	st, err := baseline.Sequential(b.Graph, b.Modules, batches)
	wall := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("sequential oracle: %w", err)
	}
	if st.Phases != int64(n) {
		rep.problem("oracle ran %d phases, want %d", st.Phases, n)
	}
	want := sinkDigests(b)
	for i, r := range runs {
		got := sinkDigests(r.built)
		rep.attempted += r.phases
		committed := 0
		for p := 1; p <= r.phases; p++ {
			ok := r.done[p] > 0 && got[p] == want[p] && time.Duration(r.done[p]-r.fed[p]) <= detDeadline
			if r.done[p] > 0 {
				committed++
			}
			if !ok {
				rep.failed++
			}
		}
		checkCommitted(rep, r.runOut, committed)
		if i == 0 {
			rep.note("regional alerts: %d (oracle %d) over %d phases", alertCount(r.built), alertCount(b), r.phases)
		}
	}
	return float64(n) / wall.Seconds(), nil
}
