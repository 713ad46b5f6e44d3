package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/netwire"
)

// The traced run times calls into the program from the benchmark's
// side of each boundary: module wrappers around Step and the snapshot
// calls, a Network wrapper around every link's Send and Recv, the TCP
// wire and flush taps, and timed planner and spec-build calls. Nothing
// inside the program changes, and neither core.Config.Observer nor
// distrib.WithTap is set, so the engine runs its decentralized commit
// path exactly as in an untraced run.

// spanEvery samples the phases whose spans are kept: all counters see
// every call, spans are kept for one phase in spanEvery.
const spanEvery = 64

// maxSpans bounds the kept spans so a long traced run stays small.
const maxSpans = 1 << 18

// span is one timed call. Spans of one phase share the phase number as
// their trace identifier; Parent is the index of the enclosing span
// (-1 for a phase's root span).
type span struct {
	Name   string `json:"name"`
	Phase  int    `json:"phase"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// paddedNs is a per-vertex counter on its own cache line, written only
// by the vertex's Step (never concurrent with itself).
type paddedNs struct {
	ns    int64
	steps int64
	_     [48]byte
}

// tracer collects one traced run's counters and sampled spans.
type tracer struct {
	base  time.Time
	steps []paddedNs // by vertex index - 1

	snapBytes atomic.Int64 // bytes returned by SnapshotState
	spansOff  atomic.Bool  // set once the first traced round has its spans

	mu    sync.Mutex
	spans []span
	links []*linkTimes
}

func newTracer(n int, base time.Time) *tracer {
	return &tracer{base: base, steps: make([]paddedNs, n)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// keep records a child span of phase p when p is sampled.
func (t *tracer) keep(name string, p int, start, end int64) {
	if p%spanEvery != 0 || t.spansOff.Load() {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{Name: name, Phase: p, Start: start, End: end, Parent: -2})
	}
	t.mu.Unlock()
}

// busy sums the timed Step calls.
func (t *tracer) busy() (ns, steps int64) {
	for i := range t.steps {
		ns += t.steps[i].ns
		steps += t.steps[i].steps
	}
	return ns, steps
}

// wrapMods wraps every module so its Step is timed. Each wrapper
// forwards exactly the optional interfaces the wrapped module has.
func (t *tracer) wrapMods(mods []core.Module) []core.Module {
	out := make([]core.Module, len(mods))
	for i, m := range mods {
		tm := timedMod{inner: m, v: i, t: t}
		switch x := m.(type) {
		case core.DeltaSnapshotter:
			out[i] = &timedDelta{timedSnap{tm, x}, x}
		case core.Snapshotter:
			out[i] = &timedSnap{tm, x}
		default:
			out[i] = &tm
		}
	}
	return out
}

type timedMod struct {
	inner core.Module
	v     int
	t     *tracer
}

func (m *timedMod) Step(ctx *core.Context) {
	t0 := m.t.now()
	m.inner.Step(ctx)
	t1 := m.t.now()
	c := &m.t.steps[m.v]
	c.ns += t1 - t0
	c.steps++
	m.t.keep("module.step", ctx.Phase(), t0, t1)
}

type timedSnap struct {
	timedMod
	s core.Snapshotter
}

func (m *timedSnap) SnapshotState() ([]byte, error) {
	b, err := m.s.SnapshotState()
	m.t.snapBytes.Add(int64(len(b)))
	return b, err
}

func (m *timedSnap) RestoreState(b []byte) error { return m.s.RestoreState(b) }

type timedDelta struct {
	timedSnap
	d core.DeltaSnapshotter
}

func (m *timedDelta) AppendDelta(dst, base []byte) ([]byte, bool, error) {
	return m.d.AppendDelta(dst, base)
}

func (m *timedDelta) ApplyDelta(base, delta []byte) error { return m.d.ApplyDelta(base, delta) }

// linkTimes accumulates one link's timed Send and Recv calls. Each
// side is driven by one goroutine; the atomics only publish the totals.
type linkTimes struct {
	tr                 distrib.Transport
	sendNs, sendFrames atomic.Int64
	recvNs, recvFrames atomic.Int64
}

// timedNet wraps a Network so every link it builds is timed.
type timedNet struct {
	inner distrib.Network
	t     *tracer
}

func (n *timedNet) Name() string { return n.inner.Name() }
func (n *timedNet) Close() error { return n.inner.Close() }

func (n *timedNet) Link(from, to, depth int) (distrib.Transport, error) {
	tr, err := n.inner.Link(from, to, depth)
	if err != nil {
		return nil, err
	}
	lt := &linkTimes{tr: tr}
	n.t.mu.Lock()
	n.t.links = append(n.t.links, lt)
	n.t.mu.Unlock()
	tt := &timedTransport{inner: tr, lt: lt, t: n.t}
	if fl, ok := tr.(distrib.Flusher); ok {
		// The egress loop flushes batching links before it blocks; a
		// wrapper that hid Flusher would break that invariant.
		return &timedFlushTransport{tt, fl}, nil
	}
	return tt, nil
}

type timedTransport struct {
	inner distrib.Transport
	lt    *linkTimes
	t     *tracer
}

func (l *timedTransport) Send(f distrib.Frame) error {
	t0 := l.t.now()
	err := l.inner.Send(f)
	t1 := l.t.now()
	l.lt.sendNs.Add(t1 - t0)
	l.lt.sendFrames.Add(1)
	l.t.keep("distrib.send", f.Phase, t0, t1)
	return err
}

func (l *timedTransport) Recv() (distrib.Frame, error) {
	t0 := l.t.now()
	f, err := l.inner.Recv()
	t1 := l.t.now()
	if err == nil {
		l.lt.recvNs.Add(t1 - t0)
		l.lt.recvFrames.Add(1)
		l.t.keep("distrib.recv_wait", f.Phase, t0, t1)
	}
	return f, err
}

func (l *timedTransport) Close() error             { return l.inner.Close() }
func (l *timedTransport) DrainDiscard()            { l.inner.DrainDiscard() }
func (l *timedTransport) Stats() distrib.LinkStats { return l.inner.Stats() }

type timedFlushTransport struct {
	*timedTransport
	fl distrib.Flusher
}

func (l *timedFlushTransport) Ready() bool  { return l.fl.Ready() }
func (l *timedFlushTransport) Flush() error { return l.fl.Flush() }

// linkTotals sums every timed link.
type linkTotals struct {
	sendNs, sendFrames, recvNs, recvFrames int64
	values                                 int64
	blocked                                time.Duration
}

func (t *tracer) linkTotals() linkTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	var lt linkTotals
	for _, l := range t.links {
		lt.sendNs += l.sendNs.Load()
		lt.sendFrames += l.sendFrames.Load()
		lt.recvNs += l.recvNs.Load()
		lt.recvFrames += l.recvFrames.Load()
		st := l.tr.Stats()
		lt.values += st.Values
		lt.blocked += st.Blocked
	}
	return lt
}

// wireCapture collects what the TCP wire and flush taps saw: egress
// bytes and frames, flushes, and a sample of data frames to re-run
// through the codec.
type wireCapture struct {
	mu      sync.Mutex
	bytes   int64
	flushes int64
	flushed int64
	sample  []netwire.WireFrame
}

const wireSample = 4096

func (w *wireCapture) install(n *distrib.TCPNetwork) {
	n.SetWireTap(func(in bool, from, to int, f netwire.WireFrame, wireBytes int) {
		if in || f.Kind != netwire.FrameData {
			return
		}
		w.mu.Lock()
		w.bytes += int64(wireBytes)
		if len(w.sample) < wireSample {
			c := f
			c.Inputs = append([]core.ExtInput(nil), f.Inputs...)
			w.sample = append(w.sample, c)
		}
		w.mu.Unlock()
	})
	n.SetFlushTap(func(from, to int, frames, wireBytes int) {
		w.mu.Lock()
		w.flushes++
		w.flushed += int64(frames)
		w.mu.Unlock()
	})
}

// codecTimes re-runs the captured frames through AppendFrame and
// DecodeFrame and returns the mean ns per frame of each.
func (w *wireCapture) codecTimes() (encNs, decNs float64, err error) {
	if len(w.sample) == 0 {
		return 0, 0, nil
	}
	const rounds = 50
	payloads := make([][]byte, len(w.sample))
	var buf []byte
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i, f := range w.sample {
			buf = netwire.AppendFrame(buf[:0], f)
			if r == 0 {
				payloads[i] = append([]byte(nil), buf...)
			}
		}
	}
	enc := time.Since(t0)
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for i, p := range payloads {
			f, err := netwire.DecodeFrame(p)
			if err != nil {
				return 0, 0, fmt.Errorf("decoding captured frame %d: %w", i, err)
			}
			if f.Phase != w.sample[i].Phase || len(f.Inputs) != len(w.sample[i].Inputs) {
				return 0, 0, fmt.Errorf("captured frame %d did not round-trip", i)
			}
		}
	}
	dec := time.Since(t0)
	n := float64(rounds * len(w.sample))
	return float64(enc.Nanoseconds()) / n, float64(dec.Nanoseconds()) / n, nil
}

// phaseSpans adds each sampled phase's root span (input entered →
// terminal sink stepped) and links the phase's child spans to it.
func (t *tracer) phaseSpans(fed, done func(p int) int64, phases int) {
	if t.spansOff.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	root := make(map[int]int)
	for p := spanEvery; p <= phases; p += spanEvery {
		if f, d := fed(p), done(p); f > 0 && d > 0 {
			root[p] = len(t.spans)
			t.spans = append(t.spans, span{Name: "phase", Phase: p, Start: f, End: d, Parent: -1})
		}
	}
	for i := range t.spans {
		if t.spans[i].Parent == -2 {
			if r, ok := root[t.spans[i].Phase]; ok {
				t.spans[i].Parent = r
			} else {
				t.spans[i].Parent = -1
			}
		}
	}
}

// selfTimes summarizes spans by name: count, total duration, and self
// time — a span's duration minus the part of it its children cover.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalNs int64   `json:"total_ns"`
	SelfNs  int64   `json:"self_ns"`
	MeanNs  float64 `json:"mean_ns"`
}

func selfTimes(spans []span) []selfTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := make(map[string]*selfTime)
	for i, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			by[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.TotalNs += d
		st.SelfNs += d - covered(s, children[i])
	}
	var out []selfTime
	for _, st := range by {
		st.MeanNs = float64(st.TotalNs) / float64(st.Count)
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
			continue
		}
		curE = max(curE, x[1])
	}
	return total + curE - curS
}

// write stores the spans and their self-time summary as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	doc := struct {
		Spans []span     `json:"spans"`
		Self  []selfTime `json:"self_times"`
	}{t.spans, selfTimes(t.spans)}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
