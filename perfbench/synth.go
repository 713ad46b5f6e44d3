package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/graph"
)

// The synthetic workloads run a layered graph of the benchmark's own
// hash modules. Every vertex emits on every output edge in every phase,
// so every vertex fires in every phase and the expected outputs have a
// closed form the reference loop below computes without the program.

// ringLen is the per-module history of folded inputs. It makes module
// state (and so every snapshot) more than one word.
const ringLen = 8

// shape is a layered graph in construction ids (0-based, layer by
// layer, terminal sink last). Construction order is topological.
type shape struct {
	width int
	pred  [][]int // pred[id] lists construction ids
	sink  int     // the terminal sink's construction id
}

// shapeSeed fixes each workload's graph: the run's seed varies the
// module salts and the inputs, not the amount of work per phase.
const shapeSeed = 0x5ca1ab1e

// newShape draws a layered graph: layer 0 holds the sources, each
// later vertex takes fanin distinct predecessors from the layer before,
// and one terminal sink reads every vertex of the last layer.
func newShape(layers, width, fanin int) *shape {
	rng := rand.New(rand.NewSource(shapeSeed))
	n := layers*width + 1
	s := &shape{width: width, pred: make([][]int, n), sink: n - 1}
	for l := 1; l < layers; l++ {
		for i := 0; i < width; i++ {
			perm := rng.Perm(width)
			for k := 0; k < fanin; k++ {
				s.pred[l*width+i] = append(s.pred[l*width+i], (l-1)*width+perm[k])
			}
		}
	}
	for i := 0; i < width; i++ {
		s.pred[s.sink] = append(s.pred[s.sink], (layers-1)*width+i)
	}
	return s
}

func (s *shape) n() int { return len(s.pred) }

// number builds and numbers the program's graph for the shape.
func (s *shape) number() (*graph.Numbered, error) {
	g := graph.New()
	g.AddVertices(s.n())
	for w, ps := range s.pred {
		for _, u := range ps {
			if err := g.AddEdge(u, w); err != nil {
				return nil, err
			}
		}
	}
	return g.Number()
}

// synth is one synthetic workload instance: the shape, the seed-derived
// module salts and inputs, and the numbered graph handed to the program.
type synth struct {
	seed  uint64
	sh    *shape
	grain int
	salts []uint64 // by construction id
	ng    *graph.Numbered
	idx   []int // construction id -> vertex index
	// perturb, when positive, is one more than the construction id of
	// a vertex whose module gets a different salt than the reference
	// loop uses. Only the negative-control tests set it.
	perturb int
}

func newSynth(seed uint64, layers, width, fanin, grain int) (*synth, error) {
	sh := newShape(layers, width, fanin)
	ng, err := sh.number()
	if err != nil {
		return nil, fmt.Errorf("numbering the synthetic graph: %w", err)
	}
	sy := &synth{seed: seed, sh: sh, grain: grain, ng: ng,
		salts: make([]uint64, sh.n()), idx: make([]int, sh.n())}
	for id := range sy.salts {
		sy.salts[id] = mix64(seed ^ uint64(id+1)*0xd1b54a32d192ed03)
		sy.idx[id] = ng.IndexOf(id)
	}
	return sy, nil
}

// extAt is the external reading for phase p: one value, delivered to
// one source chosen by the phase. It returns the source's construction
// id and the value.
func (sy *synth) extAt(p int) (int, int64) {
	h := mix64(sy.seed ^ uint64(p)*0x94d049bb133111eb)
	return int(h % uint64(sy.sh.width)), int64(h >> 11)
}

// batch is phase p's external input in the program's vertex numbering.
func (sy *synth) batch(p int) []core.ExtInput {
	id, x := sy.extAt(p)
	return []core.ExtInput{{Vertex: sy.idx[id], Port: 0, Val: event.Int(x)}}
}

// batches materializes phases 1..n.
func (sy *synth) batches(n int) [][]core.ExtInput {
	out := make([][]core.ExtInput, n)
	for p := 1; p <= n; p++ {
		out[p-1] = sy.batch(p)
	}
	return out
}

// record is what a run leaves behind at its edges: per phase, when its
// input entered (the feed call or the first source Step), when the
// terminal sink stepped, and the sink's digest. Index p holds phase p.
type record struct {
	fed  []atomic.Int64 // ns since base; 0 = not yet
	done []int64        // ns since base; 0 = never
	out  []uint64
	base time.Time
}

func newRecord(phases int, base time.Time) *record {
	return &record{
		fed:  make([]atomic.Int64, phases+1),
		done: make([]int64, phases+1),
		out:  make([]uint64, phases+1),
		base: base,
	}
}

func (r *record) now() int64 { return int64(time.Since(r.base)) + 1 }

// markFed records the first time phase p's input entered the program.
func (r *record) markFed(p int) {
	if p < len(r.fed) && r.fed[p].Load() == 0 {
		r.fed[p].CompareAndSwap(0, r.now())
	}
}

// mods builds fresh module instances in vertex-index order; rec
// receives the source and sink stamps and the sink's digests.
func (sy *synth) mods(rec *record) []core.Module {
	mods := make([]core.Module, sy.sh.n())
	for id := range mods {
		m := &hashMod{salt: sy.salts[id], grain: sy.grain}
		if id == sy.perturb-1 {
			m.salt ^= 1
		}
		switch {
		case id == sy.sh.sink:
			m.role = roleSink
		case id < sy.sh.width:
			m.role = roleSource
		}
		m.rec = rec
		mods[sy.idx[id]-1] = m
	}
	return mods
}

const (
	roleInner = iota
	roleSource
	roleSink
)

// hashMod is the synthetic workloads' module: it folds the hashes of
// the values it received into its state, spins grain extra mixing
// rounds, and emits the new state on every output edge. It is a
// core.Snapshotter, so durable and rebalancing runs can move it.
type hashMod struct {
	salt  uint64
	grain int
	role  int
	acc   uint64
	ring  [ringLen]uint64
	rec   *record
}

func (m *hashMod) Step(ctx *core.Context) {
	p := ctx.Phase()
	if m.role == roleSource {
		m.rec.markFed(p)
	}
	var in uint64
	for port := 0; port < ctx.Ports(); port++ {
		if v, ok := ctx.In(port); ok {
			x, _ := v.AsInt()
			in += mix64(uint64(x))
		}
	}
	m.acc = fold(m.acc, &m.ring, m.salt, p, in, m.grain)
	if m.role != roleSink {
		ctx.EmitAll(event.Int(int64(m.acc >> 11)))
		return
	}
	if p < len(m.rec.out) {
		m.rec.out[p] = m.acc
		m.rec.done[p] = m.rec.now()
	}
}

// SnapshotState implements core.Snapshotter: the accumulator and ring.
func (m *hashMod) SnapshotState() ([]byte, error) {
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, 8*(ringLen+1)), m.acc)
	for _, x := range m.ring {
		buf = binary.LittleEndian.AppendUint64(buf, x)
	}
	return buf, nil
}

// RestoreState implements core.Snapshotter.
func (m *hashMod) RestoreState(b []byte) error {
	if len(b) != 8*(ringLen+1) {
		return fmt.Errorf("hash module: snapshot of %d bytes", len(b))
	}
	m.acc = binary.LittleEndian.Uint64(b)
	for i := range m.ring {
		m.ring[i] = binary.LittleEndian.Uint64(b[8*(i+1):])
	}
	return nil
}

// fold is one module execution: mix the received-input hash, the
// phase and the input seen ringLen phases ago into the state.
func fold(acc uint64, ring *[ringLen]uint64, salt uint64, p int, in uint64, grain int) uint64 {
	slot := p % ringLen
	old := ring[slot]
	ring[slot] = in
	h := mix64(acc ^ salt ^ in ^ (old<<17 | old>>47) ^ uint64(p)*0x9e3779b97f4a7c15)
	for i := 0; i < grain; i++ {
		h = mix64(h)
	}
	return h
}

// reference computes the terminal sink's digest for phases 1..phases
// with a plain loop over the shape in construction order. It shares
// only fold and the input generator with the modules; it does not use
// the program's numbering, engine, executors or module interface.
func (sy *synth) reference(phases int) []uint64 {
	n := sy.sh.n()
	acc := make([]uint64, n)
	ring := make([][ringLen]uint64, n)
	emitted := make([]uint64, n)
	out := make([]uint64, phases+1)
	for p := 1; p <= phases; p++ {
		extID, extVal := sy.extAt(p)
		for id := 0; id < n; id++ {
			var in uint64
			if id < sy.sh.width {
				if id == extID {
					in = mix64(uint64(extVal))
				}
			} else {
				for _, u := range sy.sh.pred[id] {
					in += mix64(emitted[u])
				}
			}
			acc[id] = fold(acc[id], &ring[id], sy.salts[id], p, in, sy.grain)
			emitted[id] = acc[id] >> 11
		}
		out[p] = acc[sy.sh.sink]
	}
	return out
}

// cutEdges counts the shape's edges whose ends land on different
// machines under the partition starts (vertex-index start of each
// machine), computed from the shape's own edge list.
func (sy *synth) cutEdges(starts []int) int {
	machineOf := func(v int) int {
		m := 0
		for i, s := range starts {
			if v >= s {
				m = i
			}
		}
		return m
	}
	cut := 0
	for w, ps := range sy.sh.pred {
		for _, u := range ps {
			if machineOf(sy.idx[u]) != machineOf(sy.idx[w]) {
				cut++
			}
		}
	}
	return cut
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
