package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/engine"
)

// docSpec is one document and the members that hold a replica of it for
// the whole run. Typists edit; watchers only receive.
type docSpec struct {
	name     string
	typists  []string
	watchers []string
}

func (d docSpec) members() []string {
	return append(append([]string(nil), d.typists...), d.watchers...)
}

// workload is one traffic mix against one sessiond configuration. Load is
// open loop: edits and joins follow a schedule fixed by the seed, whatever
// the daemon does.
type workload struct {
	name   string
	why    string
	flags  []string // sessiond flags besides -listen
	codec  string   // session wire codec: json or binary (matches -codec)
	engine string   // engine.OT or engine.CRDT (matches -engine)
	docs   []docSpec
	rate   float64 // offered edits/s over all typists

	// Prefill: the first prefillInserts ops of each document are inserts,
	// the rest hold its length near targetLen. Every prefill op goes
	// through the daemon before the window opens.
	prefillInserts int
	prefillOps     int
	// prefillAll spreads the prefill over every member of the document
	// (OT keeps one submission in flight per site, so one site would pay
	// a round trip per op); otherwise the first typist posts it alone.
	prefillAll bool

	// rounds splits a run into this many rounds, each on a fresh daemon:
	// as many as leave each round of a 20 s run 1,200+ edits (p99 is
	// supported), or, where set-up is long and the rate low, as many as
	// keep set-up from dominating the run.
	rounds int

	// Late joiners of docs[0]: each join event makes one of them leave and
	// rejoin with Since=0 and a fresh replica.
	joiners  []string
	joinRate float64 // joins/s over all joiners
}

// targetLen is the document length every workload holds its documents
// near, so per-edit costs that scale with length do not drift over a run.
const targetLen = 2000

var workloads = []*workload{
	{
		name:           "ot-group4",
		why:            "sessiond -engine ot -codec binary; 1 doc, 2 typists + 2 watchers; 1000 edits/s: widest fan-out, daemon OT integration and logging, no JSON; loopback wall-clock",
		flags:          []string{"-engine", "ot", "-codec", "binary"},
		codec:          "binary",
		engine:         engine.OT,
		docs:           []docSpec{{name: "g4", typists: []string{"t0", "t1"}, watchers: []string{"w0", "w1"}}},
		rate:           1000,
		prefillInserts: targetLen,
		prefillOps:     targetLen,
		prefillAll:     true,
		rounds:         16,
	},
	{
		name:   "crdt-rooms-json",
		why:    "sessiond defaults (JSON codec, CRDT relay); 4 docs x 2 typists; 800 edits/s: codec and MultiHost demux, 1 push per edit, no daemon engine work; loopback wall-clock",
		codec:  "json",
		engine: engine.CRDT,
		docs: []docSpec{
			{name: "r0", typists: []string{"r0a", "r0b"}},
			{name: "r1", typists: []string{"r1a", "r1b"}},
			{name: "r2", typists: []string{"r2a", "r2b"}},
			{name: "r3", typists: []string{"r3a", "r3b"}},
		},
		rate:           800,
		prefillInserts: targetLen,
		prefillOps:     targetLen,
		rounds:         12,
	},
	// join-backlog runs 4 joins/s. At 8 joins/s the joins kept the box
	// busy half the time. A neighbour slowing the CPU by a third then
	// raised edit p99 and join p95 by up to 80%, and their spread over ten
	// seeds reached 0.4 IQR/median. At 4 joins/s, interleaved with runs at
	// 8, the CPU and latency spreads were half as large or less.
	{
		name:           "join-backlog",
		why:            "sessiond -codec binary (CRDT relay); 1 doc with a 20000-op log, 2 typists at 100 edits/s, 4 joins/s with Since=0: large join acks beside live writers; loopback wall-clock",
		flags:          []string{"-codec", "binary"},
		codec:          "binary",
		engine:         engine.CRDT,
		docs:           []docSpec{{name: "backlog", typists: []string{"t0", "t1"}}},
		rate:           100,
		prefillInserts: targetLen,
		prefillOps:     20000,
		joiners:        []string{"j0", "j1"},
		joinRate:       4,
		rounds:         7,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// editOp is one generated edit. The position is a uniform draw u scaled
// to the editing replica's length when the edit is made, so the schedule
// is fixed by the seed while positions stay valid under concurrency.
type editOp struct {
	insert bool
	u      float64
	ch     rune
}

// edit is one scheduled live edit by typist (an index into the run's
// typist list) at offset at from the window start.
type edit struct {
	at     time.Duration
	typist int
	editOp
}

// joinEvent is one scheduled leave-and-rejoin of joiner at offset at.
type joinEvent struct {
	at     time.Duration
	joiner int
}

// schedule is everything the seed decides: prefill ops per document (with
// the member index that posts each) and the live edit and join streams.
type schedule struct {
	prefill [][]prefillOp
	edits   []edit
	joins   []joinEvent
}

type prefillOp struct {
	member int // index into the document's member list
	editOp
}

// lengthBias returns the insert probability that pulls a document of n
// runes back toward targetLen.
func lengthBias(n int) float64 {
	p := 0.5 + float64(targetLen-n)/400
	if p < 0.1 {
		return 0.1
	}
	if p > 0.9 {
		return 0.9
	}
	return p
}

func drawOp(rng *rand.Rand, insert bool) editOp {
	return editOp{insert: insert, u: rng.Float64(), ch: rune('a' + rng.Intn(26))}
}

// makeSchedule derives a round's inputs from seed alone.
func (w *workload) makeSchedule(seed int64, window time.Duration) schedule {
	rng := rand.New(rand.NewSource(seed))
	var s schedule
	for _, d := range w.docs {
		members := len(d.typists) + len(d.watchers)
		ops := make([]prefillOp, w.prefillOps)
		n := 0
		for i := range ops {
			ins := i < w.prefillInserts || rng.Float64() < lengthBias(n)
			ops[i].editOp = drawOp(rng, ins)
			if w.prefillAll {
				ops[i].member = i % members
			}
			if ins {
				n++
			} else {
				n--
			}
		}
		s.prefill = append(s.prefill, ops)
	}

	typists := w.typistDocs()
	perTypist := time.Duration(float64(time.Second) * float64(len(typists)) / w.rate)
	for ti := range typists {
		// Jittered fixed-rate typing: each gap is the mean gap times
		// U(0.5, 1.5), so typists are independent but never idle long.
		at := time.Duration(rng.Float64() * float64(perTypist))
		for at < window {
			s.edits = append(s.edits, edit{at: at, typist: ti})
			at += time.Duration((0.5 + rng.Float64()) * float64(perTypist))
		}
	}
	sort.SliceStable(s.edits, func(i, j int) bool { return s.edits[i].at < s.edits[j].at })
	// Insert or delete is decided in schedule order from each document's
	// nominal length, which every replica reaches once the edits so far
	// have propagated.
	lens := make([]int, len(w.docs))
	for i := range lens {
		for _, op := range s.prefill[i] {
			if op.insert {
				lens[i]++
			} else {
				lens[i]--
			}
		}
	}
	for i := range s.edits {
		d := typists[s.edits[i].typist]
		ins := rng.Float64() < lengthBias(lens[d])
		s.edits[i].editOp = drawOp(rng, ins)
		if ins {
			lens[d]++
		} else {
			lens[d]--
		}
	}

	if w.joinRate > 0 {
		// Join k falls at a uniform point in the middle half of the k-th
		// gap, so the rounds of a run hold the same number of joins,
		// give or take one; their cost dominates the daemon's and the replicas' CPU.
		gap := float64(time.Second) / w.joinRate
		for k := 0; ; k++ {
			at := time.Duration((float64(k) + 0.25 + 0.5*rng.Float64()) * gap)
			if at >= window {
				break
			}
			s.joins = append(s.joins, joinEvent{at: at, joiner: k % len(w.joiners)})
		}
	}
	return s
}

// typistDocs returns, for every typist of the workload in document order,
// the index of its document.
func (w *workload) typistDocs() []int {
	var out []int
	for di, d := range w.docs {
		for range d.typists {
			out = append(out, di)
		}
	}
	return out
}
