package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/session"
)

// Timeouts. None of them is reached in a healthy run; each bounds how long
// a broken daemon can hold the benchmark.
const (
	joinTimeout    = 10 * time.Second
	prefillTimeout = 60 * time.Second
	drainTimeout   = 10 * time.Second
	windowLead     = 20 * time.Millisecond
)

// docState is one document's members during a run.
type docState struct {
	spec    docSpec
	members []*replica // typists, then watchers
	prefill int        // total prefill ops
}

// editRec tracks one live edit from its scheduled time to the moment the
// last other member applied it. The load generator writes start before it
// posts; the receiver that completes the edit writes visible before the
// atomic decrement that publishes it. Both are read only after the drain.
type editRec struct {
	site      string
	seq       uint64
	sched     int64        // ns since bench start: when due
	start     int64        // when the load generator began it
	visible   int64        // when the last other member applied it
	remaining atomic.Int32 // members yet to apply it
	traced    bool
	traceID   string // "r<round>/edit/<site>/<seq>", traced edits only
	rootID    int32
}

// joinRec tracks one join from its scheduled time to the moment the fresh
// replica has applied the last item of its backlog. Fields are guarded by
// the joining replica's mutex until done is closed.
type joinRec struct {
	n                   int
	sched, start        int64
	sent, acked, finish int64
	target              uint64
	ackBytes, backlog   int64
	counted             bool // part of the workload's join metrics
	done                chan struct{}
}

// bench is one set-up daemon with its members: the unit that setup_s times
// and the measured window runs on.
type bench struct {
	w        *workload
	round    int
	sch      schedule
	tr       *tracer
	t0       time.Time // origin of every ns stamp
	codec    fabric.PayloadCodec
	engCodec fabric.PayloadCodec
	daemon   *daemon

	docs    []*docState
	typists []*replica
	joiners []*replica
	all     []*replica
	bySite  map[string]*replica // typists by engine site id

	edits       []*editRec        // in schedule order
	live        [][]*editRec      // per typist, in schedule order
	liveBase    map[string]uint64 // prefill ops per member
	joins       []*joinRec
	audits      []*joinRec
	outstanding atomic.Int64 // live edits and joins not yet complete

	errMu sync.Mutex
	errs  []error
	nerrs atomic.Int64
}

func (b *bench) now() int64 { return int64(time.Since(b.t0)) }

// fail records a correctness or protocol failure. The first few are kept
// for the report.
func (b *bench) fail(err error) {
	if b.nerrs.Add(1) <= 5 {
		b.errMu.Lock()
		b.errs = append(b.errs, err)
		b.errMu.Unlock()
	}
}

func newBench(w *workload, round int, sch schedule, traced bool) *bench {
	reg := session.NewWireCodec()
	fabric.RegisterBase(reg)
	b := &bench{
		w: w, round: round, sch: sch, t0: time.Now(),
		codec:    reg,
		engCodec: fabric.NewBinaryCodec(engine.NewWireCodec()),
		bySite:   make(map[string]*replica),
	}
	if w.codec == "binary" {
		b.codec = fabric.NewBinaryCodec(reg)
	}
	if traced {
		b.tr = newTracer()
	}
	// Number every live edit as its typist's engine will: after the ops
	// that member posts in the prefill.
	b.liveBase = make(map[string]uint64)
	var typists []string
	var docSize []int
	for di, d := range w.docs {
		for mi, id := range d.members() {
			for _, op := range sch.prefill[di] {
				if op.member == mi {
					b.liveBase[id]++
				}
			}
		}
		typists = append(typists, d.typists...)
		for range d.typists {
			docSize = append(docSize, len(d.members()))
		}
	}
	b.live = make([][]*editRec, len(typists))
	for _, ev := range sch.edits {
		id := typists[ev.typist]
		e := &editRec{
			site:   id,
			seq:    b.liveBase[id] + uint64(len(b.live[ev.typist])) + 1,
			traced: traced && int64(ev.at)/traceSlice%2 == 1,
		}
		if e.traced {
			e.rootID = b.tr.newID()
			e.traceID = fmt.Sprintf("r%d/edit/%s/%d", round, e.site, e.seq)
		}
		e.remaining.Store(int32(docSize[ev.typist] - 1))
		b.edits = append(b.edits, e)
		b.live[ev.typist] = append(b.live[ev.typist], e)
	}
	return b
}

// setup starts the daemon, joins every member, delivers the prefill to all
// of them and returns how long that took. The go build is not part of it.
func (b *bench) setup(bin, dir string) (time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(bin, b.w.flags, dir)
	if err != nil {
		return 0, err
	}
	b.daemon = d
	for di, spec := range b.w.docs {
		ds := &docState{spec: spec, prefill: len(b.sch.prefill[di])}
		b.docs = append(b.docs, ds)
		for i, id := range spec.members() {
			r, err := b.newReplica(id, ds, true)
			if err != nil {
				return 0, err
			}
			r.liveBase = b.liveBase[id]
			ds.members = append(ds.members, r)
			b.all = append(b.all, r)
			if i < len(spec.typists) {
				r.live = b.live[len(b.typists)]
				b.typists = append(b.typists, r)
				b.bySite[id] = r
			}
		}
	}
	for _, id := range b.w.joiners {
		r, err := b.newReplica(id, b.docs[0], false)
		if err != nil {
			return 0, err
		}
		b.joiners = append(b.joiners, r)
		b.all = append(b.all, r)
	}
	// Members join together; joiners join like everyone else and are
	// re-joined by the schedule.
	var recs []*joinRec
	for _, r := range b.all {
		rec := &joinRec{done: make(chan struct{})}
		recs = append(recs, rec)
		if err := r.rejoin(rec); err != nil {
			return 0, err
		}
	}
	for i, rec := range recs {
		if !waitDone(rec.done, joinTimeout) {
			return 0, fmt.Errorf("%s: initial join timed out", b.all[i].id)
		}
	}
	if err := b.prefill(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// prefill posts every document's prefill ops and waits until each core
// member has applied all of them and has nothing in flight.
func (b *bench) prefill() error {
	var wg sync.WaitGroup
	errc := make(chan error, len(b.all))
	for di, ds := range b.docs {
		for mi, r := range ds.members {
			var mine []editOp
			for _, op := range b.sch.prefill[di] {
				if op.member == mi {
					mine = append(mine, op.editOp)
				}
			}
			if len(mine) == 0 {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, op := range mine {
					if err := r.edit(op, nil); err != nil {
						errc <- err
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		return err
	}
	deadline := time.Now().Add(prefillTimeout)
	for {
		ready := true
		for _, ds := range b.docs {
			for _, r := range ds.members {
				if r.remoteApplied.Load() < int64(ds.prefill)-int64(r.liveBase) || r.pending() != 0 {
					ready = false
				}
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("prefill not delivered to every member in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// close leaves nothing running: member endpoints first, then the daemon.
func (b *bench) close() {
	for _, r := range b.all {
		r.ep.Close()
	}
	if b.daemon != nil {
		b.daemon.stop()
	}
}

func waitDone(done <-chan struct{}, d time.Duration) bool {
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// finishJoin marks a join complete. Callers hold the joining replica's
// mutex.
func (b *bench) finishJoin(rec *joinRec, now int64) {
	rec.finish = now
	close(rec.done)
	if rec.counted {
		b.outstanding.Add(-1)
	}
}

// markVisible records that core member r applied edit (site, seq); the
// last member to do so completes the edit. stamps are r's decode start and
// end and apply start and end.
func (b *bench) markVisible(r *replica, site string, seq uint64, rxStart int64, stamps [4]int64) {
	t := b.bySite[site]
	if t == nil {
		return
	}
	e := t.liveEdit(seq)
	if e == nil {
		return
	}
	if e.traced {
		tr := e.traceID
		recv := b.tr.newID()
		b.tr.spanID(recv, tr, "receiver", r.id, e.rootID, rxStart, stamps[3])
		b.tr.span(tr, "fabric.decode", r.id, recv, r.rx.decStart.Load(), r.rx.decEnd.Load())
		b.tr.span(tr, "engine.item_decode", r.id, recv, stamps[0], stamps[1])
		b.tr.span(tr, "engine.apply", r.id, recv, stamps[2], stamps[3])
	}
	if e.remaining.Add(-1) == 0 {
		e.visible = stamps[3]
		b.outstanding.Add(-1)
	}
}
