package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/crdt"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/ot"
	"repro/internal/session"
	"repro/internal/transport"
)

// replica is one member process's state, hosted in the benchmark process:
// its own TCP endpoint, a session client and an engine replica, wired the
// way cmd/cscwctl wires them (transport.ListenTCP -> fabric.FromTransport
// -> session.NewClientForDoc -> engine.New, engine item bodies in OnItem).
type replica struct {
	b    *bench
	id   string
	doc  *docState
	core bool // a member for the whole run: every edit must reach it

	ep *fabric.TransportEndpoint
	rx rxStamps // the inbound frame being handled (traced runs)
	tx txStamps // the outbound frame being sent (traced runs)

	mu   sync.Mutex // guards cli, eng, n, join and the engine state
	cli  *session.Client
	eng  engine.Doc
	n    int // document length, never above the engine's (see lengthDelta)
	join *joinRec

	// Live edits this replica types, in schedule order; the engine numbers
	// them liveBase+1, liveBase+2, ... after its prefill ops.
	live     []*editRec
	liveBase uint64

	remoteApplied atomic.Int64 // ops by other sites applied here
}

// rxStamps are set by the traced transport and codec on the endpoint's
// read goroutine and read by OnItem on the same goroutine.
type rxStamps struct {
	frame, decStart, decEnd atomic.Int64
	ackBytes, ackItems      atomic.Int64 // last MsgJoinAck decoded
}

// txStamps are set by the traced codec and transport inside one Post.
type txStamps struct {
	encStart, encEnd, sendStart, sendEnd atomic.Int64
}

func (b *bench) newReplica(id string, doc *docState, core bool) (*replica, error) {
	r := &replica{b: b, id: id, doc: doc, core: core}
	book := transport.NewAddressBook()
	book.Set("host", b.daemon.addr)
	tep, err := transport.ListenTCP(id, "127.0.0.1:0", book)
	if err != nil {
		return nil, err
	}
	var tend transport.Endpoint = tep
	codec := b.codec
	if b.tr != nil {
		tend = &tracedTransport{Endpoint: tep, r: r}
		codec = &tracedCodec{inner: codec, r: r}
	}
	r.ep = fabric.FromTransport(tend, codec)
	if err := r.ep.Send("host", &fabric.Hello{Addr: tep.Addr()}, 0); err != nil {
		r.ep.Close()
		return nil, fmt.Errorf("%s: reach sessiond: %w", id, err)
	}
	return r, nil
}

// rejoin leaves (if joined) and joins again with a fresh client and a
// fresh engine replica, so the join asks for the whole log (Since=0).
func (r *replica) rejoin(rec *joinRec) error {
	b := r.b
	eng, err := engine.New(b.w.engine, r.doc.spec.name, r.id, session.HostAuthor)
	if err != nil {
		return err
	}
	r.mu.Lock()
	if r.cli != nil && r.cli.Joined() {
		if err := r.cli.Leave(0); err != nil {
			r.mu.Unlock()
			return err
		}
	}
	cli := session.NewClientForDoc(&ackGate{Endpoint: r.ep}, "host", r.doc.spec.name)
	cli.OnJoined = func(session.Mode, []string) { r.onJoined(cli) }
	cli.OnItem = func(it session.Item) { r.onItem(cli, it) }
	r.cli, r.eng, r.n, r.join = cli, eng, 0, rec
	rec.sent = b.now()
	r.mu.Unlock()
	return cli.Join(0)
}

func (r *replica) onJoined(cli *session.Client) {
	now := r.b.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.join
	if cli != r.cli || rec == nil || rec.acked != 0 {
		return
	}
	rec.acked = now
	rec.target = cli.LastSeq()
	rec.ackBytes = r.rx.ackBytes.Load()
	rec.backlog = r.rx.ackItems.Load()
	if rec.target == 0 {
		r.b.finishJoin(rec, now)
	}
}

// onItem handles one session item the way cscwctl does: decode the engine
// body, skip what is addressed to another site, apply the rest and post
// whatever the engine answers (an OT client releasing its next submission).
func (r *replica) onItem(cli *session.Client, it session.Item) {
	b := r.b
	rxStart := r.rx.frame.Load()
	t0 := b.now()
	traceOn := b.tr.on(t0)
	if traceOn {
		b.tr.count("session.items", 1)
	}
	if it.Kind != engine.ItemKind {
		return
	}
	to, payload, err := engine.DecodeItemBody(b.engCodec, it.Body)
	t1 := b.now()
	if err != nil {
		b.fail(fmt.Errorf("%s: decode item %d: %w", r.id, it.Seq, err))
		return
	}
	r.mu.Lock()
	if cli != r.cli {
		r.mu.Unlock()
		return
	}
	site, seq := opKey(payload)
	var t2, t3 int64
	applied := to == "" || to == r.id
	if applied {
		t2 = b.now()
		out, err := r.eng.Apply(it.From, payload)
		t3 = b.now()
		if err != nil {
			b.fail(fmt.Errorf("%s: apply item %d: %w", r.id, it.Seq, err))
		} else {
			r.n += lengthDelta(payload, r.id)
		}
		r.postLocked(out, -1)
	}
	if rec := r.join; rec != nil && rec.acked != 0 && rec.finish == 0 && it.Seq >= rec.target {
		r.b.finishJoin(rec, b.now())
	}
	r.mu.Unlock()

	if traceOn {
		b.tr.sample("engine.item_decode_us", us(t1-t0))
		if applied {
			b.tr.count("session.useful_items", 1)
			b.tr.sample("engine.apply_us", us(t3-t2))
		}
	}
	if !applied || site == "" || site == r.id {
		return
	}
	r.remoteApplied.Add(1)
	if r.core {
		b.markVisible(r, site, seq, rxStart, [4]int64{t0, t1, t2, t3})
	}
}

// opKey names the edit a payload carries by the (Site, Seq) the engines
// already stamp: ot.Committed for OT, crdt.Op for CRDT. Other payloads
// (OT submissions, pulls) carry no visible edit.
func opKey(payload any) (string, uint64) {
	switch m := payload.(type) {
	case *engine.MsgCommit:
		return m.C.Site, m.C.Seq
	case *crdt.MsgOp:
		return m.Op.Site, m.Op.Seq
	}
	return "", 0
}

// lengthDelta is how much an applied remote op can change the document
// length. Tracking the length this way keeps the benchmark from rendering
// the whole text before every edit just to pick a position. It can only
// undercount, which keeps positions valid: a delete whose target another
// site deleted concurrently counts -1 but removes nothing.
func lengthDelta(payload any, self string) int {
	switch m := payload.(type) {
	case *engine.MsgCommit:
		if m.C.Site == self {
			return 0 // the ack of our own op, applied when we made it
		}
		switch m.C.Op.Kind {
		case ot.Insert:
			return 1
		case ot.Delete:
			return -1
		}
	case *crdt.MsgOp:
		switch m.Op.Kind {
		case crdt.OpSeqInsert:
			return 1
		case crdt.OpSeqDelete:
			return -1
		}
	}
	return 0
}

// sentKey returns the local sequence number of the edit an outbound
// message carries, or 0.
func sentKey(payload any) uint64 {
	switch m := payload.(type) {
	case *engine.MsgSubmit:
		return m.Sub.Seq
	case *crdt.MsgOp:
		return m.Op.Seq
	}
	return 0
}

// liveEdit returns the live edit this replica numbered seq, or nil for a
// prefill op.
func (r *replica) liveEdit(seq uint64) *editRec {
	if seq <= r.liveBase || seq > r.liveBase+uint64(len(r.live)) {
		return nil
	}
	return r.live[seq-r.liveBase-1]
}

// edit applies one local edit at op's position scaled to the document
// length and posts its messages. Callers must not hold r.mu.
func (r *replica) edit(op editOp, e *editRec) error {
	b := r.b
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.n
	t0 := b.now()
	var msgs []engine.Msg
	var err error
	if op.insert {
		msgs, err = r.eng.Insert(min(int(op.u*float64(n+1)), n), op.ch)
	} else {
		if n == 0 {
			return fmt.Errorf("%s: delete from an empty document", r.id)
		}
		msgs, err = r.eng.Delete(min(int(op.u*float64(n)), n-1))
	}
	t1 := b.now()
	if err != nil {
		return fmt.Errorf("%s: local edit: %w", r.id, err)
	}
	if op.insert {
		r.n++
	} else {
		r.n--
	}
	var parent int32 = -1
	if e != nil {
		if b.tr.on(t0) {
			b.tr.sample("engine.local_edit_us", us(t1-t0))
			pend := r.eng.Pending()
			if b.w.engine == engine.OT && pend > 0 {
				pend-- // the in-flight submission itself
			}
			b.tr.sample("engine.ot_pending", float64(pend))
		}
		if e.traced {
			parent = b.tr.newID()
			b.tr.span(e.traceID, "engine.local_edit", r.id, parent, t0, t1)
		}
	}
	r.postLocked(msgs, parent)
	if e != nil && e.traced {
		b.tr.spanID(parent, e.traceID, "sender", r.id, e.rootID, e.start, b.now())
	}
	return nil
}

// postLocked encodes and posts engine messages as session items. When the
// live edit a message carries is traced, its encode and post get spans
// under parent, or under the edit's root for a submission the OT client
// released later. Callers hold r.mu.
func (r *replica) postLocked(msgs []engine.Msg, parent int32) {
	b := r.b
	for _, m := range msgs {
		t0 := b.now()
		body, err := engine.EncodeItemBody(b.engCodec, m)
		t1 := b.now()
		if err != nil {
			b.fail(fmt.Errorf("%s: encode: %w", r.id, err))
			return
		}
		if err := r.cli.Post(engine.ItemKind, body, 0); err != nil {
			b.fail(fmt.Errorf("%s: post: %w", r.id, err))
			return
		}
		t2 := b.now()
		if b.tr.on(t0) {
			b.tr.sample("engine.item_encode_us", us(t1-t0))
			b.tr.sample("session.post_us", us(t2-t1))
		}
		if e := r.liveEdit(sentKey(m.Body)); e != nil && e.traced {
			p := parent
			if p < 0 {
				p = e.rootID
			}
			tr := e.traceID
			b.tr.span(tr, "engine.item_encode", r.id, p, t0, t1)
			post := b.tr.newID()
			b.tr.spanID(post, tr, "session.post", r.id, p, t1, t2)
			b.tr.span(tr, "fabric.encode", r.id, post, r.tx.encStart.Load(), r.tx.encEnd.Load())
			b.tr.span(tr, "transport.send", r.id, post, r.tx.sendStart.Load(), r.tx.sendEnd.Load())
		}
	}
}

// text and pending read the replica under its lock.
func (r *replica) text() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eng.Text()
}

func (r *replica) pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eng.Pending()
}

// ackGate holds back pushes from a fresh client until its join ack
// arrives. Pushes the host sent before it processed the previous client's
// leave can still be in flight on the reused endpoint; a fresh client would
// take them as items and then skip their part of the join backlog.
type ackGate struct {
	fabric.Endpoint
	acked atomic.Bool
}

func (g *ackGate) SetHandler(h fabric.Handler) {
	g.Endpoint.SetHandler(func(from string, payload any, size int) {
		if !g.acked.Load() {
			switch payload.(type) {
			case *session.MsgItems:
				return
			case *session.MsgJoinAck:
				g.acked.Store(true)
			}
		}
		h(from, payload, size)
	})
}

// tracedTransport times the byte transport under fabric: each Send, and
// each inbound frame's arrival at the handler.
type tracedTransport struct {
	transport.Endpoint
	r *replica
}

func (t *tracedTransport) Send(to string, data []byte) error {
	b := t.r.b
	t0 := b.now()
	err := t.Endpoint.Send(to, data)
	t1 := b.now()
	t.r.tx.sendStart.Store(t0)
	t.r.tx.sendEnd.Store(t1)
	if b.tr.on(t0) {
		b.tr.sample("transport.send_us", us(t1-t0))
	}
	return err
}

func (t *tracedTransport) SetHandler(h transport.Handler) {
	t.Endpoint.SetHandler(func(from string, data []byte) {
		b := t.r.b
		now := b.now()
		t.r.rx.frame.Store(now)
		if b.tr.on(now) {
			b.tr.count("transport.frames_in", 1)
			b.tr.count("transport.bytes_in", float64(len(data)))
		}
		h(from, data)
	})
}

// tracedCodec times the session payload codec and notes join-ack sizes.
type tracedCodec struct {
	inner fabric.PayloadCodec
	r     *replica
}

func (c *tracedCodec) Encode(payload any) ([]byte, error) {
	b := c.r.b
	t0 := b.now()
	data, err := c.inner.Encode(payload)
	t1 := b.now()
	c.r.tx.encStart.Store(t0)
	c.r.tx.encEnd.Store(t1)
	if b.tr.on(t0) {
		b.tr.sample("fabric.encode_us", us(t1-t0))
	}
	return data, err
}

func (c *tracedCodec) Decode(data []byte) (any, error) {
	b := c.r.b
	t0 := b.now()
	payload, err := c.inner.Decode(data)
	t1 := b.now()
	c.r.rx.decStart.Store(t0)
	c.r.rx.decEnd.Store(t1)
	if ack, ok := payload.(*session.MsgJoinAck); ok {
		c.r.rx.ackBytes.Store(int64(len(data)))
		c.r.rx.ackItems.Store(int64(len(ack.Backlog)))
	}
	if b.tr.on(t0) {
		b.tr.count("fabric.decode_calls", 1)
		b.tr.sample("fabric.decode_us", us(t1-t0))
	}
	return payload, err
}
