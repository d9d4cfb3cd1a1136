package session

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/transport"
)

// recorder is a fabric.Endpoint that records every Send in order.
type recorder struct {
	mu   sync.Mutex
	sent []sentMsg
}

type sentMsg struct {
	to      string
	payload any
}

func (r *recorder) ID() string                { return "host" }
func (r *recorder) SetHandler(fabric.Handler) {}
func (r *recorder) Close() error              { return nil }

func (r *recorder) Send(to string, payload any, _ int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sent = append(r.sent, sentMsg{to, payload})
	return nil
}

// take returns the sends recorded so far and forgets them.
func (r *recorder) take() []sentMsg {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.sent
	r.sent = nil
	return out
}

// joinedHost returns a synchronous host on a recorder with ids joined and
// their join traffic already taken.
func joinedHost(ids ...string) (*Host, *recorder) {
	rec := &recorder{}
	h := NewHost(rec, Synchronous, func() time.Duration { return 0 })
	for _, id := range ids {
		h.Receive(id, &MsgJoin{From: id})
	}
	rec.take()
	return h, rec
}

// render names each send as "to:Type" plus the sequence numbers of the
// items it carries.
func render(sent []sentMsg) []string {
	out := make([]string, len(sent))
	for i, s := range sent {
		out[i] = fmt.Sprintf("%s:%T", s.to, s.payload)
		if m, ok := s.payload.(*MsgItems); ok {
			for _, it := range m.Items {
				out[i] += fmt.Sprintf(" #%d", it.Seq)
			}
		}
	}
	return out
}

func checkSends(t *testing.T, got []sentMsg, want ...string) {
	t.Helper()
	r := render(got)
	if fmt.Sprint(r) != fmt.Sprint(want) {
		t.Errorf("sends:\n got  %q\n want %q", r, want)
	}
}

// A commit posted from OnItem rides in the same frame as the submit it
// answers: one MsgItems per peer, items in sequence order. The author gets
// the commit alone.
func TestOutboxMergesPostLocalFromOnItem(t *testing.T) {
	h, rec := joinedHost("a", "b", "c")
	h.OnItem = func(it Item) {
		if it.From != HostAuthor {
			h.PostLocal("eng/op", "commit of "+it.Body)
		}
	}
	h.Receive("a", &MsgPost{From: "a", Kind: "eng/op", Body: "submit"})
	got := rec.take()
	checkSends(t, got, "b:*session.MsgItems #1 #2", "c:*session.MsgItems #1 #2", "a:*session.MsgItems #2")
	if t.Failed() {
		return
	}
	if m := got[0].payload.(*MsgItems); m.Items[0].From != "a" || m.Items[1].From != HostAuthor {
		t.Errorf("merged frame items = %+v", m.Items)
	}
	if s := h.Stats(); s.Pushes != 5 {
		t.Errorf("pushes = %d, want 5 (merging changes frames, not pushes)", s.Pushes)
	}
}

// Any other message queued to a peer between two item pushes closes the
// earlier frame: the later items start a new one and per-peer order holds.
func TestOutboxMergeBlockedByOtherMessage(t *testing.T) {
	cases := []struct {
		name    string
		between func(h *Host)
		want    []string
	}{
		{
			name:    "presence",
			between: func(h *Host) { h.Receive("c", &MsgPresence{From: "c", State: Away}) },
			want: []string{
				"b:*session.MsgItems #1",
				"c:*session.MsgItems #1",
				"a:*session.MsgPresence",
				"b:*session.MsgPresence",
				"a:*session.MsgItems #2",
				"b:*session.MsgItems #2",
			},
		},
		{
			name: "mode",
			between: func(h *Host) {
				h.SetMode(Asynchronous)
				h.SetMode(Synchronous)
			},
			want: []string{
				"b:*session.MsgItems #1",
				"c:*session.MsgItems #1",
				"a:*session.MsgMode",
				"b:*session.MsgMode",
				"c:*session.MsgMode",
				"a:*session.MsgMode",
				"b:*session.MsgMode",
				"c:*session.MsgMode",
				"a:*session.MsgItems #2",
				"b:*session.MsgItems #2",
				"c:*session.MsgItems #2",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, rec := joinedHost("a", "b", "c")
			h.OnItem = func(it Item) {
				if it.From != HostAuthor {
					tc.between(h)
					h.PostLocal("eng/op", "commit")
				}
			}
			h.Receive("a", &MsgPost{From: "a", Kind: "eng/op", Body: "submit"})
			checkSends(t, rec.take(), tc.want...)
		})
	}
}

// Concurrent Receives on a TCP-backed host: every participant posts from
// its own connection at once while OnItem answers each post with a host
// item, as sessiond's OT site does. Each participant must get every item
// not its own. A client drops any item at or below the highest sequence
// number it has seen, so a push overtaking an earlier one shows up as a
// missing item: the count checks the per-peer FIFO the outbox keeps while
// Receives on many goroutines feed it.
func TestOutboxConcurrentReceiveOverTCP(t *testing.T) {
	const users, posts = 3, 40
	book := transport.NewAddressBook()
	hostTCP, err := transport.ListenTCP("host", "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	hostEP := fabric.FromTransport(hostTCP, NewWireCodec())
	defer hostEP.Close()
	h := NewHost(hostEP, Synchronous, func() time.Duration { return 0 })
	h.OnItem = func(it Item) {
		if it.From != HostAuthor {
			h.PostLocal("ack", it.From)
		}
	}

	type peer struct {
		cli  *Client
		mu   sync.Mutex
		got  int
		done chan struct{}
	}
	// Everyone sees the others' posts plus every host item.
	want := (users-1)*posts + users*posts
	peers := make([]*peer, users)
	for i := range peers {
		name := fmt.Sprintf("u%d", i)
		tcp, err := transport.ListenTCP(name, "127.0.0.1:0", book)
		if err != nil {
			t.Fatal(err)
		}
		ep := fabric.FromTransport(tcp, NewWireCodec())
		defer ep.Close()
		p := &peer{cli: NewClient(ep, "host"), done: make(chan struct{})}
		p.cli.OnItem = func(it Item) {
			p.mu.Lock()
			defer p.mu.Unlock()
			p.got++
			if p.got == want {
				close(p.done)
			}
		}
		joined := make(chan struct{})
		p.cli.OnJoined = func(Mode, []string) { close(joined) }
		if err := p.cli.Join(0); err != nil {
			t.Fatal(err)
		}
		select {
		case <-joined:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s join timeout", name)
		}
		peers[i] = p
	}

	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			for i := 0; i < posts; i++ {
				if err := p.cli.Post("chat", fmt.Sprint(i), 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for i, p := range peers {
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			p.mu.Lock()
			t.Fatalf("u%d received %d of %d items", i, p.got, want)
		}
	}
	if n := h.LogLen(); n != 2*users*posts {
		t.Errorf("host log = %d items, want %d", n, 2*users*posts)
	}
}
