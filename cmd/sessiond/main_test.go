package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/session"
	"repro/internal/transport"
)

// lockedBuffer is a log sink the test can read while the daemon writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// bannerWriter hands the daemon's first stdout write to the test.
type bannerWriter chan string

func (w bannerWriter) Write(p []byte) (int, error) {
	select {
	case w <- string(p):
	default:
	}
	return len(p), nil
}

// startDaemon runs sessiond in-process on an ephemeral loopback port and
// returns its address and log. Cleanup stops it and checks it exited
// cleanly.
func startDaemon(t *testing.T, flags ...string) (string, *lockedBuffer) {
	t.Helper()
	logs := &lockedBuffer{}
	banner := make(bannerWriter, 1)
	stop := make(chan os.Signal, 1)
	errc := make(chan error, 1)
	args := append([]string{"-listen", "127.0.0.1:0"}, flags...)
	go func() { errc <- run(args, banner, log.New(logs, "", 0), stop) }()
	var line string
	select {
	case line = <-banner:
	case err := <-errc:
		t.Fatalf("sessiond exited before its banner: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("sessiond printed no banner")
	}
	rest, ok := strings.CutPrefix(line, "sessiond listening on ")
	f := strings.Fields(rest)
	if !ok || len(f) == 0 {
		t.Fatalf("banner %q names no address", line)
	}
	t.Cleanup(func() {
		stop <- os.Interrupt
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("sessiond: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("sessiond did not stop after the signal")
		}
	})
	return f[0], logs
}

// member is one cscwctl-style OT replica on its own TCP endpoint. frames
// counts the MsgItems frames it receives.
type member struct {
	name   string
	cli    *session.Client
	codec  fabric.PayloadCodec // engine item bodies
	frames atomic.Int64

	mu  sync.Mutex
	eng engine.Doc
}

func joinMember(t *testing.T, hostAddr, name string) *member {
	t.Helper()
	m := &member{name: name, codec: fabric.NewBinaryCodec(engine.NewWireCodec())}
	var err error
	if m.eng, err = engine.New(engine.OT, "doc", name, session.HostAuthor); err != nil {
		t.Fatal(err)
	}
	book := transport.NewAddressBook()
	book.Set("host", hostAddr)
	tep, err := transport.ListenTCP(name, "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	reg := session.NewWireCodec()
	fabric.RegisterBase(reg)
	count := fabric.Tap(nil, func(_ string, payload any, _ int) {
		if _, ok := payload.(*session.MsgItems); ok {
			m.frames.Add(1)
		}
	})
	ep := fabric.Wrap(fabric.FromTransport(tep, fabric.NewBinaryCodec(reg)), count)
	t.Cleanup(func() { ep.Close() })
	m.cli = session.NewClientForDoc(ep, "host", "doc")
	m.cli.OnItem = func(it session.Item) {
		if it.Kind != engine.ItemKind || it.From == name {
			return
		}
		to, payload, err := engine.DecodeItemBody(m.codec, it.Body)
		if err != nil {
			t.Errorf("%s: bad eng/op: %v", name, err)
			return
		}
		if to != "" && to != name {
			return
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		out, err := m.eng.Apply(it.From, payload)
		if err != nil {
			t.Errorf("%s: apply: %v", name, err)
			return
		}
		m.post(t, out)
	}
	joined := make(chan struct{})
	var once sync.Once
	m.cli.OnJoined = func(session.Mode, []string) { once.Do(func() { close(joined) }) }
	if err := ep.Send("host", &fabric.Hello{Addr: tep.Addr()}, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.cli.Join(0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-joined:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: join timed out", name)
	}
	return m
}

// post publishes engine messages as eng/op items. Callers hold m.mu.
func (m *member) post(t *testing.T, msgs []engine.Msg) {
	for _, msg := range msgs {
		body, err := engine.EncodeItemBody(m.codec, msg)
		if err != nil {
			t.Errorf("%s: encode: %v", m.name, err)
			return
		}
		if err := m.cli.Post(engine.ItemKind, body, 0); err != nil {
			t.Errorf("%s: post: %v", m.name, err)
		}
	}
}

func (m *member) state() (string, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.eng.Text(), m.eng.Pending()
}

// runEdits has the members take turns inserting one rune at the front,
// waiting after each edit until every replica holds the same text with
// nothing pending. It returns, per edit, how many MsgItems frames each
// member received for it.
func runEdits(t *testing.T, members []*member, edits int) [][]int64 {
	t.Helper()
	perEdit := make([][]int64, edits)
	for i := 0; i < edits; i++ {
		before := make([]int64, len(members))
		for j, m := range members {
			before[j] = m.frames.Load()
		}
		author := members[i%len(members)]
		author.mu.Lock()
		out, err := author.eng.Insert(0, rune('a'+i%26))
		if err == nil {
			author.post(t, out)
		}
		author.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			text0, pending0 := members[0].state()
			same := len([]rune(text0)) == i+1 && pending0 == 0
			for _, m := range members[1:] {
				text, pending := m.state()
				same = same && text == text0 && pending == 0
			}
			if same {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("edit %d: replicas did not converge", i)
			}
			time.Sleep(time.Millisecond)
		}
		perEdit[i] = make([]int64, len(members))
		for j, m := range members {
			perEdit[i][j] = m.frames.Load() - before[j]
		}
	}
	return perEdit
}

var itemLine = regexp.MustCompile(`(?m)^item `)

// TestDaemonOTOneFramePerEdit drives the daemon over loopback with the OT
// integration site and the binary codec: two typists converge, and every
// member, author or not, receives exactly one frame per edit — the relayed
// submit and the daemon's commit share it.
func TestDaemonOTOneFramePerEdit(t *testing.T) {
	for _, verbose := range []bool{false, true} {
		t.Run(fmt.Sprintf("v=%v", verbose), func(t *testing.T) {
			flags := []string{"-engine", "ot", "-codec", "binary"}
			if verbose {
				flags = append(flags, "-v")
			}
			addr, logs := startDaemon(t, flags...)
			members := []*member{joinMember(t, addr, "alice"), joinMember(t, addr, "bob")}
			const edits = 6
			for i, got := range runEdits(t, members, edits) {
				for j, n := range got {
					if n != 1 {
						t.Errorf("edit %d: %s received %d frames, want 1", i, members[j].name, n)
					}
				}
			}
			out := logs.String()
			for _, m := range members {
				if !strings.Contains(out, "hello from "+m.name+" at ") {
					t.Errorf("no hello line for %s in log:\n%s", m.name, out)
				}
			}
			// Each edit is one submit and one commit item.
			items := len(itemLine.FindAllString(out, -1))
			if verbose && items < 2*edits {
				t.Errorf("-v logged %d item lines, want >= %d:\n%s", items, 2*edits, out)
			}
			if !verbose && items != 0 {
				t.Errorf("logged %d item lines without -v:\n%s", items, out)
			}
		})
	}
}
