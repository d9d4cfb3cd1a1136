package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"testing/iotest"
	"time"
)

// frameBytes encodes one frame as writeFrame puts it on the wire.
func frameBytes(t testing.TB, from string, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, from, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

type gotFrame struct {
	from    string
	payload []byte
}

// collector records every frame an endpoint's handler receives.
type collector struct {
	mu  sync.Mutex
	got []gotFrame
}

func (c *collector) handle(from string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.got = append(c.got, gotFrame{from, data})
}

func (c *collector) frames() []gotFrame {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]gotFrame(nil), c.got...)
}

// rawConn listens an endpoint with a collecting handler and dials it with
// a plain TCP connection, so the test controls how bytes hit the wire.
func rawConn(t *testing.T) (*TCPEndpoint, *collector, net.Conn) {
	t.Helper()
	ep, err := ListenTCP("sink", "127.0.0.1:0", NewAddressBook())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	c := &collector{}
	ep.SetHandler(c.handle)
	conn, err := net.Dial("tcp", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return ep, c, conn
}

// Several frames in one Write arrive in one buffered read; each must still
// come out whole, in order, with a payload of its own that later frames do
// not overwrite.
func TestReadLoopBackToBackFrames(t *testing.T) {
	_, c, conn := rawConn(t)
	const n = 50
	var stream []byte
	for i := 0; i < n; i++ {
		stream = append(stream, frameBytes(t, fmt.Sprintf("p%d", i%3), []byte(fmt.Sprintf("m%03d", i)))...)
	}
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(c.frames()) == n }, "back-to-back frames")
	for i, f := range c.frames() {
		if f.from != fmt.Sprintf("p%d", i%3) || string(f.payload) != fmt.Sprintf("m%03d", i) {
			t.Fatalf("frame %d = %s:%q", i, f.from, f.payload)
		}
	}
}

// A frame split across writes — inside the length prefix, inside the
// sender ID and inside the payload — is reassembled.
func TestReadLoopFrameSplitAcrossWrites(t *testing.T) {
	_, c, conn := rawConn(t)
	frame := frameBytes(t, "splitter", []byte("payload in pieces"))
	for _, cut := range [][2]int{{0, 2}, {2, 9}, {9, 20}, {20, len(frame)}} {
		if _, err := conn.Write(frame[cut[0]:cut[1]]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(c.frames()) == 1 }, "split frame")
	if f := c.frames()[0]; f.from != "splitter" || string(f.payload) != "payload in pieces" {
		t.Errorf("frame = %s:%q", f.from, f.payload)
	}
}

// Frames far larger than the read buffer — a join ack replaying a long
// log runs past 1 MiB — arrive intact between small ones.
func TestTCPFrameLargerThanReadBuffer(t *testing.T) {
	book := NewAddressBook()
	a, err := ListenTCP("a", "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("b", "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c := &collector{}
	b.SetHandler(c.handle)
	big := make([]byte, 3<<19) // 1.5 MiB
	for i := range big {
		big[i] = byte(i * 7)
	}
	for _, p := range [][]byte{[]byte("before"), big, []byte("after")} {
		if err := a.Send("b", p); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(c.frames()) == 3 }, "large frame")
	got := c.frames()
	if string(got[0].payload) != "before" || !bytes.Equal(got[1].payload, big) || string(got[2].payload) != "after" {
		t.Errorf("frames: %q, %d bytes (equal %v), %q", got[0].payload, len(got[1].payload),
			bytes.Equal(got[1].payload, big), got[2].payload)
	}
}

// A bad length prefix ends the connection without reaching the handler,
// and the endpoint keeps serving other connections.
func TestReadLoopBadLengthPrefix(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"too large", binary.BigEndian.AppendUint32(nil, maxFrame+1)},
		{"too short", binary.BigEndian.AppendUint32(nil, 1)},
		{"id past end", append(binary.BigEndian.AppendUint32(nil, 4), 0, 9, 'x', 'y')},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ep, c, conn := rawConn(t)
			if _, err := conn.Write(append(tc.data, frameBytes(t, "late", []byte("ignored"))...)); err != nil {
				t.Fatal(err)
			}
			// The endpoint hangs up, so the read ends in EOF or a reset.
			if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadAll(conn); errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("endpoint kept the connection open after a bad frame")
			}
			if got := c.frames(); len(got) != 0 {
				t.Fatalf("handler saw %d frames from a bad stream", len(got))
			}
			good, err := net.Dial("tcp", ep.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer good.Close()
			if _, err := good.Write(frameBytes(t, "ok", []byte("still served"))); err != nil {
				t.Fatal(err)
			}
			waitFor(t, func() bool { return len(c.frames()) == 1 }, "frame on a fresh connection")
		})
	}
}

// readAll decodes frames from r until an error, returning the frames and
// that error.
func readAll(r io.Reader) ([]gotFrame, error) {
	var out []gotFrame
	for {
		from, payload, err := readFrame(r)
		if err != nil {
			return out, err
		}
		out = append(out, gotFrame{from, payload})
	}
}

// FuzzReadFrame: any byte stream decodes to the same frames and the same
// final error through a bufio.Reader, as the read loop uses, fed one byte
// at a time, as straight from the stream; every frame it accepts
// re-encodes to exactly the bytes it came from; and nothing panics.
func FuzzReadFrame(f *testing.F) {
	two := append(frameBytes(f, "a", []byte("x")), frameBytes(f, "host", []byte{0, 1, 2})...)
	f.Add(two)
	f.Add(frameBytes(f, "", nil))
	f.Add(two[:len(two)-1])                                       // truncated payload
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame+1))         // too large
	f.Add([]byte{0, 0, 0, 1, 0})                                  // too short
	f.Add(append(binary.BigEndian.AppendUint32(nil, 3), 0, 5, 1)) // id past end
	f.Fuzz(func(t *testing.T, data []byte) {
		direct, directErr := readAll(bytes.NewReader(data))
		buffered, bufErr := readAll(bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(data)), 16))
		if fmt.Sprint(direct) != fmt.Sprint(buffered) || fmt.Sprint(directErr) != fmt.Sprint(bufErr) {
			t.Fatalf("direct %v (%v) vs buffered %v (%v)", direct, directErr, buffered, bufErr)
		}
		var again []byte
		for _, fr := range direct {
			again = append(again, frameBytes(t, fr.from, fr.payload)...)
		}
		if !bytes.HasPrefix(data, again) {
			t.Fatalf("accepted frames re-encode to %x, not a prefix of %x", again, data)
		}
	})
}
