// Package shutdownprop exercises the static shutdown-propagation analyzer.
// Every goroutine here is joinable (WaitGroup.Add before the spawn, Done in
// the body — life-leak's obligation), but joinable is not stoppable: the
// bad cases loop forever with nothing that can make them exit, so the
// owner's Close blocks on wg.Wait for good.
package shutdownprop

import (
	"bufio"
	"context"
	"io"
	"os"
	"sync"
	"time"
)

type srv struct {
	wg   sync.WaitGroup
	done chan struct{}
	dead chan struct{} // never closed, never sent on: a deaf signal
}

func newSrv() *srv {
	return &srv{
		done: make(chan struct{}),
		dead: make(chan struct{}),
	}
}

func (s *srv) Close() {
	close(s.done)
	s.wg.Wait()
}

// badSpin spins with no exit at all.
func (s *srv) badSpin() {
	s.wg.Add(1)
	go func() { // want "shutdown-prop.*goroutine spawned by badSpin loops forever with no reachable stop signal"
		defer s.wg.Done()
		for {
		}
	}()
}

// badDeafLoop waits on a channel the module never closes or sends on: the
// receive looks like a done-channel but nothing can ever fire it.
func (s *srv) badDeafLoop() {
	s.wg.Add(1)
	go func() { // want "shutdown-prop.*goroutine spawned by badDeafLoop loops forever with no reachable stop signal"
		defer s.wg.Done()
		for range s.dead {
		}
	}()
}

// badNamed spawns a declared method; the analyzer follows the callee body.
func (s *srv) badNamed() {
	s.wg.Add(1)
	go s.spin() // want "shutdown-prop.*goroutine spawned by badNamed loops forever with no reachable stop signal"
}

func (s *srv) spin() {
	defer s.wg.Done()
	for {
	}
}

// okDone hears the done channel Close closes.
func (s *srv) okDone() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			select {
			case <-s.done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
}

// okTicker ranges an external channel (time.Ticker.C): Stop is outside the
// module's view, so it is assumed stoppable.
func (s *srv) okTicker(t *time.Ticker) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for range t.C {
		}
	}()
}

// okCtx polls the context each round.
func (s *srv) okCtx(ctx context.Context) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			if ctx.Err() != nil {
				return
			}
		}
	}()
}

// okOneShot runs to completion on its own: no endless loop, nothing to
// prove.
func (s *srv) okOneShot(v int) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = v * 2
	}()
}

// --- closable I/O ---------------------------------------------------------

type tail struct {
	wg sync.WaitGroup
	f  *os.File
}

// run blocks on a file the owner closes: Close unblocks the Read with an
// error and the loop's exit path takes it.
func (t *tail) run() {
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		buf := make([]byte, 64)
		for {
			if _, err := t.f.Read(buf); err != nil {
				return
			}
		}
	}()
}

func (t *tail) Close() {
	_ = t.f.Close()
	t.wg.Wait()
}

// --- buffered closable I/O -----------------------------------------------

type reader struct {
	wg  sync.WaitGroup
	c   *os.File  // a net.Conn reads the same way; this package may not import net
	src io.Reader // not closable: nothing the owner does unblocks it
}

// readLine stands in for a frame decoder that takes any io.Reader.
func readLine(r *bufio.Reader) (string, error) { return r.ReadString('\n') }

// runBuffered reads the file through a bufio.Reader handed to a decoder:
// Close on the file fails the buffered read just as it fails a raw one.
func (r *reader) runBuffered() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		br := bufio.NewReader(r.c)
		for {
			if _, err := readLine(br); err != nil {
				return
			}
		}
	}()
}

// runBufferedMethod blocks in a method of the bufio.Reader itself.
func (r *reader) runBufferedMethod() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		var br = bufio.NewReaderSize(r.c, 1<<12)
		for {
			if _, err := br.ReadByte(); err != nil {
				return
			}
		}
	}()
}

// badBuffered buffers a reader nothing closes: wrapping it in bufio does
// not make it stoppable.
func (r *reader) badBuffered() {
	r.wg.Add(1)
	go func() { // want "shutdown-prop.*goroutine spawned by badBuffered loops forever with no reachable stop signal"
		defer r.wg.Done()
		br := bufio.NewReader(r.src)
		for {
			if _, err := readLine(br); err != nil {
				return
			}
		}
	}()
}

func (r *reader) Close() {
	_ = r.c.Close()
	r.wg.Wait()
}
