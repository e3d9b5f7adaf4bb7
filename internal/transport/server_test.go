package transport

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/obs"
)

// waitingLocal holds the delivery of "first" until "second" has been
// delivered, for at most patience, and refuses it if that never happens.
type waitingLocal struct {
	entered, second chan struct{}
	patience        time.Duration
}

func (l *waitingLocal) DeliverLocal(_ string, msg chord.Message) bool {
	switch msg.(*testMsg).Body {
	case "first":
		close(l.entered)
		select {
		case <-l.second:
			return true
		case <-time.After(l.patience):
			return false
		}
	case "second":
		close(l.second)
	}
	return true
}

// A handler that waits — on a nested RPC, say — for a frame that comes later
// on its own connection gets it: the later frame is read and served beside it,
// and both are acked.
func TestBlockedHandlerDoesNotHoldItsConnection(t *testing.T) {
	from, dst := testNodes(t)
	const deadline = 2 * time.Second
	l := &waitingLocal{entered: make(chan struct{}), second: make(chan struct{}), patience: 2 * deadline}
	_, addrB := startTransport(t, Config{Local: l})
	reg := obs.NewRegistry()
	trA, _ := startTransport(t, Config{
		Local:   &testLocal{},
		OwnerOf: func(id.ID) string { return addrB },
		Obs:     reg,
	})

	first, second := make(chan bool, 1), make(chan bool, 1)
	go func() { first <- trA.Deliver(from, dst, &testMsg{Body: "first"}) }()
	<-l.entered
	go func() { second <- trA.Deliver(from, dst, &testMsg{Body: "second"}) }()
	timeout := time.After(deadline)
	for _, f := range []struct {
		name string
		ack  chan bool
	}{{"second", second}, {"first", first}} {
		select {
		case ok := <-f.ack:
			if !ok {
				t.Fatalf("the %s frame was not acked", f.name)
			}
		case <-timeout:
			t.Fatalf("the %s frame was not served within %v: the blocked handler held its connection", f.name, deadline)
		}
	}
	if v := reg.Counter("transport.dials").Value(); v != 1 {
		t.Fatalf("dials = %d, want 1: both frames on one connection", v)
	}
}

// countingLocal holds every delivery until release is closed, signalling
// each arrival on in.
type countingLocal struct {
	in, release chan struct{}
}

func (l *countingLocal) DeliverLocal(string, chord.Message) bool {
	l.in <- struct{}{}
	<-l.release
	return true
}

// A connection's frame workers wait for frames while it is open and exit when
// it closes: once both transports are closed, the goroutines are back to what
// they were before either started.
func TestConnWorkersExitOnClose(t *testing.T) {
	from, dst := testNodes(t)
	baseline := runtime.NumGoroutine()

	const held = 4
	l := &countingLocal{in: make(chan struct{}, held), release: make(chan struct{})}
	trB, addrB := startTransport(t, Config{Local: l})
	trA, _ := startTransport(t, Config{
		Local:   &testLocal{},
		OwnerOf: func(id.ID) string { return addrB },
	})
	var wg sync.WaitGroup
	for i := 0; i < held; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !trA.Deliver(from, dst, &testMsg{Body: "x"}) {
				t.Errorf("a held frame was not acked")
			}
		}()
	}
	for i := 0; i < held; i++ {
		<-l.in // every frame in a handler of its own
	}
	close(l.release)
	wg.Wait()
	if n := runtime.NumGoroutine(); n < baseline+held {
		t.Fatalf("%d goroutines with %d workers idle, want at least %d", n, held, baseline+held)
	}

	_ = trA.Close()
	_ = trB.Close()
	var n int
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		if n = runtime.NumGoroutine(); n <= baseline {
			return
		}
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("%d goroutines after Close, want at most %d:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
}

// serverConn returns tr's one accepted connection.
func serverConn(t *testing.T, tr *TCP) *connServer {
	t.Helper()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.serverConns) != 1 {
		t.Fatalf("%d server connections, want 1", len(tr.serverConns))
	}
	for _, cs := range tr.serverConns {
		return cs
	}
	return nil
}

// serverConnCount returns how many accepted connections tr still serves.
func serverConnCount(tr *TCP) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.serverConns)
}

// freeStates returns how many of cs's frame states no frame holds.
func (cs *connServer) freeStates() int {
	cs.freeMu.Lock()
	defer cs.freeMu.Unlock()
	return len(cs.free)
}

// A connection makes a frame state only when none is free: k frames in flight
// make k states, however many k is, and no frame waits unread for a state
// another frame holds.
func TestServeStatesTrackFramesInFlight(t *testing.T) {
	from, dst := testNodes(t)
	const most = 100
	l := &countingLocal{in: make(chan struct{}, most), release: make(chan struct{})}
	trB, addrB := startTransport(t, Config{Local: l})
	reg := obs.NewRegistry()
	trA, _ := startTransport(t, Config{
		Local:   &testLocal{},
		OwnerOf: func(id.ID) string { return addrB },
		Obs:     reg,
	})
	t.Cleanup(func() { close(l.release) }) // before the transports close: B's handlers must return
	acks := make(chan bool, most)
	deliver := func(n int) {
		for i := 0; i < n; i++ {
			go func() { acks <- trA.Deliver(from, dst, &testMsg{Body: "x"}) }()
		}
		timeout := time.After(DefaultIOTimeout / 2)
		for i := 0; i < n; i++ {
			select {
			case <-l.in:
			case <-timeout:
				t.Fatalf("%d of %d frames in flight reached a handler", i, n)
			}
		}
	}
	var cs *connServer
	// settle releases the n held frames and waits for their acks, then for
	// every state to be given back — a worker gives its state back after
	// writing the ack — and wants n of them: as many as were just in flight,
	// more than in any round before.
	settle := func(n int) {
		for i := 0; i < n; i++ {
			l.release <- struct{}{}
		}
		for i := 0; i < n; i++ {
			if !<-acks {
				t.Fatal("a held frame was not acked")
			}
		}
		got := 0
		for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(time.Millisecond) {
			if got = cs.freeStates(); got == n {
				return
			}
		}
		t.Fatalf("%d frames in flight made %d states, want %d", n, got, n)
	}

	deliver(1) // dial the one connection the rest share
	cs = serverConn(t, trB)
	settle(1)
	for _, k := range []int{3, 64, most} {
		deliver(k)
		settle(k)
	}
	if v := reg.Counter("transport.dials").Value(); v != 1 {
		t.Fatalf("dials = %d, want 1: every frame on one connection", v)
	}
}
