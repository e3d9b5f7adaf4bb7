package transport

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/obs"
	"cqjoin/internal/wire"
)

// TestSizedCodecMatchesEncode pins the Codec contract the in-place path
// relies on: SizeAfter must equal the encoded length exactly, whatever the
// entry before — none, another body, the same body.
func TestSizedCodecMatchesEncode(t *testing.T) {
	var c testCodec
	for _, body := range []string{"", "x", "hello world", string(make([]byte, 200))} {
		msg := &testMsg{Body: body}
		for _, prev := range []chord.Message{nil, &testMsg{Body: "another"}, &testMsg{Body: body}} {
			var w wire.Buffer
			if err := c.EncodeAfter(&w, msg, prev); err != nil {
				t.Fatalf("encode %q: %v", body, err)
			}
			if got, want := c.SizeAfter(msg, prev), w.Len(); got != want {
				t.Fatalf("SizeAfter(%q, %v) = %d, encoded length %d", body, prev, got, want)
			}
			back, err := c.DecodeAfter(wire.NewReader(w.Bytes()), prev)
			if err != nil || back.(*testMsg).Body != body {
				t.Fatalf("%q behind %v decodes to %v (%v)", body, prev, back, err)
			}
		}
	}
}

// TestPooledEncodeConcurrentNoAliasing hammers the encode path from 8
// goroutines. Requests sharing a connection are encoded in place into its
// one frame buffer, and replies swap read buffers between slots, so any
// cross-request buffer aliasing shows up as a corrupted, missing or
// duplicated delivery; under -race it also trips the race detector. The delivered multiset must equal the sent multiset
// exactly.
func TestPooledEncodeConcurrentNoAliasing(t *testing.T) {
	from, dst := testNodes(t)
	remote := &testLocal{}
	_, addrB := startTransport(t, Config{Local: remote})

	trA, _ := startTransport(t, Config{
		Local:   &testLocal{},
		OwnerOf: func(id.ID) string { return addrB },
	})

	const workers = 8
	const rounds = 25
	const perBatch = 16
	var want []string
	for w := 0; w < workers; w++ {
		for r := 0; r < rounds; r++ {
			for i := 0; i < perBatch; i++ {
				want = append(want, fmt.Sprintf("%s:w%d-r%d-i%d", dst.Key(), w, r, i))
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				msgs := make([]chord.Message, perBatch)
				for i := range msgs {
					msgs[i] = &testMsg{Body: fmt.Sprintf("w%d-r%d-i%d", worker, r, i)}
				}
				acks := trA.DeliverBatch(from, dst, msgs)
				for i, ok := range acks {
					if !ok {
						t.Errorf("worker %d round %d msg %d not acked", worker, r, i)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	got := remote.snapshot()
	if len(got) != len(want) {
		t.Fatalf("delivered %d messages, want %d", len(got), len(want))
	}
	sort.Strings(got)
	sort.Strings(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery multiset diverged at %d: got %q, want %q (buffer aliasing?)", i, got[i], want[i])
		}
	}
}

// TestPipelinedSharedConn proves every concurrent RPC to a peer shares its one
// pipelined connection: 100 deliveries, each held in its handler until all 100
// have entered, are all acked on one dial. Neither end caps the calls in
// flight on a connection, so none waits for another to finish.
func TestPipelinedSharedConn(t *testing.T) {
	from, dst := testNodes(t)
	const concurrent = 100
	l := &countingLocal{in: make(chan struct{}, concurrent), release: make(chan struct{})}
	_, addrB := startTransport(t, Config{Local: l})
	reg := obs.NewRegistry()
	trA, _ := startTransport(t, Config{
		Local:   &testLocal{},
		OwnerOf: func(id.ID) string { return addrB },
		Obs:     reg,
	})
	release := sync.OnceFunc(func() { close(l.release) })
	t.Cleanup(release) // before the transports close: B's handlers must return

	acks := make(chan bool, concurrent)
	for i := 0; i < concurrent; i++ {
		go func(i int) { acks <- trA.Deliver(from, dst, &testMsg{Body: fmt.Sprintf("m%d", i)}) }(i)
	}
	timeout := time.After(DefaultIOTimeout / 2)
	for i := 0; i < concurrent; i++ {
		select {
		case <-l.in:
		case <-timeout:
			t.Fatalf("%d of %d deliveries entered their handlers: the rest wait on those held", i, concurrent)
		}
	}
	release()
	for i := 0; i < concurrent; i++ {
		if !<-acks {
			t.Fatal("a held delivery was not acked")
		}
	}
	if v := reg.Counter("transport.dials").Value(); v != 1 {
		t.Fatalf("dials = %d, want 1: concurrent RPCs should pipeline on the peer's one connection", v)
	}
}

// A run that DeliverBatch cuts at maxBatchBody starts its next frame with an
// entry in full: the entry before it went out in another frame, and the
// receiver has no predecessor to resolve a repeat against.
func TestRunSplitAcrossFramesStartsInFull(t *testing.T) {
	from, dst := testNodes(t)
	remote := &testLocal{}
	_, addrB := startTransport(t, Config{Local: remote})
	reg := obs.NewRegistry()
	trA, _ := startTransport(t, Config{
		Local:   &testLocal{},
		OwnerOf: func(id.ID) string { return addrB },
		Obs:     reg,
	})
	a, b := strings.Repeat("a", 3<<20), strings.Repeat("b", 2<<20)
	// Frame one is a, (a), b — past maxBatchBody at b — and frame two b, (b).
	var msgs []chord.Message
	for _, body := range []string{a, a, b, b, b} {
		msgs = append(msgs, &testMsg{Body: body})
	}
	for i, ok := range trA.DeliverBatch(from, dst, msgs) {
		if !ok {
			t.Errorf("message %d of the split run was not acked", i)
		}
	}
	got := remote.snapshot()
	if len(got) != len(msgs) {
		t.Fatalf("%d of %d messages delivered", len(got), len(msgs))
	}
	for i, m := range msgs {
		if got[i] != dst.Key()+":"+m.(*testMsg).Body {
			t.Errorf("message %d arrived with another body (%d bytes)", i, len(got[i]))
		}
	}
	// hello + two batch frames, and the two repeated bodies of 7 MiB not sent.
	if v := reg.Counter("transport.frames_out").Value(); v != 3 {
		t.Errorf("frames_out = %d, want 3 (hello and two batch frames)", v)
	}
	if v := reg.Counter("transport.frame_bytes_out").Value(); v < 7<<20 || v > 7<<20+200 {
		t.Errorf("frame_bytes_out = %d, want the 7 MiB of a + b + b and little else", v)
	}
}

// otherMsg is a message testCodec cannot encode.
type otherMsg struct{}

func (otherMsg) Kind() string { return "other" }

// A run holding a message the codec cannot encode is not sent: its frame is
// given up while being built into the connection's frame buffer, spending no
// further attempt, and the connection serves the next request.
func TestUnencodableMessageSpendsNoAttempt(t *testing.T) {
	from, dst := testNodes(t)
	remote := &testLocal{}
	_, addrB := startTransport(t, Config{Local: remote})
	reg := obs.NewRegistry()
	var logged atomic.Int32
	trA, _ := startTransport(t, Config{
		Local:   &testLocal{},
		OwnerOf: func(id.ID) string { return addrB },
		Obs:     reg,
		Logf:    func(string, ...interface{}) { logged.Add(1) },
	})
	acks := trA.DeliverBatch(from, dst, []chord.Message{&testMsg{Body: "a"}, otherMsg{}, &testMsg{Body: "b"}})
	if want := []bool{false, false, false}; !reflect.DeepEqual(acks, want) {
		t.Fatalf("acks = %v, want %v", acks, want)
	}
	if r, f := reg.Counter("transport.retries").Value(), reg.Counter("transport.rpc_failures").Value(); r != 0 || f != 0 || logged.Load() != 1 {
		t.Fatalf("retries %d, rpc_failures %d, %d lines logged; want 0, 0, 1", r, f, logged.Load())
	}
	if !trA.Deliver(from, dst, &testMsg{Body: "after"}) {
		t.Fatal("the connection did not serve the request after")
	}
	if got, want := remote.snapshot(), []string{dst.Key() + ":after"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	if v := reg.Counter("transport.dials").Value(); v != 1 {
		t.Fatalf("dials = %d, want 1", v)
	}
}

// onceFailingCodec fails the first decode of the body "flaky".
type onceFailingCodec struct {
	testCodec
	failed *atomic.Bool
}

func (c onceFailingCodec) DecodeAfter(r *wire.Reader, prev chord.Message) (chord.Message, error) {
	msg, err := c.testCodec.DecodeAfter(r, prev)
	if err == nil && msg.(*testMsg).Body == "flaky" && c.failed.CompareAndSwap(false, true) {
		return nil, errors.New("onceFailingCodec: flaky")
	}
	return msg, err
}

// An entry that fails to decode is nacked, and so is every entry behind it
// that leaves its body to "the entry before me": they fail with it rather than
// resolve against an earlier entry. The sender's retry — a new frame, its first
// entry in full — delivers them.
func TestDecodeNackTakesItsDependentsAlong(t *testing.T) {
	from, dst := testNodes(t)
	remote := &testLocal{}
	_, addrB := startTransport(t, Config{
		Local: remote,
		Codec: onceFailingCodec{failed: new(atomic.Bool)},
		Logf:  func(string, ...interface{}) {},
	})
	trA, _ := startTransport(t, Config{
		Local:   &testLocal{},
		OwnerOf: func(id.ID) string { return addrB },
	})
	var msgs []chord.Message
	for _, body := range []string{"before", "flaky", "flaky", "flaky", "after"} {
		msgs = append(msgs, &testMsg{Body: body})
	}
	acks := trA.DeliverBatch(from, dst, msgs)
	if want := []bool{true, false, false, false, true}; !reflect.DeepEqual(acks, want) {
		t.Fatalf("acks = %v, want %v", acks, want)
	}
	if got, want := remote.snapshot(), []string{dst.Key() + ":before", dst.Key() + ":after"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %v, want %v: a repeat resolved against the wrong entry", got, want)
	}
	for i, ok := range trA.DeliverBatch(from, dst, msgs[1:4]) {
		if !ok {
			t.Errorf("retry: message %d not acked", i)
		}
	}
	if got := remote.snapshot(); len(got) != 5 || got[2] != dst.Key()+":flaky" || got[4] != dst.Key()+":flaky" {
		t.Fatalf("after the retry the receiver holds %v", got)
	}
}

// A hand-built frame whose first entry repeats a predecessor: there is none
// in this frame, whatever the frame before it on the connection held.
func TestRepeatFirstInFrameIsNacked(t *testing.T) {
	remote := &testLocal{}
	tr, _ := startTransport(t, Config{Local: remote, Logf: func(string, ...interface{}) {}})
	for round := 0; round < 2; round++ {
		var w wire.Buffer
		batchHeaderInto(&w, 9, 3)
		appendBatchEntry(&w, "peer1", []byte{1})         // repeats nothing
		appendBatchEntry(&w, "peer1", []byte{0, 1, 'x'}) // x in full
		appendBatchEntry(&w, "peer1", []byte{1})         // x again
		reply, err := tr.handleFrame(w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		r := wire.NewReader(reply)
		if err := readReplyHeader(r, frameAck, 9); err != nil {
			t.Fatal(err)
		}
		statuses, err := decodeAck(r, 3)
		if err != nil || !bytes.Equal(statuses, []byte{ackFail, ackOK, ackOK}) {
			t.Fatalf("round %d: statuses %v (%v), want the first entry alone nacked", round, statuses, err)
		}
	}
	if got := remote.snapshot(); len(got) != 4 {
		t.Fatalf("delivered %v, want x twice per frame", got)
	}
}
