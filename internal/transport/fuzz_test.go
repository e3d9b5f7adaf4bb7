package transport

import (
	"bytes"
	"errors"
	"sort"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/wire"
)

// rejectCodec fails every decode; the fuzzer's forged batch frames must
// produce ackFail statuses, never a panic.
type rejectCodec struct{}

func (rejectCodec) SizeAfter(msg, prev chord.Message) int { return 0 }

func (rejectCodec) CatalogDigest() uint64 { return 0 }

func (rejectCodec) EncodeAfter(w *wire.Buffer, msg, prev chord.Message) error {
	return errors.New("rejectCodec")
}

func (rejectCodec) DecodeAfter(r *wire.Reader, prev chord.Message) (chord.Message, error) {
	return nil, errors.New("rejectCodec")
}

type nullDeliverer struct{}

func (nullDeliverer) DeliverLocal(dstKey string, msg chord.Message) bool { return false }

// fuzzMembership admits any joiner and adopts any newer view, like the
// daemon's handler but without an overlay behind it.
type fuzzMembership struct {
	version uint64
	procs   []string
}

func (m *fuzzMembership) HandleJoin(addr string) (*wire.MemberView, error) {
	m.version++
	m.procs = append(m.procs, addr)
	sort.Strings(m.procs)
	return &wire.MemberView{Version: m.version, Procs: append([]string(nil), m.procs...)}, nil
}

func (m *fuzzMembership) HandleView(v *wire.MemberView) uint64 {
	if v.Version > m.version {
		m.version = v.Version
		m.procs = append([]string(nil), v.Procs...)
	}
	return m.version
}

// FuzzMembershipFrames drives the server's frame handler with arbitrary
// payloads. Malformed membership (and batch) frames must be rejected with
// an error, never a panic, and any payload that parses as a MemberView
// must re-encode to exactly the bytes that were consumed.
func FuzzMembershipFrames(f *testing.F) {
	f.Add(encodeJoin(1, "127.0.0.1:9001"))
	f.Add(encodeView(2, &wire.MemberView{Version: 3, Procs: []string{"127.0.0.1:9001", "127.0.0.1:9002"}}))
	f.Add(encodeView(3, &wire.MemberView{Version: 0, Procs: nil}))
	f.Add(encodeViewAck(4, 7))
	f.Add(encodeHello("127.0.0.1:9001", 0x0123456789abcdef))
	f.Add([]byte{})
	{ // view frame with a forged member count
		var w wire.Buffer
		w.PutUvarint(frameView)
		w.PutUvarint(1) // seq
		w.PutUvarint(1)
		w.PutUvarint(1 << 40)
		f.Add(w.Bytes())
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		tr, err := New(Config{
			Self:       "fuzz:0",
			OwnerOf:    func(id.ID) string { return "" },
			Codec:      rejectCodec{},
			Local:      nullDeliverer{},
			Membership: &fuzzMembership{},
			Logf:       func(string, ...interface{}) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		reply, err := tr.handleFrame(payload)
		if err == nil && reply == nil {
			t.Fatal("frame accepted with neither reply nor error")
		}

		// Round-trip property: any payload that parses as a MemberView must
		// re-encode canonically and survive a second decode unchanged. (The
		// input bytes themselves may be non-canonical — padded uvarints — so
		// the fixed point is the first re-encoding, not the raw input.)
		if v, err := wire.DecodeMemberView(wire.NewReader(payload)); err == nil {
			var w wire.Buffer
			wire.EncodeMemberView(&w, v)
			v2, err := wire.DecodeMemberView(wire.NewReader(w.Bytes()))
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			var w2 wire.Buffer
			wire.EncodeMemberView(&w2, v2)
			if !bytes.Equal(w.Bytes(), w2.Bytes()) {
				t.Fatalf("canonical encodings differ: %x vs %x", w.Bytes(), w2.Bytes())
			}
		}
	})
}
