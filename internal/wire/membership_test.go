package wire

import (
	"encoding/hex"
	"reflect"
	"testing"
)

func TestMemberViewRoundTrip(t *testing.T) {
	views := []*MemberView{
		{Version: 0, Procs: nil},
		{Version: 1, Procs: []string{"127.0.0.1:9001"}},
		{Version: 7, Procs: []string{"127.0.0.1:9001", "127.0.0.1:9002", "host-b:9100"}},
	}
	for _, v := range views {
		var w Buffer
		EncodeMemberView(&w, v)
		r := NewReader(w.Bytes())
		got, err := DecodeMemberView(r)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if r.Remaining() != 0 {
			t.Fatalf("%d bytes left after decode", r.Remaining())
		}
		if got.Version != v.Version || len(got.Procs) != len(v.Procs) {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, v)
		}
		if len(v.Procs) > 0 && !reflect.DeepEqual(got.Procs, v.Procs) {
			t.Fatalf("procs mismatch: %v vs %v", got.Procs, v.Procs)
		}
	}
}

func TestMemberViewForgedCount(t *testing.T) {
	var w Buffer
	w.PutUvarint(3)       // version
	w.PutUvarint(1 << 30) // absurd member count
	if _, err := DecodeMemberView(NewReader(w.Bytes())); err == nil {
		t.Fatal("forged member count accepted")
	}
}

// The view's bytes are pinned across commits — it travels in gossip frames,
// WAL records and snapshots: the encoder still produces them, and they
// decode to a view that encodes back to them.
func TestMemberViewGolden(t *testing.T) {
	const golden = "070b686f73742d613a39303030020b686f73742d613a393030300b686f73742d623a39313030"
	v := &MemberView{Version: 7, Origin: "host-a:9000", Procs: []string{"host-a:9000", "host-b:9100"}}
	var w Buffer
	EncodeMemberView(&w, v)
	if got := hex.EncodeToString(w.Bytes()); got != golden {
		t.Fatalf("the encoding is now\n%s", got)
	}
	back, err := DecodeMemberView(NewReader(w.Bytes()))
	if err != nil || !reflect.DeepEqual(back, v) {
		t.Fatalf("the golden bytes decode to %+v, %v", back, err)
	}
	var again Buffer
	EncodeMemberView(&again, back)
	if got := hex.EncodeToString(again.Bytes()); got != golden {
		t.Fatalf("the decoded view encodes as\n%s", got)
	}
}
