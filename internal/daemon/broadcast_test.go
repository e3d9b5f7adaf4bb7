package daemon

import (
	"bytes"
	"encoding/json"
	"testing"

	"cqjoin"
)

// broadcast marshals a typed event once and writes the same bytes to every
// listener. Clients must not see the difference: for values that exercise
// every corner of encoding/json's string and number encoders, the line is
// byte for byte what json.Encoder produced for the map the struct replaced.
func TestBroadcastBytesMatchMapEncoding(t *testing.T) {
	notifs := []cqjoin.Notification{
		{QueryKey: "peer3#1", Subscriber: "peer3", Values: []cqjoin.Value{cqjoin.N(17), cqjoin.S("rotterdam")}},
		{QueryKey: `k"<&>`, Subscriber: "s  \x00\\", Values: []cqjoin.Value{
			cqjoin.S("<script>&amp;\xff\t\n"), cqjoin.N(1e21), cqjoin.N(1e-7), cqjoin.N(-0.0), cqjoin.N(0.1 + 0.2), cqjoin.N(123456789012),
		}},
		{QueryKey: "", Subscriber: "", Values: []cqjoin.Value{}},
		{QueryKey: "nil-values", Subscriber: "s"},
	}
	for _, n := range notifs {
		var a, b bytes.Buffer
		s := &Server{listeners: map[*listener]struct{}{
			{w: &a, enc: json.NewEncoder(&a)}: {},
			{w: &b, enc: json.NewEncoder(&b)}: {},
		}}
		s.broadcast(n)

		vals := make([]interface{}, len(n.Values))
		for i, v := range n.Values {
			if v.Kind() == cqjoin.NumberKind {
				vals[i] = v.Num()
			} else {
				vals[i] = v.Str()
			}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(map[string]interface{}{
			"event":      "notification",
			"query":      n.QueryKey,
			"subscriber": n.Subscriber,
			"values":     vals,
		}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), want.Bytes()) {
			t.Fatalf("listener line changed:\n got %q\nwant %q", a.Bytes(), want.Bytes())
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("listeners received different bytes: %q vs %q", a.Bytes(), b.Bytes())
		}
	}
}
