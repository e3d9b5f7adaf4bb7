package daemon

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"cqjoin"
)

// jsonRequest is the struct json.Unmarshal decoded request lines into
// before requestDecoder: the reference the decoder is held to.
type jsonRequest struct {
	Op       string        `json:"op"`
	Node     int           `json:"node"`
	SQL      string        `json:"sql,omitempty"`
	Relation string        `json:"relation,omitempty"`
	Values   []interface{} `json:"values,omitempty"`
	Key      string        `json:"key,omitempty"`
}

// sameRequest reports how got differs from what json.Unmarshal decoded,
// each element of "values" compared as a string, a number (bit for bit) or
// the Go type encoding/json gave it; "" if it does not.
func sameRequest(got *request, want *jsonRequest) string {
	if got.Op != want.Op || got.Node != want.Node || got.SQL != want.SQL || got.Relation != want.Relation || got.Key != want.Key {
		return fmt.Sprintf("fields %q %d %q %q %q, want %q %d %q %q %q",
			got.Op, got.Node, got.SQL, got.Relation, got.Key, want.Op, want.Node, want.SQL, want.Relation, want.Key)
	}
	if len(got.Values) != len(want.Values) || (got.Values == nil) != (want.Values == nil) {
		return fmt.Sprintf("values %v, want %v", got.Values, want.Values)
	}
	odd := got.odd
	for i, w := range want.Values {
		v := got.Values[i]
		switch w := w.(type) {
		case string:
			if v.Kind() != cqjoin.StringKind || v.Str() != w || len(odd) > 0 && odd[0].i == i {
				return fmt.Sprintf("value %d is %v, want string %q", i, v, w)
			}
		case float64:
			if v.Kind() != cqjoin.NumberKind || math.Float64bits(v.Num()) != math.Float64bits(w) || len(odd) > 0 && odd[0].i == i {
				return fmt.Sprintf("value %d is %v, want number %v", i, v, w)
			}
		default:
			if len(odd) == 0 || odd[0].i != i || odd[0].typ != fmt.Sprintf("%T", w) {
				return fmt.Sprintf("value %d: odd values %v, want one of type %T", i, odd, w)
			}
			odd = odd[1:]
		}
	}
	if len(odd) > 0 {
		return fmt.Sprintf("odd values %v left over", odd)
	}
	return ""
}

// The decoder accepts a line exactly when json.Unmarshal into the request
// struct it replaced does, and then decodes the same fields. Each line goes
// to a decoder that has just decoded another, so nothing of one line
// survives into the next.
func FuzzRequestDecoding(f *testing.F) {
	f.Add([]byte(`{"op":"publish","node":1,"relation":"Orders","values":[1,"acme","widget"]}`))
	f.Add([]byte(`{"op":"subscribe","node":0,"sql":"SELECT O.Customer FROM Orders AS O, Shipments AS S WHERE O.Product = S.Product"}`))
	const dirty = `{"op":"stale","node":9,"sql":"s","relation":"r","key":"k","values":[true,"x",2,null]}`
	f.Fuzz(func(t *testing.T, line []byte) {
		var want jsonRequest
		wantErr := json.Unmarshal(line, &want)
		var d requestDecoder
		if _, err := d.decode([]byte(dirty)); err != nil {
			t.Fatal(err)
		}
		got, err := d.decode(line)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: decoder says %v, encoding/json %v", line, err, wantErr)
		}
		if err != nil {
			return
		}
		if diff := sameRequest(got, &want); diff != "" {
			t.Fatalf("%q: %s", line, diff)
		}
	})
}

// A publish line's cost before the engine sees it: decoding a canonical
// publication of four values, resolving its node and building its tuple,
// warm, is the line's one string, its values slice and the tuple — 3
// measured (4 while the node's handle was a heap pointer, 21 while
// encoding/json decoded the line into interface{} values and Node.Publish
// copied them twice), and the ceiling is that plus 10 %, rounded down.
const publishLineAllocCeiling = 3

func TestPublishLineAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	cfg := defaultConfig()
	cfg.SchemaDSL = "Orders(Id,Customer,Product,Qty);Shipments(Id,Product,Depot)"
	srv, _ := startServer(t, cfg)
	line := []byte(`{"op":"publish","node":1,"relation":"Orders","values":[1,"acme","widget",12.5]}`)
	var d requestDecoder
	build := func() {
		req, err := d.decode(line)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.localNode(req.Node); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.publication(req); err != nil {
			t.Fatal(err)
		}
	}
	build()
	allocs := testing.AllocsPerRun(1000, build)
	t.Logf("%.1f allocations per publish line (ceiling %d)", allocs, publishLineAllocCeiling)
	if allocs > publishLineAllocCeiling {
		t.Fatalf("decoding a publish line, resolving its node and building its tuple allocates %.1f times, ceiling %d: see publishLineAllocCeiling", allocs, publishLineAllocCeiling)
	}
}
