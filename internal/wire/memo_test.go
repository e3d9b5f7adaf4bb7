package wire

import (
	"fmt"
	"sync"
	"testing"

	"cqjoin/internal/obs"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

const memoSQL = `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`

func memoCatalog() *relation.Catalog {
	return relation.MustCatalog(relation.MustSchema("R", "A", "B"), relation.MustSchema("S", "D", "E"))
}

func encodedQuery(key, sub, ip string, insT int64, sql string) []byte {
	var w Buffer
	w.PutString(key)
	w.PutString(sub)
	w.PutString(ip)
	w.PutVarint(insT)
	w.PutString(sql)
	return w.Bytes()
}

func sameFields(q *query.Query, key, sub, ip string, insT int64, sql string) bool {
	return q.Key() == key && q.Subscriber() == sub && q.SubscriberIP() == ip && q.InsT() == insT && q.Text() == sql
}

// A memo hands back the query it holds only to bytes that spell that query
// out in full. An input that borrows a standing query's key but differs in
// any other field gets a query of its own, with its own fields, and leaves
// the entry as it was: the next honest decode still hits it.
func TestMemoReturnsAQueryOnlyOnAnExactMatch(t *testing.T) {
	catalog := memoCatalog()
	reg := obs.NewRegistry()
	memo := &Memo{Hits: reg.Counter("hits"), Misses: reg.Counter("misses"), Resets: reg.Counter("resets")}
	honest := encodedQuery("n1#1", "n1", "sim://n1", 7, memoSQL)
	decode := func(b []byte) *query.Query {
		t.Helper()
		q, err := decodeQuery(b, catalog, memo, "")
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		return q
	}
	first := decode(honest)
	if !sameFields(first, "n1#1", "n1", "sim://n1", 7, memoSQL) {
		t.Fatalf("decoded %v", first)
	}
	if again := decode(honest); again != first {
		t.Fatal("the same bytes decoded to a second query")
	}

	otherSQL := `SELECT R.B, S.D FROM R, S WHERE R.A = S.E`
	for _, forged := range []struct {
		name, sub, ip string
		insT          int64
		sql           string
	}{
		{"sql", "n1", "sim://n1", 7, otherSQL},
		{"insertion time", "n1", "sim://n1", 8, memoSQL},
		{"subscriber", "n2", "sim://n1", 7, memoSQL},
		{"address", "n1", "sim://elsewhere", 7, memoSQL},
	} {
		q := decode(encodedQuery("n1#1", forged.sub, forged.ip, forged.insT, forged.sql))
		if q == first {
			t.Fatalf("a query differing in its %s was answered with the standing one", forged.name)
		}
		if !sameFields(q, "n1#1", forged.sub, forged.ip, forged.insT, forged.sql) {
			t.Fatalf("forged %s: decoded %v", forged.name, q)
		}
		if q.ConditionKey() == first.ConditionKey() != (forged.sql == memoSQL) {
			t.Fatalf("forged %s: condition %q", forged.name, q.ConditionKey())
		}
		if again := decode(honest); again != first {
			t.Fatalf("after an input forging its %s the honest query no longer hits", forged.name)
		}
	}
	if hits, misses := reg.Counter("hits").Value(), reg.Counter("misses").Value(); hits != 5 || misses != 5 {
		t.Fatalf("memo counted %d hits and %d misses, want 5 and 5", hits, misses)
	}

	// A second subscriber of the same text is a miss that re-uses the parse.
	other := decode(encodedQuery("n2#1", "n2", "sim://n2", 9, memoSQL))
	if other == first || other.Projection(query.SideLeft) != first.Projection(query.SideLeft) {
		t.Fatal("two subscribers of one SQL text do not share its compiled plan")
	}
}

// A query of more than two relations is a chain, and travels as any query
// does: its token form decodes to the chain, and again from the memo.
func TestMemoDecodesAChain(t *testing.T) {
	catalog := relation.MustCatalog(relation.MustSchema("R", "A", "B"), relation.MustSchema("S", "D", "E"), relation.MustSchema("T", "G", "H"))
	chain := query.MustParse(catalog, `SELECT R.A, T.H FROM R, S, T WHERE R.B = S.E AND S.D = T.G`).WithIdentity("n1", "sim://n1", 1).WithInsT(7)
	if chain.Tokens() == nil {
		t.Fatal("the chain has no token form: the test reads its text")
	}
	var w Buffer
	c := Encoder(&w)
	c.Query(&chain, "")
	if err := c.Flush(&w); err != nil {
		t.Fatal(err)
	}
	memo := new(Memo)
	first, err := decodeQuery(w.Bytes(), catalog, memo, "")
	if err != nil || first.Arity() != 3 || first.ConditionKey() != chain.ConditionKey() || !sameFields(first, "n1#1", "n1", "sim://n1", 7, chain.Text()) {
		t.Fatalf("the chain decoded to %v (%v)", first, err)
	}
	if again, err := decodeQuery(w.Bytes(), catalog, memo, ""); err != nil || again != first {
		t.Fatalf("a second decode of the chain: %v (%v), want the memo's", again, err)
	}
}

// The memo never holds more than memoMax entries, whatever it is fed, and
// keeps answering correctly across its restarts.
func TestMemoIsBounded(t *testing.T) {
	catalog := memoCatalog()
	reg := obs.NewRegistry()
	memo := &Memo{Resets: reg.Counter("resets")}
	for i := 0; i < memoMax+memoMax/2; i++ {
		key, sub := fmt.Sprintf("n%d#1", i), fmt.Sprintf("n%d", i)
		q, err := decodeQuery(encodedQuery(key, sub, "ip", int64(i), memoSQL), catalog, memo, "")
		if err != nil || !sameFields(q, key, sub, "ip", int64(i), memoSQL) {
			t.Fatalf("query %d: %v, %v", i, q, err)
		}
		var w Buffer
		w.PutString(sub)
		if s, err := memo.String(NewReader(w.Bytes())); err != nil || s != sub {
			t.Fatalf("string %d: %q, %v", i, s, err)
		}
		if n := len(memo.queries) + len(memo.parsed) + len(memo.strs); n > memoMax {
			t.Fatalf("memo holds %d entries after %d inputs, bound %d", n, i+1, memoMax)
		}
	}
	if resets := reg.Counter("resets").Value(); resets < 2 {
		t.Fatalf("%d restarts after %d distinct queries and strings, want at least 2", resets, 3*memoMax)
	}
}

// Concurrent decoders share one memo (run under -race): all of them see
// queries with the right fields, and a standing query ends up as one value.
func TestMemoConcurrentDecoders(t *testing.T) {
	catalog := memoCatalog()
	var memo Memo
	const workers, keys, rounds = 8, 16, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := i % keys
				key, sub := fmt.Sprintf("n%d#1", k), fmt.Sprintf("n%d", k)
				q, err := decodeQuery(encodedQuery(key, sub, "ip", int64(k), memoSQL), catalog, &memo, "")
				if err != nil || !sameFields(q, key, sub, "ip", int64(k), memoSQL) {
					t.Errorf("query %s: %v, %v", key, q, err)
					return
				}
				var buf Buffer
				buf.PutString(sub)
				if s, err := memo.String(NewReader(buf.Bytes())); err != nil || s != sub {
					t.Errorf("string %s: %q, %v", sub, s, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		b := encodedQuery(fmt.Sprintf("n%d#1", k), fmt.Sprintf("n%d", k), "ip", int64(k), memoSQL)
		q1, _ := decodeQuery(b, catalog, &memo, "")
		q2, _ := decodeQuery(b, catalog, &memo, "")
		if q1 == nil || q1 != q2 {
			t.Fatalf("standing query %d decodes to %p then %p", k, q1, q2)
		}
	}
}
