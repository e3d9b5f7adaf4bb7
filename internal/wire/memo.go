package wire

import (
	"bytes"
	"fmt"

	"cqjoin/internal/lockdep"
	"cqjoin/internal/obs"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// Memo remembers what a decoder has already built from bytes it keeps
// receiving: whole queries by Key(q), parsed SQL texts, identity strings. A
// receiver that holds one for its lifetime (engine.WireCodec) decodes a
// standing query once and hands every later message the same immutable
// *query.Query; a decoder of one-off input — a hand-off, a snapshot, a WAL
// record — passes a fresh one, which only shares work inside that input.
// Bounded like the engine's identifier cache: at memoMax entries it is
// dropped and restarted. The zero Memo is ready to use; one Memo serves
// concurrent decoders.
type Memo struct {
	mu      lockdep.Mutex[memoMu]
	queries map[string]*query.Query // by Key(q); returned only on an exact match
	parsed  map[string]*query.Query // by SQL text, without identity: a token form is looked up by the text it spells
	strs    map[string]string

	// Lookups answered from the memo, lookups that built their value, and
	// restarts. Nil counters discard.
	Hits, Misses, Resets *obs.Counter
}

type memoMu struct{} // Memo.mu's lock class

// memoMax bounds a Memo's entries, the three tables together: a few MB at
// worst, far above a daemon's standing queries and their subscribers.
const memoMax = 1 << 14

// room makes space for n more entries. Called with mu held.
func (m *Memo) room(n int) {
	if m.queries != nil && len(m.queries)+len(m.parsed)+len(m.strs)+n <= memoMax {
		return
	}
	if m.queries != nil {
		m.Resets.Inc()
	}
	m.queries = make(map[string]*query.Query)
	m.parsed = make(map[string]*query.Query)
	m.strs = make(map[string]string)
}

func (m *Memo) count(hit bool) {
	if hit {
		m.Hits.Inc()
	} else {
		m.Misses.Inc()
	}
}

// String reads a length-prefixed string like Reader.String, but returns the
// memo's copy of a string it has read before instead of allocating another.
func (m *Memo) String(r *Reader) (string, error) {
	b, err := r.Bytes()
	if err != nil {
		return "", err
	}
	return m.intern(b), nil
}

// Joined returns the memo's copy of prefix followed by suffix — a key said
// past a part its message names once — building it in a stack buffer, so a
// key read before allocates nothing.
func (m *Memo) Joined(prefix string, suffix []byte) string {
	var buf [128]byte
	return m.intern(append(append(buf[:0], prefix...), suffix...))
}

// intern returns the memo's copy of b, "" for none.
func (m *Memo) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	m.mu.Lock()
	s, hit := m.strs[string(b)]
	if !hit {
		s = string(b)
		m.room(1)
		m.strs[s] = s
	}
	m.mu.Unlock()
	m.count(hit)
	return s
}

// query returns the query with the given wire fields; an empty sql stands for
// prevText (none: no text, no parse), one led by tokenMarker for the text its
// token form spells against catalog. The one remembered under key is returned
// only when every field equals it, SQL text or token form included. Anything
// else is decoded into a query of its own and remembered only if the key is
// free: no input, forged or colliding, changes what the key of a standing
// query decodes to.
func (m *Memo) query(catalog *relation.Catalog, key, sub, ip []byte, insT int64, sql []byte, prevText string) (*query.Query, error) {
	m.mu.Lock()
	q := m.queries[string(key)]
	hit := q != nil && q.InsT() == insT && q.Subscriber() == string(sub) && q.SubscriberIP() == string(ip) && says(q, sql, prevText)
	m.mu.Unlock()
	m.count(hit)
	if hit {
		return q, nil
	}
	var buf [256]byte // the text, where sql does not hold it
	text := sql
	switch {
	case len(sql) == 0:
		text = append(buf[:0], prevText...)
	case sql[0] == tokenMarker:
		var err error
		if text, err = query.AppendText(buf[:0], catalog, sql[1:]); err != nil {
			return nil, fmt.Errorf("wire: %w", err)
		}
	}
	m.mu.Lock()
	parsed := m.parsed[string(text)]
	m.mu.Unlock()
	fresh := parsed == nil
	if fresh {
		var err error
		if parsed, err = query.Parse(catalog, string(text)); err != nil {
			return nil, fmt.Errorf("wire: re-parse: %w", err)
		}
	}
	q = parsed.WithInsT(insT).WithRestoredIdentity(string(key), string(sub), string(ip))
	m.mu.Lock()
	m.room(2)
	if fresh {
		m.parsed[parsed.Text()] = parsed
	}
	if m.queries[q.Key()] == nil { // taken: a different query, or a concurrent decoder's
		m.queries[q.Key()] = q
	}
	m.mu.Unlock()
	return q, nil
}

// says reports whether sql, the text field of a query after one of prevText,
// says q's text: empty for prevText, a token form byte for byte q's own,
// else the text itself. It allocates nothing.
func says(q *query.Query, sql []byte, prevText string) bool {
	switch {
	case len(sql) == 0:
		return q.Text() == prevText
	case sql[0] == tokenMarker:
		return q.Tokens() != nil && bytes.Equal(sql[1:], q.Tokens())
	}
	return q.Text() == string(sql)
}

// Sizes reports how many entries each of the memo's tables holds: queries by
// key, parsed texts, interned strings.
func (m *Memo) Sizes() (queries, parsed, strs int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queries), len(m.parsed), len(m.strs)
}
