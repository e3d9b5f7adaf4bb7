package engine

// CensusEntry is the size of one structure the engine keeps: summed over the
// nodes, and the largest on one node. An engine-wide structure's are equal.
type CensusEntry struct{ Sum, Max int }

// Census returns the size of each structure the engine keeps that grows with
// what it is sent, by name:
//   - vlqt_buckets, vlqt_rewrites, vlqt_spelled_keys (stored rewrites whose
//     Key(q') is a string, not derived) and vlqt_later (stored rewrites with
//     times other than their trigger's);
//   - vltt_buckets and vltt_tuples;
//   - alqt_queries, alqt_purge_entries (the targets a retraction purges),
//     alqt_marks and alqt_grants;
//   - retracted, sub_ips and stored_notifs;
//   - engine-wide, delivered and id_cache.
//
// It takes each live node's lock in turn, and costs nothing until called.
func (e *Engine) Census() map[string]CensusEntry {
	c := make(census)
	for _, n := range e.net.Nodes() {
		e.state(n).census(c)
	}
	e.mu.Lock()
	c.engineWide("delivered", len(e.delivered))
	e.mu.Unlock()
	e.ids.mu.Lock()
	c.engineWide("id_cache", len(e.ids.m))
	e.ids.mu.Unlock()
	return c
}

type census map[string]CensusEntry

// add counts one node's n of a structure.
func (c census) add(name string, n int) {
	ce := c[name]
	ce.Sum += n
	ce.Max = max(ce.Max, n)
	c[name] = ce
}

func (c census) engineWide(name string, n int) { c[name] = CensusEntry{n, n} }

// census adds this node's counts to c.
func (st *nodeState) census(c census) {
	st.mu.Lock()
	defer st.mu.Unlock()
	var rewrites, spelled, later, tuples, queries, targets, marks, grants, notifs int
	for _, b := range st.vlqt {
		rewrites += b.rewrites.len()
		later += len(b.rewrites.later)
		for _, rw := range b.rewrites.all() {
			if rw.Key != "" {
				spelled++
			}
		}
	}
	for _, b := range st.vltt {
		tuples += b.tuples.len()
	}
	for _, b := range st.alqt {
		queries += b.storedItems()
		for _, ts := range b.sentTargets {
			targets += len(ts)
		}
		marks += len(b.interest)
		grants += len(b.grants)
	}
	for _, batch := range st.storedNotifs {
		notifs += len(batch)
	}
	c.add("vlqt_buckets", len(st.vlqt))
	c.add("vlqt_rewrites", rewrites)
	c.add("vlqt_spelled_keys", spelled)
	c.add("vlqt_later", later)
	c.add("vltt_buckets", len(st.vltt))
	c.add("vltt_tuples", tuples)
	c.add("alqt_queries", queries)
	c.add("alqt_purge_entries", targets)
	c.add("alqt_marks", marks)
	c.add("alqt_grants", grants)
	c.add("retracted", len(st.retracted))
	c.add("sub_ips", len(st.subIPs))
	c.add("stored_notifs", notifs)
}
