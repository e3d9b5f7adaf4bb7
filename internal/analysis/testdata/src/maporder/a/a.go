// Package a exercises the maporder analyzer: map iteration feeding an
// order-sensitive sink is flagged; the collect-sort-send pattern and
// sink-free loops are not.
package a

import (
	"sort"

	"cqjoin/internal/chord"
	"cqjoin/internal/wire"
)

func rangeIntoSend(n *chord.Node, pending map[string]chord.Message) {
	for key, msg := range pending {
		n.Send(msg, uint64(len(key))) // want "Send called while ranging over a map"
	}
}

func rangeIntoHintedSend(n *chord.Node, hints map[uint64]*chord.Node, msg chord.Message) {
	for target, hint := range hints {
		n.SendHinted(msg, target, hint) // want "SendHinted called while ranging over a map"
	}
}

func rangeIntoEncode(w *wire.Buffer, fields map[string]string) {
	for k, v := range fields {
		w.PutString(k) // want "PutString called while ranging over a map"
		w.PutString(v) // want "PutString called while ranging over a map"
	}
}

// rangeIntoWalk lists fields through a Coder leaf straight off a map: the
// walk would encode them in a different order every run.
func rangeIntoWalk(c *wire.Coder, fields map[string]string) {
	for k := range fields {
		c.String(&k) // want "String called while ranging over a map"
	}
}

// sortedWalk feeds the same leaf from the sorted keys. No diagnostics.
func sortedWalk(c *wire.Coder, fields map[string]string) {
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i := range keys {
		c.String(&keys[i])
	}
}

// collectSortSend is the deterministic pattern: drain the map into a
// slice, sort, then feed the sink from the slice. No diagnostics.
func collectSortSend(n *chord.Node, pending map[string]chord.Message) {
	keys := make([]string, 0, len(pending))
	for k := range pending {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n.Send(pending[k], uint64(len(k)))
	}
}

// localSink is an order-sensitive helper marked at its declaration.
//
//cqlint:sink
func localSink(v string) {}

func rangeIntoMarkedSink(m map[string]string) {
	for _, v := range m {
		localSink(v) // want "localSink called while ranging over a map"
	}
}

func rangeIntoSuppressedSink(m map[string]string) {
	for _, v := range m {
		//lint:allow maporder single-entry map populated by the caller
		localSink(v)
	}
}

// plainWork has no sink in the loop body; building intermediate state from
// a map in arbitrary order is fine.
func plainWork(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
