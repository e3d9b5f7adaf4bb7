// Package a exercises the obsregister analyzer: metric registration must
// use constant names, sit outside loops, and happen at one site per
// package.
package a

import "cqjoin/internal/obs"

const latencyName = "a.latency"

type holder struct {
	reqs *obs.Counter
	lat  *obs.Gauge
}

// newHolder is the sanctioned shape: constant names, one site per metric.
// No diagnostics.
func newHolder(reg *obs.Registry) *holder {
	return &holder{
		reqs: reg.Counter("a.requests"),
		lat:  reg.Gauge(latencyName),
	}
}

func registerInLoop(reg *obs.Registry) {
	for i := 0; i < 3; i++ {
		reg.Counter("a.loop") // want "metric registration inside a loop"
	}
}

func dynamicName(reg *obs.Registry, shard string) {
	reg.Gauge("a.shard." + shard) // want "metric name must be a constant string"
}

func duplicateName(reg *obs.Registry) {
	reg.Counter("a.requests") // want "metric \"a.requests\" already registered"
}

func suppressed(reg *obs.Registry, n int) {
	for i := 0; i < n; i++ {
		//lint:allow obsregister fixture: the loop registers distinct test registries
		reg.Counter("a.suppressed")
	}
}
