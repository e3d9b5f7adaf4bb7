// Package obs is a fixture stand-in for the real metrics registry.
package obs

type Counter struct{}
type Gauge struct{}
type CounterVec struct{}

type Registry struct{}

func (r *Registry) Counter(name string) *Counter       { return nil }
func (r *Registry) Gauge(name string) *Gauge           { return nil }
func (r *Registry) CounterVec(name string) *CounterVec { return nil }
