package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"
)

// startTracing installs the decorators. No op may be in flight.
func (r *run) startTracing() {
	r.tracer = newTracer(r.sink)
	r.tracer.install(r.tgt)
}

// tracedPasses runs the last two parts of a -trace run, each with a single
// closed-loop client over the same number of ops: one as the system is,
// one with the decorators installed. The first gives the round trip the
// second is compared with; the second gives every time in the layer table.
func (r *run) tracedPasses(res *result, before, after snapshot) error {
	l, s := res.perLayer, r.st.spec
	lo := r.cnt.warmup + r.cnt.paced + r.cnt.sat
	mid, hi := lo+r.cnt.c1, lo+r.cnt.c1+r.cnt.traced
	res.phases["c1"] = r.closedLoop(lo, mid, 1)
	plain := exactQuantile(r.acks(lo, mid), 0.5)

	r.startTracing()
	untraced, err := r.snapshot()
	if err != nil {
		return err
	}
	res.phases["traced"] = r.closedLoop(mid, hi, 1)
	r.quiesce(100*time.Millisecond, 5*time.Second)
	traced, err := r.snapshot()
	if err != nil {
		return err
	}
	lt := r.tracer.analyse()
	pubs := float64(r.st.pubsIn(mid, hi))
	perPubUs := func(name string) float64 { return float64(lt.selfNs[name]) / pubs / 1e3 }

	l.set("client.c1_ack_p50_ms", ms(plain), "ms")
	l.set("trace.overhead_frac", float64(exactQuantile(r.acks(mid, hi), 0.5))/float64(plain)-1, "ratio")
	var selfSum int64
	for _, ns := range lt.selfNs {
		selfSum += ns
	}
	l.set("trace.residual_frac", math.Abs(float64(lt.rootNs-selfSum))/float64(lt.rootNs), "ratio")
	l.set("trace.misnested_spans", float64(lt.misnested), "count")

	// The root span's self time is whatever happened between the client
	// call and the first seam below it. Over TCP that is the client's
	// socket, the daemon's JSON and dispatch and the publish path down to
	// its first delivery; in process it is the publish path alone.
	rootSelf := perPubUs(rootSpanNames[opPublish])
	if s.tcp {
		l.set("daemon.self_us_per_pub", rootSelf, "us")
		l.set("engine.publish_self_us", 0, "us")
	} else {
		l.set("daemon.self_us_per_pub", 0, "us")
		l.set("engine.publish_self_us", rootSelf, "us")
	}
	for _, k := range kinds {
		l.set("engine.handle_us_per_pub."+k, perPubUs(spanHandlePfx+k), "us")
		l.set("engine.handle_calls_per_pub."+k, float64(lt.calls[spanHandlePfx+k])/pubs, "count")
	}
	l.set("transport.deliver_self_us_per_pub", perPubUs(spanDeliver), "us")

	bothPubs := float64(r.st.pubsIn(r.cnt.warmup, lo))
	delta := func(a, b snapshot, name string) float64 { return b.transport[name] - a.transport[name] }
	remote, local := float64(r.tracer.remote), float64(r.tracer.local)
	remoteFrac, perFrame, ownSplit := 0.0, 0.0, 0.0
	if t, ok := r.tgt.(*tcpTarget); ok {
		remoteFrac = remote / (remote + local)
		perFrame = remote / delta(untraced, traced, "transport.frames_out")
		for _, d := range t.owner {
			if d == 0 {
				ownSplit++
			}
		}
		if math.Abs(remoteFrac-s.remoteFrac) > remoteTol {
			res.invalid = fmt.Sprintf("%.3f of deliveries crossed daemons, the workload pins %.3f", remoteFrac, s.remoteFrac)
		}
	}
	l.set("transport.remote_frac", remoteFrac, "ratio")
	l.set("transport.own_split", ownSplit, "count")
	l.set("transport.msgs_per_frame", perFrame, "count")
	l.set("transport.frames_per_pub", delta(before, after, "transport.frames_out")/bothPubs, "count")
	l.set("transport.frame_kb_per_pub", delta(before, after, "transport.frame_bytes_out")/bothPubs/1024, "kB")
	l.set("transport.retries", traced.transport["transport.retries"], "count")
	l.set("transport.rpc_failures", traced.transport["transport.rpc_failures"], "count")
	l.set("transport.dials", traced.transport["transport.dials"], "count")
	return nil
}

// probes fills in the per-layer metrics that come from ledgers read once at
// the end and from timing a layer's public functions directly. On a durable
// workload it closes the target, whose state directory it then recovers.
func (r *run) probes(l *metrics) error {
	var subs, unsubs []int64
	subs = append(subs, r.standingSubNs...)
	for i, o := range r.st.ops {
		if t := r.times[i]; t.ack != 0 {
			switch o.kind {
			case opSubscribe:
				subs = append(subs, t.ack-t.send)
			case opUnsubscribe:
				unsubs = append(unsubs, t.ack-t.send)
			}
		}
	}
	l.set("engine.subscribe_us", float64(exactQuantile(subs, 0.5))/1e3, "us")
	l.set("engine.unsubscribe_us", float64(exactQuantile(unsubs, 0.5))/1e3, "us")

	evalMax, evalGini, hot, stored, filterMax := 0.0, 0.0, 0, 0.0, 0.0
	for _, c := range r.tgt.clusters() {
		eval := c.EvaluatorLoad()
		evalMax, evalGini = max(evalMax, eval.Max), max(evalGini, eval.Gini)
		hot += len(c.HotKeys())
		stored += c.StorageLoad().Total
		filterMax = max(filterMax, c.FilteringLoad().Max)
	}
	l.set("engine.eval_load_max", evalMax, "count")
	l.set("engine.eval_load_gini", evalGini, "ratio")
	l.set("engine.hot_keys", float64(hot), "count")
	l.set("engine.storage_load_total", stored, "count")
	l.set("engine.filtering_load_max", filterMax, "count")

	l.set("daemon.noop_rtt_us", 0, "us")
	l.set("daemon.stats_rtt_ms", 0, "ms")
	if t, ok := r.tgt.(*tcpTarget); ok {
		if err := probeDaemon(t, l); err != nil {
			return err
		}
	}
	if err := probeChord(r.tgt.clusters()[0], l); err != nil {
		return err
	}
	if err := probeParse(r.st, r.in.catalog, l); err != nil {
		return err
	}
	if err := probeCodec(r.in.catalog, r.tracer.samples, l); err != nil {
		return err
	}

	l.set("durable.publish_self_us", 0, "us")
	l.set("durable.recover_ms", 0, "ms")
	l.set("durable.replayed", 0, "count")
	l.set("durable.checkpoint_ms", 0, "ms")
	l.set("durable.state_dir_mb", float64(dirBytes(r.stateDir))/(1<<20), "MB")
	if !r.st.spec.durable {
		return nil
	}
	// Recovery reads daemon 0's directory, so the daemons must be done
	// writing it.
	if err := r.tgt.close(); err != nil {
		return err
	}
	r.tgt = nil
	return probeDurable(r.st, r.in, filepath.Join(r.stateDir, "daemon0"), r.outDir, l)
}
