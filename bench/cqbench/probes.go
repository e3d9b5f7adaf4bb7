package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cqjoin"
	"cqjoin/internal/chord"
	"cqjoin/internal/durable"
	"cqjoin/internal/engine"
	"cqjoin/internal/id"
	"cqjoin/internal/query"
	"cqjoin/internal/wire"
)

// Probes time one layer through its public functions, outside the measured
// phases. Each returns per-layer metrics by name.

// probeCodec replays the messages the transport decorator sampled through
// the engine's wire codec: what one encode and one decode of each kind
// cost, and how large the encoding is.
func probeCodec(catalog *cqjoin.Catalog, samples map[string][]chord.Message, m *metrics) error {
	codec := engine.NewWireCodec(catalog)
	for _, kind := range kinds {
		msgs := samples[kind]
		enc, dec, allocs, size := 0.0, 0.0, 0.0, 0.0
		if len(msgs) > 0 {
			rounds := 1 + maxCodecSample/len(msgs) // few samples: replay them more often
			frames := make([][]byte, len(msgs))
			var w wire.Buffer
			start := time.Now()
			for round := 0; round < rounds; round++ {
				for i, msg := range msgs {
					w.Reset()
					if err := codec.Encode(&w, msg); err != nil {
						return fmt.Errorf("codec probe: encode %s: %w", kind, err)
					}
					if round == 0 {
						frames[i] = append([]byte(nil), w.Bytes()...)
						size += float64(w.Len())
					}
				}
			}
			n := float64(rounds * len(msgs))
			enc = float64(time.Since(start).Nanoseconds()) / n
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start = time.Now()
			for round := 0; round < rounds; round++ {
				for _, f := range frames {
					if _, err := codec.Decode(wire.NewReader(f)); err != nil {
						return fmt.Errorf("codec probe: decode %s: %w", kind, err)
					}
				}
			}
			dec = float64(time.Since(start).Nanoseconds()) / n
			runtime.ReadMemStats(&after)
			allocs = float64(after.Mallocs-before.Mallocs) / n
			size /= float64(len(msgs))
		}
		m.set("codec.enc_ns_per_msg."+kind, enc, "ns")
		m.set("codec.dec_ns_per_msg."+kind, dec, "ns")
		m.set("codec.allocs_per_dec."+kind, allocs, "count")
		m.set("codec.bytes_per_msg."+kind, size, "B")
	}
	return nil
}

// probeChord times routed lookups on the built ring.
func probeChord(c *cqjoin.Cluster, m *metrics) error {
	nodes := c.Overlay().Nodes()
	rng := rand.New(rand.NewSource(1))
	const n = 20000
	targets := make([]id.ID, n)
	for i := range targets {
		targets[i] = id.Hash(keyName(int32(i)))
	}
	start := time.Now()
	for i, target := range targets {
		if _, _, err := nodes[rng.Intn(len(nodes))].Lookup(target); err != nil {
			return fmt.Errorf("chord probe: lookup %d: %w", i, err)
		}
	}
	m.set("chord.lookup_ns", float64(time.Since(start).Nanoseconds())/n, "ns")
	return nil
}

// probeParse times parsing the standing queries' SQL, which decoding a
// rewritten query repeats for every message.
func probeParse(st *stream, catalog *cqjoin.Catalog, m *metrics) error {
	sqls := make([]string, st.standing)
	for i := range sqls {
		sqls[i] = st.queries[i].sql()
	}
	const rounds = 20
	start := time.Now()
	for round := 0; round < rounds; round++ {
		for _, sql := range sqls {
			if _, err := query.Parse(catalog, sql); err != nil {
				return fmt.Errorf("parse probe: %w", err)
			}
		}
	}
	m.set("query.parse_ns", float64(time.Since(start).Nanoseconds())/float64(rounds*len(sqls)), "ns")
	return nil
}

// probeDaemon times the cheapest request a daemon answers, the floor under
// every acknowledgement, and one stats call, which copies the whole
// delivered-notification slice.
func probeDaemon(t *tcpTarget, m *metrics) error {
	const n = 500
	rtts := make([]int64, n)
	for i := range rtts {
		start := time.Now()
		if _, err := t.control(i % 2).call([]byte(`{"op":"overlay-config"}` + "\n")); err != nil {
			return fmt.Errorf("daemon probe: %w", err)
		}
		rtts[i] = time.Since(start).Nanoseconds()
	}
	m.set("daemon.noop_rtt_us", float64(exactQuantile(rtts, 0.5))/1e3, "us")
	start := time.Now()
	if _, err := t.stats(0); err != nil {
		return fmt.Errorf("daemon probe: %w", err)
	}
	m.set("daemon.stats_rtt_ms", ms(time.Since(start).Nanoseconds()), "ms")
	return nil
}

// probeDurable measures what the durable layer adds to one publication, by
// publishing the same ops into two in-process clusters of the workload's
// configuration, one of them behind a durable.Store, and then what a
// restart costs, by recovering daemon 0's state directory (the daemons must
// be closed) into a third and checkpointing it.
func probeDurable(st *stream, in *inputs, daemonDir, scratch string, m *metrics) error {
	s := st.spec
	ops := make([]int, 0, 300)
	for i, o := range st.ops {
		if o.kind == opPublish && len(ops) < cap(ops) {
			ops = append(ops, i)
		}
	}
	median := func(store bool) (int64, error) {
		c, err := cqjoin.NewCluster(cqjoin.Config{Nodes: s.nodes, Catalog: in.catalog, Seed: 1})
		if err != nil {
			return 0, err
		}
		if store {
			dir := filepath.Join(scratch, "probe-store")
			ds, err := durable.Open(dir, in.catalog, durable.Options{})
			if err != nil {
				return 0, err
			}
			defer os.RemoveAll(dir)
			defer ds.Close()
			if _, err := ds.Recover(c.Engine()); err != nil {
				return 0, err
			}
			c.SetDurable(ds)
		}
		for q := 0; q < st.standing; q++ {
			if _, err := c.Node(st.queries[q].node).Subscribe(st.queries[q].sql()); err != nil {
				return 0, err
			}
		}
		durs := make([]int64, len(ops))
		for k, i := range ops {
			o := st.ops[i]
			start := time.Now()
			_, err := c.Node(int(o.node)).Publish(relName(o.side, int(o.pair)),
				i, keyName(o.keyA), keyName(o.keyB), fmt.Sprintf("c%d", o.pay))
			durs[k] = time.Since(start).Nanoseconds()
			if err != nil {
				return 0, err
			}
		}
		return exactQuantile(durs, 0.5), nil
	}
	with, err := median(true)
	if err != nil {
		return fmt.Errorf("durable probe: %w", err)
	}
	without, err := median(false)
	if err != nil {
		return fmt.Errorf("durable probe: %w", err)
	}
	m.set("durable.publish_self_us", float64(with-without)/1e3, "us")

	c, err := cqjoin.NewCluster(cqjoin.Config{Nodes: s.nodes, Catalog: in.catalog, Seed: 1})
	if err != nil {
		return err
	}
	start := time.Now()
	ds, err := durable.Open(daemonDir, in.catalog, durable.Options{})
	if err != nil {
		return fmt.Errorf("durable probe: open %s: %w", daemonDir, err)
	}
	defer ds.Close()
	info, err := ds.Recover(c.Engine())
	if err != nil {
		return fmt.Errorf("durable probe: recover %s: %w", daemonDir, err)
	}
	m.set("durable.recover_ms", ms(time.Since(start).Nanoseconds()), "ms")
	m.set("durable.replayed", float64(info.Replayed), "count")
	start = time.Now()
	if err := ds.Checkpoint(); err != nil {
		return fmt.Errorf("durable probe: checkpoint: %w", err)
	}
	m.set("durable.checkpoint_ms", ms(time.Since(start).Nanoseconds()), "ms")
	return nil
}

// diskWriteBytes is the process's cumulative bytes sent to the block layer.
func diskWriteBytes() int64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0 // not Linux, or /proc hidden: the disk metrics read 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			n, _ := strconv.ParseInt(rest, 10, 64)
			return n
		}
	}
	return 0
}

func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// fsType names the filesystem holding dir, from /proc/mounts.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, kind := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mount := f[1]
		if (abs == mount || strings.HasPrefix(abs, strings.TrimSuffix(mount, "/")+"/")) && len(mount) > len(best) {
			best, kind = mount, f[2]
		}
	}
	return kind
}
