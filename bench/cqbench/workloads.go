package main

import "fmt"

// A spec pins one workload: the system configuration, the shape of the
// operation stream and the amount of work per measured second. Nothing in
// it depends on the machine or on the clock, so two runs with the same
// -seed and -seconds execute the same operations.
//
// Sizes were measured on the reference box (2 shared vCPUs, go1.24): the
// paced rate sits at or below half the closed-loop capacity, and satRate
// is the closed-loop capacity rounded down, so with -seconds 10 both
// measured phases last about five seconds. See ../README.md for the
// numbers behind each choice.
type spec struct {
	name string
	why  string

	tcp     bool // two daemon.Servers over loopback TCP instead of one in-process cluster
	durable bool // tcp only: each daemon gets a StateDir (fsync on, default SnapshotEvery)
	nodes   int

	// Standing queries: pairs relation pairs R_i/S_i, one equi-join
	// condition per joined attribute (A, then B), subsPerCond subscribers
	// on each condition.
	pairs       int
	conds       int
	subsPerCond int

	// Join keys come from a sliding recency window over key ids, per
	// relation pair: a new id every keyEvery publications of the pair,
	// each publication drawing uniformly from the newest keyWindow ids. A
	// key therefore lives for keyWindow*keyEvery publications and is drawn
	// keyEvery times on average, which fixes notifications per publication
	// at conds*subsPerCond*keyEvery/4 regardless of run length.
	keyEvery  int
	keyWindow int

	churnEvery int // >0: every churnEvery-th op alternates subscribe / unsubscribe-oldest

	// Hot key (tcp-hot): hotPerTen of every ten publications take one key
	// on attribute A that changes every hotRotate ops.
	hotPerTen    int
	hotRotate    int
	hotThreshold int
	hotReplicas  int

	warmup    int // warm-up publications, part of set-up
	pacedRate int // open-loop ops per second
	satRate   int // closed-loop ops per measured second (sizes the sat phase)

	// tcp only: the two overlay listeners. Ring ownership is the hashed
	// address, so the ports are part of the workload; ownSplit is the node
	// count each daemon must own under them and remoteFrac the share of
	// deliveries that cross daemons (seed-dependent within remoteTol).
	ports      [2]int
	ownSplit   [2]int
	remoteFrac float64
}

const remoteTol = 0.05

// Overlay ports. Chosen below the kernel's ephemeral range so no outgoing
// connection can squat on them, and so that the two hashed addresses cut
// the 256-node ring into 128 + 128.
var (
	fullPorts  = [2]int{23606, 23607}
	smokePorts = [2]int{26514, 26515}
)

var specs = []spec{
	{
		name:  "sim-steady",
		why:   "in-process SAI on a 2048-node ring, publish only: engine and chord do all the work, the paper's own regime",
		nodes: 2048, pairs: 32, conds: 2, subsPerCond: 4,
		keyEvery: 1, keyWindow: 32,
		warmup: 12000, pacedRate: 2000, satRate: 10000,
	},
	{
		name:  "sim-subchurn",
		why:   "sim-steady with 1 op in 8 a subscribe or unsubscribe: query-index writes beside tuple reads",
		nodes: 2048, pairs: 32, conds: 2, subsPerCond: 4,
		keyEvery: 1, keyWindow: 32, churnEvery: 8,
		warmup: 12000, pacedRate: 1500, satRate: 8000,
	},
	{
		name: "tcp-steady",
		why:  "two daemons over loopback, JSON clients, publish only: daemon, codec and transport dominate",
		tcp:  true, nodes: 256, pairs: 2, conds: 2, subsPerCond: 4,
		keyEvery: 4, keyWindow: 32,
		warmup: 1500, pacedRate: 700, satRate: 1800,
		ports: fullPorts, ownSplit: [2]int{128, 128}, remoteFrac: 0.5,
	},
	{
		name: "tcp-hot",
		why:  "tcp-steady with 30% of publications on a rotating hot key and hot-key sharding armed: skew, notify fan-out",
		tcp:  true, nodes: 256, pairs: 1, conds: 2, subsPerCond: 4,
		keyEvery: 4, keyWindow: 32,
		hotPerTen: 3, hotRotate: 200, hotThreshold: 32, hotReplicas: 4,
		warmup: 1000, pacedRate: 300, satRate: 1200,
		ports: fullPorts, ownSplit: [2]int{128, 128}, remoteFrac: 0.5,
	},
	{
		name: "tcp-durable",
		why:  "tcp-steady with a state directory and fsync: the WAL dominates, the only place a commit-path change shows",
		tcp:  true, durable: true, nodes: 256, pairs: 2, conds: 2, subsPerCond: 4,
		keyEvery: 4, keyWindow: 32,
		warmup: 120, pacedRate: 40, satRate: 100,
		ports: fullPorts, ownSplit: [2]int{128, 128}, remoteFrac: 0.5,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

func (s spec) standing() int { return s.pairs * s.conds * s.subsPerCond }

// counts is the number of operations in each part of a run.
type counts struct {
	warmup, paced, sat int
	// c1 and traced are the two single-client passes of a -trace run:
	// untraced then traced over the same number of ops.
	c1, traced int
}

func (c counts) total() int { return c.warmup + c.paced + c.sat + c.c1 + c.traced }

// countsFor sizes a run: half of seconds at the paced rate, half at the
// closed-loop rate. With trace, two single-client passes of an eighth of
// the sat work each follow.
//
// On the hot-key workload every part is a whole number of hot-key epochs:
// the cost of a publication grows through an epoch, so parts that cut
// epochs at different points would not be comparable with each other.
func (s spec) countsFor(seconds int, trace bool) counts {
	whole := func(n int) int {
		if n > s.hotRotate && s.hotRotate > 0 {
			return n - n%s.hotRotate
		}
		return n // also a part shorter than one epoch (smoke runs) stays as it is
	}
	c := counts{
		warmup: whole(s.warmup),
		paced:  whole(s.pacedRate * seconds / 2),
		sat:    whole(s.satRate * seconds / 2),
	}
	if trace {
		c.c1 = whole(c.sat / 8)
		c.traced = c.c1
	}
	return c
}
