package engine

import (
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// A condition whose group was emptied by a retraction and registered again
// is one group: each publication sends as many joins as it does where the
// condition was never retracted (DAI-Q and DAI-T index at both rewriters, so
// both tuples send one). The group's order slot once stayed behind on
// retraction, so a re-subscribed condition was walked, and its join sent,
// twice.
func TestRegroupedConditionSendsOneJoin(t *testing.T) {
	const sql = `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`
	for _, alg := range []Algorithm{SAI, DAIQ, DAIT} {
		t.Run(alg.String(), func(t *testing.T) {
			joins := func(regroup bool) (perPub []int64, notifs int) {
				env := newTestEnv(t, 48, Config{Algorithm: alg, Strategy: StrategyLeft, Seed: 3})
				if regroup {
					q := env.subscribe(t, 0, sql)
					if err := env.eng.Unsubscribe(env.node(0), q); err != nil {
						t.Fatalf("Unsubscribe: %v", err)
					}
				}
				env.subscribe(t, 0, sql)
				for i, tu := range []*relation.Tuple{sTuple(env, 9, 7, 0), rTuple(env, 1, 7, 0)} {
					env.net.Traffic().Reset()
					env.publish(t, 1+i, tu)
					perPub = append(perPub, env.net.Traffic().Messages("join"))
				}
				return perPub, len(env.eng.Notifications())
			}
			want, _ := joins(false)
			got, notifs := joins(true)
			if !slices.Equal(got, want) || slices.Max(got) != 1 {
				t.Errorf("join messages per publication %v, want %v with at most 1", got, want)
			}
			if notifs != 1 {
				t.Errorf("%d notifications, want 1", notifs)
			}
		})
	}
}

// sendLog records every delivery the network makes, in order, by its
// destination and its wire bytes.
type sendLog struct{ lines []string }

func (l *sendLog) Deliver(_, dst *chord.Node, msg chord.Message, forward func() bool) int {
	var w wire.Buffer
	line := dst.Key() + " " + msg.Kind()
	if err := EncodeMessage(&w, msg); err == nil {
		line += " " + hex.EncodeToString(w.Bytes())
	}
	l.lines = append(l.lines, line)
	return btoi(forward())
}

// Every walk over a bucket's groups that builds messages goes in one order,
// so one seed sends the same messages and notifications in the same order on
// every run. Each scenario puts several conditions in one bucket and triggers
// all of them with one tuple; the multi-way rewriter once walked its groups
// in map order.
func TestGroupWalksAreOrdered(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(t *testing.T, log *sendLog) []Notification
	}{
		{"SAIConditions", func(t *testing.T, log *sendLog) []Notification {
			env := newTestEnv(t, 32, Config{Algorithm: SAI, Strategy: StrategyLeft, Seed: 1})
			env.net.SetInterceptor(log)
			for i, right := range []string{"S.D", "S.E", "S.F", "S.D + 1", "2 * S.E"} {
				env.subscribe(t, i, `SELECT R.A, S.D FROM R, S WHERE R.B = `+right)
			}
			env.publish(t, 7, sTuple(env, 4, 2, 4))
			env.publish(t, 8, sTuple(env, 5, 4, 3))
			env.publish(t, 9, rTuple(env, 1, 4, 0))
			return env.eng.Notifications()
		}},
		{"ThreeWayChain", func(t *testing.T, log *sendLog) []Notification {
			env := newMultiEnv(t, 32, Config{Algorithm: SAI, Strategy: StrategyLeft, Seed: 1})
			env.net.SetInterceptor(log)
			for i, chain := range []string{
				"A.x = B.y AND B.x = C.y",
				"A.x = B.y AND B.z = C.y",
				"A.x = B.z AND B.x = C.y",
				"A.x = B.x AND B.y = C.z",
				"A.x = B.z AND B.y = C.x",
			} {
				env.subscribeChain(t, i, `SELECT A.z, C.z FROM A, B, C WHERE `+chain)
			}
			for i, tu := range [][3]float64{{1, 1, 1}, {2, 1, 1}, {1, 2, 1}, {1, 1, 2}} {
				env.publish(t, 7+i, env.tuple(env.b, tu[0], tu[1], tu[2]))
				env.publish(t, 7+i, env.tuple(env.c, tu[0], tu[1], tu[2]))
			}
			env.publish(t, 20, env.tuple(env.a, 1, 0, 10))
			return env.eng.Notifications()
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var first []string
			for run := 0; run < 20; run++ {
				log := &sendLog{}
				notifs := sc.run(t, log)
				if run == 0 && len(notifs) < 2 {
					t.Fatalf("%d notifications: the scenario must trigger several groups", len(notifs))
				}
				trace := log.lines
				for _, n := range notifs {
					trace = append(trace, fmt.Sprintf("notify %s %s", n.Subscriber, n.ContentKey()))
				}
				if run == 0 {
					first = trace
				} else if !slices.Equal(trace, first) {
					t.Fatalf("run %d sent a different sequence than run 0", run)
				}
			}
		})
	}
}
