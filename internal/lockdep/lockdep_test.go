package lockdep_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/lockdep"
	"cqjoin/internal/transport"
)

type (
	muClass   struct{}
	ackClass  struct{}
	rwClass   struct{}
	tcpClass  struct{}
	dialClass struct{}
)

type state struct {
	mu  lockdep.Mutex[muClass]
	ack lockdep.Mutex[ackClass]
	rw  lockdep.RWMutex[rwClass]

	// tcp and dial take transport.TCP.Close's shape against its conn.
	tcp  lockdep.Mutex[tcpClass]
	dial lockdep.Mutex[dialClass]
}

func (s *state) sendHelper() { lockdep.Sending("send") }
func (s *state) hop()        { s.sendHelper() }

// The sends a goroutine may not start under a lock. Each checks before it
// reads its receiver, so a nil one is enough here. TCP.Deliver reports as
// the DeliverBatch it calls.
var sends = map[string]func(){
	"Node.Send":               func() { (*chord.Node)(nil).Send(nil, id.ID{}) },
	"Node.DirectSend":         func() { (*chord.Node)(nil).DirectSend(nil, nil) },
	"Node.Multisend":          func() { (*chord.Node)(nil).Multisend(nil, nil) },
	"Node.MultisendIterative": func() { (*chord.Node)(nil).MultisendIterative(nil) },
	"TCP.Deliver":             func() { (*transport.TCP)(nil).Deliver(nil, nil, nil) },
	"TCP.DeliverBatch":        func() { (*transport.TCP)(nil).DeliverBatch(nil, nil, nil) },
	"TCP.SendJoin":            func() { (*transport.TCP)(nil).SendJoin("") },
	"TCP.SendView":            func() { (*transport.TCP)(nil).SendView("", nil) },
}

// TestRules runs each case of the rules on one goroutine at a time, so a
// case whose locks would deadlock two goroutines only reports. want is the
// panic a case must raise, or "" for none; release undoes what a case that
// panics leaves held.
func TestRules(t *testing.T) {
	type row struct {
		name    string
		run     func(s *state)
		want    string
		release func(s *state)
	}
	rows := []row{
		{"transitive send under a deferred unlock", func(s *state) {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.hop()
		}, `send while holding lockdep_test.muClass`, nil},
		{"direct send", func(s *state) {
			s.mu.Lock()
			lockdep.Sending("send")
			s.mu.Unlock()
		}, `send while holding lockdep_test.muClass`, func(s *state) { s.mu.Unlock() }},
		{"send after an early return's unlock, on the path that goes on", func(s *state) {
			s.mu.Lock()
			for _, it := range []int{1, 2} {
				if it == 0 {
					s.mu.Unlock()
					return
				}
			}
			s.hop()
			s.mu.Unlock()
		}, `send while holding lockdep_test.muClass`, func(s *state) { s.mu.Unlock() }},
		{"collect then send", func(s *state) {
			s.mu.Lock()
			batch := []int{1}
			s.mu.Unlock()
			for range batch {
				s.hop()
			}
		}, "", nil},
		{"closure run after the unlock", func(s *state) {
			s.mu.Lock()
			send := func() { s.hop() }
			s.mu.Unlock()
			send()
		}, "", nil},
		{"unlock on every branch", func(s *state) {
			for _, fast := range []bool{true, false} {
				s.mu.Lock()
				if fast {
					s.mu.Unlock()
				} else {
					s.mu.Unlock()
				}
				s.hop()
			}
		}, "", nil},
		{"A then B", func(s *state) {
			s.mu.Lock()
			s.ack.Lock()
			s.ack.Unlock()
			s.mu.Unlock()
		}, "", nil},
		{"B then A", func(s *state) {
			s.ack.Lock()
			s.mu.Lock()
			s.mu.Unlock()
			s.ack.Unlock()
		}, `(?s)taking lockdep_test.muClass while holding lockdep_test.ackClass closes a lock-order cycle:.*` +
			`lockdep_test.ackClass was taken while holding lockdep_test.muClass at:\ngoroutine .*TestRules`,
			func(s *state) { s.ack.Unlock() }},
		{"close takes each dial under the transport lock", func(s *state) {
			s.tcp.Lock()
			s.dial.Lock()
			s.dial.Unlock()
			s.tcp.Unlock()
		}, "", nil},
		{"conn takes the transport lock under a dial", func(s *state) {
			s.dial.Lock()
			s.tcp.Lock()
			s.tcp.Unlock()
			s.dial.Unlock()
		}, `taking lockdep_test.tcpClass while holding lockdep_test.dialClass closes a lock-order cycle`,
			func(s *state) { s.dial.Unlock() }},
		{"a class taken twice", func(s *state) {
			other := new(state)
			s.mu.Lock()
			other.mu.Lock()
		}, `taking lockdep_test.muClass, which this goroutine already holds`, func(s *state) { s.mu.Unlock() }},
		{"unlock of a lock not held", func(s *state) {
			s.mu.Unlock()
		}, `releasing lockdep_test.muClass, which this goroutine does not hold`, nil},
		{"sync.Cond Wait round trip", func(s *state) {
			cond := sync.NewCond(&s.mu)
			ready := false
			go func() {
				s.mu.Lock()
				ready = true
				cond.Signal()
				s.mu.Unlock()
			}()
			s.mu.Lock()
			for !ready {
				cond.Wait()
			}
			s.mu.Unlock()
			s.hop()
		}, "", nil},
	}
	for name, send := range sends {
		rows = append(rows, row{"read lock across " + name, func(s *state) {
			s.rw.RLock()
			defer s.rw.RUnlock()
			send()
		}, `^lockdep: \w+\.` + regexp.QuoteMeta(name) + `\w* while holding lockdep_test.rwClass$`, nil})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			s := new(state)
			got := func() (msg string) {
				defer func() {
					if p := recover(); p != nil {
						msg = p.(string)
					}
				}()
				r.run(s)
				return ""
			}()
			if got != "" && r.release != nil {
				r.release(s)
			}
			switch {
			case r.want == "" && got != "":
				t.Fatalf("panicked: %s", got)
			case r.want != "" && !regexp.MustCompile(r.want).MatchString(got):
				t.Fatalf("panic %q, want one matching %q", got, r.want)
			}
		})
	}
}

// TestEveryLockIsTracked fails on a sync.Mutex or sync.RWMutex in the
// module's non-test code: each lock is a lockdep one, so the rules see it.
func TestEveryLockIsTracked(t *testing.T) {
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "../.." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "bench" || name == "lockdep") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p != "sync" {
				continue
			}
			name := "sync"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == name && (sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex") {
						t.Errorf("%s: sync.%s: use lockdep.%s with a class of its own", fset.Position(sel.Pos()), sel.Sel.Name, sel.Sel.Name)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
