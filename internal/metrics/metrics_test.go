package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestTrafficRecord(t *testing.T) {
	tr := NewTraffic()
	tr.Record("al-index", 5)
	tr.Record("al-index", 3)
	tr.Record("join", 0)
	if got := tr.Messages("al-index"); got != 2 {
		t.Fatalf("messages = %d, want 2", got)
	}
	if got := tr.Hops("al-index"); got != 8 {
		t.Fatalf("hops = %d, want 8", got)
	}
	if got := tr.TotalMessages(); got != 3 {
		t.Fatalf("total messages = %d, want 3", got)
	}
	if got := tr.TotalHops(); got != 8 {
		t.Fatalf("total hops = %d, want 8", got)
	}
}

func TestTrafficRecordHopsOnly(t *testing.T) {
	tr := NewTraffic()
	tr.Record("multisend", 2)
	tr.RecordHopsOnly("multisend", 4)
	if got := tr.Messages("multisend"); got != 1 {
		t.Fatalf("messages = %d, want 1", got)
	}
	if got := tr.Hops("multisend"); got != 6 {
		t.Fatalf("hops = %d, want 6", got)
	}
}

func TestTrafficBytes(t *testing.T) {
	tr := NewTraffic()
	tr.Record("join", 3)
	tr.AddBytes("join", 120)
	tr.AddBytes("join", 30)
	tr.AddBytes("query", 10)
	if got := tr.Bytes("join"); got != 150 {
		t.Fatalf("bytes = %d, want 150", got)
	}
	if got := tr.TotalBytes(); got != 160 {
		t.Fatalf("total bytes = %d, want 160", got)
	}
	if !strings.Contains(tr.String(), "bytes=150") {
		t.Fatalf("String missing bytes: %q", tr.String())
	}
	tr.Reset()
	if tr.TotalBytes() != 0 {
		t.Fatal("reset did not clear bytes")
	}
}

func TestTrafficResetAndSnapshot(t *testing.T) {
	tr := NewTraffic()
	tr.Record("x", 1)
	msgs, hops := tr.Snapshot()
	if msgs["x"] != 1 || hops["x"] != 1 {
		t.Fatal("snapshot missing data")
	}
	// Snapshot must be a copy.
	msgs["x"] = 99
	if tr.Messages("x") != 1 {
		t.Fatal("snapshot aliases internal state")
	}
	tr.Reset()
	if tr.TotalMessages() != 0 || tr.TotalHops() != 0 {
		t.Fatal("reset did not clear counters")
	}
}

func TestTrafficString(t *testing.T) {
	tr := NewTraffic()
	tr.Record("b-kind", 2)
	tr.Record("a-kind", 1)
	s := tr.String()
	if !strings.Contains(s, "a-kind") || !strings.Contains(s, "TOTAL") {
		t.Fatalf("String missing content: %q", s)
	}
	if strings.Index(s, "a-kind") > strings.Index(s, "b-kind") {
		t.Fatal("String not sorted by kind")
	}
}

func TestTrafficConcurrent(t *testing.T) {
	tr := NewTraffic()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				tr.Record("k", 1)
			}
		}()
	}
	wg.Wait()
	if got := tr.Messages("k"); got != 4000 {
		t.Fatalf("concurrent messages = %d, want 4000", got)
	}
}

func TestLoadRoles(t *testing.T) {
	var l Load
	l.AddFiltering(Rewriter, 3)
	l.AddFiltering(Evaluator, 5)
	if got := l.Filtering(Rewriter); got != 3 {
		t.Fatalf("rewriter filtering = %d", got)
	}
	if got := l.TotalFiltering(); got != 8 {
		t.Fatalf("total filtering = %d", got)
	}
	l.Reset()
	if l.TotalFiltering() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestRoleString(t *testing.T) {
	if Rewriter.String() != "rewriter" || Evaluator.String() != "evaluator" {
		t.Fatal("role names wrong")
	}
	if Role(99).String() != "unknown" {
		t.Fatal("unknown role name wrong")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	d := Summarize(nil)
	if d.N != 0 || d.Total != 0 || d.Gini != 0 {
		t.Fatalf("empty summary nonzero: %+v", d)
	}
}

func TestSummarizeUniform(t *testing.T) {
	d := Summarize([]float64{4, 4, 4, 4})
	if d.Gini > 1e-9 {
		t.Fatalf("uniform Gini = %f, want 0", d.Gini)
	}
	if d.CoV > 1e-9 {
		t.Fatalf("uniform CoV = %f, want 0", d.CoV)
	}
	if d.Mean != 4 || d.Max != 4 || d.NonZero != 4 {
		t.Fatalf("uniform stats wrong: %+v", d)
	}
}

func TestSummarizeConcentrated(t *testing.T) {
	loads := make([]float64, 100)
	loads[0] = 1000
	d := Summarize(loads)
	if d.Gini < 0.95 {
		t.Fatalf("concentrated Gini = %f, want near 1", d.Gini)
	}
	if d.NonZero != 1 {
		t.Fatalf("NonZero = %d, want 1", d.NonZero)
	}
	if math.Abs(d.Top1Share-1.0) > 1e-9 {
		t.Fatalf("Top1Share = %f, want 1", d.Top1Share)
	}
}

func TestSummarizePercentiles(t *testing.T) {
	loads := make([]float64, 100)
	for i := range loads {
		loads[i] = float64(i + 1) // 1..100
	}
	d := Summarize(loads)
	if d.P50 != 50 || d.P90 != 90 || d.P99 != 99 {
		t.Fatalf("percentiles = %v %v %v", d.P50, d.P90, d.P99)
	}
	if d.Max != 100 {
		t.Fatalf("max = %v", d.Max)
	}
}

func TestGiniBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		loads := make([]float64, len(raw))
		for i, v := range raw {
			loads[i] = float64(v)
		}
		d := Summarize(loads)
		return d.Gini >= -1e-9 && d.Gini <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTopShareMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		loads := make([]float64, len(raw))
		for i, v := range raw {
			loads[i] = float64(v)
		}
		d := Summarize(loads)
		return d.Top1Share <= d.Top10Share+1e-9 && d.Top10Share <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeInt(t *testing.T) {
	d := SummarizeInt([]int64{1, 2, 3})
	if d.Total != 6 || d.N != 3 {
		t.Fatalf("SummarizeInt wrong: %+v", d)
	}
}

func TestDistributionString(t *testing.T) {
	s := Summarize([]float64{1, 2}).String()
	if !strings.Contains(s, "gini=") || !strings.Contains(s, "n=2") {
		t.Fatalf("String missing fields: %q", s)
	}
}
