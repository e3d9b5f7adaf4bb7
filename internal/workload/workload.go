// Package workload generates the synthetic workloads of the evaluation
// chapter: relation-pair schemas, continuous join queries with recurring
// conditions, and tuple streams with Zipf-skewed attribute values
// (Section 4.3.6: "in our experiments ... we assume a highly skewed
// distribution for all attributes").
//
// The full experimental set-up text of the thesis (Chapter 5.1) is not in
// the available source, so the concrete defaults here are reconstructed
// from the algorithm chapters and the List of Figures; every knob a figure
// sweeps — network size, number of queries, tuples per window, window
// size, the bos ratio — is an explicit parameter. See DESIGN.md §2.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// Params shapes a workload.
type Params struct {
	// Seed makes generation reproducible.
	Seed int64
	// Pairs is the number of joinable relation pairs (R0/S0, R1/S1, ...).
	// Queries always join the two relations of one pair. Default 4.
	Pairs int
	// Attrs is the arity h of every relation. Default 4.
	Attrs int
	// Domain is the number of distinct values per attribute. Default 1000.
	Domain int
	// Theta is the Zipf skew of attribute values; 0 draws uniformly.
	// Default 0.9 ("highly skewed").
	Theta float64
	// BosRatio is the bias-of-stream ratio: how many tuples of the pair's
	// left relation arrive for every tuple of the right relation. 1 means
	// balanced streams; 4 means 4 left tuples per right tuple. Default 1.
	BosRatio float64
	// FilterProb is the probability a generated query carries an extra
	// selective predicate. Default 0.
	FilterProb float64
	// SelectAttrs is how many attributes each side contributes to the
	// SELECT list. Default 1.
	SelectAttrs int
}

// withDefaults fills zero fields.
func (p Params) withDefaults() Params {
	if p.Pairs <= 0 {
		p.Pairs = 4
	}
	if p.Attrs <= 0 {
		p.Attrs = 4
	}
	if p.Domain <= 0 {
		p.Domain = 1000
	}
	if p.Theta == 0 {
		p.Theta = 0.9
	}
	if p.BosRatio <= 0 {
		p.BosRatio = 1
	}
	if p.SelectAttrs <= 0 {
		p.SelectAttrs = 1
	}
	if p.SelectAttrs > p.Attrs {
		p.SelectAttrs = p.Attrs
	}
	return p
}

// Generator produces queries and tuples. It is not safe for concurrent
// use; create one generator per goroutine.
type Generator struct {
	p       Params
	rng     *rand.Rand
	catalog *relation.Catalog
	left    []*relation.Schema
	right   []*relation.Schema
	zipf    *zipf
}

// New builds a generator and its catalog.
func New(p Params) *Generator {
	p = p.withDefaults()
	g := &Generator{p: p, rng: rand.New(rand.NewSource(p.Seed))}
	var schemas []*relation.Schema
	for i := 0; i < p.Pairs; i++ {
		attrs := make([]string, p.Attrs)
		for j := range attrs {
			attrs[j] = fmt.Sprintf("a%d", j)
		}
		l := relation.MustSchema(fmt.Sprintf("R%d", i), attrs...)
		r := relation.MustSchema(fmt.Sprintf("S%d", i), attrs...)
		g.left = append(g.left, l)
		g.right = append(g.right, r)
		schemas = append(schemas, l, r)
	}
	g.catalog = relation.MustCatalog(schemas...)
	g.zipf = newZipf(p.Domain, p.Theta)
	return g
}

// Catalog returns the generated schema catalog.
func (g *Generator) Catalog() *relation.Catalog { return g.catalog }

// Params returns the effective (defaulted) parameters.
func (g *Generator) Params() Params { return g.p }

// Query generates one type-T1 continuous join query: a random pair, a
// random join-attribute pair, SELECT projections from both sides, and with
// probability FilterProb a selective predicate on one side. Conditions
// recur across queries (the pair and attribute choices are drawn from a
// small space), which exercises the query grouping of Section 4.3.5.
func (g *Generator) Query() *query.Query {
	pair := g.rng.Intn(g.p.Pairs)
	l, r := g.left[pair], g.right[pair]
	la := fmt.Sprintf("a%d", g.rng.Intn(g.p.Attrs))
	ra := fmt.Sprintf("a%d", g.rng.Intn(g.p.Attrs))

	sql := fmt.Sprintf("SELECT %s FROM %s, %s WHERE %s.%s = %s.%s",
		g.selectList(l, r), l.Name(), r.Name(), l.Name(), la, r.Name(), ra)
	if g.rng.Float64() < g.p.FilterProb {
		side := l
		if g.rng.Intn(2) == 1 {
			side = r
		}
		sql += fmt.Sprintf(" AND %s.a%d >= %d", side.Name(), g.rng.Intn(g.p.Attrs), g.sampleValue())
	}
	return query.MustParse(g.catalog, sql)
}

// QueryT2 generates a type-T2 query whose sides are arithmetic expressions
// over two attributes each — evaluable only by DAI-V (Section 4.5).
func (g *Generator) QueryT2() *query.Query {
	pair := g.rng.Intn(g.p.Pairs)
	l, r := g.left[pair], g.right[pair]
	sql := fmt.Sprintf(
		"SELECT %s FROM %s, %s WHERE %d * %s.a0 + %s.a1 = %d * %s.a0 + %s.a1",
		g.selectList(l, r), l.Name(), r.Name(),
		1+g.rng.Intn(3), l.Name(), l.Name(),
		1+g.rng.Intn(3), r.Name(), r.Name())
	return query.MustParse(g.catalog, sql)
}

// QueryChain generates a k-way chain query alternating over the left and
// right relations of consecutive pairs (R0, S0, R1, S1, ...), so the chain
// uses k distinct relations. k must be in [2, 2*Pairs].
func (g *Generator) QueryChain(k int) *query.Query {
	if k < 2 || k > 2*g.p.Pairs {
		panic(fmt.Sprintf("workload: chain arity %d out of range [2, %d]", k, 2*g.p.Pairs))
	}
	rels := make([]*relation.Schema, k)
	for i := range rels {
		if i%2 == 0 {
			rels[i] = g.left[i/2]
		} else {
			rels[i] = g.right[i/2]
		}
	}
	sql := fmt.Sprintf("SELECT %s.a0, %s.a0 FROM", rels[0].Name(), rels[k-1].Name())
	for i, r := range rels {
		if i > 0 {
			sql += ","
		}
		sql += " " + r.Name()
	}
	sql += " WHERE"
	for i := 0; i+1 < k; i++ {
		if i > 0 {
			sql += " AND"
		}
		la := fmt.Sprintf("a%d", g.rng.Intn(g.p.Attrs))
		ra := fmt.Sprintf("a%d", g.rng.Intn(g.p.Attrs))
		sql += fmt.Sprintf(" %s.%s = %s.%s", rels[i].Name(), la, rels[i+1].Name(), ra)
	}
	return query.MustParse(g.catalog, sql)
}

// ChainTuple generates a tuple of one of the k chain relations, uniformly.
func (g *Generator) ChainTuple(k int) *relation.Tuple {
	i := g.rng.Intn(k)
	if i%2 == 0 {
		return g.TupleOf(g.left[i/2])
	}
	return g.TupleOf(g.right[i/2])
}

func (g *Generator) selectList(l, r *relation.Schema) string {
	list := ""
	for i := 0; i < g.p.SelectAttrs; i++ {
		if list != "" {
			list += ", "
		}
		list += fmt.Sprintf("%s.a%d, %s.a%d", l.Name(), i, r.Name(), i)
	}
	return list
}

// Tuple generates one tuple: the pair is uniform, the side follows the bos
// ratio (left-relation tuples arrive BosRatio times as often as right-
// relation ones), and every attribute value is drawn from the Zipf-skewed
// domain.
func (g *Generator) Tuple() *relation.Tuple {
	pair := g.rng.Intn(g.p.Pairs)
	schema := g.right[pair]
	if g.rng.Float64() < g.p.BosRatio/(1+g.p.BosRatio) {
		schema = g.left[pair]
	}
	return g.TupleOf(schema)
}

// TupleOf generates a tuple of the given schema with skewed values.
func (g *Generator) TupleOf(schema *relation.Schema) *relation.Tuple {
	vals := make([]relation.Value, schema.Arity())
	for i := range vals {
		vals[i] = relation.N(float64(g.sampleValue()))
	}
	return relation.MustTuple(schema, vals...)
}

// LeftSchema and RightSchema expose the pair's relations for experiments
// that need side-specific streams.
func (g *Generator) LeftSchema(pair int) *relation.Schema  { return g.left[pair%len(g.left)] }
func (g *Generator) RightSchema(pair int) *relation.Schema { return g.right[pair%len(g.right)] }

// sampleValue draws one value from the skewed domain.
func (g *Generator) sampleValue() int {
	return g.zipf.sample(g.rng)
}

// zipf samples integers 1..n with P(i) ∝ 1/i^theta via the precomputed
// cumulative distribution. Unlike math/rand's Zipf, it supports the
// theta < 1 exponents typical of database workloads (the paper assumes
// highly skewed distributions; theta = 0.9 is the conventional setting).
type zipf struct {
	cdf []float64
}

func newZipf(n int, theta float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 1; i <= n; i++ {
		if theta <= 0 {
			sum += 1
		} else {
			sum += 1 / math.Pow(float64(i), theta)
		}
		cdf[i-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) sample(rng *rand.Rand) int {
	u := rng.Float64()
	return 1 + sort.SearchFloat64s(z.cdf, u)
}
