package trial

import (
	"fmt"
	"math/bits"

	"repro/internal/triplestore"
)

// MatrixEvaluator evaluates TriAL* expressions using the literal array
// representation of §5: every relation is an n×n×n bit cube over the
// store's objects, and the algorithms are the paper's Procedures 1–4,
// including Warshall's transitive closure for the reachability stars.
//
// This evaluator exists for fidelity and for the ablation benchmarks: the
// cube costs Θ(n³) bits regardless of |T|, so it only makes sense for
// dense stores over small object sets. The production path is Evaluator.
type MatrixEvaluator struct {
	// DisableReachStar forces the generic Procedure 2 fixpoint for all
	// stars, as in Evaluator.
	DisableReachStar bool

	store *triplestore.Store
	n     int
	adom  []triplestore.ID
}

// NewMatrixEvaluator returns a matrix evaluator over the store.
func NewMatrixEvaluator(s *triplestore.Store) *MatrixEvaluator {
	return &MatrixEvaluator{store: s, n: s.NumObjects(), adom: s.ActiveDomain()}
}

// Eval computes e(T), returning an ordinary relation.
func (mv *MatrixEvaluator) Eval(e Expr) (*triplestore.Relation, error) {
	c, err := mv.eval(e)
	if err != nil {
		return nil, err
	}
	return c.toRelation(), nil
}

// bitcube is a dense n×n×n bit array: entry (i,j,k) is bit (i·n+j)·n+k.
type bitcube struct {
	n     int
	words []uint64
}

func newCube(n int) *bitcube {
	return &bitcube{n: n, words: make([]uint64, (n*n*n+63)/64)}
}

func (c *bitcube) index(t triplestore.Triple) int {
	return (int(t[0])*c.n+int(t[1]))*c.n + int(t[2])
}

func (c *bitcube) set(t triplestore.Triple) {
	i := c.index(t)
	c.words[i>>6] |= 1 << uint(i&63)
}

func (c *bitcube) has(t triplestore.Triple) bool {
	i := c.index(t)
	return c.words[i>>6]&(1<<uint(i&63)) != 0
}

func (c *bitcube) triple(bit int) triplestore.Triple {
	k := bit % c.n
	bit /= c.n
	j := bit % c.n
	i := bit / c.n
	return triplestore.Triple{triplestore.ID(i), triplestore.ID(j), triplestore.ID(k)}
}

// forEach iterates the set bits, word-skipping over empty regions.
func (c *bitcube) forEach(f func(triplestore.Triple)) {
	for w, word := range c.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			f(c.triple(w*64 + b))
			word &= word - 1
		}
	}
}

func (c *bitcube) clone() *bitcube {
	d := newCube(c.n)
	copy(d.words, c.words)
	return d
}

func (c *bitcube) or(d *bitcube) {
	for i := range c.words {
		c.words[i] |= d.words[i]
	}
}

func (c *bitcube) andNot(d *bitcube) {
	for i := range c.words {
		c.words[i] &^= d.words[i]
	}
}

func (c *bitcube) equal(d *bitcube) bool {
	for i := range c.words {
		if c.words[i] != d.words[i] {
			return false
		}
	}
	return true
}

func (c *bitcube) count() int {
	n := 0
	for _, w := range c.words {
		n += bits.OnesCount64(w)
	}
	return n
}

func (c *bitcube) toRelation() *triplestore.Relation {
	var ts []triplestore.Triple
	c.forEach(func(t triplestore.Triple) { ts = append(ts, t) })
	return triplestore.RelationOf(ts...)
}

func (mv *MatrixEvaluator) fromRelation(r *triplestore.Relation) *bitcube {
	c := newCube(mv.n)
	r.ForEach(func(t triplestore.Triple) { c.set(t) })
	return c
}

func (mv *MatrixEvaluator) eval(e Expr) (*bitcube, error) {
	switch x := e.(type) {
	case Rel:
		r := mv.store.Relation(x.Name)
		if r == nil {
			return nil, fmt.Errorf("trial: unknown relation %q", x.Name)
		}
		return mv.fromRelation(r), nil
	case Universe:
		c := newCube(mv.n)
		for _, a := range mv.adom {
			for _, b := range mv.adom {
				for _, d := range mv.adom {
					c.set(triplestore.Triple{a, b, d})
				}
			}
		}
		return c, nil
	case Select:
		if !x.Cond.leftOnly() {
			return nil, fmt.Errorf("trial: selection condition %q mentions primed positions", x.Cond.String())
		}
		in, err := mv.eval(x.E)
		if err != nil {
			return nil, err
		}
		ce := compileCond(mv.store, x.Cond)
		out := newCube(mv.n)
		in.forEach(func(t triplestore.Triple) {
			if ce.holds(t, t) {
				out.set(t)
			}
		})
		return out, nil
	case Union:
		l, err := mv.eval(x.L)
		if err != nil {
			return nil, err
		}
		r, err := mv.eval(x.R)
		if err != nil {
			return nil, err
		}
		out := l.clone()
		out.or(r)
		return out, nil
	case Diff:
		l, err := mv.eval(x.L)
		if err != nil {
			return nil, err
		}
		r, err := mv.eval(x.R)
		if err != nil {
			return nil, err
		}
		out := l.clone()
		out.andNot(r)
		return out, nil
	case Join:
		l, err := mv.eval(x.L)
		if err != nil {
			return nil, err
		}
		r, err := mv.eval(x.R)
		if err != nil {
			return nil, err
		}
		return mv.join(l, r, x.Out, x.Cond), nil
	case Star:
		base, err := mv.eval(x.E)
		if err != nil {
			return nil, err
		}
		if !mv.DisableReachStar {
			switch reachStarKind(x) {
			case reachAny:
				return mv.reachStarAny(base), nil
			case reachSameLabel:
				return mv.reachStarSameLabel(base), nil
			}
		}
		return mv.fixpointStar(base, x), nil
	}
	return nil, fmt.Errorf("trial: unknown expression type %T", e)
}

// join is Procedure 1: enumerate pairs of set entries, check the
// condition, set the projected entry. (The paper iterates all n⁶ index
// pairs; word-skipping over zero regions is the only liberty taken.)
func (mv *MatrixEvaluator) join(l, r *bitcube, out [3]Pos, cond Cond) *bitcube {
	ce := compileCond(mv.store, cond)
	res := newCube(mv.n)
	l.forEach(func(lt triplestore.Triple) {
		r.forEach(func(rt triplestore.Triple) {
			if ce.holds(lt, rt) {
				res.set(project(out, lt, rt))
			}
		})
	})
	return res
}

// fixpointStar is Procedure 2: iterate Re := Re ∪ (Re ✶ R) until
// saturation (the paper bounds the iterations by n³; equality testing
// reaches the same fixpoint earlier).
func (mv *MatrixEvaluator) fixpointStar(base *bitcube, st Star) *bitcube {
	res := base.clone()
	for {
		var step *bitcube
		if st.Left {
			step = mv.join(base, res, st.Out, st.Cond)
		} else {
			step = mv.join(res, base, st.Out, st.Cond)
		}
		next := res.clone()
		next.or(step)
		if next.equal(res) {
			return res
		}
		res = next
	}
}

// bitmatrix is an n×n bit matrix with rows as bitsets, for the Warshall
// closure of Procedures 3–4.
type bitmatrix struct {
	n     int
	width int
	rows  []uint64
}

func newMatrix(n int) *bitmatrix {
	w := (n + 63) / 64
	return &bitmatrix{n: n, width: w, rows: make([]uint64, n*w)}
}

func (m *bitmatrix) row(i int) []uint64 { return m.rows[i*m.width : (i+1)*m.width] }

func (m *bitmatrix) set(i, j int) { m.row(i)[j>>6] |= 1 << uint(j&63) }

func (m *bitmatrix) has(i, j int) bool { return m.row(i)[j>>6]&(1<<uint(j&63)) != 0 }

// warshall computes the transitive closure in place: the paper's
// Procedure 3 step 7, with word-parallel row unions.
func (m *bitmatrix) warshall() {
	for k := 0; k < m.n; k++ {
		rk := m.row(k)
		for i := 0; i < m.n; i++ {
			if m.has(i, k) {
				ri := m.row(i)
				for w := range ri {
					ri[w] |= rk[w]
				}
			}
		}
	}
}

// reachStarAny is Procedure 3: build the subject→object reachability
// matrix of the base relation, close it transitively with Warshall, and
// emit (i, k, l) whenever R[i,k,j] and j →* l.
func (mv *MatrixEvaluator) reachStarAny(base *bitcube) *bitcube {
	reach := newMatrix(mv.n)
	base.forEach(func(t triplestore.Triple) {
		reach.set(int(t[0]), int(t[2]))
	})
	reach.warshall()
	res := base.clone()
	base.forEach(func(t triplestore.Triple) {
		row := reach.row(int(t[2]))
		for w, word := range row {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				res.set(triplestore.Triple{t[0], t[1], triplestore.ID(w*64 + b)})
				word &= word - 1
			}
		}
	})
	return res
}

// reachStarSameLabel is Procedure 4: a per-label reachability matrix.
func (mv *MatrixEvaluator) reachStarSameLabel(base *bitcube) *bitcube {
	// Group base triples by middle object.
	byLabel := map[triplestore.ID][]triplestore.Triple{}
	base.forEach(func(t triplestore.Triple) {
		byLabel[t[1]] = append(byLabel[t[1]], t)
	})
	res := base.clone()
	for _, ts := range byLabel {
		reach := newMatrix(mv.n)
		for _, t := range ts {
			reach.set(int(t[0]), int(t[2]))
		}
		reach.warshall()
		for _, t := range ts {
			row := reach.row(int(t[2]))
			for w, word := range row {
				for word != 0 {
					b := bits.TrailingZeros64(word)
					res.set(triplestore.Triple{t[0], t[1], triplestore.ID(w*64 + b)})
					word &= word - 1
				}
			}
		}
	}
	return res
}
