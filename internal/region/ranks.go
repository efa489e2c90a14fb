package region

import (
	"math"
	"math/bits"
	"slices"

	"caqe/internal/partition"
	"caqe/internal/preference"
	"caqe/internal/skycube"
	"caqe/internal/workload"
)

// Bits is a set of region indices, 64 to a word: index i is bit i%64 of
// word i/64.
type Bits []uint64

// NewBits returns an empty set sized for indices below n.
func NewBits(n int) Bits { return make(Bits, (n+63)/64) }

// Has reports whether i is a member.
func (b Bits) Has(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// Set adds i.
func (b Bits) Set(i int) { b[i>>6] |= 1 << uint(i&63) }

// Unset removes i.
func (b Bits) Unset(i int) { b[i>>6] &^= 1 << uint(i&63) }

// Next returns the smallest member ≥ from, or -1 if none:
//
//	for i := b.Next(0); i >= 0; i = b.Next(i + 1) { ... }
func (b Bits) Next(from int) int {
	w := from >> 6
	if w >= len(b) {
		return -1
	}
	if rest := b[w] >> uint(from&63); rest != 0 {
		return from + bits.TrailingZeros64(rest)
	}
	for w++; w < len(b); w++ {
		if b[w] != 0 {
			return w<<6 + bits.TrailingZeros64(b[w])
		}
	}
	return -1
}

// Count returns the number of members.
func (b Bits) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// UnsetTo removes every member ≤ i.
func (b Bits) UnsetTo(i int) {
	clear(b[:i>>6])
	b[i>>6] &^= ^uint64(0) >> uint(63-i&63)
}

// CountTo returns the number of members ≤ i.
func (b Bits) CountTo(i int) int {
	n := 0
	for _, w := range b[:i>>6] {
		n += bits.OnesCount64(w)
	}
	return n + bits.OnesCount64(b[i>>6]<<uint(63-i&63))
}

// CountRange returns the number of members in [from, to).
func (b Bits) CountRange(from, to int) int {
	if from >= to {
		return 0
	}
	fw, tw := from>>6, (to-1)>>6
	lo, hi := ^uint64(0)<<uint(from&63), ^uint64(0)>>uint(63-(to-1)&63)
	if fw == tw {
		return bits.OnesCount64(b[fw] & lo & hi)
	}
	n := bits.OnesCount64(b[fw]&lo) + bits.OnesCount64(b[tw]&hi)
	for _, w := range b[fw+1 : tw] {
		n += bits.OnesCount64(w)
	}
	return n
}

// CornerRanks indexes one corner of a region list — every region's Lo, or
// every region's Hi — by rank on each output dimension: the regions whose
// corner lies at or below, or at or above, a probe on one dimension come out
// as a Bits over region index. A query's verdict on a probe is then the AND
// of its preference dimensions' weak sets and the OR of their strict sets,
// which is QueryDims.Pair read against every region at once.
//
// Per dimension the index keeps the coordinates in ascending order with
// their regions, a NaN coordinate left out: it lies at or below no probe
// and at or above none, as Pair's comparisons have it. It also keeps every
// rankStride-th prefix set, the regions of the r·rankStride lowest
// coordinates, so a probe finds its rank by binary search and completes
// the prefix from the last kept set with fewer than rankStride bits. Its
// memory is nd·(m/rankStride+2) sets of m bits: below nd = rankStride
// dimensions, less than one set per region would take.
type CornerRanks struct {
	words int
	dims  []rankDim
}

type rankDim struct {
	vals  []float64 // the coordinates, ascending, NaN left out
	ids   []int32   // the region of each coordinate
	pos   []int32   // the rank of each region's coordinate, -1 for NaN
	marks []uint64  // row r, words long: the regions of vals[:r*rankStride]
	all   Bits      // the regions of every coordinate
}

const rankStride = 16

// NewCornerRanks indexes the corners corner(0) … corner(m-1) over nd
// output dimensions.
func NewCornerRanks(m, nd int, corner func(i int) []float64) *CornerRanks {
	c := &CornerRanks{words: (m + 63) / 64, dims: make([]rankDim, nd)}
	keys := make([]uint64, 0, m)
	var sorter partition.KeySorter
	for k := range c.dims {
		d := &c.dims[k]
		keys, d.ids = keys[:0], make([]int32, 0, m)
		for i := 0; i < m; i++ {
			if v := corner(i)[k]; !math.IsNaN(v) {
				keys = append(keys, partition.FloatKey(v))
				d.ids = append(d.ids, int32(i))
			}
		}
		// Equal coordinates may lie in any order (−0 below +0 here): a rank
		// is never taken between two of them.
		sorter.Sort(keys, d.ids)
		d.vals, d.pos = make([]float64, len(d.ids)), make([]int32, m)
		for i := range d.pos {
			d.pos[i] = -1
		}
		for p, id := range d.ids {
			d.vals[p], d.pos[id] = corner(int(id))[k], int32(p)
		}
		d.all = NewBits(m)
		c.remark(k, 0)
	}
	return c
}

// remark recomputes dimension k's kept prefix sets from rank from on, and
// the set of all its regions.
func (c *CornerRanks) remark(k, from int) {
	d := &c.dims[k]
	rows := len(d.ids)/rankStride + 1
	if n := rows * c.words; len(d.marks) < n {
		d.marks = append(d.marks, make([]uint64, n-len(d.marks))...)
	} else {
		d.marks = d.marks[:n]
	}
	for r := from/rankStride + 1; r < rows; r++ {
		row := Bits(d.marks[r*c.words : (r+1)*c.words])
		copy(row, d.marks[(r-1)*c.words:r*c.words])
		for _, i := range d.ids[(r-1)*rankStride : r*rankStride] {
			row.Set(int(i))
		}
	}
	c.prefix(d.all, k, len(d.ids))
}

// Move re-ranks region i, whose corner is now x, on every dimension:
// O(m) per dimension where a rebuild sorts.
func (c *CornerRanks) Move(i int, x []float64) {
	for k := range c.dims {
		d := &c.dims[k]
		v, at := x[k], int(d.pos[i])
		if at >= 0 && d.vals[at] == v {
			d.vals[at] = v // the rank holds; a zero may change sign
			continue
		}
		from := len(d.ids)
		if at >= 0 {
			from = at
			d.ids = slices.Delete(d.ids, at, at+1)
			d.vals = slices.Delete(d.vals, at, at+1)
			d.pos[i] = -1
		}
		if !math.IsNaN(v) {
			to := upperRank(d.vals, v)
			d.ids = slices.Insert(d.ids, to, int32(i))
			d.vals = slices.Insert(d.vals, to, v)
			from = min(from, to)
		}
		for p := from; p < len(d.ids); p++ {
			d.pos[d.ids[p]] = int32(p)
		}
		c.remark(k, from)
	}
}

// NotBelow writes into dst the members of within whose corner lies strictly
// below x[k] on no dimension dims[k]. With x the per-dimension minimum of
// some points, only these regions' corners can lie at or above one of the
// points on every dimension of dims. A NaN coordinate lies below nothing,
// and nothing lies below a NaN x[k], so neither rules a region out. Each
// dimension costs its rank search, one kept prefix set and fewer than
// rankStride single bits.
func (c *CornerRanks) NotBelow(dst, within Bits, dims preference.Subspace, x []float64) {
	copy(dst, within)
	for k, d := range dims {
		if math.IsNaN(x[k]) {
			continue
		}
		lt, _ := c.ranks(d, x[k])
		dd, r := &c.dims[d], lt/rankStride
		for w, m := range dd.marks[r*c.words : (r+1)*c.words] {
			dst[w] &^= m
		}
		for _, i := range dd.ids[r*rankStride : lt] {
			dst.Unset(int(i))
		}
	}
}

// prefix writes into dst the regions of the p lowest coordinates on
// dimension k.
func (c *CornerRanks) prefix(dst Bits, k, p int) {
	d := &c.dims[k]
	r := p / rankStride
	copy(dst, d.marks[r*c.words:(r+1)*c.words])
	for _, i := range d.ids[r*rankStride : p] {
		dst.Set(int(i))
	}
}

// ranks returns how many coordinates on dimension k lie strictly below x
// (lt) and at or below it (le); x is not NaN.
func (c *CornerRanks) ranks(k int, x float64) (lt, le int) {
	vals := c.dims[k].vals
	le = upperRank(vals, x)
	lo := 0
	for hi := le; lo < hi; {
		if mid := int(uint(lo+hi) >> 1); vals[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, le
}

// ownRanks is ranks at region i's own coordinate on dimension k, read from
// its rank and those of its ties; both are -1 for a NaN coordinate.
func (c *CornerRanks) ownRanks(k, i int) (lt, le int) {
	d := &c.dims[k]
	at := int(d.pos[i])
	if at < 0 {
		return -1, -1
	}
	x := d.vals[at]
	lt, le = at, at+1
	for lt > 0 && d.vals[lt-1] == x {
		lt--
	}
	for le < len(d.vals) && d.vals[le] == x {
		le++
	}
	return lt, le
}

// upperRank returns the number of ascending vals at or below x: the first rank
// above it.
func upperRank(vals []float64, x float64) int {
	lo := 0
	for hi := len(vals); lo < hi; {
		if mid := int(uint(lo+hi) >> 1); vals[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Probe holds one corner's per-dimension sets against a CornerRanks: the
// weak sets (at or below the corner for Below, at or above it for Above)
// and the strict ones, over the regions from its first word on. The sets
// are word-major — word w of dimension k's set at w·nd+k — so one word of
// every dimension lies together for the folds, which pass over the words
// once and fold each query's dimensions in turn. Its buffers grow to the
// index and are reused.
type Probe struct {
	words, nd, from int
	lt, le          []int // per dimension, the probe's ranks; -1 for NaN
	weak, strict    []uint64
}

func (p *Probe) grow(c *CornerRanks, from int) {
	p.words, p.nd, p.from = c.words, len(c.dims), from
	n := p.nd * p.words
	p.weak = slices.Grow(p.weak[:0], n)[:n]
	p.strict = slices.Grow(p.strict[:0], n)[:n]
	p.lt = slices.Grow(p.lt[:0], p.nd)[:p.nd]
	p.le = slices.Grow(p.le[:0], p.nd)[:p.nd]
}

// rank finds the ranks of corner x on every dimension of c.
func (p *Probe) rank(c *CornerRanks, x []float64) {
	p.grow(c, 0)
	for k := range c.dims {
		if math.IsNaN(x[k]) {
			p.lt[k], p.le[k] = -1, -1
			continue
		}
		p.lt[k], p.le[k] = c.ranks(k, x[k])
	}
}

// fill writes every dimension's sets from its ranks, upward for an Above
// probe.
func (p *Probe) fill(c *CornerRanks, up bool) {
	for k := range c.dims {
		if p.lt[k] < 0 {
			p.empty(k)
			continue
		}
		p.column(c, k, p.lt[k], p.le[k], up)
	}
}

// Below probes c with corner x on every dimension: the regions whose corner
// lies at or below x, and strictly below it.
func (p *Probe) Below(c *CornerRanks, x []float64) {
	p.rank(c, x)
	p.fill(c, false)
}

// Above probes c with corner x on every dimension: the regions whose corner
// lies at or above x, and strictly above it.
func (p *Probe) Above(c *CornerRanks, x []float64) {
	p.rank(c, x)
	p.fill(c, true)
}

// AboveOwn is Above with region i's own corner in c, over the regions from
// i's word on: the ranks are read from the index, and the words before
// i's are left as they were.
func (p *Probe) AboveOwn(c *CornerRanks, i int) {
	p.grow(c, i>>6)
	for k := range c.dims {
		p.lt[k], p.le[k] = c.ownRanks(k, i)
	}
	p.fill(c, true)
}

// empty clears dimension k's sets: a NaN lies at or below nothing and at or
// above nothing.
func (p *Probe) empty(k int) {
	for at := p.from*p.nd + k; at < len(p.weak); at += p.nd {
		p.weak[at], p.strict[at] = 0, 0
	}
}

// column writes dimension k's sets from the ranks lt ≤ le of the probe on
// it: for a Below probe the regions of the le lowest coordinates (weak) and
// of the lt lowest (strict), for an Above probe the complements of the lt
// lowest (weak) and of the le lowest (strict). Both start from the kept
// prefix set nearest lt, or its complement; each region of the ranks
// between the two (at most rankStride/2, short of the last kept set) then
// flips in both, and each region tied with the probe in the one set that
// differs.
func (p *Probe) column(c *CornerRanks, k, lt, le int, up bool) {
	d, nd := &c.dims[k], p.nd
	r := min((lt+rankStride/2)/rankStride, len(d.ids)/rankStride) // the nearest kept set
	marks := d.marks[r*c.words : (r+1)*c.words]
	for w := p.from; w < p.words; w++ {
		m := marks[w]
		if up {
			m = d.all[w] &^ m
		}
		p.weak[w*nd+k], p.strict[w*nd+k] = m, m
	}
	for _, i := range d.ids[min(r*rankStride, lt):max(r*rankStride, lt)] {
		if w := int(i) >> 6; w >= p.from {
			p.weak[w*nd+k] ^= 1 << uint(i&63)
			p.strict[w*nd+k] ^= 1 << uint(i&63)
		}
	}
	ties := p.weak
	if up {
		ties = p.strict
	}
	for _, i := range d.ids[lt:le] {
		if w := int(i) >> 6; w >= p.from {
			ties[w*nd+k] ^= 1 << uint(i&63)
		}
	}
}

// WeakFold writes into dst[q], for each query q of qs, the members of sets[q]
// that are weak on every dimension of q's preference — for a Below probe,
// the regions whose corner weakly dominates the probe there; for an Above
// probe, those it weakly dominates — and into union the union of those
// sets[q], from the probe's first word on. An empty preference keeps all of
// sets[q].
func (p *Probe) WeakFold(dst []Bits, union Bits, sets []Bits, qs skycube.QSet, queries []workload.Query) {
	for w := p.from; w < p.words; w++ {
		weak := p.weak[w*p.nd : (w+1)*p.nd]
		u := uint64(0)
		for b := uint64(qs); b != 0; b &= b - 1 {
			q := bits.TrailingZeros64(b)
			m := sets[q][w]
			u |= m
			for _, k := range queries[q].Pref {
				m &= weak[k]
			}
			dst[q][w] = m
		}
		union[w] = u
	}
}

// DominantFold writes into dst the union, over each query q of qs, of the
// members of sets[q] that are weak on every dimension of q's preference and
// strict on one — the dominance of WeakFold — and into union the union of
// those sets[q], from the probe's first word on. An empty preference keeps
// none.
func (p *Probe) DominantFold(dst, union Bits, sets []Bits, qs skycube.QSet, queries []workload.Query) {
	for w := p.from; w < p.words; w++ {
		weak, strict := p.weak[w*p.nd:(w+1)*p.nd], p.strict[w*p.nd:(w+1)*p.nd]
		u, dom := uint64(0), uint64(0)
		for b := uint64(qs); b != 0; b &= b - 1 {
			q := bits.TrailingZeros64(b)
			m, s := sets[q][w], uint64(0)
			u |= m
			for _, k := range queries[q].Pref {
				m &= weak[k]
				s |= strict[k]
			}
			dom |= m & s
		}
		dst[w], union[w] = dom, u
	}
}
