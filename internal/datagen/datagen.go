// Package datagen generates the de-facto standard benchmark datasets used to
// stress-test skyline algorithms (Börzsönyi, Kossmann, Stocker, ICDE 2001),
// as used in §7.1 of the paper: independent, correlated and anti-correlated
// attribute distributions with values in [1, 100], plus integer join keys
// with a controlled equi-join selectivity.
//
// All generation is driven by an explicit *rand.Rand seed, so every dataset —
// and therefore every experiment in this repository — is fully deterministic.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"caqe/internal/tuple"
)

// Distribution selects the attribute correlation model of §7.1.
type Distribution int

const (
	// Independent draws every dimension i.i.d. uniformly.
	Independent Distribution = iota
	// Correlated draws points near the diagonal: tuples good in one
	// dimension tend to be good in all, so a handful of tuples dominate
	// the space and skylines are tiny.
	Correlated
	// AntiCorrelated draws points near the anti-diagonal plane: tuples good
	// in one dimension are bad in others, so a large share of the input is
	// in the skyline and evaluation is resource intensive.
	AntiCorrelated
)

// String names the distribution as in the paper's figures.
func (d Distribution) String() string {
	switch d {
	case Independent:
		return "independent"
	case Correlated:
		return "correlated"
	case AntiCorrelated:
		return "anti-correlated"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// ParseDistribution converts a figure label ("independent", "correlated",
// "anti-correlated"/"anticorrelated") into a Distribution.
func ParseDistribution(s string) (Distribution, error) {
	switch s {
	case "independent", "ind":
		return Independent, nil
	case "correlated", "cor":
		return Correlated, nil
	case "anti-correlated", "anticorrelated", "anti":
		return AntiCorrelated, nil
	}
	return 0, fmt.Errorf("datagen: unknown distribution %q", s)
}

// Value range of every numeric dimension, per §7.1.
const (
	AttrMin = 1.0
	AttrMax = 100.0
)

// Config describes one generated relation.
type Config struct {
	Name         string       // relation name
	N            int          // cardinality
	Dims         int          // number of numeric skyline dimensions d
	Distribution Distribution // attribute correlation model
	NumKeys      int          // number of join key columns (≥ 0)
	KeyDomain    []int64      // domain size per key column; selectivity of an equi-join on column k between two relations generated with the same domain is 1/KeyDomain[k]
	Seed         int64        // RNG seed
}

// Validate reports an error for nonsensical configurations.
func (c *Config) Validate() error {
	if c.N < 0 {
		return fmt.Errorf("datagen: negative cardinality %d", c.N)
	}
	if c.Dims <= 0 {
		return fmt.Errorf("datagen: relation %s needs at least one dimension", c.Name)
	}
	if c.NumKeys != len(c.KeyDomain) {
		return fmt.Errorf("datagen: relation %s: NumKeys=%d but %d key domains given",
			c.Name, c.NumKeys, len(c.KeyDomain))
	}
	for i, dom := range c.KeyDomain {
		if dom <= 0 {
			return fmt.Errorf("datagen: relation %s: key column %d has non-positive domain %d", c.Name, i, dom)
		}
	}
	return nil
}

// Generate builds a relation according to the config.
func Generate(c Config) (*tuple.Relation, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	schema := tuple.Schema{Name: c.Name}
	for k := 0; k < c.Dims; k++ {
		schema.AttrNames = append(schema.AttrNames, fmt.Sprintf("a%d", k))
	}
	for k := 0; k < c.NumKeys; k++ {
		schema.KeyNames = append(schema.KeyNames, fmt.Sprintf("jk%d", k))
	}
	rel := tuple.NewRelation(schema)
	rng := rand.New(rand.NewSource(c.Seed))
	for i := 0; i < c.N; i++ {
		attrs := drawPoint(rng, c.Dims, c.Distribution)
		keys := make([]int64, c.NumKeys)
		for k := range keys {
			keys[k] = rng.Int63n(c.KeyDomain[k])
		}
		rel.MustAppend(attrs, keys)
	}
	return rel, nil
}

// MustGenerate is Generate that panics on a config error; for tests and
// benchmark harnesses with hard-coded configs.
func MustGenerate(c Config) *tuple.Relation {
	r, err := Generate(c)
	if err != nil {
		panic(err)
	}
	return r
}

// drawPoint draws one d-dimensional point in [AttrMin, AttrMax]^d.
func drawPoint(rng *rand.Rand, d int, dist Distribution) []float64 {
	switch dist {
	case Independent:
		p := make([]float64, d)
		for k := range p {
			p[k] = uniform(rng)
		}
		return p
	case Correlated:
		return correlatedPoint(rng, d)
	case AntiCorrelated:
		return antiCorrelatedPoint(rng, d)
	default:
		panic(fmt.Sprintf("datagen: unknown distribution %d", int(dist)))
	}
}

func uniform(rng *rand.Rand) float64 {
	return AttrMin + float64(rng.Float64()*(AttrMax-AttrMin))
}

// correlatedPoint follows the classic construction: pick a base value v on
// the diagonal with a peaked distribution, then perturb each dimension by a
// small normal jitter, clamping to the valid range.
func correlatedPoint(rng *rand.Rand, d int) []float64 {
	v := peakedValue(rng)
	p := make([]float64, d)
	for k := range p {
		p[k] = clamp(v + float64(rng.NormFloat64()*(AttrMax-AttrMin)*0.05))
	}
	return p
}

// antiCorrelatedPoint places points near the hyperplane Σ p[k] = const so
// being good in one dimension forces being bad in others.
func antiCorrelatedPoint(rng *rand.Rand, d int) []float64 {
	// Target plane at the middle of the total-sum range.
	target := float64(d) * (AttrMin + AttrMax) / 2
	// Draw a random direction on the plane by sampling uniforms and
	// shifting to the target sum, with a small normal offset off-plane.
	p := make([]float64, d)
	sum := 0.0
	for k := range p {
		p[k] = uniform(rng)
		sum += p[k]
	}
	shift := (float64(target) - sum) / float64(d)
	off := rng.NormFloat64() * (AttrMax - AttrMin) * 0.03
	for k := range p {
		p[k] = clamp(p[k] + shift + float64(off))
	}
	return p
}

// peakedValue draws a value concentrated around the middle of the range
// (sum of two uniforms, i.e. a triangular distribution).
func peakedValue(rng *rand.Rand) float64 {
	u := (float64(rng.Float64()) + float64(rng.Float64())) / 2
	return AttrMin + float64(u*(AttrMax-AttrMin))
}

func clamp(v float64) float64 {
	return math.Min(AttrMax, math.Max(AttrMin, v))
}

// JoinDomainForSelectivity returns the key domain size that yields the given
// equi-join selectivity σ between two relations whose keys are drawn
// uniformly from the same domain: for domain D, P(match) = 1/D, so D = 1/σ
// (rounded, at least 1).
func JoinDomainForSelectivity(sigma float64) int64 {
	if sigma <= 0 {
		return math.MaxInt32
	}
	if sigma >= 1 {
		return 1
	}
	return int64(math.Round(1 / sigma))
}

// Pair generates the benchmark pair (R, T) of §7.1 with identical
// cardinality N, d dimensions, the given distribution, and numKeys join key
// columns whose domains are sized for the given per-column selectivities.
func Pair(n, dims int, dist Distribution, selectivities []float64, seed int64) (r, t *tuple.Relation, err error) {
	domains := make([]int64, len(selectivities))
	for i, s := range selectivities {
		domains[i] = JoinDomainForSelectivity(s)
	}
	r, err = Generate(Config{
		Name: "R", N: n, Dims: dims, Distribution: dist,
		NumKeys: len(domains), KeyDomain: domains, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	t, err = Generate(Config{
		Name: "T", N: n, Dims: dims, Distribution: dist,
		NumKeys: len(domains), KeyDomain: domains, Seed: seed + 1,
	})
	if err != nil {
		return nil, nil, err
	}
	return r, t, nil
}
