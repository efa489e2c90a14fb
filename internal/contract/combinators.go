package contract

import (
	"fmt"
	"strings"
)

// Combinators realize the paper's footnote to §3.3: beyond the independent
// product of Eq. 5, the framework "can support richer models that capture
// the dependence between the cardinality and time-based utility scores".
// Product generalizes Eq. 5 to any number of component contracts;
// WeightedSum blends components for consumers whose requirements trade off
// rather than compound.

// Product returns a contract whose per-tuple utility is the product of the
// component utilities (the generalization of Eq. 5). The components observe
// the same emissions; cardinality-based components receive the estimated
// total.
func Product(components ...Contract) Contract {
	if len(components) == 0 {
		panic("contract: Product needs at least one component")
	}
	return &composite{components: components, combine: "*"}
}

// WeightedSum returns a contract whose per-tuple utility is the normalized
// weighted sum of the component utilities. Weights must be positive and
// match the component count.
func WeightedSum(weights []float64, components ...Contract) Contract {
	if len(components) == 0 || len(weights) != len(components) {
		panic("contract: WeightedSum needs matching positive weights and components")
	}
	total := 0.0
	for _, w := range weights {
		if w <= 0 {
			panic("contract: WeightedSum weights must be positive")
		}
		total += w
	}
	norm := make([]float64, len(weights))
	for i, w := range weights {
		norm[i] = w / total
	}
	return &composite{components: components, weights: norm, combine: "+"}
}

type composite struct {
	components []Contract
	weights    []float64 // nil for Product
	combine    string
}

func (c *composite) Name() string {
	parts := make([]string, len(c.components))
	for i, comp := range c.components {
		parts[i] = comp.Name()
	}
	return fmt.Sprintf("(%s)", strings.Join(parts, c.combine))
}

func (c *composite) NewTracker(estTotal int) Tracker {
	trs := make([]Tracker, len(c.components))
	for i, comp := range c.components {
		trs[i] = comp.NewTracker(estTotal)
	}
	return &compositeTracker{c: c, trackers: trs}
}

// utilityAt makes composites usable by the optimizer's prospective benefit
// model.
func (c *composite) utilityAt(ts float64) float64 {
	if c.weights == nil {
		u := 1.0
		for _, comp := range c.components {
			u *= ExpectedUtilityAt(comp, ts)
		}
		return u
	}
	u := 0.0
	for i, comp := range c.components {
		u += float64(c.weights[i] * ExpectedUtilityAt(comp, ts))
	}
	return u
}

type compositeTracker struct {
	c        *composite
	trackers []Tracker
	count    int
}

func (t *compositeTracker) Observe(ts float64) {
	for _, tr := range t.trackers {
		tr.Observe(ts)
	}
	t.count++
}

func (t *compositeTracker) Finalize(end float64) {
	for _, tr := range t.trackers {
		tr.Finalize(end)
	}
}

func (t *compositeTracker) Utilities() []float64 {
	per := make([][]float64, len(t.trackers))
	for i, tr := range t.trackers {
		per[i] = tr.Utilities()
	}
	out := make([]float64, t.count)
	for k := 0; k < t.count; k++ {
		if t.c.weights == nil {
			u := 1.0
			for i := range per {
				u *= per[i][k]
			}
			out[k] = u
		} else {
			u := 0.0
			for i := range per {
				u += float64(t.c.weights[i] * per[i][k])
			}
			out[k] = u
		}
	}
	return out
}

func (t *compositeTracker) PScore() float64 {
	s := 0.0
	for _, u := range t.Utilities() {
		s += u
	}
	return s
}

func (t *compositeTracker) Count() int { return t.count }

func (t *compositeTracker) Runtime() float64 {
	if t.count == 0 {
		return 0
	}
	return clamp01(t.PScore() / float64(t.count))
}
