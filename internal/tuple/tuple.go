// Package tuple defines the relational substrate shared by every component:
// d-dimensional tuples, schemas, and in-memory relations.
//
// A tuple carries two kinds of attributes, mirroring §2 of the paper:
//
//   - numeric attributes ("dimensions") used by mapping functions and skyline
//     preferences, accessed positionally as τ[a_k];
//   - integer join keys used by equi-join conditions JC_i.
//
// Without loss of generality (and following the paper) smaller numeric values
// are always preferred.
package tuple

import (
	"fmt"
	"math"
	"strings"
)

// Tuple is a single row of a relation. Attrs holds the numeric dimensions;
// Keys holds the equi-join key columns. ID is unique within its relation.
type Tuple struct {
	ID    int
	Attrs []float64
	Keys  []int64
}

// Attr returns the k-th numeric attribute (the paper's τ[a_k]).
func (t *Tuple) Attr(k int) float64 { return t.Attrs[k] }

// Key returns the k-th join key.
func (t *Tuple) Key(k int) int64 { return t.Keys[k] }

// Clone returns a deep copy of the tuple.
func (t *Tuple) Clone() Tuple {
	c := Tuple{ID: t.ID}
	c.Attrs = append([]float64(nil), t.Attrs...)
	c.Keys = append([]int64(nil), t.Keys...)
	return c
}

// String renders the tuple compactly, e.g. "t17(200, 5, 0.5 | k: 3)".
func (t *Tuple) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t%d(", t.ID)
	for i, v := range t.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%g", v)
	}
	if len(t.Keys) > 0 {
		b.WriteString(" | k:")
		for _, k := range t.Keys {
			fmt.Fprintf(&b, " %d", k)
		}
	}
	b.WriteString(")")
	return b.String()
}

// Schema describes the layout of a relation.
type Schema struct {
	Name      string
	AttrNames []string // numeric dimensions, index-aligned with Tuple.Attrs
	KeyNames  []string // join key columns, index-aligned with Tuple.Keys
}

// NumAttrs returns the number of numeric dimensions.
func (s *Schema) NumAttrs() int { return len(s.AttrNames) }

// NumKeys returns the number of join key columns.
func (s *Schema) NumKeys() int { return len(s.KeyNames) }

// Validate reports an error if the schema is malformed (empty or duplicate
// column names).
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("tuple: schema has empty relation name")
	}
	seen := make(map[string]bool, len(s.AttrNames)+len(s.KeyNames))
	for _, n := range s.AttrNames {
		if n == "" {
			return fmt.Errorf("tuple: relation %s has an empty attribute name", s.Name)
		}
		if seen[n] {
			return fmt.Errorf("tuple: relation %s has duplicate column %q", s.Name, n)
		}
		seen[n] = true
	}
	for _, n := range s.KeyNames {
		if n == "" {
			return fmt.Errorf("tuple: relation %s has an empty key name", s.Name)
		}
		if seen[n] {
			return fmt.Errorf("tuple: relation %s has duplicate column %q", s.Name, n)
		}
		seen[n] = true
	}
	return nil
}

// Relation is an in-memory table: a schema plus a slice of tuples.
type Relation struct {
	Schema Schema
	Tuples []Tuple
}

// NewRelation returns an empty relation with the given schema.
func NewRelation(schema Schema) *Relation {
	return &Relation{Schema: schema}
}

// Len returns the cardinality of the relation.
func (r *Relation) Len() int { return len(r.Tuples) }

// Append adds a tuple, assigning it the next sequential ID. It returns an
// error if the tuple's shape does not match the schema or an attribute is
// not finite (CheckFinite).
func (r *Relation) Append(attrs []float64, keys []int64) error {
	if len(attrs) != r.Schema.NumAttrs() {
		return fmt.Errorf("tuple: relation %s expects %d attrs, got %d",
			r.Schema.Name, r.Schema.NumAttrs(), len(attrs))
	}
	if len(keys) != r.Schema.NumKeys() {
		return fmt.Errorf("tuple: relation %s expects %d keys, got %d",
			r.Schema.Name, r.Schema.NumKeys(), len(keys))
	}
	if err := CheckFinite(attrs); err != nil {
		return fmt.Errorf("tuple: relation %s: %w", r.Schema.Name, err)
	}
	r.Tuples = append(r.Tuples, Tuple{ID: len(r.Tuples), Attrs: attrs, Keys: keys})
	return nil
}

// CheckFinite is the attribute rule: every numeric attribute is finite. A
// NaN compares false both ways, so it is neither dominated nor dominating
// and breaks the sum order sorted windows are searched by; an infinity
// makes the region grid's bounds infinite and sums to NaN beside its
// opposite. Either gives wrong skylines without an error, so no such value
// enters a relation.
func CheckFinite(attrs []float64) error {
	for k, v := range attrs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("attribute %d is %v; attributes must be finite", k, v)
		}
	}
	return nil
}

// MustAppend is Append that panics on schema mismatch; intended for tests
// and generators that construct tuples programmatically.
func (r *Relation) MustAppend(attrs []float64, keys []int64) {
	if err := r.Append(attrs, keys); err != nil {
		panic(err)
	}
}

// At returns a pointer to the i-th tuple.
func (r *Relation) At(i int) *Tuple { return &r.Tuples[i] }
