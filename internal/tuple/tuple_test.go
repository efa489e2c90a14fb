package tuple

import (
	"math"
	"strings"
	"testing"
)

func validSchema() Schema {
	return Schema{
		Name:      "R",
		AttrNames: []string{"a0", "a1"},
		KeyNames:  []string{"k0"},
	}
}

func TestSchemaValidate(t *testing.T) {
	s := validSchema()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Schema)
	}{
		{"empty relation name", func(s *Schema) { s.Name = "" }},
		{"empty attr name", func(s *Schema) { s.AttrNames[0] = "" }},
		{"duplicate attr", func(s *Schema) { s.AttrNames[1] = "a0" }},
		{"empty key name", func(s *Schema) { s.KeyNames[0] = "" }},
		{"key duplicates attr", func(s *Schema) { s.KeyNames[0] = "a1" }},
	}
	for _, c := range cases {
		s := validSchema()
		c.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestSchemaIndices(t *testing.T) {
	s := validSchema()
	if s.NumAttrs() != 2 || s.NumKeys() != 1 {
		t.Error("counts broken")
	}
}

func TestAppendAssignsSequentialIDs(t *testing.T) {
	r := NewRelation(validSchema())
	for i := 0; i < 5; i++ {
		if err := r.Append([]float64{float64(i), 0}, []int64{int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 5 {
		t.Fatalf("len = %d", r.Len())
	}
	for i := 0; i < 5; i++ {
		if r.At(i).ID != i {
			t.Errorf("tuple %d has ID %d", i, r.At(i).ID)
		}
	}
}

func TestAppendShapeMismatch(t *testing.T) {
	r := NewRelation(validSchema())
	if err := r.Append([]float64{1}, []int64{1}); err == nil {
		t.Error("short attrs accepted")
	}
	if err := r.Append([]float64{1, 2}, nil); err == nil {
		t.Error("missing keys accepted")
	}
	if err := r.Append([]float64{1, 2, 3}, []int64{1}); err == nil {
		t.Error("long attrs accepted")
	}
}

// TestAppendRejectsNonFinite: Append refuses NaN and ±Inf in any attribute
// and leaves the relation as it was.
func TestAppendRejectsNonFinite(t *testing.T) {
	r := NewRelation(validSchema())
	r.MustAppend([]float64{1, 2}, []int64{1})
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := r.Append([]float64{v, 2}, []int64{1}); err == nil {
			t.Errorf("Append accepted %v", v)
		}
		if err := r.Append([]float64{1, v}, []int64{1}); err == nil {
			t.Errorf("Append accepted %v", v)
		}
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d after rejected appends", r.Len())
	}
}

func TestMustAppendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRelation(validSchema()).MustAppend([]float64{1}, nil)
}

func TestCloneIsDeep(t *testing.T) {
	orig := Tuple{ID: 1, Attrs: []float64{1, 2}, Keys: []int64{3}}
	c := orig.Clone()
	c.Attrs[0] = 99
	c.Keys[0] = 99
	if orig.Attrs[0] != 1 || orig.Keys[0] != 3 {
		t.Error("clone shares storage with original")
	}
}

func TestTupleAccessors(t *testing.T) {
	tu := Tuple{ID: 4, Attrs: []float64{1.5, 2.5}, Keys: []int64{7}}
	if tu.Attr(1) != 2.5 || tu.Key(0) != 7 {
		t.Error("accessors broken")
	}
}

func TestTupleString(t *testing.T) {
	tu := Tuple{ID: 4, Attrs: []float64{1.5}, Keys: []int64{7}}
	s := tu.String()
	for _, want := range []string{"t4", "1.5", "7"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	noKeys := Tuple{ID: 0, Attrs: []float64{2}}
	if strings.Contains(noKeys.String(), "k:") {
		t.Errorf("keyless tuple renders keys: %q", noKeys.String())
	}
}
