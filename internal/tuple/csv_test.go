package tuple

import (
	"bytes"
	"strings"
	"testing"
)

func TestCSVRoundtrip(t *testing.T) {
	r := NewRelation(validSchema())
	r.MustAppend([]float64{1.5, 2.25}, []int64{7})
	r.MustAppend([]float64{-3, 0.001}, []int64{-2})

	for _, header := range []bool{true, false} {
		var buf bytes.Buffer
		if err := r.WriteCSV(&buf, header); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&buf, r.Schema, header)
		if err != nil {
			t.Fatal(err)
		}
		if back.Len() != r.Len() {
			t.Fatalf("header=%v: %d rows back, want %d", header, back.Len(), r.Len())
		}
		for i := 0; i < r.Len(); i++ {
			a, b := r.At(i), back.At(i)
			for k := range a.Attrs {
				if a.Attrs[k] != b.Attrs[k] {
					t.Fatalf("row %d attr %d: %g vs %g", i, k, a.Attrs[k], b.Attrs[k])
				}
			}
			for k := range a.Keys {
				if a.Keys[k] != b.Keys[k] {
					t.Fatalf("row %d key %d: %d vs %d", i, k, a.Keys[k], b.Keys[k])
				}
			}
		}
	}
}

func TestCSVHeaderRow(t *testing.T) {
	r := NewRelation(validSchema())
	r.MustAppend([]float64{1, 2}, []int64{3})
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf, true); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if first != "a0,a1,k0" {
		t.Fatalf("header = %q", first)
	}
}

func TestReadCSVErrors(t *testing.T) {
	schema := validSchema()
	cases := []struct {
		name string
		data string
	}{
		{"wrong field count", "1,2\n"},
		{"bad float", "x,2,3\n"},
		{"bad key", "1,2,notakey\n"},
		{"float key", "1,2,3.5\n"},
		{"NaN attribute", "NaN,2,3\n"},
		{"Inf attribute", "1,Inf,3\n"},
		{"-Inf attribute", "-Inf,2,3\n"},
		{"overflowing attribute", "1,1e999,3\n"},
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c.data), schema, false); err == nil {
			t.Errorf("%s: accepted %q", c.name, c.data)
		}
	}
}

func TestReadCSVRejectsInvalidSchema(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), Schema{}, false); err == nil {
		t.Error("invalid schema accepted")
	}
}

func TestReadCSVEmpty(t *testing.T) {
	rel, err := ReadCSV(strings.NewReader(""), validSchema(), false)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 0 {
		t.Fatalf("empty input produced %d rows", rel.Len())
	}
}
