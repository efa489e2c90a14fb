package tuple

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// ReadCSV loads a relation from CSV data laid out as the schema describes:
// each record holds the numeric attributes first, then the join key
// columns. If header is true the first record is skipped (its names are
// not required to match the schema — the schema is authoritative). Every
// record goes through Append, so a NaN or infinite attribute is an error.
func ReadCSV(r io.Reader, schema Schema, header bool) (*Relation, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	rel := NewRelation(schema)
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = schema.NumAttrs() + schema.NumKeys()
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return rel, nil
		}
		if err != nil {
			return nil, fmt.Errorf("tuple: reading %s: %w", schema.Name, err)
		}
		line++
		if header && line == 1 {
			continue
		}
		attrs := make([]float64, schema.NumAttrs())
		for k := range attrs {
			v, err := strconv.ParseFloat(rec[k], 64)
			if err != nil {
				return nil, fmt.Errorf("tuple: %s record %d column %d: %w", schema.Name, line, k, err)
			}
			attrs[k] = v
		}
		keys := make([]int64, schema.NumKeys())
		for k := range keys {
			v, err := strconv.ParseInt(rec[schema.NumAttrs()+k], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("tuple: %s record %d key column %d: %w", schema.Name, line, k, err)
			}
			keys[k] = v
		}
		if err := rel.Append(attrs, keys); err != nil {
			return nil, err
		}
	}
}

// WriteCSV emits the relation in the layout ReadCSV accepts. With header
// true, the first record carries the schema's column names.
func (r *Relation) WriteCSV(w io.Writer, header bool) error {
	cw := csv.NewWriter(w)
	if header {
		rec := append(append([]string(nil), r.Schema.AttrNames...), r.Schema.KeyNames...)
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("tuple: writing %s header: %w", r.Schema.Name, err)
		}
	}
	rec := make([]string, r.Schema.NumAttrs()+r.Schema.NumKeys())
	for i := range r.Tuples {
		tu := &r.Tuples[i]
		for k, v := range tu.Attrs {
			rec[k] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		for k, v := range tu.Keys {
			rec[r.Schema.NumAttrs()+k] = strconv.FormatInt(v, 10)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("tuple: writing %s record %d: %w", r.Schema.Name, i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
