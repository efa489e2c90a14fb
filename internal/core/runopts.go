package core

import "caqe/internal/run"

// RunConfig is the resolved configuration of one execution entry-point
// call: the engine options (which carry the trace sink) plus the
// report-level wiring (result totals and the progressive consumption
// hook). It is assembled by applying RunOptions in order.
type RunConfig struct {
	// Opt tunes the engine itself.
	Opt Options
	// Totals optionally supplies the exact final result cardinality per
	// query for cardinality-based contracts.
	Totals []int
	// OnEmit is called synchronously for every result the moment it is
	// proven final.
	OnEmit func(run.Emission)
}

// RunOption configures one aspect of an execution. Options apply in the
// order given; the Options struct itself is a RunOption (it replaces the
// whole engine-options block), so legacy call sites that passed a bare
// Options value keep compiling against the variadic entry points.
type RunOption interface {
	ApplyRun(*RunConfig)
}

// ApplyRun makes Options usable directly as a RunOption: it installs the
// value as the engine options.
func (o Options) ApplyRun(c *RunConfig) { c.Opt = o }

// RunOptionFunc adapts a function to the RunOption interface.
type RunOptionFunc func(*RunConfig)

// ApplyRun implements RunOption.
func (f RunOptionFunc) ApplyRun(c *RunConfig) { f(c) }

// NewRunConfig applies the options in order. Nil options are skipped, so
// call sites migrated from the struct-options signatures that passed a
// literal nil keep working.
func NewRunConfig(opts ...RunOption) RunConfig {
	var cfg RunConfig
	for _, o := range opts {
		if o == nil {
			continue
		}
		o.ApplyRun(&cfg)
	}
	return cfg
}
