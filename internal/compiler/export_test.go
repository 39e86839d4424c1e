package compiler

import (
	"powermove/internal/arch"
	"powermove/internal/circuit"
)

// EnolaRestartsForTest runs the Enola pipeline p on circ and also
// reports the random restarts the compile ran and the MIS extractions
// that ran at least one.
func EnolaRestartsForTest(p *Pipeline, circ *circuit.Circuit, a *arch.Arch) (res *Result, ran, searched int, err error) {
	var ctx *Context
	probe := *p
	probe.passes = append(p.passes[:len(p.passes):len(p.passes)], NewPass("probe", func(c *Context) error {
		ctx = c
		return nil
	}))
	if res, err = probe.Run(circ, a); err != nil {
		return nil, 0, 0, err
	}
	return res, ctx.restarts.ran, ctx.restarts.searched, nil
}
