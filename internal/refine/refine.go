// Package refine implements hierarchical verification (paper §2 and §8
// item 3): "the design is refined by removing some non-determinism in
// the specification ... As long as new behavior is not added to the
// design during refinement, then most properties ... proved at higher
// levels of abstraction will automatically hold at the lower levels.
// ... We are working on techniques that compare lower level designs
// with higher level ones to guarantee that re-evaluation of properties
// proved at higher levels is not needed."
//
// Check establishes that the refined (lower-level) design adds no new
// behavior over the shared observables by computing a symbolic
// simulation relation: every implementation state must be matched,
// step for step, by some specification state with equal observations.
// Simulation implies trace containment, so all universal properties
// (ACTL, language containment) proved on the specification carry over.
package refine

import (
	"fmt"

	"hsis/internal/bdd"
	"hsis/internal/blifmv"
	"hsis/internal/mdd"
	"hsis/internal/network"
	"hsis/internal/telemetry"
)

// Result reports one refinement check.
type Result struct {
	// Holds is true when every initial implementation state is simulated
	// by some initial specification state.
	Holds bool
	// Relation is the greatest simulation relation over
	// (implementation PS, specification PS) in the combined manager.
	Relation bdd.Ref
	// Iterations counts refinement rounds to the fixed point.
	Iterations int
	// Combined is the merged network both designs live in.
	Combined *network.Network
	// Unmatched decodes one unsimulated initial implementation state
	// (nil when Holds). Keys are implementation latch names (with the
	// "impl." prefix stripped).
	Unmatched map[string]string
}

// Check verifies that impl refines spec over the observation pairs
// (implVar, specVar). Observed variables must have equal cardinalities;
// latch outputs give exact observations, combinational variables use the
// network's possible-value labels (exact for deterministic functions of
// the state).
func Check(impl, spec *blifmv.Model, obs [][2]string, opts network.Options) (*Result, error) {
	merged, err := merge(impl, spec)
	if err != nil {
		return nil, err
	}
	n, err := network.Build(merged, opts)
	if err != nil {
		return nil, err
	}
	m := n.Manager()

	// Rails of the two halves.
	var implPS, implNS, specPS, specNS []*mdd.Var
	var implPSBits, specPSBits []int
	for _, l := range n.Latches() {
		if isImpl(l.Src.Output) {
			implPS = append(implPS, l.PS)
			implNS = append(implNS, l.NS)
			implPSBits = append(implPSBits, l.PS.Bits()...)
		} else {
			specPS = append(specPS, l.PS)
			specNS = append(specNS, l.NS)
			specPSBits = append(specPSBits, l.PS.Bits()...)
		}
	}
	if len(implPS) == 0 || len(specPS) == 0 {
		return nil, fmt.Errorf("refine: both designs need at least one latch")
	}
	implNSCube := n.Space().CubeOf(implNS)
	specNSCube := n.Space().CubeOf(specNS)

	// Split transition relations: the halves are independent, so each
	// half's relation is the combined T with the other half's variables
	// quantified away.
	tImpl := m.Exists(n.T, m.Cube(append(append([]int(nil), specPSBits...), bitsOf(specNS)...)))
	tSpec := m.Exists(n.T, m.Cube(append(append([]int(nil), implPSBits...), bitsOf(implNS)...)))

	// Observation equality.
	obsEq := bdd.True
	for _, pair := range obs {
		iv := n.VarByName("impl." + pair[0])
		sv := n.VarByName("spec." + pair[1])
		if iv == nil {
			return nil, fmt.Errorf("refine: implementation has no variable %q", pair[0])
		}
		if sv == nil {
			return nil, fmt.Errorf("refine: specification has no variable %q", pair[1])
		}
		ivar := impl.Var(pair[0])
		svar := spec.Var(pair[1])
		if ivar.Card != svar.Card {
			return nil, fmt.Errorf("refine: observation %s/%s cardinality mismatch (%d vs %d)",
				pair[0], pair[1], ivar.Card, svar.Card)
		}
		for val := 0; val < ivar.Card; val++ {
			li, err := n.LabelEq("impl."+pair[0], ivar.ValueName(val))
			if err != nil {
				return nil, err
			}
			ls, err := n.LabelEq("spec."+pair[1], svar.ValueName(val))
			if err != nil {
				return nil, err
			}
			obsEq = m.And(obsEq, m.Equiv(li, ls))
		}
	}

	// Greatest simulation relation.
	toNext := n.Space().Permutation(
		append(append([]*mdd.Var(nil), implPS...), specPS...),
		append(append([]*mdd.Var(nil), implNS...), specNS...))
	rel := obsEq
	iter := 0
	t := m.Telemetry()
	for {
		iter++
		var sp telemetry.Span
		if t != nil {
			sp = t.Start("refine.iter")
		}
		primed := m.Permute(rel, toNext)
		canMatch := m.AndExists(tSpec, primed, specNSCube)
		step := m.Not(m.AndExists(tImpl, m.Not(canMatch), implNSCube))
		next := m.And(rel, step)
		if t != nil {
			sp.End(telemetry.Int("iter", iter),
				telemetry.Int("rel_nodes", m.NodeCount(next)))
		}
		if next == rel {
			break
		}
		rel = next
	}

	// Initial-state containment.
	initImpl := m.Exists(n.Init, m.Cube(specPSBits))
	initSpec := m.Exists(n.Init, m.Cube(implPSBits))
	simulated := m.Exists(m.And(rel, initSpec), m.Cube(specPSBits))
	missing := m.Diff(initImpl, simulated)

	res := &Result{
		Holds:      missing == bdd.False,
		Relation:   rel,
		Iterations: iter,
		Combined:   n,
	}
	if !res.Holds {
		asg, ok := m.PickCube(missing, implPSBits)
		if ok {
			res.Unmatched = map[string]string{}
			full := n.DecodeState(asg)
			for _, l := range n.Latches() {
				if isImpl(l.Src.Output) {
					res.Unmatched[l.Src.Output[len("impl."):]] = full[l.Src.Output]
				}
			}
		}
	}
	return res, nil
}

func isImpl(name string) bool {
	return len(name) > 5 && name[:5] == "impl."
}

func bitsOf(vars []*mdd.Var) []int {
	var out []int
	for _, v := range vars {
		out = append(out, v.Bits()...)
	}
	return out
}

// merge combines two flat models into one, prefixing every variable with
// "impl." / "spec.". The halves share nothing, so their product is the
// free parallel composition.
func merge(impl, spec *blifmv.Model) (*blifmv.Model, error) {
	out := &blifmv.Model{Name: "refine", Vars: map[string]*blifmv.Variable{}}
	if err := copyInto(out, impl, "impl."); err != nil {
		return nil, err
	}
	if err := copyInto(out, spec, "spec."); err != nil {
		return nil, err
	}
	return out, nil
}

func copyInto(out, src *blifmv.Model, prefix string) error {
	if len(src.Subckts) > 0 {
		return fmt.Errorf("refine: model %s must be flattened first", src.Name)
	}
	ren := func(n string) string { return prefix + n }
	for _, n := range src.VarDecl {
		v := src.Vars[n]
		out.Vars[ren(n)] = &blifmv.Variable{Name: ren(n), Card: v.Card, Values: append([]string(nil), v.Values...)}
		out.VarDecl = append(out.VarDecl, ren(n))
	}
	for _, t := range src.Tables {
		nt := &blifmv.Table{Default: t.Default, Rows: t.Rows}
		for _, c := range t.Inputs {
			nt.Inputs = append(nt.Inputs, ren(c))
		}
		for _, c := range t.Outputs {
			nt.Outputs = append(nt.Outputs, ren(c))
		}
		out.Tables = append(out.Tables, nt)
	}
	for _, l := range src.Latches {
		out.Latches = append(out.Latches, &blifmv.Latch{
			Input:  ren(l.Input),
			Output: ren(l.Output),
			Init:   append([]int(nil), l.Init...),
		})
	}
	// primary inputs stay free variables in the merged model
	for _, in := range src.Inputs {
		out.Inputs = append(out.Inputs, ren(in))
	}
	return nil
}
