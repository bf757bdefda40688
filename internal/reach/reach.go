// Package reach implements symbolic image/preimage computation and
// reachability over a compiled network, including the partitioned
// transition relation variant (paper §8 item 4) and the bounded
// "few reachability steps" primitive behind early failure detection
// (paper §5.4).
package reach

import (
	"hsis/internal/bdd"
	"hsis/internal/network"
	"hsis/internal/telemetry"
)

// Image computes the successors of the state set s (over the PS rail)
// with the auto engine: the monolithic relation when T is built, the
// precompiled pipelines otherwise.
func Image(n *network.Network, s bdd.Ref) bdd.Ref {
	return Engine(n, EngineAuto).Image(s)
}

// Preimage computes the predecessors of the state set s (over the PS
// rail) with the auto engine, like Image.
func Preimage(n *network.Network, s bdd.Ref) bdd.Ref {
	return Engine(n, EngineAuto).Preimage(s)
}

// Options controls a reachability run.
type Options struct {
	// MaxSteps bounds the number of image computations (0 = unbounded).
	// Early failure detection runs with a small bound (paper §5.4).
	MaxSteps int
	// Engine selects the image-computation strategy (EngineAuto picks
	// monolithic when T is built, otherwise iso on sufficiently
	// replicated designs, clustered if not).
	Engine EngineKind
	// KeepRings records the frontier of every step for counterexample
	// reconstruction ("onion rings").
	KeepRings bool
	// Stop, if non-nil, is evaluated after each step on the set reached
	// so far; returning true ends the traversal early. This is the hook
	// used by early failure detection: "if the property fails on a
	// subset of reachable states, then it fails on the whole set".
	Stop func(reached bdd.Ref) bool
}

// Result reports a reachability run.
type Result struct {
	// Reached is the fixed point (or the partial set if stopped early).
	Reached bdd.Ref
	// Steps is the number of image computations performed.
	Steps int
	// Converged is true when a fixed point was established.
	Converged bool
	// Stopped is true when Options.Stop ended the run.
	Stopped bool
	// Rings[i] holds the states first reached at step i (Rings[0] is the
	// initial set); only populated with Options.KeepRings.
	Rings []bdd.Ref
}

// Forward computes the reachable states from n.Init.
func Forward(n *network.Network, opts Options) *Result {
	return ForwardFrom(n, n.Init, opts)
}

// ForwardFrom computes the states reachable from the given set.
func ForwardFrom(n *network.Network, from bdd.Ref, opts Options) *Result {
	m := n.Manager()
	eng := Engine(n, opts.Engine)
	img := eng.Image
	res := &Result{Reached: from}
	frontier := from
	t := m.Telemetry()
	if t != nil {
		t.Emit("reach.start",
			telemetry.Str("engine", eng.Kind().String()),
			telemetry.Int("init_nodes", m.NodeCount(from)))
		defer func() {
			t.Emit("reach.done",
				telemetry.Int("steps", res.Steps),
				telemetry.Bool("converged", res.Converged),
				telemetry.Int("reached_nodes", m.NodeCount(res.Reached)))
		}()
	}
	if opts.KeepRings {
		res.Rings = append(res.Rings, frontier)
	}
	if opts.Stop != nil && opts.Stop(res.Reached) {
		res.Stopped = true
		return res
	}
	for frontier != bdd.False {
		if opts.MaxSteps > 0 && res.Steps >= opts.MaxSteps {
			return res
		}
		// Cancellation check at the same safe point the reorder/GC
		// machinery uses: a cancelled or timed-out job unwinds here via
		// ErrInterrupted instead of finishing the fixpoint.
		m.CheckInterrupt()
		var sp telemetry.Span
		if t != nil {
			sp = t.Start("reach.iter")
		}
		// Safe point: between image steps every Ref the loop still needs
		// is known, so an armed auto-reorder or a due garbage collection
		// can run here under the GC protection contract. The pending
		// checks gate the IncRef traffic to the (rare) iterations where
		// a sift or collection actually fires. Without the periodic GC
		// the partitioned engines' transient recursion garbage
		// accumulates across the whole fixpoint — on mdlc2's clustered
		// pipeline that alone was a 1.9M-node high-water mark for a live
		// set under 100k.
		if m.ReorderPending() || m.GCPending() {
			m.IncRef(res.Reached)
			m.IncRef(frontier)
			for _, r := range res.Rings {
				m.IncRef(r)
			}
			m.MaybeGC() // drains a pending reorder first, then collects
			for _, r := range res.Rings {
				m.DecRef(r)
			}
			m.DecRef(frontier)
			m.DecRef(res.Reached)
		}
		next := img(frontier)
		frontier = m.Diff(next, res.Reached)
		if frontier == bdd.False {
			sp.End(telemetry.Int("step", res.Steps),
				telemetry.Int("frontier_nodes", 0),
				telemetry.Int("reached_nodes", m.NodeCount(res.Reached)))
			res.Converged = true
			return res
		}
		res.Reached = m.Or(res.Reached, frontier)
		res.Steps++
		if t != nil {
			sp.End(telemetry.Int("step", res.Steps),
				telemetry.Int("frontier_nodes", m.NodeCount(frontier)),
				telemetry.Int("reached_nodes", m.NodeCount(res.Reached)))
		}
		if opts.KeepRings {
			res.Rings = append(res.Rings, frontier)
		}
		if opts.Stop != nil && opts.Stop(res.Reached) {
			res.Stopped = true
			return res
		}
	}
	res.Converged = true
	return res
}
