package reach

// Clustered image computation and the engine abstraction: every image
// and preimage over a network (reachability, CTL, simulation) goes
// through an ImageEngine, selecting the monolithic product relation,
// the per-call-scheduled partitioned relation, or the precompiled
// clustered pipeline. Clustered is the default whenever the monolithic
// relation has not been built — it replays a schedule frozen at
// network.Build time and performs no per-call scheduling work.

import (
	"hsis/internal/bdd"
	"hsis/internal/network"
	"hsis/internal/quant"
)

// EngineKind selects an image-computation strategy.
type EngineKind int

// Engine kinds.
const (
	// EngineAuto picks monolithic when the product transition relation
	// is already built; otherwise iso when the network's isomorphic
	// latch-cone replication saves enough cluster compiles to pay for
	// itself (network.IsoWorthwhile), clustered if not.
	EngineAuto EngineKind = iota
	// EngineMonolithic uses the product transition relation T (building
	// it on first use if necessary).
	EngineMonolithic
	// EnginePartitioned re-schedules the raw conjuncts on every call
	// (the pre-clustering behavior; kept as an ablation baseline).
	EnginePartitioned
	// EngineClustered replays the precompiled per-network plan.
	EngineClustered
	// EngineIso replays the isomorphism-compiled plan: clusters built
	// once per equivalence class of replicated latch cones and
	// instantiated per replica by variable permutation.
	EngineIso
)

func (k EngineKind) String() string {
	switch k {
	case EngineMonolithic:
		return "monolithic"
	case EnginePartitioned:
		return "partitioned"
	case EngineClustered:
		return "clustered"
	case EngineIso:
		return "iso"
	default:
		return "auto"
	}
}

// ParseEngineKind resolves a CLI engine name; empty and "auto" both map
// to EngineAuto.
func ParseEngineKind(s string) (EngineKind, bool) {
	switch s {
	case "", "auto":
		return EngineAuto, true
	case "monolithic":
		return EngineMonolithic, true
	case "partitioned":
		return EnginePartitioned, true
	case "clustered":
		return EngineClustered, true
	case "iso":
		return EngineIso, true
	default:
		return EngineAuto, false
	}
}

// ImageEngine computes successor and predecessor sets over a network's
// present-state rail.
type ImageEngine interface {
	Kind() EngineKind
	Image(s bdd.Ref) bdd.Ref
	Preimage(s bdd.Ref) bdd.Ref
}

// Engine binds an engine of the given kind to a network. EngineAuto
// resolves to monolithic when T is already built (it is paid for; reuse
// it); otherwise to iso when the network has enough replicated latch
// cones to profit from per-class compilation, and to the clustered
// pipeline if not — SkipMonolithic networks never multiply out the
// product relation just to take images.
func Engine(n *network.Network, kind EngineKind) ImageEngine {
	if kind == EngineAuto {
		switch {
		case n.TBuilt():
			kind = EngineMonolithic
		case n.IsoWorthwhile():
			kind = EngineIso
		default:
			kind = EngineClustered
		}
	}
	switch kind {
	case EnginePartitioned:
		return partitionedEngine{n}
	case EngineIso:
		if n.IsoImagePlan() != nil {
			return isoEngine{n}
		}
		fallthrough // no replication detected: degrade to clustered
	case EngineClustered:
		if n.ImagePlan() != nil {
			return clusteredEngine{n}
		}
		return partitionedEngine{n} // no plan compiled: degrade gracefully
	default:
		return monolithicEngine{n}
	}
}

type monolithicEngine struct{ n *network.Network }

func (e monolithicEngine) Kind() EngineKind { return EngineMonolithic }
func (e monolithicEngine) Image(s bdd.Ref) bdd.Ref {
	e.n.EnsureT()
	next := e.n.Manager().AndExists(e.n.T, s, e.n.PSCube())
	return e.n.SwapRails(next)
}
func (e monolithicEngine) Preimage(s bdd.Ref) bdd.Ref {
	e.n.EnsureT()
	return e.n.Manager().AndExists(e.n.T, e.n.SwapRails(s), e.n.NSCube())
}

// partitionedEngine never forms the product transition relation: the
// state set joins the per-table conjuncts and one early-quantification
// pass, scheduled per call, eliminates present-state and non-state
// variables together. The operand slices are buffers owned by the
// network, so repeated calls allocate nothing.
type partitionedEngine struct{ n *network.Network }

func (e partitionedEngine) Kind() EngineKind { return EnginePartitioned }
func (e partitionedEngine) Image(s bdd.Ref) bdd.Ref {
	conjs, qvars := e.n.ImageOperands(s)
	next := quant.AndExists(e.n.Manager(), conjs, qvars, e.n.Heuristic())
	return e.n.SwapRails(next)
}
func (e partitionedEngine) Preimage(s bdd.Ref) bdd.Ref {
	conjs, qvars := e.n.PreimageOperands(e.n.SwapRails(s))
	return quant.AndExists(e.n.Manager(), conjs, qvars, e.n.Heuristic())
}

// clusteredEngine replays the network's precompiled clustered plan: one
// AndExists per cluster, each with a cube frozen at compile time.
type clusteredEngine struct{ n *network.Network }

func (e clusteredEngine) Kind() EngineKind { return EngineClustered }
func (e clusteredEngine) Image(s bdd.Ref) bdd.Ref {
	next := e.n.ImagePlan().Run(e.n.Manager(), s)
	return e.n.SwapRails(next)
}
func (e clusteredEngine) Preimage(s bdd.Ref) bdd.Ref {
	return e.n.PreimagePlan().Run(e.n.Manager(), e.n.SwapRails(s))
}

type isoEngine struct{ n *network.Network }

func (e isoEngine) Kind() EngineKind { return EngineIso }
func (e isoEngine) Image(s bdd.Ref) bdd.Ref {
	next := e.n.IsoImagePlan().Run(e.n.Manager(), s)
	return e.n.SwapRails(next)
}
func (e isoEngine) Preimage(s bdd.Ref) bdd.Ref {
	return e.n.IsoPreimagePlan().Run(e.n.Manager(), e.n.SwapRails(s))
}
