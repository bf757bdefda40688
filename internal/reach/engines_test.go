package reach_test

// Property-style engine-equivalence tests: the monolithic, partitioned,
// clustered, and iso image engines must compute identical successor and
// predecessor sets on every bundled Table-1 design (plus a generated
// philos-16, where isomorphism detection covers every latch), for every
// reachability ring.

import (
	"testing"

	"hsis/internal/bdd"
	"hsis/internal/blifmv"
	"hsis/internal/designs"
	"hsis/internal/network"
	"hsis/internal/reach"
	"hsis/internal/verilog"
)

func buildNet(t *testing.T, d *designs.Design, opts network.Options) *network.Network {
	t.Helper()
	dsg, err := verilog.CompileString(d.Verilog, d.Name+".v", d.Top)
	if err != nil {
		t.Fatalf("%s: compile: %v", d.Name, err)
	}
	flat, err := blifmv.Flatten(dsg)
	if err != nil {
		t.Fatalf("%s: flatten: %v", d.Name, err)
	}
	n, err := network.Build(flat, opts)
	if err != nil {
		t.Fatalf("%s: build: %v", d.Name, err)
	}
	return n
}

var engineKinds = []reach.EngineKind{
	reach.EngineMonolithic,
	reach.EnginePartitioned,
	reach.EngineClustered,
	reach.EngineIso,
}

// equivalenceDesigns is the bundled Table-1 suite plus a generated
// philos-16, so every latch of at least one design sits in an
// isomorphism class.
func equivalenceDesigns(t *testing.T) []*designs.Design {
	t.Helper()
	all, err := designs.All()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := designs.Get("philos-16")
	if err != nil {
		t.Fatal(err)
	}
	return append(all, gen)
}

func TestEnginesAgreeOnAllDesigns(t *testing.T) {
	for _, d := range equivalenceDesigns(t) {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			n := buildNet(t, d, network.Options{})
			m := n.Manager()
			res := reach.Forward(n, reach.Options{KeepRings: true})
			if !res.Converged {
				t.Fatal("reachability diverged")
			}
			// Every ring on small designs; evenly-sampled rings on large
			// ones (the partitioned preimage of a wide mdlc2 ring costs
			// seconds, and adjacent rings exercise the same code paths).
			sets := []bdd.Ref{n.Init, res.Reached}
			const maxRings = 6
			step := 1
			if len(res.Rings) > maxRings {
				step = (len(res.Rings) + maxRings - 1) / maxRings
			}
			for i := 0; i < len(res.Rings); i += step {
				sets = append(sets, res.Rings[i])
			}
			engines := make([]reach.ImageEngine, len(engineKinds))
			for j, kind := range engineKinds {
				engines[j] = reach.Engine(n, kind)
			}
			for i, s := range sets {
				img := engines[0].Image(s)
				pre := engines[0].Preimage(s)
				for j, e := range engines[1:] {
					if got := e.Image(s); got != img {
						t.Fatalf("set %d: %v image differs", i, engineKinds[j+1])
					}
					if got := e.Preimage(s); got != pre {
						t.Fatalf("set %d: %v preimage differs", i, engineKinds[j+1])
					}
				}
			}
			// A SkipMonolithic network never builds T; EngineAuto resolves
			// to clustered and must reach exactly the same state count.
			np := buildNet(t, d, network.Options{SkipMonolithic: true})
			if np.TBuilt() {
				t.Fatal("SkipMonolithic network built T")
			}
			rp := reach.Forward(np, reach.Options{})
			if np.TBuilt() {
				t.Fatal("clustered reachability multiplied out T")
			}
			if got, want := np.NumStates(rp.Reached), n.NumStates(res.Reached); got != want {
				t.Fatalf("clustered reachability: %v states, want %v", got, want)
			}
			_ = m
		})
	}
}
