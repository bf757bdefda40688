package bisim

import (
	"testing"

	"hsis/internal/bdd"
	"hsis/internal/blifmv"
	"hsis/internal/network"
	"hsis/internal/reach"
)

func compile(t *testing.T, src string) *network.Network {
	t.Helper()
	return compileWith(t, src, network.Options{})
}

func compileWith(t *testing.T, src string, opts network.Options) *network.Network {
	t.Helper()
	d, err := blifmv.ParseString(src, "test.mv")
	if err != nil {
		t.Fatal(err)
	}
	flat, err := blifmv.Flatten(d)
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.Build(flat, opts)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// twins: states 1 and 2 are duplicates (same output obs=0, both go to
// 3); states 0 (obs 0) branches to them; 3 (obs 1) returns to 0.
const twins = `
.model twins
.mv s,ns 4
.table s obs
0 0
1 0
2 0
3 1
.table s ns
0 {1,2}
1 3
2 3
3 0
.latch ns s
.reset s
0
.end
`

func obsLabel(t *testing.T, n *network.Network) bdd.Ref {
	t.Helper()
	l, err := n.LabelEq("obs", "1")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestTwinsCollapse(t *testing.T) {
	n := compile(t, twins)
	r := Compute(n, []bdd.Ref{obsLabel(t, n)})
	sv := n.VarByName("s")

	pick := func(v int) map[int]bool {
		asg, ok := n.PickState(sv.Eq(v))
		if !ok {
			t.Fatalf("state %d missing", v)
		}
		return asg
	}
	if !r.Equivalent(pick(1), pick(2)) {
		t.Fatal("duplicate states 1 and 2 must be bisimilar")
	}
	if r.Equivalent(pick(0), pick(3)) {
		t.Fatal("states with different future observations must differ")
	}
	if r.Equivalent(pick(0), pick(1)) {
		// 0 steps to obs-0 states; 1 steps to the obs-1 state: different
		t.Fatal("states 0 and 1 must not be bisimilar")
	}
	// classes within the valid domain: {0}, {1,2}, {3}
	if got := r.NumClasses(sv.Domain()); got != 3 {
		t.Fatalf("classes = %d, want 3", got)
	}
}

func TestComputeOnUnbuiltT(t *testing.T) {
	// A SkipMonolithic network has no T until something builds it;
	// Compute must derive the same relation as on an eager network.
	eager := compile(t, twins)
	lazy := compileWith(t, twins, network.Options{SkipMonolithic: true})
	re := Compute(eager, []bdd.Ref{obsLabel(t, eager)})
	rl := Compute(lazy, []bdd.Ref{obsLabel(t, lazy)})
	se, sl := eager.VarByName("s"), lazy.VarByName("s")
	if got, want := rl.NumClasses(sl.Domain()), re.NumClasses(se.Domain()); got != want {
		t.Fatalf("lazy network: %d classes, eager: %d", got, want)
	}
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			ea, _ := eager.PickState(se.Eq(a))
			eb, _ := eager.PickState(se.Eq(b))
			la, _ := lazy.PickState(sl.Eq(a))
			lb, _ := lazy.PickState(sl.Eq(b))
			if re.Equivalent(ea, eb) != rl.Equivalent(la, lb) {
				t.Fatalf("states %d and %d: eager and lazy relations disagree", a, b)
			}
		}
	}
}

func TestClassOf(t *testing.T) {
	n := compile(t, twins)
	r := Compute(n, []bdd.Ref{obsLabel(t, n)})
	sv := n.VarByName("s")
	asg, _ := n.PickState(sv.Eq(1))
	cls := r.ClassOf(asg)
	want := n.Manager().Or(sv.Eq(1), sv.Eq(2))
	if cls != want {
		t.Fatal("class of state 1 should be {1,2}")
	}
}

func TestClosureAndInterior(t *testing.T) {
	n := compile(t, twins)
	m := n.Manager()
	r := Compute(n, []bdd.Ref{obsLabel(t, n)})
	sv := n.VarByName("s")
	set := m.Or(sv.Eq(1), sv.Eq(3)) // half of class {1,2} plus all of {3}
	cl := r.Closure(set)
	if cl != m.OrN(sv.Eq(1), sv.Eq(2), sv.Eq(3)) {
		t.Fatal("closure should complete the {1,2} class")
	}
	in := m.And(r.Interior(set), sv.Domain())
	if in != sv.Eq(3) {
		t.Fatal("interior should keep only whole classes")
	}
}

func TestMinimizeSetStaysInInterval(t *testing.T) {
	n := compile(t, twins)
	m := n.Manager()
	r := Compute(n, []bdd.Ref{obsLabel(t, n)})
	sv := n.VarByName("s")
	set := m.Or(sv.Eq(1), sv.Eq(3))
	min := r.MinimizeSet(set)
	lower := m.And(r.Interior(set), set)
	upper := m.Or(r.Closure(set), set)
	if !m.Leq(lower, min) || !m.Leq(min, upper) {
		t.Fatal("minimized set escaped the don't-care interval")
	}
	if m.NodeCount(min) > m.NodeCount(set) {
		t.Fatal("minimization must not grow the BDD")
	}
}

func TestReachedSetMinimization(t *testing.T) {
	// The paper's use case: shrink the reached-set BDD using state
	// equivalences. A class-closed set must be unchanged semantically.
	n := compile(t, twins)
	m := n.Manager()
	r := Compute(n, []bdd.Ref{obsLabel(t, n)})
	res := reach.Forward(n, reach.Options{})
	min := r.MinimizeSet(res.Reached)
	// reached is class-closed here (0,1,2,3 all reachable): must stay equal
	if m.And(min, n.VarByName("s").Domain()) != res.Reached {
		t.Fatal("class-closed reached set must be preserved exactly")
	}
}

func TestObservationSplitsEverything(t *testing.T) {
	// With per-state observations nothing collapses.
	n := compile(t, twins)
	sv := n.VarByName("s")
	var obs []bdd.Ref
	for v := 0; v < 4; v++ {
		obs = append(obs, sv.Eq(v))
	}
	r := Compute(n, obs)
	if got := r.NumClasses(sv.Domain()); got != 4 {
		t.Fatalf("classes = %d, want 4", got)
	}
}

func TestNoObservationsCollapseByDynamics(t *testing.T) {
	// Without observations every state of a total deterministic cycle
	// is bisimilar to every other.
	const ring = `
.model ring
.mv s,ns 4
.table s ns
0 1
1 2
2 3
3 0
.latch ns s
.reset s
0
.end
`
	n := compile(t, ring)
	r := Compute(n, nil)
	sv := n.VarByName("s")
	if got := r.NumClasses(sv.Domain()); got != 1 {
		t.Fatalf("classes = %d, want 1", got)
	}
	if r.Iterations < 1 {
		t.Fatal("iteration count not recorded")
	}
}
