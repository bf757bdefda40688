package bdd

// The concurrency model: a Manager belongs to one goroutine, and
// parallelism comes from many managers running at once (one per hsisd
// job). These tests run independent managers on several goroutines and
// require every result to be bit-identical to a sequential run of the
// same program. Under -race they also catch any state managers share.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// xorshift32 is the tiny deterministic RNG these tests use to build
// reproducible "large" inputs without math/rand.
type xorshift32 uint32

func (x *xorshift32) next() uint32 {
	v := uint32(*x)
	v ^= v << 13
	v ^= v >> 17
	v ^= v << 5
	*x = xorshift32(v)
	return v
}

// buildDNF constructs a disjunction of random cubes: terms conjunctions
// of width literals each, over nv variables. Same seed, same manager
// variable order ⇒ same function, in any manager.
func buildDNF(m *Manager, rng *xorshift32, nv, terms, width int) Ref {
	f := False
	for i := 0; i < terms; i++ {
		term := True
		for j := 0; j < width; j++ {
			v := int(rng.next()) % nv
			if rng.next()&1 == 0 {
				term = m.And(term, m.Var(v))
			} else {
				term = m.And(term, m.NVar(v))
			}
		}
		f = m.Or(f, term)
	}
	return f
}

// transfer moves f from src into dst through the serialized dump format,
// returning the canonical Ref of the same function in dst. Canonicity
// makes this an exact cross-manager equality check.
func transfer(src, dst *Manager, f Ref) (Ref, error) {
	var buf bytes.Buffer
	if err := src.WriteBDDs(&buf, map[string]Ref{"f": f}); err != nil {
		return False, err
	}
	roots, err := dst.ReadBDDs(&buf)
	if err != nil {
		return False, err
	}
	return roots["f"], nil
}

// runConcurrently runs fn(0..n-1) on n goroutines and returns the
// first error any of them reported.
func runConcurrently(n int, fn func(g int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = fn(g)
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// opsProgram builds two random functions and combines them through
// every operation family; the returned Refs are the program's results.
func opsProgram(m *Manager, seed uint32, nv, rounds int) []Ref {
	rng := xorshift32(seed)
	var out []Ref
	a := buildDNF(m, &rng, nv, 20, 6)
	b := buildDNF(m, &rng, nv, 20, 6)
	for r := 0; r < rounds; r++ {
		switch r % 4 {
		case 0:
			a = m.And(a, m.Or(b, m.Not(a)))
		case 1:
			b = m.Xor(a, b)
		case 2:
			a = m.ITE(b, a, m.Not(b))
		case 3:
			cube := m.Cube([]int{int(rng.next()) % nv, int(rng.next()) % nv})
			a = m.AndExists(a, b, cube)
			b = m.Exists(b, cube)
		}
		out = append(out, a, b)
	}
	return out
}

// TestConcurrentOpsDifferential runs the same operation programs on
// independent managers, first one after another and then on eight
// goroutines at once. A manager's Refs are a deterministic function of
// its operation sequence, so every concurrent result must equal the
// sequential one exactly.
func TestConcurrentOpsDifferential(t *testing.T) {
	const (
		nv         = 24
		goroutines = 8
		rounds     = 6
	)
	seed := func(g int) uint32 { return uint32(g)*0x9e370001 + 7 }
	want := make([][]Ref, goroutines)
	for g := range want {
		m := New()
		m.NewVars(nv)
		want[g] = opsProgram(m, seed(g), nv, rounds)
	}
	err := runConcurrently(goroutines, func(g int) error {
		m := New()
		m.NewVars(nv)
		got := opsProgram(m, seed(g), nv, rounds)
		for i := range got {
			if got[i] != want[g][i] {
				return fmt.Errorf("goroutine %d result %d: %d concurrently, %d sequentially", g, i, got[i], want[g][i])
			}
		}
		return m.CheckInvariants()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentGCDuringOps collects on some managers while other
// goroutines build on theirs: each goroutine runs rounds of building,
// protecting a result and collecting, and the protected results must
// survive every collection bit for bit (checked against an oracle
// manager that never collects).
func TestConcurrentGCDuringOps(t *testing.T) {
	const (
		nv         = 24
		goroutines = 4
		rounds     = 4
	)
	err := runConcurrently(goroutines, func(g int) error {
		m, oracle := New(), New()
		m.NewVars(nv)
		oracle.NewVars(nv)
		for round := 0; round < rounds; round++ {
			salt := uint32(round*goroutines + g)
			build := func(m *Manager) Ref {
				rngF := xorshift32(0xdeadbeef ^ salt)
				rngG := xorshift32(0xcafef00d ^ salt)
				f := buildDNF(m, &rngF, nv, 30, 6)
				g := buildDNF(m, &rngG, nv, 30, 6)
				return m.And(f, g)
			}
			got := m.IncRef(build(m))
			want := build(oracle)
			m.GC()
			if err := m.CheckInvariants(); err != nil {
				return fmt.Errorf("goroutine %d round %d: %v", g, round, err)
			}
			r, err := transfer(m, oracle, got)
			if err != nil {
				return err
			}
			if r != want {
				return fmt.Errorf("goroutine %d round %d: result corrupted across GC", g, round)
			}
			m.DecRef(got)
		}
		if m.GCCount != rounds {
			return fmt.Errorf("goroutine %d: expected %d collections, ran %d", g, rounds, m.GCCount)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// runConcurrentFuzz runs a rotation of prog on each of four goroutines,
// each on its own manager — GC, reorder and group opcodes included —
// and checks every stack against the truth-table oracle and against a
// sequential run of the same rotation.
func runConcurrentFuzz(t *testing.T, prog []byte) {
	t.Helper()
	const goroutines = 4
	rotation := func(g int) []byte {
		rot := make([]byte, len(prog))
		for i := range prog {
			rot[i] = prog[(i+g)%len(prog)] + byte(g)
		}
		return rot
	}
	want := make([][]fuzzEntry, goroutines)
	for g := range want {
		m := New()
		m.NewVars(fuzzVars)
		stack, err := runFuzzProgram(m, rotation(g))
		if err != nil {
			t.Fatal(err)
		}
		want[g] = stack
	}
	stacks := make([][]fuzzEntry, goroutines)
	mgrs := make([]*Manager, goroutines)
	err := runConcurrently(goroutines, func(g int) error {
		mgrs[g] = New()
		mgrs[g].NewVars(fuzzVars)
		var err error
		stacks[g], err = runFuzzProgram(mgrs[g], rotation(g))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for g, stack := range stacks {
		if len(stack) != len(want[g]) {
			t.Fatalf("goroutine %d: stack depth %d concurrently, %d sequentially", g, len(stack), len(want[g]))
		}
		for i := range stack {
			if stack[i].f != want[g][i].f {
				t.Fatalf("goroutine %d entry %d: %d concurrently, %d sequentially", g, i, stack[i].f, want[g][i].f)
			}
		}
		checkFuzzStack(t, mgrs[g], stack)
	}
}

// FuzzConcurrentKernel is the concurrent arm of the differential fuzz
// harness: arbitrary operation programs executed on independent
// managers by several goroutines at once.
func FuzzConcurrentKernel(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 3})
	f.Add([]byte{0, 0, 0, 3, 2, 2, 8, 4})
	f.Add([]byte{0, 9, 0, 3, 0, 7, 9, 2, 5, 0, 0, 7, 7})
	f.Add([]byte{1, 0, 1, 1, 2, 10, 0, 4, 9, 1, 0, 6, 6, 3})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 || len(prog) > 128 {
			t.Skip()
		}
		runConcurrentFuzz(t, prog)
	})
}

// TestConcurrentFuzzCorpus runs the concurrent fuzz seeds as a plain
// test so `go test` (and the -race shard in make check) exercises the
// multi-goroutine harness without -fuzz.
func TestConcurrentFuzzCorpus(t *testing.T) {
	progs := [][]byte{
		{0, 1, 0, 2, 3},
		{0, 0, 0, 3, 2, 2, 8, 4},
		{0, 9, 0, 3, 0, 7, 9, 2, 5, 0, 0, 7, 7},
		{1, 0, 1, 1, 2, 10, 0, 4, 9, 1, 0, 6, 6, 3},
		{0, 3, 0, 5, 3, 0, 0, 4, 3, 4, 8, 2, 7, 10, 9, 1},
		{0, 3, 0, 5, 3, 12, 0, 0, 4, 3, 12, 4, 8, 2, 11, 13, 1},
	}
	for _, prog := range progs {
		runConcurrentFuzz(t, prog)
	}
}
