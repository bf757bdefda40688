package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/big"
	"strconv"
	"strings"
	"sync"
)

//go:embed expected.json
var expectedJSON []byte

// expectation is the known answer for one design.
type expectation struct {
	LC      int      `json:"lc"`
	CTL     int      `json:"ctl"`
	Reached string   `json:"reached"`
	Failing []string `json:"failing"`
}

// answers is the parsed expected-answers file.
type answers struct {
	Designs    map[string]expectation `json:"designs"`
	SchedulerN struct {
		expectation
		Examples map[string]string `json:"examples"`
	} `json:"scheduler_n"`
}

func loadAnswers(data []byte) (*answers, error) {
	var a answers
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("expected answers: %w", err)
	}
	return &a, nil
}

// lookup returns the expectation for a design name; scheduler-N names
// get N*2^N reachable states.
func (a *answers) lookup(name string) (expectation, error) {
	if e, ok := a.Designs[name]; ok {
		return e, nil
	}
	if rest, ok := strings.CutPrefix(name, "scheduler-"); ok {
		n, err := strconv.Atoi(rest)
		if err == nil && n > 0 {
			e := a.SchedulerN.expectation
			e.Reached = schedulerReached(n).String()
			return e, nil
		}
	}
	return expectation{}, fmt.Errorf("no expected answers for design %q", name)
}

// schedulerReached is the closed form N*2^N.
func schedulerReached(n int) *big.Int {
	return new(big.Int).Lsh(big.NewInt(int64(n)), uint(n))
}

// outcome is what one design verification produced, reduced to the
// facts the checker compares.
type outcome struct {
	Design   string
	LC, CTL  int             // properties loaded
	Verdicts map[string]bool // property name -> pass
	Kinds    map[string]string
	Reached  string // "" when the run did not ask for it
	Errors   []string
	// Debug is set when the run produced debug artifacts (the in-process
	// workloads); the daemon returns verdicts only.
	Debug      bool
	TraceOK    map[string]bool // failing LC property -> trace replays
	BugReport  map[string]bool // failing property -> non-empty bug report
	Explained  map[string]bool // failing CTL property -> explanation produced
	StatusDone bool            // daemon jobs: reached status done
	Daemon     bool
}

func newOutcome(design string) *outcome {
	return &outcome{
		Design:    design,
		Verdicts:  map[string]bool{},
		Kinds:     map[string]string{},
		TraceOK:   map[string]bool{},
		BugReport: map[string]bool{},
		Explained: map[string]bool{},
	}
}

// tally counts checks attempted and failed; failed_frac is their ratio.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	messages  []string // the first few failures, for the log
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		if len(t.messages) < 20 {
			t.messages = append(t.messages, fmt.Sprintf(format, args...))
		}
	}
}

func (t *tally) failedFrac() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// verify checks one outcome against the expected answers.
func (a *answers) verify(o *outcome, t *tally) {
	d := o.Design
	if o.Daemon {
		t.check(o.StatusDone, "%s: job did not finish done (%s)", d, strings.Join(o.Errors, "; "))
		if !o.StatusDone {
			return
		}
	}
	want, err := a.lookup(d)
	if err != nil {
		t.check(false, "%v", err)
		return
	}
	for _, e := range o.Errors {
		t.check(false, "%s: %s", d, e)
	}
	t.check(o.LC == want.LC && o.CTL == want.CTL,
		"%s: %d LC + %d CTL properties, want %d + %d", d, o.LC, o.CTL, want.LC, want.CTL)
	if o.Reached != "" || !o.Daemon {
		t.check(o.Reached == want.Reached, "%s: reached %q states, want %s", d, o.Reached, want.Reached)
	}
	failing := map[string]bool{}
	for _, n := range want.Failing {
		failing[n] = true
	}
	for name, pass := range o.Verdicts {
		t.check(pass == !failing[name], "%s/%s: pass=%v, want %v", d, name, pass, !failing[name])
		if pass || !o.Debug {
			continue
		}
		t.check(o.BugReport[name], "%s/%s: failing property has no bug report", d, name)
		switch o.Kinds[name] {
		case "lc":
			t.check(o.TraceOK[name], "%s/%s: failing LC trace missing or does not replay", d, name)
		case "ctl":
			t.check(o.Explained[name], "%s/%s: failing CTL property has no explanation", d, name)
		}
	}
	t.check(len(o.Verdicts) == want.LC+want.CTL,
		"%s: %d verdicts, want %d", d, len(o.Verdicts), want.LC+want.CTL)
}
