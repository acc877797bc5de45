package lmc_test

import (
	"context"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"lmc"
	"lmc/internal/model"
	"lmc/internal/protocols/paxos"
	"lmc/internal/protocols/randtree"
)

// keylessReduction is a reduction without InterestKey, which LMC-OPT
// cannot group by.
type keylessReduction struct{}

func (keylessReduction) Interest(model.NodeID, model.State) (lmc.Interest, bool) { return nil, false }
func (keylessReduction) Conflict(a, b lmc.Interest) bool                         { return false }

// TestValidateRejections covers each rejection case of the uniform
// Validate contract across the three option surfaces.
func TestValidateRejections(t *testing.T) {
	m := paxos.New(3, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 7})
	inv := paxos.Agreement()

	t.Run("core", func(t *testing.T) {
		cases := []lmc.Options{
			{},                                        // nothing to check
			{Invariant: inv, DupLimit: -1},            // I+ would admit no message at all
			{Invariant: inv, MaxPathDepth: -1},        // a negative bound is not "unbounded"
			{Invariant: inv, MaxSystemDepth: -1},      // negative system depth
			{Invariant: inv, MaxTransitions: -1},      // negative transitions
			{Invariant: inv, Budget: -time.Second},    // negative budget
			{DisableSystemStates: true, DupLimit: -2}, // also when nothing is checked

			// LMC-OPT groups node states by interest key.
			{Invariant: inv, Reduction: keylessReduction{}},
		}
		for i, opt := range cases {
			if err := opt.Validate(); err == nil {
				t.Fatalf("case %d accepted: %+v", i, opt)
			}
			if _, err := lmc.CheckContext(context.Background(), m, lmc.InitialSystem(m), opt); err == nil {
				t.Fatalf("case %d run by CheckContext: %+v", i, opt)
			}
		}
		if err := (&lmc.Options{Invariant: inv, Reduction: keylessReduction{}}).Validate(); err == nil ||
			!strings.Contains(err.Error(), "InterestKey") {
			t.Fatalf("a keyless reduction's rejection does not name InterestKey: %v", err)
		}
		ok := []lmc.Options{
			{Invariant: inv},
			{Invariant: inv, DupLimit: 1, MaxPathDepth: 4, MaxSystemDepth: 9, MaxTransitions: 100, Budget: time.Second},
			{DisableSystemStates: true},
			{LocalInvariants: []lmc.LocalInvariant{randtree.Structure()}},
		}
		for i, opt := range ok {
			if err := opt.Validate(); err != nil {
				t.Fatalf("valid case %d rejected: %v", i, err)
			}
		}
	})

	t.Run("global", func(t *testing.T) {
		cases := []lmc.GlobalOptions{
			{},                                     // no invariant
			{Invariant: inv, Strategy: 7},          // unknown strategy
			{Invariant: inv, MaxDepth: -1},         // negative depth
			{Invariant: inv, MaxTransitions: -1},   // negative transitions
			{Invariant: inv, Budget: -time.Second}, // negative budget
		}
		for i, opt := range cases {
			if err := opt.Validate(); err == nil {
				t.Fatalf("case %d accepted: %+v", i, opt)
			}
		}
		if err := (&lmc.GlobalOptions{Invariant: inv, Strategy: lmc.BFS, MaxDepth: 5}).Validate(); err != nil {
			t.Fatalf("valid options rejected: %v", err)
		}
	})

	t.Run("online", func(t *testing.T) {
		cases := []lmc.OnlineConfig{
			{},                           // no machine
			{Machine: m, Interval: -1},   // negative interval
			{Machine: m, MaxSimTime: -1}, // negative sim time
			{Machine: m},                 // checker unrunnable (no invariant)
		}
		for i, cfg := range cases {
			if err := cfg.Validate(); err == nil {
				t.Fatalf("case %d accepted: %+v", i, cfg)
			}
		}
		good := lmc.OnlineConfig{Machine: m, Checker: lmc.Options{Invariant: inv}}
		if err := good.Validate(); err != nil {
			t.Fatalf("valid config rejected: %v", err)
		}
	})
}

// TestREADMEListsEveryOption keeps README's option paragraph — "`core.Options`
// has N fields …" — from drifting: N is the struct's field count, every
// field is named there in backticks, and every backticked identifier there
// is a field.
func TestREADMEListsEveryOption(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("(?s)`core\\.Options` has (\\d+) fields.*?\n\n").FindSubmatch(readme)
	if m == nil {
		t.Fatal("README.md has no \"`core.Options` has N fields\" paragraph")
	}
	para := string(m[0])
	typ := reflect.TypeOf(lmc.Options{})
	if stated, _ := strconv.Atoi(string(m[1])); stated != typ.NumField() {
		t.Errorf("README states %d fields, core.Options has %d", stated, typ.NumField())
	}
	fields := make(map[string]bool)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fields[name] = true
		if !strings.Contains(para, "`"+name+"`") {
			t.Errorf("README's option paragraph does not name Options.%s", name)
		}
	}
	for _, id := range regexp.MustCompile("`([A-Z][A-Za-z]*)`").FindAllStringSubmatch(para, -1) {
		if !fields[id[1]] {
			t.Errorf("README's option paragraph names `%s`, which is not a field of core.Options", id[1])
		}
	}
}
