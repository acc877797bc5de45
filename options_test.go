package lmc_test

import (
	"testing"
	"time"

	"lmc"
	"lmc/internal/protocols/paxos"
	"lmc/internal/protocols/randtree"
)

// TestValidateRejections covers each rejection case of the uniform
// Validate contract across the three option surfaces.
func TestValidateRejections(t *testing.T) {
	m := paxos.New(3, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 7})
	inv := paxos.Agreement()

	t.Run("core", func(t *testing.T) {
		cases := []lmc.Options{
			{}, // nothing to check
		}
		for i, opt := range cases {
			if err := opt.Validate(); err == nil {
				t.Fatalf("case %d accepted: %+v", i, opt)
			}
		}
		ok := []lmc.Options{
			{Invariant: inv},
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
