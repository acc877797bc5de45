// Package diffcheck is the differential checking harness: it cross-validates
// the local model checker (internal/core, both the LMC-GEN and LMC-OPT
// strategies) against the global B-DFS baseline (internal/mc/global) on
// randomized small scenarios, and cross-checks every reported counterexample
// by replaying it through two independent replay implementations
// (internal/testkit and internal/trace).
//
// The paper's central claim is that local model checking finds the same
// violations as global exploration at a fraction of the cost, with an
// a-posteriori soundness verification filtering out false positives (§4.2,
// §4.4). This package checks that claim mechanically, in both directions:
//
//   - No missed bugs within bound: when the global checker confirms a
//     violation, the local checker — run to its exploration fixpoint with no
//     suppressed local events — must confirm one too.
//   - No unsound reports: every violation the local checker confirms must
//     replay, through the real handlers and a real message-consuming
//     network, to a system state with the claimed fingerprint that violates
//     the claimed invariant.
//
// Scenarios are plain serializable values: re-running the same scenario JSON
// reproduces a disagreement bit-for-bit, and a greedy shrinker minimizes a
// disagreeing scenario before it is written out as an artifact.
package diffcheck

import (
	"fmt"

	"lmc/internal/actordemo"
	"lmc/internal/model"
	"lmc/internal/protocols/chain"
	"lmc/internal/protocols/onepaxos"
	"lmc/internal/protocols/paxos"
	"lmc/internal/protocols/randtree"
	"lmc/internal/protocols/tree"
	"lmc/internal/protocols/twophase"
	"lmc/internal/spec"
	"lmc/internal/testkit"
)

// Protocol names accepted in Scenario.Protocol.
const (
	ProtoPaxos    = "paxos"
	ProtoOnePaxos = "onepaxos"
	ProtoRandTree = "randtree"
	ProtoTree     = "tree"
	ProtoChain    = "chain"
	ProtoTwoPhase = "twophase"
	// ProtoActor2PC is the actordemo register-commit service checked
	// through the actorcheck adapter — real implementation code, not a
	// hand-written model. It is accepted by Build but deliberately NOT
	// listed in Protocols: adding it there would shift the main corpus's
	// random draws and silently replace every historical scenario. Actor
	// scenarios come from ActorCorpus instead.
	ProtoActor2PC = "actor2pc"
)

// Protocols lists every protocol the main corpus generator draws from. The
// list is append-only in spirit but frozen in practice: the deterministic
// corpus (seed → scenarios) is part of the harness's regression surface.
func Protocols() []string {
	return []string{ProtoPaxos, ProtoOnePaxos, ProtoRandTree, ProtoTree, ProtoChain, ProtoTwoPhase}
}

// Bug variant names per protocol; "" is the correct variant everywhere.
const (
	BugLastResponse = "last-response" // paxos §5.5
	BugPlusPlus     = "plusplus"      // onepaxos §5.6
	BugSelfSibling  = "self-sibling"  // randtree §4
	BugMajority     = "majority"      // twophase
)

// PrefixOp is one step of the scripted run prefix executed before checking
// starts. Ops are interpreted against whatever the run offers at that
// moment — Pick indexes modulo the enabled actions or the queued messages —
// so an op list stays meaningful under shrinking (an op with nothing to
// pick from is a no-op). The prefix plays the role of the paper's live run:
// it evolves the system to an arbitrary reachable state, and whatever is
// still queued afterward becomes the checkers' initial in-flight set.
type PrefixOp struct {
	// Op is "act" (fire an enabled internal action of Node), "deliver"
	// (deliver a queued message) or "drop" (discard a queued message).
	Op string `json:"op"`
	// Node selects the acting node for "act" (taken modulo the node count).
	Node int `json:"node,omitempty"`
	// Pick selects among the available choices, modulo their count.
	Pick int `json:"pick"`
}

// Scenario is one serializable checking configuration: a protocol variant,
// a system size, checker bounds, and a scripted run prefix. Everything the
// differential run does is a deterministic function of this value.
type Scenario struct {
	Protocol string `json:"protocol"`
	// Bug selects the protocol variant; "" is the correct protocol.
	Bug   string `json:"bug,omitempty"`
	Nodes int    `json:"nodes"`
	// Live starts checking from the protocol's paper live state instead of
	// the initial system — the configuration of the paper's online runs,
	// and the only tractable way to reach the paxos §5.5 and onepaxos §5.6
	// bugs within small depth bounds. Only paxos and onepaxos have one.
	Live bool `json:"live,omitempty"`

	// Depth bounds the global checker's B-DFS (events from the start
	// configuration). The local checker runs unbounded in depth; the
	// missed-bug comparison is therefore one-directional by construction.
	Depth int `json:"depth"`
	// LocalBound is the local checker's starting per-node local-event
	// budget; MaxLocalBound caps its iterative deepening.
	LocalBound    int `json:"local_bound"`
	MaxLocalBound int `json:"max_local_bound"`
	// DupLimit is the local checker's duplicate-message tolerance for I+.
	DupLimit int `json:"dup_limit,omitempty"`

	// Protocol-specific knobs.
	Proposers    []int   `json:"proposers,omitempty"`     // paxos: nodes that propose (EachOnce); nil → node 0 once
	Index        int     `json:"index,omitempty"`         // paxos: the contested index
	MaxProposals int     `json:"max_proposals,omitempty"` // onepaxos driver budget
	MaxTakeovers int     `json:"max_takeovers,omitempty"` // onepaxos driver budget
	MaxChildren  int     `json:"max_children,omitempty"`  // randtree fan-out
	Children     [][]int `json:"children,omitempty"`      // tree topology; node 0 is the root
	Target       int     `json:"target,omitempty"`        // tree target node
	NoVoters     []int   `json:"no_voters,omitempty"`     // twophase scripted no-voters

	// Prefix is the scripted run executed before the checkers start.
	Prefix []PrefixOp `json:"prefix,omitempty"`
}

// Name renders a compact human-readable label for reports.
func (sc Scenario) Name() string {
	bug := sc.Bug
	if bug == "" {
		bug = "correct"
	}
	live := ""
	if sc.Live {
		live = "/live"
	}
	return fmt.Sprintf("%s/%s%s/n%d/d%d/p%d", sc.Protocol, bug, live, sc.Nodes, sc.Depth, len(sc.Prefix))
}

// Instance is a scenario resolved into the objects the checkers consume.
type Instance struct {
	Machine model.Machine
	// Start is the system state checking begins from (before the prefix):
	// the machine's initial system, or the paper live state when the
	// scenario sets Live.
	Start model.SystemState
	// Invariant is the system-wide safety property (nil for protocols with
	// only node-local invariants).
	Invariant spec.Invariant
	// Locals are node-local invariants, checked directly by LMC and lifted
	// to a system invariant for the global baseline.
	Locals []spec.LocalInvariant
	// Reduction enables the LMC-OPT strategy when non-nil.
	Reduction spec.Reduction
}

// GlobalInvariant combines the system invariant and every lifted local
// invariant into the single invariant the global checker evaluates, so both
// checkers judge states against the same properties.
func (in *Instance) GlobalInvariant() spec.Invariant {
	invs := make([]spec.Invariant, 0, 1+len(in.Locals))
	if in.Invariant != nil {
		invs = append(invs, in.Invariant)
	}
	for _, li := range in.Locals {
		invs = append(invs, spec.Lift(li))
	}
	if len(invs) == 1 {
		return invs[0]
	}
	return spec.InvariantFunc{
		InvName: "diffcheck-all",
		Fn: func(ss model.SystemState) *spec.Violation {
			for _, inv := range invs {
				if v := inv.Check(ss); v != nil {
					return v
				}
			}
			return nil
		},
	}
}

// InvariantByName resolves the checker an individual violation names, for
// re-judging a replayed final state against exactly the property the bug
// report claims was violated.
func (in *Instance) InvariantByName(name string) spec.Invariant {
	if in.Invariant != nil && in.Invariant.Name() == name {
		return in.Invariant
	}
	for _, li := range in.Locals {
		if li.Name() == name {
			return spec.Lift(li)
		}
	}
	return nil
}

// Build resolves the scenario into a machine plus its invariants. It fails
// on unknown protocols or bug names and on out-of-range sizes, so a
// hand-edited or shrunk scenario is validated before anything runs.
func (sc Scenario) Build() (*Instance, error) {
	if sc.Nodes < 1 {
		return nil, fmt.Errorf("diffcheck: scenario needs at least 1 node, got %d", sc.Nodes)
	}
	if sc.DupLimit < 0 {
		// core.Options.Validate rejects it; a repro artifact is outside input
		// and must not reach core.Check's panic.
		return nil, fmt.Errorf("diffcheck: dup_limit must be >= 0, got %d", sc.DupLimit)
	}
	wrongBug := func() error {
		return fmt.Errorf("diffcheck: protocol %s has no bug variant %q", sc.Protocol, sc.Bug)
	}
	if sc.Live && sc.Protocol != ProtoPaxos && sc.Protocol != ProtoOnePaxos {
		return nil, fmt.Errorf("diffcheck: protocol %s has no paper live state", sc.Protocol)
	}
	switch sc.Protocol {
	case ProtoPaxos:
		bug := paxos.NoBug
		switch sc.Bug {
		case "":
		case BugLastResponse:
			bug = paxos.LastResponseBug
		default:
			return nil, wrongBug()
		}
		var driver paxos.Driver
		switch {
		case sc.Live:
			// The live state already has accepted values on the contested
			// index; every node may re-propose once, the §5.5 setup.
			driver = paxos.ActiveIndex{MaxPerNode: 1}
		case len(sc.Proposers) <= 1:
			node := 0
			if len(sc.Proposers) == 1 {
				node = sc.Proposers[0] % sc.Nodes
			}
			driver = paxos.OnceAt{Node: model.NodeID(node), Index: sc.Index, Value: node + 1}
		default:
			nodes := make([]model.NodeID, 0, len(sc.Proposers))
			for _, p := range sc.Proposers {
				nodes = append(nodes, model.NodeID(p%sc.Nodes))
			}
			driver = paxos.EachOnce{Nodes: nodes, Index: sc.Index}
		}
		m := paxos.New(sc.Nodes, bug, driver)
		inst := &Instance{
			Machine:   m,
			Invariant: paxos.Agreement(),
			Reduction: paxos.Reduction{},
		}
		if sc.Live {
			if sc.Nodes != 3 {
				return nil, fmt.Errorf("diffcheck: the paxos live state is a 3-node configuration, got %d", sc.Nodes)
			}
			live, err := paxos.PaperLiveState(m)
			if err != nil {
				return nil, err
			}
			inst.Start = live
		}
		return inst, nil

	case ProtoOnePaxos:
		bug := onepaxos.NoBug
		switch sc.Bug {
		case "":
		case BugPlusPlus:
			bug = onepaxos.PlusPlusBug
		default:
			return nil, wrongBug()
		}
		if sc.Nodes < 2 {
			return nil, fmt.Errorf("diffcheck: onepaxos needs ≥2 nodes, got %d", sc.Nodes)
		}
		driver := onepaxos.Driver{MaxProposals: sc.MaxProposals, MaxTakeovers: sc.MaxTakeovers}
		m := onepaxos.New(sc.Nodes, bug, driver)
		inst := &Instance{
			Machine:   m,
			Invariant: onepaxos.Agreement(),
			Reduction: onepaxos.Reduction{},
		}
		if sc.Live {
			if sc.Nodes != 3 {
				return nil, fmt.Errorf("diffcheck: the onepaxos live state is a 3-node configuration, got %d", sc.Nodes)
			}
			live, err := onepaxos.PaperLiveState(m)
			if err != nil {
				return nil, err
			}
			inst.Start = live
		}
		return inst, nil

	case ProtoRandTree:
		bug := randtree.NoBug
		switch sc.Bug {
		case "":
		case BugSelfSibling:
			bug = randtree.SelfSiblingBug
		default:
			return nil, wrongBug()
		}
		return &Instance{
			Machine: randtree.New(sc.Nodes, sc.MaxChildren, bug),
			Locals:  []spec.LocalInvariant{randtree.Structure()},
		}, nil

	case ProtoTree:
		if sc.Bug != "" {
			return nil, wrongBug()
		}
		children, target, err := sc.treeTopology()
		if err != nil {
			return nil, err
		}
		m := tree.New(children, 0, model.NodeID(target))
		return &Instance{
			Machine:   m,
			Invariant: m.CausalityInvariant(),
			Reduction: tree.Reduction{Root: 0, Target: model.NodeID(target)},
		}, nil

	case ProtoChain:
		if sc.Bug != "" {
			return nil, wrongBug()
		}
		m := chain.New(sc.Nodes)
		return &Instance{Machine: m, Invariant: m.Causality()}, nil

	case ProtoTwoPhase:
		bug := twophase.NoBug
		switch sc.Bug {
		case "":
		case BugMajority:
			bug = twophase.MajorityBug
		default:
			return nil, wrongBug()
		}
		if sc.Nodes < 2 {
			return nil, fmt.Errorf("diffcheck: twophase needs ≥2 nodes, got %d", sc.Nodes)
		}
		voters := make([]model.NodeID, 0, len(sc.NoVoters))
		for _, v := range sc.NoVoters {
			n := v % sc.Nodes
			if n == 0 {
				n = 1 // the coordinator always votes yes
			}
			voters = append(voters, model.NodeID(n))
		}
		return &Instance{
			Machine:   twophase.New(sc.Nodes, bug, voters...),
			Invariant: twophase.Atomicity(),
			Reduction: twophase.Reduction{},
		}, nil

	case ProtoActor2PC:
		bug := actordemo.NoBug
		switch sc.Bug {
		case "":
		case BugMajority:
			bug = actordemo.MajorityBug
		default:
			return nil, wrongBug()
		}
		if sc.Nodes < 2 {
			return nil, fmt.Errorf("diffcheck: actor2pc needs ≥2 nodes, got %d", sc.Nodes)
		}
		refusers := make([]model.NodeID, 0, len(sc.NoVoters))
		for _, v := range sc.NoVoters {
			n := v % sc.Nodes
			if n == 0 {
				n = 1 // the coordinator always acknowledges its own write
			}
			refusers = append(refusers, model.NodeID(n))
		}
		ad := actordemo.NewAdapter(sc.Nodes, bug, refusers...)
		return &Instance{
			Machine:   ad,
			Invariant: actordemo.Atomicity(ad),
			Reduction: actordemo.Reduction{Ad: ad},
		}, nil

	default:
		return nil, fmt.Errorf("diffcheck: unknown protocol %q", sc.Protocol)
	}
}

// treeTopology resolves the tree scenario's topology: the explicit Children
// lists when given (validated), otherwise a deterministic two-child tree
// over Nodes nodes with the highest-numbered node as target.
func (sc Scenario) treeTopology() ([][]model.NodeID, int, error) {
	if len(sc.Children) == 0 {
		children := make([][]model.NodeID, sc.Nodes)
		for i := 0; i < sc.Nodes; i++ {
			for _, c := range []int{2*i + 1, 2*i + 2} {
				if c < sc.Nodes {
					children[i] = append(children[i], model.NodeID(c))
				}
			}
		}
		return children, sc.Nodes - 1, nil
	}
	if len(sc.Children) != sc.Nodes {
		return nil, 0, fmt.Errorf("diffcheck: tree topology lists %d nodes, scenario has %d",
			len(sc.Children), sc.Nodes)
	}
	children := make([][]model.NodeID, sc.Nodes)
	for i, cs := range sc.Children {
		for _, c := range cs {
			if c <= i || c >= sc.Nodes {
				return nil, 0, fmt.Errorf("diffcheck: tree child %d of node %d out of range", c, i)
			}
			children[i] = append(children[i], model.NodeID(c))
		}
	}
	target := sc.Target
	if target < 0 || target >= sc.Nodes {
		return nil, 0, fmt.Errorf("diffcheck: tree target %d out of range", target)
	}
	return children, target, nil
}

// Prepare executes the scenario's prefix against the instance's start state
// through the testkit pump and returns the resulting system state plus the
// messages still in flight — the configuration both checkers are pointed
// at. The result is a pure function of the scenario.
func (sc Scenario) Prepare(inst *Instance) (model.SystemState, []model.Message, error) {
	m := inst.Machine
	var h *testkit.Harness
	if inst.Start != nil {
		h = testkit.NewAt(m, inst.Start, nil)
	} else {
		h = testkit.New(m)
	}
	for i, op := range sc.Prefix {
		switch op.Op {
		case "act":
			n := model.NodeID(abs(op.Node) % m.NumNodes())
			acts := m.Actions(n, h.Sys[n])
			if len(acts) == 0 {
				continue
			}
			a := acts[abs(op.Pick)%len(acts)]
			if err := h.Act(a); err != nil {
				// An enabled action whose handler rejects is a protocol
				// quirk, not a scenario error: skip the op.
				continue
			}
		case "deliver":
			if len(h.Queue) == 0 {
				continue
			}
			if err := h.DeliverAt(abs(op.Pick) % len(h.Queue)); err != nil {
				// A queued message rejected by its destination (a local
				// assertion): the state is unchanged, continue scripting.
				continue
			}
		case "drop":
			if len(h.Queue) == 0 {
				continue
			}
			if err := h.DropAt(abs(op.Pick) % len(h.Queue)); err != nil {
				return nil, nil, fmt.Errorf("diffcheck: prefix op %d: %w", i, err)
			}
		default:
			return nil, nil, fmt.Errorf("diffcheck: prefix op %d has unknown kind %q", i, op.Op)
		}
	}
	return h.Snapshot(), h.InFlight(), nil
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
