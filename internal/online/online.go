// Package online implements the CrystalBall-style online model checking
// scheme of §3.3: a model checker runs alongside a live system and is
// "restarted periodically from the current live state of a running
// system", so it explores relevant states at depths the offline checker
// could never reach before the exponential explosion sets in (Figure 6).
// This is the setting in which the paper's local checker found both Paxos
// bugs (§5.5, §5.6).
package online

import (
	"context"
	"errors"
	"time"

	"lmc/internal/core"
	"lmc/internal/model"
	"lmc/internal/obs"
	"lmc/internal/sim"
	"lmc/internal/stats"
)

// Config parameterizes an online checking session.
type Config struct {
	// Machine is the protocol under test — the checker's model. It may be
	// the same machine the live system runs, or a variant (e.g. a checker
	// driver replacing the live application).
	Machine model.Machine
	// Interval is the simulated time between checker restarts; the paper
	// restarts "every one minute".
	Interval float64
	// MaxSimTime bounds the live run; zero means 24 simulated hours.
	MaxSimTime float64
	// Checker configures each checker run (budget, invariant, reduction).
	Checker core.Options
	// StopAtFirstBug ends the session at the first confirmed bug.
	StopAtFirstBug bool
}

// Validate reports whether the config describes a runnable session: a
// machine to model-check, non-negative timing (zero selects the defaults —
// 60 s interval, 24 simulated hours), and runnable checker options.
// RunContext returns its error; Run panics with it.
func (c *Config) Validate() error {
	if c.Machine == nil {
		return errors.New("online: Config.Machine is required")
	}
	if c.Interval < 0 {
		return errors.New("online: Config.Interval is simulated seconds between restarts and must be >= 0 (0 means 60)")
	}
	if c.MaxSimTime < 0 {
		return errors.New("online: Config.MaxSimTime is simulated seconds and must be >= 0 (0 means 24 hours)")
	}
	return c.Checker.Validate()
}

// RunReport records one checker restart.
type RunReport struct {
	// SimTime is the simulated time of the snapshot.
	SimTime float64
	// Stats are the checker run's counters.
	Stats stats.Counters
	// Bugs are the confirmed violations found from this snapshot.
	Bugs []core.Bug
}

// Report summarizes an online checking session.
type Report struct {
	// Runs are the individual checker restarts, in order.
	Runs []RunReport
	// FirstBug points at the first confirmed bug, if any.
	FirstBug *core.Bug
	// DetectionSimTime is the simulated time of the snapshot that revealed
	// the first bug (§5.5 reports 1150 s, §5.6 reports 225 s).
	DetectionSimTime float64
	// DetectionWall is the wall-clock time the checker spent across runs
	// up to and including the revealing one.
	DetectionWall time.Duration
	// SimTime is the total simulated time covered.
	SimTime float64
}

// Run drives the live simulation, snapshotting every Interval simulated
// seconds and restarting the local checker from the snapshot. It is
// RunContext with a background context, panicking on an invalid config.
func Run(live *sim.Sim, cfg Config) *Report {
	rep, err := RunContext(context.Background(), live, cfg)
	if err != nil {
		panic(err)
	}
	return rep
}

// RunContext is Run with checker-option validation surfaced as an error
// and cooperative cancellation. The context is threaded into every checker
// restart (cancellation cuts the current restart off at its next round
// barrier) and polled between restarts; a cancelled session returns the
// partial Report accumulated so far, not an error. Each restart is
// announced to cfg.Checker.Observer with a KindSnapshot event before the
// checker run's own events.
func RunContext(ctx context.Context, live *sim.Sim, cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return run(ctx, live, cfg), nil
}

func run(ctx context.Context, live *sim.Sim, cfg Config) *Report {
	if cfg.Interval <= 0 {
		cfg.Interval = 60
	}
	if cfg.MaxSimTime <= 0 {
		cfg.MaxSimTime = 24 * 3600
	}
	begin := time.Now()
	rep := &Report{}
	var wall time.Duration
	for t := cfg.Interval; t <= cfg.MaxSimTime; t += cfg.Interval {
		if ctx.Err() != nil {
			break
		}
		live.RunUntil(t)
		snap := live.Snapshot()
		if cfg.Checker.Observer != nil {
			cfg.Checker.Observer.OnEvent(obs.Event{
				Kind:    obs.KindSnapshot,
				Checker: "online",
				Elapsed: time.Since(begin),
				Count:   len(rep.Runs) + 1,
				SimTime: live.Now(),
			})
		}
		// Validation already passed, so CheckContext cannot error here.
		res, _ := core.CheckContext(ctx, cfg.Machine, snap, cfg.Checker)
		wall += res.Stats.Elapsed
		rep.Runs = append(rep.Runs, RunReport{
			SimTime: live.Now(),
			Stats:   res.Stats,
			Bugs:    res.Bugs,
		})
		rep.SimTime = live.Now()
		if len(res.Bugs) > 0 && rep.FirstBug == nil {
			bug := res.Bugs[0]
			rep.FirstBug = &bug
			rep.DetectionSimTime = live.Now()
			rep.DetectionWall = wall
			if cfg.StopAtFirstBug {
				return rep
			}
		}
		if res.StopReason == core.StopCancelled {
			break
		}
	}
	return rep
}
