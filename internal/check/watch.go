package check

import (
	"errors"

	"repro/internal/causality"
	"repro/internal/rat"
	"repro/internal/sim"
)

// ErrInadmissible is the sentinel with which Watcher.Monitor stops a
// simulation at the first admissibility violation. It lands in
// sim.Result.MonitorErr.
var ErrInadmissible = errors.New("check: execution became ABC-inadmissible")

// Watcher adapts the incremental admissibility engine to the simulator's
// online-monitor hook (sim.Config.Monitor): the execution graph and the
// constraint potential grow with the run, and the run is aborted the
// moment the ABC condition first fails. A Watcher serves one run; give
// each job its own.
type Watcher struct {
	xi   rat.Rat
	opts causality.Options
	inc  *Incremental
}

// NewWatcher returns a watcher for ABC(Ξ). The incremental engine binds
// to the run's trace on the first Monitor call.
func NewWatcher(xi rat.Rat, opts causality.Options) (*Watcher, error) {
	if _, _, err := xiParts(xi); err != nil {
		return nil, err
	}
	return &Watcher{xi: xi, opts: opts}, nil
}

// Monitor is the sim.Config.Monitor hook. It returns ErrInadmissible at
// the first event whose prefix graph violates the synchrony condition,
// stopping the run.
func (w *Watcher) Monitor(t *sim.Trace) error {
	if w.inc == nil {
		inc, err := NewIncremental(t, w.xi, w.opts)
		if err != nil {
			return err
		}
		w.inc = inc
	} else if w.inc.Trace() != t {
		return errors.New("check: Watcher reused across runs; create one per run")
	}
	v, err := w.inc.Step()
	if err != nil {
		return err
	}
	if !v.Admissible {
		return ErrInadmissible
	}
	return nil
}

// Verdict returns the final verdict: the witness-carrying inadmissible
// verdict if the run was aborted, otherwise the admissible verdict.
// An empty run, where Monitor never ran, is admissible: the verdict is
// Verdict{Admissible: true}, without assignment or witness.
func (w *Watcher) Verdict() Verdict {
	if w.inc == nil {
		return Verdict{Admissible: true}
	}
	return w.inc.Verdict()
}

// FirstViolation returns the position in Trace.Events of the earliest
// event whose prefix graph is inadmissible, -1 when the run stayed
// admissible.
func (w *Watcher) FirstViolation() int {
	if w.inc == nil {
		return -1
	}
	return w.inc.FailedAt()
}

// MaxRelevantRatio runs the critical-ratio search over the execution graph
// built during the run on the watcher's own constraint store, so it needs
// no second copy of the constraints; the result equals
// MaxRelevantRatio(w.Graph()). An empty run has no relevant cycle.
func (w *Watcher) MaxRelevantRatio() (ratio rat.Rat, found bool, err error) {
	if w.inc == nil {
		return rat.Zero, false, nil
	}
	return (&Prober{g: w.inc.Graph(), s: &w.inc.arcs}).MaxRelevantRatio()
}

// Graph returns the execution graph built during the run, or nil when
// Monitor never ran. It is the monitor's own graph, not a copy: safe for
// concurrent reads once the run is over, and it adds no index of its own.
func (w *Watcher) Graph() *causality.Graph {
	if w.inc == nil {
		return nil
	}
	return w.inc.Graph()
}
