// Package fmerr defines the typed error taxonomy of the fastmon pipeline.
//
// Every long-running stage of the Fig.-4 flow (ATPG, fault simulation,
// detection-range computation, set-covering solves, scheduling, the
// experiment harness) attributes its failures to a Stage so that a
// multi-hour campaign that dies reports *where* in the pipeline it died
// and on which work item. Three error kinds cover the failure modes:
//
//   - *Error: an ordinary error wrapped with stage and operation
//     attribution. errors.Is/As see through it, so cancellation
//     (context.Canceled / context.DeadlineExceeded) stays detectable at
//     any distance from the stage that observed it.
//   - *PanicError: a panic recovered inside a worker-pool goroutine,
//     converted into an error carrying the work item (fault, pattern)
//     that was being processed and the stack at the point of the panic.
//     One crashing fault simulation fails the run with attribution
//     instead of killing the process.
//   - Degradation: not an error at all, but the explicit ladder of
//     result quality the solvers walk down under budget or cancellation
//     pressure — exact optimum → greedy-seeded incumbent → partial
//     results. Results report their rung instead of implying it.
package fmerr

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
)

// Stage identifies the pipeline stage an error is attributed to.
type Stage string

// The stages of the Fig.-4 flow plus the harness around it.
const (
	StageAnnotate Stage = "annotate"
	StageATPG     Stage = "atpg"
	StageSim      Stage = "sim"
	StageDetect   Stage = "detect"
	StageSolve    Stage = "solve"
	StageSchedule Stage = "schedule"
	StageExper    Stage = "exper"
	// StageIO marks failures of the durable-I/O layer (internal/safeio):
	// atomic file replacement, fsync and record checksum verification.
	StageIO Stage = "io"
	// StageCache marks faults injected into the result-cache I/O paths
	// (internal/cache). The cache itself never surfaces errors — corrupt
	// or unreadable entries degrade to misses — so this stage appears in
	// chaos attribution, not in pipeline errors.
	StageCache Stage = "cache"
)

// Error attributes a wrapped error to a pipeline stage and operation.
type Error struct {
	Stage Stage
	Op    string // operation within the stage, e.g. "setcover" or "baseline"
	Err   error
}

func (e *Error) Error() string {
	if e.Op == "" {
		return fmt.Sprintf("%s: %v", e.Stage, e.Err)
	}
	return fmt.Sprintf("%s/%s: %v", e.Stage, e.Op, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// Wrap attributes err to a stage and operation. A nil err returns nil, so
// it can wrap return values unconditionally.
func Wrap(stage Stage, op string, err error) error {
	if err == nil {
		return nil
	}
	return &Error{Stage: stage, Op: op, Err: err}
}

// Errorf builds a stage-attributed error from a format string.
func Errorf(stage Stage, op, format string, args ...any) error {
	return &Error{Stage: stage, Op: op, Err: fmt.Errorf(format, args...)}
}

// StageOf returns the stage of the outermost stage-attributed error in
// err's chain, or "" if there is none.
func StageOf(err error) Stage {
	var e *Error
	if errors.As(err, &e) {
		return e.Stage
	}
	var p *PanicError
	if errors.As(err, &p) {
		return p.Stage
	}
	return ""
}

// IsCanceled reports whether err stems from context cancellation or an
// expired context deadline anywhere in its chain.
func IsCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// PanicError is a panic recovered in a worker goroutine, converted to an
// error naming the work item being processed when the panic fired.
type PanicError struct {
	Stage Stage
	Item  string // the work item, e.g. "fault g11/in0/str+25 under pattern 13"
	Value any    // the recovered panic value
	Stack []byte // stack captured at recovery
}

func (e *PanicError) Error() string {
	if e.Item == "" {
		return fmt.Sprintf("%s: panic: %v", e.Stage, e.Value)
	}
	return fmt.Sprintf("%s: panic processing %s: %v", e.Stage, e.Item, e.Value)
}

// NewPanic converts a value recovered from a panic into a *PanicError,
// capturing the current stack. Call it directly inside the deferred
// recover handler so the stack still contains the panic site.
func NewPanic(stage Stage, item string, value any) *PanicError {
	return &PanicError{Stage: stage, Item: item, Value: value, Stack: debug.Stack()}
}

// Degradation is the explicit result-quality ladder: how far below "exact
// optimum proven" a result had to settle. Solvers and harness results
// carry their rung so degraded numbers are reported, not implied.
type Degradation int

const (
	// DegradeNone: the result is exact — optimality proven (or the
	// requested computation completed in full).
	DegradeNone Degradation = iota
	// DegradeIncumbent: an exact branch-and-bound search was aborted by
	// its budget (the solve deadline) and the best incumbent — seeded
	// by the greedy heuristic — was returned instead of a proven optimum.
	DegradeIncumbent
	// DegradePartial: the run was interrupted and the result covers only
	// part of the requested work (e.g. a stopped suite run holding a
	// subset of the circuits).
	DegradePartial
)

func (d Degradation) String() string {
	switch d {
	case DegradeNone:
		return "exact"
	case DegradeIncumbent:
		return "incumbent"
	case DegradePartial:
		return "partial"
	}
	return fmt.Sprintf("Degradation(%d)", int(d))
}

// Worse returns the lower rung (larger Degradation) of the two.
func Worse(a, b Degradation) Degradation {
	if b > a {
		return b
	}
	return a
}
