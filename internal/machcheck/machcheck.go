// Package machcheck defines the structured machine-check taxonomy shared
// by the two dataflow execution engines (internal/machine and
// internal/chanexec). Following the operational-semantics view of the
// paper's correctness argument, every illegal execution must violate one
// of a small set of machine invariants; each invariant has a named check
// here, and every run that aborts does so with a *machcheck.Error
// identifying the violated check and carrying the stuck-token/node
// diagnostics needed to debug it.
//
// The checks:
//
//   - Deadlock — the engine can make no further progress but the end node
//     has not collected its tokens (quiescence before completion, an
//     unsatisfied I-structure read, or a watchdog-detected wedge).
//   - TokenLeak — execution completed but tokens survive it: a partially
//     matched activation whose partner can never arrive, or a procedure
//     activation that never returned (strict token conservation, §2.3).
//   - TagViolation — the tag discipline of §2.2/§3 was broken: a duplicate
//     token at one port under one tag, a token reaching end with a
//     non-root tag, or an unbalanced loop/call context.
//   - CyclesExceeded — a resource bound (cycles, firings, delivered
//     tokens) was exceeded: a runaway loop or token explosion.
//   - Deadline — the wall-clock deadline expired before completion.
//   - OperatorFault — an operator trapped on its operand values: division
//     by zero, an array index out of range, an I-structure write-once
//     violation.
//   - Determinacy — two executions of one determinate graph disagreed
//     (final stores or firing counts differ), or conflicting memory
//     operations overlapped in time (the §5 correctness condition).
//   - InvalidConfig — the run was misconfigured before it started: a
//     negative resource bound or processor count that could only arise
//     from a caller bug (every knob's zero value means "default").
//
// Callers match checks with errors.Is against the exported sentinels:
//
//	if errors.Is(err, machcheck.ErrDeadlock) { … }
//
// and recover full diagnostics with errors.As or Of.
package machcheck

import (
	"errors"
	"fmt"
	"strings"
)

// Check names one machine invariant. A Check is itself an error so it can
// serve as an errors.Is sentinel.
type Check string

// The machine checks.
const (
	Deadlock       Check = "deadlock"
	TokenLeak      Check = "token-leak"
	TagViolation   Check = "tag-violation"
	CyclesExceeded Check = "cycles-exceeded"
	Deadline       Check = "deadline"
	OperatorFault  Check = "operator-fault"
	Determinacy    Check = "determinacy"
	InvalidConfig  Check = "invalid-config"
)

// The run budgets both engines default to when a caller leaves the
// bound at zero; exceeding either aborts with CyclesExceeded.
const (
	DefaultMaxCycles       = 1_000_000
	DefaultMaxOps    int64 = 10_000_000
)

// Error implements error: a bare Check is the sentinel form.
func (c Check) Error() string { return "machine check: " + string(c) }

// Sentinels for errors.Is. Each is the bare Check; a *Error produced by an
// engine matches the sentinel naming its check.
var (
	ErrDeadlock       error = Deadlock
	ErrTokenLeak      error = TokenLeak
	ErrTagViolation   error = TagViolation
	ErrCyclesExceeded error = CyclesExceeded
	ErrDeadline       error = Deadline
	ErrOperatorFault  error = OperatorFault
	ErrDeterminacy    error = Determinacy
	ErrInvalidConfig  error = InvalidConfig
)

// Checks returns every check, in stable order.
func Checks() []Check {
	return []Check{Deadlock, TokenLeak, TagViolation, CyclesExceeded, Deadline, OperatorFault, Determinacy, InvalidConfig}
}

// Stuck describes one stuck token or partially matched activation — the
// diagnostic payload of a failed conservation or progress check.
type Stuck struct {
	// Node is the dataflow node id the token is stuck at.
	Node int `json:"node"`
	// Label is the node's diagnostic label.
	Label string `json:"label"`
	// Tag is the activation context of the stuck tokens.
	Tag string `json:"tag"`
	// Have and Need count arrived vs required operands (0/0 when the
	// entry counts queued, undelivered tokens instead).
	Have int `json:"have"`
	// Need is the number of operands the activation requires.
	Need int `json:"need"`
}

func (s Stuck) String() string {
	if s.Need == 0 {
		return fmt.Sprintf("%s(%d queued)", s.Label, s.Have)
	}
	return fmt.Sprintf("%s(tag %q, %d/%d)", s.Label, s.Tag, s.Have, s.Need)
}

// Error is a failed machine check: which invariant was violated, by which
// engine, when, and the stuck tokens that witness it.
type Error struct {
	// Check names the violated invariant.
	Check Check `json:"check"`
	// Engine names the engine that detected it ("machine", "channels",
	// "chaos").
	Engine string `json:"engine"`
	// Msg is the human-readable description.
	Msg string `json:"msg"`
	// Cycle is the engine cycle at detection (0 for clockless engines).
	Cycle int `json:"cycle,omitempty"`
	// Stuck lists the witnessing stuck tokens/activations (truncated to
	// MaxStuck entries; Truncated reports how many were dropped).
	Stuck []Stuck `json:"stuck,omitempty"`
	// Truncated counts stuck entries beyond the recorded ones.
	Truncated int `json:"truncated,omitempty"`
}

// MaxStuck bounds the stuck-token diagnostics attached to one Error.
const MaxStuck = 8

// Newf builds a check failure with a formatted message.
func Newf(check Check, engine, format string, args ...any) *Error {
	return &Error{Check: check, Engine: engine, Msg: fmt.Sprintf(format, args...)}
}

// Wrap converts an operand-level error (division by zero, index out of
// range, …) into an OperatorFault check failure, preserving the original
// text. A nil err returns nil.
func Wrap(engine string, err error) error {
	if err == nil {
		return nil
	}
	var e *Error
	if errors.As(err, &e) {
		return err
	}
	return &Error{Check: OperatorFault, Engine: engine, Msg: err.Error()}
}

// WithStuck attaches stuck-token diagnostics, truncating to MaxStuck.
func (e *Error) WithStuck(stuck []Stuck) *Error {
	if len(stuck) > MaxStuck {
		e.Truncated = len(stuck) - MaxStuck
		stuck = stuck[:MaxStuck]
	}
	e.Stuck = append([]Stuck(nil), stuck...)
	return e
}

// Error renders the failure: engine, check, message, then the stuck
// witnesses.
func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s check failed: %s", e.Engine, e.Check, e.Msg)
	if len(e.Stuck) > 0 {
		fmt.Fprintf(&b, "; stuck:")
		for _, s := range e.Stuck {
			fmt.Fprintf(&b, " %s", s)
		}
		if e.Truncated > 0 {
			fmt.Fprintf(&b, " …+%d more", e.Truncated)
		}
	}
	return b.String()
}

// Is matches the bare-Check sentinels, so errors.Is(err, ErrDeadlock)
// holds for any deadlock *Error.
func (e *Error) Is(target error) bool {
	c, ok := target.(Check)
	return ok && c == e.Check
}

// Of extracts the violated check from err, unwrapping as needed. The
// second result is false when err carries no machine check.
func Of(err error) (Check, bool) {
	var e *Error
	if errors.As(err, &e) {
		return e.Check, true
	}
	var c Check
	if errors.As(err, &c) {
		return c, true
	}
	return "", false
}
