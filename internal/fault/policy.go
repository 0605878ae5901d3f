package fault

import (
	"errors"
	"fmt"
)

// Policy selects how the runtime surfaces the paper's Table I translation
// faults (storing an unconvertible NVM virtual address through storeP or
// pointerAssignment). The zero value is Permissive, matching the default
// behaviour of both models before the policy existed.
type Policy int

const (
	// Permissive stores the virtual address unchanged: the reference is a
	// volatile one that legitimately does not survive remapping.
	Permissive Policy = iota
	// Strict raises the Table I fault as an error.
	Strict
)

func (p Policy) String() string {
	switch p {
	case Permissive:
		return "permissive"
	case Strict:
		return "strict"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Class enumerates the injectable fault classes of the store layer.
type Class int

const (
	// Transient is a retryable device error: the operation failed but the
	// medium is intact.
	Transient Class = iota
	// Torn persists only a prefix of the image, modelling a write cut off
	// by power failure.
	Torn
	// BitFlip corrupts a single bit of the image, modelling a media error.
	BitFlip
	// Stale silently drops the write, leaving the previous image in place,
	// modelling a lost update that rolls the pool back to its last
	// checkpoint.
	Stale
)

func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Torn:
		return "torn-write"
	case BitFlip:
		return "bit-flip"
	case Stale:
		return "stale-image"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ErrTransient marks retryable device errors. Stores wrap it so callers can
// distinguish faults worth retrying from corruption and programming errors.
var ErrTransient = errors.New("fault: transient device error")

// Transientf builds a transient error with context.
func Transientf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrTransient, fmt.Sprintf(format, args...))
}

// IsTransient reports whether err is (or wraps) a transient device error.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// RetryPolicy bounds how an operation prone to transient faults is retried.
type RetryPolicy struct {
	// Attempts is the total number of tries (minimum 1).
	Attempts int
	// Backoff, when non-nil, runs before each retry with the 1-based retry
	// number; it is where a real deployment would sleep. The simulator's
	// default leaves it nil so tests stay fast.
	Backoff func(retry int)
}

// DefaultRetry is the Registry's default policy: three attempts, no delay.
var DefaultRetry = RetryPolicy{Attempts: 3}

// Retry runs op until it succeeds, fails with a non-transient error, or the
// attempt budget is exhausted; the last error is returned in that case.
func (p RetryPolicy) Retry(op func() error) error {
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for try := 0; try < attempts; try++ {
		if try > 0 && p.Backoff != nil {
			p.Backoff(try)
		}
		err = op()
		if err == nil || !IsTransient(err) {
			return err
		}
	}
	return err
}
