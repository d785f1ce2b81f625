package cluster

// Retry budget: a pool-wide token bucket that bounds how much retry
// amplification the pool may generate. Per-task retry policies are blind to
// aggregate load — under a correlated fault every task retries "just
// MaxAttempts times" and the fleet melts into a metastable retry storm.
// The budget charges one token per retry and refills only as a fraction of
// successes, so sustained failure drains it and retries degrade into typed
// fast-fails (ErrRetryBudgetExhausted) that shed load instead of amplifying
// it. First attempts are never charged: the budget caps amplification, not
// admission.

// RetryBudgetPolicy configures the pool's retry token bucket. The zero
// value disables budgeting, preserving the unbounded PR 1 retry semantics.
type RetryBudgetPolicy struct {
	// Enabled turns budgeting on (default off).
	Enabled bool
}

// DefaultRetryBudget returns the enabled policy the tail experiments use.
func DefaultRetryBudget() RetryBudgetPolicy {
	return RetryBudgetPolicy{Enabled: true}
}

// The bucket's size and refill are constants, not policy fields: no
// experiment, command or benchmark ever set them.
const (
	// budgetCapacity is the bucket capacity and its initial fill: enough to
	// ride out a burst of transient faults (a few tasks retrying to their
	// limit), small enough that a correlated fault drains it within its
	// first dozen retries.
	budgetCapacity = 10.0
	// budgetRefill tokens are earned per successful task, capped at
	// budgetCapacity: one retry per ten successes bounds steady-state retry
	// amplification at 10% of the offered load.
	budgetRefill = 0.1
)

// budgetTake charges one token for a retry, reporting false when the bucket
// is dry — the caller must fast-fail instead of retrying.
func (pl *Pool) budgetTake() bool {
	if !pl.Budget.Enabled {
		return true
	}
	if pl.budgetTokens < 1 {
		return false
	}
	pl.budgetTokens--
	return true
}

// budgetRefill earns back a fraction of a token after a successful task.
func (pl *Pool) budgetRefill() {
	if !pl.Budget.Enabled {
		return
	}
	pl.budgetTokens += budgetRefill
	if pl.budgetTokens > budgetCapacity {
		pl.budgetTokens = budgetCapacity
	}
}

// RetryBudgetLeft returns the current token count (the full capacity while
// budgeting is disabled: nothing is ever taken), for tests and reporting.
func (pl *Pool) RetryBudgetLeft() float64 { return pl.budgetTokens }
