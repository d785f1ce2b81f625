package cluster

// Helpers only the tests call; production code does not.

// DeviceHealth returns device i's breaker state (HealthHealthy when scoring
// is disabled), advancing a quarantine whose cooldown elapsed into
// probation first.
func (pl *Pool) DeviceHealth(i int) HealthState {
	if !pl.Health.Enabled {
		return HealthHealthy
	}
	pl.advanceHealth(i, pl.eng.Now())
	return pl.health[i].state
}
